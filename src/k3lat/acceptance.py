"""Acceptance suite: one callable per criterion, shared by tests and the CLI.

Each criterion returns a CriterionResult; run_all() executes all nine in
order.  Criterion runtimes are measured against the stated budgets.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import _exact as ex
from . import hmdata, k3class
from .fqf import (
    FiniteQuadraticForm,
    JordanComponent,
    brute_force_tau,
    direct_sum,
    isomorphic,
    negate,
    nikulin_exists,
    overlattice_candidates,
    render_symbol,
    signature_mod8,
    symbol_of,
)
from .intlat import (
    IntegralLattice,
    Sublattice,
    discriminant_group,
    is_primitive,
    orthogonal_complement,
    roots,
    saturate,
)
from .prootpair import IsometryGroup, classify, disc_action_nontrivial, p_group_check, verdict
from .rootsys import (
    a4_a4_pieces,
    build,
    cycle_isometry,
    named_elements,
    reflection,
    simple_reflections,
    t_sublattice,
    theta_e8,
    weights,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: list = field(default_factory=list)
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        return {"number": self.number, "name": self.name, "passed": self.passed,
                "details": self.details, "elapsed": round(self.elapsed, 2)}


def _check(result: CriterionResult, ok: bool, message: str) -> None:
    if not ok:
        result.passed = False
        result.details.append(message)


def criterion_1() -> CriterionResult:
    res = CriterionResult(1, "table reproduction, 67 rows x odd primes < 200", True)
    t0 = time.time()
    records = hmdata.load_table()
    _check(res, len(records) == 67, f"expected 67 records, got {len(records)}")
    report = k3class.reproduce_table(records)
    s = report["summary"]
    _check(res, s["rows_passed"] == s["rows_total"] == 67,
           f"{s['rows_passed']}/{s['rows_total']} rows matched")
    for row in report["rows"]:
        if not row["pass"]:
            res.details.append(
                f"row {row['no']}: expected {row['expected']!r}, "
                f"computed {row['computed']!r}")
    res.elapsed = time.time() - t0
    _check(res, res.elapsed < 60, f"runtime {res.elapsed:.1f}s exceeds 60s target")
    return res


def criterion_2() -> CriterionResult:
    res = CriterionResult(2, "worked example: case 170 intermediate forms", True)
    t0 = time.time()
    qs = hmdata.parse_symbol("4_3^-1 3^-1 7^-1")
    q_total_3 = direct_sum(qs, negate(k3class.n_form(3, 1).q))
    _check(res, render_symbol(q_total_3) == "4_3^-1 3^-3 7^-1",
           f"glued form at p=3 is {render_symbol(q_total_3)}")
    saturations_3 = [f for _, f, _ in overlattice_candidates(
        qs, 3, 3, negate(k3class.n_form(3, 1).q))]
    wanted = hmdata.parse_symbol("4_3^-1 3^+1 7^-1")
    _check(res, any(isomorphic(f, wanted) for f in saturations_3),
           "index-3 saturation 4_3^-1 3^+1 7^-1 not found")
    _check(res, render_symbol(negate(wanted)) == "4_5^-1 3^-1 7^+1",
           f"negation of saturation is {render_symbol(negate(wanted))}")
    d7 = k3class.primitively_embeds(qs, 21, 7, 1)
    _check(res, d7.embeds, "case 170 should embed at p=7")
    if d7.certificate:
        _check(res, render_symbol(d7.certificate.q_complement) == "4_5^-1 3^+1 7^-1",
               f"certificate complement {render_symbol(d7.certificate.q_complement)}")
    d3 = k3class.primitively_embeds(qs, 21, 3, 1)
    _check(res, not d3.embeds, "case 170 should not embed at p=3")
    res.elapsed = time.time() - t0
    return res


def criterion_3() -> CriterionResult:
    res = CriterionResult(3, "supersingular forms: branch rule, tau = 4, anisotropy", True)
    t0 = time.time()
    for p in k3class.odd_primes_below(50):
        for sigma in range(1, 11):
            form = k3class.n_form(p, sigma)
            comp = form.q.components[0]
            if p % 4 == 3 and sigma % 2 == 1:
                want = 1
            else:
                want = -1
            _check(res, comp.sign == want and comp.rank == 2 * sigma,
                   f"n_form({p},{sigma}) = {render_symbol(form.q)}")
            _check(res, signature_mod8(form.q) == 4,
                   f"tau(n_form({p},{sigma})) = {signature_mod8(form.q)}")
            _check(res, form.q.ell() == 2 * sigma,
                   f"ell(n_form({p},{sigma})) = {form.q.ell()}")
            _check(res, k3class.anisotropy_check(p, sigma),
                   f"anisotropy_check({p},{sigma}) failed")
    res.elapsed = time.time() - t0
    return res


def _random_form(rng: random.Random, max_order: int = 10 ** 4) -> FiniteQuadraticForm:
    comps = []
    order = 1
    taken = set()
    for _ in range(rng.randint(1, 3)):
        p = rng.choice([2, 2, 3, 3, 5, 7])
        k = rng.randint(1, 2)
        if (p, k) in taken:
            continue
        rank = rng.randint(1, 3)
        if order * p ** (k * rank) > max_order:
            continue
        taken.add((p, k))
        order *= p ** (k * rank)
        if p == 2:
            if rank % 2 == 0 and rng.random() < 0.4:
                comps.append(JordanComponent(2, k, rank, rng.choice([1, -1]), None))
            else:
                while True:
                    t = rng.randrange(8)
                    sign = rng.choice([1, -1])
                    try:
                        comps.append(JordanComponent(2, k, rank, sign, t))
                        break
                    except ValueError:
                        continue
        else:
            comps.append(JordanComponent(p, k, rank, rng.choice([1, -1])))
    if not comps:
        comps.append(JordanComponent(3, 1, 1, 1))
    return FiniteQuadraticForm(tuple(comps))


def criterion_4() -> CriterionResult:
    res = CriterionResult(4, "symbol engine: pinned symbols and the Gauss-sum oracle", True)
    t0 = time.time()
    q84 = symbol_of(IntegralLattice(((84,),)))
    _check(res, render_symbol(q84) == "4_5^-1 3^+1 7^-1",
           f"symbol of <84> is {render_symbol(q84)}")
    for p in k3class.odd_primes_below(50):
        m = p - 1
        gram = tuple(tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0)
                           for j in range(m)) for i in range(m))
        sym = symbol_of(IntegralLattice(gram))
        want = 1 if p % 4 == 1 else -1
        _check(res, len(sym.components) == 1 and sym.components[0].sign == want
               and sym.components[0].rank == 1 and sym.components[0].prime == p,
               f"symbol of A_{p-1} is {render_symbol(sym)}")
    # The traditional form p^+3 of T(A_{p-1}) fails at p = 3: T(A_2) has rank
    # 2 and Gram ((6, 9), (9, 18)), so its group is Z/3 x Z/9 and over Z_3 it
    # is <6> + <9/2>, both units non-residues mod 3.
    for p in (3, 5, 7, 11, 13):
        if p == 3:
            want_sym, want_orders = "3^-1 9^-1", (3, 9)
            note = (" (the traditional 3^+3 cannot hold: a rank-2 lattice "
                    "cannot carry a 3-generator group)")
        else:
            want_sym, want_orders, note = f"{p}^+3", (p, p, p), ""
        t_lat = t_sublattice(p).as_lattice()
        sym = render_symbol(symbol_of(t_lat))
        orders = discriminant_group(t_lat).cyclic_orders
        _check(res, sym == want_sym,
               f"symbol of the index-{p} sublattice of A_{p-1} is {sym}, "
               f"not {want_sym}{note}")
        _check(res, orders == want_orders,
               f"invariant factors of the index-{p} sublattice of A_{p-1} are "
               f"{orders}, not {want_orders}")
    rng = random.Random(20260810)
    for _ in range(200):
        q = _random_form(rng)
        _check(res, signature_mod8(q) == brute_force_tau(q),
               f"tau mismatch for {render_symbol(q)}")
    res.elapsed = time.time() - t0
    return res


def criterion_5() -> CriterionResult:
    res = CriterionResult(5, "exhaustive p-root pair classification", True)
    t0 = time.time()
    for p in (3, 5, 7, 11):
        out = classify("D4", p)
        fulls = out.full_pairs()
        if p == 3:
            _check(res, len(fulls) >= 1, "no full pair found for D4 at p=3")
            for e in fulls:
                _check(res, all(g.order() in (1, 3) for g in e.generators)
                       or e.order % 3 == 0,
                       "full D4 pair without order-3 structure")
                _check(res, e.verdict.fixed_rank == 0, "full pair with fixed vectors")
            gx = named_elements(build("D4"))["gx"]
            _check(res, verdict(build("D4"), [gx], 3).is_full,
                   "<gx> itself is not a full pair at p=3")
        else:
            _check(res, len(fulls) == 0, f"unexpected full D4 pair at p={p}")
    for p in (3, 5, 7):
        out = classify("D5", p)
        _check(res, len(out.full_pairs()) == 0, f"unexpected full D5 pair at p={p}")
        for e in out.entries:
            _check(res, e.order in (1, 2),
                   f"D5 pseudo class of order {e.order} outside the two known shapes")
    for m in range(1, 8):
        for p in (3, 5, 7):
            out = classify(f"A{m}", p)
            found = len(out.full_pairs()) > 0
            power = m + 1 == p ** ex.valuation(m + 1, p)
            _check(res, found == power,
                   f"A{m} at p={p}: full pairs {'found' if found else 'absent'} "
                   f"but m+1 {'is' if power else 'is not'} a power of p")
    res.elapsed = time.time() - t0
    _check(res, res.elapsed < 300, f"runtime {res.elapsed:.1f}s exceeds 5 min")
    return res


def criterion_6() -> CriterionResult:
    res = CriterionResult(6, "named elements of E8", True)
    t0 = time.time()
    e8 = build("E8")
    nm = named_elements(e8)
    a, b = nm["a"], nm["b"]
    _check(res, a.order() == 5 and b.order() == 5, "a, b must have order 5")
    _check(res, (a * b).matrix == (b * a).matrix, "a and b must commute")
    sm = simple_reflections(e8)
    s_neg_theta = reflection(e8, tuple(-t for t in theta_e8()))
    _check(res, (s_neg_theta * sm[0] * sm[1] * sm[2]).matrix == a.matrix,
           "a is not the stated reflection product")
    e4 = tuple(1 if i == 3 else 0 for i in range(8))
    diff = tuple(x - y for x, y in zip(a.apply(e4), e4))
    _check(res, e8.is_root(diff), "a(alpha_4) - alpha_4 is not a root")
    amb = e8.simple_to_ambient(diff)
    _check(res, amb == tuple(Fraction(v) for v in (-1, 0, 0, 0, -1, 0, 0, 0)),
           f"difference vector is {amb}")
    p1, p2 = a4_a4_pieces(e8)
    _check(res, all(e8.inner(u, v) == 0 for u in p1 for v in p2),
           "the two A4 pieces are not orthogonal")
    grp = IsometryGroup(e8, (a, b))
    _check(res, grp.order == 25, f"<a,b> has order {grp.order}")
    res.elapsed = time.time() - t0
    _check(res, res.elapsed < 1.0, f"runtime {res.elapsed:.2f}s exceeds 1s")
    return res


def criterion_7() -> CriterionResult:
    res = CriterionResult(7, "discriminant-action obstruction with witness", True)
    t0 = time.time()
    for p in (3, 5, 7, 11):
        n = p - 1
        g = cycle_isometry(n)
        sub = t_sublattice(p)
        nontrivial, _, _ = disc_action_nontrivial(sub, g)
        _check(res, nontrivial, f"action on the discriminant is trivial at p={p}")
        ws = weights(build(f"A{n}"))
        x0 = tuple(sum(Fraction(w[j]) for w in ws) / p for j in range(n))
        diff = tuple(u - v for u, v in zip(g.apply(x0), x0))
        minus_w1 = tuple(-Fraction(v) for v in ws[0])
        _check(res, diff == minus_w1, f"witness difference at p={p} is not -w_1")
    res.elapsed = time.time() - t0
    return res


def criterion_8() -> CriterionResult:
    res = CriterionResult(8, "wild-degree bounds", True)
    t0 = time.time()
    records = hmdata.load_table()
    expected = {11: (1, (("A10", 1),)), 7: (3, (("A6", 3),)),
                5: (6, (("A4", 5),)), 3: (14, (("A2", 10),))}
    for p, (bound, witness) in expected.items():
        rep = k3class.wild_degree_bound(p, records)
        _check(res, rep.bound == bound, f"p={p}: bound {rep.bound} != {bound}")
        _check(res, rep.witness_decomposition == witness,
               f"p={p}: witness {rep.witness_decomposition}")
    for p in (13, 17, 199):
        rep = k3class.wild_degree_bound(p, records)
        _check(res, rep.tame_only and rep.bound == 0, f"p={p} should be tame-only")
    res.elapsed = time.time() - t0
    _check(res, res.elapsed < 10, f"runtime {res.elapsed:.1f}s exceeds 10s")
    return res


def _random_even_gram(rng: random.Random, n: int, spread: int = 2):
    while True:
        c = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        g = [[c[i][j] + c[j][i] for j in range(n)] for i in range(n)]
        gm = ex.to_mat(g)
        if ex.det_int(gm) != 0:
            return IntegralLattice(gm)


def criterion_9() -> CriterionResult:
    res = CriterionResult(9, "property suites (randomized and exhaustive)", True)
    t0 = time.time()
    rng = random.Random(99)
    trials = 0

    # intlat: |A_S| = n^2 |A_L| for finite-index sublattices
    for _ in range(4600):
        n = rng.randint(1, 3)
        lat = _random_even_gram(rng, n)
        while True:
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            if ex.det_int(ex.to_mat(b)) != 0:
                break
        sub = Sublattice(lat, ex.to_mat(b))
        idx = sub.index()
        got = abs(ex.det_int(sub.gram()))
        _check(res, got == idx * idx * abs(lat.det),
               f"|A_S| != n^2 |A_L| for {lat.gram} basis {b}")
        trials += 1

    # intlat: complement primitivity and double complement
    e8 = build("E8").lattice()
    for _ in range(400):
        k = rng.randint(1, 4)
        rows = [[rng.randint(-1, 1) for _ in range(8)] for _ in range(k)]
        h = ex.row_hnf(ex.to_mat(rows))
        if not h:
            continue
        sub = Sublattice(e8, h)
        comp = orthogonal_complement(e8, sub)
        _check(res, is_primitive(e8, comp), "complement is not primitive")
        sat, _ = saturate(e8, sub)
        comp2 = orthogonal_complement(e8, comp)
        _check(res, comp2.hnf_basis() == sat.hnf_basis(),
               "double complement differs from the saturation")
        disc_sat = discriminant_group(sat.as_lattice()) if sat.rank else None
        if disc_sat is not None:
            _check(res, sat.rank + disc_sat.ell() <= 8,
                   "rank + ell exceeds the unimodular bound")
        trials += 1

    # intlat: root lists are closed under negation with norms +-2
    for _ in range(60):
        lat = _random_even_gram(rng, rng.randint(1, 3))
        pos, neg = lat.signature()
        if pos and neg:
            continue
        rts = roots(lat)
        rset = set(rts)
        sign = 2 if neg == 0 else -2
        _check(res, all(tuple(-x for x in r) in rset for r in rts),
               "root list not closed under negation")
        _check(res, all(lat.norm(r) == sign for r in rts), "root of wrong norm")
        trials += 1

    # fqf: symbol is additive, negation involutive, tau additive/anti-symmetric
    for _ in range(3200):
        l1 = _random_even_gram(rng, rng.randint(1, 3))
        l2 = _random_even_gram(rng, rng.randint(1, 3))
        q1, q2 = symbol_of(l1), symbol_of(l2)
        _check(res, isomorphic(symbol_of(l1.direct_sum(l2)), direct_sum(q1, q2)),
               f"symbol not additive for {l1.gram} + {l2.gram}")
        _check(res, negate(negate(q1)).components == q1.components,
               "negation is not an involution")
        _check(res, signature_mod8(negate(q1)) == (-signature_mod8(q1)) % 8,
               "tau does not negate")
        p1 = l1.signature()
        _check(res, signature_mod8(q1) == (p1[0] - p1[1]) % 8,
               f"tau(symbol) != signature mod 8 for {l1.gram}")
        trials += 1

    # fqf: nikulin existence accepts every actually realized pair
    for _ in range(1500):
        lat = _random_even_gram(rng, rng.randint(1, 4))
        sp, sm = lat.signature()
        _check(res, nikulin_exists(sp, sm, symbol_of(lat)),
               f"existence test rejects a realized lattice {lat.gram}")
        trials += 1

    # fqf: overlattice forms drop the group order by |H|^2
    for _ in range(700):
        lat = _random_even_gram(rng, 2)
        q = symbol_of(lat)
        for p in (3, 5):
            if q.ell_p(p) == 0:
                continue
            for h, form, _ in overlattice_candidates(q, p, p):
                _check(res, form.group_order() * h * h == q.group_order(),
                       f"group order drop wrong for {render_symbol(q)}")
                trials += 1

    # prootpair: intersection with the Weyl group is a p-group on every
    # pseudo pair in the exhaustive scopes
    for label, ps in (("D4", (3, 5)), ("D5", (3,)), ("A2", (3,)), ("A4", (5,))):
        datum = build(label)
        for p in ps:
            out = classify(label, p)
            for e in out.entries:
                grp = IsometryGroup(datum, e.generators)
                _check(res, p_group_check(datum, grp, p),
                       f"H cap W not a p-group for {label} at {p}")
                trials += 1
            for e in out.full_pairs():
                _check(res, e.verdict.fixed_rank == 0, "full pair with fixed part")
                trials += 1

    res.details.insert(0, f"{trials} checks executed")
    if res.passed:
        res.details = res.details[:1]
    res.elapsed = time.time() - t0
    return res


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9]


def run_all():
    return [fn() for fn in CRITERIA]
