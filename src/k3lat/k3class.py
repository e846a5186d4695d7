"""Rank-22 supersingular-type lattices, the primitive-embedding decision
procedure, table reproduction, and wild-degree bound search.

Everything here is discriminant-form level: the ambient even unimodular
lattice of signature (9, 41) is never materialized.  A query "does S embed
primitively into N_{p,sigma}" becomes: glue q_S to the negated N-form, run
over admissible isotropic subgroups of the p-part, and test each induced
form with the even-lattice existence criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import _exact as ex
from .fqf import (
    FiniteQuadraticForm,
    JordanComponent,
    direct_sum,
    negate,
    nikulin_exists,
    overlattice_candidates,
    render_symbol,
    _odd_unit_numerators,
)

SIGNATURE = (1, 21)


@dataclass(frozen=True)
class SupersingularForm:
    p: int
    sigma: int
    q: FiniteQuadraticForm

    @property
    def signature(self) -> tuple:
        return SIGNATURE


def n_form(p: int, sigma: int) -> SupersingularForm:
    """Discriminant form of the rank-22 lattice with A = (Z/p)^(2*sigma)."""
    if p < 3 or not ex.is_prime(p):
        raise ValueError("p must be an odd prime")
    if not 1 <= sigma <= 10:
        raise ValueError("sigma must be between 1 and 10")
    if p % 4 == 3:
        sign = 1 if sigma % 2 == 1 else -1
    else:
        sign = -1
    q = FiniteQuadraticForm((JordanComponent(p, 1, 2 * sigma, sign),))
    if not nikulin_exists(*SIGNATURE, q):
        raise ArithmeticError("internal: candidate form fails the existence test")
    return SupersingularForm(p, sigma, q)


def _witt_index_diag(p: int, coeffs) -> int:
    """Witt index of sum c_i x_i^2 over F_p (exhaustive hyperbolic splitting)."""
    gram = [[0] * len(coeffs) for _ in range(len(coeffs))]
    for i, c in enumerate(coeffs):
        gram[i][i] = c % p
    return _witt_index_gram(p, gram)


def _witt_index_gram(p: int, gram) -> int:
    d = len(gram)
    if d == 0:
        return 0
    iso = None
    for vec in product(range(p), repeat=d):
        if not any(vec):
            continue
        q = 0
        for i in range(d):
            q += gram[i][i] * vec[i] * vec[i]
            for j in range(i + 1, d):
                q += 2 * gram[i][j] * vec[i] * vec[j]
        if q % p == 0:
            iso = vec
            break
    if iso is None:
        return 0

    def b(u, v):
        total = 0
        for i in range(d):
            for j in range(d):
                total += gram[i][j] * u[i] * v[j]
        return total % p

    w = None
    for i in range(d):
        e = tuple(1 if j == i else 0 for j in range(d))
        if b(iso, e) % p:
            w = e
            break
    basis = []
    c = b(iso, w)
    cinv = pow(c, -1, p)
    for i in range(d):
        e = tuple(1 if j == i else 0 for j in range(d))
        mu = b(e, iso) * cinv % p  # kills the pairing with iso
        lam = (b(e, w) - mu * b(w, w)) * cinv % p  # kills the pairing with w
        u = tuple((e[k] - lam * iso[k] - mu * w[k]) % p for k in range(d))
        basis.append(u)
    # pick d-2 independent rows of the projected vectors
    ech, pivots = ex.modp_echelon(basis, p)
    sub = ech[: d - 2]
    sub_gram = [[b(u, v) for v in sub] for u in sub]
    return 1 + _witt_index_gram(p, sub_gram)


def anisotropy_check(p: int, sigma: int, exhaustive_limit: int = 10 ** 5) -> bool:
    """True iff the N-form has no totally isotropic subgroup of order p^sigma.

    Uses the discriminant-class criterion, and additionally an exhaustive
    hyperbolic-splitting search when |A| fits under the limit.
    """
    form = n_form(p, sigma)
    sign = form.q.components[0].sign
    hyperbolic_sign = ex.legendre(-1, p) ** sigma
    symbol_ok = sign != hyperbolic_sign
    if p ** (2 * sigma) <= exhaustive_limit:
        coeffs = _odd_unit_numerators(p, 2 * sigma, sign)
        witt = _witt_index_diag(p, coeffs)
        exhaustive_ok = witt < sigma
        return symbol_ok and exhaustive_ok
    return symbol_ok


@dataclass(frozen=True)
class EmbeddingQuery:
    q_s: FiniteQuadraticForm
    rank_s: int
    p: int
    sigma: int

    def __post_init__(self):
        if self.rank_s < 0 or self.rank_s > 21:
            raise ValueError("rank must be between 0 and 21")
        if self.rank_s + self.q_s.ell() > 24:
            raise ValueError("rank + ell(A) exceeds 24; not a Leech-side lattice")


@dataclass(frozen=True)
class Certificate:
    h_order: int
    q_saturation: FiniteQuadraticForm
    q_complement: FiniteQuadraticForm  # = -q_saturation, the existing lattice's form


@dataclass(frozen=True)
class EmbedDecision:
    query: EmbeddingQuery
    embeds: bool
    certificate: Certificate | None
    candidates_tried: int

    def as_dict(self) -> dict:
        out = {
            "qs": render_symbol(self.query.q_s),
            "rank": self.query.rank_s,
            "p": self.query.p,
            "sigma": self.query.sigma,
            "embeds": self.embeds,
            "candidates_tried": self.candidates_tried,
        }
        if self.certificate:
            out["certificate"] = {
                "h_order": self.certificate.h_order,
                "q_saturation": render_symbol(self.certificate.q_saturation),
                "q_complement": render_symbol(self.certificate.q_complement),
            }
        return out


def primitively_embeds(q_s: FiniteQuadraticForm, rank_s: int, p: int, sigma: int,
                       enforce_d_primitive: bool = True) -> EmbedDecision:
    """Decide a primitive embedding into the (p, sigma) lattice at form level.

    Glues q_S with the negated N-form, enumerates admissible isotropic
    subgroups H of the p-part (|H| <= p^min(ell_p(A_S), 2*sigma)), and accepts
    as soon as some induced form's negation is realized by an even lattice of
    signature (1, 21 - rank_S).
    """
    query = EmbeddingQuery(q_s, rank_s, p, sigma)
    nf = n_form(p, sigma)
    q_d = negate(nf.q)
    q_total = direct_sum(q_s, q_d)
    hmax = p ** min(q_s.ell_p(p), 2 * sigma)
    sig = (1, 21 - rank_s)
    tried = 0
    for h, q_tilde in overlattice_candidates(
        q_total, p, hmax,
        s_form=q_s, d_form=q_d, enforce_d=enforce_d_primitive,
    ):
        tried += 1
        target = negate(q_tilde)
        if nikulin_exists(sig[0], sig[1], target):
            cert = Certificate(h, q_tilde, target)
            return EmbedDecision(query, True, cert, tried)
    return EmbedDecision(query, False, None, tried)


def odd_primes_below(n: int) -> list:
    return [p for p in range(3, n) if ex.is_prime(p)]


def reproduce_table(records, prime_set=None, sigma: int = 1) -> dict:
    """Compare the embedding decision against every row's prime condition."""
    if prime_set is None:
        prime_set = odd_primes_below(200)
    rows = []
    passed = 0
    for rec in records:
        computed = []
        for p in prime_set:
            if primitively_embeds(rec.q_s, rec.rank, p, sigma).embeds:
                computed.append(p)
        expected = [p for p in prime_set if rec.condition.evaluate(p)]
        ok = computed == expected
        passed += ok
        rows.append({
            "no": rec.number,
            "checked_primes": list(prime_set),
            "expected": rec.condition.text,
            "computed": ",".join(str(p) for p in computed),
            "pass": ok,
            "mismatch_primes": sorted(set(computed) ^ set(expected)),
        })
    report = {
        "rows": rows,
        "summary": {
            "rows_total": len(rows),
            "rows_passed": passed,
            "primes_checked": len(prime_set),
            "sigma": sigma,
        },
    }
    return report


# ---------------------------------------------------------------------------
# wild-degree bounds


@dataclass(frozen=True)
class ComponentBudget:
    label: str
    rank: int
    nu_cap: int


def allowed_components(p: int) -> list:
    """Irreducible root components available at p, with per-component caps."""
    table = {
        11: [ComponentBudget("A10", 10, 1)],
        7: [ComponentBudget("A6", 6, 1)],
        5: [ComponentBudget("A4", 4, 1), ComponentBudget("E8", 8, 1)],
        3: [
            ComponentBudget("A2", 2, 1),
            ComponentBudget("A8", 8, 4),
            ComponentBudget("D4", 4, 1),
            ComponentBudget("E6", 6, 4),
            ComponentBudget("E8", 8, 5),
        ],
    }
    if p in table:
        return table[p]
    if p > 2 and ex.is_prime(p):
        return []  # tame territory: group order is coprime to p
    raise ValueError("p must be an odd prime")


def _nu_factorial(p: int, n: int) -> int:
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


@dataclass(frozen=True)
class WildBoundReport:
    p: int
    bound: int
    witness_decomposition: tuple  # ((label, count), ...)
    g_r_contribution: int
    g_l_contribution: int
    g_l_row: int | None
    tame_only: bool = False
    note: str = ""


MAX_ROOT_RANK = 21  # the root part sits inside a negative definite
                    # sublattice of a signature-(1,21) lattice


def wild_degree_bound(p: int, table) -> WildBoundReport:
    """Exhaustive search over root-component multisets of total rank <= 21."""
    comps = allowed_components(p)
    if not comps:
        return WildBoundReport(p, 0, (), 0, 0, None, tame_only=True,
                               note="group order is coprime to p for p >= 13")
    max_counts = [MAX_ROOT_RANK // c.rank for c in comps]
    best = None
    for counts in product(*[range(c + 1) for c in max_counts]):
        rank_r = sum(n * c.rank for n, c in zip(counts, comps))
        if rank_r > MAX_ROOT_RANK:
            continue
        g_r = sum(n * c.nu_cap for n, c in zip(counts, comps))
        g_r += sum(_nu_factorial(p, n) for n in counts)
        obstructed = False
        if p == 11 and counts == (2,):
            # the double-A10 branch is obstructed: the p-cycle acts
            # nontrivially on the discriminant of each T-piece
            if _double_a10_obstruction():
                g_r = 1
                obstructed = True
        g_l, g_l_row = 0, None
        for rec in table:
            if rec.rank <= 24 - rank_r:
                v = ex.valuation(rec.order, p)
                if g_l_row is None or v > g_l:
                    g_l, g_l_row = v, rec.number
        total = g_r + g_l
        decomposition = tuple((c.label, n) for c, n in zip(comps, counts) if n)
        min_rank_count = 0
        if not obstructed:
            used_ranks = [c.rank for c, n in zip(comps, counts) if n]
            if used_ranks:
                smallest = min(used_ranks)
                min_rank_count = max(n for c, n in zip(comps, counts)
                                     if n and c.rank == smallest)
        key = (total, min_rank_count, decomposition)
        if best is None or key > (best[0], best[1], best[2]):
            best = (total, min_rank_count, decomposition, g_r, g_l, g_l_row)
    total, _, decomposition, g_r, g_l, g_l_row = best
    return WildBoundReport(p, total, decomposition, g_r, g_l, g_l_row)


def _double_a10_obstruction() -> bool:
    from .prootpair import disc_action_nontrivial
    from .rootsys import cycle_isometry, t_sublattice

    nontrivial, _, _ = disc_action_nontrivial(t_sublattice(11), cycle_isometry(10))
    return nontrivial


def tame_rank_bound_check(p: int, sigma: int, record) -> bool:
    """If the row is tame at p (trivial p-part) and embeds at (p, sigma), the
    covariant rank must satisfy rank <= 22 - 2*sigma."""
    if record.q_s.ell_p(p) != 0:
        return True
    if not primitively_embeds(record.q_s, record.rank, p, sigma).embeds:
        return True
    return record.rank <= 22 - 2 * sigma
