"""Rank-22 supersingular-type lattices, the primitive-embedding decision
procedure, table reproduction, and wild-degree bound search.

Everything here is discriminant-form level: the ambient even unimodular
lattice of signature (9, 41) is never materialized.  A query "does S embed
primitively into N_{p,sigma}" becomes: glue q_S to the negated N-form, run
over admissible isotropic subgroups of the p-part, and test each induced
form with the even-lattice existence criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from . import _exact as ex
from .fqf import (
    FiniteQuadraticForm,
    JordanComponent,
    det_rule_holds,
    direct_sum,
    negate,
    nikulin_exists,
    overlattice_candidates,
    render_symbol,
    signature_mod8,
    _eta,
)

SIGNATURE = (1, 21)


@dataclass(frozen=True)
class SupersingularForm:
    p: int
    sigma: int
    q: FiniteQuadraticForm
    tau: int  # tau(q), the signature class n_form's existence test checks

    @property
    def signature(self) -> tuple:
        return SIGNATURE


@lru_cache(maxsize=1024)
def n_form(p: int, sigma: int) -> SupersingularForm:
    """Discriminant form of the rank-22 lattice with A = (Z/p)^(2*sigma)."""
    ex.require_odd_prime(p)
    if not 1 <= sigma <= 10:
        raise ValueError("sigma must be between 1 and 10")
    if p % 4 == 3:
        sign = 1 if sigma % 2 == 1 else -1
    else:
        sign = -1
    q = FiniteQuadraticForm((JordanComponent(p, 1, 2 * sigma, sign),))
    if not nikulin_exists(*SIGNATURE, q):
        raise ArithmeticError("internal: candidate form fails the existence test")
    return SupersingularForm(p, sigma, q, (SIGNATURE[0] - SIGNATURE[1]) % 8)


@lru_cache(maxsize=1024)
def _negated_n_form(p: int, sigma: int) -> FiniteQuadraticForm:
    """-q_N, the D block primitively_embeds glues to q_S."""
    return negate(n_form(p, sigma).q)


def anisotropy_check(p: int, sigma: int) -> bool:
    """True iff the N-form has no totally isotropic subgroup of order p^sigma.

    Its p-part is a nondegenerate F_p space of dimension n = 2 sigma, whose
    Witt index is n/2 when it is split and n/2 - 1 when it is not (Artin
    1957, ch. III): so the check is that the space is not split.
    """
    return _eta(p, 2 * sigma, n_form(p, sigma).q.components[0].sign) == -1


@dataclass(frozen=True)
class EmbeddingQuery:
    q_s: FiniteQuadraticForm
    rank_s: int
    p: int
    sigma: int
    # what q_S and the rank fix at every p and sigma, read from the memo
    # whose first call checks them
    row: _QueryRow = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "row", _query_row(self.q_s.components, self.rank_s))


@dataclass(frozen=True)
class _QueryRow:
    """What q_S and the rank fix at every p and sigma: -q_S (its components
    as written, which certificates render), tau(-q_S), ell_l(-q_S) at each
    prime l of A_S, and whether the rank bound and Nikulin's rule at each such
    l hold for the trivial H's form -q_S + q_N at signature (1, n - 1),
    n = 22 - rank.  q_N lives at p with order
    p^(2 sigma), a square, so at l != p neither sees p; and where -q_S alone
    has ell_p > n, or ell_p = n and fails the rule, -q_S + q_N fails the rank
    bound at p all the same (README)."""
    rank: int
    neg: FiniteQuadraticForm
    tau: int
    ranks: dict
    away_ok: bool

    def trivial_h_target(self, p: int, sigma: int) -> FiniteQuadraticForm | None:
        """-q_S + q_N, component for component, when an even lattice of
        signature (1, 21 - rank) carries it, else None: the row's verdict at
        the primes of A_S, then the rank bound and the rule at p, and the
        signature sum (which every checked query meets, since the query check
        gives tau(-q_S) = rank and n_form's gives tau(q_N) = 4)."""
        n_sigma = n_form(p, sigma)
        n = 22 - self.rank
        ell_p = self.ranks.get(p, 0) + 2 * sigma
        if (not self.away_ok or ell_p > n
                or (self.tau + n_sigma.tau) % 8 != (2 - n) % 8):
            return None
        target = direct_sum(self.neg, n_sigma.q)
        if ell_p == n and not det_rule_holds(target, n - 1, p):
            return None
        return target


@lru_cache(maxsize=1024)
def _query_row(comps: tuple, rank: int) -> _QueryRow:
    """Check the query's q_S and rank (ValueError unless an even
    negative-definite lattice of the rank, with rank + ell <= 24, carries
    q_S), then compute its _QueryRow.  Memoised by the
    components and the rank: neither depends on p, and a table row asks at
    every prime."""
    q_s = FiniteQuadraticForm(comps)
    if rank < 0 or rank > 21:
        raise ValueError("rank must be between 0 and 21")
    if rank + q_s.ell() > 24:
        raise ValueError("rank + ell(A) exceeds 24; not a Leech-side lattice")
    if not nikulin_exists(0, rank, q_s):
        raise ValueError(f"no even negative-definite lattice of rank {rank} "
                         f"has discriminant form {render_symbol(q_s)}")
    neg = negate(q_s)
    n = 22 - rank
    ranks = neg.ranks()
    away_ok = all(ell < n or ell == n and det_rule_holds(neg, n - 1, ell_prime)
                  for ell_prime, ell in ranks.items())
    return _QueryRow(rank, neg, signature_mod8(neg), ranks, away_ok)


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


def primitively_embeds(q_s: FiniteQuadraticForm, rank_s: int, p: int,
                       sigma: int) -> EmbedDecision:
    """Decide a primitive embedding into the (p, sigma) lattice at form level.

    Glues q_S with the negated N-form and accepts as soon as some admissible
    isotropic subgroup H of the p-part (|H| <= p^min(ell_p(A_S), 2*sigma),
    meeting neither block) induces a form whose negation is realized by an
    even lattice of signature (1, 21 - rank_S).  The trivial H is decided
    from the query's row and the N-form, and builds its forms only to
    certify an acceptance; the search runs past it only when p | |A_S|.
    |H| fixes the induced form, so the glued search yields one form per
    order, and every H counts as tried: all H of each order rejected, and
    the one accepted.  H-perp/H has order |A| / |H|^2, so no two orders
    share a form.
    """
    query = EmbeddingQuery(q_s, rank_s, p, sigma)
    target = query.row.trivial_h_target(p, sigma)
    if target is not None:
        cert = Certificate(1, direct_sum(q_s, _negated_n_form(p, sigma)), target)
        return EmbedDecision(query, True, cert, 1)
    hmax = p ** min(q_s.ell_p(p), 2 * sigma)
    passed = 1  # the H of the orders rejected so far, the trivial H first
    if hmax >= p:
        items = overlattice_candidates(q_s, p, hmax, _negated_n_form(p, sigma))
        next(items)  # the trivial H, decided above
        for h, q_tilde, count in items:
            target = negate(q_tilde)
            if nikulin_exists(1, 21 - rank_s, target):
                return EmbedDecision(query, True, Certificate(h, q_tilde, target), passed + 1)
            passed += count
    return EmbedDecision(query, False, None, passed)


def odd_primes_below(n: int) -> list:
    return [p for p in range(3, n) if ex.is_prime(p)]


TABLE_SIGMA = 1  # the Artin invariant the paper's table conditions are stated at


def reproduce_table(records, prime_set=None) -> dict:
    """Compare the sigma = 1 embedding decision against every row's prime
    condition.  The primes run outer, so each prime's N-form is made once
    and read from the n_form cache by the other rows, however many primes."""
    records = list(records)
    if prime_set is None:
        prime_set = odd_primes_below(200)
    embeds_at = [[] for _ in records]
    for p in prime_set:
        for rec, primes in zip(records, embeds_at):
            if primitively_embeds(rec.q_s, rec.rank, p, TABLE_SIGMA).embeds:
                primes.append(p)
    rows = []
    passed = 0
    for rec, computed in zip(records, embeds_at):
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
            "sigma": TABLE_SIGMA,
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
        g_r += sum(ex.valuation(math.factorial(n), p) for n in counts)
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
