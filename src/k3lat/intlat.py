"""Exact integer lattice core.

Lattices are given by integer Gram matrices; all derived data (duals,
discriminant groups, complements, saturations, short vectors) is computed
with exact integer/rational arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from . import _exact as ex

MAX_SHORT_VECTOR_RANK = 26


class DegenerateLatticeError(ValueError):
    pass


@dataclass(frozen=True)
class IntegralLattice:
    """An even lattice given by its integer Gram matrix."""

    gram: tuple

    def __post_init__(self):
        g = ex.to_mat(self.gram)
        object.__setattr__(self, "gram", g)
        if not ex.is_symmetric(g):
            raise ValueError("Gram matrix must be symmetric")
        if any(not isinstance(x, int) for row in g for x in row):
            raise ValueError("Gram entries must be integers")
        if any(g[i][i] % 2 != 0 for i in range(len(g))):
            raise ValueError("lattice must be even (even diagonal)")
        if len(g) > 0 and ex.det_int(g) == 0:
            raise DegenerateLatticeError("degenerate lattice")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def det(self) -> int:
        return ex.det_int(self.gram)

    def inner(self, u, v):
        return ex.dot(ex.mat_vec(self.gram, tuple(v)), tuple(u))

    def norm(self, v):
        return self.inner(v, v)

    def signature(self) -> tuple:
        """(positive, negative) inertia indices."""
        if self.rank == 0:
            return (0, 0)
        diag = ex.rational_diagonal(self.gram)
        pos = sum(1 for d in diag if d > 0)
        return (pos, len(diag) - pos)

    def negated(self) -> "IntegralLattice":
        """Global sign flip (positive <-> negative definite conventions)."""
        return IntegralLattice(tuple(tuple(-x for x in row) for row in self.gram))

    def direct_sum(self, other: "IntegralLattice") -> "IntegralLattice":
        n, m = self.rank, other.rank
        g = [[0] * (n + m) for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                g[i][j] = self.gram[i][j]
        for i in range(m):
            for j in range(m):
                g[n + i][n + j] = other.gram[i][j]
        return IntegralLattice(ex.to_mat(g))


@dataclass(frozen=True)
class Sublattice:
    """Sublattice of an ambient lattice, rows of basis_matrix in ambient coords."""

    ambient: IntegralLattice
    basis_matrix: tuple

    def __post_init__(self):
        b = ex.to_mat(self.basis_matrix)
        object.__setattr__(self, "basis_matrix", b)
        if b and len(ex.row_hnf(b)) != len(b):
            raise ValueError("basis rows must be linearly independent")

    @classmethod
    def full(cls, lat: IntegralLattice) -> "Sublattice":
        return cls(lat, ex.identity(lat.rank))

    @property
    def rank(self) -> int:
        return len(self.basis_matrix)

    @property
    def corank(self) -> int:
        return self.ambient.rank - self.rank

    def index(self):
        """Index in the ambient lattice, or None for infinite corank."""
        if self.corank != 0:
            return None
        return abs(ex.det_int(self.basis_matrix))

    def gram(self) -> tuple:
        b = self.basis_matrix
        if not b:
            return ()
        return ex.mat_mul(ex.mat_mul(b, self.ambient.gram), ex.transpose(b))

    def as_lattice(self) -> IntegralLattice:
        return IntegralLattice(self.gram())

    def hnf_basis(self) -> tuple:
        return ex.row_hnf(self.basis_matrix)


@dataclass(frozen=True)
class DiscriminantGroup:
    """Invariant factors d_1 | d_2 | ... (each > 1) with rational generator lifts."""

    cyclic_orders: tuple
    generator_lifts: tuple

    @property
    def order(self) -> int:
        n = 1
        for d in self.cyclic_orders:
            n *= d
        return n

    def ell(self) -> int:
        return len(self.cyclic_orders)

    def ell_p(self, p: int) -> int:
        return sum(1 for d in self.cyclic_orders if d % p == 0)


def discriminant_group(lat: IntegralLattice) -> DiscriminantGroup:
    """A_L = L^dual / L with generator lifts expressed in basis coordinates."""
    g = lat.gram
    if lat.rank == 0:
        return DiscriminantGroup((), ())
    d, u, v = ex.snf_transform(g)
    orders = []
    lifts = []
    for i in range(lat.rank):
        di = d[i][i]
        if di > 1:
            col = tuple(Fraction(v[r][i], di) for r in range(lat.rank))
            orders.append(di)
            lifts.append(col)
    return DiscriminantGroup(tuple(orders), tuple(lifts))


def orthogonal_complement(lat: IntegralLattice, sub: Sublattice) -> Sublattice:
    """{x in L : <x, s> = 0 for all s in sub}; always primitive in L."""
    if sub.ambient is not lat and sub.ambient != lat:
        raise ValueError("sublattice has a different ambient lattice")
    if sub.rank == 0:
        return Sublattice.full(lat)
    m = ex.mat_mul(sub.basis_matrix, lat.gram)
    ker = ex.kernel_int(m)
    return Sublattice(lat, ker)


def saturate(lat: IntegralLattice, sub: Sublattice) -> tuple:
    """Primitive closure of sub in lat; returns (saturation, index)."""
    b = sub.basis_matrix
    if not b:
        return Sublattice(lat, ()), 1
    d, u, v = ex.snf_transform(b)
    k = sub.rank
    vinv = ex.mat_inv(v)
    sat_rows = ex.to_mat(tuple(tuple(int(x) for x in vinv[i]) for i in range(k)))
    sat = Sublattice(lat, sat_rows)
    idx = 1
    for i in range(k):
        idx *= d[i][i]
    return sat, idx


def is_primitive(lat: IntegralLattice, sub: Sublattice) -> bool:
    return saturate(lat, sub)[1] == 1


def membership(sub: Sublattice, v) -> bool:
    """Is v (ambient coordinates) an integer combination of the sublattice basis?"""
    v = tuple(v)
    if len(v) != sub.ambient.rank:
        raise ValueError("dimension mismatch")
    return ex.in_row_span_int(sub.hnf_basis(), v)


def short_vectors(lat: IntegralLattice, bound: int) -> list:
    """All nonzero v with 0 < norm(v) <= bound, one of each +-pair, exact.

    Requires a positive definite Gram matrix of rank <= MAX_SHORT_VECTOR_RANK.
    Fincke-Pohst style enumeration over an exact rational quadratic completion.
    """
    n = lat.rank
    if n == 0:
        return []
    if n > MAX_SHORT_VECTOR_RANK:
        raise ValueError(f"rank cap {MAX_SHORT_VECTOR_RANK} exceeded")
    # quadratic completion: norm(x) = sum_i c[i] * (x_i + sum_{j>i} w[i][j] x_j)^2
    a = [[Fraction(x) for x in row] for row in lat.gram]
    c = [Fraction(0)] * n
    w = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        if a[i][i] <= 0:
            raise ValueError("positive definite Gram required")
        c[i] = a[i][i]
        for j in range(i + 1, n):
            w[i][j] = a[i][j] / a[i][i]
        for r in range(i + 1, n):
            for s in range(i + 1, n):
                a[r][s] -= a[r][i] * a[i][s] / a[i][i]
    out = []
    x = [0] * n

    def walk(i: int, remaining: Fraction):
        if i < 0:
            if any(x):
                out.append((tuple(x), int(bound - remaining)))
            return
        t = sum(w[i][j] * x[j] for j in range(i + 1, n))
        # integer range for x_i: c[i] * (x_i + t)^2 <= remaining.
        # Pad the isqrt bound by one; the exact check below filters overshoot.
        s = ex.floor_sqrt_fraction(remaining / c[i]) + 1
        lo = math.ceil(-t - s)
        hi = math.floor(-t + s)
        for val in range(lo, hi + 1):
            x[i] = val
            used = c[i] * (val + t) ** 2
            if used <= remaining:
                walk(i - 1, remaining - used)
        x[i] = 0

    walk(n - 1, Fraction(bound))
    # deduplicate +-v: keep the representative whose first nonzero entry is positive
    seen = set()
    uniq = []
    for v, norm in out:
        neg = tuple(-y for y in v)
        if neg in seen:
            continue
        seen.add(v)
        first = next(y for y in v if y != 0)
        uniq.append((v if first > 0 else neg, norm))
    return uniq


def roots(lat: IntegralLattice) -> list:
    """All norm +-2 vectors of a definite lattice (both signs included)."""
    if lat.rank == 0:
        return []
    pos, neg = lat.signature()
    if pos and neg:
        raise ValueError("roots undefined for indefinite input")
    work = lat if neg == 0 else lat.negated()
    found = [v for v, norm in short_vectors(work, 2) if norm == 2]
    return [v for v in found] + [tuple(-x for x in v) for v in found]


def rank_ell_bound(lat: IntegralLattice, sub: Sublattice) -> bool:
    """Check rank(S) + ell_q(A_S) <= rank(L) + ell_q(A_L) for all primes q,
    and the same with the global ell."""
    if not is_primitive(lat, sub):
        raise ValueError("sublattice must be primitive")
    s_lat = sub.as_lattice() if sub.rank else None
    disc_s = discriminant_group(s_lat) if s_lat else DiscriminantGroup((), ())
    disc_l = discriminant_group(lat)
    primes = set()
    for d in disc_s.cyclic_orders + disc_l.cyclic_orders:
        primes.update(ex.factor(d))
    rs, rl = sub.rank, lat.rank
    if rs + disc_s.ell() > rl + disc_l.ell():
        return False
    for q in primes:
        if rs + disc_s.ell_p(q) > rl + disc_l.ell_p(q):
            return False
    return True


def int_matrix(obj, what: str = "matrix") -> tuple:
    """A JSON value as a square integer matrix; ValueError for any other shape.

    JSON booleans are refused, though Python loads them as ints.
    """
    if not isinstance(obj, list) or any(not isinstance(r, list) or len(r) != len(obj)
                                        for r in obj):
        raise ValueError(f"{what} must be a square list of lists")
    if any(type(x) is not int for r in obj for x in r):
        raise ValueError(f"{what} entries must be integers")
    return ex.to_mat(obj)


def gram_from_json(obj) -> IntegralLattice:
    """Parse the Gram matrix file format {"rank": n, "gram": [[...]]}."""
    if not isinstance(obj, dict) or "gram" not in obj:
        raise ValueError('a Gram file must be an object with a "gram" key')
    gram = int_matrix(obj["gram"], "gram")
    rank = obj.get("rank", len(gram))
    if type(rank) is not int or rank != len(gram):
        raise ValueError("rank field does not match matrix size")
    return IntegralLattice(gram)


def load_gram_json(path) -> IntegralLattice:
    with open(path, "r", encoding="utf-8") as fh:
        return gram_from_json(json.load(fh))


@lru_cache(maxsize=1)
def leech_lattice() -> IntegralLattice:
    """The rank-24 rootless even unimodular lattice, negative definite, from data."""
    text = resources.files("k3lat.data").joinpath("leech_gram.json").read_text()
    return gram_from_json(json.loads(text))
