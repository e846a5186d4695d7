"""Exact integer lattice core.

Lattices are given by integer Gram matrices; all derived data (duals,
discriminant groups, complements, saturations, short vectors) is computed
with exact integer/rational arithmetic.  Short vectors are integer-only: an
integral LLL reduction comes first, and the Fincke-Pohst walk reads its
completion from the leading minors and scaled Gram-Schmidt coefficients
that the reduction already holds as integers.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from . import _exact as ex

MAX_SHORT_VECTOR_RANK = 26
MAX_GRAM_RANK = 48  # rows of a Gram file; `disc` of A_48 in a dense basis: about 1 s on 2 vCPUs


class DegenerateLatticeError(ValueError):
    pass


@dataclass(frozen=True)
class IntegralLattice:
    """An even lattice given by its integer Gram matrix."""

    gram: tuple
    # computed once by the constructor; equality and hashing read gram alone
    det: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = ex.to_mat(self.gram)
        object.__setattr__(self, "gram", g)
        if not ex.is_symmetric(g):
            raise ValueError("Gram matrix must be symmetric")
        if any(not isinstance(x, int) for row in g for x in row):
            raise ValueError("Gram entries must be integers")
        if any(g[i][i] % 2 != 0 for i in range(len(g))):
            raise ValueError("lattice must be even (even diagonal)")
        det = ex.det_int(g)
        if det == 0:
            raise DegenerateLatticeError("degenerate lattice")
        object.__setattr__(self, "det", det)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def inner(self, u, v):
        return ex.dot(ex.mat_vec(self.gram, tuple(v)), tuple(u))

    def norm(self, v):
        return self.inner(v, v)

    def signature(self) -> tuple:
        """(positive, negative) inertia indices."""
        if self.rank == 0:
            return (0, 0)
        c, _ = ex.quadratic_completion(self.gram)
        pos = sum(1 for d in c if d > 0)
        return (pos, len(c) - pos)

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
    # the Hermite basis, computed once by the constructor; not compared or hashed
    _hnf: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = ex.to_mat(self.basis_matrix)
        object.__setattr__(self, "basis_matrix", b)
        h = ex.row_hnf(b)
        if len(h) != len(b):
            raise ValueError("basis rows must be linearly independent")
        object.__setattr__(self, "_hnf", h)

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
        return self._hnf


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
    """A_L = L^dual / L with generator lifts expressed in basis coordinates,
    each reduced into [0, 1)^n: an integer shift keeps its class in A_L."""
    g = lat.gram
    if lat.rank == 0:
        return DiscriminantGroup((), ())
    d, u, v = ex.snf_transform(g)
    orders = []
    lifts = []
    for i in range(lat.rank):
        di = d[i][i]
        if di > 1:
            col = tuple(Fraction(v[r][i] % di, di) for r in range(lat.rank))
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
    """Primitive closure of sub in lat; returns (saturation, index).

    From the Smith form U B V = D of the k basis rows B: U B = D V^-1, so
    row i of U B is d_i times row i of V^-1, and the first k rows of the
    unimodular V^-1 are a basis of the saturation.  Each is (U B)_i // d_i,
    an exact division; the index is the product of the d_i.
    """
    b = sub.basis_matrix
    if not b:
        return Sublattice(lat, ()), 1
    d, u, _ = ex.snf_transform(b)
    sat_rows = tuple(tuple(x // d[i][i] for x in row) for i, row in enumerate(ex.mat_mul(u, b)))
    return Sublattice(lat, sat_rows), math.prod(d[i][i] for i in range(len(b)))


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

    Each v has its first nonzero entry positive; the order of the list is
    unspecified.  Requires a positive definite Gram matrix and bound >= 0
    (ValueError otherwise); a rank above MAX_SHORT_VECTOR_RANK raises
    LimitExceeded.  Integral Fincke-Pohst (Cohen,
    GTM 138, Alg. 2.7.5) in the basis of an integral LLL reduction
    (ex.lll_reduce), whose integers give the completion directly: with d
    the leading minors and lam the scaled Gram-Schmidt coefficients,
    norm(x) = sum_i Y_i^2 / (d_i d_{i+1}) with Y_i = d_{i+1} x_i + T_i and
    T_i = sum_{j>i} lam_ji x_j.  Scaled by M = lcm(d_i d_{i+1}), each node
    costs one isqrt and integer products.  The walk keeps the highest
    nonzero coordinate positive, so it meets each +-pair once; each leaf x
    is mapped back as sum_{x_i != 0} x_i H_i over the rows of the transform.
    """
    n = lat.rank
    if n == 0:
        return []
    if n > MAX_SHORT_VECTOR_RANK:
        raise ex.LimitExceeded(f"rank cap {MAX_SHORT_VECTOR_RANK} exceeded")
    d, lam, h = ex.lll_reduce(lat.gram)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    m = math.lcm(*(d[i] * d[i + 1] for i in range(n)))
    a = [m // (d[i] * d[i + 1]) for i in range(n)]  # exact: M is their lcm
    big_w = [[lam[j][i] for j in range(i + 1, n)] for i in range(n)]
    total = m * bound  # M * bound; r below is what is left of it
    out = []
    x = [0] * n

    def walk(i: int, r: int, top: bool):
        # top: every coordinate above i is 0, so T_i = 0 and x_i >= 0 (>= 1 at i = 0)
        t = 0 if top else sum(map(operator.mul, big_w[i], x[i + 1:]))
        ai, di = a[i], d[i + 1]
        s = math.isqrt(r // ai)  # A_i y^2 <= r  iff  |y| <= s, for integer y
        lo = (1 if i == 0 else 0) if top else -((t + s) // di)
        hi = (s - t) // di
        if i:
            for val in range(lo, hi + 1):
                y = di * val + t
                x[i] = val
                walk(i - 1, r - ai * y * y, top and not val)
        elif lo <= hi:
            base = [0] * n
            for j in range(1, n):
                if x[j]:
                    base = [b + x[j] * e for b, e in zip(base, h[j])]
            h0 = h[0]
            for val in range(lo, hi + 1):
                y = di * val + t
                v = [b + val * e for b, e in zip(base, h0)]
                if next(e for e in v if e) < 0:
                    v = [-e for e in v]
                out.append((tuple(v), (total - r + ai * y * y) // m))
        x[i] = 0

    walk(n - 1, total, True)
    return out


def roots(lat: IntegralLattice) -> list:
    """All norm +-2 vectors of a definite lattice (both signs included)."""
    if lat.rank == 0:
        return []
    # a definite Gram has the sign of its first diagonal entry, and the
    # LLL reduction in short_vectors refuses every other Gram
    try:
        work = lat if lat.gram[0][0] > 0 else lat.negated()
        found = [v for v, norm in short_vectors(work, 2) if norm == 2]
    except ValueError as err:
        raise ValueError("roots undefined for indefinite input") from err
    return found + [tuple(-x for x in v) for v in found]


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
    """Parse the Gram matrix file format {"rank": n, "gram": [[...]]}.

    More than MAX_GRAM_RANK rows raise LimitExceeded before any entry is
    read."""
    if not isinstance(obj, dict) or "gram" not in obj:
        raise ValueError('a Gram file must be an object with a "gram" key')
    if isinstance(obj["gram"], list) and len(obj["gram"]) > MAX_GRAM_RANK:
        raise ex.LimitExceeded(f"Gram rank {len(obj['gram'])} exceeds the cap {MAX_GRAM_RANK}")
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
