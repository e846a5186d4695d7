"""Root lattices A/D/E with explicit coordinates, reflections and isometry groups.

Simple-root coordinates are the working basis: every isometry is an integer
matrix M acting on column coordinate vectors, with M^T G M = G for the Gram
matrix G in the simple basis.  Groups are enumerated as permutations of the
root list, which is cheap; matrices are reconstructed from root images on
demand.  Orbits and closures (the E6/E7 roots, group elements, and in
prootpair subgroups and their conjugates) share one lazy level-order walk,
`breadth_first`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product

from . import _exact as ex
from .intlat import IntegralLattice, Sublattice, discriminant_group

DEFAULT_GROUP_CAP = 10 ** 6
AUT_GROUP_CAP = 2 * 10 ** 5  # admits Aut(E6), order 103680
MAX_BUILD_RANK = 24  # above every K3 root part (rank <= 21) and A24 (600 roots)


def perm_mul(a: bytes, b: bytes) -> bytes:
    """The composite a∘b of root permutations, i.e. bytes(a[x] for x in b)."""
    return b.translate(a.ljust(256, b"\0"))


def breadth_first(start, step):
    """The orbit of start under the maps behind step, lazily, in level order.

    step(x) returns the neighbours of x.  start is yielded first, then each
    new neighbour the moment it is found, so a consumer that stops early
    stops the walk too.
    """
    seen = {start}
    frontier = [start]
    yield start
    while frontier:
        nxt = []
        for x in frontier:
            for y in step(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    yield y
        frontier = nxt


@dataclass(frozen=True)
class Isometry:
    """Integer matrix in the simple-root basis, acting on column vectors."""

    matrix: tuple

    def __mul__(self, other: "Isometry") -> "Isometry":
        return Isometry(ex.mat_mul(self.matrix, other.matrix))

    def apply(self, v):
        return ex.mat_vec(self.matrix, tuple(v))

    def inverse(self) -> "Isometry":
        """The inverse; raises ArithmeticError when it is not integral."""
        inv = ex.mat_inv(self.matrix)
        if any(x.denominator != 1 for row in inv for x in row):
            raise ArithmeticError("the inverse matrix is not integral")
        return Isometry(tuple(tuple(int(x) for x in row) for row in inv))

    def order(self, cap: int = 10 ** 4) -> int:
        n = len(self.matrix)
        ident = ex.identity(n)
        m = self.matrix
        for k in range(1, cap + 1):
            if m == ident:
                return k
            m = ex.mat_mul(m, self.matrix)
        raise ex.LimitExceeded("order cap exceeded")

    def is_identity(self) -> bool:
        return self.matrix == ex.identity(len(self.matrix))


class RootDatum:
    """A root lattice of type A/D/E with full root list in simple coordinates."""

    def __init__(self, label, simple_ambient, gram, roots_simple):
        self.label = label
        self.simple_ambient = simple_ambient  # tuple of ambient vectors or None
        self.gram = gram
        self.roots = roots_simple  # tuple of integer tuples, fixed order
        self.rank = len(gram)
        self._root_index = {r: i for i, r in enumerate(self.roots)}

    def __repr__(self):
        return f"RootDatum({self.label!r}, {len(self.roots)} roots)"

    def lattice(self) -> IntegralLattice:
        return IntegralLattice(self.gram)

    def inner(self, u, v):
        return ex.dot(ex.mat_vec(self.gram, tuple(v)), tuple(u))

    def is_root(self, v) -> bool:
        return tuple(v) in self._root_index

    def simple_to_ambient(self, coords) -> tuple:
        if self.simple_ambient is None:
            raise ValueError(f"{self.label} has no ambient realization")
        n = len(self.simple_ambient[0])
        out = [Fraction(0)] * n
        for c, s in zip(coords, self.simple_ambient):
            for i in range(n):
                out[i] += Fraction(c) * Fraction(s[i])
        return tuple(out)

    # -- permutation representation on the root list --------------------

    def perm_of(self, iso: Isometry) -> bytes:
        # at most 240 roots, so every image index fits in a byte
        img = []
        for r in self.roots:
            img.append(self._root_index[iso.apply(r)])
        return bytes(img)

    def matrix_of_perm(self, perm: bytes) -> Isometry:
        cols = []
        for i in range(self.rank):
            src = self._root_index[tuple(1 if j == i else 0 for j in range(self.rank))]
            cols.append(self.roots[perm[src]])
        return Isometry(ex.transpose(cols))


def _check_isometry(datum: RootDatum, m) -> Isometry:
    iso = Isometry(ex.to_mat(m))
    g = datum.gram
    if len(iso.matrix) != datum.rank or any(len(r) != datum.rank for r in iso.matrix):
        raise ValueError(f"{datum.label} isometries are {datum.rank}x{datum.rank} matrices")
    if ex.mat_mul(ex.mat_mul(ex.transpose(iso.matrix), g), iso.matrix) != g:
        raise ValueError("matrix does not preserve the Gram form")
    return iso


def parse_label(label: str) -> tuple:
    label = label.strip().upper().replace("(", "").replace(")", "")
    kind, num = label[:1], label[1:]
    if kind not in ("A", "D", "E") or not num.isdigit():
        raise ValueError(f"unsupported root lattice label {label!r}")
    return kind, int(num)


@lru_cache(maxsize=None)
def build(label: str) -> RootDatum:
    """Construct a root datum: A(m>=1), D(m>=4), E6/E7/E8.

    Every root is listed, so a rank above MAX_BUILD_RANK raises
    LimitExceeded before any work; t_sublattice(p) is thereby refused for
    p > 25.
    """
    kind, m = parse_label(label)
    name = f"{kind}{m}"
    if kind != "E" and m > MAX_BUILD_RANK:
        raise ex.LimitExceeded(f"{name} has rank above the cap of {MAX_BUILD_RANK}")
    if kind == "E" and m in (6, 7):
        return _datum_from_cartan(name, _cartan_e(m))
    return _datum_from_ambient(name, *_ambient_system(kind, m))


def _ambient_system(kind: str, m: int) -> tuple:
    """Simple roots and every root as ambient vectors, for A_m, D_m and E8."""
    if kind == "A":
        if m < 1:
            raise ValueError("A(m) needs m >= 1")
        dim = m + 1
        simples = []
        for i in range(m):
            v = [0] * dim
            v[i], v[i + 1] = 1, -1
            simples.append(tuple(v))
        amb_roots = []
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    v = [0] * dim
                    v[i], v[j] = 1, -1
                    amb_roots.append(tuple(v))
        return simples, amb_roots
    if kind == "D":
        if m < 4:
            raise ValueError("D(m) needs m >= 4")
        simples = []
        for i in range(m - 1):
            v = [0] * m
            v[i], v[i + 1] = 1, -1
            simples.append(tuple(v))
        v = [0] * m
        v[m - 2], v[m - 1] = 1, 1
        simples.append(tuple(v))
        amb_roots = []
        for i in range(m):
            for j in range(i + 1, m):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [0] * m
                        v[i], v[j] = si, sj
                        amb_roots.append(tuple(v))
        return simples, amb_roots
    if m != 8:
        raise ValueError("E(m) needs m in {6, 7, 8}")
    half = Fraction(1, 2)
    simples = []
    for i in range(6):
        v = [Fraction(0)] * 8
        v[i + 1], v[i + 2] = Fraction(1), Fraction(-1)
        simples.append(tuple(v))
    simples.append((half, -half, -half, -half, -half, -half, -half, half))
    v = [Fraction(0)] * 8
    v[6], v[7] = Fraction(1), Fraction(1)
    simples.append(tuple(v))
    _, amb_roots = _ambient_system("D", 8)  # the 112 integral roots +-e_i +-e_j
    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            amb_roots.append(tuple(Fraction(s, 2) for s in signs))
    return simples, amb_roots


def _cartan_e(m: int) -> tuple:
    # chain 1-2-...-(m-1) with node m attached to node 3 (Bourbaki-free labeling;
    # only the isomorphism type matters for the abstract E6/E7 data)
    c = [[0] * m for _ in range(m)]
    for i in range(m):
        c[i][i] = 2
    for i in range(m - 2):
        c[i][i + 1] = c[i + 1][i] = -1
    c[2][m - 1] = c[m - 1][2] = -1
    return ex.to_mat(c)


def _doubled(vec) -> tuple:
    """2 * vec as integers; raises ArithmeticError outside (1/2)Z."""
    out = []
    for x in vec:
        y = 2 * x
        if y != int(y):
            raise ArithmeticError(f"ambient coordinate {x} is not in (1/2)Z")
        out.append(int(y))
    return tuple(out)


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return q


def _datum_from_ambient(name, simples, amb_roots) -> RootDatum:
    """Gram matrix and simple coordinates of every root, in integers.

    With S_i = 2 s_i and R = 2 r integral, G_ij = S_i . S_j / 4, and the
    coordinates of r are G^-1 (r . s_i) = adj(G) (R . S_i) / (4 det G); every
    division must be exact, or ArithmeticError is raised.
    """
    n = len(simples)
    dsimples = [_doubled(s) for s in simples]
    gram = tuple(tuple(_exact_div(ex.dot(u, v), 4) for v in dsimples) for u in dsimples)
    det = ex.det_int(gram)
    # Cramer's rule: det * G^-1 is the integer adjugate
    adj = tuple(tuple(int(det * x) for x in row) for row in ex.mat_inv(gram))
    scale = 4 * det
    roots = []
    for r in amb_roots:
        dr = _doubled(r)
        pair = tuple(ex.dot(dr, s) for s in dsimples)
        roots.append(tuple(_exact_div(ex.dot(row, pair), scale) for row in adj))
    return RootDatum(name, tuple(tuple(s) for s in simples), gram, tuple(roots))


def _datum_from_cartan(name, cartan) -> RootDatum:
    """The roots are the W-orbit of alpha_1: in an irreducible simply-laced
    system every root is conjugate to it."""
    n = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    refls = [_reflection_matrix(cartan, s) for s in simples]
    roots = breadth_first(simples[0], lambda r: (ex.mat_vec(m, r) for m in refls))
    return RootDatum(name, None, cartan, tuple(sorted(roots)))


def _reflection_matrix(gram, alpha) -> tuple:
    n = len(gram)
    ga = ex.mat_vec(gram, alpha)
    return tuple(
        tuple((1 if i == j else 0) - alpha[i] * ga[j] for j in range(n))
        for i in range(n)
    )


def reflection(datum: RootDatum, alpha) -> Isometry:
    """Reflection in a root (simple coordinates)."""
    alpha = tuple(alpha)
    if not datum.is_root(alpha):
        raise ValueError("not a root of the datum")
    return Isometry(_reflection_matrix(datum.gram, alpha))


def simple_reflections(datum: RootDatum) -> list:
    out = []
    for i in range(datum.rank):
        e = tuple(1 if j == i else 0 for j in range(datum.rank))
        out.append(reflection(datum, e))
    return out


class IsometryGroup:
    """Finite group of isometries of a root datum, given by generators."""

    def __init__(self, datum: RootDatum, generators):
        self.datum = datum
        self.generators = tuple(
            g if isinstance(g, Isometry) else _check_isometry(datum, g)
            for g in generators
        )
        self._elements_perm = None

    def closure_perms(self, cap: int = DEFAULT_GROUP_CAP):
        """Materialize all elements as root permutations (breadth-first).

        Raises LimitExceeded when the group has more than cap elements,
        also when it was closed before under a larger cap.
        """
        elements = self._elements_perm
        if elements is None:
            datum = self.datum
            # translate tables: the generators padded once to 256 entries
            tables = [datum.perm_of(g).ljust(256, b"\0") for g in self.generators]
            walk = breadth_first(bytes(range(len(datum.roots))),
                                 lambda p: map(p.translate, tables))
            elements = frozenset(islice(walk, cap + 1))  # the walk stops one past the cap
        if len(elements) > cap:
            raise ex.LimitExceeded(f"group closure exceeds the cap of {cap} elements")
        self._elements_perm = elements
        return elements

    @property
    def order(self) -> int:
        return len(self.closure_perms())

    def elements(self):
        for p in sorted(self.closure_perms()):
            yield self.datum.matrix_of_perm(p)


def weyl_order(label: str) -> int:
    kind, m = parse_label(label)
    if kind == "A":
        return math.factorial(m + 1)
    if kind == "D":
        return 2 ** (m - 1) * math.factorial(m)
    return {6: 51840, 7: 2903040, 8: 696729600}[m]


def weyl_group(datum: RootDatum, max_size: int = DEFAULT_GROUP_CAP) -> IsometryGroup:
    """Full Weyl group via closure of the simple reflections.

    Rejects up front when the known order exceeds the cap, so the E7/E8
    groups are never materialized.
    """
    if weyl_order(datum.label) > max_size:
        raise ex.LimitExceeded(f"group closure exceeds the cap of {max_size} elements")
    grp = IsometryGroup(datum, simple_reflections(datum))
    grp.closure_perms(max_size)
    return grp


@lru_cache(maxsize=None)
def _disc_lifts(label: str):
    datum = build(label)
    disc = discriminant_group(datum.lattice())
    return disc.generator_lifts


def acts_trivially_on_disc(datum: RootDatum, iso: Isometry) -> bool:
    """Does iso fix the discriminant group?  For every irreducible ADE root
    lattice this is membership in W(R), the kernel of Aut(R) -> Aut(A_R)."""
    for lift in _disc_lifts(datum.label):
        img = iso.apply(lift)
        if any((a - b).denominator != 1 for a, b in zip(img, lift)):
            return False
    return True


# ---------------------------------------------------------------------------
# named elements


def theta_e8() -> tuple:
    return (2, 3, 4, 5, 6, 4, 2, 3)


def named_elements(datum: RootDatum) -> dict:
    """The distinguished isometries: D4 -> x, y, g, gx, gx2; E8 -> a, b."""
    if datum.label == "D4":
        # each matrix is given by its columns, the images of the simple roots
        x = Isometry(ex.transpose(((0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0))))
        y = Isometry(ex.transpose(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))))
        g = Isometry(ex.transpose((
            (1, 1, 0, 0),
            (-1, -2, -1, -1),
            (0, 1, 1, 0),
            (0, 1, 0, 1),
        )))
        for iso in (x, y, g):
            _check_isometry(datum, iso.matrix)
        gx = g * x
        return {"x": x, "y": y, "g": g, "gx": gx, "gx2": g * x * x}
    if datum.label == "E8":
        theta = theta_e8()
        cols_a = {}
        cols_a[0] = (0, 1, 0, 0, 0, 0, 0, 0)  # a(a1) = a2
        cols_a[1] = (0, 0, 1, 0, 0, 0, 0, 0)  # a(a2) = a3
        cols_a[2] = tuple(t - e for t, e in zip(theta, (1, 1, 1, 0, 0, 0, 0, 0)))
        cols_a[3] = tuple(e - t for t, e in zip(theta, (1, 1, 1, 1, 0, 0, 0, 0)))
        for i in range(4, 8):
            cols_a[i] = tuple(1 if j == i else 0 for j in range(8))
        a = Isometry(ex.transpose([cols_a[j] for j in range(8)]))
        cols_b = {}
        for i in range(4):
            cols_b[i] = tuple(1 if j == i else 0 for j in range(8))
        cols_b[3] = (0, 0, 0, 1, 1, 0, 0, 1)  # b(a4) = a4 + a5 + a8
        cols_b[7] = (0, 0, 0, 0, 1, 0, 0, 0)  # b(a8) = a5
        cols_b[4] = (0, 0, 0, 0, 0, 1, 0, 0)  # b(a5) = a6
        cols_b[5] = (0, 0, 0, 0, 0, 0, 1, 0)  # b(a6) = a7
        cols_b[6] = (0, 0, 0, 0, -1, -1, -1, -1)  # b(a7) = -(a5+a6+a7+a8)
        b = Isometry(ex.transpose([cols_b[j] for j in range(8)]))
        for iso in (a, b):
            _check_isometry(datum, iso.matrix)
        return {"a": a, "b": b}
    raise ValueError("named elements exist for D4 and E8 only")


def a4_a4_pieces(datum: RootDatum) -> tuple:
    """The two A4 quadruples obtained by deleting the affine node at alpha_4."""
    if datum.label != "E8":
        raise ValueError("A4+A4 pieces live in E8")
    neg_theta = tuple(-t for t in theta_e8())
    e = lambda i: tuple(1 if j == i else 0 for j in range(8))
    return (neg_theta, e(0), e(1), e(2)), (e(7), e(4), e(5), e(6))


# ---------------------------------------------------------------------------
# special sublattices and weights


def cycle_isometry(n: int) -> Isometry:
    """The (n+1)-cycle Coxeter-type element of A_n in simple coordinates."""
    cols = [tuple(1 if i == j + 1 else 0 for i in range(n)) for j in range(n - 1)]
    cols.append(tuple(-1 for _ in range(n)))
    return Isometry(ex.transpose(cols))


def t_sublattice(p: int) -> Sublattice:
    """Index-p sublattice of A_{p-1} cut out by the coefficient-sum congruence."""
    ex.require_odd_prime(p)
    datum = build(f"A{p - 1}")
    lat = datum.lattice()
    n = p - 1
    rows = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        rows.append(tuple(v))
    for i in range(n):
        v = [0] * n
        v[i] = p
        rows.append(tuple(v))
    basis = ex.row_hnf(ex.to_mat(rows))
    return Sublattice(lat, basis)


def weights(datum: RootDatum) -> tuple:
    """Fundamental weights as rational vectors in simple coordinates."""
    ginv = ex.mat_inv(datum.gram)
    return tuple(tuple(ginv[i][j] for i in range(datum.rank)) for j in range(datum.rank))


def aut_generators(datum: RootDatum) -> list:
    """Generators of Aut(R) for the fully-enumerable types (A_m, D_m, E6)."""
    kind, m = parse_label(datum.label)
    gens = list(simple_reflections(datum))
    if kind == "A":
        if m >= 2:
            gens.append(Isometry(tuple(tuple(-1 if i == j else 0 for j in range(m))
                                       for i in range(m))))
    elif kind == "D":
        # single sign flip v_m -> -v_m swaps the two fork nodes
        cols = list(ex.identity(m))
        cols[m - 2], cols[m - 1] = cols[m - 1], cols[m - 2]
        gens.append(Isometry(ex.transpose(cols)))
        if m == 4:
            gens.append(named_elements(datum)["x"])
    elif datum.label == "E6":
        # diagram flip of the chain 1..5 fixing the branch node
        e = ex.identity(6)
        cols = [e[4 - i] for i in range(5)] + [e[5]]
        gens.append(_check_isometry(datum, ex.transpose(cols)))
    else:
        raise ValueError(f"full automorphism group of {datum.label} is out of scope")
    return gens


def aut_group(datum: RootDatum) -> IsometryGroup:
    grp = IsometryGroup(datum, aut_generators(datum))
    grp.closure_perms(AUT_GROUP_CAP)
    return grp
