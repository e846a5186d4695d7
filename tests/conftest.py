"""Shared helpers: random even Gram matrices, a memory cap for child
processes, a brute-force finite-quadratic-form isomorphism oracle, the
fully closed Aut(R), the forward-only echelon mod p with its per-root
span scan, the Gauss-Jordan inverse over Q with the isometry inverse, the
saturation and the A/D/E8 root data by adjugate built on it, the E6/E7
roots by reflection matrices, the exhaustive Witt index, the echelon walk
of every subspace of F_p^n and the isotropic ones among them (the unglued
search of an elementary p-part before it counted by type), the glued
search as a listing of every H and as a walk of A_D's subspaces with a
backtrack per isometry type of U (with the F_p type of a Gram matrix it
keys on), the 2-adic determinant classes of every sign-walk variant, the
overlattice search and Nikulin test that set up every subgroup walk and
read each prime's rank apart, the embedding decision that tests the
trivial H like any other, and the direct sum that re-sorts and re-checks
its components, used to cross-check the fast paths."""

from __future__ import annotations

import math
import os
import random
import resource
from fractions import Fraction
from itertools import combinations, product
from operator import mul
from pathlib import Path

import pytest

from k3lat import _exact as ex
from k3lat.fqf import (
    ENUMERATION_CAP,
    FiniteQuadraticForm,
    JordanComponent,
    _det_unit_class_two,
    _bnum,
    _det_unit_mod,
    _isotropic_subgroups,
    _overlattice_gram,
    _qnum,
    _realize_p_part,
    _value_weights,
    direct_sum,
    negate,
    nikulin_exists,
    overlattice_candidates,
    render_symbol,
    signature_mod8,
    symbol_of,
)
from k3lat.intlat import IntegralLattice, discriminant_group
from k3lat.k3class import Certificate, EmbedDecision, EmbeddingQuery, n_form
from k3lat.rootsys import (
    Isometry,
    IsometryGroup,
    _doubled,
    _reflection_matrix,
    aut_generators,
    breadth_first,
)


CHILD_ADDRESS_SPACE = 2 << 30  # bytes
AUT_GROUP_CAP = 2 * 10 ** 5  # admits Aut(E6), order 103680


def cap_child_memory():
    """preexec_fn for a test's child process: cap its address space at 2 GiB."""
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def child_env() -> dict:
    """The environment for a child interpreter that imports this k3lat."""
    env = dict(os.environ)
    package_root = str(Path(ex.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def random_even_gram(rng: random.Random, n: int, spread: int = 2) -> IntegralLattice:
    while True:
        c = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        g = [[c[i][j] + c[j][i] for j in range(n)] for i in range(n)]
        gm = ex.to_mat(g)
        if ex.det_int(gm) != 0:
            return IntegralLattice(gm)


def unimodular_conjugate(rng: random.Random, lat: IntegralLattice) -> IntegralLattice:
    """The same lattice in a different basis."""
    n = lat.rank
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            f = rng.randint(-2, 2)
            for k in range(n):
                u[i][k] += f * u[j][k]
    um = ex.to_mat(u)
    return IntegralLattice(ex.mat_mul(ex.mat_mul(um, lat.gram), ex.transpose(um)))


def dense_diagonal_gram(seed: int, n: int, ops: int) -> tuple:
    """A diagonal even Gram diag(2 * randint(1, 10^4)) after `ops` random
    congruences e_i -> e_i +- e_j: small entries, but the Smith transform of
    such a Gram runs to thousands of digits."""
    rng = random.Random(seed)
    g = [[2 * rng.randint(1, 10 ** 4) if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        f = rng.choice((-1, 1))
        for k in range(n):
            g[i][k] += f * g[j][k]
        for k in range(n):
            g[k][i] += f * g[k][j]
    return ex.to_mat(g)


def discriminant_form_values(lat: IntegralLattice):
    """(orders, q-values, bilinear matrix) of A_L on its SNF generators."""
    disc = discriminant_group(lat)
    lifts = disc.generator_lifts
    g = lat.gram
    qv = []
    bv = []
    for v in lifts:
        gv = ex.mat_vec(g, v)
        qv.append(ex.dot(v, gv) % 2)
    for v in lifts:
        row = []
        gv = ex.mat_vec(g, v)
        for w in lifts:
            row.append(ex.dot(w, gv) % 1)
        bv.append(tuple(row))
    return disc.cyclic_orders, tuple(qv), tuple(bv)


def forms_isomorphic_bruteforce(data1, data2) -> bool:
    """Exact isomorphism test for small finite quadratic forms.

    Each argument is (orders, q_values, b_matrix) on a generating set, as
    produced by discriminant_form_values.  Exponential; small groups only.
    """
    orders1, q1, b1 = data1
    orders2, q2, b2 = data2
    if sorted(orders1) != sorted(orders2):
        return False
    if not orders1:
        return True
    total = 1
    for d in orders1:
        total *= d
    elems = list(product(*[range(d) for d in orders2]))

    def q_of(vec):
        val = Fraction(0)
        for i, a in enumerate(vec):
            val += a * a * Fraction(q2[i])
            for j in range(i + 1, len(vec)):
                val += 2 * a * vec[j] * Fraction(b2[i][j])
        return val % 2

    def b_of(u, v):
        # b(g, g) = q(g) mod 1 for the bilinear form of a quadratic form
        val = Fraction(0)
        for i, a in enumerate(u):
            for j, c in enumerate(v):
                if i == j:
                    val += a * c * Fraction(q2[i])
                else:
                    val += a * c * Fraction(b2[i][j])
        return val % 1

    def add(u, v):
        return tuple((a + c) % d for a, c, d in zip(u, v, orders2))

    def scale(u, k):
        return tuple((k * a) % d for a, d in zip(u, orders2))

    candidates = []
    for i, d in enumerate(orders1):
        cc = [e for e in elems
              if scale(e, d) == tuple(0 for _ in orders2) and q_of(e) == Fraction(q1[i]) % 2]
        candidates.append(cc)

    def backtrack(i, chosen):
        if i == len(orders1):
            span = {tuple(0 for _ in orders2)}
            for g, d in zip(chosen, orders1):
                layer = list(span)
                for k in range(1, d):
                    step = scale(g, k)
                    span.update(add(e, step) for e in layer)
            return len(span) == total
        for e in candidates[i]:
            ok = True
            for j in range(i):
                if b_of(e, chosen[j]) != Fraction(b1[i][j]) % 1:
                    ok = False
                    break
            if ok and backtrack(i + 1, chosen + [e]):
                return True
        return False

    return backtrack(0, [])


def aut_group(datum) -> IsometryGroup:
    """Aut(R) for A_m, D_m and E6, closed from aut_generators: the oracle
    for the lazy class sweeps, which never close it."""
    grp = IsometryGroup(datum, aut_generators(datum))
    grp.closure_perms(AUT_GROUP_CAP)
    return grp


def modp_reduce_oracle(row, basis, pivots, p: int) -> list:
    """A row of residues mod p reduced against echelon rows with the given
    pivots, dividing by each pivot entry (the rows need not be reduced)."""
    for prow, pc in zip(basis, pivots):
        if row[pc]:
            f = row[pc] * pow(prow[pc], -1, p) % p
            row = [(a - f * b) % p for a, b in zip(row, prow)]
    return row


def modp_echelon_oracle(rows, p: int):
    """Row echelon basis mod p by forward elimination alone: (rows, pivots).
    Each row is 0 at the pivots before its own, but neither normalised nor
    cleared above; the oracle for the reduced ex.modp_echelon."""
    basis, pivots = [], []
    for row in rows:
        row = modp_reduce_oracle([x % p for x in row], basis, pivots, p)
        nz = next((i for i, a in enumerate(row) if a), None)
        if nz is not None:
            basis.append(row)
            pivots.append(nz)
    return basis, pivots


def root_in_span_oracle(datum, basis, pivots, p: int):
    """The first root of the datum that reduces to zero mod p against the
    echelon rows, one root at a time."""
    return next((r for r in datum.roots
                 if not any(modp_reduce_oracle([x % p for x in r], basis, pivots, p))), None)


def mat_inv(m) -> tuple:
    """Exact inverse over the rationals by Gauss-Jordan elimination.

    Raises ZeroDivisionError if m is singular.
    """
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(y) for y in extra]
           for row, extra in zip(m, ex.identity(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def saturation_oracle(basis) -> tuple:
    """(rows, index) of the saturation of independent integer rows: the
    first k rows of V^-1 by Gauss-Jordan, for the Smith form U B V = D."""
    d, _, v = ex.snf_transform(basis)
    vinv = mat_inv(v)
    rows = tuple(tuple(int(x) for x in vinv[i]) for i in range(len(basis)))
    return rows, math.prod(d[i][i] for i in range(len(basis)))


def datum_by_adjugate(simples, amb_roots) -> tuple:
    """(gram, roots) of A_m, D_m or E8 by an integer solve: with S_i = 2 s_i
    and R = 2 r integral, G_ij = S_i . S_j / 4 and the simple coordinates of
    r are adj(G) (R . S_i) / (4 det G), with adj(G) = det G * G^-1 from
    Gauss-Jordan.  A division that is not exact raises ArithmeticError."""
    def exact_div(a, b):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError(f"{a} is not divisible by {b}")
        return q

    dsimples = [_doubled(s) for s in simples]
    gram = tuple(tuple(exact_div(ex.dot(u, v), 4) for v in dsimples) for u in dsimples)
    det = ex.det_int(gram)
    adj = tuple(tuple(int(det * x) for x in row) for row in mat_inv(gram))
    roots = []
    for r in amb_roots:
        pair = tuple(ex.dot(_doubled(r), s) for s in dsimples)
        roots.append(tuple(exact_div(ex.dot(row, pair), 4 * det) for row in adj))
    return gram, tuple(roots)


def roots_by_reflection_matrices(cartan) -> tuple:
    """The roots as the W-orbit of alpha_1 under the n x n simple
    reflection matrices, sorted."""
    n = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    refls = [_reflection_matrix(cartan, s) for s in simples]
    return tuple(sorted(breadth_first(simples[0],
                                      lambda r: (ex.mat_vec(m, r) for m in refls))))


def isometry_inverse(iso: Isometry) -> Isometry:
    """The inverse by Gauss-Jordan over Q; ArithmeticError when it is not
    integral."""
    inv = mat_inv(iso.matrix)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ArithmeticError("the inverse matrix is not integral")
    return Isometry(tuple(tuple(int(x) for x in row) for row in inv))


def subspaces_oracle(p: int, n: int, max_order: int):
    """Reduced-echelon bases of the subspaces of F_p^n of order <= max_order:
    the zero space first, then by increasing dimension.  Raises
    LimitExceeded past ENUMERATION_CAP nonzero subspaces."""
    yield []
    count = 0
    dim = 1
    while dim <= n and p ** dim <= max_order:
        for pivots in combinations(range(n), dim):
            slots = [(r, c) for r, piv in enumerate(pivots)
                     for c in range(piv + 1, n) if c not in pivots]
            for fill in product(range(p), repeat=len(slots)):
                count += 1
                if count > ENUMERATION_CAP:
                    raise ex.LimitExceeded("subgroup enumeration cap exceeded")
                rows = [[0] * n for _ in range(dim)]
                for r, piv in enumerate(pivots):
                    rows[r][piv] = 1
                for (r, c), v in zip(slots, fill):
                    rows[r][c] = v
                yield [tuple(r) for r in rows]
        dim += 1


def isotropic_subgroups_oracle(p, moduli, coeffs, max_order):
    """Every isotropic H of order <= max_order, the trivial H first, as the
    library listed them before it counted the elementary p-parts by type:
    an elementary group by its echelon bases (subspaces_oracle) with the
    isotropic ones kept, any other by the library's breadth-first walk.
    Yields (|H|, gens)."""
    yield 1, []
    if any(m != p for m in moduli):
        yield from _isotropic_subgroups(moduli, coeffs, max_order)
        return
    weights = _value_weights(moduli, coeffs, p)
    for basis in subspaces_oracle(p, len(moduli), max_order):
        if basis and all(_qnum(weights, g) % (2 * p) == 0
                         and all(_bnum(weights, g, h) % p == 0 for h in basis[:i])
                         for i, g in enumerate(basis)):
            yield p ** len(basis), basis


def witt_index_oracle(p: int, gram) -> int:
    """Witt index of the quadratic space over F_p with the given Gram
    matrix, by exhaustive search: the first isotropic vector in
    lexicographic order, a partner that pairs with it, and the same search
    on the complement of the hyperbolic plane they span."""
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
    sub = ex.modp_echelon(basis, p)[0][: d - 2]
    return 1 + witt_index_oracle(p, [[b(u, v) for v in sub] for u in sub])


def graph_isotropic_subgroups(p, mod_s, coef_s, mod_d, coef_d, max_order):
    """The glued search as a listing of every H: the isotropic subgroups H
    of the p-parts A_S + A_D with H ∩ A_S = H ∩ A_D = 0, in the walk order
    of the library's glued search.

    A_D must be elementary abelian; then any such H is the graph of an
    injective homomorphism psi from a subspace of A_D into the p-torsion of
    A_S.  Yields (order, generator tuples in combined coordinates), the
    trivial H first.  Raises LimitExceeded when the p-torsion of A_S, or the
    subspaces of A_D, outgrow ENUMERATION_CAP.
    """
    subspaces = subspaces_oracle(p, len(mod_d), max_order)
    yield 1, next(subspaces)  # the trivial subgroup is tried before any cap applies
    if not mod_d:
        return
    if p ** sum(m % p == 0 for m in mod_s) > ENUMERATION_CAP:
        raise ex.LimitExceeded("p-torsion enumeration cap exceeded")
    # q- and b-values as integer numerators over n: q mod 2n, b mod n
    n = math.lcm(*mod_s, *mod_d)
    w_s = _value_weights(mod_s, coef_s, n)
    w_d = _value_weights(mod_d, coef_d, n)
    # p-torsion elements of A_S, grouped by q-value
    by_value: dict = {}
    for s in product(*[range(0, m, m // p) if m % p == 0 else (0,) for m in mod_s]):
        by_value.setdefault(_qnum(w_s, s) % (2 * n), []).append(s)
    # a p-torsion element s of A_S has F_p coordinates s[j] // steps[j]
    steps = [m // p if m % p == 0 else 1 for m in mod_s]

    for gens_d in subspaces:
        targets = [-_qnum(w_d, g) % (2 * n) for g in gens_d]
        if any(t not in by_value for t in targets):
            continue
        b_d = [[_bnum(w_d, g, h) for h in gens_d[:i]] for i, g in enumerate(gens_d)]

        def backtrack(i, chosen):
            if i == len(gens_d):
                # psi injective iff the images are independent over F_p
                if len(ex.modp_echelon(
                        [[x // st for x, st in zip(s, steps)] for s in chosen], p)[0]) < i:
                    return
                yield [s + d for s, d in zip(chosen, gens_d)]
                return
            for s in by_value[targets[i]]:
                if all((_bnum(w_s, s, chosen[j]) + b_d[i][j]) % n == 0 for j in range(i)):
                    yield from backtrack(i + 1, chosen + [s])

        for combined_gens in backtrack(0, []):
            yield p ** len(gens_d), combined_gens


def induced_form_oracle(q_s, p: int, gens, q_d=None):
    """The form on H-perp/H for the H that gens span, in the coordinates of
    the realized p-parts of q_s (and q_d after them): a Hermite form, one
    Gram product and symbol_of at p, beside q's (q_s + q_d's) away part."""
    diag, moduli, _ = _realize_p_part(q_s, p)
    q = q_s
    if q_d is not None:
        diag_d, mod_d, _ = _realize_p_part(q_d, p)
        diag, moduli, q = diag + diag_d, moduli + mod_d, direct_sum(q_s, q_d)
    scale = math.lcm(*moduli)
    rows = [tuple(scale if i == j else 0 for j in range(len(moduli)))
            for i in range(len(moduli))]
    rows += [tuple(x * (scale // m) for x, m in zip(g, moduli)) for g in gens]
    over = IntegralLattice(_overlattice_gram(ex.row_hnf(ex.to_mat(rows)), diag, scale))
    return direct_sum(q.away_part(p), symbol_of(over, (p,)))


def overlattice_candidates_oracle(q, p: int, max_order: int, q_d=None):
    """overlattice_candidates as it was before the trivial H came first and
    before the glued search went one order at a time: it realizes the
    p-parts and sets up the subgroup walk (the listing above when glued)
    before yielding the trivial H, which it takes from the walk, walks at
    every max_order, and yields (|H|, form) for every H."""
    if p == 2:
        raise ValueError("only odd p is supported")
    q_s = q
    if q_d is None:
        diag, moduli, coeffs = _realize_p_part(q, p)
        subgroup_iter = isotropic_subgroups_oracle(p, moduli, coeffs, max_order)
    else:
        diag_s, mod_s, coef_s = _realize_p_part(q, p)
        diag_d, mod_d, coef_d = _realize_p_part(q_d, p)
        if any(m != p for m in mod_d):
            raise ValueError(f"the D block must have scale 1 at p = {p}")
        moduli = mod_s + mod_d
        subgroup_iter = graph_isotropic_subgroups(
            p, mod_s, coef_s, mod_d, coef_d, max_order)
        q = direct_sum(q, q_d)
    if not moduli:
        yield 1, q
        return
    by_order = {} if all(m == p for m in moduli) else None
    for order, gens in subgroup_iter:
        if order == 1:
            yield 1, q
            continue
        if by_order is not None and order in by_order:
            yield order, by_order[order]
            continue
        form = induced_form_oracle(q_s, p, gens, q_d)
        if by_order is not None:
            by_order[order] = form
        yield order, form


def orders_oracle(q_s, p: int, max_order: int, q_d=None) -> list:
    """The items of overlattice_candidates read off the listing: where |H|
    fixes the form (the glued search, or an elementary p-part), (|H|, form,
    number of H) for each order that has an H, ascending, where form is the
    one every H of that order induces (asserted, component for component);
    on any other p-part, (|H|, form, 1) for each H."""
    items = overlattice_candidates_oracle(q_s, p, max_order, q_d)
    if q_d is None and any(c.prime == p and c.scale > 1 for c in q_s.components):
        return [(order, form, 1) for order, form in items]
    out: dict = {}
    for order, form in items:
        if order in out:
            assert out[order][0].components == form.components, order
            out[order][1] += 1
        else:
            out[order] = [form, 1]
    return [(order, form, n) for order, (form, n) in out.items()]


def modp_quadratic_type(gram, p: int) -> tuple:
    """(rank, Legendre class of the discriminant of the nondegenerate part)
    of a symmetric matrix over F_p, p odd, by symmetric elimination: a
    diagonal pivot if there is one, else e_i + e_j for an entry (i, j) off
    a zero diagonal, whose value 2 * gram[i][j] is then nonzero.  With the
    dimension this is the isometry type of the quadratic space."""
    a = [[x % p for x in row] for row in gram]
    idx = list(range(len(a)))
    rank, disc = 0, 1
    while True:
        piv = next((i for i in idx if a[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in idx for j in idx if a[i][j]), None)
            if pair is None:
                return rank, ex.legendre(disc, p)
            piv, j = pair
            for t in idx:
                a[piv][t] = (a[piv][t] + a[j][t]) % p
            for t in idx:
                a[t][piv] = (a[t][piv] + a[t][j]) % p
        d = a[piv][piv]
        rank += 1
        disc = disc * d % p
        idx.remove(piv)
        inv = pow(d, -1, p)
        for t in idx:
            f = a[t][piv] * inv % p
            if f:
                a[t] = [(x - f * y) % p for x, y in zip(a[t], a[piv])]


class GraphWalk:
    """The glued search as a walk of A_D's subspaces, the way the library
    ran it before it counted by isometry types: H is the graph of an
    isometric embedding of (U, -b_D), U a subspace of the elementary A_D,
    into the p-torsion A_S[p].  One subspaces_oracle walk of A_D serves every
    order: first_graph(k) walks it to the first U of dimension k that
    embeds, and count(k) walks the rest of dimension k, counting the
    embeddings once per isometry type of U (modp_quadratic_type) by a
    backtrack.  A_S[p] is scanned once into buckets by b(s, s).  Raises
    LimitExceeded when A_S[p], or the subspaces walked, outgrow
    ENUMERATION_CAP.  orders() gives (|H|, form, number of H) per order.
    """

    def __init__(self, p, mod_s, coef_s, mod_d, coef_d, max_order):
        if p ** len(mod_s) > ENUMERATION_CAP:
            raise ex.LimitExceeded("p-torsion enumeration cap exceeded")
        self.p = p
        # s in F_p coordinates is sum s_j (m_j / p) e_j; the moduli ascend
        self.steps = tuple(m // p for m in mod_s)
        self.weights = tuple(c for m, c in zip(mod_s, coef_s) if m == p)
        self.neg_d = tuple(-c for c in coef_d)
        self.walk = subspaces_oracle(p, len(mod_d), max_order)
        next(self.walk)  # the trivial subspace
        self.pending = next(self.walk, None)
        self.scan = product(range(p), repeat=len(mod_s))
        next(self.scan)  # the zero element
        self.buckets: dict[int, list] = {}
        self.types: dict[tuple, int] = {}  # (dim, rank, class) -> embeddings
        self.counts: dict[int, int] = {}  # dim -> graphs of that order

    @classmethod
    def orders(cls, q_s, p: int, max_order: int, q_d) -> list:
        """(|H|, form, number of H) for each order of the glued search, the
        trivial H first, up to the first order without a graph."""
        _, mod_s, coef_s = _realize_p_part(q_s, p)
        _, mod_d, coef_d = _realize_p_part(q_d, p)
        walk = cls(p, mod_s, coef_s, mod_d, coef_d, max_order)
        out, k = [(1, direct_sum(q_s, q_d), 1)], 1
        while (gens := walk.first_graph(k)) is not None:
            out.append((p ** k, induced_form_oracle(q_s, p, gens, q_d), walk.count(k)))
            k += 1
        return out

    def _dim(self, k):
        """The subspaces of dimension k left in the walk (lower ones are
        skipped); one the caller stops at stays pending."""
        while self.pending is not None and len(self.pending) <= k:
            if len(self.pending) == k:
                yield self.pending
            self.pending = next(self.walk, None)

    def _gram(self, basis):
        p, neg_d = self.p, self.neg_d
        return [[sum(c * x * y for c, x, y in zip(neg_d, g, h)) % p for h in basis]
                for g in basis]

    def _scan(self, until=None):
        """Scan A_S[p] on, to the first element of value `until` or the end."""
        if self.scan is None:
            return
        p, weights, buckets = self.p, self.weights, self.buckets
        for s in self.scan:
            value = sum(w * x * x for w, x in zip(weights, s)) % p
            buckets.setdefault(value, []).append(s)
            if value == until:
                return
        self.scan = None

    def _values_taken(self, gram) -> bool:
        """Does some nonzero element of A_S[p] take each diagonal value?"""
        return all(gram[i][i] in self.buckets for i in range(len(gram)))

    def first_graph(self, k: int):
        """Generators, in the coordinates of A_S + A_D, of the first graph of
        order p^k in walk order, or None when there is none."""
        p, buckets = self.p, self.buckets
        if k > 1:
            self._scan()
        for basis in self._dim(k):
            gram = self._gram(basis)
            if k == 1:
                if gram[0][0] not in buckets:
                    self._scan(gram[0][0])
                images = buckets.get(gram[0][0], [])[:1]
            elif not self._values_taken(gram):
                continue
            else:
                key = (k, *modp_quadratic_type(gram, p))
                if self.types.get(key) == 0:
                    continue
                images = self._isometric_images(gram, True)
                if images is None:
                    self.types[key] = 0
            if images:
                return [tuple(x * st for x, st in zip(s, self.steps)) + g
                        for s, g in zip(images, basis)]
        return None

    def count(self, k: int) -> int:
        """The number of graphs of order p^k, from the first graph's U on
        (no U before it embeds); kept, as the walk passes once."""
        if k not in self.counts:
            self._scan()
            p, buckets, total = self.p, self.buckets, 0
            for basis in self._dim(k):
                gram = self._gram(basis)
                if not self._values_taken(gram):
                    continue
                if k == 1:
                    total += len(buckets[gram[0][0]])
                    continue
                key = (k, *modp_quadratic_type(gram, p))
                n = self.types.get(key)
                if n is None:
                    n = self.types[key] = self._isometric_images(gram, False)
                total += n
            self.counts[k] = total
        return self.counts[k]

    @staticmethod
    def _reduce_modp(echelon, v, p: int):
        """v reduced mod p against echelon, a list of (pivot, row) with each
        row 1 at its pivot and 0 at the pivots before it: (pivot, row) of
        the rest, scaled to 1 at its first nonzero entry, or None if v is in
        the span."""
        for piv, row in echelon:
            c = v[piv]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return None
        inv = pow(v[piv], -1, p)
        return piv, [x * inv % p for x in v]

    def _isometric_images(self, gram, first: bool):
        """Independent s_0, ..., s_(k-1) in A_S[p] with b(s_i, s_j) =
        gram[i][j] mod p: the first tuple in bucket order (None if none)
        with first, else their number.

        Each level keeps its candidates filtered by the pairings with the
        images chosen above it; a dependent image is dropped when chosen.
        A count's last level subtracts D, the number of lambda != 0 whose
        sum of lambda_i s_i meets that level's conditions (the same for
        every tuple above).  The first level descends from one element per
        orbit of the isometries of A_S[p] (a count weighs it by the orbit's
        size): the nonzero s of one value form at most two orbits, s in the
        radical or not."""
        p, weights = self.p, self.weights
        k = len(gram)
        levels = [self.buckets.get(gram[i][i]) for i in range(k)]
        if not all(levels):
            return None if first else 0
        last = k - 1
        if not first:
            dependent = sum(
                1 for lam in product(range(p), repeat=last)
                if any(lam)
                and all(sum(x * row[j] for x, row in zip(lam, gram)) % p == gram[last][j]
                        for j in range(last))
                and sum(lam[i] * lam[j] * gram[i][j] for i in range(last)
                        for j in range(last)) % p == gram[last][last])
        orbits: dict[bool, list] = {}  # in the radical -> [first element, size]
        for s in levels[0]:
            orbit = orbits.setdefault(not any(s[:len(weights)]), [s, 0])
            orbit[1] += 1
        chosen, echelon = [], []

        def descend(i, levels):
            if i == last and not first:
                return len(levels[0]) - dependent
            total = 0
            for s, size in orbits.values() if i == 0 else ((s, 1) for s in levels[0]):
                row = self._reduce_modp(echelon, s, p)
                if row is None:
                    continue
                if i == last:
                    return chosen + [s]
                pairing = [w * x for w, x in zip(weights, s)]
                rest = []
                for cands, value in zip(levels[1:], gram[i][i + 1:]):
                    kept = [t for t in cands if sum(map(mul, pairing, t)) % p == value]
                    if not kept:
                        break
                    rest.append(kept)
                else:
                    chosen.append(s)
                    echelon.append(row)
                    found = descend(i + 1, rest)
                    chosen.pop()
                    echelon.pop()
                    if not first:
                        total += size * found
                    elif found:
                        return found
            return None if first else total

        return descend(0, levels)


def two_reachable_det_classes(comps: tuple) -> set:
    """Unit classes mod 8 of the dets of the realizations of the 2-part with
    these components by the sign walk: flip the sign of every subset of the
    components (adding 4 to an odd one's oddity), and keep the class of each
    variant isomorphic to the form.  Without an odd component of scale 2^1
    this is one class (Nikulin 1980, Thm 1.9.1), which the tests check."""
    q2 = FiniteQuadraticForm(comps)
    classes = set()
    for flips in product((0, 1), repeat=len(comps)):
        variant = tuple(JordanComponent(2, c.scale, c.rank, -c.sign,
                                        None if c.oddity is None else c.oddity + 4)
                        if f else c for c, f in zip(comps, flips))
        if FiniteQuadraticForm(variant) == q2:
            classes.add(_det_unit_class_two(variant))
    return classes


def nikulin_exists_oracle(sig_plus: int, sig_minus: int, q) -> bool:
    """nikulin_exists with ell(), primes() and ell_p read per prime, and the
    2-adic determinant classes of every sign-walk variant, so that it does
    not rest on the uniqueness of the 2-adic realization."""
    if sig_plus < 0 or sig_minus < 0:
        return False
    n = sig_plus + sig_minus
    if n == 0:
        return q.is_trivial()
    if signature_mod8(q) != (sig_plus - sig_minus) % 8:
        return False
    if n < max((q.ell_p(p) for p in q.primes()), default=0):
        return False
    for p in q.primes():
        if p == 2:
            continue
        if n == q.ell_p(p):
            w = _det_unit_mod(q, sig_minus, p, p)
            target = 1
            for c in q.components:
                if c.prime == p:
                    target *= c.sign
            if ex.legendre(w, p) != target:
                return False
    if 2 in q.primes() and n == q.ell_p(2):
        two = q.p_part(2)
        has_scale1_odd = any(c.scale == 1 and c.oddity is not None
                             for c in two.components)
        if not has_scale1_odd:
            reachable = two_reachable_det_classes(two.components)
            if _det_unit_mod(q, sig_minus, 2, 8) not in reachable:
                return False
    return True


def primitively_embeds_oracle(q_s, rank_s: int, p: int, sigma: int):
    """primitively_embeds with every H, the trivial one included, taken from
    overlattice_candidates and handed whole to nikulin_exists, and the query
    checked per call."""
    if rank_s < 0 or rank_s > 21:
        raise ValueError("rank must be between 0 and 21")
    if rank_s + q_s.ell() > 24:
        raise ValueError("rank + ell(A) exceeds 24; not a Leech-side lattice")
    if not nikulin_exists(0, rank_s, q_s):
        raise ValueError(f"no even negative-definite lattice of rank {rank_s} "
                         f"has discriminant form {render_symbol(q_s)}")
    query = EmbeddingQuery(q_s, rank_s, p, sigma)
    hmax = p ** min(q_s.ell_p(p), 2 * sigma)
    q_n = n_form(p, sigma).q
    passed = 0
    for h, q_tilde, count in overlattice_candidates(q_s, p, hmax, negate(q_n)):
        target = negate(q_tilde) if h > 1 else direct_sum(negate(q_s), q_n)
        if nikulin_exists(1, 21 - rank_s, target):
            return EmbedDecision(query, True, Certificate(h, q_tilde, target), passed + 1)
        passed += count
    return EmbedDecision(query, False, None, passed)


def direct_sum_oracle(q1, q2):
    """direct_sum by a dict keyed by (prime, scale), the components of a
    shared key joined as they come, then sorted and checked by the public
    constructor."""
    merged = {(c.prime, c.scale): c for c in q1.components}
    for c in q2.components:
        key = (c.prime, c.scale)
        if key not in merged:
            merged[key] = c
            continue
        old = merged[key]
        rank = old.rank + c.rank
        sign = old.sign * c.sign
        if c.prime != 2:
            merged[key] = JordanComponent(c.prime, c.scale, rank, sign)
        elif old.oddity is None and c.oddity is None:
            merged[key] = JordanComponent(2, c.scale, rank, sign, None)
        else:
            t = ((old.oddity or 0) + (c.oddity or 0)) % 8
            merged[key] = JordanComponent(2, c.scale, rank, sign, t)
    return FiniteQuadraticForm(tuple(merged.values()))


def is_identity(iso) -> bool:
    return iso.matrix == ex.identity(len(iso.matrix))


@pytest.fixture
def rng():
    return random.Random(1234)
