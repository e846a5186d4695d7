import json
import math
import random
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from k3lat import _exact as ex
from k3lat.intlat import (
    MAX_SHORT_VECTOR_RANK,
    DegenerateLatticeError,
    IntegralLattice,
    Sublattice,
    discriminant_group,
    is_primitive,
    leech_lattice,
    membership,
    orthogonal_complement,
    rank_ell_bound,
    roots,
    saturate,
    short_vectors,
)
from k3lat.rootsys import build

from conftest import (
    cap_child_memory,
    child_env,
    dense_diagonal_gram,
    random_even_gram,
    saturation_oracle,
    unimodular_conjugate,
)

U = IntegralLattice(((0, 1), (1, 0)))
A2 = IntegralLattice(((2, -1), (-1, 2)))
E8 = build("E8").lattice()


def test_rank_zero_lattice():
    zero = IntegralLattice(())
    assert zero.rank == 0 and zero.det == 1
    assert zero.signature() == (0, 0)
    assert discriminant_group(zero).cyclic_orders == ()
    assert roots(zero) == []


def test_rejects_degenerate_and_odd():
    with pytest.raises(DegenerateLatticeError):
        IntegralLattice(((2, 2), (2, 2)))
    with pytest.raises(ValueError):
        IntegralLattice(((1,),))
    with pytest.raises(ValueError):
        IntegralLattice(((2, 1), (0, 2)))


def test_det_is_stored_but_not_compared():
    lat = IntegralLattice(((2, -1), (-1, 2)))
    assert lat.det == 3 == ex.det_int(lat.gram)
    assert lat == A2 and hash(lat) == hash(A2)
    assert [f.name for f in fields(IntegralLattice) if f.compare or f.init] == ["gram"]


def test_discriminant_groups():
    assert discriminant_group(U).cyclic_orders == ()
    assert discriminant_group(A2).cyclic_orders == (3,)
    assert discriminant_group(IntegralLattice(((84,),))).cyclic_orders == (84,)


def test_discriminant_lift_orders():
    rng = random.Random(5)
    for _ in range(100):
        lat = random_even_gram(rng, rng.randint(1, 3))
        disc = discriminant_group(lat)
        prod = 1
        for d, lift in zip(disc.cyclic_orders, disc.generator_lifts):
            prod *= d
            scaled = tuple(d * x for x in lift)
            assert all(v.denominator == 1 for v in scaled)
        assert prod == abs(lat.det)


def test_discriminant_lifts_are_reduced():
    # each lift lies in [0, 1)^n, so its numerator over d_i lies in [0, d_i);
    # the dense Gram's unreduced lifts ran to thousands of digits
    rng = random.Random(6)
    lats = [unimodular_conjugate(rng, random_even_gram(rng, rng.randint(1, 5), 4))
            for _ in range(50)]
    lats.append(IntegralLattice(dense_diagonal_gram(1, 20, 60)))
    for lat in lats:
        disc = discriminant_group(lat)
        for d, lift in zip(disc.cyclic_orders, disc.generator_lifts):
            assert all(0 <= x * d < d and (x * d).denominator == 1 for x in lift)
            # a dual vector: its pairings with the basis, G x, are integral
            assert all(sum(a * b for a, b in zip(lift, col)).denominator == 1
                       for col in lat.gram)


def test_orthogonal_complement_examples():
    iso = Sublattice(U, ((1, 0),))
    assert orthogonal_complement(U, iso).basis_matrix == ((1, 0),)
    assert orthogonal_complement(A2, Sublattice(A2, ())).basis_matrix == ex.identity(2)
    four = A2.direct_sum(A2)
    first = Sublattice(four, ((1, 0, 0, 0), (0, 1, 0, 0)))
    comp = orthogonal_complement(four, first)
    assert comp.hnf_basis() == ((0, 0, 1, 0), (0, 0, 0, 1))


def test_saturate_examples():
    s3 = Sublattice(A2, ((3, 0), (0, 3)))
    sat, idx = saturate(A2, s3)
    assert idx == 9 and sat.hnf_basis() == ex.identity(2)
    from k3lat.rootsys import t_sublattice

    t = t_sublattice(3)
    sat, idx = saturate(t.ambient, t)
    assert idx == 3 and sat.hnf_basis() == ex.identity(2)
    prim = Sublattice(A2, ((1, 0),))
    sat, idx = saturate(A2, prim)
    assert idx == 1
    sat2, idx2 = saturate(A2, sat)
    assert idx2 == 1 and sat2.hnf_basis() == sat.hnf_basis()


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 8).flatmap(lambda n: st.integers(1, n).flatmap(lambda k: st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=k, max_size=k))))
def test_saturate_matches_the_fraction_inverse(rows):
    basis = ex.to_mat(rows)
    assume(len(ex.row_hnf(basis)) == len(basis))
    n = len(basis[0])
    lat = IntegralLattice(tuple(tuple(2 * x for x in r) for r in ex.identity(n)))
    sat, idx = saturate(lat, Sublattice(lat, basis))
    assert (sat.basis_matrix, idx) == saturation_oracle(basis)


def test_sublattice_keeps_its_hermite_basis(monkeypatch):
    sub = Sublattice(A2.direct_sum(A2), ((2, 4, 0, 0), (0, 3, 3, 0)))
    assert sub.hnf_basis() == ex.row_hnf(sub.basis_matrix)
    assert sub == Sublattice(sub.ambient, sub.basis_matrix)
    calls = []
    monkeypatch.setattr(ex, "row_hnf", lambda m: calls.append(m) or ())
    assert membership(sub, (2, 7, 3, 0)) and not membership(sub, (1, 0, 0, 0))
    assert sub.hnf_basis() == ((2, 1, -3, 0), (0, 3, 3, 0)) and calls == []


def test_roots_counts():
    assert len(roots(A2)) == 6
    assert len(roots(E8)) == 240
    with pytest.raises(ValueError):
        roots(U)


def _unchecked(gram) -> IntegralLattice:
    """An IntegralLattice that skips the constructor's checks."""
    lat = object.__new__(IntegralLattice)
    object.__setattr__(lat, "gram", ex.to_mat(gram))
    return lat


def test_roots_sign_from_first_diagonal_entry():
    # roots decides definiteness by the quadratic completion alone
    neg = roots(E8.negated())
    assert len(neg) == 240 and set(neg) == set(roots(E8))
    indefinite = ((0, 1), (1, 0)), ((2, 3), (3, 2)), ((-2, 3), (3, -2)), ((2, 0), (0, -2))
    degenerate = ((2, 2), (2, 2)), ((-2, -2), (-2, -2)), ((2, 0), (0, 0))
    for gram in indefinite:
        with pytest.raises(ValueError, match="indefinite"):
            roots(IntegralLattice(gram))
    for gram in degenerate:
        with pytest.raises(DegenerateLatticeError):
            IntegralLattice(gram)
        with pytest.raises(ValueError, match="indefinite"):
            roots(_unchecked(gram))


def test_e8_roots_against_family_oracle():
    """Independent oracle: the two explicit coordinate families."""
    from fractions import Fraction
    from itertools import product

    datum = build("E8")
    ambient = set()
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Fraction(0)] * 8
                    v[i], v[j] = Fraction(si), Fraction(sj)
                    ambient.add(tuple(v))
    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            ambient.add(tuple(Fraction(s, 2) for s in signs))
    assert len(ambient) == 240
    enumerated = {tuple(datum.simple_to_ambient(r)) for r in roots(E8)}
    assert enumerated == ambient


def test_leech_is_certified():
    lat = leech_lattice()
    assert lat.rank == 24
    assert lat.det == 1
    assert lat.signature() == (0, 24)
    assert roots(lat) == []


def test_membership():
    s3 = Sublattice(A2, ((3, 0), (0, 3)))
    assert membership(s3, (3, 0))
    assert not membership(s3, (1, 0))
    from k3lat.rootsys import t_sublattice

    t = t_sublattice(3)
    assert membership(t, (1, -1))  # alpha_1 - alpha_2
    assert not membership(t, (1, 0))
    with pytest.raises(ValueError):
        membership(s3, (1, 0, 0))


def test_short_vectors_match_naive():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 3)
        lat = random_even_gram(rng, n)
        if lat.signature() != (n, 0):
            continue
        bound = 8
        got = {v for v, _ in short_vectors(lat, bound)}
        naive = set()
        rng_box = range(-6, 7)
        from itertools import product

        for vec in product(rng_box, repeat=n):
            if any(vec) and 0 < lat.norm(vec) <= bound:
                first = next(x for x in vec if x)
                naive.add(vec if first > 0 else tuple(-x for x in vec))
        assert got == naive


def floor_sqrt_fraction(x: Fraction) -> int:
    """floor(sqrt(x)) for a nonnegative Fraction, exactly."""
    if x < 0:
        raise ValueError("negative radicand")
    n, d = x.numerator, x.denominator
    return math.isqrt(n * d) // d


def test_floor_sqrt_fraction():
    assert floor_sqrt_fraction(Fraction(0)) == 0
    assert floor_sqrt_fraction(Fraction(8, 2)) == 2
    assert floor_sqrt_fraction(Fraction(35, 4)) == 2
    assert floor_sqrt_fraction(Fraction(36, 4)) == 3


def short_vectors_oracle(lat: IntegralLattice, bound: int) -> list:
    """The Fraction Fincke-Pohst walk that short_vectors replaced.

    It walks v and -v both, with a padded isqrt range and an exact overshoot
    check at every node, and keeps one of each +-pair afterwards.
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
        s = floor_sqrt_fraction(remaining / c[i]) + 1
        lo = math.ceil(-t - s)
        hi = math.floor(-t + s)
        for val in range(lo, hi + 1):
            x[i] = val
            used = c[i] * (val + t) ** 2
            if used <= remaining:
                walk(i - 1, remaining - used)
        x[i] = 0

    walk(n - 1, Fraction(bound))
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


def skewed(gram, rng: random.Random, steps: int) -> IntegralLattice:
    """The same lattice after `steps` basis steps b_i += +-b_j (i != j)."""
    g = [list(row) for row in gram]
    n = len(g)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        for row in g:
            row[i] += s * row[j]
        g[i] = [a + s * b for a, b in zip(g[i], g[j])]
    return IntegralLattice(ex.to_mat(g))


def assert_short_vectors_exact(lat: IntegralLattice, bound: int) -> list:
    got = short_vectors(lat, bound)
    assert set(got) == set(short_vectors_oracle(lat, bound))
    vecs = [v for v, _ in got]
    assert len(set(vecs)) == len(vecs)
    assert not set(vecs) & {tuple(-y for y in v) for v in vecs}
    for v, norm in got:
        assert next(y for y in v if y) > 0
        assert norm == lat.norm(v) and 0 < norm <= bound
    return got


@st.composite
def definite_even_grams(draw):
    """A positive definite even Gram of rank 1-10.

    Entries off the diagonal are in {-1, 0, 1}.  A diagonal entry is the
    least even number >= the absolute sum of its row, plus 0 or 2, so the
    Gram is diagonally dominant, hence positive semidefinite; a degenerate
    draw is rejected.
    """
    n = draw(st.integers(1, 10))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.sampled_from((0, 0, 0, 1, -1)))
    for i in range(n):
        row = sum(abs(e) for e in g[i])
        g[i][i] = max(2, row + row % 2) + draw(st.sampled_from((0, 0, 2)))
    assume(ex.det_int(ex.to_mat(g)) != 0)
    return g


@settings(deadline=None, max_examples=200)
@given(definite_even_grams(), st.integers(0, 10), st.booleans(), st.integers(0, 2 ** 32))
def test_short_vectors_match_fraction_oracle(gram, bound, skew, seed):
    n = len(gram)
    lat = (skewed(gram, random.Random(seed), n // 2) if skew and n > 1
           else IntegralLattice(ex.to_mat(gram)))
    assert_short_vectors_exact(lat, bound)


def assert_lll_reduced(gram) -> None:
    """lll_reduce's data checked against the reduced Gram it claims."""
    n = len(gram)
    d, lam, h = ex.lll_reduce(gram)
    assert abs(ex.det_int(ex.to_mat(h))) == 1
    reduced = ex.mat_mul(ex.mat_mul(ex.to_mat(h), gram), ex.transpose(ex.to_mat(h)))
    assert d[0] == 1
    for k in range(1, n + 1):
        assert d[k] == ex.det_int(tuple(row[:k] for row in reduced[:k]))
    # the Fraction completion of the reduced Gram is its Gram-Schmidt data
    c, w = ex.quadratic_completion(reduced)
    for i in range(n):
        assert c[i] == Fraction(d[i + 1], d[i])
        assert w[i] == [Fraction(lam[j][i], d[i + 1]) for j in range(i + 1, n)]
    for k in range(n):
        assert all(2 * abs(lam[k][l]) <= d[l + 1] for l in range(k))
        if k:
            # Lovasz at delta = 99/100
            assert 100 * d[k + 1] * d[k - 1] >= 99 * d[k] ** 2 - 100 * lam[k][k - 1] ** 2


@settings(deadline=None, max_examples=150)
@given(definite_even_grams(), st.data())
def test_lll_reduction_and_short_vectors(gram, data):
    n = len(gram)
    steps = data.draw(st.integers(0, 6 * n)) if n > 1 else 0
    lat = skewed(gram, random.Random(data.draw(st.integers(0, 2 ** 32))), steps)
    assert_lll_reduced(lat.gram)
    assert_short_vectors_exact(lat, data.draw(st.integers(0, 4)))


def test_e8_theta_series():
    """E8 has 240, 2160 and 6720 vectors of norm 2, 4 and 6."""
    got = assert_short_vectors_exact(E8, 6)
    assert Counter(norm for _, norm in got) == {2: 120, 4: 1080, 6: 3360}


def test_skewed_roots():
    """E8 + A2 in a basis skewed by 60, 100 or 200 column steps keeps its
    240 + 6 roots."""
    gram = E8.direct_sum(A2).gram
    for seed, steps in (60, 60), (1, 100), (2, 100), (3, 100), (1, 200):
        lat = skewed(gram, random.Random(seed), steps)
        found = roots(lat)
        assert len(found) == 246 and len(set(found)) == 246, (seed, steps)
        assert all(lat.norm(v) == 2 for v in found)


ROOTS_OF_STDIN = """
import json, sys
from k3lat.intlat import IntegralLattice, roots
print(json.dumps(roots(IntegralLattice(json.load(sys.stdin)))))
"""


def test_hostile_skew_ends_quickly():
    """E8 + E8 skewed until its Gram entries exceed 10^40: all 480 roots,
    in a child process that fails the test after 30 s."""
    rng = random.Random(16)
    lat = E8.direct_sum(E8)
    while max(abs(x) for row in lat.gram for x in row) <= 10 ** 40:
        lat = skewed(lat.gram, rng, 16)
    res = subprocess.run([sys.executable, "-c", ROOTS_OF_STDIN], input=json.dumps(lat.gram),
                         env=child_env(), capture_output=True, text=True, timeout=30,
                         preexec_fn=cap_child_memory)
    assert res.returncode == 0, res.stderr
    found = {tuple(v) for v in json.loads(res.stdout)}
    assert len(found) == 480
    assert all(lat.norm(v) == 2 for v in found)


def test_lll_refuses_non_definite_grams():
    indefinite = ((0, 1), (1, 0)), ((2, 3), (3, 2)), E8.direct_sum(U).gram, E8.negated().gram
    degenerate = ((2, 2), (2, 2)), ((2, 0), (0, 0)), ((0, 1, 1), (1, 0, 1), (1, 1, 2))
    for gram in indefinite + degenerate:
        with pytest.raises(ValueError, match="positive definite"):
            ex.lll_reduce(gram)
        with pytest.raises(ValueError, match="positive definite"):
            short_vectors(_unchecked(gram), 2)


def test_short_vector_edge_cases():
    assert short_vectors(IntegralLattice(()), 5) == []
    assert short_vectors(E8, 0) == []
    with pytest.raises(ValueError):
        short_vectors(E8, -1)
    with pytest.raises(ValueError):
        short_vectors(IntegralLattice(((2, 3), (3, 2))), 2)
    n = MAX_SHORT_VECTOR_RANK + 1
    big = IntegralLattice(tuple(tuple(2 * (i == j) for j in range(n)) for i in range(n)))
    with pytest.raises(ex.LimitExceeded):
        short_vectors(big, 2)
    with pytest.raises(ex.LimitExceeded):
        roots(big)


def charpoly_faddeev_leverrier(m) -> list:
    """Integer coefficients c_0, ..., c_n of det(x I - m), Faddeev-LeVerrier.

    M_k = m M_{k-1} + c_{n-k+1} I and c_{n-k} = -tr(m M_k) / k, each division
    exact for an integer matrix.
    """
    n = len(m)
    c = [0] * n + [1]
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = [[sum(m[i][t] * mk[t][j] for t in range(n)) + (c[n - k + 1] if i == j else 0)
               for j in range(n)] for i in range(n)]
        trace = sum(sum(m[i][t] * mk[t][i] for t in range(n)) for i in range(n))
        assert trace % k == 0
        c[n - k] = -trace // k
    return c


def sign_changes(coeffs) -> int:
    signs = [x > 0 for x in coeffs if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def signature_by_descartes(gram) -> tuple:
    """Every root of a symmetric matrix's characteristic polynomial is real,
    so Descartes' rule counts the positive roots exactly, and the sign
    changes of c(-x) count the negative ones."""
    c = charpoly_faddeev_leverrier(gram)
    assert c[0] != 0
    return sign_changes(c), sign_changes([x * (-1) ** i for i, x in enumerate(c)])


@st.composite
def grams_with_zero_diagonal_entries(draw):
    """A nondegenerate symmetric even Gram of rank 1-6 with a zero diagonal entry."""
    n = draw(st.integers(1, 6))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = draw(st.sampled_from((0, 0, 2, -2, 4, -4)))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    zero = draw(st.integers(0, n - 1))
    g[zero][zero] = 0
    assume(ex.det_int(ex.to_mat(g)) != 0)
    return ex.to_mat(g)


@settings(deadline=None, max_examples=300)
@given(grams_with_zero_diagonal_entries())
def test_signature_against_descartes(gram):
    lat = IntegralLattice(gram)
    assert lat.signature() == signature_by_descartes(gram)
    c, _ = ex.quadratic_completion(gram)
    assert math.prod(c) == lat.det
    # a zero diagonal entry makes the form isotropic, never definite
    with pytest.raises(ValueError):
        short_vectors(lat, 2)


def test_signature_of_named_indefinite_lattices():
    two = IntegralLattice(((2,),))
    # the zero pivot of ((0, 1), (1, -2)) takes e_1 - e_2: 2 * 1 + (-2) = 0 rules out s = 1
    for lat, sig in ((U, (1, 1)), (U.direct_sum(two), (2, 1)), (E8.direct_sum(U), (9, 1)),
                     (E8.negated().direct_sum(U), (1, 9)),
                     (IntegralLattice(((0, 1), (1, -2))), (1, 1))):
        assert lat.signature() == sig == signature_by_descartes(lat.gram)
        with pytest.raises(ValueError):
            short_vectors(lat, 2)
    degenerate = ((0, 0), (0, 2)), ((0, 1, 1), (1, 0, 1), (1, 1, 2)), ((2, 2), (2, 2))
    for gram in degenerate:
        with pytest.raises(ValueError):
            short_vectors(_unchecked(gram), 2)


def test_rank_ell_bound():
    four = A2.direct_sum(A2)
    first = Sublattice(four, ((1, 0, 0, 0), (0, 1, 0, 0)))
    assert rank_ell_bound(four, first)
    with pytest.raises(ValueError):
        rank_ell_bound(A2, Sublattice(A2, ((3, 0), (0, 3))))
    rng = random.Random(23)
    for _ in range(60):
        k = rng.randint(1, 4)
        rows = ex.row_hnf(ex.to_mat([[rng.randint(-1, 1) for _ in range(8)]
                                     for _ in range(k)]))
        if not rows:
            continue
        sat, _ = saturate(E8, Sublattice(E8, rows))
        assert rank_ell_bound(E8, sat)


def test_index_and_sublattice_disc_relation(rng):
    for _ in range(150):
        n = rng.randint(1, 3)
        lat = random_even_gram(rng, n)
        while True:
            b = ex.to_mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if ex.det_int(b) != 0:
                break
        sub = Sublattice(lat, b)
        idx = sub.index()
        assert idx == abs(ex.det_int(b))
        assert abs(ex.det_int(sub.gram())) == idx * idx * abs(lat.det)


def test_complement_is_primitive_and_involutive(rng):
    for _ in range(40):
        k = rng.randint(1, 4)
        rows = ex.row_hnf(ex.to_mat([[rng.randint(-1, 1) for _ in range(8)]
                                     for _ in range(k)]))
        if not rows:
            continue
        sub = Sublattice(E8, rows)
        comp = orthogonal_complement(E8, sub)
        assert is_primitive(E8, comp)
        sat, _ = saturate(E8, sub)
        assert orthogonal_complement(E8, comp).hnf_basis() == sat.hnf_basis()
