import ast
import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from k3lat import _exact as ex

from conftest import mat_inv, modp_echelon_oracle, modp_quadratic_type, modp_reduce_oracle

SRC = Path(__file__).resolve().parents[1] / "src" / "k3lat"


def test_hnf_transform_is_unimodular():
    rng = random.Random(7)
    for _ in range(200):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = ex.to_mat([[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)])
        h, u = ex.row_hnf_transform(m)
        assert ex.mat_mul(u, m) == h
        assert abs(ex.det_int(u)) == 1


def test_hnf_pivots_reduced():
    h = ex.row_hnf(((4, 1), (0, 3), (2, 7)))
    pivots = []
    for row in h:
        c = next(j for j, x in enumerate(row) if x)
        assert row[c] > 0
        for prev in h[: h.index(row)]:
            pc = next(j for j, x in enumerate(prev) if x)
            if pc == c:
                continue
        pivots.append(c)
    assert pivots == sorted(pivots)


def test_snf_divisibility_and_transforms():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = ex.to_mat([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        d, u, v = ex.snf_transform(m)
        assert ex.mat_mul(ex.mat_mul(u, m), v) == d
        assert abs(ex.det_int(u)) == 1 and abs(ex.det_int(v)) == 1
        diag = [d[i][i] for i in range(n)]
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0


def test_kernel_is_saturated_and_correct():
    rng = random.Random(13)
    for _ in range(150):
        nr, nc = rng.randint(1, 3), rng.randint(2, 5)
        m = ex.to_mat([[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)])
        ker = ex.kernel_int(m)
        for row in ker:
            assert all(x == 0 for x in ex.vec_mat(row, ex.transpose(m)))
        # dimension matches the rational kernel, so the span is saturated
        d, _, _ = ex.snf_transform(m)
        rank = sum(1 for i in range(min(nr, nc)) if d[i][i])
        assert len(ker) == nc - rank


def test_det_and_inverse():
    m = ((2, 1), (1, 2))
    assert ex.det_int(m) == 3
    inv = mat_inv(m)
    prod = ex.mat_mul(m, inv)
    assert prod == ex.to_mat([[1, 0], [0, 1]])


def test_legendre():
    assert ex.legendre(2, 7) == 1
    assert ex.legendre(3, 7) == -1
    assert ex.legendre(21, 5) == ex.legendre(1, 5) == 1
    for p in (3, 5, 7, 23, 71, 191):
        squares = {x * x % p for x in range(p)}
        assert ex.least_nonresidue(p) == min(set(range(p)) - squares)


def test_sqrt_mod_matches_the_squares():
    # every odd prime below 1000, against the exhaustive squares; then
    # spot checks at 10009 and 1000033, which are 1 mod 8, so that the
    # Tonelli-Shanks loop runs more than once
    for p in range(3, 1000, 2):
        if not ex.is_prime(p):
            continue
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            if a in squares:
                assert ex.sqrt_mod(a, p) ** 2 % p == a, (a, p)
            else:
                with pytest.raises(ArithmeticError):
                    ex.sqrt_mod(a, p)
    rng = random.Random(7)
    for p in (10009, 1000033):
        assert p % 8 == 1
        for _ in range(200):
            x = rng.randrange(p)
            assert ex.sqrt_mod(x * x + p, p) ** 2 % p == x * x % p
        with pytest.raises(ArithmeticError):
            ex.sqrt_mod(ex.least_nonresidue(p), p)


def _smallest_prime_factors(limit: int) -> list:
    spf = list(range(limit + 1))
    for d in range(2, limit + 1):
        if spf[d] == d:
            for m in range(d * d, limit + 1, d):
                if spf[m] == m:
                    spf[m] = d
    return spf


def test_factor_matches_a_sieve():
    spf = _smallest_prime_factors(5000)
    for n in range(1, 5001):
        got = ex.factor(n)
        prod = 1
        for p, k in got.items():
            assert spf[p] == p, (n, p)
            prod *= p ** k
        assert prod == n
        want, m = {}, n
        while m > 1:
            want[spf[m]] = want.get(spf[m], 0) + 1
            m //= spf[m]
        assert got == want
        assert ex.factor(-n) == got
        assert ex.is_prime(n) == (n > 1 and spf[n] == n)


# (10^9 + 7)(10^9 + 9): no factor below 10^6, not prime, not a perfect power
SEMIPRIME_19_DIGITS = 1000000016000000063
# the least prime above _MILLER_RABIN_BOUND, and the greatest below it
PRIME_ABOVE_BOUND = 3317044064679887385962123
PRIME_BELOW_BOUND = 3317044064679887385961813


def test_factor_at_the_cap():
    assert ex.is_prime(999999999989)  # the largest prime below 10^12
    assert ex.factor(2 ** 40 * 999999999989) == {2: 40, 999999999989: 1}
    assert ex.factor(10 ** 400) == {2: 400, 5: 400}
    # Miller-Rabin decides every cofactor below the bound, 10^12 or not
    assert ex.is_prime(1000000000039)  # a prime above 10^12
    assert ex.is_prime(10 ** 18 + 3) and ex.is_prime(PRIME_BELOW_BOUND)
    assert ex._MILLER_RABIN_BOUND == 3317044064679887385961981
    assert not ex._large_prime(ex._MILLER_RABIN_BOUND)  # composite, a strong pseudoprime
    # a perfect power of such a prime is decided; anything else is not
    p = 10 ** 9 + 7
    assert ex.factor(4 * p * p) == {2: 2, p: 2}
    assert ex.factor(3 * PRIME_BELOW_BOUND ** 3) == {3: 1, PRIME_BELOW_BOUND: 3}
    assert ex.factor((999983 * 1000003) ** 2) == {999983: 2, 1000003: 2}
    for n in (SEMIPRIME_19_DIGITS, PRIME_ABOVE_BOUND, PRIME_ABOVE_BOUND ** 2,
              (p * (p + 2)) ** 3):
        with pytest.raises(ValueError, match="too large"):
            ex.factor(n)
        with pytest.raises(ValueError, match="too large"):
            ex.is_prime(n)
    with pytest.raises(ValueError):
        ex.factor(0)
    assert not ex.is_prime(0) and not ex.is_prime(1) and not ex.is_prime(-7)


def test_integer_roots_and_perfect_powers():
    for n in [*range(200), *(b ** k + d for b in (2, 3, 10, 999983, 10 ** 9 + 7)
                             for k in range(1, 9) for d in (-1, 0, 1))]:
        for k in range(1, 10):
            r = ex.iroot(n, k)
            assert r ** k <= n < (r + 1) ** k, (n, k)
        if n >= 2:
            r, k = ex._perfect_power(n)
            assert r ** k == n
            assert all(ex.iroot(n, j) ** j != n for j in range(k + 1, n.bit_length() + 1))
    assert ex._perfect_power(2 ** 64) == (2, 64)
    assert ex._perfect_power(6 ** 10) == (6, 10)
    assert ex._perfect_power(10 ** 400 + 1) == (10 ** 400 + 1, 1)


def factor_by_trial_division(n: int) -> dict:
    """The factor that stopped only at isqrt(cofactor) or 10^6, with no
    primality test on the way."""
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out = {}
    for d in range(2, 10 ** 6):
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    if n > 10 ** 12:
        raise ValueError(f"no factor below 1000000 of a {n.bit_length()}-bit "
                         f"cofactor; too large to decide")
    if n > 1:
        out[n] = 1
    return out


def test_factor_matches_trial_division_oracle():
    primes = [4000000007, 4294967291, 4999999937]
    semiprimes = [999983 * 999979, 999961 * 999983, 999979 ** 2]
    pseudoprimes = [1373653, 25326001, 3215031751]  # strong to bases 2-3, 2-5, 2-7
    large = [2 * 3 * p for p in primes] + [4 * 999983 * 999979, 5 * 3215031751]
    for n in [*range(1, 20001), *primes, *semiprimes, *pseudoprimes, *large]:
        want = factor_by_trial_division(n)
        assert ex.factor(n) == want, n
        assert ex.is_prime(n) == (want == {n: 1}), n
    assert ex.factor(3215031751) == {151: 1, 751: 1, 28351: 1}
    for p in primes:
        assert ex.is_prime(p)


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_gauss_jordan_inverse(rows):
    m = ex.to_mat(rows)
    n = len(m)
    # the last row replaced by the sum of the others: always singular
    singular = m[:-1] + (tuple(sum(r[j] for r in m[:-1]) for j in range(n)),)
    with pytest.raises(ZeroDivisionError):
        mat_inv(singular)
    assume(ex.det_int(m) != 0)
    assert ex.mat_mul(m, mat_inv(m)) == ex.identity(n)


@given(st.sampled_from([2, 3, 5, 7, 13]),
       st.integers(1, 8).flatmap(lambda n: st.lists(
           st.lists(st.integers(-20, 20), min_size=n, max_size=n), max_size=10)))
def test_modp_echelon_is_reduced_and_spans_as_the_oracle(p, rows):
    basis, pivots = ex.modp_echelon(rows, p)
    old_basis, old_pivots = modp_echelon_oracle(rows, p)
    # the same pivots, and each basis in the span of the other: the same span
    assert pivots == old_pivots and len(basis) == len(old_basis)
    for row in basis:
        assert not any(modp_reduce_oracle(row, old_basis, old_pivots, p))
    for row in old_basis:
        assert not any(modp_reduce_oracle(row, basis, pivots, p))
    # reduced: 1 at each pivot, 0 in that column of every other row
    for i, pc in enumerate(pivots):
        assert [row[pc] for row in basis] == [int(k == i) for k in range(len(basis))]
    assert all(0 <= x < p for row in basis for x in row)


@given(st.sampled_from((3, 5, 7)), st.integers(0, 5).flatmap(
    lambda n: st.lists(st.integers(0, 6), min_size=n * (n + 1) // 2,
                       max_size=n * (n + 1) // 2).map(lambda xs: (n, xs))))
def test_modp_quadratic_type_matches_principal_minors(p, data):
    # oracle: a symmetric matrix of rank r has a nonsingular principal r x r
    # minor, whose span complements the radical; its determinant's class is
    # the class of the nondegenerate part
    from itertools import combinations

    n, upper = data
    entries = iter(upper)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = next(entries) % p
    rank = len(ex.modp_echelon(gram, p)[0])
    minors = [ex.det_int(ex.to_mat([[gram[i][j] for j in idx] for i in idx])) % p
              for idx in combinations(range(n), rank)]
    cls = ex.legendre(next(d for d in minors if d), p) if rank else 1
    assert modp_quadratic_type(gram, p) == (rank, cls)


def test_no_float_square_root_in_the_package():
    """Floating point appears only in the Gauss-sum oracle fqf.brute_force_tau."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"\*\*\s*0?\.5", text), f"{path.name}: ** 0.5"
        if path.name == "fqf.py":
            oracle = next(node for node in ast.parse(text).body
                          if isinstance(node, ast.FunctionDef)
                          and node.name == "brute_force_tau")
            lines = text.splitlines()
            text = "\n".join(lines[:oracle.lineno - 1] + lines[oracle.end_lineno:])
        assert not re.search(r"\bmath\.sqrt\b|\bcmath\b", text), \
            f"{path.name}: float square root outside fqf.brute_force_tau"
