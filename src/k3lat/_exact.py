"""Exact integer/rational linear algebra and elementary number theory.

Linear algebra: HNF, SNF, kernels, determinants and Gauss-Jordan solving,
on tuples of tuples with int or Fraction entries.  Number theory: capped
trial-division factoring and primality, Legendre/Jacobi symbols and p-adic
valuations of ints, the pivots of the symbol computation in fqf, which
eliminates in integers modulo p^(v_p(det)+1), or 2^(v_2(det)+3) at p = 2.
No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

Vec = tuple
Mat = tuple


class LimitExceeded(RuntimeError):
    """A search, enumeration or group closure outgrew its documented cap."""


def to_mat(rows) -> Mat:
    return tuple(tuple(x for x in row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def vec_mat(v: Vec, a: Mat) -> Vec:
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0]))) if a else ()


def dot(u: Vec, v: Vec):
    return sum(x * y for x, y in zip(u, v))


def is_symmetric(m: Mat) -> bool:
    n = len(m)
    return all(len(r) == n for r in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n)
    )


def det_int(m: Mat) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _gauss_jordan(a: Mat, rhs: Mat) -> list:
    """The rows of X with a*X = rhs for square nonsingular a, exactly.

    Raises ZeroDivisionError if a is singular.
    """
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(y) for y in extra]
           for row, extra in zip(a, rhs)]
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
    return [row[n:] for row in aug]


def mat_inv(m: Mat) -> Mat:
    """Exact inverse over the rationals (raises ZeroDivisionError if singular)."""
    return tuple(tuple(row) for row in _gauss_jordan(m, identity(len(m))))


def solve_unique(a: Mat, b: Vec) -> Vec:
    """Solve a*x = b for square nonsingular a, exactly."""
    return tuple(row[0] for row in _gauss_jordan(a, [(x,) for x in b]))


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def row_hnf_transform(m: Mat) -> tuple[Mat, Mat]:
    """Row Hermite normal form with transform: returns (H, U) with U*m = H.

    U is unimodular.  H has positive pivots with entries above each pivot
    reduced into [0, pivot); zero rows sink to the bottom.
    """
    rows = [list(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    u = [list(r) for r in identity(nr)]
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        _swap_rows(rows, r, piv)
        _swap_rows(u, r, piv)
        # clear below via gcd steps
        for i in range(r + 1, nr):
            while rows[i][c] != 0:
                q = rows[r][c] // rows[i][c]
                rows[r] = [x - q * y for x, y in zip(rows[r], rows[i])]
                u[r] = [x - q * y for x, y in zip(u[r], u[i])]
                _swap_rows(rows, r, i)
                _swap_rows(u, r, i)
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == nr:
            break
    return to_mat(rows), to_mat(u)


def row_hnf(m: Mat) -> Mat:
    """Nonzero rows of the row HNF of m."""
    h, _ = row_hnf_transform(m)
    return tuple(r for r in h if any(x != 0 for x in r))


def hnf_reduce(h: Mat, v: Vec) -> Vec:
    """Reduce v against HNF rows h (integer combinations only); returns remainder."""
    w = list(v)
    for row in h:
        c = next((j for j, x in enumerate(row) if x != 0), None)
        if c is not None and w[c] != 0:
            q = w[c] // row[c]
            if q:
                w = [x - q * y for x, y in zip(w, row)]
    return tuple(w)


def in_row_span_int(h: Mat, v: Vec) -> bool:
    """Is v an integer combination of the HNF rows h?"""
    return all(x == 0 for x in hnf_reduce(h, v))


def kernel_int(m: Mat) -> Mat:
    """Basis (rows) of the saturated right kernel {x in Z^n : m*x = 0}."""
    if not m:
        return ()
    h, u = row_hnf_transform(transpose(m))
    ker = tuple(u[i] for i in range(len(h)) if all(x == 0 for x in h[i]))
    return ker


def modp_echelon(rows, p: int):
    """Row echelon basis mod p: (pivot rows, their pivot columns)."""
    mat = [list(r % p for r in row) for row in rows]
    basis = []
    pivots = []
    for row in mat:
        row = row[:]
        for prow, pc in zip(basis, pivots):
            if row[pc]:
                f = row[pc] * pow(prow[pc], -1, p) % p
                row = [(a - f * b) % p for a, b in zip(row, prow)]
        nz = next((i for i, a in enumerate(row) if a), None)
        if nz is not None:
            basis.append(row)
            pivots.append(nz)
    return basis, pivots


def snf_transform(m: Mat) -> tuple[Mat, Mat, Mat]:
    """Smith normal form with transforms: returns (D, U, V) with U*m*V = D.

    D is diagonal with nonnegative entries d_1 | d_2 | ... ; U, V unimodular.
    """
    a = [list(r) for r in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = [list(r) for r in identity(nr)]
    v = [list(r) for r in identity(nc)]

    def swap_cols(mat, i, j):
        for row in mat:
            row[i], row[j] = row[j], row[i]

    def add_col(mat, dst, src, q):
        for row in mat:
            row[dst] -= q * row[src]

    t = 0
    while t < min(nr, nc):
        # find pivot: smallest nonzero by absolute value in remaining block
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        _swap_rows(a, t, pi)
        _swap_rows(u, t, pi)
        swap_cols(a, t, pj)
        swap_cols(v, t, pj)
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                add_col(a, j, t, q)
                add_col(v, j, t, q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # ensure pivot divides the rest of the block
        bad = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return to_mat(a), to_mat(u), to_mat(v)


def floor_sqrt_fraction(x: Fraction) -> int:
    """floor(sqrt(x)) for a nonnegative Fraction, exactly."""
    if x < 0:
        raise ValueError("negative radicand")
    n, d = x.numerator, x.denominator
    return isqrt(n * d) // d


def rational_diagonal(gram: Mat) -> list[Fraction]:
    """Diagonal entries of a congruent diagonal form over Q (Lagrange method).

    Works for any nondegenerate symmetric matrix; used for signatures.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    out = []
    idx = list(range(n))
    while idx:
        k = idx[0]
        if a[k][k] == 0:
            fixed = False
            for j in idx[1:]:
                if a[k][j] == 0:
                    continue
                for s in (1, -1):
                    if 2 * s * a[k][j] + a[j][j] != 0:
                        for t in idx:
                            a[k][t] += s * a[j][t]
                        for t in idx:
                            a[t][k] += s * a[t][j]
                        fixed = True
                        break
                if fixed:
                    break
            if not fixed:
                raise ValueError("degenerate form")
        pivot = a[k][k]
        out.append(pivot)
        rest = idx[1:]
        for i in rest:
            f = a[i][k] / pivot
            if f:
                for j in rest:
                    a[i][j] -= f * a[k][j]
        # re-symmetrize bookkeeping: copy mirrored entries
        for i in rest:
            a[k][i] = Fraction(0)
            a[i][k] = Fraction(0)
        idx = rest
    return out


_TRIAL_DIVISION_CAP = 10 ** 6


def factor(n: int) -> dict:
    """{p: k} with |n| the product of the p^k, by trial division.

    Divides by d only below min(isqrt(cofactor), 10^6).  Every |n| <= 10^12
    is decided exactly, since a composite up to 10^12 has a prime factor
    below 10^6; a cofactor above 10^12 left undecided raises ValueError.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out = {}
    for d in range(2, _TRIAL_DIVISION_CAP):
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    if n > _TRIAL_DIVISION_CAP ** 2:
        raise ValueError(f"no factor below {_TRIAL_DIVISION_CAP} of a "
                         f"{n.bit_length()}-bit cofactor; too large to decide")
    if n > 1:
        out[n] = 1
    return out


def is_prime(n: int) -> bool:
    """Primality, exact up to 10^12; see factor for larger n."""
    return n >= 2 and factor(n) == {n: 1}


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p; 0 if p divides a."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be odd positive")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def valuation(x: int, p: int) -> int:
    """p-adic valuation of a nonzero int."""
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v
