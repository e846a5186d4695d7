"""Exact integer/rational linear algebra and elementary number theory.

Linear algebra: HNF, SNF, kernels, determinants, the reduced echelon form
mod p (modp_echelon, whose rows give the check forms of a span), the one
Lagrange diagonalisation of a symmetric form (quadratic_completion, behind
signatures) and the integral LLL reduction of a positive definite Gram
matrix (lll_reduce, behind short vectors), on tuples of tuples with int or
Fraction entries.  Number theory: capped trial-division factoring and
primality (a cofactor in (10^6, 3.3 * 10^24) is tested by deterministic
Miller-Rabin first; one above 10^12 may be a power of such a prime, found
by exact integer roots), Legendre/Jacobi symbols, square roots mod p
(Tonelli-Shanks, behind the glued search's witness graphs), the least
quadratic non-residue, and p-adic valuations of ints, the pivots of the symbol
computation in fqf, which eliminates in integers modulo p^(v_p(det)+1), or
2^(v_2(det)+3) at p = 2.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

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
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


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


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _row_hnf_in_place(rows: list, nc: int) -> None:
    """Row Hermite normal form of the first nc columns of rows, in place:
    every row operation acts on the whole row, so columns past nc (an
    identity appended by row_hnf_transform) record the transform."""
    nr = len(rows)
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
        # clear below via gcd steps
        for i in range(r + 1, nr):
            while rows[i][c] != 0:
                q = rows[r][c] // rows[i][c]
                rows[r] = [x - q * y for x, y in zip(rows[r], rows[i])]
                _swap_rows(rows, r, i)
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == nr:
            break


def row_hnf_transform(m: Mat) -> tuple[Mat, Mat]:
    """Row Hermite normal form with transform: returns (H, U) with U*m = H.

    U is unimodular.  H has positive pivots with entries above each pivot
    reduced into [0, pivot); zero rows sink to the bottom.
    """
    nc = len(m[0]) if m else 0
    rows = [list(r) + list(e) for r, e in zip(m, identity(len(m)))]
    _row_hnf_in_place(rows, nc)
    return to_mat(r[:nc] for r in rows), to_mat(r[nc:] for r in rows)


def row_hnf(m: Mat) -> Mat:
    """Nonzero rows of the row HNF of m (no transform is kept)."""
    rows = [list(r) for r in m]
    _row_hnf_in_place(rows, len(rows[0]) if rows else 0)
    return tuple(tuple(r) for r in rows if any(x != 0 for x in r))


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
    """Reduced echelon basis mod p: (rows, their pivot columns).

    Each row has 1 at its own pivot column and every other row 0 there, so a
    vector v lies in the span iff v[j] equals sum_i v[pivot_i] * row_i[j] mod p
    at every column j.  Pivots are in the order their rows were found.
    """
    basis = []
    pivots = []
    for row in rows:
        row = [x % p for x in row]
        for prow, pc in zip(basis, pivots):
            f = row[pc]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, prow)]
        nz = next((i for i, a in enumerate(row) if a), None)
        if nz is None:
            continue
        inv = pow(row[nz], -1, p)
        row = [a * inv % p for a in row]
        for i, prow in enumerate(basis):
            f = prow[nz]
            if f:
                basis[i] = [(a - f * b) % p for a, b in zip(prow, row)]
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
        # find pivot: the first nonzero of least absolute value in the
        # remaining block; a unit has the least, so the scan stops there
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
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
        # ensure pivot divides the rest of the block (a unit divides all)
        bad = None
        if best != 1:
            bad = next((i for i in range(t + 1, nr)
                        if any(a[i][j] % a[t][t] for j in range(t + 1, nc))), None)
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return to_mat(a), to_mat(u), to_mat(v)


def quadratic_completion(gram: Mat) -> tuple[list, list]:
    """Lagrange's symmetric elimination over Q (Cohen, GTM 138, §2.7).

    Returns (c, w) with norm(x) = sum_i c[i] * (x_i + sum_{j>i} w[i][j-i-1] x_j)^2;
    the c[i] are a congruent diagonal form, so their signs give the
    signature.  Only the upper triangle is read and updated.  A zero pivot
    a_ii replaces e_i by e_i + s*e_j for the first j with a_ij != 0, whose
    pivot 2s*a_ij + a_jj is nonzero for s = 1 or s = -1; w then refers to
    that changed basis.  A positive definite Gram never meets a zero pivot,
    so when every c[i] > 0, w is the completion in the given coordinates.
    Raises ValueError for a degenerate form.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    c, w = [], []
    for i in range(n):
        piv = a[i][i]
        if piv == 0:
            j = next((j for j in range(i + 1, n) if a[i][j]), None)
            if j is None:
                raise ValueError("degenerate form")
            s = 1 if 2 * a[i][j] + a[j][j] else -1
            piv = a[i][i] = 2 * s * a[i][j] + a[j][j]
            # row i for the basis vector e_i + s*e_j, each a_jt read above the diagonal
            for t in range(i + 1, n):
                a[i][t] += s * (a[t][j] if t < j else a[j][t])
        wi = [a[i][j] / piv for j in range(i + 1, n)]
        c.append(piv)
        w.append(wi)
        for r in range(i + 1, n):
            f = wi[r - i - 1]
            if f:
                for k in range(r, n):
                    a[r][k] -= f * a[i][k]
    return c, w


LLL_DELTA = (99, 100)  # the Lovasz constant delta = 99/100 as (numerator, denominator)


def lll_reduce(gram: Mat) -> tuple[list, list, list]:
    """Integral LLL reduction of a positive definite Gram matrix.

    Cohen, GTM 138, Alg. 2.6.7 (Lenstra-Lenstra-Lovasz 1982) with
    delta = 99/100, in integers only.  Returns (d, lam, h): the rows of h
    are the reduced basis in the given coordinates (h is unimodular), d[k]
    is the k-th leading minor of the reduced Gram h*gram*h^T (d[0] = 1),
    and lam[k][l] = d[l+1] * mu_kl for l < k, mu the Gram-Schmidt
    coefficients, so the k-th Gram-Schmidt norm is d[k+1] / d[k].  The
    reduced basis satisfies |2 lam[k][l]| <= d[l+1] and the Lovasz
    condition 100 d[k+1] d[k-1] >= 99 d[k]^2 - 100 lam[k][k-1]^2.

    Every division is exact: each quotient is a d or a lam of the current
    basis, and these are minors of its Gram matrix (Sylvester's identity),
    so // loses nothing.  When vector k is first met, d[k+1] is the
    (k+1)-th leading minor of the input Gram, since the vectors before it
    have only been changed unimodularly among themselves.  ValueError as
    soon as one is <= 0, which by Sylvester's criterion happens exactly for
    a Gram that is not positive definite.
    """
    num, den = LLL_DELTA
    n = len(gram)
    h = list(identity(n))  # rows are replaced, never changed in place
    d = [1] * (n + 1)
    lam = [[0] * k for k in range(n)]

    def reduce(k: int, j: int) -> None:
        # size reduction of vector k against vector j < k
        dj = d[j + 1]
        lkj = lam[k][j]
        if 2 * abs(lkj) <= dj:
            return
        q = (2 * lkj + dj) // (2 * dj)  # nearest integer to lkj / dj
        h[k] = [a - q * b for a, b in zip(h[k], h[j])]
        lam[k][j] = lkj - q * dj
        lk, lj = lam[k], lam[j]
        for i in range(j):
            lk[i] -= q * lj[i]

    def swap(k: int, kmax: int) -> None:
        h[k - 1], h[k] = h[k], h[k - 1]
        lk, lk1 = lam[k], lam[k - 1]
        lk[:k - 1], lk1[:] = lk1[:], lk[:k - 1]
        lkk = lk[k - 1]
        b = (d[k - 1] * d[k + 1] + lkk * lkk) // d[k]
        for i in range(k + 1, kmax + 1):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lkk * t) // d[k]
            li[k - 1] = (b * t + lkk * li[k]) // d[k + 1]
        d[k] = b

    kmax = -1
    k = 0
    while k < n:
        if k > kmax:
            # incremental Gram-Schmidt: vector k is still e_k of the input
            kmax = k
            col = [row[k] for row in gram]
            for j in range(k + 1):
                u = sum(a * b for a, b in zip(h[j], col) if a)
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    raise ValueError("positive definite Gram required")
                else:
                    d[k + 1] = u
        if k == 0:
            k = 1
            continue
        reduce(k, k - 1)
        lkk = lam[k][k - 1]
        if den * d[k + 1] * d[k - 1] < num * d[k] * d[k] - den * lkk * lkk:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
    return d, lam, h


_TRIAL_DIVISION_CAP = 10 ** 6
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to all of _MILLER_RABIN_BASES (Sorenson and
# Webster 2015): below it, those bases decide primality exactly.
_MILLER_RABIN_BOUND = 3317044064679887385961981


def _large_prime(n: int) -> bool:
    """Is n a prime with 10^6 < n < _MILLER_RABIN_BOUND (about 3.3 * 10^24)?
    Deterministic Miller-Rabin to the first 13 prime bases."""
    if not _TRIAL_DIVISION_CAP < n < _MILLER_RABIN_BOUND:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1, by integer Newton steps from
    above."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple:
    """(r, k) with r^k = n and k as large as possible, for n >= 2; k = 1
    when n is no perfect power."""
    for k in range(n.bit_length(), 1, -1):
        r = iroot(n, k)
        if r > 1 and r ** k == n:
            return r, k
    return n, 1


def factor(n: int) -> dict:
    """{p: k} with |n| the product of the p^k, by trial division.

    Divides by d only below min(isqrt(cofactor), 10^6), and stops once the
    cofactor is a prime below _MILLER_RABIN_BOUND (about 3.3 * 10^24),
    proven by _large_prime, at the start and after each prime divided out.
    A cofactor above 10^12 that is not such a prime is decided when it is
    the k-th power of one; any other is left undecided and raises
    ValueError.  So every |n| <= 10^12 is decided exactly, since a
    composite up to 10^12 has a prime factor below 10^6, and so is every
    n whose part free of primes below 10^6 is a power of a prime below
    3.3 * 10^24.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out = {}
    if not _large_prime(n):
        for d in range(2, _TRIAL_DIVISION_CAP):
            if d * d > n:
                break
            if n % d == 0:
                while n % d == 0:
                    out[d] = out.get(d, 0) + 1
                    n //= d
                if _large_prime(n):
                    break
    k = 1
    if n > _TRIAL_DIVISION_CAP ** 2 and not _large_prime(n):
        root, k = _perfect_power(n)
        if not _large_prime(root):
            raise ValueError(f"no factor below {_TRIAL_DIVISION_CAP} of a "
                             f"{n.bit_length()}-bit cofactor; too large to decide")
        n = root
    if n > 1:
        out[n] = k
    return out


def is_prime(n: int) -> bool:
    """Primality, exact up to 10^12 and for every n below about 3.3 * 10^24
    (see factor); a larger n raises ValueError unless a factor below 10^6
    shows it composite."""
    return n >= 2 and factor(n) == {n: 1}


def require_odd_prime(p: int) -> None:
    """ValueError unless p is an odd prime."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p; 0 if p divides a."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo the odd prime p, by Tonelli-Shanks;
    ArithmeticError when a is not a square mod p."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise ArithmeticError(f"{a} is not a square mod {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    c, t, root = pow(least_nonresidue(p), q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, root = i, b * b % p, t * b * b % p, root * b % p
    return root


def least_nonresidue(p: int) -> int:
    """The least quadratic non-residue modulo the odd prime p."""
    return next(n for n in range(2, p) if legendre(n, p) == -1)


def valuation(x: int, p: int) -> int:
    """p-adic valuation of a nonzero int."""
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v
