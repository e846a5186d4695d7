"""Finite quadratic forms as multisets of prime-power Jordan components.

A component at an odd prime p is (p^k)^(eps*r).  A component at p = 2 is
either odd type (2^k)_t^(eps*r) with an oddity t mod 8, or even type
(2^k)_II^(eps*r).  Forms are computed from integer Gram matrices by p-adic
Gauss elimination in integers modulo p^(v_p(det)+1), or 2^(v_2(det)+3) at
p = 2, which fixes the Jordan decomposition with its units.  Two forms are
equal exactly when they are isomorphic: equality compares the odd-prime
components, which are canonical as they stand, and the Conway-Sloane
canonical symbol of the 2-part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import _exact as ex
from .intlat import IntegralLattice

TWO_EVEN = None  # oddity marker for even-type 2-adic components


@dataclass(frozen=True, slots=True)
class JordanComponent:
    prime: int
    scale: int
    rank: int
    sign: int
    oddity: int | None = None
    # hashed once, from ints only (an oddity is reduced mod 8, so 8 marks
    # even type): hash(None) differs between processes, and a pickle
    # carries this value into the process that loads it.  Slots, since a
    # sixth attribute would give each instance a __dict__ of its own
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scale < 1 or self.rank < 1:
            raise ValueError("scale and rank must be positive")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.prime == 2:
            if self.oddity is None:
                if self.rank % 2 != 0:
                    raise ValueError("even-type 2-adic component needs even rank")
            else:
                object.__setattr__(self, "oddity", self.oddity % 8)
                if _two_adic_units(self.rank, self.sign, self.oddity) is None:
                    raise ValueError(
                        f"no odd 2-adic component with rank {self.rank}, "
                        f"sign {self.sign:+d}, oddity {self.oddity}"
                    )
        else:
            if self.oddity is not None:
                raise ValueError("oddity only applies at the prime 2")
        object.__setattr__(self, "_hash", hash((
            self.prime, self.scale, self.rank, self.sign,
            8 if self.oddity is None else self.oddity)))

    def __hash__(self):
        return self._hash

    @property
    def is_even_type(self) -> bool:
        return self.prime == 2 and self.oddity is None

    def group_order(self) -> int:
        return self.prime ** (self.scale * self.rank)


class FiniteQuadraticForm:
    """Ordered collection of Jordan components, one per (prime, scale).

    `components` keeps the data as constructed (and rendered); `==` and
    `hash` use the canonical key, computed on first use, so they mean
    isomorphism.
    """

    __slots__ = ("components", "_key")

    def __init__(self, components=()):
        comps = tuple(sorted(components, key=lambda c: (c.prime, c.scale)))
        keys = [(c.prime, c.scale) for c in comps]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (prime, scale) components; use direct_sum")
        self.components = comps
        self._key = None

    def canonical_key(self) -> tuple:
        if self._key is None:
            self._key = (tuple(c for c in self.components if c.prime != 2),
                         _two_adic_key([c for c in self.components if c.prime == 2]))
        return self._key

    def __eq__(self, other):
        return (isinstance(other, FiniteQuadraticForm)
                and self.canonical_key() == other.canonical_key())

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"FiniteQuadraticForm({render_symbol(self)!r})"

    def is_trivial(self) -> bool:
        return not self.components

    def primes(self) -> tuple:
        return tuple(sorted({c.prime for c in self.components}))

    def p_part(self, p: int) -> "FiniteQuadraticForm":
        return _from_sorted(tuple(c for c in self.components if c.prime == p))

    def away_part(self, p: int) -> "FiniteQuadraticForm":
        return _from_sorted(tuple(c for c in self.components if c.prime != p))

    def group_order(self) -> int:
        return math.prod(c.group_order() for c in self.components)

    def ell_p(self, p: int) -> int:
        return sum(c.rank for c in self.components if c.prime == p)

    def ranks(self) -> dict:
        """prime -> ell_p, read in one pass over the components."""
        out: dict[int, int] = {}
        for c in self.components:
            out[c.prime] = out.get(c.prime, 0) + c.rank
        return out

    def ell(self) -> int:
        return max(self.ranks().values(), default=0)


def _from_sorted(comps: tuple) -> FiniteQuadraticForm:
    """The form with these components, sorted by (prime, scale) with each
    key once, as those of the forms this module derives from other forms
    are: __init__'s sort and duplicate check are skipped.  Outside input
    goes through __init__."""
    q = FiniteQuadraticForm.__new__(FiniteQuadraticForm)
    q.components = comps
    q._key = None
    return q


def render_symbol(q: FiniteQuadraticForm) -> str:
    """Render in the symbol grammar; the empty form renders as "1"."""
    if q.is_trivial():
        return "1"
    parts = []
    for c in q.components:
        head = str(c.prime ** c.scale)
        sign = "+" if c.sign == 1 else "-"
        if c.prime == 2:
            t = "II" if c.oddity is None else str(c.oddity)
            parts.append(f"{head}_{t}^{sign}{c.rank}")
        else:
            parts.append(f"{head}^{sign}{c.rank}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# unit realizations


@lru_cache(maxsize=1024)
def _two_adic_units(rank: int, sign: int, oddity: int):
    """Odd residues mod 8 with the given count, trace and determinant class.

    Only the last min(rank, 3) residues are returned: the rank - 3 before
    them are 1s, counted but never listed, so the search is O(1) in the
    rank.  Returns None when no such tuple exists (invalid component data).
    Memoised: every odd 2-adic component built calls it.
    """
    if (oddity - rank) % 2 != 0:
        return None
    free = min(rank, 3)
    for tail in product((1, 3, 5, 7), repeat=free):
        if ((rank - free + sum(tail)) % 8 == oddity % 8
                and (1 if math.prod(tail) % 8 in (1, 7) else -1) == sign):
            return tail
    return None


def _odd_unit_numerators(p: int, rank: int, sign: int) -> tuple:
    """Even integers c_i, prime to p, with product Legendre class == sign."""
    chi2 = ex.legendre(2, p)
    last = 2 if chi2 == sign * chi2 ** (rank - 1) else 2 * ex.least_nonresidue(p)
    return (2,) * (rank - 1) + (last,)


def _two_blocks(comp: JordanComponent):
    """Decompose a 2-adic component into 1-dim unit blocks and U/V blocks."""
    k = comp.scale
    if comp.is_even_type:
        b = 1 if comp.sign == -1 else 0
        a = comp.rank // 2 - b
        return [("U", k)] * a + [("V", k)] * b
    tail = _two_adic_units(comp.rank, comp.sign, comp.oddity)
    return [("unit", k, u) for u in (1,) * (comp.rank - len(tail)) + tail]


def _block_values(block) -> list:
    """q-values (Fractions mod 2) over all elements of one block group."""
    kind = block[0]
    m = 1 << block[1]
    if kind == "unit":
        u = block[2]
        return [Fraction(u * x * x, m) % 2 for x in range(m)]
    out = []
    for x in range(m):
        for y in range(m):
            if kind == "U":
                v = Fraction(2 * x * y, m)
            else:
                v = Fraction(2 * x * x + 2 * x * y + 2 * y * y, m)
            out.append(v % 2)
    return out


def _two_adic_key(comps) -> tuple:
    """Conway-Sloane canonical symbol of a 2-part (SPLAG ch. 15, 7.5-7.6).

    comps are the 2-adic components in increasing scale.  A discriminant
    form fixes its 2-adic lattice only up to an even unimodular summand, so
    the symbol is headed by a phantom even scale-2^0 component of free sign.
    Oddity fusion keeps one total oddity per compartment (a run of odd-type
    components of consecutive scales).  Sign walking moves every sign of a
    train to its head; a step joins neighbours 2^a < 2^b when b = a + 1 and
    one of them is odd, or b = a + 2 and both are odd, and adds 4 to the
    oddity of each compartment the step touches.  The phantom's sign is
    dropped, so equal keys mean isomorphic forms.
    """
    scales = [0] + [c.scale for c in comps]
    odd = [False] + [c.oddity is not None for c in comps]
    signs = [1] + [c.sign for c in comps]
    compartment = [None] * len(scales)
    oddities = []
    for i in range(1, len(scales)):
        if not odd[i]:
            continue
        if odd[i - 1] and scales[i - 1] == scales[i] - 1:
            compartment[i] = compartment[i - 1]
            oddities[-1] += comps[i - 1].oddity
        else:
            compartment[i] = len(oddities)
            oddities.append(comps[i - 1].oddity)
    for i in range(len(scales) - 1, 0, -1):
        gap = scales[i] - scales[i - 1]
        if signs[i] == -1 and (gap == 1 and (odd[i] or odd[i - 1])
                               or gap == 2 and odd[i] and odd[i - 1]):
            signs[i] = 1
            signs[i - 1] = -signs[i - 1]
            for j in {compartment[i], compartment[i - 1]} - {None}:
                oddities[j] += 4
    return (tuple((c.scale, c.rank, s, c.oddity is None) for c, s in zip(comps, signs[1:])),
            tuple(t % 8 for t in oddities))


# ---------------------------------------------------------------------------
# symbol computation (p-adic Jordan decomposition by integer elimination)


def _jordan(gram, p: int, k: int) -> dict:
    """scale -> (units, evens) of a p-adic Jordan decomposition of gram.

    units are the unit parts of the 1x1 pivots, mod p (mod 8 at p = 2);
    evens are the even 2x2 blocks "U" / "V" at p = 2.  k = v_p(det gram).
    The elimination runs in integers mod p^N, N = k + 1 (k + 3 at p = 2),
    which fixes the decomposition with its units.  Each pivot is the first
    entry of least valuation in the upper triangle (the scan stops at the
    first unit), replaced by the first diagonal entry of that valuation if
    there is one.  With none, at odd p
    row and column j are added to i; at p = 2 the entries (i, j) span an
    even block.  Eliminating a pivot block B of valuation v multiplies by
    adj(B) / det(B): every entry it meets is divisible by p^v, so dividing
    exactly by p^v (p^2v for a 2x2 block) keeps the precision at N.
    """
    mod = p ** (k + (3 if p == 2 else 1))
    a = [[x % mod for x in row] for row in gram]
    idx = list(range(len(a)))
    found: dict[int, tuple] = {}
    while idx:
        best = where = None
        for pos, i in enumerate(idx):
            for j in idx[pos:]:
                x = a[i][j]
                if x:
                    v = ex.valuation(x, p) if x % p == 0 else 0
                    if best is None or v < best:
                        best, where = v, (i, j)
                        if v == 0:  # a unit: no entry has lower valuation
                            break
            if best == 0:
                break
        i, j = where
        pv = p ** best
        units, evens = found.setdefault(best, ([], []))
        piv = next((t for t in idx if a[t][t] and ex.valuation(a[t][t], p) == best), None)
        if piv is None and p != 2:
            for t in idx:
                a[i][t] = (a[i][t] + a[j][t]) % mod
            for t in idx:
                a[t][i] = (a[t][i] + a[t][j]) % mod
            piv = i
        if piv is not None:
            block, div = (piv,), pv
            u = a[piv][piv] // pv
            units.append(u % (8 if p == 2 else p))
            adj = ((pow(u, -1, mod),),)
        else:
            block, div = (i, j), pv * pv
            d = (a[i][i] * a[j][j] - a[i][j] * a[i][j]) // div
            evens.append("U" if d % 8 == 7 else "V")
            d = pow(d, -1, mod)
            adj = ((a[j][j] * d, -a[i][j] * d), (-a[i][j] * d, a[i][i] * d))
        idx = [t for t in idx if t not in block]
        rows = [a[b] for b in block]
        coeffs = [[sum(c * r[t] for c, r in zip(col, rows)) // div % mod for col in adj]
                  for t in idx]
        for t, lam in zip(idx, coeffs):
            row = a[t]
            for c, r in zip(lam, rows):
                for s in idx:
                    row[s] -= c * r[s]
            for s in idx:
                row[s] %= mod
    # fuse mixed scales at p = 2: an even block next to an odd unit diagonalizes
    for units, evens in found.values():
        while evens and units:
            kind = evens.pop()
            u = units.pop()
            if kind == "U":
                units.extend([u, (-u) % 8, u])
            else:
                inv_u2 = pow((u + 2) % 8, -1, 8)
                t2 = (2 * u + 3) * inv_u2 % 8
                t3 = 3 * u * pow((2 * u + 3) % 8, -1, 8) % 8
                units.extend([(u + 2) % 8, t2, t3])
    return found


def symbol_of(lat: IntegralLattice, primes=None) -> FiniteQuadraticForm:
    """Conway-Sloane symbol of an even lattice (empty for unimodular).

    With `primes`, only the components at those primes: the p-parts of the
    full symbol, without factoring the determinant or eliminating at any
    other prime.
    """
    det = abs(lat.det)
    if primes is None:
        exponents = ex.factor(det)
    else:
        exponents = {p: ex.valuation(det, p) for p in primes if det % p == 0}
    comps = []
    for p, k in sorted(exponents.items()):
        for v, (units, evens) in sorted(_jordan(lat.gram, p, k).items()):
            if v == 0:
                continue
            if p != 2:
                sign = ex.legendre(math.prod(units), p)
                comps.append(JordanComponent(p, v, len(units), sign))
            elif units:
                sign = 1 if math.prod(units) % 8 in (1, 7) else -1
                comps.append(JordanComponent(2, v, len(units), sign, sum(units) % 8))
            else:
                sign = -1 if evens.count("V") % 2 else 1
                comps.append(JordanComponent(2, v, 2 * len(evens), sign, TWO_EVEN))
    return FiniteQuadraticForm(comps)


# ---------------------------------------------------------------------------
# arithmetic on forms


def direct_sum(q1: FiniteQuadraticForm, q2: FiniteQuadraticForm) -> FiniteQuadraticForm:
    """q1 + q2 by one merge of the two sorted component tuples; the two
    components of a shared (prime, scale) join into a new, checked one."""
    a, b = q1.components, q2.components
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        if x.prime == y.prime and x.scale == y.scale:
            out.append(_joined(x, y))
            i += 1
            j += 1
        elif x.prime < y.prime or x.prime == y.prime and x.scale < y.scale:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    return _from_sorted((*out, *a[i:], *b[j:]))


def _joined(x: JordanComponent, y: JordanComponent) -> JordanComponent:
    """The component x + y of one (prime, scale): ranks add, signs multiply,
    and at 2 the oddities add (an even-type part adds 0), unless both are even."""
    rank, sign = x.rank + y.rank, x.sign * y.sign
    if x.prime != 2:
        return JordanComponent(x.prime, x.scale, rank, sign)
    if x.oddity is None and y.oddity is None:
        return JordanComponent(2, x.scale, rank, sign, TWO_EVEN)
    return JordanComponent(2, x.scale, rank, sign, ((x.oddity or 0) + (y.oddity or 0)) % 8)


def negate(q: FiniteQuadraticForm) -> FiniteQuadraticForm:
    out = []
    for c in q.components:
        if c.prime == 2:
            t = None if c.oddity is None else (-c.oddity) % 8
            out.append(JordanComponent(2, c.scale, c.rank, c.sign, t))
        else:
            sign = c.sign * ex.legendre(-1, c.prime) ** c.rank
            out.append(JordanComponent(c.prime, c.scale, c.rank, sign))
    return _from_sorted(tuple(out))


@lru_cache(maxsize=4096)
def _tau_odd_rank1(p: int, k: int, cls: int) -> int:
    """Signature mod 8 of a rank-1 component (p^k)^cls at odd p.

    Memoised, with room for both classes at each of the 1,229 primes below
    10^4, which a table run visits once per row."""
    u = 1 if cls == 1 else ex.least_nonresidue(p)
    pk = p ** k
    a = u * (pk + 1) // 2
    tau = 0 if pk % 4 == 1 else 2
    if k % 2 == 1 and ex.legendre(a, p) == -1:
        tau += 4
    return tau % 8


def signature_mod8(q: FiniteQuadraticForm) -> int:
    """tau(q): the signature of any even lattice with this form, mod 8."""
    total = 0
    for c in q.components:
        if c.prime == 2:
            t = 0 if c.oddity is None else c.oddity
            total += t + (4 if (c.scale % 2 == 1 and c.sign == -1) else 0)
        else:
            plus = _tau_odd_rank1(c.prime, c.scale, 1)
            if c.sign == 1:
                total += c.rank * plus
            else:
                total += (c.rank - 1) * plus + _tau_odd_rank1(c.prime, c.scale, -1)
    return total % 8


def _component_value_table(comp: JordanComponent) -> list:
    """q-values over all elements of the component's group (test-scale only)."""
    p, k, r = comp.prime, comp.scale, comp.rank
    if p == 2:
        tables = [_block_values(b) for b in _two_blocks(comp)]
    else:
        pk = p ** k
        cs = _odd_unit_numerators(p, r, comp.sign)
        tables = [[Fraction(c * x * x, pk) % 2 for x in range(pk)] for c in cs]
    values = [Fraction(0)]
    for t in tables:
        values = [(a + b) % 2 for a in values for b in t]
    return values


def brute_force_tau(q: FiniteQuadraticForm, limit: int = 10 ** 5) -> int:
    """tau(q) via the explicit Gauss sum over all group elements.

    Test oracle: the only floating-point computation in the package.
    """
    import cmath

    order = q.group_order()
    if order > limit:
        raise ValueError(f"group too large for brute force ({order} > {limit})")
    acc = [Fraction(0)]
    for comp in q.components:
        table = _component_value_table(comp)
        acc = [(a + b) % 2 for a in acc for b in table]
    s = sum(cmath.exp(1j * cmath.pi * float(v)) for v in acc)
    root = math.sqrt(order)
    for tau in range(8):
        if abs(s - root * cmath.exp(2j * cmath.pi * tau / 8)) < 1e-6 * root:
            return tau
    raise ArithmeticError("Gauss sum does not line up with any signature class")


def isomorphic(q1: FiniteQuadraticForm, q2: FiniteQuadraticForm) -> bool:
    """Are the two forms isomorphic as finite quadratic forms?"""
    return q1 == q2


# ---------------------------------------------------------------------------
# lattice realization of p-parts, overlattices


def _realize_p_part(q: FiniteQuadraticForm, p: int):
    """Diagonal entries of an even lattice whose symbol has the given odd-p part.

    Returns (diag, moduli, coeffs): generator i of the discriminant p-part
    has order moduli[i] and q-value coeffs[i]/moduli[i] mod 2, and the
    lattice's Gram matrix is diagonal with entries diag.
    """
    if p == 2:
        raise ValueError("only odd p is realized diagonally")
    diag, moduli, coeffs = [], [], []
    for c in q.components:
        if c.prime != p:
            continue
        pk = p ** c.scale
        for cu in _odd_unit_numerators(p, c.rank, c.sign):
            diag.append(cu * pk)
            moduli.append(pk)
            coeffs.append(cu)
    return tuple(diag), tuple(moduli), tuple(coeffs)


def _value_weights(moduli, coeffs, n: int) -> tuple:
    """c_i * (n / m_i): with n a multiple of every modulus, q(x) is
    sum w_i x_i^2 / n mod 2 and b(x, y) is sum w_i x_i y_i / n mod 1."""
    return tuple(c * (n // m) for m, c in zip(moduli, coeffs))


def _qnum(weights, elem) -> int:
    """Numerator of q(elem) over n, mod 2n (n as in _value_weights)."""
    return sum(w * x * x for w, x in zip(weights, elem))


def _bnum(weights, x, y) -> int:
    """Numerator of b(x, y) over n, before reduction mod n."""
    return sum(w * a * b for w, a, b in zip(weights, x, y))


def _elem_add(moduli, a, b):
    return tuple((x + y) % m for m, x, y in zip(moduli, a, b))


ENUMERATION_CAP = 500000  # subgroups, elements or extensions one search may list


def _isotropic_subgroups(moduli, coeffs, max_order):
    """The nontrivial isotropic subgroups H of order <= max_order of the
    p-group with the given moduli and q-value numerators, grown breadth first
    by its isotropic elements; yields (|H|, gens).

    H = <g_1, ..., g_k> is isotropic iff every q(g_i) = 0 and every
    b(g_i, g_j) = 0, since q(sum a_i g_i) = sum a_i^2 q(g_i)
    + 2 sum_{i<j} a_i a_j b(g_i, g_j) mod 2; so no span is built to decide
    it.  A group of more than ENUMERATION_CAP elements is refused, and so is
    a walk that tries more than ENUMERATION_CAP extensions.  Once <H, g> is
    built, every x with <H, x> = <H, g> is skipped: <H, g>/H is cyclic of
    order k, so these are the x = e + t g with e in H and t prime to k.
    """
    n = math.lcm(*moduli)
    weights = _value_weights(moduli, coeffs, n)
    if math.prod(moduli) > ENUMERATION_CAP:
        raise ex.LimitExceeded("group order exceeds the enumeration cap")
    elements = [e for e in product(*map(range, moduli))
                if _qnum(weights, e) % (2 * n) == 0]
    zero = tuple(0 for _ in moduli)
    trivial = frozenset([zero])
    seen = {trivial}
    frontier = [(trivial, [])]
    tries = 0
    while frontier:
        nxt = []
        for elems, gens in frontier:
            built = set()  # the x whose <H, x> is a child of H built already
            for g in elements:
                if g in elems:
                    continue
                tries += 1
                if tries > ENUMERATION_CAP:
                    raise ex.LimitExceeded("subgroup extension cap exceeded")
                if g in built or any(_bnum(weights, g, h) % n for h in gens):
                    continue
                # <H, g> is the union of the cosets H + t g, 0 <= t < k = [<H, g> : H]
                shifts, x = [zero], g
                while x not in elems:
                    shifts.append(x)
                    x = _elem_add(moduli, x, g)
                k = len(shifts)
                if len(elems) * k > max_order:
                    continue
                cosets = [[_elem_add(moduli, e, s) for e in elems] for s in shifts]
                built.update(*(c for t, c in enumerate(cosets) if math.gcd(t, k) == 1))
                new = frozenset().union(*cosets)
                if new in seen:
                    continue
                seen.add(new)
                nxt.append((new, gens + [g]))
                yield len(new), gens + [g]
        frontier = nxt


def _eta(p: int, m: int, e: int) -> int:
    """+1 when the space of even dimension m and discriminant class e over
    F_p is split (a sum of hyperbolic planes), else -1."""
    return 1 if e == ex.legendre(-1, p) ** (m // 2) else -1


def _singular_count(p: int, m: int, e: int) -> int:
    """Vectors x with q(x) = 0, zero included, of the nondegenerate space of
    dimension m >= 0 and discriminant class e over F_p."""
    if m % 2:
        return p ** (m - 1)
    if m == 0:
        return 1
    return p ** (m - 1) + _eta(p, m, e) * (p ** (m // 2) - p ** (m // 2 - 1))


def _orthogonal_order(p: int, n: int, e: int) -> int:
    """|O(n, e)|, the isometries of the nondegenerate space of dimension n
    and discriminant class e over F_p (Artin 1957, ch. III)."""
    if n == 0:
        return 1
    m = n // 2
    if n % 2:
        return 2 * p ** (m * m) * math.prod(p ** (2 * i) - 1 for i in range(1, m + 1))
    return (2 * p ** (m * (m - 1)) * (p ** m - _eta(p, n, e))
            * math.prod(p ** (2 * i) - 1 for i in range(1, m)))


def _embeddings(p: int, n: int, d: int, j: int, w: int, e: int) -> int:
    """Isometric injections of a space of type (n, d, j), a nondegenerate
    part of dimension n and class d beside a radical of dimension j, into the
    nondegenerate space of type (w, e): those of the nondegenerate part, then
    ordered bases of a totally singular j-space in its complement."""
    c, ce = w - n, e * d
    if c < max(0, 2 * j) or (c, ce) == (0, -1):
        return 0
    count = _orthogonal_order(p, w, e) // _orthogonal_order(p, c, ce)
    chi = ex.legendre(-1, p)
    for t in range(j):
        count *= p ** t * (_singular_count(p, c - 2 * t, ce * chi ** t) - 1)
    return count


def _subspaces(p: int, n: int, d: int, j: int, w: int, e: int) -> int:
    """Sub(tau, V), the subspaces of type tau = (n, d, j) in the
    nondegenerate space of type (w, e): the injections over the isometries
    of tau, which act on those with one image as one orbit (README)."""
    return _embeddings(p, n, d, j, w, e) // (_orthogonal_order(p, n, d) * p ** (n * j)
                                             * math.prod(p ** j - p ** t for t in range(j)))


def _graph_terms(p: int, k: int, v: tuple, w: tuple, r: int):
    """(term, (n, d, j, i)) over the types (n, d, j) of U, n + j = k, and the
    dimension i of the part of U's radical that goes to R: the subspaces of
    V of that type times the isometric injections into W_0 + R that send
    exactly an i-dimensional part of the radical into R (README).  V and
    W_0 are nondegenerate of type v and w; R is a radical of dimension r."""
    for j in range(k + 1):
        n = k - j
        for d in (1, -1) if n else (1,):
            subs = _subspaces(p, n, d, j, *v)
            for i in range(min(j, r) + 1) if subs else ():
                kernels = math.prod(p ** (j - t) - 1 for t in range(i)) // math.prod(
                    p ** (t + 1) - 1 for t in range(i))
                to_r = p ** (r * (k - i)) * math.prod(p ** r - p ** t for t in range(i))
                yield subs * kernels * _embeddings(p, n, d, j - i, *w) * to_r, (n, d, j, i)


def _orthogonal_vectors(p: int, norms, targets) -> list:
    """Pairwise orthogonal vectors with the norms in targets, in the F_p
    space whose standard basis is orthogonal with the given norms.  The
    orthogonal basis of the complement is kept.  A target a is y1^2 c1 on
    its last vector f1 when a / c1 is a square; otherwise it is written as
    c1 y1^2 + c2 y2^2 on two of its vectors f1, f2, which give way to
    -c2 y2 f1 + c1 y1 f2, of norm c1 c2 a.  By Witt's theorem this never
    dead-ends when the targets span a space that embeds; a dead end is an
    internal error (sqrt_mod's ArithmeticError)."""
    dim = len(norms)
    rest = [([int(i == j) for i in range(dim)], c % p) for j, c in enumerate(norms)]
    out = []
    for a in targets:
        f1, c1 = rest.pop()
        if not rest or ex.legendre(a * c1, p) == 1:
            y1 = ex.sqrt_mod(a * pow(c1, -1, p), p)
            out.append([y1 * x % p for x in f1])
            continue
        f2, c2 = rest.pop()
        inv = pow(c2, -1, p)
        y1 = next(y for y in range(p) if ex.legendre((a - c1 * y * y) * inv, p) >= 0)
        y2 = ex.sqrt_mod((a - c1 * y1 * y1) * inv, p)
        out.append([(y1 * x + y2 * z) % p for x, z in zip(f1, f2)])
        rest.append(([(c1 * y1 * z - c2 * y2 * x) % p for x, z in zip(f1, f2)],
                     c1 * c2 * a % p))
    return out


def _graph_witness(p, mod_s, coef_s, coef_d, n, d, j, i) -> list:
    """Generators, in the coordinates of A_S + A_D, of the graph of one
    isometric injection psi of a U of type (n, d, j) into A_S[p] = W_0 + R
    that sends i of U's radical vectors into R.  U is spanned in V by
    orthogonal vectors of norms 1, ..., 1, d' and the sums e + f of pairs of
    norms 1, -1, each sum a radical vector; W_0 gets the same norms with
    j - i pairs, and the last i radical vectors go to distinct generators
    of R."""
    diag = [1] * (n - 1) + [1 if d == 1 else ex.least_nonresidue(p)] if n else []
    w = mod_s.count(p)  # W_0 holds the leading coordinates, as the moduli ascend

    def basis(vectors):
        pairs = zip(vectors[n::2], vectors[n + 1::2])
        return vectors[:n] + [[(x + y) % p for x, y in zip(e, f)] for e, f in pairs]

    images = [v + [0] * (len(mod_s) - w)
              for v in basis(_orthogonal_vectors(p, coef_s[:w], diag + [1, -1] * (j - i)))]
    images += [[m // p if c == t else 0 for c, m in enumerate(mod_s)] for t in range(w, w + i)]
    u = basis(_orthogonal_vectors(p, [-c for c in coef_d], diag + [1, -1] * j))
    return [tuple(s) + tuple(g) for s, g in zip(images, u)]


def _overlattice_gram(basis, diag, scale: int):
    """Gram matrix of the lattice spanned by the rows of basis / scale, in the
    lattice with diagonal Gram matrix diag(diag).

    Built as one integer product (basis * diag) * basis^T, each entry then
    divided exactly by scale^2; raises ArithmeticError when one does not
    divide, i.e. when the span is not integral.
    """
    scaled = tuple(tuple(x * d for x, d in zip(row, diag)) for row in basis)
    prod = ex.mat_mul(scaled, ex.transpose(basis))
    s2 = scale * scale
    if any(x % s2 for row in prod for x in row):
        raise ArithmeticError("overlattice Gram not integral")
    return tuple(tuple(x // s2 for x in row) for row in prod)


def overlattice_candidates(q: FiniteQuadraticForm, p: int, max_order: int,
                           q_d: FiniteQuadraticForm | None = None):
    """(|H|, form on H-perp/H, count) for the isotropic H of order <=
    max_order in the p-part, the trivial H first as (1, q, 1); with
    max_order < p it is the only item, and it comes before any search is
    set up.

    Without q_d, on an elementary p-part of type (n, e) each order p^k is
    one item, ascending, up to the first without an H: count is the number
    of totally singular k-subspaces, and the form is q minus k hyperbolic
    planes (README).  Any other p-part is walked breadth first, one item
    per H with count 1; a walk past ENUMERATION_CAP raises LimitExceeded
    (see _isotropic_subgroups).  With q_d, the glued search: H meets neither
    A_q nor A_{q_d} (whose p-part must have scale 1, or ValueError), the
    forms are induced from q + q_d, and |H| fixes the form (README).  Each
    order is one item, ascending: count is the number of H of that order,
    summed over the isometry types of U in closed form (_graph_terms), and
    the form comes from one witness graph built for the first type that
    has one (_graph_witness).  It stops at the first order without an H.
    Neither per-order search walks anything, so neither has a cap.
    """
    if p == 2:
        raise ValueError("only odd p is supported")
    q_s = q
    if q_d is not None:
        if any(c.prime == p and c.scale != 1 for c in q_d.components):
            raise ValueError(f"the D block must have scale 1 at p = {p}")
        q = direct_sum(q, q_d)
    yield 1, q, 1
    p_part = [c for c in q_s.components if c.prime == p]
    if max_order < p or not p_part:
        return
    away = q.away_part(p)
    if q_d is None and len(p_part) == 1 and p_part[0].scale == 1:
        n, e = p_part[0].rank, p_part[0].sign
        for k in range(1, n // 2 + 1):
            count = _subspaces(p, 0, 1, k, n, e)
            if p ** k > max_order or not count:
                return
            sign = e * ex.legendre(-1, p) ** k
            rest = [JordanComponent(p, 1, n - 2 * k, sign)] if n > 2 * k else []
            yield p ** k, direct_sum(away, FiniteQuadraticForm(rest)), count
        return
    diag, mod_s, coef_s = _realize_p_part(q_s, p)
    moduli = mod_s
    if q_d is not None:
        diag_d, mod_d, coef_d = _realize_p_part(q_d, p)
        diag, moduli = diag + diag_d, mod_s + mod_d
    scale = math.lcm(*moduli)
    scaled_lattice = [tuple(scale if i == j else 0 for j in range(len(moduli)))
                      for i in range(len(moduli))]

    def induced_form(gens):
        rows = scaled_lattice + [tuple(x * (scale // m) for x, m in zip(g, moduli))
                                 for g in gens]
        basis = ex.row_hnf(ex.to_mat(rows))
        over = IntegralLattice(_overlattice_gram(basis, diag, scale))
        return direct_sum(away, symbol_of(over, (p,)))

    if q_d is None:
        for order, gens in _isotropic_subgroups(mod_s, coef_s, max_order):
            yield order, induced_form(gens), 1
        return
    w_norms = [c for m, c in zip(mod_s, coef_s) if m == p]
    v = len(coef_d), ex.legendre(math.prod(-c for c in coef_d), p)
    w = len(w_norms), ex.legendre(math.prod(w_norms), p)
    for k in range(1, v[0] + 1):
        if p ** k > max_order:
            return
        terms = list(_graph_terms(p, k, v, w, len(mod_s) - w[0]))
        count = sum(t for t, _ in terms)
        if not count:
            return
        tau = next(tau for t, tau in terms if t)
        yield p ** k, induced_form(_graph_witness(p, mod_s, coef_s, coef_d, *tau)), count


def overlattice_forms(q: FiniteQuadraticForm, p: int, max_order: int,
                      q_d: FiniteQuadraticForm | None = None) -> list:
    """Forms from overlattice_candidates, one per isomorphism class, in the
    order first seen."""
    return list(dict.fromkeys(
        item[1] for item in overlattice_candidates(q, p, max_order, q_d)))


# ---------------------------------------------------------------------------
# Nikulin existence


def _det_unit_class_two(comps: tuple) -> int:
    """Determinant unit class mod 8 of the canonical realization of the
    2-part with these components, read off the block counts of _two_blocks:
    a unit block contributes its unit, U a factor 7 and V a factor 3, so no
    block is listed."""
    prod = 1
    for c in comps:
        if c.is_even_type:
            b = 1 if c.sign == -1 else 0
            prod *= pow(7, c.rank // 2 - b, 8) * pow(3, b, 8)
        else:
            prod *= math.prod(_two_adic_units(c.rank, c.sign, c.oddity))
    return prod % 8


def nikulin_exists(sig_plus: int, sig_minus: int, q: FiniteQuadraticForm) -> bool:
    """Does an even lattice with signature (sig_plus, sig_minus) and form q
    exist?  Nikulin 1980, Thm 1.10.1: the signature class, the rank bound
    n >= ell_p at every p, and det_rule_holds at each p with ell_p = n."""
    if sig_plus < 0 or sig_minus < 0:
        return False
    n = sig_plus + sig_minus
    if n == 0:
        return q.is_trivial()
    if signature_mod8(q) != (sig_plus - sig_minus) % 8:
        return False
    ranks = q.ranks()
    if n < max(ranks.values(), default=0):
        return False
    return all(det_rule_holds(q, sig_minus, p) for p, ell in ranks.items() if ell == n)


def det_rule_holds(q: FiniteQuadraticForm, sig_minus: int, p: int) -> bool:
    """Nikulin's determinant rule at a prime p with ell_p = n: the p-free
    part of (-1)^sig_minus |A_q| has the square class of det K(q_p), the
    p-adic lattice of rank ell_p realizing q's p-part (at odd p a Legendre
    symbol against the product of the signs, at 2 a unit mod 8).  K(q_2) is
    unique (Thm 1.9.1) unless q_2 has an odd component of scale 2^1, where
    the rule is skipped, so _det_unit_class_two gives its one class.  The
    other primes enter only through that square class, so a summand whose
    order is a square prime to p (and to 2) leaves the rule unchanged."""
    comps = tuple(c for c in q.components if c.prime == p)
    if p != 2:
        return ex.legendre(_det_unit_mod(q, sig_minus, p, p), p) == math.prod(
            c.sign for c in comps)
    if any(c.scale == 1 and c.oddity is not None for c in comps):
        return True
    return _det_unit_mod(q, sig_minus, 2, 8) == _det_unit_class_two(comps)


def _det_unit_mod(q: FiniteQuadraticForm, sig_minus: int, p: int, m: int) -> int:
    """The p-free part of det = (-1)^sig_minus |A_q|, mod m, built from
    pow(prime, scale * rank, m) per component, never from |A_q| itself."""
    w = (-1) ** sig_minus
    for c in q.components:
        if c.prime != p:
            w *= pow(c.prime, c.scale * c.rank, m)
    return w % m
