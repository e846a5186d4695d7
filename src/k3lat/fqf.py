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
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import _exact as ex
from .intlat import IntegralLattice, discriminant_group

TWO_EVEN = None  # oddity marker for even-type 2-adic components


@dataclass(frozen=True)
class JordanComponent:
    prime: int
    scale: int
    rank: int
    sign: int
    oddity: int | None = None

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
        return FiniteQuadraticForm(tuple(c for c in self.components if c.prime == p))

    def away_part(self, p: int) -> "FiniteQuadraticForm":
        return FiniteQuadraticForm(tuple(c for c in self.components if c.prime != p))

    def group_order(self) -> int:
        n = 1
        for c in self.components:
            n *= c.group_order()
        return n

    def ell_p(self, p: int) -> int:
        return sum(c.rank for c in self.components if c.prime == p)

    def ell(self) -> int:
        return max((self.ell_p(p) for p in self.primes()), default=0)


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


def _two_adic_units(rank: int, sign: int, oddity: int):
    """Odd residues mod 8 with the given count, trace and determinant class.

    Returns None when no such tuple exists (invalid component data).
    """
    if (oddity - rank) % 2 != 0:
        return None
    free = min(rank, 3)
    base = [1] * (rank - free)
    for tail in product((1, 3, 5, 7), repeat=free):
        units = base + list(tail)
        if sum(units) % 8 != oddity % 8:
            continue
        prod = 1
        for u in units:
            prod = prod * u % 8
        if (1 if prod in (1, 7) else -1) == sign:
            return tuple(units)
    return None


def _odd_unit_numerators(p: int, rank: int, sign: int) -> tuple:
    """Even integers c_i, prime to p, with product Legendre class == sign."""
    chi2 = ex.legendre(2, p)
    nonres = next(n for n in range(2, p) if ex.legendre(n, p) == -1)
    cs = [2] * (rank - 1)
    target = sign * chi2 ** (rank - 1)
    if chi2 == target:
        cs.append(2)
    else:
        cs.append(2 * nonres)
    return tuple(cs)


def _two_blocks(comp: JordanComponent):
    """Decompose a 2-adic component into 1-dim unit blocks and U/V blocks."""
    k = comp.scale
    if comp.is_even_type:
        b = 1 if comp.sign == -1 else 0
        a = comp.rank // 2 - b
        return [("U", k)] * a + [("V", k)] * b
    units = _two_adic_units(comp.rank, comp.sign, comp.oddity)
    return [("unit", k, u) for u in units]


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
    entry of least valuation in the upper triangle, replaced by the first
    diagonal entry of that valuation if there is one.  With none, at odd p
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
                if a[i][j]:
                    v = ex.valuation(a[i][j], p)
                    if best is None or v < best:
                        best, where = v, (i, j)
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


def symbol_of(lat: IntegralLattice) -> FiniteQuadraticForm:
    """Conway-Sloane symbol of an even lattice (empty for unimodular)."""
    det = abs(lat.det) if lat.rank else 1
    comps = []
    for p, k in sorted(ex.factor(det).items()):
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
    merged: dict[tuple, JordanComponent] = {(c.prime, c.scale): c for c in q1.components}
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
            merged[key] = JordanComponent(2, c.scale, rank, sign, TWO_EVEN)
        else:
            t = ((old.oddity or 0) + (c.oddity or 0)) % 8
            merged[key] = JordanComponent(2, c.scale, rank, sign, t)
    return FiniteQuadraticForm(tuple(merged.values()))


def negate(q: FiniteQuadraticForm) -> FiniteQuadraticForm:
    out = []
    for c in q.components:
        if c.prime == 2:
            t = None if c.oddity is None else (-c.oddity) % 8
            out.append(JordanComponent(2, c.scale, c.rank, c.sign, t))
        else:
            sign = c.sign * ex.legendre(-1, c.prime) ** c.rank
            out.append(JordanComponent(c.prime, c.scale, c.rank, sign))
    return FiniteQuadraticForm(tuple(out))


def _tau_odd_rank1(p: int, k: int, cls: int) -> int:
    """Signature mod 8 of a rank-1 component (p^k)^cls at odd p."""
    u = 1 if cls == 1 else next(n for n in range(2, p) if ex.legendre(n, p) == -1)
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
    """Even diagonal lattice whose symbol has the given odd-p part.

    Returns (lattice, moduli, coeffs): generator i of the discriminant p-part
    has order moduli[i] and q-value coeffs[i]/moduli[i] mod 2.
    """
    if p == 2:
        raise ValueError("only odd p is realized diagonally")
    entries = []
    moduli = []
    coeffs = []
    for c in q.components:
        if c.prime != p:
            continue
        pk = p ** c.scale
        for cu in _odd_unit_numerators(p, c.rank, c.sign):
            entries.append(cu * pk)
            moduli.append(pk)
            coeffs.append(cu)
    gram = tuple(tuple(entries[i] if i == j else 0 for j in range(len(entries)))
                 for i in range(len(entries)))
    return IntegralLattice(gram), tuple(moduli), tuple(coeffs)


def _qvalue(moduli, coeffs, elem) -> Fraction:
    total = Fraction(0)
    for m, c, x in zip(moduli, coeffs, elem):
        total += Fraction(c * x * x, m)
    return total % 2


def _elem_add(moduli, a, b):
    return tuple((x + y) % m for m, x, y in zip(moduli, a, b))


def _elem_scale(moduli, a, k):
    return tuple((k * x) % m for m, x in zip(moduli, a))


def _elem_order(moduli, a) -> int:
    n = 1
    for m, x in zip(moduli, a):
        if x:
            g = math.gcd(x, m)
            n = n * (m // g) // math.gcd(n, m // g)
    return n


def _subgroup_span(moduli, gens):
    """All elements of the subgroup generated by gens (small groups only)."""
    zero = tuple(0 for _ in moduli)
    elems = {zero}
    for g in gens:
        k = _elem_order(moduli, g)
        layer = list(elems)
        for i in range(1, k):
            step = _elem_scale(moduli, g, i)
            elems.update(_elem_add(moduli, e, step) for e in layer)
    return elems


def _elementary_subspace_bases(p: int, n: int, dim: int):
    """Reduced-echelon bases of dim-dimensional subspaces of F_p^n."""
    from itertools import combinations

    for pivots in combinations(range(n), dim):
        slots = []
        for r, piv in enumerate(pivots):
            slots.extend((r, c) for c in range(n)
                         if c > piv and c not in pivots)
        for fill in product(range(p), repeat=len(slots)):
            rows = [[0] * n for _ in range(dim)]
            for r, piv in enumerate(pivots):
                rows[r][piv] = 1
            for (r, c), v in zip(slots, fill):
                rows[r][c] = v
            yield [tuple(r) for r in rows]


class EnumerationCapExceeded(ex.LimitExceeded):
    pass


ENUMERATION_CAP = 500000  # subgroups, or p-torsion elements, one search may list


def _subgroups_up_to(moduli, max_order: int, cap: int = ENUMERATION_CAP):
    """Subgroups of order <= max_order of the finite abelian group with the
    given cyclic moduli, yielded lazily as (order, basis, elements), trivial
    subgroup first, then by increasing dimension.

    elements is the frozenset the search built, or None in the elementary
    abelian case, where subspaces are listed by echelon basis unspanned."""
    zero = tuple(0 for _ in moduli)
    yield 1, [], frozenset([zero])
    count = 0
    if moduli and all(m == moduli[0] for m in moduli) and ex.is_prime(moduli[0]):
        # elementary abelian: enumerate subspaces via echelon bases
        p = moduli[0]
        n = len(moduli)
        dim = 1
        while dim <= n and p ** dim <= max_order:
            for basis in _elementary_subspace_bases(p, n, dim):
                count += 1
                if count > cap:
                    raise EnumerationCapExceeded("subgroup enumeration cap exceeded")
                yield p ** dim, basis, None
            dim += 1
        return
    all_elems = [e for e in product(*[range(m) for m in moduli])]
    seen = {frozenset([zero])}
    frontier = [(frozenset([zero]), [])]
    while frontier:
        nxt = []
        for elems, gens in frontier:
            for g in all_elems:
                if g in elems:
                    continue
                new = _subgroup_span(moduli, gens + [g])
                if len(new) > max_order:
                    continue
                key = frozenset(new)
                if key in seen:
                    continue
                seen.add(key)
                nxt.append((key, gens + [g]))
                count += 1
                if count > cap:
                    raise EnumerationCapExceeded("subgroup enumeration cap exceeded")
                yield len(key), gens + [g], key
        frontier = nxt


def _isotropic_subgroups(moduli, coeffs, max_order):
    """Isotropic subgroups H, yielded as (order, generator coefficient tuples)."""
    for order, gens, elems in _subgroups_up_to(moduli, max_order):
        if all(_qvalue(moduli, coeffs, e) == 0
               for e in (elems if elems is not None else _subgroup_span(moduli, gens))):
            yield order, gens


def _bvalue(moduli, coeffs, x, y) -> Fraction:
    total = Fraction(0)
    for m, c, a, b in zip(moduli, coeffs, x, y):
        total += Fraction(c * a * b, m)
    return total % 1


def _graph_isotropic_subgroups(mod_s, coef_s, mod_d, coef_d, max_order,
                               require_d_trivial):
    """Isotropic subgroups H of A_S + A_D with H ∩ A_S = 0.

    Since A_D is elementary abelian, any such H is the graph of a
    homomorphism psi from a subgroup of A_D into the p-torsion of A_S.
    require_d_trivial additionally forces psi injective (H ∩ A_D = 0).
    Yields (order, generator tuples in combined coordinates).
    """
    p = mod_d[0] if mod_d else 2
    subgroups = _subgroups_up_to(mod_d, max_order)
    order, gens_d, _ = next(subgroups)
    yield order, gens_d  # the trivial subgroup is tried before any cap applies
    if p ** sum(m % p == 0 for m in mod_s) > ENUMERATION_CAP:
        raise EnumerationCapExceeded("p-torsion enumeration cap exceeded")
    # p-torsion elements of A_S, grouped by q-value
    by_value: dict = {}
    for s in product(*[range(0, m, m // p) if m % p == 0 else (0,) for m in mod_s]):
        by_value.setdefault(_qvalue(mod_s, coef_s, s) % 2, []).append(s)
    # a p-torsion element s of A_S has F_p coordinates s[j] // steps[j]
    steps = [m // p if m % p == 0 else 1 for m in mod_s]

    for order, gens_d, _ in subgroups:
        targets = [(-_qvalue(mod_d, coef_d, g)) % 2 for g in gens_d]
        if any(t not in by_value for t in targets):
            continue

        def backtrack(i, chosen):
            if i == len(gens_d):
                # psi injective iff the images are independent over F_p
                if require_d_trivial and len(ex.modp_echelon(
                        [[x // st for x, st in zip(s, steps)] for s in chosen], p)[0]) < i:
                    return
                yield [s + d for s, d in zip(chosen, gens_d)]
                return
            for s in by_value[targets[i]]:
                ok = True
                for j in range(i):
                    if (_bvalue(mod_s, coef_s, s, chosen[j])
                            + _bvalue(mod_d, coef_d, gens_d[i], gens_d[j])) % 1 != 0:
                        ok = False
                        break
                if ok:
                    yield from backtrack(i + 1, chosen + [s])

        for combined_gens in backtrack(0, []):
            yield order, combined_gens


def _overlattice_gram(basis, gram, scale: int):
    """Gram matrix of the lattice spanned by the rows of basis / scale.

    Built as the integer product basis * gram * basis^T, each entry then
    divided exactly by scale^2; raises ArithmeticError when one does not
    divide, i.e. when the span is not integral.
    """
    prod = ex.mat_mul(ex.mat_mul(basis, gram), ex.transpose(basis))
    s2 = scale * scale
    if any(x % s2 for row in prod for x in row):
        raise ArithmeticError("overlattice Gram not integral")
    return tuple(tuple(x // s2 for x in row) for row in prod)


def overlattice_candidates(q: FiniteQuadraticForm, p: int, max_order: int,
                           s_form: FiniteQuadraticForm | None = None,
                           d_form: FiniteQuadraticForm | None = None,
                           enforce_d: bool = True):
    """Forms induced on H-perp/H for isotropic H in the p-part of q.

    When s_form/d_form are given (with direct_sum(s,d) == q at p), only
    subgroups with H ∩ (S block) = 0 are taken, and with enforce_d also
    H ∩ (D block) = 0.  Yields (|H|, form).
    """
    if p == 2:
        raise ValueError("only odd p is supported")
    away = q.away_part(p)
    if s_form is not None or d_form is not None:
        sp = (s_form or FiniteQuadraticForm()).p_part(p)
        dp = (d_form or FiniteQuadraticForm()).p_part(p)
        if direct_sum(sp, dp).components != q.p_part(p).components:
            raise ValueError("constraints do not assemble to the p-part of q")
        lat_s, mod_s, coef_s = _realize_p_part(sp, p)
        lat_d, mod_d, coef_d = _realize_p_part(dp, p)
        lat = lat_s.direct_sum(lat_d)
        moduli = mod_s + mod_d
        # graph parametrization over the (small, elementary) D block
        subgroup_iter = _graph_isotropic_subgroups(
            mod_s, coef_s, mod_d, coef_d, max_order, enforce_d)
    else:
        lat, moduli, coeffs = _realize_p_part(q.p_part(p), p)
        subgroup_iter = _isotropic_subgroups(moduli, coeffs, max_order)
    if not moduli:
        yield 1, q
        return
    scale = 1
    for m in moduli:
        scale = scale * m // math.gcd(scale, m)
    scaled_lattice = [tuple(scale if i == j else 0 for j in range(len(moduli)))
                      for i in range(len(moduli))]
    for order, gens in subgroup_iter:
        if order == 1:
            yield 1, q
            continue
        rows = scaled_lattice + [tuple(x * (scale // m) for x, m in zip(g, moduli))
                                 for g in gens]
        basis = ex.row_hnf(ex.to_mat(rows))
        over = IntegralLattice(_overlattice_gram(basis, lat.gram, scale))
        induced = symbol_of(over).p_part(p)
        yield order, direct_sum(away, induced)


def overlattice_forms(q: FiniteQuadraticForm, p: int, max_order: int,
                      s_form: FiniteQuadraticForm | None = None,
                      d_form: FiniteQuadraticForm | None = None,
                      enforce_d: bool = True) -> list:
    """Forms from overlattice_candidates, one per isomorphism class, in the
    order first seen."""
    return list(dict.fromkeys(
        form for _, form in overlattice_candidates(q, p, max_order, s_form, d_form,
                                                   enforce_d)))


# ---------------------------------------------------------------------------
# Nikulin existence


def _det_unit_class_two(q2: FiniteQuadraticForm) -> int:
    """Determinant unit class mod 8 of the canonical realization of a 2-part."""
    prod = 1
    for c in q2.components:
        for b in _two_blocks(c):
            if b[0] == "unit":
                prod = prod * b[2] % 8
            elif b[0] == "U":
                prod = prod * 7 % 8
            else:
                prod = prod * 3 % 8
    return prod


def _two_reachable_det_classes(q2: FiniteQuadraticForm) -> set:
    """Unit classes mod 8 of dets of minimal-rank 2-adic lattices realizing q2."""
    comps = list(q2.components)
    if not comps:
        return {1}
    classes = set()
    for flips in product((0, 1), repeat=len(comps)):
        variant = []
        for c, f in zip(comps, flips):
            if not f:
                variant.append(c)
            elif c.oddity is None:
                variant.append(JordanComponent(2, c.scale, c.rank, -c.sign, TWO_EVEN))
            else:
                variant.append(JordanComponent(2, c.scale, c.rank, -c.sign,
                                               (c.oddity + 4) % 8))
        vform = FiniteQuadraticForm(tuple(variant))
        if vform == q2:
            classes.add(_det_unit_class_two(vform))
    return classes


def nikulin_exists(sig_plus: int, sig_minus: int, q: FiniteQuadraticForm) -> bool:
    """Does an even lattice with signature (sig_plus, sig_minus) and form q exist?"""
    if sig_plus < 0 or sig_minus < 0:
        return False
    n = sig_plus + sig_minus
    if n == 0:
        return q.is_trivial()
    if signature_mod8(q) != (sig_plus - sig_minus) % 8:
        return False
    if n < q.ell():
        return False
    order = q.group_order()
    det = (-1) ** sig_minus * order
    for p in q.primes():
        if p == 2:
            continue
        if n == q.ell_p(p):
            w = det
            while w % p == 0:
                w //= p
            target = 1
            for c in q.components:
                if c.prime == p:
                    target *= c.sign
            if ex.legendre(w % p, p) != target:
                return False
    if 2 in q.primes() and n == q.ell_p(2):
        two = q.p_part(2)
        has_scale1_odd = any(c.scale == 1 and c.oddity is not None
                             for c in two.components)
        if not has_scale1_odd:
            w = det
            while w % 2 == 0:
                w //= 2
            if w % 8 not in _two_reachable_det_classes(two):
                return False
    return True


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
