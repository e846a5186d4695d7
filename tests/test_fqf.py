import json
import math
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from k3lat import _exact as ex
from k3lat.fqf import (
    FiniteQuadraticForm,
    JordanComponent,
    _block_values,
    _bnum,
    _det_unit_class_two,
    _det_unit_mod,
    _embeddings,
    _graph_terms,
    _graph_witness,
    _isotropic_subgroups,
    _orthogonal_order,
    _overlattice_gram,
    _qnum,
    _realize_p_part,
    _singular_count,
    _tau_odd_rank1,
    _two_adic_units,
    _two_blocks,
    _value_weights,
    brute_force_tau,
    direct_sum,
    isomorphic,
    negate,
    nikulin_exists,
    overlattice_candidates,
    overlattice_forms,
    render_symbol,
    signature_mod8,
    symbol_of,
)
from k3lat.hmdata import parse_symbol
from k3lat.intlat import IntegralLattice, discriminant_group
from k3lat.rootsys import build

from conftest import (
    GraphWalk,
    cap_child_memory,
    child_env,
    direct_sum_oracle,
    discriminant_form_values,
    forms_isomorphic_bruteforce,
    graph_isotropic_subgroups,
    induced_form_oracle,
    isotropic_subgroups_oracle,
    nikulin_exists_oracle,
    two_reachable_det_classes,
    orders_oracle,
    overlattice_candidates_oracle,
    random_even_gram,
    subspaces_oracle,
    unimodular_conjugate,
)

J = JordanComponent


def F(*comps):
    return FiniteQuadraticForm(comps)


class TestSymbolOf:
    def test_rank_one_84(self):
        assert render_symbol(symbol_of(IntegralLattice(((84,),)))) == "4_5^-1 3^+1 7^-1"

    def test_a2(self):
        assert render_symbol(symbol_of(IntegralLattice(((2, -1), (-1, 2))))) == "3^-1"

    def test_unimodular_is_empty(self):
        assert symbol_of(build("E8").lattice()).is_trivial()
        assert symbol_of(IntegralLattice(((0, 1), (1, 0)))).is_trivial()

    def test_basis_invariance(self, rng):
        for _ in range(120):
            lat = random_even_gram(rng, rng.randint(1, 3))
            other = unimodular_conjugate(rng, lat)
            assert isomorphic(symbol_of(lat), symbol_of(other)), (lat.gram, other.gram)


def _frac_valuation(x: Fraction, p: int) -> int:
    return ex.valuation(x.numerator, p) - ex.valuation(x.denominator, p)


def _unit_mod8(x: Fraction) -> int:
    x /= Fraction(2) ** _frac_valuation(x, 2)
    return x.numerator * pow(x.denominator, -1, 8) % 8


def _min_valuation_entry(a, idx, p):
    best = where = None
    for pos_i, i in enumerate(idx):
        for j in idx[pos_i:]:
            if a[i][j] != 0:
                v = _frac_valuation(a[i][j], p)
                if best is None or v < best:
                    best, where = v, (i, j)
    return best, where


def _eliminate(a, idx, block):
    """Split the pivot block off the rows and columns idx, over Q."""
    rest = [t for t in idx if t not in block]
    b = [[a[x][y] for y in block] for x in block]
    if len(block) == 1:
        inv = [[1 / b[0][0]]]
    else:
        det = b[0][0] * b[1][1] - b[0][1] * b[1][0]
        inv = [[b[1][1] / det, -b[0][1] / det], [-b[1][0] / det, b[0][0] / det]]
    coeffs = {t: [sum(inv[x][y] * a[t][block[y]] for y in range(len(block)))
                  for x in range(len(block))] for t in rest}
    for t in rest:
        for s in rest:
            a[t][s] -= sum(c * a[x][s] for c, x in zip(coeffs[t], block))
    return rest


def _jordan_odd_oracle(gram, p):
    """scale -> Legendre classes of the pivots, by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in gram]
    idx = list(range(len(gram)))
    found = {}
    while idx:
        best, (i, j) = _min_valuation_entry(a, idx, p)
        k = next((t for t in idx
                  if a[t][t] != 0 and _frac_valuation(a[t][t], p) == best), None)
        if k is None:
            for t in idx:
                a[i][t] += a[j][t]
            for t in idx:
                a[t][i] += a[t][j]
            k = i
        u = a[k][k] / Fraction(p) ** best
        found.setdefault(best, []).append(
            ex.legendre(u.numerator, p) * ex.legendre(u.denominator, p))
        idx = _eliminate(a, idx, [k])
    return found


def _jordan_two_oracle(gram):
    """scale -> (units mod 8, even blocks), by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in gram]
    idx = list(range(len(gram)))
    found = {}
    while idx:
        best, (i, j) = _min_valuation_entry(a, idx, 2)
        units, evens = found.setdefault(best, ([], []))
        k = next((t for t in idx
                  if a[t][t] != 0 and _frac_valuation(a[t][t], 2) == best), None)
        if k is not None:
            units.append(_unit_mod8(a[k][k]))
            idx = _eliminate(a, idx, [k])
        else:
            det = a[i][i] * a[j][j] - a[i][j] * a[i][j]
            evens.append("U" if _unit_mod8(det) == 7 else "V")
            idx = _eliminate(a, idx, [i, j])
    for units, evens in found.values():
        while evens and units:
            kind, u = evens.pop(), units.pop()
            if kind == "U":
                units.extend([u, (-u) % 8, u])
            else:
                units.extend([(u + 2) % 8, (2 * u + 3) * pow(u + 2, -1, 8) % 8,
                              3 * u * pow(2 * u + 3, -1, 8) % 8])
    return found


def symbol_oracle(lat):
    """The symbol by exact elimination over Q, pivot for pivot as symbol_of."""
    comps = []
    for p in sorted(ex.factor(abs(lat.det))):
        if p == 2:
            for v, (units, evens) in sorted(_jordan_two_oracle(lat.gram).items()):
                if v == 0:
                    continue
                if units:
                    sign = 1 if math.prod(units) % 8 in (1, 7) else -1
                    comps.append(J(2, v, len(units), sign, sum(units) % 8))
                else:
                    comps.append(J(2, v, 2 * len(evens),
                                   -1 if evens.count("V") % 2 else 1, None))
        else:
            for v, classes in sorted(_jordan_odd_oracle(lat.gram, p).items()):
                if v:
                    comps.append(J(p, v, len(classes), math.prod(classes)))
    return FiniteQuadraticForm(comps)


def _scaled(rng, lat):
    """D * gram * D for a diagonal D of small products of 2, 3 and 5."""
    d = [2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2) * 5 ** rng.randint(0, 1)
         for _ in range(lat.rank)]
    return IntegralLattice(tuple(tuple(d[i] * x * d[j] for j, x in enumerate(row))
                                 for i, row in enumerate(lat.gram)))


@pytest.mark.parametrize("variant", ["plain", "skewed", "scaled", "scaled-skewed"])
def test_symbol_of_matches_fraction_elimination(variant):
    """Integer elimination mod p^N gives the very components, 2-adic signs
    and oddities included, that exact elimination over Q gives."""
    rng = random.Random(f"jordan:{variant}")
    for _ in range(30):
        for n in range(1, 9):
            lat = random_even_gram(rng, n, spread=rng.choice((1, 2, 4)))
            if "scaled" in variant:
                lat = _scaled(rng, lat)
            if "skewed" in variant:
                lat = unimodular_conjugate(rng, lat)
            want = symbol_oracle(lat)
            assert symbol_of(lat).components == want.components, lat.gram


def test_symbol_of_at_given_primes():
    """symbol_of(lat, primes) is the full symbol's part at those primes."""
    rng = random.Random("jordan:primes")
    for _ in range(20):
        for n in range(1, 9):
            lat = unimodular_conjugate(rng, _scaled(rng, random_even_gram(rng, n)))
            full = symbol_of(lat)
            for p in (2, 3, 5, 7, 11):
                assert symbol_of(lat, (p,)).components == full.p_part(p).components
            primes = full.primes()
            assert symbol_of(lat, primes).components == full.components
            assert symbol_of(lat, ()).is_trivial()


@st.composite
def components_at(draw, prime: int, scale: int):
    """A component of rank at most 4 at (prime, scale); at 2 of either type."""
    rank, sign = draw(st.integers(1, 4)), draw(st.sampled_from((1, -1)))
    if prime != 2:
        return J(prime, scale, rank, sign)
    if draw(st.booleans()):
        return J(2, scale, 2 * rank, sign)
    oddity = draw(st.sampled_from([t for t in range(8) if (t - rank) % 2 == 0]))
    try:
        return J(2, scale, rank, sign, oddity)
    except ValueError:  # no unit tuple of that sign: the other sign has one
        return J(2, scale, rank, -sign, oddity)


def small_forms():
    """Forms on some of six keys (prime 2, 3 or 5, scale 1 or 2), so that two
    draws often share a key."""
    keys = st.lists(st.tuples(st.sampled_from((2, 3, 5)), st.integers(1, 2)),
                    max_size=4, unique=True)
    return keys.flatmap(lambda ks: st.tuples(*(components_at(*k) for k in ks))).map(
        lambda comps: F(*comps))


class TestArithmetic:
    def test_direct_sum_worked_example(self):
        q = parse_symbol("4_3^-1 3^-1 7^-1")
        d = parse_symbol("3^+2")
        assert render_symbol(direct_sum(q, d)) == "4_3^-1 3^-3 7^-1"

    def test_direct_sum_identity(self):
        q = parse_symbol("4_3^-1 3^-1 7^-1")
        assert direct_sum(q, F()).components == q.components

    def test_direct_sum_matches_lattice_sum(self):
        a2 = IntegralLattice(((2, -1), (-1, 2)))
        assert (direct_sum(symbol_of(a2), symbol_of(a2)).components
                == symbol_of(a2.direct_sum(a2)).components)
        assert render_symbol(symbol_of(a2.direct_sum(a2))) == "3^+2"

    def test_negate_worked_example(self):
        q = parse_symbol("4_3^-1 3^+1 7^-1")
        assert render_symbol(negate(q)) == "4_5^-1 3^-1 7^+1"

    def test_negate_involution_and_fixed_points(self):
        assert negate(F()).components == ()
        q = parse_symbol("3^+2")
        assert negate(q).components == q.components  # chi(-1)^2 = 1
        for text in ("2_II^+8", "4_1^+5", "2_7^-3 8_II^-2", "3^+4 9^-1", "5^+3"):
            q = parse_symbol(text)
            assert negate(negate(q)).components == q.components

    @settings(max_examples=300, deadline=None)
    @example(F(), F())
    @example(F(), parse_symbol("5^-2"))  # q_N at p = 5, sigma = 1
    @example(parse_symbol("2_II^-2 4_II^-2 3^+2"), parse_symbol("3^+2"))  # -q_N at p = 3
    @example(parse_symbol("2_II^-2 4_II^-2 3^+2"), parse_symbol("13^-2"))
    @given(small_forms(), small_forms())
    def test_direct_sum_matches_oracle(self, q1, q2):
        # the merge gives the very components, in order, of the dict-and-sort sum
        assert direct_sum(q1, q2).components == direct_sum_oracle(q1, q2).components

    def test_direct_sum_joins_every_kind_of_shared_key(self):
        # every pair of components of rank <= 3 at (3, 1), (2, 1) and (2, 2):
        # at 2 even + even, odd + even, even + odd and odd + odd, beside a
        # key only one side has
        for prime, scale in ((3, 1), (2, 1), (2, 2)):
            comps = []
            for rank, sign in product(range(1, 4), (1, -1)):
                for oddity in (None, *range(8)) if prime == 2 else (None,):
                    try:
                        comps.append(J(prime, scale, rank, sign, oddity))
                    except ValueError:
                        pass
            kinds = Counter()
            for x, y in product(comps, repeat=2):
                q1, q2 = F(x, J(5, 1, 1, 1)), F(y)
                assert direct_sum(q1, q2).components == direct_sum_oracle(q1, q2).components
                assert direct_sum(q2, q1).components == direct_sum_oracle(q2, q1).components
                kinds[x.oddity is None, y.oddity is None] += 1
            assert len(kinds) == (4 if prime == 2 else 1)

    @settings(max_examples=200, deadline=None)
    @given(small_forms(), st.sampled_from((2, 3, 5, 7)))
    def test_derived_forms_rebuild_unchanged(self, q, p):
        # the forms fqf derives without the sort and duplicate check are
        # ones the check passes and leaves as they are
        for derived in (negate(q), q.p_part(p), q.away_part(p)):
            assert FiniteQuadraticForm(derived.components).components == derived.components


class TestSignature:
    @pytest.mark.parametrize("text,tau", [
        ("3^+1", 6), ("5^-1", 0), ("3^+2", 4), ("7^+3", 6),
        ("4_5^-1 3^+1 7^-1", 1), ("2_II^+8", 0), ("11^+2", 4),
    ])
    def test_pinned_values(self, text, tau):
        assert signature_mod8(parse_symbol(text)) == tau

    def test_matches_brute_force(self, rng):
        from k3lat.acceptance import _random_form

        for _ in range(80):
            q = _random_form(rng, max_order=4000)
            assert signature_mod8(q) == brute_force_tau(q), render_symbol(q)

    def test_matches_lattice_signature(self, rng):
        for _ in range(120):
            lat = random_even_gram(rng, rng.randint(1, 6))
            sp, sm = lat.signature()
            assert signature_mod8(symbol_of(lat)) == (sp - sm) % 8
        for _ in range(10):
            lat = random_even_gram(rng, 8, spread=1)
            sp, sm = lat.signature()
            assert signature_mod8(symbol_of(lat)) == (sp - sm) % 8

    def test_brute_force_trivial_form(self):
        assert brute_force_tau(F()) == 0

    def test_brute_force_rejects_large(self):
        with pytest.raises(ValueError):
            brute_force_tau(parse_symbol("3^+6 5^+4 7^+2"), limit=10 ** 5)


class TestIsomorphic:
    def test_different_determinant_class(self):
        assert not isomorphic(parse_symbol("3^+1"), parse_symbol("3^-1"))

    def test_reflexive(self):
        q = parse_symbol("2_7^-3 8_II^-2")
        assert isomorphic(q, q)

    def test_block_permutation(self):
        q1 = symbol_of(IntegralLattice(((2, 0), (0, 6))))
        q2 = symbol_of(IntegralLattice(((6, 0), (0, 2))))
        assert isomorphic(q1, q2)

    def test_two_adic_pairs(self):
        # hand-verified isomorphism pattern at the prime 2
        assert isomorphic(F(J(2, 1, 1, 1, 1)), F(J(2, 1, 1, -1, 5)))
        assert not isomorphic(F(J(2, 1, 1, 1, 1)), F(J(2, 1, 1, -1, 3)))
        assert not isomorphic(F(J(2, 2, 2, 1, None)), F(J(2, 2, 2, -1, None)))
        assert isomorphic(F(J(2, 1, 1, 1, 1), J(2, 3, 1, 1, 1)),
                          F(J(2, 1, 1, 1, 1), J(2, 3, 1, -1, 5)))
        assert not isomorphic(F(J(2, 3, 1, 1, 1)), F(J(2, 3, 1, -1, 5)))
        assert isomorphic(F(J(2, 1, 1, 1, 1), J(2, 2, 1, 1, 7)),
                          F(J(2, 1, 1, 1, 7), J(2, 2, 1, 1, 1)))

    def test_against_bruteforce_oracle(self, rng):
        lattices = []
        for _ in range(24):
            lat = random_even_gram(rng, rng.randint(1, 3))
            if abs(lat.det) <= 48:
                lattices.append(lat)
        for i, l1 in enumerate(lattices):
            d1 = discriminant_form_values(l1)
            for l2 in lattices[i:]:
                d2 = discriminant_form_values(l2)
                want = forms_isomorphic_bruteforce(d1, d2)
                got = isomorphic(symbol_of(l1), symbol_of(l2))
                assert got == want, (l1.gram, l2.gram)


def _two_parts(budget, first_scale=1):
    """Every valid tuple of 2-adic components with group order <= 2^budget."""
    yield ()
    for k in range(first_scale, budget + 1):
        for r in range(1, budget // k + 1):
            for sign, t in product((1, -1), list(range(8)) + [None]):
                try:
                    c = J(2, k, r, sign, t)
                except ValueError:
                    continue
                for rest in _two_parts(budget - k * r, k + 1):
                    yield (c,) + rest


def _block_disc_data(q):
    """(orders, q-values, bilinear matrix) of q on its unit/U/V block
    generators, the input format of forms_isomorphic_bruteforce."""
    orders, qv, pairs = [], [], []
    for c in q.components:
        for b in _two_blocks(c):
            m = 1 << b[1]
            if b[0] == "unit":
                orders.append(m)
                qv.append(Fraction(b[2], m))
            else:
                d = Fraction(0) if b[0] == "U" else Fraction(2, m)
                pairs.append((len(orders), Fraction(1, m)))
                orders += [m, m]
                qv += [d, d]
    bm = [[qv[i] % 1 if i == j else Fraction(0) for j in range(len(orders))]
          for i in range(len(orders))]
    for i, v in pairs:
        bm[i][i + 1] = bm[i + 1][i] = v
    return tuple(orders), tuple(qv), tuple(tuple(r) for r in bm)


def _disc_values(data):
    """(element, q-value) over the group of (orders, q-values, bilinear
    matrix) data, elements as coefficient tuples."""
    orders, qv, bm = data
    n = len(orders)
    for a in product(*[range(m) for m in orders]):
        v = sum(x * x * qv[i] for i, x in enumerate(a))
        v += sum(2 * a[i] * a[j] * bm[i][j] for i in range(n) for j in range(i + 1, n))
        yield a, v % 2


def _order_value_counts(data):
    """Counts of (element order, q-value) over the group: an isomorphism
    invariant, so forms that differ in it are not isomorphic."""
    return frozenset(Counter(
        (max((m // math.gcd(x, m) for x, m in zip(a, data[0])), default=1), v)
        for a, v in _disc_values(data)).items())


def test_symbol_of_matches_fraction_elimination_on_two_parts():
    """Every 2-part of order <= 2^6, realized by its unit / U / V blocks in a
    skewed basis: the oracle's components, and a 2-part isomorphic to it."""
    rng = random.Random("jordan:two-parts")
    shapes = {"U": ((0, 1), (1, 0)), "V": ((2, 1), (1, 2))}
    for comps in _two_parts(6):
        lat = IntegralLattice(())
        for c in comps:
            for b in _two_blocks(c):
                shape = ((b[2],),) if b[0] == "unit" else shapes[b[0]]
                lat = lat.direct_sum(IntegralLattice(
                    tuple(tuple(x << b[1] for x in row) for row in shape)))
        if comps:
            lat = unimodular_conjugate(rng, lat)
        got = symbol_of(lat)
        assert got.components == symbol_oracle(lat).components, lat.gram
        assert got.p_part(2) == F(*comps), (render_symbol(got), render_symbol(F(*comps)))


class TestCanonicalSymbol:
    def test_exhaustive_against_bruteforce_oracle(self):
        """All valid 2-parts of order <= 2^6: equal canonical keys <=> the
        brute-force oracle finds the forms isomorphic, and the sign-walk
        oracle's det classes are those of the sign-flip variants the
        brute-force search finds isomorphic to the form.  Without an odd
        component of scale 2^1 those variants have one class, the one
        nikulin_exists reads (Nikulin 1980, Thm 1.9.1)."""
        forms = [F(*comps) for comps in _two_parts(6)]
        assert len(forms) == 549
        data = {q.components: _block_disc_data(q) for q in forms}
        counts = {c: _order_value_counts(d) for c, d in data.items()}
        reps: dict = {}
        oracle_class = {}
        for q in forms:
            d = data[q.components]
            bucket = reps.setdefault(tuple(sorted(d[0])), [])
            for r in bucket:
                if counts[q.components] != counts[r.components]:
                    assert q != r, (render_symbol(q), render_symbol(r))
                    continue
                iso = forms_isomorphic_bruteforce(d, data[r.components])
                assert (q == r) == iso, (render_symbol(q), render_symbol(r))
                if iso:
                    oracle_class[q.components] = oracle_class[r.components]
                    break
            else:
                bucket.append(q)
                oracle_class[q.components] = len(oracle_class)
                assert hash(q) == hash(F(*q.components))
        keys = [r.canonical_key() for bucket in reps.values() for r in bucket]
        assert len(keys) == len(set(keys)) == 201
        for q in forms:
            want = set()
            for flips in product((0, 1), repeat=len(q.components)):
                v = F(*(J(2, c.scale, c.rank, -c.sign,
                          None if c.oddity is None else c.oddity + 4) if f else c
                        for c, f in zip(q.components, flips)))
                if oracle_class[v.components] == oracle_class[q.components]:
                    want.add(_det_unit_class_two(v.components))
            assert two_reachable_det_classes(q.components) == want, render_symbol(q)
            if not any(c.scale == 1 and c.oddity is not None for c in q.components):
                assert want == {_det_unit_class_two(q.components)}, render_symbol(q)

    def test_components_and_rendering_kept_as_constructed(self):
        q1 = F(J(2, 1, 1, 1, 1))
        q2 = F(J(2, 1, 1, -1, 5))
        assert q1 == q2 and hash(q1) == hash(q2)
        assert render_symbol(q2) == "2_5^-1"
        assert q2.components == (J(2, 1, 1, -1, 5),)
        assert len({q1, q2, F(J(2, 1, 1, -1, 3))}) == 2
        assert F(J(2, 1, 2, 1, None)) != F(J(2, 1, 2, -1, None))


def _diagonal(diag):
    return tuple(tuple(d if i == j else 0 for j in range(len(diag)))
                 for i, d in enumerate(diag))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=n + 2),
    st.lists(st.integers(-9, 9), min_size=n, max_size=n),
    st.integers(1, 6))))
def test_integer_overlattice_gram_matches_fraction_product(data):
    basis, d, scale = data
    diag = tuple(2 * x for x in d)
    bfrac = tuple(tuple(Fraction(x, scale) for x in row) for row in basis)
    want = ex.mat_mul(ex.mat_mul(bfrac, _diagonal(diag)), ex.transpose(bfrac))
    if all(x.denominator == 1 for row in want for x in row):
        assert _overlattice_gram(ex.to_mat(basis), diag, scale) == want
    else:
        with pytest.raises(ArithmeticError):
            _overlattice_gram(ex.to_mat(basis), diag, scale)


def _beside_order_items(walk, items):
    """((|H|, gens), (|H|, form, count)) for each H of the listing walk, the
    second being the item of that order from a search that yields one item
    per ascending order; it is advanced only as far as the walk reaches."""
    current = None
    for order, gens in walk:
        while current is None or current[0] < order:
            current = next(items)
        assert current[0] == order, (current[0], order)
        yield (order, gens), current


def _per_candidate_walk(q_s, q_d, p, max_order, start=0, stop=None, two_products=0,
                        per_order=None):
    """Walk the subgroup enumeration beside overlattice_candidates, rebuilding
    each candidate's overlattice the per-candidate way (row_hnf, then
    _overlattice_gram, then symbol_of, with no form reused) and asserting
    that the fast path yields a form with the same components, for the
    positions from start to stop.  The walk is q_s's own without q_d, and
    the glued listing with q_d.  On a p-part of higher scale without q_d,
    the fast path's item at the same position is compared; with q_d, or on
    an elementary p-part, the fast path yields one item per order, and the
    item of the candidate's order is compared (the fast path is advanced
    only to the orders the walk reaches).  With per_order only the first
    per_order candidates of each order are rebuilt; the others are still
    walked.  The Gram matrices at positions below `two_products` are also
    checked against the two-product form basis * diag * basis^T.  Returns
    (Counter of the orders rebuilt, the number of two-product checks)."""
    from itertools import islice

    q = q_s if q_d is None else direct_sum(q_s, q_d)
    away = q.away_part(p)
    diag, moduli, coeffs = _realize_p_part(q_s, p)
    if q_d is None:
        walk = isotropic_subgroups_oracle(p, moduli, coeffs, max_order)
        items = overlattice_candidates(q_s, p, max_order)
        if all(m == p for m in moduli):
            pairs = _beside_order_items(walk, items)
        else:
            pairs = zip(walk, items, strict=True)
    else:
        diag_d, mod_d, coef_d = _realize_p_part(q_d, p)
        walk = graph_isotropic_subgroups(p, moduli, coeffs, mod_d, coef_d, max_order)
        diag, moduli = diag + diag_d, moduli + mod_d
        pairs = _beside_order_items(walk, overlattice_candidates(q_s, p, max_order, q_d))
    scale = math.lcm(*moduli) if moduli else 1
    lattice_rows = [tuple(scale if i == j else 0 for j in range(len(moduli)))
                    for i in range(len(moduli))]
    rebuilt, two_checked = Counter(), 0
    for position, ((order, gens), (h, form, _)) in enumerate(islice(pairs, start, stop), start):
        where = (render_symbol(q_s), p, position)
        assert h == order, where
        if per_order is not None and rebuilt[order] >= per_order:
            continue
        rebuilt[order] += 1
        if order == 1:
            assert form.components == q.components, where
            continue
        rows = lattice_rows + [tuple(x * (scale // m) for x, m in zip(g, moduli))
                               for g in gens]
        basis = ex.row_hnf(ex.to_mat(rows))
        gram = _overlattice_gram(basis, diag, scale)
        if position < two_products:
            prod = ex.mat_mul(ex.mat_mul(basis, _diagonal(diag)), ex.transpose(basis))
            s2 = scale * scale
            assert all(x % s2 == 0 for row in prod for x in row), where
            assert gram == tuple(tuple(x // s2 for x in row) for row in prod), where
            two_checked += 1
        want = direct_sum(away, symbol_of(IntegralLattice(gram), (p,)))
        assert form == want, where
        assert form.components == want.components, where
    return rebuilt, two_checked


def test_elementary_fast_path_matches_per_candidate_overlattices():
    # every sigma = 1 table decision whose S block has a nontrivial p-part
    # of scale 1, over every candidate of the full enumeration, with the
    # two-product Gram check on the candidates the decision tries; then
    # sigma = 2 row 20 (5^+4) at p = 5: its first 500 candidates, all of
    # order 5, and the first 500 of order 25, from position 19,345 on (the
    # decision accepts the first)
    from k3lat.hmdata import load_table
    from k3lat.k3class import n_form, odd_primes_below, primitively_embeds

    records = load_table()
    checked = decisions = 0
    for rec in records:
        for p in odd_primes_below(200):
            s_part = rec.q_s.p_part(p)
            if s_part.is_trivial() or any(c.scale != 1 for c in s_part.components):
                continue
            decisions += 1
            tried = primitively_embeds(rec.q_s, rec.rank, p, 1).candidates_tried
            checked += _per_candidate_walk(rec.q_s, negate(n_form(p, 1).q), p,
                                           p ** min(rec.q_s.ell_p(p), 2), two_products=tried)[1]
    assert decisions == 58
    q_s = next(rec for rec in records if rec.number == 20).q_s
    q_d = negate(n_form(5, 2).q)
    checked += _per_candidate_walk(q_s, q_d, 5, 25, stop=500, two_products=500)[1]
    checked += _per_candidate_walk(q_s, q_d, 5, 25, start=19345, stop=19845,
                                   two_products=19845)[1]
    assert checked >= 600, checked


NON_ELEMENTARY_ROWS = (15, 46, 47, 84, 85, 101, 134)  # 3-parts of scales 3 and 9


def test_h_type_reuse_matches_per_candidate_overlattices_on_table_rows():
    # the seven rows whose 3-part is not elementary, at p = 3: at sigma = 1
    # every candidate of the full enumeration, at sigma = 2 the first 400
    # candidates of each order of every row, rows 15 and 47 walked up to 500
    # past the candidate their decision accepts (the full walks run to
    # 745,461 and 55,071 candidates)
    from k3lat.hmdata import load_table
    from k3lat.k3class import n_form, primitively_embeds

    records = {rec.number: rec for rec in load_table()}
    rebuilt = {}
    for sigma, per_order in ((1, None), (2, 400)):
        q_d = negate(n_form(3, sigma).q)
        for no in NON_ELEMENTARY_ROWS:
            q_s = records[no].q_s
            stop = None
            if sigma == 2 and no in (15, 47):
                stop = primitively_embeds(q_s, records[no].rank, 3, 2).candidates_tried + 500
            rebuilt[sigma, no] = _per_candidate_walk(
                q_s, q_d, 3, 3 ** min(q_s.ell_p(3), 2 * sigma), stop=stop,
                two_products=50, per_order=per_order)[0]
    assert sum(sum(rebuilt[1, no].values()) for no in NON_ELEMENTARY_ROWS) == 2292 + 7
    assert sum(sum(rebuilt[2, no].values()) for no in NON_ELEMENTARY_ROWS) >= 5000
    orders = {order for counts in rebuilt.values() for order in counts}
    assert orders == {3 ** k for k in range(4)}, orders


def _glued_listing_order(q_s, p, sigma):
    """The largest |H| <= p^min(ell_p, 2 sigma) whose glued listing walks at
    most 20,000 subspaces of A_D of the top dimension and matches each
    against at most 10^6 tuples of A_S[p]."""
    ell, max_order = q_s.ell_p(p), 1
    for k in range(1, min(ell, 2 * sigma) + 1):
        subspaces = _subspace_count(p, 2 * sigma, k)
        if subspaces > 20000 or subspaces * p ** (ell * k) > 10 ** 6:
            break
        max_order = p ** k
    return max_order


def _walk_bounded_order(q_s, p, top):
    """The largest |H| <= top whose breadth-first walk of q_s's p-part tries
    at most 10^6 span elements: to reach order p h it tries every isotropic
    element against every isotropic H of order at most h (counted by the
    walk to h), and spans at most p h elements per try."""
    _, moduli, coeffs = _realize_p_part(q_s, p)
    n = math.lcm(*moduli)
    weights = _value_weights(moduli, coeffs, n)
    isotropic = sum(_qnum(weights, e) % (2 * n) == 0 for e in product(*map(range, moduli)))
    max_order = 1
    while max_order < top:
        below = 1 + sum(1 for _ in _isotropic_subgroups(moduli, coeffs, max_order))
        if below * isotropic * p * max_order > 10 ** 6:
            break
        max_order *= p
    return max_order


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((3, 5)), st.integers(0, 2), st.integers(1, 2),
       st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
       st.sampled_from((None, 1, 2)), st.booleans())
def test_h_type_reuse_matches_per_candidate_overlattices_on_random_forms(
        p, r1, r2, signs, sigma, beside):
    # q_S of scales p and p^2, sometimes beside a component at another
    # prime: glued to the sigma = 1 or 2 N-form, or alone (sigma None) at
    # |H| <= p^3; the first 25 candidates of each order are rebuilt, up to
    # the largest |H| whose listing stays small (_glued_listing_order,
    # _walk_bounded_order)
    from k3lat.k3class import n_form

    comps = [J(p, 2, r2, signs[1])] + ([J(p, 1, r1, signs[0])] if r1 else [])
    if beside:
        comps.append(J(7, 1, 1, 1))
    q_s = F(*comps)
    if sigma is None:
        q_d, max_order = None, _walk_bounded_order(q_s, p, p ** 3)
    else:
        q_d, max_order = negate(n_form(p, sigma).q), _glued_listing_order(q_s, p, sigma)
    rebuilt, _ = _per_candidate_walk(q_s, q_d, p, max_order, per_order=25)
    assert rebuilt[1] == 1


@settings(max_examples=30, deadline=None)
@example(3, {1, 3}, [(2, 1), (1, 1), (1, 1)], 2, False)  # H of order 27 from position 4,581
@given(st.sampled_from((3, 5)),
       st.sets(st.integers(1, 4), min_size=1, max_size=3).filter(lambda ks: max(ks) >= 3),
       st.lists(st.tuples(st.integers(1, 2), st.sampled_from((1, -1))), min_size=3, max_size=3),
       st.integers(1, 3), st.booleans())
def test_order_reuse_matches_per_candidate_overlattices_at_scales_p3_and_p4(
        p, scales, blocks, sigma, beside):
    # q_S with a component of scale p^3 or p^4, glued to the N-form at
    # sigma = 1, 2 or 3: H meets pA inside H ∩ A_S = 0 at every scale, so
    # one form per order; the first 25 candidates of each order among the
    # first 10,000 are rebuilt, up to the largest |H| whose listing stays
    # small (_glued_listing_order)
    from k3lat.k3class import n_form

    comps = [J(p, k, rank, sign) for k, (rank, sign) in zip(sorted(scales), blocks)]
    if beside:
        comps.append(J(7, 1, 1, 1))
    q_s = F(*comps)
    q_d = negate(n_form(p, sigma).q)
    max_order = _glued_listing_order(q_s, p, sigma)
    rebuilt, _ = _per_candidate_walk(q_s, q_d, p, max_order, stop=10000, per_order=25)
    assert rebuilt[1] == 1


def test_scale_above_p_squared_builds_one_form_per_order(monkeypatch):
    # the glued search yields one form per order at every scale: the 20
    # candidates of order 3 of 27^+1 glued at sigma = 2 are one item, with
    # one overlattice and a count of 20
    from k3lat import fqf
    from k3lat.k3class import n_form

    q_s, q_d = parse_symbol("27^+1"), negate(n_form(3, 2).q)
    rebuilt, _ = _per_candidate_walk(q_s, q_d, 3, 3)
    assert rebuilt == {1: 1, 3: 20}
    builds = []
    symbol = fqf.symbol_of
    monkeypatch.setattr(fqf, "symbol_of", lambda *a: builds.append(a) or symbol(*a))
    assert [(h, count) for h, _, count in overlattice_candidates(q_s, 3, 3, q_d)] == [
        (1, 1), (3, 20)]
    assert len(builds) == 1


def _direct_overlattice_forms(lat, p, max_order):
    """Oracle: every even p-overlattice by explicit integral span search."""
    disc = discriminant_group(lat)
    n = lat.rank
    plifts = []
    for d, lift in zip(disc.cyclic_orders, disc.generator_lifts):
        v = d
        power = 1
        while v % p == 0:
            v //= p
            power *= p
        if power > 1:
            plifts.append((power, tuple(Fraction(v) * x for x in lift)))
    out = []
    from itertools import product as iproduct

    ranges = [range(k) for k, _ in plifts]
    subsets = set()
    for combo in iproduct(*ranges) if plifts else []:
        gen = tuple(sum(Fraction(c) * lift[i] for c, (_, lift) in zip(combo, plifts))
                    for i in range(n))
        subsets.add(gen)
    # enumerate subgroups generated by up to two elements of the p-part
    elems = sorted(subsets)
    cands = [[]]
    for g in elems:
        cands.append([g])
        for h in elems:
            cands.append([g, h])
    seen = set()
    for gens in cands:
        scale = 1
        for k, _ in plifts:
            scale = scale * k
        rows = [tuple(scale if i == j else 0 for j in range(n)) for i in range(n)]
        for g in gens:
            rows.append(tuple(int(x * scale) for x in g))
        basis = ex.row_hnf(ex.to_mat(rows))
        bfrac = tuple(tuple(Fraction(x, scale) for x in row) for row in basis)
        gram = ex.mat_mul(ex.mat_mul(bfrac, lat.gram), ex.transpose(bfrac))
        if any(x.denominator != 1 for row in gram for x in row):
            continue
        gi = tuple(tuple(int(x) for x in row) for row in gram)
        if any(gi[i][i] % 2 for i in range(n)):
            continue
        order_ratio = abs(lat.det) // abs(ex.det_int(gi))
        h2 = 1
        while order_ratio > 1:
            order_ratio //= p * p
            h2 *= p
        if h2 > max_order:
            continue
        key = gi
        if key in seen:
            continue
        seen.add(key)
        out.append(symbol_of(IntegralLattice(gi)))
    return out


class TestOverlattices:
    def test_worked_example_saturation(self):
        qs = parse_symbol("4_3^-1 3^-1 7^-1")
        qd = parse_symbol("3^+2")
        forms = overlattice_forms(qs, 3, 3, qd)
        assert forms[0] == parse_symbol("4_3^-1 3^-3 7^-1")
        wanted = parse_symbol("4_3^-1 3^+1 7^-1")
        assert any(isomorphic(f, wanted) for f in forms)

    def test_trivial_subgroup_always_present(self):
        q = parse_symbol("3^+2")
        forms = overlattice_forms(q, 3, 9)
        assert any(isomorphic(f, q) for f in forms)

    def test_anisotropic_part_admits_only_trivial(self):
        from k3lat.k3class import n_form

        q = n_form(3, 1).q
        assert [render_symbol(f) for f in overlattice_forms(q, 3, 9)] == ["3^+2"]

    def test_order_drop(self):
        q = parse_symbol("3^-3 7^-1")
        for h, form, _ in overlattice_candidates(q, 3, 9):
            assert form.group_order() * h * h == q.group_order()

    def test_mixed_scale_recovers_overlattice(self):
        # the index-3 sublattice of A_2 has form 3^-1 9^-1; its order-3
        # saturations must include A_2 itself (form 3^-1)
        from k3lat.rootsys import t_sublattice

        t = t_sublattice(3)
        q = symbol_of(t.as_lattice())
        assert render_symbol(q) == "3^-1 9^-1"
        forms = overlattice_forms(q, 3, 3)
        a2_form = parse_symbol("3^-1")
        assert any(isomorphic(f, a2_form) for f in forms)
        oracle = _direct_overlattice_forms(t.as_lattice(), 3, 3)
        for f in oracle:
            assert any(isomorphic(f, g) for g in forms)

    def test_d_block_of_higher_scale_is_refused(self):
        # the graph enumeration needs an elementary D block: with D = 3^+1 9^-1
        # it listed H of order 1, 3 and 3 only, though six isotropic H of order
        # 9 meet neither block
        s, d = parse_symbol("9^+1"), parse_symbol("3^+1 9^-1")
        with pytest.raises(ValueError, match="scale 1"):
            list(overlattice_candidates(s, 3, 81, d))

    def test_against_integral_span_oracle(self, rng):
        checked = 0
        while checked < 12:
            n = rng.randint(2, 4)
            lat = random_even_gram(rng, n)
            q = symbol_of(lat)
            if abs(lat.det) > 81:
                continue
            ps = [p for p in (3, 5, 7) if q.ell_p(p)]
            if not ps:
                continue
            p = ps[0]
            checked += 1
            mine = overlattice_forms(q, p, p * p)
            oracle = _direct_overlattice_forms(lat, p, p * p)
            for f in oracle:
                assert any(isomorphic(f, g) for g in mine), render_symbol(f)
            for g in mine:
                assert any(isomorphic(f, g) for f in oracle), render_symbol(g)


def subgroup_span(moduli, gens) -> frozenset:
    """All elements of the subgroup generated by gens: e + k g for every
    element e found so far and every multiple k g."""
    zero = tuple(0 for _ in moduli)
    elems = {zero}
    for g in gens:
        layer, step = list(elems), g
        while step != zero:
            elems.update(tuple((x + y) % m for m, x, y in zip(moduli, e, step)) for e in layer)
            step = tuple((x + y) % m for m, x, y in zip(moduli, step, g))
    return frozenset(elems)


def whole_group_isotropic_subgroups(moduli, coeffs, max_order):
    """Oracle: every subgroup of order <= max_order, grown breadth first from
    the trivial one by every element of the group, each spanned; the
    isotropic ones are those on which every element has Fraction q-value 0.
    Yields (|H|, generators)."""
    def q(e):
        return sum(Fraction(c * x * x, m) for m, c, x in zip(moduli, coeffs, e)) % 2

    trivial = subgroup_span(moduli, [])
    yield 1, []
    every = list(product(*map(range, moduli)))
    seen = {trivial}
    frontier = [(trivial, [])]
    while frontier:
        nxt = []
        for elems, gens in frontier:
            for g in every:
                if g in elems:
                    continue
                new = subgroup_span(moduli, gens + [g])
                if len(new) > max_order or new in seen:
                    continue
                seen.add(new)
                nxt.append((new, gens + [g]))
                if all(q(e) == 0 for e in new):
                    yield len(new), gens + [g]
        frontier = nxt


def whole_group_candidates(q, p, max_order):
    """Oracle for overlattice_candidates(q, p, max_order) as a multiset of
    (|H|, form), each item counted count times: the whole-group search, and
    one overlattice (row_hnf, _overlattice_gram, symbol_of) per isotropic
    H."""
    diag, moduli, coeffs = _realize_p_part(q, p)
    scale = math.lcm(*moduli)
    lattice_rows = [tuple(scale if i == j else 0 for j in range(len(moduli)))
                    for i in range(len(moduli))]
    out = Counter()
    for order, gens in whole_group_isotropic_subgroups(moduli, coeffs, max_order):
        rows = lattice_rows + [tuple(x * (scale // m) for x, m in zip(g, moduli))
                               for g in gens]
        over = IntegralLattice(_overlattice_gram(ex.row_hnf(ex.to_mat(rows)), diag, scale))
        out[order, direct_sum(q.away_part(p), symbol_of(over, (p,)))] += 1
    return out


def random_p_form(rng, p):
    """A random form with a nontrivial p-part of order at most max(81, p^2),
    half of the time beside a rank-1 component at another odd prime."""
    budget = 4 if p == 3 else 2
    while True:
        comps, used = [], 0
        for scale in range(1, budget + 1):
            rank = rng.randint(0, (budget - used) // scale)
            if rank:
                comps.append(J(p, scale, rank, rng.choice((1, -1))))
                used += scale * rank
        if comps:
            break
    if rng.random() < 0.5:
        other = rng.choice([r for r in (3, 5, 7) if r != p])
        comps.append(J(other, 1, 1, rng.choice((1, -1))))
    return F(*comps)


def test_unconstrained_search_matches_whole_group_oracle(rng):
    # random p-parts of order <= max(81, p^2) at p = 3, 5, 7, then random
    # even Grams of rank 2-4 at p = 3, 5, each at |H| <= p and p^2
    queries = [(random_p_form(rng, p), p) for p in (3, 5, 7) for _ in range(40)]
    while len(queries) < 160:
        q = symbol_of(random_even_gram(rng, rng.randint(2, 4)))
        ps = [p for p in (3, 5) if q.ell_p(p) and q.p_part(p).group_order() <= 81]
        if ps:
            queries.append((q, rng.choice(ps)))
    checked = 0
    for q, p in queries:
        for max_order in (p, p * p):
            got = Counter()
            for h, form, count in overlattice_candidates(q, p, max_order):
                got[h, form] += count
            assert got == whole_group_candidates(q, p, max_order), (render_symbol(q), p)
            checked += 1
    assert checked >= 200


def test_candidate_sequence_matches_oracle(rng):
    # the trivial H first, then the items of the search that sets up every
    # walk before its first yield: on an elementary p-part and beside a
    # scale-1 D block, (|H|, form, number of H) per order of that listing,
    # and on any other p-part its (|H|, form) for each H, with count 1:
    # random p-parts, the same forms with the p-part dropped, and random
    # even Grams, each at max_order 1, p - 1, p and p^2
    queries = []
    for p in (3, 5, 7):
        for _ in range(10):
            q = random_p_form(rng, p)
            queries += [(q, p), (q.away_part(p), p)]
    while len(queries) < 80:
        q = symbol_of(random_even_gram(rng, rng.randint(2, 4)))
        ps = [p for p in (3, 5) if q.ell_p(p) and q.p_part(p).group_order() <= 81]
        if ps:
            queries.append((q, rng.choice(ps)))
    checked = nontrivial = 0
    for q, p in queries:
        d_block = F(J(p, 1, rng.randint(1, 2), rng.choice((1, -1))))
        for max_order in (1, p - 1, p, p * p):
            want = [(h, render_symbol(f), n) for h, f, n in orders_oracle(q, p, max_order)]
            got = [(h, render_symbol(f), count)
                   for h, f, count in overlattice_candidates(q, p, max_order)]
            assert got == want, (render_symbol(q), p, max_order)
            # glued: one item per order, with its number of H
            want = [(h, render_symbol(f), n)
                    for h, f, n in orders_oracle(q, p, max_order, d_block)]
            got_glued = [(h, render_symbol(f), count)
                         for h, f, count in overlattice_candidates(q, p, max_order, d_block)]
            assert got_glued == want, (render_symbol(q), p, max_order, d_block)
            checked += 2
            nontrivial += (len(got) > 1) + (len(got_glued) > 1)
    assert checked == 8 * len(queries)
    assert nontrivial >= 100, nontrivial


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_elementary_orders_match_the_walk(p):
    # every elementary p-part p^(+-n), alone and beside 13^+1, at max_order
    # p, p^2 and p^n, wherever the echelon walk lists at most 20,000
    # subspaces: one item per order, ascending, whose counts sum the walk's
    # (|H|, form) with the same components; the first 25 H of each order
    # also rebuild their own overlattice
    checked = 0
    for n in range(1, 20):
        for max_order in sorted({p, p * p, p ** n}):
            if sum(_subspace_count(p, n, k) for k in range(n + 1) if p ** k <= max_order) > 20000:
                continue
            for sign, beside in product((1, -1), ((), (J(13, 1, 1, 1),))):
                q = F(J(p, 1, n, sign), *beside)
                items = list(overlattice_candidates(q, p, max_order))
                assert [h for h, _, _ in items] == sorted({h for h, _, _ in items})
                got = Counter()
                for h, form, count in items:
                    got[h, form.components] += count
                want = Counter((h, form.components) for h, form
                               in overlattice_candidates_oracle(q, p, max_order))
                assert got == want, (render_symbol(q), max_order)
                _per_candidate_walk(q, None, p, max_order, per_order=25)
                checked += 1
    assert checked == {3: 72, 5: 52, 7: 48, 11: 44}[p], checked


def test_small_max_order_realizes_no_p_part(monkeypatch):
    # with max_order < p only the trivial H is admissible, so no p-part is
    # realized and no walk is set up, not even on a group past the cap; the
    # D block's scale is still checked first
    from k3lat import fqf
    from k3lat.hmdata import load_table
    from k3lat.k3class import n_form, primitively_embeds

    def refuse(*args):
        raise AssertionError("_realize_p_part called")

    monkeypatch.setattr(fqf, "_realize_p_part", refuse)
    for text, p in (("3^+2", 3), ("4_3^-1 3^-1 7^-1", 7), ("9^+8", 3), ("5^+1 25^-1", 5)):
        q = parse_symbol(text)
        q_d = negate(n_form(p, 1).q)
        for max_order in (1, p - 1):
            assert list(overlattice_candidates(q, p, max_order)) == [(1, q, 1)]
            assert list(overlattice_candidates(q, p, max_order, q_d)) == [
                (1, direct_sum(q, q_d), 1)]
    with pytest.raises(ValueError, match="scale 1"):
        next(overlattice_candidates(parse_symbol("9^+1"), 3, 1, parse_symbol("3^+1 9^-1")))
    # every sigma = 1 table decision at a prime not dividing |A_S|
    decisions = 0
    for rec in load_table():
        for p in (13, 17, 19):
            if not rec.q_s.ell_p(p):
                assert primitively_embeds(rec.q_s, rec.rank, p, 1).candidates_tried == 1
                decisions += 1
    assert decisions > 150


@pytest.mark.parametrize("text,max_order,outcome,seconds", [
    ("9^+8", 9, "LimitExceeded", 1),  # 9^8 elements: refused before any is listed
    ("9^+5", 9, "LimitExceeded", 60),  # 9^5 elements, but too many extensions
    ("9^+3", 81, "8", 1),
])
def test_unconstrained_search_ends_on_large_groups(text, max_order, outcome, seconds):
    # in a child process under the 2 GiB cap, so that a hang or a blow-up
    # fails instead of stalling the suite
    code = ("import time\n"
            "from k3lat._exact import LimitExceeded\n"
            "from k3lat.fqf import overlattice_forms\n"
            "from k3lat.hmdata import parse_symbol\n"
            f"q = parse_symbol({text!r})\n"
            "started = time.perf_counter()\n"
            "try:\n"
            f"    outcome = len(overlattice_forms(q, 3, {max_order}))\n"
            "except LimitExceeded:\n"
            "    outcome = 'LimitExceeded'\n"
            "print(outcome, time.perf_counter() - started)\n")
    res = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, timeout=120,
                         preexec_fn=cap_child_memory)
    assert res.returncode == 0, res.stderr
    got, elapsed = res.stdout.split()
    assert got == outcome
    assert float(elapsed) < seconds


# (|H|, gens) of the breadth-first walk at p = 3, |H| <= 81, recorded
# before the walk skipped the x whose <H, x> it had built from H already
ISOTROPIC_WALKS = json.loads(
    (Path(__file__).parent / "data" / "isotropic_walks.json").read_text())


@pytest.mark.parametrize("text", sorted(ISOTROPIC_WALKS))
def test_isotropic_walk_matches_the_recorded_sequence(text):
    _, moduli, coeffs = _realize_p_part(parse_symbol(text), 3)
    got = [[h, [list(g) for g in gens]] for h, gens in _isotropic_subgroups(moduli, coeffs, 81)]
    assert got == ISOTROPIC_WALKS[text]


def test_isotropic_walk_builds_each_child_once(monkeypatch):
    # 5^+2 25^+2 at |H| <= 125: 189 subgroups, after 4,130,096 _elem_add
    # calls while every x built its <H, x>; 53,396 since each child of H is
    # built once
    from k3lat import fqf

    calls = []
    add = fqf._elem_add
    monkeypatch.setattr(fqf, "_elem_add", lambda *args: calls.append(None) or add(*args))
    _, moduli, coeffs = _realize_p_part(parse_symbol("5^+2 25^+2"), 5)
    assert sum(1 for _ in _isotropic_subgroups(moduli, coeffs, 125)) == 189
    assert 5 * len(calls) <= 4130096


@pytest.mark.parametrize("p,sigma,text", [
    (3, 2, "3^+2"), (3, 2, "3^+1 9^-1"), (5, 1, "5^-2"), (5, 1, "5^+1 25^-1"),
])
def test_graph_walk_matches_fraction_isotropy_search(p, sigma, text):
    """The listing oracle of the glued search, with its integer q- and
    b-values, lists exactly the subgroups H with H ∩ A_S = H ∩ A_D = 0 on
    which q vanishes, found by Fraction q-values over every subspace of the
    p-torsion (H ∩ A_D = 0 makes H elementary)."""
    from k3lat.k3class import n_form

    _, mod_s, coef_s = _realize_p_part(parse_symbol(text), p)
    _, mod_d, coef_d = _realize_p_part(negate(n_form(p, sigma).q), p)
    moduli, coeffs = mod_s + mod_d, coef_s + coef_d
    ns = len(mod_s)

    def q(e):
        return sum(Fraction(c * x * x, m) for m, c, x in zip(moduli, coeffs, e)) % 2

    want, dropped = set(), 0
    steps = [m // p for m in moduli]
    for basis in subspaces_oracle(p, len(moduli), p * p):
        span = frozenset(subgroup_span(moduli, [tuple(x * st for x, st in zip(row, steps))
                                                 for row in basis]))
        # an isotropic graph: q vanishes and H ∩ A_S = 0
        if not all(q(e) == 0 and (any(e[ns:]) or not any(e[:ns])) for e in span):
            continue
        if all(any(e[:ns]) or not any(e[ns:]) for e in span):  # H ∩ A_D = 0
            want.add(span)
        else:
            dropped += 1
    got = [(h, frozenset(subgroup_span(moduli, gens)))
           for h, gens in graph_isotropic_subgroups(p, mod_s, coef_s, mod_d, coef_d, p * p)]
    assert all(h == len(span) for h, span in got)
    assert len({span for _, span in got}) == len(got)
    assert {span for _, span in got} == want
    if sigma == 2:
        # an H of order p^2 has two D generators, so b-values count; the
        # sigma = 2 N-forms are isotropic, so some graphs meet A_D and the
        # injectivity filter must drop them
        assert any(h == p * p for h, _ in got)
        assert dropped > 0


def _subspace_count(p, n, k):
    """The number of k-dimensional subspaces of F_p^n."""
    count = 1
    for i in range(k):
        count = count * (p ** (n - i) - 1) // (p ** (i + 1) - 1)
    return count


@settings(max_examples=40, deadline=None)
@example(3, {1, 2, 3}, [(1, 1), (2, 1), (1, 1)], 2)  # 3^+1 9^+2 27^+1: orders 3, 9
@example(5, {1}, [(2, 1), (1, 1), (1, 1)], 2)  # 5^+2: orders 5, 25
@example(5, {1}, [(1, 1), (1, 1), (1, 1)], 3)  # 5^+1 at sigma = 3: 3,150 H of order 5
@example(7, {1, 2}, [(2, -1), (1, 1), (1, 1)], 2)  # 7^-2 49^+1: the walk to 7^3
@given(st.sampled_from((3, 5, 7)), st.sets(st.integers(1, 3), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(1, 2), st.sampled_from((1, -1))), min_size=3, max_size=3),
       st.integers(1, 3))
def test_glued_orders_match_the_listing(p, scales, blocks, sigma):
    # q_S of scales p to p^3 glued to the N-form at sigma = 1, 2 or 3: each
    # order's (|H|, form, number of H) as the listing of every H gives it,
    # up to the largest |H| <= p^3 whose listing stays small (at most
    # 20,000 subspaces of A_D of the top dimension, 4,000 H in all); and as
    # the subspace walk of A_D with one backtrack per isometry type of U
    # gives it (the glued search before it counted types in closed form),
    # up to the largest |H| whose walk stays small (A_S[p] of at most
    # 20,000 elements, at most 20,000 subspaces of A_D of the top dimension)
    from k3lat.k3class import n_form

    q_s = F(*[J(p, k, rank, sign) for k, (rank, sign) in zip(sorted(scales), blocks)])
    q_d = negate(n_form(p, sigma).q)
    max_order, walk_order, got = 1, 1, None
    for k in range(1, min(q_s.ell_p(p), 2 * sigma) + 1):
        if _subspace_count(p, 2 * sigma, k) > 20000:
            break
        walk_order = p ** k
        items = [(h, f.components, count)
                 for h, f, count in overlattice_candidates(q_s, p, p ** k, q_d)]
        if k <= 3 and sum(n for *_, n in items) <= 4000 and max_order == p ** (k - 1):
            max_order, got = p ** k, items
    assume(max_order > 1)
    want = [(h, f.components, n) for h, f, n in orders_oracle(q_s, p, max_order, q_d)]
    assert got == want, (render_symbol(q_s), p, sigma, max_order)
    if p ** q_s.ell_p(p) <= 20000:
        got = [(h, f.components, n)
               for h, f, n in overlattice_candidates(q_s, p, walk_order, q_d)]
        want = [(h, f.components, n) for h, f, n in GraphWalk.orders(q_s, p, walk_order, q_d)]
        assert got == want, (render_symbol(q_s), p, sigma, walk_order)


def _isometric_tuples(p, norms, gram) -> int:
    """Exhaustive count of the independent tuples v_1, ..., v_k of F_p^w,
    under sum norms[i] x_i y_i, with b(v_a, v_b) = gram[a][b] mod p."""
    def b(x, y):
        return sum(c * s * t for c, s, t in zip(norms, x, y)) % p

    by_norm: dict = {}
    for v in product(range(p), repeat=len(norms)):
        by_norm.setdefault(b(v, v), []).append(v)

    def extend(chosen):
        a = len(chosen)
        if a == len(gram):
            return int(len(ex.modp_echelon(chosen, p)[0]) == a)
        return sum(extend(chosen + [v]) for v in by_norm.get(gram[a][a] % p, [])
                   if all(b(v, u) == gram[a][c] % p for c, u in enumerate(chosen)))

    return extend([])


@pytest.mark.parametrize("p", (3, 5, 7))
def test_type_counts_match_exhaustive_counts(p):
    # for each nondegenerate space (w, e) with p^w <= 10^6: the singular
    # vectors and the vectors of each norm by an exhaustive histogram,
    # |O(w, e)| from |O(w - 1, 1)| by the orbit of one norm, and Emb of every
    # type (n, d, j) of dimension k with p^(w k) <= 10^6 against the
    # isometric tuples, counted one by one for k >= 2
    nonres = ex.least_nonresidue(p)
    checked = 0
    for w in range(1, 13):
        if p ** w > 10 ** 6:
            break
        for e in (1, -1):
            norms = [1] * (w - 1) + [1 if e == 1 else nonres]
            hist = Counter({0: 1})
            for c in norms:
                step = Counter()
                for value, m in hist.items():
                    for x in range(p):
                        step[(value + c * x * x) % p] += m
                hist = step
            assert sum(hist.values()) == p ** w
            assert _singular_count(p, w, e) == hist[0]
            # O(w, e) acts transitively on the vectors of norm norms[-1],
            # with the isometries of their complement, of class 1, as stabilisers
            assert _orthogonal_order(p, w, e) == hist[norms[-1]] * _orthogonal_order(p, w - 1, 1)
            for k in range(1, w + 2):
                if p ** (w * k) > 10 ** 6:
                    break
                for j in range(k + 1):
                    n = k - j
                    for d in (1, -1) if n else (1,):
                        diag = [1] * (n - 1) + [1 if d == 1 else nonres] if n else []
                        if k == 1:
                            want = hist[diag[0]] if n else hist[0] - 1
                        else:
                            gram = [[diag[a] if a == c and a < n else 0 for c in range(k)]
                                    for a in range(k)]
                            want = _isometric_tuples(p, norms, gram)
                        assert _embeddings(p, n, d, j, w, e) == want, (w, e, n, d, j)
                        if (n, d, j) == (w, e, 0):
                            assert _orthogonal_order(p, w, e) == want
                        checked += 1
    assert checked >= 40


def _witness_checks(q_s, p, sigma) -> int:
    """Build the witness graph of every nonzero type term of every order the
    glued search yields for q_s against the sigma N-form, not only the one
    the search builds: each is isotropic, its A_S and A_D parts are each
    independent mod p (so |H| = p^k and H meets neither block), and it
    induces the yielded form.  Returns the number of witnesses checked."""
    from k3lat.k3class import n_form

    q_d = negate(n_form(p, sigma).q)
    _, mod_s, coef_s = _realize_p_part(q_s, p)
    _, mod_d, coef_d = _realize_p_part(q_d, p)
    moduli, n = mod_s + mod_d, math.lcm(*mod_s, *mod_d)
    weights = _value_weights(moduli, coef_s + coef_d, n)
    w_norms = [c for m, c in zip(mod_s, coef_s) if m == p]
    v = len(coef_d), ex.legendre(math.prod(-c for c in coef_d), p)
    w = len(w_norms), ex.legendre(math.prod(w_norms), p)
    forms = dict((h, f) for h, f, _ in overlattice_candidates(
        q_s, p, p ** min(q_s.ell_p(p), 2 * sigma), q_d))
    checked = 0
    for k in range(1, 2 * sigma + 1):
        for term, tau in _graph_terms(p, k, v, w, len(mod_s) - w[0]):
            if not term:
                continue
            gens = _graph_witness(p, mod_s, coef_s, coef_d, *tau)
            where = (render_symbol(q_s), p, sigma, tau)
            assert len(gens) == k, where
            assert all(_qnum(weights, g) % (2 * n) == 0 for g in gens), where
            assert all(_bnum(weights, g, h) % n == 0 for g in gens for h in gens), where
            s_part = [[x // (m // p) for x, m in zip(g, mod_s)] for g in gens]
            d_part = [g[len(mod_s):] for g in gens]
            assert len(ex.modp_echelon(s_part, p)[0]) == k, where
            assert len(ex.modp_echelon(d_part, p)[0]) == k, where
            if p ** k in forms:
                form = induced_form_oracle(q_s, p, gens, q_d)
                assert form.components == forms[p ** k].components, where
            checked += 1
    return checked


@pytest.mark.parametrize("p", (3, 5, 7, 10009))
def test_glued_witnesses_are_isotropic_graphs_of_the_counted_order(p):
    # q_S of scales p to p^3 and both signs at sigma = 1 to 3
    checked = 0
    for text in ("{p}^+1", "{p}^-2", "{p}^+3", "{p}^-1 {p2}^+1", "{p}^+2 {p2}^-1 {p3}^+1",
                 "{p2}^+2", "{p}^-4", "{p2}^-1 {p3}^+1"):
        q_s = parse_symbol(text.format(p=p, p2=p ** 2, p3=p ** 3))
        for sigma in (1, 2, 3):
            checked += _witness_checks(q_s, p, sigma)
    assert checked >= 60, checked


def test_glued_walk_counts_the_orders_passed_and_stops_at_the_first_without_a_graph():
    # a decision accepted at |H| = p^k counts the orders below it and not
    # its own; one that embeds at no order stops at the first order without
    # a graph, below max_order
    from k3lat.hmdata import load_table
    from k3lat.k3class import n_form, primitively_embeds

    row_20 = next(rec for rec in load_table() if rec.number == 20)
    # row 20 (5^+4) at p = 5, sigma = 2 embeds at |H| = 25 of at most 625
    d = primitively_embeds(row_20.q_s, row_20.rank, 5, 2)
    assert d.embeds and d.certificate.h_order == 25
    items = [(h, n) for h, _, n in overlattice_candidates(
        row_20.q_s, 5, 625, negate(n_form(5, 2).q))]
    assert items == [(1, 1), (5, 19344), (25, 2399280), (125, 1872000)]
    assert d.candidates_tried == 1 + 19344 + 1
    # 3^+1 9^+2 27^+1 at p = 3, sigma = 2: |H| <= 81, but A_S[3] pairs in
    # rank 1 only, so no U of dimension 3 (rank >= 2 in A_D) embeds
    q_s = parse_symbol("3^+1 9^+2 27^+1")
    d = primitively_embeds(q_s, 20, 3, 2)
    assert not d.embeds and d.candidates_tried == 29151
    items = [(h, n) for h, _, n in overlattice_candidates(q_s, 3, 81, negate(n_form(3, 2).q))]
    assert items == [(1, 1), (3, 1070), (9, 28080)]


class TestNikulin:
    def test_pinned(self):
        assert nikulin_exists(1, 0, parse_symbol("4_5^-1 3^+1 7^-1"))
        assert nikulin_exists(1, 1, F())
        assert nikulin_exists(1, 21, parse_symbol("3^+2"))
        assert not nikulin_exists(1, 0, parse_symbol("4_5^-1 3^+1 7^+1"))
        assert not nikulin_exists(0, 1, parse_symbol("4_5^-1 3^+1 7^-1"))
        assert not nikulin_exists(1, 0, parse_symbol("3^+2"))

    def test_huge_rank_ends_at_once(self):
        # the determinant classes come from pow(prime, count, m) per
        # component, never from |A| (2^(2*10^9) here) or a list of 10^9
        # blocks; in a child process, so that a hang fails after 30 s
        code = ("import time\n"
                "from k3lat.fqf import nikulin_exists\n"
                "from k3lat.hmdata import parse_symbol\n"
                "q = parse_symbol('4_3^+999999999')\n"
                "started = time.perf_counter()\n"
                "print(nikulin_exists(1, 999999998, q), time.perf_counter() - started)\n")
        res = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True, timeout=30,
                             preexec_fn=cap_child_memory)
        assert res.returncode == 0, res.stderr
        verdict, seconds = res.stdout.split()
        assert verdict == "True"
        assert float(seconds) < 1

    def test_matches_per_prime_oracle(self, rng):
        # random forms with 2-parts of order <= 2^5 and odd parts at 3, 5
        # and 7, at every signature (s+, s-) with s+ <= 3 and s- <= 9
        two_parts = list(_two_parts(5))
        branches = Counter()
        for _ in range(300):
            comps = list(rng.choice(two_parts))
            for p in (3, 5, 7):
                for k in rng.sample(range(1, 4), rng.randint(0, 2)):
                    comps.append(J(p, k, rng.randint(1, 3), rng.choice((1, -1))))
            q = F(*comps)
            ranks = {p: q.ell_p(p) for p in q.primes()}
            assert q.ranks() == ranks and q.ell() == max(ranks.values(), default=0)
            for sp, sm in product(range(4), range(10)):
                got = nikulin_exists(sp, sm, q)
                assert got == nikulin_exists_oracle(sp, sm, q), (render_symbol(q), sp, sm)
                if signature_mod8(q) == (sp - sm) % 8:
                    for p, ell in ranks.items():
                        if ell == sp + sm:
                            branches[p == 2, got] += 1
        # the determinant conditions, at 2 and at odd p, both pass and fail
        assert min(branches[key] for key in product((True, False), repeat=2)) >= 30, branches

    def test_memos_match_their_wrapped_functions(self):
        for rank, sign, oddity in product(range(1, 9), (1, -1), range(8)):
            for _ in range(2):
                assert (_two_adic_units(rank, sign, oddity)
                        == _two_adic_units.__wrapped__(rank, sign, oddity))
        for p in (3, 5, 7, 11, 13, 9973):
            for k, cls in product(range(1, 5), (1, -1)):
                for _ in range(2):
                    assert _tau_odd_rank1(p, k, cls) == _tau_odd_rank1.__wrapped__(p, k, cls)

    def test_det_classes_match_the_full_determinant(self, rng):
        # _det_unit_class_two against the product over the listed blocks
        for comps in _two_parts(6):
            want = 1
            for c in comps:
                for b in _two_blocks(c):
                    want *= b[2] if b[0] == "unit" else 7 if b[0] == "U" else 3
            assert _det_unit_class_two(comps) == want % 8, comps
        # _det_unit_mod against the p-free part of the full determinant
        for _ in range(60):
            q = symbol_of(random_even_gram(rng, rng.randint(1, 4), spread=4))
            for sig_minus in (0, 1, 2):
                det = (-1) ** sig_minus * q.group_order()
                for p in q.primes():
                    m = 8 if p == 2 else p
                    w = det // p ** ex.valuation(det, p)
                    assert _det_unit_mod(q, sig_minus, p, m) == w % m, render_symbol(q)

    def test_two_adic_det_class_is_the_sign_walk_class(self):
        # Thm 1.9.1 of Nikulin 1980 on every 2-part of order <= 2^10 without
        # an odd component of scale 2^1: every sign-walk variant isomorphic
        # to the form has the class of its canonical realization
        unique = [comps for comps in _two_parts(10)
                  if not any(c.scale == 1 and c.oddity is not None for c in comps)]
        assert len(unique) == 1509
        for comps in unique:
            assert two_reachable_det_classes(comps) == {_det_unit_class_two(comps)}, comps

    def test_accepts_realized_lattices(self, rng):
        for _ in range(150):
            lat = random_even_gram(rng, rng.randint(1, 4))
            sp, sm = lat.signature()
            assert nikulin_exists(sp, sm, symbol_of(lat)), lat.gram

    def test_complete_for_small_definite_lattices(self):
        """Both directions against complete enumerations: reduced positive
        definite even binary forms realize exactly the accepted rank-2 forms,
        and <2n> realizes exactly the accepted rank-1 forms."""
        dmax = 36
        realized2: dict = {}
        for a in range(1, 4):
            for c in range(a, dmax):
                for b in range(0, a + 1):
                    det = 4 * a * c - b * b
                    if not 0 < det <= dmax:
                        continue
                    q = symbol_of(IntegralLattice(((2 * a, b), (b, 2 * c))))
                    bucket = realized2.setdefault(det, [])
                    if not any(isomorphic(q, f) for f in bucket):
                        bucket.append(q)
        realized1 = {2 * n: symbol_of(IntegralLattice(((2 * n,),)))
                     for n in range(1, dmax // 2 + 1)}

        def components(p):
            out = []
            k = 1
            while p ** k <= dmax:
                r = 1
                while p ** (k * r) <= dmax:
                    for sign in (1, -1):
                        if p == 2:
                            for t in list(range(8)) + [None]:
                                try:
                                    out.append(J(2, k, r, sign, t))
                                except ValueError:
                                    pass
                        else:
                            out.append(J(p, k, r, sign))
                    r += 1
                k += 1
            return out

        comps = [c for p in (2, 3, 5, 7, 11) for c in components(p)]
        cands = [F()]
        for i, c1 in enumerate(comps):
            if c1.group_order() <= dmax:
                cands.append(F(c1))
            for c2 in comps[i + 1:]:
                if ((c1.prime, c1.scale) != (c2.prime, c2.scale)
                        and c1.group_order() * c2.group_order() <= dmax):
                    cands.append(F(c1, c2))
        for q in cands:
            order = q.group_order()
            want2 = any(isomorphic(q, f) for f in realized2.get(order, []))
            assert nikulin_exists(2, 0, q) == want2, render_symbol(q)
            want1 = order in realized1 and isomorphic(q, realized1[order])
            assert nikulin_exists(1, 0, q) == want1, render_symbol(q)


class TestComponentHash:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((2, 3, 5)).flatmap(lambda p: components_at(p, 1)))
    def test_equal_components_hash_alike(self, c):
        twin = J(c.prime, c.scale, c.rank, c.sign,
                 None if c.oddity is None else c.oddity + 8)
        assert twin == c and hash(twin) == hash(c)

    def test_hash_survives_a_pickle_into_another_process(self):
        # hash(None) differs between processes: a hash cached from it would
        # go stale in the process that loads the pickle
        comps = [J(2, 1, 2, 1, None), J(2, 1, 1, 1, 1)]  # 2_II^+2, 2_1^+1
        code = ("import pickle, sys\n"
                "from k3lat.fqf import JordanComponent as J\n"
                "got = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
                "fresh = [J(2, 1, 2, 1, None), J(2, 1, 1, 1, 1)]\n"
                "print(got == fresh, [hash(g) == hash(f) for g, f in zip(got, fresh)],\n"
                "      len(set(got) | set(fresh)))\n")
        res = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(comps).hex(),
                             env=child_env(), capture_output=True, text=True, timeout=30,
                             preexec_fn=cap_child_memory)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "True [True, True] 2"


class TestValidation:
    def test_component_validation(self):
        with pytest.raises(ValueError):
            J(2, 1, 1, 1, 0)  # rank-1 odd component needs odd oddity
        with pytest.raises(ValueError):
            J(2, 1, 3, 1, None)  # even type needs even rank
        with pytest.raises(ValueError):
            J(3, 1, 1, 1, 3)  # no oddity at odd primes
        with pytest.raises(ValueError):
            J(2, 1, 1, -1, 1)  # sign inconsistent with oddity at rank 1
        with pytest.raises(ValueError):
            FiniteQuadraticForm((J(3, 1, 1, 1), J(3, 1, 2, 1)))

    def test_two_adic_units_match_exhaustive_search(self):
        # a rank, sign and oddity admit odd units iff some tuple of odd
        # residues mod 8 has that trace and determinant class
        for rank in range(1, 6):
            for sign, oddity in product((1, -1), range(8)):
                found = [u for u in product((1, 3, 5, 7), repeat=rank)
                         if sum(u) % 8 == oddity
                         and (1 if math.prod(u) % 8 in (1, 7) else -1) == sign]
                blocks = _two_blocks(J(2, 1, rank, sign, oddity)) if found else None
                assert (_two_adic_units(rank, sign, oddity) is None) == (not found)
                if found:
                    assert tuple(b[2] for b in blocks) in found
        # the leading 1s are counted, not listed
        assert _two_adic_units(999999999, 1, 1) == (3, 3, 7)


class TestBlockValues:
    BLOCKS = ([("unit", k, u) for k in range(1, 5) for u in (1, 3, 5, 7)]
              + [(kind, k) for kind in ("U", "V") for k in range(1, 5)])

    @pytest.mark.parametrize("block", BLOCKS, ids=str)
    def test_torsion_table_filters_the_full_table(self, block):
        """The table lists q over the block group element by element; on each
        2^t-torsion subgroup its filter has the value distribution of the
        discriminant form of the block's lattice (<m u>, m U or m V)."""
        k = block[1]
        m = 1 << k
        full = _block_values(block)
        elems = ([(x,) for x in range(m)] if block[0] == "unit"
                 else [(x, y) for x in range(m) for y in range(m)])
        assert len(full) == len(elems)
        if block[0] == "unit":
            gram = ((m * block[2],),)
        else:
            gram = ((0, m), (m, 0)) if block[0] == "U" else ((2 * m, m), (m, 2 * m))
        data = discriminant_form_values(IntegralLattice(gram))
        for t in range(1, k + 1):
            got = sorted(v for e, v in zip(elems, full)
                         if all((x << t) % m == 0 for x in e))
            want = sorted(v for a, v in _disc_values(data)
                          if all((x << t) % d == 0 for x, d in zip(a, data[0])))
            assert got == want
