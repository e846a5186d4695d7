import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from k3lat import _exact as ex
from k3lat.fqf import (
    FiniteQuadraticForm,
    JordanComponent,
    _block_values,
    _det_unit_class_two,
    _graph_isotropic_subgroups,
    _overlattice_gram,
    _realize_p_part,
    _two_blocks,
    _two_reachable_det_classes,
    brute_force_tau,
    direct_sum,
    discriminant_form_values,
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

from conftest import forms_isomorphic_bruteforce, random_even_gram, unimodular_conjugate

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
        brute-force oracle finds the forms isomorphic, and the reachable det
        classes are those of the sign-flip variants isomorphic to the form."""
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
                    want.add(_det_unit_class_two(v))
            assert _two_reachable_det_classes(q) == want, render_symbol(q)

    def test_components_and_rendering_kept_as_constructed(self):
        q1 = F(J(2, 1, 1, 1, 1))
        q2 = F(J(2, 1, 1, -1, 5))
        assert q1 == q2 and hash(q1) == hash(q2)
        assert render_symbol(q2) == "2_5^-1"
        assert q2.components == (J(2, 1, 1, -1, 5),)
        assert len({q1, q2, F(J(2, 1, 1, -1, 3))}) == 2
        assert F(J(2, 1, 2, 1, None)) != F(J(2, 1, 2, -1, None))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=n + 2),
    st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n),
    st.integers(1, 6))))
def test_integer_overlattice_gram_matches_fraction_product(data):
    basis, g, scale = data
    gram = ex.to_mat([[g[i][j] + g[j][i] for j in range(len(g))] for i in range(len(g))])
    bfrac = tuple(tuple(Fraction(x, scale) for x in row) for row in basis)
    want = ex.mat_mul(ex.mat_mul(bfrac, gram), ex.transpose(bfrac))
    if all(x.denominator == 1 for row in want for x in row):
        assert _overlattice_gram(ex.to_mat(basis), gram, scale) == want
    else:
        with pytest.raises(ArithmeticError):
            _overlattice_gram(ex.to_mat(basis), gram, scale)


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
        q = parse_symbol("4_3^-1 3^-3 7^-1")
        qs = parse_symbol("4_3^-1 3^-1 7^-1")
        qd = parse_symbol("3^+2")
        forms = overlattice_forms(q, 3, 3, s_form=qs, d_form=qd)
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
        for h, form in overlattice_candidates(q, 3, 9):
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


@pytest.mark.parametrize("p,text", [(3, "3^+2"), (3, "3^+1 9^-1"), (5, "5^+2")])
def test_graph_injectivity_matches_combination_search(p, text):
    """psi is injective iff no nonzero combination of the generator images
    vanishes; the sigma = 2 N-forms are isotropic, so some graphs fail."""
    from k3lat.k3class import n_form

    _, mod_s, coef_s = _realize_p_part(parse_symbol(text), p)
    _, mod_d, coef_d = _realize_p_part(negate(n_form(p, 2).q), p)

    def injective(gens):
        images = [g[:len(mod_s)] for g in gens]
        return not any(any(lams) and all(sum(x * s[j] for x, s in zip(lams, images)) % m == 0
                                         for j, m in enumerate(mod_s))
                       for lams in product(range(p), repeat=len(images)))

    free = list(_graph_isotropic_subgroups(mod_s, coef_s, mod_d, coef_d, p * p, False))
    injective_only = list(_graph_isotropic_subgroups(mod_s, coef_s, mod_d, coef_d, p * p, True))
    assert injective_only == [(h, gens) for h, gens in free if injective(gens)]
    assert len(injective_only) < len(free)


class TestNikulin:
    def test_pinned(self):
        assert nikulin_exists(1, 0, parse_symbol("4_5^-1 3^+1 7^-1"))
        assert nikulin_exists(1, 1, F())
        assert nikulin_exists(1, 21, parse_symbol("3^+2"))
        assert not nikulin_exists(1, 0, parse_symbol("4_5^-1 3^+1 7^+1"))
        assert not nikulin_exists(0, 1, parse_symbol("4_5^-1 3^+1 7^-1"))
        assert not nikulin_exists(1, 0, parse_symbol("3^+2"))

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
