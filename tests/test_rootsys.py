import operator
from fractions import Fraction
from functools import reduce
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from k3lat import _exact as ex
from k3lat._exact import LimitExceeded
from k3lat.fqf import render_symbol, symbol_of
from k3lat.intlat import roots
from k3lat.rootsys import (
    _ambient_system,
    _cartan_e,
    _datum_from_ambient,
    _reflection_matrix,
    Isometry,
    IsometryGroup,
    a4_a4_pieces,
    acts_trivially_on_disc,
    breadth_first,
    build,
    named_elements,
    perm_mul,
    reflection,
    simple_reflections,
    t_sublattice,
    theta_e8,
    weights,
    weyl_group,
)

from conftest import (
    aut_group,
    datum_by_adjugate,
    is_identity,
    isometry_inverse,
    mat_inv,
    roots_by_reflection_matrices,
)


class TestBuild:
    @pytest.mark.parametrize("label,count", [
        ("A1", 2), ("A2", 6), ("A7", 56), ("D4", 24), ("D5", 40),
        ("E6", 72), ("E7", 126), ("E8", 240),
    ])
    def test_root_counts(self, label, count):
        assert len(build(label).roots) == count

    def test_gram_matches_simple_pairings(self):
        a2 = build("A2")
        assert a2.gram == ((2, -1), (-1, 2))
        d4 = build("D4")
        assert d4.gram[1] == (-1, 2, -1, -1)  # the central node

    def test_every_root_has_norm_two(self):
        for label in ("A3", "D4", "E6", "E8"):
            datum = build(label)
            assert all(datum.inner(r, r) == 2 for r in datum.roots)

    def test_root_list_matches_short_vector_enumeration(self):
        for label in ("A3", "D4", "E6"):
            datum = build(label)
            assert set(datum.roots) == {tuple(r) for r in roots(datum.lattice())}

    def test_e8_highest_root(self):
        e8 = build("E8")
        th = theta_e8()
        assert e8.is_root(th)
        assert e8.simple_to_ambient(th) == tuple(
            Fraction(x) for x in (1, 1, 0, 0, 0, 0, 0, 0))

    def test_every_spelling_of_a_label_gives_one_datum(self):
        d4 = build("D4")
        assert all(build(label) is d4 for label in ("d4", " D4", "D(4)", "D04"))
        assert d4.label == "D4"

    def test_unsupported_labels(self):
        for label in ("B2", "D3", "E9", "A0", "", " ", "()"):
            with pytest.raises(ValueError):
                build(label)


class TestIntegerRootData:
    @pytest.mark.parametrize("kind,m", [
        *(("A", m) for m in range(1, 25)), *(("D", m) for m in range(4, 25)), ("E", 8),
    ])
    def test_matches_fraction_solve(self, kind, m):
        # the adjugate solve that the W-orbit walk of _datum_from_ambient
        # replaced: the same gram, the same roots in amb_roots order
        simples, amb_roots = _ambient_system(kind, m)
        gram, roots = datum_by_adjugate(simples, amb_roots)
        datum = build(f"{kind}{m}")
        assert datum.gram == gram and datum.roots == roots
        assert datum.simple_ambient == tuple(tuple(s) for s in simples)
        assert all(isinstance(x, int) for r in datum.roots for x in r)

    def test_vector_outside_root_lattice_raises(self):
        # (1, 0, 0) pairs to (1, 0) with the simple roots of A2, which puts it
        # at (2/3, 1/3) in simple coordinates; truncation would give (0, 0)
        simples, amb_roots = _ambient_system("A", 2)
        for solve in (datum_by_adjugate, lambda s, r: _datum_from_ambient("A2", s, r)):
            with pytest.raises(ArithmeticError):
                solve(simples, amb_roots + [(1, 0, 0)])

    def test_coordinate_outside_half_integers_raises(self):
        simples, amb_roots = _ambient_system("A", 2)
        with pytest.raises(ArithmeticError):
            _datum_from_ambient("A2", simples, [(Fraction(1, 4), Fraction(-1, 4), 0)])


class TestReflections:
    def test_involution_and_negation(self):
        a2 = build("A2")
        s = reflection(a2, (1, 0))
        assert s.apply((1, 0)) == (-1, 0)
        assert is_identity(s * s)

    def test_inverse_of_reflection_is_itself(self):
        s = reflection(build("A2"), (1, 0))
        assert isometry_inverse(s) == s

    def test_non_integral_inverse_raises(self):
        # the inverse diag(1, 1/2) used to come back truncated as diag(1, 0)
        with pytest.raises(ArithmeticError):
            isometry_inverse(Isometry(((1, 0), (0, 2))))

    def test_rejects_non_roots(self):
        with pytest.raises(ValueError):
            reflection(build("A2"), (2, 0))

    def test_order_five_product_in_e8(self):
        e8 = build("E8")
        sm = simple_reflections(e8)
        s_neg = reflection(e8, tuple(-t for t in theta_e8()))
        assert (s_neg * sm[0] * sm[1] * sm[2]).order() == 5


class TestPermMul:
    @given(st.integers(1, 240).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
    def test_matches_composition_by_index(self, pair):
        a, b = (bytes(x) for x in pair)
        assert perm_mul(a, b) == bytes(a[x] for x in b)


def pop_order_walk(identity, gens):
    """The group walk breadth_first replaced: each element is yielded when
    its level is expanded, not when it is found."""
    tables = [g.ljust(256, b"\0") for g in gens]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            yield x
            for t in tables:
                y = x.translate(t)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt


def all_simple_roots_closure(cartan):
    """Every root, as the closure of all simple roots under the simple
    reflections."""
    n = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    refls = [_reflection_matrix(cartan, s) for s in simples]
    roots_found = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for r in frontier:
            for m in refls:
                img = ex.mat_vec(m, r)
                if img not in roots_found:
                    roots_found.add(img)
                    nxt.append(img)
        frontier = nxt
    return tuple(sorted(roots_found))


class TestBreadthFirst:
    def test_d5_coxeter_pair_matches_the_pop_order_walk(self):
        datum = build("D5")
        refl = simple_reflections(datum)
        gens = [datum.perm_of(reduce(operator.mul, refl)), datum.perm_of(refl[3])]
        tables = [g.ljust(256, b"\0") for g in gens]
        identity = bytes(range(len(datum.roots)))
        walk = list(breadth_first(identity, lambda x: [x.translate(t) for t in tables]))
        assert walk == list(pop_order_walk(identity, gens))
        assert len(walk) == len(set(walk)) == 1920

    @pytest.mark.parametrize("taken,expanded", [(1, 0), (2, 1), (3, 1), (4, 2), (7, 3)])
    def test_step_runs_only_as_far_as_the_consumer_reads(self, taken, expanded):
        # the binary tree n -> 2n, 2n + 1 is infinite: only a lazy walk ends
        calls = []
        walk = breadth_first(1, lambda n: calls.append(n) or (2 * n, 2 * n + 1))
        assert list(islice(walk, taken)) == list(range(1, taken + 1))
        assert calls == list(range(1, expanded + 1))

    @pytest.mark.parametrize("m,count", [(6, 72), (7, 126)])
    def test_e_roots_match_the_closure_of_all_simple_roots(self, m, count):
        expected = all_simple_roots_closure(_cartan_e(m))
        assert build(f"E{m}").roots == expected and len(expected) == count
        # and the walk of alpha_1 by n x n reflection matrices that _root_orbit replaced
        assert roots_by_reflection_matrices(_cartan_e(m)) == expected


class TestWeylGroups:
    @pytest.mark.parametrize("label,order", [
        ("A2", 6), ("A3", 24), ("D4", 192), ("D5", 1920), ("E6", 51840),
    ])
    def test_orders(self, label, order):
        assert weyl_group(build(label)).order == order

    def test_cap(self):
        with pytest.raises(LimitExceeded, match="group closure exceeds the cap of 100 "):
            weyl_group(build("D5"), max_size=100)
        # a group closed before under a larger cap is refused too
        grp = weyl_group(build("D5"))
        with pytest.raises(LimitExceeded, match="group closure exceeds the cap of 1919 "):
            grp.closure_perms(1919)
        assert len(grp.closure_perms(1920)) == 1920

    def test_transitive_on_roots(self):
        datum = build("D4")
        grp = weyl_group(datum)
        r0 = datum.roots[0]
        orbit = {tuple(iso.apply(r0)) for iso in grp.elements()}
        assert orbit == set(datum.roots)

    def test_every_element_preserves_gram(self):
        datum = build("A3")
        g = datum.gram
        for iso in weyl_group(datum).elements():
            assert ex.mat_mul(ex.mat_mul(ex.transpose(iso.matrix), g), iso.matrix) == g

    def test_aut_orders(self):
        assert aut_group(build("D4")).order == 1152
        assert aut_group(build("D5")).order == 3840
        assert aut_group(build("A3")).order == 48
        assert aut_group(build("E6")).order == 103680

    def test_weyl_index_in_aut(self):
        # signed permutations have index 3 in Aut(D4)
        d4 = build("D4")
        signed = 4 * 3 * 2 * 1 * 2 ** 4
        assert aut_group(d4).order // signed == 3

    def test_d5_aut_is_signed_permutations(self):
        assert aut_group(build("D5")).order == 120 * 2 ** 5

    def test_d5_full_stabilizer_exhaustive(self):
        """Count ALL Gram-preserving basis images by backtracking: the full
        isometry group of D5 equals the signed permutations."""
        datum = build("D5")
        g = datum.gram
        roots_list = datum.roots

        def pair(u, v):
            return datum.inner(u, v)

        simples = [tuple(1 if j == i else 0 for j in range(5)) for i in range(5)]
        count = 0

        def backtrack(i, chosen):
            nonlocal count
            if i == 5:
                count += 1
                return
            for r in roots_list:
                if all(pair(r, c) == g[i][j] for j, c in enumerate(chosen)):
                    backtrack(i + 1, chosen + [r])

        backtrack(0, [])
        assert count == 3840


class TestNamedElements:
    def test_d4_relations(self):
        d4 = build("D4")
        nm = named_elements(d4)
        g, x, y, gx, gx2 = nm["g"], nm["x"], nm["y"], nm["gx"], nm["gx2"]
        assert g.order() == x.order() == gx.order() == 3
        assert y.order() == 2
        assert (g * x).matrix == (x * g).matrix
        assert (y * gx * isometry_inverse(y)).matrix == gx2.matrix
        assert g.apply((0, 1, 0, 0)) == (-1, -2, -1, -1)
        grp = IsometryGroup(d4, (g, x))
        assert grp.order == 9  # Sylow 3-subgroup: 1152 = 2^7 * 3^2

    def test_d4_weyl_membership(self):
        d4 = build("D4")
        nm = named_elements(d4)
        assert acts_trivially_on_disc(d4, nm["g"])
        assert not acts_trivially_on_disc(d4, nm["x"])
        assert not acts_trivially_on_disc(d4, nm["y"])

    def test_order_three_classes(self):
        # every order-3 subgroup is conjugate to <g>, <x> or <gx>
        d4 = build("D4")
        grp = aut_group(d4)
        subgroups = set()
        for perm in grp.closure_perms():
            iso = d4.matrix_of_perm(perm)
            if iso.order() == 3:
                elems = frozenset({perm,
                                   d4.perm_of(iso * iso),
                                   d4.perm_of(Isometry(ex.identity(4)))})
                subgroups.add(elems)
        perms = sorted(grp.closure_perms())

        def conj_orbit(sub):
            orbit = {sub}
            frontier = [sub]
            gens = [d4.perm_of(g) for g in grp.generators]
            inv = {c: bytes(sorted(range(len(c)), key=c.__getitem__)) for c in gens}
            while frontier:
                nxt = []
                for s in frontier:
                    for c in gens:
                        ci = inv[c]
                        img = frozenset(bytes(c[s_elem[ci[i]]] for i in range(len(ci)))
                                        for s_elem in s)
                        if img not in orbit:
                            orbit.add(img)
                            nxt.append(img)
                frontier = nxt
            return orbit

        classes = []
        pool = set(subgroups)
        while pool:
            rep = pool.pop()
            orbit = conj_orbit(rep)
            pool -= orbit
            classes.append(orbit)
        assert len(classes) == 3

    def test_e8_named(self):
        e8 = build("E8")
        nm = named_elements(e8)
        a, b = nm["a"], nm["b"]
        assert a.order() == 5 and b.order() == 5
        assert (a * b).matrix == (b * a).matrix
        assert IsometryGroup(e8, (a, b)).order == 25
        e4 = (0, 0, 0, 1, 0, 0, 0, 0)
        diff = tuple(u - v for u, v in zip(a.apply(e4), e4))
        assert e8.is_root(diff)

    def test_a4_pieces_are_orthogonal_a4s(self):
        e8 = build("E8")
        p1, p2 = a4_a4_pieces(e8)
        for piece in (p1, p2):
            gram = [[e8.inner(u, v) for v in piece] for u in piece]
            assert gram == [[2, -1, 0, 0], [-1, 2, -1, 0],
                            [0, -1, 2, -1], [0, 0, -1, 2]]
        assert all(e8.inner(u, v) == 0 for u in p1 for v in p2)

    def test_only_d4_e8_have_named(self):
        with pytest.raises(ValueError):
            named_elements(build("A2"))


class TestTSublattice:
    def test_symbols(self):
        # for p >= 5 the discriminant is (Z/p)^3 with the split sign.
        for p in (5, 7, 11, 13):
            assert render_symbol(symbol_of(t_sublattice(p).as_lattice())) == f"{p}^+3"
        # p = 3 is the rank-2 exception: Z/3 x Z/9
        assert render_symbol(symbol_of(t_sublattice(3).as_lattice())) == "3^-1 9^-1"

    def test_index(self):
        for p in (3, 5, 7):
            assert t_sublattice(p).index() == p

    def test_rejects_non_primes(self):
        for bad in (2, 4, 9):
            with pytest.raises(ValueError):
                t_sublattice(bad)


class TestWeights:
    @pytest.mark.parametrize("label", [*(f"A{m}" for m in range(1, 25)),
                                       *(f"D{m}" for m in range(4, 25)), "E6", "E7", "E8"])
    def test_matches_the_fraction_inverse(self, label):
        datum = build(label)
        ginv = mat_inv(datum.gram)
        assert weights(datum) == tuple(zip(*ginv))
        assert all(isinstance(x, Fraction) for w in weights(datum) for x in w)

    def test_defining_property(self):
        for label in ("A2", "D4", "E8"):
            datum = build(label)
            ws = weights(datum)
            for i, w in enumerate(ws):
                for j in range(datum.rank):
                    e = tuple(1 if t == j else 0 for t in range(datum.rank))
                    assert datum.inner(w, e) == (1 if i == j else 0)

    def test_a2_closed_form(self):
        ws = weights(build("A2"))
        # w_1 = (1/3)(2 a_1 + a_2)
        assert ws[0] == (Fraction(2, 3), Fraction(1, 3))

    def test_weight_sum_in_t_sublattice(self):
        from k3lat.intlat import membership

        for p in (5, 7):
            n = p - 1
            ws = weights(build(f"A{n}"))
            total = tuple(sum(Fraction(w[j]) for w in ws) for j in range(n))
            assert all(x.denominator == 1 for x in total)
            assert membership(t_sublattice(p), tuple(int(x) for x in total))


def test_disc_triviality_detects_weyl():
    for label in ("A3", "A4", "D5", "E6"):
        datum = build(label)
        for s in simple_reflections(datum):
            assert acts_trivially_on_disc(datum, s)
