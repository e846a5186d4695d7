import copy
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from k3lat import _exact as ex
from k3lat import prootpair, rootsys
from k3lat._exact import LimitExceeded
from k3lat.intlat import (
    IntegralLattice,
    Sublattice,
    discriminant_group,
    is_primitive,
    roots,
    saturate,
)
from k3lat.prootpair import (
    SUBGROUP_ELEMENT_CAP,
    IsometryGroup,
    _class_sweep,
    _classify_universe,
    _conjugates,
    _coxeter_pair,
    _cyclic_generators,
    _good_elements,
    _in_sublattice,
    _perm_inv,
    _root_in_span,
    _rootless,
    _search_universe,
    _sharp_span_modp,
    _symmetric_times_sign_universe,
    _Universe,
    classify,
    disc_action_nontrivial,
    fixed_sublattice,
    p_group_check,
    sharp,
    verdict,
)
from k3lat.rootsys import (
    Isometry,
    acts_trivially_on_disc,
    aut_generators,
    build,
    group_closure,
    named_elements,
    perm_mul,
    simple_reflections,
    t_sublattice,
    weights,
    weyl_order,
)

from conftest import (
    aut_group,
    is_identity,
    mat_inv,
    modp_echelon_oracle,
    root_in_span_oracle,
)


def cycle_isometry(n):
    cols = [tuple(1 if i == j + 1 else 0 for i in range(n)) for j in range(n - 1)]
    cols.append(tuple(-1 for _ in range(n)))
    return Isometry(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))


D4 = build("D4")
NM = named_elements(D4)


class TestSharp:
    def test_trivial_group_gives_p_r(self):
        s = sharp(D4, [], 3)
        assert s.hnf_basis() == tuple(tuple(3 if i == j else 0 for j in range(4))
                                      for i in range(4))

    def test_cycle_gives_t_sublattice(self):
        for p in (3, 5, 7):
            a = build(f"A{p-1}")
            s = sharp(a, [cycle_isometry(p - 1)], p)
            assert s.hnf_basis() == t_sublattice(p).hnf_basis()

    def test_gx_explicit_basis(self):
        s = sharp(D4, [NM["gx"]], 3)
        expected = ex.row_hnf(ex.to_mat(
            [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3),
             (2, 1, 1, 0), (1, 0, 1, 1)]))
        assert s.hnf_basis() == expected

    def test_contains_pr_and_index_divides(self):
        rng = random.Random(3)
        grp = sorted(IsometryGroup(D4, (NM["g"], NM["x"])).closure_perms())
        for p in (3, 5):
            for perm in rng.sample(grp, 5):
                iso = D4.matrix_of_perm(perm)
                s = sharp(D4, [iso], p)
                for i in range(4):
                    v = tuple(p if j == i else 0 for j in range(4))
                    assert ex.in_row_span_int(s.hnf_basis(), v)
                idx = s.index()
                assert p ** 4 % idx == 0


def sharp_by_closure(datum, gens, p):
    """Oracle: the integer HNF of pR and the rows (g - 1)e_j of the
    generators, closed under the generators until it stops growing (the
    construction sharp replaced)."""
    n = datum.rank
    mats = [g.matrix for g in gens]
    rows = [tuple(p if j == i else 0 for j in range(n)) for i in range(n)]
    for m in mats:
        for j in range(n):
            rows.append(tuple(m[i][j] - (i == j) for i in range(n)))
    basis = ex.row_hnf(ex.to_mat(rows))
    while True:
        images = [ex.vec_mat(row, ex.transpose(m)) for m in mats for row in basis]
        closed = ex.row_hnf(ex.to_mat(list(basis) + images))
        if closed == basis:
            return basis
        basis = closed


def assert_sharp_matches_closure(datum, gens, p):
    want = sharp_by_closure(datum, gens, p)
    assert sharp(datum, gens, p).hnf_basis() == want
    v = verdict(datum, gens, p)
    assert v.sharp_lattice.hnf_basis() == want
    assert v.sharp_index == abs(ex.det_int(want))


class TestSharpAgainstClosure:
    """The generators' rows already span the sharp lattice mod pR."""

    @pytest.mark.parametrize("label,p", [
        ("D4", 3), ("D4", 5), ("D4", 7), ("D4", 11), ("D5", 3), ("D5", 5), ("D5", 7),
        *((f"A{m}", p) for m in range(1, 8) for p in (3, 5, 7)), ("E8", 5), ("E6", 5),
    ])
    def test_classify_entries(self, label, p):
        datum = build(label)
        for e in classify(datum, p).entries:
            assert_sharp_matches_closure(datum, e.generators, p)

    @pytest.mark.parametrize("label", ["D4", "E6"])
    def test_random_generator_sets(self, label):
        uni = perm_universe(label)
        rng = random.Random(label)
        for k in (2, 3):
            for _ in range(8):
                gens = [uni.datum.matrix_of_perm(x) for x in rng.sample(group_elements(label), k)]
                for p in (3, 5):
                    assert_sharp_matches_closure(uni.datum, gens, p)


class TestVerdict:
    def test_paper_cases(self):
        v = verdict(D4, [NM["gx"]], 3)
        assert v.is_pseudo and v.is_full and v.fixed_rank == 0
        v = verdict(D4, [NM["g"]], 3)
        assert not v.is_pseudo and v.witness_root is not None
        # alpha_2 itself lies in the sharp lattice of <g>
        assert ex.in_row_span_int(v.sharp_lattice.hnf_basis(), (0, 1, 0, 0))
        v = verdict(D4, [NM["x"]], 3)
        assert v.is_pseudo and not v.is_full and v.fixed_rank == 2
        v = verdict(D4, [NM["gx"]], 5)
        assert not v.is_pseudo

    @pytest.mark.parametrize("matrix", [
        ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), ((1, 0), (0, 1)),
    ], ids=["not-an-isometry", "2x2-for-D4"])
    @pytest.mark.parametrize("call", [
        lambda g: verdict(D4, g, 3), lambda g: sharp(D4, g, 3),
        lambda g: fixed_sublattice(D4, g)], ids=["verdict", "sharp", "fixed"])
    def test_matrix_list_is_checked(self, call, matrix):
        # a plain matrix is checked against the Gram form, as IsometryGroup does
        with pytest.raises(ValueError):
            call([matrix])

    def test_witness_is_a_root_in_sharp(self):
        v = verdict(D4, [NM["g"]], 3)
        assert v.witness_root in set(D4.roots)
        assert ex.in_row_span_int(v.sharp_lattice.hnf_basis(), v.witness_root)

    def test_transposition_on_a2_is_not_pseudo(self):
        # a reflection generates difference vectors 2*alpha, and 2 is a unit
        # mod p, so the root itself lands in the sharp lattice
        from k3lat.rootsys import reflection

        a2 = build("A2")
        s = reflection(a2, (1, 0))
        v = verdict(a2, [s], 3)
        assert not v.is_pseudo
        assert ex.in_row_span_int(v.sharp_lattice.hnf_basis(), (1, 0))


class TestFixed:
    def test_trivial_group(self):
        assert fixed_sublattice(D4, []).rank == 4

    def test_cycle_on_a2(self):
        assert fixed_sublattice(build("A2"), [cycle_isometry(2)]).rank == 0

    def test_e8_a_element(self):
        e8 = build("E8")
        a = named_elements(e8)["a"]
        assert fixed_sublattice(e8, [a]).rank == 4

    def test_fixed_is_saturated(self):
        f = fixed_sublattice(D4, [NM["x"]])
        assert is_primitive(D4.lattice(), f)


class TestDiscAction:
    def test_t_sublattice_witness(self):
        for p in (3, 5, 7, 11):
            n = p - 1
            g = cycle_isometry(n)
            nontrivial, x, diff = disc_action_nontrivial(t_sublattice(p), g)
            assert nontrivial
            ws = weights(build(f"A{n}"))
            x0 = tuple(sum(Fraction(w[j]) for w in ws) / p for j in range(n))
            d0 = tuple(u - v for u, v in zip(g.apply(x0), x0))
            assert d0 == tuple(-Fraction(v) for v in ws[0])

    def test_identity_trivial(self):
        sub = t_sublattice(3)
        ident = Isometry(ex.identity(2))
        assert disc_action_nontrivial(sub, ident)[0] is False

    def test_weyl_trivial_on_full_lattice(self):
        n = 4
        a = build(f"A{n}")
        g = cycle_isometry(n)
        full = Sublattice.full(a.lattice())
        assert disc_action_nontrivial(full, g)[0] is False

    def test_rejects_non_preserving(self):
        a2 = build("A2")
        line = Sublattice(a2.lattice(), ((1, 0),))
        with pytest.raises(ValueError):
            disc_action_nontrivial(line, cycle_isometry(2))


def in_sublattice_by_normal_equations(sub, vec):
    """Oracle: solve (B B^T) c = B v over Q for the basis rows B, and ask
    for c integral with c B = v (the membership disc_action_nontrivial
    replaced)."""
    b = sub.basis_matrix
    if not b:
        return all(x == 0 for x in vec)
    rhs = tuple(sum(Fraction(x) * y for x, y in zip(vec, row)) for row in b)
    coeffs = ex.mat_vec(mat_inv(ex.mat_mul(b, ex.transpose(b))), rhs)
    return (ex.vec_mat(coeffs, b) == tuple(Fraction(x) for x in vec)
            and all(c.denominator == 1 for c in coeffs))


def disc_action_by_normal_equations(sub, iso):
    for row in sub.basis_matrix:
        if not in_sublattice_by_normal_equations(sub, iso.apply(row)):
            raise ValueError("isometry does not preserve the sublattice")
    for lift in discriminant_group(sub.as_lattice()).generator_lifts:
        x = ex.vec_mat(lift, sub.basis_matrix)
        diff = tuple(a - b for a, b in zip(iso.apply(x), x))
        if not in_sublattice_by_normal_equations(sub, diff):
            return True, x, diff
    return False, None, None


class TestMembershipAgainstNormalEquations:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_disc_action_on_t_sublattices(self, p):
        sub = t_sublattice(p)
        n = p - 1
        cyc = cycle_isometry(n)
        isos = [Isometry(ex.identity(n)), Isometry(tuple(tuple(-x for x in r)
                                                         for r in ex.identity(n)))]
        for _ in range(n):
            isos.append(isos[-1] * cyc)
        if p <= 7:
            uni = perm_universe(f"A{n}")
            elements = group_elements(f"A{n}")
            sample = random.Random(p).sample(elements, min(20, len(elements)))
            isos += [uni.datum.matrix_of_perm(x) for x in sample]
        for iso in isos:
            try:
                want = disc_action_by_normal_equations(sub, iso)
            except ValueError:
                with pytest.raises(ValueError):
                    disc_action_nontrivial(sub, iso)
            else:
                assert disc_action_nontrivial(sub, iso) == want

    def test_random_rational_vectors(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(1, 5)
            amb = IntegralLattice(tuple(tuple(2 * x for x in r) for r in ex.identity(n)))
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))]
            basis = ex.row_hnf(ex.to_mat(rows)) if rows else ()
            sub = Sublattice(amb, basis)
            for _ in range(10):
                d = rng.choice((1, 1, 2, 3))
                coeffs = [rng.randint(-3, 3) for _ in basis]
                vec = ex.vec_mat(coeffs, basis) if basis else (0,) * n
                vec = tuple(Fraction(x + rng.choice((0, 0, 0, 1)), d) for x in vec)
                assert _in_sublattice(sub, vec) == in_sublattice_by_normal_equations(sub, vec)


class TestClassify:
    def test_d4(self):
        for p in (3, 5, 7, 11):
            out = classify("D4", p)
            assert not out.partial
            fulls = out.full_pairs()
            if p == 3:
                assert fulls
                for e in fulls:
                    assert e.verdict.fixed_rank == 0
                    # order-3 elements of a full pair have no fixed vectors,
                    # the signature of the <gx> class
                    for g in e.generators:
                        if g.order() == 3:
                            assert fixed_sublattice(D4, [g]).rank == 0
            else:
                assert not fulls

    def test_d5_shapes(self):
        for p in (3, 5, 7):
            out = classify("D5", p)
            assert not out.full_pairs()
            for e in out.entries:
                assert e.order in (1, 2)
                if e.order == 2:
                    g = next(g for g in e.generators if not is_identity(g))
                    # single sign flip: fixed rank 4, determinant -1
                    assert fixed_sublattice(build("D5"), [g]).rank == 4

    def test_a_sweep_power_rule(self):
        for m in range(1, 8):
            for p in (3, 5, 7):
                out = classify(f"A{m}", p)
                found = bool(out.full_pairs())
                n = m + 1
                while n % p == 0:
                    n //= p
                assert found == (n == 1), (m, p)

    def test_a2_contains_the_cycle_class(self):
        out = classify("A2", 3)
        a2 = build("A2")
        cyc = verdict(a2, [cycle_isometry(2)], 3)
        assert cyc.is_full
        orders = sorted(e.order for e in out.full_pairs())
        assert 3 in orders

    def test_e6_has_no_full_pairs_at_five(self):
        # 5 divides |W(E6)| yet no full pair exists; exhaustive over all
        # 103680 isometries and every subgroup inside the good set
        out = classify("E6", 5)
        assert not out.partial
        assert not out.full_pairs()

    def test_scope_markers(self):
        assert classify("A9", 3).partial
        assert classify("E7", 3).partial
        out = classify("E8", 5)
        assert out.partial and len(out.full_pairs()) > 0
        assert not classify("E8", 3).full_pairs()

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            classify("D4", 4)
        with pytest.raises(ValueError):
            classify("D4", 2)


@lru_cache(maxsize=None)
def universe_group(label):
    datum = build(label)
    if label == "E8":
        nm = named_elements(datum)
        return IsometryGroup(datum, (nm["a"], nm["b"]))
    return aut_group(datum)


@lru_cache(maxsize=None)
def perm_universe(label):
    """The universe classify searches: the parabolic Coxeter elements for
    A_m, a lazy class sweep otherwise."""
    return _search_universe(build(label))


@lru_cache(maxsize=None)
def closed_universe(label):
    """Oracle: the whole group closed (aut_group, or <a, b> for E8) and swept
    by bfs_class_sweep, conjugating by every generator."""
    datum = build(label)
    conj_gens = [datum.perm_of(g) for g in universe_group(label).generators]
    classes = bfs_class_sweep(conj_gens, group_elements(label))
    return _Universe(datum, conj_gens, [min(c) for c in classes])


def class_partition(uni):
    return {frozenset(uni.conjugacy_class(r)) for r in uni.reps}


@lru_cache(maxsize=None)
def group_elements(label):
    """The whole group of perm_universe(label), closed from its generators,
    in byte order."""
    return sorted(universe_group(label).closure_perms())


def rootless_span_at(uni, p):
    def rootless_span(keys):
        return _rootless(uni.datum, [uni.datum.matrix_of_perm(k).matrix for k in keys], p)

    return rootless_span


def good_elements(uni, p):
    return _good_elements(uni, rootless_span_at(uni, p))


def cyclic_subgroup(uni, g):
    out, x = {uni.identity}, g
    while x != uni.identity:
        out.add(x)
        x = perm_mul(x, g)
    return frozenset(out)


def subgroup_bfs(uni, elements, allowed, rootless_span) -> dict:
    """Every subgroup inside `allowed` grown from 1 by the given elements,
    breadth first; each pseudo subgroup is extended by each element in the
    order given.  Returns {subgroup: generator keys of its first path}, with
    None for a subgroup that is not pseudo (and so not grown)."""
    trivial = frozenset([uni.identity])
    found = {trivial: []}
    frontier = [(trivial, [])]
    while frontier:
        nxt = []
        for elems, gens in frontier:
            for g in elements:
                if g in elems:
                    continue
                new = group_closure(uni.identity, gens + [g], SUBGROUP_ELEMENT_CAP, allowed)
                if new is None or new in found:
                    continue
                if not rootless_span(gens + [g]):
                    found[new] = None
                    continue
                found[new] = gens + [g]
                nxt.append((new, gens + [g]))
        frontier = nxt
    return found


def bfs_classes(uni, p):
    """Oracle: the breadth-first search over every subgroup in the good set,
    every good element tried on every pseudo subgroup, then conjugacy classes
    by generator conjugation, each represented by its least subgroup."""
    good = good_elements(uni, p)
    found = subgroup_bfs(uni, sorted(good), good, rootless_span_at(uni, p))
    pool = {k: v for k, v in found.items() if v is not None}
    classes = []
    while pool:
        rep = min(pool, key=lambda s: tuple(sorted(s)))
        classes.append((rep, pool[rep]))
        for sub in _conjugates(uni, rep):
            pool.pop(sub, None)
    return sorted(classes, key=lambda rg: (len(rg[0]), tuple(sorted(rg[0]))))


class TestConjugacySearch:
    """The search up to conjugacy against the search over every subgroup."""

    @pytest.mark.parametrize("label,p", [
        ("D4", 3), ("D4", 5), ("D4", 7), ("D4", 11), ("D5", 3), ("D5", 5), ("D5", 7),
        *((f"A{m}", p) for m in range(1, 8) for p in (3, 5, 7)), ("E8", 5),
    ])
    def test_matches_whole_good_set_bfs(self, label, p):
        # the oracle searches the closed group
        uni = closed_universe(label)
        out = classify(uni.datum, p).entries
        want = bfs_classes(uni, p)
        assert len(out) == len(want)
        for entry, (rep, genkeys) in zip(out, want):
            gens = tuple(uni.datum.matrix_of_perm(k) for k in genkeys or [uni.identity])
            assert entry.order == len(rep)
            assert entry.generators == gens
            v = verdict(uni.datum, gens, p)
            assert entry.verdict.as_dict() == v.as_dict()
            assert entry.verdict.sharp_lattice.hnf_basis() == v.sharp_lattice.hnf_basis()

    @pytest.mark.parametrize("label,p", [
        *(("D5", p) for p in (3, 5, 7, 11)), *(("E6", p) for p in (3, 5, 7, 11, 13)),
    ])
    def test_weyl_times_sign_matches_aut_group_path(self, label, p):
        datum = build(label)
        want = _classify_universe(datum, p, closed_universe(label), partial=False,
                                  note="exhaustive over all subgroups")
        assert classify(datum, p) == want

    def test_e6_at_three(self):
        out = classify("E6", 3)
        assert not out.partial
        assert [e.order for e in out.entries] == [1, 2, 3, 3, 6, 6, 9, 18, 27, 54]
        assert [e.order for e in out.full_pairs()] == [3, 6, 9, 18, 27, 54]

    @pytest.mark.parametrize("label", ["D4", "A5", "E6"])
    def test_one_chosen_generator_per_cyclic_subgroup(self, label):
        # marking every power of g as covered, not only the generators of
        # <g>, would leave some cyclic subgroups with no chosen generator
        uni = perm_universe(label)
        good = good_elements(uni, 3)
        chosen = _cyclic_generators(uni, good)
        assert chosen == sorted(chosen) and set(chosen) <= good
        per_subgroup = Counter(cyclic_subgroup(uni, g) for g in chosen)
        for g in good:
            assert per_subgroup[cyclic_subgroup(uni, g)] == 1


def first_bfs_path(uni, rep):
    """Oracle: the first path to rep of the breadth-first walk that extends
    every subgroup of rep by each of its cyclic generators in order."""
    return subgroup_bfs(uni, _cyclic_generators(uni, rep), None, lambda keys: True)[rep]


def least_generator_calls(monkeypatch, label, p):
    """(universe, class rep, generators) of every _least_generators call
    that classify(label, p) makes."""
    calls, least = [], prootpair._least_generators
    monkeypatch.setattr(prootpair, "_least_generators",
                        lambda uni, rep: calls.append((uni, rep, least(uni, rep))) or calls[-1][2])
    classify(label, p)
    return calls


LEAST_GENERATOR_CASES = [
    *((f"A{m}", p) for m in range(1, 8) for p in (3, 5, 7)),
    *((label, p) for label in ("D4", "D5", "E6") for p in (3, 5, 7, 11, 13)),
    ("E8", 3), ("E8", 5),
]


class TestLeastGenerators:
    """Each class is named by the least combination of its cyclic generators
    that generates it, which is the first path of the walk over its
    subgroups."""

    @pytest.mark.parametrize("label,p", LEAST_GENERATOR_CASES)
    def test_match_first_bfs_path(self, monkeypatch, label, p):
        calls = least_generator_calls(monkeypatch, label, p)
        assert calls
        for uni, rep, gens in calls:
            assert gens == first_bfs_path(uni, rep)

    def test_e6_closure_count(self, monkeypatch):
        # the largest class of E6 at p = 3, |K| = 54 with 32 cyclic
        # generators, is named after 997 closures
        uni, rep, _ = max(least_generator_calls(monkeypatch, "E6", 3),
                          key=lambda call: len(call[1]))
        closures, closure = [], prootpair.group_closure
        monkeypatch.setattr(prootpair, "group_closure",
                            lambda *args: closures.append(args) or closure(*args))
        prootpair._least_generators(uni, rep)
        assert len(rep) == 54 and len(_cyclic_generators(uni, rep)) == 32
        assert len(closures) <= 1000


def bfs_class_sweep(conj_gens, elements):
    """Oracle: every conjugacy class of the listed group by its own
    breadth-first orbit under conjugation by conj_gens, without the +-x
    pairing."""
    conj = [(c, _perm_inv(c)) for c in conj_gens]
    classes, seen = [], set()
    for rep in elements:
        if rep in seen:
            continue
        cls, frontier = {rep}, [rep]
        while frontier:
            nxt = []
            for x in frontier:
                for c, cinv in conj:
                    y = perm_mul(perm_mul(c, x), cinv)
                    if y not in cls:
                        cls.add(y)
                        nxt.append(y)
            frontier = nxt
        seen |= cls
        classes.append(frozenset(cls))
    return classes


def root_negation(datum):
    return datum.perm_of(Isometry(tuple(tuple(-x for x in r) for r in ex.identity(datum.rank))))


class TestConjugacyClasses:
    @pytest.mark.parametrize("label,order,count", [
        ("D4", 1152, 25),    # Aut(D4) = W(F4)
        ("D5", 3840, 36),    # Aut(D5) = W(B5)
        ("E6", 103680, 50),  # Aut(E6) = W(E6) x {+-1}
        # Aut(A_m) = S_{m+1} x {+-1}: partitions of m+1 times two signs
        ("A1", 2, 2), ("A2", 12, 6), ("A3", 48, 10), ("A4", 240, 14),
        ("A5", 1440, 22), ("A6", 10080, 30), ("A7", 80640, 44),
    ])
    def test_class_counts(self, label, order, count):
        uni = perm_universe(label)
        reps = uni.reps
        classes = [set(uni.conjugacy_class(r)) for r in reps]
        assert len(reps) == count
        # the classes cover the group, and their sizes add up to its order,
        # so they are disjoint
        assert set().union(*classes) == set(group_elements(label))
        assert sum(map(len, classes)) == len(group_elements(label)) == order
        conj = [(c, _perm_inv(c)) for c in uni.conj_gens]
        for rep, cls in zip(reps, classes):
            assert rep in cls and order % len(cls) == 0
            # closed under conjugation: with `count` classes each one is a
            # single conjugacy class
            for c, cinv in conj:
                assert {perm_mul(perm_mul(c, x), cinv) for x in cls} == cls

    @pytest.mark.parametrize("label,p", [
        ("D4", 3), ("D4", 5), ("D4", 7), ("D4", 11),
        ("D5", 3), ("D5", 5), ("D5", 7), ("E8", 5),
        *((f"A{m}", p) for m in range(1, 7) for p in (3, 5, 7)),
    ])
    def test_per_class_good_set_matches_per_element_scan(self, label, p):
        uni = perm_universe(label)
        rootless_span = rootless_span_at(uni, p)
        oracle = {x for x in group_elements(label)
                  if x == uni.identity or rootless_span([x])}
        assert good_elements(uni, p) == oracle

    @staticmethod
    def assert_sample_matches_per_element_verdict(label, p):
        uni = perm_universe(label)
        good = good_elements(uni, p)
        rootless_span = rootless_span_at(uni, p)
        for x in random.Random(p).sample(group_elements(label), 300):
            oracle = x == uni.identity or rootless_span([x])
            assert (x in good) == oracle

    def test_e6_sample_matches_per_element_verdict(self):
        self.assert_sample_matches_per_element_verdict("E6", 5)

    def test_a7_sample_matches_per_element_verdict(self):
        self.assert_sample_matches_per_element_verdict("A7", 3)

    @pytest.mark.parametrize("label", ["D4", "D5", "E6"])
    def test_paired_classes_match_bfs_sweep(self, label):
        # -1 is in the group and some class is not its own negative, so the
        # sweep takes the pairing class(-x) = -class(x); the oracle closes
        # the group and conjugates by every generator of aut_group
        minus = root_negation(build(label))
        assert minus in set(group_elements(label))
        oracle = class_partition(closed_universe(label))
        assert any(perm_mul(minus, next(iter(cls))) not in cls for cls in oracle)
        assert class_partition(perm_universe(label)) == oracle

    @pytest.mark.parametrize("label,count,aut_gens", [("D5", 36, 6), ("E6", 50, 7)])
    def test_weyl_times_sign_matches_aut_group_sweep(self, label, count, aut_gens):
        # two conjugators, the Coxeter element and one simple reflection,
        # against the closure and sweep of Aut(R) under all its generators
        uni = perm_universe(label)
        oracle = closed_universe(label)
        assert len(uni.conj_gens) == 2 and len(oracle.conj_gens) == aut_gens
        assert len(uni.reps) == count
        assert class_partition(uni) == class_partition(oracle)

    def test_non_generating_pair_is_refused(self):
        # the Coxeter element of D5 and s_1 generate a subgroup of order 384,
        # not W(D5) of order 1920; its classes must not pass for a complete set
        with pytest.raises(ArithmeticError, match="384"):
            _class_sweep(build("D5"), _coxeter_pair(build("D5"), 0), 2 * weyl_order("D5"))

    def test_e8_scope_has_no_negation(self):
        # <a, b> is abelian: its 25 elements are its classes, with no sweep
        uni = perm_universe("E8")
        assert root_negation(uni.datum) not in set(group_elements("E8"))
        assert list(uni.reps) == group_elements("E8") and len(uni.reps) == 25
        assert class_partition(uni) == class_partition(closed_universe("E8"))


class TestSignedSymEncoding:
    """Aut(A_m) = S_{m+1} x {+-1} as root permutations (the m+3-point
    encoding these tests first checked is gone): the classes of the
    parabolic Coxeter elements and their negatives, read as matrices,
    against the isometries of aut_group, and perm_mul against the matrix
    product."""

    @pytest.mark.parametrize("m", range(1, 6))
    def test_matrices_are_aut_group(self, m):
        uni = perm_universe(f"A{m}")
        elements = set().union(*map(uni.conjugacy_class, uni.reps))
        images = {uni.datum.matrix_of_perm(x) for x in elements}
        assert len(images) == len(elements)
        assert images == {uni.datum.matrix_of_perm(x)
                          for x in aut_group(uni.datum).closure_perms()}

    @pytest.mark.parametrize("m", range(1, 6))
    def test_perm_mul_is_the_group_law(self, m):
        uni = perm_universe(f"A{m}")
        matrix = uni.datum.matrix_of_perm
        elements = group_elements(f"A{m}")
        rng = random.Random(m)
        for _ in range(60):
            a, b = rng.choice(elements), rng.choice(elements)
            assert matrix(perm_mul(a, b)) == matrix(a) * matrix(b)


def closure(uni, gens, allowed=None, cap=SUBGROUP_ELEMENT_CAP):
    return group_closure(uni.identity, gens, cap, allowed)


class TestClosure:
    """group_closure on the bytes of a universe against the closure of
    IsometryGroup, which takes the matrices."""

    @pytest.mark.parametrize("label,count", [("D4", 2), ("D4", 3), ("E6", 2), ("A5", 2),
                                             ("A5", 3)])
    def test_orders_match_isometry_group(self, label, count):
        uni = perm_universe(label)
        rng = random.Random(f"{label}{count}")
        for _ in range(4):
            gens = rng.sample(group_elements(label), count)
            grp = IsometryGroup(uni.datum, [uni.datum.matrix_of_perm(g) for g in gens])
            assert closure(uni, gens, cap=200000) == grp.closure_perms()

    def test_leaving_the_allowed_set_gives_none(self):
        uni = perm_universe("A5")
        g, h = uni.conj_gens  # the Coxeter element, a 6-cycle, and s_1
        cyclic = closure(uni, [g])
        assert len(cyclic) == 6 and uni.identity in cyclic
        assert closure(uni, [g, h], allowed=cyclic) is None
        assert closure(uni, [perm_mul(g, g)], allowed=cyclic) < cyclic

    def test_cap_below_the_order_is_a_limit(self):
        uni = perm_universe("A5")
        gens = uni.conj_gens  # generate S_6, 720 elements
        assert len(closure(uni, gens)) == 720
        assert len(closure(uni, gens, cap=720)) == 720
        with pytest.raises(LimitExceeded, match="group closure exceeds the cap of 719 elements"):
            closure(uni, gens, cap=719)


class TestGoodSetWorkCounts:
    """Counts, not times: the good set is decided on class representatives
    and only good classes are expanded, never the whole group."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_a7_decides_44_classes(self, monkeypatch, p):
        uni = _symmetric_times_sign_universe(build("A7"))
        rootless_span = rootless_span_at(uni, p)
        calls, orbit_sizes = [], []
        orbit = prootpair._conjugation_orbit

        def counted(x, conj):
            out = orbit(x, conj)
            orbit_sizes.append(len(out))
            return out

        monkeypatch.setattr(prootpair, "_conjugation_orbit", counted)
        good = _good_elements(uni, lambda keys: calls.append(keys) or rootless_span(keys))
        assert len(calls) == 44 and len(good) == 106
        # each good class is expanded once, and no other
        assert sum(orbit_sizes) == 106

    def test_e6_decides_50_classes(self):
        uni = perm_universe("E6")
        rootless_span = rootless_span_at(uni, 5)
        calls = []
        good = _good_elements(uni, lambda keys: calls.append(keys) or rootless_span(keys))
        assert len(calls) == 50 and len(good) == 46

    @staticmethod
    def walked_by_sweep(monkeypatch, build_universe):
        """The universe built, and the elements its breadth-first walk
        yielded; while a universe is built only that walk calls it."""
        visited = []
        walk = prootpair.breadth_first

        def counted(start, step):
            for x in walk(start, step):
                visited.append(x)
                yield x

        monkeypatch.setattr(prootpair, "breadth_first", counted)
        return build_universe(), visited

    def test_e6_sweep_stops_at_the_weyl_order(self, monkeypatch):
        # the sweep ends once its orbits cover W(E6), after 2,428 candidates of
        # the breadth-first walk, long before the walk would list all 51,840
        uni, visited = self.walked_by_sweep(
            monkeypatch, lambda: _search_universe.__wrapped__(build("E6")))
        assert len(uni.reps) == 50
        assert len(visited) <= 3000

    def test_d4_sweep_stops_at_the_aut_order(self, monkeypatch):
        # the classes of Aut(D4) add up to 1,152 after 279 candidates; the
        # uncached builder, so a universe cached earlier cannot hide the walk
        uni, visited = self.walked_by_sweep(
            monkeypatch, lambda: _search_universe.__wrapped__(build("D4")))
        assert len(uni.reps) == 25
        assert 279 <= len(visited) <= 350

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_d4_closes_no_group(self, monkeypatch, p):
        _search_universe.cache_clear()  # so this call builds the universe
        closed, sweeps = [], []
        closure_perms = IsometryGroup.closure_perms
        monkeypatch.setattr(IsometryGroup, "closure_perms",
                            lambda grp, *args: closed.append(grp) or closure_perms(grp, *args))
        sweep = prootpair._class_sweep
        monkeypatch.setattr(prootpair, "_class_sweep",
                            lambda *args, **kw: sweeps.append(args) or sweep(*args, **kw))
        assert classify("D4", p).entries
        assert closed == [] and len(sweeps) == 1


PROOT_CLASSIFY_CASES = ([("D4", p) for p in (3, 5, 7, 11)]
                        + [("D5", p) for p in (3, 5, 7)]
                        + [(f"A{m}", p) for m in range(1, 8) for p in (3, 5, 7)]
                        + [("E8", 5), ("E6", 5)])


@pytest.fixture
def fresh_universes():
    """No universe cached by an earlier test."""
    _search_universe.cache_clear()
    yield
    _search_universe.cache_clear()


class TestUniverseCache:
    """The classes of Aut(R) are built once per root datum and process; the
    results do not depend on which primes ran before."""

    def test_d4_primes_forward_and_reverse_agree(self, fresh_universes):
        primes = (3, 5, 7, 11)
        forward = [classify("D4", p) for p in primes]
        _search_universe.cache_clear()
        backward = [classify("D4", p) for p in reversed(primes)]
        assert forward == backward[::-1]
        assert _search_universe.cache_info().misses == 1

    def test_label_and_datum_share_one_universe(self, fresh_universes):
        by_label = classify("D5", 3)
        by_datum = classify(build("D5"), 3)
        assert by_label == by_datum
        info = _search_universe.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_one_sweep_per_datum_over_the_bench_cases(self, fresh_universes, monkeypatch):
        built = []
        for name in ("_class_sweep", "_symmetric_times_sign_universe"):
            builder = getattr(prootpair, name)
            monkeypatch.setattr(prootpair, name, lambda *args, builder=builder, name=name, **kw:
                                built.append((name, args[0].label)) or builder(*args, **kw))
        first = [classify(label, p) for label, p in PROOT_CLASSIFY_CASES]
        second = [classify(label, p) for label, p in PROOT_CLASSIFY_CASES]
        assert first == second
        labels = sorted({label for label, _ in PROOT_CLASSIFY_CASES})
        # E8's abelian <a, b> needs no builder: its elements are its classes
        assert sorted(label for _, label in built) == [lb for lb in labels if lb != "E8"]
        assert Counter(name for name, _ in built) == {"_class_sweep": 3,
                                                      "_symmetric_times_sign_universe": 7}
        assert _search_universe.cache_info().currsize == len(labels) == 11
        # one encoding: every representative is a permutation of the roots
        for label in labels:
            uni = _search_universe(build(label))
            assert {len(rep) for rep in uni.reps} == {len(uni.datum.roots)}

    def test_spellings_of_a_label_share_one_universe(self, fresh_universes):
        results = [classify(label, 3) for label in ("D4", "d4", " D4", "D(4)")]
        assert all(res == results[0] for res in results)
        info = _search_universe.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_universe_holds_nothing_of_p(self, fresh_universes):
        # a copy of the contents, so that a change in place shows as well as a
        # rebound attribute; the datum is not copied
        uni = _search_universe(build("D4"))

        def contents():
            return {k: v for k, v in vars(uni).items() if k != "datum"}

        before = copy.deepcopy(contents())
        for p in (3, 5, 7, 11):
            classify("D4", p)
        assert _search_universe(build("D4")) is uni
        assert uni.datum is build("D4")
        assert contents() == before
        assert sorted(vars(uni)) == ["conj", "conj_gens", "datum", "identity", "reps"]


def random_generator_sets(datum, rng, count):
    """count lists of 0-3 random isometries, each a random word of length
    1-12 in generators of Aut(R) (of W(E8) and <a, b> for E8)."""
    if datum.label == "E8":
        nm = named_elements(datum)
        letters = list(simple_reflections(datum)) + [nm["a"], nm["b"]]
    else:
        letters = aut_generators(datum)
    out = []
    for _ in range(count):
        gens = []
        for _ in range(rng.randrange(4)):
            g = Isometry(ex.identity(datum.rank))
            for _ in range(rng.randint(1, 12)):
                g = g * rng.choice(letters)
            gens.append(g)
        out.append(gens)
    return out


def sharp_rows(datum, gens):
    """The rows (g - 1)e_j of the generators, written out here."""
    n = datum.rank
    return [tuple(g.matrix[i][j] - (i == j) for i in range(n)) for g in gens for j in range(n)]


class TestCheckForms:
    """The root in the sharp span found by check forms against the per-root
    reduction over the forward-only echelon."""

    @pytest.mark.parametrize("label", [*(f"A{m}" for m in range(1, 8)), "D4", "D5", "E6", "E8"])
    def test_random_generator_sets_match_the_per_root_scan(self, label):
        datum = build(label)
        rng = random.Random(f"check forms {label}")
        outcomes = set()
        for p in (3, 5, 7, 11, 13):
            for gens in random_generator_sets(datum, rng, 12):
                basis, pivots = _sharp_span_modp(datum, [g.matrix for g in gens], p)
                got = _root_in_span(datum, basis, pivots, p)
                want = root_in_span_oracle(datum, *modp_echelon_oracle(sharp_rows(datum, gens),
                                                                       p), p)
                assert got == want
                outcomes.add(got is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("label,p", LEAST_GENERATOR_CASES)
    def test_every_classify_span_matches_the_per_root_scan(self, monkeypatch, label, p):
        # every span classify decides, pseudo or not, and each entry's witness
        spans, find = [], prootpair._root_in_span

        def recorded(datum, basis, pivots, p):
            spans.append((datum, basis, pivots, find(datum, basis, pivots, p)))
            return spans[-1][-1]

        monkeypatch.setattr(prootpair, "_root_in_span", recorded)
        out = classify(label, p)
        assert {got is None for *_, got in spans} == {True, False}
        for datum, basis, pivots, got in spans:
            assert got == root_in_span_oracle(datum, basis, pivots, p)
        datum = build(label)
        for entry in out.entries:
            rows = sharp_rows(datum, entry.generators)
            want = root_in_span_oracle(datum, *modp_echelon_oracle(rows, p), p)
            assert entry.verdict.witness_root is None and want is None


class TestIsometryInput:
    """Every generator is checked, an Isometry instance as much as a matrix."""

    NOT_ISOMETRY = Isometry(((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    WRONG_SIZE = Isometry(((1, 0), (0, 1)))

    @pytest.mark.parametrize("iso,message", [(NOT_ISOMETRY, "Gram form"),
                                             (WRONG_SIZE, "4x4 matrices")])
    def test_verdict_refuses(self, iso, message):
        with pytest.raises(ValueError, match=message):
            verdict(D4, [iso], 3)

    @pytest.mark.parametrize("iso", [NOT_ISOMETRY, WRONG_SIZE])
    def test_p_group_check_refuses(self, iso):
        with pytest.raises(ValueError):
            p_group_check(D4, [iso], 3)

    def test_isometry_group_refuses(self):
        with pytest.raises(ValueError, match="Gram form"):
            IsometryGroup(D4, [NM["x"], self.NOT_ISOMETRY])
        assert IsometryGroup(D4, [NM["x"]]).generators == (NM["x"],)

    def test_classify_checks_none_of_the_matrices_it_makes(self, fresh_universes,
                                                          monkeypatch):
        # its verdicts take the matrices of its own universe as they are; the
        # universe is built first, since building it checks the named elements
        _search_universe(build("D4"))
        checked = []
        check = rootsys._check_isometry
        monkeypatch.setattr(rootsys, "_check_isometry",
                            lambda *args: checked.append(args) or check(*args))
        assert classify("D4", 3).entries and classify("D4", 5).entries
        assert checked == []


class TestPaperInvariants:
    def test_intersection_with_weyl_is_p_group(self):
        for label, ps in (("D4", (3, 5, 7, 11)), ("D5", (3, 5, 7)),
                          ("A2", (3,)), ("A3", (3,)), ("A4", (5,)), ("A6", (7,))):
            datum = build(label)
            for p in ps:
                for e in classify(label, p).entries:
                    assert p_group_check(datum, IsometryGroup(datum, e.generators), p)

    def test_p_group_check_refuses_a_pre_closed_group_at_once(self, monkeypatch):
        # aut_group has closed Aut(E6), 103,680 elements, under its own cap;
        # the check's cap must refuse it before one matrix is built
        datum = build("E6")
        grp = aut_group(datum)

        def no_matrices(perm):
            raise AssertionError("a group above the cap was walked")

        monkeypatch.setattr(datum, "matrix_of_perm", no_matrices)
        with pytest.raises(LimitExceeded, match="group closure exceeds the cap of 10000 "):
            p_group_check(datum, grp, 3)

    def test_type_a_full_pairs(self):
        # (m+1) divides |H ∩ W|, the Weyl part is fixed-point-free on the
        # m+1 permuted vectors, and (H ∩ W, R) is itself a full pair
        for m, p in ((2, 3), (4, 5), (6, 7)):
            datum = build(f"A{m}")
            for e in classify(f"A{m}", p).full_pairs():
                grp = IsometryGroup(datum, e.generators)
                w_part = [perm for perm in grp.closure_perms()
                          if acts_trivially_on_disc(datum, datum.matrix_of_perm(perm))]
                assert len(w_part) % (m + 1) == 0
                gens_w = [datum.matrix_of_perm(perm) for perm in w_part]
                vw = verdict(datum, gens_w, p)
                assert vw.is_pseudo and vw.is_full
                # fixed-point-freeness on the permuted basis: no eigenvalue-1
                # vector may project onto a coordinate vector; equivalent and
                # simpler, each nontrivial Weyl element has zero fixed rank
                # in the reflection representation plus the trivial line.
                for g in gens_w:
                    if not is_identity(g):
                        assert not _weyl_perm_has_fixed_point(datum, g, m)

    def test_coprime_pseudo_pairs_have_rootless_covariant(self):
        for label, p in (("D4", 5), ("D5", 3), ("A3", 3)):
            datum = build(label)
            for e in classify(label, p).entries:
                if math.gcd(e.order, p) != 1 or e.order == 1:
                    continue
                fixed = fixed_sublattice(datum, e.generators)
                from k3lat.intlat import orthogonal_complement

                cov = orthogonal_complement(datum.lattice(), fixed)
                if cov.rank:
                    assert not roots(cov.as_lattice())


def _weyl_perm_has_fixed_point(datum, iso, m):
    """Does the underlying permutation of the m+1 coordinate vectors fix one?"""
    ginv = mat_inv(datum.gram)
    us = []
    for i in range(m + 1):
        pair = tuple((1 if j == i else 0) - (1 if j + 1 == i else 0) for j in range(m))
        us.append(ex.mat_vec(ginv, pair))
    for u in us:
        if iso.apply(u) == u:
            return True
    return False
