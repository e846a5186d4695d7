"""(Pseudo) p-root pairs: sharp sublattices, verdicts, and classification.

For a finite group H acting on a root lattice R and an odd prime p, the sharp
sublattice is generated by pR together with all difference vectors g*x - x.
The pair is pseudo when that sublattice is rootless, and full when in
addition the fixed sublattice is zero.  Pseudo-ness is inherited by
subgroups, which is what makes exhaustive subgroup classification feasible:
the search only ever grows subgroups all of whose cyclic pieces are already
pseudo.  Every group element is a root permutation held as bytes and
composed by perm_mul.  The conjugacy classes of Aut(A_m) are the parabolic
Coxeter elements and their negatives; those of D4, D5 and E6 come from one
lazy class sweep, which stops once the class sizes add up to the group
order, so Aut(R) is never closed.  The E8 scope <a, b> is abelian: its 25
elements are closed and each is a class of its own.  These classes do not
depend on p: they are built once per root datum and process, and each
classify call does only the work that depends on p.  A root lies in a sharp
span mod p iff every check form of the span's reduced echelon basis
vanishes on it.  Subgroup closures are rootsys.group_closure, and the
conjugates of a subgroup and the walk of the sweep are
rootsys.breadth_first; the class orbit of one element and the cyclic
extension walk of classify keep loops of their own.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, combinations

from . import _exact as ex
from .intlat import Sublattice, discriminant_group, membership
from .rootsys import (
    Isometry,
    IsometryGroup,
    RootDatum,
    acts_trivially_on_disc,
    aut_generators,
    breadth_first,
    build,
    group_closure,
    named_elements,
    parse_label,
    perm_mul,
    simple_reflections,
    weyl_order,
)

SUBGROUP_ELEMENT_CAP = 10 ** 4


# ---------------------------------------------------------------------------
# sharp sublattice and verdicts


def _as_group(datum: RootDatum, group) -> IsometryGroup:
    """group, or the IsometryGroup of a list (ValueError for a non-isometry)."""
    return group if isinstance(group, IsometryGroup) else IsometryGroup(datum, group)


def _gen_matrices(datum: RootDatum, group) -> list:
    return [g.matrix for g in _as_group(datum, group).generators]


def _sharp_span_modp(datum: RootDatum, gen_mats, p):
    """Echelon basis mod p of sharp/pR inside R/pR, from the generators alone.

    The rows (g - 1)e_j of the generators g span the whole sharp lattice
    modulo pR, since (gh - 1)x = (g - 1)(hx) + (h - 1)x: every element of the
    finite group is a product of generators and adds no new vector.
    """
    n = datum.rank
    rows = []
    for m in gen_mats:
        mt = ex.transpose(m)
        for j in range(n):
            rows.append(tuple(mt[j][i] - (1 if i == j else 0) for i in range(n)))
    return ex.modp_echelon(rows, p)


def _sharp_lattice(datum: RootDatum, span_basis, p: int) -> Sublattice:
    """The sharp lattice in HNF: pR together with the lifted rows of its span mod p."""
    n = datum.rank
    rows = [tuple(p if j == i else 0 for j in range(n)) for i in range(n)]
    return Sublattice(datum.lattice(), ex.row_hnf(ex.to_mat(rows + span_basis)))


def sharp(datum: RootDatum, group, p: int) -> Sublattice:
    """The sublattice generated by pR and all H-difference vectors, in HNF."""
    ex.require_odd_prime(p)
    basis, _ = _sharp_span_modp(datum, _gen_matrices(datum, group), p)
    return _sharp_lattice(datum, basis, p)


def _root_in_span(datum: RootDatum, basis, pivots, p):
    """The first root of the datum inside the span mod p, or None.

    The basis is in reduced echelon form (ex.modp_echelon), so a vector v lies
    in the span iff h_j . v is 0 mod p for every non-pivot column j, with the
    check form h_j = e_j - sum_i basis_i[j] e_{pivot_i}.  The roots are tested
    in datum order; most fail the first check form, which is tested inline.
    """
    checks = []
    for j in sorted(set(range(datum.rank)) - set(pivots)):
        check = [0] * datum.rank
        check[j] = 1
        for row, pc in zip(basis, pivots):
            check[pc] = -row[j]
        checks.append(check)
    if not checks:  # the span is all of R/pR
        return datum.roots[0]
    first, rest = checks[0], checks[1:]
    return next((r for r in datum.roots if not sum(map(operator.mul, first, r)) % p
                 and not any(sum(map(operator.mul, h, r)) % p for h in rest)), None)


@dataclass(frozen=True)
class ProotVerdict:
    is_pseudo: bool
    is_full: bool
    sharp_lattice: Sublattice
    witness_root: tuple | None
    fixed_rank: int
    sharp_index: int

    def as_dict(self) -> dict:
        return {
            "pseudo": self.is_pseudo,
            "full": self.is_full,
            "sharp_index": self.sharp_index,
            "witness_root": list(self.witness_root) if self.witness_root else None,
            "fixed_rank": self.fixed_rank,
        }


def fixed_sublattice(datum: RootDatum, group) -> Sublattice:
    """Saturated sublattice of vectors fixed by every generator."""
    gens = _gen_matrices(datum, group)
    n = datum.rank
    if not gens:
        return Sublattice.full(datum.lattice())
    stacked = []
    for m in gens:
        for i in range(n):
            stacked.append(tuple(m[i][j] - (1 if i == j else 0) for j in range(n)))
    ker = ex.kernel_int(ex.to_mat(stacked))
    return Sublattice(datum.lattice(), ker)


def verdict(datum: RootDatum, group, p: int) -> ProotVerdict:
    """Full pseudo/full decision with sharp lattice, witness and fixed rank."""
    ex.require_odd_prime(p)
    group = _as_group(datum, group)
    basis, pivots = _sharp_span_modp(datum, _gen_matrices(datum, group), p)
    witness = _root_in_span(datum, basis, pivots, p)
    fixed = fixed_sublattice(datum, group)
    is_pseudo = witness is None
    return ProotVerdict(
        is_pseudo=is_pseudo,
        is_full=is_pseudo and fixed.rank == 0,
        sharp_lattice=_sharp_lattice(datum, basis, p),
        witness_root=witness,
        fixed_rank=fixed.rank,
        sharp_index=p ** (datum.rank - len(basis)),
    )


def disc_action_nontrivial(sub: Sublattice, iso: Isometry):
    """Does the isometry act nontrivially on the discriminant group of sub?

    Returns (nontrivial, witness_lift, difference) with vectors in ambient
    coordinates; raises if the isometry does not preserve the sublattice.
    """
    for row in sub.basis_matrix:
        if not membership(sub, iso.apply(row)):
            raise ValueError("isometry does not preserve the sublattice")
    for lift in discriminant_group(sub.as_lattice()).generator_lifts:
        x = ex.vec_mat(lift, sub.basis_matrix)  # ambient coordinates
        diff = tuple(a - b for a, b in zip(iso.apply(x), x))
        if not _in_sublattice(sub, diff):
            return True, x, diff
    return False, None, None


def _in_sublattice(sub: Sublattice, vec) -> bool:
    """Is a rational ambient vector in sub: integral, and in the integer span?"""
    return all(x.denominator == 1 for x in vec) and membership(sub, map(int, vec))


def p_group_check(datum: RootDatum, group, p: int) -> bool:
    """Is H intersect W(R) a p-group?  (H given by generators, at most
    SUBGROUP_ELEMENT_CAP elements.)"""
    perms = _as_group(datum, group).closure_perms(SUBGROUP_ELEMENT_CAP)
    w_order = sum(acts_trivially_on_disc(datum, datum.matrix_of_perm(perm)) for perm in perms)
    return w_order == p ** ex.valuation(w_order, p)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassifyEntry:
    generators: tuple  # of Isometry
    order: int
    verdict: ProotVerdict


@dataclass(frozen=True)
class ClassifyResult:
    datum_label: str
    p: int
    entries: tuple  # pseudo pairs up to conjugacy (full pairs flagged in verdict)
    partial: bool
    note: str

    def full_pairs(self):
        return tuple(e for e in self.entries if e.verdict.is_full)


def _perm_inv(a: bytes) -> bytes:
    """The inverse permutation: the points sorted by their images under a."""
    return bytes(sorted(range(len(a)), key=a.__getitem__))


def _conj_tables(perms) -> list:
    return [(c.ljust(256, b"\0"), _perm_inv(c)) for c in perms]


def _negation(datum) -> bytes:
    """The root negation x -> -x as a root permutation."""
    return datum.perm_of(Isometry(tuple(tuple(-x for x in row)
                                        for row in ex.identity(datum.rank))))


def _conjugation_orbit(x: bytes, conj) -> set:
    """The orbit of a permutation under x -> c x c^-1, for the pairs
    (c padded to 256 entries, c^-1) in conj."""
    # a loop of its own: through breadth_first the W(E6) sweep takes 100-111 ms, not 76-92
    orbit = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for y in frontier:
            for table, cinv in conj:
                # perm_mul(perm_mul(c, y), cinv), c padded once
                z = cinv.translate(y.translate(table).ljust(256, b"\0"))
                if z not in orbit:
                    orbit.add(z)
                    nxt.append(z)
        frontier = nxt
    return orbit


# the index of the simple reflection that generates W(R) together with the
# Coxeter element: s_1 for E6, s_4 for D5 (with s_1, D5 gets order 384 only)
_WEYL_PAIR_REFLECTION = {"E6": 0, "D5": 3}


class _Universe:
    """A finite group of root permutations of datum, held as bytes and
    composed by perm_mul; datum.matrix_of_perm gives each its isometry.

    Conjugation by the generators `conj_gens` is conjugation by Aut(R), and
    `reps` holds one element of each conjugacy class.  A class is expanded
    only when asked for, as the orbit of its representative.
    """

    def __init__(self, datum, conj_gens, reps):
        self.datum = datum
        self.conj_gens = tuple(conj_gens)
        self.reps = tuple(reps)
        self.identity = bytes(range(len(self.reps[0])))
        self.conj = _conj_tables(self.conj_gens)

    def conjugacy_class(self, rep) -> set:
        return _conjugation_orbit(rep, self.conj)


def _class_sweep(datum, gens, order: int) -> _Universe:
    """The conjugacy classes of <gens, -1>, a group of root permutations of
    known order, conjugating by gens.

    The root negation -1 is central.  Candidates come from a lazy
    breadth-first walk of <gens>; each one x such that no class holds x or
    -x yet adds its orbit, and also the negated orbit when -x is not in it.
    The classes are disjoint subsets of the group closed under conjugation
    by gens, so once their sizes add up to `order` they prove that gens
    with -1 generate a group of that order and that the classes are
    complete.  A walk that runs dry first raises ArithmeticError, an
    internal error.
    """
    conj = _conj_tables(gens)
    tables = [t for t, _ in conj]
    negate = _negation(datum).ljust(256, b"\0")
    reps, covered, size = [], set(), 0  # covered: the orbits, not their negatives
    walk = breadth_first(bytes(range(len(datum.roots))), lambda y: map(y.translate, tables))
    for walked, x in enumerate(walk, 1):
        minus_x = x.translate(negate)
        if x in covered or minus_x in covered:
            continue
        orbit = _conjugation_orbit(x, conj)
        covered |= orbit
        reps.append(x)
        size += len(orbit)
        if minus_x not in orbit:
            reps.append(minus_x)
            size += len(orbit)
        if size == order:
            return _Universe(datum, gens, reps)
    raise ArithmeticError(f"the {len(gens)} generators of {datum.label} generate a group "
                          f"of order {walked}, too small for order {order}")


def _coxeter_pair(datum, reflection: int) -> list:
    """The Coxeter element c = s_1...s_n and s_{reflection + 1} as root perms."""
    refl = simple_reflections(datum)
    return [datum.perm_of(reduce(operator.mul, refl)), datum.perm_of(refl[reflection])]


def _symmetric_times_sign_universe(datum) -> _Universe:
    """Aut(A_m) = S_{m+1} x {+-1}, with its classes and no sweep.

    The classes of W = S_{m+1} are the cycle types, and each holds the
    Coxeter element of a standard parabolic subgroup (Geck & Pfeiffer 2000,
    3.1): cut the points 0..m into runs of the part lengths, and take the
    product of the simple reflections s_{i+1} (swapping i, i+1) inside the
    runs.  -1 is central and outside W for m >= 2, so each class w adds the
    class -w; for A_1, s_1 is -1.  The Coxeter element and s_1 generate
    S_{m+1}, so conjugation by them is conjugation by Aut(A_m).
    """
    _, m = parse_label(datum.label)
    refl = [datum.perm_of(s) for s in simple_reflections(datum)]
    signs = [bytes(range(len(datum.roots)))] + ([_negation(datum)] if m >= 2 else [])
    reps = []
    for lengths in _partitions(m + 1, m + 1):
        cuts = set(accumulate(lengths))  # a run ends before each cut
        w = reduce(perm_mul, (refl[i] for i in range(m) if i + 1 not in cuts), signs[0])
        reps += (perm_mul(sign, w) for sign in signs)
    return _Universe(datum, _coxeter_pair(datum, 0), reps)


def _partitions(n, largest):
    """The partitions of n into parts of at most `largest`, parts descending."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def classify(datum_or_label, p: int) -> ClassifyResult:
    """All pseudo p-root pairs (H, R) up to Aut(R)-conjugacy, within scope.

    Full-subgroup scope: A_m (m+1 <= 8), D_4, D_5, E_6.  E_7/E_8 are searched
    only over the named elements and their products, and flagged partial.
    The scope is read from the label, so an A_m or D_m beyond it is never
    built.  Subgroups of a pseudo pair are pseudo, so growing subgroups
    inside the set of elements with rootless cyclic sharp lattice is
    exhaustive; one subgroup per conjugacy class is grown, by one generator
    per cyclic subgroup.  The classes of Aut(A_m) = S_{m+1} x {+-1} are the
    parabolic Coxeter elements of the cycle types and their negatives; the
    others come from a lazy walk of the group that stops once the class
    sizes add up to its order: for Aut(E6) and Aut(D5) = W(R) x {+-1} the
    walk is of W(R), and each class of W(R) adds its negative; Aut(D4) is
    walked itself.  Only the order-25 group <a, b> of the E8 scope is
    closed; it is abelian, so its elements are its classes.  The classes
    are built at the first call for a root datum and kept
    (_search_universe); every call decides the good classes, grows the
    subgroups and names them at its own p.
    """
    is_datum = isinstance(datum_or_label, RootDatum)
    kind, m = parse_label(datum_or_label.label if is_datum else datum_or_label)
    ex.require_odd_prime(p)
    if kind == "A" and m + 1 > 8:
        return ClassifyResult(f"A{m}", p, (), True, "full search limited to A_m with m+1 <= 8")
    if kind == "D" and m > 5:
        return ClassifyResult(f"D{m}", p, (), True, f"full search limited to D4/D5, got D{m}")
    datum = datum_or_label if is_datum else build(datum_or_label)
    if datum.label == "E7":
        return ClassifyResult(datum.label, p, (), True,
                              "no enumerable scope for E7; no named elements")
    # build admits no other label: A_m with m <= 7, D4, D5, E6 or E8 is left
    partial = datum.label == "E8"
    note = ("scope restricted to the named order-5 elements and their products" if partial
            else "exhaustive over all subgroups")
    return _classify_universe(datum, p, _search_universe(datum), partial, note)


@lru_cache(maxsize=None)
def _search_universe(datum) -> _Universe:
    """The group classify searches, with its conjugacy classes: Aut(R) for
    A_m (m <= 7), D4, D5 and E6, and the 25 singleton classes of the
    abelian group <a, b> for E8.

    Built once per root datum and kept: the classes do not depend on p, and
    build gives one datum per label however it is spelt, so the data build
    makes have at most eleven universes.
    """
    if datum.label.startswith("A"):
        return _symmetric_times_sign_universe(datum)
    if datum.label in _WEYL_PAIR_REFLECTION:
        # Aut(R) = W(R) x {+-1} for E6 and D5, where -1 is not in W; W is
        # generated by the Coxeter element c and one simple reflection s, which
        # the sweep proves, and conjugation by c and s is conjugation by Aut(R)
        return _class_sweep(datum, _coxeter_pair(datum, _WEYL_PAIR_REFLECTION[datum.label]),
                            2 * weyl_order(datum.label))
    if datum.label == "D4":
        # Aut(D4) = W(D4) x S_3, the diagram automorphisms; -1 lies in W(D4)
        return _class_sweep(datum, [datum.perm_of(g) for g in aut_generators(datum)],
                            6 * weyl_order("D4"))
    # <a, b> is abelian (criterion 6 checks ab = ba), so each of its 25
    # elements is a class of its own
    nm = named_elements(datum)
    grp = IsometryGroup(datum, (nm["a"], nm["b"]))
    return _Universe(datum, [datum.perm_of(g) for g in grp.generators],
                     sorted(grp.closure_perms()))


def _rootless(datum, gen_mats, p) -> bool:
    """Does the sharp span of the generated group mod p miss every root?"""
    return _root_in_span(datum, *_sharp_span_modp(datum, gen_mats, p), p) is None


def _good_elements(uni, rootless_span) -> set:
    """Elements whose cyclic sharp span is rootless.

    Decided once per conjugacy class, from its representative: an isometry h
    maps the sharp span of <g> onto that of <h g h^-1> and permutes the
    roots, so the verdict is a class invariant.  Only the good classes are
    expanded.  The identity needs no exception: its sharp span is zero mod p,
    and no root is zero mod p.
    """
    good = set()
    for rep in uni.reps:
        if rootless_span([rep]):
            good.update(uni.conjugacy_class(rep))
    return good


def _cyclic_generators(uni, elements) -> list:
    """The least generator of each cyclic subgroup <g>, g in elements.

    <H, g> = <H, g^k> for every k prime to the order of g, so one generator
    per cyclic subgroup extends H to every subgroup <H, g>.
    """
    chosen, covered = [], set()
    for g in sorted(elements):
        if g in covered:
            continue
        chosen.append(g)
        powers = [g]  # powers[k - 1] = g^k, up to g^n = 1
        while powers[-1] != uni.identity:
            powers.append(perm_mul(powers[-1], g))
        n = len(powers)
        covered.update(x for k, x in enumerate(powers, 1) if math.gcd(k, n) == 1)
    return chosen


def _least_generators(uni, sub) -> list:
    """The first combination of sub's cyclic generators (_cyclic_generators),
    by size and then in byte order, that generates sub."""
    steps = _cyclic_generators(uni, sub)
    for size in range(len(steps) + 1):
        for gens in combinations(steps, size):
            if group_closure(uni.identity, gens, SUBGROUP_ELEMENT_CAP) == sub:
                return list(gens)
    raise ArithmeticError("the cyclic generators of a subgroup do not generate it")


def _conjugates(uni, sub) -> set:
    """The orbit of a subgroup under conjugation by Aut(R) (uni.conj_gens)."""
    return set(breadth_first(sub, lambda s: [
        frozenset(cinv.translate(x.translate(table).ljust(256, b"\0")) for x in s)
        for table, cinv in uni.conj]))


def _classify_universe(datum, p, uni, partial, note) -> ClassifyResult:
    matrices = {}

    def matrix_of(key):
        if key not in matrices:
            matrices[key] = datum.matrix_of_perm(key)
        return matrices[key]

    def rootless_span(gen_keys) -> bool:
        return _rootless(datum, [matrix_of(k).matrix for k in gen_keys], p)

    good = _good_elements(uni, rootless_span)

    # Cyclic extension up to conjugacy: only one subgroup per Aut(R)-class is
    # grown, by one generator per cyclic subgroup of good elements.  This is
    # exhaustive: if L = <c H c^-1, g> then c^-1 L c = <H, c^-1 g c>, and the
    # good set is closed under conjugation.
    steps = _cyclic_generators(uni, good)
    trivial = frozenset([uni.identity])
    seen = {trivial}  # whole conjugation orbits, pseudo or not
    classes = [trivial]  # least subgroup of each pseudo class
    frontier = [(trivial, [])]
    while frontier:
        nxt = []
        for elems, gens in frontier:
            for g in steps:
                if g in elems:
                    continue
                new = group_closure(uni.identity, gens + [g], SUBGROUP_ELEMENT_CAP, good)
                if new is None or new in seen:
                    continue
                orbit = _conjugates(uni, new)
                seen |= orbit
                if rootless_span(gens + [g]):
                    classes.append(min(orbit, key=lambda s: tuple(sorted(s))))
                    nxt.append((new, gens + [g]))
        frontier = nxt

    # Each class is named by its least subgroup K, in byte order, and K by its
    # least generating set: the first path to K of a breadth-first walk that
    # extends the subgroups of K by its cyclic generators in order.  That walk
    # reaches K first at d(K), the fewest generators, along the least
    # generating sequence of that length, which is strictly increasing (a
    # reordered or repeated one comes earlier or is shorter).
    entries = []
    for rep in sorted(classes, key=lambda s: (len(s), tuple(sorted(s)))):
        gens = tuple(matrix_of(k) for k in _least_generators(uni, rep) or [uni.identity])
        # the generators are made from the universe, so verdict need not check them
        grp = IsometryGroup.of_isometries(datum, gens)
        entries.append(ClassifyEntry(generators=gens, order=len(rep),
                                     verdict=verdict(datum, grp, p)))
    return ClassifyResult(datum.label, p, tuple(entries), partial, note)
