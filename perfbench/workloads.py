"""Workload items for the k3lat benchmark, each with an independent reference.

An item is one timed call into k3lat's public API plus a check of its
result.  The checks use facts that do not come from the code under test:
the packaged prime conditions of the paper's table (evaluated here with
Euler's criterion), root counts, determinants and elementary divisors of
A/D/E root lattices, Milgram's formula, and the classification facts of the
acceptance suite.  Where no independent reference exists the check pins the
verdict recorded when the benchmark was written and says so.

Calls look the function up on its module at call time, so that the traced
run's wrappers are the ones called.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, NamedTuple


class Item(NamedTuple):
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]  # None when the result matches


# ---------------------------------------------------------------------------
# arithmetic used by the references (deliberately not k3lat's)


def odd_primes_below(n: int) -> list:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for d in range(2, int(n ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytearray(len(range(d * d, n, d)))
    return [p for p in range(3, n) if sieve[p]]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def condition_holds(text: str, p: int) -> bool:
    """Evaluate a packaged prime condition: 'any', prime lists and
    '(n/p)=-1' clauses joined by 'or'; Legendre symbols by Euler's criterion."""
    for clause in text.split(" or "):
        clause = clause.replace(" ", "")
        if clause == "any":
            return True
        if clause.startswith("("):
            n = int(clause[1:clause.index("/")])
            if n % p and pow(n, (p - 1) // 2, p) == p - 1:
                return True
        elif p in {int(tok) for tok in clause.split(",")}:
            return True
    return False


def prime_power_parts(n: int, large: int = 0) -> Counter:
    """Elementary divisors of Z/n as a Counter of (prime, exponent); `large`
    is a known prime factor too big for trial division."""
    exps = Counter()
    while large and n % large == 0:
        n //= large
        exps[large] += 1
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            exps[d] += 1
        d += 1
    if n > 1:
        exps[n] += 1
    return Counter({(q, e): 1 for q, e in exps.items()})


# ---------------------------------------------------------------------------
# table-sigma1


TABLE_PRIMES = odd_primes_below(200)


def _embed_item(k3, row, p):
    expected = condition_holds(row.condition.text, p)

    def call():
        return k3.k3class.primitively_embeds(row.q_s, row.rank, p, 1)

    def check(decision):
        if decision.embeds != expected:
            return (f"row {row.number} p={p}: embeds={decision.embeds}, "
                    f"packaged condition says {expected}")
        return None

    return Item(f"row{row.number}/p{p}", call, check)


def table_sigma1(k3, setup):
    return [_embed_item(k3, row, p) for row in setup.table for p in TABLE_PRIMES]


# ---------------------------------------------------------------------------
# proot-classify


PROOT_CASES = ([("D4", p) for p in (3, 5, 7, 11)]
               + [("D5", p) for p in (3, 5, 7)]
               + [(f"A{m}", p) for m in range(1, 8) for p in (3, 5, 7)]
               + [("E8", 5), ("E6", 5)])
PROOT_LABELS = sorted({label for label, _ in PROOT_CASES})

# (entries, full pairs) recorded at the commit that introduced the benchmark;
# no independent reference exists for these.
PROOT_PINS = {("E6", 5): (2, 0), ("E8", 5): (5, 4)}


def _is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _proot_check(label, p):
    def check(res):
        full = len(res.full_pairs())
        if (label, p) in PROOT_PINS:
            want = PROOT_PINS[label, p]
            if (len(res.entries), full) != want:
                return f"{label} p={p}: (entries, full) = {(len(res.entries), full)}, pin {want}"
        elif label == "D4":
            if (full > 0) != (p == 3):
                return f"D4 p={p}: {full} full pairs; a full pair exists only at p=3"
        elif label == "D5":
            if full or any(e.order not in (1, 2) for e in res.entries):
                return f"D5 p={p}: full pairs or class orders outside {{1, 2}}"
        else:
            m = int(label[1:])
            if (full > 0) != _is_power_of(m + 1, p):
                return f"{label} p={p}: full pairs {full}, m+1 power of p is the criterion"
        return None
    return check


def proot_classify(k3, setup):
    items = []
    for label, p in PROOT_CASES:
        datum = setup.root_data[label]
        items.append(Item(f"{label}/p{p}",
                          lambda datum=datum, p=p: k3.prootpair.classify(datum, p),
                          _proot_check(label, p)))
    return items


# ---------------------------------------------------------------------------
# lattice-gram


def _dynkin_gram(n: int, branch: int | None) -> list:
    """Cartan matrix of a chain of n (or n-1 plus one node on `branch`)."""
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    chain = n if branch is None else n - 1
    for i in range(chain - 1):
        g[i][i + 1] = g[i + 1][i] = -1
    if branch is not None:
        g[n - 1][branch] = g[branch][n - 1] = -1
    return g


def _component(kind: str, n: int):
    """(Gram matrix, root count, elementary divisors) of A_n, D_n or E_n."""
    if kind == "A":
        return _dynkin_gram(n, None), n * (n + 1), prime_power_parts(n + 1)
    if kind == "D":
        divs = Counter({(2, 1): 2}) if n % 2 == 0 else Counter({(2, 2): 1})
        return _dynkin_gram(n, n - 3), 2 * n * (n - 1), divs
    roots, det = {6: (72, 3), 7: (126, 2), 8: (240, 1)}[n]
    return _dynkin_gram(n, 2), roots, prime_power_parts(det)


COMPONENTS = ([("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
              + [("E", n) for n in (6, 7, 8)])
GRAM_RANKS = range(8, 19)
GRAM_LATTICES = 4 * len(GRAM_RANKS)  # seeded lattices per set-up
GRAM_SKEW_STEPS = 6  # basis columns that each get one other column added


class GramCase(NamedTuple):
    name: str
    gram: tuple
    roots: int
    det: int
    divisors: Counter   # elementary divisors, Counter of (prime, exponent)
    large: int          # the large prime factor of det, or 0


def _shape(rng: random.Random, rank: int) -> list:
    comps = []
    while rank:
        kind, n = rng.choice([c for c in COMPONENTS if c[1] <= rank])
        comps.append((kind, n))
        rank -= n
    return comps


def _gram_case(rng: random.Random, comps: list, with_large: bool) -> GramCase:
    blocks, names = [], []
    roots, divisors, large = 0, Counter(), 0
    for kind, n in comps:
        gram, r, divs = _component(kind, n)
        blocks.append(gram)
        names.append(f"{kind}{n}")
        roots += r
        divisors += divs
    if with_large:
        large = rng.randrange(4 * 10 ** 9 + 1, 5 * 10 ** 9, 2)
        while not is_prime(large):
            large += 2
        m = rng.choice((1, 2, 3, 5, 6)) * large
        blocks.append([[2 * m]])
        names.append(f"<{2 * m}>")
        divisors += prime_power_parts(2 * m, large)
    order = list(range(len(blocks)))
    rng.shuffle(order)
    rank = sum(len(b) for b in blocks)
    g = [[0] * rank for _ in range(rank)]
    at = 0
    for k in order:
        b = blocks[k]
        for i, row in enumerate(b):
            g[at + i][at:at + len(b)] = row
        at += len(b)
    for i in rng.sample(range(rank), GRAM_SKEW_STEPS):
        j = rng.choice([k for k in range(rank) if k != i])
        s = rng.choice((1, -1))
        for row in g:
            row[i] += s * row[j]
        g[i] = [x + s * y for x, y in zip(g[i], g[j])]
    det = 1
    for (q, e), k in divisors.items():
        det *= q ** (e * k)
    return GramCase(" ".join(names[k] for k in order), tuple(map(tuple, g)),
                    roots, det, divisors, large)


def gram_cases(seed: int) -> list:
    """The seeded lattices.  Their component mix is the same for every seed
    (four per rank 8..18, every other one with a <2m> block whose m has one
    large prime factor), so that the work per run hardly depends on the
    seed; the seed draws the block order, the large primes and the skew."""
    shapes = random.Random("lattice-gram shapes")
    rng = random.Random(f"lattice-gram:{seed}")
    cases = []
    for i in range(GRAM_LATTICES):
        with_large = i % 2 == 1
        comps = _shape(shapes, GRAM_RANKS[i % len(GRAM_RANKS)] - with_large)
        cases.append(_gram_case(rng, comps, with_large))
    return cases


def _divisors_of(orders, large) -> Counter:
    out = Counter()
    for d in orders:
        out += prime_power_parts(d, large)
    return out


def _roots_check(gram, expected):
    def check(found):
        if len(found) != expected:
            return f"{len(found)} roots, expected {expected}"
        n = len(gram)
        for v in found:
            norm = sum(v[i] * gram[i][j] * v[j]
                       for i in range(n) if v[i] for j in range(n) if v[j])
            if abs(norm) != 2:
                return f"vector {v} has norm {norm}"
        if len(set(found)) != len(found):
            return "duplicate roots"
        return None
    return check


def lattice_gram(k3, setup):
    leech = setup.leech
    items = [Item("leech/roots", lambda: k3.intlat.roots(leech),
                  lambda found: f"Leech has {len(found)} roots, expected 0" if found else None)]
    for i, case in enumerate(setup.gram_cases):
        lat = k3.intlat.IntegralLattice(case.gram)

        def check_disc(disc, case=case):
            if disc.order != case.det:
                return f"{case.name}: |A_L| = {disc.order}, det {case.det}"
            if _divisors_of(disc.cyclic_orders, case.large) != case.divisors:
                return f"{case.name}: invariant factors {disc.cyclic_orders}"
            return None

        def check_symbol(q, case=case, rank=len(case.gram)):
            if q.group_order() != case.det:
                return f"{case.name}: symbol order {q.group_order()}, det {case.det}"
            jordan = Counter({(c.prime, c.scale): c.rank for c in q.components})
            if jordan != case.divisors:
                return f"{case.name}: Jordan ranks {dict(jordan)}"
            sig = k3.fqf.signature_mod8(q)
            if sig != rank % 8:
                return f"{case.name}: signature_mod8 {sig} != rank {rank} mod 8 (Milgram)"
            return None

        items += [
            Item(f"gram{i}/disc", lambda lat=lat: k3.intlat.discriminant_group(lat), check_disc),
            Item(f"gram{i}/symbol", lambda lat=lat: k3.fqf.symbol_of(lat), check_symbol),
            Item(f"gram{i}/roots", lambda lat=lat: k3.intlat.roots(lat),
                 _roots_check(case.gram, case.roots)),
        ]
    return items


WORKLOADS = {
    "table-sigma1": table_sigma1,
    "proot-classify": proot_classify,
    "lattice-gram": lattice_gram,
}
