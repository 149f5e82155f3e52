"""Seeded request decks for the benchmark workloads.

A deck is a list of problem JSON documents in the CLI format; the program
receives nothing else.  Each workload is a fixed plan of request shapes
(kind, group or tree degree, time index, data size) so that the work in a
deck, and with it the latency distribution, hardly moves from seed to seed.
The seed and the pass index draw everything else: data positions and
values, extra generators, subgroups, evaluation vertices and the order of
the deck.

This module uses only the standard library; it never imports the program.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

# A seed kept out of tuning, for checking a claimed gain on fresh inputs.
HELD_OUT_SEED = 7919

_SMALL_DENS = (1, 2, 3, 4, 5, 6, 7, 8, 9)
_MIXED_DENS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 25, 27, 49, 64, 81, 121)


def deck(workload: str, seed: int, pass_index: int = 0) -> list[str]:
    """The requests of one pass over a workload.

    Every pass of a run draws its own data from the same plan, so no request
    repeats an earlier one and no cache inside the program meets an input
    twice; the work per pass stays the same.
    """
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    instances = _PLANS[workload](rng)
    rng.shuffle(instances)
    return [json.dumps(inst, separators=(",", ":")) for inst in instances]


# ---------------------------------------------------------------- Cayley


def _elem(coords: tuple[int, ...], rank: int) -> dict:
    return {"free": list(coords[:rank]), "torsion": list(coords[rank:])}


def _canon(coords, rank: int, moduli) -> tuple[int, ...]:
    return tuple(coords[:rank]) + tuple(v % m for v, m in zip(coords[rank:], moduli))


def _neg(coords, rank: int, moduli) -> tuple[int, ...]:
    return _canon([-v for v in coords], rank, moduli)


def _generators(rng: random.Random, rank: int, moduli, extra_pairs: int = 0, span: int = 1):
    """+-e_i on every coordinate, plus random extra +-pairs of spans span, span-1, ...

    The unit vectors make the set generate; the extra pairs widen its span.
    Extra pair j has first free coordinate +-(span - j), other free
    coordinates in [-span, span] and torsion 0, so kernel supports, and the
    work, hardly vary by seed.
    """
    dim = rank + len(moduli)
    zero = (0,) * dim
    gens: list[tuple[int, ...]] = []

    def add_pair(coords) -> bool:
        s = _canon(coords, rank, moduli)
        if s == zero or s in gens:
            return False
        gens.append(s)
        t = _neg(s, rank, moduli)
        if t not in gens:
            gens.append(t)
        return True

    for i in range(dim):
        add_pair([int(i == j) for j in range(dim)])
    for j in range(extra_pairs):
        while True:
            coords = [rng.choice((-1, 1)) * (span - j)]
            coords += [rng.randint(-span, span) for _ in range(rank - 1)]
            coords += [0] * len(moduli)
            if add_pair(coords):
                break
    return [_elem(s, rank) for s in gens]


def _rational(rng: random.Random, dens, num_max: int = 9) -> Fraction:
    num = rng.choice([v for v in range(-num_max, num_max + 1) if v != 0])
    return Fraction(num, rng.choice(dens))


def _rows(points: dict, to_elem) -> list[dict]:
    return [
        {"elem": to_elem(x), "num": str(v.numerator), "den": str(v.denominator)}
        for x, v in points.items()
        if v != 0
    ]


def _points(rng: random.Random, count: int, rank: int, moduli, box: int) -> list[tuple[int, ...]]:
    """``count`` distinct group elements, free part in [-box, box]."""
    seen: dict[tuple[int, ...], None] = {}
    while len(seen) < count:
        coords = tuple(rng.randint(-box, box) for _ in range(rank))
        coords += tuple(rng.randrange(m) for m in moduli)
        seen[coords] = None
    return list(seen)


def _data(rng, count, rank, moduli, box, dens, num_max=9) -> dict:
    return {x: _rational(rng, dens, num_max) for x in _points(rng, count, rank, moduli, box)}


def _zero_mass(rng, count, rank, moduli, box, dens, num_max=9) -> dict:
    """Wave velocity data with total mass exactly zero."""
    points = _points(rng, count + 1, rank, moduli, box)
    g = {x: _rational(rng, dens, num_max) for x in points[:-1]}
    g[points[-1]] = -sum(g.values(), Fraction(0))
    return g


def _cayley(rng, kind: str, rank: int, moduli, n: int, points: int, box: int,
            dens=_SMALL_DENS, extra_pairs: int = 0, span: int = 1) -> dict:
    moduli = list(moduli)

    def to_elem(x):
        return _elem(x, rank)

    inst = {
        "kind": kind,
        "group": {"rank": rank, "moduli": moduli},
        "S": _generators(rng, rank, moduli, extra_pairs, span),
        "f": _rows(_data(rng, points, rank, moduli, box, dens), to_elem),
        "n": n,
    }
    if kind == "wave":
        inst["g"] = _rows(_zero_mass(rng, points, rank, moduli, box, dens), to_elem)
    return inst


def _coset(rng, kind: str, m1: int, a: int, m2: int, n: int, points: int, box: int) -> dict:
    """Z x Z_m1 x Z_m2 by H = <(0; a, 0)>, for a proper divisor a >= 2 of m1.

    Data rows are one representative per coset: the first torsion
    coordinate runs over 0..a-1.
    """
    moduli = [m1, m2]
    reps = _points(rng, points + 1, 1, [a, m2], box)

    def to_elem(x):
        return _elem(x, 1)

    f = {x: _rational(rng, _SMALL_DENS) for x in reps[:points]}
    inst = {
        "kind": kind,
        "group": {"rank": 1, "moduli": moduli},
        "subgroup_gens": [{"free": [0], "torsion": [a, 0]}],
        "S": _generators(rng, 1, moduli),
        "f": _rows(f, to_elem),
        "n": n,
    }
    if kind == "coset-wave":
        g = {x: _rational(rng, _SMALL_DENS) for x in reps[1 : points + 1]}
        g[reps[0]] = -sum(g.values(), Fraction(0))
        inst["g"] = _rows(g, to_elem)
    return inst


def _cayley_kernels(rng: random.Random) -> list[dict]:
    """Large n, at most 8 data points: kernel construction dominates.

    n steps along a grid for each group, so request costs rise in small
    steps and no latency percentile sits on a wide gap.
    """
    out = []
    sizes = itertools.cycle(range(1, 9))
    for i in range(7):
        out.append(_cayley(rng, "heat", 1, (), 24 + 6 * i, next(sizes), 5))
        out.append(_cayley(rng, "wave", 1, (), 22 + 6 * i, next(sizes), 5))
        out.append(_cayley(rng, "heat", 2, (), 5 + i, next(sizes), 5))
        out.append(_cayley(rng, "wave", 2, (), 10 + i, next(sizes), 5))
    for m, n in ((5, 8), (6, 9), (8, 10), (12, 11)):
        out.append(_cayley(rng, "heat", 1, (m,), n, next(sizes), 5))
        out.append(_cayley(rng, "wave", 1, (m,), n + 4, next(sizes), 5))
    for (m1, a, m2), n in (((4, 2, 3), 8), ((6, 3, 2), 10), ((6, 2, 4), 10)):
        out.append(_coset(rng, "coset-heat", m1, a, m2, n, next(sizes), 5))
        out.append(_coset(rng, "coset-wave", m1, a, m2, n + 4, next(sizes), 5))
    return out


def _cayley_wide(rng: random.Random) -> list[dict]:
    """n <= 4, spans up to 4, 55 to 150 data points with mixed denominators."""
    out = []
    shapes = [
        # kind, rank, moduli, n, points, box, extra generator pairs, span
        ("heat", 1, (), 4, 80, 150, 1, 4),
        ("heat", 1, (12,), 4, 55, 30, 1, 4),
        ("heat", 1, (12,), 3, 75, 40, 2, 4),
        ("heat", 2, (), 2, 80, 12, 1, 4),
        ("heat", 2, (), 3, 55, 10, 1, 3),
        ("heat", 2, (), 1, 150, 14, 2, 4),
        ("wave", 1, (), 4, 80, 150, 2, 4),
        ("wave", 1, (12,), 4, 60, 30, 1, 4),
        ("wave", 2, (), 4, 60, 12, 1, 4),
        ("wave", 2, (), 3, 90, 14, 2, 4),
    ]
    for kind, rank, moduli, n, points, box, extra, span in shapes:
        for _ in range(2):
            out.append(_cayley(rng, kind, rank, moduli, n, points, box,
                               _MIXED_DENS, extra, span))
    return out


# ------------------------------------------------------------------ trees


def _word(rng: random.Random, k: int, length: int, prefix: tuple[int, ...] = ()) -> tuple[int, ...]:
    word = list(prefix)
    for _ in range(length):
        letter = rng.randint(1, k)
        while word and letter == word[-1]:
            letter = rng.randint(1, k)
        word.append(letter)
    return tuple(word)


def _distance(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    common = 0
    for a, b in zip(x, y):
        if a != b:
            break
        common += 1
    return len(x) + len(y) - 2 * common


def _ball(k: int, center: tuple[int, ...], radius: int) -> list[tuple[int, ...]]:
    """Every vertex within ``radius`` of ``center``, center first."""
    out = [center]
    frontier = [(center, None)]
    for _ in range(radius):
        nxt = []
        for x, came_from in frontier:
            steps = [x[:-1]] if x else []
            steps += [x + (i,) for i in range(1, k + 1) if not x or i != x[-1]]
            for y in steps:
                if y != came_from:
                    nxt.append((y, x))
        out += [y for y, _ in nxt]
        frontier = nxt
    return out


def _tree_rows(points: dict) -> list[dict]:
    return _rows(points, list)


def _tree_velocity(rng, k: int, center: tuple[int, ...], depth: int, points: int):
    """Velocity data whose radialized mass vanishes at every vertex within depth of center.

    Pick p = center.q with |q| = depth and letters a != b that extend p away
    from center.  Swapping the subtrees below p.a and p.b (and the letters
    a, b inside them) is a tree automorphism that fixes every vertex within
    depth of center; g is odd under it, so its sphere sums around any fixed
    vertex cancel.
    """
    while True:
        p = _word(rng, k, depth, center)
        choices = [i for i in range(1, k + 1) if not p or i != p[-1]]
        if len(choices) >= 2:
            break
    a, b = rng.sample(choices, 2)
    swap = {a: b, b: a}
    g: dict[tuple[int, ...], Fraction] = {}
    while len(g) < 2 * points:
        w = _word(rng, k, rng.randint(0, 3), p + (a,))
        mirror = p + (b,) + tuple(swap.get(c, c) for c in w[len(p) + 1 :])
        v = _rational(rng, _SMALL_DENS)
        g[w], g[mirror] = v, -v
    return g


def _tree(rng, kind: str, k: int, n: int, center, radius: int, window, points: int) -> dict:
    """Tree problem with f near ``center`` (within ``radius``) and an explicit window."""
    f = {}
    while len(f) < points:
        f[_word(rng, k, rng.randint(0, radius), center)] = _rational(rng, _SMALL_DENS)
    inst = {
        "kind": kind,
        "k": k,
        "f": _tree_rows(f),
        "n": n,
        "eval": {"vertices": [list(x) for x in window]},
    }
    if kind == "tree-wave":
        depth = max(_distance(center, x) for x in window)
        inst["g"] = _tree_rows(_tree_velocity(rng, k, center, depth, 3))
    return inst


def _few(rng, kind: str, k: int, n: int, vertices: int) -> dict:
    """Large n, a few evaluation vertices near the root: weights dominate."""
    window = [()]
    while len(window) < vertices:
        x = _word(rng, k, rng.randint(1, 2))
        if x not in window:
            window.append(x)
    return _tree(rng, kind, k, n, (), 4, window, 5)


def _wide(rng, kind: str, k: int, radius: int, n: int, points: int) -> dict:
    """A whole ball of hundreds of vertices around a random center: apply dominates."""
    center = _word(rng, k, rng.randint(0, 2))
    return _tree(rng, kind, k, n, center, 6, _ball(k, center, radius), points)


def _covering(rng, k: int, n: int, points: int) -> dict:
    """Heat on a ball that covers every vertex the solution can reach."""
    center = _word(rng, k, rng.randint(0, 2))
    return _tree(rng, "tree-heat", k, n, center, 2, _ball(k, center, n + 2), points)


def _tree_solve(rng: random.Random) -> list[dict]:
    """Large n at a few vertices (weights dominate) and whole balls (apply dominates).

    n and the data size step along geometric and linear grids, so request
    costs rise in small steps and no latency percentile sits on a wide gap
    between two neighbouring requests.
    """
    out = []
    shapes = itertools.cycle([("tree-heat", 3), ("tree-wave", 4), ("tree-heat", 5),
                              ("tree-wave", 6), ("tree-heat", 4), ("tree-wave", 3),
                              ("tree-heat", 6), ("tree-wave", 5)])
    for i in range(24):
        kind, k = next(shapes)
        out.append(_few(rng, kind, k, round(36 * 1.065**i), 1 + i % 3))
    balls = itertools.cycle([(3, 7), (4, 5), (5, 4), (3, 8)])
    for i in range(10):
        k, radius = next(balls)
        kind = ("tree-heat", "tree-wave")[i % 2]
        out.append(_wide(rng, kind, k, radius, 30 + 3 * i, 8 + 2 * i))
    for k, n in ((3, 5), (4, 3), (5, 2)):
        out.append(_covering(rng, k, n, 5))
    return out


# --------------------------------------------------------- oracle-check


def _oracle_tree(rng, kind: str, k: int, n: int, points: int) -> dict:
    # Data within distance 1 of the root keeps the ball the oracle steps
    # over, and so its cost, nearly the same from seed to seed.
    f = {}
    while len(f) < points:
        f[_word(rng, k, rng.randint(0, 1))] = _rational(rng, _SMALL_DENS)
    window = list(dict.fromkeys([()] + sorted(f)[:2]))
    inst = {"kind": kind, "k": k, "f": _tree_rows(f), "n": n,
            "eval": {"vertices": [list(x) for x in window]}}
    if kind == "tree-wave":
        inst["g"] = _tree_rows(_tree_velocity(rng, k, (), 2, 2))
    return inst


def _oracle_check(rng: random.Random) -> list[dict]:
    """One instance per request from each family, closed form vs oracle at every n.

    n steps along a grid within each family, so request costs rise in small
    steps and no latency percentile sits on a wide gap.
    """
    out = []
    groups = itertools.cycle([(1, (), 6), (2, (), 2), (1, (4,), 3)])
    for i in range(36):
        rank, moduli, n = next(groups)
        kind = ("heat", "wave")[i % 2]
        out.append(_cayley(rng, kind, rank, moduli, n + i % 18 // 3, 4, 3,
                           extra_pairs=i // 18, span=2))
    cosets = itertools.cycle([(4, 2, 2), (6, 3, 2), (4, 2, 3)])
    for i in range(18):
        m1, a, m2 = next(cosets)
        kind = ("coset-heat", "coset-wave")[i % 2]
        out.append(_coset(rng, kind, m1, a, m2, 3 + i % 9 // 2, 3, 2))
    # Naive tree stepping visits a ball that grows like (k-1)^n: small n
    # keep the tree oracle from swamping the mix.  k = 2 has no automorphism
    # fixing two vertices, hence no balanced velocity data: heat only there.
    for kind, k, ns in (("tree-heat", 2, (8, 9, 11, 12)), ("tree-heat", 3, (5, 6, 7, 8)),
                        ("tree-wave", 3, (5, 6, 7, 8)), ("tree-heat", 4, (3, 4, 5, 6)),
                        ("tree-wave", 4, (3, 4, 5, 6))):
        for n in ns:
            out.append(_oracle_tree(rng, kind, k, n, 3))
    return out


_PLANS = {
    "cayley-kernels": _cayley_kernels,
    "cayley-wide": _cayley_wide,
    "tree-solve": _tree_solve,
    "oracle-check": _oracle_check,
}

WORKLOADS = tuple(_PLANS)
