"""Heat and wave solutions on the k-regular tree via spherical means.

Vertices are reduced words over k involutive generators (no two adjacent
letters equal; the empty word is the root).  A solution value is a sum
of the initial data's sphere sums around the evaluation vertex, sphere s
weighted by the propagator's value at distance s.  The propagators are
the Cayley propagator rows in the tree's step; their horocycle sums come
from integer recurrences on Z (``_heat_sums``, ``_wave_sums``) and go
back to the tree by the inverse Abel transform (``_inverse_abel``).  The
tables do not share the Cayley kernels' evaluator
``functions.convolve_polynomials``, which packs, multiplies and decodes
the whole Laurent polynomial, its negative half too: a recurrence costs
a few small-int products per coefficient it keeps.  Sphere sums
are rerooted along the prefix tree of the data's support, the hull, by
the radialization recurrence of Figà-Talamanca & Nebbia (*Harmonic
Analysis and Representation Theory for Groups Acting on Homogeneous
Trees*, 1991); they never enumerate the exponentially large spheres
themselves, and add the data's integer numerators.  Each hull vertex
keeps its sums as one dense row of ints indexed by radius, up to the
farthest sum that is not 0, or, where that row would be mostly zeros, a
dict of the sums that are not 0 (``_packed``); and, from the same pass
over its data, that data grouped by next letter, from which a child is
built on first use; the zero function's hull is the root alone, with an
empty row.  The weights are integers, so a solution is integer
numerators over the data's denominator.  Below the hull a vertex's sums
are those of its deepest hull prefix, shifted by the distance to it, so
a value depends only on that (prefix, shift) pair, the vertex's hull position
(``hull_position``).  ``WeightTable.apply`` and ``radial_mass`` take the
position, not the vertex: a value is one dot product of a dense row with
the weights from the shift on, and a mass one pass over the row.  The
solvers give each window vertex a position id (``_placed``, one loop for
every window, placing a vertex from its parent's position when the
parent is listed first), compute each value once per distinct position,
read it per vertex by id, and put the solution in lowest terms with
``functions.lowest_terms``; a vertex listed twice is one key, in its
first listing's place.  A
``TreeFunction`` checks its degree once, when it is built (``_degree``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count
from math import comb, lcm, log2
from operator import add, mul
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Sequence

from .errors import IndexOutOfRange, NotSolvable, ShapeMismatch
from .functions import Scaled, lowest_terms, require_domain
from .groups import integer, integers, natural

TreeVertex = tuple[int, ...]

ROOT: TreeVertex = ()

_ZERO = Fraction(0)


def make_vertex(word: Sequence[int], k: int) -> TreeVertex:
    """Validate a reduced word: an array of letters in 1..k, no adjacent repeats.

    Letters are read by ``groups.integers``.  One pass checks both rules;
    only a bad word is read again, so the error names its first letter
    outside 1..k, or else the word.
    """
    word = integers(word, "tree-word letters", "tree-word letter")
    prev = 0
    for i in word:
        if not 0 < i <= k or i == prev:
            for c in word:
                if not 1 <= c <= k:
                    raise ShapeMismatch(f"letter {c} outside 1..{k}")
            raise ShapeMismatch(f"word {word} is not reduced (adjacent repeat)")
        prev = i
    return word


def tree_distance(x: TreeVertex, y: TreeVertex) -> int:
    """Graph distance: word lengths minus twice the common prefix."""
    c = 0
    for a, b in zip(x, y):
        if a != b:
            break
        c += 1
    return (len(x) - c) + (len(y) - c)


def neighbors(x: TreeVertex, k: int) -> list[TreeVertex]:
    """The k adjacent vertices: one truncation (unless at the root) plus extensions."""
    out = []
    if x:
        out.append(x[:-1])
        out.extend(x + (i,) for i in range(1, k + 1) if i != x[-1])
    else:
        out.extend(((i,) for i in range(1, k + 1)))
    return out


class TreeFunction(Scaled):
    """A finitely supported map from reduced words over 1..k to rationals.

    Never mutated after construction: ``rerooted`` is derived from the
    numerators once and cached, so a changed numerator would go unseen.
    """

    def __init__(self, k: int, entries: Mapping | None = None):
        k = _degree(k)
        self._init(k, ((make_vertex(x, k), v) for x, v in (entries or {}).items()))

    @property
    def k(self) -> int:
        return self.tag

    @cached_property
    def rerooted(self) -> _Hull:
        """The sphere sums around the root; for f = 0 an empty hull, the root alone.

        ``hull_position`` grows the tree below it on demand.
        """
        return _Hull(self.numerators.items(), 0, None)


def sphere_size(k: int, r: int) -> int:
    """Number of vertices at distance r from any fixed vertex; k is checked first (``_degree``)."""
    k, r = _degree(k), natural(r, "radius")
    if r == 0:
        return 1
    return k * (k - 1) ** (r - 1)


class _Hull:
    """The sphere sums around a vertex a of the prefix tree of the support (the hull).

    ``row`` maps radius r to the sum of the data's numerators at distance r
    from a.  It is a dense list while that costs at most _DENSE_SLOTS slots
    per sum that is not 0, plus _DENSE_SLACK (``_packed``): ``row[r]`` for
    every r up to the farthest sum that is not 0, sums of 0 between
    included, so the zero function's row is empty.  Past that it is a dict
    of the sums that are not 0, so a deep, sparse support, such as one point
    at the root and one thousands of letters below, costs the hull memory
    linear in its depth.  With H_b(r) the data in b's subtree r below b,
    the sums around b, a child of a, are N_b(r) = H_b(r) + N_a(r-1) -
    H_b(r-2): a's row shifted one slot out, plus b's data at r and minus it
    at r + 2; at the root they are H.  The zero function's hull is the root
    with an empty row and no children.  The pass that adds up the sums also
    groups the data below a, as (word, numerator) pairs, by its next letter
    in ``below``; a child is built from its group when first asked for, and
    a letter off the hull has no group.
    """

    __slots__ = ("depth", "row", "below", "children")

    def __init__(self, items: Collection[tuple[TreeVertex, int]], depth: int,
                 parent: _Hull | None):
        top = max([len(y) for y, _ in items], default=depth) - depth
        prev = [] if parent is None else parent.row
        below: dict[int, list[tuple[TreeVertex, int]]] = {}
        if type(prev) is list:
            if parent is None:
                row = [0] * (top + 1)
            else:
                row = [0, *prev, *[0] * (top + 2 - len(prev))]
            for y, v in items:
                r = len(y) - depth
                row[r] += v
                if parent is not None:
                    row[r + 2] -= v
                if r:
                    below.setdefault(y[depth], []).append((y, v))
        else:
            row = {r + 1: v for r, v in prev.items()}
            for y, v in items:
                r = len(y) - depth
                row[r] = row.get(r, 0) + v
                row[r + 2] = row.get(r + 2, 0) - v
                if r:
                    below.setdefault(y[depth], []).append((y, v))
        self.depth, self.row, self.below, self.children = depth, _packed(row), below, {}

    def child(self, c: int) -> _Hull | None:
        """The hull vertex one letter c below this one, built on first use; None off the hull."""
        child = self.children.get(c)
        if child is None and (items := self.below.pop(c, None)) is not None:
            child = self.children[c] = _Hull(items, self.depth + 1, self)
        return child


# A hull row stays dense while it has at most _DENSE_SLOTS slots per sum that is not 0, plus
# _DENSE_SLACK.  A list slot takes 8 bytes, and a dict 35-45 bytes an entry from 8 entries on
# (224 bytes below that; Python 3.11), so a dense row takes at most about twice what a dict
# of its sums would, plus 256 bytes.  Every row of a support within 16 letters of the root
# (radii up to 32) is dense, as are all of the benchmark's tree-solve and oracle-check decks.
_DENSE_SLOTS = 8
_DENSE_SLACK = 32


def _packed(row: list[int] | dict[int, int]) -> list[int] | dict[int, int]:
    """A hull row in its kept form: dense without trailing zeros, or a dict of its sums not 0.

    The dense form is kept while its length is at most _DENSE_SLOTS per
    sum that is not 0, plus _DENSE_SLACK.
    """
    if type(row) is list:
        while row and not row[-1]:
            row.pop()
        if len(row) <= _DENSE_SLOTS * (len(row) - row.count(0)) + _DENSE_SLACK:
            return row
        return {r: v for r, v in enumerate(row) if v}
    row = {r: v for r, v in row.items() if v}
    if (size := max(row, default=-1) + 1) <= _DENSE_SLOTS * len(row) + _DENSE_SLACK:
        return [row.get(r, 0) for r in range(size)]
    return row


def hull_position(f: TreeFunction, x: Sequence[int]) -> tuple[_Hull, int]:
    """(a, len(x) - len(a)), a the deepest prefix of x on f's hull; x is checked first.

    Every sphere sum of f around x is a's shifted by len(x) - len(a), so a
    value read from the sums depends on x only through this pair, the hull
    position that ``WeightTable.apply`` and ``radial_mass`` take.  For f = 0
    the hull is the root alone and the pair is (root, len(x)).  Hull
    vertices hash by identity: the pair can key a dict.
    """
    return _walk(f, make_vertex(x, f.k))


def _walk(f: TreeFunction, x: TreeVertex) -> tuple[_Hull, int]:
    """``hull_position`` of a word already checked: x's letters walked from the root.

    The walk stops where x leaves the hull, building the hull vertices it
    meets and keeping them in ``f.rerooted``.
    """
    node = f.rerooted
    for c in x:
        if (child := node.child(c)) is None:
            break
        node = child
    return node, len(x) - node.depth


def _placed(words: Iterable, k: int,
            fs: Sequence[TreeFunction]) -> tuple[list[TreeVertex], list[tuple[list, list]]]:
    """The window's vertices, and for each of ``fs`` a position id per vertex and the positions.

    This is where a window is checked.  A window that is not all tuples
    of ints (two type scans) is first read word by word by ``make_vertex``,
    so a word that is not an array or holds a bad letter raises its error.
    Then a word p + (c,) listed after its prefix p is a vertex exactly when
    c is in 1..k and not p's last letter, and it is placed from p: on the
    hull's child c of p's position if p sits on the hull (shift 0) and that
    child exists, else at p's position one further down, (node, shift + 1).
    That successor is kept per id, so the siblings that share it look up no
    pair.  Any other word is checked by ``make_vertex`` and walked from the
    root (``_walk``).  The positions are listed in the order the window
    first meets them, and id i names ``positions[i]``.  The index of each
    word's first listing lives for this call only.
    """
    xs = list(words)
    if not ({tuple}.issuperset(map(type, xs))
            and {int}.issuperset(map(type, chain.from_iterable(xs)))):
        xs = [make_vertex(w, k) for w in xs]
    # Each word's first listing; a prefix listed before the word comes first.
    first = dict(zip(reversed(xs), range(len(xs) - 1, -1, -1)))
    parents = []
    for n, w in enumerate(xs):
        i = first.get(w[:-1], n) if w else n
        if i >= n or not 0 < (c := w[-1]) <= k or (len(w) > 1 and c == w[-2]):
            make_vertex(w, k)  # raises, or returns w itself: a tuple of ints
            i = None
        parents.append(i)
    placements = []
    for f in fs:
        ids, positions, successors, seen = [], [], [], {}
        for x, i in zip(xs, parents):
            if i is None:
                at, parent = _walk(f, x), None
            else:
                node, shift = positions[parent := ids[i]]
                if not shift and (child := node.child(x[-1])) is not None:
                    at, parent = (child, 0), None
                elif (j := successors[parent]) is not None:
                    ids.append(j)
                    continue
                else:
                    at = node, shift + 1
            j = seen.setdefault(at, len(positions))
            if j == len(positions):
                positions.append(at)
                successors.append(None)
            if parent is not None:
                successors[parent] = j
            ids.append(j)
        placements.append((ids, positions))
    return xs, placements


def _radius_sums(at: tuple[_Hull, int]) -> Iterable[tuple[int, int]]:
    """(radius, sum of the numerators on that sphere) around a vertex at hull position ``at``.

    Sums of 0 are left out.  Below its deepest hull prefix a, a vertex is
    the shift len(x) - len(a) further from the data than a is, so a's row
    is read from radius shift on.
    """
    node, shift = at
    row = node.row
    if type(row) is list:
        return compress(zip(count(shift), row), row)
    return zip(map(shift.__add__, row), row.values())


def sphere_sums(f: TreeFunction, x: TreeVertex) -> dict[int, Fraction]:
    """Sum of f over each sphere around x that its support meets, a sum of 0 included.

    A 0 in the hull's row may be a sphere the support meets or one it
    misses, so the radii come from the support.
    """
    x, d = make_vertex(x, f.k), f.denominator
    sums, radii = dict(_radius_sums(_walk(f, x))), {tree_distance(x, y) for y in f.numerators}
    return {r: Fraction(sums.get(r, 0), d) for r in sorted(radii)}


def spherical_mean(f: TreeFunction, x: TreeVertex, r: int) -> Fraction:
    """Average of f over the sphere of radius |r| around x (even in r); 0 where f's data is not."""
    x, r = make_vertex(x, f.k), natural(abs(integer(r, "radius")), "radius")
    total = dict(_radius_sums(_walk(f, x))).get(r, 0)
    return Fraction(total, f.denominator * sphere_size(f.k, r)) if total else Fraction(0)


def path_reduce(f: TreeFunction, x: TreeVertex) -> list[Fraction]:
    """The radial profile r -> M_f(x,r) for r >= 0, up to the farthest support point from x."""
    sums = sphere_sums(f, x)
    return [sums.get(r, _ZERO) / sphere_size(f.k, r) for r in range(max(sums, default=-1) + 1)]


def alpha_coeff(j: int, s: int, k: int) -> int:
    """Coefficient of the s-th harmonic in the j-th power of the drifted path symbol.

    With q = k - 1 and a = |s|, it is (-1)^a sum_l C(j, l+a) C(j, l) q^l,
    times q^a for s < 0: alpha(j, -a, k) = q^a alpha(j, a, k).  Each term
    is the last times the exact ratio (j-a-l)(j-l) q / ((l+a+1)(l+1)).
    """
    j, s, k = natural(j, "power j"), integer(s, "harmonic index s"), _degree(k)
    if abs(s) > j:
        raise IndexOutOfRange(f"harmonic index {s} outside [-{j}, {j}]")
    a, q = abs(s), k - 1
    term, total = comb(j, a), 0
    for l in range(j - a + 1):
        total += term
        term = term * (j - a - l) * (j - l) * q // ((l + a + 1) * (l + 1))
    return (-q if s < 0 else -1) ** a * total


class WeightTable(NamedTuple):
    """Closed-form sphere weights: value at x is sum_s weights[s] * (sphere sum at radius s).

    Weight s is the propagator's value at any vertex at distance s from its
    center.  The propagator is an integer polynomial in the adjacency
    applied to a point mass, so every weight is an ``int``.
    """

    k: int
    weights: list[int]

    def apply(self, f: TreeFunction, at: tuple[_Hull, int]) -> int:
        """sum_s weights[s] * (sphere sum of f's numerators at radius s), at hull position ``at``.

        ``at`` is a position on f's own hull (``hull_position(f, x)``); the
        value at x is this over ``f.denominator``.  Sphere s is the row's
        slot s - shift, so a dense row's value is one dot product of the row
        with the weights from the shift on; a sparse row's sums are weighted
        one by one.  Data beyond the table's top radius has weight 0 and is
        left out.
        """
        require_domain(self.k, f)
        node, shift = at
        row = node.row
        if type(row) is list:
            return sum(map(mul, self.weights[shift:shift + len(row)], row))
        w = self.weights
        return sum([w[s] * v for s, v in _radius_sums(at) if s < len(w)])


def _degree(k: int) -> int:
    """k read by ``groups.integer`` and checked to be a tree degree: at least 2."""
    if (k := integer(k, "tree degree k")) < 2:
        raise ShapeMismatch(f"tree degree k must be at least 2, got {k}")
    return k


def _inverse_abel(k: int, L: list[int]) -> WeightTable:
    """The table of a propagator K from its horocycle sums L(0..top), rewritten in place.

    weight[s] = L(s) - (k-2) sum_{j>=1} L(s+2j), the inverse Abel
    transform of the tree (Cowling, Meda & Setti, *Expo. Math.* 16, 1998):
    one backward pass with a running suffix sum per parity.  The sums past
    the top are 0 for every propagator here.

    Why: index the vertices by horocycle, rising by one toward a fixed end.
    A vertex has one neighbour toward the end and k-1 away from it, so the
    horocycle sums of X g, X the step c*delta plus the sum over the k
    neighbours, are c + z + (k-1)z^-1 times those of g, and L(m), the sum
    of K over horocycle m, is the coefficient of z^m in K's polynomial in
    X evaluated at that Laurent polynomial.  For m >= 0 that horocycle
    meets the sphere of radius m around the center (on horocycle 0) in one
    vertex and that of radius m + 2j in (k-2)(k-1)^(j-1), so
    L(m) = K(m) + sum_{j>=1} (k-2)(k-1)^(j-1) K(m+2j), which the suffix
    sum inverts.
    """
    # tails[s % 2] is sum_{j>=1} L(s+2j) when radius s is reached.
    tails = [0, 0]
    for s in reversed(range(len(L))):
        v = L[s]
        L[s] = v - (k - 2) * tails[s & 1]
        tails[s & 1] += v
    return WeightTable(k, L)


def _heat_sums(k: int, n: int) -> list[int]:
    """The heat propagator's horocycle sums L(0..n), L(m) = [z^m] (1 - k + z + q/z)^n.

    With q = k - 1, L(m) = a_{n+m} for a_j = [z^j] F, F = Q^n and
    Q = z^2 + (1-k)z + q.  F satisfies Q F' = n Q' F, and the coefficient
    of z^j on both sides gives
    (2n-j+1) a_{j-1} = q(j+1) a_{j+1} - (1-k)(n-j) a_j;
    with j = n + m that is (n-m+1) L(m-1) = q((n+m+1) L(m+1) - m L(m)).
    It runs down from a_{2n} = 1, a_{2n+1} = 0.  Each division, by 1..n,
    is exact: every a_j is an integer.
    """
    L = [0] * (n + 2)
    L[n] = 1
    for m in range(n, 0, -1):
        L[m - 1] = (k - 1) * ((n + m + 1) * L[m + 1] - m * L[m]) // (n - m + 1)
    L.pop()
    return L


def _wave_sums(k: int, n: int) -> tuple[list[int], list[int]]:
    """The horocycle sums (f, g) of the wave propagators F(t) and G(t), t = -A.

    F = sum_i C(n,2i) t^i and G = sum_i C(n,2i+1) t^i (the rows of
    ``cayley.wave_rows``) are the parts of (1 + sqrt t)^n = F + G sqrt t.
    Differentiating in t,
      (1-t) F' = (n/2)(G - F)  and  2t(1-t) G' + (1-t) G = n(F - tG).
    With q = k - 1 the step factors as t = -k + z + q/z = T/z,
    T = z^2 - kz + q = (z-1)(z-q), so dt/dz = (z^2 - q)/z^2 and
    1 - t = -R/z, R = z^2 - (k+1)z + q.  In z the system reads
      -2 R z F_z = n (z^2 - q)(G - F),
      2 T R z G_z + (R - nT)(z^2 - q) G + n z (z^2 - q) F = 0,
    and with c, r, s the coefficients of TR, R(z^2-q) and (z^2-q)T, the
    coefficients f_m = [z^m] F and g_m = [z^m] G satisfy, at z^(m+4) and
    z^(m+2),
      (n-1-2m) g_m = n f_{m+1} - nq f_{m+3}
                     - sum_{p=0..3} (n s_p - r_p - 2 c_p (m+4-p)) g_{m+4-p},
      (n-2m) f_m = n g_m - 2(k+1)(m+1) f_{m+1} + q(2m+4+n) f_{m+2} - nq g_{m+2}.
    (c_4 = r_4 = s_4 = 1 give the left sides.)  Both run down from the top
    coefficients f_{n//2} = C(n, 2(n//2)) and g_{(n-1)//2} =
    C(n, 2((n-1)//2) + 1), zeros above.  Every division is exact, since
    F and G have integer coefficients in z, and no divisor is 0 below its
    top.
    """
    q = k - 1
    c = [q * q, -q * (2 * k + 1), 2 * q + k * (k + 1), -(2 * k + 1), 1]
    r = [-q * q, q * (k + 1), 0, -(k + 1), 1]
    s = [-q * q, q * k, 0, -k, 1]
    ftop, gtop = n // 2, (n - 1) // 2
    f, g = [0] * (ftop + 5), [0] * (ftop + 5)
    f[ftop] = comb(n, 2 * ftop)
    if gtop >= 0:
        g[gtop] = comb(n, 2 * gtop + 1)
    # e_p is the coefficient of g_{m+4-p} at the current m; it grows by 2 c_p per step down.
    e0, e1, e2, e3 = (n * s[p] - r[p] - 2 * c[p] * (ftop + 4 - p) for p in range(4))
    for m in range(ftop, -1, -1):
        if m < gtop:
            g[m] = (n * (f[m + 1] - q * f[m + 3]) - e0 * g[m + 4] - e1 * g[m + 3]
                    - e2 * g[m + 2] - e3 * g[m + 1]) // (n - 1 - 2 * m)
        if m < ftop:
            f[m] = (n * (g[m] - q * g[m + 2]) - 2 * (k + 1) * (m + 1) * f[m + 1]
                    + q * (2 * m + 4 + n) * f[m + 2]) // (n - 2 * m)
        e0, e1, e2, e3 = e0 + 2 * c[0], e1 + 2 * c[1], e2 + 2 * c[2], e3 + 2 * c[3]
    return f[:ftop + 1], g[:gtop + 1]


# The most bits a weight table may take, as ``_require_table_size`` estimates
# them, when it is built for a solve.  A table's weights reach about (2k-1)^n,
# so its n + 1 entries take about n^2 log2(2k-1) / 2 bits: the heat table takes
# 1.1-1.5 times that and the wave pair 0.5-1.1 times (k = 2, 3, 8, 100).  At
# the budget's edge, n = 25,118 for k = 2, 20,752 for k = 3, 15,998 for k = 8
# and 11,443 for k = 100, building the heat table took 0.43-0.52 s and 70-94
# MiB, and the wave pair 0.31-0.58 s and 34-71 MiB (Python 3.11.7, one core of
# a shared 2-core host).
WEIGHT_BITS = 5 * 10**8

# The most estimated bits of a table that ``lattice-waves weights`` writes out.
# Writing is the large part there, since a weight's decimal digits take time
# quadratic in their count: at k = 3 the command took 1.1 s and 71 MB for heat
# at n = 6,000 (an estimate of 4.2*10^7 bits), 0.5 s for wave, and 4.4 s for a
# 46 MB file at n = 10^4 (Python 3.11.7).  So a full budget is about a second.
WRITTEN_WEIGHT_BITS = 5 * 10**7


def _require_table_size(k: int, n: int, budget: int) -> None:
    """IndexOutOfRange where the tables at k and n would take past ``budget`` bits.

    k and n are checked already; nothing of size n is built before this.
    """
    if (bits := n * n * log2(2 * k - 1) / 2) > budget:
        raise IndexOutOfRange(f"n={n}: a k={k} weight table would take about {bits:.3g} bits, "
                              f"past {budget}")


def tree_heat_weights(k: int, n: int, budget: int = WEIGHT_BITS) -> WeightTable:
    """Heat sphere weights for radii 0..n.

    Weight s is the solution value at the center, after n steps of the
    radialized heat recurrence, of the profile concentrated on the radius-s
    sphere with mean 1/S(s); equivalently the heat kernel value at any
    vertex at distance s.  For k = 2 the table is the kernel on Z: weight s
    is K_n(s).  Built from its horocycle sums (``_heat_sums``) by the
    inverse Abel transform (``_inverse_abel``), once
    ``_require_table_size`` has found it within ``budget`` bits.
    """
    k, n = _degree(k), natural(n, "time index n")
    _require_table_size(k, n, budget)
    return _inverse_abel(k, _heat_sums(k, n))


def tree_wave_weights(k: int, n: int,
                      budget: int = WEIGHT_BITS) -> tuple[WeightTable, WeightTable]:
    """Wave sphere weights: the pair (initial-value table, initial-velocity table).

    The propagators are the rows of ``cayley.wave_rows`` in the tree's -A,
    the step with center -k, built from their horocycle sums
    (``_wave_sums``) by the inverse Abel transform.  The first table covers
    radii 0..floor(n/2), the second 0..floor((n-1)/2) (empty for n = 0).
    A pair past ``budget`` bits is refused first (``_require_table_size``).
    """
    k, n = _degree(k), natural(n, "time index n")
    _require_table_size(k, n, budget)
    f, g = _wave_sums(k, n)
    return _inverse_abel(k, f), _inverse_abel(k, g)


def tree_heat_solve(f: TreeFunction, n: int, eval_at: Sequence[TreeVertex]) -> TreeFunction:
    """Heat solution at time n, evaluated at the requested vertices.

    A value depends on its vertex only through the vertex's hull position
    (``hull_position``), so ``_placed`` gives each vertex a position id and
    the value is computed once per position the window meets, from the
    position itself.  The window is checked there, before the weights are
    built, so a malformed window fails before any large-n work.
    """
    xs, ((ids, positions),) = _placed(eval_at, f.k, [f])
    table = tree_heat_weights(f.k, n)
    values = [table.apply(f, at) for at in positions]
    out = dict(zip(xs, map(values.__getitem__, ids)))
    return TreeFunction.trusted(f.k, *lowest_terms(out, f.denominator))


def radial_mass(g: TreeFunction, at: tuple[_Hull, int]) -> Fraction:
    """Total mass of g's radialization at hull position ``at``: M_g(x,0) + 2*sum_{r>=1} M_g(x,r).

    ``at`` is a position on g's own hull (``hull_position(g, x)``).  The
    sphere sums carry weight 1 at r = 0 and 2/S(r) beyond, added over the
    one denominator S(rmax), rmax the farthest radius whose sum is not 0:
    S(rmax)/S(r) is q^(rmax-r) for r >= 1, q = k - 1, so each sum gets
    weight 2 q^(rmax-r), by one pass of Horner's rule in q over a dense
    row, doubled, or one power per sum of a sparse one.  Radius 0, slot 0
    at shift 0, weighs S(rmax) instead of 2 q^rmax.  A mass of 0 is one
    shared ``Fraction``.
    """
    node, shift = at
    row = node.row
    if not row:
        return _ZERO
    q = g.k - 1
    if type(row) is list:
        top, total, v0 = len(row) - 1, 0, row[0]
        for v in row:
            total = total * q + v
    else:
        top, v0 = max(row), row.get(0, 0)
        total = sum([v * q ** (top - r) for r, v in row.items()])
    rmax = top + shift
    size = sphere_size(g.k, rmax)
    total *= 2
    if not shift:
        total += v0 * (size - 2 * q ** rmax)
    return Fraction(total, size * g.denominator) if total else _ZERO


def _require_massless(g: TreeFunction, positions: Sequence, vertex: Callable) -> None:
    """NotSolvable at ``vertex(j)``, the first j where g's radial mass at positions[j] is not 0."""
    for j, at in enumerate(positions):
        if mass := radial_mass(g, at):
            x = vertex(j)
            raise NotSolvable(f"tree wave equation unsolvable at vertex {x}: radialized velocity "
                              f"has total mass {mass}", detail=(x, mass))


def require_solvable_ball(g: TreeFunction, radius: int) -> None:
    """``tree_wave_solve``'s refusal on the ball of ``radius`` around the root, from witnesses.

    The ball lists vertices by length, then lexicographically.  Its witnesses
    are each hull vertex a with |a| <= radius and, if |a| < radius, a's first
    child off the hull, at (a, 1).  Every other vertex is at some (a, s >= 1),
    comes after that child and has its mass numerator (``radial_mass``).
    """
    hull = {ROOT, *(y[:i] for y in g.numerators for i in range(1, len(y) + 1))}
    xs = [a for a in hull if len(a) <= radius]
    for a in [a for a in xs if len(a) < radius]:
        c = next(c for c in count(1) if a[-1:] != (c,) and a + (c,) not in hull)
        xs += [a + (c,)] if c <= g.k else []
    xs.sort(key=lambda x: (len(x), x))
    _require_massless(g, [_walk(g, x) for x in xs], xs.__getitem__)


def tree_wave_solve(
    f: TreeFunction, g: TreeFunction, n: int, eval_at: Sequence[TreeVertex]
) -> TreeFunction:
    """Wave solution at time n at the requested vertices.

    The zero-mean compatibility condition applies to the radialization of
    g around each evaluation vertex and is checked at every one of them:
    the first vertex, in window order, whose mass is not 0 is reported.
    The mass and the g term depend on a vertex only through its position
    on g's hull, and the f term through its position on f's, so each is
    computed once per position the window meets, the mass at the
    position's first vertex.  The window is checked and placed on both
    hulls (``_placed``), then n is read, then every mass, and only then
    are the weights built: a malformed window is reported before a bad n,
    and a bad n before a mass.  The values are numerators over lcm(d_f, d_g).
    """
    require_domain(f.k, g)
    xs, ((gids, gpositions), (fids, fpositions)) = _placed(eval_at, f.k, [g, f])
    n = natural(n, "time index n")
    _require_massless(g, gpositions, lambda j: xs[gids.index(j)])
    ftable, gtable = tree_wave_weights(f.k, n)
    d = lcm(f.denominator, g.denominator)
    a, b = d // f.denominator, d // g.denominator
    fvalues = [a * ftable.apply(f, at) for at in fpositions]
    gvalues = [b * gtable.apply(g, at) for at in gpositions]
    values = map(add, map(fvalues.__getitem__, fids), map(gvalues.__getitem__, gids))
    return TreeFunction.trusted(f.k, *lowest_terms(dict(zip(xs, values)), d))
