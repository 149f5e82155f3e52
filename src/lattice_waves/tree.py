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
keeps one dict of its sums that are not 0 and, from the same pass over
its data, that data grouped by next letter, from which a child is built
on first use; the zero function's hull is the root alone, with none.
The weights are integers, so a solution is integer numerators over the
data's denominator.  Below the hull a vertex's sums are those of its
deepest hull prefix, shifted by the distance to it, so a value depends
only on that (prefix, shift) pair, the vertex's hull position
(``hull_position``).  ``WeightTable.apply`` and ``radial_mass`` take the
position, not the vertex.  The solvers give each window vertex a
position id (``_placed``, one loop for every window, placing a vertex
from its parent's position when the parent is listed first), compute
each value once per distinct position, read it per vertex by id, and put
the solution in lowest terms with ``functions.lowest_terms``; a vertex
listed twice is one key, in its first listing's place.  A
``TreeFunction`` checks its degree once, when it is built (``_degree``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, count
from math import comb, lcm
from operator import add
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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

    ``sums`` holds, per radius r, the sum of the data's numerators at
    distance r from a; a sum of 0 is not stored.  With H_b(r) the data in
    b's subtree r below b, the sums around b, a child of a, are
    N_b(r) = H_b(r) + N_a(r-1) - H_b(r-2); at the root they are H.  The
    zero function's hull is the root with no sums and no children.  The
    pass that adds up the sums also groups the data below a, as (word,
    numerator) pairs, by its next letter in ``below``; a child is built
    from its group when first asked for, and a letter off the hull has no
    group.
    """

    __slots__ = ("depth", "sums", "below", "children")

    def __init__(self, items: Iterable[tuple[TreeVertex, int]], depth: int,
                 parent: _Hull | None):
        sums = {} if parent is None else {r + 1: v for r, v in parent.sums.items()}
        below: dict[int, list[tuple[TreeVertex, int]]] = {}
        for y, v in items:
            r = len(y) - depth
            sums[r] = sums.get(r, 0) + v
            if parent is not None:
                sums[r + 2] = sums.get(r + 2, 0) - v
            if r:
                below.setdefault(y[depth], []).append((y, v))
        self.depth, self.below, self.children = depth, below, {}
        self.sums = {r: v for r, v in sums.items() if v}

    def child(self, c: int) -> _Hull | None:
        """The hull vertex one letter c below this one, built on first use; None off the hull."""
        child = self.children.get(c)
        if child is None and (items := self.below.pop(c, None)) is not None:
            child = self.children[c] = _Hull(items, self.depth + 1, self)
        return child


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
    the shift len(x) - len(a) further from the data than a is: this is the
    one place that reads a's sums at the shift.
    """
    node, shift = at
    sums = node.sums
    return zip([r + shift for r in sums], sums.values()) if shift else sums.items()


def sphere_sums(f: TreeFunction, x: TreeVertex) -> dict[int, Fraction]:
    """Sum of f over each sphere around x that its support meets, a sum of 0 included.

    The hull stores no zero sum, so the radii come from the support.
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
        value at x is this over ``f.denominator``.  Data beyond the table's
        top radius has weight 0 and is skipped.
        """
        require_domain(self.k, f)
        weights = self.weights
        top = len(weights)
        return sum(weights[s] * v for s, v in _radius_sums(at) if s < top)


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


def tree_heat_weights(k: int, n: int) -> WeightTable:
    """Heat sphere weights for radii 0..n.

    Weight s is the solution value at the center, after n steps of the
    radialized heat recurrence, of the profile concentrated on the radius-s
    sphere with mean 1/S(s); equivalently the heat kernel value at any
    vertex at distance s.  For k = 2 the table is the kernel on Z: weight s
    is K_n(s).  Built from its horocycle sums (``_heat_sums``) by the
    inverse Abel transform (``_inverse_abel``).
    """
    k, n = _degree(k), natural(n, "time index n")
    return _inverse_abel(k, _heat_sums(k, n))


def tree_wave_weights(k: int, n: int) -> tuple[WeightTable, WeightTable]:
    """Wave sphere weights: the pair (initial-value table, initial-velocity table).

    The propagators are the rows of ``cayley.wave_rows`` in the tree's -A,
    the step with center -k, built from their horocycle sums
    (``_wave_sums``) by the inverse Abel transform.  The first table covers
    radii 0..floor(n/2), the second 0..floor((n-1)/2) (empty for n = 0).
    """
    k, n = _degree(k), natural(n, "time index n")
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
    one denominator S(rmax), rmax the farthest radius with a sum not 0:
    S(rmax)/S(r) is (k-1)^(rmax-r) for r >= 1.  A mass of 0 is one shared
    ``Fraction``.
    """
    sums = dict(_radius_sums(at))
    if not sums:
        return _ZERO
    rmax, q = max(sums), g.k - 1
    size = sphere_size(g.k, rmax)
    total = sum(v * (size if r == 0 else 2 * q ** (rmax - r)) for r, v in sums.items())
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
