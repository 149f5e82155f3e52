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
keeps one dict of its sums that are not 0; the zero function's hull is
the root alone, with none.  The weights are integers, so a solution is
integer numerators over the data's denominator.  Below the hull a
vertex's sums are those of its deepest hull prefix, shifted by the
distance to it, so a value depends only on that (prefix, shift) pair and
the solvers compute it once per pair.  A ``TreeFunction`` checks its
degree once, when it is built (``_degree``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import comb, lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import IndexOutOfRange, NotSolvable, ShapeMismatch
from .functions import Scaled, lowest_terms
from .groups import integer, integers, natural

TreeVertex = tuple[int, ...]

ROOT: TreeVertex = ()


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

        ``_hull_position`` grows the tree below it on demand.
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
    data in a's subtree, as (word, numerator) pairs, is grouped by its next
    letter only when a child is first asked for; a letter off the hull has
    no group in ``below``.
    """

    __slots__ = ("depth", "sums", "items", "below", "children")

    def __init__(self, items: Iterable[tuple[TreeVertex, int]], depth: int,
                 parent: _Hull | None):
        sums = {} if parent is None else {r + 1: v for r, v in parent.sums.items()}
        for y, v in items:
            r = len(y) - depth
            sums[r] = sums.get(r, 0) + v
            if parent is not None:
                sums[r + 2] = sums.get(r + 2, 0) - v
        self.depth, self.items = depth, items
        self.sums = {r: v for r, v in sums.items() if v}
        self.below: dict[int, list[tuple[TreeVertex, int]]] | None = None
        self.children: dict[int, _Hull] = {}

    def child(self, c: int) -> _Hull | None:
        """The hull vertex one letter c below this one, built on first use; None off the hull."""
        child = self.children.get(c)
        if child is not None:
            return child
        if self.below is None:
            self.below = {}
            for y, v in self.items:
                if len(y) > self.depth:
                    self.below.setdefault(y[self.depth], []).append((y, v))
            self.items = None
        items = self.below.pop(c, None)
        if items is not None:
            child = self.children[c] = _Hull(items, self.depth + 1, self)
        return child


def _hull_position(f: TreeFunction, x: TreeVertex) -> tuple[_Hull, int]:
    """(a, len(x) - len(a)), a the deepest prefix of x on f's hull.

    Walks x's letters from the root while they stay in the hull, building
    the hull vertices it meets and keeping them in ``f.rerooted``.  Every
    sphere sum of f around x is a's shifted by len(x) - len(a), so a
    value read from the sums depends on x only through this pair.  For
    f = 0 the hull is the root alone and the pair is (root, len(x)).  Hull
    vertices hash by identity: the pair can key a dict.
    """
    node = f.rerooted
    for c in x:
        child = node.children.get(c) or node.child(c)
        if child is None:
            break
        node = child
    return node, len(x) - node.depth


def _next_position(at: tuple[_Hull, int], c: int) -> tuple[_Hull, int]:
    """The hull position of x + (c,) from x's position ``at``: one step of ``_hull_position``."""
    node, shift = at
    if not shift:
        child = node.child(c)
        if child is not None:
            return child, 0
    return node, shift + 1


def _placed(words: Iterable, k: int,
            fs: Sequence[TreeFunction]) -> tuple[list[TreeVertex], list[list]]:
    """The window's vertices, and for each of ``fs`` their hull positions, in window order.

    This is where a window is checked, once.  In a window of tuples of
    ints (two type scans), a word p + (c,) listed after its prefix p is a
    vertex exactly when c is in 1..k and not p's last letter, and its
    positions are one ``_next_position`` step from p's.  Any other word is
    checked by ``make_vertex``, so a word that is not an array or holds a
    bad letter raises its error, and placed by ``_hull_position``.  The
    index of the vertices met so far lives for this call only.
    """
    words = list(words)
    ints = ({tuple}.issuperset(map(type, words))
            and {int}.issuperset(map(type, chain.from_iterable(words))))
    index: dict[TreeVertex, int] = {}
    xs, parents = [], []
    for w in words:
        i = index.get(w[:-1]) if ints and w else None
        if i is None or not 0 < (c := w[-1]) <= k or (len(w) > 1 and c == w[-2]):
            w, i = make_vertex(w, k), None
        index[w] = len(xs)
        xs.append(w)
        parents.append(i)
    positions = []
    for f in fs:
        at = []
        for x, i in zip(xs, parents):
            at.append(_hull_position(f, x) if i is None else _next_position(at[i], x[-1]))
        positions.append(at)
    return xs, positions


def _radius_sums(f: TreeFunction, x: TreeVertex) -> dict[int, int]:
    """Sums of f's numerators over each sphere around x, those that are 0 left out.

    Below the deepest hull prefix a of x the data is len(x) - len(a)
    further away than from a (``_hull_position``).  The result may be a
    cached dict itself: callers only read it.
    """
    node, shift = _hull_position(f, x)
    return {r + shift: v for r, v in node.sums.items()} if shift else node.sums


def sphere_sums(f: TreeFunction, x: TreeVertex) -> dict[int, Fraction]:
    """Sum of f over each sphere around x that its support meets, a sum of 0 included.

    The hull stores no zero sum, so the radii come from the support.
    """
    x, d = make_vertex(x, f.k), f.denominator
    sums, radii = _radius_sums(f, x), {tree_distance(x, y) for y in f.numerators}
    return {r: Fraction(sums.get(r, 0), d) for r in sorted(radii)}


def spherical_mean(f: TreeFunction, x: TreeVertex, r: int) -> Fraction:
    """Average of f over the sphere of radius |r| around x (even in r)."""
    x, r = make_vertex(x, f.k), abs(integer(r, "radius"))
    return Fraction(_radius_sums(f, x).get(r, 0), f.denominator * sphere_size(f.k, r))


def path_reduce(f: TreeFunction, x: TreeVertex) -> list[Fraction]:
    """The radial profile r -> M_f(x,r) for r >= 0, up to the farthest support point from x."""
    x, d = make_vertex(x, f.k), f.denominator
    sums = _radius_sums(f, x)
    top = max((tree_distance(x, y) for y in f.numerators), default=-1)
    return [Fraction(sums.get(r, 0), d * sphere_size(f.k, r)) for r in range(top + 1)]


def alpha_coeff(j: int, s: int, k: int) -> int:
    """Coefficient of the s-th harmonic in the j-th power of the drifted path symbol."""
    if abs(s) > j:
        raise IndexOutOfRange(f"harmonic index {s} outside [-{j}, {j}]")
    if s >= 0:
        return (-1) ** s * sum(
            comb(j, l + s) * comb(j, l) * (k - 1) ** l for l in range(j - s + 1)
        )
    return (-1) ** (-s) * sum(
        comb(j, l - s) * comb(j, l) * (k - 1) ** (l - s) for l in range(j + s + 1)
    )


class WeightTable(NamedTuple):
    """Closed-form sphere weights: value at x is sum_s weights[s] * (sphere sum at radius s).

    Weight s is the propagator's value at any vertex at distance s from its
    center.  The propagator is an integer polynomial in the adjacency
    applied to a point mass, so every weight is an ``int``.
    """

    k: int
    weights: list[int]

    def apply(self, f: TreeFunction, x: TreeVertex) -> int:
        """sum_s weights[s] * (sphere sum of f's numerators at radius s around x).

        The value at x is this over ``f.denominator``.  Data beyond the
        table's top radius has weight 0 and is skipped.
        """
        weights = self.weights
        return sum(weights[s] * v for s, v in _radius_sums(f, x).items() if s < len(weights))


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
    (``_hull_position``), so it is computed once per position met in the
    window and read for every other vertex there.  A vertex listed after
    its parent is checked and placed from the parent (``_placed``), before
    the weights are built, so a malformed window fails before any large-n
    work.
    """
    xs, (ats,) = _placed(eval_at, f.k, [f])
    table = tree_heat_weights(f.k, n)
    values = {}
    out = {}
    for x, at in zip(xs, ats):
        v = values.get(at)
        if v is None:
            v = values[at] = table.apply(f, x)
        out[x] = v
    return TreeFunction.trusted(f.k, *lowest_terms(out, f.denominator))


def radial_mass(g: TreeFunction, x: TreeVertex) -> Fraction:
    """Total mass of the radialization of g around x: M_g(x,0) + 2*sum_{r>=1} M_g(x,r).

    The sphere sums carry weight 1 at r = 0 and 2/S(r) beyond, added over
    the one denominator S(rmax), rmax the farthest radius with a sum not 0:
    S(rmax)/S(r) is (k-1)^(rmax-r) for r >= 1.
    """
    sums = _radius_sums(g, x)
    if not sums:
        return Fraction(0)
    rmax, q = max(sums), g.k - 1
    size = sphere_size(g.k, rmax)
    total = sum(v * (size if r == 0 else 2 * q ** (rmax - r)) for r, v in sums.items())
    return Fraction(total, size * g.denominator)


def tree_wave_solve(
    f: TreeFunction, g: TreeFunction, n: int, eval_at: Sequence[TreeVertex]
) -> TreeFunction:
    """Wave solution at time n at the requested vertices.

    The zero-mean compatibility condition applies to the radialization of
    g around each evaluation vertex and is checked at every one of them:
    the first vertex, in window order, whose mass is not 0 is reported.
    The mass and the g term depend on a vertex only through its position
    on g's hull, and the f term through its position on f's, so each is
    computed once per position met in the window.  A vertex listed after
    its parent is checked and placed on both hulls from the parent
    (``_placed``), before the weights and any mass, so a malformed window
    is reported first.  The values are numerators over lcm(d_f, d_g).
    """
    if f.k != g.k:
        raise ShapeMismatch("initial value and velocity live on trees of different degree")
    xs, (gats, fats) = _placed(eval_at, f.k, [g, f])
    ftable, gtable = tree_wave_weights(f.k, n)
    d = lcm(f.denominator, g.denominator)
    a, b = d // f.denominator, d // g.denominator
    fvalues, gvalues = {}, {}
    out = {}
    for x, gat, fat in zip(xs, gats, fats):
        gv = gvalues.get(gat)
        if gv is None:
            mass = radial_mass(g, x)
            if mass != 0:
                raise NotSolvable(
                    f"tree wave equation unsolvable at vertex {x}: "
                    f"radialized velocity has total mass {mass}",
                    detail=(x, mass),
                )
            gv = gvalues[gat] = b * gtable.apply(g, x)
        fv = fvalues.get(fat)
        if fv is None:
            fv = fvalues[fat] = a * ftable.apply(f, x)
        out[x] = fv + gv
    return TreeFunction.trusted(f.k, *lowest_terms(out, d))
