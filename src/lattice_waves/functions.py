"""Finitely supported rational-valued functions, and the exact convolution algebra on a group.

Every function is held in one form, ``Scaled``: integer numerators over
one denominator, in lowest terms.  Kernels are integers (denominator 1),
so a solution is integer arithmetic on the data's numerators over the
data's denominator; ``Fraction`` appears only where a value is read
(``__call__``, ``entries``) or a rational is passed in.  Zero values are
never stored, so the support is always the key set and all sums are
finite and exact.

Kernels are integer polynomials in one function (``convolve_polynomials``),
and a solution is a kernel convolved with the data (``convolve``).  This
module alone knows the packed (Kronecker) layout that computes both, and
the sparse fallbacks used where that layout would be mostly empty.  Both
multiply a packed ``int`` by a factor with few points as one shifted copy
per point (``_copies``): Horner's rule by its step, kernel x data by the
operand with fewer points; dense factors take the big-int multiply.  On
torsion, a kernel's layout keeps each axis near its modulus, and partial
products are folded onto their residues as they are multiplied.
``convolve_polynomials`` has two callers, the Cayley heat kernel and the
Cayley wave kernels; the tree weight tables run their own recurrences.
"""

from __future__ import annotations

import sys
from collections import deque
from fractions import Fraction
from itertools import compress, product, repeat
from math import comb, gcd, lcm, prod
from operator import add as add_int, floordiv, gt, le, mul
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import GroupMismatch
from .groups import GroupElement, GroupSpec, adder, identity, make_element

_new_tuple = tuple.__new__


def lowest_terms(numerators: dict, denominator: int) -> tuple[dict, int]:
    """(numerators, denominator) with zero numerators dropped, divided by their gcd.

    ``denominator`` must be positive; the dict is not changed.  A dict
    already in lowest terms, with gcd 1 and no zero, is returned itself,
    not rebuilt, so its keys are not hashed again: every caller hands over
    a fresh dict of its own (``over_lcm``, ``add``, ``scale``,
    ``convolve``, the tree solvers and the oracle steps ``_heat`` and
    ``_wave``).
    """
    values = numerators.values()
    g = gcd(denominator, *values)
    if g == 1 and all(values):
        return numerators, denominator
    kept = zip(compress(numerators, values), map(floordiv, filter(None, values), repeat(g)))
    return dict(kept), denominator // g


def over_lcm(triples: Iterable[tuple]) -> tuple[dict, int]:
    """Lowest-terms (numerators, denominator) of the sums of num/den at each key.

    ``triples`` are (key, num, den), num and den ``int``s, den non-zero and
    of either sign.  Each num is scaled to the lcm of the den, summed per
    key, and the pair put in lowest terms once.
    """
    triples = list(triples)
    d = lcm(*(den for _, _, den in triples))
    out: dict = {}
    for x, num, den in triples:
        out[x] = out.get(x, 0) + num * (d // den)
    return lowest_terms(out, d)


class Scaled:
    """A finitely supported rational-valued map: integer numerators over one denominator.

    ``numerators`` maps each point of the support to a non-zero ``int``, and
    ``denominator`` is an ``int`` >= 1 with gcd(denominator, *numerators) == 1.
    So the pair is canonical: two maps are equal exactly when their pairs
    are.  ``tag`` is what the points live on: a group for a
    ``SupportedFunction``, a tree degree for a ``TreeFunction``, the two
    subclasses.  A subclass adds only its public constructor, which checks
    the keys and takes rationals, and a name for its tag.
    """

    def _init(self, tag, pairs: Iterable[tuple]) -> None:
        """Set from (key, rational) pairs; values at one key add up."""
        self.tag = tag
        fractions = ((x, Fraction(v)) for x, v in pairs)
        self.numerators, self.denominator = over_lcm(
            (x, q.numerator, q.denominator) for x, q in fractions
        )

    @classmethod
    def trusted(cls, tag, numerators: dict, denominator: int = 1):
        """Wrap a lowest-terms pair the program built itself, skipping every check.

        Every key must already conform to ``tag`` and every numerator be a
        non-zero ``int``; the dict is taken over, not copied.
        """
        f = object.__new__(cls)
        f.tag, f.numerators, f.denominator = tag, numerators, denominator
        return f

    def __call__(self, x) -> Fraction:
        return Fraction(self.numerators.get(x, 0), self.denominator)

    def support(self) -> set:
        return set(self.numerators)

    @property
    def entries(self) -> Mapping:
        """The values as ``Fraction``s: a read-only mapping, built on each read."""
        d = self.denominator
        return MappingProxyType({x: Fraction(v, d) for x, v in self.numerators.items()})

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.tag == other.tag
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.tag!r}, {dict(self.entries)!r})"


class SupportedFunction(Scaled):
    """A finite map GroupElement -> rational over a fixed group.

    The public constructor reduces each key's torsion and sums values at
    one key; the values may be any rationals.
    """

    def __init__(self, group: GroupSpec, entries: Mapping | None = None):
        pairs = ((make_element(group, x.free, x.torsion), v) for x, v in (entries or {}).items())
        self._init(group, pairs)

    @property
    def group(self) -> GroupSpec:
        return self.tag


def zero(G: GroupSpec) -> SupportedFunction:
    return SupportedFunction(G, {})


def delta(G: GroupSpec, x: GroupElement | None = None) -> SupportedFunction:
    """Unit point mass at x; defaults to the identity."""
    if x is None:
        x = identity(G)
    return SupportedFunction(G, {x: 1})


def require_domain(tag, *fs: Scaled) -> None:
    """The one domain rule: each f lives on ``tag``, a group or a tree degree (GroupMismatch)."""
    for f in fs:
        if f.tag != tag:
            raise GroupMismatch(f"{type(f).__name__} on domain {f.tag!r} used on {tag!r}")


def add(f: Scaled, g: Scaled) -> Scaled:
    """f + g, for two functions of one type on one group or tree."""
    require_domain(f.tag, g)
    d = lcm(f.denominator, g.denominator)
    a, b = d // f.denominator, d // g.denominator
    out = {x: a * v for x, v in f.numerators.items()}
    get = out.get
    for x, v in g.numerators.items():
        out[x] = get(x, 0) + b * v
    return type(f).trusted(f.tag, *lowest_terms(out, d))


def sub(f: Scaled, g: Scaled) -> Scaled:
    return add(f, scale(g, -1))


def scale(f: Scaled, c) -> Scaled:
    """c f for a rational c."""
    c = Fraction(c)
    numerators = {x: c.numerator * v for x, v in f.numerators.items()}
    return type(f).trusted(f.tag, *lowest_terms(numerators, c.denominator * f.denominator))


def convolve(f: SupportedFunction, g: SupportedFunction) -> SupportedFunction:
    """Exact group convolution (f*g)(x) = sum_y f(y) g(x-y).

    The numerators are convolved over integers and the product put over
    the product of the denominators, in lowest terms; the product of two
    integral functions is integral.  Where the product's box has no more
    slots than the operands have pairs of support points, or, with slots of
    native C integers, where the linear cost model of both paths favours
    the box, the product is one packed ``int`` (``_packed_product``,
    ``_Packing``): the operand with more points is packed at its own lower
    corner, and the product is one shifted copy of it per point of the
    other operand, or, where that operand is dense, a big-int multiply by
    it packed at its corner (``COPIES``).  Elsewhere, as for far-apart
    supports, a sparse double loop over the pairs accumulates into a dict.
    """
    require_domain(f.tag, g)
    G = f.group
    out = _packed_product(G, f.numerators, g.numerators)
    if out is None:
        out = _sparse_product(G, f.numerators, g.numerators)
    return SupportedFunction.trusted(G, *lowest_terms(out, f.denominator * g.denominator))


def _sparse_product(G: GroupSpec, a: dict, b: dict) -> dict[GroupElement, int]:
    """The convolution of two integer functions, pair by pair; zero sums dropped."""
    elem_sum = adder(G)
    out: dict[GroupElement, int] = {}
    get = out.get
    for y, u in a.items():
        for z, v in b.items():
            x = elem_sum(y, z)
            out[x] = get(x, 0) + u * v
    return {x: v for x, v in out.items() if v}


def _packed_product(G: GroupSpec, a: dict, b: dict) -> dict[GroupElement, int] | None:
    """The convolution of two integer functions in one packed ``int``.

    None for an empty operand, and where the box would cost more than the
    sparse loop over the pairs: where it holds more slots than there are
    pairs, unless the slots are native (``_Packing.native``) and box +
    NATIVE_FIXED <= NATIVE_SPREAD * pairs.  So every product with box <=
    pairs packs.  max|a| sum|b| and sum|a| max|b| each bound every
    coefficient.  Only the operand with more points is packed, and the
    product is one shifted copy of it per point of the other (``_copies``):
    a value of +-1 costs no multiply, and the other operand's empty slots
    cost nothing.  Where the other operand's k points are dense, k^2 >
    COPIES * the bytes it spans packed, it is packed too and the two are
    multiplied.  Both give the same ``int``, decoded at the sum of the two
    corners.
    """
    if not (a and b):
        return None
    columns_a, columns_b = _lift(G, a), _lift(G, b)
    (lo_a, widths_a), (lo_b, widths_b) = _box(columns_a), _box(columns_b)
    widths = _grown(widths_a, widths_b)
    box, pairs = prod(widths), len(a) * len(b)
    widened = box > pairs
    if widened and box + NATIVE_FIXED > NATIVE_SPREAD * pairs:
        return None
    u, v = list(a.values()), list(b.values())
    top_u, top_v = max(max(u), -min(u)), max(max(v), -min(v))
    bound = min(top_u * sum(map(abs, v)), sum(map(abs, u)) * top_v)
    packing = _Packing(G, widths, bound)
    if widened and not packing.native:
        return None
    corner = list(map(add_int, lo_a, lo_b))
    if len(u) < len(v):
        columns_a, u, lo_a, columns_b, v, lo_b = columns_b, v, lo_b, columns_a, u, lo_a
        widths_b = widths_a
    p = packing.pack(columns_a, u, lo_a)
    # The slots from b's corner to the far corner of its box, sum (w - 1) * stride + 1.
    span = sum(map(mul, widths_b, packing.strides)) - sum(packing.strides) + 1
    if len(v) ** 2 > COPIES * span * packing.slot:
        return packing.unpack(p * packing.pack(columns_b, v, lo_b), corner)
    return packing.unpack(_copies(p, packing.terms(columns_b, v, lo_b)), corner)


def convolve_polynomials(f: SupportedFunction, rows: list[list[int]]) -> list[SupportedFunction]:
    """sum_i row[i] f^{*i} for each row of ``int`` coefficients; f integral.

    Each row is a polynomial in the one function f, evaluated in one packed
    ``int`` (``_packing``) and decoded once, or by Horner's rule one
    ``convolve`` at a time where the packed box would be mostly empty.
    sum_i |row[i]| |f|_1^i bounds every coefficient, and every partial
    product's too: folding torsion never raises the l1 norm.  A row whose
    only non-zero coefficient is its last is one power (``_power``); the
    others run Horner's rule (``_horner``).  An empty row is the zero
    polynomial; the rows beside it have length at most 1 (sparse path).
    """
    G = f.group
    e = identity(G)
    top = max(map(len, rows)) - 1
    norm = sum(map(abs, f.numerators.values()))
    bound = max(sum(abs(c) * norm**i for i, c in enumerate(row) if c) for row in rows)
    layout = _packing(G, f.numerators, top, bound) if f.numerators and top else None
    out = []
    if layout is None:
        for row in rows:
            h = SupportedFunction.trusted(G, {})
            for c in reversed(row):
                h = add(convolve(h, f), SupportedFunction.trusted(G, {e: c} if c else {}))
            out.append(h)
        return out
    # A product of j factors is decoded at j times the corner of f.
    packing, columns, lo, step = layout
    values = list(f.numerators.values())
    # f packed at lo, as its values with their bit offsets.
    terms = packing.terms(columns, values, lo)
    for row in rows:
        degree = len(row) - 1
        if row[-1] and not any(row[:-1]):
            p = row[-1] * _power(packing, terms, step, degree)
        else:
            p = _horner(packing, terms, step, lo, row)
        out.append(SupportedFunction.trusted(G, packing.unpack(p, [degree * v for v in lo])))
    return out


def _power(packing: _Packing, terms: list[tuple[int, int]], step: list[int], n: int) -> int:
    """f^n in ``packing``, for f packed at its corner in a box ``step`` wide.

    ``terms`` are f's values with their bit offsets, summed into one ``int``
    a.  Where the layout holds the lifted box of a^n, no fold can be needed
    and this is one big-int power.  Elsewhere it squares and multiplies,
    and a partial product is folded (``_Packing.room``) only when the next
    product would outgrow the layout's torsion widths.
    """
    a = sum(v << s for s, v in terms)
    if packing.holds([n * (w - 1) + 1 for w in step]):
        return a ** n
    p, widths = a, step
    for bit in bin(n)[3:]:
        p, widths = packing.room(p, widths, widths)
        p, widths = p * p, _grown(widths, widths)
        if bit == "1":
            p, widths = packing.room(p, widths, step)
            p, widths = p * a, _grown(widths, step)
    return p


def _horner(packing: _Packing, terms: list[tuple[int, int]], step: list[int], lo: list[int],
            row: list[int]) -> int:
    """sum_i row[i] f^i in ``packing`` by Horner's rule; f is packed at ``lo``, ``step`` wide.

    ``terms`` are f's values with their bit offsets, and each product with
    f is a sum of shifted copies, one per term (``_copies``, the loop that
    kernel x data shares): a few linear passes, where a big-int multiply
    would also pay for the empty slots of f's box, and every generator's
    value in a kernel step is 1, which needs no multiply.  delta_e is
    added at the new corner as it goes (``_Packing.unit_shifts``).
    Unless the layout holds the row's lifted box, the partial sum is
    folded before each product that would outgrow the layout
    (``_Packing.room``).
    """
    folds = not packing.holds([(len(row) - 1) * (w - 1) + 1 for w in step])
    units = packing.unit_shifts(lo, len(row))
    p, widths = row[-1], [1] * len(step)
    for j, c in enumerate(reversed(row[:-1]), 1):
        if folds:
            p, widths = packing.room(p, widths, step)
            widths = _grown(widths, step)
        p = _copies(p, terms, c << units[j])
    return p


def _copies(p: int, terms: list[tuple[int, int]], q: int = 0) -> int:
    """q + p times the sum of v 2^s over ``terms`` (s, v), as one shifted copy of p per term.

    Each copy is a linear pass over p, where a big-int multiply would also
    pay for the empty slots between the terms; a value of 1 or -1 adds or
    subtracts its copy with no multiply.
    """
    for s, v in terms:
        if v == 1:
            q += p << s
        elif v == -1:
            q -= p << s
        else:
            q += v * (p << s)
    return q


def _grown(u: list[int], v: list[int]) -> list[int]:
    """The widths of the box of a product of factors in boxes ``u`` and ``v`` wide."""
    return [x + y - 1 for x, y in zip(u, v)]


# A packed box may be at most this many times the largest support its
# products can reach (``_reach``).  On Z with S = {+-1, +-L}, K_n for n =
# 10, 20 and 40 takes as long packed as by the sparse Horner's rule near a
# ratio of 32 (25 to 60); past it the sparse ``convolve`` is the faster, and
# the smaller in memory.
SPREAD = 32

# Where its slots are native (``_Packing.native``), a product whose box holds
# more slots than it has pairs of support points still packs while box +
# NATIVE_FIXED <= NATIVE_SPREAD * pairs: the sparse loop against a linear
# model of the packed product.  Timed on kernel-shaped operands (a full box,
# 2 to 9 a side) times data-shaped ones (3 to 40 points, spread to 0.3 to 6
# box slots a pair) on Z, Z^2 and Z x Z12, slots of 1 to 8 bytes (best of 5,
# Python 3.11.7), the sparse loop took about 1 us a pair and the packed
# product about 32 us plus 0.25 us a slot.  The fixed term keeps small
# products, whose time the packed product's fixed cost sets, on box <= pairs.
# Wider slots, written and read one at a time, took 0.4 to 1.2 us a slot and
# keep box <= pairs.  That model was fitted on the big-int multiply.  On
# shifted copies (``COPIES``), over the 268 products of the benchmark's
# Cayley decks whose box holds more slots than pairs (passes 1 to 3 at seed
# 7919, best of 5), the packed product took about 34 us plus 0.35 us a slot
# and the sparse loop about 1.2 us a pair, a crossover at box + 97 <= 3.4 *
# pairs, near the constants', which stand.
NATIVE_SPREAD, NATIVE_FIXED = 4, 128

# The k points of the smaller operand of a packed product are k shifted
# copies of the larger operand packed (``_copies``) while k^2 <= COPIES *
# the bytes the smaller operand spans packed; past that both are packed and
# multiplied.  Copies cost about k passes over the product; the multiply
# pays for every slot of the smaller operand's span, empty ones included,
# but Karatsuba grows more slowly than k once that operand is dense.  Fitted
# on a sweep of 1,254 products (best of 5, Python 3.11.7): Z, Z^2, Z^3 and
# Z x Z12, the larger operand a box of 168 to 12,000 points, the smaller 5
# to 800 points spread over 1 to 40 slots a point, slots of 2, 4 and 8
# bytes.  All of them took 26.7 s by this rule (26.0 s at the faster path of
# each), 35.0 s by the multiply alone, 28.1 s by copies alone and 31.0 s
# with a plain cap of 200 points on k; the plain cap was over 10 % slower
# than the multiply on 93 products, this rule on 5, all with k <= 180 on Z^2
# and Z^3, where copies were the faster when such shapes were timed again
# alone.  Of the 1,089 products the benchmark's Cayley decks pack in passes
# 1 to 3 at seed 7919, 84 take the multiply; copies took 0.89 to 1.14 times
# as long on those.
COPIES = 2


def _packing(G: GroupSpec, support, degree: int, bound: int) -> tuple | None:
    """The layout for products of up to ``degree`` factors on ``support``.

    Returns it with the lifted columns of ``support`` (``_lift``), the
    corner they are packed at and the widths of their box: the box around
    ``support`` and the identity, which Horner's rule adds to partial
    products.  Each torsion axis is capped at 2m - 1 slots, or at its
    lifted width, degree (w - 1) + 1, where that is smaller; products are
    folded as they go (``_power``, ``_horner``).  None where the box holds
    more than SPREAD slots per element the products can reach, as when
    generators lie far apart.  The box is sized from the input alone,
    before anything is allocated.
    """
    rank = G.rank
    columns = _lift(G, support)
    lo, step = _box([[0, *c] for c in columns])
    lifted = [degree * (w - 1) + 1 for w in step]
    capped = lifted[:rank] + [min(w, 2 * m - 1) for w, m in zip(lifted[rank:], G.moduli)]
    if prod(capped) > SPREAD * _reach(G, support, degree, prod(lifted[:rank])):
        return None
    return _Packing(G, capped, bound), columns, lo, step


def _reach(G: GroupSpec, support, degree: int, free_box: int) -> int:
    """An upper bound on the support size of a product of up to ``degree`` factors.

    Such a product is sum_j d_j x_j + sum_y c_y y, over the p pairs
    {x, -x} in ``support`` and its q other non-identity elements, with d
    integral, c >= 0 and sum |d_j| + sum c_y <= degree.  The generating
    function (1+t)^p / (1-t)^(p+q+1) counts these: sum_j C(p,j)
    C(degree-j+p+q, p+q).  The product also lies in the free part of the
    box times the torsion.
    """
    others = set(support) - {identity(G)}
    moduli = G.moduli
    # Each x with -x as a plain (free, torsion) pair, which hashes and compares as x does.
    negated = [(x, (tuple([-v for v in x.free]),
                    tuple([-t % m for t, m in zip(x.torsion, moduli)]))) for x in others]
    p = sum(1 for x, y in negated if y in others and y != x) // 2
    pq = len(others) - p
    ball = sum(comb(p, j) * comb(degree - j + pq, pq) for j in range(min(p, degree) + 1))
    return min(ball, free_box * prod(G.moduli))


def _lift(G: GroupSpec, support) -> list[list[int]]:
    """The coordinates of ``support`` as integers, one list per coordinate.

    Each torsion coordinate is taken to its residue nearest 0.
    """
    columns = [[x.free[i] for x in support] for i in range(G.rank)]
    for i, m in enumerate(G.moduli):
        columns.append([v - m if 2 * v > m else v for v in (x.torsion[i] for x in support)])
    return columns


def _box(columns: list[list[int]]) -> tuple[list[int], list[int]]:
    """The lower corner and the widths of the box around lifted ``columns``."""
    lo = list(map(min, columns))
    return lo, [max(c) - v + 1 for c, v in zip(columns, lo)]


class _Packing:
    """Kronecker substitution: integer functions on G held as one Python ``int``.

    A function whose elements lie in a box is the polynomial sum c_x X^e(x),
    e(x) the mixed-radix index of x in the box, evaluated at X = 2^(8*slot)
    (Schonhage, EUROCAM 1982; Harvey, J. Symbolic Comput. 44, 2009).  The
    product of two such ints is then their convolution: a sum of shifted
    copies of one, a copy per value of the other at its bit offset
    (``terms``, ``_copies``), or, where both are dense, CPython's big-int
    multiply.  ``bound`` must bound every value of every product that is
    read, and every value that is packed.

    Every coordinate is lifted to Z (``_lift``), and each factor is packed
    at a lower corner of its own: index 0 is the corner.  If factors lie in
    [lo_i, hi_i] and [lo'_i, hi'_i] along coordinate i, their product lies
    in [lo_i + lo'_i, hi_i + hi'_i], so it is decoded at the sum of the
    corners and needs a box of width (hi_i - lo_i) + (hi'_i - lo'_i) + 1.
    ``widths`` must hold every product.  Lifted torsion is reduced mod m_i
    when the result is decoded.

    Slots are signed and ``slot`` bytes wide, 2^(8*slot - 1) > bound;
    slots of up to 8 bytes are rounded up to 1, 2, 4 or 8.  Packing writes
    each value plus a bias of half a slot into a buffer of biased zeros and
    takes the bias off the whole ``int`` once; reading a product adds the
    bias to every slot, so that no slot borrows from the next, and takes
    the bytes once.  Rounded slots on a little-endian host are written
    through one cast of the buffer to an unsigned C integer type, and read
    through one cast to a signed one, the bias flipped off by an exclusive
    or, which leaves each slot in two's complement; wider slots, and every
    slot on a big-endian host, are written and read one at a time.

    Torsion coordinates come last, so they vary fastest: each free
    position owns one block of slots, the torsion box.  One fold reduces
    torsion, on the packed ``int`` itself (``fold``): decoding folds every
    block onto its residues where a torsion width exceeds its modulus, and
    residues that cancel read 0 like empty slots.  No torsion width
    exceeds 2m - 1: a kernel layout (``_packing``) is capped there and
    folds partial products as it multiplies, and two factors lifted within
    m residues each (``_lift``) multiply to a span of at most 2m - 1.
    """

    def __init__(self, G: GroupSpec, widths: list[int], bound: int):
        self.rank, self.moduli = G.rank, G.moduli
        self.widths = widths
        # Mixed-radix strides, the last coordinate fastest.
        self.strides = _strides(widths)
        self.size = prod(widths)
        slot = (bound.bit_length() + 8) // 8
        self.slot = slot if slot > 8 else 1 << (slot - 1).bit_length()
        self.half = 1 << (8 * self.slot - 1)
        self.zero = self.half.to_bytes(self.slot, "little")
        self.bias = int.from_bytes(self.zero * self.size, "little")

    @property
    def native(self) -> bool:
        """Whether slots are written and read through one cast to a C integer type."""
        return self.slot <= 8 and sys.byteorder == "little"

    def _origin(self, corner: list[int]) -> int:
        """The index of the identity in a function packed at ``corner``."""
        return -sum(map(mul, corner, self.strides))

    def index(self, columns: list[list[int]], count: int, corner: list[int]) -> list[int]:
        """The slot of each of ``count`` elements, lifted to ``columns``, packed at ``corner``."""
        index = [self._origin(corner)] * count
        for column, stride in zip(columns, self.strides):
            index = list(map(add_int, index, map(mul, column, repeat(stride))))
        return index

    def terms(self, columns: list[list[int]], values: list[int],
              corner: list[int]) -> list[tuple[int, int]]:
        """``values`` at the lifted ``columns``, packed at ``corner``, with their bit offsets."""
        bits = 8 * self.slot
        return [(bits * i, v) for i, v in zip(self.index(columns, len(values), corner), values)]

    def pack(self, columns: list[list[int]], values: list[int], corner: list[int]) -> int:
        """One factor as an ``int``: ``values`` at the lifted ``columns``, from ``corner``."""
        slot = self.slot
        index = self.index(columns, len(values), corner)
        zeros = self.zero * (max(index) + 1)
        buf = bytearray(zeros)
        biased = map(add_int, values, repeat(self.half))
        if self.native:
            view = memoryview(buf).cast("BHIQ"[slot.bit_length() - 1])
            deque(map(view.__setitem__, index, biased), 0)
        else:
            for i, c in zip(index, biased):
                buf[i * slot:(i + 1) * slot] = c.to_bytes(slot, "little")
        return int.from_bytes(buf, "little") - int.from_bytes(zeros, "little")

    def unit_shifts(self, lo: list[int], count: int) -> list[int]:
        """The bit offsets of delta_e in products of 0, ..., count - 1 factors packed at ``lo``.

        A product of j factors is decoded at j lo.  On a torsion axis
        delta_e goes to the first representative of 0 at or past that
        corner: once a factor has been folded, 0 itself may lie outside
        the product's box.
        """
        rank, strides, bits = self.rank, self.strides, 8 * self.slot
        free = -bits * sum(map(mul, lo[:rank], strides))
        units = [j * free for j in range(count)]
        for c, m, s in zip(lo[rank:], self.moduli, strides[rank:]):
            units = [u + bits * s * (-j * c % m) for j, u in enumerate(units)]
        return units

    def holds(self, widths: list[int]) -> bool:
        """Whether a box ``widths`` wide fits the layout from its corner."""
        return all(map(le, widths, self.widths))

    def room(self, p: int, widths: list[int], factor: list[int]) -> tuple[int, list[int]]:
        """p and the widths of its box, folded first if a product with a ``factor`` box won't fit.

        A folded p spans at most m residues on each torsion axis, so its
        product with a folded factor, or with one lifted to width at most
        m, fits a torsion width of 2m - 1.
        """
        if self.holds(_grown(widths, factor)):
            return p, widths
        rank = self.rank
        return self.fold(p, widths), widths[:rank] + list(map(min, widths[rank:], self.moduli))

    def fold(self, p: int, widths: list[int]) -> int:
        """p, in a box ``widths`` wide, with each torsion axis folded onto its residues.

        Along a torsion axis of modulus m and width w, at most 2m - 1 as
        in every layout, the slots m, ..., w - 1 from the corner are added
        to those m below, which hold the same residues: one pass.  The
        corner stays as it was, and each block spans the residues c, ...,
        c + m - 1 from its corner c.  This is done on the ``int`` itself.
        With the bias added every slot is non-negative, so a mask lifts the
        high slots out whole and a shift by m strides adds them back in;
        ``bound`` bounds every partial sum of lifted values, so no slot
        overflows.  Only the slots of p's box are touched.
        """
        slot, rank = self.slot, self.rank
        torsion = self.widths[rank:]
        slots = sum(map(mul, [w - 1 for w in widths[:rank]], self.strides)) + prod(torsion)
        bias = int.from_bytes(self.zero * slots, "little")
        for w, top, m, stride in zip(widths[rank:], torsion, self.moduli, self.strides[rank:]):
            low, size = m * stride * slot, stride * slot
            if w > m:
                # The slots [m, w) of every block, padded out to the layout's width.
                block = bytes(low) + b"\xff" * (w * size - low) + bytes((top - w) * size)
                mask = int.from_bytes(block * (slots // (top * stride)), "little")
                high = ((p + bias) & mask) - (bias & mask)
                p += (high >> 8 * low) - high
        return p

    def unpack(self, p: int, corner: list[int]) -> dict[GroupElement, int]:
        """The non-zero values of a packed product, decoded at ``corner``.

        Where a torsion width exceeds its modulus, the ``int`` is folded
        onto its residues first (``fold``).  Then each non-zero slot's key
        is its free coordinates paired with its residues, both read off the
        box's axes in slot order; the slots a fold emptied read 0.
        """
        slot, rank = self.slot, self.rank
        if any(map(gt, self.widths[rank:], self.moduli)):
            p = self.fold(p, self.widths)
        biased = p + self.bias
        if self.native:
            data = (biased ^ self.bias).to_bytes(self.size * slot, "little")
            values = memoryview(data).cast("bhiq"[slot.bit_length() - 1]).tolist()
        else:
            half, from_bytes = self.half, int.from_bytes
            data = biased.to_bytes(self.size * slot, "little")
            values = [from_bytes(data[i:i + slot], "little") - half
                      for i in range(0, len(data), slot)]
        axes = [range(c, c + w) for c, w in zip(corner, self.widths)]
        residues = [[v % m for v in axis] for axis, m in zip(axes[rank:], self.moduli)]
        # Slots that hold only the bias, or residues that cancel, read 0 and are skipped.
        keys = compress(product(product(*axes[:rank]), product(*residues)), values)
        return dict(zip(map(_new_tuple, repeat(GroupElement), keys), filter(None, values)))


def _strides(widths: list[int]) -> list[int]:
    """Mixed-radix strides for ``widths``, the last coordinate varying fastest."""
    strides = [1] * len(widths)
    for i in range(len(widths) - 2, -1, -1):
        strides[i] = strides[i + 1] * widths[i + 1]
    return strides


def trivial_character_sum(f: SupportedFunction) -> Fraction:
    """The value of the transform at the trivial character: the total mass of f."""
    return Fraction(sum(f.numerators.values()), f.denominator)

