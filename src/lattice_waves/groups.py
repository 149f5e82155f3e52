"""Finitely generated discrete abelian groups Z^rank x Z_m1 x ... x Z_mt.

Elements are integer tuples (free part, torsion part), with torsion
coordinates always stored reduced mod m_i so that equality is plain
componentwise comparison.  Every operation here is a pure function of
immutable values.

``integer`` is the one rule for every integer read from outside, such as
a coordinate, a tree-word letter, a rank, a modulus or a tree degree: an
``int`` that is not a ``bool``, or a decimal string; ``natural`` holds a
time index or a radius to 0..sys.maxsize too, and ``integer_column``
reads a column of values by the same rule at once, or leaves it to
``integer``.  The constructors, solvers
and wire format read through them, so they accept and reject alike.
``array`` is the rule for an array, ``selector`` for a string that picks
one of a fixed set: a problem kind, a kernel role, a table, a suite.
The constructors and ``elem_add`` check element shapes; ``adder`` gives
the solvers and the oracles an unchecked sum for conforming elements.
``closure`` is the one breadth-first enumeration, of a Cayley ball
(``cayley.ball``) and of a quotient's finite subgroup H (``quotient``).
"""

from __future__ import annotations

import sys
from math import prod
from operator import add as _int_add, mod as _int_mod, mul as _int_mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    ContainsIdentity,
    DoesNotGenerate,
    IndexOutOfRange,
    InfiniteSubgroup,
    ModulusOutOfRange,
    NotSymmetric,
    ShapeMismatch,
)


class GroupSpec(NamedTuple):
    """Signature of the group Z^rank x Z_{m_1} x ... x Z_{m_t}."""

    rank: int
    moduli: tuple[int, ...]


class GroupElement(NamedTuple):
    """A group element as a pair of integer tuples, torsion reduced mod m_i.

    A tuple underneath, so hashing and equality run in C.
    """

    free: tuple[int, ...]
    torsion: tuple[int, ...]


_new_tuple = tuple.__new__


class GeneratorSet(NamedTuple):
    """A validated symmetric generating set of ``group``; ``degree`` is its Cayley-graph degree."""

    group: GroupSpec
    elements: tuple[GroupElement, ...]

    @property
    def degree(self) -> int:
        return len(self.elements)


def integer(value, what: str) -> int:
    """``value`` as an int; ``int()`` alone would read 1.5 and True as 1, a different problem.

    A string is ASCII digits after one sign or none (``int()`` refuses a second
    one); alone, ``int()`` would also read " 7", "1_000" and non-ASCII digits.
    """
    if type(value) is int:
        return value
    if isinstance(value, str) and value.isascii() and value.lstrip("+-").isdecimal():
        try:
            return int(value)
        except ValueError:
            pass
    raise ShapeMismatch(f"{what} must be an integer or a decimal string, got {value!r}")


_DECIMAL_CHARACTERS = str.maketrans("", "", "+-0123456789")


def integer_column(values: Sequence) -> list[int] | None:
    """The ints ``integer`` reads from each of ``values``, or None where one needs ``integer``.

    Taken whole where every value is an int or an ASCII string of the form
    [+-]?[0-9]+: one type scan, one scan of the strings' characters, then
    ``int`` on each, whose ValueError (a sign doubled or misplaced, no
    digit) refuses the column too.  None is never an error: ``integer``,
    value by value, then accepts or refuses as it always does.
    """
    types = set(map(type, values))
    if not {int, str}.issuperset(types):
        return None
    try:
        if str in types:
            strings = values if types == {str} else map(str, values)  # str(int) is [+-]?[0-9]+
            if "".join(strings).translate(_DECIMAL_CHARACTERS):
                return None
        return list(map(int, values))
    except ValueError:  # also an int past the interpreter's str <-> int digit limit
        return None


def natural(value, what: str) -> int:
    """A time index or a radius: ``integer``'s value, in 0..sys.maxsize (IndexOutOfRange)."""
    if (value := integer(value, what)) < 0:
        raise IndexOutOfRange(f"{what} must be non-negative, got {value}")
    if value > sys.maxsize:
        raise IndexOutOfRange(f"{what}={value} is above {sys.maxsize}")
    return value


def array(values, what: str) -> list | tuple:
    """A list or tuple; ShapeMismatch names ``what`` where it is anything else."""
    if not isinstance(values, (list, tuple)):
        raise ShapeMismatch(f"{what} must be given as an array, got {values!r}")
    return values


def selector(value, choices, what: str) -> str:
    """``value`` if it is one of the strings ``choices``; ShapeMismatch names ``what`` where not."""
    if isinstance(value, str) and value in choices:
        return value
    raise ShapeMismatch(f"{what} must be one of {', '.join(map(repr, sorted(choices)))}, "
                        f"got {value!r}")


def integers(values, name: str, what: str) -> tuple[int, ...]:
    """The array ``name`` of integers as a tuple, each error naming an entry as ``what``.

    An array of ``int``s only is taken whole by one type scan; any other is
    read one entry at a time, so each error is ``integer``'s.
    """
    values = array(values, name)
    if {int}.issuperset(map(type, values)):
        return tuple(values)
    return tuple(integer(v, what) for v in values)


def make_group(rank: int, moduli: Sequence[int]) -> GroupSpec:
    moduli = integers(moduli, "moduli", "modulus")
    rank = integer(rank, "rank")
    if rank < 0:
        raise ModulusOutOfRange(f"rank must be non-negative, got {rank}")
    for m in moduli:
        if m < 2:
            raise ModulusOutOfRange(f"torsion modulus must be >= 2, got {m}")
    return GroupSpec(rank, moduli)


def make_element(G: GroupSpec, free: Sequence[int], torsion: Sequence[int]) -> GroupElement:
    """Build a canonical element, reducing torsion coordinates eagerly."""
    free = integers(free, "element coordinates", "element coordinate")
    torsion = integers(torsion, "element coordinates", "element coordinate")
    if len(free) != G.rank or len(torsion) != len(G.moduli):
        raise ShapeMismatch(
            f"element shape ({len(free)},{len(torsion)}) does not match "
            f"group shape ({G.rank},{len(G.moduli)})"
        )
    return GroupElement(free, tuple(map(_int_mod, torsion, G.moduli)))


def identity(G: GroupSpec) -> GroupElement:
    return GroupElement((0,) * G.rank, (0,) * len(G.moduli))


def _check_shape(G: GroupSpec, *elems: GroupElement) -> None:
    for a in elems:
        if len(a.free) != G.rank or len(a.torsion) != len(G.moduli):
            raise ShapeMismatch("element does not conform to the group signature")


def elem_add(G: GroupSpec, a: GroupElement, b: GroupElement) -> GroupElement:
    _check_shape(G, a, b)
    return adder(G)(a, b)


def adder(G: GroupSpec) -> Callable[[GroupElement, GroupElement], GroupElement]:
    """The sum a + b in G, without the shape check of ``elem_add``.

    Only for elements already known to conform to G: those built by
    ``make_element`` or held by a ``SupportedFunction`` or ``GeneratorSet``
    over G, and sums of such elements.
    """
    moduli = G.moduli
    if not moduli:
        def add(a: GroupElement, b: GroupElement) -> GroupElement:
            return _new_tuple(GroupElement, (tuple(map(_int_add, a[0], b[0])), ()))
    else:
        def add(a: GroupElement, b: GroupElement) -> GroupElement:
            torsion = tuple(map(_int_mod, map(_int_add, a[1], b[1]), moduli))
            return _new_tuple(GroupElement, (tuple(map(_int_add, a[0], b[0])), torsion))
    return add


def closure(G: GroupSpec, steps: Sequence[GroupElement], radius: int) -> set[GroupElement]:
    """The sums in G of at most ``radius`` of ``steps`` (the identity for none), breadth first.

    It stops as soon as a step adds nothing, so on a finite group it ends
    once the elements ``steps`` generate are exhausted, whatever the radius.
    """
    add = adder(G)
    frontier = {identity(G)}
    seen = set(frontier)
    for _ in range(radius):
        frontier = {y for x in frontier for s in steps if (y := add(x, s)) not in seen}
        if not frontier:
            break
        seen |= frontier
    return seen


def elem_neg(G: GroupSpec, a: GroupElement) -> GroupElement:
    _check_shape(G, a)
    free = tuple(-x for x in a.free)
    torsion = tuple((-x) % m for x, m in zip(a.torsion, G.moduli))
    return GroupElement(free, torsion)


def _relation_rows(G: GroupSpec, vectors: Iterable[Sequence[int]]) -> list[list[int]]:
    """The torsion relations m_i e_i of G as rows over all its coordinates, then ``vectors``."""
    dim = G.rank + len(G.moduli)
    rows = [[m * (j == G.rank + i) for j in range(dim)] for i, m in enumerate(G.moduli)]
    return rows + [list(v) for v in vectors]


_Matrix = tuple[tuple[int, ...], ...]


def _gcdex(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b = g = gcd(a, b) >= 0, for non-zero a and b.

    The signs of x and y are those of this extended Euclid; ``_smith``
    depends on them.
    """
    x_sign, y_sign = (-1 if a < 0 else 1), (-1 if b < 0 else 1)
    a, b = abs(a), abs(b)
    x, r, y, s = 1, 0, 0, 1
    while b:
        q, c = divmod(a, b)
        a, b = b, c
        x, r = r, x - q * r
        y, s = s, y - q * s
    return x * x_sign, y * y_sign, a


def _smith(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], _Matrix, _Matrix]:
    """Smith normal form of a non-empty integer matrix M.

    Returns (factors, T, T^-1): the invariant factors d_1 | d_2 | ... of M,
    min(rows, columns) of them with any zeros last, and a unimodular T with
    U M T = diag(factors) for some unimodular U, which is not kept.

    T sets the coordinates of every quotient group, and those are part of
    the CLI's output, so the order of the elimination steps and the signs
    of ``_gcdex`` are fixed: they reproduce, step for step, the reference
    decomposition that tests/test_groups.py compares against.  See Kannan
    & Bachem, SIAM J. Comput. 8 (1979) for the theory.  Every column step
    has determinant +-1, so T^-1 stays integral; it is kept by applying the
    inverse row step to it.
    """
    m = [list(row) for row in matrix]
    n_rows, n_cols = len(m), len(m[0])
    t = [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]
    t_inv = [row[:] for row in t]

    def rows_op(i, j, a, b, c, d):
        # Row i <- a row i + b row j and row j <- c row i + d row j.
        mi, mj = m[i], m[j]
        m[i] = [a * x + b * y for x, y in zip(mi, mj)]
        m[j] = [c * x + d * y for x, y in zip(mi, mj)]

    def cols_op(i, j, a, b, c, d, mats):
        # Column i <- a col i + b col j and column j <- c col i + d col j in
        # each of mats; then the inverse row step on T^-1.
        for row in (row for mat in mats for row in mat):
            x, y = row[i], row[j]
            row[i], row[j] = a * x + b * y, c * x + d * y
        det = a * d - b * c
        ri, rj = t_inv[i], t_inv[j]
        t_inv[i] = [det * (d * x - c * y) for x, y in zip(ri, rj)]
        t_inv[j] = [det * (a * y - b * x) for x, y in zip(ri, rj)]

    def eliminate(k: int) -> list[int]:
        # Diagonalise the block of rows and columns k.. and return its factors.
        i = next((i for i in range(k, n_rows) if m[i][k]), k)
        j = next((j for j in range(k, n_cols) if m[k][j]), k)
        if i != k:
            m[k], m[i] = m[i], m[k]
        elif j != k:
            cols_op(k, j, 0, 1, 1, 0, (m, t))
        while any(m[k][k + 1:]) or any(m[i][k] for i in range(k + 1, n_rows)):
            pivot = m[k][k]
            for i in range(k + 1, n_rows):
                if m[i][k] % pivot == 0:
                    rows_op(k, i, 1, 0, -(m[i][k] // pivot), 1)
                else:
                    x, y, g = _gcdex(pivot, m[i][k])
                    rows_op(k, i, x, y, m[i][k] // g, -(pivot // g))
                    pivot = g
            pivot = m[k][k]
            for j in range(k + 1, n_cols):
                if m[k][j] % pivot == 0:
                    cols_op(k, j, 1, 0, -(m[k][j] // pivot), 1, (m, t))
                else:
                    x, y, g = _gcdex(pivot, m[k][j])
                    cols_op(k, j, x, y, m[k][j] // g, -(pivot // g), (m, t))
                    pivot = g
        inner = eliminate(k + 1) if k + 1 < min(n_rows, n_cols) else []
        if not m[k][k]:
            # A zero pivot moves last, and column k of T with it.
            for row in t:
                row[k:] = row[k + 1:] + row[k:k + 1]
            t_inv[k:] = t_inv[k + 1:] + t_inv[k:k + 1]
            return inner + [0]
        factors = [abs(m[k][k])] + inner
        # Restore d_i | d_{i+1} where the new pivot breaks it.
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if not b or b % a == 0:
                break
            _, y, g = _gcdex(a, b)
            cols_op(k + i, k + i + 1, 1, y, 0, 1, (t,))
            cols_op(k + i, k + i + 1, 1, 0, -(b // g), 1, (t,))
            factors[i], factors[i + 1] = g, b * (a // g)
        return factors

    factors = eliminate(0)
    return tuple(factors), tuple(map(tuple, t)), tuple(map(tuple, t_inv))


def validate_generators(G: GroupSpec, S: Sequence[GroupElement]) -> GeneratorSet:
    """Check that S is a symmetric generating set excluding the identity.

    Generation is decided by the Smith Normal Form of the lattice spanned
    by the generators together with the torsion relations: S generates the
    group iff every invariant factor equals 1.  A symmetric S gives dependent
    rows (s and -s, or 2s = 0), so fewer rows than coordinates always leave a
    factor 0.
    """
    if not S:
        raise DoesNotGenerate("empty generating set")
    elems = tuple(make_element(G, s.free, s.torsion) for s in S)
    if len(set(elems)) != len(elems):
        raise NotSymmetric("generating set contains repeated elements")
    e = identity(G)
    if e in elems:
        raise ContainsIdentity("generating set contains the identity")
    elem_set = set(elems)
    for s in elems:
        if elem_neg(G, s) not in elem_set:
            raise NotSymmetric(f"generating set is missing the inverse of {s}")
    dim = G.rank + len(G.moduli)
    if dim > 0:
        factors, _, _ = _smith(_relation_rows(G, (s.free + s.torsion for s in elems)))
        if any(d != 1 for d in factors):
            raise DoesNotGenerate(
                f"generators span a proper subgroup (invariant factors {factors})"
            )
    return GeneratorSet(G, elems)


class Quotient(NamedTuple):
    """The quotient of a group by a finite subgroup H of its torsion part.

    ``project`` is a surjective homomorphism onto ``group`` with kernel
    exactly H; ``section`` picks the canonical representative of each
    coset; ``subgroup`` lists the elements of H; ``order`` is |H|.  The
    quotient's torsion coordinates are the Smith columns of T kept by
    ``quotient`` (``columns``), and ``inverse_rows`` are the same rows of
    T^-1.
    """

    base: GroupSpec
    group: GroupSpec
    order: int
    subgroup: tuple[GroupElement, ...]
    columns: tuple[tuple[int, ...], ...]
    inverse_rows: tuple[tuple[int, ...], ...]

    def project(self, a: GroupElement) -> GroupElement:
        _check_shape(self.base, a)
        torsion = tuple(
            sum(map(_int_mul, a.torsion, column)) % d
            for column, d in zip(self.columns, self.group.moduli)
        )
        return GroupElement(a.free, torsion)

    def section(self, q: GroupElement) -> GroupElement:
        """Canonical representative in the base group of the coset q."""
        _check_shape(self.group, q)
        x = [0] * len(self.base.moduli)
        for c, row in zip(q.torsion, self.inverse_rows):
            x = [v + c * r for v, r in zip(x, row)]
        return make_element(self.base, q.free, x)

    def fiber(self, q: GroupElement) -> tuple[GroupElement, ...]:
        """All |H| base-group representatives of the coset q."""
        rep, add = self.section(q), adder(self.base)
        return tuple(add(rep, h) for h in self.subgroup)


def quotient(G: GroupSpec, H_gens: Sequence[GroupElement]) -> Quotient:
    """Quotient of G by the finite subgroup generated by torsion-only elements.

    Computed via the Smith Normal Form of the torsion relation matrix
    extended by the subgroup generators; its columns with invariant factor
    d >= 2 are the quotient's coordinates, mod d.
    """
    gens = [make_element(G, h.free, h.torsion) for h in H_gens]
    for h in gens:
        if any(v != 0 for v in h.free):
            raise InfiniteSubgroup(
                f"subgroup generator {h} has nonzero free part; the subgroup is infinite"
            )
    e = identity(G)
    if all(h == e for h in gens):
        # Trivial subgroup: keep the original presentation and the identity map.
        t = len(G.moduli)
        unit = tuple(tuple(int(i == j) for j in range(t)) for i in range(t))
        return Quotient(G, G, 1, (e,), unit, unit)

    rows = _relation_rows(GroupSpec(0, G.moduli), (h.torsion for h in gens))
    divisors, transform, inverse = _smith(rows)
    kept = [j for j, d in enumerate(divisors) if d >= 2]
    columns = tuple(tuple(row[j] for row in transform) for j in kept)
    inverse_rows = tuple(inverse[j] for j in kept)
    qspec = GroupSpec(G.rank, tuple(divisors[j] for j in kept))
    order = prod(G.moduli) // prod(divisors)

    # H is the closure of its generators, reached within |H| steps; sorted, it
    # lists H in coordinate order.
    subgroup = closure(G, gens, order)
    if len(subgroup) != order:
        raise AssertionError(f"subgroup closure found {len(subgroup)} elements, expected {order}")
    return Quotient(G, qspec, order, tuple(sorted(subgroup)), columns, inverse_rows)
