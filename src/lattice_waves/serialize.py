"""JSON and CSV wire formats.

Rationals travel as decimal-string numerator/denominator pairs so that
arbitrarily large values round-trip bit-exactly; floats never appear in
primary outputs.  Every row read from outside is validated once, here,
and read straight into numerators over one denominator; the function
types' ``trusted`` constructors wrap the result.  Each value is written
in lowest terms with a positive denominator.

``json_object`` and ``required`` are the one rule for a JSON object and
its fields, a problem document's included.  A reader here checks an
object's shape with them and hands its fields to one public constructor,
which reads integers by the one rule of ``groups.integer`` (a JSON
integer, not a boolean, or a decimal string): the wire and the library
accept and reject the same values.

Data rows on a group are read a column at a time (``_columns``): one type
scan per column, then the elements, numerators and denominators each
built by one comprehension or ``map``.  Rows that a scan refuses go to the
row reader (``_row_triples``), which raises the error of the first bad
row; the two readers accept the same rows, with the same values.  Tree
rows take the row reader.

This is the one module that writes CSV.  Every line ends in ``\\n``: a
comment line with the run parameters, a column header, then the rows.
A function's row is its key's integers joined by ';' (a tree word, or an
element's free then torsion coordinates), then the value's num and den.
A group function's rows are flat tuples, sorted and written by one ``%``
of one template repeated.  A tree function's word labels take one ``%``
each, of a template built once per word length, and each distinct value's
``,num,den`` suffix is written once and shared by the rows that hold it.
"""

from __future__ import annotations

from itertools import chain, repeat, starmap
from math import gcd
from operator import add, floordiv, itemgetter, mod
from typing import Any, Callable, Iterable

from .errors import ShapeMismatch, ZeroDenominator
from .functions import Scaled, SupportedFunction, over_lcm
from .groups import (
    GroupElement, GroupSpec, Quotient, array, integer, integer_column, make_element, make_group,
)
from .tree import TreeFunction, WeightTable, _degree, make_vertex


def json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object; ShapeMismatch names ``what`` where it is not."""
    if isinstance(value, dict):
        return value
    raise ShapeMismatch(f"{what} must be a JSON object, not {type(value).__name__}")


def required(obj, name: str):
    """The field ``name`` of a JSON object; ShapeMismatch names the field where it is missing."""
    if isinstance(obj, dict) and name in obj:
        return obj[name]
    raise ShapeMismatch(f"a JSON object with the required field {name!r} was expected")


def group_from_json(obj: dict) -> GroupSpec:
    """The group of a JSON object with a required ``rank`` and optional ``moduli``."""
    obj = json_object(obj, "group")
    return make_group(required(obj, "rank"), obj.get("moduli", []))


def element_from_json(G: GroupSpec, obj: dict) -> GroupElement:
    """The element of a JSON object with optional ``free`` and ``torsion``: one test for a dict."""
    if type(obj) is not dict:
        obj = json_object(obj, "element")
    return make_element(G, obj.get("free", []), obj.get("torsion", []))


def _summed_rows(triples: Iterable[tuple]) -> tuple[dict, int]:
    """(numerators, denominator) for a ``trusted`` constructor from (key, num, den) wire triples.

    Values at one key add up; ``over_lcm`` puts them over one denominator.
    """
    def checked():
        for key, num, den in triples:
            den = integer(den, "den")
            if den == 0:
                raise ZeroDenominator(f"zero denominator in the rational {num}/{den}")
            yield key, integer(num, "num"), den
    return over_lcm(checked())


def _row_triples(rows: list[dict] | None, key: Callable, what: str) -> Iterable[tuple]:
    """(key(elem), num, den) of each JSON data row, an object with those three fields.

    ``rows`` is a JSON array, or None for no rows; ``what`` names it in errors.
    """
    rows = () if rows is None else array(rows, what)
    return ((key(required(r, "elem")), required(r, "num"), required(r, "den")) for r in rows)


_new_tuple = tuple.__new__
_FIELDS = itemgetter("elem", "num", "den")
_COORDINATES = itemgetter("free", "torsion")


def _elements(G: GroupSpec, elems: tuple) -> list[GroupElement] | None:
    """An ``elem`` column as elements of G, or None where one needs ``make_element``.

    Taken whole where every ``elem`` is an object whose ``free`` and
    ``torsion`` are lists of ints of the group's lengths; the torsion is
    reduced, as ``make_element`` reduces it.
    """
    if not {dict}.issuperset(map(type, elems)):
        return None
    try:
        frees, torsions = zip(*map(_COORDINATES, elems))
    except KeyError:
        return None
    coordinates = frees + torsions
    if not ({list}.issuperset(map(type, coordinates)) and {G.rank}.issuperset(map(len, frees))
            and {len(G.moduli)}.issuperset(map(len, torsions))
            and {int}.issuperset(map(type, chain.from_iterable(coordinates)))):
        return None
    moduli = G.moduli
    if not moduli:
        return [_new_tuple(GroupElement, (tuple(x), ())) for x in frees]
    return [_new_tuple(GroupElement, (tuple(x), tuple(map(mod, t, moduli))))
            for x, t in zip(frees, torsions)]


def _columns(G: GroupSpec, rows: list[dict] | None, what: str) -> tuple[list, ...] | None:
    """(elements, nums, dens) of JSON data rows on G read by columns, or None for the row reader.

    ``rows`` is as for ``_row_triples``.  Every row must be an object with
    ``elem``, ``num`` and ``den``, the ``elem`` column pass ``_elements``,
    the ``num`` and ``den`` columns ``groups.integer_column``, and no ``den``
    be 0.  None sends the rows to the row reader, which raises the error of
    the first bad row: every check here only refuses, so the two readers
    accept the same rows, with the same values.
    """
    rows = () if rows is None else array(rows, what)
    if not rows:
        return [], [], []
    if not {dict}.issuperset(map(type, rows)):
        return None
    try:
        elems, nums, dens = zip(*map(_FIELDS, rows))
    except KeyError:
        return None
    elems, nums, dens = _elements(G, elems), integer_column(nums), integer_column(dens)
    if elems is None or nums is None or dens is None or 0 in dens:
        return None
    return elems, nums, dens


def function_from_rows(
    G: GroupSpec, rows: list[dict] | None, what: str = "data rows"
) -> SupportedFunction:
    columns = _columns(G, rows, what)
    if columns is None:
        triples = _row_triples(rows, lambda elem: element_from_json(G, elem), what)
        return SupportedFunction.trusted(G, *_summed_rows(triples))
    return SupportedFunction.trusted(G, *over_lcm(zip(*columns)))


def tree_function_from_rows(
    k: int, rows: list[dict] | None, what: str = "data rows"
) -> TreeFunction:
    k = _degree(k)  # before any letter is read against 1..k, as ``TreeFunction`` does
    triples = _row_triples(rows, lambda word: make_vertex(word, k), what)
    return TreeFunction.trusted(k, *_summed_rows(triples))


def quotient_function_from_rows(
    quot: Quotient, rows: list[dict] | None, what: str = "data rows"
) -> SupportedFunction:
    """A function on the quotient from rows at base-group representatives, one per coset."""
    columns = _columns(quot.base, rows, what)
    if columns is None:
        project = lambda e: quot.project(element_from_json(quot.base, e))
        triples = list(_row_triples(rows, project, what))
        values = _summed_rows(triples)
    else:
        elems, nums, dens = columns
        triples = list(zip(map(quot.project, elems), nums, dens))
        values = over_lcm(triples)
    if len({q for q, _, _ in triples}) != len(triples):
        raise ShapeMismatch("two representatives of the same coset given")
    return SupportedFunction.trusted(quot.group, *values)


def _comment(header: dict[str, Any]) -> str:
    """The leading comment line: the run parameters as ``key=value`` pairs."""
    return "# " + " ".join(f"{key}={val}" for key, val in header.items()) + "\n"


def _lowest_terms(f: Scaled, nums: list[int]) -> Iterable[tuple[int, int]]:
    """(num // g, den // g) of each of ``nums`` over f's denominator, g the gcd of the two."""
    d = f.denominator
    if d == 1:
        return zip(nums, repeat(1))
    g = list(map(gcd, nums, repeat(d)))
    return zip(map(floordiv, nums, g), map(floordiv, repeat(d), g))


def function_to_csv(f: SupportedFunction, header: dict[str, Any]) -> str:
    """CSV of a function on a group, rows in element order.

    A row is the element's coordinates, free part first, then the value's
    num and den in lowest terms: one flat tuple per element, built in the
    dict's order and then sorted.  The keys are distinct and of one length,
    so this is the order of ``sorted(f.numerators)``.  The body is one
    ``%`` of the row template repeated once per row.
    """
    values = _lowest_terms(f, list(f.numerators.values()))
    rows = sorted(map(add, starmap(add, f.numerators), values))
    template = ";".join(["%d"] * (f.group.rank + len(f.group.moduli))) + ",%d,%d\n"
    body = (template * len(rows)) % tuple(chain.from_iterable(rows))
    return _comment(header) + "vertex,num,den\n" + body


def tree_function_to_csv(f: TreeFunction, header: dict[str, Any]) -> str:
    """CSV of a tree function, rows in word order.

    A row is the word's letters, by one ``%`` of a template built once per
    word length, then the value's ``,num,den`` in lowest terms.  Solutions
    repeat values, so that suffix is reduced and formatted once per
    distinct numerator and looked up per row.
    """
    nums = f.numerators
    keys = sorted(nums)
    distinct = list(set(nums.values()))
    suffixes = dict(zip(distinct, map(",%d,%d\n".__mod__, _lowest_terms(f, distinct))))
    templates = {n: ";".join(["%d"] * n) for n in set(map(len, keys))}
    labels = map(mod, map(templates.__getitem__, map(len, keys)), keys)
    body = "".join(map(add, labels, map(suffixes.__getitem__, map(nums.__getitem__, keys))))
    return _comment(header) + "vertex,num,den\n" + body


def weights_to_csv(tables: Iterable[tuple[str, WeightTable]], header: dict[str, Any]) -> str:
    """CSV of tree weight tables: a row per table and radius s, the integer weight over 1."""
    rows = [(tag, s, w) for tag, table in tables for s, w in enumerate(table.weights)]
    return _comment(header) + "table,s,num,den\n" + "".join(map("%s,%d,%d,1\n".__mod__, rows))
