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

This is the one module that writes CSV.  Every line ends in ``\\n``: a
comment line with the run parameters, a column header, then the rows.
A function's row is its key's integers joined by ';' (a tree word, or an
element's free then torsion coordinates), then the value's num and den,
one ``%`` of a template built once per key length and call.
"""

from __future__ import annotations

from itertools import repeat, starmap
from math import gcd
from operator import add, floordiv, mod
from typing import Any, Callable, Iterable

from .errors import ShapeMismatch, ZeroDenominator
from .functions import Scaled, SupportedFunction, over_lcm
from .groups import GroupElement, GroupSpec, Quotient, array, integer, make_element, make_group
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


def function_from_rows(
    G: GroupSpec, rows: list[dict] | None, what: str = "data rows"
) -> SupportedFunction:
    triples = _row_triples(rows, lambda elem: element_from_json(G, elem), what)
    return SupportedFunction.trusted(G, *_summed_rows(triples))


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
    project = lambda e: quot.project(element_from_json(quot.base, e))
    triples = list(_row_triples(rows, project, what))
    values = _summed_rows(triples)
    if len({q for q, _, _ in triples}) != len(triples):
        raise ShapeMismatch("two representatives of the same coset given")
    return SupportedFunction.trusted(quot.group, *values)


def _comment(header: dict[str, Any]) -> str:
    """The leading comment line: the run parameters as ``key=value`` pairs."""
    return "# " + " ".join(f"{key}={val}" for key, val in header.items()) + "\n"


def _to_csv(f: Scaled, keys: list, flat_keys: Iterable[tuple], header: dict[str, Any]) -> str:
    """CSV with a leading comment line recording the run parameters, rows in key order.

    ``keys`` are ``f``'s keys sorted, and ``flat_keys`` each key as a tuple
    of integers in the same order.  A row is its key's integers joined by
    ';', then the value's num and den: one ``%`` of a template built once
    per key length.  Each value is written in lowest terms, num // g and
    den // g with g the gcd of the two.  Labels hold only integers and ';',
    so no field needs quoting.  Every line ends in "\\n".
    """
    nums = list(map(f.numerators.__getitem__, keys))
    d = f.denominator
    if d == 1:
        values = zip(nums, repeat(1))
    else:
        g = list(map(gcd, nums, repeat(d)))
        values = zip(map(floordiv, nums, g), map(floordiv, repeat(d), g))
    rows = list(map(add, flat_keys, values))
    templates = {n: ";".join(["%d"] * (n - 2)) + ",%d,%d\n" for n in set(map(len, rows))}
    body = "".join(map(mod, map(templates.__getitem__, map(len, rows)), rows))
    return _comment(header) + "vertex,num,den\n" + body


def function_to_csv(f: SupportedFunction, header: dict[str, Any]) -> str:
    keys = sorted(f.numerators)
    return _to_csv(f, keys, starmap(add, keys), header)


def tree_function_to_csv(f: TreeFunction, header: dict[str, Any]) -> str:
    keys = sorted(f.numerators)
    return _to_csv(f, keys, keys, header)


def weights_to_csv(tables: Iterable[tuple[str, WeightTable]], header: dict[str, Any]) -> str:
    """CSV of tree weight tables: a row per table and radius s, the integer weight over 1."""
    rows = [(tag, s, w) for tag, table in tables for s, w in enumerate(table.weights)]
    return _comment(header) + "table,s,num,den\n" + "".join(map("%s,%d,%d,1\n".__mod__, rows))
