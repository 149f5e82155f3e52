"""JSON and CSV wire formats.

Rationals travel as decimal-string numerator/denominator pairs so that
arbitrarily large values round-trip bit-exactly; floats never appear in
primary outputs.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from typing import Any, Callable, Iterable

from .errors import ShapeMismatch, ZeroDenominator
from .functions import SupportedFunction
from .groups import GroupElement, GroupSpec, Quotient, make_element, make_group
from .tree import TreeFunction, TreeVertex, make_vertex


def group_to_json(G: GroupSpec) -> dict:
    return {"rank": G.rank, "moduli": list(G.moduli)}


def group_from_json(obj: dict) -> GroupSpec:
    if not isinstance(obj, dict) or "rank" not in obj:
        raise ShapeMismatch("group JSON must be an object with 'rank' and 'moduli'")
    return make_group(obj["rank"], obj.get("moduli", []))


def element_to_json(a: GroupElement) -> dict:
    return {"free": list(a.free), "torsion": list(a.torsion)}


def element_from_json(G: GroupSpec, obj: dict) -> GroupElement:
    if not isinstance(obj, dict):
        raise ShapeMismatch("element JSON must be an object with 'free' and 'torsion'")
    return make_element(G, obj.get("free", []), obj.get("torsion", []))


def _rat_to_json(v: Fraction) -> dict:
    return {"num": str(v.numerator), "den": str(v.denominator)}


def _rational(num, den) -> Fraction:
    """The rational num/den from decimal strings or ints; a zero den is rejected."""
    den = int(den)
    if den == 0:
        raise ZeroDenominator(f"zero denominator in the rational {num}/{den}")
    return Fraction(int(num), den)


def _summed_rows(rows: Iterable[dict] | None, parse: Callable) -> dict:
    """Value rows {"elem", "num", "den"} keyed by parse(elem); rows at one key add up."""
    entries: dict = {}
    for row in rows or ():
        x = parse(row["elem"])
        entries[x] = entries.get(x, Fraction(0)) + _rational(row["num"], row["den"])
    return entries


def function_from_rows(G: GroupSpec, rows: Iterable[dict] | None) -> SupportedFunction:
    return SupportedFunction(G, _summed_rows(rows, lambda e: element_from_json(G, e)))


def tree_function_from_rows(k: int, rows: Iterable[dict] | None) -> TreeFunction:
    return TreeFunction(k, _summed_rows(rows, lambda e: make_vertex(e, k)))


def quotient_function_from_rows(quot: Quotient, rows: Iterable[dict] | None) -> SupportedFunction:
    """A function on the quotient from rows at base-group representatives, one per coset."""
    entries = _summed_rows(rows, lambda e: quot.project(element_from_json(quot.base, e)))
    if len(entries) != len(rows or ()):
        raise ShapeMismatch("two representatives of the same coset given")
    return SupportedFunction(quot.group, entries)


def function_to_json(f: SupportedFunction) -> dict:
    return {
        "group": group_to_json(f.group),
        "values": [
            {"elem": element_to_json(x), **_rat_to_json(v)}
            for x, v in sorted(f.entries.items(), key=lambda kv: (kv[0].free, kv[0].torsion))
        ],
    }


def function_from_json(obj: dict, G: GroupSpec | None = None) -> SupportedFunction:
    if G is None:
        G = group_from_json(obj["group"])
    return function_from_rows(G, obj.get("values"))


def tree_function_to_json(f: TreeFunction) -> dict:
    return {
        "k": f.k,
        "values": [
            {"elem": list(x), **_rat_to_json(v)}
            for x, v in sorted(f.entries.items())
        ],
    }


def tree_function_from_json(obj: dict, k: int | None = None) -> TreeFunction:
    if k is None:
        k = int(obj["k"])
    return tree_function_from_rows(k, obj.get("values"))


def element_label(a: GroupElement) -> str:
    """Semicolon-joined coordinates, free part first."""
    return ";".join(str(v) for v in (*a.free, *a.torsion))


def element_from_label(G: GroupSpec, label: str) -> GroupElement:
    coords = [int(v) for v in label.split(";")] if label else []
    if len(coords) != G.rank + len(G.moduli):
        raise ShapeMismatch(f"label {label!r} has wrong coordinate count for the group")
    return make_element(G, coords[: G.rank], coords[G.rank :])


def vertex_label(x: TreeVertex) -> str:
    return ";".join(str(i) for i in x)


def vertex_from_label(k: int, label: str) -> TreeVertex:
    return make_vertex([int(v) for v in label.split(";")] if label else [], k)


def _to_csv(entries: dict, label: Callable, header: dict[str, Any]) -> str:
    """CSV with a leading comment line recording the run parameters, rows in key order."""
    buf = io.StringIO()
    buf.write("# " + " ".join(f"{key}={val}" for key, val in header.items()) + "\n")
    writer = csv.writer(buf)
    writer.writerow(["vertex", "num", "den"])
    for x, v in sorted(entries.items()):
        writer.writerow([label(x), v.numerator, v.denominator])
    return buf.getvalue()


def _from_csv(text: str, parse_label: Callable) -> dict:
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader)
    if header != ["vertex", "num", "den"]:
        raise ShapeMismatch(f"unexpected CSV header {header}")
    return {parse_label(label): _rational(num, den) for label, num, den in reader}


def function_to_csv(f: SupportedFunction, header: dict[str, Any]) -> str:
    return _to_csv(f.entries, element_label, header)


def function_from_csv(text: str, G: GroupSpec) -> SupportedFunction:
    return SupportedFunction(G, _from_csv(text, lambda label: element_from_label(G, label)))


def tree_function_to_csv(f: TreeFunction, header: dict[str, Any]) -> str:
    return _to_csv(f.entries, vertex_label, header)


def tree_function_from_csv(text: str, k: int) -> TreeFunction:
    return TreeFunction(k, _from_csv(text, lambda label: vertex_from_label(k, label)))
