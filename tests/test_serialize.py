"""Wire formats: JSON and CSV round-trips are bit-exact."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lattice_waves import randgen, serialize
from lattice_waves.errors import ShapeMismatch, ZeroDenominator
from lattice_waves.functions import SupportedFunction
from lattice_waves.groups import make_element, make_group, quotient
from lattice_waves.tree import TreeFunction

from helpers import (
    element_from_label, function_from_csv, function_from_rows_by_row, function_to_csv_by_key,
    quotient_function_from_rows_by_row, tree_function_from_csv, tree_function_to_csv_by_row,
    vertex_from_label,
)

Z = make_group(1, [])
ZxZ4 = make_group(1, [4])


def elem_json(x):
    return {"free": list(x.free), "torsion": list(x.torsion)}


def rows_json(f, elem):
    """The value rows of f as problem documents give them, through JSON text."""
    rows = [{"elem": elem(x), "num": str(v.numerator), "den": str(v.denominator)}
            for x, v in f.entries.items()]
    return json.loads(json.dumps(rows))


class TestGroupAndElementJson:
    def test_group_round_trip(self):
        for G in (Z, ZxZ4, make_group(3, [2, 6])):
            assert serialize.group_from_json({"rank": G.rank, "moduli": list(G.moduli)}) == G

    def test_element_round_trip(self):
        a = make_element(ZxZ4, [-7], [3])
        assert serialize.element_from_json(ZxZ4, elem_json(a)) == a

    def test_bad_group_json(self):
        with pytest.raises(ShapeMismatch):
            serialize.group_from_json([1, 2])


def rationals():
    return st.builds(
        Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12)
    )


class TestFunctionRoundTrips:
    @settings(max_examples=30, deadline=None)
    @given(value=rationals(), coord=st.integers(-(10**9), 10**9))
    def test_json_round_trip_large_values(self, value, coord):
        f = SupportedFunction(Z, {make_element(Z, [coord], []): value})
        assert serialize.function_from_rows(Z, rows_json(f, elem_json)) == f

    @settings(max_examples=30, deadline=None)
    @given(value=rationals(), coord=st.integers(-(10**9), 10**9))
    def test_csv_round_trip_large_values(self, value, coord):
        f = SupportedFunction(Z, {make_element(Z, [coord], []): value})
        assert function_from_csv(serialize.function_to_csv(f, {}), Z) == f

    def test_csv_round_trip(self):
        rng = random.Random(0)
        for G in (Z, ZxZ4):
            f = randgen.random_function(rng, G)
            text = serialize.function_to_csv(f, {"kind": "heat", "n": 3})
            assert text.startswith("# kind=heat n=3\n")
            assert function_from_csv(text, G) == f

    def test_csv_header_validated(self):
        with pytest.raises(ShapeMismatch):
            function_from_csv("a,b\n1,2\n", Z)

    def test_zero_denominator_rejected(self):
        row = {"elem": {"free": [0], "torsion": []}, "num": "1", "den": "0"}
        with pytest.raises(ZeroDenominator):
            serialize.function_from_rows(Z, [row])
        with pytest.raises(ZeroDenominator):
            serialize.tree_function_from_rows(3, [{**row, "elem": []}])
        with pytest.raises(ZeroDenominator):
            function_from_csv("vertex,num,den\n0,1,0\n", Z)
        with pytest.raises(ZeroDenominator):
            tree_function_from_csv("vertex,num,den\n,1,0\n", 3)

    def test_tree_json_round_trip(self):
        rng = random.Random(1)
        f = randgen.random_tree_function(rng, 3)
        assert serialize.tree_function_from_rows(3, rows_json(f, list)) == f

    def test_tree_csv_round_trip(self):
        f = TreeFunction(3, {(): Fraction(1, 3), (1, 2): Fraction(-5, 7)})
        text = serialize.tree_function_to_csv(f, {"kind": "tree-heat"})
        assert tree_function_from_csv(text, 3) == f


class TestRepeatedRows:
    # Rows that name one key add up exactly, and a zero sum leaves no entry,
    # in the JSON rows and the CSV alike.
    ROWS = [("1", "1", "2"), ("1", "1", "3"), ("-2", "5", "7"), ("-2", "-5", "7"), ("3", "4", "1")]

    def test_group_rows_add_up(self):
        want = SupportedFunction(Z, {make_element(Z, [1], []): Fraction(5, 6),
                                     make_element(Z, [3], []): Fraction(4)})
        rows = [{"elem": {"free": [int(x)], "torsion": []}, "num": a, "den": b}
                for x, a, b in self.ROWS]
        assert serialize.function_from_rows(Z, rows) == want
        csv = "vertex,num,den\r\n" + "".join(f"{x},{a},{b}\r\n" for x, a, b in self.ROWS)
        assert function_from_csv(csv, Z) == want

    def test_tree_rows_add_up(self):
        words = {"1": "1", "-2": "", "3": "2;1"}
        want = TreeFunction(3, {(1,): Fraction(5, 6), (2, 1): Fraction(4)})
        rows = [{"elem": [int(i) for i in words[x].split(";") if i], "num": a, "den": b}
                for x, a, b in self.ROWS]
        assert serialize.tree_function_from_rows(3, rows) == want
        csv = "vertex,num,den\r\n" + "".join(f"{words[x]},{a},{b}\r\n" for x, a, b in self.ROWS)
        assert tree_function_from_csv(csv, 3) == want

    def test_coset_representatives_must_differ(self):
        from lattice_waves.groups import quotient

        quot = quotient(ZxZ4, [make_element(ZxZ4, [0], [2])])
        row = {"elem": {"free": [0], "torsion": [1]}, "num": "1", "den": "2"}
        f = serialize.quotient_function_from_rows(quot, [row])
        assert f.entries == {quot.project(make_element(ZxZ4, [0], [1])): Fraction(1, 2)}
        # (0, 3) is another representative of the coset of (0, 1), even with value 0.
        other = {**row, "elem": {"free": [0], "torsion": [3]}, "num": "0"}
        with pytest.raises(ShapeMismatch, match="two representatives"):
            serialize.quotient_function_from_rows(quot, [row, other])


def csv_labels(text):
    """The label column of a CSV written by ``serialize``, in row order."""
    body = text.split("vertex,num,den\n", 1)[1]
    return [row.rsplit(",", 2)[0] for row in body.split("\n")[:-1]]


# Random groups: rank 0 to 3 and up to three torsion factors, the trivial group included.
groups = st.builds(make_group, st.integers(0, 3), st.lists(st.integers(2, 12), max_size=3))
# Small coordinates of either sign, and coordinates of up to 300 digits.
coordinates = st.one_of(st.integers(-9, 9), st.integers(-(10**300), 10**300))


class TestLabels:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), G=groups)
    def test_csv_labels_are_element_labels(self, data, G):
        # The rows' labels come from one template: the coordinates, free part
        # first, joined by ';', and each reads back to its element.  Flat rows
        # sort as the elements do, and the bytes are the row-per-key writer's.
        dim = G.rank + len(G.moduli)
        coords = st.lists(coordinates, min_size=dim, max_size=dim)
        elems = coords.map(lambda c: make_element(G, c[:G.rank], c[G.rank:]))
        keys = data.draw(st.lists(elems, max_size=40, unique=True))
        f = SupportedFunction(G, {x: data.draw(rationals()) or 1 for x in keys})
        header = {"kind": "heat", "n": data.draw(st.integers(0, 9))}
        text = serialize.function_to_csv(f, header)
        assert text == function_to_csv_by_key(f, header)
        labels = csv_labels(text)
        assert labels == [";".join(map(str, x.free + x.torsion)) for x in sorted(f.numerators)]
        assert [element_from_label(G, label) for label in labels] == sorted(f.numerators)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), k=st.integers(2, 12))
    def test_csv_labels_are_vertex_labels(self, data, k):
        # Labels come from one template per word length; two-digit letters
        # from k = 10 on, words up to 12 letters, and the root's empty label.
        letters = data.draw(st.lists(st.lists(st.integers(1, k), max_size=12), max_size=10))
        words = {tuple(c for i, c in enumerate(w) if not i or c != w[i - 1]) for w in letters}
        f = TreeFunction(k, {w: Fraction(len(w) + 1, 3) for w in words})
        labels = csv_labels(serialize.tree_function_to_csv(f, {}))
        assert labels == [";".join(map(str, x)) for x in sorted(words)]
        assert [vertex_from_label(k, label) for label in labels] == sorted(words)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), k=st.integers(2, 12))
    def test_tree_csv_is_the_row_per_word_writer(self, data, k):
        # Each distinct value's suffix is written once and shared: values drawn from a few
        # numerators repeat, some negative; all-integer data has denominator 1; the root word
        # is drawn as often as any other.
        letters = data.draw(st.lists(st.lists(st.integers(1, k), max_size=8), max_size=30))
        words = {tuple(c for i, c in enumerate(w) if not i or c != w[i - 1]) for w in letters}
        dens = st.just(1) if data.draw(st.booleans()) else st.integers(1, 12)
        values = st.builds(Fraction, st.integers(-6, 6).filter(bool), dens)
        if data.draw(st.booleans()):
            values = st.one_of(values, st.integers(-(10**40), 10**40).filter(bool).map(Fraction))
        f = TreeFunction(k, {w: data.draw(values) for w in words})
        header = {"kind": "tree-heat", "n": data.draw(st.integers(0, 9))}
        assert serialize.tree_function_to_csv(f, header) == tree_function_to_csv_by_row(f, header)

    def test_element_label_round_trip(self):
        a = make_element(ZxZ4, [-2], [3])
        [label] = csv_labels(serialize.function_to_csv(SupportedFunction(ZxZ4, {a: 1}), {}))
        assert label == "-2;3" and element_from_label(ZxZ4, label) == a

    def test_element_label_wrong_arity(self):
        with pytest.raises(ShapeMismatch):
            element_from_label(ZxZ4, "1")

    def test_vertex_label_round_trip(self):
        x = (1, 2, 1)
        [label] = csv_labels(serialize.tree_function_to_csv(TreeFunction(3, {x: 1}), {}))
        assert label == "1;2;1" and vertex_from_label(3, label) == x
        assert vertex_from_label(3, "") == ()


# ------------------------------------------------------- the column reader

# Strings that int() reads and groups.integer does not, and malformed signs.
BAD_STRINGS = ["+-1", "--2", "1-2", "-", "", " 7", "7 ", "1_000", "٣", "1.5", "0x10"]


def wire_integer(value):
    """``value`` as a data row may give it: a JSON integer or a decimal string."""
    return st.sampled_from([value, str(value)] + ([f"+{value}"] if value >= 0 else []))


@st.composite
def data_rows(draw, G, max_rows=10):
    """Valid rows on G: reduced coordinates, num and den mixing ints and strings."""
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        free = draw(st.lists(st.integers(-5, 5), min_size=G.rank, max_size=G.rank))
        torsion = [draw(st.integers(0, m - 1)) for m in G.moduli]
        num = draw(wire_integer(draw(st.integers(-10**20, 10**20))))
        den = draw(wire_integer(draw(st.integers(1, 60)) * draw(st.sampled_from([1, -1]))))
        rows.append({"elem": {"free": free, "torsion": torsion}, "num": num, "den": den})
    return rows


def plant(draw, row, G):
    """``row`` with one defect, or with one change that the row rules accept."""
    defect = draw(st.sampled_from([
        "value", "missing field", "missing part", "elem not an object", "row not an object",
        "tuple", "wrong length", "unreduced torsion", "coordinate", "zero den",
    ]))
    row = json.loads(json.dumps(row))
    elem = row["elem"]
    if defect == "value":
        field = draw(st.sampled_from(["num", "den"]))
        row[field] = draw(st.sampled_from([True, False, 1.0, 2.5, None, [1], *BAD_STRINGS]))
    elif defect == "missing field":
        del row[draw(st.sampled_from(["elem", "num", "den"]))]
    elif defect == "missing part":
        del elem[draw(st.sampled_from(["free", "torsion"]))]
    elif defect == "elem not an object":
        row["elem"] = draw(st.sampled_from([[], [1], "x", None, 3]))
    elif defect == "row not an object":
        return draw(st.sampled_from([[], ["elem"], "row", None, 1]))
    elif defect == "tuple":
        part = draw(st.sampled_from(["free", "torsion"]))
        elem[part] = tuple(elem[part])
    elif defect == "wrong length":
        part = draw(st.sampled_from(["free", "torsion"]))
        elem[part] = elem[part][:-1] if elem[part] and draw(st.booleans()) else elem[part] + [0]
    elif defect == "unreduced torsion" and G.moduli:
        i = draw(st.integers(0, len(G.moduli) - 1))
        elem["torsion"][i] += G.moduli[i] * draw(st.sampled_from([-3, -1, 1, 2, 10**30]))
    elif defect == "coordinate" and (coords := elem["free"] or elem["torsion"]):
        coords[0] = draw(st.sampled_from([True, 1.0, None, "3", "-2", "+1", *BAD_STRINGS]))
    elif defect == "zero den":
        row["den"] = draw(st.sampled_from([0, "0", "-0", "+0", "000"]))
    return row


def outcome(read, *args):
    """What ``read(*args)`` gives: its numerators in order and denominator, or its error."""
    try:
        f = read(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return list(f.numerators.items()), f.denominator


def with_defect(data, rows, G):
    """``rows`` as they are, or with one row changed by ``plant``."""
    if rows and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(rows) - 1))
        rows = rows[:i] + [plant(data.draw, rows[i], G)] + rows[i + 1:]
    return data.draw(st.sampled_from([rows, tuple(rows)]))


class TestColumnReader:
    # The column reader gives the row reader's value, or its error class
    # and message, whatever one row holds.
    @settings(max_examples=250, deadline=None)
    @given(data=st.data(), G=groups)
    def test_group_rows_read_as_row_by_row(self, data, G):
        rows = with_defect(data, data.draw(data_rows(G)), G)
        assert outcome(serialize.function_from_rows, G, rows, "rows") == outcome(
            function_from_rows_by_row, G, rows, "rows")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), G=st.builds(lambda rank, m, ms: make_group(rank, [m, *ms]),
                                       st.integers(0, 2), st.sampled_from([4, 6, 12]),
                                       st.lists(st.integers(2, 12), max_size=1)))
    def test_coset_rows_read_as_row_by_row(self, data, G):
        # H is generated by 2 on the first torsion axis, of even order; a
        # second row at a representative of an existing row's coset is refused.
        quot = quotient(G, [make_element(G, [0] * G.rank, [2] + [0] * (len(G.moduli) - 1))])
        rows = data.draw(data_rows(G))
        if rows and data.draw(st.booleans()):
            twin = json.loads(json.dumps(data.draw(st.sampled_from(rows))))
            twin["elem"]["torsion"][0] += 2
            rows.insert(data.draw(st.integers(0, len(rows))), twin)
        rows = with_defect(data, rows, G)
        assert outcome(serialize.quotient_function_from_rows, quot, rows, "rows") == outcome(
            quotient_function_from_rows_by_row, quot, rows, "rows")

    @pytest.mark.parametrize("rows", [None, [], {}, "rows", 3], ids=repr)
    def test_no_rows_or_no_array(self, rows):
        assert outcome(serialize.function_from_rows, Z, rows, "rows") == outcome(
            function_from_rows_by_row, Z, rows, "rows")

    def test_values_mix_ints_and_strings(self):
        rows = [{"elem": {"free": [x], "torsion": [x]}, "num": num, "den": den}
                for x, num, den in [(1, 1, "2"), (2, "-3", 4), (5, "+7", "-6"), (1, "007", 2)]]
        f = serialize.function_from_rows(ZxZ4, rows)
        assert f == function_from_rows_by_row(ZxZ4, rows)
        assert f.entries == {make_element(ZxZ4, [1], [1]): 4, make_element(ZxZ4, [2], [2]):
                             Fraction(-3, 4), make_element(ZxZ4, [5], [1]): Fraction(-7, 6)}

