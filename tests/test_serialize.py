"""Wire formats: JSON and CSV round-trips are bit-exact."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lattice_waves import randgen, serialize
from lattice_waves.errors import ShapeMismatch, ZeroDenominator
from lattice_waves.functions import SupportedFunction
from lattice_waves.groups import make_element, make_group
from lattice_waves.tree import TreeFunction

from helpers import element_from_label, function_from_csv, tree_function_from_csv, vertex_from_label

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


LABEL_GROUPS = [make_group(0, []), make_group(0, [6]), Z, make_group(2, [4, 6])]
# Small coordinates of either sign, and coordinates of up to 300 digits.
coordinates = st.one_of(st.integers(-9, 9), st.integers(-(10**300), 10**300))


class TestLabels:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), G=st.sampled_from(LABEL_GROUPS))
    def test_csv_labels_are_element_labels(self, data, G):
        # The rows' labels come from one template per call: the coordinates,
        # free part first, joined by ';', and each reads back to its element.
        dim = G.rank + len(G.moduli)
        coords = st.lists(coordinates, min_size=dim, max_size=dim)
        elems = coords.map(lambda c: make_element(G, c[:G.rank], c[G.rank:]))
        keys = data.draw(st.lists(elems, max_size=8, unique=True))
        f = SupportedFunction(G, {x: data.draw(rationals()) or 1 for x in keys})
        labels = csv_labels(serialize.function_to_csv(f, {"n": 1}))
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
