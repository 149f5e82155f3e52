"""Supported functions and the exact convolution algebra."""

import random
import sys
import time
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from lattice_waves import functions as functions_module
from lattice_waves.errors import GroupMismatch
from lattice_waves.functions import (
    SupportedFunction,
    add,
    convolve,
    delta,
    scale,
    sub,
    trivial_character_sum,
    zero,
)
from lattice_waves.groups import adder, identity, make_element, make_group

from helpers import convolve_power, l1_norm, l2_norm_squared, reflect

Z = make_group(1, [])
ZxZ4 = make_group(1, [4])
HOST_BYTEORDER = sys.byteorder


def functions(G, span=5, points=4):
    free = st.tuples(*[st.integers(-span, span)] * G.rank)
    tor = st.tuples(*[st.integers(0, m - 1) for m in G.moduli])
    elem = st.builds(lambda f, t: make_element(G, f, t), free, tor)
    value = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    return st.dictionaries(elem, value, max_size=points).map(
        lambda d: SupportedFunction(G, d)
    )


def test_zero_values_dropped():
    f = SupportedFunction(Z, {make_element(Z, [0], []): Fraction(0)})
    assert f.support() == set()


def test_public_constructor_reduces_torsion_and_merges():
    from lattice_waves.groups import GroupElement

    f = SupportedFunction(
        ZxZ4,
        {
            GroupElement((1,), (5,)): Fraction(1, 2),
            GroupElement((1,), (1,)): Fraction(1, 3),
            GroupElement((2,), (6,)): Fraction(0),
            GroupElement((0,), (0,)): 2,
        },
    )
    assert f.entries == {
        make_element(ZxZ4, [1], [1]): Fraction(5, 6),
        make_element(ZxZ4, [0], [0]): Fraction(2),
    }
    assert all(type(v) is Fraction for v in f.entries.values())
    assert f.numerators == {make_element(ZxZ4, [1], [1]): 5, make_element(ZxZ4, [0], [0]): 12}
    assert f.denominator == 6


def test_trusted_constructor_keeps_entries():
    x = make_element(ZxZ4, [1], [3])
    numerators = {x: 1}
    f = SupportedFunction.trusted(ZxZ4, numerators, 2)
    assert f.numerators is numerators and f.denominator == 2
    assert f == SupportedFunction(ZxZ4, {x: Fraction(1, 2)})
    assert f.entries == {x: Fraction(1, 2)}
    with pytest.raises(TypeError):
        f.entries[x] = 1  # a read-only view of the numerators


def _naive_convolve(f, g):
    from lattice_waves.groups import elem_add

    out = {}
    for y, a in f.entries.items():
        for z, b in g.entries.items():
            x = elem_add(f.group, y, z)
            out[x] = out.get(x, Fraction(0)) + a * b
    return SupportedFunction(f.group, out)


def test_delta_and_call():
    e = identity(Z)
    d = delta(Z, e)
    assert d(e) == 1
    assert d(make_element(Z, [1], [])) == 0


def test_mismatched_groups_rejected():
    f = delta(Z, identity(Z))
    g = delta(ZxZ4, identity(ZxZ4))
    with pytest.raises(GroupMismatch):
        add(f, g)
    with pytest.raises(GroupMismatch):
        convolve(f, g)


@pytest.mark.parametrize("G", [Z, ZxZ4])
class TestConvolutionAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_commutative_and_associative(self, G, data):
        f = data.draw(functions(G))
        g = data.draw(functions(G))
        h = data.draw(functions(G))
        assert convolve(f, g) == convolve(g, f)
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_rational_double_loop(self, G, data):
        # Mixed denominators: the integer accumulation divides exactly once.
        f = data.draw(functions(G))
        g = data.draw(functions(G))
        assert convolve(f, g) == _naive_convolve(f, g)
        assert all(v != 0 for v in convolve(f, g).entries.values())

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_delta_is_identity(self, G, data):
        f = data.draw(functions(G))
        assert convolve(f, delta(G, identity(G))) == f

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_distributes_over_addition(self, G, data):
        f = data.draw(functions(G))
        g = data.draw(functions(G))
        h = data.draw(functions(G))
        assert convolve(f, add(g, h)) == add(convolve(f, g), convolve(f, h))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), n=st.integers(0, 5))
    def test_power_matches_repeated_convolution(self, G, data, n):
        f = data.draw(functions(G, span=2, points=3))
        direct = delta(G, identity(G))
        for _ in range(n):
            direct = convolve(direct, f)
        assert convolve_power(f, n) == direct

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mass_is_multiplicative(self, G, data):
        f = data.draw(functions(G))
        g = data.draw(functions(G))
        assert trivial_character_sum(convolve(f, g)) == trivial_character_sum(
            f
        ) * trivial_character_sum(g)


def test_scale_sub_zero_norms():
    f = SupportedFunction(
        Z,
        {
            make_element(Z, [0], []): Fraction(3, 2),
            make_element(Z, [2], []): Fraction(-1, 2),
        },
    )
    assert scale(f, 2)(make_element(Z, [0], [])) == 3
    assert sub(f, f) == zero(Z)
    assert l1_norm(f) == 2
    assert l2_norm_squared(f) == Fraction(10, 4)


def test_reflect_is_an_involution_and_flips_support():
    f = SupportedFunction(Z, {make_element(Z, [3], []): Fraction(1, 7)})
    r = reflect(f)
    assert r(make_element(Z, [-3], [])) == Fraction(1, 7)
    assert reflect(r) == f


# The packed product (``convolve`` where the product's box is no larger
# than the number of pairs, or, with native slots, within the cost model's
# bound) against the sparse loop and the literal double loop, on
# torsion-free, mixed and pure torsion groups.
PACKED_GROUPS = [Z, make_group(2, []), ZxZ4, make_group(1, [3]), make_group(0, [6]),
                 make_group(0, [2, 4])]


def box_function(G, side, values):
    """``values``, in order, at the elements of the box [0, side)^d, d coordinates."""
    coords = product(range(side), repeat=G.rank + len(G.moduli))
    return SupportedFunction(G, {make_element(G, c[:G.rank], c[G.rank:]): v
                                 for c, v in zip(coords, values)})


def packed_and_sparse(f, g):
    """The packed product of the numerators (None where it does not pack) and the sparse one."""
    a, b = f.numerators, g.numerators
    return (functions_module._packed_product(f.group, a, b),
            functions_module._sparse_product(f.group, a, b))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), G=st.sampled_from(PACKED_GROUPS), bits=st.sampled_from([3, 12, 28, 60, 100]))
def test_packed_convolve_matches_the_sparse_loop(data, G, bits):
    # Boxes of 1 to 3 per coordinate, filled but for zero numerators, and
    # mixed denominators; numerators of up to ``bits`` bits need slots of
    # 1, 2, 4 and 8 bytes and wider.  On a free coordinate one more point,
    # up to 60 past the box, can leave the product's box mostly empty, so
    # both paths occur on every group with one.
    def draw():
        side = data.draw(st.integers(1, 3))
        count = side ** (G.rank + len(G.moduli))
        nums = st.integers(-(2**bits), 2**bits)
        dens = st.sampled_from([1, 2, 3, 4, 6, 35])
        pairs = data.draw(st.lists(st.tuples(nums, dens), min_size=count + 1,
                                   max_size=count + 1))
        shift = make_element(G, data.draw(st.lists(st.integers(-4, 4), min_size=G.rank,
                                                   max_size=G.rank)), [0] * len(G.moduli))
        entries = dict(box_function(G, side, [Fraction(n, d) for n, d in pairs]).entries)
        far = data.draw(st.one_of(st.just(0), st.integers(1, 60))) if G.rank else 0
        if far:
            point = make_element(G, [side + far] + [0] * (G.rank - 1), [0] * len(G.moduli))
            entries[point] = Fraction(*pairs[-1])
        return SupportedFunction(G, {adder(G)(x, shift): v for x, v in entries.items()})

    f, g = draw(), draw()
    packed, sparse = packed_and_sparse(f, g)
    assert packed is None or packed == sparse
    assert convolve(f, g) == _naive_convolve(f, g)


def _box_and_pairs(G, a, b):
    """The slots of the product's packed box and the pairs of the sparse loop."""
    (_, widths_a), (_, widths_b) = (functions_module._box(functions_module._lift(G, c))
                                    for c in (a, b))
    return prod(u + v - 1 for u, v in zip(widths_a, widths_b)), len(a) * len(b)


@pytest.mark.parametrize("magnitude, byteorder, native", [
    (10**6, HOST_BYTEORDER, HOST_BYTEORDER == "little"),
    (10**6, "big", False),
    (10**12, HOST_BYTEORDER, False),
], ids=["8-byte-slots", "per-slot-host", "11-byte-slots"])
@pytest.mark.parametrize("G", [Z, make_group(2, []), make_group(1, [12])], ids=str)
def test_products_either_side_of_the_native_bound(monkeypatch, G, magnitude, byteorder, native):
    # A full box of 30 or 6 a side (a kernel) times two points d apart
    # along the first coordinate (data).  At the largest d with box +
    # NATIVE_FIXED <= NATIVE_SPREAD * pairs the box holds more slots than
    # pairs: slots of up to 8 bytes on a little-endian host pack there and
    # not at d + 1; wider slots, or any slots written one at a time, pack
    # at neither.  Every product equals the sparse loop's.
    monkeypatch.setattr(functions_module.sys, "byteorder", byteorder)
    rng = random.Random(magnitude)
    side = 30 if G.rank == 1 and not G.moduli else 6
    kernel = box_function(G, side, [rng.choice((-1, 1)) * rng.randint(1, magnitude)
                                    for _ in range(side ** (G.rank + len(G.moduli)))])
    spread, fixed = functions_module.NATIVE_SPREAD, functions_module.NATIVE_FIXED

    def data(d):
        far = make_element(G, [d] + [0] * (G.rank - 1), [0] * len(G.moduli))
        return SupportedFunction(G, {identity(G): magnitude, far: -magnitude})

    def inside(d):
        box, pairs = _box_and_pairs(G, kernel.numerators, data(d).numerators)
        return box + fixed <= spread * pairs

    d = 1
    while inside(d + 1):
        d += 1
    box, pairs = _box_and_pairs(G, kernel.numerators, data(d).numerators)
    assert pairs < box <= spread * pairs - fixed
    for at, packs in ((d, native), (d + 1, False)):
        f = data(at)
        packed, sparse = packed_and_sparse(kernel, f)
        assert (packed is not None) == packs, at
        assert packed is None or packed == sparse
        assert convolve(kernel, f) == _naive_convolve(kernel, f)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), G=st.sampled_from(PACKED_GROUPS), magnitude=st.sampled_from([9, 10**12]))
def test_every_product_with_no_more_slots_than_pairs_packs(data, G, magnitude):
    # The rule only widens packing: where the box holds no more slots than
    # there are pairs, the product packs, whatever its slots.
    def draw():
        free = st.lists(st.integers(-6, 6), min_size=G.rank, max_size=G.rank)
        torsion = st.tuples(*[st.integers(0, m - 1) for m in G.moduli])
        elem = st.builds(lambda x, t: make_element(G, x, t), free, torsion)
        values = st.integers(-magnitude, magnitude).filter(bool)
        return data.draw(st.dictionaries(elem, values, min_size=1, max_size=12))

    a, b = draw(), draw()
    box, pairs = _box_and_pairs(G, a, b)
    packed = functions_module._packed_product(G, a, b)
    if box <= pairs:
        assert packed is not None
    assert packed is None or packed == functions_module._sparse_product(G, a, b)


@pytest.mark.parametrize("G, side, spread, magnitude", [
    (Z, 30, 200, 10**6), (make_group(2, []), 8, 14, 10**6), (make_group(1, [12]), 8, 12, 100),
    (make_group(0, [6]), 1, 0, 1), (make_group(0, [2, 4]), 1, 0, 1),
], ids=["Z", "Z^2", "ZxZ12", "Z6", "Z2xZ4"])
def test_products_take_shifted_copies_or_the_multiply(monkeypatch, G, side, spread, magnitude):
    # A full box of points (a kernel) times up to three points spread over
    # ``spread`` along each free coordinate (data) is one shifted copy of the
    # kernel per data point; times a second full box it is the multiply
    # (``COPIES``).  On rank 0 the full box is the whole group.  Either order
    # of the operands gives the sparse loop's product.
    rng = random.Random(side)
    dims = G.rank + len(G.moduli)
    cells = side ** dims if G.rank else prod(G.moduli)

    def full():
        return box_function(G, side if G.rank else max(G.moduli),
                            [rng.choice((-1, 1)) * rng.randint(1, magnitude) for _ in range(cells)])

    def few():
        points = [make_element(G, [rng.randrange(spread) for _ in range(G.rank)],
                               [rng.randrange(m) for m in G.moduli]) for _ in range(3)]
        return SupportedFunction(G, {x: rng.choice((-1, 1, 7)) for x in points})

    calls, copies = [], functions_module._copies
    monkeypatch.setattr(functions_module, "_copies",
                        lambda p, terms, q=0: calls.append(len(terms)) or copies(p, terms, q))
    for f, g, copied in ((full(), few(), True), (full(), full(), False)):
        for a, b in ((f, g), (g, f)):
            packed, sparse = packed_and_sparse(a, b)
            assert packed == sparse
        assert calls == ([len(g.numerators)] * 2 if copied else []), (copied, calls)
        calls.clear()


def near_the_slot(values, other, bits):
    """``values`` scaled so that the coefficient bound of their product with ``other`` is just
    under 2^bits, the most that slots of (bits + 1) / 8 bytes hold."""
    top_u, top_v = max(map(abs, values)), max(map(abs, other))
    bound = min(top_u * sum(map(abs, other)), sum(map(abs, values)) * top_v)
    return [v * max(1, (2**bits - 1) // bound) for v in values]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rank=st.integers(0, 2),
       moduli=st.lists(st.integers(2, 7), max_size=2), bits=st.sampled_from([0, 7, 15, 31, 63]))
def test_packed_product_equals_the_sparse_loop_in_either_order(data, rank, moduli, bits):
    # Random groups, rank 0 included.  Each operand fills a box of up to 40
    # elements (49 on rank 0, the whole group), its free coordinates 1, 3 or
    # 10 apart, with some values left out, so that products land on both
    # sides of the copies/multiply rule.  Values mix +-1, which the copies
    # add with no multiply, small values and, for bits > 0, values scaled
    # to put the coefficient bound just under the slot's.  Wherever the
    # product packs, in either order, it equals the sparse loop's.
    G = make_group(rank, moduli or ([] if rank else [5]))
    torsion = prod(G.moduli)

    def operand(values):
        most = max(1, int((40 // torsion) ** (1 / rank))) if rank else 1
        side = data.draw(st.integers(1, most))
        gap = data.draw(st.sampled_from([1, 1, 3, 10]))
        axes = [range(0, side * gap, gap)] * rank + [range(m) for m in G.moduli]
        elems = [make_element(G, c[:rank], c[rank:]) for c in product(*axes)]
        drawn = data.draw(st.lists(st.one_of(st.just(0), values), min_size=len(elems),
                                   max_size=len(elems)))
        return {x: v for x, v in zip(elems, drawn) if v} or {elems[0]: 1}

    units = st.sampled_from([1, -1])
    a = operand(st.one_of(units, st.integers(-9, 9).filter(bool)))
    b = operand(st.one_of(units, st.integers(-(2**20), 2**20).filter(bool)))
    if bits:
        a = dict(zip(a, near_the_slot(list(a.values()), list(b.values()), bits)))
    sparse = functions_module._sparse_product(G, a, b)
    for x, y in ((a, b), (b, a)):
        packed = functions_module._packed_product(G, x, y)
        assert packed is None or packed == sparse


def test_lowest_terms_returns_a_reduced_dict_itself():
    x, y = make_element(Z, [0], []), make_element(Z, [1], [])
    lowest_terms = functions_module.lowest_terms
    for numerators, denominator in (({x: 3, y: -2}, 5), ({x: 4}, 1), ({}, 1)):
        assert lowest_terms(numerators, denominator)[0] is numerators
        assert lowest_terms(numerators, denominator)[1] == denominator
    for numerators, denominator, want in (({x: 6, y: -4}, 10, ({x: 3, y: -2}, 5)),
                                          ({x: 3, y: 0}, 5, ({x: 3}, 5)),
                                          ({x: 0, y: 0}, 1, ({}, 1)),
                                          ({x: 0}, 7, ({}, 1)),
                                          ({}, 4, ({}, 1))):
        before = dict(numerators)
        out = lowest_terms(numerators, denominator)
        assert out == want and out[0] is not numerators
        assert numerators == before


class RecordingPacking(functions_module._Packing):
    """The layout, remembering the slot width of each instance and the arguments of each pack."""

    slots: list = []
    packs: list = []

    def __init__(self, *args):
        super().__init__(*args)
        self.slots.append(self.slot)

    def pack(self, *args):
        self.packs.append((self, args))
        return super().pack(*args)


@pytest.mark.parametrize("per_slot_read", [False, True], ids=["native-read", "per-slot-read"])
@pytest.mark.parametrize("magnitude, slot", [(1, 1), (30, 2), (3000, 4), (10**8, 8), (10**12, 11)])
@pytest.mark.parametrize("G", PACKED_GROUPS, ids=str)
def test_packed_convolve_of_full_boxes(monkeypatch, G, magnitude, slot, per_slot_read):
    # Values +-magnitude on full boxes: the bound is magnitude^2 times the
    # smaller support, which sets the slot width.  A big-endian host writes
    # and reads every slot on its own; forcing that here checks it too.
    monkeypatch.setattr(functions_module, "_Packing", RecordingPacking)
    monkeypatch.setattr(RecordingPacking, "slots", [])
    monkeypatch.setattr(RecordingPacking, "packs", [])
    if per_slot_read:
        monkeypatch.setattr(functions_module.sys, "byteorder", "big")
    rng = random.Random(magnitude)
    size = 2 ** (G.rank + len(G.moduli))
    f = box_function(G, 2, [rng.choice((-1, 1)) * magnitude for _ in range(size)])
    g = box_function(G, 2, [Fraction(rng.choice((-1, 1)) * magnitude, 7) for _ in range(size)])
    packed, sparse = packed_and_sparse(f, g)
    assert packed == sparse
    assert convolve(f, g) == _naive_convolve(f, g)
    assert RecordingPacking.slots == [slot, slot]
    # Each packed factor is sum c X^i, X = 2^(8 slot), i the slot of c: the
    # per-slot write builds it, and so does the cast, where the host has it.
    orders = ["big", "little"] if HOST_BYTEORDER == "little" else ["big"]
    for packing, (columns, values, corner) in RecordingPacking.packs[:2]:
        index = [packing._origin(corner) + sum(c * s for c, s in zip(x, packing.strides))
                 for x in zip(*columns)]
        literal = sum(c << (8 * slot * i) for i, c in zip(index, values))
        for order in orders:
            monkeypatch.setattr(functions_module.sys, "byteorder", order)
            assert packing.pack(columns, values, corner) == literal, order


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rank=st.integers(0, 2),
       moduli=st.lists(st.integers(2, 12), min_size=1, max_size=2))
def test_folded_torsion_decode_matches_the_sparse_loop(data, rank, moduli):
    # Full boxes of lifted torsion, each operand up to m wide, so the
    # product's lifted widths fall below, at and above m, and the decode
    # folds them.  One value of g is then set so that a chosen value of the
    # product cancels to 0, which the decode must drop.
    G = make_group(rank, moduli)
    budget = 2 if len(moduli) == 2 else 3

    def box():
        free = [range(lo, lo + data.draw(st.integers(1, budget), label="free width"))
                for lo in data.draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))]
        torsion = []
        for m in moduli:
            width = data.draw(st.integers(1, m if len(moduli) == 1 else min(m, 6)))
            lo = data.draw(st.integers(-((m - 1) // 2), m // 2 - width + 1))
            torsion.append(range(lo, lo + width))
        nums = st.integers(-50, 50).filter(bool)
        return {make_element(G, c[:rank], c[rank:]): data.draw(nums)
                for c in product(*free, *torsion)}

    a, b = box(), box()
    full = len(b)
    target = data.draw(st.sampled_from(sorted(functions_module._sparse_product(G, a, b))
                                       or [identity(G)]))
    to_target = {z: y for y in a for z in b if adder(G)(y, z) == target}
    if to_target:
        z0 = data.draw(st.sampled_from(sorted(to_target)))
        c = a[to_target[z0]]
        b = {z: v * c for z, v in b.items()}
        b[z0] = -sum(a[to_target[z]] * b[z] for z in to_target if z != z0) // c
        b = {z: v for z, v in b.items() if v}
    packed, sparse = packed_and_sparse(SupportedFunction.trusted(G, a),
                                       SupportedFunction.trusted(G, b))
    assert target not in sparse
    if len(b) == full:
        # Both are full boxes, so the product's box has no more slots than pairs.
        assert packed == sparse
    else:
        assert packed is None or packed == sparse


def test_torsion_residues_that_cancel_are_dropped():
    # On Z4, f = d0 + d1 + d2 and g = d0 + d1 - d2 meet at lifted 0 (1) and
    # at lifted 4 (-1), one residue: the packed product stores no zero there.
    Z4 = make_group(0, [4])
    f = box_function(Z4, 3, [1, 1, 1])
    g = box_function(Z4, 3, [1, 1, -1])
    packed, sparse = packed_and_sparse(f, g)
    assert packed == sparse == {make_element(Z4, [], [1]): 2, make_element(Z4, [], [2]): 1}
    assert convolve(f, g).entries == packed


@pytest.mark.parametrize("G", PACKED_GROUPS, ids=str)
def test_convolve_with_an_empty_operand(G):
    f = box_function(G, 2, [Fraction(1, 2), 3, -1, 2])
    empty = zero(G)
    assert packed_and_sparse(f, empty)[0] is None
    assert convolve(f, empty) == convolve(empty, f) == convolve(empty, empty) == empty


def test_far_apart_supports_take_the_sparse_path(monkeypatch):
    # A box of 10^12 + 2 slots for 4 pairs: no layout may be built.  Two
    # single points pack at their own corners, into a box of one slot.
    def refuse(*args):
        raise AssertionError("a packed layout was built")

    near = SupportedFunction(Z, {make_element(Z, [0], []): 1, make_element(Z, [1], []): 2})
    far = SupportedFunction(Z, {make_element(Z, [0], []): 1, make_element(Z, [10**12], []): 3})
    start = time.perf_counter()
    single = convolve(delta(Z), delta(Z, make_element(Z, [10**12], [])))
    assert single == delta(Z, make_element(Z, [10**12], []))
    monkeypatch.setattr(functions_module, "_Packing", refuse)
    assert convolve(near, far) == _naive_convolve(near, far)
    assert time.perf_counter() - start < 1
