"""Packed (Kronecker) kernels against sparse dict references kept here.

``functions.convolve_polynomials`` builds every kernel as a polynomial in
one function, in one big ``int`` or, where that would be mostly empty,
with ``convolve``; on torsion, partial products may be folded onto their
residues as they are multiplied.  The references below are literal
constructions on the sparse double loop (``sparse_convolve``), which
``convolve`` packs where the product's box is small: repeated squaring,
the two dict accumulators of ``wave_kernels`` over successive powers of A,
and the sum of coefficient times power.
"""

import random
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from lattice_waves import cayley, cosets, functions, randgen
from lattice_waves.functions import SupportedFunction, convolve_polynomials
from lattice_waves.groups import (GeneratorSet, elem_neg, identity, make_element, make_group,
                                  validate_generators)

from helpers import convolve_power, rewritten


def unit(G):
    """The convolution unit delta_e, with the integer value 1."""
    return SupportedFunction.trusted(G, {identity(G): 1})


def sparse_convolve(f, g):
    """f*g by the sparse double loop over the two supports' numerators."""
    G, d = f.group, f.denominator * g.denominator
    product = functions._sparse_product(G, f.numerators, g.numerators)
    return SupportedFunction(G, {x: Fraction(v, d) for x, v in product.items()})


def sparse_power(f, n, squares=None):
    """n-fold convolution power by repeated squaring of dicts.

    ``squares`` (f, f^2, f^4, ...) may be shared between calls on one f.
    """
    squares = [f] if squares is None else squares
    result = unit(f.group)
    j = 0
    while n:
        if j == len(squares):
            squares.append(sparse_convolve(squares[-1], squares[-1]))
        if n & 1:
            result = sparse_convolve(result, squares[j])
        n >>= 1
        j += 1
    return result


def sparse_heat(S, n, squares=None):
    step = squares[0] if squares else cayley._symbol(S, 1 - S.degree, 1)
    return sparse_power(step, n, squares)


def sparse_wave(S, n):
    """(F_n, G_n) by accumulating C(n, 2i[+1]) (-1)^i A^{*i} in two dicts."""
    A = cayley.inverse_symbol_a(S)
    totals = ({}, {})
    power = unit(S.group)
    for i in range(n // 2 + 1):
        if i:
            power = sparse_convolve(power, A)
        for total, c in zip(totals, (comb(n, 2 * i), comb(n, 2 * i + 1))):
            for x, v in power.numerators.items():
                total[x] = total.get(x, 0) + (-1) ** i * c * v
    return tuple(SupportedFunction.trusted(S.group, {x: v for x, v in t.items() if v})
                 for t in totals)


def gens(G, *coords):
    """The symmetric set of the given (free, torsion) pairs and their inverses."""
    out = []
    for free, torsion in coords:
        for sign in (1, -1):
            s = make_element(G, [sign * v for v in free], [sign * v for v in torsion])
            if s not in out:
                out.append(s)
    return validate_generators(G, out)


def quotient_z_z2_z4():
    """The coset quotient Z x Z6 x Z4 / <(0; 2, 0)>, which is Z x Z2 x Z4."""
    G = make_group(1, [6, 4])
    S = gens(G, ([1], [0, 0]), ([0], [1, 0]), ([0], [0, 1]))
    P = cosets.build_coset_problem(G, [make_element(G, [0], [2, 0])], S.elements)
    return P.quotient_group, P.S_tilde


Z = make_group(1, [])
Z2_ = make_group(2, [])
ZxZ4 = make_group(1, [4])
ZxZ12 = make_group(1, [12])
Z6 = make_group(0, [6])
Z2 = make_group(0, [2])
Z3 = make_group(0, [3])
Z2xZ6 = make_group(0, [2, 6])
LONG = list(range(25)) + [40, 60]

CASES = {
    "Z": (Z, gens(Z, ([1], [])), LONG),
    "Z^2, 4 generators": (Z2_, gens(Z2_, ([1, 0], []), ([0, 1], [])), list(range(25)) + [40]),
    "Z^2, 6 generators at span 4": (
        Z2_, gens(Z2_, ([1, 0], []), ([0, 1], []), ([4, -3], [])), list(range(11))),
    "ZxZ4": (ZxZ4, gens(ZxZ4, ([1], [0]), ([0], [1])), LONG),
    "ZxZ12": (ZxZ12, gens(ZxZ12, ([1], [0]), ([0], [1])), LONG),
    "Z6": (Z6, gens(Z6, ([], [1]), ([], [2]), ([], [3])), LONG),
    "Z2, S = {1}": (Z2, validate_generators(Z2, [make_element(Z2, [], [1])]), LONG),
    # Capped at 5 slots from n = 2 on; K_24's lifted width would be 49.
    "Z3, S = {1, 2}": (
        Z3, validate_generators(Z3, [make_element(Z3, [], [1]), make_element(Z3, [], [2])]), LONG),
    # Rank 0 with two torsion factors: both axes capped, and folded as it multiplies.
    "Z2xZ6": (Z2xZ6, gens(Z2xZ6, ([], [1, 0]), ([], [0, 1])), LONG),
    "quotient ZxZ2xZ4": (*quotient_z_z2_z4(), LONG),
}


def assert_int_valued(K):
    assert K.denominator == 1 and all(type(v) is int and v for v in K.numerators.values())


@pytest.mark.parametrize("name", CASES)
def test_heat_kernel_matches_sparse_squaring(name):
    G, S, ns = CASES[name]
    squares = [cayley._symbol(S, 1 - S.degree, 1)]
    for n in ns:
        K = cayley.heat_kernel(S, n).data
        assert K == sparse_heat(S, n, squares), (name, n)
        assert_int_valued(K)
        assert sum(K.entries.values()) == 1


@pytest.mark.parametrize("name", CASES)
def test_heat_kernel_matches_binomial_sum(name):
    G, S, ns = CASES[name]
    for n in (n for n in ns if n <= 12):
        assert cayley.heat_kernel(S, n).data == cayley.heat_kernel_binomial(S, n).data


@pytest.mark.parametrize("name", CASES)
def test_wave_kernels_match_sparse_accumulators(name):
    G, S, ns = CASES[name]
    for n in ns:
        Fk, Gk = cayley.wave_kernels(S, n)
        assert (Fk.data, Gk.data) == sparse_wave(S, n), (name, n)
        assert_int_valued(Fk.data)
        assert_int_valued(Gk.data)


def packings(G, S, n):
    """The layouts of K_n and of (F_n, G_n) at the kernels' bounds; None for the sparse path."""
    k = S.degree
    wave_bound = max(sum(c * (2 * k) ** i for i, c in enumerate(r)) for r in cayley.wave_rows(n))
    heat = functions._packing(G, cayley._symbol(S, 1 - k, 1).numerators, n, (2 * k - 1) ** n)
    wave = functions._packing(G, cayley._symbol(S, -k, 1).numerators, n // 2, wave_bound)
    return heat, wave


def lifted_widths(G, S, n):
    """The widths of the box K_n fills lifted to Z."""
    step = cayley._symbol(S, 1 - S.degree, 1)
    columns = functions._lift(G, step.numerators)
    _, widths = functions._box([[0, *c] for c in columns])
    return [n * (w - 1) + 1 for w in widths]


def test_cases_take_the_packed_path():
    # Otherwise the tests above would compare the sparse path with itself.
    # Torsion axes are capped at 2m - 1, so lifted torsion alone never
    # sends a kernel to the sparse path.
    for name, (G, S, ns) in CASES.items():
        for n in ns:
            heat, wave = packings(G, S, n)
            assert heat is not None and (n < 2 or wave is not None), (name, n)


def test_wide_lifted_torsion_packs_with_capped_torsion():
    # K_60 on the quotient reaches at most 121 free values times 8 torsion
    # elements; its lifted box has 121 * 61 * 121 slots, its capped box
    # 121 * 3 * 7.  Both kernels of both groups fold as they multiply.
    for name in ("Z6", "quotient ZxZ2xZ4"):
        G, S, _ = CASES[name]
        for layout in packings(G, S, 60):
            widths = layout[0].widths
            assert widths[G.rank:] == [2 * m - 1 for m in G.moduli], name


def test_which_kernels_fold():
    # The quotient's K_10: a lifted box of 21 * 11 * 21 slots, capped to
    # 21 * 3 * 7.  Z x Z12's K_11 lifts to 23 * 23 <= 23 * (2 * 12 - 1):
    # no fold can be needed, and the layout keeps the lifted box.
    G, S = quotient_z_z2_z4()
    assert packings(G, S, 10)[0][0].widths == [21, 3, 7] != lifted_widths(G, S, 10)
    G, S, _ = CASES["ZxZ12"]
    assert packings(G, S, 11)[0][0].widths == lifted_widths(G, S, 11) == [23, 23]


def test_torsion_kernels_at_n_1000_match_the_references():
    # Support at most 6, so the dict references are quick; the packed
    # kernels fold at every product past the first few.
    G, S, _ = CASES["Z6"]
    assert packings(G, S, 1000)[0][0].widths == [11]
    assert cayley.heat_kernel(S, 1000).data == sparse_heat(S, 1000)
    Fk, Gk = cayley.wave_kernels(S, 1000)
    assert (Fk.data, Gk.data) == sparse_wave(S, 1000)


# A fold that adds the high slots back one slot short of m strides down.
FOLD_ONE_SLOT_OFF = rewritten(functions, "high >> 8 * low", "high >> 8 * (low - slot)")


def test_a_planted_fold_fault_fails_the_references(monkeypatch):
    monkeypatch.setattr(functions._Packing, "fold", FOLD_ONE_SLOT_OFF(functions._Packing.fold))
    G, S = quotient_z_z2_z4()
    assert cayley.heat_kernel(S, 10).data != sparse_heat(S, 10)
    assert tuple(K.data for K in cayley.wave_kernels(S, 14)) != sparse_wave(S, 14)


def test_a_planted_skipped_fold_fails_the_references(monkeypatch):
    # Z3's K_24 is capped at 5 slots, not its lifted 49, and folds as it
    # multiplies.  With the fold skipped, as if 2m - 1 slots held m
    # residues, K_2 and (F_4, G_4), folded once as they are decoded, read
    # wrong values, and the products of K_24 and (F_24, G_24) outgrow the
    # layout, which their decode cannot read.
    G, S, _ = CASES["Z3, S = {1, 2}"]
    heat, wave = packings(G, S, 24)
    assert heat[0].widths == wave[0].widths == [5] != lifted_widths(G, S, 24)
    skipped = rewritten(functions, "if w > m", "if w > 2 * m")
    monkeypatch.setattr(functions._Packing, "fold", skipped(functions._Packing.fold))
    assert cayley.heat_kernel(S, 2).data != sparse_heat(S, 2)
    assert tuple(K.data for K in cayley.wave_kernels(S, 4)) != sparse_wave(S, 4)
    with pytest.raises(OverflowError):
        cayley.heat_kernel(S, 24)
    with pytest.raises(OverflowError):
        cayley.wave_kernels(S, 24)


# Generators far apart: the packed box would be almost all empty slots
# (2*10^6*n + 1 of them on Z for a support of 2n^2 + 2n + 1).
WIDE = {
    "Z, S = {+-1, +-10^6}": (Z, gens(Z, ([1], []), ([10**6], [])), [1, 2, 3, 12, 20]),
    "Z^2 with a far-off pair": (
        Z2_, gens(Z2_, ([1, 0], []), ([0, 1], []), ([10**4, 1 - 10**4], [])), [1, 2, 3, 8]),
    "ZxZ4 with a far-off pair": (
        ZxZ4, gens(ZxZ4, ([1], [0]), ([0], [1]), ([10**5], [1])), [1, 2, 3, 10]),
}


@pytest.mark.parametrize("name", WIDE)
def test_far_apart_generators_take_the_sparse_path(name):
    G, S, ns = WIDE[name]
    for n in ns:
        heat, wave = packings(G, S, n)
        assert heat is None and (n < 2 or wave is None), (name, n)


@pytest.mark.parametrize("name", WIDE)
def test_far_apart_generators_match_the_references(name):
    G, S, ns = WIDE[name]
    squares = [cayley._symbol(S, 1 - S.degree, 1)]
    for n in [0] + ns:
        K = cayley.heat_kernel(S, n).data
        assert K == sparse_heat(S, n, squares), (name, n)
        assert_int_valued(K)
        if n <= 3:
            assert K == cayley.heat_kernel_binomial(S, n).data
        Fk, Gk = cayley.wave_kernels(S, n)
        assert (Fk.data, Gk.data) == sparse_wave(S, n), (name, n)
        assert_int_valued(Fk.data)
        assert_int_valued(Gk.data)


def reach(G, f, n):
    free_box = prod(n * (max(c) - min(c)) + 1 for c in zip(*(x.free for x in f.entries)))
    return functions._reach(G, f.entries, n, free_box)


def test_reach_bounds_the_support():
    # Exact for independent pairs: K_n on Z with S = {+-1, +-10^6}.
    G, S, _ = WIDE["Z, S = {+-1, +-10^6}"]
    step = cayley._symbol(S, 1 - S.degree, 1)
    for n in range(8):
        assert reach(G, step, n) == len(sparse_heat(S, n).entries) == 2 * n * n + 2 * n + 1
    for G, S, ns in list(CASES.values()) + list(WIDE.values()):
        step = cayley._symbol(S, 1 - S.degree, 1)
        for n in ns[:12]:
            assert len(cayley.heat_kernel(S, n).data.entries) <= reach(G, step, n)


def negation_reach(G, support, degree):
    """The ball term of ``_reach``, its +- pairs counted on negations built by ``elem_neg``."""
    others = set(support) - {identity(G)}
    p = sum(1 for x in others if (y := elem_neg(G, x)) in others and y != x) // 2
    q = len(others) - p
    return sum(comb(p, j) * comb(degree - j + q, q) for j in range(min(p, degree) + 1))


def test_reach_counts_the_pairs_that_negations_find():
    # _reach negates plain coordinate tuples.  On the heat and wave steps of
    # every group here (self-inverse generators on Z2, Z6 and Z2 x Z6
    # included), and on random supports, it counts the pairs elem_neg finds.
    rng = random.Random(43)
    for G, S, ns in list(CASES.values()) + list(WIDE.values()):
        k = S.degree
        supports = [cayley._symbol(S, 1 - k, 1).numerators, cayley._symbol(S, -k, 1).numerators,
                    randgen.random_function(rng, G, max_points=9, span=3).numerators]
        for support in supports:
            for n in ns[:12]:
                assert functions._reach(G, support, n, 10**100) == negation_reach(G, support, n)


@pytest.mark.parametrize("name", CASES)
def test_horner_with_no_unit_value_matches_the_literal_sum(name):
    # A kernel step's generators all have the value 1, which the shifted
    # copies add with no multiply.  Here every generator has the value 2,
    # so every copy but that of a centre of -1 (k = 1) takes the multiply;
    # the wave rows and a mixed row agree with the literal sum all the same.
    G, S, _ = CASES[name]
    step = cayley._symbol(S, -S.degree, 2)
    assert 1 not in step.numerators.values()
    rows = [*cayley.wave_rows(7), [3, 0, -1, 2, 1]]
    assert convolve_polynomials(step, rows) == [literal_polynomial(step, row) for row in rows]


def test_zero_sums_from_torsion_folding_are_dropped():
    # On Z6 with S = {1, ..., 5}, F_4 lifted to Z has non-zero values at two
    # representatives of one residue mod 6 that cancel; the packed F_4 must
    # leave that residue out rather than store a zero.
    G, S, _ = CASES["Z6"]
    n = 4
    L = make_group(1, [])
    lifted = GeneratorSet(
        L,
        tuple(make_element(L, [t - 6 if 2 * t > 6 else t], []) for (t,) in (s.torsion for s in S.elements)),
    )
    assert packings(G, S, n)[1] is not None
    Fk_lifted, _ = sparse_wave(lifted, n)
    residues = {}
    for x, v in Fk_lifted.entries.items():
        residues.setdefault(x.free[0] % 6, []).append(v)
    cancelled = [r for r, vs in residues.items() if sum(vs) == 0]
    assert cancelled
    Fk = cayley.wave_kernels(S, n)[0].data
    assert all(make_element(G, [], [r]) not in Fk.entries for r in cancelled)
    assert_int_valued(Fk)


def test_convolve_power_of_rational_data():
    # Denominators come out as the n-th power of the data's common one.
    G = ZxZ4
    rng = random.Random(5)
    for _ in range(20):
        f = randgen.random_function(rng, G, max_points=5, span=2)
        for n in (0, 1, 2, 5, 9):
            assert convolve_power(f, n) == sparse_power(f, n)
    assert convolve_power(SupportedFunction(G, {}), 3) == SupportedFunction(G, {})
    half = SupportedFunction(G, {make_element(G, [2], [3]): Fraction(1, 2)})
    assert convolve_power(half, 3).entries == {make_element(G, [6], [1]): Fraction(1, 8)}


GROUPS = [make_group(1, []), make_group(2, []), make_group(0, [5]), make_group(1, [3]),
          make_group(1, [2, 4]), make_group(0, [2, 6])]


@settings(max_examples=60, deadline=None)
@given(group=st.sampled_from(GROUPS), seed=st.integers(0, 2**32 - 1), n=st.integers(0, 14))
def test_packed_kernels_match_sparse_for_random_generators(group, seed, n):
    S = randgen.random_symmetric_generators(random.Random(seed), group, max_size=6, span=3)
    assert cayley.heat_kernel(S, n).data == sparse_heat(S, n)
    Fk, Gk = cayley.wave_kernels(S, n)
    assert (Fk.data, Gk.data) == sparse_wave(S, n)


@settings(max_examples=40, deadline=None)
@given(group=st.sampled_from(GROUPS[2:]), seed=st.integers(0, 2**32 - 1), n=st.integers(2, 14))
def test_kernels_folded_at_every_capped_layout_match_sparse(group, seed, n):
    # Every group here has torsion, and each torsion axis is capped at
    # 2m - 1: past the first few products, partial products fold.
    S = randgen.random_symmetric_generators(random.Random(seed), group, max_size=6, span=3)
    assert cayley.heat_kernel(S, n).data == sparse_heat(S, n)
    Fk, Gk = cayley.wave_kernels(S, n)
    assert (Fk.data, Gk.data) == sparse_wave(S, n)


SMALL_MODULI = [make_group(0, [2]), make_group(0, [3]), make_group(0, [5]),
                make_group(0, [2, 2]), make_group(1, [3])]


@settings(max_examples=40, deadline=None)
@given(group=st.sampled_from(SMALL_MODULI), seed=st.integers(0, 2**32 - 1),
       n=st.integers(2, 30))
def test_kernels_on_small_moduli_up_to_n_30_match_sparse(group, seed, n):
    # Lifted, a torsion width grows to many times its small modulus at
    # large n; capped at 2m - 1, such kernels fold at nearly every product.
    S = randgen.random_symmetric_generators(random.Random(seed), group, max_size=6, span=3)
    assert cayley.heat_kernel(S, n).data == sparse_heat(S, n)
    Fk, Gk = cayley.wave_kernels(S, n)
    assert (Fk.data, Gk.data) == sparse_wave(S, n)


@settings(max_examples=40, deadline=None)
@given(group=st.sampled_from(GROUPS + SMALL_MODULI), seed=st.integers(0, 2**32 - 1),
       n=st.integers(0, 30))
def test_no_torsion_width_exceeds_2m_minus_1(group, seed, n):
    # The one-pass fold relies on it: every kernel layout, and every box
    # of a kernel x data product, is at most 2m - 1 wide on each torsion axis.
    rng = random.Random(seed)
    S = randgen.random_symmetric_generators(rng, group, max_size=6, span=3)
    f = randgen.random_function(rng, group, max_points=5, span=3)
    widths = []

    class Recorded(functions._Packing):
        def __init__(self, G, box, bound):
            widths.append(box[G.rank:])
            super().__init__(G, box, bound)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(functions, "_Packing", Recorded)
        kernels = [cayley.heat_kernel(S, n), *cayley.wave_kernels(S, n)]
        for K in kernels:
            functions.convolve(K.data, f)
    assert all(w <= 2 * m - 1 for box in widths for w, m in zip(box, group.moduli)), widths


def literal_polynomial(f, row):
    """sum_i row[i] f^{*i}, one power and one scaled sum at a time."""
    total = {}
    for i, c in enumerate(row):
        for x, v in sparse_power(f, i).numerators.items():
            total[x] = total.get(x, 0) + c * v
    return SupportedFunction.trusted(f.group, {x: v for x, v in total.items() if v})


def integral(f):
    return SupportedFunction.trusted(f.group, f.numerators)


def random_rows(rng, count, top):
    """Rows of unequal length, one of them monomial and one all zero."""
    rows = [[rng.randint(-9, 9) for _ in range(rng.randint(1, top + 1))] for _ in range(count)]
    return rows + [[0] * top + [rng.choice([-2, 1, 3])], [0] * rng.randint(1, top + 1)]


def far_apart(G):
    """Integral functions whose packed box would be mostly empty."""
    near = make_element(G, [1] + [0] * (G.rank - 1), [0] * len(G.moduli))
    far = make_element(G, [10**6] + [0] * (G.rank - 1), [1] * len(G.moduli))
    return SupportedFunction.trusted(G, {identity(G): 2, near: -1, far: 3})


@pytest.mark.parametrize("G", [Z, Z2_, ZxZ4, make_group(1, [2, 6])], ids=str)
def test_convolve_polynomials_matches_the_literal_sum(G):
    # Random f mostly leave out e, whose slot the packed Horner needs.
    rng = random.Random(17)
    for trial in range(12):
        top = rng.randint(1, 7)
        if trial % 3 == 2:
            f = far_apart(G)
            assert functions._packing(G, f.numerators, top, 1) is None
        else:
            f = integral(randgen.random_function(rng, G, max_points=4, span=2))
        rows = random_rows(rng, 3, top)
        got = convolve_polynomials(f, rows)
        assert len(got) == len(rows)
        for row, h in zip(rows, got):
            assert h == literal_polynomial(f, row), (trial, row)
            assert_int_valued(h)


def test_convolve_polynomials_takes_both_paths():
    # The test above relies on both sides of the path choice being reached.
    f = SupportedFunction.trusted(Z, {make_element(Z, [0], []): 3, make_element(Z, [2], []): -1})
    assert functions._packing(Z, f.numerators, 5, 1) is not None
    assert functions._packing(Z, far_apart(Z).numerators, 5, 1) is None
    rows = [[1, 0, -2, 5], [0, 0, 0, 0, 0, 7], [4], [0, 0]]
    for g in (f, far_apart(Z)):
        assert convolve_polynomials(g, rows) == [literal_polynomial(g, row) for row in rows]


def test_convolve_polynomials_of_degree_0_and_of_empty_f():
    G = ZxZ4
    e = make_element(G, [0], [0])
    f = integral(randgen.random_function(random.Random(3), G))
    assert convolve_polynomials(f, [[5], [0], [-2]]) == [
        SupportedFunction.trusted(G, {e: 5}), SupportedFunction.trusted(G, {}),
        SupportedFunction.trusted(G, {e: -2})]
    empty = SupportedFunction.trusted(G, {})
    assert convolve_polynomials(empty, [[4, 1, 2], [0, 0, 1], [0]]) == [
        SupportedFunction.trusted(G, {e: 4}), empty, empty]

