"""Every function the program builds is integer numerators over one denominator, in lowest terms.

Each result is checked against a reference computed here in ``Fraction``
arithmetic: the constructors, the algebra, lift and restrict, every
oracle step and every solver, on Z, Z^2, Z x Z4 and trees.
"""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from lattice_waves import cayley, cosets, oracles, randgen, tree
from lattice_waves.functions import (
    SupportedFunction,
    add,
    convolve,
    convolve_polynomials,
    scale,
    sub,
)
from lattice_waves.groups import GroupElement, adder, make_element, make_group

Z, Z2, ZxZ4 = make_group(1, []), make_group(2, []), make_group(1, [4])
# Small numerators and denominators, so that sums and products often share factors.
VALUES = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 12]))


def assert_lowest_terms(h, reference: dict):
    """h is canonical and holds exactly the non-zero values of ``reference``."""
    d = h.denominator
    assert type(d) is int and d >= 1
    assert all(type(v) is int and v for v in h.numerators.values())
    assert gcd(d, *h.numerators.values()) == 1
    assert dict(h.entries) == {x: Fraction(v) for x, v in reference.items() if v}


def raw_elements(G):
    """Elements with unreduced torsion, which the public constructor reduces."""
    free = st.tuples(*[st.integers(-3, 3)] * G.rank)
    torsion = st.tuples(*[st.integers(-m, 2 * m) for m in G.moduli])
    return st.builds(GroupElement, free, torsion)


def group_functions(G):
    return st.dictionaries(raw_elements(G), VALUES, max_size=6)


def words(k):
    """Reduced words over 1..k of length up to 3."""
    def reduced(letters):
        out = []
        for a in letters:
            if not out or out[-1] != a:
                out.append(a)
        return tuple(out)
    return st.lists(st.integers(1, k), max_size=3).map(reduced)


def summed_reference(G, raw: dict) -> dict:
    out = {}
    for x, v in raw.items():
        y = make_element(G, x.free, x.torsion)
        out[y] = out.get(y, Fraction(0)) + v
    return out


def pointwise(f, g, op) -> dict:
    return {x: op(f(x), g(x)) for x in f.support() | g.support()}


def literal_product(G, f: dict, g: dict) -> dict:
    step, out = adder(G), {}
    for y, a in f.items():
        for z, b in g.items():
            x = step(y, z)
            out[x] = out.get(x, Fraction(0)) + a * b
    return out


def literal_step(u0, u1, neighbours, k: int, divisor: int = 1):
    """(u1 - Δu1, 2 u1 - u0 - Δu0), Δu(x) = k u(x) - (1/divisor) sum_y u(y), in Fractions."""
    points = {x for u in (u0, u1) for x in u.support()}
    points |= {y for x in points for y in neighbours(x)}

    def minus_laplacian(u, x):
        return sum((u(y) for y in neighbours(x)), Fraction(0)) / divisor - k * u(x)

    heat = {x: u1(x) + minus_laplacian(u1, x) for x in points}
    wave = {x: 2 * u1(x) - u0(x) + minus_laplacian(u0, x) for x in points}
    return heat, wave


def literal_states(f, g, neighbours, k: int, n: int, divisor: int = 1):
    """(heat, wave) states at time n from f (and velocity g), stepped in Fractions."""
    make = lambda values: type(f)(f.tag, values)
    heat = f
    for _ in range(n):
        heat = make(literal_step(heat, heat, neighbours, k, divisor)[0])
    prev, curr = f, make(pointwise(f, g, lambda a, b: a + b))
    for _ in range(n):
        prev, curr = curr, make(literal_step(prev, curr, neighbours, k, divisor)[1])
    return dict(heat.entries), dict(prev.entries)


def zero_mass(g, balance):
    """g with its total mass taken off at ``balance``."""
    return add(g, type(g)(g.tag, {balance: -sum(g.entries.values(), Fraction(0))}))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), G=st.sampled_from([Z, Z2, ZxZ4]), c=VALUES)
def test_group_algebra_in_lowest_terms(data, G, c):
    raw_f, raw_g = data.draw(group_functions(G)), data.draw(group_functions(G))
    f, g = SupportedFunction(G, raw_f), SupportedFunction(G, raw_g)
    assert_lowest_terms(f, summed_reference(G, raw_f))
    assert_lowest_terms(g, summed_reference(G, raw_g))
    assert_lowest_terms(add(f, g), pointwise(f, g, lambda a, b: a + b))
    assert_lowest_terms(sub(f, g), pointwise(f, g, lambda a, b: a - b))
    assert_lowest_terms(scale(f, c), {x: c * f(x) for x in f.support()})
    assert_lowest_terms(convolve(f, g), literal_product(G, dict(f.entries), dict(g.entries)))
    # sum_i row[i] f^{*i} for the integral f of f's numerators and integer rows.
    integral = {x: Fraction(v) for x, v in f.numerators.items()}
    rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
                              min_size=1, max_size=2))
    got = convolve_polynomials(SupportedFunction.trusted(G, f.numerators), rows)
    for row, h in zip(rows, got):
        power = {make_element(G, [0] * G.rank, [0] * len(G.moduli)): Fraction(1)}
        total = {}
        for i, coefficient in enumerate(row):
            if i:
                power = literal_product(G, power, integral)
            for x, v in power.items():
                total[x] = total.get(x, Fraction(0)) + coefficient * v
        assert_lowest_terms(h, total)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), G=st.sampled_from([Z, Z2, ZxZ4]), seed=st.integers(0, 2**16),
       n=st.integers(0, 3))
def test_cayley_steps_and_solvers_in_lowest_terms(data, G, seed, n):
    S = randgen.random_symmetric_generators(random.Random(seed), G)
    f = SupportedFunction(G, data.draw(group_functions(G)))
    g = SupportedFunction(G, data.draw(group_functions(G)))
    step = adder(G)
    neighbours = lambda x: [step(x, s) for s in S.elements]
    heat, wave = literal_step(f, g, neighbours, S.degree)
    assert_lowest_terms(oracles.cayley_heat_step(g, S), heat)
    assert_lowest_terms(oracles.cayley_wave_step(f, g, S), wave)
    g = zero_mass(g, make_element(G, [9] * G.rank, [0] * len(G.moduli)))
    heat, wave = literal_states(f, g, neighbours, S.degree, n)
    assert_lowest_terms(cayley.heat_solve(f, S, n), heat)
    assert_lowest_terms(cayley.wave_solve(f, g, S, n), wave)


# Z x Z4 modulo H = <(0, 2)>, with S = {(+-1, 0), (0, 1), (0, 3)}.
COSETS = cosets.build_coset_problem(
    ZxZ4, [make_element(ZxZ4, [0], [2])],
    [make_element(ZxZ4, *c) for c in (([1], [0]), ([-1], [0]), ([0], [1]), ([0], [3]))],
)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(0, 3))
def test_lift_restrict_lifted_steps_and_coset_solvers_in_lowest_terms(data, n):
    P, Q = COSETS, COSETS.quotient_group
    f = SupportedFunction(Q, data.draw(group_functions(Q)))
    g = SupportedFunction(Q, data.draw(group_functions(Q)))
    lifted_f, lifted_g = cosets.lift(f, P), cosets.lift(g, P)
    assert_lowest_terms(lifted_f, {x: v for q, v in f.entries.items() for x in P.quot.fiber(q)})
    assert_lowest_terms(cosets.restrict(lifted_f, P), dict(f.entries))
    step = adder(P.base_group)
    neighbours = lambda x: [step(step(x, h), s) for h in P.quot.subgroup for s in P.coset_reps]
    k, divisor = P.S_tilde.degree, P.H_order
    heat, wave = literal_step(lifted_f, lifted_g, neighbours, k, divisor)
    assert_lowest_terms(oracles.lifted_coset_heat_step(lifted_g, P), heat)
    assert_lowest_terms(oracles.lifted_coset_wave_step(lifted_f, lifted_g, P), wave)
    g = zero_mass(g, make_element(Q, [5], [0]))
    heat, wave = literal_states(lifted_f, cosets.lift(g, P), neighbours, k, n, divisor)
    project = lambda u: {P.quot.project(x): v for x, v in u.items()}
    assert_lowest_terms(cosets.coset_heat_solve(f, P, n), project(heat))
    assert_lowest_terms(cosets.coset_wave_solve(f, g, P, n), project(wave))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.integers(2, 4), n=st.integers(0, 3))
def test_tree_functions_steps_and_solvers_in_lowest_terms(data, k, n):
    raw_f = data.draw(st.dictionaries(words(k), VALUES, max_size=5))
    raw_g = data.draw(st.dictionaries(words(k), VALUES, max_size=5))
    f, g = tree.TreeFunction(k, raw_f), tree.TreeFunction(k, raw_g)
    assert_lowest_terms(f, raw_f)
    neighbours = lambda x: tree.neighbors(x, k)
    heat, wave = literal_step(f, g, neighbours, k)
    assert_lowest_terms(oracles.tree_step_heat(g), heat)
    assert_lowest_terms(oracles.tree_step_wave(f, g), wave)
    # Cancelling g's radialized mass at x makes the wave solvable there.
    window = [tree.ROOT, (1,), (2, 1)]
    x = window[data.draw(st.integers(0, 2))]
    mass = tree.radial_mass(g, tree.hull_position(g, x))
    g = tree.TreeFunction(k, {**g.entries, x: g(x) - mass})
    heat, wave = literal_states(f, g, neighbours, k, n)
    assert_lowest_terms(tree.tree_heat_solve(f, n, window),
                        {y: heat.get(y, 0) for y in window})
    assert_lowest_terms(tree.tree_wave_solve(f, g, n, [x]), {x: wave.get(x, 0)})
