"""Cayley-graph heat and wave solvers against their kernels and oracles."""

import random
import sys
from fractions import Fraction

import pytest

from lattice_waves import cayley, cosets, oracles, randgen, tree
from lattice_waves.errors import (
    GroupMismatch, IndexOutOfRange, NotSolvable, ShapeMismatch, TorsionUnsupported,
)
from lattice_waves.functions import SupportedFunction, convolve, delta, trivial_character_sum
from lattice_waves.groups import identity, make_element, make_group, validate_generators

from helpers import reflect, symbol_eval, within

Z = make_group(1, [])
ZxZ4 = make_group(1, [4])
Z2 = make_group(0, [2])


def z_gens():
    return validate_generators(Z, [make_element(Z, [1], []), make_element(Z, [-1], [])])


def z_elem(r):
    return make_element(Z, [r], [])


def zxz4_gens():
    return validate_generators(
        ZxZ4,
        [
            make_element(ZxZ4, [1], [0]),
            make_element(ZxZ4, [-1], [0]),
            make_element(ZxZ4, [0], [1]),
            make_element(ZxZ4, [0], [3]),
        ],
    )


def z2_gens():
    # S = {1} is its own inverse: degree 1, so delta_e - A has no mass at e.
    return validate_generators(Z2, [make_element(Z2, [], [1])])


class TestHeatKernel:
    def test_k2_on_z(self):
        K = cayley.heat_kernel(z_gens(), 2).data
        assert [K(z_elem(r)) for r in range(-2, 3)] == [1, -2, 3, -2, 1]

    def test_k0_is_delta(self):
        assert cayley.heat_kernel(z_gens(), 0).data == delta(Z, identity(Z))

    def test_binomial_form_agrees(self):
        for n in range(8):
            assert (
                cayley.heat_kernel(z_gens(), n).data
                == cayley.heat_kernel_binomial(z_gens(), n).data
            )

    def test_mass_and_evenness(self):
        for n in range(8):
            K = cayley.heat_kernel(z_gens(), n).data
            assert trivial_character_sum(K) == 1
            assert reflect(K) == K

    def test_support_radius(self):
        K = cayley.heat_kernel(z_gens(), 6).data
        assert max(abs(x.free[0]) for x in K.support()) <= 6


@pytest.mark.parametrize(
    "G, gens", [(Z, z_gens), (ZxZ4, zxz4_gens), (Z2, z2_gens)], ids=["Z", "ZxZ4", "Z2"]
)
def test_kernels_are_int_valued(G, gens):
    S = gens()
    A = cayley.inverse_symbol_a(S)
    assert A.denominator == 1 and all(type(v) is int for v in A.numerators.values())
    for n in range(13):
        for K in (cayley.heat_kernel(S, n), *cayley.wave_kernels(S, n)):
            assert K.data.denominator == 1
            assert all(type(v) is int and v != 0 for v in K.data.numerators.values())


def test_degree_1_heat_kernel_is_a_shift():
    S = z2_gens()
    # The heat step delta_e - A has coefficient 1 - k = 0 at e, which is not stored.
    assert cayley._symbol(S, 1 - S.degree, 1).entries == {make_element(Z2, [], [1]): 1}
    for n in range(4):
        assert cayley.heat_kernel(S, n).data.entries == {make_element(Z2, [], [n % 2]): 1}


def test_convolve_of_integral_functions_is_int_valued():
    K = cayley.heat_kernel(zxz4_gens(), 3).data
    f = SupportedFunction(ZxZ4, {make_element(ZxZ4, [2], [1]): 2, make_element(ZxZ4, [0], [3]): -3})
    for u in (convolve(K, K), convolve(K, f), convolve(f, f)):
        assert u.numerators and u.denominator == 1
        assert all(type(v) is int for v in u.numerators.values())
    half = SupportedFunction(ZxZ4, {make_element(ZxZ4, [0], [0]): Fraction(1, 2)})
    assert convolve(K, half).denominator == 2


class TestWaveKernels:
    def test_masses(self):
        for n in range(10):
            Fk, Gk = cayley.wave_kernels(z_gens(), n)
            assert trivial_character_sum(Fk.data) == 1
            assert trivial_character_sum(Gk.data) == n

    def test_support_radii(self):
        for n in range(1, 10):
            Fk, Gk = cayley.wave_kernels(z_gens(), n)
            f_rad = max((abs(x.free[0]) for x in Fk.data.support()), default=0)
            g_rad = max((abs(x.free[0]) for x in Gk.data.support()), default=0)
            assert f_rad <= n // 2
            assert g_rad <= (n - 1) // 2

    def test_g2_convolution_example(self):
        # One wave step from rest: u(.,2) = 2g shifted by the generators' mean.
        g = SupportedFunction(Z, {z_elem(1): Fraction(1), z_elem(-1): Fraction(-1)})
        u = cayley.wave_solve(delta(Z, identity(Z)), g, z_gens(), 2)
        traj = oracles.cayley_wave_trajectory(delta(Z, identity(Z)), g, z_gens(), 2)
        assert u == traj[2]


class TestSolvers:
    def test_heat_matches_oracle_small(self):
        rng = random.Random(5)
        for G in (Z, ZxZ4):
            S = randgen.random_symmetric_generators(rng, G)
            f = randgen.random_function(rng, G)
            u = f
            for n in range(8):
                assert cayley.heat_solve(f, S, n) == u
                u = oracles.cayley_heat_step(u, S)

    def test_heat_linearity_in_initial_data(self):
        rng = random.Random(6)
        S = z_gens()
        f = randgen.random_function(rng, Z)
        g = randgen.random_function(rng, Z)
        from lattice_waves.functions import add

        assert cayley.heat_solve(add(f, g), S, 5) == add(
            cayley.heat_solve(f, S, 5), cayley.heat_solve(g, S, 5)
        )

    def test_wave_requires_zero_mean_velocity(self):
        f = delta(Z, identity(Z))
        g = delta(Z, z_elem(1))
        with pytest.raises(NotSolvable):
            cayley.wave_solve(f, g, z_gens(), 3)

    def test_wave_matches_oracle_small(self):
        rng = random.Random(7)
        S = z_gens()
        f = randgen.random_function(rng, Z)
        g = randgen.random_zero_mean_function(rng, Z)
        traj = oracles.cayley_wave_trajectory(f, g, S, 8)
        for n, want in enumerate(traj):
            assert cayley.wave_solve(f, g, S, n) == want


class TestSymbol:
    def test_symbol_at_zero_vanishes(self):
        assert abs(symbol_eval(z_gens(), [0.0])) < 1e-12

    def test_symbol_rejects_torsion(self):
        with pytest.raises(TorsionUnsupported):
            symbol_eval(zxz4_gens(), [0.5])


def test_ball_word_metric():
    B = cayley.ball(z_gens(), 3)
    assert sorted(x.free[0] for x in B) == list(range(-3, 4))
    # On a finite group the ball stops growing once the group is exhausted.
    Z6 = make_group(0, [6])
    with within(1):
        B = cayley.ball(validate_generators(Z6, randgen.standard_generators(Z6)), sys.maxsize)
    assert sorted(x.torsion for x in B) == [(t,) for t in range(6)]


_DELTA_TREE = tree.TreeFunction(3, {(): 1})
_NEGATIVE_N_CALLS = {
    "heat_kernel": lambda n: cayley.heat_kernel(z_gens(), n),
    "heat_kernel_binomial": lambda n: cayley.heat_kernel_binomial(z_gens(), n),
    "wave_kernels": lambda n: cayley.wave_kernels(z_gens(), n),
    "heat_solve": lambda n: cayley.heat_solve(delta(Z, identity(Z)), z_gens(), n),
    "wave_solve": lambda n: cayley.wave_solve(
        delta(Z, identity(Z)), SupportedFunction(Z, {}), z_gens(), n
    ),
    "tree_heat_weights": lambda n: tree.tree_heat_weights(3, n),
    "tree_wave_weights": lambda n: tree.tree_wave_weights(3, n),
    "tree_heat_solve": lambda n: tree.tree_heat_solve(_DELTA_TREE, n, [()]),
    "tree_wave_solve": lambda n: tree.tree_wave_solve(
        _DELTA_TREE, tree.TreeFunction(3, {}), n, [()]
    ),
}


@pytest.mark.parametrize("name", sorted(_NEGATIVE_N_CALLS))
def test_negative_time_index_rejected(name):
    call = _NEGATIVE_N_CALLS[name]
    call(0)
    for n in (-1, -2):
        with pytest.raises(IndexOutOfRange):
            call(n)


ZZ = make_group(2, [])
_S_ZZ = validate_generators(ZZ, randgen.standard_generators(ZZ))
_COSETS = cosets.build_coset_problem(ZxZ4, [make_element(ZxZ4, [0], [2])],
                                     randgen.standard_generators(ZxZ4))
# Each request is unsolvable from its data alone: refused before any kernel or table.
_REFUSALS = {
    "heat_solve f on Z, S on Z^2": (
        lambda n: cayley.heat_solve(delta(Z), _S_ZZ, n), GroupMismatch),
    "wave_solve f, g of mass 1 on Z, S on Z^2": (
        lambda n: cayley.wave_solve(delta(Z), delta(Z), _S_ZZ, n), GroupMismatch),
    "wave_solve g of mass 1": (
        lambda n: cayley.wave_solve(delta(ZZ), delta(ZZ), _S_ZZ, n), NotSolvable),
    "coset_wave_solve g of mass 1": (
        lambda n: cosets.coset_wave_solve(delta(_COSETS.quotient_group),
                                          delta(_COSETS.quotient_group), _COSETS, n),
        NotSolvable),
    "tree_wave_solve g of mass 1 at a listed vertex": (
        lambda n: tree.tree_wave_solve(_DELTA_TREE, _DELTA_TREE, n, [(1,), ()]), NotSolvable),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_unsolvable_request_is_refused_before_any_kernel(name):
    call, error = _REFUSALS[name]
    with pytest.raises(error), within(1):
        call(10**6)


@pytest.mark.parametrize("name", sorted(n for n, (_, e) in _REFUSALS.items() if e is NotSolvable))
def test_a_bad_time_index_is_reported_before_solvability(name):
    call, _ = _REFUSALS[name]
    with pytest.raises(IndexOutOfRange):
        call(-1)
    with pytest.raises(ShapeMismatch):
        call(2.0)


@pytest.mark.parametrize("window", [[(), (1, 1)], [(), (4,)], [(), 5]])
def test_a_malformed_window_is_reported_before_a_bad_time_index(window):
    with pytest.raises(ShapeMismatch):
        tree.tree_heat_solve(_DELTA_TREE, -1, window)
    with pytest.raises(ShapeMismatch):
        tree.tree_wave_solve(_DELTA_TREE, _DELTA_TREE, -1, window)


@pytest.mark.parametrize("name", sorted(n for n, (_, e) in _REFUSALS.items() if e is GroupMismatch))
def test_a_foreign_domain_is_reported_before_a_bad_time_index(name):
    call, _ = _REFUSALS[name]
    with pytest.raises(GroupMismatch):
        call(-1)
