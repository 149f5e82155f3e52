"""Coset-graph solvers: quotient construction, lifting, oracle equivalence."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lattice_waves import cosets, oracles, randgen
from lattice_waves.errors import CosetInconstant, SInsideH
from lattice_waves.functions import SupportedFunction, add
from lattice_waves.groups import elem_add, elem_neg, identity, make_element, make_group, quotient
from lattice_waves.randgen import standard_generators

from helpers import rewritten

ZxZ4 = make_group(1, [4])


def fixture_zxz4():
    H = [make_element(ZxZ4, [0], [2])]
    S = [
        make_element(ZxZ4, [1], [0]),
        make_element(ZxZ4, [-1], [0]),
        make_element(ZxZ4, [0], [1]),
        make_element(ZxZ4, [0], [3]),
    ]
    return cosets.build_coset_problem(ZxZ4, H, S)


class TestBuild:
    def test_quotient_shape_and_degree(self):
        P = fixture_zxz4()
        assert P.H_order == 2
        assert P.quotient_group.rank == 1
        assert tuple(P.quotient_group.moduli) == (2,)
        # (0,1) and (0,3) project to the same nonidentity class, so the
        # distinct images are {(+-1, 0), (0, 1)}: degree 3.
        assert P.S_tilde.degree == 3

    def test_generator_inside_subgroup_rejected(self):
        H = [make_element(ZxZ4, [0], [2])]
        S = [
            make_element(ZxZ4, [1], [0]),
            make_element(ZxZ4, [-1], [0]),
            make_element(ZxZ4, [0], [2]),
        ]
        with pytest.raises(SInsideH):
            cosets.build_coset_problem(ZxZ4, H, S)

    def test_trivial_subgroup_degenerates_to_cayley(self):
        S = [make_element(ZxZ4, [1], [0]), make_element(ZxZ4, [-1], [0]),
             make_element(ZxZ4, [0], [1]), make_element(ZxZ4, [0], [3])]
        P = cosets.build_coset_problem(ZxZ4, [], S)
        assert P.H_order == 1
        assert P.quotient_group == ZxZ4
        assert P.S_tilde.degree == 4


class TestLift:
    def test_lift_is_constant_on_cosets(self):
        P = fixture_zxz4()
        f = SupportedFunction(
            P.quotient_group,
            {make_element(P.quotient_group, [0], [1]): Fraction(5, 3)},
        )
        lifted = cosets.lift(f, P)
        for x in lifted.support():
            for h in P.quot.subgroup:
                from lattice_waves.groups import elem_add

                assert lifted(elem_add(P.base_group, x, h)) == lifted(x)

    def test_restrict_inverts_lift(self):
        P = fixture_zxz4()
        rng = random.Random(3)
        f = randgen.random_function(rng, P.quotient_group, max_points=4)
        assert cosets.restrict(cosets.lift(f, P), P) == f

    def test_oracle_rejects_non_coset_constant_input(self):
        P = fixture_zxz4()
        bad = SupportedFunction(
            P.base_group, {make_element(P.base_group, [0], [0]): Fraction(1)}
        )
        # delta at the identity is not constant on the coset {(0,0),(0,2)}.
        with pytest.raises(CosetInconstant):
            oracles.lifted_coset_heat_step(bad, P)

    @pytest.mark.parametrize("off_coset", ["u_prev", "u_curr"])
    def test_wave_oracle_rejects_either_non_coset_constant_input(self, monkeypatch, off_coset):
        # The lifted steppers sum over S~ alone, which is exact only on
        # coset-constant states: each of the two wave inputs is checked
        # before any stepping.
        def no_step(*args):
            raise AssertionError("stepped an input not constant on cosets")

        monkeypatch.setattr(oracles, "_wave", no_step)
        P = fixture_zxz4()
        good = cosets.lift(randgen.random_function(random.Random(5), P.quotient_group), P)
        bad = SupportedFunction(
            P.base_group, {make_element(P.base_group, [0], [0]): Fraction(1)}
        )
        u_prev, u_curr = (bad, good) if off_coset == "u_prev" else (good, bad)
        with pytest.raises(CosetInconstant):
            oracles.lifted_coset_wave_step(u_prev, u_curr, P)


def fiber_check(u, P) -> bool:
    """The literal definition: each coset u touches takes one value, on all of its fiber."""
    values = {}
    for x, v in u.entries.items():
        q = P.quot.project(x)
        if q in values and values[q] != v:
            return False
        values[q] = v
    return all(v == 0 or all(u(y) == v for y in P.quot.fiber(q)) for q, v in values.items())


def fixture_zxz8xz2():
    G = make_group(1, [8, 2])
    S = [make_element(G, f, t) for f, t in
         [([1], [0, 0]), ([-1], [0, 0]), ([0], [1, 0]), ([0], [7, 0]), ([0], [0, 1])]]
    return cosets.build_coset_problem(G, [make_element(G, [0], [2, 0])], S)


def fixture_trivial_h():
    S = [make_element(ZxZ4, f, t) for f, t in [([1], [0]), ([-1], [0]), ([0], [1]), ([0], [3])]]
    return cosets.build_coset_problem(ZxZ4, [], S)


def fixture_two_generators():
    # H = <(0;1,0), (0;0,2)> has order 4; the quotient is Z x Z2.
    G = make_group(1, [2, 4])
    S = [make_element(G, f, t) for f, t in
         [([1], [0, 0]), ([-1], [0, 0]), ([0], [0, 1]), ([0], [0, 3])]]
    H = [make_element(G, [0], [1, 0]), make_element(G, [0], [0, 2])]
    return cosets.build_coset_problem(G, H, S)


def fixture_order_3():
    # H = <(0;2)> in Z x Z6 has order 3, so each coset spans three torsion blocks.
    G = make_group(1, [6])
    S = [make_element(G, f, t) for f, t in [([1], [0]), ([-1], [0]), ([0], [1]), ([0], [5])]]
    return cosets.build_coset_problem(G, [make_element(G, [0], [2])], S)


@pytest.mark.parametrize(
    "make_problem",
    [fixture_zxz4, fixture_zxz8xz2, fixture_trivial_h, fixture_two_generators, fixture_order_3]
)
def test_coset_check_matches_fiber_definition(make_problem):
    # Lifted functions, then one entry dropped or one value changed by 0, 1
    # or -1/3, and separately x and x + h dropped for the first generator h
    # of H (a check of h alone passes that one): the shift check in the
    # oracles must give the verdict of the literal fiber check on every one.
    P = make_problem()
    rng = random.Random(17)
    verdicts = set()

    def verdict(entries):
        u = SupportedFunction(P.base_group, entries)
        try:
            oracles._check_coset_constant(u, P)
            passed = True
        except CosetInconstant as error:
            passed = False
            # The detail names a point of u's support.
            assert any(str(error).endswith(f"coset of {x}") for x in u.numerators), str(error)
        assert passed == fiber_check(u, P)
        verdicts.add(passed)

    for _ in range(80):
        u = cosets.lift(randgen.random_function(rng, P.quotient_group, max_points=4), P)
        entries = dict(u.entries)
        x = rng.choice(sorted(entries))
        if P.subgroup_gens:
            pair = dict(entries)
            del pair[x], pair[elem_add(P.base_group, x, P.subgroup_gens[0])]
            verdict(pair)
        if rng.random() < 0.5:
            del entries[x]
        else:
            entries[x] += rng.choice([0, 1, Fraction(-1, 3)])
        verdict(entries)
    # With H trivial every function is constant on cosets.
    assert verdicts == ({True} if P.H_order == 1 else {True, False})


@st.composite
def coset_problems(draw):
    """Z x Z_m1 x Z_m2 by a torsion-only H, with a symmetric S that has no element in H."""
    m1, m2 = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    G = make_group(1, [m1, m2])
    torsion = st.lists(st.integers(0, 11), min_size=2, max_size=2)
    H = [make_element(G, [0], t) for t in draw(st.lists(torsion, min_size=1, max_size=2))]
    quot = quotient(G, H)
    drawn = draw(st.lists(st.tuples(st.integers(-2, 2), torsion), max_size=3))
    S = standard_generators(G) + [make_element(G, [a], t) for a, t in drawn]
    S = [s for x in S for s in (x, elem_neg(G, x)) if quot.project(s) != identity(quot.group)]
    return cosets.build_coset_problem(G, H, S)


def lifted_steps(P, seed):
    """The lifted heat step of a lifted random g and the wave step of (f, g), f and g lifted."""
    rng = random.Random(seed)
    f, g = (cosets.lift(randgen.random_function(rng, P.quotient_group, max_points=4), P)
            for _ in range(2))
    return oracles.lifted_coset_heat_step(g, P), oracles.lifted_coset_wave_step(f, g, P)


@settings(max_examples=60, deadline=None)
@given(P=coset_problems(), seed=st.integers(0, 2**16))
def test_lifted_steps_are_constant_on_cosets(P, seed):
    # The lifted steppers check the states they are given, not the steps
    # they return: a step of a coset-constant state is coset-constant.
    for u in lifted_steps(P, seed):
        oracles._check_coset_constant(u, P)


def test_a_laplacian_fault_that_breaks_constancy_fails_the_check(monkeypatch):
    # One shift dropped from the Laplacian's loop in one torsion block only:
    # dropped from every block, the step would stay constant on cosets.
    fault = rewritten(oracles, "for s in shifts:", "for s in shifts[t == next(iter(blocks)):]:")
    monkeypatch.setattr(oracles, "_group_laplacian", fault(oracles._group_laplacian))
    P = fixture_zxz8xz2()
    for u in lifted_steps(P, 3):
        with pytest.raises(CosetInconstant):
            oracles._check_coset_constant(u, P)


@pytest.mark.parametrize(
    "make_problem",
    [fixture_zxz4, fixture_zxz8xz2, fixture_trivial_h, fixture_two_generators, fixture_order_3]
)
def test_restrict_is_the_projection_of_each_entry(make_problem):
    # restrict projects each distinct torsion tuple once; the result must be
    # the one that projecting every element gives.
    P = make_problem()
    rng = random.Random(23)
    for _ in range(20):
        u = cosets.lift(randgen.random_function(rng, P.quotient_group, max_points=6), P)
        restricted = cosets.restrict(u, P)
        assert restricted.group == P.quotient_group
        assert restricted.entries == {P.quot.project(x): v for x, v in u.entries.items()}


class TestSolvers:
    def test_heat_equivalence(self):
        P = fixture_zxz4()
        rng = random.Random(11)
        f = randgen.random_function(rng, P.quotient_group, max_points=4)
        lifted = cosets.lift(f, P)
        for n in range(8):
            u = cosets.coset_heat_solve(f, P, n)
            assert cosets.lift(u, P) == lifted
            lifted = oracles.lifted_coset_heat_step(lifted, P)

    def test_wave_equivalence(self):
        P = fixture_zxz4()
        rng = random.Random(12)
        f = randgen.random_function(rng, P.quotient_group, max_points=4)
        g = randgen.random_zero_mean_function(rng, P.quotient_group, max_points=4)
        u_prev = cosets.lift(f, P)
        u_curr = add(u_prev, cosets.lift(g, P))
        for n in range(8):
            u = cosets.coset_wave_solve(f, g, P, n)
            want = u_prev if n == 0 else u_curr
            assert cosets.lift(u, P) == want
            if n >= 1:
                u_prev, u_curr = u_curr, oracles.lifted_coset_wave_step(u_prev, u_curr, P)

    def test_wave_solvability_gate(self):
        from lattice_waves.errors import NotSolvable

        P = fixture_zxz4()
        f = SupportedFunction(
            P.quotient_group, {identity(P.quotient_group): Fraction(1)}
        )
        g = SupportedFunction(
            P.quotient_group, {identity(P.quotient_group): Fraction(1)}
        )
        with pytest.raises(NotSolvable):
            cosets.coset_wave_solve(f, g, P, 2)
