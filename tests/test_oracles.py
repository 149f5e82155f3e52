"""Oracle steppers: defining recurrences, radial reductions, quadrature."""

import ast
import cmath
import inspect
import math
import random
from fractions import Fraction
from itertools import islice, zip_longest

import pytest

from lattice_waves import cayley, cosets, oracles, randgen, tree
from lattice_waves.errors import GroupMismatch, ShapeMismatch, TorsionUnsupported
from lattice_waves.functions import SupportedFunction, add, scale
from lattice_waves.groups import elem_add, make_element, make_group, validate_generators

Z = make_group(1, [])


def z_gens():
    return validate_generators(Z, [make_element(Z, [1], []), make_element(Z, [-1], [])])


def test_oracles_share_no_engine_code():
    # The exact-agreement tests mean something only while the oracles step
    # the recurrences themselves: they may use the element types and the
    # value form (``Scaled``, ``lowest_terms``, ``add``), whose results are
    # checked against ``Fraction`` references in test_value_form.py, never
    # the kernels, convolution, the tree weight tables and their recurrences,
    # the packed (Kronecker) kernels and products, the sparse product
    # they fall back on, or the rerooted tree sphere sums and their cache:
    # the tree oracles step neighbours.
    tree_ = ast.parse(inspect.getsource(oracles))
    modules = {n.module for n in ast.walk(tree_) if isinstance(n, ast.ImportFrom)}
    assert not modules & {"cayley", "cli", "verify"}
    names = {n.id for n in ast.walk(tree_) if isinstance(n, ast.Name)}
    names |= {a.name for n in ast.walk(tree_) if isinstance(n, ast.ImportFrom) for a in n.names}
    names |= {n.attr for n in ast.walk(tree_) if isinstance(n, ast.Attribute)}
    assert not names & {"convolve", "convolve_power", "convolve_polynomials",
                        "heat_kernel", "wave_kernels",
                        "tree_heat_weights", "tree_wave_weights", "WeightTable", "_tables",
                        "_inverse_abel", "_heat_sums", "_wave_sums",
                        "_integer_form", "integer_form",
                        "_Packing", "_packing", "_reach", "SPREAD",
                        "_lift", "_strides", "pack", "unpack", "fold", "room", "unit_shifts",
                        "_power", "_horner", "_copies", "COPIES",
                        "_box", "_origin", "_packed_product", "_sparse_product",
                        "rerooted", "_Hull", "_radius_sums", "sphere_sums", "path_reduce",
                        "spherical_mean", "radial_mass", "hull_position"}


class TestCayleySteppers:
    def test_heat_step_example(self):
        from lattice_waves.functions import delta
        from lattice_waves.groups import identity

        u = oracles.cayley_heat_step(delta(Z, identity(Z)), z_gens())
        assert [u(make_element(Z, [r], [])) for r in (-1, 0, 1)] == [1, -1, 1]

    def test_steppers_are_linear(self):
        rng = random.Random(9)
        S = z_gens()
        f = randgen.random_function(rng, Z)
        g = randgen.random_function(rng, Z)
        lhs = oracles.cayley_heat_step(add(f, scale(g, 3)), S)
        rhs = add(oracles.cayley_heat_step(f, S), scale(oracles.cayley_heat_step(g, S), 3))
        assert lhs == rhs

    def test_heat_step_preserves_mass(self):
        from lattice_waves.functions import trivial_character_sum

        rng = random.Random(10)
        G = make_group(1, [4])
        S = randgen.random_symmetric_generators(rng, G)
        f = randgen.random_function(rng, G)
        assert trivial_character_sum(oracles.cayley_heat_step(f, S)) == (
            trivial_character_sum(f)
        )


def _mismatched_domains():
    """Each call steps, solves or maps data on one group (or tree) with a graph of another."""
    ZZ, ZxZ4, ZxZ3 = make_group(2, []), make_group(1, [4]), make_group(1, [3])
    S1, S2 = z_gens(), randgen.random_symmetric_generators(random.Random(4), ZZ)
    on_z = SupportedFunction(Z, {make_element(Z, [1], []): 1})
    on_z2 = SupportedFunction(ZZ, {make_element(ZZ, [1, 0], []): 1})
    velocity = SupportedFunction(ZZ, {make_element(ZZ, [1, 0], []): 1,
                                      make_element(ZZ, [0, 1], []): -1})
    P = cosets.build_coset_problem(ZxZ4, [make_element(ZxZ4, [0], [2])], [
        make_element(ZxZ4, [1], [0]), make_element(ZxZ4, [-1], [0]),
        make_element(ZxZ4, [0], [1]), make_element(ZxZ4, [0], [3])])
    on_zxz3 = SupportedFunction(ZxZ3, {make_element(ZxZ3, [1], [2]): 1})
    F4 = tree.TreeFunction(4, {(4,): 1})
    return {
        "tree_step_wave k=3, k=5": lambda: oracles.tree_step_wave(
            tree.TreeFunction(3, {(1,): 1}), tree.TreeFunction(5, {(4,): 1})),
        "cayley_heat_step u on Z^2, S on Z": lambda: oracles.cayley_heat_step(on_z2, S1),
        "cayley_wave_step u on Z^2, S on Z": lambda: oracles.cayley_wave_step(on_z2, on_z2, S1),
        "cayley_wave_step u_prev on Z, u_curr on Z^2": lambda: oracles.cayley_wave_step(
            on_z, on_z2, S2),
        "lifted_coset_heat_step u on Z^2": lambda: oracles.lifted_coset_heat_step(on_z2, P),
        "lifted_coset_wave_step u on Z^2": lambda: oracles.lifted_coset_wave_step(
            on_z2, on_z2, P),
        "heat_solve f on Z, S on Z^2": lambda: cayley.heat_solve(on_z, S2, 2),
        "heat_solve f on Z^2, S on Z": lambda: cayley.heat_solve(on_z2, S1, 2),
        "wave_solve f, g on Z^2, S on Z": lambda: cayley.wave_solve(on_z2, velocity, S1, 2),
        "wave_solve f, g of mass 1 on Z^2, S on Z": lambda: cayley.wave_solve(on_z2, on_z2, S1, 2),
        "tree_wave_solve k=3, k=4": lambda: tree.tree_wave_solve(
            tree.TreeFunction(3, {}), tree.TreeFunction(4, {}), 1, [tree.ROOT]),
        "lift f on Z x Z3, quotient Z x Z2": lambda: cosets.lift(on_zxz3, P),
        "restrict u on Z x Z3, base Z x Z4": lambda: cosets.restrict(on_zxz3, P),
        "WeightTable.apply k=3 table, k=4 function": lambda: tree.tree_heat_weights(3, 2).apply(
            F4, tree.hull_position(F4, tree.ROOT)),
    }


@pytest.mark.parametrize("case", list(_mismatched_domains()))
def test_mismatched_domains_raise_group_mismatch(case):
    # One rule (functions.require_domain) raises each, naming both domains.
    with pytest.raises(GroupMismatch, match=r"\w+ on domain .+ used on .+"):
        _mismatched_domains()[case]()


class TestDarboux:
    def test_identity_for_spherical_means(self):
        # Spherical mean of the Laplacian equals the drifted path operator
        # applied to the spherical means (even convention at the center).
        rng = random.Random(20)
        for k in (3, 4, 5):
            for _ in range(10):
                phi = randgen.random_tree_function(rng, k)
                x = tree.ROOT if rng.random() < 0.5 else sorted(phi.support())[0]
                lap = _laplacian(phi)
                for r in range(0, 6):
                    lhs = tree.spherical_mean(lap, x, r)
                    M = lambda rr: tree.spherical_mean(phi, x, rr)
                    rhs = k * M(r) - (k - 1) * M(r + 1) - M(abs(r - 1))
                    assert lhs == rhs

    def test_tree_step_is_identity_minus_laplacian(self):
        rng = random.Random(21)
        phi = randgen.random_tree_function(rng, 3)
        stepped = oracles.tree_step_heat(phi)
        lap = _laplacian(phi)
        for x in set(stepped.support()) | set(phi.support()) | set(lap.support()):
            assert stepped(x) == phi(x) - lap(x)


def _laplacian(phi: tree.TreeFunction) -> tree.TreeFunction:
    """k phi(x) - sum of phi over neighbors, computed vertex by vertex."""
    k = phi.k
    out = {}
    todo = set(phi.support())
    for x in phi.support():
        todo.update(tree.neighbors(x, k))
    for x in todo:
        out[x] = k * phi(x) - sum(
            (phi(y) for y in tree.neighbors(x, k)), Fraction(0)
        )
    return tree.TreeFunction(k, out)


class TestPathSteppers:
    def test_radial_step_matches_tree_solution(self):
        rng = random.Random(22)
        for k in (2, 3, 4):
            f = randgen.random_tree_function(rng, k, max_radius=2, max_points=4)
            prof = tree.path_reduce(f, tree.ROOT) or [Fraction(0)]
            u = f
            for _ in range(5):
                assert prof[0] == u(tree.ROOT)
                prof = oracles.radial_step_heat(prof, k)
                u = oracles.tree_step_heat(u)

    def test_trajectory_steps_each_state_type(self):
        rng = random.Random(23)
        k = 3
        f = randgen.random_tree_function(rng, k, max_radius=2, max_points=4)
        g = randgen.random_tree_function(rng, k, max_radius=2, max_points=4)
        pf, pg = tree.path_reduce(f, tree.ROOT), tree.path_reduce(g, tree.ROOT)
        heat = list(islice(oracles.trajectory(oracles.tree_step_heat, f, None), 4))
        assert heat[0] == f and heat[3] == oracles.tree_step_heat(
            oracles.tree_step_heat(oracles.tree_step_heat(f))
        )
        u1 = tree.TreeFunction(k, {x: f(x) + g(x) for x in f.support() | g.support()})
        wave = list(islice(oracles.trajectory(oracles.tree_step_wave, f, g), 4))
        assert wave[:2] == [f, u1]
        assert wave[3] == oracles.tree_step_wave(u1, oracles.tree_step_wave(f, u1))
        p1 = [a + b for a, b in zip_longest(pf, pg, fillvalue=Fraction(0))]
        radial = list(islice(oracles.trajectory(oracles.radial_step_wave, pf, pg, k), 3))
        assert radial == [pf, p1, oracles.radial_step_wave(pf, p1, k)]

    def test_free_and_radial_differ_beyond_n1_for_k3(self):
        # The free full-line recurrence, stepped here by its literal rule,
        # does not preserve evenness, so its center value departs from the
        # tree solution at the second step.
        def line(r):
            return [r - 1] + [r + 1] * 2

        free, radial = {0: Fraction(1)}, [Fraction(1)]
        for _ in range(2):
            u = lambda r, free=free: free.get(r, Fraction(0))
            free, _ = _literal_rules(_around(free, line), line, u, u)
            radial = oracles.radial_step_heat(radial, 3)
        assert radial[0] == 7  # the true tree value
        assert free[0] == 8


def _literal_rules(points, neighbours, u0, u1, divisor=1):
    """u1 - Δu1 and 2 u1 - u0 - Δu0 at each point, in plain Fractions.

    Δu(x) = (1/divisor) sum over the listed neighbours y of u(x) - u(y).
    """
    def lap(u, x):
        return sum((u(x) - u(y) for y in neighbours(x)), Fraction(0)) / divisor

    heat = {x: u1(x) - lap(u1, x) for x in points}
    wave = {x: 2 * u1(x) - u0(x) - lap(u0, x) for x in points}
    return heat, wave


def _nonzero(values: dict) -> dict:
    return {x: v for x, v in values.items() if v}


def _around(support, neighbours) -> set:
    return set(support) | {y for x in support for y in neighbours(x)}


Z2 = make_group(0, [2])


# The group steppers work one torsion block at a time: one block with
# two-coordinate free tuples (Z^2), many blocks over two torsion
# coordinates (Z x Z2 x Z6), and rank 0, where every free tuple is empty.
@pytest.mark.parametrize("G, S", [
    (Z, None),
    (make_group(1, [4]), None),
    (Z2, validate_generators(Z2, [make_element(Z2, [], [1])])),  # k = 1
    (make_group(2, []), None),
    (make_group(1, [2, 6]), None),
    (make_group(0, [3, 4]), None),
], ids=["Z", "ZxZ4", "Z2 S={1}", "Z^2", "ZxZ2xZ6", "Z3xZ4"])
def test_cayley_steppers_follow_the_literal_recurrence(G, S):
    rng = random.Random(31)
    for _ in range(15):
        gens = S or randgen.random_symmetric_generators(rng, G)
        u0, u1 = randgen.random_function(rng, G), randgen.random_function(rng, G)
        def neighbours(x):
            return [elem_add(G, x, s) for s in gens.elements]
        points = _around(u0.support() | u1.support(), neighbours)
        heat, wave = _literal_rules(points, neighbours, u0, u1)
        assert oracles.cayley_heat_step(u1, gens).entries == _nonzero(heat)
        assert oracles.cayley_wave_step(u0, u1, gens).entries == _nonzero(wave)


@pytest.mark.parametrize("moduli, H, S", [
    ([4], [(0, 2)], [(1, 0), (-1, 0), (0, 1), (0, 3)]),
    ([8, 2], [(0, 2, 0)], [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 7, 0), (0, 0, 1)]),
    ([2, 4], [(0, 1, 0), (0, 0, 2)], [(1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, 3)]),
    # The representatives (1, 1) and (-1, 3) are each other's negatives only modulo H.
    ([6], [(0, 2)], [(1, 0), (-1, 0), (1, 1), (-1, 3), (0, 1), (0, 5)]),
], ids=["|H|=2", "|H|=4", "two generators", "|H|=3"])
def test_lifted_steppers_follow_the_literal_recurrence(moduli, H, S):
    G = make_group(1, moduli)
    P = cosets.build_coset_problem(
        G, [make_element(G, h[:1], h[1:]) for h in H], [make_element(G, s[:1], s[1:]) for s in S]
    )
    rng = random.Random(32)
    for _ in range(10):
        u0, u1 = (cosets.lift(randgen.random_function(rng, P.quotient_group, max_points=4), P)
                  for _ in range(2))
        def neighbours(x):
            return [elem_add(G, elem_add(G, x, h), s) for h in P.quot.subgroup for s in P.coset_reps]
        points = _around(u0.support() | u1.support(), neighbours)
        heat, wave = _literal_rules(points, neighbours, u0, u1, P.H_order)
        assert oracles.lifted_coset_heat_step(u1, P).entries == _nonzero(heat)
        assert oracles.lifted_coset_wave_step(u0, u1, P).entries == _nonzero(wave)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_tree_steppers_follow_the_literal_recurrence(k):
    rng = random.Random(33 + k)
    for _ in range(10):
        u0, u1 = randgen.random_tree_function(rng, k), randgen.random_tree_function(rng, k)
        def neighbours(x):
            return tree.neighbors(x, k)
        points = _around(u0.support() | u1.support(), neighbours)
        heat, wave = _literal_rules(points, neighbours, u0, u1)
        assert oracles.tree_step_heat(u1).entries == _nonzero(heat)
        assert oracles.tree_step_wave(u0, u1).entries == _nonzero(wave)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_radial_and_path_steppers_follow_the_literal_recurrence(k):
    # Seen from a sphere of radius r, a vertex has k - 1 neighbours outward
    # and one inward; the centre has all k on the sphere of radius 1.
    def radial(r):
        return [1] * k if r == 0 else [r - 1] + [r + 1] * (k - 1)

    def at(p):
        return lambda r: p[r] if r < len(p) else Fraction(0)

    rng = random.Random(37 + k)
    for _ in range(10):
        p0, p1 = ([randgen.random_rational(rng) for _ in range(rng.randint(1, 5))]
                  for _ in range(2))
        top = max(len(p0), len(p1)) + 1
        heat, wave = _literal_rules(range(top), radial, at(p0), at(p1))
        assert oracles.radial_step_heat(p1, k) == [heat[r] for r in range(len(p1) + 1)]
        assert oracles.radial_step_wave(p0, p1, k) == [wave[r] for r in range(top)]


class TestQuadrature:
    def test_n0(self):
        assert abs(oracles.quadrature_kernel(z_gens(), 0, 0) - 1.0) < 1e-12

    def test_matches_exact_kernel(self):
        S = z_gens()
        for n in range(7):
            K = cayley.heat_kernel(S, n).data
            for r in range(-n, n + 1):
                exact = float(K(make_element(Z, [r], [])))
                assert abs(oracles.quadrature_kernel(S, n, r) - exact) <= 1e-9

    def test_wider_generators_use_more_nodes(self):
        S = validate_generators(
            Z,
            [
                make_element(Z, [1], []),
                make_element(Z, [-1], []),
                make_element(Z, [2], []),
                make_element(Z, [-2], []),
            ],
        )
        for n in range(5):
            K = cayley.heat_kernel(S, n).data
            for r in range(-n, n + 1):
                exact = float(K(make_element(Z, [r], [])))
                assert abs(oracles.quadrature_kernel(S, n, r) - exact) <= 1e-9

    @pytest.mark.parametrize("r", [True, 1.0, "x", None, [1]], ids=repr)
    def test_position_follows_the_integer_rule(self, r):
        # A position r is any integer, read by groups.integer: a decimal
        # string is its integer, anything else ShapeMismatch.
        S = z_gens()
        assert oracles.quadrature_kernel(S, 3, "-1") == oracles.quadrature_kernel(S, 3, -1)
        assert oracles.quadrature_kernels(S, 3, ["-1"]) == oracles.quadrature_kernels(S, 3, [-1])
        with pytest.raises(ShapeMismatch, match="position r must be an integer"):
            oracles.quadrature_kernel(S, 3, r)
        with pytest.raises(ShapeMismatch, match="position r must be an integer"):
            oracles.quadrature_kernels(S, 3, [0, r])

    def test_torsion_is_refused(self):
        # verify.quadrature_errors refuses first; the library call refuses too.
        ZxZ4 = make_group(1, [4])
        S = validate_generators(ZxZ4, randgen.standard_generators(ZxZ4))
        with pytest.raises(TorsionUnsupported, match="restricted to Z"):
            oracles.quadrature_kernels(S, 2, [0])

    @pytest.mark.parametrize("spans", [(1,), (1, 2), (1, 3, 4)], ids=str)
    def test_one_pass_over_the_nodes_repeats_every_float(self, spans):
        # The per-r trapezoid sum, as one r at a time would take it.
        def one_r(S, n, r):
            N = 2 * n * max(spans) + 2
            total = 0.0 + 0.0j
            for m in range(N):
                t = 2 * math.pi * m / N
                a = S.degree - sum(cmath.exp(-1j * t * s.free[0]) for s in S.elements)
                total += (1 - a) ** n * cmath.exp(-1j * r * t)
            return (total / N).real

        S = validate_generators(Z, [make_element(Z, [c * s], []) for s in spans for c in (1, -1)])
        for n in range(9):
            rs = range(-n * max(spans), n * max(spans) + 1)
            values = oracles.quadrature_kernels(S, n, rs)
            assert list(values) == list(rs)
            for r in rs:
                assert values[r] == oracles.quadrature_kernel(S, n, r) == one_r(S, n, r)
