"""Oracle steppers: defining recurrences, radial reductions, quadrature."""

import ast
import inspect
import random
from fractions import Fraction
from itertools import islice, zip_longest

from lattice_waves import cayley, oracles, randgen, tree
from lattice_waves.functions import add, scale
from lattice_waves.groups import make_element, make_group, validate_generators

Z = make_group(1, [])


def z_gens():
    return validate_generators(Z, [make_element(Z, [1], []), make_element(Z, [-1], [])])


def test_oracles_share_no_engine_code():
    # The exact-agreement tests mean something only while the oracles step
    # the recurrences themselves: they may use the element, scalar and
    # function types, never the kernels, convolution, weight tables, the
    # engine's integer form of the data or its packed (Kronecker) kernels.
    tree_ = ast.parse(inspect.getsource(oracles))
    modules = {n.module for n in ast.walk(tree_) if isinstance(n, ast.ImportFrom)}
    assert not modules & {"cayley", "cli", "verify"}
    names = {n.id for n in ast.walk(tree_) if isinstance(n, ast.Name)}
    names |= {a.name for n in ast.walk(tree_) if isinstance(n, ast.ImportFrom) for a in n.names}
    names |= {n.attr for n in ast.walk(tree_) if isinstance(n, ast.Attribute)}
    assert not names & {"convolve", "convolve_power", "heat_kernel", "wave_kernels",
                        "tree_heat_weights", "tree_wave_weights", "WeightTable",
                        "_integer_form", "integer_form",
                        "_Packing", "_packing", "_reach", "_sparse_power", "SPREAD",
                        "_lift", "_strides", "pack", "unpack", "unit_shift"}


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
    def test_free_step_is_asymmetric_for_k3(self):
        u = oracles.even_profile([Fraction(1)])
        v = oracles.path_step_heat(u, 3)
        assert v(0) == -2
        assert {v(-1), v(1)} == {Fraction(1), Fraction(2)}

    def test_free_step_symmetric_for_k2(self):
        u = oracles.even_profile([Fraction(1), Fraction(2)])
        v = oracles.path_step_heat(u, 2)
        assert v(1) == v(-1)

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
        # The free full-line recurrence does not preserve evenness, so its
        # center value departs from the tree solution at the second step.
        free = oracles.even_profile([Fraction(1)])
        radial = [Fraction(1)]
        for _ in range(2):
            free = oracles.path_step_heat(free, 3)
            radial = oracles.radial_step_heat(radial, 3)
        assert radial[0] == 7  # the true tree value
        assert free(0) == 8


class TestQuadrature:
    def test_n0(self):
        assert abs(oracles.quadrature_kernel(z_gens(), 0, 0) - 1.0) < 1e-12

    def test_matches_exact_kernel(self):
        S = z_gens()
        for n in range(7):
            K = cayley.heat_kernel(Z, S, n).data
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
            K = cayley.heat_kernel(Z, S, n).data
            for r in range(-n, n + 1):
                exact = float(K(make_element(Z, [r], [])))
                assert abs(oracles.quadrature_kernel(S, n, r) - exact) <= 1e-9
