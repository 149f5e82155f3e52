"""k-regular tree: geometry, spherical means, weight tables, solvers."""

import ast
import inspect
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lattice_waves import cayley, oracles, randgen, serialize, tree
from lattice_waves.errors import IndexOutOfRange, NotSolvable, ShapeMismatch

from helpers import (
    alpha_two_sums, convolved_weights, line_propagators, stepped_line_propagators, stepped_weights,
)


class TestGeometry:
    def test_make_vertex_validation(self):
        assert tree.make_vertex([1, 2, 1], 3) == (1, 2, 1)
        with pytest.raises(ShapeMismatch):
            tree.make_vertex([1, 1], 3)
        with pytest.raises(ShapeMismatch):
            tree.make_vertex([4], 3)

    def test_function_rejects_unreduced_words(self):
        with pytest.raises(ShapeMismatch):
            tree.TreeFunction(3, {(1, 1): Fraction(1)})
        with pytest.raises(ShapeMismatch):
            tree.TreeFunction(3, {(4,): Fraction(1)})
        f = tree.TreeFunction(3, {(1, 2): 2, (): Fraction(0)})
        assert f.entries == {(1, 2): Fraction(2)}

    def test_duplicate_keys_are_summed(self):
        # Two keys that normalise to one word add up, as in SupportedFunction,
        # and a zero sum is dropped.
        assert tree.TreeFunction(3, {(1, 2): 1, ("1", "2"): 2}).entries == {(1, 2): Fraction(3)}
        assert tree.TreeFunction(3, {(1,): Fraction(1, 2), ("1",): Fraction(-1, 2)}).entries == {}

    def test_trusted_function_keeps_entries(self):
        numerators = {(1, 2): 1}
        f = tree.TreeFunction.trusted(3, numerators, 3)
        assert f.numerators is numerators and f.denominator == 3
        assert f == tree.TreeFunction(3, {(1, 2): Fraction(1, 3)})
        assert f.entries == {(1, 2): Fraction(1, 3)}

    def test_distance_common_prefix(self):
        assert tree.tree_distance((1, 2, 3), (1, 2, 1)) == 2
        assert tree.tree_distance((), (1, 2)) == 2
        assert tree.tree_distance((1,), (1,)) == 0

    def test_neighbors_degree_k(self):
        for k in (2, 3, 5):
            assert len(tree.neighbors(tree.ROOT, k)) == k
            assert len(tree.neighbors((1, 2), k)) == k
            assert (1,) in tree.neighbors((1, 2), k)

    def test_sphere_sizes(self):
        assert tree.sphere_size(3, 0) == 1
        assert [tree.sphere_size(3, r) for r in (1, 2, 3)] == [3, 6, 12]
        with pytest.raises(IndexOutOfRange):
            tree.sphere_size(3, -1)

    def test_sphere_size_checks_the_degree(self):
        with pytest.raises(ShapeMismatch, match="at least 2, got -2"):
            tree.sphere_size(-2, 2)
        with pytest.raises(ShapeMismatch, match="at least 2, got 1"):
            tree.spherical_mean(tree.TreeFunction(1, {(1,): 1}), (), 3)
        with pytest.raises(ShapeMismatch, match="at least 2, got 1"):
            tree.alpha_coeff(2, 0, 1)

    @pytest.mark.parametrize("k", [1, 0, 3.0, True], ids=repr)
    def test_function_degree_is_checked(self, k):
        # The degree is an invariant of a tree function, read by groups.integer.
        with pytest.raises(ShapeMismatch):
            tree.TreeFunction(k, {})
        with pytest.raises(ShapeMismatch):
            serialize.tree_function_from_rows(k, [])
        with pytest.raises(ShapeMismatch):
            tree.alpha_coeff(2, 0, k)
        with pytest.raises(ShapeMismatch):
            oracles.radial_step_heat([Fraction(1)], k)
        with pytest.raises(ShapeMismatch):
            oracles.radial_step_wave([Fraction(1)], [Fraction(1)], k)

    def test_function_degree_reads_a_decimal_string(self):
        f = tree.TreeFunction("3", {(1, 3): 1})
        assert type(f.k) is int and f == tree.TreeFunction(3, {(1, 3): 1})
        assert serialize.tree_function_from_rows("3", []).k == 3

    @pytest.mark.parametrize("x", [(1, 1), (5, 5), (0,)], ids=repr)
    def test_vertex_readers_check_the_vertex(self, x):
        f = tree.TreeFunction(3, {(1, 2): 1})
        for read in (tree.sphere_sums, tree.path_reduce, lambda f, x: tree.spherical_mean(f, x, 1),
                     tree.hull_position):
            with pytest.raises(ShapeMismatch):
                read(f, x)

    def test_sphere_size_counts_vertices(self):
        k, r = 3, 3
        count = sum(
            1
            for x in _ball_vertices(k, r)
            if tree.tree_distance(tree.ROOT, x) == r
        )
        assert count == tree.sphere_size(k, r)


def _ball_vertices(k, radius):
    out = [tree.ROOT]
    frontier = [tree.ROOT]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for y in tree.neighbors(x, k):
                if len(y) > len(x):
                    nxt.append(y)
        out += nxt
        frontier = nxt
    return out


class TestSphericalMeans:
    def test_even_in_r(self):
        f = tree.TreeFunction(3, {(1, 2): Fraction(2), (): Fraction(1)})
        assert tree.spherical_mean(f, (1,), -1) == tree.spherical_mean(f, (1,), 1)

    def test_a_sphere_the_data_does_not_reach_is_not_sized(self):
        # S(4, 10^12) has about 1.6e12 bits; a sum of 0 is a mean of 0 without it.
        f = tree.TreeFunction(4, {(1,): 1})
        start = time.perf_counter()
        assert tree.spherical_mean(f, (), 10**12) == 0
        assert time.perf_counter() - start < 1
        for r in (0, 1, 2, 10**12):
            assert tree.spherical_mean(f, (), -r) == tree.spherical_mean(f, (), r)

    def test_path_reduce_profile(self):
        f = tree.TreeFunction(3, {(): Fraction(1), (1,): Fraction(3)})
        prof = tree.path_reduce(f, tree.ROOT)
        assert prof == [Fraction(1), Fraction(1)]  # 3 spread over a 3-sphere

    def test_radial_mass(self):
        g = tree.TreeFunction(3, {(): Fraction(1), (1,): Fraction(-3, 2)})
        # M(0) + 2*M(1) = 1 + 2*(-1/2) = 0
        assert tree.radial_mass(g, tree.hull_position(g, tree.ROOT)) == 0


class TestAlpha:
    def test_small_values(self):
        # j-th power of the radialized symbol; j=1 is the symbol itself.
        assert tree.alpha_coeff(1, 0, 3) == 3
        assert tree.alpha_coeff(1, 1, 3) == -1
        assert tree.alpha_coeff(1, -1, 3) == -2
        assert tree.alpha_coeff(2, 0, 3) == 13

    def test_symmetry(self):
        for k in (2, 3, 4):
            for j in range(6):
                for s in range(j + 1):
                    assert tree.alpha_coeff(j, -s, k) == (k - 1) ** s * tree.alpha_coeff(
                        j, s, k
                    )

    def test_one_sum_equals_the_two_sums(self):
        rng = random.Random(36)
        for k in range(2, 7):
            for _ in range(20):
                j = rng.randint(0, 200)
                for s in (j, -j, rng.randint(-j, j)):
                    assert tree.alpha_coeff(j, s, k) == alpha_two_sums(j, s, k), (j, s, k)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            tree.alpha_coeff(2, 3, 3)
        with pytest.raises(IndexOutOfRange, match="power j must be non-negative, got -1"):
            tree.alpha_coeff(-1, 0, 3)


class TestWeights:
    def test_heat_n0_n1(self):
        assert tree.tree_heat_weights(3, 0).weights == [Fraction(1)]
        assert tree.tree_heat_weights(3, 1).weights == [Fraction(-2), Fraction(1)]

    def test_heat_n2_k3_matches_direct_stepping(self):
        # Two steps from a delta: 7 at the center, -4 on the 1-sphere
        # (sum -12 over 3 vertices), 1 on the 2-sphere.
        w = tree.tree_heat_weights(3, 2).weights
        assert w == [Fraction(7), Fraction(-4), Fraction(1)]

    def test_heat_weights_reproduce_kernel_values(self):
        for k in (2, 3, 4):
            for n in range(5):
                table = tree.tree_heat_weights(k, n)
                u = tree.TreeFunction(k, {tree.ROOT: Fraction(1)})
                for _ in range(n):
                    u = oracles.tree_step_heat(u)
                for s in range(n + 1):
                    x = tuple((1, 2) * s)[:s] if s else tree.ROOT
                    assert table.weights[s] == u(x)

    def test_wave_tables_shapes(self):
        wf, wg = tree.tree_wave_weights(3, 0)
        assert wf.weights == [Fraction(1)] and wg.weights == []
        wf, wg = tree.tree_wave_weights(3, 7)
        assert len(wf.weights) == 7 // 2 + 1
        assert len(wg.weights) == 6 // 2 + 1

    def test_wave_n2_examples(self):
        wf, wg = tree.tree_wave_weights(4, 2)
        assert wf.weights == [Fraction(-3), Fraction(1)]
        assert wg.weights == [Fraction(2)]

    @pytest.mark.parametrize("k", range(2, 7))
    def test_wave_entries_match_radial_stepping(self, k):
        # Entry s of a table is the center value, after n radial wave steps,
        # of the indicator profile of radius s, divided by S(s).  Beyond the
        # table the radial oracle reads 0.
        horizon = 25
        tables = [tree.tree_wave_weights(k, n) for n in range(horizon + 1)]
        for s in range(horizon + 2):
            indicator, zeros = [0] * s + [1], [0] * (s + 1)
            for which, (f, g) in enumerate(((indicator, zeros), (zeros, indicator))):
                states = oracles.trajectory(oracles.radial_step_wave, f, g, k)
                for n, state in zip(range(horizon + 1), states):
                    weights = tables[n][which].weights
                    if s < len(weights):
                        assert weights[s] == Fraction(state[0], tree.sphere_size(k, s))
                    else:
                        assert state[0] == 0

    @pytest.mark.parametrize("k", range(2, 9))
    def test_tables_equal_the_stepped_reference(self, k):
        # The tree-solve workloads run n up to 153; the radial oracle tests stop at 25.
        for n in [*range(25), 36, 60, 100, 153]:
            [heat] = stepped_weights(k, 1 - k, [[0] * n + [1]])
            assert tree.tree_heat_weights(k, n).weights == heat
            wave = stepped_weights(k, -k, cayley.wave_rows(n))
            assert [table.weights for table in tree.tree_wave_weights(k, n)] == wave

    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("n", [254, 255, 1000, 1001])
    def test_large_tables_equal_the_convolved_reference(self, k, n):
        # Past the stepped reference's reach: the route through the Cayley
        # evaluator, an odd n one exact step on from the cached n - 1.  Each
        # propagator summed over the tree is its polynomial at A = 0: 1 for
        # heat and F, n for G.
        tables = [tree.tree_heat_weights(k, n), *tree.tree_wave_weights(k, n)]
        polynomials = line_propagators(k, n) if n % 2 == 0 else stepped_line_propagators(k, n)
        want = convolved_weights(k, polynomials, [n + 1, n // 2 + 1, (n + 1) // 2])
        assert [table.weights for table in tables] == want
        masses = [sum(w * tree.sphere_size(k, s) for s, w in enumerate(table.weights))
                  for table in tables]
        assert masses == [1, 1, n]

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_degree_below_2_rejected(self, k):
        with pytest.raises(ShapeMismatch):
            tree.tree_heat_weights(k, 2)
        with pytest.raises(ShapeMismatch):
            tree.tree_wave_weights(k, 2)
        with pytest.raises(ShapeMismatch):
            tree.tree_heat_solve(tree.TreeFunction(k, {(): 1}), 2, [()])
        with pytest.raises(ShapeMismatch):
            oracles.radial_step_heat([Fraction(1)], k)
        with pytest.raises(ShapeMismatch):
            oracles.radial_step_wave([Fraction(1)], [Fraction(1)], k)

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_degree_is_checked_before_the_window(self, k):
        # Every word is read against 1..k, so a tree function's degree is
        # checked before its words, and a solver, which only holds tree
        # functions, places its window against f.k without checking it again.
        want = f"tree degree k must be at least 2, got {k}"
        with pytest.raises(ShapeMismatch, match=want):
            tree.TreeFunction(k, {(1, 2): 1})
        with pytest.raises(ShapeMismatch, match=want):
            serialize.tree_function_from_rows(k, [{"elem": [1, 2], "num": "1", "den": "1"}])
        for solver in (tree.tree_heat_solve, tree.tree_wave_solve):
            names = {node.id for node in ast.walk(ast.parse(inspect.getsource(solver)))
                     if isinstance(node, ast.Name)}
            assert "_degree" not in names, solver.__name__

    def test_window_is_checked_before_any_weights(self, monkeypatch):
        # A malformed window fails before any large-n work.
        def no_weights(k, n):
            raise AssertionError("weights built before the window was checked")

        monkeypatch.setattr(tree, "tree_heat_weights", no_weights)
        monkeypatch.setattr(tree, "tree_wave_weights", no_weights)
        f = tree.TreeFunction(3, {(1,): 1})
        for window in ([(), ("x",)], [(), (1, 1)], [(), (4,)], [(), 5]):
            with pytest.raises(ShapeMismatch):
                tree.tree_heat_solve(f, 10**9, window)
            with pytest.raises(ShapeMismatch):
                tree.tree_wave_solve(f, f, 10**9, window)

    def test_normalizations(self):
        for k in (2, 3, 5):
            for n in range(9):
                heat = tree.tree_heat_weights(k, n)
                wf, wg = tree.tree_wave_weights(k, n)
                for table, target in ((heat, 1), (wf, 1), (wg, n)):
                    total = sum(
                        (w * tree.sphere_size(k, s) for s, w in enumerate(table.weights)),
                        Fraction(0),
                    )
                    assert total == target


class TestSolvers:
    def test_heat_one_step_example(self):
        f = tree.TreeFunction(3, {tree.ROOT: Fraction(1)})
        u = tree.tree_heat_solve(f, 1, [tree.ROOT, (1,)])
        assert u(tree.ROOT) == -2
        assert u((1,)) == 1

    def test_heat_matches_stepping_at_noncentral_vertices(self):
        rng = random.Random(2)
        for k in (2, 3):
            f = randgen.random_tree_function(rng, k)
            eval_at = [tree.ROOT] + sorted(f.support())[:2]
            u = f
            for n in range(7):
                closed = tree.tree_heat_solve(f, n, eval_at)
                for x in eval_at:
                    assert closed(x) == u(x)
                u = oracles.tree_step_heat(u)

    def test_wave_solvability_is_per_vertex(self):
        k = 3
        g = tree.TreeFunction(k, {tree.ROOT: Fraction(1), (1,): Fraction(-3, 2)})
        f = tree.TreeFunction(k, {})
        # Radialized mass vanishes around the root but not around (2,).
        assert tree.radial_mass(g, tree.hull_position(g, tree.ROOT)) == 0
        assert tree.radial_mass(g, tree.hull_position(g, (2,))) != 0
        u = tree.tree_wave_solve(f, g, 3, [tree.ROOT])
        assert u(tree.ROOT) is not None
        with pytest.raises(NotSolvable):
            tree.tree_wave_solve(f, g, 3, [(2,)])

    def test_wave_matches_stepping(self):
        k = 3
        rng = random.Random(4)
        f = randgen.random_tree_function(rng, k, max_radius=2, max_points=3)
        g0 = randgen.random_tree_function(rng, k, max_radius=2, max_points=3)
        x = tree.ROOT
        g = tree.TreeFunction(
            k, {**g0.entries, x: g0(x) - tree.radial_mass(g0, tree.hull_position(g0, x))}
        )
        u_prev = f
        u_curr = tree.TreeFunction(k, {y: f(y) + g(y) for y in f.support() | g.support()})
        for n in range(7):
            want = u_prev if n == 0 else u_curr
            assert tree.tree_wave_solve(f, g, n, [x])(x) == want(x)
            if n >= 1:
                u_prev, u_curr = u_curr, oracles.tree_step_wave(u_prev, u_curr)


class TestK2Degeneration:
    def test_heat_weights_match_z_kernel(self):
        from lattice_waves.groups import make_element, make_group, validate_generators

        Z = make_group(1, [])
        S = validate_generators(
            Z, [make_element(Z, [1], []), make_element(Z, [-1], [])]
        )
        for n in range(8):
            K = cayley.heat_kernel(S, n).data
            w = tree.tree_heat_weights(2, n).weights
            assert w[0] == K(make_element(Z, [0], []))
            for s in range(1, n + 1):
                assert w[s] == K(make_element(Z, [s], []))


def _literal_sphere_sums(f, x):
    sums = {}
    for y, v in f.entries.items():
        s = tree.tree_distance(x, y)
        sums[s] = sums.get(s, Fraction(0)) + v
    return sums


def _literal_apply(weights, f, x):
    """sum_s weights[s] * (sphere sum at radius s), in Fraction arithmetic throughout."""
    sums = _literal_sphere_sums(f, x)
    return sum((w * sums.get(s, Fraction(0)) for s, w in enumerate(weights)), Fraction(0))


def _literal_radial_mass(g, x):
    sums = _literal_sphere_sums(g, x)
    return sum(
        (v if s == 0 else 2 * v / tree.sphere_size(g.k, s) for s, v in sums.items()),
        Fraction(0),
    )


def _antisymmetric(f):
    """f minus its image under the automorphism that swaps letters 1 and 2.

    That automorphism fixes the root and keeps distances to it, so every
    sphere sum around the root vanishes, and with it every solution value.
    """
    out = dict(f.entries)
    for y, v in f.entries.items():
        z = tuple({1: 2, 2: 1}.get(a, a) for a in y)
        out[z] = out.get(z, Fraction(0)) - v
    return tree.TreeFunction(f.k, out)


class TestIntegerSphereSums:
    """The integer sums equal the literal Fraction formula sum_s weights[s] * sphere sum."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_apply_radial_mass_and_solvers_are_exact(self, k):
        rng = random.Random(500 + k)
        beyond_top = zeros = 0
        for trial in range(6):
            n = 40 if trial == 0 else rng.randint(0, 40)
            f = randgen.random_tree_function(rng, k, max_radius=9, max_points=10)
            if trial % 3 == 1:
                f = _antisymmetric(f)
            g0 = randgen.random_tree_function(rng, k, max_radius=9, max_points=10)
            far = randgen.random_tree_function(rng, k, max_radius=14, max_points=1)
            eval_at = [tree.ROOT, *sorted(f.support())[:3], *far.support()]
            heat = tree.tree_heat_weights(k, n)
            wf, wg = tree.tree_wave_weights(k, n)

            for x in eval_at:
                for table in (heat, wf, wg):
                    value = Fraction(table.apply(f, tree.hull_position(f, x)), f.denominator)
                    assert value == _literal_apply(table.weights, f, x)
                    top = len(table.weights) - 1
                    beyond_top += sum(tree.tree_distance(x, y) > top for y in f.support())
                mass = tree.radial_mass(g0, tree.hull_position(g0, x))
                assert mass == _literal_radial_mass(g0, x)

            want = {x: _literal_apply(heat.weights, f, x) for x in eval_at}
            u = tree.tree_heat_solve(f, n, eval_at)
            assert u.entries == {x: v for x, v in want.items() if v != 0}
            assert all(type(v) is Fraction for v in u.entries.values())
            zeros += sum(v == 0 for v in want.values())

            for x in eval_at:
                g = tree.TreeFunction(k, {**g0.entries, x: g0(x) - _literal_radial_mass(g0, x)})
                v = _literal_apply(wf.weights, f, x) + _literal_apply(wg.weights, g, x)
                u = tree.tree_wave_solve(f, g, n, [x])
                assert u.entries == ({x: v} if v != 0 else {})
                zeros += v == 0
        assert beyond_top and zeros

    def test_sphere_sums_path_reduce_and_spherical_mean_are_exact(self):
        rng = random.Random(77)
        for k in range(2, 7):
            f = randgen.random_tree_function(rng, k, max_radius=6, max_points=12)
            for x in [tree.ROOT, *sorted(f.support())[:3]]:
                sums = _literal_sphere_sums(f, x)
                assert tree.sphere_sums(f, x) == sums
                profile = [sums.get(r, Fraction(0)) / tree.sphere_size(k, r)
                           for r in range(max(sums) + 1)]
                assert tree.path_reduce(f, x) == profile
                for r in range(len(profile) + 2):
                    want = profile[r] if r < len(profile) else 0
                    assert tree.spherical_mean(f, x, r) == want
                    assert tree.spherical_mean(f, x, -r) == want


def _reduced(letters):
    """The word with adjacent repeats dropped: a reduced word over the same letters."""
    out = []
    for a in letters:
        if not out or out[-1] != a:
            out.append(a)
    return tuple(out)


def _hull_words(f):
    """Each hull vertex built in ``f.rerooted`` mapped to its word, walked along ``children``."""
    out = {}
    todo = [(tree.ROOT, f.rerooted)]
    while todo:
        a, node = todo.pop()
        out[node] = a
        todo += [(a + (c,), child) for c, child in node.children.items()]
    return out


def _hull_prefixes(f):
    """The vertex of every entry of ``f.rerooted``, one per entry, walked without recursion."""
    return list(_hull_words(f).values())


def _support_prefixes(f):
    """The prefixes of f's support words, and the root, which is on every hull."""
    return {tree.ROOT} | {y[:i] for y in f.support() for i in range(len(y) + 1)}


class TestRerootedSums:
    """The rerooted sums equal the per-point bucketing ``_literal_sphere_sums``."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), k=st.integers(2, 6))
    def test_every_reader_equals_the_literal_sums(self, data, k):
        words = lambda lo, hi: st.lists(st.integers(1, k), min_size=lo, max_size=hi).map(_reduced)
        values = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
        f = tree.TreeFunction(k, data.draw(st.dictionaries(words(0, 7), values, max_size=10)))
        if data.draw(st.booleans()):
            f = _antisymmetric(f)
        # A window around a centre that need not be the root, vertices far
        # below it and below the support, and vertices far off the hull.
        center = data.draw(words(0, 6))
        window, frontier = [center], [(center, None)]
        for _ in range(data.draw(st.integers(0, 2))):
            frontier = [(y, x) for x, p in frontier for y in tree.neighbors(x, k) if y != p]
            window += [y for y, _ in frontier]
        below = [_reduced(y + data.draw(words(20, 60))) for y in [center, *f.support()]]
        far = data.draw(st.lists(words(20, 80), max_size=3))
        order = data.draw(st.permutations(window + below + far))
        n = data.draw(st.integers(0, 12))
        tables = [tree.tree_heat_weights(k, n), *tree.tree_wave_weights(k, n)]
        # Two rounds over one function: the second reads what the first cached.
        for _ in range(2):
            for x in order:
                sums = _literal_sphere_sums(f, x)
                assert tree.sphere_sums(f, x) == sums
                profile = [sums.get(r, Fraction(0)) / tree.sphere_size(k, r)
                           for r in range(max(sums, default=-1) + 1)]
                assert tree.path_reduce(f, x) == profile
                for r in range(-1, len(profile) + 2):
                    want = profile[abs(r)] if abs(r) < len(profile) else 0
                    assert tree.spherical_mean(f, x, r) == want
                at = tree.hull_position(f, x)
                for table in tables:
                    value = Fraction(table.apply(f, at), f.denominator)
                    assert value == _literal_apply(table.weights, f, x)
                assert tree.radial_mass(f, at) == _literal_radial_mass(f, x)
        prefixes = _hull_prefixes(f)
        assert len(prefixes) == len(set(prefixes))
        assert set(prefixes) <= _support_prefixes(f)

    def test_a_sphere_whose_numerators_cancel_is_listed_but_not_stored(self):
        # delta_(1) - delta_(2): the sphere of radius 1 around the root sums to 0.
        sums = lambda h, x: dict(tree._radius_sums(tree.hull_position(h, x)))
        f = tree.TreeFunction(3, {(1,): 1, (2,): -1})
        assert tree.sphere_sums(f, tree.ROOT) == {1: 0}
        assert tree.path_reduce(f, tree.ROOT) == [0, 0]
        assert sums(f, tree.ROOT) == {}
        assert tree.radial_mass(f, tree.hull_position(f, tree.ROOT)) == 0
        assert tree.sphere_sums(f, (1, 3)) == {1: 1, 3: -1}
        assert sums(f, (1, 3)) == {1: 1, 3: -1}
        # Below the root, off the hull, every sphere around x cancels too.
        assert tree.sphere_sums(f, (3, 1)) == {3: 0}
        assert tree.path_reduce(f, (3, 1)) == [0, 0, 0, 0]
        assert sums(f, (3, 1)) == {}
        # The zero function's hull is the root alone, with no sums.
        zero = tree.TreeFunction(3)
        assert (zero.rerooted.sums, zero.rerooted.children) == ({}, {})
        assert tree.sphere_sums(zero, (3, 1)) == {} and tree.path_reduce(zero, (3, 1)) == []
        assert tree.hull_position(zero, (3, 1)) == (zero.rerooted, 2)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_memo_holds_only_prefixes_after_a_wide_window(self, k):
        rng = random.Random(900 + k)
        f = randgen.random_tree_function(rng, k, max_radius=8, max_points=12)
        g0 = randgen.random_tree_function(rng, k, max_radius=8, max_points=12)
        g = _antisymmetric(g0)  # zero radial mass wherever swapping letters 1 and 2 fixes x
        window = _ball_vertices(k, 14 if k == 2 else 5)
        heat = tree.tree_heat_weights(k, 9)
        assert tree.tree_heat_solve(f, 9, window).entries == {
            x: v for x in window if (v := _literal_apply(heat.weights, f, x))}
        solvable = [x for x in window if _literal_radial_mass(g, x) == 0]
        wf, wg = tree.tree_wave_weights(k, 9)
        wave = tree.tree_wave_solve(f, g, 9, solvable)
        assert wave.entries == {x: v for x in solvable if (v := _literal_apply(wf.weights, f, x)
                                                           + _literal_apply(wg.weights, g, x))}
        for h in (f, g):
            prefixes = _hull_prefixes(h)
            assert len(prefixes) == len(set(prefixes))
            assert set(prefixes) <= _support_prefixes(h)
            assert len(prefixes) <= sum(len(y) + 1 for y in h.support())


def _random_word(rng, k, length):
    word = ()
    while len(word) < length:
        word = _reduced(word + (rng.randint(1, k),))
    return word


def _position(prefixes, x):
    """(deepest prefix of x among ``prefixes``, its distance from x), without the hull."""
    a = next(x[:i] for i in range(len(x), -1, -1) if x[:i] in prefixes)
    return a, len(x) - len(a)


def _massless_velocity(rng, k, depth):
    """A g whose radialized mass is 0 at every vertex up to ``depth`` from the root.

    g is a sum of pairs +v, -v.  For k = 2 the mass at any vertex is g's
    total.  For k >= 3 a pair sits on two children of a vertex ``depth``
    below the root, and every vertex outside their subtrees is as far from
    one as from the other.
    """
    entries = {}
    for _ in range(4):
        v = randgen.random_rational(rng)
        if k == 2:
            pair = [_random_word(rng, k, rng.randint(0, 8)) for _ in range(2)]
        else:
            a = _random_word(rng, k, depth)
            pair = [a + (c,) for c in rng.sample([c for c in range(1, k + 1) if c != a[-1]], 2)]
        for y, sign in zip(pair, (1, -1)):
            entries[y] = entries.get(y, 0) + sign * v
    return tree.TreeFunction(k, entries)


class TestOncePerPosition:
    """A solve reads a function's sums once per hull position its window meets.

    The positions the solvers pass are recorded and named by the hull
    vertex's word, found by walking ``rerooted.children``, not by
    ``hull_position``.
    """

    @pytest.mark.parametrize("k", range(2, 7))
    def test_whole_ball_solves_read_each_position_once(self, k, monkeypatch):
        rng = random.Random(1800 + k)
        radius = {2: 40, 3: 6, 4: 5}.get(k, 4)
        window = _ball_vertices(k, radius)
        rng.shuffle(window)
        f = randgen.random_tree_function(rng, k, max_radius=radius + 2, max_points=12)
        g = _massless_velocity(rng, k, radius)
        calls = []
        apply, radial_mass = tree.WeightTable.apply, tree.radial_mass
        monkeypatch.setattr(tree.WeightTable, "apply",
                            lambda table, h, at: calls.append(("apply", h, at))
                            or apply(table, h, at))
        monkeypatch.setattr(tree, "radial_mass",
                            lambda h, at: calls.append(("mass", h, at)) or radial_mass(h, at))

        def read_once_per_position(name, h):
            prefixes, words = _support_prefixes(h), _hull_words(h)
            seen = [(words[node], shift)
                    for call, h_, (node, shift) in calls if call == name and h_ is h]
            assert len(seen) == len(set(seen))
            assert set(seen) == {_position(prefixes, x) for x in window}
            return len(seen)

        n = radius + 2
        heat = tree.tree_heat_weights(k, n)
        u = tree.tree_heat_solve(f, n, window)
        assert u.entries == {x: v for x in window if (v := _literal_apply(heat.weights, f, x))}
        reads = read_once_per_position("apply", f)
        # On Z (k = 2) no two vertices share a position.
        assert reads == len(calls) and (reads < len(window) or k == 2)

        calls.clear()
        wf, wg = tree.tree_wave_weights(k, n)
        u = tree.tree_wave_solve(f, g, n, window)
        assert u.entries == {x: v for x in window if (v := _literal_apply(wf.weights, f, x)
                                                      + _literal_apply(wg.weights, g, x))}
        reads = [read_once_per_position(*call) for call in
                 [("apply", f), ("apply", g), ("mass", g)]]
        assert sum(reads) == len(calls) and (sum(reads) < 3 * len(window) or k == 2)

    @pytest.mark.parametrize("k", range(3, 7))
    def test_unsolvable_window_names_the_first_vertex_with_mass(self, k):
        rng = random.Random(1900 + k)
        g = _massless_velocity(rng, k, 3)
        f = randgen.random_tree_function(rng, k)
        # Vertices below g's support have mass, and those at one depth below
        # one support vertex share its position.
        deep = [y + w for y in g.support() for _ in range(3)
                for w in [_random_word(rng, k, 3)] if w[0] != y[-1]]
        for _ in range(5):
            window = _ball_vertices(k, 3) + deep
            rng.shuffle(window)
            want = next((x, m) for x in window if (m := _literal_radial_mass(g, x)) != 0)
            with pytest.raises(NotSolvable) as raised:
                tree.tree_wave_solve(f, g, 4, window)
            assert raised.value.detail == want


def _outcome(call):
    """What ``call()`` returns, or the class and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _placement_windows(k):
    """Windows in every order placement meets, an f, and a g massless up to the ball's radius."""
    rng = random.Random(2000 + k)
    radius = {2: 12, 3: 5}.get(k, 4)
    ball = _ball_vertices(k, radius)
    shuffled = rng.sample(ball, len(ball))
    deep = [_random_word(rng, k, rng.randint(1, 9)) for _ in range(30)]
    windows = {
        "ball": ball,
        "shuffled ball": shuffled,
        "children before parents": ball[::-1],
        "prefixes absent": deep + [y + w for y in deep[:5] for w in [(1,), (2, 1)]
                                   if y[-1] not in w[:1]],
        "duplicates": ball[:20] + rng.choices(ball, k=40) + deep[:5] * 3,
        # A window not all of tuples of ints is checked word by word.
        "a list word": ball[:20] + [list(ball[7])] + ball[20:40],
        "a string letter": ball[:20] + [("1",)] + ball[20:40],
    }
    f = randgen.random_tree_function(rng, k, max_radius=radius + 2, max_points=12)
    g = _massless_velocity(rng, k, radius)
    return windows, f, g, radius


class TestPrefixPlacement:
    """A window vertex listed after its parent is checked and placed from the parent."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_positions_are_those_from_the_root(self, k, monkeypatch):
        windows, f, g, _ = _placement_windows(k)
        checked = []
        make_vertex = tree.make_vertex
        monkeypatch.setattr(tree, "make_vertex", lambda w, k: checked.append(w) or make_vertex(w, k))
        for name, window in windows.items():
            for fs in [(f,), (g, f), (tree.TreeFunction(k),)]:
                checked.clear()
                xs, placements = tree._placed(window, k, fs)
                by_placement = list(checked)
                want = [make_vertex(w, k) for w in window]
                assert xs == want, name
                for h, (ids, positions) in zip(fs, placements, strict=True):
                    at = [positions[i] for i in ids]
                    assert at == [tree.hull_position(h, x) for x in want], name
                    # One id per position, the positions in the order the window meets them.
                    assert positions == list(dict.fromkeys(at)), name
                    # The deepest prefix of x among the root and the prefixes
                    # of h's support words, and x's depth below it; one hull
                    # vertex per prefix.  The zero function's hull is its root.
                    prefixes = _support_prefixes(h)
                    nodes = {}
                    for x, (node, shift) in zip(want, at, strict=True):
                        if not h.numerators:
                            assert (node, shift) == (h.rerooted, len(x)), name
                        depth = max(i for i in range(len(x) + 1) if x[:i] in prefixes)
                        assert (node.depth, shift) == (depth, len(x) - depth), name
                        assert nodes.setdefault(x[:depth], node) is node, name
                    assert len(set(map(id, nodes.values()))) == len(nodes), name
                # A window not all of int tuples is first read word by word.
                # Then only a word whose parent came before it skips make_vertex.
                seen, by_word = set(), list(window) if name.startswith("a ") else []
                for w in want:
                    if not w or w[:-1] not in seen:
                        by_word.append(w)
                    seen.add(w)
                assert by_placement == by_word, name

    @pytest.mark.parametrize("k", range(2, 7))
    def test_a_window_of_lists_is_placed_as_the_same_tuples(self, k):
        windows, f, g, _ = _placement_windows(k)
        for name in ("shuffled ball", "children before parents", "prefixes absent", "duplicates"):
            window = windows[name]
            assert (tree._placed(list(map(list, window)), k, [g, f])
                    == tree._placed(window, k, [g, f])), name

    @pytest.mark.parametrize("k", range(2, 7))
    def test_solvers_on_every_window_equal_the_literal_sums(self, k):
        windows, f, g, radius = _placement_windows(k)
        n = radius + 2
        heat = tree.tree_heat_weights(k, n)
        wf, wg = tree.tree_wave_weights(k, n)
        literal, solvable = {}, 0
        for name, window in windows.items():
            xs = [tree.make_vertex(w, k) for w in window]
            for x in xs:
                if x not in literal:
                    wave = _literal_apply(wf.weights, f, x) + _literal_apply(wg.weights, g, x)
                    literal[x] = (_literal_apply(heat.weights, f, x), wave,
                                  _literal_radial_mass(g, x))
            u = tree.tree_heat_solve(f, n, window)
            assert u.entries == {x: v for x in xs if (v := literal[x][0])}, name
            massive = next(((x, m) for x in xs if (m := literal[x][2])), None)
            if massive is None:
                u = tree.tree_wave_solve(f, g, n, window)
                assert u.entries == {x: v for x in xs if (v := literal[x][1])}, name
                solvable += 1
            else:
                with pytest.raises(NotSolvable) as raised:
                    tree.tree_wave_solve(f, g, n, window)
                assert raised.value.detail == massive, name
        assert solvable >= 6

    @pytest.mark.parametrize("k", [3, 12])
    @pytest.mark.parametrize("bad", ["letter 0", "letter k+1", "adjacent repeat", "list letter",
                                     "bool repeat", "bool letter", "float letter", "list word"])
    def test_a_word_after_its_prefix_is_checked_as_make_vertex_does(self, k, bad):
        prefix = (2, 3, 1)
        word = {
            "letter 0": prefix + (0,),
            "letter k+1": prefix + (k + 1,),
            "adjacent repeat": prefix + (1,),
            "list letter": prefix + ([2],),
            "bool repeat": prefix + (True,),
            "bool letter": prefix[:2] + (True,),
            "float letter": prefix + (2.0,),
            "list word": [*prefix, 2],
        }[bad]
        window = [(), prefix[:1], prefix[:2], prefix[:2], prefix, word, prefix + (2,)]
        f = randgen.random_tree_function(random.Random(2100 + k), k)
        g = tree.TreeFunction(k, {(): 1})  # mass 1 around every vertex
        try:
            x = tree.make_vertex(word, k)
        except (ShapeMismatch, TypeError) as exc:
            # Every vertex is checked before any mass, so the wave solver
            # reports the malformed word, not the root's mass.
            want = type(exc), str(exc)
            assert _outcome(lambda: tree._placed(window, k, [f, g])) == want
            assert _outcome(lambda: tree.tree_heat_solve(f, 3, window)) == want
            assert _outcome(lambda: tree.tree_wave_solve(f, g, 3, window)) == want
            return
        assert tree._placed(window, k, [f, g])[0][5] == x
        as_vertex = [x if i == 5 else w for i, w in enumerate(window)]
        assert tree.tree_heat_solve(f, 3, window) == tree.tree_heat_solve(f, 3, as_vertex)
        assert _outcome(lambda: tree.tree_wave_solve(f, g, 3, window)) == (
            NotSolvable, "tree wave equation unsolvable at vertex (): "
                         "radialized velocity has total mass 1")
