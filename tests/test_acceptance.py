"""Acceptance suite: one test per acceptance criterion.

Every comparison is exact rational equality except the quadrature
cross-check (criterion 10), which carries a 1e-9 float tolerance.  Run
with ``pytest -v`` to get one pass/fail line per criterion.

The naive tree oracle must visit the whole ball around the data, which
grows like (k-1)^n vertices; criterion 6 therefore steps the truncated
tree to per-degree horizons (k=2,3: n=12; k=4: n=8; k=5: n=6) to stay
inside its runtime budget, while the closed form and the radial oracle
cover the full range for every degree.
"""

import random
import time
from fractions import Fraction

import pytest

from lattice_waves import cayley, cosets, oracles, randgen, tree
from lattice_waves.errors import NotSolvable
from lattice_waves.functions import (
    SupportedFunction,
    add,
    convolve,
    delta,
    trivial_character_sum,
)
from lattice_waves.groups import (
    identity,
    make_element,
    make_group,
    validate_generators,
)

from helpers import l1_norm, l2_norm_squared, reflect

Z = make_group(1, [])
Z2 = make_group(2, [])
ZxZ4 = make_group(1, [4])

# Z^2 instances are weighted down and drawn with unit-span generators:
# kernel supports grow quadratically with rank and span, and criterion 1
# carries a 60 s budget.
GROUP_CYCLE = [Z, Z2, ZxZ4, Z, ZxZ4, Z]


def _instance(rng, i):
    G = GROUP_CYCLE[i % len(GROUP_CYCLE)]
    span = 1 if G.rank == 2 else 2
    pts = 4 if G.rank == 2 else 8
    S = randgen.random_symmetric_generators(rng, G, span=span)
    f = randgen.random_function(rng, G, max_points=pts)
    return G, S, f


def _heat_instances():
    """Criterion 1's instances (i, G, S, f), drawn from seed 101."""
    rng = random.Random(101)
    for i in range(200):
        yield (i, *_instance(rng, i))


def _wave_instances(rng):
    """Criterion 2's instances (i, G, S, f, g), drawn from ``rng``."""
    for i in range(200):
        G, S, f = _instance(rng, i)
        yield i, G, S, f, randgen.random_zero_mean_function(rng, G)


def _heat_trajectory(f, S, n):
    """u(.,0) .. u(.,n) by oracle stepping from u(.,0) = f."""
    traj = [f]
    for _ in range(n):
        traj.append(oracles.cayley_heat_step(traj[-1], S))
    return traj


def test_criterion_01_cayley_heat_oracle_equivalence():
    started = time.perf_counter()
    for i, G, S, f in _heat_instances():
        K1 = cayley.heat_kernel(S, 1).data
        K = cayley.heat_kernel(S, 0).data
        traj = _heat_trajectory(f, S, 20)
        for n in range(21):
            assert convolve(K, f) == traj[n], f"instance {i} diverges at n={n}"
            K = convolve(K, K1)
        if i % 20 == 0:
            # Tie the public API in directly at a few time indices.
            for n in (0, 3, 20):
                assert cayley.heat_solve(f, S, n) == traj[n]
    assert time.perf_counter() - started <= 60.0


def test_criterion_02_cayley_wave_oracle_and_solvability():
    rng = random.Random(202)
    for i, G, S, f, g in _wave_instances(rng):
        k = S.degree
        adj = SupportedFunction(G, {s: Fraction(1) for s in S.elements})
        e = delta(G, identity(G))
        f_prev, f_curr = e, e
        g_prev, g_curr = SupportedFunction(G, {}), e
        traj = oracles.cayley_wave_trajectory(f, g, S, 20)
        for n, want in enumerate(traj):
            closed = add(convolve(f_prev if n == 0 else f_curr, f),
                         convolve(g_prev if n == 0 else g_curr, g))
            assert closed == want, f"instance {i} diverges at n={n}"
            if n >= 1:
                def advance(prev, curr):
                    spread = convolve(prev, adj)
                    nxt = add(spread, add(curr, curr))
                    return add(nxt, SupportedFunction(
                        prev.group, {x: -(k + 1) * v for x, v in prev.entries.items()}
                    ))
                f_prev, f_curr = f_curr, advance(f_prev, f_curr)
                g_prev, g_curr = g_curr, advance(g_prev, g_curr)
        if i % 20 == 0:
            for n in (0, 1, 2, 13):
                assert cayley.wave_solve(f, g, S, n) == traj[n]
    # Solvability gate: nonzero-mean velocities must be refused.
    refused = 0
    while refused < 50:
        G, S, f = _instance(rng, refused)
        g = randgen.random_function(rng, G)
        if trivial_character_sum(g) == 0:
            continue
        with pytest.raises(NotSolvable):
            cayley.wave_solve(f, g, S, 5)
        refused += 1


def test_criterion_03_kernel_identities():
    rng = random.Random(303)
    sets = []
    for G, span in ((Z, 2), (Z, 2), (Z, 1), (Z, 1), (ZxZ4, 2), (ZxZ4, 2),
                    (ZxZ4, 1), (Z2, 1), (Z2, 1), (Z2, 1)):
        sets.append((G, randgen.random_symmetric_generators(rng, G, span=span)))
    assert len(sets) == 10
    for G, S in sets:
        balls = {0: {identity(G)}}
        frontier = {identity(G)}
        from lattice_waves.groups import elem_add

        for n in range(1, 21):
            frontier = {elem_add(G, x, s) for x in frontier for s in S.elements}
            balls[n] = balls[n - 1] | frontier
        for n in range(21):
            K = cayley.heat_kernel(S, n).data
            assert K == cayley.heat_kernel_binomial(S, n).data
            Fk, Gk = cayley.wave_kernels(S, n)
            assert trivial_character_sum(K) == 1
            assert trivial_character_sum(Fk.data) == 1
            assert trivial_character_sum(Gk.data) == n
            for kern in (K, Fk.data, Gk.data):
                assert reflect(kern) == kern
            assert K.support() <= balls[n]
            assert Fk.data.support() <= balls[n // 2]
            assert Gk.data.support() <= balls[(n - 1) // 2 if n else 0]


def _coset_fixture(which):
    if which == 0:
        G = ZxZ4
        H = [make_element(G, [0], [2])]
        S = [
            make_element(G, [1], [0]),
            make_element(G, [-1], [0]),
            make_element(G, [0], [1]),
            make_element(G, [0], [3]),
        ]
    else:
        G = make_group(1, [2, 2])
        H = [make_element(G, [0], [1, 0] if which == 1 else [0, 1])]
        S = [
            make_element(G, [1], [0, 0]),
            make_element(G, [-1], [0, 0]),
            make_element(G, [0], [1, 1]),
        ]
    return cosets.build_coset_problem(G, H, S)


def test_criterion_04_coset_equivalence():
    rng = random.Random(404)
    for which in (0, 1, 2):
        P = _coset_fixture(which)
        for _ in range(3):
            f = randgen.random_function(rng, P.quotient_group, max_points=4)
            lifted = cosets.lift(f, P)
            for n in range(16):
                u = cosets.coset_heat_solve(f, P, n)
                assert cosets.lift(u, P) == lifted
                # The oracle step itself asserts coset-constancy of every iterate.
                lifted = oracles.lifted_coset_heat_step(lifted, P)
            g = randgen.random_zero_mean_function(rng, P.quotient_group, max_points=4)
            u_prev = cosets.lift(f, P)
            u_curr = add(u_prev, cosets.lift(g, P))
            for n in range(16):
                u = cosets.coset_wave_solve(f, g, P, n)
                assert cosets.lift(u, P) == (u_prev if n == 0 else u_curr)
                if n >= 1:
                    u_prev, u_curr = u_curr, oracles.lifted_coset_wave_step(
                        u_prev, u_curr, P
                    )


def test_criterion_05_darboux_identity():
    rng = random.Random(505)
    for k in (3, 4, 5):
        triples = 0
        while triples < 100:
            phi = randgen.random_tree_function(rng, k)
            x = tree.ROOT if rng.random() < 0.5 else sorted(phi.support())[0]
            k_phi = phi.k
            lap_entries = {}
            todo = set(phi.support())
            for y in phi.support():
                todo.update(tree.neighbors(y, k_phi))
            for y in todo:
                lap_entries[y] = k_phi * phi(y) - sum(
                    (phi(z) for z in tree.neighbors(y, k_phi)), Fraction(0)
                )
            lap = tree.TreeFunction(k_phi, lap_entries)
            for r in range(0, 9):
                lhs = tree.spherical_mean(lap, x, r)
                rhs = (
                    k * tree.spherical_mean(phi, x, r)
                    - (k - 1) * tree.spherical_mean(phi, x, r + 1)
                    - tree.spherical_mean(phi, x, r - 1)
                )
                assert lhs == rhs, f"k={k} r={r}"
                triples += 1


TREE_HORIZON = {2: 12, 3: 12, 4: 8, 5: 6}


def test_criterion_06_tree_triple_agreement():
    rng = random.Random(606)
    started = time.perf_counter()
    for i in range(50):
        k = (2, 3, 4, 5)[i % 4]
        radius = 3 if k <= 3 else 2
        f = randgen.random_tree_function(rng, k, max_radius=radius)
        eval_at = [tree.ROOT] + sorted(f.support())[:2]
        horizon = TREE_HORIZON[k]

        # Heat: closed form vs truncated-tree stepping vs radial stepping.
        profiles = {x: tree.path_reduce(f, x) or [Fraction(0)] for x in eval_at}
        u = f
        for n in range(horizon + 1):
            closed = tree.tree_heat_solve(f, n, eval_at)
            for x in eval_at:
                assert closed(x) == u(x), f"tree/closed heat i={i} n={n}"
                assert profiles[x][0] == u(x), f"radial heat i={i} n={n}"
            u = oracles.tree_step_heat(u)
            profiles = {x: oracles.radial_step_heat(p, k) for x, p in profiles.items()}

        # Closed form vs the radial oracle over the full n <= 12 for every k.
        for x in eval_at:
            p = tree.path_reduce(f, x) or [Fraction(0)]
            for n in range(13):
                assert tree.tree_heat_solve(f, n, [x])(x) == p[0]
                p = oracles.radial_step_heat(p, k)

        # Wave analogue at a vertex where the solvability condition holds.
        x = eval_at[-1]
        g0 = randgen.random_tree_function(rng, k, max_radius=radius)
        mass = tree.radial_mass(g0, tree.hull_position(g0, x))
        g = tree.TreeFunction(k, {**g0.entries, x: g0(x) - mass})
        assert tree.radial_mass(g, tree.hull_position(g, x)) == 0
        pf = tree.path_reduce(f, x) or [Fraction(0)]
        pg = tree.path_reduce(g, x) or [Fraction(0)]
        size = max(len(pf), len(pg))
        pad = lambda p: p + [Fraction(0)] * (size - len(p))
        prev_p, curr_p = pad(pf), [a + b for a, b in zip(pad(pf), pad(pg))]
        u_prev = f
        u_curr = tree.TreeFunction(k, {y: f(y) + g(y) for y in f.support() | g.support()})
        for n in range(horizon + 1):
            if n >= 2:
                u_prev, u_curr = u_curr, oracles.tree_step_wave(u_prev, u_curr)
                prev_p, curr_p = curr_p, oracles.radial_step_wave(prev_p, curr_p, k)
            want = u_prev if n == 0 else u_curr
            prof = prev_p if n == 0 else curr_p
            closed = tree.tree_wave_solve(f, g, n, [x])
            assert closed(x) == want(x), f"tree/closed wave i={i} n={n}"
            assert prof[0] == want(x), f"radial wave i={i} n={n}"
    assert time.perf_counter() - started <= 120.0


def _laurent_power(k, j):
    poly = {0: 1}
    base = {-1: -(k - 1), 0: k, 1: -1}
    for _ in range(j):
        nxt = {}
        for s1, c1 in poly.items():
            for s2, c2 in base.items():
                nxt[s1 + s2] = nxt.get(s1 + s2, 0) + c1 * c2
        poly = {s: c for s, c in nxt.items() if c != 0}
    return poly


def test_criterion_07_alpha_coefficients():
    for k in range(2, 7):
        for j in range(13):
            coeffs = _laurent_power(k, j)
            for s in range(-j, j + 1):
                assert tree.alpha_coeff(j, s, k) == coeffs.get(s, 0)
            for s in range(j + 1):
                assert tree.alpha_coeff(j, -s, k) == (k - 1) ** s * tree.alpha_coeff(
                    j, s, k
                )


def test_criterion_08_weight_normalizations():
    for k in range(2, 7):
        for n in range(21):
            heat = tree.tree_heat_weights(k, n)
            wf, wg = tree.tree_wave_weights(k, n)
            for table, target in ((heat, 1), (wf, 1), (wg, n)):
                total = sum(
                    (w * tree.sphere_size(k, s) for s, w in enumerate(table.weights)),
                    Fraction(0),
                )
                assert total == target, f"k={k} n={n}"


def _word_to_int(x):
    if not x:
        return 0
    return len(x) if x[0] == 1 else -len(x)


def _int_to_word(r):
    if r == 0:
        return tree.ROOT
    first = 1 if r > 0 else 2
    word = [first]
    for _ in range(abs(r) - 1):
        word.append(3 - word[-1])
    return tuple(word)


def test_criterion_09_k2_degeneration():
    rng = random.Random(909)
    S = validate_generators(Z, [make_element(Z, [1], []), make_element(Z, [-1], [])])
    for _ in range(5):
        f_tree = randgen.random_tree_function(rng, 2)
        f_z = SupportedFunction(
            Z,
            {make_element(Z, [_word_to_int(x)], []): v for x, v in f_tree.entries.items()},
        )
        g_z = randgen.random_zero_mean_function(rng, Z)
        g_tree = tree.TreeFunction(
            2, {_int_to_word(x.free[0]): v for x, v in g_z.entries.items()}
        )
        window = [_int_to_word(r) for r in range(-6, 7)]
        for n in range(16):
            u_tree = tree.tree_heat_solve(f_tree, n, window)
            u_z = cayley.heat_solve(f_z, S, n)
            w_tree = tree.tree_wave_solve(f_tree, g_tree, n, window)
            w_z = cayley.wave_solve(f_z, g_z, S, n)
            for x in window:
                r = make_element(Z, [_word_to_int(x)], [])
                assert u_tree(x) == u_z(r), f"heat n={n}"
                assert w_tree(x) == w_z(r), f"wave n={n}"


def test_criterion_10_quadrature_cross_check():
    S = validate_generators(Z, [make_element(Z, [1], []), make_element(Z, [-1], [])])
    for n in range(11):
        K = cayley.heat_kernel(S, n).data
        for r in range(-n, n + 1):
            exact = float(K(make_element(Z, [r], [])))
            assert abs(oracles.quadrature_kernel(S, n, r) - exact) <= 1e-9


def test_criterion_11_norm_inequalities():
    # The oracle trajectories of criteria 1 and 2, stepped again here so that
    # this criterion runs alone and in any order.
    for _, _, S, f in _heat_instances():
        k = S.degree
        norms = [l2_norm_squared(u) for u in _heat_trajectory(f, S, 21)]
        for a, b in zip(norms, norms[1:]):
            # ||u(n+1)||_2 <= (2k-1) ||u(n)||_2, compared on squares to stay exact.
            assert b <= (2 * k - 1) ** 2 * a
    for _, _, S, f, g in _wave_instances(random.Random(202)):
        k = S.degree
        norms = [l1_norm(v) for v in oracles.cayley_wave_trajectory(f, g, S, 20)]
        for a, b, c in zip(norms, norms[1:], norms[2:]):
            assert c <= 2 * b + (2 * k + 1) * a
