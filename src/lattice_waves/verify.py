"""Self-verification suite: closed forms vs. brute-force oracles.

Each check runs a batch of randomized or enumerated comparisons and
reports how many cases were exercised.  All comparisons are exact
rational equality except the float quadrature check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from time import perf_counter

from . import cayley, cosets, oracles, randgen, tree
from .errors import IndexOutOfRange
from .functions import trivial_character_sum
from .groups import make_element, make_group, validate_generators


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""
    seconds: float = 0.0


STANDARD_GROUPS = [
    ("Z", make_group(1, [])),
    ("Z^2", make_group(2, [])),
    ("ZxZ4", make_group(1, [4])),
]


def check_cayley_heat(rng: random.Random, instances: int, max_n: int) -> CheckResult:
    cases = 0
    for i in range(instances):
        _, G = STANDARD_GROUPS[i % len(STANDARD_GROUPS)]
        S = randgen.random_symmetric_generators(rng, G)
        f = randgen.random_function(rng, G)
        traj = oracles.trajectory(oracles.cayley_heat_step, f, None, S)
        for n, u in enumerate(islice(traj, max_n + 1)):
            if cayley.heat_solve(f, S, n) != u:
                return CheckResult("cayley-heat-oracle", False, cases, f"mismatch at n={n}")
            cases += 1
    return CheckResult("cayley-heat-oracle", True, cases)


def check_cayley_wave(rng: random.Random, instances: int, max_n: int) -> CheckResult:
    cases = 0
    for i in range(instances):
        _, G = STANDARD_GROUPS[i % len(STANDARD_GROUPS)]
        S = randgen.random_symmetric_generators(rng, G)
        f = randgen.random_function(rng, G)
        g = randgen.random_zero_mean_function(rng, G)
        traj = oracles.trajectory(oracles.cayley_wave_step, f, g, S)
        for n, expected in enumerate(islice(traj, max_n + 1)):
            if cayley.wave_solve(f, g, S, n) != expected:
                return CheckResult("cayley-wave-oracle", False, cases, f"mismatch at n={n}")
            cases += 1
    return CheckResult("cayley-wave-oracle", True, cases)


def check_kernel_identities(rng: random.Random, instances: int, max_n: int) -> CheckResult:
    cases = 0
    for i in range(instances):
        _, G = STANDARD_GROUPS[i % len(STANDARD_GROUPS)]
        S = randgen.random_symmetric_generators(rng, G)
        for n in range(max_n + 1):
            K = cayley.heat_kernel(G, S, n)
            if K.data != cayley.heat_kernel_binomial(G, S, n).data:
                return CheckResult("kernel-identities", False, cases, f"K_{n} forms differ")
            Fk, Gk = cayley.wave_kernels(G, S, n)
            if (
                trivial_character_sum(K.data) != 1
                or trivial_character_sum(Fk.data) != 1
                or trivial_character_sum(Gk.data) != n
            ):
                return CheckResult("kernel-identities", False, cases, f"mass wrong at n={n}")
            cases += 1
    return CheckResult("kernel-identities", True, cases)


def _coset_fixture(which: int):
    if which == 0:
        G = make_group(1, [4])
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


def check_coset_equivalence(rng: random.Random, instances: int, max_n: int) -> CheckResult:
    cases = 0
    for i in range(instances):
        P = _coset_fixture(i % 3)
        f = randgen.random_function(rng, P.quotient_group, max_points=4)
        traj = oracles.trajectory(oracles.lifted_coset_heat_step, cosets.lift(f, P), None, P)
        for n, lifted in enumerate(islice(traj, max_n + 1)):
            u = cosets.coset_heat_solve(f, P, n)
            if cosets.lift(u, P) != lifted:
                return CheckResult("coset-heat-lift", False, cases, f"mismatch at n={n}")
            cases += 1
    return CheckResult("coset-heat-lift", True, cases)


# Naive tree stepping visits the whole ball around the support, which grows
# like (k-1)^n; cap the horizon for the larger degrees to keep it affordable.
_TREE_N_CAP = {2: 12, 3: 12, 4: 8, 5: 6}


def check_tree_heat(rng: random.Random, instances: int, max_n: int) -> CheckResult:
    cases = 0
    for i in range(instances):
        k = (2, 3, 4, 5)[i % 4]
        f = randgen.random_tree_function(rng, k)
        eval_at = [tree.ROOT] + sorted(f.support())[:2]
        starts = [tree.path_reduce(f, x) or [Fraction(0)] for x in eval_at]
        radial = [oracles.trajectory(oracles.radial_step_heat, p, None, k) for p in starts]
        traj = zip(oracles.trajectory(oracles.tree_step_heat, f, None), *radial)
        for n, (u, *profiles) in enumerate(islice(traj, min(max_n, _TREE_N_CAP[k]) + 1)):
            closed = tree.tree_heat_solve(f, n, eval_at)
            for x, profile in zip(eval_at, profiles):
                if closed(x) != u(x):
                    return CheckResult(
                        "tree-heat-triple", False, cases, f"stepping mismatch n={n}"
                    )
                if profile[0] != u(x):
                    return CheckResult(
                        "tree-heat-triple", False, cases, f"radial mismatch n={n}"
                    )
            cases += 1
    return CheckResult("tree-heat-triple", True, cases)


def check_tree_wave(rng: random.Random, instances: int, max_n: int) -> CheckResult:
    cases = 0
    for i in range(instances):
        k = (2, 3, 4, 5)[i % 4]
        f = randgen.random_tree_function(rng, k)
        x = sorted(f.support())[0] if i % 2 else tree.ROOT
        g = randgen.random_tree_function(rng, k)
        # Make g solvable around the evaluation vertex by cancelling the
        # radialized mass at the vertex itself.
        g = tree.TreeFunction(k, {**g.entries, x: g(x) - tree.radial_mass(g, x)})
        horizon = min(max_n, _TREE_N_CAP[k])
        pf = tree.path_reduce(f, x) or [Fraction(0)]
        pg = tree.path_reduce(g, x) or [Fraction(0)]
        traj = zip(
            oracles.trajectory(oracles.tree_step_wave, f, g),
            oracles.trajectory(oracles.radial_step_wave, pf, pg, k),
        )
        for n, (want, prof) in enumerate(islice(traj, horizon + 1)):
            closed = tree.tree_wave_solve(f, g, n, [x])
            if closed(x) != want(x):
                return CheckResult(
                    "tree-wave-triple", False, cases, f"stepping mismatch n={n}"
                )
            if (prof[0] if prof else Fraction(0)) != want(x):
                return CheckResult(
                    "tree-wave-triple", False, cases, f"radial mismatch n={n}"
                )
            cases += 1
    return CheckResult("tree-wave-triple", True, cases)


def check_alpha(max_j: int = 12) -> CheckResult:
    cases = 0
    for k in range(2, 7):
        for j in range(max_j + 1):
            coeffs = _laurent_power(k, j)
            for s in range(-j, j + 1):
                if tree.alpha_coeff(j, s, k) != coeffs.get(s, 0):
                    return CheckResult("alpha-coefficients", False, cases, f"j={j} s={s} k={k}")
                cases += 1
    return CheckResult("alpha-coefficients", True, cases)


def _laurent_power(k: int, j: int) -> dict[int, int]:
    """Coefficients of ( -(k-1) z^{-1} + k - z )^j by literal polynomial multiplication."""
    poly = {0: 1}
    base = {-1: -(k - 1), 0: k, 1: -1}
    for _ in range(j):
        nxt: dict[int, int] = {}
        for s1, c1 in poly.items():
            for s2, c2 in base.items():
                nxt[s1 + s2] = nxt.get(s1 + s2, 0) + c1 * c2
        poly = {s: c for s, c in nxt.items() if c != 0}
    return poly


def check_weight_normalization(max_n: int = 20) -> CheckResult:
    cases = 0
    for k in range(2, 7):
        for n in range(max_n + 1):
            heat = tree.tree_heat_weights(k, n)
            wf, wg = tree.tree_wave_weights(k, n)
            for table, target in ((heat, 1), (wf, 1), (wg, n)):
                total = sum(
                    (w * tree.sphere_size(k, s) for s, w in enumerate(table.weights)),
                    Fraction(0),
                )
                if total != target:
                    return CheckResult(
                        "weight-normalization", False, cases, f"k={k} n={n} got {total}"
                    )
                cases += 1
    return CheckResult("weight-normalization", True, cases)


def check_quadrature(max_n: int = 10) -> CheckResult:
    # Kernel values grow like (2k-1)^n, so the absolute 1e-9 tolerance is
    # calibrated for the unit generating set of Z.
    cases = 0
    G = make_group(1, [])
    S = validate_generators(G, randgen.standard_generators(G))
    for n in range(max_n + 1):
        K = cayley.heat_kernel(G, S, n).data
        for r in range(-n, n + 1):
            exact = float(K(make_element(G, [r], [])))
            approx = oracles.quadrature_kernel(S, n, r)
            if abs(approx - exact) > 1e-9:
                return CheckResult("quadrature", False, cases, f"n={n} r={r}")
            cases += 1
    return CheckResult("quadrature", True, cases)


SUITES = {
    "cayley": ["cayley-heat", "cayley-wave", "kernels"],
    "coset": ["coset"],
    "tree": ["tree-heat", "tree-wave", "alpha", "weights"],
    "quadrature": ["quadrature"],
}
SUITES["all"] = [name for group in SUITES.values() for name in group]


def run_suite(suite: str, max_n: int = 12, seed: int = 0) -> list[CheckResult]:
    """Run the checks of ``suite`` in order, each timed into its ``seconds``."""
    names = SUITES.get(suite)
    if names is None:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    if max_n < 0:
        raise IndexOutOfRange(f"max_n must be non-negative, got {max_n}")
    rng = random.Random(seed)
    checks = {
        "cayley-heat": lambda: check_cayley_heat(rng, 12, max_n),
        "cayley-wave": lambda: check_cayley_wave(rng, 12, max_n),
        "kernels": lambda: check_kernel_identities(rng, 6, max_n),
        "coset": lambda: check_coset_equivalence(rng, 9, min(max_n, 15)),
        "tree-heat": lambda: check_tree_heat(rng, 8, min(max_n, 10)),
        "tree-wave": lambda: check_tree_wave(rng, 8, min(max_n, 10)),
        "alpha": check_alpha,
        "weights": lambda: check_weight_normalization(max_n),
        "quadrature": check_quadrature,
    }
    results = []
    for name in names:
        start = perf_counter()
        result = checks[name]()
        result.seconds = perf_counter() - start
        results.append(result)
    return results
