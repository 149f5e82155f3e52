"""Self-verification suite: closed forms vs. brute-force oracles.

Each check is one row of ``CHECKS``: its name, its suite, its horizon and
its stream of cases, where a case yields None when it passes and its failure
detail when it fails.  ``_run`` counts the cases of one stream up to its
first failure.  Each check draws its instances from a generator of its own,
seeded by the run's seed and the check's name (a ``str`` seed is hashed by
SHA-512, not ``hash()``), so any suite draws the full run's instances.  All
comparisons are exact rational equality except the float quadrature check.

``oracles``, ``randgen`` and ``random`` are imported inside the functions
that run them (``states``, the case streams, ``quadrature_errors`` and
``run_suite``): the CLI imports this module for ``solve``, so a solver
command would otherwise load and compile the oracle and generator code it
never runs.  ``compare`` and ``verify`` load them on first use.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import partial
from itertools import islice
from time import perf_counter
from typing import Iterator, NamedTuple

from . import cayley, cosets, groups, tree
from .errors import IndexOutOfRange, NotSolvable, TorsionUnsupported
from .functions import trivial_character_sum
from .groups import GeneratorSet, GroupSpec, make_element, make_group, natural, validate_generators

Cases = Iterator[str | None]


class CheckResult(NamedTuple):
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


def _run(name: str, cases: Cases) -> CheckResult:
    """Run one stream of cases, timed, to its end or its first failure."""
    start, count = perf_counter(), 0
    for detail in cases:
        if detail is not None:
            return CheckResult(name, False, count, detail, perf_counter() - start)
        count += 1
    return CheckResult(name, True, count, "", perf_counter() - start)


def solve(problem, n: int, window=None):
    """The closed form of ``problem`` at time n; ``states`` is its oracle.

    ``problem`` is the ``(kind, f, g, context)`` of ``cli._read_problem``; a
    tree solution covers ``window``.
    """
    kind, f, g, context = problem
    heat = g is None
    data = (f,) if heat else (f, g)
    if kind in ("heat", "wave"):
        return (cayley.heat_solve if heat else cayley.wave_solve)(*data, context, n)
    if kind in ("coset-heat", "coset-wave"):
        return (cosets.coset_heat_solve if heat else cosets.coset_wave_solve)(*data, context, n)
    return (tree.tree_heat_solve if heat else tree.tree_wave_solve)(*data, n, window)


def states(problem) -> Iterator:
    """The oracle states u(., 0), u(., 1), ... of ``problem``, in ``solve``'s space.

    Coset states step on the lifted graph, whose steppers reject any state
    not constant on cosets, and are restricted to the quotient.
    """
    from . import oracles
    kind, f, g, context = problem
    heat = g is None
    if kind in ("heat", "wave"):
        step = oracles.cayley_heat_step if heat else oracles.cayley_wave_step
        return oracles.trajectory(step, f, g, context)
    if kind in ("coset-heat", "coset-wave"):
        step = oracles.lifted_coset_heat_step if heat else oracles.lifted_coset_wave_step
        lifted_g = None if heat else cosets.lift(g, context)
        lifted = oracles.trajectory(step, cosets.lift(f, context), lifted_g, context)
        return (cosets.restrict(u, context) for u in lifted)
    return oracles.trajectory(oracles.tree_step_heat if heat else oracles.tree_step_wave, f, g)


def _oracle_cases(kind: str, instances: int, rng: random.Random, max_n: int) -> Cases:
    """``solve`` against each state of ``states``, n = 0..max_n, on random problems of ``kind``."""
    from . import randgen
    for i in range(instances):
        if kind.startswith("coset"):
            context = _coset_fixture(i % 3)
            G, size = context.quotient_group, {"max_points": 4}
        else:
            G, size = STANDARD_GROUPS[i % len(STANDARD_GROUPS)][1], {}
            context = randgen.random_symmetric_generators(rng, G)
        f = randgen.random_function(rng, G, **size)
        g = randgen.random_zero_mean_function(rng, G, **size) if kind.endswith("wave") else None
        problem = (kind, f, g, context)
        for n, state in enumerate(islice(states(problem), max_n + 1)):
            yield None if solve(problem, n) == state else f"mismatch at n={n}"


def _kernel_cases(instances: int, rng: random.Random, max_n: int) -> Cases:
    from . import randgen
    for i in range(instances):
        _, G = STANDARD_GROUPS[i % len(STANDARD_GROUPS)]
        S = randgen.random_symmetric_generators(rng, G)
        for n in range(max_n + 1):
            K = cayley.heat_kernel(G, S, n)
            if K.data != cayley.heat_kernel_binomial(G, S, n).data:
                yield f"K_{n} forms differ"
                continue
            masses = [trivial_character_sum(k.data) for k in (K, *cayley.wave_kernels(G, S, n))]
            yield None if masses == [1, 1, n] else f"mass wrong at n={n}"


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


# Naive tree stepping visits the whole ball around the support, which grows
# like (k-1)^n; cap the horizon for the larger degrees to keep it affordable.
_TREE_N_CAP = {2: 12, 3: 12, 4: 8, 5: 6}


def _tree_cases(kind: str, instances: int, rng: random.Random, max_n: int) -> Cases:
    """``solve`` against tree stepping, then the radial profile against it, at each eval vertex.

    Heat is also evaluated at the deepest support word w and one letter
    below it, off the hull.  The wave velocity is balanced with a literal
    radial mass, one distance per support point, and a closed form that
    refuses it fails the case.
    """
    from . import oracles, randgen
    heat = kind == "tree-heat"
    step = oracles.radial_step_heat if heat else oracles.radial_step_wave
    start = lambda h, x: tree.path_reduce(h, x) or [Fraction(0)]
    for i in range(instances):
        k = (2, 3, 4, 5)[i % 4]
        f = randgen.random_tree_function(rng, k)
        if heat:
            w = max(f.support(), key=lambda y: (len(y), y), default=tree.ROOT)
            below = w + (2 if w[-1:] == (1,) else 1,)
            g, eval_at = None, [tree.ROOT, *sorted(f.support())[:2], w, below]
        else:
            x = sorted(f.support())[0] if i % 2 else tree.ROOT
            g = randgen.random_tree_function(rng, k)
            # Cancelling g's radialized mass at x makes the wave solvable there.
            mass = sum(v if (r := tree.tree_distance(x, y)) == 0 else 2 * v / tree.sphere_size(k, r)
                       for y, v in g.entries.items())
            g, eval_at = tree.TreeFunction(k, {**g.entries, x: g(x) - mass}), [x]
        radial = [oracles.trajectory(step, start(f, x), None if heat else start(g, x), k)
                  for x in eval_at]
        problem = (kind, f, g, k)
        traj = zip(states(problem), *radial)
        for n, (u, *profiles) in enumerate(islice(traj, min(max_n, _TREE_N_CAP[k]) + 1)):
            try:
                closed = solve(problem, n, eval_at)
            except NotSolvable:
                yield f"not solvable n={n}"
                return
            found = (what for x, p in zip(eval_at, profiles)
                     for what, value in (("stepping", closed(x)), ("radial", p[0]))
                     if value != u(x))
            what = next(found, None)
            yield None if what is None else f"{what} mismatch n={n}"


def _alpha_cases(max_j: int) -> Cases:
    for k in range(2, 7):
        for j in range(max_j + 1):
            coeffs = _laurent_power(k, j)
            for s in range(-j, j + 1):
                ok = tree.alpha_coeff(j, s, k) == coeffs.get(s, 0)
                yield None if ok else f"j={j} s={s} k={k}"


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


def _weight_cases(max_n: int) -> Cases:
    for k in range(2, 7):
        for n in range(max_n + 1):
            heat = tree.tree_heat_weights(k, n)
            wf, wg = tree.tree_wave_weights(k, n)
            for table, target in ((heat, 1), (wf, 1), (wg, n)):
                weights = enumerate(table.weights)
                total = sum((w * tree.sphere_size(k, s) for s, w in weights), Fraction(0))
                yield None if total == target else f"k={k} n={n} got {total}"


def quadrature_errors(G: GroupSpec, S: GeneratorSet, n: int) -> tuple[float, dict[int, float]]:
    """(tolerance, {r: |quadrature - K_n(r)|}) for the exact heat kernel K_n on Z.

    r runs over the radius-n ball, which holds the support of K_n, and over
    K_n's own support; beyond n*span the true value is 0.  Each of the
    N = 2*n*span + 2 quadrature summands has modulus at most (2k-1)^n and the
    error stays within a few eps times that, so the tolerance is
    N*eps*(2k-1)^n, at least 1e-9.  Where it reaches 1/2, floats cannot
    resolve the integer values: IndexOutOfRange.
    """
    from . import oracles
    n = natural(n, "time index n")
    if G.rank != 1 or G.moduli:
        raise TorsionUnsupported("quadrature diagnostic is restricted to Z")
    reach = n * max(abs(s.free[0]) for s in S.elements)
    scale = (2 * reach + 2) * (2 * S.degree - 1) ** n
    if scale >= 1 << 51:  # scale * eps >= 1/2, eps = 2^-52
        raise IndexOutOfRange(f"n={n}: float quadrature cannot resolve the integer values of K_n")
    K = cayley.heat_kernel(G, S, n).data
    rs = sorted({x.free[0] for x in cayley.ball(G, S, n)} | {x.free[0] for x in K.numerators})
    approx = oracles.quadrature_kernels(S, n, [r for r in rs if abs(r) <= reach])
    errors = {r: abs(approx.get(r, 0.0) - float(K(make_element(G, [r], [])))) for r in rs}
    return max(1e-9, scale * sys.float_info.epsilon), errors


def _quadrature_cases(max_n: int) -> Cases:
    from . import randgen
    # On unit Z up to n = 10 the r are -n..n and the tolerance is 1e-9.
    G = make_group(1, [])
    S = validate_generators(G, randgen.standard_generators(G))
    for n in range(max_n + 1):
        tolerance, errors = quadrature_errors(G, S, n)
        for r, error in errors.items():
            yield None if error <= tolerance else f"n={n} r={r}"


# One row per check, in run order: name, suite, horizon (the largest n it
# reaches at a given max_n) and case stream (of its own generator and that
# horizon).  The Cayley checks run to max_n: capping them needs a work estimate.
CHECKS = [
    ("cayley-heat-oracle", "cayley", lambda m: m, partial(_oracle_cases, "heat", 12)),
    ("cayley-wave-oracle", "cayley", lambda m: m, partial(_oracle_cases, "wave", 12)),
    ("kernel-identities", "cayley", lambda m: m, partial(_kernel_cases, 6)),
    ("coset-heat-lift", "coset", lambda m: min(m, 15), partial(_oracle_cases, "coset-heat", 9)),
    ("coset-wave-lift", "coset", lambda m: min(m, 15), partial(_oracle_cases, "coset-wave", 9)),
    ("tree-heat-triple", "tree", lambda m: min(m, 10), partial(_tree_cases, "tree-heat", 8)),
    ("tree-wave-triple", "tree", lambda m: min(m, 10), partial(_tree_cases, "tree-wave", 8)),
    ("alpha-coefficients", "tree", lambda m: 12, lambda rng, n: _alpha_cases(n)),
    ("weight-normalization", "tree", lambda m: min(m, 200), lambda rng, n: _weight_cases(n)),
    ("quadrature", "quadrature", lambda m: 10, lambda rng, n: _quadrature_cases(n)),
]
SUITES = {suite: [name for name, s, *_ in CHECKS if s == suite] for _, suite, *_ in CHECKS}
SUITES["all"] = [name for name, *_ in CHECKS]


def run_suite(suite: str, max_n: int = 12, seed: int = 0) -> Iterator[CheckResult]:
    """The results of the checks of ``suite`` in table order, each timed into its ``seconds``.

    ``suite`` and ``max_n`` are read at the call; each check runs when its
    result is read, so a caller sees each result as soon as its check ends.
    """
    import random
    names = SUITES[groups.selector(suite, SUITES, "suite")]
    max_n = natural(max_n, "max_n")
    return (_run(name, cases(random.Random(f"{name} {seed}"), horizon(max_n)))
            for name, _, horizon, cases in CHECKS if name in names)
