"""Command-line front end.

Problem instances arrive as JSON, results leave as CSV.  Exit codes are
a stable contract: 0 success, then each ``errors`` class's ``exit_status``
(1 invalid input, 2 wave equation not solvable), 3 a bug.  Errors are
emitted on stderr as a JSON object {"error": code, "detail": ...}.
Every integer of a document is read by ``groups.integer``, and a time
index or a radius (``n``, ``--n``, the eval radius) by ``groups.natural``;
every object by ``serialize.json_object`` and ``required``, and every
selector (a kind, a role, ``which``) by ``groups.selector``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import islice

from . import cayley, cosets, groups, tree, verify
from .errors import FileError, LatticeWavesError, UsageError
from .functions import SupportedFunction
from .groups import array, integer, natural, selector
from .serialize import (
    element_from_json,
    function_from_rows,
    function_to_csv,
    group_from_json,
    json_object,
    quotient_function_from_rows,
    required,
    tree_function_from_rows,
    tree_function_to_csv,
    weights_to_csv,
)

SOLVER_KINDS = {"heat", "wave", "coset-heat", "coset-wave", "tree-heat", "tree-wave"}

EXIT_OK = 0
EXIT_INTERNAL = 3


def _load_problem(args) -> tuple[dict, int]:
    """The problem document of ``args`` and its time index: ``--n``, else its ``n``, else 0."""
    try:
        with open(args.problem) as fh:
            instance = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # also not UTF-8, or nested too deep
        raise FileError(exc) from exc
    instance = json_object(instance, "problem document")
    return instance, natural(args.n if args.n is not None else instance.get("n", 0), "time index n")


_values_to_function = function_from_rows
_values_to_tree_function = tree_function_from_rows


def _project_initial(P: cosets.CosetProblem, values, what: str = "data rows") -> SupportedFunction:
    """Coset initial data is given on base-group representatives; push it down."""
    return quotient_function_from_rows(P.quot, values, what)


def _tree_eval_vertices(instance: dict, k: int, f: tree.TreeFunction, n: int,
                        g: tree.TreeFunction | None = None):
    """The window of a tree document: its ``eval`` vertices, its ``eval`` ball or the default.

    The default ball, around the root, reaches as far as a value can be
    nonzero, which is as far as the weight tables reach beyond the data: n
    beyond f's support for heat; floor(n/2) beyond f's and floor((n-1)/2)
    beyond g's for wave.  With no data in reach it is the root alone.  A
    wave's g is checked on it before it is built (``tree.require_solvable_ball``).
    Listed vertices are checked once, by the solvers (``tree._placed``):
    here a list whose words are all JSON arrays only has them made tuples,
    and any other list is passed on as it is.
    """
    spec = json_object(instance.get("eval", {}), "eval")
    if "vertices" in spec:
        words = array(spec["vertices"], "eval vertices")
        return list(map(tuple, words)) if {list}.issuperset(map(type, words)) else words
    center = tree.ROOT
    if "ball" in spec:
        ball = json_object(spec["ball"], "eval ball")
        radius = natural(required(ball, "radius"), "eval ball radius")
        center = tree.make_vertex(ball.get("center", []), k)
    else:
        # Default window: the whole region where the solution can be nonzero.
        reach = [(f, n)] if g is None else [(f, n // 2), (g, (n - 1) // 2)]
        radius = max([0, *(len(y) + steps for h, steps in reach for y in h.support())])
        if g is not None:
            tree.require_solvable_ball(g, radius)
    # Each layer steps one sphere outward: every neighbour but the parent.
    out = [center]
    frontier = [(center, None)]
    for _ in range(radius):
        frontier = [(y, x) for x, p in frontier for y in tree.neighbors(x, k) if y != p]
        out += [y for y, _ in frontier]
    return out


def _read_problem(instance: dict):
    """(kind, f, g, context) of a solver-kind document, each read once.

    The context is the generator set S, the coset problem P or the tree
    degree k; g is None for the heat kinds.
    """
    kind = selector(required(instance, "kind"), SOLVER_KINDS, "problem 'kind'")
    if kind in ("heat", "wave"):
        G = group_from_json(required(instance, "group"))
        context = cayley_generators(instance, G)
        reader = lambda rows, what: _values_to_function(G, rows, what)
    elif kind in ("coset-heat", "coset-wave"):
        context = build_coset(instance)
        reader = lambda rows, what: _project_initial(context, rows, what)
    else:
        context = integer(required(instance, "k"), "k")
        reader = lambda rows, what: _values_to_tree_function(context, rows, what)
    read = lambda name: reader(instance.get(name), f"data rows {name!r}")
    f = read("f")
    g = read("g") if kind.endswith("wave") else None
    return kind, f, g, context


def _window(instance: dict, problem, n: int):
    kind, f, g, k = problem
    return _tree_eval_vertices(instance, k, f, n, g) if kind.startswith("tree") else None


def _closed_form(problem, n: int, window):
    """(result, header) of ``verify.solve``; tree results cover ``window``."""
    kind, _f, _g, context = problem
    if kind.startswith("tree"):
        sizes = {"k": context}
    elif kind.startswith("coset"):
        sizes = {"k": context.S_tilde.degree, "H_order": context.H_order}
    else:
        sizes = {"k": context.degree}
    return verify.solve(problem, n, window), {"kind": kind, "n": n, **sizes}


def _solve(instance: dict, n: int):
    """Run the closed-form solver for a solver-kind instance.

    Returns (result, header); result is a SupportedFunction or
    TreeFunction.
    """
    problem = _read_problem(instance)
    return _closed_form(problem, n, _window(instance, problem, n))


def _elements(G, values, what: str) -> list:
    """The group elements of a JSON array field; ``what`` names the field in errors."""
    return [element_from_json(G, x) for x in array(values, what)]


def cayley_generators(instance: dict, G):
    return groups.validate_generators(G, _elements(G, required(instance, "S"), "generators 'S'"))


def build_coset(instance: dict) -> cosets.CosetProblem:
    G = group_from_json(required(instance, "group"))
    H = _elements(G, instance.get("subgroup_gens", []), "subgroup generators 'subgroup_gens'")
    S = _elements(G, required(instance, "S"), "generators 'S'")
    return cosets.build_coset_problem(G, H, S)


def _write(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise FileError(exc) from exc
    else:
        sys.stdout.write(text)


def _emit(result, header, out_path):
    to_csv = tree_function_to_csv if isinstance(result, tree.TreeFunction) else function_to_csv
    _write(to_csv(result, header), out_path)


def _oracle_solution(instance: dict, n: int):
    """Independent brute-force solution for a solver-kind instance (``verify.states``)."""
    return next(islice(verify.states(_read_problem(instance)), n, None))


def _diff_report(closed, oracle, keys):
    """Exact max absolute difference and per-vertex mismatches over ``keys``."""
    diffs = {x: closed(x) - oracle(x) for x in keys}
    diffs = {x: d for x, d in diffs.items() if d != 0}
    max_diff = max((abs(d) for d in diffs.values()), default=Fraction(0))
    return max_diff, diffs


def cmd_run(args) -> int:
    instance, n = _load_problem(args)
    kind = instance.get("kind")  # an absent or null kind is the subcommand's
    kind = instance["kind"] = selector(args.kind if kind is None else kind, (args.kind,),
                                       f"'kind' of a {args.kind} problem")

    if kind == "kernel":
        G = group_from_json(required(instance, "group"))
        S = cayley_generators(instance, G)
        role = selector(instance.get("role", "heat"), ("heat", "wave-f", "wave-g"), "kernel 'role'")
        if role == "heat":
            data = cayley.heat_kernel(S, n).data
        else:
            fk, gk = cayley.wave_kernels(S, n)
            data = fk.data if role == "wave-f" else gk.data
        _emit(data, {"kind": "kernel", "role": role, "n": n, "k": S.degree}, args.out)
        return EXIT_OK

    if kind == "weights":
        k = integer(required(instance, "k"), "k")
        which = selector(instance.get("which", "heat"), ("heat", "wave"), "weights 'which'")
        if which == "heat":
            tables = [("heat", tree.tree_heat_weights(k, n, tree.WRITTEN_WEIGHT_BITS))]
        else:
            wf, wg = tree.tree_wave_weights(k, n, tree.WRITTEN_WEIGHT_BITS)
            tables = [("wave-f", wf), ("wave-g", wg)]
        header = {"kind": "weights", "which": which, "n": n, "k": k}
        _write(weights_to_csv(tables, header), args.out)
        return EXIT_OK

    result, header = _solve(instance, n)
    _emit(result, header, args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    instance, n = _load_problem(args)
    kind = selector(instance.get("kind"), SOLVER_KINDS | {"kernel"}, "'kind' of a compared problem")
    if kind == "kernel":
        return _compare_kernel(instance, n)
    problem = _read_problem(instance)
    window = _window(instance, problem, n)
    closed, _header = _closed_form(problem, n, window)
    oracle = next(islice(verify.states(problem), n, None))
    # The closed form is only evaluated on a requested window, so only the
    # window's vertices, as words of ints, are compared.
    keys = (closed.support() | oracle.support() if window is None
            else {tree.make_vertex(w, oracle.k) for w in window})
    max_diff, diffs = _diff_report(closed, oracle, keys)
    print(f"kind={kind} n={n} max_abs_diff={max_diff}")
    if diffs:
        for x, d in sorted(diffs.items(), key=str):
            print(f"  mismatch at {x}: {d}")
        return EXIT_INTERNAL
    return EXIT_OK


def _compare_kernel(instance: dict, n: int) -> int:
    """Float cross-check of the exact Z heat kernel K_n (``verify.quadrature_errors``)."""
    selector(instance.get("role", "heat"), ("heat",), "kernel 'role' checked by quadrature")
    G = group_from_json(required(instance, "group"))
    tolerance, errors = verify.quadrature_errors(cayley_generators(instance, G), n)
    worst = max(errors.values())
    print(f"kind=kernel n={n} max_abs_diff={worst:.3e} tolerance={tolerance:.3g}")
    return EXIT_OK if worst <= tolerance else EXIT_INTERNAL


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite, max_n=args.max_n, seed=args.seed)
    names = verify.SUITES[args.suite]
    width = max(map(len, names))
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.name:<{width}}  {status}  cases={r.cases}  seconds={r.seconds:.3f}"
        if r.detail:
            line += f"  {r.detail}"
        print(line, flush=True)
        failed += 0 if r.passed else 1
    print(f"{len(names) - failed}/{len(names)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_INTERNAL


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so that they exit 1 with a JSON error like any other."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lattice-waves",
        description="Exact heat/wave solvers on Cayley graphs, coset graphs, and regular trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in sorted(SOLVER_KINDS) + ["kernel", "weights"]:
        p = sub.add_parser(kind, help=f"run the {kind} solver")
        p.add_argument("--problem", required=True, help="path to the problem JSON")
        p.add_argument("--out", help="CSV output path (default stdout)")
        p.add_argument("--n", type=int, help="override the time index")
        p.set_defaults(func=cmd_run, kind=kind)

    p = sub.add_parser("compare", help="run closed form and oracle, report exact diff")
    p.add_argument("--problem", required=True)
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_compare, kind=None)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--suite", default="all", choices=sorted(verify.SUITES))
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify, kind=None)

    return parser


def main(argv=None) -> int:
    # Wire integers have any length (serialize.py); 3.11 and late 3.10
    # builds cap str <-> int conversions at 4300 digits unless told not to.
    # The cap is lifted for this call only and put back for the caller.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except LatticeWavesError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}), file=sys.stderr)
        return exc.exit_status
    except Exception as exc:  # a bug: invalid input raises a LatticeWavesError
        detail = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"error": "INTERNAL", "detail": detail}), file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
