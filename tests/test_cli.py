"""Command-line interface: subcommands, wire formats, exit codes."""

import contextlib
import copy
import inspect
import io
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lattice_waves import (
    cayley, cli, cosets, errors, functions, oracles, randgen, serialize, tree, verify,
)
from lattice_waves.errors import ShapeMismatch, TorsionUnsupported, ZeroDenominator
from lattice_waves.functions import SupportedFunction, add, delta
from lattice_waves.groups import make_element, make_group, quotient, validate_generators

from helpers import eval_vertices_by_word, function_from_csv, tree_function_from_csv


def write_problem(tmp_path, obj, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def heat_problem(n=2):
    return {
        "kind": "heat",
        "group": {"rank": 1, "moduli": []},
        "S": [{"free": [1], "torsion": []}, {"free": [-1], "torsion": []}],
        "f": [{"elem": {"free": [0], "torsion": []}, "num": "1", "den": "1"}],
        "n": n,
    }


def kernel_problem(S, n):
    return {"kind": "kernel", "group": {"rank": 1, "moduli": []}, "S": S, "n": n}


def tree_problem(kind="tree-heat", n=2):
    obj = {
        "kind": kind,
        "k": 3,
        "f": [{"elem": [], "num": "1", "den": "1"}],
        "n": n,
    }
    if kind == "tree-wave":
        obj["g"] = []
    return obj


COSET_PROBLEM = {
    "kind": "coset-heat",
    "group": {"rank": 1, "moduli": [4]},
    "subgroup_gens": [{"free": [0], "torsion": [2]}],
    "S": [
        {"free": [1], "torsion": [0]},
        {"free": [-1], "torsion": [0]},
        {"free": [0], "torsion": [1]},
        {"free": [0], "torsion": [3]},
    ],
    "f": [{"elem": {"free": [0], "torsion": [0]}, "num": "1", "den": "1"}],
    "n": 3,
}

FIRST_ROW = heat_problem()["f"][0]
UNIT_VELOCITY = [{"elem": {"free": [1], "torsion": []}, "num": "1", "den": "1"}]
COSET_UNIT_VELOCITY = [{"elem": {"free": [0], "torsion": [1]}, "num": "1", "den": "1"}]
# Zero-mass velocities: the wave kinds are solvable with them.
ZERO_MASS_VELOCITY = [
    {"elem": {"free": [1], "torsion": []}, "num": "1", "den": "1"},
    {"elem": {"free": [-1], "torsion": []}, "num": "-1", "den": "1"},
]
COSET_ZERO_MASS_VELOCITY = [
    {"elem": {"free": [1], "torsion": [0]}, "num": "1", "den": "2"},
    {"elem": {"free": [0], "torsion": [1]}, "num": "-1", "den": "2"},
]
SOLVER_PROBLEMS = [
    heat_problem(),
    dict(heat_problem(), kind="wave", g=ZERO_MASS_VELOCITY),
    COSET_PROBLEM,
    dict(COSET_PROBLEM, kind="coset-wave", g=COSET_ZERO_MASS_VELOCITY),
    tree_problem(),
    tree_problem("tree-wave"),
]


def _without(obj, field):
    return {key: value for key, value in obj.items() if key != field}


class TestRun:
    def test_heat_writes_kernel_csv(self, tmp_path):
        problem = write_problem(tmp_path, heat_problem())
        out = tmp_path / "u.csv"
        assert cli.main(["heat", "--problem", problem, "--out", str(out)]) == 0
        Z = make_group(1, [])
        u = function_from_csv(out.read_text(), Z)
        values = {x.free[0]: v for x, v in u.entries.items()}
        assert values == {-2: 1, -1: -2, 0: 3, 1: -2, 2: 1}

    @pytest.mark.parametrize(
        "obj, expected",
        [
            (
                dict(heat_problem(), f=[{"elem": {"free": [1], "torsion": []}, "num": "-1", "den": "3"}]),
                b"# kind=heat n=2 k=2\nvertex,num,den\n"
                b"-1,-1,3\n0,2,3\n1,-1,1\n2,2,3\n3,-1,3\n",
            ),
            (
                COSET_PROBLEM,
                b"# kind=coset-heat n=3 k=3 H_order=2\nvertex,num,den\n"
                b"-3;0,1,1\n-2;0,-6,1\n-2;1,3,1\n-1;0,18,1\n-1;1,-12,1\n"
                b"0;0,-26,1\n0;1,19,1\n1;0,18,1\n1;1,-12,1\n2;0,-6,1\n"
                b"2;1,3,1\n3;0,1,1\n",
            ),
            (
                tree_problem(),
                b"# kind=tree-heat n=2 k=3\nvertex,num,den\n"
                b",7,1\n1,-4,1\n1;2,1,1\n1;3,1,1\n2,-4,1\n2;1,1,1\n"
                b"2;3,1,1\n3,-4,1\n3;1,1,1\n3;2,1,1\n",
            ),
        ],
        ids=["heat", "coset-heat", "tree-heat"],
    )
    def test_output_bytes(self, tmp_path, obj, expected):
        # The comment line, the column header and each row end in "\n";
        # the root of the tree has the empty label.
        out = tmp_path / "u.csv"
        assert cli.main([obj["kind"], "--problem", write_problem(tmp_path, obj), "--out", str(out)]) == 0
        assert out.read_bytes() == expected

    @pytest.mark.parametrize("obj, other", [
        (dict(heat_problem(), kind="wave", g=ZERO_MASS_VELOCITY), {"free": [2], "torsion": []}),
        (COSET_PROBLEM, {"free": [1], "torsion": [1]}),
        (tree_problem(), [2, 1]),
    ], ids=["wave", "coset-heat", "tree-heat"])
    def test_wire_rationals_of_one_value_write_the_same_bytes(self, tmp_path, obj, other):
        # -1/2 as "1"/"-2" and as "-2"/"4" is the reduced "-1"/"2"; a second
        # row of 1/3 puts it over a common denominator with another.
        outputs = []
        for num, den in (("-1", "2"), ("1", "-2"), ("-2", "4")):
            rows = [dict(obj["f"][0], num=num, den=den), {"elem": other, "num": "1", "den": "3"}]
            out = tmp_path / f"{num}_{den}.csv"
            problem = write_problem(tmp_path, dict(obj, f=rows))
            assert cli.main([obj["kind"], "--problem", problem, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0].count(b"\n") > 3
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_deep_eval_vertex(self, tmp_path):
        # One eval vertex of 5000 letters, with data on its parent: the sphere
        # sums walk every letter of the data's prefix tree without recursing.
        word = [1, 2] * 2500
        rows = [{"elem": [], "num": "1", "den": "1"}, {"elem": word[:-1], "num": "3", "den": "1"}]
        obj = dict(tree_problem(), f=rows, eval={"vertices": [word]})
        out = tmp_path / "u.csv"
        assert cli.main(["tree-heat", "--problem", write_problem(tmp_path, obj), "--out", str(out)]) == 0
        label = ";".join(map(str, word)).encode()
        assert out.read_bytes() == b"# kind=tree-heat n=2 k=3\nvertex,num,den\n" + label + b",-12,1\n"

    def test_integers_of_any_length(self, tmp_path):
        # 4401 digits is past the interpreter's default str <-> int limit;
        # a fresh process shows that the CLI lifts it, on read and on write.
        big = "1" + "0" * 4400
        obj = dict(heat_problem(n=1), f=[{"elem": {"free": [0], "torsion": []}, "num": big, "den": "1"}])
        out = tmp_path / "u.csv"
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "lattice_waves.cli", "heat",
             "--problem", write_problem(tmp_path, obj), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        b = big.encode()
        assert out.read_bytes() == (
            b"# kind=heat n=1 k=2\nvertex,num,den\n"
            b"-1," + b + b",1\n0,-" + b + b",1\n1," + b + b",1\n"
        )

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no str <-> int digit limit")
    def test_digit_limit_is_put_back(self, tmp_path):
        # In process, main lifts the limit for its own run and restores it.
        big = "1" + "0" * 4400
        obj = dict(heat_problem(n=0), f=[{"elem": {"free": [0], "torsion": []}, "num": big, "den": "1"}])
        out = tmp_path / "u.csv"
        before = sys.get_int_max_str_digits()
        assert cli.main(["heat", "--problem", write_problem(tmp_path, obj), "--out", str(out)]) == 0
        assert sys.get_int_max_str_digits() == before
        assert out.read_bytes().endswith(b"0," + big.encode() + b",1\n")

    def test_n_flag_overrides_problem(self, tmp_path, capsys):
        problem = write_problem(tmp_path, heat_problem(n=5))
        assert cli.main(["heat", "--problem", problem, "--n", "0"]) == 0
        text = capsys.readouterr().out
        assert "n=0" in text.splitlines()[0]

    def test_kind_mismatch_rejected(self, tmp_path):
        problem = write_problem(tmp_path, heat_problem())
        assert cli.main(["wave", "--problem", problem]) == 1

    def test_wave_not_solvable_exit_2(self, tmp_path):
        obj = dict(heat_problem(), kind="wave", g=UNIT_VELOCITY)
        problem = write_problem(tmp_path, obj)
        code = cli.main(["wave", "--problem", problem])
        assert code == 2

    def test_tree_heat_default_window(self, tmp_path, capsys):
        problem = write_problem(tmp_path, tree_problem())
        assert cli.main(["tree-heat", "--problem", problem]) == 0
        text = capsys.readouterr().out
        f = tree_function_from_csv(text, 3)
        assert f(()) == 7
        assert f((1,)) == -4
        assert f((1, 2)) == 1

    def test_tree_eval_vertices(self, tmp_path, capsys):
        obj = tree_problem()
        obj["eval"] = {"vertices": [[], [1]]}
        problem = write_problem(tmp_path, obj)
        assert cli.main(["tree-heat", "--problem", problem]) == 0
        f = tree_function_from_csv(capsys.readouterr().out, 3)
        assert f(()) == 7 and f((1,)) == -4

    def test_tree_wave_default_window_reaches_g(self, tmp_path, capsys):
        # g six letters from f: a window sized from f alone stopped at radius 4
        # and printed 7 of the trajectory's 13 non-zero values.
        obj = tree_problem("tree-wave", n=4)
        obj["g"] = [{"elem": [1, 2, 1, 2, 1, 2], "num": "1", "den": "1"},
                    {"elem": [1, 2, 1, 2, 1, 3], "num": "-1", "den": "1"}]
        problem = cli._read_problem(obj)
        window = set(cli._window(obj, problem, 4))
        assert cli._oracle_solution(obj, 4).support() <= window
        assert {(1, 2, 1, 2, 1, 2), (1, 2, 1, 2, 1, 3)} <= window
        # Near g the radialized velocity has non-zero mass.
        assert cli.main(["tree-wave", "--problem", write_problem(tmp_path, obj)]) == 2
        assert "NOT_SOLVABLE" in capsys.readouterr().err

    def test_coset_heat_runs(self, tmp_path, capsys):
        problem = write_problem(tmp_path, COSET_PROBLEM)
        assert cli.main(["coset-heat", "--problem", problem]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "H_order=2" in header

    def test_kernel_subcommand(self, tmp_path, capsys):
        obj = {
            "kind": "kernel",
            "group": {"rank": 1, "moduli": []},
            "S": heat_problem()["S"],
            "role": "wave-g",
            "n": 3,
        }
        problem = write_problem(tmp_path, obj)
        assert cli.main(["kernel", "--problem", problem]) == 0
        Z = make_group(1, [])
        G3 = function_from_csv(capsys.readouterr().out, Z)
        from lattice_waves.functions import trivial_character_sum

        assert trivial_character_sum(G3) == 3

    def test_weights_subcommand(self, tmp_path, capsys):
        problem = write_problem(tmp_path, {"kind": "weights", "k": 3, "n": 2})
        assert cli.main(["weights", "--problem", problem]) == 0
        rows = [
            line for line in capsys.readouterr().out.splitlines() if line[:1].isalpha()
        ]
        assert rows[0] == "table,s,num,den"
        assert "heat,0,7,1" in rows


class TestCompare:
    @pytest.mark.parametrize("obj", SOLVER_PROBLEMS, ids=lambda obj: obj["kind"])
    def test_exact_agreement(self, tmp_path, capsys, obj):
        problem = write_problem(tmp_path, obj)
        assert cli.main(["compare", "--problem", problem]) == 0
        assert "max_abs_diff=0" in capsys.readouterr().out

    def test_tree_compare(self, tmp_path, capsys):
        problem = write_problem(tmp_path, tree_problem(n=3))
        assert cli.main(["compare", "--problem", problem]) == 0
        assert "max_abs_diff=0" in capsys.readouterr().out

    def test_injected_fault_detected(self, tmp_path, monkeypatch, capsys):
        problem = write_problem(tmp_path, heat_problem())
        closed_form = cli._closed_form

        def closed_form_with_one_value_negated(*args):
            u, header = closed_form(*args)
            numerators = dict(u.numerators)
            x = next(iter(numerators))
            numerators[x] = -numerators[x]
            return SupportedFunction.trusted(u.group, numerators, u.denominator), header

        monkeypatch.setattr(cli, "_closed_form", closed_form_with_one_value_negated)
        assert cli.main(["compare", "--problem", problem]) == 3
        assert "mismatch" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["tree-heat", "tree-wave"])
    def test_tree_compare_reads_decimal_string_letters(self, tmp_path, capsys, kind):
        # The oracle is restricted to the window as words of ints, so a
        # letter given as a decimal string compares like its integer.
        obj = dict(tree_problem(kind, n=3), eval={"vertices": [[], ["1"], ["1", "2"], [2, "3"]]})
        assert cli.main(["compare", "--problem", write_problem(tmp_path, obj)]) == 0
        out = capsys.readouterr().out
        assert "max_abs_diff=0" in out and "mismatch" not in out

    @pytest.mark.parametrize("kind", [[], {}, 5, None, "weights"], ids=repr)
    def test_kind_that_cannot_be_compared_exit_1(self, tmp_path, capsys, kind):
        problem = write_problem(tmp_path, dict(heat_problem(), kind=kind))
        assert cli.main(["compare", "--problem", problem]) == 1
        kinds = "'coset-heat', 'coset-wave', 'heat', 'kernel', 'tree-heat', 'tree-wave', 'wave'"
        assert json.loads(capsys.readouterr().err) == {
            "error": "SHAPE_MISMATCH",
            "detail": f"'kind' of a compared problem must be one of {kinds}, got {kind!r}"}

    @pytest.mark.parametrize("kind", ["tree-heat", "tree-wave"])
    def test_tree_compare_builds_the_window_once(self, tmp_path, monkeypatch, capsys, kind):
        calls = []
        window = cli._tree_eval_vertices

        def counted(*args):
            calls.append(args)
            return window(*args)

        monkeypatch.setattr(cli, "_tree_eval_vertices", counted)
        problem = write_problem(tmp_path, tree_problem(kind, n=3))
        assert cli.main(["compare", "--problem", problem]) == 0
        assert len(calls) == 1

    def test_kernel_quadrature_compare(self, tmp_path, capsys):
        obj = {
            "kind": "kernel",
            "group": {"rank": 1, "moduli": []},
            "S": heat_problem()["S"],
            "n": 6,
        }
        problem = write_problem(tmp_path, obj)
        assert cli.main(["compare", "--problem", problem]) == 0
        assert "tolerance=1e-09" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [16, 20, 28])
    def test_kernel_compare_passes_correct_kernels_at_large_n(self, tmp_path, capsys, n):
        # Quadrature errors grow like eps * 3^n on unit Z: 7e-9 at n = 16.
        problem = write_problem(tmp_path, kernel_problem(heat_problem()["S"], n))
        assert cli.main(["compare", "--problem", problem]) == 0

    def test_kernel_compare_refuses_what_floats_cannot_resolve(self, tmp_path, capsys):
        problem = write_problem(tmp_path, kernel_problem(heat_problem()["S"], 29))
        assert cli.main(["compare", "--problem", problem]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "INDEX_OUT_OF_RANGE"

    @pytest.mark.parametrize("r, expected", [(None, 0), (9, 3), (-7, 3), (10, 3), (40, 3)])
    def test_kernel_compare_checks_the_whole_reach(self, tmp_path, monkeypatch, capsys, r, expected):
        # S = {+-1, +-3}: K_3 reaches r = 3n = 9, beyond the [-n, n] window.
        heat_kernel = cli.cayley.heat_kernel

        def heat_kernel_off_by_1000_at_r(G, S, n):
            K = heat_kernel(G, S, n)
            if r is not None:
                x = make_element(G, [r], [])
                K.data.numerators[x] = K.data.numerators.get(x, 0) + 1000
            return K

        monkeypatch.setattr(cli.cayley, "heat_kernel", heat_kernel_off_by_1000_at_r)
        S = [{"free": [v], "torsion": []} for v in (1, -1, 3, -3)]
        problem = write_problem(tmp_path, kernel_problem(S, 3))
        assert cli.main(["compare", "--problem", problem]) == expected


    @pytest.mark.parametrize("role, code, error", [
        (None, 0, None), ("heat", 0, None), ("wave-f", 1, "SHAPE_MISMATCH"),
        ("wave-g", 1, "SHAPE_MISMATCH"), ("bogus", 1, "SHAPE_MISMATCH"),
    ])
    def test_kernel_compare_reads_the_role(self, tmp_path, capsys, role, code, error):
        # Quadrature covers only K_n; the kernel subcommand rejects the same unknown role.
        obj = kernel_problem(heat_problem()["S"], 4)
        if role is not None:
            obj["role"] = role
        problem = write_problem(tmp_path, obj)
        assert cli.main(["compare", "--problem", problem]) == code
        err = capsys.readouterr().err
        assert (json.loads(err)["error"] if err else None) == error
        if role == "bogus":
            assert cli.main(["kernel", "--problem", problem]) == 1

    def test_compare_and_verify_share_one_quadrature_comparison(self, tmp_path, monkeypatch,
                                                                capsys):
        quadrature_errors = verify.quadrature_errors

        def off_at_r_1(G, S, n):
            tolerance, errors = quadrature_errors(G, S, n)
            return tolerance, {r: e + (1.0 if r == 1 else 0.0) for r, e in errors.items()}

        monkeypatch.setattr(verify, "quadrature_errors", off_at_r_1)
        problem = write_problem(tmp_path, kernel_problem(heat_problem()["S"], 3))
        assert cli.main(["compare", "--problem", problem]) == 3
        assert cli.main(["verify", "--suite", "quadrature"]) == 3
        out = capsys.readouterr().out
        # r = 1 is the third r verify checks: n = 0 has r = 0 only.
        assert "quadrature  FAIL  cases=3  " in out and out.splitlines()[1].endswith("n=1 r=1")

    def test_compare_and_verify_share_one_oracle_pairing(self, tmp_path, monkeypatch, capsys):
        states = verify.states

        def off_by_delta_from_n_2(problem):
            for n, u in enumerate(states(problem)):
                yield add(u, delta(u.group)) if n >= 2 else u

        monkeypatch.setattr(verify, "states", off_by_delta_from_n_2)
        problem = write_problem(tmp_path, dict(COSET_PROBLEM, n=2))
        assert cli.main(["compare", "--problem", problem]) == 3
        assert cli.main(["verify", "--suite", "coset", "--max-n", "3"]) == 3
        compared, mismatch, *checks, summary = capsys.readouterr().out.splitlines()
        assert compared == "kind=coset-heat n=2 max_abs_diff=1"
        assert mismatch.startswith("  mismatch at ") and mismatch.endswith(": -1")
        assert [line.split()[:3] + line.split()[-3:] for line in checks] == [
            [name, "FAIL", "cases=2", "mismatch", "at", "n=2"]
            for name in ("coset-heat-lift", "coset-wave-lift")
        ]
        assert summary == "0/2 checks passed"


def _plus_delta_from_n_2(n_at):
    """A solver fault: the solution plus delta_e once the time index at ``n_at`` is 2."""
    def fault(real):
        def solve(*args):
            u = real(*args)
            return add(u, delta(u.group)) if args[n_at] >= 2 else u
        return solve
    return fault


def _kernel_plus_delta_from_n_2(real):
    def kernel(G, S, n):
        K = real(G, S, n)
        return cayley.Kernel(add(K.data, delta(G))) if n >= 2 else K
    return kernel


def _wave_f_plus_delta_from_n_2(real):
    def kernels(G, S, n):
        F, Gn = real(G, S, n)
        return (cayley.Kernel(add(F.data, delta(G))), Gn) if n >= 2 else (F, Gn)
    return kernels


def _alpha_plus_1_from_j_2(real):
    return lambda j, s, k: real(j, s, k) + (j >= 2)


def _abel_factor_k_minus_1(real):
    # The transform's factor is (k - 2); at degree k + 1 it reads (k - 1).
    return lambda k, L: tree.WeightTable(k, real(k + 1, L).weights)


def _wave_f_top_plus_1_from_n_2(real):
    def sums(k, n):
        f, g = real(k, n)
        return ([*f[:-1], f[-1] + 1], g) if n >= 2 else (f, g)
    return sums


def _rewritten(module, old, new):
    """A fault: the real function's source with its one ``old`` replaced by ``new``.

    The source is compiled in a copy of ``module``'s namespace, so the
    function reads the names it reads at home.
    """
    def fault(real):
        source = textwrap.dedent(inspect.getsource(real))
        assert source.count(old) == 1
        namespace = dict(vars(module))
        exec(source.replace(old, new), namespace)
        return namespace[real.__name__]
    return fault


# One planted engine fault per row, and every check it makes fail at
# ``verify --max-n 3``, with the failing check's case count and detail.
PLANTED_FAULTS = [
    (cayley, "wave_solve", _plus_delta_from_n_2(3),
     {"cayley-wave-oracle": (2, "mismatch at n=2")}),
    (cosets, "coset_heat_solve", _plus_delta_from_n_2(2),
     {"coset-heat-lift": (2, "mismatch at n=2")}),
    (cayley, "heat_kernel_binomial", _kernel_plus_delta_from_n_2,
     {"kernel-identities": (2, "K_2 forms differ")}),
    (cayley, "heat_kernel", _kernel_plus_delta_from_n_2,
     {"cayley-heat-oracle": (2, "mismatch at n=2"), "kernel-identities": (2, "K_2 forms differ"),
      "coset-heat-lift": (2, "mismatch at n=2"), "quadrature": (6, "n=2 r=0")}),
    (cayley, "wave_kernels", _wave_f_plus_delta_from_n_2,
     {"cayley-wave-oracle": (2, "mismatch at n=2"), "kernel-identities": (2, "mass wrong at n=2"),
      "coset-wave-lift": (2, "mismatch at n=2")}),
    (tree, "alpha_coeff", _alpha_plus_1_from_j_2,
     {"alpha-coefficients": (4, "j=2 s=-2 k=2")}),
    (tree, "_inverse_abel", _abel_factor_k_minus_1,
     {"tree-heat-triple": (2, "stepping mismatch n=2"),
      "weight-normalization": (6, "k=2 n=2 got 0")}),
    (tree, "_wave_sums", _wave_f_top_plus_1_from_n_2,
     {"tree-wave-triple": (2, "stepping mismatch n=2"),
      "weight-normalization": (7, "k=2 n=2 got 3")}),
    # Lifted torsion slot j goes to min(j, m - 1), not j mod m.
    (functions, "_fold", _rewritten(functions, "j % m", "min(j, m - 1)"),
     {"cayley-heat-oracle": (10, "mismatch at n=2"), "kernel-identities": (10, "K_2 forms differ"),
      "coset-heat-lift": (2, "mismatch at n=2")}),
    # Packed slots one byte short of the coefficient bound.
    (functions._Packing, "__init__",
     _rewritten(functions, "(bound.bit_length() + 8) // 8", "(bound.bit_length() + 8) // 8 - 1"),
     {"cayley-heat-oracle": (2, "mismatch at n=2"), "cayley-wave-oracle": (3, "mismatch at n=3"),
      "kernel-identities": (7, "mass wrong at n=3"), "coset-heat-lift": (11, "mismatch at n=3"),
      "quadrature": (42, "n=6 r=0")}),
    # A product decoded at the corner of its first factor, not at the sum of both corners.
    (functions, "_packed_product", _rewritten(functions, "list(map(add_int, lo_a, lo_b))", "lo_a"),
     {"cayley-heat-oracle": (10, "mismatch at n=2"), "cayley-wave-oracle": (2, "mismatch at n=2"),
      "kernel-identities": (1, "K_1 forms differ"), "coset-heat-lift": (4, "mismatch at n=0"),
      "coset-wave-lift": (0, "mismatch at n=0")}),
    # Lifted torsion decoded without its reduction mod m.
    (functions._Packing, "unpack",
     _rewritten(functions, "v % m for v in axis[:m]", "v for v in axis[:m]"),
     {"cayley-heat-oracle": (10, "mismatch at n=2"), "kernel-identities": (9, "K_1 forms differ"),
      "coset-heat-lift": (17, "mismatch at n=1")}),
    # The radial mass weighted by (k-1)^(rmax-r+1): the literal velocity shows it.
    (tree, "radial_mass", _rewritten(tree, "q ** (rmax - r)", "q ** (rmax - r + 1)"),
     {"tree-wave-triple": (4, "not solvable n=0")}),
    # Below the hull the data read one radius further out than it is.
    (tree, "_radius_sums", _rewritten(tree, "r + shift:", "r + shift + 1:"),
     {"tree-heat-triple": (1, "stepping mismatch n=1")}),
    # Rerooting to a child without subtracting H_b(r-2).
    (tree._Hull, "__init__", _rewritten(tree, "sums.get(r + 2, 0) - v", "sums.get(r + 2, 0)"),
     {"tree-heat-triple": (2, "stepping mismatch n=2"),
      "tree-wave-triple": (20, "not solvable n=0")}),
]


class TestVerify:
    def test_quadrature_suite(self, capsys):
        assert cli.main(["verify", "--suite", "quadrature"]) == 0
        out = capsys.readouterr().out
        assert "quadrature" in out and "PASS" in out

    def test_every_check_line_carries_seconds(self, capsys):
        assert cli.main(["verify", "--suite", "tree", "--max-n", "3"]) == 0
        *checks, summary = capsys.readouterr().out.splitlines()
        assert len(checks) == 4 and summary == "4/4 checks passed"
        for line in checks:
            fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
            assert float(fields["seconds"]) >= 0

    def test_each_line_is_out_before_the_next_check_starts(self, monkeypatch):
        # A slow or killed run still shows every check that has ended.
        class Stdout(io.StringIO):
            flushed = ""

            def flush(self):
                self.flushed = self.getvalue()

        out, seen, run = Stdout(), [], verify._run

        def recording_run(name, cases):
            seen.append(out.flushed)
            return run(name, cases)

        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(verify, "_run", recording_run)
        assert cli.main(["verify", "--suite", "coset", "--max-n", "2"]) == 0
        first, second, summary = out.getvalue().splitlines()
        assert first.startswith("coset-heat-lift  PASS  cases=27  seconds=")
        assert second.startswith("coset-wave-lift  PASS  cases=27  seconds=")
        assert seen == ["", first + "\n"] and summary == "2/2 checks passed"

    def test_every_check_and_its_case_count(self, capsys):
        assert cli.main(["verify", "--max-n", "3"]) == 0
        *checks, summary = capsys.readouterr().out.splitlines()
        expected = [
            ("cayley-heat-oracle", 48), ("cayley-wave-oracle", 48), ("kernel-identities", 24),
            ("coset-heat-lift", 36), ("coset-wave-lift", 36), ("tree-heat-triple", 32),
            ("tree-wave-triple", 32), ("alpha-coefficients", 845), ("weight-normalization", 60),
            ("quadrature", 121),
        ]
        assert [tuple(line.split()[:3]) for line in checks] == [
            (name, "PASS", f"cases={n}") for name, n in expected
        ]
        assert summary == "10/10 checks passed"

    @pytest.mark.parametrize("module, name, n_at, check", [
        (cayley, "heat_solve", 2, "cayley-heat-oracle"),
        (cosets, "coset_wave_solve", 3, "coset-wave-lift"),
    ], ids=["cayley-heat", "coset-wave"])
    def test_planted_solver_fault_fails_its_check(self, monkeypatch, capsys, module, name, n_at,
                                                  check):
        solve = getattr(module, name)

        def plus_delta_from_n_2(*args):
            u = solve(*args)
            return add(u, delta(u.group)) if args[n_at] >= 2 else u

        monkeypatch.setattr(module, name, plus_delta_from_n_2)
        assert cli.main(["verify", "--max-n", "3"]) == 3
        [failed] = [ln for ln in capsys.readouterr().out.splitlines() if "FAIL" in ln]
        assert failed.startswith(f"{check:<20}  FAIL  cases=2  seconds=")
        assert failed.endswith("  mismatch at n=2")

    @pytest.mark.parametrize("module, name, check, cases, detail", [
        (tree, "tree_heat_solve", "tree-heat-triple", 2, "stepping mismatch n=2"),
        (tree, "tree_wave_solve", "tree-wave-triple", 2, "stepping mismatch n=2"),
        (oracles, "radial_step_heat", "tree-heat-triple", 1, "radial mismatch n=1"),
    ], ids=["tree-heat", "tree-wave", "radial-heat"])
    def test_planted_tree_fault_fails_its_check(self, monkeypatch, capsys, module, name, check,
                                                cases, detail):
        real = getattr(module, name)

        def root_plus_1_from_n_2(*args):
            # The solvers take (f, n, window) and (f, g, n, window).
            u = real(*args)
            return tree.TreeFunction(u.k, {**u.entries, (): u(()) + 1}) if args[-2] >= 2 else u

        def center_plus_1(profile, k):
            p = real(profile, k)
            return [p[0] + 1, *p[1:]]

        fault = center_plus_1 if module is oracles else root_plus_1_from_n_2
        monkeypatch.setattr(module, name, fault)
        assert cli.main(["verify", "--max-n", "3"]) == 3
        [failed] = [ln for ln in capsys.readouterr().out.splitlines() if "FAIL" in ln]
        assert failed.startswith(f"{check:<20}  FAIL  cases={cases}  seconds=")
        assert failed.endswith(f"  {detail}")

    @pytest.mark.parametrize("module, name, fault, failures", PLANTED_FAULTS,
                             ids=[name if inspect.ismodule(holder) else f"{holder.__name__}.{name}"
                                  for holder, name, *_ in PLANTED_FAULTS])
    def test_planted_fault_fails_its_checks(self, monkeypatch, module, name, fault, failures):
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        results = verify.run_suite("all", max_n=3)
        assert {r.name: (r.cases, r.detail) for r in results if not r.passed} == failures

    def test_every_check_fails_for_a_planted_fault(self):
        failing = {check for *_, failures in PLANTED_FAULTS for check in failures}
        assert failing == set(verify.SUITES["all"])

    @pytest.mark.parametrize("seed", [0, 5])
    def test_any_suite_draws_the_full_runs_instances(self, monkeypatch, seed):
        # Each random draw of a check is recorded under the check that _run is running.
        draws, run = {}, verify._run

        def recording_run(name, cases):
            draws[name] = []
            return run(name, cases)

        def recording(real):
            def draw(*args, **kwargs):
                drawn = real(*args, **kwargs)
                draws[next(reversed(draws))].append(drawn)
                return drawn
            return draw

        monkeypatch.setattr(verify, "_run", recording_run)
        for name in ("random_symmetric_generators", "random_function",
                     "random_zero_mean_function", "random_tree_function"):
            monkeypatch.setattr(randgen, name, recording(getattr(randgen, name)))
        list(verify.run_suite("all", max_n=3, seed=seed))
        full, replayed = dict(draws), {}
        assert sum(1 for drawn in full.values() if drawn) == 7  # the checks that draw at all
        for suite in sorted(set(verify.SUITES) - {"all"}):
            draws.clear()
            list(verify.run_suite(suite, max_n=3, seed=seed))
            replayed.update(draws)
        assert replayed.keys() == full.keys()
        assert [name for name in full if replayed[name] != full[name]] == []

    def test_every_suite_but_cayley_stops_at_its_horizons(self):
        # The Cayley checks run to max_n itself; every other check is capped by its table row.
        results = [r for suite in ("coset", "tree", "quadrature")
                   for r in verify.run_suite(suite, max_n=sys.maxsize)]
        assert [(r.name, r.passed, r.cases) for r in results] == [
            ("coset-heat-lift", True, 144), ("coset-wave-lift", True, 144),
            ("tree-heat-triple", True, 76), ("tree-wave-triple", True, 76),
            ("alpha-coefficients", True, 845), ("weight-normalization", True, 3015),
            ("quadrature", True, 121),
        ]

    def test_quadrature_errors_on_unit_z(self):
        G = make_group(1, [])
        S = validate_generators(G, [make_element(G, [1], []), make_element(G, [-1], [])])
        for n in range(11):
            tolerance, errors = verify.quadrature_errors(G, S, n)
            assert tolerance == 1e-9 and list(errors) == list(range(-n, n + 1))
        Z4 = make_group(1, [4])
        S4 = validate_generators(Z4, randgen.standard_generators(Z4))
        with pytest.raises(TorsionUnsupported):
            verify.quadrature_errors(Z4, S4, 2)

    def test_unknown_suite_is_a_shape_mismatch(self):
        # The CLI's --suite choices come from SUITES; the library reads the
        # name by the one selector rule.
        with pytest.raises(ShapeMismatch, match="suite must be one of 'all', "):
            verify.run_suite("bogus")

    @pytest.mark.parametrize("max_n", ["-1", "-5"])
    def test_negative_max_n_exit_1_before_any_check(self, capsys, max_n):
        assert cli.main(["verify", "--max-n", max_n]) == 1
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "INDEX_OUT_OF_RANGE"


def _ball_by_distance(center, radius, k):
    """The eval ball as a walk that keeps each neighbour farther from the centre."""
    out, frontier = [center], [center]
    for _ in range(radius):
        frontier = [y for x in frontier for y in tree.neighbors(x, k)
                    if tree.tree_distance(center, y) > tree.tree_distance(center, x)]
        out += frontier
    return out


def test_eval_ball_matches_the_distance_walk():
    rng = random.Random(8)
    for k in range(2, 7):
        for radius in range(6):
            for _ in range(3):
                word = []
                for _ in range(rng.randint(0, 3)):
                    word.append(rng.choice([i for i in range(1, k + 1) if not word or i != word[-1]]))
                instance = {"eval": {"ball": {"radius": radius, "center": word}}}
                got = cli._tree_eval_vertices(instance, k, None, 0)
                assert got == _ball_by_distance(tuple(word), radius, k)


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [["heat", "--problem", "p.json", "--n", "abc"], ["heat"], ["verify", "--max-n", "x"], []],
        ids=lambda argv: " ".join(argv) or "no command",
    )
    def test_usage_error_exit_1_with_json(self, capsys, argv):
        # argparse alone would exit 2, the code of NOT_SOLVABLE, with plain text.
        assert cli.main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "USAGE" and err["detail"]

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["heat", "--help"])
        assert exc.value.code == 0
        assert "--problem" in capsys.readouterr().out

    def test_missing_file_exit_1(self, capsys):
        assert cli.main(["heat", "--problem", "/nonexistent.json"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "VALIDATION"

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["heat", "--problem", str(path)]) == 1

    @pytest.mark.parametrize("content, cause", [
        (None, "FileNotFoundError"),
        ("directory", "IsADirectoryError"),
        (b'{"kind": "\xff"}', "UnicodeDecodeError"),
        ("{not json", "JSONDecodeError"),
        ("[" * 100_000 + "]" * 100_000, "RecursionError"),
    ], ids=["missing", "directory", "not-utf-8", "not-json", "nested-100000-deep"])
    @pytest.mark.parametrize("command", ["heat", "compare"])
    def test_unreadable_problem_is_a_file_error(self, tmp_path, capsys, command, content, cause):
        # A problem file that cannot be read or decoded is a FileError, exit 1,
        # with the underlying exception named in the detail.
        path = tmp_path / "problem.json"
        if content == "directory":
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        assert cli.main([command, "--problem", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == errors.FileError.code == "VALIDATION"
        assert err["detail"].startswith(f"{cause}: ")

    @pytest.mark.parametrize("obj", [heat_problem(), {"kind": "weights", "k": 3, "n": 2}],
                             ids=lambda obj: obj["kind"])
    def test_unwritable_out_is_a_file_error(self, tmp_path, capsys, obj):
        out = tmp_path / "missing" / "u.csv"
        argv = [obj["kind"], "--problem", write_problem(tmp_path, obj), "--out", str(out)]
        assert cli.main(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "VALIDATION", "detail": f"FileNotFoundError: [Errno 2] "
                                             f"No such file or directory: {str(out)!r}"}

    def test_exit_status_of_each_error_class(self):
        assert {cls: cls.exit_status for cls in ERROR_CLASSES} == {
            cls: 2 if cls is errors.NotSolvable else 1 for cls in ERROR_CLASSES}

    def test_bad_generators_exit_1(self, tmp_path, capsys):
        obj = heat_problem()
        obj["S"] = [{"free": [1], "torsion": []}]  # not symmetric
        problem = write_problem(tmp_path, obj)
        assert cli.main(["heat", "--problem", problem]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NOT_SYMMETRIC"

    def test_negative_n_rejected(self, tmp_path):
        problem = write_problem(tmp_path, heat_problem())
        assert cli.main(["heat", "--problem", problem, "--n", "-1"]) == 1

    def test_zero_denominator_exit_1(self, tmp_path, capsys):
        obj = heat_problem()
        obj["f"][0]["den"] = "0"
        problem = write_problem(tmp_path, obj)
        assert cli.main(["heat", "--problem", problem]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ZERO_DENOMINATOR"

    @pytest.mark.parametrize(
        "obj, argv",
        [
            (heat_problem(), ["compare", "--n", "-3"]),
            (dict(heat_problem(), kind="kernel", role="wave-f"), ["kernel", "--n", "-1"]),
            (dict(heat_problem(), kind="kernel"), ["compare", "--n", "-1"]),
            (dict(heat_problem(), kind="wave", g=[]), ["wave", "--n", "-1"]),
            (COSET_PROBLEM, ["coset-heat", "--n", "-1"]),
            (tree_problem(), ["tree-heat", "--n", "-1"]),
            (tree_problem("tree-wave"), ["compare", "--n", "-2"]),
            (tree_problem("tree-wave"), ["tree-wave", "--n", "-2"]),
            ({"kind": "weights", "k": 3, "which": "wave", "n": 2}, ["weights", "--n", "-1"]),
            (
                dict(tree_problem(), eval={"ball": {"center": [], "radius": -1}}),
                ["tree-heat"],
            ),
            # The velocity has non-zero mass: the time index is checked first.
            (dict(heat_problem(), kind="wave", g=UNIT_VELOCITY), ["wave", "--n", "-1"]),
            (
                dict(COSET_PROBLEM, kind="coset-wave", g=COSET_UNIT_VELOCITY),
                ["coset-wave", "--n", "-1"],
            ),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_negative_time_or_radius_exit_1(self, tmp_path, capsys, obj, argv):
        problem = write_problem(tmp_path, obj)
        assert cli.main([argv[0], "--problem", problem, *argv[1:]]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "INDEX_OUT_OF_RANGE"

    @pytest.mark.parametrize("obj", SOLVER_PROBLEMS + [
        dict(heat_problem(), kind="kernel"),
        {"kind": "weights", "k": 3, "which": "heat", "n": 2},
    ], ids=lambda obj: obj["kind"])
    @pytest.mark.parametrize("source", ["document", "flag"])
    def test_time_index_above_maxsize_exit_1(self, tmp_path, capsys, obj, source):
        # No list of n entries can be built above sys.maxsize: refused when
        # the document is read, before any solver runs.
        n = sys.maxsize + 1
        if source == "document":
            argv = ["--problem", write_problem(tmp_path, dict(obj, n=n))]
        else:
            argv = ["--problem", write_problem(tmp_path, obj), "--n", str(n)]
        assert cli.main([obj["kind"], *argv]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "INDEX_OUT_OF_RANGE"

    @pytest.mark.parametrize(
        "obj, argv",
        [
            pytest.param(dict(heat_problem(), f=[dict(FIRST_ROW, num=1.5)]), ["heat"], id="num"),
            pytest.param(dict(heat_problem(), f=[dict(FIRST_ROW, den=2.7)]), ["heat"], id="den"),
            pytest.param(dict(heat_problem(), f=[dict(FIRST_ROW, num=True)]), ["heat"], id="num-true"),
            pytest.param(dict(heat_problem(), n=2.9), ["heat"], id="n"),
            pytest.param(dict(heat_problem(), n=2.9), ["compare"], id="compare-n"),
            pytest.param(dict(heat_problem(), group={"rank": 1.5, "moduli": []}), ["heat"], id="rank"),
            pytest.param(dict(COSET_PROBLEM, group={"rank": 1, "moduli": [4.5]}), ["coset-heat"],
                         id="modulus"),
            pytest.param(dict(heat_problem(), f=[dict(FIRST_ROW, elem={"free": [0.5], "torsion": []})]),
                         ["heat"], id="coordinate"),
            pytest.param(dict(tree_problem(), k=3.5), ["tree-heat"], id="k"),
            pytest.param({"kind": "weights", "k": 3.5, "n": 2}, ["weights"], id="weights-k"),
            pytest.param(dict(tree_problem(), eval={"ball": {"center": [], "radius": 1.9}}),
                         ["tree-heat"], id="radius"),
            pytest.param(dict(tree_problem(), eval={"ball": {"center": [1.7], "radius": 1}}),
                         ["tree-heat"], id="center-letter"),
            pytest.param(dict(tree_problem(), f=[{"elem": [1.7], "num": "1", "den": "1"}]),
                         ["tree-heat"], id="row-letter"),
            pytest.param(dict(tree_problem(), eval={"vertices": [[1.2]]}), ["tree-heat"],
                         id="eval-vertex"),
            # A document or eval ball that is not a JSON object has no fields to read.
            *(pytest.param(doc, [kind], id=f"{kind}-document-{type(doc).__name__}")
              for kind in ("heat", "coset-heat", "tree-heat", "compare")
              for doc in ([1, 2], "heat")),
            *(pytest.param(dict(tree_problem(), eval={"ball": ball}), [kind],
                           id=f"{kind}-ball-{ball}")
              for kind in ("tree-heat", "compare") for ball in (5, [1], "ball")),
            # An eval that is not an object, or eval vertices that are not an array.
            *(pytest.param(dict(tree_problem(), eval=spec), [kind], id=f"{kind}-eval-{spec}")
              for kind in ("tree-heat", "compare")
              for spec in (5, "ball", [1], {"vertices": 5})),
            # A required field that is missing, from the document or from a data row.
            *(pytest.param(_without(doc, field), [kind], id=f"{kind}-without-{field}")
              for doc, fields, kinds in (
                  (heat_problem(), ("group", "S"), ("heat", "compare")),
                  (COSET_PROBLEM, ("group", "S"), ("coset-heat", "compare")),
                  (kernel_problem(heat_problem()["S"], 2), ("group", "S"), ("kernel", "compare")),
                  (tree_problem(), ("k",), ("tree-heat", "compare")),
                  (tree_problem("tree-wave"), ("k",), ("tree-wave",)),
                  ({"kind": "weights", "k": 3, "n": 2}, ("k",), ("weights",)),
              )
              for field in fields for kind in kinds),
            *(pytest.param(dict(doc, f=[_without(doc["f"][0], field)]), [doc["kind"]],
                           id=f"{doc['kind']}-row-without-{field}")
              for doc in (heat_problem(), COSET_PROBLEM, tree_problem())
              for field in ("elem", "num", "den")),
            # A data row that is not an object.
            *(pytest.param(dict(doc, f=[row]), [doc["kind"]], id=f"{doc['kind']}-row-{row}")
              for doc in (heat_problem(), COSET_PROBLEM, tree_problem()) for row in (5, ["1"])),
        ],
    )
    def test_non_integral_number_exit_1(self, tmp_path, capsys, obj, argv):
        # int() would truncate these and answer a different problem.
        problem = write_problem(tmp_path, obj)
        assert cli.main([argv[0], "--problem", problem]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SHAPE_MISMATCH"

    @pytest.mark.parametrize("word", [[1, 1], [4]], ids=["not-reduced", "letter-past-k"])
    @pytest.mark.parametrize(
        "kind, command",
        [("tree-heat", "tree-heat"), ("tree-wave", "tree-wave"),
         ("tree-heat", "compare"), ("tree-wave", "compare")],
    )
    def test_invalid_eval_vertex_exit_1(self, tmp_path, capsys, kind, command, word):
        # Eval words are parsed as integer arrays; the solvers apply the word rules (k = 3),
        # before they check the velocity's mass (non-zero at the root here).
        obj = dict(tree_problem(kind), eval={"vertices": [[], word]})
        if kind == "tree-wave":
            obj["g"] = obj["f"]
        problem = write_problem(tmp_path, obj)
        assert cli.main([command, "--problem", problem]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SHAPE_MISMATCH"

    @pytest.mark.parametrize("k", [1, 0, -2])
    @pytest.mark.parametrize(
        "obj",
        [tree_problem(), tree_problem("tree-wave"), {"kind": "weights", "which": "wave", "n": 2}],
        ids=lambda obj: obj["kind"],
    )
    def test_tree_degree_below_2_exit_1(self, tmp_path, capsys, obj, k):
        problem = write_problem(tmp_path, dict(obj, k=k))
        assert cli.main([obj["kind"], "--problem", problem]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SHAPE_MISMATCH"

    @pytest.mark.parametrize(
        "obj, field",
        [
            pytest.param(dict(heat_problem(), f=5), "data rows 'f'", id="heat-f"),
            pytest.param(dict(heat_problem(), kind="wave", g="x"), "data rows 'g'", id="wave-g"),
            pytest.param(dict(tree_problem(), f=5), "data rows 'f'", id="tree-heat-f"),
            pytest.param(dict(tree_problem("tree-wave"), g={"elem": []}), "data rows 'g'",
                         id="tree-wave-g"),
            pytest.param(dict(COSET_PROBLEM, f=5), "data rows 'f'", id="coset-heat-f"),
            pytest.param(dict(heat_problem(), S=5), "generators 'S'", id="heat-S"),
            pytest.param(dict(COSET_PROBLEM, S=5), "generators 'S'", id="coset-heat-S"),
            pytest.param(dict(COSET_PROBLEM, subgroup_gens=5),
                         "subgroup generators 'subgroup_gens'", id="coset-heat-subgroup_gens"),
        ],
    )
    def test_non_array_field_exit_1(self, tmp_path, capsys, obj, field):
        # Iterating a number or a string would raise TypeError or read one letter per row.
        problem = write_problem(tmp_path, obj)
        assert cli.main([obj["kind"], "--problem", problem]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SHAPE_MISMATCH"
        assert err["detail"].startswith(f"{field} must be given as an array")


# Each bad integer field and the repr its error message shows.  int() alone
# would read the last three: a space, a digit separator, an Arabic-Indic three.
BAD_INTEGERS = [(True, "True"), (1.5, "1.5"), ("1.5", "'1.5'"), ("", "''"), (None, "None"),
                ([1], "[1]"), (" 7", "' 7'"), ("1_000", "'1_000'"), ("\u0663", "'\u0663'")]
COSET_BASE = make_group(1, [4])
COSET_QUOTIENT = quotient(COSET_BASE, [make_element(COSET_BASE, [0], [2])])


def group_row(free, torsion, den="1"):
    return {"elem": {"free": free, "torsion": torsion}, "num": "1", "den": den}


def tree_row(word, den="1"):
    return {"elem": word, "num": "1", "den": den}


# One valid document per kind.  Its sizes stay small, so that no value a
# substitution leaves in n, k, a modulus or a radius runs for long.
EXIT_CODE_DOCUMENTS = [
    heat_problem(),
    dict(heat_problem(), kind="wave", g=ZERO_MASS_VELOCITY),
    dict(COSET_PROBLEM, kind="coset-wave", g=COSET_ZERO_MASS_VELOCITY),
    dict(tree_problem(), eval={"ball": {"center": [1], "radius": 2}}),
    dict(tree_problem("tree-wave"), eval={"vertices": [[], [1, 2]]}),
    dict(heat_problem(), kind="kernel", role="wave-f"),
    {"kind": "weights", "k": 3, "which": "wave", "n": 2},
]
MALFORMED = [None, True, False, 1.5, "x", [], [[1]], {}, 0, -1]
ERROR_CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.LatticeWavesError)
]
ERROR_CODES = {cls.code for cls in ERROR_CLASSES}


def _field_paths(value, path=()):
    """The path of every field under ``value``: object members and each array's first entry."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value[:1])
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


def _replaced(doc, path, value):
    """A copy of ``doc`` with ``value`` at ``path``."""
    doc = copy.deepcopy(doc)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return doc


FIELDS = [(doc, path) for doc in EXIT_CODE_DOCUMENTS for path in _field_paths(doc)]


def _exit_report(argv):
    """(exit code, stderr) of ``cli.main(argv)``, with stdout thrown away."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


def _assert_library_error(code, err):
    """Exit 1 or 2 with one JSON error object naming an ``errors`` class code."""
    assert code in (1, 2)
    report = json.loads(err)
    assert report["error"] in ERROR_CODES and report["detail"]


DOCUMENT_OF = {doc["kind"]: doc for doc in EXIT_CODE_DOCUMENTS + [COSET_PROBLEM]}
# The arguments after the subcommand, PROBLEM standing for a valid problem file.
MALFORMED_ARGUMENTS = [
    (["--problem", "PROBLEM", "--n", "abc"], "USAGE"),
    (["--problem", "PROBLEM", "--n", "-1"], "INDEX_OUT_OF_RANGE"),
    (["--problem", "PROBLEM", "--n", str(sys.maxsize + 1)], "INDEX_OUT_OF_RANGE"),
    (["--n", "2"], "USAGE"),
    (["--problem", "PROBLEM", "--out", "missing/u.csv"], "VALIDATION"),
]


class TestExitCodes:
    @settings(max_examples=400, deadline=None)
    @given(field=st.sampled_from(FIELDS), value=st.sampled_from(MALFORMED))
    def test_one_malformed_field_never_exits_3(self, tmp_path_factory, field, value):
        # A substitution may leave a valid document (no rows for f, n = 0,
        # kind null): that one exits 0 with nothing on stderr.  Any other
        # exits 1 or 2 with one JSON error object naming a library error,
        # from the document's own subcommand and from compare.
        doc, path = field
        doc_dir = tmp_path_factory.getbasetemp()
        problem = write_problem(doc_dir, _replaced(doc, path, value), "malformed.json")
        for command in (doc["kind"], "compare"):
            code, err = _exit_report([command, "--problem", problem])
            if code == 0:
                assert err == ""
            else:
                _assert_library_error(code, err)

    @pytest.mark.parametrize("arguments, error", MALFORMED_ARGUMENTS,
                             ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    @pytest.mark.parametrize("command", sorted(DOCUMENT_OF) + ["compare"])
    def test_malformed_argument_never_exits_3(self, tmp_path, monkeypatch, command, arguments,
                                              error):
        # One malformed argument to a valid command line: exit 1 with the
        # argument's error (compare takes no --out, a usage error).
        monkeypatch.chdir(tmp_path)
        problem = write_problem(tmp_path, DOCUMENT_OF.get(command, heat_problem()))
        code, err = _exit_report([command] + [problem if a == "PROBLEM" else a for a in arguments])
        _assert_library_error(code, err)
        want = "USAGE" if command == "compare" and "--out" in arguments else error
        assert code == 1 and json.loads(err)["error"] == want

    @pytest.mark.parametrize("argv", [
        ["verify", "--max-n", "-1"], ["verify", "--max-n", "abc"], ["verify", "--suite", "nope"],
        ["verify", "--max-n", "99999999999999999999"],
        ["verify", "--seed", "x"], ["verify", "--problem", "p.json"], ["nope"], [],
    ], ids=" ".join)
    def test_malformed_verify_or_command_never_exits_3(self, argv):
        code, err = _exit_report(argv)
        _assert_library_error(code, err)
        assert code == 1


Z = make_group(1, [])
UNIT_Z = validate_generators(Z, [make_element(Z, [1], []), make_element(Z, [-1], [])])
DELTA_Z = delta(Z)
ZERO_MASS_Z = SupportedFunction(Z, {make_element(Z, [1], []): 1, make_element(Z, [-1], []): -1})
TREE_F = tree.TreeFunction(3, {(1,): 1, (2, 1): -3})
TREE_G = tree.TreeFunction(3, {(1,): 1, (2,): -1})  # radial mass 0 at the root
ERROR_OF_CODE = {cls.code: cls for cls in ERROR_CLASSES}


def _cli_output(argv):
    """The stdout of ``cli.main(argv)``, or the ``errors`` class its exit names, raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code:
        report = json.loads(err.getvalue())
        raise ERROR_OF_CODE[report["error"]](report["detail"])
    return out.getvalue()


def _tree_document(**fields):
    return write_problem(Path("."), dict(tree_problem(), **fields))


# Each entry point that takes a time index or a radius, called with it.
SOLVER_ARGUMENTS = {
    "heat_kernel": lambda n: cayley.heat_kernel(Z, UNIT_Z, n).data,
    "heat_kernel_binomial": lambda n: cayley.heat_kernel_binomial(Z, UNIT_Z, n).data,
    "wave_kernels": lambda n: [K.data for K in cayley.wave_kernels(Z, UNIT_Z, n)],
    "heat_solve": lambda n: cayley.heat_solve(DELTA_Z, UNIT_Z, n),
    "wave_solve": lambda n: cayley.wave_solve(DELTA_Z, ZERO_MASS_Z, UNIT_Z, n),
    "tree_heat_weights": lambda n: tree.tree_heat_weights(3, n),
    "tree_wave_weights": lambda n: tree.tree_wave_weights(3, n),
    "tree_heat_solve": lambda n: tree.tree_heat_solve(TREE_F, n, [(), (1,), (2, 3)]),
    "tree_wave_solve": lambda n: tree.tree_wave_solve(TREE_F, TREE_G, n, [()]),
    "quadrature_errors": lambda n: verify.quadrature_errors(Z, UNIT_Z, n),
    "cayley_wave_trajectory": lambda n: oracles.cayley_wave_trajectory(
        DELTA_Z, ZERO_MASS_Z, UNIT_Z, n),
    "quadrature_kernel": lambda n: oracles.quadrature_kernel(UNIT_Z, n, 0),
    "quadrature_kernels": lambda n: oracles.quadrature_kernels(UNIT_Z, n, [0, 1]),
    "wave_rows": cayley.wave_rows,
    "run_suite max_n": lambda n: [(r.name, r.passed, r.cases)
                                  for r in verify.run_suite("cayley", max_n=n)],
    "sphere_size": lambda r: tree.sphere_size(3, r),
    "ball": lambda r: cayley.ball(Z, UNIT_Z, r),
    "document n": lambda n: _cli_output(["tree-heat", "--problem", _tree_document(n=n)]),
    "eval ball radius": lambda r: _cli_output(
        ["tree-heat", "--problem", _tree_document(eval={"ball": {"radius": r}})]),
    # argparse reads --n as an int, so only integers reach the rule.
    "--n": lambda n: _cli_output(["tree-heat", "--problem", _tree_document(), "--n", str(n)]),
}
BAD_ARGUMENTS = [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry in sorted(SOLVER_ARGUMENTS)
    for value in [True, 2.0, "x", None, -1, sys.maxsize + 1]
    if entry != "--n" or type(value) is int
]


class TestSolverArguments:
    @pytest.mark.parametrize("entry, value", BAD_ARGUMENTS)
    def test_malformed_argument_raises_a_library_error(self, tmp_path, monkeypatch, entry,
                                                       value):
        # groups.natural reads every one: a non-integer is ShapeMismatch, an
        # integer outside 0..sys.maxsize IndexOutOfRange, never a TypeError,
        # ValueError or OverflowError from deeper down.
        monkeypatch.chdir(tmp_path)
        want = errors.IndexOutOfRange if type(value) is int else ShapeMismatch
        with pytest.raises(errors.LatticeWavesError) as raised:
            SOLVER_ARGUMENTS[entry](value)
        assert type(raised.value) is want

    @pytest.mark.parametrize("entry", sorted(SOLVER_ARGUMENTS))
    def test_decimal_string_reads_as_its_integer(self, tmp_path, monkeypatch, entry):
        monkeypatch.chdir(tmp_path)
        assert SOLVER_ARGUMENTS[entry]("3") == SOLVER_ARGUMENTS[entry](3)


def _parse_error_cases():
    """(id, field, wire value, error class, message) of every pinned parse error.

    The field is where the value sits: an element coordinate (free, in a
    heat document on Z), a coset representative's coordinate (torsion, in a
    coset document on Z x Z4), a tree-word letter of a data row or of an
    eval vertex (k = 3), or a heat document's group.  Then one case per
    object and selector rule site: the problem document, a tree document's
    ``eval`` and ``eval.ball``, the ``kind`` a subcommand or compare reads,
    a kernel ``role``, the weights ``which``, and two sites only the
    library reaches: ``cli._read_problem``'s kind and ``verify.run_suite``'s
    suite.
    """
    shape, zero = "SHAPE_MISMATCH", "ZERO_DENOMINATOR"
    for value, shown in BAD_INTEGERS:
        got = f"must be an integer or a decimal string, got {shown}"
        yield f"element-{shown}", "element", group_row([value], []), shape, \
            f"element coordinate {got}"
        yield f"coset-{shown}", "coset", group_row([0], [value]), shape, \
            f"element coordinate {got}"
        yield f"letter-{shown}", "letter", tree_row([1, value]), shape, f"tree-word letter {got}"
        yield f"eval-{shown}", "eval", [1, value], shape, f"tree-word letter {got}"
        yield f"num-{shown}", "element", dict(group_row([0], []), num=value), shape, f"num {got}"
        yield f"den-{shown}", "element", group_row([0], [], value), shape, f"den {got}"
    yield "element-arity", "element", group_row([0, 0], []), shape, \
        "element shape (2,0) does not match group shape (1,0)"
    yield "coset-arity", "coset", group_row([0], []), shape, \
        "element shape (1,0) does not match group shape (1,1)"
    yield "letter-arity", "letter", tree_row(5), shape, \
        "tree-word letters must be given as an array, got 5"
    yield "eval-arity", "eval", 5, shape, "tree-word letters must be given as an array, got 5"
    yield "moduli-arity", "group", {"rank": 1, "moduli": 5}, shape, \
        "moduli must be given as an array, got 5"
    for den in (0, "0"):
        message = "zero denominator in the rational 1/0"
        yield f"element-den-{den!r}", "element", group_row([0], [], den), zero, message
        yield f"coset-den-{den!r}", "coset", group_row([0], [0], den), zero, message
        yield f"letter-den-{den!r}", "letter", tree_row([1], den), zero, message
    solver_kinds = "'coset-heat', 'coset-wave', 'heat', 'tree-heat', 'tree-wave', 'wave'"
    compared_kinds = solver_kinds.replace("'heat', ", "'heat', 'kernel', ")
    for name, field, wire, message in [
        ("document-array", "document", [heat_problem()],
         "problem document must be a JSON object, not list"),
        ("eval-number", "eval object", 5, "eval must be a JSON object, not int"),
        ("ball-array", "ball", [2], "eval ball must be a JSON object, not list"),
        ("ball-without-radius", "ball", {"center": [1]},
         "a JSON object with the required field 'radius' was expected"),
        ("group-number", "group", 5, "group must be a JSON object, not int"),
        ("group-without-rank", "group", {"moduli": []},
         "a JSON object with the required field 'rank' was expected"),
        ("element-array", "element", {"elem": [0], "num": "1", "den": "1"},
         "element must be a JSON object, not list"),
        ("kind-of-subcommand", "kind", "wave", "'kind' of a heat problem must be one of "
         "'heat', got 'wave'"),
        ("kind-compared", "compared kind", "weights",
         f"'kind' of a compared problem must be one of {compared_kinds}, got 'weights'"),
        ("kind-of-problem", "problem kind", "kernel",
         f"problem 'kind' must be one of {solver_kinds}, got 'kernel'"),
        ("role", "role", "bogus",
         "kernel 'role' must be one of 'heat', 'wave-f', 'wave-g', got 'bogus'"),
        ("role-compared", "compared role", "wave-f",
         "kernel 'role' checked by quadrature must be one of 'heat', got 'wave-f'"),
        ("which", "which", 5, "weights 'which' must be one of 'heat', 'wave', got 5"),
        ("suite", "suite", "bogus",
         "suite must be one of 'all', 'cayley', 'coset', 'quadrature', 'tree', got 'bogus'"),
    ]:
        yield name, field, wire, shape, message


PARSE_ERRORS = list(_parse_error_cases())


def _document(field, wire):
    """A problem document with ``wire`` in ``field``, and the CLI command that runs it."""
    kernel = dict(heat_problem(), kind="kernel")
    return {
        "element": (dict(heat_problem(), f=[wire]), "heat"),
        "coset": (dict(COSET_PROBLEM, f=[wire]), "coset-heat"),
        "letter": (dict(tree_problem(), f=[wire]), "tree-heat"),
        "group": (dict(heat_problem(), group=wire), "heat"),
        "document": (wire, "heat"),
        "eval object": (dict(tree_problem(), eval=wire), "tree-heat"),
        "ball": (dict(tree_problem(), eval={"ball": wire}), "tree-heat"),
        "kind": (dict(heat_problem(), kind=wire), "heat"),
        "compared kind": (dict(heat_problem(), kind=wire), "compare"),
        "role": (dict(kernel, role=wire), "kernel"),
        "compared role": (dict(kernel, role=wire), "compare"),
        "which": ({"kind": "weights", "k": 3, "n": 2, "which": wire}, "weights"),
    }.get(field, (dict(tree_problem(), eval={"vertices": [[], wire]}), "tree-heat"))


READERS = {
    "element": lambda wire: serialize.function_from_rows(make_group(1, []), [wire]),
    "coset": lambda wire: serialize.quotient_function_from_rows(COSET_QUOTIENT, [wire]),
    "letter": lambda wire: serialize.tree_function_from_rows(3, [wire]),
    "group": serialize.group_from_json,
    "problem kind": lambda wire: cli._read_problem(dict(heat_problem(), kind=wire)),
    "suite": verify.run_suite,
}
# Reached only through the library: the CLI sets or checks these first.
LIBRARY_FIELDS = {"problem kind", "suite"}


class TestParseErrors:
    # Integer arrays are read whole when they hold only JSON integers; every
    # other array is read field by field, so the errors are pinned here.
    @pytest.mark.parametrize("field, wire, code, message",
                             [pytest.param(*case[1:], id=case[0]) for case in PARSE_ERRORS
                              if case[1] in READERS])
    def test_row_readers(self, field, wire, code, message):
        error = ZeroDenominator if code == "ZERO_DENOMINATOR" else ShapeMismatch
        with pytest.raises(error) as exc:
            READERS[field](wire)
        assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize("field, wire, code, message",
                             [pytest.param(*case[1:], id=case[0]) for case in PARSE_ERRORS
                              if case[1] not in LIBRARY_FIELDS])
    def test_cli_exit_1(self, tmp_path, capsys, field, wire, code, message):
        doc, command = _document(field, wire)
        assert cli.main([command, "--problem", write_problem(tmp_path, doc)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": code, "detail": message}

    @settings(max_examples=200, deadline=None)
    @given(words=st.lists(st.one_of(
        st.lists(st.integers(-3, 5) | st.integers(), max_size=6),
        st.lists(st.one_of(st.integers(1, 3), st.booleans(), st.floats(allow_nan=False),
                           st.sampled_from(["2", "-3", "1.5", "", "x"]),
                           st.lists(st.integers(1, 3), max_size=2), st.none()), max_size=4),
        st.one_of(st.integers(), st.text(max_size=3), st.none(), st.dictionaries(st.text(), st.integers())),
    ), max_size=8))
    def test_window_checked_once_equals_word_by_word(self, words):
        # The CLI only makes the words of an all-array window tuples, and
        # tree._placed checks the window once; the vertices, or the first
        # error, are those of checking one word at a time.
        instance = {"eval": {"vertices": words}}
        placed = lambda: tree._placed(cli._tree_eval_vertices(instance, 3, None, 0), 3, [])[0]
        try:
            want = eval_vertices_by_word(words, 3)
        except ShapeMismatch as exc:
            with pytest.raises(ShapeMismatch) as got:
                placed()
            assert type(got.value) is ShapeMismatch and str(got.value) == str(exc)
            return
        got = placed()
        assert got == want
        assert all(type(w) is tuple and {int}.issuperset(map(type, w)) for w in got)

    def test_decimal_strings_parse(self, tmp_path, capsys):
        # Decimal strings, alone or beside JSON integers, read as their integers.
        rows = [group_row(["12"], ["-3"]), group_row([-3], ["2"])]
        assert serialize.function_from_rows(COSET_BASE, rows).numerators == {
            make_element(COSET_BASE, [12], [1]): 1, make_element(COSET_BASE, [-3], [2]): 1}
        assert serialize.quotient_function_from_rows(COSET_QUOTIENT, rows[:1]).numerators == {
            COSET_QUOTIENT.project(make_element(COSET_BASE, [12], [1])): 1}
        words = [tree_row(["1", "2"]), tree_row([2, "3"])]
        assert serialize.tree_function_from_rows(3, words).numerators == {(1, 2): 1, (2, 3): 1}
        doc = dict(tree_problem(), eval={"vertices": [["2", "1"], [1, "3"], []]})
        assert cli.main(["tree-heat", "--problem", write_problem(tmp_path, doc)]) == 0
        f = tree_function_from_csv(capsys.readouterr().out, 3)
        assert f.support() == {(2, 1), (1, 3), ()}
