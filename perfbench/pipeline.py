"""One benchmark request through the program's own CLI path.

A request is a problem JSON document in the CLI format.  ``solve`` does what
``lattice-waves <kind> --problem FILE`` does once the file is read: it hands
the document to ``cli._solve`` and writes the result with ``cli._emit``,
captured from standard output.

``verify`` is the tier-1 / ``verify`` use: the closed form at every time index
up to ``n`` against an ``oracles`` trajectory, exact equality required.  It
reads the document with the CLI's own parsers and calls the public solvers.

Neither opens a span around the program's layers; ``spans.instrument`` does
that from outside.  The only spans opened here cover work of the benchmark's
own: reading the document and the closed-form solves of ``verify``.
"""

from __future__ import annotations

import contextlib
import io
import json

from lattice_waves import cayley, cli, cosets, functions, oracles, tree


class Mismatch(Exception):
    """The closed form and the oracle trajectory disagree."""


def _load(doc: str, rec) -> dict:
    """The document as ``cli._load_problem`` reads it from a file."""
    with rec.span("serialize.parse"):
        return json.loads(doc)


def _emit(result, header: dict) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(result, header, None)
    return out.getvalue()


def solve(doc: str, rec) -> str:
    """Closed-form solution of one problem document, as CLI CSV text."""
    inst = _load(doc, rec)
    result, header = cli._solve(inst, int(inst["n"]))
    return _emit(result, header)


def verify(doc: str, rec) -> str:
    """Closed form against the oracle trajectory at every n; CSV of the last."""
    inst = _load(doc, rec)
    kind, n = inst["kind"], int(inst["n"])
    if kind in ("heat", "wave"):
        G = cli.group_from_json(inst["group"])
        S = cli.cayley_generators(inst, G)
        f = cli._values_to_function(G, inst.get("f"))
        g = cli._values_to_function(G, inst.get("g")) if kind == "wave" else None
        u = _verify_cayley(kind, n, f, g, S, rec)
        header = {"kind": kind, "n": n, "k": S.degree}
    elif kind in ("coset-heat", "coset-wave"):
        P = cli.build_coset(inst)
        f = cli._project_initial(P, inst.get("f"))
        g = cli._project_initial(P, inst.get("g")) if kind == "coset-wave" else None
        u = _verify_coset(kind, n, f, g, P, rec)
        header = {"kind": kind, "n": n, "k": P.S_tilde.degree, "H_order": P.H_order}
    else:
        k = int(inst["k"])
        f = cli._values_to_tree_function(k, inst.get("f"))
        g = cli._values_to_tree_function(k, inst.get("g")) if kind == "tree-wave" else None
        window = cli._tree_eval_vertices(inst, k, f, n)
        u = _verify_tree(kind, n, f, g, window, rec)
        header = {"kind": kind, "n": n, "k": k}
    return _emit(u, header)


def _check(closed, expected, m: int) -> None:
    if closed != expected:
        raise Mismatch(f"closed form differs from the oracle at n={m}")


def _verify_cayley(kind: str, n: int, f, g, S, rec):
    prev, curr = None, f
    for m in range(n + 1):
        with rec.span("oracles.closed_form"):
            if kind == "heat":
                closed = cayley.heat_solve(f, S, m)
            else:
                closed = cayley.wave_solve(f, g, S, m)
        _check(closed, curr, m)
        if m == n:
            return closed
        if kind == "heat":
            curr = oracles.cayley_heat_step(curr, S)
        elif m == 0:
            prev, curr = curr, functions.add(f, g)
        else:
            prev, curr = curr, oracles.cayley_wave_step(prev, curr, S)


def _verify_coset(kind: str, n: int, f, g, P, rec):
    prev, curr = None, cosets.lift(f, P)
    for m in range(n + 1):
        with rec.span("oracles.closed_form"):
            if kind == "coset-heat":
                closed = cosets.coset_heat_solve(f, P, m)
            else:
                closed = cosets.coset_wave_solve(f, g, P, m)
        _check(closed, cosets.restrict(curr, P), m)
        if m == n:
            return closed
        if kind == "coset-heat":
            curr = oracles.lifted_coset_heat_step(curr, P)
        elif m == 0:
            prev, curr = curr, functions.add(curr, cosets.lift(g, P))
        else:
            prev, curr = curr, oracles.lifted_coset_wave_step(prev, curr, P)


def _verify_tree(kind: str, n: int, f, g, window, rec):
    prev, curr = None, f
    for m in range(n + 1):
        with rec.span("oracles.closed_form"):
            if kind == "tree-heat":
                closed = tree.tree_heat_solve(f, m, window)
            else:
                closed = tree.tree_wave_solve(f, g, m, window)
        _check(closed, tree.TreeFunction(f.k, {x: curr(x) for x in window}), m)
        if m == n:
            return closed
        if kind == "tree-heat":
            curr = oracles.tree_step_heat(curr)
        elif m == 0:
            support = f.support() | g.support()
            prev, curr = curr, tree.TreeFunction(f.k, {x: f(x) + g(x) for x in support})
        else:
            prev, curr = curr, oracles.tree_step_wave(prev, curr)
