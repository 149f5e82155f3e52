"""The benchmark's hold on the program: every layer it wraps still runs.

``perfbench/spans.py`` times the program by swapping named functions in its
modules (``spans.LAYERS``).  A refactor that deletes or bypasses one of
those names leaves the benchmark silently reading 0 for that layer; this
test runs one document of each kind through the benchmark's own pipeline
and requires every registered span and every declared count to be seen.
The benchmark's correctness gate (``checks.py``) is held to its outputs too.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402  (perfbench is not a package)
import pipeline  # noqa: E402
import spans  # noqa: E402

Z = {"rank": 1, "moduli": []}
Z_GENS = [{"free": [1], "torsion": []}, {"free": [-1], "torsion": []}]


def row(elem, num, den="1"):
    return {"elem": elem, "num": num, "den": den}


def z(x):
    return {"free": [x], "torsion": []}


def zxz4(x, t):
    return {"free": [x], "torsion": [t]}


COSET = {
    "group": {"rank": 1, "moduli": [4]},
    "subgroup_gens": [zxz4(0, 2)],
    "S": [zxz4(1, 0), zxz4(-1, 0), zxz4(0, 1), zxz4(0, 3)],
    "f": [row(zxz4(0, 0), "1", "3")],
}

DOCS = [
    {"kind": "heat", "group": Z, "S": Z_GENS, "f": [row(z(0), "1", "2")], "n": 2},
    {"kind": "wave", "group": Z, "S": Z_GENS, "f": [row(z(0), "1")],
     "g": [row(z(1), "1"), row(z(-1), "-1")], "n": 2},
    {"kind": "coset-heat", **COSET, "n": 2},
    {"kind": "coset-wave", **COSET, "g": [row(zxz4(1, 0), "1"), row(zxz4(0, 1), "-1")], "n": 2},
    {"kind": "tree-heat", "k": 3, "f": [row([], "1"), row([1, 2], "-2", "5")], "n": 2},
    # A velocity on the tree must have radial mass 0 around every vertex.
    {"kind": "tree-wave", "k": 3, "f": [row([2], "1")], "g": [], "n": 2},
]


def run_all(rec, calls: set | None = None):
    """Every document through ``solve`` and ``verify``, under ``spans.instrument``.

    With ``calls``, every call of a wrapped layer function adds (request
    name, index of the function in ``spans.LAYERS``) to it.
    """
    request_name = [None]

    def seen(fn, key):
        def call(*args, **kwargs):
            calls.add((request_name[0], key))
            return fn(*args, **kwargs)

        return call

    with spans.instrument(rec):
        if calls is not None:
            for i, (holder, attr, *_rest) in enumerate(spans.LAYERS):
                setattr(holder, attr, seen(getattr(holder, attr), i))
        for i, doc in enumerate(DOCS):
            for request in (pipeline.solve, pipeline.verify):
                request_name[0] = request.__name__
                with rec.request(i):
                    request(json.dumps(doc), rec)


def test_every_layer_is_called_and_recorded():
    # The CLI path (``solve``) must reach every wrapped name but the oracle
    # steppers, which only ``verify`` runs.
    tracer = spans.Tracer()
    calls = set()
    run_all(tracer, calls)
    uncalled = [
        f"{getattr(holder, '__name__', holder)}.{attr}"
        for i, (holder, attr, *_rest) in enumerate(spans.LAYERS)
        if ("verify" if holder is spans.oracles else "solve", i) not in calls
    ]
    assert uncalled == []
    recorded = {s.name for s in tracer.spans}
    registered = {name for _holder, _attr, name, _count, _passthrough in spans.LAYERS}
    assert registered - recorded == set()


def test_every_declared_count_is_non_zero():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    counted_names = {m["name"] for m in declared if m["unit"].startswith("computed_")}
    counter = spans.Counter()
    run_all(counter)
    assert {name for name in counted_names if counter.counts.get(name, 0) <= 0} == set()


def test_correctness_gate_passes_the_solves_and_catches_a_wrong_value():
    # ``checks`` re-solves Cayley and coset outputs through ``cli._oracle_solution`` and
    # reads coset presentations through ``cli.build_coset``: the benchmark's gate.
    for doc in map(json.dumps, DOCS[:4]):
        text = pipeline.solve(doc, spans.NULL)
        assert checks.cheap_check(doc, text) is None
        assert checks.oracle_check(doc, text, random.Random(0)) is None
        *head, last = text.rstrip("\n").split("\n")
        label, num, den = last.split(",")
        wrong = "\n".join([*head, f"{label},{int(num) + 1},{den}"]) + "\n"
        assert checks.cheap_check(doc, wrong) is not None
        assert checks.oracle_check(doc, wrong, random.Random(0)) is not None
