"""Benchmark of the lattice-waves solvers: seeded workloads, end to end and per layer.

Run from the repository root; the program is imported from ``src/``:

    python3 perfbench/run.py --workload cayley-kernels --seed 1 --seconds 10 --trace 0

One process, one closed-loop client, no threads.  Each request goes through
the program's own CLI path (``pipeline.py``).  A run:

1. times fresh-process imports of ``lattice_waves.cli`` (``setup_s``: one
   untimed import to fill the file caches, then the median of nine, each
   scaled by the speed measured around it in both processes);
2. solves pass 0 of the workload untimed (``workloads.py``), keeping each
   output as its reference;
3. runs timed passes until ``--seconds`` have gone by and at least
   MIN_SAMPLES requests are timed, so that the 90th percentile has at least
   ten samples beyond it.  Every pass draws fresh data from the workload's
   plan, so no request repeats one before it.  Each latency is scaled to a
   nominal machine speed (``speed.py``); the lines before the result also
   give unscaled figures;
4. outside the timed loop, checks every output with cheap exact identities,
   solves pass 0 again and requires byte-identical outputs, and re-solves a
   seeded sample of pass 0 by independent stepping (``checks.py``).

``latency_p50_ms`` and ``latency_p90_ms`` are taken over every timed
request; ``throughput_rps`` is timed requests per second of their summed
scaled latency, what one closed-loop client gets; ``peak_rss_mb`` is the
process's peak resident memory when the timed loop ends.

With ``--trace 1`` each fresh deck is solved twice, untraced and traced
(``spans.py``), and one more pass over pass 0 computes the size counts.
Span times are self times per pass over a deck, as medians over the traced
passes; counts are totals per pass and repeat exactly for a given seed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the same
metrics with units, sample counts, ``failed_ratio`` and the environment
stamp.  ``--out FILE`` appends the full record to FILE as one JSON line, for
``compare.py``.  A wrong output or an unexpected exception counts as failed
and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter, perf_counter_ns

import workloads
from speed import reference_ms, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_SAMPLES = 110  # the 90th percentile then has eleven samples beyond it
LOOP_CAP_S = 120.0  # stop adding passes past this, to end well within 180 s
ORACLE_SAMPLE = 10  # requests re-solved by independent stepping per run
ORACLE_BUDGET_S = 25.0
IMPORT_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}

SPAN_METRICS = [
    "serialize.parse",
    "groups.validate_generators",
    "cosets.build_coset_problem",
    "cayley.heat_kernel",
    "cayley.wave_kernels",
    "functions.convolve",
    "tree.weights",
    "tree.apply",
    "tree.radial_mass",
    "oracles.step",
    "serialize.emit",
]

COUNT_METRICS = {
    "cayley.kernel.support": "computed_count",
    "cayley.kernel.coeff_bits": "computed_bits",
    "functions.convolve.pairs": "computed_count",
    "functions.convolve.out_support": "computed_count",
    "tree.weight_bits": "computed_bits",
    "tree.eval_vertices": "computed_count",
    "tree.distance_evals": "computed_count",
    "oracles.steps": "computed_count",
    "oracles.vertex_updates": "computed_count",
    "cosets.H_order": "computed_count",
    "groups.quotient.torsion_elems": "computed_count",
    "serialize.bytes_out": "computed_bytes",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full result record to this file")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


# ------------------------------------------------------------------ setup


# The child times the reference work just before and after its import, and
# the parent does so around the whole process; the import is scaled by the
# mean of the four, which tracks the speed of both cores.
_CHILD = ("import speed; speed.reference_ms(); a = speed.reference_ms(); "
          "import lattice_waves.cli; print(a, speed.reference_ms())")


def _run_import(*flags: str) -> tuple[float, float, str]:
    """Fresh-process import of lattice_waves.cli.

    Returns its wall time in s without the child's reference timings, the
    speed factor from the four reference timings, and the child's stderr.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    parent_before = reference_ms()
    start = perf_counter()
    done = subprocess.run([sys.executable, *flags, "-c", _CHILD], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    wall = perf_counter() - start
    parent_after = reference_ms()
    before, after = (float(v) for v in done.stdout.split())
    factor = speed_factor((parent_before + before) / 2, (parent_after + after) / 2)
    return wall - (before + after) / 1000, factor, done.stderr


def measure_setup() -> float:
    """Median scaled wall time (s) of a fresh process that imports lattice_waves.cli."""
    _run_import()
    times = []
    for _ in range(IMPORT_REPEATS):
        wall, factor, _ = _run_import()
        times.append(wall * factor)
    return statistics.median(times)


def import_breakdown() -> dict[str, float]:
    """Cumulative import time (ms) of lattice_waves.cli and of sympy, per ``-X importtime``."""
    cli, sym = [], []
    for _ in range(3):
        _, factor, stderr = _run_import("-X", "importtime")
        found = {}
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                found.setdefault(parts[2].strip(), int(parts[1]) / 1000 * factor)
        cli.append(found.get("lattice_waves.cli", 0.0))
        sym.append(found.get("sympy", 0.0))
    return {"setup.import_cli.ms": statistics.median(cli),
            "setup.import_sympy.ms": statistics.median(sym)}


# ------------------------------------------------------------------ stamp


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp() -> dict:
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "sympy": sympy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "benchmark": _digest(HERE.glob("*.py")),
        "commit": _commit(),
        "source": _digest(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts),
    }


# ------------------------------------------------------------------- runs


class Run:
    """The requests of one benchmark run and what became of them.

    Pass 0 of the workload is solved untimed first; its outputs are the
    references that the oracle sample and the repeat check use.  Every timed
    pass draws a deck of its own (``workloads.deck``).
    """

    def __init__(self, workload: str, seed: int, solve):
        self.workload = workload
        self.seed = seed
        self.solve = solve
        self.docs = workloads.deck(workload, seed, 0)
        self.reference: list[str | None] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.oracle_checked = 0
        self.oracle_skipped = 0

    def fail(self, where: str, reason: str) -> None:
        self.failed += 1
        self.errors.append(f"{where}: {reason}")

    def attempt(self, where: str, doc: str, rec, slot: int) -> str | None:
        self.attempted += 1
        try:
            with rec.request(slot):
                return self.solve(doc, rec)
        except Exception:
            self.fail(where, traceback.format_exc(limit=3))
            return None

    def warm_up(self) -> None:
        from spans import NULL

        for slot, doc in enumerate(self.docs):
            self.reference.append(self.attempt(f"pass 0 request {slot}", doc, NULL, slot))

    def timed_pass(self, pass_index: int, docs: list[str], rec):
        """One pass over ``docs``.

        Returns, for each request that succeeded, its wall latency in ms and
        the speed factor that scales it to the nominal speed; and the outputs.
        """
        latencies: dict[int, tuple[float, float]] = {}
        texts: list[str | None] = []
        before = reference_ms()
        for slot, doc in enumerate(docs):
            start = perf_counter_ns()
            text = self.attempt(f"pass {pass_index} request {slot}", doc, rec, slot)
            wall_ms = (perf_counter_ns() - start) / 1e6
            after = reference_ms()
            if text is not None:
                latencies[slot] = (wall_ms, speed_factor(before, after))
            texts.append(text)
            before = after
        return latencies, texts

    def cheap_checks(self, pass_index: int, docs: list[str], texts: list[str | None]) -> None:
        import checks

        for slot, (doc, text) in enumerate(zip(docs, texts)):
            reason = None if text is None else checks.cheap_check(doc, text)
            if reason:
                self.fail(f"pass {pass_index} request {slot}", reason)

    def repeat(self, what: str, rec) -> None:
        """Solve pass 0 again; every output must be byte-identical to the first."""
        for slot, doc in enumerate(self.docs):
            text = self.attempt(f"pass 0 request {slot} {what}", doc, rec, slot)
            if text is not None and self.reference[slot] is not None and text != self.reference[slot]:
                self.fail(f"pass 0 request {slot} {what}", "output differs from the first")

    def oracle_sample(self) -> None:
        """Re-solve a seeded sample of pass 0 by independent stepping."""
        import checks

        rng = random.Random(f"oracle/{self.seed}")
        slots = rng.sample(range(len(self.docs)), min(ORACLE_SAMPLE, len(self.docs)))
        started = perf_counter()
        for slot in slots:
            text = self.reference[slot]
            if text is None:
                continue
            if perf_counter() - started > ORACLE_BUDGET_S:
                self.oracle_skipped += 1
                continue
            self.oracle_checked += 1
            reason = checks.oracle_check(self.docs[slot], text, rng)
            if reason:
                self.fail(f"pass 0 request {slot}", reason)


def percentile_90(latencies: list[float]) -> float:
    return statistics.quantiles(latencies, n=10, method="inclusive")[8]


def untraced(run: Run, seconds: int) -> dict:
    from spans import NULL

    latencies: list[tuple[float, float]] = []
    passes = 0
    start = perf_counter()
    while True:
        passes += 1
        docs = workloads.deck(run.workload, run.seed, passes)
        timed, texts = run.timed_pass(passes, docs, NULL)
        latencies += timed.values()
        run.cheap_checks(passes, docs, texts)
        elapsed = perf_counter() - start
        if elapsed > LOOP_CAP_S or (elapsed >= seconds and len(latencies) >= MIN_SAMPLES):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.repeat("repeated", NULL)
    return {"latencies": latencies, "passes": passes, "elapsed": elapsed, "rss_mb": rss_mb}


def traced(run: Run, seconds: int) -> tuple[dict[str, float], int]:
    """Pairs of an untraced and a traced pass over one deck; then the counts.

    Each pair draws a fresh deck and alternates which of its two passes runs
    first, so the second run of a request, which finds its caches warm, is
    traced in half the pairs and untraced in the other half.  The traced
    outputs must be byte-identical to the untraced.  The counts come from
    one more pass over pass 0, also checked against its first outputs.

    Returns the per-layer metrics and the number of traced passes.
    """
    from spans import NULL, Counter, Tracer, instrument

    overhead: list[float] = []
    total_ms = 0.0
    own_per_pass: list[dict[str, float]] = []
    closed_form: list[float] = []
    start = perf_counter()
    pair = 0
    while not own_per_pass or perf_counter() - start < seconds:
        pair += 1
        docs = workloads.deck(run.workload, run.seed, pair)
        tracer = Tracer()
        outputs = {}
        for mode in (("plain", "traced") if pair % 2 else ("traced", "plain")):
            if mode == "plain":
                outputs[mode] = run.timed_pass(pair, docs, NULL)
            else:
                with instrument(tracer):
                    outputs[mode] = run.timed_pass(pair, docs, tracer)
        (plain, plain_texts), (timed, traced_texts) = outputs["plain"], outputs["traced"]
        run.cheap_checks(pair, docs, plain_texts)
        for slot, (a, b) in enumerate(zip(plain_texts, traced_texts)):
            if a is not None and b is not None and a != b:
                run.fail(f"pass {pair} request {slot}", "traced output differs from untraced")
        own, total = tracer.times_ns({s: f for s, (_, f) in timed.items()})
        own_per_pass.append(own)
        closed_form.append(total.get("oracles.closed_form", 0.0))
        with_spans = {s: w * f for s, (w, f) in timed.items()}
        total_ms += sum(with_spans.values())
        overhead += [with_spans[s] - w * f for s, (w, f) in plain.items() if s in with_spans]
        if perf_counter() - start > LOOP_CAP_S:
            break
    counter = Counter()
    with instrument(counter):
        run.repeat("counted", counter)
    metrics = {
        f"{name}.ms": statistics.median(p.get(name, 0) for p in own_per_pass) / 1e6
        for name in SPAN_METRICS
    }
    metrics["oracles.closed_form.ms"] = statistics.median(closed_form) / 1e6
    uncovered = [p.get("request", 0) for p in own_per_pass]
    metrics["request.uncovered.ms"] = statistics.median(uncovered) / 1e6
    metrics["trace.uncovered_share"] = sum(uncovered) / 1e6 / total_ms if total_ms else 0.0
    # Traced minus untraced latency of the same request in the same pair:
    # the median of these differences estimates what tracing adds to
    # latency_p50_ms without the jump between neighbouring requests that
    # comparing two separate medians would pick up.
    metrics["trace.overhead_ms"] = statistics.median(overhead) if overhead else 0.0
    metrics.update({name: counter.counts.get(name, 0) for name in COUNT_METRICS})
    return metrics, len(own_per_pass)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.ms": "ms" for name in SPAN_METRICS}
    units.update({
        "oracles.closed_form.ms": "ms",
        "request.uncovered.ms": "ms",
        "trace.uncovered_share": "ratio",
        "trace.overhead_ms": "ms",
    })
    units.update(COUNT_METRICS)
    units.update({"setup.import_cli.ms": "ms", "setup.import_sympy.ms": "ms"})
    return units


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lattice_waves" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    setup_s = measure_setup()
    breakdown = import_breakdown() if args.trace else {}

    sys.path.insert(0, str(SRC))
    import lattice_waves

    if Path(lattice_waves.__file__).resolve().parent != SRC / "lattice_waves":
        print(f"perfbench: imported {lattice_waves.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import pipeline

    run = Run(args.workload, args.seed,
              pipeline.verify if args.workload == "oracle-check" else pipeline.solve)
    run.warm_up()
    lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace} deck={len(run.docs)}"]
    if args.trace:
        layer, passes = traced(run, args.seconds)
        layer.update(breakdown)
        lines.append(f"  traced_passes={passes} (each paired with an untraced pass over the "
                     "same deck); span times are self times per pass, except "
                     "oracles.closed_form.ms, which includes its child spans; "
                     "counts are computed per pass over pass 0")
        units = per_layer_units()
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
    else:
        timed = untraced(run, args.seconds)
        lat = [w * f for w, f in timed["latencies"]]
        wall = [w for w, _ in timed["latencies"]]
        values = {
            "setup_s": setup_s,
            "latency_p50_ms": statistics.median(lat) if lat else 0.0,
            "latency_p90_ms": percentile_90(lat) if len(lat) >= 2 else 0.0,
            "throughput_rps": len(lat) / (sum(lat) / 1000) if lat else 0.0,
            "peak_rss_mb": timed["rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
        beyond = sum(1 for x in lat if x > values["latency_p90_ms"])
        lines.append(f"  passes={timed['passes']} timed_requests={len(lat)} "
                     f"loop_s={timed['elapsed']:.3f} p90_samples_beyond={beyond}")
        if lat:
            lines.append(f"  unscaled: p50={statistics.median(wall):.6g} ms "
                         f"p90={percentile_90(wall) if len(wall) >= 2 else 0.0:.6g} ms "
                         f"throughput={len(wall) / (sum(wall) / 1000):.6g} 1/s; "
                         f"median speed factor {statistics.median(f for _, f in timed['latencies']):.4g}")
    run.cheap_checks(0, run.docs, run.reference)
    if args.workload != "oracle-check":
        run.oracle_sample()
    attempted = max(run.attempted, 1)
    for name, m in metrics.items():
        lines.append(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    if args.workload == "oracle-check":
        oracle = "each request is compared with its oracle trajectory"
    else:
        oracle = (f"oracle re-solves {run.oracle_checked} done, {run.oracle_skipped} "
                  f"skipped past {ORACLE_BUDGET_S:g} s")
    lines.append(f"  {'failed_ratio':<34} {run.failed / attempted:>14.6g} ratio "
                 f"({run.failed} of {attempted} attempted; {oracle})")
    for reason in run.errors:
        print(f"perfbench: {reason}", file=sys.stderr)
    env = stamp()
    lines.append("stamp " + json.dumps(env, sort_keys=True))
    result = {"correct": run.failed == 0, "attempted": attempted, "failed": run.failed,
              "metrics": metrics}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "stamp": env, **result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1

if __name__ == "__main__":
    sys.exit(main())
