"""Recorders for a request, and the wrappers that feed them from the program.

Nothing inside the program is instrumented.  For a traced or counting pass,
``instrument`` swaps the program's layer functions, in every module that
holds a name for them, for wrappers that open a span around the call and
compute sizes from its arguments and result; on leaving, it puts the
originals back.  Untraced passes run the program untouched.

Three recorders share one interface:

- ``NULL`` records nothing (the untraced run),
- ``Tracer`` keeps every span in memory and is read once the pass is over,
- ``Counter`` times nothing and adds up sizes computed from the inputs and
  outputs of each call, so every count repeats exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns

from lattice_waves import cayley, cli, cosets, groups, oracles, tree


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class NullRecorder:
    counting = False

    def request(self, request_id: int):
        return _NO_SPAN

    def span(self, name: str):
        return _NO_SPAN


NULL = NullRecorder()


class _Named:
    """Marks ``name`` as the open span, for wrappers that look at their parent."""

    __slots__ = ("current", "name", "token")

    def __init__(self, current: contextvars.ContextVar, name: str):
        self.current = current
        self.name = name

    def __enter__(self):
        self.token = self.current.set(self.name)

    def __exit__(self, *exc):
        self.current.reset(self.token)
        return False


class Counter(NullRecorder):
    """Adds up computed sizes; records no time."""

    counting = True

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.current: contextvars.ContextVar[str | None] = contextvars.ContextVar(
            "perfbench_count", default=None
        )

    def request(self, request_id: int):
        return _Named(self.current, "request")

    def span(self, name: str):
        return _Named(self.current, name)

    def parent_name(self) -> str | None:
        return self.current.get()

    def add(self, name: str, value: int) -> None:
        self.counts[name] += value


@dataclass
class Span:
    request: int
    id: int
    parent: int | None
    name: str
    start_ns: int = 0
    end_ns: int = 0


class _Open:
    __slots__ = ("tracer", "name", "request_id", "span", "token")

    def __init__(self, tracer: Tracer, name: str, request_id: int | None):
        self.tracer = tracer
        self.name = name
        self.request_id = request_id

    def __enter__(self):
        tracer = self.tracer
        parent = tracer.current.get()
        if parent is None:
            span = Span(self.request_id, len(tracer.spans), None, self.name)
        else:
            span = Span(parent.request, len(tracer.spans), parent.id, self.name)
        tracer.spans.append(span)
        self.span = span
        self.token = tracer.current.set(span)
        span.start_ns = perf_counter_ns()
        return span

    def __exit__(self, *exc):
        self.span.end_ns = perf_counter_ns()
        self.tracer.current.reset(self.token)
        return False


class Tracer(NullRecorder):
    """Keeps spans in memory; spans of one request share its id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def request(self, request_id: int):
        return _Open(self, "request", request_id)

    def span(self, name: str):
        return _Open(self, name, None)

    def parent_name(self) -> str | None:
        span = self.current.get()
        return None if span is None else span.name

    def times_ns(self, scale: dict[int, float]) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: (self time, inclusive time).

        Self time is a span's duration minus the time its child spans cover;
        children run one after another inside their parent, so that is the
        sum of their durations.  The self time of the root ``request`` span
        is the part of each request's latency no span covers.  Each span is
        multiplied by ``scale`` of its request (1 if absent).
        """
        covered: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end_ns - s.start_ns
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for s in self.spans:
            factor = scale.get(s.request, 1.0)
            own[s.name] += (s.end_ns - s.start_ns - covered[s.id]) * factor
            total[s.name] += (s.end_ns - s.start_ns) * factor
        return own, total


# ------------------------------------------------------------ instrumentation
#
# Counts are computed here, from the arguments and results the program
# passes and returns; none is measured inside the program.


def _count_kernel(rec, K) -> None:
    rec.add("cayley.kernel.support", len(K.entries))
    rec.add("cayley.kernel.coeff_bits", sum(v.numerator.bit_length() for v in K.entries.values()))


def _count_heat_kernel(rec, kernel, *args) -> None:
    _count_kernel(rec, kernel.data)


def _count_wave_kernels(rec, kernels, *args) -> None:
    for kernel in kernels:
        _count_kernel(rec, kernel.data)


def _count_convolve(rec, out, a, b) -> None:
    rec.add("functions.convolve.pairs", len(a.entries) * len(b.entries))
    rec.add("functions.convolve.out_support", len(out.entries))


def _count_coset(rec, P, G, *args) -> None:
    torsion_elems = 1
    for m in G.moduli:
        torsion_elems *= m
    rec.add("groups.quotient.torsion_elems", torsion_elems)
    rec.add("cosets.H_order", P.H_order)


def _count_weights(rec, tables, *args) -> None:
    if isinstance(tables, tree.WeightTable):
        tables = (tables,)
    rec.add("tree.weight_bits", sum(
        w.numerator.bit_length() + w.denominator.bit_length()
        for t in tables for w in t.weights
    ))


def _count_window(rec, window, *args) -> None:
    rec.add("tree.eval_vertices", len(window))


def _count_apply(rec, value, table, f, x) -> None:
    rec.add("tree.distance_evals", len(f.entries))


def _count_radial_mass(rec, mass, g, x) -> None:
    rec.add("tree.distance_evals", len(g.entries))


def _count_step(rec, u, *args) -> None:
    rec.add("oracles.steps", 1)
    rec.add("oracles.vertex_updates", len(u.entries))


def _count_csv(rec, text, *args) -> None:
    rec.add("serialize.bytes_out", len(text.encode()))


_PARSE = "serialize.parse"
_KERNELS = frozenset({"cayley.heat_kernel", "cayley.wave_kernels"})

# (holder, attribute, span name, count, parent spans under which the wrapper
# passes the call straight through).  Every module that binds a layer
# function under its own name is listed, so no call path escapes.
# ``cayley.convolve`` is also how ``wave_kernels`` multiplies symbol powers:
# those calls stay part of kernel construction, so ``functions.convolve`` is
# kernel times data alone.
LAYERS = [
    (cli, "group_from_json", _PARSE, None, {_PARSE}),
    (cli, "element_from_json", _PARSE, None, {_PARSE}),
    (cli, "_values_to_function", _PARSE, None, {_PARSE}),
    (cli, "_values_to_tree_function", _PARSE, None, {_PARSE}),
    (cli, "_project_initial", _PARSE, None, {_PARSE}),
    (cli, "_tree_eval_vertices", _PARSE, _count_window, {_PARSE}),
    (groups, "validate_generators", "groups.validate_generators", None, ()),
    (cosets, "validate_generators", "groups.validate_generators", None, ()),
    (cosets, "build_coset_problem", "cosets.build_coset_problem", _count_coset, ()),
    (cayley, "heat_kernel", "cayley.heat_kernel", _count_heat_kernel, ()),
    (cayley, "wave_kernels", "cayley.wave_kernels", _count_wave_kernels, ()),
    (cayley, "convolve", "functions.convolve", _count_convolve, _KERNELS),
    (tree, "tree_heat_weights", "tree.weights", _count_weights, ()),
    (tree, "tree_wave_weights", "tree.weights", _count_weights, ()),
    (tree.WeightTable, "apply", "tree.apply", _count_apply, ()),
    (tree, "radial_mass", "tree.radial_mass", _count_radial_mass, ()),
    (oracles, "cayley_heat_step", "oracles.step", _count_step, ()),
    (oracles, "cayley_wave_step", "oracles.step", _count_step, ()),
    (oracles, "lifted_coset_heat_step", "oracles.step", _count_step, ()),
    (oracles, "lifted_coset_wave_step", "oracles.step", _count_step, ()),
    (oracles, "tree_step_heat", "oracles.step", _count_step, ()),
    (oracles, "tree_step_wave", "oracles.step", _count_step, ()),
    (cli, "function_to_csv", "serialize.emit", _count_csv, ()),
    (cli, "tree_function_to_csv", "serialize.emit", _count_csv, ()),
]


def _wrap(fn, rec, name: str, count, passthrough):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.parent_name() in passthrough:
            return fn(*args, **kwargs)
        with rec.span(name):
            out = fn(*args, **kwargs)
        if count is not None and rec.counting:
            count(rec, out, *args, **kwargs)
        return out

    return wrapper


@contextlib.contextmanager
def instrument(rec):
    """Route the program's layer calls through ``rec`` while the block runs."""
    originals = [(holder, attr, getattr(holder, attr)) for holder, attr, *_ in LAYERS]
    try:
        for (holder, attr, name, count, passthrough), (_, _, fn) in zip(LAYERS, originals):
            setattr(holder, attr, _wrap(fn, rec, name, count, passthrough))
        yield rec
    finally:
        for holder, attr, fn in originals:
            setattr(holder, attr, fn)
