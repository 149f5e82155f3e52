"""Readers and references that only the tests use.

The CSV readers parse what ``serialize`` writes, through the wire's own
row reader; ``eval_vertices_by_word`` is the reference for the window
check, ``alpha_two_sums`` for ``tree.alpha_coeff``, ``convolve_power``
and ``symbol_eval`` for the kernel tests, ``reflect``, ``l1_norm`` and
``l2_norm_squared`` for the solution tests, and
``stepped_weights`` and ``convolved_weights`` for the tree weight tables,
the latter from the Laurent polynomials of ``line_propagators`` (its wave
pair by exact doubling, ``_wave_pair``) or, one time step further,
``stepped_line_propagators``.  ``within`` fails a block that runs too
long, so a call that never returns fails its test instead of hanging it,
and ``rewritten`` plants a fault in one line of a real function.
"""

import cmath
import csv
import inspect
import signal
import textwrap
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterable, Sequence

from lattice_waves import serialize
from lattice_waves.cayley import wave_rows
from lattice_waves.errors import ShapeMismatch, TorsionUnsupported
from lattice_waves.functions import SupportedFunction, add, convolve, convolve_polynomials, scale
from lattice_waves.groups import (
    GeneratorSet, GroupElement, GroupSpec, array, elem_neg, make_element, make_group,
)
from lattice_waves.tree import TreeFunction, TreeVertex, make_vertex, sphere_size


@contextmanager
def within(seconds: float):
    """Raise TimeoutError in the block once it has run ``seconds`` (SIGALRM, main thread)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def rewritten(module, old, new):
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


def element_from_label(G: GroupSpec, label: str) -> GroupElement:
    coords = [int(v) for v in label.split(";")] if label else []
    if len(coords) != G.rank + len(G.moduli):
        raise ShapeMismatch(f"label {label!r} has wrong coordinate count for the group")
    return make_element(G, coords[: G.rank], coords[G.rank :])


def vertex_from_label(k: int, label: str) -> TreeVertex:
    return make_vertex([int(v) for v in label.split(";")] if label else [], k)


def _csv_rows(text: str, parse_label: Callable) -> Iterable[tuple]:
    """(key, num, den) triples of a CSV written by ``serialize``; fields may be quoted."""
    reader = csv.reader(line for line in text.splitlines() if line and not line.startswith("#"))
    header = next(reader, None)
    if header != ["vertex", "num", "den"]:
        raise ShapeMismatch(f"unexpected CSV header {header}")
    return ((parse_label(label), num, den) for label, num, den in reader)


def function_from_csv(text: str, G: GroupSpec) -> SupportedFunction:
    rows = _csv_rows(text, lambda label: element_from_label(G, label))
    return SupportedFunction.trusted(G, *serialize._summed_rows(rows))


def tree_function_from_csv(text: str, k: int) -> TreeFunction:
    rows = _csv_rows(text, lambda label: vertex_from_label(k, label))
    return TreeFunction.trusted(k, *serialize._summed_rows(rows))


def eval_vertices_by_word(words, k: int) -> list[TreeVertex]:
    """An ``eval.vertices`` array read and checked one word at a time, each by ``make_vertex``."""
    return [make_vertex(w, k) for w in array(words, "eval vertices")]


def alpha_two_sums(j: int, s: int, k: int) -> int:
    """``tree.alpha_coeff`` as two sums of binomial products, one per sign of s."""
    if s >= 0:
        return (-1) ** s * sum(
            comb(j, l + s) * comb(j, l) * (k - 1) ** l for l in range(j - s + 1)
        )
    return (-1) ** (-s) * sum(
        comb(j, l - s) * comb(j, l) * (k - 1) ** (l - s) for l in range(j + s + 1)
    )


def convolve_power(f: SupportedFunction, n: int) -> SupportedFunction:
    """n-fold convolution power; n=0 gives delta_e.

    f's numerators are raised by ``convolve_polynomials`` and divided by
    the n-th power of f's denominator.
    """
    G = f.group
    out = convolve_polynomials(SupportedFunction.trusted(G, f.numerators), [[0] * n + [1]])[0]
    d = f.denominator**n
    return SupportedFunction(G, {x: Fraction(v, d) for x, v in out.numerators.items()})


def reflect(f: SupportedFunction) -> SupportedFunction:
    """The function x -> f(-x)."""
    G = f.group
    negated = {elem_neg(G, x): v for x, v in f.numerators.items()}
    return SupportedFunction.trusted(G, negated, f.denominator)


def l1_norm(f: SupportedFunction) -> Fraction:
    return Fraction(sum(map(abs, f.numerators.values())), f.denominator)


def l2_norm_squared(f: SupportedFunction) -> Fraction:
    return Fraction(sum(v * v for v in f.numerators.values()), f.denominator**2)


def symbol_eval(S: GeneratorSet, t: Sequence[float]) -> complex:
    """Evaluate the Laplacian symbol at the character of Z^d with angles t.

    Real-valued whenever S is symmetric; vanishes at t = 0.
    """
    for s in S.elements:
        if s.torsion:
            raise TorsionUnsupported("symbol evaluation requires a torsion-free group")
        if len(s.free) != len(t):
            raise TorsionUnsupported(
                f"angle vector has length {len(t)}, expected {len(s.free)}"
            )
    total = complex(S.degree)
    for s in S.elements:
        phase = sum(ti * si for ti, si in zip(t, s.free))
        total -= cmath.exp(-1j * phase)
    return total


def advance_row(row: list[int], k: int, center: int) -> list[int]:
    """Advance the evaluation functional of a radialized step by one step.

    The step is center*delta_e plus the sum over the k neighbours.
    Radialized around the evaluation vertex it is the half-line update
    p(r) -> (k-1) p(r+1) + p(|r-1|) + center p(r) on radial profiles, where
    |r-1| encodes the even boundary M(-1) = M(1) that the spherical-mean
    reduction imposes at the center.  The value at the center after n steps
    is a linear functional of the initial profile; this right-multiplies its
    integer coefficient row by the update matrix.
    """
    out = [0] * (len(row) + 1)
    for r, c in enumerate(row):
        if not c:
            continue
        out[r] += center * c
        if r == 0:
            out[1] += k * c
        else:
            out[r + 1] += (k - 1) * c
            out[r - 1] += c
    return out


def stepped_weights(k: int, center: int, rows: list[list[int]]) -> list[list[int]]:
    """The weights of sum_i row[i] X^i for each row, X the radialized step with ``center``.

    The evaluated row's entry s is S(s) times weight s, S(s) the size of
    the radius-s sphere; the rows share the powers of X.
    """
    out = [[0] * len(row) for row in rows]
    power = [1]
    for i in range(max(map(len, rows))):
        if i:
            power = advance_row(power, k, center)
        for table, row in zip(out, rows):
            if i < len(row) and row[i]:
                for s, p in enumerate(power):
                    table[s] += row[i] * p
    return [[c // sphere_size(k, s) for s, c in enumerate(table)] for table in out]


def _times_step(p: dict[int, int], k: int, center: int) -> dict[int, int]:
    """The Laurent polynomial p times the step center + z + (k-1)/z."""
    out: dict[int, int] = {}
    for m, c in p.items():
        for shift, a in ((0, center), (1, 1), (-1, k - 1)):
            out[m + shift] = out.get(m + shift, 0) + a * c
    return out


def _line_step(k: int, center: int) -> SupportedFunction:
    """The step center*delta_0 + delta_1 + (k-1)*delta_{-1} on Z."""
    step = {GroupElement((m,), ()): c for m, c in ((0, center), (1, 1), (-1, k - 1))}
    return SupportedFunction.trusted(make_group(1, []), step)


@lru_cache(maxsize=None)
def _wave_pair(k: int, n: int) -> tuple[SupportedFunction, SupportedFunction]:
    """(F, G) on Z with (1 + sqrt X)^n = F + G sqrt X, X the step with centre -k.

    Horner's rule on the rows C(n, 2i), C(n, 2i+1) (``convolve_polynomials``)
    up to n = 16; beyond, exact doubling (F, G) -> (F^2 + X G^2, 2 F G) from
    n // 2 and, for odd n, one step (F + X G, F + G) from n - 1, each
    product one ``convolve``.  Horner's rule alone at n = 1000 takes
    seconds: its coefficients are hundreds of digits long at every step.
    """
    X = _line_step(k, -k)
    if n <= 16:
        return tuple(convolve_polynomials(X, wave_rows(n)))
    if n % 2:
        F, G = _wave_pair(k, n - 1)
        return add(F, convolve(X, G)), add(F, G)
    F, G = _wave_pair(k, n // 2)
    return add(convolve(F, F), convolve(X, convolve(G, G))), scale(convolve(F, G), 2)


@lru_cache(maxsize=None)
def line_propagators(k: int, n: int) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """The heat propagator and the wave pair (F, G) at time n as Laurent polynomials on Z.

    Each is a polynomial in the step center*delta_0 + delta_1 +
    (k-1)*delta_{-1}: heat the n-th power of the step with centre 1 - k
    (one ``convolve_polynomials`` call), the wave pair that of
    ``_wave_pair``, centre -k.  Cached: the evaluation is most of a large-n
    weight test's time.
    """
    K = convolve_polynomials(_line_step(k, 1 - k), [[0] * n + [1]])
    return tuple({x.free[0]: v for x, v in h.numerators.items()}
                 for h in (*K, *_wave_pair(k, n)))


def stepped_line_propagators(k: int, n: int) -> list[dict[int, int]]:
    """``line_propagators(k, n - 1)`` taken one exact step on: K X, F + X G and F + G.

    The wave pair follows from (1 + sqrt X)^n = (F + G sqrt X)(1 + sqrt X).
    """
    K, F, G = line_propagators(k, n - 1)
    XG = _times_step(G, k, -k)
    return [_times_step(K, k, 1 - k),
            {m: F.get(m, 0) + XG.get(m, 0) for m in F.keys() | XG.keys()},
            {m: F.get(m, 0) + G.get(m, 0) for m in F.keys() | G.keys()}]


def convolved_weights(k: int, polynomials: Sequence[dict[int, int]],
                      sizes: Sequence[int]) -> list[list[int]]:
    """The tree weights of each Laurent polynomial on Z, ``sizes`` of them per table.

    The inverse Abel transform takes the coefficients L(m) back to the
    tree: weight[s] = L(s) - (k-2) sum_{j>=1} L(s+2j).  With the
    polynomials of ``line_propagators`` it shares no code with the table
    recurrences and reaches n = 1000, where ``stepped_weights`` is too slow.
    """
    out = []
    for L, size in zip(polynomials, sizes):
        weights = [L.get(m, 0) for m in range(size)]
        tails = [0, 0]
        for s in reversed(range(size)):
            weights[s] -= (k - 2) * tails[s % 2]
            tails[s % 2] += L.get(s, 0)
        out.append(weights)
    return out
