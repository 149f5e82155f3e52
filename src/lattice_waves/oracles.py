"""Brute-force time steppers used as ground truth for the closed forms.

Each stepper applies one exact step of the defining recurrence, sharing
nothing with the closed-form engine beyond the scalar and element types.
They are deliberately naive and slow.  The group and tree steppers scale
their inputs to integers over a common denominator, accumulate integers,
and divide once per output value.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, zip_longest
from math import lcm, pi
from typing import Callable, Iterator

from .cosets import CosetProblem
from .errors import CosetInconstant, GroupMismatch, TorsionUnsupported
from .functions import SupportedFunction, add
from .groups import GeneratorSet, GroupElement, adder
from .tree import TreeFunction, neighbors


def _common_denominator(*maps: dict) -> int:
    return lcm(*(v.denominator for m in maps for v in m.values()))


def _numerators(values: dict, d: int) -> dict:
    """Each value times d, as an int; d must be a multiple of every denominator."""
    return {x: v.numerator * (d // v.denominator) for x, v in values.items()}


def _rationals(numerators: dict, d: int) -> dict:
    """The non-zero numerators over d, as Fractions.

    Equal numerators share one Fraction: on trees most values repeat, since
    the solution is symmetric about the data.
    """
    made: dict[int, Fraction] = {}
    out = {}
    for x, v in numerators.items():
        if v:
            r = made.get(v)
            if r is None:
                r = made[v] = Fraction(v, d)
            out[x] = r
    return out


def cayley_heat_step(u: SupportedFunction, S: GeneratorSet) -> SupportedFunction:
    """u(x, n+1) = sum_i u(x + s_i, n) - (k-1) u(x, n)."""
    G = u.group
    k = S.degree
    step = adder(G)
    d = _common_denominator(u.entries)
    out: dict[GroupElement, int] = {}
    get = out.get
    for x, v in _numerators(u.entries, d).items():
        out[x] = get(x, 0) - (k - 1) * v
        for s in S.elements:
            # u(x+s) contributes to position x; equivalently v spreads to x-s,
            # and S = -S makes the two bookkeepings identical.
            y = step(x, s)
            out[y] = get(y, 0) + v
    return SupportedFunction.trusted(G, _rationals(out, d))


def cayley_wave_step(
    u_prev: SupportedFunction, u_curr: SupportedFunction, S: GeneratorSet
) -> SupportedFunction:
    """u(x, n+2) = 2 u(x, n+1) + sum_i u(x + s_i, n) - (k+1) u(x, n)."""
    if u_prev.group != u_curr.group:
        raise GroupMismatch("wave step arguments live on different groups")
    G = u_curr.group
    k = S.degree
    step = adder(G)
    d = _common_denominator(u_prev.entries, u_curr.entries)
    out = {x: 2 * v for x, v in _numerators(u_curr.entries, d).items()}
    get = out.get
    for x, v in _numerators(u_prev.entries, d).items():
        out[x] = get(x, 0) - (k + 1) * v
        for s in S.elements:
            y = step(x, s)
            out[y] = get(y, 0) + v
    return SupportedFunction.trusted(G, _rationals(out, d))


def cayley_wave_trajectory(
    f: SupportedFunction, g: SupportedFunction, S: GeneratorSet, n: int
) -> list[SupportedFunction]:
    """u(.,0) .. u(.,n) by direct stepping, seeded by u0 = f, u1 = f + g."""
    return list(islice(trajectory(cayley_wave_step, f, g, S), n + 1))


def trajectory(step: Callable, f, g, *args) -> Iterator:
    """The states u(., 0), u(., 1), ... of one recurrence, each stepped when read.

    With g None, ``step`` is a heat stepper: u(., n+1) = step(u(., n), *args)
    from u(., 0) = f.  Otherwise it is a wave stepper: u(., 0) = f,
    u(., 1) = f + g and u(., n+2) = step(u(., n), u(., n+1), *args).  f and g
    are both group functions, tree functions or radial profiles (lists).
    """
    if g is None:
        while True:
            yield f
            f = step(f, *args)
    yield f
    prev, curr = f, _plus(f, g)
    while True:
        yield curr
        prev, curr = curr, step(prev, curr, *args)


def _plus(f, g):
    if isinstance(f, list):
        return [a + b for a, b in zip_longest(f, g, fillvalue=Fraction(0))]
    if isinstance(f, TreeFunction):
        return TreeFunction(f.k, {x: f(x) + g(x) for x in f.support() | g.support()})
    return add(f, g)


def _check_coset_constant(u: SupportedFunction, P: CosetProblem) -> None:
    """Raise unless u is constant on every coset of H.

    No fiber is listed: a coset where u is non-zero must hold all |H| of
    its elements as entries, all with one value.
    """
    values: dict[GroupElement, Fraction] = {}
    counts: dict[GroupElement, int] = {}
    for x, v in u.entries.items():
        q = P.quot.project(x)
        if values.setdefault(q, v) != v:
            raise CosetInconstant(f"function takes two values on the coset of {x}")
        counts[q] = counts.get(q, 0) + 1
    for q, v in values.items():
        if v != 0 and counts[q] != P.H_order:
            raise CosetInconstant(f"function is not constant on the fiber of {q}")


def lifted_coset_heat_step(u: SupportedFunction, P: CosetProblem) -> SupportedFunction:
    """One step of the scaled-Laplacian recurrence on the lifted graph.

    u(x, n+1) = u(x, n) - (1/|H|) (k |H| u(x, n) - sum_{h in H} sum_i u(x+h+s_i, n)),
    where the s_i run over one representative per distinct coset of S.
    """
    _check_coset_constant(u, P)
    G = P.base_group
    k = P.S_tilde.degree
    h_order = P.H_order
    step = adder(G)
    # Scaling by h_order as well keeps the spread v / |H| an integer.
    d = _common_denominator(u.entries) * h_order
    out: dict[GroupElement, int] = {}
    get = out.get
    for x, v in _numerators(u.entries, d).items():
        out[x] = get(x, 0) + v - k * v
        spread = v // h_order
        for h in P.quot.subgroup:
            for s in P.coset_reps:
                y = step(step(x, h), s)
                out[y] = get(y, 0) + spread
    result = SupportedFunction.trusted(G, _rationals(out, d))
    _check_coset_constant(result, P)
    return result


def lifted_coset_wave_step(
    u_prev: SupportedFunction, u_curr: SupportedFunction, P: CosetProblem
) -> SupportedFunction:
    """One step of the scaled-Laplacian wave recurrence on the lifted graph.

    u(x, n+2) = 2 u(x, n+1) - u(x, n) - (1/|H|)(k |H| u(x, n) - sum_{h,i} u(x+h+s_i, n)).
    """
    _check_coset_constant(u_prev, P)
    _check_coset_constant(u_curr, P)
    G = P.base_group
    k = P.S_tilde.degree
    h_order = P.H_order
    step = adder(G)
    d = _common_denominator(u_prev.entries, u_curr.entries) * h_order
    out = {x: 2 * v for x, v in _numerators(u_curr.entries, d).items()}
    get = out.get
    for x, v in _numerators(u_prev.entries, d).items():
        out[x] = get(x, 0) - v - k * v
        spread = v // h_order
        for h in P.quot.subgroup:
            for s in P.coset_reps:
                y = step(step(x, h), s)
                out[y] = get(y, 0) + spread
    result = SupportedFunction.trusted(G, _rationals(out, d))
    _check_coset_constant(result, P)
    return result


def tree_step_heat(u: TreeFunction) -> TreeFunction:
    """u(x, n+1) = sum_{y ~ x} u(y, n) - (k-1) u(x, n) over reduced-word neighbors."""
    k = u.k
    d = _common_denominator(u.entries)
    out: dict[tuple, int] = {}
    get = out.get
    for x, v in _numerators(u.entries, d).items():
        out[x] = get(x, 0) - (k - 1) * v
        for y in neighbors(x, k):
            out[y] = get(y, 0) + v
    # Neighbors of reduced words are reduced words.
    return TreeFunction.trusted(k, _rationals(out, d))


def tree_step_wave(u_prev: TreeFunction, u_curr: TreeFunction) -> TreeFunction:
    """u(x, n+2) = 2 u(x, n+1) + sum_{y ~ x} u(y, n) - (k+1) u(x, n)."""
    k = u_curr.k
    d = _common_denominator(u_prev.entries, u_curr.entries)
    out = {x: 2 * v for x, v in _numerators(u_curr.entries, d).items()}
    get = out.get
    for x, v in _numerators(u_prev.entries, d).items():
        out[x] = get(x, 0) - (k + 1) * v
        for y in neighbors(x, k):
            out[y] = get(y, 0) + v
    return TreeFunction.trusted(k, _rationals(out, d))


@dataclass
class PathProfile:
    """A finitely supported profile on the integers (the radialized line)."""

    values: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        self.values = {int(r): Fraction(v) for r, v in self.values.items() if v != 0}

    def __call__(self, r: int) -> Fraction:
        return self.values.get(r, Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, PathProfile) and self.values == other.values


def even_profile(radial: list[Fraction]) -> PathProfile:
    """Even extension of a radial profile (r >= 0) to the whole line."""
    values = {r: v for r, v in enumerate(radial)}
    for r, v in enumerate(radial):
        if r > 0:
            values[-r] = v
    return PathProfile(values)


def path_step_heat(u: PathProfile, k: int) -> PathProfile:
    """u(r, n+1) = (k-1) u(r+1, n) + u(r-1, n) - (k-1) u(r, n).

    The asymmetric reduction of the tree step; for k = 2 it degenerates to
    the symmetric path step.
    """
    out: dict[int, Fraction] = {}
    for r, v in u.values.items():
        out[r] = out.get(r, Fraction(0)) - (k - 1) * v
        # v at r feeds (k-1)*v to r-1 (as u(r+1) seen from r-1) and v to r+1.
        out[r - 1] = out.get(r - 1, Fraction(0)) + (k - 1) * v
        out[r + 1] = out.get(r + 1, Fraction(0)) + v
    return PathProfile(out)


def radial_step_heat(profile: list[Fraction], k: int) -> list[Fraction]:
    """One heat step of the radialized tree recurrence on r >= 0.

    u(r, n+1) = (k-1) u(r+1, n) + u(r-1, n) - (k-1) u(r, n), with the even
    boundary value u(-1, n) = u(1, n) that the spherical-mean reduction
    imposes at the center.  Stepping the radial profile of the initial data
    this way and reading r = 0 reproduces the tree solution exactly.
    """

    def at(r: int) -> Fraction:
        r = abs(r)
        return profile[r] if r < len(profile) else Fraction(0)

    return [
        (k - 1) * at(r + 1) + at(r - 1) - (k - 1) * at(r)
        for r in range(len(profile) + 1)
    ]


def radial_step_wave(
    prev: list[Fraction], curr: list[Fraction], k: int
) -> list[Fraction]:
    """One wave step of the radialized tree recurrence on r >= 0.

    u(r, n+2) = 2 u(r, n+1) - (k+1) u(r, n) + (k-1) u(r+1, n) + u(r-1, n),
    again with the even boundary value at the center.
    """

    def at(p: list[Fraction], r: int) -> Fraction:
        r = abs(r)
        return p[r] if r < len(p) else Fraction(0)

    return [
        2 * at(curr, r) - (k + 1) * at(prev, r) + (k - 1) * at(prev, r + 1) + at(prev, r - 1)
        for r in range(max(len(prev), len(curr)) + 1)
    ]


def quadrature_kernel(S: GeneratorSet, n: int, r: int) -> float:
    """Heat kernel coefficient on Z by trapezoid quadrature of the symbol power.

    Uses N = 2*n*span + 2 uniform nodes, where span is the largest
    generator magnitude (so N = 2n+2 for unit generators); the integrand is
    a trigonometric polynomial of degree at most n*span + |r| < N, for
    which the uniform trapezoid rule is exact up to floating-point
    rounding.
    """
    for s in S.elements:
        if s.torsion or len(s.free) != 1:
            raise TorsionUnsupported("quadrature diagnostic is restricted to Z")
    k = S.degree
    span = max(abs(s.free[0]) for s in S.elements)
    N = 2 * n * span + 2
    total = 0.0 + 0.0j
    for m in range(N):
        t = 2 * pi * m / N
        a = k - sum(cmath.exp(-1j * t * s.free[0]) for s in S.elements)
        total += (1 - a) ** n * cmath.exp(-1j * r * t)
    return (total / N).real
