"""Closed-form heat and wave solutions on Cayley graphs of abelian groups.

The Laplacian's Fourier symbol pulls back to the finitely supported
function A = k*delta_e - sum_s delta_s.  Every propagator is an integer
polynomial in one step: the heat propagator at time n is the n-th
convolution power of delta_e - A, and the wave propagators are
binomial sums in -A.  ``functions.convolve_polynomials`` evaluates them,
and ``functions.convolve`` applies them to the data; both multiply packed
``int``s wherever the layout is dense enough.  The tree weight tables
use the same rows in the tree's step but do not evaluate them here: they
run integer recurrences for the rows' coefficients on Z (``tree``).
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import GroupMismatch, NotSolvable
from .functions import (
    SupportedFunction,
    add,
    convolve,
    convolve_polynomials,
    delta,
    scale,
    trivial_character_sum,
)
from .groups import GeneratorSet, GroupElement, GroupSpec, adder, identity, natural


class Kernel(NamedTuple):
    """A propagator kernel."""

    data: SupportedFunction


def _symbol(G: GroupSpec, S: GeneratorSet, center: int, each: int) -> SupportedFunction:
    """The integer function center*delta_e + each*sum_{s in S} delta_s, zeros dropped."""
    out = {identity(G): center}
    for s in S.elements:
        out[s] = out.get(s, 0) + each
    return SupportedFunction.trusted(G, {x: v for x, v in out.items() if v})


def inverse_symbol_a(G: GroupSpec, S: GeneratorSet) -> SupportedFunction:
    """The Laplacian symbol pulled back to the group: k*delta_e - sum_{s in S} delta_s.

    Its total mass is 0, reflecting that the symbol vanishes at the
    trivial character.
    """
    return _symbol(G, S, S.degree, -1)


def heat_kernel(G: GroupSpec, S: GeneratorSet, n: int) -> Kernel:
    """Heat propagator K_n = (delta_e - A)^{*n} with A the pulled-back symbol.

    The binomial-sum construction sum_j (-1)^j C(n,j) A^{*j} is the same
    function; ``heat_kernel_binomial`` computes it literally for
    cross-checking.  delta_e - A is the one heat step
    (1-k)*delta_e + sum_s delta_s, with |delta_e - A|_1 = 2k-1.
    """
    n = natural(n, "time index n")
    step = _symbol(G, S, 1 - S.degree, 1)
    return Kernel(convolve_polynomials(step, [[0] * n + [1]])[0])


def heat_kernel_binomial(G: GroupSpec, S: GeneratorSet, n: int) -> Kernel:
    """K_n via the literal alternating binomial sum of convolution powers."""
    n = natural(n, "time index n")
    A = inverse_symbol_a(G, S)
    total = delta(G)
    power = delta(G)
    for j in range(1, n + 1):
        power = convolve(power, A)
        total = add(total, scale(power, (-1) ** j * comb(n, j)))
    return Kernel(total)


def wave_rows(n: int) -> list[list[int]]:
    """The coefficients of F_n and G_n in -A: C(n,2i), 2i <= n, and C(n,2i+1), 2i+1 <= n."""
    n = natural(n, "time index n")
    return [[comb(n, 2 * i + j) for i in range((n - j) // 2 + 1)] for j in (0, 1)]


def wave_kernels(G: GroupSpec, S: GeneratorSet, n: int) -> tuple[Kernel, Kernel]:
    """Wave propagators F_n = sum_i (-1)^i C(n,2i) A^{*i} and G_n = sum_i (-1)^i C(n,2i+1) A^{*i}.

    Both are polynomials in -A (``wave_rows``), with |-A|_1 = 2k.
    """
    n = natural(n, "time index n")
    F, Gk = convolve_polynomials(_symbol(G, S, -S.degree, 1), wave_rows(n))
    return Kernel(F), Kernel(Gk)


def heat_solve(f: SupportedFunction, S: GeneratorSet, n: int) -> SupportedFunction:
    """Solution of the heat equation at time n with initial value f."""
    return convolve(heat_kernel(f.group, S, n).data, f)


def wave_solve(
    f: SupportedFunction, g: SupportedFunction, S: GeneratorSet, n: int
) -> SupportedFunction:
    """Solution of the wave equation at time n; requires g to have zero total mass."""
    if f.group != g.group:
        raise GroupMismatch("initial value and initial velocity live on different groups")
    # Kernels first: they reject a negative n before g's mass is looked at.
    Fn, Gn = wave_kernels(f.group, S, n)
    mass = trivial_character_sum(g)
    if mass != 0:
        raise NotSolvable(
            f"wave equation unsolvable: initial velocity has total mass {mass}",
            detail=mass,
        )
    return add(convolve(Fn.data, f), convolve(Gn.data, g))


def ball(G: GroupSpec, S: GeneratorSet, radius: int) -> set[GroupElement]:
    """The word-metric ball of the given radius around the identity."""
    radius, step = natural(radius, "radius"), adder(G)
    current = {identity(G)}
    seen = set(current)
    for _ in range(radius):
        nxt = set()
        for x in current:
            for s in S.elements:
                y = step(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.add(y)
        current = nxt
    return seen
