"""Closed-form heat and wave solutions on Cayley graphs of abelian groups.

A generator set S carries its group: every function here lives on S.group,
and data on another group is GroupMismatch (``functions.require_domain``).
A solver checks the data's domain, n and solvability before any kernel.
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

from .errors import NotSolvable
from .functions import (
    SupportedFunction,
    add,
    convolve,
    convolve_polynomials,
    delta,
    require_domain,
    scale,
    trivial_character_sum,
)
from .groups import GeneratorSet, GroupElement, closure, identity, natural


class Kernel(NamedTuple):
    """A propagator kernel."""

    data: SupportedFunction


def _symbol(S: GeneratorSet, center: int, each: int) -> SupportedFunction:
    """The integer function center*delta_e + each*sum_{s in S} delta_s, zeros dropped."""
    out = {identity(S.group): center}
    for s in S.elements:
        out[s] = out.get(s, 0) + each
    return SupportedFunction.trusted(S.group, {x: v for x, v in out.items() if v})


def inverse_symbol_a(S: GeneratorSet) -> SupportedFunction:
    """The Laplacian symbol pulled back to the group: k*delta_e - sum_{s in S} delta_s.

    Its total mass is 0, reflecting that the symbol vanishes at the
    trivial character.
    """
    return _symbol(S, S.degree, -1)


def heat_kernel(S: GeneratorSet, n: int) -> Kernel:
    """Heat propagator K_n = (delta_e - A)^{*n} with A the pulled-back symbol.

    The binomial-sum construction sum_j (-1)^j C(n,j) A^{*j} is the same
    function; ``heat_kernel_binomial`` computes it literally for
    cross-checking.  delta_e - A is the one heat step
    (1-k)*delta_e + sum_s delta_s, with |delta_e - A|_1 = 2k-1.
    """
    n = natural(n, "time index n")
    step = _symbol(S, 1 - S.degree, 1)
    return Kernel(convolve_polynomials(step, [[0] * n + [1]])[0])


def heat_kernel_binomial(S: GeneratorSet, n: int) -> Kernel:
    """K_n via the literal alternating binomial sum of convolution powers."""
    n = natural(n, "time index n")
    A = inverse_symbol_a(S)
    total = power = delta(S.group)
    for j in range(1, n + 1):
        power = convolve(power, A)
        total = add(total, scale(power, (-1) ** j * comb(n, j)))
    return Kernel(total)


def wave_rows(n: int) -> list[list[int]]:
    """The coefficients of F_n and G_n in -A: C(n,2i), 2i <= n, and C(n,2i+1), 2i+1 <= n."""
    n = natural(n, "time index n")
    return [[comb(n, 2 * i + j) for i in range((n - j) // 2 + 1)] for j in (0, 1)]


def wave_kernels(S: GeneratorSet, n: int) -> tuple[Kernel, Kernel]:
    """Wave propagators F_n = sum_i (-1)^i C(n,2i) A^{*i} and G_n = sum_i (-1)^i C(n,2i+1) A^{*i}.

    Both are polynomials in -A (``wave_rows``), with |-A|_1 = 2k.
    """
    F, Gk = convolve_polynomials(_symbol(S, -S.degree, 1), wave_rows(n))
    return Kernel(F), Kernel(Gk)


def heat_solve(f: SupportedFunction, S: GeneratorSet, n: int) -> SupportedFunction:
    """Solution of the heat equation at time n with initial value f."""
    require_domain(S.group, f)
    return convolve(heat_kernel(S, n).data, f)


def wave_solve(
    f: SupportedFunction, g: SupportedFunction, S: GeneratorSet, n: int
) -> SupportedFunction:
    """Solution of the wave equation at time n; g's mass must be 0, checked before any kernel."""
    require_domain(S.group, f, g)
    n = natural(n, "time index n")
    mass = trivial_character_sum(g)
    if mass != 0:
        raise NotSolvable(
            f"wave equation unsolvable: initial velocity has total mass {mass}",
            detail=mass,
        )
    Fn, Gn = wave_kernels(S, n)
    return add(convolve(Fn.data, f), convolve(Gn.data, g))


def ball(S: GeneratorSet, radius: int) -> set[GroupElement]:
    """The word-metric ball of the given radius around the identity (``groups.closure``)."""
    return closure(S.group, S.elements, natural(radius, "radius"))
