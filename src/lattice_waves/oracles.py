"""Brute-force time steppers used as ground truth for the closed forms.

Every stepper is one of the paper's two time rules, heat u - Δu and wave
2 u1 - u0 - Δu0, applied to the combinatorial Laplacian
Δf(x) = deg(x) f(x) - sum_{y ~ x} f(y) of its graph, added as -Δu into an
integer accumulator.  On groups (shifts x + s, s over S on a Cayley graph,
over S~ on the lifted coset graph) u is stepped one torsion block at a
time: the points that share a torsion tuple t share each t + s, reduced
once per block and shift; on trees u(x) feeds its reduced-word
neighbours.  These rules step the states' integer numerators over one
common denominator and reduce the result to lowest terms.  The radial
steppers run the tree recurrence on spheres, on a list p(0), p(1), ...
with the even boundary value p(-1) = p(1) at the centre, in integer
numerators over the lcm of the list's denominators.

The lifted coset graph's Laplacian is 1/|H| times the sum over the shifts
h + s, H x S~.  The lifted steppers check that each state they are given
is constant on cosets of H; on such a u sum_{h in H} u(x + h + s) =
|H| u(x + s), so the scaled sum over H x S~ is the plain sum over S~, and
the step is constant on cosets too, so it is not checked again.  The
steppers step on the base group and never read the quotient's coordinates;
the check compares each torsion block with its shift by each generator of
H.  Nothing is shared with the closed-form engine beyond the element types,
the value form (``Scaled``, ``lowest_terms``, ``add``) and the input rules
(``require_domain``, ``tree._degree``); the steppers are naive and slow by
design.

The float quadrature of the Z heat kernel (``quadrature_kernels``) has one
domain rule, ``quadrature_domain``: Z only, the node count and its budget,
and the 2^51 limit past which floats cannot resolve K_n, checked before any
node is taken; ``verify.quadrature_errors`` reads its tolerance from the same
rule.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import islice, repeat, zip_longest
from math import lcm, pi
from operator import add as add_int, mod
from typing import Callable, Iterator, Sequence

from .cosets import CosetProblem
from .errors import CosetInconstant, IndexOutOfRange, TorsionUnsupported
from .functions import Scaled, SupportedFunction, add, lowest_terms, require_domain
from .groups import GeneratorSet, GroupElement, GroupSpec, integer, natural
from .tree import TreeFunction, _degree, neighbors

# laplacian(acc, u) adds -Δu into acc; both map points to int numerators.
Laplacian = Callable[[dict, dict], None]


def _times(numerators: dict, c: int) -> dict:
    return {x: c * v for x, v in numerators.items()} if c != 1 else numerators


def _heat(u: Scaled, laplacian: Laplacian) -> Scaled:
    """u - Δu over u's denominator."""
    acc = dict(u.numerators)
    laplacian(acc, u.numerators)
    return type(u).trusted(u.tag, *lowest_terms(acc, u.denominator))


def _wave(u0: Scaled, u1: Scaled, laplacian: Laplacian) -> Scaled:
    """2 u1 - u0 - Δu0 over one common denominator; u0 and u1 share a tag (GroupMismatch)."""
    require_domain(u1.tag, u0)
    d = lcm(u0.denominator, u1.denominator)
    numerators = _times(u0.numerators, d // u0.denominator)
    acc = _times(u1.numerators, 2 * (d // u1.denominator))
    get = acc.get
    for x, v in numerators.items():
        acc[x] = get(x, 0) - v
    laplacian(acc, numerators)
    return type(u1).trusted(u1.tag, *lowest_terms(acc, d))


def _group_laplacian(G: GroupSpec, shifts: Sequence[GroupElement]) -> Laplacian:
    """Shifts x + s over a set closed under negation (on the lifted graph, modulo H).

    u is stepped one torsion block at a time, a block being the points of
    one torsion tuple t.  They all share t + s, so each block reduces it
    modulo G's moduli once per shift and adds s.free to each of its points'
    free tuples.
    """
    k, moduli, new = len(shifts), G.moduli, tuple.__new__

    def laplacian(acc: dict, u: dict) -> None:
        get = acc.get
        blocks: dict[tuple[int, ...], list] = {}
        for x, v in u.items():
            acc[x] = get(x, 0) - k * v
            blocks.setdefault(x.torsion, []).append((x.free, v))
        for t, block in blocks.items():
            for s in shifts:
                torsion, step = tuple(map(mod, map(add_int, t, s.torsion), moduli)), s.free
                for free, v in block:
                    y = new(GroupElement, (tuple(map(add_int, free, step)), torsion))
                    acc[y] = get(y, 0) + v
    return laplacian


def _tree_laplacian(k: int) -> Laplacian:
    """u(x) adds -k u(x) at x and u(x) at each reduced-word neighbour, itself a reduced word."""
    def laplacian(acc: dict, u: dict) -> None:
        get = acc.get
        for x, v in u.items():
            acc[x] = get(x, 0) - k * v
            for y in neighbors(x, k):
                acc[y] = get(y, 0) + v
    return laplacian


def cayley_heat_step(u: SupportedFunction, S: GeneratorSet) -> SupportedFunction:
    """u(x, n+1) = sum_i u(x + s_i, n) - (k-1) u(x, n), for u on S's group."""
    require_domain(S.group, u)
    return _heat(u, _group_laplacian(S.group, S.elements))


def cayley_wave_step(
    u_prev: SupportedFunction, u_curr: SupportedFunction, S: GeneratorSet
) -> SupportedFunction:
    """u(x, n+2) = 2 u(x, n+1) + sum_i u(x + s_i, n) - (k+1) u(x, n), for u on S's group."""
    require_domain(S.group, u_curr)
    return _wave(u_prev, u_curr, _group_laplacian(S.group, S.elements))


def cayley_wave_trajectory(
    f: SupportedFunction, g: SupportedFunction, S: GeneratorSet, n: int
) -> list[SupportedFunction]:
    """u(.,0) .. u(.,n) by direct stepping, seeded by u0 = f, u1 = f + g."""
    return list(islice(trajectory(cayley_wave_step, f, g, S), natural(n, "time index n") + 1))


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
    return add(f, g)


def _check_coset_constant(u: SupportedFunction, P: CosetProblem) -> None:
    """Raise unless u lives on P's base group and is constant on every coset of H.

    The generators h of H are torsion-only (H is finite), so x + h keeps
    x's free tuple.  u is grouped by torsion into blocks
    {t: {free: numerator}}, and u passes iff block(t + h) == block(t) for
    every block t and every h, one dict comparison each.  Exact: if the
    comparisons hold, u(x + h) = u(x) at every x of the support, so
    x -> x + h maps the finite support into, hence onto, itself, and u is
    constant on every coset.  Conversely, on such a u that map takes the
    support onto itself and keeps free tuples, so block(t + h) and block(t)
    have the same keys and the same value at each.  The error names the
    first point of the failing block.
    """
    require_domain(P.base_group, u)
    moduli = P.base_group.moduli
    blocks: dict[tuple[int, ...], dict] = {}
    for x, v in u.numerators.items():
        blocks.setdefault(x.torsion, {})[x.free] = v
    for t, block in blocks.items():
        for h in P.subgroup_gens:
            if blocks.get(tuple(map(mod, map(add_int, t, h.torsion), moduli))) != block:
                x = GroupElement(next(iter(block)), t)
                raise CosetInconstant(f"function is not constant on the coset of {x}")


def lifted_coset_heat_step(u: SupportedFunction, P: CosetProblem) -> SupportedFunction:
    """One step of the scaled-Laplacian recurrence on the lifted graph.

    u(x, n+1) = u(x, n) - (1/|H|) (k |H| u(x, n) - sum_{h in H} sum_i u(x+h+s_i, n)),
    where the s_i run over one representative per distinct coset of S.  u is
    checked constant on cosets, so the double sum is |H| sum_i u(x+s_i, n),
    and the step, constant on cosets too, is returned unchecked.
    """
    _check_coset_constant(u, P)
    return _heat(u, _group_laplacian(P.base_group, P.coset_reps))


def lifted_coset_wave_step(
    u_prev: SupportedFunction, u_curr: SupportedFunction, P: CosetProblem
) -> SupportedFunction:
    """One step of the scaled-Laplacian wave recurrence on the lifted graph.

    u(x, n+2) = 2 u(x, n+1) - u(x, n) - (1/|H|)(k |H| u(x, n) - sum_{h,i} u(x+h+s_i, n)),
    stepped over S~ alone as in ``lifted_coset_heat_step``; both states are checked, the step not.
    """
    _check_coset_constant(u_prev, P)
    _check_coset_constant(u_curr, P)
    return _wave(u_prev, u_curr, _group_laplacian(P.base_group, P.coset_reps))


def tree_step_heat(u: TreeFunction) -> TreeFunction:
    """u(x, n+1) = sum_{y ~ x} u(y, n) - (k-1) u(x, n) over reduced-word neighbors."""
    return _heat(u, _tree_laplacian(u.k))


def tree_step_wave(u_prev: TreeFunction, u_curr: TreeFunction) -> TreeFunction:
    """u(x, n+2) = 2 u(x, n+1) + sum_{y ~ x} u(y, n) - (k+1) u(x, n)."""
    return _wave(u_prev, u_curr, _tree_laplacian(u_curr.k))


def _over_lcm(*profiles: list) -> tuple[int, list[list[int]]]:
    """(d, the profiles' integer numerators over d), d the lcm of every entry's denominator."""
    profiles = [list(map(Fraction, p)) for p in profiles]
    d = lcm(*(v.denominator for p in profiles for v in p))
    return d, [[v.numerator * (d // v.denominator) for v in p] for p in profiles]


def _radial_heat(p: list[int], q: int, length: int) -> list[int]:
    """q p(r+1) + p(r-1) - q p(r), q = k - 1, the tree's u - Δu on spheres, at r < length.

    p holds integer numerators; p(-1) = p(1), the even boundary value at
    the centre, and p is 0 past its end.
    """
    p = [*p, *repeat(0, length + 1 - len(p))]
    return [q * (p[r + 1] - p[r]) + p[abs(r - 1)] for r in range(length)]


def radial_step_heat(profile: list[Fraction], k: int) -> list[Fraction]:
    """One heat step of the radialized tree recurrence on r >= 0, one entry longer.

    u(r, n+1) = (k-1) u(r+1, n) + u(r-1, n) - (k-1) u(r, n) with u(-1, n) = u(1, n):
    stepping the initial data's radial profile and reading r = 0 gives the tree solution.
    The step runs on integer numerators over one common denominator.
    """
    q = _degree(k) - 1
    d, (p,) = _over_lcm(profile)
    return [Fraction(v, d) for v in _radial_heat(p, q, len(p) + 1)]


def radial_step_wave(prev: list[Fraction], curr: list[Fraction], k: int) -> list[Fraction]:
    """One wave step of the radialized tree recurrence on r >= 0, one entry longer than both.

    u(r, n+2) = 2 u(r, n+1) - (k+1) u(r, n) + (k-1) u(r+1, n) + u(r-1, n), with the even
    boundary value: the heat step of u(., n) plus twice u(., n+1) - u(., n), on integer
    numerators over one common denominator.
    """
    q = _degree(k) - 1
    d, (u0, u1) = _over_lcm(prev, curr)
    heat = _radial_heat(u0, q, max(len(u0), len(u1)) + 1)
    states = zip_longest(heat, u0, u1, fillvalue=0)
    return [Fraction(h + 2 * (b - a), d) for h, a, b in states]


def quadrature_kernel(S: GeneratorSet, n: int, r: int) -> float:
    """Heat kernel coefficient K_n(r) on Z by quadrature (``quadrature_kernels``)."""
    r = integer(r, "position r")
    return quadrature_kernels(S, n, [r])[r]


# The most nodes the quadrature takes.  Each node costs one power of the
# symbol and one exponential per r: S = {+-1, +-10^4} at n = 3 is N = 60,002
# nodes, 3.0 us a node at one r and 11.8 us at 25 r (best of 3, Python
# 3.11.7), so a full budget at 25 r is about 1.2 s.
QUADRATURE_NODES = 10**5


def quadrature_domain(S: GeneratorSet, n: int) -> tuple[int, int, int]:
    """(n, reach, scale) where the float quadrature of K_n can resolve its integer values.

    S.group must be Z (TorsionUnsupported).  reach = n*span, span the largest
    generator magnitude, is where K_n ends, and the rule takes N = 2*reach + 2
    nodes.  Each summand has modulus at most (2k-1)^n and the error stays within
    a few eps times that, so scale = N*(2k-1)^n sets the tolerance scale*eps.
    Where scale reaches 2^51, scale*eps is 1/2: IndexOutOfRange.  k >= 2 and
    3^51 >= 2^51, so the exponent is capped at 51: the verdict is the same, and
    no power of a large n is taken.  N past QUADRATURE_NODES is IndexOutOfRange
    too, as for a wide generator span at small n.
    """
    if S.group != GroupSpec(1, ()):
        raise TorsionUnsupported("quadrature diagnostic is restricted to Z")
    n = natural(n, "time index n")
    reach = n * max(abs(s.free[0]) for s in S.elements)
    nodes = 2 * reach + 2
    scale = nodes * (2 * S.degree - 1) ** min(n, 51)
    if scale >= 1 << 51:  # scale * eps >= 1/2, eps = 2^-52
        raise IndexOutOfRange(f"n={n}: float quadrature cannot resolve the integer values of K_n")
    if nodes > QUADRATURE_NODES:
        raise IndexOutOfRange(f"n={n}: float quadrature of K_n would take {nodes} nodes, "
                              f"past {QUADRATURE_NODES}")
    return n, reach, scale


def quadrature_kernels(S: GeneratorSet, n: int, rs: Sequence[int]) -> dict[int, float]:
    """Heat kernel coefficients {r: K_n(r)} on Z by trapezoid quadrature of the symbol power.

    On the domain of ``quadrature_domain``, with N = 2*reach + 2 uniform nodes
    (2n+2 for unit generators): the integrand is a trigonometric polynomial of
    degree at most reach + |r| < N, for which the uniform trapezoid rule is exact
    up to floating-point rounding.  The symbol power is taken once per node, and
    each r summed in node order.
    """
    n, reach, _ = quadrature_domain(S, n)
    k, N = S.degree, 2 * reach + 2
    totals = {integer(r, "position r"): 0.0 + 0.0j for r in rs}
    for m in range(N):
        t = 2 * pi * m / N
        power = (1 - (k - sum(cmath.exp(-1j * t * s.free[0]) for s in S.elements))) ** n
        for r in totals:
            totals[r] += power * cmath.exp(-1j * r * t)
    return {r: (total / N).real for r, total in totals.items()}
