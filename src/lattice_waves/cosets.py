"""Heat and wave equations on coset graphs by finite subgroups.

For abelian groups the coset graph of H with connecting set S is the
Cayley graph of the quotient group with the distinct images of S as
generators, so everything delegates to the Cayley engine.  The paper
trail of the reduction (lifted functions constant on cosets, scaled
Laplacian) lives in the oracle module.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .cayley import heat_solve, wave_solve
from .errors import SInsideH
from .functions import SupportedFunction
from .groups import (
    GeneratorSet,
    GroupElement,
    GroupSpec,
    Quotient,
    identity,
    make_element,
    quotient,
    validate_generators,
)


class CosetProblem(NamedTuple):
    """A coset-graph instance reduced to a Cayley problem on the quotient.

    ``S_tilde`` holds the distinct nonidentity images of S in the
    quotient; ``coset_reps`` picks, per distinct image, the first element
    of S mapping to it (the representatives the lifted recurrence sums
    over).
    """

    base_group: GroupSpec
    subgroup_gens: tuple[GroupElement, ...]
    S: tuple[GroupElement, ...]
    quot: Quotient
    S_tilde: GeneratorSet
    coset_reps: tuple[GroupElement, ...]

    @property
    def quotient_group(self) -> GroupSpec:
        return self.quot.group

    @property
    def H_order(self) -> int:
        return self.quot.order


def build_coset_problem(
    G: GroupSpec, H_gens: Sequence[GroupElement], S: Sequence[GroupElement]
) -> CosetProblem:
    quot = quotient(G, H_gens)
    S = tuple(make_element(G, s.free, s.torsion) for s in S)
    q_id = identity(quot.group)
    images = []
    reps = []
    for s in S:
        q = quot.project(s)
        if q == q_id:
            raise SInsideH(f"generator {s} lies inside the subgroup H")
        if q not in images:
            images.append(q)
            reps.append(s)
    S_tilde = validate_generators(quot.group, images)
    return CosetProblem(G, tuple(H_gens), S, quot, S_tilde, tuple(reps))


def lift(f: SupportedFunction, P: CosetProblem) -> SupportedFunction:
    """Pull a function on the quotient back to the base group, constant on fibers.

    The fibers are disjoint, so the numerators keep their denominator.
    """
    out = {x: v for q, v in f.numerators.items() for x in P.quot.fiber(q)}
    return SupportedFunction.trusted(P.base_group, out, f.denominator)


def restrict(u: SupportedFunction, P: CosetProblem) -> SupportedFunction:
    """Push a coset-constant function on the base group down to the quotient.

    ``project`` keeps the free part and maps only the torsion part, so each
    distinct torsion tuple of u is projected once per call.  u keeps one
    numerator per coset, so the result is wrapped as it is:
    ``verify.states`` restricts every oracle state.
    """
    images: dict[tuple[int, ...], tuple[int, ...]] = {}
    out = {}
    for x, v in u.numerators.items():
        if x.torsion not in images:
            images[x.torsion] = P.quot.project(x).torsion
        out[GroupElement(x.free, images[x.torsion])] = v
    return SupportedFunction.trusted(P.quot.group, out, u.denominator)


def coset_heat_solve(f: SupportedFunction, P: CosetProblem, n: int) -> SupportedFunction:
    """Heat solution on the coset graph, as a function on the quotient group."""
    return heat_solve(f, P.S_tilde, n)


def coset_wave_solve(
    f: SupportedFunction, g: SupportedFunction, P: CosetProblem, n: int
) -> SupportedFunction:
    """Wave solution on the coset graph; the lifted velocity must have zero mass.

    The lift multiplies the total mass by |H|, so the condition on the
    quotient is simply that g sums to zero, which ``wave_solve`` checks.
    """
    return wave_solve(f, g, P.S_tilde, n)
