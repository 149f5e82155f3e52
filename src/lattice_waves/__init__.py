"""Exact solvers for the combinatorial heat and wave equations.

Closed-form convolution-kernel solutions on Cayley graphs of finitely
generated discrete abelian groups, on coset graphs by finite subgroups,
and on k-regular trees, all in exact rational arithmetic, with
brute-force time-stepping oracles for independent verification.
"""

from .cayley import (
    Kernel,
    ball,
    heat_kernel,
    heat_kernel_binomial,
    heat_solve,
    inverse_symbol_a,
    wave_kernels,
    wave_solve,
)
from .cosets import (
    CosetProblem,
    build_coset_problem,
    coset_heat_solve,
    coset_wave_solve,
    lift,
    restrict,
)
from .functions import (
    SupportedFunction,
    add,
    convolve,
    delta,
    scale,
    sub,
    trivial_character_sum,
    zero,
)
from .groups import (
    GeneratorSet,
    GroupElement,
    GroupSpec,
    Quotient,
    elem_add,
    elem_neg,
    identity,
    make_element,
    make_group,
    quotient,
    validate_generators,
)
from .tree import (
    ROOT,
    TreeFunction,
    WeightTable,
    alpha_coeff,
    hull_position,
    make_vertex,
    neighbors,
    path_reduce,
    radial_mass,
    sphere_size,
    sphere_sums,
    spherical_mean,
    tree_distance,
    tree_heat_solve,
    tree_heat_weights,
    tree_wave_solve,
    tree_wave_weights,
)

__version__ = "0.1.0"
