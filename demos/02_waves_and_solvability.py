"""Waves on a cylinder grid and the zero-mean solvability condition.

The discrete wave equation uses a second time difference.  Initial data
is a pair (f, g): position at time 0 and the increment to time 1.  A
solution exists if and only if g has total mass zero; when it does, the
solution is F_n * f + G_n * g for a pair of exact convolution kernels.
The demo runs on Z x Z_4 (a discrete cylinder).
"""

from fractions import Fraction

from lattice_waves import (
    SupportedFunction,
    make_element,
    make_group,
    oracles,
    trivial_character_sum,
    validate_generators,
    wave_kernels,
    wave_solve,
)
from lattice_waves.errors import NotSolvable

G = make_group(1, [4])
S = validate_generators(
    G,
    [
        make_element(G, [1], [0]),
        make_element(G, [-1], [0]),
        make_element(G, [0], [1]),
        make_element(G, [0], [3]),
    ],
)


def main():
    print("Wave kernel masses on Z x Z_4 (sum F_n = 1, sum G_n = n):")
    for n in range(6):
        Fk, Gk = wave_kernels(S, n)
        print(
            f"  n={n}: sum F_n = {trivial_character_sum(Fk.data)},"
            f" sum G_n = {trivial_character_sum(Gk.data)}"
        )

    f = SupportedFunction(G, {make_element(G, [0], [0]): Fraction(1)})
    g = SupportedFunction(
        G,
        {
            make_element(G, [1], [0]): Fraction(1, 2),
            make_element(G, [-1], [0]): Fraction(-1, 2),
        },
    )
    print("\nZero-mean velocity: solution exists and matches stepping.")
    traj = oracles.cayley_wave_trajectory(f, g, S, 8)
    for n in (0, 1, 4, 8):
        u = wave_solve(f, g, S, n)
        assert u == traj[n]
        print(f"  n={n}: support size {len(u.entries)}, values exact rationals")

    print("\nNonzero-mean velocity: refused with NotSolvable.")
    bad = SupportedFunction(G, {make_element(G, [1], [0]): Fraction(1)})
    try:
        wave_solve(f, bad, S, 3)
    except NotSolvable as exc:
        print(f"  NotSolvable: {exc}")


if __name__ == "__main__":
    main()
