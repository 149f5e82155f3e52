"""Heat flow on the integer line.

The discrete heat equation couples the combinatorial Laplacian with a
forward time difference; its solution after n steps is the convolution
of the initial data with an integer-valued kernel K_n.  This demo prints
the first few kernels on Z, checks mass conservation, and cross-checks
the closed form against direct time stepping and against floating-point
quadrature of the Fourier symbol.
"""

from fractions import Fraction

from lattice_waves import (
    SupportedFunction,
    cayley,
    delta,
    heat_kernel,
    heat_solve,
    identity,
    make_element,
    make_group,
    oracles,
    trivial_character_sum,
    validate_generators,
)

Z = make_group(1, [])
S = validate_generators(Z, [make_element(Z, [1], []), make_element(Z, [-1], [])])


def coeffs(f, radius):
    return [str(f(make_element(Z, [r], []))) for r in range(-radius, radius + 1)]


def main():
    print("Heat kernels K_n on Z with generators {+1, -1}:")
    for n in range(5):
        K = heat_kernel(S, n).data
        print(f"  n={n}: {coeffs(K, n)}  (sum = {trivial_character_sum(K)})")

    print("\nSolving from a two-point initial condition:")
    f = SupportedFunction(
        Z,
        {
            make_element(Z, [0], []): Fraction(1),
            make_element(Z, [3], []): Fraction(-1, 2),
        },
    )
    u = f
    for n in range(6):
        closed = heat_solve(f, S, n)
        assert closed == u, "closed form must equal direct stepping"
        print(f"  n={n}: u = {coeffs(closed, 4 + n)}")
        u = oracles.cayley_heat_step(u, S)
    print("  closed form and direct stepping agree exactly at every step.")

    print("\nQuadrature cross-check (the only floating-point computation):")
    n = 6
    K = heat_kernel(S, n).data
    worst = max(
        abs(oracles.quadrature_kernel(S, n, r) - float(K(make_element(Z, [r], []))))
        for r in range(-n, n + 1)
    )
    print(f"  max |quadrature - exact| at n={n}: {worst:.2e} (tolerance 1e-9)")

    print("\nThe n-step kernel is the n-th convolution power of K_1:")
    K1 = heat_kernel(S, 1).data
    acc = delta(Z, identity(Z))
    from lattice_waves import convolve

    for _ in range(4):
        acc = convolve(acc, K1)
    assert acc == heat_kernel(S, 4).data
    print("  K_1^{*4} == K_4, verified exactly.")


if __name__ == "__main__":
    main()
