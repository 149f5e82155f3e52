"""Heat on the 3-regular tree via spherical means.

Around any evaluation vertex, the solution value depends on the initial
data only through its sphere sums.  Radializing the Laplacian turns the
tree problem into a drifted path problem on r >= 0 whose center value
obeys the even boundary convention M(-1) = M(1).  The resulting weight
tables give exact solutions without ever enumerating the exponentially
large spheres.

The demo also shows why the boundary convention matters: evolving the
same radial profile as a FREE recurrence on the whole line (ignoring the
reflection at the center) departs from the true tree solution at the
second step for every k > 2.
"""

from fractions import Fraction

from lattice_waves import (
    ROOT,
    TreeFunction,
    oracles,
    sphere_size,
    tree_heat_solve,
    tree_heat_weights,
)


def main():
    k = 3
    print(f"Heat weight tables on the {k}-regular tree (radii 0..n):")
    for n in range(5):
        w = tree_heat_weights(k, n).weights
        total = sum(wi * sphere_size(k, s) for s, wi in enumerate(w))
        print(f"  n={n}: {[str(x) for x in w]}  (sum over spheres = {total})")

    print("\nDelta at the root, evolved 3 steps, read along one branch:")
    f = TreeFunction(k, {ROOT: Fraction(1)})
    branch = [ROOT, (1,), (1, 2), (1, 2, 1)]
    u = tree_heat_solve(f, 3, branch)
    stepped = f
    for _ in range(3):
        stepped = oracles.tree_step_heat(stepped)
    for x in branch:
        assert u(x) == stepped(x)
        print(f"  u({x or 'root'}) = {u(x)}")
    print("  matches brute-force stepping over the actual tree exactly.")

    print("\nThe center boundary condition is essential for k > 2:")
    radial = [Fraction(1)]          # radial profile of the delta
    free = {0: Fraction(1)}         # the same profile on the whole line
    for _ in range(2):
        radial = oracles.radial_step_heat(radial, k)
        free = free_line_step(free, k)
    true_value = stepped_twice_at_root(k)
    print(f"  true tree value after 2 steps:      {true_value}")
    print(f"  radial recurrence (even boundary):  {radial[0]}")
    print(f"  free line recurrence (no boundary): {free[0]}  <- wrong for k={k}")


def free_line_step(u, k):
    """(k-1) u(r+1) + u(r-1) - (k-1) u(r) at every integer r, with no center."""
    at = lambda r: u.get(r, 0)
    return {r: (k - 1) * (at(r + 1) - at(r)) + at(r - 1) for r in range(min(u) - 1, max(u) + 2)}


def stepped_twice_at_root(k):
    u = TreeFunction(k, {ROOT: Fraction(1)})
    for _ in range(2):
        u = oracles.tree_step_heat(u)
    return u(ROOT)


if __name__ == "__main__":
    main()
