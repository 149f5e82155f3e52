"""Correctness gate for the benchmark's outputs.

``cheap_check`` holds every output to exact identities that cost far less
than the solve:

- every kernel is integer valued, so each output denominator divides the
  lcm of the input denominators;
- Cayley and coset outputs carry the total mass  sum f + n sum g;
- Cayley and coset outputs satisfy the recurrence at a random character
  (``_character_check``): a wrong value escapes it with probability about
  n / 2**61, where the mass identity misses any error that keeps the sum;
- tree outputs lie inside the requested window, and when the window is a
  whole ball that covers everywhere the solution can be nonzero, they carry
  the same total mass.

``oracle_check`` re-solves a problem by independent stepping: for Cayley
and coset problems the ``oracles`` steppers, through ``cli._oracle_solution``
as ``lattice-waves compare`` calls them; for trees ``oracles.radial_step_*``
from radial profiles computed here, since naive tree stepping grows like
(k-1)^n.
Both read the emitted CSV text, not the program's objects.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm

from lattice_waves import cli, oracles, tree


def parse_csv(text: str) -> dict[str, Fraction]:
    """The values of CLI CSV output, keyed by vertex label."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# ") or lines[1] != "vertex,num,den":
        raise ValueError("output is not CLI CSV")
    values = {}
    for line in lines[2:]:
        label, num, den = line.split(",")
        values[label] = Fraction(int(num), int(den))
    return values


def _label(coords) -> str:
    return ";".join(str(v) for v in coords)


def _rows(rows: list[dict]) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for row in rows:
        elem = row["elem"]
        coords = elem if isinstance(elem, list) else elem["free"] + elem["torsion"]
        out[_label(coords)] = Fraction(int(row["num"]), int(row["den"]))
    return out


def _covers(inst: dict, window: list[tuple[int, ...]]) -> bool:
    """Is the window a whole ball reaching every vertex the solution can touch?"""
    k, n = inst["k"], inst["n"]
    center = window[0]
    radius = max(tree.tree_distance(center, x) for x in window)
    if len(set(window)) != sum(tree.sphere_size(k, r) for r in range(radius + 1)):
        return False
    reach = [(inst["f"], n if inst["kind"] == "tree-heat" else n // 2)]
    if inst["kind"] == "tree-wave":
        reach.append((inst["g"], (n - 1) // 2))
    return all(
        radius >= steps + tree.tree_distance(center, tuple(row["elem"]))
        for rows, steps in reach
        for row in rows
    )


def cheap_check(doc: str, text: str) -> str | None:
    """Reason the output is wrong, or None."""
    inst = json.loads(doc)
    kind, n = inst["kind"], inst["n"]
    out = parse_csv(text)
    f = _rows(inst["f"])
    g = _rows(inst.get("g", []))
    bound = lcm(*(v.denominator for v in (*f.values(), *g.values())))
    for label, v in out.items():
        if bound % v.denominator:
            return f"denominator of the value at {label} does not divide {bound}"
    mass = sum(f.values(), Fraction(0)) + n * sum(g.values(), Fraction(0))
    if kind.startswith("tree"):
        window = [tuple(w) for w in inst["eval"]["vertices"]]
        labels = {_label(x) for x in window}
        if not out.keys() <= labels:
            return "output has vertices outside the evaluation window"
        if not _covers(inst, window):
            return None
    if sum(out.values(), Fraction(0)) != mass:
        return f"total mass {sum(out.values(), Fraction(0))} differs from {mass}"
    if kind.startswith("tree"):
        return None
    return _character_check(doc, inst, out)


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as witnesses: exact below 3e24."""
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(order: int) -> int:
    """The least prime above 2**61 that is 1 mod ``order``, so Z_p has order-th roots of 1."""
    p = ((1 << 61) // order + 1) * order + 1
    while not _is_prime(p):
        p += order
    return p


def _character_check(doc: str, inst: dict, out: dict[str, Fraction]) -> str | None:
    """The Cayley recurrence at one character chi of the group, in Z_p.

    With mu = 1 - k + sum_s chi(s), one heat step multiplies the transform
    u^(chi) = sum_x u(x) chi(x) by mu, and the wave steps give
    u^_{m+2} = 2 u^_{m+1} + (mu - 2) u^_m from u^_0 = f^, u^_1 = f^ + g^.
    chi sends free coordinate i to z_i^x_i and torsion coordinate j to
    w_j^t_j with w_j^m_j = 1, for z_i, w_j drawn from the document.  Coset
    outputs live on the quotient; its presentation and the images of S are
    taken from the program's ``build_coset_problem``.
    """
    kind, n = inst["kind"], inst["n"]
    if kind.startswith("coset"):
        P = cli.build_coset(inst)
        rank, moduli = P.quotient_group.rank, P.quotient_group.moduli
        gens = [(*s.free, *s.torsion) for s in P.S_tilde.elements]

        def coords(elem):
            x = P.quot.project(cli.element_from_json(P.base_group, elem))
            return (*x.free, *x.torsion)
    else:
        rank, moduli = inst["group"]["rank"], inst["group"]["moduli"]
        gens = [(*s["free"], *s["torsion"]) for s in inst["S"]]

        def coords(elem):
            return (*elem["free"], *elem["torsion"])

    p = _prime(lcm(1, *moduli))
    rng = random.Random(doc)
    bases = [rng.randrange(2, p - 1) for _ in range(rank)]
    bases += [pow(rng.randrange(2, p - 1), (p - 1) // m, p) for m in moduli]

    def chi(c) -> int:
        v = 1
        for b, e in zip(bases, c):
            v = v * pow(b, e, p) % p
        return v

    def value(num: int, den: int) -> int:
        return num * pow(den, -1, p) % p

    def transform(rows) -> int:
        return sum(value(int(r["num"]), int(r["den"])) * chi(coords(r["elem"])) for r in rows) % p

    mu = (1 - len(gens) + sum(chi(s) for s in gens)) % p
    f_hat = transform(inst["f"])
    if kind.endswith("heat"):
        want = pow(mu, n, p) * f_hat % p
    else:
        prev, want = f_hat, (f_hat + transform(inst["g"])) % p
        if n == 0:
            want = prev
        for _ in range(n - 1):
            prev, want = want, (2 * want + (mu - 2) * prev) % p
    got = sum(
        value(v.numerator, v.denominator) * chi([int(c) for c in label.split(";")])
        for label, v in out.items()
    ) % p
    return None if got == want else "output fails the recurrence at a random character"


def oracle_check(doc: str, text: str, rng: random.Random) -> str | None:
    """Re-solve by independent stepping; reason the output is wrong, or None."""
    inst = json.loads(doc)
    out = parse_csv(text)
    if inst["kind"].startswith("tree"):
        return _tree_oracle(inst, out, rng)
    return _cayley_oracle(inst, out)


def _cayley_oracle(inst: dict, out: dict[str, Fraction]) -> str | None:
    """The program's own oracle path, as ``lattice-waves compare`` runs it."""
    u = cli._oracle_solution(inst, inst["n"])
    want = {_label((*x.free, *x.torsion)): v for x, v in u.entries.items()}
    return None if want == out else "output differs from the oracle trajectory"


def _profile(rows: list[dict], k: int, x: tuple[int, ...]) -> list[Fraction]:
    """Spherical means of the data around x, radius 0 up to its support radius."""
    sums: dict[int, Fraction] = {}
    for row in rows:
        r = tree.tree_distance(x, tuple(row["elem"]))
        sums[r] = sums.get(r, Fraction(0)) + Fraction(int(row["num"]), int(row["den"]))
    top = max(sums, default=0)
    return [sums.get(r, Fraction(0)) / tree.sphere_size(k, r) for r in range(top + 1)]


def _tree_oracle(inst: dict, out: dict[str, Fraction], rng: random.Random) -> str | None:
    """Radial stepping at up to two window vertices chosen by ``rng``."""
    kind, k, n = inst["kind"], inst["k"], inst["n"]
    window = [tuple(w) for w in inst["eval"]["vertices"]]
    for x in rng.sample(window, min(2, len(window))):
        p = _profile(inst["f"], k, x)
        if kind == "tree-heat":
            for _ in range(n):
                p = oracles.radial_step_heat(p, k)
        elif n > 0:
            q = _profile(inst["g"], k, x)
            prev = p
            p = [a + b for a, b in zip(p + [Fraction(0)] * len(q), q + [Fraction(0)] * len(p))]
            for _ in range(n - 1):
                prev, p = p, oracles.radial_step_wave(prev, p, k)
        if out.get(_label(x), Fraction(0)) != p[0]:
            return f"value at {_label(x)} differs from radial stepping"
    return None
