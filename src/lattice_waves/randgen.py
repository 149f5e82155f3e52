"""Randomized instance generators shared by the verification suite and tests."""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import LatticeWavesError
from .functions import SupportedFunction, trivial_character_sum
from .groups import (
    GeneratorSet,
    GroupElement,
    GroupSpec,
    elem_neg,
    identity,
    make_element,
    validate_generators,
)
from .tree import TreeFunction, make_vertex


def standard_generators(G: GroupSpec) -> list[GroupElement]:
    """The obvious symmetric generating set: e_i, then -e_i where it differs, on each coordinate."""
    dim, gens = G.rank + len(G.moduli), []
    for i in range(dim):
        unit = [0] * dim
        unit[i] = 1
        s = make_element(G, unit[:G.rank], unit[G.rank:])
        gens += dict.fromkeys([s, elem_neg(G, s)])
    return gens


def random_symmetric_generators(
    rng: random.Random, G: GroupSpec, max_size: int = 6, span: int = 2
) -> GeneratorSet:
    """A random valid symmetric generating set of size at most max_size.

    Free coordinates are drawn from [-span, span]; smaller spans keep the
    kernels' supports (and hence solver cost) down on higher-rank groups.
    """
    e = identity(G)
    for _ in range(60):
        target = rng.randint(2, max_size)
        chosen: list[GroupElement] = []
        for _ in range(20):
            if len(chosen) >= target:
                break
            free = [rng.randint(-span, span) for _ in range(G.rank)]
            tor = [rng.randrange(m) for m in G.moduli]
            s = make_element(G, free, tor)
            if s == e or s in chosen:
                continue
            neg = elem_neg(G, s)
            if neg == s:
                if len(chosen) + 1 <= target:
                    chosen.append(s)
            elif len(chosen) + 2 <= target:
                chosen += [s, neg]
        if not chosen:
            continue
        try:
            return validate_generators(G, chosen)
        except LatticeWavesError:
            continue
    # Random draws kept missing a generating set; fall back to the standard one.
    return validate_generators(G, standard_generators(G))


def random_rational(rng: random.Random) -> Fraction:
    num = rng.choice([v for v in range(-9, 10) if v != 0])
    return Fraction(num, rng.randint(1, 9))


def random_function(
    rng: random.Random, G: GroupSpec, max_points: int = 8, span: int = 3
) -> SupportedFunction:
    entries = {}
    for _ in range(rng.randint(1, max_points)):
        free = [rng.randint(-span, span) for _ in range(G.rank)]
        tor = [rng.randrange(m) for m in G.moduli]
        entries[make_element(G, free, tor)] = random_rational(rng)
    return SupportedFunction(G, entries)


def random_zero_mean_function(
    rng: random.Random, G: GroupSpec, max_points: int = 8, span: int = 3
) -> SupportedFunction:
    """Random function with total mass exactly zero (wave-velocity data)."""
    g = random_function(rng, G, max_points, span)
    mass = trivial_character_sum(g)
    balance = make_element(G, [span + 1] + [0] * (G.rank - 1) if G.rank else [],
                           [0] * len(G.moduli))
    entries = dict(g.entries)
    entries[balance] = entries.get(balance, Fraction(0)) - mass
    out = SupportedFunction(G, entries)
    if trivial_character_sum(out) != 0:
        raise AssertionError("zero-mean construction failed")
    return out


def random_tree_function(
    rng: random.Random, k: int, max_radius: int = 3, max_points: int = 6
) -> TreeFunction:
    entries = {}
    for _ in range(rng.randint(1, max_points)):
        length = rng.randint(0, max_radius)
        word: list[int] = []
        for _ in range(length):
            letter = rng.randint(1, k)
            while word and letter == word[-1]:
                letter = rng.randint(1, k)
            word.append(letter)
        entries[make_vertex(word, k)] = random_rational(rng)
    return TreeFunction(k, entries)
