"""Finitely supported rational-valued functions on a group.

The universal carrier for initial data, convolution kernels, and
solutions.  Zero values are never stored, so the support is always the
key set and all sums are finite and exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .errors import GroupMismatch
from .groups import GroupElement, GroupSpec, adder, conforms, elem_neg, identity, make_element


@dataclass
class SupportedFunction:
    """A finite map GroupElement -> rational over a fixed group.

    Values are non-zero ``int`` or ``Fraction``.  The public constructor
    normalises every value to ``Fraction``; ``trusted`` keeps what it is
    given, which lets integer kernels skip ``Fraction`` arithmetic.
    """

    group: GroupSpec
    entries: dict[GroupElement, int | Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for x, v in self.entries.items():
            if not conforms(self.group, x):
                x = make_element(self.group, x.free, x.torsion)
            v = Fraction(v)
            if v != 0:
                clean[x] = clean.get(x, Fraction(0)) + v
        self.entries = {x: v for x, v in clean.items() if v != 0}

    @classmethod
    def trusted(cls, group: GroupSpec, entries: dict[GroupElement, int | Fraction]) -> SupportedFunction:
        """Wrap entries the program built itself, skipping the normalisation.

        Every key must already conform to ``group`` and every value must be
        a non-zero ``int`` or ``Fraction``; the dict is taken over, not
        copied.
        """
        f = object.__new__(cls)
        f.group = group
        f.entries = entries
        return f

    def __call__(self, x: GroupElement) -> Fraction:
        return self.entries.get(x, Fraction(0))

    def support(self) -> set[GroupElement]:
        return set(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SupportedFunction)
            and self.group == other.group
            and self.entries == other.entries
        )

    def __iter__(self):
        return iter(self.entries.items())


def make_function(G: GroupSpec, items: Mapping[GroupElement, Fraction] | Iterable) -> SupportedFunction:
    if not isinstance(items, Mapping):
        items = dict(items)
    return SupportedFunction(G, dict(items))


def zero(G: GroupSpec) -> SupportedFunction:
    return SupportedFunction(G, {})


def delta(G: GroupSpec, x: GroupElement | None = None, value=1) -> SupportedFunction:
    """Point mass; defaults to the unit mass at the identity."""
    if x is None:
        x = identity(G)
    return SupportedFunction(G, {x: Fraction(value)})


def unit(G: GroupSpec) -> SupportedFunction:
    """The convolution unit delta_e, with the integer value 1."""
    return SupportedFunction.trusted(G, {identity(G): 1})


def _require_same_group(f: SupportedFunction, g: SupportedFunction) -> None:
    if f.group != g.group:
        raise GroupMismatch("functions live on different groups")


def add(f: SupportedFunction, g: SupportedFunction) -> SupportedFunction:
    _require_same_group(f, g)
    out = dict(f.entries)
    for x, v in g.entries.items():
        out[x] = out[x] + v if x in out else v
    return SupportedFunction.trusted(f.group, {x: v for x, v in out.items() if v})


def sub(f: SupportedFunction, g: SupportedFunction) -> SupportedFunction:
    return add(f, scale(g, Fraction(-1)))


def scale(f: SupportedFunction, c) -> SupportedFunction:
    c = Fraction(c)
    if not c:
        return zero(f.group)
    return SupportedFunction.trusted(f.group, {x: c * v for x, v in f.entries.items()})


def _integer_form(f) -> tuple[dict, int]:
    """(numerators, d) with f = numerators / d, d the lcm of f's denominators.

    Reads only ``f.entries``, so it serves ``SupportedFunction`` and
    ``tree.TreeFunction`` alike.
    """
    d = lcm(*(v.denominator for v in f.entries.values()))
    return {x: v.numerator * (d // v.denominator) for x, v in f.entries.items()}, d


def convolve(f: SupportedFunction, g: SupportedFunction) -> SupportedFunction:
    """Exact group convolution (f*g)(x) = sum_y f(y) g(x-y).

    Direct sparse double loop over the two supports with hash
    accumulation.  Each operand is scaled by the lcm of its denominators,
    so the loop adds plain integers and the result is divided once; the
    product of two integral functions keeps ``int`` values.
    """
    _require_same_group(f, g)
    G = f.group
    fi, df = _integer_form(f)
    gi, dg = _integer_form(g)
    elem_sum = adder(G)
    out: dict[GroupElement, int] = {}
    get = out.get
    for y, a in fi.items():
        for z, b in gi.items():
            x = elem_sum(y, z)
            out[x] = get(x, 0) + a * b
    d = df * dg
    if d == 1:
        return SupportedFunction.trusted(G, {x: v for x, v in out.items() if v})
    return SupportedFunction.trusted(G, {x: Fraction(v, d) for x, v in out.items() if v})


def convolve_power(f: SupportedFunction, n: int) -> SupportedFunction:
    """n-fold convolution power by repeated squaring; n=0 gives delta_e."""
    result = unit(f.group)
    base = f
    while n > 0:
        if n & 1:
            result = convolve(result, base)
        n >>= 1
        if n:
            base = convolve(base, base)
    return result


def trivial_character_sum(f: SupportedFunction) -> Fraction:
    """The value of the transform at the trivial character: the total mass of f."""
    values, d = _integer_form(f)
    return Fraction(sum(values.values()), d)


def reflect(f: SupportedFunction) -> SupportedFunction:
    """The function x -> f(-x)."""
    G = f.group
    return SupportedFunction.trusted(G, {elem_neg(G, x): v for x, v in f.entries.items()})


def l1_norm(f: SupportedFunction) -> Fraction:
    values, d = _integer_form(f)
    return Fraction(sum(map(abs, values.values())), d)


def l2_norm_squared(f: SupportedFunction) -> Fraction:
    values, d = _integer_form(f)
    return Fraction(sum(v * v for v in values.values()), d * d)
