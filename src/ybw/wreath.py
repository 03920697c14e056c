"""Elements of the wreath product of a finite group with the finitely
supported permutations of the positive integers.

An element is a pair (colors, perm): a finite map from positions to
non-identity group elements, and a finitely supported permutation.  The
product rule is the semidirect one, with permutations acting on color maps
by relabeling positions.

The standard decomposition splits an element into elementary parts (one
colored position, trivial permutation) and cyclic parts (one cycle carrying
the colors on its support); together with the class of the color product
along each cycle it yields a complete conjugacy invariant.  colored_cycles
reads each cycle's length and one color, on which characters are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GroupMismatchError
from .groups import ConjClass, FiniteGroup
from .perms import FinitePermutation


class WreathElement:
    """A finitely supported element (colors, perm) over a finite color group."""

    __slots__ = ("group", "colors", "perm")

    def __init__(self, group: FiniteGroup, colors: dict[int, int] | None = None,
                 perm: FinitePermutation | None = None):
        self.group = group
        clean = {}
        for pos, t in (colors or {}).items():
            if pos < 1:
                raise ValueError("positions are 1-based")
            if not (0 <= t < group.order):
                raise ValueError(f"color {t} out of range for group of order {group.order}")
            if t != 0:
                clean[pos] = t
        self.colors = clean
        self.perm = perm if perm is not None else FinitePermutation.identity()

    @classmethod
    def identity(cls, group: FiniteGroup) -> WreathElement:
        return cls(group)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.colors) | set(self.perm.map)))

    def max_support(self) -> int:
        return max(max(self.colors, default=0), self.perm.max_support())

    def is_identity(self) -> bool:
        return not self.colors and self.perm.is_identity()

    def __mul__(self, other: WreathElement) -> WreathElement:
        if self.group is not other.group and self.group != other.group:
            raise GroupMismatchError("cannot multiply elements over different groups")
        sigma_inv = self.perm.inverse()
        colors: dict[int, int] = {}
        positions = set(self.colors) | {self.perm(p) for p in other.colors}
        for i in positions:
            a = self.colors.get(i, 0)
            b = other.colors.get(sigma_inv(i), 0)
            c = self.group.mul(a, b)
            if c != 0:
                colors[i] = c
        return WreathElement(self.group, colors, self.perm * other.perm)

    def inverse(self) -> WreathElement:
        sigma_inv = self.perm.inverse()
        colors = {sigma_inv(i): self.group.inv(t) for i, t in self.colors.items()}
        return WreathElement(self.group, colors, sigma_inv)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WreathElement):
            return NotImplemented
        return (self.group == other.group and self.colors == other.colors
                and self.perm == other.perm)

    __hash__ = None

    def __repr__(self) -> str:
        names = self.group.element_names
        parts = [f"{names[t]}@{p}" for p, t in sorted(self.colors.items())]
        return f"Wreath({'{' + ', '.join(parts) + '}'}, {self.perm})"


def colored_cycles(g: WreathElement) -> list[tuple[int, int]]:
    """(color, length) pairs: each fixed colored point of g in increasing
    order with length 1, then each cycle of g.perm.cycles() with its
    cycle_color (0 when uncolored).  Relabeling the support in this order
    and collapsing each cycle's colors onto its first point conjugates g
    to the element on 1..|supp g| with these colors on those points.  A
    cycle with no colored position gets 0 without a group product."""
    moved, colors = g.perm.map, g.colors
    fixed = [(colors[p], 1) for p in sorted(colors) if p not in moved]
    return fixed + [(0 if colors.keys().isdisjoint(cyc) else cycle_color(g.group, cyc, colors), len(cyc))
                    for cyc in g.perm.cycles()]


def cycle_color(group: FiniteGroup, cycle: tuple[int, ...], colors: dict[int, int]) -> int:
    """t(p_1) t(p_L) ... t(p_2) for the cycle (p_1 ... p_L): the one color
    colored_cycles gives it, conjugate to the product in any order that
    follows the cycle backwards."""
    acc = 0
    for p in cycle[:1] + cycle[:0:-1]:
        acc = group.mul(acc, colors.get(p, 0))
    return acc


@dataclass(frozen=True)
class CyclicPart:
    """One cycle of the permutation together with the colors on its support."""

    cycle: tuple[int, ...]
    colors: tuple[tuple[int, int], ...]  # (position, color) pairs, sorted

    @property
    def length(self) -> int:
        return len(self.cycle)


@dataclass(frozen=True)
class StandardDecomposition:
    """Disjoint elementary and cyclic factors whose product is the element."""

    group: FiniteGroup
    elementary: tuple[tuple[int, int], ...]  # (position, color) pairs, sorted
    cyclic: tuple[CyclicPart, ...]

    def factors(self) -> list[WreathElement]:
        out = [WreathElement(self.group, {pos: t}) for pos, t in self.elementary]
        for part in self.cyclic:
            out.append(WreathElement(self.group, dict(part.colors),
                                     FinitePermutation.from_cycles([part.cycle])))
        return out

    def recompose(self) -> WreathElement:
        acc = WreathElement.identity(self.group)
        for f in self.factors():
            acc = acc * f
        return acc


def standard_decomposition(g: WreathElement) -> StandardDecomposition:
    """Split into elementary parts and color-carrying cycles (disjoint supports)."""
    cycles = g.perm.cycles()
    covered: set[int] = set()
    cyclic = []
    for cyc in cycles:
        covered.update(cyc)
        colors = tuple(sorted((p, g.colors[p]) for p in cyc if p in g.colors))
        cyclic.append(CyclicPart(cyc, colors))
    elementary = tuple(sorted((p, t) for p, t in g.colors.items() if p not in covered))
    return StandardDecomposition(g.group, elementary, tuple(cyclic))


def cycle_product_class(group: FiniteGroup, part: CyclicPart) -> ConjClass:
    """Class of the product of the colors along the cycle, in reverse cycle order.

    The cycle is traversed from its minimal position; the product is
    t_last * ... * t_first.  Changing the starting point rotates the word
    and conjugates the product, so the class is well defined, and is that
    of cycle_color, the rotation t_first * t_last * ... * t_second.
    """
    return group.class_of(cycle_color(group, part.cycle, dict(part.colors)))


@dataclass(frozen=True)
class ConjInvariant:
    """The complete conjugacy invariant: elementary color classes as a
    multiset, and (cycle product class, length) pairs as a multiset."""

    elem_classes: tuple[int, ...]
    cycle_data: tuple[tuple[int, int], ...]


def conjugacy_invariant(g: WreathElement) -> ConjInvariant:
    dec = standard_decomposition(g)
    elem = tuple(sorted(g.group.class_of(t).representative for _, t in dec.elementary))
    cyc = tuple(sorted(
        (cycle_product_class(g.group, part).representative, part.length)
        for part in dec.cyclic))
    return ConjInvariant(elem, cyc)
