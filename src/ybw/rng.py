"""Deterministic random sampling with a documented generator.

The generator is a 64-bit linear congruential recurrence with fixed
constants so any implementation, in any language, reproduces the corpora:

    state = (6364136223846793005 * state + 1442695040888963407) mod 2^64

Each draw advances the state once and yields the top 31 bits,
value = state >> 33.  Bounded draws reduce the value modulo the bound.

Wreath-element sampling is likewise pinned down: first the permutation of
the window by a Fisher-Yates pass (swap index drawn for positions high to
low), then one color draw per window position in increasing order, where
draw 0 means no color.
"""

from __future__ import annotations

from .groups import FiniteGroup
from .perms import FinitePermutation
from .wreath import WreathElement

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg64:
    """The documented 64-bit linear congruential generator."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_value(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state >> 33

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_value() % n

    def permutation_of(self, positions: list[int]) -> FinitePermutation:
        """Fisher-Yates over the given positions; images land in the same set."""
        items = list(positions)
        state = self.state  # below(i + 1) inlined
        for i in range(len(items) - 1, 0, -1):
            state = (_MULT * state + _INC) & _MASK
            j = (state >> 33) % (i + 1)
            items[i], items[j] = items[j], items[i]
        self.state = state
        return FinitePermutation({p: q for p, q in zip(positions, items)})

    def wreath_element(self, group: FiniteGroup, lo: int, hi: int) -> WreathElement:
        """Random element supported in the window [lo, hi]."""
        perm = self.permutation_of(list(range(lo, hi + 1)))
        colors = {}
        for pos in range(lo, hi + 1):
            c = self.below(group.order)
            if c != 0:
                colors[pos] = c
        return WreathElement(group, colors, perm)

    def disjoint_pair(self, group: FiniteGroup, window: int = 3) -> tuple[WreathElement, WreathElement]:
        """A pair with supports in [1, window] and [window+1, 2*window]."""
        g = self.wreath_element(group, 1, window)
        h = self.wreath_element(group, window + 1, 2 * window)
        return g, h
