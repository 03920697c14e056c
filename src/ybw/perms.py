"""Finitely supported permutations of the positive integers.

Positions are 1-based.  A permutation is stored as the map on its support
only (no fixed points), so elements of the infinite symmetric group with
finite support are represented exactly.
"""

from __future__ import annotations


class FinitePermutation:
    """A bijection of {1, 2, ...} moving finitely many points."""

    __slots__ = ("map",)

    def __init__(self, mapping: dict[int, int] | None = None):
        m = {k: v for k, v in (mapping or {}).items() if k != v}
        # the keys are distinct and as many as the values, so the values
        # are a permutation of the keys exactly when they form the same set
        if m.keys() != set(m.values()):
            raise ValueError(f"not a bijection on its support: {mapping}")
        if m and min(m) < 1:
            raise ValueError("positions are 1-based")
        self.map = m

    @classmethod
    def identity(cls) -> FinitePermutation:
        return cls({})

    @classmethod
    def from_cycles(cls, cycles) -> FinitePermutation:
        m: dict[int, int] = {}
        for cyc in cycles:
            if len(set(cyc)) != len(cyc):
                raise ValueError(f"repeated position in cycle {cyc}")
            for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
                if a in m:
                    raise ValueError("cycles are not disjoint")
                m[a] = b
        return cls(m)

    @classmethod
    def from_one_line(cls, images) -> FinitePermutation:
        """Permutation of {1..n} given by its one-line form [s(1), ..., s(n)]."""
        return cls({i + 1: v for i, v in enumerate(images)})

    @classmethod
    def transposition(cls, i: int, j: int) -> FinitePermutation:
        return cls({i: j, j: i})

    @classmethod
    def cycle(cls, n: int) -> FinitePermutation:
        """The n-cycle (1 2 ... n)."""
        if n < 2:
            return cls.identity()
        return cls.from_cycles([list(range(1, n + 1))])

    def __call__(self, i: int) -> int:
        return self.map.get(i, i)

    def __mul__(self, other: FinitePermutation) -> FinitePermutation:
        # (self * other)(x) = self(other(x))
        keys = set(self.map) | set(other.map)
        return FinitePermutation({k: self(other(k)) for k in keys})

    def inverse(self) -> FinitePermutation:
        return FinitePermutation({v: k for k, v in self.map.items()})

    def is_identity(self) -> bool:
        return not self.map

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.map))

    def max_support(self) -> int:
        return max(self.map, default=0)

    def one_line(self, n: int) -> list[int]:
        if self.max_support() > n:
            raise ValueError(f"support exceeds {n}")
        get = self.map.get
        return [get(i, i) for i in range(1, n + 1)]

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each rotated to start at its minimum, sorted by minimum."""
        m = self.map  # every point of a cycle is moved, so a key of m
        seen: set[int] = set()
        out = []
        for start in sorted(m):
            if start in seen:
                continue
            cyc = [start]
            nxt = m[start]
            while nxt != start:
                cyc.append(nxt)
                nxt = m[nxt]
            seen.update(cyc)
            out.append(tuple(cyc))
        return out

    def sign(self) -> int:
        s = 1
        for cyc in self.cycles():
            if len(cyc) % 2 == 0:
                s = -s
        return s

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePermutation):
            return NotImplemented
        return self.map == other.map

    def __hash__(self) -> int:
        return hash(frozenset(self.map.items()))

    def __repr__(self) -> str:
        if self.is_identity():
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles())


def adjacent_word(perm: FinitePermutation, n: int) -> list[int]:
    """A word in adjacent transpositions s_i = (i, i+1) composing to perm.

    Returned so that perm = s_w[0] s_w[1] ... s_w[-1] under the composition
    convention (a*b)(x) = a(b(x)).  Produced by bubble-sorting the one-line
    form, which is canonical and quadratic in n.
    """
    line = perm.one_line(n)
    word: list[int] = []
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if line[i] > line[i + 1]:
                line[i], line[i + 1] = line[i + 1], line[i]
                word.append(i + 1)  # sorting applies s_i on the right
                changed = True
    # line is now the identity and perm * s_{w0} * ... * s_{wk} = id,
    # hence perm = s_{wk} * ... * s_{w0}
    return word[::-1]
