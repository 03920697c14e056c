"""Finite groups as verified Cayley tables, with exact unitary irreps.

Groups are element-indexed with the identity at index 0.  The catalog
covers the cyclic groups up to order 12, the Klein four-group, S3, D4 and
the quaternion group, each with a complete list of irreducible
representations whose matrices are monomial over a cyclotomic field, so
every trace and unitarity check in the package is exact.  Each catalog
irrep is defined in one way, by the images of at most two generating
elements, and every other image is a product of those.

Associativity is checked by Light's test, (x s) y = x (s y) for the
generators s only: the b with (x b) y = x (b y) for all x, y include the
identity and, with b, every b s, hence every element.  Each generator is
tested before the next is chosen, so each at least doubles the subgroup
reached, and |S| <= log2 n even on a table that is not a group.

An irrep is kept as canonical sparse rows, one SparseOperator per
element; the dense images are built on request.  Irreps are verified,
never discovered: the three certificates, all on the rows, are unitarity
of every image, the homomorphism property, and squared-character norm
exactly 1.  The homomorphism property is checked on the pairs G x S
for the small generating set S = FiniteGroup.generators, plus the pair
(0, 0): with image(0) = 1, image(a s) = image(a) image(s) for every a and
every generator s extends to every pair by induction on the length of the
second element as a positive word in S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .cyclo import CycloScalar, scalar, zeta
from .errors import (
    IncompleteIrrepListError,
    NotAGroupError,
    NotHomomorphismError,
    NotIrreducibleError,
    NotUnitaryError,
    UnknownCatalogNameError,
)
from .matrix import ExactMatrix, SparseOperator, canonical_rows
from .perms import FinitePermutation


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class; the representative is the minimal member index."""

    representative: int
    members: tuple[int, ...]


class FiniteGroup:
    """A group given by its Cayley table, verified at load time."""

    def __init__(self, name: str, table, element_names=None):
        self.name = name
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.element_names = (
            tuple(element_names) if element_names else tuple(str(i) for i in range(self.order))
        )
        self._verify()
        # in a group a right inverse is two-sided
        self.inverses = tuple(row.index(0) for row in self.table)

    def _verify(self):
        n = self.order
        if n == 0:
            raise NotAGroupError("the table is empty, so it has no identity")
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise NotAGroupError(f"row {i} has length {len(row)}, expected {n}")
            for j, v in enumerate(row):
                if not (0 <= v < n):
                    raise NotAGroupError(f"entry ({i},{j}) = {v} out of range")
        for j in range(n):
            if self.table[0][j] != j or self.table[j][0] != j:
                raise NotAGroupError(f"index 0 is not an identity at element {j}")
        for a in range(n):
            if 0 not in self.table[a]:
                raise NotAGroupError(f"element {a} has no inverse")
        # generators, sorted: greedily the element whose closure with those
        # already chosen is largest (the lowest index on a tie)
        t, chosen = self.table, []
        while len(self.closure(chosen)) < n:
            s = max(range(n), key=lambda x: (len(self.closure(chosen + [x])), -x))
            for a in range(n):
                for c in range(n):
                    if t[t[a][s]][c] != t[a][t[s][c]]:
                        raise NotAGroupError(f"associativity fails on triple ({a},{s},{c})")
            chosen.append(s)
        self.generators = tuple(sorted(chosen))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conjugate(self, s: int, t: int) -> int:
        """s t s^-1."""
        return self.mul(self.mul(s, t), self.inv(s))

    @cached_property
    def classes(self) -> tuple[ConjClass, ...]:
        seen: set[int] = set()
        out = []
        for t in range(self.order):
            if t in seen:
                continue
            orbit = sorted({self.conjugate(s, t) for s in range(self.order)})
            seen.update(orbit)
            out.append(ConjClass(orbit[0], tuple(orbit)))
        return tuple(out)

    @cached_property
    def _class_of(self) -> tuple[int, ...]:
        lookup = [0] * self.order
        for idx, cls in enumerate(self.classes):
            for t in cls.members:
                lookup[t] = idx
        return tuple(lookup)

    def class_of(self, t: int) -> ConjClass:
        return self.classes[self._class_of[t]]

    def closure(self, gens) -> frozenset[int]:
        """The subgroup generated by gens: the identity and every positive
        word in them, which in a finite group is every word."""
        seen = {0}
        frontier = seen
        while frontier:
            frontier = {self.table[x][g] for x in frontier for g in gens} - seen
            seen |= frontier
        return frozenset(seen)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class Irrep:
    """A certified irreducible unitary representation: rows holds one
    canonical SparseOperator per group element, and images is the dense
    view."""

    label: str
    dim: int
    rows: tuple[SparseOperator, ...]

    @property
    def images(self) -> tuple[ExactMatrix, ...]:
        """The dense images, built from the rows on each call."""
        return tuple(s.to_dense() for s in self.rows)

    def char(self, t: int) -> CycloScalar:
        return self.rows[t].trace()

    @property
    def conductor(self) -> int:
        return lcm(1, *(v.n for s in self.rows for row in s.rows for _, v in row))


def homomorphism_failure(group: FiniteGroup, images) -> tuple[int, int] | None:
    """The first pair (a, b) with images[a] * images[b] != images[a*b]
    among (0, 0) and G x S for S = group.generators, or None.

    For unitary images, (0, 0) holds exactly when image(0) is the
    identity, and then the pairs G x S imply every pair of G x G."""
    pairs = [(0, 0)] + [(a, s) for a in range(group.order) for s in group.generators]
    for a, b in pairs:
        if images[a] * images[b] != images[group.mul(a, b)]:
            return a, b
    return None


def verify_irrep(group: FiniteGroup, images, label: str = "user") -> Irrep:
    """Certify unitarity, homomorphism (homomorphism_failure) and
    irreducibility; exact throughout.

    Each image comes dense, read into rows once, or as rows, which must be
    canonical (matrix.canonical_rows), and every check runs on the rows."""
    images = tuple(images)
    if len(images) != group.order:
        raise NotHomomorphismError(
            f"{label}: {len(images)} images supplied for a group of order {group.order}")
    shapes = [(m.rows, m.cols) if isinstance(m, ExactMatrix) else (len(m.rows), m.dim)
              for m in images]
    dim = shapes[0][0]
    rows = []
    for t, (m, shape) in enumerate(zip(images, shapes)):
        if shape != (dim, dim):
            raise NotHomomorphismError(f"{label}: image of element {t} is not {dim}x{dim}")
        s = canonical_rows(m, f"{label} image({t})")
        if not (s.dagger() * s).is_identity():
            raise NotUnitaryError(f"{label}: image of element {t} is not unitary")
        rows.append(s)
    failure = homomorphism_failure(group, rows)
    if failure is not None:
        a, b = failure
        raise NotHomomorphismError(f"{label}: image({a}) * image({b}) != image({a}*{b})")
    norm = CycloScalar.from_rational(0)
    for s in rows:
        norm = norm + s.trace().norm_sq()
    norm = norm / group.order
    if not norm.is_one():
        raise NotIrreducibleError(f"{label}: squared character norm is {norm}, not 1")
    return Irrep(label, dim, tuple(rows))


def _images_from_generators(group: FiniteGroup, gens: dict[int, list]) -> list[SparseOperator]:
    """Every element's image, as a product of the images of the given
    generating elements, each given by its one (column, value) entry per
    row.  With no generator, as in the trivial group, the image is 1."""
    ops = {g: SparseOperator(len(e), [[(j, scalar(v))] for j, v in e]) for g, e in gens.items()}
    images = {0: SparseOperator.identity(next((s.dim for s in ops.values()), 1))}
    frontier = [0]
    while frontier:
        fresh = []
        for x in frontier:
            for g, mg in ops.items():
                y = group.mul(x, g)
                if y not in images:
                    images[y] = images[x] * mg
                    fresh.append(y)
        frontier = fresh
    if len(images) != group.order:
        raise ValueError("given elements do not generate the group")
    return [images[i] for i in range(group.order)]


def _perm_name(p: tuple[int, ...]) -> str:
    """The cycle notation of a permutation of 0..n-1, 1-based, or e."""
    perm = FinitePermutation.from_one_line([x + 1 for x in p])
    return "e" if perm.is_identity() else repr(perm)


def _cyclic(n: int) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(f"z{n}", table)


def _klein4() -> FiniteGroup:
    table = [[a ^ b for b in range(4)] for a in range(4)]
    return FiniteGroup("klein4", table, ("e", "a", "b", "ab"))


def _s3() -> FiniteGroup:
    elems = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(elems)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    table = [[index[compose(a, b)] for b in elems] for a in elems]
    return FiniteGroup("s3", table, tuple(_perm_name(p) for p in elems))


def _d4() -> FiniteGroup:
    # elements r^a s^b indexed a + 4b; s r s = r^-1
    def mul(x, y):
        a, b = x % 4, x // 4
        c, e = y % 4, y // 4
        a2 = (a + (c if b == 0 else -c)) % 4
        return a2 + 4 * ((b + e) % 2)

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    names = ("e", "r", "r2", "r3", "s", "rs", "r2s", "r3s")
    return FiniteGroup("d4", table, names)


_Q8_NAMES = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def _q8() -> FiniteGroup:
    # (sign, axis) with axes 0=1, 1=i, 2=j, 3=k
    def decode(x):
        return 1 - 2 * (x % 2), x // 2

    def encode(sign, axis):
        return axis * 2 + (0 if sign > 0 else 1)

    axis_mul = {  # (axis, axis) -> (sign, axis)
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
    }

    def mul(x, y):
        sx, ax = decode(x)
        sy, ay = decode(y)
        s, a = axis_mul[(ax, ay)]
        return encode(sx * sy * s, a)

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    return FiniteGroup("q8", table, _Q8_NAMES)


_CATALOG_BUILDERS = {"trivial": lambda: _cyclic(1), "klein4": _klein4,
                     "s3": _s3, "d4": _d4, "q8": _q8}
for _n in range(1, 13):
    _CATALOG_BUILDERS[f"z{_n}"] = (lambda n=_n: _cyclic(n))

CATALOG_NAMES = ("trivial",) + tuple(f"z{n}" for n in range(1, 13)) + ("klein4", "s3", "d4", "q8")


def load_group(source) -> FiniteGroup:
    """Load a catalog group by name, or verify a user-supplied Cayley table."""
    if isinstance(source, str):
        builder = _CATALOG_BUILDERS.get(source.lower())
        if builder is None:
            raise UnknownCatalogNameError(
                f"unknown group {source!r}; catalog: {', '.join(CATALOG_NAMES)}")
        return builder()
    return FiniteGroup("custom", source)


def _generator_images(name: str) -> list[tuple[str, dict[int, list]]]:
    """Each catalog irrep of the named group as (label, {generating
    element: image}), an image given by its one (column, value) entry per
    row."""
    swap = [(1, 1), (0, 1)]
    if name.startswith("z") and name[1:].isdigit():
        n = int(name[1:])
        return [("triv" if k == 0 else f"chi{k}", {1: [(0, zeta(n, k))]} if n > 1 else {})
                for k in range(n)]
    if name == "klein4":  # a, b
        return [("triv" if a == b == 0 else f"chi{a}{b}", {1: [(0, (-1) ** a)], 2: [(0, (-1) ** b)]})
                for a in (0, 1) for b in (0, 1)]
    if name == "s3":  # (1 2 3), (1 2)
        return [("triv", {3: [(0, 1)], 2: [(0, 1)]}), ("sgn", {3: [(0, 1)], 2: [(0, -1)]}),
                ("std", {3: [(0, zeta(3, 1)), (1, zeta(3, 2))], 2: swap})]
    if name == "d4":  # r, s
        return [(label, {1: [(0, x)], 4: [(0, y)]}) for label, x, y in (
            ("triv", 1, 1), ("sgn_s", 1, -1), ("sgn_r", -1, 1), ("sgn_rs", -1, -1))] + [
            ("std2", {1: [(0, zeta(4, 1)), (1, zeta(4, 3))], 4: swap})]
    if name == "q8":  # i, j
        return [(label, {2: [(0, x)], 4: [(0, y)]}) for label, x, y in (
            ("triv", 1, 1), ("chi_i", 1, -1), ("chi_j", -1, 1), ("chi_k", -1, -1))] + [
            ("spin2", {2: [(0, zeta(4, 1)), (1, zeta(4, 3))], 4: [(1, -1), (0, 1)]})]
    raise UnknownCatalogNameError(f"no catalog irreps for group {name!r}")


def catalog_irreps(group: FiniteGroup) -> tuple[Irrep, ...]:
    """The complete verified irrep list of a catalog group."""
    irreps = tuple(verify_irrep(group, _images_from_generators(group, gens), label)
                   for label, gens in _generator_images(group.name))
    if sum(rep.dim ** 2 for rep in irreps) != group.order:
        raise IncompleteIrrepListError(
            f"irrep list for {group.name} has dimension-square sum "
            f"{sum(rep.dim ** 2 for rep in irreps)}, expected {group.order}")
    return irreps
