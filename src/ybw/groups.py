"""Finite groups as verified Cayley tables, with exact unitary irreps.

Groups are element-indexed with the identity at index 0.  The catalog
covers the cyclic groups up to order 12, the Klein four-group, S3, D4 and
the quaternion group, each with a complete list of irreducible
representations whose matrices are monomial over a cyclotomic field, so
every trace and unitarity check in the package is exact.

Associativity is checked by Light's test, (x s) y = x (s y) for the
generators s only: the b with (x b) y = x (b y) for all x, y include the
identity and, with b, every b s, hence every element.  Each generator is
tested before the next is chosen, so each at least doubles the subgroup
reached, and |S| <= log2 n even on a table that is not a group.

Irreps are verified, never discovered: the three certificates are
unitarity of every image, the homomorphism property, and squared-character
norm exactly 1.  The homomorphism property is checked on the pairs G x S
for the small generating set S = FiniteGroup.generators, plus the pair
(0, 0): with image(0) = 1, image(a s) = image(a) image(s) for every a and
every generator s extends to every pair by induction on the length of the
second element as a positive word in S.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .cyclo import CycloScalar, zeta
from .errors import (
    IncompleteIrrepListError,
    NotAGroupError,
    NotHomomorphismError,
    NotIrreducibleError,
    NotUnitaryError,
    UnknownCatalogNameError,
)
from .matrix import ExactMatrix


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


def conjugacy_classes(g: FiniteGroup) -> tuple[ConjClass, ...]:
    return g.classes


@dataclass(frozen=True)
class Irrep:
    """A certified irreducible unitary representation."""

    label: str
    dim: int
    images: tuple[ExactMatrix, ...]

    def char(self, t: int) -> CycloScalar:
        return self.images[t].trace()

    @property
    def conductor(self) -> int:
        n = 1
        for m in self.images:
            for row in m.data:
                for v in row:
                    n = lcm(n, v.n)
        return n


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
    irreducibility; exact throughout."""
    images = tuple(images)
    if len(images) != group.order:
        raise NotHomomorphismError(
            f"{label}: {len(images)} images supplied for a group of order {group.order}")
    dim = images[0].rows
    for t, m in enumerate(images):
        if m.rows != dim or m.cols != dim:
            raise NotHomomorphismError(f"{label}: image of element {t} is not {dim}x{dim}")
        if not (m.dagger() * m).is_identity():
            raise NotUnitaryError(f"{label}: image of element {t} is not unitary")
    failure = homomorphism_failure(group, images)
    if failure is not None:
        a, b = failure
        raise NotHomomorphismError(f"{label}: image({a}) * image({b}) != image({a}*{b})")
    norm = CycloScalar.from_rational(0)
    for m in images:
        tr = m.trace()
        norm = norm + tr.norm_sq()
    norm = norm / group.order
    if not norm.is_one():
        raise NotIrreducibleError(f"{label}: squared character norm is {norm}, not 1")
    return Irrep(label, dim, images)


def _images_from_generators(group: FiniteGroup, gens: dict[int, ExactMatrix],
                            dim: int) -> list[ExactMatrix]:
    images: dict[int, ExactMatrix] = {0: ExactMatrix.identity(dim)}
    frontier = [0]
    while frontier:
        fresh = []
        for x in frontier:
            for g, mg in gens.items():
                y = group.mul(x, g)
                if y not in images:
                    images[y] = images[x] * mg
                    fresh.append(y)
        frontier = fresh
    if len(images) != group.order:
        raise ValueError("given elements do not generate the group")
    return [images[i] for i in range(group.order)]


def _perm_name(p: tuple[int, ...]) -> str:
    seen: set[int] = set()
    cycles = []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = p[nxt]
        cycles.append(cyc)
    if not cycles:
        return "e"
    return "".join("(" + " ".join(str(i + 1) for i in c) + ")" for c in cycles)


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


def _swap2() -> ExactMatrix:
    return ExactMatrix.from_entries(2, 2, {(0, 1): 1, (1, 0): 1})


def _one_dim(group: FiniteGroup, label: str, values) -> Irrep:
    images = [ExactMatrix.diag([v]) for v in values]
    return verify_irrep(group, images, label)


def catalog_irreps(group: FiniteGroup) -> tuple[Irrep, ...]:
    """The complete verified irrep list of a catalog group."""
    name = group.name
    if name.startswith("z") and name[1:].isdigit():
        n = int(name[1:])
        irreps = []
        for k in range(n):
            vals = [zeta(n, j * k) for j in range(n)]
            label = "triv" if k == 0 else f"chi{k}"
            irreps.append(_one_dim(group, label, vals))
    elif name == "klein4":
        irreps = []
        for a in range(2):
            for b in range(2):
                vals = [Fraction(-1) ** (a * (x % 2) + b * (x // 2)) for x in range(4)]
                label = "triv" if (a, b) == (0, 0) else f"chi{a}{b}"
                irreps.append(_one_dim(group, label, vals))
    elif name == "s3":
        signs = {0: 1, 1: -1, 2: -1, 3: 1, 4: 1, 5: -1}  # parity by element index
        irreps = [
            _one_dim(group, "triv", [1] * 6),
            _one_dim(group, "sgn", [signs[i] for i in range(6)]),
        ]
        r, s = 3, 2  # (1 2 3) and (1 2)
        gens = {
            r: ExactMatrix.diag([zeta(3, 1), zeta(3, 2)]),
            s: _swap2(),
        }
        irreps.append(verify_irrep(group, _images_from_generators(group, gens, 2), "std"))
    elif name == "d4":
        def one_dim_vals(xr, xs):
            return [Fraction(xr) ** (t % 4) * Fraction(xs) ** (t // 4) for t in range(8)]

        irreps = [
            _one_dim(group, "triv", one_dim_vals(1, 1)),
            _one_dim(group, "sgn_s", one_dim_vals(1, -1)),
            _one_dim(group, "sgn_r", one_dim_vals(-1, 1)),
            _one_dim(group, "sgn_rs", one_dim_vals(-1, -1)),
        ]
        gens = {1: ExactMatrix.diag([zeta(4, 1), zeta(4, 3)]), 4: _swap2()}
        irreps.append(verify_irrep(group, _images_from_generators(group, gens, 2), "std2"))
    elif name == "q8":
        def sign_irrep(label, pos_axes):
            vals = [1 if (x // 2) in pos_axes else -1 for x in range(8)]
            return _one_dim(group, label, vals)

        irreps = [
            _one_dim(group, "triv", [1] * 8),
            sign_irrep("chi_i", {0, 1}),
            sign_irrep("chi_j", {0, 2}),
            sign_irrep("chi_k", {0, 3}),
        ]
        i_mat = ExactMatrix.diag([zeta(4, 1), zeta(4, 3)])
        j_mat = ExactMatrix.from_entries(2, 2, {(0, 1): -1, (1, 0): 1})
        irreps.append(verify_irrep(
            group, _images_from_generators(group, {2: i_mat, 4: j_mat}, 2), "spin2"))
    else:
        raise UnknownCatalogNameError(f"no catalog irreps for group {name!r}")
    if sum(rep.dim ** 2 for rep in irreps) != group.order:
        raise IncompleteIrrepListError(
            f"irrep list for {name} has dimension-square sum "
            f"{sum(rep.dim ** 2 for rep in irreps)}, expected {group.order}")
    return tuple(irreps)
