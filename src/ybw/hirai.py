"""The parameter family for extremal characters of the wreath product, the
closed-form character it induces, and the restriction to plain permutations.

A parameter set assigns to each irreducible character of the color group
and each sign epsilon in {0, 1} a non-increasing list of non-negative
rationals, plus one extra weight per irreducible; the total mass is at
most 1.  The closed-form character is a product over the standard
decomposition: elementary parts contribute a weighted character value of
their color, cyclic parts a weighted signed power of length-many factors.

The Yang-Baxter-admissible subset is cut out by four conditions: finite
support, vanishing extra weights, total mass exactly 1, and rational
entries; the minimal matrix dimension realizing the set is the lcm of the
denominators of the per-irrep normalized entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cyclo import CycloScalar
from .errors import (
    GroupMismatchError,
    MassExceedsOneError,
    NegativeEntryError,
    NotNonIncreasingError,
    UnknownIrrepLabelError,
)
from .groups import FiniteGroup, Irrep
from .rmatrix import ThomaParams
from .wreath import WreathElement, cycle_product_class, standard_decomposition


def sign_character(length: int, eps: int) -> Fraction:
    """Character value of the sign-power character on a cycle of the given length."""
    if eps not in (0, 1):
        raise ValueError("epsilon must be 0 or 1")
    if eps == 0:
        return Fraction(1)
    return Fraction(-1) ** (length - 1)


@dataclass(frozen=True)
class HiraiParams:
    """A validated member of the parameter family over a catalog of irreps."""

    group: FiniteGroup
    irreps: tuple[Irrep, ...]
    a: dict  # (label, eps) -> tuple[Fraction, ...], trailing zeros stripped
    mu: dict  # label -> Fraction

    def a_list(self, label: str, eps: int) -> tuple[Fraction, ...]:
        return self.a.get((label, eps), ())

    def mu_of(self, label: str) -> Fraction:
        return self.mu.get(label, Fraction(0))

    def total_mass(self) -> Fraction:
        mass = Fraction(0)
        for seq in self.a.values():
            mass += sum(seq, Fraction(0))
        for v in self.mu.values():
            mass += v
        return mass


def validate_params(group: FiniteGroup, irreps, a_raw: dict, mu_raw: dict) -> HiraiParams:
    """Verify membership in the parameter family and normalize storage."""
    irreps = tuple(irreps)
    labels = {rep.label for rep in irreps}
    a: dict = {}
    for (label, eps), seq in a_raw.items():
        if label not in labels:
            raise UnknownIrrepLabelError(f"unknown irrep label {label!r}")
        if eps not in (0, 1):
            raise UnknownIrrepLabelError(f"epsilon must be 0 or 1, got {eps!r}")
        vals = tuple(Fraction(v) for v in seq)
        for i, v in enumerate(vals):
            if v < 0:
                raise NegativeEntryError(f"a[{label},{eps}][{i}] = {v} is negative")
            if i and vals[i - 1] < v:
                raise NotNonIncreasingError(
                    f"a[{label},{eps}] is not non-increasing at index {i}")
        while vals and vals[-1] == 0:
            vals = vals[:-1]
        if vals:
            a[(label, eps)] = vals
    mu: dict = {}
    for label, v in mu_raw.items():
        if label not in labels:
            raise UnknownIrrepLabelError(f"unknown irrep label {label!r} in mu")
        val = Fraction(v)
        if val < 0:
            raise NegativeEntryError(f"mu[{label}] = {val} is negative")
        if val > 0:
            mu[label] = val
    params = HiraiParams(group, irreps, a, mu)
    if params.total_mass() > 1:
        raise MassExceedsOneError(f"total mass {params.total_mass()} exceeds 1")
    return params


@dataclass(frozen=True)
class YBAdmissibility:
    verdict: bool
    minimal_d: int | None
    violations: tuple[str, ...]


def is_yb_admissible(p: HiraiParams) -> YBAdmissibility:
    """The four conditions for a parameter set to arise from a couple.

    Finite support is structural here (lists are finite); the live checks
    are vanishing mu, total mass exactly 1, and rationality (structural as
    well).  The minimal dimension is the lcm of the denominators of the
    entries divided by their irrep dimension.
    """
    violations = []
    if p.mu:
        violations.append("mu_nonzero")
    if p.total_mass() != 1:
        violations.append("mass_not_one")
    if violations:
        return YBAdmissibility(False, None, tuple(violations))
    dims = {rep.label: rep.dim for rep in p.irreps}
    d = 1
    for (label, _), seq in p.a.items():
        for v in seq:
            d = lcm(d, (v / dims[label]).denominator)
    return YBAdmissibility(True, d, ())


def closed_form_character(p: HiraiParams, g: WreathElement) -> CycloScalar:
    """Product formula over the standard decomposition of g."""
    if p.group != g.group:
        raise GroupMismatchError("element is over a different group than the parameters")
    dec = standard_decomposition(g)
    result = CycloScalar.from_rational(1)
    for _, color in dec.elementary:
        factor = CycloScalar.from_rational(0)
        for rep in p.irreps:
            weight = p.mu_of(rep.label)
            for eps in (0, 1):
                weight += sum(p.a_list(rep.label, eps), Fraction(0))
            if weight:
                factor = factor + (weight / rep.dim) * rep.char(color)
        result = result * factor
    for part in dec.cyclic:
        length = part.length
        cls = cycle_product_class(p.group, part)
        factor = CycloScalar.from_rational(0)
        for rep in p.irreps:
            weight = Fraction(0)
            for eps in (0, 1):
                sgn = sign_character(length, eps)
                for v in p.a_list(rep.label, eps):
                    weight += (v / rep.dim) ** length * sgn
            if weight:
                factor = factor + weight * rep.char(cls.representative)
        result = result * factor
    return result


def thoma_restriction(p: HiraiParams) -> ThomaParams:
    """Merged weights of the restriction to plain permutations.

    Each normalized entry a/(dim) occurs with multiplicity dim; epsilon 0
    entries feed alpha, epsilon 1 entries feed beta.
    """
    alpha: list[Fraction] = []
    beta: list[Fraction] = []
    dims = {rep.label: rep.dim for rep in p.irreps}
    for (label, eps), seq in p.a.items():
        dim = dims[label]
        for v in seq:
            if v == 0:
                continue
            target = alpha if eps == 0 else beta
            target.extend([v / dim] * dim)
    alpha.sort(reverse=True)
    beta.sort(reverse=True)
    return ThomaParams(tuple(alpha), tuple(beta))
