"""The parameter family for extremal characters of the wreath product, the
closed-form character it induces, and the restriction to plain permutations.

A parameter set assigns to each irreducible character of the color group
and each sign epsilon in {0, 1} a non-increasing list of non-negative
rationals, plus one extra weight per irreducible; the total mass is at
most 1.  The closed-form character is a product over the standard
decomposition: elementary parts contribute a weighted character value of
their color, cyclic parts a weighted signed power of length-many factors.

Each factor depends only on the cycle's length and the class of its color
product (an elementary part's only on the class of its color), read off
wreath.colored_cycles, so the factors are kept in a per-parameter memo and
a character costs one lookup per cycle.

The Yang-Baxter-admissible subset is cut out by four conditions: finite
support, vanishing extra weights, total mass exactly 1, and rational
entries; the minimal matrix dimension realizing the set is the lcm of the
denominators of the per-irrep normalized entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .cyclo import ONE, ZERO, CycloScalar
from .errors import (
    GroupMismatchError,
    MassExceedsOneError,
    NegativeEntryError,
    NotNonIncreasingError,
    UnknownIrrepLabelError,
)
from .groups import FiniteGroup, Irrep
from .rmatrix import ThomaParams
from .wreath import WreathElement, colored_cycles


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
    # closed_form_character's factors, filled on first use: (L, class
    # representative) for a cycle of length L >= 2, (0, representative)
    # for an elementary part, whose weight also carries mu
    _factors: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
    return YBAdmissibility(True, entry_denominator(p), ())  # mu is empty here


def entry_denominator(p: HiraiParams) -> int:
    """The lcm of the denominators of the normalized entries a/dim and mu/dim.

    A cycle of length L contributes a factor whose denominator divides this
    to the power L, an elementary part one whose denominator divides it,
    the denominators of the character values aside.
    """
    dims = {rep.label: rep.dim for rep in p.irreps}
    d = 1
    for (label, _), seq in p.a.items():
        for v in seq:
            d = lcm(d, (v / dims[label]).denominator)
    for label, v in p.mu.items():
        d = lcm(d, (v / dims[label]).denominator)
    return d


def _factor(p: HiraiParams, length: int, rep_t: int) -> CycloScalar:
    """The factor of a cycle of the given length (0: of an elementary part)
    whose color product is in the class of rep_t."""
    factor = ZERO
    for rep in p.irreps:
        if length == 0:
            weight = (p.mu_of(rep.label) + sum(p.a_list(rep.label, 0))
                      + sum(p.a_list(rep.label, 1))) / rep.dim
        else:
            weight = sum(sign_character(length, eps) * (v / rep.dim) ** length
                         for eps in (0, 1) for v in p.a_list(rep.label, eps))
        if weight:
            factor = factor + weight * rep.char(rep_t)
    return factor


def closed_form_character(p: HiraiParams, g: WreathElement) -> CycloScalar:
    """Product formula over wreath.colored_cycles(g), one memo lookup
    (HiraiParams._factors) per elementary part (L = 1) and per cycle."""
    if p.group != g.group:
        raise GroupMismatchError("element is over a different group than the parameters")
    group, factors = p.group, p._factors
    result = ONE
    for t, length in colored_cycles(g):
        key = (0 if length == 1 else length, group.class_of(t).representative)
        factor = factors.get(key)
        if factor is None:
            factor = factors[key] = _factor(p, *key)
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
