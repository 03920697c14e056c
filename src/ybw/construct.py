"""Builder for the explicit couple realizing an admissible parameter set.

The space V splits into blocks indexed by (irrep, epsilon, i), each a
tensor product of a copy of the irrep space (dimension dim) and a
multiplicity space of dimension d * a / dim.  The block R-matrix flips the
irrep components with sign (-1)^epsilon and leaves the multiplicity
components in place, one entry per sparse row; the full R is the box-sum
over blocks, and pi(t) is irrep (x) identity on each block, row by row
from the irrep's rows; no dense matrix is built.

Built couples additionally satisfy the exchange identity
R (pi(t) (x) 1) R = 1 (x) pi(t), checked exactly by
couple.exchange_identity_holds, which forces extremality of the induced
character: the check leaves the couple's flag set, so couple.character
evaluates each reduced word as a product of scalars, one per colored
cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .couple import YangBaxterCouple, _exchange_failures, certify_couple, character
from .cyclo import CycloScalar, MINUS_ONE, ONE
from .errors import ExtendedREFailsError, NonIntegralBlocksError
from .hirai import HiraiParams, closed_form_character, is_yb_admissible, thoma_restriction
from .matrix import SparseOperator
from .rmatrix import RMatrix, ThomaParams, boxplus, extract_thoma, verify_rmatrix
from .wreath import WreathElement


@dataclass(frozen=True)
class Block:
    label: str
    eps: int
    index: int
    dim_v: int   # irrep dimension
    dim_w: int   # multiplicity d * a / dim_v
    offset: int  # basis offset inside V

    @property
    def size(self) -> int:
        return self.dim_v * self.dim_w


@dataclass(frozen=True)
class BlockLayout:
    d: int
    blocks: tuple[Block, ...]
    w: int = 1


def build_layout(p: HiraiParams, d: int) -> BlockLayout:
    """Deterministic block list: irreps in catalog order, then epsilon, then i.

    Zero-mass entries produce no block; every multiplicity must be a
    positive integer at the chosen d.
    """
    adm = is_yb_admissible(p)
    if not adm.verdict:
        raise NonIntegralBlocksError(
            f"parameters are not admissible: {', '.join(adm.violations)}")
    blocks = []
    offset = 0
    offenders = []
    for rep in p.irreps:
        for eps in (0, 1):
            for i, v in enumerate(p.a_list(rep.label, eps)):
                if v == 0:
                    continue
                mult = Fraction(d) * v / rep.dim
                if mult.denominator != 1:
                    offenders.append(f"({rep.label},{eps},{i})")
                    continue
                blocks.append(Block(rep.label, eps, i, rep.dim, int(mult), offset))
                offset += rep.dim * int(mult)
    if offenders:
        raise NonIntegralBlocksError(
            f"non-integral multiplicity at d={d} for entries {', '.join(offenders)}")
    if offset != d:
        raise NonIntegralBlocksError(f"blocks fill {offset} of {d} dimensions")
    return BlockLayout(d, tuple(blocks))


def block_rmatrix(dim_v: int, dim_w: int, eps: int) -> SparseOperator:
    """The signed flip of the irrep components on (V (x) W)^(x 2): row
    (c, b, a, e) holds the sign at column (a, b, c, e)."""
    size = dim_v * dim_w
    sign = ONE if eps == 0 else MINUS_ONE
    rows = []
    for c in range(dim_v):
        for b in range(dim_w):
            for a in range(dim_v):
                for e in range(dim_w):
                    rows.append([((a * dim_w + b) * size + c * dim_w + e, sign)])
    return SparseOperator(size * size, rows)


def certified_block_rmatrix(dim_v: int, dim_w: int, eps: int) -> RMatrix:
    return verify_rmatrix(block_rmatrix(dim_v, dim_w, eps), dim_v * dim_w)


def block_thoma(dim_v: int, eps: int) -> ThomaParams:
    """Uniform weights 1/dim_v, on the alpha side for eps 0, beta for eps 1."""
    weights = tuple([Fraction(1, dim_v)] * dim_v)
    if eps == 0:
        return ThomaParams(weights, ())
    return ThomaParams((), weights)


def build_couple(p: HiraiParams, d: int | None = None) -> tuple[YangBaxterCouple, BlockLayout]:
    """Assemble and certify the couple for an admissible parameter set;
    build_layout rejects parameters that are not admissible."""
    if d is None:
        d = is_yb_admissible(p).minimal_d
    layout = build_layout(p, d)
    parts = [certified_block_rmatrix(b.dim_v, b.dim_w, b.eps) for b in layout.blocks]
    r = boxplus(*parts)
    irreps = {rep.label: rep for rep in p.irreps}
    pi_rows = []
    for t in range(p.group.order):
        rows = []  # blocks are consecutive, so their rows come in order
        for b in layout.blocks:
            for entries in irreps[b.label].rows[t].rows:
                rows += [[(b.offset + y * b.dim_w + k, v) for y, v in entries] for k in range(b.dim_w)]
        pi_rows.append(SparseOperator(d, rows))
    couple = certify_couple(p.group, r, pi_rows, 1)
    _check_exchange_identity(couple)
    return couple, layout


def _check_exchange_identity(c: YangBaxterCouple) -> None:
    """R (pi(t) (x) 1) R = 1 (x) pi(t), exactly, for every element t of the
    group, checked on the generators (couple.exchange_identity_holds); the
    error names the first generator on which it fails."""
    failures = _exchange_failures(c)
    if failures:
        raise ExtendedREFailsError(f"exchange identity fails for element {failures[0]}; "
                                   "this indicates a builder bug")


@dataclass
class EndToEndReport:
    couple: YangBaxterCouple
    samples: int
    char_mismatches: list[tuple[WreathElement, CycloScalar, CycloScalar]]
    thoma_built: ThomaParams
    thoma_expected: ThomaParams

    @property
    def thoma_ok(self) -> bool:
        return self.thoma_built == self.thoma_expected

    @property
    def ok(self) -> bool:
        return self.samples > 0 and self.thoma_ok and not self.char_mismatches


def end_to_end_check(p: HiraiParams, sample, d: int | None = None) -> EndToEndReport:
    """Trace character of the built couple against the closed form, exactly,
    plus agreement of the extracted Thoma weights with the restriction.
    The report carries the couple, so callers need not build it again."""
    couple, _ = build_couple(p, d)
    mismatches = []
    count = 0
    for g in sample:
        count += 1
        lhs = character(couple, g)
        rhs = closed_form_character(p, g)
        if lhs != rhs:
            mismatches.append((g, lhs, rhs))
    return EndToEndReport(couple, count, mismatches, extract_thoma(couple.r),
                          thoma_restriction(p))
