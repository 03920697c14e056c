"""Yang-Baxter couples: a unitary representation pi of a finite group on
W (x) V paired with a certified R-matrix on V (x) V, subject to the
extended reflection equation

    R1 pi(t) R1 pi(t') = pi(t') R1 pi(t) R1   for all t, t',

with R1 = 1_W (x) R and pi(t) extended by the identity on the new factor.
A certified couple induces a representation of the wreath product on
truncated spaces W (x) V^(x n) and, through the normalized trace, an
extremal character evaluated here exactly.

Like R, pi is kept as its certified sparse rows (pi_rows), read once from
dense images, and the dense images (pi) are built on request.  The image
of a wreath element is one word of local gates, pi(t) on W (x) V_1 and R
on adjacent V-slots.  Certification
checks the equation above as X_t pi(t') = pi(t') X_t, where
X_t = R1 pi(t) R1 is a gate word, for t and t' in the generating set
FiniteGroup.generators only: R1^2 = 1 makes t -> X_t a homomorphism like
pi, so when X_a commutes with pi(b) for all generators a and b, every X_t
commutes with every pi(t').
Character values do not depend on the truncation level, because the
operators act as the identity on appended factors, nor on the element
within its conjugacy class.  So a character is read off the element's
colored cycles (wreath.colored_cycles), each reduced by the partial trace
T = Tr_2(R) (character, with the proof): an uncolored cycle of length L
becomes the scalar tr(T^(L-1)), and a colored one a single site carrying
M(t, L) = pi(t) (1_W (x) T^(L-1)) in place of pi(t).  The reduced word
lives on W (x) V^(x k), k the number of colored cycles, whatever the
support.
A couple whose R and pi satisfy the exchange identity
R_12 pi(t)_01 R_12 = pi(t)_02 on W (x) V (x) V (exchange_identity_holds),
as every builder couple and its conjugates by unitaries on V do, traces
that word as the product tr_W(A(t_1, L_1) ... A(t_k, L_k)) of the w x w
site traces A(t, L) = Tr_V M(t, L): k - 1 products of w x w matrices,
scalars for w = 1.  Any other couple traces the word with its
staircases, by matrix.gate_trace (_staircase_trace).
A couple keeps four lazily filled slots, none of which certify_couple
touches: _site_gates, the sites M(t, L); _site_traces, the A(t, L);
_word_traces, the trace of each reduced word by its sites
((t_1, L_1), ..., (t_k, L_k)); and _exchange_failures, the generators on
which the exchange identity fails, computed by character on first use,
or by construct.build_couple, which requires it to hold.  So an element
whose reduced word was met before costs one walk over its cycles, one
power of tr(T^(L-1)) per length of its uncolored cycles and one lookup.
rep_element and certification multiply words out on CycloScalar rows
with matrix.gate_product, and rep_element stays the literal image at any
level n >= max(support), the oracle of character, as the staircase trace
is of the exchange trace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cyclo import ONE, CycloScalar, scalar
from .errors import (
    DimensionMismatchError,
    ExtendedREFailsError,
    GroupMismatchError,
    NotHomomorphismError,
    NotUnitaryError,
    OperatorTooLargeError,
    SupportExceedsLevelError,
    SupportsNotDisjointError,
)
from .groups import FiniteGroup, homomorphism_failure
from .matrix import (ExactMatrix, SparseOperator, amplify, canonical_rows, gate_product, gate_trace,
                     partial_trace)
from .perms import adjacent_word
from .rmatrix import RMatrix, t_power
from .wreath import WreathElement, colored_cycles

# The largest dimension of a word's space: w * d^n for the literal image
# rep_element builds at level n, and w * d^k for the reduced word character
# traces, k the number of colored cycles (fixed colored points included),
# whatever the support.  An image holds one row list per basis vector, and
# every gate of the word passes over all of them: at the limit (d = 4,
# level 8) an element colored at every position takes about 14 s and 49 MB
# in rep_element, and 0.1 s and 5 MB in character on a monomial couple,
# where its reduced word is its literal word (k = n = 8).  On the s3 d = 4
# couple conjugated by the benchmark's block unitary, where every pi gate
# of that word fills its rows, character takes about 7 s and 440 MB on the
# packed group ring (39 s and 660 MB on CycloScalar rows).  Tier-1, the
# scripts and the benchmark workloads stay at or below 4096 (d = 4, k = 6).
MAX_OPERATOR_DIM = 1 << 16
# The largest level, the one d = 2 reaches at MAX_OPERATOR_DIM: n for
# rep_element and k for character.  It bounds d = 1 words, whose dimension
# w never grows while the word does: k^2 R gates of color staircases, and
# in rep_element an adjacent-transposition word as well.
MAX_LEVEL = MAX_OPERATOR_DIM.bit_length() - 1


class YangBaxterCouple:
    """A certified (pi, R) pair over a finite group: pi_rows holds one
    canonical SparseOperator per group element, and pi is the dense view."""

    __slots__ = ("group", "r", "pi_rows", "w", "_site_gates", "_site_traces", "_word_traces",
                 "_exchange_failures")

    def __init__(self, group: FiniteGroup, r: RMatrix, pi_rows: tuple[SparseOperator, ...],
                 w: int, _certified: bool = False):
        if not _certified:
            raise TypeError("use certify_couple() to construct a couple")
        self.group = group
        self.r = r
        self.pi_rows = pi_rows
        self.w = w
        self._site_gates: dict[tuple[int, int], SparseOperator] = {}  # see _site_gate
        self._site_traces: dict[tuple[int, int], SparseOperator] = {}  # see _site_trace
        # the trace of each reduced word character has met, by its sites
        self._word_traces: dict[tuple[tuple[int, int], ...], CycloScalar] = {}
        # see exchange_identity_holds; None until first asked
        self._exchange_failures: tuple[int, ...] | None = None

    @property
    def pi(self) -> tuple[ExactMatrix, ...]:
        """The dense images, built from the rows on each call."""
        return tuple(s.to_dense() for s in self.pi_rows)

    @property
    def d(self) -> int:
        return self.r.d

    def layout(self, n: int) -> tuple[int, ...]:
        return (self.w,) + (self.d,) * n

    def __repr__(self) -> str:
        return f"YangBaxterCouple({self.group.name}, d={self.d}, w={self.w})"


def certify_couple(group: FiniteGroup, r: RMatrix, pi_images, w: int) -> YangBaxterCouple:
    """Check that pi is a unitary representation on W (x) V and that the
    extended reflection equation holds over every pair of group elements.

    Each image comes dense, read into rows once, or as rows, which must be
    canonical (matrix.canonical_rows), and every check runs on the rows.
    Unitarity is checked on every image, the homomorphism property by
    groups.homomorphism_failure, and the equation, regrouped as
    X_a pi(b) = pi(b) X_a with X_a = R1 pi(a) R1 a gate word, on the pairs
    S x S of generators: two sparse products per pair."""
    images = tuple(pi_images)
    if len(images) != group.order:
        raise NotHomomorphismError(
            f"{len(images)} pi images supplied for a group of order {group.order}")
    wd = w * r.d
    pi = []
    for t, m in enumerate(images):
        shape = (m.rows, m.cols) if isinstance(m, ExactMatrix) else (len(m.rows), m.dim)
        if shape != (wd, wd):
            raise DimensionMismatchError(
                f"pi image of element {t} is {shape[0]}x{shape[1]}, expected {wd}x{wd}")
        s = canonical_rows(m, f"pi({t})")
        if not (s.dagger() * s).is_identity():
            raise NotUnitaryError(f"pi image of element {t} is not unitary")
        pi.append(s)
    failure = homomorphism_failure(group, pi)
    if failure is not None:
        a, b = failure
        raise NotHomomorphismError(f"pi({a}) pi({b}) != pi({a}*{b})")
    # These checks multiply small operators, so comparing words with
    # matrix.first_differing_row instead does not pay for its packing: on
    # the benchmark's conjugated couples the equation alone ran about as
    # fast, and unitarity, homomorphism and equation together 1.5-2.4x
    # slower (q8, d = 4: 2.5 -> 5.7 ms a call on a 2-vCPU host).
    dims = (w, r.d, r.d)
    r1 = (r.sparse, 1, 3)
    gens = group.generators
    xs = {a: gate_product(dims, [r1, (pi[a], 0, 2), r1]) for a in gens}
    pi_amp = {b: amplify(pi[b], dims, 0, 2) for b in gens}
    for a in gens:
        for b in gens:
            if xs[a] * pi_amp[b] != pi_amp[b] * xs[a]:
                raise ExtendedREFailsError(
                    f"extended reflection equation fails on the pair ({a},{b})")
    return YangBaxterCouple(group, r, tuple(pi), w, _certified=True)


def rep_element(c: YangBaxterCouple, g: WreathElement, n: int) -> SparseOperator:
    """The image of a wreath element on W (x) V^(x n).

    The color part is the product over colored positions i, in increasing
    order, of R_(i-1) ... R_1 pi(t_i) R_1 ... R_(i-1); the permutation part
    is R at the slots of the adjacent-transposition word of the
    permutation, with the identity on W.  Both parts form one gate word.
    An image of dimension w * d^n above MAX_OPERATOR_DIM, or of a level n
    above MAX_LEVEL, raises OperatorTooLargeError before its word is built.
    """
    if c.group != g.group:
        raise GroupMismatchError("element is over a different group than the couple")
    if g.max_support() > n:
        raise SupportExceedsLevelError(f"support reaches {g.max_support()}, level is {n}")
    _check_level(c, n)
    word = _staircases(c, [(i, c.pi_rows[t]) for i, t in sorted(g.colors.items())])
    word += [(c.r.sparse, j, j + 2) for j in adjacent_word(g.perm, n)]
    return gate_product(c.layout(n), word)


def _check_level(c: YangBaxterCouple, n: int) -> None:
    """Refuse an image on W (x) V^(x n) above MAX_OPERATOR_DIM or MAX_LEVEL."""
    # d >= 2 passes the limit by level MAX_LEVEL + 1, so the capped exponent
    # decides the check without forming d^n for a huge n
    if c.w * c.d ** min(n, MAX_LEVEL + 1) > MAX_OPERATOR_DIM:
        raise OperatorTooLargeError(
            f"the image on W (x) V^(x {n}) has dimension w*d^n = {c.w}*{c.d}^{n}, "
            f"above the limit MAX_OPERATOR_DIM = {MAX_OPERATOR_DIM}")
    if n > MAX_LEVEL:
        raise OperatorTooLargeError(
            f"the image on W (x) V^(x {n}) has level n = {n}, above the limit "
            f"MAX_LEVEL = {MAX_LEVEL}")


def _staircases(c: YangBaxterCouple, placed) -> list:
    """The color word: for each (i, op) in increasing i, the gates
    R_(i-1) ... R_1 op R_1 ... R_(i-1), op on W (x) V_1."""
    r = c.r.sparse
    word = []
    for i, op in placed:
        stairs = [(r, j, j + 2) for j in range(1, i)]  # R_1 ... R_(i-1)
        word += stairs[::-1] + [(op, 0, 2)] + stairs
    return word


def _site_gate(c: YangBaxterCouple, t: int, length: int) -> SparseOperator:
    """M(t, L) = pi(t) (1_W (x) T^(L-1)) on W (x) V, T = Tr_2(R): the site a
    colored cycle of length L and color t reduces to.  Kept in a per-couple
    memo filled on first use; M(t, 1) is pi(t) itself."""
    if length == 1:
        return c.pi_rows[t]
    gate = c._site_gates.get((t, length))
    if gate is None:
        gate = c._site_gates[t, length] = gate_product(
            (c.w, c.d), [(c.pi_rows[t], 0, 2), (t_power(c.r, length - 1), 1, 2)])
    return gate


def exchange_identity_holds(c: YangBaxterCouple) -> bool:
    """Whether R_12 pi(t)_01 R_12 = pi(t)_02 on W (x) V (x) V for every
    group element t, pi(t)_02 acting on W and the second V factor; see
    _exchange_failures."""
    return not _exchange_failures(c)


def _exchange_failures(c: YangBaxterCouple) -> tuple[int, ...]:
    """The generators t on which the exchange identity fails, computed on
    the first call and kept in c._exchange_failures.

    With F the flip on V (x) V, pi(t)_02 = F_12 pi(t)_01 F_12, and
    R^2 = F^2 = 1 turn the identity into [(F R)_12, pi(t)_01] = 0, checked
    as two gate words on rows; F R is R with its rows permuted by the flip,
    so it costs no product.  Both sides of the identity are homomorphisms
    in t, so agreeing on FiniteGroup.generators they agree on every
    element."""
    if c._exchange_failures is None:
        d, rows = c.d, c.r.sparse.rows
        fr = (SparseOperator(d * d, [rows[y * d + x] for x in range(d) for y in range(d)]), 1, 3)
        dims = (c.w, d, d)
        pis = [(t, (c.pi_rows[t], 0, 2)) for t in c.group.generators]
        c._exchange_failures = tuple(t for t, pi in pis
                                     if gate_product(dims, [fr, pi]) != gate_product(dims, [pi, fr]))
    return c._exchange_failures


def _site_trace(c: YangBaxterCouple, t: int, length: int) -> SparseOperator:
    """A(t, L) = Tr_V M(t, L), the w x w partial trace of a site over its V
    factor, kept in a per-couple memo filled on first use."""
    a = c._site_traces.get((t, length))
    if a is None:
        a = c._site_traces[t, length] = partial_trace(_site_gate(c, t, length), c.d)
    return a


def _exchange_trace(c: YangBaxterCouple, sites) -> CycloScalar:
    """tr_W(A(t_1, L_1) ... A(t_k, L_k)): the trace of the reduced word of
    the sites when the exchange identity holds (character, step 4), after
    k - 1 products of w x w matrices; w for no site."""
    if not sites:
        return scalar(c.w)
    product = _site_trace(c, *sites[0])
    for t, length in sites[1:]:
        product = product * _site_trace(c, t, length)
    return product.trace()


def _staircase_trace(c: YangBaxterCouple, sites) -> CycloScalar:
    """The trace of the reduced word of the sites with its staircases, by
    matrix.gate_trace on W (x) V^(x k) (character, steps 1-3): right on
    every couple, and the only evaluation without the exchange identity."""
    word = _staircases(c, [(j, _site_gate(c, t, length)) for j, (t, length) in enumerate(sites, 1)])
    return gate_trace(c.layout(len(sites)), word)


def character(c: YangBaxterCouple, g: WreathElement) -> CycloScalar:
    """Normalized trace of the image of g, on a reduced word.

    Let (t, L) run over wreath.colored_cycles(g), the k colored cycles
    (t != 0; fixed colored points count, with L = 1) and the uncolored
    ones (t = 0), and n = |supp g| = sum of L.  Then

        chi(g) = prod over uncolored cycles of tr(T^(L-1))
                 * tr(word) / (w * d^n),

    where T = Tr_2(R) (rmatrix.t_power) and the word is the color word of
    the element with colors t_1 .. t_k on positions 1 .. k, on
    W (x) V^(x k), with M(t_j, L_j) = pi(t_j) (1_W (x) T^(L_j - 1)) in place
    of pi(t_j) (_site_gate).  Its trace is evaluated once per couple and
    kept in c._word_traces under its sites: as tr_W(A_1 ... A_k),
    A_j = Tr_V M(t_j, L_j) (_exchange_trace), when the exchange identity
    holds (exchange_identity_holds), and by matrix.gate_trace otherwise
    (_staircase_trace).  The limits MAX_OPERATOR_DIM and MAX_LEVEL bound
    w * d^k and k before the lookup, on either path.

    Proof.  Conjugation keeps the trace, so take the conjugate of g
    (colored_cycles) whose k colored heads sit on slots 1 .. k, with every
    other point of the support above k.  No staircase touches a slot above k.
    1. Trace the slots above k top-down.  Each appears once in the word of
       the permutation (S_n = S_(n-1) u S_(n-1) s_(n-1) S_(n-1)), and
       Tr_n(A R_(n-1) B) = A T_(n-1) B for A, B free of slot n.
    2. Move each T with T_j R_j = R_j T_(j+1), which is
       (T (x) 1) R = R (1 (x) T) (see rmatrix.cycle_trace_sequence), and
       T_(j+1) R_j = R_j T_j, which follows from it and R^2 = 1.  This
       carries each T to its cycle's head; an uncolored cycle, traced
       whole, gives the scalar tr(T^(L-1)).
    3. T at head j commutes with the staircase of any other head: pushed
       through that staircase, it meets pi only at a slot >= 2.  So
       T^(L-1) joins pi(t_j) as M(t_j, L_j).
    4. The staircases.  Write X_(0i) for an operator X on W (x) V acting
       on W and slot i.  With the exchange identity,
       R_i pi(t)_(0i) R_i = pi(t)_(0,i+1) (the identity on slots i, i+1),
       and T_i R_i = R_i T_(i+1) give R_i M_(0i) R_i = M_(0,i+1), so the
       staircase R_(j-1) ... R_1 M_(01) R_1 ... R_(j-1) of head j is
       M(t_j, L_j)_(0j).  Each V slot then meets one gate, and tracing
       slot j leaves A_j = Tr_V M(t_j, L_j) in place of its gate:
       tr(word) = tr_W(A_1 ... A_k), and for w = 1 the character is a
       product of scalars over the cycles, so multiplicative.  (The A_j
       commute: the certified equation reads [pi(t)_(02), pi(t')_(01)] = 0
       under the identity, so M_(02) and M'_(01) commute, and tracing both
       V slots of either product gives A A' and A' A.)  Without the
       identity that shortcut is false, and the staircases stay: with
       R = 1 on C^2 (x) C^2 and pi(s) = diag(1, -1), s at 1 and s at 2
       have literal trace 1 and shortcut value 0.
    """
    if c.group != g.group:
        raise GroupMismatchError("element is over a different group than the couple")
    cycles = colored_cycles(g)
    n = sum(length for _, length in cycles)
    key = tuple((t, length) for t, length in cycles if t)
    _check_level(c, len(key))
    value = ONE  # one power per length, so equal cycles cost O(log count) products
    for length, count in Counter(length for t, length in cycles if not t).items():
        value = value * t_power(c.r, length - 1).trace() ** count
    trace = c._word_traces.get(key)
    if trace is None:
        evaluate = _exchange_trace if exchange_identity_holds(c) else _staircase_trace
        trace = c._word_traces[key] = evaluate(c, key)
    # 1 / (w * d^n) in canonical form, without a Fraction and an inverse
    return value * trace * CycloScalar(1, (1,), c.w * c.d ** n)


@dataclass
class ExtremalityReport:
    pairs_checked: int
    failures: list[tuple[WreathElement, WreathElement, CycloScalar, CycloScalar]]

    @property
    def ok(self) -> bool:
        return self.pairs_checked > 0 and not self.failures


def verify_extremality(c: YangBaxterCouple, sample_pairs) -> ExtremalityReport:
    """Exact multiplicativity check over disjoint-support pairs."""
    failures = []
    count = 0
    for g, h in sample_pairs:
        if set(g.support()) & set(h.support()):
            raise SupportsNotDisjointError(
                f"supports {g.support()} and {h.support()} overlap")
        count += 1
        lhs = character(c, g * h)
        rhs = character(c, g) * character(c, h)
        if lhs != rhs:
            failures.append((g, h, lhs, rhs))
    return ExtremalityReport(count, failures)


@dataclass
class PsdReport:
    size: int
    hermitian: bool
    min_eigenvalue: float

    @property
    def ok(self) -> bool:
        return self.size > 0 and self.hermitian and self.min_eigenvalue >= -1e-9


def gram_psd_check(c: YangBaxterCouple, elements) -> PsdReport:
    """Gram matrix of character values: exact Hermitian check, then a
    float embedding and an eigenvalue bound."""
    # imported here: this probe is numpy's only user, and no CLI command
    # should pay for the import
    import numpy as np

    elems = list(elements)
    if len(elems) > 12:
        raise ValueError("gram check is limited to 12 elements")
    k = len(elems)
    inverses = [g.inverse() for g in elems]
    gram = [[character(c, inverses[j] * elems[i]) for j in range(k)] for i in range(k)]
    hermitian = all(gram[i][j] == gram[j][i].conj() for i in range(k) for j in range(k))
    if not k:  # numpy has no eigenvalues of an empty matrix, and ok needs k > 0
        return PsdReport(0, hermitian, 0.0)
    embedded = np.array([[gram[i][j].to_complex() for j in range(k)] for i in range(k)])
    eigs = np.linalg.eigvalsh((embedded + embedded.conj().T) / 2)
    return PsdReport(k, hermitian, float(eigs.min()))
