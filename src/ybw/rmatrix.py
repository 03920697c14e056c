"""Involutive R-matrices and their Thoma parameters.

An R-matrix here is an involutive solution of the Yang-Baxter braid
relation on V (x) V, certified by exact checks on its sparse rows and gate
words (verify_rmatrix).  A certified RMatrix is those rows, which the
builders, cycle traces and images read (RMatrix.m is built on request):
normal forms and built R-matrices have one entry per row, so that work is
linear in the d^2 rows, and the braid relation of such an R is compared
on the phase-permutation engine of matrix.first_differing_row.  The
module provides the box-sum composition (summands act on their own
diagonal blocks, the flip acts on mixed tensors), normal forms realizing
prescribed Thoma parameters, the induced representations of finite
permutations on V^(x n), and exact extraction of Thoma parameters from
cycle traces.

Cycle traces are powers of one sparse d x d matrix: the trace of the
staircase product R_1 R_2 ... R_(n-1) on V^(x n) is tr(T^(n-1)) for the
partial trace T = Tr_2(R), because a certified R satisfies
R (1 (x) T) = (T (x) 1) R (see cycle_trace_sequence).  The cost is
polynomial in dim V instead of exponential in n.  The full image of the
cycle (yb_rep_perm) gives the same trace and is kept as the test oracle.
T is built in one place, t_power, by matrix.partial_trace (which also
gives couple.character its site traces), and its per-RMatrix memo of the
powers T^j serves both the cycle traces and the characters of couples,
which reduce each cycle of an element by the same step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .cyclo import CycloScalar, ONE, MINUS_ONE, ZERO
from .errors import (
    DimensionMismatchError,
    NoMatchError,
    NonIntegralBlocksError,
    NotInvolutiveError,
    NotUnitaryError,
    SupportExceedsLevelError,
    YBEFailsError,
)
from .matrix import (ExactMatrix, SparseOperator, canonical_rows, first_differing_row, gate_product,
                     partial_trace)
from .perms import FinitePermutation, adjacent_word


@dataclass(frozen=True)
class ThomaParams:
    """Two non-increasing positive rational weight lists with total mass <= 1."""

    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]

    def __post_init__(self):
        for name, seq in (("alpha", self.alpha), ("beta", self.beta)):
            for i, v in enumerate(seq):
                if v <= 0:
                    raise ValueError(f"{name}[{i}] = {v} is not positive")
                if i and seq[i - 1] < v:
                    raise ValueError(f"{name} is not non-increasing at index {i}")
        if sum(self.alpha) + sum(self.beta) > 1:
            raise ValueError("total mass exceeds 1")

    @classmethod
    def make(cls, alpha, beta) -> ThomaParams:
        return cls(tuple(Fraction(a) for a in alpha), tuple(Fraction(b) for b in beta))

    @property
    def deficit(self) -> Fraction:
        return 1 - sum(self.alpha, Fraction(0)) - sum(self.beta, Fraction(0))

    def minimal_denominator(self) -> int:
        return lcm(1, *(v.denominator for v in self.alpha + self.beta))

    def power_sum(self, n: int) -> Fraction:
        """sum(alpha_i^n) + (-1)^(n-1) * sum(beta_i^n)."""
        sign = 1 if n % 2 == 1 else -1
        return (sum((a ** n for a in self.alpha), Fraction(0))
                + sign * sum((b ** n for b in self.beta), Fraction(0)))

    def __str__(self) -> str:
        fa = ", ".join(str(a) for a in self.alpha)
        fb = ", ".join(str(b) for b in self.beta)
        return f"alpha=[{fa}] beta=[{fb}]"


class RMatrix:
    """A certified involutive Yang-Baxter solution on V (x) V, dim V = d,
    as its sparse rows."""

    __slots__ = ("d", "sparse", "_t_powers")

    def __init__(self, d: int, sparse: SparseOperator, _certified: bool = False):
        if not _certified:
            raise TypeError("use verify_rmatrix() to construct a certified RMatrix")
        self.d = d
        self.sparse = sparse
        self._t_powers: dict[int, SparseOperator] = {}

    @property
    def m(self) -> ExactMatrix:
        """The dense d^2 x d^2 matrix, built from the rows on each call."""
        return self.sparse.to_dense()

    def __repr__(self) -> str:
        return f"RMatrix(d={self.d})"


def verify_rmatrix(m: ExactMatrix | SparseOperator, d: int) -> RMatrix:
    """Certify involutivity, unitarity and the braid relation, exactly.

    R comes dense, read into rows once, or as rows, which must be canonical
    (matrix.canonical_rows).  Each check runs on the rows: R^2 = 1 on the
    sparse square of R, then unitarity as R^dagger = R (given R^-1 = R),
    then R12 R23 R12 = R23 R12 R23 as two gate words compared by
    first_differing_row, so no amplified R is built.
    """
    shape = (m.rows, m.cols) if isinstance(m, ExactMatrix) else (m.dim, m.dim)
    if shape != (d * d, d * d):
        raise DimensionMismatchError(f"expected a {d * d}x{d * d} matrix, got {shape[0]}x{shape[1]}")
    s = canonical_rows(m, "R")
    for i, row in enumerate((s * s).rows):
        entries = dict(row)
        entries.setdefault(i, ZERO)
        for j, v in sorted(entries.items()):
            if (i == j and not v.is_one()) or (i != j and not v.is_zero()):
                raise NotInvolutiveError(
                    f"R^2 is not the identity: image of basis vector {j} has a wrong "
                    f"coefficient at {i}")
    if s.dagger() != s:
        raise NotUnitaryError("R is not unitary")
    idx = first_differing_row((d, d, d), [(s, 0, 2), (s, 1, 3), (s, 0, 2)],
                              [(s, 1, 3), (s, 0, 2), (s, 1, 3)])
    if idx is not None:
        raise YBEFailsError(
            f"braid relation fails: row {idx} of R12 R23 R12 and R23 R12 R23 differ")
    return RMatrix(d, s, _certified=True)


def boxplus(*parts: RMatrix) -> RMatrix:
    """Box-sum: each summand on its own diagonal block, the flip on mixed
    tensors, built row by row from the summands' rows."""
    owner: list[int] = []  # summand of each basis vector of the sum
    offsets = []
    for k, p in enumerate(parts):
        offsets.append(len(owner))
        owner += [k] * p.d
    big = len(owner)
    rows = []
    for u, k in enumerate(owner):
        p, off = parts[k], offsets[k]
        for v in range(big):
            if owner[v] != k:
                rows.append([(v * big + u, ONE)])
                continue
            # a summand's row is sorted, and its column (x, y) goes to
            # (x + off, y + off) in the same order
            row = p.sparse.rows[(u - off) * p.d + v - off]
            rows.append([((c // p.d + off) * big + c % p.d + off, x) for c, x in row])
    return verify_rmatrix(SparseOperator(big * big, rows), big)


def scalar_rmatrix(size: int, sign: int) -> RMatrix:
    """(+1) or (-1) times the identity on a size-dim space, as an R-matrix."""
    unit = MINUS_ONE if sign < 0 else ONE
    n = size * size
    return verify_rmatrix(SparseOperator(n, [[(i, unit)] for i in range(n)]), size)


def normal_form_from_thoma(t: ThomaParams, d: int) -> RMatrix:
    """Box-sum of +identity blocks of sizes d*alpha_i and -identity blocks d*beta_i."""
    blocks: list[tuple[int, int]] = []
    offenders = []
    for weights, sign in ((t.alpha, +1), (t.beta, -1)):
        for v in weights:
            size = v * d
            if size.denominator != 1:
                offenders.append(str(v))
            else:
                blocks.append((int(size), sign))
    if offenders:
        raise NonIntegralBlocksError(
            f"entries {', '.join(offenders)} do not give integral blocks at d={d}")
    if t.deficit != 0 or sum(size for size, _ in blocks) != d:
        raise NonIntegralBlocksError(
            f"parameters carry total mass {1 - t.deficit}, cannot fill dimension {d}")
    parts = [scalar_rmatrix(size, sign) for size, sign in blocks]
    return boxplus(*parts)


def yb_rep_perm(r: RMatrix, sigma: FinitePermutation, n: int) -> SparseOperator:
    """The image of a finite permutation on V^(x n): R on the tensor slots
    (i, i+1), 1-based, for each letter s_i of its adjacent-transposition word."""
    if sigma.max_support() > n:
        raise SupportExceedsLevelError(
            f"permutation moves {sigma.max_support()} but the level is {n}")
    return gate_product((r.d,) * n, [(r.sparse, i - 1, i + 1) for i in adjacent_word(sigma, n)])


def t_power(r: RMatrix, j: int) -> SparseOperator:
    """T^j for the partial trace T = Tr_2(R), T[i][j] = sum_x R[(i,x),(j,x)],
    as sparse rows, j >= 1.

    The powers are kept in a per-RMatrix memo (RMatrix._t_powers), which
    cycle_trace_sequence and couple.character share.  T is built once from
    the nonzero entries of R (matrix.partial_trace); T^j is T * T^(j-1) when that power is kept,
    and T^(j//2) * T^(j - j//2) otherwise, so a single large power costs
    O(log j) sparse products.  A diagonal T (every normal form) costs d
    scalar products per product.
    """
    powers = r._t_powers
    power = powers.get(j)
    if power is not None:
        return power
    if j == 1:
        power = partial_trace(r.sparse, r.d)
    elif j - 1 in powers:
        power = powers[1] * powers[j - 1]
    else:
        power = t_power(r, j // 2) * t_power(r, j - j // 2)
    powers[j] = power
    return power


def cycle_trace_sequence(r: RMatrix, n_max: int) -> list[CycloScalar]:
    """Traces of the cycle operators for n = 2 .. n_max (index n-2).

    With T = Tr_2(R) the partial trace over the second factor (t_power),
    the trace of R_1 ... R_(n-1) is tr(T^(n-1)) (Lechner-Pennig-Wood).  A
    certified R satisfies R (1 (x) T) = (T (x) 1) R, hence
    Tr_2(R (1 (x) T^k)) = T^(k+1), and tracing out the last factor of
    R_1 ... R_(n-1) T_n^k, which keeps the trace, leaves
    R_1 ... R_(n-2) T_(n-1)^(k+1).  Repeating down to one factor gives
    tr(T^(n-1)), at a cost polynomial in d.  The traces are read off the
    powers of t_power's memo.
    """
    return [t_power(r, j).trace() for j in range(1, n_max)]


def char_cycle(r: RMatrix, n: int) -> Fraction:
    """Normalized character on the n-cycle: trace of the cycle image over d^n."""
    if n < 1:
        raise ValueError("cycle length must be >= 1")
    if n == 1:
        return Fraction(1)
    tr = t_power(r, n - 1).trace()
    if not tr.is_rational():
        raise NoMatchError(f"cycle trace {tr} is not rational; R is not a valid R-matrix")
    return tr.as_rational() / Fraction(r.d) ** n


def partitions(k: int) -> list[tuple[int, ...]]:
    """All non-increasing positive integer tuples summing to k."""
    if k == 0:
        return [()]
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(k, k, [])
    return out


def partition_pairs(d: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All pairs of partitions (lam, mu) with |lam| + |mu| = d."""
    out = []
    for k in range(d + 1):
        for lam in partitions(k):
            for mu in partitions(d - k):
                out.append((lam, mu))
    return out


def _solve_vandermonde(nodes: list[int], rhs: list[Fraction]) -> list[Fraction]:
    """The c with sum_k c_k * nodes[k]**j == rhs[j] for every j, exactly.

    With L_k the Lagrange polynomial of node k (1 there, 0 at the other
    nodes), c_k = sum_j L_k[j] * rhs[j].  The right-hand side is scaled
    once to a common denominator, so the sums are of integers and each c_k
    is one Fraction.  The nodes must be distinct.
    """
    den = lcm(1, *(b.denominator for b in rhs))
    scaled = [b.numerator * (den // b.denominator) for b in rhs]
    master = [1]  # prod (x - node), lowest degree first
    for a in nodes:
        master = [0] + master
        for j in range(len(master) - 1):
            master[j] -= a * master[j + 1]
    out = []
    for a in nodes:
        quotient = [0] * len(nodes)  # master / (x - a)
        acc = 0
        for j in range(len(nodes), 0, -1):
            acc = master[j] + a * acc
            quotient[j - 1] = acc
        num = sum(q * b for q, b in zip(quotient, scaled))
        out.append(Fraction(num, den * prod(a - b for b in nodes if b != a)))
    return out


def extract_thoma(r: RMatrix) -> ThomaParams:
    """Recover the unique Thoma parameters of a certified R-matrix.

    Write m+_k and m-_k for the number of alpha and beta weights equal to
    k/d.  The cycle traces tr_n for n = 2 .. 2d+1 satisfy
    sum_k k^n (m+_k + m-_k) = tr_n for odd n and
    sum_k k^n (m+_k - m-_k) = tr_n for even n: two Vandermonde systems in
    the nodes k^2, both invertible, so the counts are unique.  Counts that
    are not non-negative integers, or weights whose total mass is not 1,
    raise NoMatchError; for a certified R that indicates a certification bug.
    """
    d = r.d
    n_max = 2 * d + 1
    traces = []
    for n, tr in zip(range(2, n_max + 1), cycle_trace_sequence(r, n_max)):
        if not tr.is_rational():
            raise NoMatchError(f"trace of the {n}-cycle image is not rational")
        traces.append(tr.as_rational())
    nodes = [k * k for k in range(1, d + 1)]
    # traces[2j + 1] is tr_(2j+3), traces[2j] is tr_(2j+2)
    sums = _solve_vandermonde(nodes, traces[1::2])
    diffs = _solve_vandermonde(nodes, traces[0::2])
    ks = range(d, 0, -1)
    plus: list[int] = []
    minus: list[int] = []
    for k in ks:
        s, t = sums[k - 1] / k ** 3, diffs[k - 1] / k ** 2
        for name, count, counts in (("alpha", (s + t) / 2, plus), ("beta", (s - t) / 2, minus)):
            if count.denominator != 1 or count < 0:
                raise NoMatchError(
                    f"the cycle traces give {count} {name} weights equal to {k}/{d}, "
                    "not a non-negative integer")
            counts.append(int(count))
    # checked before the weight lists are expanded, so every count is <= d
    mass = Fraction(sum(k * (p + m) for k, p, m in zip(ks, plus, minus)), d)
    if mass != 1:
        raise NoMatchError(f"the cycle traces give weights of total mass {mass}, not 1")

    def weights(counts: list[int]) -> tuple[Fraction, ...]:
        return tuple(Fraction(k, d) for k, c in zip(ks, counts) for _ in range(c))

    return ThomaParams(weights(plus), weights(minus))


def merge_thoma(x: ThomaParams, dx: int, y: ThomaParams, dy: int) -> ThomaParams:
    """Weighted merge of parameters under the box-sum of R-matrices."""
    total = dx + dy
    wx, wy = Fraction(dx, total), Fraction(dy, total)
    alpha = sorted([wx * a for a in x.alpha] + [wy * a for a in y.alpha], reverse=True)
    beta = sorted([wx * b for b in x.beta] + [wy * b for b in y.beta], reverse=True)
    return ThomaParams(tuple(alpha), tuple(beta))


def normal_forms_of_dim(d: int) -> list[tuple[ThomaParams, RMatrix]]:
    """Every normal-form R-matrix of dimension d, one per partition pair."""
    out = []
    for lam, mu in partition_pairs(d):
        params = ThomaParams.make([Fraction(x, d) for x in lam], [Fraction(x, d) for x in mu])
        out.append((params, normal_form_from_thoma(params, d)))
    return out
