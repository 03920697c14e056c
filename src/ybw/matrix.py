"""Dense and sparse exact linear algebra on tensor-product spaces.

Index convention, fixed once for the whole package and the file formats:
the leftmost tensor factor is the most significant digit of the mixed-radix
basis index (TensorIndex).  Kronecker products, flips and amplifications
all follow it.

SparseOperator is the working representation for operators on spaces of
three or more factors; the images of group elements are signed
block-permutation-like, so rows stay short.  Such an image is a word of
local gates, each an operator on a few contiguous factors.  Three
evaluators multiply such words out, none materializing an amplified gate
or keeping an operator between calls:

- the phase-permutation engine (_phase_permutation), when every gate has
  one entry per row, a root of unity times a positive integer: the word is
  a permutation of the basis with phases zeta_m^e, and with integer
  weights when some entry has one, evaluated on plain int lists;
- packed integers of the group ring Z[C_m] (_group_ring), for any other
  word: each gate is scaled to integer coefficients, each entry becomes an
  element of N[C_m] packed into one int, so a scalar product is one int
  product and a sum one int sum; the ring map Z[C_m] -> Z[zeta_m], g ->
  zeta_m, gives the field values at the end;
- gate_product, which applies the gates in place on CycloScalar rows
  (_apply_gate; the SparseOperator product is one such step).

gate_trace and first_differing_row take the first two: the engine when
the gates allow it, the group ring otherwise.  gate_product is the
literal image, for rep_element, certification and the test oracles.
partial_trace sums out the last factor of an operator: T = Tr_2(R) and
the site traces of couple.character.

ExactMatrix.zeros fills with the one immutable cyclo.ZERO, so reading a
dense matrix into rows (SparseOperator.from_dense) tells its unset
entries apart by an identity test and calls is_zero only on the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

from .cyclo import ONE, ZERO, CycloScalar, root_sum, scalar
from .errors import DimensionMismatchError


@dataclass(frozen=True)
class TensorIndex:
    """Mixed-radix encoding of basis strings, leftmost factor most significant."""

    dims: tuple[int, ...]

    @property
    def size(self) -> int:
        return prod(self.dims)

    def encode(self, digits) -> int:
        if len(digits) != len(self.dims):
            raise DimensionMismatchError(f"{len(digits)} digits for the factors {self.dims}")
        out = 0
        for k, (x, d) in enumerate(zip(digits, self.dims)):
            if not 0 <= x < d:
                raise DimensionMismatchError(f"digit {x} of factor {k} is outside 0..{d - 1}")
            out = out * d + x
        return out

    def decode(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise DimensionMismatchError(f"basis index {index} is outside 0..{self.size - 1}")
        out = []
        for d in reversed(self.dims):
            out.append(index % d)
            index //= d
        return tuple(reversed(out))


class ExactMatrix:
    """Dense matrix over CycloScalar; treated as immutable after construction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[list[CycloScalar]]):
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> ExactMatrix:
        return cls(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> ExactMatrix:
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = ONE
        return m

    @classmethod
    def diag(cls, values) -> ExactMatrix:
        vals = [scalar(v) for v in values]
        m = cls.zeros(len(vals), len(vals))
        for i, v in enumerate(vals):
            m.data[i][i] = v
        return m

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: dict) -> ExactMatrix:
        m = cls.zeros(rows, cols)
        for (i, j), v in entries.items():
            m.data[i][j] = scalar(v)
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    __hash__ = None

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise DimensionMismatchError(f"matmul {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            out = ExactMatrix.zeros(self.rows, other.cols)
            for i in range(self.rows):
                row = self.data[i]
                acc = out.data[i]
                for k in range(self.cols):
                    a = row[k]
                    if a.is_zero():
                        continue
                    brow = other.data[k]
                    for j in range(other.cols):
                        b = brow[j]
                        if not b.is_zero():
                            acc[j] = acc[j] + a * b
            return out
        return NotImplemented

    def scaled(self, factor) -> ExactMatrix:
        f = scalar(factor)
        return ExactMatrix(self.rows, self.cols, [[f * v for v in row] for row in self.data])

    def dagger(self) -> ExactMatrix:
        """Conjugate transpose."""
        return ExactMatrix(self.cols, self.rows,
                           [[self.data[i][j].conj() for i in range(self.rows)] for j in range(self.cols)])

    def trace(self) -> CycloScalar:
        if self.rows != self.cols:
            raise DimensionMismatchError("trace of a non-square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.data[i][i]
        return acc

    def kron(self, other: ExactMatrix) -> ExactMatrix:
        out = ExactMatrix.zeros(self.rows * other.rows, self.cols * other.cols)
        for ia in range(self.rows):
            for ja in range(self.cols):
                a = self.data[ia][ja]
                if a.is_zero():
                    continue
                for ib in range(other.rows):
                    orow = other.data[ib]
                    trow = out.data[ia * other.rows + ib]
                    base = ja * other.cols
                    for jb in range(other.cols):
                        b = orow[jb]
                        if not b.is_zero():
                            trow[base + jb] = a * b
        return out

    def is_identity(self) -> bool:
        return self == ExactMatrix.identity(self.rows)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"


class SparseOperator:
    """Square operator stored row-wise as sorted (column, scalar) pairs."""

    __slots__ = ("dim", "rows")

    def __init__(self, dim: int, rows: list[list[tuple[int, CycloScalar]]]):
        self.dim = dim
        self.rows = rows

    @classmethod
    def identity(cls, n: int) -> SparseOperator:
        return cls(n, [[(i, ONE)] for i in range(n)])

    @classmethod
    def from_dense(cls, m: ExactMatrix) -> SparseOperator:
        if m.rows != m.cols:
            raise DimensionMismatchError("sparse operators are square")
        # the shared ZERO of unset entries is told apart by identity alone
        return cls(m.rows, [[(j, v) for j, v in enumerate(row) if v is not ZERO and not v.is_zero()]
                            for row in m.data])

    def to_dense(self) -> ExactMatrix:
        out = ExactMatrix.zeros(self.dim, self.dim)
        for i, row in enumerate(self.rows):
            for j, v in row:
                out.data[i][j] = v
        return out

    def __mul__(self, other):
        if isinstance(other, SparseOperator):
            if self.dim != other.dim:
                raise DimensionMismatchError(f"matmul dims {self.dim} and {other.dim}")
            return SparseOperator(self.dim, _apply_gate(self.rows, other.rows, 1))
        return NotImplemented

    def trace(self) -> CycloScalar:
        acc = ZERO
        for i, row in enumerate(self.rows):
            for j, v in row:
                if j == i:
                    acc = acc + v
                elif j > i:
                    break
        return acc

    def dagger(self) -> SparseOperator:
        cols: list[list[tuple[int, CycloScalar]]] = [[] for _ in range(self.dim)]
        for i, row in enumerate(self.rows):
            for j, v in row:
                cols[j].append((i, v.conj()))
        return SparseOperator(self.dim, cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseOperator):
            return NotImplemented
        # rows are sorted and hold no zeros, so equal rows are equal lists
        return self.dim == other.dim and self.rows == other.rows

    __hash__ = None

    def is_identity(self) -> bool:
        return self == SparseOperator.identity(self.dim)

    def __repr__(self) -> str:
        return f"SparseOperator(dim={self.dim}, nnz={sum(len(r) for r in self.rows)})"


def canonical_rows(m: ExactMatrix | SparseOperator, name: str) -> SparseOperator:
    """m as sparse rows, a dense m read once.  The rows must be canonical,
    the form SparseOperator equality and products assume: one row per basis
    vector, each sorted by column with no repeats, no zero entry and every
    column in range; the error names the operator.  O(nnz)."""
    s = SparseOperator.from_dense(m) if isinstance(m, ExactMatrix) else m
    if len(s.rows) != s.dim:
        raise DimensionMismatchError(f"{len(s.rows)} sparse rows for dimension {s.dim}")
    for i, row in enumerate(s.rows):
        prev = -1
        for j, v in row:
            if not prev < j < s.dim:
                raise DimensionMismatchError(
                    f"row {i} of {name} has column {j} out of order or outside 0..{s.dim - 1}")
            if v.is_zero():
                raise DimensionMismatchError(f"row {i} of {name} holds a zero at column {j}")
            prev = j
    return s


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a.kron(b)


def flip_operator(d1: int, d2: int) -> ExactMatrix:
    """The swap v (x) w -> w (x) v from C^d1 (x) C^d2 to C^d2 (x) C^d1."""
    n = d1 * d2
    m = ExactMatrix.zeros(n, n)
    for i in range(d1):
        for j in range(d2):
            m.data[j * d1 + i][i * d2 + j] = ONE
    return m


def amplify(op: ExactMatrix | SparseOperator, dims, start: int, stop: int) -> SparseOperator:
    """Materialize 1 (x) ... (x) op (x) ... (x) 1 on the full tensor space.

    ``op`` acts on the contiguous factor slots [start, stop) of a space with
    the given factor dimensions.
    """
    return gate_product(dims, [(op, start, stop)])


def partial_trace(op: SparseOperator, inner: int) -> SparseOperator:
    """The trace over the last factor of op on C^outer (x) C^inner, as
    canonical rows: entry (i, k) is sum_x op[(i, x), (k, x)].  One pass
    over the nonzero entries of op."""
    outer = op.dim // inner
    entries: list[dict[int, CycloScalar]] = [{} for _ in range(outer)]
    for a, row in enumerate(op.rows):
        i, x = divmod(a, inner)
        for c, v in row:
            k, y = divmod(c, inner)
            if y == x:
                prev = entries[i].get(k)
                entries[i][k] = v if prev is None else prev + v
    return SparseOperator(outer, [sorted((k, v) for k, v in row.items() if not v.is_zero())
                                  for row in entries])


def gate_product(dims, word) -> SparseOperator:
    """The product G_1 ... G_k of the gates (op, start, stop) in ``word``.

    Each gate is ``op`` (an ExactMatrix or a SparseOperator) on the factor
    slots [start, stop), the identity on the rest.  The gates are applied
    from the left, last one first, by _apply_gate, so no amplified gate is
    ever materialized.
    """
    dims = tuple(dims)
    total = prod(dims)
    rows = SparseOperator.identity(total).rows
    for op_rows, start, stop in reversed(_sparse_gates(dims, word)):
        rows = _apply_gate(op_rows, rows, prod(dims[stop:]))
    return SparseOperator(total, rows)


def gate_trace(dims, word) -> CycloScalar:
    """The trace of gate_product(dims, word).

    A word whose gates all have one entry per row, a root of unity times a
    positive integer, runs on the phase-permutation engine
    (_phase_permutation), which sums the weights of each exponent on the
    fixed points of the basis permutation.  Any other word
    runs on packed integers of the group ring Z[C_m] (_group_ring).  Since
    tr(G_1 ... G_k) = tr(G_2 ... G_k G_1), the word is first rotated to
    start at a gate with a row of several entries; the rest of the word is
    multiplied out, and G_1 gives only the diagonal of the product
    (_diagonal_sum).  Every coefficient stays non-negative, and the slots
    are wide enough for prod(dims) times the product of the gates' largest
    row coefficient sums, which bounds each slot of that diagonal sum, so
    no slot carries.  Its m slot counts c_e are read once, and g -> zeta_m
    being a ring map, the trace is sum_e c_e zeta_m^e over the product of
    the gates' denominators."""
    dims = tuple(dims)
    gates = _sparse_gates(dims, word)
    engine = _phase_permutation(dims, [gates])
    if engine is None:
        k = next((k for k, (rows, _, _) in enumerate(gates) if any(len(row) > 1 for row in rows)), 0)
        (rotated,), (scale,), bits, m, n = _group_ring(dims, [gates[k:] + gates[:k]])
        (first, _, stop), *rest = rotated
        width = m * bits
        diagonal = _diagonal_sum(first, prod(dims[stop:]), _ring_product(dims, rest, width))
        diagonal = (diagonal & ((1 << width) - 1)) + (diagonal >> width)
        return root_sum(_slot_counts(diagonal, bits, m), n, scale)
    (state,), (weight,), bits, m, n = engine
    counts = [0] * m
    mask = (1 << bits) - 1
    for i, x in enumerate(state):
        if x >> bits == i:
            counts[(x & mask) % m] += 1 if weight is None else weight[i]
    return root_sum(counts, n)


def first_differing_row(dims, lhs, rhs) -> int | None:
    """The first row where gate_product(dims, lhs) and gate_product(dims,
    rhs) differ, or None when the two words give the same operator.

    Two words on the phase-permutation engine are evaluated there in one
    pass, with one exponent modulus m for both, and compared as (column,
    exponent mod m, weight) per row: c zeta_m^e with an integer c >= 1
    determines c and e mod m.  Any other pair is multiplied out on packed
    integers of Z[C_m] (_group_ring), with one m and one slot width for
    both.  Rows with the same packed entries over the same denominator
    are equal; any other pair of rows is compared as field values, since
    the map Z[C_m] -> Z[zeta_m] has a kernel (1 + g^(m/2) maps to 0), so
    different packed rows may be the same row of the operator."""
    dims = tuple(dims)
    lhs, rhs = list(lhs), list(rhs)
    gates = _sparse_gates(dims, lhs + rhs)
    words = [gates[:len(lhs)], gates[len(lhs):]]
    engine = _phase_permutation(dims, words)
    if engine is None:
        words, (sa, sb), bits, m, n = _group_ring(dims, words)
        a, b = (_ring_product(dims, word, m * bits) for word in words)

        def values(row, scale):
            out = ((j, root_sum(_slot_counts(x, bits, m), n, scale)) for j, x in row)
            return {j: v for j, v in out if not v.is_zero()}

        return next((i for i, (x, y) in enumerate(zip(a, b))
                     if not (sa == sb and sorted(x) == sorted(y)) and values(x, sa) != values(y, sb)),
                    None)
    states, weights, bits, m, _ = engine
    if states[0] == states[1] and weights[0] == weights[1]:
        return None  # equal packed states and weights are equal operators
    mask = (1 << bits) - 1
    a, b = ([(x >> bits) * m + (x & mask) % m for x in state] for state in states)
    if weights[0] is not None:
        a, b = zip(a, weights[0]), zip(b, weights[1])
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)


def _phase_permutation(dims: tuple[int, ...], words) -> tuple[list, list, int, int, int] | None:
    """The products of several words of sparse gates as permutations of the
    basis with phases and integer weights, or None when some gate does not
    have exactly one entry per row of the form c zeta^e, c >= 1 an integer.

    Such a word maps each basis vector to c zeta_m^e times another, with
    m = lcm(2, n) for n the lcm of the entry conductors of all the words,
    so the words share one modulus.  The result is (states, weights, bits,
    m, n), one state and one weight list per word: row i of its product
    has its entry weight[i] zeta_m^e in column c for state[i] = c << bits |
    e, where e is the unreduced sum of the gates' exponents.  The weight
    lists are None when every entry of every word has c = 1; otherwise
    each gate also gathers the weights and scales them by its rows'
    weights.  Each gate gathers runs of packed entries and adds its rows'
    exponents (_gather_plan); each distinct operator is put in monomial
    form once, and each distinct (operator, slots) gate gets one plan, for
    all the words and for exponents and weights alike.  Forms and plans
    live for one call, keyed by the id of the operator's rows, which the
    words hold until it returns."""
    distinct = list({id(rows): rows for word in words for rows, _, _ in word}.values())
    if not all(len(row) == 1 for rows in distinct for row in rows):
        return None
    n = lcm(1, *(v.n for rows in distinct for ((_, v),) in rows))
    m = lcm(2, n)
    forms = {}
    for rows in distinct:
        form = forms[id(rows)] = _monomial_form(rows, m)
        if form is None:
            return None
    weighted = any(form[3] for form in forms.values())
    # exponents add up unreduced, to at most len(word) * (m - 1), which
    # fits in bits
    bits = (max(map(len, words), default=0) * (m - 1)).bit_length()
    total = prod(dims)
    plans = {}
    states, weights = [], []
    for word in words:
        state = list(range(0, total << bits, 1 << bits))
        weight = [1] * total if weighted else None
        for rows, start, stop in reversed(word):
            cols, exps, cs, _ = forms[id(rows)]
            key = (id(rows), start, stop)
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = _gather_plan(cols, prod(dims[:start]), prod(dims[stop:]))
            out = [0] * total
            for dst, src, r in plan:
                e = exps[r]
                run = state[src]
                out[dst] = [x + e for x in run] if e else run
            state = out
            if weighted:
                out = [0] * total
                for dst, src, r in plan:
                    c = cs[r]
                    run = weight[src]
                    out[dst] = [x * c for x in run] if c != 1 else run
                weight = out
        states.append(state)
        weights.append(weight)
    return states, weights, bits, m, n


def _monomial_form(rows, m: int) -> tuple[list[int], list[int], list[int], bool] | None:
    """(columns, exponents, weights, whether a weight is not 1) of the one
    entry per row, or None when some entry is not c zeta_m^e
    (_monomial_entry)."""
    entries = [_monomial_entry(v, m) for ((_, v),) in rows]
    if None in entries:
        return None
    weights = [c for c, _ in entries]
    return [c for ((c, _),) in rows], [e for _, e in entries], weights, any(c != 1 for c in weights)


def _monomial_entry(v: CycloScalar, m: int) -> tuple[int, int] | None:
    """(c, e) with v = c zeta_m^e for an integer c >= 1, or None.  A root of
    unity has power-basis coordinates with no common factor (it is a unit),
    so c is the gcd of v's integer coordinates."""
    e = v.root_exponent(m)
    if e is not None:
        return 1, e
    c = gcd(*v.nums) if v.den == 1 else 1
    if c == 1:
        return None
    e = CycloScalar(v.n, tuple(x // c for x in v.nums), 1).root_exponent(m)
    return None if e is None else (c, e)


def _gather_plan(cols, pre: int, post: int) -> list[tuple[slice, slice, int]]:
    """Slices (dst, src, r) applying a monomial gate, given by the column of
    each row, on pre * mid * post basis vectors: row (p, r, s) takes the
    entry of row (p, cols[r], s), combined with row r's exponent or weight.
    Runs go along the longer of the p and s axes, so there are few slices."""
    mid = len(cols)
    step = mid * post
    total = pre * step
    if pre <= post:
        return [(slice(b * step + r * post, b * step + (r + 1) * post),
                 slice(b * step + c * post, b * step + (c + 1) * post), r)
                for b in range(pre) for r, c in enumerate(cols)]
    return [(slice(r * post + s, total, step), slice(c * post + s, total, step), r)
            for s in range(post) for r, c in enumerate(cols)]


def _sparse_gates(dims: tuple[int, ...], word) -> list[tuple[list, int, int]]:
    """The word with each operator as its sparse rows, converted once per
    distinct operator (words repeat R many times) and checked against the
    slots it acts on."""
    sparse: dict[int, list] = {}
    gates = []
    for op, start, stop in word:
        rows = sparse.get(id(op))
        if rows is None:
            as_sparse = op if isinstance(op, SparseOperator) else SparseOperator.from_dense(op)
            rows = sparse[id(op)] = as_sparse.rows
        if len(rows) != prod(dims[start:stop]):
            raise DimensionMismatchError(
                f"operator of dim {len(rows)} cannot act on factors {start}..{stop} of {dims}")
        gates.append((rows, start, stop))
    return gates


def _apply_gate(op_rows, rows, post: int) -> list[list[tuple[int, CycloScalar]]]:
    """The rows of (1 (x) op (x) 1_post) T from the rows of T and of op.

    Row (p, m, s) combines the rows (p, c, s) of T over the nonzero
    entries (m, c) of op; a row of op with one entry copies or scales a
    run of ``post`` rows as one slice.
    """
    mid = len(op_rows)
    out: list[list[tuple[int, CycloScalar]]] = []
    for base in range(0, len(rows) // post, mid):
        for entries in op_rows:
            if len(entries) == 1:
                # row lists are immutable by convention, so sharing is safe
                c, v = entries[0]
                lo = (base + c) * post
                run = rows[lo:lo + post]
                out += run if v.is_one() else [[(j, v * b) for j, b in row] for row in run]
                continue
            for s in range(post):
                acc: dict[int, CycloScalar] = {}
                for c, v in entries:
                    for j, b in rows[(base + c) * post + s]:
                        prev = acc.get(j)
                        acc[j] = v * b if prev is None else prev + v * b
                out.append(sorted((j, x) for j, x in acc.items() if not x.is_zero()))
    return out


def _group_ring(dims: tuple[int, ...], words) -> tuple[list, list[int], int, int, int]:
    """Several words of sparse gates as gates on packed integers of the
    group ring Z[C_m], C_m = <g> cyclic of order m = lcm(2, n) for n the
    lcm of the entry conductors of all the words.

    g -> zeta_m extends to a ring map Z[C_m] -> Z[zeta_m].  Each distinct
    gate is scaled by the lcm D_g of its entry denominators, and each
    power-basis term c z_k^j of an entry becomes |c| g^(j m/k), times
    g^(m/2) when c < 0, so every entry lies in N[C_m].  An element
    sum_e a_e g^e is packed as sum_e a_e << (e * bits) (Kronecker
    substitution): a product is one int product folded by g^m = 1
    (_ring_product), and a sum is one int sum.

    No coefficient is ever negative, and an entry of a product of gates
    has a coefficient sum of at most the product of the gates' largest
    row coefficient sums.  bits holds prod(dims) times that product, for
    the word where it is largest, plus one bit, so no slot carries into
    the next, not even in a sum over the diagonal.

    The result is (words, scales, bits, m, n): each word with its gates as
    rows of (column, packed int), and one scale prod D_g per word; a
    word's product is its packed product mapped to Z[zeta_m], over the
    scale."""
    distinct = list({id(rows): rows for word in words for rows, _, _ in word}.values())
    n = lcm(1, *(v.n for rows in distinct for row in rows for _, v in row))
    m = lcm(2, n)
    scales, sums = {}, {}
    for rows in distinct:
        scale = scales[id(rows)] = lcm(1, *(v.den for row in rows for _, v in row))
        sums[id(rows)] = max((sum(sum(map(abs, v.nums)) * (scale // v.den) for _, v in row)
                              for row in rows), default=0)
    bits = max(prod(dims) * prod(sums[id(rows)] for rows, _, _ in word) for word in words).bit_length() + 1
    packed = {id(rows): [[(c, _pack(v, scales[id(rows)], m, bits)) for c, v in row] for row in rows]
              for rows in distinct}
    return ([[(packed[id(rows)], start, stop) for rows, start, stop in word] for word in words],
            [prod(scales[id(rows)] for rows, _, _ in word) for word in words], bits, m, n)


def _pack(v: CycloScalar, scale: int, m: int, bits: int) -> int:
    """scale * v as a packed element of N[C_m] (see _group_ring)."""
    step, f = m // v.n, scale // v.den
    out = 0
    for j, c in enumerate(v.nums):
        if c:
            e = j * step if c > 0 else (j * step + m // 2) % m
            out += abs(c) * f << (e * bits)
    return out


def _slot_counts(x: int, bits: int, m: int) -> list[int]:
    """The m coefficients of a packed element of N[C_m]."""
    mask = (1 << bits) - 1
    return [x >> (e * bits) & mask for e in range(m)]


def _ring_product(dims: tuple[int, ...], word, width: int) -> list[list[tuple[int, int]]]:
    """The rows of the product of a word of packed gates, in no particular
    column order; width = m * bits."""
    mask = (1 << width) - 1
    rows = [[(i, 1)] for i in range(prod(dims))]
    for op_rows, start, stop in reversed(word):
        rows = _apply_packed(op_rows, rows, prod(dims[stop:]), mask, width)
    return rows


def _apply_packed(op_rows, rows, post: int, mask: int, width: int) -> list[list[tuple[int, int]]]:
    """_apply_gate on packed elements of N[C_m].  A product p of two
    packed elements folds by g^m = 1 as (p & mask) + (p >> width), once
    per summed entry, and a row of op with one unit entry shares a run of
    rows.  No entry is dropped: nonzero elements of N[C_m] have nonzero
    products, and a packed int that maps to 0 in the field is kept."""
    mid = len(op_rows)
    out: list[list[tuple[int, int]]] = []
    for base in range(0, len(rows) // post, mid):
        for entries in op_rows:
            if not entries:
                out += [[] for _ in range(post)]
                continue
            (c, v), *rest = entries
            lo = (base + c) * post
            run = rows[lo:lo + post]
            if not rest:
                out += run if v == 1 else [[(j, (p & mask) + (p >> width)) for j, x in row for p in (v * x,)]
                                           for row in run]
                continue
            accs = [{j: v * x for j, x in row} for row in run]
            for c, v in rest:
                lo = (base + c) * post
                for acc, row in zip(accs, rows[lo:lo + post]):
                    for j, x in row:
                        if j in acc:
                            acc[j] += v * x
                        else:
                            acc[j] = v * x
            out += [[(j, (p & mask) + (p >> width)) for j, p in acc.items()] for acc in accs]
    return out


def _diagonal_sum(op_rows, post: int, rows) -> int:
    """sum_i (G T)[i][i] for G = 1 (x) op (x) 1_post on packed rows of T,
    unfolded: each product adds up to 2m - 1 slots."""
    out = 0
    for base in range(0, len(rows) // post, len(op_rows)):
        for r, entries in enumerate(op_rows, base):
            for c, v in entries:
                lo = (base + c) * post
                for i, row in enumerate(rows[lo:lo + post], r * post):
                    for j, x in row:
                        if j == i:
                            out += v * x
    return out
