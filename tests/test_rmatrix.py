import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from ybw import matrix
from ybw.cyclo import ONE, ZERO, CycloScalar, scalar, zeta
from ybw.errors import (
    DimensionMismatchError,
    NoMatchError,
    NonIntegralBlocksError,
    NotInvolutiveError,
    NotUnitaryError,
    SupportExceedsLevelError,
    YBEFailsError,
)
from ybw.matrix import ExactMatrix, SparseOperator, amplify, flip_operator, kron
from ybw.perms import FinitePermutation
from ybw.rmatrix import (
    ThomaParams,
    _solve_vandermonde,
    boxplus,
    char_cycle,
    cycle_trace_sequence,
    extract_thoma,
    merge_thoma,
    normal_form_from_thoma,
    normal_forms_of_dim,
    scalar_rmatrix,
    t_power,
    verify_rmatrix,
    yb_rep_perm,
)


def hadamard_conjugated_flip():
    """A dense involutive solution: the flip conjugated by H (x) H over Q(zeta_8)."""
    inv_sqrt2 = (zeta(8) + zeta(8, 7)) / 2
    h = ExactMatrix.from_entries(2, 2, {(0, 0): inv_sqrt2, (0, 1): inv_sqrt2,
                                        (1, 0): inv_sqrt2, (1, 1): -inv_sqrt2})
    hh = kron(h, h)
    return verify_rmatrix(hh * flip_operator(2, 2) * hh.dagger(), 2)


def plus_minus():
    return boxplus(scalar_rmatrix(1, +1), scalar_rmatrix(1, -1))


def q_twisted_flip(q):
    """R e_i (x) e_j = q[i][j] e_j (x) e_i; q[i][j] q[j][i] = 1, |q[i][j]| = 1."""
    d = len(q)
    return verify_rmatrix(ExactMatrix.from_entries(
        d * d, d * d, {(j * d + i, i * d + j): q[i][j] for i in range(d) for j in range(d)}), d)


def lyubashenko(f):
    """The set-theoretic solution (x, y) -> (f(y), f^-1(x)) for a permutation f."""
    d = len(f)
    f_inv = {y: x for x, y in enumerate(f)}
    return verify_rmatrix(ExactMatrix.from_entries(
        d * d, d * d, {(f[y] * d + f_inv[x], x * d + y): 1 for x in range(d) for y in range(d)}), d)


def tensor_product(a, b):
    """R_a (x) R_b on (V_a (x) V_b)^(x 2), with the middle factors swapped into place."""
    swap = kron(kron(ExactMatrix.identity(a.d), flip_operator(b.d, a.d)), ExactMatrix.identity(b.d))
    return verify_rmatrix(swap.dagger() * kron(a.m, b.m) * swap, a.d * b.d)


def partial_trace(r):
    """T = Tr_2(R): T[i][j] = sum_x R[(i,x),(j,x)]."""
    d = r.d
    return ExactMatrix.from_entries(d, d, {
        (i, j): sum((r.m.data[i * d + x][j * d + x] for x in range(d)), scalar(0))
        for i in range(d) for j in range(d)})


# -- certification ----------------------------------------------------


def test_identity_certifies():
    verify_rmatrix(ExactMatrix.identity(9), 3)


def test_flip_certifies():
    verify_rmatrix(flip_operator(2, 2), 2)


def test_bad_diagonal_fails_ybe_with_witness():
    bad = ExactMatrix.diag([1, 1, 1, -1])
    with pytest.raises(YBEFailsError, match="row"):
        verify_rmatrix(bad, 2)
    # oracle: both braid sides on all 8 basis vectors differ somewhere
    from ybw.matrix import amplify
    a = amplify(bad, (2, 2, 2), 0, 2).to_dense()
    b = amplify(bad, (2, 2, 2), 1, 3).to_dense()
    assert a * b * a != b * a * b


def test_non_involutive_rejected():
    m = ExactMatrix.diag([1, 2, Fraction(1, 2), 1])
    with pytest.raises(NotInvolutiveError):
        verify_rmatrix(m, 2)


def dense_verify_outcome(m, d):
    """verify_rmatrix's verdict from dense products: R^2 and R^dagger R as
    ExactMatrix products, the braid relation with kron."""
    sq = m * m
    for i in range(d * d):
        for j in range(d * d):
            v = sq.data[i][j]
            if (i == j and not v.is_one()) or (i != j and not v.is_zero()):
                return NotInvolutiveError, (f"R^2 is not the identity: image of basis vector "
                                            f"{j} has a wrong coefficient at {i}")
    if not (m.dagger() * m).is_identity():
        return NotUnitaryError, "R is not unitary"
    one = ExactMatrix.identity(d)
    r12, r23 = kron(m, one), kron(one, m)
    lhs, rhs = r12 * r23 * r12, r23 * r12 * r23
    for idx, (ra, rb) in enumerate(zip(lhs.data, rhs.data)):
        if ra != rb:
            return YBEFailsError, (f"braid relation fails: row {idx} of R12 R23 R12 and "
                                   f"R23 R12 R23 differ")
    return None, ""


def seeded_candidates(rng, d):
    """A signed permutation, a signed involution, an involutive R that is
    not unitary, and a dense random matrix, all on C^d (x) C^d."""
    n = d * d
    unit = [scalar(1), scalar(-1)]
    perm = rng.sample(range(n), n)
    yield ExactMatrix.from_entries(n, n, {(perm[j], j): rng.choice(unit) for j in range(n)})
    points = rng.sample(range(n), n)
    entries = {}
    while points:
        a = points.pop()
        if points and rng.random() < 0.7:
            b = points.pop()
            phase = rng.choice(unit + [zeta(4)])
            entries[a, b] = phase
            # the conjugate phase keeps R^2 = 1 and R unitary; a flipped
            # sign breaks both
            entries[b, a] = phase.conj() if rng.random() < 0.8 else -phase.conj()
        else:
            entries[a, a] = rng.choice(unit)
    yield ExactMatrix.from_entries(n, n, entries)
    if n > 1:
        # [[1, c], [0, -1]] on two basis vectors, the identity elsewhere
        a, b = rng.sample(range(n), 2)
        entries = {(i, i): 1 for i in range(n)}
        entries[b, b] = -1
        entries[a, b] = rng.choice([1, -1, Fraction(1, 2), zeta(4)])
        yield ExactMatrix.from_entries(n, n, entries)
    values = [0, 0, 0, 1, -1, zeta(4), Fraction(1, 2)]
    yield ExactMatrix.from_entries(n, n, {(i, j): rng.choice(values)
                                          for i in range(n) for j in range(n)})


def seeded_monomial_candidates(rng, d, conductor):
    """Involutive unitary rooted permutation matrices on C^d (x) C^d, each
    entry +-zeta_conductor^k: a twisted flip and a Lyubashenko solution
    conjugated by a diagonal phase unitary, which satisfy the braid
    relation, and an involution with conjugate phases on its pairs, which
    mostly does not."""
    n = d * d

    def root():
        return rng.choice([1, -1]) * zeta(conductor, rng.randrange(conductor))

    q = [[scalar(rng.choice([1, -1])) if i == j else None for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            q[i][j] = root()
            q[j][i] = q[i][j].conj()
    yield ExactMatrix.from_entries(n, n, {(j * d + i, i * d + j): q[i][j]
                                          for i in range(d) for j in range(d)})
    f = rng.sample(range(d), d)
    f_inv = {y: x for x, y in enumerate(f)}
    phase = [zeta(conductor, rng.randrange(conductor)) for _ in range(d)]
    yield ExactMatrix.from_entries(n, n, {
        (f[y] * d + f_inv[x], x * d + y):
            phase[f[y]] * phase[f_inv[x]] * phase[x].conj() * phase[y].conj()
        for x in range(d) for y in range(d)})
    points = rng.sample(range(n), n)
    entries = {}
    while points:
        a = points.pop()
        if points and rng.random() < 0.7:
            b = points.pop()
            entries[a, b] = root()
            entries[b, a] = entries[a, b].conj()
        else:
            entries[a, a] = scalar(rng.choice([1, -1]))
    yield ExactMatrix.from_entries(n, n, entries)


def verify_outcome(m, d):
    try:
        verify_rmatrix(m, d)
    except (NotInvolutiveError, NotUnitaryError, YBEFailsError) as exc:
        return type(exc), str(exc)
    return None, ""


def test_verify_rmatrix_matches_the_dense_oracle(monkeypatch):
    # the sparse checks must give the dense products' verdict and message
    cases = [(ExactMatrix.diag([1, 1, 1, -1]), 2), (ExactMatrix.diag([1, 2, Fraction(1, 2), 1]), 2),
             (ExactMatrix.from_entries(4, 4, {(0, 0): 1, (0, 1): 1, (1, 1): -1,
                                              (2, 2): 1, (3, 3): 1}), 2),
             (hadamard_conjugated_flip().m, 2), (flip_operator(3, 3), 3),
             (q_twisted_flip([[1, zeta(3)], [zeta(3, 2), 1]]).m, 2), (lyubashenko([1, 2, 0]).m, 3)]
    rng = random.Random(2408)
    for _ in range(100):
        for d in (1, 2, 3):
            cases += [(m, d) for m in seeded_candidates(rng, d)]
    seen = set()
    for m, d in cases:
        expected = dense_verify_outcome(m, d)
        try:
            verify_rmatrix(m, d)
            got = (None, "")
        except (NotInvolutiveError, NotUnitaryError, YBEFailsError) as exc:
            got = (type(exc), str(exc))
        assert got == expected, (m.data, d)
        seen.add(expected[0])
    assert seen == {None, NotInvolutiveError, NotUnitaryError, YBEFailsError}
    # monomial candidates over Q(zeta_3) and Q(zeta_4) run the braid check
    # on the phase-permutation engine, never on the packed group ring;
    # every candidate, given as sparse rows, gets the same outcome
    rng = random.Random(2409)
    monomial = [(m, d) for conductor in (3, 4) for _ in range(25) for d in (2, 3)
                for m in seeded_monomial_candidates(rng, d, conductor)]
    products = []
    group_ring = matrix._group_ring
    monkeypatch.setattr(matrix, "_group_ring", lambda dims, words: products.append(1) or group_ring(dims, words))
    seen = set()
    for m, d in monomial:
        expected = dense_verify_outcome(m, d)
        assert verify_outcome(m, d) == expected, (m.data, d)
        seen.add(expected[0])
    assert not products
    assert seen == {None, YBEFailsError}
    for m, d in cases + monomial:
        assert verify_outcome(SparseOperator.from_dense(m), d) == verify_outcome(m, d), (m.data, d)


@pytest.mark.parametrize("dim, d, broken, witness", [
    (4, 2, {1: [(2, ONE), (1, ONE)]}, "row 1 of R has column 1 out of order or outside 0..3"),
    (4, 2, {1: [(1, ONE), (1, ONE)]}, "row 1 of R has column 1 out of order"),
    (4, 2, {2: [(4, ONE)]}, "row 2 of R has column 4 out of order or outside 0..3"),
    (4, 2, {3: [(-1, ONE)]}, "row 3 of R has column -1 out of order"),
    (4, 2, {0: [(0, ONE), (2, scalar(0))]}, "row 0 of R holds a zero at column 2"),
    (4, 2, {3: None}, "3 sparse rows for dimension 4"),
    (9, 2, {}, "expected a 4x4 matrix, got 9x9"),
    # two halves in one column sum to 1 in every product and equal their
    # own adjoint, so without the check R = [[1/2]] would certify
    (1, 1, {0: [(0, scalar(Fraction(1, 2))), (0, scalar(Fraction(1, 2)))]},
     "row 0 of R has column 0 out of order"),
])
def test_verify_rmatrix_rejects_rows_out_of_canonical_form(dim, d, broken, witness):
    rows = [[(i, ONE)] for i in range(dim)]
    for i, row in broken.items():
        rows[i] = row
    with pytest.raises(DimensionMismatchError, match=witness):
        verify_rmatrix(SparseOperator(dim, [row for row in rows if row is not None]), d)


def test_verify_rmatrix_from_rows_keeps_both_forms():
    m = q_twisted_flip([[1, zeta(3)], [zeta(3, 2), -1]]).m
    r = verify_rmatrix(SparseOperator.from_dense(m), 2)
    assert r.m == m and r.sparse == SparseOperator.from_dense(m)


# -- boxplus ----------------------------------------------------------


def dense_boxplus(*parts):
    """The box-sum filled entry by entry into a dense matrix: the oracle of
    the row-built boxplus."""
    big = sum(p.d for p in parts)
    out = ExactMatrix.zeros(big * big, big * big)
    owner = []
    offset = 0
    for k, p in enumerate(parts):
        for a, arow in enumerate(p.m.data):
            u_out, v_out = divmod(a, p.d)
            row = out.data[(u_out + offset) * big + v_out + offset]
            for b, val in enumerate(arow):
                if not val.is_zero():
                    u_in, v_in = divmod(b, p.d)
                    row[(u_in + offset) * big + v_in + offset] = val
        owner += [k] * p.d
        offset += p.d
    for u in range(big):
        for v in range(big):
            if owner[u] != owner[v]:
                out.data[v * big + u][u * big + v] = scalar(1)
    return out


def test_row_built_boxplus_and_cycle_traces_match_dense_oracles():
    # scalar blocks, a dense (non-monomial) R and q-twisted flips mixed;
    # cycle traces from the rows against powers of the dense partial trace
    i4 = zeta(4)
    twisted = [[-1, zeta(3)], [zeta(3, 2), 1]]
    cases = [
        (scalar_rmatrix(2, -1), hadamard_conjugated_flip(), q_twisted_flip(twisted)),
        (q_twisted_flip([[1, i4, -1], [-i4, -1, zeta(3)], [-1, zeta(3, 2), 1]]), scalar_rmatrix(1, +1)),
        (hadamard_conjugated_flip(), scalar_rmatrix(1, -1), hadamard_conjugated_flip()),
        (q_twisted_flip(twisted),),
    ]
    for parts in cases:
        r = boxplus(*parts)
        assert r.m == dense_boxplus(*parts), parts
        assert r.sparse == SparseOperator.from_dense(r.m)
        for x in parts + (r,):
            t = partial_trace(x)
            power, expected = t, []
            for _ in range(2, 2 * x.d + 2):
                expected.append(power.trace())
                power = power * t
            assert cycle_trace_sequence(x, 2 * x.d + 1) == expected, x


def test_boxplus_of_ones_is_flip():
    pp = boxplus(scalar_rmatrix(1, +1), scalar_rmatrix(1, +1))
    assert pp.m == flip_operator(2, 2)


def test_boxplus_plus_minus_action():
    pm = plus_minus()
    m = pm.m
    # e00 fixed, e11 negated, mixed swapped
    assert m.data[0][0] == 1
    assert m.data[3][3] == -1
    assert m.data[2][1] == 1 and m.data[1][2] == 1
    assert m.trace() == 0


def test_boxplus_merges_thoma():
    f = verify_rmatrix(flip_operator(2, 2), 2)
    pm = plus_minus()
    combined = boxplus(f, pm)
    got = extract_thoma(combined)
    expected = merge_thoma(extract_thoma(f), 2, extract_thoma(pm), 2)
    assert got == expected
    assert expected == ThomaParams.make([Fraction(1, 4)] * 3, [Fraction(1, 4)])


def test_boxplus_n_ary_equals_nested_binary():
    f = verify_rmatrix(flip_operator(2, 2), 2)
    parts = [scalar_rmatrix(1, -1), f, scalar_rmatrix(2, +1)]
    nested = boxplus(boxplus(parts[0], parts[1]), parts[2])
    assert boxplus(*parts).m == nested.m
    assert boxplus(f).m == f.m


# -- normal forms -----------------------------------------------------


def test_normal_form_trivial():
    r = normal_form_from_thoma(ThomaParams.make([1], []), 1)
    assert r.m == ExactMatrix.identity(1)


def test_normal_form_half_half():
    r = normal_form_from_thoma(ThomaParams.make([Fraction(1, 2)], [Fraction(1, 2)]), 2)
    assert r.m == plus_minus().m


def test_normal_form_d4_char():
    params = ThomaParams.make([Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 4)])
    r = normal_form_from_thoma(params, 4)
    assert char_cycle(r, 2) == Fraction(1, 4)


def test_normal_form_non_integral():
    with pytest.raises(NonIntegralBlocksError):
        normal_form_from_thoma(ThomaParams.make([Fraction(2, 3), Fraction(1, 3)], []), 2)


def test_normal_form_requires_full_mass():
    with pytest.raises(NonIntegralBlocksError):
        normal_form_from_thoma(ThomaParams.make([Fraction(1, 2)], []), 2)


# -- representations --------------------------------------------------


def test_rep_identity_and_generator():
    f = verify_rmatrix(flip_operator(2, 2), 2)
    assert yb_rep_perm(f, FinitePermutation.identity(), 2).is_identity()
    op = yb_rep_perm(f, FinitePermutation.transposition(1, 2), 2)
    assert op.to_dense() == flip_operator(2, 2)


def test_rep_word_independence_on_three_cycle():
    # (1 2 3) = s1 s2 and, by the braid relation, also s2 s1 s2 s1; both
    # words must give the same operator
    r = plus_minus()
    c3 = FinitePermutation.cycle(3)
    via_word = yb_rep_perm(r, c3, 3)
    s1, s2 = (amplify(r.m, (2, 2, 2), i, i + 2) for i in (0, 1))
    assert via_word == s1 * s2
    assert via_word == s2 * s1 * s2 * s1
    assert s1 * s2 * s1 == s2 * s1 * s2  # braid relation on images


def test_rep_is_homomorphism():
    r = hadamard_conjugated_flip()
    perms = [FinitePermutation.from_one_line(line)
             for line in itertools.permutations(range(1, 5))]
    for a in perms[:8]:
        for b in perms[8:16]:
            assert yb_rep_perm(r, a * b, 4) == yb_rep_perm(r, a, 4) * yb_rep_perm(r, b, 4)


def test_rep_flip_is_coordinate_permutation():
    # with R the flip, the representation permutes tensor coordinates
    f = verify_rmatrix(flip_operator(3, 3), 3)
    sigma = FinitePermutation.from_cycles([[1, 3, 2]])
    op = yb_rep_perm(f, sigma, 3)
    layout = [3, 3, 3]
    from ybw.matrix import TensorIndex
    ti = TensorIndex((3, 3, 3))
    for col in range(27):
        digits = ti.decode(col)
        image = tuple(digits[sigma.inverse()(i + 1) - 1] for i in range(3))
        row = ti.encode(image)
        entries = [(rr, v) for rr, rowvals in enumerate(op.rows) for (cc, v) in rowvals if cc == col]
        assert entries == [(row, entries[0][1])] and entries[0][1].is_one()


def test_rep_support_check():
    r = plus_minus()
    with pytest.raises(SupportExceedsLevelError):
        yb_rep_perm(r, FinitePermutation.cycle(4), 3)


# -- characters -------------------------------------------------------


def test_char_scalar_cases():
    plus = scalar_rmatrix(1, +1)
    minus = scalar_rmatrix(1, -1)
    for n in range(2, 8):
        assert char_cycle(plus, n) == 1
        assert char_cycle(minus, n) == Fraction(-1) ** (n - 1)


def test_char_flip():
    f = verify_rmatrix(flip_operator(2, 2), 2)
    for n in range(2, 9):
        assert char_cycle(f, n) == Fraction(1, 2 ** (n - 1))


def test_char_matches_materialized_trace():
    # tr(T^(n-1)) for the partial trace T = Tr_2(R) against the literal
    # image of the n-cycle; the identity behind it, R (1 (x) T) = (T (x) 1) R,
    # is checked on every case
    i4 = zeta(4)
    q3 = [[1, zeta(3), i4], [zeta(3, 2), -1, -1], [-i4, -1, 1]]
    q2 = [[-1, i4], [-i4, 1]]
    # a unitary over Q(i) mixing the + block {0} with the - block {1, 2}
    u = ExactMatrix.from_entries(3, 3, {(0, 0): Fraction(3, 5), (0, 1): Fraction(4, 5) * i4,
                                        (1, 0): Fraction(4, 5) * i4, (1, 1): Fraction(3, 5),
                                        (2, 2): 1})
    uu = kron(u, u)
    one_two = normal_form_from_thoma(ThomaParams.make([Fraction(1, 3)], [Fraction(2, 3)]), 3)
    cases = [
        verify_rmatrix(flip_operator(2, 2), 2),
        plus_minus(),
        hadamard_conjugated_flip(),
        normal_form_from_thoma(ThomaParams.make([Fraction(1, 2), Fraction(1, 4)],
                                                [Fraction(1, 4)]), 4),
        verify_rmatrix(flip_operator(3, 3), 3),
        q_twisted_flip(q3),
        lyubashenko([1, 2, 0]),
        boxplus(q_twisted_flip(q2), lyubashenko([1, 0])),
        tensor_product(q_twisted_flip(q2), lyubashenko([1, 0])),
        verify_rmatrix(uu * one_two.m * uu.dagger(), 3),
    ]
    for r in cases:
        t = partial_trace(r)
        one = ExactMatrix.identity(r.d)
        assert r.m * kron(one, t) == kron(t, one) * r.m, r
        for n in range(2, 7):
            op = yb_rep_perm(r, FinitePermutation.cycle(n), n)
            assert op.trace() == cycle_trace_sequence(r, n)[n - 2], (r, n)


def test_char_bounded_and_rational():
    for _, r in normal_forms_of_dim(3):
        for n in range(2, 8):
            v = char_cycle(r, n)
            assert isinstance(v, Fraction)
            assert abs(v) <= 1


# -- extraction -------------------------------------------------------


def test_extract_identity():
    r = verify_rmatrix(ExactMatrix.identity(9), 3)
    t = extract_thoma(r)
    assert t.alpha == (Fraction(1),) and t.beta == ()


def test_extract_plus_minus():
    t = extract_thoma(plus_minus())
    assert t == ThomaParams.make([Fraction(1, 2)], [Fraction(1, 2)])
    # chi(c_2) = 0 and chi(c_3) = 1/4 pin this down among the five d=2 candidates
    assert char_cycle(plus_minus(), 2) == 0
    assert char_cycle(plus_minus(), 3) == Fraction(1, 4)


def test_extract_round_trip_spec_example():
    for params, d in [
        (ThomaParams.make([Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 4)]), 4),
        # d = 24: 94,235 partition pairs, far too many to match one by one
        (ThomaParams.make([Fraction(k, 24) for k in (9, 5, 3, 1)],
                          [Fraction(k, 24) for k in (4, 2)]), 24),
    ]:
        assert extract_thoma(normal_form_from_thoma(params, d)) == params


def test_extract_dense_representative():
    assert extract_thoma(hadamard_conjugated_flip()) == ThomaParams.make(
        [Fraction(1, 2), Fraction(1, 2)], [])


@pytest.mark.parametrize("d, traces, witness", [
    # tr_n = 2^(n-1) is half an alpha weight at 2/3: sum_k k^n m_k with m_2 = 1/2
    (3, [2 ** (n - 1) for n in range(2, 8)], r"1/2 alpha weights equal to 2/3"),
    # m+_1 = 0 and m-_1 = -1: tr_n = -(-1)^(n-1)
    (1, [1, -1], r"-1 beta weights equal to 1/1"),
    # a single alpha weight 1/2 at d = 2 solves the traces but leaves mass 1/2
    (2, [1, 1, 1, 1], r"total mass 1/2,"),
    # 10^30 weights 1/1: rejected by mass before any weight list is built
    (1, [10 ** 30, 10 ** 30], r"total mass 10{30},"),
    (1, [1, zeta(4)], r"3-cycle image is not rational"),
])
def test_extract_names_the_witness_of_doctored_traces(d, traces, witness):
    # a certified R whose cached powers T^j, j = 1 .. 2d, are replaced by
    # one-entry diagonals carrying the doctored cycle traces for n = 2 .. 2d+1
    r = verify_rmatrix(ExactMatrix.identity(d * d), d)
    r._t_powers.update((j, SparseOperator(1, [[(0, scalar(v))]])) for j, v in enumerate(traces, 1))
    assert len(traces) == 2 * d
    with pytest.raises(NoMatchError, match=witness):
        extract_thoma(r)


def test_round_trip_exhaustive_d6():
    # the acceptance gate stops at d = 5; the d = 6 layer (65 partition
    # pairs) is cheap with powers of the partial trace
    for params, r in normal_forms_of_dim(6):
        assert extract_thoma(r) == params


def test_rep_word_independence_larger_level():
    r = verify_rmatrix(flip_operator(3, 3), 3)
    from ybw.rng import Lcg64
    rng = Lcg64(83)
    for _ in range(10):
        a = rng.permutation_of([1, 2, 3, 4, 5])
        b = rng.permutation_of([1, 2, 3, 4, 5])
        assert yb_rep_perm(r, a * b, 5) == yb_rep_perm(r, a, 5) * yb_rep_perm(r, b, 5)


# -- parameter type ---------------------------------------------------


def test_thoma_params_validation():
    with pytest.raises(ValueError):
        ThomaParams.make([Fraction(1, 4), Fraction(1, 2)], [])
    with pytest.raises(ValueError):
        ThomaParams.make([Fraction(1, 2), Fraction(-1, 4)], [])
    with pytest.raises(ValueError):
        ThomaParams.make([Fraction(3, 4)], [Fraction(1, 2)])
    t = ThomaParams.make([Fraction(1, 2)], [Fraction(1, 4)])
    assert t.deficit == Fraction(1, 4)
    assert t.deficit != 0
    assert ThomaParams.make([Fraction(1, 2), Fraction(1, 2)], []).deficit == 0


def test_minimal_denominator():
    t = ThomaParams.make([Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 6)])
    assert t.minimal_denominator() == 6


# -- the certify-and-extract path on R's nonzeros -------------------------


def seeded_block_unitary(rng, d):
    """A unitary on C^d over Q(zeta_12): 2x2 rotations from Pythagorean
    triples with seeded phases on the index pairs (0, 1), (2, 3), ..., and
    a seeded phase on an odd last index."""
    u = ExactMatrix.zeros(d, d)
    for i in range(0, d - 1, 2):
        x, y, h = rng.choice([(3, 4, 5), (5, 12, 13), (8, 15, 17)])
        p, q, s = (zeta(12, rng.randrange(12)) for _ in range(3))
        a, b = p * Fraction(x, h), q * Fraction(y, h)
        u.data[i][i], u.data[i][i + 1] = a, b
        u.data[i + 1][i], u.data[i + 1][i + 1] = -(b.conj() * s), a.conj() * s
    if d % 2:
        u.data[d - 1][d - 1] = zeta(12, rng.randrange(12))
    return u


def seeded_params(rng, d):
    k = rng.randint(0, d)
    parts = []
    for total in (k, d - k):
        lam = []
        while total:
            lam.append(rng.randint(1, total))
            total -= lam[-1]
        parts.append(sorted(lam, reverse=True))
    return ThomaParams.make([Fraction(x, d) for x in parts[0]], [Fraction(x, d) for x in parts[1]])


def test_sparse_cycle_traces_match_dense_partial_trace_powers():
    # normal forms (T diagonal) for d <= 12, and normal forms conjugated by
    # U (x) U for a block unitary U (T full of entries), against powers of
    # the dense partial trace
    rng = random.Random(2414)
    cases = []
    for d in range(1, 13):
        for _ in range(2):
            params = seeded_params(rng, d)
            cases.append((params, normal_form_from_thoma(params, d)))
    for d in (2, 3, 4, 5):
        for _ in range(2):
            params = seeded_params(rng, d)
            u = seeded_block_unitary(rng, d)
            uu = u.kron(u)
            cases.append((params, verify_rmatrix(uu * normal_form_from_thoma(params, d).m * uu.dagger(), d)))
    full = 0
    for params, r in cases:
        t = partial_trace(r)
        full += any(not t.data[i][j].is_zero() for i in range(r.d) for j in range(r.d) if i != j)
        power, expected = t, []
        for _ in range(2, 2 * r.d + 2):
            expected.append(power.trace())
            power = power * t
        assert cycle_trace_sequence(r, 2 * r.d + 1) == expected, params
        assert extract_thoma(r) == params
    assert full >= 4


def fraction_vandermonde(nodes, rhs):
    """The Vandermonde solve on Fractions throughout: the oracle of
    rmatrix._solve_vandermonde."""
    master = [1]
    for a in nodes:
        master = [0] + master
        for j in range(len(master) - 1):
            master[j] -= a * master[j + 1]
    out = []
    for a in nodes:
        quotient = [0] * len(nodes)
        acc = 0
        for j in range(len(nodes), 0, -1):
            acc = master[j] + a * acc
            quotient[j - 1] = acc
        num = sum((q * b for q, b in zip(quotient, rhs)), Fraction(0))
        out.append(num / prod(a - b for b in nodes if b != a))
    return out


def test_integer_vandermonde_matches_the_fraction_solver():
    rng = random.Random(2415)
    for _ in range(300):
        size = rng.randint(1, 9)
        nodes = (rng.sample(range(-30, 31), size) if rng.random() < 0.5
                 else [k * k for k in range(1, size + 1)])
        rhs = [Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.choice([1, 1, 2, 3, 12, 10 ** 7 + 19]))
               for _ in range(size)]
        got = _solve_vandermonde(nodes, rhs)
        assert got == fraction_vandermonde(nodes, rhs), (nodes, rhs)
        assert all(type(c) is Fraction for c in got)
    for params, r in normal_forms_of_dim(5):
        traces = [t.as_rational() for t in cycle_trace_sequence(r, 11)]
        nodes = [k * k for k in range(1, 6)]
        for rhs in (traces[1::2], traces[0::2]):
            assert _solve_vandermonde(nodes, rhs) == fraction_vandermonde(nodes, rhs), params


def test_verify_rmatrix_drops_zeros_that_are_not_the_shared_object():
    # a dense R whose zero entries are zeros of other origins gets the
    # same rows and the same verdict
    x = zeta(5) + Fraction(1, 3)
    zeros = [scalar(0), 1 + zeta(3) + zeta(3, 2), x - x]
    assert all(z.is_zero() and z is not ZERO for z in zeros)
    rng = random.Random(2416)
    cases = [(hadamard_conjugated_flip().m, 2), (lyubashenko([1, 2, 0]).m, 3),
             (q_twisted_flip([[1, zeta(3)], [zeta(3, 2), -1]]).m, 2)]
    for d in (1, 2, 3):
        for _ in range(10):
            cases += [(m, d) for m in seeded_candidates(rng, d)]
    seen = set()
    for m, d in cases:
        other = ExactMatrix(m.rows, m.cols, [[rng.choice(zeros) if v.is_zero() else v for v in row]
                                             for row in m.data])
        assert SparseOperator.from_dense(other) == SparseOperator.from_dense(m)
        outcome = verify_outcome(m, d)
        assert verify_outcome(other, d) == outcome, (m.data, d)
        if outcome[0] is None:
            assert verify_rmatrix(other, d).sparse == verify_rmatrix(m, d).sparse
        seen.add(outcome[0])
    assert seen == {None, NotInvolutiveError, NotUnitaryError, YBEFailsError}


def counted(monkeypatch, name):
    """A list that grows by one on each call of the CycloScalar method."""
    calls = []
    method = getattr(CycloScalar, name)

    def wrapper(self, *args):
        calls.append(1)
        return method(self, *args)

    monkeypatch.setattr(CycloScalar, name, wrapper)
    return calls


def test_certify_and_extract_cost_about_the_nonzeros_of_r(monkeypatch):
    # d = 24: the dense R has d^4 = 331,776 entries and d^2 = 576 nonzeros
    d = 24
    params = ThomaParams.make([Fraction(12, 24), Fraction(8, 24)], [Fraction(4, 24)])
    dense = normal_form_from_thoma(params, d).m
    is_zero = counted(monkeypatch, "is_zero")
    root_exponent = counted(monkeypatch, "root_exponent")
    r = verify_rmatrix(dense, d)
    assert len(is_zero) <= 4 * d * d
    # one monomial form of R serves both braid words
    assert len(root_exponent) == d * d
    del is_zero[:]
    assert extract_thoma(r) == params
    assert len(is_zero) <= d * d


def test_t_powers_by_halves_match_the_dense_powers():
    # a power asked for alone is built from halves, in O(log j) products
    # kept in the memo; the cycle traces read the same memo
    rng = random.Random(2417)
    u = seeded_block_unitary(rng, 4)
    uu = u.kron(u)
    params = ThomaParams.make([Fraction(1, 2)], [Fraction(1, 4), Fraction(1, 4)])
    for r in (normal_form_from_thoma(params, 4), hadamard_conjugated_flip(),
              verify_rmatrix(uu * normal_form_from_thoma(params, 4).m * uu.dagger(), 4)):
        t = partial_trace(r)
        power = ExactMatrix.identity(r.d)
        dense = [power := power * t for _ in range(40)]
        assert t_power(r, 37).to_dense() == dense[36]
        assert len(r._t_powers) <= 12
        assert cycle_trace_sequence(r, 41) == [p.trace() for p in dense]
        assert all(t_power(r, j).to_dense() == dense[j - 1] for j in range(1, 41))
