from fractions import Fraction
from math import lcm, prod

import pytest

from ybw import matrix
from ybw.cyclo import ZERO, CycloScalar, scalar, zeta
from ybw.errors import DimensionMismatchError
from ybw.matrix import (
    ExactMatrix,
    SparseOperator,
    TensorIndex,
    amplify,
    first_differing_row,
    flip_operator,
    gate_product,
    gate_trace,
    kron,
)
from ybw.rng import Lcg64


def random_matrix(rng, rows, cols, conductor=1):
    m = ExactMatrix.zeros(rows, cols)
    for i in range(rows):
        for j in range(cols):
            num = rng.below(11) - 5
            if conductor == 1:
                m.data[i][j] = CycloScalar.from_rational(num)
            else:
                m.data[i][j] = num * zeta(conductor, rng.below(conductor))
    return m


def random_signed_permutation(rng, n):
    cols = list(range(n))
    perm = rng.permutation_of([c + 1 for c in cols])
    m = ExactMatrix.zeros(n, n)
    for i in range(n):
        m.data[i][perm(i + 1) - 1] = CycloScalar.from_rational(1 - 2 * rng.below(2))
    return m


def test_tensor_index_roundtrip():
    layout = TensorIndex((2, 3, 4))
    assert layout.size == 24
    for k in range(24):
        assert layout.encode(layout.decode(k)) == k
    assert layout.encode((1, 2, 3)) == 1 * 12 + 2 * 4 + 3


def test_tensor_index_errors_name_the_witness():
    layout = TensorIndex((2, 3, 4))
    with pytest.raises(DimensionMismatchError, match="2 digits"):
        layout.encode((1, 2))
    with pytest.raises(DimensionMismatchError, match="digit 3 of factor 1"):
        layout.encode((1, 3, 0))
    for bad in (24, -1):
        with pytest.raises(DimensionMismatchError, match=f"basis index {bad} "):
            layout.decode(bad)


def test_identity_matmul():
    rng = Lcg64(3)
    m = random_matrix(rng, 4, 4, conductor=4)
    assert ExactMatrix.identity(4) * m == m


def test_flip_examples():
    assert flip_operator(1, 1) == ExactMatrix.identity(1)
    f = flip_operator(2, 2)
    assert f * f == ExactMatrix.identity(4)
    # swaps basis indices 1 and 2 of 0..3
    assert f.data[1][2].is_one() and f.data[2][1].is_one()
    assert f.data[0][0].is_one() and f.data[3][3].is_one()
    assert flip_operator(2, 3) * flip_operator(3, 2) == ExactMatrix.identity(6)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_flip_trace_counts_fixed_points(d):
    assert flip_operator(d, d).trace() == d


def test_kron_examples():
    assert kron(ExactMatrix.identity(2), ExactMatrix.identity(3)) == ExactMatrix.identity(6)
    assert kron(ExactMatrix.diag([1, -1]), ExactMatrix.identity(2)) == ExactMatrix.diag([1, 1, -1, -1])


def test_kron_trace_multiplicative():
    rng = Lcg64(11)
    for _ in range(5):
        a = random_matrix(rng, 3, 3, conductor=3)
        b = random_matrix(rng, 3, 3, conductor=4)
        assert kron(a, b).trace() == a.trace() * b.trace()


def test_kron_associative():
    rng = Lcg64(12)
    a = random_matrix(rng, 2, 2)
    b = random_matrix(rng, 2, 2, conductor=4)
    c = random_matrix(rng, 2, 2, conductor=3)
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


def test_trace_cyclic():
    rng = Lcg64(13)
    for _ in range(5):
        a = random_matrix(rng, 3, 3, conductor=4)
        b = random_matrix(rng, 3, 3, conductor=4)
        assert (a * b).trace() == (b * a).trace()


def test_trace_identity():
    assert ExactMatrix.identity(8).trace() == 8


def test_dagger():
    assert ExactMatrix.identity(3).dagger() == ExactMatrix.identity(3)
    d = ExactMatrix.diag([zeta(3), zeta(3, 2)])
    assert d.dagger() == ExactMatrix.diag([zeta(3, 2), zeta(3)])
    assert (d.dagger() * d).is_identity()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        ExactMatrix.identity(2) * ExactMatrix.identity(3)
    with pytest.raises(DimensionMismatchError):
        ExactMatrix.zeros(2, 3).trace()


def test_sparse_dense_agreement_random():
    rng = Lcg64(21)
    for trial in range(8):
        n = 2 + rng.below(5)
        if trial % 2 == 0:
            a, b = random_signed_permutation(rng, n), random_signed_permutation(rng, n)
        else:
            a, b = random_matrix(rng, n, n, conductor=4), random_matrix(rng, n, n, conductor=6)
        sa, sb = SparseOperator.from_dense(a), SparseOperator.from_dense(b)
        assert (sa * sb).to_dense() == a * b
        assert sa.trace() == a.trace()
        assert sa.dagger().to_dense() == a.dagger()


def test_sparse_dense_agreement_dim_64():
    rng = Lcg64(22)
    a = random_signed_permutation(rng, 64)
    b = random_signed_permutation(rng, 64)
    sa, sb = SparseOperator.from_dense(a), SparseOperator.from_dense(b)
    assert (sa * sb).to_dense() == a * b
    assert sa.trace() == a.trace()
    c = random_matrix(rng, 16, 16, conductor=8)
    d = random_matrix(rng, 16, 16, conductor=12)
    sc, sd = SparseOperator.from_dense(c), SparseOperator.from_dense(d)
    assert (sc * sd).to_dense() == c * d
    assert sc.dagger().to_dense() == c.dagger()


def test_amplify_examples():
    f = flip_operator(2, 2)
    op = amplify(f, (2, 2, 2), 0, 2)
    assert op.dim == 8
    assert op.to_dense() == kron(f, ExactMatrix.identity(2))
    # acts trivially on factor 3
    assert amplify(ExactMatrix.identity(4), (2, 2, 2), 0, 2).is_identity()
    # middle slot of four factors
    op2 = amplify(f, (2, 2, 2, 2), 1, 3)
    dense = kron(kron(ExactMatrix.identity(2), f), ExactMatrix.identity(2))
    assert op2.to_dense() == dense


def test_gate_product_matches_dense_kron_oracle():
    # G_1 ... G_k against the dense product of I_pre (x) op (x) I_post
    inv_sqrt2 = (zeta(8) + zeta(8, 7)) / 2
    h = ExactMatrix.from_entries(2, 2, {(0, 0): inv_sqrt2, (0, 1): inv_sqrt2,
                                        (1, 0): inv_sqrt2, (1, 1): -inv_sqrt2})
    hh = kron(h, h)
    special = {
        2: [h],
        # a non-monomial R (the Hadamard-conjugated flip) and a pi with two
        # entries in every row
        4: [hh * flip_operator(2, 2) * hh.dagger(), kron(h, ExactMatrix.diag([1, zeta(4)]))],
    }
    rng = Lcg64(61)
    for dims in ((2, 2, 2), (1, 2, 2, 2), (2, 3, 2)):
        for _ in range(12):
            word = []
            dense = ExactMatrix.identity(prod(dims))
            for _ in range(rng.below(5)):
                start = rng.below(len(dims))
                stop = start + 1 + rng.below(len(dims) - start)
                pre, mid, post = (prod(dims[:start]), prod(dims[start:stop]),
                                  prod(dims[stop:]))
                choices = special.get(mid, []) + [
                    random_signed_permutation(rng, mid), random_matrix(rng, mid, mid, 8)]
                op = choices[rng.below(len(choices))]
                word.append((op, start, stop))
                dense = dense * kron(kron(ExactMatrix.identity(pre), op),
                                     ExactMatrix.identity(post))
            assert gate_product(dims, word).to_dense() == dense, (dims, word)


def random_phase_permutation(rng, n, conductor):
    """A permutation matrix whose entries are conductor-th roots of unity."""
    perm = rng.permutation_of(list(range(1, n + 1)))
    return ExactMatrix.from_entries(n, n, {(i, perm(i + 1) - 1): zeta(conductor, rng.below(conductor))
                                           for i in range(n)})


def test_gate_trace_matches_gate_product():
    # roots of unity of several conductors mix in one word on the engine;
    # words with a non-monomial gate or a non-unit entry run on the packed
    # group ring
    inv_sqrt2 = (zeta(8) + zeta(8, 7)) / 2
    h = ExactMatrix.from_entries(2, 2, {(0, 0): inv_sqrt2, (0, 1): inv_sqrt2,
                                        (1, 0): inv_sqrt2, (1, 1): -inv_sqrt2})
    hh = kron(h, h)
    special = {2: [h], 4: [hh * flip_operator(2, 2) * hh.dagger(),
                           kron(h, ExactMatrix.diag([1, zeta(4)])), ExactMatrix.diag([1, 1, 2, 1])]}
    rng = Lcg64(67)
    for dims in ((2, 2, 2), (1, 2, 2, 2), (2, 3, 2), (3, 2, 2, 2)):
        for _ in range(40):
            word = []
            for _ in range(rng.below(9)):
                start = rng.below(len(dims))
                stop = start + 1 + rng.below(len(dims) - start)
                mid = prod(dims[start:stop])
                if rng.below(8) == 0 and mid in special:
                    op = special[mid][rng.below(len(special[mid]))]
                else:
                    op = random_phase_permutation(rng, mid, (1, 2, 3, 4, 8, 12)[rng.below(6)])
                word.append((op, start, stop))
            assert gate_trace(dims, word) == gate_product(dims, word).trace(), (dims, word)


def test_first_differing_row_matches_gate_product():
    # a word against itself, with a gate and its inverse inserted (over a
    # conductor the word may lack, so the engines' exponent moduli differ),
    # or with one gate replaced; a non-monomial gate sends a pair to the
    # packed group ring
    inv_sqrt2 = (zeta(8) + zeta(8, 7)) / 2
    h = ExactMatrix.from_entries(2, 2, {(0, 0): inv_sqrt2, (0, 1): inv_sqrt2,
                                        (1, 0): inv_sqrt2, (1, 1): -inv_sqrt2})
    rng = Lcg64(71)
    outcomes = set()

    def random_gate(dims):
        start = rng.below(len(dims))
        stop = start + 1 + rng.below(len(dims) - start)
        mid = prod(dims[start:stop])
        if mid == 2 and rng.below(8) == 0:
            return h, start, stop
        return random_phase_permutation(rng, mid, (1, 2, 3, 4, 5, 12)[rng.below(6)]), start, stop

    for dims in ((2, 2, 2), (1, 2, 2, 2), (2, 3, 2)):
        for _ in range(60):
            lhs = [random_gate(dims) for _ in range(rng.below(6))]
            rhs = list(lhs)
            kind = rng.below(3)
            k = rng.below(len(rhs) + 1)
            if kind == 0:
                op, start, stop = random_gate(dims)
                rhs[k:k] = [(op, start, stop), (op.dagger(), start, stop)]
            elif kind == 1 and rhs:
                rhs[k - 1] = random_gate(dims)
            a, b = gate_product(dims, lhs).rows, gate_product(dims, rhs).rows
            expected = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)
            assert first_differing_row(dims, lhs, rhs) == expected, (dims, lhs, rhs)
            outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_amplify_dimension_check():
    with pytest.raises(DimensionMismatchError):
        amplify(ExactMatrix.identity(3), (2, 2, 2), 0, 2)


def test_matmul_type_dispatch():
    with pytest.raises(TypeError):
        ExactMatrix.identity(2) * SparseOperator.identity(2)


def test_first_differing_row_keeps_words_over_different_conductors_on_the_engine(monkeypatch):
    # monomial words whose entry conductors differ share one exponent
    # modulus, so they never leave the engine for the packed group ring;
    # the gate_product rows stay the oracle
    rng = Lcg64(73)
    pairs = ((1, 3), (3, 4), (4, 5), (2, 5), (12, 5), (3, 8))

    def random_gate(dims, conductor):
        start = rng.below(len(dims))
        stop = start + 1 + rng.below(len(dims) - start)
        return random_phase_permutation(rng, prod(dims[start:stop]), conductor), start, stop

    def modulus(word):
        return lcm(2, *(v.n for op, _, _ in word for row in op.data for v in row))

    cases = []
    for dims in ((2, 2, 2), (1, 2, 2, 2), (2, 3, 2)):
        for _ in range(60):
            cl, cr = pairs[rng.below(len(pairs))]
            lhs = [random_gate(dims, cl) for _ in range(1 + rng.below(5))]
            rhs = list(lhs)
            kind = rng.below(3)
            k = rng.below(len(rhs) + 1)
            if kind == 0:
                op, start, stop = random_gate(dims, cr)
                rhs[k:k] = [(op, start, stop), (op.dagger(), start, stop)]
            elif kind == 1:
                rhs[k - 1] = random_gate(dims, cr)
            else:
                rhs = [random_gate(dims, cr) for _ in range(1 + rng.below(5))]
            a, b = gate_product(dims, lhs).rows, gate_product(dims, rhs).rows
            cases.append((dims, lhs, rhs, next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)))
    products = []
    group_ring = matrix._group_ring
    monkeypatch.setattr(matrix, "_group_ring", lambda dims, words: products.append(1) or group_ring(dims, words))
    for dims, lhs, rhs, expected in cases:
        assert first_differing_row(dims, lhs, rhs) == expected, (dims, lhs, rhs)
    assert not products
    assert {expected is None for *_, expected in cases} == {True, False}
    assert sum(modulus(lhs) != modulus(rhs) for _, lhs, rhs, _ in cases) > 60


def test_from_dense_tells_unset_entries_by_identity():
    # zeros() fills with the one shared ZERO; any other zero is still dropped
    assert all(v is ZERO for row in ExactMatrix.zeros(3, 2).data for v in row)
    x = zeta(5) + Fraction(1, 3)
    zeros = [CycloScalar.from_rational(0), 1 + zeta(3) + zeta(3, 2), x - x]
    assert all(z.is_zero() and z is not ZERO for z in zeros)
    m = ExactMatrix.from_entries(3, 3, {(0, 0): 1, (0, 2): zeros[0], (1, 1): zeros[1],
                                        (2, 0): x, (2, 1): zeros[2]})
    assert SparseOperator.from_dense(m).rows == [[(0, CycloScalar.from_rational(1))], [], [(0, x)]]


def phased_rotation(x, y, h, p, q, r):
    """The unitary [[a, b], [-conj(b) r, conj(a) r]], a = p x/h and b = q y/h,
    for a Pythagorean triple (x, y, h) and roots of unity p, q, r."""
    a, b = scalar(p) * Fraction(x, h), scalar(q) * Fraction(y, h)
    return ExactMatrix.from_entries(2, 2, {(0, 0): a, (0, 1): b, (1, 0): -(b.conj() * r),
                                           (1, 1): a.conj() * r})


def group_ring_cases():
    """(label, dims, gates): non-monomial gates, each with its adjoint, to draw words from."""
    rot5 = phased_rotation(3, 4, 5, zeta(5), zeta(5, 2), zeta(5, 4))
    rot12 = phased_rotation(5, 12, 13, zeta(12), zeta(12, 7), zeta(12, 3))
    rot3 = phased_rotation(3, 4, 5, zeta(3), zeta(3, 2), zeta(3))
    rot17 = phased_rotation(8, 15, 17, zeta(4), 1, zeta(4, 3))
    rot17b = phased_rotation(8, 15, 17, 1, zeta(4), -1)
    square = rot17 * rot17b  # entries over 289, with negative coefficients
    a = Fraction(3, 5) + Fraction(4, 5) * zeta(4)
    phase = ExactMatrix.from_entries(2, 2, {(0, 1): a, (1, 0): a.conj()})
    flip = flip_operator(2, 2)
    projector = ExactMatrix.diag([1, 0])  # a row with no entry
    cases = [
        ("conductors 5 and 12", (2, 2, 2), [(rot5, 0, 1), (rot12, 1, 2), (kron(rot5, rot12), 1, 3),
                                            (flip, 0, 2)]),
        ("conductor 3", (2, 3, 2), [(rot3, 0, 1), (rot3, 2, 3), (kron(rot3, ExactMatrix.identity(3)), 0, 2)]),
        ("denominator 289", (2, 2, 2), [(square, 0, 1), (kron(square, rot17), 1, 3), (rot17, 2, 3)]),
        ("rational phase", (1, 2, 2), [(phase, 0, 2), (flip, 1, 3)]),
        ("singular", (2, 2), [(projector, 0, 1), (rot12, 1, 2)]),
    ]
    return [(label, dims, gates + [(op.dagger(), start, stop) for op, start, stop in gates])
            for label, dims, gates in cases]


def test_group_ring_matches_gate_product(monkeypatch):
    # seeded words of non-monomial gates: traces against gate_product(...).trace(),
    # and first differing rows against the gate_product rows, on a word against
    # itself with a gate and its adjoint inserted, or with one gate replaced
    calls = []
    group_ring = matrix._group_ring
    monkeypatch.setattr(matrix, "_group_ring", lambda dims, words: calls.append(1) or group_ring(dims, words))
    rng = Lcg64(101)
    assert any(v.den == 289 and min(v.nums) < 0 for op, _, _ in group_ring_cases()[2][2]
               for row in op.data for v in row)
    for label, dims, gates in group_ring_cases():
        outcomes = set()
        for _ in range(40):
            word = [gates[rng.below(len(gates))] for _ in range(1 + rng.below(7))]
            del calls[:]
            assert gate_trace(dims, word) == gate_product(dims, word).trace(), (label, word)
            on_engine = matrix._phase_permutation(dims, [matrix._sparse_gates(dims, word)]) is not None
            assert len(calls) == (not on_engine), (label, word)
            other = list(word)
            k = rng.below(len(other) + 1)
            if rng.below(2):
                op, start, stop = gates[rng.below(len(gates))]
                other[k:k] = [(op, start, stop), (op.dagger(), start, stop)]
            elif other:
                other[k - 1] = gates[rng.below(len(gates))]
            a, b = gate_product(dims, word).rows, gate_product(dims, other).rows
            expected = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)
            assert first_differing_row(dims, word, other) == expected, (label, word, other)
            outcomes.add(expected is None)
        assert outcomes == {True, False} or label == "singular", label


def test_group_ring_slots_run_past_64_bits():
    # (3+4i)/5 forty times: the slots hold 4 * 7^40, about 2^115, and the
    # product of the scales is 5^40; the word squares to the identity
    a = Fraction(3, 5) + Fraction(4, 5) * zeta(4)
    phase = ExactMatrix.from_entries(2, 2, {(0, 1): a, (1, 0): a.conj()})
    dims, word = (1, 2, 2), [(phase, 0, 2)] * 40
    (_,), (scale,), bits, m, _ = matrix._group_ring(dims, [matrix._sparse_gates(dims, word)])
    assert bits > 64 and scale == 5 ** 40 and m == 4
    assert gate_trace(dims, word) == gate_product(dims, word).trace() == 4
    assert first_differing_row(dims, word, []) is None
    assert first_differing_row(dims, word[1:], []) == 0


def test_group_ring_compares_rows_in_the_field():
    # H H^dagger is the identity written differently: its packed entries
    # differ from those of the identity (1 + g^(m/2) maps to 0), and the
    # field comparison still finds no differing row
    inv_sqrt2 = (zeta(8) + zeta(8, 7)) / 2
    h = ExactMatrix.from_entries(2, 2, {(0, 0): inv_sqrt2, (0, 1): inv_sqrt2,
                                        (1, 0): inv_sqrt2, (1, 1): -inv_sqrt2})
    dims = (2, 2, 2)
    word = [(h, 1, 2), (h.dagger(), 1, 2)]
    (x, _), (scale, _), bits, m, _ = matrix._group_ring(dims, [matrix._sparse_gates(dims, word), []])
    assert sorted(matrix._ring_product(dims, x, m * bits)[0]) != [(0, scale)]
    assert gate_trace(dims, word) == 8
    assert first_differing_row(dims, word, []) is None
    assert first_differing_row(dims, [], word) is None
    assert first_differing_row(dims, word + [(h, 0, 1)], [(h, 0, 1)]) is None
    assert first_differing_row(dims, word, [(h, 1, 2)]) == 0
