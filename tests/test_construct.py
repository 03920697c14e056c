from fractions import Fraction

import pytest

from ybw.construct import (
    _check_exchange_identity,
    block_rmatrix,
    block_thoma,
    build_couple,
    build_layout,
    certified_block_rmatrix,
    end_to_end_check,
)
from ybw.couple import certify_couple, character
from ybw.cyclo import CycloScalar
from ybw.errors import ExtendedREFailsError, NonIntegralBlocksError
from ybw.groups import CATALOG_NAMES, catalog_irreps, load_group
from ybw.hirai import is_yb_admissible, thoma_restriction, validate_params
from ybw.matrix import ExactMatrix, SparseOperator, amplify, flip_operator
from ybw.rmatrix import (
    ThomaParams,
    char_cycle,
    cycle_trace_sequence,
    extract_thoma,
    normal_form_from_thoma,
    scalar_rmatrix,
)
from ybw.rng import Lcg64
from ybw.wreath import WreathElement


def params_for(group_name, spec, mu=None):
    g = load_group(group_name)
    irreps = catalog_irreps(g)
    return validate_params(g, irreps, spec, mu or {})


def test_layout_z2_half_half():
    p = params_for("z2", {("triv", 0): [Fraction(1, 2)], ("chi1", 0): [Fraction(1, 2)]})
    layout = build_layout(p, 2)
    assert [(b.label, b.eps, b.dim_v, b.dim_w, b.offset) for b in layout.blocks] == [
        ("triv", 0, 1, 1, 0), ("chi1", 0, 1, 1, 1)]


def test_layout_s3_std():
    p = params_for("s3", {("std", 0): [Fraction(1)]})
    layout = build_layout(p, 2)
    assert [(b.dim_v, b.dim_w) for b in layout.blocks] == [(2, 1)]


def test_layout_s3_mixed():
    p = params_for("s3", {("triv", 0): [Fraction(1, 2)], ("std", 0): [Fraction(1, 2)]})
    layout = build_layout(p, 4)
    assert [(b.label, b.dim_v, b.dim_w) for b in layout.blocks] == [
        ("triv", 0 + 1, 2), ("std", 2, 1)]
    assert sum(b.size for b in layout.blocks) == 4


def test_layout_rejects_non_integral():
    p = params_for("s3", {("std", 0): [Fraction(1)]})
    with pytest.raises(NonIntegralBlocksError):
        build_layout(p, 3)


def test_build_rejects_parameters_that_are_not_admissible():
    p = params_for("z2", {("triv", 0): [Fraction(1, 2)]})
    for d in (None, 2):
        with pytest.raises(NonIntegralBlocksError, match="not admissible: mass_not_one"):
            build_couple(p, d)


def dense_block_rmatrix(dim_v, dim_w, eps):
    """The signed flip on (V (x) W)^(x 2) filled into a dense matrix entry
    by entry: the oracle for the rows that block_rmatrix writes."""
    size = dim_v * dim_w
    sign = 1 if eps == 0 else -1
    m = ExactMatrix.zeros(size * size, size * size)
    for a in range(dim_v):
        for b in range(dim_w):
            for c in range(dim_v):
                for e in range(dim_w):
                    src = (a * dim_w + b) * size + (c * dim_w + e)
                    dst = (c * dim_w + b) * size + (a * dim_w + e)
                    m.data[dst][src] = CycloScalar.from_rational(sign)
    return m


def test_block_rmatrix_smallest():
    assert block_rmatrix(1, 1, 0).to_dense() == ExactMatrix.identity(1)
    assert block_rmatrix(1, 2, 1).to_dense() == ExactMatrix.identity(4).scaled(-1)
    assert block_rmatrix(2, 1, 0).to_dense() == flip_operator(2, 2)


@pytest.mark.parametrize("dim_v", [1, 2, 3])
@pytest.mark.parametrize("dim_w", [1, 2, 3])
@pytest.mark.parametrize("eps", [0, 1])
def test_block_rmatrix_rows_match_dense_oracle(dim_v, dim_w, eps):
    assert block_rmatrix(dim_v, dim_w, eps) == SparseOperator.from_dense(
        dense_block_rmatrix(dim_v, dim_w, eps))


def forbid_dense_above(monkeypatch, limit):
    """Make ExactMatrix.zeros raise on more than ``limit`` entries.

    R on V (x) V is d^2 x d^2, but nothing on the build, certify and
    extract paths needs more than d x d (the partial trace T, pi images),
    so a dense zero matrix above d * d entries is a dense R."""
    zeros = ExactMatrix.zeros.__func__

    def checked(cls, rows, cols):
        if rows * cols > limit:
            raise AssertionError(f"dense {rows}x{cols} matrix built")
        return zeros(cls, rows, cols)

    monkeypatch.setattr(ExactMatrix, "zeros", classmethod(checked))


def test_normal_form_builds_and_extracts_without_dense_r(monkeypatch):
    t = ThomaParams.make([Fraction(32, 64), Fraction(16, 64)], [Fraction(16, 64)])
    forbid_dense_above(monkeypatch, 64 * 64)
    assert extract_thoma(normal_form_from_thoma(t, 64)) == t


def test_couple_builds_without_dense_block(monkeypatch):
    # s3_std: d = 2 and one block of size 2, whose dense form has 16 entries
    p = params_for("s3", {("std", 0): [Fraction(1)]})
    forbid_dense_above(monkeypatch, 2 * 2)
    couple, _ = build_couple(p)
    assert couple.d == 2 and extract_thoma(couple.r) == thoma_restriction(p)


def test_block_rmatrix_thoma():
    # dim_v = 1, eps = 1: chi(c_n) = (-1)^(n-1), so beta = (1)
    r = certified_block_rmatrix(1, 2, 1)
    for n in range(2, 6):
        assert char_cycle(r, n) == Fraction(-1) ** (n - 1)
    assert extract_thoma(r) == ThomaParams.make([], [1])
    # dim_v = 2, eps = 0, dW = 1: the flip, alpha = (1/2, 1/2)
    assert extract_thoma(certified_block_rmatrix(2, 1, 0)) == block_thoma(2, 0)


@pytest.mark.parametrize("dim_v", [1, 2, 3])
@pytest.mark.parametrize("dim_w", [1, 2])
@pytest.mark.parametrize("eps", [0, 1])
def test_block_rmatrix_uniform_weights(dim_v, dim_w, eps):
    r = certified_block_rmatrix(dim_v, dim_w, eps)
    assert extract_thoma(r) == block_thoma(dim_v, eps)


def test_build_trivial_group():
    p = params_for("trivial", {("triv", 0): [Fraction(1)]})
    couple, layout = build_couple(p)
    assert couple.d == 1
    assert couple.r.m == ExactMatrix.identity(1)
    g = WreathElement.identity(p.group)
    assert character(couple, g) == 1


def test_build_z2_half_half():
    p = params_for("z2", {("triv", 0): [Fraction(1, 2)], ("chi1", 0): [Fraction(1, 2)]})
    couple, _ = build_couple(p)
    assert couple.r.m == flip_operator(2, 2)
    assert couple.pi[1] == ExactMatrix.diag([1, -1])
    assert character(couple, WreathElement(p.group, {1: 1})) == 0


def test_build_s3_std():
    p = params_for("s3", {("std", 0): [Fraction(1)]})
    couple, _ = build_couple(p)
    assert couple.r.m == flip_operator(2, 2)
    for n in range(2, 6):
        assert char_cycle(couple.r, n) == 2 * Fraction(1, 2) ** n
    assert character(couple, WreathElement(p.group, {1: 3})) == Fraction(-1, 2)


def test_built_r_thoma_equals_restriction(corpus_couples):
    for name, (params, couple, _) in corpus_couples.items():
        assert extract_thoma(couple.r) == thoma_restriction(params), name


def test_built_r_equals_normal_form_for_abelian_sets(corpus_couples):
    # with one-dimensional irreps every block is a scalar block, and the
    # box-sum assembly coincides with the normal form in the same basis
    for name in ("z2_half_half.params.json", "z3_eps_mix.params.json"):
        params, couple, _ = corpus_couples[name]
        t = thoma_restriction(params)
        assert couple.r.m == normal_form_from_thoma(t, couple.d).m, name


def test_built_r_trace_sequence_matches_normal_form(corpus_couples):
    # in general the built R and the normal form share every cycle trace
    # (hence the Thoma parameters), although they can differ as operators
    for name, (params, couple, _) in corpus_couples.items():
        t = thoma_restriction(params)
        nf = normal_form_from_thoma(t, couple.d)
        n_max = 2 * couple.d + 1
        assert cycle_trace_sequence(couple.r, n_max) == cycle_trace_sequence(nf, n_max), name


def test_built_r_can_differ_from_normal_form_as_operator():
    # signed flip blocks of a higher-dimensional irrep: the built R is
    # -flip, which every permutation conjugation fixes, while the normal
    # form for beta = (1/2, 1/2) has +1 entries on the mixed block; the two
    # agree on every cycle trace but are not equal in any common basis
    p = params_for("s3", {("std", 1): [Fraction(1)]})
    couple, _ = build_couple(p)
    assert couple.r.m == flip_operator(2, 2).scaled(-1)
    t = thoma_restriction(p)
    assert t == ThomaParams.make([], [Fraction(1, 2), Fraction(1, 2)])
    nf = normal_form_from_thoma(t, 2)
    assert couple.r.m != nf.m
    assert extract_thoma(couple.r) == extract_thoma(nf) == t
    assert cycle_trace_sequence(couple.r, 5) == cycle_trace_sequence(nf, 5)


def dense_pi_images(p, layout):
    """pi(t) filled entry by entry into a dense matrix, irrep (x) identity
    on each block: the oracle of the builder's rows."""
    irreps = {rep.label: rep for rep in p.irreps}
    out = []
    for t in range(p.group.order):
        m = ExactMatrix.zeros(layout.d, layout.d)
        for b in layout.blocks:
            image = irreps[b.label].images[t].data
            for x in range(b.dim_v):
                for y in range(b.dim_v):
                    for k in range(b.dim_w):
                        m.data[b.offset + x * b.dim_w + k][b.offset + y * b.dim_w + k] = image[x][y]
        out.append(m)
    return tuple(out)


def test_built_pi_rows_match_the_dense_fill_and_recertify(corpus_params):
    # the rows the builder writes are the dense fill's, and certifying the
    # dense view reads back the same canonical rows; at twice the minimal d
    # two-dimensional irreps get multiplicity 2
    for name, params in corpus_params.items():
        d = is_yb_admissible(params).minimal_d
        for couple, layout in (build_couple(params, d), build_couple(params, 2 * d)):
            assert couple.pi == dense_pi_images(params, layout), (name, couple.d)
            again = certify_couple(params.group, couple.r, couple.pi, 1)
            assert again.pi_rows == couple.pi_rows, (name, couple.d)
            assert all(isinstance(s, SparseOperator) for s in again.pi_rows), name


def test_exchange_identity_dense_oracle(corpus_couples):
    # R (pi(t) (x) 1) R = 1 (x) pi(t), re-checked densely
    for name, (_, couple, _) in corpus_couples.items():
        d = couple.d
        eye = ExactMatrix.identity(d)
        for t in range(couple.group.order):
            lhs = couple.r.m * couple.pi[t].kron(eye) * couple.r.m
            assert lhs == eye.kron(couple.pi[t]), (name, t)


def test_exchange_identity_failure_is_typed():
    # R = identity on C^2 (x) C^2 certifies with pi(s) = diag(1, -1), but
    # R (pi(s) (x) 1) R = pi(s) (x) 1 differs from 1 (x) pi(s)
    g = load_group("z2")
    couple = certify_couple(g, scalar_rmatrix(2, +1),
                            [ExactMatrix.identity(2), ExactMatrix.diag([1, -1])], 1)
    with pytest.raises(ExtendedREFailsError, match="element 1"):
        _check_exchange_identity(couple)


def test_end_to_end_report():
    p = params_for("z2", {("triv", 0): [Fraction(1, 2)], ("chi1", 0): [Fraction(1, 2)]})
    rng = Lcg64(71)
    sample = [rng.wreath_element(p.group, 1, 4) for _ in range(25)]
    report = end_to_end_check(p, sample)
    assert report.ok and report.samples == 25
    assert report.thoma_built == report.thoma_expected
    # the report carries the couple it built and checked
    assert report.couple.d == 2 and extract_thoma(report.couple.r) == report.thoma_built


def test_end_to_end_with_d_override():
    p = params_for("z2", {("triv", 0): [Fraction(1, 2)], ("chi1", 0): [Fraction(1, 2)]})
    rng = Lcg64(73)
    sample = [rng.wreath_element(p.group, 1, 3) for _ in range(10)]
    report = end_to_end_check(p, sample, d=4)
    assert report.ok


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_every_catalog_group_builds_and_certifies(name):
    # one entry dim / (2 * sum of dims) per irrep and sign: total mass 1
    irreps = catalog_irreps(load_group(name))
    total = sum(rep.dim for rep in irreps)
    p = params_for(name, {(rep.label, eps): [Fraction(rep.dim, 2 * total)]
                          for rep in irreps for eps in (0, 1)})
    couple, layout = build_couple(p)
    assert couple.d == sum(b.size for b in layout.blocks)
    assert extract_thoma(couple.r) == thoma_restriction(p)


def test_end_to_end_over_no_samples_is_not_ok():
    p = params_for("z2", {("triv", 0): [Fraction(1, 2)], ("chi1", 0): [Fraction(1, 2)]})
    report = end_to_end_check(p, [])
    assert report.samples == 0 and report.thoma_ok and not report.char_mismatches
    assert not report.ok
