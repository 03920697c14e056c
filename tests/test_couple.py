import random
import re
import time
from fractions import Fraction

import pytest

from ybw.construct import build_couple
from ybw import couple as couple_module
from ybw.couple import (
    MAX_LEVEL,
    MAX_OPERATOR_DIM,
    _exchange_trace,
    _site_gate,
    _site_trace,
    _staircase_trace,
    certify_couple,
    character,
    exchange_identity_holds,
    gram_psd_check,
    rep_element,
    verify_extremality,
)
from ybw.cyclo import ONE, CycloScalar, scalar, zeta
from ybw.errors import (
    DimensionMismatchError,
    ExtendedREFailsError,
    NotHomomorphismError,
    NotUnitaryError,
    OperatorTooLargeError,
    SupportExceedsLevelError,
    SupportsNotDisjointError,
)
from ybw.groups import catalog_irreps, load_group
from ybw.hirai import closed_form_character, validate_params
from ybw import matrix
from ybw.matrix import (
    ExactMatrix,
    SparseOperator,
    amplify,
    first_differing_row,
    flip_operator,
    gate_product,
    gate_trace,
)
from ybw.perms import FinitePermutation
from ybw.rmatrix import boxplus, scalar_rmatrix, t_power, verify_rmatrix
from ybw.rng import Lcg64
from ybw.wreath import WreathElement


@pytest.fixture(scope="module")
def z2():
    return load_group("z2")


@pytest.fixture(scope="module")
def pm_couple(z2):
    """R = (+1) boxplus (-1) with pi(s) = diag(1, -1) on V, w = 1."""
    r = boxplus(scalar_rmatrix(1, +1), scalar_rmatrix(1, -1))
    pi = [ExactMatrix.identity(2), ExactMatrix.diag([1, -1])]
    return certify_couple(z2, r, pi, 1)


@pytest.fixture(scope="module")
def flip_couple(z2):
    """R = flip with pi(s) = diag(1, -1) on V, w = 1."""
    r = verify_rmatrix(flip_operator(2, 2), 2)
    pi = [ExactMatrix.identity(2), ExactMatrix.diag([1, -1])]
    return certify_couple(z2, r, pi, 1)


def test_trivial_pi_always_certifies(z2):
    r = verify_rmatrix(flip_operator(2, 2), 2)
    pi = [ExactMatrix.identity(2), ExactMatrix.identity(2)]
    certify_couple(z2, r, pi, 1)


def test_pm_couple_certifies(pm_couple):
    assert pm_couple.d == 2 and pm_couple.w == 1


def test_swap_pi_with_flip_r(z2):
    # flip R with the swap representation: the reflection equation holds
    # because F (X (x) 1) F = 1 (x) X, recorded from the dense oracle below
    r = verify_rmatrix(flip_operator(2, 2), 2)
    swap = ExactMatrix.from_entries(2, 2, {(0, 1): 1, (1, 0): 1})
    couple = certify_couple(z2, r, [ExactMatrix.identity(2), swap], 1)
    # dense oracle: both sides of the exchange identity on all 16 entries
    f = flip_operator(2, 2)
    left = f * swap.kron(ExactMatrix.identity(2)) * f
    assert left == ExactMatrix.identity(2).kron(swap)
    assert couple.d == 2


def test_non_unitary_pi_rejected(z2):
    r = verify_rmatrix(flip_operator(2, 2), 2)
    bad = [ExactMatrix.identity(2), ExactMatrix.diag([1, 2])]
    with pytest.raises(NotUnitaryError):
        certify_couple(z2, r, bad, 1)


def test_extended_re_violation_detected(z2):
    # pm R with the swap representation breaks the extended reflection equation
    r = boxplus(scalar_rmatrix(1, +1), scalar_rmatrix(1, -1))
    swap = ExactMatrix.from_entries(2, 2, {(0, 1): 1, (1, 0): 1})
    with pytest.raises(ExtendedREFailsError):
        certify_couple(z2, r, [ExactMatrix.identity(2), swap], 1)


def amplified_ere_failure(group, r, pi, w):
    """The first pair (t, u) on which R1 pi(t) R1 pi(u) = pi(u) R1 pi(t) R1
    fails as six products of amplified operators (criterion 5), or None."""
    dims = (w, r.d, r.d)
    r1 = amplify(r.m, dims, 1, 3)
    amp = [amplify(m, dims, 0, 2) for m in pi]
    for t in range(group.order):
        for u in range(group.order):
            if r1 * amp[t] * r1 * amp[u] != amp[u] * r1 * amp[t] * r1:
                return t, u
    return None


def seeded_cyclic_pi(rng, order, size):
    """pi(k) = P^k for a monomial unitary P with P^order = 1: cycles of
    length order and fixed points, with order-th roots of unity as phases."""
    roots = [zeta(order, k) for k in range(order)]
    points = rng.sample(range(size), size)
    entries = {}
    while points:
        if len(points) >= order and rng.random() < 0.6:
            cyc = [points.pop() for _ in range(order)]
            phases = [rng.choice(roots) for _ in cyc[1:]]
            last = roots[0]
            for v in phases:
                last = last * v.conj()
            for a, b, v in zip(cyc, cyc[1:] + cyc[:1], phases + [last]):
                entries[b, a] = v
        else:
            a = points.pop()
            entries[a, a] = rng.choice(roots)
    gen = ExactMatrix.from_entries(size, size, entries)
    pi = [ExactMatrix.identity(size)]
    for _ in range(order - 1):
        pi.append(pi[-1] * gen)
    return pi


def seeded_klein_pi(rng, size):
    """pi on klein4 from two commuting signed involutions: A diagonal, B
    swapping points on which A has the same sign."""
    signs = [rng.choice((1, -1)) for _ in range(size)]
    entries = {}
    for sign in (1, -1):
        points = [i for i in range(size) if signs[i] == sign]
        rng.shuffle(points)
        while points:
            a, v = points.pop(), rng.choice((1, -1))
            b = points.pop() if points and rng.random() < 0.7 else a
            entries[a, b] = entries[b, a] = v
    a, b = ExactMatrix.diag(signs), ExactMatrix.from_entries(size, size, entries)
    return [ExactMatrix.identity(size), a, b, a * b]


def test_certify_couple_names_the_pair_of_the_amplified_oracle():
    # the regrouped check X_t pi(u) = pi(u) X_t must fail on the same first
    # pair as the six-product sweep, or pass where it passes.  On a cyclic
    # group only (1, 1) can fail first; klein4 has two generators.
    rs = [verify_rmatrix(flip_operator(2, 2), 2), scalar_rmatrix(2, +1), scalar_rmatrix(2, -1),
          boxplus(scalar_rmatrix(1, +1), scalar_rmatrix(1, -1)),
          boxplus(scalar_rmatrix(1, -1), scalar_rmatrix(1, -1))]
    rng = random.Random(2408)
    outcomes = set()
    for name in ("z2", "z3", "klein4"):
        group = load_group(name)
        for _ in range(60):
            w, r = rng.choice((1, 2)), rng.choice(rs)
            if name == "klein4":
                pi = seeded_klein_pi(rng, w * r.d)
            else:
                pi = seeded_cyclic_pi(rng, group.order, w * r.d)
            expected = amplified_ere_failure(group, r, pi, w)
            # the same verdict and message from dense images and from rows
            for images in (pi, [SparseOperator.from_dense(m) for m in pi]):
                try:
                    certify_couple(group, r, images, w)
                    got = None
                except ExtendedREFailsError as exc:
                    got = str(exc)
                assert got == (expected and "extended reflection equation fails on the pair "
                                            f"({expected[0]},{expected[1]})"), (name, w, r.m.data)
            outcomes.add(expected)
    assert None in outcomes and len(outcomes) > 3


@pytest.mark.parametrize("dim, broken, witness", [
    (4, {1: [(2, ONE), (1, ONE)]}, "row 1 of pi(1) has column 1 out of order or outside 0..3"),
    (4, {1: [(1, ONE), (1, ONE)]}, "row 1 of pi(1) has column 1 out of order"),
    (4, {2: [(4, ONE)]}, "row 2 of pi(1) has column 4 out of order or outside 0..3"),
    (4, {3: [(-1, ONE)]}, "row 3 of pi(1) has column -1 out of order"),
    (4, {0: [(0, ONE), (2, scalar(0))]}, "row 0 of pi(1) holds a zero at column 2"),
    (4, {3: None}, "pi image of element 1 is 3x4, expected 4x4"),
    (9, {}, "pi image of element 1 is 9x9, expected 4x4"),
    # two halves in one column: pi(1) = [[1/2 + 1/2]] would pass every product
    (1, {0: [(0, scalar(Fraction(1, 2))), (0, scalar(Fraction(1, 2)))]},
     "row 0 of pi(1) has column 0 out of order"),
])
def test_certify_couple_rejects_pi_rows_out_of_canonical_form(z2, dim, broken, witness):
    # the cases verify_rmatrix refuses in R, on pi(1) of a couple with
    # w * d = 4 (or 1 for the last case)
    rows = [[(i, ONE)] for i in range(dim)]
    for i, row in broken.items():
        rows[i] = row
    d = 1 if dim == 1 else 2  # w = d
    pi = [SparseOperator.identity(d * d), SparseOperator(dim, [row for row in rows if row is not None])]
    with pytest.raises(DimensionMismatchError, match=re.escape(witness)):
        certify_couple(z2, scalar_rmatrix(d, +1), pi, d)


def block_unitary(layout):
    """A unitary on V acting on each builder block as A (x) 1: A rotates
    two-dimensional irrep factors by a Pythagorean angle with a phase, and
    puts a phase on the others.  Conjugating a built couple by it keeps R's
    rows monomial and gives pi rows of several entries."""
    b = Fraction(4, 5) * zeta(12)
    rot = {(0, 0): Fraction(3, 5), (0, 1): b, (1, 0): -b.conj(), (1, 1): Fraction(3, 5)}
    entries = {}
    for blk in layout.blocks:
        a = rot if blk.dim_v == 2 else {(x, x): zeta(12) for x in range(blk.dim_v)}
        for (x, y), v in a.items():
            for k in range(blk.dim_w):
                entries[blk.offset + x * blk.dim_w + k, blk.offset + y * blk.dim_w + k] = v
    return ExactMatrix.from_entries(layout.d, layout.d, entries)


def test_couples_certify_and_trace_without_dense_products(corpus_couples, monkeypatch):
    # pi is kept as rows: certification multiplies no dense matrices and
    # reads dense images into rows once, and no character reads a dense
    # image; on built couples from dense images and from rows, and on their
    # block-unitary conjugates
    cases = []
    for params, couple, layout in corpus_couples.values():
        u = block_unitary(layout)
        uu = u.kron(u)
        conjugated = verify_rmatrix(uu * couple.r.m * uu.dagger(), couple.d)
        cases += [(params, couple.r, couple.pi), (params, couple.r, couple.pi_rows),
                  (params, conjugated, [u * m * u.dagger() for m in couple.pi])]
    counts = {"from_dense": 0, "dense_mul": 0}
    from_dense, dense_mul = vars(SparseOperator)["from_dense"].__func__, ExactMatrix.__mul__

    def counted_from_dense(cls, m):
        counts["from_dense"] += 1
        return from_dense(cls, m)

    def counted_dense_mul(a, b):
        counts["dense_mul"] += 1
        return dense_mul(a, b)

    monkeypatch.setattr(SparseOperator, "from_dense", classmethod(counted_from_dense))
    monkeypatch.setattr(ExactMatrix, "__mul__", counted_dense_mul)
    rng = Lcg64(13)
    filled = 0
    for params, r, pi in cases:
        counts.update(from_dense=0, dense_mul=0)
        couple = certify_couple(params.group, r, pi, 1)
        dense = isinstance(pi[0], ExactMatrix)
        assert counts == {"from_dense": len(pi) if dense else 0, "dense_mul": 0}
        counts["from_dense"] = 0
        for _ in range(4):
            g = rng.wreath_element(params.group, 1, 3)
            assert character(couple, g) == closed_form_character(params, g)
        assert counts == {"from_dense": 0, "dense_mul": 0}
        filled += any(len(row) > 1 for s in couple.pi_rows for row in s.rows)
    assert filled >= 2  # the conjugates of the two-dimensional irreps


def all_pairs_couple_failure(group, r, pi, w):
    """The sweep certify_couple made over every pair of G x G before it
    checked generators only, kept as its oracle: the error class and the
    element or pair of the first failing certificate, or None."""
    for t, m in enumerate(pi):
        if not (m.dagger() * m).is_identity():
            return NotUnitaryError, t
    for a in range(group.order):
        for b in range(group.order):
            if pi[a] * pi[b] != pi[group.mul(a, b)]:
                return NotHomomorphismError, (a, b)
    for t in range(group.order):
        for u in range(group.order):
            if not ere_pair_holds(r, pi, w, t, u):
                return ExtendedREFailsError, (t, u)
    return None


def ere_pair_holds(r, pi, w, t, u):
    """X_t pi(u) = pi(u) X_t with X_t = R1 pi(t) R1, on one pair."""
    dims = (w, r.d, r.d)
    r1 = (r.sparse, 1, 3)
    x = gate_product(dims, [r1, (pi[t], 0, 2), r1])
    amp = amplify(pi[u], dims, 0, 2)
    return x * amp == amp * x


def seeded_built_couple(rng, group):
    """A built couple from one or two catalog entries of equal mass,
    conjugated by a seeded monomial unitary U on V: (U pi U^dagger,
    (U (x) U) R (U (x) U)^dagger) is a couple again."""
    irreps = catalog_irreps(group)
    keys = {(rng.choice(irreps).label, rng.choice((0, 1))) for _ in range(rng.choice((1, 2)))}
    params = validate_params(group, irreps, {k: [Fraction(1, len(keys))] for k in keys}, {})
    couple, _ = build_couple(params)
    d = couple.d
    u = seeded_monomial_unitary(rng, d)
    uu = u.kron(u)
    r = verify_rmatrix(uu * couple.r.m * uu.dagger(), d)
    return r, [u * m * u.dagger() for m in couple.pi]


def seeded_monomial_unitary(rng, d):
    return ExactMatrix.from_entries(d, d, {(i, j): zeta(4, rng.randrange(4))
                                           for j, i in enumerate(rng.sample(range(d), d))})


def seeded_sum_pi(rng, group, d):
    """U (rho_1 (+) rho_2 (+) ...) U^dagger for seeded catalog irreps rho_i
    of total dimension d, and U a Hadamard gate on two seeded coordinates
    between seeded monomial unitaries: a unitary representation, which
    need not form a couple with a given R."""
    irreps = catalog_irreps(group)
    blocks, size = [], 0
    while size < d:
        rep = rng.choice([rep for rep in irreps if rep.dim <= d - size])
        blocks.append((size, rep))
        size += rep.dim
    u = seeded_monomial_unitary(rng, d)
    if d > 1:
        half = (zeta(8) + zeta(8, 7)) / 2  # 1/sqrt(2)
        h = ExactMatrix.from_entries(d, d, {(0, 0): half, (0, 1): half, (1, 0): half,
                                            (1, 1): -half, **{(i, i): 1 for i in range(2, d)}})
        u = u * h * seeded_monomial_unitary(rng, d)
    pi = []
    for t in range(group.order):
        m = ExactMatrix.from_entries(d, d, {
            (at + i, at + j): v for at, rep in blocks
            for i, row in enumerate(rep.images[t].data) for j, v in enumerate(row)})
        pi.append(u * m * u.dagger())
    return pi


def test_certify_couple_agrees_with_the_all_pairs_oracle():
    # seeded couples and broken variants of them: the generator checks must
    # give the verdict and error class of the G x G sweep, and the pair they
    # name must fail under it
    rng = random.Random(2410)
    outcomes = set()
    for name in ("s3", "d4", "q8", "klein4", "z4", "z6"):
        group = load_group(name)
        gens = group.generators
        others = [t for t in range(1, group.order) if t not in gens]
        for _ in range(8):
            r, pi = seeded_built_couple(rng, group)
            d = r.d
            alien = rng.choice([scalar_rmatrix(d, 1), scalar_rmatrix(d, -1),
                                verify_rmatrix(flip_operator(d, d), d)])
            cases = [(r, pi), (alien, pi), (seeded_built_couple(rng, group)[0], pi),
                     (r, seeded_sum_pi(rng, group, d))]
            if len(others) >= 2:
                t, u = rng.sample(others, 2)
                swapped = list(pi)
                swapped[t], swapped[u] = pi[u], pi[t]
                cases.append((r, swapped))
            scaled = list(pi)
            t = rng.choice(others)
            scaled[t] = pi[t].scaled(zeta(12, rng.choice((3, 4, 6, 8, 9))))
            cases.append((r, scaled))
            cases.append((r, [pi[0].scaled(-1)] + pi[1:]))
            for r_case, pi_case in cases:
                if r_case.d != d:
                    continue
                expected = all_pairs_couple_failure(group, r_case, pi_case, 1)
                try:
                    certify_couple(group, r_case, pi_case, 1)
                    got = None
                except (NotHomomorphismError, ExtendedREFailsError) as exc:
                    got = type(exc)
                    a, b = map(int, re.findall(r"\d+", str(exc))[:2])
                    if got is ExtendedREFailsError:
                        assert a in gens and b in gens
                        assert not ere_pair_holds(r_case, pi_case, 1, a, b)
                    else:
                        assert b == 0 if a == 0 else b in gens
                        assert pi_case[a] * pi_case[b] != pi_case[group.mul(a, b)]
                assert got == (expected and expected[0]), (name, r_case.m.data)
                outcomes.add(got)
    assert outcomes == {None, NotHomomorphismError, ExtendedREFailsError}


def test_certify_couple_checks_the_identity_image_of_the_trivial_group():
    # the trivial group has no generators, so no pair of G x S is left: the
    # pair (0, 0) alone must reject pi(0) = -1
    trivial = load_group("trivial")
    assert trivial.generators == ()
    r = scalar_rmatrix(1, 1)
    certify_couple(trivial, r, [ExactMatrix.identity(1)], 1)
    with pytest.raises(NotHomomorphismError, match=r"^pi\(0\) pi\(0\) != pi\(0\*0\)$"):
        certify_couple(trivial, r, [ExactMatrix.diag([-1])], 1)


def test_rep_identity(pm_couple, z2):
    op = rep_element(pm_couple, WreathElement.identity(z2), 3)
    assert op.is_identity()


def test_rep_pure_permutation(pm_couple, z2):
    g = WreathElement(z2, {}, FinitePermutation.transposition(1, 2))
    op = rep_element(pm_couple, g, 2)
    assert op.to_dense() == pm_couple.r.m


def test_rep_color_at_second_position_matches_dense_oracle(pm_couple, z2):
    g = WreathElement(z2, {2: 1})
    op = rep_element(pm_couple, g, 2)
    r = pm_couple.r.m
    pi1 = pm_couple.pi[1].kron(ExactMatrix.identity(2))
    assert op.to_dense() == r * pi1 * r


def test_rep_factorizes_through_color_and_perm_parts(pm_couple, z2):
    # the image of (d, sigma) is the image of (d, id) times the image of (1, sigma)
    rng = Lcg64(29)
    for _ in range(20):
        g = rng.wreath_element(z2, 1, 4)
        colors_only = WreathElement(z2, dict(g.colors))
        perm_only = WreathElement(z2, {}, g.perm)
        assert g == colors_only * perm_only
        lhs = rep_element(pm_couple, g, 4)
        rhs = rep_element(pm_couple, colors_only, 4) * rep_element(pm_couple, perm_only, 4)
        assert lhs == rhs


def test_ere_on_generators_agrees_with_full_sweep(z2):
    # checking the reflection equation on a generating set agrees with the
    # full sweep over all pairs, on both a passing and a failing couple
    from ybw.matrix import amplify
    from ybw.rmatrix import boxplus, scalar_rmatrix

    def ere_holds(r, pi, pairs):
        dims = (1, 2, 2)
        r1 = amplify(r.m, dims, 1, 3)
        amp = [amplify(m, dims, 0, 2) for m in pi]
        return all(r1 * amp[t] * r1 * amp[u] == amp[u] * r1 * amp[t] * r1
                   for t, u in pairs)

    gen_pairs = [(1, 1)]
    all_pairs = [(t, u) for t in range(2) for u in range(2)]
    good_r = boxplus(scalar_rmatrix(1, +1), scalar_rmatrix(1, -1))
    good_pi = [ExactMatrix.identity(2), ExactMatrix.diag([1, -1])]
    assert ere_holds(good_r, good_pi, gen_pairs) == ere_holds(good_r, good_pi, all_pairs) == True
    swap = ExactMatrix.from_entries(2, 2, {(0, 1): 1, (1, 0): 1})
    bad_pi = [ExactMatrix.identity(2), swap]
    assert ere_holds(good_r, bad_pi, gen_pairs) == ere_holds(good_r, bad_pi, all_pairs) == False


def test_rep_multiplicative(pm_couple, z2):
    rng = Lcg64(31)
    for _ in range(25):
        a = rng.wreath_element(z2, 1, 4)
        b = rng.wreath_element(z2, 1, 4)
        lhs = rep_element(pm_couple, a * b, 4)
        rhs = rep_element(pm_couple, a, 4) * rep_element(pm_couple, b, 4)
        assert lhs == rhs


def test_rep_support_check(pm_couple, z2):
    with pytest.raises(SupportExceedsLevelError):
        rep_element(pm_couple, WreathElement(z2, {4: 1}), 3)


def test_rep_element_rejects_an_image_above_the_limit(pm_couple, z2):
    # d = 2, w = 1: level 16 is exactly the limit, level 17 is above it
    assert MAX_OPERATOR_DIM == 2 ** 16
    assert rep_element(pm_couple, WreathElement.identity(z2), 16).dim == 2 ** 16
    for n in (17, 40, 10 ** 9):  # 2^(10^9) must not be formed
        with pytest.raises(OperatorTooLargeError,
                           match=rf"w\*d\^n = 1\*2\^{n}, above the limit MAX_OPERATOR_DIM = 65536"):
            rep_element(pm_couple, WreathElement(z2, {n: 1}), n)
    # a character is evaluated on |supp g| factors, wherever the support sits
    with pytest.raises(OperatorTooLargeError, match=r"w\*d\^n = 1\*2\^17, above the limit"):
        character(pm_couple, WreathElement(z2, {p: 1 for p in range(100, 117)}))


def test_a_one_dimensional_couple_refuses_a_level_above_the_limit(z2):
    # at d = 1 the dimension w never passes MAX_OPERATOR_DIM while the word
    # grows as n^2 gates, so the level is bounded by the one d = 2 reaches
    c = certify_couple(z2, scalar_rmatrix(1, +1), [ExactMatrix.identity(1), ExactMatrix.diag([-1])], 1)
    assert MAX_LEVEL == 16 and 2 ** MAX_LEVEL == MAX_OPERATOR_DIM
    assert character(c, WreathElement(z2, {p: 1 for p in range(1, 17)})) == 1
    assert rep_element(c, WreathElement(z2, {16: 1}), 16).trace() == -1
    g = WreathElement(z2, {p: 1 for p in range(1, 5001)})
    start = time.perf_counter()
    with pytest.raises(OperatorTooLargeError, match=r"level n = 5000, above the limit MAX_LEVEL = 16"):
        character(c, g)
    with pytest.raises(OperatorTooLargeError, match=r"level n = 5000, above the limit MAX_LEVEL = 16"):
        rep_element(c, g, 5000)
    assert time.perf_counter() - start < 1


def test_character_does_not_depend_on_where_the_support_sits(pm_couple, flip_couple,
                                                              corpus_couples, z2):
    for c in (pm_couple, flip_couple):
        for p in (2, 40, 10 ** 9):
            assert character(c, WreathElement(z2, {p: 1})) == character(c, WreathElement(z2, {1: 1}))
    for _, c, _ in corpus_couples.values():
        for t in range(c.group.order):
            assert character(c, WreathElement(c.group, {40: t})) == \
                character(c, WreathElement(c.group, {1: t}))


def test_character_identity(pm_couple, z2):
    assert character(pm_couple, WreathElement.identity(z2)) == 1


def test_character_single_color(pm_couple, z2):
    assert character(pm_couple, WreathElement(z2, {1: 1})) == 0


def test_character_colored_transposition_both_couples(pm_couple, flip_couple, z2):
    # same element, two couples: values derived from the dense trace oracle
    g = WreathElement(z2, {1: 1, 2: 1}, FinitePermutation.transposition(1, 2))
    assert character(pm_couple, g) == 0
    assert character(flip_couple, g) == Fraction(1, 2)


def test_truncation_independence(pm_couple, z2):
    rng = Lcg64(37)
    for _ in range(50):
        g = rng.wreath_element(z2, 1, 3)
        n = max(g.max_support(), 1)
        base = character(pm_couple, g)
        for extra in (1, 2):
            op = rep_element(pm_couple, g, n + extra)
            value = op.trace() / (pm_couple.w * pm_couple.d ** (n + extra))
            assert value == base


def test_centrality(pm_couple, z2, corpus_couples, differential_couples):
    rng = Lcg64(41)
    for _ in range(40):
        g = rng.wreath_element(z2, 1, 5)
        h = rng.wreath_element(z2, 1, 5)
        assert character(pm_couple, h * g * h.inverse()) == character(pm_couple, g)
    # non-abelian colors, where the compact form's one color per cycle is
    # the cycle's color product only up to conjugacy; the rotated couple is
    # not monomial
    couples = [corpus_couples[name][1] for name in ("s3_std.params.json", "q8_2dim.params.json")]
    couples.append(differential_couples["s3_std.params.json rotated"][0])
    rng = Lcg64(43)
    for c in couples:
        for _ in range(20):
            g = rng.wreath_element(c.group, 1, 4)
            h = rng.wreath_element(c.group, 1, 6)
            assert character(c, h * g * h.inverse()) == character(c, g), (c, g, h)


def test_char_of_inverse_is_conjugate(pm_couple, z2):
    rng = Lcg64(43)
    for _ in range(30):
        g = rng.wreath_element(z2, 1, 4)
        assert character(pm_couple, g.inverse()) == character(pm_couple, g).conj()


def test_extremality_report(pm_couple, z2):
    pairs = [(WreathElement.identity(z2), WreathElement(z2, {1: 1}))]
    rng = Lcg64(47)
    for _ in range(20):
        pairs.append(rng.disjoint_pair(z2))
    report = verify_extremality(pm_couple, pairs)
    assert report.ok and report.pairs_checked == 21


def test_extremality_rejects_overlap(pm_couple, z2):
    g = WreathElement(z2, {1: 1})
    with pytest.raises(SupportsNotDisjointError):
        verify_extremality(pm_couple, [(g, g)])


def test_gram_two_elements(pm_couple, z2):
    report = gram_psd_check(pm_couple, [WreathElement.identity(z2), WreathElement(z2, {1: 1})])
    assert report.hermitian and report.ok
    # the two characters are orthonormal here: gram = identity
    assert report.min_eigenvalue > 1 - 1e-9


def test_gram_random_eight(pm_couple, z2):
    rng = Lcg64(53)
    elems = [rng.wreath_element(z2, 1, 4) for _ in range(8)]
    report = gram_psd_check(pm_couple, elems)
    assert report.hermitian
    assert report.min_eigenvalue >= -1e-9


def wider_couple(z2):
    """w = 2: pi acts on W (x) V with a flipped sign pattern on the W copies."""
    r = verify_rmatrix(flip_operator(2, 2), 2)
    return certify_couple(z2, r, [ExactMatrix.identity(4), ExactMatrix.diag([1, -1, 1, -1])], 2)


def test_wider_ambient_space(z2):
    couple = wider_couple(z2)
    r, pi_s = couple.r, couple.pi[1]
    assert character(couple, WreathElement.identity(z2)) == 1
    assert character(couple, WreathElement(z2, {1: 1})) == 0
    # a colored transposition lifts the permutation to W (x) V (x) V: dense
    # oracle with pi(s) on slots 1-2 and R on slots 2-3 of the layout (2, 2, 2)
    g = WreathElement(z2, {1: 1, 2: 1}, FinitePermutation.transposition(1, 2))
    eye = ExactMatrix.identity(2)
    pi1 = pi_s.kron(eye)
    r1 = eye.kron(r.m)
    dense = pi1 * (r1 * pi1 * r1) * r1
    assert rep_element(couple, g, 2).to_dense() == dense
    assert character(couple, g) == Fraction(1, 2) == dense.trace() / 8


def conjugated_couple(c, u):
    """(U pi U^dagger, (U (x) U) R (U (x) U)^dagger), with U acting on V: a
    couple again, whose rows need not stay monomial."""
    uu = u.kron(u)
    wu = ExactMatrix.identity(c.w).kron(u)
    r = verify_rmatrix(uu * c.r.m * uu.dagger(), c.d)
    return certify_couple(c.group, r, [wu * m * wu.dagger() for m in c.pi], c.w)


@pytest.fixture(scope="module")
def differential_couples(z2, pm_couple, flip_couple, corpus_couples):
    """Couples by label, with whether all their gates are monomial with
    root-of-unity entries and the largest image dimension to test them at."""
    out = {name: (c, True, 128) for name, (_, c, _) in corpus_couples.items()}
    out.update(pm=(pm_couple, True, 128), flip=(flip_couple, True, 128),
               w2=(wider_couple(z2), True, 128))
    # the benchmark's block unitary on one block: a rotation with a phase
    b = Fraction(4, 5) * zeta(12)
    rot = ExactMatrix.from_entries(2, 2, {(0, 0): Fraction(3, 5), (0, 1): b,
                                          (1, 0): -b.conj(), (1, 1): Fraction(3, 5)})
    for name in ("z2_half_half.params.json", "s3_std.params.json"):
        out[f"{name} rotated"] = (conjugated_couple(corpus_couples[name][1], rot), False, 128)
    # the Hadamard-conjugated pm R is not monomial: its images fill whole rows
    h = ExactMatrix.from_entries(2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1})
    h = h.scaled((zeta(8) + zeta(8, 7)) / 2)
    out["pm hadamard"] = (conjugated_couple(pm_couple, h), False, 16)
    # monomial, but (3+4i)/5 is not a root of unity
    a = Fraction(3, 5) + Fraction(4, 5) * zeta(4)
    pi_s = ExactMatrix.from_entries(2, 2, {(0, 1): a, (1, 0): a.conj()})
    out["rational phase"] = (certify_couple(z2, flip_couple.r, [ExactMatrix.identity(2), pi_s], 1),
                             False, 128)
    # identity R lacks the exchange identity, so dropping the staircases of
    # the reduced word fails on it; controlled-X (w = 2) satisfies it
    out["identity R"] = (identity_r_couple(z2), True, 128)
    cx = ExactMatrix.from_entries(4, 4, {(0, 0): 1, (1, 1): 1, (2, 3): 1, (3, 2): 1})
    out["controlled-X"] = (certify_couple(z2, flip_couple.r, [ExactMatrix.identity(4), cx], 2), True, 128)
    return out


def identity_r_couple(z2):
    """R = 1 on C^2 (x) C^2 with pi(s) = diag(1, -1), w = 1: certified, and
    its T = 2 commutes with everything, yet the staircases matter."""
    return certify_couple(z2, scalar_rmatrix(2, +1), [ExactMatrix.identity(2), ExactMatrix.diag([1, -1])], 1)


def top_level(c, dim):
    """The largest level n >= 1 with w * d^n <= dim."""
    n = 1
    while c.w * c.d ** (n + 1) <= dim:
        n += 1
    return n


def test_gate_trace_matches_gate_product_on_couple_words(differential_couples, monkeypatch):
    # seeded words of R and pi gates; monomial words never reach the packed
    # group-ring evaluator, and the other words do
    built = []
    group_ring = matrix._group_ring
    monkeypatch.setattr(matrix, "_group_ring", lambda dims, words: built.append(1) or group_ring(dims, words))
    rng = Lcg64(83)
    for label, (c, monomial, dim) in differential_couples.items():
        n = top_level(c, dim)
        gates = [(c.r.m, j, j + 2) for j in range(1, n)] + [(m, 0, 2) for m in c.pi]
        fallbacks = 0
        for _ in range(25):
            word = [gates[rng.below(len(gates))] for _ in range(rng.below(14))]
            del built[:]
            assert gate_trace(c.layout(n), word) == gate_product(c.layout(n), word).trace(), \
                (label, word)
            fallbacks += len(built)
        assert (fallbacks == 0) if monomial else (fallbacks > 0), label


def test_character_matches_the_literal_trace(differential_couples):
    # the compact conjugate on the engine against rep_element at max(supp)
    rng = Lcg64(89)
    checked = 0
    for label, (c, _, dim) in differential_couples.items():
        top = top_level(c, dim)
        for _ in range(90):
            lo = 1 + rng.below(top)
            g = rng.wreath_element(c.group, lo, lo + rng.below(top - lo + 1))
            n = max(g.max_support(), 1)
            literal = rep_element(c, g, n).trace() / (c.w * c.d ** n)
            assert character(c, g) == literal, (label, g)
            checked += 1
    assert checked >= 1000


def fresh(c):
    """c certified again from its rows: the same couple with empty memos."""
    return certify_couple(c.group, c.r, c.pi_rows, c.w)


def embedded(g, n, rnd):
    """g with its support moved in order onto random positions of 1..n,
    next to a random uncolored permutation of the other positions: an
    element with the same colored cycles in the same order, so the same
    reduced word, and other uncolored cycles."""
    support = g.support()
    places = sorted(rnd.sample(range(1, n + 1), len(support)))
    move = dict(zip(support, places))
    rest = [p for p in range(1, n + 1) if p not in places]
    shuffled = rnd.sample(rest, len(rest))
    perm = {move[p]: move[q] for p, q in g.perm.map.items()}
    perm.update(zip(rest, shuffled))
    return WreathElement(g.group, {move[p]: t for p, t in g.colors.items()},
                         FinitePermutation(perm))


def test_the_word_memo_agrees_cold_and_warm_with_the_literal_trace(differential_couples,
                                                                    corpus_couples):
    # many elements share a reduced word; each value, on a fresh couple and
    # again on its filled memo, equals the literal trace of rep_element
    rng, rnd = Lcg64(139), random.Random(139)
    for label, (c, _, dim) in differential_couples.items():
        cold, top = fresh(c), top_level(c, dim)
        elements = []
        for _ in range(6):
            g = rng.wreath_element(c.group, 1, 1 + rng.below(top))
            elements += [g] + [embedded(g, max(len(g.support()), rnd.randint(1, top)), rnd)
                               for _ in range(5)]
        first = [character(cold, g) for g in elements]
        assert len(cold._word_traces) <= 6, label
        for g, value in zip(elements, first):
            n = max(g.max_support(), 1)
            literal = rep_element(c, g, n).trace() / (c.w * c.d ** n)
            assert value == literal == character(cold, g), (label, g)
    # on the corpus, supports far past the literal limit against the closed form
    for name, (params, c, _) in corpus_couples.items():
        cold = fresh(c)
        for _ in range(8):
            g = rng.wreath_element(c.group, 1, 1 + rng.below(4))
            for h in [g] + [embedded(g, rnd.randint(len(g.support()), 14), rnd) for _ in range(4)]:
                want = closed_form_character(params, h)
                assert character(cold, h) == want == character(cold, h), (name, h)
        assert len(cold._word_traces) <= 8, name


def test_build_and_certify_leave_the_word_memo_empty(corpus_params, differential_couples):
    for params in corpus_params.values():
        assert build_couple(params)[0]._word_traces == {}
    for label, (c, _, _) in differential_couples.items():
        assert fresh(c)._word_traces == {}, label


def test_couples_with_the_same_sites_and_other_r_share_no_trace(pm_couple, z2):
    # pm and the identity R have the same w, d and pi, so the same sites;
    # each memo holds its own couple's traces
    pm, ident = fresh(pm_couple), identity_r_couple(z2)
    rng = Lcg64(149)
    for _ in range(40):
        g = rng.wreath_element(z2, 1, 4)
        n = max(g.max_support(), 1)
        for c in (pm, ident):
            assert character(c, g) == rep_element(c, g, n).trace() / 2 ** n, g
    shared = pm._word_traces.keys() & ident._word_traces.keys()
    assert pm._word_traces is not ident._word_traces
    assert any(pm._word_traces[k] != ident._word_traces[k] for k in shared)


def test_the_limits_come_before_the_word_memo(pm_couple, z2):
    # an empty memo and one holding the very key raise the same error
    d1 = certify_couple(z2, scalar_rmatrix(1, +1), [ExactMatrix.identity(1), ExactMatrix.diag([-1])], 1)
    for c, message in ((pm_couple, r"w\*d\^n = 1\*2\^17, above the limit MAX_OPERATOR_DIM"),
                       (d1, r"level n = 17, above the limit MAX_LEVEL = 16")):
        c = fresh(c)
        g = WreathElement(z2, {p: 1 for p in range(1, 18)})
        errors = []
        for planted in (False, True):
            if planted:
                for k in range(1, 9):
                    character(c, WreathElement(z2, {p: 1 for p in range(1, k + 1)}))
                c._word_traces[((1, 1),) * 17] = ONE
            with pytest.raises(OperatorTooLargeError, match=message) as info:
                character(c, g)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


def test_character_and_literal_trace_print_alike_across_conductors():
    # pi(t) = diag(zeta_3, zeta_3^2) with the i-twisted flip of signs
    # (+1, -1): the engine's root sum keeps conductor 12, while the literal
    # trace drops to conductor 3 when i cancels, so equal values reach the
    # printer in different conductors
    z3 = load_group("z3")
    q = [[1, zeta(4)], [zeta(4, 3), -1]]
    r = verify_rmatrix(ExactMatrix.from_entries(4, 4, {(j * 2 + i, i * 2 + j): q[i][j]
                                                       for i in range(2) for j in range(2)}), 2)
    couple = certify_couple(z3, r, [ExactMatrix.identity(2), ExactMatrix.diag([zeta(3), zeta(3, 2)]),
                                    ExactMatrix.diag([zeta(3, 2), zeta(3)])], 1)
    rng = Lcg64(97)
    mixed = 0
    for _ in range(300):
        lo = 1 + rng.below(5)
        g = rng.wreath_element(z3, lo, lo + rng.below(6 - lo))
        n = max(g.max_support(), 1)
        value = character(couple, g)
        literal = rep_element(couple, g, n).trace() / (couple.w * couple.d ** n)
        assert value == literal and str(value) == str(literal), g
        mixed += value.n != literal.n
    assert mixed > 0


def test_checks_over_nothing_are_not_ok(pm_couple):
    # an empty sample checks nothing, so it must not read as a pass
    report = verify_extremality(pm_couple, [])
    assert report.pairs_checked == 0 and not report.failures and not report.ok
    report = gram_psd_check(pm_couple, [])
    assert report.size == 0 and report.hermitian and not report.ok


def test_the_staircases_of_the_reduced_word_matter(z2):
    # s at 1 and s at 2 on the identity R: the literal trace is 1, while
    # tr_W(prod_j Tr_V M_j) / (w d^n) = tr(diag(1, -1))^2 / 4 = 0
    c = identity_r_couple(z2)
    g = WreathElement(z2, {1: 1, 2: 1})
    assert character(c, g) == 1 == rep_element(c, g, 2).trace() / 4
    assert c.pi_rows[1].trace() == 0


def test_t_moves_through_r_on_every_differential_r(differential_couples):
    # (T (x) 1) R = R (1 (x) T), which the reduced word's proof rests on
    for label, (c, _, _) in differential_couples.items():
        t, eye, r = t_power(c.r, 1).to_dense(), ExactMatrix.identity(c.d), c.r.m
        assert t.kron(eye) * r == r * eye.kron(t), label


def long_element(rng, group, size):
    """Colors on the moved points of a random permutation of 1..size; the
    few cycles keep the reduced word small whatever the support."""
    perm = rng.permutation_of(list(range(1, size + 1)))
    return WreathElement(group, {p: rng.below(group.order) for p in perm.map}, perm)


def test_characters_on_supports_of_twenty_and_more(corpus_couples):
    # the literal level |supp| would ask for d^20 and more
    rng = Lcg64(131)
    for name, (params, c, _) in corpus_couples.items():
        checked = 0
        while checked < 6:
            g = long_element(rng, params.group, 20 + rng.below(6))
            if len(g.support()) < 20:
                continue
            assert character(c, g) == closed_form_character(params, g), (name, g)
            checked += 1
    # q8: colored 5-cycles of colors 3, 5 and 2 and an uncolored 7-cycle
    params, c, _ = corpus_couples["q8_2dim.params.json"]
    cycles = [range(1, 6), range(6, 11), range(11, 16), range(16, 23)]
    g = WreathElement(params.group, {1: 3, 6: 5, 11: 2}, FinitePermutation.from_cycles(cycles))
    assert len(g.support()) == 22
    assert character(c, g) == closed_form_character(params, g)
    with pytest.raises(OperatorTooLargeError, match=r"w\*d\^n = 1\*4\^22"):
        rep_element(c, g, 22)


def test_weighted_monomial_words_stay_on_the_engine(differential_couples, monkeypatch):
    # words of R, pi and gates c zeta^e with integers c >= 1 (pi(t) times an
    # integer diagonal, and the sites M(t, L) of the reduced word) against
    # gate_product; no such word reaches the packed group ring, and words
    # that differ only in a weight differ in first_differing_row
    built = []
    group_ring = matrix._group_ring
    monkeypatch.setattr(matrix, "_group_ring", lambda dims, words: built.append(1) or group_ring(dims, words))
    rng = Lcg64(137)
    weighted_words = 0
    for label, (c, monomial, dim) in differential_couples.items():
        if not monomial:
            continue
        n = top_level(c, dim)
        weights = [scalar(1 + rng.below(3)) * (1 - 2 * rng.below(2)) for _ in range(c.w * c.d)]
        diag = SparseOperator(c.w * c.d, [[(i, v)] for i, v in enumerate(weights)])
        weighted = [c.pi_rows[t] * diag for t in range(c.group.order)]
        weighted += [_site_gate(c, t, 2 + rng.below(4)) for t in range(c.group.order)]
        gates = [(c.r.sparse, j, j + 2) for j in range(1, n)] + [(m, 0, 2) for m in c.pi_rows + tuple(weighted)]
        for _ in range(25):
            word = [gates[rng.below(len(gates))] for _ in range(1 + rng.below(12))]
            del built[:]
            assert gate_trace(c.layout(n), word) == gate_product(c.layout(n), word).trace(), (label, word)
            k = rng.below(len(word))
            op, start, stop = word[k]
            other = word[:k] + [(op * SparseOperator(op.dim, [[(i, scalar(2))] for i in range(op.dim)]),
                                 start, stop)] + word[k + 1:]
            assert first_differing_row(c.layout(n), word, other) == 0, (label, word)
            assert not built, label
            weighted_words += any(m in weighted for m, _, _ in word)
    assert weighted_words > 50


def equal_cycles(group, counts, colored=()):
    """counts[L] uncolored L-cycles, then one cycle (a fixed point for
    L = 1) colored t at its first point for each (t, L) in colored, on
    consecutive positions from 1."""
    cycles, colors, start = [], {}, 1
    for length, count in counts.items():
        for _ in range(count):
            cycles.append(range(start, start + length))
            start += length
    for t, length in colored:
        colors[start] = t
        if length > 1:
            cycles.append(range(start, start + length))
        start += length
    return WreathElement(group, colors, FinitePermutation.from_cycles(cycles))


def test_equal_uncolored_cycles_cost_a_logarithmic_number_of_products(corpus_couples, monkeypatch):
    # tr(T^(L-1)) is raised to its count: one product per cycle made 200,000
    # uncolored 2-cycles take 14.7 s in `ybw char`
    _, c, _ = corpus_couples["z2_half_half.params.json"]
    character(c, equal_cycles(c.group, {2: 1}))  # every memo warm
    calls = []
    mul = CycloScalar.__mul__
    monkeypatch.setattr(CycloScalar, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for count in (2_000, 20_000):
        g = equal_cycles(c.group, {2: count})
        del calls[:]
        value = character(c, g)
        assert len(calls) <= 3 * count.bit_length(), (count, len(calls))
        assert value == (t_power(c.r, 1).trace() / c.d ** 2) ** count


def test_many_equal_cycles_next_to_colored_ones_match_the_closed_form(corpus_couples):
    colored = [(1, 1), (1, 2), (2, 3), (3, 2)]
    for name, (params, c, _) in corpus_couples.items():
        sites = [(t % params.group.order, length) for t, length in colored]
        g = equal_cycles(params.group, {2: 300, 3: 100, 5: 7}, [s for s in sites if s[0]])
        assert character(c, g) == closed_form_character(params, g), name


def test_characters_build_no_wreath_element_or_permutation(corpus_couples, monkeypatch):
    # both characters read wreath.colored_cycles, so with every memo warm
    # neither constructs a conjugate of the element
    rng = Lcg64(151)
    cases = [(params, c, [rng.wreath_element(params.group, 1, 1 + rng.below(8)) for _ in range(20)])
             for params, c, _ in corpus_couples.values()]
    for params, c, elements in cases:
        for g in elements:
            character(c, g), closed_form_character(params, g)
    built = []
    for cls in (WreathElement, FinitePermutation):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _init=init, _cls=cls, **k:
                            built.append(_cls.__name__) or _init(self, *a, **k))
    for params, c, elements in cases:
        for g in elements:
            assert character(c, g) == closed_form_character(params, g), g
    assert built == []


def exchange_identity_on_every_element(c):
    """R_12 pi(t)_01 R_12 = pi(t)_02 on every group element, on dense
    matrices: pi(t)_02 is pi(t)_01 conjugated by the flip of the V factors."""
    eye_w, eye_v = ExactMatrix.identity(c.w), ExactMatrix.identity(c.d)
    r12, f12 = eye_w.kron(c.r.m), eye_w.kron(flip_operator(c.d, c.d))
    for m in c.pi:
        pi01 = m.kron(eye_v)
        if r12 * pi01 * r12 != f12 * pi01 * f12:
            return False
    return True


def test_the_exchange_identity_fails_on_identity_r_only(differential_couples):
    flags = {label: exchange_identity_holds(fresh(c)) for label, (c, _, _) in differential_couples.items()}
    assert [label for label, holds in flags.items() if not holds] == ["identity R"]
    for label, (c, _, _) in differential_couples.items():
        assert flags[label] == exchange_identity_on_every_element(c), label


def seeded_sites(rng, c, k):
    return tuple((1 + rng.below(c.group.order - 1), 1 + rng.below(5)) for _ in range(k))


def test_the_exchange_trace_equals_the_staircase_trace_and_rep_element(differential_couples):
    # on every couple with the exchange identity, w = 2 controlled-X among
    # them: the product of site traces against the staircase word, and
    # character against the literal image
    rng = Lcg64(163)
    checked = set()
    for label, (c, _, dim) in differential_couples.items():
        c, top = fresh(c), top_level(c, dim)
        if not exchange_identity_holds(c):
            continue
        for _ in range(30):
            sites = seeded_sites(rng, c, rng.below(top + 1))
            assert _exchange_trace(c, sites) == _staircase_trace(c, sites), (label, sites)
        # the site traces commute, as the proof of character argues
        traces = list(c._site_traces.values())
        assert all(a * b == b * a for a in traces for b in traces), label
        for _ in range(40):
            lo = 1 + rng.below(top)
            g = rng.wreath_element(c.group, lo, lo + rng.below(top - lo + 1))
            n = max(g.max_support(), 1)
            assert character(c, g) == rep_element(c, g, n).trace() / (c.w * c.d ** n), (label, g)
        checked.add(label)
    assert {"controlled-X", "w2", "pm hadamard", "z2_half_half.params.json rotated"} <= checked
    assert len(checked) == len(differential_couples) - 1


def test_character_never_reaches_gate_trace_on_exchange_couples(differential_couples, z2, monkeypatch):
    # corpus and conjugated couples evaluate each reduced word as a product
    # of site traces, cold memos included
    rng = Lcg64(167)
    cases = []
    for label, (c, _, dim) in differential_couples.items():
        if label != "identity R":
            top = top_level(c, dim)
            cases.append((label, fresh(c), [rng.wreath_element(c.group, 1, 1 + rng.below(top))
                                            for _ in range(20)]))

    def refuse(*args):
        raise AssertionError("gate_trace called")

    monkeypatch.setattr(couple_module, "gate_trace", refuse)
    monkeypatch.setattr(matrix, "gate_trace", refuse)
    for label, c, elements in cases:
        for g in elements:
            character(c, g)
        assert c._word_traces, label
    # the staircase path is the one that traces words
    with pytest.raises(AssertionError, match="gate_trace called"):
        character(identity_r_couple(z2), WreathElement(z2, {1: 1, 2: 1}))


def test_certification_leaves_the_exchange_flag_uncomputed(corpus_params, differential_couples):
    for label, (c, _, _) in differential_couples.items():
        c = fresh(c)
        assert c._exchange_failures is None, label
        character(c, WreathElement(c.group, {1: c.group.order - 1}))
        assert c._exchange_failures == (() if label != "identity R" else (1,)), label
    # the builder requires the identity and leaves its flag set
    for name, params in corpus_params.items():
        assert build_couple(params)[0]._exchange_failures == (), name


def test_the_exchange_trace_takes_k_minus_one_w_by_w_products(differential_couples, monkeypatch):
    calls = []
    mul = SparseOperator.__mul__
    monkeypatch.setattr(SparseOperator, "__mul__", lambda a, b: calls.append(a.dim) or mul(a, b))
    rng = Lcg64(173)
    for label in ("controlled-X", "q8_2dim.params.json", "s3_std.params.json rotated"):
        c = fresh(differential_couples[label][0])
        for k in (1, 2, 5, 16, 40):
            sites = seeded_sites(rng, c, k)
            for site in sites:  # the site traces warm, so only their products count
                _site_trace(c, *site)
            del calls[:]
            _exchange_trace(c, sites)
            assert len(calls) == k - 1 and set(calls) <= {c.w}, (label, k, calls)

