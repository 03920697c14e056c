from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import CORPUS_PARAM_FILES
from ybw.cli import corpus_dir
from ybw.couple import character
from ybw.cyclo import CycloScalar
from ybw.errors import (
    MassExceedsOneError,
    NegativeEntryError,
    NotNonIncreasingError,
    UnknownIrrepLabelError,
)
from ybw.groups import catalog_irreps, load_group
from ybw.io import params_from_json, read_json_file
from ybw.hirai import (
    closed_form_character,
    is_yb_admissible,
    sign_character,
    thoma_restriction,
    validate_params,
)
from ybw.perms import FinitePermutation
from ybw.rmatrix import ThomaParams
from ybw.rng import Lcg64
from ybw.wreath import WreathElement, cycle_product_class, standard_decomposition


@pytest.fixture(scope="module")
def z2():
    g = load_group("z2")
    return g, catalog_irreps(g)


@pytest.fixture(scope="module")
def s3():
    g = load_group("s3")
    return g, catalog_irreps(g)


def make(groupinfo, a, mu=None):
    g, irreps = groupinfo
    return validate_params(g, irreps, a, mu or {})


def test_all_zero_valid(z2):
    p = make(z2, {})
    assert p.total_mass() == 0
    adm = is_yb_admissible(p)
    assert not adm.verdict and "mass_not_one" in adm.violations


def test_half_half_valid(z2):
    p = make(z2, {("triv", 0): [Fraction(1, 2)], ("chi1", 0): [Fraction(1, 2)]})
    assert p.total_mass() == 1


def test_not_non_increasing(z2):
    with pytest.raises(NotNonIncreasingError):
        make(z2, {("triv", 0): [Fraction(1, 4), Fraction(1, 2)]})


def test_negative_entry(z2):
    with pytest.raises(NegativeEntryError):
        make(z2, {("triv", 0): [Fraction(-1, 4)]})


def test_mass_exceeds(z2):
    with pytest.raises(MassExceedsOneError):
        make(z2, {("triv", 0): [Fraction(3, 4)], ("chi1", 0): [Fraction(1, 2)]})


def test_unknown_label(z2):
    with pytest.raises(UnknownIrrepLabelError):
        make(z2, {("std", 0): [Fraction(1)]})


def test_trailing_zeros_stripped(z2):
    p = make(z2, {("triv", 0): [Fraction(1, 2), Fraction(0), Fraction(0)]})
    assert p.a_list("triv", 0) == (Fraction(1, 2),)


def test_admissibility_z2(z2):
    p = make(z2, {("triv", 0): [Fraction(1, 2)], ("chi1", 0): [Fraction(1, 2)]})
    adm = is_yb_admissible(p)
    assert adm.verdict and adm.minimal_d == 2


def test_admissibility_s3_std(s3):
    p = make(s3, {("std", 0): [Fraction(1)]})
    adm = is_yb_admissible(p)
    assert adm.verdict and adm.minimal_d == 2


def test_mu_blocks_admissibility(z2):
    p = make(z2, {("triv", 0): [Fraction(3, 4)]}, {"triv": Fraction(1, 4)})
    adm = is_yb_admissible(p)
    assert not adm.verdict and "mu_nonzero" in adm.violations


def test_sign_character():
    assert sign_character(2, 1) == -1
    assert sign_character(3, 1) == 1
    assert sign_character(5, 0) == 1
    assert sign_character(4, 1) == -1


def test_closed_form_identity(z2):
    g, _ = z2
    p = make(z2, {("triv", 0): [Fraction(1, 2)], ("chi1", 0): [Fraction(1, 2)]})
    assert closed_form_character(p, WreathElement.identity(g)) == 1


def test_closed_form_elementary(z2):
    g, _ = z2
    p = make(z2, {("triv", 0): [Fraction(1, 2)], ("chi1", 0): [Fraction(1, 2)]})
    assert closed_form_character(p, WreathElement(g, {1: 1})) == 0


def test_closed_form_colored_transposition(z2):
    g, _ = z2
    p = make(z2, {("triv", 0): [Fraction(1, 2)], ("chi1", 0): [Fraction(1, 2)]})
    elt = WreathElement(g, {1: 1}, FinitePermutation.transposition(1, 2))
    # cyclic part of length 2 with product class [s]
    assert closed_form_character(p, elt) == 0


def test_closed_form_with_mu(z2):
    # the evaluator covers the full family, including nonzero mu
    g, _ = z2
    p = make(z2, {("triv", 0): [Fraction(1, 2)]}, {"chi1": Fraction(1, 2)})
    # elementary factor: (1/2) chi_triv(s) + (1/2) chi_sgn(s) = 0
    assert closed_form_character(p, WreathElement(g, {1: 1})) == 0
    # cyclic factor ignores mu: (1/2)^2 * 1 * chi_triv([e]) = 1/4
    elt = WreathElement(g, {}, FinitePermutation.transposition(1, 2))
    assert closed_form_character(p, elt) == Fraction(1, 4)


def test_closed_form_multiplicative_on_disjoint_supports(s3):
    g, _ = s3
    p = make(s3, {("std", 0): [Fraction(1, 2)], ("triv", 1): [Fraction(1, 2)]})
    rng = Lcg64(61)
    for _ in range(25):
        a, b = rng.disjoint_pair(g)
        lhs = closed_form_character(p, a * b)
        rhs = closed_form_character(p, a) * closed_form_character(p, b)
        assert lhs == rhs


def test_thoma_restriction_examples(s3, z2):
    triv = load_group("trivial")
    p0 = validate_params(triv, catalog_irreps(triv), {("triv", 0): [Fraction(1)]}, {})
    assert thoma_restriction(p0) == ThomaParams.make([1], [])

    p1 = make(s3, {("std", 0): [Fraction(1)]})
    assert thoma_restriction(p1) == ThomaParams.make([Fraction(1, 2), Fraction(1, 2)], [])

    p2 = make(z2, {("triv", 0): [Fraction(1, 2)], ("chi1", 1): [Fraction(1, 2)]})
    assert thoma_restriction(p2) == ThomaParams.make([Fraction(1, 2)], [Fraction(1, 2)])


def test_thoma_restriction_mass(s3):
    p = make(s3, {("std", 0): [Fraction(1, 3)], ("sgn", 1): [Fraction(1, 4)]})
    t = thoma_restriction(p)
    assert sum(t.alpha) + sum(t.beta) == p.total_mass()


def test_restriction_consistency_on_cycles(s3):
    # closed form on pure cycles equals the power-sum formula of the restriction
    g, _ = s3
    p = make(s3, {("std", 0): [Fraction(1, 2)], ("std", 1): [Fraction(1, 4)],
                  ("triv", 0): [Fraction(1, 4)]})
    t = thoma_restriction(p)
    for n in range(2, 7):
        elt = WreathElement(g, {}, FinitePermutation.cycle(n))
        assert closed_form_character(p, elt) == t.power_sum(n)


def test_closed_form_agrees_with_trace_character(corpus_couples):
    for name, (params, couple, _) in corpus_couples.items():
        rng = Lcg64(67)
        for _ in range(20):
            g = rng.wreath_element(params.group, 1, 4)
            assert closed_form_character(params, g) == character(couple, g), (name, g)


# -- the factor memo against the direct product formula -------------------


def direct_closed_form(p, g):
    """The product formula evaluated from the raw parameter lists on every
    call, factor by factor over the standard decomposition: the oracle of
    closed_form_character's factor memo."""
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


def oracle_elements(group, seed):
    """Seeded elements with repeated (class, length) pairs, colored fixed
    points and one cycle of 20 or more, each on freshly numbered positions,
    plus plain window samples."""
    rng = Lcg64(seed)
    out = []
    for _ in range(6):
        lengths = [1, 1, 2, 2, 2, 3, 3, 20 + rng.below(10)]
        colors, cycles, start = {}, [], 1
        for length in lengths:
            block = list(range(start, start + length))
            for p in block:
                colors[p] = rng.below(group.order)
            if length > 1:
                cycles.append(block)
            start += length
        out.append(WreathElement(group, colors, FinitePermutation.from_cycles(cycles)))
    out += [rng.wreath_element(group, 1, 8) for _ in range(6)]
    return out


def _non_admissible(groupinfo):
    # mu != 0, so elementary factors differ from length-1 cyclic ones; and mass < 1
    return {"mu != 0": make(groupinfo, {("std", 0): [Fraction(1, 3)], ("sgn", 1): [Fraction(1, 6)]},
                            {"triv": Fraction(1, 4), "sgn": Fraction(1, 8)}),
            "mass < 1": make(groupinfo, {("std", 0): [Fraction(1, 5), Fraction(1, 7)],
                                         ("triv", 1): [Fraction(1, 3)]})}


def test_factor_memo_equals_the_direct_formula(s3):
    sets = dict(_non_admissible(s3))
    for name in CORPUS_PARAM_FILES:
        # decoded here, so each memo starts cold
        sets[name] = params_from_json(read_json_file(corpus_dir() / name), name)
    for name, p in sets.items():
        assert not p._factors, name
        elements = oracle_elements(p.group, 71)
        for g in elements:
            cold = replace(p)
            assert closed_form_character(cold, g) == direct_closed_form(p, g), (name, g)
        for _ in range(2):  # filling, then warm
            for g in elements:
                assert closed_form_character(p, g) == direct_closed_form(p, g), (name, g)
        keys = set(p._factors)
        assert any(key[0] == 0 for key in keys) and any(key[0] >= 20 for key in keys), name


def test_factor_memo_is_not_part_of_equality_or_repr(s3):
    p = _non_admissible(s3)["mu != 0"]
    fresh = replace(p)
    assert fresh._factors is not p._factors
    text = repr(p)
    closed_form_character(p, oracle_elements(p.group, 73)[0])
    assert p._factors and not fresh._factors
    assert p == fresh and fresh == p
    assert repr(p) == repr(fresh) == text and "_factors" not in text
