import pytest

from ybw.errors import GroupMismatchError
from ybw.groups import load_group
from ybw.perms import FinitePermutation
from ybw.rng import Lcg64
from ybw.wreath import (
    CyclicPart,
    WreathElement,
    colored_cycles,
    conjugacy_invariant,
    cycle_color,
    cycle_product_class,
    standard_decomposition,
)


@pytest.fixture(scope="module")
def s3():
    return load_group("s3")


@pytest.fixture(scope="module")
def z2():
    return load_group("z2")


def test_identity_and_color_product(s3):
    e = WreathElement.identity(s3)
    g = WreathElement(s3, {1: 3}, FinitePermutation.cycle(2))
    assert g * e == g and e * g == g
    a = WreathElement(s3, {1: 3})
    b = WreathElement(s3, {1: 2})
    assert a * b == WreathElement(s3, {1: s3.mul(3, 2)})


def test_square_of_colored_transposition(s3):
    t = 3
    g = WreathElement(s3, {1: t}, FinitePermutation.transposition(1, 2))
    sq = g * g
    assert sq.perm.is_identity()
    assert sq.colors == {1: t, 2: t}


def test_inverse(s3):
    assert WreathElement.identity(s3).inverse() == WreathElement.identity(s3)
    a = WreathElement(s3, {1: 3})
    assert a.inverse() == WreathElement(s3, {1: s3.inv(3)})
    rng = Lcg64(5)
    for _ in range(50):
        g = rng.wreath_element(s3, 1, 6)
        assert (g * g.inverse()).is_identity()


def test_group_mismatch(s3, z2):
    with pytest.raises(GroupMismatchError):
        WreathElement(s3, {1: 1}) * WreathElement(z2, {1: 1})


def test_support_of_product(s3):
    rng = Lcg64(9)
    for _ in range(50):
        a = rng.wreath_element(s3, 1, 4)
        b = rng.wreath_element(s3, 3, 7)
        assert set((a * b).support()) <= set(a.support()) | set(b.support())


def test_decomposition_identity(s3):
    dec = standard_decomposition(WreathElement.identity(s3))
    assert dec.elementary == () and dec.cyclic == ()


def test_decomposition_elementary(s3):
    dec = standard_decomposition(WreathElement(s3, {3: 2}))
    assert dec.elementary == ((3, 2),) and dec.cyclic == ()


def test_decomposition_mixed(s3):
    g = WreathElement(s3, {1: 3, 5: 2}, FinitePermutation.from_cycles([[1, 2, 3], [6, 7]]))
    dec = standard_decomposition(g)
    assert dec.elementary == ((5, 2),)
    assert [part.cycle for part in dec.cyclic] == [(1, 2, 3), (6, 7)]
    assert dict(dec.cyclic[0].colors) == {1: 3}
    assert dec.cyclic[1].colors == ()
    assert dec.recompose() == g


def test_decomposition_recomposes_in_any_order(s3):
    rng = Lcg64(17)
    for _ in range(30):
        g = rng.wreath_element(s3, 1, 7)
        facs = standard_decomposition(g).factors()
        for i in range(len(facs)):
            for j in range(len(facs)):
                assert facs[i] * facs[j] == facs[j] * facs[i]
        acc = WreathElement.identity(s3)
        for f in reversed(facs):
            acc = acc * f
        assert acc == g


def test_cycle_product_class_no_colors(s3):
    part = CyclicPart((4, 6, 9), ())
    assert cycle_product_class(s3, part).representative == 0


def test_cycle_product_class_z2(z2):
    part = CyclicPart((1, 2), ((1, 1), (2, 1)))
    assert cycle_product_class(z2, part).representative == 0


def test_cycle_product_rotation_invariant(s3):
    # products from all rotations of the cycle are conjugate
    colors = {1: 2, 3: 5}
    cycle = [1, 3, 2]
    products = []
    for rot in range(3):
        rotated = cycle[rot:] + cycle[:rot]
        acc = 0
        for pos in reversed(rotated):
            acc = s3.mul(acc, colors.get(pos, 0))
        products.append(acc)
    classes = {s3.class_of(p).representative for p in products}
    part = CyclicPart(tuple(cycle), tuple(sorted(colors.items())))
    assert classes == {cycle_product_class(s3, part).representative}


def test_invariant_identity(s3):
    inv = conjugacy_invariant(WreathElement.identity(s3))
    assert inv.elem_classes == () and inv.cycle_data == ()


def test_invariant_elementary_relabeling(s3):
    # same color class at different positions
    a = WreathElement(s3, {1: 2})
    b = WreathElement(s3, {7: s3.conjugate(3, 2)})
    assert conjugacy_invariant(a) == conjugacy_invariant(b)


def test_invariant_cyclic_normalization(s3):
    # a colored cycle is conjugate to the same cycle carrying the single
    # color product
    g = WreathElement(s3, {1: 2, 2: 1}, FinitePermutation.cycle(3))
    part = standard_decomposition(g).cyclic[0]
    cls = cycle_product_class(s3, part)
    h = WreathElement(s3, {1: cls.representative}, FinitePermutation.cycle(3))
    assert conjugacy_invariant(g) == conjugacy_invariant(h)


def test_invariant_under_conjugation(s3):
    rng = Lcg64(23)
    for _ in range(200):
        g = rng.wreath_element(s3, 1, 8)
        h = rng.wreath_element(s3, 1, 8)
        assert conjugacy_invariant(h * g * h.inverse()) == conjugacy_invariant(g)


def test_distinct_invariants_detect_non_conjugates(s3):
    a = WreathElement(s3, {1: 3}, FinitePermutation.cycle(2))
    b = WreathElement(s3, {1: 3}, FinitePermutation.cycle(3))
    assert conjugacy_invariant(a) != conjugacy_invariant(b)


@pytest.mark.parametrize("name", ["s3", "q8"])
def test_colored_cycles_carry_the_conjugacy_invariant(name):
    # the (class, length) multiset of colored_cycles is conjugacy_invariant's,
    # read by standard_decomposition; the lengths cover the support, and the
    # fixed colored points come first in increasing order, for supports far
    # from 1 and split ones alike
    group = load_group(name)
    rng = Lcg64(71)
    windows = [(1, 6), (3, 9), (20, 26), (40, 41)]
    for _ in range(60):
        lo, hi = windows[rng.below(len(windows))]
        g = rng.wreath_element(group, lo, hi)
        if rng.below(2):
            g = g * rng.wreath_element(group, 50 + lo, 50 + hi)
        cycles = colored_cycles(g)
        rep = [(group.class_of(t).representative, length) for t, length in cycles]
        inv = conjugacy_invariant(g)
        assert sorted(r for r, length in rep if length == 1) == list(inv.elem_classes), g
        assert sorted(pair for pair in rep if pair[1] > 1) == list(inv.cycle_data), g
        assert sum(length for _, length in cycles) == len(g.support()), g
        fixed = standard_decomposition(g).elementary  # sorted by position
        assert cycles[:len(fixed)] == [(t, 1) for _, t in fixed], g
        assert all(length > 1 for _, length in cycles[len(fixed):]), g


def old_colored_cycles(g):
    """colored_cycles as first written: cycle_color on every cycle."""
    moved = g.perm.map
    fixed = [(g.colors[p], 1) for p in sorted(g.colors) if p not in moved]
    return fixed + [(cycle_color(g.group, cyc, g.colors), len(cyc)) for cyc in g.perm.cycles()]


@pytest.mark.parametrize("name", ["s3", "q8", "z2"])
def test_colored_cycles_match_cycle_color_on_every_cycle(name):
    # cycles without a colored position skip cycle_color and read 0, as it
    # would give them
    group = load_group(name)
    rng = Lcg64(157)
    uncolored = 0
    for _ in range(200):
        lo = 1 + rng.below(30)
        g = rng.wreath_element(group, lo, lo + rng.below(9))
        if rng.below(2):
            g = g * WreathElement(group, {}, rng.permutation_of(list(range(60, 60 + rng.below(8)))))
        assert colored_cycles(g) == old_colored_cycles(g), g
        uncolored += any(not set(cyc) & set(g.colors) for cyc in g.perm.cycles())
    assert uncolored > 50


def test_an_uncolored_element_makes_no_group_product(s3, monkeypatch):
    calls = []
    mul = type(s3).mul
    monkeypatch.setattr(type(s3), "mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    cycles = [range(1, 4), range(4, 6), range(10, 17)]
    g = WreathElement(s3, {}, FinitePermutation.from_cycles(cycles))
    assert colored_cycles(g) == [(0, 3), (0, 2), (0, 7)]
    assert calls == []
    h = WreathElement(s3, {2: 3}, g.perm)
    want = old_colored_cycles(h)
    del calls[:]
    assert colored_cycles(h) == want
    assert len(calls) == 3  # one product per position of the one colored cycle
