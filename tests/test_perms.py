import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from ybw.perms import FinitePermutation, adjacent_word


def test_cycle_and_one_line():
    c = FinitePermutation.cycle(3)
    assert c(1) == 2 and c(2) == 3 and c(3) == 1
    assert c.one_line(3) == [2, 3, 1]
    assert c.cycles() == [(1, 2, 3)]


def test_compose_convention():
    s1 = FinitePermutation.transposition(1, 2)
    s2 = FinitePermutation.transposition(2, 3)
    c = s1 * s2
    assert c == FinitePermutation.cycle(3)


def test_inverse_and_sign():
    p = FinitePermutation.from_cycles([[1, 4, 2], [5, 6]])
    assert (p * p.inverse()).is_identity()
    assert p.sign() == -1
    assert FinitePermutation.cycle(3).sign() == 1
    assert FinitePermutation.cycle(4).sign() == -1


def test_adjacent_word_reconstructs():
    for n in range(1, 6):
        for line in itertools.permutations(range(1, n + 1)):
            perm = FinitePermutation.from_one_line(line)
            word = adjacent_word(perm, n)
            acc = FinitePermutation.identity()
            for i in word:
                acc = acc * FinitePermutation.transposition(i, i + 1)
            assert acc == perm, line


def test_disjoint_cycles_sorted_by_min():
    p = FinitePermutation.from_cycles([[7, 8], [2, 5, 3]])
    assert p.cycles() == [(2, 5, 3), (7, 8)]


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        FinitePermutation({1: 2, 3: 2})
    with pytest.raises(ValueError):
        FinitePermutation.from_cycles([[1, 2], [2, 3]])


@st.composite
def mappings(draw):
    """Permutations of a few positions in -1..9, some images then overwritten:
    bijections, repeated images, positions 0 and -1, and identity entries."""
    keys = draw(st.lists(st.integers(-1, 9), unique=True, max_size=8))
    m = dict(zip(keys, draw(st.permutations(keys))))
    for k in draw(st.lists(st.sampled_from(keys), max_size=2)) if keys else ():
        m[k] = draw(st.integers(-1, 9))
    return m


@settings(max_examples=200)
@given(mappings())
@example({1: 2, 2: 1, 3: 3})
@example({1: 2, 3: 2})
@example({0: 1, 1: 0})
@example({-1: -1, 2: 3, 3: 2})
def test_constructor_accepts_what_the_sorted_rule_accepted(mapping):
    # the rule before the set comparison, with its two messages in order
    moved = {k: v for k, v in mapping.items() if k != v}
    if sorted(moved) != sorted(moved.values()):
        want = "not a bijection on its support"
    elif any(k < 1 for k in moved):
        want = "positions are 1-based"
    else:
        assert FinitePermutation(mapping).map == moved
        return
    with pytest.raises(ValueError, match=want):
        FinitePermutation(mapping)
