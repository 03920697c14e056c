from fractions import Fraction

import pytest

from ybw.cyclo import CycloScalar, zeta
from ybw.errors import (
    NotAGroupError,
    NotIrreducibleError,
    UnknownCatalogNameError,
)
from ybw.groups import (
    CATALOG_NAMES,
    catalog_irreps,
    conjugacy_classes,
    load_group,
    verify_irrep,
)
from ybw.matrix import ExactMatrix

ALL_CATALOG = [n for n in CATALOG_NAMES]


def test_load_z2():
    g = load_group("z2")
    assert g.order == 2
    assert g.mul(1, 1) == 0


def test_unknown_name():
    with pytest.raises(UnknownCatalogNameError):
        load_group("monster")


def test_broken_associativity_rejected():
    # z3 table with one corrupted entry
    table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    table[1][1] = 1
    with pytest.raises(NotAGroupError):
        load_group(table)
    # an empty table has no identity; it must not certify a couple vacuously
    with pytest.raises(NotAGroupError, match="empty"):
        load_group([])


def test_user_table_accepted():
    table = [[(a + b) % 5 for b in range(5)] for a in range(5)]
    g = load_group(table)
    assert g.order == 5


def test_conjugacy_classes_examples():
    assert len(load_group("trivial").classes) == 1
    s3 = load_group("s3")
    assert sorted(len(c.members) for c in conjugacy_classes(s3)) == [1, 2, 3]
    q8 = load_group("q8")
    classes = conjugacy_classes(q8)
    assert [len(c.members) for c in classes] == [1, 1, 2, 2, 2]
    names = [tuple(q8.element_names[m] for m in c.members) for c in classes]
    assert names == [("1",), ("-1",), ("i", "-i"), ("j", "-j"), ("k", "-k")]


def test_class_representative_is_min():
    for name in ("s3", "d4", "q8", "z6"):
        g = load_group(name)
        for cls in g.classes:
            assert cls.representative == min(cls.members)
            for t in cls.members:
                assert g.class_of(t) == cls


@pytest.mark.parametrize("name", ALL_CATALOG)
def test_catalog_irreps_complete_and_certified(name):
    g = load_group(name)
    irreps = catalog_irreps(g)
    assert sum(rep.dim ** 2 for rep in irreps) == g.order
    labels = [rep.label for rep in irreps]
    assert len(set(labels)) == len(labels)
    for rep in irreps:
        # chi(e) = dim, and chi is a class function
        assert rep.char(0) == rep.dim
        for cls in g.classes:
            base = rep.char(cls.representative)
            for t in cls.members:
                assert rep.char(t) == base


def test_z2_irreps():
    irreps = catalog_irreps(load_group("z2"))
    assert [rep.dim for rep in irreps] == [1, 1]
    sgn = irreps[1]
    assert sgn.char(1) == -1


def test_s3_standard_character():
    s3 = load_group("s3")
    std = next(rep for rep in catalog_irreps(s3) if rep.label == "std")
    values = [std.char(c.representative) for c in s3.classes]
    assert values[0] == 2 and values[1] == 0 and values[2] == -1


def test_q8_dims():
    irreps = catalog_irreps(load_group("q8"))
    assert sorted(rep.dim for rep in irreps) == [1, 1, 1, 1, 2]


@pytest.mark.parametrize("name", ["z4", "klein4", "s3", "d4", "q8"])
def test_column_orthogonality(name):
    g = load_group(name)
    irreps = catalog_irreps(g)
    for ca in g.classes:
        for cb in g.classes:
            total = CycloScalar.from_rational(0)
            for rep in irreps:
                total = total + rep.char(ca.representative) * rep.char(cb.representative).conj()
            if ca == cb:
                assert total == Fraction(g.order, len(ca.members))
            else:
                assert total == 0


def test_verify_irrep_rejects_reducible():
    z2 = load_group("z2")
    triv_plus_sgn = [ExactMatrix.diag([1, 1]), ExactMatrix.diag([1, -1])]
    with pytest.raises(NotIrreducibleError, match="norm is 2"):
        verify_irrep(z2, triv_plus_sgn, "triv+sgn")


def test_verify_irrep_accepts_catalog():
    s3 = load_group("s3")
    std = next(rep for rep in catalog_irreps(s3) if rep.label == "std")
    again = verify_irrep(s3, std.images, "user-std")
    assert again.dim == 2


def test_trivial_rep_certifies_everywhere():
    for name in ("z5", "d4", "q8"):
        g = load_group(name)
        verify_irrep(g, [ExactMatrix.identity(1)] * g.order, "triv")
