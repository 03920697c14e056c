import itertools
import random
import re
import time
from fractions import Fraction

import pytest

from ybw.cyclo import ONE, CycloScalar, zeta
from ybw.errors import (
    DimensionMismatchError,
    NotAGroupError,
    NotHomomorphismError,
    NotIrreducibleError,
    NotUnitaryError,
    UnknownCatalogNameError,
)
from ybw.groups import (
    CATALOG_NAMES,
    catalog_irreps,
    load_group,
    verify_irrep,
)
from ybw.matrix import ExactMatrix, SparseOperator

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


def all_triples_verdict(table):
    """The check FiniteGroup made before it used Light's test, kept as its
    oracle: range, identity and right inverses, then associativity on all
    n^3 triples.  The first failure's message, or None for a group."""
    n = len(table)
    if n == 0:
        return "empty"
    for i, row in enumerate(table):
        if len(row) != n or not all(0 <= v < n for v in row):
            return f"row {i}"
    if any(table[0][j] != j or table[j][0] != j for j in range(n)):
        return "identity"
    if any(0 not in row for row in table):
        return "inverse"
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return "associativity"
    return None


def test_light_associativity_test_agrees_with_all_triples():
    # seeded tables of orders 2-12 with one or two entries off the identity
    # row and column changed, the z3 case above among them: same verdict as
    # the n^3 sweep, and the triple Light's test names does fail
    rng = random.Random(90210)
    tables = [[[(a + b) % 3 for b in range(3)] for a in range(3)]]
    tables[0][1][1] = 1
    names = [f"z{n}" for n in range(2, 13)] + ["klein4", "s3", "d4", "q8"]
    for name in names:
        base = [list(row) for row in load_group(name).table]
        n = len(base)
        tables.append(base)
        for _ in range(12):
            table = [list(row) for row in base]
            for _ in range(rng.choice((1, 2))):
                table[rng.randrange(1, n)][rng.randrange(1, n)] = rng.randrange(n)
            tables.append(table)
    # Z_k x Z_2 with (a, 1)(b, 1) = (a + b + g(a + b), 0): (1, 0) passes
    # Light's test whatever g is, so only a later generator can fail it
    for k in range(2, 7):
        for _ in range(6):
            g = [0] + [rng.randrange(k) for _ in range(k - 1)]
            tables.append([[(u + v + (g[(u + v) % k] if u >= k <= v else 0)) % k
                            + k * ((u // k + v // k) % 2) for v in range(2 * k)]
                           for u in range(2 * k)])
    verdicts = []
    for table in tables:
        expected = all_triples_verdict(table)
        try:
            group = load_group(table)
            got = None
        except NotAGroupError as exc:
            got = str(exc)
            if expected == "associativity":
                m = re.fullmatch(r"associativity fails on triple \((\d+),(\d+),(\d+)\)", got)
                assert m, got
                a, b, c = map(int, m.groups())
                assert table[table[a][b]][c] != table[a][table[b][c]]
        else:
            assert group.closure(group.generators) == frozenset(range(len(table)))
        assert (got is None) == (expected is None), (table, got, expected)
        if expected in ("identity", "inverse", "associativity"):
            assert expected in got, (got, expected)
        verdicts.append(expected)
    assert verdicts.count("associativity") > 100 and verdicts.count(None) >= len(names)


def test_large_tables_verify_in_few_comparisons():
    # Light's test costs n^2 |S| comparisons, not n^3: a cyclic table of
    # order 400 loads in well under a second; a table in which x x = 0 and
    # x y = x otherwise fails on its first generator
    start = time.perf_counter()
    n = 400
    assert load_group([[(a + b) % n for b in range(n)] for a in range(n)]).generators == (1,)
    assert time.perf_counter() - start < 2
    table = [[b if a == 0 else a if b == 0 else 0 if a == b else a for b in range(n)]
             for a in range(n)]
    with pytest.raises(NotAGroupError, match=r"associativity fails on triple \(\d+,1,\d+\)"):
        load_group(table)


def test_user_table_accepted():
    table = [[(a + b) % 5 for b in range(5)] for a in range(5)]
    g = load_group(table)
    assert g.order == 5


def test_conjugacy_classes_examples():
    assert len(load_group("trivial").classes) == 1
    s3 = load_group("s3")
    assert sorted(len(c.members) for c in s3.classes) == [1, 2, 3]
    q8 = load_group("q8")
    classes = q8.classes
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


def all_pairs_irrep_failure(group, images):
    """The sweep verify_irrep made over every pair of G x G before it
    checked generators only, kept as its oracle: the error class of the
    first failing certificate, or None."""
    for m in images:
        if not (m.dagger() * m).is_identity():
            return NotUnitaryError
    for a in range(group.order):
        for b in range(group.order):
            if images[a] * images[b] != images[group.mul(a, b)]:
                return NotHomomorphismError
    norm = sum((m.trace().norm_sq() for m in images), CycloScalar.from_rational(0))
    return None if (norm / group.order).is_one() else NotIrreducibleError


def direct_sum(a, b):
    entries = {(i, j): v for i, row in enumerate(a.data) for j, v in enumerate(row)}
    entries.update({(a.rows + i, a.cols + j): v
                    for i, row in enumerate(b.data) for j, v in enumerate(row)})
    return ExactMatrix.from_entries(a.rows + b.rows, a.cols + b.cols, entries)


def test_verify_irrep_agrees_with_the_all_pairs_oracle():
    # catalog irreps and sums of two, perturbed away from the generators:
    # verify_irrep must give the verdict and error class of the G x G sweep,
    # and the pair it names must fail under it
    rng = random.Random(2411)
    outcomes = set()
    for name in ("s3", "d4", "q8"):
        group = load_group(name)
        irreps = catalog_irreps(group)
        others = [t for t in range(1, group.order) if t not in group.generators]
        sums = [[direct_sum(x, y) for x, y in zip(rng.choice(irreps).images,
                                                   rng.choice(irreps).images)]
                for _ in range(3)]
        for images in [list(rep.images) for rep in irreps] + sums:
            t, u = rng.sample(others, 2)
            swapped = list(images)
            swapped[t], swapped[u] = images[u], images[t]
            scaled = list(images)
            scaled[t] = images[t].scaled(zeta(4, rng.choice((1, 2, 3))))
            stretched = list(images)
            stretched[u] = images[u].scaled(2)
            moved = list(images)
            moved[t] = images[u] * images[t]
            for case in (images, swapped, scaled, stretched, moved,
                         [images[0].scaled(-1)] + images[1:]):
                expected = all_pairs_irrep_failure(group, case)
                try:
                    verify_irrep(group, case, "perturbed")
                    got = None
                except (NotUnitaryError, NotHomomorphismError, NotIrreducibleError) as exc:
                    got = type(exc)
                    if got is NotHomomorphismError:
                        a, b = map(int, re.findall(r"image\((\d+)\)", str(exc))[:2])
                        assert b == 0 if a == 0 else b in group.generators
                        assert case[a] * case[b] != case[group.mul(a, b)]
                assert got == expected, (name, case)
                outcomes.add(got)
    assert outcomes == {None, NotUnitaryError, NotHomomorphismError, NotIrreducibleError}


def test_verify_irrep_checks_the_identity_image_of_the_trivial_group():
    # no generators: the pair (0, 0) alone must reject the image -1
    trivial = load_group("trivial")
    assert trivial.generators == ()
    with pytest.raises(NotHomomorphismError,
                       match=r"^sign: image\(0\) \* image\(0\) != image\(0\*0\)$"):
        verify_irrep(trivial, [ExactMatrix.diag([-1])], "sign")


@pytest.mark.parametrize("name", ALL_CATALOG + ["custom"])
def test_generators_are_sorted_and_generate(name):
    if name == "custom":
        # S3 as the permutations of {0, 1, 2} in lexicographic order, each
        # product taken right to left
        perms = sorted(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        group = load_group([[index[tuple(p[q[i]] for i in range(3))] for q in perms]
                            for p in perms])
        size = 2
    else:
        group = load_group(name)
        size = {"trivial": 0, "z1": 0, "klein4": 2, "s3": 2, "d4": 2, "q8": 2}.get(name, 1)
    gens = group.generators
    assert list(gens) == sorted(gens) and len(gens) == size
    assert group.closure(gens) == frozenset(range(group.order))
    # the greedy choice passes over -1 (index 1) in q8
    if name == "q8":
        assert gens == (2, 4)


def dense_images_from_generators(group, gens, dim):
    images = {0: ExactMatrix.identity(dim)}
    frontier = [0]
    while frontier:
        fresh = []
        for x in frontier:
            for g, mg in gens.items():
                y = group.mul(x, g)
                if y not in images:
                    images[y] = images[x] * mg
                    fresh.append(y)
        frontier = fresh
    return [images[i] for i in range(group.order)]


def explicit_catalog_images(group):
    """The dense construction catalog_irreps made before it read every
    irrep off generator images, kept as its oracle: value lists for the
    one-dimensional irreps, sign helpers, and generator images for the
    rest.  A list of (label, dense images)."""
    def one_dim(label, values):
        return label, [ExactMatrix.diag([v]) for v in values]

    swap2 = ExactMatrix.from_entries(2, 2, {(0, 1): 1, (1, 0): 1})
    name = group.name
    if name.startswith("z"):
        n = int(name[1:])
        return [one_dim("triv" if k == 0 else f"chi{k}", [zeta(n, j * k) for j in range(n)])
                for k in range(n)]
    if name == "klein4":
        return [one_dim("triv" if (a, b) == (0, 0) else f"chi{a}{b}",
                        [Fraction(-1) ** (a * (x % 2) + b * (x // 2)) for x in range(4)])
                for a in range(2) for b in range(2)]
    if name == "s3":
        signs = {0: 1, 1: -1, 2: -1, 3: 1, 4: 1, 5: -1}
        gens = {3: ExactMatrix.diag([zeta(3, 1), zeta(3, 2)]), 2: swap2}
        return [one_dim("triv", [1] * 6), one_dim("sgn", [signs[i] for i in range(6)]),
                ("std", dense_images_from_generators(group, gens, 2))]
    if name == "d4":
        def vals(xr, xs):
            return [Fraction(xr) ** (t % 4) * Fraction(xs) ** (t // 4) for t in range(8)]

        gens = {1: ExactMatrix.diag([zeta(4, 1), zeta(4, 3)]), 4: swap2}
        return [one_dim("triv", vals(1, 1)), one_dim("sgn_s", vals(1, -1)),
                one_dim("sgn_r", vals(-1, 1)), one_dim("sgn_rs", vals(-1, -1)),
                ("std2", dense_images_from_generators(group, gens, 2))]
    assert name == "q8"

    def sign_irrep(label, pos_axes):
        return one_dim(label, [1 if (x // 2) in pos_axes else -1 for x in range(8)])

    gens = {2: ExactMatrix.diag([zeta(4, 1), zeta(4, 3)]),
            4: ExactMatrix.from_entries(2, 2, {(0, 1): -1, (1, 0): 1})}
    return [one_dim("triv", [1] * 8), sign_irrep("chi_i", {0, 1}), sign_irrep("chi_j", {0, 2}),
            sign_irrep("chi_k", {0, 3}), ("spin2", dense_images_from_generators(group, gens, 2))]


@pytest.mark.parametrize("name", ALL_CATALOG)
def test_catalog_images_equal_the_explicit_construction(name):
    # every image read off the generator table equals the explicit one,
    # entry by entry down to each scalar's stored conductor and numerators
    group = load_group(name)
    irreps = catalog_irreps(group)
    oracle = explicit_catalog_images(group)
    assert [rep.label for rep in irreps] == [label for label, _ in oracle]
    for rep, (label, images) in zip(irreps, oracle):
        assert rep.dim == images[0].rows and len(rep.rows) == group.order
        for t, (s, m) in enumerate(zip(rep.rows, images)):
            dense = {(i, j): v for i, row in enumerate(m.data) for j, v in enumerate(row)
                     if not v.is_zero()}
            sparse = {(i, j): v for i, row in enumerate(s.rows) for j, v in row}
            assert sparse.keys() == dense.keys(), (name, label, t)
            for key, v in sparse.items():
                w = dense[key]
                assert (v.n, v.nums, v.den) == (w.n, w.nums, w.den), (name, label, t, key)
        assert rep.images == tuple(images)


def test_verify_irrep_reads_dense_images_and_rows_alike():
    # the same Irrep from dense images and from rows; rows must be
    # canonical, and a misshapen image keeps its error class and message
    s3 = load_group("s3")
    std = next(rep for rep in catalog_irreps(s3) if rep.label == "std")
    assert verify_irrep(s3, std.images, "a").rows == verify_irrep(s3, std.rows, "b").rows == std.rows
    unsorted = list(std.rows)
    unsorted[2] = SparseOperator(2, [[(1, ONE), (0, ONE)], [(0, ONE)]])
    with pytest.raises(DimensionMismatchError, match=r"^row 0 of std image\(2\) has column 0 "):
        verify_irrep(s3, unsorted, "std")
    for wide in (ExactMatrix.zeros(2, 3), SparseOperator(3, [[(0, ONE)]] * 3)):
        with pytest.raises(NotHomomorphismError, match=r"^std: image of element 4 is not 2x2$"):
            verify_irrep(s3, list(std.rows[:4]) + [wide] + list(std.rows[5:]), "std")


def test_s3_element_names_are_cycle_notation():
    # read off perms.FinitePermutation, as ybw catalog prints them
    assert load_group("s3").element_names == ("e", "(2 3)", "(1 2)", "(1 2 3)", "(1 3 2)", "(1 3)")
