"""Generated JSON inputs for the CLI: every one ends in exit 0, 1 or 2.

Each case is a command with the JSON documents it reads.  The documents
follow the file schemas with some fields dropped or replaced by arbitrary
JSON, so both decoding and certification see hostile input.  Sizes stay
small: d <= 3, matrix dimensions <= 9, group order <= 4 and positions
<= 4.  Scalars are rational or cyclotomic, of the catalog's conductors
(up to 12) or of large ones up to io.MAX_CONDUCTOR (840, 997 or 1000,
with a few nonzero coordinates).  Decoding caps the lcm of the
conductors in one file at that limit, so large conductors that mix exit
2 before any product lifts them into a larger field.
"""

import contextlib
import io
import json
import tempfile
from math import lcm
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from ybw.cli import main
from ybw.cyclo import totient
from ybw.io import MAX_CONDUCTOR

leaf = (st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2, 2)
        | st.sampled_from(["", "1", "-1/2", "x", "²", "01"]))
anything = st.recursive(leaf, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)


def rarely(valid, other=anything):
    """Mostly what ``valid`` draws; one time in ten what ``other`` draws."""
    return st.integers(0, 9).flatmap(lambda k: other if k == 9 else valid)


def small(lo, hi):
    return rarely(st.integers(lo, hi))


rational = rarely(st.sampled_from(["0", "1", "-1", "1/2", "-2/3"]))


def coordinates(phi):
    """phi power-basis coordinates; beyond the catalog's fields, zero
    except at up to three drawn places."""
    if phi <= 4:
        return st.lists(rational, min_size=phi, max_size=phi)
    return st.dictionaries(st.integers(0, phi - 1), rational, max_size=3).map(
        lambda nonzero: [nonzero.get(k, "0") for k in range(phi)])


# (N, phi(N)) for conductors the catalog uses and for large ones
fields = st.sampled_from([(n, totient(n)) for n in (1, 3, 4, 8, 12, 840, 997, MAX_CONDUCTOR)])
cyclotomic = fields.flatmap(
    lambda nt: st.fixed_dictionaries({"N": rarely(st.just(nt[0]), small(1, MAX_CONDUCTOR + 1)),
                                      "c": coordinates(nt[1])}))
scalar = st.booleans().flatmap(lambda c: cyclotomic if c else rational)


@st.composite
def mutated(draw, fields):
    """The object ``fields`` draws; one time in three with one key dropped
    or replaced by arbitrary JSON."""
    obj = draw(fields)
    keys = sorted(obj)
    k = draw(st.integers(0, 6 * len(keys) - 1)) - 4 * len(keys)
    if 0 <= k < len(keys):
        del obj[keys[k]]
    elif k >= len(keys):
        obj[keys[k - len(keys)]] = draw(anything)
    return obj


def matrix_fields(dim):
    index = small(0, dim - 1)
    entry = st.tuples(index, index, scalar).map(list)
    return {"dim_rows": rarely(st.just(dim), small(1, 9)),
            "dim_cols": rarely(st.just(dim), small(1, 9)),
            "conductor": small(1, 12),
            "entries": rarely(st.lists(entry, max_size=2 * dim,
                                       unique_by=lambda e: json.dumps(e[:2])))}


def identity_doc(dim):
    return {"dim_rows": dim, "dim_cols": dim, "conductor": 1,
            "entries": [[i, i, "1"] for i in range(dim)]}


@st.composite
def rmatrix_doc(draw):
    d = draw(st.integers(1, 3))
    return draw(mutated(st.fixed_dictionaries(
        {"format": rarely(st.just(1)), "d": rarely(st.just(d), small(1, 3)),
         **matrix_fields(d * d)})))


@st.composite
def couple_doc(draw):
    order, d, w = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    table = [[(a + b) % order for b in range(order)] for a in range(order)]
    group = mutated(st.fixed_dictionaries(
        {"name": rarely(st.just("c")), "order": rarely(st.just(order)),
         "table": rarely(st.just(table),
                         st.lists(st.lists(small(0, 3), max_size=4), max_size=4))}))

    def matrix(dim):
        # the identity reaches the extended reflection equation and characters
        return rarely(st.just(identity_doc(dim)), mutated(st.fixed_dictionaries(matrix_fields(dim))))

    return draw(mutated(st.fixed_dictionaries(
        {"format": rarely(st.just(1)), "group": group, "d": rarely(st.just(d)),
         "w": rarely(st.just(w)), "r": matrix(d * d),
         "pi": rarely(st.lists(matrix(w * d), min_size=order, max_size=order))})))


# pi(t) = 1 for every t: a certified couple over a cyclic group
identity_couple = st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3)).map(
    lambda odw: {"group": {"name": "c", "order": odw[0], "table": [
        [(a + b) % odw[0] for b in range(odw[0])] for a in range(odw[0])]},
        "d": odw[1], "w": odw[2], "r": identity_doc(odw[1] ** 2),
        "pi": [identity_doc(odw[1] * odw[2])] * odw[0]})

positions = st.sampled_from(["1", "2", "3", "4", "0", "-1", "²", "x"])
element_doc = mutated(st.fixed_dictionaries(
    {"colors": rarely(st.dictionaries(positions, small(0, 3), max_size=3)),
     "cycles": rarely(st.lists(st.lists(small(1, 4), max_size=4), max_size=2))}))

labels = st.sampled_from(["triv", "chi1", "chi2", "chi01", "std"])
params_doc = mutated(st.fixed_dictionaries(
    {"format": rarely(st.just(1)),
     "group": rarely(st.sampled_from(["trivial", "z2", "z3", "z4", "klein4", "w"])),
     "a": rarely(st.dictionaries(labels, rarely(st.dictionaries(
         st.sampled_from(["0", "1", "2"]), rarely(st.lists(rational, max_size=3)),
         max_size=2)), max_size=2)),
     "mu": rarely(st.dictionaries(labels, rational, max_size=2))}))

cases = st.one_of(
    st.tuples(st.just("check-rmatrix"), st.fixed_dictionaries({"file": rmatrix_doc()})),
    st.tuples(st.just("params check"), st.fixed_dictionaries({"file": params_doc})),
    st.tuples(st.just("element"), st.fixed_dictionaries({"file": element_doc})),
    st.tuples(st.just("check-couple"), st.fixed_dictionaries({"file": couple_doc()})),
    st.tuples(st.just("char"), st.fixed_dictionaries(
        {"file": rarely(identity_couple, couple_doc()), "element": element_doc})),
)

Z2_COUPLE = {"format": 1, "group": {"name": "z2", "order": 2, "table": [[0, 1], [1, 0]]},
             "d": 1, "w": 1, "r": identity_doc(1), "pi": [identity_doc(1)] * 2}


def twisted_flip_doc(n):
    """The d = 2 flip twisted by zeta_n on e_0 (x) e_1 and by zeta_997^-1 on
    e_1 (x) e_0: an R-matrix for n = 997."""
    zeta_n = {"N": n, "c": ["0", "1"] + ["0"] * (totient(n) - 2)}
    # zeta_997^-1 = zeta_997^996 = -(1 + x + ... + x^995) for x = zeta_997
    inverse = {"N": 997, "c": ["-1"] * 996}
    return {"format": 1, "d": 2, "dim_rows": 4, "dim_cols": 4, "conductor": lcm(n, 997),
            "entries": [[0, 0, "1"], [2, 1, zeta_n], [1, 2, inverse], [3, 3, "1"]]}


def run(command, docs):
    """Exit code, stdout and stderr of the CLI on the documents."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for role, doc in docs.items():
            paths[role] = str(Path(tmp) / f"{role}.json")
            Path(paths[role]).write_text(json.dumps(doc))
        if command == "element":
            argv = ["element", "--group", "z3", "--json", paths["file"],
                    "--decompose", "--invariant"]
        else:
            argv = command.split() + [paths["file"]]
        if command == "char":
            argv += ["--element", paths["element"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(case=cases, expect=st.none())
# each of these once ended in a traceback
@example(case=("params check", {"file": {"group": "z2", "a": []}}), expect=2)
@example(case=("params check", {"file": {"group": "z2", "mu": []}}), expect=2)
@example(case=("element", {"file": {"colors": {"²": 1}}}), expect=2)
@example(case=("check-couple", {"file": {
    **Z2_COUPLE, "group": {"name": "z2", "order": 2, "table": [[0, 1], [1, "a"]]}}}), expect=2)
# each of these once exited 0, reading a boolean as an integer
@example(case=("check-rmatrix", {"file": {
    "format": 1, "d": 1, "dim_rows": 1, "dim_cols": 1, "conductor": 1,
    "entries": [[0, 0, {"N": True, "c": ["1"]}]]}}), expect=2)
@example(case=("element", {"file": {"colors": {"1": True}}}), expect=2)
# a large conductor certifies; two that mix exceed MAX_CONDUCTOR in their lcm
@example(case=("check-rmatrix", {"file": twisted_flip_doc(997)}), expect=0)
@example(case=("check-rmatrix", {"file": twisted_flip_doc(840)}), expect=2)
@example(case=("char", {"file": Z2_COUPLE, "element": {"cycles": [[True, 2]]}}), expect=2)
def test_cli_exits_0_1_or_2_on_generated_json(case, expect):
    code, _, err = run(*case)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: malformed input: ") and err.count("\n") == 1
    else:
        assert err == ""
    if expect is not None:
        assert code == expect
