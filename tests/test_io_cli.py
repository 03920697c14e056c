import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS_PARAM_FILES
from ybw import io as codecs
from ybw.cli import corpus_dir, main
from ybw.construct import build_couple
from ybw.cyclo import CycloScalar, totient, zeta
from ybw.errors import SchemaError
from ybw.groups import CATALOG_NAMES, catalog_irreps, load_group
from ybw.matrix import ExactMatrix, SparseOperator, flip_operator
from ybw.perms import FinitePermutation
from ybw.rmatrix import boxplus, verify_rmatrix
from ybw.rng import Lcg64
from ybw.wreath import WreathElement


# -- codecs ------------------------------------------------------------


def test_rational_strings():
    assert codecs.rational_to_str(Fraction(-3, 4)) == "-3/4"
    assert codecs.rational_to_str(Fraction(5)) == "5"
    assert codecs.rational_from_str("7/2", "t") == Fraction(7, 2)
    for bad in ("0.5", "1e3", "1/0", " 1/2", "1/2 ", "a", 5):
        with pytest.raises(SchemaError):
            codecs.rational_from_str(bad, "t")


@pytest.mark.parametrize("text", ["1/2\n", "\u0661", "-\u0663/4"])
def test_rational_strings_hold_ascii_digits_to_the_end(text):
    # "$" matched before a trailing newline and "\d" matched any Unicode
    # digit, so these decoded to values that other readers refuse
    with pytest.raises(SchemaError, match=r"^t\.c\[0\]: expected a rational string"):
        codecs.rational_from_str(text, "t.c[0]")


def test_scalar_roundtrip():
    for value in (CycloScalar.from_rational(Fraction(2, 7)), zeta(12) - 3, zeta(5, 2) / 2):
        encoded = codecs.scalar_to_json(value)
        assert codecs.scalar_from_json(encoded, "t") == value


def test_scalar_schema_errors():
    with pytest.raises(SchemaError, match="conductor"):
        codecs.scalar_from_json({"c": ["1"]}, "t")
    with pytest.raises(SchemaError):
        codecs.scalar_from_json({"N": 12, "c": ["1"]}, "t")  # wrong length
    with pytest.raises(SchemaError, match=r"^t\.N: conductor .* exceeds"):
        # rejected before phi(N) is computed by trial division
        codecs.scalar_from_json({"N": 1000000000000000003, "c": ["1"]}, "t")
    with pytest.raises(SchemaError, match=r"^t\.N: conductor must be a positive integer, got True"):
        codecs.scalar_from_json({"N": True, "c": ["1"]}, "t")
    with pytest.raises(SchemaError, match=r"^t: Exceeds the limit"):
        codecs.scalar_from_json("1" * 5000, "t")


def test_matrix_roundtrip():
    rng = Lcg64(7)
    m = ExactMatrix.zeros(4, 4)
    for i in range(4):
        for j in range(4):
            if rng.below(2):
                m.data[i][j] = (rng.below(7) - 3) * zeta(8, rng.below(8))
    encoded = codecs.matrix_to_json(m)
    assert codecs.matrix_from_json(encoded, "t") == SparseOperator.from_dense(m)
    # canonical encoding is stable under a re-encode
    again = codecs.matrix_to_json(codecs.matrix_from_json(encoded, "t"))
    assert codecs.dumps(encoded) == codecs.dumps(again)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decoded_rows_equal_the_rows_of_a_dense_oracle(data):
    # entries arrive in any order, some of them explicit zeros; the reader
    # returns canonical rows, which must equal the dense matrix filled here
    # read into rows
    n = data.draw(st.integers(1, 6))
    cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               unique=True, max_size=n * n))
    m = ExactMatrix.zeros(n, n)
    entries = []
    for i, j in cells:
        num, den, k = data.draw(st.tuples(st.integers(-2, 2), st.integers(1, 3), st.integers(0, 7)))
        m.data[i][j] = Fraction(num, den) * zeta(8, k)
        entries.append([i, j, codecs.scalar_to_json(m.data[i][j])])
    obj = {"dim_rows": n, "dim_cols": n, "conductor": 8, "entries": entries}
    assert codecs.matrix_from_json(obj, "t") == SparseOperator.from_dense(m)


def test_a_matrix_that_is_not_square_is_refused_by_the_reader_and_the_writer(tmp_path, capsys):
    # R and every pi and irrep image are square; a 1 x 2 R-matrix file once
    # reached certification and exited 1
    obj = {"dim_rows": 1, "dim_cols": 2, "conductor": 1, "entries": [[0, 1, "1"]]}
    with pytest.raises(SchemaError) as read:
        codecs.matrix_from_json(obj, "m")
    with pytest.raises(SchemaError) as written:
        codecs.matrix_to_json(ExactMatrix.zeros(1, 2), "m")
    assert str(read.value) == str(written.value) == "m: a 1 x 2 matrix is not square"
    path = tmp_path / "r.json"
    path.write_text(json.dumps({**obj, "d": 1}))
    assert run_cli(capsys, "check-rmatrix", str(path)) == (
        2, "", f"error: malformed input: {path}: a 1 x 2 matrix is not square\n")


def test_matrix_schema_errors():
    with pytest.raises(SchemaError, match="missing"):
        codecs.matrix_from_json({"dim_rows": 2, "dim_cols": 2, "entries": []}, "t")
    base = {"dim_rows": 2, "dim_cols": 2, "conductor": 1}
    with pytest.raises(SchemaError, match="out of range"):
        codecs.matrix_from_json({**base, "entries": [[2, 0, "1"]]}, "t")
    with pytest.raises(SchemaError, match="duplicate"):
        codecs.matrix_from_json({**base, "entries": [[0, 0, "1"], [0, 0, "2"]]}, "t")
    with pytest.raises(SchemaError, match="rational"):
        codecs.matrix_from_json({**base, "entries": [[0, 0, "0.5"]]}, "t")
    with pytest.raises(SchemaError, match=r"^t: dimensions 100000 x 100000 exceed"):
        # rejected before the dense matrix is allocated
        codecs.matrix_from_json({**base, "dim_rows": 10 ** 5, "dim_cols": 10 ** 5,
                                 "entries": []}, "t")
    # JSON booleans are not integers
    with pytest.raises(SchemaError, match=r"^t: bad dimensions True x 2"):
        codecs.matrix_from_json({**base, "dim_rows": True, "entries": []}, "t")
    with pytest.raises(SchemaError, match=r"^t\.conductor: "):
        codecs.matrix_from_json({**base, "conductor": True, "entries": []}, "t")
    with pytest.raises(SchemaError, match=r"^t\.entries\[0\]: index \(True,0\) out of range"):
        codecs.matrix_from_json({**base, "entries": [[True, 0, "1"]]}, "t")
    with pytest.raises(SchemaError, match=r"^t: missing or bad field 'd'"):
        codecs.rmatrix_file_from_json({**base, "d": True, "entries": []}, "t")
    with pytest.raises(SchemaError, match=r"^t\.format: "):
        codecs.rmatrix_file_from_json({**base, "format": True, "d": 1, "entries": []}, "t")


def test_group_and_irrep_roundtrip():
    g = load_group("s3")
    back = codecs.group_from_json(codecs.group_to_json(g), "t")
    assert back.table == g.table


def test_element_roundtrip():
    g = load_group("s3")
    elt = WreathElement(g, {1: 3, 5: 2}, FinitePermutation.from_cycles([[1, 2], [4, 6, 5]]))
    back = codecs.element_from_json(codecs.element_to_json(elt), g, "t")
    assert back == elt


def test_element_schema_errors():
    g = load_group("s3")
    with pytest.raises(SchemaError, match="out of range"):
        codecs.element_from_json({"colors": {"1": 9}, "cycles": []}, g, "t")
    with pytest.raises(SchemaError, match="cycle"):
        codecs.element_from_json({"colors": {}, "cycles": [[3]]}, g, "t")
    with pytest.raises(SchemaError, match="disjoint"):
        codecs.element_from_json({"colors": {}, "cycles": [[1, 2], [2, 3]]}, g, "t")
    # "²".isdigit() holds, but int("²") raises
    with pytest.raises(SchemaError, match=r"^t\.colors\.²: positions are positive integers"):
        codecs.element_from_json({"colors": {"²": 1}}, g, "t")
    with pytest.raises(SchemaError, match=r"^t\.colors\.1: color index True out of range"):
        codecs.element_from_json({"colors": {"1": True}}, g, "t")
    with pytest.raises(SchemaError, match=r"^t\.cycles\[0\]: "):
        codecs.element_from_json({"cycles": [[True, 2]]}, g, "t")


@pytest.mark.parametrize("field", ["a", "mu"])
def test_params_schema_errors(field):
    with pytest.raises(SchemaError, match=rf"^t\.{field}: expected an object"):
        codecs.params_from_json({"group": "z2", field: []}, "t")


def zeta_json(n):
    """zeta_n as a JSON scalar."""
    return {"N": n, "c": ["0", "1"] + ["0"] * (totient(n) - 2)}


def test_conductor_lcm_is_bounded_over_a_couple_file():
    # one bound spans R and every pi image: 8 in R and 250 in pi(1) give
    # 1000, then 9 in pi(2) pushes the lcm to 9000
    def one_by_one(value):
        return {"dim_rows": 1, "dim_cols": 1, "conductor": 1, "entries": [[0, 0, value]]}

    obj = {"group": codecs.group_to_json(load_group("z3")), "d": 1, "w": 1,
           "r": one_by_one(zeta_json(8)),
           "pi": [one_by_one("1"), one_by_one(zeta_json(250)), one_by_one(zeta_json(250))]}
    codecs.couple_file_from_json(obj, "t")
    obj["pi"][2] = one_by_one(zeta_json(9))
    with pytest.raises(SchemaError, match=r"^t\.pi\[2\]\.entries\[0\]: conductor 9 raises "
                                          r"the lcm of the file's conductors to 9000"):
        codecs.couple_file_from_json(obj, "t")


def test_couple_schema_errors():
    obj = codecs.couple_file_to_json(load_group("z2"), 1, 1, ExactMatrix.identity(1),
                                     [ExactMatrix.identity(1)] * 2)
    table = obj["group"]["table"]
    for path, bad, witness in [
        ("t.group.table[1]", {**obj, "group": {**obj["group"], "table": [table[0], ["a", 0]]}},
         "expected a list of element indices, got ['a', 0]"),
        ("t.group.table[1]", {**obj, "group": {**obj["group"], "table": [table[0], "ab"]}},
         "expected a list of element indices, got 'ab'"),
        ("t.group.table", {**obj, "group": {**obj["group"], "order": True, "table": [[0]]}},
         "table size does not match order"),
        ("t", {**obj, "w": True}, "'d' and 'w' must be positive integers"),
    ]:
        with pytest.raises(SchemaError, match=f"^{re.escape(path)}: {re.escape(witness)}"):
            codecs.couple_file_from_json(bad, "t")


def test_read_json_file_errors(tmp_path):
    cases = [(b'{"d": ' + b"1" * 5000 + b"}", "Exceeds the limit"),
             (b"[" * 100000 + b"]" * 100000, "maximum recursion depth"),
             (b"\xff\xfe\x00", "cannot read file")]
    for k, (raw, witness) in enumerate(cases):
        path = tmp_path / f"{k}.json"
        path.write_bytes(raw)
        with pytest.raises(SchemaError, match=witness):
            codecs.read_json_file(path)


def test_json_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    # JSON is UTF-8; under an ASCII locale a "χ" in a valid file was a
    # decoding error and exit 2
    params = codecs.read_json_file(corpus_dir() / "z2_half_half.params.json")
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**params, "note": "\u03c7"}, ensure_ascii=False), encoding="utf-8")
    src = Path(codecs.__file__).resolve().parents[1]
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "ybw.cli", "params", "check", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "PASS yb admissible: minimal_d=2" in done.stdout


def test_format_version_rejected():
    with pytest.raises(SchemaError, match="format"):
        codecs.params_from_json({"format": 2, "group": "z2"}, "t")


def test_couple_roundtrip(tmp_path):
    from ybw.construct import build_couple
    p = codecs.params_from_json(codecs.read_json_file(corpus_dir() / "z3_eps_mix.params.json"), "t")
    couple, _ = build_couple(p)
    obj = codecs.couple_file_to_json(couple.group, couple.d, couple.w, couple.r.m,
                                     list(couple.pi))
    group, d, w, r, pi = codecs.couple_file_from_json(obj, "t")
    assert group.table == couple.group.table and d == couple.d and w == couple.w
    assert r == couple.r.sparse and tuple(pi) == couple.pi_rows
    assert codecs.dumps(obj) == codecs.dumps(
        codecs.couple_file_to_json(group, d, w, r, pi))


# -- RNG determinism ----------------------------------------------------


def test_lcg_fixed_constants():
    rng = Lcg64(1)
    first = rng.next_value()
    assert first == ((6364136223846793005 * 1 + 1442695040888963407) % 2 ** 64) >> 33
    assert Lcg64(1).next_value() == first


def test_sampler_reproducible():
    g = load_group("s3")
    a = [repr(Lcg64(99).wreath_element(g, 1, 5)) for _ in range(3)]
    b = [repr(Lcg64(99).wreath_element(g, 1, 5)) for _ in range(3)]
    assert a == b


# -- CLI ----------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert "end to end" in out


def test_cli_thoma(capsys):
    path = str(corpus_dir() / "flip2.rmatrix.json")
    code, out, _ = run_cli(capsys, "thoma", path)
    assert code == 0
    assert "alpha=[1/2, 1/2]" in out


def test_cli_json_format_deterministic(capsys):
    path = str(corpus_dir() / "flip2.rmatrix.json")
    code, out1, _ = run_cli(capsys, "--format", "json", "check-rmatrix", path)
    assert code == 0
    parsed = json.loads(out1)
    assert parsed["exit_code"] == 0
    assert parsed["findings"][0]["verdict"] == "pass"
    assert list(parsed["inputs"].values())[0].isalnum()
    _, out2, _ = run_cli(capsys, "--format", "json", "check-rmatrix", path)
    assert out1 == out2


def test_cli_flag_after_subcommand(capsys):
    path = str(corpus_dir() / "flip2.rmatrix.json")
    code, out, _ = run_cli(capsys, "check-rmatrix", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["command"] == "check-rmatrix"


def test_cli_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 2, "dim_rows": 4, "dim_cols": 4, "entries": []}')
    code, _, err = run_cli(capsys, "check-rmatrix", str(bad))
    assert code == 2
    assert "conductor" in err
    bad.write_text("not json")
    code, _, err = run_cli(capsys, "thoma", str(bad))
    assert code == 2
    assert "bad.json:1" in err



@pytest.mark.parametrize("command", ["hirai-char", "element"])
def test_cli_a_position_written_two_ways_is_malformed_input(tmp_path, capsys, command):
    # "1" and "01" were both read as position 1, the last value winning
    elt = tmp_path / "e.json"
    elt.write_text(json.dumps({"colors": {"1": 1, "01": 2}, "cycles": []}))
    argv = (["hirai-char", str(corpus_dir() / "s3_std.params.json"), "--element", str(elt)]
            if command == "hirai-char" else ["element", "--group", "s3", "--json", str(elt)])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"error: malformed input: {elt}.colors.01: position 1 must be written '1', "
                   "without leading zeros\n")
    with pytest.raises(SchemaError, match=r"^t\.colors\.007: position 7 must be written '7'"):
        codecs.element_from_json({"colors": {"007": 1}}, load_group("s3"), "t")


@pytest.mark.parametrize("kind", ["element", "params", "rmatrix", "couple"])
def test_cli_a_key_repeated_in_one_object_is_malformed_input(tmp_path, capsys, kind):
    # json.loads keeps the last value of a repeated key, so each of these
    # files was read as if its first value were not there
    bad, elt = tmp_path / "bad.json", tmp_path / "e.json"
    elt.write_text('{"cycles": [[1, 2]]}')
    params = str(corpus_dir() / "z2_half_half.params.json")
    flip = (corpus_dir() / "flip2.rmatrix.json").read_text()
    raw, argv = {
        "element": ('{"colors": {"1": 1, "1": 2}, "cycles": []}',
                    ["hirai-char", params, "--element", str(bad)]),
        "params": ('{"group": "z2", "group": "s3", "a": {}}', ["hirai-char", str(bad), "--element", str(elt)]),
        "rmatrix": (flip.replace('"d": 2', '"d": 2, "d": 3', 1), ["thoma", str(bad)]),
        "couple": (None, ["check-couple", str(bad)]),
    }[kind]
    if kind == "couple":
        built = tmp_path / "c.json"
        assert run_cli(capsys, "build", params, "--out", str(built))[0] == 0
        raw = built.read_text().replace('"w": 1', '"w": 1, "w": 1', 1)
    bad.write_text(raw)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert re.fullmatch(rf"error: malformed input: {re.escape(str(bad))}: key '[a-z1]+' is repeated in "
                        r"one object\n", err), err

def test_cli_failed_verification_exits_1(tmp_path, capsys):
    bad = tmp_path / "diag.json"
    bad.write_text(json.dumps({
        "format": 1, "d": 2, "dim_rows": 4, "dim_cols": 4, "conductor": 1,
        "entries": [[0, 0, "1"], [1, 1, "1"], [2, 2, "1"], [3, 3, "-1"]]}))
    code, out, _ = run_cli(capsys, "check-rmatrix", str(bad))
    assert code == 1
    assert "FAIL" in out and "braid" in out


def test_cli_build_and_char(tmp_path, capsys):
    params = str(corpus_dir() / "z2_half_half.params.json")
    out_file = tmp_path / "couple.json"
    code, _, _ = run_cli(capsys, "build", params, "--out", str(out_file))
    assert code == 0
    elt = tmp_path / "elt.json"
    elt.write_text(json.dumps({"colors": {"1": 1}, "cycles": []}))
    code, out, _ = run_cli(capsys, "char", str(out_file), "--element", str(elt))
    assert code == 0 and "character: 0" in out
    code, out, _ = run_cli(capsys, "hirai-char", params, "--element", str(elt))
    assert code == 0 and "0" in out
    code, out, _ = run_cli(capsys, "check-couple", str(out_file))
    assert code == 0


def test_cli_char_rejects_an_image_above_the_limit(tmp_path, capsys):
    # q8 builds d = 4 and a character is evaluated on |supp| factors, so 9
    # colored positions ask for a 4^9-dimensional image; it is refused before
    # anything is allocated
    params = str(corpus_dir() / "q8_2dim.params.json")
    out_file = tmp_path / "couple.json"
    code, _, _ = run_cli(capsys, "build", params, "--out", str(out_file))
    assert code == 0
    elt = tmp_path / "elt.json"
    elt.write_text(json.dumps({"colors": {str(10 * k): 2 for k in range(1, 10)}, "cycles": []}))
    code, out, _ = run_cli(capsys, "char", str(out_file), "--element", str(elt))
    assert code == 1
    assert "FAIL verification" in out and "w*d^n = 1*4^9" in out and "MAX_OPERATOR_DIM" in out
    # a single color anywhere is evaluated on one factor
    elt.write_text(json.dumps({"colors": {"40": 2}, "cycles": []}))
    code, out, _ = run_cli(capsys, "char", str(out_file), "--element", str(elt))
    assert code == 0 and "PASS character: 1/2 = 0.5" in out


def test_cli_char_at_a_huge_position_on_a_one_dimensional_couple(tmp_path, capsys):
    # d = 1 passes the image limit at every level; a color at position
    # 200000 once put 2 * 199999 gates in the word and ran past 20 s
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"group": "z2", "a": {"triv": {"0": ["1"]}}, "mu": {}}))
    out_file = tmp_path / "couple.json"
    code, out, _ = run_cli(capsys, "build", str(params), "--out", str(out_file))
    assert code == 0 and "d=1" in out
    elt = tmp_path / "elt.json"
    elt.write_text(json.dumps({"colors": {"200000": 1}}))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "char", str(out_file), "--element", str(elt))
    assert code == 0 and "PASS character: 1 = 1" in out
    assert time.perf_counter() - start < 5


def test_cli_char_refuses_a_level_above_the_limit_on_a_one_dimensional_couple(tmp_path, capsys):
    # d = 1 passes the dimension limit at every level, while the word grows
    # as the square of the level: 1,600 colored positions once took 5 s
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"group": "z2", "a": {"chi1": {"0": ["1"]}}, "mu": {}}))
    out_file = tmp_path / "couple.json"
    code, out, _ = run_cli(capsys, "build", str(params), "--out", str(out_file))
    assert code == 0 and "d=1" in out
    elt = tmp_path / "elt.json"
    elt.write_text(json.dumps({"colors": {str(p): 1 for p in range(1, 5001)}}))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "char", str(out_file), "--element", str(elt))
    assert code == 1
    assert "FAIL verification" in out and "level n = 5000, above the limit MAX_LEVEL = 16" in out
    assert time.perf_counter() - start < 1


def test_cli_rejects_a_file_whose_conductor_lcm_exceeds_the_limit(tmp_path, capsys):
    # zeta_997 and zeta_991 are each under MAX_CONDUCTOR, but their first
    # product would build Q(zeta_988027): a MemoryError after 36 s before
    bad = tmp_path / "r.json"
    bad.write_text(json.dumps({"d": 2, "dim_rows": 4, "dim_cols": 4, "conductor": 1,
                               "entries": [[0, 0, zeta_json(997)], [0, 1, zeta_json(991)],
                                           [1, 1, "1"], [2, 2, "1"], [3, 3, "1"]]}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "check-rmatrix", str(bad))
    assert code == 2 and out == ""
    assert err == (f"error: malformed input: {bad}.entries[1]: conductor 991 raises the lcm "
                   "of the file's conductors to 988027, above the limit 1000\n")
    assert time.perf_counter() - start < 5


def test_cli_verify_theorem(capsys):
    params = str(corpus_dir() / "s3_std.params.json")
    code, out, _ = run_cli(capsys, "verify-theorem", params, "--samples", "15", "--seed", "7")
    assert code == 0
    assert "15 sampled elements agree exactly" in out


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_cli_verify_theorem_rejects_no_samples(capsys, samples):
    # a check over no sampled elements would pass with nothing checked
    params = str(corpus_dir() / "z2_half_half.params.json")
    code, out, err = run_cli(capsys, "verify-theorem", params, "--samples", samples)
    assert code == 2 and out == ""
    assert err == f"error: malformed input: --samples: must be a positive integer, got {samples}\n"


@pytest.mark.parametrize("command", ["build", "verify-theorem"])
@pytest.mark.parametrize("d", ["0", "-2"])
def test_cli_rejects_a_dimension_below_one(tmp_path, capsys, command, d):
    # --d 0 divided by zero and --d -2 reported a failed R^2 check
    params = str(corpus_dir() / "z2_half_half.params.json")
    extra = ["--out", str(tmp_path / "c.json")] if command == "build" else []
    code, out, err = run_cli(capsys, command, params, "--d", d, *extra)
    assert code == 2 and out == ""
    assert err == f"error: malformed input: --d: must be a positive integer, got {d}\n"


@pytest.mark.parametrize("command", ["build", "verify-theorem"])
def test_cli_rejects_a_dimension_whose_rmatrix_exceeds_the_matrix_limit(tmp_path, capsys, command):
    # build once made the couple and its dense R (d^4 entries) before the
    # writer refused it, and verify-theorem had no bound at all
    params = str(corpus_dir() / "z2_half_half.params.json")
    out_file = tmp_path / "c.json"
    extra = ["--out", str(out_file)] if command == "build" else []
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, params, "--d", "100000", *extra)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and not out_file.exists()
    path = f"{out_file}.r" if command == "build" else "--d"
    assert err == (f"error: malformed input: {path}: dimensions 10000000000 x 10000000000 "
                   f"exceed the limit {codecs.MAX_MATRIX_DIM}\n")


def test_cli_verify_theorem_samples_fewer_positions_where_d_needs_it(capsys):
    # at d = 12 an element with 5 colored cycles needs 12^5 dimensions,
    # above MAX_OPERATOR_DIM, so the sampler stays on positions 1..4
    params = str(corpus_dir() / "q8_2dim.params.json")
    code, out, _ = run_cli(capsys, "verify-theorem", params, "--d", "12", "--samples", "20")
    assert code == 0 and "FAIL" not in out
    assert ("20 sampled elements over positions 1..4 agree exactly "
            "(d^5 is above MAX_OPERATOR_DIM)") in out


def long_cycle(tmp_path, length, colors=None):
    elt = tmp_path / f"cycle{length}.json"
    elt.write_text(json.dumps({"colors": colors or {}, "cycles": [list(range(1, length + 1))]}))
    return str(elt)


@pytest.fixture
def z3_couple_file(tmp_path, capsys):
    out_file = tmp_path / "z3.json"
    code, _, _ = run_cli(capsys, "build", str(corpus_dir() / "z3_eps_mix.params.json"),
                         "--out", str(out_file))
    assert code == 0
    return str(out_file)


@pytest.mark.parametrize("command, colors", [("char", None), ("char", {"1": 1}),
                                             ("hirai-char", None), ("hirai-char", {"1": 1})])
def test_cli_refuses_a_value_past_the_printable_digits(tmp_path, capsys, z3_couple_file,
                                                       command, colors):
    # a 20,000-cycle has a value of about 6,000 digits: hirai-char ended in
    # a ValueError traceback from CycloScalar.__str__, and char computes
    # T^19999 from halves instead of one product at a time
    elt = long_cycle(tmp_path, 20000, colors)
    source = z3_couple_file if command == "char" else str(corpus_dir() / "z3_eps_mix.params.json")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, source, "--element", elt)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (f"error: malformed input: {elt}: the value has a numerator or denominator of "
                   "more than 4000 digits, the limit MAX_VALUE_DIGITS\n")


def test_cli_refuses_a_tiny_entry_raised_to_a_cycle(tmp_path, capsys):
    # one entry 1/10^100 and a 50-cycle: a 5,000-digit denominator, once a
    # traceback; as admissible parameters it asks for d = 10^100 instead
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"group": "z2", "a": {"triv": {"0": ["1/1" + "0" * 100]}}}))
    elt = long_cycle(tmp_path, 50)
    code, out, err = run_cli(capsys, "hirai-char", str(params), "--element", elt)
    assert code == 2 and out == "" and "more than 4000 digits, the limit MAX_VALUE_DIGITS" in err
    params.write_text(json.dumps({"group": "z2", "a": {"triv": {"0": ["9" * 100 + "/1" + "0" * 100,
                                                                      "1/1" + "0" * 100]}}}))
    for argv in (["verify-theorem", str(params)], ["build", str(params), "--out", str(tmp_path / "c")]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and f"exceed the limit {codecs.MAX_MATRIX_DIM}" in err, argv


@pytest.mark.parametrize("element", [{"cycles": [list(range(1, 200001))]},
                                     {"colors": {str(p): 1 for p in range(1, 50001)}}],
                         ids=["cycle", "fixed points"])
def test_cli_refuses_a_tiny_entry_on_a_long_support_at_once(tmp_path, capsys, element):
    # the 146-byte file with one entry 1/10^100 and one 200,000-cycle took
    # 25.8 s to exit 2: (1/10^100)^200000 was formed before the digit limit
    # applied, as the product over colored fixed points was
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"group": "z2", "a": {"triv": {"0": ["1/1" + "0" * 100]}}}))
    elt = tmp_path / "e.json"
    elt.write_text(json.dumps(element))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "hirai-char", str(params), "--element", str(elt))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (f"error: malformed input: {elt}: the value has a numerator or denominator of "
                   "more than 4000 digits, the limit MAX_VALUE_DIGITS\n")


def test_cli_prints_a_value_past_the_float_range(tmp_path, capsys, z3_couple_file):
    # a 1,100-cycle on z3_eps_mix has the value 1/3^1100, whose 525 digits
    # to_complex once turned into an OverflowError traceback
    elt = long_cycle(tmp_path, 1100)
    values = []
    for command, source in (("char", z3_couple_file),
                            ("hirai-char", str(corpus_dir() / "z3_eps_mix.params.json"))):
        code, out, _ = run_cli(capsys, command, source, "--element", elt)
        assert code == 0
        values.append(re.fullmatch(r"PASS [a-z ]+: (1/\d+) = 0\+0j\n", out).group(1))
    assert values[0] == values[1] == f"1/{3 ** 1100}"


def test_cli_element(tmp_path, capsys):
    elt = tmp_path / "e.json"
    elt.write_text(json.dumps({"colors": {"1": 3, "5": 2}, "cycles": [[1, 2, 3], [6, 7]]}))
    code, out, _ = run_cli(capsys, "element", "--group", "s3", "--json", str(elt),
                           "--decompose", "--invariant")
    assert code == 0
    assert "elementary" in out and "cyclic" in out and "invariant" in out


def test_cli_element_without_a_flag_reports_both_views(tmp_path, capsys):
    # with neither --decompose nor --invariant it printed nothing and
    # exited 0, a pass with nothing checked
    elt = tmp_path / "e.json"
    elt.write_text(json.dumps({"colors": {"1": 3, "5": 2}, "cycles": [[1, 2, 3], [6, 7]]}))
    for fmt in ("text", "json"):
        argv = ["--format", fmt, "element", "--group", "s3", "--json", str(elt)]
        plain = run_cli(capsys, *argv)
        assert plain == run_cli(capsys, *argv, "--decompose", "--invariant"), fmt
        assert plain[0] == 0 and "recomposition" in plain[1] and "conjugacy invariant" in plain[1]


def test_cli_boxplus(tmp_path, capsys):
    flip = str(corpus_dir() / "flip2.rmatrix.json")
    out_file = tmp_path / "sum.json"
    code, out, _ = run_cli(capsys, "boxplus", flip, flip, "--out", str(out_file))
    assert code == 0
    assert "alpha=[1/4, 1/4, 1/4, 1/4]" in out
    d, m = codecs.rmatrix_file_from_json(codecs.read_json_file(out_file), "t")
    assert d == 4 and m.dim == 16
    # the writer reads the dense matrix that RMatrix.m builds from the rows
    d2, m2 = codecs.rmatrix_file_from_json(codecs.read_json_file(flip), "t")
    flip2 = verify_rmatrix(m2, d2)
    assert verify_rmatrix(m, d).sparse == boxplus(flip2, flip2).sparse


def test_cli_build_refuses_to_write_what_check_couple_refuses(tmp_path, capsys):
    # at d = 34 the R matrix is 1156 x 1156, above the reader's limit, so
    # the writer refuses it too and no file is left behind
    params = str(corpus_dir() / "z2_half_half.params.json")
    out_file = tmp_path / "couple.json"
    code, _, err = run_cli(capsys, "build", params, "--d", "34", "--out", str(out_file))
    assert code == 2 and not out_file.exists()
    assert err == (f"error: malformed input: {out_file}.r: dimensions 1156 x 1156 exceed the limit "
                   f"{codecs.MAX_MATRIX_DIM}\n")
    # d = 32 is the largest that fits, and it still round-trips
    code, _, _ = run_cli(capsys, "build", params, "--d", "32", "--out", str(out_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "check-couple", str(out_file))
    assert code == 0 and "d=32" in out


def test_cli_boxplus_refuses_to_write_what_its_reader_refuses(tmp_path, capsys):
    files = []
    for d in (16, 17):
        files.append(tmp_path / f"flip{d}.json")
        codecs.write_json_file(files[-1], codecs.rmatrix_file_to_json(d, flip_operator(d, d)))
    out_file = tmp_path / "sum.json"
    code, _, err = run_cli(capsys, "boxplus", *map(str, files), "--out", str(out_file))
    assert code == 2 and not out_file.exists()
    assert err == (f"error: malformed input: {out_file}: dimensions 1089 x 1089 exceed the limit "
                   f"{codecs.MAX_MATRIX_DIM}\n")


def test_matrix_writer_refuses_a_matrix_above_the_limit():
    big = codecs.MAX_MATRIX_DIM + 1
    with pytest.raises(SchemaError, match=rf"^m: dimensions {big} x 1 exceed the limit "):
        codecs.matrix_to_json(ExactMatrix.zeros(big, 1), "m")
    assert codecs.matrix_to_json(SparseOperator.identity(codecs.MAX_MATRIX_DIM))["dim_cols"] == \
        codecs.MAX_MATRIX_DIM


def test_cli_params_check(capsys):
    path = str(corpus_dir() / "z3_eps_mix.params.json")
    code, out, _ = run_cli(capsys, "params", "check", path)
    assert code == 0
    assert "minimal_d=3" in out and "alpha=[1/3, 1/3] beta=[1/3]" in out


def test_cli_catalog(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "s3" in out and "q8" in out and "std" in out


@pytest.fixture
def dense_calls(monkeypatch):
    """Counts of ExactMatrix constructions and products and of
    SparseOperator.to_dense calls, by patching the classes."""
    counts = {"construct": 0, "multiply": 0, "to_dense": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ExactMatrix, "__init__", counted("construct", ExactMatrix.__init__))
    monkeypatch.setattr(ExactMatrix, "__mul__", counted("multiply", ExactMatrix.__mul__))
    monkeypatch.setattr(SparseOperator, "to_dense", counted("to_dense", SparseOperator.to_dense))
    SparseOperator.identity(2).to_dense() * ExactMatrix.identity(2)  # the patches are live
    assert counts == {"construct": 3, "multiply": 1, "to_dense": 1}
    counts.update(construct=0, multiply=0, to_dense=0)
    return counts


def test_no_dense_matrix_between_a_params_file_and_a_couple_file(tmp_path, capsys, dense_calls):
    for name in CATALOG_NAMES:
        catalog_irreps(load_group(name))
    for name in CORPUS_PARAM_FILES:
        path = str(corpus_dir() / name)
        build_couple(codecs.params_from_json(codecs.read_json_file(path), name))
        for extra in ([], ["--d", "12"]):
            out_file = tmp_path / f"{name}.{len(extra)}.json"
            assert run_cli(capsys, "build", path, "--out", str(out_file), *extra)[0] == 0
        assert run_cli(capsys, "params", "check", path)[0] == 0
    assert run_cli(capsys, "catalog")[0] == 0
    assert dense_calls == {"construct": 0, "multiply": 0, "to_dense": 0}


def test_no_cli_command_builds_a_dense_matrix(tmp_path, capsys, dense_calls):
    # every reader returns rows, so no command makes a dense matrix between
    # its files and its verdict
    flip = str(corpus_dir() / "flip2.rmatrix.json")
    total = str(tmp_path / "sum.json")
    elt = tmp_path / "elt.json"
    elt.write_text(json.dumps({"colors": {"1": 1, "4": 1}, "cycles": [[1, 2, 3]]}))
    runs = [["catalog"], ["selftest"], ["check-rmatrix", flip], ["thoma", flip],
            ["boxplus", flip, flip, "--out", total], ["check-rmatrix", total]]
    for name in CORPUS_PARAM_FILES:
        path = str(corpus_dir() / name)
        couple, couple12 = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.12.json")
        runs += [["params", "check", path], ["hirai-char", path, "--element", str(elt)],
                 ["build", path, "--out", couple], ["build", path, "--d", "12", "--out", couple12],
                 ["check-couple", couple], ["check-couple", couple12],
                 ["char", couple, "--element", str(elt)],
                 ["verify-theorem", path, "--samples", "3"]]
    for argv in runs:
        assert run_cli(capsys, *argv)[0] == 0, argv
    assert dense_calls == {"construct": 0, "multiply": 0, "to_dense": 0}


def test_couple_writer_reads_rows_as_it_reads_the_dense_views(corpus_params):
    for name, p in corpus_params.items():
        for d in (None, 12):
            c, _ = build_couple(p, d)
            rows = codecs.couple_file_to_json(c.group, c.d, c.w, c.r.sparse, c.pi_rows, "c")
            assert codecs.dumps(rows) == codecs.dumps(
                codecs.couple_file_to_json(c.group, c.d, c.w, c.r.m, c.pi, "c")), (name, d)


@pytest.mark.parametrize("command", ["element", "hirai-char", "char"])
def test_cli_refuses_a_position_key_with_more_digits_than_int_converts(tmp_path, capsys, command):
    # int() of a 5,000-digit key raised an uncaught ValueError: a traceback
    # and exit 1
    params = str(corpus_dir() / "z2_half_half.params.json")
    elt = tmp_path / "elt.json"
    elt.write_text(json.dumps({"colors": {"9" * 5000: 1}, "cycles": []}))
    if command == "element":
        argv = ["element", "--group", "z2", "--json", str(elt)]
    elif command == "hirai-char":
        argv = ["hirai-char", params, "--element", str(elt)]
    else:
        couple = tmp_path / "couple.json"
        assert run_cli(capsys, "build", params, "--out", str(couple))[0] == 0
        argv = ["char", str(couple), "--element", str(elt)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: malformed input: {elt}.colors: Exceeds the limit ")


@pytest.mark.parametrize("command", ["build", "verify-theorem"])
def test_cli_refuses_params_whose_minimal_rmatrix_exceeds_the_matrix_limit(tmp_path, capsys, command):
    # the cap applied to an explicit --d only, so a params file of minimal
    # d = 1000 built and certified R before anything refused it
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"group": "z1", "a": {"triv": {"0": ["1/1000"] * 1000}}}))
    out_file = tmp_path / "c.json"
    extra = ["--out", str(out_file)] if command == "build" else []
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, str(params), *extra)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and not out_file.exists()
    path = f"{out_file}.r" if command == "build" else str(params)
    assert err == (f"error: malformed input: {path}: dimensions 1000000 x 1000000 "
                   f"exceed the limit {codecs.MAX_MATRIX_DIM}\n")


@pytest.mark.parametrize("case", ["missing rmatrix", "directory rmatrix", "missing element",
                                  "build --out", "boxplus --out"])
def test_cli_file_system_errors_exit_2_with_the_path(tmp_path, capsys, case):
    # each printed an OSError traceback and exited 1, the writers after all
    # their work
    params = str(corpus_dir() / "z2_half_half.params.json")
    flip = str(corpus_dir() / "flip2.rmatrix.json")
    missing = str(tmp_path / "missing" / "x.json")
    if case == "missing rmatrix":
        argv = ["check-rmatrix", missing]
    elif case == "directory rmatrix":
        missing = str(tmp_path)
        argv = ["check-rmatrix", missing]
    elif case == "missing element":
        couple = tmp_path / "couple.json"
        assert run_cli(capsys, "build", params, "--out", str(couple))[0] == 0
        argv = ["char", str(couple), "--element", missing]
    elif case == "build --out":
        argv = ["build", params, "--out", missing]
    else:
        argv = ["boxplus", flip, flip, "--out", missing]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: malformed input: {missing}: cannot ")
    assert "Traceback" not in err


CATALOG = ", ".join(CATALOG_NAMES)


@pytest.mark.parametrize("command", ["params check", "hirai-char", "build", "verify-theorem", "element"])
def test_cli_a_group_outside_the_catalog_is_malformed_input(tmp_path, capsys, command):
    # each reported a failed verification and exited 1
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"group": "nope"}))
    elt = tmp_path / "elt.json"
    elt.write_text(json.dumps({"colors": {"1": 1}}))
    argv = {"params check": ["params", "check", str(params)],
            "hirai-char": ["hirai-char", str(params), "--element", str(elt)],
            "build": ["build", str(params), "--out", str(tmp_path / "c.json")],
            "verify-theorem": ["verify-theorem", str(params)],
            "element": ["element", "--group", "nope", "--json", str(elt)]}[command]
    code, out, err = run_cli(capsys, *argv)
    path = "--group" if command == "element" else f"{params}.group"
    assert code == 2 and out == ""
    assert err == f"error: malformed input: {path}: unknown group 'nope'; catalog: {CATALOG}\n"


@pytest.mark.parametrize("field, value, witness", [
    ("a", {"zzz": {"0": ["1"]}}, "unknown irrep label 'zzz'"),
    ("mu", {"zzz": "1/2"}, "unknown irrep label 'zzz' in mu")])
def test_cli_an_irrep_label_the_group_lacks_is_malformed_input(tmp_path, capsys, field, value, witness):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"group": "z2", field: value}))
    code, out, err = run_cli(capsys, "params", "check", str(params))
    assert code == 2 and out == ""
    assert err == f"error: malformed input: {params}.{field}.zzz: {witness}\n"


def test_cli_verify_theorem_draws_its_samples_as_it_checks_them(monkeypatch, capsys):
    # the sample list was built whole before the first check: about 550
    # bytes per q8 element, so --samples 10000000 asked for gigabytes.  The
    # check is replaced by one that draws every sample and keeps none, so
    # the traced peak is the command's own
    import tracemalloc
    from ybw import cli

    counts = []
    real = cli.end_to_end_check
    monkeypatch.setattr(cli, "end_to_end_check",
                        lambda params, sample, d=None: counts.append(sum(1 for _ in sample))
                        or real(params, [], d))
    params = str(corpus_dir() / "q8_2dim.params.json")
    peaks = []
    for samples in (200, 200, 20000):
        tracemalloc.start()
        main(["verify-theorem", params, "--samples", str(samples)])
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    capsys.readouterr()
    assert counts == [200, 200, 20000]
    assert peaks[2] - peaks[1] < 1 << 20, peaks
