"""JSON codecs for every on-disk object.

Rationals are serialized as strings "p/q" (or "p" for integers, ASCII
digits only), never as floats, so files round-trip bit-exactly across
languages.  A scalar is either such a string or {"N": conductor, "c":
[coefficient strings]} with phi(N) power-basis coordinates and N <=
MAX_CONDUCTOR.  Matrices are square, list nonzero entries only, in row
order, and have at most MAX_MATRIX_DIM rows, written as read; the lcm of
the conductors in one R-matrix or couple file is at most MAX_CONDUCTOR
too.  The writers encode canonical sparse rows (R and pi as the package
keeps them) or dense matrices, read into their nonzero rows first; the
readers return canonical SparseOperator rows and build no dense matrix.
Files are UTF-8 and carry a "format": 1 version field; it may be omitted
on input.

Decoding validates shapes and ranges and raises SchemaError with the JSON
path of the offending node; read_json_file refuses a key repeated in one
object, which json.loads would read as its last value.  Certification
(group axioms, R-matrix laws, couple laws) is the caller's job and is kept
separate so the CLI can distinguish malformed input from failed
verification.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

from .cyclo import CycloScalar, totient
from .errors import SchemaError, UnknownCatalogNameError
from .groups import FiniteGroup, catalog_irreps, load_group
from .hirai import HiraiParams, validate_params
from .matrix import ExactMatrix, SparseOperator
from .perms import FinitePermutation
from .wreath import WreathElement

FORMAT_VERSION = 1

# Largest conductor N a scalar may carry.  Decoding builds the field
# Q(zeta_N), whose reduction table has N rows of phi(N) entries; near this
# cap that takes about 0.03 s and 35 MB on a 2-vCPU x86-64 host, while an
# unbounded N lets a 128-byte file hang the decoder in totient().  The
# catalog, the corpus and the tests use N <= 12.
MAX_CONDUCTOR = 1000

# Largest dimension of a (square) matrix in a file.  The readers allocate one
# row per dimension, not its square, so memory follows the entries; the
# constant bounds the operators that `build` and the readers let through to
# certification: R up to d = 32 (1024 x 1024), which `check-couple` reads and
# certifies in about 0.05 s and 4 MB on a 2-vCPU x86-64 host.
MAX_MATRIX_DIM = 1024

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _is_int(value) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def rational_to_str(value: Fraction) -> str:
    return str(Fraction(value))


def rational_from_str(text, path: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(path, f"expected a rational string like '3/4', got {text!r}")
    try:
        return Fraction(text)
    except ValueError as exc:  # more digits than int() converts
        raise SchemaError(path, str(exc)) from None


class ConductorBound:
    """The lcm of the conductors decoded so far from one file, kept at or
    below MAX_CONDUCTOR: arithmetic lifts a product to the lcm of its
    factors' conductors, so zeta_997 and zeta_991, each under the cap, would
    build the tables of Q(zeta_988027) on their first product."""

    __slots__ = ("lcm",)

    def __init__(self):
        self.lcm = 1

    def admit(self, value: CycloScalar, path: str) -> None:
        total = lcm(self.lcm, value.n)
        if total > MAX_CONDUCTOR:
            raise SchemaError(path, f"conductor {value.n} raises the lcm of the file's "
                                    f"conductors to {total}, above the limit {MAX_CONDUCTOR}")
        self.lcm = total


def scalar_to_json(value: CycloScalar):
    if value.is_rational():
        return rational_to_str(value.as_rational())
    return {"N": value.n, "c": [rational_to_str(Fraction(c, value.den)) for c in value.nums]}


def scalar_from_json(obj, path: str) -> CycloScalar:
    if isinstance(obj, str):
        return CycloScalar.from_rational(rational_from_str(obj, path))
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected a rational string or an object, got {type(obj).__name__}")
    if "N" not in obj:
        raise SchemaError(path, "missing conductor field 'N'")
    n = obj["N"]
    if not _is_int(n) or n < 1:
        raise SchemaError(f"{path}.N", f"conductor must be a positive integer, got {n!r}")
    if n > MAX_CONDUCTOR:
        raise SchemaError(f"{path}.N", f"conductor {n} exceeds the limit {MAX_CONDUCTOR}")
    coeffs = obj.get("c")
    if not isinstance(coeffs, list) or len(coeffs) != totient(n):
        raise SchemaError(f"{path}.c", f"expected {totient(n)} coefficient strings for conductor {n}")
    values = [rational_from_str(c, f"{path}.c[{k}]") for k, c in enumerate(coeffs)]
    return CycloScalar.from_coeffs(n, values)


def _check_shape(n_rows: int, n_cols: int, path: str) -> None:
    """The shape every file matrix has: square, at most MAX_MATRIX_DIM."""
    if n_rows > MAX_MATRIX_DIM or n_cols > MAX_MATRIX_DIM:
        raise SchemaError(path, f"dimensions {n_rows} x {n_cols} exceed the limit {MAX_MATRIX_DIM}")
    if n_rows != n_cols:
        raise SchemaError(path, f"a {n_rows} x {n_cols} matrix is not square")


def matrix_to_json(m: ExactMatrix | SparseOperator, path: str = "matrix") -> dict:
    """The entries of m, canonical rows or a dense matrix read into its
    nonzero rows; a matrix the reader would refuse raises SchemaError at
    ``path``, so nothing is written that cannot be read back."""
    dense = isinstance(m, ExactMatrix)
    _check_shape(*((m.rows, m.cols) if dense else (m.dim, m.dim)), path)
    s = SparseOperator.from_dense(m) if dense else m
    conductor = 1
    entries = []
    for i, row in enumerate(s.rows):
        for j, v in row:
            conductor = lcm(conductor, v.n)
            entries.append([i, j, scalar_to_json(v)])
    return {"dim_rows": s.dim, "dim_cols": s.dim, "conductor": conductor, "entries": entries}


def matrix_from_json(obj, path: str, conductors: ConductorBound | None = None) -> SparseOperator:
    """Decode a square matrix into canonical rows: sorted by column, with
    explicit zero entries dropped.  ``conductors`` bounds the lcm of the
    conductors over every matrix that shares it (by default, over this
    one)."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a matrix object")
    for field in ("dim_rows", "dim_cols", "conductor", "entries"):
        if field not in obj:
            raise SchemaError(path, f"missing field {field!r}")
    rows, cols = obj["dim_rows"], obj["dim_cols"]
    if not (_is_int(rows) and _is_int(cols) and rows > 0 and cols > 0):
        raise SchemaError(path, f"bad dimensions {rows!r} x {cols!r}")
    _check_shape(rows, cols, path)
    if not _is_int(obj["conductor"]) or obj["conductor"] < 1:
        raise SchemaError(f"{path}.conductor", "conductor must be a positive integer")
    if not isinstance(obj["entries"], list):
        raise SchemaError(f"{path}.entries", "expected a list of [i, j, scalar] triples")
    if conductors is None:
        conductors = ConductorBound()
    cells: list[dict[int, CycloScalar]] = [{} for _ in range(rows)]
    for k, item in enumerate(obj["entries"]):
        epath = f"{path}.entries[{k}]"
        if not (isinstance(item, list) and len(item) == 3):
            raise SchemaError(epath, "expected [row, col, scalar]")
        i, j, raw = item
        if not (_is_int(i) and _is_int(j) and 0 <= i < rows and 0 <= j < cols):
            raise SchemaError(epath, f"index ({i!r},{j!r}) out of range")
        if j in cells[i]:
            raise SchemaError(epath, f"duplicate entry for ({i},{j})")
        value = scalar_from_json(raw, epath)
        conductors.admit(value, epath)
        cells[i][j] = value
    return SparseOperator(rows, [[(j, v) for j, v in sorted(row.items()) if not v.is_zero()]
                                 for row in cells])


def group_to_json(g: FiniteGroup) -> dict:
    return {"name": g.name, "order": g.order, "table": [list(row) for row in g.table]}


def group_from_json(obj, path: str) -> FiniteGroup:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a group object")
    for field in ("name", "order", "table"):
        if field not in obj:
            raise SchemaError(path, f"missing field {field!r}")
    table = obj["table"]
    if not (isinstance(table, list) and _is_int(obj["order"]) and len(table) == obj["order"]):
        raise SchemaError(f"{path}.table", "table size does not match order")
    for i, row in enumerate(table):
        if not (isinstance(row, list) and all(_is_int(v) for v in row)):
            raise SchemaError(f"{path}.table[{i}]", f"expected a list of element indices, got {row!r}")
    return FiniteGroup(str(obj["name"]), table)


def element_to_json(g: WreathElement) -> dict:
    return {
        "format": FORMAT_VERSION,
        "colors": {str(pos): t for pos, t in sorted(g.colors.items())},
        "cycles": [list(c) for c in g.perm.cycles()],
    }


def element_from_json(obj, group: FiniteGroup, path: str) -> WreathElement:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an element object")
    _check_format(obj, path)
    colors = {}
    raw_colors = obj.get("colors", {})
    if not isinstance(raw_colors, dict):
        raise SchemaError(f"{path}.colors", "expected an object of position -> color index")
    for key, value in raw_colors.items():
        try:
            pos = int(key) if key.isascii() and key.isdigit() else 0
        except ValueError as exc:  # more digits than int() converts
            raise SchemaError(f"{path}.colors", str(exc)) from None
        if pos < 1:
            raise SchemaError(f"{path}.colors.{key}", "positions are positive integers")
        if key != str(pos):  # "01" would silently share position 1 with "1"
            raise SchemaError(f"{path}.colors.{key}",
                              f"position {pos} must be written {str(pos)!r}, without leading zeros")
        if not _is_int(value) or not (0 <= value < group.order):
            raise SchemaError(f"{path}.colors.{key}", f"color index {value!r} out of range")
        colors[pos] = value
    raw_cycles = obj.get("cycles", [])
    if not isinstance(raw_cycles, list):
        raise SchemaError(f"{path}.cycles", "expected a list of cycles")
    for k, cyc in enumerate(raw_cycles):
        if not (isinstance(cyc, list) and len(cyc) >= 2
                and all(_is_int(p) and p >= 1 for p in cyc)):
            raise SchemaError(f"{path}.cycles[{k}]", "a cycle is a list of >= 2 positive positions")
    try:
        perm = FinitePermutation.from_cycles(raw_cycles)
    except ValueError as exc:
        raise SchemaError(f"{path}.cycles", str(exc)) from None
    return WreathElement(group, colors, perm)


def catalog_group(name: str, path: str) -> FiniteGroup:
    """groups.load_group on a name read from input: a name outside the
    catalog is malformed input at ``path``."""
    try:
        return load_group(name)
    except UnknownCatalogNameError as exc:
        raise SchemaError(path, str(exc)) from None


def params_from_json(obj, path: str) -> HiraiParams:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a parameter object")
    _check_format(obj, path)
    if "group" not in obj:
        raise SchemaError(path, "missing field 'group'")
    group = catalog_group(str(obj["group"]), f"{path}.group")
    irreps = catalog_irreps(group)
    labels = {rep.label for rep in irreps}
    for field in ("a", "mu"):
        if not isinstance(obj.get(field, {}), dict):
            raise SchemaError(f"{path}.{field}", "expected an object keyed by irrep label")
    a_raw = {}
    for label, by_eps in obj.get("a", {}).items():
        if label not in labels:
            raise SchemaError(f"{path}.a.{label}", f"unknown irrep label {label!r}")
        if not isinstance(by_eps, dict):
            raise SchemaError(f"{path}.a.{label}", "expected an object with keys '0' and/or '1'")
        for eps_key, seq in by_eps.items():
            if eps_key not in ("0", "1"):
                raise SchemaError(f"{path}.a.{label}", f"epsilon key must be '0' or '1', got {eps_key!r}")
            if not isinstance(seq, list):
                raise SchemaError(f"{path}.a.{label}.{eps_key}", "expected a list of rational strings")
            values = [rational_from_str(v, f"{path}.a.{label}.{eps_key}[{k}]")
                      for k, v in enumerate(seq)]
            a_raw[(label, int(eps_key))] = values
    mu_raw = {}
    for label, v in obj.get("mu", {}).items():
        if label not in labels:
            raise SchemaError(f"{path}.mu.{label}", f"unknown irrep label {label!r} in mu")
        mu_raw[label] = rational_from_str(v, f"{path}.mu.{label}")
    return validate_params(group, irreps, a_raw, mu_raw)


def rmatrix_file_to_json(d: int, m: ExactMatrix | SparseOperator, path: str = "rmatrix") -> dict:
    out = matrix_to_json(m, path)
    out["format"] = FORMAT_VERSION
    out["d"] = d
    return out


def rmatrix_file_from_json(obj, path: str) -> tuple[int, SparseOperator]:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an R-matrix object")
    _check_format(obj, path)
    if "d" not in obj or not _is_int(obj["d"]) or obj["d"] < 1:
        raise SchemaError(path, "missing or bad field 'd'")
    m = matrix_from_json(obj, path)
    return obj["d"], m


def couple_file_to_json(group: FiniteGroup, d: int, w: int, r: ExactMatrix | SparseOperator, pi,
                        path: str = "couple") -> dict:
    return {
        "format": FORMAT_VERSION,
        "group": group_to_json(group),
        "d": d,
        "w": w,
        "r": matrix_to_json(r, f"{path}.r"),
        "pi": [matrix_to_json(m, f"{path}.pi[{k}]") for k, m in enumerate(pi)],
    }


def couple_file_from_json(obj, path: str):
    """Schema-level decoding; returns (group, d, w, r_rows, pi_rows), R and
    each pi image as canonical SparseOperator rows."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a couple object")
    _check_format(obj, path)
    for field in ("group", "d", "w", "r", "pi"):
        if field not in obj:
            raise SchemaError(path, f"missing field {field!r}")
    group = group_from_json(obj["group"], f"{path}.group")
    d, w = obj["d"], obj["w"]
    if not (_is_int(d) and d >= 1 and _is_int(w) and w >= 1):
        raise SchemaError(path, "'d' and 'w' must be positive integers")
    conductors = ConductorBound()
    r = matrix_from_json(obj["r"], f"{path}.r", conductors)
    if not isinstance(obj["pi"], list) or len(obj["pi"]) != group.order:
        raise SchemaError(f"{path}.pi", f"expected {group.order} pi images")
    pi = [matrix_from_json(m, f"{path}.pi[{k}]", conductors) for k, m in enumerate(obj["pi"])]
    return group, d, w, r, pi


def _check_format(obj: dict, path: str) -> None:
    version = obj.get("format", FORMAT_VERSION)
    if not _is_int(version) or version != FORMAT_VERSION:
        raise SchemaError(f"{path}.format", f"unsupported format version {version!r}")


def read_json_file(path: str | Path):
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(str(path), f"cannot read file: {exc}") from None
    try:
        return json.loads(text, object_pairs_hook=lambda pairs: _unique_keys(pairs, str(path)))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    except (ValueError, RecursionError) as exc:  # too many digits, or nested too deep
        raise SchemaError(str(path), str(exc)) from None


def _unique_keys(pairs: list, path: str) -> dict:
    """A JSON object, refused when a key repeats (json.loads keeps its last value)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise SchemaError(path, f"key {key!r} is repeated in one object")
    return obj


def write_json_file(path: str | Path, obj) -> None:
    try:
        Path(path).write_text(dumps(obj))
    except OSError as exc:
        raise SchemaError(str(path), f"cannot write file: {exc}") from None


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
