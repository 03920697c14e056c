"""Command-line surface.

Every subcommand builds a Report (ordered findings with witnesses) that is
rendered as text or JSON.  Exit codes: 0 all checks passed, 1 a
verification failed, 2 malformed input.  Reports are deterministic for
fixed inputs and seed.  Set YBW_COLOR=0 to disable ANSI colors.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass, field
from importlib import resources
from math import log10
from pathlib import Path

from . import io as codecs
from .construct import build_couple, end_to_end_check
from .couple import MAX_OPERATOR_DIM, certify_couple, character
from .errors import SchemaError, YbwError
from .groups import CATALOG_NAMES, catalog_irreps, load_group
from .hirai import closed_form_character, entry_denominator, is_yb_admissible, thoma_restriction
from .rmatrix import boxplus, extract_thoma, verify_rmatrix
from .rng import Lcg64
from .wreath import conjugacy_invariant, standard_decomposition


# The most decimal digits a printed value's numerator or denominator may
# have.  Python refuses to print an int of more than 4300 digits
# (sys.get_int_max_str_digits()), and the margin covers the subfield basis
# CycloScalar.__str__ prints in.  A 20,000-cycle asks for about 6,000.
MAX_VALUE_DIGITS = 4000


@dataclass
class Finding:
    check: str
    ok: bool
    witness: str = ""


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)

    def add(self, check: str, ok: bool, witness: str = "") -> None:
        self.findings.append(Finding(check, ok, witness))

    def note_input(self, path) -> None:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise SchemaError(str(path), f"cannot read file: {exc}") from None
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()

    @property
    def exit_code(self) -> int:
        return 0 if all(f.ok for f in self.findings) else 1

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "findings": [
                {"check": f.check, "verdict": "pass" if f.ok else "fail", "witness": f.witness}
                for f in self.findings
            ],
            "exit_code": self.exit_code,
        }


def _use_color() -> bool:
    if os.environ.get("YBW_COLOR", "1") == "0":
        return False
    return sys.stdout.isatty()


def render(report: Report, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(codecs.dumps(report.to_json()))
        return
    color = _use_color()
    for f in report.findings:
        tag = "PASS" if f.ok else "FAIL"
        if color:
            tag = f"\x1b[32m{tag}\x1b[0m" if f.ok else f"\x1b[31m{tag}\x1b[0m"
        line = f"{tag} {f.check}"
        if f.witness:
            line += f": {f.witness}"
        print(line)


def corpus_dir() -> Path:
    return Path(resources.files("ybw") / "corpus")


# -- subcommand handlers -----------------------------------------------


def _load_rmatrix(path, report: Report):
    report.note_input(path)
    return codecs.rmatrix_file_from_json(codecs.read_json_file(path), str(path))


def cmd_catalog(args, report: Report) -> None:
    for name in CATALOG_NAMES:
        if name == "trivial":
            continue
        group = load_group(name)
        irreps = catalog_irreps(group)
        dims = ",".join(str(rep.dim) for rep in irreps)
        report.add(f"group {name}", True,
                   f"order {group.order}, {len(group.classes)} classes, irrep dims [{dims}]")
        for rep in irreps:
            values = ", ".join(
                f"{group.element_names[cls.representative]}:{rep.char(cls.representative)}"
                for cls in group.classes)
            report.add(f"  {name}.{rep.label}", True, values)


def cmd_check_rmatrix(args, report: Report) -> None:
    d, m = _load_rmatrix(args.file, report)
    try:
        r = verify_rmatrix(m, d)
    except YbwError as exc:
        report.add("rmatrix certification", False, str(exc))
        return
    report.add("rmatrix certification", True, f"d={d}")
    report.add("thoma parameters", True, str(extract_thoma(r)))


def cmd_thoma(args, report: Report) -> None:
    d, m = _load_rmatrix(args.file, report)
    r = verify_rmatrix(m, d)
    params = extract_thoma(r)
    report.add("thoma parameters", True, str(params))


def cmd_boxplus(args, report: Report) -> None:
    d1, m1 = _load_rmatrix(args.left, report)
    d2, m2 = _load_rmatrix(args.right, report)
    result = boxplus(verify_rmatrix(m1, d1), verify_rmatrix(m2, d2))
    report.add("boxplus certification", True, f"d={result.d}")
    report.add("thoma parameters", True, str(extract_thoma(result)))
    if args.out:
        codecs.write_json_file(args.out, codecs.rmatrix_file_to_json(result.d, result.sparse, args.out))
        report.add("written", True, args.out)


def cmd_element(args, report: Report) -> None:
    group = codecs.catalog_group(args.group, "--group")
    report.note_input(args.json)
    g = codecs.element_from_json(codecs.read_json_file(args.json), group, args.json)
    # with neither view asked for, report both rather than pass on nothing
    both = not (args.decompose or args.invariant)
    if args.decompose or both:
        dec = standard_decomposition(g)
        for pos, t in dec.elementary:
            report.add("elementary", True, f"position {pos}, color {group.element_names[t]}")
        for part in dec.cyclic:
            colors = ", ".join(f"{group.element_names[t]}@{p}" for p, t in part.colors)
            report.add("cyclic", True,
                       f"cycle {part.cycle}, length {part.length}, colors [{colors}]")
        ok = dec.recompose() == g
        report.add("recomposition", ok, "product of parts equals the element")
    if args.invariant or both:
        inv = conjugacy_invariant(g)
        elem = ", ".join(group.element_names[c] for c in inv.elem_classes)
        cyc = ", ".join(f"([{group.element_names[c]}], {l})" for c, l in inv.cycle_data)
        report.add("conjugacy invariant", True, f"elementary [{elem}] cycles [{cyc}]")


def _load_params(path, report: Report):
    report.note_input(path)
    return codecs.params_from_json(codecs.read_json_file(path), str(path))


def cmd_params_check(args, report: Report) -> None:
    params = _load_params(args.file, report)
    report.add("family membership", True, f"total mass {params.total_mass()}")
    adm = is_yb_admissible(params)
    detail = f"minimal_d={adm.minimal_d}" if adm.verdict else ", ".join(adm.violations)
    report.add("yb admissible", adm.verdict, detail)
    report.add("thoma restriction", True, str(thoma_restriction(params)))


def _too_long(path: str) -> SchemaError:
    return SchemaError(path, f"the value has a numerator or denominator of more than "
                             f"{MAX_VALUE_DIGITS} digits, the limit MAX_VALUE_DIGITS")


def _printable(value, path: str):
    """value, once its numerator and denominator are known to print."""
    if max(value.den, *map(abs, value.nums)) >= 10 ** MAX_VALUE_DIGITS:
        raise _too_long(path)
    return value


def cmd_hirai_char(args, report: Report) -> None:
    params = _load_params(args.file, report)
    report.note_input(args.element)
    g = codecs.element_from_json(codecs.read_json_file(args.element), params.group, args.element)
    # each point of the support multiplies the value's denominator by up to
    # D = entry_denominator: refuse before any factor or power is formed.
    # A bound, so a value that would cancel to fewer digits is refused too.
    if len(g.support()) * log10(entry_denominator(params)) > MAX_VALUE_DIGITS:
        raise _too_long(args.element)
    value = _printable(closed_form_character(params, g), args.element)
    report.add("hirai character", True, f"{value} = {value.to_complex():.6g}")


def _check_positive(option: str, value) -> None:
    # zero samples would pass with nothing checked; d <= 0 has no space V
    if value is not None and value <= 0:
        raise SchemaError(option, f"must be a positive integer, got {value}")


def _check_rmatrix_dim(path: str, args, params) -> int | None:
    # R is d^2 x d^2 for d = --d, or else the params' minimal d (None when
    # they are not admissible), and no file holds one above
    # io.MAX_MATRIX_DIM; refuse it before R and the couple are built
    d = args.d if args.d is not None else is_yb_admissible(params).minimal_d
    if d is not None and d * d > codecs.MAX_MATRIX_DIM:
        raise SchemaError(path, f"dimensions {d * d} x {d * d} exceed the limit "
                                f"{codecs.MAX_MATRIX_DIM}")
    return d


def cmd_build(args, report: Report) -> None:
    _check_positive("--d", args.d)
    params = _load_params(args.file, report)
    _check_rmatrix_dim(f"{args.out}.r", args, params)
    couple, layout = build_couple(params, args.d)
    blocks = ", ".join(f"({b.label},{b.eps},{b.index}):{b.dim_v}x{b.dim_w}"
                       for b in layout.blocks)
    report.add("couple built", True, f"d={couple.d}, blocks [{blocks}]")
    codecs.write_json_file(args.out, codecs.couple_file_to_json(
        couple.group, couple.d, couple.w, couple.r.sparse, couple.pi_rows, args.out))
    report.add("written", True, args.out)


def _load_couple(path, report: Report):
    report.note_input(path)
    group, d, w, r, pi = codecs.couple_file_from_json(codecs.read_json_file(path), str(path))
    return certify_couple(group, verify_rmatrix(r, d), pi, w)


def cmd_check_couple(args, report: Report) -> None:
    try:
        couple = _load_couple(args.file, report)
    except SchemaError:
        raise
    except YbwError as exc:
        report.add("couple certification", False, str(exc))
        return
    report.add("couple certification", True,
               f"group {couple.group.name}, d={couple.d}, w={couple.w}")


def cmd_char(args, report: Report) -> None:
    couple = _load_couple(args.file, report)
    report.note_input(args.element)
    g = codecs.element_from_json(codecs.read_json_file(args.element), couple.group, args.element)
    value = _printable(character(couple, g), args.element)
    report.add("character", True, f"{value} = {value.to_complex():.6g}")


def cmd_verify_theorem(args, report: Report) -> None:
    _check_positive("--samples", args.samples)
    _check_positive("--d", args.d)
    params = _load_params(args.file, report)
    d = _check_rmatrix_dim("--d" if args.d is not None else args.file, args, params)
    # an element over positions 1..m has at most m colored cycles, so the
    # built couple (w = 1) traces it on at most d^m dimensions
    m = max(j for j in range(1, 6) if (d or 1) ** j <= MAX_OPERATOR_DIM)
    rng = Lcg64(args.seed)
    # drawn as checked, so memory does not grow with --samples
    sample = (rng.wreath_element(params.group, 1, m) for _ in range(args.samples))
    result = end_to_end_check(params, sample, args.d)
    report.add("thoma restriction matches extracted parameters", result.thoma_ok,
               f"built {result.thoma_built}, expected {result.thoma_expected}")
    witness = ""
    if result.char_mismatches:
        g, lhs, rhs = result.char_mismatches[0]
        witness = (f"first mismatch at {g!r}: trace {_printable(lhs, args.file)}, "
                   f"closed form {_printable(rhs, args.file)}")
    elif m < 5:
        witness = (f"{result.samples} sampled elements over positions 1..{m} agree exactly "
                   f"(d^{m + 1} is above MAX_OPERATOR_DIM)")
    report.add("trace character equals closed form", not result.char_mismatches,
               witness or f"{result.samples} sampled elements agree exactly")


def _expected_weights(item: dict) -> tuple:
    """The (alpha, beta) weights a manifest entry expects."""
    return tuple(tuple(codecs.rational_from_str(v, item["file"]) for v in item[side])
                 for side in ("alpha", "beta"))


def cmd_selftest(args, report: Report) -> None:
    base = corpus_dir()
    manifest = codecs.read_json_file(base / "expectations.json")
    rng_seed = args.seed
    for item in manifest.get("rmatrices", []):
        path = base / item["file"]
        report.note_input(path)
        d, m = codecs.rmatrix_file_from_json(codecs.read_json_file(path), item["file"])
        got = extract_thoma(verify_rmatrix(m, d))
        report.add(f"{item['file']}: thoma", (got.alpha, got.beta) == _expected_weights(item), str(got))
    for item in manifest.get("params", []):
        path = base / item["file"]
        report.note_input(path)
        params = codecs.params_from_json(codecs.read_json_file(path), item["file"])
        adm = is_yb_admissible(params)
        report.add(f"{item['file']}: admissible", adm.verdict and adm.minimal_d == item["minimal_d"],
                   f"minimal_d={adm.minimal_d}")
        restriction = thoma_restriction(params)
        report.add(f"{item['file']}: restriction",
                   (restriction.alpha, restriction.beta) == _expected_weights(item), str(restriction))
        rng = Lcg64(rng_seed)
        sample = [rng.wreath_element(params.group, 1, 4) for _ in range(item.get("samples", 5))]
        result = end_to_end_check(params, sample)
        report.add(f"{item['file']}: extracted thoma", result.thoma_built == restriction,
                   str(result.thoma_built))
        for k, check in enumerate(item.get("chars", [])):
            g = codecs.element_from_json(check["element"], params.group,
                                         f"{item['file']}.chars[{k}]")
            want = codecs.scalar_from_json(check["value"], f"{item['file']}.chars[{k}].value")
            closed = closed_form_character(params, g)
            trace = character(result.couple, g)
            ok = closed == want and trace == want
            report.add(f"{item['file']}: char[{k}]", ok,
                       f"closed {closed}, trace {trace}, expected {want}")
        report.add(f"{item['file']}: end to end", result.ok,
                   f"{result.samples} samples")


def _add_common(p: argparse.ArgumentParser) -> None:
    # also accepted after the subcommand; SUPPRESS keeps the root default
    p.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybw",
        description="Exact Yang-Baxter representations and characters of wreath products.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("catalog", help="list catalog groups and their irreps"))

    p = sub.add_parser("check-rmatrix", help="certify an R-matrix file")
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("thoma", help="extract Thoma parameters of an R-matrix file")
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("boxplus", help="box-sum of two R-matrix files")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out")
    _add_common(p)

    p = sub.add_parser("element", help="inspect a wreath element file")
    p.add_argument("--group", required=True)
    p.add_argument("--json", required=True)
    p.add_argument("--decompose", action="store_true")
    p.add_argument("--invariant", action="store_true")
    _add_common(p)

    p = sub.add_parser("params", help="parameter-family operations")
    psub = p.add_subparsers(dest="params_command", required=True)
    pc = psub.add_parser("check", help="validate a parameter file")
    pc.add_argument("file")
    _add_common(pc)

    p = sub.add_parser("hirai-char", help="closed-form character value")
    p.add_argument("file")
    p.add_argument("--element", required=True)
    _add_common(p)

    p = sub.add_parser("build", help="build a couple from admissible parameters")
    p.add_argument("file")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("check-couple", help="certify a couple file")
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("char", help="trace character value of a couple")
    p.add_argument("file")
    p.add_argument("--element", required=True)
    _add_common(p)

    p = sub.add_parser("verify-theorem", help="trace character against the closed form")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--d", type=int, default=None)
    _add_common(p)

    _add_common(sub.add_parser("selftest", help="run the bundled corpus checks"))
    return parser


_HANDLERS = {
    "catalog": cmd_catalog,
    "check-rmatrix": cmd_check_rmatrix,
    "thoma": cmd_thoma,
    "boxplus": cmd_boxplus,
    "element": cmd_element,
    "hirai-char": cmd_hirai_char,
    "build": cmd_build,
    "check-couple": cmd_check_couple,
    "char": cmd_char,
    "verify-theorem": cmd_verify_theorem,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "params":
        handler = cmd_params_check
        command_name = f"params {args.params_command}"
    else:
        handler = _HANDLERS[args.command]
        command_name = args.command
    report = Report(command_name)
    try:
        handler(args, report)
    except SchemaError as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2
    except YbwError as exc:
        report.add("verification", False, str(exc))
        render(report, args.format)
        return 1
    render(report, args.format)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
