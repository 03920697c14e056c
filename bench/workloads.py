"""The four benchmark workloads.

Each workload builds its shared objects in ``setup`` (from scratch, so the
program's caches start cold), yields its items one cycle at a time from a
seeded ``Lcg64``, and runs one item in ``run``, checking the output against
a reference that does not share the code path being timed:

- theorem, conjugated: the closed-form character (and, for pairs, the
  product of the two trace characters); conjugated certification items
  compare extracted weights with the closed-form Thoma restriction;
- thoma: the weights the normal form was generated from;
- cli: the expected exit code and the values in corpus/expectations.json.

A cycle holds every item kind in fixed proportions, and runs end on a
cycle boundary, so two seeds see the same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from ybw import io as codecs
from ybw.cli import corpus_dir, main as cli_main
from ybw.construct import build_couple
from ybw.couple import certify_couple, character
from ybw.cyclo import ZERO, zeta
from ybw.hirai import closed_form_character, thoma_restriction
from ybw.matrix import ExactMatrix
from ybw.rmatrix import ThomaParams, extract_thoma, normal_form_from_thoma, verify_rmatrix
from ybw.rng import Lcg64
from ybw.wreath import WreathElement

PASS, WRONG, ERROR, KILLED = "pass", "wrong", "error", "killed"

# A known hostile input: decoding it runs totient() by trial division on a
# 19-digit conductor, which does not finish.  It is kept in the cli mix so
# the defect shows as a time-limit kill until decoding is bounded; its
# expected exit code is 2.
HOSTILE_RMATRIX = ('{"format": 1, "d": 1, "dim_rows": 1, "dim_cols": 1, "conductor": 1, '
                   '"entries": [[0, 0, {"N": 1000000000000000003, "c": ["1"]}]]}')
CLI_TIME_LIMIT_S = 5.0


@dataclass
class Item:
    kind: str
    corpus: int
    payload: tuple = ()


@dataclass
class CorpusEntry:
    file: str
    params: object
    expected: dict
    couple: object = None


@dataclass
class State:
    corpus: list
    extra: dict = field(default_factory=dict)


class Workload:
    """Base of the workloads; ``root`` is the checkout, ``scratch`` a
    directory inside it for files a run writes."""

    name = ""
    # peak RSS is that of the subprocesses the workload starts
    measures_children = False
    # seconds a traced cycle and its untraced replay take at the baseline;
    # a traced run does round(--seconds / trace_cycle_s) cycles
    trace_cycle_s = 1.0

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch

    def teardown(self, state: State) -> None:
        pass


def load_corpus() -> list[CorpusEntry]:
    """Decode the expectations manifest and every parameter file it lists."""
    base = corpus_dir()
    manifest = codecs.read_json_file(base / "expectations.json")
    out = []
    for entry in manifest["params"]:
        params = codecs.params_from_json(codecs.read_json_file(base / entry["file"]), entry["file"])
        out.append(CorpusEntry(entry["file"], params, entry))
    return out


def shuffled(rng: Lcg64, items: list) -> list:
    order = rng.permutation_of(list(range(1, len(items) + 1)))
    return [items[order(i) - 1] for i in range(1, len(items) + 1)]


def _expected_thoma(entry: dict) -> ThomaParams:
    return ThomaParams.make([Fraction(v) for v in entry["alpha"]],
                            [Fraction(v) for v in entry["beta"]])


def _weights(entry: dict) -> tuple:
    t = _expected_thoma(entry)
    return t.alpha, t.beta


def _verdict(ok: bool) -> str:
    return PASS if ok else WRONG


# Character cost depends on the colored positions, the largest position the
# permutation moves and the permutation's length as a word in adjacent
# transpositions (its inversions).  Cycle i of every run takes its target
# shapes from the same reference generator, and each seed draws elements of
# exactly those shapes, so two seeds give different elements at the same
# cost profile.
SHAPE_SEED = 0x5EED
_DRAW_LIMIT = 1_000_000


def _perm_shape(perm) -> tuple[int, int]:
    moved = perm.max_support()
    line = perm.one_line(moved)
    return moved, sum(1 for i in range(moved) for j in range(i + 1, moved) if line[i] > line[j])


def shape(g: WreathElement) -> tuple:
    return (tuple(sorted(g.colors)),) + _perm_shape(g.perm)


def draw_like(rng: Lcg64, group, lo: int, hi: int, target: tuple) -> WreathElement:
    """An element in [lo, hi] of the given shape: the permutation is the
    first Fisher-Yates draw with the target's largest moved position and
    inversions, then one non-identity color per target position."""
    colored, perm_target = target[0], target[1:]
    window = list(range(lo, hi + 1))
    for _ in range(_DRAW_LIMIT):
        perm = rng.permutation_of(window)
        if _perm_shape(perm) == perm_target:
            break
    else:
        raise RuntimeError(f"no permutation of shape {perm_target} in {_DRAW_LIMIT} draws")
    return WreathElement(group, {p: 1 + rng.below(group.order - 1) for p in colored}, perm)


# -- theorem -------------------------------------------------------------


class Theorem(Workload):
    """Trace character == closed form on the five corpus couples."""

    name = "theorem"
    trace_cycle_s = 2.0
    window = 5          # elements supported in [1, window]
    pair_window = 3     # pairs supported in [1, 3] and [4, 6]
    elements_per_couple = 4
    pairs_per_couple = 1

    def setup(self, seed: int) -> State:
        corpus = load_corpus()
        for entry in corpus:
            entry.couple, _ = build_couple(entry.params)
        return State(corpus)

    def cycle(self, state: State, rng: Lcg64, index: int) -> list[Item]:
        ref = Lcg64(SHAPE_SEED + index)
        w, pw = self.window, self.pair_window
        items = []
        for k, entry in enumerate(state.corpus):
            group = entry.params.group

            def like(lo, hi):
                return draw_like(rng, group, lo, hi, shape(ref.wreath_element(group, lo, hi)))

            for _ in range(self.elements_per_couple):
                items.append(Item("element", k, (like(1, w),)))
            for _ in range(self.pairs_per_couple):
                items.append(Item("pair", k, (like(1, pw), like(pw + 1, 2 * pw))))
        return items

    def run(self, state: State, item: Item, in_process: bool = False) -> str:
        entry = state.corpus[item.corpus]
        return self._check_character(entry.params, entry.couple, item)

    @staticmethod
    def _check_character(params, couple, item: Item) -> str:
        if item.kind == "element":
            (g,) = item.payload
            return _verdict(character(couple, g) == closed_form_character(params, g))
        g, h = item.payload
        gh = g * h
        chi_gh = character(couple, gh)
        ok = chi_gh == character(couple, g) * character(couple, h)
        return _verdict(ok and chi_gh == closed_form_character(params, gh))


# -- conjugated ----------------------------------------------------------


# Pythagorean triples give 2x2 rotations with rational entries; seeded
# roots of unity make them complex, so U is unitary over Q(zeta_12).
_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17))
_PHASE_CONDUCTOR = 12


def seeded_unitary(rng: Lcg64, dim: int) -> list[list]:
    """2x2 phased rotations on index pairs, a phase on an odd last index."""
    n = _PHASE_CONDUCTOR
    a = [[ZERO] * dim for _ in range(dim)]
    for i in range(0, dim - 1, 2):
        x, y, h = _TRIPLES[rng.below(len(_TRIPLES))]
        p, q, r = (zeta(n, rng.below(n)) for _ in range(3))
        alpha, beta = p * Fraction(x, h), q * Fraction(y, h)
        a[i][i], a[i][i + 1] = alpha, beta
        a[i + 1][i], a[i + 1][i + 1] = -(beta.conj() * r), alpha.conj() * r
    if dim % 2:
        a[dim - 1][dim - 1] = zeta(n, rng.below(n))
    return a


def seeded_block_unitary(rng: Lcg64, layout) -> ExactMatrix:
    """U = the direct sum over the builder's blocks of A (x) 1_multiplicity,
    with A a seeded unitary on the irrep factor.  Runs of one-dimensional
    epsilon-0 blocks are merged into one factor first: R acts on their span
    as the flip, as it does between blocks.

    R acts on each factor's square as a signed flip of the irrep parts
    times the identity, which commutes with U (x) U; so R keeps its monomial
    form, while pi(t) -> U pi(t) U^dagger gets several entries per row and
    scalars with several coefficients.  Mixing across other blocks would
    fill R's rows instead and cost 100x or more per character.
    """
    groups = []  # [offset, irrep dimension, multiplicity, mergeable]
    for b in layout.blocks:
        flip_like = b.dim_v == 1 and b.dim_w == 1 and b.eps == 0
        if flip_like and groups and groups[-1][3]:
            groups[-1][1] += 1
        else:
            groups.append([b.offset, b.dim_v, b.dim_w, flip_like])
    u = ExactMatrix.zeros(layout.d, layout.d)
    for offset, dim, mult, _ in groups:
        a = seeded_unitary(rng, dim)
        for x in range(dim):
            for y in range(dim):
                for k in range(mult):
                    u.data[offset + x * mult + k][offset + y * mult + k] = a[x][y]
    return u


class Conjugated(Theorem):
    """Theorem checks at level <= 4, plus certify_couple and extract_thoma,
    on corpus couples conjugated by a seeded block unitary U."""

    name = "conjugated"
    trace_cycle_s = 0.5
    window = 4
    pair_window = 2
    elements_per_couple = 3
    pairs_per_couple = 1

    def setup(self, seed: int) -> State:
        corpus = load_corpus()
        rng = Lcg64(2 * seed + 1)
        conj = []
        for entry in corpus:
            couple, layout = build_couple(entry.params)
            u = seeded_block_unitary(rng, layout)
            uu = u.kron(u)
            r_m = uu * couple.r.m * uu.dagger()
            pi = [u * m * u.dagger() for m in couple.pi]
            entry.couple = certify_couple(couple.group, verify_rmatrix(r_m, couple.d), pi, couple.w)
            conj.append((r_m, pi, thoma_restriction(entry.params)))
        return State(corpus, {"conjugated": conj})

    def cycle(self, state: State, rng: Lcg64, index: int) -> list[Item]:
        items = super().cycle(state, rng, index)
        return items + [Item("certify", k) for k in range(len(state.corpus))]

    def run(self, state: State, item: Item, in_process: bool = False) -> str:
        entry = state.corpus[item.corpus]
        if item.kind != "certify":
            return self._check_character(entry.params, entry.couple, item)
        r_m, pi, restriction = state.extra["conjugated"][item.corpus]
        r = verify_rmatrix(r_m, entry.couple.d)
        certify_couple(entry.params.group, r, pi, entry.couple.w)
        return _verdict(extract_thoma(r) == restriction)


# -- thoma -----------------------------------------------------------------


def seeded_partition(rng: Lcg64, k: int) -> list[int]:
    parts = []
    while k:
        part = 1 + rng.below(k)
        parts.append(part)
        k -= part
    return sorted(parts, reverse=True)


class Thoma(Workload):
    """Normal forms built by box-sum, certified, and their weights extracted."""

    name = "thoma"
    trace_cycle_s = 12.0
    dims = (6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18)
    corpus_min_dim = 6

    def setup(self, seed: int) -> State:
        corpus = load_corpus()
        forms = []
        for entry in corpus:
            weights = _expected_thoma(entry.expected)
            step = weights.minimal_denominator()
            forms.append((step * -(-self.corpus_min_dim // step), weights))
        return State(corpus, {"corpus_forms": forms})

    def cycle(self, state: State, rng: Lcg64, index: int) -> list[Item]:
        items = []
        for d in shuffled(rng, list(self.dims)):
            k = rng.below(d + 1)
            lam, mu = seeded_partition(rng, k), seeded_partition(rng, d - k)
            weights = ThomaParams.make([Fraction(x, d) for x in lam], [Fraction(x, d) for x in mu])
            items.append(Item("random", -1, (d, weights)))
        # one normal form of a corpus restriction per cycle, round robin
        forms = state.extra["corpus_forms"]
        k = index % len(forms)
        items.insert(rng.below(len(items) + 1), Item("corpus", k, forms[k]))
        return items

    def run(self, state: State, item: Item, in_process: bool = False) -> str:
        d, weights = item.payload
        built = normal_form_from_thoma(weights, d)
        return _verdict(extract_thoma(verify_rmatrix(built.m, d)) == weights)


# -- cli -------------------------------------------------------------------


class TimeLimit(Exception):
    pass


def _raise_time_limit(signum, frame):
    raise TimeLimit()


_THOMA_RE = re.compile(r"^alpha=\[(.*)\] beta=\[(.*)\]$")


def parse_thoma(text: str) -> tuple | None:
    m = _THOMA_RE.match(text)
    if m is None:
        return None
    return tuple(tuple(Fraction(v) for v in part.split(", ") if v) for part in m.groups())


class Cli(Workload):
    """``python -m ybw.cli`` subprocesses, one at a time, over the corpus."""

    name = "cli"
    measures_children = True
    trace_cycle_s = 15.0
    # each normal command runs this often per cycle, the hostile input once
    repeats = 3

    def setup(self, seed: int) -> State:
        corpus = load_corpus()
        base = Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch))
        files = {"flip2": str(corpus_dir() / "flip2.rmatrix.json")}
        for k, entry in enumerate(corpus):
            couple, _ = build_couple(entry.params)
            files[f"params{k}"] = str(corpus_dir() / entry.file)
            files[f"couple{k}"] = str(base / f"couple{k}.json")
            codecs.write_json_file(files[f"couple{k}"], codecs.couple_file_to_json(
                couple.group, couple.d, couple.w, couple.r.m, list(couple.pi)))
            files[f"rmatrix{k}"] = str(base / f"rmatrix{k}.json")
            codecs.write_json_file(files[f"rmatrix{k}"],
                                   codecs.rmatrix_file_to_json(couple.d, couple.r.m))
            for j, check in enumerate(entry.expected["chars"]):
                files[f"element{k}.{j}"] = str(base / f"element{k}.{j}.json")
                codecs.write_json_file(files[f"element{k}.{j}"], check["element"])
        raw = {
            "hostile": HOSTILE_RMATRIX,
            "malformed": '{"format": 1, "d": 2, "dim_rows": 4,',
            # R = 2 * identity on C^1 (x) C^1: R^2 != 1, so certification fails
            "not_involutive": json.dumps({"format": 1, "d": 1, "dim_rows": 1, "dim_cols": 1,
                                          "conductor": 1, "entries": [[0, 0, "2"]]}),
            "bad_element": json.dumps({"format": 1, "colors": {"1": 99}, "cycles": []}),
        }
        for key, text in raw.items():
            files[key] = str(base / f"{key}.json")
            Path(files[key]).write_text(text)
        manifest = codecs.read_json_file(corpus_dir() / "expectations.json")
        return State(corpus, {"files": files, "dir": base, "out": str(base / "built.json"),
                              "flip2": manifest["rmatrices"][0]})

    def teardown(self, state: State) -> None:
        shutil.rmtree(state.extra["dir"], ignore_errors=True)

    def cycle(self, state: State, rng: Lcg64, index: int) -> list[Item]:
        items = [Item("hostile", -1)]
        for _ in range(self.repeats):
            items += self._commands(state, rng)
        return shuffled(rng, items)

    @staticmethod
    def _commands(state: State, rng: Lcg64) -> list[Item]:
        n = len(state.corpus)

        def pick():
            return rng.below(n)

        k_char = pick()
        j_char = rng.below(len(state.corpus[k_char].expected["chars"]))
        k_hirai = pick()
        j_hirai = rng.below(len(state.corpus[k_hirai].expected["chars"]))
        return [
            Item("catalog", -1),
            Item("check-rmatrix", -1),
            Item("thoma", pick()),
            Item("params-check", pick()),
            Item("build", pick()),
            Item("check-couple", pick()),
            Item("char", k_char, (j_char,)),
            Item("hirai-char", k_hirai, (j_hirai,)),
            Item("selftest", -1),
            Item("verify-theorem", pick(), (rng.below(1 << 20),)),
            Item("exit1-not-involutive", -1),
            Item("exit2-malformed", -1),
            Item("exit2-bad-element", pick()),
        ]

    def argv(self, state: State, item: Item) -> tuple[list[str], int]:
        """The command line and its expected exit code."""
        f = state.extra["files"]
        k, kind = item.corpus, item.kind
        if kind == "catalog":
            return ["catalog"], 0
        if kind == "check-rmatrix":
            return ["check-rmatrix", f["flip2"]], 0
        if kind == "thoma":
            return ["thoma", f[f"rmatrix{k}"]], 0
        if kind == "params-check":
            return ["params", "check", f[f"params{k}"]], 0
        if kind == "build":
            return ["build", f[f"params{k}"], "--out", state.extra["out"]], 0
        if kind == "check-couple":
            return ["check-couple", f[f"couple{k}"]], 0
        if kind == "char":
            return ["char", f[f"couple{k}"], "--element", f[f"element{k}.{item.payload[0]}"]], 0
        if kind == "hirai-char":
            return ["hirai-char", f[f"params{k}"], "--element",
                    f[f"element{k}.{item.payload[0]}"]], 0
        if kind == "selftest":
            return ["selftest"], 0
        if kind == "verify-theorem":
            return ["verify-theorem", f[f"params{k}"], "--samples", "4",
                    "--seed", str(item.payload[0])], 0
        if kind == "exit1-not-involutive":
            return ["check-rmatrix", f["not_involutive"]], 1
        if kind == "exit2-malformed":
            return ["thoma", f["malformed"]], 2
        if kind == "exit2-bad-element":
            return ["hirai-char", f[f"params{k}"], "--element", f["bad_element"]], 2
        if kind == "hostile":
            return ["check-rmatrix", f["hostile"]], 2
        raise ValueError(f"unknown cli item kind {kind!r}")

    def run(self, state: State, item: Item, in_process: bool = False) -> str:
        argv, want = self.argv(state, item)
        argv = ["--format", "json"] + argv
        if in_process:
            code, out, err = self._run_in_process(argv)
        else:
            code, out, err = self._run_subprocess(argv)
        if code is None:
            return KILLED
        if code != want:
            return WRONG
        if want == 2:
            return _verdict(err.startswith("error: malformed input:"))
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return WRONG
        return _verdict(self._check_report(state, item, report, want))

    def _check_report(self, state: State, item: Item, report: dict, want: int) -> bool:
        findings = {f["check"]: f for f in report["findings"]}
        verdicts = [f["verdict"] for f in report["findings"]]
        if want == 1:
            return "fail" in verdicts
        if "fail" in verdicts or report["exit_code"] != 0:
            return False
        expected = state.corpus[item.corpus].expected if item.corpus >= 0 else None
        if item.kind == "catalog":
            return sum(1 for c in findings if c.startswith("group ")) == 16
        if item.kind in ("check-rmatrix", "thoma"):
            want = _weights(state.extra["flip2"] if item.kind == "check-rmatrix" else expected)
            return parse_thoma(findings["thoma parameters"]["witness"]) == want
        if item.kind == "params-check":
            return (findings["yb admissible"]["witness"] == f"minimal_d={expected['minimal_d']}"
                    and parse_thoma(findings["thoma restriction"]["witness"]) == _weights(expected))
        if item.kind == "build":
            return findings["couple built"]["witness"].startswith(f"d={expected['minimal_d']},")
        if item.kind in ("char", "hirai-char"):
            check = "character" if item.kind == "char" else "hirai character"
            value = findings[check]["witness"].split(" = ")[0]
            want_v = expected["chars"][item.payload[0]]["value"]
            return re.fullmatch(r"-?\d+(/\d+)?", value) is not None and Fraction(value) == Fraction(want_v)
        return True  # check-couple, selftest, verify-theorem: every finding passed

    def _run_subprocess(self, argv: list[str]) -> tuple:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"), YBW_COLOR="0")
        try:
            proc = subprocess.run([sys.executable, "-m", "ybw.cli"] + argv, env=env,
                                  cwd=self.root, capture_output=True, text=True,
                                  timeout=CLI_TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            return None, "", ""
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def _run_in_process(argv: list[str]) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _raise_time_limit)
        signal.setitimer(signal.ITIMER_REAL, CLI_TIME_LIMIT_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_main(argv)
                except SystemExit as exc:
                    code = exc.code
        except TimeLimit:
            return None, "", ""
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return code, out.getvalue(), err.getvalue()


WORKLOADS = {w.name: w for w in (Theorem, Conjugated, Thoma, Cli)}
