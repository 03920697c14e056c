"""The default CLI output, text and JSON, pinned byte for byte.

For every corpus params file: hirai-char and char on each expectation
element of the manifest, and verify-theorem --samples 4 --seed 7.  Paths
in the output are written relative to the corpus and the work directory,
so the record does not depend on where the files live.

Regenerate the record only for a deliberate change of output:
    PYTHONPATH=src python tests/test_cli_pinned.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from ybw.cli import corpus_dir, main
from ybw.io import read_json_file

RECORD = Path(__file__).resolve().parent / "data" / "cli_pinned.json"


def _run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def pinned_outputs(work: Path) -> dict:
    """Output of every pinned command, keyed by command, file and format."""
    manifest = read_json_file(corpus_dir() / "expectations.json")
    runs = {}
    for item in manifest["params"]:
        name = item["file"]
        params = str(corpus_dir() / name)
        couple = str(work / f"{name}.couple.json")
        assert _run(["build", params, "--out", couple]).startswith("exit 0\n")
        for k, check in enumerate(item["chars"]):
            element = work / f"{name}.chars{k}.json"
            element.write_text(json.dumps(check["element"], sort_keys=True))
            runs[f"hirai-char {name} chars[{k}]"] = ["hirai-char", params, "--element", str(element)]
            runs[f"char {name} chars[{k}]"] = ["char", couple, "--element", str(element)]
        runs[f"verify-theorem {name}"] = ["verify-theorem", params, "--samples", "4", "--seed", "7"]
    out = {}
    for key, argv in runs.items():
        for fmt in ("text", "json"):
            text = _run(["--format", fmt] + argv)
            out[f"{key} {fmt}"] = (text.replace(str(work), "<work>")
                                   .replace(str(corpus_dir()), "<corpus>"))
    return out


def test_default_cli_output_is_unchanged(tmp_path):
    want = json.loads(RECORD.read_text())
    got = pinned_outputs(tmp_path)
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        record = pinned_outputs(Path(work))
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{len(record)} outputs written to {RECORD}", file=sys.stderr)
