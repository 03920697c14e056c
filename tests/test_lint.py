import ast
from pathlib import Path

import ybw


def test_no_assert_statements_in_the_package():
    # python -O drops assert statements, so no runtime check may be one
    offenders = []
    for path in sorted(Path(ybw.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"assert statements in src/ybw: {', '.join(offenders)}"


def test_every_error_class_is_raised_or_subclassed():
    # an error type that nothing raises promises a failure mode that cannot occur
    package = Path(ybw.__file__).parent
    errors = ast.parse((package / "errors.py").read_text())
    defined = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    used = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used.add(getattr(exc, "id", getattr(exc, "attr", None)))
            elif isinstance(node, ast.ClassDef):
                used.update(getattr(base, "id", None) for base in node.bases)
    unused = [name for name in defined if name not in used]
    assert not unused, f"error classes never raised or subclassed in src/ybw: {', '.join(unused)}"
