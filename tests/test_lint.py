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
