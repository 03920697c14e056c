import ast
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import ybw
from ybw.rng import Lcg64


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


def test_every_name_the_benchmark_tracer_patches_exists():
    # bench/tracer.py rebinds these names by string; a rename in src/ybw
    # would otherwise surface only when a traced benchmark run starts
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, module_name, attr in tracer.SPAN_TARGETS:
        owner = importlib.import_module(module_name)
        *classes, leaf = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        # methods are read from the class body, as the tracer reads them
        if owner is None or leaf not in (vars(owner) if classes else dir(owner)):
            missing.append(f"{name}: {module_name}.{attr}")
    scalar = importlib.import_module("ybw.cyclo").CycloScalar
    missing += [f"ybw.cyclo.CycloScalar.{attr}" for _, attrs in tracer.COUNTED_TARGETS
                for attr in attrs if attr not in vars(scalar)]
    if not hasattr(importlib.import_module("ybw.rmatrix"), "partition_pairs"):
        missing.append("ybw.rmatrix.partition_pairs")
    assert tracer.SPAN_TARGETS and not missing, f"names bench/tracer.py patches are gone: {missing}"


def test_one_cycle_of_each_in_process_benchmark_workload_passes(tmp_path, monkeypatch):
    # the workloads call the program through RMatrix.m, YangBaxterCouple.pi,
    # the ExactMatrix arithmetic and a dense verify_rmatrix; one cycle each
    # keeps a change there from surfacing only when the benchmark runs
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    start = time.perf_counter()
    for name in ("theorem", "conjugated", "thoma"):
        workload = workloads.WORKLOADS[name](path.parent.parent, tmp_path)
        state = workload.setup(1)
        items = workload.cycle(state, Lcg64(1), 0)
        verdicts = [workload.run(state, item, in_process=True) for item in items]
        assert items and set(verdicts) == {workloads.PASS}, (name, verdicts)
        workload.teardown(state)
    assert time.perf_counter() - start < 1


def test_no_unused_imports_in_the_package():
    # an import that nothing reads is left over from code that moved away
    offenders = []
    for path in sorted(Path(ybw.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # re-exports are its purpose
            continue
        tree = ast.parse(path.read_text(), str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]
    assert not offenders, f"unused imports in src/ybw: {', '.join(sorted(offenders))}"


# Public names that nothing in src/ybw, scripts/ or bench/ reads, each kept
# for the reason given; any other unread public name is dead code.
UNREAD_PUBLIC_NAMES = {
    "TensorIndex": "dense test world; leaves the package with ExactMatrix (ROADMAP item 6)",
    "ExactMatrix.diag": "dense test world; leaves the package with ExactMatrix (ROADMAP item 6)",
    "ExactMatrix.from_entries": "dense test world; leaves the package with ExactMatrix (ROADMAP item 6)",
    "flip_operator": "dense test world; leaves the package with ExactMatrix (ROADMAP item 6)",
    "merge_thoma": "test oracle of the box-sum merge law (acceptance criterion 3)",
    "ThomaParams.power_sum": "test oracle of the Thoma formula (acceptance criterion 1)",
    "block_thoma": "test oracle of the Thoma parameters of one construction block",
    "gram_psd_check": "float positivity probe of acceptance criterion 10, made exact by ROADMAP item 7",
    "FinitePermutation.transposition": "test fixture",
}


def test_every_public_name_is_read_at_runtime():
    # a public function, class or method that only tests call is a codec or
    # wrapper nothing runs; names are matched by identifier, not by owner
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "ybw"
    read = set()
    for path in [*package.glob("*.py"), *(root / "scripts").glob("*.py"), *(root / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and path.name == "tracer.py" and any(
                    getattr(t, "id", None) == "SPAN_TARGETS" for t in node.targets):
                # the tracer rebinds these by their dotted names
                read.update(part for c in ast.walk(node.value)
                            if isinstance(c, ast.Constant) and isinstance(c.value, str)
                            for part in c.value.split("."))
    unread = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            unread += [node.name] if node.name not in read else []
            if isinstance(node, ast.ClassDef):
                unread += [f"{node.name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                           and item.name not in read]
    dead = sorted(set(unread) - set(UNREAD_PUBLIC_NAMES))
    assert not dead, f"public names no runtime code reads: {', '.join(dead)}"
    stale = sorted(set(UNREAD_PUBLIC_NAMES) - set(unread))
    assert not stale, f"allow-listed names that runtime code now reads: {', '.join(stale)}"
