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
