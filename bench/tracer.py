"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ybw modules from outside the
package.  Each wrapped call records a span: item id, span id, parent span
id, name, start, end, self time, and the time of the scalar operations
counted directly inside it.  Spans are kept in memory and written out when
the run ends.  A span's self time is its duration minus the time covered
by its child spans, by the counted scalar operations and by the tracer's
own bookkeeping inside it.

The cyclotomic scalar operations are far too hot for one span per call, so
they are counted instead: each open span carries counters for the scalar
multiplications, additions and inversions made directly inside it, and the
counters are folded into per-parent totals when the span closes.

Wrapping rebinds every attribute of the loaded ``ybw`` modules (and of the
caller's modules passed to ``install``) that refers to a target function,
so calls through ``from .matrix import amplify`` bindings are caught too;
methods are rebound on their class.
``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import sys
from time import perf_counter as clock

# (span name, module, attribute); a dotted attribute is a method.
SPAN_TARGETS = (
    ("matrix.sparse_mul", "ybw.matrix", "SparseOperator.__mul__"),
    ("matrix.dense_mul", "ybw.matrix", "ExactMatrix.__mul__"),
    ("matrix.amplify", "ybw.matrix", "amplify"),
    ("rmatrix.verify", "ybw.rmatrix", "verify_rmatrix"),
    ("rmatrix.boxplus", "ybw.rmatrix", "boxplus"),
    ("rmatrix.cycle_traces", "ybw.rmatrix", "cycle_trace_sequence"),
    ("rmatrix.extract", "ybw.rmatrix", "extract_thoma"),
    ("rmatrix.yb_rep_perm", "ybw.rmatrix", "yb_rep_perm"),
    ("couple.certify", "ybw.couple", "certify_couple"),
    ("couple.rep_element", "ybw.couple", "rep_element"),
    ("couple.character", "ybw.couple", "character"),
    ("hirai.closed_form", "ybw.hirai", "closed_form_character"),
    ("wreath.mul", "ybw.wreath", "WreathElement.__mul__"),
    ("wreath.decompose", "ybw.wreath", "standard_decomposition"),
    ("construct.build_couple", "ybw.construct", "build_couple"),
    ("groups.catalog_irreps", "ybw.groups", "catalog_irreps"),
    ("groups.load_group", "ybw.groups", "load_group"),
) + tuple(("io.decode", "ybw.io", fn) for fn in (
    "read_json_file", "scalar_from_json", "matrix_from_json", "group_from_json",
    "element_from_json", "params_from_json", "rmatrix_file_from_json",
    "couple_file_from_json",
)) + tuple(("io.encode", "ybw.io", fn) for fn in (
    "scalar_to_json", "matrix_to_json", "group_to_json", "element_to_json",
    "rmatrix_file_to_json", "couple_file_to_json", "write_json_file", "dumps",
))

# Counted scalar operations of CycloScalar: (counter index, attributes).
MUL, ADD, INV = 0, 1, 2
COUNTED_TARGETS = ((MUL, ("__mul__", "__rmul__")), (ADD, ("__add__", "__radd__")), (INV, ("inv",)))
ROOT_NAME = "bench.item"


def _new_frame(span_id: int) -> list:
    # [span id, covered seconds, calls per op, seconds per op, general products]
    return [span_id, 0.0, [0, 0, 0], [0.0, 0.0, 0.0], 0]


class Tracer:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self):
        self.names: list[str] = [ROOT_NAME]
        self._name_ids = {ROOT_NAME: 0}
        self.spans: list[tuple] = []
        # between items, calls land in an unrecorded frame of item -1
        self.stack: list[list] = [_new_frame(0)]
        self.item = -1
        self._next_id = 0
        self._root_start = 0.0
        # parent span name -> [calls per op, seconds per op, general products]
        self.cyclo_by_parent: dict[str, list] = {}
        self.max_conductor = 1
        self.sparse_entries_out = 0
        self.max_op_dim = 0
        self.candidates_tried = 0
        self.rep_levels = 0
        self.rep_supports = 0
        self.character_args: list[tuple] = []
        self._patches: list[tuple] = []

    # -- items ----------------------------------------------------------

    def begin_item(self, item: int) -> None:
        self.item = item
        self._next_id += 1
        self.stack = [_new_frame(self._next_id)]
        self._root_start = clock()

    def end_item(self) -> float:
        """Close the item's root span and return the item duration."""
        end = clock()
        root = self.stack[0]
        self._record(root, -1, 0, self._root_start, end)
        self.stack = [_new_frame(0)]
        self.item = -1
        return end - self._root_start

    def _record(self, frame: list, parent_id: int, name_id: int, start: float, end: float) -> None:
        calls, times, general = frame[2], frame[3], frame[4]
        cyclo_s = times[0] + times[1] + times[2]
        self.spans.append((self.item, frame[0], parent_id, name_id, start, end,
                           (end - start) - frame[1], cyclo_s))
        if calls[0] or calls[1] or calls[2]:
            name = self.names[name_id]
            agg = self.cyclo_by_parent.get(name)
            if agg is None:
                agg = self.cyclo_by_parent[name] = [[0, 0, 0], [0.0, 0.0, 0.0], 0]
            for k in range(3):
                agg[0][k] += calls[k]
                agg[1][k] += times[k]
            agg[2] += general

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, name: str, fn, post):
        name_id = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            tracer._next_id += 1
            frame = _new_frame(tracer._next_id)
            stack.append(frame)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                # an exception raised by a signal handler may leave deeper frames
                while stack and stack[-1] is not frame:
                    stack.pop()
                if stack:
                    stack.pop()
                tracer._record(frame, parent[0], name_id, start, end)
                if post is not None and out is not None and out is not NotImplemented:
                    post(tracer, args, out)
                parent[1] += clock() - start

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_wrapper(self, op: int, fn):
        tracer = self

        if op == INV:
            def wrapper(a):
                start = clock()
                out = fn(a)
                elapsed = clock() - start
                frame = tracer.stack[-1]
                frame[1] += elapsed
                frame[2][op] += 1
                frame[3][op] += elapsed
                if a.n > tracer.max_conductor:
                    tracer.max_conductor = a.n
                return out
        else:
            def wrapper(a, b):
                start = clock()
                out = fn(a, b)
                elapsed = clock() - start
                frame = tracer.stack[-1]
                frame[1] += elapsed
                frame[2][op] += 1
                frame[3][op] += elapsed
                bn = getattr(b, "n", 1)
                if a.n != 1 and bn != 1 and op == MUL:
                    frame[4] += 1
                if a.n > tracer.max_conductor or bn > tracer.max_conductor:
                    tracer.max_conductor = max(a.n, bn)
                return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, callers=()) -> None:
        """Rebind every target in the loaded ybw modules and in ``callers``."""
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "ybw" or name.startswith("ybw.")) and m is not None]
        modules += list(callers)
        for name, module_name, attr in SPAN_TARGETS:
            module = sys.modules[module_name]
            post = _POST_HOOKS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._span_wrapper(name, vars(cls)[meth], post))
                continue
            fn = getattr(module, attr)
            wrapper = self._span_wrapper(name, fn, post)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)
        rmatrix = sys.modules["ybw.rmatrix"]
        pairs = rmatrix.partition_pairs

        def counted_pairs(d):
            out = pairs(d)
            self.candidates_tried += len(out)
            return out

        self._patch(rmatrix, "partition_pairs", counted_pairs)
        scalar_cls = sys.modules["ybw.cyclo"].CycloScalar
        for op, attrs in COUNTED_TARGETS:
            wrappers: dict[int, object] = {}
            for attr in attrs:
                fn = vars(scalar_cls)[attr]
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._counted_wrapper(op, fn)
                self._patch(scalar_cls, attr, wrappers[id(fn)])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ----------------------------------------------------------

    def span_totals(self) -> dict[str, list]:
        """Per span name: [calls, self seconds]."""
        out = {name: [0, 0.0] for name in self.names}
        for span in self.spans:
            acc = out[self.names[span[3]]]
            acc[0] += 1
            acc[1] += span[6]
        return out

    def cyclo_totals(self) -> tuple[list[int], list[float], int]:
        """Calls per op, seconds per op, and general multiplications."""
        calls, times, general = [0, 0, 0], [0.0, 0.0, 0.0], 0
        for agg in self.cyclo_by_parent.values():
            for k in range(3):
                calls[k] += agg[0][k]
                times[k] += agg[1][k]
            general += agg[2]
        return calls, times, general

    def item_module_self(self) -> dict[int, tuple[float, float]]:
        """Per item: (module self seconds incl. counted scalar ops, item duration)."""
        out: dict[int, list] = {}
        for item, _, parent, _, start, end, self_s, cyclo_s in self.spans:
            acc = out.setdefault(item, [0.0, 0.0])
            acc[0] += cyclo_s
            if parent == -1:
                acc[1] = end - start
            else:
                acc[0] += self_s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def to_json(self) -> dict:
        ops = ("mul", "add", "inv")
        return {
            "columns": ["item", "span", "parent", "name", "start", "end", "self_s", "cyclo_s"],
            "names": self.names,
            "spans": self.spans,
            "cyclo_by_parent": {
                parent: {"calls": dict(zip(ops, agg[0])), "self_s": dict(zip(ops, agg[1])),
                         "general_mul": agg[2]}
                for parent, agg in sorted(self.cyclo_by_parent.items())
            },
        }


def _sparse_post(tracer: Tracer, args, out) -> None:
    tracer.sparse_entries_out += sum(map(len, out.rows))
    tracer.max_op_dim = max(tracer.max_op_dim, out.dim)


def _dense_post(tracer: Tracer, args, out) -> None:
    tracer.max_op_dim = max(tracer.max_op_dim, out.rows)


def _amplify_post(tracer: Tracer, args, out) -> None:
    tracer.max_op_dim = max(tracer.max_op_dim, out.dim)


def _rep_element_post(tracer: Tracer, args, out) -> None:
    g, n = args[1], args[2]
    tracer.rep_levels += n
    tracer.rep_supports += len(g.support())


def _character_post(tracer: Tracer, args, out) -> None:
    # the couple itself is kept: ids of freed couples would be reused
    tracer.character_args.append((args[0], args[1]))


_POST_HOOKS = {
    "matrix.sparse_mul": _sparse_post,
    "matrix.dense_mul": _dense_post,
    "matrix.amplify": _amplify_post,
    "couple.rep_element": _rep_element_post,
    "couple.character": _character_post,
}
