"""Per-layer spans, recorded from outside the program.

`Tracer.install` wraps the public functions of each leibniz_lab module and a
few named methods, and rebinds every reference the package holds to them:
module attributes (so `from .algebra import is_lie` copies are caught) and
values of module-level dicts (the CLI's handler table). Spans stay in memory
and are written out when the run ends. `uninstall` puts every binding back.
Untraced runs never build a Tracer, so they run the program unwrapped.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# Methods traced as a layer of their own: (module, class, method) -> span.
METHODS = {
    ("scalars", "Poly", "substitute"): "scalars.poly_substitute",
    ("linalg", "Subspace", "reduce"): "linalg.subspace_reduce",
    ("linalg", "RrefAccumulator", "add"): "linalg.rref_accumulator",
    ("linalg", "RrefAccumulator", "contains"): "linalg.rref_accumulator",
    ("symsolve", "LinearSpan", "__init__"): "symsolve.linear_span",
    ("symsolve", "LinearSpan", "contains"): "symsolve.linear_span",
    ("algebra", "StructureTable", "to_scalar"): "algebra.to_scalar",
}

# Module functions reported under one shared span name.
SHARED = {
    "algebra.lower_central_series": "algebra.series",
    "algebra.derived_series": "algebra.series",
    "algebra.table_to_document": "algebra.table_io",
    "algebra.table_from_document": "algebra.table_io",
    "algebra.dumps_table": "algebra.table_io",
    "algebra.loads_table": "algebra.table_io",
    "algebra.save_table": "algebra.table_io",
    "algebra.load_table": "algebra.table_io",
}

# `scalar` coerces one coefficient and runs once per term of every Poly.const;
# a span around it would cost more than the call it measures.
SKIPPED = {"scalars.scalar"}


def is_program_module(name: str) -> bool:
    return name == "leibniz_lab" or name.startswith("leibniz_lab.")


def rebind(replacements: dict) -> list:
    """Point every reference the package holds to an original at its stand-in.

    `replacements` maps id(original) to (original, stand-in). Returns the
    undo list for `restore`.
    """
    undo = []
    for name, mod in list(sys.modules.items()):
        if not is_program_module(name):
            continue
        space = vars(mod)
        for attr, value in list(space.items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((space, attr, value))
                space[attr] = hit[1]
            elif isinstance(value, dict):
                for key, inner in list(value.items()):
                    hit = replacements.get(id(inner))
                    if hit is not None and hit[0] is inner:
                        undo.append((value, key, inner))
                        value[key] = hit[1]
    return undo


def restore(undo: list) -> None:
    for space, key, value in reversed(undo):
        space[key] = value


def bindings() -> dict:
    """Snapshot of every binding `rebind` could touch, for restore checks."""
    snap = {}
    for name, mod in sys.modules.items():
        if not is_program_module(name):
            continue
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
            if isinstance(value, dict):
                for key, inner in value.items():
                    snap[(name, attr, key)] = inner
            if inspect.isclass(value) and value.__module__ == name:
                for meth, fn in vars(value).items():
                    snap[(name, attr, "." + meth)] = fn
    return snap


class Tracer:
    """Spans (name, start, end, parent, op) and exact per-layer counts."""

    def __init__(self, lab: dict):
        self.lab = lab
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._seen: dict = {}
        self._undo: list = []
        self._methods: list = []

    # ---- counts computed from the arguments --------------------------------

    def _residues(self, args, kwargs):
        table = args[0]
        self.counts["algebra.leibniz_residues.triples"] += table.dim ** 3
        self._repeat("algebra.leibniz_residues", ("residues", id(table)), table)
        return args, kwargs

    def _series(self, kind):
        def hook(args, kwargs):
            self._repeat("algebra.series", (kind, id(args[0])), args[0])
            return args, kwargs
        return hook

    def _rref(self, args, kwargs):
        m = args[0]
        self.counts["linalg.rref.cells"] += m.nrows * m.ncols
        return args, kwargs

    def _sparse_rows(self, args, kwargs):
        # Count rows as the eliminator pulls them, keeping a generator lazy.
        # Making a row is the generator's work, not the eliminator's: each
        # pull is a span named after the function that defined the generator.
        rows = args[0]
        owner = None
        if inspect.isgenerator(rows) and rows.gi_frame is not None:
            module = rows.gi_frame.f_globals.get("__name__", "")
            owner = f"{module.rpartition('.')[2]}.{rows.gi_code.co_qualname.split('.')[0]}"

        def counted():
            it = iter(rows)
            while True:
                if owner:
                    idx, start = self._enter()
                try:
                    row = next(it)
                except StopIteration:
                    return
                finally:
                    if owner:
                        self._exit(idx, owner, start)
                self.counts["linalg.sparse_kernel_basis.rows"] += 1
                yield row
        return (counted(),) + tuple(args[1:]), kwargs

    def _repeat(self, span: str, key: tuple, obj) -> None:
        # the table is held until the operation ends, so its id stays unique
        if key in self._seen:
            self.counts[span + ".repeat_calls"] += 1
        else:
            self._seen[key] = obj

    def _hooks(self) -> dict:
        return {"algebra.leibniz_residues": self._residues,
                "algebra.lower_central_series": self._series("lower"),
                "algebra.derived_series": self._series("derived"),
                "linalg.rref": self._rref,
                "linalg.sparse_kernel_basis": self._sparse_rows}

    # ---- spans -------------------------------------------------------------

    def _enter(self) -> tuple:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx, perf_counter()

    def _exit(self, idx: int, span: str, start: float) -> None:
        end = perf_counter()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (span, start, end, parent, self.op)

    def _wrap(self, fn, span: str, hook=None):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            idx, start = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx, span, start)

        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
            traced.cache_info = fn.cache_info
        traced.__perfbench_span__ = span
        return traced

    def install(self) -> None:
        hooks = self._hooks()
        replacements = {}
        for short, mod in self.lab.items():
            for attr, obj in vars(mod).items():
                qual = f"{short}.{attr}"
                if attr.startswith("_") or qual in SKIPPED:
                    continue
                target = getattr(obj, "__wrapped__", obj)
                if not (inspect.isfunction(target) and target.__module__ == mod.__name__):
                    continue
                span = SHARED.get(qual, qual)
                replacements[id(obj)] = (obj, self._wrap(obj, span, hooks.get(qual)))
        self._undo = rebind(replacements)
        for (short, cls_name, meth), span in METHODS.items():
            cls = getattr(self.lab[short], cls_name)
            original = vars(cls)[meth]
            self._methods.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, span))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []
        for cls, meth, original in reversed(self._methods):
            setattr(cls, meth, original)
        self._methods = []

    def begin_op(self, k: int) -> tuple:
        """Open operation k's root span; returns (span index, start)."""
        self.op = k
        self._seen.clear()
        return self._enter()

    def end_op(self, name: str, opened: tuple) -> None:
        self._exit(opened[0], f"op.{name}", opened[1])
        self._seen.clear()

    # ---- results -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """{span name: (calls, self seconds)}; self = duration minus children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start) - child[k])
        return totals

    def metric(self, name: str, totals: dict):
        """Value of a per-layer metric named `<span>.calls|self_s|<count>`."""
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            return totals.get(span, (0, 0.0))[0]
        if stat == "self_s":
            return totals.get(span, (0, 0.0))[1]
        if name in self.counts or stat in ("triples", "rows", "cells", "repeat_calls"):
            return self.counts.get(name, 0)
        raise KeyError(name)

    def dump(self, path: Path, ops: list) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "ops": ops,
                       "spans": [[n, round(a - origin, 7), round(b - origin, 7), p, o]
                                 for n, a, b, p, o in self.spans]}, fh)
