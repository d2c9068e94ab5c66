"""Quick self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout; it takes well under a minute. It shows:
every workload runs and checks out at tiny sizes, with only the known-fault
failures; an untraced run installs no wrapper; a traced run reports every
per-layer metric of BENCHMARK.json, reaches the copies of a function that
other modules imported, and restores every binding it wrapped; and a
deliberately wrong result from the program is reported as a failed
operation that makes the run incorrect. Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
import tracing
import workloads

SEED = 3


def same_bindings(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(before[k] is after[k] for k in before)


def sabotage(lab: dict) -> list:
    """(workload, module, function, wrong stand-in) for each workload."""
    def negate_lie(orig):
        return lambda a: not orig(a)

    def drop_relation(orig):
        def wrong(*args, **kwargs):
            rep = orig(*args, **kwargs)
            return dataclasses.replace(rep, derived_linear=rep.derived_linear[1:])
        return wrong

    def misfile_case(orig):
        def wrong(p):
            res = orig(p)
            return dataclasses.replace(res, case="1" if res.case != "1" else "2.1")
        return wrong

    return [("transport", "algebra", "is_lie", negate_lie),
            ("relations", "extensions", "derive_relations", drop_relation),
            ("session", "classify", "classify_L41", misfile_case)]


def main() -> int:
    if not (run.SRC / "leibniz_lab" / "__init__.py").is_file():
        print(f"selftest: no program sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    lab = workloads.load_program()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_names = [m["name"] for m in spec["per_layer"]]
    pristine = tracing.bindings()
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for name in workloads.WORKLOADS:
        res = run.run_workload(lab, name, SEED, tiny=True)
        plain = res["plain"]
        known = 3 if name == "session" else 0
        expect(plain["correct"] and len(plain["failures"]) == known,
               f"{name}: {len(res['op_names'])} ops, {len(plain['failures'])} failed "
               f"(want {known} known faults)")
        expect(same_bindings(pristine, tracing.bindings()),
               f"{name}: an untraced run leaves every binding as it was")

    tracer = tracing.Tracer(lab)
    tracer.install()
    try:
        wrapped = [lab["extensions"].leibniz_residues, lab["algebra"].leibniz_residues,
                   lab["cli"].HANDLERS["check"], lab["classify"].triangular,
                   lab["linalg"].Subspace.reduce, lab["extensions"].generic_extension]
        expect(all(hasattr(f, "__perfbench_span__") for f in wrapped),
               "tracing reaches imported copies, the CLI handler table and methods")
        expect(hasattr(lab["extensions"].generic_extension, "cache_clear"),
               "a traced memo cache can still be cleared")
    finally:
        tracer.uninstall()
    expect(same_bindings(pristine, tracing.bindings()),
           "uninstall restores every binding it wrapped")

    for name in workloads.WORKLOADS:
        res = run.run_workload(lab, name, SEED, trace=True, tiny=True)
        values = run.per_layer(res, layer_names)
        expect(set(values) == set(layer_names)
               and all(isinstance(v, (int, float)) for v in values.values()),
               f"{name}: a traced run reports all {len(layer_names)} per-layer metrics")
        expect(res["traced"]["correct"] and len(res["tracer"].spans) > len(res["op_names"]),
               f"{name}: traced outputs check out and spans were recorded")
        expect(same_bindings(pristine, tracing.bindings()),
               f"{name}: bindings restored after the traced run")

    for name, module, func, corrupt in sabotage(lab):
        orig = getattr(lab[module], func)
        undo = tracing.rebind({id(orig): (orig, corrupt(orig))})
        try:
            plain = run.run_workload(lab, name, SEED, tiny=True)["plain"]
        finally:
            tracing.restore(undo)
        unknown = [f for f in plain["failures"] if not f["known_fault"]]
        expect(bool(unknown) and not plain["correct"],
               f"{name}: a wrong {module}.{func} is reported as "
               f"{len(unknown)} failed operation(s)")
    expect(same_bindings(pristine, tracing.bindings()),
           "every stand-in was taken out again")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
