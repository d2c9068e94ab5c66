"""Fixed-work benchmark of leibniz-lab.

    python3 perfbench/run.py --workload relations|transport|session \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src. Each
run makes the workload's fixed list of operations from --seed and runs it a
fixed number of rounds, in one process and one thread, one operation after
the other. It is not bounded by time; --seconds is accepted and recorded
only. The last line of stdout is one JSON object: {correct, attempted,
failed, metrics}. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json. With --trace 1 they are the per-layer ones, from one traced
round that follows the untraced rounds. The line before it carries
reference figures (machine, operation count, p90) that are not metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# The fixed list runs ROUNDS times per run and work_s is the median round:
# on a shared host the CPU speed drifts by 10-15 % over tens of seconds.
ROUNDS = 3
FRESH_IMPORTS = 9     # set-up: median import time over fresh interpreters
BUILDS = 9            # set-up: median input-building time in this process
P90_MIN_OPS = 40      # a p90 from fewer samples would not be a tail

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import leibniz_lab; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15,
                    help="accepted and recorded; runs are fixed work, not timed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must lie in 1..60")
    return args


def fresh_import_s() -> float:
    """Median time to import leibniz_lab in a fresh interpreter.

    One untimed import first compiles the bytecode, as any installed copy
    would have it.
    """
    times = []
    for k in range(FRESH_IMPORTS + 1):
        done = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        if k:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def fraction_muladd_ns(reps: int = 7, rounds: int = 2000) -> float:
    """Machine-speed reference: a fixed stdlib Fraction multiply-add loop."""
    vals = [Fraction(p, q) for p, q in ((3, 7), (-5, 11), (13, 2), (7, 9),
                                        (-1, 3), (22, 7), (5, 6), (-9, 4))]
    triples = [(vals[k], vals[(k + 3) % 8], vals[(k + 5) % 8]) for k in range(8)]
    return _median_ns(triples, reps, rounds)


def scalar_muladd_ns(values: list, reps: int = 7) -> float:
    """A Scalar multiply-add c + a*b over a fixed sample of the workload's values.

    Reads 0 when no operation produced a value to sample.
    """
    values = values[:256]
    n = len(values)
    if not n:
        return 0.0
    triples = [(values[k], values[(k + 1) % n], values[(k + 2) % n]) for k in range(n)]
    return _median_ns(triples, reps, max(1, 16000 // n))


def _median_ns(triples: list, reps: int, rounds: int) -> float:
    per = []
    for _ in range(reps):
        start = perf_counter()
        for _ in range(rounds):
            for a, b, c in triples:
                c + a * b
        per.append((perf_counter() - start) / (rounds * len(triples)) * 1e9)
    return statistics.median(per)


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build(lab: dict, caches: list, name: str, seed: int, tiny: bool):
    """Clear the memo caches, as a fresh process finds them, and build inputs."""
    for cache in caches:
        cache.cache_clear()
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    start = perf_counter()
    wl = workloads.BUILDERS[name](lab, seed, workdir, tiny=tiny)
    return wl, workdir, perf_counter() - start


def run_ops(wl, caches: list, rounds: int, tracer=None) -> dict:
    """The closed loop: each operation starts when the previous one returns.

    The fixed list runs `rounds` times in a row; every round attempts the
    same operations on the same inputs.
    """
    times, outputs, round_s = [], [], []
    cpu0 = process_time()
    for _ in range(rounds):
        start = perf_counter()
        outs, took = [], []
        for k, op in enumerate(wl.ops):
            if op.fresh:
                for cache in caches:
                    cache.cache_clear()
            opened = tracer.begin_op(k) if tracer else None
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            t1 = perf_counter()
            if tracer:
                tracer.end_op(op.name, opened)
            if op.keep and not isinstance(out, Exception):
                out = op.keep(out)
            took.append(t1 - t0)
            outs.append(out)
        round_s.append(perf_counter() - start)
        outputs.append(outs)
        times.append(took)
    return {"times": times, "outputs": outputs, "round_s": round_s,
            "work_s": statistics.median(round_s), "cpu_s": process_time() - cpu0}


def check_ops(wl, ran: dict) -> None:
    """Check every output of every round, after the timed loop, untraced."""
    failures = []
    for r, outs in enumerate(ran["outputs"]):
        for op, out in zip(wl.ops, outs):
            if isinstance(out, Exception):
                reason = f"raised {type(out).__name__}: {out}"
            else:
                try:
                    reason = op.check(out)
                except Exception as exc:  # a malformed output fails its check
                    reason = f"output not as expected: {type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append({"round": r, "op": op.name, "reason": reason,
                                 "known_fault": op.known_fault})
    ran["attempted"] = len(ran["outputs"]) * len(wl.ops)
    ran["failures"] = failures
    ran["correct"] = all(f["known_fault"] for f in failures)


def run_workload(lab: dict, name: str, seed: int, trace: bool = False,
                 tiny: bool = False) -> dict:
    """Set up, run and check one workload; returns figures for the report.

    A traced run first makes the untraced rounds, then one traced round of
    the same operations, so the two can be compared.
    """
    caches = workloads.memo_caches(lab)
    OUT.mkdir(parents=True, exist_ok=True)
    rounds = 1 if tiny else ROUNDS
    builds = []
    for k in range(BUILDS):
        wl, workdir, seconds = build(lab, caches, name, seed, tiny)
        builds.append(seconds)
        if k + 1 < BUILDS:
            shutil.rmtree(workdir)
    try:
        plain = run_ops(wl, caches, rounds)
        check_ops(wl, plain)
        result = {"build_s": statistics.median(builds), "plain": plain,
                  "op_names": [op.name for op in wl.ops]}
        if trace:
            import tracing
            tracer = tracing.Tracer(lab)
            tracer.install()
            try:
                traced = run_ops(wl, caches, 1, tracer)
            finally:
                tracer.uninstall()
            check_ops(wl, traced)
            result["traced"] = traced
            result["tracer"] = tracer
            result["muladd_ns"] = scalar_muladd_ns(
                wl.coefficients(traced["outputs"][0]))
        return result
    finally:
        shutil.rmtree(workdir)


def end_to_end(setup_s: float, plain: dict) -> dict:
    return {"setup_s": setup_s,
            "work_s": plain["work_s"],
            "op_p50_ms": statistics.median(map(statistics.fmean, zip(*plain["times"]))) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def per_layer(result: dict, names: list) -> dict:
    tracer = result["tracer"]
    totals = tracer.layer_totals()
    values = {}
    for name in names:
        if name == "scalars.muladd_ns":
            values[name] = result["muladd_ns"]
        elif name == "trace.overhead":
            values[name] = result["traced"]["work_s"] / result["plain"]["work_s"]
        else:
            values[name] = tracer.metric(name, totals)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "leibniz_lab" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from the root of a "
              "leibniz-lab checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    import_s = fresh_import_s()
    sys.path.insert(0, str(SRC))
    lab = workloads.load_program()
    if not Path(lab["algebra"].__file__).resolve().is_relative_to(SRC):
        print("perfbench: leibniz_lab was imported from outside ./src", file=sys.stderr)
        return 2

    result = run_workload(lab, args.workload, args.seed, trace=bool(args.trace))
    plain = result["plain"]
    if args.trace:
        traced = result["traced"]
        declared = spec["per_layer"]
        values = per_layer(result, [m["name"] for m in declared])
        outcome = traced
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        result["tracer"].dump(trace_file, result["op_names"])
    else:
        declared = spec["end_to_end"]
        values = end_to_end(import_s + result["build_s"], plain)
        outcome = plain
        trace_file = None

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "ops_per_round": len(result["op_names"]), "rounds": len(plain["round_s"]),
            "round_s": [round(x, 4) for x in plain["round_s"]],
            "cpu_s": round(plain["cpu_s"], 4),
            "import_s": round(import_s, 5), "build_s": round(result["build_s"], 5),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(),
            "ref_fraction_muladd_ns": round(fraction_muladd_ns(), 2),
            "failures": outcome["failures"]}
    if len(result["op_names"]) >= P90_MIN_OPS:
        pooled = [t for took in plain["times"] for t in took]
        info["op_p90_ms"] = statistics.quantiles(pooled, n=10)[-1] * 1e3
    if trace_file:
        info["trace_file"] = str(trace_file.relative_to(ROOT))
        info["untraced_work_s"] = plain["work_s"]
        info["traced_work_s"] = result["traced"]["work_s"]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": plain["correct"] and outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["failures"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
