"""The benchmark's hooks into the program must keep working.

`perfbench/tracing.py` names methods and functions of the package directly.
A rename there would make `perfbench/run.py --trace 1` fail, so this checks
every name it uses against the package.  The checks of
`perfbench/workloads.py` must also turn down a wrong result record, and
pass every operation of each workload's tiny build, so that a change which
breaks a field or verdict the benchmark reads fails here in seconds.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def program_function(qualname):
    short, _, name = qualname.partition(".")
    module = importlib.import_module(f"leibniz_lab.{short}")
    fn = getattr(module, name, None)
    target = getattr(fn, "__wrapped__", fn)
    return inspect.isfunction(target) and target.__module__ == module.__name__


def test_traced_methods_are_defined_on_their_classes():
    tracing = load_perfbench("tracing")
    for short, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"leibniz_lab.{short}"), cls_name)
        assert meth in vars(cls), f"{short}.{cls_name}.{meth}"


def test_hooked_and_shared_functions_exist():
    tracing = load_perfbench("tracing")
    names = set(tracing.Tracer({})._hooks()) | set(tracing.SHARED)
    missing = sorted(n for n in names if not program_function(n))
    assert not missing


def test_workload_checks_turn_down_a_wrong_record(tmp_path, monkeypatch):
    """A wrong copy made with `_replace`, as the benchmark's self-test means to
    make one, fails the check of a `relations` and a `session` operation."""
    workloads = load_perfbench("workloads")
    lab = workloads.load_program()
    op = workloads.relations(lab, 5, tmp_path, tiny=True).ops[0]
    rep = op.call()
    assert op.check(rep) is None
    assert op.check(rep._replace(derived_linear=rep.derived_linear[1:])) is not None

    ops = [op for op in workloads.session(lab, 5, tmp_path, tiny=True).ops
           if op.name == "classify-l41"]
    assert ops and all(op.check(op.call()) is None for op in ops)
    classify_L41 = lab["cli"].classify_L41

    def misfile(p):
        res = classify_L41(p)
        return res._replace(case="1" if res.case != "1" else "2.1")

    monkeypatch.setattr(lab["cli"], "classify_L41", misfile)
    assert all(op.check(op.call()) is not None for op in ops)


def test_every_tiny_operation_passes_its_check(tmp_path):
    """Each workload built tiny and run once, as a benchmark round runs it:
    every output passes its check, those of known faults included."""
    workloads = load_perfbench("workloads")
    lab = workloads.load_program()
    caches = workloads.memo_caches(lab)
    for name in workloads.WORKLOADS:
        (tmp_path / name).mkdir()
        for op in workloads.BUILDERS[name](lab, 5, tmp_path / name, tiny=True).ops:
            if op.fresh:
                for cache in caches:
                    cache.cache_clear()
            out = op.call()
            if op.keep:
                out = op.keep(out)
            assert op.check(out) is None, (name, op.name)


def test_derivation_rows_reach_the_eliminator_through_its_hook():
    """Under the tracer, derivation_algebra(T(5)) hands its rows to
    `linalg.sparse_kernel_basis` from a generator it defines, so the row
    count and the row-building time both land on their layers."""
    tracing = load_perfbench("tracing")
    lab = load_perfbench("workloads").load_program()
    tracer = tracing.Tracer(lab)
    tracer.install()
    try:
        lab["algebra"].derivation_algebra(lab["triangular"].triangular(5))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    pulls = [span for span in tracer.spans if span[0] == "algebra.derivation_algebra"
             and span[3] >= 0 and names[span[3]] == "linalg.sparse_kernel_basis"]
    assert tracer.counts["linalg.sparse_kernel_basis.rows"] == len(pulls) - 1 > 0


def test_derivation_algebra_of_t8_stays_within_its_eliminator_budget(monkeypatch):
    """T(8) is skew, so only its conditions with i < j are built: 3,780 rows
    and 41 kernel vectors, against 7,601 adds for the full loop."""
    from leibniz_lab.algebra import derivation_algebra
    from leibniz_lab.linalg import RrefAccumulator
    from leibniz_lab.triangular import triangular

    calls = []
    add = RrefAccumulator.add
    monkeypatch.setattr(RrefAccumulator, "add", lambda acc, vec: calls.append(1) or add(acc, vec))
    assert derivation_algebra(triangular(8)).dim == 41
    assert len(calls) <= 3900


def test_derive_relations_at_5_2_stays_within_its_scalar_budget(monkeypatch):
    """Cold, derive_relations(5, 2) makes Scalars only of the residue cells
    its eliminator takes, each once, and of the Polys it returns or splits:
    4,926 in all, against 13,274 when the scan built a Poly for every
    coefficient."""
    from leibniz_lab import extensions, scalars, triangular

    for mod in (extensions, triangular):
        for obj in vars(mod).values():
            if callable(obj) and hasattr(obj, "cache_clear"):
                obj.cache_clear()
    made = []
    new = scalars._new
    monkeypatch.setattr(scalars, "_new", lambda x, y, d: made.append(1) or new(x, y, d))
    assert extensions.derive_relations(5, 2).ok
    assert len(made) <= 6500
