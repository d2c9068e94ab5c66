"""The benchmark's tracer wraps program names; they must keep existing.

`perfbench/tracing.py` names methods and functions of the package directly.
A rename there would make `perfbench/run.py --trace 1` fail, so this checks
every name it uses against the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def program_function(qualname):
    short, _, name = qualname.partition(".")
    module = importlib.import_module(f"leibniz_lab.{short}")
    fn = getattr(module, name, None)
    target = getattr(fn, "__wrapped__", fn)
    return inspect.isfunction(target) and target.__module__ == module.__name__


def test_traced_methods_are_defined_on_their_classes():
    tracing = load_tracing()
    for short, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"leibniz_lab.{short}"), cls_name)
        assert meth in vars(cls), f"{short}.{cls_name}.{meth}"


def test_hooked_and_shared_functions_exist():
    tracing = load_tracing()
    names = set(tracing.Tracer({})._hooks()) | set(tracing.SHARED)
    missing = sorted(n for n in names if not program_function(n))
    assert not missing
