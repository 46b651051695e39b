"""The traced benchmark run (bench/spans.py) wraps package functions by
name; every name it looks up must still resolve on the package."""

import importlib
import importlib.util
from pathlib import Path

from tdcert.sa_core import DelayProcess, TD0Provider

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    for mod_name, fn_name in _load_spans().FUNCTIONS:
        module = importlib.import_module(f"tdcert.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_traced_methods_defined_on_their_classes():
    # the recorder wraps vars(cls)[name], so inherited methods do not count
    for cls, name in ((TD0Provider, "direction"), (TD0Provider, "steady"),
                      (DelayProcess, "sequence")):
        assert callable(vars(cls).get(name)), f"{cls.__name__}.{name}"
