"""The benchmark tracer (``perfbench/tracing.py``) wraps suturant module
attributes by name; every one of them must exist, or a traced run fails
while the untraced program still works."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    missing = []
    for name, homes in _tracing().TARGETS.items():
        defining, fn = name.split(".")
        for home in (defining,) + tuple(homes):
            if not hasattr(importlib.import_module(f"suturant.{home}"), fn):
                missing.append(f"suturant.{home}.{fn}")
    cyclotomic = importlib.import_module("suturant.cyclotomic")
    if "from_coeffs" not in cyclotomic.CyclotomicScalar.__dict__:
        missing.append("suturant.cyclotomic.CyclotomicScalar.from_coeffs")
    assert not missing
