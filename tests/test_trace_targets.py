"""The benchmark tracer (``perfbench/tracing.py``) wraps suturant module
attributes by name; every one of them must exist, or a traced run fails
while the untraced program still works."""

import ast
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


def test_every_unused_import_is_a_traced_attribute():
    """An import kept only under ``# noqa: F401`` must be one the tracer
    wraps at that module; once the tracer no longer wraps it, it goes."""
    wrapped = {(home, name.split(".")[1])
               for name, homes in _tracing().TARGETS.items()
               for home in homes}
    package = Path(importlib.util.find_spec("suturant").origin).parent
    sheltered = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "# noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                sheltered += [(path.stem, alias.asname or alias.name)
                              for alias in node.names]
    assert set(sheltered) <= wrapped, sorted(set(sheltered) - wrapped)
