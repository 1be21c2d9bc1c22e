"""The two engines check each other only while neither reads the other:
the tensor engine (``kuperberg.py`` over ``algebra.py``) imports nothing
from the Fox engine (``foxcalc.py``), and the Fox engine nothing from the
tensor engine."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "suturant"

FORBIDDEN = {
    "kuperberg": {"foxcalc"},
    "algebra": {"foxcalc"},
    "foxcalc": {"kuperberg", "algebra"},
}


def package_imports(module):
    """The suturant modules ``module`` imports, by their short names."""
    path = PACKAGE / f"{module}.py"
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith("suturant.")}
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif (node.module or "").startswith("suturant"):
                base = node.module.partition(".")[2] or None
            else:
                continue
            if base:
                out.add(base.split(".")[0])
            else:            # from . import foxcalc
                out |= {alias.name for alias in node.names}
    return out


def test_engines_import_nothing_from_each_other():
    # the walk sees the package-relative imports the modules use
    assert {"algebra", "diagram"} <= package_imports("kuperberg")
    assert "foxcalc" in package_imports("invariant")
    crossed = {module: sorted(package_imports(module) & banned)
               for module, banned in FORBIDDEN.items()}
    assert crossed == {module: [] for module in FORBIDDEN}
