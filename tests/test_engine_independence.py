"""The two engines check each other only while neither reads the other:
the tensor engine (``kuperberg.py`` over ``algebra.py``) imports nothing
from the Fox engine (``foxcalc.py``), and the Fox engine nothing from the
tensor engine; the tensor engine reads no memo but its package's, so not
the diagram's, where the Fox engine keeps H_1.  The command line reaches the character-evaluated invariant
only through ``invariant.invariant_hn_values``, so it has no private path
of its own into either engine."""

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


def imported_names(module):
    """(source module short name, name) for every ``from .x import name``
    in ``module``."""
    path = PACKAGE / f"{module}.py"
    return {(node.module.split(".")[0], alias.name)
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.ImportFrom) and node.level and node.module
            for alias in node.names}


def test_the_cli_has_no_character_path_of_its_own():
    names = imported_names("cli")
    private = sorted((source, name) for source, name in names
                     if source in ("invariant", "foxcalc", "kuperberg")
                     and (name.startswith("_") or name in (
                         "evaluate", "invariant_h0", "check_admissible")))
    assert private == []
    assert ("invariant", "invariant_hn_values") in names


def order_rebuilds(module):
    """Where ``module`` reads the diagram's id maps or searches an order
    itself: each read of ``crossing_index`` or ``curve_index``, and each
    ``.index(`` call on a curve's ``order``, as (line, source)."""
    path = PACKAGE / f"{module}.py"
    text = path.read_text()
    out = []
    for node in ast.walk(ast.parse(text, str(path))):
        if isinstance(node, ast.Attribute):
            found = node.attr in ("crossing_index", "curve_index")
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "index"):
            owner = node.func.value
            found = "order" in (getattr(owner, "attr", None),
                                getattr(owner, "id", None))
        else:
            found = False
        if found:
            out.append((node.lineno, ast.get_source_segment(text, node)))
    return out


def test_where_a_crossing_sits_is_read_from_one_index():
    """Both engines, the assembly and the command line read the curve
    orders only through the diagram's index (``ordered`` and ``place``),
    which keeps the order rule; none rebuilds its own view of them."""
    assert {module: order_rebuilds(module)
            for module in ("foxcalc", "kuperberg", "invariant", "cli")} == {
        "foxcalc": [], "kuperberg": [], "invariant": [], "cli": []}


def memo_uses(module):
    """(owner, stored) for each ``.memo`` in ``module``: the source of the
    object whose memo it is, and whether an entry is stored into it
    there."""
    path = PACKAGE / f"{module}.py"
    text = path.read_text()
    nodes = list(ast.walk(ast.parse(text, str(path))))
    stores = {id(node.value) for node in nodes
              if isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Store)}
    return {(ast.get_source_segment(text, node.value), id(node) in stores)
            for node in nodes
            if isinstance(node, ast.Attribute) and node.attr == "memo"}


def test_the_tensor_engine_reads_only_the_package_memo():
    """Every memo the tensor engine reads is its package's, so it reads
    nothing the Fox side put in the diagram's memo; only the Fox engine
    (H_1) and the assembly (the anchor and its class) fill the diagram's."""
    uses = {path.stem: memo_uses(path.stem)
            for path in sorted(PACKAGE.glob("*.py"))}
    assert uses.pop("kuperberg") == {("pkg", False), ("pkg", True)}
    writers = {module for module, found in uses.items()
               if any(stored for _, stored in found)}
    owners = {owner for found in uses.values() for owner, _ in found}
    assert writers == {"foxcalc", "invariant"}
    assert owners == {"diag"}
