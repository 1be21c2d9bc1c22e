"""Pinned axiom-suite reports on single-entry corruptions of the shipped
packages.

Each corruption either flips the sign of one coefficient or moves one entry
to the next output index (cyclically), applied to the first and the last
entry, in sorted order, of every structure table of ``build_hn(1..4)`` and
``build_cyclic_group_algebra(1..4)``.  The counit has no output index and is
only sign-flipped; a move inside a one-dimensional codomain changes nothing
and is skipped.

``axiom_witnesses.json`` holds the clean report of each package and, for
every corruption, the report lines that differ from it.  Regenerate with
``PYTHONPATH=src python tests/test_axiom_witnesses.py``.
"""

import dataclasses
import json
from pathlib import Path

from suturant import build_cyclic_group_algebra, build_hn, check_axioms

EXPECTED = Path(__file__).with_name("axiom_witnesses.json")

PACKAGES = ([(f"hn({n})", build_hn, n) for n in range(1, 5)]
            + [(f"cyclic({m})", build_cyclic_group_algebra, m)
               for m in range(1, 5)])

# (owner, field) of every sparse table
TABLES = (("algebra", "mul_sc"), ("algebra", "comul_sc"),
          ("algebra", "antipode_sc"), ("integral", "mu"),
          ("integral", "pi_b"), ("integral", "i_b"),
          ("cointegral", "iota"), ("cointegral", "pi_a"),
          ("cointegral", "i_a"))


def _codomain_size(pkg, name):
    if name in ("mu", "pi_b"):
        return len(pkg.integral.b_basis)
    if name == "pi_a":
        return len(pkg.cointegral.a_basis)
    return pkg.algebra.dim


def _shift(out, size):
    if isinstance(out, tuple):          # a coproduct term: move the last leg
        return out[:-1] + ((out[-1] + 1) % size,)
    return (out + 1) % size


def _with(pkg, owner, name, value):
    part = dataclasses.replace(getattr(pkg, owner), **{name: value})
    return dataclasses.replace(pkg, **{owner: part})


def corruptions(pkg):
    """(label, corrupted package) for the fixed list of corruptions."""
    out = []
    for owner, name in TABLES:
        table = getattr(getattr(pkg, owner), name)
        entries = sorted((k, o) for k, col in table.items() for o in col)
        size = _codomain_size(pkg, name)
        for key, o in dict.fromkeys((entries[0], entries[-1])):
            flipped = {k: dict(col) for k, col in table.items()}
            flipped[key][o] = -flipped[key][o]
            out.append((f"{name} flip {key}->{o}",
                        _with(pkg, owner, name, flipped)))
            target = _shift(o, size)
            if target == o:
                continue
            moved = {k: dict(col) for k, col in table.items()}
            c = moved[key].pop(o)
            c += moved[key].get(target, 0)
            if c:
                moved[key][target] = c
            else:
                moved[key].pop(target, None)
            out.append((f"{name} move {key}->{o}->{target}",
                        _with(pkg, owner, name, moved)))
    counit = pkg.algebra.counit_vec
    support = [i for i, c in enumerate(counit) if c]
    for i in dict.fromkeys((support[0], support[-1])):
        vec = tuple(-c if j == i else c for j, c in enumerate(counit))
        out.append((f"counit_vec flip {i}",
                    _with(pkg, "algebra", "counit_vec", vec)))
    return out


def reports():
    """{"clean": {package: report}, "cases": {case: {line: text}}}, the
    case entries holding only the lines that differ from the clean report."""
    clean, cases = {}, {}
    for pname, build, size in PACKAGES:
        pkg = build(size)
        base = str(check_axioms(pkg)).split("\n")
        clean[pname] = base
        for label, bad in corruptions(pkg):
            lines = str(check_axioms(bad)).split("\n")
            assert len(lines) == len(base), label
            cases[f"{pname} {label}"] = {
                str(i): ln for i, ln in enumerate(lines) if ln != base[i]}
    return {"clean": clean, "cases": cases}


def test_corruption_reports_match_the_pinned_text():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    seen = []
    for pname, build, size in PACKAGES:
        pkg = build(size)
        base = expected["clean"][pname]
        assert str(check_axioms(pkg)) == "\n".join(base), pname
        for label, bad in corruptions(pkg):
            case = f"{pname} {label}"
            seen.append(case)
            text = "\n".join(expected["cases"][case].get(str(i), ln)
                             for i, ln in enumerate(base))
            assert str(check_axioms(bad)) == text, case
    assert sorted(seen) == sorted(expected["cases"])


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps(reports(), indent=1, ensure_ascii=False)
                        + "\n", encoding="utf-8")
