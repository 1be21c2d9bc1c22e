"""Pinned stdout and exit status of the CLI on the corpus.

Each entry of ``cli_golden.json`` is one invocation of ``suturant.cli.run``:
its argv, with corpus and test files written ``corpus/<name>.hd`` and
``tests/...`` relative to the repository root, its exit status and its
stdout.  The invocations cover
``validate``, ``multipoints``, ``class``, ``compute`` with both engines and
both algebras (all characters at n = 1..4, signs, offsets, orders, single
characters, named reference multipoints, missing options; the tensor
engine at n = 2 also with a sign and an offset and with the canonical
sign), ``compare`` on every ordered pair, ``axioms`` on the shipped
packages and ``move`` with one script per move kind from
``tests/move_scripts`` (stabilize and trivial handles on every corpus file
and on a diagram listing its curves out of order).  Every tensor entry
prints what its Fox entry prints.
Regenerate with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
from pathlib import Path

from suturant import parse_diagram
from suturant.cli import run

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).with_name("cli_golden.json")


def invocations():
    names = sorted(p.stem for p in (ROOT / "corpus").glob("*.hd"))
    files = [f"corpus/{name}.hd" for name in names]
    out = []
    for f in files:
        out += [["validate", f], ["multipoints", f], ["class", f]]
        for n in ("1", "2", "3", "4"):
            hn = ["compute", f, "--n", n, "--all-chars"]
            out += [hn, hn + ["--sign", "-1", "--offset", "t"],
                    hn + ["--sign", "canonical"]]
        for n in ("2", "3"):
            out.append(["compute", f, "--engine", "tensor", "--n", n,
                        "--all-chars"])
        tensor = ["compute", f, "--engine", "tensor", "--n", "2",
                  "--all-chars"]
        out += [tensor + ["--sign", "-1", "--offset", "t"],
                tensor + ["--sign", "canonical"]]
        for order in ("12", "3"):
            out.append(["compute", f, "--n", "6", "--order", order,
                        "--all-chars"])
        out.append(["compute", f, "--n", "4", "--char", "t=1"])
        out.append(["compute", f, "--n", "3"])
        for m in ("2", "3"):
            out.append(["compute", f, "--algebra", "cyclic", "--m", m])
        diag = parse_diagram((ROOT / f).read_text(encoding="utf-8"))
        for mp in sorted(diag.named_multipoints):
            out.append(["compute", f, "--n", "3", "--all-chars",
                        "--multipoint", mp])
            out.append(["compute", f, "--algebra", "cyclic", "--m", "2",
                        "--multipoint", mp])
        out.append(["compute", f])
    out += [["compare", a, b] for a in files for b in files]
    out += [["axioms", "--algebra", "hn", "--n", "8"],
            ["axioms", "--algebra", "hn", "--n", "16"],
            ["axioms", "--algebra", "cyclic", "--m", "8"],
            ["axioms", "--algebra", "hn"]]
    scripts = "tests/move_scripts/"
    for f, script in (("hopf", "reorder"), ("hopf", "reverse"),
                      ("trefoil", "finger"), ("trefoil", "endpoint"),
                      ("trefoil_moved", "cancel"),
                      ("trefoil_moved", "destabilize"),
                      ("hopf", "handleslide")):
        out.append(["move", f"corpus/{f}.hd",
                    "--script", f"{scripts}{script}.txt"])
    out += [["move", scripts + "cancel.hd",
             "--script", scripts + "cancel.txt"],
            ["move", "corpus/trefoil.hd",
             "--script", "corpus/trefoil_moves.txt"]]
    for f in files + [scripts + "interleaved.hd"]:
        for script in ("stabilize", "trivial_handles"):
            out.append(["move", f, "--script", f"{scripts}{script}.txt"])
    return out


def outcome(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        status = run([str(ROOT / a) if a.startswith(("corpus/", "tests/"))
                      else a for a in argv])
    return {"argv": argv, "status": status, "stdout": stdout.getvalue()}


def test_tensor_entries_equal_the_fox_entries():
    # both engines print the same lines and exit the same way
    pinned = {tuple(e["argv"]): e
              for e in json.loads(EXPECTED.read_text(encoding="utf-8"))}
    tensor = [argv for argv in pinned if "tensor" in argv]
    assert len(tensor) == 4 * len(list((ROOT / "corpus").glob("*.hd")))
    for argv in tensor:
        fox = tuple(a for a in argv if a not in ("--engine", "tensor"))
        assert ({**pinned[argv], "argv": None}
                == {**pinned[fox], "argv": None}), argv


def test_cli_output_matches_the_pinned_text():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    argvs = invocations()
    assert argvs == [e["argv"] for e in expected]
    for want in expected:
        assert outcome(want["argv"]) == want, want["argv"]


if __name__ == "__main__":
    EXPECTED.write_text(
        json.dumps([outcome(argv) for argv in invocations()], indent=1,
                   ensure_ascii=False) + "\n", encoding="utf-8")
