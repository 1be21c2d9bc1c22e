"""Pinned stdout and exit status of the CLI on the corpus.

Each entry of ``cli_golden.json`` is one invocation of ``suturant.cli.run``:
its argv, with corpus files written ``corpus/<name>.hd`` relative to the
repository root, its exit status and its stdout.  The invocations cover
``validate``, ``multipoints``, ``class``, ``compute`` with both engines and
both algebras (all characters at n = 1..4, signs, offsets, orders, single
characters, named reference multipoints, missing options), ``compare``
on every ordered pair and ``axioms`` on the shipped packages.  Regenerate with
``PYTHONPATH=src python tests/test_cli_golden.py``.
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
    return out


def outcome(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        status = run([str(ROOT / a) if a.startswith("corpus/") else a
                      for a in argv])
    return {"argv": argv, "status": status, "stdout": stdout.getvalue()}


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
