"""Pinned stdout of the demos.

Each demo under ``demos/`` is run in-process with ``runpy`` and its stdout
is compared, character for character, with its entry in
``demo_golden.json``.  Demo 02 runs both engines.  Regenerate with
``PYTHONPATH=src python tests/test_demos.py``.
"""

import contextlib
import io
import json
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
EXPECTED = Path(__file__).with_name("demo_golden.json")


def demo_names():
    return sorted(p.name for p in DEMOS.glob("[0-9]*.py"))


def stdout_of(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return out.getvalue()


def test_every_demo_is_pinned():
    assert sorted(json.loads(EXPECTED.read_text(encoding="utf-8"))) == \
        demo_names()


@pytest.mark.parametrize("name", demo_names())
def test_demo_output_matches_the_pinned_text(name):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert stdout_of(name) == expected[name]


if __name__ == "__main__":
    EXPECTED.write_text(
        json.dumps({name: stdout_of(name) for name in demo_names()},
                   indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
