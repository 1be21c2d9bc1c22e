"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They cover the input generator, the failure accounting and the metric
names; they do not time anything.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import grow  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from suturant import diagram, foxcalc  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _pins():
    return [(name, pin) for name, entries in workloads.load_pins(ROOT).items()
            for pin in entries]


def test_generator_is_deterministic_and_matches_the_pins():
    changed = 0
    for _, pin in _pins():
        recipe = grow.Recipe(**pin["recipe"])
        base = grow.load_corpus(ROOT, recipe.base)
        a, b = grow.grow(base, recipe, 7), grow.grow(base, recipe, 7)
        assert diagram.serialize_diagram(a.diag) == \
            diagram.serialize_diagram(b.diag)
        assert a.gmap == b.gmap and a.moves == b.moves
        assert diagram.validate(a.diag).passed, recipe.name
        assert grow.profile(a.diag) == pin["profile"], recipe.name
        other = grow.grow(base, recipe, 8)
        assert diagram.validate(other.diag).passed, recipe.name
        assert grow.profile(other.diag) == pin["profile"], recipe.name
        changed += other.diag != a.diag
    assert changed > len(_pins()) // 2


def test_permanent_counts_multipoints():
    for name in ("trefoil", "hopf", "unknot", "s1s2", "lens_3_1"):
        diag = grow.load_corpus(ROOT, name)
        assert grow.permanent(grow.count_matrix(diag)) == \
            len(diagram.enumerate_multipoints(diag))


def test_workload_inputs_follow_the_seed():
    def shapes(seed):
        wl = workloads.TensorGrown(ROOT, seed)
        wl.setup()
        return ([diagram.serialize_diagram(s.grown.diag) for s in wl.slots],
                [op.label for op in wl.cycle])
    again, other = shapes(3), shapes(4)
    assert shapes(3) == again
    assert again[0] != other[0]
    assert sorted(again[1]) == sorted(other[1])


def test_wrong_reference_is_a_failure():
    wl = workloads.FoxGrown(ROOT, 1)
    wl.setup()
    wl.cycle = [op for op in wl.cycle if "-d4-" in op.label]
    cycle = run.run_cycle(wl, speed=True)
    assert run.tally([cycle])[1:] == (0, True)
    assert all(ref and ref > 0 for _, _, _, ref in cycle)

    right = wl.want_class

    def doubled(slot):
        rep = right(slot).representative
        return foxcalc.canonical_class(rep + rep)
    wl.want_class = doubled
    attempted, failed, correct = run.tally([run.run_cycle(wl)])
    assert failed / attempted > 0 and not correct


def test_new_failure_on_a_broken_input_raises_the_fail_ratio():
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    wl = workloads.CliCorpus(ROOT, 1, Path(tempfile.mkdtemp(dir=out)))
    try:
        wl.setup()
        wl.cycle = [op for op in wl.cycle if op.malformed]
        cycle = run.run_cycle(wl)
        attempted, failed, correct = run.tally([cycle])
        passing = next(r[0] for r in cycle if not r[2])
        passing.call = lambda: workloads.CliResult(
            1, "", "Traceback (most recent call last):\nKeyError: 3\n")
        attempted2, failed2, correct2 = run.tally([run.run_cycle(wl)])
    finally:
        shutil.rmtree(wl.workdir)
    assert attempted2 == attempted and correct and correct2
    assert failed2 / attempted2 > failed / attempted


def test_broken_cli_input_must_be_reported():
    ok = workloads.CliResult(1, "", "error: line 3: bad sign\n")
    silent = workloads.CliResult(1, "DIFFER\n", "")
    crash = workloads.CliResult(1, "", "Traceback (most recent call last):\n"
                                       "ValueError: x\n")
    assert workloads._reported_error(ok) is None
    assert workloads._reported_error(silent)
    assert workloads._no_traceback(crash)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _last_json(argv, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    end = _last_json(["--workload", "tensor-grown", "--seed", "2",
                      "--seconds", "0", "--trace", "0"], ROOT)
    assert set(end) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in end["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert end["correct"] and end["attempted"] >= run.MIN_OPS
    layer = _last_json(["--workload", "fox-grown", "--seed", "2",
                        "--seconds", "0", "--trace", "1"], ROOT)
    assert {n: m["unit"] for n, m in layer["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_program():
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fox-grown",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert "{" not in proc.stdout
    finally:
        shutil.rmtree(bare)
