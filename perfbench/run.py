"""Benchmark of suturant: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fox-grown --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and reads ``corpus/``.  The workloads are ``fox-grown``,
``tensor-grown`` and ``cli-corpus`` (see ``workloads.py``); the seed makes
the inputs.  Load is a closed loop with one caller: one op at a time, the
next one after the previous returns.

With ``--trace 0`` the run measures whole cycles of ops until ``--seconds``
have passed and at least 100 ops ran, and prints the end-to-end metrics:

    setup_s       median over 20 fresh interpreters, spread over the run,
                  of the time from launch to the first op (interpreter
                  start, import, corpus, growth)
    ops_per_s     ops divided by their summed time
    peak_rss_mib  peak resident memory of the process running the ops

Both times are taken at reference speed.  The 2-vCPU VM this benchmark was
built on changed speed by up to 1.8x within minutes, and over ten seeds its
wall-clock ops_per_s spread by up to 0.28 of its median.  So a fixed
pure-Python reference loop (``reference_seconds``) runs after every quarter
second of op time and around every set-up probe, and each time is scaled by
the loop's nominal time over the loop's time next to it.  At reference
speed, ops_per_s spread 0.03 to 0.07 of its median over ten seeds, in two
sets per workload (``baseline.json``).  A change to the program moves op
time and leaves the loop alone.  The wall-clock figures are printed above
the JSON line, as are the median and 90th percentile op latency (op_p50_ms,
op_p90_ms); these are not in the JSON.

With ``--trace 1`` it runs one untraced warm-up cycle, then alternates an
untraced cycle and a traced cycle until ``--seconds`` have passed, and
prints the per-layer metrics (see ``PER_LAYER``); the spans go to
``perfbench/out/``.

Every op is checked after its timed interval.  The last line of stdout is
one JSON object: ``correct`` (no op on a valid input failed), ``attempted``
and ``failed`` (ops that raised, returned a wrong value, ended with the
wrong exit status or printed a traceback) and ``metrics``.  Failures on
the deliberately broken inputs of ``cli-corpus`` count in ``failed`` but
leave ``correct`` true: they are defects of the program, not of the
benchmark.  Since a faster program runs more ops, compare failed /
attempted, which the traced run reports as ``fail_ratio``, not ``failed``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 20
REF_LOOP = 50_000       # the reference loop (see ``reference_seconds``)
REF_ALLOC = 10_000
REF_SOURCE = "".join(f"def f{i}(x, y=3):\n    return [x * k + y for k in "
                     f"range({i}) if k % 3]\n" for i in range(60))
REF_NOMINAL_S = 0.012   # its median time on the baseline machine
REF_EVERY_S = 0.25      # op time between two reference samples
MIN_OPS = 100           # so that p90 has ten samples beyond it
IMPORT_PROBES = 7

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mib": "MiB"}

CLI_VERBS = ("validate", "multipoints", "class", "compare", "compute_fox",
             "compute_tensor", "axioms", "move")

_BUSY = ("diagram.enumerate_multipoints", "diagram.parse_diagram",
         "diagram.validate", "diagram.rebase", "diagram.epsilon_class",
         "foxcalc.homology", "foxcalc.fox_matrix", "foxcalc.determinant",
         "foxcalc.canonical_class", "foxcalc.evaluate",
         "foxcalc.all_characters", "kuperberg.contract",
         "algebra.coproduct_power", "algebra.build_hn", "algebra.check_axioms",
         "moves.apply_move", "moves.generator_map", "invariant.torsion_class",
         "invariant.invariant_h0", "invariant.invariant_hn")
_CALLS = ("diagram.enumerate_multipoints", "kuperberg.contract",
          "algebra.coproduct_power")
_SIZES = {"diagram.enumerate_multipoints.results":
          "diagram.enumerate_multipoints",
          "foxcalc.fox_matrix.dim": "foxcalc.fox_matrix",
          "foxcalc.determinant.terms": "foxcalc.determinant",
          "foxcalc.all_characters.results": "foxcalc.all_characters"}
_SHARES = ("diagram", "foxcalc", "kuperberg", "algebra", "moves",
           "invariant", "cli")

PER_LAYER = {
    **{f"{n}.calls": "count" for n in _CALLS},
    **{f"{n}.busy_ms": "ms" for n in _BUSY},
    "kuperberg.contract.self_ms": "ms",
    "invariant.self_ms": "ms",
    **{m: "count" for m in _SIZES},
    "kuperberg.term_space": "count",
    "cyclotomic.from_coeffs.calls": "count",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.verb_ms.{v}": "ms" for v in CLI_VERBS},
    **{f"{layer}.share": "ratio" for layer in _SHARES},
    "diagram.enumerate_multipoints.share": "ratio",
    "kuperberg.contract.share": "ratio",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print 'ready' and exit (used to "
                        "measure setup_s in a fresh interpreter)")
    return p.parse_args(argv)


def preflight():
    """The program's sources must sit next to the benchmark."""
    for need in ("src/suturant/__init__.py", "corpus/trefoil.hd",
                 "perfbench/inputs.json"):
        if not (ROOT / need).is_file():
            return f"perfbench: {need} not found under {ROOT}"
    sys.path.insert(0, str(ROOT / "src"))
    import suturant
    if Path(suturant.__file__).resolve().parent != ROOT / "src" / "suturant":
        return f"perfbench: imported suturant from {suturant.__file__}"
    return None


def make_workload(name, seed):
    from workloads import WORKLOADS, CliCorpus
    cls = WORKLOADS[name]
    if cls is CliCorpus:
        return cls(ROOT, seed, ROOT / "perfbench" / "out"
                   / f"{name}-{os.getpid()}")
    return cls(ROOT, seed)


# ---------------------------------------------------------------------------
# running cycles
# ---------------------------------------------------------------------------

def run_cycle(workload, tracer=None, tag="", speed=False):
    """Run every op of the cycle once; returns [op, seconds, error, ref]
    rows.  With ``speed``, a reference sample follows every stretch of at
    least ``REF_EVERY_S`` of op time, and ``ref`` is the sample that ended
    the row's stretch; otherwise it is None."""
    rows, by_op, results, stretch = [], {}, {}, []
    for i, op in enumerate(workload.cycle):
        t0 = time.perf_counter()
        try:
            res = tracer.call(f"{tag}{i}", op.call) if tracer else op.call()
            err = None
        except Exception:
            res, err = None, "raised " + traceback.format_exc(limit=-2)
        dt = time.perf_counter() - t0
        if err is None:
            try:
                err = op.check(res)
            except Exception:
                err = "check raised " + traceback.format_exc(limit=-2)
        if err is None:
            results[id(op)] = res
        row = [op, dt, err, None]
        rows.append(row)
        by_op[id(op)] = row
        stretch.append(row)
        if speed and (sum(r[1] for r in stretch) >= REF_EVERY_S
                      or i == len(workload.cycle) - 1):
            ref = reference_seconds()
            for r in stretch:
                r[3] = ref
            stretch = []
    for op, msg in workload.pair_checks(results):
        row = by_op[id(op)]
        row[2] = row[2] or msg
    return rows


def tally(cycles):
    rows = [r for c in cycles for r in c]
    failed = [r for r in rows if r[2]]
    wrong = [r for r in failed if not r[0].malformed]
    for op, _, err, _ in failed[:5]:
        print(f"FAILED {op.label}: {err.strip()}", file=sys.stderr)
    return len(rows), len(failed), not wrong


def measure(workload, seconds, probe):
    """Whole cycles until ``seconds`` have passed and ``MIN_OPS`` ops ran.
    Set-up probes run between cycles and keep pace with the clock,
    ``SETUP_PROBES`` over the run, so that setup_s samples the whole run;
    their time counts in ``seconds``."""
    cycles, probes, start = [], [], time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        due = SETUP_PROBES * elapsed / seconds if seconds > 0 \
            else SETUP_PROBES
        while len(probes) < min(SETUP_PROBES, 1 + due):
            probes.append(probe())
        cycles.append(run_cycle(workload, speed=True))
        if time.perf_counter() - start >= seconds and \
                len(cycles) * len(workload.cycle) >= MIN_OPS:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(probe())
    return cycles, probes


# ---------------------------------------------------------------------------
# reference speed
# ---------------------------------------------------------------------------

def reference_seconds():
    """Wall time of a fixed pure-Python loop in three parts, like the three
    kinds of work the program does: integer arithmetic, tuple and dict
    allocation, and compiling a fixed block of source, which runs a large
    body of the interpreter's C code as the CLI path does.  It starts with a
    full collection, so each stretch of ops starts from a collected heap,
    and the collector is off while it runs, so the program's heap does not
    enter it."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i % 7
        xs = [(i, i + 1, i * 7 % 13) for i in range(REF_ALLOC)]
        index = {x: x[2] for x in xs}
        acc += sum(index[x] for x in xs[::3])
        del xs, index
        compile(REF_SOURCE, "<reference>", "exec")
        return time.perf_counter() - t0
    finally:
        gc.enable()


def at_reference_speed(seconds, ref):
    """``seconds`` measured while the reference loop took ``ref``, scaled to
    the reference loop's nominal time."""
    return seconds * REF_NOMINAL_S / ref


def probe_at_reference_speed(name, seed):
    """One set-up probe; returns (wall seconds, reference seconds), the
    latter scaled by the mean of a reference sample before and after."""
    before = reference_seconds()
    wall = setup_probe_seconds(name, seed)
    after = reference_seconds()
    return wall, at_reference_speed(wall, (before + after) / 2)


# ---------------------------------------------------------------------------
# fresh-interpreter probes
# ---------------------------------------------------------------------------

def setup_probe_seconds(name, seed):
    """Launch-to-ready time of a fresh interpreter doing the set-up."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    line = proc.stdout.readline()
    dt = time.perf_counter() - t0
    _, err = proc.communicate()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed: "
                           + err.decode("utf-8", "replace"))
    return dt


def interpreter_seconds(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                   check=True)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(probes, cycles):
    """``probes`` are (wall, reference) set-up seconds; op rows carry the
    reference sample of their stretch."""
    rows = [r for c in cycles for r in c]
    lat = [at_reference_speed(dt, ref) for _, dt, _, ref in rows]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(p[1] for p in probes),
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mib": rss / 1024,
    }
    print(f"# {len(lat)} ops in {len(cycles)} cycles, {len(probes)} set-up "
          f"probes; times at reference speed unless marked wall")
    wall = {"setup_s_wall": (statistics.median(p[0] for p in probes), "s"),
            "ops_per_s_wall": (len(rows) / sum(r[1] for r in rows), "1/s"),
            "ref_ms_wall": (statistics.median(r[3] for r in rows) * 1000,
                            "ms")}
    for name, q in (("op_p50_ms", 4), ("op_p90_ms", 8)):
        wall[name] = (statistics.quantiles(lat, n=10)[q] * 1000, "ms")
    for name, (value, unit) in wall.items():
        print(f"{name:40s} {value:14.6g} {unit} (not in the JSON)")
    return values


def traced(workload, seconds, tracer):
    from tracing import summarize
    bare = [interpreter_seconds("pass") for _ in range(IMPORT_PROBES)]
    loaded = [interpreter_seconds("import suturant")
              for _ in range(IMPORT_PROBES)]

    tracer.install()
    tracer.call("setup", workload.setup)
    tracer.uninstall()
    setup = summarize(list(tracer.spans), dict(tracer.from_coeffs))

    run_cycle(workload)         # warm-up: first calls and check references
    pairs, start = [], time.perf_counter()
    while True:
        plain = run_cycle(workload)
        mark = len(tracer.spans)
        tag = f"{len(pairs)}:"
        tracer.install()
        try:
            rows = run_cycle(workload, tracer, tag)
        finally:
            tracer.uninstall()
        calls = sum(v for k, v in tracer.from_coeffs.items()
                    if k.startswith(tag))
        pairs.append((plain, rows, summarize(tracer.spans[mark:],
                                             {tag: calls})))
        if time.perf_counter() - start >= seconds:
            break

    per_cycle = [layer_values(s, sum(r[1] for r in rows))
                 for _, rows, s in pairs]
    setup_values = layer_values(setup, 0.0)
    values = {}
    for name in per_cycle[0]:
        # counts repeat exactly from cycle to cycle; median_low keeps them
        # whole numbers
        pick = statistics.median_low if PER_LAYER[name] == "count" \
            else statistics.median
        median = pick(v[name] for v in per_cycle)
        values[name] = median if name.endswith(".share") \
            else median + setup_values[name]
    values["cli.interpreter_ms"] = statistics.median(bare) * 1000
    values["cli.import_ms"] = (statistics.median(loaded)
                               - statistics.median(bare)) * 1000
    for verb in CLI_VERBS:
        values[f"cli.verb_ms.{verb}"] = statistics.median(
            sum((r[1] for r in plain if r[0].kind == verb), 0.0)
            for plain, _, _ in pairs) * 1000
    values["trace.overhead_ratio"] = statistics.median(
        sum(r[1] for r in rows) / sum(r[1] for r in plain)
        for plain, rows, _ in pairs)
    print(f"# {len(pairs)} untraced and {len(pairs)} traced cycles of "
          f"{len(workload.cycle)} ops; per-layer numbers are the set-up "
          f"plus the median traced cycle")
    return values, [c for p in pairs for c in p[:2]]


def layer_values(s, op_seconds):
    out = {f"{n}.calls": s["calls"][n] for n in _CALLS}
    out.update({f"{n}.busy_ms": s["busy"][n] * 1000 for n in _BUSY})
    out["kuperberg.contract.self_ms"] = s["self"]["kuperberg.contract"] * 1000
    out["invariant.self_ms"] = s["layer_self"]["invariant"] * 1000
    out.update({m: s["size"][n] for m, n in _SIZES.items()})
    out["kuperberg.term_space"] = s["term_space"]
    out["cyclotomic.from_coeffs.calls"] = sum(s["from_coeffs"].values())
    share = (lambda t: t / op_seconds) if op_seconds else (lambda t: 0.0)
    out.update({f"{layer}.share": share(s["layer_self"][layer])
                for layer in _SHARES})
    out["diagram.enumerate_multipoints.share"] = share(
        s["busy"]["diagram.enumerate_multipoints"])
    out["kuperberg.contract.share"] = share(s["busy"]["kuperberg.contract"])
    return out


def report(metrics, units, attempted, failed, correct):
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()}}))


def main(argv=None):
    args = parse_args(argv)
    problem = preflight()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CliCorpus, SetupError
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed)
    try:
        if args.setup_probe:
            workload.setup()
            print("ready", flush=True)
            return 0
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            metrics, cycles = traced(workload, args.seconds, tracer)
            out = ROOT / "perfbench" / "out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"trace-{args.workload}-{args.seed}.json")
            units = PER_LAYER
        else:
            workload.setup()
            cycles, probes = measure(
                workload, args.seconds,
                lambda: probe_at_reference_speed(args.workload, args.seed))
            metrics = end_to_end(probes, cycles)
            units = END_TO_END
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if isinstance(workload, CliCorpus):
            shutil.rmtree(workload.workdir, ignore_errors=True)
    attempted, failed, correct = tally(cycles)
    if args.trace:
        metrics["fail_ratio"] = failed / attempted
    report(metrics, units, attempted, failed, correct)
    return 0


if __name__ == "__main__":
    sys.exit(main())
