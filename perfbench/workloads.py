"""The three workloads: their set-up, the ops of one cycle, and the checks.

An op is one call into the program: a library call for the grown
workloads, one ``suturant.cli.run`` invocation for ``cli-corpus``.  A cycle
is a fixed list of ops; a run repeats whole cycles, so every run of a
workload measures the same mix.  The seed draws the inputs, not the order
of the ops: a seeded order moved peak_rss_mib on fox-grown between 32 and
38 MiB, by changing which large result freed memory before which other one
was built.  Each op is checked after its timed interval; checks that need
two ops of a cycle run when the cycle ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import traceback
from dataclasses import dataclass, field, replace

import grow
from suturant import cli, diagram, foxcalc, invariant, moves
from suturant.invariant import OrientationSign, SpincRelative
from suturant.kuperberg import CharacterAssignment


class SetupError(Exception):
    """The generated inputs are not the pinned ones."""


@dataclass
class Op:
    label: str
    call: object                 # () -> result; timed
    check: object                # result -> error text or None; untimed
    kind: str = ""               # cli verb, for cli.verb_ms
    malformed: bool = False      # input is deliberately broken


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str


def load_pins(root):
    with open(root / "perfbench" / "inputs.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# grown workloads
# ---------------------------------------------------------------------------

@dataclass
class Slot:
    grown: grow.Grown
    group: object
    spinc: SpincRelative
    orient: OrientationSign
    chi: object = None           # fox-grown: the character of the slot
    ops: list = field(default_factory=list)


class _Grown:
    """Shared set-up: grow every pinned recipe with a flip seed drawn from
    the workload seed, validate it and compare its shape with the pin."""

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.slots = []
        self._base_class = {}
        self._want = {}

    def setup(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        bases = {}
        for pin in load_pins(self.root)[self.name]:
            recipe = grow.Recipe(**pin["recipe"])
            if recipe.base not in bases:
                bases[recipe.base] = grow.load_corpus(self.root, recipe.base)
            g = grow.grow(bases[recipe.base], recipe, rng.randrange(2**32))
            report = diagram.validate(g.diag)
            if not report.passed:
                raise SetupError(f"{recipe.name} is invalid:\n{report}")
            shape = grow.profile(g.diag)
            if shape != pin["profile"]:
                raise SetupError(f"{recipe.name}: generated {shape}, "
                                 f"pinned {pin['profile']}")
            group = foxcalc.homology(g.diag)
            ref = grow.random_multipoint(g.diag, rng)
            offset = tuple(rng.randrange(-2, 3) for _ in range(group.rank)) \
                + tuple(rng.randrange(t) for t in group.torsion)
            spinc = SpincRelative(ref, foxcalc.GroupRingElement.monomial(
                group, group.normalize(offset)))
            slot = Slot(g, group, spinc, OrientationSign(rng.choice((1, -1))))
            self.add_ops(slot, pin, rng)
            self.slots.append(slot)
        self.cycle = [op for slot in self.slots for op in slot.ops]

    def want_class(self, slot):
        """The base diagram's torsion class pushed through the composed
        generator map of the growth."""
        key = id(slot)
        if key not in self._want:
            g = slot.grown
            name = g.recipe.base
            if name not in self._base_class:
                self._base_class[name] = invariant.torsion_class(g.base)
            base_cls = self._base_class[name]
            rep = base_cls.representative
            terms = {}
            for coords, c in rep.terms.items():
                exps = moves.transfer_exponents(
                    rep.group.lift(coords), rep.group.gens, slot.group.gens,
                    g.gmap)
                k = slot.group.project(exps)
                terms[k] = terms.get(k, 0) + c
            self._want[key] = foxcalc.canonical_class(
                foxcalc.GroupRingElement(slot.group, terms))
        return self._want[key]

    def pair_checks(self, results):
        return []


class FoxGrown(_Grown):
    """torsion_class, invariant_h0 and invariant_hn(engine="fox") at one
    character, on corpus bases grown to d = 4..6."""

    name = "fox-grown"

    def add_ops(self, slot, pin, rng):
        diag, name = slot.grown.diag, slot.grown.recipe.name
        order = rng.randrange(3, 9)
        chi = grow.random_character(slot.group, order, rng)
        chars = CharacterAssignment.from_character(chi)
        slot.chi = chi
        slot.ops = [
            Op(f"torsion_class {name}",
               lambda: invariant.torsion_class(diag),
               lambda r, s=slot: self._check_class(s, r)),
            Op(f"invariant_h0 {name}",
               lambda: invariant.invariant_h0(diag, slot.spinc, slot.orient),
               lambda r, s=slot: self._check_class(
                   s, foxcalc.canonical_class(r))),
            Op(f"invariant_hn {name}",
               lambda: invariant.invariant_hn(diag, order, chars, slot.spinc,
                                              slot.orient, engine="fox"),
               lambda r: None),
        ]

    def _check_class(self, slot, cls_):
        if foxcalc.class_equal(cls_, self.want_class(slot)):
            return None
        return f"class {cls_} != transferred {self.want_class(slot)}"

    def pair_checks(self, results):
        """evaluate(invariant_h0, chi) == invariant_hn(fox), blamed on the
        invariant_hn op."""
        out = []
        for slot in self.slots:
            _, h0_op, hn_op = slot.ops
            h0, hn = results.get(id(h0_op)), results.get(id(hn_op))
            if h0 is None or hn is None:
                continue
            if foxcalc.evaluate(h0, slot.chi) != hn:
                out.append((hn_op, f"evaluate(h0) != {hn}"))
        return out


class TensorGrown(_Grown):
    """invariant_hn(engine="tensor") at n = 2, 3 with one to three
    characters each, on corpus bases grown to 8..22 crossings."""

    name = "tensor-grown"

    def add_ops(self, slot, pin, rng):
        diag, name = slot.grown.diag, slot.grown.recipe.name
        for n, count in pin["characters"]:
            for _ in range(count):
                chi = grow.random_character(slot.group, n, rng)
                chars = CharacterAssignment.from_character(chi)
                args = (diag, n, chars, slot.spinc, slot.orient)
                slot.ops.append(Op(
                    f"invariant_hn tensor n={n} {name}",
                    lambda a=args: invariant.invariant_hn(*a, engine="tensor"),
                    self._checker(args)))

    def _checker(self, args):
        memo = []

        def check(value):
            if not memo:
                memo.append(invariant.invariant_hn(*args, engine="fox"))
            if value != memo[0]:
                return f"tensor {value} != fox {memo[0]}"
            return None
        return check


# ---------------------------------------------------------------------------
# cli-corpus
# ---------------------------------------------------------------------------

DIFFERING = (("trefoil", "figure8"), ("lens_3_1", "lens_5_1"),
             ("hopf", "unknot"))
AXIOMS = (("--algebra", "hn", "--n", "8"), ("--algebra", "hn", "--n", "16"),
          ("--algebra", "cyclic", "--m", "8"))


class CliCorpus:
    """Every CLI verb on the 13 corpus files, plus a few invocations on
    broken copies made in set-up.  Each invocation goes through
    ``suturant.cli.run`` in this process: argument parsing, the verb and its
    output, without the interpreter start and ``import suturant`` that a
    ``suturant`` process adds.  Those two are timed apart, in setup_s and in
    cli.interpreter_ms and cli.import_ms, because process start-up drifts
    between runs far more than the bounds allow."""

    name = "cli-corpus"

    def __init__(self, root, seed, workdir):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.compute_pairs = []
        self._refs = {}

    # -- set-up ------------------------------------------------------------

    def setup(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        names = sorted(p.stem for p in (self.root / "corpus").glob("*.hd"))
        self.diags = {n: grow.load_corpus(self.root, n) for n in names}
        self.broken = self._write_broken(rng)
        self.cycle = self._ops(names)

    def _write_broken(self, rng):
        """Two broken copies: one drops a crossing from its closed alpha's
        order (it parses, but fails validation), one garbles a crossing sign
        (it does not parse)."""
        os.makedirs(self.workdir, exist_ok=True)
        bearers = [n for n, d in sorted(self.diags.items())
                   if any(c.order for c in d.closed_alphas)]
        dropped_src = rng.choice(bearers)
        diag = self.diags[dropped_src]
        alpha = rng.choice([c for c in diag.closed_alphas if c.order])
        gone = rng.choice(alpha.order)
        text = diagram.serialize_diagram(diag.with_curves(
            c if c.id != alpha.id else
            replace(c, order=tuple(x for x in c.order if x != gone))
            for c in diag.curves))
        dropped = os.path.relpath(
            self.workdir / f"dropped_{dropped_src}.hd", self.root)
        with open(self.root / dropped, "w", encoding="utf-8") as fh:
            fh.write(text)

        garbled_src = rng.choice(bearers)
        lines = diagram.serialize_diagram(self.diags[garbled_src]).split("\n")
        at = rng.choice([i for i, ln in enumerate(lines)
                         if ln.startswith("crossing ")])
        lines[at] = lines[at][:-1] + "?"
        garbled = os.path.relpath(
            self.workdir / f"garbled_{garbled_src}.hd", self.root)
        with open(self.root / garbled, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        return {"dropped": (dropped, dropped_src),
                "garbled": (garbled, garbled_src)}

    def _ops(self, names):
        ops = []
        path = {n: f"corpus/{n}.hd" for n in names}
        for i, n in enumerate(names):
            f = path[n]
            ops.append(self._op("validate", ["validate", f],
                                lambda r: _all_ok(r, 0)))
            ops.append(self._op("multipoints", ["multipoints", f],
                                lambda r, n=n: self._check_multipoints(n, r)))
            ops.append(self._op("class", ["class", f],
                                lambda r, n=n: self._check_class(n, r)))
            order = 2 + i % 3
            pair = []
            for engine in ("fox", "tensor"):
                argv = ["compute", f, "--all-chars", "--engine", engine,
                        "--n", str(order)]
                op = self._op(f"compute_{engine}", argv,
                              lambda r, n=n, k=order:
                              self._check_compute(n, k, r))
                pair.append(op)
                ops.append(op)
            self.compute_pairs.append(tuple(pair))
        ops.append(self._op("compare", ["compare", path["trefoil"],
                                        path["trefoil_moved"]],
                            lambda r: _expect(r, 0, "EQUAL\n")))
        for a, b in DIFFERING:
            ops.append(self._op("compare", ["compare", path[a], path[b]],
                                lambda r: _expect(r, 1, "DIFFER\n")))
        for argv in AXIOMS:
            ops.append(self._op("axioms", ["axioms", *argv],
                                lambda r: _all_ok(r, 0)))
        ops.append(self._op("move", ["move", path["trefoil"], "--script",
                                     "corpus/trefoil_moves.txt"],
                            self._check_move))
        dropped, dsrc = self.broken["dropped"]
        garbled, gsrc = self.broken["garbled"]
        for verb, argv in (
                ("validate", ["validate", dropped]),
                ("class", ["class", dropped]),
                ("compute_fox", ["compute", dropped, "--n", "2",
                                 "--all-chars"]),
                ("compare", ["compare", dropped, path[dsrc]]),
                ("validate", ["validate", garbled]),
                ("compare", ["compare", garbled, path[gsrc]])):
            ops.append(self._op(verb, argv, _reported_error, malformed=True))
        return ops

    def _op(self, verb, argv, check, malformed=False):
        return Op(" ".join(argv), lambda: _run_inprocess(argv),
                  lambda r: _no_traceback(r) or check(r), verb, malformed)

    # -- checks ------------------------------------------------------------

    def _ref(self, key, fn):
        if key not in self._refs:
            self._refs[key] = fn()
        return self._refs[key]

    def _check_multipoints(self, name, r):
        want = grow.permanent(grow.count_matrix(self.diags[name]))
        lines = r.stdout.splitlines()
        if r.rc != 0 or not lines or lines[-1] != f"{want} multipoint(s)" \
                or len(lines) != want + 1:
            return f"rc {r.rc}, expected {want} multipoint(s): {lines[-1:]}"
        return None

    def _check_class(self, name, r):
        want = self._ref(("class", name), lambda: "class: " + str(
            invariant.torsion_class(self.diags[name])) + "\n")
        return _expect(r, 0, want)

    def _check_compute(self, name, order, r):
        diag = self.diags[name]
        if diag.d and not grow.permanent(grow.count_matrix(diag)):
            return _expect(r, 1, "no multipoints: unnormalized determinant "
                                 "is 0\n")
        group = self._ref(("group", name), lambda: foxcalc.homology(diag))
        want = order ** group.rank * math.prod(
            math.gcd(t, order) for t in group.torsion)
        lines = r.stdout.splitlines()
        if r.rc != 0 or len(lines) != want or \
                not all(ln.startswith("chi[") for ln in lines):
            return f"rc {r.rc}, {len(lines)} lines, expected {want} chi[...]"
        return None

    def _check_move(self, r):
        def apply():
            with open(self.root / "corpus" / "trefoil_moves.txt",
                      encoding="utf-8") as fh:
                seq = moves.parse_move_script(fh.read())
            diag = self.diags["trefoil"]
            for mv in seq:
                diag = moves.apply_move(diag, mv)
            return diagram.serialize_diagram(diag)
        return _expect(r, 0, self._ref("move", apply))

    def pair_checks(self, results):
        """fox and tensor --all-chars print the same bytes."""
        out = []
        for fox_op, tensor_op in self.compute_pairs:
            a, b = results.get(id(fox_op)), results.get(id(tensor_op))
            if a is None or b is None:
                continue
            if (a.rc, a.stdout) != (b.rc, b.stdout):
                out.append((tensor_op, "fox and tensor output differ"))
        return out


def _run_inprocess(argv):
    """One invocation through ``suturant.cli.run`` with stdout and stderr
    captured; an escaping exception is reported the way the interpreter
    would report it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            err.write(traceback.format_exc())
            rc = 1
    return CliResult(rc, out.getvalue(), err.getvalue())


def _no_traceback(r):
    if "Traceback (most recent call last)" in r.stderr:
        return "traceback: " + r.stderr.strip().splitlines()[-1]
    return None


def _expect(r, rc, stdout):
    if (r.rc, r.stdout) != (rc, stdout):
        return f"rc {r.rc} stdout {r.stdout[:80]!r}, expected rc {rc} " \
               f"stdout {stdout[:80]!r}"
    return None


def _all_ok(r, rc):
    lines = r.stdout.splitlines()
    if r.rc != rc or not lines or not all(ln.startswith("ok") for ln in lines):
        return f"rc {r.rc}, not every line ok"
    return None


def _reported_error(r):
    """A broken input ends with exit 1 or 2 and says what is wrong: a FAIL
    line of the validation report or an ``error:`` line."""
    if r.rc not in (1, 2):
        return f"rc {r.rc} on a broken input"
    if "FAIL" not in r.stdout + r.stderr and "error:" not in r.stderr:
        return f"rc {r.rc} without a report: {r.stdout[:80]!r}"
    return None


WORKLOADS = {w.name: w for w in (FoxGrown, TensorGrown, CliCorpus)}
