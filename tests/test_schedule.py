"""The tensor sweep's schedule (``ExtendedDiagram.schedule``): where each
slot goes on its beta, for both slot orders, built once per diagram object
and order and read by every later contraction."""

from dataclasses import replace

import pytest

import suturant.diagram
from suturant import (CharacterAssignment, CyclotomicScalar, ReverseCurve,
                      apply_move, contract, rebase)
from suturant import kuperberg
from suturant.diagram import _join
from suturant.errors import UnknownCurveError
from suturant.invariant import anchor_multipoint

from conftest import corpus_names, load, moved_and_rotated, slid_and_back
from test_kuperberg import (based_at_first, exterior_package, in_beta_order,
                            walked)


def scanned(filled, j):
    """(lo, r, hi) of placing position j next to the positions ``filled``,
    read by a scan of the beta: r runs end before j, and the slot joins the
    run ending at j - 1 and the run starting at j + 1, if any."""
    runs = []
    for k in sorted(filled):
        if runs and runs[-1][1] == k - 1:
            runs[-1][1] = k
        else:
            runs.append([k, k])
    r = sum(1 for _, last in runs if last < j)
    lo = r - (r > 0 and runs[r - 1][1] == j - 1)
    hi = r + (r < len(runs) and runs[r][0] == j + 1)
    return lo, r, hi


def replayed(diag, arrival):
    """The sweep replayed step by step, in the schedule's layout: each
    slot's (lo, r, hi) from :func:`_join` on its beta's runs, which must
    agree with a scan of the beta's filled positions."""
    betas = diag.family("beta")
    at = [0]
    for c in betas:
        at.append(at[-1] + (1 if arrival else (len(c.order) + 1) // 2))
    spans = {c.id: [] for c in betas}
    filled = {c.id: set() for c in betas}
    alphas = []
    for c in diag.family("alpha"):
        steps = []
        for t, xid in enumerate(c.order):
            x = diag.crossing(xid)
            beta = diag.curve(x.beta)
            j = (len(filled[beta.id]) if arrival
                 else beta.order.index(xid))
            joined = _join(spans[beta.id], j)
            assert joined == scanned(filled[beta.id], j), (c.id, xid)
            filled[beta.id].add(j)
            done = len(filled[beta.id]) == len(beta.order)
            steps.append((x.sign, betas.index(beta), *joined,
                          t == len(c.order) - 1,
                          beta.closed if done else None))
        alphas.append((c, tuple(steps)))
    return betas, tuple(at), tuple(alphas)


def check(label, diag):
    for arrival in (True, False):
        plan = diag.schedule(arrival)
        assert (plan.betas, plan.at, plan.alphas) == \
            replayed(diag, arrival), (label, arrival)
        assert diag.schedule(arrival) is plan


def test_the_schedule_is_the_replayed_sweep_on_the_corpus():
    """Every corpus file, seeded move copies and rotations of them."""
    bases = [(name, load(name)) for name in corpus_names()]
    for label, diag in moved_and_rotated(bases):
        check(label, diag)


@pytest.mark.parametrize("name", ["hopf", "trefoil", "figure8", "lens_2_1"])
def test_the_schedule_is_the_replayed_sweep_after_growth(name):
    """Slid and back to d = 3: in each beta's own order some slot joins a
    run on each side, and in arrival order every slot joins the one run
    its beta holds, if any."""
    diag = slid_and_back(load(name), 3)
    check(name, diag)
    joins = [{step[2:5] for _, steps in diag.schedule(arrival).alphas
              for step in steps} for arrival in (True, False)]
    assert joins[0] <= {(0, 0, 0), (0, 1, 1)}
    assert any(hi - lo == 2 for lo, _, hi in joins[1])


@pytest.fixture
def built(monkeypatch):
    """Each schedule built, as (diagram object id, slot order)."""
    calls, inner = [], suturant.diagram._schedule

    def counting(diag, arrival):
        calls.append((id(diag), arrival))
        return inner(diag, arrival)

    monkeypatch.setattr(suturant.diagram, "_schedule", counting)
    return calls


def test_each_order_is_built_once_per_diagram(built):
    diag, pkg = load("figure8"), exterior_package()
    for _ in range(3):
        for copy in (pkg, in_beta_order(pkg)):
            contract(diag, copy, CharacterAssignment.trivial())
    assert built == [(id(diag), True), (id(diag), False)]


def test_a_copy_starts_without_a_schedule(built):
    """A ``replace``, ``with_curves``, move or ``rebase`` copy builds its
    own schedule; the original's stays kept, and == and hash skip it."""
    diag = load("trefoil")
    before = hash(diag)
    diag.schedule(True)
    copies = (replace(diag), diag.with_curves(diag.curves),
              apply_move(diag, ReverseCurve("b1")),
              rebase(diag, anchor_multipoint(diag)))
    for copy in copies:
        copy.schedule(True)
    diag.schedule(True)
    assert built == [(id(diag), True)] + [(id(c), True) for c in copies]
    assert diag == load("trefoil") and hash(diag) == before


def test_an_order_rule_breach_builds_no_schedule():
    trefoil = load("trefoil")
    broken = trefoil.with_curves(
        replace(c, order=c.order + ("x9",)) if c.id == "a1" else c
        for c in trefoil.curves)
    for _ in range(2):
        with pytest.raises(UnknownCurveError):
            broken.schedule(True)


def test_the_sweep_in_beta_order_reads_the_schedule(monkeypatch):
    """The exterior fixture, in arrival order and forced into each beta's
    own order: every crossing of the sweep reads the diagram's schedule of
    that order, and the sweep gives the term walk's value."""
    diag = based_at_first(load("trefoil"))
    plans, cross = [], kuperberg._cross

    def spy(states, alg, rules, plan, *args):
        plans.append(plan)
        return cross(states, alg, rules, plan, *args)

    monkeypatch.setattr(kuperberg, "_cross", spy)
    pkg = exterior_package()
    for copy, arrival in ((pkg, True), (in_beta_order(pkg), False)):
        assert contract(diag, copy, CharacterAssignment.trivial()) == \
            CyclotomicScalar.integer(walked(diag, copy), 1)
        assert plans and all(p is diag.schedule(arrival) for p in plans)
        plans.clear()
