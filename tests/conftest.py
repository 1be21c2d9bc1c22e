import os
from pathlib import Path

import pytest

from suturant import apply_move, parse_diagram
from suturant.moves import HandleslideCurve, Stabilize

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

SEED = int(os.environ.get("SUTURANT_SEED", "20260808"))


def corpus_path(name):
    return CORPUS / f"{name}.hd"


def load(name):
    return parse_diagram(corpus_path(name).read_text())


def corpus_names():
    return sorted(p.stem for p in CORPUS.glob("*.hd"))


def slid_and_back(diag, d):
    """The diagram stabilized until it has d closed alphas, each new closed
    curve slid over the shortest old one of its family and back."""
    while diag.d < d:
        before = {c.id for c in diag.curves}
        diag = apply_move(diag, Stabilize())
        for fam in ("alpha", "beta"):
            closed = diag.family(fam, "closed")
            new = next(c.id for c in closed if c.id not in before)
            over = min((c for c in closed if c.id != new),
                       key=lambda c: len(c.order)).id
            diag = apply_move(diag, HandleslideCurve(new, over))
            diag = apply_move(diag, HandleslideCurve(over, new))
    return diag


@pytest.fixture
def trefoil():
    return load("trefoil")


@pytest.fixture
def hopf():
    return load("hopf")


@pytest.fixture
def figure8():
    return load("figure8")
