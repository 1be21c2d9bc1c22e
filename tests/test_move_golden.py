"""Pinned output of seeded random move sequences on the corpus.

Each entry of ``move_golden.json`` is one corpus file and one seed of
``random_move_sequence``.  Per move it holds a line: the move, its
``generator_map`` and ``orientation_flip`` on the diagram before it, and
the first 16 hex digits of the SHA-256 of the ``serialize_diagram`` text,
named multipoints included, of the diagram after it.  The last diagram's
text is pinned in full.  The
sequences are long enough to cross 30 crossings, where the sequence
starts to destabilize.  The seeds are fixed here, not read from
``SUTURANT_SEED``, so the pins do not move with the suite's seed.
Regenerate with ``PYTHONPATH=src python tests/test_move_golden.py``.
"""

import hashlib
import json
from pathlib import Path

from suturant import (apply_move, generator_map, orientation_flip,
                      random_move_sequence, serialize_diagram)

from conftest import corpus_names, load

EXPECTED = Path(__file__).with_name("move_golden.json")
SEEDS = (0, 1)
LENGTH = 40


def sequences():
    out = []
    for name in corpus_names():
        for seed in SEEDS:
            cur, steps = load(name), []
            for mv in random_move_sequence(cur, seed, LENGTH):
                step = [repr(mv), generator_map(cur, mv),
                        orientation_flip(cur, mv)]
                cur = apply_move(cur, mv)
                text = serialize_diagram(cur)
                steps.append(step + [
                    hashlib.sha256(text.encode()).hexdigest()[:16]])
            out.append({"file": name, "seed": seed, "steps": steps,
                        "diagram": text})
    # the JSON form: tuples read back as lists
    return json.loads(json.dumps(out))


def test_random_move_sequences_match_the_pinned_output():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    got = sequences()
    assert [(e["file"], e["seed"]) for e in got] == \
        [(e["file"], e["seed"]) for e in expected]
    for g, want in zip(got, expected):
        assert g == want, (want["file"], want["seed"])


if __name__ == "__main__":
    EXPECTED.write_text("[\n" + ",\n".join(
        json.dumps(step) for step in sequences()) + "\n]\n",
        encoding="utf-8")
