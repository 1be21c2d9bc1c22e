"""Diagrams with over a thousand closed alphas: the multipoint searches keep
their own stacks and queues, so no depth of diagram ends in a
RecursionError, the Smith normal form stops its pivot scan at the first
unit, and the two engines agree.  Each diagram is written as text into a
temporary directory."""

import time

from suturant import (CharacterAssignment, CyclotomicScalar, SpincRelative,
                      all_characters, build_hn, contract_values, homology,
                      invariant_hn_values, parse_diagram)
from suturant.cli import run
from suturant.invariant import anchor_multipoint

from conftest import corpus_path

D = 1100


def chain_text(d):
    """Closed alphas a1..ad, alpha i meeting beta i-1 and then beta i, with
    b0 an arc: each alpha must take its second crossing, so the diagram
    has one multipoint."""
    lines = ["diagram chain"]
    lines += [f"alpha a{i} closed" for i in range(1, d + 1)] + ["alpha a0 arc"]
    lines += [f"beta b{i} closed" for i in range(1, d + 1)] + ["beta b0 arc"]
    for i in range(1, d + 1):
        lines += [f"crossing x{i}p a{i} b{i - 1} +",
                  f"crossing x{i}q a{i} b{i} +"]
    lines += [f"order alpha a{i} : x{i}p x{i}q" for i in range(1, d + 1)]
    lines.append("order alpha a0 :")
    lines += [f"order beta b{i} : x{i}q x{i + 1}p" for i in range(1, d)]
    lines += [f"order beta b{d} : x{d}q", "order beta b0 : x1p"]
    return "\n".join(lines) + "\n"


def stabilized_trefoil_text(k):
    """The trefoil with k stabilizations: k more closed pairs (s_j, t_j),
    each meeting once, so the trefoil's three multipoints each get k more
    picks."""
    lines = [line for line in corpus_path("trefoil").read_text().splitlines()
             if not line.startswith(("#", "multipoint"))]
    at = lines.index("alpha a2 arc")
    lines[at:at] = [f"alpha s{j} closed" for j in range(k)]
    at = lines.index("beta b2 arc")
    lines[at:at] = [f"beta t{j} closed" for j in range(k)]
    lines += [f"crossing y{j} s{j} t{j} +" for j in range(k)]
    lines += [f"order alpha s{j} : y{j}" for j in range(k)]
    lines += [f"order beta t{j} : y{j}" for j in range(k)]
    return "\n".join(lines) + "\n"


def cli(capsys, argv):
    code = run([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_multipoints_of_a_thousand_closed_alphas(tmp_path, capsys):
    for text, count in ((chain_text(D), 1), (stabilized_trefoil_text(D), 3)):
        path = tmp_path / "deep.hd"
        path.write_text(text)
        code, out, err = cli(capsys, ["multipoints", path])
        assert (code, err) == (0, "")
        *lines, total = out.splitlines()
        assert (len(lines), total) == (count, f"{count} multipoint(s)")
        assert all(len(line.split("  ")[0].split()) == D + (count == 3)
                   for line in lines)


def test_anchor_of_a_thousand_alpha_chain():
    """The anchor's matchability test finds each augmenting path breadth
    first; the chain's paths are D crossings long."""
    diag = parse_diagram(chain_text(D))
    assert anchor_multipoint(diag).picks == tuple(
        sorted(f"x{i}q" for i in range(1, D + 1)))


def test_class_of_a_thousand_alpha_chain_is_quick(tmp_path, capsys):
    """Every pivot of the chain's relation matrix is a unit, found at the
    start of the scan.  A scan of every remaining cell for each pivot is
    cubic, and took over 15 s on a 2-vCPU VM."""
    path = tmp_path / "chain.hd"
    path.write_text(chain_text(1000))
    start = time.perf_counter()
    assert cli(capsys, ["class", path]) == (0, "class: 1\n", "")
    assert time.perf_counter() - start < 5


def test_both_engines_agree_on_long_diagrams():
    """At every n = 2 character, on the chain (class 1) and on the
    stabilized trefoil (class 1 - t + t^2, so 1 and 3 at t = 1 and -1):
    the tensor sweep, whose Koszul tail reads one parity word, against the
    Fox determinant."""
    for text, want in ((chain_text(600), ["1", "1"]),
                       (stabilized_trefoil_text(600), ["1", "3"])):
        diag = parse_diagram(text)
        chars = [CharacterAssignment.from_character(chi)
                 for chi in all_characters(homology(diag), 2)]
        spinc = SpincRelative(anchor_multipoint(diag))
        values = [invariant_hn_values(diag, 2, chars, spinc, engine=engine)
                  for engine in ("fox", "tensor")]
        assert values[0] == values[1]
        assert [str(v) for v in values[0]] == [f"{w} (mod Φ_2)" for w in want]


def test_a_long_tensor_sweep_is_quick():
    """H_2 at d = 4,000, at two assignments read from beta exponents alone,
    with no H_1: the chain at all 0 and at all 1, the stabilized trefoil at
    all 0 and at b2 = 1 alone.  A state keeps its open runs in one integer,
    so a new state copies no part per beta; with one tuple of runs per
    beta these two sweeps took about 2 s of CPU on a 2-vCPU VM."""
    pkg, spent = build_hn(2), 0
    for text, ones, want in ((chain_text(4000), None, (1, 1)),
                             (stabilized_trefoil_text(4000), ["b2"], (1, 3))):
        diag = parse_diagram(text)
        ones = ones or [c.id for c in diag.family("beta")]
        chars = [CharacterAssignment(2, {}),
                 CharacterAssignment(2, dict.fromkeys(ones, 1))]
        start = time.process_time()
        values = contract_values(diag, pkg, chars)
        spent += time.process_time() - start
        assert values == [CyclotomicScalar.integer(v, 2) for v in want]
    assert spent < 1
