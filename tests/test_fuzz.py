"""Corrupted diagrams through the CLI: every verb ends in an exit status,
never a traceback.  Seeded by ``SUTURANT_SEED``; the corrupted and moved
files live in temporary copies, never in ``corpus/``."""

import random
import re

from suturant import (apply_move, class_equal, parse_diagram,
                      random_move_sequence, serialize_diagram, torsion_class)
from suturant.cli import run
from suturant.errors import SuturantError

from conftest import CORPUS, SEED, corpus_path
from test_symmetry import mirrored

CORRUPTIONS = ("drop", "repeat", "add", "sign", "rename")
FLAG_SETS = ((), ("--char", "t=1"), ("--offset", "t"), ("--sign", "canonical"),
             ("--offset", "t^-1", "--sign", "-1"))


def exit_of(capsys, argv):
    """The CLI's exit status and stdout; an uncaught exception, which would
    end the process in a traceback, fails the test where it is raised."""
    try:
        code = run([str(a) for a in argv])
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    return code, out


def corrupted(text, rng):
    """The diagram text with one fault: an id dropped from, repeated on or
    added to an order line, a crossing's sign flipped, or an id renamed."""
    lines = text.splitlines()
    ids = sorted({line.split()[1] for line in lines
                  if line.startswith(("crossing", "alpha", "beta"))})
    spots = {kind: [i for i, line in enumerate(lines) if test(line)]
             for kind, test in (
                 ("drop", lambda line: line.startswith("order")
                  and len(line.split()) > 4),
                 ("add", lambda line: line.startswith("order")),
                 ("sign", lambda line: line.startswith("crossing")),
                 ("rename", lambda line: not line.startswith("#")))}
    spots["repeat"] = spots["drop"]
    kind = rng.choice([k for k in CORRUPTIONS if spots[k]])
    i = rng.choice(spots[kind])
    tok = lines[i].split()
    if kind == "sign":
        tok[-1] = "-" if tok[-1] == "+" else "+"
    elif kind == "rename":
        j = rng.randrange(len(tok))
        tok[j] = rng.choice([t for t in ids if t != tok[j]] + [tok[j] + "z"])
    else:
        j = rng.randrange(4, len(tok) + (kind == "add"))
        if kind == "drop":
            del tok[j]
        elif kind == "repeat":
            tok.insert(rng.randrange(4, len(tok) + 1), tok[j])
        else:
            tok.insert(j, rng.choice(ids + ["x99"]))
    lines[i] = " ".join(tok)
    return "\n".join(lines) + "\n", kind


def handleslide_script(text):
    """One handleslide per family, the family's last curve over its first
    (closed curves come first, so an over-curve is closed when it can be)."""
    curves = re.findall(r"^(alpha|beta) (\S+)", text, re.M)
    lines = []
    for fam in ("alpha", "beta"):
        ids = [cid for f, cid in curves if f == fam]
        if len(ids) > 1:
            lines.append(f"handleslide {ids[-1]} over {ids[0]}\n")
    return "".join(lines)


def through_flags(capsys, path, label):
    """compute --n 3 --all-chars under each of FLAG_SETS on both engines,
    which agree on exit status and stdout, then the cyclic package."""
    for flags in FLAG_SETS:
        fox, tensor = (exit_of(capsys, ["compute", path, "--n", "3",
                                        "--all-chars", *flags,
                                        "--engine", engine])
                       for engine in ("fox", "tensor"))
        assert fox == tensor, (flags, label)
    exit_of(capsys, ["compute", path, "--algebra", "cyclic", "--m", "3"])


def test_a_handleslide_on_a_broken_order_is_refused(tmp_path, capsys):
    """Hopf with c7 dropped from b2's order: the slide reads a2's crossings
    through the diagram's index, which refuses the diagram."""
    text = corpus_path("hopf").read_text().replace(
        "order beta b2 : c5 c7", "order beta b2 : c5")
    path, script = tmp_path / "broken.hd", tmp_path / "moves.txt"
    path.write_text(text)
    script.write_text("handleslide a1 over a2\n")
    assert run(["move", str(path), "--script", str(script)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: crossing c7 on no beta\n"


def test_corrupted_diagrams_end_in_an_exit_status(tmp_path, capsys):
    """200 corrupted corpus files through validate, multipoints, class,
    compute on both engines and a handleslide script: each exits 0, 1 or
    2 with no traceback, the engines agree on status and stdout, and each
    file that parses round-trips through ``serialize_diagram``."""
    rng = random.Random(SEED)
    names = sorted(CORPUS.glob("*.hd"))
    kinds = dict.fromkeys(CORRUPTIONS, 0)
    for t in range(200):
        text, kind = corrupted(rng.choice(names).read_text(), rng)
        kinds[kind] += 1
        path, script = tmp_path / f"c{t}.hd", tmp_path / f"m{t}.txt"
        path.write_text(text)
        script.write_text(handleslide_script(text))
        for verb in ("validate", "multipoints", "class"):
            exit_of(capsys, [verb, path])
        exit_of(capsys, ["move", path, "--script", script])
        fox, tensor = (exit_of(capsys, ["compute", path, "--n", "2",
                                        "--all-chars", "--engine", engine])
                       for engine in ("fox", "tensor"))
        assert fox == tensor, (kind, text)
        try:
            diag = parse_diagram(text)
        except SuturantError:
            continue
        again = serialize_diagram(diag)
        assert parse_diagram(again) == diag, (kind, text)
        assert serialize_diagram(parse_diagram(again)) == again, (kind, text)
    assert all(kinds.values()), kinds


def test_moved_and_corrupted_diagrams_through_compare_and_compute(
        tmp_path, capsys):
    """100 corpus files, every second one first put through a seeded 4-move
    ``random_move_sequence``, then corrupted.  Each corrupted file is
    compared both ways with its uncorrupted source, with the same status
    and stdout each way, and goes through ``through_flags``; so does each
    moved copy, which compares EQUAL with its corpus file and whose class
    is symmetric under inversion (``test_symmetry.mirrored``)."""
    rng = random.Random(SEED + 1)
    names = sorted(CORPUS.glob("*.hd"))
    for t in range(100):
        source = rng.choice(names)
        text = source.read_text()
        if t % 2:
            diag = parse_diagram(text)
            for mv in random_move_sequence(diag, rng.randrange(2**32), 4):
                diag = apply_move(diag, mv)
            cls_ = torsion_class(diag)
            assert class_equal(mirrored(cls_), cls_), (source, str(cls_))
            text = serialize_diagram(diag)
            moved = tmp_path / f"v{t}.hd"
            moved.write_text(text)
            assert exit_of(capsys, ["compare", source, moved]) == (
                0, "EQUAL\n"), (source, text)
            through_flags(capsys, moved, text)
            source = moved
        bad, kind = corrupted(text, rng)
        path = tmp_path / f"c{t}.hd"
        path.write_text(bad)
        assert (exit_of(capsys, ["compare", path, source])
                == exit_of(capsys, ["compare", source, path])), (kind, bad)
        through_flags(capsys, path, (kind, bad))
