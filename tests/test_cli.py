from dataclasses import replace

import pytest

from suturant import cli, serialize_diagram
from suturant.cli import run

from conftest import corpus_names, corpus_path, load


def out_of(capsys):
    return capsys.readouterr().out


def test_validate(capsys):
    assert run(["validate", str(corpus_path("trefoil"))]) == 0
    assert "ok" in out_of(capsys)


def test_multipoints(capsys):
    assert run(["multipoints", str(corpus_path("trefoil"))]) == 0
    assert "3 multipoint(s)" in out_of(capsys)


def test_compute_trefoil_fox(capsys):
    rc = run(["compute", str(corpus_path("trefoil")), "--engine", "fox",
              "--algebra", "hn", "--n", "5", "--char", "b2=1",
              "--order", "5"])
    assert rc == 0
    assert out_of(capsys).strip() == "1 - x + x^2 (mod Φ_5)"


def test_compute_engines_agree_bytewise(capsys):
    for name in corpus_names():
        if name in ("unknot", "s1s2"):
            continue
        for n in ("2", "3"):
            outs = []
            for engine in ("fox", "tensor"):
                rc = run(["compute", str(corpus_path(name)),
                          "--engine", engine, "--algebra", "hn", "--n", n,
                          "--order", n, "--all-chars"])
                assert rc == 0
                outs.append(out_of(capsys))
            assert outs[0] == outs[1], (name, n)


def test_compute_is_deterministic(capsys):
    args = ["compute", str(corpus_path("figure8")), "--engine", "fox",
            "--algebra", "hn", "--n", "6", "--order", "6", "--all-chars"]
    assert run(args) == 0
    first = out_of(capsys)
    assert run(args) == 0
    assert out_of(capsys) == first


def test_compute_cyclic(capsys):
    rc = run(["compute", str(corpus_path("lens_6_1")), "--engine", "tensor",
              "--algebra", "cyclic", "--m", "4"])
    assert rc == 0
    assert out_of(capsys).strip() == "2 (mod Φ_1)"      # gcd(6, 4)


def test_compute_with_offset_and_sign(capsys):
    base = ["compute", str(corpus_path("trefoil")), "--engine", "fox",
            "--algebra", "hn", "--n", "4", "--char", "t=1", "--order", "4"]
    assert run(base) == 0
    plain = out_of(capsys)
    assert run(base + ["--sign", "-1"]) == 0
    flipped = out_of(capsys)
    assert plain != flipped
    assert run(base + ["--offset", "t^2", "--multipoint", "m2"]) == 0


def test_offset_by_beta_id_is_its_projection(capsys):
    # on the trefoil, b2 projects to t and b1 to t^-2
    base = ["compute", str(corpus_path("trefoil")), "--n", "4",
            "--all-chars", "--offset"]
    for engine in ("fox", "tensor"):
        outs = {}
        for offset in ("b2", "t", "b1", "t^-2"):
            assert run(base + [offset, "--engine", engine]) == 0
            outs[offset] = out_of(capsys)
        assert outs["b2"] == outs["t"] != outs["b1"] == outs["t^-2"], engine


def test_eval_float_appends_an_approximation(capsys):
    argv = ["compute", str(corpus_path("trefoil")), "--n", "5",
            "--char", "t=1"]
    assert run(argv) == 0
    exact = out_of(capsys)
    assert run(argv + ["--eval-float"]) == 0
    assert out_of(capsys) == exact.rstrip("\n") + \
        "   [approx -0.118034-0.363271i]\n"


def test_class_output(capsys):
    assert run(["class", str(corpus_path("lens_3_1"))]) == 0
    assert out_of(capsys).strip() == "class: 1 + t + t^2"
    assert run(["class", str(corpus_path("trefoil"))]) == 0
    assert out_of(capsys).strip() == "class: 1 - t + t^2"


def test_compare(capsys):
    assert run(["compare", str(corpus_path("trefoil")),
                str(corpus_path("trefoil_moved"))]) == 0
    assert out_of(capsys).strip() == "EQUAL"
    assert run(["compare", str(corpus_path("trefoil")),
                str(corpus_path("figure8"))]) == 1
    assert out_of(capsys).strip() == "DIFFER"


def test_compare_rejects_an_invalid_diagram(tmp_path, capsys):
    trefoil = load("trefoil")
    alpha = trefoil.closed_alphas[0]
    for gone in alpha.order:
        broken = trefoil.with_curves(
            replace(c, order=tuple(x for x in c.order if x != gone))
            if c.id == alpha.id else c for c in trefoil.curves)
        path = tmp_path / f"without_{gone}.hd"
        path.write_text(serialize_diagram(broken))
        assert run(["compare", str(path), str(corpus_path("trefoil"))]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "FAIL" in err, gone


def test_reading_verbs_reject_an_invalid_diagram(tmp_path, capsys):
    # without x5 in a1's order, validation fails on alpha coverage, and
    # every verb that reads the diagram prints the report and nothing else
    text = corpus_path("trefoil").read_text(encoding="utf-8")
    path = tmp_path / "trefoil_without_x5.hd"
    path.write_text(text.replace("x1 x2 x3 x4 x5", "x1 x2 x3 x4"))
    assert run(["validate", str(path)]) == 1
    report = out_of(capsys)
    assert "FAIL Coverage[alpha]  [x5]\n" in report
    for verb in (["multipoints"], ["class"], ["compute", "--n", "3"]):
        assert run([verb[0], str(path), *verb[1:]]) == 1, verb
        out, err = capsys.readouterr()
        assert out == "" and err == report, verb


def test_axioms(capsys):
    assert run(["axioms", "--algebra", "hn", "--n", "4"]) == 0
    assert "compatibility" in out_of(capsys)
    assert run(["axioms", "--algebra", "cyclic", "--m", "5"]) == 0
    out_of(capsys)


def test_move_script(tmp_path, capsys):
    script = tmp_path / "moves.txt"
    script.write_text("reverse alpha a1\nstabilize\n")
    out = tmp_path / "out.hd"
    assert run(["move", str(corpus_path("trefoil")), "--script", str(script),
                "-o", str(out)]) == 0
    assert run(["compare", str(corpus_path("trefoil")), str(out)]) == 0
    assert out_of(capsys).strip() == "EQUAL"


def test_usage_error_exits_two(capsys):
    trefoil = str(corpus_path("trefoil"))
    for argv in (["compute"],      # missing file
                 ["compute", trefoil, "--algebra", "cyclic", "--m", "0"],
                 ["compute", trefoil, "--n", "0"],
                 ["compute", trefoil, "--n", "-2"],
                 ["compute", trefoil, "--n", "3", "--order", "0"],
                 ["compute", trefoil, "--n", "x"],
                 ["axioms", "--algebra", "hn", "--n", "0"],
                 ["axioms", "--algebra", "cyclic", "--m", "-1"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "usage:" in err, argv


def test_a_reused_parser_prints_what_a_fresh_one_prints(capsys,
                                                        monkeypatch):
    """``run`` builds its parser once per process; a usage error between
    two verbs leaves nothing behind in it."""
    trefoil = str(corpus_path("trefoil"))
    session = (["compute", trefoil, "--n", "3", "--all-chars"],
               ["compute", trefoil, "--n", "x"],
               ["axioms", "--algebra", "cyclic", "--m", "3"],
               ["compute", trefoil, "--engine", "tensor", "--n", "2",
                "--all-chars", "--sign", "-1"],
               ["compute"],
               ["validate", trefoil],
               ["compute", trefoil, "--n", "3", "--all-chars"])

    def outputs():
        seen = []
        for argv in session:
            try:
                rc = run(argv)
            except SystemExit as exc:
                rc = exc.code
            seen.append((rc, *capsys.readouterr()))
        return seen

    reused = outputs()
    assert [rc for rc, _, _ in reused] == [0, 2, 0, 0, 2, 0, 0]
    assert reused[0] == reused[-1]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outputs() == reused


def test_non_integer_char_or_offset_is_an_error(capsys):
    trefoil = str(corpus_path("trefoil"))
    for argv, entry in (
            (["compute", trefoil, "--n", "3", "--char", "t=x"], "'t=x'"),
            (["compute", trefoil, "--n", "3", "--all-chars",
              "--offset", "t^x"], "'t^x'")):
        assert run(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and entry in err, argv
        assert "Traceback" not in err, argv


def test_failing_character_prints_no_partial_output(capsys):
    # the first character of hopf at order 6 contracts; the second maps
    # b1 outside the order-3 group-likes of H_3
    argv = ["compute", str(corpus_path("hopf")), "--engine", "tensor",
            "--n", "3", "--order", "6", "--all-chars"]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: psi(b1) = zeta^1 is not an order-3 root of "
                   "unity in Z/6\n")


@pytest.mark.parametrize("engine", ["fox", "tensor"])
def test_both_engines_refuse_an_inadmissible_order(capsys, engine):
    # zeta_3 is no square root of unity, so H_2 cannot read it
    argv = ["compute", str(corpus_path("trefoil")), "--engine", engine,
            "--n", "2", "--order", "3", "--char", "t=1"]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: psi(b1) = zeta^1 is not an order-2 root of "
                   "unity in Z/3\n")


def test_missing_file_is_a_failure(capsys):
    assert run(["validate", "no-such-file.hd"]) == 1
