from dataclasses import replace

import pytest

from suturant import (Character, all_characters, cli, homology,
                      serialize_diagram)
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
    for verb in (["multipoints"], ["class"], ["compute", "--n", "3"],
                 ["compute", "--algebra", "cyclic"]):
        assert run([verb[0], str(path), *verb[1:]]) == 1, verb
        out, err = capsys.readouterr()
        assert out == "" and err == report, verb


def test_axioms(capsys):
    assert run(["axioms", "--algebra", "hn", "--n", "4"]) == 0
    assert "compatibility" in out_of(capsys)
    assert run(["axioms", "--algebra", "cyclic", "--m", "5"]) == 0
    out_of(capsys)


def test_an_algebra_without_its_size_is_a_failure(capsys):
    trefoil = str(corpus_path("trefoil"))
    for argv, flag in ((["compute", trefoil, "--algebra", "hn"], "--n"),
                       (["compute", trefoil, "--algebra", "cyclic"], "--m"),
                       (["axioms", "--algebra", "hn"], "--n"),
                       (["axioms", "--algebra", "cyclic"], "--m")):
        assert run(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == f"error: --algebra {argv[-1]} needs {flag}\n", argv


def test_an_algebra_refuses_the_other_algebras_size(capsys):
    trefoil = str(corpus_path("trefoil"))
    for argv, flag in (
            (["axioms", "--algebra", "hn", "--n", "2", "--m", "3"], "--m"),
            (["axioms", "--algebra", "cyclic", "--m", "3", "--n", "2"],
             "--n"),
            (["compute", trefoil, "--algebra", "hn", "--n", "2", "--m", "3"],
             "--m"),
            (["compute", trefoil, "--algebra", "cyclic", "--m", "3", "--n",
              "2"], "--n")):
        assert run(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        algebra = argv[argv.index("--algebra") + 1]
        assert err == f"error: --algebra {algebra} does not take {flag}\n"


def test_axioms_refuses_a_package_above_its_dimension_budget(capsys):
    assert cli.MAX_DIM == 512
    for argv, dim in ((["--algebra", "hn", "--n", "257"], 514),
                      (["--algebra", "hn", "--n", "100000000000"],
                       200000000000),
                      (["--algebra", "cyclic", "--m", "513"], 513)):
        assert run(["axioms", *argv]) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == (f"error: --algebra {argv[1]} gives dimension {dim}; "
                       "axioms takes at most 512\n")


def test_compute_refuses_a_package_above_the_same_budget(capsys):
    """Both engines refuse the same dimensions, before any package is
    built, and both still take dimension 512."""
    trefoil = str(corpus_path("trefoil"))
    for engine in ("fox", "tensor"):
        base = ["compute", trefoil, "--char", "t=1", "--engine", engine]
        for n, dim in (("257", 514), ("100000000000", 200000000000)):
            assert run(base + ["--n", n]) == 1, (engine, n)
            out, err = capsys.readouterr()
            assert out == "", (engine, n)
            assert err == (f"error: --algebra hn gives dimension {dim}; "
                           "compute takes at most 512\n")
        assert run(base + ["--n", "256"]) == 0, engine
        assert out_of(capsys) == "1 - x + x^2 (mod Φ_256)\n"
    assert run(["compute", str(corpus_path("lens_3_1")), "--algebra",
                "cyclic", "--m", "513"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: --algebra cyclic gives dimension 513; "
                   "compute takes at most 512\n")


def test_cyclic_refuses_the_flags_it_cannot_honour(capsys):
    base = ["compute", str(corpus_path("lens_6_1")), "--algebra", "cyclic",
            "--m", "4"]
    assert run(base) == 0
    value = out_of(capsys)
    assert run(base + ["--engine", "tensor"]) == 0
    assert out_of(capsys) == value
    for extra, flag in ((["--engine", "fox"], "--engine fox"),
                        (["--char", "t=1"], "--char"),
                        (["--order", "3"], "--order"),
                        (["--all-chars"], "--all-chars"),
                        (["--offset", "t"], "--offset"),
                        (["--sign", "+1"], "--sign"),
                        (["--sign", "canonical"], "--sign")):
        assert run(base + extra) == 1, extra
        out, err = capsys.readouterr()
        assert out == "", extra
        assert err == f"error: --algebra cyclic does not take {flag}\n", extra


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


def test_a_coordinate_key_fixes_its_exponent_before_the_product(
        monkeypatch, capsys):
    # the characters and their order are those of filtering every character
    for name, order, spec in (
            ("hopf", 4, "t1=1,b1=3"), ("hopf", 4, "t2=1,t2=3"),
            ("hopf", 4, "b4=1,t3=1,t3=5"), ("hopf", 3, ""),
            ("lens_6_1", 4, "t=2"), ("lens_6_1", 4, "t=1"),
            ("lens_6_1", 4, "b1=2"), ("trefoil", 5, "b1=3,t=1"),
            ("figure8", 6, "t=7")):
        group = homology(load(name))
        pairs = [item.split("=") for item in spec.split(",") if item]
        wanted = [(cli._name_vector(group, k, k), int(v) % order)
                  for k, v in pairs]
        assert cli._resolve_characters(group, order, spec) == [
            chi for chi in all_characters(group, order)
            if all(chi.exponent(vec) == v for vec, v in wanted)], (name, spec)
    # hopf has rank 3: filtering all of them would build 50^3 characters
    built = []
    check = Character.__post_init__
    monkeypatch.setattr(Character, "__post_init__",
                        lambda chi: (built.append(chi), check(chi))[1])
    argv = ["compute", str(corpus_path("hopf")), "--n", "2", "--order", "50",
            "--char", "t1=25,t2=0,t3=25"]
    assert run(argv) == 0
    assert [chi.exps for chi in built] == [(25, 0, 25)]
    assert out_of(capsys).strip()


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


def test_a_file_that_is_not_utf8_is_a_failure(tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"diagram t\n\xff\n")
    assert run(["validate", str(binary)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(binary) in err
    assert run(["move", str(corpus_path("trefoil")),
                "--script", str(binary)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out
    assert str(binary) in captured.err
