"""Command line surface.

Verbs: validate, multipoints, compute, class, compare, axioms, move.
All numeric output is exact; ``--eval-float`` adds a clearly marked
approximation.  Exit status: 0 success, 1 validation or computation
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys

from .algebra import build_cyclic_group_algebra, build_hn, check_axioms
from .diagram import (enumerate_multipoints, multipoint_permutation,
                      parse_diagram, serialize_diagram, validate)
from .errors import SuturantError
from .foxcalc import (Character, GroupRingElement, character_exponents,
                      class_equal, coordinate_name, homology)
from .invariant import (OrientationSign, SpincRelative, anchor_multipoint,
                        invariant_hn_values, torsion_class)
from .kuperberg import CharacterAssignment, contract
from .moves import apply_move, parse_move_script
# Not called here: kept as module attributes because the benchmark tracer
# (perfbench/tracing.py) wraps suturant.cli.all_characters and
# suturant.cli.invariant_hn.
from .foxcalc import all_characters  # noqa: F401
from .invariant import invariant_hn  # noqa: F401


def _read(path):
    """The text of the file at ``path``; a file that is not UTF-8 text is
    a :class:`SuturantError` naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise SuturantError(f"{path}: not UTF-8 text ({e})") from None


def _load(path):
    return parse_diagram(_read(path))


def _load_valid(path):
    """The parsed diagram, or None after its failed validation report has
    gone to stderr."""
    diag = _load(path)
    rep = validate(diag)
    if rep.passed:
        return diag
    print(rep, file=sys.stderr)
    return None


def _integer(text, entry, flag):
    """The integer ``text`` read from one entry of a flag's value."""
    try:
        return int(text)
    except ValueError:
        raise SuturantError(f"bad {flag} entry {entry!r}: "
                            f"{text.strip()!r} is not an integer") from None


def _name_vector(group, name, unknown):
    """The H_1 vector a name stands for: the unit vector of a normal-form
    coordinate (t, t1, s1, ...) or the projection row of a beta-curve id.
    Any other name is an error with the message ``unknown``."""
    for t in range(group.ncoords):
        if coordinate_name(group, t) == name:
            return tuple(int(u == t) for u in range(group.ncoords))
    if name in group.gens:
        return group.projection[group.gens.index(name)]
    raise SuturantError(unknown)


def _resolve_characters(group, order, spec_text):
    """Characters of the given order matching ``k=v`` constraints; keys are
    names in the sense of :func:`_name_vector`.  A coordinate key fixes its
    exponent before the characters are built; a beta-id key filters them."""
    pairs = []
    if spec_text:
        for item in spec_text.split(","):
            if "=" not in item:
                raise SuturantError(f"bad --char entry {item!r}")
            k, v = item.split("=", 1)
            pairs.append((k.strip(), _integer(v, item, "--char") % order))
    names = [coordinate_name(group, t) for t in range(group.ncoords)]
    choices = character_exponents(group, order)
    constraints = []
    for k, v in pairs:
        vec = _name_vector(group, k, f"unknown character key {k!r}")
        if k in names:
            t = names.index(k)
            choices[t] = [v] if v in choices[t] else []
        else:
            constraints.append((vec, v))
    return [chi for chi in (Character(group, order, exps)
                            for exps in itertools.product(*choices))
            if all(chi.exponent(vec) == v for vec, v in constraints)]


def _resolve_offset(group, text):
    if not text:
        return None
    coords = [0] * group.ncoords
    for tok in text.replace("*", " ").split():
        if "^" in tok:
            name, e = tok.split("^", 1)
            e = _integer(e, tok, "--offset")
        else:
            name, e = tok, 1
        vec = _name_vector(group, name,
                           f"unknown generator {name!r} in offset")
        coords = [c + e * v for c, v in zip(coords, vec)]
    return GroupRingElement.monomial(group, group.normalize(coords))


def _chi_label(group, chi):
    bits = [f"{coordinate_name(group, t)}={e}"
            for t, e in enumerate(chi.exps)]
    return ",".join(bits) if bits else "trivial"


# The largest package dimension (2n for hn, m for cyclic) that ``compute``
# and ``axioms`` build, on either engine: hn(n) has n^2-entry tables,
# cyclic(512) alone peaks at about 100 MiB, and the axiom suite's time grows
# about fourfold per doubling of the dimension.
MAX_DIM = 512


def _check_size(args):
    """Refuse an ``--algebra`` given without its size (``--n`` for hn,
    ``--m`` for cyclic), with the other algebra's, or with a dimension above
    :data:`MAX_DIM`."""
    flag, other = ("m", "n") if args.algebra == "cyclic" else ("n", "m")
    size = getattr(args, flag)
    if size is None:
        raise SuturantError(f"--algebra {args.algebra} needs --{flag}")
    if getattr(args, other) is not None:
        raise SuturantError(
            f"--algebra {args.algebra} does not take --{other}")
    dim = size if args.algebra == "cyclic" else 2 * size
    if dim > MAX_DIM:
        raise SuturantError(f"--algebra {args.algebra} gives dimension {dim}; "
                            f"{args.verb} takes at most {MAX_DIM}")


def _check_cyclic_flags(args):
    """Refuse, with ``--algebra cyclic``, each flag its contraction at the
    trivial character cannot honour: an explicit ``--engine fox`` and the
    character and spin-c flags."""
    given = ["engine fox"] if args.engine == "fox" else []
    given += [dest.replace("_", "-") for dest in (
        "char", "order", "all_chars", "offset", "sign")
        if getattr(args, dest) not in (None, False)]
    if given:
        raise SuturantError(f"--algebra cyclic does not take --{given[0]}")


def cmd_validate(args):
    rep = validate(_load(args.file))
    print(rep)
    return 0 if rep.passed else 1


def cmd_multipoints(args):
    diag = _load_valid(args.file)
    if diag is None:
        return 1
    mps = enumerate_multipoints(diag)
    names = {mp: nm for nm, mp in diag.named_multipoints.items()}
    for mp in mps:
        sigma = multipoint_permutation(diag, mp)
        tag = f"  ({names[mp]})" if mp in names else ""
        print(f"{' '.join(mp.picks)}  sigma={sigma}{tag}")
    print(f"{len(mps)} multipoint(s)")
    return 0


def cmd_compute(args):
    diag = _load_valid(args.file)
    if diag is None:
        return 1
    group = homology(diag)
    _check_size(args)
    cyclic = args.algebra == "cyclic"
    if cyclic:
        _check_cyclic_flags(args)
    anchor = anchor_multipoint(diag)
    ref = None if anchor is None else _pick_reference(diag, anchor,
                                                      args.multipoint)
    if cyclic:
        # the trivial character and a* make the value basepoint-free
        _emit(contract(diag, build_cyclic_group_algebra(args.m),
                       CharacterAssignment.trivial()), args)
        return 0

    if ref is None:
        print("no multipoints: unnormalized determinant is 0")
        return 1
    spinc = SpincRelative(ref, _resolve_offset(group, args.offset))
    sign = args.sign or "+1"
    orient = OrientationSign(
        "canonical" if sign == "canonical" else int(sign))

    order = args.n if args.order is None else args.order
    chis = _resolve_characters(group, order, args.char)
    if not chis:
        raise SuturantError(
            "no character of H_1 matches the given constraints")
    if len(chis) > 1 and not args.all_chars:
        raise SuturantError(
            f"{len(chis)} characters match; add constraints or --all-chars")
    # every value is computed before the first is printed, so a failure
    # leaves stdout empty
    values = invariant_hn_values(
        diag, args.n, [CharacterAssignment.from_character(chi)
                       for chi in chis],
        spinc, orient, engine=args.engine or "fox")
    for chi, val in zip(chis, values):
        if args.all_chars:
            print(f"chi[{_chi_label(group, chi)}]: ", end="")
        _emit(val, args)
    return 0


def _pick_reference(diag, anchor, name):
    if not name:
        return anchor
    if name not in diag.named_multipoints:
        raise SuturantError(f"no multipoint named {name!r}")
    return diag.named_multipoints[name]


def _emit(value, args):
    text = str(value)
    if getattr(args, "eval_float", False):
        z = value.approx()
        text += f"   [approx {z.real:+.6f}{z.imag:+.6f}i]"
    print(text)


def cmd_class(args):
    diag = _load_valid(args.file)
    if diag is None:
        return 1
    print(f"class: {torsion_class(diag)}")
    return 0


def cmd_compare(args):
    da, db = _load_valid(args.file1), _load_valid(args.file2)
    if da is None or db is None:
        return 1
    a, b = torsion_class(da), torsion_class(db)
    if a.group.same_shape(b.group) and class_equal(a, b):
        print("EQUAL")
        return 0
    print("DIFFER")
    return 1


def cmd_axioms(args):
    _check_size(args)
    pkg = (build_hn(args.n) if args.algebra == "hn"
           else build_cyclic_group_algebra(args.m))
    rep = check_axioms(pkg)
    print(rep)
    return 0 if rep.passed else 1


def cmd_move(args):
    diag = _load(args.file)
    moves = parse_move_script(_read(args.script))
    for mv in moves:
        diag = apply_move(diag, mv)
    text = serialize_diagram(diag)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every later
    :func:`run` in the process."""
    p = argparse.ArgumentParser(
        prog="suturant",
        description="exact sutured-manifold invariants from combinatorial "
                    "extended Heegaard diagrams")
    sub = p.add_subparsers(dest="verb", required=True)

    q = sub.add_parser("validate", help="check diagram invariants")
    q.add_argument("file")
    q.set_defaults(fn=cmd_validate)

    q = sub.add_parser("multipoints", help="enumerate multipoints")
    q.add_argument("file")
    q.set_defaults(fn=cmd_multipoints)

    q = sub.add_parser("compute", help="run an engine on a diagram")
    q.add_argument("file")
    q.add_argument("--engine", choices=("fox", "tensor"),
                   help="default: fox for --algebra hn, tensor for cyclic")
    q.add_argument("--algebra", choices=("hn", "cyclic"), default="hn")
    q.add_argument("--n", type=positive_int)
    q.add_argument("--m", type=positive_int)
    q.add_argument("--char")
    q.add_argument("--order", type=positive_int)
    q.add_argument("--multipoint")
    q.add_argument("--offset")
    q.add_argument("--sign", choices=("+1", "-1", "canonical"))
    q.add_argument("--all-chars", action="store_true", dest="all_chars")
    q.add_argument("--eval-float", action="store_true", dest="eval_float")
    q.set_defaults(fn=cmd_compute)

    q = sub.add_parser("class", help="canonical torsion class")
    q.add_argument("file")
    q.set_defaults(fn=cmd_class)

    q = sub.add_parser("compare", help="compare torsion classes")
    q.add_argument("file1")
    q.add_argument("file2")
    q.set_defaults(fn=cmd_compare)

    q = sub.add_parser("axioms", help="exhaustive algebra axiom suite")
    q.add_argument("--algebra", choices=("hn", "cyclic"), required=True)
    q.add_argument("--n", type=positive_int)
    q.add_argument("--m", type=positive_int)
    q.set_defaults(fn=cmd_axioms)

    q = sub.add_parser("move", help="apply a move script")
    q.add_argument("file")
    q.add_argument("--script", required=True)
    q.add_argument("-o", "--output")
    q.set_defaults(fn=cmd_move)
    return p


def run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SuturantError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
