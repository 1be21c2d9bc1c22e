"""Combinatorial model of ordered, oriented extended Heegaard diagrams.

A diagram is a list of curves (closed or arc, alpha or beta family), a set of
signed crossings, and one crossing order per curve.  Orientation is the list
direction; the basepoint of a closed curve is the list start, so rebasing is
a rotation and never a separate field.  Nothing here checks that the data
embeds in an actual surface: every computation downstream is a function of
the combinatorics alone.

File format (UTF-8, line oriented, ``#`` starts a comment):

    diagram <name>
    alpha <id> closed|arc
    beta <id> closed|arc
    crossing <id> <alpha-id> <beta-id> +|-
    order alpha <id> : <crossing-id>*
    order beta <id> : <crossing-id>*
    multipoint <name> : <crossing-id>*
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import (DuplicateIdError, InvalidMultipointError,
                     ParseError, UnknownCurveError)
from .report import Report


@dataclass(frozen=True)
class Crossing:
    id: str
    alpha: str
    beta: str
    sign: int    # sign of the ordered tangent pair (alpha', beta')


@dataclass(frozen=True)
class Curve:
    id: str
    family: str      # "alpha" | "beta"
    topology: str    # "closed" | "arc"
    order: tuple     # crossing ids; cyclic from basepoint for closed curves

    @property
    def closed(self):
        return self.topology == "closed"


@dataclass(frozen=True)
class FreeWord:
    """A word in beta-curve (or alpha-curve) duals with exponents +-1."""

    letters: tuple   # of (generator token, +-1)

    def __mul__(self, other):
        return FreeWord(self.letters + other.letters)

    def inverse(self):
        return FreeWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def exponent_sums(self):
        out = {}
        for g, e in self.letters:
            out[g] = out.get(g, 0) + e
            if out[g] == 0:
                del out[g]
        return out

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join(g if e == 1 else f"{g}^-1" for g, e in self.letters)


@dataclass(frozen=True)
class Multipoint:
    """One pick per closed alpha curve, hitting distinct closed betas."""

    picks: tuple     # crossing ids, sorted

    def __str__(self):
        return "{" + ", ".join(self.picks) + "}"


@dataclass(frozen=True)
class ExtendedDiagram:
    name: str
    curves: tuple                  # list position = the diagram ordering
    crossings: tuple
    named_multipoints: dict = field(default_factory=dict, compare=False)

    # -- lookups ----------------------------------------------------------

    @cached_property
    def curve_index(self):
        """id -> curve, built on first use (not a field: equality and
        hashing stay those of the fields)."""
        return {c.id: c for c in self.curves}

    @cached_property
    def crossing_index(self):
        """id -> crossing, built on first use."""
        return {x.id: x for x in self.crossings}

    def curve(self, cid):
        try:
            return self.curve_index[cid]
        except KeyError:
            raise UnknownCurveError(cid) from None

    def crossing(self, xid):
        try:
            return self.crossing_index[xid]
        except KeyError:
            raise UnknownCurveError(f"crossing {xid}") from None

    def family(self, fam, topology=None):
        return tuple(c for c in self.curves if c.family == fam
                     and (topology is None or c.topology == topology))

    @property
    def closed_alphas(self):
        return self.family("alpha", "closed")

    @property
    def closed_betas(self):
        return self.family("beta", "closed")

    @property
    def d(self):
        return len(self.closed_alphas)

    def beta_generators(self):
        """Dual generators of pi_1: every beta curve, closed first."""
        return tuple(c.id for c in self.family("beta"))

    def with_curves(self, curves):
        return replace(self, curves=tuple(curves))


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------

def parse_diagram(text):
    name = "diagram"
    curves = {}
    curve_seq = []
    crossings = {}
    orders = {}
    named = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kind = tok[0]
        if kind == "diagram":
            if len(tok) != 2:
                raise ParseError(lineno, "expected: diagram <name>")
            name = tok[1]
        elif kind in ("alpha", "beta"):
            if len(tok) != 3 or tok[2] not in ("closed", "arc"):
                raise ParseError(lineno, f"expected: {kind} <id> closed|arc")
            if tok[1] in curves:
                raise DuplicateIdError(f"curve {tok[1]} (line {lineno})")
            curves[tok[1]] = Curve(tok[1], kind, tok[2], ())
            curve_seq.append(tok[1])
        elif kind == "crossing":
            if len(tok) != 5 or tok[4] not in ("+", "-"):
                raise ParseError(
                    lineno, "expected: crossing <id> <alpha> <beta> +|-")
            if tok[1] in crossings:
                raise DuplicateIdError(f"crossing {tok[1]} (line {lineno})")
            a, b = tok[2], tok[3]
            if a not in curves or curves[a].family != "alpha":
                raise ParseError(lineno, f"unknown alpha curve {a}")
            if b not in curves or curves[b].family != "beta":
                raise ParseError(lineno, f"unknown beta curve {b}")
            crossings[tok[1]] = Crossing(
                tok[1], a, b, 1 if tok[4] == "+" else -1)
        elif kind == "order":
            if len(tok) < 4 or tok[1] not in ("alpha", "beta") or tok[3] != ":":
                raise ParseError(
                    lineno, "expected: order alpha|beta <id> : <crossings>")
            cid = tok[2]
            if cid not in curves or curves[cid].family != tok[1]:
                raise ParseError(lineno, f"unknown {tok[1]} curve {cid}")
            if (tok[1], cid) in orders:
                raise DuplicateIdError(f"order for {cid} (line {lineno})")
            orders[(tok[1], cid)] = tuple(tok[4:])
        elif kind == "multipoint":
            if len(tok) < 3 or tok[2] != ":":
                raise ParseError(lineno, "expected: multipoint <name> : ids")
            if tok[1] in named:
                raise DuplicateIdError(f"multipoint {tok[1]} (line {lineno})")
            named[tok[1]] = Multipoint(tuple(sorted(tok[3:])))
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
    built = []
    for cid in curve_seq:
        c = curves[cid]
        built.append(replace(c, order=orders.get((c.family, cid), ())))
    return ExtendedDiagram(name, tuple(built), tuple(crossings.values()),
                           named)


def serialize_diagram(diag):
    lines = [f"diagram {diag.name}"]
    for c in diag.curves:
        lines.append(f"{c.family} {c.id} {c.topology}")
    for x in diag.crossings:
        lines.append(f"crossing {x.id} {x.alpha} {x.beta} "
                     f"{'+' if x.sign > 0 else '-'}")
    for c in diag.curves:
        lines.append(f"order {c.family} {c.id} : " + " ".join(c.order))
    for nm, mp in sorted(diag.named_multipoints.items()):
        lines.append(f"multipoint {nm} : " + " ".join(mp.picks))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(diag):
    rep = Report()

    rep.add("Balanced", len(diag.closed_alphas) == len(diag.closed_betas),
            f"{len(diag.closed_alphas)} closed alpha vs "
            f"{len(diag.closed_betas)} closed beta")

    for fam in ("alpha", "beta"):
        seen_arc = False
        ok = True
        for c in diag.family(fam):
            if c.topology == "arc":
                seen_arc = True
            elif seen_arc:
                ok = False
        rep.add(f"OrderingConvention[{fam}]", ok,
                "closed curves must precede arcs")

    for fam, side in (("alpha", "alpha"), ("beta", "beta")):
        counts = {x.id: 0 for x in diag.crossings}
        ok_membership, wit = True, ""
        for c in diag.family(fam):
            seen = set()
            for xid in c.order:
                if xid not in diag.crossing_index:
                    ok_membership, wit = False, f"{xid} on {c.id}"
                    continue
                if getattr(diag.crossing(xid), side) != c.id:
                    ok_membership, wit = False, f"{xid} not on {c.id}"
                if xid in seen:
                    ok_membership, wit = False, f"{xid} repeated on {c.id}"
                seen.add(xid)
                counts[xid] = counts.get(xid, 0) + 1
        rep.add(f"Membership[{fam}]", ok_membership, wit)
        dbl = [xid for xid, n in counts.items() if n > 1]
        missing = [xid for xid, n in counts.items() if n == 0]
        rep.add(f"DoubleUse[{fam}]", not dbl, ", ".join(dbl))
        rep.add(f"Coverage[{fam}]", not missing, ", ".join(missing))

    ok = all(x.sign in (1, -1) for x in diag.crossings)
    rep.add("Signs", ok)

    ok, wit = True, ""
    for nm, mp in diag.named_multipoints.items():
        try:
            _check_multipoint(diag, mp)
        except InvalidMultipointError as e:
            ok, wit = False, f"{nm}: {e}"
    rep.add("NamedMultipoints", ok, wit)
    return rep


# ---------------------------------------------------------------------------
# multipoints
# ---------------------------------------------------------------------------

def _check_multipoint(diag, mp):
    alphas = [c.id for c in diag.closed_alphas]
    betas = {c.id for c in diag.closed_betas}
    if len(mp.picks) != len(alphas):
        raise InvalidMultipointError(
            f"{len(mp.picks)} picks for {len(alphas)} closed alpha curves")
    seen_a, seen_b = set(), set()
    for xid in mp.picks:
        if xid not in diag.crossing_index:
            raise InvalidMultipointError(f"unknown crossing {xid}")
        x = diag.crossing(xid)
        if x.alpha not in alphas or x.beta not in betas:
            raise InvalidMultipointError(f"{xid} not on closed curves")
        if x.alpha in seen_a or x.beta in seen_b:
            raise InvalidMultipointError(f"{xid} reuses a curve")
        seen_a.add(x.alpha)
        seen_b.add(x.beta)


def multipoint_permutation(diag, mp):
    """The induced map: closed-alpha position -> closed-beta position."""
    apos = {c.id: i for i, c in enumerate(diag.closed_alphas)}
    bpos = {c.id: i for i, c in enumerate(diag.closed_betas)}
    sigma = [None] * len(apos)
    for xid in mp.picks:
        x = diag.crossing(xid)
        sigma[apos[x.alpha]] = bpos[x.beta]
    return tuple(sigma)


def enumerate_multipoints(diag):
    """All perfect matchings of closed alphas to closed betas through
    shared crossings, in lexicographic order on the sorted pick ids.  A
    crossing lies on one alpha, so the leaves of the search are distinct."""
    alphas = diag.closed_alphas
    betas = {c.id for c in diag.closed_betas}
    by_alpha = []
    for a in alphas:
        opts = [x for x in diag.crossings
                if x.alpha == a.id and x.beta in betas]
        by_alpha.append(opts)
    found = []

    def rec(i, used_beta, picks):
        if i == len(alphas):
            found.append(Multipoint(tuple(sorted(picks))))
            return
        for x in by_alpha[i]:
            if x.beta not in used_beta:
                rec(i + 1, used_beta | {x.beta}, picks + [x.id])

    rec(0, set(), [])
    return sorted(found, key=lambda m: m.picks)


def multipoint_sign(diag, mp):
    """Product of the pick signs times the sign of the induced permutation."""
    _check_multipoint(diag, mp)
    sgn = perm_sign(multipoint_permutation(diag, mp))
    for xid in mp.picks:
        sgn *= diag.crossing(xid).sign
    return sgn


def perm_sign(seq):
    """(-1) to the number of inversions of a sequence of distinct values."""
    sign = 1
    for i, a in enumerate(seq):
        for b in seq[i + 1:]:
            if a > b:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# basepoints
# ---------------------------------------------------------------------------

def _rotate_for_pick(order, pick, sign):
    """Rotate a cyclic order so the basepoint sits just before (positive
    pick) or just after (negative pick) the pick.  Positive: the pick
    becomes the first entry; negative: the last."""
    i = order.index(pick)
    if sign > 0:
        return order[i:] + order[:i]
    return order[i + 1:] + order[:i + 1]


def rebase(diag, mp):
    """Diagram rotated so each closed curve's list starts at the basepoint
    determined by the multipoint.  Idempotent for the same multipoint."""
    _check_multipoint(diag, mp)
    pick_of = {}
    for xid in mp.picks:
        x = diag.crossing(xid)
        pick_of[x.alpha] = x
        pick_of[x.beta] = x
    curves = []
    for c in diag.curves:
        if c.closed and c.id in pick_of:
            x = pick_of[c.id]
            curves.append(replace(
                c, order=_rotate_for_pick(c.order, x.id, x.sign)))
        else:
            curves.append(c)
    return diag.with_curves(curves)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def alpha_word(diag, alpha_id):
    """Read a based alpha curve: one letter (beta-dual)^sign per crossing."""
    c = diag.curve(alpha_id)
    if c.family != "alpha":
        raise UnknownCurveError(f"{alpha_id} is not an alpha curve")
    xs = [diag.crossing(xid) for xid in c.order]
    return FreeWord(tuple((x.beta, x.sign) for x in xs))


def beta_word(diag, beta_id):
    """Beta-side reading; the stored (alpha, beta) sign is negated."""
    c = diag.curve(beta_id)
    if c.family != "beta":
        raise UnknownCurveError(f"{beta_id} is not a beta curve")
    xs = [diag.crossing(xid) for xid in c.order]
    return FreeWord(tuple((x.alpha, -x.sign) for x in xs))


def epsilon_class(diag, mp_x, mp_y):
    """The change-of-basepoint word: for each closed alpha, the letters on
    the arc from the x-basepoint to the y-basepoint, concatenated in curve
    order.  Its abelianization is the difference of the two multipoints'
    relative classes."""
    _check_multipoint(diag, mp_x)
    _check_multipoint(diag, mp_y)
    pick_on = {}
    for mp, slot in ((mp_x, 0), (mp_y, 1)):
        for xid in mp.picks:
            x = diag.crossing(xid)
            pick_on.setdefault(x.alpha, [None, None])[slot] = x
    letters = []
    for c in diag.closed_alphas:
        px, py = pick_on[c.id]
        # first crossing at or after the basepoint of each pick
        start = c.order.index(px.id) + (0 if px.sign > 0 else 1)
        stop = c.order.index(py.id) + (0 if py.sign > 0 else 1)
        k = len(c.order)
        for t in range(start, start + (stop - start) % k):
            x = diag.crossing(c.order[t % k])
            letters.append((x.beta, x.sign))
    return FreeWord(tuple(letters))


# ---------------------------------------------------------------------------
# homology orientation
# ---------------------------------------------------------------------------

def intersection_matrix(diag):
    """d x d matrix of signed intersection numbers of closed curves."""
    alphas = diag.closed_alphas
    betas = diag.closed_betas
    apos = {c.id: i for i, c in enumerate(alphas)}
    bpos = {c.id: i for i, c in enumerate(betas)}
    mat = [[0] * len(betas) for _ in alphas]
    for x in diag.crossings:
        if x.alpha in apos and x.beta in bpos:
            mat[apos[x.alpha]][bpos[x.beta]] += x.sign
    return mat


def fraction_free_det(mat):
    """Fraction-free Gaussian elimination (Bareiss 1968) over any integral
    domain whose ``//`` is exact: every division is by the previous pivot.
    A zero (falsy) pivot row is swapped with a lower row, which it replaces
    negated; the empty determinant is 1.  The package runs it on integers:
    the closed intersection matrix here, and the Kronecker-packed Fox
    matrix in ``foxcalc.determinant``."""
    a = [list(row) for row in mat]
    n = len(a)
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return a[k][k]
            a[k], a[swap] = a[swap], [-x for x in a[k]]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                if k:
                    a[i][j] = a[i][j] // a[k - 1][k - 1]
    return a[-1][-1] if n else 1


def canonical_sign(diag):
    """Sign of det of the closed intersection matrix, or ``"ambiguous"``
    when the determinant vanishes and no canonical orientation exists."""
    det = fraction_free_det(intersection_matrix(diag))
    if det > 0:
        return 1
    if det < 0:
        return -1
    return "ambiguous"
