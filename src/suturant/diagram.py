"""Combinatorial model of ordered, oriented extended Heegaard diagrams.

A diagram is a list of curves (closed or arc, alpha or beta family), a set of
signed crossings, and one crossing order per curve.  Orientation is the list
direction; the basepoint of a closed curve is the list start, so rebasing is
a rotation and never a separate field.  Nothing here checks that the data
embeds in an actual surface: every computation downstream is a function of
the combinatorics alone.

The order rule (:func:`order_rule`): each id on a curve's order is a
crossing of that curve, and each crossing sits exactly once on its alpha's
order and once on its beta's.  :func:`validate` reports from it, and the
index both engines read (``ExtendedDiagram.ordered``) raises from it.  The
balanced rule (:func:`check_balanced`), as many closed betas as closed
alphas, and the ordering convention (:func:`closed_first`), closed curves
before arcs, are each stated once here too.  So is the tensor sweep's
schedule (:class:`Schedule`), the combinatorics of its slots, which the
diagram builds once per slot order and keeps beside its other indexes.

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

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate

from .errors import (BudgetExceededError, DuplicateIdError,
                     InvalidMultipointError, NonSquareError, ParseError,
                     UnknownCurveError, UnknownGeneratorError)
from .report import Report

# Most multipoints :func:`enumerate_multipoints` lists; past it the search
# stops with BudgetExceededError.  The tier-1 tests reach 31,874 and the
# benchmark's inputs 5,735.  Hopf slid and back to d = 5 has 31,934, to
# d = 6 1,287,552 (4.2 s to list) and to d = 7 73,383,098 (refused in
# about 0.8 s).  It has no override.
MAX_MULTIPOINTS = 1 << 18


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

    # -- lookups, built on first use; not fields, so == and hash skip them -

    @cached_property
    def curve_index(self):
        """id -> curve."""
        return {c.id: c for c in self.curves}

    @cached_property
    def crossing_index(self):
        """id -> crossing."""
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

    @cached_property
    def closed_alphas(self):
        return self.family("alpha", "closed")

    @cached_property
    def closed_betas(self):
        return self.family("beta", "closed")

    @property
    def d(self):
        return len(self.closed_alphas)

    @cached_property
    def row(self):
        """Closed alpha id -> its row, its place among the closed alphas."""
        return {c.id: i for i, c in enumerate(self.closed_alphas)}

    @cached_property
    def column(self):
        """Closed beta id -> its column, its place among the closed betas."""
        return {c.id: j for j, c in enumerate(self.closed_betas)}

    @cached_property
    def meets(self):
        """Per closed alpha, by row, its crossings with closed betas in id
        order, read from the crossings alone."""
        rows = [[] for _ in self.closed_alphas]
        for x in sorted(self.crossings, key=lambda x: x.id):
            if x.alpha in self.row and x.beta in self.column:
                rows[self.row[x.alpha]].append(x)
        return tuple(map(tuple, rows))

    @cached_property
    def ordered(self):
        """Curve id -> its crossings in its order.  A crossing naming no
        curve of a family raises UnknownGeneratorError; then the first
        breach of :func:`order_rule`, alphas first, UnknownCurveError."""
        for x in self.crossings:
            for fam in ("alpha", "beta"):
                c = self.curve_index.get(getattr(x, fam))
                if c is None or c.family != fam:
                    raise UnknownGeneratorError(getattr(x, fam))
        for fam in ("alpha", "beta"):
            breaches, _, missing = order_rule(self, fam)
            if breaches or missing:
                raise UnknownCurveError(breaches[0][1] if breaches else
                                        f"crossing {missing[0]} on no {fam}")
        return {c.id: tuple(map(self.crossing_index.get, c.order))
                for c in self.curves}

    @cached_property
    def place(self):
        """Crossing id -> [position on its alpha's order, on its beta's]."""
        place = {}
        for c in self.curves:
            for i, x in enumerate(self.ordered[c.id]):
                place.setdefault(x.id, [0, 0])[c.family == "beta"] = i
        return place

    def schedule(self, arrival):
        """The tensor sweep's :class:`Schedule` for one slot order, each
        slot at the next free position of its beta (``arrival``) or at its
        home position; built on first use per order and kept, like the
        indexes above.  Frame data in the sense of :attr:`memo`: the
        combinatorics of the sweep, never a value."""
        kept = self._schedules
        if arrival not in kept:
            kept[arrival] = _schedule(self, arrival)
        return kept[arrival]

    @cached_property
    def _schedules(self):
        return {}

    @cached_property
    def memo(self):
        """The diagram's frame, filled on first use by the code that reads
        it: H_1 (``foxcalc.homology``), each alpha's crossings' classes in
        H_1 (``foxcalc._classes``), the anchor multipoint and the anchor's
        class (``invariant``), each keyed by a private name of the module
        that writes it.  The indexes above (``ordered``, ``place`` and the
        sweep's :meth:`schedule`) are frame data too, kept beside it.
        Frame data only, never a value: the Fox matrix, its determinant and
        every contraction are computed on each call.
        Every entry is immutable and only a successful result is stored, so
        a diagram that breaks the order rule raises every time.  Not a
        field: a ``replace``, ``with_curves``, move or ``rebase`` copy
        starts with an empty memo and no schedule, and == and hash skip
        them."""
        return {}

    def beta_generators(self):
        """Dual generators of pi_1: every beta curve, closed first."""
        return tuple(c.id for c in self.family("beta"))

    def with_curves(self, curves):
        return replace(self, curves=tuple(curves))


@dataclass(frozen=True)
class Schedule:
    """The combinatorics of one tensor sweep (``kuperberg.contract_values``)
    over a diagram, in one slot order: ``betas``, the beta curves in family
    order; ``at``, beta b's runs being digits at[b] to at[b + 1] - 1 of a
    state's runs, one digit per beta in arrival order and (k + 1) // 2 for
    a beta of k crossings in home order; and ``alphas``, per alpha curve in
    family order, (curve, steps) with one step per crossing in the alpha's
    order: (sign, b, lo, r, hi, last, closes), b the position of its beta
    in ``betas``, (lo, r, hi) where its slot joins the beta's runs
    (:func:`_join`), ``last`` whether it is the alpha's last crossing and
    ``closes`` the ``closed`` flag of the beta it completes, None if it
    completes none."""

    betas: tuple
    at: tuple
    alphas: tuple


def _join(spans, j):
    """Place position j on a beta whose filled positions form the runs
    ``spans``, (first, last) pairs in order, and return (lo, r, hi): the
    runs before j are spans[:r], and the slot joins spans[lo:hi], which
    become one run in ``spans``.  One bisection, so no scan of the beta."""
    r = bisect_left(spans, (j,))
    lo = r - (r > 0 and spans[r - 1][1] == j - 1)
    hi = r + (r < len(spans) and spans[r][0] == j + 1)
    spans[lo:hi] = [(spans[lo][0] if lo < r else j,
                     spans[hi - 1][1] if hi > r else j)]
    return lo, r, hi


def _schedule(diag, arrival):
    """The :class:`Schedule` of :meth:`ExtendedDiagram.schedule`: the sweep
    replayed once, each slot placed by :func:`_join`."""
    ordered, place = diag.ordered, diag.place
    betas = diag.family("beta")
    pos = {c.id: b for b, c in enumerate(betas)}
    at = tuple(accumulate((1 if arrival else (len(c.order) + 1) // 2
                           for c in betas), initial=0))
    filled, spans, alphas = [0] * len(betas), [[] for _ in betas], []
    for c in diag.family("alpha"):
        steps = []
        for t, x in enumerate(ordered[c.id]):
            b = pos[x.beta]
            j = filled[b] if arrival else place[x.id][1]
            filled[b] += 1
            done = filled[b] == len(betas[b].order)
            steps.append((x.sign, b, *_join(spans[b], j),
                          t == len(c.order) - 1,
                          betas[b].closed if done else None))
        alphas.append((c, tuple(steps)))
    return Schedule(betas, at, tuple(alphas))


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

def order_rule(diag, fam):
    """The order rule on one family: each id on a curve's order is a
    crossing of that curve, listed once there, and each crossing is listed
    on its own curve's order.  Returns the breaches in reading order, each
    a (witness, error message) pair, then the crossings listed more than
    once and those never listed."""
    index = diag.crossing_index
    breaches, counts = [], dict.fromkeys(index, 0)
    for c in diag.family(fam):
        seen = set()
        for xid in c.order:
            if xid not in index:
                breaches.append((f"{xid} on {c.id}", f"crossing {xid}"))
                continue
            for broken, what in ((getattr(index[xid], fam) != c.id, "not on"),
                                 (xid in seen, "repeated on")):
                if broken:
                    breaches.append((f"{xid} {what} {c.id}",
                                     f"crossing {xid} {what} {c.id}"))
            seen.add(xid)
            counts[xid] += 1
    return (breaches, [xid for xid, n in counts.items() if n > 1],
            [xid for xid, n in counts.items() if not n])


def check_balanced(diag):
    """The balanced rule: a diagram with more closed alphas than closed
    betas, or fewer, has no multipoint and a Fox matrix that is not
    square, and raises NonSquareError.  Both engines refuse it at their
    entry points, and :func:`validate` reports it."""
    if diag.d != len(diag.closed_betas):
        raise NonSquareError(f"{diag.d} closed alpha vs "
                             f"{len(diag.closed_betas)} closed beta")


def closed_first(curves):
    """The ordering convention: alphas before betas, closed curves before
    arcs, otherwise in the given order.  :func:`validate` checks it per
    family, and the moves that add curves list them by it."""
    return tuple(sorted(curves, key=lambda c: (c.family != "alpha",
                                               not c.closed)))


def validate(diag):
    rep = Report()

    ok, wit = True, ""
    try:
        check_balanced(diag)
    except NonSquareError as e:
        ok, wit = False, str(e)
    rep.add("Balanced", ok, wit)

    for fam in ("alpha", "beta"):
        curves = diag.family(fam)
        rep.add(f"OrderingConvention[{fam}]", curves == closed_first(curves),
                "closed curves must precede arcs")

    for fam in ("alpha", "beta"):
        breaches, dbl, missing = order_rule(diag, fam)
        rep.add(f"Membership[{fam}]", not breaches,
                breaches[-1][0] if breaches else "")
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
    if not isinstance(mp, Multipoint):
        raise InvalidMultipointError(f"{mp!r} is not a Multipoint")
    if len(mp.picks) != diag.d:
        raise InvalidMultipointError(
            f"{len(mp.picks)} picks for {diag.d} closed alpha curves")
    seen_a, seen_b = set(), set()
    for xid in mp.picks:
        x = diag.crossing_index.get(xid)
        if x is None:
            raise InvalidMultipointError(f"unknown crossing {xid}")
        if x.alpha not in diag.row or x.beta not in diag.column:
            raise InvalidMultipointError(f"{xid} not on closed curves")
        if x.alpha in seen_a or x.beta in seen_b:
            raise InvalidMultipointError(f"{xid} reuses a curve")
        seen_a.add(x.alpha)
        seen_b.add(x.beta)


def multipoint_permutation(diag, mp):
    """The induced map: closed-alpha position -> closed-beta position."""
    sigma = [None] * diag.d
    for xid in mp.picks:
        x = diag.crossing(xid)
        sigma[diag.row[x.alpha]] = diag.column[x.beta]
    return tuple(sigma)


def enumerate_multipoints(diag):
    """All perfect matchings of closed alphas to closed betas through
    shared crossings, in lexicographic order on the sorted pick ids.  A
    crossing lies on one alpha, so the leaves of the search are distinct.
    It keeps its own stack, so no depth reaches the recursion limit, and
    it stops past ``MAX_MULTIPOINTS`` leaves."""
    meets = diag.meets
    found, todo = [], [(0, set(), [])]
    while todo:
        i, used_beta, picks = todo.pop()
        if i == len(meets):
            if len(found) == MAX_MULTIPOINTS:
                raise BudgetExceededError(
                    f"more than {MAX_MULTIPOINTS} multipoints")
            found.append(Multipoint(tuple(sorted(picks))))
            continue
        todo.extend((i + 1, used_beta | {x.beta}, picks + [x.id])
                    for x in meets[i] if x.beta not in used_beta)
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

def _starts(diag, mp):
    """Closed curve id -> the position its basepoint moves to for the
    multipoint: just before a positive pick, just after a negative one."""
    _check_multipoint(diag, mp)
    start = {}
    for xid in mp.picks:
        x = diag.crossing(xid)
        for cid, at in zip((x.alpha, x.beta), diag.place[xid]):
            start[cid] = at + (x.sign < 0)
    return start


def rebase(diag, mp):
    """Diagram rotated so each closed curve's list starts at the basepoint
    determined by the multipoint.  Idempotent for the same multipoint."""
    start = _starts(diag, mp)
    return diag.with_curves(
        replace(c, order=c.order[start[c.id]:] + c.order[:start[c.id]])
        if c.id in start else c for c in diag.curves)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def alpha_word(diag, alpha_id):
    """Read a based alpha curve: one letter (beta-dual)^sign per crossing."""
    if diag.curve(alpha_id).family != "alpha":
        raise UnknownCurveError(f"{alpha_id} is not an alpha curve")
    return FreeWord(tuple((x.beta, x.sign) for x in diag.ordered[alpha_id]))


def beta_word(diag, beta_id):
    """Beta-side reading; the stored (alpha, beta) sign is negated."""
    if diag.curve(beta_id).family != "beta":
        raise UnknownCurveError(f"{beta_id} is not a beta curve")
    return FreeWord(tuple((x.alpha, -x.sign) for x in diag.ordered[beta_id]))


def epsilon_class(diag, mp_x, mp_y):
    """The change-of-basepoint word: for each closed alpha, the letters on
    the arc from the x-basepoint to the y-basepoint, concatenated in curve
    order.  Its abelianization is the difference of the two multipoints'
    relative classes."""
    lo, hi = _starts(diag, mp_x), _starts(diag, mp_y)
    letters = []
    for c in diag.closed_alphas:
        xs, k = diag.ordered[c.id], lo[c.id]
        letters += ((x.beta, x.sign)
                    for x in (xs * 2)[k:k + (hi[c.id] - k) % len(xs)])
    return FreeWord(tuple(letters))


# ---------------------------------------------------------------------------
# homology orientation
# ---------------------------------------------------------------------------

def intersection_matrix(diag):
    """d x d matrix of signed intersection numbers of closed curves."""
    mat = [[0] * len(diag.closed_betas) for _ in diag.closed_alphas]
    for row, meets in zip(mat, diag.meets):
        for x in meets:
            row[diag.column[x.beta]] += x.sign
    return mat


def fraction_free_det(mat):
    """Fraction-free Gaussian elimination (Bareiss 1968) over any integral
    domain whose ``//`` is exact: every division is by the previous pivot.
    A zero (falsy) pivot row is swapped with a lower row, which it replaces
    negated; the empty determinant is 1.  The package runs it on integers:
    the closed intersection matrix here, and what unit pivots leave of a
    determinant over Z[H_1], Kronecker-packed, in ``foxcalc._packed_det``."""
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
