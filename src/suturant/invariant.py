"""Assembly of the normalized invariants.

The relative spin-c structure is a reference multipoint plus an offset in
H_1 (differences of multipoints are change-of-basepoint words, so this
relative representation is complete for everything computed here).  The
class of a multipoint is the sum of its picks' crossing classes; a closed
alpha word is a relator in H_1, so differences of these classes do not
depend on the basepoints.  Every offset is anchored at one multipoint, the
one :func:`anchor_multipoint` returns: the least multipoint in sorted-pick
order.  It is built one pick at a time, each candidate pick tested by
bipartite matching with augmenting paths, in polynomial time and without
listing the multipoints, whose number grows like the permanent of the
crossing-count matrix.  The orientation input is a bare sign, with a
canonical mode available exactly when the closed intersection determinant
does not vanish.

Two computation paths exist for the character-evaluated invariant, and
:func:`invariant_hn_values` is the one entry to both: given a list of
characters, the tensor engine contracts the diagram against the
2n-dimensional package in one sweep that carries every character, the Fox
engine evaluates the group-ring valued invariant, computed once, at each
character.  The group-ring valued invariant and the torsion class always go
through the Fox engine, which is symbolic by construction.  Both engines
read the diagram at its own basepoints and share one normalization, the
unit delta * t^h with h the offset minus the anchor's class: rotating a
basepoint changes the contraction and the Fox determinant by the same unit,
so neither engine rebases at the reference.  H_1, the crossings' classes,
the anchor and the anchor's class depend on the diagram alone and are kept
in its memo (``ExtendedDiagram.memo``), so each is computed once per
diagram; the checks of the normalization, the Fox matrix, its determinant
and every contraction run on every call.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from operator import sub

from .algebra import build_hn
from .diagram import (Multipoint, _check_multipoint, canonical_sign,
                      check_balanced)
# Not called here: kept as module attributes because the benchmark tracer
# (perfbench/tracing.py) wraps suturant.invariant.enumerate_multipoints,
# suturant.invariant.epsilon_class and suturant.invariant.rebase.
from .diagram import enumerate_multipoints, epsilon_class, rebase  # noqa: F401
from .errors import (AmbiguousOrientationError, CharacterMismatchError,
                     GroupMismatchError, InvalidCharacterError,
                     InvalidMultipointError, InvalidReferenceError,
                     NotDivisibleError)
from .foxcalc import (GroupRingElement, InvariantClass, canonical_class,
                      class_equal, divide_by_element_minus_one, evaluate,
                      fox_determinant, homology, multipoint_class,
                      smith_normal_form)
from .kuperberg import check_admissible, contract_values
# Not called here: kept as a module attribute because the benchmark tracer
# (perfbench/tracing.py) wraps suturant.invariant.contract.
from .kuperberg import contract  # noqa: F401


@dataclass(frozen=True)
class SpincRelative:
    """Reference multipoint plus an H_1 offset (a single group element).

    The structure described is the offset-translate of the class attached
    to the diagram's anchor multipoint (:func:`anchor_multipoint`).  Both
    engines only check that the reference is a multipoint and read the
    diagram at its own basepoints, so the computed value does not depend
    on it.
    """

    reference: object           # Multipoint
    offset: GroupRingElement | None = None

    def offset_coords(self, group):
        """The offset's coordinates in ``group``, the diagram's H_1, which
        it must share by the one group rule (``AbelianGroup.check_same``);
        any other offset is no reference, InvalidReferenceError."""
        if self.offset is None:
            return group.identity()
        terms = ()
        if isinstance(self.offset, GroupRingElement):
            with suppress(GroupMismatchError):
                group.check_same(self.offset.group, "")
                terms = self.offset.sorted_terms()
        if len(terms) != 1 or terms[0][1] != 1:
            raise InvalidReferenceError(
                "offset must be a single group element of the diagram's "
                "H_1 with coefficient 1")
        return terms[0][0]


@dataclass(frozen=True)
class OrientationSign:
    value: object = 1           # +1 | -1 | "canonical"

    def resolve(self, diag):
        if self.value in (1, -1):
            return self.value
        if self.value == "canonical":
            s = canonical_sign(diag)
            if s == "ambiguous":
                raise AmbiguousOrientationError(
                    "det(alpha_i . beta_j) = 0: no canonical orientation")
            return s
        raise ValueError(f"bad orientation {self.value!r}")


def anchor_multipoint(diag):
    """The multipoint every spin-c offset is anchored at: the least one in
    sorted-pick order (the first one ``enumerate_multipoints`` lists), or
    None when the diagram has none.  Searched once per diagram
    (:func:`_anchor`) and kept in its memo, None included."""
    if _anchor not in diag.memo:
        diag.memo[_anchor] = _anchor(diag)
    return diag.memo[_anchor]


def _anchor(diag):
    """The search of :func:`anchor_multipoint`, a greedy lexicographic
    matching: the crossings between closed alphas and closed betas
    (``meets``) are taken in sorted id order, and one is accepted when its
    alpha and beta are unused and the closed alphas left over can still be
    matched to distinct unused closed betas.  A skipped crossing lies in no
    multipoint that contains the picks accepted before it.  So the
    multipoints containing the first k picks have no other pick below the
    k-th, and the next accepted crossing is the least further pick among
    them.  Each test is Kuhn's augmenting-path matching, O(d * E) for E
    such crossings."""
    meets = diag.meets
    picks, used_a, used_b = [], set(), set()
    for x in sorted((x for row in meets for x in row), key=lambda x: x.id):
        if x.alpha in used_a or x.beta in used_b:
            continue
        rest = [row for a, row in zip(diag.closed_alphas, meets)
                if a.id not in used_a and a.id != x.alpha]
        if _matchable(rest, used_b | {x.beta}):
            picks.append(x.id)
            used_a.add(x.alpha)
            used_b.add(x.beta)
    return Multipoint(tuple(picks)) if len(picks) == diag.d else None


def _matchable(rows, taken):
    """Whether ``rows``, closed alphas' crossings with closed betas, match
    distinct betas outside ``taken``: one augmenting path per row (Kuhn),
    each found breadth first, so no search recurses."""
    owner = {}                  # beta -> row matched to it

    def augment(start):
        # beta -> (the row that reached it, the beta that row holds)
        came, todo = {}, [(start, None)]
        for row, held in todo:  # grows as matched rows are reached
            for x in row:
                b = x.beta
                if b in taken or b in came:
                    continue
                came[b] = row, held
                if b in owner:
                    todo.append((owner[b], b))
                    continue
                while b is not None:    # shift the path back to start
                    owner[b], b = came[b]
                return True
        return False

    return all(augment(row) for row in rows)


def _anchor_class(diag, group):
    """The anchor's class in the diagram's H_1 ``group``
    (:func:`foxcalc.multipoint_class`), computed once per diagram and kept
    in its memo."""
    if _anchor_class not in diag.memo:
        diag.memo[_anchor_class] = multipoint_class(
            diag, group, anchor_multipoint(diag).picks)
    return diag.memo[_anchor_class]


def _normalization(diag, spinc, orient):
    """Check the diagram (:func:`check_balanced`; the order rule, in
    :func:`foxcalc.homology`) and the reference, and return the group and
    the unit delta * t^h that normalizes a value read at the diagram's own
    basepoints: h is the offset minus the anchor's class
    (:func:`_anchor_class`), delta the orientation sign."""
    check_balanced(diag)
    group = homology(diag)
    try:
        _check_multipoint(diag, spinc.reference)
    except InvalidMultipointError:
        raise InvalidReferenceError(
            f"{spinc.reference} is not a multipoint of the diagram") from None
    h = map(sub, spinc.offset_coords(group), _anchor_class(diag, group))
    return group, GroupRingElement.monomial(group, tuple(h),
                                            orient.resolve(diag))


def invariant_hn(diag, n, chars, spinc, orient=OrientationSign(),
                 engine="fox"):
    """The character-evaluated invariant delta * zeta * Z at one character:
    the one-element case of :func:`invariant_hn_values`."""
    return invariant_hn_values(diag, n, [chars], spinc, orient, engine)[0]


def invariant_hn_values(diag, n, assignments, spinc,
                        orient=OrientationSign(), engine="fox"):
    """The character-evaluated invariant delta * zeta * Z at each of
    ``assignments``, in their order; zeta is the character's value at h.
    The Fox engine evaluates :func:`invariant_h0` at each character; the
    tensor engine contracts the diagram with H_n at its own basepoints, in
    one sweep for the whole list (:func:`kuperberg.contract_values`), and
    multiplies each value by the same evaluated unit delta * t^h.  Every
    assignment must carry the character of H_1 it was built from, and
    agree with it: the Fox engine reads the character, the sweep the
    assignment's order and beta exponents, so an assignment whose order or
    any beta's exponent differs from
    :meth:`CharacterAssignment.from_character` of it is refused before
    either engine runs.  The normalization is checked and computed once,
    before any character; then each character's group is checked by
    evaluating, and a character outside :func:`kuperberg.check_admissible`
    is refused, all before the sweep.  The first character that fails
    raises what :func:`invariant_hn` raises for it alone.  An n below 1
    is refused first."""
    if n < 1:
        raise CharacterMismatchError(f"n = {n} is below 1")
    for chars in assignments:
        chi, psi, order = chars.h1, chars.psi, chars.order
        if chi is None:
            raise InvalidCharacterError(
                "the invariant needs a character of H_1 "
                "(use CharacterAssignment.from_character)")
        # from_character's exponents, compared beta by beta only when the
        # dicts differ, as they do not for an assignment built by it
        induced = chi.on_generators()
        if order != chi.order or psi != induced and any(
                (psi.get(g, 0) - e) % order for g, e in induced.items()):
            raise InvalidCharacterError(
                "the assignment's order or beta exponents differ from "
                "those of its character of H_1")
    if engine == "fox":
        base = invariant_h0(diag, spinc, orient)
    elif engine == "tensor":
        base = _normalization(diag, spinc, orient)[1]
    else:
        raise ValueError(f"unknown engine {engine!r}")
    values = []
    for chars in assignments:
        values.append(evaluate(base, chars.h1))
        check_admissible(diag, n, chars)
    if engine == "tensor":
        values = [unit * z for unit, z in zip(
            values, contract_values(diag, build_hn(n), assignments))]
    return values


def invariant_h0(diag, spinc, orient=OrientationSign()):
    """The group-ring valued invariant delta * t^h * det over Z[H_1].  The
    integral of H_n is odd, so delta is the orientation sign itself.  The
    determinant is the one :func:`torsion_class` takes, at the diagram's
    own basepoints, so h is the offset minus the anchor's class; the
    reference is only checked."""
    group, unit = _normalization(diag, spinc, orient)
    return fox_determinant(diag, group) * unit


def torsion_class(diag):
    """The class of the group-ring invariant up to +-(group element); it is
    independent of the reference, offset and orientation, so no basepoint
    is chosen: rotating a closed alpha curve conjugates its relator, which
    multiplies its Fox row by a group element.  A diagram with closed
    curves but no multipoint has vanishing determinant and the class is
    zero; an unbalanced one is refused first, by
    :func:`foxcalc.fox_determinant`, as by the invariants."""
    return canonical_class(fox_determinant(diag))


def alexander_from_torsion(cls_, meridians):
    """Divide the torsion class by prod (t_i - 1) over the meridians when
    there are several; the single-meridian class is the invariant itself.
    The group must be free abelian and the meridians independent in it."""
    rep = cls_.representative
    group = rep.group
    if len(meridians) <= 1:
        return cls_
    if group.torsion:
        raise NotDivisibleError("homology has torsion; not a link exterior")
    coords = []
    for m in meridians:
        terms = m.sorted_terms() if isinstance(m, GroupRingElement) else None
        if terms is None or len(terms) != 1 or terms[0][1] != 1:
            raise NotDivisibleError("meridians must be single group elements")
        group.check_same(m.group, "a meridian is not in the class's H_1")
        coords.append(terms[0][0])
    factors, _, _ = smith_normal_form([list(c) for c in coords],
                                      group.ncoords)
    if len(factors) != len(coords):
        raise NotDivisibleError("meridians are not independent in H_1")
    out = rep
    for c in coords:
        out = divide_by_element_minus_one(out, c)
    return canonical_class(out)


__all__ = [
    "SpincRelative", "OrientationSign", "anchor_multipoint", "invariant_hn",
    "invariant_hn_values", "invariant_h0", "torsion_class",
    "alexander_from_torsion", "class_equal", "canonical_class",
    "InvariantClass",
]
