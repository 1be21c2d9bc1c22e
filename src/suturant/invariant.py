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
unit delta * t^h with h the offset minus the anchor's class, computed once
per list: rotating a basepoint changes the contraction and the Fox
determinant by the same unit, so neither engine rebases at the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from .algebra import build_hn
from .diagram import Multipoint, _check_multipoint, canonical_sign
# Not called here: kept as module attributes because the benchmark tracer
# (perfbench/tracing.py) wraps suturant.invariant.enumerate_multipoints,
# suturant.invariant.epsilon_class and suturant.invariant.rebase.
from .diagram import enumerate_multipoints, epsilon_class, rebase  # noqa: F401
from .errors import (AmbiguousOrientationError, InvalidCharacterError,
                     InvalidMultipointError, InvalidReferenceError,
                     NotDivisibleError)
from .foxcalc import (GroupRingElement, InvariantClass, canonical_class,
                      class_equal, crossing_classes,
                      divide_by_element_minus_one, evaluate, fox_determinant,
                      homology, smith_normal_form)
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
        if self.offset is None:
            return group.identity()
        terms = self.offset.sorted_terms()
        if len(terms) != 1 or terms[0][1] != 1:
            raise InvalidReferenceError(
                "offset must be a single group element with coefficient 1")
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
    None when the diagram has none.

    A greedy lexicographic matching: the crossings between closed alphas
    and closed betas are taken in sorted id order, and one is accepted when
    its alpha and beta are unused and the closed alphas left over can still
    be matched to distinct unused closed betas.  A skipped crossing lies in
    no multipoint that contains the picks accepted before it.  So the
    multipoints containing the first k picks have no other pick below the
    k-th, and the next accepted crossing is the least further pick among
    them.  Each test is Kuhn's augmenting-path matching, O(d * E) for E
    such crossings."""
    alphas = [c.id for c in diag.closed_alphas]
    betas = {c.id for c in diag.closed_betas}
    options = {a: [] for a in alphas}
    edges = sorted((x for x in diag.crossings
                    if x.alpha in options and x.beta in betas),
                   key=lambda x: x.id)
    for x in edges:
        options[x.alpha].append(x.beta)
    picks, used_a, used_b = [], set(), set()
    for x in edges:
        if x.alpha in used_a or x.beta in used_b:
            continue
        rest = [a for a in alphas if a not in used_a and a != x.alpha]
        if _matchable(rest, options, used_b | {x.beta}):
            picks.append(x.id)
            used_a.add(x.alpha)
            used_b.add(x.beta)
    return Multipoint(tuple(picks)) if len(picks) == len(alphas) else None


def _matchable(alphas, options, taken):
    """Whether the alphas can be matched to distinct betas outside
    ``taken``, ``options[a]`` listing the betas alpha ``a`` crosses: one
    augmenting-path search per alpha (Kuhn)."""
    owner = {}                  # beta -> alpha matched to it

    def augment(a, seen):
        for b in options[a]:
            if b not in taken and b not in seen:
                seen.add(b)
                if b not in owner or augment(owner[b], seen):
                    owner[b] = a
                    return True
        return False

    return all(augment(a, set()) for a in alphas)


def _normalization(diag, spinc, orient):
    """Check the reference and return the group, the diagram's
    :func:`crossing_classes` and the unit delta * t^h that normalizes a
    value read at the diagram's own basepoints: h is the offset minus the
    anchor's classes, delta the resolved orientation sign."""
    group = homology(diag)
    try:
        _check_multipoint(diag, spinc.reference)
    except InvalidMultipointError:
        raise InvalidReferenceError(
            f"{spinc.reference} is not a multipoint of the diagram") from None
    classes = crossing_classes(diag, group)
    coords = spinc.offset_coords(group)
    for xid in anchor_multipoint(diag).picks:
        coords = tuple(map(sub, coords, classes[xid]))
    unit = GroupRingElement.monomial(group, coords, orient.resolve(diag))
    return group, classes, unit


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
    assignment must carry the character of H_1 it was built from.  The
    normalization is checked and computed once, before any character; then
    each character's group is checked by evaluating, and a character
    outside :func:`kuperberg.check_admissible` is refused, all before the
    sweep.  The first character that fails raises what
    :func:`invariant_hn` raises for it alone."""
    if any(chars.h1 is None for chars in assignments):
        raise InvalidCharacterError(
            "the invariant needs a character of H_1 "
            "(use CharacterAssignment.from_character)")
    if engine == "fox":
        base = invariant_h0(diag, spinc, orient)
    elif engine == "tensor":
        base = _normalization(diag, spinc, orient)[2]
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
    group, classes, unit = _normalization(diag, spinc, orient)
    return fox_determinant(diag, group, classes) * unit


def torsion_class(diag):
    """The class of the group-ring invariant up to +-(group element); it is
    independent of the reference, offset and orientation, so no basepoint
    is chosen: rotating a closed alpha curve conjugates its relator, which
    multiplies its Fox row by a group element.  A diagram with closed
    curves but no multipoint has vanishing determinant and the class is
    zero."""
    return canonical_class(fox_determinant(diag, homology(diag)))


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
