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

Two computation paths exist for the character-evaluated invariant: the
tensor engine contracts the diagram against the 2n-dimensional package, the
Fox engine evaluates the group-ring valued invariant at the character.  The
group-ring valued invariant and the torsion class always go through the Fox
engine, which is symbolic by construction; both take the determinant at
the diagram's own basepoints.  Only the tensor engine rebases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import build_hn
from .cyclotomic import CyclotomicScalar
from .diagram import Multipoint, _check_multipoint, canonical_sign, rebase
# Not called here: kept as module attributes because the benchmark tracer
# (perfbench/tracing.py) wraps suturant.invariant.enumerate_multipoints and
# suturant.invariant.epsilon_class.
from .diagram import enumerate_multipoints, epsilon_class  # noqa: F401
from .errors import (AmbiguousOrientationError, InvalidCharacterError,
                     InvalidMultipointError, InvalidReferenceError,
                     NotDivisibleError)
from .foxcalc import (GroupRingElement, InvariantClass, canonical_class,
                      class_equal, crossing_classes,
                      divide_by_element_minus_one, evaluate, fox_determinant,
                      homology, smith_normal_form)
from .kuperberg import contract


@dataclass(frozen=True)
class SpincRelative:
    """Reference multipoint plus an H_1 offset (a single group element).

    The structure described is the offset-translate of the class attached
    to the diagram's anchor multipoint (:func:`anchor_multipoint`).  The
    Fox engine only checks that the reference is a multipoint; the tensor
    engine rebases there and absorbs the class difference to the anchor, so
    the computed value does not depend on it.
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


def _check_reference(diag, spinc):
    try:
        _check_multipoint(diag, spinc.reference)
    except InvalidMultipointError:
        raise InvalidReferenceError(
            f"{spinc.reference} is not a multipoint of the diagram") from None


def _spinc_shift(diag, group, spinc, based_at=Multipoint(())):
    """Coordinates of h: the stored offset minus the class of the anchor
    multipoint plus the class of ``based_at``, the multipoint whose
    basepoints the computed value is read at (none: the diagram's own)."""
    classes = crossing_classes(diag, group)
    coords = spinc.offset_coords(group)
    for sign, mp in ((-1, anchor_multipoint(diag)), (1, based_at)):
        for xid in mp.picks:
            coords = tuple(a + sign * b for a, b in zip(coords, classes[xid]))
    return group.normalize(coords)


def invariant_hn(diag, n, chars, spinc, orient=OrientationSign(),
                 engine="fox"):
    """The character-evaluated invariant delta * zeta * Z.  The Fox engine
    evaluates :func:`invariant_h0` at the character; the tensor engine
    contracts the diagram rebased at the reference multipoint, so its zeta
    shift adds the reference's class."""
    if engine == "fox":
        if chars.h1 is None:
            raise InvalidCharacterError(
                "the fox engine needs a character of H_1 "
                "(use CharacterAssignment.from_character)")
        return evaluate(invariant_h0(diag, spinc, orient), chars.h1)
    if engine != "tensor":
        raise ValueError(f"unknown engine {engine!r}")
    group = homology(diag)
    _check_reference(diag, spinc)
    z = contract(rebase(diag, spinc.reference), build_hn(n), chars)
    zeta = _zeta_factor(group, chars,
                        _spinc_shift(diag, group, spinc, spinc.reference))
    return orient.resolve(diag) * (zeta * z)


def _zeta_factor(group, chars, coords):
    if chars.h1 is not None:
        e = chars.h1.exponent(coords)
    else:
        # lift through the section and read the beta-level exponents
        exps = group.lift(coords)
        e = sum(x * chars.psi_exponent(g)
                for g, x in zip(group.gens, exps)) % chars.order
    return CyclotomicScalar.root_power(e, chars.order)


def invariant_h0(diag, spinc, orient=OrientationSign()):
    """The group-ring valued invariant delta * h * det over Z[H_1].  The
    integral of H_n is odd, so delta is the orientation sign itself.  The
    determinant is the unrebased one :func:`torsion_class` takes, so h is
    the offset minus the anchor's class; the reference is only checked."""
    group = homology(diag)
    _check_reference(diag, spinc)
    det = fox_determinant(diag, group)
    delta = orient.resolve(diag)
    return det.translate(_spinc_shift(diag, group, spinc), delta)


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
    "invariant_h0", "torsion_class", "alexander_from_torsion", "class_equal",
    "canonical_class", "InvariantClass",
]
