"""Assembly of the normalized invariants.

The relative spin-c structure is a reference multipoint plus an offset in
H_1 (differences of multipoints are change-of-basepoint words, so this
relative representation is complete for everything computed here).  Every
offset is anchored at one multipoint, the one :func:`anchor_multipoint`
returns.  The orientation input is a bare sign, with a canonical mode
available exactly when the closed intersection determinant does not vanish.

Two computation paths exist for the character-evaluated invariant: the
tensor engine contracts the diagram against the 2n-dimensional package, the
Fox engine evaluates the group-ring valued invariant at the character.  The
group-ring valued invariant and the torsion class always go through the Fox
engine, which is symbolic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import build_hn
from .cyclotomic import CyclotomicScalar
from .diagram import (canonical_sign, enumerate_multipoints,
                      epsilon_class, rebase)
from .errors import (AmbiguousOrientationError, InvalidCharacterError,
                     InvalidMultipointError, InvalidReferenceError,
                     NotDivisibleError)
from .foxcalc import (GroupRingElement, InvariantClass, canonical_class,
                      class_equal, divide_by_element_minus_one, evaluate,
                      fox_determinant, homology, smith_normal_form)
from .kuperberg import contract


@dataclass(frozen=True)
class SpincRelative:
    """Reference multipoint plus an H_1 offset (a single group element).

    The structure described is the offset-translate of the class attached
    to the diagram's anchor multipoint (:func:`anchor_multipoint`); the
    reference only says where to rebase for the computation, and the
    normalization absorbs the change-of-basepoint class between the two, so
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
    sorted-pick order, or None when the diagram has none."""
    mps = enumerate_multipoints(diag)
    return mps[0] if mps else None


def _rebased(diag, spinc):
    """The diagram rebased at the reference multipoint; ``rebase`` checks
    that the reference is a multipoint of the diagram."""
    try:
        return rebase(diag, spinc.reference)
    except InvalidMultipointError:
        raise InvalidReferenceError(
            f"{spinc.reference} is not a multipoint of the diagram") from None


def _anchored_offset(diag, group, spinc):
    """Offset coordinates relative to the anchor multipoint: the stored
    offset plus the change-of-basepoint class from the anchor to the
    reference."""
    coords = spinc.offset_coords(group)
    anchor = anchor_multipoint(diag)
    if anchor != spinc.reference:
        eps = group.project_word(epsilon_class(diag, anchor, spinc.reference))
        coords = group.normalize(tuple(a + b for a, b in zip(coords, eps)))
    return coords


def invariant_hn(diag, n, chars, spinc, orient=OrientationSign(),
                 engine="fox"):
    """The character-evaluated invariant delta * zeta * Z.  The Fox engine
    evaluates :func:`invariant_h0` at the character; the tensor engine
    contracts the diagram rebased at the reference multipoint."""
    if engine == "fox":
        if chars.h1 is None:
            raise InvalidCharacterError(
                "the fox engine needs a character of H_1 "
                "(use CharacterAssignment.from_character)")
        return evaluate(invariant_h0(diag, spinc, orient), chars.h1)
    if engine != "tensor":
        raise ValueError(f"unknown engine {engine!r}")
    group = homology(diag)
    z = contract(_rebased(diag, spinc), build_hn(n), chars)
    zeta = _zeta_factor(group, chars, _anchored_offset(diag, group, spinc))
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
    integral of H_n is odd, so delta is the orientation sign itself."""
    group = homology(diag)
    det = fox_determinant(_rebased(diag, spinc), group)
    delta = orient.resolve(diag)
    return det.translate(_anchored_offset(diag, group, spinc), delta)


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
