"""The super-tensor-network engine.

Contraction of a based diagram against a Hopf package proceeds term by term
over the monomials of the iterated coproducts: every alpha curve expands its
(co)integral seed into homogeneous basis monomials, one per crossing slot;
negative crossings apply the antipode; the slots are rerouted from alpha
order to beta order at the cost of the Koszul sign (inversion parity among
the odd slots); every beta curve multiplies its inputs left to right, maps
them into B by the integral (closed) or the projection (arc), and evaluates
its character there.  Everything is exact: scalars live in Z[x]/Phi_N and
the single rational cointegral prefactor is applied once at the end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .algebra import apply
from .cyclotomic import CyclotomicScalar
from .diagram import beta_word, perm_sign
from .errors import (ArcCurveError, CharacterMismatchError, OddScalarError)
from .foxcalc import Character


@dataclass(frozen=True)
class CharacterAssignment:
    """Character data for a contraction: one exponent mod N per beta curve
    (the value of psi(beta*) on the distinguished group-like b), an optional
    A-group-like per alpha curve (the identity when A is trivial), and,
    when constructed from an H_1 character, the character itself for the
    zeta-normalization bookkeeping."""

    order: int
    psi: dict                    # beta id -> exponent mod order
    phi: dict = field(default_factory=dict)   # alpha id -> A-basis position
    h1: Character | None = None

    @classmethod
    def trivial(cls, order=1):
        return cls(order=order, psi={})

    @classmethod
    def from_character(cls, chi):
        """Induce beta-level exponents from a character of H_1."""
        psi = {g: chi.on_generator(g) for g in chi.group.gens}
        return cls(order=chi.order, psi=psi, h1=chi)

    def psi_exponent(self, beta_id):
        return self.psi.get(beta_id, 0) % self.order


def _check_assignment(diag, pkg, chars):
    nb = pkg.integral.glike_b_order
    for c in diag.family("beta"):
        e = chars.psi_exponent(c.id)
        if (e * nb) % chars.order != 0:
            raise CharacterMismatchError(
                f"psi({c.id}) = zeta^{e} is not an order-{nb} root of "
                f"unity in Z/{chars.order}")
    na = len(pkg.cointegral.a_basis)
    for c in diag.family("alpha"):
        p = chars.phi.get(c.id, None)
        if p is not None and not (0 <= p < na):
            raise CharacterMismatchError(
                f"phi({c.id}) = {p} is not an A-basis position")


def _alpha_seed(pkg, curve, chars):
    """The element fed into the iterated coproduct of an alpha curve."""
    coint = pkg.cointegral
    pos = chars.phi.get(curve.id)
    if pos is None:
        pos = pkg.unit_a
    table = coint.iota if curve.closed else coint.i_a
    return apply(table, {pos: 1})


def _expand_alpha(pkg, curve, chars):
    """All (coefficient, slot basis tuple) terms for one alpha curve."""
    from .algebra import coproduct_power
    seed = _alpha_seed(pkg, curve, chars)
    return coproduct_power(pkg, seed, len(curve.order))


def _char_value_on_b(pkg, chars, beta_id, b_elem):
    """Evaluate psi(beta*) on an element of B (given in B coordinates)."""
    integ = pkg.integral
    e = chars.psi_exponent(beta_id)
    out = CyclotomicScalar.zero(chars.order)
    for pos, coeff in b_elem.items():
        t = integ.b_dlog[pos]
        out = out + coeff * CyclotomicScalar.root_power(
            e * t, chars.order)
    return out


def contract(based, pkg, chars):
    """The unnormalized scalar of a based, ordered, oriented diagram."""
    _check_assignment(based, pkg, chars)
    alg = pkg.algebra
    integ, coint = pkg.integral, pkg.cointegral

    alphas = based.family("alpha")
    betas = based.family("beta")
    alpha_slots = [xid for c in alphas for xid in c.order]
    slot_pos = {xid: i for i, xid in enumerate(alpha_slots)}
    negative = [based.crossing(xid).sign < 0 for xid in alpha_slots]

    expansions = [_expand_alpha(pkg, c, chars) for c in alphas]
    n_closed_alpha = sum(1 for c in alphas if c.closed)
    prefactor = coint.iota_prefactor ** n_closed_alpha

    # beta traversal: for each beta curve, its slots in multiplication order
    beta_plan = [(c, [slot_pos[xid] for xid in c.order]) for c in betas]
    functional_parity = sum(
        integ.mu_parity for c in betas if c.closed) % 2

    total = CyclotomicScalar.zero(chars.order)
    for combo in itertools.product(*expansions):
        coeff = 1
        assignment = []
        for c, (term_coeff, monomial) in zip(alphas, combo):
            coeff *= term_coeff
            assignment.extend(monomial)
        if coeff == 0:
            continue
        # antipodes at negative crossings; S may spread a basis element
        slot_options = []
        for neg, idx in zip(negative, assignment):
            if neg:
                slot_options.append(list(alg.antipode_sc.get(idx, {}).items()))
            else:
                slot_options.append([(idx, 1)])
        for picked in itertools.product(*slot_options):
            c2 = coeff
            slots = []
            for idx, s_coeff in picked:
                c2 *= s_coeff
                slots.append(idx)
            if c2 == 0:
                continue
            value = _contract_term(pkg, chars, slots, beta_plan)
            if value is None or value.is_zero():
                continue
            term_parity = (sum(alg.parity[i] for i in slots)
                           + functional_parity) % 2
            if term_parity:
                raise OddScalarError(
                    "nonzero contribution with odd total parity; "
                    "the package data is corrupt")
            total = total + c2 * value
    return total.scale(prefactor)


def _contract_term(pkg, chars, slots, beta_plan):
    alg, integ = pkg.algebra, pkg.integral

    # Koszul sign: inversion parity among odd slots along the beta traversal
    odd_positions = []
    for c, positions in beta_plan:
        for p in positions:
            if alg.parity[slots[p]]:
                odd_positions.append(p)
    value = CyclotomicScalar.integer(perm_sign(odd_positions), chars.order)

    for c, positions in beta_plan:
        prod = alg.unit()
        for p in positions:
            prod = alg.mul(prod, {slots[p]: 1})
            if not prod:
                return None
        table = integ.mu if c.closed else integ.pi_b
        b_elem = apply(table, prod)
        if not b_elem:
            return None
        value = value * _char_value_on_b(pkg, chars, c.id, b_elem)
        if value.is_zero():
            return None
    return value


def basepoint_shift(based, curve_id, new_start, pkg, chars):
    """Predicted unit relating the contraction after rotating one closed
    curve's basepoint: psi evaluated on the traversed segment for an alpha
    curve, a* on the segment's alpha duals for a beta curve."""
    c = based.curve(curve_id)
    if not c.closed:
        raise ArcCurveError(f"{curve_id} is an arc; arcs have no basepoint")
    k = len(c.order)
    if k == 0:
        return CyclotomicScalar.one(chars.order)
    if not 0 <= new_start < k:
        raise ArcCurveError(f"position {new_start} out of range")
    if c.family == "alpha":
        exp = 0
        for xid in c.order[new_start:]:
            x = based.crossing(xid)
            exp += x.sign * chars.psi_exponent(x.beta)
        return CyclotomicScalar.root_power(exp, chars.order)
    # beta curve: the unit is <a*, phi(segment word)>
    coint = pkg.cointegral
    if chars.order % coint.astar_order != 0:
        raise CharacterMismatchError(
            f"cyclotomic order {chars.order} incompatible with the a* "
            f"order {coint.astar_order}")
    scalefac = chars.order // coint.astar_order
    word = beta_word(based, curve_id)
    exp = 0
    for (alpha_id, e) in word.letters[new_start:]:
        pos = chars.phi.get(alpha_id, 0)
        exp += e * coint.astar_exps[pos]
    return CyclotomicScalar.root_power(exp * scalefac, chars.order)
