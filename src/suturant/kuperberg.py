"""The super-tensor-network engine.

The network of a based, ordered, oriented diagram has one vertex per
crossing.  Every alpha curve feeds its (co)integral seed into an iterated
coproduct with one slot per crossing, in the curve's order; a negative
crossing applies the antipode to its slot; every beta curve multiplies its
slots in its own order, maps the product into B by the integral (closed)
or the projection (arc), and evaluates its character there.

``contract`` evaluates the network in one fixed order, a sweep over the
alpha curves in family order and each alpha's crossings in its own order,
and merges equal frontier states after every crossing.  A state is keyed
by the basis index of the current alpha's not-yet-split coproduct factor
and, per beta curve, the basis indices of its maximal runs of placed
slots, or only the parity of its product once the beta is complete.  At a
crossing the factor is split by the coproduct (the last crossing of an
alpha takes it whole, an alpha without crossings contributes the counit of
its seed), the antipode acts if the crossing is negative, and the slot is
multiplied into its beta as left run * slot * right run.  Completing a
beta evaluates it; a beta without crossings is evaluated on the unit at
the start.

Koszul sign: rerouting the slots from alpha order to beta-traversal order
(the betas in family order, each in its own order) costs the inversion
parity of the odd slots.  The sweep pays it as it goes: placing an odd
slot flips the sign by the parity of the content already placed later in
traversal order, the runs after it on its own beta and everything placed
on later betas.

Scalars: every character value on B is a power of x, so a state's value
is an integer vector over exponents mod N, an element of Z[x]/(x^N - 1).
The sum over the final states is reduced modulo Phi_N once, then the
single rational cointegral prefactor is applied.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import apply
from .cyclotomic import CyclotomicScalar
from .diagram import beta_word
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


def _closing(pkg, chars, curve):
    """Per basis index i of H, the character of a beta curve on mu(e_i)
    (closed) or pi_B(e_i) (arc), as {exponent of x: coefficient}."""
    integ = pkg.integral
    e = chars.psi_exponent(curve.id)
    table = integ.mu if curve.closed else integ.pi_b
    out = {}
    for i in range(pkg.algebra.dim):
        poly = out[i] = {}
        for pos, c in apply(table, {i: 1}).items():
            t = e * integ.b_dlog[pos] % chars.order
            poly[t] = poly.get(t, 0) + c
    return out


def _times(vec, poly):
    """vec * sum(c x^t), exponents taken mod len(vec)."""
    n = len(vec)
    out = [0] * n
    for t, c in poly.items():
        for k, v in enumerate(vec):
            out[(k + t) % n] += c * v
    return out


def _add(states, key, vec, c):
    """states[key] += c * vec."""
    cur = states.get(key)
    if cur is None:
        states[key] = [c * v for v in vec]
    else:
        for k, v in enumerate(vec):
            cur[k] += c * v


def _parity(part, par):
    """The parity of a beta's part of a state key: runs, or a parity."""
    return part if isinstance(part, int) else sum(par[i] for i in part)


def _cross(states, alg, b, j, placed, neg, last, closing):
    """The frontier after placing the next slot of the current alpha at
    position j of beta b, where ``placed`` holds the positions of b filled
    before and ``closing`` is b's character table if this completes b."""
    par, comul, antipode = alg.parity, alg.comul_sc, alg.antipode_sc
    r = sum(1 for p in placed if p < j and p + 1 not in placed)
    left, right = j - 1 in placed, j + 1 in placed
    lo, hi = r - left, r + right     # the runs this slot joins
    out = {}
    for key, vec in states.items():
        rem, runs, later = key[0], key[1 + b], key[2 + b:]
        tail = (sum(par[i] for i in runs[r:])
                + sum(_parity(p, par) for p in later)) % 2
        splits = (((rem, None), 1),) if last else comul.get(rem, {}).items()
        for (slot, rest), c in splits:
            images = antipode.get(slot, {}).items() if neg else ((slot, 1),)
            for s, cs in images:
                sign = -1 if par[s] and tail else 1
                prod = {s: 1}
                if left:
                    prod = alg.mul({runs[lo]: 1}, prod)
                if right:
                    prod = alg.mul(prod, {runs[r]: 1})
                for m, cm in prod.items():
                    if closing is None:
                        part, value = runs[:lo] + (m,) + runs[hi:], vec
                    elif closing[m]:
                        part, value = par[m], _times(vec, closing[m])
                    else:
                        continue
                    _add(out, (rest,) + key[1:1 + b] + (part,) + later,
                         value, sign * c * cs * cm)
    return {key: vec for key, vec in out.items() if any(vec)}


def contract(based, pkg, chars):
    """The unnormalized scalar of a based, ordered, oriented diagram."""
    _check_assignment(based, pkg, chars)
    alg, integ, coint = pkg.algebra, pkg.integral, pkg.cointegral
    alphas, betas = based.family("alpha"), based.family("beta")
    home = {xid: (b, j) for b, c in enumerate(betas)
            for j, xid in enumerate(c.order)}
    closing = [_closing(pkg, chars, c) for c in betas]

    vec, parts = [1] + [0] * (chars.order - 1), []
    for b, c in enumerate(betas):
        if c.order:
            parts.append(())
        else:
            vec = _times(vec, closing[b][alg.unit_index])
            parts.append(alg.parity[alg.unit_index])
    states = {(None, *parts): vec}
    placed = [set() for _ in betas]
    for c in alphas:
        seed = _alpha_seed(pkg, c, chars)
        if not c.order:
            k = alg.counit(seed)
            states = {key: [k * v for v in vec]
                      for key, vec in states.items()}
            continue
        seeded = {}
        for key, vec in states.items():
            for i, ci in seed.items():
                _add(seeded, (i,) + key[1:], vec, ci)
        states = seeded
        for t, xid in enumerate(c.order):
            b, j = home[xid]
            done = len(placed[b]) + 1 == len(betas[b].order)
            states = _cross(states, alg, b, j, placed[b],
                            based.crossing(xid).sign < 0,
                            t == len(c.order) - 1,
                            closing[b] if done else None)
            placed[b].add(j)

    functional_parity = sum(integ.mu_parity for c in betas if c.closed)
    total = [0] * chars.order
    for key, vec in states.items():
        parity = functional_parity + sum(_parity(p, alg.parity)
                                         for p in key[1:])
        if parity % 2 == 0:
            total = [a + v for a, v in zip(total, vec)]
        elif not CyclotomicScalar.from_coeffs(vec, chars.order).is_zero():
            raise OddScalarError(
                "nonzero contribution with odd total parity; "
                "the package data is corrupt")
    prefactor = coint.iota_prefactor ** sum(1 for c in alphas if c.closed)
    return CyclotomicScalar.from_coeffs(total, chars.order).scale(prefactor)


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
