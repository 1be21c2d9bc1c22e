"""The super-tensor-network engine.

The network of a based, ordered, oriented diagram has one vertex per
crossing.  Every alpha curve feeds its (co)integral seed into an iterated
coproduct with one slot per crossing, in the curve's order; a negative
crossing applies the antipode to its slot; every beta curve multiplies its
slots in its own order, maps the product into B by the integral (closed)
or the projection (arc), and evaluates its character there.

The contraction evaluates the network in one fixed order, a sweep over the
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

The terms a state contributes at a crossing depend only on three basis
indices of its key: the remainder and the runs left and right of the slot.
The coproduct split, the antipode, left run * slot * right run and, if
the beta completes, its image in B are therefore expanded once per
distinct triple at each crossing and shared by all states with that
triple.  Each state then applies what is its own: the Koszul sign of the
odd-slot terms and the untouched parts of its key, into which it splices
the new run or the completed beta's parity.  This is the per-state
expansion term by term, so the frontier and its values are unchanged.

Koszul sign: rerouting the slots from alpha order to beta-traversal order
(the betas in family order, each in its own order) costs the inversion
parity of the odd slots.  The sweep pays it as it goes: placing an odd
slot flips the sign by the parity of the content already placed later in
traversal order, the runs after it on its own beta and everything placed
on later betas.

Scalars: a character of order N reads the group-like b^t of B as
x^(e * t), e its exponent on the beta, so every value is an integer vector
over exponents mod N, an element of Z[x]/(x^N - 1).  Only a completing
beta reads the character; the splits, antipodes, products and signs
before it do not.  So ``contract_values`` runs one sweep for a list of
characters: a state's value is one such block per character, in list
order, each block of its own N, and when a beta completes each block is
multiplied by its own x^(e * t).  The sum over the final states is reduced
modulo Phi_N once per block, then the single rational cointegral
prefactor is applied.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .algebra import apply
from .cyclotomic import CyclotomicScalar
from .diagram import beta_word
from .errors import (ArcCurveError, CharacterMismatchError, OddScalarError)


@dataclass(frozen=True)
class CharacterAssignment:
    """Character data for a contraction: one exponent mod N per beta curve
    (the value of psi(beta*) on the distinguished group-like b) and, when
    constructed from an H_1 character, the character itself for the
    zeta-normalization bookkeeping."""

    order: int
    psi: dict                    # beta id -> exponent mod order
    h1: object | None = None     # a foxcalc.Character, not imported: the
                                 # engine imports nothing from foxcalc

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


def check_admissible(diag, n, chars):
    """The one admissibility rule of both engines: each beta's value
    psi(beta) = zeta^e, zeta of order ``chars.order``, must be an order-n
    root of unity, that is n * e = 0 mod order, because psi is read on the
    group-like K of H_n (b of order n).  The Fox engine never evaluates on
    H_n and applies it as a rule; ``contract`` applies it with n the order
    of its package's group-like."""
    for c in diag.family("beta"):
        e = chars.psi_exponent(c.id)
        if (e * n) % chars.order != 0:
            raise CharacterMismatchError(
                f"psi({c.id}) = zeta^{e} is not an order-{n} root of "
                f"unity in Z/{chars.order}")


def _closing(pkg, closed):
    """Per basis index i of H, mu(e_i) (closed beta) or pi_B(e_i) (arc) as
    {discrete log with respect to b: coefficient}; a character reads b^t
    as x^(e * t), e its exponent on the beta."""
    integ = pkg.integral
    table = integ.mu if closed else integ.pi_b
    out = {}
    for i in range(pkg.algebra.dim):
        poly = out[i] = {}
        for pos, c in apply(table, {i: 1}).items():
            t = integ.b_dlog[pos]
            poly[t] = poly.get(t, 0) + c
    return out


def _times(vec, weight, moves):
    """vec times the weight {s: c} blockwise, ``moves[s]`` giving the index
    each entry of vec goes to under the shifts numbered s."""
    out = [0] * len(vec)
    for s, c in weight.items():
        for k, v in zip(moves[s], vec):
            out[k] += c * v
    return out


def _parity(part, par):
    """The parity of a beta's part of a state key: runs, or a parity."""
    return part if isinstance(part, int) else sum(par[i] for i in part)


def _expand(alg, rem, lt, rt, neg, last, closing):
    """The terms of one local configuration at a crossing: the factor
    ``rem`` split by the coproduct into slot and rest (taken whole at the
    alpha's last crossing), the antipode on the slot if ``neg``, and the
    product ``lt`` * slot * ``rt`` with the runs that are not None.  Returns
    whether a term has an odd slot and the terms: (rest, run index, odd,
    coefficient), or (rest, parity, odd, {shift: coefficient}) when
    ``closing``, the beta's table of shifts, completes it."""
    par, mul = alg.parity, alg.mul_sc
    comul, antipode = alg.comul_sc, alg.antipode_sc
    acc = {}
    splits = (((rem, None), 1),) if last else comul.get(rem, {}).items()
    for (slot, rest), c in splits:
        images = antipode.get(slot, {}).items() if neg else ((slot, 1),)
        for s, cs in images:
            lhs = {s: 1} if lt is None else mul.get((lt, s), {})
            for u, cu in lhs.items():
                prod = {u: 1} if rt is None else mul.get((u, rt), {})
                for m, cm in prod.items():
                    k = (rest, m, par[s])
                    acc[k] = acc.get(k, 0) + c * cs * cu * cm
    if closing is None:
        terms = [(rest, m, odd, c) for (rest, m, odd), c in acc.items() if c]
    else:
        polys = {}
        for (rest, m, odd), c in acc.items():
            poly = polys.setdefault((rest, par[m], odd), {})
            for t, ct in closing[m].items():
                poly[t] = poly.get(t, 0) + c * ct
        terms = [(rest, p, odd, {t: c for t, c in poly.items() if c})
                 for (rest, p, odd), poly in polys.items()
                 if any(poly.values())]
    return any(term[2] for term in terms), terms


def _cross(states, alg, b, j, placed, neg, last, closing, moves):
    """The frontier after placing the next slot of the current alpha at
    position j of beta b, where ``placed`` holds the positions of b filled
    before and ``closing`` is b's table of shifts if this completes b (see
    :func:`_times` for ``moves``)."""
    par = alg.parity
    r = sum(1 for p in placed if p < j and p + 1 not in placed)
    left, right = j - 1 in placed, j + 1 in placed
    lo, hi = r - left, r + right     # the runs this slot joins
    expansions, tails, out = {}, {}, {}
    for key, vec in states.items():
        runs = key[1 + b]
        local = (key[0], runs[lo] if left else None,
                 runs[r] if right else None)
        expansion = expansions.get(local)
        if expansion is None:
            expansion = expansions[local] = _expand(alg, *local, neg, last,
                                                    closing)
        has_odd, terms = expansion
        head, later = key[1:1 + b], key[2 + b:]
        tail = 0
        if has_odd:
            shared = (runs[r:], later)
            tail = tails.get(shared)
            if tail is None:
                tail = tails[shared] = (
                    sum(par[i] for i in runs[r:])
                    + sum(_parity(p, par) for p in later)) % 2
        if closing is None:
            pre, post = runs[:lo], runs[hi:]
        for rest, part, odd, weight in terms:
            sign = -1 if odd and tail else 1
            if closing is None:
                part, value, c = pre + (part,) + post, vec, sign * weight
            else:
                value, c = _times(vec, weight, moves), sign
            new = (rest,) + head + (part,) + later
            cur = out.get(new)
            if cur is None:
                out[new] = [c * v for v in value]
            else:
                for k, v in enumerate(value):
                    cur[k] += c * v
    return {key: vec for key, vec in out.items() if any(vec)}


def contract(based, pkg, chars):
    """The unnormalized scalar of a based, ordered, oriented diagram: the
    one-element case of :func:`contract_values`."""
    return contract_values(based, pkg, [chars])[0]


def contract_values(based, pkg, assignments):
    """The unnormalized scalar at each of ``assignments``, in their order,
    from one sweep whose state values hold one block per assignment."""
    for chars in assignments:
        check_admissible(based, pkg.integral.glike_b_order, chars)
    alg, integ, coint = pkg.algebra, pkg.integral, pkg.cointegral
    alphas, betas = based.family("alpha"), based.family("beta")
    # the (co)integral seeds of closed and arc alphas
    seeds = {True: apply(coint.iota, {pkg.unit_a: 1}),
             False: apply(coint.i_a, {pkg.unit_a: 1})}
    home = {xid: (b, j) for b, c in enumerate(betas)
            for j, xid in enumerate(c.order)}
    orders = [chars.order for chars in assignments]
    starts = list(accumulate(orders, initial=0))
    # per beta, the closing table of its kind with each discrete log t
    # replaced by the number of the shifts (e_j * t mod N_j) it makes in
    # the blocks; equal shifts share their number
    kinds = {closed: _closing(pkg, closed)
             for closed in {c.closed for c in betas}}
    dlogs, closing, shifts = set(integ.b_dlog), [], {}
    for c in betas:
        exps = [chars.psi_exponent(c.id) for chars in assignments]
        number = {t: shifts.setdefault(
            tuple([e * t % n for e, n in zip(exps, orders)]), len(shifts))
            for t in dlogs}
        table = {}
        for i, poly in kinds[c.closed].items():
            weight = table[i] = {}
            for t, coeff in poly.items():
                s = number[t]
                weight[s] = weight.get(s, 0) + coeff
        closing.append(table)
    moves = [[lo + (k + sj) % n for lo, n, sj in zip(starts, orders, s)
              for k in range(n)] for s in shifts]

    vec, parts = [0] * starts[-1], []
    for lo in starts[:-1]:
        vec[lo] = 1
    for b, c in enumerate(betas):
        if c.order:
            parts.append(())
        else:
            vec = _times(vec, closing[b][alg.unit_index], moves)
            parts.append(alg.parity[alg.unit_index])
    states = {(None, *parts): vec}
    placed = [set() for _ in betas]
    for c in alphas:
        seed = seeds[c.closed]
        if not c.order:
            k = alg.counit(seed)
            states = {key: [k * v for v in vec]
                      for key, vec in states.items()}
            continue
        # every state entering an alpha has remainder None, so the seeded
        # keys are distinct
        states = {(i,) + key[1:]: [ci * v for v in vec]
                  for key, vec in states.items() for i, ci in seed.items()}
        for t, xid in enumerate(c.order):
            b, j = home[xid]
            done = len(placed[b]) + 1 == len(betas[b].order)
            states = _cross(states, alg, b, j, placed[b],
                            based.crossing(xid).sign < 0,
                            t == len(c.order) - 1,
                            closing[b] if done else None, moves)
            placed[b].add(j)

    functional_parity = sum(integ.mu_parity for c in betas if c.closed)
    total = [0] * starts[-1]
    for key, vec in states.items():
        parity = functional_parity + sum(_parity(p, alg.parity)
                                         for p in key[1:])
        if parity % 2 == 0:
            total = [a + v for a, v in zip(total, vec)]
        elif any(not CyclotomicScalar.from_coeffs(vec[lo:lo + n], n).is_zero()
                 for lo, n in zip(starts, orders)):
            raise OddScalarError(
                "nonzero contribution with odd total parity; "
                "the package data is corrupt")
    prefactor = coint.iota_prefactor ** sum(1 for c in alphas if c.closed)
    return [CyclotomicScalar.from_coeffs(total[lo:lo + n], n).scale(prefactor)
            for lo, n in zip(starts, orders)]


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
    # beta curve: the unit is <a*, segment word>, every alpha dual read as
    # the A-group-like unit_a
    coint = pkg.cointegral
    if chars.order % coint.astar_order != 0:
        raise CharacterMismatchError(
            f"cyclotomic order {chars.order} incompatible with the a* "
            f"order {coint.astar_order}")
    scalefac = chars.order // coint.astar_order
    word = beta_word(based, curve_id)
    exp = (sum(e for _, e in word.letters[new_start:])
           * coint.astar_exps[pkg.unit_a])
    return CyclotomicScalar.root_power(exp * scalefac, chars.order)
