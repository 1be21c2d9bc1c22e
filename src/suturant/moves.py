"""Combinatorial generators of the extended Heegaard moves.

Each move is a small dataclass; ``apply_move`` returns a new diagram and
raises ``IllegalMoveError`` with a reason when the parameters do not describe
a legal instance.  Stabilization extends every named multipoint by the new
crossing, destabilization strips the removed one, and cancellation drops
the named multipoints through a cancelled crossing; every other move keeps
them.  Moves that touch the beta family change how the fixed manifold
classes are expressed in the diagram's dual generators, so every move also
exposes ``generator_map`` (old beta dual -> combination of new beta duals)
and ``orientation_flip`` (the induced sign on the ordered, oriented curve
basis); invariance tests compare classes through these.

Conventions fixed here, each one geometric realization among the legal ones:
a finger inserts its two crossings in the same sequence order on both curves;
a handleslide appends the travelling finger, then parallel copies of the
over-curve's crossings in the over-curve's order (each copy lands in its
other-family order immediately after the copied crossing), then the reversed
finger with flipped signs.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace

from .diagram import Crossing, Curve, Multipoint, closed_first, perm_sign
from .errors import IllegalMoveError, ParseError

# Most curves trivial handles may leave: at 40,000 (20,000 handles on the
# trefoil) ``suturant move`` peaks at 34 MiB resident (17 with none).
MAX_CURVES = 40_000


@dataclass(frozen=True)
class ReorderCurves:
    family: str
    topology: str
    new_order: tuple      # curve ids of the block, permuted


@dataclass(frozen=True)
class ReverseCurve:
    curve_id: str


@dataclass(frozen=True)
class FingerIsotopy:
    alpha_id: str
    beta_id: str
    alpha_pos: int
    beta_pos: int
    plus_first: bool = True
    single: bool = False    # endpoint slide: one crossing, both curves arcs


@dataclass(frozen=True)
class CancelFinger:
    first: str
    second: str


@dataclass(frozen=True)
class Stabilize:
    pass


@dataclass(frozen=True)
class Destabilize:
    alpha_id: str
    beta_id: str


@dataclass(frozen=True)
class HandleslideCurve:
    slid: str
    over: str
    delta: tuple = ()     # of (other-family curve id, position, sign)


@dataclass(frozen=True)
class AddTrivialHandles:
    count: int


# ---------------------------------------------------------------------------
# id generation
# ---------------------------------------------------------------------------

def _fresh_ids(diag, prefix, count):
    """``count`` ids ``prefix`` + a number above every trailing number of a
    curve or crossing id, so none of them is taken."""
    top = max((int(m.group(1)) for m in (
        re.fullmatch(r"[A-Za-z_]*(\d+)", x.id)
        for x in diag.curves + diag.crossings) if m), default=0)
    return [f"{prefix}{n}" for n in range(top + 1, top + 1 + count)]


def _rewrite(diag, orders, **fields):
    """The diagram with each curve named in ``orders`` given that order,
    and ``fields`` replaced, in one copy."""
    return replace(diag, curves=tuple(
        replace(c, order=orders[c.id]) if c.id in orders else c
        for c in diag.curves), **fields)


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def apply_move(diag, move):
    apply = _APPLY.get(type(move))
    if apply is None:
        raise IllegalMoveError(f"unknown move {move!r}")
    return apply(diag, move)


def _apply_reorder(diag, move):
    ids = [c.id for c in diag.family(move.family, move.topology)]
    if sorted(move.new_order) != sorted(ids):
        raise IllegalMoveError(
            f"reorder block mismatch: {move.new_order} vs {ids}")
    queue = map(diag.curve, move.new_order)
    return diag.with_curves(
        next(queue) if (c.family, c.topology) == (move.family, move.topology)
        else c for c in diag.curves)


def _apply_reverse(diag, move):
    c = diag.curve(move.curve_id)
    on_curve = set(c.order)
    return _rewrite(diag, {c.id: c.order[::-1]}, crossings=tuple(
        replace(x, sign=-x.sign) if x.id in on_curve else x
        for x in diag.crossings))


def _insert(order, pos, items):
    if pos < 0 or pos > len(order):
        raise IllegalMoveError(f"insertion position {pos} out of range")
    return order[:pos] + tuple(items) + order[pos:]


def _apply_finger(diag, move):
    a = diag.curve(move.alpha_id)
    b = diag.curve(move.beta_id)
    if a.family != "alpha" or b.family != "beta":
        raise IllegalMoveError("finger needs one alpha and one beta curve")
    s = 1 if move.plus_first else -1
    signs = (s,) if move.single else (s, -s)
    if move.single:
        if a.closed or b.closed:
            raise IllegalMoveError("endpoint slide needs two arcs")
        if move.alpha_pos not in (0, len(a.order)) or \
                move.beta_pos not in (0, len(b.order)):
            raise IllegalMoveError("endpoint slide must happen at an end")
    ids = _fresh_ids(diag, "x", len(signs))
    return _rewrite(
        diag, {a.id: _insert(a.order, move.alpha_pos, ids),
               b.id: _insert(b.order, move.beta_pos, ids)},
        crossings=diag.crossings + tuple(
            Crossing(xid, a.id, b.id, sign) for xid, sign in zip(ids, signs)))


def _adjacent_pair(curve, first, second):
    """True when (first, second) appear consecutively in this sequence
    order (cyclically for closed curves)."""
    order = curve.order
    after = order[1:] + (order[:1] if curve.closed else ())
    return (first, second) in zip(order, after)


def _apply_cancel(diag, move):
    x = diag.crossing(move.first)
    y = diag.crossing(move.second)
    if x.alpha != y.alpha or x.beta != y.beta:
        raise IllegalMoveError("pair lies on different curve pairs")
    if x.sign + y.sign != 0:
        raise IllegalMoveError("pair is not oppositely signed")
    a, b = diag.curve(x.alpha), diag.curve(x.beta)
    ok = ((_adjacent_pair(a, x.id, y.id) and _adjacent_pair(b, x.id, y.id))
          or (_adjacent_pair(a, y.id, x.id) and _adjacent_pair(b, y.id, x.id)))
    if not ok:
        raise IllegalMoveError("pair is not adjacent in matching order")
    gone = {x.id, y.id}
    return _rewrite(
        diag, {c.id: tuple(i for i in c.order if i not in gone)
               for c in (a, b)},
        crossings=tuple(z for z in diag.crossings if z.id not in gone),
        named_multipoints={nm: mp for nm, mp in diag.named_multipoints.items()
                           if not gone & set(mp.picks)})


def _apply_stabilize(diag, move):
    aid, bid = _fresh_ids(diag, "c", 2)
    (xid,) = _fresh_ids(diag, "x", 1)
    curves = diag.curves + (Curve(aid, "alpha", "closed", (xid,)),
                            Curve(bid, "beta", "closed", (xid,)))
    return replace(
        diag, curves=closed_first(curves),
        crossings=diag.crossings + (Crossing(xid, aid, bid, 1),),
        named_multipoints={nm: Multipoint(tuple(sorted(mp.picks + (xid,))))
                           for nm, mp in diag.named_multipoints.items()})


def _apply_destabilize(diag, move):
    a = diag.curve(move.alpha_id)
    b = diag.curve(move.beta_id)
    if not (a.closed and b.closed):
        raise IllegalMoveError("destabilize needs closed curves")
    if len(a.order) != 1 or a.order != b.order:
        raise IllegalMoveError("pair interacts with other curves")
    xid = a.order[0]
    return replace(
        diag, curves=tuple(c for c in diag.curves if c.id not in (a.id, b.id)),
        crossings=tuple(x for x in diag.crossings if x.id != xid),
        named_multipoints={nm: Multipoint(tuple(p for p in mp.picks
                                                if p != xid))
                           for nm, mp in diag.named_multipoints.items()})


def _apply_handleslide(diag, move):
    slid = diag.curve(move.slid)
    over = diag.curve(move.over)
    if slid.id == over.id:
        raise IllegalMoveError("cannot slide a curve over itself")
    if slid.family != over.family:
        raise IllegalMoveError("handleslide stays within one family")
    if slid.closed and not over.closed:
        raise IllegalMoveError("a closed curve cannot slide over an arc")
    fam = slid.family
    other_side = "beta" if fam == "alpha" else "alpha"
    copied = diag.ordered[over.id]    # refuses a broken order rule
    n = len(move.delta)
    fresh = _fresh_ids(diag, "x", 2 * n + len(copied))
    d_out, d_ret, c_new = fresh[:n], fresh[n:2 * n], fresh[2 * n:]
    orders, new_xs = {}, []

    def crossing_for(cid, other_id, sign):
        if fam == "alpha":
            return Crossing(cid, slid.id, other_id, sign)
        return Crossing(cid, other_id, slid.id, sign)

    def order_of(cid):
        return orders.get(cid, diag.curve_index[cid].order)

    # travelling finger: adjacent out/return pair on each delta curve
    for (other_id, pos, sign), out, ret in zip(move.delta, d_out, d_ret):
        if diag.curve(other_id).family != other_side:
            raise IllegalMoveError(
                f"delta curve {other_id} is not in the {other_side} family")
        if sign not in (1, -1):
            raise IllegalMoveError("delta sign must be +-1")
        new_xs += (crossing_for(out, other_id, sign),
                   crossing_for(ret, other_id, -sign))
        orders[other_id] = _insert(order_of(other_id), pos, (out, ret))
    # Parallel copies sit on a fixed side of the over-curve, so along the
    # crossed curve the copy lands just after the original at a positive
    # crossing and just before it at a negative one; only this sign rule is
    # the free-group substitution over -> over * slid on every dual word.
    for x, new in zip(copied, c_new):
        other_id = x.beta if fam == "alpha" else x.alpha
        new_xs.append(crossing_for(new, other_id, x.sign))
        order = order_of(other_id)
        orders[other_id] = _insert(order, order.index(x.id) + (x.sign > 0),
                                   (new,))
    orders[slid.id] = (slid.order + tuple(d_out) + tuple(c_new)
                       + tuple(reversed(d_ret)))
    return _rewrite(diag, orders, crossings=diag.crossings + tuple(new_xs))


def _apply_trivial_handles(diag, move):
    if move.count < 0:
        raise IllegalMoveError("count must be >= 0")
    if len(diag.curves) + 2 * move.count > MAX_CURVES:
        raise IllegalMoveError(f"would leave more than {MAX_CURVES} curves")
    ids = _fresh_ids(diag, "h", 2 * move.count)
    return diag.with_curves(closed_first(diag.curves + tuple(
        Curve(cid, fam, "arc", ())
        for cid, fam in zip(ids, ("alpha", "beta") * move.count))))


# apply_move's dispatch: per move type, its function of (diag, move)
_APPLY = {ReorderCurves: _apply_reorder, ReverseCurve: _apply_reverse,
          FingerIsotopy: _apply_finger, CancelFinger: _apply_cancel,
          Stabilize: _apply_stabilize, Destabilize: _apply_destabilize,
          HandleslideCurve: _apply_handleslide,
          AddTrivialHandles: _apply_trivial_handles}


# ---------------------------------------------------------------------------
# homology bookkeeping
# ---------------------------------------------------------------------------

def generator_map(diag, move):
    """How the old beta duals read in the new diagram's duals, as
    ``{old id: [(new id, coefficient), ...]}``; identity entries omitted."""
    if isinstance(move, ReverseCurve):
        c = diag.curve(move.curve_id)
        if c.family == "beta":
            return {c.id: [(c.id, -1)]}
        return {}
    if isinstance(move, Destabilize):
        # the removed beta dual is killed by the removed relation
        return {move.beta_id: []}
    if isinstance(move, HandleslideCurve):
        slid = diag.curve(move.slid)
        if slid.family == "beta":
            # after sliding j over i, the old class i* reads i* j*
            return {move.over: [(move.over, 1), (move.slid, 1)]}
        return {}
    return {}


def orientation_flip(diag, move):
    """Sign change of the ordered, oriented closed-curve basis."""
    if isinstance(move, ReverseCurve):
        return -1 if diag.curve(move.curve_id).closed else 1
    if isinstance(move, ReorderCurves):
        if move.topology != "closed":
            return 1
        block = [c.id for c in diag.family(move.family, "closed")]
        return perm_sign([block.index(i) for i in move.new_order])
    return 1


def transfer_exponents(exps, gens_old, gens_new, gmap):
    """Push a generator-exponent vector through a composed generator map."""
    pos_new = {g: i for i, g in enumerate(gens_new)}
    out = [0] * len(gens_new)
    for g, e in zip(gens_old, exps):
        if not e:
            continue
        image = gmap.get(g, [(g, 1)])
        for h, c in image:
            out[pos_new[h]] += e * c
    return tuple(out)


def compose_generator_maps(first, second):
    """first then second, both ``{gen: [(gen, coeff)]}`` with identity
    defaults."""
    out = {}
    keys = set(first) | set(second)
    for g in keys:
        acc = {}
        for h, c in first.get(g, [(g, 1)]):
            for k, d in second.get(h, [(h, 1)]):
                acc[k] = acc.get(k, 0) + c * d
        out[g] = [(k, v) for k, v in sorted(acc.items()) if v]
    return out


# ---------------------------------------------------------------------------
# random legal sequences
# ---------------------------------------------------------------------------

def _cancellable_pairs(diag):
    out = []
    for a in diag.family("alpha"):
        k = len(a.order)
        for i in range(k if a.closed else k - 1):
            x = diag.crossing(a.order[i])
            y = diag.crossing(a.order[(i + 1) % k])
            if x.id == y.id:
                continue
            if x.beta != y.beta or x.sign + y.sign != 0:
                continue
            b = diag.curve(x.beta)
            if _adjacent_pair(b, x.id, y.id):
                out.append((x.id, y.id))
    return out


def _trivial_pairs(diag):
    out = []
    for a in diag.closed_alphas:
        if len(a.order) != 1:
            continue
        x = diag.crossing(a.order[0])
        b = diag.curve(x.beta)
        if b.closed and b.order == a.order:
            out.append((a.id, b.id))
    return out


def random_move_sequence(diag, seed, length):
    """A deterministic sequence of legal moves; applying them in order
    never raises.  Growth is kept modest so invariants stay cheap."""
    rng = random.Random(seed)
    moves = []
    cur = diag
    for _ in range(length):
        options = ["reverse", "reorder", "finger", "finger",
                   "cancel", "cancel", "stabilize", "handleslide"]
        if len(cur.crossings) > 30:
            options = ["reverse", "reorder", "cancel", "cancel",
                       "destabilize"]
        mv = None
        rng.shuffle(options)
        for kind in options:
            mv = _propose(cur, rng, kind)
            if mv is not None:
                break
        if mv is None:
            mv = Stabilize()
        moves.append(mv)
        cur = apply_move(cur, mv)
    return moves


def _propose(diag, rng, kind):
    if kind == "reverse":
        cs = diag.curves
        return ReverseCurve(rng.choice(cs).id) if cs else None
    if kind == "reorder":
        blocks = [(f, t) for f in ("alpha", "beta")
                  for t in ("closed", "arc")
                  if len(diag.family(f, t)) > 1]
        if not blocks:
            return None
        f, t = rng.choice(blocks)
        ids = [c.id for c in diag.family(f, t)]
        rng.shuffle(ids)
        return ReorderCurves(f, t, tuple(ids))
    if kind == "finger":
        alphas = diag.family("alpha")
        betas = diag.family("beta")
        if not alphas or not betas:
            return None
        a = rng.choice(alphas)
        b = rng.choice(betas)
        return FingerIsotopy(a.id, b.id,
                             rng.randint(0, len(a.order)),
                             rng.randint(0, len(b.order)),
                             plus_first=rng.random() < 0.5)
    if kind == "cancel":
        pairs = _cancellable_pairs(diag)
        if not pairs:
            return None
        x, y = rng.choice(pairs)
        return CancelFinger(x, y)
    if kind == "stabilize":
        return Stabilize()
    if kind == "destabilize":
        pairs = _trivial_pairs(diag)
        if not pairs:
            return None
        a, b = rng.choice(pairs)
        return Destabilize(a, b)
    if kind == "handleslide":
        # per family, closed curves if two, else arcs if two; an over-curve
        # longer than 6 crossings moves on to the other family
        for fam in rng.sample(("alpha", "beta"), 2):
            for topology in ("closed", "arc"):
                curves = diag.family(fam, topology)
                if len(curves) >= 2:
                    slid, over = rng.sample(curves, 2)
                    if len(over.order) <= 6:
                        return HandleslideCurve(slid.id, over.id, ())
                    break
        return None
    return None


# ---------------------------------------------------------------------------
# move scripts
# ---------------------------------------------------------------------------

def parse_move_script(text):
    """One move per line; ``#`` comments.  Grammar mirrors the CLI docs."""
    moves = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        head = tok[0]
        try:
            if head == "reverse":
                moves.append(ReverseCurve(tok[2]))
            elif head == "reorder":
                if tok[3] != ":":
                    raise IndexError
                moves.append(ReorderCurves(tok[1], tok[2], tuple(tok[4:])))
            elif head == "stabilize":
                moves.append(Stabilize())
            elif head == "destabilize":
                moves.append(Destabilize(tok[1], tok[2]))
            elif head == "finger":
                a_id, a_pos = tok[1].split("@")
                b_id, b_pos = tok[2].split("@")
                pattern = tok[3]
                if pattern not in ("+-", "-+", "+", "-"):
                    raise IndexError
                moves.append(FingerIsotopy(
                    a_id, b_id, int(a_pos), int(b_pos),
                    plus_first=pattern[0] == "+", single=len(pattern) == 1))
            elif head == "cancel":
                moves.append(CancelFinger(tok[1], tok[2]))
            elif head == "handleslide":
                if tok[2] != "over":
                    raise IndexError
                delta = []
                for m in re.finditer(r"\(([^)@\s]+)@(\d+)\s+([+-])\)", line):
                    delta.append((m.group(1), int(m.group(2)),
                                  1 if m.group(3) == "+" else -1))
                moves.append(HandleslideCurve(tok[1], tok[3], tuple(delta)))
            elif head == "trivial-handles":
                moves.append(AddTrivialHandles(int(tok[1])))
            else:
                raise ParseError(lineno, f"unknown move {head!r}")
        except (IndexError, ValueError):
            raise ParseError(lineno, f"malformed move line: {line!r}")
    return moves
