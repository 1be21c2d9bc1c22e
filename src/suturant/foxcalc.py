"""Fox calculus over free groups and exact group-ring arithmetic.

The fundamental group of a diagram is presented on the beta-curve duals with
one relation per closed alpha curve.  Its abelianization is computed by an
integer Smith normal form; group-ring elements are finitely supported integer
maps on the normal-form coordinates (free exponents first, then torsion
residues).  Determinants are taken by fraction-free elimination in the
Laurent lift, a domain, even where torsion gives Z[H_1] zero divisors.

The Fox matrix is built in H_1 coordinates: one walk per closed alpha
(:func:`crossing_classes`) classes each crossing, and entry (a, b) sums
sign * t^class over the crossings of a with b.  The word-level
:func:`fox_derivative` uses the closed occurrence formula

    dw/dx = sum_j m_j (A_j x^{-eps_j})

over the occurrences x^{m_j} in w, with A_j the prefix before the j-th
occurrence and eps_j = 0 for a positive, 1 for a negative occurrence.  The
recursive product rule lives in the test suite as an independent oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, sub

from .cyclotomic import CyclotomicScalar
from .diagram import FreeWord, alpha_word, fraction_free_det
from .errors import (GroupMismatchError, InvalidCharacterError,
                     NonSquareError, NotDivisibleError, UnknownGeneratorError)


# ---------------------------------------------------------------------------
# Fox derivative
# ---------------------------------------------------------------------------

def fox_derivative(word, gen):
    """List of (prefix word, sign): one signed word per occurrence of
    gen^{+-1}.  For a positive occurrence the word is the bare prefix; for a
    negative one the prefix times gen^{-1}."""
    out = []
    for j, (g, e) in enumerate(word.letters):
        if g != gen:
            continue
        if e == 1:
            out.append((FreeWord(word.letters[:j]), 1))
        else:
            out.append((FreeWord(word.letters[:j + 1]), -1))
    return out


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(rows, ncols):
    """Return (diag, V, Vinv) with U*R*V = D for unimodular U, V.

    Only the column transform is kept: V maps original coordinates to
    normal-form coordinates (x -> x V), and Vinv sections them back.
    ``diag`` lists the invariant factors d_1 | d_2 | ... (zeros trimmed).
    """
    m = len(rows)
    n = ncols
    a = [list(r) + [0] * (n - len(r)) for r in rows]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_op(j, k, q):
        # col_k -= q * col_j  on a and v;  row_j += q * row_k on vinv
        for r in a:
            r[k] -= q * r[j]
        for r in v:
            r[k] -= q * r[j]
        for t in range(n):
            vinv[j][t] += q * vinv[k][t]

    def col_swap(j, k):
        for r in a:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]
        vinv[j], vinv[k] = vinv[k], vinv[j]

    def col_neg(j):
        for r in a:
            r[j] = -r[j]
        for r in v:
            r[j] = -r[j]
        for t in range(n):
            vinv[j][t] = -vinv[j][t]

    def row_op(i, k, q):
        for t in range(n):
            a[k][t] -= q * a[i][t]

    t = 0
    while t < min(m, n):
        # find a pivot
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0:
                    if piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            a[t], a[i] = a[i], a[t]
        if j != t:
            col_swap(t, j)
        # clear row and column t
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(t, i, q)
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(t, j, q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                break
        if a[t][t] < 0:
            col_neg(t)
        t += 1

    # enforce the divisibility chain by 2x2 repairs
    rank = t
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if a[i + 1][i + 1] % a[i][i] != 0:
                col_op(i + 1, i, -1)   # col_i += col_{i+1}
                while a[i][i + 1] or a[i + 1][i]:
                    if a[i + 1][i]:
                        q = a[i + 1][i] // a[i][i]
                        row_op(i, i + 1, q)
                        if a[i + 1][i]:
                            a[i], a[i + 1] = a[i + 1], a[i]
                    if a[i][i + 1]:
                        q = a[i][i + 1] // a[i][i]
                        col_op(i, i + 1, q)
                        if a[i][i + 1]:
                            col_swap(i, i + 1)
                if a[i][i] < 0:
                    col_neg(i)
                if a[i + 1][i + 1] < 0:
                    col_neg(i + 1)
                changed = True
    diag = [a[i][i] for i in range(rank) if a[i][i] != 0]
    return diag, v, vinv


# ---------------------------------------------------------------------------
# abelian groups and group rings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianGroup:
    """Z^rank + Z/d_1 + ... in normal-form coordinates (free part first).

    ``gens`` are the generator tokens (beta-curve ids); ``projection`` sends
    a generator-exponent vector to normal form, ``section`` lifts a normal
    form back to a representative exponent vector.
    """

    gens: tuple
    rank: int
    torsion: tuple
    projection: tuple    # rows: one per gen, length rank + len(torsion)
    section: tuple       # rows: one per normal coordinate, length len(gens)

    @property
    def ncoords(self):
        return self.rank + len(self.torsion)

    def normalize(self, coords):
        out = list(coords)
        for k, d in enumerate(self.torsion):
            out[self.rank + k] %= d
        return tuple(out)

    def project(self, exponents):
        """Normal form of a generator-exponent vector."""
        coords = [0] * self.ncoords
        for g, e in zip(range(len(self.gens)), exponents):
            if e:
                for t in range(self.ncoords):
                    coords[t] += e * self.projection[g][t]
        return self.normalize(coords)

    def project_word(self, word):
        exps = [0] * len(self.gens)
        pos = {g: i for i, g in enumerate(self.gens)}
        for g, e in word.letters:
            if g not in pos:
                raise UnknownGeneratorError(g)
            exps[pos[g]] += e
        return self.project(exps)

    def lift(self, coords):
        """A representative generator-exponent vector of a normal form."""
        out = [0] * len(self.gens)
        for t, c in enumerate(coords):
            if c:
                for g in range(len(self.gens)):
                    out[g] += c * self.section[t][g]
        return tuple(out)

    def identity(self):
        return tuple([0] * self.ncoords)

    def same_shape(self, other):
        return self.rank == other.rank and self.torsion == other.torsion


def presented_group(gens, relation_rows):
    """The abelian group on the given generators modulo the relation rows,
    in Smith normal form (free coordinates first, then torsion)."""
    n = len(gens)
    diag_factors, v, vinv = smith_normal_form(relation_rows, n)
    free_cols = list(range(len(diag_factors), n))
    torsion_cols = [k for k, d in enumerate(diag_factors) if d > 1]
    torsion = tuple(diag_factors[k] for k in torsion_cols)
    keep = free_cols + torsion_cols
    projection = tuple(tuple(v[g][c] for c in keep) for g in range(n))
    section = tuple(tuple(vinv[c][g] for g in range(n)) for c in keep)
    return AbelianGroup(tuple(gens), len(free_cols), torsion,
                        projection, section)


def homology(diag):
    """H_1 presented on the beta duals with one relation per closed alpha."""
    gens = diag.beta_generators()
    pos = {g: i for i, g in enumerate(gens)}
    rows = []
    for c in diag.closed_alphas:
        row = [0] * len(gens)
        for g, e in alpha_word(diag, c.id).letters:
            row[pos[g]] += e
        rows.append(row)
    return presented_group(gens, rows)


class GroupRingElement:
    """Finitely supported integer combination of group elements in normal
    form.  Immutable once built; zero coefficients are never stored."""

    __slots__ = ("group", "terms")

    def __init__(self, group, terms=None):
        self.group = group
        clean = {}
        for k, c in (terms or {}).items():
            if c:
                kk = group.normalize(k)
                clean[kk] = clean.get(kk, 0) + c
        self.terms = {k: c for k, c in clean.items() if c}

    @classmethod
    def zero(cls, group):
        return cls(group, {})

    @classmethod
    def one(cls, group):
        return cls(group, {group.identity(): 1})

    @classmethod
    def monomial(cls, group, coords, coeff=1):
        return cls(group, {tuple(coords): coeff})

    def _check(self, other):
        if self.group is not other.group and not (
                self.group.same_shape(other.group)
                and self.group.gens == other.group.gens):
            raise GroupMismatchError("elements live in different groups")

    def __add__(self, other):
        self._check(other)
        return GroupRingElement(self.group, _Laurent(self.terms) + other.terms)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.monomial(self.group, self.group.identity(), other)
        self._check(other)
        return GroupRingElement(self.group, _Laurent(self.terms) * other.terms)

    __rmul__ = __mul__

    def translate(self, coords, sign=1):
        return self * self.monomial(self.group, coords, sign)

    def __eq__(self, other):
        return (isinstance(other, GroupRingElement)
                and self.group.same_shape(other.group)
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def augmentation(self):
        return sum(self.terms.values())

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __str__(self):
        return render_group_ring(self)

    __repr__ = __str__


class _Laurent(dict):
    """Laurent polynomial over Z, exponent tuple -> nonzero int: the lift of
    a group-ring element, with torsion exponents as free variables (no
    relation imposed), so this ring is a domain and ``//`` is exact.  The
    group-ring sum and product are taken here and projected back."""

    __slots__ = ()

    def __mul__(self, other):
        out = _Laurent()
        for k1, c1 in self.items():
            for k2, c2 in other.items():
                k = tuple(map(add, k1, k2))
                out[k] = c = out.get(k, 0) + c1 * c2
                if not c:
                    del out[k]
        return out

    def __add__(self, other):
        out = _Laurent(self)
        for k, c in other.items():
            out[k] = c = out.get(k, 0) + c
            if not c:
                del out[k]
        return out

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _Laurent({k: -c for k, c in self.items()})

    def __floordiv__(self, other):
        """Exact quotient, one lex-leading term at a time.  In a domain the
        least exponents of each coordinate add up in a product, so a
        quotient term below that floor proves a remainder (NotDivisible)
        and bounds the lex-decreasing quotient terms, which ends the loop."""
        lead = max(other)
        floor = [a - b for a, b in zip(map(min, zip(*self)),
                                       map(min, zip(*other)))]
        work, out = self, _Laurent()
        while work:
            top = max(work)
            c, r = divmod(work[top], other[lead])
            key = tuple(map(sub, top, lead))
            if r or any(e < f for e, f in zip(key, floor)):
                raise NotDivisibleError("remainder after division")
            out[key] = c
            work = work - other * _Laurent({key: c})
        return out


def abelianize(word_or_terms, group):
    """Image in Z[H_1] of a FreeWord (a single monomial) or of a signed-word
    list as produced by :func:`fox_derivative`."""
    if isinstance(word_or_terms, FreeWord):
        return GroupRingElement.monomial(
            group, group.project_word(word_or_terms))
    out = GroupRingElement.zero(group)
    for word, sign in word_or_terms:
        out = out + GroupRingElement.monomial(
            group, group.project_word(word), sign)
    return out


def coordinate_name(group, t):
    """Name of the t-th normal-form coordinate: ``t`` in a single-generator
    group, otherwise t1, t2, ... for the free and s1, s2, ... for the
    torsion coordinates."""
    if group.ncoords == 1:
        return "t"
    if t < group.rank:
        return f"t{t + 1}"
    return f"s{t - group.rank + 1}"


def render_group_ring(el):
    """Deterministic text form in the :func:`coordinate_name` variables,
    torsion exponents bracketed unless the group has a single generator."""
    g = el.group
    if not el.terms:
        return "0"
    parts = []
    for key, coeff in el.sorted_terms():
        pieces = []
        for t, e in enumerate(key):
            if e:
                nm = coordinate_name(g, t)
                piece = nm if e == 1 else f"{nm}^{e}"
                bracket = t >= g.rank and g.ncoords > 1
                pieces.append(f"[{piece}]" if bracket else piece)
        mono = " ".join(pieces)
        if not mono:
            body = f"{abs(coeff)}"
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{abs(coeff)} {mono}"
        parts.append(("-" if coeff < 0 else "+", body))
    sign, first = parts[0]
    text = ("-" if sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# Fox matrix, determinant, multipoint expansion
# ---------------------------------------------------------------------------

def crossing_classes(diag, group):
    """Crossing id -> class in H_1 of the word from its closed alpha's
    basepoint up to the crossing's own basepoint, which sits before a
    positive crossing and after a negative one.  One walk per closed alpha
    with a running normal-form vector."""
    step = dict(zip(group.gens, group.projection))
    out = {}
    for c in diag.closed_alphas:
        acc = group.identity()
        for xid in c.order:
            x = diag.crossing(xid)
            if x.beta not in step:
                raise UnknownGeneratorError(x.beta)
            after = tuple(map(add if x.sign > 0 else sub, acc, step[x.beta]))
            out[xid] = group.normalize(acc if x.sign > 0 else after)
            acc = after
    return out


def fox_matrix(diag, group=None):
    """Matrix of abelianized Fox derivatives: rows the closed alpha words,
    columns the closed beta duals, entries in Z[H_1]."""
    group = group or homology(diag)
    classes = crossing_classes(diag, group)
    cols = {c.id: j for j, c in enumerate(diag.closed_betas)}
    rows = []
    for a in diag.closed_alphas:
        row = [{} for _ in cols]
        for xid in a.order:
            x = diag.crossing(xid)
            if x.beta in cols:
                entry = row[cols[x.beta]]
                entry[classes[xid]] = entry.get(classes[xid], 0) + x.sign
        rows.append([GroupRingElement(group, e) for e in row])
    return rows


def determinant(mat):
    """Fraction-free elimination of the Laurent lift of the entries, then
    projection to Z[H_1], a ring homomorphism, so the result is exact."""
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise NonSquareError(f"{len(row)} columns in a {n}-row matrix")
    if n == 0:
        raise NonSquareError("empty matrix has no ring context here")
    return GroupRingElement(mat[0][0].group, fraction_free_det(
        [[_Laurent(el.terms) for el in row] for row in mat]))


def fox_determinant(diag, group=None):
    """det of the Fox matrix; the empty (d = 0) determinant is 1."""
    group = group or homology(diag)
    if not diag.closed_alphas:
        return GroupRingElement.one(group)
    return determinant(fox_matrix(diag, group))


def multipoint_expansion(diag, group=None):
    """Sum over multipoints of sign times the abelianized prefix product.

    The prefix of a pick runs from the curve's basepoint up to the pick's
    own basepoint: the pick letter itself is excluded at a positive pick and
    included at a negative one.
    """
    from .diagram import enumerate_multipoints, multipoint_sign
    group = group or homology(diag)
    total = GroupRingElement.zero(group)
    for mp in enumerate_multipoints(diag):
        exps = [0] * len(group.gens)
        pos = {g: i for i, g in enumerate(group.gens)}
        for xid in mp.picks:
            x = diag.crossing(xid)
            order = diag.curve(x.alpha).order
            upto = order.index(xid) + (0 if x.sign > 0 else 1)
            for t in range(upto):
                y = diag.crossing(order[t])
                exps[pos[y.beta]] += y.sign
        total = total + GroupRingElement.monomial(
            group, group.project(exps), multipoint_sign(diag, mp))
    return total


# ---------------------------------------------------------------------------
# characters and evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    """A homomorphism H_1 -> Z/N given by exponents on the normal-form
    generators; torsion generators must satisfy d_k * e_k = 0 mod N."""

    group: AbelianGroup
    order: int
    exps: tuple

    def __post_init__(self):
        if len(self.exps) != self.group.ncoords:
            raise InvalidCharacterError(
                f"{len(self.exps)} exponents for {self.group.ncoords} "
                "generators")
        for k, d in enumerate(self.group.torsion):
            if (self.exps[self.group.rank + k] * d) % self.order != 0:
                raise InvalidCharacterError(
                    f"torsion generator {k} of order {d} mapped to "
                    f"exponent {self.exps[self.group.rank + k]} mod "
                    f"{self.order}")

    def exponent(self, coords):
        return sum(e * c for e, c in zip(self.exps, coords)) % self.order

    def on_generator(self, gen):
        """Exponent assigned to a beta-dual generator."""
        return self.exponent(
            self.group.projection[self.group.gens.index(gen)])

    def is_trivial(self):
        return all(e % self.order == 0 for e in self.exps)


def all_characters(group, order):
    """Every character of the group into Z/order, deterministic order."""
    choices = []
    for _ in range(group.rank):
        choices.append(range(order))
    for d in group.torsion:
        step = order // math.gcd(d, order)
        choices.append(range(0, order, step))
    out = []
    for exps in itertools.product(*choices):
        out.append(Character(group, order, tuple(exps)))
    return out


def evaluate(el, chi):
    """Ring-homomorphic evaluation of a group-ring element into the
    cyclotomic ring of the character's order."""
    if not el.group.same_shape(chi.group):
        raise GroupMismatchError("character on a different group")
    coeffs = [0] * chi.order
    for key, coeff in el.terms.items():
        coeffs[chi.exponent(key)] += coeff
    return CyclotomicScalar.from_coeffs(coeffs, chi.order)


# ---------------------------------------------------------------------------
# invariant classes (up to +- group element)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantClass:
    """A group-ring element modulo +-(group element), stored canonically."""

    representative: GroupRingElement

    @property
    def group(self):
        return self.representative.group

    def __str__(self):
        return str(self.representative)


def _free_shift(el):
    """Translate so the minimum exponent in each free coordinate is 0."""
    g = el.group
    if not el.terms:
        return el
    shift = [0] * g.ncoords
    for i in range(g.rank):
        shift[i] = -min(k[i] for k in el.terms)
    return el.translate(tuple(shift))


def canonical_class(el):
    """Among all +-g*el, fix the free translate by the minimum-exponent
    shift, then pick the torsion translate and sign whose flattened
    (key, coefficient) sequence is lexicographically extremal with a
    positive leading coefficient."""
    g = el.group
    if el.is_zero():
        return InvariantClass(el)
    candidates = []
    torsion_ranges = [range(d) for d in g.torsion]
    for tshift in itertools.product(*torsion_ranges):
        coords = tuple([0] * g.rank + list(tshift))
        shifted = _free_shift(el.translate(coords))
        for sign in (1, -1):
            cand = shifted * sign
            flat = cand.sorted_terms()
            if flat[0][1] > 0:
                candidates.append((tuple(c for _, c in flat),
                                   tuple(k for k, _ in flat), cand))
    candidates.sort(key=lambda t: (t[0], t[1]), reverse=True)
    return InvariantClass(candidates[0][2])


def class_equal(a, b):
    if not a.group.same_shape(b.group):
        raise GroupMismatchError(
            f"rank/torsion ({a.group.rank}, {a.group.torsion}) vs "
            f"({b.group.rank}, {b.group.torsion})")
    return a.representative.terms == b.representative.terms


# ---------------------------------------------------------------------------
# exact division in the Laurent ring (torsion-free groups)
# ---------------------------------------------------------------------------

def divide_by_element_minus_one(el, g_coords):
    """Exact division by (g - 1) in Z[Z^rank] for an infinite-order group
    element g; NotDivisible on any remainder.  Verified by re-multiplication.
    """
    group = el.group
    if group.torsion:
        raise NotDivisibleError("division requires a torsion-free group")
    if all(c == 0 for c in g_coords):
        raise NotDivisibleError("meridian has finite order")
    unit = GroupRingElement(group, {tuple(g_coords): 1,
                                    group.identity(): -1})
    q = GroupRingElement(group, _Laurent(el.terms) // _Laurent(unit.terms))
    if q * unit != el:
        raise NotDivisibleError("remainder after division")
    return q
