"""Fox calculus over free groups and exact group-ring arithmetic.

The fundamental group of a diagram is presented on the beta-curve duals with
one relation per closed alpha curve.  Its abelianization is computed by an
integer Smith normal form; group-ring elements are finitely supported integer
maps on the normal-form coordinates (free exponents first, then torsion
residues).  Determinants are taken in the Laurent lift, a domain, even
where torsion gives Z[H_1] zero divisors: Kronecker substitution packs each
lifted entry into one integer, and fraction-free elimination runs on the
integers (:func:`determinant`).

The Fox matrix reads each closed alpha's crossings twice: once for its
relator (:func:`homology`), and once in one walk (:func:`_walk`, the only
statement of the class rule) that classes each crossing and adds its sign
to entry (a, b) = sum sign * t^class over the crossings of a with b, keyed
already in normal form.  The word-level
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
from operator import add, mod, mul, sub

from .cyclotomic import CyclotomicScalar
from .diagram import FreeWord, fraction_free_det
from .errors import (GroupMismatchError, InvalidCharacterError,
                     NonSquareError, NotDivisibleError, UnknownCurveError,
                     UnknownGeneratorError)


# ---------------------------------------------------------------------------
# Fox derivative
# ---------------------------------------------------------------------------

def fox_derivative(word, gen):
    """List of (prefix word, sign): one signed word per occurrence of
    gen^{+-1}.  For a positive occurrence the word is the bare prefix; for a
    negative one the prefix times gen^{-1}."""
    return [(FreeWord(word.letters[:j + (e < 0)]), e)
            for j, (g, e) in enumerate(word.letters) if g == gen]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(rows, ncols):
    """Return (diag, V, Vinv) with U*R*V = D for unimodular U, V.

    Only the column transform is kept: V maps original coordinates to
    normal-form coordinates (x -> x V), and Vinv sections them back.
    ``diag`` lists the invariant factors d_1 | d_2 | ... (zeros trimmed).

    R's rows and V's rows share one list, so each column operation is one
    walk over both, and row operations change R's rows in place.  One
    routine clears row and column t and makes the pivot positive: the
    main pass calls it after its pivot search, and the divisibility repair
    after adding column i + 1 to column i, at i and at i + 1.
    """
    m, n = len(rows), ncols
    a = [list(r) + [0] * (n - len(r)) for r in rows]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    stack = a + v

    def col_op(j, k, q):
        # col_k -= q * col_j  on a and v;  row_j += q * row_k on vinv
        for r in stack:
            r[k] -= q * r[j]
        for t in range(n):
            vinv[j][t] += q * vinv[k][t]

    def col_swap(j, k):
        for r in stack:
            r[j], r[k] = r[k], r[j]
        vinv[j], vinv[k] = vinv[k], vinv[j]

    def clear(t):
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for s in range(n):      # in place: the row is stacked
                        a[i][s] -= q * a[t][s]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    col_op(t, j, a[t][j] // a[t][t])
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
        if a[t][t] < 0:
            for r in stack:
                r[t] = -r[t]
            vinv[t] = [-x for x in vinv[t]]

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
        clear(t)
        t += 1

    # enforce the divisibility chain by 2x2 repairs
    rank = t
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if a[i + 1][i + 1] % a[i][i] != 0:
                col_op(i + 1, i, -1)   # col_i += col_{i+1}
                clear(i)
                clear(i + 1)
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
        return self.normalize([sum(map(mul, exponents, column))
                               for column in zip(*self.projection)])

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
        return tuple(sum(c * row[g] for c, row in zip(coords, self.section))
                     for g in range(len(self.gens)))

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
    """H_1 presented on the beta duals with one relation per closed alpha,
    its crossings' signs summed at their betas in one read of its order."""
    gens = diag.beta_generators()
    pos = {g: i for i, g in enumerate(gens)}
    rows = []
    for c in diag.closed_alphas:
        row = [0] * len(gens)
        for x in _crossings(diag, c.order):
            if x.beta not in pos:
                raise UnknownGeneratorError(x.beta)
            row[pos[x.beta]] += x.sign
        rows.append(row)
    return presented_group(gens, rows)


def _crossings(diag, order):
    """The crossings of a sequence of ids (UnknownCurveError for an id the
    diagram lacks, as ``diag.crossing`` raises)."""
    index = diag.crossing_index
    try:
        return [index[xid] for xid in order]
    except KeyError as err:
        raise UnknownCurveError(f"crossing {err.args[0]}") from None


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
    def _normal(cls, group, terms):
        """An element on terms already in normal form, none of them zero."""
        el = object.__new__(cls)
        el.group, el.terms = group, terms
        return el

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
        word_or_terms = [(word_or_terms, 1)]
    return sum((GroupRingElement.monomial(group, group.project_word(w), s)
                for w, s in word_or_terms), GroupRingElement.zero(group))


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
    text = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


# ---------------------------------------------------------------------------
# Fox matrix, determinant, multipoint expansion
# ---------------------------------------------------------------------------

def _walk(group, crossings, cols):
    """The one walk along a closed alpha from its basepoint, for its
    crossings' classes in H_1 and its Fox row.  The class rule: a
    crossing's class is that of the word up to its own basepoint, which
    sits before a positive crossing and after a negative one.  The running
    class is kept in normal form; each crossing's sign is added at its
    class to the row's entry at column ``cols[beta]``, if any."""
    step = dict(zip(group.gens, group.projection))
    tidy = group.normalize if group.torsion else tuple
    acc, classes, row = group.identity(), [], [{} for _ in cols]
    for x in crossings:
        if x.beta not in step:
            raise UnknownGeneratorError(x.beta)
        if x.sign > 0:
            k, acc = acc, tidy(map(add, acc, step[x.beta]))
        else:
            k = acc = tidy(map(sub, acc, step[x.beta]))
        classes.append(k)
        if x.beta in cols:
            entry = row[cols[x.beta]]
            entry[k] = entry.get(k, 0) + x.sign
    return classes, row


def crossing_classes(diag, group):
    """Crossing id -> class in H_1 (:func:`_walk`) on the closed alphas."""
    return {xid: k for c in diag.closed_alphas for xid, k in zip(
        c.order, _walk(group, _crossings(diag, c.order), {})[0])}


def multipoint_class(diag, group, picks):
    """The sum in H_1 of the picks' crossing classes, each pick's alpha
    walked only up to the pick."""
    total = group.identity()
    for xid in picks:
        order = diag.curve(diag.crossing(xid).alpha).order
        if xid not in order:
            raise UnknownCurveError(f"crossing {xid} is not on its alpha")
        upto = _crossings(diag, order[:order.index(xid) + 1])
        total = tuple(map(add, total, _walk(group, upto, {})[0][-1]))
    return group.normalize(total)


def fox_matrix(diag, group=None):
    """Matrix of abelianized Fox derivatives: rows the closed alpha words,
    columns the closed beta duals, entries in Z[H_1], one :func:`_walk`
    per row.  Its classes are in normal form, so the entries are taken as
    they are, zero sums dropped."""
    group = group or homology(diag)
    cols = {c.id: j for j, c in enumerate(diag.closed_betas)}
    rows = []
    for a in diag.closed_alphas:
        row = _walk(group, _crossings(diag, a.order), cols)[1]
        rows.append([GroupRingElement._normal(group, e if all(e.values())
                                              else {k: c for k, c in e.items()
                                                    if c}) for e in row])
    return rows


def determinant(mat):
    """det of a square matrix over Z[H_1], one integer per entry.

    The entries are lifted to Laurent polynomials, one free variable t_v
    per coordinate (torsion too).  For each v, every row or else every
    column, whichever has the smaller span_v (the spread max - min of the
    t_v exponents summed over the lines), is multiplied by the power of
    t_v that makes its least exponent 0; every minor then has t_v
    exponents in [0, span_v].  B, the lesser product of the row or of the
    column l1 norms, bounds every coefficient of every minor.  With
    ``bits = B.bit_length() + 1``, t_v -> 2^(bits * stride_v), stride_v =
    prod_{u<v} (span_u + 1), makes each entry one integer, and
    fraction-free elimination runs on the integers.

    Exact because substitution is a ring homomorphism, so every division
    stays exact, and every pivot and entry the elimination reads is a
    minor: its exponents lie in the box and its coefficients below
    2^(bits - 1) in absolute value, so it is 0 exactly when its integer is,
    and its balanced base-2^bits digits are its coefficients.  The digits
    of the result, shifted back by the summed line shifts, project to
    Z[H_1].  A zero row or column gives 0 at once.

    Cost: every integer is dense in the box, prod_v (span_v + 1) * bits
    bits.  That suits small rank (at most 3 in the corpus and its grown
    families); a rank-r group wide in every coordinate pays span^r."""
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise NonSquareError(f"{len(row)} columns in a {n}-row matrix")
    if n == 0:
        raise NonSquareError("empty matrix has no ring context here")
    group = mat[0][0].group
    rows = [[el.terms for el in row] for row in mat]
    # each line's keys and l1 norm in one pass: rows 0..n-1, columns n..2n-1
    keys, norms = [[] for _ in range(2 * n)], [0] * (2 * n)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row, n):
            if entry:
                norm = sum(map(abs, entry.values()))
                for t in (i, j):
                    keys[t] += entry
                    norms[t] += norm
    if 0 in norms:                              # a zero row or column
        return GroupRingElement.zero(group)
    coords = [list(zip(*line)) for line in keys]
    lows = [tuple(map(min, c)) for c in coords]
    spreads = [tuple(map(sub, map(max, c), lo)) for c, lo in zip(coords, lows)]
    row_spans, col_spans = ([sum(s) for s in zip(*spreads[k:k + n])]
                            for k in (0, n))
    by_row = [r <= c for r, c in zip(row_spans, col_spans)]
    spans = list(map(min, row_spans, col_spans))
    strides = [math.prod(s + 1 for s in spans[:v]) for v in range(len(spans))]
    bits = min(math.prod(norms[:n]), math.prod(norms[n:])).bit_length() + 1
    on_rows = [s if r else 0 for s, r in zip(strides, by_row)]
    on_cols = list(map(sub, strides, on_rows))
    row_offs = [sum(map(mul, low, on_rows)) for low in lows[:n]]
    col_offs = [sum(map(mul, low, on_cols)) for low in lows[n:]]
    det = fraction_free_det([
        [sum(c << bits * (sum(map(mul, k, strides)) - ro - co)
             for k, c in entry.items())
         for entry, co in zip(row, col_offs)]
        for row, ro in zip(rows, row_offs)])
    shift = [sum(low[v] for low in (lows[:n] if r else lows[n:]))
             for v, r in enumerate(by_row)]
    terms, base = {}, 1 << bits
    box = [range(low, low + span + 1) for low, span in zip(shift, spans)]
    for key in itertools.product(*box[::-1]):   # t_0 varies fastest
        if not det:
            break
        digit = det & (base - 1)
        det >>= bits
        if 2 * digit >= base:
            digit -= base
            det += 1
        if digit:
            terms[key[::-1]] = digit
    return GroupRingElement(group, terms)


def fox_determinant(diag, group=None):
    """det of the Fox matrix; the empty (d = 0) determinant is 1."""
    group = group or homology(diag)
    if not diag.closed_alphas:
        return GroupRingElement.one(group)
    return determinant(fox_matrix(diag, group))


def multipoint_expansion(diag, group=None):
    """Sum over multipoints of sign times the multipoint's class
    (:func:`multipoint_class`)."""
    from .diagram import enumerate_multipoints, multipoint_sign
    group = group or homology(diag)
    total = GroupRingElement.zero(group)
    for mp in enumerate_multipoints(diag):
        total = total + GroupRingElement.monomial(
            group, multipoint_class(diag, group, mp.picks),
            multipoint_sign(diag, mp))
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


def character_exponents(group, order):
    """The exponents a character into Z/order may give each normal-form
    coordinate: all on Z, the multiples of order / gcd(d, order) on Z/d."""
    return [range(order)] * group.rank + [
        range(0, order, order // math.gcd(d, order)) for d in group.torsion]


def all_characters(group, order):
    """Every character of the group into Z/order, deterministic order."""
    return [Character(group, order, exps) for exps in
            itertools.product(*character_exponents(group, order))]


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


def canonical_class(el):
    """Among all +-g*el, fix the free translate by the minimum-exponent
    shift, then pick the torsion translate and sign whose flattened
    (key, coefficient) sequence is lexicographically extremal with a
    positive leading coefficient.  Each translate is taken on the term
    keys, sorted once; the greatest (coefficients, keys) pair is kept."""
    g = el.group
    if el.is_zero():
        return InvariantClass(el)
    low = [min(k[i] for k in el.terms) for i in range(g.rank)]
    terms = [(tuple(map(sub, k[:g.rank], low)), k[g.rank:], c)
             for k, c in el.terms.items()]
    best = None
    for tshift in itertools.product(*map(range, g.torsion)):
        keys, coeffs = zip(*sorted(
            (free + tuple(map(mod, map(add, tors, tshift), g.torsion)), c)
            for free, tors, c in terms))
        sign = 1 if coeffs[0] > 0 else -1
        cand = (tuple(sign * c for c in coeffs), keys)
        best = cand if best is None else max(best, cand)
    coeffs, keys = best
    return InvariantClass(GroupRingElement(g, dict(zip(keys, coeffs))))


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
