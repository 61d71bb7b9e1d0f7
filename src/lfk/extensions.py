"""Degree-p cyclic extensions attached to lines in the class spaces.

A Line is a nonzero coordinate vector over an adapted basis of
K*/(K*)^p (char 0, p-th roots of unity present) or of a windowed K+/wp(K+)
(char p), with its level and class representative a read off the vector;
only line_of(x) reduces, once.  E = K(x) with x^p = a resp. x^p - x = a is
cyclic of degree p.  No second field tower is built, because everything
downstream consumes only three things: the Galois action, the norm, and
the valuation.

E is held over an integral basis (Serre, Local Fields, I 6).  X = x - c
has the closed-form norm +/-R, R = a - c^p resp. a + c - c^p, so
w = v_K(R) is read in K: on a ramified line c is the first of 0, 1, -1
with w prime to p, and then w = v_E(X); on a level-0 line c = 1 resp. 0.
The basis is e_i = X^i pi^(-k_i), k_i = floor(i w/p), 0 <= i < p.  When E
is ramified, v_E(e_i) = i w mod p are distinct, so v_E(sum c_i e_i) is
min p v(c_i) + (i w mod p); when it is unramified, the e_i are units whose
residues are the powers of a residue generator, so it is min v(c_i).
Products fold X^p by (X + c)^p = a (+ X + c) through one table per
extension; sigma(X) = zeta X + (zeta - 1) c resp. X + 1 gives sigma(e_i)
of degree i, through one table per kind, c and w.  Norms are conjugate
products, with a hard check that no e_i component is left.

y_m = pi^(m // p) e_j, j w = m mod p, has valuation m in a ramified E;
y_1 is the uniformizer pi_E, whose norm must have valuation 1, and the
break is v_E(sigma(pi_E) - pi_E) - 1.  line_break gives it without E:
sigma(pi_E)/pi_E is a power prime to p of sigma(X)/X, whence break =
pc + v(a) - w (Kummer, v_E(zeta - 1) = pc) and break = -w (Artin-Schreier).  See Serre, Local Fields, IV 2, and
Fesenko-Vostokov, Local Fields and Their Extensions, III 2.  The
verifiers certify line_break against ramification_break on the frame of
the pairing matrix's certificate: the basis lines and their sum.
"""

import math

from .class_spaces import as_class_reduce, unit_class_reduce
from .errors import (
    DomainError,
    InternalError,
    PrecisionError,
    UnsupportedCaseError,
)
from .local_arith import INF, val


class Line:
    """A 1-dimensional subspace of the class space: a nonzero coordinate
    vector vec over a first-argument adapted basis, K*/(K*)^p in char 0 and
    a windowed K+/wp(K+) in char p.

    level is the line's distance from the deep end of the filtration, read
    off the slots with nonzero coordinates: for mult lines pc minus the
    least such slot level (so the uniformizer line has level pc and the
    boundary line level 0), for add lines the deepest such pole.  Level 0
    lines are exactly the ones whose extension is unramified.  a is the
    class representative basis.combination(vec), which defines the
    attached extension; line_of hands in the one its descent produced.
    """

    __slots__ = ("basis", "ctx", "space", "vec", "level", "a")

    def __init__(self, basis, vec, a=None):
        self.basis, self.ctx, self.space = basis, basis.ctx, basis.space
        self.vec = tuple(c % self.ctx.p for c in vec)
        if len(self.vec) != basis.dim():
            raise DomainError("a line over %r needs %d coordinates" % (basis, basis.dim()))
        levels = [lvl for c, lvl in zip(self.vec, basis.levels()) if c]
        if not levels:
            raise DomainError("a line needs a nontrivial class")
        if basis.space == "add":
            self.level = max(levels)
        elif self.ctx.pc is None:
            raise UnsupportedCaseError(
                "no boundary index: levels (and Kummer extensions) need the "
                "p-th roots of unity in the base field"
            )
        else:
            self.level = self.ctx.pc - min(levels)
        self.a = basis.combination(self.vec) if a is None else a

    @property
    def label(self):
        return "".join(map(str, self.vec))

    def __repr__(self):
        return "Line(%s, %s, %s, level=%s)" % (
            self.ctx.field_label(), self.space, self.label, self.level
        )


def line_of(x):
    """The line spanned by the class of x, in the mult quotient in char 0 and
    in the add quotient in char p; DomainError if the class is trivial.

    Its basis, coordinates and representative come off one reduction of x
    with no window: the whole mult quotient in char 0, and in char p the
    additive basis whose window is the line's level."""
    if x.ctx.characteristic == 0:
        red, what = unit_class_reduce(x), "a p-th power"
    else:
        red, what = as_class_reduce(x), "in wp(K)"
    if red.is_trivial():
        raise DomainError("a line needs a nontrivial class; input is %s" % what)
    return Line(red.basis, red.coords.coords, red.normalized_rep)


class ExtElement:
    """An element of E: its p coefficients in K over the integral basis
    e_0, ..., e_(p-1) of its extension."""

    __slots__ = ("ext", "coeffs")

    def __init__(self, ext, coeffs):
        self.ext = ext
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != ext.base.p:
            raise InternalError("extension element needs exactly p coefficients")

    def add(self, other):
        return ExtElement(self.ext, [a.add(b) for a, b in zip(self.coeffs, other.coeffs)])

    def neg(self):
        return ExtElement(self.ext, [a.neg() for a in self.coeffs])

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        """Multiply by a base-field element."""
        zero = self.ext.zero
        return ExtElement(self.ext, [a if a is zero else a.mul(c) for a in self.coeffs])

    def mul(self, other):
        """e_i e_j = X^(i+j) pi^-(k_i + k_j): the coefficient products are
        summed by that key, and each sum is expanded once by its row of the
        product table."""
        E = self.ext
        k, sums = E._k, {}
        right = [(j, b) for j, b in enumerate(other.coeffs) if b is not E.zero]
        for i, a in enumerate(self.coeffs):
            for j, b in right if a is not E.zero else ():
                key, term = (i + j, k[i] + k[j]), a.mul(b)
                sums[key] = term if key not in sums else sums[key].add(term)
        return E._combine((s, E._product_row(*key)) for key, s in sums.items())

    def powi(self, n):
        if n < 0:
            raise DomainError("negative powers need division in E; not supported")
        if n == 0:
            return self.ext.embed(self.ext.base.one())
        out = self
        for bit in bin(n)[3:]:
            out = out.mul(out)
            if bit == "1":
                out = out.mul(self)
        return out

    def is_zero_to_precision(self):
        return all(c.is_zero_to_precision() for c in self.coeffs)

    def truncate(self, P):
        """Cap every coefficient at absolute precision P (tames exact series)."""
        return ExtElement(self.ext, [c.truncate(P) for c in self.coeffs])

    def __repr__(self):
        return "ExtElement(%s)" % (", ".join(repr(c) for c in self.coeffs),)


class DegreePExtension:
    """E = K[x]/(x^p - a) or K[x]/(x^p - x - a), cyclic of degree p over K,
    attached to a line: K, the kind and a are read off the line, and E is
    held over the integral basis e_i = (x - c)^i pi^(-k_i).

    Immutable: the uniformizer and the ramification break are computed at
    construction, which attach_extension runs once per line per field,
    keyed by the line's vector.  Irreducibility of the defining polynomial
    is equivalent to nontriviality of the line's class, which its nonzero
    coordinate vector over a certified basis guarantees.
    """

    __slots__ = ("base", "kind", "line", "a", "is_unramified", "c", "w", "_k", "_powers", "_products",
                 "_sigma", "uniformizer", "ramification_break", "zero")

    def __init__(self, line):
        self.base = base = line.ctx
        self.kind = _kind(line)
        self.line = line
        self.a = line.a
        self.is_unramified = line.level == 0
        # The one padding zero of coefficients that are zero by construction:
        # arithmetic tells it apart by identity and skips it, as an exact 0.
        # Its char-0 precision tag is only the representation's cap.
        self.zero = base.zero() if base.characteristic else base.zero(10**9)
        if self.is_unramified:
            self.c = 1 if self.kind == "kummer" else 0
        else:
            self.c, _ = _uniformizer_candidate(base, self.kind, self.a)
        R, self.w = _relation_constant(base, self.kind, self.a, self.c)
        self._k = [i * self.w // base.p for i in range(base.p)]
        self._powers = self._folded_powers(R)
        self._products = {}
        self._sigma = self._galois_table()
        # the one conjugate-product self-check: N(e_1) is a unit when E is
        # unramified, and N(y_1) has valuation 1 when it is ramified
        check = self._basis_element(1, 0) if self.is_unramified else self._of_valuation(1)
        if val(self.norm(check)) != (0 if self.is_unramified else 1):
            raise InternalError("the norm of %r has the wrong valuation" % (check,))
        self.uniformizer = self.embed(base.pi()) if self.is_unramified else check
        moved = self.galois_apply(self.uniformizer).sub(self.uniformizer)
        self.ramification_break = -1 if self.is_unramified else self.ext_val(moved) - 1

    # ------------------------------------------------------------ structure

    def embed(self, c):
        return ExtElement(self, [c] + [self.zero] * (self.base.p - 1))

    def gen(self):
        """x = c + pi^(k_1) e_1."""
        out = self._basis_element(1, self._k[1])
        return out.add(self.embed(self.base.from_int(self.c))) if self.c else out

    def galois_apply(self, z, s=1):
        """The s-th power of the canonical generator sigma of Gal(E|K),
        x -> zeta x (Kummer) resp. x -> x + 1 (Artin-Schreier): sigma
        applied s times."""
        for _ in range(s % self.base.p):
            z = self._combine((c, self._sigma[i]) for i, c in enumerate(z.coeffs) if c is not self.zero)
        return z

    def norm(self, z):
        """N_{E|K}(z), the product of z's successive conjugates.  A nonzero z
        whose norm vanishes to working precision is a PrecisionError."""
        if z.is_zero_to_precision():
            raise DomainError("norm of zero (or of a truncation of zero)")
        acc = conj = z
        for _ in range(self.base.p - 1):
            conj = self.galois_apply(conj)
            acc = acc.mul(conj)
        if not all(c.is_zero_to_precision() for c in acc.coeffs[1:]):
            raise InternalError("conjugate product left the base field")
        if acc.coeffs[0].is_zero_to_precision():
            raise PrecisionError("norm vanished to working precision")
        return acc.coeffs[0]

    def ext_val(self, z):
        """The normalized valuation of E (image exactly Z), read off the
        coefficients (module docstring); PrecisionError unless it lies
        below every coefficient's precision."""
        p = self.base.p
        scale, w = (1, 0) if self.is_unramified else (p, self.w)
        least = known = INF
        for i, c in enumerate(z.coeffs):
            least = min(least, scale * val(c) + i * w % p)
            known = min(known, scale * c.P + i * w % p)
        if least >= known:
            raise PrecisionError("element vanished to working precision; cannot read v_E")
        return int(least)

    # ------------------------------------------------------------ tables

    def _combine(self, terms):
        """The sum of s * row over the (s, row) pairs, a row being (slot,
        coefficient) pairs in which None is an exact 1."""
        out = [None] * self.base.p
        for s, row in terms:
            for slot, coef in row:
                t = s if coef is None else s.mul(coef)
                out[slot] = t if out[slot] is None else out[slot].add(t)
        return ExtElement(self, [self.zero if t is None else t for t in out])

    def _folded_powers(self, R):
        """X^(p+j), 0 <= j < p - 1, over 1, X, ..., X^(p-1), as {slot: coefficient}:
        X^p = (X + c)^p - sum_(l<p) C(p, l) c^(p-l) X^l with (X + c)^p = a
        (+ X + c), and each further factor X folds the top slot by X^p."""
        ctx, p = self.base, self.base.p
        ints = [-math.comb(p, l) * self.c ** (p - l) for l in range(p)]
        if self.kind == "artin_schreier":
            ints[1] += 1
        # the exact integer coefficients, less those that vanish in char p
        top = {l: ctx.from_int(n, INF) for l, n in enumerate(ints) if l}
        top = {l: v for l, v in top.items() if not v.is_zero_to_precision()}
        top[0] = R
        rows = [top]
        for _ in range(p - 2):
            last = rows[-1]
            row = {s + 1: v for s, v in last.items() if s + 1 < p}
            for s, v in top.items() if p - 1 in last else ():
                t = v.mul(last[p - 1])
                row[s] = t if s not in row else row[s].add(t)
            rows.append(row)
        return rows

    def _product_row(self, d, k):
        """X^d pi^-k over the basis, d < 2p - 1, built on first use."""
        row = self._products.get((d, k))
        if row is None:
            terms = {d: None} if d < self.base.p else self._powers[d - self.base.p]
            row = self._products[d, k] = [(s, _pi_scaled(self.base, c, self._k[s] - k)) for s, c in terms.items()]
        return row

    def _galois_table(self):
        """sigma(e_i) = pi^(-k_i) sigma(X)^i over the basis, for each i,
        shared in ctx.cache by every extension of the same kind, c and w."""
        ctx, p, k = self.base, self.base.p, self._k
        key = ("sigma", self.kind, self.c, self.w)
        if key not in ctx.cache:
            one, zero = ctx.one(INF), ctx.zero(INF)
            if self.kind == "kummer":  # sigma(X) = zeta X + (zeta - 1) c
                rot, lift = ctx.zeta, ctx.zeta.sub(one).scale_int(self.c)
            else:  # sigma(X) = X + 1
                rot, lift = one, one
            power, table = [one], []  # sigma(X)^i over 1, X, ..., X^i
            for i in range(p):
                table.append([
                    (l, None if l == i and (i == 0 or rot is one) else _pi_scaled(ctx, c, k[l] - k[i]))
                    for l, c in enumerate(power) if not c.is_zero_to_precision()
                ])
                power = [a.mul(lift).add(b.mul(rot)) for a, b in zip(power + [zero], [zero] + power)]
            ctx.cache[key] = table
        return ctx.cache[key]

    # ------------------------------------------------------------ elements of given valuation

    def _basis_element(self, j, k):
        """pi^k e_j."""
        coeffs = [self.zero] * self.base.p
        coeffs[j] = self.base.one().shift(k)
        return ExtElement(self, coeffs)

    def _of_valuation(self, m):
        """y_m = pi^(m // p) e_j of valuation m in a ramified E: v_E(e_j) =
        j w mod p, which is m mod p for j = m w^-1 mod p."""
        p = self.base.p
        return self._basis_element(m * pow(self.w, -1, p) % p, m // p)

    def __repr__(self):
        shape = "x^p - a" if self.kind == "kummer" else "y^p - y - a"
        return "DegreePExtension(%s, %s, %s, break=%d)" % (
            self.base.field_label(), self.kind, shape, self.ramification_break)


def _pi_scaled(ctx, coef, n):
    """coef pi^n, coef None being an exact 1, which stays None when n = 0."""
    if coef is None and n == 0:
        return None
    return (ctx.one(INF) if coef is None else coef).shift(n)


def _kind(line):
    """The kind of extension attached to a line: Artin-Schreier over an add
    line, Kummer over a mult line, which needs the p-th roots of unity.

    Its defining constant is line.a, the class representative
    pi^(v mod p) * prod g_i^c_i (char 0) resp. sum c_i g_i (char p) at
    working precision, so equal classes give identical defining polynomials.
    """
    if line.space == "add":
        return "artin_schreier"
    if not line.ctx.mu_p_present:
        raise UnsupportedCaseError(
            "Kummer extensions need the p-th roots of unity in the base field"
        )
    return "kummer"


def attach_extension(line):
    """The degree-p cyclic extension attached to a nontrivial line.

    One extension per line per field, keyed in line.ctx.cache by the
    line's vector (_line_key): the CLI, the library and the verifiers all
    read the one built first.  The vector is not rescaled, so E.a is the
    caller's class representative line.a."""
    cache, key = line.ctx.cache, ("ext",) + _line_key(line)
    if key not in cache:
        cache[key] = DegreePExtension(line)
    return cache[key]


def _line_key(line):
    """The line's coordinate vector cut after its last nonzero slot, so an
    add line's key does not depend on the window it was read over."""
    last = max(i for i, c in enumerate(line.vec) if c)
    return line.vec[: last + 1]


def ramification_break(ext):
    return ext.ramification_break


def _relation_constant(ctx, kind, a, c):
    """(R, w): R = a - c^p, resp. a + c - c^p, and its valuation w.

    X = x - c satisfies X^p = R + (terms of degree 1 to p - 1 in X), so the
    closed-form norm of X is N(X) = +/-R, for x^p = a and for x^p - x = a
    alike.  A norm that vanishes to working precision is a PrecisionError.
    """
    R = a.sub(ctx.from_int(c**ctx.p))
    if kind == "artin_schreier":
        R = R.add(ctx.from_int(c))
    w = val(R)
    if w == INF:
        raise PrecisionError("norm vanished to working precision; cannot read v_E")
    return R, int(w)


def _uniformizer_candidate(ctx, kind, a):
    """(c, w): the first c of 0, 1, -1 whose uniformizer candidate x - c
    has a norm valuation w prime to p (_relation_constant)."""
    for c in (0, 1, -1):
        _, w = _relation_constant(ctx, kind, a, c)
        if w % ctx.p:
            return c, w
    raise InternalError(
        "no generator-based candidate has valuation prime to p; "
        "this signals a precision or irreducibility bug"
    )


def line_break(line):
    """The ramification break of the extension attached to line, without E.

    -1 at level 0.  Otherwise the norm valuation w of the uniformizer
    candidate x - c (_uniformizer_candidate) gives the break: pc + v(a) - w
    for x^p = a, -w for y^p - y = a.
    """
    kind = _kind(line)
    if line.level == 0:
        return -1
    _, w = _uniformizer_candidate(line.ctx, kind, line.a)
    return line.ctx.pc + int(val(line.a)) - w if kind == "kummer" else -w
