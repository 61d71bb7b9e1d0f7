"""Degree-p cyclic extensions attached to lines in the class spaces.

A Line is a nonzero coordinate vector over an adapted basis of
K*/(K*)^p (char 0, p-th roots of unity present) or of a windowed K+/wp(K+)
(char p), with its level and class representative a read off the vector;
only line_of(x) reduces, once.  E = K(a^(1/p)) resp. E = K(wp^(-1)(a)) is
cyclic of degree p, represented as polynomials of degree < p in the
generator: no second field tower is built, because everything downstream
consumes only three things — the Galois action, the norm, and the valuation.

Norms are conjugate products: N(z) = prod sigma^i(z) computed in E, with a
hard check that the result has no generator component left.  The valuation
on E is v_K(N(z)), divided by p for unramified E (where the conjugates all
share the value of z).  The ramification break is read off directly as
v_E(sigma(pi_E) - pi_E) - 1.

The norm of x - c is a closed form, +/-(c^p - a) for x^p = a and
+/-(c^p - c - a) for y^p - y = a, so the valuation w of the uniformizer
candidate x - c is read in K, and _of_valuation builds an element of any
valuation m as (x - c)^j pi^k; the uniformizer is its m = 1 Bezout
combination, checked to have valuation 1 in E.  line_break gives the break
without building E: sigma(pi_E)/pi_E is a power prime to p of
sigma(x - c)/(x - c), whence break = pc + v(a) - w (Kummer,
v_E(zeta - 1) = pc) and break = -w (Artin-Schreier).  See Serre, Local
Fields, IV 2, and Fesenko-Vostokov, Local Fields and Their Extensions,
III 2.  The verifiers certify line_break against ramification_break on the
frame of the pairing matrix's certificate: the basis lines and their sum.
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
    """An element of E as a polynomial of degree < p in the generator."""

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
        p = self.ext.base.p
        zero = self.ext.zero
        prod = [None] * (2 * p - 1)
        for i, a in enumerate(self.coeffs):
            if a is zero:
                continue
            for j, b in enumerate(other.coeffs):
                if b is zero:
                    continue
                term = a.mul(b)
                prod[i + j] = term if prod[i + j] is None else prod[i + j].add(term)
        return ExtElement(self.ext, self.ext._reduce_poly(prod))

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
    """E = K[x]/(x^p - a) or K[y]/(y^p - y - a), cyclic of degree p over K,
    attached to a line: K, the kind and a are read off the line.

    Immutable: the uniformizer and the ramification break are computed at
    construction, which attach_extension runs once per line per field,
    keyed by the line's vector.  Irreducibility of the defining polynomial
    is equivalent to nontriviality of the line's class, which its nonzero
    coordinate vector over a certified basis guarantees.
    """

    __slots__ = (
        "base",
        "kind",
        "line",
        "a",
        "is_unramified",
        "uniformizer",
        "ramification_break",
        "_zeta_pows",
        "zero",
    )

    def __init__(self, line):
        self.base = base = line.ctx
        self.kind = _kind(line)
        self.line = line
        self.a = line.a
        self.is_unramified = line.level == 0
        # The one padding zero of generator coefficients that are zero by
        # construction.  Arithmetic tells it apart by identity (an exact
        # char-p zero has infinite precision too) and skips it: it stands
        # for an exact 0, so products with it add nothing.  Its char-0
        # precision tag is only the representation's cap.
        self.zero = base.zero() if base.characteristic else base.zero(10**9)
        if self.kind == "kummer":
            zeta = base.zeta
            pows = [base.one()]
            for _ in range(base.p - 1):
                pows.append(pows[-1].mul(zeta))
            self._zeta_pows = pows
        else:
            self._zeta_pows = None
        self.uniformizer = self._find_uniformizer()
        self.ramification_break = self._break()

    # ------------------------------------------------------------ structure

    def embed(self, c):
        return ExtElement(self, [c] + [self.zero] * (self.base.p - 1))

    def gen(self):
        coeffs = [self.zero] * self.base.p
        coeffs[1] = self.base.one()
        return ExtElement(self, coeffs)

    def _reduce_poly(self, prod):
        """Fold degrees >= p using the defining relation, top down."""
        ctx = self.base
        p = ctx.p
        for d in range(2 * p - 2, p - 1, -1):
            c = prod[d]
            if c is None:
                continue
            prod[d] = None
            low = c.mul(self.a)
            prod[d - p] = low if prod[d - p] is None else prod[d - p].add(low)
            if self.kind == "artin_schreier":
                # gen^p = gen + a, so gen^d picks up gen^(d-p+1) as well
                prod[d - p + 1] = c if prod[d - p + 1] is None else prod[d - p + 1].add(c)
        return [self.zero if c is None else c for c in prod[:p]]

    def galois_apply(self, z, s=1):
        """The s-th power of the canonical generator sigma of Gal(E|K).

        Kummer: gen -> zeta^s gen.  Artin-Schreier: gen -> gen + s.
        """
        ctx = self.base
        p = ctx.p
        s %= p
        if s == 0:
            return z
        # coefficients that are multiplied by 1 (zeta^0, binomial weight 1)
        # and padding zeros are left as they are
        if self.kind == "kummer":
            return ExtElement(
                self,
                [
                    c if i == 0 or c is self.zero else c.mul(self._zeta_pows[(s * i) % p])
                    for i, c in enumerate(z.coeffs)
                ],
            )
        out = [None] * p
        for i, c in enumerate(z.coeffs):
            if c is self.zero:
                continue
            for j in range(i + 1):
                w = math.comb(i, j) * pow(s, i - j) % p
                if w == 0:
                    continue
                term = c if w == 1 else c.scale_int(w)
                out[j] = term if out[j] is None else out[j].add(term)
        return ExtElement(self, [self.zero if c is None else c for c in out])

    def norm(self, z):
        """N_{E|K}(z) as the product of z over all conjugates."""
        if z.is_zero_to_precision():
            raise DomainError("norm of zero (or of a truncation of zero)")
        acc = z
        for s in range(1, self.base.p):
            acc = acc.mul(self.galois_apply(z, s))
        for c in acc.coeffs[1:]:
            if not c.is_zero_to_precision():
                raise InternalError("conjugate product left the base field")
        return acc.coeffs[0]

    def ext_val(self, z):
        """The normalized valuation of E (image exactly Z)."""
        n = self.norm(z)
        v = val(n)
        if v == INF:
            raise PrecisionError("norm vanished to working precision; cannot read v_E")
        v = int(v)
        if self.is_unramified:
            if v % self.base.p:
                raise InternalError("norm valuation not divisible by p on an unramified extension")
            return v // self.base.p
        return v

    # ------------------------------------------------------------ construction helpers

    def _find_uniformizer(self):
        """pi when E is unramified, else y_1 of _of_valuation, checked."""
        if self.is_unramified:
            return self.embed(self.base.pi())
        out = self._of_valuation(1)
        if self.ext_val(out) != 1:
            raise InternalError("Bezout combination missed valuation 1")
        return out

    def _of_valuation(self, m):
        """y_m = (x - c)^j pi^k of valuation j w + p k = m in a ramified E,
        where w = v_E(x - c) is prime to p (_uniformizer_candidate) and
        0 <= j < p; built afresh, not as a power of y_1, it keeps its digits."""
        ctx = self.base
        c, w = _uniformizer_candidate(ctx, self.kind, self.a)
        j = m * pow(w, -1, ctx.p) % ctx.p
        xc = self.gen().sub(self.embed(ctx.from_int(c))) if c else self.gen()
        return xc.powi(j).scale(ctx.one().shift((m - j * w) // ctx.p))

    def _break(self):
        if self.is_unramified:
            return -1
        moved = self.galois_apply(self.uniformizer)
        return self.ext_val(moved.sub(self.uniformizer)) - 1

    def __repr__(self):
        shape = "x^p - a" if self.kind == "kummer" else "y^p - y - a"
        return "DegreePExtension(%s, %s, %s, break=%d)" % (
            self.base.field_label(),
            self.kind,
            shape,
            self.ramification_break,
        )


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


def _uniformizer_candidate(ctx, kind, a):
    """(c, w): the first c of 0, 1, -1 whose uniformizer candidate x - c
    has a norm valuation w prime to p, read off the closed-form norm
    N(x - c) = +/-(c^p - a) for x^p = a, N(y - c) = +/-(c^p - c - a) for
    y^p - y = a.  A norm that vanishes to working precision is a
    PrecisionError, as in ext_val.
    """
    p = ctx.p
    for c in (0, 1, -1):
        cp = ctx.from_int(c**p)
        n = cp.sub(a) if kind == "kummer" else cp.sub(ctx.from_int(c)).sub(a)
        w = val(n)
        if w == INF:
            raise PrecisionError("norm vanished to working precision; cannot read v_E")
        if int(w) % p:
            return c, int(w)
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
