"""Exact, precision-tracked arithmetic in a p-field K.

Two implementations sit behind one interface:

* characteristic 0 — K is a two-step tower: the unramified part is
  W = Z_p[w]/(m(w)) with m a monic integer lift of the residue polynomial,
  and K = W[x]/(E(x)) for a monic Eisenstein E.  An element is

      z = p^t * sum_{a<f, b<e} c[a][b] * w^a * x^b

  with integer coefficients kept modulo at most p^Np for a generous,
  context-wide Np.  The logical precision P ("known modulo pi^P") is
  tracked separately and never silently decreased: a digit that is not
  determined raises PrecisionError instead of being invented.  Valuations
  are exact because the x-degrees are distinct modulo e, so no cross-term
  cancellation can hide the leading monomial.

  The normal form: num has a coefficient prime to p, or is 0, and the
  element stores b, the pi-valuation of num (b < e, INF for a zero num),
  so its valuation is e*t + b.  Two nums whose b's sum to e or more have a
  product divisible by p, and mul and shift divide that p out at once.  A
  sum takes the lower operand's (t, b); only a sum of two operands of the
  same valuation, and _make, scan num again.  num is carried modulo
  p^coeff_prec at most, and a product whose p is divided out loses its top
  p-digit, so P is capped relative to the valuation: P <= e*t + b +
  rel_cap.  A sum, negation or product reduces num modulo the power of p
  that its P needs (_mod), so an element of low precision holds small
  integers however large coeff_prec is.  The product of two nums is
  straight-line code that each field writes and compiles for its own
  (f, e, m, E) when it is made (FieldContext._build_mul).

* characteristic p — K = k((t)); an element is t^v * X with X one
  integer that packs the F_p coordinates of its digits in fixed-width
  slots (packing.Layout), and a precision bound P that is +infinity for
  exact values.  A product is one integer product and one slot-wise
  reduction; inversion is the only operation that truncates on its own,
  and callers that read a bounded number of digits cut their operands
  first.  A digit is read as the residues.ResidueElement whose code is the
  digit's integer, with no translation.

The class of a uniformizer is `pi` in both cases (x resp. t).

ZqElement and LaurentElement each implement add, neg, mul, inv, shift,
valuation, digit and digits on their own representation; a char-0 shift is
one product by the context's cached pi^i.  Their common base _Element
derives sub, powi, residue, is_zero_to_precision and eq_to_precision from
those, the same way in both characteristics.
"""

import math
from itertools import chain

from .errors import (
    DomainError,
    InternalError,
    MalformedInputError,
    PrecisionError,
    UnsupportedCaseError,
)
from .residues import ResidueElement, ResidueField

INF = math.inf

DEFAULT_PRECISION = 64


def bp_index(p, i):
    """The i-th positive integer not divisible by p: i + floor((i-1)/(p-1))."""
    if i < 1:
        raise DomainError("bp_index needs i >= 1, got %r" % (i,))
    return i + (i - 1) // (p - 1)


def _p_split(n, p):
    """(u, k) with n = p^k * u and u prime to p; (0, 0) for n = 0."""
    k = 0
    while n and n % p == 0:
        n, k = n // p, k + 1
    return n, k


def _powers_mod(poly, count):
    """Integer coefficients of X^n modulo the monic poly (low first), n < count."""
    cur = [1] + [0] * (len(poly) - 2)
    out = []
    for _ in range(count):
        out.append(cur)
        top = cur[-1]
        cur = [c - top * m for c, m in zip([0] + cur[:-1], poly)]
    return out


class FieldContext:
    """A p-field K: Qp-type (characteristic 0, given by an Eisenstein
    polynomial over the unramified extension of degree f) or Fq((t))
    (characteristic p), with its derived constants and caches."""

    def __init__(
        self,
        characteristic,
        p,
        f,
        residue_poly=None,
        eisenstein_poly=None,
        default_precision=DEFAULT_PRECISION,
    ):
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise MalformedInputError("p must be prime, got %r" % (p,))
        if f < 1:
            raise MalformedInputError("f must be >= 1")
        if characteristic not in (0, p):
            raise MalformedInputError("characteristic must be 0 or p")
        if default_precision < 1:
            raise MalformedInputError("precision must be positive")
        if characteristic == 0:
            if eisenstein_poly is None:
                eisenstein_poly = (-p, 1)  # unramified: pi = p
            eisenstein_poly = tuple(int(c) for c in eisenstein_poly)
            if len(eisenstein_poly) < 2 or eisenstein_poly[-1] != 1:
                raise MalformedInputError("Eisenstein polynomial must be monic of degree >= 1")
            c0 = eisenstein_poly[0]
            if c0 % p != 0 or c0 % (p * p) == 0:
                raise MalformedInputError(
                    "Eisenstein check failed: constant coefficient must have valuation 1"
                )
            for c in eisenstein_poly[1:-1]:
                if c % p != 0:
                    raise MalformedInputError(
                        "Eisenstein check failed: middle coefficient %d is a unit" % c
                    )
        elif eisenstein_poly is not None:
            raise MalformedInputError("char-p fields take no Eisenstein polynomial")
        self.characteristic = characteristic
        self.p = p
        self.f = f
        self.eisenstein_poly = eisenstein_poly
        self.k = ResidueField(p, f, residue_poly)
        self.q = self.k.q
        self.default_precision = default_precision
        self._teich_cache = {}
        # derived data (kill maps, bases, extensions, norm groups), keyed by kind
        self.cache = {}
        if characteristic == 0:
            self.e = len(eisenstein_poly) - 1
            # coefficient arithmetic is exact modulo p^coeff_prec throughout
            self.coeff_prec = default_precision + 2 * self.e + 16
            self.pmod = p**self.coeff_prec
            # pi-digits a num holds above its valuation: a product of nums
            # known modulo p^coeff_prec has valuation at most 2e - 2, and
            # dividing its p out leaves it known modulo p^(coeff_prec - 1)
            self.rel_cap = self.e * (self.coeff_prec - 2) + 2
            # _mods[r]: the modulus of a num known to r pi-digits (_mod)
            self._mods = [p ** max(2, (r - 1) // self.e + 2) for r in range(self.rel_cap)]
            self._m_int = tuple(int(c) for c in self.k.poly)
            self._num_mul, self._num_mul_p = self._build_mul()
            self._pi_pow_cache = {0: self.one(INF), 1: self.pi(INF)}
            self._pi_pow_cache[-1] = self._make(self._build_xinv(), -1, INF)
            if (self.p - 1) and self.e % (self.p - 1) == 0:
                self.c = self.e // (self.p - 1)
                self.pc = self.e + self.c
            else:
                self.c = None
                self.pc = None
            min_prec = (self.pc if self.pc is not None else self.e) + 2
            if default_precision < min_prec:
                raise PrecisionError(
                    "construction needs precision >= %d to certify the root-of-unity "
                    "decision, got %d" % (min_prec, default_precision)
                )
            self.mu_p_present, self.zeta = self._decide_mu_p()
        else:
            self.e = INF
            self.c = None
            self.pc = None
            self.mu_p_present = False
            self.zeta = None

    # ------------------------------------------------------------ basics

    def __repr__(self):
        if self.characteristic == 0:
            return "FieldContext(Qp p=%d f=%d e=%d)" % (self.p, self.f, self.e)
        return "FieldContext(Fq((t)) p=%d f=%d)" % (self.p, self.f)

    def field_label(self):
        """Stable one-line identifier used in reports."""
        if self.characteristic == 0:
            eis = ",".join(str(c) for c in self.eisenstein_poly)
            return "Qp p=%d f=%d eis=%s prec=%d" % (self.p, self.f, eis, self.default_precision)
        resf = ",".join(str(c) for c in self.k.poly)
        return "Fq((t)) p=%d f=%d resf=%s prec=%d" % (self.p, self.f, resf, self.default_precision)

    def dim_mult_classes(self):
        """dim of K*/K*^p over F_p (char 0 only): ef + 1 + (1 if mu_p)."""
        if self.characteristic != 0:
            raise UnsupportedCaseError("multiplicative class space is infinite in char p")
        return self.e * self.f + 1 + (1 if self.mu_p_present else 0)

    # ------------------------------------------------------------ char-0 kernels

    def _const_num(self, n):
        num = [[0] * self.e for _ in range(self.f)]
        num[0][0] = n % self.pmod
        return num

    def _num_from_residue(self, r):
        num = [[0] * self.e for _ in range(self.f)]
        for a, c in enumerate(r.coords):
            num[a][0] = c
        return num

    def _num_add(self, A, B, M):
        return [[(x + y) % M for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]

    def _num_scale(self, A, s, M):
        return [[(s * x) % M for x in row] for row in A]

    def _mod(self, P, t):
        """The modulus p^k of a num at p^t known modulo pi^P: k counts the
        p-digits below pi^P and one more, at least 2, at most coeff_prec."""
        r = P - self.e * t
        return self._mods[r] if 0 <= r < self.rel_cap else self.pmod if r > 0 else self._mods[0]

    def _build_mul(self):
        """This field's product of two numerators, compiled once as
        straight-line code: ctx._num_mul(A, B, M) -> num modulo M, and
        ctx._num_mul_p, the same product with each output divided by p, for
        operands whose product is divisible by p (modulo M / p).  M is a
        power of p, at most p^coeff_prec.

        The operands are unpacked into locals a0.. and b0.. (w^a x^b at
        index a*e + b), and slot (a, b) of their convolution is one sum of
        products.  A slot inside the f x e block goes to its output as it
        is.  An overflow slot is reduced mod p^coeff_prec once and folded
        onto the block: w^a x^b is congruent to (w^a mod m(w)) * (x^b mod
        E(x)), and the two factors live in separate variables, so it adds
        its value times one integer to each output it reaches.  Each output
        is reduced once.  The source holds only local names, p and those
        fold integers, written in hex (Python limits the length of decimal
        literals only); it is built from the parsed integer polynomials,
        never from descriptor text.
        """
        f, e = self.f, self.e
        wpow = _powers_mod(self._m_int, 2 * f - 1)
        xpow = _powers_mod(self.eisenstein_poly, 2 * e - 1)

        def slot(a, b):
            return " + ".join(
                "a%d*b%d" % (a1 * e + b1, (a - a1) * e + b - b1)
                for a1 in range(max(0, a - f + 1), min(a, f - 1) + 1)
                for b1 in range(max(0, b - e + 1), min(b, e - 1) + 1)
            )

        def unpack(v):
            rows = (", ".join("%s%d" % (v, a * e + b) for b in range(e)) for a in range(f))
            return "[%s] = %s" % (", ".join("[%s]" % r for r in rows), v.upper())

        body = [unpack("a"), unpack("b")]
        out = [slot(i // e, i % e) for i in range(f * e)]
        for a in range(2 * f - 1):
            for b in range(2 * e - 1):
                if a >= f or b >= e:
                    body.append("r%d_%d = (%s) %% M" % (a, b, slot(a, b)))
                    for a2, wc in enumerate(wpow[a]):
                        for b2, xc in enumerate(xpow[b]):
                            c = wc * xc
                            if c:
                                term = "r%d_%d" % (a, b) + ("*%#x" % abs(c) if abs(c) > 1 else "")
                                out[a2 * e + b2] += (" + " if c > 0 else " - ") + term
        scope, text = {"p": self.p}, ""
        for name, red in (("mul", "% M"), ("mul_p", "% M // p")):
            rows = ("[%s]" % ", ".join("(%s) %s" % (s, red) for s in out[a * e:(a + 1) * e]) for a in range(f))
            text += "def %s(A, B, M):\n    " % name + "\n    ".join(body + ["return [%s]" % ", ".join(rows)]) + "\n"
        exec(compile(text, "<num_mul p=%d f=%d e=%d>" % (self.p, f, e), "exec"), scope)
        return scope["mul"], scope["mul_p"]

    def _build_xinv(self):
        """num with x^(-1) = p^(-1) * xinv_num, from the Eisenstein relation."""
        e, p = self.e, self.p
        c0 = self.eisenstein_poly[0]
        w_unit = c0 // p  # exact: v_p(c0) = 1
        w_inv = pow(w_unit % self.pmod, -1, self.pmod)
        num = [[0] * e for _ in range(self.f)]
        if e == 1:
            # x = -c0, so 1/x = -1/(p*w): numerator is -w^{-1}
            num[0][0] = (-w_inv) % self.pmod
            return num
        # x*(x^(e-1) + E_{e-1} x^(e-2) + ... + E_1) = -c0 = -p*w
        for j in range(1, e + 1):
            coeff = 1 if j == e else self.eisenstein_poly[j]
            num[0][j - 1] = (-w_inv * coeff) % self.pmod
        return num

    def _pi_pow(self, i):
        """pi^i for any integer i, exact to the representation's cap.

        Powers with |i| <= rel_cap are cached, and the cache holds every
        power between its least and greatest exponent, so a new one is built
        from the nearest, one factor of pi (or of pi^(-1)) at a time.  A
        larger power is built by squaring and not kept.
        """
        cache = self._pi_pow_cache
        if i not in cache:
            step = 1 if i > 0 else -1
            if abs(i) > self.rel_cap:
                return cache[step].powi(abs(i))
            j = i
            while j not in cache:
                j -= step
            z = cache[j]
            while j != i:
                j += step
                z = cache[j] = z.mul(cache[step])
        return cache[i]

    def _product(self, A, B, t, b, P):
        """p^t * A * B known modulo pi^P, for nums A and B whose
        pi-valuations sum to b: when b >= e the product is divisible by p,
        and that p moves into t.  The product keeps the digits its
        precision needs (_mod): the modulus for p^t leaves, once p is
        divided out, the one for p^(t + 1)."""
        M = self._mod(P, t)
        if b >= self.e:
            return ZqElement(self, self._num_mul_p(A, B, M), t + 1, b - self.e, P)
        return ZqElement(self, self._num_mul(A, B, M), t, b, P)

    # ------------------------------------------------------------ constructors

    def zero(self, prec=None):
        if self.characteristic == 0:
            return self._make(self._const_num(0), 0, prec)
        return _laurent(self, 0, 0, self._lprec(prec))

    def one(self, prec=None):
        return self.from_int(1, prec)

    def from_int(self, n, prec=None):
        if self.characteristic == 0:
            u, k = _p_split(n, self.p)
            return self._make(self._const_num(u), k, prec)
        return _laurent(self, 0, n % self.p, self._lprec(prec))

    def pi(self, prec=None):
        """A fixed uniformizer: the class of x (char 0) or t (char p)."""
        if self.characteristic == 0:
            if self.e == 1:
                return self.from_int(-self.eisenstein_poly[0], prec)
            num = self._const_num(0)
            num[0][1] = 1
            return self._make(num, 0, prec)
        return _laurent(self, 1, 1, self._lprec(prec))

    def w_gen(self, prec=None):
        """The unramified ring generator w (char 0, f >= 2)."""
        if self.characteristic != 0 or self.f < 2:
            raise DomainError("w is only defined for char-0 fields with f >= 2")
        num = self._const_num(0)
        num[1][0] = 1
        return self._make(num, 0, prec)

    def teichmuller(self, r, prec=None):
        """The multiplicative lift of r in k*: satisfies tau(r)^(q-1) = 1."""
        r = self.k.elt(r)
        if r.is_zero():
            raise DomainError("teichmuller lift of zero")
        if self.characteristic == self.p:
            return LaurentElement(self, 0, r.code, INF)
        key = r.code
        if key not in self._teich_cache:
            num = self._num_from_residue(r)
            # Newton on g(y) = y^q - y with the derivative at the root,
            # g'(tau) = q tau^(q-1) - 1 = q - 1, a unit: if y = tau + d then
            # g(y) = (q - 1) d + O(d^2), so each step doubles the p-digits
            # of agreement, where y -> y^q gains one per step
            inv, mod = pow(self.q - 1, -1, self.pmod), self.pmod
            for _ in range(self.coeff_prec.bit_length() + 2):
                nxt = self._num_pow(num, self.q)
                if nxt == num:
                    break
                num = [[(y + (y - z) * inv) % mod for y, z in zip(ry, rz)] for ry, rz in zip(num, nxt)]
            else:
                raise InternalError("teichmuller iteration did not stabilize")
            self._teich_cache[key] = num
        return self._make(self._teich_cache[key], 0, prec)

    def _num_pow(self, A, n):
        out = self._const_num(1)
        base = A
        while n:
            if n & 1:
                out = self._num_mul(out, base, self.pmod)
            base = self._num_mul(base, base, self.pmod)
            n >>= 1
        return out

    def from_digits(self, pairs, prec=None):
        """sum of teichmuller(d) * pi^i over (i, d) pairs; d in k, may be 0."""
        acc = self.zero(prec)
        for i, d in pairs:
            d = self.k.elt(d)
            if d.is_zero():
                continue
            acc = acc.add(self.teichmuller(d).shift(i))
        return acc

    def _lprec(self, prec):
        # char-p constructors give exact values; truncation only enters via inv
        return INF if prec is None else prec

    def _make(self, num, t, prec):
        """p^t * num in normal form, known modulo pi^prec (None: the
        default precision): a column scan finds b, and only a num with no
        coefficient prime to p has its p-content divided out first."""
        P = self.default_precision if prec is None else prec
        p = self.p
        while True:  # at most twice: num is p-primitive after one division
            for b in range(self.e):
                for row in num:
                    if row[b] % p:
                        return ZqElement(self, num, t, b, P)
            g = math.gcd(*chain.from_iterable(num))
            if not g:
                return ZqElement(self, num, t, INF, P)
            k = _p_split(g, p)[1]
            num, t = [[c // p**k for c in row] for row in num], t + k

    # ------------------------------------------------------------ mu_p

    def _decide_mu_p(self):
        p = self.p
        if p == 2:
            return True, self.from_int(-1)
        if self.c is None:
            # every root of x^(p-1)+...+1 would have v(zeta-1) = e/(p-1),
            # which is not an integer here: certified absent
            return False, None
        # leading-digit equation: theta^(p-1) = residue(-p * pi^(-e))
        u = self.from_int(-p).mul(self.pi().powi(-self.e))
        a0 = u.residue()
        theta = None
        for cand in self.k.elements():
            if not cand.is_zero() and cand.pow(p - 1) == a0:
                theta = cand
                break
        if theta is None:
            return False, None
        zeta = self._hensel_zeta(theta)
        return True, zeta

    def _hensel_zeta(self, theta):
        """Newton-refine 1 + tau(theta)*pi^c to a primitive p-th root of unity.

        z = zeta - 1 is a root of F(z) = ((1 + z)^p - 1)/z, and one Horner
        pass gives F(z) and F'(z).  Each iterate is in normal form, so no
        p-content in num compounds through the products of iterates and caps
        the precision that num can hold.
        """
        p = self.p
        binom = [math.comb(p, j + 1) for j in range(p)]  # F(z) = sum binom[j] z^j
        z = self.teichmuller(theta).mul(self.pi().powi(self.c))
        target = self.default_precision
        last_v = -1
        for _ in range(4 * target + 8):
            fv, dv = self.one(), self.zero()  # binom[p - 1] = 1
            for c in reversed(binom[:-1]):
                dv = dv.mul(z).add(fv)
                fv = fv.mul(z).add(self.from_int(c))
            v = fv.valuation()
            if v == INF or v >= target + self.e:
                zeta = self.one().add(z)
                check = zeta.powi(p).sub(self.one())
                if not check.is_zero_to_precision():
                    raise InternalError("zeta candidate fails zeta^p = 1 at precision")
                if z.is_zero_to_precision():
                    raise InternalError("zeta candidate collapsed to 1")
                return zeta
            if v <= last_v:
                raise InternalError("Newton iteration for zeta stalled at v=%s" % v)
            last_v = v
            z = z.sub(fv.mul(dv.inv()))
        raise PrecisionError("zeta refinement did not converge at current precision")

    # ------------------------------------------------------------ char-p helpers

    def _find_trace_one(self):
        for cand in self.k.elements():
            if cand.trace() == 1:
                return cand
        raise InternalError("trace map has no value 1 on k")

    def trace_one(self):
        """A fixed element of k with trace 1 (char p normal form at level 0).

        Found on first use, so that making a field builds no residue tables.
        """
        if "trace_one" not in self.cache:
            self.cache["trace_one"] = self._find_trace_one()
        return self.cache["trace_one"]


# ================================================================ elements


class _Element:
    """What both element types derive from their own add, neg, mul, inv,
    valuation and digit."""

    __slots__ = ()

    def sub(self, other):
        return self.add(other.neg())

    def is_zero_to_precision(self):
        return self.valuation() == INF

    def eq_to_precision(self, other):
        return self.sub(other).is_zero_to_precision()

    def powi(self, n):
        if n < 0:
            return self.inv().powi(-n)
        if n == 0:
            return self.ctx.one()
        out = self
        for bit in bin(n)[3:]:
            out = out.mul(out)
            if bit == "1":
                out = out.mul(self)
        return out

    def residue(self):
        """Image in k of a unit (valuation 0) element."""
        v = self.valuation()
        if v != 0:
            raise DomainError("residue needs a unit, valuation is %s" % v)
        return self.digit(0)


# ================================================================ char 0


class ZqElement(_Element):
    """z = p^t * num, num a polynomial in (w, x) with a coefficient prime to
    p, or 0; b < e is num's pi-valuation (INF for 0).  Known modulo pi^P."""

    __slots__ = ("ctx", "num", "t", "b", "P")

    def __init__(self, ctx, num, t, b, P):
        self.ctx = ctx
        self.num = num
        self.t = t
        self.b = b
        self.P = min(P, ctx.e * t + b + ctx.rel_cap)

    # -- valuation

    def valuation(self):
        """Exact valuation, or INF when indistinguishable from 0 at precision P."""
        v = self.ctx.e * self.t + self.b
        return v if v < self.P else INF

    # -- ring operations

    def add(self, other):
        ctx = self.ctx
        if ctx is not other.ctx:
            raise DomainError("elements from different fields")
        P = min(self.P, other.P)
        if other.b == INF:
            return ZqElement(ctx, self.num, self.t, self.b, P)
        if self.b == INF:
            return ZqElement(ctx, other.num, other.t, other.b, P)
        lo, hi = (self, other) if (self.t, self.b) <= (other.t, other.b) else (other, self)
        M = ctx._mod(P, lo.t)
        num = hi.num if hi.t == lo.t else ctx._num_scale(hi.num, pow(ctx.p, hi.t - lo.t, M), M)
        num = ctx._num_add(lo.num, num, M)
        if (lo.t, lo.b) == (hi.t, hi.b):  # the leading terms may cancel
            return ctx._make(num, lo.t, P)
        return ZqElement(ctx, num, lo.t, lo.b, P)

    def neg(self):
        ctx = self.ctx
        return ZqElement(ctx, ctx._num_scale(self.num, -1, ctx._mod(self.P, self.t)), self.t, self.b, self.P)

    def scale_int(self, s):
        """The product by the exact integer s = p^k * u: P gains e*k, as in mul."""
        ctx = self.ctx
        if not s:
            return ctx.zero(INF)
        s, k = _p_split(s, ctx.p)
        num = ctx._num_scale(self.num, s, ctx._mod(self.P, self.t))
        return ZqElement(ctx, num, self.t + k, self.b, self.P + ctx.e * k)

    def mul(self, other):
        ctx = self.ctx
        if ctx is not other.ctx:
            raise DomainError("elements from different fields")
        # a truncated zero enters as its P
        v1 = min(self.valuation(), self.P)
        v2 = min(other.valuation(), other.P)
        P = min(self.P + v2, other.P + v1)
        return ctx._product(self.num, other.num, self.t + other.t, self.b + other.b, P)

    def inv(self):
        ctx = self.ctx
        v = self.valuation()
        if v == INF:
            raise DomainError("inverse of (truncated) zero")
        U = self.shift(-v).num  # a unit numerator: t = b = 0
        # Newton: V <- V(2 - U V), starting from the residue inverse
        r = ctx.k.elt([U[a][0] % ctx.p for a in range(ctx.f)])
        V = ctx._num_from_residue(r.inv())
        steps = ZqElement._log_steps(ctx.e * ctx.coeff_prec)
        two, M = ctx._const_num(2), ctx._mod(self.P - v, 0)
        for _ in range(steps):
            UV = ctx._num_mul(U, V, M)
            V = ctx._num_mul(V, ctx._num_add(two, ctx._num_scale(UV, -1, M), M), M)
        return ZqElement(ctx, V, 0, 0, self.P - v).shift(-v)

    @staticmethod
    def _log_steps(n):
        s, cur = 1, 1
        while cur < n:
            cur *= 2
            s += 1
        return s

    def shift(self, i):
        """Multiply by pi^i (exact; i may be negative)."""
        if i == 0:
            return self
        z = self.ctx._pi_pow(i)
        return self.ctx._product(self.num, z.num, self.t + z.t, self.b + z.b, self.P + i)

    # -- digits

    def digit(self, m):
        """The pi^m digit (coefficient in k of the Teichmuller expansion)."""
        v = self.valuation()
        if v < m < self.P:
            # the residue of z/pi^m is not the digit: peel the lower ones first
            return self._peel(v, m)[1]._leading_digit(m)
        return self._leading_digit(m)

    def _leading_digit(self, m):
        """The pi^m digit of an element of valuation >= m: the residue of z/pi^m.

        z/pi^m has t >= 0; its residue is column 0 of num mod p when t = 0
        and zero when t > 0.
        """
        ctx = self.ctx
        if m >= self.P:
            raise PrecisionError("digit at pi^%d unknown: precision is %d" % (m, self.P))
        v = self.valuation()
        if v == INF or m < v:
            return ctx.k.zero()
        w = self.shift(-m)
        if w.t > 0:
            return ctx.k.zero()
        return ctx.k.elt([w.num[a][0] % ctx.p for a in range(ctx.f)])

    def _peel(self, lo, hi):
        """(nonzero digits on [lo, hi), the remainder of valuation >= hi).

        lo must be at most the valuation, so each step reads a leading digit.
        """
        out = []
        z = self
        for i in range(lo, hi):
            d = z._leading_digit(i)
            if not d.is_zero():
                out.append((i, d))
                z = z.sub(self.ctx.teichmuller(d).shift(i))
        return out, z

    def digits(self, lo=None, hi=None):
        """Teichmuller digit expansion on [lo, hi) as (i, k-element) pairs."""
        v = self.valuation()
        if v == INF:
            return []
        hi = self.P if hi is None else min(hi, self.P)
        return [(i, d) for i, d in self._peel(v, hi)[0] if lo is None or i >= lo]

    # -- misc

    def truncate(self, P):
        if P > self.P:
            raise PrecisionError("cannot raise precision from %s to %s" % (self.P, P))
        return ZqElement(self.ctx, self.num, self.t, self.b, P)

    def __repr__(self):
        v = self.valuation()
        if v == INF:
            return "O(pi^%s)" % self.P
        parts = ["%r*pi^%d" % (d, i) for i, d in self.digits(hi=min(self.P, v + 6))]
        return " + ".join(parts) + " + O(pi^%d)" % self.P

    def to_literal(self):
        """Exact literal in the element grammar; parse gives the value back."""
        ctx = self.ctx
        v = self.valuation()
        if v == INF:
            return "0"
        num, t = self.num, self.t
        mod = ctx.p ** max(1, -(-(self.P - ctx.e * t) // ctx.e) + 1)
        terms = []
        for a in range(ctx.f):
            for b in range(ctx.e):
                cf = num[a][b] % mod
                if cf:
                    mono = str(cf)
                    if a:
                        mono += "*w^%d" % a if a > 1 else "*w"
                    if b:
                        mono += "*pi^%d" % b if b > 1 else "*pi"
                    terms.append(mono)
        body = " + ".join(terms) if terms else "0"
        if t:
            return "p^%d * (%s)" % (t, body)
        return body


# ================================================================ char p


def _laurent(ctx, v, X, P):
    """The series t^v * X cut below t^P, its low zero digits moved into v."""
    L = ctx.k.layout
    if P != INF and X.bit_length() > (P - v) * L.D:
        X = X & ((1 << ((P - v) * L.D)) - 1) if P > v else 0
    if not X:
        return LaurentElement(ctx, INF, 0, P)
    if not X & L.dmask:  # the lowest digits cancelled
        low = ((X & -X).bit_length() - 1) // L.D
        X, v = X >> low * L.D, v + low
    return LaurentElement(ctx, v, X, P)


class LaurentElement(_Element):
    """t^v * X(t), X one integer in the field's packing.Layout, known below t^P.

    X's lowest digit is nonzero and its digits lie below t^P, so v is the
    valuation; zero is X = 0 with v = INF.  P = INF means exact.
    """

    __slots__ = ("ctx", "v", "X", "P")

    def __init__(self, ctx, v, X, P):
        self.ctx = ctx
        self.v = v
        self.X = X
        self.P = P

    def valuation(self):
        return self.v

    def add(self, other):
        return self._plus(other, 1)

    def sub(self, other):
        return self._plus(other, self.ctx.p - 1)

    def _plus(self, other, c):
        """self + c*other, c in F_p."""
        ctx = self.ctx
        if ctx is not other.ctx:
            raise DomainError("elements from different fields")
        P, L = min(self.P, other.P), ctx.k.layout
        X1, X2, v1, v2 = self.X, other.X, self.v, other.v
        if not X2:
            return self.truncate(P)
        if not X1:
            return (other if c == 1 else other.neg()).truncate(P)
        if v1 > v2:
            X1, v1 = X1 << (v1 - v2) * L.D, v2
        elif v2 > v1:
            X2 <<= (v2 - v1) * L.D
        return _laurent(ctx, v1, L.combine(X1, X2, c), P)

    def neg(self):
        ctx = self.ctx
        if ctx.p == 2:
            return self
        return LaurentElement(ctx, self.v, ctx.k.layout.store.reduce(self.X * (ctx.p - 1)), self.P)

    def scale(self, r):
        L = self.ctx.k.layout
        X = L.product(self.X, self.ctx.k.elt(r).code, INF)
        return LaurentElement(self.ctx, self.v if X else INF, X, self.P)

    def scale_int(self, s):
        return self.scale(s % self.ctx.p)

    def mul(self, other):
        ctx = self.ctx
        if ctx is not other.ctx:
            raise DomainError("elements from different fields")
        v1 = self.v if self.X else self.P
        v2 = other.v if other.X else other.P
        P = min(self.P + v2, other.P + v1)
        if not (self.X and other.X):
            return LaurentElement(ctx, INF, 0, P)
        return LaurentElement(ctx, v1 + v2, ctx.k.layout.product(self.X, other.X, P - v1 - v2), P)

    def inv(self):
        ctx, v, X = self.ctx, self.v, self.X
        if not X:
            raise DomainError("inverse of (truncated) zero")
        L = ctx.k.layout
        lead = ResidueElement(ctx.k, X & L.dmask).inv().code
        rel = self.P - v  # relative precision of the input
        if rel == INF:
            if X.bit_length() <= L.D:
                return LaurentElement(ctx, -v, lead, INF)
            rel = ctx.default_precision
        if rel <= 0:
            raise PrecisionError("inverse would have no known digit")
        # Newton on the unit U = X / lead(X): Y <- Y - Y(UY - 1) doubles the
        # digits Y shares with 1/U; the constant digit of UY is 1
        U, Y, n = L.product(X, lead, rel), 1, 1
        while n < rel:
            n = min(2 * n, rel)
            Y = L.combine(Y, L.product(Y, L.product(U, Y, n) - 1, n), ctx.p - 1)
        return LaurentElement(ctx, -v, L.product(Y, lead, rel), rel - v)

    def shift(self, i):
        return LaurentElement(self.ctx, self.v + i, self.X, self.P + i)

    def derivative(self):
        """Formal d/dt."""
        L, p = self.ctx.k.layout, self.ctx.p
        X = sum(c.scale(i % p).code << (i - self.v) * L.D for i, c in self.digits())
        return _laurent(self.ctx, self.v - 1, X, self.P - 1)

    def digit(self, m):
        if m >= self.P:
            raise PrecisionError("digit at t^%d unknown: precision is %s" % (m, self.P))
        L = self.ctx.k.layout
        if m < self.v:
            return self.ctx.k.zero()
        return ResidueElement(self.ctx.k, self.X >> (m - self.v) * L.D & L.dmask)

    def digits(self, lo=None, hi=None):
        if not self.X:
            return []
        k, v = self.ctx.k, self.v
        L = k.layout
        nb, n = L.D // 8, -(-self.X.bit_length() // L.D)  # bytes a digit, digits
        data = self.X.to_bytes(n * nb, "little")
        out = []
        for j in range(0 if lo is None else max(0, lo - v), n if hi is None else min(n, hi - v)):
            d = int.from_bytes(data[j * nb:(j + 1) * nb], "little")
            if d:
                out.append((v + j, ResidueElement(k, d)))
        return out

    def truncate(self, P):
        return self if P >= self.P else _laurent(self.ctx, self.v, self.X, P)

    def __repr__(self):
        if not self.X:
            return "0" if self.P == INF else "O(t^%s)" % self.P
        tail = "" if self.P == INF else " + O(t^%s)" % self.P
        return " + ".join("%r*t^%d" % (c, i) for i, c in self.digits()) + tail

    def to_literal(self):
        terms = []
        for i, c in self.digits():
            monos = ["%d%s" % (a, ("", "*g")[s] if s < 2 else "*g^%d" % s) for s, a in enumerate(c.coords) if a]
            cs = monos[0] if self.ctx.f == 1 else "(%s)" % " + ".join(monos)
            terms.append(cs if i == 0 else "%s*t" % cs if i == 1 else "%s*t^%d" % (cs, i))
        return " + ".join(terms) or "0"


# ================================================================ free functions


def val(x):
    """The valuation of x; INF for (truncated) zero."""
    return x.valuation()


def series_residue_and_dlog(x, u):
    """S(res(x * du/u)) in F_p, for char-p fields (the Schmid pairing kernel)."""
    ctx = x.ctx
    if ctx.characteristic != ctx.p:
        raise UnsupportedCaseError("series residue/dlog is defined in characteristic p only")
    if u.is_zero_to_precision():
        raise DomainError("dlog of zero")
    # Only the t^-1 digit of x * du/u is read.  Let n = max(0, -low), low
    # the lowest degree where x has a nonzero or unknown digit.  Writing
    # u = t^v * e with e a unit, du/u = v/t + de/e, and the t^-1 digit of
    # x * du/u reads du/u below t^n only; those digits of de/e depend on e
    # mod t^(n+1).  So u is cut to relative precision n + 2, one digit of
    # slack, and du/u still carries precision n + 1, which keeps the digit
    # known whenever it was known before the cut.
    low = min(val(x), x.P)
    u = u.truncate(val(u) + max(0, -low) + 2)
    w = x.mul(u.derivative().mul(u.inv()))
    if w.P <= -1:
        raise PrecisionError("t^-1 coefficient of x * du/u is not determined")
    return w.digit(-1).trace()


# ================================================================ parsing


def parse_field(text, prec_override=None):
    """Field descriptor grammar:

    Qp p=<prime> f=<int> [eis=c0,c1,...,1] [prec=<int>]
    Fq((t)) p=<prime> f=<int> [resf=c0,...,1] [prec=<int>]
    """
    tokens = text.split()
    if not tokens:
        raise MalformedInputError("empty field descriptor (expected 'Qp ...' or 'Fq((t)) ...')")
    head, rest = tokens[0], tokens[1:]
    if head not in ("Qp", "Fq((t))"):
        raise MalformedInputError(
            "field descriptor must start with 'Qp' or 'Fq((t))', got %r" % head
        )
    kv = {}
    for pos, tok in enumerate(rest, start=2):
        if "=" not in tok:
            raise MalformedInputError(
                "token %d (%r): expected key=value (keys: p, f, eis, resf, prec)" % (pos, tok)
            )
        key, _, value = tok.partition("=")
        if key in kv:
            raise MalformedInputError("duplicate key %r in field descriptor" % key)
        kv[key] = value
    try:
        p = int(kv.pop("p"))
        f = int(kv.pop("f", "1"))
        prec = int(kv.pop("prec", DEFAULT_PRECISION))
    except KeyError as exc:
        raise MalformedInputError("field descriptor is missing key %s" % exc) from None
    except ValueError as exc:
        raise MalformedInputError("field descriptor: %s" % exc) from None
    if prec_override is not None:
        prec = prec_override

    def int_list(s):
        try:
            return tuple(int(x) for x in s.split(","))
        except ValueError:
            raise MalformedInputError("expected comma-separated integers, got %r" % s) from None

    if head == "Qp":
        eis = int_list(kv.pop("eis")) if "eis" in kv else None
        if kv:
            raise MalformedInputError("unknown keys for Qp: %s" % sorted(kv))
        return FieldContext(0, p, f, eisenstein_poly=eis, default_precision=prec)
    else:
        resf = int_list(kv.pop("resf")) if "resf" in kv else None
        if kv:
            raise MalformedInputError("unknown keys for Fq((t)): %s" % sorted(kv))
        return FieldContext(p, p, f, residue_poly=resf, default_precision=prec)


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif "0" <= ch <= "9":
                # not str.isdigit: it also admits characters int() rejects, like '²'
                j = i
                while j < len(text) and "0" <= text[j] <= "9":
                    j += 1
                self.toks.append(("int", int(text[i:j])))
                i = j
            elif ch.isalpha():
                j = i
                while j < len(text) and text[j].isalpha():
                    j += 1
                self.toks.append(("name", text[i:j]))
                i = j
            elif ch in "+-*^()":
                self.toks.append((ch, ch))
                i += 1
            else:
                raise MalformedInputError(
                    "element literal: unexpected character %r at position %d" % (ch, i)
                )
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok


def parse_element(ctx, text):
    """Element literal: sums/products of integers, pi/t, w/g, with ^ powers."""
    toks = _Tokens(text)
    value = _parse_expr(ctx, toks)
    if toks.peek()[0] is not None:
        raise MalformedInputError(
            "element literal: trailing input starting at token %r" % (toks.peek()[1],)
        )
    return value


def _parse_expr(ctx, toks):
    sign = 1
    kind, _ = toks.peek()
    if kind in ("+", "-"):
        toks.next()
        sign = -1 if kind == "-" else 1
    acc = _parse_term(ctx, toks)
    if sign < 0:
        acc = acc.neg()
    while True:
        kind, _ = toks.peek()
        if kind not in ("+", "-"):
            return acc
        toks.next()
        term = _parse_term(ctx, toks)
        acc = acc.add(term if kind == "+" else term.neg())


def _parse_term(ctx, toks):
    acc = _parse_factor(ctx, toks)
    while True:
        kind, _ = toks.peek()
        if kind == "*":
            toks.next()
        elif kind not in ("int", "name", "("):
            return acc
        # juxtaposition like "2 pi" reads as a product
        factor = _parse_factor(ctx, toks)
        acc = acc.mul(factor)


def _parse_factor(ctx, toks):
    base = _parse_atom(ctx, toks)
    kind, _ = toks.peek()
    if kind == "^":
        toks.next()
        sign = 1
        k2, _ = toks.peek()
        if k2 == "-":
            toks.next()
            sign = -1
        k3, v3 = toks.next()
        if k3 != "int":
            raise MalformedInputError("element literal: expected integer exponent")
        return base.powi(sign * v3)
    return base


def _parse_atom(ctx, toks):
    kind, value = toks.next()
    if kind == "int":
        # n = p^k * u in char 0 reads as the literal u*p^k, so its p-content
        # counts toward its precision as a power of p does: p^(k - 1) more
        k = _p_split(value, ctx.p)[1] if ctx.characteristic == 0 else 0
        return ctx.from_int(value, ctx.default_precision + ctx.e * (k - 1)) if k else ctx.from_int(value)
    if kind == "(":
        inner = _parse_expr(ctx, toks)
        k, _ = toks.next()
        if k != ")":
            raise MalformedInputError("element literal: missing closing parenthesis")
        return inner
    if kind == "name":
        if ctx.characteristic == 0:
            if value == "pi":
                return ctx.pi()
            if value == "p":
                return ctx.from_int(ctx.p)
            if value == "w":
                return ctx.w_gen()
        else:
            if value == "t":
                return ctx.pi()
            if value == "g":
                if ctx.f < 2:
                    raise MalformedInputError("residue generator g needs f >= 2")
                return ctx.teichmuller(ctx.k.gen())
        raise MalformedInputError(
            "element literal: unknown name %r for this field" % value
        )
    raise MalformedInputError("element literal: unexpected token %r" % (value,))
