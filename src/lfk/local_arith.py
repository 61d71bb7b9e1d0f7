"""Exact, precision-tracked arithmetic in a p-field K.

Two implementations sit behind one interface:

* characteristic 0 — K is a two-step tower: the unramified part is
  W = Z_p[w]/(m(w)) with m a monic integer lift of the residue polynomial,
  and K = W[x]/(E(x)) for a monic Eisenstein E.  An element is

      z = p^t * sum_{a<f, b<e} c[a][b] * w^a * x^b

  with integer coefficients kept exactly modulo p^Np for a generous,
  context-wide Np.  The logical precision P ("known modulo pi^P") is
  tracked separately and never silently decreased: a digit that is not
  determined raises PrecisionError instead of being invented.  Valuations
  are exact because the x-degrees are distinct modulo e, so no cross-term
  cancellation can hide the leading monomial.

  The p-content rule: num may be divisible by p, and operations leave it
  so (a product keeps the p-content of both factors' nums).  Whatever
  reads num as a unit or a residue — inv, a digit read, to_literal and
  zeta's Newton lift — first calls _stripped(), which moves the p-content
  of num into t and keeps P.

* characteristic p — K = k((t)); an element is t^v * X with X one
  integer that packs the F_p coordinates of its digits in fixed-width
  slots (packing.Layout), and a precision bound P that is +infinity for
  exact values.  A product is one integer product and one slot-wise
  reduction; inversion is the only operation that truncates on its own,
  and callers that read a bounded number of digits cut their operands
  first.  A digit read returns the interned, table-coded element of
  residues.ResidueField.

The class of a uniformizer is `pi` in both cases (x resp. t).

ZqElement and LaurentElement each implement add, neg, mul, inv, shift,
valuation, digit and digits on their own representation; a char-0 shift is
one product by the context's cached pi^i.  Their common base _Element
derives sub, powi, residue, is_zero_to_precision and eq_to_precision from
those, the same way in both characteristics.
"""

import functools
import math
from itertools import chain

from .errors import (
    DomainError,
    InternalError,
    MalformedInputError,
    PrecisionError,
    UnsupportedCaseError,
)
from .residues import ResidueField, _prime_factors

INF = math.inf

DEFAULT_PRECISION = 64


def bp_index(p, i):
    """The i-th positive integer not divisible by p: i + floor((i-1)/(p-1))."""
    if i < 1:
        raise DomainError("bp_index needs i >= 1, got %r" % (i,))
    return i + (i - 1) // (p - 1)


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
        if _prime_factors(p) != [p]:
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
            self._m_int = tuple(int(c) for c in self.k.poly)
            self._conv_pos, self._conv_low, self._conv_fold = self._build_fold()
            self._xinv_num = self._build_xinv()
            self._pi_pow_cache = {0: (self._const_num(1), 0), 1: (self.pi().num, 0)}
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
        for a in range(self.f):
            num[a][0] = r.coords[a] % self.pmod
        return num

    def _num_add(self, A, B):
        return [
            [(A[a][b] + B[a][b]) % self.pmod for b in range(self.e)]
            for a in range(self.f)
        ]

    def _num_scale(self, A, s):
        return [[(s * A[a][b]) % self.pmod for b in range(self.e)] for a in range(self.f)]

    def _num_mul(self, A, B):
        # Convolve on unreduced integers, indexing w^a x^b by a*(2e-1) + b so
        # that products add indices.  A monomial inside the f x e block goes
        # straight to the output; an overflow monomial is reduced once and
        # folded by its image modulo m(w) and E(x).  One reduction mod
        # p^coeff_prec at the end.
        mod, pos, low, fold = self.pmod, self._conv_pos, self._conv_low, self._conv_fold
        terms = [(j, c) for j, c in zip(pos, chain.from_iterable(B)) if c]
        acc = {}
        for i, c1 in zip(pos, chain.from_iterable(A)):
            if c1:
                for j, c2 in terms:
                    acc[i + j] = acc.get(i + j, 0) + c1 * c2
        out = [0] * len(pos)
        for k, c in acc.items():
            if k in low:
                out[low[k]] += c
            else:
                c %= mod
                for i, coef in fold[k]:
                    out[i] += c * coef
        e = self.e
        return [[c % mod for c in out[s:s + e]] for s in range(0, len(out), e)]

    def _build_fold(self):
        """Index tables for _num_mul: (slot of each block monomial in the
        convolution, its output index by slot, overflow slot -> fold).

        w^a x^b is congruent to (w^a mod m(w)) * (x^b mod E(x)), and the two
        factors live in separate variables, so each overflow monomial folds
        onto the f x e block by a product of two integer vectors.
        """
        f, e = self.f, self.e
        width = 2 * e - 1
        wpow = _powers_mod(self._m_int, 2 * f - 1)
        xpow = _powers_mod(self.eisenstein_poly, 2 * e - 1)
        pos = [a * width + b for a in range(f) for b in range(e)]
        fold = {}
        for a in range(2 * f - 1):
            for b in range(width):
                if a >= f or b >= e:
                    fold[a * width + b] = tuple(
                        (a2 * e + b2, wc * xc)
                        for a2, wc in enumerate(wpow[a])
                        for b2, xc in enumerate(xpow[b])
                        if wc and xc
                    )
        return pos, {k: n for n, k in enumerate(pos)}, fold

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
        """(num, t) with pi^i = p^t * num, for any integer i; cached.

        The cache holds every power between its least and greatest exponent,
        so a new one is built from the nearest, one factor of pi (or of
        pi^(-1) = p^(-1) * xinv_num) at a time.
        """
        cache = self._pi_pow_cache
        if i not in cache:
            step, factor, dt = (1, cache[1][0], 0) if i > 0 else (-1, self._xinv_num, -1)
            j = i
            while j not in cache:
                j -= step
            num, t = cache[j]
            while j != i:
                j += step
                num, t = self._num_mul(num, factor), t + dt
                cache[j] = num, t
        return cache[i]

    def _num_pival(self, A):
        """Exact pi-valuation of a num (INF if zero mod p^coeff_prec)."""
        best = INF
        for b in range(self.e):
            for a in range(self.f):
                c = A[a][b]
                if c:
                    w = 0
                    while c % self.p == 0:
                        c //= self.p
                        w += 1
                    v = self.e * w + b
                    if v < best:
                        best = v
        return best

    # ------------------------------------------------------------ constructors

    def zero(self, prec=None):
        if self.characteristic == 0:
            return self._make(self._const_num(0), 0, prec)
        return _laurent(self, 0, 0, self._lprec(prec))

    def one(self, prec=None):
        return self.from_int(1, prec)

    def from_int(self, n, prec=None):
        if self.characteristic == 0:
            return self._make(self._const_num(n), 0, prec)
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
            return LaurentElement(self, 0, self._layout.code(r), INF)
        key = r.coords
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
                out = self._num_mul(out, base)
            base = self._num_mul(base, base)
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

    @functools.cached_property
    def _layout(self):
        """How this char-p field packs its series (packing.Layout).

        Made, and its module imported, on the field's first series, so that
        `import lfk` and making a field compile and build none of it.
        """
        from .packing import Layout

        return Layout(self.k)

    def _make(self, num, t, prec):
        P = self.default_precision if prec is None else prec
        return ZqElement(self, num, t, P)

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
        pass gives F(z) and F'(z).  Each iterate is stripped: a product of
        iterates with negative t and p-content in num would double both at
        every step and cap the precision that num can hold.
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
            z = z.sub(fv.mul(dv.inv()))._stripped()
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
    """z = p^t * num, num a polynomial in (w, x); known modulo pi^P."""

    __slots__ = ("ctx", "num", "t", "P", "_val")

    def __init__(self, ctx, num, t, P):
        self.ctx = ctx
        self.num = num
        self.t = t
        # coefficients are carried modulo p^coeff_prec, which bounds how much
        # absolute precision the representation can actually hold
        self.P = min(P, ctx.e * (t + ctx.coeff_prec))
        self._val = None

    # -- valuation

    def valuation(self):
        """Exact valuation, or INF when indistinguishable from 0 at precision P."""
        if self._val is None:
            pv = self.ctx._num_pival(self.num)
            v = INF if pv == INF else self.ctx.e * self.t + pv
            self._val = INF if v >= self.P else v
        return self._val

    def _stripped(self):
        """The same element with the p-content of num moved into t; P is kept.

        Stripping a stripped element (or a zero num) returns it unchanged.
        """
        p = self.ctx.p
        g, k = math.gcd(*chain.from_iterable(self.num)), 0
        while g and g % p == 0:
            g, k = g // p, k + 1
        if not k:
            return self
        pk = p**k
        out = ZqElement(self.ctx, [[c // pk for c in row] for row in self.num], self.t + k, self.P)
        out._val = self._val
        return out

    # -- ring operations

    def _aligned(self, other):
        if self.ctx is not other.ctx:
            raise DomainError("elements from different fields")
        t = min(self.t, other.t)
        a = self.num if self.t == t else self.ctx._num_scale(self.num, self.ctx.p ** (self.t - t))
        b = other.num if other.t == t else self.ctx._num_scale(other.num, self.ctx.p ** (other.t - t))
        return a, b, t

    def add(self, other):
        a, b, t = self._aligned(other)
        return ZqElement(self.ctx, self.ctx._num_add(a, b), t, min(self.P, other.P))

    def neg(self):
        return ZqElement(self.ctx, self.ctx._num_scale(self.num, -1), self.t, self.P)

    def scale_int(self, s):
        """The product by the exact integer s = p^k * u: P gains e*k, as in mul."""
        k = 0
        while s and s % self.ctx.p ** (k + 1) == 0:
            k += 1
        P = self.P + self.ctx.e * k if s else INF
        return ZqElement(self.ctx, self.ctx._num_scale(self.num, s), self.t, P)

    def mul(self, other):
        ctx = self.ctx
        if ctx is not other.ctx:
            raise DomainError("elements from different fields")
        v1 = min(self.valuation(), self.P)
        v2 = min(other.valuation(), other.P)
        P = min(self.P + v2, other.P + v1)
        if P == INF:
            P = min(self.P, other.P)  # both truncated zeros: keep a finite bound
        out = ZqElement(ctx, ctx._num_mul(self.num, other.num), self.t + other.t, P)
        # Below its precision a product's valuation is the sum: a truncated
        # zero enters as its P, which puts the sum at or past out.P.
        v = v1 + v2
        out._val = v if v < out.P else INF
        return out

    def inv(self):
        ctx = self.ctx
        v = self.valuation()
        if v == INF:
            raise DomainError("inverse of (truncated) zero")
        U = self.shift(-v)._stripped().num  # a unit numerator: t = 0
        # Newton: V <- V(2 - U V), starting from the residue inverse
        r = ctx.k.elt([U[a][0] % ctx.p for a in range(ctx.f)])
        V = ctx._num_from_residue(r.inv())
        steps = ZqElement._log_steps(ctx.e * ctx.coeff_prec)
        two = ctx._const_num(2)
        for _ in range(steps):
            UV = ctx._num_mul(U, V)
            V = ctx._num_mul(V, ctx._num_add(two, ctx._num_scale(UV, -1)))
        out = ZqElement(ctx, V, 0, self.P - v)
        return out.shift(-v)

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
        ctx = self.ctx
        num, t = ctx._pi_pow(i)
        return ZqElement(ctx, ctx._num_mul(self.num, num), self.t + t, self.P + i)

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

        z/pi^m, stripped, has t >= 0; its residue is column 0 of num mod p
        when t = 0 and zero when t > 0.
        """
        ctx = self.ctx
        if m >= self.P:
            raise PrecisionError("digit at pi^%d unknown: precision is %d" % (m, self.P))
        v = self.valuation()
        if v == INF or m < v:
            return ctx.k.zero()
        w = self.shift(-m)._stripped()
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
        return ZqElement(self.ctx, self.num, self.t, P)

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
        z = self._stripped()  # so printed integers stay small
        num, t = z.num, z.t
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
    L = ctx._layout
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
        P, L = min(self.P, other.P), ctx._layout
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
        return LaurentElement(ctx, self.v, ctx._layout.store.reduce(self.X * (ctx.p - 1)), self.P)

    def scale(self, r):
        L = self.ctx._layout
        X = L.product(self.X, L.code(self.ctx.k.elt(r)), INF)
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
        return LaurentElement(ctx, v1 + v2, ctx._layout.product(self.X, other.X, P - v1 - v2), P)

    def inv(self):
        ctx, v, X = self.ctx, self.v, self.X
        if not X:
            raise DomainError("inverse of (truncated) zero")
        L = ctx._layout
        lead = L.code(L.dec[X & L.dmask].inv())
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

    def _stripped(self):
        """A series has no p-content to move (ZqElement._stripped)."""
        return self

    def derivative(self):
        """Formal d/dt."""
        L, p = self.ctx._layout, self.ctx.p
        X = sum(L.code(c.scale(i % p)) << (i - self.v) * L.D for i, c in self.digits())
        return _laurent(self.ctx, self.v - 1, X, self.P - 1)

    def digit(self, m):
        if m >= self.P:
            raise PrecisionError("digit at t^%d unknown: precision is %s" % (m, self.P))
        L = self.ctx._layout
        if m < self.v:
            return self.ctx.k.zero()
        return L.dec[self.X >> (m - self.v) * L.D & L.dmask]

    def digits(self, lo=None, hi=None):
        if not self.X:
            return []
        L, v = self.ctx._layout, self.v
        nb, n = L.D // 8, -(-self.X.bit_length() // L.D)  # bytes a digit, digits
        data = self.X.to_bytes(n * nb, "little")
        out = []
        for j in range(0 if lo is None else max(0, lo - v), n if hi is None else min(n, hi - v)):
            d = int.from_bytes(data[j * nb:(j + 1) * nb], "little")
            if d:
                out.append((v + j, L.dec[d]))
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
            acc = acc.mul(_parse_factor(ctx, toks))
        elif kind in ("int", "name", "("):
            # juxtaposition like "2 pi" reads as a product
            acc = acc.mul(_parse_factor(ctx, toks))
        else:
            return acc


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
        return ctx.from_int(value)
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
