"""Dictionary arithmetic on char-p Laurent series, the oracle for the packed layout.

A DictSeries is {exponent: nonzero residue element} with a precision bound P
(INF when exact): every product is a double loop over the two dicts, every
sum a merge, and inv a geometric series, each digit by residue-field
arithmetic.  LaurentElement computes the same values on one packed integer;
the tests compare the two digit by digit, P included.
"""

from lfk.errors import DomainError, PrecisionError
from lfk.local_arith import INF


class DictSeries:
    """Sparse Laurent polynomial over k, known below t^P; P = INF means exact."""

    __slots__ = ("ctx", "coeffs", "P")

    def __init__(self, ctx, coeffs, P):
        self.ctx = ctx
        self.coeffs = {i: c for i, c in coeffs.items() if not c.is_zero() and i < P}
        self.P = P

    @classmethod
    def of(cls, x):
        """The oracle copy of a packed series."""
        return cls(x.ctx, dict(x.digits()), x.P)

    def agrees(self, x):
        """x has this series' digits and precision."""
        return x.digits() == self.digits() and x.P == self.P and x.valuation() == self.valuation()

    def valuation(self):
        return min(self.coeffs) if self.coeffs else INF

    def add(self, other):
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            s = out.get(i)
            out[i] = c if s is None else s.add(c)
        return DictSeries(self.ctx, out, min(self.P, other.P))

    def neg(self):
        return DictSeries(self.ctx, {i: c.neg() for i, c in self.coeffs.items()}, self.P)

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, r):
        r = self.ctx.k.elt(r)
        return DictSeries(self.ctx, {i: c.mul(r) for i, c in self.coeffs.items()}, self.P)

    def mul(self, other):
        v1 = min(self.valuation(), self.P)
        v2 = min(other.valuation(), other.P)
        prec = min(self.P + v2, other.P + v1)
        out = {}
        for i, c in self.coeffs.items():
            for j, d in other.coeffs.items():
                if i + j < prec:
                    s = out.get(i + j)
                    out[i + j] = c.mul(d) if s is None else s.add(c.mul(d))
        return DictSeries(self.ctx, out, prec)

    def truncate(self, P):
        return DictSeries(self.ctx, self.coeffs, min(self.P, P))

    def inv(self):
        ctx = self.ctx
        v = self.valuation()
        if v == INF:
            raise DomainError("inverse of (truncated) zero")
        lead = self.coeffs[v]
        rel = self.P - v
        if rel == INF:
            if len(self.coeffs) == 1:
                return DictSeries(ctx, {-v: lead.inv()}, INF)
            rel = ctx.default_precision
        if rel <= 0:
            raise PrecisionError("inverse would have no known digit")
        # z = lead t^v (1 + w); 1/(1 + w) = sum (-w)^n, truncated at t^rel
        linv = lead.inv()
        w = DictSeries(ctx, {i - v: c.mul(linv) for i, c in self.coeffs.items() if i != v}, rel)
        acc = term = DictSeries(ctx, {0: ctx.k.one()}, rel)
        wv = w.valuation()
        n = 0
        while wv != INF and n * wv < rel:
            term = term.mul(w).neg().truncate(rel)
            acc = acc.add(term)
            n += 1
        return DictSeries(ctx, {i - v: c.mul(linv) for i, c in acc.coeffs.items()}, rel - v)

    def shift(self, i):
        return DictSeries(self.ctx, {j + i: c for j, c in self.coeffs.items()}, self.P + i)

    def derivative(self):
        p = self.ctx.p
        return DictSeries(self.ctx, {i - 1: c.scale(i % p) for i, c in self.coeffs.items()}, self.P - 1)

    def digit(self, m):
        if m >= self.P:
            raise PrecisionError("digit at t^%d unknown: precision is %s" % (m, self.P))
        return self.coeffs.get(m, self.ctx.k.zero())

    def digits(self, lo=None, hi=None):
        return [
            (i, c)
            for i, c in sorted(self.coeffs.items())
            if (lo is None or i >= lo) and (hi is None or i < hi)
        ]
