"""The residue field k = F_q, q = p^f, as F_p[u]/(residue_poly).

An element is its packed digit: one integer that holds its coordinates in
the power basis 1, u, ..., u^(f-1) in the slots of the field's
packing.Layout, the same integer a char-p Laurent series over k stores for
one digit.  Arithmetic is that layout's kernel on one digit: a sum is a
slot-wise combine, a product one integer product folded by the residue
polynomial and reduced slot-wise mod p, and a power square-and-multiply
with the exponent taken mod q - 1.  Inverses, Frobenius and p-th roots are
powers; the trace is the sum of Frobenius powers.  Nothing is tabulated
over k, so a field of any size costs memory and time polynomial in f and
log p.
"""

import functools
import itertools

from .errors import DomainError, InternalError, MalformedInputError
from .fp_linalg import FpVector, solve


def _poly_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        a = _poly_trim(a)
        if len(a) - 1 < dm:
            break
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * mi) % p
        a = _poly_trim(a)
    return a


def irreducible_over_fp(coeffs, p):
    """Trial-factorization irreducibility test for a monic poly over F_p."""
    coeffs = list(coeffs)
    if not coeffs or coeffs[-1] != 1:
        return False
    f = len(coeffs) - 1
    if f == 0:
        return False
    if f == 1:
        return True
    # trial division by every monic polynomial of degree 1..f//2
    for d in range(1, f // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            if not _poly_mod(coeffs, div, p):
                return False
    return True


def default_residue_poly(p, f):
    """Lexicographically least monic irreducible of degree f over F_p.

    Coefficient tuples (constant term first) are scanned in lexicographic
    order, so the choice is deterministic and reproducible.
    """
    for tail in itertools.product(range(p), repeat=f):
        cand = list(tail) + [1]
        if irreducible_over_fp(cand, p):
            return tuple(cand)
    raise DomainError("no irreducible polynomial found (impossible)")


class ResidueField:
    """F_q with q = p^f, as F_p[u]/(poly)."""

    def __init__(self, p, f, poly=None):
        if poly is None:
            poly = default_residue_poly(p, f)
        poly = tuple(c % p for c in poly)
        if len(poly) != f + 1 or poly[-1] != 1:
            raise MalformedInputError("residue polynomial must be monic of degree f")
        if not irreducible_over_fp(poly, p):
            raise DomainError("residue polynomial is reducible over F_%d" % p)
        self.p = p
        self.f = f
        self.q = p**f
        self.poly = poly
        self._wp_solutions = {}  # a.code -> wp_preimage(a)

    def __eq__(self, other):
        return (
            isinstance(other, ResidueField)
            and (self.p, self.f, self.poly) == (other.p, other.f, other.poly)
        )

    def __hash__(self):
        return hash((self.p, self.f, self.poly))

    def __repr__(self):
        return "ResidueField(p=%d, f=%d)" % (self.p, self.f)

    @functools.cached_property
    def layout(self):
        """The packing.Layout that stores this field's digits: one element is
        one of its digits, and a char-p series over k is a string of them.

        Made, and its module imported, when an element first needs it.
        """
        from .packing import Layout

        return Layout(self)

    # -- constructors

    def elt(self, coords):
        if isinstance(coords, ResidueElement):
            if coords.field is not self and coords.field != self:
                raise DomainError("%r is an element of another residue field" % (coords,))
            return coords
        if isinstance(coords, int):
            return ResidueElement(self, coords % self.p)
        coords = list(coords)
        if len(coords) > self.f:
            coords = _poly_mod(coords, list(self.poly), self.p)
        return ResidueElement(self, self.layout.encode(coords))

    def zero(self):
        return ResidueElement(self, 0)

    def one(self):
        return ResidueElement(self, 1)

    def gen(self):
        """The class of u (equals 0 when f = 1 and poly = u)."""
        if self.f == 1:
            return self.elt([(-self.poly[0]) % self.p])
        return self.elt([0, 1])

    def basis(self):
        """The power basis 1, u, ..., u^(f-1) as elements."""
        return [self.elt((0,) * s + (1,)) for s in range(self.f)]

    def elements(self):
        """All q elements, in lexicographic coordinate order."""
        for coords in itertools.product(range(self.p), repeat=self.f):
            yield self.elt(coords)

    def wp_preimage(self, a):
        """Solve x^p - x = a in k, or None when no x exists (trace of a nonzero).

        x -> x^p - x is F_p-linear with kernel F_p, so it is one-to-one on
        the span of u, ..., u^(f-1).  Each requested a is solved once, on
        the power basis against the columns b^p - b, and the answer is kept:
        the solution whose constant coordinate is 0, which is also the
        lexicographically first.
        """
        if a.code not in self._wp_solutions:
            x = solve(self._wp_columns, a.fp_vector())
            self._wp_solutions[a.code] = None if x is None else self.elt((0,) + x)
        return self._wp_solutions[a.code]

    @functools.cached_property
    def _wp_columns(self):
        return [b.pow(self.p).sub(b).fp_vector() for b in self.basis()[1:]]


class ResidueElement:
    """One element of a ResidueField: its packed digit in the field's layout.

    code is the stored digit (packing.Layout.encode) of the coordinates in
    the basis 1, u, ..., u^(f-1).  The constant coordinate is its lowest
    slot, so an integer c in [0, p) is the code of c, and equal values have
    equal codes.
    """

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    @property
    def coords(self):
        return self.field.layout.decode(self.code)

    def fp_vector(self):
        return FpVector(self.field.p, self.coords)

    def is_zero(self):
        return not self.code

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ResidueElement)
            and self.code == other.code
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash(self.code)

    def __repr__(self):
        return "k(%s)" % (",".join(str(c) for c in self.coords))

    def add(self, other):
        return ResidueElement(self.field, self.field.layout.combine(self.code, other.code, 1))

    def sub(self, other):
        k = self.field
        return ResidueElement(k, k.layout.combine(self.code, other.code, k.p - 1))

    def neg(self):
        k = self.field
        return ResidueElement(k, k.layout.combine(0, self.code, k.p - 1))

    def scale(self, s):
        # not combine(0, code, s): at p = 2 it ignores s
        k = self.field
        return ResidueElement(k, k.layout.store.reduce(self.code * (s % k.p)))

    def mul(self, other):
        k = self.field
        return ResidueElement(k, k.layout.store.reduce(self.code * other.code))

    def pow(self, n):
        k = self.field
        if not self.code:
            if n < 0:
                raise DomainError("inverse of zero in residue field")
            return self if n else k.one()
        n %= k.q - 1
        if not n:
            return k.one()
        reduce, base = k.layout.store.reduce, self.code
        out = base
        for bit in bin(n)[3:]:  # left to right, below the leading 1
            out = reduce(out * out)
            if bit == "1":
                out = reduce(out * base)
        return ResidueElement(k, out)

    def inv(self):
        return self.pow(-1)

    def frobenius(self):
        return self.pow(self.field.p)

    def pth_root(self):
        """Inverse of Frobenius: exact since x -> x^p is bijective on k."""
        return self.pow(self.field.p ** (self.field.f - 1))

    def trace(self):
        """Trace to F_p as an integer in [0, p): sum of Frobenius powers."""
        k = self.field
        acc = k.zero()
        cur = self
        for _ in range(k.f):
            acc = acc.add(cur)
            cur = cur.frobenius()
        if acc.code >= k.p:  # a slot above the constant one is nonzero
            raise InternalError("trace of %r landed outside F_%d" % (self, k.p))
        return acc.code
