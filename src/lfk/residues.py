"""The residue field k = F_q, q = p^f, as F_p[u]/(residue_poly).

Elements are coordinate tuples in the power basis 1, u, ..., u^(f-1).  Each
field holds exactly one element object per value, numbered by its index: the
coordinates read as a base-p numeral, constant digit lowest (so 0 is zero and
1 is one).  Arithmetic is table lookup in the Zech-logarithm representation
(as in FLINT's fq_zech): with g a primitive element, every element carries
its log, log(x) = j for x = g^j and a sentinel for zero, and

    x * y = g^(log x + log y),    x + y = x * (1 + y/x) = g^(log x + Z(log y - log x)),

where Z(d) = log(1 + g^d) is the Zech table.  Inverses, powers, Frobenius
and p-th roots are exponent arithmetic modulo q - 1; the trace is the sum of
Frobenius powers.  The tables take O(q) memory and are built the first time
an element is made, by polynomial arithmetic, which is otherwise used only
to test irreducibility.
"""

import array
import functools
import itertools

from .errors import DomainError, InternalError, MalformedInputError
from .fp_linalg import FpVector, solve


def _poly_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


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


class _Interned(dict):
    """A dict that makes a missing value from its key, once."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_powmod(a, n, m, p):
    out = [1]
    while n:
        if n & 1:
            out = _poly_mod(_poly_mul(out, a, p), m, p)
        a = _poly_mod(_poly_mul(a, a, p), m, p)
        n >>= 1
    return out


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

    def __eq__(self, other):
        return (
            isinstance(other, ResidueField)
            and (self.p, self.f, self.poly) == (other.p, other.f, other.poly)
        )

    def __hash__(self):
        return hash((self.p, self.f, self.poly))

    def __repr__(self):
        return "ResidueField(p=%d, f=%d)" % (self.p, self.f)

    # -- tables

    def _index(self, coords):
        return sum(c * self.p**s for s, c in enumerate(coords))

    def _primitive(self):
        """The first element, by index, whose multiplicative order is q - 1."""
        p, poly, order = self.p, list(self.poly), self.q - 1
        for index in range(1, self.q):
            g = _poly_trim([(index // p**s) % p for s in range(self.f)])
            if all(_poly_powmod(g, order // r, poly, p) != [1] for r in _prime_factors(order)):
                return g
        raise InternalError("F_%d has no primitive element (impossible)" % self.q)

    @functools.cached_property
    def _elts(self):
        """index -> element, each made once on first request.

        The first call builds the log, antilog and Zech tables, so every
        element finds them in place when it operates.  The tables are arrays
        of q machine integers; element objects exist only for values in use.
        """
        p, f, order = self.p, self.f, self.q - 1
        g = self._primitive()
        # column s of multiplication by g: the coordinates of g * u^s
        cols = []
        for s in range(f):
            col = _poly_mod(_poly_mul([0] * s + [1], g, p), list(self.poly), p)
            cols.append(col + [0] * (f - len(col)))
        antilog = array.array("q")  # antilog[j] = index of g^j
        cur = [1] + [0] * (f - 1)
        for _ in range(order):
            index = 0
            for c in reversed(cur):
                index = index * p + c
            antilog.append(index)
            nxt = [0] * f
            for c, col in zip(cur, cols):
                if c:
                    for i, m in enumerate(col):
                        nxt[i] += c * m
            cur = [c % p for c in nxt]
        # zero's log is a sentinel past every sum of two real logs (at most
        # 2(q - 2)); the exponent table sends it, plus any log, to zero
        zero_log = 2 * order - 1
        log = array.array("q", [zero_log]) * self.q
        for j, index in enumerate(antilog):
            log[index] = j
        self._log = log
        elts = _Interned(lambda index: ResidueElement(self, index))
        self._by_log = _Interned(
            lambda j: elts[antilog[j % order]] if j < zero_log else elts[0]
        )
        # Z(d) = log(1 + g^d); adding 1 changes only the constant digit
        self._zech = array.array(
            "q", (log[a - a % p + (a + 1) % p] for a in antilog)
        )
        self._neg_one_log = log[p - 1]
        return elts

    # -- constructors

    def elt(self, coords):
        if isinstance(coords, ResidueElement):
            if coords.field is not self and coords.field != self:
                raise DomainError("%r is an element of another residue field" % (coords,))
            return coords
        if isinstance(coords, int):
            return self._elts[coords % self.p]
        coords = list(coords)
        if len(coords) > self.f:
            coords = _poly_mod(coords, list(self.poly), self.p)
        return self._elts[self._index([c % self.p for c in coords])]

    def zero(self):
        return self._elts[0]

    def one(self):
        return self._elts[1]

    def gen(self):
        """The class of u (equals 0 when f = 1 and poly = u)."""
        if self.f == 1:
            return self.elt([(-self.poly[0]) % self.p])
        return self.elt([0, 1])

    def basis(self):
        """The power basis 1, u, ..., u^(f-1) as elements."""
        return [self._elts[self.p**s] for s in range(self.f)]

    def elements(self):
        """All q elements, in lexicographic coordinate order."""
        for coords in itertools.product(range(self.p), repeat=self.f):
            yield self._elts[self._index(coords)]

    def wp_preimage(self, a):
        """Solve x^p - x = a in k, or None when no x exists (trace of a nonzero).

        x -> x^p - x is F_p-linear with kernel F_p, so it is one-to-one on
        the span of u, ..., u^(f-1).  Each requested a is solved once, on
        the power basis against the columns b^p - b, and the answer is kept:
        the solution whose constant coordinate is 0, which is also the
        lexicographically first.
        """
        return self._wp_solutions[a]

    @functools.cached_property
    def _wp_solutions(self):
        cols = [b.pow(self.p).sub(b).fp_vector() for b in self.basis()[1:]]

        def solve_for(a):
            x = solve(cols, a.fp_vector())
            return None if x is None else self.elt((0,) + x)

        return _Interned(solve_for)


class ResidueElement:
    """One element of a ResidueField, made once per value by the field.

    index is the base-p numeral of coords (0 exactly for zero) and log the
    Zech logarithm, so each operation below is a lookup in the field's
    exponent table _by_log.
    """

    __slots__ = ("field", "coords", "index", "log")

    def __init__(self, field, index):
        self.field = field
        self.coords = tuple(index // field.p**s % field.p for s in range(field.f))
        self.index = index
        self.log = field._log[index]

    def fp_vector(self):
        return FpVector(self.field.p, self.coords)

    def is_zero(self):
        return not self.index

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ResidueElement)
            and self.index == other.index
            and self.field == other.field
        )

    def __hash__(self):
        return hash(self.index)

    def __repr__(self):
        return "k(%s)" % (",".join(str(c) for c in self.coords))

    def add(self, other):
        if not other.index:
            return self
        if not self.index:
            return other
        k = self.field
        # a negative log difference indexes the Zech table from its end,
        # which is reading it modulo q - 1
        return k._by_log[self.log + k._zech[other.log - self.log]]

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        k = self.field
        return k._by_log[self.log + k._neg_one_log]

    def scale(self, s):
        return self.mul(self.field.elt(s))

    def mul(self, other):
        return self.field._by_log[self.log + other.log]

    def pow(self, n):
        k = self.field
        if not self.index:
            if n < 0:
                raise DomainError("inverse of zero in residue field")
            return self if n else k.one()
        return k._by_log[self.log * n % (k.q - 1)]

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
        if any(acc.coords[1:]):
            raise InternalError("trace of %r landed outside F_%d" % (self, k.p))
        return acc.coords[0]
