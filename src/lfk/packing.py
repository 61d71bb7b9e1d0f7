"""A char-p Laurent series as one integer: the packed layout of a field.

Kronecker substitution on two levels (von zur Gathen and Gerhard, Modern
Computer Algebra, 8.4).  The digit of t^(v+i) of a series t^v * X fills
bits [i*D, (i+1)*D) of the integer X as 2f - 1 slots: the low f hold its
F_p coordinates in the basis 1, u, ..., u^(f-1) of k, and the others are 0,
so that the product of two digits, of u-degree at most 2f - 2, stays inside
one digit.  A product of two series is then one integer product followed
by one reduce(): the slots of u-degree j >= f are folded onto the low ones
by u^j mod the residue polynomial, and every slot is taken mod p.

Stored slots are wide enough for the unreduced sums of a product whose
shorter factor has up to _STORE_DIGITS digits.  A longer product moves its
factors to wider slots, and its result back, so exact series of any length
share the one layout.

local_arith.LaurentElement keeps its series in this layout and imports the
module on a field's first series, so that `import lfk` and making a field
compile and build none of it.
"""

from .residues import _Interned, _poly_mod

_STORE_DIGITS = 16


def _rewidth(X, b_from, b_to):
    """X with its slots of b_from bytes moved into slots of b_to bytes
    (narrowing keeps the low b_to bytes of each)."""
    n = -(-X.bit_length() // (8 * b_from))
    src, out = X.to_bytes(n * b_from, "little"), bytearray(n * b_to)
    for j in range(min(b_from, b_to)):
        out[j::b_to] = src[j::b_from]
    return int.from_bytes(out, "little")


class _Slots:
    """One slot width of a Layout: w = 8b bits a slot, D bits a digit.

    reduce() folds the slots of u-degree j >= f onto the low ones, then
    takes every slot mod p: at p = 2 a mask of its low bit, at odd p one
    slot-wise division by p as a multiply and a shift (Granlund and
    Montgomery): with k = cap + ceil(log2 p) and m = ceil(2^k / p),
    floor(s*m / 2^k) = floor(s / p) for every s < 2^cap, and s*m < 2^w stays
    in its slot.  The masks repeat per digit and grow with the integers met.
    """

    def __init__(self, layout, b):
        p, self.layout, self.b, w = layout.p, layout, b, 8 * b
        self.w, self.D = w, layout.stride * w
        self.cap = w if p == 2 else (w - 1) // 2
        self.k = self.cap + (p - 1).bit_length()
        self.m = -(-(1 << self.k) // p)
        # H * M puts c_s * H into slot s of each digit, where u^j = sum c_s u^s
        self.folds = [(j * w, sum(c << (s * w) for s, c in row)) for j, row in layout.folds]
        self.cover = -1

    def reduce(self, Y):
        """Y folded and reduced; every slot of Y must be below 2^cap."""
        L = self.layout
        if Y.bit_length() > self.cover:
            n = max(Y.bit_length() // self.D + 1, 2 * self.cover // self.D, 64)

            def periodic(*slots):
                return int.from_bytes(b"".join(s.to_bytes(self.b, "little") for s in slots) * n, "little")

            full = (1 << self.w) - 1
            self.keep = periodic(*[1 if L.p == 2 else (1 << (self.w - self.k)) - 1] * L.stride)
            self.low = periodic(*[full] * L.f + [0] * (L.f - 1))
            self.sub0 = periodic(full, *[0] * (L.stride - 1))
            self.cover = n * self.D
        if self.folds:
            Z = Y & self.low
            for shift, M in self.folds:
                Z += ((Y >> shift) & self.sub0) * M
            Y = Z
        if L.p == 2:
            return Y & self.keep
        return Y - (((Y * self.m) >> self.k) & self.keep) * L.p


class Layout:
    """The packed layout of the series over one residue field k.

    D is the width of a stored digit in bits and dmask selects its
    coordinates; code() and dec translate between a digit and its interned
    residue element.
    """

    def __init__(self, k):
        p, f = self.p, self.f = k.p, k.f
        self.stride = 2 * f - 1
        self.folds = []  # (j, [(s, c_s)]) with u^j = sum c_s u^s, f <= j <= 2f - 2
        for j in range(f, 2 * f - 1):
            row = _poly_mod([0] * j + [1], k.poly, p)
            self.folds.append((j, [(s, c) for s, c in enumerate(row) if c]))
        self.widths = {}
        self.store = S = self.slots(self._bytes_for(_STORE_DIGITS))
        self.D, self.fit_bits = S.D, ((1 << S.cap) - 1) // self._bound(1) * S.D
        w = S.w
        self.dmask = (1 << (f * w)) - 1
        self.dec = _Interned(
            lambda d: k._elts[sum((d >> (s * w) & ((1 << w) - 1)) * p**s for s in range(f))]
        )
        self._codes = _Interned(lambda i: sum((i // p**s % p) << (s * w) for s in range(f)))

    def slots(self, b):
        if b not in self.widths:
            self.widths[b] = _Slots(self, b)
        return self.widths[b]

    def _bound(self, n):
        """The largest slot of an unreduced, folded product whose shorter
        factor has n digits."""
        p, f = self.p, self.f
        return n * f * (p - 1) ** 2 * (1 + (f - 1) * (p - 1))

    def _bytes_for(self, n):
        b = 1
        while self.slots(b).cap < self._bound(n).bit_length():
            b += 1
        return b

    def code(self, r):
        return self._codes[r.index]

    def combine(self, A, B, c):
        """A + c*B slot-wise, c in F_p."""
        return A ^ B if self.p == 2 else self.store.reduce(A + c * B)

    def product(self, A, B, nd):
        """The product of packed A and B cut to its nd lowest digits (nd may be inf)."""
        S = self.store
        la, lb = A.bit_length(), B.bit_length()
        cut = la + lb
        if nd * S.D < cut:
            cut = nd * S.D
            if la > cut:
                A, la = A & ((1 << cut) - 1), cut
            if lb > cut:
                B, lb = B & ((1 << cut) - 1), cut
        if la <= self.fit_bits or lb <= self.fit_bits:
            W, Y = S, A * B
        else:  # too many terms meet in a slot: this product gets wider slots
            W = self.slots(self._bytes_for(-(-min(la, lb) // S.D)))
            Y = _rewidth(A, S.b, W.b) * _rewidth(B, S.b, W.b)
        Y = W.reduce(Y)
        if W is not S:
            Y = _rewidth(Y, W.b, S.b)
        return Y & ((1 << cut) - 1) if Y.bit_length() > cut else Y
