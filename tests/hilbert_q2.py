"""The classical quadratic Hilbert symbol over Q_2, an oracle for the tests.

It reads unit parts mod 8 and solves no norm equation, so it checks the
kernel pairing at p = 2 independently of the library's norm groups.
"""

from lfk.errors import DomainError, PrecisionError, UnsupportedCaseError
from lfk.local_arith import val


def hilbert_symbol_q2(a, b):
    """The classical quadratic Hilbert symbol (a, b) over Q_2, as +/-1.

    Computed by the exponent formula eps(u)eps(v) + alpha*omega(v) +
    beta*omega(u) on unit parts mod 8.
    """
    ctx = a.ctx
    if ctx.characteristic != 0 or ctx.p != 2 or ctx.e != 1 or ctx.f != 1:
        raise UnsupportedCaseError("the classical symbol is implemented over Q_2 only")
    if b.ctx is not ctx:
        raise DomainError("pairing arguments live over different fields")

    def split(z):
        if z.is_zero_to_precision():
            raise DomainError("hilbert symbol of zero")
        v = val(z)
        u = z.mul(ctx.pi().powi(-int(v)))
        for m in (1, 3, 5, 7):
            if val(u.sub(ctx.from_int(m))) >= 3:
                return int(v), m
        raise PrecisionError("unit part of a symbol argument is not known mod 8")

    va, ua = split(a)
    vb, ub = split(b)
    eps = lambda m: ((m - 1) // 2) % 2
    omega = lambda m: ((m * m - 1) // 8) % 2
    exponent = eps(ua) * eps(ub) + va * omega(ub) + vb * omega(ua)
    return -1 if exponent % 2 else 1
