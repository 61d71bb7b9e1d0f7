"""Field contexts and exact element arithmetic.

The oracles here avoid the library's own representation: valuations are
cross-checked with plain integer arithmetic where the field embeds into
Q_p, bp_index against a direct enumeration of integers prime to p, and
the char-0 product kernel against a schoolbook convolution that reduces
after every step, and packed char-p series against dict arithmetic on
residue elements (laurent_oracle.DictSeries).
"""

import math
import os
import random
import subprocess
import sys
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from laurent_oracle import DictSeries

import lfk
from lfk.errors import DomainError, MalformedInputError, PrecisionError
from lfk.local_arith import (
    INF,
    ZqElement,
    bp_index,
    parse_element,
    parse_field,
    series_residue_and_dlog,
    val,
)


# ---------------------------------------------------------------- oracles


def oracle_bp_list(p, n):
    """First n positive integers not divisible by p, by brute enumeration."""
    out = []
    m = 1
    while len(out) < n:
        if m % p:
            out.append(m)
        m += 1
    return out


def oracle_vp(n, p):
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def oracle_num_mul(ctx, A, B):
    """Product of two char-0 numerators: convolve, then fold by m(w) and
    E(x), reducing mod p^coeff_prec after every step."""
    f, e, mod = ctx.f, ctx.e, ctx.pmod
    m, eis = ctx.k.poly, ctx.eisenstein_poly
    big = [[0] * (2 * e - 1) for _ in range(2 * f - 1)]
    for a1 in range(f):
        for b1 in range(e):
            for a2 in range(f):
                for b2 in range(e):
                    big[a1 + a2][b1 + b2] = (big[a1 + a2][b1 + b2] + A[a1][b1] * B[a2][b2]) % mod
    for a in range(2 * f - 2, f - 1, -1):
        for b in range(2 * e - 1):
            c, big[a][b] = big[a][b], 0
            for j in range(f):
                big[a - f + j][b] = (big[a - f + j][b] - c * m[j]) % mod
    for b in range(2 * e - 2, e - 1, -1):
        for a in range(f):
            c, big[a][b] = big[a][b], 0
            for j in range(e):
                big[a][b - e + j] = (big[a][b - e + j] - c * eis[j]) % mod
    return [row[:e] for row in big[:f]]


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def q2():
    return parse_field("Qp p=2 f=1")


@pytest.fixture(scope="module")
def q3z():
    # Q_3(zeta_3): Eisenstein x^2 + 3x + 3
    return parse_field("Qp p=3 f=1 eis=3,3,1")


@pytest.fixture(scope="module")
def q2u2():
    # unramified quadratic extension of Q_2
    return parse_field("Qp p=2 f=2")


@pytest.fixture(scope="module")
def f2t():
    return parse_field("Fq((t)) p=2 f=1")


@pytest.fixture(scope="module")
def f3t():
    return parse_field("Fq((t)) p=3 f=1")


@pytest.fixture(scope="module")
def f4t():
    return parse_field("Fq((t)) p=2 f=2")


# ---------------------------------------------------------------- bp_index


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_bp_index_matches_enumeration(p):
    want = oracle_bp_list(p, 1000)
    got = [bp_index(p, i) for i in range(1, 1001)]
    assert got == want


def test_bp_index_rejects_nonpositive():
    with pytest.raises(DomainError):
        bp_index(3, 0)


# ---------------------------------------------------------------- constants


def test_q2_constants(q2):
    assert (q2.e, q2.f, q2.q) == (1, 1, 2)
    assert (q2.c, q2.pc) == (1, 2)
    assert q2.mu_p_present
    # zeta = -1
    assert q2.zeta.add(q2.one()).is_zero_to_precision()


def test_q3_zeta3_constants(q3z):
    assert (q3z.e, q3z.f) == (2, 1)
    assert (q3z.c, q3z.pc) == (1, 3)
    assert q3z.mu_p_present


def test_q3_plain_has_no_zeta3():
    ctx = parse_field("Qp p=3 f=1")
    # e = 1 is not divisible by p - 1 = 2: certified absent
    assert not ctx.mu_p_present and ctx.zeta is None


def test_q5_ramified_no_mu5():
    # x^2 - 5: e = 2 not divisible by 4
    ctx = parse_field("Qp p=5 f=1 eis=-5,0,1")
    assert not ctx.mu_p_present


def test_char_p_constants(f3t):
    assert f3t.e == INF
    assert not f3t.mu_p_present


def test_eisenstein_validation():
    with pytest.raises(MalformedInputError):
        parse_field("Qp p=2 f=1 eis=4,1")  # v(4) = 2
    with pytest.raises(MalformedInputError):
        parse_field("Qp p=2 f=1 eis=2,1,1")  # middle coefficient is a unit
    with pytest.raises(MalformedInputError):
        parse_field("Qp p=2 f=1 eis=2,2")  # not monic


def test_construction_rejects_tiny_precision():
    with pytest.raises(PrecisionError):
        parse_field("Qp p=2 f=1 prec=2")


# ---------------------------------------------------------------- valuations


def test_val_examples(q2, q3z):
    assert val(q2.from_int(12)) == 2  # v_2(12)
    assert val(q2.from_int(0)) == INF
    assert val(q3z.from_int(3)) == 2  # pi^2 || 3 when e = 2
    assert val(q3z.pi()) == 1
    assert val(q3z.from_int(5)) == 0


def test_val_against_integer_oracle(q2):
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 1 << 30)
        assert val(q2.from_int(n)) == oracle_vp(n, 2)


def test_val_of_p_is_e():
    for text in ["Qp p=2 f=1", "Qp p=3 f=1 eis=3,3,1", "Qp p=2 f=2"]:
        ctx = parse_field(text)
        assert val(ctx.from_int(ctx.p)) == ctx.e


def test_char_p_val(f3t):
    z = f3t.pi().powi(-4).add(f3t.one())
    assert val(z) == -4
    assert val(f3t.zero()) == INF


# ---------------------------------------------------------------- ring ops


def _random_element(ctx, rng, vmin=-3, vmax=8):
    pairs = []
    for i in range(vmin, vmax):
        pairs.append((i, rng.randrange(ctx.q)))
    z = ctx.from_digits((i, ctx.k.elt(_coords(ctx, d))) for i, d in pairs)
    return z


def _coords(ctx, n):
    out = []
    for _ in range(ctx.f):
        out.append(n % ctx.p)
        n //= ctx.p
    return out


@pytest.mark.parametrize("fieldname", ["q2", "q3z", "q2u2", "f3t", "f4t"])
def test_ultrametric_and_multiplicativity(fieldname, request):
    ctx = request.getfixturevalue(fieldname)
    rng = random.Random(hash(fieldname) & 0xFFFF)
    for _ in range(150):
        x = _random_element(ctx, rng)
        y = _random_element(ctx, rng)
        vx, vy = val(x), val(y)
        if vx == INF or vy == INF:
            continue
        assert val(x.mul(y)) == vx + vy
        vs = val(x.add(y))
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)


@pytest.mark.parametrize("fieldname", ["q2", "q3z", "q2u2", "f3t", "f4t"])
def test_inverse_roundtrip(fieldname, request):
    ctx = request.getfixturevalue(fieldname)
    rng = random.Random(23)
    for _ in range(60):
        x = _random_element(ctx, rng)
        if x.is_zero_to_precision():
            continue
        z = x.mul(x.inv())
        assert z.sub(ctx.one()).is_zero_to_precision()


def test_inverse_of_zero_rejected(q2, f3t):
    for ctx in (q2, f3t):
        with pytest.raises(DomainError):
            ctx.zero().inv()


def test_associativity_spot(q3z):
    rng = random.Random(5)
    for _ in range(40):
        a, b, c = (_random_element(q3z, rng) for _ in range(3))
        left = a.mul(b).mul(c)
        right = a.mul(b.mul(c))
        assert left.eq_to_precision(right)
        left = a.add(b).add(c)
        right = a.add(b.add(c))
        assert left.eq_to_precision(right)


def test_distributivity_char_p_exact(f4t):
    rng = random.Random(9)
    for _ in range(40):
        a, b, c = (_random_element(f4t, rng) for _ in range(3))
        assert a.mul(b.add(c)).sub(a.mul(b).add(a.mul(c))).is_zero_to_precision()


# Every (f, e) shape among the bundled char-0 fields, plus e = 4 and f = 3.
KERNEL_FIELDS = [
    "Qp p=2 f=1",
    "Qp p=2 f=2",
    "Qp p=3 f=2",
    "Qp p=3 f=1 eis=3,3,1",
    "Qp p=2 f=1 eis=-2,0,0,1",
    "Qp p=3 f=2 eis=3,3,1",
    "Qp p=5 f=1 eis=5,10,10,5,1",
    "Qp p=2 f=3 eis=2,2,1",
]


@pytest.mark.parametrize("desc", KERNEL_FIELDS)
def test_num_mul_matches_schoolbook(desc):
    ctx = parse_field(desc)
    rng = random.Random(desc)
    mod = ctx.pmod

    def operand(density):
        return [
            [
                rng.choice((1, mod - 1, rng.randrange(mod))) if rng.random() < density else 0
                for _ in range(ctx.e)
            ]
            for _ in range(ctx.f)
        ]

    for density in (1.0, 0.5, 0.25):
        for _ in range(60):
            A, B = operand(density), operand(density)
            assert ctx._num_mul(A, B) == oracle_num_mul(ctx, A, B), (desc, A, B)


def _fresh_val(z):
    return ZqElement(z.ctx, z.num, z.t, z.P).valuation()


POOL_FIELDS = [
    "Qp p=2 f=1",
    "Qp p=2 f=2",
    "Qp p=3 f=1 eis=3,3,1",
    "Qp p=3 f=2 eis=3,3,1",
    # zeta comes out of a Newton lift: stripped, with t = 0 and P = 63
    "Qp p=3 f=1 eis=3,0,1",
]


def _element_pool(desc):
    # negative t, inverses, truncated zeros, zeta and p^k near the cap
    ctx = parse_field(desc)
    rng = random.Random(desc)
    pool = [_random_element(ctx, rng) for _ in range(6)]
    pool += [x.shift(-7) for x in pool[:3]]  # negative t
    pool += [x.inv() for x in pool[:3] if val(x) != INF]
    pool += [ctx.zero(5), pool[0].sub(pool[0]), pool[1].truncate(int(val(pool[1])))]
    if ctx.zeta is not None:
        pool.append(ctx.zeta)
    half = ctx.coeff_prec // 2
    pool += [ctx.from_int(ctx.p**k, prec=10**9) for k in (half - 1, half, half + 1)]
    assert any(z.t < 0 for z in pool)
    assert sum(z.is_zero_to_precision() for z in pool) >= 3
    return ctx, pool


@pytest.mark.parametrize("desc", POOL_FIELDS)
def test_product_valuation_equals_recomputation(desc):
    # ZqElement.mul derives the product's valuation from its operands';
    # it must equal what _num_pival reads off the product's numerator
    _, pool = _element_pool(desc)
    for a in pool:
        for b in pool:
            prod = a.mul(b)
            assert prod._val is not None
            assert prod._val == _fresh_val(prod), (a, b)


@pytest.mark.parametrize("desc", POOL_FIELDS)
def test_stripped_moves_the_p_content_of_num_into_t(desc):
    ctx, pool = _element_pool(desc)
    stripped = 0
    for z in pool:
        s = z._stripped()
        coeffs = list(chain.from_iterable(s.num))
        assert s.P == z.P and s.valuation() == _fresh_val(s) == z.valuation(), z
        assert s.sub(z).is_zero_to_precision(), z
        assert any(c % ctx.p for c in coeffs) or not any(coeffs), z
        assert s._stripped() is s, z
        stripped += s is not z
    assert stripped >= 3
    assert ctx.zeta is None or ctx.zeta._stripped() is ctx.zeta


def test_product_valuation_at_the_precision_cap(q2u2):
    # coefficients live mod p^coeff_prec, so P is capped at e * coeff_prec
    # for t = 0: a product whose valuation reaches the cap is a truncated zero
    ctx = q2u2
    cap = ctx.e * ctx.coeff_prec
    k = ctx.coeff_prec // 2
    x = ctx.from_int(2**k, prec=10**9)
    assert x.P == cap
    below = x.mul(ctx.from_int(2 ** (ctx.coeff_prec - k - 1), prec=10**9))
    at = x.mul(ctx.from_int(2 ** (ctx.coeff_prec - k), prec=10**9))
    assert below.P == at.P == cap
    assert below._val == _fresh_val(below) == cap - ctx.e
    assert at._val == _fresh_val(at) == INF


# ---------------------------------------------------------------- digits


def test_digit_expansion_q2(q2):
    z = q2.from_int(12)  # 12 = 2^2 + 2^3
    ds = dict(z.digits(hi=6))
    assert sorted(ds) == [2, 3]


def test_digits_reassemble(q3z):
    rng = random.Random(31)
    for _ in range(25):
        z = _random_element(q3z, rng)
        if z.is_zero_to_precision():
            continue
        back = q3z.from_digits(z.digits(hi=20))
        assert z.sub(back).valuation() >= 20


def test_digit_precision_guard(q2):
    z = q2.from_int(3, prec=5)
    with pytest.raises(PrecisionError):
        z.digit(7)


@pytest.mark.parametrize(
    "desc",
    [
        "Qp p=2 f=1",
        "Qp p=2 f=2",
        "Qp p=3 f=2",
        "Qp p=3 f=1 eis=3,3,1",
        "Qp p=2 f=1 eis=-2,0,0,1",
        "Qp p=3 f=2 eis=3,3,1",
    ],
)
def test_digit_agrees_with_digits_past_the_valuation(desc):
    # digit(m) for v < m < P once raised "digit extraction misaligned":
    # Q2's 3 = 1 + 2 has digits() [(0, 1), (1, 1)] but digit(1) failed
    ctx = parse_field(desc)
    rng = random.Random(desc)
    for z in (ctx.from_int(3), ctx.from_int(-5).mul(ctx.pi()), _random_element(ctx, rng)):
        expansion = dict(z.digits())
        for m in range(z.valuation(), z.P):
            assert z.digit(m) == expansion.get(m, ctx.k.zero()), (desc, z, m)


@pytest.mark.parametrize(
    "desc",
    [
        "Qp p=2 f=1",
        "Qp p=2 f=2",
        "Qp p=3 f=1 eis=3,3,1",
        "Qp p=2 f=1 eis=-2,0,0,1",
        "Qp p=3 f=2 eis=3,3,1",
    ],
)
def test_shift_is_a_product_by_a_power_of_pi(desc):
    # shift reads pi^i off one cached power table, in both directions
    ctx = parse_field(desc)
    rng = random.Random(desc)
    e = ctx.e
    # the last two sit at the representation cap e * (t + coeff_prec)
    samples = [_random_element(ctx, rng) for _ in range(4)]
    samples += [ctx.one(prec=10**6), ctx.zero(prec=10**6)]
    for x in samples:
        for i in range(-3 * e, 3 * e + 1):
            y = x.shift(i)
            assert y.P == min(x.P + i, e * (y.t + ctx.coeff_prec)), (desc, x, i)
            v = val(x) + i
            assert val(y) == (v if v < y.P else INF), (desc, x, i)
            if i > 0:
                # powi(i) for i > 0 uses mul only, never shift
                assert y.eq_to_precision(x.mul(ctx.pi().powi(i))), (desc, x, i)
            elif i < 0:
                assert y.shift(-i).eq_to_precision(x), (desc, x, i)


def test_teichmuller_is_root_of_unity(q2u2, q3z):
    for ctx in (q2u2, q3z):
        for r in ctx.k.elements():
            if r.is_zero():
                continue
            tau = ctx.teichmuller(r)
            assert tau.powi(ctx.q - 1).sub(ctx.one()).is_zero_to_precision()
            assert tau.residue() == r


def teichmuller_by_iteration(ctx, r):
    """Oracle: the lift of r as the fixed point of y -> y^q, reached from
    any lift of r at one p-adic digit per step."""
    num = ctx._num_from_residue(r)
    for _ in range(ctx.coeff_prec + 2):
        nxt = ctx._num_pow(num, ctx.q)
        if nxt == num:
            return num
        num = nxt
    raise AssertionError("y -> y^q did not stabilize")


@pytest.mark.parametrize(
    "text",
    ["Qp p=2 f=2", "Qp p=3 f=1 eis=3,3,1", "Qp p=3 f=2 eis=3,3,1", "Qp p=2 f=3",
     "Qp p=5 f=1 eis=5,10,10,5,1", "Qp p=3 f=2 eis=3,3,1 prec=128", "Qp p=7 f=2"],
)
def test_teichmuller_newton_lift_is_the_fixed_point_of_the_q_th_power(monkeypatch, text):
    # the lift is unique, so Newton's step must land on the integers the
    # plain iteration reaches, in about log2(coeff_prec) powers per lift
    # where the iteration takes about coeff_prec
    ctx = parse_field(text)
    ctx._teich_cache.clear()
    powers = []
    real = type(ctx)._num_pow
    monkeypatch.setattr(type(ctx), "_num_pow", lambda c, A, n: powers.append(n) or real(c, A, n))
    units = [r for r in ctx.k.elements() if not r.is_zero()]
    for r in units:
        ctx.teichmuller(r)
    assert len(powers) <= len(units) * (ctx.coeff_prec.bit_length() + 1), text
    monkeypatch.undo()
    assert ctx._teich_cache == {r.coords: teichmuller_by_iteration(ctx, r) for r in units}, text


# ---------------------------------------------------------------- zeta


@pytest.mark.parametrize(
    "text", ["Qp p=2 f=1", "Qp p=3 f=1 eis=3,3,1", "Qp p=3 f=2 eis=3,3,1"]
)
def test_zeta_properties(text):
    ctx = parse_field(text)
    assert ctx.mu_p_present
    z = ctx.zeta
    assert val(z.sub(ctx.one())) == ctx.c
    assert z.powi(ctx.p).sub(ctx.one()).is_zero_to_precision()
    assert not z.sub(ctx.one()).is_zero_to_precision()


def test_frobenius_on_laurent(f2t):
    # squaring acts coefficient-wise on exponents in char 2
    z = f2t.pi().add(f2t.one())
    sq = z.mul(z)
    assert dict(sq.digits()) == {0: f2t.k.one(), 2: f2t.k.one()}


# ---------------------------------------------------------------- dlog/residue


def test_series_residue_examples(f3t):
    t = f3t.pi()
    one = f3t.one()
    # res(dt/t) = 1: S(1) = 1 in F_3
    assert series_residue_and_dlog(one, t) == 1
    # res(t^3 d(t)/t) = 0
    assert series_residue_and_dlog(t.powi(3), t) == 0
    # u = unit: du/u has no pole at all
    u = one.add(t)
    assert series_residue_and_dlog(one, u) == 0


def test_series_residue_valuation_rule(f3t, f4t):
    # res(du/u) = v(u) mod p, so x = 1 reads off the valuation
    for ctx in (f3t, f4t):
        rng = random.Random(41)
        for _ in range(40):
            u = _random_element(ctx, rng)
            if u.is_zero_to_precision():
                continue
            got = series_residue_and_dlog(ctx.one(), u)
            want = (val(u) * ctx.k.one().trace()) % ctx.p
            assert got == want


def test_dlog_multiplicative(f3t):
    rng = random.Random(47)
    x = f3t.pi().powi(-2)
    for _ in range(30):
        u = _random_element(f3t, rng)
        w = _random_element(f3t, rng)
        if u.is_zero_to_precision() or w.is_zero_to_precision():
            continue
        lhs = series_residue_and_dlog(x, u.mul(w))
        rhs = (series_residue_and_dlog(x, u) + series_residue_and_dlog(x, w)) % 3
        assert lhs == rhs


def test_dlog_residue_cut_matches_untruncated(f2t, f3t, f4t):
    # series_residue_and_dlog cuts u to the digits the t^-1 coefficient
    # reads; u carries exact nonzero digits past that cut, and the answer
    # must equal the t^-1 digit of the uncut x * u' / u at default precision
    seen = set()
    for ctx in (f2t, f3t, f4t):
        rng = random.Random(0xD106 + ctx.q)
        nonzero = [a for a in ctx.k.elements() if not a.is_zero()]
        for _ in range(60):
            n = rng.randint(0, 6)
            x = ctx.from_digits(
                [(-n, rng.choice(nonzero))]
                + [(rng.randint(-n, 4), rng.choice(nonzero)) for _ in range(3)]
            )
            v = rng.randint(-4, 4)
            cut = v + max(0, -val(x)) + 2
            u = ctx.from_digits(
                [(v, rng.choice(nonzero))]
                + [(rng.randint(v + 1, cut), rng.choice(nonzero)) for _ in range(3)]
                + [(cut + j, rng.choice(nonzero)) for j in rng.sample(range(1, 9), 2)]
            )
            assert u.P == INF and u.digits()[-1][0] > cut
            w = x.mul(u.derivative().mul(u.inv()))
            assert w.P > -1
            want = w.digit(-1).trace()
            assert series_residue_and_dlog(x, u) == want
            seen.add(want)
    assert len(seen) > 1


# ---------------------------------------------------------------- packed series

ORACLE_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)]


def _series_pool(ctx, rng):
    """Seeded (oracle, packed) pairs: zeros, short, dense and long series,
    each exact and truncated."""
    k = ctx.k
    nonzero = [c for c in k.elements() if not c.is_zero()]
    shapes = [[], [0], [-3], [0, 1], [-2, 0, 5]]
    shapes += [sorted(rng.sample(range(-6, 14), rng.randint(2, 12))) for _ in range(4)]
    shapes += [list(range(-1, 11)), list(range(-4, 300)), sorted(rng.sample(range(0, 400), 320))]
    pool = []
    for exps in shapes:
        coeffs = {i: rng.choice(nonzero) for i in exps}
        exact = ctx.from_digits(list(coeffs.items()))
        pool.append((DictSeries(ctx, coeffs, INF), exact))
        P = (exps[0] if exps else 0) + rng.randint(0, 40)
        pool.append((DictSeries(ctx, coeffs, P), exact.truncate(P)))
    pool.append((DictSeries(ctx, {}, 3), ctx.zero(3)))  # a truncated zero
    return pool


def _agree(want, got, what):
    assert want.agrees(got), (what, want.digits()[:6], got.digits()[:6], want.P, got.P)


@pytest.mark.parametrize("p, f", ORACLE_FIELDS)
def test_packed_series_match_the_dict_oracle(p, f):
    ctx = parse_field("Fq((t)) p=%d f=%d" % (p, f))
    rng = random.Random(1000 * p + f)
    pool = _series_pool(ctx, rng)
    store = ctx._layout.store.b
    for want, x in pool:
        _agree(want, x, "construction")
        _agree(want.neg(), x.neg(), "neg")
        i = rng.randint(-9, 9)
        _agree(want.shift(i), x.shift(i), "shift")
        cut = rng.randint(-8, 30)
        _agree(want.truncate(cut), x.truncate(cut), "truncate")
        _agree(want.derivative(), x.derivative(), "derivative")
        for r in (ctx.k.zero(), ctx.k.one(), rng.choice(list(ctx.k.elements()))):
            _agree(want.scale(r), x.scale(r), "scale")
        lo, hi = sorted(rng.sample(range(-8, 40), 2))
        assert x.digits(lo, hi) == want.digits(lo, hi)
        for m in (rng.randint(-8, 40), want.valuation() if want.coeffs else 0, x.P):
            if m == INF:
                continue
            if m >= want.P:
                with pytest.raises(PrecisionError):
                    x.digit(m)
            else:
                assert x.digit(m) == want.digit(m)
        if want.coeffs and want.P - want.valuation() > 0:
            _agree(want.inv(), x.inv(), "inv")
        else:
            with pytest.raises((DomainError, PrecisionError)):
                x.inv()
    for (want, x), (want2, y) in product(pool, repeat=2):
        _agree(want.mul(want2), x.mul(y), "mul")
        _agree(want.add(want2), x.add(y), "add")
        _agree(want.sub(want2), x.sub(y), "sub")
    # the long products moved to wider slots and back
    assert any(b > store and w.cover for b, w in ctx._layout.widths.items())
    assert ctx._layout.store.b == store


@pytest.mark.parametrize("p, f", ORACLE_FIELDS)
def test_packed_inverse_of_long_exact_series(p, f):
    # an exact series of several terms inverts to relative precision prec
    ctx = parse_field("Fq((t)) p=%d f=%d prec=200" % (p, f))
    rng = random.Random(p * f)
    nonzero = [c for c in ctx.k.elements() if not c.is_zero()]
    coeffs = {i: rng.choice(nonzero) for i in range(-2, 250, 3)}
    x = ctx.from_digits(list(coeffs.items()))
    y = x.inv()
    _agree(DictSeries(ctx, coeffs, INF).inv(), y, "inv")
    assert y.P == 202 and x.mul(y).sub(ctx.one()).valuation() == INF


def test_cross_field_arithmetic_raises_under_optimized_python():
    # the field checks raise typed errors instead of asserting, so they
    # survive python -O, which strips asserts (the first line shows it does)
    script = "\n".join(
        [
            "assert False, 'asserts are live: not running under -O'",
            "from lfk.errors import DomainError",
            "from lfk.local_arith import parse_field",
            "F2, F3 = parse_field('Fq((t)) p=2 f=1'), parse_field('Fq((t)) p=3 f=1')",
            "Q2, Q3 = parse_field('Qp p=2 f=1'), parse_field('Qp p=3 f=1')",
            "cases = [getattr(a.one(), op) for a in (F2, Q2) for op in ('add', 'mul')]",
            "cases = list(zip(cases, (F3.pi(), F3.pi(), Q3.pi(), Q3.pi())))",
            "cases.append((F2.k.elt, F3.k.one()))",
            "for fn, arg in cases:",
            "    try:",
            "        fn(arg)",
            "    except DomainError:",
            "        print('refused')",
            "    else:",
            "        print('computed')",
        ]
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(lfk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["refused"] * 5


# ---------------------------------------------------------------- parsing


def test_parse_field_errors():
    with pytest.raises(MalformedInputError):
        parse_field("Zp p=2")
    with pytest.raises(MalformedInputError):
        parse_field("Qp f=1")
    with pytest.raises(MalformedInputError):
        parse_field("Qp p=4 f=1")
    with pytest.raises(MalformedInputError):
        parse_field("Qp p=2 f=1 bogus=3")
    with pytest.raises(MalformedInputError):
        parse_field("Fq((t)) p=2 f=1 eis=2,1")


def test_parse_element_grammar(q2, q3z, f3t, f4t):
    assert val(parse_element(q2, "12")) == 2
    assert val(parse_element(q3z, "pi^3")) == 3
    assert parse_element(q3z, "1 + 3*pi").digit(0) == q3z.k.one()
    assert val(parse_element(f3t, "t^-2 + 1")) == -2
    z = parse_element(f4t, "g*t + t^2")
    assert z.digit(1) == f4t.k.gen()
    with pytest.raises(MalformedInputError):
        parse_element(q2, "1 + $")
    with pytest.raises(MalformedInputError):
        parse_element(q2, "t")  # char-p name in a char-0 field
    with pytest.raises(MalformedInputError):
        parse_element(f3t, "pi")
    with pytest.raises(MalformedInputError):
        parse_element(q2, "(1 + pi")


@pytest.mark.parametrize("fieldname", ["q2", "q3z", "q2u2", "f3t", "f4t"])
def test_literal_roundtrip(fieldname, request):
    ctx = request.getfixturevalue(fieldname)
    rng = random.Random(hash(fieldname) & 0xFFF)
    for _ in range(40):
        z = _random_element(ctx, rng, vmin=-2, vmax=10)
        back = parse_element(ctx, z.to_literal())
        d = z.sub(back)
        if not d.is_zero_to_precision():
            assert d.valuation() >= min(z.P, back.P)


@given(st.integers(min_value=-(10**9), max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_integer_literals_roundtrip(n):
    ctx = parse_field("Qp p=5 f=1")
    z = ctx.from_int(n)
    back = parse_element(ctx, z.to_literal())
    assert z.eq_to_precision(back)


def test_scale_int_gains_the_p_content_of_the_integer():
    # a product by the exact integer p^k * u gains e*k digits of absolute
    # precision, as the product by from_int(s, INF) does; 0 gives the zero
    # that product gives, at the representation's cap
    ctx = parse_field("Qp p=3 f=1 eis=3,3,1")
    x = ctx.one().add(ctx.pi())
    for s in (1, -1, 2, 3, -3, 9, -18, 0):
        got, want = x.scale_int(s), x.mul(ctx.from_int(s, INF))
        assert got.P == want.P and got.eq_to_precision(want), s
    assert x.scale_int(-3).P == x.P + 2


def test_precision_propagation_rules(q2):
    x = q2.from_int(6, prec=10)   # v = 1
    y = q2.from_int(4, prec=12)   # v = 2
    assert x.add(y).P == 10
    assert x.mul(y).P == min(10 + 2, 12 + 1)
    assert x.inv().P == 10 - 2
    assert math.isinf(q2.zero().valuation())
