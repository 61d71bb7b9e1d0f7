"""Class reductions, adapted bases, coordinates and filtration profiles.

Oracles work in independent representations: squares of 2-adic integers
modulo 2^6, hand-rolled polynomial arithmetic mod (x^3 - 2, 2^4) for a
ramified cubic field, and exhaustive Artin-Schreier image sets for small
Laurent supports.  The library's reducers are then required to reproduce
the enumerated class structure exactly.
"""

import itertools
import random

import pytest

from lfk.class_spaces import (
    AdaptedBasis,
    ASClassReduction,
    UnitClassReduction,
    _kill_exponent,
    adapted_basis,
    as_class_reduce,
    coordinates,
    filtration_dims,
    first_trivial_level,
    unit_class_reduce,
)
from lfk.errors import (
    DomainError,
    InternalError,
    OutOfWindowError,
    PrecisionError,
    UnsupportedCaseError,
)
from lfk.fp_linalg import solve
from lfk.local_arith import INF, LaurentElement, ZqElement, parse_field, val

from additive_coords import as_level, poles_and_trace


# ---------------------------------------------------------------- oracles


def oracle_q2_level(u):
    """Deepest level of agreement of an odd u with any square, modulo 2^6.

    Returns the largest v_2(u - y^2) over odd y; 6 stands for "at least 6",
    which (being past the triviality threshold 3) certifies a square.
    """
    best = 0
    for y in range(1, 64, 2):
        d = (u - y * y) % 64
        best = max(best, 6 if d == 0 else (d & -d).bit_length() - 1)
    return min(best, 6)


# -- independent arithmetic for Q_2(cbrt 2): polynomials mod (x^3 - 2, 2^4)


def e3_mul(a, b):
    c = [0] * 5
    for i in range(3):
        for j in range(3):
            c[i + j] += a[i] * b[j]
    return ((c[0] + 2 * c[3]) % 16, (c[1] + 2 * c[4]) % 16, c[2] % 16)


def e3_sub(a, b):
    return tuple((x - y) % 16 for x, y in zip(a, b))


def e3_val(a, cap=7):
    """min over coefficients of 3*v_2(c_i) + i, capped (pi = x has v = 1)."""
    best = cap
    for i, ci in enumerate(a):
        if ci % 16:
            best = min(best, 3 * ((ci & -ci).bit_length() - 1) + i)
    return best


E3_PI = (0, 1, 0)
E3_ONE = (1, 0, 0)


def e3_unit_reps():
    """All 64 principal-unit digit patterns 1 + sum d_i pi^i, i in [1, 6]."""
    pis = [E3_ONE]
    for _ in range(6):
        pis.append(e3_mul(pis[-1], E3_PI))
    reps = []
    for bits in itertools.product((0, 1), repeat=6):
        acc = E3_ONE
        for i, d in enumerate(bits, start=1):
            if d:
                acc = tuple((x + y) % 16 for x, y in zip(acc, pis[i]))
        reps.append((bits, acc))
    return reps


def oracle_e3_level(u, squares):
    best = 0
    for s in squares:
        best = max(best, e3_val(e3_sub(u, s)))
    return best


# -- the division-based windowed descent, kept as an oracle for char p


def oracle_windowed_reduce(x, window):
    """(coords, normalized_rep) of x modulo p-th powers and U_(window+1).

    An independent char-p walk: a digit a at a level m divisible by p is
    divided out as the p-th power of 1 + a^(1/p) t^(m/p), read off the
    residue field's pth_root (no kill columns, no linear solve); any other
    digit is cancelled against the basis generators of its level by one
    F_p-linear solve on their leading digits.
    """
    ctx = x.ctx
    basis = adapted_basis(ctx, "mult", window)
    v = int(val(x))
    z = x.shift(-v).truncate(window + 2)
    z = z.mul(ctx.from_digits([(0, z.residue().inv())]))
    one = ctx.one()
    coords = [v % ctx.p] + [0] * (basis.dim() - 1)
    while True:
        diff = z.sub(one)
        m = diff.valuation()
        if m == INF or m > window:
            break
        a = diff.digit(m)
        if m % ctx.p == 0:
            factor = one.add(ctx.from_digits([(m // ctx.p, a.pth_root())]))
            z = z.mul(factor.powi(ctx.p).truncate(window + 2).inv())
            continue
        here = [i for i, lvl in enumerate(basis.levels()) if lvl == m]
        sol = solve([basis.leads[i].fp_vector() for i in here], a.fp_vector())
        for i, c in zip(here, sol):
            if c:
                coords[i] = c
                z = z.mul(basis.elements()[i].powi(ctx.p - c))
    rep = ctx.pi().powi(v % ctx.p)
    for i, (c, g) in enumerate(zip(coords, basis.elements())):
        if c and i:
            rep = rep.mul(g.powi(c))
    return tuple(coords), rep


# -- exhaustive Artin-Schreier images for tiny Laurent supports over F_2


def f2_wp_image_set():
    """All wp(y) = y^2 - y for y with support in [-2, 0], as coeff tuples.

    A difference of candidates supported on [-4, 0] is a wp-image iff it is
    one for such a y: the top and bottom exponents of y^2 cannot be
    cancelled by -y, so deg(y) <= 0 and the pole order of y is at most 2.
    (Candidates with positive-exponent tails are excluded on purpose: those
    tails are killed by wp of an *infinite* series, which no bounded
    enumeration sees.)  Tuples index exponents -4..0.
    """
    images = set()
    for bits in itertools.product((0, 1), repeat=3):
        coeffs = {}
        for exp, d in zip(range(-2, 1), bits):
            if d:
                coeffs[exp] = 1
        img = {}
        for e1, c1 in coeffs.items():
            img[2 * e1] = (img.get(2 * e1, 0) + c1) % 2  # y^2 in char 2
        for e1, c1 in coeffs.items():
            img[e1] = (img.get(e1, 0) - c1) % 2
        images.add(tuple(img.get(e, 0) for e in range(-4, 1)))
    return images


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def q2():
    return parse_field("Qp p=2 f=1")


@pytest.fixture(scope="module")
def q2e3():
    # ramified cubic Q_2(cbrt 2): e = 3, c = 3, boundary level 6
    return parse_field("Qp p=2 f=1 eis=-2,0,0,1")


@pytest.fixture(scope="module")
def q3z():
    return parse_field("Qp p=3 f=1 eis=3,3,1")


@pytest.fixture(scope="module")
def q3u2():
    # unramified quadratic extension of Q_3; no p-th roots of unity
    return parse_field("Qp p=3 f=2")


@pytest.fixture(scope="module")
def f2t():
    return parse_field("Fq((t)) p=2 f=1")


@pytest.fixture(scope="module")
def f3t():
    return parse_field("Fq((t)) p=3 f=1")


@pytest.fixture(scope="module")
def f4t():
    return parse_field("Fq((t)) p=2 f=2")


def unit_depth(u):
    """Level of u against 1 after stripping the Teichmuller part."""
    z = u.mul(u.ctx.teichmuller(u.residue().inv()))
    return val(z.sub(u.ctx.one(z.P)))


# -- a reduction is its coordinates: every level is read off them


def basis_of(red):
    """The mult adapted basis a unit reduction's coordinates are taken in."""
    ctx = red.normalized_rep.ctx
    return adapted_basis(ctx, "mult", None if ctx.characteristic == 0 else red.depth - 1)


def least_level(red):
    """The class's level index: the least level of a slot with a nonzero
    coordinate, 0 when the pi slot is set; None for a trivial class."""
    slots = zip(red.coords.coords, basis_of(red).levels())
    return min((lvl for c, lvl in slots if c), default=None)


def level_digits(red):
    """{m: sum c_i * lead_i over the generators g_i of level m} for every
    level whose unit slots carry a nonzero coordinate."""
    basis = basis_of(red)
    out = {}
    for i, (c, lvl) in enumerate(zip(red.coords.coords, basis.levels())):
        if c and i:
            digit = basis.leads[i].scale(c)
            out[lvl] = out[lvl].add(digit) if lvl in out else digit
    return out


def unit_level(red):
    """The least level of a unit slot with a nonzero coordinate, or None."""
    return min(level_digits(red), default=None)


def first_kill_level(red):
    """The exponent s of the first kill factor 1 + tau(b) pi^s whose p-th
    power the descent cancelled, or INF if it cancelled none: the factors
    go into the certificate root at strictly rising s, so s is where the
    root's unit part first leaves its Teichmuller part."""
    root = red.root
    return unit_depth(root.shift(-int(val(root))))


# ---------------------------------------------------------------- unit classes, Q_2


def test_q2_known_reductions(q2):
    for n, status, j in [(17, "trivial", None), (5, "nontrivial", 2), (-1, "nontrivial", 1)]:
        r = unit_class_reduce(q2.from_int(n))
        assert r.is_trivial() == (status == "trivial")
        assert least_level(r) == j
        assert r.verify_against(q2.from_int(n))


def test_q2_all_odd_units_against_square_enumeration(q2):
    for u in range(1, 64, 2):
        lvl = oracle_q2_level(u)
        r = unit_class_reduce(q2.from_int(u))
        if lvl >= first_trivial_level(q2):
            assert r.is_trivial(), u
        else:
            assert not r.is_trivial() and least_level(r) == lvl, u


def test_q2_nonunit_levels(q2):
    r = unit_class_reduce(q2.from_int(2))
    assert not r.is_trivial() and least_level(r) == 0
    assert r.coords.coords[0] == 1 and unit_level(r) is None
    # 12 = 4 * 3: even valuation, so the class is carried by the unit part
    r = unit_class_reduce(q2.from_int(12))
    assert least_level(r) == 1 and r.coords.coords[0] == 0
    r = unit_class_reduce(q2.from_int(80))  # 16 * 5
    assert least_level(r) == 2 and r.verify_against(q2.from_int(80))


def test_q2_certificate_relation_exact(q2):
    x = q2.from_int(17)
    r = unit_class_reduce(x)
    w = x.mul(r.certificate.powi(2).inv())
    assert val(w.sub(q2.one(w.P))) >= r.depth


def test_zero_and_truncated_zero_rejected(q2):
    with pytest.raises(DomainError):
        unit_class_reduce(q2.zero())
    with pytest.raises(DomainError):
        unit_class_reduce(q2.from_int(32, prec=4))


# ---------------------------------------------------------------- unit classes, ramified cubic


def test_e3_constants(q2e3):
    assert q2e3.e == 3 and q2e3.c == 3 and q2e3.pc == 6
    assert q2e3.mu_p_present
    assert q2e3.dim_mult_classes() == 5


def test_e3_units_against_polynomial_oracle(q2e3):
    reps = e3_unit_reps()
    squares = [e3_mul(u, u) for _, u in reps]
    stop = first_trivial_level(q2e3)
    seen = {}
    for bits, u in reps:
        lvl = oracle_e3_level(u, squares)
        x = q2e3.from_digits([(0, 1)] + [(i, d) for i, d in enumerate(bits, start=1)])
        r = unit_class_reduce(x)
        if lvl >= stop:
            assert r.is_trivial(), bits
        else:
            assert not r.is_trivial() and least_level(r) == lvl, bits
        seen[lvl] = seen.get(lvl, 0) + 1
    # graded pieces at 1, 3, 5 and the boundary 6 each halve the count
    assert set(seen) == {1, 3, 5, 6, 7}
    assert seen[1] == 32 and seen[3] == 16 and seen[5] == 8 and seen[6] == 4
    assert seen[7] == 4  # the squares among the 64 digit patterns


def test_e3_filtration_profile(q2e3):
    assert filtration_dims(q2e3, (0, 7)) == [
        (0, 1),
        (1, 1),
        (2, 0),
        (3, 1),
        (4, 0),
        (5, 1),
        (6, 1),
        (7, 0),
    ]


# ---------------------------------------------------------------- unit classes, odd p


def test_q3z_boundary_line(q3z):
    assert q3z.pc == 3 and q3z.mu_p_present
    b = adapted_basis(q3z)
    assert b.dim() == 4
    assert b.levels() == [0, 1, 2, 3]
    assert filtration_dims(q3z, (1, 4)) == [(1, 1), (2, 1), (3, 1), (4, 0)]


def test_q3u2_no_boundary(q3u2):
    # e = 1 and p - 1 = 2 does not divide it: no boundary line
    assert q3u2.pc is None and not q3u2.mu_p_present
    b = adapted_basis(q3u2)
    assert b.dim() == 3
    assert b.levels() == [0, 1, 1]
    assert filtration_dims(q3u2, (0, 2)) == [(0, 1), (1, 2), (2, 0)]


def test_reduce_respects_class_invariance(q2e3, q3z):
    rng = random.Random(31)
    for ctx in (q2e3, q3z):
        nonzero = [a for a in ctx.k.elements() if not a.is_zero()]
        for _ in range(25):
            u = ctx.one()
            for i in range(1, 8):
                if rng.randrange(2):
                    u = u.add(ctx.teichmuller(nonzero[rng.randrange(len(nonzero))]).shift(i))
            y = ctx.from_digits(
                [(0, nonzero[rng.randrange(len(nonzero))])]
                + [(i, rng.randrange(ctx.p)) for i in range(1, 6)]
            )
            r1 = unit_class_reduce(u)
            r2 = unit_class_reduce(u.mul(y.powi(ctx.p)))
            assert r1.is_trivial() == r2.is_trivial()
            assert least_level(r1) == least_level(r2)
            j = unit_level(r1)
            if j is not None:
                assert level_digits(r1)[j] == level_digits(r2).get(j)


def test_normalized_rep_is_class_exact(q2, q2e3, q3z):
    # the rep carries the whole class: x / rep must be a p-th power,
    # e.g. -1 = (1 + pi)(1 + pi^2) * square in Q_2, not just 1 + pi
    rng = random.Random(41)
    for ctx in (q2, q2e3, q3z):
        nonzero = [a for a in ctx.k.elements() if not a.is_zero()]
        for _ in range(12):
            u = ctx.one()
            for i in range(1, 8):
                if rng.randrange(2):
                    u = u.add(ctx.teichmuller(nonzero[rng.randrange(len(nonzero))]).shift(i))
            u = u.shift(rng.randrange(0, 3))
            r = unit_class_reduce(u)
            assert unit_class_reduce(u.mul(r.normalized_rep.inv())).is_trivial()
    r = unit_class_reduce(q2.from_int(-1))
    assert sorted(level_digits(r)) == [1, 2]


def test_pth_powers_reduce_trivial(q2, q2e3, q3z, q3u2):
    rng = random.Random(59)
    for ctx in (q2, q2e3, q3z, q3u2):
        nonzero = [a for a in ctx.k.elements() if not a.is_zero()]
        for _ in range(10):
            y = ctx.from_digits(
                [(0, nonzero[rng.randrange(len(nonzero))])]
                + [(i, rng.randrange(ctx.p)) for i in range(1, 7)]
            )
            y = y.shift(rng.randrange(-2, 3))
            r = unit_class_reduce(y.powi(ctx.p))
            assert r.is_trivial()
            assert r.verify_against(y.powi(ctx.p))


def test_level_legality(q2, q2e3, q3z, q3u2):
    rng = random.Random(101)
    for ctx in (q2, q2e3, q3z, q3u2):
        stop = first_trivial_level(ctx)
        kill_exponents = {_kill_exponent(ctx, m) for m in range(1, stop)} - {None}
        nonzero = [a for a in ctx.k.elements() if not a.is_zero()]
        for _ in range(30):
            u = ctx.one()
            for i in range(1, 9):
                if rng.randrange(2):
                    u = u.add(ctx.teichmuller(nonzero[rng.randrange(len(nonzero))]).shift(i))
            r = unit_class_reduce(u.shift(rng.randrange(0, 3)))
            j = unit_level(r)
            if j is not None:
                # absorbable levels cannot hold obstructions
                assert j % ctx.p != 0 or j == ctx.pc
            # every p-th power cancelled kills a level below the threshold
            s = first_kill_level(r)
            assert s == INF or s in kill_exponents


def test_nontrivial_soundness_statistical(q2):
    # no odd y^2 brings 5 closer to 1 than level 2 = the reported index
    r = unit_class_reduce(q2.from_int(5))
    assert least_level(r) == 2
    rng = random.Random(7)
    x = q2.from_int(5)
    for _ in range(200):
        y = q2.from_digits([(0, 1)] + [(i, rng.randrange(2)) for i in range(1, 8)])
        d = unit_depth(x.mul(y.powi(2)))
        assert d <= 2


def test_nontrivial_soundness_exhaustive_mod_16(q2):
    # exact check over every odd residue mod 2^4: v(5 y^2 - 1) <= 2
    for y in range(1, 16, 2):
        d = (5 * y * y - 1) % 16
        assert d != 0 and (d & -d).bit_length() - 1 <= 2


def test_precision_guard_fires(q2):
    ctx4 = parse_field("Qp p=2 f=1 prec=4")
    with pytest.raises(PrecisionError):
        unit_class_reduce(ctx4.from_int(5))
    ctx5 = parse_field("Qp p=2 f=1 prec=5")
    assert least_level(unit_class_reduce(ctx5.from_int(5))) == 2


def test_unit_reduce_wrong_characteristic(f2t):
    # a char-p class is only defined modulo a window
    with pytest.raises(DomainError):
        unit_class_reduce(f2t.one())


# ---------------------------------------------------------------- windowed mult, char p


def test_windowed_reduce_known(f2t):
    x = f2t.one().add(f2t.from_digits([(3, 1), (4, 1)]))
    r = unit_class_reduce(x, 5)
    assert r.coords.coords[0] == 0
    assert sorted(level_digits(r)) == [3]
    assert not r.is_trivial()
    # certificate relation: y^p * rep = x modulo levels beyond the window
    w = x.mul(r.certificate.powi(2).inv()).mul(r.normalized_rep.inv())
    d = val(w.sub(f2t.one()))
    assert d == INF or d > 5


def test_windowed_reduce_class_invariance(f2t, f3t, f4t):
    rng = random.Random(23)
    for ctx in (f2t, f3t, f4t):
        nonzero = [a for a in ctx.k.elements() if not a.is_zero()]
        for _ in range(20):
            pairs = [(0, nonzero[rng.randrange(len(nonzero))])]
            pairs += [(i, rng.randrange(ctx.p)) for i in range(1, 9)]
            x = ctx.from_digits(pairs).shift(rng.randrange(-4, 5))
            y = ctx.from_digits(
                [(0, nonzero[rng.randrange(len(nonzero))]), (2, rng.randrange(ctx.p))]
            ).shift(rng.randrange(-2, 3))
            r1 = unit_class_reduce(x, 7)
            r2 = unit_class_reduce(x.mul(y.powi(ctx.p)), 7)
            assert r1.coords.coords[0] == r2.coords.coords[0]
            assert level_digits(r1) == level_digits(r2)
            assert r1.normalized_rep.eq_to_precision(r2.normalized_rep)


def test_windowed_reduce_guards(f2t):
    with pytest.raises(DomainError):
        unit_class_reduce(f2t.zero(), 5)
    with pytest.raises(DomainError):
        unit_class_reduce(f2t.one(), 0)
    with pytest.raises(PrecisionError):
        unit_class_reduce(f2t.one().add(f2t.pi()).truncate(4), 5)
    # char-0 classes need no window, so one is bad input
    with pytest.raises(DomainError):
        unit_class_reduce(parse_field("Qp p=2 f=1").one(), 3)
    # the descent reads levels up to the window plus two digits of slack,
    # and an exact input does not lift that bound off the field's precision
    ctx = parse_field("Fq((t)) p=2 f=1 prec=8")
    x = ctx.one().add(ctx.pi())
    assert unit_class_reduce(x, 5).coords.coords[1] == 1
    with pytest.raises(PrecisionError):
        unit_class_reduce(x, 6)


def test_windowed_reduce_matches_division_oracle(f2t, f3t, f4t):
    rng = random.Random(0x0D1)
    for ctx in (f2t, f3t, f4t):
        nonzero = [a for a in ctx.k.elements() if not a.is_zero()]
        for window in range(1, 10):
            for _ in range(6):
                pairs = [(0, rng.choice(nonzero))]
                pairs += [(i, rng.randrange(ctx.p)) for i in range(1, 13)]
                x = ctx.from_digits(pairs).shift(rng.randrange(-4, 5))
                if rng.randrange(2):
                    y = ctx.from_digits([(j, rng.choice(nonzero)) for j in rng.sample(range(-2, 5), 2)])
                    x = x.mul(y.powi(ctx.p))
                red = unit_class_reduce(x, window)
                coords, rep = oracle_windowed_reduce(x, window)
                assert red.coords.coords == coords, (ctx, window, x)
                assert red.normalized_rep.eq_to_precision(rep), (ctx, window, x)


# ---------------------------------------------------------------- additive classes


def test_as_known_reductions(f2t):
    r = as_class_reduce(f2t.from_digits([(-2, 1)]))
    assert not r.is_trivial() and as_level(r) == 1
    assert poles_and_trace(r)[0] == {1: f2t.k.one()}
    r = as_class_reduce(f2t.pi())
    assert r.is_trivial() and as_level(r) is None
    r = as_class_reduce(f2t.one())
    assert not r.is_trivial() and as_level(r) == 0 and poles_and_trace(r)[1] == 1


def test_as_certificates_exact(f2t, f3t, f4t):
    rng = random.Random(67)
    for ctx in (f2t, f3t, f4t):
        for _ in range(25):
            x = ctx.from_digits(
                [(i, rng.randrange(ctx.p)) for i in range(-6, 7)]
            )
            r = as_class_reduce(x)
            assert r.verify_against(x)
            if as_level(r):
                assert as_level(r) % ctx.p != 0


def test_as_against_exhaustive_wp_images(f2t):
    images = f2_wp_image_set()
    support = list(range(-4, 1))
    cands = []
    for bits in itertools.product((0, 1), repeat=5):
        x = f2t.from_digits([(e, d) for e, d in zip(support, bits)])
        cands.append((bits, x, as_class_reduce(x)))
    for bits, x, r in cands:
        assert (bits in images) == r.is_trivial(), bits
    # same normal form exactly when the difference is a wp-image
    for (b1, x1, r1), (b2, x2, r2) in itertools.combinations(cands, 2):
        diff = tuple((a - b) % 2 for a, b in zip(b1, b2))
        same_class = diff in images
        same_normal = r1.normalized_rep.eq_to_precision(r2.normalized_rep)
        assert same_class == same_normal, (b1, b2)


def test_as_class_invariance_under_wp_shifts(f3t, f4t):
    rng = random.Random(83)
    for ctx in (f3t, f4t):
        for _ in range(20):
            x = ctx.from_digits([(i, rng.randrange(ctx.p)) for i in range(-5, 5)])
            y = ctx.from_digits([(i, rng.randrange(ctx.p)) for i in range(-2, 4)])
            wp = y.powi(ctx.p).sub(y)
            r1, r2 = as_class_reduce(x), as_class_reduce(x.add(wp))
            assert r1.is_trivial() == r2.is_trivial()
            assert as_level(r1) == as_level(r2)
            assert poles_and_trace(r1) == poles_and_trace(r2)
            assert r1.normalized_rep.eq_to_precision(r2.normalized_rep)


def test_as_window_coords_are_a_prefix(f2t, f3t, f4t):
    # over window w the coordinates are those of the windowless reduction
    # padded with zeros; a surviving pole deeper than w is OutOfWindowError,
    # and nothing else is
    rng = random.Random(97)
    for ctx in (f2t, f3t, f4t):
        for _ in range(8):
            x = ctx.from_digits([(i, rng.randrange(ctx.p)) for i in range(-12, 4)])
            full = as_class_reduce(x)
            deepest = max(poles_and_trace(full)[0], default=0)
            vec = full.coords.coords
            for w in range(1, 12):
                if deepest > w:
                    with pytest.raises(OutOfWindowError):
                        as_class_reduce(x, w)
                    continue
                red = as_class_reduce(x, w)
                assert red.basis is adapted_basis(ctx, "add", w)
                got = red.coords.coords
                assert got[: len(vec)] == vec and not any(got[len(vec):]), (x, w)


def test_as_wrong_characteristic(q2):
    with pytest.raises(UnsupportedCaseError):
        as_class_reduce(q2.one())


def test_as_truncated_constant_rejected(f2t):
    with pytest.raises(PrecisionError):
        as_class_reduce(f2t.from_digits([(-2, 1)]).truncate(0))


# ---------------------------------------------------------------- adapted bases


def test_q2_basis_is_2_3_5(q2):
    b = adapted_basis(q2)
    assert [lbl for lbl, _, _ in b.vectors] == ["pi", "u1_0", "u2_*"]
    vals = [g for _, g, _ in b.vectors]
    assert vals[0].eq_to_precision(q2.from_int(2))
    assert vals[1].eq_to_precision(q2.from_int(3))
    assert vals[2].eq_to_precision(q2.from_int(5))


def test_basis_dims_match_field_data(q2, q2e3, q3z, q3u2):
    for ctx in (q2, q2e3, q3z, q3u2):
        assert adapted_basis(ctx).dim() == ctx.dim_mult_classes()


def test_basis_is_cached(q2):
    assert adapted_basis(q2) is adapted_basis(q2)


def test_charp_add_basis_window_5(f2t):
    b = adapted_basis(f2t, "add", window=5)
    assert [lbl for lbl, _, _ in b.vectors] == ["c", "a1_0", "a3_0", "a5_0"]
    assert b.levels() == [0, 1, 3, 5]
    assert b.elements()[0].eq_to_precision(f2t.one())  # trace-one element of F_2


def test_charp_mult_basis_window(f3t):
    b = adapted_basis(f3t, "mult", window=7)
    # prime-to-3 levels up to 7: 1, 2, 4, 5, 7
    assert b.levels() == [0, 1, 2, 4, 5, 7]


# The bases of the bundled fields (verify defaults and benchmark windows)
# small enough to enumerate: p^dim <= 4096.
BUNDLED_CHAR0 = (
    "Qp p=2 f=1",
    "Qp p=2 f=2",
    "Qp p=3 f=2",
    "Qp p=3 f=1 eis=3,3,1",
    "Qp p=2 f=1 eis=-2,0,0,1",
    "Qp p=3 f=2 eis=3,3,1",
)
BUNDLED_CHARP = (("Fq((t)) p=2 f=1", 9), ("Fq((t)) p=3 f=1", 6), ("Fq((t)) p=2 f=2", 5))


def bundled_bases():
    for desc in BUNDLED_CHAR0:
        yield adapted_basis(parse_field(desc))
    for desc, window in BUNDLED_CHARP:
        ctx = parse_field(desc)
        yield adapted_basis(ctx, "mult", window)
        yield adapted_basis(ctx, "add", window)


def combination(basis, coeffs):
    ctx = basis.ctx
    acc = ctx.one() if basis.space == "mult" else ctx.zero()
    for c, g in zip(coeffs, basis.elements()):
        if c:
            acc = acc.mul(g.powi(c)) if basis.space == "mult" else acc.add(g.scale_int(c))
    return acc


def reduces_trivial(basis, x):
    if basis.space == "add":
        return as_class_reduce(x).is_trivial()
    red = unit_class_reduce(x, basis.window)
    assert red.verify_against(x)
    return red.is_trivial()


def test_bundled_bases_independent_exhaustively():
    # the oracle for the graded certificate: all p^dim - 1 combinations
    checked = 0
    for basis in bundled_bases():
        p, d = basis.ctx.p, basis.dim()
        assert p**d <= 4096, basis
        for coeffs in itertools.product(range(p), repeat=d):
            if any(coeffs):
                assert not reduces_trivial(basis, combination(basis, coeffs)), (basis, coeffs)
                checked += 1
    assert checked > 1500


def test_coordinates_of_basis_products_sampled():
    rng = random.Random(0xC0)
    for basis in bundled_bases():
        p, d = basis.ctx.p, basis.dim()
        for _ in range(12):
            coeffs = tuple(rng.randrange(p) for _ in range(d))
            assert coordinates(basis, combination(basis, coeffs)).coords == coeffs, basis


def test_char0_descent_inverts_nothing(monkeypatch):
    # unit_class_reduce keeps the p-th powers it cancels as one running
    # product instead of dividing by each, in both characteristics; its
    # certificate still holds
    rng = random.Random(0xD5)
    fields = [(desc, None) for desc in BUNDLED_CHAR0] + list(BUNDLED_CHARP)
    samples = []
    for desc, window in fields:
        ctx = parse_field(desc)
        basis = adapted_basis(ctx, "mult", window)
        p, d = ctx.p, basis.dim()
        nonzero = [a for a in ctx.k.elements() if not a.is_zero()]
        for _ in range(6):
            coeffs = tuple(rng.randrange(p) for _ in range(d))
            y = ctx.from_digits([(j, rng.choice(nonzero)) for j in rng.sample(range(-2, 6), 3)])
            samples.append((combination(basis, coeffs).mul(y.powi(p)), window))
    calls = []
    for cls in (ZqElement, LaurentElement):

        def counting_inv(self, real_inv=cls.inv):
            calls.append(self)
            return real_inv(self)

        monkeypatch.setattr(cls, "inv", counting_inv)
    reductions = [unit_class_reduce(x, window) for x, window in samples]
    assert calls == []
    n0 = 6 * len(BUNDLED_CHAR0)
    assert any(first_kill_level(red) != INF for red in reductions[:n0])
    assert any(first_kill_level(red) != INF for red in reductions[n0:])
    for (x, _), red in zip(samples, reductions):
        assert red.verify_against(x)


def test_charp_coordinates_ignore_digits_past_the_window():
    # unit_class_reduce cuts its input two digits past window + 1: a p-th
    # power and a U_(window+1) factor, both with nonzero digits far past the
    # cut, must leave the coordinates of prod g^c unchanged
    rng = random.Random(0xC07)
    for desc, window in BUNDLED_CHARP:
        ctx = parse_field(desc)
        basis = adapted_basis(ctx, "mult", window)
        p, d = ctx.p, basis.dim()
        nonzero = [a for a in ctx.k.elements() if not a.is_zero()]
        for _ in range(8):
            coeffs = tuple(rng.randrange(p) for _ in range(d))
            y = ctx.from_digits([(j, rng.choice(nonzero)) for j in rng.sample(range(-3, 6), 3)])
            h = ctx.from_digits([(j, rng.choice(nonzero)) for j in rng.sample(range(12), 4)])
            tail = ctx.one().add(h.shift(window + 1))
            x = combination(basis, coeffs).mul(y.powi(p)).mul(tail)
            assert x.digits()[-1][0] > window + 3
            assert coordinates(basis, x).coords == coeffs, (basis, coeffs)


def test_tampered_basis_fails_certificate(q2e3, f3t):
    for basis in (adapted_basis(q2e3), adapted_basis(f3t, "add", window=4)):
        vectors = list(basis.vectors)
        repeated = AdaptedBasis(basis.ctx, basis.space, basis.window, vectors + vectors[2:3])
        with pytest.raises(InternalError):
            repeated.certify()
        uniformizer_twice = AdaptedBasis(
            basis.ctx, basis.space, basis.window, vectors[:1] + vectors
        )
        with pytest.raises(InternalError):
            uniformizer_twice.certify()


def test_boundary_generator_must_leave_kill_image():
    # over Q_4 = Q_2(sqrt 5) the boundary digit of 5 is a square's digit
    ctx = parse_field("Qp p=2 f=2")
    basis = adapted_basis(ctx)
    assert basis.labels()[-1] == "u2_*"
    fake = ("u2_*", ctx.from_int(5), 2)
    tampered = AdaptedBasis(ctx, "mult", None, list(basis.vectors[:-1]) + [fake])
    with pytest.raises(InternalError):
        tampered.certify()


def test_certificate_identity_and_its_precision_guard(q2, f2t):
    r = unit_class_reduce(q2.from_int(5))
    assert r.verify_against(q2.from_int(5))
    assert not r.verify_against(q2.from_int(3))
    with pytest.raises(PrecisionError):
        r.verify_against(q2.from_int(5, prec=2))
    x = f2t.one().add(f2t.pi().powi(3))
    w = unit_class_reduce(x, 5)
    assert w.verify_against(x)
    assert not w.verify_against(x.mul(f2t.one().add(f2t.pi())))
    with pytest.raises(PrecisionError):
        w.verify_against(x.truncate(4))


def test_basis_argument_errors(q2, f2t):
    with pytest.raises(DomainError):
        adapted_basis(q2, "mult", window=3)
    with pytest.raises(UnsupportedCaseError):
        adapted_basis(q2, "add")
    with pytest.raises(DomainError):
        adapted_basis(f2t, "mult")
    with pytest.raises(DomainError):
        adapted_basis(f2t, "qq", window=2)


# ---------------------------------------------------------------- coordinates


def test_coordinates_spec_example(q2):
    b = adapted_basis(q2)
    assert coordinates(b, q2.from_int(45)).coords == (0, 0, 1)
    assert coordinates(b, q2.from_int(45)) == coordinates(b, q2.from_int(5))


def test_coordinates_exhaustive_q2(q2):
    # all odd integers mod 32 against the mod-2^6 square oracle levels
    b = adapted_basis(q2)
    for u in range(1, 32, 2):
        c = coordinates(b, q2.from_int(u))
        assert c.coords[0] == 0
        prod = q2.one()
        for ci, (_, g, _) in zip(c.coords, b.vectors):
            if ci:
                prod = prod.mul(g.powi(ci))
        # u and its coordinate product agree as classes
        assert unit_class_reduce(u_over(q2, u, prod)).is_trivial()


def u_over(ctx, n, g):
    return ctx.from_int(n).mul(g.inv())


def test_coordinates_linear(q2e3, q3z):
    rng = random.Random(11)
    for ctx in (q2e3, q3z):
        b = adapted_basis(ctx)
        nonzero = [a for a in ctx.k.elements() if not a.is_zero()]
        for _ in range(15):
            xs = []
            for _ in range(2):
                u = ctx.from_digits(
                    [(0, nonzero[rng.randrange(len(nonzero))])]
                    + [(i, rng.randrange(ctx.p)) for i in range(1, 8)]
                ).shift(rng.randrange(0, 4))
                xs.append(u)
            cx, cy = coordinates(b, xs[0]), coordinates(b, xs[1])
            cxy = coordinates(b, xs[0].mul(xs[1]))
            assert cxy.coords == tuple((a + b) % ctx.p for a, b in zip(cx.coords, cy.coords))


def test_coordinates_charp_mult(f2t, f4t):
    rng = random.Random(13)
    for ctx in (f2t, f4t):
        b = adapted_basis(ctx, "mult", window=5)
        nonzero = [a for a in ctx.k.elements() if not a.is_zero()]
        for _ in range(10):
            x = ctx.from_digits(
                [(0, nonzero[rng.randrange(len(nonzero))])]
                + [(i, rng.randrange(ctx.p)) for i in range(1, 7)]
            ).shift(rng.randrange(-3, 4))
            c1 = coordinates(b, x)
            c2 = coordinates(b, x.mul(ctx.pi().powi(ctx.p)))
            assert c1 == c2


def test_coordinates_charp_add_and_window_error(f2t):
    b = adapted_basis(f2t, "add", window=3)
    c = coordinates(b, f2t.from_digits([(-2, 1)]))
    assert c.coords == (0, 1, 0)  # classes: t^-2 = wp-shift of t^-1
    with pytest.raises(OutOfWindowError):
        coordinates(b, f2t.from_digits([(-5, 1)]))


def test_coordinates_field_mismatch(q2, q3z):
    with pytest.raises(DomainError):
        coordinates(adapted_basis(q2), q3z.from_int(5))


# ---------------------------------------------------------------- filtration profile


def test_q2_filtration_profile(q2):
    assert filtration_dims(q2, (1, 3)) == [(1, 1), (2, 1), (3, 0)]
    assert filtration_dims(q2, (0, 0)) == [(0, 1)]


def test_charp_mult_profile(f3t):
    got = filtration_dims(f3t, (0, 6))
    assert got == [(0, 1), (1, 1), (2, 1), (3, 0), (4, 1), (5, 1), (6, 0)]


def test_charp_add_profile(f2t, f4t):
    assert filtration_dims(f2t, (-4, 0), "add") == [
        (-4, 0),
        (-3, 1),
        (-2, 0),
        (-1, 1),
        (0, 1),
    ]
    # f = 2: graded pieces are 2-dimensional at odd pole orders
    assert filtration_dims(f4t, (-3, 0), "add") == [(-3, 2), (-2, 0), (-1, 2), (0, 1)]


def test_profile_argument_errors(q2, f2t):
    with pytest.raises(DomainError):
        filtration_dims(q2, (3, 1))
    with pytest.raises(UnsupportedCaseError):
        filtration_dims(q2, (-2, 0), "add")
    with pytest.raises(DomainError):
        filtration_dims(f2t, (-2, 1), "add")
    with pytest.raises(DomainError):
        filtration_dims(q2, (0, 2), "qq")
