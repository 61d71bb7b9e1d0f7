"""Degree-p extensions: defining polynomials, norms, valuations, breaks.

The load-bearing oracles here are classical and independent of the library:

* quadratic extensions of Q_2 — the discriminant exponent d of Q_2(sqrt(a))
  is 0 for a = 1 mod 4, 2 for a = 3 mod 4, and 3 for even squarefree a, and
  the ramification break is d - 1;
* N(x + iy) = x^2 + y^2, computable in plain integers;
* Artin-Schreier conductors — y^p - y = a with a single pole of order m
  prime to p has break m;
* the break v_E(sigma(pi_E) - pi_E) - 1 of the built extension, which the
  closed-form line_break must equal on every catalog line;
* the descent of each catalog line's representative, which must give
  back the line that was built from its coordinate vector alone;
* the conjugate-product valuation v_K(N(z)) (divided by p when E is
  unramified), which the valuation read off z's coefficients must equal.
"""

import itertools
import random

import pytest

from lfk import pairings_verifiers
from lfk.class_spaces import _random_nonzero_digit, adapted_basis, as_class_reduce, unit_class_reduce
from lfk.errors import DomainError, PrecisionError, UnsupportedCaseError
from lfk.extensions import (
    DegreePExtension,
    ExtElement,
    Line,
    _line_key,
    attach_extension,
    line_break,
    line_of,
    ramification_break,
)
from lfk.local_arith import parse_field, val
from lfk.pairings_verifiers import line_catalog

from additive_coords import as_level


@pytest.fixture(scope="module")
def q2():
    return parse_field("Qp p=2 f=1")


@pytest.fixture(scope="module")
def q2e3():
    return parse_field("Qp p=2 f=1 eis=-2,0,0,1")


@pytest.fixture(scope="module")
def q3z():
    return parse_field("Qp p=3 f=1 eis=3,3,1")


@pytest.fixture(scope="module")
def q3r():
    # ramified, (p-1) | e, but zeta_3 not in the field: Q_3(sqrt(3))
    return parse_field("Qp p=3 f=1 eis=-3,0,1")


@pytest.fixture(scope="module")
def f2t():
    return parse_field("Fq((t)) p=2 f=1")


@pytest.fixture(scope="module")
def f3t():
    return parse_field("Fq((t)) p=3 f=1")


@pytest.fixture(scope="module")
def f5t():
    return parse_field("Fq((t)) p=5 f=1")


def oracle_q2_quadratic_break(n):
    """Break of Q_2(sqrt(n)) from the discriminant exponent, None if trivial.

    Strip even square factors; an odd leftover u gives discriminant exponent
    0 (u = 1 mod 4) or 2 (u = 3 mod 4), an even leftover gives 3.  The break
    is d - 1, except that d = 0 splits into "trivial extension" (u = 1 mod 8)
    and "unramified" (u = 5 mod 8, break -1).
    """
    v = 0
    while n % 4 == 0:
        n //= 4
        v += 1
    if n % 2 == 0:
        return 2
    u = n % 8
    if u == 1:
        return None
    if u == 5:
        return -1
    return 1


def all_lines(ctx):
    """Every 1-dimensional subspace of the class space, one generator each."""
    basis = adapted_basis(ctx)
    gens = basis.elements()
    out = []
    for vec in itertools.product(range(ctx.p), repeat=basis.dim()):
        if not any(vec):
            continue
        if vec[next(i for i, c in enumerate(vec) if c)] != 1:
            continue
        x = ctx.one()
        for c, g in zip(vec, gens):
            if c:
                x = x.mul(g.powi(c))
        out.append(x)
    return out


# ------------------------------------------------------------ lines


def test_line_levels_q2(q2):
    assert line_of(q2.from_int(5)).level == 0
    assert line_of(q2.from_int(-1)).level == 1
    assert line_of(q2.from_int(2)).level == 2


def test_line_of_trivial_class_raises(q2, f2t):
    with pytest.raises(DomainError):
        line_of(q2.from_int(17))
    t = f2t.pi()
    with pytest.raises(DomainError):
        line_of(t.powi(2).add(t))  # wp(t) = t^2 + t in char 2


def test_line_space_mismatch(q2, f2t):
    # the characteristic picks a line's space, so no caller can ask for the other
    assert line_of(q2.from_int(3)).space == "mult"
    assert line_of(f2t.pi().powi(-1)).space == "add"
    with pytest.raises(TypeError):
        line_of(q2.from_int(3), space="add")


def test_line_from_coordinates(q3z, f2t):
    # levels are read off the nonzero slots: pc minus the least unit level
    # in char 0, the deepest pole in char p
    basis = adapted_basis(q3z)
    assert [Line(basis, [int(k == i) for k in range(4)]).level for i in range(4)] == [3, 2, 1, 0]
    assert Line(basis, [0, 1, 4, 0]).vec == (0, 1, 1, 0)  # coordinates are taken mod p
    assert Line(basis, [0, 1, 4, 0]).level == 2
    assert Line(adapted_basis(f2t, "add", 5), [1, 0, 1, 0]).level == 3
    with pytest.raises(DomainError):
        Line(basis, [0, 0, 0, 0])
    with pytest.raises(DomainError):
        Line(basis, [1, 0])


def test_line_needs_boundary_index():
    # e = 1, p = 3: (p-1) does not divide e, no level convention exists
    ctx = parse_field("Qp p=3 f=2")
    with pytest.raises(UnsupportedCaseError):
        line_of(ctx.pi())


# ------------------------------------------------------------ attachment


def test_attach_q2_catalog_against_discriminant_oracle(q2):
    breaks = []
    for n in (-1, 2, -2, 5, -5, 10, -10):
        E = attach_extension(line_of(q2.from_int(n)))
        expected = oracle_q2_quadratic_break(n % 2**10)
        assert E.ramification_break == expected, n
        assert E.is_unramified == (expected == -1)
        breaks.append(E.ramification_break)
    assert sorted(breaks) == [-1, 1, 1, 2, 2, 2, 2]


def test_attach_random_integers_against_oracle(q2):
    rng = random.Random(0xE1)
    seen = 0
    for _ in range(80):
        n = rng.randrange(1, 3000) * rng.choice([1, -1])
        expected = oracle_q2_quadratic_break(n)
        red = unit_class_reduce(q2.from_int(n))
        if expected is None:
            assert red.is_trivial(), n
            continue
        E = attach_extension(line_of(q2.from_int(n)))
        assert E.ramification_break == expected, n
        seen += 1
    assert seen > 40


def test_attach_kummer_needs_mu_p(q3r):
    # levels are defined (pc = 3) but zeta_3 is missing
    assert q3r.pc == 3 and not q3r.mu_p_present
    ln = line_of(q3r.pi())
    with pytest.raises(UnsupportedCaseError):
        attach_extension(ln)


def _same_element(x, y):
    """x and y hold the same representation, precision included."""
    if x.ctx.characteristic == 0:
        return (x.num, x.t, x.P) == (y.num, y.t, y.P)
    return (x.digits(), x.P) == (y.digits(), y.P)


def test_attach_keeps_one_extension_per_line():
    # 45 = 9 * 5 lies on the line of 5: one extension, built once, whose
    # defining constant is the representative line_of hands to the caller
    q2 = parse_field("Qp p=2 f=1")
    l5, l45 = line_of(q2.from_int(5)), line_of(q2.from_int(45))
    E = attach_extension(l5)
    assert attach_extension(l45) is E and attach_extension(l5) is E
    assert _same_element(E.a, l5.a) and _same_element(E.a, l45.a)
    assert [key for key in q2.cache if key[0] == "ext"] == [("ext",) + l5.vec]


def test_attach_shares_a_char_p_line_across_windows():
    # the line of t^-3 read over window 5, over window 9, and by its own
    # descent (over the window of its level, 3): one vector cut after its
    # last nonzero slot, so one extension
    f2t = parse_field("Fq((t)) p=2 f=1")
    own = line_of(f2t.from_digits([(-3, 1)]))

    def over(window):
        basis = adapted_basis(f2t, "add", window)
        return Line(basis, own.vec + (0,) * (basis.dim() - len(own.vec)))

    lines = [over(5), over(9)]
    assert len({len(line.vec) for line in lines + [own]}) == 3
    E = attach_extension(lines[0])
    assert attach_extension(lines[1]) is E and attach_extension(own) is E
    for line in lines + [own]:
        assert _same_element(E.a, line.a)


def test_attach_builds_distinct_extensions_for_distinct_vectors():
    # different lines, and in char 3 the two nonzero multiples of one
    # vector: a key is never rescaled, so each E.a is its caller's line.a
    q2, f3t = parse_field("Qp p=2 f=1"), parse_field("Fq((t)) p=3 f=1")
    lines = [line_of(q2.from_int(n)) for n in (-1, 2, 5, 10)]
    lines += [line_of(f3t.from_digits([(-1, c)])) for c in (1, 2)] + [line_of(f3t.from_digits([(-2, 1)]))]
    assert len({(line.ctx is q2, line.vec) for line in lines}) == len(lines)
    exts = [attach_extension(line) for line in lines]
    assert len({id(E) for E in exts}) == len(lines)
    for E, line in zip(exts, lines):
        assert E.line is line and _same_element(E.a, line.a)


def test_attach_artin_schreier_examples(f2t):
    E = attach_extension(line_of(f2t.from_digits([(-1, 1)])))
    assert E.kind == "artin_schreier" and not E.is_unramified
    assert E.ramification_break == 1
    # constant class: unramified
    E0 = attach_extension(line_of(f2t.one()))
    assert E0.is_unramified and E0.ramification_break == -1


def test_attach_absorbs_deep_p_divisible_pole(f3t):
    # t^-3 = wp(t^-1) + t^-1, so its line is the pole-order-1 line
    E = attach_extension(line_of(f3t.from_digits([(-3, 1)])))
    assert E.ramification_break == 1
    assert val(E.a) == -1


# ------------------------------------------------------------ norms


def gaussian(q2):
    """Q2(i) = Q2(sqrt(-1)): the line of -1, with -1 itself as the
    representative instead of the canonical 3 * 5."""
    line = line_of(q2.from_int(-1))
    return DegreePExtension(Line(line.basis, line.vec, q2.from_int(-1)))


def test_norm_one_plus_i_is_two(q2):
    E = gaussian(q2)
    z = E.embed(q2.one()).add(E.gen())
    n = E.norm(z)
    assert n.sub(q2.from_int(2)).is_zero_to_precision()


def test_norm_gaussian_integers_against_integer_oracle(q2):
    E = gaussian(q2)
    rng = random.Random(0xE2)
    for _ in range(40):
        x, y = rng.randrange(-50, 50), rng.randrange(-50, 50)
        if x == 0 and y == 0:
            continue
        z = E.embed(q2.from_int(x)).add(E.gen().scale(q2.from_int(y)))
        got = E.norm(z)
        assert got.sub(q2.from_int(x * x + y * y)).is_zero_to_precision(), (x, y)


def test_norm_of_scalar_is_pth_power(q2, q3z, f3t):
    cases = [
        (q2, q2.from_int(3), q2.from_int(-1)),
        (q3z, q3z.pi().add(q3z.one()), q3z.pi()),
        (f3t, f3t.from_digits([(-2, 1), (0, 1)]), f3t.from_digits([(-1, 1)])),
    ]
    for ctx, c, gen in cases:
        E = attach_extension(line_of(gen))
        got = E.norm(E.embed(c))
        assert got.sub(c.powi(ctx.p)).is_zero_to_precision()


def test_norm_of_artin_schreier_generator_is_defining_constant(f2t, f3t):
    for ctx, d in ((f2t, -1), (f2t, -3), (f2t, -5), (f3t, -1), (f3t, -2)):
        a = ctx.from_digits([(d, 1)])
        E = attach_extension(line_of(a))
        got = E.norm(E.gen())
        # product over the roots y, y+1, ..., y+p-1 is (-1)^(p+1) a = a
        assert got.sub(a).is_zero_to_precision(), (ctx.p, d)


def test_norm_multiplicative_on_random_pairs(q2, f2t):
    rng = random.Random(0xE3)
    Ek = attach_extension(line_of(q2.from_int(-1)))
    Ea = attach_extension(line_of(f2t.from_digits([(-3, 1)])))
    checked = 0
    for _ in range(100):
        z = Ek.embed(q2.from_int(rng.randrange(-99, 100))).add(
            Ek.gen().scale(q2.from_int(rng.randrange(-99, 100)))
        )
        w = Ek.embed(q2.from_int(rng.randrange(-99, 100))).add(
            Ek.gen().scale(q2.from_int(rng.randrange(-99, 100)))
        )
        if z.is_zero_to_precision() or w.is_zero_to_precision():
            continue
        lhs = Ek.norm(z.mul(w))
        rhs = Ek.norm(z).mul(Ek.norm(w))
        assert lhs.sub(rhs).is_zero_to_precision()
        checked += 1
    for _ in range(100):
        cz = [f2t.from_digits([(m, rng.randrange(2)) for m in range(-2, 3)]) for _ in range(2)]
        cw = [f2t.from_digits([(m, rng.randrange(2)) for m in range(-2, 3)]) for _ in range(2)]
        z = Ea.embed(cz[0]).add(Ea.gen().scale(cz[1]))
        w = Ea.embed(cw[0]).add(Ea.gen().scale(cw[1]))
        if z.is_zero_to_precision() or w.is_zero_to_precision():
            continue
        lhs = Ea.norm(z.mul(w))
        rhs = Ea.norm(z).mul(Ea.norm(w))
        assert lhs.sub(rhs).is_zero_to_precision()
        checked += 1
    assert checked >= 190


def test_norm_of_zero_rejected(q2):
    E = attach_extension(line_of(q2.from_int(2)))
    with pytest.raises(DomainError):
        E.norm(E.embed(q2.zero()))


# ------------------------------------------------------------ valuation


def test_ext_val_examples(q2):
    E2 = attach_extension(line_of(q2.from_int(2)))  # x^2 - 2
    assert E2.ext_val(E2.gen()) == 1
    assert E2.ext_val(E2.embed(q2.from_int(2))) == 2
    E5 = attach_extension(line_of(q2.from_int(5)))  # unramified
    assert E5.ext_val(E5.embed(q2.from_int(2))) == 1
    assert E5.ext_val(E5.gen().sub(E5.embed(q2.one()))) == 1  # sqrt(5) - 1


def test_ext_val_newton_polygon_cross_check(q2e3, q3z, f2t, f3t):
    """v_E(generator) must match the Newton-polygon slope of the defining poly.

    Kummer x^p - a: the polygon is one segment of slope v(a)/p, so
    v_E(gen) = v_K(a).  Artin-Schreier with a pole of order m prime to p:
    slope -m/p from the y^p and a vertices, so v_E(y) = -m.
    """
    for ctx in (q2e3, q3z):
        for x in all_lines(ctx):
            ln = line_of(x)
            if ln.level == 0:
                continue
            E = attach_extension(ln)
            assert E.ext_val(E.gen()) == val(E.a)
    for ctx, d in ((f2t, -1), (f2t, -5), (f3t, -4)):
        E = attach_extension(line_of(ctx.from_digits([(d, 1)])))
        assert E.ext_val(E.gen()) == d


def test_ext_val_scales_base_valuation_by_ramification(q2e3):
    for x in all_lines(q2e3)[:6]:
        E = attach_extension(line_of(x))
        want = 1 if E.is_unramified else q2e3.p
        assert E.ext_val(E.embed(q2e3.pi())) == want


# ------------------------------------------------------------ uniformizers


def test_uniformizer_has_valuation_one_everywhere(q2, q3z, f2t):
    for ctx in (q2, q3z):
        for x in all_lines(ctx):
            E = attach_extension(line_of(x))
            assert E.ext_val(E.uniformizer) == 1
    for d in (-1, -3, -5):
        E = attach_extension(line_of(f2t.from_digits([(d, 1)])))
        assert E.ext_val(E.uniformizer) == 1


def test_uniformizer_known_shapes(q2, f2t):
    E2 = attach_extension(line_of(q2.from_int(2)))
    assert E2.uniformizer.sub(E2.gen()).is_zero_to_precision()  # sqrt(2) itself
    Ey = attach_extension(line_of(f2t.from_digits([(-1, 1)])))
    ty = Ey.gen().scale(f2t.pi())
    assert Ey.uniformizer.sub(ty).is_zero_to_precision()  # t*y


def test_unramified_uniformizer_is_base_uniformizer(q2, f2t):
    E = attach_extension(line_of(q2.from_int(5)))
    assert E.uniformizer.sub(E.embed(q2.pi())).is_zero_to_precision()
    E0 = attach_extension(line_of(f2t.one()))
    assert E0.uniformizer.sub(E0.embed(f2t.pi())).is_zero_to_precision()


# ------------------------------------------------------------ galois action


def test_galois_kummer_p2_negates_generator(q2):
    E = attach_extension(line_of(q2.from_int(2)))
    moved = E.galois_apply(E.gen())
    assert moved.add(E.gen()).is_zero_to_precision()


def test_galois_artin_schreier_shifts(f3t):
    E = attach_extension(line_of(f3t.from_digits([(-1, 1)])))
    y1 = E.galois_apply(E.gen())
    assert y1.sub(E.gen()).sub(E.embed(f3t.one())).is_zero_to_precision()
    y2 = E.galois_apply(E.gen(), 2)
    assert y2.sub(E.gen()).sub(E.embed(f3t.from_int(2))).is_zero_to_precision()


def test_galois_order_p_and_fixes_base(q2, q3z, f5t):
    cases = [
        (q2, attach_extension(line_of(q2.from_int(-1)))),
        (q3z, attach_extension(line_of(q3z.pi()))),
        (f5t, attach_extension(line_of(f5t.from_digits([(-3, 1)])))),
    ]
    for ctx, E in cases:
        z = E.gen().add(E.embed(ctx.pi()))
        w = z
        for _ in range(ctx.p):
            w = E.galois_apply(w)
        assert w.sub(z).is_zero_to_precision()
        c = E.embed(ctx.pi().add(ctx.one()))
        assert E.galois_apply(c).sub(c).is_zero_to_precision()


def test_break_independent_of_zeta_power(q3z):
    # any nontrivial power of sigma computes the same (only) break
    for x in all_lines(q3z)[:8]:
        E = attach_extension(line_of(x))
        if E.is_unramified:
            continue
        for s in (1, 2):
            moved = E.galois_apply(E.uniformizer, s)
            assert E.ext_val(moved.sub(E.uniformizer)) - 1 == E.ramification_break


# ------------------------------------------------------------ breaks


def test_break_equals_level_on_q3z_catalog(q3z):
    counts = {}
    for x in all_lines(q3z):
        ln = line_of(x)
        E = attach_extension(ln)
        want = ln.level if ln.level > 0 else -1
        assert E.ramification_break == want
        counts[E.ramification_break] = counts.get(E.ramification_break, 0) + 1
    assert counts == {-1: 1, 1: 3, 2: 9, 3: 27}


def test_break_set_legality_and_attainment_e3(q2e3):
    # legal breaks for p=2, e=3: -1, the prime-to-2 integers 1,3,5, and pc=6
    counts = {}
    for x in all_lines(q2e3):
        E = attach_extension(line_of(x))
        counts[E.ramification_break] = counts.get(E.ramification_break, 0) + 1
    assert counts == {-1: 1, 1: 2, 3: 4, 5: 8, 6: 16}


def test_break_equals_pole_order_charp(f2t, f3t):
    for ctx, hits in ((f2t, (1, 3, 5, 7)), (f3t, (1, 2, 4, 5))):
        for m in hits:
            E = attach_extension(line_of(ctx.from_digits([(-m, 1)])))
            assert E.ramification_break == m


def test_break_stable_under_uniformizer_change(q2, q2e3, q3z, f2t):
    cases = [
        attach_extension(line_of(q2.from_int(-1))),
        attach_extension(line_of(q2e3.pi())),
        attach_extension(line_of(q3z.one().add(q3z.pi()))),
        attach_extension(line_of(f2t.from_digits([(-3, 1)]))),
    ]
    for E in cases:
        ctx = E.base
        for j in range(1, 6):
            bump = E.embed(ctx.one()).add(E.uniformizer.powi(j))
            alt = E.uniformizer.mul(bump)
            assert E.ext_val(alt) == 1
            moved = E.galois_apply(alt)
            assert E.ext_val(moved.sub(alt)) - 1 == E.ramification_break


# ------------------------------------------------------------ closed-form breaks

# The eight benchmark fields, with the windows they are verified at.
BENCHMARK_FIELDS = [
    ("Qp p=2 f=1", None),
    ("Qp p=2 f=2", None),
    ("Qp p=3 f=1 eis=3,3,1", None),
    ("Qp p=2 f=1 eis=-2,0,0,1", None),
    ("Qp p=3 f=2 eis=3,3,1", None),
    ("Fq((t)) p=2 f=1", 9),
    ("Fq((t)) p=3 f=1", 6),
    ("Fq((t)) p=2 f=2", 5),
]


def assert_line_break_is_the_extension_break(desc, window=None):
    ctx = parse_field(desc)
    for cl in line_catalog(ctx, window):
        assert line_break(cl) == attach_extension(cl).ramification_break, (desc, cl.label)


@pytest.mark.parametrize("desc, window", BENCHMARK_FIELDS)
def test_line_break_is_the_extension_break(desc, window):
    assert_line_break_is_the_extension_break(desc, window)


def assert_catalog_lines_are_their_descents(desc, window=None):
    # a catalog line is built from its coordinate vector alone; the descent
    # of its representative must give back the same line, at the level its
    # coordinates read (in char 0, pc minus the least level of a nonzero
    # slot).  A char-p descent reads the class over the window of its own
    # level, so its vector is the catalog vector cut past that level.
    ctx = parse_field(desc)
    for cl in line_catalog(ctx, window):
        x = cl.basis.combination(cl.vec)
        got = line_of(x)
        n = len(got.vec)
        assert got.vec == cl.vec[:n] and not any(cl.vec[n:]), (desc, cl.label)
        if ctx.characteristic == 0:
            slots = zip(unit_class_reduce(x).coords.coords, cl.basis.levels())
            level = ctx.pc - min(lvl for c, lvl in slots if c)
        else:
            level = as_level(as_class_reduce(x))
        assert got.level == cl.level == level, (desc, cl.label)
        # so the descent and the catalog share one attached extension
        assert _line_key(got) == _line_key(cl), (desc, cl.label)
        if ctx.characteristic == 0:
            assert (got.a.num, got.a.t, got.a.P) == (cl.a.num, cl.a.t, cl.a.P), (desc, cl.label)
        else:
            assert (got.a.digits(), got.a.P) == (cl.a.digits(), cl.a.P), (desc, cl.label)


@pytest.mark.parametrize("desc, window", BENCHMARK_FIELDS)
def test_catalog_lines_are_their_descents(desc, window):
    assert_catalog_lines_are_their_descents(desc, window)


@pytest.mark.slow
def test_line_break_is_the_extension_break_q5_zeta5():
    # 3906 lines, each with its own extension and its own descent
    desc = "Qp p=5 f=1 eis=5,10,10,5,1"
    assert_line_break_is_the_extension_break(desc)
    assert_catalog_lines_are_their_descents(desc)


def test_line_break_is_the_level_on_q3_zeta3_as_x2_plus_3():
    # the closed form reads every break in K, and each built extension has
    # that break too: zeta is stored stripped, so no norm loses its digits
    desc = "Qp p=3 f=1 eis=3,0,1"
    catalog = line_catalog(parse_field(desc))
    assert len(catalog) == 40
    for cl in catalog:
        assert line_break(cl) == (cl.level or -1), cl.label
    assert_line_break_is_the_extension_break(desc)


@pytest.mark.parametrize("desc", ["Qp p=3 f=1 eis=3,3,1", "Fq((t)) p=3 f=1"])
def test_line_break_vanishing_norm_is_a_precision_error(desc):
    # a defining constant equal to 1 (char 0) or 0 (char p) to working
    # precision: N(x - 1) = +/-(1 - a) resp. N(y) = +/-a vanishes, which
    # both break paths report as lost precision, not as a bug
    ctx = parse_field(desc)
    real = line_of(ctx.one().add(ctx.pi()) if ctx.characteristic == 0 else ctx.from_digits([(-1, 1)]))
    line = Line(real.basis, real.vec, ctx.one() if ctx.characteristic == 0 else ctx.zero())
    with pytest.raises(PrecisionError, match="norm vanished"):
        line_break(line)
    with pytest.raises(PrecisionError, match="norm vanished"):
        attach_extension(line)


@pytest.mark.parametrize("desc, window", BENCHMARK_FIELDS)
def test_ext_val_read_off_coefficients_is_the_norm_valuation(desc, window):
    # seeded elements of every frame-line extension of G's certificate, with
    # coefficients of mixed valuations, some of them zero
    ctx = parse_field(desc)
    rng = random.Random(desc)
    first = adapted_basis(ctx, "add" if ctx.characteristic else "mult", window)
    checked = 0
    for vec in pairings_verifiers._frame(first.dim()):
        E = attach_extension(Line(first, vec))
        for _ in range(20):
            coeffs = [ctx.zero()] * ctx.p
            for i in rng.sample(range(ctx.p), rng.randint(1, ctx.p)):
                lo = rng.randint(-3, 4)
                coeffs[i] = ctx.from_digits(
                    [(lo, _random_nonzero_digit(ctx, rng))]
                    + [(lo + rng.randint(1, 6), _random_nonzero_digit(ctx, rng)) for _ in range(2)]
                )
            z = ExtElement(E, coeffs)
            n = val(E.norm(z))
            assert E.ext_val(z) == (n // ctx.p if E.is_unramified else n), (desc, vec)
            assert not E.is_unramified or n % ctx.p == 0, (desc, vec)
            checked += 1
    assert checked == 20 * len(pairings_verifiers._frame(first.dim()))


def test_a_vanished_conjugate_product_is_a_precision_error(q2):
    # z = pi^30 + O(pi^29) y is nonzero, but its norm pi^60 + O(pi^59)
    # vanishes to working precision: the digits went, not the element
    E = attach_extension(line_of(q2.from_int(2)))
    z = ExtElement(E, [q2.one().shift(30), q2.zero(29)])
    assert not z.is_zero_to_precision()
    with pytest.raises(PrecisionError, match="norm vanished"):
        E.norm(z)
    with pytest.raises(PrecisionError):
        E.ext_val(z)


# ------------------------------------------------------------ element arithmetic


def test_ext_element_product_difference_of_squares(q2):
    E = attach_extension(line_of(q2.from_int(2)))
    one = E.embed(q2.one())
    prod = one.add(E.gen()).mul(one.sub(E.gen()))
    want = E.embed(q2.one().sub(E.a))
    assert prod.sub(want).is_zero_to_precision()


def test_ext_element_powi_matches_repeated_mul(f3t):
    E = attach_extension(line_of(f3t.from_digits([(-2, 1)])))
    z = E.gen().add(E.embed(f3t.pi()))
    byhand = z.mul(z).mul(z).mul(z)
    assert z.powi(4).sub(byhand).is_zero_to_precision()
    with pytest.raises(DomainError):
        z.powi(-1)


def test_module_level_wrappers_delegate(q2):
    E = attach_extension(line_of(q2.from_int(2)))
    assert ramification_break(E) == E.ramification_break
