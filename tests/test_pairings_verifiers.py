"""Kernel-level pairing, norm-class groups, and the claim verifiers.

Independent oracles:

* exhaustive integer norm enumeration for the three quadratic extensions
  of Q_2 — x^2 - a*y^2 over [0, 64)^2 in exact integers classifies every
  attainable square class, no p-adics involved;
* the classical quadratic Hilbert symbol over Q_2 (tests/hilbert_q2.py,
  with its own tests in tests/test_hilbert_q2.py);
* hand-computed Schmid residues for one-term series, e.g.
  res(t^-1 * d(1+t)/(1+t)) = 1;
* the vanishing S(res(wp(z) db/b)) = 0, which is what makes the residue
  pairing well defined on classes;
* the span of the norm classes of the whole generator schedule, walked to
  its end, which the norm walk must reproduce when it stops early;
* the walked norm group of every line, which must be the kernel of that
  line's row of the pairing matrix in both characteristics, and the U_i
  complements of S8.33 re-derived from the walked norm groups over all
  p^n vectors.  These call the walk (_walk_norm_group) by name: once the
  pairing matrix is cached, norm_class_subgroup reads its kernels off it,
  and an oracle for the matrix must not read the matrix;
* Schmid residues computed in a fresh context, which the char-p pairing
  matrix must equal entry by entry;
* the Steinberg relation (x, 1 - x) = 1 on seeded draws that the char-0
  construction of the pairing matrix never used.
"""

import functools
import itertools
import json
import random

import pytest

from lfk.class_spaces import _random_nonzero_digit, adapted_basis, as_class_reduce, coordinates
from lfk.errors import DomainError, InternalError, UnsupportedCaseError
from lfk.extensions import DegreePExtension, Line, _line_key, attach_extension, line_of
from lfk.fp_linalg import FpSubspace, FpVector, extend, member, perp, rref, solve
from lfk.local_arith import parse_element, parse_field, series_residue_and_dlog
from lfk import class_spaces, extensions, pairings_verifiers
from lfk.pairings_verifiers import (
    PairingReport,
    VerificationReport,
    claims_for,
    line_catalog,
    norm_class_subgroup,
    pairing_value,
    pairs_trivially,
    verify_all,
    verify_claim,
)


@pytest.fixture(scope="module")
def q2():
    return parse_field("Qp p=2 f=1")


@pytest.fixture(scope="module")
def q3z():
    return parse_field("Qp p=3 f=1 eis=3,3,1")


@pytest.fixture(scope="module")
def f2t():
    return parse_field("Fq((t)) p=2 f=1")


@pytest.fixture(scope="module")
def f3t():
    return parse_field("Fq((t)) p=3 f=1")


# ---------------------------------------------------------------- Q2 norms


def square_class_label(n):
    """(v mod 2, unit mod 8) — a complete invariant of n's class in Q2."""
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return (v % 2, n % 8)


def attained_norm_labels(a):
    # negative n: valuation/unit extraction works on the absolute value,
    # with the sign folded back into the unit part
    labels = set()
    for x in range(64):
        for y in range(64):
            n = x * x - a * y * y
            if n == 0:
                continue
            sign = 1 if n > 0 else -1
            v, u = square_class_label(abs(n))
            labels.add((v, (sign * u) % 8))
    return labels


NORM_TABLES = {
    5: {(0, 1), (0, 3), (0, 5), (0, 7)},          # unramified: all units
    -1: {(0, 1), (0, 5), (1, 1), (1, 5)},         # x^2 + y^2
    2: {(0, 1), (0, 7), (1, 1), (1, 7)},          # x^2 - 2 y^2
}


@pytest.mark.parametrize("a", [5, -1, 2])
def test_q2_norm_enumeration_oracle(a):
    assert attained_norm_labels(a) == NORM_TABLES[a]


@pytest.mark.parametrize("a", [5, -1, 2])
def test_q2_norm_class_subgroup_matches_enumeration(q2, a):
    basis = adapted_basis(q2)
    E = attach_extension(line_of(q2.from_int(a)))
    sub = norm_class_subgroup(E)
    assert sub.dim() == basis.dim() - 1
    reps = {(0, 1): 1, (0, 3): 3, (0, 5): 5, (0, 7): 7,
            (1, 1): 2, (1, 3): 6, (1, 5): 10, (1, 7): 14}
    for label, n in reps.items():
        inside = member(sub, coordinates(basis, q2.from_int(n)))
        assert inside == (label in NORM_TABLES[a]), (a, label)


def test_q2_norm_generators_explicit(q2):
    basis = adapted_basis(q2)
    cases = {5: [-1, 5], -1: [2, 5], 2: [-1, 2]}
    complements = {5: 2, -1: -1, 2: 5}
    for a, gens in cases.items():
        sub = norm_class_subgroup(attach_extension(line_of(q2.from_int(a))))
        for g in gens:
            assert member(sub, coordinates(basis, q2.from_int(g)))
        assert not member(sub, coordinates(basis, q2.from_int(complements[a])))


def test_q2_norm_span_equals_subgroup(q2):
    # same comparison through the library's coordinate path: the span of
    # the classes of several hundred true integer norms is the subgroup
    basis = adapted_basis(q2)
    for a in (5, -1, 2):
        sub = norm_class_subgroup(attach_extension(line_of(q2.from_int(a))))
        seen = set()
        for x in range(-12, 13):
            for y in range(-12, 13):
                n = x * x - a * y * y
                if n:
                    seen.add(coordinates(basis, q2.from_int(n)).coords)
        span = rref([FpVector(2, c) for c in seen])
        assert span == sub


# ---------------------------------------------------------------- schmid


def test_schmid_hand_values(f2t, f3t):
    # res(t^-1 d(1+t)/(1+t)) = res(t^-1 (1 - t + t^2 - ...) dt) = 1
    for ctx in (f2t, f3t):
        x = ctx.from_digits([(-1, 1)])
        b = ctx.one().add(ctx.pi())
        assert series_residue_and_dlog(x, b) == 1
        assert pairing_value(line_of(x), b) == 1
        assert not pairs_trivially(line_of(x), b)


def test_schmid_trace_constant_against_t(f2t):
    # a constant of nonzero trace pairs with t itself: res(c dt/t) = c
    c = f2t.from_digits([(0, 1)])
    assert series_residue_and_dlog(c, f2t.pi()) == 1
    assert pairing_value(line_of(c), f2t.pi()) == 1


def test_schmid_value_multiplicative_in_b(f3t):
    rng = random.Random(11)
    x = f3t.from_digits([(-1, 1), (-2, 2)])
    xl = line_of(x)
    for _ in range(25):
        b1 = _random_mult_unit(f3t, rng)
        b2 = _random_mult_unit(f3t, rng)
        lhs = pairing_value(xl, b1.mul(b2))
        rhs = (pairing_value(xl, b1) + pairing_value(xl, b2)) % 3
        assert lhs == rhs


def test_schmid_kills_wp_image(f2t, f3t):
    # S(res(wp(z) db/b)) must vanish: that is why the pairing descends
    rng = random.Random(23)
    for ctx in (f2t, f3t):
        for _ in range(30):
            z = _random_series(ctx, rng)
            w = z.powi(ctx.p).sub(z)
            b = _random_mult_unit(ctx, rng)
            assert series_residue_and_dlog(w, b) == 0


def test_schmid_same_on_normal_form(f3t):
    rng = random.Random(31)
    for _ in range(20):
        x = _random_series(f3t, rng)
        red = as_class_reduce(x)
        if red.is_trivial():
            continue
        b = _random_mult_unit(f3t, rng)
        assert series_residue_and_dlog(x, b) == series_residue_and_dlog(
            red.normalized_rep, b
        )


def _random_series(ctx, rng):
    pairs = []
    for m in range(-4, 3):
        c = rng.randrange(ctx.p)
        if c:
            pairs.append((m, c))
    if not pairs:
        pairs = [(-1, 1)]
    return ctx.from_digits(pairs)


def _random_mult_unit(ctx, rng):
    out = ctx.one().add(ctx.from_digits([(1 + rng.randrange(4), 1 + rng.randrange(ctx.p - 1))]))
    if rng.randrange(2):
        out = out.mul(ctx.pi())
    return out


def test_schmid_vs_norm_membership_seeded():
    # the char-p matrix holds Schmid values, so its kernels are the Schmid
    # bits; they must be the walked norm groups on every catalog line (the
    # F3((t)) catalog is a seeded sample), not only on the d lines its
    # certificate walks
    for desc, window in CHAR_P_WINDOWED:
        assert_kernels_match_walked_norm_groups(desc, window)


# ---------------------------------------------------------------- pairing api


def test_pairing_value_char0_unsupported(q2):
    with pytest.raises(UnsupportedCaseError):
        pairing_value(line_of(q2.from_int(5)), q2.from_int(2))


def test_pairing_cross_field_rejected(f2t, f3t):
    x = f2t.from_digits([(-1, 1)])
    with pytest.raises(DomainError):
        pairs_trivially(line_of(x), f3t.pi())


def test_known_q2_pairs(q2):
    five = line_of(q2.from_int(5))
    assert pairs_trivially(five, q2.from_int(-1))
    assert not pairs_trivially(five, q2.from_int(2))
    assert pairs_trivially(line_of(q2.from_int(2)), q2.from_int(-1))


def test_norm_subgroup_codim_one_char0(q2, q3z):
    for ctx in (q2, q3z):
        n = adapted_basis(ctx).dim()
        for cl in line_catalog(ctx):
            sub = norm_class_subgroup(attach_extension(cl))
            assert sub.dim() == n - 1


def test_norm_subgroup_needs_window_char_p():
    # also once the field holds G: a held G covers windows up to its own,
    # and a char-p norm group without a window has none to cover
    ctx = parse_field("Fq((t)) p=2 f=1")
    E = attach_extension(line_of(ctx.from_digits([(-1, 1)])))
    with pytest.raises(DomainError):
        norm_class_subgroup(E)
    pairings_verifiers._pairing_matrix(ctx, 5)
    with pytest.raises(DomainError):
        norm_class_subgroup(E)


def test_unramified_norm_subgroup_char_p(f2t):
    # the trace line attaches the unramified extension: all units are
    # norms, t is not
    basis = adapted_basis(f2t, "mult", 5)
    c = f2t.from_digits([(0, 1)])
    sub = norm_class_subgroup(attach_extension(line_of(c)), 5)
    assert sub.dim() == basis.dim() - 1
    assert not member(sub, coordinates(basis, f2t.pi()))
    for g, label in zip(basis.elements(), basis.labels()):
        if label != "t":
            assert member(sub, coordinates(basis, g))


def full_schedule_span(E, window=None):
    """Oracle: the span of the norm classes of the whole generator schedule.

    Every candidate is normed and reduced, with no stopping rule and no
    target dimension, so it shows what the early stop in the walk
    (_walk_norm_group) must leave unchanged.  The schedule already leaves
    out the units of K at the levels m divisible by p;
    test_skipped_schedule_candidates_have_p_th_power_norms puts them back.
    """
    ctx = E.base
    basis = adapted_basis(ctx) if window is None else adapted_basis(ctx, "mult", window)
    rows = []
    for cand in pairings_verifiers._norm_generator_schedule(E, window):
        rows.append(coordinates(basis, E.norm(cand)))
    return rref(rows, p=ctx.p, ambient_dim=basis.dim())


def identity_space(p, n):
    """All of F_p^n, with the unit vectors as its basis."""
    return FpSubspace(p, n, tuple(tuple(int(j == i) for j in range(n)) for i in range(n)))


@pytest.mark.parametrize(
    "desc, window",
    [
        ("Fq((t)) p=2 f=1", 9),
        ("Fq((t)) p=3 f=1", 6),
        ("Fq((t)) p=2 f=2", 5),
        ("Qp p=2 f=1", None),
        ("Qp p=3 f=1 eis=3,3,1", None),
    ],
)
def test_norm_subgroup_stop_matches_full_schedule(desc, window):
    ctx = parse_field(desc)
    if window is None:
        catalog = line_catalog(ctx)
        n = adapted_basis(ctx).dim()
    else:
        catalog = line_catalog(ctx, window)
        n = adapted_basis(ctx, "mult", window).dim()
    for cl in catalog:
        E = attach_extension(cl)
        sub = pairings_verifiers._walk_norm_group(E, window)
        assert sub == full_schedule_span(E, window), (desc, cl.label)
        assert sub.dim() == n - 1, (desc, cl.label)


def test_norm_subgroup_break_past_window_is_whole_space():
    # U_10 is not in N(E*) when the break is 11, so N(E*) U_10 = K* and
    # the image in K*/(K*)^2 U_10 is everything
    ctx = parse_field("Fq((t)) p=2 f=1")
    E = attach_extension(line_of(parse_element(ctx, "t^-11")))
    assert E.ramification_break == 11
    n = adapted_basis(ctx, "mult", 9).dim()
    sub = pairings_verifiers._walk_norm_group(E, 9)
    assert sub == identity_space(2, n)
    assert sub == full_schedule_span(E, 9)


@pytest.mark.parametrize(
    "desc, elt, window",
    [("Fq((t)) p=2 f=1", "t^-1", 5), ("Fq((t)) p=3 f=1", "t^-2", 4), ("Qp p=2 f=1", "5", None)],
)
def test_norm_subgroup_short_schedule_is_an_internal_error(monkeypatch, desc, elt, window):
    schedule = pairings_verifiers._norm_generator_schedule
    monkeypatch.setattr(
        pairings_verifiers,
        "_norm_generator_schedule",
        lambda E, w: itertools.islice(schedule(E, w), 1),
    )
    ctx = parse_field(desc)
    E = attach_extension(line_of(parse_element(ctx, elt)))
    with pytest.raises(InternalError, match="stuck at codimension"):
        norm_class_subgroup(E, window)


# ---------------------------------------------------------------- pairing matrix

# The char-0 fields with the p-th roots of unity among the bundled ones:
# Q2, Q2 f=2, Q3(zeta3), Q2 e=3 and Q3f2e2, with 7, 15, 40, 31 and 364 lines.
CHAR0_MU_P = (
    "Qp p=2 f=1",
    "Qp p=2 f=2",
    "Qp p=3 f=1 eis=3,3,1",
    "Qp p=2 f=1 eis=-2,0,0,1",
    "Qp p=3 f=2 eis=3,3,1",
)


# The char-p benchmark fields, with the windows they are verified at.
CHAR_P_WINDOWED = (("Fq((t)) p=2 f=1", 9), ("Fq((t)) p=3 f=1", 6), ("Fq((t)) p=2 f=2", 5))

# The eight benchmark fields, with the windows they are verified at.
BENCHMARK_FIELDS = [(desc, None) for desc in CHAR0_MU_P] + list(CHAR_P_WINDOWED)


def _stored(x):
    """Every stored part of an element: (num, t, P) resp. (v, X, P)."""
    return (x.num, x.t, x.P) if x.ctx.characteristic == 0 else (x.v, x.X, x.P)


@pytest.mark.parametrize("desc, window", BENCHMARK_FIELDS + [("Qp p=5 f=1 eis=5,10,10,5,1", None)])
def test_catalog_lines_hold_their_basis_combination(desc, window):
    """line_catalog shares prefix products between lex-ordered vectors; each
    line's representative must still be basis.combination(vec), stored
    digit for digit the same.  F3((t)) w6 has p^d = 3^5, past the budget,
    so its catalog is the sampled, sorted one."""
    ctx = parse_field(desc)
    basis = adapted_basis(ctx, "add" if ctx.characteristic else "mult", window)
    catalog = line_catalog(ctx, window)
    if desc == "Fq((t)) p=3 f=1":
        assert len(catalog) < (3**basis.dim() - 1) // 2
    for cl in catalog:
        assert _stored(cl.a) == _stored(basis.combination(cl.vec)), (desc, cl.label)


@functools.lru_cache(maxsize=None)
def walked_norm_groups(desc, window):
    """{catalog vector: the norm group walked from its own extension} for
    every catalog line, on a fresh field that never builds G.  The tests
    that read it share one walk per line and test session."""
    ctx = parse_field(desc)
    return {
        cl.vec: pairings_verifiers._walk_norm_group(attach_extension(cl), window)
        for cl in line_catalog(ctx, window)
    }


def assert_kernels_match_walked_norm_groups(desc, window=None):
    """Oracle: for every catalog line x, the norm group walked from its own
    extension is ker(x.G), i.e. it has codimension 1 and x.G kills it."""
    ctx = parse_field(desc)
    G = pairings_verifiers._pairing_matrix(ctx, window)
    p, d = ctx.p, len(G)
    walked_groups = walked_norm_groups(desc, window)
    for cl in line_catalog(ctx, window):
        row = [sum(x * G[r][c] for r, x in enumerate(cl.vec)) % p for c in range(d)]
        walked = walked_groups[cl.vec]
        assert any(row) and walked.dim() == d - 1, (desc, cl.label)
        for h in walked.basis:
            assert sum(a * b for a, b in zip(row, h)) % p == 0, (desc, cl.label)


@pytest.mark.parametrize("desc", CHAR0_MU_P)
def test_pairing_matrix_kernels_are_the_walked_norm_groups(desc):
    assert_kernels_match_walked_norm_groups(desc)


@pytest.mark.slow
def test_pairing_matrix_kernels_are_the_walked_norm_groups_q5_zeta5():
    # 3906 lines, each with its own extension: about a minute
    assert_kernels_match_walked_norm_groups("Qp p=5 f=1 eis=5,10,10,5,1")


@pytest.mark.parametrize("desc, window", [(d, None) for d in CHAR0_MU_P] + list(CHAR_P_WINDOWED))
def test_norm_groups_read_off_the_pairing_matrix_are_the_walked_ones(desc, window):
    # a field that holds G reads each norm group as ker(x.G); the walk reads
    # no G.  In char p two lines lie past the window (t^-11 and t^-11 + t^-1
    # at window 9 on F2((t))): their norm group is the whole windowed space,
    # as their break past the window makes the walk find, although the
    # second has nonzero coordinates inside the window
    ctx = parse_field(desc)
    pairings_verifiers._pairing_matrix(ctx, window)
    walked_groups = walked_norm_groups(desc, window)
    lines = [(cl, walked_groups[cl.vec]) for cl in line_catalog(ctx, window)]
    if window is not None:
        deep = next(m for m in itertools.count(window + 1) if m % ctx.p)
        for tail in ("", "+t^-1"):
            cl = line_of(parse_element(ctx, "t^-%d%s" % (deep, tail)))
            lines.append((cl, pairings_verifiers._walk_norm_group(attach_extension(cl), window)))
    for cl, walked in lines:
        read = norm_class_subgroup(attach_extension(cl), window)
        assert read == walked, (desc, cl.label)
        if window is not None and cl.level > window:
            assert read == identity_space(ctx.p, read.ambient_dim), (desc, cl.label)


@pytest.mark.parametrize(
    "desc, elt, window, built",
    [("Qp p=3 f=2 eis=3,3,1", "1+pi", None, None), ("Fq((t)) p=2 f=2", "t^-3+g", 5, 5),
     ("Fq((t)) p=2 f=1", "t^-3+t^-1", 5, 9), ("Fq((t)) p=2 f=1", "t^-7+t^-1", 9, 5)],
)
def test_norm_class_subgroup_walks_only_without_the_pairing_matrix(monkeypatch, desc, elt, window, built):
    # a fresh field walks once and builds no G, so a one-shot query stays
    # one walk; a field that holds G of the window or a wider one (its
    # top-left block is G of the window) reads ker(x.G) and walks none.  A
    # G of a narrower window does not cover the query, which walks
    schedule = pairings_verifiers._norm_generator_schedule
    walks = []
    monkeypatch.setattr(
        pairings_verifiers, "_norm_generator_schedule", lambda E, w: walks.append(E.line) or schedule(E, w)
    )
    fresh = parse_field(desc)
    walked = norm_class_subgroup(attach_extension(line_of(parse_element(fresh, elt))), window)
    assert len(walks) == 1
    assert "pairing" not in fresh.cache
    ctx = parse_field(desc)
    pairings_verifiers._pairing_matrix(ctx, built)
    E = attach_extension(line_of(parse_element(ctx, elt)))
    del walks[:]
    assert norm_class_subgroup(E, window) == walked
    assert walks == ([] if window is None or built >= window else [E.line])


@pytest.mark.parametrize("desc", CHAR0_MU_P)
def test_kummer_complements_match_brute_force(desc):
    # the U_i complement of S8.33, from the definition: every vector of
    # F_p^n lying in the walked norm group of every line of level <= pc - i
    ctx = parse_field(desc)
    n = adapted_basis(ctx).dim()
    levels = adapted_basis(ctx).levels()
    report = verify_claim(ctx, "S8.33")
    claimed = {entry["i"]: entry for entry in report.claimed_orthogonals}
    walked_groups = walked_norm_groups(desc, None)
    walked = [(cl.level, walked_groups[cl.vec]) for cl in line_catalog(ctx)]
    for i in range(0, ctx.pc + 2):
        groups = [sub for level, sub in walked if level <= ctx.pc - i]
        survivors = [
            FpVector(ctx.p, vec)
            for vec in itertools.product(range(ctx.p), repeat=n)
            if all(member(sub, FpVector(ctx.p, vec)) for sub in groups)
        ]
        brute = rref(survivors, p=ctx.p, ambient_dim=n)
        deep = [FpVector(ctx.p, [int(j == c) for j in range(n)])
                for c, lvl in enumerate(levels) if lvl >= ctx.pc - i + 1]
        assert brute == rref(deep, p=ctx.p, ambient_dim=n), (desc, i)
        assert claimed[i]["dim"] == brute.dim() and claimed[i]["pass"], (desc, i)


@pytest.mark.parametrize(
    "desc, window, built", [(d, w, w) for d, w in CHAR_P_WINDOWED] + [("Fq((t)) p=2 f=1", 5, 9)]
)
def test_char_p_pairing_matrix_is_the_schmid_table(desc, window, built):
    # the Schmid residue of each normal form, in a context that never built
    # G; G read at a window inside the one it was built at is its block
    ctx = parse_field(desc)
    pairings_verifiers._pairing_matrix(ctx, built)
    G = pairings_verifiers._pairing_matrix(ctx, window)
    fresh = parse_field(desc)
    mult = adapted_basis(fresh, "mult", window).elements()
    table = [
        [series_residue_and_dlog(line_of(g).a, h) for h in mult]
        for g in adapted_basis(fresh, "add", window).elements()
    ]
    assert "pairing" not in fresh.cache
    assert G == table
    assert verify_claim(ctx, "S8.34", window=window).gram == table


@pytest.mark.parametrize(
    "desc, window",
    [("Qp p=2 f=1", None), ("Qp p=3 f=1 eis=3,3,1", None)]
    + list(CHAR_P_WINDOWED) + [("Fq((t)) p=2 f=1", 1)],
)
def test_pairing_matrix_certificate_catches_every_flipped_entry(desc, window):
    # neither characteristic builds G from a norm group, so the walked
    # frame lines are all that tie G to the norm map
    ctx = parse_field(desc)
    G = pairings_verifiers._pairing_matrix(ctx, window)
    pairings_verifiers._certify_pairing_matrix(ctx, G, window)
    d = len(G)
    for r, c, delta in itertools.product(range(d), range(d), range(1, ctx.p)):
        bad = [list(row) for row in G]
        bad[r][c] = (bad[r][c] + delta) % ctx.p
        with pytest.raises(InternalError):
            pairings_verifiers._certify_pairing_matrix(ctx, bad, window)


def _row_rescaled(G, S, lam, p):
    """G' = S^-1 Lambda S G for invertible S: the row of line s_i under G' is
    lam_i s_i.G, so every line of S keeps its norm group ker(s_i.G)."""
    d = len(G)
    target = [[lam[i] * sum(s * row[c] for s, row in zip(S[i], G)) % p for c in range(d)] for i in range(d)]
    cols = [FpVector(p, col) for col in zip(*S)]
    return [list(row) for row in zip(*(solve(cols, FpVector(p, col)) for col in zip(*target)))]


@pytest.mark.parametrize(
    "desc, window, known",
    # known (S, Lambda) pairs that weaker checks let through.  F5((t)) w4:
    # S is the seeded sample a previous certificate walked instead of the
    # frame, and it accepted this G'.  Q3(zeta3): this G' is skew-symmetric
    # and of full rank, so only the walks can reject it; a seeded search
    # finds one in about 1 of 130 draws there, and none in 400 on Q3f2e2
    [("Fq((t)) p=5 f=1", 4,
      [([(1, 4, 4, 1, 3), (1, 4, 0, 0, 0), (0, 1, 1, 4, 0), (1, 2, 4, 3, 0), (1, 2, 2, 2, 1)], [1, 1, 1, 1, 2])]),
     ("Qp p=3 f=1 eis=3,3,1", None, [([(1, 1, 2, 1), (2, 0, 0, 2), (1, 0, 2, 2), (0, 0, 2, 0)], [1, 2, 2, 1])]),
     ("Qp p=3 f=2 eis=3,3,1", None, [])],
)
def test_pairing_matrix_certificate_rejects_a_row_rescaled_matrix(desc, window, known):
    # a walked norm group fixes its line's row of G only up to a scalar, so
    # no d independent lines S tell G from G' = S^-1 Lambda S G; the frame's
    # sum line does, for the basis lines as S and for every other S
    ctx = parse_field(desc)
    G = pairings_verifiers._pairing_matrix(ctx, window)
    p, d = ctx.p, len(G)
    rng = random.Random(0x5CA1)
    cases = list(known) + [([tuple(int(k == i) for k in range(d)) for i in range(d)], [1] * (d - 1) + [2])]
    while len(cases) < len(known) + 12:
        S = [tuple(rng.randrange(p) for _ in range(d)) for _ in range(d)]
        lam = [rng.randrange(1, p) for _ in range(d)]
        if len(set(lam)) > 1 and rref([FpVector(p, s) for s in S]).dim() == d:
            cases.append((S, lam))
    for S, lam in cases:
        with pytest.raises(InternalError):
            pairings_verifiers._certify_pairing_matrix(ctx, _row_rescaled(G, S, lam, p), window)


@pytest.mark.parametrize("desc, window", CHAR_P_WINDOWED + (("Qp p=3 f=2 eis=3,3,1", None),))
def test_verify_all_walks_d_plus_one_norm_groups(monkeypatch, desc, window):
    # only the certificate of G walks norm groups, one per frame line; when
    # S7.31 cross-checked each catalog line it took 63 / 68 / 127 walks, and
    # Q3f2e2 took 17 when G was read off the norm groups of 2d - 1 lines
    schedule = pairings_verifiers._norm_generator_schedule
    walks = []

    def counting(E, w):
        walks.append(E.line)
        return schedule(E, w)

    monkeypatch.setattr(pairings_verifiers, "_norm_generator_schedule", counting)
    ctx = parse_field(desc)
    d = adapted_basis(ctx, "add" if ctx.characteristic else "mult", window).dim()
    assert all(r.passed() for r in verify_all(ctx, window=window))
    assert [line.vec for line in walks] == pairings_verifiers._frame(d), desc
    assert len(walks) == d + 1, (desc, len(walks), d)


@pytest.mark.parametrize(
    "desc, window, walk_norms",
    # 10, 26, 18, 40, 48, 67, 35, 102 when the ramified walks also normed
    # the units 1 + tau(theta) pi^(m/p) of K at the levels m divisible by
    # p; one more on each char-0 field while the unramified Kummer walk
    # checked its residue-generating unit with a norm
    [field + (n,) for field, n in zip(BENCHMARK_FIELDS, (9, 21, 17, 27, 41, 45, 30, 66))],
)
def test_verify_all_walk_norm_counts(monkeypatch, desc, window, walk_norms):
    # every norm taken inside a walk of G's certificate; the unit check of
    # an unramified extension runs when it is built, outside the walk
    norms = walked = 0
    real_norm, real_walk = DegreePExtension.norm, pairings_verifiers._walk_norm_group

    def norm(E, z):
        nonlocal norms
        norms += 1
        return real_norm(E, z)

    def walk(E, w):
        nonlocal walked
        before = norms
        out = real_walk(E, w)
        walked += norms - before
        return out

    monkeypatch.setattr(DegreePExtension, "norm", norm)
    monkeypatch.setattr(pairings_verifiers, "_walk_norm_group", walk)
    assert all(r.passed() for r in verify_all(parse_field(desc), window=window))
    assert walked == walk_norms, desc


def assert_schedule_norms_keep_their_digits(desc):
    # every norm of the generator schedule, walked to its end, on the frame
    # lines of G's certificate keeps all but pc of the working precision's
    # relative digits: E is held over an integral basis, so no norm loses
    # digits to cancelling coefficients
    ctx = parse_field(desc)
    first = adapted_basis(ctx, "mult")
    for vec in pairings_verifiers._frame(first.dim()):
        E = attach_extension(Line(first, vec))
        for z in pairings_verifiers._norm_generator_schedule(E, None):
            n = E.norm(z)
            assert n.P - n.valuation() >= ctx.default_precision - ctx.pc, (desc, vec)


@pytest.mark.parametrize("desc", CHAR0_MU_P)
def test_schedule_norms_keep_their_digits(desc):
    assert_schedule_norms_keep_their_digits(desc)


@pytest.mark.slow
@pytest.mark.parametrize("desc", ["Qp p=5 f=1 eis=5,10,10,5,1", "Qp p=7 f=1 eis=7,21,35,35,21,7,1"])
def test_schedule_norms_keep_their_digits_q5_q7(desc):
    # Q7(zeta7) kept only 21 of 64 digits over the powers of the generator
    assert_schedule_norms_keep_their_digits(desc)


def _skipped_candidates(E, window):
    """The units 1 + tau(theta) y_m, p | m, that the ramified schedule
    leaves out, built as it would build them; each y_m = pi^(m/p) lies in K."""
    ctx = E.base
    if ctx.characteristic == 0:
        depth, cap = class_spaces.first_trivial_level(ctx) + 2, lambda x: x
    else:
        depth = window + 2
        cap = lambda x: x.truncate(2 * depth + 8)
    one = E.embed(ctx.one())
    for m in range(ctx.p, ctx.p * (depth + 1) + 1, ctx.p):
        ym = cap(E._of_valuation(m))
        assert all(c.is_zero_to_precision() for c in ym.coeffs[1:]), m
        for theta in ctx.k.basis():
            yield one.add(ym.scale(ctx.teichmuller(theta)))


@pytest.mark.parametrize("desc, window", BENCHMARK_FIELDS)
def test_skipped_schedule_candidates_have_p_th_power_norms(desc, window):
    # on every frame line of G's certificate: each skipped unit c lies in
    # K, so its norm is c^p, whose class is trivial, and the schedule with
    # them put back spans the walked norm group
    ctx = parse_field(desc)
    basis = adapted_basis(ctx, "mult", window)
    first = adapted_basis(ctx, "add" if ctx.characteristic else "mult", window)
    ramified = 0
    for vec in pairings_verifiers._frame(first.dim()):
        E = attach_extension(Line(first, vec))
        if E.ramification_break == -1:
            continue
        ramified += 1
        span = full_schedule_span(E, window)
        for c in _skipped_candidates(E, window):
            n = E.norm(c)
            assert n.sub(c.coeffs[0].powi(ctx.p)).is_zero_to_precision(), (desc, vec)
            y = coordinates(basis, n)
            assert not any(y.coords), (desc, vec)
            span = extend(span, y)
        assert span == pairings_verifiers._walk_norm_group(E, window), (desc, vec)
    assert ramified == len(pairings_verifiers._frame(first.dim())) - 1, desc


@pytest.mark.parametrize("desc, wide, narrow", [("Fq((t)) p=2 f=1", 9, 5), ("Fq((t)) p=3 f=1", 6, 3),
                                                ("Fq((t)) p=2 f=2", 5, 3)])
def test_a_two_window_session_holds_one_pairing_matrix(monkeypatch, desc, wide, narrow):
    # G of the narrow window is the top-left block of the wide one's, so
    # after the wide session the narrow one walks nothing and reports what a
    # fresh field reports, byte for byte; narrow then wide certifies both,
    # one walk per frame line (one G per window used to walk both frames in
    # either order)
    schedule = pairings_verifiers._norm_generator_schedule
    walks = []
    monkeypatch.setattr(
        pairings_verifiers, "_norm_generator_schedule", lambda E, w: walks.append(E.line) or schedule(E, w)
    )

    def dumped(ctx, window):
        return [json.dumps(r.to_json(), indent=2) for r in verify_all(ctx, window=window)]

    def frame(ctx, window):
        return len(pairings_verifiers._frame(adapted_basis(ctx, "add", window).dim()))

    fresh = {w: dumped(parse_field(desc), w) for w in (wide, narrow)}
    for order, certified in (((wide, narrow), (wide,)), ((narrow, wide), (narrow, wide))):
        ctx = parse_field(desc)
        del walks[:]
        assert [dumped(ctx, w) for w in order] == [fresh[w] for w in order], (desc, order)
        assert len(walks) == sum(frame(ctx, w) for w in certified), (desc, order)
        assert [key for key in ctx.cache if "pairing" in key] == ["pairing"]
        assert ctx.cache["pairing"][0] == wide


def test_char0_pairing_matrix_walks_only_its_certificate(monkeypatch):
    # G solves the Steinberg system, so building it attaches no extension
    # and walks no norm group; its certificate then walks one per frame line
    events = []
    attach = pairings_verifiers.attach_extension
    schedule = pairings_verifiers._norm_generator_schedule
    certify = pairings_verifiers._certify_pairing_matrix
    monkeypatch.setattr(
        pairings_verifiers, "attach_extension", lambda line: events.append("attach") or attach(line)
    )
    monkeypatch.setattr(
        pairings_verifiers, "_norm_generator_schedule", lambda E, w: events.append("walk") or schedule(E, w)
    )
    monkeypatch.setattr(
        pairings_verifiers, "_certify_pairing_matrix", lambda *a: events.append("certify") or certify(*a)
    )
    for desc in CHAR0_MU_P:
        del events[:]
        ctx = parse_field(desc)
        pairings_verifiers._pairing_matrix(ctx)
        lines = pairings_verifiers._frame(adapted_basis(ctx).dim())
        assert events == ["certify"] + ["attach", "walk"] * len(lines), desc


def test_a_rank_deficient_steinberg_system_is_an_internal_error(monkeypatch):
    # every descent read as the trivial class, -1 and each 1 - x: the orbit
    # equations a.G.b = 0 then have a = +-v and b = +-v or 0, so they span
    # only the symmetric tensors v.v, d(d + 1)/2 = 6 of the 8 dimensions
    # the solution needs
    ctx = parse_field("Qp p=2 f=1")
    zero = FpVector(2, [0] * adapted_basis(ctx).dim())
    monkeypatch.setattr(pairings_verifiers, "coordinates", lambda basis, x: zero)
    with pytest.raises(InternalError, match="reached rank 6 of 8"):
        pairings_verifiers._pairing_matrix(ctx)
    assert "pairing" not in ctx.cache


def test_steinberg_draws_that_cannot_add_rank_take_no_descent(monkeypatch):
    # draws with v = 0 or v(x) >= first_trivial_level, where 1 - x is a p-th
    # power, skip the descent, and each other draw's one descent gives the
    # equations of its whole anharmonic orbit: on Q3f2e2, 17 descents and
    # the one of -1, where one equation per descent took 36; G stays the same
    ctx = parse_field("Qp p=3 f=2 eis=3,3,1")
    real = pairings_verifiers.coordinates
    reads = []

    def counting(basis, x):
        reads.append(x)
        return real(basis, x)

    monkeypatch.setattr(pairings_verifiers, "coordinates", counting)
    G = pairings_verifiers._steinberg_matrix(ctx)
    assert len(reads) == 18
    monkeypatch.setattr(pairings_verifiers, "coordinates", real)
    assert pairings_verifiers._pairing_matrix(ctx) == G


def test_char0_pairing_without_mu_p_is_unsupported():
    # pc = 3 but mu_3 is absent: K_2(K)/3 is trivial, so the Steinberg
    # system has no nonzero solution to find
    ctx = parse_field("Qp p=3 f=1 eis=-3,0,1")
    with pytest.raises(UnsupportedCaseError, match="p-th roots of unity"):
        pairs_trivially(line_of(ctx.one().add(ctx.pi())), ctx.pi())


def test_char_p_claims_check_every_index_up_to_the_window(f2t):
    # S6.29, S7.31(d) and S8.34 used to stop at i = 9 whatever the window
    for cid in ("S6.29", "S8.34"):
        report = verify_claim(f2t, cid, window=12)
        entries = report.witnesses if cid == "S6.29" else report.claimed_orthogonals
        assert [w["i"] for w in entries if "i" in w] == list(range(13)), cid
        assert report.status == "pass"
    report = verify_claim(f2t, "S7.31", window=12)
    checked = next(w["containments_checked"] for w in report.witnesses if "containments_checked" in w)
    assert checked == 13 * len(line_catalog(f2t, 12)) and report.status == "pass"


# ---------------------------------------------------------------- S4.22 closed-form breaks


def _certificate_vectors(ctx, window):
    """The frame of G's certificate, the basis lines and their sum, on which
    built extensions certify the closed-form breaks."""
    return pairings_verifiers._frame(adapted_basis(ctx, "add" if ctx.characteristic else "mult", window).dim())


def _break_off_by_one_on(monkeypatch, ctx, window, vec):
    """line_break answers one more than the truth on the line of vec."""
    basis = adapted_basis(ctx, "add" if ctx.characteristic else "mult", window)
    key = _line_key(line_of(basis.combination(vec)))
    real = pairings_verifiers.line_break

    def off(line):
        return real(line) + (_line_key(line) == key)

    monkeypatch.setattr(pairings_verifiers, "line_break", off)


@pytest.mark.parametrize("desc, window", [("Qp p=3 f=2 eis=3,3,1", None), ("Fq((t)) p=3 f=1", 6)])
@pytest.mark.parametrize("which", [1, -1])  # a basis line, the sum line
def test_a_wrong_closed_form_break_on_a_certificate_line_is_an_internal_error(
    monkeypatch, desc, window, which
):
    ctx = parse_field(desc)
    _break_off_by_one_on(monkeypatch, ctx, window, _certificate_vectors(ctx, window)[which])
    with pytest.raises(InternalError, match="closed-form break"):
        verify_claim(ctx, "S4.22", window=window)


def test_a_wrong_closed_form_break_off_the_certificate_fails_the_claim(monkeypatch):
    # the claim itself compares each break with its level, so a wrong
    # break on any other line is a counterexample
    ctx = parse_field("Qp p=3 f=2 eis=3,3,1")
    certified = set(_certificate_vectors(ctx, None))
    cl = next(cl for cl in line_catalog(ctx) if cl.vec not in certified)
    _break_off_by_one_on(monkeypatch, ctx, None, cl.vec)
    report = verify_claim(ctx, "S4.22")
    assert report.status == "fail" and report.counterexample["line"] == cl.label


@pytest.mark.parametrize(
    "desc, window, built",
    # d + 1: the frame of G's certificate, the basis lines and their sum
    # (2d = 12 / 12 / 10 / 14 with a seeded sample of d more lines, and 17
    # in char 0 when G was read off the norm groups of 2d - 1 lines)
    [("Qp p=3 f=2 eis=3,3,1", None, 7), ("Fq((t)) p=2 f=1", 9, 7),
     ("Fq((t)) p=3 f=1", 6, 6), ("Fq((t)) p=2 f=2", 5, 8)],
)
def test_verify_all_builds_extensions_only_for_certificate_lines(desc, window, built):
    # one extension per catalog line before breaks came from line_break:
    # 364 / 63 / 56 / 127
    ctx = parse_field(desc)
    assert all(r.passed() for r in verify_all(ctx, window=window))
    assert sum(key[0] == "ext" for key in ctx.cache) == built


@pytest.mark.parametrize("desc, window", [("Qp p=3 f=2 eis=3,3,1", None), ("Fq((t)) p=2 f=2", 5)])
def test_verify_all_reads_each_break_once(monkeypatch, desc, window):
    # S4.22 and S5.27/S5.28 share one pass of the break entries: one
    # closed-form break per catalog line and per certificate line, where
    # each claim used to read them all again
    real = pairings_verifiers.line_break
    calls = []

    def counting(line):
        calls.append(line)
        return real(line)

    monkeypatch.setattr(pairings_verifiers, "line_break", counting)
    ctx = parse_field(desc)
    assert all(r.passed() for r in verify_all(ctx, window=window))
    certificate = _certificate_vectors(ctx, window)
    assert len(calls) == len(certificate) + len(line_catalog(ctx, window)), desc


# ---------------------------------------------------------------- S7.31 perturbations


def _reciprocity_reads(monkeypatch, ctx, window):
    """S7.31's report and the (row, y, value) of each pairing value it reads
    through _row_dot, in call order; row is x.G for the line's vector x."""
    real = pairings_verifiers._row_dot
    reads = []

    def recording(row, y, p):
        value = real(row, y, p)
        reads.append((tuple(row), tuple(y), value))
        return value

    monkeypatch.setattr(pairings_verifiers, "_row_dot", recording)
    report = verify_claim(ctx, "S7.31", window=window)
    monkeypatch.undo()
    return report, reads


def _row_of(ctx, window, vec):
    """x.G for the first-argument vector x = vec; G is nonsingular, so the
    row names the line."""
    G = pairings_verifiers._pairing_matrix(ctx, window)
    return tuple(sum(a * G[r][c] for r, a in enumerate(vec)) % ctx.p for c in range(len(G[0])))


def _reciprocity_samples(ctx):
    """The three sample elements b of S7.31(c), rebuilt as the verifier builds them."""
    g = ctx.k.gen() if ctx.f > 1 else ctx.k.elt(1)
    if ctx.characteristic:
        third = ctx.one().add(ctx.teichmuller(g).shift(2))
    else:
        third = ctx.teichmuller(g) if ctx.f > 1 else ctx.one().add(ctx.pi().shift(1))
    return [ctx.pi(), ctx.one().add(ctx.pi()), third]


@pytest.mark.parametrize("desc, window", BENCHMARK_FIELDS)
def test_reciprocity_perturbed_bits_match_a_fresh_pairing(monkeypatch, desc, window):
    # Oracle for part (c), which reads the coordinates of each distinct
    # product b u once: every bit it reads must be the one a fresh
    # pairs_trivially(line, b.mul(u)) gives, with u = 1 + tau(d) pi^(level
    # + 1 + r) replayed from the verifier's seeded draws.  The first ten
    # reads are parts (a) and (b) on the unramified line, uniformizer then
    # unit; then, per line, (b, b u, b u') for each of the three samples b.
    ctx = parse_field(desc)
    report, reads = _reciprocity_reads(monkeypatch, ctx, window)
    catalog = line_catalog(ctx, window)
    basis = adapted_basis(ctx, "mult", window)
    assert report.passed() and len(reads) == 10 + 9 * len(catalog)
    unram = next(cl for cl in catalog if cl.level == 0)
    assert all(row == _row_of(ctx, window, unram.vec) for row, _, _ in reads[:10])
    assert [value != 0 for _, _, value in reads[:10]] == [True, False] * 5
    samples = _reciprocity_samples(ctx)
    rng = random.Random(0x7E31)
    for n, cl in enumerate(catalog):
        group = reads[10 + 9 * n: 10 + 9 * n + 9]
        row_cl = _row_of(ctx, window, cl.vec)
        for k, b in enumerate(samples):
            (row, y, base), *perturbed = group[3 * k: 3 * k + 3]
            assert row == row_cl and y == coordinates(basis, b).coords, (desc, cl.label, k)
            for row, yu, value in perturbed:
                d = _random_nonzero_digit(ctx, rng)
                u = ctx.one().add(ctx.teichmuller(d).shift(cl.level + 1 + rng.randrange(0, 2)))
                fresh = b.mul(u)
                assert row == row_cl and yu == coordinates(basis, fresh).coords, (desc, cl.label, k)
                trivial = pairs_trivially(cl, fresh, window)
                assert (value == 0) == (base == 0) == trivial, (desc, cl.label, k)


def test_reciprocity_counterexample_names_a_deep_perturbation(monkeypatch):
    # repr shows digits up to valuation + 6 only, so repr(1 + pi^8) on Q2
    # e=3 is repr(1); the counterexample carries literals that parse back.
    # Part (c) is forced to fail at the first perturbed read of the first
    # line of level pc = 6, whose perturbations sit at pi^7 or pi^8.
    ctx = parse_field("Qp p=2 f=1 eis=-2,0,0,1")
    catalog = line_catalog(ctx)
    n = next(n for n, cl in enumerate(catalog) if cl.level == ctx.pc)
    row_n = _row_of(ctx, None, catalog[n].vec)
    real = pairings_verifiers._row_dot
    reads = []

    def flipping(row, y, p):
        value = real(row, y, p)
        if tuple(row) == row_n:
            reads.append(y)
            if len(reads) == 2:
                return (value + 1) % p
        return value

    monkeypatch.setattr(pairings_verifiers, "_row_dot", flipping)
    ce = verify_claim(ctx, "S7.31").counterexample
    assert ce["part"] == "perturbation" and ce["line"] == catalog[n].label
    # replay the seeded draws: six per earlier line, then this line's first
    rng = random.Random(0x7E31)
    for _ in range(6 * n + 1):
        d = _random_nonzero_digit(ctx, rng)
        shift = ctx.pc + 1 + rng.randrange(0, 2)
    u = ctx.one().add(ctx.teichmuller(d).shift(shift))
    assert repr(u) == repr(ctx.one())
    got = parse_element(ctx, ce["u"])
    assert got.eq_to_precision(u) and not got.eq_to_precision(ctx.one())
    assert parse_element(ctx, ce["b"]).eq_to_precision(ctx.pi())


def test_reciprocity_reads_each_perturbed_product_once(monkeypatch):
    # with the pairing matrix built, as verify all builds it before S7.31,
    # S7.31 on Q3f2e2 reads coordinates 3 times for its samples, 10 times
    # in parts (a) and (b), and once per distinct perturbation u, a product
    # b u reading as coords(b) + coords(u): 48 reads, against 110 once per
    # distinct product b u and 2197 when every product was reduced per line
    ctx = parse_field("Qp p=3 f=2 eis=3,3,1")
    pairings_verifiers._pairing_matrix(ctx)
    real = pairings_verifiers.coordinates
    reads = []

    def counting(basis, x):
        reads.append(x)
        return real(basis, x)

    monkeypatch.setattr(pairings_verifiers, "coordinates", counting)
    assert verify_claim(ctx, "S7.31").passed()
    assert len(reads) == 48


@pytest.mark.parametrize("desc, window", BENCHMARK_FIELDS)
def test_reciprocity_row_containment_is_the_complement_membership(desc, window):
    # Oracle for part (d): the U_i classes lie in the norm group ker(x.G)
    # of a line iff x.G vanishes on the mult slots of level >= i, which is
    # membership of x in the left kernel _complement(ctx, w, i, "first")
    ctx = parse_field(desc)
    w, basis, i_top = pairings_verifiers._setting(ctx, window)
    levels = basis.levels()
    for i in range(0, i_top + 1):
        ui_perp, _ = pairings_verifiers._complement(ctx, w, i, "first")
        deep = [c for c, lvl in enumerate(levels) if lvl >= i]
        for cl in line_catalog(ctx, w):
            row = _row_of(ctx, w, cl.vec)
            contained = not any(row[c] for c in deep)
            assert contained == member(ui_perp, FpVector(ctx.p, cl.vec)), (desc, i, cl.label)


@pytest.mark.parametrize("desc, window", BENCHMARK_FIELDS)
def test_reciprocity_fails_on_a_corrupted_pairing_matrix(desc, window):
    # G is certified when it is built and cached; S7.31 must still catch a
    # later change to it.  Each entry changed, one at a time, is one the
    # filtration forces to zero: row r of a basis line of level L, column c
    # of level > L.  Then the U_(L+1) classes leave that line's norm group,
    # which part (d) sees unless an earlier part already failed.
    ctx = parse_field(desc)
    w, basis, _ = pairings_verifiers._setting(ctx, window)
    G = pairings_verifiers._pairing_matrix(ctx, w)
    d = len(G)
    line_level = {cl.vec: cl.level for cl in line_catalog(ctx, w)}
    forced = [
        (r, c)
        for r in range(d)
        for c, lvl in enumerate(basis.levels())
        if lvl > line_level[tuple(int(k == r) for k in range(d))]
    ]
    assert forced and verify_claim(ctx, "S7.31", window=window).passed()
    for r, c in forced:
        assert G[r][c] == 0, (desc, r, c)
        G[r][c] = 1
        assert verify_claim(ctx, "S7.31", window=window).status == "fail", (desc, r, c)
        G[r][c] = 0


# Oracle fields of the Steinberg relation: char 0 with the p-th roots of
# unity, the five verify-char0 benchmark fields and Q2 f=4.
STEINBERG_FIELDS = CHAR0_MU_P + ("Qp p=2 f=4",)


def assert_steinberg_relation(desc):
    """(x, 1 - x) = 1 for every x != 0, 1 (Serre, Local Fields, XIV 1): x
    has 12 seeded Teichmuller digits from a valuation in -2..3, drawn with
    a seed and a shape that the construction of G does not use, and a draw
    whose class is trivial has no line to pair."""
    seed = 0x57E1
    assert seed != pairings_verifiers._STEINBERG_SEED
    ctx = parse_field(desc)
    rng = random.Random(seed)
    checked = 0
    for _ in range(40):
        v = rng.randrange(-2, 4)
        digits = [(v, _random_nonzero_digit(ctx, rng))]
        digits += [(v + j, [rng.randrange(ctx.p) for _ in range(ctx.f)]) for j in range(1, 12)]
        x = ctx.from_digits(digits)
        try:
            line = line_of(x)
        except DomainError:
            continue
        assert pairs_trivially(line, ctx.one().sub(x)), (desc, x.to_literal())
        checked += 1
    assert checked >= 30, (desc, checked)


@pytest.mark.parametrize("desc", STEINBERG_FIELDS)
def test_pairing_satisfies_the_steinberg_relation(desc):
    assert_steinberg_relation(desc)


@pytest.mark.slow
def test_pairing_satisfies_the_steinberg_relation_q5_zeta5():
    assert_steinberg_relation("Qp p=5 f=1 eis=5,10,10,5,1")


@pytest.mark.parametrize("desc", STEINBERG_FIELDS)
def test_steinberg_orbit_coordinates_follow_the_table(desc):
    # Oracle for _steinberg_matrix, which reads the relation at the six
    # points of the anharmonic orbit of x off one descent of 1 - x: each
    # point, and one minus it, is built and descended here, and its
    # coordinates must be the sums of +-v, +-y and c = coords(-1) that the
    # construction uses; then every pair must pair trivially under G.  The
    # draws x = combination(v) z^p take a seed the construction does not.
    seed = 0x0B17
    assert seed != pairings_verifiers._STEINBERG_SEED
    ctx = parse_field(desc)
    basis = adapted_basis(ctx)
    G = pairings_verifiers._pairing_matrix(ctx)
    p, d, one = ctx.p, basis.dim(), ctx.one()
    c = coordinates(basis, one.neg()).coords
    assert any(c) == (p == 2)  # -1 is a p-th power at odd p, and no square here
    rng = random.Random(seed)
    for _ in range(12):
        v = [rng.randrange(p) for _ in range(d)]
        t = rng.randrange(-1, 2)
        z = ctx.from_digits([(t + j, _random_nonzero_digit(ctx, rng)) for j in range(12)])
        x = basis.combination(v).mul(z.powi(p))
        y = coordinates(basis, one.sub(x)).coords
        cyv = [k + b - a for k, a, b in zip(c, v, y)]
        cvy = [k + a - b for k, a, b in zip(c, v, y)]
        neg_v, neg_y = [-a for a in v], [-b for b in y]
        omx = one.sub(x)
        orbit = [  # (point, coordinates of the point, coordinates of 1 - point)
            (x, v, y),
            (omx, y, v),
            (x.inv(), neg_v, cyv),
            (omx.inv(), neg_y, cvy),
            (x.mul(omx.neg().inv()), cvy, neg_y),
            (x.sub(one).mul(x.inv()), cyv, neg_v),
        ]
        for point, a, b in orbit:
            got = coordinates(basis, point), coordinates(basis, one.sub(point))
            assert got == (FpVector(p, a), FpVector(p, b)), (desc, x.to_literal(), point.to_literal())
            assert sum(a[r] * G[r][s] * b[s] for r in range(d) for s in range(d)) % p == 0


@pytest.mark.parametrize("claim_id", ["S2.10", "S6.29", "S7.31", "S8.33"])
@pytest.mark.parametrize("window", [0, -3])
def test_char0_verifiers_reject_a_nonpositive_window(q2, claim_id, window):
    # char 0 has no use for the window, but rejects a bad one as every
    # other entry point does; None stays the default
    with pytest.raises(DomainError, match="window must be a positive level"):
        verify_claim(q2, claim_id, window=window)
    assert verify_claim(q2, claim_id, window=None).passed()


# ---------------------------------------------------------------- catalogs


def test_q2_catalog_levels(q2):
    counts = {}
    for cl in line_catalog(q2):
        counts[cl.level] = counts.get(cl.level, 0) + 1
    assert counts == {0: 1, 1: 2, 2: 4}


def test_q3z_catalog_levels(q3z):
    cat = line_catalog(q3z)
    assert len(cat) == 40
    counts = {}
    for cl in cat:
        counts[cl.level] = counts.get(cl.level, 0) + 1
    assert counts == {0: 1, 1: 3, 2: 9, 3: 27}


def test_add_catalog_full_enumeration(f2t):
    cat = line_catalog(f2t, 5)
    assert len(cat) == 15  # (2^4 - 1) lines: trace + poles 1, 3, 5
    assert len({cl.label for cl in cat}) == 15


def _count_descents(monkeypatch):
    """Route both reducers through a counter, wherever they are called from;
    returns the list of reducer names called."""
    calls = []
    for mod in (class_spaces, extensions):
        for name in ("unit_class_reduce", "as_class_reduce"):
            real = getattr(mod, name)

            def counting(*args, _real=real, **kw):
                calls.append(_real.__name__)
                return _real(*args, **kw)

            monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("desc, window, lines", [("Qp p=3 f=2 eis=3,3,1", None, 364), ("Fq((t)) p=2 f=1", 9, 63)])
def test_line_catalog_runs_no_descent(monkeypatch, desc, window, lines):
    # each line's level and representative come off its coordinate vector;
    # a descent per line made 364 resp. 63 reductions
    calls = _count_descents(monkeypatch)
    assert len(line_catalog(parse_field(desc), window)) == lines
    assert calls == []


@pytest.mark.parametrize(
    "desc, window, reducer, most",
    # 622 resp. 167 when every line the verifiers walked came from a descent
    [("Qp p=3 f=2 eis=3,3,1", None, "unit_class_reduce", 217),
     ("Fq((t)) p=2 f=2", 5, "as_class_reduce", 5)],
)
def test_verify_all_descent_counts(monkeypatch, desc, window, reducer, most):
    calls = _count_descents(monkeypatch)
    assert all(r.passed() for r in verify_all(parse_field(desc), window=window))
    assert calls.count(reducer) <= most


def test_catalog_wrong_characteristic(q2, f2t):
    # one catalog serves both characteristics: char p enumerates the windowed
    # additive lines, and the window is the basis's to check
    assert [cl.space for cl in line_catalog(f2t, 5)] == ["add"] * 15
    assert {cl.space for cl in line_catalog(q2)} == {"mult"}
    with pytest.raises(DomainError):
        line_catalog(q2, 5)
    with pytest.raises(DomainError):
        line_catalog(f2t)


# ---------------------------------------------------------------- verifiers


@pytest.fixture(scope="module")
def q2_reports(q2):
    return verify_all(q2)


def test_q2_all_claims_pass(q2_reports):
    assert [r.claim_id for r in q2_reports] == [
        "S2.10", "S4.22", "S5.27", "S6.29", "S7.31", "S8.33",
    ]
    assert all(r.status == "pass" for r in q2_reports)


def test_q3z_all_claims_pass(q3z):
    reports = verify_all(q3z)
    assert all(r.status == "pass" for r in reports)
    breaks = next(r for r in reports if r.claim_id == "S5.27")
    multiset = next(w["multiset"] for w in breaks.witnesses if "multiset" in w)
    assert multiset == {"-1": 1, "1": 3, "2": 9, "3": 27}


def test_e3_field_all_claims_pass():
    ctx = parse_field("Qp p=2 f=1 eis=-2,0,0,1")
    assert all(r.status == "pass" for r in verify_all(ctx))


def test_q2f2_all_claims_pass():
    ctx = parse_field("Qp p=2 f=2")
    assert all(r.status == "pass" for r in verify_all(ctx))


def test_f2t_small_window_all_claims_pass(f2t):
    reports = verify_all(f2t, window=5)
    assert [r.claim_id for r in reports] == [
        "S3.16", "S4.22", "S5.28", "S6.29", "S7.31", "S8.34",
    ]
    assert all(r.status == "pass" for r in reports)
    assert all(r.window == 5 for r in reports)


def test_f3t_small_window_all_claims_pass(f3t):
    reports = verify_all(f3t, window=4)
    assert all(r.status == "pass" for r in reports)
    positions = next(r for r in reports if r.claim_id == "S5.28")
    observed = next(w["observed_breaks"] for w in positions.witnesses if "observed_breaks" in w)
    assert observed == [1, 2, 4]


def test_orthogonality_gram_symmetric_at_p2(q2_reports):
    orth = next(r for r in q2_reports if r.claim_id == "S8.33")
    assert isinstance(orth, PairingReport)
    sym = next(w["gram_symmetric"] for w in orth.witnesses if "gram_symmetric" in w)
    assert sym is True
    n = len(orth.row_labels)
    assert all(orth.gram[r][c] in (0, 1) for r in range(n) for c in range(n))


def test_orthogonality_complement_dims(q2_reports):
    orth = next(r for r in q2_reports if r.claim_id == "S8.33")
    dims = {entry["i"]: entry["dim"] for entry in orth.claimed_orthogonals}
    # U_i^perp = U_{3-i}: dims 0, 1, 2, 3 as i runs 0..3 over a 3-dim space
    assert dims == {0: 0, 1: 1, 2: 2, 3: 3}
    assert all(entry["pass"] for entry in orth.claimed_orthogonals)


@pytest.mark.parametrize("side", ["first", "mult"])
@pytest.mark.parametrize(
    "desc, window", [("Qp p=2 f=1", None), ("Qp p=3 f=2 eis=3,3,1", None), ("Fq((t)) p=2 f=2", 5)]
)
def test_orthogonality_reads_both_complement_sides(monkeypatch, desc, window, side):
    # one side's complement at i = 1 comes out as the whole space; S8.33 and
    # S8.34 read both sides at every i, so the claim fails at i = 1
    complement = pairings_verifiers._complement

    def whole_at_1(ctx, w, i, s):
        got, want = complement(ctx, w, i, s)
        return (perp([], ctx.p, got.ambient_dim) if (i, s) == (1, side) else got), want

    monkeypatch.setattr(pairings_verifiers, "_complement", whole_at_1)
    ctx = parse_field(desc)
    report = verify_claim(ctx, "S8.34" if ctx.characteristic else "S8.33", window=window)
    assert report.status == "fail" and report.counterexample["i"] == 1
    entry = report.claimed_orthogonals[1]
    if ctx.characteristic:
        flag = "add_side_pass" if side == "first" else "mult_side_pass"
        assert not entry[flag] and all(e[flag] for e in report.claimed_orthogonals if e is not entry)
    else:
        assert not entry["pass"] and all(e["pass"] for e in report.claimed_orthogonals if e is not entry)


def test_unknown_claim_rejected(q2):
    with pytest.raises(DomainError):
        verify_claim(q2, "S9.99")


def test_inapplicable_claim_rejected(q2, f2t):
    with pytest.raises(DomainError):
        verify_claim(q2, "S8.34")
    with pytest.raises(DomainError):
        verify_claim(f2t, "S8.33")


def test_claims_registry():
    assert claims_for(parse_field("Qp p=2 f=1")) == (
        "S2.10", "S4.22", "S5.27", "S6.29", "S7.31", "S8.33",
    )
    assert claims_for(parse_field("Fq((t)) p=2 f=1")) == (
        "S3.16", "S4.22", "S5.28", "S6.29", "S7.31", "S8.34",
    )
    # no p-th roots of unity: only the filtration claim applies
    assert claims_for(parse_field("Qp p=3 f=1 eis=-3,0,1")) == ("S2.10",)
    assert claims_for(parse_field("Qp p=5 f=1")) == ("S2.10",)


def test_filtration_claim_without_mu(q2):
    ctx = parse_field("Qp p=3 f=1 eis=-3,0,1")
    r = verify_claim(ctx, "S2.10")
    assert r.status == "pass"
    # pc = 3 but mu_3 is absent, so the boundary graded piece is 0
    dims = {w["index"]: w["dim"] for w in r.witnesses if "index" in w}
    assert dims[3] == 0 and dims[1] == 1 and dims[2] == 1


# ---------------------------------------------------------------- reports


def test_report_json_shape(q2_reports):
    for r in q2_reports:
        out = r.to_json()
        assert list(out) == [
            "claim_id", "field", "window", "seed", "status",
            "witnesses", "counterexample", "runtime_ms",
        ]
        assert out["runtime_ms"] is None
        assert out["counterexample"] is None
        json.dumps(out)  # must be serializable as-is


def test_report_invariant_enforced():
    with pytest.raises(InternalError):
        VerificationReport("S2.10", "X", None, 0, "fail", [], None)
    with pytest.raises(InternalError):
        VerificationReport("S2.10", "X", None, 0, "pass", [], {"bad": 1})


def test_pairing_report_folds_gram(q2_reports):
    orth = next(r for r in q2_reports if r.claim_id == "S8.33")
    out = orth.to_json()
    assert out["witnesses"][0]["gram_rows"] == list(orth.row_labels)
    assert out["witnesses"][1]["orthogonals"] == orth.claimed_orthogonals


def test_verify_all_deterministic():
    runs = []
    for _ in range(2):
        ctx = parse_field("Fq((t)) p=2 f=1")
        reports = verify_all(ctx, window=4, seed=7)
        runs.append(json.dumps([r.to_json() for r in reports], sort_keys=False))
    assert runs[0] == runs[1]


def _reports_without_field(desc, prec):
    out = []
    for report in verify_all(parse_field("%s prec=%d" % (desc, prec))):
        data = report.to_json()
        del data["field"]
        out.append(data)
    return json.dumps(out)


@pytest.mark.parametrize(
    "desc",
    ["Qp p=2 f=1", "Qp p=2 f=2", "Qp p=3 f=1 eis=3,3,1", "Qp p=2 f=1 eis=-2,0,0,1"],
)
def test_verify_all_reports_do_not_depend_on_precision(desc):
    # one field at two working precisions: same verdicts, same witnesses
    assert _reports_without_field(desc, 64) == _reports_without_field(desc, 128)


@functools.lru_cache(maxsize=None)
def _invariants(desc):
    """Verdicts, S2.10 dimensions and the S5.27 break multiset of verify_all."""
    reports = {r.claim_id: r for r in verify_all(parse_field(desc))}
    dims = [(w["index"], w["dim"]) for w in reports["S2.10"].witnesses if "dim" in w]
    multiset = next(w["multiset"] for w in reports["S5.27"].witnesses if "multiset" in w)
    return {cid: r.status for cid, r in reports.items()}, dims, multiset


@pytest.mark.parametrize("prec", [64, 128])
def test_q3_zeta3_as_x2_plus_3_verifies_like_its_other_presentation(prec):
    # Q_3(zeta_3) is given by x^2 + 3 as well as by x^2 + 3x + 3; the
    # claims must hold on both presentations, with the same witnesses
    got = _invariants("Qp p=3 f=1 eis=3,0,1 prec=%d" % prec)
    assert list(got[0].values()) == ["pass"] * 6
    assert got == _invariants("Qp p=3 f=1 eis=3,3,1 prec=%d" % prec)


@pytest.mark.parametrize(
    "base, shifted",
    [
        ("Qp p=3 f=1 eis=3,3,1", "Qp p=3 f=1 eis=3,-3,1"),
        ("Qp p=3 f=1 eis=3,3,1", "Qp p=3 f=1 eis=21,9,1"),
        ("Qp p=3 f=2 eis=3,3,1", "Qp p=3 f=2 eis=21,9,1"),
        ("Qp p=5 f=1 eis=5,10,10,5,1", "Qp p=5 f=1 eis=205,-215,85,-15,1"),
    ],
)
def test_shifted_eisenstein_presentation_verifies_like_its_base(base, shifted):
    # f(x) and f(x + a), p | a, define one field (pi' = pi - a): a shift by
    # a = -p or +p of each bundled odd-p field must give its base's reports
    assert _invariants(shifted) == _invariants(base)


def test_statement_text_present(q2_reports):
    for r in q2_reports:
        statements = [w["statement"] for w in r.witnesses if "statement" in w]
        assert len(statements) == 1 and statements[0]
