"""End-to-end acceptance suite: one test per criterion, one printed line each.

The oracles here are deliberately primitive and independent of the library
internals: integer arithmetic mod small powers of 2 for quadratic norm
groups and discriminants, digit-by-digit Hensel search for p-th powers,
repeated wp-subtraction on plain coefficient dicts for additive classes,
and direct enumeration for the prime-to-p index sequence.  Run with -s (or
read the -v lines) for the per-criterion report; timing bounds are asserted
where stated.
"""

import hashlib
import json
import os
import random
import time
from collections import Counter

import pytest

from lfk.class_spaces import (
    adapted_basis,
    as_class_reduce,
    coordinates,
    filtration_dims,
    unit_class_reduce,
)
from lfk.extensions import attach_extension, line_of, ramification_break
from lfk.fp_linalg import member, rref
from lfk.local_arith import INF, bp_index, parse_field, val
# the norm walk by name: once a field holds its pairing matrix,
# norm_class_subgroup reads norm groups off it, and these checks set the
# norm groups against the pairing, not the pairing against itself
from lfk.pairings_verifiers import (
    _walk_norm_group,
    line_catalog,
    pairing_value,
    verify_all,
    verify_claim,
)

from additive_coords import poles_and_trace
from hilbert_q2 import hilbert_symbol_q2

Q2 = "Qp p=2 f=1"
Q2F2 = "Qp p=2 f=2"
Q3Z = "Qp p=3 f=1 eis=3,3,1"
Q2E3 = "Qp p=2 f=1 eis=-2,0,0,1"
F2T = "Fq((t)) p=2 f=1"
F3T = "Fq((t)) p=3 f=1"
F4T = "Fq((t)) p=2 f=2"

# the seven nontrivial square classes of Q2
Q2_REPS = (-1, 2, -2, 5, -5, 10, -10)


def _report(num, name, ok, elapsed=None, bound=None):
    stamp = ""
    if elapsed is not None:
        stamp = " [%.2fs%s]" % (elapsed, "" if bound is None else ", bound %ds" % bound)
    print("criterion %d (%s): %s%s" % (num, name, "pass" if ok else "FAIL", stamp))


def _orthogonals(report):
    doc = report.to_json()
    return next(w["orthogonals"] for w in doc["witnesses"] if "orthogonals" in w)


# ------------------------------------------------------------ criterion 1


def _quadratic_break_oracle(a):
    """Break of Q2(sqrt a)/Q2 from the field discriminant, pure integers."""
    u = a
    while u % 4 == 0:
        u //= 4
    if u % 2 == 0:
        return 2  # odd valuation: v(disc) = 3
    if u % 8 == 5:
        return -1  # unramified
    return 1  # u = 3, 7 mod 8: v(disc) = 2


def _square_class_label(n):
    sign = 1 if n > 0 else -1
    m = abs(n)
    v = 0
    while m % 2 == 0:
        m //= 2
        v += 1
    return (v % 2, (sign * m) % 8)


def _attained_norm_labels(a):
    """Square-class labels of x^2 - a y^2 over x, y in [0, 2^6)."""
    labels = set()
    for x in range(64):
        for y in range(64):
            n = x * x - a * y * y
            if n:
                labels.add(_square_class_label(n))
    return labels


def test_criterion_1_q2_full_suite():
    t0 = time.perf_counter()
    problems = []
    ctx = parse_field(Q2)
    basis = adapted_basis(ctx)

    if basis.dim() != 3 or ctx.dim_mult_classes() != 3:
        problems.append("d != 3")
    profile = dict(filtration_dims(ctx, (0, 3)))
    if not (profile[1] == 1 and profile[2] == 1 and profile[3] == 0):
        problems.append("codims != [1@1, 1@2]: %r" % profile)

    catalog = line_catalog(ctx)
    if len(catalog) != 7:
        problems.append("expected 7 lines, got %d" % len(catalog))
    lib_breaks = Counter(
        ramification_break(attach_extension(entry)) for entry in catalog
    )
    oracle_breaks = Counter(_quadratic_break_oracle(a) for a in Q2_REPS)
    if not (lib_breaks == oracle_breaks == {-1: 1, 1: 2, 2: 4}):
        problems.append("break multiset %r vs oracle %r" % (lib_breaks, oracle_breaks))
    for a in Q2_REPS:
        got = ramification_break(attach_extension(line_of(ctx.from_int(a))))
        if got != _quadratic_break_oracle(a):
            problems.append("break of sqrt(%d): %d" % (a, got))

    rep = verify_claim(ctx, "S8.33")
    orth = _orthogonals(rep)
    chain_ok = rep.status == "pass" and [
        (o["i"], o["expected"], o["dim"]) for o in orth
    ] == [(i, "U_%d" % (3 - i), i) for i in range(4)]
    if not chain_ok:
        problems.append("orthogonality chain U_i -> U_{3-i} failed")

    named = {5: (-1, 5), -1: (2, 5), 2: (-1, 2)}
    for a, gens in named.items():
        sub = _walk_norm_group(attach_extension(line_of(ctx.from_int(a))), None)
        span = rref([coordinates(basis, ctx.from_int(g)) for g in gens])
        if sub != span:
            problems.append("norm group of sqrt(%d) is not <%d, %d>" % (a, *gens))
        attained = _attained_norm_labels(a)
        for n in Q2_REPS + (1,):
            in_sub = n == 1 or member(sub, coordinates(basis, ctx.from_int(n)))
            if (_square_class_label(n) in attained) != in_sub:
                problems.append("norm membership of %d in N(sqrt %d)" % (n, a))

    from lfk.pairings_verifiers import pairs_trivially

    for a in Q2_REPS:
        a_line = line_of(ctx.from_int(a))
        for b in Q2_REPS:
            belt = ctx.from_int(b)
            if (hilbert_symbol_q2(ctx.from_int(a), belt) == 1) != pairs_trivially(
                a_line, belt
            ):
                problems.append("hilbert (%d, %d) disagrees" % (a, b))

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    _report(1, "Q2 full suite", ok, elapsed, 1)
    assert not problems, problems
    assert elapsed < 1.0


# ------------------------------------------------------------ criterion 2


def test_criterion_2_q3_zeta3_suite():
    t0 = time.perf_counter()
    problems = []
    ctx = parse_field(Q3Z)

    if (ctx.e, ctx.c, ctx.pc, ctx.dim_mult_classes()) != (2, 1, 3, 4):
        problems.append("constants e,c,pc,d wrong")
    catalog = line_catalog(ctx)
    if len(catalog) != 40:
        problems.append("expected 40 lines, got %d" % len(catalog))
    if Counter(e.level for e in catalog) != {0: 1, 1: 3, 2: 9, 3: 27}:
        problems.append("level strata wrong")

    breaks = set()
    for entry in catalog:
        eps = ramification_break(attach_extension(entry))
        breaks.add(eps)
        want = entry.level if entry.level > 0 else -1
        if eps != want:
            problems.append("eps != delta on level-%d line" % entry.level)
    if breaks != {-1, 1, 2, 3}:
        problems.append("break set %r" % breaks)

    rep = verify_claim(ctx, "S8.33")
    orth = _orthogonals(rep)
    chain_ok = rep.status == "pass" and [
        (o["i"], o["expected"], o["dim"]) for o in orth
    ] == [(i, "U_%d" % (4 - i), i) for i in range(5)]
    if not chain_ok:
        problems.append("orthogonality chain U_i -> U_{4-i} failed")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30.0
    _report(2, "Q3(zeta3) suite", ok, elapsed, 30)
    assert not problems, problems
    assert elapsed < 30.0


# ------------------------------------------------------------ criterion 3


def test_criterion_3_f2_laurent_window9():
    t0 = time.perf_counter()
    problems = []
    ctx = parse_field(F2T)

    profile = dict(filtration_dims(ctx, (-9, 0), "add"))
    for m in range(1, 10):
        if profile[-m] != (1 if m % 2 else 0):
            problems.append("additive jump at pole order %d wrong" % m)

    for m in (1, 3, 5, 7):
        x = ctx.from_digits([(-m, 1)])
        if ramification_break(attach_extension(line_of(x))) != m:
            problems.append("AS break of t^-%d != %d" % (m, m))

    # seeded Schmid-value vs norm-membership agreement, 200 pairs
    catalog = line_catalog(ctx, 9, seed=3)
    mbasis = adapted_basis(ctx, "mult", 9)
    kelts = [c for c in ctx.k.elements() if not c.is_zero()]
    rng = random.Random(20260814)
    checked = mismatches = 0
    for entry in catalog[:10]:
        sub = _walk_norm_group(attach_extension(entry), 9)
        for _ in range(20):
            pairs = [(0, 1)] + [
                (j, rng.choice(kelts).coords[0]) for j in rng.sample(range(1, 11), 4)
            ]
            b = ctx.from_digits(pairs).mul(ctx.pi().powi(rng.randrange(0, 2)))
            value = pairing_value(entry, b, window=9)
            inside = member(sub, coordinates(mbasis, b))
            checked += 1
            if (value == 0) != inside:
                mismatches += 1
    if checked < 200 or mismatches:
        problems.append("schmid vs norm: %d checked, %d mismatches" % (checked, mismatches))

    rep = verify_claim(ctx, "S8.34", window=9)
    orth = _orthogonals(rep)
    covered = {
        o["i"] for o in orth if o["add_side_pass"] and o["mult_side_pass"]
    }
    if rep.status != "pass" or not covered.issuperset(range(9)):
        problems.append("windowed orthogonality chain failed")
    # the add-side complement at step i: trace line plus poles of order < i
    if [o["add_dim"] for o in sorted(orth, key=lambda o: o["i"])][:9] != [
        0, 1, 2, 2, 3, 3, 4, 4, 5,
    ]:
        problems.append("pole-slice dims wrong")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 10.0
    _report(3, "F2((t)) window-9 suite", ok, elapsed, 10)
    assert not problems, problems
    assert elapsed < 10.0


# ------------------------------------------------------------ criterion 4


def test_criterion_4_f3_laurent_breaks():
    t0 = time.perf_counter()
    problems = []
    ctx = parse_field(F3T)

    profile = dict(filtration_dims(ctx, (-9, 0), "add"))
    for m in range(1, 10):
        if profile[-m] != (0 if m % 3 == 0 else 1):
            problems.append("additive jump at pole order %d wrong" % m)

    breaks = set()
    for entry in line_catalog(ctx, 9, seed=5):
        if entry.level > 0:
            breaks.add(ramification_break(attach_extension(entry)))
    if breaks != {1, 2, 4, 5, 7, 8}:
        problems.append("break set %r != {1,2,4,5,7,8}" % breaks)
    for m in (1, 2, 4, 5, 7, 8):
        x = ctx.from_digits([(-m, 1)])
        if ramification_break(attach_extension(line_of(x))) != m:
            problems.append("AS break of t^-%d != %d" % (m, m))

    elapsed = time.perf_counter() - t0
    ok = not problems
    _report(4, "F3((t)) jumps and breaks", ok, elapsed)
    assert not problems, problems


# ------------------------------------------------------------ criterion 5


def _hensel_pth_power(x):
    """Digit-by-digit p-th root search, independent of the descent code.

    A unit u is a p-th power iff some y with digits below index c+1
    satisfies v(y^p - u) >= pc + 1; partial agreement after fixing digits
    below j must reach min(p*j, e+j).
    """
    ctx = x.ctx
    p = ctx.p
    v = val(x)
    if v % p:
        return False
    u = x.mul(ctx.pi().powi(-int(v)))
    stages = ctx.c + 1
    target = ctx.pc + 1
    cands = [
        ctx.teichmuller(d) for d in ctx.k.elements() if not d.is_zero()
    ]
    cands = [y for y in cands if val(y.powi(p).sub(u)) >= min(p, ctx.e + 1)]
    for j in range(1, stages):
        threshold = min(p * (j + 1), ctx.e + j + 1)
        grown = []
        for y in cands:
            for d in ctx.k.elements():
                y2 = y if d.is_zero() else y.add(ctx.teichmuller(d).shift(j))
                if val(y2.powi(p).sub(u)) >= threshold:
                    grown.append(y2)
        cands = grown
    return any(val(y.powi(p).sub(u)) >= target for y in cands)


def _naive_wp_reduce(ctx, x):
    """Repeated wp-subtraction on a plain coefficient dict.

    Returns (pole digits at prime-to-p orders, constant term, constant in
    wp(k)).  The strictly positive part always lies in wp(t k[[t]]).
    """
    p = ctx.p
    co = dict(x.digits())
    while True:
        deep = [i for i, c in co.items() if i < 0 and i % p == 0 and not c.is_zero()]
        if not deep:
            break
        i = min(deep)
        root = co.pop(i).pth_root()
        m = i // p
        co[m] = co.get(m, ctx.k.zero()).add(root)
        if co[m].is_zero():
            del co[m]
    poles = {-i: c for i, c in co.items() if i < 0}
    const = co.get(0, ctx.k.zero())
    in_wp = any(a.pow(p).sub(a).sub(const).is_zero() for a in ctx.k.elements())
    return poles, const, in_wp


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    problems = []

    # descent vs Hensel search on 200 elements per field
    for fnum, desc in enumerate((Q2, Q2F2, Q3Z)):
        ctx = parse_field(desc)
        kelts = list(ctx.k.elements())
        units = [d for d in kelts if not d.is_zero()]
        rng = random.Random(911 + fnum)
        bad = 0
        for i in range(200):
            pairs = [(0, rng.choice(units))] + [
                (j, rng.choice(kelts)) for j in range(1, ctx.pc + 4)
            ]
            x = ctx.from_digits(pairs).mul(ctx.pi().powi(rng.randrange(0, 4)))
            if i % 2:
                x = x.powi(ctx.p)
            if unit_class_reduce(x).is_trivial() != _hensel_pth_power(x):
                bad += 1
        if bad:
            problems.append("descent vs hensel: %d disagreements on %s" % (bad, desc))

    # as_class_reduce vs naive wp-subtraction on 200 series
    for desc, count, seed in ((F2T, 100, 31), (F3T, 60, 32), (F4T, 40, 33)):
        ctx = parse_field(desc)
        kelts = list(ctx.k.elements())
        rng = random.Random(seed)
        bad = 0
        for _ in range(count):
            pairs = [
                (rng.randrange(-12, 7), rng.choice(kelts))
                for _ in range(rng.randrange(3, 9))
            ]
            merged = {}
            for i, c in pairs:
                merged[i] = merged.get(i, ctx.k.zero()).add(c)
            x = ctx.from_digits(list(merged.items()))
            poles, const, in_wp = _naive_wp_reduce(ctx, x)
            red = as_class_reduce(x)
            red_poles, red_trace = poles_and_trace(red)
            agree = (
                red_poles == poles
                and (red_trace == 0) == in_wp
                and red.is_trivial() == (not poles and in_wp)
            )
            if agree and ctx.f == 1 and not in_wp:
                agree = ctx.k.elt(red_trace).sub(const).is_zero()
            if not agree:
                bad += 1
        if bad:
            problems.append("as_class_reduce vs naive wp: %d disagreements on %s" % (bad, desc))

    elapsed = time.perf_counter() - t0
    ok = not problems
    _report(5, "descent/Hensel and wp oracles", ok, elapsed)
    assert not problems, problems


# ------------------------------------------------------------ criterion 6


def test_criterion_6_prime_to_p_index_formula():
    t0 = time.perf_counter()
    problems = []
    for p in (2, 3, 5, 7):
        enumerated = [n for n in range(1, 4000) if n % p][:1000]
        for i in range(1, 1001):
            if bp_index(p, i) != enumerated[i - 1]:
                problems.append("bp_index(%d, %d)" % (p, i))
                break
    for desc in (Q2, Q2F2, Q3Z, Q2E3):
        ctx = parse_field(desc)
        if not (ctx.pc == ctx.e + ctx.c == bp_index(ctx.p, ctx.e) + 1):
            problems.append("pc identity fails on %s" % desc)
    elapsed = time.perf_counter() - t0
    ok = not problems
    _report(6, "prime-to-p index formula", ok, elapsed)
    assert not problems, problems


# ------------------------------------------------------------ criterion 7


def test_criterion_7_verify_all_determinism():
    t0 = time.perf_counter()
    problems = []
    for desc, window in ((Q2, None), (F2T, 5)):
        runs = []
        for _ in range(2):
            ctx = parse_field(desc)  # fresh context: no shared caches
            reports = verify_all(ctx, window=window, seed=13)
            runs.append(json.dumps([r.to_json() for r in reports], indent=2))
        if runs[0] != runs[1]:
            problems.append("verify all not byte-identical on %s" % desc)
        if not runs[0]:
            problems.append("empty report on %s" % desc)
    elapsed = time.perf_counter() - t0
    ok = not problems
    _report(7, "verify-all byte determinism", ok, elapsed)
    assert not problems, problems


# ------------------------------------------------------------ recorded reports

# The eight benchmark fields, keyed as in perfbench/expected/reports-seed0.json.
RECORDED_FIELDS = (
    ("Q2", "Qp p=2 f=1", None),
    ("Q2f2", "Qp p=2 f=2", None),
    ("Q3e2", "Qp p=3 f=1 eis=3,3,1", None),
    ("Q2e3", "Qp p=2 f=1 eis=-2,0,0,1", None),
    ("Q3f2e2", "Qp p=3 f=2 eis=3,3,1", None),
    ("F2t", "Fq((t)) p=2 f=1", 9),
    ("F3t", "Fq((t)) p=3 f=1", 6),
    ("F4t", "Fq((t)) p=2 f=2", 5),
)


def test_verify_all_matches_recorded_digests():
    """Seed-0 `verify all` reports are byte-identical to the recorded ones.

    Each digest is the sha256 of the bytes `lfk verify --out` writes; the
    recorded file is only read here.
    """
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "expected", "reports-seed0.json")
    with open(path, encoding="utf-8") as fh:
        recorded = json.load(fh)
    seen = set()
    for slug, desc, window in RECORDED_FIELDS:
        for rep in verify_all(parse_field(desc), window=window, seed=0):
            key = "%s/%s" % (slug, rep.claim_id)
            assert _digest(rep) == recorded[key], key
            seen.add(key)
    assert seen == set(recorded)


def _digest(report):
    """sha256 of the bytes `lfk verify --out` writes for one report."""
    text = json.dumps(report.to_json(), indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_seed0_query_stream_answers_are_recorded_and_build_one_extension_per_line(monkeypatch):
    """The benchmark's seed-0 query stream, answered as the CLI would answer
    it, gives the recorded answers and builds one extension per line: 114,
    where one per break and norm-group query built 369."""
    perfbench = os.path.join(os.path.dirname(__file__), "..", "perfbench")
    monkeypatch.syspath_prepend(perfbench)
    import lfk
    from lfk.extensions import DegreePExtension
    from queries import Fields, answer
    from workloads import QUERY_FIELDS, query_stream

    with open(os.path.join(perfbench, "expected", "answers-seed0.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    built = []
    init = DegreePExtension.__init__
    monkeypatch.setattr(DegreePExtension, "__init__", lambda E, line: built.append(line) or init(E, line))
    fields = Fields(lfk, QUERY_FIELDS)
    fields.build_bases()
    assert [answer(fields, q) for q in query_stream(0)] == recorded
    assert len(built) == 114


# Seed-0 `verify all` digests on Q5(zeta5), which no benchmark workload
# runs, recorded before S7.31 shared its perturbed products across lines.
Q5_ZETA5_DIGESTS = {
    "S2.10": "0d18363f8403b9a458dac4395cd1d15eeb560e7a96557d70de9fa251b38384c1",
    "S4.22": "81fef306754106bc3b012b39793a14928034ab436e0913d6c24390302f268844",
    "S5.27": "88d668f39f8fdc1653f3240e37c7114ae8cdf195ab4f2841238a3f8f1b0c95b2",
    "S6.29": "fa68fba079d41e5b54c3e10146ee28ba48f12160dd1384a8d17ca8a3d1e0c44e",
    "S7.31": "09b9ff0d845746a4cb5316b4a04581de792d1e55b5f53f815a403e121b5870ea",
    "S8.33": "8cbe186a6cbf60c497a7b76f99ffa2b8b2375b64e0794fd1d9c4a39cf584f83b",
}


def test_q5_zeta5_verify_all_matches_recorded_digests():
    # 3906 lines; about 1 s
    reports = verify_all(parse_field("Qp p=5 f=1 eis=5,10,10,5,1"), seed=0)
    assert {rep.claim_id: _digest(rep) for rep in reports} == Q5_ZETA5_DIGESTS


# Seed-0 `verify all` digests on three more char-0 fields no benchmark
# workload runs, recorded before the Steinberg system took the equations
# of each draw's whole anharmonic orbit and S7.31 read a perturbed product
# as coords(b) + coords(u).  At p = 2, -1 is not a square, so its
# coordinates c enter three of the six orbit points.
UNBENCHED_DIGESTS = {
    "Qp p=2 f=3": {
        "S2.10": "de5f6fae9f005850dd69f10e5d7c9c2d8ad12d59e2cfe2656b8ad41b2bd15c4e",
        "S4.22": "d051b29396c42b8031534f00ec5fd9b49d775c3c6b9b7f89fdf8cb82294b53a1",
        "S5.27": "481616b12b395825577b64a34b9d3303131a73250d2c42d57a483e476671cb3c",
        "S6.29": "b548e5d6e322f8dea9050bc8d15118562dbae9d4f7264e1144819e5151a6a756",
        "S7.31": "432bd26a4c42bcc59d0dd76b7c080d7aae8e03605331c7c0d911c8e25ea94d9b",
        "S8.33": "4979a2392445a655c171665447501bbf2d38caabf824d1a5dd8e9239d7ce5995",
    },
    "Qp p=2 f=4": {
        "S2.10": "de48b3804380b4b8de8891af9eaee29dd5bc3ca3a7df869074bd7678470098d8",
        "S4.22": "869f73f2a5802638a112299ae26075dea8c093e6764dcf6e6f74049bb3355105",
        "S5.27": "1d6f3022c0f9bfb858ce59d6c6d7e5c33e52325693033bc4fccc6deb792b04ed",
        "S6.29": "cf8a18c039025d6e12d8396efbfb31ba74311d9d85bb57ab64ad98ec0932a4d9",
        "S7.31": "7a74157538fe57c42350c62b38f9e3f11a0f4a773ae763092db7860eb5657b04",
        "S8.33": "7c83be409f7e48806cf3875d87c24482b570a59ab50e5914e70fd38a41aa9a0e",
    },
    "Qp p=3 f=4 eis=3,3,1": {
        "S2.10": "8097d4d4f5e856dbe22e0cf44a79b8b900c0a1422a734e2a54ceabe8b81fb1e2",
        "S4.22": "b72c059803b6f4f08409075f6497c9df2087fcdaf6d456034431b1124e01258e",
        "S5.27": "d517e1c1b7bae3e10dcf0746f42b95d21d67be920fe9f0b1da2119d8769539ca",
        "S6.29": "9921af152cec5bc536d441a86ca970048e39916f5579df162842da70fa5ca9ce",
        "S7.31": "8572e2170a8bfd6544d42f246767b5b6b36bb4a60fc8c0d8288e2c54a4828414",
        "S8.33": "d2402d73106980bf875873965079a2d89106bb9b21bdd898fd20540054e00b86",
    },
}


@pytest.mark.parametrize(
    "desc",
    # well under 1 s each at p = 2; d = 10 at p = 3, f = 4 takes about 3 s
    ["Qp p=2 f=3", "Qp p=2 f=4", pytest.param("Qp p=3 f=4 eis=3,3,1", marks=pytest.mark.slow)],
)
def test_unbenched_char0_verify_all_matches_recorded_digests(desc):
    reports = verify_all(parse_field(desc), seed=0)
    assert {rep.claim_id: _digest(rep) for rep in reports} == UNBENCHED_DIGESTS[desc]
