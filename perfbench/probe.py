"""Layer probes: kernel microbenchmarks and single-layer timings.

Every operand comes from a fixed seed (not the workload seed), so these
numbers compare across runs and commits.  Laurent operations run at the
library's default 64 relative digits.  Timings are taken untraced,
except the CLI probe, whose metric is the CLI layer's self time, and the
Q2 claim times that stand in for claim times on query-mix.
"""

import contextlib
import io
import random
import statistics
import time

from queries import Fields, answer
from workloads import KINDS, QUERY_FIELDS, query_stream

_SEED = 20160904
_clock = time.perf_counter


def per_op_us(fn, operands, repeats=3):
    """Median over `repeats` of the mean µs per call of fn over operands."""
    for args in operands[:3]:
        fn(*args)
    best = []
    for _ in range(repeats):
        t0 = _clock()
        for args in operands:
            fn(*args)
        best.append((_clock() - t0) / len(operands) * 1e6)
    return statistics.median(best)


def _residue_ops(lfk_residues, p, f, rng, n=2000):
    k = lfk_residues.ResidueField(p, f)
    elts = [k.elt([rng.randrange(p) for _ in range(f)]) for _ in range(n)]
    nonzero = [x for x in elts if not x.is_zero()]
    pairs = list(zip(elts, reversed(elts)))
    return (
        per_op_us(lambda a, b: a.mul(b), pairs),
        per_op_us(lambda a: a.inv(), [(x,) for x in nonzero]),
    )


def _dense_unit(lfk, ctx, rng, gen):
    """The inverse of a short random unit: dense digits to full precision."""
    terms = ["1"] + [
        "%d*%s^%d" % (rng.randrange(1, ctx.p), gen, rng.randint(1, 6)) for _ in range(3)
    ]
    return lfk.parse_element(ctx, "+".join(terms)).inv()


def kernels(lfk, out):
    """µs/op for residue, Zq, Laurent, parsing and F_p linear algebra kernels."""
    from lfk import fp_linalg, residues

    rng = random.Random(_SEED)
    for label, p, f in (("q4", 2, 2), ("q9", 3, 2)):
        mul, inv = _residue_ops(residues, p, f, rng)
        out["residues.mul_us." + label] = mul
        out["residues.inv_us." + label] = inv

    for label, desc in (("Q2e3", "Qp p=2 f=1 eis=-2,0,0,1"), ("Q3f2e2", "Qp p=3 f=2 eis=3,3,1")):
        ctx = lfk.parse_field(desc)
        units = [_dense_unit(lfk, ctx, rng, "pi") for _ in range(40)]
        pairs = list(zip(units, reversed(units)))
        out["local_arith.zq_mul_us." + label] = per_op_us(lambda a, b: a.mul(b), pairs * 5)
        out["local_arith.zq_inv_us." + label] = per_op_us(lambda a: a.inv(), [(u,) for u in units])

    for label, desc in (("F3t", "Fq((t)) p=3 f=1"), ("F4t", "Fq((t)) p=2 f=2")):
        ctx = lfk.parse_field(desc)
        units = [_dense_unit(lfk, ctx, rng, "t") for _ in range(8)]
        short = [
            lfk.parse_element(ctx, "1+%d*t^%d+t^%d" % (rng.randrange(1, ctx.p), rng.randint(1, 4), rng.randint(5, 9)))
            for _ in range(8)
        ]
        pairs = list(zip(units, reversed(units)))
        out["local_arith.laurent_mul_us." + label] = per_op_us(lambda a, b: a.mul(b), pairs)
        out["local_arith.laurent_inv_us." + label] = per_op_us(lambda a: a.inv(), [(u,) for u in short])

    stream = query_stream(_SEED, 400)
    for label, slug in (("char0", "Q3f2e2"), ("charp", "F4t")):
        desc = next(d for d, _, s in QUERY_FIELDS if s == slug)
        ctx = lfk.parse_field(desc)
        texts = [(ctx, q.get("elt") or q.get("add") or q["mult"]) for q in stream if q["field"] == slug]
        out["local_arith.parse_element_us." + label] = per_op_us(lfk.parse_element, texts)

    p, n = 3, 8
    rows = [fp_linalg.FpVector(p, [rng.randrange(p) for _ in range(n)]) for _ in range(n * 20)]
    mats = [(rows[i : i + n],) for i in range(0, len(rows), n)]
    out["fp_linalg.rref_us"] = per_op_us(lfk.rref, mats)
    spaces = [fp_linalg.rref(rows[i : i + n - 2]) for i in range(0, len(rows), n)]
    out["fp_linalg.member_us"] = per_op_us(
        lfk.member, [(s, v) for s, v in zip(spaces * 4, rows)]
    )


def layers(lfk, out):
    """Basis builds, coordinates, extensions and per-kind query latency."""
    rng = random.Random(_SEED + 1)
    specs = {
        "Q3f2e2": ("Qp p=3 f=2 eis=3,3,1", None),
        "F3t": ("Fq((t)) p=3 f=1", 6),
        "F4t": ("Fq((t)) p=2 f=2", 5),
    }
    ctxs = {}
    for label, (desc, window) in specs.items():
        ctx = lfk.parse_field(desc)
        t0 = _clock()
        if window is None:
            lfk.adapted_basis(ctx)
        else:
            lfk.adapted_basis(ctx, "mult", window)
        out["class_spaces.adapted_basis_ms." + label] = (_clock() - t0) * 1e3
        ctxs[label] = ctx

    for label, gen, unit in (("Q3f2e2", "pi", "w"), ("F4t", "t", "g")):
        ctx = ctxs[label]
        window = specs[label][1]
        basis = lfk.adapted_basis(ctx) if window is None else lfk.adapted_basis(ctx, "mult", window)
        elts = []
        for _ in range(60):
            terms = ["1"] + [
                "%s*%s^%d" % (unit, gen, rng.randint(1, 6)) for _ in range(rng.randint(1, 3))
            ]
            elts.append(lfk.parse_element(ctx, "+".join(terms)))
        out["class_spaces.coordinates_us." + label] = per_op_us(
            lfk.coordinates, [(basis, x) for x in elts], repeats=1
        )
        if window is None:
            sources = elts
        else:
            sources = [
                lfk.parse_element(ctx, "%s*t^-%d+t^-%d" % (unit, rng.choice((3, 5)), rng.randint(1, 2)))
                for _ in range(24)
            ]
        lines = []
        for x in sources:
            try:
                lines.append(lfk.line_of(x))
            except lfk.DomainError:
                continue
            if len(lines) == 12:
                break
        exts = []
        t0 = _clock()
        for line in lines:
            exts.append(lfk.attach_extension(line))
        out["extensions.attach_ms." + label] = (_clock() - t0) / len(lines) * 1e3
        zs = []
        for E in exts:
            a = E.embed(lfk.parse_element(ctx, "1+%s^2" % gen))
            b = E.embed(lfk.parse_element(ctx, "%s+%s" % (unit, gen)))
            zs.append((E, a.add(E.gen().mul(b))))
        out["extensions.norm_us." + label] = per_op_us(lambda E, z: E.norm(z), zs, repeats=1)

    fields = Fields(lfk, QUERY_FIELDS)
    fields.build_bases()
    lat = {}
    for q in query_stream(_SEED, 200):
        t0 = _clock()
        answer(fields, q)
        lat.setdefault((q["kind"], q["field"]), []).append((_clock() - t0) * 1e3)
    for kind in KINDS:
        for label, slug in (("char0", "Q3f2e2"), ("charp", "F4t")):
            out["query.%s.%s_p50_ms" % (kind, label)] = statistics.median(lat[(kind, slug)])


def cli_verify(lfk, tracer, out, runs=5):
    """CLI self time of `lfk verify all --format json` on Q2 (library calls excluded)."""
    from lfk import cli

    cli_ms = []
    for _ in range(runs):
        before = tracer.self_s["cli"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--field", "Qp p=2 f=1", "all", "--format", "json"])
        if code != 0:
            raise RuntimeError("lfk verify on Q2 exited %d" % code)
        cli_ms.append((tracer.self_s["cli"] - before) * 1e3)
    out["cli.verify_json_ms.Q2"] = statistics.median(cli_ms)


def q2_claims(lfk, tracer, runs=5):
    """Median traced seconds per claim of `verify all` on a fresh Q2, in claims_for order."""
    times = {}
    for _ in range(runs):
        ctx = lfk.parse_field("Qp p=2 f=1")
        for cid in lfk.claims_for(ctx):
            with tracer.span("claim " + cid, "Q2/" + cid) as root:
                lfk.verify_claim(ctx, cid)
            times.setdefault(cid, []).append(root.seconds)
    return {cid: statistics.median(v) for cid, v in times.items()}
