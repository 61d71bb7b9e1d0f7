"""The benchmark's metric catalogue.

END_TO_END and PER_LAYER are what BENCHMARK.json lists (the tests keep
the two in step).  Every per-layer entry names, in "moves", the
end-to-end metric and the workload a change to that layer should move,
written down before any optimisation so that a performance change can
state beforehand which number should change and which should not.

The end-to-end metrics apply to every workload.  A pass is the
workload's whole set of operations; the latency percentiles are over
user commands: one `verify all` on one field in the verify workloads,
one `compute` query in query-mix, each command's latency being the
median of its timings in the run.  So
  verify_s     = pass_s on verify-char0 and verify-charp,
  query_per_s  = queries in a pass / pass_s on query-mix,
  query_p50_ms = latency_p50_ms and query_p99_ms = latency_p99_ms on query-mix.
The verify workloads run 3 or 5 commands a pass, so there latency_p99_ms
is (about) the slowest field and latency_p50_ms the middle one.
"""

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# Names the human-readable summary prints in the words of the workload.
NAMED = {
    "verify_s": "s",
    "query_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "error_rate": "ratio",
}

_CHAR0 = "pass_s on verify-char0"
_CHARP = "pass_s on verify-charp"
_QMIX = "query-mix"

# (name, unit, better, moves)
_LAYER_ROWS = [
    # residues: counters and kernel timings only
    ("residues.mul_us.q4", "us", "lower", _CHARP + " (F4t) and pass_s on " + _QMIX + "; flat on verify-char0"),
    ("residues.mul_us.q9", "us", "lower", _CHARP + " and pass_s on " + _QMIX + "; flat on verify-char0"),
    ("residues.inv_us.q4", "us", "lower", _CHARP + " (F4t); flat on verify-char0"),
    ("residues.inv_us.q9", "us", "lower", _CHARP + "; flat on verify-char0"),
    ("residues.mul_calls", "count", "lower", _CHARP + " and pass_s on " + _QMIX + "; near 0 on verify-char0"),
    # local_arith
    ("local_arith.zq_mul_us.Q2e3", "us", "lower", _CHAR0 + "; flat on verify-charp"),
    ("local_arith.zq_mul_us.Q3f2e2", "us", "lower", _CHAR0 + " and latency_p99_ms on " + _QMIX),
    ("local_arith.zq_inv_us.Q2e3", "us", "lower", _CHAR0 + "; flat on verify-charp"),
    ("local_arith.zq_inv_us.Q3f2e2", "us", "lower", _CHAR0),
    ("local_arith.laurent_mul_us.F3t", "us", "lower", _CHARP + "; flat on verify-char0"),
    ("local_arith.laurent_mul_us.F4t", "us", "lower", _CHARP + " and latency_p99_ms on " + _QMIX),
    ("local_arith.laurent_inv_us.F3t", "us", "lower", _CHARP + "; flat on verify-char0"),
    ("local_arith.laurent_inv_us.F4t", "us", "lower", _CHARP + " and latency_p99_ms on " + _QMIX),
    ("local_arith.parse_element_us.char0", "us", "lower", "latency_p50_ms on " + _QMIX),
    ("local_arith.parse_element_us.charp", "us", "lower", "latency_p50_ms on " + _QMIX),
    ("local_arith.zq_mul_calls", "count", "lower", _CHAR0 + "; 0 on verify-charp"),
    ("local_arith.laurent_mul_calls", "count", "lower", _CHARP + "; 0 on verify-char0"),
    ("local_arith.laurent_inv_calls", "count", "lower", _CHARP + "; 0 on verify-char0"),
    ("local_arith.laurent_new_calls", "count", "lower", _CHARP + "; 0 on verify-char0"),
    ("local_arith.self_ms", "ms", "lower", "pass_s on both verify workloads (includes residue-field time)"),
    # fp_linalg
    ("fp_linalg.rref_us", "us", "lower", "predicted a small share everywhere; confirms it is not a bottleneck"),
    ("fp_linalg.member_us", "us", "lower", "predicted a small share everywhere; confirms it is not a bottleneck"),
    ("fp_linalg.calls", "count", "lower", "predicted a small share everywhere"),
    ("fp_linalg.self_ms", "ms", "lower", "predicted a small share of pass_s on every workload"),
    # class_spaces
    ("class_spaces.adapted_basis_ms.Q3f2e2", "ms", "lower", _CHAR0 + " and setup_s on " + _QMIX + "; not its pass_s"),
    ("class_spaces.adapted_basis_ms.F3t", "ms", "lower", _CHARP),
    ("class_spaces.adapted_basis_ms.F4t", "ms", "lower", _CHARP + " and setup_s on " + _QMIX + "; not its pass_s"),
    ("class_spaces.basis_reduce_calls", "count", "lower", "pass_s on both verify workloads and setup_s on " + _QMIX),
    ("class_spaces.coordinates_us.Q3f2e2", "us", "lower", "pass_s and latency_p50_ms on " + _QMIX),
    ("class_spaces.coordinates_us.F4t", "us", "lower", "pass_s and latency_p50_ms on " + _QMIX),
    ("class_spaces.reduce_calls", "count", "lower", "pass_s and latency_p50_ms on " + _QMIX),
    ("class_spaces.self_ms", "ms", "lower", "pass_s on all workloads"),
    # extensions
    ("extensions.attach_ms.Q3f2e2", "ms", "lower", _CHAR0 + " (S4.22, S6.29) and latency_p99_ms on " + _QMIX),
    ("extensions.attach_ms.F4t", "ms", "lower", _CHARP + " and latency_p99_ms on " + _QMIX),
    ("extensions.norm_us.Q3f2e2", "us", "lower", _CHAR0 + " (S6.29) and latency_p99_ms on " + _QMIX),
    ("extensions.norm_us.F4t", "us", "lower", _CHARP + " and latency_p99_ms on " + _QMIX),
    ("extensions.norm_calls", "count", "lower", _CHAR0 + " and latency_p99_ms on " + _QMIX),
    ("extensions.attach_calls", "count", "lower", _CHAR0 + " and latency_p99_ms on " + _QMIX),
    ("extensions.self_ms", "ms", "lower", _CHAR0 + " and latency_p99_ms on " + _QMIX),
    # pairings_verifiers: claim times are charged in claims_for order (shared
    # per-field caches charge their work to the first claim that needs it)
    ("pairings_verifiers.claim_s.S2.10-S3.16", "s", "lower", "pass_s on the verify workloads"),
    ("pairings_verifiers.claim_s.S4.22", "s", "lower", "pass_s on the verify workloads"),
    ("pairings_verifiers.claim_s.S5.27-S5.28", "s", "lower", "pass_s on the verify workloads"),
    ("pairings_verifiers.claim_s.S6.29", "s", "lower", "pass_s on the verify workloads"),
    ("pairings_verifiers.claim_s.S7.31", "s", "lower", "pass_s on the verify workloads"),
    ("pairings_verifiers.claim_s.S8.33-S8.34", "s", "lower", "pass_s on the verify workloads"),
    ("pairings_verifiers.norm_class_subgroup_calls", "count", "lower", "pass_s on all workloads"),
    ("pairings_verifiers.norm_class_subgroup_ms", "ms", "lower", "pass_s on all workloads; latency_p99_ms on " + _QMIX),
    ("pairings_verifiers.self_ms", "ms", "lower", "pass_s on the verify workloads"),
    # cli and the query kinds
    ("cli.import_ms", "ms", "lower", "setup_s on every workload"),
    ("cli.verify_json_ms.Q2", "ms", "lower", "pass_s on verify-char0 (CLI layer only, library time excluded)"),
]
_LAYER_ROWS += [
    ("query.%s.%s_p50_ms" % (kind, char), "ms", "lower", "latency_p50_ms on " + _QMIX)
    for kind in ("class", "level", "break", "pair", "norm-group")
    for char in ("char0", "charp")
]
_LAYER_ROWS += [
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced wall time of the same pass"),
]

PER_LAYER = [{"name": n, "unit": u, "better": b} for n, u, b, _ in _LAYER_ROWS]
MOVES = {n: m for n, _, _, m in _LAYER_ROWS}

CLAIM_GROUPS = {
    "S2.10": "S2.10-S3.16",
    "S3.16": "S2.10-S3.16",
    "S4.22": "S4.22",
    "S5.27": "S5.27-S5.28",
    "S5.28": "S5.27-S5.28",
    "S6.29": "S6.29",
    "S7.31": "S7.31",
    "S8.33": "S8.33-S8.34",
    "S8.34": "S8.33-S8.34",
}

_REDUCERS = ("unit_class_reduce", "windowed_unit_reduce", "as_class_reduce")


def layer_values(counts, self_s, inclusive_s, claim_s, import_s):
    """Per-layer metrics of a traced pass from the tracer's aggregates."""
    c = lambda name: counts.get(name, 0)
    out = {
        "residues.mul_calls": c("residues.ResidueElement.mul"),
        "local_arith.zq_mul_calls": c("local_arith.ZqElement.mul"),
        "local_arith.laurent_mul_calls": c("local_arith.LaurentElement.mul"),
        "local_arith.laurent_inv_calls": c("local_arith.LaurentElement.inv"),
        "local_arith.laurent_new_calls": c("local_arith.LaurentElement.__init__"),
        "fp_linalg.calls": sum(v for k, v in counts.items() if k.startswith("fp_linalg.")),
        "class_spaces.basis_reduce_calls": c("class_spaces.basis_reduce"),
        "class_spaces.reduce_calls": sum(c("class_spaces." + r) for r in _REDUCERS),
        "extensions.norm_calls": c("extensions.DegreePExtension.norm"),
        "extensions.attach_calls": c("extensions.attach_extension"),
        "pairings_verifiers.norm_class_subgroup_calls": c("pairings_verifiers.norm_class_subgroup"),
        "pairings_verifiers.norm_class_subgroup_ms": inclusive_s.get(
            "pairings_verifiers.norm_class_subgroup", 0.0
        )
        * 1e3,
        "cli.import_ms": import_s * 1e3,
    }
    for layer in ("local_arith", "fp_linalg", "class_spaces", "extensions", "pairings_verifiers"):
        out[layer + ".self_ms"] = self_s.get(layer, 0.0) * 1e3
    for group in set(CLAIM_GROUPS.values()):
        out["pairings_verifiers.claim_s." + group] = 0.0
    for cid, seconds in claim_s.items():
        out["pairings_verifiers.claim_s." + CLAIM_GROUPS[cid]] += seconds
    return out
