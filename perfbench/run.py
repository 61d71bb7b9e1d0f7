"""The lfk benchmark.

    python3 perfbench/run.py --workload verify-char0 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Workloads (see BENCHMARK.json and perfbench/README.md):
  verify-char0  cold `verify all` on five Qp fields, one fresh process per field
  verify-charp  cold `verify all` on three Fq((t)) fields, one fresh process per field
  query-mix     one closed-loop caller issuing the five `compute` kinds against
                two fields whose bases are built in set-up

Each workload is a closed loop with one caller.  Every output is checked:
every claim must pass and its report bytes must not change between passes
(with committed digests for the default seed), and every query answer must
match the committed answers (default seed) or pass seed-independent
invariants (any seed) and repeat exactly in every episode.

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics; with --trace 1 it carries the per-layer metrics
of a separate traced run.  `--workload all` runs every workload untraced
and prints a table of the named metrics instead.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    STREAM_LENGTH,
    VERIFY_FIELDS,
    WORKLOADS,
)

EXPECTED = os.path.join(HERE, "expected")
OUT = os.path.join(HERE, "out")
_clock = time.perf_counter
# Fewest set-up samples behind a reported setup_s (runs top up with
# set-up-only processes), and fewest query-mix episodes in a run.
SETUP_SAMPLES = 5
EPISODES = 3
# Verify workloads re-time each field that takes under SHORT_FIELD of
# --seconds after every pass, and then until it has FIELD_SAMPLES timings.
FIELD_SAMPLES = 7
SHORT_FIELD = 0.1
WORKER_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def run_worker(job):
    """Run one job in a fresh interpreter and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError(
            "worker %s exited %d:\n%s" % (job["job"], proc.returncode, proc.stderr[-2000:])
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct):
    """Interpolated percentile; never outside the sample range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def load_expected(name):
    with open(os.path.join(EXPECTED, name), encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ verify


class VerifyRun:
    """Passes of cold `verify all` over a workload's fields, and their checks."""

    def __init__(self, workload, seed, expected_digests=None):
        self.workload = workload
        self.fields = VERIFY_FIELDS[workload]
        self.seed = seed
        self.expected = expected_digests
        self.first_digest = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.peak_kb = 0

    def check(self, slug, rows):
        """Each claim is one operation; it fails on any check."""
        for row in rows:
            self.attempted += 1
            key = "%s/%s" % (slug, row["id"])
            if row["status"] != "pass":
                problem = row["status"]
            elif self.first_digest.setdefault(key, row["digest"]) != row["digest"]:
                problem = "report bytes changed between passes"
            elif self.expected is not None and self.expected.get(key) != row["digest"]:
                problem = "report digest differs from the committed one"
            else:
                continue
            self.failed += 1
            self.failures.append("%s: %s" % (key, problem))

    def one_field(self, desc, window, slug, trace=False):
        """`verify all` on one field in a fresh process; returns the worker result."""
        job = {"job": "verify", "field": desc, "window": window, "seed": self.seed, "slug": slug}
        if trace:
            os.makedirs(OUT, exist_ok=True)
            job["trace"] = True
            job["spans"] = os.path.join(OUT, "spans-%s-%s-seed%d.json" % (self.workload, slug, self.seed))
        res = run_worker(job)
        self.peak_kb = max(self.peak_kb, res["maxrss_kb"])
        self.check(slug, res["claims"])
        res["verify_s"] = sum(row["seconds"] for row in res["claims"])
        return res

    def one_pass(self, trace=False):
        """Verify every field once; returns (setup seconds, verify seconds, results)."""
        setup = verify = 0.0
        results = []
        for desc, window, slug in self.fields:
            res = self.one_field(desc, window, slug, trace)
            setup += res["import_s"] + res["parse_s"]
            verify += res["verify_s"]
            results.append((slug, res))
        return setup, verify, results


def setup_only(fields):
    """Set-up seconds of a pass that imports lfk and parses each field, nothing more."""
    total = 0.0
    for desc, _, _ in fields:
        res = run_worker({"job": "setup", "field": desc})
        total += res["import_s"] + res["parse_s"]
    return total


def query_setup_only(seed):
    """Set-up seconds of a query-mix episode with an empty stream."""
    res = run_worker({"job": "queries", "seed": seed, "length": 0, "check": False})
    return res["import_s"] + res["parse_s"] + res["bases_s"]


def measure_verify(workload, seed, seconds, expected):
    run = VerifyRun(workload, seed, expected)
    setups, passes = [], []
    field_ms = {slug: [] for _, _, slug in run.fields}
    short = None

    def time_short():
        for desc, window, slug in short:
            field_ms[slug].append(run.one_field(desc, window, slug)["verify_s"] * 1e3)

    start = _clock()
    while True:
        t0 = _clock()
        setup, verify, results = run.one_pass()
        setups.append(setup)
        passes.append(verify)
        for slug, res in results:
            field_ms[slug].append(res["verify_s"] * 1e3)
        if short is None:
            short = [f for f in run.fields if field_ms[f[2]][0] < seconds * 1e3 * SHORT_FIELD]
        # a short field's timings are the noisiest: take more of them,
        # spread over the whole run
        time_short()
        elapsed = _clock() - start
        if elapsed + (_clock() - t0) > seconds:
            break
    while short and len(field_ms[short[0][2]]) < FIELD_SAMPLES:
        time_short()
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_only(run.fields))
    commands = [statistics.median(v) for v in field_ms.values()]
    sample = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(passes),
        "latency_p50_ms": statistics.median(commands),
        "latency_p99_ms": percentile(commands, 99),
    }
    info = {
        "passes": len(passes),
        "field_timings": sum(len(v) for v in field_ms.values()),
        "setup_samples": len(setups),
        "verify_s": sample["pass_s"],
    }
    return run, sample, info


# ------------------------------------------------------------------ queries


class QueryRun:
    """Episodes of the query stream in fresh processes, and their checks."""

    def __init__(self, seed, expected_answers=None):
        self.seed = seed
        self.expected = expected_answers
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.peak_kb = 0

    def episode(self, check=True, trace=False):
        """One fresh process: set-up and the whole stream.

        With `check` every answer is also checked against the invariants,
        after the stream.
        """
        job = {"job": "queries", "seed": self.seed, "length": STREAM_LENGTH, "check": check}
        if trace:
            os.makedirs(OUT, exist_ok=True)
            job["trace"] = True
            job["spans"] = os.path.join(OUT, "spans-query-mix-seed%d.json" % self.seed)
        res = run_worker(job)
        self.peak_kb = max(self.peak_kb, res["maxrss_kb"])
        answers = res["answers"]
        problems = {i: [] for i in range(len(answers))}
        for i, msg in res["problems"]:
            problems[i].append(msg)
        for i, got in enumerate(answers):
            if got.startswith("exception"):
                problems[i].append(got)
            elif self.expected is not None and self.expected[i] != got:
                problems[i].append("%r, committed answer %r" % (got, self.expected[i]))
            elif self.first is not None and self.first[i] != got:
                problems[i].append("%r, first episode said %r" % (got, self.first[i]))
        if self.first is None:
            self.first = answers
        self.attempted += len(answers)
        for i, msgs in problems.items():
            if msgs:
                self.failed += 1
                self.failures.append("query %d: %s" % (i, "; ".join(msgs)))
        return res


def measure_queries(seed, seconds, expected):
    run = QueryRun(seed, expected)
    setups, streams = [], []
    latency = [[] for _ in range(STREAM_LENGTH)]
    start = _clock()
    while True:
        t0 = _clock()
        # the first episode checks every answer against the invariants;
        # the later ones must repeat its answers
        res = run.episode(check=not streams)
        setups.append(res["import_s"] + res["parse_s"] + res["bases_s"])
        streams.append(res["stream_s"])
        for timings, x in zip(latency, res["latency_s"]):
            timings.append(x * 1e3)
        elapsed = _clock() - start
        if len(streams) >= EPISODES and elapsed + (_clock() - t0) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(query_setup_only(seed))
    commands = [statistics.median(v) for v in latency]
    sample = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(streams),
        "latency_p50_ms": statistics.median(commands),
        "latency_p99_ms": percentile(commands, 99),
    }
    info = {
        "episodes": len(streams),
        "queries_timed": len(commands) * len(streams),
        "setup_samples": len(setups),
        "query_per_s": STREAM_LENGTH / sample["pass_s"],
        "query_p50_ms": sample["latency_p50_ms"],
        "query_p99_ms": sample["latency_p99_ms"],
    }
    return run, sample, info


# ------------------------------------------------------------------ traced run


def _add(acc, src):
    for k, v in src.items():
        acc[k] = acc.get(k, 0) + v


def traced_run(workload, seed, expected):
    """One untraced pass, one traced pass of the same inputs, then the probes."""
    counts, self_s, inclusive_s, claim_s = {}, {}, {}, {}
    if workload == "query-mix":
        run = QueryRun(seed, expected)
        plain = run.episode()
        res = run.episode(check=False, trace=True)
        overhead = res["stream_s"] / plain["stream_s"]
        traced = [("query-mix", res)]
        imports = [plain["import_s"], res["import_s"]]
    else:
        run = VerifyRun(workload, seed, expected)
        _, plain_s, plain = run.one_pass()
        _, traced_s, traced = run.one_pass(trace=True)
        overhead = traced_s / plain_s
        imports = [res["import_s"] for _, res in plain + traced]
        for _, res in traced:
            for row in res["claims"]:
                _add(claim_s, {row["id"]: row["seconds"]})
    for _, res in traced:
        _add(counts, res["trace"]["counts"])
        _add(self_s, res["trace"]["self_s"])
        _add(inclusive_s, res["trace"]["inclusive_s"])
    probe = run_worker({"job": "probe"})
    imports.append(probe["import_s"])
    values = dict(probe["metrics"])
    values.update(
        metrics.layer_values(
            counts, self_s, inclusive_s, claim_s or probe["q2_claims"], statistics.median(imports)
        )
    )
    values["trace.overhead_ratio"] = overhead
    return run, values


# ------------------------------------------------------------------ output


def metadata():
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    lines = 0
    src = os.path.join(ROOT, "src", "lfk")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "git_revision": rev,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": lines,
    }


def run_workload(workload, seed, seconds, trace):
    """Returns the result object, the sample counts and named metrics, and the failures."""
    default = seed == DEFAULT_SEED
    if workload == "query-mix":
        expected = load_expected("answers-seed%d.json" % DEFAULT_SEED) if default else None
    else:
        expected = load_expected("reports-seed%d.json" % DEFAULT_SEED) if default else None
    if trace:
        run, values = traced_run(workload, seed, expected)
        info = {}
        wanted = metrics.PER_LAYER
    else:
        if workload == "query-mix":
            run, values, info = measure_queries(seed, seconds, expected)
        else:
            run, values, info = measure_verify(workload, seed, seconds, expected)
        values["peak_rss_mb"] = run.peak_kb / 1024
        wanted = metrics.END_TO_END
    info["error_rate"] = run.failed / run.attempted
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, info, run.failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lfk", "__init__.py")):
        print("perfbench: no lfk sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    print("meta " + json.dumps(metadata()))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            result, info, failures = run_workload(workload, args.seed, args.seconds, args.trace)
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            print("perfbench: %s: %s" % (workload, exc), file=sys.stderr)
            return 1
        for msg in failures[:20]:
            print("FAIL %s %s" % (workload, msg))
        for key, value in sorted(info.items()):
            print("info %s %s %s" % (workload, key, value))
        if args.workload == "all":
            rows = [(n, m["value"], m["unit"]) for n, m in result["metrics"].items()]
            rows += [(n, info[n], u) for n, u in metrics.NAMED.items() if n in info]
            for name, value, unit in rows:
                print("%-13s %-15s %14.4f %s" % (workload, name, value, unit))
        else:
            print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
