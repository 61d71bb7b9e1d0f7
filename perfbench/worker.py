"""One fresh process of a benchmark run: `python3 perfbench/worker.py '<job json>'`.

Jobs:
  setup    import lfk and parse one field
  verify   `verify all` on one field, one claim at a time in claims_for order
  queries  one query-mix episode: set-up, then the seeded query stream,
           then, if "check" is set, the (untimed) invariant checks on
           every answer
  probe    the layer probes (kernels, bases, extensions, CLI)

The result is one JSON object on the last line of standard output.
Timings start before `import lfk`, so a fresh process pays what a CLI
user pays.  With "trace" set, the library is instrumented after the
import and the job also returns the tracer's counters and self times and
writes its spans to the file named by "spans".
"""

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

_clock = time.perf_counter


def report_digest(report):
    """sha256 of the bytes `lfk verify --out` writes for this report."""
    text = json.dumps(report.to_json(), indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _trace_summary(tracer):
    return {
        "counts": dict(tracer.counts),
        "self_s": dict(tracer.self_s),
        "inclusive_s": dict(tracer.inclusive_s),
        "spans": len(tracer.spans),
    }


def _start(job):
    """Import lfk (timed) and, for traced jobs, instrument it."""
    t0 = _clock()
    import lfk

    import_s = _clock() - t0
    tracer = None
    if job.get("trace"):
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    return lfk, tracer, import_s


def _finish(job, result, tracer):
    if tracer is not None:
        result["trace"] = _trace_summary(tracer)
        if job.get("spans"):
            tracer.write(job["spans"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def job_setup(job):
    lfk, tracer, import_s = _start(job)
    t0 = _clock()
    lfk.parse_field(job["field"])
    return _finish(job, {"import_s": import_s, "parse_s": _clock() - t0}, tracer)


def job_verify(job):
    lfk, tracer, import_s = _start(job)
    t0 = _clock()
    ctx = lfk.parse_field(job["field"])
    parse_s = _clock() - t0
    claims = []
    for cid in lfk.claims_for(ctx):
        row = {"id": cid}
        try:
            if tracer is None:
                t0 = _clock()
                rep = lfk.verify_claim(ctx, cid, window=job["window"], seed=job["seed"])
                row["seconds"] = _clock() - t0
            else:
                with tracer.span("claim " + cid, "%s/%s" % (job["slug"], cid)) as root:
                    rep = lfk.verify_claim(ctx, cid, window=job["window"], seed=job["seed"])
                row["seconds"] = root.seconds
            row["status"] = rep.status
            row["digest"] = report_digest(rep)
        except Exception as exc:  # a crash is a failed claim, not a dead run
            row["status"] = "exception %s: %s" % (type(exc).__name__, exc)
            row["seconds"] = 0.0
        claims.append(row)
    return _finish(job, {"import_s": import_s, "parse_s": parse_s, "claims": claims}, tracer)


def job_queries(job):
    from queries import Fields, answer, check_invariants
    from workloads import QUERY_FIELDS, query_stream

    stream = query_stream(job["seed"], job["length"])
    lfk, tracer, import_s = _start(job)
    t0 = _clock()
    fields = Fields(lfk, QUERY_FIELDS)
    parse_s = _clock() - t0
    t0 = _clock()
    if tracer is None:
        fields.build_bases()
    else:
        with tracer.span("setup bases", "setup"):
            fields.build_bases()
    bases_s = _clock() - t0

    answers, latency = [], []
    t_stream = _clock()
    for q in stream:
        t0 = _clock()
        try:
            if tracer is None:
                got = answer(fields, q)
            else:
                with tracer.span("query " + q["kind"], q["i"]):
                    got = answer(fields, q)
        except Exception as exc:  # recorded as a wrong answer
            got = "exception %s: %s" % (type(exc).__name__, exc)
        latency.append(_clock() - t0)
        answers.append(got)
    stream_s = _clock() - t_stream

    problems = []
    if job.get("check"):
        for q, got in zip(stream, answers):
            if got.startswith("exception"):
                continue
            try:
                bad = check_invariants(fields, q, got)
            except Exception as exc:
                bad = ["invariant check raised %s: %s" % (type(exc).__name__, exc)]
            problems.extend([q["i"], b] for b in bad)
    result = {
        "import_s": import_s,
        "parse_s": parse_s,
        "bases_s": bases_s,
        "stream_s": stream_s,
        "latency_s": latency,
        "answers": answers,
        "problems": problems,
    }
    return _finish(job, result, tracer)


def job_probe(job):
    import probe

    lfk, _, import_s = _start({})
    out = {}
    probe.kernels(lfk, out)
    probe.layers(lfk, out)
    from tracer import Tracer, instrument

    tracer = Tracer()
    instrument(tracer)
    probe.cli_verify(lfk, tracer, out)
    claims = probe.q2_claims(lfk, tracer)
    return _finish(job, {"import_s": import_s, "metrics": out, "q2_claims": claims}, None)


JOBS = {"setup": job_setup, "verify": job_verify, "queries": job_queries, "probe": job_probe}


def main(argv):
    job = json.loads(argv[1])
    result = JOBS[job["job"]](job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
