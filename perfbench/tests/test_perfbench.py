"""Tests of the benchmark itself: inputs, output checks and tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import lfk  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from queries import Fields, answer, check_invariants  # noqa: E402
from workloads import QUERY_FIELDS, query_stream  # noqa: E402

Q2_ONLY = {"verify-char0": (("Qp p=2 f=1", None, "Q2"),)}


@pytest.fixture(scope="module")
def fields():
    f = Fields(lfk, QUERY_FIELDS)
    f.build_bases()
    return f


def test_query_stream_is_a_function_of_the_seed():
    assert query_stream(7, 300) == query_stream(7, 300)
    assert query_stream(7, 300) != query_stream(8, 300)
    assert query_stream(7, 50) == query_stream(7, 300)[:50]


def test_generated_literals_parse(fields):
    for q in query_stream(3, 200):
        ctx = fields.ctx[q["field"]]
        for key in ("elt", "mult", "add", "partner"):
            if key in q:
                lfk.parse_element(ctx, q[key])


def test_committed_answers_cover_the_stream():
    answers = run.load_expected("answers-seed%d.json" % run.DEFAULT_SEED)
    assert len(answers) == run.STREAM_LENGTH
    assert not any(a.startswith("exception") for a in answers)


def test_invariants_hold_and_catch_a_corrupted_answer(fields):
    stream = query_stream(11, 60)
    caught = 0
    for q in stream:
        got = answer(fields, q)
        assert check_invariants(fields, q, got) == []
        if got.startswith("coords"):
            words = got.split()
            words[1] = str((int(words[1]) + 1) % fields.ctx[q["field"]].p)
            assert check_invariants(fields, q, " ".join(words))
            caught += 1
        elif got.startswith("eps"):
            _, eps, _, delta = got.split()
            assert check_invariants(fields, q, "eps %d delta %s" % (int(eps) + 1, delta))
            caught += 1
    assert caught > 0


def test_a_corrupted_committed_answer_fails_its_query(monkeypatch):
    monkeypatch.setattr(run, "STREAM_LENGTH", 30)
    expected = run.load_expected("answers-seed%d.json" % run.DEFAULT_SEED)[:30]
    clean = run.QueryRun(run.DEFAULT_SEED, expected)
    clean.episode(check=False)
    assert (clean.attempted, clean.failed) == (30, 0)
    expected[4] = "delta 99"
    dirty = run.QueryRun(run.DEFAULT_SEED, expected)
    dirty.episode(check=False)
    assert dirty.failed == 1 and dirty.failed / dirty.attempted > 0


def test_a_corrupted_report_digest_fails_its_claim(monkeypatch):
    monkeypatch.setattr(run, "VERIFY_FIELDS", Q2_ONLY)
    digests = run.load_expected("reports-seed%d.json" % run.DEFAULT_SEED)
    clean = run.VerifyRun("verify-char0", run.DEFAULT_SEED, digests)
    clean.one_pass()
    assert clean.attempted == 6 and clean.failed == 0
    bad = dict(digests)
    bad["Q2/S6.29"] = "0" * 64
    dirty = run.VerifyRun("verify-char0", run.DEFAULT_SEED, bad)
    dirty.one_pass()
    assert dirty.failed == 1
    assert dirty.failures == ["Q2/S6.29: report digest differs from the committed one"]


def test_tracing_does_not_change_answers(tmp_path):
    job = {"job": "queries", "seed": 5, "length": 40, "check": False}
    plain = worker.JOBS["queries"](dict(job))
    spans = str(tmp_path / "spans.json")
    traced = run.run_worker(dict(job, trace=True, spans=spans))
    assert traced["answers"] == plain["answers"]
    assert traced["trace"]["counts"]["pairings_verifiers.norm_class_subgroup"] > 0
    with open(spans, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["spans"] and all(s[3] is not None and s[3] >= s[2] for s in doc["spans"])


def test_tracing_does_not_change_reports(monkeypatch):
    monkeypatch.setattr(run, "VERIFY_FIELDS", Q2_ONLY)
    vr = run.VerifyRun("verify-char0", 3)
    _, _, plain = vr.one_pass()
    _, _, traced = vr.one_pass(trace=True)
    assert vr.failed == 0
    assert [r["digest"] for r in plain[0][1]["claims"]] == [
        r["digest"] for r in traced[0][1]["claims"]
    ]


def test_benchmark_json_lists_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["end_to_end"] == metrics.END_TO_END
    assert bench["per_layer"] == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert all(metrics.MOVES[m["name"]] for m in metrics.PER_LAYER)


def test_layer_values_name_every_traced_metric():
    values = metrics.layer_values({}, {}, {}, {"S2.10": 1.0, "S3.16": 2.0}, 0.03)
    assert values["pairings_verifiers.claim_s.S2.10-S3.16"] == 3.0
    probed = {m["name"] for m in metrics.PER_LAYER} - set(values) - {"trace.overhead_ratio"}
    assert all(n.split(".")[0] in ("residues", "local_arith", "fp_linalg", "class_spaces",
                                   "extensions", "cli", "query") for n in probed)
