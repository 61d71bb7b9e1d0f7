"""Write the committed expectations for the default seed.

    python3 perfbench/record_expected.py

Records the sha256 of every verify report (both verify workloads) and the
answer to every query of the query-mix stream.  Reports are meant to stay
byte-identical across changes, so rerun this only for a change whose
purpose is to alter an output, and say so in that change.  Nothing is
written unless every claim passes and every answer meets the invariants.
"""

import json
import os
import sys

import run


def main():
    seed = run.DEFAULT_SEED
    digests = {}
    for workload in ("verify-char0", "verify-charp"):
        vr = run.VerifyRun(workload, seed)
        _, _, results = vr.one_pass()
        if vr.failed:
            sys.exit("not recording: %s" % vr.failures)
        for slug, res in results:
            for row in res["claims"]:
                digests["%s/%s" % (slug, row["id"])] = row["digest"]
    qr = run.QueryRun(seed)
    res = qr.episode()
    if qr.failed:
        sys.exit("not recording: %s" % qr.failures[:5])
    for name, data in (
        ("reports-seed%d.json" % seed, dict(sorted(digests.items()))),
        ("answers-seed%d.json" % seed, res["answers"]),
    ):
        with open(os.path.join(run.EXPECTED, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
