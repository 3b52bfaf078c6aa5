"""Record the default-seed reference results that run.py compares against.

    python3 perfbench/record_reference.py [workload ...]

For each workload, runs the first operations of the default seed's stream
untimed, checks every result against the identities in checks.py, and
writes the exact fields (as a digest) and the reals of each result to
perfbench/reference/<workload>.json.  Re-record only when a change is
meant to alter results.
"""

from __future__ import annotations

import json
import math
import sys

import run

# operations recorded per workload: more than a run completes at the
# parent commit, so that every checked result of the default seed has a
# reference (field-build records one block)
RECORDED_OPS = {"analytic": 1000, "exact": 4000, "field-build": 1}


def record(workload: str) -> int:
    import checks
    corpus = None
    if workload != "field-build":
        _, corpus = run.build_corpus()
    ops = []
    for block in run.stream_blocks(workload, run.DEFAULT_SEED, corpus):
        ops += block
        if len(ops) >= RECORDED_OPS[workload]:
            break
    done = run.timed_pass(workload, [ops], corpus, math.inf)
    results = done.results
    failures = run.check_results(workload, ops, results, done.errors, corpus, [])
    bad = [(op, fails) for op, fails in zip(ops, failures) if fails]
    for op, fails in bad:
        print(f"FAILED op {op.qid}: {op}: {'; '.join(fails)}", file=sys.stderr)
    if bad:
        return 1
    records = [checks.reference_record(r["record"] if workload == "field-build" else r)
               for r in results]
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    path = run.REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps({"workload": workload, "seed": run.DEFAULT_SEED,
                                "records": records}, separators=(",", ":")) + "\n")
    print(f"{workload}: recorded {len(records)} results in {path}")
    return 0


def main(argv) -> int:
    run.import_library()
    status = 0
    for workload in argv or run.WORKLOADS:
        status |= record(workload)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
