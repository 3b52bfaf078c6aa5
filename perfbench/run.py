"""heightlab benchmark.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 8 --trace 0

Workloads (see workloads.py and README.md):
  analytic     height, width, vk-bounds, orbit, delta, fvector queries
  exact        torsion, project, member, decompose queries
  field-build  cold make_field on a fixed ladder plus seeded family members

Each workload is one client in a closed loop: the next operation starts
when the previous one returns.  Queries go through heightlab.cli.run_command
and constructions through heightlab.numberfield.make_field.  The timed loop
runs whole blocks (workloads.py) until the operations have taken at least
--seconds.  Every end-to-end timing is reported at reference host speed
(hostspeed.py); the summary line gives the measured values beside them.
Every result is checked after the timed interval (checks.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same stream
with every listed layer wrapped (tracer.py), then replays the same
operations untraced from a fresh start, for --seconds, to measure the
tracing overhead and to confirm that both passes give identical results;
it prints the per-layer metrics and writes the spans to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("analytic", "exact", "field-build")
DEFAULT_SEED = 1
SETUP_REPEATS = 3

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import heightlab.cli; "
                 "print(time.perf_counter() - t)")


class SetupError(Exception):
    """The checkout does not hold a runnable heightlab."""


def import_library():
    """Import heightlab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import heightlab.cli  # noqa: F401
    except ImportError as exc:
        raise SetupError(f"cannot import heightlab from {SRC}: {exc}") from exc
    import heightlab
    if not Path(heightlab.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"heightlab was imported from {heightlab.__file__}")


def import_seconds() -> float:
    """Cold import time of the library, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"import probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def build_corpus():
    """Cold construction of the seven bundled scenarios: (seconds, corpus),
    with the corpus as a dict from scenario name to scenario."""
    from heightlab import corpus, numberfield
    numberfield._make_field_cached.cache_clear()
    corpus.bundled_corpus.cache_clear()
    start = time.perf_counter()
    scenarios = corpus.bundled_corpus()
    return time.perf_counter() - start, {sc.name: sc for sc in scenarios}


def setup(workload: str):
    """(setup seconds, corpus or None).  The import is timed in fresh
    interpreters and the construction in this process, each SETUP_REPEATS
    times cold and scaled to reference host speed; the medians add up to
    setup_s."""
    import_library()
    imports = [hostspeed.scaled(lambda: (import_seconds(), None))[0]
               for _ in range(SETUP_REPEATS)]
    if workload == "field-build":
        return statistics.median(imports), None
    builds = []
    for _ in range(SETUP_REPEATS):
        seconds, scenarios = hostspeed.scaled(build_corpus)
        builds.append(seconds)
    return statistics.median(imports) + statistics.median(builds), scenarios


# -- the closed loop -------------------------------------------------------


def run_op(workload, op, corpus):
    """(result, error message or None)."""
    from heightlab import cli, numberfield
    try:
        if workload == "field-build":
            return numberfield.make_field(list(op.coeffs)), None
        return cli.run_command(op.command, corpus[op.scenario], op.arg_dict()), None
    except Exception as exc:  # an operation that raises counts as failed
        return None, f"{type(exc).__name__}: {exc}"


@dataclasses.dataclass
class Pass:
    """One timed pass: per operation the input, result, error message (or
    None), measured latency and latency scaled to reference host speed."""

    ops: list = dataclasses.field(default_factory=list)
    results: list = dataclasses.field(default_factory=list)
    errors: list = dataclasses.field(default_factory=list)
    raw: list = dataclasses.field(default_factory=list)
    latencies: list = dataclasses.field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Timed work at reference host speed."""
        return sum(self.latencies)


def timed_pass(workload, blocks, corpus, seconds, tracer=None) -> Pass:
    """Run whole blocks until the operations have taken `seconds`.

    blocks yields lists of operations.  Each latency is also scaled to
    reference host speed by the kernel samples taken while the operation
    ran (hostspeed.Sampler).  Generating inputs, collecting garbage,
    clearing the field cache and inspecting built fields happen between
    operations, off the clock.  A built field is reduced at once to its
    record and check failures, so no field outlives its operation.  Should
    operations fail so fast that generating inputs dominates, the
    wall-clock cap still ends the pass."""
    import checks
    from heightlab import numberfield
    clock = time.perf_counter
    out = Pass()
    wall_cap = clock() + 2 * seconds + 30
    with hostspeed.Sampler() as sampler:
        for block in blocks:
            if sum(out.raw) >= seconds or clock() > wall_cap:
                break
            gc.collect()
            for op in block:
                if workload == "field-build":
                    numberfield._make_field_cached.cache_clear()
                    gc.collect()
                if tracer is not None:
                    tracer.query_id, tracer.active = op.qid, True
                mark = sampler.mark()
                start = clock()
                result, error = run_op(workload, op, corpus)
                raw, latency = sampler.scale(mark, clock() - start)
                if tracer is not None:
                    tracer.active = False
                if workload == "field-build" and error is None:
                    result = {"record": checks.build_record(result),
                              "failures": checks.check_build(op, result)}
                out.raw.append(raw)
                out.latencies.append(latency)
                out.ops.append(op)
                out.results.append(result)
                out.errors.append(error)
    return out


def stream_blocks(workload, seed, corpus):
    from heightlab.corpus import scenario_documents
    import workloads
    if workload == "analytic":
        stream = workloads.AnalyticStream(seed, corpus)
    elif workload == "exact":
        stream = workloads.ExactStream(seed, corpus)
    else:
        stream = workloads.FieldBuildStream(seed, scenario_documents())
    while True:
        yield stream.block()


# -- checking --------------------------------------------------------------


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return []
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text())["records"]


def check_results(workload, ops, results, errors, corpus, reference):
    """Per-operation failure lists; an empty list means the result checks
    out.  Runs outside every timed interval."""
    import checks
    out = []
    for op, result, error in zip(ops, results, errors):
        if error is not None:
            out.append([error])
            continue
        try:
            if workload == "field-build":
                fails = list(result["failures"])
                report = result["record"]
            else:
                fails = checks.check_query(op, result, corpus)
                report = result
            if op.qid < len(reference):
                fails += checks.compare_reference(report, reference[op.qid])
        except Exception as exc:  # a check that cannot run is a failed check
            fails = [f"check raised {type(exc).__name__}: {exc}"]
        out.append(fails)
    return out


# -- metrics ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: a sample that was actually observed."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_s, timed: Pass):
    latencies = timed.latencies
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "throughput_ops_s": {"value": len(latencies) / timed.elapsed, "unit": "1/s"},
        "latency_p50_ms": {"value": 1000 * percentile(latencies, 0.50), "unit": "ms"},
        "latency_p99_ms": {"value": 1000 * percentile(latencies, 0.99), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def per_layer(tracer, traced_elapsed, untraced_elapsed):
    metrics = tracer.layer_metrics()
    metrics["tracing.overhead_ratio"] = {
        "value": traced_elapsed / untraced_elapsed - 1.0, "unit": "ratio"}
    return metrics


def summary(workload, seed, n_failed, timed: Pass, metrics) -> str:
    """One readable line: every metric, the failures, the sample counts and
    the raw (unscaled) timings beside the scaled ones."""
    n = len(timed.ops)
    raw = timed.raw
    parts = [f"{workload} seed={seed}: {n} operations in {timed.elapsed:.2f} s "
             f"at reference speed ({sum(raw):.2f} s measured)",
             f"failed_ratio={n_failed / n:.4f} ratio ({n_failed}/{n})"]
    for name, m in metrics.items():
        parts.append(f"{name}={m['value']:.6g} {m['unit']}")
    parts.append(f"raw throughput={n / sum(raw):.6g} 1/s, "
                 f"raw p50={1000 * percentile(raw, 0.5):.6g} ms, "
                 f"raw p99={1000 * percentile(raw, 0.99):.6g} ms")
    parts.append(f"p99 has {n - math.ceil(0.99 * n)} of {n} samples beyond it")
    return "; ".join(parts)


# -- entry point -------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s, corpus = setup(workload)
    import checks  # noqa: F401  (bound to the library before any tracing)
    blocks = stream_blocks(workload, seed, corpus)
    reference = load_reference(workload, seed)

    if not trace:
        timed = timed_pass(workload, blocks, corpus, seconds)
        failures = check_results(workload, timed.ops, timed.results, timed.errors,
                                 corpus, reference)
        metrics = end_to_end(setup_s, timed)
    else:
        from tracer import Tracer
        tracer = Tracer()
        gc.collect()
        tracer.install()
        try:
            timed = timed_pass(workload, blocks, corpus, seconds, tracer)
        finally:
            tracer.restore()
        if corpus is not None:
            _, corpus = build_corpus()
        gc.collect()
        # replay the traced operations in order until they have taken
        # `seconds`, which bounds the run when a field takes half a minute
        replay = timed_pass(workload, [[op] for op in timed.ops], corpus, seconds)
        failures = check_results(workload, timed.ops, timed.results, timed.errors,
                                 corpus, reference)
        for fails, a, b, err in zip(failures, timed.results, replay.results,
                                    replay.errors):
            if err is not None or not _same_result(workload, a, b):
                fails.append("traced and untraced results differ")
        traced = sum(timed.latencies[:len(replay.ops)])
        metrics = per_layer(tracer, traced, replay.elapsed)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.csv.gz")

    n_failed = sum(1 for fails in failures if fails)
    for op, fails in zip(timed.ops, failures):
        if fails:
            print(f"FAILED op {op.qid}: {op}: {'; '.join(fails)}", file=sys.stderr)
    shown = metrics if not trace else {"tracing.overhead_ratio":
                                       metrics["tracing.overhead_ratio"]}
    print(summary(workload, seed, n_failed, timed, shown))
    return {"correct": n_failed == 0, "attempted": len(timed.ops), "failed": n_failed,
            "metrics": metrics}


def _same_result(workload, a, b) -> bool:
    if workload == "field-build":
        return a["record"] == b["record"]
    return a == b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if ns.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
