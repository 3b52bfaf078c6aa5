import math

import pytest

import checks
import hostspeed
import run
import tracer
import workloads
from heightlab import cli, heights, numberfield, roots


def test_self_time_subtracts_child_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and a second b [5, 9]
    names = {"a": 0, "b": 1, "c": 2}
    rows = [
        (names["a"], 0.0, 10.0, -1),
        (names["b"], 1.0, 4.0, 0),
        (names["c"], 2.0, 3.0, 1),
        (names["b"], 5.0, 9.0, 0),
    ]
    calls, self_s = tracer.layer_totals(rows, 3)
    assert calls == [1, 2, 1]
    assert self_s == [3.0, 2.0 + 4.0, 1.0]


def test_wrapper_records_nested_spans_and_restores():
    original = heights.is_torsion
    field = numberfield.make_field([1, 1, 1])
    t = tracer.Tracer()
    t.install()
    try:
        assert heights.is_torsion is not original
        assert cli.is_torsion is heights.is_torsion
        assert heights.is_torsion(field.theta())  # inactive: not recorded
        t.query_id, t.active = 7, True
        assert heights.is_torsion(field.theta())
    finally:
        t.restore()
    assert heights.is_torsion is original and cli.is_torsion is original
    assert numberfield.FieldElement.__mul__ is numberfield.FieldElement.__rmul__
    spans = t.spans()
    (root,) = [s for s in spans if s[3] == -1]
    assert root[0] == "heights.is_torsion" and root[4] == 7
    children = [s for s in spans if s[3] == 0]
    assert children and all(root[1] <= s[1] <= s[2] <= root[2] for s in children)
    assert {s[0] for s in children} == {"numberfield.pow"}


@pytest.mark.parametrize("make", [workloads.AnalyticStream, workloads.ExactStream])
def test_query_streams_are_deterministic_per_seed(corpus, make):
    first, again, other = make(3, corpus), make(3, corpus), make(4, corpus)
    blocks = [first.block() for _ in range(3)]
    assert blocks == [again.block() for _ in range(3)]
    assert blocks[0] != other.block()


def test_field_build_stream_is_deterministic_per_seed():
    from heightlab.corpus import scenario_documents
    docs = scenario_documents()
    a, b = workloads.FieldBuildStream(3, docs), workloads.FieldBuildStream(3, docs)
    block = a.block()
    assert block == b.block()
    assert block != workloads.FieldBuildStream(4, docs).block()
    labels = [op.label for op in block]
    assert len(labels) == len(set(labels)) == 12 + 4 * workloads.FAMILY_MEMBERS_PER_BLOCK


def test_analytic_never_repeats_an_element(corpus):
    stream = workloads.AnalyticStream(5, corpus)
    seen = set()
    for _ in range(40):
        for q in stream.block():
            key = (q.scenario, q.arg_dict()["element"])
            assert key not in seen
            seen.add(key)


def _traced_block(workload, corpus):
    blocks = run.stream_blocks(workload, 9, corpus)
    ops = next(blocks)
    t = tracer.Tracer()
    t.install()
    try:
        traced = run.timed_pass(workload, [ops], corpus, math.inf, t)
    finally:
        t.restore()
    plain = run.timed_pass(workload, [ops], corpus, math.inf)
    # every span belongs to one measured query
    roots_ = [s for s in t.spans() if s[3] == -1]
    assert [s[0] for s in roots_] == ["cli.run_command"] * len(ops)
    assert [s[4] for s in roots_] == [op.qid for op in ops]
    return (ops, traced.results, plain.results, traced.errors + plain.errors,
            t.layer_metrics())


@pytest.mark.parametrize("workload", ["analytic", "exact"])
def test_traced_and_untraced_results_match_and_check(corpus, workload):
    ops, traced, plain, errors, _ = _traced_block(workload, corpus)
    assert errors == [None] * len(errors)
    assert traced == plain
    failures = run.check_results(workload, ops, traced, [None] * len(ops), corpus, [])
    assert failures == [[]] * len(ops)
    assert roots.certified_roots.__module__ == "heightlab.roots"
    assert cli.run_command.__name__ == "run_command" and not hasattr(
        cli.run_command, "__wrapped__")


def test_layer_separation(corpus):
    *_, exact = _traced_block("exact", corpus)
    *_, analytic = _traced_block("analytic", corpus)
    for name in ("roots.certified_roots", "heights.weil_height",
                 "numberfield.minimal_polynomial"):
        assert exact[f"{name}.calls"]["value"] == 0
        assert analytic[f"{name}.calls"]["value"] > 0
    for name in ("projections.s_project", "projections.composite_project",
                 "projections.is_member"):
        assert analytic[f"{name}.calls"]["value"] == 0
        assert exact[f"{name}.calls"]["value"] > 0
    assert exact["cli.run_command.calls"]["value"] == len(
        workloads.ExactStream(0, corpus).block())


def test_reference_comparison_uses_each_real_bound():
    report = {"command": "height", "value": "1.0e+00", "abs_error": "1.0e-06"}
    record = checks.reference_record(report)
    near = dict(report, value="1.0000005e+00")
    far = dict(report, value="1.00001e+00")
    assert checks.compare_reference(near, record) == []
    assert checks.compare_reference(far, record)
    assert checks.compare_reference(dict(report, command="width"), record)


def test_field_build_checks_catch_a_wrong_torsion_order():
    field = numberfield.make_field([1, 1, 1])
    good = workloads.Build(0, "zeta3", (1, 1, 1), 2, 6)
    assert checks.check_build(good, field) == []
    assert checks.check_build(workloads.Build(0, "zeta3", (1, 1, 1), 2, 3), field)


def test_sampler_scales_by_the_samples_taken_during_an_operation():
    sampler = hostspeed.Sampler()
    sampler.factors, sampler.spent = [2.0], 0.25
    mark = sampler.mark()
    sampler.factors += [3.0, 5.0]
    sampler.spent += 0.5
    # the handler's 0.5 s comes off the operation; factors 3 and 5 average 4
    assert sampler.scale(mark, 1.5) == (1.0, 4.0)
    # with no sample during the operation, the last one before it applies
    assert sampler.scale(sampler.mark(), 1.0) == (1.0, 5.0)


def test_sampler_restores_the_signal_handler():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        assert sampler.factors
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
