"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import itertools
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hostprobe  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qe6 import adjoint, frt, report, schubert  # noqa: E402
from qe6 import rootdata as rd  # noqa: E402
from qe6.checks import SUITES, SUITE_ORDER  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(999) == 90
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(99) == 50
    assert stats.tail_percentile(20) == 50
    assert stats.tail_percentile(19) is None


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 50) == 50
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.percentile([7], 99) == 7


def test_fail_ratio_counts_refusals(monkeypatch):
    original = schubert.normal_form

    def refuse_long_words(x, pres, *args, **kwargs):
        if any(len(word) >= 5 for word in x):
            raise schubert.RewriteDepthError("budget")
        return original(x, pres, *args, **kwargs)

    monkeypatch.setattr(schubert, "normal_form", refuse_long_words)
    result = workloads.Run()
    workloads.run_nf_mix(3, 0, result, traced=True)
    histogram = result.inputs["degree_histogram"]
    refused = sum(n for key, n in histogram.items()
                  if int(key.split(".")[1]) >= 5)
    queries = workloads.NF_QUERIES
    assert refused > 0
    assert result.refused == result.failed == refused
    assert result.attempted == queries
    assert len(result.latencies) == queries - refused
    assert stats.fail_ratio(result.failed, result.attempted) == refused / queries


def _probed_run(probe_times, probe_every):
    probes = iter(probe_times)
    host = hostprobe.Host(clock=lambda: next(probes) * hostprobe.NOMINAL_S)
    result = workloads.Run(host=host, probe_every=probe_every)
    calls = []
    workloads.in_rounds(lambda: [result.timed("unit", calls.append, 1) for _ in range(2)],
                        0, 3, result)
    assert result.rounds == 3 and result.attempted == len(calls) == 6
    assert [r for r, _, _ in result.samples["unit"]] == [0, 0, 1, 1, 2, 2]
    return result, [dt for _, dt, _ in result.samples["unit"]]


def test_rounds_reach_the_minimum_and_calls_scale_by_the_probes_around_them():
    result, seconds = _probed_run([1, 3, 1, 1, 2, 2, 2, 4, 4, 4, 1, 3], 1)
    scaled = [seconds[0] / 2, seconds[1] / 1, seconds[2] / 2, seconds[3] / 3,
              seconds[4] / 4, seconds[5] / 2]
    assert abs(result.time_of("unit") - statistics.median(scaled)) < 1e-15
    assert result.raw_time_of("unit") == statistics.median(seconds)


def test_calls_scale_by_their_rounds_mean_probe_when_probed_sparsely():
    result, seconds = _probed_run([1, 3, 2], 2)
    assert result.host.by_round == {r: [t * hostprobe.NOMINAL_S]
                                    for r, t in enumerate([1, 3, 2])}
    scaled = [seconds[0], seconds[1], seconds[2] / 3, seconds[3] / 3,
              seconds[4] / 2, seconds[5] / 2]
    assert abs(result.time_of("unit") - statistics.median(scaled)) < 1e-15


def test_verify_gate_fails_on_any_fail_verdict(monkeypatch):
    def suite(name, error):
        def fn():
            if error:
                raise error("budget")
            return report.PASS, {}
        return lambda *args: [report.Check("only", "", fn)]

    for name in SUITE_ORDER:
        error = schubert.RewriteDepthError if name == "schubert" else None
        monkeypatch.setitem(SUITES, name, suite(name, error))
    result = workloads.Run()
    doc = json.loads(workloads.verify_pass(1, result))
    assert [c["status"] for c in doc["checks"]].count(report.FAIL) == 1
    assert result.gates["verify.no_fail_verdict"] is False
    assert result.failed == result.refused == 1
    assert result.attempted == len(SUITE_ORDER)


def test_nf_stream_is_seeded_and_keeps_the_mix():
    size = sum(count for _, _, count in workloads.NF_MIX)
    first = list(itertools.islice(workloads.nf_stream(7), 2 * size))
    assert first == list(itertools.islice(workloads.nf_stream(7), 2 * size))
    assert first != list(itertools.islice(workloads.nf_stream(8), 2 * size))
    block = [q[:2] for q in first[size:]]
    for kind, degree, count in workloads.NF_MIX:
        assert block.count((kind, degree)) == count
    degrees = {kind: [d for k, d, _ in workloads.NF_MIX if k == kind]
               for kind in ("w", "what")}
    assert degrees == {"w": list(range(2, 9)), "what": list(range(2, 8))}


def test_frt_inputs_are_seeded_and_cover_the_sweep():
    assert workloads.frt_inputs(7) == workloads.frt_inputs(7)
    slices, (pair, (_, prime)) = workloads.frt_inputs(7)
    assert len(slices) == workloads.FRT_SLICES
    assert sorted(s for rows, _, _ in slices for s in rows) == sorted(rd.ALL_MASKS)
    assert sorted(p for _, pairs, _ in slices for p in pairs) == \
        sorted(frt.admissible_pairs())
    assert {(len(rows), len(pairs)) for rows, pairs, _ in slices} == {(2, 10)}
    assert len({row for _, _, (row, _) in slices}) == workloads.FRT_SLICES
    assert pair in frt.admissible_pairs() and prime in workloads.PAIR_PRIMES
    assert workloads.frt_inputs(8) != workloads.frt_inputs(7)


def test_self_time_is_span_minus_covered_child_time():
    ticks = iter([0, 10, 30, 40, 45, 100])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.enter("parent", False)
    tracer.enter("child", False)
    tracer.exit()
    tracer.enter("hot", True)
    tracer.exit()
    tracer.exit()
    assert tracer.totals["parent"] == [1, 100, 75]
    assert tracer.totals["child"] == [1, 20, 20]
    assert tracer.totals["hot"] == [1, 5, 5]
    parent_id = tracer.span_ids("parent")[0]
    assert tracer.per_parent == {(parent_id, "hot"): [1, 5]}
    assert tracer.calls_under("parent", "hot") == 1
    assert [s[4] for s in tracer.spans] == [parent_id, 0]


def test_patching_reaches_every_binding_site():
    normal_form, multiply = schubert.normal_form, schubert.multiply
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        for module in (schubert, adjoint):
            assert module.normal_form.__wrapped__ is normal_form
        for module in (schubert, adjoint, frt):
            assert module.multiply.__wrapped__ is multiply
        pres = schubert.presentation("w")
        adjoint.ad_F(2, schubert.NCPoly.gen(pres.rank(0)), pres)
    assert adjoint.normal_form is schubert.normal_form is normal_form
    assert frt.multiply is multiply
    assert tracer.calls_of("adjoint.ad_F") == 1
    assert tracer.calls_of("schubert.normal_form") == 1


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    result = workloads.Run()
    result.pass_s, result.pass_n = 1.0, 1
    metrics = run.end_to_end(result, [(0.5, 0.5)])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, u) for k, (_, u, _) in metrics.items()]
    kernels = dict.fromkeys(tracing.UNITS, 1.0)
    layers = tracing.layer_metrics(tracing.Tracer(), (0, 0), kernels, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(k, u) for k, (_, u) in layers.items()]
