"""Run one benchmark workload, or all three, and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1          # all three workloads in turn

Run it from the repository root; it imports qe6 from `src/`.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 is a timed run and reports the end-to-end metrics;
--trace 1 is the traced run and reports the per-layer metrics.  The lines
before it name every metric with its unit and sample count, the inputs
drawn, and the result of each correctness gate.  Each workload runs in a
fresh interpreter with PYTHONHASHSEED fixed.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import hostprobe
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
HASH_SEED = "0"
SETUP_SAMPLES = {"verify": 3, "nf-mix": 7, "frt-spans": 7}
PROBE_EVERY = {"verify": 1, "nf-mix": 50, "frt-spans": 1}   # timed calls per probe
WORKLOAD_NAMES = ("verify", "nf-mix", "frt-spans")
CONFLUENCE_CALLS = 2 * (32 ** 3 + 16 ** 3)
# what pass_s is on each workload, and what its sample count counts
PASS_NAMES = {"verify": "sum of the timed checks' scaled times, n rounds",
              "frt-spans": "sum of the slice's scaled times, n rounds",
              "nf-mix": "2000 x geometric mean of scaled times, n queries"}


def end_to_end(run, setup):
    """The timed run's end-to-end metrics: {name: (value, unit, samples)}.
    `setup` holds (seconds, scaled seconds) of each cold set-up."""
    return {
        "setup_s": (stats.median([scaled for _, scaled in setup]), "s", len(setup)),
        "pass_s": (run.pass_s, "s", run.pass_n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", 1),
    }


def latency_lines(workload, run):
    """Printed, not gated: per-unit scaled time at the median and at the
    highest percentile with ten samples beyond it, throughput, fail ratio."""
    lat = run.latencies
    tail = stats.tail_percentile(len(lat))
    prefix = "nf" if workload == "nf-mix" else "op"
    lines = ["%-16s %12.6g ms     n=%d" % (prefix + "_p50_ms", stats.median(lat) * 1e3,
                                            len(lat))]
    if tail not in (None, 50):
        lines.append("%-16s %12.6g ms     n=%d" % ("%s_p%d_ms" % (prefix, tail),
                                                   stats.percentile(lat, tail) * 1e3, len(lat)))
    if workload == "nf-mix":
        lines.append("%-16s %12.6g 1/s    n=%d" % ("nf_per_s", len(lat) / sum(lat), len(lat)))
    lines.append("%-16s %12d -      (every unit called once a round)" % ("rounds", run.rounds))
    lines.extend(run.notes)
    lines.append("%-16s %12.6g -      n=%d (%d failed, %d of them refused at the "
                 "rewrite budget)" % ("fail_ratio", stats.fail_ratio(run.failed, run.attempted),
                                      run.attempted, run.failed, run.refused))
    return lines


def cold_setup(workload):
    """Seconds to import qe6 and build what the workload uses, raw and
    scaled by the mean of probe samples taken right before and after."""
    before = hostprobe.probe_mean()
    t0 = time.perf_counter()
    import workloads
    workloads.build(workload)
    seconds = time.perf_counter() - t0
    probe = (before + hostprobe.probe_mean()) / 2
    return seconds, seconds * hostprobe.NOMINAL_S / probe


def timed_run(workload, seed, seconds):
    """Set up once here, then run the rounds, with the other cold set-ups
    taken in child interpreters between rounds, spread over the rounds'
    `seconds`, so that they meet the same states of the host as the
    rounds do."""
    setup = [cold_setup(workload)]
    count = SETUP_SAMPLES[workload]
    import workloads
    run = workloads.Run(host=hostprobe.Host(), probe_every=PROBE_EVERY[workload])

    def between(spent):
        if len(setup) < count and spent >= (len(setup) - 1) * seconds / (count - 1):
            setup.append(_child_setup(workload))

    run.between_rounds = between
    workloads.RUNNERS[workload](seed, seconds, run)
    while len(setup) < count:
        setup.append(_child_setup(workload))
    probes = run.host.samples()
    raw = ["%-16s %12.6g s      n=%d (unscaled)" % ("setup_raw_s",
                                                    stats.median([r for r, _ in setup]),
                                                    len(setup)),
           "%-16s %12.6g s      n=%d (unscaled)" % ("pass_raw_s", run.pass_raw_s, run.pass_n),
           "%-16s %12.6g ms     n=%d (mean; least %.6g ms)"
           % ("probe_ms", sum(probes) / len(probes) * 1e3, len(probes), min(probes) * 1e3)]
    return run, end_to_end(run, setup), latency_lines(workload, run) + raw


def _child_setup(workload):
    """One more cold set-up, in a fresh interpreter; returns its seconds,
    raw and scaled."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                          "--workload", workload], capture_output=True, text=True,
                         check=True, timeout=170)
    raw, scaled = out.stdout.split()[-2:]
    return float(raw), float(scaled)


def traced_run(workload, seed):
    import workloads
    import tracing
    tracer = tracing.Tracer()
    run = workloads.Run(tracer)
    t0 = time.perf_counter()
    with tracing.patched(tracer):
        with tracer.span("setup"):
            workloads.build(workload)
        workloads.RUNNERS[workload](seed, 0, run, traced=True)
    span_wall = time.perf_counter() - t0
    counter = tracing.Tracer()      # not patched in: only pauses the count for gates
    products = tracing.count_products(
        lambda: workloads.RUNNERS[workload](seed, 0, workloads.Run(counter), traced=True),
        counter)
    cost = tracing.wrapper_cost_ns() * tracer.calls / 1e9
    metrics = tracing.layer_metrics(tracer, products, tracing.micro_kernels(),
                                    cost / max(span_wall - cost, 1e-9))
    if workload == "verify":
        run.gate("trace.confluence_normal_form_calls",
                 tracer.calls_under("check.schubert.confluence-finite",
                                    "schubert.normal_form")
                 + tracer.calls_under("check.schubert.confluence-affine",
                                      "schubert.normal_form") == CONFLUENCE_CALLS)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump(tracing.dump(tracer), fh)
    return run, {k: (v, u, 1) for k, (v, u) in metrics.items()}, \
        ["trace written to %s" % os.path.relpath(path, ROOT)]


def run_one(args):
    if args.trace:
        run, metrics, extra = traced_run(args.workload, args.seed)
    else:
        run, metrics, extra = timed_run(args.workload, args.seed, args.seconds)
    correct = all(run.gates.values())
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    print("inputs   %s" % json.dumps(run.inputs, sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        label = "%s (%s)" % (name, PASS_NAMES[args.workload]) if name == "pass_s" else name
        print("metric   %-44s %14.6g %-6s n=%d" % (label, value, unit, n))
    for line in extra:
        print("also     %s" % line)
    for name, ok in sorted(run.gates.items()):
        print("gate     %-58s %s" % (name, "ok" if ok else "FAILED"))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own interpreter, one after another."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:], env)
    if not os.path.isfile(os.path.join(SRC, "qe6", "__init__.py")):
        sys.stderr.write("error: no qe6 sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print("%r %r" % cold_setup(args.workload))
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
