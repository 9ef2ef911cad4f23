"""The benchmark's three workloads: seeded inputs, timed work, correctness gates.

Each workload is a closed loop with one caller, run single-threaded in a
fresh interpreter.  A timed run repeats a fixed, seeded set of operations
("units") in rounds, until `--seconds` have passed and at least a minimum
number of rounds are done, and times every call of every unit.  The host
probe (hostprobe.py) is sampled between calls, and a unit's time is the
median over its calls of each call's seconds scaled by the mean probe of
its round.  The gates that check the outputs run outside the timed calls
and count wrong or refused operations as failed.

verify     `qe6 verify` with the CLI's defaults, in-process, once per round,
           over the check registry minus the heaviest checks (a traced run
           runs all but the two 80-pair sweeps); a unit is one check.
nf-mix     `qe6 nf` queries: parse, rewrite to normal form, print; a unit
           is one query of a seeded set of 2000.
frt-spans  the FRT relation engine with no rewriting: one seeded slice of
           the row and two-row presentations and one row's degree-3 space
           ranked over GF(p); a traced run sweeps all of them instead.
"""

import contextlib
import io
import itertools
import json
import random
import statistics
import time

from qe6 import adjoint, cli, frt, linalg, rmatrix, schubert
from qe6 import report
from qe6 import rootdata as rd
from qe6.checks import SUITES, SUITE_ORDER

# verify: the registry holds 37 claims.  The two checks that sweep all 80
# row pairs take about 60 of verify's 110 s and never run: frt-spans
# measures their engine.  A traced run runs the other 35 once.  The timed
# rounds also leave out the two heaviest of those, confluence-affine and
# submodule-span-dimensions (about 29 s of a 38 s pass); row-presentations,
# whose engine frt-spans times; and row-homomorphism-kernel, whose time is
# set by the evaluation points the seed draws (1.8 s on one seed, 2.3-2.9 s
# on the next).  One round then takes about 4 s, and a run holds several.
VERIFY_CLAIMS = 37
VERIFY_SKIPPED = frozenset(("frt.two-row-presentations",
                            "frt.two-row-homomorphism-kernel"))
VERIFY_UNTIMED = frozenset(("schubert.confluence-affine",
                            "adjoint.submodule-span-dimensions",
                            "frt.row-presentations",
                            "frt.row-homomorphism-kernel"))
VERIFY_MIN_ROUNDS = 4
# Timed checks that draw random words from the seed: which words a seed
# draws sets their time (termination-random took 0.03 s on one seed and
# 1.6 s on the next), so they run and are gated in every round but are left
# out of pass_s; their times are printed.
VERIFY_SEEDED = frozenset(("schubert.termination-random",
                           "schubert.twisted-associativity",
                           "schubert.laurent-coefficient-closure",
                           "adjoint.module-algebra-axiom"))

# nf-mix: (algebra or "twisted", word degree, queries per block) and (terms,
# weight).  The counts are those of the outermost normal forms and twisted
# products of degree 2 and more that one default `qe6 verify` computes, scaled
# to 10000 and at least 1 (perfbench/nf_mix_source.py derives them), plus one
# query per block for each degree verify never reaches (w 7-8, what 7), so
# the stream covers w 2-8 and what 2-7.  The coefficient forms are synthetic.
# Long words in what stay in: a few of them hit the rewrite budget, and each
# such refusal counts as a failed query.
NF_MIX = (
    ("w", 2, 65), ("w", 3, 949), ("w", 4, 1097), ("w", 5, 2), ("w", 6, 1),
    ("w", 7, 1), ("w", 8, 1),
    ("what", 2, 432), ("what", 3, 7335), ("what", 4, 57), ("what", 5, 1),
    ("what", 6, 54), ("what", 7, 1),
    ("twisted", 2, 1), ("twisted", 3, 2), ("twisted", 4, 3), ("twisted", 5, 1),
    ("twisted", 6, 1),
)
NF_TERMS = ((1, 8367), (2, 899), (3, 734))   # the last: that many or more
NF_QUERIES = 2000          # the seeded query set, so p99 has 20 beyond it
NF_MIN_COMPLETED = 1000    # the run holds at least this many answered queries
NF_HEAVY_S = 0.05          # a query this slow in the first round is not repeated
NF_MIN_ROUNDS = 5
NF_GATE_SHARE = 0.02       # share of queries re-checked with the "right" strategy

# frt-spans: the sweep is dealt into FRT_SLICES slices of equal make-up: 2
# row and 10 two-row presentations, and one row's degree-3 space ranked over
# 2^61 - 1 (products past 64 bits).  A timed run repeats the first slice; a
# traced run sweeps all slices and then ranks one pair's degree-3 space over
# one of the two primes below 2^30.  Degree-2 and degree-3 dimensions at the
# seed commit: 126 and 672 (4096 - rank) for a row, 498 and 5088
# (32768 - rank) for a pair of rows.
FRT_SLICES = 8
FRT_MIN_ROUNDS = 5
ROW_PRIME, PAIR_PRIMES = (1 << 61) - 1, (1000000007, 998244353)
ROW_DIM2, PAIR_DIM2 = 126, 498
ROW_DIM3, PAIR_DIM3 = 672, 5088


def build(workload):
    """Build what the workload uses: presentations, then the braiding for
    frt-spans and verify, then Theta and the 13 Omegas for verify."""
    schubert.presentation("w")
    schubert.presentation("what")
    if workload in ("frt-spans", "verify"):
        rmatrix.build_rhat()
    if workload == "verify":
        adjoint.theta()
        for k in range(1, 14):
            adjoint.build_omega(k)


class Run:
    """Timed calls, pass time, failures and input properties of one run.

    With a `host` (hostprobe.Host) and `probe_every` 1, the probe is
    sampled before and after every timed call, and the call is scaled by
    the mean of the two; with a larger `probe_every`, it is sampled before
    every `probe_every`-th call, and a call is scaled by the mean probe of
    its round (for calls much shorter than the host's states)."""

    def __init__(self, tracer=None, host=None, probe_every=1):
        self.tracer = tracer
        self.host = host
        self.probe_every = probe_every
        self.samples = {}       # unit -> (round, seconds, probe or None) of each call
        self.rounds = 0
        self.between_rounds = None  # called with the rounds' seconds so far
        self.pass_s = None      # the workload's pass time (scaled), its raw
        self.pass_raw_s = None  # seconds and its sample count
        self.pass_n = 0
        self.latencies = []     # each unit's time (answered queries on nf-mix)
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.gates = {}
        self.inputs = {}
        self.notes = []         # extra lines for the printed output

    def timed(self, unit, fn, *args, span=None):
        """Call fn(*args) as one operation of `unit`; return its result."""
        each = self.host and self.probe_every == 1
        if self.host and self.attempted % self.probe_every == 0:
            before = self.host.sample(self.rounds)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if span and self.tracer:
                with self.tracer.span(span):
                    return fn(*args)
            return fn(*args)
        finally:
            dt = time.perf_counter() - t0
            probe = (before + self.host.sample(self.rounds)) / 2 if each else None
            self.samples.setdefault(unit, []).append((self.rounds, dt, probe))

    def time_of(self, unit):
        """A unit's time: the median of its calls, scaled by the host probe
        when there is one."""
        if not self.host:
            return self.raw_time_of(unit)
        return statistics.median(self.host.scale(dt, r, probe)
                                 for r, dt, probe in self.samples[unit])

    def raw_time_of(self, unit):
        return statistics.median(dt for _, dt, _ in self.samples[unit])

    def untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def gate(self, name, ok):
        self.gates[name] = self.gates.get(name, True) and bool(ok)


def in_rounds(one_round, seconds, min_rounds, run):
    """Run rounds until they have taken `seconds` and at least `min_rounds`
    are done.  Between two rounds, call run.between_rounds if it is set."""
    spent = 0.0
    for k in itertools.count():
        if k >= min_rounds and spent >= seconds:
            return
        if k and run.between_rounds:
            run.between_rounds(spent)
        t0 = time.perf_counter()
        one_round()
        spent += time.perf_counter() - t0
        run.rounds += 1


# --- verify -------------------------------------------------------------------

def verify_args(seed=None):
    """The parsed arguments of `qe6 verify [--seed <seed>]`: the CLI's defaults."""
    argv = ["verify"] + (["--seed", str(seed)] if seed is not None else [])
    return cli.build_parser().parse_args(argv)


@contextlib.contextmanager
def verify_suites(run, registry, dropped):
    """Swap the suite builders in the registry `qe6 verify` reads for ones
    that list every claim in `registry`, drop the claims in `dropped` and
    time each remaining check as one operation."""
    originals = dict(SUITES)

    def trimmed(name, build):
        def built(*args):
            kept = []
            for check in build(*args):
                claim = "%s.%s" % (name, check.claim_id)
                registry.append(claim)
                if claim not in dropped:
                    check.fn = _timed_check(run, check.fn, "check." + claim)
                    kept.append(check)
            return kept
        return built

    SUITES.update({name: trimmed(name, build) for name, build in originals.items()})
    try:
        yield
    finally:
        SUITES.update(originals)


def _timed_check(run, fn, unit):
    return lambda: run.timed(unit, fn, span=unit)


def verify_pass(seed, run, dropped=VERIFY_SKIPPED):
    """One `qe6 verify --seed <seed>` through the CLI's own path, its output
    captured; the gates then read the report it wrote.  Returns the report
    text."""
    registry = []
    out = io.StringIO()
    with verify_suites(run, registry, dropped), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        status = cli.cmd_verify(verify_args(seed))
    # gates, outside the timed check calls
    doc = json.loads(out.getvalue())
    failing, refused = failed_checks(doc["checks"])
    run.failed += len(failing)
    run.refused += len(refused)
    run.gate("verify.registry_has_37_claims",
             len(set(registry)) == len(registry) == VERIFY_CLAIMS)
    run.gate("verify.every_run_claim_reported",
             [c["claim_id"] for c in doc["checks"]]
             == [c for c in registry if c not in dropped])
    run.gate("verify.no_fail_verdict", not failing and doc["passed"] and status == 0)
    return out.getvalue()


def failed_checks(checks):
    """The failed checks of a report, and those among them that stopped at
    the rewrite budget (refused operations, counted apart in the output)."""
    failing = [c for c in checks if c["status"] == report.FAIL]
    refused = [c for c in failing
               if c["details"].get("error", "").startswith("RewriteDepthError")]
    return failing, refused


def verify_claims_run():
    """Claim ids of the checks a traced verify pass runs, in report order."""
    args = verify_args()
    return ["%s.%s" % (name, check.claim_id) for name in SUITE_ORDER
            for check in SUITES[name](args.max_degree, args.mode, random.Random(0))
            if "%s.%s" % (name, check.claim_id) not in VERIFY_SKIPPED]


def run_verify(seed, seconds, run, traced=False):
    """Timed: `qe6 verify --seed <seed>` over the timed checks, once per
    round; pass_s is the sum of the checks' times, VERIFY_SEEDED left
    out.  Traced: one pass over every check but the two 80-pair
    sweeps."""
    dropped = VERIFY_SKIPPED if traced else VERIFY_SKIPPED | VERIFY_UNTIMED
    run.inputs = {"seed": seed, "checks_run": VERIFY_CLAIMS - len(dropped),
                  "checks_left_out": sorted(dropped)}
    reports = []
    in_rounds(lambda: reports.append(verify_pass(seed, run, dropped)),
              seconds, 1 if traced else VERIFY_MIN_ROUNDS, run)
    run.gate("verify.rounds_write_the_same_report", len(set(reports)) == 1)
    counted = [unit for unit in run.samples if unit[len("check."):] not in VERIFY_SEEDED]
    run.latencies = [run.time_of(unit) for unit in run.samples]
    run.pass_s = sum(run.time_of(unit) for unit in counted)
    run.pass_raw_s = sum(run.raw_time_of(unit) for unit in counted)
    run.pass_n = run.rounds
    run.notes = ["%-44s %10.6g s   median of %d, not in pass_s"
                 % ("check." + claim, run.time_of("check." + claim),
                    len(run.samples["check." + claim]))
                 for claim in sorted(VERIFY_SEEDED) if "check." + claim in run.samples]


# --- nf-mix -------------------------------------------------------------------

def _word_text(rng, pres, degree):
    return "*".join(pres.gen_label[rng.randrange(pres.ngens)]
                    for _ in range(degree))


def _coeff_text(rng):
    e = rng.randrange(-3, 4)
    pick = rng.randrange(4)
    if pick == 0:
        return ""
    if pick == 1:
        return "q^%d*" % e
    if pick == 2:
        return "%d*" % rng.randrange(2, 6)
    return "(q^%d - q^%d)*" % (e + 1, e - 1)


def _sum_text(rng, pres, degree, terms):
    """A sum of `terms` words of one degree, with Laurent coefficients."""
    text = ""
    for k in range(terms):
        sign = rng.choice("+-")
        term = _coeff_text(rng) + _word_text(rng, pres, degree)
        if k == 0:
            text = ("-" if sign == "-" else "") + term
        else:
            text += " %s %s" % (sign, term)
    return text


def nf_stream(seed):
    """Endless seeded query stream.  Every block of queries holds the NF_MIX
    counts exactly, in shuffled order, and draws its numbers of terms with
    the NF_TERMS weights; a query is (kind, degree, text), and a twisted one
    carries the texts of its two factors, single words, as the twisted
    product needs homogeneous factors."""
    rng = random.Random(seed)
    block = [(kind, d) for kind, d, count in NF_MIX for _ in range(count)]
    sizes, weights = zip(*NF_TERMS)
    w, what = schubert.presentation("w"), schubert.presentation("what")
    while True:
        rng.shuffle(block)
        for (kind, d), n in zip(block, rng.choices(sizes, weights, k=len(block))):
            if kind == "twisted":
                a = rng.randrange(1, d)
                yield kind, d, (_coeff_text(rng) + _word_text(rng, what, a),
                                _word_text(rng, what, d - a))
            else:
                yield kind, d, _sum_text(rng, w if kind == "w" else what, d, n)


def nf_query(query):
    """What `qe6 nf` does for one query: parse, normal form, print.  Twisted
    queries multiply their two factors in the twisted product.  Returns the
    normal form and its printed text."""
    kind, _, text = query
    pres = schubert.presentation("w" if kind == "w" else "what")
    if kind == "twisted":
        x, y = (schubert.parse_expr(t, pres) for t in text)
        nf = schubert.multiply_twisted(x, y, pres)
    else:
        nf = schubert.normal_form(schubert.parse_expr(text, pres), pres)
    return nf, schubert.format_poly(nf, pres)


def _right_strategy(query):
    kind, _, text = query
    pres = schubert.presentation("w" if kind == "w" else "what")
    if kind != "twisted":
        return schubert.normal_form(schubert.parse_expr(text, pres), pres, "right")
    x, y = (schubert.parse_expr(t, pres) for t in text)
    f = schubert.twist_factor(schubert.q_degree(x, pres), schubert.q_degree(y, pres))
    return schubert.normal_form(x.free_mul(y), pres, "right").scale(f)


def run_nf_mix(seed, seconds, run, traced=False):
    """Answer the seeded set of NF_QUERIES queries once, with the gates.
    Timed: then again in rounds, but for the queries refused or slower than
    NF_HEAVY_S the first time.  pass_s is NF_QUERIES times the geometric
    mean of the answered queries' times: the set's time with its
    heavy tail weighed on a log scale, so that which few long words a seed
    draws does not set it.  Traced: the set once."""
    start = time.perf_counter()
    queries = list(itertools.islice(nf_stream(seed), NF_QUERIES))
    sample = random.Random("gate:%d" % seed)
    histogram = {}
    answers = {}
    for i, query in enumerate(queries):
        key = "%s.%d" % query[:2]
        histogram[key] = histogram.get(key, 0) + 1
        try:
            nf, _ = run.timed(i, nf_query, query)
        except schubert.RewriteDepthError:
            run.refused += 1
            run.failed += 1
            continue
        pres = schubert.presentation("w" if query[0] == "w" else "what")
        ok = all(pres.is_normal(word) for word in nf)
        if ok and sample.random() < NF_GATE_SHARE:
            with run.untraced():
                try:
                    ok = _right_strategy(query) == nf
                except schubert.RewriteDepthError:
                    pass        # no answer to compare with; not a wrong one
        run.gate("nf-mix.outputs_normal_and_strategy_independent", ok)
        run.failed += not ok
        answers[i] = nf
    run.rounds = 1
    repeated = [i for i in answers if run.raw_time_of(i) < NF_HEAVY_S]

    def again():
        for i in repeated:
            nf, _ = run.timed(i, nf_query, queries[i])
            ok = nf == answers[i]
            run.gate("nf-mix.rounds_give_the_same_answers", ok)
            run.failed += not ok

    if not traced:
        in_rounds(again, seconds - (time.perf_counter() - start), NF_MIN_ROUNDS, run)
    run.latencies = [run.time_of(i) for i in answers]
    run.pass_s = NF_QUERIES * statistics.geometric_mean(run.latencies)
    run.pass_raw_s = NF_QUERIES * statistics.geometric_mean(
        [run.raw_time_of(i) for i in answers])
    run.pass_n = len(run.latencies)
    run.gate("nf-mix.at_least_1000_answered", len(answers) >= NF_MIN_COMPLETED)
    run.inputs = {"seed": seed, "queries": len(queries),
                  "repeated_in_rounds": len(repeated),
                  "degree_histogram": dict(sorted(histogram.items()))}


# --- frt-spans ----------------------------------------------------------------

def frt_inputs(seed):
    """Seeded slices of the sweep and the degree-3 pair.  Rows and pairs are
    shuffled and dealt round-robin into FRT_SLICES slices; each slice takes
    one more row for its degree-3 space, with its own point (q0, ROW_PRIME).
    Returns (slices, (pair, point)); a slice is (rows, pairs, (row, point))."""
    rng = random.Random(seed)
    rows, pairs = list(rd.ALL_MASKS), frt.admissible_pairs()
    rng.shuffle(rows)
    rng.shuffle(pairs)
    rows3 = rng.sample(rd.ALL_MASKS, FRT_SLICES)
    slices = [(rows[k::FRT_SLICES], pairs[k::FRT_SLICES],
               (rows3[k], (rng.randrange(2, 10 ** 6), ROW_PRIME)))
              for k in range(FRT_SLICES)]
    pair3 = (rng.choice(frt.admissible_pairs()),
             (rng.randrange(2, 10 ** 6), rng.choice(PAIR_PRIMES)))
    return slices, pair3


def degree3_relations(row_pairs, rows):
    """The degree-3 relation space: every degree-2 relation of the given row
    pairs, extended by one generator of the given rows on either side."""
    deg2 = []
    for cls in rd.CLASSES:
        for (i, j), _ in cls:
            for s, t in row_pairs:
                vec = frt.frt_relation(s, t, i, j)
                if vec:
                    deg2.append(vec)
    out = []
    for vec in deg2:
        for a in rd.ALL_MASKS:
            for r in rows:
                out.append({((r, a),) + w: c for w, c in vec.items()})
                out.append({w + ((r, a),): c for w, c in vec.items()})
    return out


def _row_degree3(s, point):
    return 16 ** 3 - linalg.rank_mod(degree3_relations([(s, s)], [s]), *point)


def _pair_degree3(s, t, point):
    rel = degree3_relations([(s, s), (t, t), (s, t), (t, s)], [s, t])
    return 32 ** 3 - linalg.rank_mod(rel, *point)


def frt_slice(rows, pairs, row3, run):
    """One slice of the sweep, each presentation and the rank timed as a
    unit; its results go to the gates afterwards."""
    results = []
    for s in rows:
        rep = run.timed(("row", s), frt.row_presentation, s)
        results.append(("rows_dim_126_and_ok", rep["ok"] and rep["degree2_dim"] == ROW_DIM2))
    for s, t in pairs:
        rep = run.timed(("pair", s, t), frt.two_row_presentation, s, t)
        results.append(("pairs_dim_498_and_ok", rep["ok"] and rep["degree2_dim"] == PAIR_DIM2))
    results.append(("degree3_row_dims_672",
                    run.timed(("row3", row3[0]), _row_degree3, *row3) == ROW_DIM3))
    return results


def run_frt_spans(seed, seconds, run, traced=False):
    """Timed: the first seeded slice once per round; pass_s is the sum of
    its units' times.  Traced: every slice once, then the pair's
    degree-3 space."""
    slices, (pair3, point3) = frt_inputs(seed)
    chosen = slices if traced else slices[:1]
    run.inputs = {"seed": seed,
                  "rows": sum(len(r) for r, _, _ in chosen),
                  "pairs": sum(len(p) for _, p, _ in chosen),
                  "degree3_rows": [[rd.label(s), list(p)] for _, _, (s, p) in chosen]}
    results = []

    def one_round():
        for rows, pairs, row3 in chosen:
            results.extend(frt_slice(rows, pairs, row3, run))

    in_rounds(one_round, seconds, 1 if traced else FRT_MIN_ROUNDS, run)
    if traced:
        run.inputs["degree3_pair"] = [[rd.label(s) for s in pair3], list(point3)]
        results.append(("degree3_pair_dim_5088",
                        run.timed("pair3", _pair_degree3, *pair3, point3) == PAIR_DIM3))
    for name, ok in results:
        run.gate("frt-spans." + name, ok)
        run.failed += not ok
    run.latencies = [run.time_of(unit) for unit in run.samples]
    run.pass_s = sum(run.latencies)
    run.pass_raw_s = sum(run.raw_time_of(unit) for unit in run.samples)
    run.pass_n = run.rounds


RUNNERS = {"verify": run_verify, "nf-mix": run_nf_mix, "frt-spans": run_frt_spans}
