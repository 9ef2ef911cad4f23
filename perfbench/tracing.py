"""Outside-in tracing of the qe6 layers, for the traced run only.

The span pass wraps public functions of each layer from here, at every
module-level name that binds them: `adjoint` and `frt` hold their own
`normal_form`/`multiply`/`submodule_span` names, so patching `schubert`
alone would miss their calls.  Cold or coarse calls are recorded as spans
(name, start, end, parent); hot calls are only counted and timed per
enclosing recorded span.  Self time is a span's duration minus the time
its direct children cover.

`LaurentPoly` products are too hot to wrap in the span pass, so a separate
counting pass counts them, and fixed micro-kernels time one product of
each shape, one degree-6 normal form and one 60-column `Echelon` block.
"""

import functools
import statistics
import sys
import time
from contextlib import contextmanager

from qe6 import adjoint, frt, linalg, qcoeff, rmatrix, schubert
from qe6 import rootdata as rd

import workloads


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack = []        # open frames: [name, start, covered, id, anchor, hot]
        self.spans = []        # recorded: (id, name, start, end, parent id, self)
        self.totals = {}       # name -> [calls, total, self]
        self.per_parent = {}   # (recorded parent id, hot name) -> [calls, total]
        self.counts = {}
        self.seen = {}
        self.calls = 0
        self.enabled = True
        self._ids = 0

    def enter(self, name, hot):
        self._ids += 1
        self.calls += 1
        parent = self.stack[-1][4] if self.stack else 0
        anchor = parent if hot else self._ids
        self.stack.append([name, self.clock(), 0, self._ids, anchor, hot])

    def exit(self):
        name, start, covered, sid, anchor, hot = self.stack.pop()
        end = self.clock()
        duration = end - start
        own = duration - covered
        if self.stack:
            self.stack[-1][2] += duration
        tot = self.totals.setdefault(name, [0, 0, 0])
        tot[0] += 1
        tot[1] += duration
        tot[2] += own
        if hot:
            agg = self.per_parent.setdefault((anchor, name), [0, 0])
            agg[0] += 1
            agg[1] += duration
        else:
            parent = self.stack[-1][4] if self.stack else 0
            self.spans.append((sid, name, start, end, parent, own))

    @contextmanager
    def paused(self):
        """Leave the calls made inside (correctness gates) out of the trace."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextmanager
    def span(self, name):
        self.enter(name, False)
        try:
            yield
        finally:
            self.exit()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def note_args(self, name, key):
        """Count a call whose arguments were already seen under this name."""
        seen = self.seen.setdefault(name, set())
        if key in seen:
            self.count(name + ".repeats")
        else:
            seen.add(key)

    def calls_of(self, name):
        return self.totals.get(name, (0, 0, 0))[0]

    def self_s(self, name):
        return self.totals.get(name, (0, 0, 0))[2] / 1e9

    def total_s(self, name):
        return self.totals.get(name, (0, 0, 0))[1] / 1e9

    def span_ids(self, name):
        return [s[0] for s in self.spans if s[1] == name]

    def calls_under(self, parent_name, name):
        """Hot calls of `name` made inside recorded spans named parent_name."""
        return sum(self.per_parent.get((sid, name), (0,))[0]
                   for sid in self.span_ids(parent_name))


def traced(tracer, name, fn, hot, on_call=None, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if on_call:
            on_call(tracer, args)
        tracer.enter(name, hot)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if on_result:
            on_result(tracer, out)
        return out
    return wrapper


def _repeats(name, key):
    return lambda tracer, args: tracer.note_args(name, key(args))


def _ncpoly_key(args):
    x, pres = args[:2]
    return pres.algebra_id, frozenset(x.items())


def _count_result(name, measure):
    return lambda tracer, out: tracer.count(name, measure(out))


# (owner, attribute, metric name, hot, on_call, on_result).  rmatrix's
# build_rhat runs on every braiding lookup and returns its cache after the
# first; only that first, building call is traced (see patched()).
TARGETS = (
    (schubert, "normal_form", "schubert.normal_form", True, None,
     _count_result("schubert.normal_form.terms_out", len)),
    (schubert, "multiply", "schubert.multiply", True, None, None),
    (schubert, "multiply_twisted", "schubert.multiply_twisted", True, None, None),
    (schubert, "parse_expr", "schubert.parse_expr", True, None, None),
    (schubert, "format_poly", "schubert.format_poly", True, None, None),
    (linalg.Echelon, "residue", "linalg.Echelon.residue", True, None, None),
    (linalg.Echelon, "add", "linalg.Echelon.add", True, None,
     _count_result("linalg.Echelon.add.grew", bool)),
    (linalg.EchelonMod, "residue", "linalg.EchelonMod.residue", True, None, None),
    (linalg, "rank_mod", "linalg.rank_mod", False, None, None),
    (linalg, "bareiss_echelon", "linalg.bareiss_echelon", True, None, None),
    (linalg.SparseMat, "mul", "linalg.SparseMat.mul", True, None, None),
    (rmatrix, "build_rhat", "rmatrix.build_rhat", False, None, None),
    (rmatrix, "ybe_check", "rmatrix.ybe_check", False, None, None),
    (rmatrix, "equivariance_check", "rmatrix.equivariance_check", False, None, None),
    (rmatrix, "eigen_split", "rmatrix.eigen_split", False, None, None),
    (adjoint, "build_omega", "adjoint.build_omega", False, None, None),
    (adjoint, "submodule_span", "adjoint.submodule_span", False,
     _repeats("adjoint.submodule_span", _ncpoly_key), None),
    (adjoint, "ad_E", "adjoint.ad_E", True, None, None),
    (adjoint, "ad_F", "adjoint.ad_F", True, None, None),
    (adjoint, "decompose_degree", "adjoint.decompose_degree", False, None, None),
    (frt, "frt_relation", "frt.frt_relation", True,
     _repeats("frt.frt_relation", tuple), None),
    (frt, "row_presentation", "frt.row_presentation", False, None, None),
    (frt, "two_row_presentation", "frt.two_row_presentation", False, None, None),
    (frt, "psi_S_check", "frt.psi_S_check", False, None, None),
    (frt, "psi_ST_check", "frt.psi_ST_check", False, None, None),
)
FIRST_CALL_ONLY = frozenset(("rmatrix.build_rhat",))


def binding_sites(target):
    """Every (namespace owner, attribute) that binds `target`: the qe6
    modules and the benchmark's own workload module."""
    owners = [m for n, m in sorted(sys.modules.items())
              if n == "qe6" or n.startswith("qe6.")] + [workloads]
    return [(m, k) for m in owners for k, v in list(vars(m).items()) if v is target]


@contextmanager
def patched(tracer):
    """Install the span-pass wrappers at every binding site; undo on exit."""
    undo = []
    for owner, attr, name, hot, on_call, on_result in TARGETS:
        target = owner.__dict__[attr]
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            sites = binding_sites(target)
        wrapper = traced(tracer, name, target, hot, on_call, on_result)
        if name in FIRST_CALL_ONLY:
            wrapper = _first_call_only(wrapper, sites, target)
        for site in sites:
            setattr(*site, wrapper)
            undo.append((site, target))
    try:
        yield
    finally:
        for site, target in reversed(undo):
            setattr(*site, target)


def _first_call_only(wrapper, sites, target):
    @functools.wraps(target)
    def first(*args, **kwargs):
        for site in sites:
            setattr(*site, target)
        return wrapper(*args, **kwargs)
    return first


# --- counting pass ------------------------------------------------------------

def count_products(fn, tracer):
    """Run fn() with every LaurentPoly product counted, except while
    `tracer` is paused.  Returns (products, products with a single-term or
    integer operand)."""
    cls = qcoeff.LaurentPoly
    mul, rmul = cls.__dict__["__mul__"], cls.__dict__["__rmul__"]
    tally = [0, 0]

    def counted(self, other):
        if tracer.enabled:
            tally[0] += 1
            if type(other) is int or len(self.c) == 1 or len(other.c) == 1:
                tally[1] += 1
        return mul(self, other)

    cls.__mul__ = cls.__rmul__ = counted
    try:
        fn()
    finally:
        cls.__mul__, cls.__rmul__ = mul, rmul
    return tuple(tally)


# --- fixed micro-kernels --------------------------------------------------------

def _median_per_call(fn, number, repeat=7):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter_ns()
        for _ in range(number):
            fn()
        times.append((time.perf_counter_ns() - t0) / number)
    return statistics.median(times)


# a degree-6 word of the affine algebra whose normal form has 53 terms
NF_DEG6_WORD = (3, 20, 7, 28, 12, 17)


def _weight3(a, b, c):
    return rd.wadd(rd.wadd(rd.WT[a], rd.WT[b]), rd.WT[c])


def echelon_block60():
    """Rows of the first 60-monomial column-weight block of row e's degree-3
    relation space (the block size of the multigraded degree-3 problem)."""
    s = rd.ALL_MASKS[0]
    blocks = {}
    for row in workloads.degree3_relations([(s, s)], [s]):
        (_, a), (_, b), (_, c) = next(iter(row))
        blocks.setdefault(_weight3(a, b, c), []).append(row)
    sizes = {}
    for a in rd.ALL_MASKS:
        for b in rd.ALL_MASKS:
            for c in rd.ALL_MASKS:
                key = _weight3(a, b, c)
                sizes[key] = sizes.get(key, 0) + 1
    weight = min(k for k, n in sizes.items() if n == 60 and k in blocks)
    return blocks[weight]


def micro_kernels():
    lp = qcoeff.LaurentPoly
    mono = lp.term(-3, 2)
    poly = lp({e: c for e, c in zip(range(-4, 4), (1, -2, 3, -1, 5, -3, 2, 1))})
    other = lp({e: c for e, c in zip(range(-2, 6), (2, 1, -1, 4, -2, 1, 3, -5))})
    what = schubert.presentation("what")
    word = schubert.NCPoly.from_word(NF_DEG6_WORD)
    block = echelon_block60()

    def eliminate():
        linalg.Echelon().add_all(block)

    return {
        "qcoeff.mul_mono_ns": _median_per_call(lambda: mono * poly, 20000),
        "qcoeff.mul_poly_ns": _median_per_call(lambda: poly * other, 5000),
        "schubert.nf_deg6_ms":
            _median_per_call(lambda: schubert.normal_form(word, what), 1, 5) / 1e6,
        "linalg.echelon_block60_ms": _median_per_call(eliminate, 1, 3) / 1e6,
    }


def wrapper_cost_ns(number=20000):
    """Time one wrapped call adds over a plain one (the tracer's own cost)."""
    tracer = Tracer()

    def plain():
        return None

    wrapped = traced(tracer, "calibration", plain, True)
    return max(0.0, _median_per_call(wrapped, number) - _median_per_call(plain, number))


# --- per-layer metrics ----------------------------------------------------------

CALLS = ("schubert.normal_form", "linalg.Echelon.residue", "linalg.EchelonMod.residue",
         "adjoint.submodule_span", "adjoint.ad_E", "adjoint.ad_F", "frt.frt_relation",
         "frt.row_presentation", "frt.two_row_presentation")
SELF = ("schubert.normal_form", "schubert.parse_expr", "schubert.format_poly",
        "linalg.Echelon.residue", "linalg.EchelonMod.residue", "linalg.rank_mod",
        "linalg.bareiss_echelon", "linalg.SparseMat.mul", "rmatrix.build_rhat",
        "rmatrix.ybe_check", "rmatrix.equivariance_check", "rmatrix.eigen_split",
        "adjoint.build_omega", "adjoint.submodule_span", "adjoint.ad_E", "adjoint.ad_F",
        "adjoint.decompose_degree", "frt.row_presentation", "frt.two_row_presentation",
        "frt.psi_S_check", "frt.psi_ST_check")
UNITS = {"qcoeff.mul_mono_ns": "ns", "qcoeff.mul_poly_ns": "ns",
         "schubert.nf_deg6_ms": "ms", "linalg.echelon_block60_ms": "ms"}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer, products, kernels, overhead_ratio):
    """Every per-layer metric as {name: (value, unit)}; a layer the workload
    does not run reads 0."""
    calls, single = products
    out = {"qcoeff.mul.calls": (calls, "count"),
           "qcoeff.mul.single_term_share": (_ratio(single, calls), "ratio")}
    for name in CALLS:
        out[name + ".calls"] = (tracer.calls_of(name), "count")
    for name in SELF:
        out[name + ".self_s"] = (tracer.self_s(name), "s")
    counts = tracer.counts
    out["schubert.normal_form.terms_out"] = (
        counts.get("schubert.normal_form.terms_out", 0), "count")
    out["linalg.Echelon.add.grew_ratio"] = (
        _ratio(counts.get("linalg.Echelon.add.grew", 0),
               tracer.calls_of("linalg.Echelon.add")), "ratio")
    for name in ("adjoint.submodule_span", "frt.frt_relation"):
        out[name + ".repeat_ratio"] = (
            _ratio(counts.get(name + ".repeats", 0), tracer.calls_of(name)), "ratio")
    for name, value in kernels.items():
        out[name] = (value, UNITS[name])
    for claim in workloads.verify_claims_run():
        out["check." + claim] = (tracer.total_s("check." + claim), "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def dump(tracer):
    """The trace as written out at the end: spans, self times, aggregates."""
    return {
        "spans": [{"id": sid, "name": name, "start_ns": start, "end_ns": end,
                   "parent": parent, "self_ns": own}
                  for sid, name, start, end, parent, own in tracer.spans],
        "layers": {name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                   for name, (c, t, s) in sorted(tracer.totals.items())},
        "hot_calls_per_parent": [{"parent": parent, "name": name, "calls": c,
                                  "total_s": t / 1e9}
                                 for (parent, name), (c, t) in tracer.per_parent.items()],
        "counts": tracer.counts,
    }
