"""Machine-readable verification reports.

A report is one suite: an ordered list of checks, each carrying a stable
claim id, a human-readable statement of the claim it verifies, a status, and
details.  Reports are byte-stable for a fixed seed: wall-clock timings are
only filled in when explicitly requested.
"""

import json
import time

REPORT_VERSION = 1

PASS = "pass"
FAIL = "fail"


class Check:
    __slots__ = ("claim_id", "paper_ref", "fn")

    def __init__(self, claim_id, paper_ref, fn):
        self.claim_id = claim_id
        self.paper_ref = paper_ref
        self.fn = fn


def run_suite(checks, timings=False, prefix=""):
    """The result rows of `checks`, run in order."""
    results = []
    for check in checks:
        t0 = time.monotonic()
        try:
            status, details = check.fn()
        except Exception as exc:  # a crash is a failed verification, not a crash of the runner
            status, details = FAIL, {"error": "%s: %s" % (type(exc).__name__, exc)}
        elapsed = int((time.monotonic() - t0) * 1000)
        results.append({
            "claim_id": prefix + check.claim_id,
            "paper_ref": check.paper_ref,
            "status": status,
            "elapsed_ms": elapsed if timings else 0,
            "details": details,
        })
    return results


def render_report(suite, checks, seed, max_degree, mode):
    return {
        "report_version": REPORT_VERSION,
        "suite": suite,
        "seed": seed,
        "max_degree": max_degree,
        "mode": mode,
        "passed": all(c["status"] != FAIL for c in checks),
        "checks": checks,
    }


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"
