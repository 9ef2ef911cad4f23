import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))


@pytest.fixture
def passing_pbw():
    """A fresh fact table holding passing rule-table and confluence verdicts
    for both algebras: a stand-in for tests whose mutants leave the rules
    alone, so that they do not sweep the 32768 affine words again
    (test_schubert and the acceptance gate decide the real verdicts)."""
    from qe6 import checks, schubert as sc
    ok = {"overlaps_checked": 0, "failures": [], "ok": True}
    return checks.Facts({(decide, sc.presentation(a)): value for a in ("w", "what")
                         for decide, value in ((sc.rule_failures, []),
                                               (sc.confluence_check, ok))})
