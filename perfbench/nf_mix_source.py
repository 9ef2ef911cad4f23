"""Derive the nf-mix query mix from the normal forms `qe6 verify` computes.

    python3 perfbench/nf_mix_source.py

Runs one default `qe6 verify` (all 37 checks, about two minutes) with a
counter at every name that binds `schubert.normal_form` or
`schubert.multiply_twisted`, and counts the outermost calls by algebra (or
"twisted") and word degree, and by number of terms.  Calls on words of
degree below 2 are already normal and are not counted.  It prints the counts
scaled to 10000 queries and at least 1, in the form of `workloads.NF_MIX`
(which adds the degrees verify never reaches), and the term counts as
`workloads.NF_TERMS` weighs them.
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from qe6 import cli, schubert  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def count_queries():
    """({(kind, degree): calls}, {terms: calls}) of one default verify."""
    degrees, terms = {}, {}
    depth = [0]

    def counted(kind, fn, degree_of):
        def wrapper(*args, **kwargs):
            if depth[0] == 0:
                degree = degree_of(args)
                if degree >= 2:
                    degrees[kind(args), degree] = degrees.get((kind(args), degree), 0) + 1
                    n = min(len(args[0]), workloads.NF_TERMS[-1][0])
                    terms[n] = terms.get(n, 0) + 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    def top(x):
        return max((len(w) for w in x), default=0)

    wrappers = {
        schubert.normal_form: counted(lambda a: a[1].algebra_id, schubert.normal_form,
                                      lambda a: top(a[0])),
        schubert.multiply_twisted: counted(lambda a: "twisted", schubert.multiply_twisted,
                                           lambda a: top(a[0]) + top(a[1])),
    }
    sites = [(site, fn) for fn in wrappers for site in tracing.binding_sites(fn)]
    for site, fn in sites:
        setattr(*site, wrappers[fn])
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.cmd_verify(workloads.verify_args())
    finally:
        for site, fn in sites:
            setattr(*site, fn)
    return degrees, terms


def scaled(counts, total=10000):
    whole = sum(counts.values())
    return tuple(k + (max(1, round(v * total / whole)),) for k, v in sorted(counts.items()))


def main():
    degrees, terms = count_queries()
    print("calls by (kind, degree):", dict(sorted(degrees.items())))
    print("calls by number of terms (last: that many or more):", dict(sorted(terms.items())))
    print("NF_MIX:", scaled(degrees))
    print("NF_TERMS:", scaled({(n,): c for n, c in terms.items()}))


if __name__ == "__main__":
    main()
