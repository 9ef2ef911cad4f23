"""Command-line entry point: construction, dumps, and verification suites.

JSON reports go to stdout and are byte-stable for a fixed seed (timings are
zeroed unless --timings is passed); human-readable progress goes to stderr.
Exit codes: 0 all pass, 1 any verification failure, 2 usage or parse errors.
"""

import argparse
import sys

from . import rootdata as rd
from . import schubert as sc
from . import adjoint as aj
from . import rmatrix as rm
from . import frt
from . import report as rp
from .checks import SUITES, SUITE_ORDER, MAX_DEGREE


def cmd_verify(args):
    if not 0 <= args.max_degree <= MAX_DEGREE:
        raise ValueError("--max-degree must be between 0 and %d" % MAX_DEGREE)
    names = SUITE_ORDER if args.suite == "all" else (args.suite,)
    rows = []
    for name in names:
        # no check draws from the seed; the builders take a generator for perfbench
        checks = SUITES[name](args.max_degree, args.mode, None)
        prefix = "%s." % name if args.suite == "all" else ""
        for row in rp.run_suite(checks, timings=args.timings, prefix=prefix):
            sys.stderr.write("%-18s %s\n" % (row["status"], row["claim_id"]))
            rows.append(row)
    doc = rp.render_report(args.suite, rows, args.seed, args.max_degree, args.mode)
    sys.stdout.write(rp.dumps(doc))
    return 0 if doc["passed"] else 1


def cmd_nf(args):
    if args.expr is None:
        raise ValueError("the following arguments are required: expr")
    pres = sc.presentation(args.algebra)
    free = sc.parse_expr(args.expr, pres)
    if args.twisted:
        if args.algebra != "what":
            raise ValueError("the twisted product only applies to the affine algebra")
        free = sc.twist(free, pres)
    nf = sc.normal_form(free, pres)
    sys.stdout.write(sc.format_poly(nf, pres) + "\n")
    return 0


def cmd_relations(args):
    chosen = [bool(args.algebra), args.frt_row is not None,
              args.frt_two_rows is not None]
    if sum(chosen) != 1:
        raise ValueError("choose exactly one of --algebra, --frt-row, --frt-two-rows")
    if args.algebra:
        pres = sc.presentation(args.algebra)
        doc = []
        for (a, b), items in sorted(pres.rules.items()):
            doc.append({
                "lhs": [pres.gen_label[a], pres.gen_label[b]],
                "rhs": [{"coeff": c.to_json(),
                         "word": [pres.gen_label[u], pres.gen_label[v]]}
                        for c, (u, v) in items],
            })
    else:
        if args.frt_row is not None:
            s = rd.parse_label(args.frt_row)
            row_pairs = [(s, s)]
        else:
            s, t = (rd.parse_label(x) for x in args.frt_two_rows)
            if not (frt.admissible(s, t) or frt.admissible(t, s)):
                raise ValueError("rows must differ by one move (|S delta T| = 2)")
            row_pairs = [(s, t), (t, s)]
        doc = []
        for a, b in row_pairs:
            for cls in rd.CLASSES:
                for (i, j), _ in cls:
                    vec = frt.frt_relation(a, b, i, j)
                    if vec:
                        doc.append({"rows": [rd.label(a), rd.label(b)],
                                    "cols": [rd.label(i), rd.label(j)],
                                    "vector": frt.relation_vector_json(vec)})
    sys.stdout.write(rp.dumps(doc))
    return 0


def cmd_dump(args):
    if args.object == "classes":
        if args.format == "csv":
            raise ValueError("--format csv applies to rmatrix only")
        sys.stdout.write(rp.dumps(rd.classes_json()))
    elif args.format == "json":
        sys.stdout.write(rp.dumps(rm.rhat_json()))
    else:
        sys.stdout.write(rm.rhat_csv())
    return 0


# the highest --degree decompose accepts: the candidates grow fast with the
# degree, and these degrees take about 35-45 s (w) and 15-25 s (what) on
# one core of a 2-core VM
DECOMPOSE_MAX_DEGREE = {"w": 30, "what": 8}


def cmd_decompose(args):
    top = DECOMPOSE_MAX_DEGREE[args.algebra]
    if not 0 <= args.degree <= top:
        raise ValueError("--degree must be between 0 and %d for --algebra %s"
                         % (top, args.algebra))
    rep = aj.decompose_degree(args.algebra, args.degree)
    sys.stdout.write(rp.dumps(rep))
    return 0 if rep["verdict"] == "pass" else 1


def cmd_hwv(args):
    if args.check != "all" and args.check not in aj.NAMED_VECTORS:
        raise ValueError("unknown vector %r" % args.check)
    doc = []
    for name in aj.NAMED_VECTORS if args.check == "all" else (args.check,):
        cert = aj.hw_certificate(name)
        doc.append({"vector": name, "highest_weight": cert["highest_weight"],
                    "weight": cert["weight"], "expected_weight": cert["expected_weight"],
                    "span_dim": cert["span_dim"], "expected_span_dim": cert["expected_span_dim"],
                    "status": "pass" if cert["ok"] else "fail"})
        sys.stderr.write("%-6s %s\n" % (doc[-1]["status"], name))
    sys.stdout.write(rp.dumps(doc))
    return 0 if all(row["status"] == "pass" for row in doc) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qe6",
        description="exact construction and verification of the type-E6 quantum "
                    "Schubert cells, the so10 half-spin braiding, and the "
                    "associated FRT bialgebra")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=("all",) + SUITE_ORDER)
    p.add_argument("--max-degree", type=int, default=3, dest="max_degree")
    # every suite is exact; the flag stays only because perfbench passes
    # args.mode to the suite builders
    p.add_argument("--mode", default="exact", choices=("exact",))
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--timings", action="store_true",
                   help="fill elapsed_ms with wall-clock values (breaks "
                        "byte-stability of reports)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("nf", help="normal form of an expression")
    # optional only to argparse: an expression that starts with a sign, such
    # as -Y[e], reads to it as an unknown option, and main takes it from the
    # leftovers
    p.add_argument("expr", nargs="?")
    p.add_argument("--algebra", required=True, choices=("w", "what"))
    p.add_argument("--twisted", action="store_true")
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("relations", help="emit defining relations as JSON")
    p.add_argument("--algebra", choices=("w", "what"))
    p.add_argument("--frt-row", dest="frt_row")
    p.add_argument("--frt-two-rows", dest="frt_two_rows", nargs=2,
                   metavar=("S", "T"))
    p.set_defaults(fn=cmd_relations)

    p = sub.add_parser("dump", help="dump a constructed object")
    p.add_argument("object", choices=("rmatrix", "classes"))
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.set_defaults(fn=cmd_dump)

    p = sub.add_parser("decompose", help="degree-by-degree module decomposition")
    p.add_argument("--algebra", required=True, choices=("w", "what"))
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("hwv", help="check the named highest weight vectors")
    p.add_argument("--check", default="all")
    p.set_defaults(fn=cmd_hwv)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if getattr(args, "expr", "") is None and extra:
            args.expr = extra.pop(0)
        if extra:
            parser.error("unrecognized arguments: %s" % " ".join(extra))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, sc.RewriteDepthError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
