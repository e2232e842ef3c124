"""Command-line interface.

Subcommands: subfields, minimal, length, classify, lattice.  Exit codes:
0 success, 1 parse or input error, 2 enumeration cap exceeded,
3 internal consistency failure (a theorem prediction disagreed with a
brute-force observation, which is always a bug).
"""

import argparse
import json
import sys

from .errors import CapExceeded, ConsistencyError, ParseError
from .parsing import parse_algebra, parse_polynomial
from .report import (algebra_report, field_report, lattice_to_dot, report_to_json,
                     report_to_text)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="l2lab",
        description="Exact length-2 analysis of field and finite-algebra extensions")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_poly_cmd(name, help_text, algebra=False, fmt=False):
        c = sub.add_parser(name, help=help_text)
        c.add_argument("poly", nargs="?", help="polynomial over Q in X, e.g. \"X^4 - 2\"")
        if algebra:
            c.add_argument("--algebra", metavar="FILE",
                           help="JSON algebra document (use - for stdin)")
        if fmt:
            c.add_argument("--format", choices=["dot", "json", "text"],
                           default="text")
        c.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the JSON report")
        return c

    add_poly_cmd("subfields", "principal subfields of Q < Q[x]/(f)")
    add_poly_cmd("minimal", "decide whether Q < Q[x]/(f) is a minimal extension")
    add_poly_cmd("length", "length of the lattice of intermediate rings", algebra=True)
    add_poly_cmd("classify", "full length-2 classification report", algebra=True)
    add_poly_cmd("lattice", "emit the intermediate-ring lattice", algebra=True, fmt=True)
    return ap


def _load_report(args):
    algebra_file = getattr(args, "algebra", None)
    if algebra_file:
        if args.poly:
            raise ParseError("give either a polynomial or --algebra, not both")
        if algebra_file == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(algebra_file, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as e:
                raise ParseError("cannot read %s: %s" % (algebra_file, e))
        try:
            doc = json.loads(text)
        except ValueError as e:     # JSONDecodeError, or an over-long integer
            raise ParseError("invalid JSON in %s: %s" % (algebra_file, e))
        S, R = parse_algebra(doc)
        echo = json.dumps(doc, sort_keys=True)
        report, _ = algebra_report(S, R, echo)
        return report
    if not args.poly:
        raise ParseError("a polynomial argument is required (or --algebra FILE)")
    f = parse_polynomial(args.poly)
    try:
        return field_report(f, input_text=args.poly)
    except ValueError as e:
        raise ParseError(str(e))


def _run(args):
    if args.command == "lattice":
        report = _load_report(args)
        if args.format == "dot":
            return lattice_to_dot(report["lattice"], title=report["input"])
        if args.format == "json":
            return report_to_json({"input": report["input"],
                                   "engine": report["engine"],
                                   "lattice": report["lattice"]})
        lat = report["lattice"]
        lines = ["lattice of %s: %d nodes, length %d"
                 % (report["input"], len(lat["nodes"]), lat["length"])]
        for i, n in enumerate(lat["nodes"]):
            lines.append("  [%d] dim %d: %s" % (i, n["dim"],
                                                ", ".join(n["basis"])))
        lines.append("  covers: " + ", ".join("%d<%d" % e for e in lat["covers"]))
        return "\n".join(lines) + "\n"

    report = _load_report(args)
    if args.command == "subfields":
        if report["engine"] != "number-field":
            raise ParseError("subfields applies to polynomials only")
        if args.as_json:
            keep = {k: report[k] for k in
                    ("input", "engine", "status", "degree", "t", "witnesses")}
            return report_to_json(keep)
        w = report["witnesses"]
        lines = ["f = %s: %d distinct principal subfield(s)" % (w["defining"], report["t"])]
        for e in w["principal_subfields"]:
            lines.append("  E_%d = %s (dim %d), f_K = %s"
                         % (e["index"] + 1, e["description"], e["dim"], e["min_poly"]))
        return "\n".join(lines) + "\n"
    if args.command == "minimal":
        if args.as_json:
            keep = {k: report[k] for k in
                    ("input", "engine", "status", "minimal", "t", "count_observed")}
            return report_to_json(keep)
        return "%s: %s\n" % (report["input"],
                             "minimal" if report["minimal"] else "not minimal")
    if args.command == "length":
        if args.as_json:
            keep = {k: report[k] for k in
                    ("input", "engine", "status", "length", "count_observed")}
            return report_to_json(keep)
        return "length of [R, S] for %s: %d\n" % (report["input"], report["length"])
    # classify
    if args.as_json:
        return report_to_json(report)
    return report_to_text(report)


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        out = _run(args)
    except ParseError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    except CapExceeded as e:
        sys.stderr.write("cap exceeded: %s\n" % e)
        return 2
    except ConsistencyError as e:
        sys.stderr.write("INTERNAL CONSISTENCY FAILURE: %s\n" % e)
        return 3
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
