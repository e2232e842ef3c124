"""Regenerate perfbench/expected.json, the stored reports of the named inputs.

    python3 perfbench/write_expected.py

Run from the root of a checkout whose reports are known to be right.  It
runs `l2lab classify --json` on every named input, refuses to write if a
report is not `ok` or disagrees with the hand-written count or length in
corpus.py, and stores each report without `timing_ms`.
"""

import json
import os
import sys

import corpus
import run


def main():
    root = os.getcwd()
    env = run.child_env(root)
    expected = {}
    for workload in corpus.WORKLOADS:
        for inp in corpus.named_inputs(workload):
            code, out, _, cpu_s, _, _ = run.run_child(
                [sys.executable] + run.CLI + inp.argv, inp.stdin, env,
                run.INPUT_LIMIT_S)
            if code != 0:
                raise SystemExit("%s: exit code %s" % (inp.id, code))
            report = json.loads(out)
            del report["timing_ms"]
            if report["status"] != "ok" or \
                    (inp.count is not None and report["count_observed"] != inp.count) or \
                    (inp.length is not None and report["length"] != inp.length):
                raise SystemExit("%s: report disagrees with corpus.py" % inp.id)
            expected[inp.id] = report
            print("%-22s cpu %.2f s" % (inp.id, cpu_s))
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
