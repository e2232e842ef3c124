"""The l2lab benchmark: one closed-loop client driving the real CLI.

    python3 perfbench/run.py --workload fields --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each input of the workload runs as its
own `l2lab classify --json` process, one at a time; the seed fixes the
order of the inputs and draws the random extensions of the `alg-*`
workloads.  Passes over the inputs repeat while the next one still fits
in `--seconds`.  Every report is checked (see `check_report`); a failed
check marks the run incorrect and counts the input as undecided.

With `--trace 0` the last line carries the end-to-end metrics, medians
over the passes.  Each untraced CLI process runs under `speed.py`, which
times a reference job as the process runs, and its times are quoted at
the reference speed (`scaled`).  With `--trace 1` each round is an
untraced pass and a traced one (`tracing.py`), and the last line carries
the per-layer metrics of the traced pass and the tracing overhead.
Earlier lines give the machine record, with the raw CPU time of each
pass, and one line per input.  NOTES.md explains the workloads and which metric each layer should
move.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import corpus
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
WORK_DIR = ".perfbench"
INPUT_LIMIT_S = 60.0      # per-input time limit
RUN_LIMIT_S = 165.0       # no input may run past this point of a run
SETUP_SAMPLES = 11
CLI = [os.path.join(HERE, "speed.py")]
# Seconds one run of speed.job takes at the reference speed, the speed
# the scaled times are quoted at: about its median on a shared 2-vCPU Xeon
# (Python 3.11.7).
REF_S = 0.008
# How much more l2lab slows than the job: on that Xeon, log l2lab time
# against log job time over X^8-2, X^6-2 and F2^6 processes had slopes
# 1.10-1.18 (NOTES.md, "The reference speed").
BETA = 1.15
OUTCOMES = {0: "ok", 1: "bad-input", 2: "refused", 3: "consistency"}

END_TO_END = {"cpu_s": "s", "wall_s": "s", "geomean_cpu_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB", "decided_frac": "ratio"}

# The per-layer metrics of BENCHMARK.json; NOTES.md says what each moves.
PER_LAYER = [
    "poly.factor_over_number_field.busy_s",
    "poly.resultant_monic.calls", "poly.resultant_monic.busy_s",
    "poly.interpolate.busy_s",
    "poly.factor_over_Q.calls", "poly.factor_over_Q.self_s",
    "poly.factor_mod_p.calls", "poly.factor_mod_p.busy_s",
    "poly.poly_gcd.calls", "poly.poly_gcd.busy_s",
    "exact.kernel.calls", "exact.kernel.busy_s",
    "exact.rref.calls", "exact.rref.busy_s",
    "numberfield.make_field.busy_s",
    "numberfield.intersect_subfields.calls",
    "numberfield.intersect_subfields.busy_s",
    "principal.FactorSystem.busy_s",
    "principal.principal_subfield_of_factor.calls",
    "principal.principal_subfield_of_factor.busy_s",
    "principal.compute_principal_subfields.self_s",
    "fieldlattice.build_lattice.busy_s", "fieldlattice.nodes",
    "fieldlattice.is_length_two.busy_s",
    "fieldlattice.galois_length_two_check.busy_s",
    "finitealg.enumerate_subalgebras.busy_s",
    "finitealg.enumerate_subalgebras.candidates",
    "finitealg.enumerate_subalgebras.nodes",
    "finitealg.enumerate_subalgebras.yield",
    "finitealg.seminormalize.busy_s", "finitealg.t_close.busy_s",
    "finitealg.elements_listed", "finitealg.is_simple_extension.busy_s",
    "classify.check_length_two_predicates.busy_s",
    "classify.cover_types.calls", "classify.cover_types.busy_s",
    "finitealg.maximal_ideals.calls", "finitealg.maximal_ideals.busy_s",
    "finitealg.primitive_idempotents.calls",
    "finitealg.primitive_idempotents.busy_s",
    "finitealg.nilradical.calls", "finitealg.nilradical.busy_s",
    "finitealg.algebra_on_subspace.calls",
    "finitealg.algebra_on_subspace.busy_s",
    "finitealg.conductor.busy_s", "finitealg.msupp.busy_s",
    "classify.analyze_extension.busy_s", "classify.classify_extension.self_s",
    "parsing.parse_polynomial.busy_s", "parsing.parse_algebra.busy_s",
    "report.field_report.self_s", "report.algebra_report.self_s",
    "report.report_to_json.busy_s", "cli.main.busy_s",
] + ["layer.%s.self_s" % layer for layer in tracing.LAYERS] + [
    "check.busy_s", "compute.busy_s", "trace.overhead_frac",
]


class Result:
    """One CLI process: outcome, exit code, CPU and wall seconds, RSS."""

    def __init__(self, inp, code, out, err, cpu_s, wall_s, rss_mb):
        self.input = inp
        self.code = code              # None on timeout
        self.out = out
        self.err = err
        self.cpu_s = self.raw_cpu_s = self.net_cpu_s = cpu_s
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.outcome = "timeout" if code is None else OUTCOMES.get(code, "crash")
        self.report = None

    def scale(self):
        """Quote the times at the reference speed (see `scaled`); without
        speed.py's report (a timeout), they stay as measured."""
        job = speed_report(self.err)
        if job:
            self.net_cpu_s = self.raw_cpu_s - job[1]
            self.cpu_s, self.wall_s = scaled(job, self.cpu_s, self.wall_s)


def speed_report(err):
    """speed.py's (runs, cpu_s, wall_s) of its reference job, or None."""
    lines = err.decode(errors="replace").splitlines()
    words = lines[-1].split() if lines else []
    if len(words) != 4 or words[0] != "perfbench-speed":
        return None
    return int(words[1]), float(words[2]), float(words[3])


def scaled(job, cpu_s, wall_s):
    """A process's CPU and wall seconds at the reference speed.

    `job` is speed.py's report: how many runs of the reference job it
    timed and their CPU and wall seconds, whose mean is the host's speed
    while the process ran.  The job's own time is taken out, and the rest
    scaled by REF_S over that mean, to the power BETA.  The scale depends
    on the host alone, so the result stays proportional to l2lab's time.
    """
    runs, job_cpu, job_wall = job
    return ((cpu_s - job_cpu) * (REF_S * runs / job_cpu) ** BETA,
            (wall_s - job_wall) * (REF_S * runs / job_wall) ** BETA)


def run_child(argv, stdin, env, timeout):
    """Run argv to completion or timeout.

    Returns (code, stdout, stderr, cpu_s, wall_s, rss_mb).

    The child is reaped with wait4 so its own CPU time and peak RSS are
    read exactly; code is None when the time limit killed it.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    waited, out, err = [], [], []
    waiter = threading.Thread(target=lambda: waited.append(
        (os.wait4(proc.pid, 0), time.perf_counter())))
    readers = [threading.Thread(target=lambda: out.append(proc.stdout.read())),
               threading.Thread(target=lambda: err.append(proc.stderr.read()))]
    waiter.start()
    for reader in readers:
        reader.start()
    try:
        if stdin:
            proc.stdin.write(stdin)
        proc.stdin.close()
    except BrokenPipeError:
        pass
    waiter.join(max(timeout, 0.0))
    timed_out = waiter.is_alive()
    if timed_out:
        proc.kill()
        waiter.join()
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    (_, status, usage), end = waited[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out else proc.returncode
    return (code, out[0], err[0], usage.ru_utime + usage.ru_stime, end - start,
            usage.ru_maxrss / 1024.0)


def child_env(root):
    env = dict(os.environ)
    env.pop("L2LAB_CAP", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def pass_metrics(results):
    """End-to-end metrics of one pass, apart from setup_s and decided_frac."""
    cpus = [r.cpu_s for r in results]
    return {
        "cpu_s": sum(cpus),
        "wall_s": sum(r.wall_s for r in results),
        "geomean_cpu_s": math.exp(sum(math.log(max(c, 1e-6)) for c in cpus)
                                  / len(cpus)),
        "peak_rss_mb": max(r.rss_mb for r in results),
    }


def run_pass(inputs, env, deadline, spans_prefix=None):
    """One pass over the inputs; traced when spans_prefix is given, else
    run under speed.py and scaled to the reference speed."""
    results = []
    for k, inp in enumerate(inputs):
        if spans_prefix is None:
            argv = [sys.executable] + CLI + inp.argv
        else:
            path = "%s-%d.json" % (spans_prefix, k)
            if os.path.exists(path):
                os.remove(path)
            argv = [sys.executable, os.path.join(HERE, "tracing.py"), path,
                    inp.id] + inp.argv
        limit = min(INPUT_LIMIT_S, deadline - time.perf_counter())
        if limit <= 0:
            results.append(Result(inp, None, b"", b"", 0.0, 0.0, 0.0))
            continue
        res = Result(inp, *run_child(argv, inp.stdin, env, limit))
        if spans_prefix is None:
            res.scale()
        results.append(res)
    return results


def check_report(res, expected):
    """Mark res.outcome 'wrong' unless its report is the one expected.

    A named input's report must equal the stored one apart from
    `timing_ms`, and show the hand-written count and length.  A random
    extension's count, length and node dimensions must match the
    benchmark's brute-force enumeration (corpus.BruteAlgebra).
    """
    if res.outcome != "ok":
        return
    inp = res.input
    try:
        report = json.loads(res.out)
        report.pop("timing_ms")
        if inp.named:
            good = (report == expected.get(inp.id)
                    and inp.count in (None, report["count_observed"])
                    and inp.length in (None, report["length"]))
        else:
            dims = sorted(n["dim"] for n in report["lattice"]["nodes"])
            good = (report["status"] == "ok" and
                    [report["count_observed"], report["length"], dims]
                    == list(inp.oracle))
    except (ValueError, KeyError, TypeError, AttributeError):
        good = False
    if good:
        res.report = report
    else:
        res.outcome = "wrong"


def measure_setup(env):
    """Median CPU seconds of interpreter start plus `import l2lab.cli`, at
    the reference speed (speed.py with no arguments only imports)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        code, _, err, cpu_s, wall_s, _ = run_child(
            [sys.executable] + CLI, None, env, INPUT_LIMIT_S)
        job = speed_report(err)
        if code != 0 or not job:
            raise SystemExit("import l2lab.cli failed with exit code %s" % code)
        samples.append(scaled(job, cpu_s, wall_s)[0])
    return statistics.median(samples)


def read_spans(traced, prefix):
    """The span files that the traced pass's processes wrote."""
    records = []
    for k in range(len(traced)):
        path = "%s-%d.json" % (prefix, k)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                records.append(json.load(fh))
    return records


def layer_metrics(records, traced, plain):
    """Per-layer metrics of a traced pass; `plain` is its untraced twin."""
    stats, counts, check_s, compute_s = tracing.summarize(records)
    m = {}
    for name, st in stats.items():
        for key, value in st.items():
            m["%s.%s" % (name, key)] = value
    for layer in tracing.LAYERS:
        m["layer.%s.self_s" % layer] = sum(
            m[name + ".self_s"] for name in stats if name.split(".")[0] == layer)
    m.update(counts)
    cands = counts["finitealg.enumerate_subalgebras.candidates"]
    m["finitealg.enumerate_subalgebras.yield"] = (
        counts["finitealg.enumerate_subalgebras.nodes"] / cands if cands else 0.0)
    m["check.busy_s"] = check_s
    m["compute.busy_s"] = compute_s
    m["trace.overhead_frac"] = (sum(r.net_cpu_s for r in traced)
                                / sum(r.net_cpu_s for r in plain) - 1.0)
    return m


def predictions(workload, m):
    """The predicted shares of NOTES.md, each confirmed or contradicted."""
    main = m.get("cli.main.busy_s") or 1e-12
    out = []
    if workload == "fields":
        share = m["layer.poly.self_s"] / main
        out.append(("poly dominates fields", share >= 0.5, share))
        spans = sum(v for k, v in m.items() if k.endswith(".calls")
                    and k.split(".")[0] in ("finitealg", "classify"))
        out.append(("no finitealg/classify spans on fields", spans == 0, spans))
    elif workload == "alg-split":
        share = m["classify.check_length_two_predicates.busy_s"] / main
        out.append(("check_length_two_predicates dominates alg-split",
                    share >= 0.5, share))
    else:
        share = sum(m["finitealg.%s.busy_s" % f] for f in
                    ("enumerate_subalgebras", "seminormalize", "t_close")) / main
        out.append(("enumeration plus closures dominate alg-local",
                    share >= 0.5, share))
    return out


def machine_record(root, seed):
    """CPU model, nproc, Python, commit, source digest, seed, load average."""
    model = commit = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, timeout=30)
            commit = git.stdout.decode().strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "l2lab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"cpu_model": model, "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "commit": commit,
            "source_sha256": digest.hexdigest(), "seed": seed,
            "loadavg_start": os.getloadavg()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "l2lab", "cli.py")):
        sys.stderr.write("perfbench: no l2lab sources under %s/src; run from the "
                         "root of an l2lab checkout\n" % root)
        return 2
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    machine = machine_record(root, args.seed)
    inputs = corpus.workload_inputs(args.workload, args.seed)
    env = child_env(root)
    deadline = start + RUN_LIMIT_S
    run_child([sys.executable, "-c", "import l2lab.cli"], None, env,
              INPUT_LIMIT_S)                 # compile bytecode before timing
    if args.trace == 0:
        setup_s = measure_setup(env)
    else:
        os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
        spans_prefix = os.path.join(root, WORK_DIR, "spans-" + args.workload)

    passes, rounds = [], []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        if args.trace == 0:
            passes.append(run_pass(inputs, env, deadline))
        else:
            plain = run_pass(inputs, env, deadline)
            traced = run_pass(inputs, env, deadline, spans_prefix)
            passes += [plain, traced]
            rounds.append(layer_metrics(read_spans(traced, spans_prefix),
                                        traced, plain))
        now = time.perf_counter()
        if now - t0 + (now - p0) > args.seconds:
            break

    results = [r for p in passes for r in p]
    for r in results:
        check_report(r, expected)
    if args.trace:
        for plain, traced in zip(passes[::2], passes[1::2]):
            for a, b in zip(plain, traced):
                if a.outcome == b.outcome == "ok" and a.report != b.report:
                    b.outcome = "wrong"      # tracing changed the report
    decided = sum(r.outcome == "ok" for r in results)
    machine["loadavg_end"] = os.getloadavg()
    machine["pass_cpu_s"] = [sum(r.raw_cpu_s for r in p) for p in passes]
    for r in results:
        print("input %-22s %-11s exit %-4s cpu %8.3f s  scaled cpu %8.3f s  "
              "scaled wall %8.3f s  rss %7.1f MB"
              % (r.input.id, r.outcome, r.code, r.raw_cpu_s, r.cpu_s,
                 r.wall_s, r.rss_mb))
    print(json.dumps({"machine": machine}))

    if args.trace == 0:
        per_pass = [pass_metrics(p) for p in passes]
        metrics = {name: statistics.median(pm[name] for pm in per_pass)
                   for name in per_pass[0]}
        metrics["setup_s"] = setup_s
        metrics["decided_frac"] = decided / len(results)
        out = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        metrics = {name: statistics.median(r.get(name, 0) for r in rounds)
                   for name in rounds[0]}
        for claim, holds, value in predictions(args.workload, metrics):
            print("prediction: %s: %s (%.4g)"
                  % (claim, "confirmed" if holds else "contradicted", value))
        print(json.dumps({"traced": {k: metrics[k] for k in sorted(metrics)}}))
        out = {k: {"value": metrics.get(k, 0), "unit": _unit(k)}
               for k in PER_LAYER}
    wrong = sum(r.outcome in ("wrong", "consistency", "crash") for r in results)
    print(json.dumps({"correct": wrong == 0, "attempted": len(results),
                      "failed": len(results) - decided, "metrics": out}))
    return 0


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", ".yield")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
