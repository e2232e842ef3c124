"""The l2lab command line, with the host's speed sampled while it runs.

    python perfbench/speed.py classify --json X^4-2

Runs `l2lab.cli.main` in this process, as the console script does; with
no arguments it only imports `l2lab.cli`, the set-up the benchmark times.
The reference job (`job`) runs once before the CLI starts, every
`PERIOD_S` of process CPU time from a SIGPROF handler, and once after the
CLI returns; each run is timed.  The last line of standard error is
`perfbench-speed RUNS CPU_S WALL_S`, the number of runs and the CPU and
wall seconds they took, from which the benchmark scales the process's
times to the reference speed (`run.scaled`).

On a shared 2-vCPU Xeon host the speed of user code swings by up to
1.7x from one second to the next.  The job is the interpreter work l2lab
is made of, exact arithmetic on `Fraction` polynomials, so it slows and
speeds up with l2lab: timed inside the process, at the moments l2lab
runs, it tracks l2lab far better than a job timed between inputs or a
loop of a few microseconds.
"""

import random
import signal
import sys
import time
from fractions import Fraction

PERIOD_S = 0.1
ROUNDS = 8            # about 8 ms of CPU per run of the job


def _rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        off = len(a) - len(b)
        for i, bi in enumerate(b):
            a[off + i] -= c * bi
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def job(rounds=ROUNDS):
    """Euclid's algorithm over Q on fixed random polynomials of degree 11
    and 10; returns the sum of the gcd degrees."""
    rng = random.Random(7)
    total = 0
    for _ in range(rounds):
        a = [Fraction(rng.randint(-9, 9)) for _ in range(11)] + [Fraction(1)]
        b = [Fraction(rng.randint(-9, 9)) for _ in range(10)] + [Fraction(1)]
        while b:
            a, b = b, _rem(a, b)
        total += len(a) - 1
    return total


class Sampler:
    """Runs and times the job; `cpu_s` and `wall_s` sum over `runs`."""

    def __init__(self):
        self.runs = 0
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def sample(self, *_):
        c, w = time.thread_time(), time.perf_counter()
        job()
        self.cpu_s += time.thread_time() - c
        self.wall_s += time.perf_counter() - w
        self.runs += 1


def main():
    sampler = Sampler()
    sampler.sample()
    signal.signal(signal.SIGPROF, sampler.sample)
    signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
    try:
        from l2lab.cli import main as cli_main
        code = cli_main(sys.argv[1:]) if len(sys.argv) > 1 else 0
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        sampler.sample()
        sys.stderr.write("\nperfbench-speed %d %.9f %.9f\n"
                         % (sampler.runs, sampler.cpu_s, sampler.wall_s))
    return code


if __name__ == "__main__":
    sys.exit(main())
