"""Every named benchmark input, and the random extensions of seeds 1-60,
replayed through the command line against their stored reports.

``perfbench/expected.json`` holds the ``classify --json`` report of each
named input of ``perfbench/corpus.py``, without ``timing_ms``.  A report
that changes, a predicate entry included, fails here before the
benchmark counts the input as undecided.  Both files are only read.

``golden_random_reports.json`` beside this file holds, one line each,
the reports of ``corpus.random_extensions(seed)`` for seeds 1-60 (180
small algebras over F_2 and F_3), likewise without ``timing_ms``.  They
catch a flag that changes on inputs the named corpus does not reach.
``golden_field_reports.json`` does the same for the number fields in
``FIELD_INPUTS`` below: Galois and non-Galois extensions, with k among
the principal subfields and without.  Rewrite both files only from a
checkout whose reports are known to be right:

    PYTHONPATH=src python3 tests/test_golden_reports.py --write
"""

import io
import json
import sys
from pathlib import Path

import pytest

from l2lab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import corpus  # noqa: E402

EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
NAMED = [inp for workload in corpus.WORKLOADS for inp in corpus.named_inputs(workload)]

RANDOM_FILE = Path(__file__).resolve().parent / "golden_random_reports.json"
RANDOM = [inp for seed in range(1, 61) for inp in corpus.random_extensions(seed)]

FIELD_FILE = Path(__file__).resolve().parent / "golden_field_reports.json"
FIELD_INPUTS = [
    "X^2-2",                                  # Galois, minimal
    "X^5-2",                                  # non-Galois, minimal
    "X^4+X+1",                                # non-Galois (S_4), minimal
    "X^4+3",                                  # non-Galois, length 2, k in E
    "X^4+1",                                  # Galois (Phi_8), length 2, k not in E
    "X^6+3",                                  # Galois, length 2, k not in E
    "X^6-3",                                  # non-Galois, length 2, k in E
    "X^6-9*X^4-4*X^3+27*X^2-36*X-23",         # Q(2^(1/3), 3^(1/2)), non-Galois
    "X^6+X^5+X^4+X^3+X^2+X+1",                # Phi_7, Galois, length 2, k in E
    "X^6+X^3+1",                              # Phi_9, Galois, length 2, k in E
    "X^8+1",                                  # Phi_16, Galois, length 3
    "X^8-3",                                  # non-Galois, length 3
    "X^9-2",                                  # non-Galois, length 2, k in E
    "X^10+X^9+X^8+X^7+X^6+X^5+X^4+X^3+X^2+X+1",  # Phi_11, Galois, length 2
    "X^12+X^11+X^10+X^9+X^8+X^7+X^6+X^5+X^4+X^3+X^2+X+1",  # Phi_13, degree-144 norm
    "X^16-2",                                 # non-Galois, degree-256 norm
    "X^4-X^2/7+3/11",                         # rational: the norm is scaled by d = 77
    "X^5-X/3-1/2",                            # rational, d = 6
    "X^6+X/1234567891011+1",                  # rational, large d: several gcd primes
]
FIELDS = [corpus.Input(f, ["classify", "--json", f]) for f in FIELD_INPUTS]


def _report(inp):
    """The ``classify`` report of ``inp`` without ``timing_ms``, run in
    this process."""
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO((inp.stdin or b"").decode()), io.StringIO()
    try:
        code = main(inp.argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = stdin, stdout
    assert code == 0, inp.id
    report = json.loads(out)
    del report["timing_ms"]
    return report


def test_every_named_input_has_a_stored_report():
    assert sorted(inp.id for inp in NAMED) == sorted(EXPECTED)


@pytest.mark.parametrize("inp", NAMED, ids=[inp.id for inp in NAMED])
def test_report_matches_stored(inp):
    assert _report(inp) == EXPECTED[inp.id]


@pytest.fixture(scope="module")
def random_expected():
    return json.loads(RANDOM_FILE.read_text(encoding="utf-8"))


def test_every_random_extension_has_a_stored_report(random_expected):
    assert len(RANDOM) == 180
    assert sorted(inp.id for inp in RANDOM) == sorted(random_expected)


@pytest.mark.parametrize("inp", RANDOM, ids=[inp.id for inp in RANDOM])
def test_random_report_matches_stored(inp, random_expected):
    assert _report(inp) == random_expected[inp.id]


@pytest.fixture(scope="module")
def field_expected():
    return json.loads(FIELD_FILE.read_text(encoding="utf-8"))


def test_every_field_input_has_a_stored_report(field_expected):
    assert sorted(FIELD_INPUTS) == sorted(field_expected)


@pytest.mark.parametrize("inp", FIELDS, ids=FIELD_INPUTS)
def test_field_report_matches_stored(inp, field_expected):
    assert _report(inp) == field_expected[inp.id]


def _write(path, inputs):
    lines = ["%s: %s" % (json.dumps(inp.id), json.dumps(_report(inp), separators=(",", ":")))
             for inp in sorted(inputs, key=lambda inp: inp.id)]
    path.write_text("{\n%s\n}\n" % ",\n".join(lines), encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    _write(RANDOM_FILE, RANDOM)
    _write(FIELD_FILE, FIELDS)
