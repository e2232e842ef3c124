"""Every named benchmark input replayed through the command line against
its stored report.

``perfbench/expected.json`` holds the ``classify --json`` report of each
named input of ``perfbench/corpus.py``, without ``timing_ms``.  A report
that changes, a predicate entry included, fails here before the
benchmark counts the input as undecided.  Both files are only read.
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


def test_every_named_input_has_a_stored_report():
    assert sorted(inp.id for inp in NAMED) == sorted(EXPECTED)


@pytest.mark.parametrize("inp", NAMED, ids=[inp.id for inp in NAMED])
def test_report_matches_stored(inp, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO((inp.stdin or b"").decode()))
    assert main(inp.argv) == 0
    report = json.loads(capsys.readouterr().out)
    del report["timing_ms"]
    assert report == EXPECTED[inp.id]
