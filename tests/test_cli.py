import json
import os
import subprocess
import sys

import l2lab
from l2lab.cli import main
from l2lab.parsing import MAX_POWER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_polynomial(capsys):
    code, out, err = run(capsys, "classify", "X^4 - 2")
    assert code == 0
    assert "case       : (8d)" in out
    assert "observed 3, predicted 3" in out


def test_classify_json(capsys):
    code, out, err = run(capsys, "classify", "X^4 - 2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] == 2 and payload["length"] == 2


def test_minimal_subcommand(capsys):
    code, out, _ = run(capsys, "minimal", "X^3 - 3*X + 1")
    assert code == 0 and "minimal" in out and "not minimal" not in out
    code, out, _ = run(capsys, "minimal", "X^4 - 2")
    assert code == 0 and "not minimal" in out


def test_subfields_subcommand(capsys):
    code, out, _ = run(capsys, "subfields", "X^6 + 108")
    assert code == 0
    assert "4 distinct principal subfield(s)" in out


def test_length_polynomial(capsys):
    code, out, _ = run(capsys, "length", "X^4 - 10*X^2 + 1")
    assert code == 0 and ": 2" in out


def test_lattice_dot(capsys):
    code, out, _ = run(capsys, "lattice", "X^4 - 2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and out.count("->") == 2


def test_lattice_text(capsys):
    code, out, _ = run(capsys, "lattice", "X^4 - 2")
    assert code == 0 and "3 nodes, length 2" in out


def test_algebra_file(tmp_path, capsys):
    doc = tmp_path / "alg.json"
    doc.write_text(json.dumps({"q": 2, "product": ["F2", "F2", "F2"],
                               "R": "diagonal"}))
    code, out, _ = run(capsys, "classify", "--algebra", str(doc))
    assert code == 0
    assert "case       : (7)" in out
    code, out, _ = run(capsys, "lattice", "--algebra", str(doc), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["lattice"]["nodes"]) == 5


def test_parse_error_exit_code_1(capsys):
    code, out, err = run(capsys, "classify", "X +")
    assert code == 1 and "error" in err


def test_huge_exponent_exit_code_1_at_once():
    # the power is refused before it is expanded, so this returns at once
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(l2lab.__file__)))
    proc = subprocess.run([sys.executable, "-m", "l2lab.cli", "length", "X^100000000"],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 1
    assert "limited to %d" % MAX_POWER in proc.stderr


def test_reducible_polynomial_exit_code_1(capsys):
    code, out, err = run(capsys, "classify", "X^2 - 1")
    assert code == 1 and "not a field" in err


def test_missing_input_exit_code_1(capsys):
    code, out, err = run(capsys, "length")
    assert code == 1


def test_bad_json_exit_code_1(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text("{not json")
    code, out, err = run(capsys, "classify", "--algebra", str(doc))
    assert code == 1 and "invalid JSON" in err


def test_cap_exceeded_exit_code_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("L2LAB_CAP", "8")
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps({"q": 2, "product": ["F4", "F4"], "R": "diagonal"}))
    code, out, err = run(capsys, "classify", "--algebra", str(doc))
    assert code == 2 and "cap" in err.lower()


def test_malformed_cap_exit_code_1(capsys, monkeypatch):
    import io
    monkeypatch.setenv("L2LAB_CAP", "abc")
    doc = json.dumps({"q": 2, "product": ["F4", "F4"], "R": "diagonal"})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, "classify", "--algebra", "-")
    assert code == 1 and "L2LAB_CAP must be an integer" in err


def test_both_inputs_rejected(tmp_path, capsys):
    doc = tmp_path / "alg.json"
    doc.write_text(json.dumps({"q": 2, "product": ["F2"], "R": "diagonal"}))
    code, out, err = run(capsys, "classify", "X^2 - 2", "--algebra", str(doc))
    assert code == 1


def test_consistency_failure_exit_code_3(capsys, monkeypatch):
    from l2lab.errors import ConsistencyError
    import l2lab.cli as cli_mod

    def boom(f, input_text=None):
        raise ConsistencyError("forced for the exit-code test")

    monkeypatch.setattr(cli_mod, "field_report", boom)
    code, out, err = run(capsys, "classify", "X^4 - 2")
    assert code == 3 and "CONSISTENCY" in err


def test_degree_one_field(capsys):
    code, out, _ = run(capsys, "classify", "X - 1")
    assert code == 0
    assert "length     : 0" in out
