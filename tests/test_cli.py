import json
import os
import re
import subprocess
import sys
import time

import pytest

import l2lab
from l2lab import caps
from l2lab.cli import main
from l2lab.parsing import MAX_DIGITS, MAX_POWER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=10):
    """The CLI as its own process, under the default cap, for ``timeout``
    seconds at most."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(l2lab.__file__)))
    env.pop("L2LAB_CAP", None)
    return subprocess.run([sys.executable, "-m", "l2lab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


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


@pytest.mark.parametrize("argv", [
    [],
    ["classify", "--bogus", "X"],
    ["frobnicate", "X"],
    ["lattice", "--format", "xml", "X"],
    ["lattice", "--json", "X^4 - 2"],       # --format json does that job
])
def test_usage_error_exit_code_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exit_code_1_in_a_process():
    proc = run_process("classify", "--bogus", "X")
    assert proc.returncode == 1
    assert proc.stderr == "error: l2lab: unrecognized arguments: --bogus\n"


@pytest.mark.parametrize("argv", [["--help"], ["lattice", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert "usage: l2lab" in capsys.readouterr().out


@pytest.mark.parametrize("poly", ["X^2", "(X^2 - 2)^2"])
def test_inseparable_polynomial_exit_code_1(capsys, poly):
    code, out, err = run(capsys, "classify", poly)
    assert code == 1 and err == "error: separable required\n"


def test_algebra_dot_title_is_escaped(tmp_path, capsys):
    doc = {"q": 2, "quotient": "F2[T,Y]/(T^2, Y^2 + Y)", "R": ["T"]}
    code, out, _ = run(capsys, "lattice", "--algebra", _doc(tmp_path, doc),
                       "--format", "dot")
    assert code == 0
    assert re.fullmatch(r'digraph "(?:[^"\\]|\\.)*" \{', out.splitlines()[0])


@pytest.mark.parametrize("doc,key", [
    ({"q": 2, "quotient": "F2[T,Y]/(T^2,Y^2+Y)", "r": ["T"]}, "r"),
    ({"q": 2, "product": ["F2"], "R": "diagonal", "comment": "x"}, "comment"),
    ({"q": 2, "table": {"unit": [1], "table": [[[1]]], "name": ["a"]}}, "name"),
])
def test_unknown_document_key_exit_code_1(tmp_path, capsys, doc, key):
    code, out, err = run(capsys, "length", "--algebra", _doc(tmp_path, doc))
    assert code == 1 and out == ""
    assert err.startswith("error: unknown key %r" % key)


def test_parse_error_exit_code_1(capsys):
    code, out, err = run(capsys, "classify", "X +")
    assert code == 1 and "error" in err


def test_huge_exponent_exit_code_1_at_once():
    # the power is refused before it is expanded, so this returns at once
    proc = run_process("length", "X^100000000")
    assert proc.returncode == 1
    assert "limited to %d" % MAX_POWER in proc.stderr


def test_huge_trager_norm_exit_code_2_at_once():
    # deg 256 gives a norm of degree 65536, refused before it is computed
    proc = run_process("length", "X^256 - 2")
    assert proc.returncode == 2
    assert "Trager norm needs degree 65536, cap is %d" % caps.NORM_DEGREE_CAP \
        in proc.stderr


def test_x9_minus_2_length_in_a_process():
    # factors a degree-81 Trager norm over Q, from 9 modular factors
    proc = run_process("length", "X^9-2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "length of [R, S] for X^9-2: 2"


def _cyclotomic(p):
    return "+".join("X^%d" % k for k in range(p - 1, 1, -1)) + "+X+1"


def test_phi11_length_in_a_process():
    # ten gcds over Q(zeta_11), one per factor of a degree-100 norm
    proc = run_process("length", _cyclotomic(11), timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith(": 2")


def test_phi13_classify_in_a_process():
    # Q(zeta_13) is cyclic of degree 12: one node per divisor of 12
    proc = run_process("classify", "--json", _cyclotomic(13), timeout=30)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["count_observed"] == 6 and payload["length"] == 3


def _doc(tmp_path, doc):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_field_table_cap_exit_code_2(tmp_path, capsys):
    # the q x q tables of F_1009 are refused before they are built
    path = _doc(tmp_path, {"q": 1009, "product": ["F1009"], "R": "diagonal"})
    code, out, err = run(capsys, "length", "--algebra", path)
    assert code == 2 and "F_1009 arithmetic tables" in err


def test_enumeration_adjunction_cap_exit_code_2(tmp_path, capsys, monkeypatch):
    # F2^5 over F2 needs more adjunctions T[s] than a lowered cap allows
    monkeypatch.setattr(caps, "CANDIDATE_CAP", 50)
    path = _doc(tmp_path, {"q": 2, "product": ["F2"] * 5, "R": "diagonal"})
    code, out, err = run(capsys, "classify", "--algebra", path)
    assert code == 2 and "subalgebra enumeration" in err and "adjunctions" in err


def test_f2_7_classify_in_a_process(tmp_path):
    # the partition lattice of a 7-set: Bell(7) nodes, rank 6
    path = _doc(tmp_path, {"q": 2, "product": ["F2"] * 7, "R": "diagonal"})
    proc = run_process("classify", "--json", "--algebra", path, timeout=30)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["count_observed"] == 877 and payload["length"] == 6


def test_f4096_over_f2_classifies(tmp_path, capsys):
    # one node per divisor of 12; the candidate scan would test 8.9e9 subspaces
    path = _doc(tmp_path, {"q": 2, "product": ["F4096"], "R": "diagonal"})
    code, out, err = run(capsys, "classify", "--json", "--algebra", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["count_observed"] == 6 and payload["length"] == 3


def test_huge_prime_q_exit_code_2_at_once(tmp_path):
    # refused before trial division could factor q = 2^61 - 1
    q = 2 ** 61 - 1
    path = _doc(tmp_path, {"q": q, "product": ["F%d" % q], "R": "diagonal"})
    proc = run_process("length", "--algebra", path)
    assert proc.returncode == 2
    assert "F_%d arithmetic tables" % q in proc.stderr


def test_huge_product_factor_exit_code_2_at_once(tmp_path):
    # |S| = 2^64 is refused before the search for an irreducible of degree 64
    path = _doc(tmp_path, {"q": 2, "product": ["F%d" % 2 ** 64]})
    proc = run_process("length", "--algebra", path)
    assert proc.returncode == 2
    assert "product algebra construction" in proc.stderr


@pytest.mark.parametrize("quotient", [
    "F2[X,Y,Z,W]/(X^256,Y^256,Z^256,W^256)",
    "F2[X,Y,Z,W]/(X^256,Y^256,Z^256,W^256,X*Y,X*Z,X*W,Y*Z,Y*W,Z*W)",
    "F2[X,Y]/(X^256-Y,Y^256-X)",
    "F2[X,Y]/(X^200,Y^200)",
], ids=["box-256^4", "axes-dim-1021", "binomials-dim-65536", "box-200^2"])
def test_huge_quotient_exit_code_2_at_once(tmp_path, quotient):
    # the standard monomials are counted against the cap as they are
    # listed, and the message names q^dim as a power, not its decimal digits
    path = _doc(tmp_path, {"q": 2, "quotient": quotient})
    start = time.perf_counter()
    proc = run_process("length", "--algebra", path)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2
    assert re.search(r"quotient algebra construction needs at least 2\^1[3-9] "
                     r"elements, cap is %d " % caps.DEFAULT_ELEMENT_CAP, proc.stderr)


def test_duplicate_generator_exit_code_1(tmp_path, capsys):
    path = _doc(tmp_path, {"q": 2, "quotient": "F2[X,X]/(X^2)"})
    code, out, err = run(capsys, "length", "--algebra", path)
    assert code == 1 and "quotient presentation declares generator X twice" in err


LONG = "1" * (MAX_DIGITS + 1)


@pytest.mark.parametrize("argv,doc", [
    (["X^2 - " + "1" * 5000], None),
    (["X^2 - " + LONG], None),
    ([], {"q": 2, "product": ["F" + "1" * 4400]}),
    ([], {"q": 2, "product": ["F" + LONG]}),
    ([], {"q": 2, "quotient": "F%s[X]/(X^2)" % LONG}),
    ([], {"q": 2, "quotient": "F2[X]/(X^2 + %s)" % LONG}),
    ([], {"q": 2, "table": {"unit": [1], "table": [[[1]]]}, "R": ["(%s)" % LONG]}),
], ids=["poly-5000", "poly-over-limit", "product-4400", "product-over-limit",
        "quotient-base", "quotient-relation", "table-generator"])
def test_over_long_integer_literal_exit_code_1(tmp_path, capsys, argv, doc):
    if doc is not None:
        argv = ["--algebra", _doc(tmp_path, doc)]
    code, out, err = run(capsys, "classify", *argv)
    assert code == 1
    assert err.startswith("error: ") and "limit is %d" % MAX_DIGITS in err
    assert "Traceback" not in err


def test_over_long_json_integer_exit_code_1(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text('{"q": 1%s, "product": ["F2"]}' % ("0" * 5000))
    code, out, err = run(capsys, "classify", "--algebra", str(path))
    assert code == 1
    assert err.startswith("error: invalid JSON") and "Traceback" not in err


def test_non_prime_power_q_exit_code_1(tmp_path, capsys):
    path = _doc(tmp_path, {"q": 6, "product": ["F6"], "R": "diagonal"})
    code, out, err = run(capsys, "length", "--algebra", path)
    assert code == 1 and "6 is not a prime power" in err


GOOD_TABLE = {"unit": [1], "table": [[[1]]]}


@pytest.mark.parametrize("doc", [
    {"q": 2, "table": {"unit": [1], "table": [[[5]]]}},
    {"q": 2, "table": {"unit": [1], "table": [[[-1]]]}},
    {"q": 2, "table": {"unit": [1], "table": [[["a"]]]}},
    {"q": 2, "table": {"unit": [1], "table": [[[[1]]]]}},
    {"q": 2, "table": {"unit": [1], "table": [[[True]]]}},
    {"q": 2, "table": {"unit": [1], "table": [[[1.0]]]}},
    {"q": 2, "table": {"unit": [1], "table": [[[None]]]}},
    {"q": 2, "table": {"unit": [1], "table": 5}},
    {"q": 2, "table": {"unit": [1], "table": "a"}},
    {"q": 2, "table": {"unit": [1], "table": []}},
    {"q": 2, "table": {"unit": [1], "table": [5]}},
    {"q": 2, "table": {"unit": [1], "table": [[[1, 0]]]}},
    {"q": 2, "table": {"unit": 1, "table": [[[1]]]}},
    {"q": 2, "table": {"unit": [2], "table": [[[1]]]}},
    {"q": 2, "table": dict(GOOD_TABLE, names=5)},
    {"q": 2, "table": dict(GOOD_TABLE, names=[1])},
    {"q": 2, "table": GOOD_TABLE, "R": ["(5)"]},
    {"q": 2, "table": GOOD_TABLE, "R": ["(a)"]},
    {"q": 2, "table": GOOD_TABLE, "R": [[1]]},
    {"q": 2, "table": GOOD_TABLE, "R": ["(-1)"]},
    {"q": float("inf"), "table": GOOD_TABLE},
    {"q": 2.5, "table": GOOD_TABLE},
    {"q": "2", "table": GOOD_TABLE},
    {"q": True, "table": GOOD_TABLE},
])
def test_bad_table_document_exit_code_1(tmp_path, capsys, doc):
    code, out, err = run(capsys, "length", "--algebra", _doc(tmp_path, doc))
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


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

    def boom(f, input_text):
        raise ConsistencyError("forced for the exit-code test")

    monkeypatch.setattr(cli_mod, "field_report", boom)
    code, out, err = run(capsys, "classify", "X^4 - 2")
    assert code == 3 and "CONSISTENCY" in err


def test_degree_one_field(capsys):
    code, out, _ = run(capsys, "classify", "X - 1")
    assert code == 0
    assert "length     : 0" in out
