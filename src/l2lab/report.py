"""Report assembly and output formats (text, JSON, DOT).

The JSON field names here are frozen; docs/report.schema.json in the
repository describes them and the golden-file tests validate against it.
``field_report`` and ``algebra_report`` import their engine when called,
so a process loads only the engine its input needs.
"""

import json
import time

from .errors import ConsistencyError
from .lattice import lattice_data


def field_report(f, input_text):
    """Full classification of Q < Q[x]/(f) via principal subfields."""
    from .fieldlattice import (build_lattice, galois_length_two_check, is_length_two,
                               is_minimal_extension, verify_minpoly_product_identity)
    from .numberfield import Subfield, make_field, nf_str, poly_str
    from .principal import compute_principal_subfields
    t0 = time.perf_counter()
    L = make_field(f)
    ps = compute_principal_subfields(L)
    lat = build_lattice(ps)
    I_E = verify_minpoly_product_identity(ps, lat)
    minimal = is_minimal_extension(ps, lat)
    l2, info = is_length_two(ps, lat)
    witnesses = {
        "defining": poly_str(ps.system.defining),
        "factors_over_L": [poly_str(g) for g in ps.system.factors],
        "principal_subfields": [{
            "index": b,
            "description": e.describe(),
            "dim": e.dim,
            "basis": [nf_str(v) for v in e.basis],
            "min_poly": poly_str(ps.m[b]),
            "Gamma": list(ps.gamma[b]),
            "I": I_E[b],
        } for b, e in enumerate(ps.E)],
        "Phi": list(ps.phi),
    }
    report = {
        "input": input_text,
        "engine": "number-field",
        "status": "ok",
        "degree": L.n,
        "minimal": minimal,
        "length": lat.length,
        "count_observed": len(lat),
        "count_predicted": info.get("predicted_count") if l2 else (2 if minimal else None),
        "t": ps.t,
        "case": "(8d)" if l2 else (
            "not length 2 (minimal extension)" if minimal else "not length 2"),
        "witnesses": witnesses,
        "timing_ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    if l2:
        report["k_in_E"] = info["k_in_E"]
    report["galois"] = galois_length_two_check(lat, ps)
    if report["count_predicted"] is not None and \
            report["count_predicted"] != report["count_observed"]:
        raise ConsistencyError("predicted %d != observed %d"
                               % (report["count_predicted"], report["count_observed"]))
    report["lattice"] = lattice_data(lat, Subfield.describe, nf_str)
    return report


def algebra_report(S, R, input_echo):
    from .classify import analyze_extension, classify_extension
    t0 = time.perf_counter()
    a = analyze_extension(R, S)
    verdict = classify_extension(a)
    report = {
        "input": input_echo,
        "engine": "finite-algebra",
        "status": "ok",
        "q": S.field.q,
        "dim_S": S.dim,
        "dim_R": R.dim,
        "minimal": verdict["minimal"],
        "length": verdict["length"],
        "count_observed": verdict["count_observed"],
        "count_predicted": verdict.get("count_predicted"),
        "t": verdict.get("t"),
        "case": verdict["case"],
        "support_size": verdict["support_size"],
        "witnesses": verdict["witnesses"],
        "predicates": verdict["predicates"],
        "timing_ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    if "minimal_type" in verdict:
        report["minimal_type"] = verdict["minimal_type"]
    report["lattice"] = lattice_data(a.lattice, lambda n: "dim %d" % n.dim,
                                     S.element_str)
    return report, a


def lattice_to_dot(data, title):
    """DOT digraph; edges point from the smaller to the larger node."""
    lines = ["digraph \"%s\" {" % _dot_escape(title), "  rankdir=BT;",
             "  node [shape=box, fontname=\"monospace\"];"]
    nodes = data["nodes"]
    for i, n in enumerate(nodes):
        label = "%s\\n(dim %d)" % (_dot_escape(_node_label(n)), n["dim"])
        lines.append("  n%d [label=\"%s\"];" % (i, label))
    for (i, j) in data["covers"]:
        lines.append("  n%d -> n%d;" % (i, j))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_label(n):
    if n["label"].startswith("dim "):
        gens = [b for b in n["basis"] if b != "1"]
        return ", ".join(gens) if gens else "prime field"
    return n["label"]


def _dot_escape(s):
    return s.replace("\\", "\\\\").replace("\"", "\\\"")


def report_to_json(report):
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


def galois_line(g):
    """The degree, its prime factorization (none for degree 1) and
    |[k,L]| against the bound n + 1, with the comparison that holds."""
    primes = g["degree_primes"]
    return "degree %d%s, |[k,L]| = %d %s %d" % (
        g["degree"], " = " + "*".join(map(str, primes)) if primes else "",
        g["count_observed"], "<=" if g["bound_ok"] else ">", g["bound_n_plus_1"])


def report_to_text(report):
    lines = []
    lines.append("input      : %s" % report["input"])
    lines.append("engine     : %s" % report["engine"])
    lines.append("status     : %s" % report["status"])
    if report["engine"] == "number-field":
        lines.append("degree     : %d" % report["degree"])
        lines.append("t          : %d  (distinct principal subfields)" % report["t"])
    else:
        lines.append("base       : F%d" % report["q"])
        lines.append("dims       : R %d inside S %d" % (report["dim_R"], report["dim_S"]))
        lines.append("support    : %d maximal ideal(s)" % report["support_size"])
    lines.append("minimal    : %s" % report["minimal"])
    lines.append("length     : %d" % report["length"])
    pred = report["count_predicted"]
    lines.append("|[R,S]|    : observed %d, predicted %s"
                 % (report["count_observed"], pred if pred is not None else "n/a"))
    lines.append("case       : %s" % report["case"])
    w = report["witnesses"]
    if report["engine"] == "number-field":
        lines.append("f over L   : %s" % " * ".join(
            ["(X - x)"] + ["(%s)" % g for g in w["factors_over_L"]]))
        for e in w["principal_subfields"]:
            lines.append("  E_%d = %s  dim %d  f_K = %s  Gamma=%s I=%s"
                         % (e["index"] + 1, e["description"], e["dim"],
                            e["min_poly"], e["Gamma"], e["I"]))
        if report.get("galois"):
            lines.append("galois     : " + galois_line(report["galois"]))
    else:
        lines.append("conductor  : span{%s}" % ", ".join(w["conductor"]) if w["conductor"]
                     else "conductor  : 0")
        if "crucial_ideal" in w:
            lines.append("crucial    : span{%s}" % (", ".join(w["crucial_ideal"]) or "0"))
        lines.append("seminormal.: span{%s}" % ", ".join(w["seminormalization"]))
        lines.append("t-closure  : span{%s}" % ", ".join(w["t_closure"]))
    lat = report.get("lattice")
    if lat:
        lines.append("lattice    : %d node(s), longest chain %d"
                     % (len(lat["nodes"]), lat["length"]))
        for i, n in enumerate(lat["nodes"]):
            lines.append("  [%d] dim %d: %s" % (i, n["dim"], _node_label(n)))
        lines.append("  covers   : %s" %
                      ", ".join("%d<%d" % e for e in lat["covers"]))
    lines.append("time       : %.3f ms" % report["timing_ms"])
    return "\n".join(lines) + "\n"
