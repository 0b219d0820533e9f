"""Per-layer metrics, computed from the spans of a traced run.

Each metric has a home workload: its value is the median, over that
workload's traced operations, of the per-operation figure (a count of
calls, a sum of durations or of self times), except the ``.us`` means,
which average over every call in the home workload's operations.  The
arrows in README.md say which end-to-end metric each one should move.
"""

from __future__ import annotations

import statistics

import numpy as np

from inputs import CERT_TARGETS
from tracer import CERTIFY_EVAL, REPLAY_EVAL

# name -> (unit, better, home workload)
METRICS = {
    "elliptic.jacobi_sn.calls": ("count", "lower", "sweep"),
    "family.derive_constants.us": ("us", "lower", "sweep"),
    "functionals.energy_mironov.us": ("us", "lower", "sweep"),
    "functionals.quad.calls": ("count", "lower", "sweep"),
    "cli.scan.self_s": ("s", "lower", "sweep"),
    "bounds.certify_lemma4.s": ("s", "lower", "certify"),
    "bounds.certify_lemma5.s": ("s", "lower", "certify"),
    "bounds.lemma5_strip_certificates.s": ("s", "lower", "certify"),
    "bounds.lemma5_strip_certificates.calls": ("count", "lower", "certify"),
    "bounds.scalar_bound_checks.s": ("s", "lower", "certify"),
    "interval.certify_lower_bound.boxes": ("count", "lower", "certify"),
    "interval.certify_lower_bound.retained": ("count", "lower", "certify"),
    "interval.certify_lower_bound.proved_ratio": ("ratio", "higher", "certify"),
    "interval.certify_lower_bound.evaluator_s": ("s", "lower", "certify"),
    "interval.certify_lower_bound.bookkeeping_s": ("s", "lower", "certify"),
    "cli.verify.self_s": ("s", "lower", "certify"),
    "interval.replay_certificate.boxes": ("count", "lower", "replay"),
    "interval.replay_certificate.us_per_box": ("us", "lower", "replay"),
    **{f"interval.replay_certificate.{t}.s": ("s", "lower", "replay")
       for t in CERT_TARGETS},
    "family.quad.calls": ("count", "lower", "immersion"),
    "family.g_phases_cumulative.s": ("s", "lower", "immersion"),
    "family.conformal_factor.s": ("s", "lower", "immersion"),
    "family.g_phases.s": ("s", "lower", "immersion"),
    "immersion.geometry_residuals.self_s": ("s", "lower", "immersion"),
    "immersion.export_samples.self_s": ("s", "lower", "immersion"),
    "immersion.write_csv.s": ("s", "lower", "immersion"),
    "immersion.write_obj.s": ("s", "lower", "immersion"),
    "periodicity.rational_fit.self_s": ("s", "lower", "immersion"),
    "trace.op_s": ("s", "lower", None),
}


def _median(values):
    return statistics.median(values) if values else 0.0


def compute(table, workload):
    """Every metric in METRICS from a ``tracer.SpanTable``."""
    def med(home, name, what):
        return _median(table.per_op(home, name, what))

    def mean_us(home, name):
        idx = table.spans_in(home, name)
        return float(table.dur[idx].mean() * 1e6) if idx.size else 0.0

    cert_idx = table.spans_in("certify", "interval.certify_lower_bound")

    def cert_attr(key):
        return [sum(table.attrs[int(i)][key] for i in cert_idx if table.root[i] == op)
                for op in table.ops.get("certify", [])]

    m = {}
    m["elliptic.jacobi_sn.calls"] = med("sweep", "elliptic.jacobi_sn", "calls")
    m["family.derive_constants.us"] = mean_us("sweep", "family.derive_constants")
    m["functionals.energy_mironov.us"] = mean_us("sweep", "functionals.energy_mironov")
    m["functionals.quad.calls"] = med("sweep", "functionals.quad", "calls")
    m["cli.scan.self_s"] = med("sweep", "cli.cmd_scan", "self")

    for fn in ("certify_lemma4", "lemma5_strip_certificates", "scalar_bound_checks"):
        m[f"bounds.{fn}.s"] = med("certify", f"bounds.{fn}", "s")
    m["bounds.lemma5_strip_certificates.calls"] = med(
        "certify", "bounds.lemma5_strip_certificates", "calls")
    # B2 proper: certify_lemma5 without the companion strips it computes
    lemma5 = table.per_op("certify", "bounds.certify_lemma5", "s")
    strips_inside = []
    k5 = table.ids("bounds.certify_lemma5")
    strip_idx = table.spans_in("certify", "bounds.lemma5_strip_certificates")
    for op in table.ops.get("certify", []):
        inside = [i for i in strip_idx
                  if table.root[i] == op and table.parent[i] >= 0
                  and table.nid[table.parent[i]] == k5]
        strips_inside.append(float(table.dur[inside].sum()))
    m["bounds.certify_lemma5.s"] = _median([a - b for a, b in zip(lemma5, strips_inside)])
    examined, retained = cert_attr("examined"), cert_attr("retained")
    m["interval.certify_lower_bound.boxes"] = _median(examined)
    m["interval.certify_lower_bound.retained"] = _median(retained)
    m["interval.certify_lower_bound.proved_ratio"] = (
        sum(retained) / sum(examined) if sum(examined) else 0.0)
    evaluator = table.per_op("certify", CERTIFY_EVAL, "s")
    total = table.per_op("certify", "interval.certify_lower_bound", "s")
    m["interval.certify_lower_bound.evaluator_s"] = _median(evaluator)
    m["interval.certify_lower_bound.bookkeeping_s"] = _median(
        [t - e for t, e in zip(total, evaluator)])
    m["cli.verify.self_s"] = med("certify", "cli.cmd_verify", "self")

    boxes = table.per_op("replay", REPLAY_EVAL, "calls")
    replay_s = table.per_op("replay", "interval.replay_certificate", "s")
    m["interval.replay_certificate.boxes"] = _median(boxes)
    m["interval.replay_certificate.us_per_box"] = (
        sum(replay_s) / sum(boxes) * 1e6 if sum(boxes) else 0.0)
    replay_idx = table.spans_in("replay", "interval.replay_certificate")
    for target in CERT_TARGETS:
        per_op = [float(sum(table.dur[i] for i in replay_idx
                            if table.root[i] == op and table.attrs[int(i)]["target"] == target))
                  for op in table.ops.get("replay", [])]
        m[f"interval.replay_certificate.{target}.s"] = _median(per_op)

    m["family.quad.calls"] = med("immersion", "family.quad", "calls")
    m["family.g_phases_cumulative.s"] = med("immersion", "family.g_phases_cumulative", "s")
    cf = table.per_op("immersion", "family.conformal_factor", "s")
    cfp = table.per_op("immersion", "family.conformal_factor_prime", "s")
    m["family.conformal_factor.s"] = _median([a + b for a, b in zip(cf, cfp)])
    m["family.g_phases.s"] = med("immersion", "family.g_phases", "s")
    m["immersion.geometry_residuals.self_s"] = med(
        "immersion", "immersion.geometry_residuals", "self")
    m["immersion.export_samples.self_s"] = med("immersion", "immersion.export_samples", "self")
    m["immersion.write_csv.s"] = med("immersion", "immersion.write_csv", "s")
    m["immersion.write_obj.s"] = med("immersion", "immersion.write_obj", "s")
    m["periodicity.rational_fit.self_s"] = med("immersion", "periodicity.rational_fit", "self")

    m["trace.op_s"] = _median(table.per_op(workload, f"op.{workload}", "s"))
    return {name: float(np.float64(v)) for name, v in m.items()}
