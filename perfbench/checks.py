"""Output checks, made apart from the program.

    python3 perfbench/checks.py --workload W --dir DIR

reads ``DIR/result.json`` and the files the worker wrote, checks them
against the benchmark's own computations, and prints as its last line
``{"correct": bool, "problems": [...]}``.  It runs in its own process after
the timed one has ended, so its oracle imports (scipy.special,
scipy.integrate) count in neither ``setup_s`` nor ``peak_rss_mb``.  It
imports nothing from cp2tori: every formula below is written out here from
the paper's definitions.
"""

from __future__ import annotations

import argparse
import collections
import csv
import hashlib
import json
import math
import os
import re

import numpy as np
from scipy import integrate, special

import inputs

E_CLIFFORD = 4.0 * math.pi ** 2 / (3.0 * math.sqrt(3.0))
CLIFFORD_RATIO = 4.0 / (3.0 * math.sqrt(3.0))
EPS = 1e-4  # verify's default epsilon
STRIP_X_CAP, STRIP_S_CAP = 0.875, 0.5
THRESHOLDS = dict(zip(inputs.CERT_TARGETS, (1.0, 0.9, 0.9, 0.9, CLIFFORD_RATIO, CLIFFORD_RATIO)))
SCAN_TOL = 1e-9      # relative; the CSV holds 12 digits, an error of 1e-6 must show
RESIDUAL_MAX = 1e-6


# ----------------------------------------------------------------------
# The family, from the paper
# ----------------------------------------------------------------------


class Point:
    """Derived constants of one moduli point, with E and K from scipy."""

    def __init__(self, alpha, a1, a2, branch):
        w1, w2, w3 = alpha
        self.alpha = np.array(alpha, dtype=float)
        self.a1, self.a2 = a1, a2
        self.c2 = inputs.c2_root(alpha, a1, a2, branch)
        c1 = -w1 * w2 * w3
        self.b = float(-(w1 + w2 + w3))
        self.a3 = (c1 ** 2 + self.c2 ** 2) / (a1 * a2)
        self.slope = (self.b * c1 + (a1 + a2) * self.a3 - a1 * a2) / self.c2
        self.root = math.sqrt(a1 + self.a3)
        self.m = (a1 - a2) / (a1 + self.a3)
        self.K = float(special.ellipk(self.m))
        self.E = float(special.ellipe(self.m))
        self.period = 2.0 * self.K / self.root
        self.offsets = np.array([w2 * w3, w1 * w3, w1 * w2], dtype=float)
        self.den = np.array([(w1 - w2) * (w1 - w3), (w2 - w1) * (w2 - w3),
                             (w3 - w1) * (w3 - w2)], dtype=float)

    def area(self):
        """A = 2 pi * 2((a1+a3) E(m) - a3 K(m)) / sqrt(a1+a3), from the
        integral of sn^2 over a period."""
        return 2.0 * math.pi * 2.0 * ((self.a1 + self.a3) * self.E - self.a3 * self.K) / self.root

    def willmore(self):
        return 2.0 * math.pi * self.period * (self.slope ** 2 + self.b ** 2)

    def conformal(self, x):
        sn = special.ellipj(np.asarray(x) * self.root, self.m)[0]
        return self.a1 - (self.a1 - self.a2) * sn * sn

    def phase_at_period(self, i):
        """G_i(T): the phase integrand integrated over one period."""
        def g(x):
            cf = float(self.conformal(x))
            return (self.c2 - 0.5 * self.slope * cf) / (cf + self.offsets[i])
        val, _ = integrate.quad(g, 0.0, self.period, epsabs=1e-13, epsrel=1e-13, limit=400)
        return val

    def radial_squares(self, x):
        """F_i(x)^2 = (cf + alpha_j alpha_k) / ((alpha_i - alpha_j)(alpha_i - alpha_k))."""
        return (float(self.conformal(x)) + self.offsets) / self.den


# ----------------------------------------------------------------------
# The bound functions, from their displays
# ----------------------------------------------------------------------


def b1(x, y):
    return ((16 + 8 * x + 8 * y - 7 * x * x - 14 * x * y - 7 * y * y)
            / (16 * np.sqrt((2 - x) * (2 - x - y) * x)))


def b2(x, y):
    """b2 = (u + (u f/(x y) - x y)^2 / (4 g)) / sqrt(x + g/(x y)), from the
    squeeze functions f = x^2 y^2 A/d^2 and g = x^2 y^2 B/d^2, where
    u = x + y, s = 2 - u, d = x - y, A = 2s - d^2/s and B = 2s - d^2/(2s);
    the x^2 y^2 factors are cancelled so that y = 0 is regular."""
    u, s, d = x + y, 2 - x - y, x - y
    A = 2 * s - d * d / s
    B = 2 * s - d * d / (2 * s)
    return (u + d * d * (u * A / (d * d) - 1) ** 2 / (4 * B)) / np.sqrt(x + x * y * B / (d * d))


def b2_strip(x, rho):
    s = 2 - x * (2 - rho)
    return (((2 - rho) * s * s - x * rho * rho) ** 2
            / (2 * s ** 3 * rho * np.sqrt(x * rho * rho + 2 * (1 - rho) * s)))


def b2_corner(s, rho):
    x = 1 - s * (1 - rho) / 2
    y = 1 - s * (1 + rho) / 2
    return (2 - s - rho * rho) ** 2 / (2 * rho * np.sqrt(x * s * (s * rho * rho + 2 * y)))


def scalar_1(x):
    return (1 + 9 * x / 49) / np.sqrt(1 + x)


def scalar_2(x):
    return math.sqrt(8 / 7) * (1 + x / 4) / np.sqrt(1 + 1.5 * x)


def in_domain(target, x, y):
    """The stated domain of each certificate, in its own coordinates."""
    if target == "B1":
        return (0 <= y) & (y <= x) & (x <= 1) & (x >= EPS) & (x + y <= 2 - EPS)
    if target == "B2":
        return (0 <= y) & (y <= x - EPS) & (x <= 1)
    if target == "B2-diagonal-strip":
        return (0 < x) & (x <= STRIP_X_CAP) & (0 < y) & (y <= 1) & (x * y <= EPS)
    if target == "B2-diagonal-strip-corner":
        return (0 < x) & (x <= STRIP_S_CAP) & (0 < y) & (y <= 1) & (x * y <= EPS)
    return (0 <= x) & (x <= 100) & (y == 0)


def sample_domain(target, rng, n):
    if target in ("B1", "B2"):
        pts = rng.uniform(0, 1, size=(4 * n, 2))
        pts = pts[in_domain(target, pts[:, 0], pts[:, 1])]
        return pts[:n]
    if target.startswith("B2-diagonal"):
        cap = STRIP_X_CAP if target == "B2-diagonal-strip" else STRIP_S_CAP
        x = rng.uniform(0, cap, size=n)
        r = rng.uniform(0, 1, size=n) * np.minimum(1, EPS / x)
        return np.column_stack([x, r])
    return np.column_stack([rng.uniform(0, 100, size=n), np.zeros(n)])


def bound_values(target, x, y):
    """The certified function (and, for the band charts, b2 itself at the
    same point, which the chart's function bounds from below)."""
    if target == "B1":
        return [b1(x, y)]
    if target == "B2":
        return [b2(x, y)]
    if target == "B2-diagonal-strip":
        return [b2_strip(x, y), b2(x, x * (1 - y))]
    if target == "B2-diagonal-strip-corner":
        return [b2_corner(x, y), b2(1 - x * (1 - y) / 2, 1 - x * (1 + y) / 2)]
    return [scalar_1(x) if target == "scalar-1" else scalar_2(x)]


def box_digest(boxes):
    h = hashlib.sha256()
    h.update(str(boxes.shape).encode())
    h.update(np.ascontiguousarray(boxes, dtype=np.float64).tobytes())
    return h.hexdigest()


def _uncovered(boxes, pts):
    """Points of ``pts`` in no box of ``boxes``."""
    missed = []
    for chunk in np.array_split(pts, max(1, len(pts) // 100)):
        px, py = chunk[:, :1], chunk[:, 1:]
        inside = ((boxes[:, 0] <= px) & (px <= boxes[:, 1])
                  & (boxes[:, 2] <= py) & (py <= boxes[:, 3]))
        missed.extend(chunk[~inside.any(axis=1)].tolist())
    return missed


def check_certificate_boxes(target, record, boxes, rng, problems, n_points=2000):
    """The boxes belong to the certificate record, cover its domain, and
    the certified function clears the threshold inside them."""
    if record.get("status") != "proved":
        problems.append(f"{target}: status {record.get('status')}, not proved")
    if record.get("box_digest") != box_digest(boxes):
        problems.append(f"{target}: saved boxes do not match the certificate digest")
    if record.get("retained_boxes") != len(boxes):
        problems.append(f"{target}: {len(boxes)} boxes saved, "
                        f"certificate says {record.get('retained_boxes')}")
    if len(boxes) == 0:
        problems.append(f"{target}: no retained boxes")
        return
    missed = _uncovered(boxes, sample_domain(target, rng, n_points))
    if missed:
        problems.append(f"{target}: {len(missed)} of {n_points} domain points lie in no "
                        f"retained box, e.g. {missed[0]}")
    lo, hi = boxes[:, 0::2], boxes[:, 1::2]
    pts = lo + (hi - lo) * rng.uniform(0, 1, size=lo.shape)
    pts = pts[in_domain(target, pts[:, 0], pts[:, 1])]
    thr = THRESHOLDS[target]
    with np.errstate(divide="ignore", invalid="ignore"):
        for vals in bound_values(target, pts[:, 0], pts[:, 1]):
            bad = ~(vals > thr)
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                problems.append(f"{target}: value {vals[i]!r} <= {thr} at "
                                f"{pts[i].tolist()} inside a retained box")


def _load_json(path, problems):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {path}: {exc}")
        return None


# ----------------------------------------------------------------------
# Workload checks
# ----------------------------------------------------------------------


def check_sweep(out):
    problems = []
    with open(out["csv"]) as fh:
        rows = list(csv.DictReader(fh))
    expected = inputs.sweep_keys([tuple(t) for t in out["triples"]], out["grid"])

    def key(alpha, a1, a2, br):
        return (tuple(int(v) for v in alpha), f"{float(a1):.12g}", f"{float(a2):.12g}", br)

    exact = {key(*k): k for k in expected}
    got = collections.Counter(key((r["alpha1"], r["alpha2"], r["alpha3"]),
                                  r["a1"], r["a2"], r["branch"]) for r in rows)
    if len(rows) != len(expected) or set(got) != set(exact) or max(got.values(), default=1) > 1:
        problems.append(f"scan has {len(rows)} rows, the feasible grid has {len(expected)} "
                        f"points; {len(set(exact) - set(got))} missing, "
                        f"{len(set(got) - set(exact))} unexpected")
    worst = collections.defaultdict(float)
    for r in rows:
        k = key((r["alpha1"], r["alpha2"], r["alpha3"]), r["a1"], r["a2"], r["branch"])
        if k not in exact:
            continue
        p = Point(*exact[k])
        ref = {"c2": p.c2, "a3": p.a3, "a": p.slope, "T": p.period,
               "A": p.area(), "W": p.willmore()}
        ref["E"] = ref["A"] + ref["W"] / 8
        ref["ratio"] = ref["E"] / E_CLIFFORD
        for col, v in ref.items():
            worst[col] = max(worst[col], abs(float(r[col]) - v) / abs(v))
        e, a, w = float(r["E"]), float(r["A"]), float(r["W"])
        worst["E = A + W/8"] = max(worst["E = A + W/8"], abs(e - (a + w / 8)) / e)
        if not float(r["ratio"]) > 1.0:
            problems.append(f"ratio {r['ratio']} <= 1 at {k}")
    for col, err in worst.items():
        if err > SCAN_TOL:
            problems.append(f"scan column {col}: relative error {err:.3g} > {SCAN_TOL:g}")
    return problems


def check_certify(out, rng):
    problems = []
    text = out["stdout"]
    m = re.search(r"energy bound spot checks: (\d+) random feasible points "
                  r"\(seed=(\d+)\): (\d+) violations", text)
    if not m or (int(m[1]), int(m[2]), int(m[3])) != (200, out["spot_seed"], 0):
        problems.append(f"spot-check line wrong or missing: {m[0] if m else None}")
    if len(re.findall(r"^tail .*-> ok$", text, re.M)) != 2:
        problems.append("the two monotone-tail lines do not both say ok")
    for target in inputs.CERT_TARGETS:
        record = _load_json(os.path.join(out["cert_dir"], f"{target}.json"), problems)
        if record is None:
            continue
        if record.get("threshold") != THRESHOLDS[target] and not (
                target.startswith("scalar")
                and 0 <= record.get("threshold", -1) - CLIFFORD_RATIO <= 1e-15):
            problems.append(f"{target}: threshold {record.get('threshold')}")
        boxes = np.load(os.path.join(out["boxes_dir"], f"{target}.npy"))
        check_certificate_boxes(target, record, boxes, rng, problems)
    raised = out["b1_raised"]
    record = _load_json(os.path.join(raised["cert_dir"], "B1.json"), problems)
    if raised["exit_code"] != 3:
        problems.append(f"verify --target B1 --threshold 1.2 exited {raised['exit_code']}, not 3")
    if record is not None:
        wit = record.get("witness")
        if record.get("status") != "failed" or not wit:
            problems.append("B1 at threshold 1.2 did not fail with a witness")
        else:
            x, y = float(wit[0]), float(wit[1])
            if not (in_domain("B1", x, y) and b1(x, y) < 1.2):
                problems.append(f"B1 witness {wit} is not a point of the domain with b1 < 1.2")
    return problems


def check_replay(out):
    problems = []
    if not out["rounds"]:
        return ["no replay round ran"]
    for results in out["rounds"]:
        if sorted(r["target"] for r in results) != sorted(inputs.CERT_TARGETS):
            problems.append(f"replayed targets {[r['target'] for r in results]}")
        for r in results:
            if r["ok"] is not True:
                problems.append(f"{r['target']} replayed {r['ok']}")
    for r in out["rounds"][-1]:
        target = r["target"]
        record = _load_json(os.path.join(out["boxes_dir"], f"{target}.json"), problems)
        boxes = np.load(os.path.join(out["boxes_dir"], f"{target}.npy"))
        if record is None:
            continue
        if r["boxes"] != len(boxes) or record.get("retained_boxes") != len(boxes):
            problems.append(f"{target}: {r['boxes']} boxes replayed, {len(boxes)} saved, "
                            f"certificate says {record.get('retained_boxes')}")
        if record.get("box_digest") != box_digest(boxes):
            problems.append(f"{target}: saved boxes do not match the certificate digest")
        if target in THRESHOLDS and abs(r["threshold"] - THRESHOLDS[target]) > 1e-15:
            problems.append(f"{target}: replayed at threshold {r['threshold']}, "
                            f"its claim is {THRESHOLDS[target]}")
    # b2 dips below 1 near y = 0, so B2 at threshold 1.0 must not replay
    x = np.linspace(0.05, 1.0, 2000)
    dip = float(np.min(b2(x, np.full_like(x, 1e-9))))
    raised = out["raised"]
    if not dip < 1.0:
        problems.append(f"float sampling finds b2 >= 1 near y = 0 (min {dip}); "
                        "the raised-threshold check would prove nothing")
    if raised["target"] != "B2" or raised["threshold"] != 1.0 or raised["ok"] is not False:
        problems.append(f"B2 at threshold 1.0 replayed {raised['ok']} "
                        f"(b2 dips to {dip:.4f} near y = 0)")
    return problems


def _read_export(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    cols = {c: np.array([float(r[c]) for r in rows])
            for c in ("x", "y", "re_w1", "im_w1", "re_w2", "conformal_factor", "beta", "flagged")}
    return cols


def check_export(p, point, grid, problems):
    label = f"export at {point['alpha']} a1={point['a1']:.6g} a2={point['a2']:.6g} {point['branch']}"
    cols = _read_export(point["csv"])
    if len(cols["x"]) != grid[0] * grid[1]:
        problems.append(f"{label}: {len(cols['x'])} rows, expected {grid[0] * grid[1]}")
        return
    err = np.max(np.abs(cols["conformal_factor"] - p.conformal(cols["x"])))
    if err > 1e-9 * p.a1:
        problems.append(f"{label}: conformal_factor off by {err:.3g}")
    resid = cols["beta"] - (p.slope * cols["x"] + p.b * cols["y"])
    spread = np.abs(np.angle(np.exp(1j * (resid - resid[0]))))
    if spread.max() > 1e-6:
        problems.append(f"{label}: beta is not a x + b y plus a constant "
                        f"(off by {spread.max():.3g} rad)")
    with open(point["obj"]) as fh:
        verts = np.array([[float(v) for v in line.split()[1:]] for line in fh if line.startswith("v ")])
    keep = cols["flagged"] == 0
    want = np.column_stack([cols["re_w1"], cols["im_w1"], cols["re_w2"]])[keep]
    if verts.shape != want.shape or np.max(np.abs(verts - want), initial=0) > 1e-7 * (1 + np.abs(want).max()):
        problems.append(f"{label}: OBJ vertices do not match the CSV")


def check_periodicity(p, point, problems):
    label = f"periodicity at {point['alpha']} a1={point['a1']:.6g} a2={point['a2']:.6g} {point['branch']}"
    res = _load_json(point["periodicity"], problems)
    if res is None:
        return
    G = np.array([p.phase_at_period(i) for i in range(3)])
    if abs(res["T"] - p.period) > 1e-12 * p.period:
        problems.append(f"{label}: T = {res['T']}, expected {p.period}")
    for name, ref in (("dG13", G[0] - G[2]), ("dG23", G[1] - G[2])):
        if abs(res[name] - ref) > 1e-8:
            problems.append(f"{label}: {name} = {res[name]}, quadrature gives {ref}")
    if res["status"] != "periodic":
        return
    # G(x + N T) = G(x) + N G(T): the lift at (x + N T, y + N tau) differs
    # from the lift at (x, y) by the phases N (G_i(T) + alpha_i tau).
    n, tau = res["N"], res["tau"]
    phases = n * G + p.alpha * (n * tau)
    wrap = [math.remainder(phases[i] - phases[2], 2 * math.pi) for i in (0, 1)]
    allowed = 2 * math.pi * n * res["approx_error"] + n * 1e-10 + 1e-9
    if max(abs(w) for w in wrap) > allowed:
        problems.append(f"{label}: lattice N = {n} does not close: phase slips {wrap} rad")
    x = 0.37 * p.period
    dist = 1 - abs(np.sum(p.radial_squares(x) * np.exp(1j * (phases - phases[2]))))
    if dist > 0.5 * allowed ** 2 + 1e-12:
        problems.append(f"{label}: projective distance {dist:.3g} after N periods")


def check_immersion(out):
    problems = []
    for point, report in zip(out["points"], out["reports"]):
        if report is None:
            problems.append(f"no residual report for {point['alpha']}")
            continue
        bad = {k: v for k, v in report.items() if k != "grid" and not v <= RESIDUAL_MAX}
        if bad:
            problems.append(f"residuals above {RESIDUAL_MAX:g} at {point['alpha']}: {bad}")
        p = Point(tuple(point["alpha"]), point["a1"], point["a2"], point["branch"])
        check_export(p, point, out["export_grid"], problems)
        check_periodicity(p, point, problems)
    return problems


def check(workload, out, seed=0):
    rng = np.random.default_rng(seed)
    if workload == "sweep":
        return check_sweep(out)
    if workload == "certify":
        return check_certify(out, rng)
    if workload == "replay":
        return check_replay(out)
    return check_immersion(out)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(args.dir, "result.json")) as fh:
        out = json.load(fh)["outputs"]
    try:
        problems = check(args.workload, out, args.seed)
    except Exception as exc:  # missing or malformed output is a failed check
        problems = [f"the outputs could not be checked: {exc!r}"]
    print(json.dumps({"correct": not problems, "problems": problems[:20]}))


if __name__ == "__main__":
    main()
