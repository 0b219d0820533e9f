"""Command-line front end.

Subcommands: energy, scan, verify, periodicity, export, mnk, feasibility.
Exit codes: 0 success, 2 infeasible parameters, 3 a requested
certification did not come back proved, 64 usage error.  A JSON config
file can pre-set any long option of the subcommand, checked as the same
flag would be; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional

import numpy as np

from . import __version__
from .bounds import (certify_lemma4, certify_lemma5, lemma5_strip_certificates,
                     scalar_bound_checks)
from .errors import Cp2ToriError, InfeasibleParameters
from .family import (AlphaTriple, Branch, ModuliPoint, derive_constants,
                     feasibility_check, lemma3_box)
from .functionals import (SCAN_COLUMNS, HomogeneousParams, _scan_row,
                          _scan_tasks, clifford_energy, energy_mironov,
                          homogeneous_energy)
from .immersion import export_samples, write_csv, write_obj
from .interval import CertStatus
from .mnk import ORIENTATION_CONVENTION, MnkParams, is_torus
from .periodicity import rational_fit

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NOT_PROVED = 3
EXIT_USAGE = 64


def _fmt(v: float) -> str:
    return f"{v:.12g}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _branch(value: str) -> Branch:
    try:
        return Branch(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"branch must be 'minus' or 'plus', got {value!r}")


def _positive(kind):
    """argparse type: a finite number of ``kind`` that is > 0."""
    def parse(value: str):
        v = kind(value)  # a ValueError becomes argparse's "invalid ... value"
        if not (0 < v < math.inf):
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {value!r}")
        return v
    parse.__name__ = f"positive {kind.__name__}"
    return parse


def _alpha_from(ns) -> AlphaTriple:
    return AlphaTriple(*[int(v) for v in ns.alpha])


def _moduli_from(ns) -> ModuliPoint:
    return ModuliPoint(float(ns.a1), float(ns.a2), ns.branch)


def _load_params_file(path: str):
    with open(path) as fh:
        data = json.load(fh)
    out = {}
    if "alpha" in data:
        out["alpha"] = [int(v) for v in data["alpha"]]
    for key in ("a1", "a2"):
        if key in data:
            out[key] = float(data[key])
    if "branch" in data:
        out["branch"] = _branch(str(data["branch"]))
    return out


def _config_value(sub, action, value):
    """A config value read as the same option on the command line would
    be: each item through the option's type and choices, so a bad value
    is a usage error (exit 64)."""
    count = action.nargs if isinstance(action.nargs, int) else None
    items = value if count else [value]
    if not isinstance(items, list) or len(items) != (count or 1):
        sub.error(f"config: {action.dest} takes {count} values, got {value!r}")
    try:
        parsed = [sub._get_value(action, str(v)) for v in items]
        for v in parsed:
            sub._check_value(action, v)
    except argparse.ArgumentError as exc:
        sub.error(f"config: {exc}")
    return parsed if count else parsed[0]


def _apply_config(ns, sub):
    """Fill the options of subcommand parser ``sub`` that were left at
    their defaults from the --config JSON file (flags win), then moduli
    left unset from the --params file."""
    if getattr(ns, "config", None):
        with open(ns.config) as fh:
            cfg = json.load(fh)
        actions = {a.dest: a for a in sub._actions}
        for key, val in cfg.items():
            action = actions.get(key.replace("-", "_"))
            if action is not None and getattr(ns, action.dest, None) == action.default:
                setattr(ns, action.dest, _config_value(sub, action, val))
    if getattr(ns, "params", None):
        for key, val in _load_params_file(ns.params).items():
            if getattr(ns, key, None) is None:
                setattr(ns, key, val)
    return ns


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_energy(ns) -> int:
    if ns.family == "clifford":
        print(f"E = {_fmt(clifford_energy())}  ratio = 1")
        return EXIT_OK
    if ns.family == "homogeneous":
        if ns.r is None:
            raise Cp2ToriError("--r R1 R2 R3 is required for the homogeneous family")
        params = HomogeneousParams(*[float(v) for v in ns.r])
        e = homogeneous_energy(params)
        print(f"E = {_fmt(e)}  ratio = {_fmt(e / clifford_energy())}")
        return EXIT_OK
    alpha = _alpha_from(ns)
    point = _moduli_from(ns)
    d = derive_constants(alpha, point)
    fv = energy_mironov(d, ns.periods)
    print(f"alpha = {alpha.weights}  a1 = {_fmt(point.a1)}  a2 = {_fmt(point.a2)}"
          f"  branch = {point.branch.value}  N = {ns.periods}")
    print(f"c2 = {_fmt(d.c2)}  a3 = {_fmt(d.a3)}  a = {_fmt(d.slope_x)}"
          f"  b = {_fmt(d.slope_y)}  T = {_fmt(d.period)}")
    print(f"A = {_fmt(fv.area)}  W = {_fmt(fv.willmore)}  E = {_fmt(fv.energy)}"
          f"  ratio = {_fmt(fv.ratio)}")
    return EXIT_OK


def cmd_scan(ns) -> int:
    alphas = [AlphaTriple(*[int(v) for v in trip]) for trip in ns.alpha]
    branches = [Branch.MINUS, Branch.PLUS] if ns.branch == "both" else [Branch(ns.branch)]
    tasks = _scan_tasks(alphas, ns.grid, branches, ns.periods, ns.margin)
    if ns.jobs > 1:
        with ProcessPoolExecutor(max_workers=ns.jobs) as pool:
            rows = [r for r in pool.map(_scan_row, tasks, chunksize=16) if r]
    else:
        rows = [r for r in map(_scan_row, tasks) if r]
    lines = [",".join(SCAN_COLUMNS)]
    for row in rows:
        lines.append(",".join(
            str(row[c]) if c in ("alpha1", "alpha2", "alpha3", "branch")
            else _fmt(row[c]) for c in SCAN_COLUMNS))
    text = "\n".join(lines) + "\n"
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not rows:
        print("warning: empty feasible set, zero rows", file=sys.stderr)
        return EXIT_OK
    min_ratio = min(r["ratio"] for r in rows)
    print(f"rows = {len(rows)}  min ratio = {_fmt(min_ratio)}", file=sys.stderr)
    return EXIT_OK


def _sampled_energy_bounds(seed: int, samples: int):
    """Strict lower-bound spot checks at random feasible points (the area
    bound, the Willmore bound and their energy combination)."""
    rng = np.random.default_rng(seed)
    triples = [(2, 1, -1), (3, 1, -1), (3, 2, -1), (1, 0, -1), (2, 0, -1)]
    violations = []
    checked = 0
    while checked < samples:
        alpha = AlphaTriple(*triples[rng.integers(len(triples))])
        lo, hi = lemma3_box(alpha)
        a2v, a1v = np.sort(rng.uniform(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 2))
        if a1v - a2v < 1e-3 * (hi - lo):
            continue
        branch = Branch.MINUS if rng.integers(2) else Branch.PLUS
        try:
            d = derive_constants(alpha, ModuliPoint(float(a1v), float(a2v), branch))
        except Cp2ToriError:
            continue
        fv = energy_mironov(d)
        checked += 1
        root = math.sqrt(d.a1 + d.a3)
        ok = (fv.area > math.pi ** 2 * (d.a1 + d.a2) / root
              and fv.willmore > 2 * math.pi ** 2 * (d.slope_x ** 2 + d.slope_y ** 2) / root
              and fv.energy > math.pi ** 2 * (d.a1 + d.a2 + (d.slope_x ** 2 + d.slope_y ** 2) / 4) / root
              and fv.ratio > 1.0)
        if not ok:
            violations.append((alpha.weights, float(a1v), float(a2v), branch.value))
    return checked, violations


def cmd_verify(ns) -> int:
    os.makedirs(ns.out_dir, exist_ok=True)
    certs = []
    if ns.target in ("all", "B1"):
        certs.append(certify_lemma4(ns.eps, ns.threshold if ns.target == "B1" and ns.threshold else 1.0,
                                    ns.max_depth, ns.max_boxes))
    if ns.target in ("all", "B2"):
        thr = ns.threshold if ns.target == "B2" and ns.threshold else 0.9
        strips = lemma5_strip_certificates(ns.eps, thr, ns.max_depth, ns.max_boxes)
        certs.append(certify_lemma5(ns.eps, thr, ns.max_depth, ns.max_boxes, strips))
        certs.extend(strips)
    scalar_report = None
    if ns.target in ("all", "scalars"):
        scalar_report = scalar_bound_checks(max_boxes=ns.max_boxes)
        certs.extend(scalar_report.certificates)
    all_proved = True
    for cert in certs:
        path = os.path.join(ns.out_dir, f"{cert.target}.json")
        cert.save_json(path)
        status = cert.status.value
        print(f"{cert.target}: {status}  threshold={_fmt(cert.threshold)}  "
              f"eps={_fmt(cert.epsilon)}  boxes={cert.boxes_examined}  "
              f"retained={cert.retained_count}  depth={cert.max_depth_reached}  -> {path}")
        if cert.witness is not None:
            print(f"  witness: {[_fmt(v) for v in cert.witness]}")
        all_proved &= cert.status is CertStatus.PROVED
    if scalar_report is not None:
        for tail in scalar_report.tails:
            print(f"tail {tail.label}: x >= {_fmt(tail.x_max)}: "
                  f"D'' = {_fmt(tail.second_derivative)}, D' >= {_fmt(tail.dprime_lower)}, "
                  f"D >= {_fmt(tail.d_lower)}  -> {'ok' if tail.holds else 'FAILED'}")
            all_proved &= tail.holds
    if ns.target == "all":
        checked, violations = _sampled_energy_bounds(ns.seed, ns.samples)
        print(f"energy bound spot checks: {checked} random feasible points "
              f"(seed={ns.seed}): {len(violations)} violations")
        all_proved &= not violations
    return EXIT_OK if all_proved else EXIT_NOT_PROVED


def cmd_periodicity(ns) -> int:
    alpha = _alpha_from(ns)
    d = derive_constants(alpha, _moduli_from(ns))
    result = rational_fit(d, ns.max_denominator, ns.tol, ns.quad_tol)
    payload = result.to_json_dict()
    payload["alpha"] = list(alpha.weights)
    payload["a1"], payload["a2"], payload["branch"] = d.a1, d.a2, d.branch.value
    payload["T"] = d.period
    text = json.dumps(payload, indent=2)
    if ns.json_out:
        with open(ns.json_out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_export(ns) -> int:
    alpha = _alpha_from(ns)
    d = derive_constants(alpha, _moduli_from(ns))
    chart = None if ns.chart == "auto" else int(ns.chart)
    rows, chart_used = export_samples(d, tuple(ns.grid), chart, ns.quad_tol)
    with open(ns.out, "w") as fh:
        write_csv(rows, fh)
    print(f"wrote {len(rows)} rows to {ns.out} (chart component {chart_used})")
    if ns.obj:
        with open(ns.obj, "w") as fh:
            write_obj(rows, fh)
        print(f"wrote OBJ vertex cloud to {ns.obj}")
    return EXIT_OK


def cmd_mnk(ns) -> int:
    params = MnkParams(ns.m, ns.n, ns.k)
    kind = "torus" if is_torus(params) else "Klein bottle"
    print(f"(m, n, k) = ({ns.m}, {ns.n}, {ns.k}): {kind}")
    print(f"convention: {ORIENTATION_CONVENTION}")
    print("note: the energy of this family is not computed here; only the "
          "topology predicate is provided")
    return EXIT_OK


def cmd_feasibility(ns) -> int:
    alpha = _alpha_from(ns)
    res = feasibility_check(alpha, float(ns.a1), float(ns.a2))
    print(f"alpha = {alpha.weights}  a1 = {_fmt(ns.a1)}  a2 = {_fmt(ns.a2)}")
    print(f"P = {_fmt(res.p_value)}  discriminant = {_fmt(res.discriminant)}")
    if alpha.is_ordered:
        lo, hi = lemma3_box(alpha)
        print(f"box: {_fmt(lo)} <= a2 < a1 <= {_fmt(hi)}")
    print(f"feasible: {res.feasible}")
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="cp2tori",
                     description="Energy functionals on Lagrangian tori in CP^2 "
                                 "with certified inequality verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file of option defaults (flags win)")

    def add_quad_tol(p):
        p.add_argument("--quad-tol", type=_positive(float), default=1e-11,
                       help="absolute tolerance of the adaptive quadrature of the "
                            "phase integrals G_i (values above 1e-11 act as 1e-11); "
                            "energies need none, their area is in closed form")

    def add_moduli(p):
        p.add_argument("--alpha", nargs=3, type=int, metavar=("A1", "A2", "A3"))
        p.add_argument("--a1", type=float)
        p.add_argument("--a2", type=float)
        p.add_argument("--branch", type=_branch, default=Branch.MINUS,
                       help="'minus' or 'plus' root branch (default minus)")
        p.add_argument("--params", help="JSON parameter file "
                                        '{"alpha": [..], "a1": .., "a2": .., "branch": ..}')

    p = sub.add_parser("energy", help="evaluate A, W, E and the energy ratio")
    add_common(p)
    p.add_argument("--family", choices=("mironov", "homogeneous", "clifford"),
                   default="mironov")
    add_moduli(p)
    p.add_argument("--r", nargs=3, type=float, metavar=("R1", "R2", "R3"))
    p.add_argument("--periods", type=int, default=1)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("scan", help="sweep feasible grids, CSV output")
    add_common(p)
    p.add_argument("--alpha", nargs=3, type=int, action="append", required=True,
                   metavar=("A1", "A2", "A3"))
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--branch", choices=("minus", "plus", "both"), default="both")
    p.add_argument("--margin", type=float, default=0.02)
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--jobs", type=_positive(int), default=1)
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run the certified lemma and bound checks")
    add_common(p)
    p.add_argument("--target", choices=("all", "B1", "B2", "scalars"), default="all")
    p.add_argument("--threshold", type=float, default=None,
                   help="override the proved threshold for a single target")
    p.add_argument("--eps", type=_positive(float), default=1e-4)
    p.add_argument("--max-depth", type=int, default=40)
    p.add_argument("--max-boxes", type=int, default=10_000_000)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--out-dir", default="certificates")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("periodicity", help="rational winding fit and lattice data")
    add_common(p)
    add_quad_tol(p)
    add_moduli(p)
    p.add_argument("--max-denominator", type=int, default=10 ** 6)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json-out", help="also write the JSON result here")
    p.set_defaults(func=cmd_periodicity)

    p = sub.add_parser("export", help="sample the immersion into CSV/OBJ")
    add_common(p)
    add_quad_tol(p)
    add_moduli(p)
    p.add_argument("--grid", nargs=2, type=int, default=(64, 64), metavar=("NX", "NY"))
    p.add_argument("--chart", default="auto", help="affine chart component (0/1/2 or auto)")
    p.add_argument("--out", required=True)
    p.add_argument("--obj", help="also write an OBJ vertex cloud")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("mnk", help="torus / Klein bottle classification")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_mnk)

    p = sub.add_parser("feasibility", help="feasibility diagnostics for (alpha, a1, a2)")
    add_common(p)
    p.add_argument("--alpha", nargs=3, type=int, required=True, metavar=("A1", "A2", "A3"))
    p.add_argument("--a1", type=float, required=True)
    p.add_argument("--a2", type=float, required=True)
    p.set_defaults(func=cmd_feasibility)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    ns = _apply_config(ns, commands.choices[ns.command])
    needs_moduli = ns.command in ("periodicity", "export") or (
        ns.command == "energy" and ns.family == "mironov")
    if needs_moduli and (getattr(ns, "alpha", None) is None
                         or ns.a1 is None or ns.a2 is None):
        parser.error(f"{ns.command}: --alpha/--a1/--a2 (or --params) required")
    try:
        return ns.func(ns)
    except InfeasibleParameters as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Cp2ToriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
