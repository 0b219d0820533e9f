"""Command-line front end.

Subcommands: energy, scan, verify, periodicity, export, mnk, feasibility.
Exit codes: 0 success, 2 infeasible parameters, 3 a requested
certification did not come back proved, 4 degenerate parameters (a
vanishing root c2 or a phase denominator too close to zero), 64 usage
error, an output path that cannot be written or a grid too large to
allocate.  A JSON config file can
pre-set any long option of the subcommand, checked as the same flag
would be; an option given on the command line wins, whatever its value.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import re
import sys
from functools import cache
from typing import List, Optional

import numpy as np

from . import __version__
from .bounds import CHARTS, CLAIMS, DEFAULT_EPS, certify_charts
from .errors import (Cp2ToriError, DegenerateParameters, InfeasibleParameters,
                     SingularIntegrand)
from .family import (AlphaTriple, Branch, ModuliPoint, derive_constants,
                     feasibility_check, lemma3_box)
from .functionals import (SCAN_COLUMNS, HomogeneousParams, clifford_energy,
                          energy_mironov, energy_scan, homogeneous_energy)
from .immersion import export_samples, write_csv, write_obj
from .interval import MAX_BOXES, MAX_DEPTH, CertStatus
from .mnk import ORIENTATION_CONVENTION, MnkParams, is_torus
from .periodicity import rational_fit

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NOT_PROVED = 3
EXIT_DEGENERATE = 4
EXIT_USAGE = 64


def _fmt(v: float) -> str:
    return f"{v:.12g}"


# one scan CSV row: the weights as integers, the branch as its name and
# every other column as _fmt writes it
_SCAN_ROW = ",".join("%d" if c.startswith("alpha") else "%s" if c == "branch"
                     else "%.12g" for c in SCAN_COLUMNS) + "\n"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-inf", "-nan" and "-1e5" for option names, since
        # they do not look like negative numbers to it; read every negative
        # float literal as a value, so that the option's own check names it
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _branch(value: str) -> Branch:
    try:
        return Branch(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"branch must be 'minus' or 'plus', got {value!r}")


def _margin(value: str) -> float:
    """argparse type for scan --margin: a finite float >= 0."""
    try:
        v = float(value)
    except ValueError:
        v = math.nan
    if not (0 <= v < math.inf):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value!r}")
    return v


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


def _config_value(sub, what, action, value):
    """A value from a JSON file read as the same option on the command
    line would be: each item through the option's type and choices, so a
    bad value is a usage error (exit 64)."""
    count = action.nargs if isinstance(action.nargs, int) else None
    items = value if count else [value]
    if not isinstance(items, list) or len(items) != (count or 1):
        sub.error(f"{what}: {action.dest} takes {count} values, got {value!r}")
    try:
        parsed = [sub._get_value(action, str(v)) for v in items]
        for v in parsed:
            sub._check_value(action, v)
    except argparse.ArgumentError as exc:
        sub.error(f"{what}: {exc}")
    return parsed if count else parsed[0]


def _fill_from_file(ns, sub, what, path, actions, given):
    """Set the options in ``actions`` that the JSON object in ``path``
    names, except the dests in ``given``, and add them to ``given``.  A
    file that cannot be read, invalid JSON, a top level that is not an
    object, a key that names no option in ``actions`` and a bad value
    (even one a flag overrides) are usage errors."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        sub.error(f"{what}: cannot read {path!r}: {exc.strerror}")
    except ValueError as exc:
        sub.error(f"{what}: {path!r} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        sub.error(f"{what}: {path!r} must hold a JSON object, "
                  f"not {type(data).__name__}")
    for key, val in data.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            sub.error(f"{what}: {key!r} is not an option here "
                      f"(choose from {', '.join(sorted(actions))})")
        value = _config_value(sub, what, action, val)
        if action.dest not in given:
            setattr(ns, action.dest, value)
            given.add(action.dest)


def _subcommands(parser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def _given_in(argv, command) -> set:
    """The dests that ``argv`` itself sets, whatever their values: argv
    parsed again with every default of the subcommand suppressed."""
    parser = build_parser()
    for action in _subcommands(parser).choices[command]._actions:
        action.default = argparse.SUPPRESS
    return set(vars(parser.parse_args(argv)))


def _apply_config(ns, sub, argv):
    """Fill the options of subcommand parser ``sub`` that ``argv`` does
    not give from the --config JSON file, then the moduli that neither
    gives from the --params file: flags win over both, --config over
    --params."""
    if not (getattr(ns, "config", None) or getattr(ns, "params", None)):
        return ns
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    given = _given_in(argv, ns.command)
    if getattr(ns, "config", None):
        _fill_from_file(ns, sub, "config", ns.config, actions, given)
    if getattr(ns, "params", None):
        moduli = {k: actions[k] for k in ("alpha", "a1", "a2", "branch")}
        _fill_from_file(ns, sub, "params", ns.params, moduli, given)
    return ns


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_energy(ns) -> int:
    if ns.family == "clifford":
        print(f"E = {_fmt(clifford_energy())}  ratio = 1")
        return EXIT_OK
    if ns.family == "homogeneous":
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
    rows = energy_scan(alphas, ns.grid, branches, ns.periods, ns.margin)
    cells = operator.itemgetter(*SCAN_COLUMNS)
    text = ",".join(SCAN_COLUMNS) + "\n" + "".join(_SCAN_ROW % cells(row) for row in rows)
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
    # main() allows --threshold only with --target B1 or B2
    certs = [cert for claim in (CLAIMS if ns.target == "all" else [ns.target])
             for cert in certify_charts(CLAIMS[claim], ns.threshold, ns.eps,
                                        ns.max_depth, ns.max_boxes)]
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
        proved = cert.status is CertStatus.PROVED
        if cert.target.endswith("-tail"):
            print(f"tail {cert.target}: x = 1/t, t in (0, "
                  f"{_fmt(CHARTS[cert.target].root[1])}]  -> {'ok' if proved else 'FAILED'}")
        all_proved &= proved
    if ns.target == "all":
        checked, violations = _sampled_energy_bounds(ns.seed, ns.samples)
        print(f"energy bound spot checks: {checked} random feasible points "
              f"(seed={ns.seed}): {len(violations)} violations")
        all_proved &= not violations
    return EXIT_OK if all_proved else EXIT_NOT_PROVED


def cmd_periodicity(ns) -> int:
    alpha = _alpha_from(ns)
    d = derive_constants(alpha, _moduli_from(ns))
    result = rational_fit(d, ns.max_denominator, ns.tol)
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
    rows, chart_used = export_samples(d, tuple(ns.grid), chart)
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
    p.add_argument("--periods", type=_positive(int), default=1)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("scan", help="sweep feasible grids, CSV output")
    add_common(p)
    p.add_argument("--alpha", nargs=3, type=int, action="append", required=True,
                   metavar=("A1", "A2", "A3"))
    p.add_argument("--grid", type=_positive(int), default=20)
    p.add_argument("--branch", choices=("minus", "plus", "both"), default="both")
    p.add_argument("--margin", type=_margin, default=0.02,
                   help="trim of the feasibility box, as a fraction of its width")
    p.add_argument("--periods", type=_positive(int), default=1)
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run the certified lemma and bound checks")
    add_common(p)
    p.add_argument("--target", choices=("all", *CLAIMS), default="all")
    p.add_argument("--threshold", type=float, default=None,
                   help="prove this threshold instead of the default one "
                        "(with --target B1 or B2 only)")
    p.add_argument("--eps", type=_positive(float), default=DEFAULT_EPS,
                   help="width of the diagonal band x - y <= eps that B2 "
                        "certifies in its own charts")
    p.add_argument("--max-depth", type=_positive(int), default=MAX_DEPTH)
    p.add_argument("--max-boxes", type=_positive(int), default=MAX_BOXES)
    p.add_argument("--samples", type=_positive(int), default=200,
                   help="random feasible points for the energy spot checks")
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--out-dir", default="certificates")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("periodicity", help="rational winding fit and lattice data")
    add_common(p)
    add_moduli(p)
    p.add_argument("--max-denominator", type=_positive(int), default=10 ** 6)
    p.add_argument("--tol", type=_positive(float), default=1e-9)
    p.add_argument("--json-out", help="also write the JSON result here")
    p.set_defaults(func=cmd_periodicity)

    p = sub.add_parser("export", help="sample the immersion into CSV/OBJ")
    add_common(p)
    add_moduli(p)
    p.add_argument("--grid", nargs=2, type=_positive(int), default=(64, 64),
                   metavar=("NX", "NY"))
    p.add_argument("--chart", choices=("auto", "0", "1", "2"), default="auto",
                   help="affine chart component")
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


# one parser per process: building it costs about as much as a small
# subcommand; _given_in builds its own, because it rewrites the defaults
_main_parser = cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _main_parser()
    ns = parser.parse_args(argv)
    ns = _apply_config(ns, _subcommands(parser).choices[ns.command], argv)
    needs_moduli = ns.command in ("periodicity", "export") or (
        ns.command == "energy" and ns.family == "mironov")
    if needs_moduli and (getattr(ns, "alpha", None) is None
                         or ns.a1 is None or ns.a2 is None):
        parser.error(f"{ns.command}: --alpha/--a1/--a2 (or --params) required")
    if ns.command == "energy" and ns.family == "homogeneous" and ns.r is None:
        parser.error("energy: --r R1 R2 R3 required for the homogeneous family")
    if ns.command == "verify" and ns.threshold is not None and (
            ns.target not in ("B1", "B2") or not math.isfinite(ns.threshold)):
        parser.error("verify: --threshold takes a finite number, with --target B1 or B2")
    try:
        return ns.func(ns)
    except InfeasibleParameters as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DegenerateParameters, SingularIntegrand) as exc:
        print(f"degenerate parameters: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except Cp2ToriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError, MemoryError) as exc:
        # OSError: an output path that cannot be written; MemoryError: a
        # grid too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
