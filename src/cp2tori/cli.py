"""Command-line front end.

Subcommands: energy, scan, verify, periodicity, export, mnk, feasibility.
Exit codes: 0 success, 2 infeasible parameters, 3 a requested
certification did not come back proved, 4 degenerate parameters (a
vanishing root c2 or a phase denominator too close to zero), 64 usage
error, an integer too large for a float, an output path that cannot be
written or a grid too large to allocate.  A --config JSON file can preset
each option of the subcommand that is not required, checked as the same
flag would be; an option given on the command line wins, whatever its
value.  feasibility and mnk, whose options are all required, take none.
An energy family reads its options alone (clifford none, homogeneous
--r, mironov all but --r); another one, given anyhow, is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from functools import cache
from typing import List, Optional

import numpy as np

from . import __version__
from .bounds import CLAIMS, SCALAR_QUADRATICS, SCALAR_X_MAX, certify_charts
from .errors import Cp2ToriError, DegenerateParameters, InfeasibleParameters
from .family import (AlphaTriple, Branch, ModuliPoint, derive_constants,
                     derive_grid, feasibility_check, lemma3_box)
from .functionals import (SCAN_COLUMNS, HomogeneousParams, clifford_energy,
                          energy_mironov, homogeneous_energy, scan_columns)
from .immersion import export_samples, format_rows, write_csv, write_obj
from .interval import CertStatus
from .mnk import ORIENTATION_CONVENTION, MnkParams, is_torus
from .periodicity import rational_fit

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NOT_PROVED = 3
EXIT_DEGENERATE = 4
EXIT_USAGE = 64


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _throughput(rows: int, seconds: float) -> str:
    """Elapsed time and rows per second, for the scan and export summaries."""
    rate = rows / seconds if seconds > 0 else math.inf
    return f"in {seconds:.3f} s ({rate:.0f} rows/s)"


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


def _value(kind, what: str, inside=lambda v: True):
    """argparse type: a value of ``kind`` (int, float or Branch) for which
    ``inside`` holds; any other is refused as not being ``what``."""
    def parse(value: str):
        try:
            v = kind(value)
            if inside(v):
                return v
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {value!r}")
    return parse


def _torus(ns):
    """The torus that --alpha, --a1, --a2 and --branch (default minus) name."""
    return derive_constants(AlphaTriple(*ns.alpha),
                            ModuliPoint(ns.a1, ns.a2, ns.branch or Branch.MINUS))


def _config_value(sub, action, value):
    """A value from a JSON file read as the same option on the command
    line would be: each item through the option's type and choices, so a
    bad value is a usage error (exit 64)."""
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


def _config_namespace(sub, ns):
    """The namespace that subcommand parser ``sub`` starts from: the
    command of ``ns`` and the options that its --config JSON file sets.
    The file may set any option but a required one.  A file that cannot
    be read, invalid JSON, a top level that is not an object, a key that
    names no such option and a bad value (even one a flag overrides) are
    usage errors."""
    try:
        with open(ns.config) as fh:
            data = json.load(fh)
    except OSError as exc:
        sub.error(f"config: cannot read {ns.config!r}: {exc.strerror}")
    except ValueError as exc:
        sub.error(f"config: {ns.config!r} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        sub.error(f"config: {ns.config!r} must hold a JSON object, "
                  f"not {type(data).__name__}")
    actions = {a.dest: a for a in sub._actions
               if not a.required and a.dest not in ("help", "config")}
    preset = argparse.Namespace(command=ns.command)
    for key, val in data.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            sub.error(f"config: {key!r} is not an option a config file can set "
                      f"here (choose from {', '.join(sorted(actions))})")
        setattr(preset, action.dest, _config_value(sub, action, val))
    return preset


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_energy(ns) -> int:
    if ns.family == "clifford":
        print(f"E = {_fmt(clifford_energy())}  ratio = 1")
        return EXIT_OK
    if ns.family == "homogeneous":
        params = HomogeneousParams(*ns.r)
        e = homogeneous_energy(params)
        print(f"E = {_fmt(e)}  ratio = {_fmt(e / clifford_energy())}")
        return EXIT_OK
    d = _torus(ns)
    periods = ns.periods or 1
    fv = energy_mironov(d, periods)
    print(f"alpha = {d.alpha.weights}  a1 = {_fmt(d.a1)}  a2 = {_fmt(d.a2)}"
          f"  branch = {d.branch.value}  N = {periods}")
    print(f"c2 = {_fmt(d.c2)}  a3 = {_fmt(d.a3)}  a = {_fmt(d.slope_x)}"
          f"  b = {_fmt(d.slope_y)}  T = {_fmt(d.period)}")
    print(f"A = {_fmt(fv.area)}  W = {_fmt(fv.willmore)}  E = {_fmt(fv.energy)}"
          f"  ratio = {_fmt(fv.ratio)}")
    return EXIT_OK


def _scan_block(alpha: AlphaTriple, columns) -> str:
    """The CSV rows of one triple from its scan columns: the weights go
    into the row format once, the branch is written as its name and every
    other cell as _fmt writes it."""
    row = "%d,%d,%d," % alpha.weights + ",".join(
        "%s" if c == "branch" else "%.12g" for c in SCAN_COLUMNS[3:]) + "\n"
    return format_rows(row, columns)


def cmd_scan(ns) -> int:
    start = time.perf_counter()
    alphas = [AlphaTriple(*trip) for trip in ns.alpha]
    branches = [Branch.MINUS, Branch.PLUS] if ns.branch == "both" else [Branch(ns.branch)]
    scans = [(alpha, scan_columns(alpha, ns.grid, branches, ns.periods, ns.margin))
             for alpha in alphas]
    text = ",".join(SCAN_COLUMNS) + "\n" + "".join(_scan_block(*s) for s in scans)
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    ratios = [columns[-1] for _, columns in scans if columns[-1].size]
    if not ratios:
        print("warning: zero rows: no grid point is feasible with a nonvanishing c2",
              file=sys.stderr)
        return EXIT_OK
    n_rows = sum(r.size for r in ratios)
    min_ratio = min(float(r.min()) for r in ratios)
    print(f"rows = {n_rows}  min ratio = {_fmt(min_ratio)}  "
          f"{_throughput(n_rows, time.perf_counter() - start)}", file=sys.stderr)
    return EXIT_OK


_SPOT_TRIPLES = tuple(AlphaTriple(*w) for w in
                      ((2, 1, -1), (3, 1, -1), (3, 2, -1), (1, 0, -1), (2, 0, -1)))
# each triple's moduli range, inset 1e-3 of its box width from both ends,
# and that width, the least gap between a1 and a2
_SPOT_RANGES = tuple((lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 1e-3 * (hi - lo))
                     for lo, hi in map(lemma3_box, _SPOT_TRIPLES))
_SPOT_BATCH = 256  # the most spot-check candidates drawn and evaluated at once


def _spot_candidates(rng, count: int):
    """``count`` candidates (triple index, a1, a2, branch name) as arrays:
    a triple, two sorted moduli in its range, redrawn while closer than its
    gap, and then a branch."""
    drawn = []
    while len(drawn) < count:
        t = int(rng.integers(len(_SPOT_TRIPLES)))
        low, high, gap = _SPOT_RANGES[t]
        a2v, a1v = sorted(rng.uniform(low, high, 2).tolist())
        if a1v - a2v < gap:
            continue
        drawn.append((t, a1v, a2v, (Branch.MINUS if rng.integers(2) else Branch.PLUS).value))
    return tuple(map(np.array, zip(*drawn)))


def _sampled_energy_bounds(seed: int, samples: int):
    """Strict lower-bound spot checks at the first ``samples`` random
    feasible tori (the area bound, the Willmore bound and their energy
    combination).  Candidates are drawn in batches of at most the checks
    still to make, and each batch is derived and checked as arrays, one
    derive_grid call per triple, each candidate on its own branch; a
    candidate without a row (roots not real, c2 vanishing) is skipped."""
    rng = np.random.default_rng(seed)
    violations = []
    checked = 0
    while checked < samples:
        t, a1, a2, branch = _spot_candidates(rng, min(_SPOT_BATCH, samples - checked))
        feasible = np.zeros(t.size, dtype=bool)
        ok = np.zeros(t.size, dtype=bool)
        for i, alpha in enumerate(_SPOT_TRIPLES):
            idx = np.flatnonzero(t == i)
            if not idx.size:
                continue
            d, kept = derive_grid(alpha, a1[idx], a2[idx], branch[idx])
            fv = energy_mironov(d)
            root = d.sqrt_a1_a3
            slopes = d.slope_x ** 2 + d.slope_y ** 2
            rows = idx[kept]
            feasible[rows] = True
            ok[rows] = ((fv.area > math.pi ** 2 * (d.a1 + d.a2) / root)
                        & (fv.willmore > 2 * math.pi ** 2 * slopes / root)
                        & (fv.energy > math.pi ** 2 * (d.a1 + d.a2 + slopes / 4) / root)
                        & (fv.ratio > 1.0))
        checked += int(np.count_nonzero(feasible))
        violations += [(_SPOT_TRIPLES[t[j]].weights, float(a1[j]), float(a2[j]), str(branch[j]))
                       for j in np.flatnonzero(feasible & ~ok)]
    return checked, violations


def cmd_verify(ns) -> int:
    os.makedirs(ns.out_dir, exist_ok=True)
    # main() allows --threshold only with --target B1 or B2
    certs = [cert for claim in (CLAIMS if ns.target == "all" else [ns.target])
             for cert in certify_charts(CLAIMS[claim], ns.threshold)]
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
        if cert.target in SCALAR_QUADRATICS:
            # beyond the certificate's domain, in integers: the bound's
            # quadratic is positive for every x when a > 0 and b^2 < 4ac
            a, b, c = SCALAR_QUADRATICS[cert.target]
            disc = b * b - 4 * a * c
            holds = a > 0 and disc < 0
            print(f"tail {cert.target}: x >= {_fmt(SCALAR_X_MAX)}, indeed every x: "
                  f"{a}x^2 {b:+}x {c:+} > 0, discriminant {disc}  -> "
                  f"{'ok' if holds else 'FAILED'}")
            all_proved &= holds
    if ns.target == "all":
        checked, violations = _sampled_energy_bounds(ns.seed, ns.samples)
        print(f"energy bound spot checks: {checked} random feasible points "
              f"(seed={ns.seed}): {len(violations)} violations")
        all_proved &= not violations
    return EXIT_OK if all_proved else EXIT_NOT_PROVED


def cmd_periodicity(ns) -> int:
    d = _torus(ns)
    result = rational_fit(d, ns.max_denominator, ns.tol)
    payload = result.to_json_dict()
    payload["alpha"] = list(d.alpha.weights)
    payload["a1"], payload["a2"], payload["branch"] = d.a1, d.a2, d.branch.value
    payload["T"] = d.period
    text = json.dumps(payload, indent=2)
    if ns.json_out:
        with open(ns.json_out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_export(ns) -> int:
    start = time.perf_counter()
    d = _torus(ns)
    chart = None if ns.chart == "auto" else int(ns.chart)
    columns, chart_used = export_samples(d, tuple(ns.grid), chart)
    with open(ns.out, "w") as fh:
        write_csv(columns, fh)
    n_rows = columns[0].size
    print(f"wrote {n_rows} rows to {ns.out} (chart component {chart_used}) "
          f"{_throughput(n_rows, time.perf_counter() - start)}")
    if ns.obj:
        with open(ns.obj, "w") as fh:
            write_obj(columns, fh)
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
    alpha = AlphaTriple(*ns.alpha)
    res = feasibility_check(alpha, ns.a1, ns.a2)
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
    parser.subcommands = sub.choices  # main() reparses over a --config file
    positive = _value(int, "a positive integer", lambda v: v > 0)

    def add_common(p):
        p.add_argument("--config", help="JSON file presetting the options that "
                                        "are not required (flags win)")

    def add_moduli(p):
        p.add_argument("--alpha", nargs=3, type=int, metavar=("A1", "A2", "A3"))
        p.add_argument("--a1", type=float)
        p.add_argument("--a2", type=float)
        # default None, so that a flag at the default value is seen as given
        p.add_argument("--branch", type=_value(Branch, "'minus' or 'plus'"),
                       help="'minus' or 'plus' root branch (default minus)")

    p = sub.add_parser("energy", help="evaluate A, W, E and the energy ratio")
    add_common(p)
    p.add_argument("--family", choices=("mironov", "homogeneous", "clifford"),
                   default="mironov")
    add_moduli(p)
    p.add_argument("--r", nargs=3, type=float, metavar=("R1", "R2", "R3"))
    p.add_argument("--periods", type=positive)  # default 1, where it is read

    p = sub.add_parser("scan", help="sweep feasible grids, CSV output")
    add_common(p)
    p.add_argument("--alpha", nargs=3, type=int, action="append", required=True,
                   metavar=("A1", "A2", "A3"))
    p.add_argument("--grid", type=positive, default=20)
    p.add_argument("--branch", choices=("minus", "plus", "both"), default="both")
    # from 1/2 on, the trim would leave no box
    p.add_argument("--margin", type=_value(float, "in [0, 1/2)", lambda v: 0 <= v < 0.5),
                   default=0.02, help="trim of the feasibility box, as a fraction of its width")
    p.add_argument("--periods", type=positive, default=1)
    p.add_argument("--out", help="CSV path (stdout when omitted)")

    p = sub.add_parser("verify", help="run the certified lemma and bound checks")
    add_common(p)
    p.add_argument("--target", choices=("all", *CLAIMS), default="all")
    p.add_argument("--threshold", type=_value(float, "a finite number", math.isfinite),
                   help="prove this threshold instead of the default one "
                        "(with --target B1 or B2 only)")
    p.add_argument("--samples", type=positive, default=200,
                   help="random feasible points for the energy spot checks")
    p.add_argument("--seed", type=_value(int, "a non-negative integer", lambda v: v >= 0),
                   default=20240801)
    p.add_argument("--out-dir", default="certificates")

    p = sub.add_parser("periodicity", help="rational winding fit and lattice data")
    add_common(p)
    add_moduli(p)
    p.add_argument("--max-denominator", type=positive, default=10 ** 6)
    p.add_argument("--tol", type=_value(float, "positive and finite", lambda v: 0 < v < math.inf),
                   default=1e-9)
    p.add_argument("--json-out", help="also write the JSON result here")

    p = sub.add_parser("export", help="sample the immersion into CSV/OBJ")
    add_common(p)
    add_moduli(p)
    p.add_argument("--grid", nargs=2, type=positive, default=(64, 64),
                   metavar=("NX", "NY"))
    p.add_argument("--chart", choices=("auto", "0", "1", "2"), default="auto",
                   help="affine chart component")
    p.add_argument("--out", required=True)
    p.add_argument("--obj", help="also write an OBJ vertex cloud")

    p = sub.add_parser("mnk", help="torus / Klein bottle classification")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("feasibility", help="feasibility diagnostics for (alpha, a1, a2)")
    p.add_argument("--alpha", nargs=3, type=int, required=True, metavar=("A1", "A2", "A3"))
    p.add_argument("--a1", type=float, required=True)
    p.add_argument("--a2", type=float, required=True)

    return parser


# one parser per process: building it costs about as much as a small
# subcommand
_main_parser = cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _main_parser()
    ns = parser.parse_args(argv)
    if getattr(ns, "config", None):
        # the subcommand's arguments parsed again, over the file's values:
        # argparse sets a default only where neither gives a value, so a
        # flag wins, even at its default value
        sub = parser.subcommands[ns.command]
        ns = sub.parse_args(argv[1:], _config_namespace(sub, ns))
    if ns.command == "energy":
        reads = {"clifford": (), "homogeneous": ("r",)}.get(
            ns.family, ("alpha", "a1", "a2", "branch", "periods"))
        unread = [f"--{o}" for o in ("alpha", "a1", "a2", "branch", "periods", "r")
                  if o not in reads and getattr(ns, o) is not None]
        if unread:
            parser.error(f"energy: the {ns.family} family reads no {', '.join(unread)}")
    needs_moduli = ns.command in ("periodicity", "export") or (
        ns.command == "energy" and ns.family == "mironov")
    if needs_moduli and (ns.alpha is None or ns.a1 is None or ns.a2 is None):
        parser.error(f"{ns.command}: --alpha/--a1/--a2 required")
    if ns.command == "energy" and ns.family == "homogeneous" and ns.r is None:
        parser.error("energy: --r R1 R2 R3 required for the homogeneous family")
    if ns.command == "verify" and ns.threshold is not None and ns.target not in ("B1", "B2"):
        parser.error("verify: --threshold needs --target B1 or B2")
    try:
        # looked up at each call, so that a replaced cmd_* is the one run
        return globals()[f"cmd_{ns.command}"](ns)
    except InfeasibleParameters as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DegenerateParameters as exc:  # SingularIntegrand included
        print(f"degenerate parameters: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except Cp2ToriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        # OverflowError: an integer input too large for a float; OSError:
        # an output path that cannot be written; MemoryError: a grid too
        # large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
