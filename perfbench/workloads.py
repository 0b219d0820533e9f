"""The four workloads, driven through the public API and the in-process CLI.

Each workload object does its set-up in ``__init__`` (input generation and,
for ``replay``, producing the certificates), offers one ``round`` of named
operations, a cheap ``warmup``, and ``finish``, which writes what the
output checks in ``checks.py`` read.  Program functions are looked up on
their modules at call time (``interval.replay_certificate``, not a local
name), so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os

import numpy as np

import cp2tori.cli as cli
from cp2tori import bounds, family, immersion, interval

import inputs

class OperationFailed(Exception):
    pass


def run_cli(argv):
    """``cp2tori.cli.main(argv)`` with its output captured; (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def run_cli_ok(argv):
    code, text = run_cli(argv)
    if code != 0:
        raise OperationFailed(f"cp2tori {argv[0]} exited {code}: {text[-500:]}")
    return text


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)


def all_certificates():
    """Every certificate ``verify`` issues at its defaults, with the scalar
    evaluator that replays it."""
    strips = bounds.lemma5_strip_certificates()
    scalars = bounds.scalar_bound_checks().certificates
    return [
        (bounds.certify_lemma4(), bounds.b1_expr),
        (bounds.certify_lemma5(), bounds.b2_expr),
        (strips[0], bounds.b2_strip_lower_expr),
        (strips[1], bounds.b2_strip_corner_expr),
        (scalars[0], lambda X, Y: bounds.scalar_bound_1(X)),
        (scalars[1], lambda X, Y: bounds.scalar_bound_2(X)),
    ]


def save_boxes(certs, out):
    """Retained boxes as .npy and the certificate record as JSON, per target."""
    os.makedirs(out, exist_ok=True)
    for cert in certs:
        np.save(os.path.join(out, f"{cert.target}.npy"), cert.retained_boxes)
        _write_json(os.path.join(out, f"{cert.target}.json"), cert.to_json_dict())


class Sweep:
    """One ``cp2tori scan`` of the acceptance sweep, CSV to a file."""

    name = "sweep"

    def __init__(self, seed, out, grid=inputs.SWEEP_GRID):
        self.out = out
        self.triples = inputs.sweep_inputs(seed)
        self.grid = grid
        self.csv = os.path.join(out, "scan.csv")
        self.argv = ["scan"]
        for alpha in self.triples:
            self.argv += ["--alpha", *map(str, alpha)]
        self.argv += ["--grid", str(grid), "--branch", "both", "--out", self.csv]
        self.round = [("scan", self.scan)]

    def scan(self):
        run_cli_ok(self.argv)

    def warmup(self):
        run_cli_ok(["scan", "--alpha", "2", "1", "-1", "--grid", "4",
                    "--out", os.path.join(self.out, "warmup.csv")])

    def finish(self):
        return {"triples": [list(t) for t in self.triples], "grid": self.grid,
                "csv": self.csv}


class Certify:
    """One ``cp2tori verify`` with all targets at the defaults."""

    name = "certify"

    def __init__(self, seed, out):
        self.out = out
        self.spot_seed = inputs.certify_inputs(seed)
        self.cert_dir = os.path.join(out, "certs")
        self.argv = ["verify", "--seed", str(self.spot_seed), "--out-dir", self.cert_dir]
        self.stdout = ""
        self.round = [("verify", self.verify)]

    def verify(self):
        self.stdout = run_cli_ok(self.argv)

    def warmup(self):
        self.verify()

    def finish(self):
        # The CLI writes no boxes; the same certificates from the API are
        # saved, and the checks tie them to the CLI's JSON by digest.
        save_boxes([c for c, _ in all_certificates()], os.path.join(self.out, "boxes"))
        b1_dir = os.path.join(self.out, "b1-threshold-1.2")
        code, text = run_cli(["verify", "--target", "B1", "--threshold", "1.2",
                              "--out-dir", b1_dir])
        return {"spot_seed": self.spot_seed, "cert_dir": self.cert_dir,
                "stdout": self.stdout, "boxes_dir": os.path.join(self.out, "boxes"),
                "b1_raised": {"exit_code": code, "stdout": text, "cert_dir": b1_dir}}


class Replay:
    """Every retained box of every certificate re-verified on the scalar
    ``Interval`` path; the certificates are produced in set-up."""

    name = "replay"

    def __init__(self, seed, out):
        self.out = out
        certs = all_certificates()
        self.certs = [certs[i] for i in inputs.replay_order(seed, len(certs))]
        self.results = []
        self.round = [("replay", self.replay)]

    @staticmethod
    def _replay_one(cert, evaluator):
        count = [0]

        def counted(x, y):
            count[0] += 1
            return evaluator(x, y)

        ok = interval.replay_certificate(cert, counted)
        return {"target": cert.target, "threshold": cert.threshold,
                "ok": bool(ok), "boxes": count[0]}

    def replay(self):
        self.results.append([self._replay_one(c, ev) for c, ev in self.certs])

    def warmup(self):
        cert, ev = next((c, ev) for c, ev in self.certs if c.target == "B1")
        self._replay_one(cert, ev)

    def finish(self):
        save_boxes([c for c, _ in self.certs], os.path.join(self.out, "boxes"))
        b2, ev = next((c, ev) for c, ev in self.certs if c.target == "B2")
        raised = self._replay_one(dataclasses.replace(b2, threshold=1.0), ev)
        return {"rounds": self.results, "boxes_dir": os.path.join(self.out, "boxes"),
                "raised": raised}


class Immersion:
    """At four seeded moduli points: ``geometry_residuals`` at 512 x 512,
    ``cp2tori export --obj`` and ``cp2tori periodicity`` at its defaults."""

    name = "immersion"

    def __init__(self, seed, out, residual_grid=inputs.RESIDUAL_GRID,
                 export_grid=inputs.EXPORT_GRID):
        self.out = out
        self.points = inputs.immersion_inputs(seed)
        self.residual_grid = tuple(residual_grid)
        self.export_grid = tuple(export_grid)
        self.reports = {}
        self.round = []
        for k, p in enumerate(self.points):
            d = family.derive_constants(
                family.AlphaTriple(*p["alpha"]),
                family.ModuliPoint(p["a1"], p["a2"], family.Branch(p["branch"])))
            moduli = ["--alpha", *map(str, p["alpha"]), "--a1", repr(p["a1"]),
                      "--a2", repr(p["a2"]), "--branch", p["branch"]]
            p.update(csv=os.path.join(out, f"export-{k}.csv"),
                     obj=os.path.join(out, f"export-{k}.obj"),
                     periodicity=os.path.join(out, f"periodicity-{k}.json"))
            export = ["export", *moduli, "--grid", *map(str, self.export_grid),
                      "--out", p["csv"], "--obj", p["obj"]]
            period = ["periodicity", *moduli, "--json-out", p["periodicity"]]
            self.round += [("residuals", self._residuals(k, d)),
                           ("export", lambda argv=export: run_cli_ok(argv)),
                           ("periodicity", lambda argv=period: run_cli_ok(argv))]

    def _residuals(self, k, d):
        def op():
            report = immersion.geometry_residuals(d, self.residual_grid)
            self.reports[k] = dataclasses.asdict(report)
        return op

    def warmup(self):
        p = self.points[0]
        d = family.derive_constants(
            family.AlphaTriple(*p["alpha"]),
            family.ModuliPoint(p["a1"], p["a2"], family.Branch(p["branch"])))
        immersion.geometry_residuals(d, (16, 16))
        run_cli_ok(["export", "--alpha", *map(str, p["alpha"]), "--a1", repr(p["a1"]),
                    "--a2", repr(p["a2"]), "--branch", p["branch"], "--grid", "4", "4",
                    "--out", os.path.join(self.out, "warmup.csv")])

    def finish(self):
        return {"points": self.points, "reports": [self.reports.get(k) for k in range(len(self.points))],
                "residual_grid": list(self.residual_grid),
                "export_grid": list(self.export_grid)}


WORKLOADS = {w.name: w for w in (Sweep, Certify, Replay, Immersion)}
