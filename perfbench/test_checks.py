"""Each output check passes on a real output and fails on a corrupted one.

The outputs are small real ones made by the workload code (a 4 x 4 sweep
grid, a 32 x 32 residual grid), so the tests take seconds.  Run from the
repository root with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import csv
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def _edit_csv(path, edit):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    for i, row in enumerate(rows):
        edit(i, row)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _rewrite_json(path, **changes):
    with open(path) as fh:
        record = json.load(fh)
    record.update(changes)
    with open(path, "w") as fh:
        json.dump(record, fh)


@pytest.fixture
def sweep_out(tmp_path):
    w = workloads.Sweep(seed=3, out=str(tmp_path), grid=4)
    w.scan()
    out = w.finish()
    assert checks.check_sweep(out) == []
    return out


@pytest.mark.parametrize("column", ["A", "E"])
def test_sweep_check_catches_energy_off_by_1e_6(sweep_out, column):
    def perturb(i, row):
        if i == 5:
            row[column] = repr(float(row[column]) * (1 + 1e-6))
    _edit_csv(sweep_out["csv"], perturb)
    problems = checks.check_sweep(sweep_out)
    assert any(f"column {column}" in p for p in problems), problems


def test_sweep_check_catches_missing_row(sweep_out):
    with open(sweep_out["csv"]) as fh:
        lines = fh.readlines()
    with open(sweep_out["csv"], "w") as fh:
        fh.writelines(lines[:-1])
    assert any("rows" in p for p in checks.check_sweep(sweep_out))


@pytest.fixture(scope="module")
def certify_out(tmp_path_factory):
    w = workloads.Certify(seed=3, out=str(tmp_path_factory.mktemp("certify")))
    w.verify()
    out = w.finish()
    assert checks.check_certify(out, np.random.default_rng(0)) == []
    return out


def test_certify_check_catches_dropped_box(certify_out):
    path = os.path.join(certify_out["boxes_dir"], "B2.npy")
    record = os.path.join(certify_out["cert_dir"], "B2.json")
    boxes = np.load(path)
    with open(record) as fh:
        saved = fh.read()
    try:
        np.save(path, boxes[1:])
        problems = checks.check_certify(certify_out, np.random.default_rng(0))
        assert any("digest" in p for p in problems), problems
        # the widest box dropped from the certificate record too: coverage shows it
        widest = int(np.argmax((boxes[:, 1] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 2])))
        kept = np.delete(boxes, widest, axis=0)
        np.save(path, kept)
        _rewrite_json(record, box_digest=checks.box_digest(kept), retained_boxes=len(kept))
        problems = checks.check_certify(certify_out, np.random.default_rng(0))
        assert any("lie in no retained box" in p for p in problems), problems
    finally:
        np.save(path, boxes)
        with open(record, "w") as fh:
            fh.write(saved)


def test_certify_check_catches_spot_check_violation(certify_out):
    bad = dict(certify_out, stdout=certify_out["stdout"].replace(": 0 violations", ": 1 violations"))
    assert any("spot-check" in p for p in checks.check_certify(bad, np.random.default_rng(0)))


@pytest.fixture(scope="module")
def replay_out(tmp_path_factory):
    # Replaying B2 takes seconds; the results are taken as a full replay
    # reports them, and the checks are what is under test.
    w = workloads.Replay(seed=3, out=str(tmp_path_factory.mktemp("replay")))
    w.results = [[{"target": c.target, "threshold": c.threshold, "ok": True,
                   "boxes": c.retained_count} for c, _ in w.certs]]
    out = w.finish()
    assert checks.check_replay(out) == []
    return out


def _with_b2(out, **changes):
    results = [dict(r, **changes) if r["target"] == "B2" else r for r in out["rounds"][-1]]
    return dict(out, rounds=[results])


def test_replay_check_catches_raised_threshold(replay_out):
    # B2 replayed at threshold 1.0 fails, which is what replay_certificate reports
    assert replay_out["raised"]["ok"] is False
    problems = checks.check_replay(_with_b2(replay_out, threshold=1.0, ok=False))
    assert any("B2 replayed False" in p for p in problems), problems
    assert any("its claim is 0.9" in p for p in problems), problems


def test_replay_check_catches_raised_threshold_that_replays(replay_out):
    bad = dict(replay_out, raised=dict(replay_out["raised"], ok=True))
    assert any("threshold 1.0 replayed True" in p for p in checks.check_replay(bad))


def test_replay_check_catches_boxes_not_replayed(replay_out):
    problems = checks.check_replay(_with_b2(replay_out, boxes=100))
    assert any("100 boxes replayed" in p for p in problems), problems


@pytest.fixture
def immersion_out(tmp_path):
    w = workloads.Immersion(seed=3, out=str(tmp_path), residual_grid=(32, 32),
                            export_grid=(8, 16))
    for _, op in w.round:
        op()
    out = w.finish()
    assert checks.check_immersion(out) == []
    return out


def test_immersion_check_allows_constant_beta_shift(immersion_out):
    _edit_csv(immersion_out["points"][0]["csv"],
              lambda i, row: row.update(beta=repr(float(row["beta"]) + 0.5)))
    assert checks.check_immersion(immersion_out) == []


def test_immersion_check_catches_nonconstant_beta_shift(immersion_out):
    _edit_csv(immersion_out["points"][1]["csv"],
              lambda i, row: row.update(beta=repr(float(row["beta"]) + 1e-3 * float(row["x"]))))
    problems = checks.check_immersion(immersion_out)
    assert any("beta is not" in p for p in problems), problems


def test_immersion_check_catches_conformal_factor(immersion_out):
    _edit_csv(immersion_out["points"][2]["csv"], lambda i, row: row.update(
        conformal_factor=repr(float(row["conformal_factor"]) * (1 + 1e-6))))
    assert any("conformal_factor" in p for p in checks.check_immersion(immersion_out))


def test_immersion_check_catches_wrong_phase(immersion_out):
    path = immersion_out["points"][3]["periodicity"]
    with open(path) as fh:
        dg13 = json.load(fh)["dG13"]
    _rewrite_json(path, dG13=dg13 + 1e-6)
    assert any("dG13" in p for p in checks.check_immersion(immersion_out))
