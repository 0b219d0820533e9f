import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cp2tori
from cp2tori import cli
from cp2tori.cli import (EXIT_DEGENERATE, EXIT_INFEASIBLE, EXIT_NOT_PROVED,
                         EXIT_OK, EXIT_USAGE, main)
from scalar_spot_checks import sampled_energy_bounds_loop


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_energy_homogeneous_equality(capsys):
    r = f"{1.0 / math.sqrt(3.0):.15f}"
    code, out, _ = run(capsys, "energy", "--family", "homogeneous", "--r", r, r, r)
    assert code == EXIT_OK
    ratio = float(out.split("ratio =")[1])
    assert abs(ratio - 1.0) <= 1e-6


def test_energy_clifford(capsys):
    code, out, _ = run(capsys, "energy", "--family", "clifford")
    assert code == EXIT_OK
    val = float(out.split("E =")[1].split()[0])
    assert val == pytest.approx(4 * math.pi ** 2 / (3 * math.sqrt(3)), rel=1e-11)


def test_energy_mironov_ratio_above_one(capsys):
    code, out, _ = run(capsys, "energy", "--family", "mironov",
                       "--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2",
                       "--branch", "minus")
    assert code == EXIT_OK
    assert float(out.split("ratio =")[1]) > 1.0


R = f"{1.0 / math.sqrt(3.0):.15f}"


@pytest.mark.parametrize("family, options, unread", [
    ("clifford", {"alpha": [2, 1, -1], "a1": 9, "a2": 1, "periods": 5, "branch": "plus"},
     "--alpha, --a1, --a2, --branch, --periods"),
    # at their default values
    ("clifford", {"branch": "minus"}, "--branch"),
    ("clifford", {"periods": 1}, "--periods"),
    ("clifford", {"r": [R, R, R]}, "--r"),
    ("homogeneous", {"r": [R, R, R], "alpha": [2, 1, -1], "periods": 1}, "--alpha, --periods"),
    ("homogeneous", {"r": [R, R, R], "branch": "minus"}, "--branch"),
    ("mironov", {"alpha": [2, 1, -1], "a1": 1.8, "a2": 1.2, "r": [R, R, R]}, "--r"),
])
def test_energy_options_the_family_does_not_read_are_usage_errors(tmp_path, capsys, family,
                                                                   options, unread):
    # clifford reads no option, homogeneous --r alone and mironov every
    # option but --r; any other is an error, from a flag or a config file
    flags = [item for key, value in options.items()
             for item in (f"--{key}", *map(str, value if isinstance(value, list) else [value]))]
    message = f"energy: the {family} family reads no {unread}"
    assert _exit_code("energy", "--family", family, *flags) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and message in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(options))
    assert _exit_code("energy", "--family", family, "--config", str(cfg)) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_energy_families_read_their_own_options(tmp_path, capsys):
    # the options a family reads still work at their default values, from
    # flags and from a config file, and print what they printed alone
    moduli = ["--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2"]
    plain = run(capsys, "energy", *moduli)
    assert plain[0] == EXIT_OK and "branch = minus  N = 1" in plain[1]
    assert run(capsys, "energy", *moduli, "--branch", "minus", "--periods", "1") == plain
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "mironov", "branch": "minus", "periods": 1}))
    assert run(capsys, "energy", *moduli, "--config", str(cfg)) == plain
    cfg.write_text(json.dumps({"family": "homogeneous", "r": [R, R, R]}))
    code, out, _ = run(capsys, "energy", "--config", str(cfg))
    assert code == EXIT_OK and out.startswith("E = ")
    assert run(capsys, "energy", "--family", "clifford")[0] == EXIT_OK


def test_energy_infeasible_exit_code(capsys):
    code, _, err = run(capsys, "energy", "--family", "mironov",
                       "--alpha", "2", "1", "-1", "--a1", "3.0", "--a2", "2.5")
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err.lower()


def test_energy_on_the_box_edge_is_feasible(capsys):
    # a2 = -alpha2 alpha3, where Q(a2) = 0 and the discriminant written as
    # P^2 - (a1-a2)^2 R^2 is -2.6e-16 in floats: a double root, not an
    # infeasible point
    moduli = ("--alpha", "2", "1", "-1", "--a1", "1.0344827586206897", "--a2", "1.0")
    code, out, err = run(capsys, "energy", *moduli)
    assert code == EXIT_OK and err == ""
    assert float(out.split("ratio =")[1]) > 1.0
    # the printed discriminant is 0 there and on the edge a1 = -alpha1 alpha3,
    # where Q(a1) is -0.0 in floats; "-0" would read as negative
    for a1, a2 in [("1.0344827586206897", "1.0"), ("2.0", "1.2")]:
        code, out, _ = run(capsys, "feasibility", "--alpha", "2", "1", "-1",
                           "--a1", a1, "--a2", a2)
        assert code == EXIT_OK and "feasible: True" in out
        assert re.search(r"discriminant = (\S+)", out).group(1) == "0", out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--family", "mironov", "--alpha", "2", "1"])  # wrong arity
    assert exc.value.code == EXIT_USAGE


def test_missing_required_flags_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--family", "mironov"])  # no alpha/a1/a2
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--family", "homogeneous"])  # no --r
    assert exc.value.code == EXIT_USAGE
    assert "--r" in capsys.readouterr().err


def _exit_code(*argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


def test_verify_rejects_nonpositive_eps(tmp_path, capsys):
    # the band width is not an option: every value of --eps is refused
    for eps in ("0", "-1e-4", "nan"):
        assert _exit_code("verify", "--target", "B1", "--eps", eps,
                          "--out-dir", str(tmp_path)) == EXIT_USAGE, eps
        assert "--eps" in capsys.readouterr().err
    assert not (tmp_path / "B1.json").exists()


def test_verify_rejects_eps_above_a_quarter(tmp_path, capsys):
    from cp2tori import bounds

    # the two band charts of B2 cover the band 0 < x - y <= eps only for
    # eps <= 1/4; the band width is fixed at bounds.BAND_EPS, so no wider
    # band can be asked for and B2 is never claimed with the band uncovered
    for eps in ("0.4", "0.2500001", "1", "inf"):
        assert _exit_code("verify", "--target", "B2", "--eps", eps, "--threshold", "0.1",
                          "--out-dir", str(tmp_path)) == EXIT_USAGE, eps
        assert "--eps" in capsys.readouterr().err
    assert not (tmp_path / "B2.json").exists()
    assert bounds.BAND_EPS <= 0.25


def test_verify_sets_no_band_width_or_budget(tmp_path, capsys):
    # the band width is a constant of the chart table and the budgets are
    # the engine's own: a flag or a config key naming one is a usage error
    # that names it, before any certificate is written
    out_dir = tmp_path / "certs"
    cfg = tmp_path / "cfg.json"
    for option, key in [("--eps", "eps"), ("--max-depth", "max_depth"),
                        ("--max-boxes", "max_boxes")]:
        assert _exit_code("verify", "--target", "B2", option, "3",
                          "--out-dir", str(out_dir)) == EXIT_USAGE, option
        assert option in capsys.readouterr().err
        cfg.write_text(json.dumps({key: 3}))
        assert _exit_code("verify", "--target", "B2", "--config", str(cfg),
                          "--out-dir", str(out_dir)) == EXIT_USAGE, key
        assert repr(key) in capsys.readouterr().err
    assert not out_dir.exists()


def test_scan_has_no_jobs_option(tmp_path, capsys):
    # a scan runs in one process: --jobs is unknown on the command line
    # and in a config file
    scan = ("scan", "--alpha", "2", "1", "-1", "--grid", "3",
            "--out", str(tmp_path / "s.csv"))
    assert _exit_code(*scan, "--jobs", "2") == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 2}))
    assert _exit_code(*scan, "--config", str(cfg)) == EXIT_USAGE
    assert "'jobs' is not an option" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_rejects_nonpositive_quad_tol(tmp_path, capsys):
    # energies and phase integrals are in closed form: no subcommand has a
    # quadrature tolerance left to set, at any value
    moduli = ("--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2")
    for argv in [("energy", *moduli), ("scan", "--alpha", "2", "1", "-1"),
                 ("verify", "--out-dir", str(tmp_path)), ("periodicity", *moduli),
                 ("export", *moduli, "--out", str(tmp_path / "e.csv")),
                 ("mnk", "--m", "2", "--n", "2", "--k", "-2"),
                 ("feasibility", *moduli)]:
        for value in ("0", "1e-11"):
            assert _exit_code(*argv, "--quad-tol", value) == EXIT_USAGE, argv
            assert "--quad-tol" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


def test_degenerate_parameters_have_their_own_exit_code(capsys):
    # a phase denominator 2 e^v + alpha_j alpha_k that nearly vanishes
    # (SingularIntegrand) and a vanishing root c2 (DegenerateParameters)
    # are feasible moduli, not infeasible ones
    assert EXIT_DEGENERATE not in (EXIT_OK, EXIT_INFEASIBLE, EXIT_NOT_PROVED, EXIT_USAGE)
    code, out, err = run(capsys, "periodicity", "--alpha", "2", "1", "-1",
                         "--a1", "1.8", "--a2", "1.000000000001")
    assert code == EXIT_DEGENERATE and out == ""
    assert err.startswith("degenerate parameters:") and "phase denominator" in err
    code, _, err = run(capsys, "energy", "--alpha", "2", "1", "-1",
                       "--a1", "1.5689744598438513", "--a2", "1.2")
    assert code == EXIT_DEGENERATE and "c2" in err


def test_import_loads_no_scipy():
    # the runtime depends on numpy alone; scipy is a test oracle
    src = os.path.dirname(os.path.dirname(os.path.abspath(cp2tori.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, cp2tori.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_scan_csv_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "scan1.csv"
    out2 = tmp_path / "scan2.csv"
    for out in (out1, out2):
        code, _, err = run(capsys, "scan", "--alpha", "2", "1", "-1",
                           "--grid", "5", "--out", str(out))
        assert code == EXIT_OK
        assert "min ratio" in err
    t1, t2 = out1.read_text(), out2.read_text()
    assert t1 == t2  # deterministic at fixed config
    header = t1.splitlines()[0]
    assert header == ("alpha1,alpha2,alpha3,a1,a2,branch,c2,a3,a,T,A,W,E,ratio")
    rows = t1.strip().splitlines()[1:]
    assert rows
    ratio_col = header.split(",").index("ratio")
    assert all(float(r.split(",")[ratio_col]) > 1.0 for r in rows)


def test_scan_acceptance_sweep_csv_is_pinned(tmp_path, capsys):
    # the acceptance sweep (five canonical triples, grid 30, both
    # branches), byte for byte as the CLI writes it
    out = tmp_path / "sweep.csv"
    alphas = [v for t in ("2 1 -1", "3 1 -1", "3 2 -1", "1 0 -1", "2 0 -1")
              for v in ("--alpha", *t.split())]
    code, _, err = run(capsys, "scan", *alphas, "--grid", "30", "--branch", "both",
                       "--out", str(out))
    assert code == EXIT_OK and "rows = 4350 " in err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "58bc9ba6e6e6d6407fcc7e935a06cb946f59141fd90bc39ae0d32f6b01b61389")


CANONICAL_ALPHAS = [v for t in ("2 1 -1", "3 1 -1", "3 2 -1", "1 0 -1", "2 0 -1")
                    for v in ("--alpha", *t.split())]
# the canonical triples reversed
MIXED_ALPHAS = [v for t in ("2 0 -1", "1 0 -1", "3 2 -1", "3 1 -1", "2 1 -1")
                for v in ("--alpha", *t.split())]


@pytest.mark.parametrize("alphas, options, rows, digest", [
    (CANONICAL_ALPHAS, ["--grid", "30", "--branch", "plus"], 2175,
     "1d24cce0f89075e412f53dfe2a9f0ee0a9bc0b72cde3b7c3db29b0e37a405dd6"),
    (CANONICAL_ALPHAS, ["--grid", "30", "--branch", "minus"], 2175,
     "034f7cc5e83090b10c6f306ad3f1850d4ba7261d43f64efb09556815f5e95013"),
    (CANONICAL_ALPHAS, ["--grid", "30", "--periods", "3"], 4350,
     "3b1ea3da1be7b9f29f7d43bc552a5f7b7e249ad5be7430cac3d2064288838360"),
    (CANONICAL_ALPHAS, ["--grid", "41", "--margin", "0.001"], 8200,
     "026e76ee671228bf22f4d4cd4dc265551bbeeb5ca5aaea13ada65e402eab26dc"),
    (MIXED_ALPHAS, ["--grid", "30"], 4350,
     "bf344e305fef168d05630553f0a75ff1260e1fb4ebd3208d3b9351adb8b9df72"),
])
def test_scan_csv_variants_are_pinned(tmp_path, capsys, alphas, options, rows, digest):
    # one branch, several periods, a finer grid with a thinner margin and
    # triples in another order, byte for byte
    out = tmp_path / "scan.csv"
    code, _, err = run(capsys, "scan", *alphas, *options, "--out", str(out))
    assert code == EXIT_OK and f"rows = {rows} " in err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("branch, csv_digest, obj_digest", [
    ("minus", "f5002468a2d7281d7012cd3eae4abf7b95feae4be214205bd48cf851a20813c3",
     "3853d7860190790937723c2a976f686740ea43971c42c10ba0d93395223c418e"),
    ("plus", "952bffb9f1ec5ef7541cbf98fe2aaeb9cf59cc68c05c1c4f49e7fcaaa23f4013",
     "2f25effbcea5e736ca0402bb09574f4bc5701f554178a5b728408a8bc00168b8"),
])
def test_export_files_are_pinned(tmp_path, capsys, branch, csv_digest, obj_digest):
    out, obj = tmp_path / "samples.csv", tmp_path / "cloud.obj"
    code, _, _ = run(capsys, "export", "--alpha", "2", "1", "-1", "--a1", "1.8",
                     "--a2", "1.2", "--branch", branch, "--grid", "16", "256",
                     "--out", str(out), "--obj", str(obj))
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(obj.read_bytes()).hexdigest() == obj_digest


def test_scan_and_export_report_their_throughput(tmp_path, capsys):
    throughput = r"in \d+\.\d{3} s \((\d+|inf) rows/s\)"
    code, _, err = run(capsys, "scan", "--alpha", "2", "1", "-1", "--grid", "5",
                       "--out", str(tmp_path / "s.csv"))
    assert code == EXIT_OK
    assert re.fullmatch(rf"rows = 20  min ratio = \S+  {throughput}\n", err), err
    out = tmp_path / "e.csv"
    code, stdout, _ = run(capsys, "export", "--alpha", "2", "1", "-1", "--a1", "1.8",
                          "--a2", "1.2", "--grid", "8", "8", "--out", str(out))
    assert code == EXIT_OK
    assert re.fullmatch(rf"wrote 64 rows to {re.escape(str(out))} "
                        rf"\(chart component \d\) {throughput}\n", stdout), stdout


def test_scan_grid_too_large_to_allocate_is_an_error(tmp_path, capsys):
    # a grid whose very first array (n floats: 711 PiB at n = 1e17) lies
    # beyond any 64-bit address space is refused at once, as an error line
    # and the usage exit code, not a traceback
    code, out, err = run(capsys, "scan", "--alpha", "2", "1", "-1",
                         "--grid", str(10 ** 17), "--out", str(tmp_path / "s.csv"))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: Unable to allocate")
    assert not (tmp_path / "s.csv").exists()


def test_scan_empty_feasible_set_warns(tmp_path, capsys):
    # a grid of one point has a1 = a2 there, so it keeps no point
    out = tmp_path / "empty.csv"
    code, _, err = run(capsys, "scan", "--alpha", "2", "1", "-1",
                       "--grid", "1", "--out", str(out))
    assert code == EXIT_OK
    assert "zero rows" in err
    assert len(out.read_text().strip().splitlines()) == 1  # header only


@pytest.mark.parametrize("weights", [("0", "0", "0"), ("1", "1", "-1"), ("1", "2", "-1"),
                                     ("2", "1", "0")])
def test_scan_refuses_a_triple_not_in_strict_normal_form(tmp_path, capsys, weights):
    # a triple whose Lemma 3 box is a point, or that is unordered, is a
    # usage error naming the strict normal form, before any output;
    # feasibility still evaluates it
    out = tmp_path / "s.csv"
    code, stdout, err = run(capsys, "scan", "--alpha", "2", "1", "-1", "--alpha", *weights,
                            "--grid", "5", "--out", str(out))
    assert code == EXIT_USAGE and stdout == ""
    assert err == (f"error: ({', '.join(weights)}) is not in normal form "
                   "alpha1 > alpha2 >= 0 > alpha3\n")
    assert not out.exists()
    code, stdout, _ = run(capsys, "feasibility", "--alpha", *weights, "--a1", "1", "--a2", "0.5")
    assert code == EXIT_OK and "feasible: False" in stdout


def test_scan_zero_rows_warning_covers_a_vanishing_c2(tmp_path, capsys):
    # at --grid 2 --margin 0 the one grid point is the box corner
    # (a1, a2) = (2, 1), where Q(2) = Q(1) = 0: it is feasible, but c2 = 0
    # on both branches, so it gives no row; the warning must not call the
    # feasible set empty
    from cp2tori.family import AlphaTriple, feasibility_check
    from cp2tori.functionals import feasible_grid
    al = AlphaTriple(2, 1, -1)
    a1, a2 = feasible_grid(al, 2, 0.0)
    assert a1.tolist() == [2.0] and a2.tolist() == [1.0]
    assert feasibility_check(al, 2.0, 1.0).feasible
    out = tmp_path / "s.csv"
    code, _, err = run(capsys, "scan", "--alpha", "2", "1", "-1", "--grid", "2",
                       "--margin", "0", "--out", str(out))
    assert code == EXIT_OK
    assert err == "warning: zero rows: no grid point is feasible with a nonvanishing c2\n"
    assert len(out.read_text().splitlines()) == 1  # header only
    for branch in ("minus", "plus"):
        code, _, err = run(capsys, "energy", "--alpha", "2", "1", "-1", "--a1", "2",
                           "--a2", "1", "--branch", branch)
        assert code == EXIT_DEGENERATE and f"c2 ({branch} branch) vanishes" in err


def test_verify_single_target_and_threshold(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--target", "B1", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    data = json.loads((tmp_path / "B1.json").read_text())
    assert data["status"] == "proved"
    assert data["epsilon"] == 0.0  # the closed triangle: no band excluded
    code, out, _ = run(capsys, "verify", "--target", "B2", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert json.loads((tmp_path / "B2.json").read_text())["epsilon"] == 1e-4
    # a deliberately unprovable threshold fails with a witness
    code, out, _ = run(capsys, "verify", "--target", "B1", "--threshold", "1.2",
                       "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_PROVED
    assert "witness" in out
    x, y, val = json.loads((tmp_path / "B1.json").read_text())["witness"]
    b1 = ((16 + 8 * x + 8 * y - 7 * x * x - 14 * x * y - 7 * y * y)
          / (16 * math.sqrt((2 - x) * (2 - x - y) * x)))
    assert 0 <= y <= x <= 1 and b1 <= val < 1.2


def test_verify_threshold_is_the_one_given(tmp_path, capsys):
    # 0 is a threshold like any other, not "use the default"
    code, out, _ = run(capsys, "verify", "--target", "B1", "--threshold", "0",
                       "--out-dir", str(tmp_path))
    assert code == EXIT_OK and "B1: proved  threshold=0 " in out
    assert json.loads((tmp_path / "B1.json").read_text())["threshold"] == 0.0
    # the other targets prove fixed thresholds; an ignored flag is an error
    for target, value in [("all", "0.5"), ("scalars", "0.5"), ("B1", "nan"), ("B2", "inf")]:
        assert _exit_code("verify", "--target", target, "--threshold", value,
                          "--out-dir", str(tmp_path)) == EXIT_USAGE
        assert "--threshold" in capsys.readouterr().err


def test_verify_rejects_nonpositive_counts(tmp_path, capsys):
    # a seed may be 0, but not negative
    inputs = [("--samples", "0"), ("--samples", "-5"), ("--seed", "-5")]
    for option, value in inputs:
        assert _exit_code("verify", option, value,
                          "--out-dir", str(tmp_path)) == EXIT_USAGE
        assert option in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_computes_band_certificates_once(tmp_path, capsys, monkeypatch):
    from collections import Counter
    from cp2tori import bounds
    calls = Counter()
    real = bounds.certify_lower_bound

    def counted(target, *args, **kwargs):
        calls[target] += 1
        return real(target, *args, **kwargs)

    monkeypatch.setattr(bounds, "certify_lower_bound", counted)
    code, out, _ = run(capsys, "verify", "--target", "B2", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert calls == {"B2": 1, "B2-diagonal-strip": 1, "B2-diagonal-strip-corner": 1}
    notes = json.loads((tmp_path / "B2.json").read_text())["notes"]
    assert sum("companion certificate" in n for n in notes) == 2


CERTIFICATES = ("B1", "B2", "B2-diagonal-strip", "B2-diagonal-strip-corner",
                "scalar-1", "scalar-2")


def test_verify_encloses_a_window_of_levels_per_call(tmp_path, capsys, monkeypatch):
    # one evaluator call per depth level makes 48 calls for the 1,082 boxes
    # of the six certificates; a window of levels per call makes at most
    # 30, and no call holds more boxes than the larger of the window budget
    # and the frontier the window started from
    from cp2tori import bounds, interval
    sizes = []  # (boxes in the call, the frontier its window started from)
    real = bounds.certify_lower_bound

    def counted(target, evaluator, *args, clip=None, **kwargs):
        clip = clip or interval._clip_arrays_noop
        frontier = []

        def seen_clip(xlo, xhi, ylo, yhi):
            if xlo is not xhi and not frontier:  # not a midpoint's clip
                frontier.append(xlo.size)
            return clip(xlo, xhi, ylo, yhi)

        def seen_evaluator(x, y):
            sizes.append((x.lo.size, frontier.pop()))
            return evaluator(x, y)

        return real(target, seen_evaluator, *args, clip=seen_clip, **kwargs)

    monkeypatch.setattr(bounds, "certify_lower_bound", counted)
    code, _, _ = run(capsys, "verify", "--target", "all", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert len(sizes) <= 30
    assert all(n <= max(interval._WINDOW, start) for n, start in sizes), sizes
    examined = [json.loads((tmp_path / f"{name}.json").read_text())["boxes_examined"]
                for name in CERTIFICATES]
    assert sum(examined) == 1082


def test_verify_stdout_at_the_defaults(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    for target in CERTIFICATES:
        lines = [l for l in out.splitlines() if l.startswith(f"{target}: ")]
        assert len(lines) == 1 and lines[0].startswith(f"{target}: proved  ")
        assert json.loads((tmp_path / f"{target}.json").read_text())["status"] == "proved"
    assert sorted(os.listdir(tmp_path)) == sorted(f"{t}.json" for t in CERTIFICATES)
    assert len(re.findall(r"^tail .*-> ok$", out, re.M)) == 2
    assert len(re.findall(r"^energy bound spot checks: 200 random feasible points "
                          r"\(seed=20240801\): 0 violations$", out, re.M)) == 1


def test_verify_reports_a_failed_tail(tmp_path, capsys, monkeypatch):
    # x^2 - 3x + 2 has the real roots 1 and 2: the integer check fails and
    # says so on its own line, while the certificate beside it is proved
    from cp2tori import bounds
    monkeypatch.setitem(bounds.SCALAR_QUADRATICS, "scalar-1", (1, -3, 2))
    code, out, _ = run(capsys, "verify", "--target", "scalars",
                       "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_PROVED
    assert re.search(r"^scalar-1: proved  ", out, re.M)
    assert re.search(r"^tail scalar-1: .*discriminant 1  -> FAILED$", out, re.M)
    assert re.search(r"^tail scalar-2: .*-> ok$", out, re.M)


@pytest.mark.parametrize("target", ["B1", "B2"])
def test_verify_prints_no_tail_line_without_the_scalars(tmp_path, capsys, target):
    code, out, _ = run(capsys, "verify", "--target", target, "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert not re.search(r"^tail ", out, re.M)


def test_verify_reports_failed_energy_spot_checks(tmp_path, capsys, monkeypatch):
    # the spot checks see half of each energy: some points then fall below
    # the energy bound or the Clifford ratio, while every certificate,
    # which takes its energies elsewhere, is still proved
    import dataclasses
    from cp2tori import cli
    real = cli.energy_mironov

    def halved(d, n_periods=1):
        fv = real(d, n_periods)
        return dataclasses.replace(fv, energy=fv.energy / 2, ratio=fv.ratio / 2)

    monkeypatch.setattr(cli, "energy_mironov", halved)
    code, out, _ = run(capsys, "verify", "--seed", "7", "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_PROVED
    assert all(re.search(rf"^{t}: proved  ", out, re.M) for t in CERTIFICATES)
    found = re.findall(r"^energy bound spot checks: 200 random feasible points "
                       r"\(seed=7\): (\d+) violations$", out, re.M)
    assert len(found) == 1 and int(found[0]) > 0


@pytest.mark.parametrize("samples", [1, 7, 200, 2 * cli._SPOT_BATCH + 19])
def test_spot_checks_match_the_scalar_loop(samples):
    # the batches check the points the one-at-a-time loop checks, with its
    # verdicts; the last count takes three batches
    for seed in range(1, 51):
        assert (cli._sampled_energy_bounds(seed, samples)
                == sampled_energy_bounds_loop(seed, samples)), seed


def test_spot_check_violations_match_the_scalar_loop(monkeypatch):
    # with halved energies, as in test_verify_reports_failed_energy_spot_checks
    import dataclasses
    real = cli.energy_mironov

    def halved(d, n_periods=1):
        fv = real(d, n_periods)
        return dataclasses.replace(fv, energy=fv.energy / 2, ratio=fv.ratio / 2)

    monkeypatch.setattr(cli, "energy_mironov", halved)
    total = 0
    for seed in range(1, 51):
        checked, violations = cli._sampled_energy_bounds(seed, 200)
        assert (checked, violations) == sampled_energy_bounds_loop(seed, 200), seed
        total += len(violations)
    assert total > 0


def test_spot_check_rows_are_paired_with_their_points():
    # derive_grid gives no row for an infeasible point (a1 above the box,
    # a2 below it), and names the point of each row, an equal point
    # included
    from cp2tori.errors import Cp2ToriError
    from cp2tori.family import (AlphaTriple, ModuliPoint, derive_constants,
                                derive_grid)
    alpha = AlphaTriple(2, 1, -1)
    a1 = np.array([1.8, 2.5, 1.6, 1.5, 1.6, 1.9])
    a2 = np.array([1.2, 1.5, 1.1, 0.5, 1.1, 1.3])
    for branch in ("minus", "plus"):
        expected = []
        for i, point in enumerate(zip(a1.tolist(), a2.tolist())):
            try:
                derive_constants(alpha, ModuliPoint(*point, cli.Branch(branch)))
                expected.append(i)
            except Cp2ToriError:
                pass
        _, rows = derive_grid(alpha, a1, a2, np.array([branch] * a1.size))
        assert rows.tolist() == expected
        assert a1.size - len(expected) == 2


def test_spot_checks_make_one_derive_grid_call_per_triple(monkeypatch):
    # each candidate is derived on its own branch: the five triples of a
    # batch take one call each
    calls = []
    real = cli.derive_grid

    def counted(alpha, *args):
        calls.append(alpha)
        return real(alpha, *args)

    monkeypatch.setattr(cli, "derive_grid", counted)
    for seed in (1, 7, 20240801):
        calls.clear()
        assert cli._sampled_energy_bounds(seed, 200)[0] == 200
        assert sorted(a.weights for a in calls) == sorted(a.weights for a in cli._SPOT_TRIPLES)


def test_verify_spot_checks_derive_no_single_point(tmp_path, capsys, monkeypatch):
    from cp2tori import family

    def refused(*args):
        raise AssertionError("derive_constants called")

    monkeypatch.setattr(family, "derive_constants", refused)
    monkeypatch.setattr(cli, "derive_constants", refused)
    code, out, _ = run(capsys, "verify", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert "energy bound spot checks: 200 random feasible points" in out


def test_periodicity_json(tmp_path, capsys):
    out = tmp_path / "lattice.json"
    code, stdout, _ = run(capsys, "periodicity", "--alpha", "2", "1", "-1",
                          "--a1", "1.8", "--a2", "1.2", "--branch", "minus",
                          "--tol", "1e-3", "--json-out", str(out))
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["status"] in ("periodic", "not_periodic")
    assert data["alpha"] == [2, 1, -1]
    if data["status"] == "periodic":
        assert data["e1"] == [0.0, 2 * math.pi]
        assert data["N"] >= 1


def test_export_row_count(tmp_path, capsys):
    out = tmp_path / "samples.csv"
    obj = tmp_path / "cloud.obj"
    code, stdout, _ = run(capsys, "export", "--alpha", "2", "1", "-1",
                          "--a1", "1.8", "--a2", "1.2", "--grid", "8", "8",
                          "--out", str(out), "--obj", str(obj))
    assert code == EXIT_OK
    assert len(out.read_text().strip().splitlines()) == 65  # header + 64
    assert obj.read_text().startswith("v ")


@pytest.mark.parametrize("command", ["export", "scan", "periodicity", "verify"])
def test_unwritable_output_paths_are_usage_errors(tmp_path, capsys, command):
    # verify creates a missing --out-dir, so its path lies under a file
    missing = tmp_path / "missing"
    (tmp_path / "file").write_text("")
    moduli = ("--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2")
    export = ("export", *moduli, "--grid", "4", "4")
    cases = {
        "export": [(*export, "--out", str(missing / "e.csv")),
                   (*export, "--out", str(tmp_path / "e.csv"), "--obj", str(missing / "e.obj"))],
        "scan": [("scan", "--alpha", "2", "1", "-1", "--grid", "3",
                  "--out", str(missing / "s.csv"))],
        "periodicity": [("periodicity", *moduli, "--json-out", str(missing / "p.json"))],
        "verify": [("verify", "--target", "B1", "--out-dir", str(tmp_path / "file" / "certs"))],
    }
    for argv in cases[command]:
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert err.startswith("error: ") and "Traceback" not in err
    assert not missing.exists()


def test_grid_sizes_below_one_are_usage_errors(tmp_path, capsys):
    out = tmp_path / "e.csv"
    export = ("export", "--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2",
              "--out", str(out))
    scan = ("scan", "--alpha", "2", "1", "-1")
    for argv in [(*export, "--grid", "4", "0"), (*export, "--grid", "0", "4"),
                 (*export, "--grid", "-2", "4"), (*scan, "--grid", "0"),
                 (*scan, "--grid", "-2")]:
        assert _exit_code(*argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert "--grid" in captured.err and captured.out == ""
    cfg = tmp_path / "cfg.json"
    for bad, argv in [({"grid": [4, 0]}, export), ({"grid": 0}, scan)]:
        cfg.write_text(json.dumps(bad))
        assert _exit_code(*argv, "--config", str(cfg)) == EXIT_USAGE, bad
        assert "grid" in capsys.readouterr().err
    assert not out.exists()


def test_mnk_classification(capsys):
    code, out, _ = run(capsys, "mnk", "--m", "2", "--n", "2", "--k", "-2")
    assert code == EXIT_OK and "torus" in out
    code, out, _ = run(capsys, "mnk", "--m", "2", "--n", "2", "--k", "-1")
    assert code == EXIT_OK and "Klein bottle" in out


def test_feasibility_output(capsys):
    code, out, _ = run(capsys, "feasibility", "--alpha", "2", "1", "-1",
                       "--a1", "1.8", "--a2", "1.2")
    assert code == EXIT_OK and "feasible: True" in out
    code, out, _ = run(capsys, "feasibility", "--alpha", "2", "1", "-1",
                       "--a1", "3.0", "--a2", "2.5")
    assert code == EXIT_OK and "feasible: False" in out
    assert "box" in out


def test_params_file(tmp_path, capsys):
    # a --config file of moduli parameters
    params = tmp_path / "p.json"
    params.write_text(json.dumps(
        {"alpha": [2, 1, -1], "a1": 1.8, "a2": 1.2, "branch": "minus"}))
    code, out, _ = run(capsys, "energy", "--family", "mironov",
                       "--config", str(params))
    assert code == EXIT_OK
    assert float(out.split("ratio =")[1]) > 1.0


def test_params_file_sets_the_branch(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(
        {"alpha": [2, 1, -1], "a1": 1.8, "a2": 1.2, "branch": "plus"}))
    code, out, _ = run(capsys, "energy", "--config", str(params))
    assert code == EXIT_OK and "branch = plus" in out
    _, flags, _ = run(capsys, "energy", "--alpha", "2", "1", "-1", "--a1", "1.8",
                      "--a2", "1.2", "--branch", "plus")
    assert out == flags


def test_params_option_is_gone(tmp_path, capsys):
    # --config presets the moduli; the second file option that did only
    # that is an unrecognized argument
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"alpha": [2, 1, -1], "a1": 1.8, "a2": 1.2}))
    for argv in [("energy", "--params", str(params)),
                 ("periodicity", "--params", str(params)),
                 ("export", "--params", str(params), "--out", str(tmp_path / "e.csv"))]:
        assert _exit_code(*argv) == EXIT_USAGE, argv
        assert "unrecognized arguments: --params" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


def test_a_config_cannot_set_a_required_option(tmp_path, capsys):
    # scan's --alpha and export's --out must come from the command line: a
    # config key for either was checked and then dropped; now it is a usage
    # error that names the key, and nothing is written
    cfg = tmp_path / "cfg.json"
    scan = ("scan", "--alpha", "2", "1", "-1", "--grid", "3",
            "--out", str(tmp_path / "s.csv"))
    export = ("export", "--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2",
              "--grid", "4", "4", "--out", str(tmp_path / "e.csv"))
    for bad, argv in [({"alpha": [3, 1, -1]}, scan),
                      ({"out": str(tmp_path / "x.csv")}, export)]:
        cfg.write_text(json.dumps(bad))
        assert _exit_code(*argv, "--config", str(cfg)) == EXIT_USAGE, bad
        err = capsys.readouterr().err
        assert f"config: {next(iter(bad))!r} is not an option" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_feasibility_takes_no_config(tmp_path, capsys):
    # every feasibility option is required, so a file could preset none
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({}))
    argv = ("feasibility", "--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2")
    assert _exit_code(*argv, "--config", str(cfg)) == EXIT_USAGE
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert run(capsys, *argv)[0] == EXIT_OK


def test_main_reads_sys_argv_and_its_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a1": 1.8, "a2": 1.2, "branch": "plus"}))
    monkeypatch.setattr(sys, "argv", ["cp2tori", "energy", "--alpha", "2", "1", "-1",
                                      "--config", str(cfg)])
    assert main() == EXIT_OK
    out = capsys.readouterr().out
    assert "a1 = 1.8  a2 = 1.2  branch = plus" in out


@pytest.mark.parametrize("option", ["--config"])
def test_unusable_option_files_are_usage_errors(tmp_path, capsys, option):
    # a missing file, invalid JSON, a top level that is not an object, an
    # unknown key (a leftover quad_tol included) and a bad value each exit
    # 64 with a message naming the config file, not with a traceback
    argv = ("export", "--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2",
            "--out", str(tmp_path / "e.csv"))
    bad = tmp_path / "bad.json"
    cases = [(None, "cannot read"), ("{bad", "not valid JSON"),
             ("[1, 2]", "JSON object"), ('"x"', "JSON object"),
             ('{"quad_tol": 1e-9}', "'quad_tol' is not an option"),
             ('{"alpha": "x"}', "alpha")]
    for text, message in cases:
        path = tmp_path / "missing.json" if text is None else bad
        if text is not None:
            bad.write_text(text)
        assert _exit_code(*argv, option, str(path)) == EXIT_USAGE, text
        err = capsys.readouterr().err
        assert "config: " in err and message in err, (text, err)
    assert not (tmp_path / "e.csv").exists()


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 4, "out": str(tmp_path / "from_cfg.csv")}))
    code, _, err = run(capsys, "scan", "--alpha", "2", "1", "-1",
                       "--config", str(cfg))
    assert code == EXIT_OK
    assert (tmp_path / "from_cfg.csv").exists()
    # explicit flag wins over the config value
    code, _, _ = run(capsys, "scan", "--alpha", "2", "1", "-1",
                     "--config", str(cfg), "--out", str(tmp_path / "flag.csv"))
    assert (tmp_path / "flag.csv").exists()


def test_config_sets_subcommand_defaults(tmp_path, capsys):
    # "grid" has a non-None default, which the config must still override
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 3}))
    run(capsys, "scan", "--alpha", "2", "1", "-1", "--config", str(cfg),
        "--out", str(tmp_path / "cfg.csv"))
    run(capsys, "scan", "--alpha", "2", "1", "-1", "--grid", "3",
        "--out", str(tmp_path / "flag.csv"))
    text = (tmp_path / "cfg.csv").read_text()
    assert text == (tmp_path / "flag.csv").read_text()
    assert len(text.splitlines()) == 7  # header + 3 points x 2 branches


def test_a_config_file_leaves_later_calls_at_the_defaults(tmp_path, capsys):
    # main parses with one parser per process: the values a --config file
    # fills in stay with that call
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"periods": 2, "branch": "plus"}))
    moduli = ("energy", "--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2")
    code, out, _ = run(capsys, *moduli, "--config", str(cfg))
    assert code == EXIT_OK and "branch = plus  N = 2" in out
    code, out, _ = run(capsys, *moduli)
    assert code == EXIT_OK and "branch = minus  N = 1" in out


def test_config_values_are_parsed_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threshold": "1.2"}))
    code, out, _ = run(capsys, "verify", "--target", "B1",
                       "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_PROVED
    assert "threshold=1.2 " in out and "witness" in out


def test_flag_at_its_default_value_beats_the_config(tmp_path, capsys):
    # a flag given on the command line wins even where its value equals
    # the option's default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 7}))
    code, out, _ = run(capsys, "verify", "--target", "all", "--samples", "200",
                       "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert "spot checks: 200 random feasible points" in out


def test_branch_flag_at_its_default_beats_the_params_file(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"branch": "plus"}))
    moduli = ("energy", "--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2",
              "--config", str(params))
    code, out, _ = run(capsys, *moduli, "--branch", "minus")
    assert code == EXIT_OK and "branch = minus" in out
    code, out, _ = run(capsys, *moduli)
    assert code == EXIT_OK and "branch = plus" in out


def test_grid_flag_equal_to_its_default_beats_the_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": [4, 4]}))
    export = ("export", "--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2",
              "--config", str(cfg), "--out", str(tmp_path / "e.csv"))
    code, out, _ = run(capsys, *export, "--grid", "64", "64")
    assert code == EXIT_OK and "wrote 4096 rows" in out
    code, out, _ = run(capsys, *export)
    assert code == EXIT_OK and "wrote 16 rows" in out


def test_config_values_meet_the_flag_checks(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    verify = ("verify", "--out-dir", str(tmp_path))
    scan = ("scan", "--alpha", "2", "1", "-1", "--out", str(tmp_path / "s.csv"))
    export = ("export", "--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2",
              "--out", str(tmp_path / "e.csv"))
    for bad, argv in [({"threshold": "x", "target": "B1"}, verify), ({"samples": 0}, verify),
                      ({"target": "B3"}, verify), ({"grid": "x"}, scan),
                      ({"grid": 4}, export)]:
        cfg.write_text(json.dumps(bad))
        assert _exit_code(*argv, "--config", str(cfg)) == EXIT_USAGE, bad
        assert next(iter(bad)) in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "e.csv").exists()


def test_a_bad_seed_is_a_usage_error_before_any_work(tmp_path, capsys):
    # numpy's generator takes a seed >= 0: a negative one from a config
    # file, like one from the flag, is refused by the parser, before a
    # certificate is written
    out_dir = tmp_path / "certs"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -5}))
    for argv in [("--config", str(cfg)), ("--seed", "seven")]:
        assert _exit_code("verify", *argv, "--out-dir", str(out_dir)) == EXIT_USAGE, argv
        assert "--seed: must be a non-negative integer" in capsys.readouterr().err
    assert not out_dir.exists()
    assert cli._main_parser().parse_args(["verify", "--seed", "0"]).seed == 0


def test_scan_skips_degenerate_points_in_api_and_cli(tmp_path, capsys, monkeypatch):
    # the scan takes both c2 roots of a whole grid from family._c2_pair
    # (through derive_grid): a plus root below 1e-12 max(1, a1^2) at one
    # point is a vanishing c2 there, on that branch only
    from cp2tori import family, functionals
    from cp2tori.family import AlphaTriple, Branch
    al = AlphaTriple(2, 1, -1)
    a1, a2 = (float(c[0]) for c in functionals.feasible_grid(al, 4))
    real = family._c2_pair

    def c2_pair(g1, g2, q1, q2):
        minus, plus = real(g1, g2, q1, q2)
        return minus, np.where((g1 == a1) & (g2 == a2), 0.5e-12, plus)

    def scan_rows():
        # (a1, a2, branch, c2, ...) per row, as the CLI scans at --grid 4
        columns = functionals.scan_columns(al, 4, (Branch.MINUS, Branch.PLUS), 1, 0.02)
        return list(zip(*(c.tolist() for c in columns)))

    full = scan_rows()
    keys = [r[:3] for r in full]
    assert (a1, a2, "minus") in keys and (a1, a2, "plus") in keys
    monkeypatch.setattr(family, "_c2_pair", c2_pair)
    rows = scan_rows()
    assert len(rows) == len(full) - 1
    assert [r for r in full if r[:3] != (a1, a2, "plus")] == rows
    assert any(r[:3] == (a1, a2, "minus") for r in rows)
    code, _, err = run(capsys, "scan", "--alpha", "2", "1", "-1", "--grid", "4",
                       "--out", str(tmp_path / "s.csv"))
    assert code == EXIT_OK
    assert f"rows = {len(full) - 1} " in err


def test_export_chart_takes_auto_or_a_component(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "e.csv"
    export = ("export", "--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2",
              "--grid", "4", "4", "--out", str(out))
    for bad in ("5", "-1", "x", "3", ""):
        assert _exit_code(*export, "--chart", bad) == EXIT_USAGE, bad
        assert "--chart" in capsys.readouterr().err
    for bad in (5, -1, "x", 0.5, None):
        cfg.write_text(json.dumps({"chart": bad}))
        assert _exit_code(*export, "--config", str(cfg)) == EXIT_USAGE, bad
        assert "chart" in capsys.readouterr().err
    assert not out.exists()
    for good in ("0", "1", "2"):
        code, stdout, _ = run(capsys, *export, "--chart", good)
        assert code == EXIT_OK and f"(chart component {good})" in stdout
        cfg.write_text(json.dumps({"chart": int(good)}))
        code, stdout, _ = run(capsys, *export, "--config", str(cfg))
        assert code == EXIT_OK and f"(chart component {good})" in stdout
    for argv in [(*export, "--chart", "auto"), (*export,)]:
        code, stdout, _ = run(capsys, *argv)
        assert code == EXIT_OK and re.search(r"\(chart component [012]\)", stdout)
    cfg.write_text(json.dumps({"chart": "auto"}))
    code, _, _ = run(capsys, *export, "--config", str(cfg))
    assert code == EXIT_OK


def test_scan_margin_is_finite_and_nonnegative(tmp_path, capsys):
    out = tmp_path / "s.csv"
    scan = ("scan", "--alpha", "2", "1", "-1", "--grid", "5", "--out", str(out))
    for bad in ("nan", "inf", "-inf", "-0.1", "x", "0.5", "0.75", "2", "5e307"):
        assert _exit_code(*scan, "--margin", bad) == EXIT_USAGE, bad
        assert "argument --margin: " in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    for bad in ("nan", -0.1, "inf", 0.5, 0.75, 2, 5e307):
        cfg.write_text(json.dumps({"margin": bad}))
        assert _exit_code(*scan, "--config", str(cfg)) == EXIT_USAGE, bad
        assert "config: argument --margin: " in capsys.readouterr().err
    assert not out.exists()
    # no margin: the box edge a2 = alpha2 alpha3 is on the grid, which is
    # a2 = 0 when alpha2 = 0
    code, _, err = run(capsys, "scan", "--alpha", "3", "2", "-1", "--grid", "5",
                       "--margin", "0", "--out", str(out))
    assert code == EXIT_OK and "rows = 18 " in err
    code, _, err = run(capsys, "scan", "--alpha", "2", "0", "-1", "--grid", "5",
                       "--margin", "0", "--out", str(tmp_path / "t.csv"))
    assert code == EXIT_USAGE and "need a1 > a2 > 0" in err


def test_main_runs_the_command_function_named_at_call_time(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; a cmd_* replaced after that,
    # as a tracer replaces it, is still the one that runs
    from cp2tori import cli
    out = tmp_path / "s.csv"
    scan = ["scan", "--alpha", "2", "1", "-1", "--grid", "3", "--out", str(out)]
    assert main(scan) == EXIT_OK and out.exists()
    out.unlink()
    calls = []
    monkeypatch.setattr(cli, "cmd_scan", lambda ns: calls.append(ns.grid) or EXIT_OK)
    assert main(scan) == EXIT_OK
    assert calls == [3] and not out.exists()


_HUGE = "1" + "0" * 399  # an integer too large for a float


@pytest.mark.parametrize("argv", [
    ["scan", "--alpha", _HUGE, "1", "-1"],
    ["energy", "--alpha", _HUGE, "1", "-1", "--a1", "1.8", "--a2", "1.2"],
    ["feasibility", "--alpha", _HUGE, "1", "-1", "--a1", "1.8", "--a2", "1.2"],
    ["periodicity", "--alpha", _HUGE, "1", "-1", "--a1", "1.8", "--a2", "1.2"],
    ["export", "--alpha", _HUGE, "1", "-1", "--a1", "1.8", "--a2", "1.2"],
    ["energy", "--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2", "--periods", _HUGE],
    ["scan", "--alpha", "2", "1", "-1", "--periods", _HUGE],
], ids=["scan-alpha", "energy-alpha", "feasibility-alpha", "periodicity-alpha",
        "export-alpha", "energy-periods", "scan-periods"])
def test_an_integer_too_large_for_a_float_is_a_usage_error(tmp_path, capsys, argv):
    # it ended in an OverflowError traceback, exit 1
    if argv[0] in ("scan", "export"):
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "error: int too large to convert to float" in err


def test_periodicity_tol_is_positive_and_finite(tmp_path, capsys):
    # a NaN tolerance rejected no fit and reported "periodic" for any moduli
    moduli = ("periodicity", "--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2")
    for bad in ("nan", "inf", "-1", "0", "x"):
        assert _exit_code(*moduli, "--tol", bad) == EXIT_USAGE, bad
        assert "argument --tol: " in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    for bad in ("nan", -1e-9, "inf"):
        cfg.write_text(json.dumps({"tol": bad}))
        assert _exit_code(*moduli, "--config", str(cfg)) == EXIT_USAGE, bad
        assert "config: argument --tol: " in capsys.readouterr().err
    code, out, _ = run(capsys, *moduli, "--tol", "1e-3")
    assert code == EXIT_OK and "periodic" in out


def test_energy_homogeneous_rejects_non_finite_radii(capsys):
    # "-inf" is read as a value, not as an option name
    for bad in ("nan", "inf", "-inf"):
        code, out, err = run(capsys, "energy", "--family", "homogeneous",
                             "--r", "0.5", "0.5", bad)
        assert code == EXIT_USAGE, bad
        assert out == "" and "radii must be finite" in err


@pytest.mark.parametrize("command", ["energy", "feasibility", "periodicity", "export"])
def test_moduli_beyond_the_float_range_are_infeasible(tmp_path, capsys, command):
    # a1 above about 5.6e102 overflowed a float power in P: a traceback
    argv = [command, "--alpha", "2", "1", "-1", "--a1", "1e300", "--a2", "1.2"]
    if command == "export":
        argv += ["--out", str(tmp_path / "samples.csv")]
    code, out, err = run(capsys, *argv)
    if command == "feasibility":
        assert code == EXIT_OK and "feasible: False" in out
    else:
        assert code == EXIT_INFEASIBLE and "infeasible parameters" in err


def test_periods_and_max_denominator_are_positive(tmp_path, capsys):
    # the usage error names the option, from a flag and from --config
    energy = ("energy", "--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2")
    periodicity = ("periodicity", *energy[1:])
    scan = ("scan", "--alpha", "2", "1", "-1", "--out", str(tmp_path / "scan.csv"))
    cfg = tmp_path / "cfg.json"
    for argv, flag in ((energy, "--periods"), (scan, "--periods"),
                       (periodicity, "--max-denominator")):
        for bad in ("0", "-1", "x"):
            assert _exit_code(*argv, flag, bad) == EXIT_USAGE, (flag, bad)
            assert f"argument {flag}: " in capsys.readouterr().err
        for bad in (0, -3):
            cfg.write_text(json.dumps({flag[2:]: bad}))
            assert _exit_code(*argv, "--config", str(cfg)) == EXIT_USAGE, (flag, bad)
            assert f"config: argument {flag}: " in capsys.readouterr().err
        assert run(capsys, *argv, flag, "2")[0] == EXIT_OK


_MODULI = ("--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2")
_SCAN = ("scan", "--alpha", "2", "1", "-1", "--out", "out")
_EXPORT = ("export", *_MODULI, "--out", "out")
_VERIFY = ("verify", "--out-dir", "out")
_RANGED = [  # (argv, option, a non-number and an out-of-range value, rule)
    (_SCAN, "--grid", ("x", "0"), "a positive integer"),
    (_EXPORT, "--grid", ("4 x", "4 -5"), "a positive integer"),
    (("energy", *_MODULI), "--periods", ("x", "-5"), "a positive integer"),
    (_SCAN, "--periods", ("x", "0"), "a positive integer"),
    (_VERIFY, "--samples", ("x", "0"), "a positive integer"),
    (_VERIFY, "--seed", ("x", "-5"), "a non-negative integer"),
    (("periodicity", *_MODULI), "--max-denominator", ("x", "0"), "a positive integer"),
    (("periodicity", *_MODULI), "--tol", ("x", "inf"), "positive and finite"),
    (_SCAN, "--margin", ("x", "nan"), "in [0, 1/2)"),
    ((*_VERIFY, "--target", "B1"), "--threshold", ("x", "inf"), "a finite number"),
    (("energy", *_MODULI), "--branch", ("up", "both"), "'minus' or 'plus'"),
    (("periodicity", *_MODULI), "--branch", ("up", "both"), "'minus' or 'plus'"),
    (_EXPORT, "--branch", ("up", "both"), "'minus' or 'plus'"),
]


@pytest.mark.parametrize("argv, option, value, rule", [
    pytest.param(argv, option, value, rule, id=f"{argv[0]} {option} {value}")
    for argv, option, values, rule in _RANGED for value in values])
def test_every_ranged_option_names_its_rule(tmp_path, capsys, monkeypatch,
                                            argv, option, value, rule):
    # one message form for every ranged option, from a flag and from
    # --config; the last of the value's words is the bad one
    monkeypatch.chdir(tmp_path)
    tokens = value.split()
    message = f"argument {option}: must be {rule}, got {tokens[-1]!r}"
    Path("cfg.json").write_text(json.dumps({option[2:]: tokens if len(tokens) > 1 else tokens[0]}))
    for extra, prefix in (([option, *tokens], "error: "),
                          (["--config", "cfg.json"], "error: config: ")):
        assert _exit_code(*argv, *extra) == EXIT_USAGE, extra
        captured = capsys.readouterr()
        assert captured.out == "" and prefix + message in captured.err, captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    # every command of the README's fenced CLI block runs as shown, so the
    # README cannot show an option that the parser no longer has; the B1
    # threshold of 1.2 is the one the README says fails on purpose
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.DOTALL).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [c for c in lines if c]
    failing = ["verify", "--target", "B1", "--threshold", "1.2"]
    assert len(commands) == 10 and ["cp2tori", *failing] in commands
    monkeypatch.chdir(tmp_path)
    for program, *argv in commands:
        assert program == "cp2tori"
        assert main(argv) == (EXIT_NOT_PROVED if argv == failing else EXIT_OK), argv
    assert {"scan.csv", "samples.csv", "cloud.obj", "certificates"} <= set(os.listdir())
