import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import cp2tori
from cp2tori.cli import (EXIT_DEGENERATE, EXIT_INFEASIBLE, EXIT_NOT_PROVED,
                         EXIT_OK, EXIT_USAGE, main)


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


def test_energy_infeasible_exit_code(capsys):
    code, _, err = run(capsys, "energy", "--family", "mironov",
                       "--alpha", "2", "1", "-1", "--a1", "3.0", "--a2", "2.5")
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err.lower()


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
    for eps in ("0", "-1e-4", "nan"):
        assert _exit_code("verify", "--target", "B1", "--eps", eps,
                          "--out-dir", str(tmp_path)) == EXIT_USAGE
    assert "--eps" in capsys.readouterr().err


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
    out = tmp_path / "empty.csv"
    code, _, err = run(capsys, "scan", "--alpha", "1", "1", "-1",
                       "--grid", "5", "--out", str(out))
    assert code == EXIT_OK
    assert "zero rows" in err
    assert len(out.read_text().strip().splitlines()) == 1  # header only


def test_verify_single_target_and_threshold(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--target", "B1", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    data = json.loads((tmp_path / "B1.json").read_text())
    assert data["status"] == "proved"
    assert data["epsilon"] == 0.0  # the closed triangle: no band excluded
    code, out, _ = run(capsys, "verify", "--target", "B2", "--eps", "1e-3",
                       "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert json.loads((tmp_path / "B2.json").read_text())["epsilon"] == 1e-3
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


def test_verify_depth_reaches_the_scalar_certificates(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--target", "scalars", "--max-depth", "3",
                       "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_PROVED
    assert "scalar-1: inconclusive" in out and "depth=3 " in out
    assert "max depth 3 reached" in (tmp_path / "scalar-1.json").read_text()


def test_verify_rejects_nonpositive_counts(tmp_path, capsys):
    for option in ("--samples", "--max-depth", "--max-boxes"):
        for value in ("0", "-5"):
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
    code, out, _ = run(capsys, "verify", "--target", "B2", "--eps", "1e-3",
                       "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert calls == {"B2": 1, "B2-diagonal-strip": 1, "B2-diagonal-strip-corner": 1}
    notes = json.loads((tmp_path / "B2.json").read_text())["notes"]
    assert sum("companion certificate" in n for n in notes) == 2


CERTIFICATES = ("B1", "B2", "B2-diagonal-strip", "B2-diagonal-strip-corner",
                "scalar-1", "scalar-2", "scalar-1-tail", "scalar-2-tail")


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
    import dataclasses
    from cp2tori import bounds
    chart = bounds.CHARTS["scalar-1-tail"]
    # (t + 9/49)/sqrt(t(t+1)) is about 1.83 at t = 0.01
    monkeypatch.setitem(bounds.CHARTS, "scalar-1-tail",
                        dataclasses.replace(chart, threshold=2.0))
    code, out, _ = run(capsys, "verify", "--target", "scalars",
                       "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_PROVED
    assert "scalar-1-tail: failed" in out
    assert re.search(r"^tail scalar-1-tail: .*-> FAILED$", out, re.M)
    assert re.search(r"^tail scalar-2-tail: .*-> ok$", out, re.M)


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
    params = tmp_path / "p.json"
    params.write_text(json.dumps(
        {"alpha": [2, 1, -1], "a1": 1.8, "a2": 1.2, "branch": "minus"}))
    code, out, _ = run(capsys, "energy", "--family", "mironov",
                       "--params", str(params))
    assert code == EXIT_OK
    assert float(out.split("ratio =")[1]) > 1.0


def test_params_file_sets_the_branch(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(
        {"alpha": [2, 1, -1], "a1": 1.8, "a2": 1.2, "branch": "plus"}))
    code, out, _ = run(capsys, "energy", "--params", str(params))
    assert code == EXIT_OK and "branch = plus" in out
    _, flags, _ = run(capsys, "energy", "--alpha", "2", "1", "-1", "--a1", "1.8",
                      "--a2", "1.2", "--branch", "plus")
    assert out == flags


@pytest.mark.parametrize("option", ["--config", "--params"])
def test_unusable_option_files_are_usage_errors(tmp_path, capsys, option):
    # a missing file, invalid JSON, a top level that is not an object, an
    # unknown key (a leftover quad_tol included) and a bad value each exit
    # 64 with a message naming the file's role, not with a traceback
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
        assert f"{option[2:]}: " in err and message in err, (text, err)
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
    code, out, _ = run(capsys, "verify", "--target", "B1", "--eps", "1e-3",
                       "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_PROVED
    assert "threshold=1.2 " in out and "witness" in out


def test_flag_at_its_default_value_beats_the_config(tmp_path, capsys):
    # a flag given on the command line wins even where its value equals
    # the option's default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.001}))
    code, out, _ = run(capsys, "verify", "--target", "B2", "--eps", "1e-4",
                       "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert json.loads((tmp_path / "B2.json").read_text())["epsilon"] == 1e-4
    assert "eps=0.0001 " in out and "eps=0.001 " not in out


def test_branch_flag_at_its_default_beats_the_params_file(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"branch": "plus"}))
    moduli = ("energy", "--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2",
              "--params", str(params))
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
    for bad, argv in [({"eps": 0, "target": "B1"}, verify), ({"samples": 0}, verify),
                      ({"target": "B3"}, verify), ({"grid": "x"}, scan),
                      ({"grid": 4}, export)]:
        cfg.write_text(json.dumps(bad))
        assert _exit_code(*argv, "--config", str(cfg)) == EXIT_USAGE, bad
        assert next(iter(bad)) in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "e.csv").exists()


def test_scan_skips_degenerate_points_in_api_and_cli(tmp_path, capsys, monkeypatch):
    # the scan takes both c2 roots of a whole grid from _c2_pair: a plus
    # root below 1e-12 max(1, a1^2) at one point is a vanishing c2 there,
    # on that branch only
    from cp2tori import functionals
    from cp2tori.family import AlphaTriple
    al = AlphaTriple(2, 1, -1)
    a1, a2 = functionals.feasible_grid(al, 4)[0]
    real = functionals._c2_pair

    def c2_pair(g1, g2, q1, q2):
        minus, plus = real(g1, g2, q1, q2)
        return minus, np.where((g1 == a1) & (g2 == a2), 0.5e-12, plus)

    full = functionals.energy_scan([al], n=4)
    keys = [(r["a1"], r["a2"], r["branch"]) for r in full]
    assert (a1, a2, "minus") in keys and (a1, a2, "plus") in keys
    monkeypatch.setattr(functionals, "_c2_pair", c2_pair)
    rows = functionals.energy_scan([al], n=4)
    assert len(rows) == len(full) - 1
    assert [r for r in full if (r["a1"], r["a2"], r["branch"]) != (a1, a2, "plus")] == rows
    assert any((r["a1"], r["a2"], r["branch"]) == (a1, a2, "minus") for r in rows)
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
    for bad in ("nan", "inf", "-inf", "-0.1", "x"):
        assert _exit_code(*scan, "--margin", bad) == EXIT_USAGE, bad
        assert "argument --margin: " in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    for bad in ("nan", -0.1, "inf"):
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
