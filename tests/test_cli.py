import json
import math

import pytest

from cp2tori.cli import (EXIT_INFEASIBLE, EXIT_NOT_PROVED, EXIT_OK, EXIT_USAGE,
                         main)


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


def _exit_code(*argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


def test_verify_rejects_nonpositive_eps(tmp_path, capsys):
    for eps in ("0", "-1e-4", "nan"):
        assert _exit_code("verify", "--target", "B1", "--eps", eps,
                          "--out-dir", str(tmp_path)) == EXIT_USAGE
    assert "--eps" in capsys.readouterr().err


def test_scan_rejects_nonpositive_jobs(tmp_path, capsys):
    for jobs in ("0", "-2"):
        assert _exit_code("scan", "--alpha", "2", "1", "-1", "--grid", "3",
                          "--jobs", jobs, "--out", str(tmp_path / "s.csv")) == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_rejects_nonpositive_quad_tol(tmp_path, capsys):
    moduli = ("--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2")
    assert _exit_code("periodicity", *moduli, "--quad-tol", "0") == EXIT_USAGE
    assert _exit_code("export", *moduli, "--quad-tol", "-1",
                      "--out", str(tmp_path / "e.csv")) == EXIT_USAGE
    assert "--quad-tol" in capsys.readouterr().err
    # scan evaluates energies in closed form and has no quadrature to tune
    assert _exit_code("scan", "--alpha", "2", "1", "-1", "--quad-tol", "1e-9") == EXIT_USAGE


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


def test_scan_parallel_matches_serial(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    args = ["scan", "--alpha", "3", "1", "-1", "--grid", "4"]
    assert main(args + ["--out", str(serial)]) == EXIT_OK
    assert main(args + ["--jobs", "2", "--out", str(parallel)]) == EXIT_OK
    capsys.readouterr()
    assert serial.read_text() == parallel.read_text()


def test_scan_empty_feasible_set_warns(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    code, _, err = run(capsys, "scan", "--alpha", "1", "1", "-1",
                       "--grid", "5", "--out", str(out))
    assert code == EXIT_OK
    assert "zero rows" in err
    assert len(out.read_text().strip().splitlines()) == 1  # header only


def test_verify_single_target_and_threshold(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--target", "B1",
                       "--eps", "1e-3", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    data = json.loads((tmp_path / "B1.json").read_text())
    assert data["status"] == "proved"
    assert data["epsilon"] == 1e-3
    # a deliberately unprovable threshold fails with a witness
    code, out, _ = run(capsys, "verify", "--target", "B1", "--threshold", "1.2",
                       "--eps", "1e-3", "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_PROVED
    assert "witness" in out


def test_verify_computes_band_certificates_once(tmp_path, capsys, monkeypatch):
    from cp2tori import bounds, cli
    calls = []
    real = bounds.lemma5_strip_certificates

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "lemma5_strip_certificates", counted)
    monkeypatch.setattr(bounds, "lemma5_strip_certificates", counted)
    code, out, _ = run(capsys, "verify", "--target", "B2", "--eps", "1e-3",
                       "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert len(calls) == 1
    notes = json.loads((tmp_path / "B2.json").read_text())["notes"]
    assert sum("companion certificate" in n for n in notes) == 2


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


def test_config_values_are_parsed_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threshold": "1.2"}))
    code, out, _ = run(capsys, "verify", "--target", "B1", "--eps", "1e-3",
                       "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == EXIT_NOT_PROVED
    assert "threshold=1.2 " in out and "witness" in out


def test_config_values_meet_the_flag_checks(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    verify = ("verify", "--out-dir", str(tmp_path))
    scan = ("scan", "--alpha", "2", "1", "-1", "--out", str(tmp_path / "s.csv"))
    export = ("export", "--alpha", "2", "1", "-1", "--a1", "1.8", "--a2", "1.2",
              "--out", str(tmp_path / "e.csv"))
    for bad, argv in [({"eps": 0, "target": "B1"}, verify), ({"jobs": 0}, scan),
                      ({"target": "B3"}, verify), ({"grid": "x"}, scan),
                      ({"grid": 4}, export)]:
        cfg.write_text(json.dumps(bad))
        assert _exit_code(*argv, "--config", str(cfg)) == EXIT_USAGE, bad
        assert next(iter(bad)) in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "e.csv").exists()


def test_scan_skips_degenerate_points_in_api_and_cli(tmp_path, capsys, monkeypatch):
    from cp2tori import functionals
    from cp2tori.errors import DegenerateParameters
    from cp2tori.family import AlphaTriple
    al = AlphaTriple(2, 1, -1)
    a1, a2 = functionals.feasible_grid(al, 4)[0]
    real = functionals.derive_constants

    def derive(alpha, point):
        if (point.a1, point.a2, point.branch.value) == (a1, a2, "plus"):
            raise DegenerateParameters("c2 vanishes")
        return real(alpha, point)

    full = functionals.energy_scan([al], n=4)
    monkeypatch.setattr(functionals, "derive_constants", derive)
    rows = functionals.energy_scan([al], n=4)
    assert len(rows) == len(full) - 1
    assert not any((r["a1"], r["a2"], r["branch"]) == (a1, a2, "plus") for r in rows)
    code, _, err = run(capsys, "scan", "--alpha", "2", "1", "-1", "--grid", "4",
                       "--out", str(tmp_path / "s.csv"))
    assert code == EXIT_OK
    assert f"rows = {len(rows)} " in err
