import json
import pathlib

import pytest

from hamflow import experiments
from hamflow.cli import main, parse_config
from hamflow.core import ConfigError, SingularJacobian


def write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_list_prints_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "completeness_table" in out and "accelopt_rate" in out
    assert len(out) == 11


def test_parse_config_defaults_and_overrides(tmp_path):
    cfg = write(tmp_path, "[noether_drift]\nsteps = 50\n")
    name, params, seed, out = parse_config(cfg)
    assert name == "noether_drift"
    assert params["steps"] == 50 and params["h"] == 0.01
    name, params, seed, out = parse_config(cfg, seed_override=7, out_override="x/y")
    assert seed == 7 and out == "x/y"


def test_malformed_configs(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.ini"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[nope]\nx = 1\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[noether_drift]\nbogus = 1\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[noether_drift]\nsteps = many\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[noether_drift]\nsteps = -3\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[noether_drift]\n[symplecticity_scan]\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[completeness_table]\ng = cubic\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[order_study]\nscheme = foo\n"))
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, f"[noether_drift]\nh = {bad}\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[type2_bvp]\np1 = nan\n"))


def test_choice_keys_accept_every_choice(tmp_path):
    for g in ("linear", "quadratic", "zero"):
        _, params, _, _ = parse_config(write(tmp_path, f"[completeness_table]\ng = {g}\n"))
        assert params["g"] == g
    for scheme in ("midpoint", "gauss2", "both"):
        _, params, _, _ = parse_config(write(tmp_path, f"[order_study]\nscheme = {scheme}\n"))
        assert params["scheme"] == scheme


def test_malformed_config_exit_code_and_no_files(tmp_path, capsys):
    cfg = write(tmp_path, "[noether_drift]\nbogus = 1\nout = %s/r\n" % tmp_path)
    assert main(["run", cfg]) == 1
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


def test_run_writes_tables_and_manifest(tmp_path, capsys):
    cfg = write(tmp_path, f"[noether_drift]\nsteps = 40\nout = {tmp_path}/run/nd\n")
    assert main(["run", cfg]) == 0
    out_paths = capsys.readouterr().out.split()
    csv = tmp_path / "run" / "nd_noether_drift.csv"
    manifest = tmp_path / "run" / "nd_manifest.json"
    assert csv.exists() and manifest.exists()
    assert str(csv) in out_paths
    meta = json.loads(manifest.read_text())
    assert meta["experiment"] == "noether_drift"
    assert meta["params"]["steps"] == 40
    body = csv.read_text().splitlines()
    assert body[0] == "scheme,steps,h,drift"
    assert len(body) == 3


def test_rerun_is_byte_identical(tmp_path):
    cfg = write(tmp_path, f"[symplecticity_scan]\npoints = 5\nout = {tmp_path}/a/s\n")
    assert main(["run", cfg]) == 0
    first = (tmp_path / "a" / "s_symplecticity_scan.csv").read_bytes()
    assert main(["run", cfg, "--out", str(tmp_path / "b" / "s")]) == 0
    second = (tmp_path / "b" / "s_symplecticity_scan.csv").read_bytes()
    assert first == second


def test_different_seed_changes_sampled_output(tmp_path):
    cfg = write(tmp_path, f"[symplecticity_scan]\npoints = 5\nout = {tmp_path}/a/s\n")
    assert main(["run", cfg]) == 0
    first = (tmp_path / "a" / "s_symplecticity_scan.csv").read_bytes()
    assert main(["run", cfg, "--seed", "123", "--out", str(tmp_path / "c" / "s")]) == 0
    other = (tmp_path / "c" / "s_symplecticity_scan.csv").read_bytes()
    assert first != other


def test_solver_failure_exit_code(tmp_path, capsys):
    cfg = write(tmp_path,
                f"[pontryagin_lqr]\nN = 50\nmax_sweeps = 1\nout = {tmp_path}/f/x\n")
    assert main(["run", cfg]) == 2
    assert "converge" in capsys.readouterr().err


def test_any_solver_error_exit_code(tmp_path, capsys, monkeypatch):
    def singular(params, rng):
        raise SingularJacobian("Jacobian condition estimate inf\nsecond line")

    _, schema = experiments.EXPERIMENTS["noether_drift"]
    monkeypatch.setitem(experiments.EXPERIMENTS, "noether_drift", (singular, schema))
    cfg = write(tmp_path, f"[noether_drift]\nout = {tmp_path}/s/x\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "SingularJacobian" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
