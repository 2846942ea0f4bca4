import json
import os
import pathlib
import subprocess
import sys

import warnings

import hypothesis
import hypothesis.strategies as st
import numpy as np
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


def test_signed_keys_take_any_sign(tmp_path):
    # type2_bvp's boundary data q0 and p1 may be zero or negative; sizes may not
    _, params, _, _ = parse_config(write(tmp_path, "[type2_bvp]\np1 = -0.5\nq0 = 0\n"))
    assert params["p1"] == -0.5 and params["q0"] == 0.0
    with pytest.raises(ConfigError, match="T must be positive"):
        parse_config(write(tmp_path, "[type2_bvp]\nT = -1\n"))


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


def test_linalg_error_is_solver_failure(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, but it is a numerical failure
    def singular(params, rng):
        raise np.linalg.LinAlgError("Singular matrix\nsecond line")

    _, schema = experiments.EXPERIMENTS["noether_drift"]
    monkeypatch.setitem(experiments.EXPERIMENTS, "noether_drift", (singular, schema))
    cfg = write(tmp_path, f"[noether_drift]\nout = {tmp_path}/l/x\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err == "solver failed (LinAlgError): Singular matrix second line\n"
    assert list(tmp_path.rglob("*.csv")) == []


def test_solver_failure_stderr_is_one_line(tmp_path):
    # h = 1e300 overflows numpy arithmetic before the solver raises; the CLI
    # reports the typed error alone, without numpy's warning lines
    cfg = write(tmp_path, f"[noether_drift]\nh = 1e300\nsteps = 5\nout = {tmp_path}/o/x\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "hamflow.cli", "run", cfg],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("body", [
    "[diffusion_adjoint]\nnx = 2\n",
    "[pontryagin_lqr]\nrelax = 2.0\n",
    "[accelopt_rate]\nslope_steps = 1\ncons_steps = 1\n",
], ids=["diffusion_nx", "lqr_relax", "accelopt_steps"])
def test_rejected_parameter_is_config_error(tmp_path, capsys, body):
    # the experiment raises ValueError for a value the schema lets through
    cfg = write(tmp_path, body + f"out = {tmp_path}/v/x\n")
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.rglob("*.csv")) == []


@pytest.mark.parametrize("body", [
    "[commutativity]\nN = 10000000000000\n",
    "[diffusion_adjoint]\nN = 10000000000000\n",
    "[diffusion_adjoint]\nnx = 1000000\nN = 1000000\n",
], ids=["commutativity_N", "diffusion_N", "diffusion_nx_times_N"])
def test_oversized_grid_is_one_line_config_error(tmp_path, capsys, body):
    # the budget refuses these before the run; numpy would refuse each of
    # their arrays at once too, so nothing is allocated and no loop runs
    cfg = write(tmp_path, body + f"out = {tmp_path}/m/x\n")
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "grid budget" in err
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.rglob("*.csv")) == []


def test_every_default_is_inside_the_grid_budget():
    for name, (_, schema) in experiments.EXPERIMENTS.items():
        experiments.check_grid_budget(name, {k: v for k, (_, v) in schema.items()})


def test_memory_error_is_one_line_solver_failure(tmp_path, capsys, monkeypatch):
    # an allocation the budget does not cover still fails as one line
    def oversized(params, rng):
        raise MemoryError("Unable to allocate 72.8 TiB\nsecond line")

    _, schema = experiments.EXPERIMENTS["noether_drift"]
    monkeypatch.setitem(experiments.EXPERIMENTS, "noether_drift", (oversized, schema))
    cfg = write(tmp_path, f"[noether_drift]\nout = {tmp_path}/m/x\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err == "out of memory: Unable to allocate 72.8 TiB second line\n"
    assert list(tmp_path.rglob("*.csv")) == []


@pytest.mark.parametrize("body", [
    "steps = 5\n[noether_drift\n",
    "[noether_drift]\nseed = 1.5\n",
    f"[noether_drift]\nseed = {2**64}\n",
], ids=["unparsable", "seed_not_integer", "seed_too_large"])
def test_rejected_config_exits_1_with_one_line(tmp_path, capsys, body):
    cfg = write(tmp_path, body + f"out = {tmp_path}/r/x\n")
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
    assert list(tmp_path.rglob("*.csv")) == []


def _one_line_run(tmp_path, capfd, body):
    """Exit code and stderr of one run; stdout must hold only the paths
    written and stderr, Python warnings included, at most one line."""
    capfd.readouterr()
    cfg = write(tmp_path, body + f"out = {tmp_path}/z/x\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", cfg])
    out, err = capfd.readouterr()
    assert all(pathlib.Path(line).is_file() for line in out.splitlines()), out
    assert "Traceback" not in err
    assert len(err.splitlines()) + len(caught) <= 1, (err, [str(w.message) for w in caught])
    return code, err


# every key of every schema, and an unknown one, by every value class: both
# signs, zero, the extremes of a float, non-finite, a non-integer, junk
_FUZZ_KEYS = [(name, key) for name, (_, schema) in experiments.EXPERIMENTS.items()
              for key in [*schema, "bogus"]]
_FUZZ_VALUES = ("-3", "0", "2.5", "5e-324", "1e308", "nan", "inf", "junk")


@hypothesis.seed(20261020)
@hypothesis.settings(max_examples=len(_FUZZ_KEYS) * len(_FUZZ_VALUES), derandomize=True,
                     deadline=None, database=None,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(st.sampled_from(_FUZZ_KEYS), st.sampled_from(_FUZZ_VALUES))
def test_fuzzed_config_exits_cleanly(tmp_path, capfd, entry, value):
    # the space is small enough that hypothesis runs every pair; the other
    # size keys are capped at 12 only to keep the runs short
    name, key = entry
    _, schema = experiments.EXPERIMENTS[name]
    params = {k: min(default, 12) for k, (caster, default) in schema.items()
              if caster is int and k != key}
    params[key] = value
    body = f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in params.items())
    code, _ = _one_line_run(tmp_path, capfd, body)
    assert code in (0, 1, 2)


def test_accelopt_time_that_does_not_advance_is_config_error(tmp_path, capfd):
    # a fictive step of 5e-324 leaves physical time at t0, so the decay fit
    # has one abscissa; it is refused before np.polyfit reaches LAPACK
    body = "[accelopt_rate]\nslope_h = 5e-324\nslope_steps = 12\ncons_steps = 12\n"
    code, err = _one_line_run(tmp_path, capfd, body)
    assert code == 1 and "distinct times" in err


def test_float_overflow_is_one_line_solver_failure(tmp_path, capfd):
    # a fictive step of 1e308 overflows a Python float power in the field
    body = "[accelopt_rate]\nslope_h = 1e308\nslope_steps = 12\ncons_steps = 12\n"
    code, err = _one_line_run(tmp_path, capfd, body)
    assert code == 2 and err.startswith("solver failed (OverflowError)")
