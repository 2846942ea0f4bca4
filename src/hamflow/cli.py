"""Batch front end: run registered experiments from an INI config file.

The config holds exactly one section named after the experiment; keys are the
experiment's parameters plus the common ``seed`` and ``out``.  Numbers must be
finite, and positive unless the schema casts them as signed; choice-valued keys
must name one of their choices; grid sizes must stay within
:data:`~hamflow.experiments.GRID_BUDGET`.  Exit codes: 0 success, 1 config
error (nothing written; this includes a ``ValueError`` raised by the run, when
the experiment rejects a parameter value), 2 solver error (any
:class:`~hamflow.core.HamflowError` raised by the run, a
``numpy.linalg.LinAlgError``, which is a numerical failure even though it
subclasses ``ValueError``, an ``ArithmeticError``, as when a float power
overflows, and a ``MemoryError``, as when an array the budget does not cover
is too large to allocate).  Both are reported as one line on
stderr without a traceback.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import json
import math
import pathlib
import sys

import numpy as np

from .core import ConfigError, HamflowError, NoConvergence
from .experiments import EXPERIMENTS, SEED_DEFAULT, check_grid_budget


def parse_config(path, seed_override=None, out_override=None):
    parser = configparser.ConfigParser()
    parser.optionxform = str
    path = pathlib.Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    sections = parser.sections()
    if len(sections) != 1:
        raise ConfigError("config must contain exactly one experiment section")
    name = sections[0]
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; run 'hamflow list'")
    _, schema = EXPERIMENTS[name]
    raw = dict(parser[name])

    seed = SEED_DEFAULT
    out = f"hamflow_out/{name}"
    if "seed" in raw:
        seed = _cast(raw.pop("seed"), int, "seed")
    if "out" in raw:
        out = raw.pop("out")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys for {name}: {sorted(unknown)}")
    params = {}
    for key, (caster, default) in schema.items():
        params[key] = _cast(raw[key], caster, key) if key in raw else default
        if caster in (int, float) and params[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    check_grid_budget(name, params)
    if seed_override is not None:
        seed = seed_override
    if out_override is not None:
        out = out_override
    if seed < 0 or seed > 2**64 - 1:
        raise ConfigError("seed must fit in 64 bits")
    return name, params, seed, out


def _cast(text, caster, key):
    try:
        value = caster(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={text!r} as {caster.__name__}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite")
    return value


def run_experiment(name, params, seed, out_prefix):
    """Execute one experiment and write its CSV tables plus a manifest."""
    runner, _ = EXPERIMENTS[name]
    rng = np.random.default_rng(seed)
    tables = runner(params, rng)
    prefix = pathlib.Path(out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    written = []
    for table_name, table in tables.items():
        path = prefix.parent / f"{prefix.name}_{table_name}.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(table["header"])
            writer.writerows(table["rows"])
        written.append(str(path))
    manifest = {
        "experiment": name,
        "seed": seed,
        "params": {k: (v if not isinstance(v, float) else float(f"{v:.17g}"))
                   for k, v in params.items()},
        "outputs": written,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    manifest_path = prefix.parent / f"{prefix.name}_manifest.json"
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=2)
    return written + [str(manifest_path)]


def _one_line(exc):
    return " ".join(str(exc).split())


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hamflow", description="Run registered numerical experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute an experiment from a config file")
    run_p.add_argument("config", help="INI file with one experiment section")
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    run_p.add_argument("--out", default=None, help="override the output prefix")
    sub.add_parser("list", help="print the registered experiment names")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    try:
        name, params, seed, out = parse_config(args.config, args.seed, args.out)
    except ConfigError as exc:
        print(f"config error: {_one_line(exc)}", file=sys.stderr)
        return 1
    try:
        # the solvers check finiteness and raise typed errors, so numpy's
        # floating-point warnings would only add lines ahead of that message
        with np.errstate(all="ignore"):
            written = run_experiment(name, params, seed, out)
    except NoConvergence as exc:
        print(f"solver failed to converge: {_one_line(exc)}", file=sys.stderr)
        return 2
    except (HamflowError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"solver failed ({type(exc).__name__}): {_one_line(exc)}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {_one_line(exc)}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {_one_line(exc)}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
