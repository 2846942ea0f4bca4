"""Tiny-size self-test of the benchmark (not part of the unit-test suite).

Runs one short round of every workload untraced and traced and checks that
each run is correct and emits exactly the metrics ``BENCHMARK.json`` names,
with their units.  It also checks that the shooting data are drawn only from
boundary kinds that ``completeness_diagnostic`` calls complete, and that the
benchmark refuses to run without hamflow's sources.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, trace):
    # one round per run: lift the floor of timed ops that p90 needs
    code = "import sys, run; run.MIN_TIMED_OPS = 1; sys.exit(run.main(sys.argv[1:]))"
    cmd = [sys.executable, "-c", code, "--workload", workload, "--seed", "1",
           "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=HERE, capture_output=True, text=True, timeout=300)


def check_metrics(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(workload, trace)
            assert proc.returncode == 0, f"{workload} trace={trace}:\n{proc.stdout}{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {sorted(set(got) ^ set(want))}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), name
            print(f"ok  {workload:6s} trace={trace}  {len(got)} metrics, "
                  f"{result['attempted']} ops")


def check_completeness():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from hamflow import bvp
    from hamflow.core import PhasePoint

    kinds = {"type_i": bvp.BoundaryKind.TYPE_I, "type_ii": bvp.BoundaryKind.TYPE_II,
             "type_iii": bvp.BoundaryKind.TYPE_III, "type_iv": bvp.BoundaryKind.TYPE_IV}
    seen = 0
    for seed in (1, 2):
        for r in range(4):
            for op in workloads.make_round("shoot", seed, r):
                p = op.params
                if p["family"] == "osc":
                    prob = workloads._oscillator(p["n"], p["omega"], workloads._identity)
                    kind, base = kinds[p["type"]], PhasePoint(p["a"], p["b"])
                elif p["family"] == "pendulum_bvp":
                    prob = workloads._pendulum("dual", workloads._identity)
                    kind, base = bvp.BoundaryKind.TYPE_II, PhasePoint(p["q0"], p["p1"])
                else:
                    continue
                rep = bvp.completeness_diagnostic(prob, kind, p["T"], "midpoint", p["N"],
                                                  base_point=base)
                assert rep.verdict == "complete", (op.kind, rep)
                seen += 1
    print(f"ok  completeness: {seen} shooting instances complete")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "shoot",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout
    print("ok  refuses to run without src/hamflow")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_refuses_without_sources()
    check_completeness()
    check_metrics(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
