"""End-to-end and per-layer benchmark of hamflow.

Usage (from the repository root)::

    python3 perfbench/run.py --workload shoot --seed 1 --seconds 20 --trace 0

One process is one closed loop with one caller: ops (public solver calls) run
back to back, one thread.  The run

1. times ``SETUP_PROBES`` fresh processes (five before the timed ops, four
   after) that import hamflow, build the first problems and run one warm-up
   op, and reports their median as ``setup_s``;
2. imports hamflow from ``src/`` of this checkout, runs one untimed warm-up
   op, then runs whole rounds of ops (see ``workloads.py``) until
   ``--seconds`` have passed and at least ``MIN_TIMED_OPS`` ops were timed,
   timing a fixed reference kernel before each op;
3. checks every op's output against an oracle that does not use hamflow
   (``oracles.py``);
4. prints every metric by name and unit, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``, and exits nonzero if an output
   was wrong or an op failed.

With ``--trace 0`` the metrics are the end-to-end ones.  The host is shared
and its speed drifts by up to about 2x within seconds to minutes, so every
timed op and setup probe is rescaled by ``REF_NOMINAL_S`` over the reference
kernel's time measured around it: the reported times are those of a host that
runs the reference kernel in ``REF_NOMINAL_S``.  The raw medians are printed
beside the metrics, not in the JSON line.  With ``--trace 1``
each op runs untraced and then traced (``spans.py``); the two outputs must be
bit-identical, and the metrics are the per-layer ones plus the tracing
overhead per op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# BLAS threads are fixed before numpy is first imported, here and in probes.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("shoot", "sweep", "march")
SETUP_PROBES = 9
# p90 needs at least ten ops beyond it
MIN_TIMED_OPS = 100
PROBE_TIMEOUT_S = 60
# the reference kernel's time on the nominal host the times are rescaled to
REF_NOMINAL_S = 0.004


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: import, build and warm up, then exit")
    return ap.parse_args(argv)


def _import_hamflow():
    if not (SRC / "hamflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hamflow sources under {SRC}")
    # this directory is put on the path too, which safe-path mode would leave out
    sys.path[:0] = [str(SRC), str(HERE)]
    import hamflow

    if Path(hamflow.__file__).resolve().parent != SRC / "hamflow":
        raise SystemExit(f"perfbench: imported hamflow from {hamflow.__file__}, "
                         f"not from {SRC}")


def _probe_seconds(cmd):
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # a blocking wait returns as the probe exits; subprocess.run(timeout=...)
    # would poll and round the time up to its 50 ms polling step
    killer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"perfbench: setup probe exited with code {code}")
    return seconds


def _setup_times(args, count, reference):
    """``count`` (probe seconds, reference seconds around the probe) pairs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(count):
        before = [reference() for _ in range(3)]
        seconds = _probe_seconds(cmd)
        after = [reference() for _ in range(3)]
        times.append((seconds, statistics.median(before + after)))
    return times


def _make_reference():
    """A timer of the reference kernel: 320 small dense Newton steps in numpy.

    It is the kind of work hamflow's step systems do, but it uses neither
    hamflow nor the seed, so it measures only the host's current speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    A = 4.0 * np.eye(6) + rng.uniform(-0.5, 0.5, (6, 6))
    b = rng.uniform(-1.0, 1.0, 6)

    def seconds():
        start = time.perf_counter()
        x = np.zeros(6)
        for _ in range(320):
            r = A @ x - b + 0.01 * np.sin(x)
            x = x - np.linalg.solve(A + 0.01 * np.diag(np.cos(x)), r)
        return time.perf_counter() - start

    return seconds


# ---------------------------------------------------------------------------
# running ops

class Record:
    """One attempted op: its timing, oracle summary and output digest."""

    __slots__ = ("kind", "params", "seconds", "ref_seconds", "summary", "digest",
                 "error", "traced_seconds", "traced_digest")

    def __init__(self, op):
        self.kind = op.kind
        self.params = op.params
        self.summary = self.digest = self.error = None
        self.ref_seconds = self.traced_seconds = self.traced_digest = None


def _digest(arrays):
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _time_op(op):
    """Run one op; return (seconds, summary, digest, error)."""
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # an op that raises is counted as failed, not fatal
        return time.perf_counter() - start, None, None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    summary, arrays = op.view(result)
    return seconds, summary, _digest(arrays), None


def _run_ops(workload, seed, seconds, tracer=None, reference=None):
    """Whole rounds until ``seconds`` of op time have passed.

    Returns the records, the number of rounds and the reference time measured
    after the last op.  An untraced run also goes on until ``MIN_TIMED_OPS``
    ops were timed.  With a tracer each op runs twice, untraced then traced,
    and both count.  With a ``reference`` timer it is timed before each op.
    """
    import workloads

    records = []
    elapsed = 0.0
    r = 0
    while elapsed < seconds or (tracer is None and len(records) < MIN_TIMED_OPS):
        plain = workloads.make_round(workload, seed, r)
        traced = (workloads.make_round(workload, seed, r, wrap=tracer.wrap)
                  if tracer is not None else [None] * len(plain))
        for op, twin in zip(plain, traced):
            rec = Record(op)
            if reference is not None:
                rec.ref_seconds = reference()
            rec.seconds, rec.summary, rec.digest, rec.error = _time_op(op)
            elapsed += rec.seconds
            if twin is not None:
                tracer.op = len(records)
                with tracer.installed():
                    rec.traced_seconds, _, rec.traced_digest, _ = _time_op(twin)
                elapsed += rec.traced_seconds
            records.append(rec)
        r += 1
    return records, r, (reference() if reference is not None else None)


def _check(records):
    """Oracle verdict per record: (failed count, wrong-output messages)."""
    import numpy as np
    import oracles

    failed, messages = 0, []
    for i, rec in enumerate(records):
        if rec.error is not None:
            failed += 1
            messages.append(f"op {i} {rec.kind}: raised {rec.error}")
            continue
        try:
            err, tol = oracles.check(rec.params, rec.summary)
        except Exception as exc:  # e.g. the reference integration gave up
            failed += 1
            messages.append(f"op {i} {rec.kind}: oracle raised {type(exc).__name__}: {exc}")
            continue
        if not (np.isfinite(err) and err <= tol):
            failed += 1
            messages.append(f"op {i} {rec.kind}: error {err:.3e} > tolerance {tol:.3e}")
    return failed, messages


def _pin_to_one_cpu():
    """Pin this process (and the probes it starts) to one CPU; return nproc.

    The reference kernel then measures the CPU the ops and probes run on.
    """
    if not hasattr(os, "sched_setaffinity"):
        return os.cpu_count()
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return len(cpus)


def _environment(args, nproc, n_ops, rounds):
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "ops": n_ops, "rounds": rounds, "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _rescaled_durations(records, refs):
    """Op wall times at nominal host speed.

    ``refs[i]`` is the reference time measured before op ``i``, and the last
    one follows the last op.  Op ``i`` is scaled by the median of the four
    around it, ``refs[i - 1]`` to ``refs[i + 2]``.
    """
    return [rec.seconds * REF_NOMINAL_S / statistics.median(refs[max(0, i - 1):i + 3])
            for i, rec in enumerate(records)]


def _end_to_end(durations, completed, setup, rss_mb):
    return {
        "solve_s.p50": (statistics.median(durations), "s"),
        "solve_s.p90": (statistics.quantiles(durations, n=10, method="inclusive")[8], "s"),
        "solves_per_s": (completed / sum(durations), "1/s"),
        "setup_s": (statistics.median(s * REF_NOMINAL_S / ref for s, ref in setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None):
    args = _parse(argv)
    nproc = _pin_to_one_cpu()
    _import_hamflow()
    import workloads

    if args.setup_probe:
        workloads.warmup_op(args.workload, args.seed).call()
        return 0

    reference = _make_reference()
    for _ in range(5):
        reference()
    # probes before and after the timed ops sample the host at two moments
    setup = _setup_times(args, SETUP_PROBES // 2 + 1, reference)

    workloads.warmup_op(args.workload, args.seed).call()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    records, rounds, last_ref = _run_ops(args.workload, args.seed, args.seconds, tracer,
                                         None if args.trace else reference)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += _setup_times(args, SETUP_PROBES // 2, reference)

    failed, messages = _check(records)
    if tracer is not None:
        for i, rec in enumerate(records):
            if rec.traced_digest != rec.digest:
                messages.append(f"op {i} {rec.kind}: traced output differs from untraced")
    correct = not messages

    env = _environment(args, nproc, len(records), rounds)
    if tracer is None:
        refs = [rec.ref_seconds for rec in records] + [last_ref]
        durations = _rescaled_durations(records, refs)
        completed = sum(rec.error is None for rec in records)
        metrics = _end_to_end(durations, completed, setup, rss_mb)
        extra = {"fail_frac": (failed / len(records), "1"), "ops": (len(records), "count"),
                 "raw.solve_s.p50": (statistics.median(rec.seconds for rec in records), "s"),
                 "raw.setup_s": (statistics.median(s for s, _ in setup), "s"),
                 "reference_s": (statistics.median(refs), "s")}
    else:
        metrics = tracer.metrics(len(records))
        overhead = sum(rec.traced_seconds - rec.seconds for rec in records)
        metrics["trace.overhead_s_per_op"] = (overhead / len(records), "s")
        extra = {"fail_frac": (failed / len(records), "1"), "ops": (len(records), "count"),
                 "untraced_s": (sum(rec.seconds for rec in records), "s"),
                 "traced_s": (sum(rec.traced_seconds for rec in records), "s")}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json", env)

    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# setup probes " + " ".join(f"{s:.3f}" for s, _ in setup) + " s")
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec.kind, []).append(rec.seconds)
    for kind, secs in sorted(by_kind.items()):
        print(f"# kind {kind:24s} n={len(secs):<4d} median={statistics.median(secs):.4f} s "
              f"min={min(secs):.4f} max={max(secs):.4f}")
    for msg in messages:
        print(f"# WRONG {msg}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
