"""Layer spans recorded from outside hamflow by wrapping its public functions.

``Tracer.installed()`` replaces every module binding of each traced function
(found by identity, so aliases and re-exports are covered) with a wrapper
that opens a span, and restores the originals on exit.  The two stepper
registries are patched together with the globals: ``stepper_with_tol``
compares the resolved stepper with ``core.midpoint_step`` by identity, so
patching only one of them would silently drop the bound Newton tolerance.

A span is (name, start, end, parent, op).  Spans nest strictly in this one
thread, so when a span closes its self time is its duration minus the
durations of its direct children.  Spans fold as they close into one record
per (op, name, parent name): calls, total time, self time, a per-span count
(Newton iterations, integration steps or FBSM sweeps) and failures.  That
table is what the per-layer metrics are computed from, and what
:meth:`Tracer.dump` writes.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

from hamflow import accelopt, adjoint, bvp, core, dual, hamel, integrators, optcontrol

MODULES = (core, dual, bvp, integrators, hamel, adjoint, optcontrol, accelopt)


def _newton_iterations(result):
    return result.iterations


def _integrate_steps(result):
    times, _ = result
    return len(times) - 1


def _fbsm_sweeps(result):
    traj, _ = result
    return int(traj.metadata["sweeps"])


# (home module, attribute, span name, count extracted from the result)
TRACED = (
    (dual, "gradient", "L0.dual", None),
    (dual, "hessian", "L0.dual", None),
    (dual, "derivative", "L0.dual", None),
    (core, "fd_gradient", "L0.fd_gradient", None),
    (core, "fd_jacobian", "L0.fd_jacobian", None),
    (core, "newton_solve", "L1.newton_solve", _newton_iterations),
    (core, "midpoint_step", "L2.midpoint_step", None),
    (core, "rk4_step", "L2.rk4_step", None),
    (integrators, "step", "L2.galerkin_step", None),
    (core, "integrate", "L3.integrate", _integrate_steps),
    (integrators, "integrate_map", "L3.integrate_map", None),
    (bvp, "solve_shooting", "L4.solve_shooting", None),
    (bvp, "solve_type_ii_sweep", "L4.solve_type_ii_sweep", None),
    (hamel, "solve_hamel_type_ii", "L4.solve_hamel_type_ii", None),
    (hamel, "integrate_hamel", "L4.integrate_hamel", None),
    (adjoint, "sensitivity", "L4.sensitivity", None),
    (optcontrol, "solve_fbsm", "L4.solve_fbsm", _fbsm_sweeps),
    (accelopt, "minimize", "L4.minimize", None),
)

# constructors counted (not timed) through their dataclass __post_init__
COUNTED = ((core.PhasePoint, "L4.phasepoint"), (core.Trajectory, "L4.trajectory"))

FIELD = "L0.field"
STEPS = ("L2.midpoint_step", "L2.galerkin_step", "L2.rk4_step")
IMPLICIT_STEPS = ("L2.midpoint_step", "L2.galerkin_step")
OUTER_SOLVERS = ("L4.solve_shooting", "L4.solve_hamel_type_ii")


class Tracer:
    """Span recorder for one traced run; ``op`` is the index of the op running."""

    def __init__(self):
        self.op = -1
        self._stack = []      # open spans: [name, start, child time]
        self._table = {}      # (op, name, parent) -> [calls, total, self, count, failures]
        self._counts = {}     # (op, name) -> constructions

    # -- spans ---------------------------------------------------------------

    def _close(self, frame, failed, count):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child = frame
        duration = end - start
        parent = None
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        rec = self._table.get((self.op, name, parent))
        if rec is None:
            rec = self._table[(self.op, name, parent)] = [0, 0.0, 0.0, 0, 0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child
        rec[3] += count
        rec[4] += failed

    def wrap(self, fn, name=FIELD, count=None):
        """``fn`` inside a span called ``name``; ``count(result)`` adds to its count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                # NoConvergence carries the iterations spent before giving up
                spent = getattr(exc, "iterations", None)
                self._close(frame, 1, spent if isinstance(spent, int) else 0)
                raise
            self._close(frame, 0, count(out) if count is not None else 0)
            return out

        return traced

    def _counting(self, cls, name):
        original = cls.__post_init__

        def counted(obj):
            key = (self.op, name)
            self._counts[key] = self._counts.get(key, 0) + 1
            original(obj)

        return original, counted

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every traced binding for the duration of the block."""
        undo = []
        try:
            for home, attr, name, count in TRACED:
                original = getattr(home, attr)
                wrapper = self.wrap(original, name, count)
                for module in MODULES:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
                for key, value in list(core.STEPPERS.items()):
                    if value is original:
                        undo.append((core.STEPPERS, key, original))
                        core.STEPPERS[key] = wrapper
            for cls, name in COUNTED:
                original, counted = self._counting(cls, name)
                undo.append((cls, "__post_init__", original))
                cls.__post_init__ = counted
            yield self
        finally:
            for target, key, original in reversed(undo):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    # -- results -----------------------------------------------------------------

    def metrics(self, n_ops):
        """Per-op layer metrics over ``n_ops`` traced ops."""
        calls, self_s, count, failures = {}, {}, {}, {}
        outer_iters = step_iters = 0
        for (_, name, parent), (c, _, s, k, f) in self._table.items():
            calls[name] = calls.get(name, 0) + c
            self_s[name] = self_s.get(name, 0.0) + s
            count[name] = count.get(name, 0) + k
            failures[name] = failures.get(name, 0) + f
            if name == "L1.newton_solve" and parent in OUTER_SOLVERS:
                outer_iters += k
            if name == "L1.newton_solve" and parent in IMPLICIT_STEPS:
                step_iters += k
        constructed = {}
        for (_, name), c in self._counts.items():
            constructed[name] = constructed.get(name, 0) + c

        def per_op(x):
            return x / n_ops if n_ops else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        newton = "L1.newton_solve"
        steps = sum(calls.get(s, 0) for s in STEPS)
        implicit = sum(calls.get(s, 0) for s in IMPLICIT_STEPS)
        out = {
            "L4.integrations_per_op": (per_op(calls.get("L3.integrate", 0)), "count"),
            "L4.outer_newton_iters_per_op": (per_op(outer_iters), "count"),
            "L4.solve_fbsm.sweeps_per_op": (per_op(count.get("L4.solve_fbsm", 0)), "count"),
            "L4.phasepoint.calls_per_op": (per_op(constructed.get("L4.phasepoint", 0)), "count"),
            "L4.trajectory.calls_per_op": (per_op(constructed.get("L4.trajectory", 0)), "count"),
            "L3.integrate.calls_per_op": (per_op(calls.get("L3.integrate", 0)), "count"),
            "L3.integrate.steps_per_op": (per_op(count.get("L3.integrate", 0)), "count"),
            "L2.newton_iters_per_step": (ratio(step_iters, implicit), "count"),
            "L2.field_calls_per_step": (ratio(calls.get(FIELD, 0), steps), "count"),
            f"{newton}.calls_per_op": (per_op(calls.get(newton, 0)), "count"),
            f"{newton}.iters_per_call": (ratio(count.get(newton, 0), calls.get(newton, 0)), "count"),
            f"{newton}.failures": (per_op(failures.get(newton, 0)), "count"),
            "L0.fd_gradient.calls_per_op": (per_op(calls.get("L0.fd_gradient", 0)), "count"),
        }
        for name in ("L0.fd_jacobian", "L0.field", "L0.dual", "L2.midpoint_step",
                     "L2.galerkin_step", "L2.rk4_step"):
            out[f"{name}.calls_per_op"] = (per_op(calls.get(name, 0)), "count")
        for name in ("L0.fd_jacobian", "L0.field", "L0.dual", newton,
                     "L2.midpoint_step", "L2.galerkin_step", "L2.rk4_step",
                     "L3.integrate", "L3.integrate_map", "L4.solve_shooting",
                     "L4.solve_type_ii_sweep", "L4.solve_hamel_type_ii",
                     "L4.integrate_hamel", "L4.sensitivity", "L4.solve_fbsm",
                     "L4.minimize"):
            out[f"{name}.self_s"] = (per_op(self_s.get(name, 0.0)), "s")
        return out

    def dump(self, path, meta):
        """Write the folded span table and the run's provenance as JSON."""
        rows = [{"op": op, "name": name, "parent": parent, "calls": c, "total_s": t,
                 "self_s": s, "count": k, "failures": f}
                for (op, name, parent), (c, t, s, k, f) in sorted(
                    self._table.items(), key=lambda kv: (kv[0][0], kv[0][1], str(kv[0][2])))]
        counts = [{"op": op, "name": name, "calls": c}
                  for (op, name), c in sorted(self._counts.items())]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": rows, "constructions": counts}, fh, indent=1)
