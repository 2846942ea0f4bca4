"""The benchmark's tracer still fits the library: a traced op is bit-identical.

``perfbench/`` is frozen while it measures a change, so a change to hamflow
that breaks it (a new return shape of ``integrate``, a solver that no longer
calls its layers through module bindings, a stepper dispatch that the
tracer's wrappers defeat) would only show in its slow self-test.  This runs
three shooting ops, two sweep ops and five march ops of it untraced and traced,
and reads the self-test's completeness verdict on the first shooting round.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from hamflow import bvp  # noqa: E402
from hamflow.core import PhasePoint  # noqa: E402


def _ancestors(rows, name):
    parents = {}
    for row in rows:
        parents.setdefault(row["name"], set()).add(row["parent"])
    seen, todo = set(), [name]
    while todo:
        for parent in parents.get(todo.pop(), ()):
            if parent is not None and parent not in seen:
                seen.add(parent)
                todo.append(parent)
    return seen


def _traced_rows(tmp_path, workload, index, kind):
    """Run op ``index`` of round 0 untraced and traced; check bit identity."""
    plain = workloads.make_round(workload, 1, 0)[index]
    assert plain.kind.startswith(kind)
    tracer = spans.Tracer()
    twin = workloads.make_round(workload, 1, 0, wrap=tracer.wrap)[index]
    _, want = plain.view(plain.call())
    tracer.op = 0
    with tracer.installed():
        _, got = twin.view(twin.call())
    assert len(got) == len(want)
    for a, b in zip(want, got):
        a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    tracer.dump(tmp_path / "spans.json", {})
    return json.loads((tmp_path / "spans.json").read_text())["spans"]


def test_traced_shoot_op_is_bit_identical(tmp_path):
    # every midpoint boundary-value op takes the global solve, which marches
    # nothing: newton_solve differences the q columns of phase_jacobian
    rows = _traced_rows(tmp_path, "shoot", 0, "osc1_")
    assert "L4.solve_shooting" in _ancestors(rows, "L1.newton_solve")
    assert "L4.solve_shooting" in _ancestors(rows, "L0.fd_jacobian")
    names = {row["name"] for row in rows}
    assert not names & {"L3.integrate", "L2.midpoint_step"}


def test_traced_dual_shoot_op_is_bit_identical(tmp_path):
    # the dual pendulum's field reads its jet pass through dual.gradient,
    # a binding the tracer wraps; its midpoint Type II data take the global
    # solve, whose residual and Jacobian newton_solve evaluates
    rows = _traced_rows(tmp_path, "shoot", 3, "pendulum_dual_type_ii")
    assert {"L1.newton_solve", "L4.solve_shooting"} <= _ancestors(rows, "L0.dual")


def test_traced_hamel_shoot_op_is_bit_identical(tmp_path):
    # the Hamel Type II data take the global solve, which marches nothing:
    # newton_solve differences the field at each step midpoint
    rows = _traced_rows(tmp_path, "shoot", 8, "rigid_body_type_ii")
    assert "L4.solve_hamel_type_ii" in _ancestors(rows, "L1.newton_solve")
    assert "L4.solve_hamel_type_ii" in _ancestors(rows, "L0.fd_jacobian")


@pytest.mark.parametrize("index, kind, outer", [
    (0, "battery0_sensitivity", "L4.sensitivity"),
    (6, "lqr_fbsm", "L4.solve_fbsm"),
])
def test_traced_sweep_op_is_bit_identical(tmp_path, index, kind, outer):
    # the RK4 sweep dispatches on the stepper the tracer has wrapped
    rows = _traced_rows(tmp_path, "sweep", index, kind)
    assert outer in _ancestors(rows, "L0.field")


@pytest.mark.parametrize("index, kind, outer, step", [
    (0, "central_force_gauss2", "L3.integrate_map", "L2.galerkin_step"),
    (1, "pendulum_dual_gauss2", "L3.integrate_map", "L2.galerkin_step"),
    (2, "rigid_body_ivp", "L4.integrate_hamel", "L2.midpoint_step"),
    (3, "bregman_minimize", "L4.minimize", "L2.midpoint_step"),
    (4, "chain8_gauss2", "L3.integrate_map", "L2.galerkin_step"),
])
def test_traced_march_op_is_bit_identical(tmp_path, index, kind, outer, step):
    # op 0 marches integrate_map; op 2 builds a TrivializedState and reads .mus;
    # op 3 starts minimize from the extended state
    rows = _traced_rows(tmp_path, "march", index, kind)
    assert outer in _ancestors(rows, step)
    if step == "L2.galerkin_step":
        # every step of the march is one traced step call
        N = workloads.make_round("march", 1, 0)[index].params["N"]
        assert sum(row["calls"] for row in rows if row["name"] == step) == N
    if "dual" in kind:
        # the stage solve's jet passes go through the bindings the tracer wraps
        assert step in _ancestors(rows, "L0.dual")


def test_shoot_instances_are_complete():
    # the self-test asks every oscillator and pendulum shooting instance of
    # seeds 1 and 2 for a complete verdict; a completeness change that flips
    # one fails here, on seed 1's first round, as well
    kinds = {"type_i": bvp.BoundaryKind.TYPE_I, "type_ii": bvp.BoundaryKind.TYPE_II,
             "type_iii": bvp.BoundaryKind.TYPE_III, "type_iv": bvp.BoundaryKind.TYPE_IV}
    seen = 0
    for op in workloads.make_round("shoot", 1, 0):
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
    assert seen == 8
