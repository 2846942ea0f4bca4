import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hamflow import bvp, core, problems
from hamflow.bvp import (
    BoundaryKind,
    BoundarySpec,
    completeness_diagnostic,
    discretized_action,
    free_boundary_stationarity_residuals,
    solve_ivp,
    solve_shooting,
    solve_type_ii_sweep,
    time_reversed_problem,
    virtual_work_residuals,
)
from hamflow.core import (
    HamiltonianProblem,
    MaximallyDegenerateProblem,
    PhasePoint,
    SingularJacobian,
)
from hamflow.integrators import exact_discrete_hamiltonian


def test_boundary_spec_validation():
    BoundarySpec.type_ii([1.0], [0.0])
    with pytest.raises(ValueError):
        BoundarySpec(BoundaryKind.TYPE_II, q0=[1.0])       # missing p1
    with pytest.raises(ValueError):
        BoundarySpec(BoundaryKind.TYPE_I, q0=[1.0], q1=[0.0], p0=[1.0])  # extra


# ---------------------------------------------------------------------------
# initial value solves

def test_ivp_oscillator_quarter_period():
    osc = problems.harmonic_oscillator()
    traj = solve_ivp(osc, PhasePoint([1.0], [0.0]), math.pi / 2, "midpoint", 2000)
    assert np.max(np.abs(traj.final.as_array() - [0.0, -1.0])) < 1e-5


def test_ivp_linear_drift_exponentials():
    drift = problems.linear_drift()
    traj = solve_ivp(drift, PhasePoint([1.0], [1.0]), 1.0, "midpoint", 2000)
    assert abs(traj.final.q[0] - math.e) < 1e-5
    assert abs(traj.final.p[0] - 1.0 / math.e) < 1e-5


def test_type0_shooting_is_the_initial_value_solve():
    osc = problems.harmonic_oscillator()
    shot = solve_shooting(osc, BoundarySpec.type0([1.0], [0.5]), 1.0, "midpoint", 50)
    ivp = solve_ivp(osc, PhasePoint([1.0], [0.5]), 1.0, "midpoint", 50)
    assert np.array_equal(shot.state_array(), ivp.state_array())
    assert shot.metadata == ivp.metadata


@pytest.mark.parametrize("T", [float("nan"), 0.0, -1.0], ids=["nan", "zero", "negative"])
def test_type0_solve_rejects_a_bad_horizon_before_stepping(T):
    # the horizon check of the two-point solves, before the first step
    steps = []

    def counted_euler(f, t, x, h):
        steps.append(t)
        return core.euler_step(f, t, x, h)

    bc = BoundarySpec.type0([1.0], [0.5])
    with pytest.raises(ValueError, match="the horizon T must be positive and finite"):
        solve_shooting(problems.harmonic_oscillator(), bc, T, counted_euler, 10)
    assert steps == []


def test_ivp_zero_hamiltonian_single_step():
    zero = problems.zero_hamiltonian()
    traj = solve_ivp(zero, PhasePoint([1.0], [2.0]), 1.0, "midpoint", 1)
    assert np.array_equal(traj.final.as_array(), [1.0, 2.0])


@pytest.mark.parametrize("solve", [
    lambda osc, drift: solve_ivp(osc, PhasePoint([1.0, 2.0], [0.0, 0.0]), 1.0, "midpoint", 10),
    lambda osc, drift: solve_shooting(osc, BoundarySpec.type0([1.0, 2.0], [0.0, 0.0]), 1.0),
    lambda osc, drift: solve_shooting(osc, BoundarySpec.type0([1.0], [0.0, 2.0]), 1.0),
    lambda osc, drift: solve_shooting(osc, BoundarySpec.type_i([1.0], [0.0, 2.0]), 1.0),
    lambda osc, drift: solve_type_ii_sweep(drift, BoundarySpec.type_ii([1.0, 2.0], [1.0]), 1.0),
    lambda osc, drift: completeness_diagnostic(
        osc, BoundaryKind.TYPE_II, 1.0, base_point=PhasePoint([1.0, 2.0], [0.0, 0.0])),
    lambda osc, drift: exact_discrete_hamiltonian(osc, [1.0, 2.0], [0.0], 0.1),
    lambda osc, drift: solve_shooting(osc, BoundarySpec.type_ii([1.0], [0.0]), 1.0,
                                      guess=np.array([0.1, 0.2])),
], ids=["ivp", "shooting_type0", "shooting_type0_p0", "shooting_type_i", "sweep_type_ii",
        "completeness", "exact_generator", "shooting_guess"])
def test_boundary_data_must_match_problem_dim(solve):
    osc, drift = problems.harmonic_oscillator(), problems.linear_drift()
    with pytest.raises(ValueError, match="has 2 entries but the problem has dim 1"):
        solve(osc, drift)


# ---------------------------------------------------------------------------
# shooting

def test_shooting_type_ii_oscillator():
    # q = cos t + c sin t with p(T) = 0 at T = pi/4 forces c = tan(T) = 1
    osc = problems.harmonic_oscillator()
    T = math.pi / 4
    traj = solve_shooting(osc, BoundarySpec.type_ii([1.0], [0.0]), T,
                          "midpoint", 2000, tol=1e-12)
    # discrete boundary data are met to the solver tolerance ...
    assert traj.metadata["newton_residual"] <= 1e-10
    assert abs(traj.final.p[0]) < 1e-10
    # ... and the whole curve sits within O(h^2) of the continuum solution
    assert abs(traj.initial.p[0] - 1.0) < 1e-6
    p0 = traj.initial.p[0]
    q_exact = np.cos(traj.times) + p0 * np.sin(traj.times)
    p_exact = -np.sin(traj.times) + p0 * np.cos(traj.times)
    assert np.max(np.abs(traj.qs[:, 0] - q_exact)) < 1e-6
    assert np.max(np.abs(traj.ps[:, 0] - p_exact)) < 1e-6


def test_shooting_type_i_oscillator():
    # q(T) = q0 cos T + p0 sin T = 0 at T = pi/2 forces p0 = 0
    osc = problems.harmonic_oscillator()
    traj = solve_shooting(osc, BoundarySpec.type_i([1.0], [0.0]), math.pi / 2,
                          "midpoint", 500, guess=np.array([0.3]), tol=1e-10)
    assert abs(traj.initial.p[0]) < 1e-5
    assert abs(traj.final.q[0]) < 1e-8


def test_shooting_type_i_incomplete_on_degenerate_model():
    model = problems.model_degenerate(g=lambda x: 0.5 * x * x, gp=lambda x: x)
    with pytest.raises(SingularJacobian):
        solve_shooting(model, BoundarySpec.type_i([1.0, 1.0], [0.5, 0.5]), 1.0,
                       "midpoint", 100)


def _heun(f, t, x, h):
    k1 = f(t, x)
    return x + 0.5 * h * (k1 + f(t + h, x + h * k1))


@pytest.mark.parametrize("stepper, N, bound", [("rk4", 200, 1e-9), (_heun, 2000, 1e-6)],
                         ids=["rk4", "custom"])
def test_shooting_explicit_steppers_meet_closed_form(stepper, N, bound):
    # Type II with p(T) = 0 at T = pi/4 forces p0 = tan(T) = 1, as above
    osc = problems.harmonic_oscillator()
    traj = solve_shooting(osc, BoundarySpec.type_ii([1.0], [0.0]), math.pi / 4,
                          stepper, N, tol=1e-12)
    assert abs(traj.final.p[0]) <= 1e-12
    q_exact = np.cos(traj.times) + np.sin(traj.times)
    p_exact = -np.sin(traj.times) + np.cos(traj.times)
    assert np.max(np.abs(traj.qs[:, 0] - q_exact)) < bound
    assert np.max(np.abs(traj.ps[:, 0] - p_exact)) < bound


@pytest.mark.parametrize("stepper, label", [
    ("midpoint", "midpoint"), (core.midpoint_step, "midpoint"),
    (core.stepper_with_tol("midpoint", 1e-12), "midpoint"), (core.rk4_step, "rk4"),
    (_heun, "_heun")], ids=["name", "midpoint_step", "bound", "rk4_step", "custom"])
def test_solvers_label_a_stepper_by_the_scheme_it_runs(stepper, label):
    # one scheme, one label, however the stepper is passed; a custom map
    # keeps its own name
    osc = problems.harmonic_oscillator()
    ivp = solve_ivp(osc, PhasePoint([1.0], [0.0]), 0.5, stepper, 10)
    shot = solve_shooting(osc, BoundarySpec.type_ii([1.0], [0.0]), 0.5, stepper, 10)
    assert ivp.metadata["stepper"] == shot.metadata["stepper"] == label


def test_map_rows_difference_each_step_about_its_stored_value():
    # a linear field makes every Newton step full, so the residual takes N
    # steps per iteration plus the first, and each matrix 2n per node: the
    # differences reuse the step values the residual stored
    osc = problems.harmonic_oscillator(2, 1.3)
    calls = []

    def counting(f, t, x, h):
        calls.append(1)
        return _heun(f, t, x, h)

    bc = BoundarySpec.type_i([0.3, -0.5], [0.2, 0.7])
    _, _, meta = bvp.solve_global(core.phase_field(osc), None, 2, bc, 0.8, 40,
                                  counting, None, 1e-12)
    assert meta["newton_residual"] <= 1e-12 and meta["newton_matrices"] >= 1
    assert len(calls) == 40 * (meta["newton_iterations"] + 1 + 4 * meta["newton_matrices"])


def test_shooting_type_ii_free_nonlinear_section():
    pend = problems.pendulum()
    section = lambda q: np.sin(2.0 * np.asarray(q)) + 0.5 * np.asarray(q) ** 3
    traj = solve_shooting(pend, BoundarySpec.type_ii_free([0.4], section), 1.2,
                          "midpoint", 200, tol=1e-12)
    assert traj.metadata["newton_residual"] <= 1e-12
    assert traj.initial.q[0] == 0.4
    assert abs(traj.final.p[0] - section(traj.final.q)[0]) <= 1e-12


# ---------------------------------------------------------------------------
# the global solve of the discrete boundary-value system

# H = p^2/2 - q^2/2 gives q = A cosh t + B sinh t, p = A sinh t + B cosh t;
# per kind, the unknown initial block (0 for q, 1 for p) from the data (a, b)
_SADDLE = {
    "type_i": (1, lambda a, b, T: (b - a * math.cosh(T)) / math.sinh(T)),
    "type_ii": (1, lambda a, b, T: (b - a * math.sinh(T)) / math.cosh(T)),
    "type_iii": (0, lambda a, b, T: (b - a * math.sinh(T)) / math.cosh(T)),
    "type_iv": (0, lambda a, b, T: (b - a * math.cosh(T)) / math.sinh(T)),
}


@pytest.mark.parametrize("kind, T, stepper", [
    pytest.param(kind, T, stepper, id=f"{kind}-{T}" + ("" if stepper == "midpoint" else "-rk4"))
    for stepper in ("midpoint", "rk4") for kind in _SADDLE for T in (20.0, 40.0)])
def test_saddle_on_long_horizons(kind, T, stepper):
    # a march from t = 0 meets e^T in its terminal mismatch, whatever its steps
    saddle = HamiltonianProblem(dim=1, H=lambda t, q, p: 0.5 * p[0] ** 2 - 0.5 * q[0] ** 2)
    block, closed_form = _SADDLE[kind]
    traj = solve_shooting(saddle, getattr(BoundarySpec, kind)([1.0], [0.5]), T, stepper,
                          int(20 * T), tol=1e-12)
    assert traj.metadata["solver"] == "global"
    assert traj.metadata["newton_residual"] <= 1e-12
    unknown = (traj.initial.q, traj.initial.p)[block][0]
    assert abs(unknown - closed_form(1.0, 0.5, T)) <= 1e-8


def test_global_type_ii_solution_satisfies_the_virtual_work_identity():
    pend = problems.pendulum()
    traj = solve_shooting(pend, BoundarySpec.type_ii([0.5], [0.3]), 0.8, core.midpoint_step,
                          1000, tol=1e-12)
    meta = traj.metadata
    assert meta["solver"] == "global" and meta["newton_residual"] <= 1e-12
    assert 1 <= meta["newton_matrices"] < meta["newton_iterations"]
    assert 1.0 <= meta["condition_estimate"] < 1e8
    assert traj.initial.q[0] == 0.5 and traj.final.p[0] == 0.3
    residuals, scales = virtual_work_residuals(pend, traj, [0.3], np.random.default_rng(11))
    assert np.max(residuals / scales) <= 1e-6


def test_global_free_solution_satisfies_free_boundary_stationarity():
    # the section sin 2q + q^3/2 is the gradient of C(q) = -cos(2q)/2 + q^4/8
    pend = problems.pendulum()
    section = lambda q: np.sin(2.0 * np.asarray(q)) + 0.5 * np.asarray(q) ** 3
    terminal_cost = lambda q: float(-0.5 * np.cos(2.0 * q[0]) + q[0] ** 4 / 8.0)
    traj = solve_shooting(pend, BoundarySpec.type_ii_free([0.4], section), 1.2, "midpoint",
                          1000, tol=1e-12)
    assert traj.metadata["solver"] == "global"
    residuals, scales = free_boundary_stationarity_residuals(pend, traj, terminal_cost,
                                                             np.random.default_rng(13))
    assert np.max(residuals / scales) <= 1e-6


@pytest.mark.parametrize("kind", ["type_i", "type_iii", "type_iv"])
def test_global_solve_reads_every_kind(kind):
    # solve_shooting sends these kinds to the global solve; a midpoint march
    # from its initial state retraces its path to the terminal data
    pend = problems.pendulum()
    bc = getattr(BoundarySpec, kind)([0.5], [0.3])
    traj = solve_shooting(pend, bc, 0.8, "midpoint", 100, tol=1e-12)
    meta = traj.metadata
    assert meta["solver"] == "global" and meta["kind"] == bc.kind.value
    assert meta["newton_residual"] <= 1e-12 and meta["condition_estimate"] < 1e8
    march = solve_ivp(pend, traj.initial, 0.8, "midpoint", 100, tol=1e-12)
    assert np.max(np.abs(traj.state_array() - march.state_array())) <= 1e-9


@pytest.mark.parametrize("kind", ["type_ii", "type_i", "type_iv"])
def test_global_solve_memory_is_linear_in_the_steps(kind):
    # 2400 unknowns: one dense Newton matrix of this solve would take 46 MB
    bc = getattr(BoundarySpec, kind)([0.3, -0.2, 0.5], [0.1, 0.4, -0.3])
    tracemalloc.start()
    try:
        traj = solve_shooting(problems.harmonic_oscillator(3), bc, 1.0, "midpoint", 400,
                              tol=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.metadata["solver"] == "global"
    assert peak < 4e6


def test_bound_midpoint_stepper_takes_the_midpoint_rows():
    # the midpoint step bound by stepper_with_tol poses the same rows as its
    # name, not the map rows of a one-step map solved by Newton at each step
    pend = problems.pendulum()
    bc = BoundarySpec.type_ii([0.5], [0.3])
    named = solve_shooting(pend, bc, 2.0, "midpoint", 200, tol=1e-12)
    bound = solve_shooting(pend, bc, 2.0, core.stepper_with_tol("midpoint", 1e-12), 200,
                           tol=1e-12)
    assert bound.states.tobytes() == named.states.tobytes()


# ---------------------------------------------------------------------------
# sweeps

@pytest.mark.parametrize("stepper", ["midpoint", "rk4"])
def test_sweep_linear_drift(stepper):
    drift = problems.linear_drift()
    traj = solve_type_ii_sweep(drift, BoundarySpec.type_ii([1.0], [1.0]), 1.0,
                               stepper, 2000, tol=1e-12)
    assert abs(traj.final.q[0] - math.e) < 1e-5
    assert abs(traj.initial.p[0] - math.e) < 1e-5


def test_sweep_trivial_dynamics():
    frozen = MaximallyDegenerateProblem(f=lambda t, q: np.zeros(1), g=None, dim=1)
    traj = solve_type_ii_sweep(frozen, BoundarySpec.type_ii([0.7], [0.4]), 1.0,
                               "midpoint", 50)
    assert np.max(np.abs(traj.qs - 0.7)) < 1e-14
    assert np.max(np.abs(traj.ps - 0.4)) < 1e-14


def test_sweep_free_boundary_section():
    # p(T) = q(T) = e, then p(0) = e * e^T = e^2
    drift = problems.linear_drift()
    bc = BoundarySpec.type_ii_free([1.0], lambda q: np.asarray(q, dtype=float))
    traj = solve_type_ii_sweep(drift, bc, 1.0, "midpoint", 2000, tol=1e-12)
    assert abs(traj.final.p[0] - math.e) < 1e-5
    assert abs(traj.initial.p[0] - math.e**2) < 2e-5


def test_sweep_agrees_with_shooting():
    drift = problems.linear_drift()
    bc = BoundarySpec.type_ii([1.0], [1.0])
    sweep = solve_type_ii_sweep(drift, bc, 1.0, "midpoint", 400, tol=1e-12)
    shoot = solve_shooting(drift, bc, 1.0, "midpoint", 400, tol=1e-12)
    assert np.max(np.abs(sweep.state_array() - shoot.state_array())) < 1e-9


def test_scalar_section_reaches_the_sweep_and_shooting_alike():
    # on one dof a section may return a scalar; both solves read it as p1
    drift = problems.linear_drift()
    bc = BoundarySpec.type_ii_free([1.0], lambda q: 0.5)
    sweep = solve_type_ii_sweep(drift, bc, 1.0, "midpoint", 400, tol=1e-12)
    shoot = solve_shooting(drift, bc, 1.0, "midpoint", 400, tol=1e-12)
    assert shoot.final.p[0] == 0.5
    assert np.max(np.abs(sweep.state_array() - shoot.state_array())) < 1e-9


def test_replaced_split_reaches_the_sweep_and_shooting_alike():
    # doubling f and D_qf must move H's partials too: dq/dt = 2q and dp/dt = -2p,
    # so q(1) = e^2, and shooting marches the same dynamics as the sweep
    doubled = dataclasses.replace(problems.linear_drift(),
                                  f=lambda t, q: 2.0 * np.asarray(q, dtype=float),
                                  D_qf=lambda t, q: 2.0 * np.eye(1))
    bc = BoundarySpec.type_ii([1.0], [1.0])
    sweep = solve_type_ii_sweep(doubled, bc, 1.0, "midpoint", 200)
    shoot = solve_shooting(doubled, bc, 1.0, "midpoint", 200)
    assert abs(sweep.final.q[0] - math.e**2) < 1e-3
    assert np.max(np.abs(sweep.state_array() - shoot.state_array())) < 1e-8


@pytest.mark.parametrize("name", ["H", "D_qH", "D_pH", "D_ppH"])
def test_degenerate_problem_takes_no_second_copy_of_its_dynamics(name):
    drift = problems.linear_drift()
    with pytest.raises(TypeError):
        MaximallyDegenerateProblem(dim=1, f=drift.f, **{name: drift.H})
    with pytest.raises(ValueError):
        dataclasses.replace(drift, **{name: drift.H})


def test_sweep_requires_terminal_momentum_data():
    drift = problems.linear_drift()
    with pytest.raises(ValueError):
        solve_type_ii_sweep(drift, BoundarySpec.type_i([1.0], [0.0]), 1.0)


# ---------------------------------------------------------------------------
# completeness

@pytest.fixture(scope="module")
def model_reports():
    model = problems.model_degenerate(g=lambda x: x, gp=lambda x: 1.0)
    base = PhasePoint([0.3, 0.5], [0.7, -0.4])
    return {kind: completeness_diagnostic(model, kind, 1.0, "midpoint", 200,
                                          base_point=base)
            for kind in BoundaryKind if kind != BoundaryKind.TYPE_II_FREE}


def test_completeness_verdicts(model_reports):
    expected = {
        BoundaryKind.TYPE0: "complete",
        BoundaryKind.TYPE_I: "incomplete",
        BoundaryKind.TYPE_II: "complete",
        BoundaryKind.TYPE_III: "complete",
        BoundaryKind.TYPE_IV: "incomplete",
    }
    for kind, verdict in expected.items():
        assert model_reports[kind].verdict == verdict, kind


# on one dof, the (terminal row, unknown initial column) of the flow's
# derivative that each kind's shooting map is
_ENTRY = {
    BoundaryKind.TYPE_I: (0, 1),
    BoundaryKind.TYPE_II: (1, 1),
    BoundaryKind.TYPE_III: (0, 0),
    BoundaryKind.TYPE_IV: (1, 0),
}


def test_completeness_reads_the_block_each_kind_fixes():
    # H = p^2/2 + b q p + c q^2/2 is linear, dz/dt = A z, so N midpoint steps
    # map z(0) to C^N z(0) with C = (I - hA/2)^{-1} (I + hA/2).  On one dof
    # each kind's shooting map is one entry of C^N, and the four differ in
    # magnitude, so a kind reading the wrong block would be seen.
    b, c, T, N = 0.3, 2.0, 1.0, 20
    h = T / N
    A = np.array([[b, 1.0], [-c, -b]])
    step = np.linalg.solve(np.eye(2) - 0.5 * h * A, np.eye(2) + 0.5 * h * A)
    flow = np.abs(np.linalg.matrix_power(step, N))
    prob = HamiltonianProblem(
        dim=1, H=lambda t, q, p: 0.5 * p[0] ** 2 + b * q[0] * p[0] + 0.5 * c * q[0] ** 2)
    values = sorted(flow.ravel())
    assert min(np.diff(values)) > 0.1 * values[0]
    for kind, (i, j) in _ENTRY.items():
        rep = completeness_diagnostic(prob, kind, T, "midpoint", N,
                                      base_point=PhasePoint([0.4], [-0.2]))
        assert abs(rep.min_singular_value - flow[i, j]) <= 1e-6 * flow[i, j], kind


def test_completeness_magnitudes(model_reports):
    for kind in (BoundaryKind.TYPE_I, BoundaryKind.TYPE_IV):
        assert model_reports[kind].min_singular_value <= 1e-10
    for kind in (BoundaryKind.TYPE0, BoundaryKind.TYPE_II, BoundaryKind.TYPE_III):
        assert model_reports[kind].min_singular_value >= 1e-2
    # report is self-consistent
    for rep in model_reports.values():
        assert (rep.verdict == "complete") == (rep.min_singular_value > rep.threshold)


def test_completeness_rejects_type_ii_free():
    # the terminal section is not part of the kind, so there is no verdict
    # to give; Type IV's (perturb q0, read p(T)) would be the wrong one
    model = problems.model_degenerate(g=lambda x: x, gp=lambda x: 1.0)
    with pytest.raises(ValueError, match="p1_section"):
        completeness_diagnostic(model, BoundaryKind.TYPE_II_FREE, 1.0, "midpoint", 200,
                                base_point=PhasePoint([0.3, 0.5], [0.7, -0.4]))


def test_type_i_zero_sensitivity_block():
    # q_d(T) never depends on p_d(0): that column of the map is identically 0
    model = problems.model_degenerate(g=lambda x: 0.5 * x * x, gp=lambda x: x)
    rep = completeness_diagnostic(model, BoundaryKind.TYPE_I, 1.0, "midpoint", 200,
                                  base_point=PhasePoint([0.3, 0.5], [0.7, -0.4]))
    assert rep.min_singular_value == 0.0


def test_zero_sensitivity_blocks_survive_differenced_tangents():
    # rk4 steps are differenced one at a time; a perturbation that never
    # reaches a component must leave its row exactly zero, as with midpoint
    model = problems.model_degenerate(g=lambda x: x, gp=lambda x: 1.0)
    base = PhasePoint([0.3, 0.5], [0.7, -0.4])
    for kind in (BoundaryKind.TYPE_I, BoundaryKind.TYPE_IV):
        rep = completeness_diagnostic(model, kind, 1.0, "rk4", 200, base_point=base)
        assert rep.min_singular_value == 0.0 and rep.verdict == "incomplete", kind


@pytest.mark.parametrize("stepper", ["midpoint", "rk4"])
def test_completeness_matches_differenced_march(stepper):
    # each kind's shooting map is an entry of the derivative of the march's
    # end state, here central differences of whole marches
    pend = problems.pendulum()
    field = core.phase_field(pend)
    z0, T, N = np.array([0.8, -0.3]), 0.9, 60
    march = lambda z: core.integrate(field, z, 0.0, T, N, stepper, 1e-14)[1][-1]
    ref = core.fd_gradient(march, z0)
    for kind, (i, j) in _ENTRY.items():
        rep = completeness_diagnostic(pend, kind, T, stepper, N, base_point=PhasePoint(*z0))
        assert abs(rep.min_singular_value - abs(ref[i, j])) <= 1e-6 * np.max(np.abs(ref)), kind


@pytest.mark.parametrize("prob", [problems.pendulum(), problems.harmonic_oscillator(2, 1.3)],
                         ids=["pendulum", "oscillator2"])
def test_midpoint_step_blocks_are_symplectic(prob):
    # the product of the -B_k^{-1} A_k along a midpoint march is the march's
    # derivative, a symplectic matrix
    n, field = prob.dim, core.phase_field(prob)
    times, xs = core.integrate(field, np.linspace(0.4, -0.7, 2 * n), 0.0, 2.0, 80,
                               "midpoint", 1e-13)
    A, B = bvp._step_blocks(field, core.phase_jacobian(prob), core.midpoint_step, times,
                            2.0 / 80, xs, None)
    V = np.eye(2 * n)
    for A_k, B_k in zip(A, B):
        V = np.linalg.solve(B_k, -A_k @ V)
    omega = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    assert np.max(np.abs(V.T @ omega @ V - omega)) <= 1e-10


# ---------------------------------------------------------------------------
# duality and virtual work

def test_time_reversal_duality():
    osc = problems.harmonic_oscillator()
    T = 1.0
    t3 = solve_shooting(osc, BoundarySpec.type_iii([0.3], [0.8]), T,
                        "midpoint", 400, tol=1e-12)
    reversed_prob = time_reversed_problem(osc, T)
    t2 = solve_shooting(reversed_prob, BoundarySpec.type_ii([0.8], [0.3]), T,
                        "midpoint", 400, tol=1e-12)
    assert np.max(np.abs(t3.state_array() - t2.state_array()[::-1])) < 1e-9


def test_virtual_work_identity():
    osc = problems.harmonic_oscillator()
    T = math.pi / 4
    traj = solve_shooting(osc, BoundarySpec.type_ii([1.0], [0.0]), T,
                          "midpoint", 1000, tol=1e-12)
    rng = np.random.default_rng(20240817)
    residuals, scales = virtual_work_residuals(osc, traj, [0.0], rng)
    assert np.max(residuals / scales) <= 1e-6


def test_virtual_work_nonzero_terminal_momentum():
    osc = problems.harmonic_oscillator()
    traj = solve_shooting(osc, BoundarySpec.type_ii([0.5], [0.7]), 0.9,
                          "midpoint", 1000, tol=1e-12)
    rng = np.random.default_rng(7)
    residuals, scales = virtual_work_residuals(osc, traj, [0.7], rng)
    assert np.max(residuals / scales) <= 1e-6


def test_free_boundary_stationarity():
    drift = problems.linear_drift()
    terminal_cost = lambda q: 0.5 * float(np.dot(q, q))
    bc = BoundarySpec.type_ii_free([1.0], lambda q: np.asarray(q, dtype=float))
    traj = solve_type_ii_sweep(drift, bc, 1.0, "midpoint", 1000, tol=1e-12)
    rng = np.random.default_rng(13)
    residuals, scales = free_boundary_stationarity_residuals(drift, traj, terminal_cost, rng)
    assert np.max(residuals / scales) <= 1e-6


def test_discretized_action_free_particle_value():
    # straight line q = t, p = 1: action sum = int (p qdot - p^2/2) = T/2
    fp = problems.free_particle()
    times = np.linspace(0.0, 1.0, 11)
    qs = times.reshape(-1, 1)
    ps = np.ones((11, 1))
    assert abs(discretized_action(fp, times, qs, ps) - 0.5) < 1e-12
