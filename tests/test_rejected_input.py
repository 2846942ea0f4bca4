"""Rejected input: each public entry point refuses bad data with a typed error."""

import dataclasses
import signal

import numpy as np
import pytest

from hamflow import adjoint, bvp, core, hamel, integrators, optcontrol, problems
from hamflow.accelopt import BregmanConfig, minimize
from hamflow.experiments import lqr_problem


def _harmonic_H(t, q, p):
    return 0.5 * (p @ p + q @ q)


def _untouchable(*args):
    raise AssertionError("a field was called before the input was checked")


def _cost_problem(T, f=lambda t, q: -q):
    return adjoint.CostProblem(f=f, g=None, C=lambda q: float(q @ q),
                               dC=lambda q: 2.0 * q, T=T, q0=[1.0])


def _degenerate():
    """A maximally degenerate problem whose field must not be called."""
    return core.MaximallyDegenerateProblem(dim=1, f=_untouchable, D_qf=_untouchable)


def _sweep(T, N):
    return bvp.solve_type_ii_sweep(_degenerate(), bvp.BoundarySpec.type_ii([1.0], [0.0]), T, N=N)


def _control_problem(**changes):
    lqr = lqr_problem()
    fields = dict(f=lqr.f, g=lqr.g, C=lqr.C, dC=lqr.dC, q0=lqr.q0, T=lqr.T, u_dim=lqr.u_dim)
    return optcontrol.ControlProblem(**{**fields, **changes})


def _quadratic(**changes):
    return BregmanConfig(**{"objective": lambda x: float(x @ x), "x0": [1.0], **changes})


def _end_point_force_step():
    """The pure-force H = q under nodes 0 and 1: its stage system is singular."""
    return integrators.galerkin_discrete_hamiltonian(
        problems.pure_force(), integrators.GalerkinScheme(1, [0.0, 1.0], [0.5, 0.5]), 0.1)


def _oscillator_family(h):
    return integrators.galerkin_discrete_hamiltonian(
        problems.harmonic_oscillator(), integrators.GalerkinScheme.midpoint(), h)


# case id: (error type, a fragment of its message, the rejected call)
CASES = {
    "problem_dim_0": (ValueError, "dim must be", lambda: core.HamiltonianProblem(
        dim=0, H=_harmonic_H)),
    "asymmetric_D_ppH": (ValueError, "D_ppH is not symmetric", lambda: core.HamiltonianProblem(
        dim=2, H=_harmonic_H, check=True,
        D_ppH=lambda t, q, p: np.eye(2) + 1e-8 * np.array([[0.0, 1.0], [0.0, 0.0]]))),
    "unknown_derivative_mode": (ValueError, "derivative_mode", lambda: core.HamiltonianProblem(
        dim=1, H=_harmonic_H, derivative_mode="symbolic")),
    "trajectory_controls_length": (ValueError, "controls length", lambda: core.Trajectory(
        times=[0.0, 1.0], states=np.zeros((2, 2)), controls=np.zeros((3, 1)))),
    "unknown_stepper": (ValueError, "unknown stepper", lambda: core.resolve_stepper("rk5")),
    "integrate_N_0": (ValueError, "N must be", lambda: core.integrate(
        lambda t, x: -x, np.ones(2), 0.0, 1.0, 0, "midpoint", core.DEFAULT_TOL)),
    "sweep_controls_shape": (ValueError, "controls must be", lambda: core.sweep(
        lambda t, q, u: q, lambda t, q, u: np.eye(1), lambda t, q, u: np.zeros(1),
        np.zeros(3), np.ones(1), np.ones(1), 1.0, 4, "euler", core.DEFAULT_TOL)),
    "shoot_type0": (ValueError, "does not apply", lambda: bvp.solve_global(
        core.phase_field(problems.harmonic_oscillator()), None, 1,
        bvp.BoundarySpec.type0([1.0], [0.0]), 1.0, 10, "midpoint", None, 1e-10)),
    "global_horizon_0": (ValueError, "positive and finite", lambda: bvp.solve_shooting(
        problems.harmonic_oscillator(), bvp.BoundarySpec.type_ii([1.0], [0.0]), 0.0)),
    "global_horizon_nan": (ValueError, "positive and finite", lambda: bvp.solve_global(
        core.phase_field(problems.harmonic_oscillator()), None, 1,
        bvp.BoundarySpec.type_ii([1.0], [0.0]), float("nan"), 10, "midpoint", None, 1e-10)),
    "global_N_0": (ValueError, "N must be >= 1", lambda: bvp.solve_global(
        core.phase_field(problems.harmonic_oscillator()), None, 1,
        bvp.BoundarySpec.type_ii([1.0], [0.0]), 1.0, 0, "midpoint", None, 1e-10)),
    "global_nan_jacobian": (core.EvaluationError, "non-finite Jacobian", lambda: bvp.solve_shooting(
        dataclasses.replace(problems.harmonic_oscillator(),
                            D_ppH=lambda t, q, p: np.full((1, 1), np.nan)),
        bvp.BoundarySpec.type_ii([1.0], [0.0]), 1.0)),
    "global_section_entries": (ValueError, "p1_section has 2 entries", lambda: bvp.solve_shooting(
        problems.harmonic_oscillator(), bvp.BoundarySpec.type_ii_free([1.0], lambda q: [0.0, 0.0]),
        1.0)),
    "completeness_negative_horizon": (ValueError, "positive and finite",
                                      lambda: bvp.completeness_diagnostic(
                                          problems.harmonic_oscillator(), bvp.BoundaryKind.TYPE_II,
                                          -1.0, base_point=core.PhasePoint([1.0], [0.0]))),
    "completeness_type0_N_negative": (ValueError, "N must be >= 1",
                                      lambda: bvp.completeness_diagnostic(
                                          problems.harmonic_oscillator(), bvp.BoundaryKind.TYPE0,
                                          1.0, N=-3, base_point=core.PhasePoint([1.0], [0.0]))),
    "core_sweep_horizon_0": (ValueError, "positive and finite", lambda: core.sweep(
        _untouchable, _untouchable, _untouchable, np.zeros((11, 0)), np.ones(1), _untouchable,
        0.0, 10, "euler", core.DEFAULT_TOL)),
    "sweep_horizon_nan": (ValueError, "positive and finite", lambda: _sweep(float("nan"), 10)),
    "sweep_horizon_inf": (ValueError, "positive and finite", lambda: _sweep(float("inf"), 10)),
    "sweep_horizon_0": (ValueError, "positive and finite", lambda: _sweep(0.0, 10)),
    "sweep_negative_horizon": (ValueError, "positive and finite", lambda: _sweep(-1.0, 10)),
    "sweep_N_negative": (ValueError, "N must be >= 1", lambda: _sweep(1.0, -3)),
    "degenerate_sweep_N_negative": (ValueError, "N must be >= 1", lambda: _degenerate().sweep(
        [1.0], _untouchable, 1.0, -3, "midpoint", core.DEFAULT_TOL)),
    "sensitivity_N_negative": (ValueError, "N must be >= 1", lambda: adjoint.sensitivity(
        _cost_problem(1.0, _untouchable), N=-3)),
    "gradient_check_N_negative": (ValueError, "N must be >= 1", lambda: adjoint.gradient_check(
        _cost_problem(1.0, _untouchable), N=-3)),
    "sensitivity_horizon_0_N_negative": (ValueError, "positive and finite",
                                         lambda: adjoint.sensitivity(_cost_problem(0.0), N=-3)),
    "integrated_cost_horizon_0_N_negative": (ValueError, "positive and finite",
                                             lambda: adjoint.integrated_cost(
                                                 _cost_problem(0.0), [1.0], N=-3)),
    "gradient_check_horizon_0_N_negative": (ValueError, "positive and finite",
                                            lambda: adjoint.gradient_check(
                                                _cost_problem(0.0), N=-3)),
    "sensitivity_horizon_0": (ValueError, "positive and finite", lambda: adjoint.sensitivity(
        _cost_problem(0.0), "rk4", 10)),
    "integrated_cost_horizon_0": (ValueError, "positive and finite",
                                  lambda: adjoint.integrated_cost(_cost_problem(0.0), [1.0])),
    "commutativity_horizon_0": (ValueError, "positive and finite",
                                lambda: adjoint.commutativity_gap(
                                    dataclasses.replace(_cost_problem(1.0), T=0.0), N=10)),
    "diffusion_demo_horizon_0": (ValueError, "positive and finite",
                                 lambda: adjoint.diffusion_adjoint_demo(nx=5, T=0.0, N=1)),
    "commutativity_N_0": (ValueError, "N must be >= 1", lambda: adjoint.commutativity_gap(
        _cost_problem(1.0, _untouchable), N=0)),
    "sweep_plain_problem": (TypeError, "split structure", lambda: bvp.solve_type_ii_sweep(
        problems.harmonic_oscillator(), bvp.BoundarySpec.type_ii([1.0], [0.0]), 1.0)),
    "scheme_shapes": (ValueError, "equal length", lambda: integrators.GalerkinScheme(
        1, [0.5], [0.5, 0.5])),
    "generator_h_0": (ValueError, "step size", lambda: _oscillator_family(0.0)),
    "step_without_partials": (ValueError, "lacks both", lambda: integrators.step(
        integrators.DiscreteHamiltonian(h=0.1, value=lambda t, q, p: 0.0), 0.0, np.zeros(2))),
    "singular_stage_system_step": (core.RankDeficientStageSystem, "not invertible",
                                   lambda: integrators.step(_end_point_force_step(), 0.0,
                                                            np.array([0.0, 1.0]))),
    "singular_stage_system_D1": (core.RankDeficientStageSystem, "not invertible",
                                 lambda: _end_point_force_step().D1(0.0, np.array([0.0]),
                                                                    np.array([1.0]))),
    "order_two_step_counts": (core.DegenerateRegression, "three step counts",
                              lambda: integrators.estimate_order(
                                  _oscillator_family, problems.harmonic_oscillator(),
                                  core.PhasePoint([1.0], [0.0]), 1.0, [8, 16])),
    "estimate_order_N_0": (ValueError, "N must be >= 1", lambda: integrators.estimate_order(
        _oscillator_family, problems.harmonic_oscillator(), core.PhasePoint([1.0], [0.0]),
        1.0, [8, 16, 0])),
    "estimate_order_horizon_nan": (ValueError, "positive and finite",
                                   lambda: integrators.estimate_order(
                                       _oscillator_family, problems.harmonic_oscillator(),
                                       core.PhasePoint([1.0], [0.0]), float("nan"),
                                       [8, 16, 32])),
    "reference_flow_horizon_nan": (ValueError, "positive and finite",
                                   lambda: integrators.reference_flow(
                                       problems.harmonic_oscillator(), np.array([1.0, 0.0]),
                                       0.0, float("nan"))),
    "integrate_start_nan": (ValueError, "start time", lambda: core.integrate(
        _untouchable, [1.0], float("nan"), 1.0, 4, "rk4", core.DEFAULT_TOL)),
    "integrate_start_inf": (ValueError, "start time", lambda: core.integrate(
        _untouchable, [1.0], float("-inf"), 1.0, 4, "midpoint", core.DEFAULT_TOL)),
    "integrate_map_start_nan": (ValueError, "start time", lambda: integrators.integrate_map(
        _oscillator_family(0.1), core.PhasePoint([1.0], [0.0]), float("nan"), 4)),
    "estimate_order_start_nan_with_reference": (ValueError, "start time",
                                                lambda: integrators.estimate_order(
                                                    _oscillator_family,
                                                    problems.harmonic_oscillator(),
                                                    core.PhasePoint([1.0], [0.0]), 1.0,
                                                    [8, 16, 32], reference=[1.0, 0.0],
                                                    t0=float("nan"))),
    "cost_negative_horizon": (ValueError, "horizon", lambda: _cost_problem(-1.0)),
    "cost_horizon_nan": (ValueError, "horizon", lambda: _cost_problem(float("nan"))),
    "cost_horizon_inf": (ValueError, "horizon", lambda: _cost_problem(float("inf"))),
    "cost_horizon_0": (ValueError, "positive and finite", lambda: _cost_problem(0.0)),
    "commutativity_rk4": (ValueError, "scheme must be", lambda: adjoint.commutativity_gap(
        _cost_problem(1.0), scheme="rk4")),
    "control_horizon_0": (ValueError, "positive and finite", lambda: _control_problem(T=0.0)),
    "control_horizon_nan": (ValueError, "positive and finite",
                            lambda: _control_problem(T=float("nan"))),
    "control_horizon_inf": (ValueError, "positive and finite",
                            lambda: _control_problem(T=float("inf"))),
    "control_u_dim_0": (ValueError, "control dimension", lambda: _control_problem(u_dim=0)),
    "bregman_p_nan": (ValueError, "^p must be positive and finite",
                      lambda: _quadratic(p=float("nan"))),
    "bregman_p_inf": (ValueError, "^p must be positive and finite",
                      lambda: _quadratic(p=float("inf"))),
    "bregman_p_ring_nan": (ValueError, "p_ring must be positive and finite",
                           lambda: _quadratic(p_ring=float("nan"))),
    "bregman_C_inf": (ValueError, "C must be positive and finite",
                      lambda: _quadratic(C=float("inf"))),
    "bregman_t0_nan": (ValueError, "t0 must be positive and finite",
                       lambda: _quadratic(t0=float("nan"))),
    "bregman_v0_size": (ValueError, "v0 has 2 entries, x0 has 1",
                        lambda: _quadratic(v0=[0.0, 1.0])),
    "minimize_no_steps": (ValueError, "step count", lambda: minimize(
        _quadratic(), fictive_steps=0)),
    "minimize_steps_not_integer": (ValueError, "integer step count", lambda: minimize(
        _quadratic(), fictive_steps=2.5)),
    "minimize_h_tau_nan": (ValueError, "fictive step size", lambda: minimize(
        _quadratic(), fictive_steps=5, h_tau=float("nan"))),
    "minimize_h_tau_inf": (ValueError, "fictive step size", lambda: minimize(
        _quadratic(), fictive_steps=5, h_tau=float("inf"))),
    "minimize_objective_below_zero": (ValueError, r"^objective values reach -4\.99.* shift the",
                                      lambda: minimize(_quadratic(objective=lambda x: x @ x - 5.0),
                                                       "midpoint", fictive_steps=50, h_tau=0.05)),
    # a run that starts above 0 and ends below it is rejected, not fitted
    "minimize_objective_dips_below_zero": (
        ValueError, r"^objective values reach -0\.49999.* shift the",
        lambda: minimize(_quadratic(objective=lambda x: x @ x - 0.5), "midpoint",
                         fictive_steps=200, h_tau=0.05)),
    "degenerate_problem_without_f": (TypeError, "'f'",
                                     lambda: core.MaximallyDegenerateProblem(dim=1)),
    "trivialization_dims": (ValueError, "dimensions differ", lambda: hamel.trivialized_hamiltonian(
        problems.harmonic_oscillator(2), hamel.so3_left_trivialization())),
}


@pytest.mark.parametrize("error, match, build", CASES.values(), ids=CASES.keys())
def test_rejected_input_raises_its_error_type(error, match, build):
    with pytest.raises(error, match=match):
        build()


def _expire(signum, frame):
    raise TimeoutError("the call ran into scipy's integrator instead of refusing its input")


@pytest.mark.parametrize("build", [
    lambda: integrators.reference_flow(problems.harmonic_oscillator(), np.array([1.0, 0.0]),
                                       float("nan"), 1.0),
    lambda: integrators.estimate_order(_oscillator_family, problems.harmonic_oscillator(),
                                       core.PhasePoint([1.0], [0.0]), 1.0, [8, 16, 32],
                                       t0=float("nan")),
], ids=["reference_flow", "estimate_order"])
def test_nan_start_time_is_refused_before_scipy_runs(build):
    # scipy's DOP853 never finishes from t0 = nan, so the call runs under an
    # alarm: a missing check fails the test instead of hanging it
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(10)
    try:
        with pytest.raises(ValueError, match="start time"):
            build()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
