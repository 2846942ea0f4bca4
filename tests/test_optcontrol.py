import math
from dataclasses import replace

import numpy as np
import pytest

from hamflow import core, optcontrol
from hamflow.bvp import BoundarySpec, solve_type_ii_sweep
from hamflow.core import MaximallyDegenerateProblem, NoConvergence
from hamflow.experiments import lqr_problem, riccati_oracle
from hamflow.optcontrol import (
    ControlProblem,
    control_hamiltonian,
    control_stationarity,
    pontryagin_residuals,
    solve_fbsm,
)


def test_control_problem_gradient_validation():
    kwargs = dict(f=lambda t, q, u: np.asarray(u, dtype=float),
                  g=lambda t, q, u: 0.5 * float(u[0] ** 2),
                  C=lambda q: float(q[0] ** 2), q0=np.array([1.0]), T=1.0, u_dim=1,
                  check=True)
    ControlProblem(dC=lambda q: 2.0 * np.asarray(q, dtype=float), **kwargs)
    with pytest.raises(ValueError, match="dC disagrees"):
        ControlProblem(dC=lambda q: 3.0 * np.asarray(q, dtype=float), **kwargs)


def test_control_problem_validates_derivative_closures():
    closures = dict(D_qf=lambda t, q, u: np.diag(np.cos(q)) * u[0],
                    D_uf=lambda t, q, u: np.sin(q)[:, None],
                    D_qg=lambda t, q, u: np.asarray(q, dtype=float),
                    D_ug=lambda t, q, u: np.asarray(u, dtype=float),
                    dC=lambda q: 2.0 * np.asarray(q, dtype=float))
    kwargs = dict(f=lambda t, q, u: np.sin(q) * u[0],
                  g=lambda t, q, u: 0.5 * float(q[0] ** 2 + u[0] ** 2),
                  C=lambda q: float(q[0] ** 2),
                  q0=np.array([0.6]), T=1.0, u_dim=1, u_init=0.4, check=True)
    ControlProblem(**closures, **kwargs)
    for name in closures:
        wrong = closures[name]
        bad = {**closures, name: lambda *args, d=wrong: 2.0 * np.asarray(d(*args))}
        with pytest.raises(ValueError, match=name):
            ControlProblem(**bad, **kwargs)


def test_control_hamiltonian_values():
    cp = lqr_problem()
    H = control_hamiltonian(cp)
    # f = u, g = u^2/2 at q = 0: H = p u + (q^2 + u^2)/2
    assert abs(H(0.0, np.array([0.0]), np.array([2.0]), np.array([1.0])) - 2.5) < 1e-14
    assert abs(H(0.0, np.array([0.0]), np.array([3.0]), np.array([0.0]))
               - 0.0) < 1e-14  # u = 0, g(.,.,0) = 0 at q = 0: reduces to <p, f(0)>
    du = control_stationarity(cp, 0.0, np.array([0.0]), np.array([2.0]),
                              np.array([1.0]))
    assert abs(du[0] - 3.0) < 1e-10  # D_u H = p + u


def test_riccati_oracle_matches_tanh():
    times = np.linspace(0.0, 1.0, 101)
    q, p, u = riccati_oracle(1.0, times, 1.0)
    P_exact = np.tanh(1.0 - times)
    q_exact = np.cosh(1.0 - times) / math.cosh(1.0)
    assert np.max(np.abs(q - q_exact)) < 1e-9
    assert np.max(np.abs(p - P_exact * q_exact)) < 1e-9
    assert np.max(np.abs(u + p)) < 1e-12


@pytest.mark.parametrize("stepper", ["midpoint", "rk4"])
def test_fbsm_scalar_lqr(stepper):
    cp = lqr_problem()
    traj, residual = solve_fbsm(cp, stepper, 1000, max_sweeps=200, relax=0.5,
                                tol=1e-8, newton_tol=1e-12)
    assert residual <= 1e-8 and traj.metadata["stepper"] == stepper
    q_or, p_or, u_or = riccati_oracle(cp.T, traj.times, cp.q0[0])
    assert np.max(np.abs(traj.qs[:, 0] - q_or)) < 1e-4
    assert np.max(np.abs(traj.ps[:, 0] - p_or)) < 1e-4
    assert np.max(np.abs(traj.controls[:, 0] - u_or)) < 1e-4


def test_fbsm_trivial_control_penalty_converges_in_one_sweep():
    # f = 0 and g = u^2/2: D_u H = u, a single relax = 1 update zeroes it
    cp = ControlProblem(
        f=lambda t, q, u: np.zeros(1),
        g=lambda t, q, u: 0.5 * float(u[0] ** 2),
        C=lambda q: 0.0, dC=lambda q: np.zeros(1),
        q0=np.array([1.0]), T=1.0, u_dim=1, u_init=0.7,
        D_qf=lambda t, q, u: np.zeros((1, 1)), D_uf=lambda t, q, u: np.zeros((1, 1)),
        D_qg=lambda t, q, u: np.zeros(1), D_ug=lambda t, q, u: np.asarray(u, dtype=float))
    traj, residual = solve_fbsm(cp, "midpoint", 50, max_sweeps=5, relax=1.0,
                                tol=1e-10)
    assert residual <= 1e-10
    assert traj.metadata["sweeps"] == 2  # update sweep plus the verifying sweep
    assert np.max(np.abs(traj.controls)) < 1e-12


def test_fbsm_euler_gap_halves_with_resolution():
    cp = lqr_problem()

    def gap(N):
        traj, _ = solve_fbsm(cp, "euler", N, max_sweeps=300, relax=0.5, tol=1e-10)
        q_or, p_or, u_or = riccati_oracle(cp.T, traj.times, cp.q0[0])
        return float(np.max(np.abs(traj.controls[:, 0] - u_or)))

    g1, g2 = gap(200), gap(400)
    assert 1.6 <= g1 / g2 <= 2.4


def test_fbsm_no_convergence_carries_best():
    cp = lqr_problem()
    with pytest.raises(NoConvergence) as info:
        solve_fbsm(cp, "midpoint", 100, max_sweeps=2, relax=0.1, tol=1e-12)
    assert info.value.best is not None
    traj, residual = info.value.best
    assert residual > 1e-12


def test_fbsm_rejects_zero_sweep_budget():
    with pytest.raises(ValueError, match="max_sweeps must be >= 1"):
        solve_fbsm(lqr_problem(), "midpoint", 100, max_sweeps=0)


def test_pontryagin_residuals_at_convergence():
    cp = lqr_problem()
    traj, residual = solve_fbsm(cp, "midpoint", 400, max_sweeps=200, relax=0.5,
                                tol=1e-8, newton_tol=1e-12)
    defects = pontryagin_residuals(cp, traj)
    assert defects["state_defect"] <= 1e-10
    assert defects["costate_defect"] <= 1e-10
    assert defects["stationarity"] <= 1e-8
    assert defects["initial_error"] == 0.0
    assert defects["terminal_error"] == 0.0


def test_converged_pair_matches_adjoint_sweep_on_frozen_control():
    cp = lqr_problem()
    N = 400
    traj, _ = solve_fbsm(cp, "midpoint", N, max_sweeps=200, relax=0.5,
                         tol=1e-10, newton_tol=1e-12)
    times, u = traj.times, traj.controls

    def u_of_t(t):
        return np.array([np.interp(t, times, u[:, 0])])

    frozen = MaximallyDegenerateProblem(
        f=lambda t, q: np.asarray(u_of_t(t), dtype=float),
        g=lambda t, q: 0.5 * float(q[0] ** 2 + u_of_t(t)[0] ** 2),
        dim=1,
        D_qf=lambda t, q: np.zeros((1, 1)),
        D_qg=lambda t, q: np.asarray(q, dtype=float))
    bc = BoundarySpec.type_ii_free(cp.q0, lambda q: np.asarray(cp.dC(q), dtype=float))
    sweep = solve_type_ii_sweep(frozen, bc, cp.T, "midpoint", N, tol=1e-12)
    assert np.max(np.abs(sweep.state_array() - traj.state_array())) < 1e-9


def _nonlinear_probe():
    # f = sin q - q^3 + u, g = (q^2 + u^2)/2, C = q^2: the plain relaxed map
    # stalls near |D_u H| = 0.49 at relax 0.5
    return ControlProblem(
        f=lambda t, q, u: np.sin(q) - q ** 3 + u,
        g=lambda t, q, u: 0.5 * float(q[0] ** 2 + u[0] ** 2),
        C=lambda q: float(q[0] ** 2), dC=lambda q: 2.0 * np.asarray(q, dtype=float),
        q0=np.array([1.2]), T=2.0, u_dim=1)


@pytest.mark.parametrize("stepper, N", [("rk4", 50), ("midpoint", 200)])
def test_fbsm_nonlinear_problem_converges_at_default_relax(stepper, N):
    cp = _nonlinear_probe()
    traj, residual = solve_fbsm(cp, stepper, N, max_sweeps=400, relax=0.5, tol=1e-8)
    assert residual <= 1e-8
    assert traj.metadata["sweeps"] <= 60
    assert pontryagin_residuals(cp, traj)["stationarity"] <= 1e-8


def test_fbsm_benchmark_lqr_converges_in_few_sweeps():
    traj, residual = solve_fbsm(lqr_problem(), "rk4", 50, relax=0.5)
    assert residual <= 1e-8
    assert traj.metadata["sweeps"] <= 8


def test_fbsm_rank_deficient_mixing_takes_the_plain_step():
    # f = 0 and g = u: D_u H = 1 whatever u is, so every difference of the
    # mixing history is zero and its normal equations are singular
    cp = ControlProblem(
        f=lambda t, q, u: np.zeros(1), g=lambda t, q, u: float(u[0]),
        C=lambda q: 0.0, dC=lambda q: np.zeros(1),
        q0=np.array([1.0]), T=1.0, u_dim=1,
        D_qf=lambda t, q, u: np.zeros((1, 1)), D_uf=lambda t, q, u: np.zeros((1, 1)),
        D_qg=lambda t, q, u: np.zeros(1), D_ug=lambda t, q, u: np.ones(1))
    with pytest.raises(NoConvergence) as info:
        solve_fbsm(cp, "midpoint", 20, max_sweeps=10)
    traj, residual = info.value.best
    assert residual == 1.0
    assert traj.metadata["sweeps"] == 1 and traj.metadata["stepper"] == "midpoint"
    assert np.all(traj.controls == 0.0)


def test_fbsm_builds_one_trajectory_per_solve(monkeypatch):
    import hamflow.optcontrol as optcontrol

    built = []

    class Counted(optcontrol.Trajectory):
        def __post_init__(self):
            built.append(self.metadata["sweeps"])
            super().__post_init__()

    monkeypatch.setattr(optcontrol, "Trajectory", Counted)
    traj, _ = solve_fbsm(lqr_problem(), "rk4", 50, relax=0.5)
    assert built == [traj.metadata["sweeps"]]
    built.clear()
    with pytest.raises(NoConvergence) as info:
        solve_fbsm(lqr_problem(), "rk4", 50, max_sweeps=3, relax=0.5)
    assert built == [info.value.best[0].metadata["sweeps"]]


def test_fbsm_accepts_a_node_control_table():
    N = 50
    table = np.linspace(0.0, -0.5, N + 1)[:, None]
    cp = replace(lqr_problem(), u_init=table)
    traj, residual = solve_fbsm(cp, "rk4", N, relax=0.5)
    assert residual <= 1e-8


@pytest.mark.parametrize("change, call, message", [
    pytest.param({}, dict(N=-3), "N must be >= 1", id="N=-3"),
    pytest.param({}, dict(N=0), "N must be >= 1", id="N=0"),
    pytest.param({}, dict(tol=0.0), "tol must be positive and finite", id="tol=0"),
    pytest.param({}, dict(tol=-1.0), "tol must be positive and finite", id="tol=-1"),
    pytest.param({}, dict(tol=float("nan")), "tol must be positive and finite", id="tol=nan"),
    pytest.param({}, dict(tol=float("inf")), "tol must be positive and finite", id="tol=inf"),
    pytest.param({"u_init": np.zeros(2)}, {}, r"u_init of shape \(2,\)", id="u_init-vector"),
    pytest.param({"u_init": np.zeros((7, 1))}, dict(N=10), r"u_init of shape \(7, 1\)",
                 id="u_init-table"),
])
def test_fbsm_rejects_bad_input(change, call, message):
    cp = replace(lqr_problem(), **change)
    with pytest.raises(ValueError, match=message):
        solve_fbsm(cp, "rk4", **{"N": 50, **call})


def test_fbsm_calls_supplied_partials_directly(monkeypatch):
    # the sweep calls the supplied D_qf and D_qg and the stationarity D_u H the
    # supplied D_uf and D_ug, so partial_of runs only for a partial left out
    calls = []
    partial_of = core.partial_of

    def counted(*args):
        calls.append(args)
        return partial_of(*args)

    for module in (core, optcontrol):
        monkeypatch.setattr(module, "partial_of", counted)
    N = 50
    lqr = lqr_problem()
    traj, _ = solve_fbsm(lqr, "rk4", N, max_sweeps=50, relax=0.5, tol=1e-8)
    assert calls == []
    # without D_uf and D_ug, D_u H differences two partials at each node
    cp = replace(lqr, D_uf=None, D_ug=None)
    differenced, _ = solve_fbsm(cp, "rk4", N, max_sweeps=50, relax=0.5, tol=1e-8)
    assert len(calls) == 2 * (N + 1) * differenced.metadata["sweeps"]
    assert {args[3] for args in calls} == {2}         # partials along u only
    assert np.max(np.abs(differenced.controls - traj.controls)) < 1e-6
