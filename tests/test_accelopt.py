import numpy as np
import pytest

from hamflow import accelopt, problems
from hamflow.accelopt import (
    BregmanConfig,
    adaptive_bregman_problem,
    bregman_hamiltonian,
    fit_decay_slope,
    initial_extended_state,
    minimize,
    poincare_transform,
    rescaling_monitor,
)
from hamflow.bvp import solve_ivp
from hamflow.core import (
    BlowUp,
    EvaluationError,
    HamiltonianProblem,
    PhasePoint,
    check_closure,
    phase_field,
)


def quadratic_config(x0, a=None, **kwargs):
    a = np.zeros(len(x0)) if a is None else np.asarray(a, dtype=float)
    return BregmanConfig(
        objective=lambda x: 0.5 * float(np.dot(x - a, x - a)),
        gradient=lambda x: np.asarray(x, dtype=float) - a,
        x0=np.asarray(x0, dtype=float), **kwargs)


def test_hamiltonian_values():
    cfg = quadratic_config([1.0], p=2.0, C=1.0)
    prob = bregman_hamiltonian(cfg)
    # zero momentum, zero objective: H = 0
    assert prob.value(1.7, np.zeros(1), np.zeros(1)) == 0.0
    # p = 2, C = 1, t = 1, f = 1, r = 0: H = 2 * 1 * (0 + 1) = 2
    cfg2 = BregmanConfig(objective=lambda x: 1.0, gradient=lambda x: np.zeros(1),
                         x0=np.array([0.0]), p=2.0, C=1.0)
    prob2 = bregman_hamiltonian(cfg2)
    assert abs(prob2.value(1.0, np.zeros(1), np.zeros(1)) - 2.0) < 1e-14


def test_hamiltonian_rejects_nonpositive_time():
    prob = bregman_hamiltonian(quadratic_config([1.0]))
    with pytest.raises(EvaluationError):
        prob.value(0.0, np.ones(1), np.ones(1))
    with pytest.raises(EvaluationError):
        prob.d_q(-1.0, np.ones(1), np.ones(1))


def test_flow_rate_against_fine_reference():
    # rate check on the non-autonomous flow itself, fine adaptive reference
    from scipy.integrate import solve_ivp as scipy_ivp

    cfg = quadratic_config([1.0, 2.0], p=2.0)
    prob = bregman_hamiltonian(cfg)
    fld = phase_field(prob)
    z0 = np.concatenate([cfg.x0, cfg.r0])
    ts = np.geomspace(1.0, 100.0, 400)
    sol = scipy_ivp(fld, (1.0, 100.0), z0, method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=ts)
    gaps = 0.5 * np.sum(sol.y[:2, :] ** 2, axis=0)
    assert fit_decay_slope(ts, gaps) <= -1.8


def test_config_validation():
    with pytest.raises(ValueError):
        quadratic_config([1.0], p=-1.0)
    with pytest.raises(ValueError):
        BregmanConfig(objective=lambda x: float(x[0] ** 2),
                      gradient=lambda x: 5.0 * x,  # wrong gradient
                      x0=np.array([1.0]), check=True)
    # the right gradient passes and the right one scaled by 2 does not
    quadratic_config([1.0, -0.5], a=[0.2, 0.1], check=True)
    with pytest.raises(ValueError, match="gradient"):
        BregmanConfig(objective=lambda x: float(x[0] ** 2),
                      gradient=lambda x: 2.0 * (2.0 * x),
                      x0=np.array([1.0]), check=True)


# ---------------------------------------------------------------------------
# extended phase space

def test_poincare_identity_monitor_projects_onto_base_flow():
    osc = problems.harmonic_oscillator()
    z0 = PhasePoint([1.0], [0.0])
    ext, s0 = poincare_transform(osc, lambda t, q, p: 1.0, z0, 0.0)
    Q0, P0 = s0.q, s0.p
    assert abs(ext.value(0.0, Q0, P0)) <= 1e-14
    traj_ext = solve_ivp(ext, s0, 2.0, "midpoint", 200, tol=1e-12)
    traj_base = solve_ivp(osc, z0, 2.0, "midpoint", 200, tol=1e-12)
    assert np.max(np.abs(traj_ext.qs[:, 0] - traj_base.qs[:, 0])) <= 1e-8
    assert np.max(np.abs(traj_ext.ps[:, 0] - traj_base.ps[:, 0])) <= 1e-8
    assert np.max(np.abs(traj_ext.qs[:, 1] - traj_ext.times)) <= 1e-10


def test_poincare_rejects_nonpositive_monitor():
    osc = problems.harmonic_oscillator()
    with pytest.raises(ValueError):
        poincare_transform(osc, lambda t, q, p: -1.0, PhasePoint([1.0], [0.0]), 0.0)


def test_poincare_monitor_sets_physical_time_rate():
    osc = problems.harmonic_oscillator()
    ext, s0 = poincare_transform(osc, lambda t, q, p: 2.0, PhasePoint([1.0], [0.0]), 0.0)
    traj = solve_ivp(ext, s0, 1.0, "midpoint", 100, tol=1e-12)
    slope = np.polyfit(traj.times, traj.qs[:, 1], 1)[0]
    assert abs(slope - 2.0) < 1e-6


def test_adaptive_problem_matches_poincare_of_base():
    cfg = quadratic_config([1.0, 2.0], p=2.0, p_ring=1.0)
    ad = adaptive_bregman_problem(cfg)
    base = bregman_hamiltonian(cfg)
    ext, _ = poincare_transform(base, rescaling_monitor(cfg),
                                PhasePoint(cfg.x0, cfg.r0), cfg.t0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        Q = np.concatenate([rng.standard_normal(2), [rng.uniform(0.5, 3.0)]])
        P = rng.standard_normal(3)
        assert abs(ad.value(0.0, Q, P) - ext.value(0.0, Q, P)) < 1e-12


def test_equal_exponents_make_fictive_time_physical():
    # p = pring: monitor becomes the constant 1, dq_t/dtau = 1 exactly
    cfg = quadratic_config([0.5], p=2.0, p_ring=2.0)
    ad = adaptive_bregman_problem(cfg)
    s0 = initial_extended_state(cfg)
    dP = ad.d_p(0.0, s0.q, s0.p)
    assert abs(dP[-1] - 1.0) < 1e-14


def test_initial_extended_state_zeroes_transformed_hamiltonian():
    cfg = quadratic_config([0.7, -0.1], p=2.0, p_ring=2.0)
    ad = adaptive_bregman_problem(cfg)
    s0 = initial_extended_state(cfg)
    Q, P = s0.q, s0.p
    assert abs(ad.value(0.0, Q, P)) <= 1e-14


# ---------------------------------------------------------------------------
# optimization runs

def test_minimize_quadratic_rate():
    cfg = quadratic_config([3.0, 1.5], a=[1.0, -2.0], p=2.0, p_ring=2.0)
    iterates, report = minimize(cfg, "midpoint", fictive_steps=4000, h_tau=0.05,
                                tol=1e-12)
    assert report.slope <= -1.8
    assert report.times[-1] > 100.0
    assert np.max(np.abs(iterates[-1] - [1.0, -2.0])) < 1e-2


def test_minimize_fits_a_run_whose_gaps_dip_below_zero_by_rounding():
    # an f_min off by 1e-12 takes the oscillating gap just below 0, far less
    # than sqrt(eps) times its largest value, so the run is still fitted
    a = np.array([1.0, -2.0])
    cfg = BregmanConfig(objective=lambda x: 0.5 * float(np.dot(x - a, x - a)) - 1e-12,
                        gradient=lambda x: np.asarray(x, dtype=float) - a,
                        x0=np.array([3.0, 1.5]), p=2.0, p_ring=2.0)
    _, report = minimize(cfg, "midpoint", fictive_steps=4000, h_tau=0.05, tol=1e-12)
    assert -1e-12 < np.min(report.gaps) < 0.0
    assert report.slope <= -1.8


def test_minimize_stationary_start():
    cfg = quadratic_config([1.0, -2.0], a=[1.0, -2.0], p=2.0, p_ring=2.0)
    _, report = minimize(cfg, "midpoint", fictive_steps=500, h_tau=0.01)
    assert np.max(report.gaps) <= 1e-12
    assert report.slope == 0.0


def test_minimize_conservation_and_euler_contrast():
    cfg = quadratic_config([1.3, -1.8], a=[1.0, -2.0], p=2.0, p_ring=2.0)
    _, sym = minimize(cfg, "midpoint", fictive_steps=2000, h_tau=1e-4, tol=1e-13)
    _, eul = minimize(cfg, "euler", fictive_steps=2000, h_tau=1e-4)
    assert sym.hbar_abs_max <= 1e-8
    assert eul.hbar_abs_max >= 10.0 * sym.hbar_abs_max


def test_minimize_blow_up_detection():
    # concave objective: the flow runs away and trips the guard
    cfg = BregmanConfig(objective=lambda x: -0.5 * float(np.dot(x, x)),
                        gradient=lambda x: -np.asarray(x, dtype=float),
                        x0=np.array([1.0]), p=2.0, p_ring=2.0)
    with pytest.raises(BlowUp) as info:
        minimize(cfg, "midpoint", fictive_steps=20000, h_tau=0.05)
    times, gaps = info.value.history
    assert len(times) >= 1


def test_minimize_euler_blow_up_trips_the_state_guard():
    # explicit Euler steps on the same runaway flow raise no solver error, so
    # the 1e12 guard on the objective and the state stops them
    cfg = BregmanConfig(objective=lambda x: -0.5 * float(np.dot(x, x)),
                        gradient=lambda x: -np.asarray(x, dtype=float),
                        x0=np.array([1.0]), p=2.0, p_ring=2.0)
    with pytest.raises(BlowUp, match="diverged at fictive step 154$"):
        minimize(cfg, "euler", fictive_steps=20000, h_tau=0.05)


def test_minimize_reraises_a_step_error_far_from_blow_up():
    # the gradient turns non-finite at |x| < 0.5, where the state and the gap
    # are small: the step's own error is the cause, not divergence
    def gradient(x):
        return 2.0 * x if abs(x[0]) > 0.5 else np.full(1, np.nan)

    cfg = BregmanConfig(objective=lambda x: float(x @ x), gradient=gradient, x0=np.array([1.0]))
    with pytest.raises(EvaluationError, match="non-finite") as info:
        minimize(cfg, "midpoint", fictive_steps=400, h_tau=0.05)
    assert not isinstance(info.value, BlowUp)


def test_bregman_momentum_hessian_and_time_partial_match_differences():
    prob = bregman_hamiltonian(quadratic_config([1.0, -0.5], p=3.0, C=0.7))
    fd = HamiltonianProblem(prob.dim, prob.H, derivative_mode="fd")
    rng = np.random.default_rng(5)
    points = [(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2))
              for _ in range(5)]
    check_closure("D_ppH", prob.D_ppH, fd.d_pp, points, 1e-6)
    check_closure("D_tH", prob.D_tH, fd.d_t, points, 1e-6)


def test_fit_decay_slope_on_synthetic_power_law():
    t = np.geomspace(1.0, 1000.0, 300)
    gaps = 5.0 * t**-2.0 * (1.0 + np.cos(7.0 * t)) ** 2 / 4.0
    slope = fit_decay_slope(t, gaps)
    assert -2.4 <= slope <= -1.8


def test_initial_momentum_reads_v0():
    # r0 = t0^(p+1) v0 / p makes dx/dt at t0 equal v0
    cfg = BregmanConfig(objective=lambda x: float(x @ x), x0=[1.0, 2.0], v0=[0.5, -1.0],
                        p=3.0, t0=2.0)
    assert np.array_equal(cfg.r0, 2.0**4 * np.array([0.5, -1.0]) / 3.0)


# ---------------------------------------------------------------------------
# the one closed form of the rescaled Hamiltonian

def _bumpy_objective(x):
    return float(np.sum(np.log1p(x**2)) + 0.3 * x[0] ** 3 - 0.2 * x[0] * x[-1])


def _bumpy_gradient(x):
    g = 2.0 * x / (1.0 + x**2)
    g[0] += 0.9 * x[0] ** 2 - 0.2 * x[-1]
    g[-1] -= 0.2 * x[0]
    return g


@pytest.mark.parametrize("supplied", [True, False], ids=["gradient", "differenced"])
@pytest.mark.parametrize("p, p_ring", [(2.0, 1.0), (2.0, 2.0), (3.0, 1.0), (3.0, 2.0)])
def test_march_field_and_hbar_are_the_problem_closed_form_bit_for_bit(p, p_ring, supplied):
    cfg = BregmanConfig(objective=_bumpy_objective,
                        gradient=_bumpy_gradient if supplied else None,
                        x0=np.array([0.4, -0.3, 1.1]), p=p, p_ring=p_ring, C=0.7)
    prob = adaptive_bregman_problem(cfg)
    reference = phase_field(prob)
    _, field, hbar_at = accelopt._rescaled_flow(cfg)
    n = cfg.dim
    rng = np.random.default_rng(34)
    for _ in range(20):
        z = np.concatenate([rng.uniform(-2.0, 2.0, n), [rng.uniform(0.2, 5.0)],
                            rng.uniform(-2.0, 2.0, n + 1)])
        tau = rng.uniform(0.0, 10.0)
        assert field(tau, z).tobytes() == reference(tau, z).tobytes()
        hbar = hbar_at(z, float(cfg.objective(z[:n])))
        assert hbar == prob.value(0.0, z[:n + 1], z[n + 1:])


def test_march_field_checks_the_time_coordinate_first():
    def untouchable(x):
        raise AssertionError("a user closure ran before the time coordinate was checked")

    cfg = BregmanConfig(objective=untouchable, gradient=untouchable, x0=[1.0, 2.0])
    _, field, _ = accelopt._rescaled_flow(cfg)
    with pytest.raises(EvaluationError, match="extended time coordinate"):
        field(0.0, np.array([1.0, 2.0, 0.0, 0.5, 0.5, -1.0]))


def test_minimize_calls_the_objective_once_per_step_beyond_the_field():
    # a field call makes one gradient and one objective call; beyond those the
    # run evaluates the objective once per step and twice at the start
    counts = {"objective": 0, "gradient": 0}
    base = quadratic_config([1.5, -0.5], a=[0.2, 0.1])

    def objective(x):
        counts["objective"] += 1
        return base.objective(x)

    def gradient(x):
        counts["gradient"] += 1
        return base.gradient(x)

    cfg = BregmanConfig(objective=objective, gradient=gradient, x0=base.x0)
    steps = 200
    minimize(cfg, "midpoint", fictive_steps=steps, h_tau=0.05, tol=1e-12)
    assert counts["gradient"] > 0
    assert counts["objective"] - counts["gradient"] <= steps + 2
