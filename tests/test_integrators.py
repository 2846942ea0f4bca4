import math

import numpy as np
import pytest

from hamflow import problems
from hamflow.core import (
    DegenerateRegression,
    HamiltonianProblem,
    LegendreInversionFailure,
    MaximallyDegenerateProblem,
    NoConvergence,
    PhasePoint,
    StepFailure,
    UnsupportedScheme,
    euler_step,
    fd_jacobian,
    phase_field,
)
from hamflow.integrators import (
    DiscreteHamiltonian,
    GalerkinScheme,
    estimate_order,
    exact_discrete_hamiltonian,
    fiber_derivatives,
    galerkin_discrete_hamiltonian,
    integrate_map,
    lagrangian_equivalence_gap,
    momentum_map_drift,
    step,
    symplecticity_defect,
)

MIDPOINT = GalerkinScheme.midpoint()


def cayley_map(h):
    """One-step oracle for the oscillator: (I + h M/2)(I - h M/2)^{-1}."""
    M = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.linalg.solve(np.eye(2) - 0.5 * h * M, np.eye(2) + 0.5 * h * M)


def rotation(t):
    return np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])


# ---------------------------------------------------------------------------
# scheme construction

def test_scheme_validation():
    with pytest.raises(ValueError):
        GalerkinScheme(1, [0.5], [0.9])          # weights must sum to one
    with pytest.raises(ValueError):
        GalerkinScheme(1, [1.5], [1.0])          # node outside [0, 1]
    with pytest.raises(ValueError):
        GalerkinScheme(0, [0.5], [1.0])
    with pytest.raises(ValueError):
        GalerkinScheme(2, [0.5], [1.0])          # fewer nodes than the degree
    with pytest.raises(ValueError):
        GalerkinScheme(2, [0.5, 0.5], [0.5, 0.5])  # two nodes, one distinct
    g2 = GalerkinScheme.gauss(2)
    assert abs(g2.weights.sum() - 1.0) < 1e-14
    assert np.allclose(sorted(g2.nodes), [0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6])


# ---------------------------------------------------------------------------
# midpoint generator

def test_midpoint_step_matches_cayley_oracle():
    osc = problems.harmonic_oscillator()
    h = 0.1
    dH = galerkin_discrete_hamiltonian(osc, MIDPOINT, h, tol=1e-13)
    z1 = step(dH, 0.0, np.array([1.0, 0.0]), tol=1e-13)
    oracle = cayley_map(h) @ np.array([1.0, 0.0])
    assert np.max(np.abs(z1 - oracle)) < 1e-12
    assert abs(z1[1] - (-0.099751)) < 1e-6


def test_midpoint_value_formula_on_linear_drift():
    # H = p q: stages solve v = q0 / (1 - h/2), p_mid = p1 / (1 - h/2)
    drift = problems.linear_drift()
    h = 0.1
    q0, p1 = 0.7, -0.4
    v = q0 / (1.0 - 0.5 * h)
    p_mid = p1 / (1.0 - 0.5 * h)
    q_mid = q0 + 0.5 * h * v
    bracket = p1 * (q0 + h * v) - h * (p_mid * v - p_mid * q_mid)
    dH = galerkin_discrete_hamiltonian(drift, MIDPOINT, h, tol=1e-13)
    assert abs(dH.value(0.0, np.array([q0]), np.array([p1])) - bracket) < 1e-12


def test_zero_hamiltonian_is_identity_map():
    zero = problems.zero_hamiltonian()
    dH = galerkin_discrete_hamiltonian(zero, MIDPOINT, 0.3)
    z1 = step(dH, 0.0, np.array([1.3, -0.8]))
    assert np.allclose(z1, [1.3, -0.8], atol=1e-12)


def test_free_drift_in_q():
    # H = p: qdot = 1, pdot = 0, exact for any h
    lin = MaximallyDegenerateProblem(f=lambda t, q: np.ones(1), g=None, dim=1)
    dH = galerkin_discrete_hamiltonian(lin, MIDPOINT, 0.4, tol=1e-13)
    z1 = step(dH, 0.0, np.array([0.0, 1.0]), tol=1e-13)
    assert np.allclose(z1, [0.4, 1.0], atol=1e-12)


def test_pure_force():
    # H = q: qdot = 0, pdot = -1 exactly
    dH = galerkin_discrete_hamiltonian(problems.pure_force(), MIDPOINT, 0.1, tol=1e-13)
    z1 = step(dH, 0.0, np.array([0.0, 1.0]), tol=1e-13)
    assert np.allclose(z1, [0.0, 0.9], atol=1e-12)


def test_galerkin_single_node_reproduces_midpoint():
    osc = problems.harmonic_oscillator()
    h = 0.1
    mid = galerkin_discrete_hamiltonian(osc, MIDPOINT, h, tol=1e-13)
    gal = galerkin_discrete_hamiltonian(osc, GalerkinScheme(1, [0.5], [1.0]), h,
                                        tol=1e-13)
    rng = np.random.default_rng(5)
    for _ in range(5):
        q0, p1 = rng.standard_normal(1), rng.standard_normal(1)
        assert abs(mid.value(0.0, q0, p1) - gal.value(0.0, q0, p1)) < 1e-12


def test_partials_match_finite_differences_of_value():
    h = 0.1
    cases = [
        (problems.harmonic_oscillator(), GalerkinScheme.midpoint()),
        (problems.harmonic_oscillator(), GalerkinScheme.gauss(2)),
        (problems.linear_drift(), GalerkinScheme.midpoint()),
    ]
    rng = np.random.default_rng(6)
    for prob, scheme in cases:
        dH = galerkin_discrete_hamiltonian(prob, scheme, h, tol=1e-13)
        for _ in range(3):
            q0 = rng.standard_normal(prob.dim)
            p1 = rng.standard_normal(prob.dim)
            fd_step = 1e-6
            for i in range(prob.dim):
                e = np.zeros(prob.dim)
                e[i] = fd_step
                d1_fd = (dH.value(0.0, q0 + e, p1) - dH.value(0.0, q0 - e, p1)) / (2 * fd_step)
                d2_fd = (dH.value(0.0, q0, p1 + e) - dH.value(0.0, q0, p1 - e)) / (2 * fd_step)
                assert abs(dH.D1(0.0, q0, p1)[i] - d1_fd) < 1e-6 * (1 + abs(d1_fd))
                assert abs(dH.D2(0.0, q0, p1)[i] - d2_fd) < 1e-6 * (1 + abs(d2_fd))


SCHEMES = [GalerkinScheme.midpoint(), GalerkinScheme.gauss(2)]


def test_generating_function_round_trip():
    # step from (q0, D1(q0, p1)) must return exactly (D2(q0, p1), p1)
    rng = np.random.default_rng(7)
    for scheme in SCHEMES:
        for prob in [problems.harmonic_oscillator(), problems.pendulum()]:
            dH = galerkin_discrete_hamiltonian(prob, scheme, 0.15, tol=1e-13)
            for _ in range(5):
                q0 = rng.standard_normal(1)
                p1 = rng.standard_normal(1)
                p0 = dH.D1(0.0, q0, p1)
                z1 = step(dH, 0.0, np.concatenate([q0, p0]), tol=1e-13)
                assert np.max(np.abs(z1[:1] - dH.D2(0.0, q0, p1))) < 1e-10
                assert np.max(np.abs(z1[1:] - p1)) < 1e-10


def test_generic_step_path_agrees_with_fused_solver():
    from dataclasses import replace

    z0 = np.array([0.8, -0.3])
    for scheme in SCHEMES:
        for prob in [problems.harmonic_oscillator(), problems.pendulum()]:
            dH = galerkin_discrete_hamiltonian(prob, scheme, 0.1, tol=1e-13)
            generic = replace(dH, solve_step=None)
            a = step(dH, 0.0, z0, tol=1e-13)
            b = step(generic, 0.0, z0, tol=1e-13)
            assert np.max(np.abs(a - b)) < 1e-11


def _time_dependent_oscillator():
    """H = p^2/2 + (1 + sin(t)/2) q^2/2, differenced by dual numbers."""
    return HamiltonianProblem(
        dim=1, H=lambda t, q, p: 0.5 * p[0] * p[0] + 0.5 * (1.0 + 0.5 * np.sin(t)) * q[0] * q[0],
        name="time-dependent-oscillator")


def _spring_chain(dof=8, seed=3):
    springs = np.random.default_rng(seed).uniform(0.5, 1.5, dof + 1)
    K = np.diag(springs[:-1] + springs[1:]) - np.diag(springs[1:-1], 1) - np.diag(springs[1:-1], -1)
    return HamiltonianProblem(
        dim=dof, H=lambda t, q, p: 0.5 * (np.dot(p, p) + np.dot(q, K @ q)),
        D_qH=lambda t, q, p: K @ q, D_pH=lambda t, q, p: np.asarray(p, dtype=float),
        D_ppH=lambda t, q, p: np.eye(dof), derivative_mode="analytic", name="spring-chain")


def _recording_newton(monkeypatch):
    """Record (F, x0, jac, result) of every Newton solve the Galerkin steps make."""
    from hamflow import integrators

    calls = []
    solve = integrators.newton_solve

    def recording(F, x0, **kwargs):
        calls.append((F, np.array(x0), kwargs.get("jac")))
        result = solve(F, x0, **kwargs)
        calls[-1] += (result,)
        return result

    monkeypatch.setattr(integrators, "newton_solve", recording)
    return calls


def test_fused_galerkin_step_solves_for_stages_only(monkeypatch):
    # p1 is explicit in the stages, so the fused Gauss-2 step hands Newton the
    # s + m = 4 blocks of n = 2 stage unknowns and no block for p1
    calls = _recording_newton(monkeypatch)
    prob = problems.central_force_2d()
    dH = galerkin_discrete_hamiltonian(prob, GalerkinScheme.gauss(2), 0.05, tol=1e-12)
    step(dH, 0.0, np.array([0.6, -0.2, 0.1, 0.4]))
    assert [x0.size for _, x0, _, _ in calls] == [(2 + 2) * prob.dim]


# fd-mode partials are central differences of H and carry its rounding, about
# eps^(2/3) relative; any forward difference of them (the assembled Jacobian's
# and the reference's alike) amplifies that to about 1e-5 of the largest entry
STAGE_JACOBIAN_CASES = {
    "central_force_analytic": (problems.central_force_2d, 1e-6),
    "pendulum_dual": (problems.pendulum, 1e-6),
    "time_dependent_dual": (_time_dependent_oscillator, 1e-6),
    "central_force_fd": (lambda: HamiltonianProblem(dim=2, H=problems.central_force_2d().H,
                                                    derivative_mode="fd"), 1e-4),
}


@pytest.mark.parametrize("fused", [False, True], ids=["D2", "fused"])
@pytest.mark.parametrize("case", list(STAGE_JACOBIAN_CASES))
def test_stage_jacobian_matches_differenced_residual(monkeypatch, case, fused):
    make, rtol = STAGE_JACOBIAN_CASES[case]
    prob = make()
    calls = _recording_newton(monkeypatch)
    dH = galerkin_discrete_hamiltonian(prob, GalerkinScheme.gauss(2), 0.05)
    q0, p = np.linspace(0.6, -0.2, prob.dim), np.linspace(0.1, 0.4, prob.dim)
    if fused:
        step(dH, 0.3, np.concatenate([q0, p]))
    else:
        dH.D2(0.3, q0, p)
    F, x0, jac, _ = calls[0]
    ref = fd_jacobian(F, x0)
    assert np.max(np.abs(jac(x0) - ref)) <= rtol * np.max(np.abs(ref))


def test_linear_chain_stage_solve_takes_one_newton_iteration(monkeypatch):
    # the stage residual of a quadratic H is affine, so Newton with its
    # assembled Jacobian lands on the stages in one iteration
    prob = _spring_chain()
    calls = _recording_newton(monkeypatch)
    dH = galerkin_discrete_hamiltonian(prob, GalerkinScheme.gauss(2), 0.05, tol=1e-12)
    rng = np.random.default_rng(4)
    step(dH, 0.0, rng.uniform(-1.0, 1.0, 2 * prob.dim))
    assert [call[3].iterations for call in calls] == [1]


def test_dual_gauss2_step_takes_one_jet_pass_per_node(monkeypatch):
    # in dual mode each residual reads (D_qH, D_pH) from one first-order pass
    # per node and each Jacobian its Hessians from one second-order pass per
    # node; no difference Jacobian is taken
    from hamflow import core, dual

    counts = dict.fromkeys(("gradient", "hessian", "fd_jacobian"), 0)
    for module, name in ((dual, "gradient"), (dual, "hessian"), (core, "fd_jacobian")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    calls = _recording_newton(monkeypatch)
    prob = HamiltonianProblem(dim=2, H=lambda t, q, p: 0.5 * p[0] ** 2 + np.cos(q[0])
                              + 0.1 * q[0] * p[1] ** 2 + q[1] ** 4 / 4.0)
    scheme = GalerkinScheme.gauss(2)
    dH = galerkin_discrete_hamiltonian(prob, scheme, 0.05, tol=1e-12)
    step(dH, 0.0, np.array([0.6, -0.2, 0.1, 0.4]))
    (result,) = [call[3] for call in calls]
    m, iters = scheme.nodes.size, result.iterations
    assert iters >= 2 and counts["fd_jacobian"] == 0
    assert counts["hessian"] <= m * iters
    # residuals at the guess and after each iteration, plus the guess's D_pH
    assert counts["gradient"] <= m * (iters + 1) + 1


# ---------------------------------------------------------------------------
# the march's held Newton matrix and stage predictor

MARCH_CASES = {
    "pendulum_dual": (problems.pendulum, [2.5], [0.3]),
    "central_force_analytic": (problems.central_force_2d, [0.6, -0.2], [0.1, 0.4]),
    "time_dependent_dual": (_time_dependent_oscillator, [0.7], [0.2]),
}


@pytest.mark.parametrize("scheme", [GalerkinScheme.gauss(2), MIDPOINT,
                                    GalerkinScheme(1, [0.0, 1.0], [0.5, 0.5])],
                         ids=["gauss2", "midpoint", "trapezoid"])
@pytest.mark.parametrize("case", list(MARCH_CASES))
def test_march_agrees_with_standalone_steps(case, scheme):
    # the march shares one Newton matrix and starts each step from the last
    # one's stages; its first step is the standalone step bit for bit, and
    # the rest meet the same stage tolerance from another start.  The
    # trapezoid's nodes repeat the step ends the momentum predictor reads
    make, q0, p0 = MARCH_CASES[case]
    dH = galerkin_discrete_hamiltonian(make(), scheme, 0.05, tol=1e-12)
    t0, N = 0.3, 40
    traj = integrate_map(dH, PhasePoint(q0, p0), t0, N)
    z = np.concatenate([q0, p0])
    loop = [z]
    for k in range(N):
        z = step(dH, t0 + k * dH.h, z)
        loop.append(z)
    loop = np.array(loop)
    assert np.array_equal(traj.states[1], loop[1])
    assert np.max(np.abs(traj.states - loop) / (1.0 + np.abs(loop))) <= 1e-12


def test_quadratic_chain_march_forms_one_newton_matrix():
    # the stage system of a quadratic H is affine in the stages, so the matrix
    # the first step forms is exact for every later step: one iteration each
    dH = galerkin_discrete_hamiltonian(_spring_chain(), GalerkinScheme.gauss(2), 0.05, tol=1e-12)
    rng = np.random.default_rng(4)
    traj = integrate_map(dH, PhasePoint(rng.uniform(-1.0, 1.0, 8), rng.uniform(-1.0, 1.0, 8)),
                         0.0, 60)
    assert traj.metadata["newton_matrices"] == 1
    assert traj.metadata["newton_iterations"] == 60


def test_central_force_march_reuses_its_newton_matrix():
    # a standalone step forms one matrix per iteration, about 200 over this march
    dH = galerkin_discrete_hamiltonian(problems.central_force_2d(), GalerkinScheme.gauss(2),
                                       0.05, tol=1e-12)
    traj = integrate_map(dH, PhasePoint([0.6, -0.2], [0.1, 0.4]), 0.0, 100)
    assert 1 <= traj.metadata["newton_matrices"] <= 5
    assert traj.metadata["newton_iterations"] >= 100


def test_nonseparable_march_extrapolates_its_node_momenta():
    # for a separable H with quadratic kinetic energy the start of the node
    # momenta does not matter; the (q.p)^2 coupling makes it count.  This
    # march takes 360 iterations, and 473 with the node momenta started at p0
    prob = HamiltonianProblem(
        dim=2, H=lambda t, q, p: 0.5 * (p @ p + q @ q) + 0.1 * (q @ p) ** 2)
    dH = galerkin_discrete_hamiltonian(prob, GalerkinScheme.gauss(2), 0.05, tol=1e-12)
    traj = integrate_map(dH, PhasePoint([0.6, -0.2], [0.1, 0.4]), 0.0, 100)
    assert traj.metadata["newton_iterations"] <= 400


# ---------------------------------------------------------------------------
# fiber derivatives

def test_fiber_derivatives_zero_hamiltonian():
    dH = galerkin_discrete_hamiltonian(problems.zero_hamiltonian(), MIDPOINT, 0.2)
    plus, minus = fiber_derivatives(dH, [1.1], [2.2])
    assert np.allclose(plus.as_array(), [1.1, 2.2], atol=1e-12)
    assert np.allclose(minus.as_array(), [1.1, 2.2], atol=1e-12)


def test_fiber_minus_momentum_against_inverse_cayley():
    osc = problems.harmonic_oscillator()
    h = 0.1
    dH = galerkin_discrete_hamiltonian(osc, MIDPOINT, h, tol=1e-13)
    _, minus = fiber_derivatives(dH, [1.0], [0.0])
    # oracle: p0 with map(q0, p0) having p-component 0
    K = cayley_map(h)
    p0_oracle = -K[1, 0] / K[1, 1]
    assert abs(minus.p[0] - p0_oracle) < 1e-12
    assert abs(minus.p[0] - 0.100251) < 1e-6


def test_fiber_composition_equals_step_on_linear_problem():
    osc = problems.harmonic_oscillator()
    h = 0.1
    dH = galerkin_discrete_hamiltonian(osc, MIDPOINT, h, tol=1e-13)
    rng = np.random.default_rng(8)
    for _ in range(20):
        q0 = rng.standard_normal(1)
        p1 = rng.standard_normal(1)
        plus, minus = fiber_derivatives(dH, q0, p1)
        # feed the minus image through the map: recovers the plus image
        z1 = step(dH, 0.0, minus.as_array(), tol=1e-13)
        assert np.max(np.abs(z1 - plus.as_array())) < 1e-11


# ---------------------------------------------------------------------------
# exact generator

def test_exact_generator_zero_hamiltonian():
    zero = problems.zero_hamiltonian()
    val = exact_discrete_hamiltonian(zero, [2.0], [3.0], 0.5)
    assert abs(val - 6.0) < 1e-12


def test_exact_generator_free_particle():
    fp = problems.free_particle()
    q0, p1, h = 0.7, 1.3, 0.25
    val = exact_discrete_hamiltonian(fp, [q0], [p1], h, tol=1e-12)
    assert abs(val - (p1 * q0 + h * p1**2 / 2.0)) < 1e-11


def test_exact_generator_oscillator_closed_form():
    osc = problems.harmonic_oscillator()
    h = 0.1
    q0, p1 = 1.0, 0.0
    val = exact_discrete_hamiltonian(osc, [q0], [p1], h, tol=1e-12)
    closed = p1 * q0 / math.cos(h) + 0.5 * math.tan(h) * (q0**2 + p1**2)
    assert abs(val - closed) < 1e-9


# ---------------------------------------------------------------------------
# order measurement

def _oscillator_reference(z0, T):
    return rotation(T) @ z0.as_array()


def test_midpoint_observed_order():
    osc = problems.harmonic_oscillator()
    z0 = PhasePoint([1.0], [0.3])
    order = estimate_order(lambda h: galerkin_discrete_hamiltonian(osc, MIDPOINT, h, tol=1e-13),
                           osc, z0, 1.0, [16, 32, 64, 128],
                           reference=_oscillator_reference(z0, 1.0))
    assert 1.8 <= order <= 2.2


def test_gauss2_observed_order():
    osc = problems.harmonic_oscillator()
    z0 = PhasePoint([1.0], [0.3])
    scheme = GalerkinScheme.gauss(2)
    order = estimate_order(
        lambda h: galerkin_discrete_hamiltonian(osc, scheme, h, tol=1e-13),
        osc, z0, 1.0, [8, 12, 16, 24, 32],
        reference=_oscillator_reference(z0, 1.0))
    assert order >= 3.8


def test_gauss2_order_on_time_dependent_hamiltonian():
    # the stages sit at t + c_j h, so a wrong node time would cost the order
    prob = _time_dependent_oscillator()
    scheme = GalerkinScheme.gauss(2)
    order = estimate_order(
        lambda h: galerkin_discrete_hamiltonian(prob, scheme, h, tol=1e-13),
        prob, PhasePoint([1.0], [0.3]), 1.0, [8, 12, 16, 24, 32], t0=0.2)
    assert order >= 3.8


def test_exact_map_errors_flagged_as_noise():
    # the reference flow itself as the "scheme": errors sit at the floor
    from hamflow.integrators import DiscreteHamiltonian, reference_flow

    osc = problems.harmonic_oscillator()

    def exact_family(h):
        def solve_step(t, q0, p0):
            z = reference_flow(osc, np.concatenate([q0, p0]), t, h)
            return z[:1], z[1:]

        return DiscreteHamiltonian(h=h, value=None, solve_step=solve_step,
                                   label="exact-flow")

    z0 = PhasePoint([1.0], [0.3])
    with pytest.raises(DegenerateRegression):
        estimate_order(exact_family, osc, z0, 0.5, [4, 8, 16],
                       reference=_oscillator_reference(z0, 0.5))


def test_order_theorem_desk_check():
    # generator-gap slope r+1 implies map order >= r - 0.2 (here r = 2)
    osc = problems.harmonic_oscillator()
    rng = np.random.default_rng(9)
    q0, p1 = rng.standard_normal(1), rng.standard_normal(1)
    hs, gaps = [], []
    for N in [8, 16, 32, 64]:
        h = 1.0 / N
        dH = galerkin_discrete_hamiltonian(osc, MIDPOINT, h, tol=1e-13)
        gaps.append(abs(dH.value(0.0, q0, p1)
                        - exact_discrete_hamiltonian(osc, q0, p1, h, tol=1e-12)))
        hs.append(h)
    slope = np.polyfit(np.log(hs), np.log(gaps), 1)[0]
    z0 = PhasePoint([1.0], [0.3])
    order = estimate_order(lambda h: galerkin_discrete_hamiltonian(osc, MIDPOINT, h, tol=1e-13),
                           osc, z0, 1.0, [16, 32, 64, 128],
                           reference=_oscillator_reference(z0, 1.0))
    assert slope >= order - 0.2
    assert 2.7 <= slope <= 3.3


# ---------------------------------------------------------------------------
# symplecticity and momentum maps

def test_symplecticity_midpoint_and_gauss():
    rng = np.random.default_rng(10)
    h = 0.1
    for prob, scheme in [(problems.harmonic_oscillator(), GalerkinScheme.midpoint()),
                         (problems.pendulum(), GalerkinScheme.midpoint()),
                         (problems.harmonic_oscillator(), GalerkinScheme.gauss(2))]:
        dH = galerkin_discrete_hamiltonian(prob, scheme, h, tol=1e-13)
        for _ in range(5):
            z = PhasePoint(rng.uniform(-1, 1, prob.dim), rng.uniform(-1, 1, prob.dim))
            assert symplecticity_defect(lambda t, zz, hh: step(dH, t, zz), 0.0, z, h) <= 1e-7


def test_symplecticity_euler_defect_order_h_squared():
    osc = problems.harmonic_oscillator()
    field = phase_field(osc)
    emap = lambda t, z, h: euler_step(field, t, z, h)
    defect = symplecticity_defect(emap, 0.0, PhasePoint([1.0], [0.0]), 0.1)
    assert defect > 1e-4
    assert abs(defect - 0.01) < 1e-3  # J^T O J - O = h^2 M for this linear system


def test_symplecticity_identity_map():
    # zero up to the rounding of the central-difference Jacobian
    ident = lambda t, z, h: z
    assert symplecticity_defect(ident, 0.0, PhasePoint([0.3], [0.4]), 0.1) < 1e-9


def test_momentum_map_drift_midpoint_vs_euler():
    prob = problems.central_force_2d()
    z0 = PhasePoint([1.0, 0.0], [0.1, 1.1])
    dH = galerkin_discrete_hamiltonian(prob, MIDPOINT, 0.01, tol=1e-13)
    traj = integrate_map(dH, z0, 0.0, 1000, tol=1e-13)
    assert momentum_map_drift(traj, problems.angular_momentum_2d) <= 1e-10

    from hamflow.bvp import solve_ivp

    traj_e = solve_ivp(prob, z0, 10.0, "euler", 1000)
    assert momentum_map_drift(traj_e, problems.angular_momentum_2d) > 1e-6


def test_momentum_map_constant_trajectory():
    z = PhasePoint([1.0, 2.0], [3.0, 4.0])
    from hamflow.core import Trajectory

    traj = Trajectory(times=[0.0, 1.0, 2.0], states=[z, z, z])
    assert momentum_map_drift(traj, problems.angular_momentum_2d) == 0.0


def test_momentum_map_reads_rows_without_building_phase_points(monkeypatch):
    # J takes the (q, p) rows of the state array; no PhasePoint is built per row
    prob = problems.central_force_2d()
    traj = integrate_map(galerkin_discrete_hamiltonian(prob, MIDPOINT, 0.01),
                         PhasePoint([1.0, 0.0], [0.1, 1.1]), 0.0, 50)
    built = []
    original = PhasePoint.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PhasePoint, "__post_init__", counting)
    drift = momentum_map_drift(traj, problems.angular_momentum_2d)
    assert built == []
    J = [q[0] * p[1] - q[1] * p[0] for q, p in zip(traj.qs, traj.ps)]
    assert drift == max(abs(v - J[0]) for v in J)


# ---------------------------------------------------------------------------
# Lagrangian-route equivalence

def test_lagrangian_equivalence_on_oscillator():
    osc = problems.harmonic_oscillator()
    gap = lagrangian_equivalence_gap(osc, GalerkinScheme.midpoint(), 0.1,
                                     PhasePoint([1.0], [0.0]), 100)
    assert gap <= 1e-9


def test_lagrangian_equivalence_zero_steps():
    osc = problems.harmonic_oscillator()
    gap = lagrangian_equivalence_gap(osc, GalerkinScheme.midpoint(), 0.1,
                                     PhasePoint([1.0], [0.0]), 0)
    assert gap == 0.0


def test_lagrangian_route_fails_for_degenerate_problem():
    drift = problems.linear_drift()
    with pytest.raises(LegendreInversionFailure):
        lagrangian_equivalence_gap(drift, GalerkinScheme.midpoint(), 0.1,
                                   PhasePoint([1.0], [1.0]), 3)


def test_lagrangian_route_unsupported_for_higher_degree():
    osc = problems.harmonic_oscillator()
    with pytest.raises(UnsupportedScheme):
        lagrangian_equivalence_gap(osc, GalerkinScheme.gauss(2), 0.1,
                                   PhasePoint([1.0], [0.0]), 3)


def test_degenerate_problem_still_integrates():
    # the generator route needs no velocity-momentum inversion
    prob = problems.degenerate_with_potential()
    dH = galerkin_discrete_hamiltonian(prob, GalerkinScheme.midpoint(), 0.1,
                                       tol=1e-12)
    traj = integrate_map(dH, PhasePoint([1.0], [0.5]), 0.0, 20, tol=1e-12)
    assert np.all(np.isfinite(traj.state_array()))


def test_integrate_map_step_failure_carries_index():
    def solve_step(t, q0, p0):
        if t >= 0.25:
            raise NoConvergence("stalled")
        return q0 + 0.1 * p0, p0

    dH = DiscreteHamiltonian(h=0.1, value=lambda t, q0, p1: 0.0, solve_step=solve_step)
    with pytest.raises(StepFailure) as info:
        integrate_map(dH, PhasePoint([1.0], [0.5]), 0.0, 10)
    assert info.value.step == 3
    assert isinstance(info.value.__cause__, NoConvergence)


def test_integrate_map_marches_flat_arrays(monkeypatch):
    dH = galerkin_discrete_hamiltonian(problems.pendulum(), MIDPOINT, 0.05, tol=1e-12)
    z0 = PhasePoint([0.4], [0.1])
    built = []
    init = PhasePoint.__post_init__

    def counting(self):
        built.append(1)
        init(self)

    monkeypatch.setattr(PhasePoint, "__post_init__", counting)
    traj = integrate_map(dH, z0, 0.0, 50, tol=1e-12)
    assert traj.states.shape == (51, 2)
    assert not built
