import dataclasses
from functools import partial

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis.extra.numpy import arrays

from hamflow import banded, core, problems
from hamflow.core import (
    EvaluationError,
    HamiltonianProblem,
    NoConvergence,
    PhasePoint,
    SingularJacobian,
    StepFailure,
    Trajectory,
    degeneracy_class,
    fd_gradient,
    hamiltonian_vector_field,
    integrate,
    midpoint_step,
    newton_solve,
    partial_of,
    phase_field,
    stepper_with_tol,
    sweep,
)


# ---------------------------------------------------------------------------
# types

def test_phase_point_validation():
    z = PhasePoint([1.0, 2.0], [3.0, 4.0])
    assert z.dim == 2
    assert np.array_equal(z.as_array(), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        PhasePoint([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        PhasePoint([np.nan], [1.0])
    with pytest.raises(ValueError):
        z.q[0] = 7.0  # frozen


def test_trajectory_validation():
    states = [PhasePoint([0.0], [0.0]), PhasePoint([1.0], [1.0])]
    traj = Trajectory(times=[0.0, 1.0], states=states)
    assert traj.n_steps == 1
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 0.0], states=states)
    with pytest.raises(ValueError):
        Trajectory(times=[0.0], states=states)


def test_trajectory_from_array_equals_from_phase_points():
    rng = np.random.default_rng(5)
    zs = rng.uniform(-1.0, 1.0, (4, 4))
    from_points = Trajectory(times=np.arange(4.0),
                             states=[PhasePoint(z[:2], z[2:]) for z in zs])
    from_array = Trajectory(times=np.arange(4.0), states=zs)
    assert np.array_equal(from_array.states, from_points.states)
    assert np.array_equal(from_array.state_array(), zs)
    assert np.array_equal(from_array.qs, zs[:, :2])
    assert np.array_equal(from_array.ps, zs[:, 2:])
    assert np.array_equal(from_array.final.as_array(), from_points.final.as_array())
    assert np.array_equal(from_array.initial.p, zs[0, 2:])
    zs[0, 0] = 9.0  # the trajectory holds its own copy
    assert from_array.qs[0, 0] != 9.0


def test_trajectory_rejects_bad_states():
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 1.0], states=[[0.0, 1.0], [np.nan, 1.0]])
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 1.0], states=[[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 1.0], states=[0.0, 1.0])


def test_trajectory_views_are_read_only():
    traj = Trajectory(times=[0.0, 1.0], states=[[0.0, 1.0], [2.0, 3.0]])
    for view in (traj.qs, traj.ps, traj.state_array()):
        with pytest.raises(ValueError):
            view[0, 0] = 7.0


def test_fd_gradient_of_vector_function_is_its_jacobian():
    x = np.array([0.3, -1.2, 2.0])

    def F(z):
        return np.array([z[0] * z[1], np.sin(z[2]), z[0] ** 2 + z[2], np.exp(z[1])])

    jac = np.array([[x[1], x[0], 0.0],
                    [0.0, 0.0, np.cos(x[2])],
                    [2.0 * x[0], 0.0, 1.0],
                    [0.0, np.exp(x[1]), 0.0]])
    got = fd_gradient(F, x)
    assert got.shape == (4, 3)
    assert np.max(np.abs(got - jac)) < 1e-8
    # a scalar function still gives a 1-d gradient
    assert np.max(np.abs(fd_gradient(lambda z: float(np.dot(z, z)), x) - 2.0 * x)) < 1e-8


def test_fd_gradient_of_a_list_valued_function():
    # a sequence result is converted once per difference, not left to fail
    x = np.array([0.3, -1.2])
    jac = np.array([[x[1], x[0]], [0.0, 2.0 * x[1]]])
    got = fd_gradient(lambda z: [z[0] * z[1], z[1] ** 2], x)
    assert got.shape == (2, 2)
    assert np.max(np.abs(got - jac)) < 1e-8
    got = partial_of(None, lambda t, q: [q[0] * q[1], q[1] ** 2], (0.0, x), 1, "fd")
    assert np.max(np.abs(got - jac)) < 1e-8


def _time_dependent_closures():
    # H = p^2/2 + (1 + t) q^2/2, every partial supplied and nonzero somewhere
    return dict(
        D_qH=lambda t, q, p: (1.0 + t) * np.asarray(q, dtype=float),
        D_pH=lambda t, q, p: np.asarray(p, dtype=float),
        D_ppH=lambda t, q, p: np.eye(1),
        D_tH=lambda t, q, p: 0.5 * float(q[0] ** 2),
    )


def _time_dependent_problem(**closures):
    return HamiltonianProblem(
        dim=1, H=lambda t, q, p: 0.5 * (p[0] ** 2 + (1.0 + t) * q[0] ** 2),
        derivative_mode="analytic", **closures)


# each of the oscillator's closures, made wrong
_WRONG_OSCILLATOR_CLOSURES = {
    "D_qH": lambda t, q, p: 2.0 * np.asarray(q, dtype=float),
    "D_pH": lambda t, q, p: 2.0 * np.asarray(p, dtype=float),
    "D_ppH": lambda t, q, p: 2.0 * np.eye(1),
    "D_tH": lambda t, q, p: 1.0,
}


def test_analytic_derivative_check_mode():
    osc = problems.harmonic_oscillator()
    osc.validate()
    assert osc.value(0.0, np.array([1.0]), np.array([0.0])) == 0.5
    closures = _time_dependent_closures()
    _time_dependent_problem(**closures).validate()
    for name in closures:
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(osc, **{name: _WRONG_OSCILLATOR_CLOSURES[name]}).validate()
        # on a time-dependent H every partial is nonzero: each closure scaled
        # by 2 is rejected by name
        wrong = closures[name]
        bad = {**closures, name: lambda t, q, p, d=wrong: 2.0 * np.asarray(d(t, q, p))}
        with pytest.raises(ValueError, match=name):
            _time_dependent_problem(**bad).validate()


def test_degenerate_split_partials_are_validated_through_D_qH():
    # the split's D_qH = D_qf^T p + D_qg reads both partials, so a wrong one
    # is caught there
    prob = core.MaximallyDegenerateProblem(
        dim=2, f=lambda t, q: np.sin(q), g=lambda t, q: 0.5 * float(q @ q),
        D_qf=lambda t, q: np.diag(np.cos(q)), D_qg=lambda t, q: np.asarray(q, dtype=float))
    prob.validate()
    for name in ("D_qf", "D_qg"):
        wrong = getattr(prob, name)
        bad = dataclasses.replace(prob, **{name: lambda t, q, d=wrong: 2.0 * d(t, q)})
        with pytest.raises(ValueError, match="^D_qH disagrees with central differences$"):
            bad.validate()


@pytest.mark.parametrize("mode", ["analytic", "dual", "fd"])
@pytest.mark.parametrize("name", sorted(problems.BUILTIN_PROBLEMS))
def test_builtin_problems_pass_their_check(name, mode):
    prob = problems.BUILTIN_PROBLEMS[name]()
    dataclasses.replace(prob, derivative_mode=mode).validate()


# every built-in problem: forward-AD derivatives agree with central differences
@pytest.mark.parametrize("name", ["oscillator", "pendulum", "pure_force",
                                  "central_force_2d", "model_degenerate"])
def test_builtin_ad_matches_finite_differences(name):
    prob = problems.BUILTIN_PROBLEMS[name]()
    rng = np.random.default_rng(11)
    for _ in range(100):
        t = rng.uniform(0.0, 1.0)
        q = rng.uniform(-1.0, 1.0, prob.dim)
        p = rng.uniform(-1.0, 1.0, prob.dim)
        from hamflow import dual

        dq_ad = dual.gradient(lambda qq: prob.H(t, qq, p), q)
        dp_ad = dual.gradient(lambda pp: prob.H(t, q, pp), p)
        dq_fd = fd_gradient(lambda qq: prob.H(t, qq, p), q)
        dp_fd = fd_gradient(lambda pp: prob.H(t, q, pp), p)
        scale = 1.0 + abs(prob.value(t, q, p))
        assert np.max(np.abs(dq_ad - dq_fd)) < 1e-6 * (scale + np.max(np.abs(dq_fd)))
        assert np.max(np.abs(dp_ad - dp_fd)) < 1e-6 * (scale + np.max(np.abs(dp_fd)))
        hess = prob.d_pp(t, q, p)
        assert np.max(np.abs(hess - hess.T)) <= 1e-10 * (1.0 + np.max(np.abs(hess)))


@pytest.mark.parametrize("name", ["pendulum", "central_force_2d", "model_degenerate"])
def test_phase_space_hessian_matches_dual_hessian(name):
    from hamflow import dual

    prob = problems.BUILTIN_PROBLEMS[name]()
    n = prob.dim
    rng = np.random.default_rng(12)
    for _ in range(5):
        t = rng.uniform(0.0, 1.0)
        q = rng.uniform(-1.0, 1.0, n)
        p = rng.uniform(-1.0, 1.0, n)
        got = prob.hessian(t, q, p)
        ref = dual.hessian(lambda z: prob.H(t, z[:n], z[n:]), np.concatenate([q, p]))
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - ref)) < 1e-6 * (1.0 + np.max(np.abs(ref)))
        # the momentum block is d_pp itself, supplied or not
        assert np.array_equal(got[n:, n:], prob.d_pp(t, q, p))


def test_dual_phase_space_hessian_is_exact_on_a_non_separable_h():
    # one second-order jet pass over z = (q, p): the q columns are not
    # differenced, so every block meets the closed form to rounding
    prob = HamiltonianProblem(dim=2, H=lambda t, q, p: 0.5 * p[0] ** 2 + np.cos(q[0])
                              + 0.1 * q[0] * p[1] ** 2 + q[1] ** 4 / 4.0)
    rng = np.random.default_rng(13)
    for _ in range(5):
        q, p = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)
        exact = np.zeros((4, 4))
        exact[0, 0] = -np.cos(q[0])
        exact[1, 1] = 3.0 * q[1] ** 2
        exact[0, 3] = exact[3, 0] = 0.2 * p[1]
        exact[2, 2] = 1.0
        exact[3, 3] = 0.2 * q[0]
        assert np.max(np.abs(prob.hessian(0.0, q, p) - exact)) <= 1e-13
        dq, dp = prob.gradient(0.0, q, p)
        assert np.max(np.abs(dq - [-np.sin(q[0]) + 0.1 * p[1] ** 2, q[1] ** 3])) <= 1e-13
        assert np.max(np.abs(dp - [p[0], 0.2 * q[0] * p[1]])) <= 1e-13


def test_supplied_closures_win_block_by_block_in_dual_mode():
    H = lambda t, q, p: 0.5 * p[0] ** 2 + np.cos(q[0]) + 0.1 * q[0] * p[1] ** 2
    q, p = np.array([0.3, -0.2]), np.array([0.5, 0.7])
    jet = HamiltonianProblem(dim=2, H=H)
    # a supplied D_ppH fills its block of the one-pass Hessian
    doubled = HamiltonianProblem(dim=2, H=H, D_ppH=lambda t, q, p: 2.0 * jet.d_pp(t, q, p))
    got, ref = doubled.hessian(0.0, q, p), jet.hessian(0.0, q, p)
    assert np.array_equal(got[2:, 2:], 2.0 * ref[2:, 2:])
    assert np.array_equal(got[:, :2], ref[:, :2])
    # a supplied D_qH is what the gradient and the q columns read
    shifted = HamiltonianProblem(dim=2, H=H, D_qH=lambda t, q, p: jet.d_q(t, q, p) + q)
    dq, dp = shifted.gradient(0.0, q, p)
    assert np.array_equal(dq, jet.d_q(0.0, q, p) + q) and np.array_equal(dp, jet.d_p(0.0, q, p))
    hess = shifted.hessian(0.0, q, p)
    assert np.max(np.abs(hess[:2, :2] - ref[:2, :2] - np.eye(2))) < 1e-6


# ---------------------------------------------------------------------------
# vector field

def test_vector_field_oscillator():
    osc = problems.harmonic_oscillator()
    dq, dp = hamiltonian_vector_field(osc, 0.0, PhasePoint([1.0], [0.0]))
    assert np.allclose(dq, [0.0]) and np.allclose(dp, [-1.0])


def test_vector_field_linear_degenerate():
    drift = problems.linear_drift()
    dq, dp = hamiltonian_vector_field(drift, 0.0, PhasePoint([2.0], [3.0]))
    assert np.allclose(dq, [2.0]) and np.allclose(dp, [-3.0])


def test_vector_field_pendulum():
    pend = problems.pendulum()
    dq, dp = hamiltonian_vector_field(pend, 0.0, PhasePoint([0.0], [0.5]))
    assert np.allclose(dq, [0.5]) and np.allclose(dp, [0.0], atol=1e-14)


def test_vector_field_nonfinite_raises():
    bad = HamiltonianProblem(dim=1, H=lambda t, q, p: np.log(q[0]),
                             derivative_mode="fd")
    with np.errstate(all="ignore"), pytest.raises(EvaluationError):
        hamiltonian_vector_field(bad, 0.0, PhasePoint([0.0], [0.0]))


def test_degenerate_field_independent_of_momentum_scale():
    # maximally degenerate H is linear in p, so dq cannot see p
    drift = problems.degenerate_with_potential()
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = rng.standard_normal(1)
        p = rng.standard_normal(1)
        dq1, _ = hamiltonian_vector_field(drift, 0.0, PhasePoint(q, p))
        dq2, _ = hamiltonian_vector_field(drift, 0.0, PhasePoint(q, 2.0 * p))
        assert np.max(np.abs(dq1 - dq2)) < 1e-12


# ---------------------------------------------------------------------------
# degeneracy classification

def _samples(rng, n, count=10):
    return [(rng.uniform(0, 1), PhasePoint(rng.standard_normal(n),
                                           rng.standard_normal(n)))
            for _ in range(count)]


def test_degeneracy_classes():
    rng = np.random.default_rng(4)
    assert degeneracy_class(problems.harmonic_oscillator(),
                            _samples(rng, 1)) == "regular"
    assert degeneracy_class(problems.linear_drift(),
                            _samples(rng, 1)) == "maximally_degenerate"
    # regular oscillator block plus flat block: rank 1 of 2
    assert degeneracy_class(problems.model_degenerate(),
                            _samples(rng, 2)) == "degenerate"
    with pytest.raises(ValueError):
        degeneracy_class(problems.harmonic_oscillator(), [])


@pytest.mark.parametrize("given", ["g", "gp"])
def test_model_degenerate_takes_g_and_gp_together(given):
    with pytest.raises(ValueError, match="together"):
        problems.model_degenerate(**{given: lambda x: 1.0})


# ---------------------------------------------------------------------------
# Newton

def test_newton_scalar_quadratic():
    result = newton_solve(lambda x: x**2 - 4.0, np.array([3.0]), tol=1e-12)
    assert abs(result.x[0] - 2.0) < 1e-12


def test_newton_linear_single_iteration():
    result = newton_solve(lambda x: x, np.array([5.0]))
    assert abs(result.x[0]) < 1e-12
    assert result.iterations == 1
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    b = np.array([1.0, -2.0])
    result = newton_solve(lambda x: A @ x - b, np.array([4.0, 4.0]))
    assert result.iterations == 1


def test_newton_converges_on_its_last_allowed_iteration():
    result = newton_solve(lambda x: x - 1.0, np.array([0.0]), max_iter=1)
    assert result.iterations == 1 and result.x[0] == 1.0


def test_newton_circle_line_against_bisection_oracle():
    # reduce x1 = x2 to 2 x^2 = 1 and bisect for the oracle root
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 2.0 * mid * mid - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)

    F = lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0, x[0] - x[1]])
    result = newton_solve(F, np.array([1.0, 0.0]), tol=1e-12)
    assert np.max(np.abs(result.x - oracle)) < 1e-10


def test_newton_singular_jacobian():
    # rank-one system away from any root
    F = lambda x: np.array([x[0] + x[1] - 1.0, x[0] + x[1] + 1.0])
    with pytest.raises(SingularJacobian):
        newton_solve(F, np.array([0.0, 0.0]))


@pytest.mark.parametrize("A", [
    np.array([[1.0, 2.0], [2.0, 4.0]]),                  # exactly singular
    np.array([[0.6, -0.8e-17], [0.8, 0.6e-17]]),         # invertible, cond 1e17
], ids=["singular", "cond1e17"])
def test_newton_singular_jacobian_from_the_condition_estimate(A):
    b = np.array([1.0, -1.0])
    with pytest.raises(SingularJacobian):
        newton_solve(lambda x: A @ x - b, np.array([0.5, 0.5]), jac=lambda x: A)


def _counted_linear_system():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    formed = []

    def jac(x):
        formed.append(x.copy())
        return A

    return A, lambda b: (lambda x: A @ x - b), jac, formed


def test_newton_solves_sharing_a_holder_form_the_matrix_once():
    A, system, jac, formed = _counted_linear_system()
    held = core._HeldMatrix()
    for b in (np.array([1.0, -2.0]), np.array([0.5, 4.0])):
        result = newton_solve(system(b), np.zeros(2), tol=1e-12, jac=jac, matrix=held)
        assert np.max(np.abs(result.x - np.linalg.solve(A, b))) <= 1e-12
    assert len(formed) == 1
    # without a holder every iteration forms its own matrix
    calls = []
    result = newton_solve(lambda x: x**3 - 8.0, np.array([3.0]), tol=1e-12,
                          jac=lambda x: calls.append(1) or np.diag(3.0 * x**2))
    assert len(calls) == result.iterations > 1


def _carried_uphill():
    """A holder carrying -I as a matrix it formed itself for two unknowns, so
    that a solve through it reuses -I: uphill for an SPD system, so the line
    search stalls."""
    held = core._HeldMatrix()
    held.inverse, held.size, held.formed = -np.eye(2), 2, 1
    return held


@pytest.fixture
def newton_runs(monkeypatch):
    """The count of runs of ``core._newton``: two for a retried solve."""
    runs = []
    run = core._newton
    monkeypatch.setattr(core, "_newton", lambda *args: runs.append(1) or run(*args))
    return runs


def test_newton_retries_an_uphill_carried_matrix_from_the_start(newton_runs):
    # the solve is run again from x0 with a fresh matrix and lands on the
    # fresh root
    A, system, jac, formed = _counted_linear_system()
    b, x0 = np.array([1.0, -2.0]), np.array([0.3, 0.7])
    held = _carried_uphill()
    got = newton_solve(system(b), x0, tol=1e-12, jac=jac, matrix=held)
    assert len(newton_runs) == 2
    assert [x.tolist() for x in formed] == [x0.tolist()]
    assert not np.array_equal(held.inverse, -np.eye(2))
    assert np.array_equal(got.x, newton_solve(system(b), x0, tol=1e-12, jac=jac).x)


def test_march_matrix_runs_its_first_solve_as_a_solve_without_a_holder():
    # the first solve forms a matrix at every iteration, bit for bit as with
    # no holder, and keeps the last; a later solve nearby starts under it
    F = lambda x: x**3 - np.array([8.0, 1.0])
    formed = []
    jac = lambda x: formed.append(x.copy()) or np.diag(3.0 * x**2)
    held = core.march_matrix()
    x0 = np.array([3.0, 1.5])
    first = newton_solve(F, x0, tol=1e-12, jac=jac, matrix=held)
    alone = newton_solve(F, x0, tol=1e-12, jac=jac)
    assert np.array_equal(first.x, alone.x)
    assert first.matrices == first.iterations == alone.iterations > 1
    formed.clear()
    later = newton_solve(F, first.x + 1e-3, tol=1e-12, jac=jac, matrix=held)
    assert np.max(np.abs(later.x - [2.0, 1.0])) <= 1e-12
    assert later.matrices == len(formed) == 0 and later.iterations >= 1


def test_march_matrix_forms_again_for_another_number_of_unknowns():
    # a held 2 x 2 inverse cannot act on a 3-unknown residual; the holder
    # forms the matrix again instead of reusing it
    jac = lambda x: np.diag(3.0 * x**2)
    held = core.march_matrix()
    for n in (2, 3, 2):
        got = newton_solve(lambda x: x**3 - 8.0, np.full(n, 2.5), tol=1e-12, jac=jac,
                           matrix=held)
        assert np.max(np.abs(got.x - 2.0)) <= 1e-12
        assert got.matrices >= 1
    assert held.inverse.shape == (2, 2)


def test_newton_no_convergence_carries_best_iterate():
    # no root: x^2 + 1 = 0
    with pytest.raises(NoConvergence) as info:
        newton_solve(lambda x: x**2 + 1.0, np.array([0.5]), max_iter=8)
    assert info.value.x is not None
    assert info.value.residual >= 1.0


def test_newton_out_of_budget_raises_with_the_best_iterate():
    # x^2 = 2 from x = 100: two halving Newton steps reach about 25
    with pytest.raises(NoConvergence, match="Newton did not converge") as info:
        newton_solve(lambda x: x**2 - 2.0, np.array([100.0]), max_iter=2)
    assert info.value.iterations == 2
    assert info.value.x[0] == pytest.approx(25.02, rel=1e-3)
    assert info.value.residual == pytest.approx(info.value.x[0] ** 2 - 2.0)


def test_newton_non_finite_values_are_evaluation_errors():
    with pytest.raises(EvaluationError, match="non-finite Jacobian"):
        newton_solve(lambda x: x - 1.0, np.array([0.0]), jac=lambda x: np.array([[np.nan]]))
    with pytest.raises(EvaluationError, match="at the initial guess"):
        newton_solve(lambda x: np.array([np.inf]), np.array([0.0]))


def _recorded(F, jac):
    """``F`` and ``jac`` that log their points, in call order, to ``log``."""
    log = []

    def logged(kind, fn):
        return lambda x: log.append((kind, x.copy())) or fn(x)

    return logged("F", F), logged("jac", jac), log


def _assert_at_latest_residual_point(log, x):
    latest = None
    for kind, point in log:
        if kind == "jac":
            assert np.array_equal(point, latest)
        else:
            latest = point
    assert np.array_equal(x, latest)


@pytest.mark.parametrize("holder", ["none", "shared", "retried"])
def test_newton_forms_the_matrix_and_returns_at_its_latest_residual_point(holder, newton_runs):
    # the cubic makes line searches back off and a held matrix go stale
    F = lambda x: x**3 - np.array([8.0, 1.0])
    jac = lambda x: np.diag(3.0 * x**2)
    held = {"none": lambda: None, "shared": core._HeldMatrix,
            "retried": _carried_uphill}[holder]()
    for x0 in (np.array([3.0, -2.0]), np.array([0.5, 4.0])):
        F_logged, jac_logged, log = _recorded(F, jac)
        got = newton_solve(F_logged, x0, tol=1e-12, jac=jac_logged, matrix=held)
        if holder == "retried" and x0[0] == 3.0:
            assert len(newton_runs) == 2            # the uphill first run stalled
        assert np.max(np.abs(got.x - [2.0, 1.0])) <= 1e-12
        assert any(kind == "jac" for kind, _ in log)
        _assert_at_latest_residual_point(log, got.x)


@st.composite
def _monotone_systems(draw):
    """F(x) = A x + sin(x)/2 + x^3/10 - b with A = 2 I + M / n, |M_ij| <= 1/2:
    the symmetric part of every Jacobian is at least I, so the root is unique
    and the inverse Jacobian has 2-norm at most 1."""
    n = draw(st.integers(1, 4))
    M = draw(arrays(float, (n, n), elements=st.floats(-0.5, 0.5)))
    b = draw(arrays(float, n, elements=st.floats(-3.0, 3.0)))
    A = 2.0 * np.eye(n) + M / n
    return (lambda x: A @ x + 0.5 * np.sin(x) + 0.1 * x**3 - b,
            lambda x: A + np.diag(0.5 * np.cos(x) + 0.3 * x**2), n)


@hypothesis.seed(20241003)
@hypothesis.settings(max_examples=40, derandomize=True, deadline=None, database=None)
@hypothesis.given(_monotone_systems())
def test_newton_policies_reach_the_same_root(system):
    F, jac, n = system
    tol = 1e-10
    roots = []
    for matrix in (None, core._HeldMatrix()):
        got = newton_solve(F, np.zeros(n), tol=tol, jac=jac, matrix=matrix)
        assert np.max(np.abs(F(got.x))) <= tol
        roots.append(got.x)
    # |x - y|_2 <= |F(x) - F(y)|_2 <= 2 sqrt(n) tol
    assert max(np.max(np.abs(x - roots[0])) for x in roots[1:]) <= 4.0 * tol


# ---------------------------------------------------------------------------
# the block-bidiagonal policy

def _dense(A, B, tail, free):
    """The block-bidiagonal matrix of ``banded_matrix`` assembled densely."""
    N, m = A.shape[:2]
    D = np.zeros((N * m + tail.shape[0], (N + 1) * m))
    for k in range(N):
        D[k * m:(k + 1) * m, k * m:(k + 2) * m] = np.hstack([A[k], B[k]])
    D[N * m:, N * m:] = tail
    return D[:, free.ravel()]


def _end_mask(N, m, first, last):
    """Unknowns of nodes 0..N of size m but for entries ``first`` of x_0 and
    ``last`` of x_N."""
    free = np.ones((N + 1, m), dtype=bool)
    free[0, first] = False
    free[N, last] = False
    return free


@pytest.mark.parametrize("n, N, section", [(1, 1, False), (1, 7, True), (2, 9, True),
                                           (3, 16, False)])
def test_block_lu_solves_and_estimates_like_the_dense_matrix(n, N, section):
    rng = np.random.default_rng(N)
    m = 2 * n
    A, B = rng.standard_normal((N, m, m)), rng.standard_normal((N, m, m))
    tail = rng.standard_normal((n, m)) if section else np.zeros((0, m))
    free = _end_mask(N, m, slice(0, n), slice(m, m) if section else slice(n, m))
    lu = banded.BlockLU(A, B, tail, free)
    D = _dense(A, B, tail, free)
    b = rng.standard_normal(D.shape[0])
    assert np.max(np.abs(D @ (lu @ b) - b)) <= 1e-12 * np.linalg.cond(D)
    assert np.max(np.abs(D.T @ lu._solve_transposed(b) - b)) <= 1e-12 * np.linalg.cond(D)
    # Hager's estimate is a lower bound that is usually sharp
    exact = np.linalg.cond(D, 1)
    assert exact / 3.0 <= lu.cond <= exact * (1.0 + 1e-9)


def _cubic_chain(N=8):
    """Row block k is (a_{k+1}^3 - a_k - 6, b_{k+1} - b_k^3 + 6) over nodes
    x_k = (a_k, b_k), with a_0 and b_N fixed at 2, the ends where each
    component's recursion contracts; the root is 2 everywhere."""
    free = _end_mask(N, 2, 0, 1)

    def nodes(u):
        x = np.full((N + 1, 2), 2.0)
        x[free] = u
        return x

    def F(u):
        a, b = nodes(u).T
        return np.column_stack([a[1:] ** 3 - a[:-1] - 6.0, b[1:] - b[:-1] ** 3 + 6.0]).ravel()

    def jac(u):
        a, b = nodes(u).T
        A = np.zeros((N, 2, 2))
        B = np.zeros((N, 2, 2))
        A[:, 0, 0], A[:, 1, 1] = -1.0, -3.0 * b[:-1] ** 2
        B[:, 0, 0], B[:, 1, 1] = 3.0 * a[1:] ** 2, 1.0
        return A, B, np.zeros((0, 2))

    return F, jac, free


@pytest.mark.parametrize("retried", [False, True], ids=["fresh", "retried"])
def test_banded_newton_forms_the_matrix_and_returns_at_its_latest_residual_point(retried):
    F, jac, free = _cubic_chain()
    x0 = np.linspace(4.0, 1.5, int(free.sum()))
    held = core.banded_matrix(free)
    if retried:
        A, B, tail = jac(x0)
        held.inverse = held.factor((-A, -B, tail), x0)      # uphill, so the first run stalls
    F_logged, jac_logged, log = _recorded(F, jac)
    got = newton_solve(F_logged, x0, tol=1e-12, jac=jac_logged, matrix=held)
    assert np.max(np.abs(got.x - 2.0)) <= 1e-12
    assert sum(kind == "jac" for kind, _ in log) == got.matrices >= 1
    assert got.matrices < got.iterations            # the chord reuses the factors
    _assert_at_latest_residual_point(log, got.x)
    dense = newton_solve(F, x0, tol=1e-12, jac=lambda x: _dense(*jac(x), free))
    assert np.max(np.abs(got.x - dense.x)) <= 1e-12


@pytest.mark.parametrize("last, scale", [(0, 1.0), (1, 1e-17)],
                         ids=["singular", "cond1e17"])
def test_banded_newton_singular_block_system(last, scale):
    # x_{k+1} - x_k with q fixed at both ends leaves p free: singular; with p
    # fixed at the end it is invertible, and scaling the first row block by
    # 1e-17 puts the condition estimate near 1e17
    N = 6
    free = _end_mask(N, 2, 0, last)
    A, B = -np.tile(np.eye(2), (N, 1, 1)), np.tile(np.eye(2), (N, 1, 1))
    A[0] *= scale
    B[0] *= scale
    D = _dense(A, B, np.zeros((0, 2)), free)
    b = np.ones(D.shape[0])
    with pytest.raises(SingularJacobian):
        newton_solve(lambda x: D @ x - b, np.zeros(D.shape[1]),
                     jac=lambda x: (A, B, np.zeros((0, 2))), matrix=core.banded_matrix(free))


def test_banded_newton_zero_pivot_column():
    # x_0 is fixed and no row block reads the first entry of x_1, so the
    # elimination of x_1 meets an all-zero pivot column
    N = 2
    free = _end_mask(N, 2, slice(0, 2), slice(2, 2))
    A, B = -np.tile(np.eye(2), (N, 1, 1)), np.tile(np.eye(2), (N, 1, 1))
    B[0, :, 0] = 0.0
    A[1, :, 0] = 0.0
    D = _dense(A, B, np.zeros((0, 2)), free)
    with pytest.raises(SingularJacobian, match=r"^Jacobian not invertible \(zero pivot column\)$"):
        newton_solve(lambda x: D @ x - 1.0, np.zeros(D.shape[1]),
                     jac=lambda x: (A, B, np.zeros((0, 2))), matrix=core.banded_matrix(free))


def test_block_lu_of_one_unknown_reports_its_exact_condition_number():
    # one row block on one free entry of x_1: the matrix is [[-4]], whose
    # condition number is 1, and the estimate forms no 0/0 for it
    free = np.array([[False], [True]])
    with np.errstate(all="raise"):
        lu = banded.BlockLU(np.array([[[3.0]]]), np.array([[[-4.0]]]), np.zeros((0, 1)), free)
    assert lu.cond == np.linalg.cond(np.array([[-4.0]]), 1) == 1.0
    assert (lu @ np.array([2.0])).tolist() == [-0.5]


@pytest.mark.parametrize("fixed, tail_rows, match", [
    (1, 1, "^free must be an .* fixes only end entries$"),          # x_1 of x_0..x_2
    (None, 2, "^the rows and free entries .* differ in number$"),   # 4 rows, 3 entries
])
def test_block_lu_refuses_a_malformed_system(fixed, tail_rows, match):
    free = np.ones((3, 1), dtype=bool)
    if fixed is not None:
        free[fixed, 0] = False
    with pytest.raises(ValueError, match=match):
        banded.BlockLU(np.ones((2, 1, 1)), -2.0 * np.ones((2, 1, 1)), np.ones((tail_rows, 1)),
                       free)


def test_dual_time_derivative():
    prob = HamiltonianProblem(dim=1, H=lambda t, q, p: t * q[0] ** 2 + p[0] ** 2)
    assert prob.d_t(0.5, np.array([2.0]), np.array([0.3])) == 4.0


def test_maximally_degenerate_problem_defaults_to_analytic_partials():
    # f_value casts f to floats, so a jet pass through t would raise; the
    # analytic default differences H = <p, t q> in t instead: d_t = p q = 6
    prob = core.MaximallyDegenerateProblem(dim=1, f=lambda t, q: t * np.asarray(q, dtype=float))
    assert prob.derivative_mode == "analytic"
    assert abs(prob.d_t(0.5, np.array([2.0]), np.array([3.0])) - 6.0) < 1e-8


# ---------------------------------------------------------------------------
# midpoint marches

def test_held_midpoint_matrix_matches_fresh_matrix_marches(monkeypatch):
    # one stepper marches the pendulum, then from a distant state (where the
    # held matrix contracts too slowly and is formed again), then with another
    # h; each march stays with the march whose every step forms its own matrix
    formed = []
    fd_jacobian = core.fd_jacobian

    def counting(*args, **kwargs):
        formed.append(1)
        return fd_jacobian(*args, **kwargs)

    monkeypatch.setattr(core, "fd_jacobian", counting)
    field = phase_field(problems.pendulum())
    tol = 1e-12
    stepfn = stepper_with_tol("midpoint", tol)
    fresh = partial(midpoint_step, tol=tol)
    for z0, T, N in (((0.1, 0.0), 3.0, 10), ((3.0, 0.5), 3.0, 10), ((3.0, 0.5), 2.0, 25)):
        del formed[:]
        _, held_xs = integrate(field, np.array(z0), 0.0, T, N, stepfn, tol)
        reformed = len(formed)
        _, fresh_xs = integrate(field, np.array(z0), 0.0, T, N, fresh, tol)
        assert 1 <= reformed < N
        scale = 1.0 + np.max(np.abs(fresh_xs), axis=1)
        err = np.max(np.abs(held_xs - fresh_xs), axis=1)
        assert np.all(err <= 10.0 * tol * scale * np.arange(N + 1))


def _counted_midpoint(monkeypatch):
    """The Newton results of every solve and the count of difference matrices
    formed, as ``midpoint_step`` runs them."""
    results, formed = [], []
    solve, fd_jacobian = core.newton_solve, core.fd_jacobian
    monkeypatch.setattr(core, "newton_solve",
                        lambda *a, **k: results.append(solve(*a, **k)) or results[-1])
    monkeypatch.setattr(core, "fd_jacobian",
                        lambda *a, **k: formed.append(1) or fd_jacobian(*a, **k))
    return results, formed


def test_standalone_midpoint_step_forms_a_matrix_at_every_iteration(monkeypatch):
    results, formed = _counted_midpoint(monkeypatch)
    midpoint_step(phase_field(problems.pendulum()), 0.0, np.array([2.5, 0.4]), 0.3, 1e-12)
    [result] = results
    assert result.matrices == result.iterations == len(formed) > 1


@pytest.mark.parametrize("tol", [1e-12, None], ids=["bound", "named"])
def test_midpoint_march_starts_with_the_standalone_step(tol, monkeypatch):
    # the first step runs full Newton, as a standalone step does, and the
    # steps after it reuse the matrix it left held
    field = phase_field(problems.pendulum())
    x0, T, N = np.array([2.5, 0.4]), 1.2, 4
    alone = midpoint_step(field, 0.0, x0, T / N, tol or core.DEFAULT_TOL)
    stepper = "midpoint" if tol is None else stepper_with_tol("midpoint", tol)
    results, _ = _counted_midpoint(monkeypatch)
    _, xs = integrate(field, x0, 0.0, T, N, stepper, core.DEFAULT_TOL)
    assert np.array_equal(xs[1], alone)
    first, *later = results
    assert first.matrices == first.iterations > 1
    assert sum(r.matrices for r in later) < sum(r.iterations for r in later)


def test_midpoint_step_retries_a_stalled_carried_matrix(newton_runs):
    # a carried matrix that points uphill stalls the line search; the step is
    # retried once with a fresh matrix and lands where a fresh step lands
    field = phase_field(problems.pendulum())
    x, h = np.array([0.8, -0.3]), 0.1
    held = _carried_uphill()
    got = midpoint_step(field, 0.0, x, h, 1e-12, matrix=held)
    assert len(newton_runs) == 2
    want = midpoint_step(field, 0.0, x, h, 1e-12)
    assert np.max(np.abs(got - want)) <= 1e-11
    assert not np.array_equal(held.inverse, -np.eye(2))


# ---------------------------------------------------------------------------
# forward-backward sweep

def _linear_sweep(stepper, A, b=lambda t, q, u: np.zeros(1), N=10):
    return sweep(lambda t, q, u: A @ q, lambda t, q, u: A, b, np.zeros((N + 1, 0)),
                 np.array([1.0]), lambda q: np.ones(1), 1.0, N, stepper, core.DEFAULT_TOL)


def _heun(f, t, x, h):
    k1 = f(t, x)
    return x + 0.5 * h * (k1 + f(t + h, x + h * k1))


def test_sweep_rejects_a_stepper_without_a_known_partner():
    with pytest.raises(ValueError, match="euler, rk4 or midpoint"):
        _linear_sweep(_heun, np.eye(1))
    with pytest.raises(ValueError, match="N must be >= 1"):
        _linear_sweep("rk4", np.eye(1), N=0)


def test_stepper_scheme_reads_the_registry_at_call_time(monkeypatch):
    # a binding that replaces a registry step, as a tracing wrapper does,
    # still picks the sweep's midpoint partner and the midpoint label
    want = _linear_sweep("midpoint", -np.eye(1))

    def wrapped(*args, **kwargs):
        return midpoint_step(*args, **kwargs)

    monkeypatch.setitem(core.STEPPERS, "midpoint", wrapped)
    monkeypatch.setattr(core, "midpoint_step", wrapped)
    for stepper in ("midpoint", wrapped, stepper_with_tol("midpoint", 1e-12)):
        assert core.stepper_scheme(stepper) == core.stepper_name(stepper) == "midpoint"
    assert core.stepper_scheme(midpoint_step) is None        # the replaced step
    assert core.stepper_scheme(_heun) is core.stepper_scheme(partial(_heun)) is None
    got = _linear_sweep("midpoint", -np.eye(1))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("stepper", ["euler", "rk4", "midpoint"])
def test_sweep_step_failures_carry_the_step_index(stepper):
    # b = inf before t = 0.42: the backward pass first reads it at t = 0.4, the
    # left end of step 4, or at the midpoint t = 0.35 of step 3
    blow = lambda t, q, u: np.array([np.inf if t < 0.42 else 0.0])
    with pytest.raises(StepFailure) as info:
        _linear_sweep(stepper, np.eye(1), b=blow)
    assert info.value.step == {"euler": 4, "rk4": 4, "midpoint": 3}[stepper]


def test_sweep_failed_midpoint_forward_step_carries_its_index():
    # f is infinite past t = 0.42, first met at the midpoint t = 0.45 of step 4
    blow = lambda t, q, u: np.array([np.inf]) if t > 0.42 else -q
    with pytest.raises(StepFailure, match="step 4 failed") as info:
        sweep(blow, lambda t, q, u: -np.eye(1), lambda t, q, u: np.zeros(1),
              np.zeros((11, 0)), np.array([1.0]), lambda q: np.ones(1), 1.0, 10, "midpoint",
              core.DEFAULT_TOL)
    assert info.value.step == 4


@pytest.mark.parametrize("stepper", ["euler", "rk4", "midpoint"])
def test_sweep_of_an_empty_state_returns_empty_rows(stepper):
    times, qs, ps = sweep(lambda t, q: q, lambda t, q: np.zeros((0, 0)), lambda t, q: np.zeros(0),
                          None, np.zeros(0), lambda q: q, 1.0, 5, stepper, core.DEFAULT_TOL)
    assert times.shape == (6,) and qs.shape == ps.shape == (6, 0)


def test_midpoint_integrate_of_an_empty_state_returns_empty_rows():
    times, xs = integrate(lambda t, x: x, np.zeros(0), 0.0, 1.0, 3, "midpoint", 1e-10)
    assert times.shape == (4,) and xs.shape == (4, 0)


def test_newton_solve_of_no_unknowns_is_solved_at_once():
    result = newton_solve(lambda x: x, np.zeros(0))
    assert result.x.shape == (0,)
    assert result.residual == 0.0 and result.iterations == 0


def test_sweep_singular_midpoint_costate_solve_is_a_step_failure():
    # frozen q, but a costate matrix A = 2/h for which I - h/2 A^T vanishes
    with pytest.raises(StepFailure) as info:
        sweep(lambda t, q, u: np.zeros(1), lambda t, q, u: np.array([[16.0]]),
              lambda t, q, u: np.zeros(1), np.zeros((9, 0)), np.array([1.0]),
              lambda q: np.ones(1), 1.0, 8, "midpoint", core.DEFAULT_TOL)
    assert info.value.step == 7


@pytest.mark.parametrize("inf_step, singular_step, message", [
    (30, 20, "^non-finite state after step 30$"),
    (20, 30, "^costate step 30 failed: Singular matrix$"),
])
def test_sweep_midpoint_costate_fails_at_its_first_failing_step(inf_step, singular_step, message):
    # one block of 40 steps, stepped last step first: the failure met first
    # wins, whether a non-finite costate or a singular solve
    N = 40
    h = 1.0 / N

    def at(step, t):
        return abs(t - (step + 0.5) * h) < 0.25 * h

    D_qf = lambda t, q: np.array([[2.0 / h if at(singular_step, t) else -1.0]])
    D_qg = lambda t, q: np.array([np.inf]) if at(inf_step, t) else q
    with pytest.raises(StepFailure, match=message) as info:
        sweep(lambda t, q: np.zeros(1), D_qf, D_qg, None, np.ones(1), lambda q: q, 1.0, N,
              "midpoint", core.DEFAULT_TOL)
    assert info.value.step == 30


# the costate partners against loops of their own, one step at a time

def _controlled_field(n):
    """A time-dependent controlled f with its partials, m = 2 controls."""
    W = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))

    def f(t, q, u):
        return -q + 0.3 * np.sin(3.0 * t) * (W @ q) + 0.1 * np.sin(q) + u[0] - 0.5 * u[1]

    def D_qf(t, q, u):
        return -np.eye(n) + 0.3 * np.sin(3.0 * t) * W + np.diag(0.1 * np.cos(q) + 0.2 * u[1])

    def D_qg(t, q, u):
        return q * (1.0 + u[0]) + np.cos(t) * u[1]

    return f, D_qf, D_qg


def _loop_rk4_sweep(f, D_qf, D_qg, u, q0, p_end, T, N):
    """The rk4 sweep with its costate run stage by stage, one step at a time."""
    h = T / N
    times = h * np.arange(N + 1)
    u_mid = 0.5 * (u[:-1] + u[1:])
    qs = np.empty((N + 1, q0.size))
    qs[0] = q0
    stages = []
    for k in range(N):
        t, q = times[k], qs[k]
        k1 = f(t, q, u[k])
        Q2 = q + 0.5 * h * k1
        k2 = f(t + 0.5 * h, Q2, u_mid[k])
        Q3 = q + 0.5 * h * k2
        k3 = f(t + 0.5 * h, Q3, u_mid[k])
        Q4 = q + h * k3
        k4 = f(t + h, Q4, u[k + 1])
        stages.append((Q2, Q3, Q4))
        qs[k + 1] = q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def costate(t, q, uc, p):
        return D_qf(t, q, uc).T @ p + D_qg(t, q, uc)

    ps = np.empty_like(qs)
    ps[N] = p_end(qs[N])
    for k in range(N - 1, -1, -1):
        t, p = times[k], ps[k + 1]
        Q2, Q3, Q4 = stages[k]
        l1 = costate(t + h, Q4, u[k + 1], p)
        l2 = costate(t + 0.5 * h, Q3, u_mid[k], p + 0.5 * h * l1)
        l3 = costate(t + 0.5 * h, Q2, u_mid[k], p + 0.5 * h * l2)
        l4 = costate(t, qs[k], u[k], p + h * l3)
        ps[k] = p + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
    return times, qs, ps


def _logged(fn, log):
    """``fn`` with each call's name, time, state and control appended to ``log``."""
    def closure(t, q, uc):
        log.append((fn.__name__, float(t), q.tobytes(), uc.tobytes()))
        return fn(t, q, uc)
    return closure


@pytest.mark.parametrize("n", [1, 2, core._COMPOSE_MAX_DIM, core._COMPOSE_MAX_DIM + 1])
def test_composed_rk4_costate_matches_the_per_stage_loop(n):
    # more steps than two blocks, controls in every stage slot: u[k+1] at Q4,
    # the step midpoint's at Q3 and Q2 and u[k] at Q1
    f, D_qf, D_qg = _controlled_field(n)
    N = 2 * core._COMPOSE_BLOCK + 7
    rng = np.random.default_rng(7)
    u = rng.uniform(-1.0, 1.0, (N + 1, 2))
    q0 = rng.uniform(-1.0, 1.0, n)
    p_end = lambda q: np.sin(q) + 1.0
    calls, want_calls = [], []
    times, qs, ps = sweep(f, _logged(D_qf, calls), _logged(D_qg, calls), u, q0, p_end, 1.5, N,
                          "rk4", core.DEFAULT_TOL)
    want = _loop_rk4_sweep(f, _logged(D_qf, want_calls), _logged(D_qg, want_calls), u, q0,
                           p_end, 1.5, N)
    assert np.array_equal(times, want[0]) and np.array_equal(qs, want[1])
    assert np.max(np.abs(ps - want[2]) / (1.0 + np.abs(want[2]))) <= 1e-13
    assert calls == want_calls            # the same calls, in the same order


@pytest.mark.parametrize("b", [0.25, np.array([0.25])], ids=["float", "one_entry"])
def test_composed_rk4_costate_broadcasts_a_one_entry_D_qg(b):
    # the per-stage loop adds D_qg to A^T p, so one entry stands for every q
    f, D_qf, _ = _controlled_field(3)
    u = np.zeros((2 * core._COMPOSE_BLOCK + 2, 2))
    N = u.shape[0] - 1
    got = sweep(f, D_qf, lambda t, q, uc: b, u, np.ones(3), np.sin, 1.0, N, "rk4",
                core.DEFAULT_TOL)[2]
    want = _loop_rk4_sweep(f, D_qf, lambda t, q, uc: b, u, np.ones(3), np.sin, 1.0, N)[2]
    assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-13


@pytest.mark.parametrize("n", [core._COMPOSE_MAX_DIM, core._COMPOSE_MAX_DIM + 1])
def test_composed_rk4_costate_fails_at_the_step_the_loop_fails(n):
    # D_qf is nan at the first stage of step 70 (Q3, at its midpoint time),
    # in the middle of the second block of steps
    f, D_qf, D_qg = _controlled_field(n)
    N, k = 150, 70
    h = 1.0 / N
    hits = []

    def poisoned(t, q, uc):
        if abs(t - (k + 0.5) * h) < 0.25 * h and not hits:
            hits.append(t)
            return np.full((n, n), np.nan)
        return D_qf(t, q, uc)

    u = np.zeros((N + 1, 2))
    with pytest.raises(StepFailure, match=f"^non-finite state after step {k}$") as info:
        sweep(f, poisoned, D_qg, u, np.ones(n), lambda q: q, 1.0, N, "rk4", core.DEFAULT_TOL)
    assert info.value.step == k and len(hits) == 1

    error = EvaluationError("D_qf failed")

    def failing(t, q, uc):
        if abs(t - (k + 0.5) * h) < 0.25 * h:
            raise error
        return D_qf(t, q, uc)

    with pytest.raises(EvaluationError) as raised:
        sweep(f, failing, D_qg, u, np.ones(n), lambda q: q, 1.0, N, "rk4", core.DEFAULT_TOL)
    assert raised.value is error


def _loop_costate(scheme, D_qf, D_qg, u, qs, p_end, T, N):
    """The euler or midpoint costate over the states ``qs``, one step at a time."""
    h = T / N
    times = h * np.arange(N + 1)
    u_mid = 0.5 * (u[:-1] + u[1:])
    eye = np.eye(qs.shape[1])
    ps = np.empty_like(qs)
    ps[N] = p_end(qs[N])
    for k in range(N - 1, -1, -1):
        t, p = times[k], ps[k + 1]
        if scheme == "midpoint":
            t_mid, q_mid = t + 0.5 * h, 0.5 * (qs[k] + qs[k + 1])
            At = D_qf(t_mid, q_mid, u_mid[k]).T
            rhs = p + (0.5 * h) * (At @ p) + h * D_qg(t_mid, q_mid, u_mid[k])
            ps[k] = np.linalg.solve(eye - (0.5 * h) * At, rhs)
        else:
            ps[k] = p + h * (D_qf(t, qs[k], u[k]).T @ p + D_qg(t, qs[k], u[k]))
    return ps


@pytest.mark.parametrize("n", [1, core._COMPOSE_MAX_DIM + 1, 31])
@pytest.mark.parametrize("scheme", ["euler", "midpoint"])
def test_costate_partner_matches_its_step_by_step_loop(scheme, n):
    # more steps than two blocks at every n, controls in the stage slot: u[k]
    # for euler, the step midpoint's for midpoint
    f, D_qf, D_qg = _controlled_field(n)
    N = 2 * core._COMPOSE_BLOCK + 7
    rng = np.random.default_rng(7)
    u = rng.uniform(-1.0, 1.0, (N + 1, 2))
    q0 = rng.uniform(-1.0, 1.0, n)
    p_end = lambda q: np.sin(q) + 1.0
    calls, want_calls = [], []
    times, qs, ps = sweep(f, _logged(D_qf, calls), _logged(D_qg, calls), u, q0, p_end, 1.5, N,
                          scheme, core.DEFAULT_TOL)
    want = _loop_costate(scheme, _logged(D_qf, want_calls), _logged(D_qg, want_calls), u, qs,
                         p_end, 1.5, N)
    assert np.array_equal(times, 1.5 / N * np.arange(N + 1))
    assert np.array_equal(ps, want)       # bit for bit
    assert calls == want_calls            # the same calls, in the same order


def _refilling(fn):
    """``fn`` writing each value into one array that it returns on every call."""
    out = []

    def closure(t, q, uc):
        value = fn(t, q, uc)
        if not out:
            out.append(np.empty_like(value))
        out[0][...] = value
        return out[0]
    return closure


@pytest.mark.parametrize("scheme, n", [("euler", 1), ("euler", core._COMPOSE_MAX_DIM + 1),
                                       ("midpoint", 1), ("midpoint", core._COMPOSE_MAX_DIM + 1),
                                       ("rk4", core._COMPOSE_MAX_DIM + 1)])
def test_stepped_costate_reads_a_partial_before_the_next_call(scheme, n):
    # a stepped pass uses each stage's partials before it calls the next
    # stage's, as the step-by-step loops do, so a closure may refill one array
    f, D_qf, D_qg = _controlled_field(n)
    N = 2 * core._COMPOSE_BLOCK + 7
    rng = np.random.default_rng(7)
    u = rng.uniform(-1.0, 1.0, (N + 1, 2))
    q0 = rng.uniform(-1.0, 1.0, n)
    p_end = lambda q: np.sin(q) + 1.0
    want = sweep(f, D_qf, D_qg, u, q0, p_end, 1.5, N, scheme, core.DEFAULT_TOL)
    got = sweep(f, _refilling(D_qf), _refilling(D_qg), u, q0, p_end, 1.5, N, scheme,
                core.DEFAULT_TOL)
    assert np.array_equal(got[2], want[2])
    if scheme != "rk4":
        assert np.array_equal(got[2], _loop_costate(scheme, _refilling(D_qf), _refilling(D_qg),
                                                    u, got[1], p_end, 1.5, N))
