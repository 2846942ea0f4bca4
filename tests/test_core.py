import numpy as np
import pytest

from hamflow import problems
from hamflow.core import (
    EvaluationError,
    HamiltonianProblem,
    NoConvergence,
    PhasePoint,
    SingularJacobian,
    Trajectory,
    degeneracy_class,
    fd_gradient,
    hamiltonian_vector_field,
    newton_solve,
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


def test_analytic_derivative_check_mode():
    good = HamiltonianProblem(
        dim=1,
        H=lambda t, q, p: 0.5 * (p[0] ** 2 + q[0] ** 2),
        D_qH=lambda t, q, p: np.asarray(q, dtype=float),
        D_pH=lambda t, q, p: np.asarray(p, dtype=float),
        derivative_mode="analytic",
        check=True,
    )
    assert good.value(0.0, np.array([1.0]), np.array([0.0])) == 0.5
    with pytest.raises(ValueError):
        HamiltonianProblem(
            dim=1,
            H=lambda t, q, p: 0.5 * (p[0] ** 2 + q[0] ** 2),
            D_qH=lambda t, q, p: 2.0 * np.asarray(q, dtype=float),  # wrong
            derivative_mode="analytic",
            check=True,
        )


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


def test_newton_no_convergence_carries_best_iterate():
    # no root: x^2 + 1 = 0
    with pytest.raises(NoConvergence) as info:
        newton_solve(lambda x: x**2 + 1.0, np.array([0.5]), max_iter=8)
    assert info.value.x is not None
    assert info.value.residual >= 1.0
