import dataclasses
import math
import sys

import numpy as np
import pytest

from hamflow import core, problems
from hamflow.adjoint import (
    CostProblem,
    commutativity_gap,
    diffusion_adjoint_demo,
    directional_derivative_check,
    dirichlet_laplacian,
    gradient_check,
    integrated_cost,
    make_adjoint_problem,
    sensitivity,
)
from hamflow.core import PhasePoint, degeneracy_class, hamiltonian_vector_field


def linear_problem(A, C_vec, q0, T=1.0):
    C_vec = np.asarray(C_vec, dtype=float)
    return CostProblem(
        f=lambda t, q: A @ q, g=None,
        C=lambda q: float(C_vec @ q), dC=lambda q: C_vec.copy(),
        T=T, q0=np.asarray(q0, dtype=float),
        D_qf=lambda t, q: A, D_qg=lambda t, q: np.zeros(len(C_vec)))


def test_cost_problem_gradient_validation():
    with pytest.raises(ValueError):
        CostProblem(f=lambda t, q: q, g=None, C=lambda q: float(q[0] ** 2),
                    dC=lambda q: 3.0 * np.asarray(q, dtype=float),  # wrong
                    T=1.0, q0=np.array([1.0])).validate()


def _half_square_cp():
    return CostProblem(
        f=lambda t, q: np.sin(q), g=lambda t, q: 0.5 * float(q[0] ** 2),
        C=lambda q: 0.5 * float(q[0] ** 2), dC=lambda q: np.asarray(q, dtype=float),
        T=1.0, q0=np.array([0.8]),
        D_qf=lambda t, q: np.diag(np.cos(q)),
        D_qg=lambda t, q: np.asarray(q, dtype=float))


def test_cost_problem_validates_derivative_closures():
    cp = _half_square_cp()
    cp.validate()
    for name in ("dC", "D_qf", "D_qg"):
        wrong = getattr(cp, name)
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(
                cp, **{name: lambda *args: 2.0 * np.asarray(wrong(*args))}).validate()


def test_adjoint_problem_structure():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    cp = linear_problem(A, [1.0, 0.0], [0.4, -0.3])
    prob = make_adjoint_problem(cp)
    rng = np.random.default_rng(1)
    samples = [(rng.uniform(0, 1), PhasePoint(rng.standard_normal(2),
                                              rng.standard_normal(2)))
               for _ in range(10)]
    assert degeneracy_class(prob, samples) == "maximally_degenerate"
    for t, z in samples:
        # momentum Hessian identically flat
        assert np.max(np.abs(prob.d_pp(t, z.q, z.p))) < 1e-14
        # costate equation is dp/dt = -A^T p
        _, dp = hamiltonian_vector_field(prob, t, z)
        assert np.max(np.abs(dp + A.T @ z.p)) < 1e-12


def test_zero_dynamics_gives_zero_hamiltonian():
    cp = CostProblem(f=lambda t, q: np.zeros(2), g=None,
                     C=lambda q: 0.0, dC=lambda q: np.zeros(2),
                     T=1.0, q0=np.zeros(2))
    prob = make_adjoint_problem(cp)
    assert prob.value(0.3, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 0.0


def test_sensitivity_linear_matrix_exponential_oracle():
    from scipy.linalg import expm

    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    cp = linear_problem(A, [1.0, 0.0], [0.4, -0.3])
    grad, _ = sensitivity(cp, "midpoint", 2000, tol=1e-12)
    oracle = expm(A.T * cp.T) @ np.array([1.0, 0.0])
    assert np.max(np.abs(oracle - [1.0, 1.0])) < 1e-14  # e^{A^T} dC = (1, T)
    assert np.max(np.abs(grad - oracle)) < 1e-6


def test_sensitivity_identity_flow():
    cp = CostProblem(f=lambda t, q: np.zeros(2), g=None,
                     C=lambda q: 0.5 * float(np.dot(q, q)),
                     dC=lambda q: np.asarray(q, dtype=float),
                     T=1.0, q0=np.array([0.7, -0.2]))
    grad, _ = sensitivity(cp, "midpoint", 100)
    assert np.max(np.abs(grad - cp.q0)) < 1e-12


def test_sensitivity_scalar_exponential():
    cp = CostProblem(f=lambda t, q: q, g=None, C=lambda q: float(q[0]),
                     dC=lambda q: np.ones(1), T=1.0, q0=np.array([1.0]),
                     D_qf=lambda t, q: np.eye(1), D_qg=lambda t, q: np.zeros(1))
    grad, traj = sensitivity(cp, "midpoint", 2000, tol=1e-12)
    assert abs(grad[0] - math.e) < 1e-6
    assert abs(traj.final.q[0] - math.e) < 1e-5


def test_gradient_check_battery():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert gradient_check(linear_problem(A, [1.0, 0.0], [0.4, -0.3]),
                          "midpoint", 2000, tol=1e-12) <= 1e-6
    frozen = CostProblem(f=lambda t, q: np.zeros(1), g=None,
                         C=lambda q: float(q[0] ** 2),
                         dC=lambda q: 2.0 * np.asarray(q, dtype=float),
                         T=1.0, q0=np.array([0.3]))
    assert gradient_check(frozen, "midpoint", 100) <= 1e-12
    nonlinear = CostProblem(
        f=lambda t, q: np.sin(q), g=lambda t, q: float(q[0] ** 2),
        C=lambda q: float(q[0] ** 2), dC=lambda q: 2.0 * np.asarray(q, dtype=float),
        T=1.0, q0=np.array([0.8]),
        D_qf=lambda t, q: np.diag(np.cos(q)),
        D_qg=lambda t, q: 2.0 * np.asarray(q, dtype=float))
    assert gradient_check(nonlinear, "midpoint", 2000, tol=1e-12) <= 1e-5


def test_rk4_sensitivity_is_the_exact_discrete_adjoint():
    # the backward pass reads the forward RK4 stages, so the gradient keeps
    # the scheme's order 4 (a grid interpolant of q caps it at 2)
    cp = _half_square_cp()
    ref, _ = sensitivity(cp, "rk4", 1280)
    Ns = np.array([10, 20, 40, 80])
    errs = [abs(sensitivity(cp, "rk4", N)[0][0] - ref[0]) for N in Ns]
    order = -np.polyfit(np.log(Ns), np.log(errs), 1)[0]
    assert order >= 3.8
    # and it differentiates the discrete RK4 cost to difference accuracy
    assert gradient_check(cp, "rk4", 50) <= 1e-9


def test_midpoint_sensitivity_solves_each_costate_step_linearly(monkeypatch):
    # the forward pass makes one Newton solve per step; the linear backward
    # pass makes none
    callers = []
    newton_solve = core.newton_solve

    def counting(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(core, "newton_solve", counting)
    drift = problems.linear_drift(2)
    cp = CostProblem(f=drift.f, g=drift.g, C=lambda q: 0.5 * float(np.dot(q, q)),
                     dC=lambda q: np.asarray(q, dtype=float), T=1.0,
                     q0=np.array([0.5, -1.0]), D_qf=drift.D_qf, D_qg=drift.D_qg)
    N = 40
    grad, _ = sensitivity(cp, "midpoint", N, tol=1e-12)
    assert callers == ["midpoint_step"] * N
    # q(T) = e^T q0 and p(0) = e^T q(T) up to the midpoint error
    assert np.max(np.abs(grad - math.e**2 * cp.q0)) < 1e-2


def test_directional_derivative_identity():
    nonlinear = CostProblem(
        f=lambda t, q: np.sin(q), g=lambda t, q: float(q[0] ** 2),
        C=lambda q: float(q[0] ** 2), dC=lambda q: 2.0 * np.asarray(q, dtype=float),
        T=1.0, q0=np.array([0.8]),
        D_qf=lambda t, q: np.diag(np.cos(q)),
        D_qg=lambda t, q: 2.0 * np.asarray(q, dtype=float))
    rng = np.random.default_rng(2)
    residuals, scales = directional_derivative_check(nonlinear, rng, N=1000)
    assert np.max(residuals / scales) <= 1e-5


# ---------------------------------------------------------------------------
# discretize-then-optimize vs optimize-then-discretize

def _nonlinear_cp():
    return CostProblem(
        f=lambda t, q: np.sin(q), g=lambda t, q: float(q[0] ** 2),
        C=lambda q: float(q[0] ** 2), dC=lambda q: 2.0 * np.asarray(q, dtype=float),
        T=1.0, q0=np.array([0.8]),
        D_qf=lambda t, q: np.diag(np.cos(q)),
        D_qg=lambda t, q: 2.0 * np.asarray(q, dtype=float))


def test_discrete_route_is_exact_gradient():
    # route (a) of the gap must differentiate the discrete cost exactly
    cp = _nonlinear_cp()
    N, h = 64, cp.T / 64

    def discrete_cost(q0):
        q = np.asarray(q0, dtype=float)
        total = 0.0
        for k in range(N):
            total += h * cp.g(k * h, q)
            q = q + h * cp.f(k * h, q)
        return total + cp.C(q)

    eps = 1e-6
    fd = (discrete_cost(cp.q0 + eps) - discrete_cost(cp.q0 - eps)) / (2 * eps)
    prob = make_adjoint_problem(cp)
    lam = cp.dC(cp.q0 + 0.0)
    # reuse the library recursion through the public gap function: gap with the
    # matching partner is rounding-level, so either route equals the FD value
    gap = commutativity_gap(cp, "symplectic_pair", N)
    assert gap <= 1e-12
    qs = [cp.q0.copy()]
    for k in range(N):
        qs.append(qs[-1] + h * cp.f(k * h, qs[-1]))
    lam = cp.dC(qs[-1])
    for k in range(N - 1, -1, -1):
        lam = lam + h * (prob.d_qf(k * h, qs[k]).T @ lam) + h * prob.d_qg(k * h, qs[k])
    assert abs(lam[0] - fd) < 1e-7 * (1.0 + abs(fd))


def test_commutativity_symplectic_pair():
    assert commutativity_gap(_nonlinear_cp(), "symplectic_pair", 100) <= 1e-12


def test_commutativity_euler_gap_halves():
    cp = _nonlinear_cp()
    g1 = commutativity_gap(cp, "explicit_euler", 100)
    g2 = commutativity_gap(cp, "explicit_euler", 200)
    assert g1 > 1e-4
    assert 1.7 <= g1 / g2 <= 2.3


def test_commutativity_frozen_dynamics():
    cp = CostProblem(f=lambda t, q: np.zeros(1), g=lambda t, q: float(q[0] ** 2),
                     C=lambda q: float(q[0]), dC=lambda q: np.ones(1),
                     T=1.0, q0=np.array([0.5]),
                     D_qf=lambda t, q: np.zeros((1, 1)),
                     D_qg=lambda t, q: 2.0 * np.asarray(q, dtype=float))
    for scheme in ("symplectic_pair", "explicit_euler"):
        assert commutativity_gap(cp, scheme, 50) == 0.0


# ---------------------------------------------------------------------------
# semi-discrete diffusion

def test_dirichlet_laplacian_eigenvalues():
    nx = 7
    A = dirichlet_laplacian(nx)
    dx = 1.0 / (nx + 1)
    lam = np.sort(np.linalg.eigvalsh(A))
    expected = np.sort([-4.0 / dx**2 * math.sin(k * math.pi * dx / 2.0) ** 2
                        for k in range(1, nx + 1)])
    assert np.max(np.abs(lam - expected)) < 1e-9


def test_diffusion_demo_small_grid():
    rep = diffusion_adjoint_demo(nx=3, T=0.1, N=500, tol=1e-12)
    assert rep.err_vs_oracle <= 1e-5
    assert rep.reverse_log10_amplification > 0.0


def test_diffusion_amplification_grows_with_resolution():
    r1 = diffusion_adjoint_demo(nx=3, T=0.05, N=50)
    r2 = diffusion_adjoint_demo(nx=9, T=0.05, N=50)
    assert r2.reverse_log10_amplification > r1.reverse_log10_amplification


def test_integrated_cost_consistency():
    cp = _nonlinear_cp()
    direct = integrated_cost(cp, cp.q0, "midpoint", 400, tol=1e-12)
    finer = integrated_cost(cp, cp.q0, "midpoint", 800, tol=1e-12)
    assert abs(direct - finer) < 1e-6


@pytest.mark.parametrize("stepper", ["rk4", "midpoint"])
def test_sweep_calls_supplied_partials_directly(monkeypatch, stepper):
    # with every partial supplied no partial goes through partial_of; an
    # unsupplied D_qf is differenced once per costate stage (4 a step for rk4)
    calls = []
    partial_of = core.partial_of

    def counted(*args):
        calls.append(args[0])
        return partial_of(*args)

    monkeypatch.setattr(core, "partial_of", counted)
    N = 50
    sensitivity(_half_square_cp(), stepper, N)
    assert calls == []
    sensitivity(dataclasses.replace(_half_square_cp(), D_qf=None), stepper, N)
    assert len(calls) == {"rk4": 4, "midpoint": 1}[stepper] * N
    assert all(supplied is None for supplied in calls)
