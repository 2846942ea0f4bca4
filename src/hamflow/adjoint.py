"""Adjoint sensitivity of terminal-plus-running costs along ODE flows.

The augmented Hamiltonian ``H_g(t, q, p) = <p, f(t, q)> + g(t, q)`` is
maximally degenerate, so fixing q(0) and closing the terminal momentum with
the section ``p1 = grad C`` turns the sensitivity computation into one
forward pass and one linear backward pass; the gradient of

    J = C(q(T)) + int_0^T g(t, q) dt

with respect to q(0) is p(0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    MaximallyDegenerateProblem,
    Trajectory,
    fd_gradient,
    integrate,
    maximally_degenerate,
    stepper_with_tol,
)
from .bvp import BoundarySpec, solve_type_ii_sweep


@dataclass(frozen=True)
class CostProblem:
    """State dynamics f, running cost g, terminal cost C with gradient dC."""

    f: Callable                    # (t, q) -> n-vector
    g: Callable | None             # (t, q) -> scalar, or None for zero
    C: Callable                    # q -> scalar
    dC: Callable                   # q -> n-vector
    T: float
    q0: np.ndarray
    D_qf: Callable | None = None
    D_qg: Callable | None = None
    check: bool = False

    def __post_init__(self):
        object.__setattr__(self, "q0", np.atleast_1d(np.asarray(self.q0, dtype=float)))
        if self.T < 0:
            raise ValueError("horizon must be nonnegative")
        if self.check:
            rng = np.random.default_rng(20240817)
            for _ in range(5):
                q = self.q0 + rng.uniform(-0.5, 0.5, self.dim)
                ref = fd_gradient(self.C, q)
                got = np.asarray(self.dC(q), dtype=float)
                if np.max(np.abs(got - ref)) > 1e-6 * (1.0 + np.max(np.abs(ref))):
                    raise ValueError("dC disagrees with central differences of C")

    @property
    def dim(self):
        return self.q0.size


def make_adjoint_problem(cp: CostProblem) -> MaximallyDegenerateProblem:
    """The augmented Hamiltonian <p, f> + g as a maximally degenerate problem."""
    return maximally_degenerate(cp.f, cp.g, cp.dim, D_qf=cp.D_qf, D_qg=cp.D_qg,
                                name="adjoint-augmented")


def sensitivity(cp: CostProblem, stepper="midpoint", N=100, tol=DEFAULT_TOL):
    """Gradient of the cost with respect to q0, plus the (q, p) trajectory."""
    prob = make_adjoint_problem(cp)
    bc = BoundarySpec.type_ii_free(cp.q0, lambda q: np.asarray(cp.dC(q), dtype=float))
    if cp.T == 0.0:
        z = np.concatenate([cp.q0, np.asarray(cp.dC(cp.q0), dtype=float)])
        traj = Trajectory(times=np.array([0.0]), states=z[None, :],
                          metadata={"solver": "type-ii-sweep", "kind": "Type II free"})
    else:
        traj = solve_type_ii_sweep(prob, bc, cp.T, stepper=stepper, N=N, tol=tol)
    return traj.ps[0].copy(), traj


def integrated_cost(cp: CostProblem, q0, stepper="midpoint", N=100, tol=DEFAULT_TOL):
    """Direct cost by integrating (q, running cost) with the same scheme."""
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    n = q0.size

    def augmented(t, x):
        dq = np.asarray(cp.f(t, x[:n]), dtype=float)
        dc = 0.0 if cp.g is None else float(cp.g(t, x[:n]))
        return np.concatenate([dq, [dc]])

    if cp.T == 0.0:
        return float(cp.C(q0))
    stepfn = stepper_with_tol(stepper, tol)
    _, xs = integrate(augmented, np.concatenate([q0, [0.0]]), 0.0, cp.T, N,
                      stepper=stepfn)
    return float(cp.C(xs[-1, :n]) + xs[-1, n])


def gradient_check(cp: CostProblem, stepper="midpoint", N=100, eps=1e-5,
                   tol=DEFAULT_TOL):
    """Max relative error of the sweep gradient against central differences."""
    grad, _ = sensitivity(cp, stepper=stepper, N=N, tol=tol)
    worst = 0.0
    scale = 1.0 + float(np.max(np.abs(grad)))
    for i in range(cp.dim):
        e = np.zeros(cp.dim)
        e[i] = eps * (1.0 + abs(cp.q0[i]))
        plus = integrated_cost(cp, cp.q0 + e, stepper, N, tol)
        minus = integrated_cost(cp, cp.q0 - e, stepper, N, tol)
        fd = (plus - minus) / (2.0 * e[i])
        worst = max(worst, abs(fd - grad[i]) / scale)
    return worst


def directional_derivative_check(cp: CostProblem, rng, count=20, stepper="midpoint",
                                 N=400, eps=1e-5, tol=DEFAULT_TOL):
    """Residuals of dJ[dq0] = <p(0), dq0> over random initial perturbations."""
    grad, _ = sensitivity(cp, stepper=stepper, N=N, tol=tol)
    residuals, scales = [], []
    for _ in range(count):
        dq0 = rng.standard_normal(cp.dim)
        dq0 /= np.linalg.norm(dq0)
        plus = integrated_cost(cp, cp.q0 + eps * dq0, stepper, N, tol)
        minus = integrated_cost(cp, cp.q0 - eps * dq0, stepper, N, tol)
        fd = (plus - minus) / (2.0 * eps)
        predicted = float(np.dot(grad, dq0))
        residuals.append(abs(fd - predicted))
        scales.append(1.0 + abs(predicted))
    return np.array(residuals), np.array(scales)


# ---------------------------------------------------------------------------
# discrete-adjoint vs adjoint-discretized comparison

def _forward_euler_path(cp: CostProblem, N):
    h = cp.T / N
    qs = np.empty((N + 1, cp.dim))
    qs[0] = cp.q0
    for k in range(N):
        qs[k + 1] = qs[k] + h * np.asarray(cp.f(k * h, qs[k]), dtype=float)
    return h, qs


def commutativity_gap(cp: CostProblem, scheme="symplectic_pair", N=100):
    """Distance between the exact discrete gradient and the discretized adjoint.

    The forward pass is the momentum-explicit partitioned Euler scheme, whose
    q-component for this degenerate structure is plain explicit Euler, with
    left-endpoint quadrature for the running cost.  Route (a) is the exact
    reverse-accumulation gradient of that discrete cost.  Route (b) integrates
    the continuous costate equation backward with the requested partner:

    - ``symplectic_pair``: the same partitioned Euler scheme run in reverse,
      which lands on the identical recursion, so the gap is rounding noise;
    - ``explicit_euler``: plain Euler in reverse time, off by O(h).
    """
    if scheme not in ("symplectic_pair", "explicit_euler"):
        raise ValueError("scheme must be 'symplectic_pair' or 'explicit_euler'")
    prob = make_adjoint_problem(cp)
    h, qs = _forward_euler_path(cp, N)

    # (a) exact gradient of the discrete cost, accumulated in reverse
    lam = np.asarray(cp.dC(qs[N]), dtype=float)
    for k in range(N - 1, -1, -1):
        t = k * h
        lam = lam + h * (prob.d_qf(t, qs[k]).T @ lam) + h * prob.d_qg(t, qs[k])
    grad_discrete = lam

    # (b) continuous costate integrated backward by the partner scheme
    p = np.asarray(cp.dC(qs[N]), dtype=float)
    if scheme == "symplectic_pair":
        for k in range(N - 1, -1, -1):
            t = k * h
            p = p + h * (prob.d_qf(t, qs[k]).T @ p) + h * prob.d_qg(t, qs[k])
    else:
        for k in range(N - 1, -1, -1):
            t1 = (k + 1) * h
            p = p + h * (prob.d_qf(t1, qs[k + 1]).T @ p) + h * prob.d_qg(t1, qs[k + 1])
    return float(np.max(np.abs(grad_discrete - p)))


# ---------------------------------------------------------------------------
# semi-discrete diffusion demonstration

@dataclass(frozen=True)
class DiffusionAdjointReport:
    grad: np.ndarray
    err_vs_oracle: float
    reverse_log10_amplification: float


def dirichlet_laplacian(nx):
    """Second-difference matrix on nx interior points of the unit interval."""
    dx = 1.0 / (nx + 1)
    A = (np.diag(-2.0 * np.ones(nx)) + np.diag(np.ones(nx - 1), 1)
         + np.diag(np.ones(nx - 1), -1)) / dx**2
    return A


def diffusion_adjoint_demo(nx=31, T=0.1, N=2000, stepper="midpoint",
                           tol=DEFAULT_TOL):
    """Sensitivity of 0.5 |q(T)|^2 for semi-discretized heat flow, with oracle.

    The oracle is ``p(0) = exp(A^T T) q(T)`` with ``q(T) = exp(A T) q0`` via a
    dense scaling-and-squaring matrix exponential.  Also reports (without
    asserting) the log10 amplification of the backward-in-time linearization,
    which grows with nx because reverse-time diffusion is ill-posed.
    """
    if nx < 3:
        raise ValueError("need at least 3 interior grid points")
    from scipy.linalg import expm

    A = dirichlet_laplacian(nx)
    x = np.arange(1, nx + 1) / (nx + 1)
    q0 = np.sin(np.pi * x)
    cp = CostProblem(
        f=lambda t, q: A @ q,
        g=None,
        C=lambda q: 0.5 * float(np.dot(q, q)),
        dC=lambda q: np.asarray(q, dtype=float),
        T=T,
        q0=q0,
        D_qf=lambda t, q: A,
        D_qg=lambda t, q: np.zeros(nx),
    )
    grad, _ = sensitivity(cp, stepper=stepper, N=N, tol=tol)
    if T == 0.0:
        oracle = q0.copy()
    else:
        qT = expm(A * T) @ q0
        oracle = expm(A.T * T) @ qT
    err = float(np.max(np.abs(grad - oracle)) / np.max(np.abs(oracle)))
    # eigenvalues of the symmetric A are real-negative; the backward map
    # exp(-A T) amplifies by exp(|lambda_min| T)
    lam = np.linalg.eigvalsh(A)
    log10_amp = float(-lam.min() * T / np.log(10.0))
    return DiffusionAdjointReport(grad=grad, err_vs_oracle=err,
                                  reverse_log10_amplification=log10_amp)
