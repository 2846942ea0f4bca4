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
    check_closure,
    check_horizon,
    fd_gradient,
    integrate,
    partial_of,
    seeded_points,
)
from .bvp import BoundarySpec, solve_type_ii_sweep


@dataclass(frozen=True)
class CostProblem:
    """State dynamics f, running cost g, terminal cost C with gradient dC over
    a horizon T > 0 (:func:`~hamflow.core.check_horizon`), which the sweep
    and the cost march lay out by :func:`~hamflow.core.time_grid`."""

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
        check_horizon(self.T)
        if self.check:
            check_closure("dC", self.dC, lambda q: partial_of(None, self.C, (q,), 0, "fd"),
                          [(q,) for q in seeded_points(self.q0)], 1e-6)
            g = self.g if self.g is not None else (lambda t, q: 0.0)
            # the sweep's backward pass trusts these closures, at t = 0 near q0
            points = [(0.0, q) for q in seeded_points(self.q0)]
            for name, fn in (("D_qf", self.f), ("D_qg", g)):
                check_closure(name, getattr(self, name),
                              lambda *args: partial_of(None, fn, args, 1, "fd"), points, 1e-6)

    @property
    def dim(self):
        return self.q0.size


def make_adjoint_problem(cp: CostProblem) -> MaximallyDegenerateProblem:
    """The augmented Hamiltonian <p, f> + g as a maximally degenerate problem."""
    return MaximallyDegenerateProblem(dim=cp.dim, name="adjoint-augmented", f=cp.f, g=cp.g,
                                      D_qf=cp.D_qf, D_qg=cp.D_qg)


def sensitivity(cp: CostProblem, stepper="midpoint", N=100, tol=DEFAULT_TOL):
    """Gradient of the cost with respect to q0, plus the (q, p) trajectory.

    The sweep's nodes are :func:`~hamflow.core.time_grid`'s, so ``N < 1``
    raises ``ValueError`` before any step."""
    prob = make_adjoint_problem(cp)
    bc = BoundarySpec.type_ii_free(cp.q0, lambda q: np.asarray(cp.dC(q), dtype=float))
    traj = solve_type_ii_sweep(prob, bc, cp.T, stepper=stepper, N=N, tol=tol)
    return traj.ps[0].copy(), traj


def integrated_cost(cp: CostProblem, q0, stepper="midpoint", N=100, tol=DEFAULT_TOL):
    """Direct cost by integrating (q, running cost) with the same scheme on
    :func:`~hamflow.core.time_grid`'s nodes; ``N < 1`` raises ``ValueError``."""
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    n = q0.size

    def augmented(t, x):
        dq = np.asarray(cp.f(t, x[:n]), dtype=float)
        dc = 0.0 if cp.g is None else float(cp.g(t, x[:n]))
        return np.concatenate([dq, [dc]])

    _, xs = integrate(augmented, np.concatenate([q0, [0.0]]), 0.0, cp.T, N, stepper, tol)
    return float(cp.C(xs[-1, :n]) + xs[-1, n])


def gradient_check(cp: CostProblem, stepper="midpoint", N=100, tol=DEFAULT_TOL):
    """Max relative error of the sweep gradient against central differences
    (step 1e-5)."""
    grad, _ = sensitivity(cp, stepper=stepper, N=N, tol=tol)
    fd = fd_gradient(lambda q: integrated_cost(cp, q, stepper, N, tol), cp.q0, step=1e-5)
    return float(np.max(np.abs(fd - grad)) / (1.0 + np.max(np.abs(grad))))


def directional_derivative_check(cp: CostProblem, rng, N=400):
    """Residuals of dJ[dq0] = <p(0), dq0> over 20 random unit initial
    perturbations: the midpoint sweep gradient against central differences
    (step 1e-5) of the midpoint cost, both at Newton tolerance 1e-12."""
    tol = 1e-12
    grad, _ = sensitivity(cp, "midpoint", N, tol=tol)
    residuals, scales = [], []
    for _ in range(20):
        dq0 = rng.standard_normal(cp.dim)
        dq0 /= np.linalg.norm(dq0)
        fd = fd_gradient(lambda s: integrated_cost(cp, cp.q0 + s[0] * dq0, "midpoint", N, tol),
                         [0.0], step=1e-5)[0]
        predicted = float(np.dot(grad, dq0))
        residuals.append(abs(fd - predicted))
        scales.append(1.0 + abs(predicted))
    return np.array(residuals), np.array(scales)


# ---------------------------------------------------------------------------
# discrete-adjoint vs adjoint-discretized comparison

def commutativity_gap(cp: CostProblem, scheme="symplectic_pair", N=100):
    """Distance between the exact discrete gradient and the discretized adjoint.

    Both routes start from one explicit-Euler :func:`~hamflow.core.sweep`.
    Its forward pass is the momentum-explicit partitioned Euler scheme, whose
    q-component for this degenerate structure is plain explicit Euler, with
    left-endpoint quadrature for the running cost.  Route (a) is the exact
    reverse-accumulation gradient of that discrete cost, which is the sweep's
    own backward pass ``p_k = p_{k+1} + h (A^T p_{k+1} + b)`` at (t_k, q_k).
    Route (b) integrates the continuous costate equation backward with the
    requested partner:

    - ``symplectic_pair``: the same partitioned Euler scheme run in reverse.
      Its backward pass is route (a)'s recursion itself, so the gap is
      exactly 0.0 for finite data;
    - ``explicit_euler``: plain Euler in reverse time, its own loop over
      q_{k+1} at t_{k+1}, off by O(h).
    """
    if scheme not in ("symplectic_pair", "explicit_euler"):
        raise ValueError("scheme must be 'symplectic_pair' or 'explicit_euler'")
    prob = make_adjoint_problem(cp)
    times, qs, ps = prob.sweep(cp.q0, cp.dC, cp.T, N, "euler", DEFAULT_TOL)
    h = cp.T / N
    exact = ps[0]                                   # route (a)
    partner = exact
    if scheme == "explicit_euler":                  # route (b)
        partner = np.asarray(cp.dC(qs[N]), dtype=float)
        for k in range(N, 0, -1):
            partner = partner + h * (prob.d_qf(times[k], qs[k]).T @ partner
                                     + prob.d_qg(times[k], qs[k]))
    return float(np.max(np.abs(exact - partner)))


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


def diffusion_adjoint_demo(nx=31, T=0.1, N=2000, tol=DEFAULT_TOL):
    """Midpoint-sweep sensitivity of 0.5 |q(T)|^2 for semi-discrete heat flow, with oracle.

    The oracle is ``p(0) = exp(A^T T) q(T)`` with ``q(T) = exp(A T) q0`` via a
    dense scaling-and-squaring matrix exponential.  Also reports (without
    asserting) the log10 amplification of the backward-in-time linearization,
    which grows with nx because reverse-time diffusion is ill-posed.  The
    sweep runs on :func:`~hamflow.core.time_grid`'s nodes, so a bad N or T
    raises ``ValueError``.
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
    grad, _ = sensitivity(cp, "midpoint", N, tol=tol)
    qT = expm(A * T) @ q0
    oracle = expm(A.T * T) @ qT
    err = float(np.max(np.abs(grad - oracle)) / np.max(np.abs(oracle)))
    # eigenvalues of the symmetric A are real-negative; the backward map
    # exp(-A T) amplifies by exp(|lambda_min| T)
    lam = np.linalg.eigvalsh(A)
    log10_amp = float(-lam.min() * T / np.log(10.0))
    return DiffusionAdjointReport(grad=grad, err_vs_oracle=err,
                                  reverse_log10_amplification=log10_amp)
