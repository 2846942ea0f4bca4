"""Fixed-horizon optimal control via forward-backward sweeps.

Necessary conditions solved: state equation forward from q(0) = q0, costate
equation backward from p(T) = grad C(q(T)), and pointwise control
stationarity D_u H = 0 for the control Hamiltonian

    H(t, q, p, u) = <p, f(t, q, u)> + g(t, q, u),

realized as damped gradient steps ``u <- u - relax * D_u H`` on the grid.
Controls live at grid nodes and are interpolated linearly at stage times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    NoConvergence,
    Trajectory,
    fd_gradient,
    integrate,
    stepper_with_tol,
)
from .bvp import _grid_interpolant


@dataclass(frozen=True)
class ControlProblem:
    """Controlled dynamics and costs; derivative closures are optional."""

    f: Callable                     # (t, q, u) -> n-vector
    g: Callable                     # (t, q, u) -> scalar
    C: Callable                     # q -> scalar
    dC: Callable                    # q -> n-vector
    q0: np.ndarray
    T: float
    u_dim: int
    u_init: np.ndarray | float = 0.0
    D_qf: Callable | None = None    # (t, q, u) -> (n, n)
    D_uf: Callable | None = None    # (t, q, u) -> (n, u_dim)
    D_qg: Callable | None = None
    D_ug: Callable | None = None
    check: bool = False

    def __post_init__(self):
        object.__setattr__(self, "q0", np.atleast_1d(np.asarray(self.q0, dtype=float)))
        if self.T <= 0 or self.u_dim < 1:
            raise ValueError("need positive horizon and control dimension")
        if self.check:
            rng = np.random.default_rng(20240817)
            for _ in range(5):
                q = self.q0 + rng.uniform(-0.5, 0.5, self.dim)
                ref = fd_gradient(self.C, q)
                if np.max(np.abs(np.asarray(self.dC(q), dtype=float) - ref)) \
                        > 1e-6 * (1.0 + np.max(np.abs(ref))):
                    raise ValueError("dC disagrees with central differences of C")

    @property
    def dim(self):
        return self.q0.size

    # derivative dispatch (central differences unless supplied) ---------------
    def d_qf(self, t, q, u):
        if self.D_qf is not None:
            return np.asarray(self.D_qf(t, q, u), dtype=float)
        return fd_gradient(lambda qq: np.asarray(self.f(t, qq, u), dtype=float), q)

    def d_uf(self, t, q, u):
        if self.D_uf is not None:
            return np.asarray(self.D_uf(t, q, u), dtype=float)
        return fd_gradient(lambda uu: np.asarray(self.f(t, q, uu), dtype=float), u)

    def d_qg(self, t, q, u):
        if self.D_qg is not None:
            return np.asarray(self.D_qg(t, q, u), dtype=float)
        return fd_gradient(lambda qq: self.g(t, qq, u), q)

    def d_ug(self, t, q, u):
        if self.D_ug is not None:
            return np.asarray(self.D_ug(t, q, u), dtype=float)
        return fd_gradient(lambda uu: self.g(t, q, uu), u)


def control_hamiltonian(cp: ControlProblem):
    """The scalar (t, q, p, u) -> <p, f(t,q,u)> + g(t,q,u)."""

    def H(t, q, p, u):
        return float(np.dot(np.asarray(p, dtype=float),
                            np.asarray(cp.f(t, q, u), dtype=float))
                     + cp.g(t, q, u))

    return H


def control_stationarity(cp: ControlProblem, t, q, p, u):
    """D_u H = (D_u f)^T p + D_u g at a grid point."""
    return cp.d_uf(t, q, u).T @ np.asarray(p, dtype=float) + cp.d_ug(t, q, u)


def solve_fbsm(cp: ControlProblem, stepper="midpoint", N=100, max_sweeps=200,
               relax=0.5, tol=1e-8, newton_tol=DEFAULT_TOL):
    """Iterate forward state / backward costate / control-gradient updates.

    Returns ``(trajectory_with_controls, residual)`` where the residual is
    ``max_t |D_u H|`` on the grid.  Raises :class:`NoConvergence` carrying the
    best iterate when ``max_sweeps`` is exhausted.
    """
    if not 0.0 < relax <= 1.0:
        raise ValueError("relax must lie in (0, 1]")
    m = cp.u_dim
    times = np.linspace(0.0, cp.T, N + 1)
    u = np.broadcast_to(np.atleast_1d(np.asarray(cp.u_init, dtype=float)),
                        (N + 1, m)).copy()
    stepfn = stepper_with_tol(stepper, newton_tol)

    best = None
    residual = np.inf
    for sweep in range(max_sweeps):
        u_of_t = _grid_interpolant(times, u)

        def state_field(t, q):
            return np.asarray(cp.f(t, q, u_of_t(t)), dtype=float)

        _, qs = integrate(state_field, cp.q0, 0.0, cp.T, N, stepper=stepfn)

        q_of_t = _grid_interpolant(times, qs)
        pT = np.asarray(cp.dC(qs[-1]), dtype=float)

        def reversed_costate(s, p):
            t = cp.T - s
            q = q_of_t(t)
            uu = u_of_t(t)
            return cp.d_qf(t, q, uu).T @ p + cp.d_qg(t, q, uu)

        _, ps_rev = integrate(reversed_costate, pT, 0.0, cp.T, N, stepper=stepfn)
        ps = ps_rev[::-1]

        grad = np.empty((N + 1, m))
        for k in range(N + 1):
            grad[k] = control_stationarity(cp, times[k], qs[k], ps[k], u[k])
        residual = float(np.max(np.abs(grad)))
        traj = Trajectory(times=times, states=np.hstack([qs, ps]), controls=u,
                          metadata={"solver": "fbsm", "sweeps": sweep + 1,
                                    "residual": residual})
        if best is None or residual < best[1]:
            best = (traj, residual)
        if residual <= tol:
            return traj, residual
        u = u - relax * grad
    raise NoConvergence(f"FBSM residual {residual:.3e} after {max_sweeps} sweeps",
                        residual=best[1], best=best)


def pontryagin_residuals(cp: ControlProblem, traj: Trajectory):
    """The five optimality defects on the grid, in midpoint form.

    Returns a dict with the max state-equation defect, costate defect,
    |D_u H|, initial-condition error, and terminal-condition error.
    """
    times, qs, ps, u = traj.times, traj.qs, traj.ps, traj.controls
    state_defect = costate_defect = stationarity = 0.0
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        t_mid = times[k] + 0.5 * h
        q_bar = 0.5 * (qs[k] + qs[k + 1])
        p_bar = 0.5 * (ps[k] + ps[k + 1])
        u_bar = 0.5 * (u[k] + u[k + 1])
        f_mid = np.asarray(cp.f(t_mid, q_bar, u_bar), dtype=float)
        state_defect = max(state_defect,
                           float(np.max(np.abs(qs[k + 1] - qs[k] - h * f_mid))))
        rhs = -(cp.d_qf(t_mid, q_bar, u_bar).T @ p_bar) - cp.d_qg(t_mid, q_bar, u_bar)
        costate_defect = max(costate_defect,
                             float(np.max(np.abs(ps[k + 1] - ps[k] - h * rhs))))
    for k in range(len(times)):
        stationarity = max(stationarity, float(np.max(np.abs(
            control_stationarity(cp, times[k], qs[k], ps[k], u[k])))))
    return {
        "state_defect": state_defect,
        "costate_defect": costate_defect,
        "stationarity": stationarity,
        "initial_error": float(np.max(np.abs(qs[0] - cp.q0))),
        "terminal_error": float(np.max(np.abs(ps[-1] - np.asarray(cp.dC(qs[-1]),
                                                                  dtype=float)))),
    }
