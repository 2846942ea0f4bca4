"""Fixed-horizon optimal control via forward-backward sweeps.

Necessary conditions solved: state equation forward from q(0) = q0, costate
equation backward from p(T) = grad C(q(T)), and pointwise control
stationarity D_u H = 0 for the control Hamiltonian

    H(t, q, p, u) = <p, f(t, q, u)> + g(t, q, u).

Stationarity is the fixed point of the relaxed map ``G(u) = u - relax * D_u H``
on the grid, found by Anderson mixing of its last iterates (Anderson,
J. ACM 12, 1965; Walker & Ni, SIAM J. Numer. Anal. 49, 2011).  Controls live
at grid nodes; a stage at fraction c of a step reads the tabulated
``(1 - c) u_k + c u_{k+1}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    NoConvergence,
    Trajectory,
    check_closure,
    check_horizon,
    partial_of,
    seeded_points,
    stepper_name,
    sweep,
    time_grid,
)

# Anderson mixing depth: differences of the last _DEPTH + 1 iterates
_DEPTH = 5


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

    def __post_init__(self):
        object.__setattr__(self, "q0", np.atleast_1d(np.asarray(self.q0, dtype=float)))
        check_horizon(self.T)
        if self.u_dim < 1:
            raise ValueError("need a positive control dimension")

    def validate(self):
        """Check dC and the partials, which the sweep and the control update
        trust, at t = 0 near q0 and u_init."""
        check_closure("dC", self.dC, lambda q: partial_of(None, self.C, (q,), 0, "fd"),
                      [(q,) for q in seeded_points(self.q0)], 1e-6)
        u0 = np.broadcast_to(np.atleast_1d(np.asarray(self.u_init, dtype=float)),
                             (self.u_dim,))
        at_q = [(0.0, q, u0) for q in seeded_points(self.q0)]
        at_u = [(0.0, self.q0, u) for u in seeded_points(u0)]
        for name, fn, i, points in (("D_qf", self.f, 1, at_q), ("D_qg", self.g, 1, at_q),
                                    ("D_uf", self.f, 2, at_u), ("D_ug", self.g, 2, at_u)):
            check_closure(name, getattr(self, name),
                          lambda *args: partial_of(None, fn, args, i, "fd"), points, 1e-6)

    # derivative dispatch (central differences unless supplied) ---------------
    def d_qf(self, t, q, u):
        return partial_of(self.D_qf, self.f, (t, q, u), 1, "fd")

    def d_uf(self, t, q, u):
        return partial_of(self.D_uf, self.f, (t, q, u), 2, "fd")

    def d_qg(self, t, q, u):
        return partial_of(self.D_qg, self.g, (t, q, u), 1, "fd")

    def d_ug(self, t, q, u):
        return partial_of(self.D_ug, self.g, (t, q, u), 2, "fd")


def control_hamiltonian(cp: ControlProblem):
    """The scalar (t, q, p, u) -> <p, f(t,q,u)> + g(t,q,u)."""

    def H(t, q, p, u):
        return float(np.dot(np.asarray(p, dtype=float),
                            np.asarray(cp.f(t, q, u), dtype=float))
                     + cp.g(t, q, u))

    return H


def _partials(cp: ControlProblem):
    """``(D_qf, D_qg, D_uf, D_ug)`` to call: each supplied closure itself, else
    the :class:`ControlProblem` method that differences it."""
    return tuple(supplied if supplied is not None else fallback
                 for supplied, fallback in ((cp.D_qf, cp.d_qf), (cp.D_qg, cp.d_qg),
                                            (cp.D_uf, cp.d_uf), (cp.D_ug, cp.d_ug)))


def _stationarity(D_uf, D_ug, t, q, p, u):
    return (np.asarray(D_uf(t, q, u), dtype=float).T @ np.asarray(p, dtype=float)
            + np.asarray(D_ug(t, q, u), dtype=float))


def control_stationarity(cp: ControlProblem, t, q, p, u):
    """D_u H = (D_u f)^T p + D_u g at a grid point."""
    return _stationarity(*_partials(cp)[2:], t, q, p, u)


def solve_fbsm(cp: ControlProblem, stepper="midpoint", N=100, max_sweeps=200,
               relax=0.5, tol=1e-8, newton_tol=DEFAULT_TOL):
    """Iterate forward-backward sweeps (:func:`~hamflow.core.sweep`) with
    Anderson-mixed control updates.

    Each pass freezes the node controls u_k, sweeps the state forward (a
    midpoint sweep holds one Newton matrix at ``newton_tol``) and the costate
    backward from p(T) = grad C(q(T)) by the adjoint partner of the forward
    scheme, and evaluates the relaxed map ``G(u_k) = u_k - relax * D_u H``.
    The sweep calls the supplied f, D_qf and D_qg itself, and D_u H calls the
    supplied D_uf and D_ug; a partial that is not supplied is differenced
    (:meth:`ControlProblem.d_qf`, ``d_qg``, ``d_uf``, ``d_ug``), so
    :func:`~hamflow.core.partial_of` runs only for those.
    The next controls mix the last ``_DEPTH + 1`` iterates: with
    ``F_k = G(u_k) - u_k`` and the column differences dF, dG of the kept F's
    and G's, they are ``G(u_k) - dG gamma``, where gamma solves the normal
    equations ``dF^T dF gamma = dF^T F_k``.  The first update is the plain
    step ``G(u_k)``; so is an update whose gamma is singular or non-finite,
    and it then keeps only the newest history entry.  Returns
    ``(trajectory_with_controls, residual)`` where the residual is
    ``max_t |D_u H|`` on the nodes of :func:`~hamflow.core.time_grid`, which
    raises ``ValueError`` for a bad N first.  Raises :class:`NoConvergence`
    carrying the best iterate when ``max_sweeps`` is exhausted.
    """
    times, _ = time_grid(cp.T, N)
    if not 0.0 < relax <= 1.0:
        raise ValueError("relax must lie in (0, 1]")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite")
    m = cp.u_dim
    u_init = np.atleast_1d(np.asarray(cp.u_init, dtype=float))
    try:
        u = np.broadcast_to(u_init, (N + 1, m)).copy()
    except ValueError:
        raise ValueError(f"u_init of shape {u_init.shape} fits neither u_dim = {m} "
                         f"nor an (N+1, u_dim) = ({N + 1}, {m}) table") from None

    D_qf, D_qg, D_uf, D_ug = _partials(cp)
    best = None                     # (u, qs, ps, sweeps, residual)
    fs, gs = [], []                 # the last F_k and G(u_k), flattened
    residual = np.inf
    for n_sweeps in range(1, max_sweeps + 1):
        _, qs, ps = sweep(cp.f, D_qf, D_qg, u, cp.q0, cp.dC, cp.T, N, stepper, newton_tol)
        grad = np.empty((N + 1, m))
        for k in range(N + 1):
            grad[k] = _stationarity(D_uf, D_ug, times[k], qs[k], ps[k], u[k])
        residual = float(np.max(np.abs(grad)))
        if best is None or residual < best[4]:
            best = (u, qs, ps, n_sweeps, residual)
        if residual <= tol:
            return _fbsm_trajectory(stepper, times, u, qs, ps, n_sweeps, residual), residual
        fs.append(-relax * grad.ravel())
        gs.append(u.ravel() + fs[-1])
        del fs[:-_DEPTH - 1], gs[:-_DEPTH - 1]
        u = gs[-1]
        if len(fs) > 1:
            dF, dG = np.diff(fs, axis=0).T, np.diff(gs, axis=0).T
            try:
                gamma = np.linalg.solve(dF.T @ dF, dF.T @ fs[-1])
            except np.linalg.LinAlgError:
                gamma = None
            if gamma is not None and np.all(np.isfinite(gamma)):
                u = u - dG @ gamma
            else:
                del fs[:-1], gs[:-1]
        u = u.reshape(N + 1, m)
    raise NoConvergence(f"FBSM residual {residual:.3e} after {max_sweeps} sweeps",
                        residual=best[4], best=(_fbsm_trajectory(stepper, times, *best), best[4]))


def _fbsm_trajectory(stepper, times, u, qs, ps, sweeps, residual):
    return Trajectory(times=times, states=np.hstack([qs, ps]), controls=u,
                      metadata={"solver": "fbsm", "stepper": stepper_name(stepper),
                                "sweeps": sweeps, "residual": residual})


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
