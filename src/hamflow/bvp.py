"""Boundary-value solvers for Hamilton's equations and completeness diagnostics.

Five boundary-condition types are supported (initial-value data, two fixed
positions, position/momentum pairs at opposite ends, two fixed momenta) plus
the free variant where the terminal momentum is prescribed as a section
``p1(q)`` of the cotangent bundle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    HamiltonianProblem,
    MaximallyDegenerateProblem,
    PhasePoint,
    Trajectory,
    fd_gradient,
    integrate,
    newton_solve,
    phase_field,
    stepper_name,
    stepper_with_tol,
)


class BoundaryKind(enum.Enum):
    TYPE0 = "Type 0"
    TYPE_I = "Type I"
    TYPE_II = "Type II"
    TYPE_III = "Type III"
    TYPE_IV = "Type IV"
    TYPE_II_FREE = "Type II free"


@dataclass(frozen=True)
class BoundarySpec:
    """One of the five boundary-condition types, or the free terminal section.

    Exactly the data required by ``kind`` must be present; dimensions are
    validated against the problem when solving.
    """

    kind: BoundaryKind
    q0: np.ndarray | None = None
    p0: np.ndarray | None = None
    q1: np.ndarray | None = None
    p1: np.ndarray | None = None
    p1_section: Callable | None = None

    _REQUIRED = {
        BoundaryKind.TYPE0: ("q0", "p0"),
        BoundaryKind.TYPE_I: ("q0", "q1"),
        BoundaryKind.TYPE_II: ("q0", "p1"),
        BoundaryKind.TYPE_III: ("p0", "q1"),
        BoundaryKind.TYPE_IV: ("p0", "p1"),
        BoundaryKind.TYPE_II_FREE: ("q0", "p1_section"),
    }

    def __post_init__(self):
        for name in ("q0", "p0", "q1", "p1"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, np.atleast_1d(np.asarray(val, dtype=float)))
        required = self._REQUIRED[self.kind]
        for name in required:
            if getattr(self, name) is None:
                raise ValueError(f"{self.kind.value} requires {name}")
        for name in ("q0", "p0", "q1", "p1", "p1_section"):
            if name not in required and getattr(self, name) is not None:
                raise ValueError(f"{self.kind.value} does not take {name}")

    # convenience constructors ------------------------------------------------
    @staticmethod
    def type0(q0, p0):
        return BoundarySpec(BoundaryKind.TYPE0, q0=q0, p0=p0)

    @staticmethod
    def type_i(q0, q1):
        return BoundarySpec(BoundaryKind.TYPE_I, q0=q0, q1=q1)

    @staticmethod
    def type_ii(q0, p1):
        return BoundarySpec(BoundaryKind.TYPE_II, q0=q0, p1=p1)

    @staticmethod
    def type_iii(p0, q1):
        return BoundarySpec(BoundaryKind.TYPE_III, p0=p0, q1=q1)

    @staticmethod
    def type_iv(p0, p1):
        return BoundarySpec(BoundaryKind.TYPE_IV, p0=p0, p1=p1)

    @staticmethod
    def type_ii_free(q0, p1_section):
        return BoundarySpec(BoundaryKind.TYPE_II_FREE, q0=q0, p1_section=p1_section)


@dataclass(frozen=True)
class CompletenessReport:
    """Singular-value verdict on the linearized shooting map.

    The cutoff is a numerical surrogate for completeness, not a symbolic
    proof; ``verdict`` is ``complete`` iff ``min_singular_value > threshold``.
    """

    kind: BoundaryKind
    min_singular_value: float
    condition_estimate: float
    verdict: str
    threshold: float
    note: str = "singular-value surrogate, sample-relative"


# ---------------------------------------------------------------------------
# forward solves

def solve_ivp(prob: HamiltonianProblem, z0: PhasePoint, T, stepper="midpoint",
              N=100, t0=0.0, tol=DEFAULT_TOL):
    """Initial-value solve: N steps of the one-step map from z0 over [t0, t0+T]."""
    field = phase_field(prob)
    stepfn = stepper_with_tol(stepper, tol)
    times, zs = integrate(field, z0.as_array(), t0, T, N, stepper=stepfn)
    return Trajectory(times=times, states=zs,
                      metadata={"solver": "ivp", "stepper": stepper_name(stepper)})


# ---------------------------------------------------------------------------
# single shooting

def _shooting_split(bc: BoundarySpec, n):
    """Unknown initial block, initial-state assembler, and terminal residual."""
    if bc.kind == BoundaryKind.TYPE_I:
        return bc.p0, (lambda u: np.concatenate([bc.q0, u])), (lambda z: z[:n] - bc.q1)
    if bc.kind == BoundaryKind.TYPE_II:
        return None, (lambda u: np.concatenate([bc.q0, u])), (lambda z: z[n:] - bc.p1)
    if bc.kind == BoundaryKind.TYPE_II_FREE:
        return None, (lambda u: np.concatenate([bc.q0, u])), (
            lambda z: z[n:] - np.asarray(bc.p1_section(z[:n]), dtype=float))
    if bc.kind == BoundaryKind.TYPE_III:
        return None, (lambda u: np.concatenate([u, bc.p0])), (lambda z: z[:n] - bc.q1)
    if bc.kind == BoundaryKind.TYPE_IV:
        return None, (lambda u: np.concatenate([u, bc.p0])), (lambda z: z[n:] - bc.p1)
    raise ValueError(f"shooting does not apply to {bc.kind.value}; use solve_ivp")


def solve_shooting(prob: HamiltonianProblem, bc: BoundarySpec, T, stepper="midpoint",
                   N=100, guess=None, t0=0.0, tol=DEFAULT_TOL,
                   max_iter=DEFAULT_MAX_ITER):
    """Newton on the terminal boundary mismatch over the unknown initial block.

    A singular shooting Jacobian (the expected signal for incomplete boundary
    conditions on degenerate problems) raises :class:`SingularJacobian`.
    """
    n = prob.dim
    if bc.kind == BoundaryKind.TYPE0:
        return solve_ivp(prob, PhasePoint(bc.q0, bc.p0), T, stepper, N, t0=t0, tol=tol)
    _, assemble, terminal = _shooting_split(bc, n)
    field = phase_field(prob)
    stepfn = stepper_with_tol(stepper, tol)

    def residual(u):
        _, zs = integrate(field, assemble(u), t0, T, N, stepper=stepfn)
        return terminal(zs[-1])

    if guess is None:
        guess = np.zeros(n)
    result = newton_solve(residual, guess, tol=tol, max_iter=max_iter)
    times, zs = integrate(field, assemble(result.x), t0, T, N, stepper=stepfn)
    meta = {"solver": "shooting", "stepper": stepper_name(stepper),
            "kind": bc.kind.value, "newton_residual": result.residual,
            "newton_iterations": result.iterations}
    return Trajectory(times=times, states=zs, metadata=meta)


# ---------------------------------------------------------------------------
# forward/backward sweep for maximally degenerate problems

def _grid_interpolant(times, values):
    """Piecewise-linear interpolant of row-stacked grid values (vectorized)."""
    t0, t_end = times[0], times[-1]

    def at(t):
        t = min(max(float(t), t0), t_end)
        idx = int(np.searchsorted(times, t, side="right")) - 1
        idx = min(max(idx, 0), times.size - 2)
        w = (t - times[idx]) / (times[idx + 1] - times[idx])
        return (1.0 - w) * values[idx] + w * values[idx + 1]

    return at

def solve_type_ii_sweep(prob: MaximallyDegenerateProblem, bc: BoundarySpec, T,
                        stepper="midpoint", N=100, t0=0.0, tol=DEFAULT_TOL):
    """Two decoupled passes; no shooting and no Newton over trajectories.

    Forward: dq/dt = f(t, q) from q(0) = q0.  Backward: the linear equation
    dp/dt = -[D_q f]^T p - D_q g integrated in reverse time with the same
    one-step scheme from p(T) (vector data or section applied to q(T)); grid
    values of q are interpolated linearly at interior stage times, which for
    the time-symmetric midpoint scheme reproduces the forward stage values so
    the sweep inverts the coupled update exactly.
    """
    if bc.kind not in (BoundaryKind.TYPE_II, BoundaryKind.TYPE_II_FREE):
        raise ValueError("sweep applies to fixed or free terminal-momentum data")
    if not isinstance(prob, MaximallyDegenerateProblem):
        raise TypeError("sweep requires the split structure f, g")
    stepfn = stepper_with_tol(stepper, tol)

    f_q = lambda t, q: prob.f_value(t, q)
    times, qs = integrate(f_q, bc.q0, t0, T, N, stepper=stepfn)
    q_at = _grid_interpolant(times, qs)

    qT = qs[-1]
    p1 = bc.p1 if bc.kind == BoundaryKind.TYPE_II else np.asarray(bc.p1_section(qT), dtype=float)

    t_end = t0 + T

    def reversed_field(s, p):
        t = t_end - s
        q = q_at(t)
        return prob.d_qf(t, q).T @ p + prob.d_qg(t, q)

    _, ps_rev = integrate(reversed_field, p1, 0.0, T, N, stepper=stepfn)
    return Trajectory(times=times, states=np.hstack([qs, ps_rev[::-1]]),
                      metadata={"solver": "type-ii-sweep",
                                "stepper": stepper_name(stepper),
                                "kind": bc.kind.value})


# ---------------------------------------------------------------------------
# completeness diagnostic

def completeness_diagnostic(prob: HamiltonianProblem, kind: BoundaryKind, T,
                            stepper="midpoint", N=100, base_point=None, t0=0.0,
                            threshold_scale=1e-8, tol=DEFAULT_TOL):
    """Singular values of the linearized shooting map about the base solution.

    Perturbs each unknown initial component and reads the terminal fixed
    components by central differences (:func:`~hamflow.core.fd_gradient`).
    Initial-value data pin the state directly, so that row is reported with
    unit sensitivity.
    """
    n = prob.dim
    if base_point is None:
        raise ValueError("base_point is required")
    if kind == BoundaryKind.TYPE0:
        min_sv, max_sv = 1.0, 1.0
    else:
        field = phase_field(prob)
        stepfn = stepper_with_tol(stepper, tol)
        base = base_point.as_array()

        unknown_is_momentum = kind in (BoundaryKind.TYPE_I, BoundaryKind.TYPE_II)
        terminal_is_position = kind in (BoundaryKind.TYPE_I, BoundaryKind.TYPE_III)

        def terminal(u):
            z0 = base.copy()
            if unknown_is_momentum:
                z0[n:] = u
            else:
                z0[:n] = u
            _, zs = integrate(field, z0, t0, T, N, stepper=stepfn)
            return zs[-1, :n] if terminal_is_position else zs[-1, n:]

        M = fd_gradient(terminal, base[n:] if unknown_is_momentum else base[:n])
        svals = np.linalg.svd(M, compute_uv=False)
        min_sv, max_sv = float(svals.min()), float(svals.max())

    threshold = threshold_scale * max(max_sv, np.finfo(float).tiny)
    verdict = "complete" if min_sv > threshold else "incomplete"
    cond = max_sv / min_sv if min_sv > 0 else np.inf
    return CompletenessReport(kind=kind, min_singular_value=min_sv,
                              condition_estimate=cond, verdict=verdict,
                              threshold=threshold)


# ---------------------------------------------------------------------------
# action functionals and virtual-work checks

def time_reversed_problem(prob: HamiltonianProblem, T):
    """The problem whose flow retraces prob backwards over [0, T]."""
    return HamiltonianProblem(
        dim=prob.dim,
        H=lambda t, q, p: -prob.H(T - t, q, p),
        D_qH=lambda t, q, p: -prob.d_q(T - t, q, p),
        D_pH=lambda t, q, p: -prob.d_p(T - t, q, p),
        D_ppH=lambda t, q, p: -prob.d_pp(T - t, q, p),
        D_tH=lambda t, q, p: prob.d_t(T - t, q, p),
        derivative_mode="analytic",
        name=f"time-reversed({prob.name})",
    )


def discretized_action(prob: HamiltonianProblem, times, qs, ps):
    """Midpoint-quadrature action sum over a discrete phase-space path.

    The implicit-midpoint trajectory is a stationary point of this sum with
    respect to all interior and terminal grid values, which is what makes the
    virtual-work identities below hold to differencing accuracy.
    """
    total = 0.0
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        q_bar = 0.5 * (qs[k] + qs[k + 1])
        p_bar = 0.5 * (ps[k] + ps[k + 1])
        t_mid = times[k] + 0.5 * h
        total += float(np.dot(p_bar, qs[k + 1] - qs[k]))
        total -= h * prob.value(t_mid, q_bar, p_bar)
    return total


def polynomial_variations(rng, times, n, count, vanish_at_zero=True):
    """Random cubic-in-time variation fields (dq, dp); dq(0) = 0 when requested."""
    T = times[-1] - times[0]
    tau = (times - times[0]) / T
    out = []
    for _ in range(count):
        q_coeff = rng.standard_normal((3, n))
        p_coeff = rng.standard_normal((4, n))
        dq = sum(np.outer(tau ** (k + 1), q_coeff[k]) for k in range(3))
        if not vanish_at_zero:
            dq = dq + rng.standard_normal(n)
        dp = sum(np.outer(tau**k, p_coeff[k]) for k in range(4))
        out.append((dq, dp))
    return out


def virtual_work_residuals(prob, traj: Trajectory, p1, rng, count=20, eps=1e-4):
    """|dS - p1 . dq(T)| for seeded random variations with dq(0) = 0.

    Returns (residuals, scales); the action variation is a central difference
    of the discretized action along the varied path.
    """
    times, qs, ps = traj.times, traj.qs, traj.ps
    p1 = np.asarray(p1, dtype=float)
    residuals, scales = [], []
    for dq, dp in polynomial_variations(rng, times, prob.dim, count):
        s_plus = discretized_action(prob, times, qs + eps * dq, ps + eps * dp)
        s_minus = discretized_action(prob, times, qs - eps * dq, ps - eps * dp)
        d_action = (s_plus - s_minus) / (2.0 * eps)
        work = float(np.dot(p1, dq[-1]))
        residuals.append(abs(d_action - work))
        scales.append(1.0 + abs(work) + abs(discretized_action(prob, times, qs, ps)))
    return np.array(residuals), np.array(scales)


def free_boundary_stationarity_residuals(prob, traj: Trajectory, terminal_cost,
                                         rng, count=20, eps=1e-4):
    """|d(C(q(T)) - S)| under partial variations, for p1 = grad C solutions."""
    times, qs, ps = traj.times, traj.qs, traj.ps
    residuals, scales = [], []
    for dq, dp in polynomial_variations(rng, times, prob.dim, count):
        def functional(sign):
            q_var = qs + sign * eps * dq
            p_var = ps + sign * eps * dp
            return (terminal_cost(q_var[-1])
                    - discretized_action(prob, times, q_var, p_var))
        d_j = (functional(+1.0) - functional(-1.0)) / (2.0 * eps)
        residuals.append(abs(d_j))
        scales.append(1.0 + abs(terminal_cost(qs[-1]))
                      + abs(discretized_action(prob, times, qs, ps)))
    return np.array(residuals), np.array(scales)
