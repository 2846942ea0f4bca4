"""Discrete Hamiltonians (one-step generating functions) and their diagnostics.

A discrete Hamiltonian ``Hd(q0, p1)`` generates a symplectic one-step map
through its two partial derivatives::

    p0 = D1 Hd(q0, p1),        q1 = D2 Hd(q0, p1).

The Galerkin construction extremizes the bracket

    p1 . q(h)  -  h * sum_j b_j [ p_j . qdot(c_j h) - H(t + c_j h, q(c_j h), p_j) ]

over a degree-s position polynomial pinned at q(0) = q0 and over momentum
values at the quadrature nodes only; no function space for the momentum curve
is ever chosen.  Time-dependent Hamiltonians are supported by evaluating the
stages at ``t_k + c_j h``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DegenerateRegression,
    HamiltonianProblem,
    LegendreInversionFailure,
    PhasePoint,
    RankDeficientStageSystem,
    SingularJacobian,
    Trajectory,
    UnsupportedScheme,
    fd_gradient,
    newton_solve,
    phase_field,
    resolve_stepper,
    rk4_step,
)


@dataclass(frozen=True)
class GalerkinScheme:
    """Degree of the position polynomial plus a quadrature rule on [0, 1]."""

    degree: int
    nodes: np.ndarray
    weights: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must be 1-d with equal length")
        if np.any(self.nodes < 0.0) or np.any(self.nodes > 1.0):
            raise ValueError("quadrature nodes must lie in [0, 1]")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")

    @staticmethod
    def midpoint():
        return GalerkinScheme(1, np.array([0.5]), np.array([1.0]), label="midpoint")

    @staticmethod
    def gauss(s):
        """Degree-s position space with the s-point Gauss rule mapped to [0, 1]."""
        x, w = np.polynomial.legendre.leggauss(s)
        return GalerkinScheme(s, 0.5 * (x + 1.0), 0.5 * w, label=f"gauss{s}")


@dataclass(frozen=True)
class StageSolution:
    """Extremizing internal data: position coefficients and node momenta."""

    coeffs: np.ndarray     # (s, n) polynomial coefficients, q(0) pinned
    momenta: np.ndarray    # (m, n) momentum values at the quadrature nodes
    residual: float


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """One-step generating function with its two partials.

    ``value``, ``D1`` and ``D2`` take ``(t, q0, p1)``; autonomous problems
    ignore ``t``.  ``solve_step`` is an optional fused solver
    ``(t, q0, p0) -> (q1, p1)`` for the induced map.
    """

    h: float
    value: Callable
    D1: Callable | None = None
    D2: Callable | None = None
    label: str = ""
    solve_step: Callable | None = None


def _stage_geometry(scheme: GalerkinScheme):
    s, c = scheme.degree, scheme.nodes
    powers = np.array([c**i for i in range(1, s + 1)])          # (s, m): c_j^i
    dpowers = np.array([i * c ** (i - 1) for i in range(1, s + 1)])  # (s, m)
    return s, scheme.nodes, scheme.weights, powers, dpowers


def _galerkin_stages(prob, scheme, h, t, q0, p, fused=False,
                     tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Solve the stationarity system of the bracket; returns (stages, p1).

    ``p`` is the fixed p1.  With ``fused=True`` it is p0 instead: p1 joins
    the unknowns and the discrete equation ``p0 = D1`` closes the system, so
    one Newton solve advances the one-step map.
    """
    n = prob.dim
    s, c, b, powers, dpowers = _stage_geometry(scheme)
    m = c.size
    k = (s + m) * n
    size = k + n if fused else k

    def unpack(y):
        return y[: s * n].reshape(s, n), y[s * n:k].reshape(m, n), (y[k:] if fused else p)

    def residual(y):
        a, ps, p1 = unpack(y)
        r = np.empty(size)
        qs = q0 + powers.T @ a                      # (m, n) stage positions
        qdots = (dpowers.T @ a) / h                 # (m, n) stage velocities
        dq_list = [prob.d_q(t + c[j] * h, qs[j], ps[j]) for j in range(m)]
        for j in range(m):
            r[(s + j) * n:(s + j + 1) * n] = qdots[j] - prob.d_p(t + c[j] * h, qs[j], ps[j])
        for i in range(s):
            acc = p1.copy()
            for j in range(m):
                acc = acc - b[j] * dpowers[i, j] * ps[j] + h * b[j] * powers[i, j] * dq_list[j]
            r[i * n:(i + 1) * n] = acc
        if fused:
            back = p1.copy()
            for j in range(m):
                back = back + h * b[j] * dq_list[j]
            r[k:] = back - p
        return r

    guess = np.zeros(size)
    guess[:n] = h * prob.d_p(t, q0, p)              # a_1 ~ h * velocity
    guess[s * n:] = np.tile(p, size // n - s)       # node momenta (and p1) ~ p
    try:
        result = newton_solve(residual, guess, tol=tol, max_iter=max_iter)
    except SingularJacobian as exc:
        raise RankDeficientStageSystem(str(exc)) from exc
    a, ps, p1 = unpack(result.x)
    return StageSolution(coeffs=a, momenta=ps, residual=result.residual), p1


def galerkin_discrete_hamiltonian(prob: HamiltonianProblem, scheme: GalerkinScheme,
                                  h, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Discrete Hamiltonian from extremizing the quadrature bracket.

    The partials use the envelope property of the extremum:
    ``D1 = p1 + h sum_j b_j D_qH(stage_j)`` and ``D2 = q(h)``.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    _, c, b, powers, dpowers = _stage_geometry(scheme)
    m = c.size

    def stages(t, q0, p1):
        return _galerkin_stages(prob, scheme, h, t, np.asarray(q0, dtype=float),
                                np.asarray(p1, dtype=float), tol=tol, max_iter=max_iter)[0]

    def bracket(t, q0, p1, st):
        qs = q0 + powers.T @ st.coeffs
        qdots = (dpowers.T @ st.coeffs) / h
        q_end = q0 + st.coeffs.sum(axis=0)
        total = float(np.dot(p1, q_end))
        for j in range(m):
            tj = t + c[j] * h
            total -= h * b[j] * (float(np.dot(st.momenta[j], qdots[j]))
                                 - prob.value(tj, qs[j], st.momenta[j]))
        return total

    def value(t, q0, p1):
        q0 = np.asarray(q0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        return bracket(t, q0, p1, stages(t, q0, p1))

    def D1(t, q0, p1):
        q0 = np.asarray(q0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        st = stages(t, q0, p1)
        qs = q0 + powers.T @ st.coeffs
        out = p1.copy()
        for j in range(m):
            out = out + h * b[j] * prob.d_q(t + c[j] * h, qs[j], st.momenta[j])
        return out

    def D2(t, q0, p1):
        q0 = np.asarray(q0, dtype=float)
        st = stages(t, q0, np.asarray(p1, dtype=float))
        return q0 + st.coeffs.sum(axis=0)

    def solve_step(t, q0, p0):
        # fused solve: stages, p1, and the discrete equation p0 = D1 jointly
        q0 = np.asarray(q0, dtype=float)
        st, p1 = _galerkin_stages(prob, scheme, h, t, q0, np.asarray(p0, dtype=float),
                                  fused=True, tol=tol, max_iter=max_iter)
        return q0 + st.coeffs.sum(axis=0), p1

    label = scheme.label or f"galerkin(s={scheme.degree}, m={m})"
    return DiscreteHamiltonian(h=h, value=value, D1=D1, D2=D2, label=label,
                               solve_step=solve_step)


def midpoint_discrete_hamiltonian(prob: HamiltonianProblem, h,
                                  tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Degree-1 single-node (c = 1/2) scheme; generates implicit midpoint."""
    return galerkin_discrete_hamiltonian(prob, GalerkinScheme.midpoint(), h,
                                         tol=tol, max_iter=max_iter)


def step(dH: DiscreteHamiltonian, t_k, z_k: PhasePoint,
         tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Advance one step: solve ``p_k = D1(q_k, p1)`` for p1, then ``q1 = D2``."""
    if dH.solve_step is not None:
        q1, p1 = dH.solve_step(t_k, z_k.q, z_k.p)
        return PhasePoint(q1, p1)
    if dH.D1 is None or dH.D2 is None:
        raise ValueError("discrete Hamiltonian lacks both partials and a fused solver")

    def residual(p1):
        return dH.D1(t_k, z_k.q, p1) - z_k.p

    p1 = newton_solve(residual, z_k.p, tol=tol, max_iter=max_iter).x
    return PhasePoint(dH.D2(t_k, z_k.q, p1), p1)


def fiber_derivatives(dH: DiscreteHamiltonian, q0, p1, t=0.0):
    """The two one-sided Legendre-type maps (plus, minus) of the generator."""
    q0 = np.asarray(q0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    plus = PhasePoint(dH.D2(t, q0, p1), p1)
    minus = PhasePoint(q0, dH.D1(t, q0, p1))
    return plus, minus


def integrate_map(dH: DiscreteHamiltonian, z0: PhasePoint, t0, N,
                  tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Iterate the one-step map N times; returns a :class:`Trajectory`."""
    times = t0 + dH.h * np.arange(N + 1)
    n = z0.dim
    zs = np.empty((N + 1, 2 * n))
    zs[0, :n], zs[0, n:] = z0.q, z0.p
    z = z0
    for k in range(N):
        z = step(dH, times[k], z, tol=tol, max_iter=max_iter)
        zs[k + 1, :n], zs[k + 1, n:] = z.q, z.p
    return Trajectory(times=times, states=zs,
                      metadata={"solver": f"map:{dH.label}", "h": dH.h})


# ---------------------------------------------------------------------------
# exact one-step generating function

def exact_discrete_hamiltonian(prob: HamiltonianProblem, q0, p1, h,
                               tol=1e-10, t0=0.0):
    """Boundary term minus action along the resolved two-point solution on [0, h].

    Shoots on p(0) with a fine fourth-order reference grid, evaluates
    ``p(h).q(h) - int [p.qdot - H] dt`` by composite Simpson, and refines the
    grid until the value is stable to ``tol``.
    """
    q0 = np.asarray(q0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    n = prob.dim
    field = phase_field(prob)
    newton_tol = min(1e-12, 0.1 * tol)

    def solve_grid(N, p0_guess):
        hs = h / N

        def final_p(p0):
            z = np.concatenate([q0, p0])
            for k in range(N):
                z = rk4_step(field, t0 + k * hs, z, hs)
            return z[n:] - p1

        p0 = newton_solve(final_p, p0_guess, tol=newton_tol, max_iter=DEFAULT_MAX_ITER).x
        zs = np.empty((N + 1, 2 * n))
        zs[0] = np.concatenate([q0, p0])
        for k in range(N):
            zs[k + 1] = rk4_step(field, t0 + k * hs, zs[k], hs)
        integrand = np.empty(N + 1)
        for k in range(N + 1):
            t = t0 + k * hs
            q, p = zs[k, :n], zs[k, n:]
            integrand[k] = float(np.dot(p, prob.d_p(t, q, p))) - prob.value(t, q, p)
        # composite Simpson (N is even by construction)
        action = (hs / 3.0) * (integrand[0] + integrand[-1]
                               + 4.0 * integrand[1:-1:2].sum()
                               + 2.0 * integrand[2:-2:2].sum())
        value = float(np.dot(zs[-1, n:], zs[-1, :n])) - action
        return value, p0

    p0_guess = p1.copy()
    previous = None
    for N in (64, 128, 256, 512, 1024, 2048, 4096):
        value, p0_guess = solve_grid(N, p0_guess)
        if previous is not None and abs(value - previous) <= max(tol, 64 * np.finfo(float).eps * (1.0 + abs(value))):
            return value
        previous = value
    return value  # best refinement; stability beyond tol not reached


# ---------------------------------------------------------------------------
# diagnostics

def reference_flow(prob: HamiltonianProblem, z0, t0, T, rtol=1e-13, atol=1e-13):
    """High-accuracy endpoint state via an adaptive eighth-order method."""
    from scipy.integrate import solve_ivp as _solve_ivp

    field = phase_field(prob)
    z0 = z0.as_array() if isinstance(z0, PhasePoint) else np.asarray(z0, dtype=float)
    sol = _solve_ivp(field, (t0, t0 + T), z0, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def estimate_order(dH_family, prob, z0, T, steps, reference=None, t0=0.0,
                   tol=DEFAULT_TOL, noise_floor=None):
    """Least-squares slope of log(endpoint error) against log(h).

    ``dH_family`` maps a step size to a :class:`DiscreteHamiltonian`;
    ``steps`` lists step counts for the fixed horizon T.  Errors within the
    reference noise floor are dropped; fewer than three usable points raise
    :class:`DegenerateRegression`.
    """
    if len(steps) < 3:
        raise DegenerateRegression("need at least three step counts")
    z0 = z0 if isinstance(z0, PhasePoint) else PhasePoint.from_array(z0)
    if reference is None:
        z_ref = reference_flow(prob, z0, t0, T)
    else:
        z_ref = np.asarray(reference, dtype=float)
    if noise_floor is None:
        noise_floor = 1e-11 * (1.0 + float(np.max(np.abs(z_ref))))
    hs, errs = [], []
    for N in steps:
        h = T / N
        dH = dH_family(h)
        traj = integrate_map(dH, z0, t0, N, tol=tol)
        err = float(np.max(np.abs(traj.final.as_array() - z_ref)))
        if err > noise_floor:
            hs.append(h)
            errs.append(err)
    if len(errs) < 3:
        raise DegenerateRegression(
            f"only {len(errs)} errors above the noise floor {noise_floor:.2e}")
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)


def canonical_symplectic_matrix(n):
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return omega


def symplecticity_defect(step_map, t, z: PhasePoint, h):
    """Max-norm of J^T Omega J - Omega for the numerical Jacobian of one step.

    ``step_map`` is a flat-state one-step map ``(t, z, h) -> z_next``; the
    Jacobian comes from :func:`~hamflow.core.fd_gradient` central differences.
    """
    J = fd_gradient(lambda zz: np.asarray(step_map(t, zz, h), dtype=float), z.as_array())
    omega = canonical_symplectic_matrix(z.dim)
    return float(np.max(np.abs(J.T @ omega @ J - omega)))


def discrete_step_map(dH: DiscreteHamiltonian, tol=DEFAULT_TOL):
    """Flat-state one-step map of a discrete Hamiltonian (its own h is used)."""

    def mapped(t, z, h):
        out = step(dH, t, PhasePoint.from_array(z), tol=tol)
        return out.as_array()

    return mapped


def stepper_step_map(field, stepper):
    """Flat-state one-step map from a generic field stepper."""
    stepfn = resolve_stepper(stepper)

    def mapped(t, z, h):
        return stepfn(field, t, z, h)

    return mapped


def momentum_map_drift(traj: Trajectory, J):
    """Max deviation of the scalar momentum map J along the trajectory."""
    values = [float(J(PhasePoint.from_array(z))) for z in traj.states]
    return max(abs(v - values[0]) for v in values)


# ---------------------------------------------------------------------------
# hyperregular equivalence with the discrete-Lagrangian route

def _legendre_inverse(prob, t, q, v, guess, tol, max_iter):
    def residual(p):
        return prob.d_p(t, q, p) - v

    try:
        return newton_solve(residual, guess, tol=tol, max_iter=max_iter,
                            jac=lambda p: prob.d_pp(t, q, p)).x
    except (SingularJacobian, np.linalg.LinAlgError) as exc:
        raise LegendreInversionFailure(str(exc)) from exc


def lagrangian_equivalence_gap(prob: HamiltonianProblem, scheme: GalerkinScheme,
                               h, z0: PhasePoint, N, t0=0.0, tol=1e-12,
                               max_iter=DEFAULT_MAX_ITER):
    """Max phase-space gap between the generator map and its Lagrangian twin.

    The twin pushes the one-node discrete Lagrangian
    ``L_d(q0, q1) = h L(t_c, q_c, v)`` with ``L = p.v - H`` at the momentum
    solving ``D_pH = v``; only degree-1 single-node schemes are supported.
    Non-hyperregular problems raise :class:`LegendreInversionFailure`.
    """
    if scheme.degree != 1 or scheme.nodes.size != 1:
        raise UnsupportedScheme("Lagrangian twin exists here only for degree-1 "
                                "single-node schemes")
    c = float(scheme.nodes[0])
    dH = galerkin_discrete_hamiltonian(prob, scheme, h, tol=tol)

    def lagrangian_step(t, z):
        q0, p0 = z.q, z.p

        def d1_ld(q1, p_bar_guess):
            q_c = q0 + c * (q1 - q0)
            v = (q1 - q0) / h
            p_bar = _legendre_inverse(prob, t + c * h, q_c, v, p_bar_guess, tol, max_iter)
            dq = prob.d_q(t + c * h, q_c, p_bar)
            return -h * (1.0 - c) * dq - p_bar, p_bar, dq

        guess_q1 = q0 + h * prob.d_p(t, q0, p0)
        p_guess = p0.copy()

        def residual(q1):
            val, p_bar, _ = d1_ld(q1, p_guess)
            return p0 + val

        q1 = newton_solve(residual, guess_q1, tol=tol, max_iter=max_iter).x
        _, p_bar, dq = d1_ld(q1, p_guess)
        p1 = -h * c * dq + p_bar
        return PhasePoint(q1, p1)

    gap = 0.0
    z_h = z0
    z_l = z0
    for k in range(N):
        t = t0 + k * h
        z_h = step(dH, t, z_h, tol=tol)
        z_l = lagrangian_step(t, z_l)
        gap = max(gap, float(np.max(np.abs(z_h.as_array() - z_l.as_array()))))
    return gap
