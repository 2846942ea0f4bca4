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

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bvp import BoundarySpec, solve_global
from .core import (
    DEFAULT_TOL,
    DegenerateRegression,
    HamiltonianProblem,
    LegendreInversionFailure,
    NewtonResult,
    PhasePoint,
    RankDeficientStageSystem,
    SingularJacobian,
    Trajectory,
    UnsupportedScheme,
    check_horizon,
    fd_gradient,
    integrate,
    march_matrix,
    newton_solve,
    phase_field,
    time_grid,
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
        if len(set(self.nodes.tolist())) < self.degree:
            # qdot has degree s-1 and the stage rows fix it at the nodes only
            raise ValueError("need at least as many distinct nodes as the degree")

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
    """The extremizing stages of one step and the step data read off them."""

    positions: np.ndarray   # (m, n) stage positions q(c_j h)
    velocities: np.ndarray  # (m, n) stage velocities qdot(c_j h)
    momenta: np.ndarray     # (m, n) momentum values at the quadrature nodes
    q1: np.ndarray          # q(h) = D2
    p1: np.ndarray
    d1: np.ndarray          # p1 + h sum_j b_j D_qH(stage_j) = D1
    newton: NewtonResult    # x: the position coefficients a_1..a_s, then the node momenta


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """One-step generating function with its two partials.

    ``value``, ``D1`` and ``D2`` take ``(t, q0, p1)``; autonomous problems
    ignore ``t``.  ``solve_step`` is an optional fused solver
    ``(t, q0, p0) -> (q1, p1)`` for the induced map; the Galerkin one solves
    for the stages alone, since p1 is explicit in them.  Called on its own,
    as :func:`step` calls it, every solve of a Galerkin generator (``value``,
    ``D1``, ``D2`` and ``solve_step``) starts from a fixed guess and forms a
    fresh Newton matrix at every iteration; only :func:`integrate_map` binds
    a solver that carries a matrix and the stages from step to step.
    """

    h: float
    value: Callable
    D1: Callable | None = None
    D2: Callable | None = None
    label: str = ""
    solve_step: Callable | None = None


def _galerkin_stages(prob, geometry, h, t, q0, p, tol, fused, guess, matrix):
    """Solve the stationarity system of the bracket for the stages.

    The unknowns are the position coefficients and the node momenta, (s+m)n
    numbers in both modes.  ``p`` is the fixed p1.  With ``fused=True`` it is
    p0 instead, and p1 = p0 - h sum_j b_j D_qH(stage_j) is explicit in the
    stages (the natural condition p0 = D1), so one Newton solve over the same
    unknowns advances the one-step map.  The residual takes one
    :meth:`~hamflow.core.HamiltonianProblem.gradient` per node, and Newton's
    Jacobian one :meth:`~hamflow.core.HamiltonianProblem.hessian` per node
    and the tables c_j^i, i c_j^(i-1); it only steers Newton, so the
    converged stages meet the same residual tolerance whatever its accuracy.
    Newton starts from ``guess``, or if it is None from a_1 = h D_pH(t, q0,
    p), the other coefficients zero and every node momentum p; ``matrix`` is
    the Newton matrix holder of :func:`~hamflow.core.newton_solve`, or None.
    Returns the :class:`StageSolution`.
    """
    n = prob.dim
    c, b, powers, dpowers = geometry
    s, m = powers.shape
    tc = t + c * h
    w = h * (powers - fused) * b                    # (s, m) weights of D_qH(stage_j) in row i
    eye = np.eye(n)
    last = {}

    def residual(y):
        a, ps = y[: s * n].reshape(s, n), y[s * n:].reshape(m, n)
        qs = q0 + powers.T @ a                      # (m, n) stage positions
        qdots = (dpowers.T @ a) / h                 # (m, n) stage velocities
        grads = [prob.gradient(tj, qj, pj) for tj, qj, pj in zip(tc, qs, ps)]
        dq = np.array([gq for gq, _ in grads]).reshape(m, n)
        dp = np.array([gp for _, gp in grads]).reshape(m, n)
        kick = h * (b @ dq)                         # h sum_j b_j D_qH(stage_j)
        p1 = p - kick if fused else p
        last.update(a=a, ps=ps, qs=qs, qdots=qdots, p1=p1, kick=kick)
        stationarity = p1 - dpowers @ (b[:, None] * ps) + h * (powers @ (b[:, None] * dq))
        return np.concatenate([stationarity.ravel(), (qdots - dp).ravel()])

    def jacobian(y):  # newton_solve asks at the point of its latest residual, in last
        # rows (stationarity S_i, velocity V_j), columns (a_k, P_l):
        #   dS_i/da_k = sum_j w_ij H_qq,j c_j^k     dS_i/dP_j = w_ij H_qp,j - i c_j^(i-1) b_j I
        #   dV_j/da_k = k c_j^(k-1)/h I - H_pq,j c_j^k     dV_j/dP_l = -delta_jl H_pp,j
        hess = np.array([prob.hessian(tj, qj, pj)
                         for tj, qj, pj in zip(tc, last["qs"], last["ps"])])
        hqq, hqp, hpq, hpp = hess[:, :n, :n], hess[:, :n, n:], hess[:, n:, :n], hess[:, n:, n:]
        J = np.empty(((s + m) * n, (s + m) * n))
        J[: s * n, : s * n] = np.einsum("ij,jab,kj->iakb", w, hqq, powers).reshape(s * n, s * n)
        J[: s * n, s * n:] = (np.einsum("ij,jab->iajb", w, hqp)
                              - np.einsum("ij,ab->iajb", dpowers * b, eye)).reshape(s * n, m * n)
        J[s * n:, : s * n] = (np.einsum("kj,ab->jakb", dpowers / h, eye)
                              - np.einsum("jab,kj->jakb", hpq, powers)).reshape(m * n, s * n)
        J[s * n:, s * n:] = -np.einsum("jl,jab->jalb", np.eye(m), hpp).reshape(m * n, m * n)
        return J

    if guess is None:
        guess = np.zeros((s + m) * n)
        guess[:n] = h * prob.d_p(t, q0, p)          # a_1 ~ h * velocity
        guess[s * n:] = np.tile(p, m)               # node momenta ~ p
    try:
        result = newton_solve(residual, guess, tol=tol, jac=jacobian, matrix=matrix)
    except SingularJacobian as exc:
        raise RankDeficientStageSystem(str(exc)) from exc
    # newton_solve returns the point of its latest residual call, recorded in last
    return StageSolution(positions=last["qs"], velocities=last["qdots"], momenta=last["ps"],
                         q1=q0 + last["a"].sum(axis=0), p1=last["p1"],
                         d1=last["p1"] + last["kick"], newton=result)


def _lagrange_weights(x, targets):
    """The matrix W whose product ``W @ v`` evaluates at ``targets`` the
    polynomial interpolating the values ``v_i`` at the abscissae ``x_i``; of
    repeated abscissae only the first is used."""
    keep = np.zeros(x.size, dtype=bool)
    keep[np.unique(x, return_index=True)[1]] = True
    W = np.zeros((targets.size, x.size))
    for i in np.flatnonzero(keep):
        others = x[keep & (np.arange(x.size) != i)]
        W[:, i] = np.prod((targets[:, None] - others) / (x[i] - others), axis=1)
    return W


class _GalerkinSolver:
    """The fused ``solve_step`` ``(t, q0, p0) -> (q1, p1)`` of a Galerkin
    generator.

    With ``matrix`` None, every call solves from the fixed guess with a fresh
    Newton matrix at every iteration.  :meth:`march` returns the solver of one
    march: its steps share one :func:`~hamflow.core.march_matrix` holder, each
    step after the first starts from ``predict(p0, stages)`` of the step
    before, and it sums the Newton ``iterations`` and ``matrices`` of its
    steps.
    """

    def __init__(self, stages, predict, matrix):
        self.stages, self.predict, self.matrix = stages, predict, matrix
        self.previous = None        # (p0, StageSolution) of the march's last step
        self.iterations = self.matrices = 0

    def __call__(self, t, q0, p0):
        guess = None if self.previous is None else self.predict(*self.previous)
        st = self.stages(t, q0, p0, True, guess, self.matrix)
        if self.matrix is not None:
            self.previous = (p0, st)
            self.iterations += st.newton.iterations
            self.matrices += st.newton.matrices
        return st.q1, st.p1

    def march(self):
        return _GalerkinSolver(self.stages, self.predict, march_matrix())


def galerkin_discrete_hamiltonian(prob: HamiltonianProblem, scheme: GalerkinScheme,
                                  h, tol=DEFAULT_TOL):
    """Discrete Hamiltonian from extremizing the quadrature bracket.

    Value and partials read one stage solve at (q0, p1); by the envelope
    property of the extremum ``D1 = p1 + h sum_j b_j D_qH(stage_j)`` and
    ``D2 = q(h)``.  The fused ``solve_step`` solves for the same stage unknowns
    with p1 = p0 - h sum_j b_j D_qH(stage_j) explicit in them.  Both solves
    take their Newton Jacobian from the Hessian of H at each quadrature node
    (:meth:`~hamflow.core.HamiltonianProblem.hessian`: one second-order jet
    pass in ``dual`` mode, else q columns differenced from the supplied or
    differenced gradient; a supplied ``D_ppH`` always fills H_pp), not from
    differencing the whole stage residual.

    ``value``, ``D1``, ``D2`` and a standalone ``solve_step`` (as :func:`step`
    calls it) each start from a_1 = h D_pH, the other coefficients zero and
    every node momentum at the given one, and form a fresh Newton matrix at
    every iteration.  In :func:`integrate_map` the fused solves of one march
    share one held matrix (the simplified Newton of Hairer & Wanner, *Solving
    ODEs II*, §IV.8, through :func:`~hamflow.core.march_matrix`), and each
    step after the first starts from the previous step's stages carried one
    step on (Hairer, Lubich & Wanner, *Geometric Numerical Integration*,
    §VIII.6): the position polynomial shifted by one step, ``a'_k =
    sum_{i>=k} C(i, k) a_i``, and the node momenta extrapolated to ``1 +
    c_j`` by the polynomial through ``(0, p0)``, ``(c_j, P_j)`` and ``(1,
    p1)``.  Either way every step meets the same residual tolerance ``tol``.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    c, b = scheme.nodes, scheme.weights
    s = scheme.degree
    i = np.arange(1, s + 1)[:, None]
    geometry = (c, b, c**i, i * c ** (i - 1))   # (s, m) tables c_j^i, i c_j^(i-1)
    shift = np.array([[math.comb(j, k) for j in range(1, s + 1)] for k in range(1, s + 1)],
                     dtype=float)
    extrapolate = _lagrange_weights(np.concatenate([[0.0], c, [1.0]]), 1.0 + c)

    def stages(t, q0, p, fused, guess, matrix):
        return _galerkin_stages(prob, geometry, h, t, np.asarray(q0, dtype=float),
                                np.asarray(p, dtype=float), tol, fused, guess, matrix)

    def predict(p0, st):
        a = st.newton.x[: st.q1.size * s].reshape(s, -1)
        momenta = extrapolate @ np.vstack([p0, st.momenta, st.p1])
        return np.concatenate([(shift @ a).ravel(), momenta.ravel()])

    def value(t, q0, p1):
        st = stages(t, q0, p1, False, None, None)
        energies = [prob.value(t + cj * h, qj, pj)
                    for cj, qj, pj in zip(c, st.positions, st.momenta)]
        actions = np.sum(st.momenta * st.velocities, axis=1) - energies
        return float(st.p1 @ st.q1) - h * float(b @ actions)

    label = scheme.label or f"galerkin(s={scheme.degree}, m={c.size})"
    return DiscreteHamiltonian(
        h=h, value=value, D1=lambda t, q0, p1: stages(t, q0, p1, False, None, None).d1,
        D2=lambda t, q0, p1: stages(t, q0, p1, False, None, None).q1, label=label,
        solve_step=_GalerkinSolver(stages, predict, None))


def step(dH: DiscreteHamiltonian, t_k, z_k, tol=DEFAULT_TOL):
    """Advance one step: solve ``p_k = D1(q_k, p1)`` for p1, then ``q1 = D2``.

    ``z_k`` is the flat ``(q_k, p_k)`` array and the result is the flat
    ``(q1, p1)`` array.  ``tol`` is the Newton tolerance of that solve; a
    generator with a fused ``solve_step`` (the Galerkin ones) takes one step
    with its own solver and the tolerance it was built with, and ignores it.
    A Galerkin generator's step is a standalone solve (fixed guess, a fresh
    Newton matrix at every iteration) unless ``dH`` is the march-bound copy
    that :func:`integrate_map` passes, whose steps share one matrix and start
    from the stages of the step before.
    """
    n = z_k.size // 2
    q, p = z_k[:n], z_k[n:]
    if dH.solve_step is not None:
        return np.concatenate(dH.solve_step(t_k, q, p))
    if dH.D1 is None or dH.D2 is None:
        raise ValueError("discrete Hamiltonian lacks both partials and a fused solver")

    def residual(p1):
        return dH.D1(t_k, q, p1) - p

    p1 = newton_solve(residual, p, tol=tol).x
    return np.concatenate([dH.D2(t_k, q, p1), p1])


def fiber_derivatives(dH: DiscreteHamiltonian, q0, p1):
    """The two one-sided Legendre-type maps (plus, minus) of the generator at t = 0."""
    q0 = np.asarray(q0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    return PhasePoint(dH.D2(0.0, q0, p1), p1), PhasePoint(q0, dH.D1(0.0, q0, p1))


def integrate_map(dH: DiscreteHamiltonian, z0: PhasePoint, t0, N, tol=DEFAULT_TOL):
    """Iterate the one-step map N times; returns a :class:`Trajectory`.

    The march is :func:`~hamflow.core.integrate`'s, so a failed step raises
    :class:`~hamflow.core.StepFailure` with its index.  ``tol`` reaches only
    generators without a fused ``solve_step`` (see :func:`step`); a Galerkin
    generator solves with the tolerance it was built with.  Every step is a
    :func:`step` call.  A Galerkin generator's steps go through one solver
    bound for this march: they share one held Newton matrix and each after
    the first starts from the previous step's stages carried one step on
    (see :func:`galerkin_discrete_hamiltonian`), so the first step is
    :func:`step`'s, bit for bit, and the rest agree with standalone steps to
    the Newton tolerance.  Its metadata then carry the march's total
    ``newton_iterations`` and ``newton_matrices``, the matrices formed.
    """
    solver = dH.solve_step
    if isinstance(solver, _GalerkinSolver):
        solver = solver.march()
        dH = replace(dH, solve_step=solver)

    def map_step(f, t, z, h):  # dH carries its own field and step size
        return step(dH, t, z, tol=tol)

    times, zs = integrate(None, z0.as_array(), t0, N * dH.h, N, map_step, tol)
    metadata = {"solver": f"map:{dH.label}", "h": dH.h}
    if isinstance(solver, _GalerkinSolver):
        metadata.update(newton_iterations=solver.iterations, newton_matrices=solver.matrices)
    return Trajectory(times=times, states=zs, metadata=metadata)


# ---------------------------------------------------------------------------
# exact one-step generating function

def exact_discrete_hamiltonian(prob: HamiltonianProblem, q0, p1, h, tol=1e-10):
    """Boundary term minus action along the resolved two-point solution on [0, h].

    Solves the Type II data (q0, p1) on a fine grid of RK4 steps
    (:func:`~hamflow.bvp.solve_global` with the rk4 map rows), evaluates
    ``p(h).q(h) - int [p.qdot - H] dt`` by composite Simpson along the accepted
    path, and refines the grid until the value is stable to ``tol``; each grid
    starts from the p(0) of the one before.
    """
    bc = BoundarySpec.type_ii(q0, p1)
    n = prob.dim
    field = phase_field(prob)
    newton_tol = min(1e-12, 0.1 * tol)

    def solve_grid(N, p0_guess):
        times, zs, _ = solve_global(field, None, n, bc, h, N, "rk4", p0_guess, newton_tol)
        integrand = np.empty(N + 1)
        for k, t in enumerate(times):
            q, p = zs[k, :n], zs[k, n:]
            integrand[k] = float(np.dot(p, prob.d_p(t, q, p))) - prob.value(t, q, p)
        # composite Simpson (N is even by construction)
        action = (h / N / 3.0) * (integrand[0] + integrand[-1]
                                  + 4.0 * integrand[1:-1:2].sum()
                                  + 2.0 * integrand[2:-2:2].sum())
        value = float(np.dot(zs[-1, n:], zs[-1, :n])) - action
        return value, zs[0, n:]

    p0_guess = bc.p1.copy()
    previous = None
    for N in (64, 128, 256, 512, 1024, 2048, 4096):
        value, p0_guess = solve_grid(N, p0_guess)
        if previous is not None and abs(value - previous) <= max(tol, 64 * np.finfo(float).eps * (1.0 + abs(value))):
            return value
        previous = value
    return value  # best refinement; stability beyond tol not reached


# ---------------------------------------------------------------------------
# diagnostics

def reference_flow(prob: HamiltonianProblem, z0, t0, T):
    """High-accuracy endpoint state from the flat ``(q, p)`` array ``z0`` via an
    adaptive eighth-order method at relative and absolute tolerance 1e-13;
    a bad horizon raises ``ValueError`` (:func:`~hamflow.core.check_horizon`)."""
    check_horizon(T)
    from scipy.integrate import solve_ivp as _solve_ivp

    field = phase_field(prob)
    sol = _solve_ivp(field, (t0, t0 + T), np.asarray(z0, dtype=float), method="DOP853",
                     rtol=1e-13, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def estimate_order(dH_family, prob, z0: PhasePoint, T, steps, reference=None, t0=0.0):
    """Least-squares slope of log(endpoint error) against log(h) from ``z0``.

    ``dH_family`` maps a step size to a :class:`DiscreteHamiltonian`, which
    marches with the Newton tolerance it was built with (a generator without
    a fused ``solve_step`` gets :func:`step`'s default); ``steps`` lists step
    counts for the fixed horizon T, whose steps :func:`~hamflow.core.time_grid`
    lays (and checks) before the reference.  Errors within the reference noise
    floor, 1e-11 relative to the reference state, are dropped; fewer than
    three usable points raise :class:`DegenerateRegression`.
    """
    if len(steps) < 3:
        raise DegenerateRegression("need at least three step counts")
    sizes = [time_grid(T, N)[1] for N in steps]
    if reference is None:
        z_ref = reference_flow(prob, z0.as_array(), t0, T)
    else:
        z_ref = np.asarray(reference, dtype=float)
    noise_floor = 1e-11 * (1.0 + float(np.max(np.abs(z_ref))))
    hs, errs = [], []
    for N, h in zip(steps, sizes):
        dH = dH_family(h)
        traj = integrate_map(dH, z0, t0, N)
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

    ``step_map`` is a flat-state one-step map ``(t, z, h) -> z_next``, e.g.
    ``lambda t, z, h: step(dH, t, z)`` (a generator steps with its own h) or
    ``lambda t, z, h: euler_step(field, t, z, h)``.  The Jacobian comes from
    :func:`~hamflow.core.fd_gradient` central differences.
    """
    J = fd_gradient(lambda zz: np.asarray(step_map(t, zz, h), dtype=float), z.as_array())
    omega = canonical_symplectic_matrix(z.dim)
    return float(np.max(np.abs(J.T @ omega @ J - omega)))


def momentum_map_drift(traj: Trajectory, J):
    """Max deviation of the scalar momentum map ``J(q, p)`` along the trajectory."""
    values = [float(J(q, p)) for q, p in zip(traj.qs, traj.ps)]
    return max(abs(v - values[0]) for v in values)


# ---------------------------------------------------------------------------
# hyperregular equivalence with the discrete-Lagrangian route

def _legendre_inverse(prob, t, q, v, guess, tol):
    def residual(p):
        return prob.d_p(t, q, p) - v

    try:
        return newton_solve(residual, guess, tol=tol, jac=lambda p: prob.d_pp(t, q, p)).x
    except SingularJacobian as exc:
        raise LegendreInversionFailure(str(exc)) from exc


def lagrangian_equivalence_gap(prob: HamiltonianProblem, scheme: GalerkinScheme,
                               h, z0: PhasePoint, N):
    """Max gap over N steps from t = 0 between the generator map and its Lagrangian twin.

    The twin pushes the one-node discrete Lagrangian
    ``L_d(q0, q1) = h L(t_c, q_c, v)`` with ``L = p.v - H`` at the momentum
    solving ``D_pH = v``; only degree-1 single-node schemes are supported.
    Every Newton solve of both maps runs at tolerance 1e-12.
    Non-hyperregular problems raise :class:`LegendreInversionFailure`.
    """
    if scheme.degree != 1 or scheme.nodes.size != 1:
        raise UnsupportedScheme("Lagrangian twin exists here only for degree-1 "
                                "single-node schemes")
    c = float(scheme.nodes[0])
    tol = 1e-12
    dH = galerkin_discrete_hamiltonian(prob, scheme, h, tol=tol)
    n = prob.dim

    def lagrangian_step(t, z):
        q0, p0 = z[:n], z[n:]

        def d1_ld(q1, p_bar_guess):
            q_c = q0 + c * (q1 - q0)
            v = (q1 - q0) / h
            p_bar = _legendre_inverse(prob, t + c * h, q_c, v, p_bar_guess, tol)
            dq = prob.d_q(t + c * h, q_c, p_bar)
            return -h * (1.0 - c) * dq - p_bar, p_bar, dq

        guess_q1 = q0 + h * prob.d_p(t, q0, p0)
        p_guess = p0.copy()
        last = {}

        def residual(q1):
            val, last["p_bar"], last["dq"] = d1_ld(q1, p_guess)
            return p0 + val

        # newton_solve returns the point of its latest residual call
        q1 = newton_solve(residual, guess_q1, tol=tol).x
        p1 = -h * c * last["dq"] + last["p_bar"]
        return np.concatenate([q1, p1])

    gap = 0.0
    z_h = z_l = z0.as_array()
    for k in range(N):
        z_h = step(dH, k * h, z_h, tol=tol)
        z_l = lagrangian_step(k * h, z_l)
        gap = np.max(np.abs(z_h - z_l), initial=gap)  # a NaN gap stays NaN
    return float(gap)
