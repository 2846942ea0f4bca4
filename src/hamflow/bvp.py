"""Boundary-value solvers for Hamilton's equations and completeness diagnostics.

Five boundary-condition types are supported (initial-value data, two fixed
positions, position/momentum pairs at opposite ends, two fixed momenta) plus
the free variant where the terminal momentum is prescribed as a section
``p1(q)`` of the cotangent bundle.  The blocks each type fixes are decided
once, in ``_KINDS``, for any flat (q, p) field.

One engine solves every two-point kind: :func:`solve_global` runs one Newton
solve over every node x_0..x_N of the discrete path, with the data held
exactly, and factors its block-bidiagonal Jacobian with row pivoting.  It
stays stable where the flow has growing modes, and it marches nothing.  Its
rows take one of two forms, chosen by :func:`~hamflow.core.stepper_scheme`:

- the implicit midpoint rows, the discrete stationarity conditions of the
  midpoint action sum, which pose the paper's Type II principle;
- the map rows ``x_{k+1} - Phi_h(t_k, x_k)`` of any other one-step map Phi
  (rk4 or a custom stepper): multiple shooting with one step per interval.

Each step is linearized in one place, :func:`_step_blocks`: the global Newton
matrix and :func:`completeness_diagnostic`'s shooting map are built from them.

:func:`solve_shooting` hands every two-point kind (Types I-IV and free
terminal-momentum data) to :func:`solve_global`; Type 0 data are the
initial-value solve.  :func:`~hamflow.hamel.solve_hamel_type_ii` solves its
(q, mu) Type II data with the midpoint rows, and the RK4 reference of
:func:`~hamflow.integrators.exact_discrete_hamiltonian` with the rk4 map rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    HamiltonianProblem,
    MaximallyDegenerateProblem,
    PhasePoint,
    Trajectory,
    banded_matrix,
    fd_gradient,
    fd_jacobian,
    integrate,
    newton_solve,
    phase_field,
    phase_jacobian,
    resolve_stepper,
    stepper_name,
    stepper_scheme,
    time_grid,
)


class BoundaryKind(enum.Enum):
    TYPE0 = "Type 0"
    TYPE_I = "Type I"
    TYPE_II = "Type II"
    TYPE_III = "Type III"
    TYPE_IV = "Type IV"
    TYPE_II_FREE = "Type II free"


# The one table of the boundary kinds.  Each maps to the data it requires (a
# known initial block, then the terminal data or, for Type 0, the other
# initial block), the initial block shooting solves for and the terminal
# block the data fix; a block is 0 for q and 1 for p of the flat (q, p) state.
_KINDS = {
    BoundaryKind.TYPE0: (("q0", "p0"), None, None),
    BoundaryKind.TYPE_I: (("q0", "q1"), 1, 0),
    BoundaryKind.TYPE_II: (("q0", "p1"), 1, 1),
    BoundaryKind.TYPE_III: (("p0", "q1"), 0, 0),
    BoundaryKind.TYPE_IV: (("p0", "p1"), 0, 1),
    BoundaryKind.TYPE_II_FREE: (("q0", "p1_section"), 1, 1),
}


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

    def __post_init__(self):
        for name in ("q0", "p0", "q1", "p1"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, np.atleast_1d(np.asarray(val, dtype=float)))
        required = _KINDS[self.kind][0]
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
    """Singular-value verdict on the shooting map formed from the step blocks.

    The cutoff is a numerical surrogate for completeness, not a symbolic
    proof; ``verdict`` is ``complete`` iff ``min_singular_value > threshold``.
    """

    kind: BoundaryKind
    min_singular_value: float
    condition_estimate: float
    verdict: str
    threshold: float


def check_dim(n, **blocks):
    """Raise ``ValueError`` unless every given boundary block has ``n`` entries."""
    for name, block in blocks.items():
        if block is not None and block.size != n:
            raise ValueError(f"{name} has {block.size} entries but the problem has dim {n}")


# ---------------------------------------------------------------------------
# forward solves

def solve_ivp(prob: HamiltonianProblem, z0: PhasePoint, T, stepper="midpoint",
              N=100, tol=DEFAULT_TOL):
    """Initial-value solve: N steps of the one-step map from z0 over [0, T].

    A horizon ``T`` that is not positive and finite raises ``ValueError``
    (:func:`~hamflow.core.integrate`), as it does in the two-point solves,
    before any step is taken.
    """
    check_dim(prob.dim, q0=z0.q)
    field = phase_field(prob)
    times, zs = integrate(field, z0.as_array(), 0.0, T, N, stepper, tol)
    return Trajectory(times=times, states=zs,
                      metadata={"solver": "ivp", "stepper": stepper_name(stepper)})


# ---------------------------------------------------------------------------
# two-point solves

def solve_shooting(prob: HamiltonianProblem, bc: BoundarySpec, T, stepper="midpoint",
                   N=100, guess=None, tol=DEFAULT_TOL):
    """The boundary-value solve for the data ``bc`` over [0, T] in ``N`` steps.

    Type 0 data are :func:`solve_ivp`.  Every other kind takes
    :func:`solve_global`: Newton over the whole path of ``stepper``, starting
    from a straight path, so no march amplifies a growing mode.  The midpoint
    stepper (by name or as :func:`~hamflow.core.midpoint_step`, bound or not)
    solves its implicit rows with the field's Jacobian from
    :func:`~hamflow.core.phase_jacobian`; any other stepper (rk4 or a custom
    one) solves its map rows, each step's derivative differenced forward.
    ``guess`` seeds the initial block the data leave unknown (p for Types I
    and II, q for Types III and IV) at t = 0 of that starting path.  For
    Types I and IV the data do not fix that block at T either, so it is held
    at ``guess`` to T; for Type II it runs linearly to p1, and for Type III
    linearly to q1.  With no guess the block starts at its terminal data, or
    at zero where the data fix none, whatever the stepper.  It is not a
    shooting iterate, so where the data have several solutions it can select
    a different one than a shot from the same guess would.  For the pendulum
    with q(0) = 0.4, section sin 2q + q^3/2 and T = 1.2, ``guess=[0.0]``
    gives p(0) = -0.7352, where a shot from p(0) = 0, and this solve without
    a guess, give -1.0977; both are discrete solutions.  The metadata carry
    ``solver`` (``global``), ``stepper``, ``kind`` and the entries
    :func:`solve_global` reports: the Newton residual, iterations and
    ``newton_matrices``, the factorizations formed, and
    ``condition_estimate``, the worst 1-norm condition estimate of the
    factored Newton matrices.  A singular Newton matrix (the expected signal
    for incomplete boundary conditions on degenerate problems) raises
    :class:`SingularJacobian`.
    """
    if bc.kind == BoundaryKind.TYPE0:
        check_dim(prob.dim, q0=bc.q0, p0=bc.p0)
        return solve_ivp(prob, PhasePoint(bc.q0, bc.p0), T, stepper, N, tol=tol)
    times, zs, solved = solve_global(phase_field(prob), phase_jacobian(prob), prob.dim,
                                     bc, T, N, stepper, guess, tol)
    return Trajectory(times=times, states=zs,
                      metadata={"stepper": stepper_name(stepper), "kind": bc.kind.value,
                                "solver": "global", **solved})


# ---------------------------------------------------------------------------
# global solve of the discrete system

def solve_global(field, jacobian, n, bc: BoundarySpec, T, N, stepper, guess, tol):
    """Newton on the whole discrete path of ``stepper`` for the data ``bc`` on
    a flat ``(q, p)`` field of dim ``n``.

    The unknowns are the entries of the nodes x_0..x_N on the grid of [0, T]
    that the data leave free: the known block of x_0 (``_KINDS``) and, unless
    the terminal data are a section, the fixed block of x_N hold the data
    exactly.  The rows are the N step residuals and, for a section
    ``p1(q)``, the rows ``p_N - p1(q_N)``, whose q-derivative is a central
    difference (:func:`~hamflow.core.fd_gradient`).  The step residuals take
    one of two forms, picked by :func:`~hamflow.core.stepper_scheme`:

    - midpoint: ``x_{k+1} - x_k - h f(t_k + h/2, (x_k + x_{k+1})/2)``, the
      discrete stationarity conditions of the midpoint action sum (Leok &
      Zhang, IMA J. Numer. Anal. 31, 2011);
    - any other one-step map Phi: the map rows ``x_{k+1} - Phi_h(t_k,
      x_k)``, multiple shooting with one step per interval (Ascher, Mattheij
      & Russell, *Numerical Solution of BVPs for ODEs*, SIAM 1995, ch. 4).

    Each row's blocks are :func:`_step_blocks` about the values the residual
    stored; the map rows do not read ``jacobian``.
    :func:`~hamflow.core.newton_solve` holds the banded LU factors of the
    blocks (:func:`~hamflow.core.banded_matrix`) and forms them again only as
    its reuse policy asks.

    Each block starts as the straight line between its values at 0 and T:
    the data where given; else ``guess`` at 0 if one is given, and the value
    at the other end otherwise (zero where neither end is known); a section
    is read at the starting q_N.  Returns ``(times, xs)`` at the accepted
    iterate and the solve's metadata entries: ``condition_estimate``, the
    worst condition estimate of the factors, and the Newton residual,
    iterations and ``newton_matrices``, the factorizations formed.  The
    nodes are :func:`~hamflow.core.time_grid`'s, which raises ``ValueError``
    for a bad N or T.
    """
    (known, target), solved, fixed = _KINDS[bc.kind]
    blocks = (slice(0, n), slice(n, 2 * n))
    guess = None if guess is None else np.atleast_1d(np.asarray(guess, dtype=float))
    check_dim(n, q0=bc.q0, p0=bc.p0, q1=bc.q1, p1=bc.p1, guess=guess)
    times, h = time_grid(T, N)
    if solved is None:
        raise ValueError(f"the global solve does not apply to {bc.kind.value}; use solve_ivp")
    step = resolve_stepper(stepper)
    implicit = stepper_scheme(step) == "midpoint"
    section = None if bc.p1_section is None else (
        lambda q: np.atleast_1d(np.asarray(bc.p1_section(q), dtype=float)))
    start = np.zeros((2, 2 * n))          # the path's values at 0 and at T
    start[:, blocks[1 - solved]] = getattr(bc, known)
    if section is None:
        start[1, blocks[fixed]] = getattr(bc, target)
    else:
        p1 = section(start[1, :n])
        check_dim(n, p1_section=p1)
        start[1, blocks[fixed]] = p1
    if guess is not None:
        start[0, blocks[solved]] = guess
    elif solved == fixed:
        start[0, blocks[solved]] = start[1, blocks[solved]]
    if solved != fixed:
        start[1, blocks[solved]] = start[0, blocks[solved]]
    t_mid = times[:-1] + 0.5 * h
    x_start = start[0] + np.outer(times / T, start[1] - start[0])
    x_start[[0, N]] = start         # the data exactly
    free = np.ones((N + 1, 2 * n), dtype=bool)
    free[0, blocks[1 - solved]] = False
    if section is None:
        free[N, blocks[fixed]] = False
    last = {}

    def residual(u):
        xs = x_start.copy()
        xs[free] = u
        if implicit:
            mids = 0.5 * (xs[:-1] + xs[1:])
            values = np.array([field(t, z) for t, z in zip(t_mid, mids)])
            steps = xs[1:] - xs[:-1] - h * values
        else:
            values = np.array([step(field, t, x, h) for t, x in zip(times[:-1], xs[:-1])])
            steps = xs[1:] - values
        last["xs"], last["values"] = xs, values
        if section is None:
            return steps.ravel()
        return np.concatenate([steps.ravel(), xs[N, n:] - section(xs[N, :n])])

    def jac(u):      # newton_solve asks at, and returns, the point of its latest residual
        xs = last["xs"]
        tail = np.zeros((0, 2 * n))
        if section is not None:
            tail = np.hstack([-fd_gradient(section, xs[N, :n]), np.eye(n)])
        return (*_step_blocks(field, jacobian, step, times, h, xs, last["values"]), tail)

    held = banded_matrix(free)
    result = newton_solve(residual, x_start[free], tol=tol, jac=jac, matrix=held)
    return times, last["xs"], {"condition_estimate": held.cond,
                               "newton_residual": result.residual,
                               "newton_iterations": result.iterations,
                               "newton_matrices": result.matrices}


def _step_blocks(field, jacobian, step, times, h, xs, values):
    """The blocks ``(A_k, B_k)`` of the step rows linearized along ``xs``, about
    the ``values`` the rows evaluated there (:func:`~hamflow.core.stepper_scheme` picks the form).

    Midpoint rows (values: the field at the step midpoints): ``-I - h/2 J_k``
    and ``I - h/2 J_k``, ``J_k`` from ``jacobian`` or, if it is None, forward
    differences (:func:`~hamflow.core.fd_jacobian`).  Map rows (values: the
    next states Phi_h(t_k, x_k)): ``-D Phi_k``, differenced forward, and I.
    """
    eye = np.eye(xs.shape[1])
    if stepper_scheme(step) != "midpoint":
        D = [fd_jacobian(lambda y: step(field, t, y, h), x, F0=value)
             for t, x, value in zip(times[:-1], xs[:-1], values)]
        return -np.array(D), np.broadcast_to(eye, (len(D),) + eye.shape)
    t_mid = times[:-1] + 0.5 * h
    mids = 0.5 * (xs[:-1] + xs[1:])
    if jacobian is None:
        Js = [fd_jacobian(partial(field, t), z, F0=value)
              for t, z, value in zip(t_mid, mids, values)]
    else:
        Js = [jacobian(t, z) for t, z in zip(t_mid, mids)]
    hJ = (0.5 * h) * np.array(Js)
    return -eye - hJ, eye - hJ


# ---------------------------------------------------------------------------
# forward/backward sweep for maximally degenerate problems

def solve_type_ii_sweep(prob: MaximallyDegenerateProblem, bc: BoundarySpec, T,
                        stepper="midpoint", N=100, tol=DEFAULT_TOL):
    """Two decoupled passes (:func:`~hamflow.core.sweep`); no shooting and no
    Newton over trajectories.

    Forward: dq/dt = f(t, q) from q(0) = q0.  Backward: the linear equation
    dp/dt = -[D_q f]^T p - D_q g in reverse time from p(T), the vector data or
    the section applied to q(T), by the adjoint partner of the forward scheme
    at its own stage states (``stepper`` is euler, rk4 or midpoint), so p(0)
    is the exact gradient of the discrete flow.  The sweep lays its nodes by
    :func:`~hamflow.core.time_grid`, which raises ``ValueError`` for a bad N
    or T before any field call.
    """
    if bc.kind not in (BoundaryKind.TYPE_II, BoundaryKind.TYPE_II_FREE):
        raise ValueError("sweep applies to fixed or free terminal-momentum data")
    if not isinstance(prob, MaximallyDegenerateProblem):
        raise TypeError("sweep requires the split structure f, g")
    check_dim(prob.dim, q0=bc.q0, p1=bc.p1)
    p_end = (lambda qT: bc.p1) if bc.kind == BoundaryKind.TYPE_II else bc.p1_section
    times, qs, ps = prob.sweep(bc.q0, p_end, T, N, stepper, tol)
    return Trajectory(times=times, states=np.hstack([qs, ps]),
                      metadata={"solver": "type-ii-sweep",
                                "stepper": stepper_name(stepper),
                                "kind": bc.kind.value})


# ---------------------------------------------------------------------------
# completeness diagnostic

def completeness_diagnostic(prob: HamiltonianProblem, kind: BoundaryKind, T,
                            stepper="midpoint", N=100, *, base_point):
    """Singular values of the linearized shooting map about the base solution.

    One march from ``base_point`` at the default Newton tolerance gives the
    path; the global solve's step blocks along it (:func:`_step_blocks` of
    the resolved stepper, with the march's next states as the map rows'
    values and :func:`~hamflow.core.phase_jacobian` in the midpoint rows) carry the initial block that ``kind`` leaves unknown
    through ``V <- -B_k^{-1} A_k V``, the product of the step tangents.  Its
    terminal block that ``kind`` fixes is the Jacobian a single-shooting
    Newton would solve with.  The verdict is ``complete`` when the smallest
    singular value exceeds 1e-8 times the largest.  Initial-value data pin
    the state directly, so that row is reported with unit sensitivity.
    ``TYPE_II_FREE`` raises ``ValueError``: its terminal condition is a
    section of the cotangent bundle, which a boundary kind alone does not
    determine.  So do a bad N or T, which :func:`~hamflow.core.time_grid`
    checks for every kind; its step is the blocks' h.
    """
    n = prob.dim
    check_dim(n, base_point=base_point.q)
    _, h = time_grid(T, N)
    if kind == BoundaryKind.TYPE_II_FREE:
        raise ValueError("Type II free completeness depends on p1_section, not on the kind")
    _, solved, fixed = _KINDS[kind]
    if solved is None:
        min_sv, max_sv = 1.0, 1.0
    else:
        field = phase_field(prob)
        times, zs = integrate(field, base_point.as_array(), 0.0, T, N, stepper, DEFAULT_TOL)
        # integrate stepped from (t_k, x_k, h), so its next states are the
        # map rows' values; the midpoint rows read the Jacobian, not them
        A, B = _step_blocks(field, phase_jacobian(prob), resolve_stepper(stepper), times,
                            h, zs, zs[1:])
        blocks = (slice(0, n), slice(n, 2 * n))
        V = np.eye(2 * n)[:, blocks[solved]]
        for A_k, B_k in zip(A, B):
            V = np.linalg.solve(B_k, -A_k @ V)
        svals = np.linalg.svd(V[blocks[fixed]], compute_uv=False)
        min_sv, max_sv = float(svals.min()), float(svals.max())

    threshold = 1e-8 * max(max_sv, np.finfo(float).tiny)
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


def polynomial_variations(rng, times, n, count):
    """Random cubic-in-time variation fields (dq, dp) with dq(0) = 0."""
    T = times[-1] - times[0]
    tau = (times - times[0]) / T
    out = []
    for _ in range(count):
        q_coeff = rng.standard_normal((3, n))
        p_coeff = rng.standard_normal((4, n))
        dq = sum(np.outer(tau ** (k + 1), q_coeff[k]) for k in range(3))
        dp = sum(np.outer(tau**k, p_coeff[k]) for k in range(4))
        out.append((dq, dp))
    return out


_VARIATIONS = 20      # seeded variations per virtual-work check


def _varied(functional, traj: Trajectory, rng):
    """``(derivative, dq)`` per seeded variation: central differences
    (:func:`~hamflow.core.fd_gradient`, step 1e-4) of ``functional(qs, ps)``
    along :func:`polynomial_variations`."""
    qs, ps = traj.qs, traj.ps
    return [(fd_gradient(lambda s: functional(qs + s[0] * dq, ps + s[0] * dp), [0.0],
                         step=1e-4)[0], dq)
            for dq, dp in polynomial_variations(rng, traj.times, qs.shape[1], _VARIATIONS)]


def virtual_work_residuals(prob, traj: Trajectory, p1, rng):
    """|dS - p1 . dq(T)| for 20 seeded random variations with dq(0) = 0.

    Returns (residuals, scales); the action variation is a central difference
    of the discretized action along the varied path.
    """
    times, qs, ps = traj.times, traj.qs, traj.ps
    p1 = np.asarray(p1, dtype=float)
    action = abs(discretized_action(prob, times, qs, ps))
    residuals, scales = [], []
    for d_action, dq in _varied(lambda q, p: discretized_action(prob, times, q, p),
                                traj, rng):
        work = float(np.dot(p1, dq[-1]))
        residuals.append(abs(d_action - work))
        scales.append(1.0 + abs(work) + action)
    return np.array(residuals), np.array(scales)


def free_boundary_stationarity_residuals(prob, traj: Trajectory, terminal_cost, rng):
    """|d(C(q(T)) - S)| under 20 seeded partial variations, for p1 = grad C
    solutions."""
    times, qs, ps = traj.times, traj.qs, traj.ps
    scale = 1.0 + abs(terminal_cost(qs[-1])) + abs(discretized_action(prob, times, qs, ps))

    def functional(q, p):
        return terminal_cost(q[-1]) - discretized_action(prob, times, q, p)

    residuals = [abs(d_j) for d_j, _ in _varied(functional, traj, rng)]
    return np.array(residuals), np.full(len(residuals), scale)
