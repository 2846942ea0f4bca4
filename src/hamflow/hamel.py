"""Trivialized dynamics on parallelizable configuration spaces.

A trivialization is a q-dependent invertible matrix ``Phi(q)`` mapping fiber
vectors to tangent vectors.  States live on M x V* as (q, mu); the equations
of motion couple the frame bracket

    [u, v]_q = Phi^{-1} ( DPhi.(Phi u).v - DPhi.(Phi v).u )

to the fiber-momentum evolution through the coadjoint action.

A (q, mu) state is a :class:`~hamflow.core.PhasePoint` whose momentum
block is read as the fiber momenta: ``.mu`` is ``.p`` (``TrivializedState``
names the same class).  The field works on the flat ``(q, mu)`` array, and
the solvers return a :class:`~hamflow.core.Trajectory` on it: its momentum
columns (``ps``, also named ``mus``) and the ``.mu`` of ``initial``/``final``
are the fiber momenta mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bvp import BoundarySpec, check_dim, solve_global
from .core import (
    DEFAULT_TOL,
    EvaluationError,
    PhasePoint,
    Trajectory,
    check_closure,
    integrate,
    partial_of,
)


@dataclass(frozen=True)
class Trivialization:
    """Fiberwise-linear isomorphism data: Phi(q) as a matrix, plus its derivative.

    ``d_matrix(q)[a, b, c]`` is the partial of ``Phi(q)[a, b]`` with respect
    to ``q[c]``; when omitted it is formed by central differences of the
    matrix entries (cross-validated against any supplied closure by
    :meth:`validate`).
    """

    dim: int
    matrix: Callable
    d_matrix: Callable | None = None
    label: str = ""

    def mat(self, q):
        return np.asarray(self.matrix(np.asarray(q, dtype=float)), dtype=float)

    def dmat(self, q):
        return partial_of(self.d_matrix, self.matrix, (np.asarray(q, dtype=float),), 0, "fd")

    def phi(self, q, xi):
        return self.mat(q) @ np.asarray(xi, dtype=float)

    def phi_inv(self, q, v):
        return _solve(self.mat(q), np.asarray(v, dtype=float), q)

    def phi_inv_dual(self, q, mu):
        """Phi(q)^{-*} mu: the covector p with <p, v> = <mu, Phi^{-1} v>."""
        return _solve(self.mat(q).T, np.asarray(mu, dtype=float), q)

    def validate(self, rng):
        """Round-trip and derivative cross-checks at ten random points; a
        supplied ``d_matrix`` must match central differences to 1e-8 relative
        (:func:`~hamflow.core.check_closure`)."""
        samples = [(rng.uniform(-0.8, 0.8, self.dim), rng.standard_normal(self.dim))
                   for _ in range(10)]
        for q, xi in samples:
            back = self.phi_inv(q, self.phi(q, xi))
            if np.max(np.abs(back - xi)) > 1e-10 * (1.0 + np.max(np.abs(xi))):
                raise ValueError("phi_inv . phi is not the identity on the fiber")
        check_closure("d_matrix", self.d_matrix, Trivialization(self.dim, self.matrix).dmat,
                      [(q,) for q, _ in samples], 1e-8)


def _solve(mat, rhs, q):
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise EvaluationError(f"singular trivialization matrix: {exc}", state=q) from exc


# a (q, mu) state: .mu reads the momentum block
TrivializedState = PhasePoint


@dataclass(frozen=True)
class TrivializedHamiltonian:
    """Scalar on M x V* with the partials the trivialized equations need."""

    dim: int
    value: Callable                 # (t, q, mu) -> float
    d_q: Callable                   # (t, q, mu) -> dim-vector
    d_mu: Callable                  # (t, q, mu) -> dim-vector
    label: str = ""


def trivialized_hamiltonian(prob, triv: Trivialization):
    """Pull a canonical Hamiltonian back to (q, mu) through the trivialization.

    ``h(t, q, mu) = H(t, q, Phi(q)^{-*} mu)``; the partials are assembled by
    the chain rule so no differentiation happens through the linear solves.
    Each partial evaluates Phi(q) once and solves with it twice.
    """
    if prob.dim != triv.dim:
        raise ValueError("problem and trivialization dimensions differ")

    def value(t, q, mu):
        return prob.value(t, q, triv.phi_inv_dual(q, mu))

    def momentum_and_velocity(t, q, mu):
        # p = Phi^{-*} mu and xi = Phi^{-1} D_pH(p) from one Phi(q)
        mat = triv.mat(q)
        p = _solve(mat.T, np.asarray(mu, dtype=float), q)
        return p, _solve(mat, prob.d_p(t, q, p), q)

    def d_mu(t, q, mu):
        return momentum_and_velocity(t, q, mu)[1]

    def d_q(t, q, mu):
        p, xi = momentum_and_velocity(t, q, mu)
        correction = np.einsum("abc,a,b->c", triv.dmat(q), p, xi)
        return prob.d_q(t, q, p) - correction

    return TrivializedHamiltonian(dim=triv.dim, value=value, d_q=d_q, d_mu=d_mu,
                                  label=f"trivialized({prob.name})")


def hamel_bracket(triv: Trivialization, q, u, v):
    """Antisymmetric frame bracket on the fiber at q."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    mat = triv.mat(q)
    dm = triv.dmat(q)
    du = np.einsum("abc,c->ab", dm, mat @ u)   # DPhi.(Phi u)
    dv = np.einsum("abc,c->ab", dm, mat @ v)
    return _solve(mat, du @ v - dv @ u, q)


def _coadjoint(mat, dm, q, xi, alpha):
    w = _solve(mat.T, alpha, q)                # Phi^{-T} alpha
    b_xi = np.einsum("abc,c->ab", dm, mat @ xi)
    term1 = b_xi.T @ w                          # <w, B(Phi xi) e_i>
    g = np.einsum("abc,a,b->c", dm, w, xi)      # <w, B(.) xi> contracted
    return term1 - mat.T @ g


def coadjoint(triv: Trivialization, q, xi, alpha):
    """ad*_xi alpha assembled columnwise from <ad*_xi alpha, e_i> = <alpha, [xi, e_i]_q>."""
    return _coadjoint(triv.mat(q), triv.dmat(q), q, np.asarray(xi, dtype=float),
                      np.asarray(alpha, dtype=float))


def _hamel_flat_field(h, triv):
    """Flat field ``(q, mu) -> (dq, dmu)``; Phi(q) and DPhi(q) are evaluated once."""
    if h.dim != triv.dim:
        raise ValueError("problem and trivialization dimensions differ")
    n = triv.dim

    def fld(t, x):
        q, mu = x[:n], x[n:]
        mat, dm = triv.mat(q), triv.dmat(q)
        xi = np.asarray(h.d_mu(t, q, mu), dtype=float)
        dmu = _coadjoint(mat, dm, q, xi, mu) - mat.T @ np.asarray(h.d_q(t, q, mu), dtype=float)
        return np.concatenate([mat @ xi, dmu])

    return fld


def hamel_vector_field(h: TrivializedHamiltonian, triv: Trivialization, t,
                       state: PhasePoint):
    """Right-hand side (dq, dmu) of the trivialized equations.

    ``dq = Phi(q) D_mu h`` and ``dmu = ad*_xi mu - Phi(q)^* D_q h`` with the
    trivialized velocity taken as ``xi = D_mu h`` (on-shell identical to
    ``Phi^{-1} dq/dt``, and it keeps the field self-contained).
    """
    dx = _hamel_flat_field(h, triv)(t, state.as_array())
    return dx[:triv.dim], dx[triv.dim:]


def integrate_hamel(h, triv, state0: PhasePoint, T, N, tol=DEFAULT_TOL):
    """Implicit-midpoint march from ``state0`` over [0, T]; row k is ``(q_k, mu_k)``."""
    check_dim(triv.dim, state0=state0.q)
    fld = _hamel_flat_field(h, triv)
    times, xs = integrate(fld, state0.as_array(), 0.0, T, N, "midpoint", tol)
    return Trajectory(times=times, states=xs,
                      metadata={"solver": "hamel-ivp", "stepper": "midpoint"})


def solve_hamel_type_ii(h, triv, q0, mu1, T, N=100, guess=None, tol=DEFAULT_TOL):
    """The discrete Type II principle on the trivializing space: fixed q(0) = q0
    and terminal mu(T) = mu1.

    In canonical coordinates the same data read as the terminal condition
    p(T) = Phi(q(T))^* mu1, i.e. a q-dependent section of the cotangent
    bundle; solving in the trivializing space keeps it a plain two-point
    problem, the Type II data of :func:`~hamflow.bvp.solve_global` on the
    flat (q, mu) field.  One Newton solve runs over every node of the
    implicit-midpoint path; the field supplies no Jacobian, so each step's
    blocks are forward differences of the field at the step midpoint, and
    the banded factors are formed again only as the chord's reuse policy
    asks.  Nothing is marched.  ``guess`` seeds mu at t = 0 of the starting
    path, which runs linearly from it to mu1 (with q held at q0); it is not
    a shooting iterate, and without one mu starts at mu1 throughout.

    The returned :class:`Trajectory` is the path at the accepted iterate,
    with mu in its momentum columns (``mus``).  Its metadata carry
    ``solver`` (``hamel-global``), ``stepper`` (``midpoint``) and the entries
    ``solve_global`` reports: the condition estimate and the Newton
    residual, iterations and matrices.
    """
    bc = BoundarySpec.type_ii(q0, mu1)
    check_dim(triv.dim, q0=bc.q0, mu1=bc.p1)
    times, xs, solved = solve_global(_hamel_flat_field(h, triv), None, triv.dim, bc,
                                     T, N, "midpoint", guess, tol)
    return Trajectory(times=times, states=xs,
                      metadata={"solver": "hamel-global", "stepper": "midpoint", **solved})


# ---------------------------------------------------------------------------
# built-in trivializations

def identity_trivialization(n):
    return Trivialization(dim=n, matrix=lambda q: np.eye(n),
                          d_matrix=lambda q: np.zeros((n, n, n)), label="identity")


def scaled_trivialization(n, factor):
    return Trivialization(dim=n, matrix=lambda q: factor * np.eye(n),
                          d_matrix=lambda q: np.zeros((n, n, n)), label=f"scaled({factor})")


def _hat(w):
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


def _so3_d2(theta):
    """d2, the hat(w)^2 coefficient of Phi(w), and d d2/d theta at theta = |w|."""
    if theta < 0.1:  # Bernoulli-number series
        theta2 = theta * theta
        return (1.0 / 12.0 + theta2 / 720.0 + theta2**2 / 30240.0 + theta2**3 / 1209600.0,
                theta / 360.0 + theta * theta2 / 7560.0 + theta * theta2**2 / 201600.0)
    s, c = np.sin(theta), np.cos(theta)
    u, v = 1.0 + c, 2.0 * theta * s
    du, dv = -s, 2.0 * s + 2.0 * theta * c
    return 1.0 / theta**2 - u / v, -2.0 / theta**3 - (du * v - u * dv) / v**2


def _so3_matrix(w):
    theta = float(np.sqrt(np.dot(w, w)))
    wh = _hat(w)
    return np.eye(3) + 0.5 * wh + _so3_d2(theta)[0] * (wh @ wh)


# -1/2 of the Levi-Civita tensor: 0.5 hat(e_c)[a, b] at [a, b, c]
_SO3_HALF_HAT = 0.5 * np.stack([_hat(e) for e in np.eye(3)], axis=-1)
_EYE3 = np.eye(3)


def _so3_d_matrix(w):
    # d/dw_c of I + hat(w)/2 + d2(theta) hat(w)^2, with hat(w)^2 = w w^T - theta^2 I
    theta = float(np.sqrt(np.dot(w, w)))
    wh2 = np.outer(w, w) - theta**2 * _EYE3
    d2, d2_prime = _so3_d2(theta)
    radial = wh2[:, :, None] * (d2_prime * w / theta) if theta > 0 else 0.0
    # delta_ac w_b + w_a delta_bc - 2 w_c delta_ab
    dwh2 = (_EYE3[:, None, :] * w[None, :, None] + w[:, None, None] * _EYE3[None, :, :]
            - _EYE3[:, :, None] * (2.0 * w))
    return _SO3_HALF_HAT + radial + d2 * dwh2


def so3_left_trivialization():
    """Exponential-coordinate chart of the rotation group, left-trivialized.

    ``Phi(w)`` maps the body angular velocity to the coordinate velocity of
    the exponential coordinates w (valid for |w| < 2 pi); its q-derivative is
    supplied in closed form so bracket and coadjoint evaluations are exact to
    rounding.
    """
    return Trivialization(dim=3, matrix=_so3_matrix, d_matrix=_so3_d_matrix,
                          label="so3-left")


def rigid_body_reduced(inertia):
    """Kinetic Hamiltonian 0.5 mu . I^{-1} mu on the trivializing space."""
    inertia = np.asarray(inertia, dtype=float)

    def value(t, q, mu):
        return 0.5 * float(np.dot(mu, mu / inertia))

    return TrivializedHamiltonian(
        dim=3,
        value=value,
        d_q=lambda t, q, mu: np.zeros(3),
        d_mu=lambda t, q, mu: np.asarray(mu, dtype=float) / inertia,
        label="rigid-body",
    )


def rigid_body_canonical(inertia):
    """The same rigid body written on canonical coordinates of the chart.

    H(q, p) = 0.5 (Phi(q)^T p) . I^{-1} (Phi(q)^T p); pulled back through the
    trivialization it reduces to :func:`rigid_body_reduced`, independent of q.
    """
    from .core import HamiltonianProblem

    inertia = np.asarray(inertia, dtype=float)

    def H(t, q, p):
        mu = _so3_matrix(q).T @ np.asarray(p, dtype=float)
        return 0.5 * float(np.dot(mu, mu / inertia))

    return HamiltonianProblem(dim=3, H=H, derivative_mode="fd",
                              name="rigid-body-canonical")
