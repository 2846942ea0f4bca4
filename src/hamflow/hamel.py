"""Trivialized dynamics on parallelizable configuration spaces.

A trivialization is a q-dependent invertible matrix ``Phi(q)`` mapping fiber
vectors to tangent vectors.  States live on M x V* as (q, mu); the equations
of motion couple the frame bracket

    [u, v]_q = Phi^{-1} ( DPhi.(Phi u).v - DPhi.(Phi v).u )

to the fiber-momentum evolution through the coadjoint action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    EvaluationError,
    fd_gradient,
    integrate,
    newton_solve,
    stepper_with_tol,
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
        if self.d_matrix is not None:
            return np.asarray(self.d_matrix(np.asarray(q, dtype=float)), dtype=float)
        return fd_gradient(self.mat, q)

    def phi(self, q, xi):
        return self.mat(q) @ np.asarray(xi, dtype=float)

    def phi_inv(self, q, v):
        return _solve(self.mat(q), np.asarray(v, dtype=float), q)

    def phi_inv_dual(self, q, mu):
        """Phi(q)^{-*} mu: the covector p with <p, v> = <mu, Phi^{-1} v>."""
        return _solve(self.mat(q).T, np.asarray(mu, dtype=float), q)

    def phi_dual(self, q, p):
        """Phi(q)^* p in V*."""
        return self.mat(q).T @ np.asarray(p, dtype=float)

    def dphi(self, q, v, xi):
        """DPhi(q).v.xi: derivative of the frame in direction v applied to xi."""
        return np.einsum("abc,c,b->a", self.dmat(q), np.asarray(v, dtype=float),
                         np.asarray(xi, dtype=float))

    def validate(self, rng, n_points=10, rtol=1e-8):
        """Round-trip and derivative cross-checks at random points."""
        for _ in range(n_points):
            q = rng.uniform(-0.8, 0.8, self.dim)
            xi = rng.standard_normal(self.dim)
            back = self.phi_inv(q, self.phi(q, xi))
            if np.max(np.abs(back - xi)) > 1e-10 * (1.0 + np.max(np.abs(xi))):
                raise ValueError("phi_inv . phi is not the identity on the fiber")
            if self.d_matrix is not None:
                fd = Trivialization(self.dim, self.matrix).dmat(q)
                if np.max(np.abs(fd - self.dmat(q))) > rtol * (1.0 + np.max(np.abs(fd))):
                    raise ValueError("supplied d_matrix disagrees with differences")


def _solve(mat, rhs, q):
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise EvaluationError(f"singular trivialization matrix: {exc}", state=q) from exc


@dataclass(frozen=True)
class TrivializedState:
    q: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, dtype=float)))
        object.__setattr__(self, "mu", np.atleast_1d(np.asarray(self.mu, dtype=float)))
        if self.q.shape != self.mu.shape:
            raise ValueError("q and mu must have matching length")

    def as_array(self):
        return np.concatenate([self.q, self.mu])


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
    """
    if prob.dim != triv.dim:
        raise ValueError("problem and trivialization dimensions differ")

    def value(t, q, mu):
        return prob.value(t, q, triv.phi_inv_dual(q, mu))

    def d_mu(t, q, mu):
        p = triv.phi_inv_dual(q, mu)
        return _solve(triv.mat(q), prob.d_p(t, q, p), q)

    def d_q(t, q, mu):
        p = triv.phi_inv_dual(q, mu)
        xi = _solve(triv.mat(q), prob.d_p(t, q, p), q)
        dm = triv.dmat(q)
        correction = np.einsum("abc,a,b->c", dm, p, xi)
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


def coadjoint(triv: Trivialization, q, xi, alpha):
    """ad*_xi alpha assembled columnwise from <ad*_xi alpha, e_i> = <alpha, [xi, e_i]_q>."""
    xi = np.asarray(xi, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    mat = triv.mat(q)
    dm = triv.dmat(q)
    w = _solve(mat.T, alpha, q)                # Phi^{-T} alpha
    b_xi = np.einsum("abc,c->ab", dm, mat @ xi)
    term1 = b_xi.T @ w                          # <w, B(Phi xi) e_i>
    g = np.einsum("abc,a,b->c", dm, w, xi)      # <w, B(.) xi> contracted
    return term1 - mat.T @ g


def hamel_vector_field(h: TrivializedHamiltonian, triv: Trivialization, t,
                       state: TrivializedState):
    """Right-hand side (dq, dmu) of the trivialized equations.

    ``dq = Phi(q) D_mu h`` and ``dmu = ad*_xi mu - Phi(q)^* D_q h`` with the
    trivialized velocity taken as ``xi = D_mu h`` (on-shell identical to
    ``Phi^{-1} dq/dt``, and it keeps the field self-contained).
    """
    q, mu = state.q, state.mu
    xi = np.asarray(h.d_mu(t, q, mu), dtype=float)
    dq = triv.mat(q) @ xi
    dmu = coadjoint(triv, q, xi, mu) - triv.phi_dual(q, np.asarray(h.d_q(t, q, mu), dtype=float))
    return dq, dmu


def _hamel_flat_field(h, triv):
    n = triv.dim

    def fld(t, x):
        dq, dmu = hamel_vector_field(h, triv, t, TrivializedState(x[:n], x[n:]))
        return np.concatenate([dq, dmu])

    return fld


@dataclass(frozen=True)
class HamelTrajectory:
    times: np.ndarray
    states: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def initial(self):
        return self.states[0]

    @property
    def final(self):
        return self.states[-1]

    @property
    def qs(self):
        return np.array([s.q for s in self.states])

    @property
    def mus(self):
        return np.array([s.mu for s in self.states])


def integrate_hamel(h, triv, state0: TrivializedState, T, N, stepper="midpoint",
                    t0=0.0, tol=DEFAULT_TOL):
    fld = _hamel_flat_field(h, triv)
    stepfn = stepper_with_tol(stepper, tol)
    times, xs = integrate(fld, state0.as_array(), t0, T, N, stepper=stepfn)
    n = triv.dim
    states = [TrivializedState(x[:n], x[n:]) for x in xs]
    return HamelTrajectory(times=times, states=tuple(states),
                           metadata={"solver": "hamel-ivp"})


def solve_hamel_type_ii(h, triv, q0, mu1, T, N=100, stepper="midpoint", guess=None,
                        t0=0.0, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Single shooting on mu(0) for fixed q(0) = q0 and terminal mu(T) = mu1.

    In canonical coordinates the same data read as the terminal condition
    p(T) = Phi(q(T))^* mu1, i.e. a q-dependent section of the cotangent
    bundle; solving in the trivializing space keeps it a plain two-point
    problem.
    """
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    fld = _hamel_flat_field(h, triv)
    stepfn = stepper_with_tol(stepper, tol)
    n = triv.dim

    def residual(mu0):
        _, xs = integrate(fld, np.concatenate([q0, mu0]), t0, T, N, stepper=stepfn)
        return xs[-1, n:] - mu1

    if guess is None:
        guess = mu1.copy()
    result = newton_solve(residual, guess, tol=tol, max_iter=max_iter)
    times, xs = integrate(fld, np.concatenate([q0, result.x]), t0, T, N, stepper=stepfn)
    states = [TrivializedState(x[:n], x[n:]) for x in xs]
    return HamelTrajectory(times=times, states=tuple(states),
                           metadata={"solver": "hamel-shooting",
                                     "newton_residual": result.residual})


# ---------------------------------------------------------------------------
# built-in trivializations

def identity_trivialization(n, label="identity"):
    return Trivialization(dim=n, matrix=lambda q: np.eye(n),
                          d_matrix=lambda q: np.zeros((n, n, n)), label=label)


def scaled_trivialization(n, factor, label=None):
    return Trivialization(dim=n, matrix=lambda q: factor * np.eye(n),
                          d_matrix=lambda q: np.zeros((n, n, n)),
                          label=label or f"scaled({factor})")


def _hat(w):
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


def _so3_series_coeffs(theta2):
    # d2 and its radial derivative for small angles (Bernoulli-number series)
    d2 = 1.0 / 12.0 + theta2 / 720.0 + theta2**2 / 30240.0 + theta2**3 / 1209600.0
    theta = np.sqrt(theta2)
    d2_prime = theta / 360.0 + theta * theta2 / 7560.0 + theta * theta2**2 / 201600.0
    return d2, d2_prime


def _so3_d2(theta):
    if theta < 0.1:
        return _so3_series_coeffs(theta * theta)[0]
    return 1.0 / theta**2 - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))


def _so3_d2_prime(theta):
    if theta < 0.1:
        return _so3_series_coeffs(theta * theta)[1]
    s, c = np.sin(theta), np.cos(theta)
    u, v = 1.0 + c, 2.0 * theta * s
    du, dv = -s, 2.0 * s + 2.0 * theta * c
    return -2.0 / theta**3 - (du * v - u * dv) / v**2


def _so3_matrix(w):
    theta = float(np.sqrt(np.dot(w, w)))
    wh = _hat(w)
    return np.eye(3) + 0.5 * wh + _so3_d2(theta) * (wh @ wh)


def _so3_d_matrix(w):
    theta = float(np.sqrt(np.dot(w, w)))
    wh = _hat(w)
    wh2 = np.outer(w, w) - theta**2 * np.eye(3)
    d2 = _so3_d2(theta)
    d2p = _so3_d2_prime(theta)
    out = np.empty((3, 3, 3))
    for c in range(3):
        e = np.zeros(3)
        e[c] = 1.0
        dwh2 = np.outer(e, w) + np.outer(w, e) - 2.0 * w[c] * np.eye(3)
        radial = (d2p * w[c] / theta) * wh2 if theta > 0 else np.zeros((3, 3))
        out[:, :, c] = 0.5 * _hat(e) + radial + d2 * dwh2
    return out


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
