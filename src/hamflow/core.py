"""Phase-space problem types, the derivative stack, damped Newton, and steppers.

Everything here is immutable after construction and every operation is a pure
function of its inputs, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import dual

Array = np.ndarray

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 50

_EPS = np.finfo(float).eps
_GRAD_STEP = _EPS ** (1.0 / 3.0)      # central first differences
_HESS_STEP = _EPS**0.25              # central second differences
_JAC_STEP = np.sqrt(_EPS)            # forward differences inside Newton


# ---------------------------------------------------------------------------
# errors

class HamflowError(Exception):
    """Base class for solver errors."""


class EvaluationError(HamflowError):
    """A user-supplied map produced a non-finite value."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class NoConvergence(HamflowError):
    """Iteration ran out of budget; carries the best iterate found."""

    def __init__(self, message, x=None, residual=None, iterations=None, best=None):
        super().__init__(message)
        self.x = x
        self.residual = residual
        self.iterations = iterations
        self.best = best


class SingularJacobian(HamflowError):
    """Jacobian condition estimate exceeded 1/machine-eps."""


class RankDeficientStageSystem(HamflowError):
    """Internal stage system of a one-step scheme lost rank."""


class LegendreInversionFailure(HamflowError):
    """Velocity-to-momentum inversion failed (problem not hyperregular)."""


class DegenerateRegression(HamflowError):
    """Too few error samples above the noise floor for a slope fit."""


class BlowUp(HamflowError):
    """Trajectory or objective exceeded the blow-up guard."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


class UnsupportedScheme(HamflowError):
    """Operation does not support the requested quadrature/basis pairing."""


class StepFailure(HamflowError):
    """A one-step map failed mid-trajectory; carries the step index."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConfigError(HamflowError):
    """Invalid experiment configuration."""


# ---------------------------------------------------------------------------
# finite differences

def fd_gradient(f, x, step=_GRAD_STEP):
    """Central differences of ``f`` at 1-d ``x``, with the derivative axis last.

    ``f`` may return a scalar (the result is its gradient, shape ``(n,)``),
    a vector (its Jacobian, ``(m, n)``) or a matrix (``(a, b, n)``); the
    step for ``x[i]`` is ``step * (1 + |x[i]|)``.
    """
    x = np.asarray(x, dtype=float)
    out = None
    for i in range(x.size):
        h = step * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        d = (f(xp) - f(xm)) / (2.0 * h)
        if out is None:
            # getattr, not np.shape: this is the hot path of scalar fd fields
            out = np.empty(getattr(d, "shape", ()) + x.shape)
        out[..., i] = d
    return out


def fd_hessian(f, x, step=_HESS_STEP):
    """Central-difference Hessian of scalar ``f`` at 1-d ``x``."""
    x = np.asarray(x, dtype=float)
    n = x.size
    hs = step * (1.0 + np.abs(x))
    out = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = hs[i]
        out[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / hs[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = hs[j]
            val = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej))
            out[i, j] = out[j, i] = val / (4.0 * hs[i] * hs[j])
    return out


def fd_jacobian(F, x, F0=None, step=_JAC_STEP):
    """Forward-difference Jacobian of vector-valued ``F`` at 1-d ``x``."""
    x = np.asarray(x, dtype=float)
    if F0 is None:
        F0 = np.atleast_1d(np.asarray(F(x), dtype=float))
    J = np.empty((F0.size, x.size))
    for j in range(x.size):
        h = step * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        J[:, j] = (np.atleast_1d(np.asarray(F(xp), dtype=float)) - F0) / h
    return J


def fd_scalar_derivative(f, t, step=_GRAD_STEP):
    h = step * (1.0 + abs(t))
    return (f(t + h) - f(t - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# domain types

def _frozen_array(x):
    a = np.array(x, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PhasePoint:
    """A point (q, p) on flat phase space; entries must be finite."""

    q: Array
    p: Array

    def __post_init__(self):
        object.__setattr__(self, "q", _frozen_array(np.atleast_1d(self.q)))
        object.__setattr__(self, "p", _frozen_array(np.atleast_1d(self.p)))
        if self.q.ndim != 1 or self.p.ndim != 1 or self.q.size != self.p.size:
            raise ValueError("q and p must be 1-d with matching length")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
            raise ValueError("phase point entries must be finite")

    @property
    def dim(self):
        return self.q.size

    def as_array(self):
        return np.concatenate([self.q, self.p])

    @staticmethod
    def from_array(z):
        z = np.asarray(z, dtype=float)
        n = z.size // 2
        return PhasePoint(z[:n], z[n:])


@dataclass(frozen=True)
class Trajectory:
    """Time grid with phase states, optional controls, and solver metadata.

    ``states`` is a read-only ``(N+1, 2n)`` float array whose row k is
    ``(q_k, p_k)``; a sequence of :class:`PhasePoint` is stacked into it.
    ``qs``, ``ps`` and :meth:`state_array` are views of it, and ``initial``
    and ``final`` build their :class:`PhasePoint` on access.
    """

    times: Array
    states: Array
    controls: Array | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "times", _frozen_array(self.times))
        states = self.states
        if len(states) and isinstance(states[0], PhasePoint):
            states = [z.as_array() for z in states]
        states = _frozen_array(states)
        object.__setattr__(self, "states", states)
        if states.ndim != 2 or states.shape[1] == 0 or states.shape[1] % 2:
            raise ValueError("states must be an (N+1, 2n) array")
        if not np.all(np.isfinite(states)):
            raise ValueError("trajectory states must be finite")
        if states.shape[0] != self.times.size:
            raise ValueError("states and times lengths differ")
        if self.times.size >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if self.controls is not None:
            ctrl = _frozen_array(np.atleast_2d(self.controls))
            if ctrl.shape[0] != self.times.size:
                raise ValueError("controls length differs from times")
            object.__setattr__(self, "controls", ctrl)

    @property
    def n_steps(self):
        return self.times.size - 1

    @property
    def qs(self):
        return self.states[:, : self.states.shape[1] // 2]

    @property
    def ps(self):
        return self.states[:, self.states.shape[1] // 2:]

    def state_array(self):
        return self.states

    @property
    def initial(self):
        return PhasePoint.from_array(self.states[0])

    @property
    def final(self):
        return PhasePoint.from_array(self.states[-1])


_MODES = ("dual", "analytic", "fd")


@dataclass(frozen=True)
class HamiltonianProblem:
    """Scalar H(t, q, p) on flat 2n-dimensional phase space.

    ``derivative_mode`` selects the engine for derivatives that are not
    supplied analytically: ``dual`` (forward AD; H must accept
    :class:`~hamflow.dual.Dual` entries), or ``fd`` (central differences).
    Supplied closures always win.  With ``check=True`` the analytic
    derivatives are validated against central differences at seeded random
    points.
    """

    dim: int
    H: Callable
    D_qH: Callable | None = None
    D_pH: Callable | None = None
    D_ppH: Callable | None = None
    D_tH: Callable | None = None
    derivative_mode: str = "dual"
    name: str = ""
    check: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.derivative_mode not in _MODES:
            raise ValueError(f"derivative_mode must be one of {_MODES}")
        if self.check:
            self._validate()

    # -- derivative dispatch ------------------------------------------------

    def value(self, t, q, p):
        return float(self.H(t, np.asarray(q, dtype=float), np.asarray(p, dtype=float)))

    def d_q(self, t, q, p):
        if self.D_qH is not None:
            return np.asarray(self.D_qH(t, q, p), dtype=float)
        if self.derivative_mode == "dual":
            return dual.gradient(lambda qq: self.H(t, qq, p), q)
        return fd_gradient(lambda qq: self.H(t, qq, p), q)

    def d_p(self, t, q, p):
        if self.D_pH is not None:
            return np.asarray(self.D_pH(t, q, p), dtype=float)
        if self.derivative_mode == "dual":
            return dual.gradient(lambda pp: self.H(t, q, pp), p)
        return fd_gradient(lambda pp: self.H(t, q, pp), p)

    def d_pp(self, t, q, p):
        if self.D_ppH is not None:
            return np.asarray(self.D_ppH(t, q, p), dtype=float)
        if self.derivative_mode == "dual":
            return dual.hessian(lambda pp: self.H(t, q, pp), p)
        return fd_hessian(lambda pp: self.H(t, q, pp), p)

    def d_t(self, t, q, p):
        if self.D_tH is not None:
            return float(self.D_tH(t, q, p))
        if self.derivative_mode == "dual":
            return dual.derivative(lambda tt: self.H(tt, q, p), t)
        return fd_scalar_derivative(lambda tt: self.value(tt, q, p), t)

    # -- construction-time validation ----------------------------------------

    def _validate(self, n_points=10, seed=20240817, rtol=1e-6):
        rng = np.random.default_rng(seed)
        for _ in range(n_points):
            t = float(rng.uniform(0.0, 1.0))
            q = rng.uniform(-1.0, 1.0, self.dim)
            p = rng.uniform(-1.0, 1.0, self.dim)
            scale = 1.0 + abs(self.value(t, q, p))
            if self.D_qH is not None:
                ref = fd_gradient(lambda qq: self.H(t, qq, p), q)
                if np.max(np.abs(self.d_q(t, q, p) - ref)) > rtol * (scale + np.max(np.abs(ref))):
                    raise ValueError("analytic D_qH disagrees with central differences")
            if self.D_pH is not None:
                ref = fd_gradient(lambda pp: self.H(t, q, pp), p)
                if np.max(np.abs(self.d_p(t, q, p) - ref)) > rtol * (scale + np.max(np.abs(ref))):
                    raise ValueError("analytic D_pH disagrees with central differences")
            hess = self.d_pp(t, q, p)
            if np.max(np.abs(hess - hess.T)) > 1e-10 * (1.0 + np.max(np.abs(hess))):
                raise ValueError("D_ppH is not symmetric at a sampled point")


@dataclass(frozen=True)
class MaximallyDegenerateProblem(HamiltonianProblem):
    """H(t,q,p) = <p, f(t,q)> + g(t,q); the momentum Hessian vanishes.

    Carries the pieces f and g so sweep solvers can split the dynamics into
    a forward equation in q and a linear backward equation in p.
    """

    f: Callable | None = None
    g: Callable | None = None
    D_qf: Callable | None = None
    D_qg: Callable | None = None

    def f_value(self, t, q):
        return np.asarray(self.f(t, np.asarray(q, dtype=float)), dtype=float)

    def g_value(self, t, q):
        return 0.0 if self.g is None else float(self.g(t, np.asarray(q, dtype=float)))

    def d_qf(self, t, q):
        if self.D_qf is not None:
            return np.asarray(self.D_qf(t, q), dtype=float)
        return fd_gradient(lambda qq: self.f_value(t, qq), q)

    def d_qg(self, t, q):
        if self.D_qg is not None:
            return np.asarray(self.D_qg(t, q), dtype=float)
        if self.g is None:
            return np.zeros(np.asarray(q).size)
        return fd_gradient(lambda qq: self.g(t, qq), q)


def maximally_degenerate(f, g, dim, D_qf=None, D_qg=None, name=""):
    """Build the problem H = <p, f(t,q)> + g(t,q) with analytic structure."""

    def H(t, q, p):
        total = np.dot(p, np.asarray(f(t, np.asarray(q, dtype=float)), dtype=float))
        if g is not None:
            total = total + g(t, np.asarray(q, dtype=float))
        return total

    prob = MaximallyDegenerateProblem(
        dim=dim,
        H=H,
        D_pH=lambda t, q, p: np.asarray(f(t, np.asarray(q, dtype=float)), dtype=float),
        D_ppH=lambda t, q, p: np.zeros((dim, dim)),
        derivative_mode="analytic",
        name=name or "maximally-degenerate",
        f=f,
        g=g,
        D_qf=D_qf,
        D_qg=D_qg,
    )
    object.__setattr__(
        prob, "D_qH",
        lambda t, q, p: prob.d_qf(t, q).T @ np.asarray(p, dtype=float) + prob.d_qg(t, q),
    )
    return prob


# ---------------------------------------------------------------------------
# operations

def hamiltonian_vector_field(prob: HamiltonianProblem, t, z: PhasePoint):
    """Right-hand side (dq, dp) = (D_pH, -D_qH) at (t, z)."""
    dq = prob.d_p(t, z.q, z.p)
    dp = -prob.d_q(t, z.q, z.p)
    if not (np.all(np.isfinite(dq)) and np.all(np.isfinite(dp))):
        raise EvaluationError("non-finite Hamiltonian derivative", t=t, state=z)
    return dq, dp


def phase_field(prob: HamiltonianProblem):
    """Flat-array field z -> (D_pH, -D_qH) for the steppers below."""
    n = prob.dim

    def field(t, z):
        q, p = z[:n], z[n:]
        return np.concatenate([prob.d_p(t, q, p), -prob.d_q(t, q, p)])

    return field


REGULAR = "regular"
DEGENERATE = "degenerate"
MAXIMALLY_DEGENERATE = "maximally_degenerate"


def degeneracy_class(prob: HamiltonianProblem, samples, tol=1e-8):
    """Classify rank of the momentum Hessian at the given (t, PhasePoint) samples.

    Sample-relative: ``regular`` needs the smallest singular value above
    ``tol`` at every sample, ``maximally_degenerate`` needs the whole Hessian
    below ``tol`` at every sample, anything else is ``degenerate``.
    """
    if not samples:
        raise ValueError("need at least one sample")
    all_regular = True
    all_flat = True
    for t, z in samples:
        hess = prob.d_pp(t, z.q, z.p)
        svals = np.linalg.svd(hess, compute_uv=False)
        if svals.min() <= tol:
            all_regular = False
        if svals.max() > tol:
            all_flat = False
    if all_regular:
        return REGULAR
    if all_flat:
        return MAXIMALLY_DEGENERATE
    return DEGENERATE


@dataclass(frozen=True)
class NewtonResult:
    x: Array
    residual: float
    iterations: int


_MIN_STEP = 2.0**-30
_ARMIJO = 1e-4
_MAX_COND = 1.0 / _EPS


def newton_solve(F, x0, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, jac=None):
    """Damped Newton for F(x) = 0 with Armijo backtracking (factor 0.5).

    Stops when ``||F(x)||_inf <= tol``.  The Jacobian comes from ``jac`` or
    forward differences.  Raises :class:`SingularJacobian` when the condition
    estimate exceeds 1/machine-eps and :class:`NoConvergence` (carrying the
    best iterate) when the budget runs out.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    Fx = np.atleast_1d(np.asarray(F(x), dtype=float))
    if not np.all(np.isfinite(Fx)):
        raise EvaluationError("residual non-finite at the initial guess", state=x)
    res = float(np.max(np.abs(Fx)))
    best_x, best_res = x.copy(), res
    for it in range(max_iter):
        if res <= tol:
            return NewtonResult(x, res, it)
        J = np.asarray(jac(x), dtype=float) if jac is not None else fd_jacobian(F, x, Fx)
        if not np.all(np.isfinite(J)):
            raise EvaluationError("non-finite Jacobian", state=x)
        cond = np.linalg.cond(J)
        if not (cond < _MAX_COND):
            raise SingularJacobian(f"Jacobian condition estimate {cond:.3e}")
        dx = np.linalg.solve(J, -Fx)
        merit = 0.5 * float(Fx @ Fx)
        lam = 1.0
        accepted = False
        while lam >= _MIN_STEP:
            x_try = x + lam * dx
            F_try = np.atleast_1d(np.asarray(F(x_try), dtype=float))
            if np.all(np.isfinite(F_try)):
                m_try = 0.5 * float(F_try @ F_try)
                if m_try <= merit * (1.0 - 2.0 * _ARMIJO * lam):
                    x, Fx = x_try, F_try
                    res = float(np.max(np.abs(Fx)))
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            raise NoConvergence("line search stalled", x=best_x,
                                residual=best_res, iterations=it)
        if res < best_res:
            best_x, best_res = x.copy(), res
    if res <= tol:
        return NewtonResult(x, res, max_iter)
    raise NoConvergence("Newton did not converge", x=best_x,
                        residual=best_res, iterations=max_iter)


# ---------------------------------------------------------------------------
# one-step maps for generic fields dx/dt = f(t, x)

def euler_step(f, t, x, h):
    return x + h * np.asarray(f(t, x), dtype=float)


def rk4_step(f, t, x, h):
    k1 = np.asarray(f(t, x), dtype=float)
    k2 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(f(t + h, x + h * k3), dtype=float)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def midpoint_step(f, t, x, h, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Implicit midpoint step solved by damped Newton (Euler predictor).

    The Newton tolerance scales with the state magnitude so long runs whose
    components grow large stay solvable down to rounding.
    """
    t_mid = t + 0.5 * h

    def residual(x1):
        return x1 - x - h * np.asarray(f(t_mid, 0.5 * (x + x1)), dtype=float)

    f0 = np.asarray(f(t, x), dtype=float)
    # the residual's rounding floor tracks both the state and the increment
    scale = 1.0 + max(float(np.max(np.abs(x))), abs(h) * float(np.max(np.abs(f0))))
    return newton_solve(residual, x + h * f0, tol=tol * scale, max_iter=max_iter).x


STEPPERS = {
    "euler": euler_step,
    "rk4": rk4_step,
    "midpoint": midpoint_step,
}


def resolve_stepper(stepper):
    """Accept a stepper name or a callable (field, t, x, h) -> x_next."""
    if callable(stepper):
        return stepper
    try:
        return STEPPERS[stepper]
    except KeyError:
        raise ValueError(f"unknown stepper {stepper!r}; choose from {sorted(STEPPERS)}")


def stepper_with_tol(stepper, tol):
    """Bind a Newton tolerance into the implicit steppers; pass others through."""
    stepfn = resolve_stepper(stepper)
    if stepfn is midpoint_step:
        return lambda f, t, x, h: midpoint_step(f, t, x, h, tol=tol)
    return stepfn


def stepper_name(stepper):
    """Metadata label of a stepper: its registry name or the callable's name."""
    return stepper if isinstance(stepper, str) else getattr(stepper, "__name__", "custom")


def integrate(f, x0, t0, T, N, stepper="midpoint"):
    """March ``N`` steps of ``stepper`` over [t0, t0+T]; returns (times, states).

    Step failures are re-raised as :class:`StepFailure` with the step index.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    step = resolve_stepper(stepper)
    times = t0 + (T / N) * np.arange(N + 1)
    h = T / N
    out = np.empty((N + 1, np.atleast_1d(x0).size))
    out[0] = np.atleast_1d(np.asarray(x0, dtype=float))
    x = out[0].copy()
    for k in range(N):
        try:
            x = np.asarray(step(f, times[k], x, h), dtype=float)
        except HamflowError as exc:
            raise StepFailure(f"step {k} failed: {exc}", step=k) from exc
        if not np.all(np.isfinite(x)):
            raise StepFailure(f"non-finite state after step {k}", step=k)
        out[k + 1] = x
    return times, out
