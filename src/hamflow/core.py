"""Phase-space problem types, the derivative stack, damped Newton
(:func:`newton_solve`, the one place a Newton matrix is formed, factored,
reused and retried), the steppers and their march (:func:`integrate`), and
the forward-backward sweep (:func:`sweep`).

Every partial in the package is read through :func:`partial_of` (a supplied
closure, else dual numbers or central differences) or a one-pass jet over (q, p)
(:meth:`HamiltonianProblem.gradient`); three callers call a supplied partial
themselves: :func:`sweep` (D_qf, D_qg, as its callers hand them over),
:func:`~hamflow.optcontrol.solve_fbsm` (D_uf, D_ug) and the march field of
:func:`~hamflow.accelopt.minimize` (the gradient).  Every ``validate()``
compares its supplied closures with differences through :func:`check_closure`.

Everything here is immutable after construction and every operation is a pure
function of its inputs, so values can be shared freely across threads, with
one exception: a Newton matrix holder, and the midpoint stepper that
:func:`stepper_with_tol` binds one into, carry a matrix from solve to solve,
so one is built per march (:func:`integrate` and :func:`sweep` bind one per
call) and not shared between threads.  One policy holds: a dense holder
(:func:`march_matrix`) reuses only a matrix it formed itself, so a march's
first step is its standalone step, and the banded holder
(:func:`banded_matrix`) reuses its factors within its single solve.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import banded, dual

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
    """Jacobian not invertible, or its 1-norm condition estimate reached
    1/machine-eps."""


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
    a vector (its Jacobian, ``(m, n)``) or a matrix (``(a, b, n)``), as a
    number, an array or a nested sequence; the step for ``x[i]`` is
    ``step * (1 + |x[i]|)``.
    """
    x = np.asarray(x, dtype=float)
    out = None
    for i in range(x.size):
        h = step * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fp, fm = f(xp), f(xm)
        try:
            d = (fp - fm) / (2.0 * h)
        except TypeError:         # sequences: one conversion per difference
            d = np.subtract(fp, fm, dtype=float) / (2.0 * h)
        if out is None:
            # getattr, not np.shape: this is the hot path of scalar fd fields
            out = np.empty(getattr(d, "shape", ()) + x.shape)
        out[..., i] = d
    return out


def fd_hessian(f, x):
    """Central-difference Hessian of scalar ``f`` at 1-d ``x``."""
    x = np.asarray(x, dtype=float)
    n = x.size
    hs = _HESS_STEP * (1.0 + np.abs(x))
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


def fd_jacobian(F, x, F0=None):
    """Forward-difference Jacobian of vector-valued ``F`` at 1-d ``x``."""
    x = np.asarray(x, dtype=float)
    if F0 is None:
        F0 = np.atleast_1d(np.asarray(F(x), dtype=float))
    J = np.empty((F0.size, x.size))
    for j in range(x.size):
        h = _JAC_STEP * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        J[:, j] = (np.atleast_1d(np.asarray(F(xp), dtype=float)) - F0) / h
    return J


def partial_of(supplied, fn, args, i, mode):
    """The partial of ``fn`` along ``args[i]`` at the argument tuple ``args``:
    ``supplied(*args)`` as floats when a closure is supplied, else the
    forward-AD gradient if ``mode == "dual"`` (``fn`` must accept
    :class:`~hamflow.dual.Dual` entries), else the central differences of
    ``fn`` as floats (:func:`fd_gradient`, derivative axis last)."""
    if supplied is not None:
        return np.asarray(supplied(*args), dtype=float)
    head, tail = args[:i], args[i + 1:]
    if mode == "dual":
        return dual.gradient(lambda x: fn(*head, x, *tail), args[i])
    return fd_gradient(lambda x: fn(*head, x, *tail), args[i])


def check_closure(name, supplied, reference, points, rtol):
    """Raise ``ValueError("<name> disagrees with central differences")`` unless
    ``supplied(*args)`` is within ``rtol (1 + max|ref|)`` of the difference
    reference ``reference(*args)`` at every argument tuple in ``points``; a
    closure that is not supplied (``None``) passes."""
    if supplied is None:
        return
    for args in points:
        ref = np.asarray(reference(*args), dtype=float)
        if np.max(np.abs(np.asarray(supplied(*args), dtype=float) - ref)) \
                > rtol * (1.0 + np.max(np.abs(ref))):
            raise ValueError(f"{name} disagrees with central differences")


def seeded_points(x0):
    """Five seeded points within 0.5 of ``x0`` in every entry."""
    rng = np.random.default_rng(20240817)
    return [x0 + rng.uniform(-0.5, 0.5, x0.size) for _ in range(5)]


# ---------------------------------------------------------------------------
# domain types

def _frozen_array(x):
    a = np.array(x, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PhasePoint:
    """A point (q, p) on flat phase space; entries must be finite.

    It is also the trivialized state (q, mu) of :mod:`hamflow.hamel`, where
    ``mu`` names ``p``, and the extended state of :mod:`hamflow.accelopt`.
    Solvers take it at their entry and march the flat array ``as_array()``.
    """

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

    @property
    def mu(self):
        """The momentum block read as fiber momenta mu on a trivialized state."""
        return self.p

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
    and ``final`` build their :class:`PhasePoint` on access.  On a trivialized
    trajectory (:mod:`hamflow.hamel`) the momentum columns are the fiber
    momenta mu, so ``ps`` is also named ``mus``.
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

    mus = ps

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
    ``analytic`` declares the partials supplied, but any partial that is not
    is differenced as under ``fd``.  Supplied closures always win, block by
    block.  In ``dual`` mode with no ``D_qH`` or ``D_pH``, :meth:`gradient` and
    :meth:`hessian` are each one jet pass over z = (q, p).  :meth:`validate`
    checks the supplied closures against differences of H.
    """

    dim: int
    H: Callable
    D_qH: Callable | None = None
    D_pH: Callable | None = None
    D_ppH: Callable | None = None
    D_tH: Callable | None = None
    derivative_mode: str = "dual"
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.derivative_mode not in _MODES:
            raise ValueError(f"derivative_mode must be one of {_MODES}")
        object.__setattr__(self, "_one_pass", self.derivative_mode == "dual"
                           and self.D_qH is None and self.D_pH is None)

    # -- derivative dispatch ------------------------------------------------

    def value(self, t, q, p):
        return float(self.H(t, np.asarray(q, dtype=float), np.asarray(p, dtype=float)))

    def d_q(self, t, q, p):
        return partial_of(self.D_qH, self.H, (t, q, p), 1, self.derivative_mode)

    def d_p(self, t, q, p):
        return partial_of(self.D_pH, self.H, (t, q, p), 2, self.derivative_mode)

    def d_pp(self, t, q, p):
        if self.D_ppH is not None:
            return np.asarray(self.D_ppH(t, q, p), dtype=float)
        if self.derivative_mode == "dual":
            return dual.hessian(lambda pp: self.H(t, q, pp), p)
        return fd_hessian(lambda pp: self.H(t, q, pp), p)

    def gradient(self, t, q, p):
        """``(D_qH, D_pH)`` at (t, q, p): :meth:`d_q` and :meth:`d_p`, or one
        first-order jet pass over z = (q, p) in ``dual`` mode when neither is supplied."""
        if not self._one_pass:
            return self.d_q(t, q, p), self.d_p(t, q, p)
        n = self.dim
        g = dual.gradient(lambda z: self.H(t, z[:n], z[n:]), np.concatenate([q, p]))
        return g[:n], g[n:]

    def hessian(self, t, q, p):
        """Symmetric ``(2n, 2n)`` Hessian of H at (t, q, p), in (q, p) order.

        One second-order jet pass over z when :meth:`gradient` is one; else
        H_qq and H_pq are forward differences of :meth:`gradient` along q and
        H_qp is H_pq transposed.  A supplied ``D_ppH`` fills H_pp, else the jet
        or :meth:`d_pp` does.  The Galerkin stage solve
        (:func:`hamflow.integrators.galerkin_discrete_hamiltonian`) builds its
        Newton Jacobian from it, so a difference error there costs Newton
        iterations, not accuracy.
        """
        n = self.dim
        q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
        if self._one_pass:
            hess = dual.hessian(lambda z: self.H(t, z[:n], z[n:]), np.concatenate([q, p]))
            if self.D_ppH is None:
                return hess
        else:
            cols = fd_jacobian(lambda qq: np.concatenate(self.gradient(t, qq, p)), q)
            hess = np.empty((2 * n, 2 * n))
            hess[:n, :n] = 0.5 * (cols[:n] + cols[:n].T)
            hess[n:, :n] = cols[n:]
            hess[:n, n:] = cols[n:].T
        hpp = self.d_pp(t, q, p)
        hess[n:, n:] = 0.5 * (hpp + hpp.T)
        return hess

    def d_t(self, t, q, p):
        if self.D_tH is not None:
            return float(self.D_tH(t, q, p))
        if self.derivative_mode == "dual":
            return dual.derivative(lambda tt: self.H(tt, q, p), t)
        return fd_gradient(lambda tt: self.value(tt[0], q, p), [t])[0]

    def validate(self):
        """Raise ``ValueError`` unless each supplied D_qH, D_pH, D_ppH and D_tH
        matches differences of H at ten seeded (t, q, p), t in [0, 1], q, p in
        [-1, 1]^n, and the momentum Hessian is symmetric there."""
        rng = np.random.default_rng(20240817)
        points = [(float(rng.uniform(0.0, 1.0)), rng.uniform(-1.0, 1.0, self.dim),
                   rng.uniform(-1.0, 1.0, self.dim)) for _ in range(10)]
        # the references are this H with nothing supplied, differenced
        fd = HamiltonianProblem(self.dim, self.H, derivative_mode="fd")
        for name, reference in (("D_qH", fd.d_q), ("D_pH", fd.d_p),
                                ("D_ppH", fd.d_pp), ("D_tH", fd.d_t)):
            check_closure(name, getattr(self, name), reference, points, 1e-6)
        for t, q, p in points:
            hess = self.d_pp(t, q, p)
            if np.max(np.abs(hess - hess.T)) > 1e-10 * (1.0 + np.max(np.abs(hess))):
                raise ValueError("D_ppH is not symmetric at a sampled point")


@dataclass(frozen=True)
class MaximallyDegenerateProblem(HamiltonianProblem):
    """H(t,q,p) = <p, f(t,q)> + g(t,q); the momentum Hessian vanishes.

    Carries the pieces f and g so sweep solvers can split the dynamics into
    a forward equation in q and a linear backward equation in p.  H, D_qH =
    D_qf^T p + D_qg, D_pH = f and D_ppH = 0 are read off that split, so every
    solver sees one dynamics; no constructor or ``dataclasses.replace`` takes them.
    ``derivative_mode`` defaults to ``analytic``: the split supplies every
    partial but D_tH, which is differenced.
    """

    derivative_mode: str = "analytic"
    _: KW_ONLY
    f: Callable
    g: Callable | None = None
    D_qf: Callable | None = None
    D_qg: Callable | None = None

    def f_value(self, t, q):
        return np.asarray(self.f(t, np.asarray(q, dtype=float)), dtype=float)

    def d_qf(self, t, q):
        return partial_of(self.D_qf, self.f, (t, q), 1, "fd")

    def d_qg(self, t, q):
        if self.D_qg is None and self.g is None:
            return np.zeros(np.asarray(q).size)
        return partial_of(self.D_qg, self.g, (t, q), 1, "fd")

    def _split_H(self, t, q, p):
        total = np.dot(p, self.f_value(t, q))
        return total if self.g is None else total + self.g(t, np.asarray(q, dtype=float))

    def _split_D_qH(self, t, q, p):
        return self.d_qf(t, q).T @ np.asarray(p, dtype=float) + self.d_qg(t, q)

    # init=False fields keep their default as the class attribute, so each of
    # these reads as a bound method of the split
    H: Callable = field(init=False, repr=False, compare=False, default=_split_H)
    D_qH: Callable = field(init=False, repr=False, compare=False, default=_split_D_qH)
    D_pH: Callable = field(init=False, repr=False, compare=False,
                           default=lambda self, t, q, p: self.f_value(t, q))
    D_ppH: Callable = field(init=False, repr=False, compare=False,
                            default=lambda self, t, q, p: np.zeros((self.dim, self.dim)))

    def sweep(self, q0, p_end, T, N, stepper, tol):
        """The module's :func:`sweep` of this H over [0, T], with no controls.
        It hands the sweep the supplied f, D_qf and D_qg themselves, so each
        stage calls them directly; a partial that is not supplied is the
        difference fallback of :meth:`d_qf` or :meth:`d_qg`."""
        return sweep(self.f, self.D_qf if self.D_qf is not None else self.d_qf,
                     self.D_qg if self.D_qg is not None else self.d_qg, None,
                     q0, p_end, T, N, stepper, tol)


# ---------------------------------------------------------------------------
# operations

def phase_field(prob: HamiltonianProblem):
    """Flat-array field z -> (D_pH, -D_qH) for the steppers below."""
    n = prob.dim

    def field(t, z):
        q, p = z[:n], z[n:]
        return np.concatenate([prob.d_p(t, q, p), -prob.d_q(t, q, p)])

    def jet_field(t, z):        # one jet pass; `field` spares other problems the dispatch
        dq, dp = prob.gradient(t, z[:n], z[n:])
        return np.concatenate([dp, -dq])

    return jet_field if prob._one_pass else field


def phase_jacobian(prob: HamiltonianProblem):
    """Flat-array ``J(t, z)`` = Omega Hess H, the Jacobian of :func:`phase_field`.

    One :meth:`~HamiltonianProblem.hessian` call per point: exact in ``dual``
    mode, a supplied ``D_ppH`` fills the momentum block, and otherwise the
    gradient is differenced along q as ``hessian`` does.
    """
    n = prob.dim

    def jacobian(t, z):
        hess = prob.hessian(t, z[:n], z[n:])
        return np.concatenate([hess[n:], -hess[:n]])      # (H_pq, H_pp; -H_qq, -H_qp)

    return jacobian


def hamiltonian_vector_field(prob: HamiltonianProblem, t, z: PhasePoint):
    """Right-hand side (dq, dp) = (D_pH, -D_qH) at (t, z): :func:`phase_field` split."""
    dz = phase_field(prob)(t, z.as_array())
    if not np.all(np.isfinite(dz)):
        raise EvaluationError("non-finite Hamiltonian derivative", t=t, state=z)
    return dz[:z.dim], dz[z.dim:]


REGULAR = "regular"
DEGENERATE = "degenerate"
MAXIMALLY_DEGENERATE = "maximally_degenerate"


def degeneracy_class(prob: HamiltonianProblem, samples):
    """Classify rank of the momentum Hessian at the given (t, PhasePoint) samples.

    Sample-relative: ``regular`` needs the smallest singular value above
    1e-8 at every sample, ``maximally_degenerate`` needs the whole Hessian
    below 1e-8 at every sample, anything else is ``degenerate``.
    """
    if not samples:
        raise ValueError("need at least one sample")
    all_regular = True
    all_flat = True
    for t, z in samples:
        hess = prob.d_pp(t, z.q, z.p)
        svals = np.linalg.svd(hess, compute_uv=False)
        if svals.min() <= 1e-8:
            all_regular = False
        if svals.max() > 1e-8:
            all_flat = False
    if all_regular:
        return REGULAR
    if all_flat:
        return MAXIMALLY_DEGENERATE
    return DEGENERATE


@dataclass(frozen=True)
class NewtonResult:
    """The iterate, its residual ``||F(x)||_inf``, the Newton iterations run
    and the Newton matrices formed afresh (through ``jac`` or differences)."""

    x: Array
    residual: float
    iterations: int
    matrices: int


_MIN_STEP = 2.0**-30
_ARMIJO = 1e-4
_MAX_COND = 1.0 / _EPS


def _norm1(A):
    return float(np.abs(A).sum(axis=0).max())


_THETA = 0.1      # residual ratio above which a held Newton matrix is formed again


class _HeldMatrix:
    """A Newton matrix that the solves of one owner share (see
    :func:`newton_solve`): its inverse, the number of unknowns it was formed
    for, the residual ratio of the last Newton iteration run with it, and how
    many matrices were formed through it."""

    __slots__ = ("inverse", "size", "rate", "formed")

    def __init__(self):
        self.inverse, self.size, self.rate = None, None, 0.0
        self.formed = 0

    def factor(self, J, x):
        """The held form of the square Newton matrix ``J`` formed at ``x``:
        its inverse, whose condition estimate is ``||J||_1 ||J^-1||_1``."""
        J = np.asarray(J, dtype=float)
        return self._checked(x, (J,), lambda: np.linalg.inv(J),
                             lambda inverse: _norm1(J) * _norm1(inverse))

    @staticmethod
    def _checked(x, entries, form, estimate):
        """``form()``, the held form of the Newton matrix with the arrays
        ``entries`` formed at ``x``.  Raises :class:`EvaluationError` for a
        non-finite entry and :class:`SingularJacobian` when ``form`` raises
        ``LinAlgError`` or the condition estimate ``estimate(held)`` is not
        below 1/machine-eps."""
        if not all(np.isfinite(a).all() for a in entries):
            raise EvaluationError("non-finite Jacobian", state=x)
        try:
            held = form()
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"Jacobian not invertible ({exc})") from exc
        cond = estimate(held)
        if not (cond < _MAX_COND):
            raise SingularJacobian(f"Jacobian condition estimate {cond:.3e}")
        return held

    def reuses(self):
        """Whether the next solve may reuse the held matrix: only one formed here."""
        return self.formed > 0


class _BandedMatrix(_HeldMatrix):
    """A held :class:`~hamflow.banded.BlockLU` of a block-bidiagonal Newton
    matrix, for the unknowns ``free`` marks, and the worst condition estimate
    ``cond`` formed."""

    __slots__ = ("free", "cond")

    def __init__(self, free):
        super().__init__()
        self.free, self.cond = free, 0.0

    def factor(self, blocks, x):
        """The factors of the blocks ``(A, B, tail)`` formed at ``x``, whose
        condition estimate is the factors' own."""
        A, B, tail = (np.asarray(b, dtype=float) for b in blocks)
        lu = self._checked(x, (A, B, tail), lambda: banded.BlockLU(A, B, tail, self.free),
                           lambda factors: factors.cond)
        self.cond = max(self.cond, lu.cond)
        return lu

    def reuses(self):
        """Always: the factors are reused within the global solve, its only one."""
        return True


def banded_matrix(free):
    """An empty Newton matrix holder that selects the block-bidiagonal policy
    of :func:`newton_solve`; build one per solve.

    ``free`` is the boolean ``(N+1, m)`` mask of the unknowns among the entries
    of nodes x_0..x_N, row-major as ``x[free]`` orders them; only entries of
    x_0 and x_N may be fixed.  The owner's ``jac`` returns the blocks
    ``(A, B, tail)`` of its residual's Jacobian: row block k < N is ``A[k] x_k
    + B[k] x_{k+1}`` and the rows ``tail`` act on x_N, in that row order.  The
    matrix is held as :class:`~hamflow.banded.BlockLU` factors, reused within
    the one solve.
    """
    return _BandedMatrix(np.asarray(free, dtype=bool))


def march_matrix():
    """An empty dense Newton matrix holder for the solves of one march; build
    one per march.

    It reuses only a matrix it formed itself: the first solve through it
    forms a matrix at every iteration, exactly as a solve without a holder
    does, and every later solve starts under the last one (:func:`newton_solve`).
    So a march's first step is the standalone step, bit for bit.
    """
    return _HeldMatrix()


def newton_solve(F, x0, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, jac=None, matrix=None):
    """Damped Newton for F(x) = 0 with Armijo backtracking (factor 0.5).

    Stops when ``||F(x)||_inf <= tol``.  The Newton matrix comes from ``jac``
    or forward differences of ``F`` and is inverted once: a non-finite entry
    raises :class:`EvaluationError`, and a 1-norm condition estimate not below
    1/machine-eps :class:`SingularJacobian`.  Raises :class:`NoConvergence`
    (carrying the best iterate) when the line search stalls or the budget runs
    out.  The result counts the iterations run and the matrices formed afresh.

    Without ``matrix`` every iteration forms its own matrix, and so does the
    first solve through a :func:`march_matrix` holder: a holder reuses only a
    matrix it formed itself.  Every later solve through it starts under the
    held inverse, the simplified Newton of Hairer & Wanner, *Solving ODEs
    II*, §IV.8.  The matrix is formed again, at the current iterate, when the
    residual ratio of the last iteration run with it exceeded 0.1, or when it
    was formed for another number of unknowns.  A solve that begins under a
    carried matrix and stalls or meets a singular matrix clears the holder
    and runs once more from ``x0``; only a fresh matrix's failure propagates,
    and the result counts the iterations of both runs.

    A holder from :func:`banded_matrix` keeps the block LU factors of the
    ``(A, B, tail)`` blocks that ``jac`` returns in place of an inverse, and
    reuses them from the first iteration of its one solve; their condition
    estimate is the factors'.

    ``jac`` is only called at, and the iterate returned is always, the point
    of the latest ``F`` call, in both runs of a retried solve; so a caller may
    keep what its ``F`` computed there instead of evaluating it again.

    Every implicit step solve runs through here, so the hot loop reads
    ``||F||_inf`` and finiteness with the ndarray methods (``abs(F).max()``,
    ``np.isfinite(F).all()``), not the module-level ``np.max``/``np.all``
    reductions, whose dispatch costs about twice as much on a short vector;
    the values are the same.
    """
    held = _HeldMatrix() if matrix is None else matrix
    if held.size != np.size(x0):
        held.inverse, held.size = None, np.size(x0)
    formed = held.formed
    carried = held.inverse is not None
    reuse = held.reuses()
    try:
        x, res, iterations = _newton(F, x0, tol, max_iter, jac, held, reuse)
        return NewtonResult(x, res, iterations, held.formed - formed)
    except (NoConvergence, SingularJacobian) as exc:
        if not carried:
            raise
        held.inverse = None
        spent = getattr(exc, "iterations", 0)       # SingularJacobian carries none
    x, res, iterations = _newton(F, x0, tol, max_iter, jac, held, reuse)
    return NewtonResult(x, res, spent + iterations, held.formed - formed)


def _newton(F, x0, tol, max_iter, jac, held, reuse):
    """One run of :func:`newton_solve` from ``x0``: ``(x, residual,
    iterations)``.  The matrix is kept in ``held`` and, when ``reuse``, formed
    again only as the holder's rate asks."""
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    Fx = np.atleast_1d(np.asarray(F(x), dtype=float))
    if not np.isfinite(Fx).all():
        raise EvaluationError("residual non-finite at the initial guess", state=x)
    res = float(abs(Fx).max(initial=0.0))
    best_x, best_res = x.copy(), res
    for it in range(max_iter):
        if res <= tol:
            return x, res, it
        if not reuse or held.inverse is None or held.rate > _THETA:
            held.inverse = held.factor(jac(x) if jac is not None else fd_jacobian(F, x, Fx), x)
            held.formed += 1
        dx = -(held.inverse @ Fx)
        merit = 0.5 * float(Fx @ Fx)
        lam = 1.0
        accepted = False
        while lam >= _MIN_STEP:
            x_try = x + lam * dx
            F_try = np.atleast_1d(np.asarray(F(x_try), dtype=float))
            if np.isfinite(F_try).all():
                m_try = 0.5 * float(F_try @ F_try)
                if m_try <= merit * (1.0 - 2.0 * _ARMIJO * lam):
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            raise NoConvergence("line search stalled", x=best_x,
                                residual=best_res, iterations=it)
        new_res = float(abs(F_try).max(initial=0.0))
        held.rate = new_res / res
        x, Fx, res = x_try, F_try, new_res
        if res < best_res:
            best_x, best_res = x.copy(), res
    if res <= tol:
        return x, res, max_iter
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


def midpoint_step(f, t, x, h, tol=DEFAULT_TOL, matrix=None):
    """Implicit midpoint step solved by damped Newton (Euler predictor).

    The Newton tolerance scales with the state magnitude so long runs whose
    components grow large stay solvable down to rounding.

    The Newton matrix is the forward difference of the residual
    ``x1 - x - h f(t + h/2, (x + x1)/2)``.  ``matrix`` goes to
    :func:`newton_solve` as it is: without one every Newton iteration forms
    its own matrix, and the holder that :func:`stepper_with_tol` binds is
    shared by the steps of a march under :func:`newton_solve`'s one policy.
    """
    t_mid = t + 0.5 * h
    x = np.asarray(x, dtype=float)

    def residual(x1):
        return x1 - x - h * np.asarray(f(t_mid, 0.5 * (x + x1)), dtype=float)

    f0 = np.asarray(f(t, x), dtype=float)
    # the residual's rounding floor tracks both the state and the increment
    scale = 1.0 + max(float(abs(x).max(initial=0.0)),
                      abs(h) * float(abs(f0).max(initial=0.0)))
    guess = x + h * f0
    return newton_solve(residual, guess, tol=tol * scale, matrix=matrix).x


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
    """The stepper one march steps with: the midpoint step with the Newton
    tolerance ``tol`` and a fresh :func:`march_matrix` holder bound in, so
    that :func:`newton_solve` reuses one matrix across the march's steps; its
    first step is the standalone :func:`midpoint_step`, bit for bit.  Other
    steppers, a bound one too, pass through.  Called once per march, by
    :func:`integrate`, :func:`sweep` and :func:`~hamflow.accelopt.minimize`."""
    stepfn = resolve_stepper(stepper)
    if stepfn is midpoint_step:
        return partial(midpoint_step, tol=tol, matrix=march_matrix())
    return stepfn


def stepper_scheme(stepper):
    """The :data:`STEPPERS` name of the scheme that a name, a registry step or
    a :func:`stepper_with_tol` binding runs; None for any other map.  Matched
    by identity with the registry read now, not at import, so a binding that
    replaced a registry step (a tracing wrapper, say) still routes."""
    step = resolve_stepper(stepper)
    step = getattr(step, "func", step)
    return next((name for name, scheme in STEPPERS.items() if step is scheme), None)


def stepper_name(stepper):
    """Metadata label: the :func:`stepper_scheme`, else the callable's name, else ``custom``."""
    return stepper_scheme(stepper) or getattr(stepper, "__name__", "custom")


def _finite(x, k):
    """``x``, or :class:`StepFailure` for step ``k`` if it has a non-finite entry."""
    if not np.isfinite(x).all():
        raise StepFailure(f"non-finite state after step {k}", step=k)
    return x


def check_horizon(T):
    """Raise ``ValueError`` unless the horizon ``T`` is positive and finite."""
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"the horizon T must be positive and finite, not {T}")


def check_start(t0):
    """Raise ``ValueError`` unless the start time ``t0`` is finite."""
    if not np.isfinite(t0):
        raise ValueError(f"the start time t0 must be finite, not {t0}")


def time_grid(T, N):
    """The solver nodes ``h k``, k = 0..N, on [0, T] and their step ``h = T / N``;
    ``N < 1``, then a bad horizon (:func:`check_horizon`), raises ``ValueError``."""
    if N < 1:
        raise ValueError("N must be >= 1")
    check_horizon(T)
    h = T / N
    return h * np.arange(N + 1), h


def integrate(f, x0, t0, T, N, stepper, tol):
    """March ``N`` steps of ``stepper`` over [t0, t0+T]; returns (times, states).

    The stepper is bound once for the march (:func:`stepper_with_tol` at the
    Newton tolerance ``tol``), so the midpoint steps share one Newton matrix.
    The nodes are ``t0`` plus :func:`time_grid`'s, which checks N and T first,
    and a non-finite ``t0`` (:func:`check_start`) raises ``ValueError`` before
    any step; step failures are re-raised as :class:`StepFailure` with the
    step index.
    """
    grid, h = time_grid(T, N)
    check_start(t0)
    step = stepper_with_tol(stepper, tol)
    times = t0 + grid
    out = np.empty((N + 1, np.atleast_1d(x0).size))
    out[0] = np.atleast_1d(np.asarray(x0, dtype=float))
    x = out[0].copy()
    for k in range(N):
        try:
            x = np.asarray(step(f, times[k], x, h), dtype=float)
        except HamflowError as exc:
            raise StepFailure(f"step {k} failed: {exc}", step=k) from exc
        out[k + 1] = _finite(x, k)
    return times, out


# sweep's costate pass takes blocks of at most _COMPOSE_BLOCK steps and composes
# rk4 blocks for a state dimension of at most _COMPOSE_MAX_DIM (measured: see sweep)
_COMPOSE_MAX_DIM = 12
_COMPOSE_BLOCK = 64


def sweep(f, D_qf, D_qg, controls, q0, p_end, T, N, stepper, tol):
    """Forward-backward sweep over [0, T] of the split H = <p, f(t, q, u)> + g(t, q, u).

    Forward: ``dq/dt = f(t, q, u)`` from ``q(0) = q0``, recording the stage
    states.  Backward: the linear costate equation ``dp/dt = -(A^T p + b)``,
    ``A = D_qf(t, q, u)`` and ``b = D_qg(t, q, u)``, from ``p(T) = p_end(q(T))``
    by the adjoint partner of the forward scheme, so ``p(0)`` is the exact
    gradient of the discrete cost (Sanz-Serna, SIAM Review 58, 2016).  Each
    partner reads A and b at its stages, in this order, and steps p by one
    formula (:func:`_partner`):

    - ``euler``: at (t_k, q_k, u_k), ``p_k = p_{k+1} + h (A^T p_{k+1} + b)``;
    - ``midpoint``: at the step midpoint, one linear solve
      ``(I - h/2 A^T) p_k = (I + h/2 A^T) p_{k+1} + h b``;
    - ``rk4``: at the forward stages Q4 (u_{k+1}), Q3 and Q2 (the midpoint
      control) and q_k (u_k), RK4 in reversed time (coefficients b_j a_ji / b_i).

    The one backward pass takes blocks of ``_COMPOSE_BLOCK`` (64) steps, last
    step first, and calls ``D_qf`` then ``D_qg`` at each stage in a
    step-by-step pass's order.  The formula is linear in (p, b), so rk4 at a
    state dimension n <= ``_COMPOSE_MAX_DIM`` (12) calls the whole block first
    (so there the partials must not change an array they returned) and
    composes it into ``p_k = M_k p_{k+1} + c_k``, M_k the formula at
    (p = I, b = 0) and c_k at (p = 0, b), formed by stacked matmuls, then runs
    one matvec a step.  Every other pass steps p one step at a time and calls
    a stage's partials only when the formula reads them, so a closure may
    refill one array and no block of partials is held.  Composing costs
    O(n^3) a step and stepping O(n^2): on a linear sweep of 400 steps
    composing took 0.66-0.71 of the stepped time for n <= 8, 0.84 at n = 12,
    0.92 at 16, 1.12 at 20 and 1.72 at 31.  A non-finite costate fails at the
    step where a step-by-step pass would, once its block is stepped, so a
    closure that raises at a lower step of the block surfaces first.

    The stepper is bound at the Newton tolerance ``tol`` as in :func:`integrate`.
    ``controls`` is the ``(N+1, m)`` table of node controls (``m`` may be 0),
    or None for closures of ``(t, q)`` alone; a stage at fraction c of a step
    reads ``(1 - c) u_k + c u_{k+1}``.  Any other scheme
    (:func:`stepper_scheme`) raises ``ValueError``, as it has no known
    partner.  A non-finite state, a failed forward step or a singular
    costate solve raises :class:`StepFailure` with the step index.  Returns
    ``(times, qs, ps)`` with ``qs`` and ``ps`` row-stacked on ``times``, the
    nodes of :func:`time_grid`, which checks N and T before any field call.
    """
    times, h = time_grid(T, N)
    step = stepper_with_tol(stepper, tol)
    scheme = stepper_scheme(step)
    if scheme not in ("euler", "rk4", "midpoint"):
        raise ValueError("sweep needs the euler, rk4 or midpoint stepper; "
                         "another one-step map has no known adjoint partner")
    if controls is None:
        at = mid = [()] * (N + 1)
    else:
        u = np.asarray(controls, dtype=float)
        if u.ndim != 2 or u.shape[0] != N + 1:
            raise ValueError("controls must be an (N+1, m) table")
        # the trailing closure arguments at the nodes and at the step midpoints
        at = [(row,) for row in u]
        mid = [(row,) for row in 0.5 * (u[:-1] + u[1:])]
    qs = np.empty((N + 1, np.size(q0)))
    qs[0] = q0
    stages = np.empty((N, 3, qs.shape[1]))    # rk4's Q2, Q3, Q4; Q1 is q_k
    for k in range(N):
        t, q = times[k], qs[k]
        try:
            if scheme == "rk4":
                k1 = np.asarray(f(t, q, *at[k]), dtype=float)
                Q2 = q + 0.5 * h * k1
                k2 = np.asarray(f(t + 0.5 * h, Q2, *mid[k]), dtype=float)
                Q3 = q + 0.5 * h * k2
                k3 = np.asarray(f(t + 0.5 * h, Q3, *mid[k]), dtype=float)
                Q4 = q + h * k3
                k4 = np.asarray(f(t + h, Q4, *at[k + 1]), dtype=float)
                stages[k] = Q2, Q3, Q4
                q1 = q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            else:
                # the one stage sits at c = 0 (euler) or c = 1/2 (midpoint)
                uc = at[k] if scheme == "euler" else mid[k]
                q1 = step(lambda s, x: f(s, x, *uc), t, q, h)
        except HamflowError as exc:
            raise StepFailure(f"step {k} failed: {exc}", step=k) from exc
        qs[k + 1] = _finite(q1, k)

    n = qs.shape[1]
    ps = np.empty_like(qs)
    ps[N] = p_end(qs[N])
    composed = scheme == "rk4" and n <= _COMPOSE_MAX_DIM
    eye, zero = np.eye(n), np.zeros((n, 1))
    for hi in range(N, 0, -_COMPOSE_BLOCK):
        lo = max(hi - _COMPOSE_BLOCK, 0)
        ks = range(hi - 1, lo - 1, -1)
        points = []
        for k in ks:
            t = times[k]
            if scheme == "rk4":
                Q2, Q3, Q4 = stages[k]
                points += ((t + h, Q4, at[k + 1]), (t + 0.5 * h, Q3, mid[k]),
                           (t + 0.5 * h, Q2, mid[k]), (t, qs[k], at[k]))
            elif scheme == "midpoint":
                points.append((t + 0.5 * h, 0.5 * (qs[k] + qs[k + 1]), mid[k]))
            else:
                points.append((t, qs[k], at[k]))
        # each stage's partials, called when a pass reads them
        partials = ((D_qf(s, q, *uc), D_qg(s, q, *uc)) for s, q, uc in points)
        if composed:
            A, b = zip(*partials)
            # stage-major, contiguous: stacked matmul on transposed views leaves BLAS
            At = np.ascontiguousarray(
                np.reshape(np.array(A, dtype=float), (len(ks), 4, n, n)).transpose(1, 0, 3, 2))
            # a D_qg of one entry broadcasts over q, as it does a step at a time
            b = np.reshape(np.array(b, dtype=float), (len(ks), 4, -1, 1)).swapaxes(0, 1)
            M = _partner(scheme, zip(At, (0.0,) * 4), h, eye, eye)
            c = _partner(scheme, zip(At, b), h, zero, eye)[..., 0]
            p = ps[hi]
            for k, M_k, c_k in zip(ks, M, c):
                p = ps[k] = M_k @ p + c_k
        else:
            stepped = ((np.asarray(a, dtype=float).T, np.asarray(x, dtype=float))
                       for a, x in partials)
            for k in ks:
                try:
                    ps[k] = _partner(scheme, stepped, h, ps[k + 1], eye)
                except np.linalg.LinAlgError as exc:
                    _first_non_finite(ps, k + 1, hi)     # a non-finite step fails first
                    raise StepFailure(f"costate step {k} failed: {exc}", step=k) from exc
        _first_non_finite(ps, lo, hi)
    return times, qs, ps


def _first_non_finite(ps, lo, hi):
    """:func:`_finite`'s failure for the first non-finite row of ps[hi-1], ..., ps[lo]."""
    if not np.isfinite(ps[lo:hi]).all():
        k = lo + int(np.flatnonzero(~np.isfinite(ps[lo:hi]).all(axis=1))[-1])
        _finite(ps[k], k)


def _partner(scheme, stages, h, p, eye):
    """One step of :func:`sweep`'s costate partner: p_k from ``p = p_{k+1}``
    and ``stages``, an iterator of each stage's ``(A^T, b)`` in the order
    :func:`sweep` reads the stages, drawn one stage at a time as the formula
    needs it; ``eye`` is the n x n identity.  It is linear in (p, b), so ``p``
    may be a matrix, with stacked ``A^T`` and ``b``, to compose steps."""
    At, b = next(stages)
    if scheme == "euler":
        return p + h * (At @ p + b)
    if scheme == "midpoint":
        rhs = p + (0.5 * h) * (At @ p) + h * b
        return np.linalg.solve(eye - (0.5 * h) * At, rhs)
    l1 = At @ p + b
    At, b = next(stages)
    l2 = At @ (p + 0.5 * h * l1) + b
    At, b = next(stages)
    l3 = At @ (p + 0.5 * h * l2) + b
    At, b = next(stages)
    l4 = At @ (p + h * l3) + b
    return p + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
