"""Symplectic accelerated optimization through time-dependent Hamiltonian flow.

The rate-p family (Euclidean distance-generating function fixed to
``0.5 |x|^2``) is

    H(t, x, r) = (p / 2) t^{-p-1} |r|^2  +  C p t^{2p-1} f(x),

whose flow drives ``f(x(t))`` to the minimum at rate O(1/t^p).  Because H is
time dependent, fixed-step symplectic integration happens on extended phase
space: the time-rescaling dt/dtau = (p/pring) t^{1 - pring/p} has the
autonomous transformed Hamiltonian

    Hbar = (1/pring) [ p^2 / (2 qt^{p + pring/p}) |r|^2
                       + C p^2 qt^{2p - pring/p} f(q)
                       + p rt qt^{1 - pring/p} ],

which vanishes identically along trajectories started with
``rt = -H(t0, x0, r0)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    BlowUp,
    DEFAULT_TOL,
    EvaluationError,
    HamflowError,
    HamiltonianProblem,
    PhasePoint,
    check_closure,
    fd_gradient,
    partial_of,
    seeded_points,
    stepper_name,
    stepper_with_tol,
)


@dataclass(frozen=True)
class BregmanConfig:
    """Rate exponent p, rescaling target pring, scaling C, and the objective,
    whose minimum is taken to be 0: for a minimum f_min pass ``lambda x: f(x)
    - f_min``, which leaves the flow of x unchanged (it reads only the gradient)."""

    objective: Callable                 # x -> scalar
    x0: np.ndarray
    v0: np.ndarray | None = None
    p: float = 2.0
    p_ring: float = 2.0
    C: float = 1.0
    t0: float = 1.0
    gradient: Callable | None = None    # x -> n-vector
    check: bool = False

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if self.v0 is None:
            object.__setattr__(self, "v0", np.zeros(self.x0.size))
        else:
            object.__setattr__(self, "v0", np.atleast_1d(np.asarray(self.v0, dtype=float)))
        if self.v0.size != self.x0.size:
            raise ValueError(f"v0 has {self.v0.size} entries, x0 has {self.x0.size}")
        for name in ("p", "p_ring", "C", "t0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.check:
            check_closure("gradient", self.gradient,
                          lambda x: partial_of(None, self.objective, (x,), 0, "fd"),
                          [(x,) for x in seeded_points(self.x0)], 1e-6)

    @property
    def dim(self):
        return self.x0.size

    def grad(self, x):
        return partial_of(self.gradient, self.objective, (x,), 0, "fd")

    @property
    def r0(self):
        # chosen so dx/dt at t0 equals v0 under the Hamiltonian flow
        return self.t0 ** (self.p + 1.0) * self.v0 / self.p


def bregman_hamiltonian(cfg: BregmanConfig) -> HamiltonianProblem:
    """The time-dependent rate-p Hamiltonian; evaluation requires t > 0."""
    p, C = cfg.p, cfg.C

    def guard(t):
        tv = float(t)
        if tv <= 0.0:
            raise EvaluationError("rate-p Hamiltonian is singular at t <= 0", t=tv)
        return tv

    def H(t, x, r):
        t = guard(t)
        return (0.5 * p * t ** (-p - 1.0) * float(np.dot(r, r))
                + C * p * t ** (2.0 * p - 1.0) * float(cfg.objective(x)))

    def D_x(t, x, r):
        t = guard(t)
        return C * p * t ** (2.0 * p - 1.0) * cfg.grad(x)

    def D_r(t, x, r):
        t = guard(t)
        return p * t ** (-p - 1.0) * np.asarray(r, dtype=float)

    def D_rr(t, x, r):
        t = guard(t)
        return p * t ** (-p - 1.0) * np.eye(cfg.dim)

    def D_t(t, x, r):
        t = guard(t)
        return (-0.5 * p * (p + 1.0) * t ** (-p - 2.0) * float(np.dot(r, r))
                + C * p * (2.0 * p - 1.0) * t ** (2.0 * p - 2.0) * float(cfg.objective(x)))

    return HamiltonianProblem(dim=cfg.dim, H=H, D_qH=D_x, D_pH=D_r, D_ppH=D_rr,
                              D_tH=D_t, derivative_mode="analytic",
                              name=f"bregman(p={cfg.p})")


def _extended(q, q_t, r, r_t):
    """Extended state Q = (q, q_t), P = (r, r_t): physical time is ``Q[-1]``."""
    return PhasePoint(np.append(q, q_t), np.append(r, r_t))


def poincare_transform(prob: HamiltonianProblem, monitor, z0: PhasePoint, t0):
    """Autonomize on extended phase space with time reparameterized by ``monitor``.

    ``monitor(t, q, p)`` must be positive near the start.  Returns the extended
    problem and its initial :class:`~hamflow.core.PhasePoint` with
    ``q = (q0, t0)`` and ``p = (p0, r_t)``: physical time is ``q[-1]`` and
    ``r_t = p[-1] = -H(t0, q0, p0)``, so the transformed Hamiltonian
    ``g . (H + r_t)`` vanishes along the trajectory.
    """
    n = prob.dim
    g0 = float(monitor(t0, z0.q, z0.p))
    if g0 <= 0.0:
        raise ValueError("monitor must be positive at the initial state")

    def split(Q, P):
        return Q[:n], float(Q[n]), P[:n], float(P[n])

    def g(t, q, p):
        return float(monitor(t, q, p))

    def H(tau, Q, P):
        q, qt, r, rt = split(Q, P)
        return g(qt, q, r) * (prob.value(qt, q, r) + rt)

    def d_Q(tau, Q, P):
        q, qt, r, rt = split(Q, P)
        core = prob.value(qt, q, r) + rt
        gv = g(qt, q, r)
        dq = gv * prob.d_q(qt, q, r) + core * fd_gradient(lambda qq: g(qt, qq, r), q)
        dqt = gv * prob.d_t(qt, q, r) + core * fd_gradient(
            lambda tt: g(tt[0], q, r), [qt])[0]
        return np.concatenate([dq, [dqt]])

    def d_P(tau, Q, P):
        q, qt, r, rt = split(Q, P)
        core = prob.value(qt, q, r) + rt
        gv = g(qt, q, r)
        dr = gv * prob.d_p(qt, q, r) + core * fd_gradient(lambda rr: g(qt, q, rr), r)
        return np.concatenate([dr, [gv]])

    extended = HamiltonianProblem(dim=n + 1, H=H, D_qH=d_Q, D_pH=d_P,
                                  derivative_mode="analytic",
                                  name=f"poincare({prob.name})")
    return extended, _extended(z0.q, t0, z0.p, -prob.value(t0, z0.q, z0.p))


def rescaling_monitor(cfg: BregmanConfig):
    """dt/dtau = (p/pring) t^(1 - pring/p), the dilation matching the rate family."""
    p, pring = cfg.p, cfg.p_ring

    def monitor(t, q, r):
        return (p / pring) * float(t) ** (1.0 - pring / p)

    return monitor


def _rescaled_flow(cfg: BregmanConfig):
    """Hbar's closed form, written once, and the three things that read it:
    the extended problem, the march field z -> (D_P Hbar, -D_Q Hbar), and
    Hbar at a flat state z = (Q, P) from an objective value already taken.

    The field equals ``phase_field`` of the problem bit for bit, with one
    time check, one gradient call (``cfg.grad``'s differences when none is
    supplied) and one objective call; D_P Hbar makes no user call.
    """
    n = cfg.dim
    p, pring, C = cfg.p, cfg.p_ring, cfg.C
    a = p + pring / p          # |r|^2 exponent
    b = 2.0 * p - pring / p    # objective exponent
    c = 1.0 - pring / p        # r_t exponent

    def time(Q):
        qt = float(Q[n])
        if qt <= 0.0:
            raise EvaluationError("extended time coordinate left (0, inf)", t=qt)
        return qt

    # the closed form, from qt, rr = |r|^2, r_t, f = f(x) and g = grad f(x)
    def value(qt, rr, r_t, f):
        return (0.5 * p**2 * qt ** (-a) * rr
                + C * p**2 * qt**b * f
                + p * r_t * qt**c) / pring

    def d_x(qt, g):
        return C * p**2 * qt**b * g / pring

    def d_qt(qt, rr, r_t, f):
        return (-0.5 * a * p**2 * qt ** (-a - 1.0) * rr
                + b * C * p**2 * qt ** (b - 1.0) * f
                + c * p * r_t * qt ** (c - 1.0)) / pring

    def d_r(qt, r):
        return p**2 * qt ** (-a) * r / pring

    def d_rt(qt):
        return p * qt**c / pring

    def H(tau, Q, P):
        qt = time(Q)
        return value(qt, float(np.dot(P[:n], P[:n])), float(P[n]), float(cfg.objective(Q[:n])))

    def d_Q(tau, Q, P):
        qt = time(Q)
        dq = d_x(qt, cfg.grad(Q[:n]))
        dqt = d_qt(qt, float(np.dot(P[:n], P[:n])), float(P[n]), float(cfg.objective(Q[:n])))
        return np.concatenate([dq, [dqt]])

    def d_P(tau, Q, P):
        qt = time(Q)
        return np.concatenate([d_r(qt, P[:n]), [d_rt(qt)]])

    problem = HamiltonianProblem(dim=n + 1, H=H, D_qH=d_Q, D_pH=d_P,
                                 derivative_mode="analytic",
                                 name=f"adaptive-bregman(p={p}, pring={pring})")
    objective = cfg.objective
    gradient = cfg.gradient if cfg.gradient is not None else cfg.grad

    def field(tau, z):
        qt = time(z)
        x, r = z[:n], z[n + 1:-1]
        out = np.empty(2 * n + 2)
        out[:n] = d_r(qt, r)
        out[n] = d_rt(qt)
        out[n + 1:-1] = -d_x(qt, np.asarray(gradient(x), dtype=float))
        out[-1] = -d_qt(qt, float(np.dot(r, r)), float(z[-1]), float(objective(x)))
        return out

    def hbar_at(z, f):
        r = z[n + 1:-1]
        return value(time(z), float(np.dot(r, r)), float(z[-1]), f)

    return problem, field, hbar_at


def adaptive_bregman_problem(cfg: BregmanConfig) -> HamiltonianProblem:
    """Autonomous extended Hamiltonian of the rescaled rate-p flow (closed form).

    H, D_qH and D_pH read the same formulas as :func:`minimize`'s march
    field; D_pH makes no objective or gradient call.
    """
    return _rescaled_flow(cfg)[0]


def initial_extended_state(cfg: BregmanConfig) -> PhasePoint:
    """Start of the rescaled flow: ``q = (x0, t0)`` and ``p = (r0, r_t)``.

    Physical time is ``q[-1]``, and ``r_t = p[-1] = -H(t0, x0, r0)`` zeroes
    the transformed Hamiltonian.
    """
    r0 = cfg.r0
    return _extended(cfg.x0, cfg.t0, r0, -bregman_hamiltonian(cfg).value(cfg.t0, cfg.x0, r0))


@dataclass(frozen=True)
class RateReport:
    """Physical times, objective values (read as gaps to a minimum of 0), and
    the fitted tail-decay exponent."""

    times: np.ndarray
    gaps: np.ndarray
    slope: float
    hbar_abs_max: float
    metadata: dict


def fit_decay_slope(times, gaps):
    """Log-log slope of the tail-supremum envelope over the final decade.

    The raw gap oscillates through near-zeros; the running max from the right
    is the monotone envelope whose slope measures the guaranteed decay.  Fewer
    than 3 distinct times in the final decade raise ``ValueError``.
    """
    times = np.asarray(times, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    env = np.maximum.accumulate(gaps[::-1])[::-1]
    t_end = times[-1]
    mask = (times >= t_end / 10.0) & (env > 1e-300) & (times > 0)
    if len(set(times[mask].tolist())) < 3:
        raise ValueError("not enough distinct times in the final decade")
    return float(np.polyfit(np.log10(times[mask]), np.log10(env[mask]), 1)[0])


_BLOWUP_LIMIT = 1e12
# a gap below 0 by more than this times the largest |gap| is not rounding
_NEGATIVE_GAP = math.sqrt(np.finfo(float).eps)


def minimize(cfg: BregmanConfig, stepper="midpoint", fictive_steps=10000,
             h_tau=0.05, tol=DEFAULT_TOL):
    """Integrate the autonomous extended flow; returns (iterates, RateReport).

    The march field is the closed form of :func:`adaptive_bregman_problem`'s
    ``phase_field`` fused into one function, bit for bit: a field call makes
    one gradient call (``cfg.grad``'s differences when none is supplied) and
    one objective call.  The objective is called once more per step, for the
    gap and the blow-up check, and |Hbar| at each node reuses that value, so
    a run of S steps makes S + 2 objective calls beyond its field's.

    The report's gaps are the objective values, and its slope is fitted over
    the final decade of physical time (0.0 when every gap is 0).  A
    ``fictive_steps`` that is not a positive integer, an ``h_tau`` that is not
    positive and finite, and a gap below 0 by more than sqrt(eps) times the
    largest |gap| (an objective whose minimum is below 0) raise ``ValueError``.

    Objective or state magnitudes beyond 1e12 raise :class:`BlowUp` carrying
    the partial history.
    """
    if not isinstance(fictive_steps, numbers.Integral) or fictive_steps < 1 \
            or not (np.isfinite(h_tau) and h_tau > 0):
        raise ValueError("need a positive integer step count and a positive, finite "
                         "fictive step size")
    _, fld, hbar_at = _rescaled_flow(cfg)
    stepfn = stepper_with_tol(stepper, tol)

    n = cfg.dim
    z = initial_extended_state(cfg).as_array()
    f_val = float(cfg.objective(z[:n]))
    iterates = [z[:n].copy()]
    times = [cfg.t0]
    gaps = [f_val]
    hbar = [abs(hbar_at(z, f_val))]
    for k in range(fictive_steps):
        try:
            z = np.asarray(stepfn(fld, k * h_tau, z, h_tau), dtype=float)
        except HamflowError as exc:
            # a step solver dying on an already-runaway state is divergence
            if abs(z).max() > 1e6 or abs(gaps[-1]) > 1e6:
                raise BlowUp(f"run diverged at fictive step {k}: {exc}",
                             history=(np.array(times), np.array(gaps))) from exc
            raise
        x = z[:n]
        f_val = float(cfg.objective(x))
        if not np.isfinite(f_val) or abs(f_val) > _BLOWUP_LIMIT \
                or abs(z).max() > _BLOWUP_LIMIT:
            raise BlowUp(f"run diverged at fictive step {k}",
                         history=(np.array(times), np.array(gaps)))
        iterates.append(x.copy())
        times.append(float(z[n]))
        gaps.append(f_val)
        hbar.append(abs(hbar_at(z, f_val)))
    times = np.array(times)
    gaps = np.array(gaps)
    if np.min(gaps) < -_NEGATIVE_GAP * np.max(np.abs(gaps)):
        raise ValueError(f"objective values reach {float(np.min(gaps))!r} but are read as gaps "
                         "to a minimum of 0: shift the objective, as f(x) - f_min")
    # a stationary start leaves nothing to fit
    slope = 0.0 if np.max(gaps) <= 1e-300 else fit_decay_slope(times, gaps)
    report = RateReport(times=times, gaps=gaps, slope=slope,
                        hbar_abs_max=float(np.max(hbar)),
                        metadata={"stepper": stepper_name(stepper), "h_tau": h_tau,
                                  "fictive_steps": fictive_steps,
                                  "p": cfg.p, "p_ring": cfg.p_ring})
    return np.array(iterates), report
