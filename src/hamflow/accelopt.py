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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    BlowUp,
    DEFAULT_TOL,
    EvaluationError,
    HamflowError,
    HamiltonianProblem,
    PhasePoint,
    fd_gradient,
    fd_scalar_derivative,
    phase_field,
    stepper_name,
    stepper_with_tol,
)


@dataclass(frozen=True)
class BregmanConfig:
    """Rate exponent p, rescaling target pring, scaling C, and the objective."""

    objective: Callable                 # x -> scalar
    x0: np.ndarray
    v0: np.ndarray | None = None
    p: float = 2.0
    p_ring: float = 2.0
    C: float = 1.0
    t0: float = 1.0
    gradient: Callable | None = None    # x -> n-vector
    f_star: float = 0.0
    check: bool = False

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if self.v0 is None:
            object.__setattr__(self, "v0", np.zeros(self.x0.size))
        else:
            object.__setattr__(self, "v0", np.atleast_1d(np.asarray(self.v0, dtype=float)))
        if min(self.p, self.p_ring, self.C) <= 0 or self.t0 <= 0:
            raise ValueError("p, p_ring, C and t0 must be positive")
        if self.check and self.gradient is not None:
            rng = np.random.default_rng(20240817)
            for _ in range(5):
                x = self.x0 + rng.uniform(-0.5, 0.5, self.dim)
                ref = fd_gradient(self.objective, x)
                got = np.asarray(self.gradient(x), dtype=float)
                if np.max(np.abs(got - ref)) > 1e-6 * (1.0 + np.max(np.abs(ref))):
                    raise ValueError("gradient disagrees with central differences")

    @property
    def dim(self):
        return self.x0.size

    def grad(self, x):
        if self.gradient is not None:
            return np.asarray(self.gradient(x), dtype=float)
        return fd_gradient(self.objective, x)

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


@dataclass(frozen=True)
class ExtendedState:
    """Point on extended phase space: physical time is the extra coordinate."""

    q: np.ndarray
    q_t: float
    r: np.ndarray
    r_t: float

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, dtype=float)))
        object.__setattr__(self, "r", np.atleast_1d(np.asarray(self.r, dtype=float)))
        vals = np.concatenate([self.q, [self.q_t], self.r, [self.r_t]])
        if not np.all(np.isfinite(vals)):
            raise ValueError("extended state must be finite")

    def as_phase_point(self):
        return PhasePoint(np.concatenate([self.q, [self.q_t]]),
                          np.concatenate([self.r, [self.r_t]]))

    @staticmethod
    def from_array(z):
        n = z.size // 2 - 1
        return ExtendedState(q=z[:n], q_t=z[n], r=z[n + 1:2 * n + 1], r_t=z[-1])


def poincare_transform(prob: HamiltonianProblem, monitor, z0: PhasePoint, t0):
    """Autonomize on extended phase space with time reparameterized by ``monitor``.

    ``monitor(t, q, p)`` must be positive near the start; the returned initial
    state carries ``q_t = t0`` and ``r_t = -H(t0, q0, p0)`` so the transformed
    Hamiltonian ``g . (H + r_t)`` vanishes along the trajectory.
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
        dqt = gv * prob.d_t(qt, q, r) + core * fd_scalar_derivative(
            lambda tt: g(tt, q, r), qt)
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
    state0 = ExtendedState(q=z0.q, q_t=t0, r=z0.p,
                           r_t=-prob.value(t0, z0.q, z0.p))
    return extended, state0


def rescaling_monitor(cfg: BregmanConfig):
    """dt/dtau = (p/pring) t^(1 - pring/p), the dilation matching the rate family."""
    p, pring = cfg.p, cfg.p_ring

    def monitor(t, q, r):
        return (p / pring) * float(t) ** (1.0 - pring / p)

    return monitor


def adaptive_bregman_problem(cfg: BregmanConfig) -> HamiltonianProblem:
    """Autonomous extended Hamiltonian of the rescaled rate-p flow (closed form)."""
    n = cfg.dim
    p, pring, C = cfg.p, cfg.p_ring, cfg.C
    a = p + pring / p          # |r|^2 exponent
    b = 2.0 * p - pring / p    # objective exponent
    c = 1.0 - pring / p        # r_t exponent

    def guard(qt):
        if qt <= 0.0:
            raise EvaluationError("extended time coordinate left (0, inf)", t=qt)
        return qt

    def H(tau, Q, P):
        qt = guard(float(Q[n]))
        return (0.5 * p**2 * qt ** (-a) * float(np.dot(P[:n], P[:n]))
                + C * p**2 * qt**b * float(cfg.objective(Q[:n]))
                + p * float(P[n]) * qt**c) / pring

    def d_Q(tau, Q, P):
        qt = guard(float(Q[n]))
        dq = C * p**2 * qt**b * cfg.grad(Q[:n]) / pring
        dqt = (-0.5 * a * p**2 * qt ** (-a - 1.0) * float(np.dot(P[:n], P[:n]))
               + b * C * p**2 * qt ** (b - 1.0) * float(cfg.objective(Q[:n]))
               + c * p * float(P[n]) * qt ** (c - 1.0)) / pring
        return np.concatenate([dq, [dqt]])

    def d_P(tau, Q, P):
        qt = guard(float(Q[n]))
        dr = p**2 * qt ** (-a) * P[:n] / pring
        drt = p * qt**c / pring
        return np.concatenate([dr, [drt]])

    return HamiltonianProblem(dim=n + 1, H=H, D_qH=d_Q, D_pH=d_P,
                              derivative_mode="analytic",
                              name=f"adaptive-bregman(p={p}, pring={pring})")


def initial_extended_state(cfg: BregmanConfig) -> ExtendedState:
    base = bregman_hamiltonian(cfg)
    r0 = cfg.r0
    return ExtendedState(q=cfg.x0, q_t=cfg.t0, r=r0,
                         r_t=-base.value(cfg.t0, cfg.x0, r0))


@dataclass(frozen=True)
class RateReport:
    """Physical times, objective gaps, and the fitted tail-decay exponent."""

    times: np.ndarray
    gaps: np.ndarray
    slope: float
    hbar_abs_max: float
    metadata: dict = field(default_factory=dict)


def fit_decay_slope(times, gaps, decades=1.0):
    """Log-log slope of the tail-supremum envelope over the final decade(s).

    The raw gap oscillates through near-zeros; the running max from the right
    is the monotone envelope whose slope measures the guaranteed decay.
    """
    times = np.asarray(times, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    env = np.maximum.accumulate(gaps[::-1])[::-1]
    t_end = times[-1]
    mask = (times >= t_end / 10.0**decades) & (env > 1e-300) & (times > 0)
    if mask.sum() < 3:
        raise ValueError("not enough samples in the final decade")
    return float(np.polyfit(np.log10(times[mask]), np.log10(env[mask]), 1)[0])


_BLOWUP_LIMIT = 1e12


def minimize(cfg: BregmanConfig, stepper="midpoint", fictive_steps=10000,
             h_tau=0.05, tol=DEFAULT_TOL, slope_decades=1.0):
    """Integrate the autonomous extended flow; returns (iterates, RateReport).

    Objective or state magnitudes beyond 1e12 raise :class:`BlowUp` carrying
    the partial history.
    """
    if fictive_steps < 1 or h_tau <= 0:
        raise ValueError("need positive step count and fictive step size")
    prob = adaptive_bregman_problem(cfg)
    state0 = initial_extended_state(cfg)
    fld = phase_field(prob)
    stepfn = stepper_with_tol(stepper, tol)

    n = cfg.dim
    z = state0.as_phase_point().as_array()
    iterates = [z[:n].copy()]
    times = [state0.q_t]
    gaps = [float(cfg.objective(z[:n])) - cfg.f_star]
    hbar = [abs(prob.value(0.0, z[:len(z) // 2], z[len(z) // 2:]))]
    for k in range(fictive_steps):
        try:
            z = np.asarray(stepfn(fld, k * h_tau, z, h_tau), dtype=float)
        except HamflowError as exc:
            # a step solver dying on an already-runaway state is divergence
            if np.max(np.abs(z)) > 1e6 or abs(gaps[-1]) > 1e6:
                raise BlowUp(f"run diverged at fictive step {k}: {exc}",
                             history=(np.array(times), np.array(gaps))) from exc
            raise
        x = z[:n]
        f_val = float(cfg.objective(x))
        if not np.isfinite(f_val) or abs(f_val) > _BLOWUP_LIMIT \
                or np.max(np.abs(z)) > _BLOWUP_LIMIT:
            raise BlowUp(f"run diverged at fictive step {k}",
                         history=(np.array(times), np.array(gaps)))
        iterates.append(x.copy())
        times.append(float(z[n]))
        gaps.append(f_val - cfg.f_star)
        half = z.size // 2
        hbar.append(abs(prob.value(0.0, z[:half], z[half:])))
    times = np.array(times)
    gaps = np.array(gaps)
    if np.max(gaps) <= 1e-300:
        slope = 0.0  # stationary start: nothing to fit
    else:
        slope = fit_decay_slope(times, gaps, decades=slope_decades)
    report = RateReport(times=times, gaps=gaps, slope=slope,
                        hbar_abs_max=float(np.max(hbar)),
                        metadata={"stepper": stepper_name(stepper), "h_tau": h_tau,
                                  "fictive_steps": fictive_steps,
                                  "p": cfg.p, "p_ring": cfg.p_ring})
    return np.array(iterates), report
