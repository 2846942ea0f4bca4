"""Built-in Hamiltonian problems used by tests, diagnostics, and experiments."""

from __future__ import annotations

import numpy as np

from .core import HamiltonianProblem, MaximallyDegenerateProblem


def harmonic_oscillator(n=1, omega=1.0):
    """H = (|p|^2 + omega^2 |q|^2) / 2."""
    w2 = omega**2
    return HamiltonianProblem(
        dim=n,
        H=lambda t, q, p: 0.5 * (np.dot(p, p) + w2 * np.dot(q, q)),
        D_qH=lambda t, q, p: w2 * np.asarray(q, dtype=float),
        D_pH=lambda t, q, p: np.asarray(p, dtype=float),
        D_ppH=lambda t, q, p: np.eye(n),
        D_tH=lambda t, q, p: 0.0,
        derivative_mode="analytic",
        name=f"oscillator(n={n}, omega={omega})",
    )


def free_particle():
    """H = p^2 / 2 (one degree of freedom)."""
    return HamiltonianProblem(
        dim=1,
        H=lambda t, q, p: 0.5 * np.dot(p, p),
        D_qH=lambda t, q, p: np.zeros(1),
        D_pH=lambda t, q, p: np.asarray(p, dtype=float),
        D_ppH=lambda t, q, p: np.eye(1),
        D_tH=lambda t, q, p: 0.0,
        derivative_mode="analytic",
        name="free-particle",
    )


def pendulum():
    """H = p^2/2 + cos q (one degree of freedom)."""
    return HamiltonianProblem(
        dim=1,
        H=lambda t, q, p: 0.5 * p[0] * p[0] + np.cos(q[0]),
        derivative_mode="dual",
        name="pendulum",
    )


def pure_force():
    """H = q: constant force, no kinetic term."""
    return HamiltonianProblem(
        dim=1,
        H=lambda t, q, p: q[0],
        derivative_mode="dual",
        name="pure-force",
    )


def zero_hamiltonian():
    return HamiltonianProblem(
        dim=1,
        H=lambda t, q, p: 0.0,
        D_qH=lambda t, q, p: np.zeros(1),
        D_pH=lambda t, q, p: np.zeros(1),
        D_ppH=lambda t, q, p: np.zeros((1, 1)),
        derivative_mode="analytic",
        name="zero",
    )


def linear_drift(n=1):
    """H = <p, q>: maximally degenerate, flows q and p on decoupled exponentials."""
    return MaximallyDegenerateProblem(
        f=lambda t, q: np.asarray(q, dtype=float),
        g=None,
        dim=n,
        D_qf=lambda t, q: np.eye(n),
        D_qg=lambda t, q: np.zeros(n),
        name="linear-drift",
    )


def degenerate_with_potential():
    """H = p q + q^2/2: maximally degenerate with a force term."""
    return MaximallyDegenerateProblem(
        f=lambda t, q: np.asarray(q, dtype=float),
        g=lambda t, q: 0.5 * q[0] * q[0],
        dim=1,
        D_qf=lambda t, q: np.eye(1),
        D_qg=lambda t, q: np.asarray(q, dtype=float),
        name="degenerate-with-potential",
    )


def model_degenerate(g=None, gp=None):
    """Regular oscillator block plus a maximally degenerate block on q = (q_r, q_d).

    H = (p_r^2 + q_r^2)/2 + p_d q_d + g(q_d) with scalar blocks.
    ``gp`` is the scalar derivative of g; the default is g = 0.
    """
    if (g is None) != (gp is None):
        raise ValueError("supply g and gp together")
    if g is None:
        g = gp = lambda x: 0.0

    def H(t, q, p):
        return 0.5 * (p[0] * p[0] + q[0] * q[0]) + p[1] * q[1] + g(q[1])

    def D_qH(t, q, p):
        return np.array([q[0], p[1] + gp(q[1])])

    def D_pH(t, q, p):
        return np.array([p[0], q[1]])

    def D_ppH(t, q, p):
        return np.array([[1.0, 0.0], [0.0, 0.0]])

    return HamiltonianProblem(
        dim=2,
        H=H,
        D_qH=D_qH,
        D_pH=D_pH,
        D_ppH=D_ppH,
        D_tH=lambda t, q, p: 0.0,
        derivative_mode="analytic",
        name="model-degenerate",
    )


def central_force_2d():
    """Planar H = |p|^2/2 + V(|q|^2) with V(s) = s/2 + s^2/8 (rotation invariant)."""

    def H(t, q, p):
        s = np.dot(q, q)
        return 0.5 * np.dot(p, p) + 0.5 * s + 0.125 * s * s

    def D_qH(t, q, p):
        s = np.dot(q, q)
        return (1.0 + 0.5 * s) * np.asarray(q, dtype=float)

    return HamiltonianProblem(
        dim=2,
        H=H,
        D_qH=D_qH,
        D_pH=lambda t, q, p: np.asarray(p, dtype=float),
        D_ppH=lambda t, q, p: np.eye(2),
        D_tH=lambda t, q, p: 0.0,
        derivative_mode="analytic",
        name="central-force-2d",
    )


def angular_momentum_2d(q, p):
    """J = q1 p2 - q2 p1 for a planar phase point (q, p)."""
    return q[0] * p[1] - q[1] * p[0]


BUILTIN_PROBLEMS = {
    "oscillator": harmonic_oscillator,
    "free_particle": free_particle,
    "pendulum": pendulum,
    "pure_force": pure_force,
    "zero": zero_hamiltonian,
    "linear_drift": linear_drift,
    "degenerate_with_potential": degenerate_with_potential,
    "model_degenerate": model_degenerate,
    "central_force_2d": central_force_2d,
}
