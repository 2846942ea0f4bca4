"""Seeded workloads: fixed rounds of public solver calls on random instances.

A workload is a list of op *kinds* (a round).  Round ``r`` of seed ``s`` draws
all of its instance data from ``numpy.random.default_rng([s, r + 1])``, so a
run is reproducible whatever the timing, and every run of a workload has the
same mix of kinds.  The warm-up op uses round ``-1``.

Each :class:`Op` carries

- ``call``: makes exactly one public solver call and returns its result;
- ``view``: turns that result into the small summary the oracle checks plus
  the full numeric outputs that are hashed for the traced/untraced identity
  check;
- ``params``: the instance data the oracle needs (plain numbers and arrays).

The problem closures handed to hamflow are built here and passed through
``wrap`` so that a traced run can time them as the L0 field layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from hamflow import accelopt, adjoint, bvp, hamel, integrators, optcontrol
from hamflow.core import HamiltonianProblem, PhasePoint


def _identity(fn):
    return fn


@dataclass
class Op:
    kind: str
    params: dict
    call: Callable
    view: Callable


# ---------------------------------------------------------------------------
# shoot: outer shooting Newton over small step systems

SHOOT_N = 100
SHOOT_TOL = 1e-12
HAMEL_BVP_N = 25
_TYPES = ("type_i", "type_ii", "type_iii", "type_iv")


def _oscillator(n, omega, wrap):
    w2 = omega * omega
    return HamiltonianProblem(
        dim=n,
        H=wrap(lambda t, q, p: 0.5 * (np.dot(p, p) + w2 * np.dot(q, q))),
        D_qH=wrap(lambda t, q, p: w2 * np.asarray(q, dtype=float)),
        D_pH=wrap(lambda t, q, p: np.asarray(p, dtype=float)),
        D_ppH=wrap(lambda t, q, p: np.eye(n)),
        D_tH=wrap(lambda t, q, p: 0.0),
        derivative_mode="analytic",
        name="bench-oscillator",
    )


def _pendulum(mode, wrap):
    # H = p^2/2 + cos q; only H is supplied, derivatives come from ``mode``
    return HamiltonianProblem(
        dim=1,
        H=wrap(lambda t, q, p: 0.5 * p[0] * p[0] + np.cos(q[0])),
        derivative_mode=mode,
        name=f"bench-pendulum-{mode}",
    )


def _trajectory_view(traj):
    z = traj.state_array()
    return {"z0": z[0], "z1": z[-1]}, (traj.times, z)


def _osc_shoot(rng, r, slot, n, wrap):
    omega = rng.uniform(0.8, 1.2)
    T = rng.uniform(0.6, 1.1)
    a, b = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    kind = _TYPES[(r + slot) % 4]
    bc = getattr(bvp.BoundarySpec, kind)(a, b)
    prob = _oscillator(n, omega, wrap)
    return Op(
        kind=f"osc{n}_{kind}",
        params={"family": "osc", "type": kind, "n": n, "omega": omega, "T": T,
                "a": a, "b": b, "N": SHOOT_N},
        call=lambda: bvp.solve_shooting(prob, bc, T, "midpoint", SHOOT_N, tol=SHOOT_TOL),
        view=_trajectory_view,
    )


def _pendulum_shoot(rng, mode, wrap):
    q0, p1 = rng.uniform(-1.0, 1.0, 1), rng.uniform(-1.0, 1.0, 1)
    T = rng.uniform(0.6, 1.0)
    bc = bvp.BoundarySpec.type_ii(q0, p1)
    prob = _pendulum(mode, wrap)
    return Op(
        kind=f"pendulum_{mode}_type_ii",
        params={"family": "pendulum_bvp", "T": T, "q0": q0, "p1": p1, "N": SHOOT_N},
        call=lambda: bvp.solve_shooting(prob, bc, T, "midpoint", SHOOT_N, tol=SHOOT_TOL),
        view=_trajectory_view,
    )


def _rigid_body(inertia, wrap):
    inertia = np.asarray(inertia, dtype=float)
    chart = hamel.so3_left_trivialization()
    triv = hamel.Trivialization(dim=3, matrix=wrap(chart.matrix),
                                d_matrix=wrap(chart.d_matrix), label=chart.label)
    h = hamel.TrivializedHamiltonian(
        dim=3,
        value=wrap(lambda t, q, mu: 0.5 * float(np.dot(mu, mu / inertia))),
        d_q=wrap(lambda t, q, mu: np.zeros(3)),
        d_mu=wrap(lambda t, q, mu: np.asarray(mu, dtype=float) / inertia),
        label="bench-rigid-body",
    )
    return h, triv


def _hamel_view(traj):
    z = np.hstack([traj.qs, traj.mus])
    return {"z0": z[0], "z1": z[-1]}, (np.asarray(traj.times), z)


def _hamel_shoot(rng, wrap):
    # p90 of the workload lies in these ops; data this small give every
    # instance the same two outer Newton iterations, where larger data mix two
    # and three and make p90 jump between the two costs from seed to seed
    inertia = np.sort(rng.uniform(1.0, 3.0, 3))
    q0 = rng.uniform(-0.5, 0.5, 3)
    mu1 = rng.uniform(-0.3, 0.3, 3)
    T = rng.uniform(0.1, 0.3)
    h, triv = _rigid_body(inertia, wrap)
    return Op(
        kind="rigid_body_type_ii",
        params={"family": "hamel_bvp", "inertia": inertia, "q0": q0, "mu1": mu1,
                "T": T, "N": HAMEL_BVP_N},
        call=lambda: hamel.solve_hamel_type_ii(h, triv, q0, mu1, T, HAMEL_BVP_N,
                                               tol=SHOOT_TOL),
        view=_hamel_view,
    )


# ---------------------------------------------------------------------------
# sweep: forward pass plus linear backward pass, no Newton

SWEEP_N = 400
FBSM_N = 50
FBSM_RELAX = 0.5
DIFFUSION_NX = 31


def _sensitivity_view(result):
    grad, traj = result
    return {"grad": grad}, (grad, traj.times, traj.state_array())


def _battery(case, q0, wrap):
    # the two nonlinear cost problems of the adjoint experiments, with q0 drawn
    if case == 0:
        return adjoint.CostProblem(
            f=wrap(lambda t, q: np.sin(q)),
            g=wrap(lambda t, q: float(q[0] ** 2)),
            C=wrap(lambda q: float(q[0] ** 2)),
            dC=wrap(lambda q: 2.0 * np.asarray(q, dtype=float)),
            T=1.0, q0=q0,
            D_qf=wrap(lambda t, q: np.diag(np.cos(q))),
            D_qg=wrap(lambda t, q: 2.0 * np.asarray(q, dtype=float)))
    return adjoint.CostProblem(
        f=wrap(lambda t, q: np.array([q[1], -np.sin(q[0])])),
        g=wrap(lambda t, q: 0.5 * float(np.dot(q, q))),
        C=wrap(lambda q: float(np.cos(q[0]) + q[1] ** 2)),
        dC=wrap(lambda q: np.array([-np.sin(q[0]), 2.0 * q[1]])),
        T=1.0, q0=q0,
        D_qf=wrap(lambda t, q: np.array([[0.0, 1.0], [-np.cos(q[0]), 0.0]])),
        D_qg=wrap(lambda t, q: np.asarray(q, dtype=float)))


def _battery_sensitivity(rng, case, wrap):
    q0 = rng.uniform(0.3, 1.2, 1) if case == 0 else rng.uniform(-0.6, 0.6, 2)
    cp = _battery(case, q0, wrap)
    return Op(
        kind=f"battery{case}_sensitivity",
        params={"family": f"battery{case}", "q0": q0, "T": 1.0, "N": SWEEP_N},
        call=lambda: adjoint.sensitivity(cp, "rk4", SWEEP_N),
        view=_sensitivity_view,
    )


def _diffusion_sensitivity(rng, wrap):
    nx = DIFFUSION_NX
    T = rng.uniform(0.05, 0.2)
    A = adjoint.dirichlet_laplacian(nx)
    q0 = np.sin(np.pi * np.arange(1, nx + 1) / (nx + 1))
    cp = adjoint.CostProblem(
        f=wrap(lambda t, q: A @ q),
        g=None,
        C=wrap(lambda q: 0.5 * float(np.dot(q, q))),
        dC=wrap(lambda q: np.asarray(q, dtype=float)),
        T=T, q0=q0,
        D_qf=wrap(lambda t, q: A),
        D_qg=wrap(lambda t, q: np.zeros(nx)))
    return Op(
        kind="diffusion_sensitivity",
        params={"family": "diffusion", "nx": nx, "T": T, "q0": q0, "N": SWEEP_N},
        call=lambda: adjoint.sensitivity(cp, "rk4", SWEEP_N),
        view=_sensitivity_view,
    )


def _fbsm_view(result):
    traj, residual = result
    summary = {"q": traj.qs[:, 0], "p": traj.ps[:, 0], "u": traj.controls[:, 0],
               "times": traj.times}
    return summary, (traj.times, traj.state_array(), traj.controls,
                     np.array([residual]))


def _lqr(rng, wrap):
    q0 = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
    # H = p u + (q^2 + u^2)/2 on [0, 1] with free terminal state
    cp = optcontrol.ControlProblem(
        f=wrap(lambda t, q, u: np.asarray(u, dtype=float)),
        g=wrap(lambda t, q, u: 0.5 * float(q[0] ** 2 + u[0] ** 2)),
        C=wrap(lambda q: 0.0),
        dC=wrap(lambda q: np.zeros(1)),
        q0=np.array([q0]), T=1.0, u_dim=1, u_init=0.0,
        D_qf=wrap(lambda t, q, u: np.zeros((1, 1))),
        D_uf=wrap(lambda t, q, u: np.eye(1)),
        D_qg=wrap(lambda t, q, u: np.asarray(q, dtype=float)),
        D_ug=wrap(lambda t, q, u: np.asarray(u, dtype=float)))
    return Op(
        kind="lqr_fbsm",
        params={"family": "lqr", "q0": q0, "T": 1.0, "N": FBSM_N},
        call=lambda: optcontrol.solve_fbsm(cp, "rk4", FBSM_N, relax=FBSM_RELAX),
        view=_fbsm_view,
    )


# ---------------------------------------------------------------------------
# march: long chains of implicit steps, no outer solve

MARCH_H = 0.05
MARCH_TOL = 1e-12
CENTRAL_N = 100
PENDULUM_MAP_N = 120
CHAIN_DOF = 8
CHAIN_N = 60
HAMEL_IVP_N = 100
MINIMIZE_STEPS = 200
MINIMIZE_H = 0.05


def _central_force(wrap, a=0.5, b=0.125):
    # planar H = |p|^2/2 + a s + b s^2 with s = |q|^2
    def H(t, q, p):
        s = np.dot(q, q)
        return 0.5 * np.dot(p, p) + a * s + b * s * s

    def D_qH(t, q, p):
        return (2.0 * a + 4.0 * b * np.dot(q, q)) * np.asarray(q, dtype=float)

    return HamiltonianProblem(
        dim=2, H=wrap(H), D_qH=wrap(D_qH),
        D_pH=wrap(lambda t, q, p: np.asarray(p, dtype=float)),
        D_ppH=wrap(lambda t, q, p: np.eye(2)),
        D_tH=wrap(lambda t, q, p: 0.0),
        derivative_mode="analytic", name="bench-central-force")


def _chain_stiffness(springs):
    """Stiffness matrix of a fixed-end spring chain; len(springs) = dof + 1."""
    k = np.asarray(springs, dtype=float)
    return np.diag(k[:-1] + k[1:]) - np.diag(k[1:-1], 1) - np.diag(k[1:-1], -1)


def _chain(K, wrap):
    n = K.shape[0]
    return HamiltonianProblem(
        dim=n,
        H=wrap(lambda t, q, p: 0.5 * (np.dot(p, p) + np.dot(q, K @ q))),
        D_qH=wrap(lambda t, q, p: K @ q),
        D_pH=wrap(lambda t, q, p: np.asarray(p, dtype=float)),
        D_ppH=wrap(lambda t, q, p: np.eye(n)),
        D_tH=wrap(lambda t, q, p: 0.0),
        derivative_mode="analytic", name="bench-chain")


def _map_op(kind, family, prob, z0, N, extra):
    dH = integrators.galerkin_discrete_hamiltonian(
        prob, integrators.GalerkinScheme.gauss(2), MARCH_H, tol=MARCH_TOL)
    params = {"family": family, "z0": np.concatenate([z0.q, z0.p]), "h": MARCH_H,
              "N": N, "T": N * MARCH_H, **extra}
    return Op(kind=kind, params=params,
              call=lambda: integrators.integrate_map(dH, z0, 0.0, N, tol=MARCH_TOL),
              view=_trajectory_view)


def _central_march(rng, wrap):
    z0 = PhasePoint(rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2))
    return _map_op("central_force_gauss2", "central_force", _central_force(wrap),
                   z0, CENTRAL_N, {})


def _pendulum_march(rng, wrap):
    # librations about the stable point q = pi, well inside the separatrix
    z0 = PhasePoint(rng.uniform(np.pi - 1.1, np.pi + 1.1, 1), rng.uniform(-1.0, 1.0, 1))
    return _map_op("pendulum_dual_gauss2", "pendulum", _pendulum("dual", wrap),
                   z0, PENDULUM_MAP_N, {})


def _chain_march(rng, wrap):
    springs = rng.uniform(0.5, 1.5, CHAIN_DOF + 1)
    z0 = PhasePoint(rng.uniform(-1.0, 1.0, CHAIN_DOF), rng.uniform(-1.0, 1.0, CHAIN_DOF))
    return _map_op("chain8_gauss2", "chain", _chain(_chain_stiffness(springs), wrap),
                   z0, CHAIN_N, {"springs": springs})


def _hamel_march(rng, wrap):
    inertia = np.sort(rng.uniform(1.0, 3.0, 3))
    q0 = rng.uniform(-0.5, 0.5, 3)
    mu0 = rng.uniform(-1.0, 1.0, 3)
    T = rng.uniform(0.5, 1.0)
    h, triv = _rigid_body(inertia, wrap)
    state0 = hamel.TrivializedState(q0, mu0)
    return Op(
        kind="rigid_body_ivp",
        params={"family": "hamel_ivp", "inertia": inertia, "q0": q0, "mu0": mu0,
                "T": T, "N": HAMEL_IVP_N},
        call=lambda: hamel.integrate_hamel(h, triv, state0, T, HAMEL_IVP_N, tol=MARCH_TOL),
        view=_hamel_view,
    )


def _minimize_view(result):
    iterates, report = result
    summary = {"x1": iterates[-1], "t1": np.array([report.times[-1]])}
    return summary, (iterates, report.times, report.gaps)


def _bregman(rng, wrap):
    target = rng.uniform(-2.0, 2.0, 2)
    x0 = target + rng.uniform(-2.0, 2.0, 2)
    cfg = accelopt.BregmanConfig(
        objective=wrap(lambda x: 0.5 * float(np.dot(x - target, x - target))),
        gradient=wrap(lambda x: np.asarray(x, dtype=float) - target),
        x0=x0, p=2.0, p_ring=2.0, C=1.0, t0=1.0)
    return Op(
        kind="bregman_minimize",
        params={"family": "bregman", "target": target, "x0": x0, "p": 2.0, "C": 1.0,
                "t0": 1.0, "h": MINIMIZE_H, "N": MINIMIZE_STEPS},
        call=lambda: accelopt.minimize(cfg, "midpoint", fictive_steps=MINIMIZE_STEPS,
                                       h_tau=MINIMIZE_H, tol=MARCH_TOL),
        view=_minimize_view,
    )


# ---------------------------------------------------------------------------
# rounds

ROUNDS = {
    "shoot": [
        lambda rng, r, w: _osc_shoot(rng, r, 0, 1, w),
        lambda rng, r, w: _osc_shoot(rng, r, 1, 2, w),
        lambda rng, r, w: _osc_shoot(rng, r, 2, 2, w),
        lambda rng, r, w: _pendulum_shoot(rng, "dual", w),
        lambda rng, r, w: _osc_shoot(rng, r, 3, 3, w),
        lambda rng, r, w: _osc_shoot(rng, r, 0, 3, w),
        lambda rng, r, w: _osc_shoot(rng, r, 1, 3, w),
        lambda rng, r, w: _pendulum_shoot(rng, "fd", w),
        lambda rng, r, w: _hamel_shoot(rng, w),
        lambda rng, r, w: _hamel_shoot(rng, w),
    ],
    "sweep": [
        lambda rng, r, w: _battery_sensitivity(rng, 0, w),
        lambda rng, r, w: _battery_sensitivity(rng, 1, w),
        lambda rng, r, w: _diffusion_sensitivity(rng, w),
        lambda rng, r, w: _battery_sensitivity(rng, 0, w),
        lambda rng, r, w: _battery_sensitivity(rng, 1, w),
        lambda rng, r, w: _diffusion_sensitivity(rng, w),
        lambda rng, r, w: _lqr(rng, w),
        lambda rng, r, w: _lqr(rng, w),
    ],
    "march": [
        lambda rng, r, w: _central_march(rng, w),
        lambda rng, r, w: _pendulum_march(rng, w),
        lambda rng, r, w: _hamel_march(rng, w),
        lambda rng, r, w: _bregman(rng, w),
        lambda rng, r, w: _chain_march(rng, w),
        lambda rng, r, w: _central_march(rng, w),
        lambda rng, r, w: _pendulum_march(rng, w),
        lambda rng, r, w: _hamel_march(rng, w),
        lambda rng, r, w: _bregman(rng, w),
        lambda rng, r, w: _chain_march(rng, w),
    ],
}


def make_round(workload, seed, r, wrap=_identity):
    """The ops of round ``r`` (``-1`` is the warm-up round) for ``seed``."""
    # a negative seed maps to its 64-bit two's complement, as SeedSequence
    # takes only non-negative entropy
    rng = np.random.default_rng([seed % 2**64, r + 1])
    return [build(rng, r, wrap) for build in ROUNDS[workload]]


def warmup_op(workload, seed):
    """The single untimed op run before timing starts."""
    return make_round(workload, seed, -1)[0]
