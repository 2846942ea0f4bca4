"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; each test prints ``criterion NN PASS/FAIL`` and enforces the
runtime budgets where one applies.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hamflow import accelopt, adjoint, bvp, hamel, integrators, problems
from hamflow.cli import run_experiment
from hamflow.core import PhasePoint, euler_step, phase_field
from hamflow.experiments import EXPERIMENTS, lqr_problem, riccati_oracle


@contextmanager
def criterion(num, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    status = f"criterion {num:2d} PASS  {label} ({elapsed:.1f}s)"
    if budget is not None and elapsed >= budget:
        print(f"criterion {num:2d} FAIL  {label} (runtime {elapsed:.1f}s >= {budget}s)")
        raise AssertionError(f"runtime budget exceeded: {elapsed:.1f}s >= {budget}s")
    print(status)


SEED = 20240817
MIDPOINT = integrators.GalerkinScheme.midpoint()


def test_criterion_01_completeness_table():
    with criterion(1, "boundary-condition completeness table", budget=5.0):
        model = problems.model_degenerate(g=lambda x: x, gp=lambda x: 1.0)
        base = PhasePoint([0.3, 0.5], [0.7, -0.4])
        expected = ["complete", "incomplete", "complete", "complete", "incomplete"]
        kinds = [bvp.BoundaryKind.TYPE0, bvp.BoundaryKind.TYPE_I,
                 bvp.BoundaryKind.TYPE_II, bvp.BoundaryKind.TYPE_III,
                 bvp.BoundaryKind.TYPE_IV]
        for kind, verdict in zip(kinds, expected):
            rep = bvp.completeness_diagnostic(model, kind, 1.0, "midpoint", 200,
                                              base_point=base)
            assert rep.verdict == verdict, kind
            if verdict == "incomplete":
                assert rep.min_singular_value <= 1e-10
            else:
                assert rep.min_singular_value >= 1e-2


def test_criterion_02_type_ii_bvp():
    with criterion(2, "terminal-momentum BVP correctness", budget=5.0):
        drift = problems.linear_drift()
        bc = bvp.BoundarySpec.type_ii([1.0], [1.0])
        sweep = bvp.solve_type_ii_sweep(drift, bc, 1.0, "midpoint", 2000, tol=1e-12)
        shoot = bvp.solve_shooting(drift, bc, 1.0, "midpoint", 2000, tol=1e-12)
        assert np.max(np.abs(sweep.state_array() - shoot.state_array())) <= 1e-8

        osc = problems.harmonic_oscillator()
        T = math.pi / 4
        traj = bvp.solve_shooting(osc, bvp.BoundarySpec.type_ii([1.0], [0.0]), T,
                                  "midpoint", 2000, tol=1e-12)
        p0 = (0.0 + math.sin(T)) / math.cos(T)
        q_exact = np.cos(traj.times) + p0 * np.sin(traj.times)
        p_exact = -np.sin(traj.times) + p0 * np.cos(traj.times)
        assert np.max(np.abs(traj.qs[:, 0] - q_exact)) <= 1e-6
        assert np.max(np.abs(traj.ps[:, 0] - p_exact)) <= 1e-6


def test_criterion_03_virtual_work_identity():
    with criterion(3, "terminal virtual-work identity"):
        osc = problems.harmonic_oscillator()
        traj = bvp.solve_shooting(osc, bvp.BoundarySpec.type_ii([1.0], [0.4]),
                                  math.pi / 4, "midpoint", 1000, tol=1e-12)
        rng = np.random.default_rng(SEED)
        residuals, scales = bvp.virtual_work_residuals(osc, traj, [0.4], rng)
        assert np.max(residuals / scales) <= 1e-6


def test_criterion_04_integrator_orders():
    with criterion(4, "observed one-step orders", budget=30.0):
        osc = problems.harmonic_oscillator()
        z0 = PhasePoint([1.0], [0.3])
        ref = np.array([[math.cos(1.0), math.sin(1.0)],
                        [-math.sin(1.0), math.cos(1.0)]]) @ z0.as_array()
        order_mid = integrators.estimate_order(
            lambda h: integrators.galerkin_discrete_hamiltonian(osc, MIDPOINT, h, tol=1e-13),
            osc, z0, 1.0, [16, 32, 64, 128], reference=ref)
        assert 1.8 <= order_mid <= 2.2
        scheme = integrators.GalerkinScheme.gauss(2)
        order_g2 = integrators.estimate_order(
            lambda h: integrators.galerkin_discrete_hamiltonian(osc, scheme, h,
                                                                tol=1e-13),
            osc, z0, 1.0, [8, 12, 16, 24, 32], reference=ref)
        assert order_g2 >= 3.8


def test_criterion_05_symplecticity_and_momentum():
    with criterion(5, "symplecticity defects and momentum-map drift"):
        rng = np.random.default_rng(SEED)
        h = 0.1
        for prob, scheme in [
                (problems.harmonic_oscillator(), integrators.GalerkinScheme.midpoint()),
                (problems.pendulum(), integrators.GalerkinScheme.midpoint()),
                (problems.harmonic_oscillator(), integrators.GalerkinScheme.gauss(2))]:
            dH = integrators.galerkin_discrete_hamiltonian(prob, scheme, h, tol=1e-13)
            for _ in range(20):
                z = PhasePoint(rng.uniform(-1, 1, prob.dim),
                               rng.uniform(-1, 1, prob.dim))
                assert integrators.symplecticity_defect(
                    lambda t, zz, hh: integrators.step(dH, t, zz), 0.0, z, h) <= 1e-7

        cf = problems.central_force_2d()
        z0 = PhasePoint([1.0, 0.0], [0.1, 1.1])
        dH = integrators.galerkin_discrete_hamiltonian(cf, MIDPOINT, 0.01, tol=1e-13)
        traj = integrators.integrate_map(dH, z0, 0.0, 1000, tol=1e-13)
        assert integrators.momentum_map_drift(traj, problems.angular_momentum_2d) <= 1e-10

        # non-symplectic control run exceeds both thresholds
        field = phase_field(problems.harmonic_oscillator())
        emap = lambda t, z, h: euler_step(field, t, z, h)
        assert integrators.symplecticity_defect(
            emap, 0.0, PhasePoint([1.0], [0.0]), h) > 1e-7
        traj_e = bvp.solve_ivp(cf, z0, 10.0, "euler", 1000)
        assert integrators.momentum_map_drift(
            traj_e, problems.angular_momentum_2d) > 1e-10


def test_criterion_06_generator_gap_scaling():
    with criterion(6, "generator gap scales one order above the map"):
        osc = problems.harmonic_oscillator()
        q0, p1 = np.array([1.0]), np.array([0.3])
        hs, gaps = [], []
        for N in [8, 16, 32, 64]:
            h = 1.0 / N
            dH = integrators.galerkin_discrete_hamiltonian(osc, MIDPOINT, h, tol=1e-13)
            gaps.append(abs(dH.value(0.0, q0, p1)
                            - integrators.exact_discrete_hamiltonian(
                                osc, q0, p1, h, tol=1e-12)))
            hs.append(h)
        gap_slope = float(np.polyfit(np.log(hs), np.log(gaps), 1)[0])
        z0 = PhasePoint([1.0], [0.3])
        ref = np.array([[math.cos(1.0), math.sin(1.0)],
                        [-math.sin(1.0), math.cos(1.0)]]) @ z0.as_array()
        order = integrators.estimate_order(
            lambda h: integrators.galerkin_discrete_hamiltonian(osc, MIDPOINT, h, tol=1e-13),
            osc, z0, 1.0, [16, 32, 64, 128], reference=ref)
        assert gap_slope >= order - 0.2


def test_criterion_07_adjoint_gradients():
    with criterion(7, "adjoint sensitivities", budget=10.0):
        from scipy.linalg import expm

        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        cp_lin = adjoint.CostProblem(
            f=lambda t, q: A @ q, g=None, C=lambda q: float(q[0]),
            dC=lambda q: np.array([1.0, 0.0]), T=1.0, q0=np.array([0.4, -0.3]),
            D_qf=lambda t, q: A, D_qg=lambda t, q: np.zeros(2))
        grad, _ = adjoint.sensitivity(cp_lin, "midpoint", 2000, tol=1e-12)
        oracle = expm(A.T * cp_lin.T) @ np.array([1.0, 0.0])
        assert np.max(np.abs(grad - oracle)) <= 1e-6

        battery = [
            adjoint.CostProblem(
                f=lambda t, q: np.sin(q), g=lambda t, q: float(q[0] ** 2),
                C=lambda q: float(q[0] ** 2),
                dC=lambda q: 2.0 * np.asarray(q, dtype=float),
                T=1.0, q0=np.array([0.8]),
                D_qf=lambda t, q: np.diag(np.cos(q)),
                D_qg=lambda t, q: 2.0 * np.asarray(q, dtype=float)),
            adjoint.CostProblem(
                f=lambda t, q: np.array([q[1], -np.sin(q[0])]),
                g=lambda t, q: 0.5 * float(np.dot(q, q)),
                C=lambda q: float(np.cos(q[0]) + q[1] ** 2),
                dC=lambda q: np.array([-np.sin(q[0]), 2.0 * q[1]]),
                T=1.0, q0=np.array([0.3, -0.2]),
                D_qf=lambda t, q: np.array([[0.0, 1.0], [-np.cos(q[0]), 0.0]]),
                D_qg=lambda t, q: np.asarray(q, dtype=float)),
        ]
        for cp in battery:
            assert adjoint.gradient_check(cp, "midpoint", 2000, tol=1e-12) <= 1e-5

        rep = adjoint.diffusion_adjoint_demo(nx=31, T=0.1, N=2000, tol=1e-12)
        assert rep.err_vs_oracle <= 1e-4


def test_criterion_08_commutativity():
    with criterion(8, "discrete-adjoint commutation"):
        cp = adjoint.CostProblem(
            f=lambda t, q: np.sin(q), g=lambda t, q: float(q[0] ** 2),
            C=lambda q: float(q[0] ** 2), dC=lambda q: 2.0 * np.asarray(q, dtype=float),
            T=1.0, q0=np.array([0.8]),
            D_qf=lambda t, q: np.diag(np.cos(q)),
            D_qg=lambda t, q: 2.0 * np.asarray(q, dtype=float))
        assert adjoint.commutativity_gap(cp, "symplectic_pair", 100) <= 1e-12
        g1 = adjoint.commutativity_gap(cp, "explicit_euler", 100)
        g2 = adjoint.commutativity_gap(cp, "explicit_euler", 200)
        assert 1.7 <= g1 / g2 <= 2.3


def test_criterion_09_pontryagin_lqr():
    with criterion(9, "forward-backward sweep on scalar LQR", budget=10.0):
        cp = lqr_problem()
        traj, residual = solve_fbsm_for_acceptance(cp)
        assert residual <= 1e-8
        q_or, p_or, u_or = riccati_oracle(cp.T, traj.times, cp.q0[0])
        assert np.max(np.abs(traj.qs[:, 0] - q_or)) <= 1e-4
        assert np.max(np.abs(traj.ps[:, 0] - p_or)) <= 1e-4
        assert np.max(np.abs(traj.controls[:, 0] - u_or)) <= 1e-4


def solve_fbsm_for_acceptance(cp):
    from hamflow.optcontrol import solve_fbsm

    return solve_fbsm(cp, "midpoint", 1000, max_sweeps=200, relax=0.5,
                      tol=1e-8, newton_tol=1e-12)


def test_criterion_10_rigid_body():
    with criterion(10, "frame bracket, Euler equations, trivialized round trip"):
        triv = hamel.so3_left_trivialization()
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            q = rng.uniform(-1.0, 1.0, 3)
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            assert np.max(np.abs(hamel.hamel_bracket(triv, q, u, v)
                                 - np.cross(u, v))) <= 1e-8

        inertia = np.array([1.0, 2.0, 3.0])
        reduced = hamel.rigid_body_reduced(inertia)
        state = hamel.TrivializedState([0.2, -0.1, 0.3], [1.0, 1.0, 1.0])
        _, dmu = hamel.hamel_vector_field(reduced, triv, 0.0, state)
        assert np.max(np.abs(dmu - np.cross(state.mu, state.mu / inertia))) <= 1e-12

        ivp = hamel.integrate_hamel(reduced, triv, state, 1.0, 200, tol=1e-12)
        back = hamel.solve_hamel_type_ii(reduced, triv, state.q, ivp.mus[-1],
                                         1.0, 200, guess=ivp.mus[-1], tol=1e-12)
        assert np.max(np.abs(back.mus[0] - state.mu)) <= 1e-6


def test_criterion_11_accelerated_optimization():
    with criterion(11, "acceleration rate and extended-energy conservation"):
        a = np.array([1.0, -2.0])
        cfg = accelopt.BregmanConfig(
            objective=lambda x: 0.5 * float(np.dot(x - a, x - a)),
            gradient=lambda x: np.asarray(x, dtype=float) - a,
            x0=np.array([3.0, 1.5]), p=2.0, p_ring=2.0, C=1.0)
        _, slope_rep = accelopt.minimize(cfg, "midpoint", fictive_steps=10000,
                                         h_tau=0.05, tol=1e-12)
        assert slope_rep.slope <= -1.8

        cfg_near = accelopt.BregmanConfig(
            objective=cfg.objective, gradient=cfg.gradient,
            x0=a + np.array([0.3, -0.2]), p=2.0, p_ring=2.0, C=1.0)
        _, cons_rep = accelopt.minimize(cfg_near, "midpoint", fictive_steps=10000,
                                        h_tau=1e-4, tol=1e-13)
        assert cons_rep.hbar_abs_max <= 1e-8


_SMALL_PARAMS = {
    "completeness_table": {"N": 60},
    "type2_bvp": {"N": 200, "N_degenerate": 200},
    "hamel_rigid_body": {"N_round": 40, "casimir_steps": 150},
    "adjoint_gradient": {"N": 200},
    "diffusion_adjoint": {"nx": 5, "N": 80},
    "commutativity": {"N": 40},
    "pontryagin_lqr": {"N": 120},
    "accelopt_rate": {"slope_steps": 600, "cons_steps": 300},
    "order_study": {},
    "noether_drift": {"steps": 80},
    "symplecticity_scan": {"points": 4},
}


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "seeded experiments reproduce byte-identical tables"):
        for name, (_, schema) in EXPERIMENTS.items():
            params = {key: default for key, (_, default) in schema.items()}
            params.update(_SMALL_PARAMS[name])
            outputs = {}
            for tag in ("a", "b"):
                prefix = tmp_path / tag / name
                written = run_experiment(name, params, SEED, prefix)
                outputs[tag] = sorted(p for p in written if p.endswith(".csv"))
            assert len(outputs["a"]) >= 1
            for pa, pb in zip(outputs["a"], outputs["b"]):
                with open(pa, "rb") as fa, open(pb, "rb") as fb:
                    assert fa.read() == fb.read(), pa
