"""Registered batch experiments behind the command-line front end.

Each experiment is a pure function of its validated parameters and the seed;
re-running with the same inputs reproduces every CSV body byte for byte
(timestamps appear only in the run manifest).
"""

from __future__ import annotations

import math

import numpy as np

from . import accelopt, adjoint, bvp, hamel, integrators, optcontrol, problems
from .core import ConfigError, PhasePoint, euler_step, phase_field

SEED_DEFAULT = 20240817


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _rows_table(header, rows):
    return {"header": list(header), "rows": [[_fmt(v) for v in row] for row in rows]}


def _choice(*options):
    """Schema caster for a key whose value must be one of ``options``."""

    def caster(text):
        if text not in options:
            raise ValueError(text)
        return text

    caster.__name__ = "one of " + "/".join(options)
    return caster


def _signed(text):
    """Schema caster for a float of either sign (boundary data, not a size)."""
    return float(text)


_signed.__name__ = "signed float"


# ---------------------------------------------------------------------------

_G_CHOICES = {
    "linear": (lambda x: x, lambda x: 1.0),
    "quadratic": (lambda x: 0.5 * x * x, lambda x: x),
    "zero": (lambda x: 0.0, lambda x: 0.0),
}


def _model_problem(g_kind):
    g, gp = _G_CHOICES[g_kind]
    return problems.model_degenerate(g=g, gp=gp)


def run_completeness_table(params, rng):
    prob = _model_problem(params["g"])
    base = PhasePoint([0.3, 0.5], [0.7, -0.4])
    kinds = [bvp.BoundaryKind.TYPE0, bvp.BoundaryKind.TYPE_I, bvp.BoundaryKind.TYPE_II,
             bvp.BoundaryKind.TYPE_III, bvp.BoundaryKind.TYPE_IV]
    rows = []
    for kind in kinds:
        rep = bvp.completeness_diagnostic(prob, kind, params["T"], "midpoint",
                                          params["N"], base_point=base)
        rows.append([kind.value, rep.min_singular_value, rep.condition_estimate,
                     rep.threshold, rep.verdict])
    return {"completeness_table": _rows_table(
        ["kind", "min_singular_value", "condition_estimate", "threshold", "verdict"],
        rows)}


def run_type2_bvp(params, rng):
    osc = problems.harmonic_oscillator()
    T, N = params["T"], params["N"]
    q0 = np.array([params["q0"]])
    p1 = np.array([params["p1"]])
    traj = bvp.solve_shooting(osc, bvp.BoundarySpec.type_ii(q0, p1), T,
                              "midpoint", N, tol=1e-12)
    # closed form: q = q0 cos t + p0 sin t with p0 = (p1 + q0 sin T)/cos T
    p0 = (p1[0] + q0[0] * math.sin(T)) / math.cos(T)
    ts = traj.times
    q_exact = q0[0] * np.cos(ts) + p0 * np.sin(ts)
    p_exact = -q0[0] * np.sin(ts) + p0 * np.cos(ts)
    err = max(float(np.max(np.abs(traj.qs[:, 0] - q_exact))),
              float(np.max(np.abs(traj.ps[:, 0] - p_exact))))

    rows = [["oscillator_type2_p0", p0],
            ["oscillator_type2_max_err_vs_closed_form", err]]

    drift = problems.linear_drift()
    bc = bvp.BoundarySpec.type_ii([1.0], [1.0])
    sweep = bvp.solve_type_ii_sweep(drift, bc, 1.0, "midpoint", params["N_degenerate"],
                                    tol=1e-12)
    shoot = bvp.solve_shooting(drift, bc, 1.0, "midpoint", params["N_degenerate"],
                               tol=1e-12)
    agree = float(np.max(np.abs(sweep.state_array() - shoot.state_array())))
    rows.append(["degenerate_sweep_vs_shooting", agree])

    res, scale = bvp.virtual_work_residuals(osc, traj, p1, rng)
    rows.append(["virtual_work_max_scaled_residual", float(np.max(res / scale))])

    terminal_cost = lambda q: 0.5 * float(np.dot(q, q))
    free_bc = bvp.BoundarySpec.type_ii_free([1.0], lambda q: np.asarray(q, dtype=float))
    free = bvp.solve_type_ii_sweep(drift, free_bc, 1.0, "midpoint",
                                   params["N_degenerate"], tol=1e-12)
    res_f, scale_f = bvp.free_boundary_stationarity_residuals(drift, free,
                                                              terminal_cost, rng)
    rows.append(["free_boundary_max_scaled_residual", float(np.max(res_f / scale_f))])
    return {"type2_bvp": _rows_table(["metric", "value"], rows)}


def run_hamel_rigid_body(params, rng):
    triv = hamel.so3_left_trivialization()
    inertia = np.array([params["I1"], params["I2"], params["I3"]])
    reduced = hamel.rigid_body_reduced(inertia)

    bracket_err = 0.0
    for _ in range(100):
        q = rng.uniform(-1.0, 1.0, 3)
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        got = hamel.hamel_bracket(triv, q, u, v)
        bracket_err = max(bracket_err, float(np.max(np.abs(got - np.cross(u, v)))))

    q = np.array([0.2, -0.1, 0.3])
    state = hamel.TrivializedState(q, np.array([1.0, 1.0, 1.0]))
    _, dmu = hamel.hamel_vector_field(reduced, triv, 0.0, state)
    omega = state.mu / inertia
    euler_err = float(np.max(np.abs(dmu - np.cross(state.mu, omega))))

    ivp = hamel.integrate_hamel(reduced, triv, state, params["T_round"],
                                params["N_round"], tol=1e-12)
    mu1 = ivp.mus[-1]
    back = hamel.solve_hamel_type_ii(reduced, triv, q, mu1, params["T_round"],
                                     params["N_round"], guess=mu1, tol=1e-12)
    roundtrip = float(np.max(np.abs(back.mus[0] - state.mu)))

    run = hamel.integrate_hamel(reduced, triv, state, params["casimir_h"] * params["casimir_steps"],
                                params["casimir_steps"], tol=1e-13)
    mus = run.mus
    casimir = float(np.max(np.abs(np.sum(mus * mus, axis=1) - np.dot(state.mu, state.mu))))
    e0 = reduced.value(0.0, q, state.mu)
    energy = max(abs(reduced.value(0.0, q_k, mu_k) - e0)
                 for q_k, mu_k in zip(run.qs, run.mus))

    rows = [["bracket_vs_cross_product", bracket_err],
            ["euler_rhs_vs_cross_product", euler_err],
            ["type2_roundtrip_mu0", roundtrip],
            ["casimir_drift", casimir],
            ["energy_drift", energy]]
    return {"hamel_rigid_body": _rows_table(["metric", "value"], rows)}


def _linear_sensitivity_case(N):
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    cp = adjoint.CostProblem(
        f=lambda t, q: A @ q, g=None,
        C=lambda q: float(q[0]), dC=lambda q: np.array([1.0, 0.0]),
        T=1.0, q0=np.array([0.4, -0.3]),
        D_qf=lambda t, q: A, D_qg=lambda t, q: np.zeros(2))
    grad, _ = adjoint.sensitivity(cp, "midpoint", N, tol=1e-12)
    from scipy.linalg import expm

    oracle = expm(A.T * cp.T) @ np.array([1.0, 0.0])
    return cp, grad, float(np.max(np.abs(grad - oracle)))


def _nonlinear_battery():
    return [
        adjoint.CostProblem(
            f=lambda t, q: np.sin(q), g=lambda t, q: float(q[0] ** 2),
            C=lambda q: float(q[0] ** 2), dC=lambda q: 2.0 * np.asarray(q, dtype=float),
            T=1.0, q0=np.array([0.8]),
            D_qf=lambda t, q: np.diag(np.cos(q)), D_qg=lambda t, q: 2.0 * np.asarray(q, dtype=float)),
        adjoint.CostProblem(
            f=lambda t, q: np.array([q[1], -np.sin(q[0])]),
            g=lambda t, q: 0.5 * float(np.dot(q, q)),
            C=lambda q: float(np.cos(q[0]) + q[1] ** 2),
            dC=lambda q: np.array([-np.sin(q[0]), 2.0 * q[1]]),
            T=1.0, q0=np.array([0.3, -0.2]),
            D_qf=lambda t, q: np.array([[0.0, 1.0], [-np.cos(q[0]), 0.0]]),
            D_qg=lambda t, q: np.asarray(q, dtype=float)),
    ]


def run_adjoint_gradient(params, rng):
    N = params["N"]
    _, _, lin_err = _linear_sensitivity_case(N)
    rows = [["linear_vs_matrix_exponential", lin_err]]
    for i, cp in enumerate(_nonlinear_battery()):
        rows.append([f"gradient_check_case{i}",
                     adjoint.gradient_check(cp, "midpoint", N, tol=1e-12)])
    cp0 = _nonlinear_battery()[0]
    res, scale = adjoint.directional_derivative_check(cp0, rng, N=min(N, 1000))
    rows.append(["directional_max_scaled_residual", float(np.max(res / scale))])
    return {"adjoint_gradient": _rows_table(["metric", "value"], rows)}


def run_diffusion_adjoint(params, rng):
    rep = adjoint.diffusion_adjoint_demo(params["nx"], params["T"], params["N"],
                                         tol=1e-12)
    rows = [[params["nx"], params["T"], params["N"], rep.err_vs_oracle,
             rep.reverse_log10_amplification]]
    return {"diffusion_adjoint": _rows_table(
        ["nx", "T", "N", "err_vs_oracle", "reverse_log10_amplification"], rows)}


def run_commutativity(params, rng):
    cp = _nonlinear_battery()[0]
    N = params["N"]
    gap_sym = adjoint.commutativity_gap(cp, "symplectic_pair", N)
    gap_e1 = adjoint.commutativity_gap(cp, "explicit_euler", N)
    gap_e2 = adjoint.commutativity_gap(cp, "explicit_euler", 2 * N)
    rows = [["symplectic_pair", N, gap_sym],
            ["explicit_euler", N, gap_e1],
            ["explicit_euler", 2 * N, gap_e2],
            ["euler_halving_ratio", N, gap_e1 / gap_e2]]
    return {"commutativity": _rows_table(["scheme", "N", "gap"], rows)}


def lqr_problem():
    """Scalar LQR: dq/dt = u, cost (q^2 + u^2)/2 on [0, 1] from q(0) = 1."""
    return optcontrol.ControlProblem(
        f=lambda t, q, u: np.asarray(u, dtype=float),
        g=lambda t, q, u: 0.5 * float(q[0] ** 2 + u[0] ** 2),
        C=lambda q: 0.0,
        dC=lambda q: np.zeros(1),
        q0=np.array([1.0]), T=1.0, u_dim=1, u_init=0.0,
        D_qf=lambda t, q, u: np.zeros((1, 1)),
        D_uf=lambda t, q, u: np.eye(1),
        D_qg=lambda t, q, u: np.asarray(q, dtype=float),
        D_ug=lambda t, q, u: np.asarray(u, dtype=float))


def riccati_oracle(T, times, q0):
    """Scalar LQR reference in closed form: the Riccati solution P = tanh(T - t)
    of dP/ds = 1 - P^2 (s = T - t), the state q = q0 cosh(T - t) / cosh T under
    u = -P q, and p = P q, u = -p."""
    s = T - np.asarray(times, dtype=float)
    q = q0 * np.cosh(s) / np.cosh(T)
    p = np.tanh(s) * q
    return q, p, -p


def run_pontryagin_lqr(params, rng):
    cp = lqr_problem()
    N = params["N"]
    traj, residual = optcontrol.solve_fbsm(cp, "midpoint", N,
                                           max_sweeps=params["max_sweeps"],
                                           relax=params["relax"], tol=1e-8,
                                           newton_tol=1e-12)
    q_or, p_or, u_or = riccati_oracle(cp.T, traj.times, cp.q0[0])
    err = max(float(np.max(np.abs(traj.qs[:, 0] - q_or))),
              float(np.max(np.abs(traj.ps[:, 0] - p_or))),
              float(np.max(np.abs(traj.controls[:, 0] - u_or))))
    defects = optcontrol.pontryagin_residuals(cp, traj)
    rows = [["stationarity_residual", residual],
            ["riccati_max_err", err],
            ["sweeps", traj.metadata["sweeps"]],
            ["state_defect", defects["state_defect"]],
            ["costate_defect", defects["costate_defect"]],
            ["terminal_error", defects["terminal_error"]]]
    return {"pontryagin_lqr": _rows_table(["metric", "value"], rows)}


def run_accelopt_rate(params, rng):
    a = np.array([1.0, -2.0])
    cfg = accelopt.BregmanConfig(
        objective=lambda x: 0.5 * float(np.dot(x - a, x - a)),
        gradient=lambda x: np.asarray(x, dtype=float) - a,
        x0=np.array([3.0, 1.5]), p=2.0, p_ring=2.0, C=1.0)
    _, slope_rep = accelopt.minimize(cfg, "midpoint",
                                     fictive_steps=params["slope_steps"],
                                     h_tau=params["slope_h"], tol=1e-12)
    cfg_small = accelopt.BregmanConfig(
        objective=cfg.objective, gradient=cfg.gradient,
        x0=a + np.array([0.3, -0.2]), p=2.0, p_ring=2.0, C=1.0)
    _, cons_rep = accelopt.minimize(cfg_small, "midpoint",
                                    fictive_steps=params["cons_steps"],
                                    h_tau=params["cons_h"], tol=1e-13)
    _, euler_rep = accelopt.minimize(cfg_small, "euler",
                                     fictive_steps=params["cons_steps"],
                                     h_tau=params["cons_h"])
    rows = [["fitted_slope", slope_rep.slope],
            ["slope_run_final_time", slope_rep.times[-1]],
            ["hbar_abs_max_symplectic", cons_rep.hbar_abs_max],
            ["hbar_abs_max_euler", euler_rep.hbar_abs_max],
            ["euler_over_symplectic", euler_rep.hbar_abs_max / cons_rep.hbar_abs_max]]
    return {"accelopt_rate": _rows_table(["metric", "value"], rows)}


def _order_rows(scheme_name, params, rng):
    osc = problems.harmonic_oscillator()
    T = params["T"]
    z0 = PhasePoint([1.0], [0.3])
    theta = T
    rot = np.array([[math.cos(theta), math.sin(theta)],
                    [-math.sin(theta), math.cos(theta)]])
    z_ref = rot @ z0.as_array()
    if scheme_name == "midpoint":
        scheme = integrators.GalerkinScheme.midpoint()
        steps = [16, 32, 64, 128]
    else:
        scheme = integrators.GalerkinScheme.gauss(2)
        steps = [8, 12, 16, 24, 32]
    family = lambda h: integrators.galerkin_discrete_hamiltonian(osc, scheme, h, tol=1e-13)
    rows = []
    errs, hs = [], []
    for N in steps:
        h = T / N
        traj = integrators.integrate_map(family(h), z0, 0.0, N, tol=1e-13)
        err = float(np.max(np.abs(traj.final.as_array() - z_ref)))
        gap = abs(family(h).value(0.0, z0.q, z0.p)
                  - integrators.exact_discrete_hamiltonian(osc, z0.q, z0.p, h, tol=1e-12))
        rows.append([scheme_name, N, h, err, gap])
        errs.append(err)
        hs.append(h)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return rows, slope


def run_order_study(params, rng):
    schemes = ["midpoint", "gauss2"] if params["scheme"] == "both" else [params["scheme"]]
    rows, summary = [], []
    for name in schemes:
        scheme_rows, slope = _order_rows(name, params, rng)
        rows.extend(scheme_rows)
        gaps = [r[4] for r in scheme_rows]
        hs = [r[2] for r in scheme_rows]
        gap_slope = float(np.polyfit(np.log(hs), np.log(gaps), 1)[0])
        summary.append([name, slope, gap_slope])
    return {
        "order_study": _rows_table(["scheme", "N", "h", "endpoint_error",
                                    "generator_gap"], rows),
        "order_summary": _rows_table(["scheme", "observed_order",
                                      "generator_gap_slope"], summary),
    }


def run_noether_drift(params, rng):
    prob = problems.central_force_2d()
    z0 = PhasePoint([1.0, 0.0], [0.1, 1.1])
    N, h = params["steps"], params["h"]
    dH = integrators.galerkin_discrete_hamiltonian(
        prob, integrators.GalerkinScheme.midpoint(), h, tol=1e-13)
    traj = integrators.integrate_map(dH, z0, 0.0, N, tol=1e-13)
    drift_mid = integrators.momentum_map_drift(traj, problems.angular_momentum_2d)

    traj_e = bvp.solve_ivp(prob, z0, N * h, "euler", N)
    drift_euler = integrators.momentum_map_drift(traj_e, problems.angular_momentum_2d)
    rows = [["midpoint", N, h, drift_mid], ["euler", N, h, drift_euler]]
    return {"noether_drift": _rows_table(["scheme", "steps", "h", "drift"], rows)}


def run_symplecticity_scan(params, rng):
    osc = problems.harmonic_oscillator()
    pend = problems.pendulum()
    h = params["h"]
    rows = []
    for label, prob, scheme in [
            ("midpoint_oscillator", osc, integrators.GalerkinScheme.midpoint()),
            ("midpoint_pendulum", pend, integrators.GalerkinScheme.midpoint()),
            ("gauss2_oscillator", osc, integrators.GalerkinScheme.gauss(2))]:
        dH = integrators.galerkin_discrete_hamiltonian(prob, scheme, h, tol=1e-13)
        worst = 0.0
        for _ in range(params["points"]):
            z = PhasePoint(rng.uniform(-1, 1, prob.dim), rng.uniform(-1, 1, prob.dim))
            worst = max(worst, integrators.symplecticity_defect(
                lambda t, zz, hh: integrators.step(dH, t, zz), 0.0, z, h))
        rows.append([label, params["points"], worst])
    field = phase_field(osc)
    z = PhasePoint([1.0], [0.0])
    rows.append(["euler_oscillator", 1, integrators.symplecticity_defect(
        lambda t, zz, hh: euler_step(field, t, zz, hh), 0.0, z, h)])
    return {"symplecticity_scan": _rows_table(["map", "points", "max_defect"], rows)}


# ---------------------------------------------------------------------------
# registry: name -> (runner, parameter schema {key: (caster, default)});
# choice-valued keys take a ``_choice`` caster and keys of either sign ``_signed``

EXPERIMENTS = {
    "completeness_table": (run_completeness_table, {
        "T": (float, 1.0), "N": (int, 200), "g": (_choice(*_G_CHOICES), "linear")}),
    "type2_bvp": (run_type2_bvp, {
        "T": (float, math.pi / 4.0), "N": (int, 2000), "q0": (_signed, 1.0),
        "p1": (_signed, 0.0), "N_degenerate": (int, 2000)}),
    "hamel_rigid_body": (run_hamel_rigid_body, {
        "I1": (float, 1.0), "I2": (float, 2.0), "I3": (float, 3.0),
        "T_round": (float, 1.0), "N_round": (int, 200),
        "casimir_steps": (int, 10000), "casimir_h": (float, 1e-3)}),
    "adjoint_gradient": (run_adjoint_gradient, {"N": (int, 2000)}),
    "diffusion_adjoint": (run_diffusion_adjoint, {
        "nx": (int, 31), "T": (float, 0.1), "N": (int, 2000)}),
    "commutativity": (run_commutativity, {"N": (int, 100)}),
    "pontryagin_lqr": (run_pontryagin_lqr, {
        "N": (int, 1000), "max_sweeps": (int, 200), "relax": (float, 0.5)}),
    "accelopt_rate": (run_accelopt_rate, {
        "slope_steps": (int, 10000), "slope_h": (float, 0.05),
        "cons_steps": (int, 10000), "cons_h": (float, 1e-4)}),
    "order_study": (run_order_study, {
        "scheme": (_choice("midpoint", "gauss2", "both"), "both"), "T": (float, 1.0)}),
    "noether_drift": (run_noether_drift, {"steps": (int, 1000), "h": (float, 0.01)}),
    "symplecticity_scan": (run_symplecticity_scan, {
        "h": (float, 0.1), "points": (int, 20)}),
}

# The largest grid a configured run may ask for: each integer parameter (a
# step count, grid size or iteration budget) and the entries of each array an
# experiment sizes by a product of them.  Every default is far inside it; a
# config above it is refused before anything is allocated, where numpy would
# otherwise fail the allocation mid-run.
GRID_BUDGET = 10**6

# arrays sized by a product of parameters: the (N, nx) costate history and
# the dense nx x nx Laplacian of the diffusion demo
_GRID_PRODUCTS = {
    "diffusion_adjoint": lambda p: {"nx*N": p["nx"] * p["N"], "nx*nx": p["nx"] * p["nx"]},
}


def check_grid_budget(name, params):
    """Raise :class:`~hamflow.core.ConfigError` if a grid of experiment
    ``name`` at ``params`` exceeds :data:`GRID_BUDGET`."""
    _, schema = EXPERIMENTS[name]
    sizes = {key: params[key] for key, (caster, _) in schema.items() if caster is int}
    sizes.update(_GRID_PRODUCTS.get(name, lambda p: {})(params))
    for key, size in sizes.items():
        if size > GRID_BUDGET:
            raise ConfigError(f"{key} = {size} exceeds the grid budget of {GRID_BUDGET}")
