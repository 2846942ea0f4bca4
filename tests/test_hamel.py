import dataclasses
import math

import numpy as np
import pytest

from hamflow import bvp, core, dual, hamel, problems
from hamflow.bvp import BoundarySpec, solve_shooting
from hamflow.core import PhasePoint, fd_gradient, fd_jacobian
from hamflow.hamel import (
    TrivializedState,
    Trivialization,
    coadjoint,
    _hamel_flat_field,
    hamel_bracket,
    hamel_vector_field,
    identity_trivialization,
    integrate_hamel,
    rigid_body_canonical,
    rigid_body_reduced,
    scaled_trivialization,
    _so3_d_matrix,
    _so3_matrix,
    so3_left_trivialization,
    solve_hamel_type_ii,
    trivialized_hamiltonian,
)


def rodrigues(w):
    theta = np.linalg.norm(w)
    K = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
    if theta < 1e-12:
        return np.eye(3) + K
    return (np.eye(3) + math.sin(theta) / theta * K
            + (1 - math.cos(theta)) / theta**2 * (K @ K))


def so3_matrix_dual_check(w, component):
    """Forward-AD derivative of the trivialization matrix along w[component]."""

    def entrywise(ws):
        theta2 = ws[0] * ws[0] + ws[1] * ws[1] + ws[2] * ws[2]
        if dual.value(theta2) < 0.01:
            d2 = 1.0 / 12.0 + theta2 / 720.0 + theta2 * theta2 / 30240.0 \
                + theta2 * theta2 * theta2 / 1209600.0
        else:
            theta = np.sqrt(theta2)
            d2 = 1.0 / theta2 - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))
        wh = [[0.0, -ws[2], ws[1]], [ws[2], 0.0, -ws[0]], [-ws[1], ws[0], 0.0]]
        out = np.empty((3, 3), dtype=object)
        for a in range(3):
            for b in range(3):
                wh2_ab = ws[a] * ws[b] - (theta2 if a == b else 0.0)
                out[a, b] = (1.0 if a == b else 0.0) + 0.5 * wh[a][b] + d2 * wh2_ab
        return out

    jac = dual.jacobian(lambda ws: entrywise(ws).ravel(), np.asarray(w, dtype=float))
    return jac[:, component].reshape(3, 3)


# ---------------------------------------------------------------------------
# trivialization data

def test_round_trip_and_linearity():
    triv = so3_left_trivialization()
    triv.validate()
    doubled = Trivialization(3, _so3_matrix, lambda q: 2.0 * _so3_d_matrix(q))
    with pytest.raises(ValueError, match="d_matrix"):
        doubled.validate()
    rng = np.random.default_rng(1)
    for _ in range(10):
        q = rng.uniform(-1, 1, 3)
        xi, eta = rng.standard_normal(3), rng.standard_normal(3)
        a, b = rng.standard_normal(2)
        back = triv.phi_inv(q, triv.phi(q, xi))
        assert np.max(np.abs(back - xi)) < 1e-10
        lin = triv.phi(q, a * xi + b * eta) - a * triv.phi(q, xi) - b * triv.phi(q, eta)
        assert np.max(np.abs(lin)) < 1e-12


def test_so3_analytic_derivative_against_forward_ad():
    triv = so3_left_trivialization()
    rng = np.random.default_rng(2)
    for _ in range(10):
        q = rng.uniform(-1.5, 1.5, 3)
        dm = triv.dmat(q)
        for c in range(3):
            assert np.max(np.abs(dm[:, :, c] - so3_matrix_dual_check(q, c))) < 1e-12


def test_fd_gradient_of_so3_matrix_matches_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(10):
        q = rng.uniform(-1.5, 1.5, 3)
        assert np.max(np.abs(fd_gradient(_so3_matrix, q) - _so3_d_matrix(q))) < 1e-8
    # the difference-based frame derivative has the analytic one's layout
    fd_triv = Trivialization(3, _so3_matrix)
    assert np.max(np.abs(fd_triv.dmat(q) - _so3_d_matrix(q))) < 1e-8


def test_so3_chart_is_left_trivialization():
    # Phi maps body angular velocity to coordinate velocity: for the motion
    # R(t) = R0 exp(t hat(Omega)), coordinates w(t) satisfy dw/dt = Phi(w) Omega
    triv = so3_left_trivialization()
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = rng.uniform(-1.0, 1.0, 3)
        omega = rng.standard_normal(3)
        dw = triv.phi(w, omega)
        eps = 1e-7
        R_pred = rodrigues(w + eps * dw)
        R_flow = rodrigues(w) @ rodrigues(eps * omega)
        assert np.max(np.abs(R_pred - R_flow)) < 1e-12


def test_singular_trivialization_raises():
    bad = Trivialization(2, matrix=lambda q: np.array([[1.0, 0.0], [0.0, 0.0]]))
    from hamflow.core import EvaluationError

    with pytest.raises(EvaluationError):
        bad.phi_inv(np.zeros(2), np.ones(2))


def test_nearly_singular_trivialization_fails_its_round_trip():
    # the solve goes through, but with a condition number near 4e13 it does
    # not give xi back to 1e-10
    near = Trivialization(2, matrix=lambda q: np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]))
    with pytest.raises(ValueError, match="^phi_inv . phi is not the identity on the fiber$"):
        near.validate()


# ---------------------------------------------------------------------------
# trivialized Hamiltonians

def test_identity_trivialization_pullback_is_identity():
    osc = problems.harmonic_oscillator()
    h = trivialized_hamiltonian(osc, identity_trivialization(1))
    rng = np.random.default_rng(4)
    for _ in range(10):
        q, mu = rng.standard_normal(1), rng.standard_normal(1)
        assert abs(h.value(0.0, q, mu) - osc.value(0.0, q, mu)) < 1e-14


def test_scaled_trivialization_rescales_momentum():
    osc = problems.harmonic_oscillator()
    h = trivialized_hamiltonian(osc, scaled_trivialization(1, 2.0))
    rng = np.random.default_rng(5)
    for _ in range(10):
        q, mu = rng.standard_normal(1), rng.standard_normal(1)
        assert abs(h.value(0.0, q, mu) - osc.value(0.0, q, mu / 2.0)) < 1e-14


def test_rigid_body_pullback_independent_of_base_point():
    triv = so3_left_trivialization()
    canonical = rigid_body_canonical([1.0, 2.0, 3.0])
    reduced = rigid_body_reduced([1.0, 2.0, 3.0])
    h = trivialized_hamiltonian(canonical, triv)
    rng = np.random.default_rng(6)
    mu = np.array([0.4, -1.1, 0.7])
    vals = [h.value(0.0, rng.uniform(-1.2, 1.2, 3), mu) for _ in range(20)]
    assert np.max(np.abs(np.array(vals) - reduced.value(0.0, None, mu))) < 1e-10


# ---------------------------------------------------------------------------
# bracket and coadjoint

def test_bracket_vanishes_for_constant_frames():
    triv = scaled_trivialization(3, 1.7)
    rng = np.random.default_rng(7)
    u, v = rng.standard_normal(3), rng.standard_normal(3)
    assert np.max(np.abs(hamel_bracket(triv, rng.standard_normal(3), u, v))) == 0.0


def test_bracket_antisymmetry():
    triv = so3_left_trivialization()
    rng = np.random.default_rng(8)
    for _ in range(20):
        q = rng.uniform(-1, 1, 3)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        asym = hamel_bracket(triv, q, u, v) + hamel_bracket(triv, q, v, u)
        assert np.max(np.abs(asym)) < 1e-14


def test_bracket_matches_cross_product():
    triv = so3_left_trivialization()
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(-1.0, 1.0, 3)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        worst = max(worst, float(np.max(np.abs(
            hamel_bracket(triv, q, u, v) - np.cross(u, v)))))
    assert worst < 1e-8
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    got = hamel_bracket(triv, rng.uniform(-1, 1, 3), e1, e2)
    assert np.max(np.abs(got - [0.0, 0.0, 1.0])) < 1e-12


def test_coadjoint_constant_frame_vanishes():
    triv = identity_trivialization(3)
    assert np.max(np.abs(coadjoint(triv, np.zeros(3), np.ones(3), np.ones(3)))) == 0.0


def test_coadjoint_triple_product_and_duality():
    triv = so3_left_trivialization()
    rng = np.random.default_rng(10)
    for _ in range(20):
        q = rng.uniform(-1, 1, 3)
        omega = rng.standard_normal(3)
        pi = rng.standard_normal(3)
        ad = coadjoint(triv, q, omega, pi)
        for i in range(3):
            v = np.eye(3)[i]
            # duality definition round-trip
            assert abs(ad @ v - pi @ hamel_bracket(triv, q, omega, v)) < 1e-12
            # triple-product oracle
            assert abs(ad @ v - pi @ np.cross(omega, v)) < 1e-10


# ---------------------------------------------------------------------------
# vector field and solves

def test_identity_trivialization_field_reduces_to_canonical():
    pend = problems.pendulum()
    triv = identity_trivialization(1)
    h = trivialized_hamiltonian(pend, triv)
    rng = np.random.default_rng(11)
    from hamflow.core import hamiltonian_vector_field

    for _ in range(10):
        q, mu = rng.standard_normal(1), rng.standard_normal(1)
        dq, dmu = hamel_vector_field(h, triv, 0.0, TrivializedState(q, mu))
        dq_c, dp_c = hamiltonian_vector_field(pend, 0.0, PhasePoint(q, mu))
        assert np.max(np.abs(dq - dq_c)) < 1e-12
        assert np.max(np.abs(dmu - dp_c)) < 1e-12


def test_rigid_body_field_matches_cross_product_oracle():
    triv = so3_left_trivialization()
    inertia = np.array([1.0, 2.0, 3.0])
    reduced = rigid_body_reduced(inertia)
    state = TrivializedState([0.2, -0.1, 0.3], [1.0, 1.0, 1.0])
    dq, dmu = hamel_vector_field(reduced, triv, 0.0, state)
    omega = state.mu / inertia
    assert np.max(np.abs(dmu - np.cross(state.mu, omega))) < 1e-12
    assert np.max(np.abs(dmu - [-1.0 / 6.0, 2.0 / 3.0, -0.5])) < 1e-12
    assert np.max(np.abs(dq - triv.phi(state.q, omega))) < 1e-14


def test_field_evaluates_frame_and_derivative_once():
    calls = {"matrix": 0, "d_matrix": 0}

    def counting(name, fn):
        def wrapped(q):
            calls[name] += 1
            return fn(q)
        return wrapped

    triv = Trivialization(3, counting("matrix", _so3_matrix),
                          counting("d_matrix", _so3_d_matrix))
    hamel_vector_field(rigid_body_reduced([1.0, 2.0, 3.0]), triv, 0.0,
                       TrivializedState([0.2, -0.1, 0.3], [1.0, 1.0, 1.0]))
    assert calls == {"matrix": 1, "d_matrix": 1}


def test_pulled_back_field_evaluates_frame_three_times():
    # the field evaluates Phi and DPhi once; d_mu and d_q each evaluate Phi
    # once more, and d_q DPhi once more
    calls = {"matrix": 0, "d_matrix": 0}

    def counting(name, fn):
        def wrapped(q):
            calls[name] += 1
            return fn(q)
        return wrapped

    triv = Trivialization(3, counting("matrix", _so3_matrix),
                          counting("d_matrix", _so3_d_matrix))
    h = trivialized_hamiltonian(rigid_body_canonical([1.0, 2.0, 3.0]), triv)
    hamel_vector_field(h, triv, 0.0, TrivializedState([0.2, -0.1, 0.3], [1.0, 1.0, 1.0]))
    assert calls == {"matrix": 3, "d_matrix": 2}


@pytest.mark.parametrize("solve, message", [
    (lambda h, triv: solve_hamel_type_ii(h, triv, [0.1, 0.2], [0.1, 0.2, 0.3], 0.2, 5),
     "q0 has 2 entries but the problem has dim 3"),
    (lambda h, triv: solve_hamel_type_ii(h, triv, [0.1, 0.2, 0.3], [0.1, 0.2], 0.2, 5),
     "mu1 has 2 entries but the problem has dim 3"),
    (lambda h, triv: integrate_hamel(h, triv, TrivializedState([0.1, 0.2], [0.1, 0.2]),
                                     0.2, 5),
     "state0 has 2 entries but the problem has dim 3"),
    (lambda h, triv: solve_hamel_type_ii(h, triv, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3], 0.2, 5,
                                         guess=[0.1, 0.2]),
     "guess has 2 entries but the problem has dim 3"),
], ids=["shooting_q0", "shooting_mu1", "ivp", "shooting_guess"])
def test_hamel_boundary_data_must_match_chart_dim(solve, message):
    with pytest.raises(ValueError, match=message):
        solve(rigid_body_reduced([1.0, 2.0, 3.0]), so3_left_trivialization())


@pytest.mark.parametrize("solve", [
    lambda h, triv: integrate_hamel(h, triv, TrivializedState([0.1, 0.2], [0.3, -0.1]), 0.2, 5),
    lambda h, triv: solve_hamel_type_ii(h, triv, [0.1, 0.2], [0.3, -0.1], 0.2, 5),
], ids=["ivp", "shooting"])
def test_hamel_problem_must_match_chart_dim(solve):
    with pytest.raises(ValueError, match="problem and trivialization dimensions differ"):
        solve(rigid_body_reduced([1.0, 2.0, 3.0]), identity_trivialization(2))


@pytest.mark.parametrize("T", [float("nan"), 0.0, -1.0], ids=["nan", "zero", "negative"])
def test_hamel_march_rejects_a_bad_horizon_before_any_field_call(T):
    calls = []
    body = rigid_body_reduced([1.0, 2.0, 3.0])
    counted = dataclasses.replace(body, d_mu=lambda *a: calls.append(1) or body.d_mu(*a))
    with pytest.raises(ValueError, match="positive and finite"):
        integrate_hamel(counted, so3_left_trivialization(),
                        TrivializedState([0.1, 0.2, 0.3], [0.5, -0.4, 0.3]), T, 10)
    assert calls == []


def test_trivialized_state_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        TrivializedState([np.nan, 0.0, 0.0], [1.0, 1.0, 1.0])


def test_left_invariant_field_has_pure_coadjoint_momentum_rate():
    # d_q h = 0 kills the frame-force term, leaving dmu = ad*_xi mu
    triv = so3_left_trivialization()
    reduced = rigid_body_reduced([2.0, 1.0, 4.0])
    rng = np.random.default_rng(12)
    q, mu = rng.uniform(-1, 1, 3), rng.standard_normal(3)
    _, dmu = hamel_vector_field(reduced, triv, 0.0, TrivializedState(q, mu))
    xi = reduced.d_mu(0.0, q, mu)
    assert np.max(np.abs(dmu - coadjoint(triv, q, xi, mu))) == 0.0


def test_hamel_shooting_matches_canonical_shooting():
    osc = problems.harmonic_oscillator()
    triv = identity_trivialization(1)
    h = trivialized_hamiltonian(osc, triv)
    T = 0.9
    canonical = solve_shooting(osc, BoundarySpec.type_ii([1.0], [0.2]), T,
                               "midpoint", 300, tol=1e-12)
    trivialized = solve_hamel_type_ii(h, triv, [1.0], [0.2], T, 300, tol=1e-12)
    assert np.max(np.abs(trivialized.mus[0] - canonical.initial.p)) < 1e-9


def test_rigid_body_round_trip():
    triv = so3_left_trivialization()
    reduced = rigid_body_reduced([1.0, 2.0, 3.0])
    q0 = np.array([0.2, -0.1, 0.3])
    mu0 = np.array([1.0, 1.0, 1.0])
    ivp = integrate_hamel(reduced, triv, TrivializedState(q0, mu0), 1.0, 100,
                          tol=1e-12)
    back = solve_hamel_type_ii(reduced, triv, q0, ivp.mus[-1], 1.0, 100,
                               guess=ivp.mus[-1], tol=1e-12)
    assert np.max(np.abs(back.mus[0] - mu0)) < 1e-6
    assert ivp.metadata["stepper"] == back.metadata["stepper"] == "midpoint"


def test_single_step_consistency():
    triv = so3_left_trivialization()
    reduced = rigid_body_reduced([1.0, 2.0, 3.0])
    mu1 = np.array([0.5, -0.3, 0.8])
    h = 1e-3
    traj = solve_hamel_type_ii(reduced, triv, [0.1, 0.0, -0.2], mu1, h, 1,
                               tol=1e-12)
    assert np.max(np.abs(traj.mus[0] - mu1)) < 10.0 * h


def _rigid_body_instance(rng):
    # drawn as the benchmark's rigid-body Type II ops draw theirs
    inertia = np.sort(rng.uniform(1.0, 3.0, 3))
    q0, mu1 = rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.3, 0.3, 3)
    return rigid_body_reduced(inertia), q0, mu1, rng.uniform(0.1, 0.3)


def test_hamel_global_solve_matches_midpoint_shooting():
    # the global path solves the discrete equations a midpoint march does: the
    # march from its initial state, a shot at the solution, retraces it
    triv = so3_left_trivialization()
    rng = np.random.default_rng(24)
    for _ in range(10):
        reduced, q0, mu1, T = _rigid_body_instance(rng)
        traj = solve_hamel_type_ii(reduced, triv, q0, mu1, T, 25, tol=1e-12)
        march = integrate_hamel(reduced, triv, TrivializedState(q0, traj.mus[0]), T, 25,
                                tol=1e-12)
        assert np.max(np.abs(traj.states - march.states)) <= 1e-9


def test_differenced_global_jacobian_reuses_the_residual_values():
    # with no Jacobian the field is differenced about the midpoint values the
    # residual kept: 2n calls per step and factorization, not 2n + 1
    reduced, q0, mu1, T = _rigid_body_instance(np.random.default_rng(7))
    fld = _hamel_flat_field(reduced, so3_left_trivialization())
    calls = []

    def counting(t, x):
        calls.append(1)
        return fld(t, x)

    bc = BoundarySpec.type_ii(q0, mu1)
    _, xs, meta = bvp.solve_global(counting, None, 3, bc, T, 25, "midpoint", None, 1e-12)
    assert len(calls) == 25 * (meta["newton_iterations"] + 1 + 6 * meta["newton_matrices"])
    lam = lambda t, z: fd_jacobian(lambda y: fld(t, y), z)
    _, xs_lam, _ = bvp.solve_global(fld, lam, 3, bc, T, 25, "midpoint", None, 1e-12)
    assert xs.tobytes() == xs_lam.tobytes()


def test_hamel_type_ii_marches_nothing(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for module in (core, bvp, hamel):
        if hasattr(module, "integrate"):
            monkeypatch.setattr(module, "integrate", counting("integrate", module.integrate))
    traj = solve_hamel_type_ii(rigid_body_reduced([1.0, 2.0, 3.0]), so3_left_trivialization(),
                               [0.2, -0.1, 0.3], [0.5, -0.4, 0.3], 0.5, 50, tol=1e-12)
    assert calls == []
    meta = traj.metadata
    assert meta["solver"] == "hamel-global" and meta["newton_matrices"] == 1
    assert meta["newton_residual"] <= 1e-12 and meta["newton_iterations"] >= 2
    assert 1.0 <= meta["condition_estimate"] < 1e6


def test_casimir_and_energy_short_run():
    triv = so3_left_trivialization()
    reduced = rigid_body_reduced([1.0, 2.0, 3.0])
    state = TrivializedState([0.2, -0.1, 0.3], [1.0, 1.0, 1.0])
    run = integrate_hamel(reduced, triv, state, 1.0, 1000, tol=1e-13)
    mus = run.mus
    assert np.max(np.abs(np.sum(mus * mus, axis=1) - 3.0)) < 1e-10
    e0 = reduced.value(0.0, state.q, state.mu)
    drift = max(abs(reduced.value(0.0, q, mu) - e0) for q, mu in zip(run.qs, run.mus))
    assert drift < 1e-10


def test_hamel_trajectory_is_one_read_only_array():
    triv = so3_left_trivialization()
    reduced = rigid_body_reduced([1.0, 2.0, 3.0])
    run = integrate_hamel(reduced, triv, TrivializedState([0.2, -0.1, 0.3], [1.0, 1.0, 1.0]),
                          0.5, 20)
    assert run.states.shape == (21, 6)
    assert np.shares_memory(run.qs, run.states) and np.shares_memory(run.mus, run.states)
    with pytest.raises(ValueError):
        run.mus[0, 0] = 7.0
    assert np.array_equal(run.states[:, 3:], run.mus)
    assert np.array_equal(run.initial.q, run.qs[0])
    assert np.array_equal(run.final.p, run.mus[-1])
