"""Correctness oracles that do not use hamflow: closed forms, DOP853, expm.

``check(params, summary)`` returns ``(err, tol)``; an op passes when ``err``
is finite and at most ``tol``.  Tolerances are ``C * h**order * scale`` with
``h = T / N`` of the op and a fixed constant ``C`` per family (``_TOL``), so a
later commit is held to the same bound.  The orders are those of the schemes
as they stand: implicit midpoint is order 2, Gauss-2 order 4, and the RK4
sweep and FBSM interpolate grid values linearly at stage times, which caps
them at order 2.  Each ``C`` is about ten times the worst error constant seen
over many seeds, which still leaves wrong answers (errors of order one)
several orders of magnitude above the bound.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

_RTOL = 1e-12
_ATOL = 1e-12
_FD_STEP = 1e-4
_DATA_TOL = 1e-12   # initial data handed back by a shooting solve

# family -> (order, C)
_TOL = {
    "osc": (2, 5.0),
    "pendulum_bvp": (2, 0.3),
    "hamel_bvp": (2, 2e-4),
    "battery0": (2, 0.1),
    "battery1": (2, 0.5),
    "diffusion": (2, 1e-3),
    "lqr": (2, 0.3),
    "central_force": (4, 0.5),
    "pendulum": (4, 0.02),
    "chain": (4, 2.0),
    "hamel_ivp": (2, 0.1),
    "bregman": (2, 0.3),
}


def _flow(rhs, z0, t0, t1):
    sol = solve_ivp(rhs, (t0, t1), np.asarray(z0, dtype=float), method="DOP853",
                    rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def _tol(params, scale):
    order, const = _TOL[params["family"]]
    h = params["h"] if "h" in params else params["T"] / params["N"]
    return const * h**order * (1.0 + scale)


def _maxabs(x):
    return float(np.max(np.abs(x)))


# ---------------------------------------------------------------------------
# shooting

def _oscillator(params, s):
    """Closed-form two-point solution of q'' = -omega^2 q, per component."""
    w, T, a, b = params["omega"], params["T"], params["a"], params["b"]
    c, sn = np.cos(w * T), np.sin(w * T)
    kind = params["type"]
    if kind == "type_i":          # q(0) = a, q(T) = b
        q0, p0 = a, w * (b - a * c) / sn
    elif kind == "type_ii":       # q(0) = a, p(T) = b
        q0, p0 = a, (b + w * a * sn) / c
    elif kind == "type_iii":      # p(0) = a, q(T) = b
        q0, p0 = (b - a * sn / w) / c, a
    else:                         # p(0) = a, p(T) = b
        q0, p0 = (a * c - b) / (w * sn), a
    q1 = q0 * c + p0 * sn / w
    p1 = -w * q0 * sn + p0 * c
    ref = np.concatenate([q0, p0, q1, p1])
    got = np.concatenate([s["z0"], s["z1"]])
    return _maxabs(got - ref), _maxabs(ref)


def _pendulum_rhs(t, z):
    # H = p^2/2 + cos q
    return np.array([z[1], np.sin(z[0])])


def _pendulum_bvp(params, s):
    z0 = s["z0"]
    data_err = abs(z0[0] - params["q0"][0])
    zT = _flow(_pendulum_rhs, z0, 0.0, params["T"])
    err = abs(zT[1] - params["p1"][0])
    return (err if data_err <= _DATA_TOL else np.inf), _maxabs(zT)


def _euler_rhs(inertia):
    def rhs(t, mu):
        return np.cross(mu, mu / inertia)
    return rhs


def _hamel_bvp(params, s):
    q0, mu0 = s["z0"][:3], s["z0"][3:]
    data_err = _maxabs(q0 - params["q0"])
    muT = _flow(_euler_rhs(params["inertia"]), mu0, 0.0, params["T"])
    err = _maxabs(muT - params["mu1"])
    return (err if data_err <= _DATA_TOL else np.inf), _maxabs(muT)


# ---------------------------------------------------------------------------
# sweeps

def _battery_rhs(case):
    # augmented state (q, running cost)
    if case == 0:
        return lambda t, x: np.array([np.sin(x[0]), x[0] ** 2])
    return lambda t, x: np.array([x[1], -np.sin(x[0]), 0.5 * (x[0] ** 2 + x[1] ** 2)])


def _battery_terminal(case, q):
    return q[0] ** 2 if case == 0 else np.cos(q[0]) + q[1] ** 2


def _battery(case):
    rhs = _battery_rhs(case)

    def cost(q0, T):
        x = _flow(rhs, np.append(q0, 0.0), 0.0, T)
        return _battery_terminal(case, x[:-1]) + x[-1]

    def check(params, s):
        q0, T = params["q0"], params["T"]
        ref = np.empty(q0.size)
        for i in range(q0.size):
            e = np.zeros(q0.size)
            e[i] = _FD_STEP * (1.0 + abs(q0[i]))
            ref[i] = (cost(q0 + e, T) - cost(q0 - e, T)) / (2.0 * e[i])
        return _maxabs(s["grad"] - ref), _maxabs(ref)

    return check


def _diffusion(params, s):
    """Gradient of |q(T)|^2 / 2 for q' = A q: exp(A^T T) exp(A T) q0."""
    nx, T = params["nx"], params["T"]
    dx = 1.0 / (nx + 1)
    A = (np.diag(-2.0 * np.ones(nx)) + np.diag(np.ones(nx - 1), 1)
         + np.diag(np.ones(nx - 1), -1)) / dx**2
    ref = expm(A.T * T) @ (expm(A * T) @ params["q0"])
    # relative error: the gradient decays like exp(-2 pi^2 T)
    return _maxabs(s["grad"] - ref) / _maxabs(ref), 0.0


def _lqr(params, s):
    """Riccati reference: P' = P^2 - 1, P(T) = 0; q' = -P q; p = P q; u = -p."""
    T, q0, times = params["T"], params["q0"], s["times"]
    riccati = solve_ivp(lambda t, P: P * P - 1.0, (T, 0.0), [0.0], method="DOP853",
                        rtol=_RTOL, atol=_ATOL, dense_output=True)
    P = lambda t: riccati.sol(t)[0]
    state = solve_ivp(lambda t, q: -P(t) * q, (0.0, T), [q0], method="DOP853",
                      rtol=_RTOL, atol=_ATOL, dense_output=True)
    if not (riccati.success and state.success):
        raise RuntimeError("Riccati reference integration failed")
    q = state.sol(times)[0]
    p = riccati.sol(times)[0] * q
    err = max(_maxabs(s["q"] - q), _maxabs(s["p"] - p), _maxabs(s["u"] + p))
    return err, abs(q0)


# ---------------------------------------------------------------------------
# marches

def _endpoint(rhs_of):
    def check(params, s):
        rhs = rhs_of(params)
        if _maxabs(s["z0"] - params["z0"]) > 0.0:
            return np.inf, 0.0
        ref = _flow(rhs, params["z0"], 0.0, params["T"])
        return _maxabs(s["z1"] - ref), _maxabs(ref)
    return check


def _central_rhs(params, a=0.5, b=0.125):
    def rhs(t, z):
        q, p = z[:2], z[2:]
        return np.concatenate([p, -(2.0 * a + 4.0 * b * np.dot(q, q)) * q])
    return rhs


def _chain_rhs(params):
    k = params["springs"]
    K = np.diag(k[:-1] + k[1:]) - np.diag(k[1:-1], 1) - np.diag(k[1:-1], -1)
    n = K.shape[0]
    return lambda t, z: np.concatenate([z[n:], -K @ z[:n]])


def _hat(w):
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def _hamel_ivp(params, s):
    """Rotation matrix R' = R hat(mu / I) and Euler's equations, chart-free."""
    inertia = params["inertia"]

    def rhs(t, x):
        R, mu = x[:9].reshape(3, 3), x[9:]
        omega = mu / inertia
        return np.concatenate([(R @ _hat(omega)).ravel(), np.cross(mu, omega)])

    z0 = s["z0"]
    if _maxabs(z0 - np.concatenate([params["q0"], params["mu0"]])) > 0.0:
        return np.inf, 0.0
    x0 = np.concatenate([expm(_hat(params["q0"])).ravel(), params["mu0"]])
    x1 = _flow(rhs, x0, 0.0, params["T"])
    R_got = expm(_hat(s["z1"][:3]))
    err = max(_maxabs(R_got.ravel() - x1[:9]), _maxabs(s["z1"][3:] - x1[9:]))
    return err, _maxabs(x1[9:])


def _bregman(params, s):
    """Physical-time flow of H = (p/2) t^(-p-1) |r|^2 + C p t^(2p-1) f(x)."""
    p, C, t0, target = params["p"], params["C"], params["t0"], params["target"]
    n = target.size
    t1 = float(s["t1"][0])
    expected_t1 = t0 + params["N"] * params["h"]   # dt/dtau = 1 when p = p_ring

    def rhs(t, z):
        x, r = z[:n], z[n:]
        return np.concatenate([p * t ** (-p - 1.0) * r,
                               -C * p * t ** (2.0 * p - 1.0) * (x - target)])

    ref = _flow(rhs, np.concatenate([params["x0"], np.zeros(n)]), t0, t1)
    err = max(_maxabs(s["x1"] - ref[:n]), abs(t1 - expected_t1))
    return err, _maxabs(params["x0"] - target)


_CHECKS = {
    "osc": _oscillator,
    "pendulum_bvp": _pendulum_bvp,
    "hamel_bvp": _hamel_bvp,
    "battery0": _battery(0),
    "battery1": _battery(1),
    "diffusion": _diffusion,
    "lqr": _lqr,
    "central_force": _endpoint(_central_rhs),
    "pendulum": _endpoint(lambda params: _pendulum_rhs),
    "chain": _endpoint(_chain_rhs),
    "hamel_ivp": _hamel_ivp,
    "bregman": _bregman,
}


def check(params, summary):
    """``(err, tol)`` for one op's summary against its independent reference."""
    err, scale = _CHECKS[params["family"]](params, summary)
    return float(err), _tol(params, scale)
