import math

import numpy as np
import pytest

from hamflow import dual
from hamflow.core import HamflowError, HamiltonianProblem, fd_gradient, fd_hessian


def f_poly(x):
    return x[0] ** 3 + 2.0 * x[0] * x[1] - x[1] ** 2


def f_trig(x):
    return np.sin(x[0]) * np.cos(x[1]) + np.exp(0.3 * x[0])


def f_mixed(x):
    return np.sqrt(1.0 + x[0] ** 2) * np.tanh(x[1]) + np.log(2.0 + x[0])


@pytest.mark.parametrize("f", [f_poly, f_trig, f_mixed])
def test_gradient_matches_finite_differences(f):
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 2)
        got = dual.gradient(f, x)
        ref = fd_gradient(f, x)
        assert np.max(np.abs(got - ref)) < 1e-8 * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("f", [f_poly, f_trig, f_mixed])
def test_hessian_matches_finite_differences(f):
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, 2)
        got = dual.hessian(f, x)
        ref = fd_hessian(f, x)
        assert np.max(np.abs(got - ref)) < 1e-6 * (1.0 + np.max(np.abs(ref)))
        assert np.allclose(got, got.T, atol=1e-14)


def test_hessian_exact_on_quadratic():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = lambda x: 0.5 * np.dot(x, A @ x)
    got = dual.hessian(f, np.array([0.3, -0.7]))
    assert np.allclose(got, A, atol=1e-14)


def test_scalar_derivative():
    g = lambda t: t ** 2.5 * np.exp(-t)
    t = 0.8
    exact = (2.5 * t ** 1.5 - t ** 2.5) * math.exp(-t)
    assert abs(dual.derivative(g, t) - exact) < 1e-13


def test_jacobian():
    F = lambda x: [x[0] * x[1], np.sin(x[0]) + x[1] ** 3]
    x = np.array([0.4, -0.6])
    J = dual.jacobian(F, x)
    exact = np.array([[x[1], x[0]], [math.cos(x[0]), 3 * x[1] ** 2]])
    assert np.allclose(J, exact, atol=1e-14)


def _seed(x, second=False):
    """The input jet that a one-input pass seeds at ``x``: gradient part [1],
    and in a second-order (``dual.hessian``) pass a zero Hessian part."""
    seeded = []

    def capture(xs):
        seeded.append(xs[0])
        return 0.0

    (dual.hessian if second else dual.gradient)(capture, [x])
    return seeded[0]


def test_division_and_power():
    x = _seed(2.0)
    y = (1.0 / x) * x
    assert abs(y.val - 1.0) < 1e-15 and abs(y.g[0]) < 1e-15
    z = x ** 3
    assert z.val == 8.0 and z.g[0] == 12.0
    w = 2.0 ** _seed(3.0)
    assert abs(w.val - 8.0) < 1e-12 and abs(w.g[0] - 8.0 * math.log(2.0)) < 1e-12


def test_dual_power_and_reflected_subtraction_match_closed_forms():
    # Dual ** Dual and float - Dual inside a gradient pass
    x = np.array([1.5, 2.5])
    got = dual.gradient(lambda v: v[0] ** v[1], x)
    exact = [x[1] * x[0] ** (x[1] - 1.0), x[0] ** x[1] * math.log(x[0])]
    assert np.allclose(got, exact, rtol=1e-14, atol=0.0)
    got = dual.gradient(lambda v: 2.0 - v[0] * v[1], x)
    assert np.array_equal(got, [-x[1], -x[0]])


def test_comparisons_and_abs():
    a = _seed(-1.5)
    assert a < 0 and abs(a).val == 1.5 and abs(a).g[0] == -1.0
    assert dual.value(a) == -1.5
    assert dual.value(3.0) == 3.0


def test_mixed_second_derivative_seeding():
    f = lambda x: x[0] ** 2 * x[1]
    h = dual.hessian(f, np.array([1.5, 2.0]))
    assert abs(h[0, 1] - 3.0) < 1e-14  # d2f/dxdy = 2x
    assert abs(h[0, 0] - 4.0) < 1e-14  # d2f/dx2 = 2y


def test_float_of_dual_with_derivative_parts_raises():
    # float() would return .val and drop the derivative parts without a word
    with pytest.raises(HamflowError, match="float"):
        float(_seed(1.5))
    assert float(0.0 * _seed(1.5) + 1.5) == 1.5        # zero derivative parts
    prob = HamiltonianProblem(
        dim=2, H=lambda t, q, p: 0.5 * float(p @ p) + 0.5 * np.dot(q, q), derivative_mode="dual")
    with pytest.raises(HamflowError, match="float"):
        prob.d_p(0.0, np.zeros(2), np.array([1.0, 2.0]))


def test_equality_compares_values():
    # == and != branch on the value, as <, <=, > and >= do
    x = _seed(0.0)
    assert x == 0.0 and not (x != 0.0) and 0 == x
    assert x != 1.0 and x == 3.0 * _seed(0.0) and x != _seed(1.0)
    # a removable singularity guarded by == takes the same branch in dual and fd mode
    H = lambda t, q, p: 0.5 * p[0] ** 2 + (1.0 if q[0] == 0.0 else np.sin(q[0]) / q[0])
    q, p = np.zeros(1), np.array([0.3])
    got = HamiltonianProblem(1, H, derivative_mode="dual").d_q(0.0, q, p)
    ref = HamiltonianProblem(1, H, derivative_mode="fd").d_q(0.0, q, p)
    assert got[0] == 0.0 and abs(ref[0]) < 1e-8


# method, f, f', f'' and points inside the domain
ELEMENTARY = [
    ("sin", math.sin, math.cos, lambda x: -math.sin(x), (-1.2, 0.3, 2.0)),
    ("cos", math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x), (-1.2, 0.3, 2.0)),
    ("tan", math.tan, lambda x: 1.0 / math.cos(x) ** 2,
     lambda x: 2.0 * math.tan(x) / math.cos(x) ** 2, (-1.2, 0.3, 1.0)),
    ("exp", math.exp, math.exp, math.exp, (-1.2, 0.3, 2.0)),
    ("log", math.log, lambda x: 1.0 / x, lambda x: -1.0 / x**2, (0.2, 1.0, 3.5)),
    ("sqrt", math.sqrt, lambda x: 0.5 / math.sqrt(x), lambda x: -0.25 * x**-1.5,
     (0.2, 1.0, 3.5)),
    ("sinh", math.sinh, math.cosh, math.sinh, (-1.2, 0.3, 2.0)),
    ("cosh", math.cosh, math.sinh, math.cosh, (-1.2, 0.3, 2.0)),
    ("tanh", math.tanh, lambda x: 1.0 / math.cosh(x) ** 2,
     lambda x: -2.0 * math.tanh(x) / math.cosh(x) ** 2, (-1.2, 0.3, 2.0)),
    ("arctan", math.atan, lambda x: 1.0 / (1.0 + x * x),
     lambda x: -2.0 * x / (1.0 + x * x) ** 2, (-1.2, 0.3, 2.0)),
]


@pytest.mark.parametrize("name, f, f1, f2, points", ELEMENTARY,
                         ids=[row[0] for row in ELEMENTARY])
def test_elementary_methods_match_closed_forms(name, f, f1, f2, points):
    for x in points:
        y = getattr(_seed(x, second=True), name)()
        for got, exact in ((y.val, f(x)), (y.g[0], f1(x)), (y.h[0, 0], f2(x))):
            assert abs(got - exact) <= 1e-14 * (1.0 + abs(exact))


def test_dual_has_no_public_constructor():
    # only the passes build jets; a constant in a differentiated map is a float
    with pytest.raises(TypeError):
        dual.Dual(1.0)


def test_float_constants_work_in_passes_of_any_width():
    f = lambda x: x[0] * x[1] + 1.0
    assert np.array_equal(dual.gradient(f, [1.0, 2.0, 3.0]), [2.0, 1.0, 0.0])
    assert np.array_equal(dual.hessian(f, [1.0, 2.0, 3.0]),
                          [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert dual.derivative(lambda t: 3.0 * t + 1.0, 0.5) == 3.0
