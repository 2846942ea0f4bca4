"""Property tests of the forward-mode jet against central differences."""

import hypothesis
import hypothesis.strategies as st
import numpy as np

from hamflow import dual
from hamflow.core import fd_gradient, fd_hessian

# unary factors of the random functions: polynomial and trigonometric
UNARY = (
    lambda v: v,
    lambda v: v * v,
    lambda v: v**3,
    np.sin,
    np.cos,
    lambda v: np.exp(0.5 * v),
    lambda v: 1.0 / (2.0 + np.cos(v)),
)


@st.composite
def _functions(draw):
    """A scalar f on 1-6 inputs: a sum of 1-4 terms, each a coefficient
    times a product of 1-3 unary factors of the inputs."""
    k = draw(st.integers(1, 6))
    factor = st.tuples(st.integers(0, k - 1), st.integers(0, len(UNARY) - 1))
    coef = st.floats(-2.0, 2.0, allow_nan=False)
    terms = draw(st.lists(st.tuples(coef, st.lists(factor, min_size=1, max_size=3)),
                          min_size=1, max_size=4))
    x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)))

    def f(z):
        total = 0.0
        for c, factors in terms:
            prod = c
            for i, op in factors:
                prod = prod * UNARY[op](z[i])
            total = total + prod
        return total

    return f, x


_SETTINGS = dict(max_examples=60, derandomize=True, deadline=None, database=None)


@hypothesis.seed(20261019)
@hypothesis.settings(**_SETTINGS)
@hypothesis.given(_functions())
def test_jet_gradient_and_hessian_match_central_differences(case):
    f, x = case
    g, ref_g = dual.gradient(f, x), fd_gradient(f, x)
    assert g.shape == x.shape
    assert np.max(np.abs(g - ref_g)) < 1e-8 * (1.0 + np.max(np.abs(ref_g)))
    h, ref_h = dual.hessian(f, x), fd_hessian(f, x)
    assert h.shape == (x.size, x.size) and np.array_equal(h, h.T)
    assert np.max(np.abs(h - ref_h)) < 1e-6 * (1.0 + np.max(np.abs(ref_h)))
