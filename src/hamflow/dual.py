"""Second-order dual numbers for forward-mode differentiation."""

from __future__ import annotations

import math

import numpy as np

_NUMERIC = (int, float, np.integer, np.floating)


class Dual:
    """Truncated polynomial ``a + b e1 + c e2 + d e1 e2`` with ``e1^2 = e2^2 = 0``.

    Seeding ``d1`` on one input extracts a first derivative; seeding ``d1``
    and ``d2`` on two (possibly equal) inputs makes ``d12`` the mixed second
    derivative.  Works inside numpy object arrays, so ``np.dot``, ``np.sum``
    and ufuncs like ``np.sin`` dispatch to the methods below.
    """

    __slots__ = ("val", "d1", "d2", "d12")

    def __init__(self, val, d1=0.0, d2=0.0, d12=0.0):
        self.val = float(val)
        self.d1 = float(d1)
        self.d2 = float(d2)
        self.d12 = float(d12)

    def __repr__(self):
        return f"Dual({self.val}, {self.d1}, {self.d2}, {self.d12})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.d1 + other.d1,
                        self.d2 + other.d2, self.d12 + other.d12)
        if isinstance(other, _NUMERIC):
            return Dual(self.val + other, self.d1, self.d2, self.d12)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.d1, -self.d2, -self.d12)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Dual) else -float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.val * other.val,
                self.val * other.d1 + self.d1 * other.val,
                self.val * other.d2 + self.d2 * other.val,
                self.val * other.d12 + self.d1 * other.d2
                + self.d2 * other.d1 + self.d12 * other.val,
            )
        if isinstance(other, _NUMERIC):
            c = float(other)
            return Dual(c * self.val, c * self.d1, c * self.d2, c * self.d12)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return self * other._reciprocal()
        if isinstance(other, _NUMERIC):
            return self * (1.0 / float(other))
        return NotImplemented

    def __rtruediv__(self, other):
        return self._reciprocal() * float(other)

    def _reciprocal(self):
        v = self.val
        return self._chain(1.0 / v, -1.0 / v**2, 2.0 / v**3)

    def __pow__(self, e):
        if isinstance(e, _NUMERIC):
            e = float(e)
            v = self.val
            if e == 2.0:
                return self._chain(v * v, 2.0 * v, 2.0)
            return self._chain(v**e, e * v ** (e - 1.0), e * (e - 1.0) * v ** (e - 2.0))
        if isinstance(e, Dual):
            return (e * self.log()).exp()
        return NotImplemented

    def __rpow__(self, base):
        return (self * math.log(float(base))).exp()

    def _chain(self, f0, f1, f2):
        # f(self) for scalar f with f(val)=f0, f'(val)=f1, f''(val)=f2
        return Dual(f0, f1 * self.d1, f1 * self.d2,
                    f1 * self.d12 + f2 * self.d1 * self.d2)

    # -- elementary functions (numpy ufunc dispatch targets) ---------------

    def sin(self):
        s, c = math.sin(self.val), math.cos(self.val)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = math.sin(self.val), math.cos(self.val)
        return self._chain(c, -s, -c)

    def tan(self):
        t = math.tan(self.val)
        return self._chain(t, 1.0 + t * t, 2.0 * t * (1.0 + t * t))

    def exp(self):
        e = math.exp(self.val)
        return self._chain(e, e, e)

    def log(self):
        v = self.val
        return self._chain(math.log(v), 1.0 / v, -1.0 / v**2)

    def sqrt(self):
        r = math.sqrt(self.val)
        return self._chain(r, 0.5 / r, -0.25 / r**3)

    def sinh(self):
        s, c = math.sinh(self.val), math.cosh(self.val)
        return self._chain(s, c, s)

    def cosh(self):
        s, c = math.sinh(self.val), math.cosh(self.val)
        return self._chain(c, s, c)

    def tanh(self):
        t = math.tanh(self.val)
        return self._chain(t, 1.0 - t * t, -2.0 * t * (1.0 - t * t))

    def arctan(self):
        v = self.val
        d = 1.0 + v * v
        return self._chain(math.atan(v), 1.0 / d, -2.0 * v / d**2)

    def __abs__(self):
        return self if self.val >= 0.0 else -self

    # -- comparisons branch on the value (so != does, and a Dual is unhashable)

    def _other_val(self, other):
        return other.val if isinstance(other, Dual) else float(other)

    def __lt__(self, other):
        return self.val < self._other_val(other)

    def __le__(self, other):
        return self.val <= self._other_val(other)

    def __gt__(self, other):
        return self.val > self._other_val(other)

    def __ge__(self, other):
        return self.val >= self._other_val(other)

    def __eq__(self, other):
        if not isinstance(other, (Dual,) + _NUMERIC):
            return NotImplemented
        return self.val == self._other_val(other)

    def __float__(self):
        if self.d1 or self.d2 or self.d12:
            from .core import HamflowError  # core imports this module

            raise HamflowError(f"float() of {self!r} would drop its derivative parts; "
                               "keep Dual values out of float() in a differentiated map")
        return self.val


def value(x):
    """Strip the derivative parts from a Dual (identity on plain numbers)."""
    return x.val if isinstance(x, Dual) else float(x)


def _d1(y):
    return y.d1 if isinstance(y, Dual) else 0.0


def _d12(y):
    return y.d12 if isinstance(y, Dual) else 0.0


def _seeded(x, i=None, j=None):
    out = np.empty(len(x), dtype=object)
    for k, xk in enumerate(x):
        out[k] = Dual(xk, d1=1.0 if k == i else 0.0, d2=1.0 if k == j else 0.0)
    return out


def gradient(f, x):
    """Gradient of scalar ``f`` at ``x`` (1-d float array), one seed per entry."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.size)
    for i in range(x.size):
        g[i] = _d1(f(_seeded(x, i=i)))
    return g


def hessian(f, x):
    """Dense Hessian of scalar ``f`` at ``x`` from pairwise seeds."""
    x = np.asarray(x, dtype=float)
    n = x.size
    h = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            hij = _d12(f(_seeded(x, i=i, j=j)))
            h[i, j] = hij
            h[j, i] = hij
    return h


def jacobian(f, x):
    """Jacobian of vector-valued ``f`` at ``x``, column by column."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        y = f(_seeded(x, i=j))
        cols.append([_d1(yk) for yk in y])
    return np.array(cols, dtype=float).T


def derivative(f, t):
    """d/dt of scalar ``f`` at scalar ``t``."""
    return _d1(f(Dual(t, d1=1.0)))
