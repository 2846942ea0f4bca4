"""Vector-seeded forward-mode jets: value, gradient and Hessian in one pass."""

from __future__ import annotations

import functools
import math

import numpy as np

_NUMERIC = (int, float, np.integer, np.floating)
_eye = functools.lru_cache(maxsize=None)(np.eye)     # read-only use: seeds share rows


def _jet(val, g, h):
    out = object.__new__(Dual)
    out.val, out.g, out.h = val, g, h
    return out


def _elementary(f, f1, f2):
    def method(self):
        v = self.val
        return self._chain(f(v), f1(v), f2(v))

    return method


class Dual:
    """A jet: value ``val``, gradient part ``g`` (k,) and Hessian part ``h``
    (k, k), ``None`` in a first-order pass or the scalar 0.0 while zero.
    Seeding input i with ``g = e_i`` makes ``f``'s output carry f's gradient
    and Hessian (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 3
    and 13).  Parts are never written in place, so jets share them.

    Only the passes of :func:`gradient`, :func:`hessian`, :func:`jacobian`
    and :func:`derivative` build jets: the class has no public constructor
    (``Dual(1.0)`` raises ``TypeError``), and a constant inside a
    differentiated map is a plain float.  In numpy object arrays ``np.dot``
    and ufuncs like ``np.sin`` dispatch to it.
    """

    __slots__ = ("val", "g", "h")

    def __repr__(self):
        return f"Dual({self.val}, g={self.g!r}, h={self.h!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            h = None if self.h is None else self.h + other.h
            return _jet(self.val + other.val, self.g + other.g, h)
        if isinstance(other, _NUMERIC):
            return _jet(self.val + float(other), self.g, self.h)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _jet(-self.val, -self.g, None if self.h is None else -self.h)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Dual) else -float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, other):
        if isinstance(other, Dual):
            a, b = self.val, other.val
            h = None
            if self.h is not None:
                cross = self.g[:, None] * other.g
                h = other.h * a + self.h * b + (cross + cross.T)
            return _jet(a * b, other.g * a + self.g * b, h)
        if isinstance(other, _NUMERIC):
            c = float(other)
            return _jet(c * self.val, self.g * c, None if self.h is None else self.h * c)
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
        g = self.g
        h = None if self.h is None else self.h * f1 + (g[:, None] * g) * f2
        return _jet(f0, g * f1, h)

    # -- elementary functions, numpy ufunc dispatch targets: (f, f', f'') ----

    sin = _elementary(math.sin, math.cos, lambda v: -math.sin(v))
    cos = _elementary(math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v))
    tan = _elementary(math.tan, lambda v: 1.0 + math.tan(v) * math.tan(v),
                      lambda v: 2.0 * math.tan(v) * (1.0 + math.tan(v) * math.tan(v)))
    exp = _elementary(math.exp, math.exp, math.exp)
    log = _elementary(math.log, lambda v: 1.0 / v, lambda v: -1.0 / v**2)
    sqrt = _elementary(math.sqrt, lambda v: 0.5 / math.sqrt(v), lambda v: -0.25 / math.sqrt(v) ** 3)
    sinh = _elementary(math.sinh, math.cosh, math.sinh)
    cosh = _elementary(math.cosh, math.sinh, math.cosh)
    tanh = _elementary(math.tanh, lambda v: 1.0 - math.tanh(v) * math.tanh(v),
                       lambda v: -2.0 * math.tanh(v) * (1.0 - math.tanh(v) * math.tanh(v)))
    arctan = _elementary(math.atan, lambda v: 1.0 / (1.0 + v * v),
                         lambda v: -2.0 * v / (1.0 + v * v) ** 2)

    def __abs__(self):
        return self if self.val >= 0.0 else -self

    # -- comparisons branch on the value (so != does, and a Dual is unhashable)

    def _other_val(self, other):
        return other.val if isinstance(other, Dual) else float(other)

    __lt__ = lambda self, other: self.val < self._other_val(other)
    __le__ = lambda self, other: self.val <= self._other_val(other)
    __gt__ = lambda self, other: self.val > self._other_val(other)
    __ge__ = lambda self, other: self.val >= self._other_val(other)

    def __eq__(self, other):
        if not isinstance(other, (Dual,) + _NUMERIC):
            return NotImplemented
        return self.val == self._other_val(other)

    def __float__(self):
        if self.g.any() or np.any(self.h):
            from .core import HamflowError  # core imports this module

            raise HamflowError(f"float() of {self!r} would drop its derivative parts; "
                               "keep Dual values out of float() in a differentiated map")
        return self.val


def value(x):
    """Strip the derivative parts from a Dual (identity on plain numbers)."""
    return x.val if isinstance(x, Dual) else float(x)


def _pass(f, x, second):
    """``f`` at the 1-d float array ``x`` with every entry seeded: ``(y, k)``."""
    x = np.asarray(x, dtype=float)
    k = x.size
    eye = _eye(k)
    h = 0.0 if second else None
    seeded = np.empty(k, dtype=object)
    for i, xi in enumerate(x.tolist()):
        seeded[i] = _jet(xi, eye[i], h)
    return f(seeded), k


def _grad_part(y, k):
    return np.zeros(k) + (y.g if isinstance(y, Dual) else 0.0)


def gradient(f, x):
    """Gradient of scalar ``f`` at ``x`` (1-d float array), one first-order pass."""
    return _grad_part(*_pass(f, x, False))


def hessian(f, x):
    """Dense, exactly symmetric Hessian of scalar ``f`` at ``x``, one second-order pass."""
    y, k = _pass(f, x, True)
    return np.zeros((k, k)) + (y.h if isinstance(y, Dual) else 0.0)


def jacobian(f, x):
    """Jacobian of vector-valued ``f`` at ``x``, one first-order pass."""
    y, k = _pass(f, x, False)
    return np.array([_grad_part(yi, k) for yi in y], dtype=float).reshape(len(y), k)


def derivative(f, t):
    """d/dt of scalar ``f`` at scalar ``t``, one first-order pass with k = 1."""
    return float(_grad_part(*_pass(lambda ts: f(ts[0]), [t], False))[0])
