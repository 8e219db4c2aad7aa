"""Nested truncated-Taylor (jet) scalars for exact first and second
directional derivatives.

A ``Jet`` carries a value, a gradient against a set of seeded directions
and (order 2 only) a symmetric matrix of second mixed derivatives.  The
coefficients of a jet may themselves be jets from an enclosing
differentiation context, which is what makes derivatives of composites
that already contain derivatives (Christoffel symbols, projectors,
dilation fields) exact to rounding.

Level bookkeeping follows the usual forward-mode trick: every seeding
context gets a fresh, monotonically increasing level; in a binary
operation the jet with the higher level treats the other operand as a
constant coefficient.

Values may also be float arrays over a leading point axis, seeded as
such, so one evaluation serves a batch of points.  The scalar functions
then raise the error of their float branch when any element raises it;
callers evaluating arrays switch NumPy's floating-point warnings off
(``np.errstate``) and check what the arithmetic operators leave
non-finite.  A float result too large to represent raises
``EvaluationError`` like any other non-finite value.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

_LEVELS = itertools.count(1)


class EvaluationError(ValueError):
    """Non-finite or out-of-domain value during scalar evaluation."""


class JetSpace:
    """A differentiation context: direction count and derivative order."""

    __slots__ = ("level", "ndirs", "order")

    def __init__(self, ndirs, order=2):
        if order not in (1, 2):
            raise ValueError("jet order must be 1 or 2")
        self.level = next(_LEVELS)
        self.ndirs = ndirs
        self.order = order

    def seed(self, values, directions):
        """Seed one jet per value; ``directions[d][i]`` is the i-th
        component of direction d."""
        if len(directions) != self.ndirs:
            raise ValueError("direction count does not match space")
        zero_hess = None
        if self.order == 2:
            zero_hess = tuple(tuple(0.0 for _ in range(self.ndirs))
                              for _ in range(self.ndirs))
        jets = []
        for i, v in enumerate(values):
            grad = tuple(d[i] for d in directions)
            jets.append(Jet(self, v, grad, zero_hess))
        return jets

    def constant(self, value):
        grad = tuple(0.0 for _ in range(self.ndirs))
        hess = None
        if self.order == 2:
            hess = tuple(tuple(0.0 for _ in range(self.ndirs))
                         for _ in range(self.ndirs))
        return Jet(self, value, grad, hess)


class Jet:
    __slots__ = ("space", "val", "grad", "hess")

    def __init__(self, space, val, grad, hess):
        self.space = space
        self.val = val
        self.grad = grad
        self.hess = hess

    # -- helpers -----------------------------------------------------

    def _as_const(self, other):
        return self.space.constant(other)

    def _pair(self, other):
        """Return (self, other) lifted to a common level."""
        if isinstance(other, Jet):
            if other.space is self.space:
                return self, other
            if other.space.level > self.space.level:
                return other._as_const(self), other
            return self, self._as_const(other)
        return self, self._as_const(other)

    def __repr__(self):
        return f"Jet(val={self.val!r}, grad={self.grad!r})"

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        hess = None
        if a.space.order == 2:
            hess = tuple(tuple(a.hess[i][j] + b.hess[i][j]
                               for j in range(a.space.ndirs))
                         for i in range(a.space.ndirs))
        return Jet(a.space, a.val + b.val,
                   tuple(x + y for x, y in zip(a.grad, b.grad)), hess)

    __radd__ = __add__

    def __neg__(self):
        hess = None
        if self.space.order == 2:
            hess = tuple(tuple(-x for x in row) for row in self.hess)
        return Jet(self.space, -self.val, tuple(-x for x in self.grad), hess)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -1.0 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        k = a.space.ndirs
        grad = tuple(a.val * b.grad[i] + b.val * a.grad[i] for i in range(k))
        hess = None
        if a.space.order == 2:
            hess = tuple(tuple(a.val * b.hess[i][j] + b.val * a.hess[i][j]
                               + a.grad[i] * b.grad[j] + a.grad[j] * b.grad[i]
                               for j in range(k))
                         for i in range(k))
        return Jet(a.space, a.val * b.val, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._pair(other)
        return a * _reciprocal(b)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __pow__(self, exponent):
        return spow(self, exponent)

    # -- chain rule ---------------------------------------------------

    def chain(self, f0, f1, f2=None):
        """Compose with a scalar function given f(v), f'(v) and, for
        order 2, f''(v); the derivative values may themselves be jets
        of a lower level."""
        k = self.space.ndirs
        grad = tuple(f1 * self.grad[i] for i in range(k))
        hess = None
        if self.space.order == 2:
            if f2 is None:
                raise ValueError("order-2 chain rule needs f''")
            hess = tuple(tuple(f1 * self.hess[i][j]
                               + f2 * self.grad[i] * self.grad[j]
                               for j in range(k))
                         for i in range(k))
        return Jet(self.space, f0, grad, hess)


def primal(x):
    """Strip all jet structure down to the underlying float, or float
    array for jets seeded with arrays."""
    while isinstance(x, Jet):
        x = x.val
    return x if isinstance(x, np.ndarray) else float(x)


def _check_finite(x, what):
    if isinstance(x, np.ndarray):
        if not np.isfinite(x).all():
            raise EvaluationError(f"non-finite value in {what}")
    elif not math.isfinite(x):
        raise EvaluationError(f"non-finite value in {what}")
    return x


def _reciprocal(x):
    if isinstance(x, Jet):
        f0 = _reciprocal(x.val)
        f1 = -(f0 * f0)
        f2 = None
        if x.space.order == 2:
            f2 = 2.0 * f0 * f0 * f0
        return x.chain(f0, f1, f2)
    if isinstance(x, np.ndarray):
        if (x == 0).any():
            raise EvaluationError("division by zero")
        return _check_finite(1.0 / x, "division")
    if x == 0:
        raise EvaluationError("division by zero")
    return _check_finite(1.0 / x, "division")


def sdiv(x, y):
    """x / y; with a float array operand it raises where float division
    raises, on a zero divisor."""
    if (isinstance(x, np.ndarray) or isinstance(y, np.ndarray)) and np.any(
            y == 0):
        raise EvaluationError("division by zero")
    return x / y


# -- scalar functions, generic over nesting depth ----------------------

def sexp(x):
    if isinstance(x, Jet):
        e = sexp(x.val)
        return x.chain(e, e, e if x.space.order == 2 else None)
    if isinstance(x, np.ndarray):
        return _check_finite(np.exp(x), "exp")
    try:
        return _check_finite(math.exp(x), "exp")
    except OverflowError:
        raise EvaluationError("non-finite value in exp") from None


def slog(x):
    if isinstance(x, Jet):
        f0 = slog(x.val)
        f1 = _reciprocal(x.val)
        f2 = -(f1 * f1) if x.space.order == 2 else None
        return x.chain(f0, f1, f2)
    if isinstance(x, np.ndarray):
        if (x <= 0).any():
            raise EvaluationError("log of a non-positive value")
        return np.log(x)
    if x <= 0:
        raise EvaluationError("log of a non-positive value")
    return math.log(x)


def ssin(x):
    if isinstance(x, Jet):
        s, c = ssin(x.val), scos(x.val)
        return x.chain(s, c, -s if x.space.order == 2 else None)
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def scos(x):
    if isinstance(x, Jet):
        s, c = ssin(x.val), scos(x.val)
        return x.chain(c, -s, -c if x.space.order == 2 else None)
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def ssqrt(x):
    if isinstance(x, Jet):
        f0 = ssqrt(x.val)
        f1 = 0.5 * _reciprocal(f0)
        f2 = None
        if x.space.order == 2:
            f2 = -0.5 * f1 * _reciprocal(x.val)
        return x.chain(f0, f1, f2)
    if isinstance(x, np.ndarray):
        if (x < 0).any():
            raise EvaluationError("sqrt of a negative value")
        return np.sqrt(x)
    if x < 0:
        raise EvaluationError("sqrt of a negative value")
    return math.sqrt(x)


def spow(x, exponent):
    """x ** r for a constant rational or integer exponent r."""
    r = exponent
    if isinstance(r, Fraction) and r.denominator == 1:
        r = r.numerator
    if isinstance(x, Jet):
        if r == 0:
            return x.space.constant(1.0)
        if r == 1:
            return x
        f0 = spow(x.val, r)
        f1 = _float_exp(r) * spow(x.val, r - 1)
        f2 = None
        if x.space.order == 2:
            f2 = _float_exp(r) * _float_exp(r - 1) * spow(x.val, r - 2)
        return x.chain(f0, f1, f2)
    try:
        return _pow_number(x, r)
    except OverflowError:
        raise EvaluationError("non-finite value in power") from None


def _float_exp(r):
    return float(r) if isinstance(r, Fraction) else r


def _pow_number(x, r):
    if isinstance(x, np.ndarray):
        return _pow_array(x, r)
    if isinstance(r, int):
        if x == 0 and r < 0:
            raise EvaluationError("zero raised to a negative power")
        return _check_finite(float(x) ** r, "power")
    # rational exponent: only defined here for non-negative bases unless
    # the reduced denominator is odd
    p, q = r.numerator, r.denominator
    if x < 0:
        if q % 2 == 1:
            return _check_finite(math.copysign(abs(x) ** (p / q), x if p % 2 else 1.0), "power")
        raise EvaluationError("negative base with even-root exponent")
    if x == 0 and p < 0:
        raise EvaluationError("zero raised to a negative power")
    return _check_finite(x ** (p / q), "power")


def _pow_array(x, r):
    """``_pow_number`` over a float array, raising its error where any
    element raises it."""
    if isinstance(r, int):
        if r < 0 and (x == 0).any():
            raise EvaluationError("zero raised to a negative power")
        return _check_finite(np.power(x, float(r)), "power")
    p, q = r.numerator, r.denominator
    negative = x < 0
    if q % 2 == 0 and negative.any():
        raise EvaluationError("negative base with even-root exponent")
    if p < 0 and (x == 0).any():
        raise EvaluationError("zero raised to a negative power")
    out = np.power(np.abs(x), p / q)
    if p % 2:
        out = np.where(negative, -out, out)
    return _check_finite(out, "power")
