"""Truncated multivariate Taylor arithmetic up to order 4.

A Jet stores the Taylor-normalized coefficients c_alpha = d^alpha f / alpha!
of a scalar quantity at a point, for every multi-index alpha with
|alpha| <= order. Sums, products, quotients and the elementary functions
propagate full derivative information, so each partial derivative consumed by
the geometry layer is exact up to floating-point rounding. Orders are capped
at 4 and variable counts at 4, which keeps every coefficient table at 70
entries or fewer; tables are dense and precomputed once per (order, nvars).
"""

import math
from functools import lru_cache

import numpy as np

MAX_ORDER = 4
MAX_VARS = 4

_FACTORIAL = (1.0, 1.0, 2.0, 6.0, 24.0)


class JetDomainError(ArithmeticError):
    """Evaluation left the domain of an operation: division by a zero value,
    log or sqrt of a non-positive value, fractional power of a non-positive
    value, a function argument or value outside the float range."""


def _kernel(fn, *args):
    """fn(*args), with an overflow or a non-finite argument raised as
    JetDomainError."""
    try:
        return fn(*args)
    except (OverflowError, ValueError):
        shown = ", ".join(map(repr, args))
        raise JetDomainError(f"{fn.__name__}({shown}) is out of float range") from None


def _compositions(total, nvars):
    if nvars == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, nvars - 1):
            yield (first,) + rest


def _graded_indices(order, nvars):
    for total in range(order + 1):
        yield from _compositions(total, nvars)


class _JetSpace:
    """Index tables shared by all jets of one (order, nvars) signature."""

    def __init__(self, order, nvars):
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        if not 1 <= nvars <= MAX_VARS:
            raise ValueError(f"jet variable count must be in 1..{MAX_VARS}, got {nvars}")
        self.order = order
        self.nvars = nvars
        self.multi_indices = tuple(_graded_indices(order, nvars))
        self.position = {alpha: k for k, alpha in enumerate(self.multi_indices)}
        self.size = len(self.multi_indices)

        mul_a, mul_b, mul_out = [], [], []
        for i, alpha in enumerate(self.multi_indices):
            for j, beta in enumerate(self.multi_indices):
                gamma = tuple(a + b for a, b in zip(alpha, beta))
                if sum(gamma) <= order:
                    mul_a.append(i)
                    mul_b.append(j)
                    mul_out.append(self.position[gamma])
        self._mul_a = np.asarray(mul_a, dtype=np.intp)
        self._mul_b = np.asarray(mul_b, dtype=np.intp)
        self._mul_out = np.asarray(mul_out, dtype=np.intp)

        # Division recurrence: for each output slot k (in graded order), the
        # pairs (q_pos, b_pos) with b_pos nonzero multi-index contributing to
        # the convolution at k. q_pos always has lower total degree than k.
        self._div_terms = [[] for _ in range(self.size)]
        for i, j, k in zip(mul_a, mul_b, mul_out):
            if sum(self.multi_indices[j]) > 0:
                self._div_terms[k].append((i, j))

        self._diff_tables = {}

    def multiply(self, a, b):
        out = np.bincount(self._mul_out, weights=a[self._mul_a] * b[self._mul_b],
                          minlength=self.size)
        # bit-exact: the value slot receives exactly one contribution a0*b0
        return out

    def divide(self, a, b):
        b0 = b[0]
        if b0 == 0.0:
            raise JetDomainError("division by a jet with zero value")
        q = np.empty(self.size)
        q[0] = a[0] / b0
        for k in range(1, self.size):
            acc = a[k]
            for qi, bj in self._div_terms[k]:
                acc -= q[qi] * b[bj]
            q[k] = acc / b0
        return q

    def diff_table(self, direction):
        """Positions and de-normalization factors for d/du_direction."""
        table = self._diff_tables.get(direction)
        if table is None:
            lower = _space(self.order - 1, self.nvars)
            src = np.empty(lower.size, dtype=np.intp)
            fac = np.empty(lower.size)
            for k, beta in enumerate(lower.multi_indices):
                shifted = list(beta)
                shifted[direction] += 1
                src[k] = self.position[tuple(shifted)]
                fac[k] = beta[direction] + 1
            table = (src, fac)
            self._diff_tables[direction] = table
        return table


@lru_cache(maxsize=None)
def _space(order, nvars):
    return _JetSpace(order, nvars)


class Jet:
    """Immutable truncated Taylor expansion of a scalar at one point."""

    __slots__ = ("order", "nvars", "coeffs")

    def __init__(self, order, nvars, coeffs):
        space = _space(order, nvars)
        arr = np.asarray(coeffs, dtype=float)
        if arr.shape != (space.size,):
            raise ValueError(
                f"expected {space.size} coefficients for order {order} in "
                f"{nvars} variables, got shape {arr.shape}")
        self.order = order
        self.nvars = nvars
        self.coeffs = arr

    @property
    def value(self):
        return float(self.coeffs[0])

    def coefficient(self, alpha):
        """Taylor-normalized coefficient d^alpha f / alpha!."""
        return float(self.coeffs[_space(self.order, self.nvars).position[tuple(alpha)]])

    def derivative(self, alpha):
        """Plain partial derivative d^alpha f (de-normalized)."""
        alpha = tuple(alpha)
        scale = 1.0
        for a in alpha:
            scale *= _FACTORIAL[a]
        return self.coefficient(alpha) * scale

    def _binary(self, other):
        if isinstance(other, Jet):
            if other.order != self.order or other.nvars != self.nvars:
                raise ValueError(
                    f"jet shape mismatch: ({self.order},{self.nvars}) vs "
                    f"({other.order},{other.nvars})")
            return other
        if isinstance(other, (int, float)):
            return None
        return NotImplemented

    def __add__(self, other):
        rhs = self._binary(other)
        if rhs is NotImplemented:
            return NotImplemented
        if rhs is None:
            out = self.coeffs.copy()
            out[0] += other
            return Jet(self.order, self.nvars, out)
        return Jet(self.order, self.nvars, self.coeffs + rhs.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._binary(other)
        if rhs is NotImplemented:
            return NotImplemented
        if rhs is None:
            out = self.coeffs.copy()
            out[0] -= other
            return Jet(self.order, self.nvars, out)
        return Jet(self.order, self.nvars, self.coeffs - rhs.coeffs)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet(self.order, self.nvars, -self.coeffs)

    def __mul__(self, other):
        rhs = self._binary(other)
        if rhs is NotImplemented:
            return NotImplemented
        if rhs is None:
            return Jet(self.order, self.nvars, self.coeffs * other)
        space = _space(self.order, self.nvars)
        return Jet(self.order, self.nvars, space.multiply(self.coeffs, rhs.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._binary(other)
        if rhs is NotImplemented:
            return NotImplemented
        if rhs is None:
            if other == 0:
                raise JetDomainError("division by zero")
            return Jet(self.order, self.nvars, self.coeffs / other)
        space = _space(self.order, self.nvars)
        return Jet(self.order, self.nvars, space.divide(self.coeffs, rhs.coeffs))

    def __rtruediv__(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        space = _space(self.order, self.nvars)
        num = np.zeros(space.size)
        num[0] = other
        return Jet(self.order, self.nvars, space.divide(num, self.coeffs))

    def __pow__(self, exponent):
        return power(self, exponent)

    def truncated(self, order):
        """Same expansion restricted to |alpha| <= order (order may not grow)."""
        if order == self.order:
            return self
        if not 0 <= order < self.order:
            raise ValueError(f"cannot truncate order {self.order} jet to order {order}")
        size = _space(order, self.nvars).size
        # graded index ordering makes truncation a prefix slice
        return Jet(order, self.nvars, self.coeffs[:size].copy())

    def extract_derivative(self, direction):
        """Order-(K-1) jet of the partial derivative in one direction."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        if not 0 <= direction < self.nvars:
            raise ValueError(f"direction {direction} out of range for {self.nvars} variables")
        src, fac = _space(self.order, self.nvars).diff_table(direction)
        return Jet(self.order - 1, self.nvars, self.coeffs[src] * fac)

    def __repr__(self):
        return f"Jet(order={self.order}, nvars={self.nvars}, coeffs={self.coeffs!r})"


def variable(index, value, order, nvars):
    """Jet of the coordinate function u_index at a point."""
    space = _space(order, nvars)
    if not 0 <= index < nvars:
        raise ValueError(f"variable index {index} out of range for {nvars} variables")
    coeffs = np.zeros(space.size)
    coeffs[0] = value
    if order >= 1:
        unit = tuple(1 if k == index else 0 for k in range(nvars))
        coeffs[space.position[unit]] = 1.0
    return Jet(order, nvars, coeffs)


def constant(value, order, nvars):
    space = _space(order, nvars)
    coeffs = np.zeros(space.size)
    coeffs[0] = value
    return Jet(order, nvars, coeffs)


def constant_like(value, jet):
    return constant(value, jet.order, jet.nvars)


def _ipow(x, n):
    # identical multiply sequence for floats and jets keeps order-0 jet
    # evaluation bit-for-bit equal to scalar evaluation
    result = x
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * x
    return result


def scalar_pow(x, exponent):
    """Float power using the same algorithm as jet power."""
    if float(exponent).is_integer():
        n = int(exponent)
        if n == 0:
            return 1.0
        if n < 0:
            if x == 0.0:
                raise JetDomainError("zero raised to a negative power")
            return 1.0 / _ipow(x, -n)
        return _ipow(x, n)
    if x <= 0.0:
        raise JetDomainError(f"fractional power of non-positive value {x}")
    return _kernel(pow, x, exponent)


def power(a, exponent):
    """Jet raised to a constant integer or fractional exponent."""
    if not isinstance(exponent, (int, float)):
        raise TypeError("jet exponent must be a constant number")
    if float(exponent).is_integer():
        n = int(exponent)
        if n == 0:
            return constant_like(1.0, a)
        if n < 0:
            if a.value == 0.0:
                raise JetDomainError("zero value raised to a negative power")
            return 1.0 / _ipow(a, -n)
        return _ipow(a, n)
    v = a.value
    if v <= 0.0:
        raise JetDomainError(f"fractional power of non-positive value {v}")
    derivs = [_kernel(pow, v, exponent)]
    coef = 1.0
    for k in range(1, a.order + 1):
        coef *= exponent - (k - 1)
        derivs.append(coef * _kernel(pow, v, exponent - k))
    return _compose(a, derivs)


def _compose(a, derivs):
    """Truncated composition f(a) from the derivative tower of f at a.value.

    derivs[k] must hold f^(k)(a.value) for k = 0..a.order. Horner evaluation in
    the zero-value part of `a` leaves the value slot exactly derivs[0].
    """
    taylor = [derivs[k] / _FACTORIAL[k] for k in range(a.order + 1)]
    hat = a.coeffs.copy()
    hat[0] = 0.0
    hat = Jet(a.order, a.nvars, hat)
    acc = constant_like(taylor[-1], a)
    for k in range(a.order - 1, -1, -1):
        acc = acc * hat + taylor[k]
    return acc


def sin(a):
    s, c = _kernel(math.sin, a.value), _kernel(math.cos, a.value)
    return _compose(a, (s, c, -s, -c, s)[: a.order + 1])


def cos(a):
    s, c = _kernel(math.sin, a.value), _kernel(math.cos, a.value)
    return _compose(a, (c, -s, -c, s, c)[: a.order + 1])


def tan(a):
    t = _kernel(math.tan, a.value)
    w = 1.0 + t * t
    derivs = (t, w, 2.0 * t * w, 2.0 * w * (1.0 + 3.0 * t * t),
              8.0 * t * w * (2.0 + 3.0 * t * t))
    return _compose(a, derivs[: a.order + 1])


def exp(a):
    e = _kernel(math.exp, a.value)
    return _compose(a, (e,) * (a.order + 1))


def log(a):
    v = a.value
    if v <= 0.0:
        raise JetDomainError(f"log of non-positive value {v}")
    derivs = (math.log(v), 1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3, -6.0 / v ** 4)
    return _compose(a, derivs[: a.order + 1])


def sqrt(a):
    v = a.value
    if v < 0.0 or (v == 0.0 and a.order >= 1):
        raise JetDomainError(f"sqrt of non-positive value {v}")
    s = math.sqrt(v)
    if a.order == 0:
        return constant_like(s, a)
    derivs = (s, 0.5 / s, -0.25 / (s * v), 0.375 / (s * v * v),
              -0.9375 / (s * v * v * v))
    return _compose(a, derivs[: a.order + 1])


def sinh(a):
    s, c = _kernel(math.sinh, a.value), _kernel(math.cosh, a.value)
    return _compose(a, (s, c, s, c, s)[: a.order + 1])


def cosh(a):
    s, c = _kernel(math.sinh, a.value), _kernel(math.cosh, a.value)
    return _compose(a, (c, s, c, s, c)[: a.order + 1])
