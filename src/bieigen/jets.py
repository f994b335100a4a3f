"""Truncated multivariate Taylor arithmetic up to order 4, at a block of points.

A Jet stores the Taylor-normalized coefficients c_alpha = d^alpha f / alpha!
of a scalar quantity for every multi-index alpha with |alpha| <= order, at a
block of points: one row per coefficient, one column per point. Sums,
products, quotients and the elementary functions propagate full derivative
information for the whole block in a few numpy calls, so each partial
derivative consumed by the geometry layer is exact up to floating-point
rounding, and every point gets the same bits it would get on its own (but a
NaN from two NaN operands may take its sign from its place in the block).
Each elementary function forms its derivative tower once per block, up to
the jet's order (a constant's only to its value). Its kernel is `math`'s
mapped over the values, or numpy's where that gives `math`'s bits
(`_NUMPY_KERNELS`), and the rest is elementwise numpy arithmetic, which
rounds like Python floats, so a point's tower does not depend on its block.
The tower is composed with the argument by Horner's rule in jet products;
an argument a0 + lambda u_i, a function of one coordinate, has all those
products on the slots k e_i, and takes Horner's steps there as plain rows,
with the products' bits (`_compose_along`).
A finite value whose tower is not finite is refused as out of float range,
and so is an underflowed zero derivative of sqrt or of a fractional power,
which never vanishes; a block holding a value the tower refuses is rerun
point by point to name the first one (`_per_point`).
Orders are capped at 4 and variable counts at 4, which keeps every
coefficient table at 70 entries or fewer; tables are dense and built on
first use, once per (order, nvars), and the product and quotient tables
once per set of operand bounds.

A Jet also carries two bounds on where its nonzero coefficients lie; every
other coefficient slot holds +0.0 or -0.0. `degree` bounds their total
degree, clipped to the order: constants have degree 0 and variables degree
1; + and - take the larger degree, a product the sum of the two, a quotient
by a degree-0 jet the numerator's, and every other operation the full
order. `support`, a bit mask, holds the variables their monomials may
involve: variable i has {i} and a constant none, and +, -, *, / and the
elementary functions take the union of their operands' supports, which
truncation and `at` keep. A derivative d/du_i keeps the support and is one
degree lower, but one in a direction outside the support is zero in every
slot (`_derivative_bounds`, for `extract_derivative` and `dot` alike). A
jet that either bound shows to be constant has degree 0 and support 0, so a
product with such a derivative, d_j phi^A of a component that does not
involve u_j, is elementwise. A product skips the terms a[i] * b[j] in which
a slot above its factor's degree, or one that involves a variable outside
its factor's support, takes part, so a constant, a linear operand or a
factor in a few of the variables (sin(a)*sin(b)*cos(c) on a 4-D chart)
costs only its live terms. That keeps the bits: each output slot adds its
remaining terms in the same order, starting from +0.0, and a skipped term
is +0.0 or -0.0 while its other factor is finite; a running sum that starts
at +0.0 is never -0.0, so adding a zero to it changes nothing. (Where the
other factor is inf or NaN, the skipped term would have been NaN.) The
value slot is not a sum: it is its one term a[0] * b[0], so the value of a
product is the product of the values, the sign of a zero included. `dot`
forms a sum of products on coefficient arrays, with the bits of the jet sum
of the jet products, and makes only the sum a Jet; its direction case forms
d/du_i of the sum, reading only the product slots the derivative reads
(alpha_i >= 1). With a degree-0 factor each output slot has at most one
term, so such a product is one elementwise multiplication of the other
factor's live slots by the constant's value, each term above the value
added to +0.0. A quotient skips terms by the same rule: its recurrence
subtracts q[i] * b[j] from a[k] only where the divisor slot j lies within
b's bounds and the output slot k within the quotient's support, so a
degree-0 divisor has no terms and its quotient is one elementwise division
a / b[0]. It forms only the slots its own bounds leave live, and every
other slot is +0.0, as in a product, whatever the divisor's value, NaN and
inf included. Each skipped term is a zero while the quotient is finite, so
a quotient differs from the full recurrence only in the sign of a zero slot
(-0.0 - (-0.0) is +0.0), and where the full recurrence would have formed
inf * 0.0 = NaN, or a NaN divisor a NaN, in a slot that the bounds show to
be zero.
"""

import math
from functools import cache
from itertools import repeat

import numpy as np

MAX_ORDER = 4
MAX_VARS = 4

_FACTORIAL = (1.0, 1.0, 2.0, 6.0, 24.0)

# Float64 values of a jet of a block (`analysis.block_points`), 128 KB.
# Larger jets are freshly mapped pages, which made 4-D blocks slower and
# raise peak memory.
BLOCK_VALUES = 16384


class JetDomainError(ArithmeticError):
    """Evaluation left the domain of an operation: division by a zero value,
    log or sqrt of a non-positive value, fractional power of a non-positive
    value, a function argument or value outside the float range.

    `index` is the position, within the evaluated block, of the first point
    at which the operation failed."""

    def __init__(self, message, index=0):
        super().__init__(message)
        self.index = index


def first_index(mask):
    """Flat position of the first True entry of a block mask, or None."""
    return int(mask.argmax()) if mask.any() else None


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


def _rounds(xs, ys, outs, count):
    """Regroup the terms x[xs[t]] * y[ys[t]] of output slots outs[t], in
    range(count), into rounds: round r holds the r-th term of every output
    slot that has one, so adding round after round sums each slot's terms
    in their listed order, and one round is one numpy call over a block.

    Output slots are permuted by decreasing term count, which makes every
    round a prefix of the permuted slots: rounds add into slices, not
    scattered rows. Returns the x, y and output slots sorted by round, the
    size of each round, and the permutation (permuted position -> slot)."""
    # each term's place among its slot's terms: a stable sort keeps them in order
    by_slot = np.argsort(outs, kind="stable")
    terms_of = np.diff(np.searchsorted(outs[by_slot], np.arange(count + 1)))
    nth = np.empty_like(outs)
    nth[by_slot] = np.arange(len(outs)) - np.repeat(np.cumsum(terms_of) - terms_of, terms_of)
    perm = np.lexsort((np.arange(count), -terms_of))
    rank = np.empty_like(perm)
    rank[perm] = np.arange(count)
    key = np.lexsort((rank[outs], nth))
    sizes = tuple(int(np.count_nonzero(terms_of > r)) for r in range(terms_of.max(initial=0)))
    return xs[key], ys[key], outs[key], sizes, perm


def _fold(ufunc, acc, x, xs, y, ys, sizes):
    """acc[:size] = ufunc(acc[:size], x[xs] * y[ys]) for one round after the
    other (see `_rounds`), so each slot of acc takes its terms in order; the
    products of all rounds are formed at once."""
    products = x[xs] * y[ys]
    offset = 0
    for size in sizes:
        head = acc[:size]
        ufunc(head, products[offset:offset + size], out=head)
        offset += size


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

        # the product convolution, each output's terms in ascending (i, j);
        # in graded order the betas with |alpha + beta| <= order are a prefix
        degree = [sum(alpha) for alpha in self.multi_indices]
        prefix = [sum(1 for k in degree if k <= d) for d in range(order + 1)]
        pairs = [(i, j, self.position[tuple(a + b for a, b in zip(alpha, beta))])
                 for i, alpha in enumerate(self.multi_indices)
                 for j, beta in enumerate(self.multi_indices[:prefix[order - degree[i]]])]
        self._pairs = np.array(pairs, dtype=np.intp).T
        self._degree = np.array(degree)
        # the variables each slot's monomial involves, as a bit mask
        self._uses = np.array([sum(1 << v for v, power in enumerate(alpha) if power)
                               for alpha in self.multi_indices])

    def _live(self, slots, degree, support):
        """Where `slots` may hold a nonzero coefficient of a jet of this
        degree and support: their total degree is at most `degree`, and
        they involve only variables of `support`."""
        return (self._degree[slots] <= degree) & ((self._uses[slots] & ~support) == 0)

    @cache
    def _mul_table(self, da, db, sa, sb, direction):
        """The product terms of factors of degrees da and db and supports sa
        and sb: the pairs whose x slot is live in the first factor and whose
        y slot is live in the second (`_live`), in rounds (see `_rounds`),
        with the inverse permutation and the output slot of each product
        (see `_scale_table`). The value slot's one term is left out.
        With a direction, only the output slots with alpha[direction] >= 1
        are formed, numbered as the rows of `diff_table(direction)`."""
        xs, ys, ks = self._pairs
        if direction is None:
            slot, count = np.arange(self.size), self.size
            slot[0] = -1
        else:
            src = self.diff_table(direction)[0]
            slot, count = np.full(self.size, -1), len(src)
            slot[src] = np.arange(count)
        keep = (slot[ks] >= 0) & self._live(xs, da, sa) & self._live(ys, db, sb)
        xs, ys, outs, sizes, perm = _rounds(xs[keep], ys[keep], slot[ks[keep]], count)
        return xs, ys, sizes, np.argsort(perm), outs

    @cache
    def _scale_table(self, degree, support, direction):
        """The terms of a product of a degree-0 factor and a factor of this
        degree and support, one per output slot, the value slot included
        (see `_mul_table`): the second factor's slots; the output slots they
        fill, or None where that is every output slot; and the output slot
        count. Consecutive slots are a slice. Without a direction, both are
        the slots live in a jet of this degree and support, which `divide`
        forms."""
        _, src, _, unperm, dst = self._mul_table(0, degree, 0, support, direction)
        if direction is None:
            src, dst = np.append(0, src), np.append(0, dst)
        return (_consecutive(src), None if dst.size == unperm.size else _consecutive(dst),
                unperm.size)

    def multiply(self, a, b, direction=None):
        """The coefficients of the truncated product of jets a and b, with
        the terms their degrees and supports show to be zero skipped; with a
        direction, only the slots with alpha[direction] >= 1, in the order
        of `diff_table(direction)`."""
        x, y = a.coeffs, b.coeffs
        points = (x if x.size >= y.size else y).shape[1:]  # a block of one broadcasts
        if not (a.degree and b.degree):
            # a constant factor leaves each output slot at most one term, so
            # the product is one elementwise multiplication over the live
            # slots; each slot but the value adds its term to +0.0, as the
            # table's sums do
            other = b if a.degree == 0 else a
            src, dst, count = self._scale_table(other.degree, other.support, direction)
            terms = x[0] * y[src] if other is b else x[src] * y[0]
            if dst is None:
                out = terms
            else:
                out = np.zeros((count,) + points)
                out[dst] = terms
            out[1 if direction is None else 0:] += 0.0
            return out
        xs, ys, sizes, unperm, _ = self._mul_table(a.degree, b.degree, a.support,
                                                   b.support, direction)
        out = np.zeros((len(unperm),) + points)  # each slot's sum starts from +0.0
        _fold(np.add, out, x, xs, y, ys, sizes)
        out = out[unperm]
        if direction is None:
            out[0] = x[0] * y[0]  # the value slot's one term, not added to +0.0
        return out

    @cache
    def _div_table(self, degree, support, quotient_support):
        """The division recurrence's terms for a divisor of this degree and
        support: output slot k, live in a quotient of `quotient_support`,
        subtracts q[i] * b[j] over its product terms whose j is live in the
        divisor and not its value, in product order. Those q slots have lower
        total degree than k, so the slots of one degree (contiguous in graded
        order) are solved together: per degree, the slots with terms in the
        order of their rounds, and the q slots, b slots and round sizes (see
        `_rounds`). A degree-0 divisor has no terms."""
        xs, ys, ks = self._pairs
        keep = (ys > 0) & self._live(ys, degree, support) & self._live(ks, self.order,
                                                                         quotient_support)
        levels = []
        for d in range(1, self.order + 1):
            lo, hi = np.searchsorted(self._degree, (d, d + 1))
            at = keep & (lo <= ks) & (ks < hi)
            if at.any():
                qi, bj, _, sizes, perm = _rounds(xs[at], ys[at], ks[at] - lo, hi - lo)
                levels.append((lo + perm[:sizes[0]], qi, bj, sizes))
        return tuple(levels)

    def divide(self, a, b):
        """The coefficients of the truncated quotient of jets a and b, by the
        Taylor division recurrence with the terms their bounds show to be
        zero skipped (see `_div_table`); b's value has no zero. Only the
        slots live in the quotient (`_quotient_bounds`) are formed, those a
        product with a constant scales (`_scale_table`), and every other
        slot is +0.0, as in a product. Each live slot starts as a[k] / b[0],
        which is its quotient where it has no term, so a degree-0 divisor
        divides elementwise."""
        x, y = a.coeffs, b.coeffs
        b0 = y[0]
        src, dst, count = self._scale_table(*_quotient_bounds(a, b), None)
        if dst is None:
            q = x / b0  # broadcast over the block, as the quotient is
        else:
            q = np.zeros((count,) + (x if x.size >= y.size else y).shape[1:])
            q[dst] = x[src] / b0
        for slots, qi, bj, sizes in self._div_table(b.degree, b.support,
                                                    a.support | b.support):
            # the numerator's slots over the whole block, in the permuted slot
            # order of the rounds
            acc = np.empty((len(slots),) + q.shape[1:])
            acc[...] = x[slots]
            _fold(np.subtract, acc, q, qi, y, bj, sizes)
            q[slots] = acc / b0
        return q

    @cache
    def axis_slots(self, direction):
        """The slots k e_direction, k = 0..order, of the powers of one variable."""
        return np.array([self.position[tuple(k if v == direction else 0
                                             for v in range(self.nvars))]
                         for k in range(self.order + 1)])

    @cache
    def diff_table(self, direction):
        """Positions and de-normalization factors for d/du_direction."""
        lower = _space(self.order - 1, self.nvars)
        src = np.empty(lower.size, dtype=np.intp)
        fac = np.empty(lower.size)
        for k, beta in enumerate(lower.multi_indices):
            shifted = list(beta)
            shifted[direction] += 1
            src[k] = self.position[tuple(shifted)]
            fac[k] = beta[direction] + 1
        return src, fac


def _consecutive(slots):
    """A sorted array of slots as a slice where they are consecutive."""
    if slots.size and slots[-1] - slots[0] + 1 == slots.size:
        return slice(int(slots[0]), int(slots[-1]) + 1)
    return slots


@cache
def _space(order, nvars):
    return _JetSpace(order, nvars)


def _form(coeffs):
    """The form of a jet's coefficients, as contract messages name it."""
    return f"{'one point' if coeffs.ndim == 1 else 'a block'} {coeffs.shape}"


def _rows(factors, coeffs):
    """One factor per coefficient row, shaped to scale every point of
    `coeffs` (coefficient axis first, then the block's shape)."""
    return factors.reshape((-1,) + (1,) * (coeffs.ndim - 1))


class Jet:
    """Immutable truncated Taylor expansion of a scalar at a block of points.

    `coeffs` has shape (size, P) at a block of P points: coefficient-major,
    so coeffs[k] holds coefficient k of every point, and one point inside
    the library is a block of one, (size, 1). The one-point public form,
    made by `variable`/`constant` from a scalar and by `at`, has shape
    (size,). Every operation acts on the coefficient axis and broadcasts
    the rest, so both forms take the same code path; jets of one
    computation share (order, nvars) and one form, and a block of one
    combines with a block of P. Numbers, and arrays with one entry per
    point, act as per-point constants: + and - shift the value slot, * and
    / scale every coefficient.

    `degree` bounds the total degree of the nonzero coefficients, and
    `support`, a bit mask of the variables, holds every variable they may
    involve (see the module docstring). `degree` defaults to, and is clipped
    to, `order`, and `support` defaults to all variables; a jet that one of
    them shows to be constant has both 0."""

    __slots__ = ("order", "nvars", "coeffs", "degree", "support")
    __array_ufunc__ = None  # `array * jet` defers to Jet.__rmul__

    def __init__(self, order, nvars, coeffs, degree=None, support=None):
        space = _space(order, nvars)
        arr = np.asarray(coeffs, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[0] != space.size:
            raise ValueError(
                f"expected {space.size} coefficients for order {order} in "
                f"{nvars} variables, got shape {arr.shape}")
        self.order = order
        self.nvars = nvars
        self.coeffs = arr
        self.degree = order if degree is None else min(degree, order)
        self.support = (1 << nvars) - 1 if support is None else support
        if not (self.degree and self.support):  # a constant
            self.degree = self.support = 0

    @property
    def value(self):
        """The value at each point: coeffs[0]."""
        return self.coeffs[0]

    def coefficient(self, alpha):
        """Taylor-normalized coefficient d^alpha f / alpha! at each point."""
        return self.coeffs[_space(self.order, self.nvars).position[tuple(alpha)]]

    def derivative(self, alpha):
        """Plain partial derivative d^alpha f (de-normalized)."""
        alpha = tuple(alpha)
        scale = 1.0
        for a in alpha:
            scale *= _FACTORIAL[a]
        return self.coefficient(alpha) * scale

    def at(self, index):
        """The one-point jet at position `index` of the block."""
        return Jet(self.order, self.nvars, self.coeffs[:, index], self.degree, self.support)

    def _binary(self, other):
        if isinstance(other, Jet):
            if other.order != self.order or other.nvars != self.nvars:
                raise ValueError(
                    f"jet shape mismatch: ({self.order},{self.nvars}) vs "
                    f"({other.order},{other.nvars})")
            if other.coeffs.ndim != self.coeffs.ndim:
                raise ValueError(
                    f"jet form mismatch: {_form(self.coeffs)} vs {_form(other.coeffs)}")
            return other
        if isinstance(other, (int, float, np.ndarray)):
            return None
        return NotImplemented

    def __add__(self, other):
        rhs = self._binary(other)
        if rhs is NotImplemented:
            return NotImplemented
        if rhs is None:
            out = self.coeffs.copy()
            out[0] += other
            return Jet(self.order, self.nvars, out, self.degree, self.support)
        return Jet(self.order, self.nvars, self.coeffs + rhs.coeffs,
                   max(self.degree, rhs.degree), self.support | rhs.support)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet(self.order, self.nvars, -self.coeffs, self.degree, self.support)

    def __mul__(self, other):
        rhs = self._binary(other)
        if rhs is NotImplemented:
            return NotImplemented
        if rhs is None:
            return Jet(self.order, self.nvars, self.coeffs * other, self.degree, self.support)
        return Jet(self.order, self.nvars, _space(self.order, self.nvars).multiply(self, rhs),
                   self.degree + rhs.degree, self.support | rhs.support)

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._binary(other)
        if rhs is NotImplemented:
            return NotImplemented
        if rhs is None:
            require_nonzero(other, "division by zero")
            return Jet(self.order, self.nvars, self.coeffs / other, self.degree, self.support)
        require_nonzero(rhs.value)
        return Jet(self.order, self.nvars, _space(self.order, self.nvars).divide(self, rhs),
                   *_quotient_bounds(self, rhs))

    def __rtruediv__(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        return constant_like(other, self) / self

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
        return Jet(order, self.nvars, self.coeffs[:size], self.degree, self.support)

    def extract_derivative(self, direction):
        """Order-(K-1) jet of the partial derivative in one direction."""
        _require_derivative(self, direction)
        src, fac = _space(self.order, self.nvars).diff_table(direction)
        return Jet(self.order - 1, self.nvars, self.coeffs[src] * _rows(fac, self.coeffs),
                   *_derivative_bounds(self.degree, self.support, direction))

    def __repr__(self):
        return f"Jet(order={self.order}, nvars={self.nvars}, coeffs={self.coeffs!r})"


def _quotient_bounds(a, b):
    """The degree and support of the quotient a / b of two jets: a's degree
    where b is constant, else the full order, and the union of the
    supports."""
    return a.degree if b.degree == 0 else a.order, a.support | b.support


def _require_derivative(jet, direction):
    """ValueError unless a jet like `jet` has a first partial in `direction`."""
    if jet.order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    if not 0 <= direction < jet.nvars:
        raise ValueError(f"direction {direction} out of range for {jet.nvars} variables")


def _derivative_bounds(degree, support, direction):
    """The degree and support of d/du_direction of a jet with these bounds:
    one degree lower, or degree 0 and support 0 where the support does not
    hold the direction, since every slot that involves it is then a zero."""
    return (max(degree - 1, 0), support) if support >> direction & 1 else (0, 0)


def variable(index, value, order, nvars):
    """Jet of the coordinate function u_index at a point, or at a block of
    points when `value` is an array of coordinates."""
    space = _space(order, nvars)
    if not 0 <= index < nvars:
        raise ValueError(f"variable index {index} out of range for {nvars} variables")
    value = np.asarray(value, dtype=float)
    coeffs = np.zeros((space.size,) + value.shape)
    coeffs[0] = value
    if order >= 1:
        unit = tuple(1 if k == index else 0 for k in range(nvars))
        coeffs[space.position[unit]] = 1.0
    return Jet(order, nvars, coeffs, 1, 1 << index)


def constant(value, order, nvars):
    """Constant jet; an array `value` gives a block of constants."""
    value = np.asarray(value, dtype=float)
    coeffs = np.zeros((_space(order, nvars).size,) + value.shape)
    coeffs[0] = value
    return Jet(order, nvars, coeffs, 0)


def constant_like(value, jet):
    """Constant jet with the signature and the block of `jet`."""
    coeffs = np.zeros(jet.coeffs.shape)
    coeffs[0] = value
    return Jet(jet.order, jet.nvars, coeffs, 0)


def require_nonzero(values, message="division by a jet with zero value"):
    """JetDomainError(message) for the first point at which `values`, a
    jet's values or a number per point, are zero."""
    zero = first_index(np.equal(values, 0.0))
    if zero is not None:
        raise JetDomainError(message, zero)


def first_partials(jet_list):
    """The first partials d_i of each jet's value at a block of points, shape
    (P, nvars, len(jet_list)), C-ordered: the unit-index coefficient rows,
    the bits of `extract_derivative(i).value`, which scales them by 1.0."""
    m = jet_list[0].nvars
    rows = np.stack([j.coeffs[1:m + 1] for j in jet_list], axis=-1)  # (m, P, count)
    return np.ascontiguousarray(np.moveaxis(rows, 0, -2))


def dot(xs, ys, direction=None, alternate=False):
    """The jet of sum_k xs[k] * ys[k], for jets of one signature and one
    form, with the bits, degree and support of `reduce(add, (x * y for x, y
    in zip(xs, ys)))`: each product's coefficients (`_JetSpace.multiply`)
    are added in order into one running array, and only the sum is made a
    Jet. With `alternate` the odd terms are subtracted, with the bits of
    adding their negatives (IEEE a - b is a + (-b)), but the sign of a NaN.
    xs and ys are read in step, so a factor formed lazily lives for its term
    alone.

    With a direction, the order-(K-1) jet of d/du_direction of that sum,
    for order-K jets, with the bits of `dot(xs, ys).extract_derivative(
    direction)`: each product forms only the slots the derivative reads, and
    they are added in the same order."""
    total = head = None
    degree = support = 0
    for k, (x, y) in enumerate(zip(xs, ys, strict=True)):
        if head is None:
            head, space = x, _space(x.order, x.nvars)
            if direction is not None:
                _require_derivative(head, direction)
        head._binary(x)._binary(y)  # one signature and one form, as `*` and `+` require
        product = space.multiply(x, y, direction)
        subtract = alternate and k % 2
        if total is None:
            total = product
        elif product.size > total.size:  # a block of one broadcasts against the block
            total = total - product if subtract else total + product
        elif subtract:
            total -= product
        else:
            total += product
        degree, support = max(degree, x.degree + y.degree), support | x.support | y.support
    if head is None:
        raise ValueError("a sum of products needs at least one term")
    if direction is None:
        return Jet(head.order, head.nvars, total, degree, support)
    _, fac = space.diff_table(direction)
    return Jet(head.order - 1, head.nvars, total * _rows(fac, total),
               *_derivative_bounds(degree, support, direction))


def power(a, exponent):
    """Jet raised to a constant integer or fractional exponent."""
    if not isinstance(exponent, (int, float)):
        raise TypeError("jet exponent must be a constant number")
    if not float(exponent).is_integer():
        return _compose(a, _derivatives(_power_rows, a, exponent))
    n = int(exponent)
    if n == 0:
        return constant_like(1.0, a)
    if n < 0:
        require_nonzero(a.value, "zero value raised to a negative power")
        return 1.0 / power(a, -n)
    result = a
    for bit in bin(n)[3:]:  # square and multiply, after the leading bit
        result = result * result
        if bit == "1":
            result = result * a
    return result


def _compose(a, derivs):
    """Truncated composition f(a) from the derivative rows derivs[k] =
    f^(k)(a.value), k = 0..K, K the order of `a`, or 0 when `a` is a
    constant (degree 0), by Horner evaluation in the zero-value part of
    `a`; the value slot is derivs[0]. A function of one coordinate,
    a0 + lambda u_i (degree 1, one variable in its support), takes the
    same steps on the slots k e_i alone (`_compose_along`)."""
    taylor = [d / factorial for d, factorial in zip(derivs, _FACTORIAL)]
    if a.degree == 1 and not a.support & (a.support - 1):
        return _compose_along(a, taylor, derivs)
    hat = a.coeffs.copy()
    hat[0] = 0.0
    hat = Jet(a.order, a.nvars, hat, a.degree, a.support)
    acc = constant_like(taylor[-1], a)
    for k in range(len(derivs) - 2, -1, -1):
        acc = acc * hat
        # acc * hat + taylor[k], on the fresh product; the value is derivs[0]
        # itself, which adding to acc[0] * 0.0 would turn from -0.0 to +0.0,
        # or from inf to NaN
        acc.coeffs[0] = acc.coeffs[0] + taylor[k] if k else derivs[0]
    return acc


def _compose_along(a, taylor, derivs):
    """Horner's composition for an argument a0 + lambda u_i, whose products
    all live on the slots k e_i, k = 0..K: row k below is slot k e_i. Each
    product of the accumulator acc (degree d) by the zero-value part (0.0 at
    slot 0, lambda at e_i) forms, as `Jet.__mul__` does, the value acc_0 *
    0.0 and, for j = 0..d, slot (j+1) e_i as (0.0 + acc_j * lambda) +
    acc_{j+1} * 0.0, the second term only where j+1 <= d. The acc * 0.0
    terms are +-0.0 where acc is finite and NaN where it is infinite, as in
    Horner's products. Every other slot is +0.0."""
    slots = _space(a.order, a.nvars).axis_slots(a.support.bit_length() - 1)
    lam = a.coeffs[slots[1]]
    order = len(derivs) - 1
    rows = np.empty((order + 1,) + lam.shape)
    rows[0] = taylor[order]
    for d in range(order):
        zero = rows[:d + 1] * 0.0
        # the new rows are formed from the old ones before they are stored
        rows[1:d + 2] = 0.0 + rows[:d + 1] * lam
        rows[1:d + 1] += zero[1:]
        k = order - 1 - d
        rows[0] = zero[0] + taylor[k] if k else derivs[0]
    out = np.zeros(a.coeffs.shape)
    out[slots] = rows
    return Jet(a.order, a.nvars, out, order, a.support)


def _derivatives(tower, a, *args):
    """The rows f^(k)(v), k = 0..K, of f's derivative tower at the value v of
    each point of `a`, formed for the whole block by `tower(values, K,
    *args)`: K is the order of `a`, or 0 when `a` is a constant (degree 0),
    which reads no derivative. The tower raises for a value out of f's
    domain, or a kernel or Python's `**` out of float range. A finite value
    at which a row is not finite (a derivative out of float range) is
    refused here, for every tower alike (`_out_of_range`). Either way
    `_per_point` raises the failure of the first point."""
    order = a.order if a.degree else 0
    with np.errstate(all="ignore"):  # Python floats under- and overflow silently
        try:
            rows = tower(a.coeffs[0], order, *args)
            if not _out_of_range(a.coeffs[0], rows).any():
                return rows
        except ArithmeticError:
            pass
        _per_point(tower, a.coeffs[0], order, *args)


def _out_of_range(values, rows):
    """Where a finite value has a derivative row that is not finite."""
    return np.isfinite(values) & ~np.isfinite(rows).all(axis=0)


def _per_point(tower, values, order, *args):
    """Raise the failure of the first of `values` at which `tower` fails, run
    on one value after the other, with the index of its point; rows that
    `_out_of_range` refuses, or an overflow of Python's `**`, are out of
    float range."""
    values = np.ravel(values)
    for index in range(values.size):
        value = values[index:index + 1]
        try:
            refused = _out_of_range(value, tower(value, order, *args)).any()
        except JetDomainError as err:
            err.index = index
            raise
        except ArithmeticError:
            refused = True
        if refused:
            name = tower.__name__[1:].removesuffix("_rows")
            raise JetDomainError(f"derivatives of {name} at {values[index].item()!r} are "
                                 f"out of float range", index)


# The functions whose numpy kernel gives the bits of the `math` kernel: sqrt
# is correctly rounded, and the tests check every entry against `math`.
# numpy's exp, log, tan, sinh, cosh and pow round differently.
_NUMPY_KERNELS = {math.sin: np.sin, math.cos: np.cos, math.sqrt: np.sqrt}


def _mapped(fn, values, *args):
    """fn(v, *args) at each value, in Python floats."""
    out = map(fn, np.ravel(values).tolist(), *(repeat(arg) for arg in args))
    return np.fromiter(out, float, np.size(values)).reshape(np.shape(values))


def _kernel(fn, values, *args):
    """fn(v, *args) at each value, with the bits of the `math` kernel `fn`;
    the first value at which `fn` overflows or is undefined raises
    JetDomainError."""
    try:
        if fn not in _NUMPY_KERNELS:
            return _mapped(fn, values, *args)
        out = _NUMPY_KERNELS[fn](values)
        # these never overflow; `math` raises where they give NaN from a number
        if not np.isnan(out).any() or not (np.isnan(out) > np.isnan(values)).any():
            return out
    except (OverflowError, ValueError):
        pass
    for v in np.ravel(values).tolist():
        try:
            fn(v, *args)
        except (OverflowError, ValueError):
            shown = ", ".join(map(repr, (v, *args)))
            raise JetDomainError(f"{fn.__name__}({shown}) is out of float range") from None


def _refuse(bad, values, message):
    """Raise JetDomainError(f"{message} {v}") at the first value v where `bad`
    holds."""
    index = first_index(np.ravel(bad))
    if index is not None:
        raise JetDomainError(f"{message} {np.ravel(values)[index].item()}")


# Derivative towers (see `_derivatives`): each row is formed with the
# operations Python floats would use at one value.

def _sin_rows(values, order):
    s, c = _kernel(math.sin, values), _kernel(math.cos, values)
    return (s, c, -s, -c, s)[:order + 1]


def _cos_rows(values, order):
    c, s = _kernel(math.cos, values), _kernel(math.sin, values)
    return (c, -s, -c, s, c)[:order + 1]


def _tan_rows(values, order):
    t = _kernel(math.tan, values)
    w = 1.0 + t * t
    return (t, w, 2.0 * t * w, 2.0 * w * (1.0 + 3.0 * t * t),
            8.0 * t * w * (2.0 + 3.0 * t * t))[:order + 1]


def _exp_rows(values, order):
    return (_kernel(math.exp, values),) * (order + 1)


def _log_rows(values, order):
    """log v, 1/v and c / v ** k. A power v ** k that overflows raises, as
    Python's does; one that underflows leaves an infinite row, as 1/v is
    for v below about 5.6e-309, which `_derivatives` refuses."""
    _refuse(values <= 0.0, values, "log of non-positive value")
    # v ** k in Python floats, which numpy's power does not always round alike
    powers = [_mapped(math.pow, values, k) for k in range(2, order + 1)]
    rows = [_kernel(math.log, values), 1.0 / values]
    rows += [c / p for c, p in zip((-1.0, 2.0, -6.0), powers)]
    return rows[:order + 1]


def _nonvanishing(rows, values):
    """Derivative rows of a function whose derivatives never vanish, as sqrt's
    and a fractional power's: a zero at a finite value has underflowed (a
    denominator overflowed, or a power underflowed), and becomes NaN, which
    `_derivatives` refuses."""
    finite = np.isfinite(values)
    return [np.where((row == 0.0) & finite, np.nan, row) for row in rows]


def _sqrt_rows(values, order):
    _refuse(values <= 0.0 if order else values < 0.0, values, "sqrt of non-positive value")
    denominators = [_kernel(math.sqrt, values)]  # s, s*v, s*v*v, s*v*v*v
    for _ in range(order - 1):
        denominators.append(denominators[-1] * values)
    rows = [c / d for c, d in zip((0.5, -0.25, 0.375, -0.9375)[:order], denominators)]
    return denominators[:1] + _nonvanishing(rows, values)


def _sinh_rows(values, order):
    s, c = _kernel(math.sinh, values), _kernel(math.cosh, values)
    return (s, c, s, c, s)[:order + 1]


def _cosh_rows(values, order):
    c, s = _kernel(math.cosh, values), _kernel(math.sinh, values)
    return (c, s, c, s, c)[:order + 1]


def _power_rows(values, order, exponent):
    _refuse(values <= 0.0, values, "fractional power of non-positive value")
    rows, coef = [_kernel(math.pow, values, exponent)], 1.0
    for k in range(1, order + 1):
        coef *= exponent - (k - 1)
        rows.append(coef * _kernel(math.pow, values, exponent - k))
    return rows[:1] + _nonvanishing(rows[1:], values)


def _elementary(tower):
    """The jet function f(a) whose derivative tower is `tower`."""
    def f(a):
        return _compose(a, _derivatives(tower, a))
    f.__name__ = f.__qualname__ = tower.__name__[1:].removesuffix("_rows")
    return f


sin, cos, tan, exp, log, sqrt, sinh, cosh = map(_elementary, (
    _sin_rows, _cos_rows, _tan_rows, _exp_rows, _log_rows, _sqrt_rows, _sinh_rows, _cosh_rows))
