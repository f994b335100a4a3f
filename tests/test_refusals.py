"""The refusals of the library's entry points, each with its exact message:
jet construction and derivatives, expression parsing and evaluation, the
chart operators, the sample analysis and the report writers."""

import math

import numpy as np
import pytest

from bieigen import build_map, exprs, jets
from bieigen import report as rpt
from bieigen.analysis import analyze_samples, bienergy_quadrature
from bieigen.catalog import catalog_get
from bieigen.charts import laplacian_jet, laplacian_values, metric_frame

TORUS = build_map(catalog_get("clifford_torus_S3").manifest)[1]
CIRCLE = build_map(catalog_get("great_circle_S2").manifest)[1]


def _field(order):
    """An order-`order` jet of the first coordinate of TORUS's chart at one point."""
    return jets.variable(0, np.array([0.5]), order, 2)


def _frame(order=3):
    return metric_frame(TORUS.chart, [[0.5, 0.5]], order)


def _order0():
    return jets.variable(0, 0.1, 0, 1)


def _one_variable():
    return jets.variable(0, 0.1, 2, 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: jets.variable(0, 0.1, 5, 1), ValueError, "jet order must be in 0..4, got 5"),
    (lambda: jets.variable(0, 0.1, 2, 5), ValueError,
     "jet variable count must be in 1..4, got 5"),
    (lambda: jets.Jet(2, 1, np.zeros(4)), ValueError,
     "expected 3 coefficients for order 2 in 1 variables, got shape (4,)"),
    (lambda: _order0().extract_derivative(0), ValueError,
     "cannot differentiate an order-0 jet"),
    (lambda: _one_variable().extract_derivative(1), ValueError,
     "direction 1 out of range for 1 variables"),
    (lambda: jets.dot([_order0()], [_order0()], 0), ValueError,
     "cannot differentiate an order-0 jet"),
    (lambda: jets.dot([_one_variable()], [_one_variable()], 1), ValueError,
     "direction 1 out of range for 1 variables"),
    (lambda: jets.power(_one_variable(), "2"), TypeError,
     "jet exponent must be a constant number"),
    (lambda: exprs.parse("t^log(0)"), exprs.ParseError,
     "parse error at byte 1: invalid constant exponent (log of non-positive value 0.0)"),
    (lambda: exprs.eval_jet(exprs.parse("1"), {}), ValueError,
     "jet environment must bind at least one variable"),
    (lambda: metric_frame(TORUS.chart, [0.5]), ValueError,
     "point has 1 coordinates, chart has 2"),
    (lambda: laplacian_jet(_frame(), _field(1)), ValueError,
     "Laplacian needs a field jet of order >= 2"),
    (lambda: laplacian_jet(_frame(1), _field(4)), ValueError,
     "metric frame order 1 too low for a field of order 4"),
    (lambda: laplacian_values(_frame(), [_field(3), _field(2)]), ValueError,
     "fields must be order-3 jets in 2 variables at one block"),
    (lambda: analyze_samples(CIRCLE, []), ValueError, "no sample points"),
    (lambda: bienergy_quadrature(CIRCLE, 0), ValueError, "grid must be at least 1"),
    (lambda: rpt.to_json({1: 2}), TypeError, "JSON keys must be strings, got 1"),
    (lambda: rpt.to_json({"a": object()}), TypeError, "cannot serialize object to JSON"),
    (lambda: rpt.format_float(math.inf), rpt.NonFiniteError,
     "refusing to serialize non-finite value inf"),
], ids=["jet_order", "jet_variables", "jet_shape", "derivative_of_order_0",
        "derivative_direction", "dot_derivative_of_order_0", "dot_derivative_direction",
        "string_exponent", "log_of_zero_exponent", "empty_environment", "point_length",
        "laplacian_of_order_1", "frame_order_too_low", "fields_of_two_orders",
        "no_samples", "grid_zero", "non_string_key", "unknown_type", "infinite_float"])
def test_each_refusal_names_its_cause(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
