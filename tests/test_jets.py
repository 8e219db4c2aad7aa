"""Forward-mode jet arithmetic against finite-difference oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsub.expr import eval_expr, parse_expression
from confsub.jets import (EvaluationError, Jet, JetSpace, _reciprocal, primal,
                          scos, sdiv, sexp, slog, spow, ssin, ssqrt)

# scalar test functions paired with their closed-form derivatives
FUNCS = [
    (sexp, math.exp, math.exp, math.exp),
    (slog, math.log, lambda x: 1 / x, lambda x: -1 / x ** 2),
    (ssin, math.sin, math.cos, lambda x: -math.sin(x)),
    (scos, math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x)),
    (ssqrt, math.sqrt, lambda x: 0.5 / math.sqrt(x),
     lambda x: -0.25 * x ** -1.5),
]


def one_var_jet(x, order=2):
    space = JetSpace(1, order)
    return space.seed([x], [[1.0]])[0], space


@pytest.mark.parametrize("sfunc,f,df,d2f", FUNCS)
@pytest.mark.parametrize("x", [0.3, 1.0, 2.7])
def test_unary_derivatives_closed_form(sfunc, f, df, d2f, x):
    jet, _ = one_var_jet(x)
    out = sfunc(jet)
    assert out.val == pytest.approx(f(x), rel=1e-12)
    assert out.grad[0] == pytest.approx(df(x), rel=1e-12)
    assert out.hess[0][0] == pytest.approx(d2f(x), rel=1e-12)


def composite(x):
    return sexp(ssin(x) * x) / (1 + x * x) + slog(2 + scos(x))


def composite_float(x):
    return math.exp(math.sin(x) * x) / (1 + x * x) + math.log(2 + math.cos(x))


@pytest.mark.parametrize("x", [-1.2, -0.4, 0.0, 0.9, 2.3])
def test_composite_against_finite_differences(x):
    jet, _ = one_var_jet(x)
    out = composite(jet)
    h = 1e-6
    fd1 = (composite_float(x + h) - composite_float(x - h)) / (2 * h)
    h2 = 1e-4  # larger step: the second difference loses ~8 digits to cancellation
    fd2 = (composite_float(x + h2) - 2 * composite_float(x)
           + composite_float(x - h2)) / h2 ** 2
    assert out.val == pytest.approx(composite_float(x), rel=1e-12)
    assert out.grad[0] == pytest.approx(fd1, rel=1e-6)
    assert out.hess[0][0] == pytest.approx(fd2, rel=1e-4, abs=1e-4)


def test_multivariate_hessian_symmetry_and_mixed_partial():
    space = JetSpace(2, 2)
    x, y = space.seed([0.7, -0.3], [[1.0, 0.0], [0.0, 1.0]])
    out = sexp(x * y) + ssin(x) * scos(y)
    hess = np.array(out.hess)
    assert hess[0, 1] == hess[1, 0]
    expected = ((0.7 * -0.3 + 1) * math.exp(0.7 * -0.3)
                - math.cos(0.7) * math.sin(-0.3))
    assert hess[0, 1] == pytest.approx(expected, rel=1e-12)


def test_rational_power_and_reciprocal():
    jet, _ = one_var_jet(4.0)
    out = spow(jet, -2)
    assert out.val == pytest.approx(1 / 16)
    assert out.grad[0] == pytest.approx(-2 * 4.0 ** -3)
    half = jet ** 1  # integer power via operator
    assert half.val == 4.0


def test_nested_jets_second_order_through_first_order_levels():
    # a jet whose coefficients are jets differentiates a derivative:
    # d/dx of (d/dx x^3) = 6x
    outer = JetSpace(1, 1)
    inner = JetSpace(1, 1)
    x0 = 1.3
    inner_x = inner.seed([x0], [[1.0]])[0]
    outer_x = outer.seed([inner_x], [[inner.constant(1.0)]])[0]
    cubed = outer_x * outer_x * outer_x
    d1 = cubed.grad[0]          # inner jet: 3x^2 and its derivative
    assert primal(d1) == pytest.approx(3 * x0 ** 2)
    assert d1.grad[0] == pytest.approx(6 * x0)


def test_domain_errors_are_loud():
    jet, _ = one_var_jet(-1.0)
    with pytest.raises(EvaluationError):
        slog(jet)
    with pytest.raises(EvaluationError):
        ssqrt(jet)
    zero, _ = one_var_jet(0.0)
    with pytest.raises(EvaluationError):
        1.0 / zero


@settings(max_examples=30, deadline=None)
@given(x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0))
def test_product_rule_property(x, y):
    space = JetSpace(1, 1)
    jx = space.seed([x], [[1.0]])[0]
    f = ssin(jx)
    g = sexp(jx) + jx * jx
    prod = f * g
    assert prod.grad[0] == pytest.approx(
        f.grad[0] * g.val + f.val * g.grad[0], rel=1e-12, abs=1e-12)
    s = f + g
    assert s.grad[0] == pytest.approx(f.grad[0] + g.grad[0],
                                      rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(0.2, 3.0))
def test_quotient_chain_property(x):
    jet, _ = one_var_jet(x)
    out = slog(jet) / jet
    expected = (1 - math.log(x)) / x ** 2
    assert out.grad[0] == pytest.approx(expected, rel=1e-10)


# -- values over a point axis -------------------------------------------

_BATCH = np.array([-2.5, -0.3, 0.7, 1.9])


@pytest.mark.parametrize("text", [
    "x^(1/3)", "x^(2/3)", "x^(-1/3)", "x^(5/3)", "x^-2", "x^3", "exp(x)",
    "log(x^2 + 1)", "sin(x)*cos(x)", "sqrt(x^2)", "1/x", "x/(x^2 + 1)"])
def test_array_values_and_jets_match_each_point(text):
    # one evaluation over a point axis gives every point's value and
    # first and second derivatives, bit for bit, as the float evaluation
    # of that point
    node = parse_expression(text, {"x"})
    with np.errstate(all="raise"):
        got = eval_expr(node, {"x": _BATCH})
        space = JetSpace(1, 2)
        jet = eval_expr(node, {"x": space.seed([_BATCH], [[1.0]])[0]})
    for i, x in enumerate(_BATCH):
        ref = eval_expr(node, {"x": float(x)})
        ref_jet = eval_expr(node, {"x": one_var_jet(float(x))[0]})
        assert got[i] == ref
        assert jet.val[i] == ref_jet.val
        assert np.asarray(jet.grad[0])[i] == ref_jet.grad[0]
        assert np.asarray(jet.hess[0][0])[i] == ref_jet.hess[0][0]


@pytest.mark.parametrize("text,message", [
    ("log(x)", "log of a non-positive value in 'log(x)'"),
    ("sqrt(x)", "sqrt of a negative value in 'sqrt(x)'"),
    ("x^(1/2)", "negative base with even-root exponent in 'x^(1/2)'"),
    ("1/(x + 0.3)", "division by zero in '1 / (x + 0.3)'"),
    ("(x + 0.3)^-1", "zero raised to a negative power in '(x + 0.3)^-1'"),
    ("exp(1000*x)", "non-finite value in exp in 'exp(1000 * x)'")])
def test_array_domain_errors_are_loud(text, message):
    # an element out of the domain raises the error that element raises
    # as a float
    node = parse_expression(text, {"x"})
    with np.errstate(all="ignore"):
        with pytest.raises(EvaluationError) as exc:
            eval_expr(node, {"x": _BATCH})
    assert str(exc.value) == message
    alone = set()
    for x in _BATCH:
        try:
            eval_expr(node, {"x": float(x)})
        except EvaluationError as point_exc:
            alone.add(str(point_exc))
    assert alone == {message}


# each scalar function with whether it takes negative arguments
_SCALAR_FUNCS = [
    ("exp", sexp, True), ("log", slog, False), ("sin", ssin, True),
    ("cos", scos, True), ("sqrt", ssqrt, False),
    ("reciprocal", _reciprocal, True),
    ("1 / x", lambda x: sdiv(1.0, x), True),
] + [(f"x^{r}", lambda x, r=r: spow(x, r), r.denominator % 2 == 1)
     for r in (Fraction(2), Fraction(3), Fraction(-1), Fraction(-2),
               Fraction(1, 2), Fraction(3, 2), Fraction(-3, 2),
               Fraction(1, 3), Fraction(2, 3), Fraction(-1, 3),
               Fraction(5, 3))]


@pytest.mark.parametrize("name,func,negative", _SCALAR_FUNCS,
                         ids=[f[0] for f in _SCALAR_FUNCS])
@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.tuples(st.floats(1e-3, 40.0), st.booleans()),
                       min_size=2, max_size=21), data=st.data())
def test_a_float_rounds_as_inside_an_array(name, func, negative, values,
                                           data):
    # a point's value does not depend on how many points share its
    # evaluation: a function gives on a float the bits it gives on that
    # float inside a larger array, wherever the float sits in it
    batch = np.array([-v if flip and negative else v for v, flip in values])
    at = data.draw(st.integers(0, len(batch) - 1))
    got = func(float(batch[at]))
    assert type(got) is float
    assert got.hex() == float(func(batch)[at]).hex(), name
