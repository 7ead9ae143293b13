"""Symbolic expression layer: parsing, evaluation, differentiation."""

import math

import numpy as np
import pytest

from tractor_forge import expr as ex


def test_parse_and_evaluate():
    e = ex.parse_expr("x1^2 + 3*x2 - sin(x3)", 3)
    x = (0.7, -0.4, 0.2)
    assert ex.evaluate(e, x) == pytest.approx(0.49 - 1.2 - math.sin(0.2))


def test_parse_precedence_and_unary_minus():
    e = ex.parse_expr("-x1^2", 1)
    assert ex.evaluate(e, (3.0,)) == -9.0
    e = ex.parse_expr("2 + 3 * 4 ^ 2", 1)
    assert ex.evaluate(e, (0.0,)) == 50.0


def test_parse_errors():
    with pytest.raises(ex.ParseError):
        ex.parse_expr("x1 +", 1)
    with pytest.raises(ex.ParseError):
        ex.parse_expr("x5", 3)
    with pytest.raises(ex.ParseError):
        ex.parse_expr("", 2)


def test_diff_matches_finite_difference():
    e = ex.parse_expr("exp(x1) * cos(x2) + x1 / (1 + x2^2)", 2)
    x = np.array([0.3, -0.6])
    h = 1e-6
    for k in range(2):
        d = ex.derivative(e, k)
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fd = (ex.evaluate(e, xp) - ex.evaluate(e, xm)) / (2 * h)
        assert ex.evaluate(d, x) == pytest.approx(fd, abs=1e-8)


def test_diff_of_constant_and_variable():
    assert ex.evaluate(ex.derivative(ex.const(5.0), 0), (1.0,)) == 0.0
    assert ex.evaluate(ex.derivative(ex.var(0), 0), (2.0,)) == 1.0
    assert ex.evaluate(ex.derivative(ex.var(0), 1), (2.0, 3.0)) == 0.0


def test_substitute_replaces_variable():
    e = ex.parse_expr("x1^2 + x2", 2)
    sub = ex.substitute(e, 0, ex.parse_expr("sin(x2)", 2))
    t = 0.8
    assert ex.evaluate(sub, (0.0, t)) == pytest.approx(math.sin(t) ** 2 + t)


def test_operator_overloading():
    x = ex.var(0)
    e = (x + 1.0) * (x - 2.0) / (x ** 2 + 1.0)
    v = 1.5
    assert ex.evaluate(e, (v,)) == pytest.approx((v + 1) * (v - 2) / (v * v + 1))


def _outputs(table, x):
    """The value of each compiled expression at x, as a tuple of floats."""
    return tuple(table.rows([x])[0].tolist())


def test_compile_exprs_matches_evaluate():
    exprs = [ex.parse_expr(t, 2) for t in ("x1*x2", "cos(x1) + x2^3")]
    table = ex.compile_exprs(exprs)
    x = (0.4, -1.2)
    got = _outputs(table, x)
    assert got[0] == pytest.approx(ex.evaluate(exprs[0], x))
    assert got[1] == pytest.approx(ex.evaluate(exprs[1], x))


def test_evaluation_domain_error():
    e = ex.parse_expr("log(x1)", 1)
    with pytest.raises(ex.EvaluationDomainError):
        ex.evaluate(e, (-1.0,))


def test_compile_exprs_shares_subexpressions_and_matches_evaluate_exactly():
    texts = ("sin(x1*x2)^2 + sin(x1*x2)", "exp(x1) / (1 + x2^2) - sqrt(2 + x1)",
             "-log(3 + x2) * x1^-3", "2.5")
    exprs = [ex.parse_expr(t, 2) for t in texts]
    table = ex.compile_exprs(exprs)
    assert table.source.count("sin(") == 1
    assert table.source.count("x0 * x1") == 1
    for x in ((0.4, -1.2), (-0.7, 0.3)):
        assert _outputs(table, x) == tuple(ex.evaluate(e, x) for e in exprs)


def test_compile_exprs_shares_code_between_tables_differing_in_constants():
    a = ex.compile_exprs([ex.parse_expr("2.5 * sin(x1) - 1", 1)])
    b = ex.compile_exprs([ex.parse_expr("0.5 * sin(x1) - 3", 1)])
    assert a.function.__code__ is b.function.__code__
    assert _outputs(a, (0.3,)) == (2.5 * math.sin(0.3) - 1.0,)
    assert _outputs(b, (0.3,)) == (0.5 * math.sin(0.3) - 3.0,)
    signed = _outputs(ex.compile_exprs([ex.const(-0.0), ex.const(0.0)]), ())
    assert [math.copysign(1.0, v) for v in signed] == [-1.0, 1.0]


def test_compile_exprs_returns_each_distinct_value_once():
    sin = ex.parse_expr("sin(x1)", 1)
    exprs = [sin, ex.const(2.0), ex.parse_expr("sin(x1)", 1), ex.var(0), ex.const(-0.0),
             ex.const(2.0), ex.const(0.0)]
    table = ex.compile_exprs(exprs)
    assert table.function((0.3,)) == (math.sin(0.3), 0.3)
    assert [(v, math.copysign(1.0, v)) for v in table.constants] == [(2.0, 1.0), (-0.0, -1.0),
                                                                     (0.0, 1.0)]
    assert table.columns == (0, 2, 0, 1, 3, 2, 4)
    assert _outputs(table, (0.3,)) == tuple(ex.evaluate(e, (0.3,)) for e in exprs)


def test_rows_equal_evaluate_exactly_with_signs_of_zeros():
    exprs = [ex.parse_expr(t, 2) for t in ("-x1", "x1 * x2", "sin(x2) - 1", "exp(x1) / x2")]
    exprs += [ex.const(-0.0), exprs[1], ex.const(0.0), ex.const(3.0)]
    table = ex.compile_exprs(exprs)
    assert table.rows([]).shape == (0, len(exprs))
    xs = [(0.0, -0.5), (0.3, 2.0), (-1.2, 0.7)]
    rows = table.rows(xs)
    want = np.array([[ex.evaluate(e, x) for e in exprs] for x in xs])
    assert rows.shape == want.shape == (len(xs), len(exprs))
    assert np.array_equal(rows, want) and np.array_equal(np.signbit(rows), np.signbit(want))
    assert np.signbit(rows[0, [0, 1, 4, 5]]).all()


def _rows_or_error(table, x):
    try:
        return table.rows([x])[0]
    except ex.EvaluationDomainError:
        return "domain error"


def _evaluate_or_error(exprs, x):
    try:
        return np.array([ex.evaluate(e, x) for e in exprs])
    except ex.EvaluationDomainError:
        return "domain error"


def test_bound_tables_equal_evaluate_at_the_bound_values_exactly():
    """A table compiled with Var(1..k) bound equals `evaluate` at (t, *values),
    signs of zeros and domain errors included, and every binding shares the
    table's code object and holds Python floats."""
    texts = ("x2 + x3 * x1", "x2 * sin(6.283185307179586 * x1) + x3 * (cos(x1) - 1)",
             "-x2 / x1", "x3", "2.5", "log(x2 - x1)", "sqrt(x3) * x2^-2", "x1 * x3")
    exprs = [ex.parse_expr(t, 3) for t in texts]
    table = ex.compile_exprs(exprs, bound=2)
    with pytest.raises(TypeError):  # unbound
        table.rows([(0.5,)])
    with pytest.raises(ValueError):
        table.bind((1.0,))
    for values in ((0.75, 0.3), (-0.0, 0.5), (0.0, -0.0), (np.float64(1.5), np.float64(-0.25))):
        bound = table.bind(values)
        assert bound.function.__code__ is table.function.__code__
        assert all(type(v) is float for v in bound.function.__defaults__)
        for t in (0.0, -0.0, 0.25, 1.0, -0.5):
            x = (t, *values)
            got, want = _rows_or_error(bound, (t,)), _evaluate_or_error(exprs, x)
            if isinstance(want, str):
                assert got == want, x
            else:
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                                    np.signbit(want)), x
