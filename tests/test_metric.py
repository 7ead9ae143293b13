"""Metric specs, presets, jets, and the config-file grammar."""

import ast
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from test_random_metrics import _config

from tractor_forge import expr as ex
from tractor_forge import metric as metric_mod
from tractor_forge.metric import (PRESET_NAMES, ChartDomainError, MetricError,
                                  MetricSpec, SingularMetricError, metric_jet,
                                  parse_config, preset, signature_of)
from tractor_forge.transport import TractorOracle

# exp, log and sqrt entries with an off-diagonal coupling; positive
# definite on the default sampling box [-0.8, 0.8]^3
TRANSCENDENTAL_CONFIG = """
dim = 3
g[1][1] = exp(0.3*x1) + 0.1*log(2 + x2)
g[2][2] = sqrt(2 + x3*x1)
g[3][3] = 1 + x2^2/(3 + x1)
g[1][3] = 0.1*sin(x1*x2)
"""


def test_preset_names_and_dims():
    assert preset("flat", n=5).n == 5
    assert preset("sphere").n == 3
    assert preset("ppwave").n == 4
    with pytest.raises(MetricError):
        preset("nope")
    with pytest.raises(MetricError):
        preset("flat", n=2)
    with pytest.raises(MetricError):
        preset("ppwave", n=3)
    with pytest.raises(MetricError):
        preset("sphere", bogus=1.0)


def test_sphere_jet_values():
    spec = preset("sphere")
    x = np.array([0.2, -0.1, 0.3])
    jet = metric_jet(spec, x)
    c = 4.0 / (1.0 + float(x @ x)) ** 2
    assert jet.g == pytest.approx(c * np.eye(3))
    assert jet.ginv @ jet.g == pytest.approx(np.eye(3))
    # derivative of the conformal factor
    dc = -16.0 * x[1] / (1.0 + float(x @ x)) ** 3
    assert jet.dg[1, 0, 0] == pytest.approx(dc)


def test_jet_symmetries():
    spec = preset("bumpy", eps=0.1)
    jet = metric_jet(spec, np.array([0.3, 0.1, -0.2]))
    assert np.max(np.abs(jet.g - jet.g.T)) == 0.0
    assert jet.d2g == pytest.approx(jet.d2g.transpose(1, 0, 2, 3))
    assert jet.d3g == pytest.approx(jet.d3g.transpose(2, 0, 1, 3, 4))


def test_jet_order_two_skips_third_derivatives():
    spec = preset("sphere")
    x = np.array([0.1, 0.2, 0.3])
    j2 = metric_jet(spec, x, order=2)
    j3 = metric_jet(spec, x, order=3)
    for name in ("g", "dg", "d2g", "ginv"):
        assert np.array_equal(getattr(j2, name), getattr(j3, name)), name
    assert j2.d3g is None and metric_jet(spec, np.stack([x, x]), order=2).d3g is None
    with pytest.raises(MetricError):
        metric_jet(spec, x, order=1)


def test_signature_at():
    assert signature_of(metric_jet(preset("sphere"), np.zeros(3)).g) == (3, 0)
    assert signature_of(metric_jet(preset("ppwave"), np.array([0.1, 0.2, 0.3, 0.4])).g) == (3, 1)


def test_singular_metric_rejected():
    zero, one = ex.const(0.0), ex.const(1.0)
    x1 = ex.var(0)
    rows = ((x1, zero, zero), (zero, one, zero), (zero, zero, one))
    spec = MetricSpec(3, rows, (3, 0))
    with pytest.raises(SingularMetricError):
        metric_jet(spec, np.array([0.0, 0.5, 0.5]))


_HUGE_ENTRY = "dim = 4\ng[1][1] = 1e100\ng[2][2] = 1\ng[3][3] = 1\ng[4][4] = 1\n"
_STEEP_ENTRY = "dim = 3\ng[1][1] = exp(400*x1)\ng[2][2] = 1\ng[3][3] = 1\n"


@pytest.mark.parametrize("text, good, x", [(_HUGE_ENTRY, [], [0.1, 0.2, 0.3, 0.4]),
                                           (_STEEP_ENTRY, [[0.0, 0.1, 0.2]], [1.0, 0.0, 0.0])],
                         ids=["huge", "steep"])
@pytest.mark.parametrize("order", [2, 3])
def test_singularity_bound_of_large_entries_does_not_overflow(text, good, x, order):
    # max|g_ij| max|g^ij| is 1e100 and e^400, far past the condition limit 1e12,
    # though max|g_ij|^n is past the float range
    spec, x = parse_config(text), np.array(x)
    with pytest.raises(SingularMetricError) as alone:
        metric_jet(spec, x, order)
    assert str(alone.value).startswith(f"metric singular at {x.tolist()}")
    with pytest.raises(SingularMetricError) as batched:  # the first singular row's message
        metric_jet(spec, np.array(good + [x, 0.5 * x]), order)
    assert str(batched.value) == str(alone.value)


@pytest.mark.filterwarnings("error")
def test_large_well_scaled_metric_is_not_singular():
    # max|g_ij| max|g^ij| = 1, though det = 1e360 overflows a float, and
    # metric_jet lets no overflow warning through
    spec = parse_config("dim = 3\ng[1][1] = 1e120\ng[2][2] = 1e120\ng[3][3] = 1e120\n")
    for x in (np.zeros(3), np.zeros((2, 3))):
        jet = metric_jet(spec, x)
        assert np.array_equal(jet.ginv, np.broadcast_to(1e-120 * np.eye(3), jet.g.shape))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", [2, 3])
def test_one_large_entry_of_a_well_conditioned_metric_is_not_singular(order):
    # det = 1e5 lies below 1e-12 max|g_ij|^4 = 1e8, but max|g_ij| max|g^ij| = 1e5
    spec = parse_config("dim = 4\ng[1][1] = 1e5\ng[2][2] = 1\ng[3][3] = 1\ng[4][4] = 1\n")
    want = np.diag([1e-5, 1.0, 1.0, 1.0])
    points = np.random.default_rng(2).uniform(-0.5, 0.5, (3, 4))
    for x in (points[0], points):
        jet = metric_jet(spec, x, order)
        assert jet.ginv == pytest.approx(np.broadcast_to(want, jet.g.shape), rel=1e-15, abs=0)


def test_chart_domain_enforced():
    spec = preset("sphere")
    with pytest.raises(ChartDomainError):
        metric_jet(spec, np.array([5.0, 0.0, 0.0]))


@pytest.mark.parametrize("name", ["bumpy", "flat", "ppwave"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_point_is_outside_the_chart(name, value):
    spec = preset(name)  # no declared chart domain
    x = np.full(spec.n, 0.1)
    x[0] = value
    with pytest.raises(ChartDomainError):
        metric_jet(spec, x)
    with pytest.raises(ChartDomainError):
        TractorOracle(spec).omega(x, np.ones(spec.n))


def test_sample_points_deterministic_and_in_domain():
    spec = preset("hyperbolic")
    rng = np.random.default_rng(7)
    pts = spec.sample_points(rng, 6)
    pts2 = spec.sample_points(np.random.default_rng(7), 6)
    assert pts == pytest.approx(pts2)
    for p in pts:
        assert spec.contains(p)


def test_parse_config_explicit_entries():
    text = """
    # diagonal metric with one off-diagonal coupling
    dim = 3
    signature = 3,0
    g[1][1] = 1 + 0.1*sin(x1 + x2)
    g[2][2] = 1
    g[3][3] = 1
    g[1][2] = 0.05*x3
    """
    spec = parse_config(text)
    jet = metric_jet(spec, np.array([0.2, 0.1, 0.4]))
    assert jet.g[0, 1] == pytest.approx(0.02)
    assert jet.g[1, 0] == pytest.approx(0.02)
    assert jet.g[0, 0] == pytest.approx(1 + 0.1 * np.sin(0.3))


def test_parse_config_preset_form():
    spec = parse_config("preset = bumpy\nparam.eps = 0.2\nparam.n = 3\n")
    assert spec.n == 3
    jet = metric_jet(spec, np.zeros(3))
    assert jet.g[0, 0] == pytest.approx(1.0)


def test_parse_config_errors():
    with pytest.raises(MetricError):
        parse_config("signature = 3,0\n")  # no dim or preset
    with pytest.raises(MetricError):
        parse_config("dim = 3\nbogus = 1\n")
    with pytest.raises(MetricError):
        parse_config("dim = 3\ng[4][1] = 1\n")
    with pytest.raises(MetricError):
        parse_config("dim = 3\ng[1][1] = +++\n")


def _reference_partials(spec, order):
    """Every entry of the jet's flat layout (blocks g, dg, ... each in C
    order), as the jet builds it but by plain recursive `derivative`, with
    no memo: a partial differentiates the one of its sorted multi-index
    without the first index, so the last index is differentiated first."""
    n = spec.n
    partials, exprs = {}, []  # (i, j, sorted multi-index) -> Expr
    for k in range(order + 1):
        for index in np.ndindex((n,) * (k + 2)):
            i, j, multi = min(index[k:]), max(index[k:]), tuple(sorted(index[:k]))
            if (i, j, multi) not in partials:
                partials[i, j, multi] = (ex.derivative(partials[i, j, multi[1:]], multi[0])
                                         if multi else spec.entries[i][j])
            exprs.append(partials[i, j, multi])
    return exprs


def _oracle_jet(spec, x, order):
    """[g, dg, d2g, d3g] from tree-walking `evaluate` of each symbolic
    partial of `_reference_partials`, so the values must agree exactly."""
    n, exprs, values = spec.n, _reference_partials(spec, order), {}
    for e in exprs:  # the list keeps every id in use
        if id(e) not in values:
            values[id(e)] = ex.evaluate(e, x)
    flat = np.array([values[id(e)] for e in exprs])
    bounds = np.cumsum([0] + [n ** (k + 2) for k in range(order + 1)])
    return [flat[lo:hi].reshape((n,) * (k + 2))
            for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]


@pytest.mark.parametrize("name", PRESET_NAMES + ("config",))
def test_compiled_jet_equals_evaluate_exactly(name):
    spec = parse_config(TRANSCENDENTAL_CONFIG) if name == "config" else preset(name)
    for x in spec.sample_points(np.random.default_rng(13), 2):
        for order in (2, 3):
            jet = metric_jet(spec, x, order)
            got = (jet.g, jet.dg, jet.d2g, jet.d3g)[:order + 1]
            want = _oracle_jet(spec, x, order)[:order + 1]
            for k, (a, b) in enumerate(zip(got, want, strict=True)):
                assert np.array_equal(a, b), (name, order, k)


def _assert_table_is_the_plain_build(spec):
    """The memoised order-2 and order-3 tables of a spec built just now
    equal those compiled from `_reference_partials` in source, constants
    and columns."""
    for order in (2, 3):
        got = metric_mod._JetEvaluator(spec, order).table
        want = ex.compile_exprs(_reference_partials(spec, order))
        assert (got.source, got.constants, got.columns) == \
            (want.source, want.constants, want.columns), (spec.name, spec.n, order)


def test_memoised_jet_tables_equal_the_plain_recursive_build():
    """Every preset at n = 3 and 5 where it allows them, and the config
    metric.  Each spec is built after the previous one is dropped, so
    freed nodes' ids are reused between builds, as a memo that outlived
    its build would show."""
    for name in PRESET_NAMES:
        for n in (4,) if name in ("ppwave", "s2xs2") else (3, 5):
            _assert_table_is_the_plain_build(preset(name, n=n))
            gc.collect()
    _assert_table_is_the_plain_build(parse_config(TRANSCENDENTAL_CONFIG))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(text=_config(dims=(3, 4, 5)))
def test_memoised_jet_tables_equal_the_plain_build_on_random_metrics(text):
    _assert_table_is_the_plain_build(parse_config(text))


def test_sphere_order_three_table_has_one_assignment_per_subexpression():
    spec = preset("sphere")
    metric_jet(spec, np.zeros(3))
    tree = ast.parse(spec._jet_tables[3].table.source)
    assert sum(isinstance(node, ast.Assign) for node in ast.walk(tree)) <= 266


@pytest.mark.parametrize("name, order, distinct, returned",
                         [("ppwave", 2, 3, 336), ("ppwave", 3, 3, 1360), ("s2xs2", 3, 20, 1360),
                          ("sphere", 3, 20, 360), ("bumpy", 3, 24, 360), ("flat", 2, 0, 117),
                          ("flat", 3, 0, 360)])
def test_jet_table_returns_each_distinct_value_once(name, order, distinct, returned):
    spec = preset(name)
    x = spec.sample_points(np.random.default_rng(3), 1)[0]
    metric_jet(spec, x, order)
    table = spec._jet_tables[order].table
    # one expression per entry of the jet's layout, each distinct value computed once
    assert len(table.function(x.tolist())) == distinct
    assert table.rows([x.tolist()]).shape == (1, returned)
    assert max(table.columns) + 1 == distinct + len(table.constants)


def test_jet_tables_live_on_the_spec(monkeypatch):
    compiled = []
    real = metric_mod.compile_exprs
    monkeypatch.setattr(metric_mod, "compile_exprs",
                        lambda exprs: compiled.append(1) or real(exprs))
    spec = preset("bumpy", eps=0.1)
    for x in spec.sample_points(np.random.default_rng(2), 3):
        metric_jet(spec, x)
    table = spec._jet_tables[3]
    metric_jet(spec, np.zeros(3))
    assert len(compiled) == 1 and spec._jet_tables[3] is table
    # the cache is not part of the spec's value
    assert spec == preset("bumpy", eps=0.1)
    assert hash(spec) == hash(preset("bumpy", eps=0.1))
    ref = weakref.ref(spec)
    del spec, table
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("text, bad", [("log(x1)", -0.5), ("sqrt(x1)", -1.0),
                                       ("1 / x1", 0.0), ("x1^-2", 0.0)])
def test_jet_domain_errors_raise(text, bad):
    spec = parse_config(f"dim = 3\ng[1][1] = 2 + {text}\n")
    with pytest.raises(ex.EvaluationDomainError):
        metric_jet(spec, np.array([bad, 0.1, 0.2]))
