"""The two routes to Ricci and its first partials agree.

`connection_at` contracts Ricci straight from the order-2 jet, and at
order 3 its partials dRic from the order-3 jet (no d2Gamma, no Riemann
tensor); `compute_stack` traces the Riemann tensor it keeps and its
partials.  Their Ric, Scal, P and Psharp at both orders, and dRic and
dPsharp at order 3, must agree within 1e-13 of max(1, max|field|) on the
presets and on random config metrics up to n = 5, and at both orders a
batch of points must still give each point's own result bit for bit.
At order 3 along given directions (one per point, and three), dPsharp
must agree to the same bound with the stack's dPsharp contracted with
them, batched rows equal to one-point calls bit for bit.
The Levi-Civita oracle's curvature reads the stack's Riemann tensor.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from test_random_metrics import _config

from tractor_forge import curvature
from tractor_forge import transport as tp
from tractor_forge.curvature import compute_stack, connection_at, stack_at
from tractor_forge.metric import PRESET_NAMES, metric_jet, parse_config, preset

# no explain phase: on a failure of these tests it runs for minutes
PHASES = (Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink)
SETTINGS = settings(max_examples=10, deadline=None, derandomize=True, phases=PHASES)
SPECS = {name: preset(name) for name in PRESET_NAMES}
TOL = 1e-13
_RICCI_FIELDS = ("Ric", "Scal", "P", "Psharp")


def _points(spec, box, size=6):
    coord = st.tuples(*(st.floats(lo, hi) for lo, hi in box))
    return st.lists(coord, min_size=size, max_size=size).map(np.array)


def _directions(n, size=6, count=3):
    """(size, count, n) stacks of directions, `count` at each of `size` points."""
    vec = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    return st.lists(st.lists(vec, min_size=count, max_size=count),
                    min_size=size, max_size=size).map(np.array)


def _contracted_dricci(jet):
    """dRic by `connection_at`'s order-3 chain."""
    g, ginv, dg, d2g, d3g = curvature._batched(jet)
    c = curvature._christoffel(ginv, dg)
    c.update(curvature._christoffel_partials(ginv, dg, d2g, c))
    parts = curvature._contracted_ricci(ginv, dg, d2g, c)[1]
    return curvature._contracted_dricci(ginv, dg, d2g, d3g, c, parts)


def _traced_dricci(stack):
    """dRic from the stack's Schouten fields: Ric = (n-2) P + J g, J = tr_g P."""
    J = np.einsum("...ab,...ab->...", stack.ginv, stack.P)
    dJ = (np.einsum("...pab,...ab->...p", stack.dginv, stack.P)
          + np.einsum("...ab,...pab->...p", stack.ginv, stack.dP))
    return ((stack.n - 2) * stack.dP + dJ[..., None, None] * stack.g[..., None, :, :]
            + J[..., None, None, None] * stack.jet.dg)


def _assert_close(got, want, label):
    assert got.shape == want.shape, label
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= TOL * scale, label


def _check_routes(spec, xs, dirs):
    jet = metric_jet(spec, xs)
    stack = compute_stack(jet)
    for u in (dirs[:, :1], dirs):  # one direction per point, and several
        conn = connection_at(spec, xs, order=3, directions=u)
        _assert_close(conn.dPsharp, np.einsum("kcp,kpij->kcij", u, stack.dPsharp),
                      ("dPsharp along", u.shape[1]))
        for i, x in enumerate(xs):
            assert np.array_equal(conn.dPsharp[i],
                                  connection_at(spec, x, order=3, directions=u[i]).dPsharp), i
    for order in (2, 3):
        names = _RICCI_FIELDS + (("dPsharp",) if order == 3 else ())
        conn = connection_at(spec, xs, order=order)
        assert (conn.dPsharp is None) == (order == 2)
        for name in names:
            _assert_close(np.asarray(getattr(conn, name)), np.asarray(getattr(stack, name)),
                          (order, name))
        for i, x in enumerate(xs):
            single = connection_at(spec, x, order=order)
            for name in names + ("Gamma",):
                assert np.array_equal(np.asarray(getattr(conn, name))[i], getattr(single, name)), \
                    (order, name, i)
    _assert_close(_contracted_dricci(jet), _traced_dricci(stack), "dRic")


@pytest.mark.parametrize("name", PRESET_NAMES)
@SETTINGS
@given(data=st.data())
def test_contracted_ricci_equals_traced_riemann_on_presets(name, data):
    spec = SPECS[name]
    _check_routes(spec, data.draw(_points(spec, spec.domain_box())), data.draw(_directions(spec.n)))


@pytest.mark.parametrize("n", [3, 4, 5])
@settings(max_examples=6, deadline=None, derandomize=True, phases=PHASES)
@given(data=st.data())
def test_contracted_ricci_equals_traced_riemann_on_random_metrics(n, data):
    spec = parse_config(data.draw(_config(dims=(n,))))
    _check_routes(spec, data.draw(_points(spec, [(-0.5, 0.5)] * n)), data.draw(_directions(n)))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_levi_civita_curvature_pairs_read_the_stack_riemann(name):
    spec = SPECS[name]
    oracle = tp.LeviCivitaOracle(spec)
    xs = spec.sample_points(np.random.default_rng(12), 4) * 0.5
    batch = oracle.curvature_pairs(xs)
    for i, x in enumerate(xs):
        want = stack_at(spec, x).Riem.transpose(1, 2, 0, 3)  # [i,j,l,k] = R^l_{ijk}
        assert np.array_equal(batch[i], want), i
        assert np.array_equal(batch[i], oracle.curvature_pairs(x[None])[0]), i
