"""The two routes to Ricci agree.

`connection_at` contracts Ricci straight from the order-2 jet (no dGamma,
no Riemann tensor); `compute_stack` traces the Riemann tensor it keeps.
Their Ric, Scal, P and Psharp must agree within 1e-13 of
max(1, max|field|) on the presets and on random config metrics up to
n = 5, and a batch of points must still give each point's own result bit
for bit.  The Levi-Civita oracle's curvature reads the stack's Riemann
tensor.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from test_random_metrics import _config

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


def _check_routes(spec, xs):
    conn = connection_at(spec, xs)
    stack = compute_stack(metric_jet(spec, xs))
    for name in _RICCI_FIELDS:
        got, want = np.asarray(getattr(conn, name)), np.asarray(getattr(stack, name))
        assert got.shape == want.shape, name
        scale = max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(got - want))) <= TOL * scale, name
    for i, x in enumerate(xs):
        single = connection_at(spec, x)
        for name in _RICCI_FIELDS + ("Gamma",):
            assert np.array_equal(np.asarray(getattr(conn, name))[i], getattr(single, name)), \
                (name, i)


@pytest.mark.parametrize("name", PRESET_NAMES)
@SETTINGS
@given(data=st.data())
def test_contracted_ricci_equals_traced_riemann_on_presets(name, data):
    spec = SPECS[name]
    _check_routes(spec, data.draw(_points(spec, spec.domain_box())))


@pytest.mark.parametrize("n", [3, 4, 5])
@settings(max_examples=6, deadline=None, derandomize=True, phases=PHASES)
@given(data=st.data())
def test_contracted_ricci_equals_traced_riemann_on_random_metrics(n, data):
    spec = parse_config(data.draw(_config(dims=(n,))))
    _check_routes(spec, data.draw(_points(spec, [(-0.5, 0.5)] * n)))


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
