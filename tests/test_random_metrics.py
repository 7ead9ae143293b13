"""Identities on random analytic metrics, beyond the six presets.

Each example is a config metric: the flat metric of signature (n, 0) or
(n-1, 1), n = 3 or 4 here (other tests pass other `dims`), with a small
sin or exp bump in two coordinates on every diagonal entry and a sin bump
on one off-diagonal entry.  The bumps
keep the metric diagonally dominant on the sampling box, so its signature
is the declared one, and make its Schouten, Weyl and Cotton-York tensors
generic.  At a random chart point the tractor connection is normal, and
on the slice the ambient curvature is the Weyl block plus the Cotton-York
row and its Ricci vanishes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tractor_forge.ambient import AmbientGeometry, ambient_point
from tractor_forge.curvature import stack_at
from tractor_forge.metric import metric_jet, parse_config, signature_of
from tractor_forge.tractor import normality_check

_COEFF = st.floats(-1.0, 1.0).map(lambda v: round(v, 4))
_AMPLITUDE = st.floats(0.02, 0.1).map(lambda v: round(v, 4))


def _pair(n):
    return st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)


@st.composite
def _bump(draw, n, fns=("sin", "exp")):
    """amp*fn(b*xi + c*xj) for fn in fns: at most 0.1*e^1 on the box."""
    i, j = draw(_pair(n))
    fn = draw(st.sampled_from(fns))
    amp, b, c = draw(_AMPLITUDE), draw(_COEFF), draw(_COEFF)
    return f"{amp}*{fn}({b}*x{i} + {c}*x{j})"


@st.composite
def _config(draw, dims=(3, 4)):
    n = draw(st.sampled_from(dims))
    lorentzian = draw(st.booleans())
    lines = [f"dim = {n}", f"signature = {n - 1},1" if lorentzian else f"signature = {n},0"]
    for i in range(1, n + 1):
        one = "-1" if lorentzian and i == 1 else "1"
        lines.append(f"g[{i}][{i}] = {one} + {draw(_bump(n))}")
    i, j = draw(_pair(n))
    lines.append(f"g[{i}][{j}] = {draw(_bump(n, ('sin',)))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=16, deadline=None, derandomize=True)
@given(text=_config(), data=st.data())
def test_normal_connection_and_ambient_curvature_on_random_metrics(text, data):
    spec = parse_config(text)
    n = spec.n
    x = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
    assert signature_of(metric_jet(spec, x).g) == spec.signature
    stack = stack_at(spec, x)

    rep = normality_check(stack)
    assert rep["pass"], rep

    geom = AmbientGeometry(spec)
    p = ambient_point(0.0, x, 1.0)
    pairs = geom.curvature_all_pairs(p)
    # R(d_i, d_j) on slice-tangent vectors: no S-component, the Weyl
    # endomorphism in the tangent block and -CY(d_i, d_j, .) in the Q-row
    block = pairs[1:-1, 1:-1, :, 1:-1]
    want = np.zeros_like(block)
    want[:, :, 1:-1] = np.einsum("lm,ijmk->ijlk", stack.ginv, stack.W)
    want[:, :, -1] = -stack.CY
    assert float(np.max(np.abs(block - want))) <= 1e-7

    assert float(np.max(np.abs(geom.ricci(pairs)))) <= 1e-7
