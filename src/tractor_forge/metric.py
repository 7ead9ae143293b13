"""Metric specifications in a single analytic chart, and point-wise jets.

A MetricSpec holds symbolic entries g_ij over coordinates x1..xn.  Jets
carry exact partial derivatives of g up to third order, which is the
depth the Cotton-York tensor needs (it differentiates the Schouten
tensor, hence Ricci, hence two Christoffel derivatives); an order-2 jet,
enough for the connection data, stops at the second and has no d3g.
Both are evaluated through one compiled `expr` table per spec and order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import (
    Const,
    Expr,
    ParseError,
    call,
    compile_exprs,
    const,
    derivative,
    parse_expr,
    var,
)

__all__ = [
    "MetricSpec",
    "MetricJet",
    "MetricError",
    "SingularMetricError",
    "ChartDomainError",
    "preset",
    "metric_jet",
    "load_config",
    "parse_config",
    "PRESET_NAMES",
]

PRESET_NAMES = ("flat", "sphere", "hyperbolic", "ppwave", "s2xs2", "bumpy")

# a metric whose condition estimate max|g_ij| max|g^ij| exceeds this is singular
_COND_LIMIT = 1e12
_SAMPLE_MARGIN = 0.8  # `MetricSpec.domain_box`: the share of the chart box sampled


class MetricError(ValueError):
    """Invalid metric specification or evaluation failure."""


class SingularMetricError(MetricError):
    """Metric matrix is (numerically) singular at the requested point."""


class ChartDomainError(MetricError):
    """Point lies outside the declared chart domain."""


@dataclass(frozen=True)
class MetricSpec:
    """Symmetric matrix of expressions plus declared signature.

    signature is (p, q) = (positive, negative) eigenvalue counts.
    chart_domain, when present, is a per-coordinate (lo, hi) box.
    """

    n: int
    entries: tuple  # tuple of tuples of Expr, symmetric
    signature: tuple
    chart_domain: tuple | None = None
    name: str = "custom"
    # compiled jet tables by order, filled by metric_jet; freed with the spec
    _jet_tables: dict = field(default_factory=dict, init=False, compare=False,
                              hash=False, repr=False)

    def __post_init__(self):
        if self.n < 3:
            raise MetricError("dimension must be at least 3")
        if len(self.entries) != self.n or any(len(row) != self.n for row in self.entries):
            raise MetricError("entries must form an n x n matrix")
        if self.entries != tuple(tuple(row[i] for row in self.entries) for i in range(self.n)):
            raise MetricError("entries matrix must be symmetric")
        p, q = self.signature
        if p + q != self.n or p < 0 or q < 0:
            raise MetricError(f"signature {self.signature} incompatible with n={self.n}")

    def contains(self, x) -> bool:
        if self.chart_domain is None:
            return True
        return all(lo <= xi <= hi for xi, (lo, hi) in zip(x, self.chart_domain))

    def domain_box(self):
        """Sampling box: the declared domain shrunk toward 0 by `_SAMPLE_MARGIN`,
        else [-_SAMPLE_MARGIN, _SAMPLE_MARGIN]^n."""
        if self.chart_domain is None:
            return [(-_SAMPLE_MARGIN, _SAMPLE_MARGIN)] * self.n
        return [(lo * _SAMPLE_MARGIN, hi * _SAMPLE_MARGIN) for lo, hi in self.chart_domain]

    def sample_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        box = self.domain_box()
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        return rng.uniform(lo, hi, size=(count, self.n))


@dataclass
class MetricJet:
    """Metric values and exact partials to order two or three at one point.

    Derivative indices come first: dg[k,i,j] = d_k g_ij,
    d2g[l,k,i,j] = d_l d_k g_ij, d3g[m,l,k,i,j] = d_m d_l d_k g_ij; d3g
    is None in an order-2 jet.  A jet of a (k, n) stack of points carries
    a leading batch axis of length k on every array.
    """

    point: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    d3g: np.ndarray | None
    ginv: np.ndarray
    spec: MetricSpec = field(repr=False)

    @property
    def n(self) -> int:
        return self.g.shape[-1]


class _JetEvaluator:
    """Compiled table of g and its symbolic partials up to `max_order`.

    The table lists its expressions in the jet's own flat layout: the
    blocks g, dg, d2g (and d3g at order three) one after another, each in
    C order of its (derivative..., i, j) index.  Every position of a
    partial, whatever the order of its derivative indices and of i, j,
    holds the same `Expr` object, built once by differentiating the
    partial of the sorted multi-index without its first index, so
    mixed-partial symmetry holds exactly and `compile_exprs` computes each
    distinct partial once.  All of the table's `derivative` calls share one
    memo, so a subtree shared between entries and partials (the sphere's
    conformal factor sits on every diagonal) is differentiated once per
    index, not once per path to it; the memo is dropped with the build.
    `jet` is the table's `rows` split at `bounds`.
    """

    def __init__(self, spec: MetricSpec, max_order: int):
        n = spec.n
        self.shapes = [(n,) * (order + 2) for order in range(max_order + 1)]
        self.bounds = np.cumsum([0] + [n ** (order + 2) for order in range(max_order + 1)])

        partials, exprs = {}, []  # (i, j, sorted multi-index) -> Expr, with i <= j
        memo = {}
        for shape in self.shapes:
            for index in np.ndindex(shape):
                i, j, multi = min(index[-2:]), max(index[-2:]), tuple(sorted(index[:-2]))
                key = (i, j, multi)
                if key not in partials:  # the lower orders are in already
                    partials[key] = (derivative(partials[i, j, multi[1:]], multi[0], memo)
                                     if multi else spec.entries[i][j])
                exprs.append(partials[key])
        self.table = compile_exprs(exprs)

    def jet(self, rows) -> list:
        """[g, dg, d2g] (then d3g at order three) at the k points `rows`
        (lists of floats), each with a leading batch axis of length k."""
        flat, k = self.table.rows(rows), len(rows)
        return [flat[:, lo:hi].reshape((k,) + shape)
                for lo, hi, shape in zip(self.bounds, self.bounds[1:], self.shapes)]


def metric_jet(spec: MetricSpec, x, order: int = 3) -> MetricJet:
    """Evaluate the metric jet to the requested order (2 or 3).

    x is one point, shape (n,), or a (k, n) stack of points; the jet of a
    stack has a leading batch axis whose rows equal the single-point jets.
    Every row is checked against the chart domain, where a non-finite
    coordinate counts as outside even without a declared domain, then for a
    singular metric; the error names the first row outside the chart, else
    the first singular row, as that row's own call would.
    """
    if order not in (2, 3):
        raise MetricError("jet order must be 2 or 3")
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != spec.n:
        raise MetricError(f"point must have {spec.n} coordinates")
    rows = x.reshape(-1, spec.n)
    points = rows.tolist()
    # One point is checked on Python floats, a stack on arrays: numpy's fixed
    # cost per call outweighs a one-point check, the loop's cost per row a stack's.
    one = len(points) == 1
    if one:
        inside = [all(map(math.isfinite, points[0])) and spec.contains(points[0])]
    else:
        inside = np.isfinite(rows).all(axis=1)
        if spec.chart_domain is not None:
            lo, hi = np.array(spec.chart_domain).T
            inside &= ((lo <= rows) & (rows <= hi)).all(axis=1)
        inside = inside.tolist()
    if not all(inside):
        raise ChartDomainError(f"point {points[inside.index(False)]} outside chart domain")
    evaluator = spec._jet_tables.get(order)
    if evaluator is None:
        evaluator = spec._jet_tables[order] = _JetEvaluator(spec, order)
    g, dg, d2g, d3g = evaluator.jet(points) + [None] * (3 - order)
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:  # some row has no inverse: its g^-1 counts as inf
        ginv = np.full_like(g, np.inf)
        for row, matrix in enumerate(g):
            try:
                ginv[row] = np.linalg.inv(matrix)
            except np.linalg.LinAlgError:
                pass
    # max|g_ij| max|g^ij| estimates the condition number of each row; a large
    # entry with a well-scaled inverse passes, however large |det g|, and a
    # non-finite estimate fails.  One row is checked on Python floats, as above.
    if one:
        cond = [max(map(abs, g.ravel().tolist())) * max(map(abs, ginv.ravel().tolist()))]
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            cond = (np.abs(g).max(axis=(1, 2)) * np.abs(ginv).max(axis=(1, 2))).tolist()
    singular = [not c <= _COND_LIMIT for c in cond]
    if any(singular):
        row = singular.index(True)
        raise SingularMetricError(
            f"metric singular at {points[row]} (max|g| max|g^-1| = {cond[row]:.3e})")
    if x.ndim == 1:
        g, dg, d2g, ginv = g[0], dg[0], d2g[0], ginv[0]
        d3g = None if d3g is None else d3g[0]
    return MetricJet(point=x, g=g, dg=dg, d2g=d2g, d3g=d3g, ginv=ginv, spec=spec)


def signature_of(g) -> tuple:
    """(positive, negative) eigenvalue counts of the metric matrix g."""
    eigs = np.linalg.eigvalsh(g)
    return int(np.sum(eigs > 0)), int(np.sum(eigs < 0))


# -- presets ------------------------------------------------------------------


def _delta(n: int, diag: Expr | None = None):
    zero, one = const(0.0), const(1.0)
    d = one if diag is None else diag
    return tuple(tuple(d if i == j else zero for j in range(n)) for i in range(n))


def _conformal_round(n: int, offsets, sign: float, radius: float) -> Expr:
    """Conformal factor 4 r^4 / (r^2 +/- |x|^2)^2 over the listed coordinates."""
    r2 = const(radius * radius)
    norm = r2
    for k in offsets:
        norm = norm + (var(k) ** 2 if sign > 0 else -(var(k) ** 2))
    return const(4.0 * radius**4) / (norm**2)


def _number(kind, value, what: str):
    """kind(value) when value is a finite number, and an integral one if kind
    is int, else a MetricError naming `what`.  Booleans are not numbers here."""
    try:
        out = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if not math.isfinite(out) or (kind is int and not out.is_integer()):
        noun = "an integer" if kind is int else "a finite number"
        raise MetricError(f"{what} must be {noun}, got {value!r}")
    return kind(out)


def preset(name: str, **params) -> MetricSpec:
    """Built-in metrics; params supply n, radius, eps where applicable."""
    if name not in PRESET_NAMES:
        raise MetricError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    n = _number(int, params.pop("n", 4 if name in ("ppwave", "s2xs2") else 3), "parameter n")
    if name in ("ppwave", "s2xs2") and n != 4:
        raise MetricError(f"preset {name!r} requires n=4")
    if n < 3:
        raise MetricError("dimension must be at least 3")

    if name == "flat":
        spec = MetricSpec(n, _delta(n), (n, 0), name=name)
    elif name == "sphere":
        radius = _number(float, params.pop("radius", 1.0), "parameter radius")
        c = _conformal_round(n, range(n), +1.0, radius)
        spec = MetricSpec(n, _delta(n, c), (n, 0),
                          chart_domain=tuple((-1.0, 1.0) for _ in range(n)), name=name)
    elif name == "hyperbolic":
        radius = _number(float, params.pop("radius", 1.0), "parameter radius")
        c = _conformal_round(n, range(n), -1.0, radius)
        bound = 0.45 * radius / math.sqrt(n)
        spec = MetricSpec(n, _delta(n, c), (n, 0),
                          chart_domain=tuple((-bound, bound) for _ in range(n)), name=name)
    elif name == "ppwave":
        # coordinates (u, v, y1, y2); H = y1^2 - y2^2 is harmonic, so Ricci-flat
        zero, one = const(0.0), const(1.0)
        H = var(2) ** 2 - var(3) ** 2
        rows = [
            (H, one, zero, zero),
            (one, zero, zero, zero),
            (zero, zero, one, zero),
            (zero, zero, zero, one),
        ]
        spec = MetricSpec(4, tuple(rows), (3, 1), name=name)
    elif name == "s2xs2":
        zero = const(0.0)
        c1 = _conformal_round(2, (0, 1), +1.0, 1.0)
        c2 = _conformal_round(2, (2, 3), +1.0, 1.0)
        diag = (c1, c1, c2, c2)
        rows = tuple(tuple(diag[i] if i == j else zero for j in range(4)) for i in range(4))
        spec = MetricSpec(4, rows, (4, 0),
                          chart_domain=tuple((-1.0, 1.0) for _ in range(4)), name=name)
    else:  # bumpy
        eps = _number(float, params.pop("eps", 0.1), "parameter eps")
        matrix = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                bump = const(eps) * call("sin", var(i) + var(j))
                entry = (const(1.0) + bump) if i == j else bump
                matrix[i][j] = matrix[j][i] = entry
        spec = MetricSpec(n, tuple(tuple(row) for row in matrix), (n, 0),
                          name=f"bumpy(eps={eps})")
    if params:
        raise MetricError(f"unused preset parameters: {sorted(params)}")
    return spec


# -- config files -------------------------------------------------------------


def parse_config(text: str) -> MetricSpec:
    """Parse the metric config format.

    Either explicit entries:
        dim = <n>
        signature = <p>,<q>
        g[i][j] = <expression>      # 1-based, symmetric autofill, default 0
    or a preset:
        preset = <name>
        param.<key> = <value>
    Lines starting with '#' and blank lines are ignored.  Each key is set
    at most once (g[i][j] and g[j][i] are one key), a preset takes no dim,
    signature or entries, and param keys need a preset; the MetricError of
    a config that breaks a rule names the offending line.
    """
    dim = None
    signature = None
    entries: dict[tuple, str] = {}
    preset_name = None
    preset_params: dict[str, float] = {}
    seen: dict[str, int] = {}  # key -> its line; g[i][j] filed as g[min][max]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MetricError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        slot = key
        if key.startswith("g["):
            try:
                i_part, j_part = key[1:].split("][")
                i = int(i_part[1:])
                j = int(j_part.rstrip("]"))
            except ValueError:
                raise MetricError(f"line {lineno}: bad entry key {key!r}") from None
            slot = f"g[{min(i, j)}][{max(i, j)}]"
        if slot in seen:
            raise MetricError(f"line {lineno}: {key} set again (first on line {seen[slot]})")
        seen[slot] = lineno
        if key == "dim":
            dim = _number(int, value, f"line {lineno}: dim")
        elif key == "signature":
            parts = value.split(",")
            if len(parts) != 2:
                raise MetricError(f"line {lineno}: signature must be 'p,q'")
            signature = tuple(_number(int, v, f"line {lineno}: signature entry") for v in parts)
        elif key == "preset":
            preset_name = value
        elif key.startswith("param."):
            preset_params[key[len("param."):]] = _number(float, value, f"line {lineno}: {key}")
        elif key.startswith("g["):
            entries[(i, j)] = value
        else:
            raise MetricError(f"line {lineno}: unknown key {key!r}")

    if preset_name is not None:
        explicit = [line for slot, line in seen.items()
                    if slot in ("dim", "signature") or slot.startswith("g[")]
        if explicit:
            raise MetricError(f"line {explicit[0]}: a preset config takes no dim, "
                              "signature or g entries")
        return preset(preset_name, **preset_params)
    if preset_params:
        first = next(line for slot, line in seen.items() if slot.startswith("param."))
        raise MetricError(f"line {first}: param keys need a preset")
    if dim is None:
        raise MetricError("config must declare 'dim' or 'preset'")
    n = dim
    matrix = [[Const(0.0) for _ in range(n)] for _ in range(n)]
    for (i, j), expr_text in entries.items():
        if not (1 <= i <= n and 1 <= j <= n):
            raise MetricError(f"entry g[{i}][{j}] outside dimension {n}")
        try:
            e = parse_expr(expr_text, n)
        except ParseError as exc:
            raise MetricError(f"entry g[{i}][{j}]: {exc}") from exc
        matrix[i - 1][j - 1] = e
        matrix[j - 1][i - 1] = e
    if signature is None:
        signature = (n, 0)
    return MetricSpec(n, tuple(tuple(row) for row in matrix), signature)


def load_config(path) -> MetricSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
