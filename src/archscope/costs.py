"""Analytic cost models and the metric-evaluator contract.

MAC and parameter counts are exact integers. Both come from one list of
weight tensors per layer, (output positions, weights, biases), counted into
lookup tables that score a gene batch, not walked layer by layer. The shape
chain is fixed by the macro skeleton: the stem conv halves the input, and
the first layer of every unit halves it again (stride-2 convs use ceil
division, so odd sizes stay integral). Only conv and fully-connected
arithmetic is counted; pooling, activations and batch norm are free.
Formulas are documented in docs/FORMATS.md and pinned by tests against an
independently coded walker.

The synthetic accuracy model is an illustrative fixture, not a predictor: a
base score plus per-layer capacity terms weighted by unit position plus a
full-depth bonus per unit, clamped to [0, 100]. Weights grow with unit index,
capacity grows with expansion/kernel (or ratio/expansion), so later units and
bigger blocks matter more, which is the shape search experiments need.

Every metric is a function of a sampling.Genes batch; one architecture is a
batch of one.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import CoverageError, EvaluationError, ValidationError
from .sampling import Genes
from .spaces import (
    MBCONV_V2,
    MBCONV_V3,
    RESNET_BOTTLENECK,
    Architecture,
    BlockSpec,
    DesignSpace,
    arch_key,
    effective_channels,
    ratio_values,
)

MINIMIZE = "minimize"
MAXIMIZE = "maximize"
SE_REDUCTION = 4  # squeeze-and-excitation width: max(1, mid // SE_REDUCTION)


def half(size: int) -> int:
    """Spatial size after a stride-2 conv with same padding."""
    return (size + 1) // 2


def unit_spatial_sizes(space: DesignSpace, resolution: int) -> list[tuple[int, int]]:
    """(input, output) H=W per unit, after the stem halved the image."""
    h = half(resolution)
    sizes = []
    for _ in space.units:
        sizes.append((h, half(h)))
        h = half(h)
    return sizes


def _layer_terms(block: BlockSpec, first: bool, c_in: int, c_out: int, h_in: int, h_out: int,
                 count_se: bool) -> list[tuple[int, int, int]]:
    """One layer's weight tensors as (output positions, weights, biases), from
    its input width and size; first marks a unit's layer 1."""
    k2 = block.kernel * block.kernel
    if block.family in (MBCONV_V3, MBCONV_V2):
        mid = c_in * int(block.expansion)
        terms = [(h_in * h_in, c_in * mid, mid),  # 1x1 expand
                 (h_out * h_out, k2 * mid, mid)]  # depthwise, one filter per channel
        if block.uses_se and count_se:
            se_mid = max(1, mid // SE_REDUCTION)
            terms += [(1, mid * se_mid, se_mid), (1, se_mid * mid, mid)]  # two FC layers
        return terms + [(h_out * h_out, mid * c_out, c_out)]  # 1x1 project
    if block.family == RESNET_BOTTLENECK:
        mid = max(1, int(c_out * block.expansion + 0.5))
        terms = [(h_in * h_in, c_in * mid, mid),  # 1x1 reduce
                 (h_out * h_out, k2 * mid * mid, mid),  # kxk mid conv
                 (h_out * h_out, mid * c_out, c_out)]  # 1x1 expand
        # layer 1 strides, so it always carries the projection shortcut
        return terms + [(h_out * h_out, c_in * c_out, c_out)] if first else terms
    raise ValidationError(f"no cost model for block family {block.family!r}")


def _head_terms(space: DesignSpace, c: int, h_final: int) -> list[tuple[int, int, int]]:
    """The head's weight tensors: optional 1x1 conv and hidden FC, then the classifier."""
    head = space.head
    terms = []
    if head.conv_channels:
        terms.append((h_final * h_final, c * head.conv_channels, head.conv_channels))
        c = head.conv_channels
    if head.hidden:
        terms.append((1, c * head.hidden, head.hidden))
        c = head.hidden
    return terms + [(1, c * head.classes, head.classes)]


def macs(space: DesignSpace, arch: Architecture, *, count_se: bool = True) -> int:
    """Exact multiply-accumulate count for the whole network: a batch of one.

    Each call builds the space's count tables; to score many architectures,
    use macs_evaluator's fn or evaluate_batch, which build them once."""
    return int(_macs_totals(space, count_se=count_se)(batch_of_one(space, arch))[0])


def param_count(space: DesignSpace, arch: Architecture, *, count_se: bool = True,
                include_bias: bool = False) -> int:
    """Exact weight count; batch norm excluded, conv biases behind a flag. A
    batch of one.

    Each call builds the space's count tables; to score many architectures,
    use params_evaluator's fn or evaluate_batch, which build them once."""
    totals = _params_totals(space, count_se=count_se, include_bias=include_bias)
    return int(totals(batch_of_one(space, arch))[0])


def _count_totals(space: DesignSpace, count: Callable, count_se: bool):
    """Function of a Genes batch to its exact integer counts: count of the
    stem's tensor, plus count(_layer_terms(...)) per present layer, plus
    count(_head_terms(...)), read from tables. Layer 1 is keyed by the
    previous unit's ratio (its input width) and the head by the last unit's
    ratio; every later layer has the same count. The tables are int64, or
    Python ints (dtype object) when a total could reach 2**63."""
    widths = [
        [effective_channels(unit.base_channels, r) for r in values]
        for unit, values in zip(space.units, ratio_values(space))
    ]
    n_res = len(space.resolutions)
    sizes = [unit_spatial_sizes(space, r) for r in space.resolutions]
    k, width = space.stem.kernel, space.stem.out_channels  # the stem: one kxk conv from RGB
    stems = np.array([count([(half(r) ** 2, k * k * 3 * width, width)])
                      for r in space.resolutions], dtype=object)
    heads = np.array([[count(_head_terms(space, c, hw[-1][1])) for c in widths[-1]]
                      for hw in sizes], dtype=object)
    bound = stems.max() + heads.max()
    firsts, rests = [], []  # per unit: [res, prev ratio, ratio, block], [res, ratio, block]
    for u, unit in enumerate(space.units):
        prev = widths[u - 1] if u else [space.stem.out_channels]
        # one zero column past the last block, read by the -1 of an absent layer
        first = np.zeros((n_res, len(prev), len(widths[u]), len(unit.blocks) + 1), object)
        rest = np.zeros((n_res, len(widths[u]), len(unit.blocks) + 1), object)
        for s, hw in enumerate(sizes):
            h_in, h_out = hw[u]
            for r, c_out in enumerate(widths[u]):
                for b, block in enumerate(unit.blocks):
                    rest[s, r, b] = count(_layer_terms(
                        block, False, c_out, c_out, h_out, h_out, count_se))
                    for p, c_in in enumerate(prev):
                        first[s, p, r, b] = count(_layer_terms(
                            block, True, c_in, c_out, h_in, h_out, count_se))
        bound += first.max() + (unit.depth_max - 1) * rest.max()
        firsts.append(first)
        rests.append(rest)
    if bound < 2**63:
        stems, heads = stems.astype(np.int64), heads.astype(np.int64)
        firsts = [t.astype(np.int64) for t in firsts]
        rests = [t.astype(np.int64) for t in rests]

    def totals(genes):
        res = genes.resolution
        total = stems[res] + heads[res, genes.ratio[:, -1]]
        prev = np.zeros(len(genes), dtype=np.int64)
        for u, unit in enumerate(space.units):
            ratio = genes.ratio[:, u]
            blocks = genes.block[:, u, : unit.depth_max]
            total += firsts[u][res, prev, ratio, blocks[:, 0]]
            total += rests[u][res[:, None], ratio[:, None], blocks[:, 1:]].sum(axis=1)
            prev = ratio
        return total

    return totals


# ---------------------------------------------------------------------------
# evaluator contract

@dataclass(frozen=True)
class MetricEvaluator:
    """A named scalar metric over architectures of one space.

    direction states which way is better so ranking code never guesses.
    params_digest fingerprints the evaluator's configuration for manifests.
    resolution_sensitive marks metrics whose value depends on the input
    resolution; profilers use it to decide whether per-resolution grids are
    worth emitting. batch, when set, maps a sampling.Genes batch to an array
    of the values fn gives its rows, bit for bit, or to None when it cannot;
    at a row that reaches a sentinel (see slot_sum) it raises fn's error.
    """

    name: str
    direction: str
    fn: Callable[[Architecture], float] = field(repr=False)
    resolution_sensitive: bool = False
    params_digest: str = ""
    batch: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.direction not in (MINIMIZE, MAXIMIZE):
            raise ValidationError(f"direction must be minimize or maximize, got {self.direction!r}")

    def evaluate(self, arch: Architecture) -> float:
        """The metric value; failures and non-finite values raise EvaluationError."""
        try:
            value = float(self.fn(arch))
            if not math.isfinite(value):
                raise ArithmeticError(f"non-finite value {value!r}")
        except ArithmeticError as exc:
            raise EvaluationError(
                f"evaluator {self.name!r} failed: {exc}", record=arch_key(arch)
            ) from exc
        return value

    def evaluate_batch(self, genes) -> np.ndarray:
        """evaluate() of every row of a gene batch, through batch when it
        answers; a non-finite value raises EvaluationError for its first row."""
        values = self.batch(genes) if self.batch is not None else None
        if values is None:
            return np.array([self.evaluate(genes.architecture(i)) for i in range(len(genes))],
                            dtype=float)
        bad = ~np.isfinite(values)
        if bad.any():
            row = int(bad.argmax())
            raise EvaluationError(
                f"evaluator {self.name!r} failed: non-finite value {float(values[row])!r}",
                record=arch_key(genes.architecture(row)),
            )
        return values


class Lowered:
    """An evaluator's batch function, built on its first call so resolving an
    evaluator stays cheap. Its tables hold a value or a sentinel in every
    cell. A batch from another space answers None: it is scored row by row.
    """

    def __init__(self, space: DesignSpace, build: Callable[[], Callable]):
        self._space = space
        self._build = build
        self._fn = None

    def __call__(self, genes):
        if genes.space != self._space:
            return None
        if self._fn is None:
            self._fn = self._build()
        return self._fn(genes)


def batch_of_one(space: DesignSpace, arch: Architecture) -> Genes:
    """arch as a Genes batch of one. An architecture of another space whose
    genes all belong to space (a reduced space's member) is read by its genes."""
    if arch.space != space.name:
        arch = replace(arch, space=space.name)
    return Genes.from_architectures(space, [arch])


def slot_sum(space: DesignSpace, start: Callable, term: Callable) -> Callable:
    """Lower start(s) + term(s, u, layer, b) over a row's present layers, for
    resolution index s, unit u, layer slot (from 0) and block index b, to a
    function of a Genes batch. Each sum adds in unit -> layer order; an absent
    layer adds -0.0, which changes no sum. A ValidationError or CoverageError
    from start or term makes a NaN sentinel of that resolution or cell. When
    the table has one, the first non-finite row is walked again, calling start
    and term in order, so a sentinel it reaches raises that call's error; a
    row that raises nothing is left for evaluate_batch to report."""
    n_res = len(space.resolutions)
    starts = np.zeros(n_res)
    cells = [np.full((n_res, u.depth_max, len(u.blocks) + 1), -0.0) for u in space.units]
    sentinel = False
    for s in range(n_res):
        try:
            starts[s] = start(s)
        except (ValidationError, CoverageError):
            starts[s], sentinel = np.nan, True
            continue
        for u, unit in enumerate(space.units):
            for layer in range(unit.depth_max):
                for b in range(len(unit.blocks)):
                    try:
                        cells[u][s, layer, b] = term(s, u, layer, b)
                    except (ValidationError, CoverageError):
                        cells[u][s, layer, b], sentinel = np.nan, True

    def summed(genes):
        res = genes.resolution
        total = starts[res]
        for u, (unit, table) in enumerate(zip(space.units, cells)):
            layers = np.arange(unit.depth_max)
            slots = table[res[:, None], layers, genes.block[:, u, : unit.depth_max]]
            for layer in layers:
                total = total + slots[:, layer]
        return total

    def checked(genes):
        values = summed(genes)
        bad = ~np.isfinite(values)
        if bad.any():
            row = int(bad.argmax())
            s = int(genes.resolution[row])
            start(s)
            for u, unit in enumerate(space.units):
                for layer, b in enumerate(genes.block[row, u, : unit.depth_max].tolist()):
                    if b >= 0:
                        term(s, u, layer, b)
        return values

    return checked if sentinel else summed


def params_digest(params: dict) -> str:
    return hashlib.sha256(
        json.dumps(params, sort_keys=True, separators=(",", ":"), default=str).encode()
    ).hexdigest()[:16]


def _macs_totals(space: DesignSpace, *, count_se: bool = True):
    return _count_totals(space, lambda terms: sum(p * w for p, w, _ in terms), count_se)


def _params_totals(space: DesignSpace, *, count_se: bool = True, include_bias: bool = False):
    return _count_totals(
        space, lambda terms: sum(w + (b if include_bias else 0) for _, w, b in terms), count_se)


def _count_evaluator(space: DesignSpace, name: str, totals: Callable, kw: dict,
                     resolution_sensitive: bool) -> MetricEvaluator:
    lowered = Lowered(space, lambda: totals(space, **kw))

    def batch(genes):
        values = lowered(genes)
        try:
            return None if values is None else values.astype(float)
        except OverflowError:  # a count past the float range: fn raises it row by row
            return None

    return MetricEvaluator(
        name=name,
        direction=MINIMIZE,
        fn=lambda arch: int(lowered(batch_of_one(space, arch))[0]),
        resolution_sensitive=resolution_sensitive,
        params_digest=params_digest({"kind": name, **kw}),
        batch=batch,
    )


def macs_evaluator(space: DesignSpace, **kw) -> MetricEvaluator:
    return _count_evaluator(space, "macs", _macs_totals, kw, resolution_sensitive=True)


def params_evaluator(space: DesignSpace, **kw) -> MetricEvaluator:
    return _count_evaluator(space, "params", _params_totals, kw, resolution_sensitive=False)


# ---------------------------------------------------------------------------
# synthetic accuracy fixture

@dataclass(frozen=True)
class AccuracyModel:
    """Additive stand-in for a validation-accuracy predictor.

    unit_weights must be nondecreasing with unit index and depth bonuses are
    granted only at a unit's maximum depth; block capacity is a [0, 1] score
    increasing along both block attribute axes. Values are arbitrary but
    deterministic; nothing here is measured.
    """

    base: float = 70.0
    unit_weights: tuple[float, ...] = ()
    depth_bonus: tuple[float, ...] = ()
    clamp_lo: float = 0.0
    clamp_hi: float = 100.0

    def config(self) -> dict:
        return {
            "base": self.base,
            "unit_weights": list(self.unit_weights),
            "depth_bonus": list(self.depth_bonus),
        }


def default_accuracy_model(space: DesignSpace) -> AccuracyModel:
    n = space.n_units
    if n == 1:
        weights = (0.4,)
        bonus = (0.2,)
    else:
        weights = tuple(round(0.1 + 0.6 * i / (n - 1), 6) for i in range(n))
        bonus = tuple(round(0.08 + 0.12 * i / (n - 1), 6) for i in range(n))
    return AccuracyModel(base=70.0, unit_weights=weights, depth_bonus=bonus)


def _axis_rank(value, axis_values) -> float:
    """Position of value along an ascending attribute axis, scaled to [0, 1]."""
    if len(axis_values) <= 1:
        return 0.0
    return axis_values.index(value) / (len(axis_values) - 1)


def _axis_values(space: DesignSpace) -> dict[str, list]:
    """Each block axis's distinct values over the whole space, ascending.

    Raises ValidationError for a block without a value on an axis where
    other blocks have one (a ratio-free bottleneck beside ratio-bound ones),
    since it has no place on that axis."""
    values: dict[str, set] = {}
    for unit in space.units:
        for b in unit.blocks:
            for name, value in b.axes().items():
                values.setdefault(name, set()).add(value)
    for name, v in values.items():
        if None in v and len(v) > 1:
            unit, block = next((u, b) for u in space.units for b in u.blocks
                               if b.axes()[name] is None)
            raise ValidationError(
                f"unit {unit.index} block {block.code!r}: no {name}, which block capacity "
                f"needs when other blocks of the space have one"
            )
    return {name: sorted(v) for name, v in values.items()}


def _capacity(block: BlockSpec, axis_values: dict[str, list]) -> float:
    ranks = [_axis_rank(value, axis_values[name]) for name, value in block.axes().items()]
    return 0.5 * ranks[0] + 0.5 * ranks[1]


def _accuracy_batch(space: DesignSpace, model: AccuracyModel):
    """Synthetic accuracy of a gene batch: the base, then per unit each
    layer's unit_weight * capacity (-0.0 past the depth) and the depth bonus
    at full depth, clamped. Checks the model against the space first."""
    if len(model.unit_weights) != space.n_units or len(model.depth_bonus) != space.n_units:
        raise ValidationError("accuracy model does not cover every unit of the space")
    if any(a > b for a, b in zip(model.unit_weights, model.unit_weights[1:])):
        raise ValidationError("accuracy model unit_weights must be nondecreasing")
    axis_values = _axis_values(space)
    tables = [  # per unit: each candidate's term, then the absent layer's
        np.array([weight * _capacity(b, axis_values) for b in unit.blocks] + [-0.0])
        for unit, weight in zip(space.units, model.unit_weights)
    ]

    def batch(genes):
        score = np.full(len(genes), model.base, dtype=float)
        for u, (unit, table) in enumerate(zip(space.units, tables)):
            slots = table[genes.block[:, u, : unit.depth_max]]
            for layer in range(unit.depth_max):
                score = score + slots[:, layer]
            score = score + np.where(
                genes.depth[:, u] == unit.depth_max, model.depth_bonus[u], -0.0)
        # max(lo, score) and min(hi, score) as the builtins pick
        score = np.where(score > model.clamp_lo, score, model.clamp_lo)
        return np.where(score < model.clamp_hi, score, model.clamp_hi)

    return batch


def synthetic_accuracy(space: DesignSpace, arch: Architecture, model: AccuracyModel) -> float:
    """The synthetic accuracy of one architecture: a batch of one.

    Each call builds the model's tables; to score many architectures, use
    accuracy_evaluator's fn or evaluate_batch, which build them once."""
    return float(_accuracy_batch(space, model)(batch_of_one(space, arch))[0])


def accuracy_evaluator(space: DesignSpace, model: AccuracyModel | None = None) -> MetricEvaluator:
    model = model if model is not None else default_accuracy_model(space)
    batch = _accuracy_batch(space, model)  # a model that does not fit raises here
    lowered = Lowered(space, lambda: batch)
    return MetricEvaluator(
        name="synthetic-acc",
        direction=MAXIMIZE,
        fn=lambda arch: float(lowered(batch_of_one(space, arch))[0]),
        resolution_sensitive=False,
        params_digest=params_digest({"kind": "synthetic-acc", **model.config()}),
        batch=lowered,
    )
