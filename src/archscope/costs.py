"""Analytic cost models and the metric-evaluator contract.

MAC and parameter counts come from a closed-form walk over the layer stack;
both are exact integers. The shape chain is fixed by the macro skeleton: the
stem conv halves the input, and the first layer of every unit halves it again
(stride-2 convs use ceil division, so odd sizes stay integral). Only conv and
fully-connected arithmetic is counted; pooling, activations and batch norm are
free. Formulas are documented in docs/FORMATS.md and pinned by tests against
an independently coded walker.

The synthetic accuracy model is an illustrative fixture, not a predictor: a
base score plus per-layer capacity terms weighted by unit position plus a
full-depth bonus per unit, clamped to [0, 100]. Weights grow with unit index,
capacity grows with expansion/kernel (or ratio/expansion), so later units and
bigger blocks matter more, which is the shape search experiments need.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import EvaluationError, ValidationError
from .spaces import (
    MBCONV_V2,
    MBCONV_V3,
    RESNET_BOTTLENECK,
    Architecture,
    BlockSpec,
    DesignSpace,
    arch_key,
    effective_channels,
)

MINIMIZE = "minimize"
MAXIMIZE = "maximize"


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


def _unit_channels(space: DesignSpace, arch: Architecture) -> list[int]:
    out = []
    for unit in space.units:
        ratio = arch.channel_ratios[unit.index - 1] if arch.channel_ratios else None
        out.append(effective_channels(unit.base_channels, ratio))
    return out


def _mbconv_macs(
    block: BlockSpec, c_in: int, c_out: int, h_in: int, h_out: int,
    count_se: bool, se_reduction: int,
) -> int:
    mid = c_in * int(block.expansion)
    total = h_in * h_in * c_in * mid  # 1x1 expand
    total += h_out * h_out * mid * block.kernel * block.kernel  # depthwise
    if block.uses_se and count_se:
        se_mid = max(1, mid // se_reduction)
        total += mid * se_mid + se_mid * mid  # two FC layers
    total += h_out * h_out * mid * c_out  # 1x1 project
    return total


def _bottleneck_macs(
    block: BlockSpec, c_in: int, c_out: int, h_in: int, h_out: int, project: bool
) -> int:
    mid = max(1, int(c_out * block.expansion + 0.5))
    total = h_in * h_in * c_in * mid  # 1x1 reduce
    total += h_out * h_out * mid * mid * block.kernel * block.kernel  # kxk mid conv
    total += h_out * h_out * mid * c_out  # 1x1 expand
    if project:
        total += h_out * h_out * c_in * c_out  # projection shortcut
    return total


def macs(
    space: DesignSpace,
    arch: Architecture,
    *,
    count_se: bool = True,
    se_reduction: int = 4,
) -> int:
    """Exact multiply-accumulate count for the whole network."""
    total = 0
    h = half(arch.resolution)
    stem = space.stem
    total += h * h * 3 * stem.out_channels * stem.kernel * stem.kernel
    c_in = stem.out_channels
    channels = _unit_channels(space, arch)
    sizes = unit_spatial_sizes(space, arch.resolution)
    for unit, codes, c_out, (h_in, h_out) in zip(space.units, arch.blocks, channels, sizes):
        for layer, code in enumerate(codes, start=1):
            block = space.block(unit.index, code)
            if layer == 1:
                b_cin, b_hin = c_in, h_in
            else:
                b_cin, b_hin = c_out, h_out
            if block.family in (MBCONV_V3, MBCONV_V2):
                total += _mbconv_macs(block, b_cin, c_out, b_hin, h_out, count_se, se_reduction)
            elif block.family == RESNET_BOTTLENECK:
                # layer 1 strides, so it always carries the projection shortcut
                total += _bottleneck_macs(block, b_cin, c_out, b_hin, h_out, layer == 1)
            else:
                raise ValidationError(f"no MAC model for block family {block.family!r}")
        c_in = c_out
    h_final = sizes[-1][1]
    head = space.head
    c = c_in
    if head.conv_channels:
        total += h_final * h_final * c * head.conv_channels
        c = head.conv_channels
    if head.hidden:
        total += c * head.hidden
        c = head.hidden
    total += c * head.classes
    return total


def _mbconv_params(
    block: BlockSpec, c_in: int, c_out: int, count_se: bool, se_reduction: int,
    include_bias: bool,
) -> int:
    mid = c_in * int(block.expansion)
    total = c_in * mid  # expand 1x1
    total += block.kernel * block.kernel * mid  # depthwise, one filter per channel
    if block.uses_se and count_se:
        se_mid = max(1, mid // se_reduction)
        total += mid * se_mid + se_mid * mid
        if include_bias:
            total += se_mid + mid
    total += mid * c_out  # project 1x1
    if include_bias:
        total += mid + mid + c_out
    return total


def _bottleneck_params(block: BlockSpec, c_in: int, c_out: int, project: bool, include_bias: bool) -> int:
    mid = max(1, int(c_out * block.expansion + 0.5))
    total = c_in * mid + block.kernel * block.kernel * mid * mid + mid * c_out
    if project:
        total += c_in * c_out  # projection shortcut
    if include_bias:
        total += mid + mid + c_out + (c_out if project else 0)
    return total


def param_count(
    space: DesignSpace,
    arch: Architecture,
    *,
    count_se: bool = True,
    se_reduction: int = 4,
    include_bias: bool = False,
) -> int:
    """Exact weight count; batch norm excluded, conv biases behind a flag."""
    stem = space.stem
    total = stem.kernel * stem.kernel * 3 * stem.out_channels
    if include_bias:
        total += stem.out_channels
    c_in = stem.out_channels
    channels = _unit_channels(space, arch)
    for unit, codes, c_out in zip(space.units, arch.blocks, channels):
        for layer, code in enumerate(codes, start=1):
            block = space.block(unit.index, code)
            b_cin = c_in if layer == 1 else c_out
            if block.family in (MBCONV_V3, MBCONV_V2):
                total += _mbconv_params(block, b_cin, c_out, count_se, se_reduction, include_bias)
            elif block.family == RESNET_BOTTLENECK:
                total += _bottleneck_params(block, b_cin, c_out, layer == 1, include_bias)
            else:
                raise ValidationError(f"no parameter model for block family {block.family!r}")
        c_in = c_out
    head = space.head
    c = c_in
    if head.conv_channels:
        total += c * head.conv_channels
        if include_bias:
            total += head.conv_channels
        c = head.conv_channels
    if head.hidden:
        total += c * head.hidden + (head.hidden if include_bias else 0)
        c = head.hidden
    total += c * head.classes + (head.classes if include_bias else 0)
    return total


# ---------------------------------------------------------------------------
# evaluator contract

@dataclass(frozen=True)
class MetricEvaluator:
    """A named scalar metric over architectures of one space.

    direction states which way is better so ranking code never guesses.
    params_digest fingerprints the evaluator's configuration for manifests.
    resolution_sensitive marks metrics whose value depends on the input
    resolution; profilers use it to decide whether per-resolution grids are
    worth emitting.
    """

    name: str
    direction: str
    fn: Callable[[Architecture], float] = field(repr=False)
    resolution_sensitive: bool = False
    params_digest: str = ""

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


def params_digest(params: dict) -> str:
    return hashlib.sha256(
        json.dumps(params, sort_keys=True, separators=(",", ":"), default=str).encode()
    ).hexdigest()[:16]


def macs_evaluator(space: DesignSpace, **kw) -> MetricEvaluator:
    return MetricEvaluator(
        name="macs",
        direction=MINIMIZE,
        fn=lambda arch: macs(space, arch, **kw),
        resolution_sensitive=True,
        params_digest=params_digest({"kind": "macs", **kw}),
    )


def params_evaluator(space: DesignSpace, **kw) -> MetricEvaluator:
    return MetricEvaluator(
        name="params",
        direction=MINIMIZE,
        fn=lambda arch: param_count(space, arch, **kw),
        resolution_sensitive=False,
        params_digest=params_digest({"kind": "params", **kw}),
    )


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
    """Each block axis's distinct values over the whole space, ascending."""
    values: dict[str, set] = {}
    for unit in space.units:
        for b in unit.blocks:
            for name, value in b.axes().items():
                values.setdefault(name, set()).add(value)
    return {name: sorted(v) for name, v in values.items()}


def _capacity(block: BlockSpec, axis_values: dict[str, list]) -> float:
    ranks = [_axis_rank(value, axis_values[name]) for name, value in block.axes().items()]
    return 0.5 * ranks[0] + 0.5 * ranks[1]


def block_capacity(space: DesignSpace, block: BlockSpec) -> float:
    """Capacity score in [0, 1], strictly increasing along both block axes."""
    return _capacity(block, _axis_values(space))


def accuracy_terms(space: DesignSpace, model: AccuracyModel) -> list[dict[str, float]]:
    """Per unit, each candidate's unit_weight * capacity, the summand of one layer."""
    if len(model.unit_weights) != space.n_units or len(model.depth_bonus) != space.n_units:
        raise ValidationError("accuracy model does not cover every unit of the space")
    if any(a > b for a, b in zip(model.unit_weights, model.unit_weights[1:])):
        raise ValidationError("accuracy model unit_weights must be nondecreasing")
    axis_values = _axis_values(space)
    return [
        {b.code: model.unit_weights[unit.index - 1] * _capacity(b, axis_values) for b in unit.blocks}
        for unit in space.units
    ]


def synthetic_accuracy(
    space: DesignSpace, arch: Architecture, model: AccuracyModel, terms=None
) -> float:
    """terms is accuracy_terms(space, model); an evaluator builds it once."""
    if terms is None:
        terms = accuracy_terms(space, model)
    score = model.base
    for unit, codes, unit_terms in zip(space.units, arch.blocks, terms):
        for code in codes:
            term = unit_terms.get(code)
            if term is None:
                space.block(unit.index, code)  # raises: not a candidate
            score += term
        if len(codes) == unit.depth_max:
            score += model.depth_bonus[unit.index - 1]
    return min(model.clamp_hi, max(model.clamp_lo, score))


def accuracy_evaluator(space: DesignSpace, model: AccuracyModel | None = None) -> MetricEvaluator:
    model = model if model is not None else default_accuracy_model(space)
    terms = accuracy_terms(space, model)
    return MetricEvaluator(
        name="synthetic-acc",
        direction=MAXIMIZE,
        fn=lambda arch: synthetic_accuracy(space, arch, model, terms),
        resolution_sensitive=False,
        params_digest=params_digest({"kind": "synthetic-acc", **model.config()}),
    )
