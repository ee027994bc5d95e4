"""Parametric latency profiles.

A profile is a bundle of multiplicative coefficient tables, never a
measurement: per-layer latency is

    kernel_factor(k) * expansion_factor(e) * ratio_factor(r) * unit_scale(u)
      * layer_cost(u, l) * area_scale(u)

summed over present layers, plus a fixed overhead and a padding penalty. The
input resolution is first padded up to the nearest template size; the padded
size drives the per-unit feature-map areas (area_scale is relative to the
profile's largest template), and the penalty charges for the padded-away
fraction of the image. An all-ones profile with zero overhead therefore
evaluates to the plain body layer count.

Preset coefficient values are illustrative, chosen to reproduce qualitative
hardware behaviors (kernel-7 hostility with resolution templates, flat GPU
factors, expansion-bound CPU cost, resolution-linear mobile latency). They
are stated as such everywhere they surface.

Latency is summed over a gene batch as an additive form of layer terms
(costs.AdditiveForm.of_layers), which costs.lowered_evaluator makes an
evaluator; one architecture is a batch of one. What a profile cannot price
fails only the rows that need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Mapping

from .costs import MINIMIZE, AdditiveForm, MetricEvaluator, lowered_evaluator, unit_spatial_sizes
from .errors import ConfigError, ValidationError
from .formats import (int_or_finite, integer, refuse_unknown, require, require_each,
                      resolve_config, write_json)
from .spaces import MBCONV_V2, MBCONV_V3, RESNET_BOTTLENECK, DesignSpace

PROFILE_VERSION = 1


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    families: tuple[str, ...]
    kernel_factor: Mapping[float, float]
    expansion_factor: Mapping[float, float]
    ratio_factor: Mapping[float, float] = field(default_factory=dict)
    unit_scale: Mapping[int, float] = field(default_factory=dict)
    layer_cost_ms: float | Mapping[int, float] = 1.0
    resolution_templates: tuple[int, ...] = (224,)
    fixed_overhead_ms: float = 0.0
    pad_cost_ms: float = 0.0

    def __post_init__(self):
        if not self.resolution_templates:
            raise ConfigError(f"profile {self.name!r}: resolution_templates must be non-empty")
        for table_name in ("kernel_factor", "expansion_factor", "ratio_factor", "unit_scale"):
            for key, value in getattr(self, table_name).items():
                self._check(f"{table_name}[{key}]", value, positive=True)
        cost = self.layer_cost_ms
        for unit, value in [(None, cost)] if isinstance(cost, (int, float)) else cost.items():
            where = "layer_cost_ms" if unit is None else f"layer_cost_ms[{unit}]"
            for v in [value] if isinstance(value, (int, float)) else value:
                self._check(where, v)  # finite first: -inf is reported as not finite
                self._check(where, v, positive=True)
        for where in ("fixed_overhead_ms", "pad_cost_ms"):
            value = getattr(self, where)
            self._check(where, value)
            if value < 0:
                raise ConfigError(
                    f"profile {self.name!r}: {where} must not be negative, got {value!r}")

    def _check(self, where: str, value: float, positive: bool = False) -> None:
        if positive and value <= 0:
            raise ConfigError(f"profile {self.name!r}: {where} must be positive, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"profile {self.name!r}: {where} must be finite, got {value!r}")

    def template_for(self, resolution: int) -> int:
        """Smallest template the input fits into after padding up."""
        fitting = [t for t in self.resolution_templates if t >= resolution]
        if not fitting:
            raise ValidationError(
                f"resolution {resolution} exceeds every template of profile {self.name!r}"
            )
        return min(fitting)

    def _factor(self, table: Mapping, key, table_name: str) -> float:
        if key in table:
            return float(table[key])
        raise ValidationError(
            f"profile {self.name!r}: {table_name} has no entry for {key!r}"
        )

    def layer_base(self, unit: int, layer: int) -> float:
        cost = self.layer_cost_ms
        if isinstance(cost, (int, float)):
            return float(cost)
        if unit in cost:
            per_unit = cost[unit]
            if isinstance(per_unit, (int, float)):
                return float(per_unit)
            if layer <= len(per_unit):
                return float(per_unit[layer - 1])
        raise ValidationError(
            f"profile {self.name!r}: no layer cost for unit {unit} layer {layer}"
        )

    def config(self) -> dict:
        return {
            "format_version": PROFILE_VERSION,
            "name": self.name,
            "families": list(self.families),
            "kernel_factor": {str(k): v for k, v in self.kernel_factor.items()},
            "expansion_factor": {str(k): v for k, v in self.expansion_factor.items()},
            "ratio_factor": {str(k): v for k, v in self.ratio_factor.items()},
            "unit_scale": {str(k): v for k, v in self.unit_scale.items()},
            "layer_cost_ms": self.layer_cost_ms
            if isinstance(self.layer_cost_ms, (int, float))
            else {str(k): v for k, v in self.layer_cost_ms.items()},
            "resolution_templates": list(self.resolution_templates),
            "fixed_overhead_ms": self.fixed_overhead_ms,
            "pad_cost_ms": self.pad_cost_ms,
        }


def _latency_form(space: DesignSpace, profile: DeviceProfile) -> AdditiveForm:
    """Latency of a gene batch. A resolution's start checks the family, finds
    the template and adds the padding penalty to the fixed overhead; a layer's
    term scales its factors by the unit's output area at the template,
    relative to the largest template."""
    areas = {}  # per resolution index: each unit's relative area

    def start(s):
        if space.family not in profile.families:
            raise ValidationError(
                f"profile {profile.name!r} covers families {profile.families}, "
                f"not {space.family!r}")
        r = space.resolutions[s]
        t = profile.template_for(r)
        reference = unit_spatial_sizes(space, max(profile.resolution_templates))
        areas[s] = [(h * h) / (h_ref * h_ref) for (_, h), (_, h_ref)
                    in zip(unit_spatial_sizes(space, t), reference)]
        return profile.fixed_overhead_ms + profile.pad_cost_ms * (t * t - r * r) / (t * t)

    def term(s, u, layer, b):
        unit, block = space.units[u], space.units[u].blocks[b]
        cost = profile._factor(profile.kernel_factor, block.kernel, "kernel_factor")
        cost *= profile._factor(profile.expansion_factor, block.expansion, "expansion_factor")
        if block.channel_ratio is not None and profile.ratio_factor:
            cost *= profile._factor(profile.ratio_factor, block.channel_ratio, "ratio_factor")
        scale = float(profile.unit_scale.get(unit.index, 1.0))
        return cost * scale * profile.layer_base(unit.index, layer + 1) * areas[s][u]

    return AdditiveForm.of_layers(space, start, term)


# ---------------------------------------------------------------------------
# presets

_ALL_FAMILIES = (MBCONV_V3, MBCONV_V2, RESNET_BOTTLENECK)
_MOBILE_FAMILIES = (MBCONV_V3, MBCONV_V2)


def _npu_like() -> DeviceProfile:
    # kernel 7 is distinctly hostile; one resolution template, so smaller
    # inputs pad up to 224 and pay for the discarded area
    return DeviceProfile(
        name="npu-like",
        families=_MOBILE_FAMILIES,
        kernel_factor={3: 1.0, 5: 1.15, 7: 3.2},
        expansion_factor={3: 1.0, 4: 1.1, 6: 1.25},
        layer_cost_ms=0.05,
        resolution_templates=(224,),
        fixed_overhead_ms=0.0,
        pad_cost_ms=0.4,
    )


def _gpu_flat() -> DeviceProfile:
    # block choice barely matters; depth dominates
    return DeviceProfile(
        name="gpu-flat",
        families=_ALL_FAMILIES,
        kernel_factor={3: 1.0, 5: 1.0, 7: 1.0},
        expansion_factor={3: 1.0, 4: 1.0, 6: 1.0, 0.2: 1.0, 0.25: 1.0, 0.35: 1.0},
        ratio_factor={0.65: 1.0, 0.8: 1.0, 1.0: 1.0},
        layer_cost_ms=0.02,
        resolution_templates=(192, 208, 224),
        fixed_overhead_ms=1.0,
        pad_cost_ms=0.0,
    )


def _cpu_expansion_bound() -> DeviceProfile:
    # expansion ratio (channel count) dominates; hundreds of model-ms
    return DeviceProfile(
        name="cpu-expansion-bound",
        families=_ALL_FAMILIES,
        kernel_factor={3: 1.0, 5: 1.05, 7: 1.12},
        expansion_factor={3: 1.0, 4: 1.55, 6: 2.3, 0.2: 0.8, 0.25: 1.0, 0.35: 1.35},
        ratio_factor={0.65: 0.75, 0.8: 1.0, 1.0: 1.35},
        layer_cost_ms=5.0,
        resolution_templates=(192, 208, 224),
        fixed_overhead_ms=15.0,
        pad_cost_ms=0.0,
    )


def _note10_linear() -> DeviceProfile:
    # every resolution is its own template, so latency tracks input area
    return DeviceProfile(
        name="note10-linear",
        families=_MOBILE_FAMILIES,
        kernel_factor={3: 1.0, 5: 1.3, 7: 1.65},
        expansion_factor={3: 1.0, 4: 1.3, 6: 1.8},
        layer_cost_ms=0.12,
        resolution_templates=(192, 208, 224),
        fixed_overhead_ms=1.0,
        pad_cost_ms=0.0,
    )


_PROFILE_PRESETS = {
    "npu-like": _npu_like,
    "gpu-flat": _gpu_flat,
    "cpu-expansion-bound": _cpu_expansion_bound,
    "note10-linear": _note10_linear,
}


def list_profiles() -> tuple[str, ...]:
    return tuple(_PROFILE_PRESETS)


def identity_profile(space: DesignSpace, resolution: int | None = None) -> DeviceProfile:
    """All factors one, zero overhead: latency equals the body layer count."""
    template = max(space.resolutions) if resolution is None else resolution
    kernels = sorted({b.kernel for u in space.units for b in u.blocks})
    expansions = sorted({b.expansion for u in space.units for b in u.blocks})
    ratios = sorted({b.channel_ratio for u in space.units for b in u.blocks} - {None})
    return DeviceProfile(
        name="identity",
        families=(space.family,),
        kernel_factor={k: 1.0 for k in kernels},
        expansion_factor={e: 1.0 for e in expansions},
        ratio_factor={r: 1.0 for r in ratios},
        layer_cost_ms=1.0,
        resolution_templates=(template,),
        fixed_overhead_ms=0.0,
        pad_cost_ms=0.0,
    )


def profile_from_config(config: dict) -> DeviceProfile:
    if not isinstance(config, dict):
        raise ConfigError(f"profile: expected a mapping, got {type(config).__name__}")
    refuse_unknown(config, ("format_version", *(f.name for f in fields(DeviceProfile))), "profile")
    name = require(config, "name", str, "profile")
    if name != name.strip():  # "# key=value" headers would not give it back
        raise ConfigError(f"profile.name: {name!r} has leading or trailing whitespace")
    families = require_each(require(config, "families", list, "profile"), str, "profile.families")
    for fam in families:
        if fam not in _ALL_FAMILIES:
            raise ConfigError(f"profile.families: unknown family {fam!r}")

    def table(key, parse_key, *default):
        raw = require(config, key, dict, "profile", *default)
        return {parse_key(str(k), f"profile.{key} key"): require(raw, k, float, f"profile.{key}")
                for k in raw}

    cost = config.get("layer_cost_ms")
    if isinstance(cost, dict):
        cost = {integer(str(k), "profile.layer_cost_ms key"):
                require_each(v, float, f"profile.layer_cost_ms.{k}") if isinstance(v, list)
                else require(cost, k, float, "profile.layer_cost_ms") for k, v in cost.items()}
    else:
        cost = require(config, "layer_cost_ms", float, "profile", 1.0)
    return DeviceProfile(
        name=name,
        families=families,
        kernel_factor=table("kernel_factor", int_or_finite),
        expansion_factor=table("expansion_factor", int_or_finite),
        ratio_factor=table("ratio_factor", int_or_finite, {}),
        unit_scale=table("unit_scale", integer, {}),
        layer_cost_ms=cost,
        resolution_templates=tuple(sorted(require_each(
            require(config, "resolution_templates", list, "profile", [224]), int,
            "profile.resolution_templates"))),
        fixed_overhead_ms=require(config, "fixed_overhead_ms", float, "profile", 0.0),
        pad_cost_ms=require(config, "pad_cost_ms", float, "profile", 0.0),
    )


def load_profile(source) -> DeviceProfile:
    """Resolve a profile from a preset name, a mapping, or a JSON file path."""
    return resolve_config(source, DeviceProfile, _PROFILE_PRESETS, profile_from_config, "profile")


def save_profile(profile: DeviceProfile, path) -> None:
    write_json(profile.config(), path)


def latency_evaluator(space: DesignSpace, profile) -> MetricEvaluator:
    profile = load_profile(profile)
    return lowered_evaluator(space, profile.name, MINIMIZE, lambda: _latency_form(space, profile),
                             profile.config(), resolution_sensitive=len(space.resolutions) > 1)
