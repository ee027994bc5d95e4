"""Design-space reduction: declarative rules and named presets.

Rules shrink a space without changing its grammar: drop candidate blocks, cap
or pin unit depths, fix the channel-ratio gene, or restrict the resolution
set. Applying a rule set yields a new space whose members are all members of
the parent, so anything sampled from a reduced space still validates in the
original. Rules already satisfied are no-ops, which makes application
idempotent; rules that would be impossible (cap below the minimum depth,
emptying a candidate list) are errors.

Presets bundle the device- and accuracy-driven reductions used by the search
experiments; each declares its base space and may carry an advisory section
(currently mutation unit weights) that search honors unless overridden.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError, ValidationError
from .formats import refuse_unknown, require, require_each, resolve_config, write_json
from .spaces import DesignSpace, UnitSpec, consistent_blocks

RULESET_VERSION = 1

REMOVE_BLOCK = "remove_block"
CAP_DEPTH = "cap_depth"
FORCE_DEPTH = "force_depth"
FIX_CHANNEL_RATIO = "fix_channel_ratio"
RESTRICT_RESOLUTIONS = "restrict_resolutions"

RULE_KINDS = (REMOVE_BLOCK, CAP_DEPTH, FORCE_DEPTH, FIX_CHANNEL_RATIO, RESTRICT_RESOLUTIONS)

MAX_DEPTH = "max"  # force_depth sentinel resolved per unit


@dataclass(frozen=True)
class ReductionRule:
    kind: str
    units: tuple[int, ...] | None = None  # None = every unit; ignored for resolutions
    blocks: tuple[str, ...] = ()
    depth: int | str = 0
    channel_ratio: float = 0.0
    resolutions: tuple[int, ...] = ()

    def scope(self, space: DesignSpace) -> tuple[int, ...]:
        if self.units is None:
            return tuple(u.index for u in space.units)
        for idx in self.units:
            if not 1 <= idx <= space.n_units:
                raise ValidationError(f"rule {self.kind}: unit {idx} out of range for {space.name!r}")
        return self.units


@dataclass(frozen=True)
class RuleSet:
    name: str
    space: str
    rules: tuple[ReductionRule, ...]
    advisory: dict = field(default_factory=dict)


def _apply_to_unit(unit: UnitSpec, rule: ReductionRule) -> UnitSpec:
    if rule.kind == REMOVE_BLOCK:
        keep = tuple(b for b in unit.blocks if b.code not in rule.blocks)
        if not keep:
            raise ValidationError(
                f"remove_block would empty the candidate list of unit {unit.index}"
            )
        unit = replace(unit, blocks=keep)
        for ratio in unit.channel_ratios:
            if not consistent_blocks(unit, ratio):
                raise ValidationError(
                    f"remove_block leaves no candidate for channel ratio {ratio} in unit {unit.index}"
                )
        return unit
    if rule.kind == CAP_DEPTH:
        cap = int(rule.depth)
        if cap < unit.depth_min:
            raise ValidationError(
                f"cap_depth {cap} is below depth_min {unit.depth_min} of unit {unit.index}"
            )
        return replace(unit, depth_max=min(unit.depth_max, cap))
    if rule.kind == FORCE_DEPTH:
        depth = unit.depth_max if rule.depth == MAX_DEPTH else int(rule.depth)
        if not unit.depth_min <= depth <= unit.depth_max:
            raise ValidationError(
                f"force_depth {depth} outside {unit.depth_min}..{unit.depth_max} of unit {unit.index}"
            )
        return replace(unit, depth_min=depth, depth_max=depth)
    if rule.kind == FIX_CHANNEL_RATIO:
        if not unit.channel_ratios:
            raise ValidationError(
                f"fix_channel_ratio on unit {unit.index}, which has no channel-ratio gene"
            )
        ratio = float(rule.channel_ratio)
        if ratio not in unit.channel_ratios:
            raise ValidationError(
                f"fix_channel_ratio {ratio} not among {unit.channel_ratios} of unit {unit.index}"
            )
        # drop joint candidates bound to other ratios so placements line up
        keep = consistent_blocks(unit, ratio)
        return replace(unit, channel_ratios=(ratio,), blocks=keep)
    raise ValidationError(f"unknown rule kind {rule.kind!r}")


def apply(space: DesignSpace, ruleset: RuleSet) -> DesignSpace:
    """New, smaller space; every member of it is a member of the input space."""
    # derived names like "ofa:ofa-npu" still satisfy a rule set targeting "ofa"
    if ruleset.space and space.name != ruleset.space and not space.name.startswith(f"{ruleset.space}:"):
        raise ValidationError(
            f"rule set {ruleset.name!r} targets space {ruleset.space!r}, got {space.name!r}"
        )
    units = list(space.units)
    resolutions = space.resolutions
    for rule in ruleset.rules:
        if rule.kind not in RULE_KINDS:
            raise ValidationError(f"unknown rule kind {rule.kind!r}")
        if rule.kind == RESTRICT_RESOLUTIONS:
            wanted = tuple(sorted(int(r) for r in rule.resolutions))
            if not wanted:
                raise ValidationError("restrict_resolutions: empty resolution set")
            missing = [r for r in wanted if r not in resolutions]
            if missing:
                raise ValidationError(
                    f"restrict_resolutions: {missing} not in current set {resolutions}"
                )
            resolutions = wanted
            continue
        for idx in rule.scope(space):
            units[idx - 1] = _apply_to_unit(units[idx - 1], rule)
    name = space.name if space.name.endswith(ruleset.name) else f"{space.name}:{ruleset.name}"
    return replace(space, name=name, units=tuple(units), resolutions=resolutions)


# ---------------------------------------------------------------------------
# config documents

def rule_to_config(rule: ReductionRule) -> dict:
    out: dict = {"kind": rule.kind}
    if rule.kind != RESTRICT_RESOLUTIONS:
        out["units"] = "all" if rule.units is None else list(rule.units)
    if rule.kind == REMOVE_BLOCK:
        out["blocks"] = list(rule.blocks)
    elif rule.kind in (CAP_DEPTH, FORCE_DEPTH):
        out["depth"] = rule.depth
    elif rule.kind == FIX_CHANNEL_RATIO:
        out["channel_ratio"] = rule.channel_ratio
    elif rule.kind == RESTRICT_RESOLUTIONS:
        out["resolutions"] = list(rule.resolutions)
    return out


def ruleset_to_config(ruleset: RuleSet) -> dict:
    return {
        "format_version": RULESET_VERSION,
        "name": ruleset.name,
        "space": ruleset.space,
        "rules": [rule_to_config(r) for r in ruleset.rules],
        "advisory": dict(ruleset.advisory),
    }


def _parse_rule(entry: dict, where: str) -> ReductionRule:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected a mapping, got {entry!r}")
    refuse_unknown(entry, [f.name for f in fields(ReductionRule)], where)
    kind = require(entry, "kind", str, where)
    if kind not in RULE_KINDS:
        raise ConfigError(f"{where}.kind: expected one of {RULE_KINDS}, got {kind!r}")
    units_raw = entry.get("units", "all")
    if units_raw in ("all", None):
        units = None
    elif isinstance(units_raw, list) and units_raw:
        units = require_each(units_raw, int, f"{where}.units")
    else:
        raise ConfigError(f"{where}.units: expected 'all' or a non-empty list of unit indices")
    if kind == REMOVE_BLOCK:
        blocks = require_each(require(entry, "blocks", list, where), str, f"{where}.blocks")
        if not blocks:
            raise ConfigError(f"{where}.blocks: remove_block needs a non-empty block list")
        return ReductionRule(kind=kind, units=units, blocks=blocks)
    if kind in (CAP_DEPTH, FORCE_DEPTH):
        if kind == FORCE_DEPTH and entry.get("depth") == MAX_DEPTH:
            return ReductionRule(kind=kind, units=units, depth=MAX_DEPTH)
        depth = require(entry, "depth", int, where)
        if depth < 1:
            raise ConfigError(f"{where}.depth: must be >= 1, got {depth}")
        return ReductionRule(kind=kind, units=units, depth=depth)
    if kind == FIX_CHANNEL_RATIO:
        ratio = require(entry, "channel_ratio", float, where)
        if ratio <= 0:
            raise ConfigError(f"{where}.channel_ratio: must be positive, got {ratio}")
        return ReductionRule(kind=kind, units=units, channel_ratio=ratio)
    resolutions = require_each(require(entry, "resolutions", list, where), int,
                               f"{where}.resolutions")
    if not resolutions:
        raise ConfigError(f"{where}.resolutions: expected a non-empty list")
    return ReductionRule(kind=kind, resolutions=resolutions)


def ruleset_from_config(config: dict) -> RuleSet:
    if not isinstance(config, dict):
        raise ConfigError(f"ruleset: expected a mapping, got {type(config).__name__}")
    refuse_unknown(config, ("format_version", *(f.name for f in fields(RuleSet))), "ruleset")
    name = require(config, "name", str, "ruleset", "")
    if not name:
        raise ConfigError("ruleset.name: missing name")
    rules_raw = require(config, "rules", list, "ruleset")
    if not rules_raw:
        raise ConfigError("ruleset.rules: must be a non-empty list")
    rules = tuple(_parse_rule(r, f"rules[{i}]") for i, r in enumerate(rules_raw))
    advisory = require(config, "advisory", dict, "ruleset", {})
    if advisory.get("unit_weights") is not None:
        require_each(require(advisory, "unit_weights", list, "advisory"), float,
                     "advisory.unit_weights")
    return RuleSet(name=name, space=require(config, "space", str, "ruleset", ""), rules=rules,
                   advisory=advisory)


def load_ruleset(source) -> RuleSet:
    """Resolve a rule set from a preset name, a mapping, or a JSON file path."""
    return resolve_config(source, RuleSet, _RULESET_PRESETS, ruleset_from_config, "rule set")


def save_ruleset(ruleset: RuleSet, path) -> None:
    write_json(ruleset_to_config(ruleset), path)


# ---------------------------------------------------------------------------
# presets

_KERNEL7 = ("MBConv3-7", "MBConv4-7", "MBConv6-7")
_LOW_ACC_GPU = ("MBConv3-3", "MBConv3-7", "MBConv4-3")
_LOW_ACC_MAX = ("MBConv3-3", "MBConv3-5", "MBConv3-7", "MBConv4-3")


def _ofa_npu() -> RuleSet:
    return RuleSet(
        name="ofa-npu",
        space="ofa",
        rules=(ReductionRule(kind=REMOVE_BLOCK, units=None, blocks=_KERNEL7),),
        advisory={"unit_weights": [1, 1, 1, 2, 2]},
    )


def _ofa_gpu() -> RuleSet:
    return RuleSet(
        name="ofa-gpu",
        space="ofa",
        rules=(
            ReductionRule(kind=CAP_DEPTH, units=(2, 4, 5), depth=3),
            ReductionRule(kind=REMOVE_BLOCK, units=None, blocks=_LOW_ACC_GPU),
        ),
    )


def _ofa_cpu() -> RuleSet:
    return RuleSet(
        name="ofa-cpu",
        space="ofa",
        rules=(ReductionRule(kind=CAP_DEPTH, units=(1, 2, 3), depth=3),),
    )


def _ofa_note10() -> RuleSet:
    return RuleSet(
        name="ofa-note10",
        space="ofa",
        rules=(
            ReductionRule(kind=CAP_DEPTH, units=(1,), depth=3),
            ReductionRule(kind=REMOVE_BLOCK, units=None, blocks=("MBConv3-7", "MBConv4-7")),
            ReductionRule(kind=RESTRICT_RESOLUTIONS, resolutions=(192, 224)),
        ),
    )


def _proxylessnas_npu() -> RuleSet:
    return RuleSet(
        name="proxylessnas-npu",
        space="proxylessnas",
        rules=(ReductionRule(kind=REMOVE_BLOCK, units=None, blocks=_KERNEL7),),
        advisory={"unit_weights": [1, 1, 1, 1, 2, 2]},
    )


def _proxylessnas_gpu() -> RuleSet:
    return RuleSet(
        name="proxylessnas-gpu",
        space="proxylessnas",
        rules=(
            ReductionRule(kind=CAP_DEPTH, units=(1, 2, 3), depth=3),
            ReductionRule(kind=REMOVE_BLOCK, units=None, blocks=_LOW_ACC_GPU),
        ),
    )


def _proxylessnas_cpu() -> RuleSet:
    return RuleSet(
        name="proxylessnas-cpu",
        space="proxylessnas",
        rules=(ReductionRule(kind=CAP_DEPTH, units=(1, 2), depth=3),),
    )


def _ofa_maxacc() -> RuleSet:
    return RuleSet(
        name="ofa-maxacc",
        space="ofa",
        rules=(ReductionRule(kind=REMOVE_BLOCK, units=None, blocks=_LOW_ACC_MAX),),
    )


def _proxylessnas_maxacc() -> RuleSet:
    return RuleSet(
        name="proxylessnas-maxacc",
        space="proxylessnas",
        rules=(ReductionRule(kind=REMOVE_BLOCK, units=None, blocks=_LOW_ACC_MAX),),
    )


def _resnet50_maxacc() -> RuleSet:
    return RuleSet(
        name="resnet50-maxacc",
        space="resnet50",
        rules=(
            ReductionRule(kind=FORCE_DEPTH, units=(3, 4), depth=MAX_DEPTH),
            ReductionRule(kind=FIX_CHANNEL_RATIO, units=(3, 4), channel_ratio=1.0),
        ),
    )


_RULESET_PRESETS = {
    "ofa-npu": _ofa_npu,
    "ofa-gpu": _ofa_gpu,
    "ofa-cpu": _ofa_cpu,
    "ofa-note10": _ofa_note10,
    "proxylessnas-npu": _proxylessnas_npu,
    "proxylessnas-gpu": _proxylessnas_gpu,
    "proxylessnas-cpu": _proxylessnas_cpu,
    "ofa-maxacc": _ofa_maxacc,
    "proxylessnas-maxacc": _proxylessnas_maxacc,
    "resnet50-maxacc": _resnet50_maxacc,
}


def list_rulesets() -> tuple[str, ...]:
    return tuple(_RULESET_PRESETS)


def preset(name: str) -> RuleSet:
    if name not in _RULESET_PRESETS:
        raise ConfigError(
            f"unknown reduction preset {name!r}; expected one of {', '.join(_RULESET_PRESETS)}"
        )
    return _RULESET_PRESETS[name]()
