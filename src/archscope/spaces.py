"""Design-space grammar: block/unit/space types, presets, counting and records.

A design space is a stack of units. Every unit holds between depth_min and
depth_max layers, each layer picks one block out of the unit's candidate list,
and the candidate list is ordered the same way everywhere (tables, exports,
mutation) so downstream artifacts line up. MBConv spaces additionally carry an
input-resolution choice; the bottleneck space carries a per-unit channel-ratio
gene whose value is welded into the joint block codes (C65-B20 fixes ratio
0.65 and layer expansion 0.20 at once).

Counting is exact big-integer arithmetic, never floats.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, ValidationError
from .formats import refuse_unknown, require, require_each, resolve_config, write_json

MBCONV_V3 = "mbconv_v3"
MBCONV_V2 = "mbconv_v2"
RESNET_BOTTLENECK = "resnet_bottleneck"

FAMILIES = (MBCONV_V3, MBCONV_V2, RESNET_BOTTLENECK)

RECORD_VERSION = 1
CONFIG_VERSION = 1


@dataclass(frozen=True)
class BlockSpec:
    """One candidate block.

    kernel is the depthwise kernel for MBConv families and the middle conv
    kernel (always 3) for bottlenecks. expansion is the integer MBConv
    expansion ratio or the fractional bottleneck layer ratio. channel_ratio is
    only set for bottleneck blocks, where the joint code binds the unit-level
    ratio; it is None for MBConv blocks.
    """

    code: str
    family: str
    kernel: int
    expansion: float
    channel_ratio: float | None = None
    uses_se: bool = False
    activation: str = "relu"  # recorded for completeness; no metric reads it

    def axes(self) -> dict:
        """The block's two attribute axes by name: (channel_ratio, expansion)
        for bottlenecks, (expansion, kernel) for MBConv."""
        if self.family == RESNET_BOTTLENECK:
            return {"channel_ratio": self.channel_ratio, "expansion": self.expansion}
        return {"expansion": self.expansion, "kernel": self.kernel}


@dataclass(frozen=True)
class UnitSpec:
    index: int  # 1-based position in the stack
    depth_min: int
    depth_max: int
    blocks: tuple[BlockSpec, ...]
    channel_ratios: tuple[float, ...] = ()
    base_channels: int = 0  # cost-model plumbing only; sampling/counting never read it


@dataclass(frozen=True)
class StemSpec:
    kernel: int = 3
    stride: int = 2
    out_channels: int = 16


@dataclass(frozen=True)
class HeadSpec:
    conv_channels: int = 0  # 1x1 conv after the body; 0 = absent
    hidden: int = 0  # fully-connected widening before the classifier; 0 = absent
    classes: int = 1000


@dataclass(frozen=True)
class DesignSpace:
    name: str
    family: str
    units: tuple[UnitSpec, ...]
    resolutions: tuple[int, ...]
    stem: StemSpec = field(default_factory=StemSpec)
    head: HeadSpec = field(default_factory=HeadSpec)
    # (unit position, code) -> first candidate with that code, built once
    _blocks: dict = field(init=False, repr=False, compare=False)
    # the sampler's tables, built once (see candidate_table)
    _candidates: np.ndarray = field(init=False, repr=False, compare=False)
    _candidate_counts: np.ndarray = field(init=False, repr=False, compare=False)
    _sampling_bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict = {}
        consistent = []  # per unit, per ratio choice: the consistent candidates
        for position, unit in enumerate(self.units, start=1):
            for b in unit.blocks:
                index.setdefault((position, b.code), b)
            consistent.append(
                [_consistent_indices(unit, r) for r in unit.channel_ratios or (None,)])
        ratios = max(map(len, consistent), default=0)
        width = max((len(p) for per_ratio in consistent for p in per_ratio), default=0)
        candidates = np.zeros((len(consistent), ratios, width), dtype=np.int64)
        counts = np.zeros((len(consistent), ratios), dtype=np.int64)
        for u, per_ratio in enumerate(consistent):
            for r, pick in enumerate(per_ratio):
                candidates[u, r, : len(pick)] = pick
                counts[u, r] = len(pick)
        candidates.flags.writeable = counts.flags.writeable = False
        bounds = {len(self.resolutions)}
        for unit, per_ratio in zip(self.units, consistent):
            bounds.update(range(1, unit.depth_max - unit.depth_min + 2), map(len, per_ratio),
                          [len(per_ratio)])
        object.__setattr__(self, "_sampling_bounds", tuple(sorted(bounds)))
        object.__setattr__(self, "_blocks", index)
        object.__setattr__(self, "_candidates", candidates)
        object.__setattr__(self, "_candidate_counts", counts)

    def unit(self, index: int) -> UnitSpec:
        if not 1 <= index <= len(self.units):
            raise ValidationError(f"unit {index} out of range for space {self.name!r}")
        return self.units[index - 1]

    def block(self, unit_index: int, code: str) -> BlockSpec:
        try:
            return self._blocks[unit_index, code]
        except KeyError:
            self.unit(unit_index)  # raises on a bad unit
        raise ValidationError(
            f"block {code!r} not a candidate of unit {unit_index} in space {self.name!r}"
        )

    def candidate_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(candidates [U, R, W], counts [U, R]), read-only. Row [u, r] lists,
        in candidate order, the indices into unit u's blocks of the candidates
        consistent with its r-th channel ratio (the r-th entry of
        ratio_values; r = 0 without a ratio gene), zero-padded past
        counts[u, r]; counts is 0 past the unit's ratios."""
        return self._candidates, self._candidate_counts

    def sampling_bound(self) -> int:
        """L, the least common multiple of every bound a sampled gene is
        reduced by (docs/FORMATS.md, "Random stream"): the resolution count,
        and per unit its ratio count, 1 up to its depth range (a pinned
        layer shortens the range) and each candidate count. Raises
        ValidationError, naming the bounds, when L does not fit in 63 bits."""
        bound = math.lcm(*self._sampling_bounds)
        if bound >= 2**63:
            raise ValidationError(
                f"space {self.name!r}: the sampling bounds {list(self._sampling_bounds)} have a "
                f"least common multiple of {bound}, which does not fit in 63 bits")
        return bound

    @property
    def n_units(self) -> int:
        return len(self.units)


@dataclass(frozen=True)
class Placement:
    """A (unit, layer, block) condition: the block is pinned at that layer."""

    unit: int
    layer: int
    block_code: str

    def key(self) -> tuple[int, int, str]:
        return (self.unit, self.layer, self.block_code)


@dataclass(frozen=True)
class Architecture:
    space: str
    resolution: int
    depths: tuple[int, ...]
    blocks: tuple[tuple[str, ...], ...]  # blocks[u][l]: code at unit u+1, layer l+1
    channel_ratios: tuple[float, ...] = ()


def consistent_blocks(unit: UnitSpec, ratio: float | None) -> tuple[BlockSpec, ...]:
    """Candidate blocks compatible with a chosen unit channel ratio.

    MBConv units have no ratio gene, so everything is consistent with None.
    """
    if ratio is None:
        return unit.blocks
    return tuple(b for b in unit.blocks if b.channel_ratio is None or b.channel_ratio == ratio)


def _consistent_indices(unit: UnitSpec, ratio: float | None) -> tuple[int, ...]:
    allowed = {id(b) for b in consistent_blocks(unit, ratio)}
    return tuple(i for i, b in enumerate(unit.blocks) if id(b) in allowed)


def ratio_values(space: DesignSpace) -> tuple[tuple[float | None, ...], ...]:
    """Per unit, the value Architecture.channel_ratios holds for each ratio
    choice: the unit's ratios (1.0 for a unit without one in a ratio space),
    or a single None when the space has no ratio gene."""
    if not any(u.channel_ratios for u in space.units):
        return tuple((None,) for _ in space.units)
    return tuple(u.channel_ratios or (1.0,) for u in space.units)


def effective_channels(base: int, ratio: float | None) -> int:
    """Unit output width after the channel-ratio gene; half-up rounding."""
    if ratio is None:
        return base
    return max(1, int(base * ratio + 0.5))


# ---------------------------------------------------------------------------
# presets

_MBCONV_EXPANSIONS = (3, 4, 6)
_MBCONV_KERNELS = (3, 5, 7)
_BOTTLENECK_RATIOS = (0.65, 0.8, 1.0)
_BOTTLENECK_EXPANSIONS = (0.2, 0.25, 0.35)


def mbconv_block_table(family: str) -> tuple[BlockSpec, ...]:
    """The nine MBConv candidates in canonical order: expansion-major, kernel-minor."""
    se = family == MBCONV_V3
    act = "hswish" if family == MBCONV_V3 else "relu"
    return tuple(
        BlockSpec(
            code=f"MBConv{e}-{k}",
            family=family,
            kernel=k,
            expansion=e,
            uses_se=se,
            activation=act,
        )
        for e in _MBCONV_EXPANSIONS
        for k in _MBCONV_KERNELS
    )


def bottleneck_block_table() -> tuple[BlockSpec, ...]:
    """The nine joint bottleneck candidates: channel-ratio-major, expansion-minor."""
    return tuple(
        BlockSpec(
            code=f"C{round(r * 100)}-B{round(e * 100)}",
            family=RESNET_BOTTLENECK,
            kernel=3,
            expansion=e,
            channel_ratio=r,
        )
        for r in _BOTTLENECK_RATIOS
        for e in _BOTTLENECK_EXPANSIONS
    )


def _ofa_space() -> DesignSpace:
    blocks = mbconv_block_table(MBCONV_V3)
    channels = (24, 40, 80, 112, 160)
    units = tuple(
        UnitSpec(index=i + 1, depth_min=2, depth_max=4, blocks=blocks, base_channels=c)
        for i, c in enumerate(channels)
    )
    return DesignSpace(
        name="ofa",
        family=MBCONV_V3,
        units=units,
        resolutions=(192, 208, 224),
        stem=StemSpec(kernel=3, stride=2, out_channels=16),
        head=HeadSpec(conv_channels=960, hidden=1280, classes=1000),
    )


def _proxylessnas_space() -> DesignSpace:
    blocks = mbconv_block_table(MBCONV_V2)
    channels = (24, 32, 64, 96, 160)
    units = [
        UnitSpec(index=i + 1, depth_min=2, depth_max=4, blocks=blocks, base_channels=c)
        for i, c in enumerate(channels)
    ]
    # trailing unit: depth frozen at one layer, block still searchable
    units.append(
        UnitSpec(index=6, depth_min=1, depth_max=1, blocks=blocks, base_channels=320)
    )
    return DesignSpace(
        name="proxylessnas",
        family=MBCONV_V2,
        units=tuple(units),
        resolutions=(224,),
        stem=StemSpec(kernel=3, stride=2, out_channels=32),
        head=HeadSpec(conv_channels=1280, hidden=0, classes=1000),
    )


def _resnet50_space() -> DesignSpace:
    blocks = bottleneck_block_table()
    depth_ranges = ((2, 4), (2, 4), (4, 6), (2, 4))
    channels = (256, 512, 1024, 2048)
    units = tuple(
        UnitSpec(
            index=i + 1,
            depth_min=lo,
            depth_max=hi,
            blocks=blocks,
            channel_ratios=_BOTTLENECK_RATIOS,
            base_channels=c,
        )
        for i, ((lo, hi), c) in enumerate(zip(depth_ranges, channels))
    )
    return DesignSpace(
        name="resnet50",
        family=RESNET_BOTTLENECK,
        units=units,
        resolutions=(224,),
        stem=StemSpec(kernel=7, stride=2, out_channels=64),
        head=HeadSpec(conv_channels=0, hidden=0, classes=1000),
    )


_PRESETS = {
    "ofa": _ofa_space,
    "proxylessnas": _proxylessnas_space,
    "resnet50": _resnet50_space,
}


def list_spaces() -> tuple[str, ...]:
    return tuple(_PRESETS)


# ---------------------------------------------------------------------------
# config documents

def space_to_config(space: DesignSpace) -> dict:
    """Plain-data document for a space; loadable by load_space."""
    units = []
    for u in space.units:
        blocks = []
        for b in u.blocks:
            entry = {"code": b.code, "kernel": b.kernel, "expansion": b.expansion}
            if b.channel_ratio is not None:
                entry["channel_ratio"] = b.channel_ratio
            blocks.append(entry)
        units.append(
            {
                "depth_min": u.depth_min,
                "depth_max": u.depth_max,
                "base_channels": u.base_channels,
                "channel_ratios": list(u.channel_ratios),
                "blocks": blocks,
            }
        )
    return {
        "format_version": CONFIG_VERSION,
        "name": space.name,
        "family": space.family,
        "resolutions": list(space.resolutions),
        "stem": asdict(space.stem),
        "head": asdict(space.head),
        "units": units,
    }


def _parse_block(entry, family, where) -> BlockSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected a mapping, got {entry!r}")
    refuse_unknown(entry, ("code", "kernel", "expansion", "channel_ratio"), where)
    code = require(entry, "code", str, where)
    kernel = require(entry, "kernel", int, where)
    expansion = require(entry, "expansion", float, where)
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigError(f"{where}.kernel: must be a positive odd size, got {kernel}")
    if expansion <= 0:
        raise ConfigError(f"{where}.expansion: must be positive, got {expansion}")
    ratio = None
    if entry.get("channel_ratio") is not None:
        ratio = require(entry, "channel_ratio", float, where)
        if ratio <= 0:
            raise ConfigError(f"{where}.channel_ratio: must be positive, got {ratio}")
    if family in (MBCONV_V3, MBCONV_V2):
        expansion = int(expansion) if float(expansion).is_integer() else expansion
    return BlockSpec(
        code=code,
        family=family,
        kernel=kernel,
        expansion=expansion,
        channel_ratio=ratio,
        uses_se=family == MBCONV_V3,
        activation="hswish" if family == MBCONV_V3 else "relu",
    )


def _parse_unit(entry, index, family) -> UnitSpec:
    where = f"units[{index - 1}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected a mapping, got {entry!r}")
    refuse_unknown(entry, ("depth_min", "depth_max", "base_channels", "channel_ratios", "blocks"),
                   where)
    lo = require(entry, "depth_min", int, where)
    hi = require(entry, "depth_max", int, where)
    if lo < 1:
        raise ConfigError(f"{where}.depth_min: must be >= 1, got {lo}")
    if hi < lo:
        raise ConfigError(f"{where}.depth_max: must be >= depth_min, got {hi} < {lo}")
    raw_blocks = require(entry, "blocks", list, where)
    if not raw_blocks:
        raise ConfigError(f"{where}.blocks: must be a non-empty list")
    blocks = tuple(
        _parse_block(b, family, f"{where}.blocks[{i}]") for i, b in enumerate(raw_blocks)
    )
    codes = [b.code for b in blocks]
    if len(set(codes)) != len(codes):
        raise ConfigError(f"{where}.blocks: duplicate block codes")
    base = require(entry, "base_channels", int, where, 0)
    if base < 0:
        raise ConfigError(f"{where}.base_channels: must be non-negative, got {base}")
    unit = UnitSpec(
        index=index,
        depth_min=lo,
        depth_max=hi,
        blocks=blocks,
        channel_ratios=require_each(require(entry, "channel_ratios", list, where, []), float,
                                    f"{where}.channel_ratios"),
        base_channels=base,
    )
    if len(set(unit.channel_ratios)) != len(unit.channel_ratios):
        raise ConfigError(f"{where}.channel_ratios: duplicates")
    for r in unit.channel_ratios:
        if not consistent_blocks(unit, r):
            raise ConfigError(f"{where}.channel_ratios: no candidate block matches ratio {r}")
    for j, b in enumerate(blocks):
        if unit.channel_ratios and b.channel_ratio not in (None, *unit.channel_ratios):
            raise ConfigError(
                f"{where}.blocks[{j}].channel_ratio: {b.channel_ratio} not one of the "
                f"unit's channel_ratios {list(unit.channel_ratios)}"
            )
    return unit


def _parse_ints(config: dict, key: str, cls):
    """A StemSpec or HeadSpec from the optional mapping config[key]: every
    field an int, a missing one the class default, an unknown key refused."""
    where = f"space.{key}"
    entry = require(config, key, dict, "space", {})
    refuse_unknown(entry, [f.name for f in fields(cls)], where)
    return cls(**{f.name: require(entry, f.name, int, where, f.default) for f in fields(cls)})


def parse_space_config(config: dict) -> DesignSpace:
    if not isinstance(config, dict):
        raise ConfigError(f"space config: expected a mapping, got {type(config).__name__}")
    refuse_unknown(config, ("format_version", "name", "family", "resolutions", "stem", "head",
                            "units"), "space")
    name = require(config, "name", str, "space")
    family = require(config, "family", str, "space")
    if family not in FAMILIES:
        raise ConfigError(f"space.family: unknown family {family!r}; expected one of {FAMILIES}")
    resolutions = require(config, "resolutions", list, "space")
    if not resolutions:
        raise ConfigError("space.resolutions: must be a non-empty list")
    res = tuple(sorted(require_each(resolutions, int, "space.resolutions")))
    if any(r < 1 for r in res):
        raise ConfigError("space.resolutions: sizes must be positive")
    if len(set(res)) != len(res):
        raise ConfigError("space.resolutions: duplicates")
    raw_units = require(config, "units", list, "space")
    if not raw_units:
        raise ConfigError("space.units: must be a non-empty list")
    units = tuple(_parse_unit(u, i + 1, family) for i, u in enumerate(raw_units))
    # records carry one ratio per unit or none, so the ratio gene is all or nothing
    if any(u.channel_ratios for u in units):
        for u in units:
            if not u.channel_ratios:
                raise ConfigError(
                    f"units[{u.index - 1}].channel_ratios: empty beside units with a ratio gene"
                )
    return DesignSpace(name=name, family=family, units=units, resolutions=res,
                       stem=_parse_ints(config, "stem", StemSpec),
                       head=_parse_ints(config, "head", HeadSpec))


def load_space(source) -> DesignSpace:
    """Resolve a space from a preset name, a config mapping, or a JSON file path."""
    return resolve_config(source, DesignSpace, _PRESETS, parse_space_config, "space")


def save_space(space: DesignSpace, path) -> None:
    write_json(space_to_config(space), path)


# ---------------------------------------------------------------------------
# counting

def count_architectures(space: DesignSpace, include_resolutions: bool = False) -> int:
    """Exact number of distinct bodies, optionally times the resolution choices.

    Per unit: sum over channel-ratio choices and admissible depths of
    (consistent layer choices) ** depth. The resolution gene is excluded by
    default so the figure matches body counts; pass include_resolutions=True
    for the full genotype count.
    """
    total = 1
    for unit in space.units:
        ratios = unit.channel_ratios or (None,)
        per_unit = 0
        for ratio in ratios:
            c = len(consistent_blocks(unit, ratio))
            per_unit += sum(c**d for d in range(unit.depth_min, unit.depth_max + 1))
        total *= per_unit
    if include_resolutions:
        total *= len(space.resolutions)
    return total


def count_placements(space: DesignSpace) -> int:
    """Number of (unit, layer, block) conditions: sum of depth_max * candidates."""
    return sum(u.depth_max * len(u.blocks) for u in space.units)


def iter_placements(space: DesignSpace):
    """All placements, unit-major, then layer, then candidate order."""
    for unit in space.units:
        for layer in range(1, unit.depth_max + 1):
            for block in unit.blocks:
                yield Placement(unit=unit.index, layer=layer, block_code=block.code)


def block_axes(space: DesignSpace, code: str) -> dict:
    """Named attribute axes of the first candidate with this code (BlockSpec.axes)."""
    for unit in space.units:
        for b in unit.blocks:
            if b.code == code:
                return b.axes()
    raise ValidationError(f"block {code!r} not in space {space.name!r}")


def block_codes(space: DesignSpace) -> tuple[str, ...]:
    """Union of candidate codes over units, first-seen order."""
    seen: dict[str, None] = {}
    for unit in space.units:
        for b in unit.blocks:
            seen.setdefault(b.code, None)
    return tuple(seen)


def enumerate_architectures(space: DesignSpace, include_resolutions: bool = False):
    """Yield every architecture of a small space.

    Resolution is pinned to the smallest choice unless include_resolutions is
    set, mirroring the default counting convention. Intended for spaces small
    enough to walk; callers guard size via count_architectures first.
    """
    import itertools

    def unit_options(unit: UnitSpec):
        out = []
        for ratio in unit.channel_ratios or (None,):
            codes = [b.code for b in consistent_blocks(unit, ratio)]
            for depth in range(unit.depth_min, unit.depth_max + 1):
                for combo in itertools.product(codes, repeat=depth):
                    out.append((ratio, combo))
        return out

    per_unit = [unit_options(u) for u in space.units]
    resolutions = space.resolutions if include_resolutions else (space.resolutions[0],)
    has_ratio = any(u.channel_ratios for u in space.units)
    for resolution in resolutions:
        for choice in itertools.product(*per_unit):
            yield Architecture(
                space=space.name,
                resolution=resolution,
                depths=tuple(len(c[1]) for c in choice),
                blocks=tuple(c[1] for c in choice),
                channel_ratios=tuple(c[0] for c in choice) if has_ratio else (),
            )


# ---------------------------------------------------------------------------
# records

def validate_placement(space: DesignSpace, placement: Placement) -> None:
    unit = space.unit(placement.unit)  # raises on bad unit
    if not 1 <= placement.layer <= unit.depth_max:
        raise ValidationError(
            f"layer {placement.layer} out of range 1..{unit.depth_max} for unit {placement.unit}"
        )
    space.block(placement.unit, placement.block_code)  # raises on bad code


def validate_architecture(space: DesignSpace, arch: Architecture, check_name: bool = True) -> None:
    """Raise ValidationError unless arch is structurally a member of space.

    check_name=False validates structure only, e.g. to confirm that a sample
    from a reduced space is still a member of its parent.
    """
    if check_name and arch.space != space.name:
        raise ValidationError(f"architecture names space {arch.space!r}, expected {space.name!r}")
    if arch.resolution not in space.resolutions:
        raise ValidationError(
            f"resolution {arch.resolution} not one of {space.resolutions}"
        )
    if len(arch.depths) != space.n_units or len(arch.blocks) != space.n_units:
        raise ValidationError(
            f"expected {space.n_units} units, got depths for {len(arch.depths)}"
        )
    needs_ratio = any(u.channel_ratios for u in space.units)
    if needs_ratio and len(arch.channel_ratios) != space.n_units:
        raise ValidationError("channel_ratios must cover every unit for this space")
    if not needs_ratio and arch.channel_ratios:
        raise ValidationError("channel_ratios given for a space without a ratio gene")
    for unit, depth, codes in zip(space.units, arch.depths, arch.blocks):
        where = f"unit {unit.index}"
        if not unit.depth_min <= depth <= unit.depth_max:
            raise ValidationError(
                f"{where}: depth {depth} outside {unit.depth_min}..{unit.depth_max}"
            )
        if len(codes) != depth:
            raise ValidationError(f"{where}: {len(codes)} block codes for depth {depth}")
        ratio = arch.channel_ratios[unit.index - 1] if needs_ratio else None
        if needs_ratio and ratio not in unit.channel_ratios:
            raise ValidationError(f"{where}: channel ratio {ratio} not one of {unit.channel_ratios}")
        allowed = {b.code for b in consistent_blocks(unit, ratio)}
        for layer, code in enumerate(codes, start=1):
            if code not in allowed:
                raise ValidationError(
                    f"{where} layer {layer}: block {code!r} not admissible"
                    + (f" under channel ratio {ratio}" if ratio is not None else "")
                )


def serialize(arch: Architecture) -> dict:
    record = {
        "format_version": RECORD_VERSION,
        "space": arch.space,
        "resolution": arch.resolution,
        "depths": list(arch.depths),
        "blocks": [list(codes) for codes in arch.blocks],
        "channel_ratios": list(arch.channel_ratios),
    }
    return record


def canonical_json(record: dict) -> str:
    """Stable byte form used for hashing and dedupe keys."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def record_hash(record: dict) -> str:
    return hashlib.sha256(canonical_json(record).encode()).hexdigest()


def arch_key(arch: Architecture) -> str:
    return canonical_json(serialize(arch))


def deserialize(space: DesignSpace, record: dict, check_name: bool = True) -> Architecture:
    if not isinstance(record, dict):
        raise ValidationError(f"architecture record: expected a mapping, got {record!r}")
    for key in ("space", "resolution", "depths", "blocks"):
        if key not in record:
            raise ValidationError(f"architecture record: missing field {key!r}")
    arch = Architecture(
        space=str(record["space"]),
        resolution=int(record["resolution"]),
        depths=tuple(int(d) for d in record["depths"]),
        blocks=tuple(tuple(str(c) for c in codes) for codes in record["blocks"]),
        channel_ratios=tuple(float(r) for r in record.get("channel_ratios", [])),
    )
    validate_architecture(space, arch, check_name=check_name)
    return arch


def space_fingerprint(space: DesignSpace) -> str:
    """Content hash of the canonical config; identifies the space in manifests."""
    return hashlib.sha256(canonical_json(space_to_config(space)).encode()).hexdigest()
