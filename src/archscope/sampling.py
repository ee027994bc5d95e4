"""Uniform and placement-conditioned sampling.

Every draw is a batch: sample_batch draws n architectures as integer gene
arrays (Genes) with two Generator.integers calls, first the resolution and
each unit's channel ratio and depth for the whole batch, then one block per
layer slot from the candidates consistent with that architecture's ratio.
docs/FORMATS.md ("Sampling stream") states the layout; it is part of the
contract (same seed, same architectures). sample_uniform and sample_fixed
are batches of one.

A placement condition pins the named block at its (unit, layer) slot and
resamples nothing else, so every other slot keeps its unconditioned
marginal; the pinned unit's depth is drawn uniformly from
{max(layer, depth_min) .. depth_max} so the slot exists, and a pinned block
bound to a channel ratio fixes its unit's ratio. The pinned slot still takes
its draw, which the pin then overwrites.

Stream splitting: independent generators are derived as
``default_rng(SeedSequence([seed, *key]))`` where key is a tuple of small
non-negative ints naming the consumer (baseline, placement, search...). The
rule is used everywhere results must not depend on scheduling.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .spaces import (
    Architecture,
    DesignSpace,
    Placement,
    ratio_values,
    validate_placement,
)

# stream namespace tags for spawn_rng keys
STREAM_BASELINE = 0
STREAM_PLACEMENT = 1
# 2 is retired: it seeded the resampling bootstrap that exact percentile
# standard errors replaced. Do not reuse it.
STREAM_SEARCH_INIT = 3
STREAM_SEARCH_MUTATE = 4


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent generator from a master seed and an integer key."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *[int(k) for k in key]]))


def sample_uniform(
    space: DesignSpace, rng: np.random.Generator, *, resolution: int | None = None
) -> Architecture:
    """One architecture with every gene uniform over its choices: a batch of one."""
    return sample_batch(space, rng, 1, resolution=resolution).architecture(0)


def sample_fixed(
    space: DesignSpace,
    placement: Placement,
    rng: np.random.Generator,
    *,
    resolution: int | None = None,
) -> Architecture:
    """One architecture conditioned on a pinned (unit, layer, block): a batch of one."""
    return sample_batch(space, rng, 1, placement, resolution).architecture(0)


# ---------------------------------------------------------------------------
# batches of gene arrays

class Genes:
    """A batch of architectures of one space as integer gene arrays.

    resolution[i] indexes space.resolutions; ratio[i, u] indexes
    ratio_values(space)[u] (0 without a ratio gene); depth[i, u] is the
    unit's depth; block[i, u, l] indexes the unit's blocks, -1 past the depth.
    """

    def __init__(self, space: DesignSpace, resolution: np.ndarray, ratio: np.ndarray,
                 depth: np.ndarray, block: np.ndarray):
        self.space = space
        self.resolution = resolution  # [N]
        self.ratio = ratio  # [N, U]
        self.depth = depth  # [N, U]
        self.block = block  # [N, U, Lmax]

    def __len__(self) -> int:
        return len(self.resolution)

    @classmethod
    def from_architectures(cls, space: DesignSpace, archs) -> "Genes":
        """The batch whose row i is archs[i], exactly: the inverse of
        architecture(). Raises ValidationError for an architecture of another
        space, a depth outside its unit's range or a gene the space lacks."""
        lmax = max(u.depth_max for u in space.units)
        resolutions = {r: i for i, r in enumerate(space.resolutions)}
        ratio_index = [{r: i for i, r in enumerate(values)} for values in ratio_values(space)]
        block_index = [{b.code: i for i, b in enumerate(unit.blocks)} for unit in space.units]
        has_ratio = any(u.channel_ratios for u in space.units)
        no_ratio = [0] * space.n_units
        shape = (space.n_units, space.n_units, space.n_units if has_ratio else 0)
        res, ratio, depth, block = [], [], [], []
        for i, arch in enumerate(archs):
            try:
                fits = arch.space == space.name and shape == (
                    len(arch.depths), len(arch.blocks), len(arch.channel_ratios)) and all(
                    unit.depth_min <= d <= unit.depth_max and len(codes) == d
                    for unit, d, codes in zip(space.units, arch.depths, arch.blocks))
                if fits:
                    res.append(resolutions[arch.resolution])
                    ratio.append([index[r] for index, r in zip(ratio_index, arch.channel_ratios)]
                                 if has_ratio else no_ratio)
                    block.append([[index[c] for c in codes] + [-1] * (lmax - len(codes))
                                  for index, codes in zip(block_index, arch.blocks)])
                    depth.append(arch.depths)
            except (KeyError, TypeError):
                fits = False
            if not fits:
                raise ValidationError(f"architecture {i} is not a member of space {space.name!r}")
        n, units = len(res), space.n_units
        return cls(
            space=space,
            resolution=np.array(res, dtype=np.int64),
            ratio=np.array(ratio, dtype=np.int64).reshape(n, units),
            depth=np.array(depth, dtype=np.int64).reshape(n, units),
            block=np.array(block, dtype=np.int64).reshape(n, units, lmax),
        )

    def architecture(self, i: int) -> Architecture:
        """Row i as an Architecture."""
        space = self.space
        depths = self.depth[i].tolist()
        has_ratio = any(u.channel_ratios for u in space.units)
        return Architecture(
            space=space.name,
            resolution=space.resolutions[int(self.resolution[i])],
            depths=tuple(depths),
            blocks=tuple(
                tuple(unit.blocks[b].code for b in row[:d])
                for unit, row, d in zip(space.units, self.block[i].tolist(), depths)
            ),
            channel_ratios=tuple(
                values[r] for values, r in zip(ratio_values(space), self.ratio[i].tolist())
            ) if has_ratio else (),
        )


def sample_batch(
    space: DesignSpace,
    rng: np.random.Generator,
    n: int,
    placement: Placement | None = None,
    resolution: int | None = None,
) -> Genes:
    """n architectures as gene arrays, uniform or conditioned on a placement,
    at a given resolution or over all of them.

    Exactly two rng.integers calls with array bounds: a head matrix
    [1 + 2U, n] (the resolution row, then per unit a ratio row and a depth
    row, each offset by its low), then the block picks [n, U, Lmax], each
    slot below its row's depth bounded by the candidates consistent with the
    row's ratio and every other slot by 1. A fixed gene has bound 1.
    """
    if placement is not None:
        validate_placement(space, placement)
    units = space.units
    low, bound = [0], [len(space.resolutions)]
    if resolution is not None:
        if resolution not in space.resolutions:
            raise ValidationError(f"resolution {resolution} not one of {space.resolutions}")
        low[0], bound[0] = space.resolutions.index(resolution), 1
    for unit in units:
        low += (0, unit.depth_min)
        bound += (len(unit.channel_ratios) or 1, unit.depth_max - unit.depth_min + 1)
    if placement is not None:
        pin, unit = placement.unit - 1, space.unit(placement.unit)
        pinned_ratio = space.block(placement.unit, placement.block_code).channel_ratio
        if unit.channel_ratios and pinned_ratio is not None:
            low[1 + 2 * pin], bound[1 + 2 * pin] = unit.channel_ratios.index(pinned_ratio), 1
        lo = max(placement.layer, unit.depth_min)
        low[2 + 2 * pin], bound[2 + 2 * pin] = lo, unit.depth_max - lo + 1
    head = np.array(low)[:, None] + rng.integers(0, np.array(bound)[:, None],
                                                 size=(len(bound), n))

    ratio, depth = head[1::2].T, head[2::2].T  # [n, U]
    candidates, counts = space.candidate_table()
    unit_index = np.arange(len(units))
    present = np.arange(max(u.depth_max for u in units)) < depth[:, :, None]
    picks = rng.integers(0, np.where(present, counts[unit_index, ratio][:, :, None], 1))
    block = np.where(present, candidates[unit_index[:, None], ratio[:, :, None], picks], -1)
    if placement is not None:
        codes = [b.code for b in unit.blocks]
        block[:, pin, placement.layer - 1] = codes.index(placement.block_code)
    return Genes(space=space, resolution=head[0], ratio=ratio, depth=depth, block=block)
