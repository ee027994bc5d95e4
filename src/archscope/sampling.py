"""Uniform and placement-conditioned sampling.

Draw order is part of the contract (same seed, same architecture): resolution
first, then per unit in stack order a channel ratio (ratio spaces only), the
depth, and one block index per present layer. A placement condition pins the
named block at its (unit, layer) slot and resamples nothing else, so every
other slot keeps its unconditioned marginal; the pinned unit's depth is drawn
uniformly from {max(layer, depth_min) .. depth_max} so the slot exists. The
pinned slot still takes its draw, which the pin then overwrites.

Word-level contract (numpy's Generator.integers on PCG64, checked by the
tests): a draw over k > 1 choices takes one 32-bit word w of the stream and
maps it to (w * k) >> 32 (Lemire 2019, ACM TOMACS 29:3); a draw over k = 1
choice takes no word. The map rejects w, and integers() takes another word,
when (w * k) mod 2**32 < 2**32 mod k. sample_batch pulls the words of a
whole batch in one call and decodes them with the same map; when a word it
uses falls in a rejection zone it returns None, and the caller redraws that
stream with the scalar sampler, so results never depend on which path ran.

Stream splitting: independent generators are derived as
``default_rng(SeedSequence([seed, *key]))`` where key is a tuple of small
non-negative ints naming the consumer (baseline, placement, search...). The
rule is used everywhere results must not depend on scheduling.
"""

from __future__ import annotations

from typing import NamedTuple

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


def _pick(rng: np.random.Generator, items):
    return items[int(rng.integers(len(items)))]


def _sample(
    space: DesignSpace,
    rng: np.random.Generator,
    placement: Placement | None,
    resolution: int | None,
) -> Architecture:
    if resolution is None:
        resolution = _pick(rng, space.resolutions)
    elif resolution not in space.resolutions:
        raise ValidationError(f"resolution {resolution} not one of {space.resolutions}")

    pinned_block = (
        space.block(placement.unit, placement.block_code) if placement is not None else None
    )
    depths = []
    blocks = []
    ratios = []
    has_ratio = any(u.channel_ratios for u in space.units)
    for unit in space.units:
        pin = placement if placement is not None and placement.unit == unit.index else None
        if unit.channel_ratios:
            if pin is not None and pinned_block.channel_ratio is not None:
                ratio = pinned_block.channel_ratio
            else:
                ratio = _pick(rng, unit.channel_ratios)
        else:
            ratio = None
        lo = max(pin.layer, unit.depth_min) if pin is not None else unit.depth_min
        depth = int(rng.integers(lo, unit.depth_max + 1))
        choices = space.candidates(unit.index, ratio)
        codes = [unit.blocks[_pick(rng, choices)].code for _ in range(depth)]
        if pin is not None:
            codes[pin.layer - 1] = pin.block_code
        depths.append(depth)
        blocks.append(tuple(codes))
        if has_ratio:
            ratios.append(ratio if ratio is not None else 1.0)
    return Architecture(
        space=space.name,
        resolution=int(resolution),
        depths=tuple(depths),
        blocks=tuple(blocks),
        channel_ratios=tuple(ratios) if has_ratio else (),
    )


def sample_uniform(
    space: DesignSpace, rng: np.random.Generator, *, resolution: int | None = None
) -> Architecture:
    """One architecture with every gene uniform over its choices."""
    return _sample(space, rng, None, resolution)


def sample_fixed(
    space: DesignSpace,
    placement: Placement,
    rng: np.random.Generator,
    *,
    resolution: int | None = None,
) -> Architecture:
    """One architecture conditioned on a pinned (unit, layer, block)."""
    validate_placement(space, placement)
    return _sample(space, rng, placement, resolution)


# ---------------------------------------------------------------------------
# batches of gene arrays

_WORD = 2**32
_CHUNK = 4096  # word offsets per step of sample_batch's start pass


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
        """Row i as the Architecture the scalar sampler builds."""
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


def _lemire(words: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """Map uint64-held 32-bit words onto range(k) as Generator.integers does;
    also flag each word in the rejection zone. k is an int or a uint64 array."""
    m = words * k
    return (m >> 32).astype(np.int64), (m & (_WORD - 1)) < (_WORD % k)


class _UnitDraws(NamedTuple):
    ratio_k: int  # choices of the ratio draw; 1 when fixed
    ratio_idx: int  # the ratio index when ratio_k == 1
    lo: int  # smallest depth
    depth_k: int
    choices: np.ndarray  # [ratios, widest] candidate block indices per ratio
    block_k: np.ndarray  # [ratios] uint64, choices of each layer's draw
    block_w: np.ndarray  # [ratios] int64, words per layer: 1 when block_k > 1
    depth_max: int
    pin: tuple[int, int] | None  # (layer slot, block index) of a placement


def _unit_draws(space: DesignSpace, placement: Placement | None) -> list[_UnitDraws]:
    """Per-unit draw shapes."""
    out = []
    for unit in space.units:
        pin = placement if placement is not None and placement.unit == unit.index else None
        ratios = unit.channel_ratios or (None,)
        ratio_k, ratio_idx = len(ratios), 0
        if pin is not None:
            pinned = space.block(unit.index, pin.block_code).channel_ratio
            if unit.channel_ratios and pinned is not None:
                ratio_k, ratio_idx = 1, ratios.index(pinned)
        picks = [space.candidates(unit.index, r) for r in ratios]
        choices = np.zeros((len(picks), max(map(len, picks))), dtype=np.int64)
        for r, pick in enumerate(picks):
            choices[r, : len(pick)] = pick
        block_k = np.array([len(p) for p in picks], dtype=np.uint64)
        lo = max(pin.layer, unit.depth_min) if pin is not None else unit.depth_min
        out.append(_UnitDraws(
            ratio_k=ratio_k,
            ratio_idx=ratio_idx,
            lo=lo,
            depth_k=unit.depth_max - lo + 1,
            choices=choices,
            block_k=block_k,
            block_w=(block_k > 1).astype(np.int64),
            depth_max=unit.depth_max,
            pin=None if pin is None else (
                pin.layer - 1, [b.code for b in unit.blocks].index(pin.block_code)),
        ))
    return out


def sample_batch(
    space: DesignSpace,
    rng: np.random.Generator,
    n: int,
    placement: Placement | None = None,
    resolution: int | None = None,
) -> Genes | None:
    """n architectures as gene arrays, equal to n sample_uniform calls (or
    sample_fixed calls, given a placement) on the same generator.

    Returns None when a word the draws use falls in a rejection zone; redraw
    the stream with the scalar sampler then. The generator is spent either
    way: it is advanced past every word the batch may need, not just the
    used ones.
    """
    if placement is not None:
        validate_placement(space, placement)
    if resolution is None:
        res_k, res_idx = len(space.resolutions), 0
    elif resolution in space.resolutions:
        res_k, res_idx = 1, space.resolutions.index(resolution)
    else:
        raise ValidationError(f"resolution {resolution} not one of {space.resolutions}")
    units = _unit_draws(space, placement)
    per_arch = int(res_k > 1) + sum(
        int(d.ratio_k > 1) + int(d.depth_k > 1) + d.depth_max * int(d.block_w.max())
        for d in units
    )
    words = rng.integers(_WORD, size=n * per_arch, dtype=np.uint64)
    # zero padding lets an offset near the end read a whole architecture
    words = np.concatenate([words, np.zeros(per_arch + 1, dtype=np.uint64)])

    # where the next architecture starts if one started at each offset,
    # computed a chunk of offsets at a time to keep the temporaries small
    following = np.empty(n * per_arch + 1, dtype=np.int64)
    for first in range(0, len(following), _CHUNK):
        pos = np.arange(first, min(first + _CHUNK, len(following))) + int(res_k > 1)
        for d in units:
            ratio = d.ratio_idx
            if d.ratio_k > 1:
                ratio = _lemire(words[pos], d.ratio_k)[0]
                pos = pos + 1
            depth = d.lo
            if d.depth_k > 1:
                depth = d.lo + _lemire(words[pos], d.depth_k)[0]
                pos = pos + 1
            pos = pos + depth * d.block_w[ratio]
        following[first : first + len(pos)] = pos
    chain = []
    start = 0
    for _ in range(n):
        chain.append(start)
        start = following.item(start)

    # decode the architectures on the chain, checking every word they use
    pos = np.array(chain, dtype=np.int64)
    rejected = False

    def draw(k, fixed):
        nonlocal pos, rejected
        if k == 1:
            return np.full(n, fixed, dtype=np.int64)
        value, reject = _lemire(words[pos], k)
        pos, rejected = pos + 1, rejected or reject.any()
        return value

    res = draw(res_k, res_idx)
    ratios = np.empty((n, len(units)), dtype=np.int64)
    depths = np.empty((n, len(units)), dtype=np.int64)
    blocks = np.full((n, len(units), max(d.depth_max for d in units)), -1, dtype=np.int64)
    for u, d in enumerate(units):
        ratio = ratios[:, u] = draw(d.ratio_k, d.ratio_idx)
        depth = depths[:, u] = d.lo + draw(d.depth_k, 0)
        layers = np.arange(d.depth_max)
        width = d.block_w[ratio]
        picks, reject = _lemire(words[pos[:, None] + layers * width[:, None]],
                                d.block_k[ratio][:, None])
        present = layers < depth[:, None]
        rejected = rejected or (reject & present).any()
        chosen = np.where(present, d.choices[ratio[:, None], picks], -1)
        if d.pin is not None:
            chosen[:, d.pin[0]] = d.pin[1]
        blocks[:, u, : d.depth_max] = chosen
        pos = pos + depth * width
    if rejected:
        return None
    return Genes(space=space, resolution=res, ratio=ratios, depth=depths, block=blocks)
