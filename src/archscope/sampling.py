"""Counter-based random streams, and uniform and placement-conditioned sampling.

Every random draw of the package comes from a Stream(seed, *key), key being
small non-negative ints naming the consumer (baseline, placement, search
generation...). Word i of a stream is mix64(s + (i + 1) * gamma mod 2**64),
mix64 being the SplitMix64 finalizer (Steele, Lea & Flood 2014) and s and
gamma (odd) derived from the seed's 64-bit limbs and the key. A stream is
thus a pure function of (seed, key, index), with no generator state, so
results cannot depend on scheduling, and many streams are drawn as one
uint64 array expression with s and gamma as [K, 1] columns
(stream_origins, draw_below). below(bound, count) is exactly uniform: a
word at or above the largest multiple of bound under 2**64 is rejected and
its position takes the next word past the batch's end.

A batch of n architectures (sample_batch, or sample_streams for one batch
per stream) is one below(L, n * W) call read as [n, W], W = 1 + 2U + U * Lmax
words per architecture in the Genes.rows() layout, and each gene is its
word modulo its bound; L (DesignSpace.sampling_bound) is a multiple of every
such bound. docs/FORMATS.md ("Random stream") states the hash, the key table
and the layout; they are part of the contract (same seed, same
architectures). sample_uniform and sample_fixed are batches of one.

A placement condition pins the named block at its (unit, layer) slot and
resamples nothing else, so every other slot keeps its unconditioned
marginal; the pinned unit's depth is drawn uniformly from
{max(layer, depth_min) .. depth_max} so the slot exists, and a pinned block
bound to a channel ratio fixes its unit's ratio. The pinned slot still takes
its word, which the pin then overwrites.
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

# stream namespace tags: the first key entry
STREAM_BASELINE = 0
STREAM_PLACEMENT = 1
# 2 is retired: it seeded the resampling bootstrap that exact percentile
# standard errors replaced. Do not reuse it.
STREAM_SEARCH_INIT = 3
STREAM_SEARCH_MUTATE = 4

_GOLDEN = 0x9E3779B97F4A7C15  # the SplitMix64 increment
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_WEAK_FLIP = 0xAAAAAAAAAAAAAAAA


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of a uint64 array, in place."""
    t = z >> 30
    z ^= t
    z *= _MIX[0]
    np.right_shift(z, 27, out=t)
    z ^= t
    z *= _MIX[1]
    np.right_shift(z, 31, out=t)
    z ^= t
    return z


def stream_origins(seed: int, keys) -> tuple[np.ndarray, np.ndarray]:
    """(s, gamma), uint64 [K], of the streams (seed, *keys[k]) for K keys of
    one length: mix64 absorbs the limb count, the seed's 64-bit limbs (least
    significant first), the key length and the key, each as h = mix64((h +
    golden) ^ value) from h = 0; s = mix64(h + golden) and gamma =
    mix64(h + 2 golden) | 1, with 0xAAAA... xored in when gamma has fewer
    than 24 bit changes (gamma ^ (gamma >> 1) has under 24 ones)."""
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    limbs = [seed & (2**64 - 1)]
    while seed >> 64 * len(limbs):
        limbs.append(seed >> 64 * len(limbs) & (2**64 - 1))
    try:
        keys = np.array(keys, dtype=np.uint64).reshape(len(keys), -1)
    except OverflowError:
        raise ValidationError(f"stream keys must be integers in [0, 2**64): {keys}") from None
    h = np.zeros(len(keys), dtype=np.uint64)
    for value in (len(limbs), *limbs, keys.shape[1], *keys.T):
        h += _GOLDEN
        h ^= value
        _mix64(h)
    s = _mix64(h + _GOLDEN)
    h += 2 * _GOLDEN % 2**64
    gamma = _mix64(h) | 1
    changes = np.unpackbits((gamma ^ (gamma >> 1)).view(np.uint8).reshape(-1, 8), axis=1)
    gamma[changes.sum(axis=1) < 24] ^= _WEAK_FLIP
    return s, gamma


def _words(s: np.ndarray, gamma: np.ndarray, start: int, count: int) -> np.ndarray:
    """Words start .. start + count - 1 of each stream, uint64 [K, count]."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64) * gamma[:, None]
    z += s[:, None]
    return _mix64(z)


def draw_below(s: np.ndarray, gamma: np.ndarray, start: int, bound: int,
               count: int) -> tuple[np.ndarray, list[int]]:
    """count values uniform on [0, bound) per stream from word start on, int64
    [K, count], and the index of each stream's next unread word. A word at or
    above 2**64 - 2**64 % bound is rejected; the rejected positions, in
    order, take the next accepted words past the batch's end."""
    if not 1 <= bound < 2**63:
        raise ValidationError(f"stream bound must be in [1, 2**63), got {bound}")
    words = _words(s, gamma, start, count)
    ends = [start + count] * len(s)
    limit = 2**64 - 2**64 % bound
    if limit < 2**64:
        rejected = words >= limit
        for k in np.flatnonzero(rejected.any(axis=1)).tolist():
            slots, taken = np.flatnonzero(rejected[k]), []
            while len(taken) < len(slots):
                more = _words(s[k : k + 1], gamma[k : k + 1], ends[k], len(slots) - len(taken))[0]
                ends[k] += len(more)
                taken.extend(more[more < limit])
            words[k, slots] = taken
    quotient = words // bound  # a scalar divisor: much faster than words % bound
    quotient *= bound
    words -= quotient
    return words.view(np.int64), ends


class Stream:
    """The random stream named by (seed, *key), read from a cursor: each call
    takes the words after the last one read. docs/FORMATS.md ("Random
    stream") states the words; seed and key entries are non-negative ints,
    seeds of any size."""

    def __init__(self, seed: int, *key: int):
        self.s, self.gamma = stream_origins(seed, [key])
        self.position = 0  # words read so far

    @classmethod
    def each(cls, seed: int, keys) -> list[Stream]:
        """Stream(seed, *key) for each of keys (all of one length), derived as
        one array expression: deriving a stream costs tens of numpy calls."""
        s, gamma = stream_origins(seed, keys)
        streams = [cls.__new__(cls) for _ in keys]
        for k, stream in enumerate(streams):
            stream.s, stream.gamma, stream.position = s[k : k + 1], gamma[k : k + 1], 0
        return streams

    def words(self, count: int) -> np.ndarray:
        """The next count raw words, uint64."""
        out = _words(self.s, self.gamma, self.position, count)[0]
        self.position += count
        return out

    def below(self, bound: int, count: int) -> np.ndarray:
        """count int64 values uniform on [0, bound), 1 <= bound < 2**63."""
        values, (self.position,) = draw_below(self.s, self.gamma, self.position, bound, count)
        return values[0]

    def doubles(self, count: int) -> np.ndarray:
        """count doubles uniform on [0, 1): (word >> 11) * 2**-53."""
        return (self.words(count) >> 11).astype(np.float64) * 2.0**-53


stream = Stream  # the package's export


def sample_uniform(
    space: DesignSpace, stream: Stream, *, resolution: int | None = None
) -> Architecture:
    """One architecture with every gene uniform over its choices: a batch of one."""
    return sample_batch(space, stream, 1, resolution=resolution).architecture(0)


def sample_fixed(
    space: DesignSpace,
    placement: Placement,
    stream: Stream,
    *,
    resolution: int | None = None,
) -> Architecture:
    """One architecture conditioned on a pinned (unit, layer, block): a batch of one."""
    return sample_batch(space, stream, 1, placement, resolution).architecture(0)


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
        space, a depth outside its unit's range, a gene the space lacks or a
        block its unit's channel ratio does not admit."""
        lmax = max(u.depth_max for u in space.units)
        resolutions = {r: i for i, r in enumerate(space.resolutions)}
        ratio_index = [{r: i for i, r in enumerate(values)} for values in ratio_values(space)]
        block_index = [{b.code: i for i, b in enumerate(unit.blocks)} for unit in space.units]
        admitted = [[set(row[:n].tolist()) for row, n in zip(rows, counts)]
                    for rows, counts in zip(*space.candidate_table())]
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
                    picks = ([index[r] for index, r in zip(ratio_index, arch.channel_ratios)]
                             if has_ratio else no_ratio)
                    blocks = [[index[c] for c in codes]
                              for index, codes in zip(block_index, arch.blocks)]
                    fits = all(admitted[u][r].issuperset(b)
                               for u, (r, b) in enumerate(zip(picks, blocks)))
                if fits:
                    res.append(resolutions[arch.resolution])
                    ratio.append(picks)
                    block.append([b + [-1] * (lmax - len(b)) for b in blocks])
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

    @classmethod
    def from_rows(cls, space: DesignSpace, rows: np.ndarray) -> "Genes":
        """The batch whose genes are views into the rows of an int64 matrix
        laid out as rows() writes it."""
        units = space.n_units
        return cls(
            space=space,
            resolution=rows[:, 0],
            ratio=rows[:, 1 : 1 + units],
            depth=rows[:, 1 + units : 1 + 2 * units],
            block=rows[:, 1 + 2 * units :].reshape(len(rows), units, -1),
        )

    def rows(self) -> np.ndarray:
        """The batch as one int64 matrix [N, 1 + 2U + U * Lmax], a row per
        architecture: the resolution, the U ratios, the U depths, then each
        unit's Lmax block slots. With block codes and channel ratios
        distinct within each unit (as parsed configs are), two rows are equal
        exactly when their architectures are."""
        n = len(self)
        return np.concatenate(
            [self.resolution[:, None], self.ratio, self.depth, self.block.reshape(n, -1)],
            axis=1,
        ).astype(np.int64, copy=False)

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
    stream: Stream,
    n: int,
    placement: Placement | None = None,
    resolution: int | None = None,
) -> Genes:
    """n architectures as gene arrays from the stream's next n * W words,
    uniform or conditioned on a placement, at a given resolution or over all
    of them."""
    bound, width = space.sampling_bound(), _width(space)
    return _decode(space, stream.below(bound, n * width)[None], n, [placement], resolution)


def sample_streams(
    space: DesignSpace,
    origins: tuple[np.ndarray, np.ndarray],
    n: int,
    placements: list[Placement | None],
    resolution: int | None = None,
) -> Genes:
    """One batch of n architectures per stream, rows [k * n, (k + 1) * n)
    from the first n * W words of the stream with origins (s[k], gamma[k])
    (stream_origins), uniform or conditioned on placements[k] (None). Row k
    equals sample_batch on a fresh Stream with that key; the draws are one
    array expression for all the streams."""
    s, gamma = origins
    values, _ = draw_below(s, gamma, 0, space.sampling_bound(), n * _width(space))
    return _decode(space, values, n, placements, resolution)


def _width(space: DesignSpace) -> int:
    """W, the words of one architecture: 1 + 2U + U * Lmax."""
    units = space.units
    return 1 + len(units) * (2 + max(u.depth_max for u in units))


def _decode(space, values, n, placements, resolution) -> Genes:
    """The genes of [K, n * W] values below L, read as K * n rows of W in the
    Genes.rows() layout: each gene is its value modulo its bound (plus its
    low for a depth), a block slot past the row's depth is -1, and the
    placements[k] (None: unpinned) pin rows [k * n, (k + 1) * n)."""
    units = space.units
    u_count = len(units)
    rows = values.reshape(-1, _width(space))
    low = np.array([0] + [0] * u_count + [u.depth_min for u in units])
    bound = np.array([len(space.resolutions)] + [len(u.channel_ratios) or 1 for u in units]
                     + [u.depth_max - u.depth_min + 1 for u in units])
    if resolution is not None:
        if resolution not in space.resolutions:
            raise ValidationError(f"resolution {resolution} not one of {space.resolutions}")
        low[0], bound[0] = space.resolutions.index(resolution), 1
    head = rows[:, : 1 + 2 * u_count] % bound
    head += low
    pins = []
    for k, placement in enumerate(placements):
        if placement is None:
            continue
        validate_placement(space, placement)
        pin, unit = placement.unit - 1, space.unit(placement.unit)
        part = slice(k * n, (k + 1) * n)
        pinned = space.block(placement.unit, placement.block_code)
        if unit.channel_ratios and pinned.channel_ratio is not None:
            head[part, 1 + pin] = unit.channel_ratios.index(pinned.channel_ratio)
        first = max(placement.layer, unit.depth_min)
        head[part, 1 + u_count + pin] = first + rows[part, 1 + u_count + pin] % (
            unit.depth_max - first + 1)
        pins.append((part, pin, placement.layer - 1,
                     [b.code for b in unit.blocks].index(placement.block_code)))
    ratio, depth = head[:, 1 : 1 + u_count], head[:, 1 + u_count :]
    candidates, counts = space.candidate_table()
    slots = rows[:, 1 + 2 * u_count :].reshape(len(rows), u_count, -1)
    lmax = slots.shape[2]
    # present[i, u, l]: slot l is below row i's depth of unit u
    present = (np.arange(lmax) < np.arange(lmax + 1)[:, None]).take(depth, axis=0)
    cell = ratio + np.arange(u_count) * counts.shape[1]  # (unit, ratio) of each row
    picks = _modulo(slots, counts.take(cell)[:, :, None], counts[counts > 0])
    cell *= candidates.shape[2]
    block = candidates.take(picks + cell[:, :, None])
    np.copyto(block, -1, where=~present)
    for part, pin, layer, b in pins:
        block[part, pin, layer] = b
    return Genes(space=space, resolution=head[:, 0], ratio=ratio, depth=depth, block=block)


def _modulo(values: np.ndarray, bounds: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """values % bounds for non-negative values, bounds taking only the values
    in distinct: each one is a scalar divisor, with which numpy divides
    several times faster than with an array of divisors."""
    out = None
    for b in sorted(set(distinct.tolist())):
        part = values // b
        part *= -b
        part += values
        out = part if out is None else np.where(bounds == b, part, out)
    return out
