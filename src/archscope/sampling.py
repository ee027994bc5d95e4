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
bound to a channel ratio fixes its unit's ratio. A pin is a rewrite of its
rows' words (pin_table, then _pin), so that plain modulo decoding gives the
pinned genes: the pinned unit's depth and ratio words and the pinned slot's
word, which the stream still draws. A profile pass scores such words
without decoding them (costs.AdditiveForm.score_words).
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
    [K, count], and the index of each stream's next unread word: the
    accepted words (_accepted) modulo bound."""
    words, ends = _accepted(s, gamma, start, bound, count)
    quotient = words // bound  # a scalar divisor: much faster than words % bound
    quotient *= bound
    words -= quotient
    return words.view(np.int64), ends


def _accepted(s: np.ndarray, gamma: np.ndarray, start: int, bound: int,
              count: int) -> tuple[np.ndarray, list[int]]:
    """count words per stream from word start on, uint64 [K, count], and the
    index of each stream's next unread word. A word at or above 2**64 -
    2**64 % bound is rejected; the rejected positions, in order, take the
    next accepted words past the batch's end."""
    if not 1 <= bound < 2**63:
        raise ValidationError(f"stream bound must be in [1, 2**63), got {bound}")
    words = _words(s, gamma, start, count)
    ends = [start + count] * len(s)
    limit = 2**64 - 2**64 % bound
    if limit < 2**64 and words.max(initial=0) >= limit:  # a cheaper test than words >= limit
        rejected = words >= limit
        for k in np.flatnonzero(rejected.any(axis=1)).tolist():
            slots, taken = np.flatnonzero(rejected[k]), []
            while len(taken) < len(slots):
                more = _words(s[k : k + 1], gamma[k : k + 1], ends[k], len(slots) - len(taken))[0]
                ends[k] += len(more)
                taken.extend(more[more < limit])
            words[k, slots] = taken
    return words, ends


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
    values = stream.below(space.sampling_bound(), n * _width(space))
    return _decode(space, _pin(space, values, n, pin_table(space, [placement]), resolution))


def stream_words(
    space: DesignSpace,
    origins: tuple[np.ndarray, np.ndarray],
    n: int,
    pins: np.ndarray,
    resolution: int | None = None,
) -> np.ndarray:
    """The words of one batch of n architectures per stream, as a uint64
    [W, K * n] matrix: column k * n + i is row i of the batch from the stream
    with origins (s[k], gamma[k]) (stream_origins), the words that
    below(L, n * W) reduces modulo L, in the Genes.rows() layout, with a
    fixed resolution and row k of pins (pin_table) written in (_pin). As L
    is a multiple of every bound, each gene is its word modulo its bound.
    The draws are one array expression for all the streams."""
    s, gamma = origins
    words, _ = _accepted(s, gamma, 0, space.sampling_bound(), n * _width(space))
    return _pin(space, words, n, pins, resolution)


def sample_streams(
    space: DesignSpace,
    origins: tuple[np.ndarray, np.ndarray],
    n: int,
    pins: np.ndarray,
    resolution: int | None = None,
) -> Genes:
    """The genes of stream_words: rows [k * n, (k + 1) * n) are one batch
    per stream, uniform or conditioned on the placement of row k of pins.
    Row k equals sample_batch on a fresh Stream with that key."""
    words = stream_words(space, origins, n, pins, resolution) % space.sampling_bound()
    return _decode(space, words.view(np.int64))


def _width(space: DesignSpace) -> int:
    """W, the words of one architecture: 1 + 2U + U * Lmax."""
    units = space.units
    return 1 + len(units) * (2 + max(u.depth_max for u in units))


def pin_table(space: DesignSpace, placements: list[Placement | None]) -> np.ndarray:
    """What each placement (None: unpinned) writes into its rows' words
    (_pin), as the rows of an int64 [K, 6 + R] array: the pinned unit's
    index (-1: unpinned), its depth word's low and span, the ratio index the
    pinned block fixes (-1: none), the unit's ratio count, the slot's word
    index, then the block's position among the candidates of each ratio.
    Raises ValidationError for a placement the space does not have."""
    units = space.units
    u_count, lmax = len(units), max(u.depth_max for u in units)
    # per unit, each code's block index: its first candidate, as space.block reads
    index = [{c.code: b for b, c in reversed(list(enumerate(unit.blocks)))} for unit in units]
    fields = [(-1, 0, 1, -1, 1, 0, 0)] * len(placements)
    for k, p in enumerate(placements):
        if p is None:
            continue
        validate_placement(space, p)
        u = p.unit - 1
        unit, b = units[u], index[u][p.block_code]
        ratio, first = unit.blocks[b].channel_ratio, max(p.layer, unit.depth_min)
        fixed = -1 if not unit.channel_ratios or ratio is None else unit.channel_ratios.index(ratio)
        fields[k] = (u, first - unit.depth_min, unit.depth_max - first + 1, fixed,
                     len(unit.channel_ratios) or 1, 1 + 2 * u_count + u * lmax + p.layer - 1, b)
    fields = np.array(fields, dtype=np.int64).reshape(-1, 7)
    u, b = fields[:, 0], fields[:, 6]
    # every ratio a pinned row can take admits the block
    candidates, counts = space.candidate_table()
    hit = (candidates[u] == b[:, None, None]) & (
        np.arange(candidates.shape[2]) < counts[u][:, :, None])
    return np.concatenate([fields[:, :6], hit.argmax(axis=2)], axis=1)


def _pin(space, values, n, pins, resolution) -> np.ndarray:
    """[K, n * W] words (uint64, or int64 below L) as a [W, K * n] matrix, a
    column per row in the Genes.rows() layout (a word's values contiguous),
    with a fixed resolution's index and row k of pins (pin_table) written
    into the words of rows [k * n, (k + 1) * n), so that plain decoding
    (_decode) gives the pinned genes (docs/FORMATS.md, "Sampling layout")."""
    cols = values.reshape(-1, _width(space)).T.copy()
    if resolution is not None:
        if resolution not in space.resolutions:
            raise ValidationError(f"resolution {resolution} not one of {space.resolutions}")
        cols[0] = space.resolutions.index(resolution)
    k = np.flatnonzero(pins[:, 0] >= 0)
    if not len(k):
        return cols
    u_count = len(space.units)
    fields = pins[k].T
    u, fixed, slot, positions = fields[0], fields[3], fields[5], fields[6:].T
    # in the words' dtype: uint64 mixed with int64 would compute in float64
    low, span, ratios = fields[[1, 2, 4], :, None].astype(cols.dtype)
    words = cols.reshape(len(cols), -1, n)  # [W, K, n]: a pin's rows are one run
    words[1 + u_count + u, k] = low + words[1 + u_count + u, k] % span
    ratio = np.maximum(fixed, 0)[:, None]
    drawn = (fixed < 0) & (ratios[:, 0] > 1)
    if drawn.any():  # a block free of the ratio gene: its position varies with the row's ratio
        drawn_ratio = (words[1 + u, k] % ratios).astype(np.int64)
        ratio = np.where(drawn[:, None], drawn_ratio, ratio)
    words[1 + u, k] = ratio
    words[slot, k] = positions[np.arange(len(k))[:, None], ratio]
    return cols


def _decode(space, cols) -> Genes:
    """The genes of a [W, N] int64 word matrix from _pin: each gene is its
    word modulo its bound (plus depth_min for a depth), and a block slot
    past the row's depth is -1."""
    units = space.units
    u_count, n = len(units), cols.shape[1]
    bound = np.array([len(space.resolutions)] + [len(u.channel_ratios) or 1 for u in units]
                     + [u.depth_max - u.depth_min + 1 for u in units])
    head = cols[: 1 + 2 * u_count] % bound[:, None]
    head[1 + u_count :] += np.array([u.depth_min for u in units])[:, None]
    ratio, depth = head[1 : 1 + u_count], head[1 + u_count :]
    candidates, counts = space.candidate_table()
    slots = cols[1 + 2 * u_count :].reshape(u_count, -1, n)
    cell = ratio + np.arange(u_count)[:, None] * counts.shape[1]  # (unit, ratio) of each row
    picks = _modulo(slots, counts.take(cell)[:, None], counts[counts > 0])
    cell *= candidates.shape[2]
    block = candidates.take(picks + cell[:, None])
    np.copyto(block, -1, where=np.arange(slots.shape[1])[:, None] >= depth[:, None])
    # [U, ., N] arrays seen as [N, U, .]: a gene's values stay contiguous
    return Genes(space=space, resolution=head[0], ratio=ratio.T, depth=depth.T,
                 block=block.transpose(2, 0, 1))


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
