"""Mutation of gene rows for the evolutionary search, as batches.

A mutation picks a unit by the unit weights (uniform when none are given)
among the units that admit an action, then one applicable action uniformly:
add a layer (appended at the end, new block uniform), remove a layer
(uniform position), swap one layer's block for a different admissible one,
swap the unit's channel ratio (ratio spaces, remapping the unit's joint
codes), or swap the input resolution (when the space has more than one).
The child always differs from its parent.

A generation's children are mutated as one batch: their unit doubles and
word matrix are decoded through array tables built once per space, each
word reduced modulo a bound that divides the word range L, so every choice
is exactly uniform. With dedupe on, the duplicates of a generation are
redrawn together in one more batch, and each takes the first unseen of its
ten alternatives, else the last. docs/FORMATS.md ("Search draws") states
the draws, from sampling.Stream, and their decoding.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .sampling import Stream
from .spaces import DesignSpace, ratio_values

DEDUPE_RETRIES = 10

# action ids, in draw order
_ACTIONS = _ADD, _REMOVE, _BLOCK, _RATIO, _RESOLUTION = range(5)


class UnitPicker:
    """Validated mutation unit weights, normalised; a search builds it once."""

    def __init__(self, space: DesignSpace, unit_weights=None):
        w = np.ones(space.n_units) if unit_weights is None else np.asarray(
            unit_weights, dtype=float)
        with np.errstate(over="ignore"):
            total = w.sum()
        if w.shape != (space.n_units,) or np.any(w < 0) or not 0 < total < np.inf:
            raise ValidationError(
                f"unit_weights must be {space.n_units} non-negative values with a positive sum"
            )
        self.space_name = space.name
        self.probs = w / total

    def pick(self, x: np.ndarray, admits: np.ndarray) -> np.ndarray:
        """The 0-based unit of each row, drawn with its double x[k] from the
        weights restricted to the units where admits[k] holds. Raises when a
        row has no such unit of positive weight."""
        q = self.probs * admits
        if not q.any(axis=1).all():
            raise ValidationError(
                f"space {self.space_name!r} admits no mutation from this architecture")
        return (_cdf(q) <= x[:, None]).sum(axis=1)  # searchsorted per row


def _cdf(q: np.ndarray) -> np.ndarray:
    """Per row of unit weights q [n, U], the CDF through which a unit is
    picked: the first unit whose entry exceeds the row's double."""
    cdf = (q / q.sum(axis=1, keepdims=True)).cumsum(axis=1)
    return cdf / cdf[:, -1:]


class MutationTables:
    """A space's mutation tables over gene rows (Genes.rows), built once.

    Indexed by 0-based unit u, ratio choices r and s, depth d and block b,
    from space.candidate_table(): actions[u, r, d, :n_actions[u, r, d]] are
    the applicable action ids in draw order, candidates[u, r, :counts[u, r]]
    the consistent blocks, others[u, r, b] the same without b, and
    remap[u, r, s, b] the block that keeps b's expansion and kernel under s
    (the last such candidate), or -1 where the layer redraws. bound is L,
    the least common multiple of every bound a word is reduced by, and words
    the width 3 + Lmax of a row of the word matrix."""

    def __init__(self, space: DesignSpace):
        self.space = space
        units, n_res = space.units, len(space.resolutions)
        self.ratio_at, self.depth_at, self.block_at = 1, 1 + len(units), 1 + 2 * len(units)
        self.slots = max(u.depth_max for u in units)
        self.words = 3 + self.slots
        self.candidates, self.counts = space.candidate_table()
        self.codes = [[b.code for b in unit.blocks] for unit in units]
        self.ratios = ratio_values(space)
        self.n_ratios = np.array([len(values) for values in self.ratios])
        shape = (len(units), len(self.counts[0]))
        blocks = max(len(unit.blocks) for unit in units)
        self.actions = np.zeros((*shape, self.slots + 1, len(_ACTIONS)), dtype=np.int64)
        self.n_actions = np.zeros((*shape, self.slots + 1), dtype=np.int64)
        self.others = np.zeros((*shape, blocks, max(blocks - 1, 1)), dtype=np.int64)
        self.remap = np.full((*shape, shape[1], blocks), -1, dtype=np.int64)
        bounds = set()
        for u, unit in enumerate(units):
            nr = self.n_ratios[u]
            per_ratio = [self.candidates[u, r, : self.counts[u, r]].tolist() for r in range(nr)]
            for r, cands in enumerate(per_ratio):
                for b in cands:
                    others = [c for c in cands if c != b]
                    self.others[u, r, b, : len(others)] = others
                    for s, new in enumerate(per_ratio):
                        for nb in new:
                            if (unit.blocks[nb].expansion, unit.blocks[nb].kernel) == (
                                    unit.blocks[b].expansion, unit.blocks[b].kernel):
                                self.remap[u, r, s, b] = nb
                for d in range(unit.depth_min, unit.depth_max + 1):
                    uses = (  # (applies, the bounds its words are reduced by)
                        (d < unit.depth_max, [len(cands)]),
                        (d > unit.depth_min, [d]),
                        (len(cands) > 1, [d, len(cands) - 1]),
                        (nr > 1, [nr - 1] + [len(c) for s, c in enumerate(per_ratio) if s != r]),
                        (n_res > 1, [n_res - 1]),
                    )
                    ids = [a for a, (applies, _) in enumerate(uses) if applies]
                    self.actions[u, r, d, : len(ids)] = ids
                    self.n_actions[u, r, d] = len(ids)
                    if ids:
                        bounds.update([len(ids)], *(uses[a][1] for a in ids))
        self.bound = math.lcm(*bounds)
        if self.bound >= 2**63:
            raise ValidationError(
                f"space {space.name!r}: the mutation bounds {sorted(bounds)} have a least "
                f"common multiple of {self.bound}, which does not fit in 63 bits")

    def draw(self, doubles: Stream, words: Stream, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The unit doubles [n] and the word matrix [n, words] of n mutations,
        each from its stream (which may be one stream, doubles first)."""
        return doubles.doubles(n), words.below(self.bound, n * self.words).reshape(n, self.words)

    def mutate(self, rows: np.ndarray, x: np.ndarray, words: np.ndarray,
               picker: UnitPicker) -> tuple[np.ndarray, np.ndarray]:
        """One mutation of each gene row, decoded from its unit double and its
        row of words (docs/FORMATS.md, "Search draws"); returns the child rows
        and their descriptions as integer columns (action, unit, position,
        old, new), which describe() formats."""
        k = np.arange(len(rows))
        ratio, depth = rows[:, self.ratio_at : self.depth_at], rows[:, self.depth_at : self.block_at]
        n_actions = self.n_actions[np.arange(len(self.codes)), ratio, depth]
        unit = picker.pick(x, n_actions > 0)
        r, d = ratio[k, unit], depth[k, unit]
        count = self.counts[unit, r]
        action = self.actions[unit, r, d, words[:, 0] % n_actions[k, unit]]
        arg, second, redraw = words[:, 1], words[:, 2], words[:, 3:]
        base = self.block_at + unit * self.slots  # each row's first slot of its unit
        slots = np.arange(self.slots)
        pos = arg % d  # remove_layer and change_block
        old = rows[k, base + pos]
        child = rows.copy()
        desc = np.column_stack([action, unit, pos, old, np.zeros_like(k)])

        m = action == _ADD
        new = self.candidates[unit[m], r[m], arg[m] % count[m]]
        child[k[m], base[m] + d[m]] = new
        child[k[m], self.depth_at + unit[m]] = d[m] + 1
        desc[m, 4] = new

        m = action == _REMOVE  # the later layers move up one slot
        source = slots + (slots >= pos[m, None])
        shifted = rows[k[m, None], base[m, None] + np.minimum(source, self.slots - 1)]
        child[k[m, None], base[m, None] + slots] = np.where(source < self.slots, shifted, -1)
        child[k[m], self.depth_at + unit[m]] = d[m] - 1

        m = action == _BLOCK
        new = self.others[unit[m], r[m], old[m], second[m] % (count[m] - 1)]
        child[k[m], base[m] + pos[m]] = new
        desc[m, 4] = new

        m = action == _RATIO  # each layer keeps its expansion, or redraws
        pick = arg[m] % (self.n_ratios[unit[m]] - 1)
        new = pick + (pick >= r[m])
        child[k[m], self.ratio_at + unit[m]] = new
        u, s = unit[m, None], new[:, None]
        layers = rows[k[m, None], base[m, None] + slots]
        kept = self.remap[u, r[m, None], s, np.maximum(layers, 0)]
        drawn = self.candidates[u, s, redraw[m] % self.counts[u, s]]
        child[k[m, None], base[m, None] + slots] = np.where(
            slots < d[m, None], np.where(kept >= 0, kept, drawn), -1)
        desc[m, 3], desc[m, 4] = r[m], new

        m = action == _RESOLUTION
        pick = arg[m] % (len(self.space.resolutions) - 1)
        new = pick + (pick >= rows[m, 0])
        desc[m, 3], desc[m, 4] = rows[m, 0], new
        child[m, 0] = new
        return child, desc

    def describe(self, desc) -> str:
        """The description of one mutation from its integer columns; "" for
        an action of -1 (generation zero)."""
        action, u, pos, old, new = desc
        codes = self.codes[u]
        if action == _ADD:
            return f"add_layer:u{u + 1}:{codes[new]}"
        if action == _REMOVE:
            return f"remove_layer:u{u + 1}l{pos + 1}:{codes[old]}"
        if action == _BLOCK:
            return f"change_block:u{u + 1}l{pos + 1}:{codes[old]}->{codes[new]}"
        if action == _RATIO:
            return f"change_ratio:u{u + 1}:{self.ratios[u][old]}->{self.ratios[u][new]}"
        if action == _RESOLUTION:
            resolutions = self.space.resolutions
            return f"change_resolution:{resolutions[old]}->{resolutions[new]}"
        return ""


@lru_cache(maxsize=8)
def mutation_tables(space: DesignSpace) -> MutationTables:
    return MutationTables(space)


def row_keys(rows: np.ndarray) -> list[bytes]:
    """The dedupe key of each gene row: its bytes."""
    data, width = rows.tobytes(), rows.shape[1] * rows.itemsize
    return [data[i : i + width] for i in range(0, len(data), width)]


def dedupe(tables: MutationTables, picker: UnitPicker, streams: tuple[Stream, Stream],
           parents: np.ndarray, kids: np.ndarray, descs: np.ndarray, seen: set) -> None:
    """Replace, in place, each child of a generation whose row was seen
    before: the children are checked in order and each new row joins seen;
    then one more batch, drawn from streams (doubles, words), gives every
    duplicate DEDUPE_RETRIES alternatives from its own parent, and it takes
    its first unseen one, else the last."""
    duplicates = []
    for i, key in enumerate(row_keys(kids)):
        if key in seen:
            duplicates.append(i)
        else:
            seen.add(key)
    if not duplicates:
        return
    n = len(duplicates) * DEDUPE_RETRIES
    alts, alt_descs = tables.mutate(np.repeat(parents[duplicates], DEDUPE_RETRIES, axis=0),
                                    *tables.draw(*streams, n), picker)
    alt_keys = row_keys(alts)
    for j, i in enumerate(duplicates):
        tries = range(j * DEDUPE_RETRIES, (j + 1) * DEDUPE_RETRIES)
        t = next((t for t in tries if alt_keys[t] not in seen), tries[-1])
        kids[i], descs[i] = alts[t], alt_descs[t]
        seen.add(alt_keys[t])
