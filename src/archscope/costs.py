"""Analytic cost models and the metric-evaluator contract.

MAC and parameter counts are exact integers. Both come from one list of
weight tensors per layer, (output positions, weights, biases), counted into
tables that score a gene batch, not walked layer by layer. The shape
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
batch of one. Counts, synthetic accuracy, device latency and additive tables
are each an AdditiveForm: one sum over a batch's units, chained by the
channel ratio, with one gene-batch sum, dtype rule and sentinel rule, and
lowered_evaluator builds each one's evaluator. A profile pass scores a form
of its space straight from the stream's words (word_form, then
AdditiveForm.score_words), the decode composed into the form's tables, to
the same values. score is the one way a gene batch is scored: by search,
and by profiles of any other metric or of words that give a non-finite
value. It makes one evaluate_batch call per evaluator, and on any failure
raises the first failing architecture's error.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
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
WORD_CELLS = 1 << 20  # a form's word tables hold at most this many cells


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


def _count_form(space: DesignSpace, count: Callable, count_se: bool) -> AdditiveForm:
    """Exact integer counts as an additive form: count of the stem's tensor,
    plus count(_layer_terms(...)) per present layer, plus
    count(_head_terms(...)). Layer 1 is keyed by the previous unit's ratio
    (its input width) and the head by the last unit's ratio; every later
    layer has the same count."""
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
    firsts, rests = [], []  # per unit: [res, prev ratio, ratio, block], [res, ratio, 1, block]
    for u, unit in enumerate(space.units):
        prev = widths[u - 1] if u else [space.stem.out_channels]
        first = np.zeros((n_res, len(prev), len(widths[u]), len(unit.blocks) + 1), object)
        rest = np.zeros((n_res, len(widths[u]), 1, len(unit.blocks) + 1), object)
        for s, hw in enumerate(sizes):
            h_in, h_out = hw[u]
            for r, c_out in enumerate(widths[u]):
                for b, block in enumerate(unit.blocks):
                    rest[s, r, 0, b] = count(_layer_terms(
                        block, False, c_out, c_out, h_out, h_out, count_se))
                    for p, c_in in enumerate(prev):
                        first[s, p, r, b] = count(_layer_terms(
                            block, True, c_in, c_out, h_in, h_out, count_se))
        firsts.append(first)
        rests.append(rest)
    return AdditiveForm(space, stems, firsts, rests, head=heads)


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
    at a row that reaches a sentinel (see AdditiveForm) it raises fn's error.
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
        try:  # as evaluate() takes float(fn(arch))
            values = None if values is None else values.astype(float, copy=False)
        except OverflowError:  # a value past the float range: evaluate() raises it
            values = None
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
        return self.form()(genes) if genes.space == self._space else None

    def form(self):
        """What build() gave, built now if it was not yet."""
        if self._fn is None:
            self._fn = self._build()
        return self._fn


def word_form(evaluator: MetricEvaluator, space: DesignSpace) -> AdditiveForm | None:
    """The AdditiveForm behind evaluator's batches of space, its word tables
    built, or None: the evaluator is not lowered, is lowered for another
    space, its form cannot be built (scoring genes raises why), or its form
    has no word tables."""
    lowered = evaluator.batch
    if not isinstance(lowered, Lowered) or lowered._space != space:
        return None
    try:
        form = lowered.form()
    except Exception:
        return None
    return form if isinstance(form, AdditiveForm) and form.word_tables is not None else None


def batch_of_one(space: DesignSpace, arch: Architecture) -> Genes:
    """arch as a Genes batch of one. An architecture of another space whose
    genes all belong to space (a reduced space's member) is read by its genes."""
    if arch.space != space.name:
        arch = replace(arch, space=space.name)
    return Genes.from_architectures(space, [arch])


class AdditiveForm:
    """A metric lowered to one sum over a gene batch's units, chained by the
    channel ratio (docs/FORMATS.md, "Additive form"). For resolution index s,
    ratio index r[u] (r[-1] = 0), depth d[u] and block index b[u, l] per unit:

        start[s] + per unit u: (first[u][s, r[u - 1], r[u], b[u, 0]]
                                + rest[u][s, r[u], l - 1, b[u, l]] for l >= 1
                                + depth[u][d[u]])
                 + head[s, r[U - 1]]

    added left to right, then clamped to clamp = (lo, hi) when set. Block
    index -1 (an absent layer) reads a table's last column, which holds the
    additive identity (-0.0 or 0). head and depth are None for a metric
    without them. Each table is given as any array that broadcasts to its
    shape, and kept at full shape as a public attribute: start [S], head
    [S, R], first [S, R of the previous unit, R, B + 1], rest [S, R,
    depth_max - 1, B + 1], depth [depth_max + 1]. Tables of Python ints
    (nonnegative counts) are summed in int64 when no total can reach 2**63,
    else as exact Python ints; all others in float64. A NaN cell is a
    sentinel: see of_layers.
    """

    def __init__(self, space: DesignSpace, start, first: list, rest: list, *, head=None,
                 depth: list | None = None, clamp: tuple[float, float] | None = None,
                 walk: tuple[Callable, Callable] | None = None):
        n_res = len(space.resolutions)
        n_ratios = [len(values) for values in ratio_values(space)]
        dtype = np.float64
        if np.asarray(start).dtype == object:
            def peak(t):  # the builtin max reads Python ints faster than np.max
                return max(np.asarray(t).flat)

            bound = peak(start) + (0 if head is None else peak(head)) + sum(
                peak(f) + (unit.depth_max - 1) * peak(r)
                for f, r, unit in zip(first, rest, space.units)) + sum(map(peak, depth or ()))
            dtype = np.int64 if bound < 2**63 else object

        def own(t, *shape):  # a C-contiguous copy of t broadcast to shape
            full = np.empty(shape, dtype)
            full[...] = t
            return full

        # a form whose tables were given without ratio axes reads no ratio gene
        ratio_sizes = [*(n for t in first for n in np.shape(t)[-3:-1]),
                       *(n for t in rest for n in np.shape(t)[-3:-2]), *np.shape(head)[-1:]]
        self._chained = max(ratio_sizes, default=1) > 1
        self.space, self.clamp, self._walk = space, clamp, walk
        self.start = own(start, n_res)
        self.head = None if head is None else own(head, n_res, n_ratios[-1])
        self.first = [own(t, n_res, n_prev, n, len(unit.blocks) + 1) for t, unit, n_prev, n
                      in zip(first, space.units, [1, *n_ratios[:-1]], n_ratios)]
        self.rest = [own(t, n_res, n, unit.depth_max - 1, len(unit.blocks) + 1)
                     for t, unit, n in zip(rest, space.units, n_ratios)]
        self.depth = None if depth is None else [own(t, unit.depth_max + 1)
                                                 for t, unit in zip(depth, space.units)]

    @classmethod
    def of_layers(cls, space: DesignSpace, start: Callable, term: Callable) -> "AdditiveForm":
        """The form of start(s) + term(s, u, layer, b) over a row's present
        layers (layer from 0). A ValidationError or CoverageError from start
        or term makes a NaN sentinel of that resolution or cell. The first
        non-finite row of a batch is then walked again, calling start and
        term in addition order, so the sentinel it reaches raises that
        call's error; a row that raises nothing is left for evaluate_batch."""
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
        return cls(space, starts, [t[:, None, None, 0] for t in cells],
                   [t[:, None, 1:] for t in cells], walk=(start, term) if sentinel else None)

    def __call__(self, genes) -> np.ndarray:
        """The value of every row of a Genes batch of the form's space."""
        # Cells are read by flat index into the C-ordered tables, the chain's
        # state (resolution, ratio) naming a row. Block index -1 reads the
        # previous row's last column (the last cell at flat index -1): the
        # additive identity either way.
        res = genes.resolution.copy()  # a strided view: arithmetic on a copy is faster
        total = np.take(self.start, res)
        state = res  # before the first unit: the stem's single width
        for u, (first, rest) in enumerate(zip(self.first, self.rest)):
            n, width, layers = first.shape[2], first.shape[3], rest.shape[2]
            if self._chained and n > 1:
                ratio = genes.ratio[:, u].copy()
                entry, state = state * n + ratio, res * n + ratio
            else:  # one ratio choice, or cells alike for every ratio: read ratio index 0
                entry, state = state * n, res * n
            blocks = genes.block[:, u]
            total += np.take(first, entry * width + blocks[:, 0])
            row = state * (layers * width)
            for layer in range(layers):
                total += np.take(rest, row + layer * width + blocks[:, layer + 1])
            if self.depth is not None:
                total += np.take(self.depth[u], genes.depth[:, u])
        if self.head is not None:
            total += np.take(self.head, state)
        total = self._clamped(total)
        if self._walk is not None and not np.isfinite(total).all():
            start, term = self._walk
            row = int(np.isfinite(total).argmin())  # the first non-finite row
            s = int(genes.resolution[row])
            start(s)
            for u, unit in enumerate(self.space.units):
                for layer, b in enumerate(genes.block[row, u, : unit.depth_max].tolist()):
                    if b >= 0:
                        term(s, u, layer, b)
        return total

    def _clamped(self, total: np.ndarray) -> np.ndarray:
        if self.clamp is None:
            return total
        lo, hi = self.clamp  # max(lo, total), then min(hi, total), as the builtins pick
        total = np.where(total > lo, total, lo)
        return np.where(total < hi, total, hi)

    @cached_property
    def word_tables(self) -> tuple | None:
        """What score_words reads, built on first use (docs/FORMATS.md, "Word
        tables"); None for a form summed as exact Python ints, or one whose
        tables would pass WORD_CELLS cells."""
        space, chained, dtype = self.space, self._chained, self.start.dtype
        candidates, counts = space.candidate_table()
        n_res, u_count = len(space.resolutions), len(space.units)
        lmax = max(u.depth_max for u in space.units)
        ratios = [len(u.channel_ratios) or 1 for u in space.units]
        spans = [u.depth_max - u.depth_min + 1 for u in space.units]
        widths = [math.lcm(*counts[u, :n].tolist()) for u, n in enumerate(ratios)]
        shapes = np.array([(n_res, ratios[u - 1] if chained and u else 1, n, d, w)
                           for u, (n, d, w) in enumerate(zip(ratios, spans, widths))])
        if dtype == object or lmax * sum(map(math.prod, shapes.tolist())) > WORD_CELLS:
            return None
        parts = [self.start]
        for u, (unit, shape) in enumerate(zip(space.units, shapes.tolist())):
            ratio = np.arange(shape[2])[:, None]
            cell = ratio if chained else 0 * ratio  # the ratio index the form reads
            block = candidates[u, ratio, np.arange(shape[4]) % counts[u, ratio]]  # [R, M]
            depths = np.arange(unit.depth_min, unit.depth_max + 1)
            # slots past depth_max hold the true identity: adding it changes no sum
            table = np.full((lmax, *shape), np.array(-0.0).astype(dtype))
            prev = np.arange(shape[1])[:, None, None]
            table[0] = self.first[u][:, prev, cell, block][..., None, :]  # [S, P, R, 1, M]
            for layer in range(1, unit.depth_max):
                rest = self.rest[u][:, cell, layer - 1, block]  # [S, R, M]
                absent = self.rest[u][:, cell, layer - 1, -1]  # [S, R, 1]: the form's identity
                present = (layer < depths)[:, None]
                table[layer] = np.where(present, rest[:, :, None], absent[:, :, None])[:, None]
            parts.append(table.reshape(-1))
        parts += [] if self.depth is None else [
            t[unit.depth_min :] for t, unit in zip(self.depth, space.units)]
        head = None if self.head is None else self.head if chained else self.head[:, :1]
        parts += [] if head is None else [head.reshape(-1)]
        at = np.cumsum([0] + [len(p) for p in parts[:-1]])  # where each part starts
        # per unit, the flat-index stride of each word axis: resolution,
        # previous ratio, ratio, depth (the block word's is 1), and where
        # each slot's table starts
        strides = np.cumprod(shapes[:, :0:-1], axis=1)[:, ::-1]
        layers = at[1 : 1 + u_count, None] + np.arange(lmax) * (strides[:, :1] * shapes[:, :1])
        depth_at = None if self.depth is None else at[1 + u_count : 1 + 2 * u_count]
        head_at = None if head is None else (at[-1], head.shape[1])
        # runs of word rows reduced by one bound: resolution, ratios, depths, block slots
        bounds = [n_res, *ratios, *spans, *(w for w in widths for _ in range(lmax))]
        ends = np.cumsum([len(list(group)) for _, group in itertools.groupby(bounds)]).tolist()
        runs = [(a, b, bounds[a]) for a, b in zip([0, *ends[:-1]], ends)]
        # score_words' index rows past start in addition order: a unit's
        # slots then its depth term, then the head
        rows = np.arange(1, 1 + u_count * lmax).reshape(u_count, lmax)
        if depth_at is not None:
            rows = np.hstack([rows, 1 + u_count * lmax + np.arange(u_count)[:, None]])
        order = rows.ravel().tolist() + ([] if head_at is None else [-1])
        return np.concatenate(parts), runs, strides, layers, depth_at, head_at, order

    def score_words(self, cols: np.ndarray) -> np.ndarray:
        """The values, as float, of the rows of a [W, N] word matrix of the
        form's space (sampling.stream_words), from word_tables, which must not
        be None: where finite, evaluate_batch of the decoded rows, bit for bit.
        The additions are the form's own, in its order."""
        cells, runs, strides, layers, depth_at, head_at, order = self.word_tables
        u_count, lmax, n = len(layers), layers.shape[1], cols.shape[1]
        words = np.empty_like(cols)  # each word modulo its own gene's bound
        for a, b, m in runs:
            np.floor_divide(cols[a:b], m, out=words[a:b])
            words[a:b] *= m
            np.subtract(cols[a:b], words[a:b], out=words[a:b])
        words = words.view(np.int64)
        res, ratio, depth = words[0], words[1 : 1 + u_count], words[1 + u_count : 1 + 2 * u_count]
        # each unit's (resolution, previous ratio, ratio, depth) cell
        base = np.multiply.outer(strides[:, 0], res)
        base += depth * strides[:, 3, None]
        base += ratio * strides[:, 2, None]
        if self._chained:
            base[1:] += ratio[:-1] * strides[1:, 1, None]
        # the cells of a row: start, each unit's layers, each unit's depth
        # term, the head; added in the form's order
        index = np.empty((1 + u_count * (lmax + (depth_at is not None)) + (head_at is not None),
                          n), np.int64)
        index[0] = res
        slots = index[1 : 1 + u_count * lmax].reshape(u_count, lmax, n)
        np.add(words[1 + 2 * u_count :].reshape(u_count, lmax, n), base[:, None], out=slots)
        slots += layers[:, :, None]
        if depth_at is not None:
            np.add(depth, depth_at[:, None], out=index[1 + u_count * lmax :][:u_count])
        if head_at is not None:
            index[-1] = head_at[0] + res * head_at[1] + (ratio[-1] if self._chained else 0)
        values = np.take(cells, index)
        total = values[0].copy()
        for row in order:
            total += values[row]
        return self._clamped(total).astype(float, copy=False)


def params_digest(params: dict) -> str:
    return hashlib.sha256(
        json.dumps(params, sort_keys=True, separators=(",", ":"), default=str).encode()
    ).hexdigest()[:16]


def _macs_totals(space: DesignSpace, *, count_se: bool = True) -> AdditiveForm:
    return _count_form(space, lambda terms: sum(p * w for p, w, _ in terms), count_se)


def _params_totals(space: DesignSpace, *, count_se: bool = True,
                   include_bias: bool = False) -> AdditiveForm:
    return _count_form(
        space, lambda terms: sum(w + (b if include_bias else 0) for _, w, b in terms), count_se)


def lowered_evaluator(space: DesignSpace, name: str, direction: str, build: Callable,
                      params: dict, resolution_sensitive: bool,
                      value: Callable = float) -> MetricEvaluator:
    """The evaluator of a metric lowered to build()'s AdditiveForm, built on
    first use (see Lowered): its batch is the form, and its fn scores one
    architecture as a batch of one, value converting the sum."""
    lowered = Lowered(space, build)
    return MetricEvaluator(
        name=name,
        direction=direction,
        fn=lambda arch: value(lowered(batch_of_one(space, arch))[0]),
        resolution_sensitive=resolution_sensitive,
        params_digest=params_digest(params),
        batch=lowered,
    )


def score(evaluators, genes) -> np.ndarray:
    """The values [n, m] of a gene batch under m evaluators, one
    evaluate_batch call each. When anything fails, the rows are scored again
    one architecture at a time, evaluators in order, through evaluate, so
    the first failing architecture raises, with the message and record of
    that loop; a failure that is not an EvaluationError is raised as one
    naming the evaluator and the architecture's record."""
    try:
        return np.column_stack([ev.evaluate_batch(genes) for ev in evaluators])
    except Exception:
        pass  # rescored below, outside this handler, so no error chains to the batch's
    values = np.empty((len(genes), len(evaluators)))
    for i in range(len(genes)):
        arch = genes.architecture(i)
        for j, ev in enumerate(evaluators):
            try:
                values[i, j] = ev.evaluate(arch)
            except EvaluationError:
                raise
            except Exception as exc:
                raise EvaluationError(
                    f"evaluator {ev.name!r} failed: {exc}", record=arch_key(arch)
                ) from exc
    return values


def macs_evaluator(space: DesignSpace, **kw) -> MetricEvaluator:
    return lowered_evaluator(space, "macs", MINIMIZE, lambda: _macs_totals(space, **kw),
                             {"kind": "macs", **kw}, resolution_sensitive=True, value=int)


def params_evaluator(space: DesignSpace, **kw) -> MetricEvaluator:
    return lowered_evaluator(space, "params", MINIMIZE, lambda: _params_totals(space, **kw),
                             {"kind": "params", **kw}, resolution_sensitive=False, value=int)


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
            "clamp_lo": self.clamp_lo,
            "clamp_hi": self.clamp_hi,
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


def _capacities(space: DesignSpace) -> dict[BlockSpec, float]:
    """Each distinct block's capacity: 0.5 * its rank on its first axis plus
    0.5 * its rank on its second. A value's rank is its position among the
    axis's distinct values over the whole space, ascending, scaled to
    [0, 1] (0 when the axis has one value).

    Raises ValidationError for a block without a value on an axis where
    other blocks have one (a ratio-free bottleneck beside ratio-bound ones),
    since it has no place on that axis."""
    axes = {b: b.axes() for b in dict.fromkeys(b for unit in space.units for b in unit.blocks)}
    values: dict[str, set] = {}
    for named in axes.values():
        for name, value in named.items():
            values.setdefault(name, set()).add(value)
    for name, v in values.items():
        if None in v and len(v) > 1:
            unit, block = next((u, b) for u in space.units for b in u.blocks
                               if axes[b][name] is None)
            raise ValidationError(
                f"unit {unit.index} block {block.code!r}: no {name}, which block capacity "
                f"needs when other blocks of the space have one"
            )
    ranks = {name: {value: i / (len(v) - 1) if len(v) > 1 else 0.0
                    for i, value in enumerate(sorted(v))} for name, v in values.items()}
    capacity = {}
    for block, named in axes.items():
        first, second = (ranks[name][value] for name, value in named.items())
        capacity[block] = 0.5 * first + 0.5 * second
    return capacity


def _accuracy_form(space: DesignSpace, model: AccuracyModel) -> AdditiveForm:
    """Synthetic accuracy as an additive form: the base, then per unit each
    layer's unit_weight * capacity and the depth bonus at full depth, clamped.
    Checks the model against the space first."""
    if len(model.unit_weights) != space.n_units or len(model.depth_bonus) != space.n_units:
        raise ValidationError("accuracy model does not cover every unit of the space")
    if any(a > b for a, b in zip(model.unit_weights, model.unit_weights[1:])):
        raise ValidationError("accuracy model unit_weights must be nondecreasing")
    capacity = _capacities(space)
    terms, bonuses = [], []
    for unit, weight, bonus in zip(space.units, model.unit_weights, model.depth_bonus):
        # each candidate's term, then the absent layer's
        terms.append(np.array([weight * capacity[b] for b in unit.blocks] + [-0.0]))
        bonuses.append([-0.0] * unit.depth_max + [bonus])
    return AdditiveForm(space, model.base, terms, terms, depth=bonuses,
                        clamp=(model.clamp_lo, model.clamp_hi))


def accuracy_evaluator(space: DesignSpace, model: AccuracyModel | None = None) -> MetricEvaluator:
    model = model if model is not None else default_accuracy_model(space)
    form = _accuracy_form(space, model)  # a model that does not fit raises here
    return lowered_evaluator(space, "synthetic-acc", MAXIMIZE, lambda: form,
                             {"kind": "synthetic-acc", **model.config()},
                             resolution_sensitive=False)
