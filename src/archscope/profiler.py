"""Monte Carlo block and placement profiling.

Both reports are views of one conditioned pass: every (unit, layer, block)
placement gets its own conditioned sample of the metric, a row of one
[P, n] matrix.

Block impact: a block's score is the unweighted mean of the per-placement
means over every placement (u, l) that can host it, i.e. placements are the
averaging unit, so the denominator is the total placement count, not the
layer count of any single architecture. Standard error aggregates
per-placement errors in quadrature divided by the placement count.

Placement impact: the conditioned statistic minus the same statistic of an
unconditioned baseline sample. Within one report the baseline is drawn once
(with its own sample size) and shared by every placement; combined standard
errors add the two sides in quadrature.

Percentiles use linear interpolation at rank (n - 1) * tau / 100 (the numpy
default). A percentile's standard error is the exact bootstrap one: the
standard deviation of the percentile over all n**n equally likely resamples,
in closed form from weights that depend only on (n, tau) (see
percentile_stderrs), so it carries no Monte Carlo noise and draws no random
numbers. A sweep computes every statistic of every row of the pass's
matrix at once, and a heatmap each row's mean and standard error; the
shared baseline's statistics are computed once.

Every placement draws from its own random stream, keyed by the placement
and the resolution under the master seed (see sampling.Stream), so results
are bitwise identical no matter how many workers run the placements or in
what order they finish. The pass draws and scores whole placements in chunks
of about PASS_CHUNK rows: the chunk's streams are drawn as one array
expression (sampling.stream_words), its pins written into the words
(sampling.pin_table). A metric lowered to an additive form of the space
scores the words from the form's word tables, with no gene arrays; any
other metric, or words that give a non-finite value, are decoded to one
gene batch (sampling.sample_streams) that costs.score scores with one
evaluate_batch call. Either way a chunk's rows, and the error of its first
failing row, equal those of one placement at a time, and workers run
chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .costs import MetricEvaluator, score, word_form
from .errors import ValidationError
# sample_fixed and sample_uniform are unused here: the benchmark's tracer
# patches them on this module (and sample_uniform on search); they go with the
# next benchmark change (ROADMAP item 2)
from .sampling import (
    STREAM_BASELINE,
    STREAM_PLACEMENT,
    pin_table,
    sample_fixed,
    sample_streams,
    sample_uniform,
    stream_origins,
    stream_words,
)
from .spaces import (
    DesignSpace,
    Placement,
    block_axes,
    block_codes,
    iter_placements,
    validate_placement,
)

DEFAULT_BLOCK_SAMPLES = 1000
DEFAULT_SWEEP_SAMPLES = 1000
DEFAULT_BASELINE_SAMPLES = 10000
DEFAULT_TAUS = (5.0, 95.0)
# Read only by the benchmark's tracer, which also patches
# SampleSet.percentile_stderr by name; both go with the next benchmark change
# (ROADMAP item 2).
BOOTSTRAP_RESAMPLES = 200

# rows per scoring call of a conditioned pass: whole placements are drawn and
# scored together up to this size. Re-measured with word tables on a shared
# 2-vCPU VM, as the CLI runs a pass (the first one in a fresh process;
# medians of 8-10 alternating processes, n = 50): resnet50 synthetic-acc
# 7.1 / 8.2 / 9.0 / 9.9 ms and ofa npu-like 7.5 / 9.0 / 9.4 / 10.5 ms at
# 512 / 1024 / 2048 / 4096 rows; scoring genes instead, 11.2 / 10.9 / 11.5 /
# 11.8 and 10.7 / 11.6 / 12.0 / 13.3 ms; at n = 1000, ofa npu-like 100 / 101
# / 115 ms at 512 / 1024 / 2048. Larger chunks read faster only in a
# process that runs many passes
PASS_CHUNK = 512

_QUAD_NODES = 16  # Gauss-Legendre nodes per cell: exact up to n = 32
_BAND_RTOL = 1e-17  # weights below this fraction of the largest are dropped


def _check_rank(tau: float) -> None:
    if not 0.0 <= tau <= 100.0:
        raise ValidationError(f"percentile rank must be in [0, 100], got {tau}")


def _ranks(taus) -> tuple[float, ...]:
    taus = tuple(float(t) for t in taus)
    for tau in taus:
        _check_rank(tau)
    return taus


def _linear_percentiles(values: np.ndarray, taus) -> np.ndarray:
    """[k, T] percentiles of the rows of a [k, n] matrix, each equal bit for
    bit to np.percentile(row, tau, method="linear").

    These are numpy 2.4's own steps (_quantile with its linear
    virtual index and _lerp, the t >= 0.5 branch included) without its
    np.unique call, which imports numpy.ma. Like numpy, a copy of the rows
    is partitioned at the neighbouring ranks rather than read in sorted
    order: -0.0 and 0.0 compare equal, so a sort and a partition can leave
    either at a rank, and the partition decides the sign of a zero result.
    A row holding NaN gives the NaN the partition moved to its end."""
    n = values.shape[1]
    virtual = (n - 1) * np.true_divide(np.asarray(taus, dtype=float), 100)
    lower, upper = np.floor(virtual), np.floor(virtual) + 1
    lower[virtual >= n - 1] = upper[virtual >= n - 1] = -1  # the last value
    lower, upper = lower.astype(np.intp), upper.astype(np.intp)
    arr = values.copy()
    arr.partition(sorted({0, -1, *lower.tolist(), *upper.tolist()}), axis=1)
    t = virtual - lower
    a, b = arr[:, lower], arr[:, upper]
    diff = b - a
    out = np.add(a, diff * t)
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    np.copyto(out, arr[:, -1:], where=np.isnan(arr[:, -1:]))
    return out


def percentile(values, tau: float) -> float:
    """Linear-interpolation percentile at rank (n - 1) * tau / 100."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValidationError("percentile of an empty sample")
    _check_rank(tau)
    return float(_linear_percentiles(arr.reshape(1, -1), (tau,))[0, 0])


@lru_cache(maxsize=1)
def _unit_gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] (Golub-Welsch); the weights sum to 1."""
    i = np.arange(1.0, _QUAD_NODES)
    off = i / np.sqrt(4.0 * i * i - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return (nodes + 1.0) / 2.0, vectors[0] ** 2


def _order_stat_pmf(n: int, k: int) -> np.ndarray:
    """P(X*_(k) = x_(a)) for a in [0, n): the Beta(k + 1, n - k) mass of the
    cell [a/n, (a+1)/n], i.e. a difference of two binomial CDFs, integrated
    in log space so no term underflows or cancels. Cells whose midpoint
    density is below e**-60 of the peak are left at 0."""
    def log_density(t):
        return k * np.log(t) + (n - k - 1) * np.log1p(-t)

    mid = log_density((np.arange(n) + 0.5) / n)
    cells = np.flatnonzero(mid >= mid.max() - 60.0)
    nodes, weights = _unit_gauss_legendre()
    inner = log_density((cells[:, None] + nodes) / n)
    pmf = np.zeros(n)
    pmf[cells] = np.exp(inner - inner.max()) @ weights
    return pmf / pmf.sum()


def _log_step(c: np.ndarray, power: int, n: int) -> np.ndarray:
    """log((c/n)**power - ((c-1)/n)**power) for c >= 1."""
    with np.errstate(divide="ignore"):
        return power * np.log(c / n) + np.log(-np.expm1(power * np.log1p(-1.0 / c)))


@lru_cache(maxsize=16)
def _percentile_weights(n: int, tau: float):
    """(j, lo, hi, first, diag, log_u, log_v): the moments of
    q* = (1 - g) x_(A) + g x_(B) over bootstrap resamples as weights on the
    band [lo, hi) of a sorted sample w centred at x_(j), all of O(band) size:
    E[q*] = first^T w, and E[q*^2] = w^T M w with M = diag(diag) plus, above
    the diagonal, the rank-one M[a, b] = exp(log_u[a] + log_v[b]) (a < b);
    log_u is None when g = 0.

    A and B are the sorted positions of the resample's order statistics j and
    j + 1. For a < b, P(A=a, B=b) = C(n, j+1) u(a) v(b) with
    u(a) = ((a+1)/n)**(j+1) - (a/n)**(j+1) and
    v(b) = ((n-b)/n)**m - ((n-b-1)/n)**m, m = n - j - 1; the diagonal
    P(A=B=a) is P(A=a) minus the row's off-diagonal sum,
    C(n, j+1) u(a) ((n-a-1)/n)**m. u and v alone can leave the double range,
    so they are kept as logs (with 2 g (1 - g) in log_u), shifted to put the
    largest log_v at 0."""
    h = (n - 1) * (tau / 100.0)
    j = math.floor(h)
    g = h - j
    p_a = _order_stat_pmf(n, j)
    p_b = _order_stat_pmf(n, j + 1) if g > 0.0 else p_a
    mass = (1.0 - g) * p_a + g * p_b
    keep = np.flatnonzero(mass >= _BAND_RTOL * mass.max())
    lo, hi = int(keep[0]), int(keep[-1]) + 1
    diag = (1.0 - g) ** 2 * p_a[lo:hi] + g * g * p_b[lo:hi]
    log_u = log_v = None
    if g > 0.0:
        m = n - j - 1
        a = np.arange(lo, hi, dtype=float)
        log_scale = math.lgamma(n + 1) - math.lgamma(j + 2) - math.lgamma(m + 1)
        log_u = log_scale + _log_step(a + 1.0, j + 1, n)
        with np.errstate(divide="ignore"):
            log_tail = m * np.log((n - 1.0 - a) / n)
        diag += 2.0 * g * (1.0 - g) * (p_a[lo:hi] - np.exp(log_u + log_tail))
        log_v = _log_step(n - a, m, n)
        shift = log_v.max()
        log_u += shift + math.log(2.0 * g * (1.0 - g))
        log_v -= shift
    for arr in (diag, mass, log_u, log_v):
        if arr is not None:
            arr.flags.writeable = False
    return j, lo, hi, mass[lo:hi], diag, log_u, log_v


def _log_suffix_sums(log_v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """log of sum_{b > a} exp(log_v[b]) w[i, b] for each row i and column a,
    for w >= 0 (-inf where the sum is 0), by a reversed logaddexp scan."""
    with np.errstate(divide="ignore"):
        terms = log_v + np.log(w)
    scan = np.logaddexp.accumulate(terms[:, :0:-1], axis=1)[:, ::-1]
    return np.concatenate([scan, np.full((len(w), 1), -np.inf)], axis=1)


def percentile_stderrs(ordered: np.ndarray, tau: float) -> np.ndarray:
    """Exact bootstrap standard errors of the tau-percentile of each row of a
    row-sorted [k, n] block; NaN when n < 2.

    The percentile is an L-estimator (Hutson & Ernst 2000, JRSS-B 62:89-94):
    its bootstrap moments are fixed weights on the sorted sample, built once
    per (n, tau). The off-diagonal part of the second moment is rank one, so
    each row costs O(band): a diagonal term plus a suffix scan."""
    _check_rank(tau)
    k, n = ordered.shape
    if n < 2:
        return np.full(k, np.nan)
    j, lo, hi, first, diag, log_u, log_v = _percentile_weights(n, float(tau))
    w = ordered[:, lo:hi] - ordered[:, j, None]
    # einsum, not a BLAS product: on a 2-CPU host threaded BLAS took 5-12 ms
    # for a [180, 125] block, einsum 1.3 ms
    mean = np.einsum("ij,j->i", w, first)
    second = np.einsum("ij,j->i", w * w, diag)
    if log_u is not None:
        # sum_a w_a exp(log_u[a]) sum_{b > a} exp(log_v[b]) w_b, the positive
        # and negative parts of w scanned apart
        above = np.exp(log_u + _log_suffix_sums(log_v, np.maximum(w, 0.0)))
        below = np.exp(log_u + _log_suffix_sums(log_v, np.maximum(-w, 0.0)))
        second += np.einsum("ij,ij->i", w, above - below)
    return np.sqrt(np.maximum(second - mean * mean, 0.0))


@dataclass
class SampleSet:
    """Metric draws plus the provenance needed to reproduce them."""

    metric: str
    values: np.ndarray
    seed: int
    condition: Placement | None = None
    resolution: int | None = None

    @property
    def n(self) -> int:
        return int(self.values.size)

    def mean(self) -> float:
        if self.n == 0:
            raise ValidationError("mean of an empty sample")
        return float(np.mean(self.values))

    def stderr(self) -> float:
        if self.n < 2:
            return float("nan")
        return float(np.std(self.values, ddof=1) / np.sqrt(self.n))

    def percentile(self, tau: float) -> float:
        return percentile(self.values, tau)

    def percentile_stderr(self, tau: float) -> float:
        """Exact bootstrap standard error of the tau-percentile; NaN below two
        draws."""
        return float(percentile_stderrs(np.sort(self.values)[None, :], tau)[0])


def _stream_key(placement: Placement | None, space: DesignSpace, resolution: int | None):
    res_key = 0 if resolution is None else int(resolution)
    if placement is None:
        return (STREAM_BASELINE, res_key)
    unit = space.unit(placement.unit)
    b_idx = [b.code for b in unit.blocks].index(placement.block_code)
    return (STREAM_PLACEMENT, placement.unit, placement.layer, b_idx, res_key)


def _draw(space, evaluator, form, pins, origins, n, resolution) -> np.ndarray:
    """[len(pins), n] metric draws, row k conditioned on the placement of
    row k of pins (sampling.pin_table) from its own stream, whose origins
    are (s[k], gamma[k]) (sampling.stream_origins). With form, the
    evaluator's costs.word_form, the words (sampling.stream_words) are
    scored from its word tables. Without one, or where that gives a
    non-finite value, they are drawn as one gene batch
    (sampling.sample_streams) and scored by costs.score. The batch's rows
    are in placement order, so a failure raises at the architecture, and
    with the message and record, where a one-placement-at-a-time loop
    stops."""
    if form is not None:
        values = form.score_words(stream_words(space, origins, n, pins, resolution))
        if np.isfinite(values).all():
            return values.reshape(len(pins), n)
    genes = sample_streams(space, origins, n, pins, resolution)
    return score([evaluator], genes).reshape(len(pins), n)


def draw_samples(
    space: DesignSpace,
    evaluator: MetricEvaluator,
    n: int,
    seed: int,
    placement: Placement | None = None,
    resolution: int | None = None,
) -> SampleSet:
    """n independent metric draws, conditioned on a placement when given.

    The stream named by the placement and resolution is drawn and scored
    as one chunk of a conditioned pass (_draw)."""
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
    if placement is not None:
        validate_placement(space, placement)
    return SampleSet(
        metric=evaluator.name,
        values=_draw(space, evaluator, word_form(evaluator, space), pin_table(space, [placement]),
                     stream_origins(seed, [_stream_key(placement, space, resolution)]), n,
                     resolution)[0],
        seed=seed,
        condition=placement,
        resolution=resolution,
    )


# ---------------------------------------------------------------------------
# block impact (per-placement means averaged over placements)

@dataclass(frozen=True)
class BlockStats:
    block_code: str
    mean: float
    stderr: float
    n_per_placement: int
    n_placements: int
    excluded_units: tuple[int, ...]  # units whose candidate list lacks the block
    resolution: int | None = None


def _conditioned_pass(space, evaluator, placements, n, seed, resolution, workers) -> np.ndarray:
    """The [P, n] matrix of conditioned draws, row k from placements[k]'s own
    stream, regardless of scheduling. Whole placements are drawn and scored
    in chunks of about PASS_CHUNK rows (at least one placement each), and
    workers run chunks."""
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
    placements = list(placements)
    s, gamma = stream_origins(seed, [_stream_key(p, space, resolution) for p in placements])
    pins = pin_table(space, placements)
    per_chunk = max(1, PASS_CHUNK // n)
    starts = range(0, len(placements), per_chunk)
    form = word_form(evaluator, space)  # its tables are built here, before any worker starts

    def job(i):
        part = slice(i, i + per_chunk)
        return _draw(space, evaluator, form, pins[part], (s[part], gamma[part]), n, resolution)

    if workers <= 1:
        return np.concatenate([job(i) for i in starts])
    from concurrent.futures import ThreadPoolExecutor  # a few ms to import

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(job, starts)))


def _row_means_and_errors(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean and standard error of each row of a [k, n] matrix of draws,
    equal to SampleSet.mean and SampleSet.stderr on the row."""
    k, n = values.shape
    stderr = values.std(axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.full(k, np.nan)
    return values.mean(axis=1), stderr


def _block_stats(space: DesignSpace, code: str, hosts: list[Placement], values: np.ndarray,
                 resolution: int | None) -> BlockStats:
    """Aggregate a block's host placements, given in (unit, layer) order with
    their draws as the rows of values."""
    means, errs = _row_means_and_errors(values)
    units = {p.unit for p in hosts}
    return BlockStats(
        block_code=code,
        mean=float(np.mean(means)),
        stderr=float(np.sqrt(np.sum(errs**2)) / len(hosts)),
        n_per_placement=values.shape[1],
        n_placements=len(hosts),
        excluded_units=tuple(u.index for u in space.units if u.index not in units),
        resolution=resolution,
    )


def estimate_block_mean(
    space: DesignSpace,
    block_code: str,
    evaluator: MetricEvaluator,
    n_per_placement: int = DEFAULT_BLOCK_SAMPLES,
    seed: int = 0,
    resolution: int | None = None,
    workers: int = 1,
) -> BlockStats:
    """Average conditioned metric over every placement hosting the block."""
    hosts = [p for p in iter_placements(space) if p.block_code == block_code]
    if not hosts:
        raise ValidationError(f"block {block_code!r} is not a candidate anywhere in {space.name!r}")
    values = _conditioned_pass(space, evaluator, hosts, n_per_placement, seed, resolution, workers)
    return _block_stats(space, block_code, hosts, values, resolution)


@dataclass
class HeatmapReport:
    space: str
    metric: str
    direction: str
    axis_names: tuple[str, str]
    n_per_placement: int
    seed: int
    rows: list[BlockStats] = field(default_factory=list)


def block_heatmap(
    space: DesignSpace,
    evaluator: MetricEvaluator,
    n_per_placement: int = DEFAULT_BLOCK_SAMPLES,
    seed: int = 0,
    per_resolution: bool | None = None,
    workers: int = 1,
) -> HeatmapReport:
    """Block-impact grid; one sub-grid per resolution for resolution-sensitive
    metrics (or on request), otherwise a single grid over the mixed sampler.

    Each resolution runs one conditioned pass over all placements; a block's
    row averages the rows of the placements that host it."""
    if per_resolution is None:
        per_resolution = evaluator.resolution_sensitive and len(space.resolutions) > 1
    codes = block_codes(space)
    report = HeatmapReport(
        space=space.name,
        metric=evaluator.name,
        direction=evaluator.direction,
        axis_names=tuple(block_axes(space, codes[0])),
        n_per_placement=n_per_placement,
        seed=seed,
    )
    placements = list(iter_placements(space))
    hosted = {code: [i for i, p in enumerate(placements) if p.block_code == code]
              for code in codes}
    resolutions = space.resolutions if per_resolution else (None,)
    for resolution in resolutions:
        values = _conditioned_pass(
            space, evaluator, placements, n_per_placement, seed, resolution, workers
        )
        report.rows.extend(
            _block_stats(space, code, [placements[i] for i in rows], values[rows], resolution)
            for code, rows in hosted.items()
        )
    return report


# ---------------------------------------------------------------------------
# placement impact (conditioned minus unconditioned)

@dataclass(frozen=True)
class PlacementStats:
    placement: Placement
    n: int
    cond_mean: float
    rel_mean: float
    rel_mean_se: float  # conditioned and baseline errors combined in quadrature
    taus: tuple[float, ...]
    cond_tau: tuple[float, ...]
    rel_tau: tuple[float, ...]
    rel_tau_se: tuple[float, ...]


def _stacked_stats(values: np.ndarray, taus: tuple[float, ...]):
    """(mean [k], stderr [k], percentiles [k, T], their errors [k, T]) of k
    same-size sample sets stacked as the rows of a [k, n] matrix, in one
    pass: each equals the SampleSet method's value on the row (the errors up
    to rounding)."""
    ordered = np.sort(values, axis=1)
    mean, stderr = _row_means_and_errors(values)
    tau_se = np.array([percentile_stderrs(ordered, t) for t in taus]).reshape(len(taus), -1)
    return mean, stderr, _linear_percentiles(ordered, taus), tau_se.T


def _placement_rows(placements: list[Placement], values: np.ndarray, base,
                    taus) -> list[PlacementStats]:
    """Conditioned-minus-baseline rows for the placements' draws, the rows of
    values, against the _stacked_stats of one baseline (a stack of one row)."""
    mean, stderr, tau, tau_se = _stacked_stats(values, taus)
    base_mean, base_stderr, base_tau, base_tau_se = (stat[0] for stat in base)
    rel_mean = (mean - base_mean).tolist()
    rel_mean_se = np.hypot(stderr, base_stderr).tolist()
    rel_tau = (tau - base_tau).tolist()
    rel_tau_se = np.hypot(tau_se, base_tau_se).tolist()
    cond_mean, cond_tau = mean.tolist(), tau.tolist()
    return [
        PlacementStats(
            placement=placement,
            n=values.shape[1],
            cond_mean=cond_mean[i],
            rel_mean=rel_mean[i],
            rel_mean_se=rel_mean_se[i],
            taus=taus,
            cond_tau=tuple(cond_tau[i]),
            rel_tau=tuple(rel_tau[i]),
            rel_tau_se=tuple(rel_tau_se[i]),
        )
        for i, placement in enumerate(placements)
    ]


def estimate_placement_stats(
    space: DesignSpace,
    placement: Placement,
    evaluator: MetricEvaluator,
    n: int = DEFAULT_SWEEP_SAMPLES,
    seed: int = 0,
    taus=DEFAULT_TAUS,
    baseline: SampleSet | None = None,
) -> PlacementStats:
    """Conditioned-minus-baseline stats for one placement.

    A standalone call draws its own baseline of the same size; sweeps pass a
    shared one.
    """
    taus = _ranks(taus)
    cond = draw_samples(space, evaluator, n, seed, placement=placement)
    if baseline is None:
        baseline = draw_samples(space, evaluator, n, seed)
    elif baseline.metric != evaluator.name:
        raise ValidationError(
            f"baseline carries metric {baseline.metric!r}, evaluator is {evaluator.name!r}"
        )
    base = _stacked_stats(baseline.values[None, :], taus)
    return _placement_rows([placement], cond.values[None, :], base, taus)[0]


@dataclass
class SweepReport:
    space: str
    metric: str
    direction: str
    taus: tuple[float, ...]
    n_per_placement: int
    baseline_n: int
    seed: int
    baseline_mean: float
    baseline_tau: tuple[float, ...]
    rows: list[PlacementStats] = field(default_factory=list)

    def _boundaries(self, group) -> list[int]:
        keys = [group(row.placement) for row in self.rows]
        return [i for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]

    def unit_boundaries(self) -> list[int]:
        """Row indices where a new unit starts."""
        return self._boundaries(lambda p: p.unit)

    def layer_boundaries(self) -> list[int]:
        """Row indices where a new (unit, layer) group starts."""
        return self._boundaries(lambda p: (p.unit, p.layer))


def placement_sweep(
    space: DesignSpace,
    evaluator: MetricEvaluator,
    n_per_placement: int = DEFAULT_SWEEP_SAMPLES,
    seed: int = 0,
    taus=DEFAULT_TAUS,
    baseline_n: int | None = None,
    workers: int = 1,
) -> SweepReport:
    """Placement impact for every placement, unit-major/layer/candidate order,
    against one shared unconditioned baseline."""
    taus = _ranks(taus)
    baseline_n = n_per_placement if baseline_n is None else baseline_n
    baseline = draw_samples(space, evaluator, baseline_n, seed)
    placements = list(iter_placements(space))
    values = _conditioned_pass(space, evaluator, placements, n_per_placement, seed, None, workers)
    base = _stacked_stats(baseline.values[None, :], taus)
    base_mean, _, base_tau, _ = base
    return SweepReport(
        space=space.name,
        metric=evaluator.name,
        direction=evaluator.direction,
        taus=taus,
        n_per_placement=n_per_placement,
        baseline_n=baseline_n,
        seed=seed,
        baseline_mean=float(base_mean[0]),
        baseline_tau=tuple(base_tau[0].tolist()),
        rows=_placement_rows(placements, values, base, taus),
    )
