"""Monte Carlo block and placement profiling.

Both reports are views of one conditioned pass: every (unit, layer, block)
placement gets its own conditioned sample of the metric.

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
numbers. A sweep stacks its conditioned sets into one matrix and computes
every statistic of every row in one pass; the shared baseline's statistics
are computed once.

Every placement draws from its own RNG stream derived from the master seed
(see sampling.spawn_rng), so results are bitwise identical no matter how many
workers run the placements or in what order they finish.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .costs import MetricEvaluator
from .errors import ValidationError
# sample_fixed and sample_uniform are unused here: the benchmark's tracer
# patches them on this module (and sample_uniform on search); they go with the
# next benchmark change (ROADMAP item 5)
from .sampling import (
    STREAM_BASELINE,
    STREAM_PLACEMENT,
    sample_batch,
    sample_fixed,
    sample_uniform,
    spawn_rng,
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
# (ROADMAP item 5).
BOOTSTRAP_RESAMPLES = 200

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


def percentile(values, tau: float) -> float:
    """Linear-interpolation percentile at rank (n - 1) * tau / 100."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValidationError("percentile of an empty sample")
    _check_rank(tau)
    return float(np.percentile(arr, tau, method="linear"))


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
    """(j, lo, hi, second, first): the moments of q* = (1 - g) x_(A) + g x_(B)
    over bootstrap resamples as weights on the band [lo, hi) of a sorted
    sample centred at x_(j), E[q*] = first^T w and E[q*^2] = w^T second w
    (second is upper triangular).

    A and B are the sorted positions of the resample's order statistics j and
    j + 1. For a < b, P(A=a, B=b) = C(n, j+1) u(a) v(b) with
    u(a) = ((a+1)/n)**(j+1) - (a/n)**(j+1) and
    v(b) = ((n-b)/n)**m - ((n-b-1)/n)**m, m = n - j - 1; the diagonal
    P(A=B=a) is P(A=a) minus the row's off-diagonal sum,
    C(n, j+1) u(a) ((n-a-1)/n)**m."""
    h = (n - 1) * (tau / 100.0)
    j = math.floor(h)
    g = h - j
    p_a = _order_stat_pmf(n, j)
    p_b = _order_stat_pmf(n, j + 1) if g > 0.0 else p_a
    mass = (1.0 - g) * p_a + g * p_b
    keep = np.flatnonzero(mass >= _BAND_RTOL * mass.max())
    lo, hi = int(keep[0]), int(keep[-1]) + 1
    second = np.diag((1.0 - g) ** 2 * p_a[lo:hi] + g * g * p_b[lo:hi])
    if g > 0.0:
        m = n - j - 1
        a = np.arange(lo, hi, dtype=float)
        log_scale = math.lgamma(n + 1) - math.lgamma(j + 2) - math.lgamma(m + 1)
        log_u = log_scale + _log_step(a + 1.0, j + 1, n)
        with np.errstate(divide="ignore"):
            log_tail = m * np.log((n - 1.0 - a) / n)
        # below the diagonal the product is no probability and may overflow:
        # clamp it at log 1 before exp, then drop it
        joint = log_u[:, None] + _log_step(n - a, m, n)
        joint = np.triu(np.exp(np.minimum(joint, 0.0, out=joint), out=joint), 1)
        joint[np.diag_indices_from(joint)] = p_a[lo:hi] - np.exp(log_u + log_tail)
        joint *= 2.0 * g * (1.0 - g)  # upper triangle only: w^T M w is all that is used
        second += joint
    for arr in (second, mass):
        arr.flags.writeable = False
    return j, lo, hi, second, mass[lo:hi]


def percentile_stderrs(ordered: np.ndarray, tau: float) -> np.ndarray:
    """Exact bootstrap standard errors of the tau-percentile of each row of a
    row-sorted [k, n] block; NaN when n < 2.

    The percentile is an L-estimator (Hutson & Ernst 2000, JRSS-B 62:89-94):
    its bootstrap moments are fixed weights on the sorted sample, built once
    per (n, tau), so each row costs one banded quadratic form."""
    _check_rank(tau)
    k, n = ordered.shape
    if n < 2:
        return np.full(k, np.nan)
    j, lo, hi, second, first = _percentile_weights(n, float(tau))
    w = ordered[:, lo:hi] - ordered[:, j, None]
    # einsum, not a BLAS matmul: on a 2-CPU host threaded BLAS took 5-12 ms
    # for a [180, 125] block, einsum 1.3 ms
    mean = np.einsum("ij,j->i", w, first)
    var = np.einsum("ij,ij->i", np.einsum("ij,jk->ik", w, second), w) - mean * mean
    return np.sqrt(np.maximum(var, 0.0))


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


def draw_samples(
    space: DesignSpace,
    evaluator: MetricEvaluator,
    n: int,
    seed: int,
    placement: Placement | None = None,
    resolution: int | None = None,
) -> SampleSet:
    """n independent metric draws, conditioned on a placement when given.

    The stream named by the placement and resolution is drawn as one gene
    batch (sampling.sample_batch) and scored by the evaluator's batch path."""
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
    if placement is not None:
        validate_placement(space, placement)
    rng = spawn_rng(seed, *_stream_key(placement, space, resolution))
    return SampleSet(
        metric=evaluator.name,
        values=evaluator.evaluate_batch(sample_batch(space, rng, n, placement, resolution)),
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


def _conditioned_pass(space, evaluator, placements, n, seed, resolution, workers):
    """One conditioned sample set per placement, in the given order regardless
    of scheduling; each placement keeps its own stream."""
    def job(p):
        return draw_samples(space, evaluator, n, seed, placement=p, resolution=resolution)

    if workers <= 1:
        return [job(p) for p in placements]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, placements))


def _block_stats(space: DesignSpace, code: str, sets: list[SampleSet]) -> BlockStats:
    """Aggregate a block's host-placement sets, given in (unit, layer) order."""
    means = np.array([s.mean() for s in sets])
    errs = np.array([s.stderr() for s in sets])
    hosts = {s.condition.unit for s in sets}
    return BlockStats(
        block_code=code,
        mean=float(np.mean(means)),
        stderr=float(np.sqrt(np.sum(errs**2)) / len(sets)),
        n_per_placement=sets[0].n,
        n_placements=len(sets),
        excluded_units=tuple(u.index for u in space.units if u.index not in hosts),
        resolution=sets[0].resolution,
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
    sets = _conditioned_pass(space, evaluator, hosts, n_per_placement, seed, resolution, workers)
    return _block_stats(space, block_code, sets)


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
    row averages the sets of the placements that host it."""
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
    resolutions = space.resolutions if per_resolution else (None,)
    for resolution in resolutions:
        sets = _conditioned_pass(
            space, evaluator, iter_placements(space), n_per_placement, seed, resolution, workers
        )
        hosted: dict[str, list[SampleSet]] = {code: [] for code in codes}
        for s in sets:
            hosted[s.condition.block_code].append(s)
        report.rows.extend(_block_stats(space, code, hosted[code]) for code in codes)
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
    k, n = values.shape
    ordered = np.sort(values, axis=1)
    stderr = values.std(axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.full(k, np.nan)
    tau = np.percentile(ordered, taus, axis=1, method="linear").reshape(len(taus), k)
    tau_se = np.array([percentile_stderrs(ordered, t) for t in taus]).reshape(len(taus), k)
    return values.mean(axis=1), stderr, tau.T, tau_se.T


def _placement_rows(conds: list[SampleSet], base, taus) -> list[PlacementStats]:
    """Conditioned-minus-baseline rows for same-size conditioned sets against
    the _stacked_stats of one baseline (a stack of one row)."""
    mean, stderr, tau, tau_se = _stacked_stats(np.stack([c.values for c in conds]), taus)
    base_mean, base_stderr, base_tau, base_tau_se = (stat[0] for stat in base)
    rel_mean = (mean - base_mean).tolist()
    rel_mean_se = np.hypot(stderr, base_stderr).tolist()
    rel_tau = (tau - base_tau).tolist()
    rel_tau_se = np.hypot(tau_se, base_tau_se).tolist()
    cond_mean, cond_tau = mean.tolist(), tau.tolist()
    return [
        PlacementStats(
            placement=c.condition,
            n=c.n,
            cond_mean=cond_mean[i],
            rel_mean=rel_mean[i],
            rel_mean_se=rel_mean_se[i],
            taus=taus,
            cond_tau=tuple(cond_tau[i]),
            rel_tau=tuple(rel_tau[i]),
            rel_tau_se=tuple(rel_tau_se[i]),
        )
        for i, c in enumerate(conds)
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
    return _placement_rows([cond], _stacked_stats(baseline.values[None, :], taus), taus)[0]


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
    sets = _conditioned_pass(
        space, evaluator, iter_placements(space), n_per_placement, seed, None, workers
    )
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
        rows=_placement_rows(sets, base, taus),
    )
