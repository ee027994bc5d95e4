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
default). Percentile standard errors come from a seeded bootstrap (B=200),
which keeps them deterministic and distribution-free. The bootstrap runs once
per sample set and tau: a sweep computes the shared baseline's errors once
and passes them to every placement.

Every placement draws from its own RNG stream derived from the master seed
(see sampling.spawn_rng), so results are bitwise identical no matter how many
workers run the placements or in what order they finish.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .costs import MetricEvaluator
from .errors import ValidationError
from .sampling import (
    STREAM_BASELINE,
    STREAM_BOOTSTRAP,
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
BOOTSTRAP_RESAMPLES = 200


def percentile(values, tau: float) -> float:
    """Linear-interpolation percentile at rank (n - 1) * tau / 100."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValidationError("percentile of an empty sample")
    if not 0.0 <= tau <= 100.0:
        raise ValidationError(f"percentile rank must be in [0, 100], got {tau}")
    return float(np.percentile(arr, tau, method="linear"))


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

    def percentile_stderr(self, tau: float, resamples: int = BOOTSTRAP_RESAMPLES) -> float:
        """Bootstrap standard error of the tau-percentile, seeded and stable."""
        if self.n < 2:
            return float("nan")
        rng = spawn_rng(self.seed, STREAM_BOOTSTRAP, int(round(tau * 100)))
        idx = rng.integers(0, self.n, size=(resamples, self.n))
        stats = np.percentile(self.values[idx], tau, method="linear", axis=1)
        return float(np.std(stats, ddof=1))


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

    The stream is drawn as one gene batch and scored by the evaluator's batch
    path; when the batch sampler declines (see sampling.sample_batch), the
    same stream is redrawn one architecture at a time."""
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
    if placement is not None:
        validate_placement(space, placement)
    key = _stream_key(placement, space, resolution)
    genes = sample_batch(space, spawn_rng(seed, *key), n, placement, resolution)
    if genes is not None:
        values = evaluator.evaluate_batch(genes)
    else:
        values = _draw_one_by_one(space, evaluator, n, spawn_rng(seed, *key), placement,
                                  resolution)
    return SampleSet(
        metric=evaluator.name,
        values=values,
        seed=seed,
        condition=placement,
        resolution=resolution,
    )


def _draw_one_by_one(space, evaluator, n, rng, placement, resolution) -> np.ndarray:
    values = np.empty(n, dtype=float)
    for i in range(n):
        if placement is None:
            arch = sample_uniform(space, rng, resolution=resolution)
        else:
            arch = sample_fixed(space, placement, rng, resolution=resolution)
        values[i] = evaluator.evaluate(arch)
    return values


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


def placement_stats_from_sets(
    cond: SampleSet, baseline: SampleSet, taus=DEFAULT_TAUS, baseline_tau_se=None
) -> PlacementStats:
    """baseline_tau_se, one bootstrap error per tau, spares a caller that
    shares one baseline across placements from recomputing them."""
    taus = tuple(float(t) for t in taus)
    if baseline_tau_se is None:
        baseline_tau_se = tuple(baseline.percentile_stderr(t) for t in taus)
    cond_mean = cond.mean()
    rel_mean = cond_mean - baseline.mean()
    rel_mean_se = float(np.hypot(cond.stderr(), baseline.stderr()))
    cond_tau = tuple(cond.percentile(t) for t in taus)
    rel_tau = tuple(ct - baseline.percentile(t) for ct, t in zip(cond_tau, taus))
    rel_tau_se = tuple(
        float(np.hypot(cond.percentile_stderr(t), base_se))
        for t, base_se in zip(taus, baseline_tau_se)
    )
    return PlacementStats(
        placement=cond.condition,
        n=cond.n,
        cond_mean=cond_mean,
        rel_mean=rel_mean,
        rel_mean_se=rel_mean_se,
        taus=taus,
        cond_tau=cond_tau,
        rel_tau=rel_tau,
        rel_tau_se=rel_tau_se,
    )


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
    cond = draw_samples(space, evaluator, n, seed, placement=placement)
    if baseline is None:
        baseline = draw_samples(space, evaluator, n, seed)
    elif baseline.metric != evaluator.name:
        raise ValidationError(
            f"baseline carries metric {baseline.metric!r}, evaluator is {evaluator.name!r}"
        )
    return placement_stats_from_sets(cond, baseline, taus)


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
    taus = tuple(float(t) for t in taus)
    baseline_n = n_per_placement if baseline_n is None else baseline_n
    baseline = draw_samples(space, evaluator, baseline_n, seed)
    sets = _conditioned_pass(
        space, evaluator, iter_placements(space), n_per_placement, seed, None, workers
    )
    report = SweepReport(
        space=space.name,
        metric=evaluator.name,
        direction=evaluator.direction,
        taus=taus,
        n_per_placement=n_per_placement,
        baseline_n=baseline_n,
        seed=seed,
        baseline_mean=baseline.mean(),
        baseline_tau=tuple(baseline.percentile(t) for t in taus),
    )
    baseline_tau_se = tuple(baseline.percentile_stderr(t) for t in taus)
    for cond in sets:
        report.rows.append(placement_stats_from_sets(cond, baseline, taus, baseline_tau_se))
    return report
