import warnings

import numpy as np
import pytest

from archscope.costs import MetricEvaluator, accuracy_evaluator, macs_evaluator
from archscope.errors import ValidationError
from archscope.profiler import (
    SampleSet,
    block_heatmap,
    draw_samples,
    estimate_block_mean,
    estimate_placement_stats,
    percentile,
    placement_sweep,
)
from archscope.reduction import ReductionRule, RuleSet, apply
from archscope.spaces import Placement, load_space

from .oracles import exact_block_mean, exact_expectation


def _depth_metric(name="total-depth"):
    return MetricEvaluator(name=name, direction="minimize",
                           fn=lambda arch: float(sum(arch.depths)))


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([1, 2, 3, 4], 0) == 1.0
    assert percentile([1, 2, 3, 4], 100) == 4.0
    assert percentile([1, 2, 3, 4], 25) == 1.75
    assert percentile([5], 95) == 5.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValidationError, match="empty"):
        percentile([], 50)
    with pytest.raises(ValidationError, match="rank"):
        percentile([1.0], 101)
    with pytest.raises(ValidationError, match="rank"):
        percentile([1.0], -0.5)


def test_sampleset_statistics_frozen():
    s = SampleSet(metric="m", values=np.array([1.0, 2.0, 3.0, 4.0]), seed=0)
    assert s.mean() == 2.5
    assert s.stderr() == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2)
    assert s.percentile(50) == 2.5


def test_bootstrap_percentile_stderr_deterministic():
    values = np.linspace(0.0, 10.0, 200)
    a = SampleSet(metric="m", values=values, seed=42)
    b = SampleSet(metric="m", values=values.copy(), seed=42)
    se_a = a.percentile_stderr(95)
    assert se_a > 0
    assert se_a == b.percentile_stderr(95)


def test_constant_metric_collapses(mini_space):
    const = MetricEvaluator(name="const", direction="minimize", fn=lambda arch: 7.0)
    s = draw_samples(mini_space, const, 64, seed=0)
    assert s.mean() == 7.0
    assert s.stderr() == 0.0
    assert s.percentile(5) == s.percentile(95) == 7.0
    assert s.percentile_stderr(95) == 0.0
    stats = estimate_placement_stats(
        mini_space, Placement(1, 1, "MBConv3-3"), const, n=64, seed=0)
    assert stats.rel_mean == 0.0
    assert stats.rel_tau == (0.0, 0.0)


def test_draw_samples_deterministic(mini_space):
    ev = accuracy_evaluator(mini_space)
    a = draw_samples(mini_space, ev, 100, seed=3)
    b = draw_samples(mini_space, ev, 100, seed=3)
    assert np.array_equal(a.values, b.values)
    c = draw_samples(mini_space, ev, 100, seed=4)
    assert not np.array_equal(a.values, c.values)


def test_conditioned_mean_tracks_oracle(mini_space):
    ev = accuracy_evaluator(mini_space)
    placement = Placement(2, 1, "MBConv6-3")
    s = draw_samples(mini_space, ev, 4_000, seed=9, placement=placement)
    truth = exact_expectation(mini_space, ev.evaluate, placement)
    assert abs(s.mean() - truth) < 4 * s.stderr()


def test_block_mean_is_mean_of_placement_means(mini_space):
    """The estimator averages per-placement means, not pooled samples."""
    ev = _depth_metric()
    stats = estimate_block_mean(mini_space, "MBConv3-5", ev, n_per_placement=500, seed=1)
    assert stats.n_placements == 4  # 2 units x depth_max 2
    assert stats.excluded_units == ()
    per_placement = [
        draw_samples(mini_space, ev, 500, seed=1,
                     placement=Placement(u, l, "MBConv3-5")).mean()
        for u in (1, 2) for l in (1, 2)
    ]
    assert stats.mean == pytest.approx(sum(per_placement) / 4)
    truth = exact_block_mean(mini_space, "MBConv3-5", ev.evaluate)
    assert abs(stats.mean - truth) < 4 * stats.stderr


def test_block_mean_unknown_block(mini_space):
    with pytest.raises(ValidationError, match="not a candidate"):
        estimate_block_mean(mini_space, "MBConv9-9", accuracy_evaluator(mini_space))


def test_pinning_a_deep_layer_raises_expected_depth(mini_space):
    # layer 2 forces the unit to its maximum depth, so total depth goes up
    ev = _depth_metric()
    deep = estimate_block_mean(
        mini_space, "MBConv3-3", ev, n_per_placement=2_000, seed=5)
    baseline = draw_samples(mini_space, ev, 2_000, seed=5)
    assert deep.mean > baseline.mean()


def test_heatmap_covers_roster(mini_space):
    report = block_heatmap(mini_space, accuracy_evaluator(mini_space),
                           n_per_placement=50, seed=0)
    assert [r.block_code for r in report.rows] == ["MBConv3-3", "MBConv3-5", "MBConv6-3"]
    assert all(r.resolution is None for r in report.rows)
    assert report.axis_names == ("expansion", "kernel")


def test_heatmap_rows_are_means_of_sweep_placements(mini_space):
    """With resolution=None both reports draw each placement from the same
    stream, so a heatmap row is the mean of its host placements' raw sweep
    means, in (unit, layer) order."""
    space = apply(mini_space, RuleSet(name="slim", space="mini", rules=(
        ReductionRule(kind="remove_block", units=(2,), blocks=("MBConv6-3",)),)))
    ev = accuracy_evaluator(space)
    heat = block_heatmap(space, ev, n_per_placement=40, seed=2)
    sweep = placement_sweep(space, ev, n_per_placement=40, seed=2, baseline_n=5)
    for row in heat.rows:
        hosts = [r.cond_mean for r in sweep.rows if r.placement.block_code == row.block_code]
        assert row.n_placements == len(hosts)
        assert row.mean == float(np.mean(hosts))
    assert [r.excluded_units for r in heat.rows] == [(), (), (2,)]


def test_heatmap_splits_resolution_sensitive_metrics(mini_space_2res):
    report = block_heatmap(mini_space_2res, macs_evaluator(mini_space_2res),
                           n_per_placement=30, seed=0)
    assert len(report.rows) == 6  # 3 codes x 2 resolutions
    assert {r.resolution for r in report.rows} == {32, 64}
    flat = block_heatmap(mini_space_2res, accuracy_evaluator(mini_space_2res),
                         n_per_placement=30, seed=0)
    assert len(flat.rows) == 3
    forced = block_heatmap(mini_space_2res, accuracy_evaluator(mini_space_2res),
                           n_per_placement=30, seed=0, per_resolution=True)
    assert len(forced.rows) == 6


def test_heatmap_resnet_axes():
    space = load_space("resnet50")
    report = block_heatmap(space, accuracy_evaluator(space), n_per_placement=5, seed=0)
    assert report.axis_names == ("channel_ratio", "expansion")
    assert len(report.rows) == 9


def test_sweep_rows_follow_placement_order(mini_space):
    report = placement_sweep(mini_space, accuracy_evaluator(mini_space),
                             n_per_placement=40, seed=0, baseline_n=80)
    keys = [(r.placement.unit, r.placement.layer, r.placement.block_code)
            for r in report.rows]
    assert len(keys) == 12
    assert keys[0] == (1, 1, "MBConv3-3")
    assert keys[3] == (1, 2, "MBConv3-3")
    assert keys[6] == (2, 1, "MBConv3-3")
    assert report.unit_boundaries() == [0, 6]
    assert report.layer_boundaries() == [0, 3, 6, 9]
    assert report.baseline_n == 80


def test_sweep_shares_one_baseline(mini_space):
    ev = accuracy_evaluator(mini_space)
    report = placement_sweep(mini_space, ev, n_per_placement=40, seed=2, baseline_n=500)
    baseline = draw_samples(mini_space, ev, 500, seed=2)
    assert report.baseline_mean == baseline.mean()
    row = report.rows[4]
    cond = draw_samples(mini_space, ev, 40, seed=2, placement=row.placement)
    assert row.cond_mean == cond.mean()
    assert row.rel_mean == cond.mean() - baseline.mean()


def test_sweep_rows_match_single_placement_stats(mini_space):
    """The stacked pass gives every row what a one-placement call gives
    against the same baseline: means and percentiles exactly, standard
    errors up to rounding (stacked and single-row products differ in ulps)."""
    ev = accuracy_evaluator(mini_space)
    taus = (0.0, 5.0, 12.5, 50.0, 95.0, 100.0)
    report = placement_sweep(mini_space, ev, n_per_placement=9, seed=1, taus=taus,
                             baseline_n=30)
    baseline = draw_samples(mini_space, ev, 30, seed=1)
    assert report.baseline_mean == baseline.mean()
    assert report.baseline_tau == tuple(baseline.percentile(t) for t in taus)
    for row in report.rows:
        one = estimate_placement_stats(mini_space, row.placement, ev, n=9, seed=1,
                                       taus=taus, baseline=baseline)
        assert (row.placement, row.n, row.taus) == (one.placement, one.n, one.taus)
        assert (row.cond_mean, row.rel_mean) == (one.cond_mean, one.rel_mean)
        assert (row.cond_tau, row.rel_tau) == (one.cond_tau, one.rel_tau)
        assert row.rel_mean_se == pytest.approx(one.rel_mean_se, rel=1e-12, abs=0)
        assert row.rel_tau_se == pytest.approx(one.rel_tau_se, rel=1e-12, abs=0)
        cond = draw_samples(mini_space, ev, 9, seed=1, placement=row.placement)
        assert row.cond_tau == tuple(cond.percentile(t) for t in taus)
        assert row.rel_mean_se == float(np.hypot(cond.stderr(), baseline.stderr()))
        assert row.rel_tau_se == pytest.approx(
            [float(np.hypot(cond.percentile_stderr(t), baseline.percentile_stderr(t)))
             for t in taus], rel=1e-12, abs=0)


def test_single_draw_sets_have_nan_errors_without_warnings(mini_space):
    ev = accuracy_evaluator(mini_space)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = placement_sweep(mini_space, ev, n_per_placement=1, seed=0, baseline_n=1)
        single = draw_samples(mini_space, ev, 1, seed=0)
        assert np.isnan(single.percentile_stderr(50))
    assert all(np.isnan(row.rel_mean_se) for row in report.rows)
    assert all(np.isnan(se) for row in report.rows for se in row.rel_tau_se)
    assert all(row.rel_tau == (row.rel_mean,) * 2 for row in report.rows)


def test_sweep_rejects_ranks_out_of_range_before_sampling(mini_space):
    ev = MetricEvaluator(name="never", direction="minimize",
                         fn=lambda arch: pytest.fail("sampling started"))
    with pytest.raises(ValidationError, match="rank"):
        placement_sweep(mini_space, ev, n_per_placement=5, taus=(5, 100.5))
    with pytest.raises(ValidationError, match="rank"):
        estimate_placement_stats(mini_space, Placement(1, 1, "MBConv3-3"), ev, n=5,
                                 taus=(-1,))


def test_worker_count_does_not_change_results(mini_space):
    ev = accuracy_evaluator(mini_space)
    serial = placement_sweep(mini_space, ev, n_per_placement=60, seed=7, baseline_n=100)
    threaded = placement_sweep(mini_space, ev, n_per_placement=60, seed=7,
                               baseline_n=100, workers=4)
    assert [r.rel_mean for r in serial.rows] == [r.rel_mean for r in threaded.rows]
    assert [r.rel_tau for r in serial.rows] == [r.rel_tau for r in threaded.rows]
    h1 = block_heatmap(mini_space, ev, n_per_placement=60, seed=7, workers=1)
    h3 = block_heatmap(mini_space, ev, n_per_placement=60, seed=7, workers=3)
    assert [(r.mean, r.stderr) for r in h1.rows] == [(r.mean, r.stderr) for r in h3.rows]


def test_self_baseline_near_zero(mini_space):
    ev = accuracy_evaluator(mini_space)
    baseline = draw_samples(mini_space, ev, 3_000, seed=31)
    other = draw_samples(mini_space, ev, 3_000, seed=32)
    diff = baseline.mean() - other.mean()
    assert abs(diff) < 3 * float(np.hypot(baseline.stderr(), other.stderr()))


def test_baseline_metric_mismatch_rejected(mini_space):
    ev = accuracy_evaluator(mini_space)
    foreign = draw_samples(mini_space, _depth_metric(), 50, seed=0)
    with pytest.raises(ValidationError, match="metric"):
        estimate_placement_stats(mini_space, Placement(1, 1, "MBConv3-3"), ev,
                                 n=50, seed=0, baseline=foreign)


def test_sample_size_validation(mini_space):
    with pytest.raises(ValidationError, match="sample size"):
        draw_samples(mini_space, accuracy_evaluator(mini_space), 0, seed=0)
