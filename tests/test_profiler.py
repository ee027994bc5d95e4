import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archscope import profiler, sampling
from archscope.costs import MetricEvaluator, accuracy_evaluator, macs_evaluator
from archscope.errors import ArchscopeError, EvaluationError, ValidationError
from archscope.evaluators import resolve_evaluator
from archscope.profiler import (
    PASS_CHUNK,
    SampleSet,
    _conditioned_pass,
    _linear_percentiles,
    _percentile_weights,
    _stacked_stats,
    _stream_key,
    block_heatmap,
    draw_samples,
    estimate_block_mean,
    estimate_placement_stats,
    percentile,
    placement_sweep,
)
from archscope.reduction import ReductionRule, RuleSet, apply
from archscope.sampling import Genes, Stream, sample_batch
from archscope.spaces import (
    Placement,
    arch_key,
    block_codes,
    iter_placements,
    load_space,
    parse_space_config,
)
from archscope.tables import MetricTable, exact_table_from_pairs, table_evaluator

from .conftest import build_mini_ratio_space, build_mini_space
from .oracles import exact_block_mean, exact_expectation, exhaustive_archs
from .test_fast_paths import _failing, _space_configs


def _depth_metric(name="total-depth"):
    return MetricEvaluator(name=name, direction="minimize",
                           fn=lambda arch: float(sum(arch.depths)))


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([1, 2, 3, 4], 0) == 1.0
    assert percentile([1, 2, 3, 4], 100) == 4.0
    assert percentile([1, 2, 3, 4], 25) == 1.75
    assert percentile([5], 95) == 5.0


_RANKS = (0.0, 0.1, 50.0, 99.9, 100.0)


@st.composite
def _sample_matrices(draw):
    """[k, n] matrices with n = 1 and 2 often, ties, and -0.0 beside 0.0."""
    k = draw(st.integers(1, 4))
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 60)))
    value = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]),
                      st.floats(-1e6, 1e6, allow_nan=False))
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=k, max_size=k))
    return np.array(rows, dtype=float).reshape(k, n)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(values=_sample_matrices(), extra=st.floats(0.0, 100.0))
def test_percentiles_are_bitwise_numpy_linear(values, extra):
    taus = (*_RANKS, extra)
    for block in (values, np.sort(values, axis=1)):
        expected = np.percentile(block, taus, axis=1, method="linear").reshape(len(taus), -1).T
        assert np.array_equal(_bits(_linear_percentiles(block, taus)), _bits(expected))
    ordered = np.sort(values, axis=1)
    expected = np.percentile(ordered, taus, axis=1, method="linear").reshape(len(taus), -1).T
    assert np.array_equal(_bits(_stacked_stats(values, taus)[2]), _bits(expected))
    for tau in taus:
        assert _bits(percentile(values[0], tau)) == _bits(
            np.percentile(values[0], tau, method="linear"))


def test_percentile_weights_stay_banded_in_memory():
    # a dense band x band matrix here took 60 MiB and a 190 MiB peak
    _percentile_weights.cache_clear()
    tracemalloc.start()
    try:
        _percentile_weights(100_000, 50.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _percentile_weights.cache_clear()
    assert peak < 8 * 2**20


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


# ---------------------------------------------------------------------------
# the chunked conditioned pass against a one-placement-at-a-time loop

def _loop(space, ev, placements, n, seed, resolution):
    """The pass as a loop of draw_samples calls, one placement at a time."""
    return np.stack([draw_samples(space, ev, n, seed, placement=p, resolution=resolution).values
                     for p in placements])


def _outcome(run):
    """What run returns, or the type, message and record of what it raises."""
    try:
        return run().tolist()
    except ArchscopeError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "record", None)


def _exact_table_over(space, placements, n, seed, resolution):
    """An exact table with a value for every architecture the pass draws."""
    pairs = {}
    for p in placements:
        rng = Stream(seed, *_stream_key(p, space, resolution))
        genes = sample_batch(space, rng, n, p, resolution)
        for i in range(n):
            arch = genes.architecture(i)
            pairs[arch] = float(sum(arch.depths)) + arch.resolution / 7
    return exact_table_from_pairs(space, "exact", "minimize", "", pairs.items())


# (space, metric, n): P * n from well below one chunk to many chunks, and
# n above PASS_CHUNK, where a chunk is one placement
_PASS_CASES = [
    ("mini", "macs", 5),
    ("mini", "npu-like", 700),
    ("mini-ratio", "params", 40),
    ("mini-ratio", "synthetic-acc", 3),
    ("ofa", "npu-like", 50),
    ("ofa", "synthetic-acc", 7),
    ("proxylessnas", "gpu-flat", 20),
    ("resnet50", "synthetic-acc", 50),
    ("resnet50", "macs", 300),
    ("mini", "exact", 30),
    ("ofa", "exact", 4),
]


def _pass_space(name):
    return {"mini": lambda: build_mini_space(resolutions=(32, 64)),
            "mini-ratio": build_mini_ratio_space}.get(name, lambda: load_space(name))()


@pytest.mark.parametrize("space_name, metric, n", _PASS_CASES)
@pytest.mark.parametrize("fixed", [False, True], ids=["mixed", "fixed-resolution"])
def test_pass_equals_the_per_placement_loop(space_name, metric, n, fixed):
    space = _pass_space(space_name)
    placements = list(iter_placements(space))
    resolution = space.resolutions[-1] if fixed else None
    if metric == "exact":  # scored row by row through fn
        ev = table_evaluator(space, _exact_table_over(space, placements, n, 5, resolution))
        assert ev.batch is None
    else:
        ev = resolve_evaluator(metric, space)
    got = _conditioned_pass(space, ev, placements, n, 5, resolution, 1)
    assert got.shape == (len(placements), n)
    assert _bits(got).tolist() == _bits(_loop(space, ev, placements, n, 5, resolution)).tolist()


@settings(max_examples=25, deadline=None)
@given(config=_space_configs(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       data=st.data())
def test_pass_equals_the_loop_on_random_spaces(config, seed, n, data):
    space = parse_space_config(config)
    placements = list(iter_placements(space))
    placements = data.draw(st.lists(st.sampled_from(placements), min_size=1, max_size=40))
    resolution = data.draw(st.none() | st.sampled_from(space.resolutions))
    ev = macs_evaluator(space)
    assert (_conditioned_pass(space, ev, placements, n, seed, resolution, 1).tolist()
            == _loop(space, ev, placements, n, seed, resolution).tolist())


def test_heatmap_rows_equal_the_sample_set_statistics(mini_space_2res):
    space, ev = mini_space_2res, accuracy_evaluator(mini_space_2res)
    report = block_heatmap(space, ev, n_per_placement=30, seed=4, per_resolution=True)
    expected = []
    for resolution in space.resolutions:
        for code in block_codes(space):
            sets = [draw_samples(space, ev, 30, 4, placement=p, resolution=resolution)
                    for p in iter_placements(space) if p.block_code == code]
            means = np.array([s.mean() for s in sets])
            errs = np.array([s.stderr() for s in sets])
            expected.append((code, resolution, float(np.mean(means)),
                             float(np.sqrt(np.sum(errs**2)) / len(sets))))
    assert [(r.block_code, r.resolution, r.mean, r.stderr) for r in report.rows] == expected


def test_pass_scores_each_chunk_with_one_evaluate_batch_call(monkeypatch, mini_space_2res):
    # an exact table has no additive form, so the pass scores each chunk's genes
    space = mini_space_2res
    pairs = [(arch, float(sum(arch.depths))) for _, arch in exhaustive_archs(space)]
    ev = table_evaluator(space, exact_table_from_pairs(space, "exact", "minimize", "", pairs))
    placements = list(iter_placements(space))
    sizes = []
    evaluate_batch = MetricEvaluator.evaluate_batch

    def counted(self, genes):
        sizes.append(len(genes))
        return evaluate_batch(self, genes)

    monkeypatch.setattr(MetricEvaluator, "evaluate_batch", counted)
    for n, per_chunk in ((1, len(placements)), (50, PASS_CHUNK // 50), (PASS_CHUNK, 1),
                         (PASS_CHUNK + 1, 1)):
        sizes.clear()
        _conditioned_pass(space, ev, placements, n, 0, None, 1)
        chunks = [placements[i : i + per_chunk] for i in range(0, len(placements), per_chunk)]
        assert sizes == [n * len(chunk) for chunk in chunks], n
        assert max(sizes) <= max(PASS_CHUNK, n)


def test_form_backed_passes_score_words_without_genes(monkeypatch):
    # every lowered metric of the pass's space is scored from the stream's
    # words: no gene batch is decoded and no evaluate_batch call is made, and
    # the values are those of scoring the genes
    space = load_space("ofa")
    placement = next(iter_placements(space))
    runs = {
        "blocks": lambda ev: [(r.block_code, r.resolution, r.mean, r.stderr) for r in
                              block_heatmap(space, ev, n_per_placement=20, seed=3).rows],
        "placements": lambda ev: [(r.placement, r.cond_mean, r.rel_tau, r.rel_tau_se) for r in
                                  placement_sweep(space, ev, 20, seed=3, baseline_n=60).rows],
        "draw_samples": lambda ev: draw_samples(space, ev, 40, 3, placement, 224).values.tolist(),
    }
    metrics = ("macs", "params", "synthetic-acc", "npu-like")
    with monkeypatch.context() as genes_only:
        genes_only.setattr(profiler, "word_form", lambda evaluator, space: None)
        expected = {(m, name): run(resolve_evaluator(m, space))
                    for m in metrics for name, run in runs.items()}

    def refuse(*args):
        raise AssertionError("a form-backed pass decoded or scored genes")

    monkeypatch.setattr(sampling, "_decode", refuse)
    monkeypatch.setattr(MetricEvaluator, "evaluate_batch", refuse)
    for (metric, name), values in expected.items():
        assert runs[name](resolve_evaluator(metric, space)) == values, (metric, name)


def _scalar_loop(space, ev, placements, n, seed, resolution):
    """The pass as the loop that scores one architecture at a time through
    evaluate, placement by placement, raising a failure that is not an
    EvaluationError as one naming the evaluator and the record."""
    values = []
    for p in placements:
        genes = sample_batch(space, Stream(seed, *_stream_key(p, space, resolution)), n, p,
                             resolution)
        for i in range(n):
            arch = genes.architecture(i)
            try:
                values.append(ev.evaluate(arch))
            except EvaluationError:
                raise
            except Exception as exc:
                raise EvaluationError(f"evaluator {ev.name!r} failed: {exc}",
                                      record=arch_key(arch)) from exc
    return np.array(values).reshape(len(placements), n)


def _batch_dependent(space, bad: bytes, limit: int | None = None):
    """An evaluator whose batch errors depend on the batch: it names the
    failing row's index within the batch, or refuses batches above limit."""
    def batch(genes):
        if limit is not None and len(genes) > limit:
            raise RuntimeError("batch too large")
        rows = genes.rows()
        for i, row in enumerate(rows):
            if row.tobytes() == bad:
                raise EvaluationError(f"row {i} of a batch of {len(rows)}",
                                      record=arch_key(genes.architecture(i)))
        return rows.sum(axis=1).astype(float)

    return MetricEvaluator(name="sum", direction="minimize",
                           fn=lambda arch: batch(Genes.from_architectures(space, [arch]))[0],
                           batch=batch)


def _failing_at(space, n, seed, k, i, kind):
    """An evaluator that fails at row i of the draws conditioned on
    placement k: a kind of test_fast_paths._failing, a "sentinel" (an
    additive table that lost placement k's entry after binding, so every row
    hosting it fails) or a "batch-dependent" error naming the row's index in
    its batch."""
    placements = list(iter_placements(space))
    if kind == "sentinel":
        entries = {p.key(): 0.5 for p in placements}
        table = MetricTable(space=space.name, metric="lat", direction="minimize", units="ms",
                            kind="additive", entries=entries,
                            resolution_constants={r: 1.0 for r in space.resolutions})
        ev = table_evaluator(space, table)  # coverage is checked here, tables built on first use
        del entries[placements[k].key()]
        return ev
    genes = sample_batch(space, Stream(seed, *_stream_key(placements[k], space, None)), n,
                         placements[k])
    if kind == "batch-dependent":
        return _batch_dependent(space, genes.rows()[i].tobytes())
    return _failing(space, genes.architecture(i), kind)


def _assert_fails_as_the_scalar_loop(space, ev, n, seed, k, workers):
    """A pass over every placement, and draw_samples of placement k, raise
    the scalar loop's EvaluationError: type, message and record."""
    placements = list(iter_placements(space))
    got = _outcome(lambda: _conditioned_pass(space, ev, placements, n, seed, None, workers))
    assert got == _outcome(lambda: _scalar_loop(space, ev, placements, n, seed, None))
    assert got[0] == "EvaluationError" and got[2] is not None
    got_one = _outcome(lambda: draw_samples(space, ev, n, seed, placement=placements[k]).values)
    assert got_one == _outcome(lambda: _scalar_loop(space, ev, placements[k : k + 1], n, seed,
                                                    None)[0])
    return got


_FAILURES = ["raise", "no-batch", "nan", "sentinel"]


@pytest.mark.parametrize("kind", _FAILURES)
def test_pass_failing_row_raises_as_the_loop_does(mini_space_2res, kind):
    space = mini_space_2res
    n, seed = 200, 3  # two placements a chunk
    k = len(list(iter_placements(space))) - 2
    ev = _failing_at(space, n, seed, k, 150, kind)
    got = _assert_fails_as_the_scalar_loop(space, ev, n, seed, k, 1)
    assert got[1].startswith(f"evaluator {ev.name!r} failed: ")


@pytest.mark.parametrize("kind", [*_FAILURES, "batch-dependent"])
def test_pass_rescores_a_failing_chunk_one_architecture_at_a_time(kind):
    space = load_space("ofa")
    placements = list(iter_placements(space))
    n, seed, k = 3, 11, 7  # placement k's row 2 fails, inside the first chunk
    ev = _failing_at(space, n, seed, k, 2, kind)
    got = _assert_fails_as_the_scalar_loop(space, ev, n, seed, k, 2)
    # the batch's own error, "row 2 of a batch of 3", is not what the loop raises
    expected = "row 0 of a batch of 1" if kind == "batch-dependent" else f"evaluator {ev.name!r}"
    assert got[1].startswith(expected)
    # a batch path that fails only on a whole chunk still gives the loop's values
    picky = _batch_dependent(space, b"", limit=n)
    assert (_conditioned_pass(space, picky, placements, n, seed, None, 1).tolist()
            == _loop(space, picky, placements, n, seed, None).tolist())
