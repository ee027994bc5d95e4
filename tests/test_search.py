import collections

import numpy as np
import pytest

from archscope.costs import MetricEvaluator, accuracy_evaluator, macs_evaluator
from archscope.errors import EvaluationError, ValidationError
from archscope.reduction import ReductionRule, RuleSet, apply
from archscope.sampling import Stream, sample_uniform
from archscope.search import (
    PARETO_CHUNK,
    EvaluatedArch,
    ParetoFront,
    SearchConfig,
    compare_frontiers,
    evolve,
    mutate,
    pareto_filter,
)
from archscope.spaces import arch_key, load_space, validate_architecture

from .oracles import brute_frontier


def _counting(ev):
    calls = []
    wrapped = MetricEvaluator(
        name=ev.name, direction=ev.direction,
        fn=lambda arch: (calls.append(1), ev.evaluate(arch))[1],
        resolution_sensitive=ev.resolution_sensitive)
    return wrapped, calls


_FREEZE_BODY = RuleSet(name="frozen", space="", rules=(
    ReductionRule(kind="force_depth", units=None, depth=1),
    ReductionRule(kind="remove_block", units=None, blocks=("MBConv3-5", "MBConv6-3")),
))


def test_config_validation():
    acc = accuracy_evaluator(load_space("ofa"))
    with pytest.raises(ValidationError, match="objective"):
        SearchConfig(objectives=())
    with pytest.raises(ValidationError, match="population"):
        SearchConfig(objectives=(acc,), population=0)
    with pytest.raises(ValidationError, match="generations"):
        SearchConfig(objectives=(acc,), generations=0)
    with pytest.raises(ValidationError, match="children"):
        SearchConfig(objectives=(acc,), children=0)
    with pytest.raises(ValidationError, match="fitness mode"):
        SearchConfig(objectives=(acc,), fitness_mode="tournament")
    assert SearchConfig(objectives=(acc,), population=7, generations=3, children=11).budget == 40


def test_budget_is_exact(mini_space):
    acc, acc_calls = _counting(accuracy_evaluator(mini_space))
    macs, macs_calls = _counting(macs_evaluator(mini_space))
    config = SearchConfig(objectives=(acc, macs), population=10, generations=4,
                          children=15, seed=0)
    result = evolve(mini_space, config)
    assert result.total_evaluations == 10 + 4 * 15
    assert len(acc_calls) == len(macs_calls) == 10 + 4 * 15
    assert result.history[0].evaluations == 10
    assert result.history[-1].evaluations == 70
    assert len(result.history) == 5


def test_single_objective_best_monotone(mini_space):
    for seed in range(6):
        config = SearchConfig(objectives=(accuracy_evaluator(mini_space),),
                              population=8, generations=6, children=12, seed=seed)
        result = evolve(mini_space, config)
        bests = [h.best[0] for h in result.history]
        assert all(b >= a for a, b in zip(bests, bests[1:]))
        assert result.best is not None and result.frontier is None
        assert result.best.metrics[0] == max(bests)
        validate_architecture(mini_space, result.best.arch)


def test_minimize_objective_best_monotone(mini_space):
    config = SearchConfig(objectives=(macs_evaluator(mini_space),),
                          population=8, generations=5, children=10, seed=2)
    result = evolve(mini_space, config)
    bests = [h.best[0] for h in result.history]
    assert all(b <= a for a, b in zip(bests, bests[1:]))


def test_multi_objective_returns_frontier(mini_space):
    config = SearchConfig(
        objectives=(accuracy_evaluator(mini_space), macs_evaluator(mini_space)),
        population=10, generations=3, children=20, seed=1)
    result = evolve(mini_space, config)
    assert result.best is None and result.frontier is not None
    front = result.frontier
    assert front.objectives == (("synthetic-acc", "maximize"), ("macs", "minimize"))
    keys = [arch_key(p.arch) for p in front.points]
    assert len(keys) == len(set(keys))  # dedupe holds on the frontier
    for p in front.points:
        validate_architecture(mini_space, p.arch)
    # frontier is internally non-dominated
    vectors = [p.metrics for p in front.points]
    assert sorted(brute_frontier(vectors, ("maximize", "minimize"))) == list(range(len(vectors)))


def test_run_is_deterministic():
    space = load_space("ofa")
    config = SearchConfig(objectives=(macs_evaluator(space),),
                          population=8, generations=2, children=8, seed=5)
    a = evolve(space, config)
    b = evolve(space, config)
    assert [h.best for h in a.history] == [h.best for h in b.history]
    assert arch_key(a.best.arch) == arch_key(b.best.arch)
    c = evolve(space, SearchConfig(objectives=(macs_evaluator(space),),
                                   population=8, generations=2, children=8, seed=6))
    assert arch_key(c.best.arch) != arch_key(a.best.arch) or c.best.metrics != a.best.metrics


def test_rank_sum_mode_runs(mini_space):
    config = SearchConfig(
        objectives=(accuracy_evaluator(mini_space), macs_evaluator(mini_space)),
        population=10, generations=3, children=15, seed=4, fitness_mode="rank_sum")
    result = evolve(mini_space, config)
    assert result.total_evaluations == 10 + 3 * 15
    assert result.frontier is not None and result.frontier.points


def test_evaluator_failures_are_wrapped(mini_space):
    def boom(arch):
        raise RuntimeError("no backend")
    bad = MetricEvaluator(name="flaky", direction="minimize", fn=boom)
    config = SearchConfig(objectives=(bad,), population=2, generations=1, children=2)
    with pytest.raises(EvaluationError, match="no backend"):
        evolve(mini_space, config)


# ---------------------------------------------------------------------------
# mutation

def test_mutation_actions_cover_space_genes():
    space = load_space("ofa")
    rng = Stream(0, 7)
    arch = sample_uniform(space, rng)
    while not (any(d < 4 for d in arch.depths) and any(d > 2 for d in arch.depths)):
        arch = sample_uniform(space, rng)
    seen = set()
    for _ in range(300):
        child, desc = mutate(space, arch, rng)
        validate_architecture(space, child)
        assert arch_key(child) != arch_key(arch)
        seen.add(desc.split(":", 1)[0])
    assert seen == {"add_layer", "remove_layer", "change_block", "change_resolution"}


def test_mutation_changes_ratio_on_bottleneck_spaces():
    space = load_space("resnet50")
    rng = Stream(0, 8)
    arch = sample_uniform(space, rng)
    seen = set()
    for _ in range(300):
        child, desc = mutate(space, arch, rng)
        validate_architecture(space, child)
        seen.add(desc.split(":", 1)[0])
    assert "change_ratio" in seen
    assert "change_resolution" not in seen  # single-resolution space


def test_change_ratio_remaps_joint_codes(mini_ratio_space):
    rng = Stream(0, 9)
    hits = 0
    while hits < 20:
        arch = sample_uniform(mini_ratio_space, rng)
        child, desc = mutate(mini_ratio_space, arch, rng)
        if not desc.startswith("change_ratio"):
            continue
        hits += 1
        validate_architecture(mini_ratio_space, child)
        u = int(desc.split(":")[1][1:])
        # expansion suffix of every layer code survives the ratio swap
        old = [c.split("-")[1] for c in arch.blocks[u - 1]]
        new = [c.split("-")[1] for c in child.blocks[u - 1]]
        assert new == old


def test_mutation_desc_formats(mini_space):
    rng = Stream(0, 10)
    descs = set()
    for _ in range(200):
        arch = sample_uniform(mini_space, rng)
        _, desc = mutate(mini_space, arch, rng)
        descs.add(desc.split(":", 1)[0])
        if desc.startswith("add_layer"):
            _, unit, code = desc.split(":")
            assert unit in ("u1", "u2") and code.startswith("MBConv")
        elif desc.startswith(("remove_layer", "change_block")):
            _, pos, _ = desc.split(":")
            assert pos[0] == "u" and "l" in pos
    assert {"add_layer", "remove_layer", "change_block"} <= descs


def test_unit_weights_steer_mutation():
    space = load_space("ofa")
    rng = Stream(0, 11)
    arch = sample_uniform(space, rng)
    for _ in range(100):
        _, desc = mutate(space, arch, rng, unit_weights=(0, 0, 0, 0, 1))
        assert desc.startswith("change_resolution") or ":u5" in desc


def test_unit_weights_validation(mini_space):
    rng = Stream(0, 12)
    arch = sample_uniform(mini_space, rng)
    with pytest.raises(ValidationError, match="unit_weights"):
        mutate(mini_space, arch, rng, unit_weights=(1,))
    with pytest.raises(ValidationError, match="unit_weights"):
        mutate(mini_space, arch, rng, unit_weights=(0, 0))
    with pytest.raises(ValidationError, match="unit_weights"):
        mutate(mini_space, arch, rng, unit_weights=(1, -1))


@pytest.mark.parametrize("weights", [(float("nan"), 1.0), (float("inf"), 1.0), (1e308, 1e308)])
def test_unit_weights_must_have_a_finite_sum(mini_space, weights):
    # these once normalised to NaN or zero probabilities and were reported
    # as a space that admits no mutation
    rng = Stream(0, 12)
    arch = sample_uniform(mini_space, rng)
    with pytest.raises(ValidationError, match="unit_weights"):
        mutate(mini_space, arch, rng, unit_weights=weights)
    config = SearchConfig(objectives=(macs_evaluator(mini_space),), population=2,
                          generations=1, children=2, unit_weights=weights)
    with pytest.raises(ValidationError, match="unit_weights"):
        evolve(mini_space, config)


def test_resolution_is_last_resort_mutation(mini_space_2res):
    frozen = apply(mini_space_2res, _FREEZE_BODY)
    rng = Stream(0, 13)
    arch = sample_uniform(frozen, rng)
    for _ in range(20):
        child, desc = mutate(frozen, arch, rng)
        assert desc.startswith("change_resolution")
        assert child.resolution != arch.resolution


def test_immutable_space_raises(mini_space):
    frozen = apply(mini_space, _FREEZE_BODY)
    rng = Stream(0, 14)
    arch = sample_uniform(frozen, rng)
    with pytest.raises(ValidationError, match="admits no mutation"):
        mutate(frozen, arch, rng)


def test_evolve_on_two_point_space(mini_space_2res):
    frozen = apply(mini_space_2res, _FREEZE_BODY)
    config = SearchConfig(objectives=(macs_evaluator(frozen),),
                          population=4, generations=2, children=4, seed=0)
    result = evolve(frozen, config)
    assert result.total_evaluations == 4 + 2 * 4
    assert result.best.arch.resolution == 32  # smaller input, fewer macs


# ---------------------------------------------------------------------------
# pareto utilities

def _cloud_points(vectors):
    space = load_space("ofa")
    arch = sample_uniform(space, Stream(0, 15))
    return [EvaluatedArch(arch=arch, metrics=tuple(v), eval_id=i, generation=0)
            for i, v in enumerate(vectors)]


def _clouds(rng, size, directions):
    """Metric vectors of two kinds: a small grid (duplicates and ties, a
    small front) and an anti-correlated cloud whose front, duplicates
    included, spans every chunk of the filter."""
    m = len(directions)
    flip = np.array([1 if d == "minimize" else -1 for d in directions])
    grid = rng.integers(0, 8, size=(size, m))
    x = rng.integers(0, size // 8 + 1, size=size)
    wide = np.column_stack([x, -x + rng.integers(0, 2, size=size),
                            rng.integers(0, 2, size=(size, m - 2))]) * flip
    return [[tuple(v) for v in cloud.tolist()] for cloud in (grid, wide)]


@pytest.mark.parametrize("directions", [
    ("minimize", "minimize"),
    ("maximize", "minimize"),
    ("maximize", "maximize"),
    ("minimize", "maximize", "minimize"),
])
def test_pareto_filter_matches_quadratic_oracle(directions):
    rng = np.random.default_rng(17)
    # five clouds of 60, then sizes around the filter's chunk boundaries
    sizes = [60] * 5 + [1, PARETO_CHUNK - 1, PARETO_CHUNK, PARETO_CHUNK + 1, 5 * PARETO_CHUNK + 3]
    for size in sizes:
        for vectors in _clouds(rng, size, directions):
            points = _cloud_points(vectors)
            kept = pareto_filter(points, directions)
            expected = {vectors[i] for i in brute_frontier(vectors, directions)}
            assert {p.metrics for p in kept} == expected
            # in lexicographic order of the direction-aware vectors, ties by index
            flip = [1 if d == "minimize" else -1 for d in directions]
            ids = [p.eval_id for p in kept]
            assert ids == sorted(ids, key=lambda i: tuple(f * v for f, v in zip(flip, vectors[i])))
            # duplicates of surviving vectors are all kept
            counts = collections.Counter(vectors)
            assert collections.Counter(p.metrics for p in kept) == {v: counts[v] for v in expected}


def test_pareto_filter_sorted_by_first_objective():
    vectors = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0)]
    kept = pareto_filter(_cloud_points(vectors), ("minimize", "minimize"))
    assert [p.metrics[0] for p in kept] == [1.0, 2.0, 3.0]


def _front(vectors, objectives=(("acc", "maximize"), ("latency", "minimize"))):
    return ParetoFront(objectives=tuple(objectives), points=_cloud_points(vectors))


def test_compare_identical_frontiers_all_tie():
    front = _front([(70.0, 1.0), (75.0, 2.0), (78.0, 4.0)])
    cmp = compare_frontiers(front, front, grid_points=20)
    assert cmp.winner == ["tie"] * 20
    assert cmp.frac_tie == 1.0
    assert cmp.budget_axis == "latency" and cmp.quality_axis == "acc"
    assert cmp.grid[0] == 1.0 and cmp.grid[-1] == 4.0


def test_compare_detects_dominating_frontier():
    better = _front([(70.0, 1.0), (76.0, 2.0), (79.0, 4.0)])
    worse = _front([(70.0, 1.0), (74.0, 2.0), (78.0, 4.0)])
    cmp = compare_frontiers(better, worse)
    assert cmp.frac_a > 0.5 and cmp.frac_b == 0.0
    flipped = compare_frontiers(worse, better)
    assert flipped.frac_b > 0.5 and flipped.frac_a == 0.0


def test_compare_handles_uncovered_budgets():
    sparse = _front([(79.0, 4.0)])  # nothing cheap
    broad = _front([(70.0, 1.0), (78.0, 4.0)])
    cmp = compare_frontiers(sparse, broad, grid_points=10)
    assert cmp.best_a[0] is None
    assert cmp.winner[0] == "b"
    assert cmp.winner[-1] == "a"  # 79 beats 78 once affordable


def test_compare_frontier_errors():
    front = _front([(70.0, 1.0)])
    other = _front([(70.0, 1.0)], objectives=(("acc", "maximize"), ("macs", "minimize")))
    with pytest.raises(ValidationError, match="objectives differ"):
        compare_frontiers(front, other)
    single = _front([(70.0,)], objectives=(("acc", "maximize"),))
    with pytest.raises(ValidationError, match="exactly two"):
        compare_frontiers(single, single)
    both_min = _front([(1.0, 1.0)], objectives=(("macs", "minimize"), ("latency", "minimize")))
    with pytest.raises(ValidationError, match="one maximize and one minimize"):
        compare_frontiers(both_min, both_min)
    with pytest.raises(ValidationError, match="grid"):
        compare_frontiers(front, front, grid_points=1)
    empty = ParetoFront(objectives=front.objectives, points=[])
    with pytest.raises(ValidationError, match="empty frontier"):
        compare_frontiers(front, empty)


def test_search_frontier_matches_exhaustive_frontier(mini_space):
    """A budget several times the space size recovers the exact frontier."""
    from .oracles import exhaustive_archs

    acc = accuracy_evaluator(mini_space)
    macs = macs_evaluator(mini_space)
    config = SearchConfig(objectives=(acc, macs), population=40, generations=10,
                          children=70, seed=3)
    result = evolve(mini_space, config)
    everything = [(acc.evaluate(a), macs.evaluate(a))
                  for _, a in exhaustive_archs(mini_space)]
    expected = {everything[i] for i in brute_frontier(everything, ("maximize", "minimize"))}
    assert {p.metrics for p in result.frontier.points} == expected
