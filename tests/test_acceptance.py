"""End-to-end checks, one test per advertised guarantee.

Each test prints a single summary line (visible under pytest -s):

    ACCEPTANCE <n> PASS|FAIL (<elapsed>s) <detail>

and then asserts both the guarantee and its runtime budget. Statistical
checks run at fixed seeds, so outcomes are reproducible.
"""

import time

import numpy as np

from archscope import cli
from archscope.costs import MetricEvaluator, accuracy_evaluator, macs_evaluator
from archscope.devices import latency_evaluator
from archscope.profiler import draw_samples, estimate_block_mean
from archscope.reduction import apply as apply_ruleset
from archscope.reduction import list_rulesets, preset
from archscope.sampling import Stream, sample_uniform
from archscope.search import SearchConfig, compare_frontiers, evolve
from archscope.spaces import (
    block_codes,
    count_architectures,
    iter_placements,
    load_space,
    save_space,
    validate_architecture,
)

from .conftest import build_mini_space
from .oracles import brute_frontier, exact_expectation, exhaustive_archs, walker_macs


def _report(n, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} {status} ({elapsed:.2f}s) {detail}")


def test_criterion_1_exact_counts_via_cli(capsys):
    start = time.perf_counter()
    rc = cli.main(["spaces", "count", "--space", "ofa"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    values = dict(line.split("=", 1) for line in out.splitlines())
    count = int(values["architectures"])
    expected = 1
    for unit in load_space("ofa").units:
        expected *= sum(9**d for d in range(2, 5))
    ok = (
        rc == 0
        and int(values["placements"]) == 180
        and count == expected
        and 10**19 <= count < 10**20
    )
    with capsys.disabled():
        _report(1, ok and elapsed < 1.0, elapsed,
                f"count={count} placements={values['placements']}")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_estimators_track_enumeration():
    start = time.perf_counter()
    space = build_mini_space()
    assert count_architectures(space, include_resolutions=True) <= 512
    ev = accuracy_evaluator(space)
    n = 50_000
    seed = 0

    baseline = draw_samples(space, ev, n, seed)
    exact_baseline = exact_expectation(space, ev.evaluate)
    placements = list(iter_placements(space))
    ok_placements = 0
    for placement in placements:
        cond = draw_samples(space, ev, n, seed, placement=placement)
        exact_cond = exact_expectation(space, ev.evaluate, placement)
        mean_ok = abs(cond.mean() - exact_cond) <= 3 * cond.stderr()
        rel = cond.mean() - baseline.mean()
        exact_rel = exact_cond - exact_baseline
        rel_se = float(np.hypot(cond.stderr(), baseline.stderr()))
        rel_ok = abs(rel - exact_rel) <= 3 * rel_se
        ok_placements += mean_ok and rel_ok

    block_ok = True
    for code in block_codes(space):
        stats = estimate_block_mean(space, code, ev, n_per_placement=n, seed=seed)
        hosts = [p for p in placements if p.block_code == code]
        exact = np.mean([exact_expectation(space, ev.evaluate, p) for p in hosts])
        block_ok &= abs(stats.mean - exact) <= 3 * stats.stderr

    elapsed = time.perf_counter() - start
    fraction = ok_placements / len(placements)
    ok = fraction >= 0.95 and block_ok
    _report(2, ok and elapsed < 120.0, elapsed,
            f"placements_within_3se={ok_placements}/{len(placements)} blocks_ok={block_ok}")
    assert ok
    assert elapsed < 120.0


def test_criterion_3_kernel_count_contrast():
    start = time.perf_counter()
    space = load_space("ofa")
    counter = MetricEvaluator(
        name="kernel7-blocks",
        direction="maximize",
        fn=lambda arch: float(
            sum(code.endswith("-7") for codes in arch.blocks for code in codes)
        ),
    )
    gaps = {}
    ok = True
    for expansion in (3, 4, 6):
        seven = estimate_block_mean(space, f"MBConv{expansion}-7", counter,
                                    n_per_placement=1500, seed=0)
        three = estimate_block_mean(space, f"MBConv{expansion}-3", counter,
                                    n_per_placement=1500, seed=0)
        gap = seven.mean - three.mean
        tol = 3 * float(np.hypot(seven.stderr, three.stderr))
        gaps[expansion] = (gap, tol)
        ok &= abs(gap - 1.0) <= tol
    elapsed = time.perf_counter() - start
    detail = " ".join(f"e{e}:gap={g:.4f}+-{t:.4f}" for e, (g, t) in gaps.items())
    _report(3, ok and elapsed < 60.0, elapsed, detail)
    assert ok
    assert elapsed < 60.0


def test_criterion_4_self_baseline_is_zero():
    start = time.perf_counter()
    space = load_space("ofa")
    ev = accuracy_evaluator(space)
    a = draw_samples(space, ev, 10_000, seed=100)
    b = draw_samples(space, ev, 10_000, seed=101)
    checks = {"mean": (a.mean() - b.mean(), float(np.hypot(a.stderr(), b.stderr())))}
    for tau in (5.0, 50.0, 95.0):
        diff = a.percentile(tau) - b.percentile(tau)
        se = float(np.hypot(a.percentile_stderr(tau), b.percentile_stderr(tau)))
        checks[f"p{tau:g}"] = (diff, se)
    ok = all(abs(diff) <= 3 * se for diff, se in checks.values())
    elapsed = time.perf_counter() - start
    detail = " ".join(f"{k}={d:.4f}+-{3 * s:.4f}" for k, (d, s) in checks.items())
    _report(4, ok and elapsed < 60.0, elapsed, detail)
    assert ok
    assert elapsed < 60.0


def test_criterion_5_analytic_macs_match_simulation():
    start = time.perf_counter()
    mismatches = 0
    for name in ("ofa", "proxylessnas", "resnet50"):
        space = load_space(name)
        ev = macs_evaluator(space)
        rng = Stream(0, 500)
        for _ in range(100):
            arch = sample_uniform(space, rng)
            if int(ev.evaluate(arch)) != walker_macs(space, arch):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0
    _report(5, ok and elapsed < 10.0, elapsed, f"mismatches={mismatches}/300")
    assert ok
    assert elapsed < 10.0


_SENTENCES = {
    "ofa-npu": lambda s: len(block_codes(s)) == 6
    and all(not c.endswith("-7") for c in block_codes(s)),
    "ofa-gpu": lambda s: [u.depth_max for u in s.units] == [4, 3, 4, 3, 3]
    and len(block_codes(s)) == 6,
    "ofa-cpu": lambda s: [u.depth_max for u in s.units] == [3, 3, 3, 4, 4],
    "ofa-note10": lambda s: s.resolutions == (192, 224)
    and s.units[0].depth_max == 3 and len(block_codes(s)) == 7,
    "proxylessnas-npu": lambda s: len(block_codes(s)) == 6
    and all(not c.endswith("-7") for c in block_codes(s)),
    "proxylessnas-gpu": lambda s: [u.depth_max for u in s.units] == [3, 3, 3, 4, 4, 1],
    "proxylessnas-cpu": lambda s: [u.depth_max for u in s.units] == [3, 3, 4, 4, 4, 1],
    "ofa-maxacc": lambda s: len(block_codes(s)) == 5
    and "MBConv3-3" not in block_codes(s),
    "proxylessnas-maxacc": lambda s: len(block_codes(s)) == 5,
    "resnet50-maxacc": lambda s: s.units[2].depth_min == s.units[2].depth_max == 6
    and s.units[3].depth_min == s.units[3].depth_max == 4
    and s.units[2].channel_ratios == (1.0,),
}


def test_criterion_6_reductions_stay_inside_parent():
    start = time.perf_counter()
    failures = []
    for name in list_rulesets():
        ruleset = preset(name)
        parent = load_space(ruleset.space)
        reduced = apply_ruleset(parent, ruleset)
        if not _SENTENCES[name](reduced):
            failures.append(f"{name}:shape")
            continue
        rng = Stream(0, 600)
        try:
            for _ in range(10_000):
                validate_architecture(parent, sample_uniform(reduced, rng),
                                      check_name=False)
        except Exception as exc:
            failures.append(f"{name}:{exc}")
    elapsed = time.perf_counter() - start
    ok = not failures
    _report(6, ok and elapsed < 60.0, elapsed,
            f"presets={len(list_rulesets())} failures={failures or 'none'}")
    assert ok, failures
    assert elapsed < 60.0


def test_criterion_7_search_discipline():
    start = time.perf_counter()
    space = build_mini_space()
    acc = accuracy_evaluator(space)
    macs = macs_evaluator(space)

    monotone_ok = 0
    for seed in range(20):
        result = evolve(space, SearchConfig(
            objectives=(acc,), population=8, generations=6, children=12, seed=seed))
        bests = [h.best[0] for h in result.history]
        monotone_ok += all(b >= a for a, b in zip(bests, bests[1:]))

    calls = []
    counted = MetricEvaluator(name=acc.name, direction=acc.direction,
                              fn=lambda arch: (calls.append(1), acc.evaluate(arch))[1])
    probe = evolve(space, SearchConfig(
        objectives=(counted,), population=8, generations=6, children=12, seed=0))
    budget_ok = len(calls) == 8 + 6 * 12 == probe.total_evaluations

    everything = [(acc.evaluate(a), macs.evaluate(a)) for _, a in exhaustive_archs(space)]
    exact_front = {everything[i]
                   for i in brute_frontier(everything, ("maximize", "minimize"))}
    budget = 40 + 10 * 70
    assert budget >= 5 * len(everything)
    frontier_hits = 0
    for seed in range(20):
        result = evolve(space, SearchConfig(
            objectives=(acc, macs), population=40, generations=10, children=70,
            seed=seed))
        budget_ok &= result.total_evaluations == budget
        frontier_hits += {p.metrics for p in result.frontier.points} == exact_front

    elapsed = time.perf_counter() - start
    ok = monotone_ok == 20 and budget_ok and frontier_hits >= 18
    _report(7, ok and elapsed < 300.0, elapsed,
            f"monotone={monotone_ok}/20 exact_budget={budget_ok} "
            f"frontier_recovered={frontier_hits}/20")
    assert ok
    assert elapsed < 300.0


def test_criterion_8_reduction_helps_search():
    start = time.perf_counter()
    full = load_space("ofa")
    npu_rules = preset("ofa-npu")
    reduced = apply_ruleset(full, npu_rules)
    weights = tuple(float(w) for w in npu_rules.advisory["unit_weights"])

    def objectives(space):
        return (accuracy_evaluator(space), latency_evaluator(space, "npu-like"))

    low_latency_wins = 0
    for seed in range(5):
        run_reduced = evolve(reduced, SearchConfig(
            objectives=objectives(reduced), population=30, generations=6,
            children=60, seed=seed, unit_weights=weights))
        run_full = evolve(full, SearchConfig(
            objectives=objectives(full), population=30, generations=6,
            children=60, seed=seed))
        cmp = compare_frontiers(run_reduced.frontier, run_full.frontier)
        half = len(cmp.winner) // 2
        low_latency_wins += "a" in cmp.winner[:half]

    maxacc = apply_ruleset(full, preset("ofa-maxacc"))
    best_reduced, best_base = [], []
    for seed in range(5):
        for space, sink in ((maxacc, best_reduced), (full, best_base)):
            result = evolve(space, SearchConfig(
                objectives=(accuracy_evaluator(space),), population=20,
                generations=4, children=50, seed=seed))
            sink.append(result.best.metrics[0])
    mean_reduced = float(np.mean(best_reduced))
    mean_base = float(np.mean(best_base))

    elapsed = time.perf_counter() - start
    ok = low_latency_wins >= 4 and mean_reduced >= mean_base
    _report(8, ok and elapsed < 600.0, elapsed,
            f"low_latency_wins={low_latency_wins}/5 "
            f"mean_best_reduced={mean_reduced:.3f} mean_best_base={mean_base:.3f}")
    assert ok
    assert elapsed < 600.0


def test_criterion_9_reruns_are_byte_identical(capsys, tmp_path):
    start = time.perf_counter()
    space_file = tmp_path / "mini.json"
    save_space(build_mini_space(), space_file)

    def run(out_dir, workers):
        rc = cli.main(["profile", "placements", "--space", str(space_file),
                       "--metric", "synthetic-acc", "--samples", "40",
                       "--baseline-samples", "80", "--plot-data",
                       "--workers", str(workers), "--out", str(out_dir)])
        assert rc == 0
        rc = cli.main(["search", "pareto", "--space", str(space_file),
                       "--objectives", "synthetic-acc:max,macs:min",
                       "--population", "10", "--generations", "3",
                       "--children", "15", "--out", str(out_dir)])
        assert rc == 0

    run(tmp_path / "a", workers=1)
    run(tmp_path / "b", workers=3)
    capsys.readouterr()
    data_files = [
        "placements-mini-synthetic-acc.csv",
        "placements-mini-synthetic-acc-boundaries.json",
        "placements-mini-synthetic-acc.dat",
        "pareto-mini-s0.csv",
        "pareto-mini-s0.json",
        "pareto-mini-s0-history.json",
    ]
    differing = [
        name for name in data_files
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    elapsed = time.perf_counter() - start
    ok = not differing
    with capsys.disabled():
        _report(9, ok, elapsed, f"files={len(data_files)} differing={differing or 'none'}")
    assert ok, differing
