"""Self-tests for the benchmark, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
from run import END_TO_END, PER_LAYER, ROOT, measure
from workloads import WORKLOADS

assert run.use_checkout() is None

from tracer import Tracer  # noqa: E402  (needs the checkout on sys.path)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
EXACT = [name for name, (_, exact) in PER_LAYER.items() if exact]


@pytest.fixture(scope="module", params=list(WORKLOADS))
def runs(request):
    """One untraced and two traced tiny measurements of one workload, same seed."""
    workload = WORKLOADS[request.param]
    return [measure(workload, 5, 0, trace, workload.tiny) for trace in (False, True, True)]


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER.items()
    }
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_smoke_run_is_correct(runs):
    for result in runs:
        assert result.errors == []
        assert result.failed == 0 and result.attempted >= run.MIN_RUNS
        assert all(NAME.fullmatch(name) for name in result.metrics)
    plain, traced, _ = runs
    assert list(plain.metrics) == list(END_TO_END)
    # at tiny sizes a CLI run can take no longer than the set-up probe, so
    # archs_per_s may read 0 there
    assert all(value > 0 for name, (value, _) in plain.metrics.items() if name != "archs_per_s")
    assert list(traced.metrics) == list(PER_LAYER)


def test_count_metrics_repeat_exactly(runs):
    _, first, second = runs
    assert {n: first.metrics[n] for n in EXACT} == {n: second.metrics[n] for n in EXACT}
    assert first.metrics["search.evaluations"][0] in (0, first.archs)


def test_tracing_leaves_data_digests_unchanged(runs):
    plain, traced, _ = runs
    assert plain.digests and traced.digests == plain.digests


def test_layer_counts_match_the_workload_shape():
    workload = WORKLOADS["sweep-ofa-npu"]
    result = measure(workload, 0, 0, True, workload.tiny)
    placements, taus = 180, 2
    assert result.metrics["profiler.bootstrap.calls"][0] == 2 * placements * taus
    # distinct (sample set, tau) pairs: every placement plus the shared baseline
    assert result.metrics["profiler.bootstrap.useful_ratio"][0] == (placements + 1) * taus / (
        2 * placements * taus
    )
    assert result.metrics["search.mutate.calls"][0] == 0


def test_tracer_restores_every_patched_attribute(tmp_path):
    from archscope import cli, costs, manifest, profiler, search

    owners = (cli, profiler, search, costs.MetricEvaluator, profiler.SampleSet,
              manifest.RunManifest)
    before = [dict(vars(owner)) for owner in owners]
    workload = WORKLOADS["pareto-ofa-npu-acc-macs"]
    with Tracer() as tracer:
        patched = [k for owner, old in zip(owners, before) for k, v in vars(owner).items()
                   if old.get(k) is not v]
        assert cli.main(workload.cli_args(0, tmp_path, workload.tiny)) == 0
    assert len(patched) >= 15
    assert tracer.spans
    for owner, old in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == old.keys()
        assert all(now[k] is old[k] for k in old), owner


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-ofa-npu", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
