import json

import pytest

from archscope import cli
from archscope.exports import read_frontier_csv
from archscope.manifest import file_sha256
from archscope.reduction import ReductionRule, RuleSet, save_ruleset
from archscope.spaces import (
    count_architectures,
    deserialize,
    load_space,
    save_space,
    validate_architecture,
)
from archscope.devices import load_profile, save_profile

from .conftest import build_mini_space


@pytest.fixture
def mini_file(tmp_path):
    path = tmp_path / "mini.json"
    save_space(build_mini_space(), path)
    return str(path)


def _run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "archscope" in capsys.readouterr().out


def test_spaces_count(capsys):
    rc, out, _ = _run(capsys, "spaces", "count", "--space", "ofa")
    assert rc == 0
    lines = out.splitlines()
    assert "space=ofa" in lines
    assert "placements=180" in lines
    assert "architectures=21758655492572485851" in lines


def test_spaces_count_with_resolutions(capsys):
    rc, out, _ = _run(capsys, "spaces", "count", "--space", "ofa",
                      "--include-resolutions")
    assert rc == 0
    assert "architectures_including_resolutions=65275966477717457553" in out.splitlines()


def test_spaces_count_accepts_config_path(capsys, mini_file):
    rc, out, _ = _run(capsys, "spaces", "count", "--space", mini_file)
    assert rc == 0
    assert "placements=12" in out.splitlines()
    assert "architectures=144" in out.splitlines()


def test_spaces_list(capsys):
    rc, out, _ = _run(capsys, "spaces", "list")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("ofa\t") and "placements=180" in lines[0]
    assert lines[1].startswith("proxylessnas\t")
    assert lines[2].startswith("resnet50\t") and "placements=162" in lines[2]


def test_profile_blocks_outputs(capsys, tmp_path, mini_file):
    out_dir = tmp_path / "run1"
    rc, out, _ = _run(capsys, "profile", "blocks", "--space", mini_file,
                      "--metric", "synthetic-acc", "--samples", "20",
                      "--out", str(out_dir))
    assert rc == 0
    csv_path, manifest_path = out.splitlines()
    text = (out_dir / "blocks-mini-synthetic-acc.csv").read_text()
    assert csv_path.endswith("blocks-mini-synthetic-acc.csv")
    assert "# metric=synthetic-acc" in text
    assert "block_code,expansion,kernel,resolution,mean,stderr,n" in text
    assert text.count("\n") == 7 + 1 + 3  # headers, column row, one row per code

    manifest = json.loads((out_dir / "profile-blocks-manifest.json").read_text())
    assert manifest_path.endswith("profile-blocks-manifest.json")
    assert manifest["seed"] == 0
    assert manifest["outputs"]["blocks-mini-synthetic-acc.csv"] == file_sha256(
        out_dir / "blocks-mini-synthetic-acc.csv")
    assert manifest["evaluators"][0]["name"] == "synthetic-acc"

    # same inputs give byte-identical data files in a fresh directory
    out_dir2 = tmp_path / "run2"
    rc, _, _ = _run(capsys, "profile", "blocks", "--space", mini_file,
                    "--metric", "synthetic-acc", "--samples", "20",
                    "--out", str(out_dir2))
    assert rc == 0
    assert (out_dir2 / "blocks-mini-synthetic-acc.csv").read_bytes() == \
        (out_dir / "blocks-mini-synthetic-acc.csv").read_bytes()


def test_profile_placements_outputs(capsys, tmp_path, mini_file):
    out_dir = tmp_path / "sweep"
    rc, out, _ = _run(capsys, "profile", "placements", "--space", mini_file,
                      "--metric", "macs", "--samples", "15",
                      "--baseline-samples", "30", "--percentiles", "5,50,95",
                      "--plot-data", "--out", str(out_dir))
    assert rc == 0
    paths = out.splitlines()
    assert len(paths) == 4  # csv, boundaries, dat, manifest
    text = (out_dir / "placements-mini-macs.csv").read_text()
    assert "# statistics=relative" in text
    assert "unit,layer,block_code,mean_rel,p5_rel,p50_rel,p95_rel," \
        "baseline_mean,baseline_p5,baseline_p50,baseline_p95" in text
    assert text.count("\n") == 8 + 1 + 12

    boundaries = json.loads((out_dir / "placements-mini-macs-boundaries.json").read_text())
    assert boundaries["rows"] == 12
    assert boundaries["unit_boundaries"] == [0, 6]
    assert boundaries["layer_boundaries"] == [0, 3, 6, 9]

    dat = (out_dir / "placements-mini-macs.dat").read_text().splitlines()
    assert dat[1].startswith("# columns: index unit layer block_code mean_rel")
    assert len(dat) == 2 + 12


def test_profile_placements_raw_statistics(capsys, tmp_path, mini_file):
    out_dir = tmp_path / "raw"
    rc, out, _ = _run(capsys, "profile", "placements", "--space", mini_file,
                      "--metric", "macs", "--samples", "10", "--raw",
                      "--out", str(out_dir))
    assert rc == 0
    text = (out_dir / "placements-mini-macs.csv").read_text()
    assert "# statistics=raw" in text
    assert "unit,layer,block_code,mean,p5,p95,baseline_mean" in text


def test_reduce_prints_counts(capsys, tmp_path):
    rc, out, _ = _run(capsys, "reduce", "--space", "ofa", "--preset", "ofa-npu",
                      "--out", str(tmp_path))
    assert rc == 0
    lines = out.splitlines()
    assert "reduced_space=ofa:ofa-npu" in lines
    assert "placements=180 -> 120" in lines
    assert "architectures=21758655492572485851 -> 8889038387923968" in lines


def test_reduce_emit_round_trips(capsys, tmp_path):
    emit = tmp_path / "npu.json"
    rc, out, _ = _run(capsys, "reduce", "--space", "ofa", "--preset", "ofa-npu",
                      "--emit", str(emit), "--out", str(tmp_path))
    assert rc == 0
    assert str(emit) in out.splitlines()
    reduced = load_space(str(emit))
    assert reduced.name == "ofa:ofa-npu"
    assert count_architectures(reduced) == 8_889_038_387_923_968


def test_reduce_emit_default_writes_manifest(capsys, tmp_path):
    out_dir = tmp_path / "red"
    rc, out, _ = _run(capsys, "reduce", "--space", "ofa", "--preset", "ofa-gpu",
                      "--emit-default", "--out", str(out_dir))
    assert rc == 0
    emitted = out_dir / "reduced-ofa-ofa-gpu.json"
    assert str(emitted) in out.splitlines()
    manifest = json.loads((out_dir / "reduce-manifest.json").read_text())
    assert manifest["extra"]["ruleset"] == "ofa-gpu"
    assert "reduced-ofa-ofa-gpu.json" in manifest["outputs"]


def test_reduce_accepts_rules_file(capsys, tmp_path, mini_file):
    rules = tmp_path / "rules.json"
    save_ruleset(RuleSet(name="slim", space="mini", rules=(
        ReductionRule(kind="remove_block", units=None, blocks=("MBConv6-3",)),)), rules)
    rc, out, _ = _run(capsys, "reduce", "--space", mini_file, "--rules", str(rules),
                      "--out", str(tmp_path))
    assert rc == 0
    assert "architectures=144 -> 36" in out.splitlines()


def test_search_pareto_run(capsys, tmp_path, mini_file):
    out_dir = tmp_path / "pareto"
    rc, out, _ = _run(capsys, "search", "pareto", "--space", mini_file,
                      "--objectives", "synthetic-acc:max,macs:min",
                      "--population", "10", "--generations", "3",
                      "--children", "15", "--seed", "5", "--out", str(out_dir))
    assert rc == 0
    summary = out.splitlines()[0]
    assert summary.startswith("seed=5 evaluations=55 frontier_size=")
    assert "best_synthetic-acc=" in summary and "best_macs=" in summary

    front = read_frontier_csv(out_dir / "pareto-mini-s5.csv")
    assert front.objectives == (("synthetic-acc", "maximize"), ("macs", "minimize"))
    space = load_space(mini_file)
    for p in front.points:
        validate_architecture(space, p.arch)

    doc = json.loads((out_dir / "pareto-mini-s5.json").read_text())
    assert len(doc["architectures"]) == len(front.points)
    history = json.loads((out_dir / "pareto-mini-s5-history.json").read_text())
    assert len(history["history"]) == 4
    assert history["total_evaluations"] == 55
    manifest = json.loads((out_dir / "search-pareto-manifest.json").read_text())
    assert manifest["extra"]["budget_per_run"] == 55

    # same seed, fresh directory: identical frontier bytes
    out_dir2 = tmp_path / "pareto2"
    _run(capsys, "search", "pareto", "--space", mini_file,
         "--objectives", "synthetic-acc:max,macs:min",
         "--population", "10", "--generations", "3",
         "--children", "15", "--seed", "5", "--out", str(out_dir2))
    assert (out_dir2 / "pareto-mini-s5.csv").read_bytes() == \
        (out_dir / "pareto-mini-s5.csv").read_bytes()


def test_search_max_run(capsys, tmp_path, mini_file):
    out_dir = tmp_path / "max"
    rc, out, _ = _run(capsys, "search", "max", "--space", mini_file,
                      "--population", "6", "--generations", "2", "--children", "8",
                      "--repeats", "2", "--seed", "3", "--out", str(out_dir))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("seed=3 evaluations=22 best=")
    tail = [l for l in lines if l.startswith("repeats=")][0]
    assert tail.startswith("repeats=2 mean_best=")

    best_values = []
    space = load_space(mini_file)
    for seed in (3, 4):
        record = json.loads((out_dir / f"max-mini-s{seed}.json").read_text())
        best_values.append(record["metrics"]["synthetic-acc"])
        deserialize(space, record)
        history = json.loads((out_dir / f"max-mini-s{seed}-history.json").read_text())
        assert len(history["history"]) == 3
    mean = sum(best_values) / 2
    assert f"mean_best={mean!r}" in tail


def test_search_compare_self_ties(capsys, tmp_path, mini_file):
    out_dir = tmp_path / "cmp"
    _run(capsys, "search", "pareto", "--space", mini_file,
         "--objectives", "synthetic-acc:max,macs:min",
         "--population", "8", "--generations", "2", "--children", "10",
         "--repeats", "2", "--seed", "0", "--out", str(out_dir))
    a = out_dir / "pareto-mini-s0.csv"
    b = out_dir / "pareto-mini-s1.csv"
    rc, out, _ = _run(capsys, "search", "compare", str(a), str(a),
                      "--out", str(out_dir))
    assert rc == 0
    assert "frac_tie=1.0" in out.splitlines()
    rc, out, _ = _run(capsys, "search", "compare", str(a), str(b),
                      "--grid-points", "10", "--out", str(out_dir))
    assert rc == 0
    text = (out_dir / "compare.csv").read_text()
    assert text.startswith("# format_version=1\n# budget_axis=macs\n")
    assert len(text.splitlines()) == 6 + 1 + 10


def test_search_preset_and_weights(capsys, tmp_path):
    out_dir = tmp_path / "npu"
    rc, out, _ = _run(capsys, "search", "pareto", "--space", "ofa",
                      "--preset", "ofa-npu",
                      "--objectives", "synthetic-acc:max,macs:min",
                      "--population", "6", "--generations", "2", "--children", "8",
                      "--out", str(out_dir))
    assert rc == 0
    assert (out_dir / "pareto-ofa-ofa-npu-s0.csv").exists()
    rc, _, _ = _run(capsys, "search", "pareto", "--space", "ofa",
                    "--unit-weights", "uniform",
                    "--objectives", "synthetic-acc:max,macs:min",
                    "--population", "6", "--generations", "1", "--children", "4",
                    "--out", str(out_dir))
    assert rc == 0


def test_metric_profile_path_and_alias(capsys, tmp_path, mini_file):
    saved = tmp_path / "device.json"
    save_profile(load_profile("npu-like"), saved)
    out_dir = tmp_path / "lat"
    rc, _, _ = _run(capsys, "profile", "blocks", "--space", mini_file,
                    "--metric", f"profile:{saved}", "--samples", "5",
                    "--out", str(out_dir))
    assert rc == 0
    from_file = (out_dir / "blocks-mini-npu-like.csv").read_text()
    rc, _, _ = _run(capsys, "profile", "blocks", "--space", mini_file,
                    "--metric", "npu", "--samples", "5", "--out", str(out_dir))
    assert rc == 0
    assert (out_dir / "blocks-mini-npu-like.csv").read_text() == from_file


def test_out_dir_env_fallback(capsys, tmp_path, monkeypatch, mini_file):
    target = tmp_path / "from-env"
    monkeypatch.setenv("ARCHSCOPE_OUT", str(target))
    rc, _, _ = _run(capsys, "profile", "blocks", "--space", mini_file,
                    "--metric", "macs", "--samples", "5")
    assert rc == 0
    assert (target / "blocks-mini-macs.csv").exists()


def test_domain_errors_exit_2(capsys, tmp_path, mini_file):
    rc, _, err = _run(capsys, "spaces", "count", "--space", "atomnet")
    assert rc == 2 and err.startswith("error:")
    rc, _, err = _run(capsys, "profile", "blocks", "--space", mini_file,
                      "--metric", "qps", "--out", str(tmp_path))
    assert rc == 2 and "qps" in err
    rc, _, err = _run(capsys, "search", "pareto", "--space", mini_file,
                      "--objectives", "macs:min", "--out", str(tmp_path))
    assert rc == 2 and "two objectives" in err
    rc, _, err = _run(capsys, "search", "max", "--space", mini_file,
                      "--objectives", "synthetic-acc:max,macs:min",
                      "--out", str(tmp_path))
    assert rc == 2 and "exactly one" in err
    rc, _, err = _run(capsys, "profile", "placements", "--space", mini_file,
                      "--metric", "macs", "--percentiles", "5,banana",
                      "--out", str(tmp_path))
    assert rc == 2 and "--percentiles" in err
    rc, _, err = _run(capsys, "search", "pareto", "--space", mini_file,
                      "--objectives", "synthetic-acc:max,macs:min",
                      "--unit-weights", "1,2,3",
                      "--population", "4", "--generations", "1", "--children", "2",
                      "--out", str(tmp_path))
    assert rc == 2 and "unit_weights" in err


def _bottleneck_config(path, blocks, ratios):
    path.write_text(json.dumps({
        "name": "bn", "family": "resnet_bottleneck", "resolutions": [32],
        "units": [{"depth_min": 1, "depth_max": 2, "base_channels": 8,
                   "channel_ratios": ratios, "blocks": blocks}],
    }))
    return str(path)


def test_bottleneck_block_ratio_errors_exit_2(capsys, tmp_path):
    free = {"code": "A", "kernel": 3, "expansion": 0.25}
    bound = {"code": "B", "kernel": 3, "expansion": 0.25, "channel_ratio": 0.5}
    # a ratio-free block beside a ratio-bound one has no place on the capacity axis
    mixed = _bottleneck_config(tmp_path / "mixed.json", [free, bound], [0.5])
    rc, _, err = _run(capsys, "profile", "blocks", "--space", mixed, "--metric", "acc",
                      "--samples", "2", "--out", str(tmp_path / "o1"))
    assert rc == 2 and err.startswith("error: unit 1 block 'A': no channel_ratio")
    rc, _, err = _run(capsys, "profile", "blocks", "--space", mixed, "--metric", "macs",
                      "--samples", "2", "--out", str(tmp_path / "o2"))
    assert rc == 0, err
    # a block bound to a ratio the unit does not list is rejected at load
    outside = _bottleneck_config(tmp_path / "outside.json",
                                 [dict(bound, code="C", channel_ratio=1.0), bound], [1.0])
    rc, _, err = _run(capsys, "profile", "placements", "--space", outside, "--metric", "macs",
                      "--samples", "2", "--baseline-samples", "4",
                      "--out", str(tmp_path / "o3"))
    assert rc == 2 and err.startswith("error: units[0].blocks[1].channel_ratio: 0.5")


def test_non_numeric_profile_and_table_fields_exit_2(capsys, tmp_path, mini_file):
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({
        "name": "p", "families": ["mbconv_v2"], "kernel_factor": {"3": 1.0, "5": 1.0},
        "expansion_factor": {"3": 1.0, "6": 1.0}, "layer_cost_ms": "fast",
    }))
    rc, _, err = _run(capsys, "profile", "blocks", "--space", mini_file,
                      "--metric", f"profile:{profile}", "--out", str(tmp_path))
    assert rc == 2 and err.startswith("error:") and "layer_cost_ms" in err
    table = tmp_path / "t.csv"
    table.write_text("# space=mini\n# metric=m\n# direction=minimize\n# kind=additive\n"
                     "unit,layer,block_code,value\nx,1,MBConv3-3,0.5\n")
    rc, _, err = _run(capsys, "profile", "blocks", "--space", mini_file,
                      "--metric", f"table:{table}", "--out", str(tmp_path))
    assert rc == 2 and err.startswith("error:") and "row" in err and "'x'" in err


@pytest.mark.parametrize("argv, env, named", [
    (("search", "max", "--repeats", "0"), {}, "--repeats"),
    (("search", "pareto", "--repeats", "-1"), {}, "--repeats"),
    (("profile", "blocks", "--metric", "macs", "--workers", "0"), {}, "--workers"),
    (("profile", "blocks", "--metric", "macs"), {"ARCHSCOPE_WORKERS": "abc"}, "--workers"),
    (("profile", "placements", "--metric", "macs", "--percentiles", "5,150"), {},
     "--percentiles"),
    # ranks that would write the same column; the error names the label
    (("profile", "placements", "--metric", "macs", "--percentiles", "5,5.0"), {},
     "--percentiles: ranks 5.0 and 5.0 both make column 'p5'"),
    (("profile", "placements", "--metric", "macs", "--percentiles", "33.333331,33.333332"), {},
     "column 'p33_3333'"),
    (("profile", "placements", "--metric", "macs", "--seed", "-1"), {}, "--seed"),
    (("profile", "blocks", "--metric", "macs", "--seed", "-1"), {}, "--seed"),
    (("search", "pareto", "--seed", "-1"), {}, "--seed"),
], ids=["max-repeats-0", "pareto-repeats-negative", "workers-0", "workers-env",
        "percentile-150", "percentile-repeated", "percentile-same-label",
        "placements-seed-negative", "blocks-seed-negative", "pareto-seed-negative"])
def test_bad_input_exits_2_before_sampling(capsys, monkeypatch, tmp_path, mini_file,
                                           argv, env, named):
    def never(*args, **kwargs):
        raise AssertionError("sampling started")
    for name in ("block_heatmap", "placement_sweep", "evolve"):
        monkeypatch.setattr(cli, name, never)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out_dir = tmp_path / "out"
    try:
        rc = cli.main([*argv, "--space", mini_file, "--out", str(out_dir)])
    except SystemExit as exc:  # argparse rejects the value
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err and named in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_internal_errors_exit_1(capsys, monkeypatch):
    def explode(name):
        raise RuntimeError("disk on fire")
    monkeypatch.setattr(cli, "load_space", explode)
    rc, _, err = _run(capsys, "spaces", "count", "--space", "ofa")
    assert rc == 1
    assert err.startswith("internal error: RuntimeError")
