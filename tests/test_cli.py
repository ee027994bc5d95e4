import json

import pytest

from archscope import cli
from archscope.exports import read_frontier_csv, write_frontier_csv
from archscope.manifest import file_sha256
from archscope.reduction import ReductionRule, RuleSet, save_ruleset
from archscope.sampling import Stream, sample_uniform
from archscope.search import EvaluatedArch, ParetoFront
from archscope.spaces import (
    count_architectures,
    deserialize,
    load_space,
    save_space,
    space_to_config,
    validate_architecture,
)
from archscope.devices import load_profile, save_profile
from archscope.errors import ValidationError

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


@pytest.mark.parametrize("argv, metric", [
    (("search", "pareto", "--objectives", "synthetic-acc:up,macs:min"), "synthetic-acc:up"),
    (("search", "max", "--objectives", "acc:highest"), "acc:highest"),
    (("profile", "blocks", "--metric", "npu:fast"), "npu:fast"),
])
def test_bad_direction_suffix_exits_2_naming_it(capsys, tmp_path, argv, metric):
    rc, _, err = _run(capsys, *argv, "--space", "ofa", "--out", str(tmp_path / "out"))
    direction = metric.rpartition(":")[2]
    assert rc == 2
    assert err.startswith(f"error: metric {metric!r}: unknown direction {direction!r}")
    assert ":max, :maximize, :min, :minimize" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, objectives", [
    ("pareto", "macs:min,params:min"), ("max", "macs:min")])
def test_mutation_bounds_beyond_63_bits_exit_2_naming_them(capsys, tmp_path, command,
                                                           objectives):
    # positions 1..43 alone have a least common multiple above 2**63
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "name": "deep", "family": "mbconv_v2", "resolutions": [32],
        "units": [{"depth_min": 1, "depth_max": 43, "base_channels": 8,
                   "blocks": [{"code": "A", "kernel": 3, "expansion": 3},
                              {"code": "B", "kernel": 5, "expansion": 3}]}],
    }))
    rc, _, err = _run(capsys, "search", command, "--space", str(path),
                      "--objectives", objectives, "--population", "4",
                      "--generations", "1", "--children", "2", "--out", str(tmp_path / "out"))
    bounds = ", ".join(str(b) for b in range(1, 44))
    assert rc == 2
    assert err.startswith(f"error: space 'deep': the mutation bounds [{bounds}] have a least "
                          "common multiple of 9419588158802421600, which does not fit in 63 bits")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [("profile", "blocks"), ("profile", "placements")])
def test_sampling_bounds_beyond_63_bits_exit_2_naming_them(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "name": "deep", "family": "mbconv_v2", "resolutions": [32],
        "units": [{"depth_min": 1, "depth_max": 43, "base_channels": 8,
                   "blocks": [{"code": "A", "kernel": 3, "expansion": 3}]}],
    }))
    rc, _, err = _run(capsys, *command, "--space", str(path), "--metric", "macs",
                      "--samples", "2", "--out", str(tmp_path / "out"))
    bounds = ", ".join(str(b) for b in range(1, 44))
    assert rc == 2
    assert err.startswith(f"error: space 'deep': the sampling bounds [{bounds}] have a least "
                          "common multiple of 9419588158802421600, which does not fit in 63 bits")
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("field, named", [
    ({"fixed_overhead_ms": float("inf")}, "fixed_overhead_ms"),
    ({"kernel_factor": {"3": 1.0, "5": 1.0, "7": 1e400}}, "kernel_factor[7]"),
])
def test_non_finite_profile_fields_exit_2_naming_the_field(capsys, tmp_path, field, named):
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({
        "name": "x", "families": ["mbconv_v3"], "kernel_factor": {"3": 1.0, "5": 1.0, "7": 1.0},
        "expansion_factor": {"3": 1.0, "4": 1.0, "6": 1.0}, **field,
    }))
    rc, _, err = _run(capsys, "profile", "blocks", "--space", "ofa", "--samples", "5",
                      "--metric", f"profile:{profile}", "--out", str(tmp_path))
    assert rc == 2
    assert err.startswith(f"error: profile 'x': {named} must be finite, got inf")


@pytest.mark.parametrize("field, named, problem", [
    ({"layer_cost_ms": -1.0}, "layer_cost_ms", "must be positive, got -1.0"),
    ({"layer_cost_ms": {"1": 0.5, "2": [1.0, 0.0]}}, "layer_cost_ms[2]", "must be positive, got 0.0"),
    ({"fixed_overhead_ms": -5}, "fixed_overhead_ms", "must not be negative, got -5.0"),
    ({"pad_cost_ms": -0.1}, "pad_cost_ms", "must not be negative, got -0.1"),
])
def test_negative_profile_costs_exit_2_naming_the_field(capsys, tmp_path, field, named, problem):
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({
        "name": "x", "families": ["mbconv_v3"], "kernel_factor": {"3": 1.0, "5": 1.0, "7": 1.0},
        "expansion_factor": {"3": 1.0, "4": 1.0, "6": 1.0}, **field,
    }))
    rc, out, err = _run(capsys, "profile", "blocks", "--space", "ofa", "--samples", "5",
                        "--metric", f"profile:{profile}", "--out", str(tmp_path / "out"))
    assert rc == 2 and out == ""
    assert err.startswith(f"error: profile 'x': {named} {problem}")
    assert not (tmp_path / "out").exists()


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
    (("reduce", "--preset", "ofa-npu", "--emit", "reduced.json", "--emit-default"), {},
     "argument --emit-default: not allowed with argument --emit"),
], ids=["max-repeats-0", "pareto-repeats-negative", "workers-0", "workers-env",
        "percentile-150", "percentile-repeated", "percentile-same-label",
        "placements-seed-negative", "blocks-seed-negative", "pareto-seed-negative",
        "reduce-emit-and-emit-default"])
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


def _fail_second_search(monkeypatch):
    real, calls = cli.evolve, []

    def evolve(space, config):
        calls.append(config.seed)
        if len(calls) == 2:
            raise ValidationError(f"search seed {config.seed} failed")
        return real(space, config)
    monkeypatch.setattr(cli, "evolve", evolve)


@pytest.mark.parametrize("argv, named", [
    (("profile", "blocks", "--space", "{mini}", "--metric", "macs", "--samples", "0"),
     "sample size must be >= 1, got 0"),
    (("profile", "placements", "--space", "{mini}", "--metric", "macs",
      "--baseline-samples", "0"), "sample size must be >= 1, got 0"),
    (("search", "pareto", "--space", "{mini}", "--repeats", "2", "--population", "4",
      "--generations", "1", "--children", "2"), "search seed 1 failed"),
    (("reduce", "--space", "ofa", "--preset", "ofa-npu", "--emit", "{file}/npu.json"),
     "--emit {file}/npu.json: "),
    (("profile", "blocks", "--space", "{mini}", "--metric", "macs", "--samples", "2",
      "--out", "{file}/out"), "--out {file}/out: "),
], ids=["blocks-samples-0", "placements-baseline-0", "pareto-second-repeat",
        "reduce-emit-below-a-file", "out-below-a-file"])
def test_failed_run_exits_2_and_writes_nothing(capsys, monkeypatch, tmp_path, mini_file,
                                               argv, named):
    # nothing is written until the work succeeds: not --out, nor its env default
    regular = tmp_path / "file"
    regular.write_text("")
    monkeypatch.setenv("ARCHSCOPE_OUT", str(tmp_path / "out"))
    _fail_second_search(monkeypatch)
    rc, out, err = _run(capsys, *(a.format(mini=mini_file, file=regular) for a in argv))
    assert rc == 2 and out == ""
    assert err.startswith("error: " + named.format(file=regular))
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "mini.json"]


def test_reduce_emit_makes_no_out_dir(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("ARCHSCOPE_OUT", str(tmp_path / "out"))
    emit = tmp_path / "reduced" / "npu.json"
    rc, out, _ = _run(capsys, "reduce", "--space", "ofa", "--preset", "ofa-npu",
                      "--emit", str(emit))
    assert rc == 0 and out.splitlines()[-1] == str(emit)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reduced"]


@pytest.fixture
def bad_inputs(tmp_path):
    """Input files each broken in one way, by name: unreadable files, space
    configs, rule sets and device profiles with one field of the wrong type,
    and frontier CSVs with one bad cell."""
    paths = {"dir": tmp_path / "dir", "missing": tmp_path / "missing.csv",
             "latin1": tmp_path / "latin1.json"}
    paths["dir"].mkdir()
    paths["latin1"].write_bytes('{"name": "ré"}'.encode("latin-1"))

    def write(name, config):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(config))

    def space(name, base, change):
        config = space_to_config(load_space(base))
        change(config)
        write(name, config)

    def profile(name, change):
        config = load_profile("npu-like").config()
        change(config)
        write(name, config)

    space("resolution-str", "ofa", lambda c: c.update(resolutions=["a"]))
    space("resolution-null", "ofa", lambda c: c.update(resolutions=[None]))
    space("stem-kernel", "ofa", lambda c: c["stem"].update(kernel="x"))
    space("stem-list", "ofa", lambda c: c.update(stem=[1]))
    space("head-classes", "ofa", lambda c: c["head"].update(classes="many"))
    space("unit-ratios", "resnet50", lambda c: c["units"][0].update(channel_ratios=["x"]))
    space("block-ratio", "resnet50",
          lambda c: c["units"][0]["blocks"][0].update(channel_ratio="x"))
    space("base-true", "ofa", lambda c: c["units"][0].update(base_channels=True))
    space("unit-misspelt", "ofa",
          lambda c: c["units"][0].update(base_chanels=c["units"][0].pop("base_channels")))
    profile("profile-template", lambda c: c.update(resolution_templates=[224.7]))
    profile("profile-factor", lambda c: c["kernel_factor"].update({"3": True}))
    profile("profile-name", lambda c: c.update(name=["x"]))
    profile("profile-name-space", lambda c: c.update(name=" npu "))
    profile("profile-misspelt", lambda c: c.update(pad_cost=c.pop("pad_cost_ms")))
    for name, change in {
        "rule-units": {"rules": [{"kind": "cap_depth", "units": ["x"], "depth": 3}]},
        "rule-resolutions": {"rules": [{"kind": "restrict_resolutions",
                                        "resolutions": ["x"]}]},
        "advisory-weights": {"advisory": {"unit_weights": ["x", 1, 1, 1, 1]}},
        "rule-space": {"space": 5},
        "rule-blocks": {"rules": [{"kind": "remove_block", "blocks": [7]}]},
        "rule-misspelt": {"rules": [{"kind": "cap_depth", "unit": [2], "depth": 3}]},
    }.items():
        rules = {"name": "bad", "space": "ofa",
                 "rules": [{"kind": "cap_depth", "units": [1], "depth": 3}], **change}
        write(name, rules)
    rows = {}  # each broken frontier row as the error quotes it
    front = ParetoFront(objectives=(("synthetic-acc", "maximize"), ("macs", "minimize")),
                        points=[EvaluatedArch(arch=sample_uniform(load_space("ofa"), Stream(0)),
                                              metrics=(0.75, 3.0e8), eval_id=0, generation=0)])
    for name, (column, cell) in {"frontier-depths": (6, "2|x"), "frontier-metric": (9, "fast"),
                                 "frontier-nan": (9, "nan")}.items():
        paths[name] = tmp_path / f"{name}.csv"
        write_frontier_csv(front, paths[name])
        *header, row = paths[name].read_text().splitlines()
        cells = row.split(",")
        cells[column] = cell
        paths[name].write_text("\n".join([*header, ",".join(cells)]) + "\n")
        rows[f"{name}-row"] = repr(cells)
    paths["frontier-columns"] = tmp_path / "frontier-columns.csv"
    write_frontier_csv(front, paths["frontier-columns"])
    text = paths["frontier-columns"].read_text()
    paths["frontier-columns"].write_text(text.replace(",synthetic-acc,macs\n", ",latency,params\n"))
    return {**{name: str(path) for name, path in paths.items()}, **rows}


@pytest.mark.parametrize("argv, named", [
    (("spaces", "count", "--space", "{dir}"), "{dir}: cannot read"),
    (("spaces", "count", "--space", "{latin1}"), "{latin1}: not utf-8 text"),
    (("profile", "blocks", "--space", "ofa", "--metric", "table:{dir}"), "{dir}: cannot read"),
    (("profile", "blocks", "--space", "ofa", "--metric", "profile:{dir}"),
     "{dir}: cannot read"),
    (("search", "compare", "{missing}", "{missing}"), "{missing}: cannot read"),
    (("search", "compare", "{dir}", "{dir}"), "{dir}: cannot read"),
    (("spaces", "count", "--space", "{resolution-str}"),
     "space.resolutions[0]: expected int, got 'a'"),
    (("spaces", "count", "--space", "{resolution-null}"),
     "space.resolutions[0]: expected int, got None"),
    (("spaces", "count", "--space", "{stem-kernel}"), "space.stem.kernel: expected int, got 'x'"),
    (("spaces", "count", "--space", "{stem-list}"), "space.stem: expected dict, got [1]"),
    (("spaces", "count", "--space", "{head-classes}"),
     "space.head.classes: expected int, got 'many'"),
    (("spaces", "count", "--space", "{unit-ratios}"),
     "units[0].channel_ratios[0]: expected a number, got 'x'"),
    (("profile", "blocks", "--space", "{block-ratio}", "--metric", "macs"),
     "units[0].blocks[0].channel_ratio: expected a number, got 'x'"),
    (("reduce", "--space", "ofa", "--rules", "{rule-units}"),
     "rules[0].units[0]: expected int, got 'x'"),
    (("reduce", "--space", "ofa", "--rules", "{rule-resolutions}"),
     "rules[0].resolutions[0]: expected int, got 'x'"),
    (("search", "max", "--space", "ofa", "--preset", "{advisory-weights}"),
     "advisory.unit_weights[0]: expected a number, got 'x'"),
    (("search", "compare", "{frontier-depths}", "{frontier-depths}"),
     "{frontier-depths}: row {frontier-depths-row}: expected an integer, got 'x'"),
    (("search", "compare", "{frontier-metric}", "{frontier-metric}"),
     "{frontier-metric}: row {frontier-metric-row}: expected a finite number, got 'fast'"),
    (("search", "compare", "{frontier-nan}", "{frontier-nan}"),
     "{frontier-nan}: row {frontier-nan-row}: expected a finite number, got 'nan'"),
    (("profile", "blocks", "--space", "ofa", "--metric", "profile:{profile-template}",
      "--samples", "2"), "profile.resolution_templates[0]: expected int, got 224.7"),
    (("profile", "blocks", "--space", "ofa", "--metric", "profile:{profile-factor}",
      "--samples", "2"), "profile.kernel_factor.3: expected a number, got True"),
    (("profile", "blocks", "--space", "ofa", "--metric", "profile:{profile-name}",
      "--samples", "2"), "profile.name: expected str, got ['x']"),
    (("search", "pareto", "--space", "ofa", "--objectives", "macs,profile:{profile-name-space}"),
     "profile.name: ' npu ' has leading or trailing whitespace"),
    (("profile", "blocks", "--space", "{base-true}", "--metric", "macs", "--samples", "2"),
     "units[0].base_channels: expected int, got True"),
    (("reduce", "--space", "ofa", "--rules", "{rule-space}"),
     "ruleset.space: expected str, got 5"),
    (("reduce", "--space", "ofa", "--rules", "{rule-blocks}"),
     "rules[0].blocks[0]: expected str, got 7"),
    (("spaces", "count", "--space", "{unit-misspelt}"), "units[0].base_chanels: unknown field"),
    (("profile", "blocks", "--space", "ofa", "--metric", "profile:{profile-misspelt}",
      "--samples", "2"), "profile.pad_cost: unknown field"),
    (("reduce", "--space", "ofa", "--rules", "{rule-misspelt}"), "rules[0].unit: unknown field"),
    (("search", "compare", "{frontier-columns}", "{frontier-columns}"),
     "{frontier-columns}: frontier columns"),
], ids=["space-dir", "space-not-utf8", "table-dir", "profile-dir", "compare-missing",
        "compare-dir", "resolution-str", "resolution-null", "stem-kernel", "stem-list",
        "head-classes", "unit-ratios", "block-ratio", "rule-units", "rule-resolutions",
        "advisory-weights", "frontier-depths", "frontier-metric", "frontier-nan",
        "profile-template", "profile-factor", "profile-name", "profile-name-space",
        "base-channels-true",
        "rule-space", "rule-blocks", "unit-misspelt", "profile-misspelt", "rule-misspelt",
        "frontier-columns"])
def test_bad_input_files_exit_2_naming_the_path_or_field(capsys, tmp_path, bad_inputs,
                                                         argv, named):
    out_dir = tmp_path / "out"
    rc, out, err = _run(capsys, *(a.format_map(bad_inputs) for a in argv),
                        "--out", str(out_dir))
    assert rc == 2 and out == ""
    assert err.startswith("error: " + named.format_map(bad_inputs))
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_frontier_csv_round_trips_metric_names_with_colons(tmp_path):
    # a profile's name is free text, so an objective header can read "npu:v2:minimize"
    front = ParetoFront(objectives=(("npu:v2", "minimize"), ("synthetic-acc", "maximize")),
                        points=[EvaluatedArch(arch=sample_uniform(load_space("ofa"), Stream(1)),
                                              metrics=(1.25, 0.75), eval_id=3, generation=1)])
    write_frontier_csv(front, tmp_path / "front.csv")
    assert read_frontier_csv(tmp_path / "front.csv") == front


def test_internal_errors_exit_1(capsys, monkeypatch):
    def explode(name):
        raise RuntimeError("disk on fire")
    monkeypatch.setattr(cli, "load_space", explode)
    rc, _, err = _run(capsys, "spaces", "count", "--space", "ofa")
    assert rc == 1
    assert err.startswith("internal error: RuntimeError")
