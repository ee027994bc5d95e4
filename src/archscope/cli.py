"""Command-line interface.

Subcommands: spaces (list/count), profile (blocks/placements), reduce,
search (pareto/max/compare). Every run honors --seed and writes byte-identical
data files on repeat; wall-clock timestamps appear only in the run manifest.
stdout carries data and output paths, stderr carries diagnostics. Exit codes:
0 success, 2 usage or domain errors, 1 internal errors.

--workers and --out fall back to the ARCHSCOPE_WORKERS / ARCHSCOPE_OUT
environment variables when the flags are absent. Bad input is rejected with
exit code 2 before any sampling starts.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from pathlib import Path

from . import __version__
from .errors import ArchscopeError, ConfigError
from .evaluators import parse_objectives, resolve_evaluator
from .exports import (
    read_frontier_csv,
    tau_label,
    write_comparison_csv,
    write_frontier_csv,
    write_frontier_json,
    write_heatmap_csv,
    write_search_history,
    write_sweep_boundaries,
    write_sweep_csv,
    write_sweep_dat,
)
from .formats import write_json
from .manifest import RunManifest
from .profiler import (
    DEFAULT_BASELINE_SAMPLES,
    DEFAULT_BLOCK_SAMPLES,
    DEFAULT_SWEEP_SAMPLES,
    DEFAULT_TAUS,
    block_heatmap,
    placement_sweep,
)
from .reduction import apply as apply_ruleset
from .reduction import list_rulesets, load_ruleset
from .search import SearchConfig, compare_frontiers, evolve
from .spaces import (
    count_architectures,
    count_placements,
    list_spaces,
    load_space,
    save_space,
    serialize,
    space_fingerprint,
)

PARETO_DEFAULTS = {"generations": 10, "population": 100, "children": 200}
MAXACC_DEFAULTS = {"generations": 4, "population": 20, "children": 50}


def _safe_name(text: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "-" for c in text)


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    if not values:
        raise ConfigError(f"{flag}: empty list")
    return values


def _int_at_least(low: int):
    """argparse type for integers that must be at least low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")

    return parse


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(args, space=None) -> RunManifest:
    manifest = RunManifest(command=list(args.raw_argv), seed=args.seed)
    if space is not None:
        manifest.space_fingerprint = space_fingerprint(space)
    manifest.start()
    return manifest


def _evaluator_entry(ev) -> dict:
    return {"name": ev.name, "direction": ev.direction, "params": ev.params_digest}


# ---------------------------------------------------------------------------
# commands

def cmd_spaces_list(args) -> int:
    for name in list_spaces():
        space = load_space(name)
        print(
            f"{name}\t{space.family}\tunits={space.n_units}"
            f"\tplacements={count_placements(space)}"
            f"\tarchitectures={count_architectures(space)}"
        )
    return 0


def cmd_spaces_count(args) -> int:
    space = load_space(args.space)
    print(f"space={space.name}")
    print(f"placements={count_placements(space)}")
    print(f"architectures={count_architectures(space)}")
    if args.include_resolutions:
        print(
            "architectures_including_resolutions="
            f"{count_architectures(space, include_resolutions=True)}"
        )
    return 0


def cmd_profile_blocks(args) -> int:
    space = load_space(args.space)
    evaluator = resolve_evaluator(args.metric, space)
    out = _out_dir(args)
    manifest = _manifest(args, space)
    manifest.evaluators.append(_evaluator_entry(evaluator))
    per_resolution = True if args.per_resolution else None
    report = block_heatmap(
        space,
        evaluator,
        n_per_placement=args.samples,
        seed=args.seed,
        per_resolution=per_resolution,
        workers=args.workers,
    )
    stem = f"blocks-{_safe_name(space.name)}-{_safe_name(evaluator.name)}"
    csv_path = out / f"{stem}.csv"
    write_heatmap_csv(report, space, csv_path)
    manifest.add_output(csv_path, out)
    manifest.extra = {"n_per_placement": args.samples, "rows": len(report.rows)}
    manifest_path = out / "profile-blocks-manifest.json"
    manifest.write(manifest_path)
    print(csv_path)
    print(manifest_path)
    return 0


def cmd_profile_placements(args) -> int:
    space = load_space(args.space)
    evaluator = resolve_evaluator(args.metric, space)
    taus = _parse_floats(args.percentiles, "--percentiles")
    columns: dict[str, float] = {}
    for tau in taus:
        if not 0.0 <= tau <= 100.0:
            raise ConfigError(f"--percentiles: rank must be in [0, 100], got {tau:g}")
        label = tau_label(tau)
        if label in columns:
            raise ConfigError(f"--percentiles: ranks {columns[label]!r} and {tau!r} both "
                              f"make column {label!r}")
        columns[label] = tau
    out = _out_dir(args)
    manifest = _manifest(args, space)
    manifest.evaluators.append(_evaluator_entry(evaluator))
    report = placement_sweep(
        space,
        evaluator,
        n_per_placement=args.samples,
        seed=args.seed,
        taus=taus,
        baseline_n=args.baseline_samples,
        workers=args.workers,
    )
    stem = f"placements-{_safe_name(space.name)}-{_safe_name(evaluator.name)}"
    csv_path = out / f"{stem}.csv"
    boundaries_path = out / f"{stem}-boundaries.json"
    write_sweep_csv(report, csv_path, raw=args.raw)
    write_sweep_boundaries(report, boundaries_path)
    manifest.add_output(csv_path, out)
    manifest.add_output(boundaries_path, out)
    paths = [csv_path, boundaries_path]
    if args.plot_data:
        dat_path = out / f"{stem}.dat"
        write_sweep_dat(report, dat_path, raw=args.raw)
        manifest.add_output(dat_path, out)
        paths.append(dat_path)
    manifest.extra = {
        "n_per_placement": args.samples,
        "baseline_n": report.baseline_n,
        "taus": list(taus),
        "rows": len(report.rows),
    }
    manifest_path = out / "profile-placements-manifest.json"
    manifest.write(manifest_path)
    for p in paths:
        print(p)
    print(manifest_path)
    return 0


def cmd_reduce(args) -> int:
    space = load_space(args.space)
    ruleset = load_ruleset(args.preset if args.preset else args.rules)
    reduced = apply_ruleset(space, ruleset)
    print(f"space={space.name}")
    print(f"ruleset={ruleset.name}")
    print(f"reduced_space={reduced.name}")
    print(f"placements={count_placements(space)} -> {count_placements(reduced)}")
    print(f"architectures={count_architectures(space)} -> {count_architectures(reduced)}")
    if args.include_resolutions:
        before = count_architectures(space, include_resolutions=True)
        after = count_architectures(reduced, include_resolutions=True)
        print(f"architectures_including_resolutions={before} -> {after}")
    if args.emit or args.emit_default:
        out = _out_dir(args)
        emit_path = Path(args.emit) if args.emit else out / f"reduced-{_safe_name(reduced.name)}.json"
        emit_path.parent.mkdir(parents=True, exist_ok=True)
        save_space(reduced, emit_path)
        print(emit_path)
        if not args.emit:
            manifest = _manifest(args, space)
            manifest.extra = {"ruleset": ruleset.name}
            manifest.add_output(emit_path, out)
            manifest_path = out / "reduce-manifest.json"
            manifest.write(manifest_path)
            print(manifest_path)
    return 0


def _search_space(args):
    space = load_space(args.space)
    advisory_weights = None
    if args.preset:
        ruleset = load_ruleset(args.preset)
        space = apply_ruleset(space, ruleset)
        weights = ruleset.advisory.get("unit_weights")
        if weights is not None:
            advisory_weights = tuple(float(w) for w in weights)
    return space, advisory_weights


def _unit_weights(args, advisory):
    if args.unit_weights is None:
        return advisory
    if args.unit_weights.strip().lower() == "uniform":
        return None
    return _parse_floats(args.unit_weights, "--unit-weights")


def _run_search(space, args, objectives, seed, unit_weights):
    config = SearchConfig(
        objectives=objectives,
        population=args.population,
        generations=args.generations,
        children=args.children,
        seed=seed,
        unit_weights=unit_weights,
        dedupe=not args.no_dedupe,
        fitness_mode=args.fitness_mode,
    )
    return evolve(space, config)


def cmd_search_pareto(args) -> int:
    space, advisory = _search_space(args)
    objectives = parse_objectives(args.objectives, space)
    if len(objectives) < 2:
        raise ConfigError("search pareto needs at least two objectives")
    unit_weights = _unit_weights(args, advisory)
    out = _out_dir(args)
    manifest = _manifest(args, space)
    for ev in objectives:
        manifest.evaluators.append(_evaluator_entry(ev))
    seeds = [args.seed + i for i in range(args.repeats)]
    for seed in seeds:
        result = _run_search(space, args, objectives, seed, unit_weights)
        stem = f"pareto-{_safe_name(space.name)}-s{seed}"
        csv_path = out / f"{stem}.csv"
        json_path = out / f"{stem}.json"
        history_path = out / f"{stem}-history.json"
        write_frontier_csv(result.frontier, csv_path)
        write_frontier_json(result.frontier, json_path)
        write_search_history(result, history_path)
        for p in (csv_path, json_path, history_path):
            manifest.add_output(p, out)
        names = result.frontier.objectives
        best = {name: None for name, _ in names}
        for (name, direction), value in zip(names, zip(*[p.metrics for p in result.frontier.points])):
            best[name] = max(value) if direction == "maximize" else min(value)
        summary = " ".join(f"best_{name}={best[name]!r}" for name, _ in names)
        print(
            f"seed={seed} evaluations={result.total_evaluations} "
            f"frontier_size={len(result.frontier.points)} {summary}"
        )
        print(csv_path)
        print(json_path)
        print(history_path)
    manifest.extra = {"repeats": args.repeats, "budget_per_run": args.population + args.generations * args.children}
    manifest_path = out / "search-pareto-manifest.json"
    manifest.write(manifest_path)
    print(manifest_path)
    return 0


def cmd_search_max(args) -> int:
    space, advisory = _search_space(args)
    objectives = parse_objectives(args.objectives, space)
    if len(objectives) != 1:
        raise ConfigError("search max needs exactly one objective")
    unit_weights = _unit_weights(args, advisory)
    out = _out_dir(args)
    manifest = _manifest(args, space)
    manifest.evaluators.append(_evaluator_entry(objectives[0]))
    seeds = [args.seed + i for i in range(args.repeats)]
    best_values = []
    for seed in seeds:
        result = _run_search(space, args, objectives, seed, unit_weights)
        best = result.best
        best_values.append(best.metrics[0])
        stem = f"max-{_safe_name(space.name)}-s{seed}"
        best_path = out / f"{stem}.json"
        history_path = out / f"{stem}-history.json"
        record = serialize(best.arch)
        record["metrics"] = {objectives[0].name: best.metrics[0]}
        write_json(record, best_path)
        write_search_history(result, history_path)
        manifest.add_output(best_path, out)
        manifest.add_output(history_path, out)
        print(f"seed={seed} evaluations={result.total_evaluations} best={best.metrics[0]!r}")
        print(best_path)
        print(history_path)
    mean = statistics.fmean(best_values)
    stdev = statistics.stdev(best_values) if len(best_values) > 1 else 0.0
    print(f"repeats={args.repeats} mean_best={mean!r} stdev_best={stdev!r}")
    manifest.extra = {
        "repeats": args.repeats,
        "mean_best": mean,
        "stdev_best": stdev,
        "budget_per_run": args.population + args.generations * args.children,
    }
    manifest_path = out / "search-max-manifest.json"
    manifest.write(manifest_path)
    print(manifest_path)
    return 0


def cmd_search_compare(args) -> int:
    front_a = read_frontier_csv(args.frontier_a)
    front_b = read_frontier_csv(args.frontier_b)
    cmp = compare_frontiers(front_a, front_b, grid_points=args.grid_points)
    print(f"budget_axis={cmp.budget_axis}")
    print(f"quality_axis={cmp.quality_axis}")
    print(f"frac_a={cmp.frac_a!r}")
    print(f"frac_b={cmp.frac_b!r}")
    print(f"frac_tie={cmp.frac_tie!r}")
    out = _out_dir(args)
    csv_path = out / "compare.csv"
    write_comparison_csv(cmp, csv_path)
    manifest = _manifest(args)
    manifest.add_output(csv_path, out)
    manifest.extra = {
        "frontier_a": str(args.frontier_a),
        "frontier_b": str(args.frontier_b),
        "frac_a": cmp.frac_a,
        "frac_b": cmp.frac_b,
    }
    manifest_path = out / "search-compare-manifest.json"
    manifest.write(manifest_path)
    print(csv_path)
    print(manifest_path)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_int_at_least(0), default=0,
                        help="master random seed (default 0)")
    parser.add_argument(
        "--workers",
        type=_int_at_least(1),
        # a string default goes through type, so a bad variable is a usage error
        default=os.environ.get("ARCHSCOPE_WORKERS", "1"),
        help="parallel placement workers (env ARCHSCOPE_WORKERS)",
    )
    parser.add_argument(
        "--out",
        default=os.environ.get("ARCHSCOPE_OUT", "archscope-out"),
        help="output directory (env ARCHSCOPE_OUT)",
    )


def _add_search_common(parser: argparse.ArgumentParser, defaults: dict) -> None:
    _add_common(parser)
    parser.add_argument("--space", required=True, help="space preset name or config path")
    parser.add_argument("--preset", help="reduction preset or rule-set file applied before search")
    parser.add_argument("--generations", type=int, default=defaults["generations"])
    parser.add_argument("--population", type=int, default=defaults["population"])
    parser.add_argument("--children", type=int, default=defaults["children"])
    parser.add_argument("--repeats", type=_int_at_least(1), default=1,
                        help="seeds run: seed..seed+R-1")
    parser.add_argument(
        "--unit-weights",
        help="comma floats biasing mutation unit choice, or 'uniform' to ignore preset advice",
    )
    parser.add_argument("--no-dedupe", action="store_true", help="allow duplicate children")
    parser.add_argument(
        "--fitness-mode",
        choices=("dominance", "rank_sum"),
        default="dominance",
        help="multi-objective ranking rule",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archscope",
        description="Profile, reduce and search mobile network design spaces.",
    )
    parser.add_argument("--version", action="version", version=f"archscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    spaces = sub.add_parser("spaces", help="inspect design spaces")
    spaces_sub = spaces.add_subparsers(dest="subcommand", required=True)
    p = spaces_sub.add_parser("list", help="list space presets")
    p.set_defaults(func=cmd_spaces_list)
    _add_common(p)
    p = spaces_sub.add_parser("count", help="exact architecture and placement counts")
    p.add_argument("--space", required=True, help="space preset name or config path")
    p.add_argument(
        "--include-resolutions",
        action="store_true",
        help="also report the count multiplied by the resolution choices",
    )
    p.set_defaults(func=cmd_spaces_count)
    _add_common(p)

    profile = sub.add_parser("profile", help="Monte Carlo block/placement profiling")
    profile_sub = profile.add_subparsers(dest="subcommand", required=True)
    p = profile_sub.add_parser("blocks", help="average block impact grid")
    p.add_argument("--space", required=True)
    p.add_argument("--metric", required=True, help="metric name, table:PATH or profile:PATH")
    p.add_argument("--samples", type=int, default=DEFAULT_BLOCK_SAMPLES,
                   help=f"samples per placement (default {DEFAULT_BLOCK_SAMPLES})")
    p.add_argument("--per-resolution", action="store_true",
                   help="force one grid per resolution")
    p.set_defaults(func=cmd_profile_blocks)
    _add_common(p)
    p = profile_sub.add_parser("placements", help="per-placement impact sweep")
    p.add_argument("--space", required=True)
    p.add_argument("--metric", required=True, help="metric name, table:PATH or profile:PATH")
    p.add_argument("--samples", type=int, default=DEFAULT_SWEEP_SAMPLES,
                   help=f"samples per placement (default {DEFAULT_SWEEP_SAMPLES})")
    p.add_argument("--baseline-samples", type=int, default=DEFAULT_BASELINE_SAMPLES,
                   help=f"shared baseline sample size (default {DEFAULT_BASELINE_SAMPLES})")
    p.add_argument("--percentiles", default=",".join(f"{t:g}" for t in DEFAULT_TAUS),
                   help="comma-separated percentile ranks (default 5,95)")
    p.add_argument("--raw", action="store_true",
                   help="export conditioned statistics instead of baseline differences")
    p.add_argument("--plot-data", action="store_true",
                   help="also write a space-delimited .dat variant")
    p.set_defaults(func=cmd_profile_placements)
    _add_common(p)

    reduce_p = sub.add_parser("reduce", help="apply a reduction rule set")
    reduce_p.add_argument("--space", required=True)
    group = reduce_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help=f"one of: {', '.join(list_rulesets())}")
    group.add_argument("--rules", help="rule-set JSON file")
    reduce_p.add_argument("--emit", help="write the reduced space config to this path")
    reduce_p.add_argument("--emit-default", action="store_true",
                          help="write the reduced space config under --out")
    reduce_p.add_argument("--include-resolutions", action="store_true")
    reduce_p.set_defaults(func=cmd_reduce)
    _add_common(reduce_p)

    search = sub.add_parser("search", help="evolutionary search")
    search_sub = search.add_subparsers(dest="subcommand", required=True)
    p = search_sub.add_parser("pareto", help="multi-objective frontier search")
    _add_search_common(p, PARETO_DEFAULTS)
    p.add_argument("--objectives", default="synthetic-acc:max,macs:min",
                   help="comma list like 'synthetic-acc:max,npu-like:min'")
    p.set_defaults(func=cmd_search_pareto)
    p = search_sub.add_parser("max", help="single-objective search")
    _add_search_common(p, MAXACC_DEFAULTS)
    p.add_argument("--objectives", "--objective", dest="objectives", default="synthetic-acc",
                   help="single metric name (default synthetic-acc)")
    p.set_defaults(func=cmd_search_max)
    p = search_sub.add_parser("compare", help="budget-sweep two frontier exports")
    p.add_argument("frontier_a", help="frontier CSV from search pareto")
    p.add_argument("frontier_b", help="frontier CSV from search pareto")
    p.add_argument("--grid-points", type=int, default=50)
    p.set_defaults(func=cmd_search_compare)
    _add_common(p)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = ["archscope", *argv]
    try:
        return args.func(args)
    except ArchscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
