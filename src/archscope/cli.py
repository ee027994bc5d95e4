"""Command-line interface.

Subcommands: spaces (list/count), profile (blocks/placements), reduce,
search (pareto/max/compare). Every run honors --seed and writes byte-identical
data files on repeat; wall-clock timestamps appear only in the run manifest.
stdout carries data and output paths, stderr carries diagnostics. Exit codes:
0 success, 2 usage or domain errors, 1 internal errors.

--workers and --out fall back to the ARCHSCOPE_WORKERS / ARCHSCOPE_OUT
environment variables when the flags are absent. Bad input is rejected with
exit code 2 before any sampling starts. Each command does all its work first
and then hands its lines and files to _publish, which alone makes --out, so a
run that fails writes nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
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


def _publish(args, command, items, space=None, evaluators=(), extra=None) -> int:
    """Record a finished command: print each item in order, where an item is a
    stdout line or a (file name, writer) pair whose writer(path) makes the file
    under --out, which is then printed and hashed into COMMAND-manifest.json.
    The manifest is written, and its path printed, last. --out is made here
    and nowhere else, so a command that fails before this call writes nothing."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc.strerror or exc}") from exc
    manifest = args.manifest
    if space is not None:
        manifest.space_fingerprint = space_fingerprint(space)
    manifest.evaluators = [{"name": ev.name, "direction": ev.direction, "params": ev.params_digest}
                           for ev in evaluators]
    manifest.extra = extra or {}
    for item in items:
        if isinstance(item, str):
            print(item)
            continue
        name, writer = item
        path = out / name
        writer(path)
        manifest.add_output(path, out)
        print(path)
    manifest_path = out / f"{command}-manifest.json"
    manifest.write(manifest_path)
    print(manifest_path)
    return 0


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
    report = block_heatmap(
        space,
        evaluator,
        n_per_placement=args.samples,
        seed=args.seed,
        per_resolution=True if args.per_resolution else None,
        workers=args.workers,
    )
    stem = f"blocks-{_safe_name(space.name)}-{_safe_name(evaluator.name)}"
    items = [(f"{stem}.csv", partial(write_heatmap_csv, report, space))]
    return _publish(args, "profile-blocks", items, space, [evaluator],
                    {"n_per_placement": args.samples, "rows": len(report.rows)})


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
    items = [
        (f"{stem}.csv", partial(write_sweep_csv, report, raw=args.raw)),
        (f"{stem}-boundaries.json", partial(write_sweep_boundaries, report)),
    ]
    if args.plot_data:
        items.append((f"{stem}.dat", partial(write_sweep_dat, report, raw=args.raw)))
    return _publish(args, "profile-placements", items, space, [evaluator], {
        "n_per_placement": args.samples,
        "baseline_n": report.baseline_n,
        "taus": list(taus),
        "rows": len(report.rows),
    })


def cmd_reduce(args) -> int:
    space = load_space(args.space)
    ruleset = load_ruleset(args.preset if args.preset else args.rules)
    reduced = apply_ruleset(space, ruleset)
    lines = [
        f"space={space.name}",
        f"ruleset={ruleset.name}",
        f"reduced_space={reduced.name}",
        f"placements={count_placements(space)} -> {count_placements(reduced)}",
        f"architectures={count_architectures(space)} -> {count_architectures(reduced)}",
    ]
    if args.include_resolutions:
        before = count_architectures(space, include_resolutions=True)
        after = count_architectures(reduced, include_resolutions=True)
        lines.append(f"architectures_including_resolutions={before} -> {after}")
    if args.emit:
        emit_path = Path(args.emit)
        try:
            emit_path.parent.mkdir(parents=True, exist_ok=True)
            save_space(reduced, emit_path)
        except OSError as exc:
            raise ConfigError(f"--emit {emit_path}: {exc.strerror or exc}") from exc
        lines.append(str(emit_path))
    elif args.emit_default:
        lines.append((f"reduced-{_safe_name(reduced.name)}.json", partial(save_space, reduced)))
        return _publish(args, "reduce", lines, space, extra={"ruleset": ruleset.name})
    print("\n".join(lines))
    return 0


def _searches(args, fits, wanted: str):
    """The space (reduced by --preset), the objectives, and one evolve result
    per seed in seed..seed+repeats-1. fits(count) says whether the command
    takes that many objectives; wanted says how many it takes."""
    space = load_space(args.space)
    weights = None
    if args.preset:
        ruleset = load_ruleset(args.preset)
        space = apply_ruleset(space, ruleset)
        advice = ruleset.advisory.get("unit_weights")
        if advice is not None:
            weights = tuple(float(w) for w in advice)
    objectives = parse_objectives(args.objectives, space)
    if not fits(len(objectives)):
        raise ConfigError(f"search {args.subcommand} needs {wanted}")
    if args.unit_weights is not None:
        uniform = args.unit_weights.strip().lower() == "uniform"
        weights = None if uniform else _parse_floats(args.unit_weights, "--unit-weights")
    results = [
        evolve(space, SearchConfig(
            objectives=objectives,
            population=args.population,
            generations=args.generations,
            children=args.children,
            seed=args.seed + i,
            unit_weights=weights,
            dedupe=not args.no_dedupe,
            fitness_mode=args.fitness_mode,
        ))
        for i in range(args.repeats)
    ]
    return space, objectives, results


def cmd_search_pareto(args) -> int:
    space, objectives, results = _searches(args, lambda n: n >= 2, "at least two objectives")
    items = []
    for seed, result in enumerate(results, start=args.seed):
        front = result.frontier
        best = {name: None for name, _ in front.objectives}
        for (name, direction), column in zip(front.objectives,
                                             zip(*(p.metrics for p in front.points))):
            best[name] = max(column) if direction == "maximize" else min(column)
        summary = " ".join(f"best_{name}={best[name]!r}" for name, _ in front.objectives)
        stem = f"pareto-{_safe_name(space.name)}-s{seed}"
        items += [
            f"seed={seed} evaluations={result.total_evaluations} "
            f"frontier_size={len(front.points)} {summary}",
            (f"{stem}.csv", partial(write_frontier_csv, front)),
            (f"{stem}.json", partial(write_frontier_json, front)),
            (f"{stem}-history.json", partial(write_search_history, result)),
        ]
    return _publish(args, "search-pareto", items, space, objectives, {
        "repeats": args.repeats,
        "budget_per_run": args.population + args.generations * args.children,
    })


def cmd_search_max(args) -> int:
    space, objectives, results = _searches(args, lambda n: n == 1, "exactly one objective")
    items = []
    for seed, result in enumerate(results, start=args.seed):
        best = result.best
        record = serialize(best.arch)
        record["metrics"] = {objectives[0].name: best.metrics[0]}
        stem = f"max-{_safe_name(space.name)}-s{seed}"
        items += [
            f"seed={seed} evaluations={result.total_evaluations} best={best.metrics[0]!r}",
            (f"{stem}.json", partial(write_json, record)),
            (f"{stem}-history.json", partial(write_search_history, result)),
        ]
    import statistics  # only here: importing it costs a few ms per process

    best_values = [result.best.metrics[0] for result in results]
    mean = statistics.fmean(best_values)
    stdev = statistics.stdev(best_values) if len(best_values) > 1 else 0.0
    items.append(f"repeats={args.repeats} mean_best={mean!r} stdev_best={stdev!r}")
    return _publish(args, "search-max", items, space, objectives, {
        "repeats": args.repeats,
        "mean_best": mean,
        "stdev_best": stdev,
        "budget_per_run": args.population + args.generations * args.children,
    })


def cmd_search_compare(args) -> int:
    front_a = read_frontier_csv(args.frontier_a)
    front_b = read_frontier_csv(args.frontier_b)
    cmp = compare_frontiers(front_a, front_b, grid_points=args.grid_points)
    items = [
        f"budget_axis={cmp.budget_axis}",
        f"quality_axis={cmp.quality_axis}",
        f"frac_a={cmp.frac_a!r}",
        f"frac_b={cmp.frac_b!r}",
        f"frac_tie={cmp.frac_tie!r}",
        ("compare.csv", partial(write_comparison_csv, cmp)),
    ]
    return _publish(args, "search-compare", items, extra={
        "frontier_a": str(args.frontier_a),
        "frontier_b": str(args.frontier_b),
        "frac_a": cmp.frac_a,
        "frac_b": cmp.frac_b,
    })


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
    group = reduce_p.add_mutually_exclusive_group()
    group.add_argument("--emit", help="write the reduced space config to this path")
    group.add_argument("--emit-default", action="store_true",
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
    args.manifest = RunManifest(command=["archscope", *argv], seed=args.seed)
    args.manifest.start()
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
