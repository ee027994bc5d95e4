"""Delimited-text writers and readers for report artifacts.

All writers are deterministic: fixed column orders, repr() float formatting,
LF newlines, no timestamps. Schemas are documented in docs/FORMATS.md; every
file starts with '#'-prefixed key=value header lines carrying its metadata.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError
from .formats import finite, integer, read_csv, write_csv, write_json
from .profiler import HeatmapReport, SweepReport
from .search import EvaluatedArch, FrontierComparison, ParetoFront, SearchResult
from .spaces import Architecture, DesignSpace, block_axes, serialize

EXPORT_VERSION = 1

# frontier CSV columns ahead of one column per objective
_FRONTIER_COLUMNS = ["eval_id", "generation", "parent_id", "mutation",
                     "space", "resolution", "depths", "blocks", "channel_ratios"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def tau_label(tau: float) -> str:
    """Column stem of a percentile rank: 5 -> p5, 12.5 -> p12_5 (6 significant digits)."""
    text = f"{tau:g}".replace(".", "_")
    return f"p{text}"


def write_heatmap_csv(report: HeatmapReport, space: DesignSpace, path) -> None:
    header = {
        "format_version": EXPORT_VERSION,
        "space": report.space,
        "metric": report.metric,
        "direction": report.direction,
        "axes": ",".join(report.axis_names),
        "n_per_placement": report.n_per_placement,
        "seed": report.seed,
    }
    rows = [["block_code", *report.axis_names, "resolution", "mean", "stderr", "n"]]
    for row in report.rows:
        rows.append([
            row.block_code,
            *[_fmt(v) for v in block_axes(space, row.block_code).values()],
            "all" if row.resolution is None else row.resolution,
            _fmt(row.mean),
            _fmt(row.stderr),
            row.n_per_placement * row.n_placements,
        ])
    write_csv(path, header, rows)


def _sweep_stats(report: SweepReport, raw: bool):
    """Statistic column names, and per-row cells: conditioned when raw,
    else differences against the baseline."""
    suffix = "" if raw else "_rel"
    names = [f"mean{suffix}"] + [f"{tau_label(t)}{suffix}" for t in report.taus]
    cells = []
    for r in report.rows:
        stats = [r.cond_mean, *r.cond_tau] if raw else [r.rel_mean, *r.rel_tau]
        cells.append([_fmt(v) for v in stats])
    return names, cells


def write_sweep_csv(report: SweepReport, path, raw: bool = False) -> None:
    """One row per placement. Default columns are differences against the
    shared baseline; raw=True exports the conditioned statistics instead."""
    header = {
        "format_version": EXPORT_VERSION,
        "space": report.space,
        "metric": report.metric,
        "direction": report.direction,
        "statistics": "raw" if raw else "relative",
        "n_per_placement": report.n_per_placement,
        "baseline_n": report.baseline_n,
        "seed": report.seed,
    }
    names, cells = _sweep_stats(report, raw)
    rows = [["unit", "layer", "block_code", *names, "baseline_mean",
             *[f"baseline_{tau_label(t)}" for t in report.taus]]]
    baseline = [_fmt(report.baseline_mean), *[_fmt(v) for v in report.baseline_tau]]
    for row, stats in zip(report.rows, cells):
        p = row.placement
        rows.append([p.unit, p.layer, p.block_code, *stats, *baseline])
    write_csv(path, header, rows)


def write_sweep_boundaries(report: SweepReport, path) -> None:
    """Sidecar of row indices where units and (unit, layer) groups begin."""
    write_json({
        "format_version": EXPORT_VERSION,
        "space": report.space,
        "metric": report.metric,
        "rows": len(report.rows),
        "unit_boundaries": report.unit_boundaries(),
        "layer_boundaries": report.layer_boundaries(),
    }, path)


def write_sweep_dat(report: SweepReport, path, raw: bool = False) -> None:
    """Space-delimited variant for plotting tools; same rows as the CSV."""
    names, cells = _sweep_stats(report, raw)
    lines = [f"# space={report.space} metric={report.metric}",
             "# columns: " + " ".join(["index", "unit", "layer", "block_code", *names])]
    for i, (row, stats) in enumerate(zip(report.rows, cells)):
        p = row.placement
        lines.append(" ".join([str(i), str(p.unit), str(p.layer), p.block_code, *stats]))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# search artifacts

def _arch_columns(arch: Architecture) -> list[str]:
    return [
        arch.space,
        str(arch.resolution),
        "|".join(str(d) for d in arch.depths),
        "|".join("+".join(codes) for codes in arch.blocks),
        "|".join(_fmt(r) for r in arch.channel_ratios),
    ]


def write_frontier_csv(front: ParetoFront, path) -> None:
    header = {
        "format_version": EXPORT_VERSION,
        **{f"objective.{i}": f"{name}:{direction}"
           for i, (name, direction) in enumerate(front.objectives, start=1)},
    }
    rows = [_FRONTIER_COLUMNS + [name for name, _ in front.objectives]]
    rows += [
        [p.eval_id, p.generation, p.parent_id, p.mutation,
         *_arch_columns(p.arch), *[_fmt(m) for m in p.metrics]]
        for p in front.points
    ]
    write_csv(path, header, rows)


def read_frontier_csv(path) -> ParetoFront:
    """Rebuild a frontier (records + metrics) from its CSV export."""
    header, reader = read_csv(path)
    objectives = []
    for key, value in header.items():
        if key.startswith("objective."):
            name, _, direction = value.rpartition(":")
            objectives.append((name, direction))
    if not objectives:
        raise ConfigError(f"{path}: no objective header lines; not a frontier export")
    columns = next(reader, None)
    expected = _FRONTIER_COLUMNS + [name for name, _ in objectives]
    if columns != expected:  # metric columns must name the objectives, in order
        raise ConfigError(f"{path}: frontier columns {columns!r}, expected {expected!r}")
    n_fixed = len(_FRONTIER_COLUMNS)
    points = []
    for row in reader:
        if len(row) != len(expected):
            raise ConfigError(f"{path}: malformed frontier row {row!r}")
        where = f"{path}: row {row!r}"
        arch = Architecture(
            space=row[4],
            resolution=integer(row[5], where),
            depths=tuple(integer(d, where) for d in row[6].split("|")),
            blocks=tuple(tuple(part.split("+")) for part in row[7].split("|")),
            channel_ratios=tuple(finite(r, where) for r in row[8].split("|")) if row[8] else (),
        )
        points.append(
            EvaluatedArch(
                arch=arch,
                metrics=tuple(finite(v, where) for v in row[n_fixed:]),
                eval_id=integer(row[0], where),
                generation=integer(row[1], where),
                parent_id=integer(row[2], where),
                mutation=row[3],
            )
        )
    return ParetoFront(objectives=tuple(objectives), points=points)


def frontier_records(front: ParetoFront) -> list[dict]:
    out = []
    for p in front.points:
        record = serialize(p.arch)
        record["metrics"] = {name: value for (name, _), value in zip(front.objectives, p.metrics)}
        record["eval_id"] = p.eval_id
        record["generation"] = p.generation
        out.append(record)
    return out


def write_frontier_json(front: ParetoFront, path) -> None:
    write_json({
        "format_version": EXPORT_VERSION,
        "objectives": [f"{name}:{direction}" for name, direction in front.objectives],
        "architectures": frontier_records(front),
    }, path)


def search_history_doc(result: SearchResult) -> dict:
    return {
        "format_version": EXPORT_VERSION,
        "space": result.space,
        "config": result.config,
        "total_evaluations": result.total_evaluations,
        "history": [
            {
                "generation": h.generation,
                "evaluations": h.evaluations,
                "best": list(h.best),
                "median": list(h.median),
            }
            for h in result.history
        ],
    }


def write_search_history(result: SearchResult, path) -> None:
    write_json(search_history_doc(result), path)


def write_comparison_csv(cmp: FrontierComparison, path) -> None:
    header = {
        "format_version": EXPORT_VERSION,
        "budget_axis": cmp.budget_axis,
        "quality_axis": cmp.quality_axis,
        "frac_a": repr(cmp.frac_a),
        "frac_b": repr(cmp.frac_b),
        "frac_tie": repr(cmp.frac_tie),
    }
    rows = [[cmp.budget_axis, "best_a", "best_b", "winner"]]
    for t, a, b, w in zip(cmp.grid, cmp.best_a, cmp.best_b, cmp.winner):
        rows.append([_fmt(t), "" if a is None else _fmt(a), "" if b is None else _fmt(b), w])
    write_csv(path, header, rows)
