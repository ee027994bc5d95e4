"""Metric tables: replayable measurement stand-ins.

Two kinds. An additive table maps every (unit, layer, block) placement to a
contribution, plus one constant per resolution; an architecture's value is
the sum over its present layers plus its resolution's constant. An exact
table maps canonical architecture-record hashes straight to values.

Additive tables must cover the whole declared space: gaps are rejected when
the table is bound to a space, not discovered mid-evaluation. Exact tables
raise on a missing architecture at evaluation time.

Additive tables are summed over a gene batch as device profiles are
(costs.AdditiveForm.of_layers, made an evaluator by costs.lowered_evaluator);
one architecture is a batch of one. Exact tables are looked up one
architecture at a time, so a batch is scored row by row. A file that gives
a placement or architecture twice is refused, not read last value wins.

File format (see docs/FORMATS.md): '#'-prefixed key=value header lines, then
a CSV body with columns (unit, layer, block_code, value) or
(arch_record_hash, value).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .costs import (
    MAXIMIZE,
    MINIMIZE,
    AdditiveForm,
    MetricEvaluator,
    lowered_evaluator,
    params_digest,
)
from .errors import ConfigError, CoverageError
from .formats import finite, integer, read_csv, write_csv
from .spaces import (
    Architecture,
    DesignSpace,
    iter_placements,
    record_hash,
    serialize,
)

TABLE_VERSION = 1

ADDITIVE = "additive"
EXACT = "exact"
_COLUMNS = {
    ADDITIVE: ["unit", "layer", "block_code", "value"],
    EXACT: ["arch_record_hash", "value"],
}


@dataclass(frozen=True)
class MetricTable:
    space: str
    metric: str
    direction: str
    units: str
    kind: str
    entries: Mapping = field(repr=False)
    resolution_constants: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (ADDITIVE, EXACT):
            raise ConfigError(f"table kind must be additive or exact, got {self.kind!r}")
        if self.direction not in (MINIMIZE, MAXIMIZE):
            raise ConfigError(f"table direction must be minimize or maximize, got {self.direction!r}")


def validate_coverage(space: DesignSpace, table: MetricTable) -> None:
    """Additive tables must have an entry for every placement and resolution."""
    if table.space != space.name:
        raise CoverageError(f"table covers space {table.space!r}, not {space.name!r}")
    if table.kind != ADDITIVE:
        return
    for p in iter_placements(space):
        _entry(table, p.key())
    for r in space.resolutions:
        if r not in table.resolution_constants:
            raise CoverageError(
                f"additive table {table.metric!r} missing resolution constant for {r}"
            )


def _entry(table: MetricTable, key: tuple[int, int, str]) -> float:
    """An additive table's entry for a (unit, layer, block code) placement."""
    if key not in table.entries:
        raise CoverageError(f"additive table {table.metric!r} missing entry for "
                            f"unit {key[0]} layer {key[1]} block {key[2]}")
    return float(table.entries[key])


def _exact_value(table: MetricTable, arch: Architecture) -> float:
    digest = record_hash(serialize(arch))
    if digest not in table.entries:
        raise CoverageError(
            f"exact table {table.metric!r} has no value for architecture {digest[:12]}"
        )
    return float(table.entries[digest])


def _table_form(space: DesignSpace, table: MetricTable) -> AdditiveForm:
    """An additive table's value for each row of a gene batch: the sum from
    the resolution's constant (0.0 without one) over the present layers."""
    def start(s):
        return float(table.resolution_constants.get(space.resolutions[s], 0.0))

    def term(s, u, layer, b):
        return _entry(table, (u + 1, layer + 1, space.units[u].blocks[b].code))

    return AdditiveForm.of_layers(space, start, term)


def table_evaluator(space: DesignSpace, table: MetricTable) -> MetricEvaluator:
    validate_coverage(space, table)
    res_sensitive = (
        table.kind == EXACT
        or len({round(v, 12) for v in table.resolution_constants.values()}) > 1
    )
    params = {"kind": f"table-{table.kind}", "file": _document(table)}
    if table.kind == EXACT:  # looked up one architecture at a time: no batch
        return MetricEvaluator(name=table.metric, direction=table.direction,
                               fn=lambda arch: _exact_value(table, arch),
                               resolution_sensitive=res_sensitive,
                               params_digest=params_digest(params))
    return lowered_evaluator(space, table.metric, table.direction,
                             lambda: _table_form(space, table), params, res_sensitive)


# ---------------------------------------------------------------------------
# file IO

def save_table(table: MetricTable, path) -> None:
    write_csv(path, *_document(table))


def _document(table: MetricTable) -> tuple[dict, list[list]]:
    """The header and rows save_table writes."""
    header = {
        "format_version": TABLE_VERSION,
        "space": table.space,
        "metric": table.metric,
        "direction": table.direction,
        "units": table.units,
        "kind": table.kind,
        **{f"resolution_constant.{r}": repr(table.resolution_constants[r])
           for r in sorted(table.resolution_constants)},
    }
    if table.kind == ADDITIVE:
        keys = sorted(table.entries, key=lambda k: (k[0], k[1], str(k[2])))
        rows = [[*k, repr(float(table.entries[k]))] for k in keys]
    else:
        rows = [[k, repr(float(table.entries[k]))] for k in sorted(table.entries)]
    return header, [_COLUMNS[table.kind], *rows]


def load_table(path, space: DesignSpace | None = None) -> MetricTable:
    """Parse a table file; binds and coverage-checks against space when given."""
    header, reader = read_csv(path)
    for key in ("space", "metric", "direction", "kind"):
        if key not in header:
            raise ConfigError(f"{path}: table header missing {key!r}")
    kind = header["kind"]
    if kind not in _COLUMNS:
        raise ConfigError(f"{path}: unknown table kind {kind!r}")
    constants = {}
    for key, value in header.items():
        if key.startswith("resolution_constant."):
            where = f"{path}: header {key}"
            constants[integer(key.split(".", 1)[1], where)] = finite(value, where)
    columns = _COLUMNS[kind]
    if next(reader, None) != columns:
        raise ConfigError(f"{path}: {kind} table needs columns {','.join(columns)}")
    entries: dict = {}
    for row in reader:
        if len(row) != len(columns):
            raise ConfigError(f"{path}: malformed row {row!r}")
        where = f"{path}: row {row!r}"
        key = (
            (integer(row[0], where), integer(row[1], where), row[2])
            if kind == ADDITIVE else row[0]
        )
        if key in entries:
            raise ConfigError(f"{where}: repeats an earlier row's key")
        entries[key] = finite(row[-1], where)
    table = MetricTable(
        space=header["space"],
        metric=header["metric"],
        direction=header["direction"],
        units=header.get("units", ""),
        kind=kind,
        entries=entries,
        resolution_constants=constants,
    )
    if space is not None:
        validate_coverage(space, table)
    return table


def exact_table_from_pairs(space: DesignSpace, metric: str, direction: str, units: str, pairs) -> MetricTable:
    """Build an exact table from (architecture, value) pairs; a value that is
    not a finite number is a ConfigError naming its pair's index."""
    entries = {record_hash(serialize(arch)): finite(value, f"pair {i}")
               for i, (arch, value) in enumerate(pairs)}
    return MetricTable(
        space=space.name,
        metric=metric,
        direction=direction,
        units=units,
        kind=EXACT,
        entries=entries,
    )
