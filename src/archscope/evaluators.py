"""Name-based evaluator resolution shared by the CLI and search setup.

Accepted metric names: "macs", "params", "synthetic-acc" (alias "acc"), any
device-profile preset name or alias ("npu", "gpu", "cpu", "note10"), a path
prefixed with "table:" for a metric-table file, or "profile:PATH" for a
device-profile file. An optional ":max"/":min" suffix overrides the ranking
direction.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .costs import (
    MAXIMIZE,
    MINIMIZE,
    MetricEvaluator,
    accuracy_evaluator,
    macs_evaluator,
    params_evaluator,
)
from .devices import latency_evaluator, list_profiles
from .errors import ConfigError
from .spaces import DesignSpace

_ALIASES = {
    "acc": "synthetic-acc",
    "npu": "npu-like",
    "gpu": "gpu-flat",
    "cpu": "cpu-expansion-bound",
    "note10": "note10-linear",
}

_DIRECTION_SUFFIXES = {"max": MAXIMIZE, "maximize": MAXIMIZE, "min": MINIMIZE, "minimize": MINIMIZE}


def known_metrics() -> tuple[str, ...]:
    return ("macs", "params", "synthetic-acc") + tuple(list_profiles())


def resolve_evaluator(name: str, space: DesignSpace) -> MetricEvaluator:
    """Build the named evaluator for a space; raises ConfigError on bad names."""
    spec = name.strip()
    direction = None
    head, sep, tail = spec.rpartition(":")
    if sep and head and head not in ("table", "profile") and tail.lower() in _DIRECTION_SUFFIXES:
        direction = _DIRECTION_SUFFIXES[tail.lower()]
        spec = head
    elif sep and _ALIASES.get(head, head) in known_metrics():
        raise ConfigError(
            f"metric {name!r}: unknown direction {tail!r}; expected a suffix of "
            f"{', '.join(':' + s for s in _DIRECTION_SUFFIXES)}"
        )
    key = _ALIASES.get(spec, spec)
    if key == "macs":
        ev = macs_evaluator(space)
    elif key == "params":
        ev = params_evaluator(space)
    elif key == "synthetic-acc":
        ev = accuracy_evaluator(space)
    elif key in list_profiles():
        ev = latency_evaluator(space, key)
    elif key.startswith("table:"):
        from .tables import load_table, table_evaluator  # only table metrics need it

        path = key[len("table:"):]
        if not Path(path).exists():
            raise ConfigError(f"metric {name!r}: table file {path!r} not found")
        ev = table_evaluator(space, load_table(path, space))
    elif key.startswith("profile:"):
        ev = latency_evaluator(space, key[len("profile:"):])
    else:
        raise ConfigError(
            f"unknown metric {name!r}; expected one of {', '.join(known_metrics())}, "
            "table:PATH or profile:PATH"
        )
    if direction is not None and direction != ev.direction:
        ev = replace(ev, direction=direction)
    return ev


def parse_objectives(text: str, space: DesignSpace) -> tuple[MetricEvaluator, ...]:
    """Parse a comma-separated objective list like 'acc:max,npu:min'."""
    names = [part for part in (p.strip() for p in text.split(",")) if part]
    if not names:
        raise ConfigError("objectives: empty list")
    evaluators = tuple(resolve_evaluator(n, space) for n in names)
    seen = set()
    for ev in evaluators:
        if ev.name in seen:
            raise ConfigError(f"objectives: duplicate metric {ev.name!r}")
        seen.add(ev.name)
    return evaluators
