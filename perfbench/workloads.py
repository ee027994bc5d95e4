"""The benchmark's workloads: CLI arguments, set-up probe inputs and output checks.

Each workload is one archscope CLI command, chosen so that one hot layer
dominates it and is nearly idle in another:

- sweep-ofa-npu: placement sweep, the only workload where the profiler's
  bootstrap standard errors carry real weight;
- blocks-resnet50-acc: block heatmap over a ratio space, mostly
  synthetic-accuracy evaluation and conditioned sampling, no bootstrap;
- pareto-ofa-npu-acc-macs: Pareto search on a reduced space, dominated by
  non-dominated ranking, one architecture evaluated at a time.

A check reads a finished run's output directory and returns the number of
architectures the run scored; it raises CheckFailed when an output is wrong.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class CheckFailed(Exception):
    """An output of a workload run is missing or wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # CLI arguments before sizes, --seed and --out
    space: str
    preset: str | None
    metrics: str  # evaluators resolved by the set-up probe
    sizes: dict  # flag -> value, the measured size
    tiny: dict  # flag -> value, for the benchmark's self-tests
    check: Callable[["Workload", dict, int, Path, str], int]

    def cli_args(self, seed: int, out: Path, sizes: dict) -> list[str]:
        args = list(self.command)
        for flag, value in sizes.items():
            args += [f"--{flag}", str(value)]
        return args + ["--seed", str(seed), "--workers", "1", "--out", str(out)]

    def probe_args(self) -> list[str]:
        args = ["--space", self.space, "--metrics", self.metrics]
        return args + (["--preset", self.preset] if self.preset else [])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out: Path) -> dict[str, str]:
    """Every manifest digest matches its file; returns the data-file digests.

    Manifests carry timestamps, so they are left out of the returned digests.
    """
    manifests = sorted(out.glob("*-manifest.json"))
    if len(manifests) != 1:
        raise CheckFailed(f"expected one manifest in {out}, found {len(manifests)}")
    outputs = json.loads(manifests[0].read_text())["outputs"]
    data = {p.name for p in out.iterdir()} - {manifests[0].name}
    if set(outputs) != data:
        raise CheckFailed(f"manifest lists {sorted(outputs)}, directory holds {sorted(data)}")
    digests = {}
    for name in sorted(outputs):
        digest = sha256(out / name)
        if digest != outputs[name]:
            raise CheckFailed(f"manifest sha256 of {name} does not match the file")
        digests[name] = digest
    return digests


def read_table(path: Path) -> tuple[dict[str, str], list[dict[str, str]]]:
    """'# key=value' header lines plus CSV rows."""
    header, body = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line.lstrip("#").strip().partition("=")
            header[key] = value
        elif line:
            body.append(line)
    return header, list(csv.DictReader(body))


def finite(row: dict[str, str], columns) -> None:
    for col in columns:
        if not math.isfinite(float(row[col])):
            raise CheckFailed(f"non-finite {col}={row[col]!r} in row {row}")


def expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# per-workload checks

def check_sweep(workload: Workload, sizes: dict, seed: int, out: Path, stdout: str) -> int:
    from archscope.spaces import count_placements, iter_placements, load_space

    space = load_space(workload.space)
    header, rows = read_table(out / "placements-ofa-npu-like.csv")
    expect("n_per_placement", header.get("n_per_placement"), str(sizes["samples"]))
    expect("baseline_n", header.get("baseline_n"), str(sizes["baseline-samples"]))
    expect("seed", header.get("seed"), str(seed))
    expect("sweep rows", len(rows), count_placements(space))
    expect(
        "sweep row order",
        [(int(r["unit"]), int(r["layer"]), r["block_code"]) for r in rows],
        [p.key() for p in iter_placements(space)],
    )
    for row in rows:
        finite(row, [c for c in row if c not in ("unit", "layer", "block_code")])
    return len(rows) * sizes["samples"] + sizes["baseline-samples"]


def check_blocks(workload: Workload, sizes: dict, seed: int, out: Path, stdout: str) -> int:
    from archscope.spaces import block_codes, load_space

    space = load_space(workload.space)
    header, rows = read_table(out / "blocks-resnet50-synthetic-acc.csv")
    expect("n_per_placement", header.get("n_per_placement"), str(sizes["samples"]))
    expect("seed", header.get("seed"), str(seed))
    expect("heatmap blocks", [r["block_code"] for r in rows], list(block_codes(space)))
    hosts = 0
    for row in rows:
        expect("heatmap resolution", row["resolution"], "all")
        finite(row, ("channel_ratio", "expansion", "mean", "stderr"))
        hosts += int(row["n"]) // sizes["samples"]
    expect("conditioned sets", hosts, sum(u.depth_max * len(u.blocks) for u in space.units))
    return hosts * sizes["samples"]


def check_pareto(workload: Workload, sizes: dict, seed: int, out: Path, stdout: str) -> int:
    from archscope.exports import read_frontier_csv
    from archscope.reduction import apply, load_ruleset
    from archscope.spaces import load_space
    from tests.oracles import brute_frontier, walker_macs

    budget = sizes["population"] + sizes["generations"] * sizes["children"]
    reported = re.search(r"\bevaluations=(\d+)", stdout)
    expect("evaluations", reported and int(reported.group(1)), budget)
    stem = f"pareto-ofa-ofa-npu-s{seed}"
    history = json.loads((out / f"{stem}-history.json").read_text())
    expect("history total_evaluations", history["total_evaluations"], budget)

    space = apply(load_space(workload.space), load_ruleset(workload.preset))
    front = read_frontier_csv(out / f"{stem}.csv")
    names = [name for name, _ in front.objectives]
    expect("objectives", names, ["synthetic-acc", "macs"])
    if not front.points:
        raise CheckFailed("empty frontier")
    vectors = [p.metrics for p in front.points]
    if not all(math.isfinite(v) for vec in vectors for v in vec):
        raise CheckFailed("non-finite frontier metric")
    directions = [direction for _, direction in front.objectives]
    expect("non-dominated frontier points", brute_frontier(vectors, directions),
           list(range(len(vectors))))
    for p in front.points:
        expect(f"MACs of eval {p.eval_id}", p.metrics[1], float(walker_macs(space, p.arch)))
    return budget


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-ofa-npu",
            command=("profile", "placements", "--space", "ofa", "--metric", "npu-like"),
            space="ofa",
            preset=None,
            metrics="npu-like",
            # the CLI's default 1:10 ratio of per-placement to baseline samples
            sizes={"samples": 50, "baseline-samples": 500},
            tiny={"samples": 3, "baseline-samples": 30},
            check=check_sweep,
        ),
        Workload(
            name="blocks-resnet50-acc",
            command=("profile", "blocks", "--space", "resnet50", "--metric", "synthetic-acc"),
            space="resnet50",
            preset=None,
            metrics="synthetic-acc",
            sizes={"samples": 50},
            tiny={"samples": 2},
            check=check_blocks,
        ),
        Workload(
            name="pareto-ofa-npu-acc-macs",
            command=("search", "pareto", "--space", "ofa", "--preset", "ofa-npu",
                     "--objectives", "synthetic-acc:max,macs:min"),
            space="ofa",
            preset="ofa-npu",
            metrics="synthetic-acc:max,macs:min",
            sizes={"population": 100, "generations": 10, "children": 200},
            tiny={"population": 8, "generations": 2, "children": 8},
            check=check_pareto,
        ),
    )
}
