"""Elitist evolutionary search over a design space.

Generation zero is a uniform population of size P. Each later generation
draws K parents uniformly from the population, mutates each exactly once,
evaluates the children, merges parents and children, and truncates back to P
by rank, so the best individuals can never be lost. Ranking is direction-aware
metric order for one objective; for several, non-dominated sorting with
crowding-distance tie-breaks (a rank-sum alternative sits behind
fitness_mode="rank_sum"). The budget is exact: P + G * K evaluated
architectures, with no caching.

No mutation draw depends on a metric, so a generation's K children are all
mutated (and deduped) first and then scored as one gene batch, one
evaluate_batch call per objective; generation zero is drawn as one batch by
sample_batch. When a batch fails in any way, that generation is scored again
one architecture at a time, so an error names the architecture and the
evaluator the one-at-a-time loop would have stopped at.

Mutation picks a unit (uniformly, or by the given unit weights), then one
applicable action uniformly: add a layer (appended at the end, new block
uniform), remove a layer (uniform position), swap one layer's block for a
different admissible one, swap the unit's channel ratio (ratio spaces,
remapping the unit's joint codes), or swap the input resolution (when the
space has more than one). The result always differs from the input. With
dedupe on, children already evaluated are re-mutated from their parent up to
ten times, then accepted as-is. docs/FORMATS.md ("Search stream") states the
draw order of both streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import MAXIMIZE, MINIMIZE, MetricEvaluator
from .errors import EvaluationError, ValidationError
from .sampling import (
    STREAM_SEARCH_INIT,
    STREAM_SEARCH_MUTATE,
    Genes,
    sample_batch,
    sample_uniform,
    spawn_rng,
)
from .spaces import (
    Architecture,
    DesignSpace,
    arch_key,
    consistent_blocks,
)

DEDUPE_RETRIES = 10

FITNESS_DOMINANCE = "dominance"
FITNESS_RANK_SUM = "rank_sum"


@dataclass(frozen=True)
class SearchConfig:
    objectives: tuple[MetricEvaluator, ...]
    population: int = 100
    generations: int = 10
    children: int = 200
    seed: int = 0
    unit_weights: tuple[float, ...] | None = None
    dedupe: bool = True
    fitness_mode: str = FITNESS_DOMINANCE

    def __post_init__(self):
        if not self.objectives:
            raise ValidationError("search needs at least one objective")
        if self.population < 1:
            raise ValidationError(f"population must be >= 1, got {self.population}")
        if self.generations < 1:
            raise ValidationError(f"generations must be >= 1, got {self.generations}")
        if self.children < 1:
            raise ValidationError(f"children must be >= 1, got {self.children}")
        if self.fitness_mode not in (FITNESS_DOMINANCE, FITNESS_RANK_SUM):
            raise ValidationError(f"unknown fitness mode {self.fitness_mode!r}")

    @property
    def budget(self) -> int:
        return self.population + self.generations * self.children

    def directions(self) -> tuple[str, ...]:
        return tuple(ev.direction for ev in self.objectives)


@dataclass(frozen=True)
class EvaluatedArch:
    arch: Architecture
    metrics: tuple[float, ...]
    eval_id: int
    generation: int
    parent_id: int = -1
    mutation: str = ""


@dataclass
class ParetoFront:
    objectives: tuple[tuple[str, str], ...]  # (name, direction) pairs
    points: list[EvaluatedArch]


@dataclass
class GenerationStats:
    generation: int
    evaluations: int
    best: tuple[float, ...]  # per objective, direction-aware
    median: tuple[float, ...]


@dataclass
class SearchResult:
    space: str
    config: dict
    history: list[GenerationStats]
    total_evaluations: int
    best: EvaluatedArch | None = None  # single objective
    frontier: ParetoFront | None = None  # multiple objectives


# ---------------------------------------------------------------------------
# mutation

class UnitPicker:
    """Validated mutation unit weights, normalised, and the CDF that
    Generator.choice(n, p=...) builds from them; a search builds it once."""

    def __init__(self, space: DesignSpace, unit_weights=None):
        w = np.ones(space.n_units) if unit_weights is None else np.asarray(
            unit_weights, dtype=float)
        with np.errstate(over="ignore"):
            total = w.sum()
        if w.shape != (space.n_units,) or np.any(w < 0) or not 0 < total < np.inf:
            raise ValidationError(
                f"unit_weights must be {space.n_units} non-negative values with a positive sum"
            )
        self.probs = w / total
        # Generator.choice normalises p once more and then normalises its cumsum
        p = self.probs / self.probs.sum()
        self.cdf = p.cumsum()
        self.cdf /= self.cdf[-1]

    def pick(self, rng: np.random.Generator) -> int:
        """A 1-based unit, drawn with one double exactly as choice(n, p) draws."""
        return int(self.cdf.searchsorted(rng.random(), side="right")) + 1


def _unit_actions(space: DesignSpace, arch: Architecture, u: int) -> list[str]:
    unit = space.unit(u)
    depth = arch.depths[u - 1]
    ratio = arch.channel_ratios[u - 1] if arch.channel_ratios else None
    actions = []
    if depth < unit.depth_max:
        actions.append("add_layer")
    if depth > unit.depth_min:
        actions.append("remove_layer")
    if len(consistent_blocks(unit, ratio)) > 1:
        actions.append("change_block")
    if len(unit.channel_ratios) > 1:
        actions.append("change_ratio")
    if len(space.resolutions) > 1:
        actions.append("change_resolution")
    return actions


def mutate(
    space: DesignSpace,
    arch: Architecture,
    rng: np.random.Generator,
    unit_weights=None,
) -> tuple[Architecture, str]:
    """One uniformly chosen applicable mutation; returns (child, description).

    unit_weights is None (uniform), one weight per unit, or a UnitPicker
    built from either. The child always differs from the input. Raises if no
    gene of the space can move at all.
    """
    picker = unit_weights if isinstance(unit_weights, UnitPicker) else UnitPicker(
        space, unit_weights)
    u = picker.pick(rng)
    actions = _unit_actions(space, arch, u)
    if not actions:  # re-pick among the units not yet tried
        live = picker.probs.copy()
        live[u - 1] = 0.0
        while np.any(live > 0):
            u = int(rng.choice(space.n_units, p=live / live.sum())) + 1
            actions = _unit_actions(space, arch, u)
            if actions:
                break
            live[u - 1] = 0.0
        else:
            raise ValidationError(
                f"space {space.name!r} admits no mutation from this architecture")

    unit = space.unit(u)
    action = actions[int(rng.integers(len(actions)))]
    depths = list(arch.depths)
    blocks = [list(codes) for codes in arch.blocks]
    ratios = list(arch.channel_ratios)
    resolution = arch.resolution
    ratio = ratios[u - 1] if ratios else None

    if action == "add_layer":
        choices = [b.code for b in consistent_blocks(unit, ratio)]
        code = choices[int(rng.integers(len(choices)))]
        blocks[u - 1].append(code)
        depths[u - 1] += 1
        desc = f"add_layer:u{u}:{code}"
    elif action == "remove_layer":
        pos = int(rng.integers(depths[u - 1]))
        removed = blocks[u - 1].pop(pos)
        depths[u - 1] -= 1
        desc = f"remove_layer:u{u}l{pos + 1}:{removed}"
    elif action == "change_block":
        pos = int(rng.integers(depths[u - 1]))
        old = blocks[u - 1][pos]
        choices = [b.code for b in consistent_blocks(unit, ratio) if b.code != old]
        new = choices[int(rng.integers(len(choices)))]
        blocks[u - 1][pos] = new
        desc = f"change_block:u{u}l{pos + 1}:{old}->{new}"
    elif action == "change_ratio":
        old = ratios[u - 1]
        choices = [r for r in unit.channel_ratios if r != old]
        new = choices[int(rng.integers(len(choices)))]
        ratios[u - 1] = new
        # remap joint codes so each layer keeps its expansion under the new
        # ratio; layers without a counterpart (asymmetric reductions) redraw
        remap = {}
        for b in consistent_blocks(unit, old):
            for nb in consistent_blocks(unit, new):
                if nb.expansion == b.expansion and nb.kernel == b.kernel:
                    remap[b.code] = nb.code
        fallback = [b.code for b in consistent_blocks(unit, new)]
        blocks[u - 1] = [
            remap.get(c) or fallback[int(rng.integers(len(fallback)))]
            for c in blocks[u - 1]
        ]
        desc = f"change_ratio:u{u}:{old}->{new}"
    else:  # change_resolution
        choices = [r for r in space.resolutions if r != resolution]
        resolution = choices[int(rng.integers(len(choices)))]
        desc = f"change_resolution:{arch.resolution}->{resolution}"

    child = Architecture(
        space=arch.space,
        resolution=resolution,
        depths=tuple(depths),
        blocks=tuple(tuple(c) for c in blocks),
        channel_ratios=tuple(ratios),
    )
    return child, desc


# ---------------------------------------------------------------------------
# ranking

def _normalized(metrics, directions) -> tuple[float, ...]:
    """Flip maximize objectives so that smaller is always better."""
    return tuple(m if d == MINIMIZE else -m for m, d in zip(metrics, directions))


def dominates(a, b) -> bool:
    """True when a is no worse everywhere and strictly better somewhere (all-minimize)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_filter(points: list[EvaluatedArch], directions) -> list[EvaluatedArch]:
    """Exact non-dominated subset, sorted by the first objective (direction-aware).

    Lexicographic pre-sort means no later point can dominate an accepted one,
    so one pass against the running frontier suffices. Duplicates of a
    non-dominated metric vector are all kept.
    """
    norm = [_normalized(p.metrics, directions) for p in points]
    order = sorted(range(len(points)), key=lambda i: norm[i])
    kept: list[int] = []
    for i in order:
        if not any(dominates(norm[j], norm[i]) for j in kept):
            kept.append(i)
    return [points[i] for i in kept]


def _fast_nondominated_fronts(norm) -> list[list[int]]:
    """Non-dominated fronts (Deb et al. 2002), each in ascending index order.

    dom[i, j] (i dominates j) is built one objective at a time, so no n x n x m
    temporary exists; fronts are then peeled off by domination counts.
    """
    values = np.asarray(norm, dtype=float)
    n = len(values)
    no_worse = np.ones((n, n), dtype=bool)
    better = np.zeros((n, n), dtype=bool)
    for col in values.T:
        no_worse &= col[:, None] <= col[None, :]
        better |= col[:, None] < col[None, :]
    dom = no_worse & better
    counts = dom.sum(axis=0)  # how many points dominate each point
    fronts = [np.flatnonzero(counts == 0)]
    while True:
        counts[fronts[-1]] = -1  # assigned
        counts -= dom[fronts[-1]].sum(axis=0)
        nxt = np.flatnonzero(counts == 0)
        if not nxt.size:
            return [front.tolist() for front in fronts]
        fronts.append(nxt)


def _crowding(norm, front) -> dict[int, float]:
    dist = {i: 0.0 for i in front}
    m = len(norm[0]) if norm else 0
    for k in range(m):
        ordered = sorted(front, key=lambda i: norm[i][k])
        lo, hi = norm[ordered[0]][k], norm[ordered[-1]][k]
        dist[ordered[0]] = dist[ordered[-1]] = float("inf")
        if hi == lo:
            continue
        for a, b, c in zip(ordered, ordered[1:], ordered[2:]):
            dist[b] += (norm[c][k] - norm[a][k]) / (hi - lo)
    return dist


def _rank_sum_key(norm) -> list[float]:
    """Per-point sum of average metric ranks (smaller is better)."""
    n = len(norm)
    totals = [0.0] * n
    for k in range(len(norm[0])):
        order = sorted(range(n), key=lambda i: norm[i][k])
        rank = [0.0] * n
        i = 0
        while i < n:
            j = i
            while j + 1 < n and norm[order[j + 1]][k] == norm[order[i]][k]:
                j += 1
            avg = (i + j) / 2
            for t in range(i, j + 1):
                rank[order[t]] = avg
            i = j + 1
        for idx in range(n):
            totals[idx] += rank[idx]
    return totals


def _truncate(merged: list[EvaluatedArch], size: int, config: SearchConfig) -> list[EvaluatedArch]:
    directions = config.directions()
    if len(config.objectives) == 1:
        sign = 1.0 if directions[0] == MINIMIZE else -1.0
        ranked = sorted(range(len(merged)), key=lambda i: (sign * merged[i].metrics[0], i))
        return [merged[i] for i in ranked[:size]]
    norm = [_normalized(p.metrics, directions) for p in merged]
    if config.fitness_mode == FITNESS_RANK_SUM:
        totals = _rank_sum_key(norm)
        ranked = sorted(range(len(merged)), key=lambda i: (totals[i], i))
        return [merged[i] for i in ranked[:size]]
    chosen: list[int] = []
    for front in _fast_nondominated_fronts(norm):
        if len(chosen) + len(front) <= size:
            chosen.extend(front)
            if len(chosen) == size:
                break
        else:
            dist = _crowding(norm, front)
            rest = sorted(front, key=lambda i: (-dist[i], i))
            chosen.extend(rest[: size - len(chosen)])
            break
    return [merged[i] for i in chosen]


def _best_per_objective(points, directions) -> tuple[float, ...]:
    out = []
    for k, d in enumerate(directions):
        vals = [p.metrics[k] for p in points]
        out.append(min(vals) if d == MINIMIZE else max(vals))
    return tuple(out)


def _median_per_objective(points) -> tuple[float, ...]:
    return tuple(
        float(np.median([p.metrics[k] for p in points]))
        for k in range(len(points[0].metrics))
    )


# ---------------------------------------------------------------------------
# the loop

def _metrics(objectives, arch: Architecture) -> tuple[float, ...]:
    try:
        return tuple(ev.evaluate(arch) for ev in objectives)
    except EvaluationError:
        raise
    except Exception as exc:
        raise EvaluationError(
            f"objective evaluation failed: {exc}", record=arch_key(arch)
        ) from exc


def _score(space: DesignSpace, objectives, archs, genes: Genes | None = None):
    """Metric vectors of archs, one evaluate_batch call per objective. When
    anything in the batch fails, archs are scored again one at a time, so a
    failure raises at the architecture and objective where the one-at-a-time
    loop stops, with that loop's message and record."""
    try:
        if genes is None:
            genes = Genes.from_architectures(space, archs)
        columns = [ev.evaluate_batch(genes).tolist() for ev in objectives]
    except Exception:
        return [_metrics(objectives, arch) for arch in archs]
    return list(zip(*columns))


def evolve(space: DesignSpace, config: SearchConfig) -> SearchResult:
    """Run the elitist EA; deterministic for a fixed (space, config)."""
    genes = sample_batch(space, spawn_rng(config.seed, STREAM_SEARCH_INIT), config.population)
    if genes is not None:
        archs = [genes.architecture(i) for i in range(len(genes))]
    else:  # a rejected word: redraw the stream one architecture at a time
        rng_init = spawn_rng(config.seed, STREAM_SEARCH_INIT)
        archs = [sample_uniform(space, rng_init) for _ in range(config.population)]
    population = [
        EvaluatedArch(arch=arch, metrics=metrics, eval_id=i, generation=0)
        for i, (arch, metrics) in enumerate(
            zip(archs, _score(space, config.objectives, archs, genes)))
    ]
    all_points: list[EvaluatedArch] = list(population)
    seen = set(archs)
    directions = config.directions()
    history = [
        GenerationStats(
            generation=0,
            evaluations=len(all_points),
            best=_best_per_objective(population, directions),
            median=_median_per_objective(population),
        )
    ]

    rng_mut = spawn_rng(config.seed, STREAM_SEARCH_MUTATE)
    picker = UnitPicker(space, config.unit_weights)
    for gen in range(1, config.generations + 1):
        archs, parents, descs = [], [], []
        for _ in range(config.children):
            parent = population[int(rng_mut.integers(len(population)))]
            child, desc = mutate(space, parent.arch, rng_mut, picker)
            if config.dedupe:
                tries = 0
                while child in seen and tries < DEDUPE_RETRIES:
                    child, desc = mutate(space, parent.arch, rng_mut, picker)
                    tries += 1
            seen.add(child)
            archs.append(child)
            parents.append(parent.eval_id)
            descs.append(desc)
        children = [
            EvaluatedArch(
                arch=arch,
                metrics=metrics,
                eval_id=len(all_points) + k,
                generation=gen,
                parent_id=parent_id,
                mutation=desc,
            )
            for k, (arch, metrics, parent_id, desc) in enumerate(
                zip(archs, _score(space, config.objectives, archs), parents, descs))
        ]
        all_points.extend(children)
        population = _truncate(population + children, config.population, config)
        history.append(
            GenerationStats(
                generation=gen,
                evaluations=len(all_points),
                best=_best_per_objective(population, directions),
                median=_median_per_objective(population),
            )
        )

    result = SearchResult(
        space=space.name,
        config={
            "objectives": [f"{ev.name}:{ev.direction}" for ev in config.objectives],
            "population": config.population,
            "generations": config.generations,
            "children": config.children,
            "seed": config.seed,
            "unit_weights": list(config.unit_weights) if config.unit_weights else None,
            "dedupe": config.dedupe,
            "fitness_mode": config.fitness_mode,
        },
        history=history,
        total_evaluations=len(all_points),
    )
    if len(config.objectives) == 1:
        sign = 1.0 if directions[0] == MINIMIZE else -1.0
        result.best = min(all_points, key=lambda p: (sign * p.metrics[0], p.eval_id))
    else:
        frontier = pareto_filter(all_points, directions)
        if config.dedupe:
            unique, kept = set(), []
            for p in frontier:
                if p.arch not in unique:
                    unique.add(p.arch)
                    kept.append(p)
            frontier = kept
        result.frontier = ParetoFront(
            objectives=tuple((ev.name, ev.direction) for ev in config.objectives),
            points=frontier,
        )
    return result


# ---------------------------------------------------------------------------
# frontier comparison

@dataclass
class FrontierComparison:
    objectives: tuple[tuple[str, str], ...]
    budget_axis: str
    quality_axis: str
    grid: list[float]
    best_a: list[float | None]
    best_b: list[float | None]
    winner: list[str]  # "a" | "b" | "tie"

    @property
    def frac_a(self) -> float:
        return self.winner.count("a") / len(self.winner)

    @property
    def frac_b(self) -> float:
        return self.winner.count("b") / len(self.winner)

    @property
    def frac_tie(self) -> float:
        return self.winner.count("tie") / len(self.winner)


def compare_frontiers(front_a: ParetoFront, front_b: ParetoFront, grid_points: int = 50) -> FrontierComparison:
    """Budget-sweep comparison of two frontiers over the same objective pair.

    The minimize objective is the budget axis; at each grid budget the best
    maximize value attainable within budget wins. Identical frontiers tie at
    every grid point.
    """
    if front_a.objectives != front_b.objectives:
        raise ValidationError(
            f"frontier objectives differ: {front_a.objectives} vs {front_b.objectives}"
        )
    if len(front_a.objectives) != 2:
        raise ValidationError("frontier comparison needs exactly two objectives")
    dirs = [d for _, d in front_a.objectives]
    if sorted(dirs) != [MAXIMIZE, MINIMIZE]:
        raise ValidationError("frontier comparison needs one maximize and one minimize objective")
    if grid_points < 2:
        raise ValidationError("grid must have at least two points")
    if not front_a.points or not front_b.points:
        raise ValidationError("cannot compare an empty frontier")
    budget_k = dirs.index(MINIMIZE)
    quality_k = 1 - budget_k

    budgets = [p.metrics[budget_k] for p in front_a.points + front_b.points]
    lo, hi = min(budgets), max(budgets)
    grid = [lo + (hi - lo) * i / (grid_points - 1) for i in range(grid_points)]

    def best_at(front, budget):
        vals = [p.metrics[quality_k] for p in front.points if p.metrics[budget_k] <= budget]
        return max(vals) if vals else None

    best_a = [best_at(front_a, t) for t in grid]
    best_b = [best_at(front_b, t) for t in grid]
    winner = []
    for a, b in zip(best_a, best_b):
        if a is None and b is None:
            winner.append("tie")
        elif b is None or (a is not None and a > b):
            winner.append("a")
        elif a is None or b > a:
            winner.append("b")
        else:
            winner.append("tie")
    return FrontierComparison(
        objectives=front_a.objectives,
        budget_axis=front_a.objectives[budget_k][0],
        quality_axis=front_a.objectives[quality_k][0],
        grid=grid,
        best_a=best_a,
        best_b=best_b,
        winner=winner,
    )
