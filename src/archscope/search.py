"""Elitist evolutionary search over a design space.

Generation zero is a uniform population of size P. Each later generation
draws K parents uniformly from the population, mutates each exactly once,
evaluates the children, merges parents and children, and truncates back to P
by rank, so the best individuals can never be lost. Ranking is direction-aware
metric order for one objective; for several, non-dominated sorting with
crowding-distance tie-breaks (a rank-sum alternative sits behind
fitness_mode="rank_sum"). The budget is exact: P + G * K evaluated
architectures, with no caching.

A run is held as arrays, indexed by eval_id: one int64 gene row per
evaluated architecture (Genes.rows), a metrics matrix [P + G * K, m], the
parents' eval_ids and each mutation's integer columns; the population is an
array of eval_ids. A generation is mutated as one gene batch by the
mutation module: three draws (the parents, one unit double per child and a
word matrix), each from its own stream of the generation (see _streams), and
its duplicates are redrawn together in one more batch;
dedupe keys are the rows' bytes. No mutation draw depends on a metric, so
the K children are then scored as one gene batch by costs.score, one
evaluate_batch call per objective, so a failure raises the error of the
first failing child and objective; generation zero is drawn as one batch
by sample_batch and scored the same way. Ranking works on the metrics
matrix. Architecture and EvaluatedArch objects, and the mutation strings,
are built only for the returned best point or frontier; mutate (a batch of
one) and pareto_filter are thin wrappers over the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import MAXIMIZE, MINIMIZE, MetricEvaluator, score
from .errors import ValidationError
# sample_uniform is unused here: the benchmark's tracer patches it on this
# module; it goes with the next benchmark change (ROADMAP item 2)
from .sampling import (
    STREAM_SEARCH_INIT,
    STREAM_SEARCH_MUTATE,
    Genes,
    Stream,
    sample_batch,
    sample_uniform,
)
from .spaces import Architecture, DesignSpace

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
# mutation: a batch of one

def mutate(
    space: DesignSpace,
    arch: Architecture,
    stream: Stream,
    unit_weights=None,
) -> tuple[Architecture, str]:
    """One uniformly chosen applicable mutation; returns (child, description).

    unit_weights is None (uniform), one weight per unit, or a UnitPicker
    built from either. The child always differs from the input. Raises if no
    gene of the space can move at all. A batch of one of the mutation that
    evolve runs, its unit double and then its words read from the one
    stream, with the same decoding.
    """
    from .mutation import UnitPicker, mutation_tables  # see evolve

    picker = unit_weights if isinstance(unit_weights, UnitPicker) else UnitPicker(
        space, unit_weights)
    tables = mutation_tables(space)
    rows = Genes.from_architectures(space, [arch]).rows()
    child, desc = tables.mutate(rows, *tables.draw(stream, stream, 1), picker)
    return Genes.from_rows(space, child).architecture(0), tables.describe(desc[0].tolist())


# ---------------------------------------------------------------------------
# ranking: every helper takes a metrics matrix [n, m]

PARETO_CHUNK = 256  # points checked against the kept front at once


def _signs(directions) -> np.ndarray:
    """1 for minimize and -1 for maximize: norm = values * signs is smaller-is-better."""
    return np.array([1.0 if d == MINIMIZE else -1.0 for d in directions])


def _dominates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """dom[i, j]: row i of a dominates row j of b (smaller is better), built
    one objective at a time, so no [len(a), len(b), m] temporary exists."""
    no_worse = np.ones((len(a), len(b)), dtype=bool)
    better = np.zeros((len(a), len(b)), dtype=bool)
    for col_a, col_b in zip(a.T, b.T):
        no_worse &= col_a[:, None] <= col_b[None, :]
        better |= col_a[:, None] < col_b[None, :]
    return no_worse & better


def _pareto_indices(norm: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated rows of norm (smaller is better), in
    lexicographic order of the rows, ties by index.

    Only a lexicographically smaller row can dominate, so the sorted rows are
    taken in chunks: a row is kept when neither the front kept so far nor
    its own chunk dominates it. No temporary exceeds PARETO_CHUNK**2."""
    order = np.lexsort(norm.T[::-1])
    values = norm[order]
    front, kept = values[:0], [np.zeros(0, dtype=np.intp)]
    for start in range(0, len(values), PARETO_CHUNK):
        chunk = values[start : start + PARETO_CHUNK]
        dominated = _dominates(chunk, chunk).any(axis=0)
        for lo in range(0, len(front), PARETO_CHUNK):
            dominated |= _dominates(front[lo : lo + PARETO_CHUNK], chunk).any(axis=0)
        keep = np.flatnonzero(~dominated)
        front = np.concatenate([front, chunk[keep]])
        kept.append(start + keep)
    return order[np.concatenate(kept)]


def pareto_filter(points: list[EvaluatedArch], directions) -> list[EvaluatedArch]:
    """Exact non-dominated subset, sorted by the first objective (direction-aware),
    ties by the later objectives and then by position. Duplicates of a
    non-dominated metric vector are all kept."""
    m = len(directions)
    norm = np.array([p.metrics for p in points], dtype=float).reshape(len(points), m)
    norm = norm * _signs(directions)
    return [points[i] for i in _pareto_indices(norm)]


def _fronts(norm):
    """Non-dominated fronts (Deb et al. 2002) as index arrays in ascending
    order, peeled lazily off the domination matrix: each front is the points
    no unassigned point dominates."""
    values = np.asarray(norm, dtype=float)
    dom = _dominates(values, values)
    counts = dom.sum(axis=0)  # how many points dominate each point
    front = np.flatnonzero(counts == 0)
    while True:
        yield front
        counts[front] = -1  # assigned
        counts -= dom[front].sum(axis=0)
        front = np.flatnonzero(counts == 0)
        if not front.size:
            return


def _crowding(values: np.ndarray) -> np.ndarray:
    """Crowding distance of each row of a front (Deb et al. 2002): per
    objective, in stable sorted order, the two ends get inf and every other
    row adds its neighbours' gap over the objective's range."""
    dist = np.zeros(len(values))
    for col in values.T:
        order = np.argsort(col, kind="stable")
        ordered = col[order]
        dist[order[[0, -1]]] = np.inf
        lo, hi = ordered[0], ordered[-1]
        if hi != lo:
            dist[order[1:-1]] += (ordered[2:] - ordered[:-2]) / (hi - lo)
    return dist


def _rank_sum_key(norm: np.ndarray) -> np.ndarray:
    """Per-row sum of average metric ranks (smaller is better); tied values
    share the mean of their 0-based ranks."""
    n = len(norm)
    totals = np.zeros(n)
    for col in norm.T:
        order = np.argsort(col, kind="stable")
        ordered = col[order]
        new = np.ones(n, dtype=bool)
        new[1:] = ordered[1:] != ordered[:-1]
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], n) - 1
        rank = np.empty(n)
        rank[order] = ((starts + ends) / 2)[np.cumsum(new) - 1]
        totals += rank
    return totals


def _rank(values: np.ndarray, size: int, config: SearchConfig) -> np.ndarray:
    """Indices of the size best rows of a metrics matrix, best first: metric
    order for one objective; for several, non-dominated fronts with
    crowding-distance tie-breaks or, under rank_sum, the rank-sum order.
    Every order is stable, so ties go to the lower index."""
    norm = values * _signs(config.directions())
    if norm.shape[1] == 1:
        return np.argsort(norm[:, 0], kind="stable")[:size]
    if config.fitness_mode == FITNESS_RANK_SUM:
        return np.argsort(_rank_sum_key(norm), kind="stable")[:size]
    chosen, count = [], 0
    for front in _fronts(norm):
        if count + len(front) > size:  # the front that overflows: least crowded first
            front = front[np.argsort(-_crowding(norm[front]), kind="stable")][: size - count]
        chosen.append(front)
        count += len(front)
        if count == size:
            break
    return np.concatenate(chosen)


def _median(values) -> float:
    """np.median's value for finite values, without its NaN check, which
    imports numpy.ma."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _stats(generation: int, evaluations: int, values: np.ndarray, directions) -> GenerationStats:
    """A generation's record from its population's metrics matrix: per
    objective, the best and the median value."""
    columns = values.T.tolist()
    best = tuple(min(c) if d == MINIMIZE else max(c) for c, d in zip(columns, directions))
    return GenerationStats(generation=generation, evaluations=evaluations, best=best,
                           median=tuple(_median(c) for c in columns))


# ---------------------------------------------------------------------------
# the loop

def _streams(seed: int, generation: int) -> list[Stream]:
    """Generation g's streams (seed, STREAM_SEARCH_MUTATE, g, part): its
    parents, unit doubles and words, then the dedupe doubles and words."""
    return Stream.each(seed, [(STREAM_SEARCH_MUTATE, generation, part) for part in range(5)])


def evolve(space: DesignSpace, config: SearchConfig) -> SearchResult:
    """Run the elitist EA; deterministic for a fixed (space, config)."""
    # only here: commands that never search do not compile the mutation module
    from .mutation import UnitPicker, dedupe, mutation_tables, row_keys

    pop_size, children, objectives = config.population, config.children, config.objectives
    directions = config.directions()
    tables, picker = mutation_tables(space), UnitPicker(space, config.unit_weights)
    first = sample_batch(space, Stream(config.seed, STREAM_SEARCH_INIT), pop_size)
    # the run's store, indexed by eval_id: gene rows, metrics, parent eval_ids
    # and the mutations' integer columns (action -1: none)
    first_rows = first.rows()
    rows = np.empty((config.budget, first_rows.shape[1]), dtype=np.int64)
    rows[:pop_size] = first_rows
    metrics = np.empty((config.budget, len(objectives)))
    metrics[:pop_size] = score(objectives, first)
    parent_ids = np.full(config.budget, -1, dtype=np.int64)
    mutations = np.full((config.budget, 5), -1, dtype=np.int64)
    seen = set(row_keys(first_rows))  # dedupe keys: gene-row bytes
    population = np.arange(pop_size)
    history = [_stats(0, pop_size, metrics[population], directions)]

    for gen in range(1, config.generations + 1):
        start, end = pop_size + (gen - 1) * children, pop_size + gen * children
        picks, doubles, words, *retries = _streams(config.seed, gen)
        parents = population[picks.below(pop_size, children)]
        parent_rows = rows[parents]
        kids, descs = tables.mutate(parent_rows, *tables.draw(doubles, words, children), picker)
        if config.dedupe:
            dedupe(tables, picker, retries, parent_rows, kids, descs, seen)
        rows[start:end], mutations[start:end], parent_ids[start:end] = kids, descs, parents
        metrics[start:end] = score(objectives, Genes.from_rows(space, rows[start:end]))
        merged = np.concatenate([population, np.arange(start, end)])
        population = merged[_rank(metrics[merged], pop_size, config)]
        history.append(_stats(gen, end, metrics[population], directions))

    result = SearchResult(
        space=space.name,
        config={
            "objectives": [f"{ev.name}:{ev.direction}" for ev in objectives],
            "population": config.population,
            "generations": config.generations,
            "children": config.children,
            "seed": config.seed,
            "unit_weights": list(config.unit_weights) if config.unit_weights else None,
            "dedupe": config.dedupe,
            "fitness_mode": config.fitness_mode,
        },
        history=history,
        total_evaluations=len(rows),
    )
    genes = Genes.from_rows(space, rows)

    def point(i: int) -> EvaluatedArch:
        return EvaluatedArch(
            arch=genes.architecture(i),
            metrics=tuple(metrics[i].tolist()),
            eval_id=i,
            generation=0 if i < pop_size else (i - pop_size) // children + 1,
            parent_id=int(parent_ids[i]),
            mutation=tables.describe(mutations[i].tolist()),
        )

    if len(objectives) == 1:
        # the first eval_id to reach the best value
        result.best = point(int(np.argmin(metrics[:, 0] * _signs(directions)[0])))
    else:
        frontier = _pareto_indices(metrics * _signs(directions)).tolist()
        if config.dedupe:
            unique, kept = set(), []
            for i in frontier:
                key = rows[i].tobytes()
                if key not in unique:
                    unique.add(key)
                    kept.append(i)
            frontier = kept
        result.frontier = ParetoFront(
            objectives=tuple((ev.name, ev.direction) for ev in objectives),
            points=[point(i) for i in frontier],
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
