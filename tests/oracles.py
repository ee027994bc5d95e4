"""Independent oracles the tests compare the library against.

Everything here is deliberately written from scratch, in a different style
from the package, so agreement is evidence rather than tautology: a per-layer
MAC/parameter walker that simulates the shape chain op by op, per-layer
latency and synthetic-accuracy walkers that recompute every factor on every
layer, an exhaustive expectation calculator that enumerates the sampling
distribution with explicit probability weights, a literal loop-by-loop
reading of the sampling stream's layout (docs/FORMATS.md), and a
quadratic-time Pareto filter and front sort. Two are the library's earlier
code, kept as referees for what replaced it: reference_evolve, the
one-child-at-a-time search loop and its mutation operator as they were
before the search scored its children in batches, and
bootstrap_percentile_stderr, the resampling bootstrap that the exact
percentile standard errors replaced.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from archscope import search
from archscope.errors import EvaluationError, ValidationError
from archscope.sampling import STREAM_SEARCH_INIT, STREAM_SEARCH_MUTATE, sample_batch, spawn_rng
from archscope.spaces import Architecture, arch_key, consistent_blocks

# upper 0.1% points of the chi-square distribution, from standard tables
CHI2_CRIT_001 = {1: 10.828, 2: 13.816, 8: 26.124}


def chi2_sf(x, df):
    """P(X >= x) for X chi-square with df degrees of freedom, from the closed
    forms of the regularised upper incomplete gamma function at integer and
    half-integer order, summed in log space so no term overflows."""
    h = x / 2.0
    if h == 0.0:
        return 1.0
    if df % 2 == 0:
        orders, base = range(df // 2), 0.0
    else:
        orders, base = [k + 0.5 for k in range(df // 2)], math.erfc(math.sqrt(h))
    return base + sum(math.exp(a * math.log(h) - h - math.lgamma(a + 1)) for a in orders)


# ---------------------------------------------------------------------------
# brute-force cost walker

def _conv(h, k, c_in, c_out):
    return h * h * k * k * c_in * c_out


def _dwconv(h, k, c):
    return h * h * k * k * c


def _down(h):
    return (h + 1) // 2


def _unit_width(unit, ratios):
    if not ratios:
        return unit.base_channels
    r = ratios[unit.index - 1]
    return max(1, int(unit.base_channels * r + 0.5))


def walker_macs(space, arch, se_reduction=4):
    """MACs by simulating the op sequence layer by layer."""
    ops = []
    h = _down(arch.resolution)
    ops.append(_conv(h, space.stem.kernel, 3, space.stem.out_channels))
    c = space.stem.out_channels
    for unit, codes in zip(space.units, arch.blocks):
        c_out = _unit_width(unit, arch.channel_ratios)
        h_in, h_out = h, _down(h)
        for i, code in enumerate(codes):
            block = next(b for b in unit.blocks if b.code == code)
            cin = c if i == 0 else c_out
            hin = h_in if i == 0 else h_out
            if block.family.startswith("mbconv"):
                mid = cin * int(block.expansion)
                ops.append(_conv(hin, 1, cin, mid))
                ops.append(_dwconv(h_out, block.kernel, mid))
                if block.uses_se:
                    se_mid = max(1, mid // se_reduction)
                    ops.append(mid * se_mid)
                    ops.append(se_mid * mid)
                ops.append(_conv(h_out, 1, mid, c_out))
            else:
                mid = max(1, int(c_out * block.expansion + 0.5))
                ops.append(_conv(hin, 1, cin, mid))
                ops.append(_conv(h_out, block.kernel, mid, mid))
                ops.append(_conv(h_out, 1, mid, c_out))
                if i == 0:
                    ops.append(_conv(h_out, 1, cin, c_out))
        c, h = c_out, h_out
    if space.head.conv_channels:
        ops.append(_conv(h, 1, c, space.head.conv_channels))
        c = space.head.conv_channels
    if space.head.hidden:
        ops.append(c * space.head.hidden)
        c = space.head.hidden
    ops.append(c * space.head.classes)
    return sum(ops)


def walker_params(space, arch, se_reduction=4, include_bias=False):
    """Weight count by the same op walk."""
    bias = 1 if include_bias else 0
    weights = []
    weights.append(space.stem.kernel**2 * 3 * space.stem.out_channels + bias * space.stem.out_channels)
    c = space.stem.out_channels
    for unit, codes in zip(space.units, arch.blocks):
        c_out = _unit_width(unit, arch.channel_ratios)
        for i, code in enumerate(codes):
            block = next(b for b in unit.blocks if b.code == code)
            cin = c if i == 0 else c_out
            if block.family.startswith("mbconv"):
                mid = cin * int(block.expansion)
                weights.append(cin * mid + bias * mid)
                weights.append(block.kernel**2 * mid + bias * mid)
                if block.uses_se:
                    se_mid = max(1, mid // se_reduction)
                    weights.append(mid * se_mid + se_mid * mid + bias * (se_mid + mid))
                weights.append(mid * c_out + bias * c_out)
            else:
                mid = max(1, int(c_out * block.expansion + 0.5))
                weights.append(cin * mid + bias * mid)
                weights.append(block.kernel**2 * mid * mid + bias * mid)
                weights.append(mid * c_out + bias * c_out)
                if i == 0:
                    weights.append(cin * c_out + bias * c_out)
        c = c_out
    if space.head.conv_channels:
        weights.append(c * space.head.conv_channels + bias * space.head.conv_channels)
        c = space.head.conv_channels
    if space.head.hidden:
        weights.append(c * space.head.hidden + bias * space.head.hidden)
        c = space.head.hidden
    weights.append(c * space.head.classes + bias * space.head.classes)
    return sum(weights)


# ---------------------------------------------------------------------------
# per-layer latency and accuracy walkers (same float operation order as the
# package, so results must agree bit for bit)

def _layer_block(unit, code):
    return next(b for b in unit.blocks if b.code == code)


def _out_size(resolution, unit_index):
    """Feature-map side after the stem and unit_index stride-2 units."""
    h = _down(resolution)
    for _ in range(unit_index):
        h = _down(h)
    return h


def walker_latency(space, arch, profile):
    """Parametric-profile latency, every factor looked up again per layer."""
    template = min(t for t in profile.resolution_templates if t >= arch.resolution)
    reference = max(profile.resolution_templates)
    total = profile.fixed_overhead_ms
    total += profile.pad_cost_ms * (template * template - arch.resolution * arch.resolution) / (
        template * template
    )
    for unit, codes in zip(space.units, arch.blocks):
        scale = float(profile.unit_scale.get(unit.index, 1.0))
        h_out = _out_size(template, unit.index)
        h_ref = _out_size(reference, unit.index)
        area = (h_out * h_out) / (h_ref * h_ref)
        for layer, code in enumerate(codes, start=1):
            block = _layer_block(unit, code)
            cost = float(profile.kernel_factor[block.kernel])
            cost *= float(profile.expansion_factor[block.expansion])
            if block.channel_ratio is not None and profile.ratio_factor:
                cost *= float(profile.ratio_factor[block.channel_ratio])
            base = profile.layer_cost_ms
            if not isinstance(base, (int, float)):
                base = base[unit.index]
                if not isinstance(base, (int, float)):
                    base = base[layer - 1]
            total += cost * scale * float(base) * area
    return total


def walker_accuracy(space, arch, model):
    """Synthetic accuracy, each layer's capacity re-ranked from the whole space."""
    every = [b for unit in space.units for b in unit.blocks]
    score = model.base
    for unit, codes in zip(space.units, arch.blocks):
        w = model.unit_weights[unit.index - 1]
        for code in codes:
            block = _layer_block(unit, code)
            if block.family == "resnet_bottleneck":
                axes = [("channel_ratio", block.channel_ratio), ("expansion", block.expansion)]
            else:
                axes = [("expansion", block.expansion), ("kernel", block.kernel)]
            ranks = []
            for name, value in axes:
                values = sorted({getattr(b, name) for b in every})
                ranks.append(values.index(value) / (len(values) - 1) if len(values) > 1 else 0.0)
            score += w * (0.5 * ranks[0] + 0.5 * ranks[1])
        if len(codes) == unit.depth_max:
            score += model.depth_bonus[unit.index - 1]
    return min(model.clamp_hi, max(model.clamp_lo, score))


# ---------------------------------------------------------------------------
# exhaustive expectations over the sampling distribution

def _unit_configs(unit, pin=None):
    """(probability, ratio, codes) triples for one unit.

    pin = (layer, block) reproduces the conditioned sampler: ratio forced by
    the pinned block when it carries one, depth uniform over the admissible
    range, the pinned slot fixed, every other slot an unconditioned uniform.
    """
    out = []
    ratios = unit.channel_ratios or (None,)
    if pin is not None and pin[1].channel_ratio is not None:
        ratios = (pin[1].channel_ratio,)
    for ratio in ratios:
        codes_all = [b.code for b in consistent_blocks(unit, ratio)]
        lo = unit.depth_min if pin is None else max(pin[0], unit.depth_min)
        n_depths = unit.depth_max - lo + 1
        for depth in range(lo, unit.depth_max + 1):
            slots = []
            for layer in range(1, depth + 1):
                if pin is not None and layer == pin[0]:
                    slots.append([pin[1].code])
                else:
                    slots.append(codes_all)
            base = (1.0 / len(ratios)) * (1.0 / n_depths)
            # every slot except a pinned one is uniform over the candidates
            n_free = depth - (1 if pin is not None else 0)
            p = base * (1.0 / len(codes_all)) ** n_free
            for combo in itertools.product(*slots):
                out.append((p, ratio, combo))
    return out


def exhaustive_archs(space, placement=None, resolution=None):
    """Yield (probability, arch) under the documented sampling scheme."""
    per_unit = []
    for unit in space.units:
        pin = None
        if placement is not None and placement.unit == unit.index:
            block = next(b for b in unit.blocks if b.code == placement.block_code)
            pin = (placement.layer, block)
        per_unit.append(_unit_configs(unit, pin))
    resolutions = space.resolutions if resolution is None else (resolution,)
    has_ratio = any(u.channel_ratios for u in space.units)
    for res in resolutions:
        p_res = 1.0 / len(resolutions)
        for choice in itertools.product(*per_unit):
            p = p_res
            for pc, _, _ in choice:
                p *= pc
            yield p, Architecture(
                space=space.name,
                resolution=res,
                depths=tuple(len(c[2]) for c in choice),
                blocks=tuple(c[2] for c in choice),
                channel_ratios=tuple(
                    (c[1] if c[1] is not None else 1.0) for c in choice
                )
                if has_ratio
                else (),
            )


def exact_expectation(space, fn, placement=None, resolution=None):
    """Sum of p(arch) * fn(arch) over the whole (conditioned) distribution."""
    total = 0.0
    mass = 0.0
    for p, arch in exhaustive_archs(space, placement, resolution):
        total += p * fn(arch)
        mass += p
    assert abs(mass - 1.0) < 1e-9, f"probability mass {mass}"
    return total


def exact_block_mean(space, code, fn):
    """Mean over hosting placements of the exact conditioned expectation."""
    from archscope.spaces import Placement

    means = []
    for unit in space.units:
        if not any(b.code == code for b in unit.blocks):
            continue
        for layer in range(1, unit.depth_max + 1):
            means.append(
                exact_expectation(space, fn, Placement(unit.index, layer, code))
            )
    return sum(means) / len(means)


# ---------------------------------------------------------------------------
# the sampling stream, read literally

def reference_sample_batch(space, rng, n, placement=None, resolution=None):
    """The n architectures of docs/FORMATS.md "Sampling stream", with every
    bound written out by plain loops: first rng.integers over the head
    bounds [1 + 2U, n] (the resolution row, then a ratio row and a depth row
    per unit, as [low, high) pairs), then over the block bounds [n, U, Lmax]
    (the candidates under the row's ratio below its depth, 1 elsewhere)."""
    lows, highs = [], []

    def row(low, high):
        lows.append([low] * n)
        highs.append([high] * n)

    if resolution is None:
        row(0, len(space.resolutions))
    else:
        fixed = list(space.resolutions).index(resolution)
        row(fixed, fixed + 1)
    pinned_unit = placement.unit if placement is not None else None
    for unit in space.units:
        ratios = list(unit.channel_ratios) or [None]
        if unit.index == pinned_unit:
            block = next(b for b in unit.blocks if b.code == placement.block_code)
            if unit.channel_ratios and block.channel_ratio is not None:
                fixed = ratios.index(block.channel_ratio)
                row(fixed, fixed + 1)
            else:
                row(0, len(ratios))
            row(max(placement.layer, unit.depth_min), unit.depth_max + 1)
        else:
            row(0, len(ratios))
            row(unit.depth_min, unit.depth_max + 1)
    head = rng.integers(np.array(lows), np.array(highs))

    lmax = max(unit.depth_max for unit in space.units)
    choices = []  # [i][u]: the candidate codes under row i's ratio of unit u
    block_bounds = []
    for i in range(n):
        choices.append([])
        block_bounds.append([])
        for u, unit in enumerate(space.units):
            ratio = (list(unit.channel_ratios) or [None])[int(head[1 + 2 * u][i])]
            codes = [b.code for b in consistent_blocks(unit, ratio)]
            depth = int(head[2 + 2 * u][i])
            choices[i].append(codes)
            block_bounds[i].append([len(codes) if l < depth else 1 for l in range(lmax)])
    picks = rng.integers(0, np.array(block_bounds))

    has_ratio = any(unit.channel_ratios for unit in space.units)
    archs = []
    for i in range(n):
        ratios, depths, blocks = [], [], []
        for u, unit in enumerate(space.units):
            depth = int(head[2 + 2 * u][i])
            codes = [choices[i][u][int(picks[i][u][l])] for l in range(depth)]
            if unit.index == pinned_unit:
                codes[placement.layer - 1] = placement.block_code
            r = (list(unit.channel_ratios) or [1.0])[int(head[1 + 2 * u][i])]
            ratios.append(r)
            depths.append(depth)
            blocks.append(tuple(codes))
        archs.append(Architecture(
            space=space.name,
            resolution=space.resolutions[int(head[0][i])],
            depths=tuple(depths),
            blocks=tuple(blocks),
            channel_ratios=tuple(ratios) if has_ratio else (),
        ))
    return archs


# ---------------------------------------------------------------------------
# quadratic Pareto oracle

def brute_frontier(vectors, directions):
    """Indices of non-dominated vectors, O(n^2) by definition."""
    norm = [
        tuple(m if d == "minimize" else -m for m, d in zip(v, directions))
        for v in vectors
    ]
    keep = []
    for i, a in enumerate(norm):
        dominated = False
        for j, b in enumerate(norm):
            if j == i:
                continue
            if all(x <= y for x, y in zip(b, a)) and any(x < y for x, y in zip(b, a)):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


def _dominates(a, b):
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def brute_fronts(norm):
    """Non-dominated fronts of all-minimize vectors by pairwise comparison,
    each front in ascending index order."""
    n = len(norm)
    dominated_by = [0] * n
    dominating = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if _dominates(norm[i], norm[j]):
                dominating[i].append(j)
                dominated_by[j] += 1
            elif _dominates(norm[j], norm[i]):
                dominating[j].append(i)
                dominated_by[i] += 1
    fronts = [[i for i in range(n) if dominated_by[i] == 0]]
    while True:
        nxt = []
        for i in fronts[-1]:
            for j in dominating[i]:
                dominated_by[j] -= 1
                if dominated_by[j] == 0:
                    nxt.append(j)
        if not nxt:
            return fronts
        fronts.append(sorted(nxt))


# ---------------------------------------------------------------------------
# reference search: one child at a time, string dedupe keys

def _reference_weights(space, unit_weights):
    if unit_weights is None:
        w = np.ones(space.n_units)
    else:
        w = np.asarray(unit_weights, dtype=float)
        if w.size != space.n_units or np.any(w < 0) or not np.any(w > 0):
            raise ValidationError(
                f"unit_weights must be {space.n_units} non-negative values with a positive sum"
            )
    return w / w.sum()


def reference_mutate(space, arch, rng, unit_weights=None):
    """The mutation operator that renormalises the unit weights and calls
    Generator.choice on every call; the applicable actions are the library's."""
    probs = _reference_weights(space, unit_weights)
    live = probs.copy()
    while np.any(live > 0):
        u = int(rng.choice(space.n_units, p=live / live.sum())) + 1
        actions = search._unit_actions(space, arch, u)
        if actions:
            break
        live[u - 1] = 0.0
    else:
        raise ValidationError(f"space {space.name!r} admits no mutation from this architecture")

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
    else:
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


def reference_evolve(space, config):
    """The elitist loop that mutates, evaluates and dedupes one architecture
    at a time, with arch_key strings as dedupe keys. Generation zero is the
    library's one sample_batch draw, evaluated row by row; the ranking
    helpers are the library's own."""
    rng_init = spawn_rng(config.seed, STREAM_SEARCH_INIT)
    rng_mut = spawn_rng(config.seed, STREAM_SEARCH_MUTATE)
    evaluations = 0

    def evaluate(arch, generation, parent_id, mutation):
        nonlocal evaluations
        try:
            metrics = tuple(ev.evaluate(arch) for ev in config.objectives)
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(
                f"objective evaluation failed: {exc}", record=arch_key(arch)
            ) from exc
        evaluations += 1
        return search.EvaluatedArch(
            arch=arch, metrics=metrics, eval_id=evaluations - 1, generation=generation,
            parent_id=parent_id, mutation=mutation,
        )

    genes = sample_batch(space, rng_init, config.population)
    population = [
        evaluate(genes.architecture(i), 0, -1, "") for i in range(config.population)
    ]
    all_points = list(population)
    seen = {arch_key(p.arch) for p in population}
    directions = config.directions()

    def stats(generation):
        return search.GenerationStats(
            generation=generation,
            evaluations=evaluations,
            best=search._best_per_objective(population, directions),
            median=search._median_per_objective(population),
        )

    history = [stats(0)]
    for gen in range(1, config.generations + 1):
        children = []
        for _ in range(config.children):
            parent = population[int(rng_mut.integers(len(population)))]
            child, desc = reference_mutate(space, parent.arch, rng_mut, config.unit_weights)
            if config.dedupe:
                tries = 0
                while arch_key(child) in seen and tries < search.DEDUPE_RETRIES:
                    child, desc = reference_mutate(space, parent.arch, rng_mut,
                                                   config.unit_weights)
                    tries += 1
            children.append(evaluate(child, gen, parent.eval_id, desc))
            seen.add(arch_key(child))
        all_points.extend(children)
        population = search._truncate(population + children, config.population, config)
        history.append(stats(gen))

    result = search.SearchResult(space=space.name, config={}, history=history,
                                 total_evaluations=evaluations)
    if len(config.objectives) == 1:
        sign = 1.0 if directions[0] == "minimize" else -1.0
        result.best = min(all_points, key=lambda p: (sign * p.metrics[0], p.eval_id))
    else:
        frontier = search.pareto_filter(all_points, directions)
        if config.dedupe:
            unique, kept = set(), []
            for p in frontier:
                key = arch_key(p.arch)
                if key not in unique:
                    unique.add(key)
                    kept.append(p)
            frontier = kept
        result.frontier = search.ParetoFront(
            objectives=tuple((ev.name, ev.direction) for ev in config.objectives),
            points=frontier,
        )
    return result


# ---------------------------------------------------------------------------
# resampling bootstrap of a percentile

def bootstrap_percentile_stderr(values, tau, resamples, rng, chunk_cells=1 << 21):
    """Resampling bootstrap standard error of the tau-percentile, and the
    Monte Carlo standard error of that estimate (delta method: se(sd) =
    sqrt((m4 - var**2) / B) / (2 sd)). Resamples are drawn with rng in
    chunks of at most chunk_cells indices, so large n stays small in memory."""
    values = np.asarray(values, dtype=float)
    n = values.size
    rows = max(1, chunk_cells // n)
    stats = []
    for start in range(0, resamples, rows):
        idx = rng.integers(0, n, size=(min(rows, resamples - start), n))
        stats.append(np.percentile(values[idx], tau, method="linear", axis=1))
    stats = np.concatenate(stats)
    sd = float(np.std(stats, ddof=1))
    if sd == 0.0:
        return 0.0, 0.0
    m4 = float(np.mean((stats - stats.mean()) ** 4))
    return sd, float(np.sqrt(max(m4 - sd**4, 0.0) / resamples) / (2.0 * sd))
