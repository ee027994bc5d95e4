"""Independent oracles the tests compare the library against.

Everything here is deliberately written from scratch, in a different style
from the package, so agreement is evidence rather than tautology: a per-layer
MAC/parameter walker that simulates the shape chain op by op, per-layer
latency and synthetic-accuracy walkers that recompute every factor on every
layer, an exhaustive expectation calculator that enumerates the sampling
distribution with explicit probability weights, the random stream
(docs/FORMATS.md, "Random stream") in plain Python integers one word at a
time, a literal loop-by-loop reading of the sampling layout, a
quadratic-time Pareto filter, front sort and truncation ranking, and a
plain-loop metric-table sum. reference_evolve and reference_mutate read the
search's words one child at a time: they decode each child's unit double and
words with loops over the architecture's own genes (not the library's
tables), dedupe with arch_key strings, and rank and summarise with the
pairwise code here. bootstrap_percentile_stderr is the library's earlier code, the
resampling bootstrap that the exact percentile standard errors replaced,
kept as a referee for them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

from archscope import search
from archscope.errors import EvaluationError, ValidationError
from archscope.mutation import DEDUPE_RETRIES
from archscope.sampling import STREAM_SEARCH_INIT, STREAM_SEARCH_MUTATE
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


def walker_table(table, arch):
    """A metric table's value by a plain loop: an additive table's resolution
    constant (0.0 without one) plus each present layer's entry, added unit by
    unit and layer by layer; an exact table's value for the SHA-256 of the
    architecture's canonical record. A missing entry raises KeyError."""
    if table.kind == "exact":
        record = {"format_version": 1, "space": arch.space, "resolution": arch.resolution,
                  "depths": list(arch.depths), "blocks": [list(c) for c in arch.blocks],
                  "channel_ratios": list(arch.channel_ratios)}
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        return float(table.entries[hashlib.sha256(text.encode()).hexdigest()])
    total = float(table.resolution_constants.get(arch.resolution, 0.0))
    for u, codes in enumerate(arch.blocks, start=1):
        for layer, code in enumerate(codes, start=1):
            total += float(table.entries[(u, layer, code)])
    return total


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
# the random stream, one word at a time

_WORD = 2**64
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z):
    """The SplitMix64 finalizer on a Python integer below 2**64."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % _WORD
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % _WORD
    return z ^ (z >> 31)


class ReferenceStream:
    """docs/FORMATS.md "Random stream" in Python integers: the origin s and
    the odd increment gamma from the seed's limbs and the key, then word i
    (from 1) = mix64(s + i * gamma) and rejection word by word."""

    def __init__(self, seed, *key):
        limbs = [seed % _WORD]
        while seed >= _WORD:
            seed //= _WORD
            limbs.append(seed % _WORD)
        h = 0
        for value in [len(limbs), *limbs, len(key), *key]:
            h = _mix64(((h + _GOLDEN) % _WORD) ^ value)
        self.s = _mix64((h + _GOLDEN) % _WORD)
        gamma = _mix64((h + 2 * _GOLDEN) % _WORD) | 1
        if bin(gamma ^ (gamma >> 1)).count("1") < 24:
            gamma ^= 0xAAAAAAAAAAAAAAAA
        self.gamma = gamma
        self.index = 0  # words read

    def word(self):
        self.index += 1
        return _mix64((self.s + self.index * self.gamma) % _WORD)

    def words(self, count):
        return [self.word() for _ in range(count)]

    def below(self, bound, count):
        """count words, each rejected one replaced in order by the next
        accepted word after them, each taken modulo bound."""
        limit = _WORD - _WORD % bound
        words = self.words(count)
        for j in range(count):
            while words[j] >= limit:
                words[j] = self.word()
        return [w % bound for w in words]

    def doubles(self, count):
        return [(w >> 11) / 2**53 for w in self.words(count)]


# ---------------------------------------------------------------------------
# the sampling layout, read literally

def _lcm(values):
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def reference_sampling_bound(space):
    """L: the lcm of the resolution count and, per unit, its ratio count,
    every depth range 1 .. depth_max - depth_min + 1 and the candidate count
    under each ratio."""
    bounds = [len(space.resolutions)]
    for unit in space.units:
        ratios = list(unit.channel_ratios) or [None]
        bounds.append(len(ratios))
        bounds.extend(range(1, unit.depth_max - unit.depth_min + 2))
        bounds.extend(len(consistent_blocks(unit, r)) for r in ratios)
    return _lcm(bounds)


def reference_sample_batch(space, stream, n, placement=None, resolution=None):
    """The n architectures of docs/FORMATS.md "Random stream" from a
    ReferenceStream: below(L, n * W), then per architecture its W words read
    one gene at a time: the resolution, each unit's ratio, each unit's depth,
    then each unit's Lmax block slots, every gene its word modulo its bound."""
    units = space.units
    lmax = max(unit.depth_max for unit in units)
    width = 1 + 2 * len(units) + len(units) * lmax
    values = stream.below(reference_sampling_bound(space), n * width)
    has_ratio = any(unit.channel_ratios for unit in units)
    archs = []
    for i in range(n):
        words = values[i * width : (i + 1) * width]
        res = words[0]
        if resolution is None:
            chosen = space.resolutions[res % len(space.resolutions)]
        else:
            chosen = resolution
        ratios, depths, blocks = [], [], []
        for u, unit in enumerate(units):
            choices = list(unit.channel_ratios) or [None]
            ratio = choices[words[1 + u] % len(choices)]
            low = unit.depth_min
            pinned = placement is not None and placement.unit == unit.index
            if pinned:
                block = next(b for b in unit.blocks if b.code == placement.block_code)
                if unit.channel_ratios and block.channel_ratio is not None:
                    ratio = block.channel_ratio
                low = max(placement.layer, unit.depth_min)
            depth = low + words[1 + len(units) + u] % (unit.depth_max - low + 1)
            codes = [b.code for b in consistent_blocks(unit, ratio)]
            first_slot = 1 + 2 * len(units) + u * lmax
            layer_codes = [codes[words[first_slot + l] % len(codes)] for l in range(depth)]
            if pinned:
                layer_codes[placement.layer - 1] = placement.block_code
            ratios.append(1.0 if ratio is None else ratio)
            depths.append(depth)
            blocks.append(tuple(layer_codes))
        archs.append(Architecture(
            space=space.name,
            resolution=chosen,
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
# reference search: the search stream read one child at a time, string keys

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


def _reference_actions(space, unit, depth, ratio):
    """A unit's applicable actions in draw order at a depth and ratio, each
    with the bounds its words are reduced by."""
    codes = [b.code for b in consistent_blocks(unit, ratio)]
    checks = [
        ("add_layer", depth < unit.depth_max, [len(codes)]),
        ("remove_layer", depth > unit.depth_min, [depth]),
        ("change_block", len(codes) > 1, [depth, len(codes) - 1]),
        ("change_ratio", len(unit.channel_ratios) > 1,
         [len(unit.channel_ratios) - 1] + [len(consistent_blocks(unit, other))
                                           for other in unit.channel_ratios if other != ratio]),
        ("change_resolution", len(space.resolutions) > 1, [len(space.resolutions) - 1]),
    ]
    return [(name, bounds) for name, ok, bounds in checks if ok]


def _reference_word_bound(space):
    """L: the least common multiple of the action count and every bound
    each applicable action uses, over every unit, ratio and depth."""
    bounds = []
    for unit in space.units:
        for ratio in unit.channel_ratios or [None]:
            for depth in range(unit.depth_min, unit.depth_max + 1):
                actions = _reference_actions(space, unit, depth, ratio)
                bounds += [len(actions)] * bool(actions) + [b for _, bs in actions for b in bs]
    return _lcm(bounds)


def _reference_draw(space, doubles, words, n):
    """The n unit doubles and the n rows of words of one mutation batch, from
    two ReferenceStreams (or one, doubles first)."""
    width = 3 + max(unit.depth_max for unit in space.units)
    xs = doubles.doubles(n)
    values = words.below(_reference_word_bound(space), n * width)
    return xs, [values[i * width : (i + 1) * width] for i in range(n)]


def _reference_decode(space, arch, probs, x, words):
    """The child of arch and its description, from one unit double and one
    row of words, read as docs/FORMATS.md "Search draws" states."""
    ratios = list(arch.channel_ratios)
    actions = []
    for u, unit in enumerate(space.units):
        ratio = ratios[u] if ratios else None
        actions.append(_reference_actions(space, unit, arch.depths[u], ratio))
    live = [p if acts else 0.0 for p, acts in zip(probs, actions)]
    if not any(live):
        raise ValidationError(f"space {space.name!r} admits no mutation from this architecture")
    # the choice(n, p) law: the first unit whose normalised CDF exceeds x
    cdf = np.cumsum(np.array(live) / np.sum(live))
    cdf = cdf / cdf[-1]
    u = 1
    while cdf[u - 1] <= x:
        u += 1

    unit = space.unit(u)
    names = [name for name, _ in actions[u - 1]]
    action = names[int(words[0]) % len(names)]
    arg, second, redraws = int(words[1]), int(words[2]), [int(w) for w in words[3:]]
    depths = list(arch.depths)
    blocks = [list(codes) for codes in arch.blocks]
    resolution = arch.resolution
    ratio = ratios[u - 1] if ratios else None

    if action == "add_layer":
        choices = [b.code for b in consistent_blocks(unit, ratio)]
        code = choices[arg % len(choices)]
        blocks[u - 1].append(code)
        depths[u - 1] += 1
        desc = f"add_layer:u{u}:{code}"
    elif action == "remove_layer":
        pos = arg % depths[u - 1]
        removed = blocks[u - 1].pop(pos)
        depths[u - 1] -= 1
        desc = f"remove_layer:u{u}l{pos + 1}:{removed}"
    elif action == "change_block":
        pos = arg % depths[u - 1]
        old = blocks[u - 1][pos]
        choices = [b.code for b in consistent_blocks(unit, ratio) if b.code != old]
        new = choices[second % len(choices)]
        blocks[u - 1][pos] = new
        desc = f"change_block:u{u}l{pos + 1}:{old}->{new}"
    elif action == "change_ratio":
        choices = [r for r in unit.channel_ratios if r != ratio]
        new = choices[arg % len(choices)]
        ratios[u - 1] = new
        remap = {}
        for b in consistent_blocks(unit, ratio):
            for nb in consistent_blocks(unit, new):
                if nb.expansion == b.expansion and nb.kernel == b.kernel:
                    remap[b.code] = nb.code
        fallback = [b.code for b in consistent_blocks(unit, new)]
        blocks[u - 1] = [remap[c] if c in remap else fallback[redraws[l] % len(fallback)]
                         for l, c in enumerate(blocks[u - 1])]
        desc = f"change_ratio:u{u}:{ratio}->{new}"
    else:
        choices = [r for r in space.resolutions if r != resolution]
        resolution = choices[arg % len(choices)]
        desc = f"change_resolution:{arch.resolution}->{resolution}"

    child = Architecture(
        space=arch.space,
        resolution=resolution,
        depths=tuple(depths),
        blocks=tuple(tuple(c) for c in blocks),
        channel_ratios=tuple(ratios),
    )
    return child, desc


def reference_mutate(space, arch, stream, unit_weights=None):
    """One mutation: a batch of one unit double and one row of words, both
    from the one stream."""
    probs = _reference_weights(space, unit_weights)
    x, words = _reference_draw(space, stream, stream, 1)
    return _reference_decode(space, arch, probs, x[0], words[0])


def _pairwise_rank(norm, size, fitness_mode, fronts=None):
    """The ranking that evolve's truncation must reproduce, one point at a
    time: metric order for one objective; rank sums; or the pairwise fronts
    of brute_fronts (or the given ones) with crowding distances summed point
    by point."""
    n, m = len(norm), len(norm[0])
    if m == 1:
        return sorted(range(n), key=lambda i: (norm[i][0], i))[:size]
    if fitness_mode == search.FITNESS_RANK_SUM:
        totals = [0.0] * n
        for k in range(m):
            order = sorted(range(n), key=lambda i: norm[i][k])
            i = 0
            while i < n:
                j = i
                while j + 1 < n and norm[order[j + 1]][k] == norm[order[i]][k]:
                    j += 1
                for t in range(i, j + 1):
                    totals[order[t]] += (i + j) / 2
                i = j + 1
        return sorted(range(n), key=lambda i: (totals[i], i))[:size]
    chosen = []
    for front in fronts or brute_fronts(norm):
        if len(chosen) + len(front) <= size:
            chosen.extend(front)
            if len(chosen) == size:
                break
            continue
        dist = {i: 0.0 for i in front}
        for k in range(m):
            ordered = sorted(front, key=lambda i: norm[i][k])
            lo, hi = norm[ordered[0]][k], norm[ordered[-1]][k]
            dist[ordered[0]] = dist[ordered[-1]] = float("inf")
            if hi == lo:
                continue
            for a, b, c in zip(ordered, ordered[1:], ordered[2:]):
                dist[b] += (norm[c][k] - norm[a][k]) / (hi - lo)
        chosen.extend(sorted(front, key=lambda i: (-dist[i], i))[: size - len(chosen)])
        break
    return chosen


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def reference_evolve(space, config):
    """The elitist loop that decodes, dedupes and evaluates one architecture
    at a time, with arch_key strings as dedupe keys: each generation draws
    its parents, unit doubles and words as the search stream states, and
    decodes every child before it evaluates any. Generation zero is
    reference_sample_batch, evaluated row by row. Truncation, statistics and
    the frontier come from the pairwise code above, in plain lists."""
    evaluations = 0

    def evaluate(arch, generation, parent_id, mutation):
        nonlocal evaluations
        metrics = []
        for ev in config.objectives:
            try:
                metrics.append(ev.evaluate(arch))
            except EvaluationError:
                raise
            except Exception as exc:
                raise EvaluationError(
                    f"evaluator {ev.name!r} failed: {exc}", record=arch_key(arch)
                ) from exc
        metrics = tuple(metrics)
        evaluations += 1
        return search.EvaluatedArch(
            arch=arch, metrics=metrics, eval_id=evaluations - 1, generation=generation,
            parent_id=parent_id, mutation=mutation,
        )

    first = reference_sample_batch(space, ReferenceStream(config.seed, STREAM_SEARCH_INIT),
                                   config.population)
    population = [evaluate(arch, 0, -1, "") for arch in first]
    all_points = list(population)
    seen = {arch_key(p.arch) for p in population}
    directions = config.directions()

    def normed(points):
        return [tuple(v if d == "minimize" else -v for v, d in zip(p.metrics, directions))
                for p in points]

    def stats(generation):
        columns = list(zip(*(p.metrics for p in population)))
        return search.GenerationStats(
            generation=generation,
            evaluations=evaluations,
            best=tuple(min(c) if d == "minimize" else max(c) for c, d in zip(columns, directions)),
            median=tuple(_median(c) for c in columns),
        )

    history = [stats(0)]
    probs = _reference_weights(space, config.unit_weights)
    retries = DEDUPE_RETRIES
    for gen in range(1, config.generations + 1):
        picks, doubles, words, retry_doubles, retry_words = [
            ReferenceStream(config.seed, STREAM_SEARCH_MUTATE, gen, part) for part in range(5)]
        picks = picks.below(len(population), config.children)
        xs, words = _reference_draw(space, doubles, words, config.children)
        parents = [population[int(i)] for i in picks]
        drafts = [_reference_decode(space, parent.arch, probs, x, row)
                  for parent, x, row in zip(parents, xs, words)]
        if config.dedupe:
            duplicates = []
            for k, (child, _) in enumerate(drafts):
                if arch_key(child) in seen:
                    duplicates.append(k)
                else:
                    seen.add(arch_key(child))
            if duplicates:
                xs, words = _reference_draw(space, retry_doubles, retry_words,
                                            len(duplicates) * retries)
                for j, k in enumerate(duplicates):
                    tries = [_reference_decode(space, parents[k].arch, probs,
                                               xs[j * retries + t], words[j * retries + t])
                             for t in range(retries)]
                    unseen = [t for t in tries if arch_key(t[0]) not in seen]
                    drafts[k] = unseen[0] if unseen else tries[-1]
                    seen.add(arch_key(drafts[k][0]))
        children = [evaluate(child, gen, parent.eval_id, desc)
                    for parent, (child, desc) in zip(parents, drafts)]
        all_points.extend(children)
        merged = population + children
        keep = _pairwise_rank(normed(merged), config.population, config.fitness_mode)
        population = [merged[i] for i in keep]
        history.append(stats(gen))

    result = search.SearchResult(space=space.name, config={}, history=history,
                                 total_evaluations=evaluations)
    if len(config.objectives) == 1:
        sign = 1.0 if directions[0] == "minimize" else -1.0
        result.best = min(all_points, key=lambda p: (sign * p.metrics[0], p.eval_id))
    else:
        norm = normed(all_points)
        keep = sorted(brute_frontier([p.metrics for p in all_points], directions),
                      key=lambda i: (norm[i], i))
        frontier = [all_points[i] for i in keep]
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
