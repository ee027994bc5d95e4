"""The fast paths against the scalar code and the per-layer oracles.

Non-dominated fronts from the domination matrix must equal the pairwise front
sort. The memoised latency and precomputed accuracy evaluators, and every
evaluator's batch function over gene arrays, must equal the per-layer walkers
bit for bit (==, not approx). The sampler must draw exactly the
architectures that a loop-by-loop reading of the stream layout draws, and
its counts must fit the exactly enumerated distribution. The batched search
must return what the one-child-at-a-time reference search returns.
"""

import collections
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archscope import profiler
from archscope.costs import (
    MAXIMIZE,
    MINIMIZE,
    MetricEvaluator,
    accuracy_evaluator,
    default_accuracy_model,
    macs_evaluator,
    params_evaluator,
)
from archscope.devices import identity_profile, latency_evaluator, list_profiles, load_profile
from archscope.errors import EvaluationError, ValidationError
from archscope.reduction import apply, preset
from archscope.sampling import Genes, sample_batch, sample_uniform, spawn_rng
from archscope.search import (
    FITNESS_DOMINANCE,
    FITNESS_RANK_SUM,
    SearchConfig,
    UnitPicker,
    _fast_nondominated_fronts,
    evolve,
    mutate,
)
from archscope.spaces import (
    FAMILIES,
    RESNET_BOTTLENECK,
    Placement,
    arch_key,
    iter_placements,
    list_spaces,
    load_space,
    parse_space_config,
)
from archscope.tables import ADDITIVE, MetricTable, table_evaluator

from .oracles import (
    _unit_configs,
    brute_fronts,
    chi2_sf,
    reference_evolve,
    reference_mutate,
    reference_sample_batch,
    walker_accuracy,
    walker_latency,
    walker_macs,
    walker_params,
)

# a few repeated values make ties and equal vectors common
_VALUES = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def _objective_vectors(draw):
    m = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_VALUES, min_size=m, max_size=m), max_size=40))
    if rows:
        rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=5))]
    for k in range(m):
        if draw(st.booleans()):  # a constant column
            for row in rows:
                row[k] = 1.0
    return [tuple(row) for row in rows]


@settings(max_examples=300, deadline=None)
@given(_objective_vectors())
def test_fronts_match_pairwise_sort(norm):
    assert _fast_nondominated_fronts(norm) == brute_fronts(norm)


def test_fronts_of_a_chain_and_of_equal_points():
    assert _fast_nondominated_fronts([(3, 0), (2, 1), (1, 2), (2, 2), (3, 3)]) == [
        [0, 1, 2], [3], [4]]
    assert _fast_nondominated_fronts([(1.0, 1.0)] * 3) == [[0, 1, 2]]


_LATENCY_CASES = [
    (profile, space)
    for profile in list_profiles()
    for space in list_spaces()
    if load_space(space).family in load_profile(profile).families
]


@pytest.mark.parametrize("profile,space_name", _LATENCY_CASES)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_latency_evaluator_equals_walker(profile, space_name, seed):
    space = load_space(space_name)
    ev = latency_evaluator(space, profile)  # one memo across every resolution
    reference = load_profile(profile)
    rng = spawn_rng(seed)
    for resolution in space.resolutions:
        for _ in range(4):
            arch = sample_uniform(space, rng, resolution=resolution)
            assert ev.evaluate(arch) == walker_latency(space, arch, reference)


@pytest.mark.parametrize("space_name", list_spaces())
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_accuracy_evaluator_equals_walker(space_name, seed):
    space = load_space(space_name)
    ev = accuracy_evaluator(space)
    model = default_accuracy_model(space)
    rng = spawn_rng(seed)
    for resolution in space.resolutions:
        for _ in range(4):
            arch = sample_uniform(space, rng, resolution=resolution)
            assert ev.evaluate(arch) == walker_accuracy(space, arch, model)


# ---------------------------------------------------------------------------
# gene batches

_RATIOS = (0.5, 0.75, 1.0)


@st.composite
def _space_configs(draw, ratio_gene=None):
    """Small spaces that reach every k = 1 draw: one resolution, a fixed depth,
    one candidate, one ratio, or one candidate consistent with a ratio.
    ratio_gene=True gives a bottleneck space with a ratio gene, False a space
    without one."""
    family = RESNET_BOTTLENECK if ratio_gene else draw(st.sampled_from(FAMILIES))
    if ratio_gene is None:
        ratio_gene = family == RESNET_BOTTLENECK and draw(st.booleans())
    units = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.integers(1, 3))
        ratios = sorted(set(draw(st.lists(st.sampled_from(_RATIOS), min_size=1, max_size=3))))
        blocks = []
        for b in range(draw(st.integers(1, 4))):
            entry = {"code": f"B{b}", "kernel": draw(st.sampled_from((1, 3, 5)))}
            if family == RESNET_BOTTLENECK:
                entry["expansion"] = draw(st.sampled_from((0.2, 0.25, 0.5)))
                if ratio_gene and draw(st.booleans()):
                    entry["channel_ratio"] = draw(st.sampled_from(ratios))
            else:
                entry["expansion"] = draw(st.integers(1, 6))
            blocks.append(entry)
        for r in ratios if ratio_gene else ():
            if not any(b.get("channel_ratio") in (None, r) for b in blocks):
                blocks.append({"code": f"B{len(blocks)}", "kernel": 3, "expansion": 0.25,
                               "channel_ratio": r})
        units.append({
            "depth_min": lo,
            "depth_max": draw(st.integers(lo, 4)),
            "base_channels": draw(st.integers(4, 32)),
            "channel_ratios": ratios if ratio_gene else [],
            "blocks": blocks,
        })
    resolutions = draw(st.lists(st.sampled_from((16, 23, 32, 40)), min_size=1, max_size=3,
                                unique=True))
    return {"name": "prop", "family": family, "resolutions": resolutions, "units": units,
            "head": {"conv_channels": draw(st.sampled_from((0, 24))), "classes": 10}}


def _rows(genes):
    return [genes.architecture(i) for i in range(len(genes))]


@settings(max_examples=40, deadline=None)
@given(config=_space_configs(), seed=st.integers(0, 2**32 - 1))
def test_sample_batch_equals_the_reference_stream(config, seed):
    space = parse_space_config(config)
    for resolution in (None, *space.resolutions):
        for key, placement in enumerate((None, *iter_placements(space))):
            for n in (1, 6):
                ours, theirs = spawn_rng(seed, key), spawn_rng(seed, key)
                genes = sample_batch(space, ours, n, placement, resolution)
                assert _rows(genes) == reference_sample_batch(space, theirs, n, placement,
                                                              resolution)
                assert ours.integers(2**62) == theirs.integers(2**62)  # same generator state


def _fits(observed, expected, n):
    """Every observed outcome has positive probability, and the counts pass a
    chi-square test at p >= 1e-6. Outcomes expected fewer than 5 times share
    one cell, which joins the smallest other cell if it still expects fewer
    than 5."""
    assert set(observed) <= {key for key, p in expected.items() if p > 0}
    cells = sorted(((n * p, observed.get(key, 0)) for key, p in expected.items() if n * p >= 5),
                   reverse=True)
    short = [(n * p, observed.get(key, 0)) for key, p in expected.items() if n * p < 5]
    if short:
        cell = (sum(e for e, _ in short), sum(o for _, o in short))
        if cell[0] < 5 and cells:
            last = cells.pop()
            cell = (cell[0] + last[0], cell[1] + last[1])
        cells.append(cell)
    if len(cells) > 1:
        stat = sum((o - e) ** 2 / e for e, o in cells)
        assert chi2_sf(stat, len(cells) - 1) >= 1e-6, (stat, len(cells))


def _unit_outcomes(genes, u):
    """Counts of unit u's (channel ratio, block codes) over a batch: the joint
    of its ratio, depth and blocks."""
    unit = genes.space.units[u]
    ratios = unit.channel_ratios or (None,)
    rows, counts = np.unique(np.column_stack([genes.ratio[:, u], genes.block[:, u]]), axis=0,
                             return_counts=True)
    return {
        (ratios[row[0]], tuple(unit.blocks[b].code for b in row[1:] if b >= 0)): count
        for row, count in zip(rows.tolist(), counts.tolist())
    }


@pytest.mark.parametrize("ratio_gene", [False, True])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_sample_batch_matches_exact_enumeration(ratio_gene, data):
    space = parse_space_config(data.draw(_space_configs(ratio_gene)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    cases = [(None, None)]
    for unit in space.units:  # one pin per unit, at a drawn layer and block
        layer = data.draw(st.integers(1, unit.depth_max))
        code = data.draw(st.sampled_from(unit.blocks)).code
        cases.append((Placement(unit.index, layer, code),
                      data.draw(st.none() | st.sampled_from(space.resolutions))))
    n = 10_000
    for placement, resolution in cases:
        genes = sample_batch(space, spawn_rng(seed), n, placement, resolution)
        resolutions = space.resolutions if resolution is None else (resolution,)
        values, counts = np.unique(genes.resolution, return_counts=True)
        _fits({space.resolutions[v]: c for v, c in zip(values.tolist(), counts.tolist())},
              {r: 1 / len(resolutions) for r in resolutions}, n)
        for u, unit in enumerate(space.units):
            pin = None
            if placement is not None and placement.unit == unit.index:
                pin = (placement.layer, space.block(unit.index, placement.block_code))
            expected = collections.Counter()
            for p, ratio, codes in _unit_configs(unit, pin):
                expected[ratio, codes] += p
            _fits(_unit_outcomes(genes, u), expected, n)


@settings(max_examples=40, deadline=None)
@given(config=_space_configs(), seed=st.integers(0, 2**32 - 1))
def test_count_and_accuracy_batches_equal_walkers_on_random_spaces(config, seed):
    space = parse_space_config(config)
    model = default_accuracy_model(space)
    genes = sample_batch(space, spawn_rng(seed), 12)
    archs = _rows(genes)
    assert macs_evaluator(space).batch(genes).tolist() == [walker_macs(space, a) for a in archs]
    for bias in (False, True):
        assert params_evaluator(space, include_bias=bias).batch(genes).tolist() == [
            walker_params(space, a, include_bias=bias) for a in archs]
    # synthetic-acc cannot rank ratio-free bottleneck blocks beside ratio-bound ones
    ratios = {b.channel_ratio for u in space.units for b in u.blocks}
    if None in ratios and len(ratios) > 1:
        with pytest.raises(ValidationError, match=r"unit \d+ block 'B\d+': no channel_ratio"):
            accuracy_evaluator(space, model)
        return
    # the default model never reaches its clamps; a tight one clamps both ways
    for m in (model, replace(model, clamp_lo=70.3, clamp_hi=70.9)):
        assert accuracy_evaluator(space, m).batch(genes).tolist() == [
            walker_accuracy(space, a, m) for a in archs]


@pytest.mark.parametrize("profile,space_name", _LATENCY_CASES)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 10**6))
def test_latency_batch_equals_walker(profile, space_name, seed, pick):
    space = load_space(space_name)
    ev = latency_evaluator(space, profile)
    reference = load_profile(profile)
    placements = list(iter_placements(space))
    for resolution in space.resolutions:
        for placement in (None, placements[pick % len(placements)]):
            genes = sample_batch(space, spawn_rng(seed, resolution), 20, placement, resolution)
            assert ev.batch(genes).tolist() == [
                walker_latency(space, a, reference) for a in _rows(genes)]


@pytest.mark.parametrize("space_name", list_spaces())
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 10**6))
def test_count_and_accuracy_batches_equal_walkers(space_name, seed, pick):
    space = load_space(space_name)
    model = default_accuracy_model(space)
    placements = list(iter_placements(space))
    evaluators = (
        (macs_evaluator(space), lambda a: walker_macs(space, a)),
        (params_evaluator(space), lambda a: walker_params(space, a)),
        (accuracy_evaluator(space), lambda a: walker_accuracy(space, a, model)),
    )
    for resolution in space.resolutions:
        for placement in (None, placements[pick % len(placements)]):
            genes = sample_batch(space, spawn_rng(seed, resolution), 20, placement, resolution)
            for ev, walker in evaluators:
                assert ev.batch(genes).tolist() == [walker(a) for a in _rows(genes)]


def test_draw_samples_equals_the_scalar_loop_for_every_evaluator_kind(mini_space_2res):
    space = mini_space_2res
    entries = {(p.unit, p.layer, p.block_code): p.layer + i / 7
               for i, p in enumerate(iter_placements(space))}
    table = MetricTable(space=space.name, metric="lat", direction="minimize", units="ms",
                        kind=ADDITIVE, entries=entries,
                        resolution_constants={32: 0.25, 64: 1.0})
    evaluators = (
        macs_evaluator(space), params_evaluator(space), accuracy_evaluator(space),
        latency_evaluator(space, identity_profile(space)), table_evaluator(space, table),
    )
    assert evaluators[-1].batch is None  # decoded and evaluated row by row
    placement = next(iter_placements(space))
    for ev in evaluators:
        for p in (None, placement):
            got = profiler.draw_samples(space, ev, 25, seed=2, placement=p)
            rng = spawn_rng(2, *profiler._stream_key(p, space, None))
            assert got.values.tolist() == [
                ev.evaluate(a) for a in _rows(sample_batch(space, rng, 25, p))]


def test_batch_of_another_space_is_evaluated_row_by_row():
    ofa = load_space("ofa")
    reduced = apply(ofa, preset("ofa-npu"))  # fewer candidates: other block indices
    ev = macs_evaluator(ofa)
    genes = sample_batch(reduced, spawn_rng(0), 5)
    assert ev.batch(genes) is None
    assert ev.evaluate_batch(genes).tolist() == [ev.evaluate(a) for a in _rows(genes)]


# ---------------------------------------------------------------------------
# the batched search against the one-child-at-a-time reference

def _outcome(run, space, config):
    """The fields both searches must agree on, or the error they raise."""
    try:
        result = run(space, config)
    except (EvaluationError, ValidationError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "record", None)
    points = [result.best] if result.frontier is None else result.frontier.points
    return (
        result.history,
        result.total_evaluations,
        [(p.arch, p.metrics, p.eval_id, p.generation, p.parent_id, p.mutation)
         for p in points],
    )


def _objectives(space, names):
    walk = MetricEvaluator(name="walk", direction=MINIMIZE,  # no batch: row by row
                           fn=lambda arch: walker_macs(space, arch))
    try:
        acc = accuracy_evaluator(space)
    except ValidationError:  # ratio-free bottleneck blocks beside ratio-bound ones
        acc = params_evaluator(space)
    table = {"acc": acc, "macs": macs_evaluator(space), "walk": walk,
             "params": params_evaluator(space, include_bias=True)}
    return tuple(table[name] for name in names)


@settings(max_examples=60, deadline=None)
@given(config=_space_configs(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_evolve_equals_the_reference_search(config, seed, data):
    space = parse_space_config(config)
    names = data.draw(st.sampled_from([
        ("acc",), ("macs",), ("walk",), ("acc", "macs"), ("params", "walk"),
        ("acc", "macs", "params"),
    ]))
    weights = data.draw(st.none() | st.lists(
        st.sampled_from((0.0, 0.5, 1.0, 2.5)), min_size=space.n_units,
        max_size=space.n_units).filter(any))
    search_config = SearchConfig(
        objectives=_objectives(space, names),
        population=data.draw(st.integers(1, 6)),
        generations=data.draw(st.integers(1, 3)),
        children=data.draw(st.integers(1, 8)),
        seed=seed,
        unit_weights=None if weights is None else tuple(weights),
        dedupe=data.draw(st.booleans()),
        fitness_mode=data.draw(st.sampled_from((FITNESS_DOMINANCE, FITNESS_RANK_SUM))),
    )
    assert (_outcome(evolve, space, search_config)
            == _outcome(reference_evolve, space, search_config))


def _frozen_unit_space():
    """Unit 1 admits no mutation; unit 2 does, under a ratio gene."""
    return parse_space_config({
        "name": "frozen", "family": RESNET_BOTTLENECK, "resolutions": [32],
        "units": [
            {"depth_min": 2, "depth_max": 2, "base_channels": 8, "channel_ratios": [1.0],
             "blocks": [{"code": "A", "kernel": 3, "expansion": 0.25}]},
            {"depth_min": 1, "depth_max": 3, "base_channels": 16, "channel_ratios": [0.5, 1.0],
             "blocks": [{"code": "C50", "kernel": 3, "expansion": 0.25, "channel_ratio": 0.5},
                        {"code": "C100", "kernel": 3, "expansion": 0.25, "channel_ratio": 1.0},
                        {"code": "D100", "kernel": 3, "expansion": 0.5, "channel_ratio": 1.0}]},
        ],
    })


@pytest.mark.parametrize("weights", [None, (1.0, 1.0), (3.0, 0.5), (0.0, 1.0), (1.0, 0.0)])
@pytest.mark.parametrize("dedupe", [True, False])
def test_evolve_equals_the_reference_where_a_unit_cannot_move(weights, dedupe):
    space = _frozen_unit_space()
    for names in (("acc", "macs"), ("macs",)):
        config = SearchConfig(objectives=_objectives(space, names), population=4,
                              generations=3, children=10, seed=9, unit_weights=weights,
                              dedupe=dedupe)
        got = _outcome(evolve, space, config)
        assert got == _outcome(reference_evolve, space, config)
        if weights == (1.0, 0.0):  # only the frozen unit may be picked
            assert got[0] == "ValidationError" and "admits no mutation" in got[1]


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.sampled_from((0.0, 1e-3, 0.2, 1.0, 3.0, 7.5)), min_size=5,
                        max_size=5).filter(any),
       seed=st.integers(0, 2**32 - 1))
def test_cdf_pick_equals_generator_choice(weights, seed):
    space = load_space("ofa")
    picker = UnitPicker(space, weights)
    w = np.asarray(weights) / np.sum(weights)
    assert picker.probs.tolist() == w.tolist()
    ours, theirs = spawn_rng(seed), spawn_rng(seed)
    for _ in range(20):
        assert picker.pick(ours) == int(theirs.choice(5, p=w / w.sum())) + 1
    assert ours.random() == theirs.random()  # one double per pick on both sides


@settings(max_examples=40, deadline=None)
@given(config=_space_configs(), seed=st.integers(0, 2**32 - 1))
def test_mutate_equals_the_reference_mutation(config, seed):
    space = parse_space_config(config)
    archs = [sample_uniform(space, spawn_rng(seed, 1)) for _ in range(5)]
    ours, theirs = spawn_rng(seed, 2), spawn_rng(seed, 2)
    picker = UnitPicker(space)
    for arch in archs:
        for weights in (None, picker):
            try:
                got = mutate(space, arch, ours, weights)
            except ValidationError as exc:
                got = str(exc)
            try:
                expected = reference_mutate(space, arch, theirs)
            except ValidationError as exc:
                expected = str(exc)
            assert got == expected


@settings(max_examples=40, deadline=None)
@given(config=_space_configs(), seed=st.integers(0, 2**32 - 1))
def test_genes_round_trip_sampled_and_mutated_architectures(config, seed):
    space = parse_space_config(config)
    genes = sample_batch(space, spawn_rng(seed), 8)
    sampled = _rows(genes)
    again = Genes.from_architectures(space, sampled)
    for name in ("resolution", "ratio", "depth", "block"):
        assert np.array_equal(getattr(again, name), getattr(genes, name)), name
    rng = spawn_rng(seed, 1)
    mutated = []
    for arch in sampled:
        try:
            mutated.append(mutate(space, arch, rng)[0])
        except ValidationError:  # nothing in this space can move
            break
    for archs in (sampled, mutated):
        assert _rows(Genes.from_architectures(space, archs)) == archs


def test_from_architectures_rejects_non_members():
    space = load_space("ofa")
    arch = sample_uniform(space, spawn_rng(0))
    bad = [
        replace(arch, space="proxylessnas"),
        replace(arch, resolution=200),
        replace(arch, depths=(1, *arch.depths[1:])),  # depth disagrees with the codes
        replace(arch, blocks=(("nope",) * arch.depths[0], *arch.blocks[1:])),
        replace(arch, channel_ratios=(1.0,) * 5),  # ofa has no ratio gene
    ]
    for other in bad:
        with pytest.raises(ValidationError, match="architecture 1 is not a member"):
            Genes.from_architectures(space, [arch, other])


def _failing(space, bad_arch, kind):
    """A macs objective that fails for one architecture: by raising, from the
    metric function and the batch function alike or from a metric function
    without a batch, or with a NaN from both functions."""
    ev = macs_evaluator(space)

    def fn(arch):
        if arch == bad_arch:
            if kind == "nan":
                return float("nan")
            raise RuntimeError("backend lost")
        return ev.fn(arch)

    def batch(genes):
        values = ev.batch(genes)
        bad = [i for i, a in enumerate(_rows(genes)) if a == bad_arch]
        if bad and kind == "raise":
            raise RuntimeError("batch backend lost")
        values[bad] = np.nan
        return values

    return MetricEvaluator(name="flaky", direction=MINIMIZE, fn=fn,
                           batch=None if kind == "no-batch" else batch)


def _evaluated(space, config):
    """(generation, arch) of every evaluation the reference search makes."""
    seen = []
    objective = config.objectives[0]

    def fn(arch):
        seen.append(arch)
        return objective.fn(arch)

    recording = MetricEvaluator(name=objective.name, direction=objective.direction, fn=fn)
    reference_evolve(space, replace(config, objectives=(recording, *config.objectives[1:])))
    sizes = [config.population] + [config.children] * config.generations
    generations = [g for g, size in enumerate(sizes) for _ in range(size)]
    return list(zip(generations, seen))


@pytest.mark.parametrize("kind", ["raise", "no-batch", "nan"])
@pytest.mark.parametrize("generation,k", [(0, 3), (1, 0), (2, 5)])
def test_objective_failing_at_child_k_raises_the_scalar_error(kind, generation, k):
    space = load_space("ofa")
    config = SearchConfig(objectives=(accuracy_evaluator(space), macs_evaluator(space)),
                          population=6, generations=2, children=8, seed=11)
    bad = [arch for g, arch in _evaluated(space, config) if g == generation][k]
    failing = replace(config, objectives=(config.objectives[0], _failing(space, bad, kind)))
    with pytest.raises(EvaluationError) as ours:
        evolve(space, failing)
    with pytest.raises(EvaluationError) as reference:
        reference_evolve(space, failing)
    assert str(ours.value) == str(reference.value)
    assert ours.value.record == reference.value.record == arch_key(bad)
    expected = "non-finite value nan" if kind == "nan" else "backend lost"
    assert expected in str(ours.value) and "batch" not in str(ours.value)
