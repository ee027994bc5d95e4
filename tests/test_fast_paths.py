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
from archscope.devices import (
    DeviceProfile,
    identity_profile,
    latency_evaluator,
    list_profiles,
    load_profile,
)
from archscope.errors import EvaluationError, ValidationError
from archscope.mutation import UnitPicker, mutation_tables
from archscope.reduction import apply, list_rulesets, preset
from archscope.sampling import Genes, Stream, sample_batch, sample_fixed, sample_uniform
from archscope.search import (
    FITNESS_DOMINANCE,
    FITNESS_RANK_SUM,
    SearchConfig,
    _fronts,
    _rank,
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
    validate_architecture,
)
from archscope.tables import ADDITIVE, MetricTable, table_evaluator

from .conftest import build_mini_ratio_space, build_mini_space
from .oracles import (
    ReferenceStream,
    _pairwise_rank,
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
    walker_table,
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


def _front_lists(norm):
    """Every front _fronts peels, as index lists."""
    return [front.tolist() for front in _fronts(norm)]


@settings(max_examples=300, deadline=None)
@given(_objective_vectors())
def test_fronts_match_pairwise_sort(norm):
    assert _front_lists(norm) == brute_fronts(norm)


def test_fronts_of_a_chain_and_of_equal_points():
    assert _front_lists([(3, 0), (2, 1), (1, 2), (2, 2), (3, 3)]) == [[0, 1, 2], [3], [4]]
    assert _front_lists([(1.0, 1.0)] * 3) == [[0, 1, 2]]


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
    rng = Stream(seed)
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
    rng = Stream(seed)
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
                ours, theirs = Stream(seed, key), ReferenceStream(seed, key)
                genes = sample_batch(space, ours, n, placement, resolution)
                assert _rows(genes) == reference_sample_batch(space, theirs, n, placement,
                                                              resolution)
                assert ours.position == theirs.index  # the same words read


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
        genes = sample_batch(space, Stream(seed), n, placement, resolution)
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


# awkward factors: thirds, tenths, an exact power of two, a large and a tiny one
_FACTORS = st.sampled_from((1 / 3, 0.1, 0.5, 2.0, 3.2, 7e3)) | st.floats(1e-3, 1e3)


def _random_profile(space, data):
    """A device profile that prices every layer of every member of space."""
    blocks = [b for unit in space.units for b in unit.blocks]

    def factors(keys):
        return {k: data.draw(_FACTORS) for k in sorted(keys)}

    cost = data.draw(_FACTORS)
    if data.draw(st.booleans()):  # per unit a scalar or one cost per layer
        cost = {unit.index: data.draw(_FACTORS | st.lists(
            _FACTORS, min_size=unit.depth_max, max_size=unit.depth_max))
                for unit in space.units}
    templates = data.draw(st.lists(st.sampled_from((*space.resolutions, 48)), min_size=1,
                                   max_size=3, unique=True))
    return DeviceProfile(
        name="random",
        families=(space.family,),
        kernel_factor=factors({b.kernel for b in blocks}),
        expansion_factor=factors({b.expansion for b in blocks}),
        ratio_factor=factors({b.channel_ratio for b in blocks} - {None}),
        unit_scale={u.index: data.draw(_FACTORS) for u in space.units if data.draw(st.booleans())},
        layer_cost_ms=cost,
        resolution_templates=tuple(sorted({*templates, max(space.resolutions)})),
        fixed_overhead_ms=data.draw(st.sampled_from((0.0, 1 / 3, 15.0))),
        pad_cost_ms=data.draw(st.sampled_from((0.0, 0.4, 1 / 7))),
    )


def _random_table(space, data):
    """An additive table with an entry for every placement of space."""
    values = st.sampled_from((0.0, -0.0, 1 / 3, -2 / 3, 1e-300, 3e15)) | st.floats(-1e3, 1e3)
    return MetricTable(space=space.name, metric="t", direction=MINIMIZE, units="",
                       kind=ADDITIVE, entries={p.key(): data.draw(values)
                                               for p in iter_placements(space)},
                       resolution_constants={r: data.draw(values) for r in space.resolutions})


def _lowered_cases(space, data):
    """(evaluator, walker) for every kind of lowered metric on space: MACs,
    params with and without bias, synthetic-acc with its default clamps and
    with clamps tight enough to bind both ways, a device profile and an
    additive table. synthetic-acc is left out where it cannot rank the blocks."""
    model = default_accuracy_model(space)
    profile, table = _random_profile(space, data), _random_table(space, data)
    cases = [
        (macs_evaluator(space), lambda a: walker_macs(space, a)),
        (params_evaluator(space), lambda a: walker_params(space, a)),
        (params_evaluator(space, include_bias=True),
         lambda a: walker_params(space, a, include_bias=True)),
        (latency_evaluator(space, profile), lambda a: walker_latency(space, a, profile)),
        (table_evaluator(space, table), lambda a: walker_table(table, a)),
    ]
    ratios = {b.channel_ratio for u in space.units for b in u.blocks}
    if None in ratios and len(ratios) > 1:
        with pytest.raises(ValidationError, match=r"unit \d+ block '[^']+': no channel_ratio"):
            accuracy_evaluator(space, model)
        return cases
    for m in (model, replace(model, clamp_lo=70.3, clamp_hi=70.9)):
        cases.append((accuracy_evaluator(space, m),
                      lambda a, m=m: walker_accuracy(space, a, m)))
    return cases


def _assert_bit_for_bit(cases, genes):
    """Every evaluator's batch, and its fn row by row, give the walker's
    value to the last bit and sign: float .hex(), so -0.0 is not 0.0."""
    archs = _rows(genes)
    for ev, walker in cases:
        expected = [float(walker(a)).hex() for a in archs]
        assert [v.hex() for v in ev.evaluate_batch(genes).tolist()] == expected, ev.name
        assert [ev.evaluate(a).hex() for a in archs] == expected, ev.name


@settings(max_examples=40, deadline=None)
@given(config=_space_configs(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_every_lowered_metric_equals_its_walker_bit_for_bit_on_random_spaces(config, seed, data):
    space = parse_space_config(config)
    _assert_bit_for_bit(_lowered_cases(space, data), sample_batch(space, Stream(seed), 12))


@pytest.mark.parametrize("name", list_rulesets())
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_every_lowered_metric_equals_its_walker_on_each_preset_space(name, seed, data):
    # the pareto workload scores a reduced space; walker_accuracy ranks block
    # capacity over the space it is handed, as accuracy_evaluator does
    ruleset = preset(name)
    space = apply(load_space(ruleset.space), ruleset)
    cases = _lowered_cases(space, data)
    cases += [(latency_evaluator(space, p), lambda a, p=load_profile(p): walker_latency(space, a, p))
              for p in list_profiles() if space.family in load_profile(p).families]
    _assert_bit_for_bit(cases, sample_batch(space, Stream(seed), 40))


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
            genes = sample_batch(space, Stream(seed, resolution), 20, placement, resolution)
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
            genes = sample_batch(space, Stream(seed, resolution), 20, placement, resolution)
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
    assert evaluators[-1].batch is not None  # lowered like a device profile
    placement = next(iter_placements(space))
    for ev in evaluators:
        for p in (None, placement):
            got = profiler.draw_samples(space, ev, 25, seed=2, placement=p)
            rng = Stream(2, *profiler._stream_key(p, space, None))
            assert got.values.tolist() == [
                ev.evaluate(a) for a in _rows(sample_batch(space, rng, 25, p))]


def test_batch_of_another_space_is_evaluated_row_by_row():
    ofa = load_space("ofa")
    reduced = apply(ofa, preset("ofa-npu"))  # fewer candidates: other block indices
    ev = macs_evaluator(ofa)
    genes = sample_batch(reduced, Stream(0), 5)
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


def test_evolve_equals_the_reference_search_at_benchmark_size():
    """The benchmark's search: ofa-npu, synthetic-acc and MACs, P100 G10 K200,
    the preset's unit weights. Only at this size do the crowding of a large
    overflowing front and the chunks of the Pareto filter carry weight."""
    ruleset = preset("ofa-npu")
    space = apply(load_space("ofa"), ruleset)
    config = SearchConfig(objectives=(accuracy_evaluator(space), macs_evaluator(space)),
                          population=100, generations=10, children=200, seed=0,
                          unit_weights=tuple(ruleset.advisory["unit_weights"]))
    got = _outcome(evolve, space, config)
    assert got[1] == 2100 and len(got[2]) > 1
    assert got == _outcome(reference_evolve, space, config)


def test_evolve_builds_architectures_only_for_its_result(monkeypatch):
    space = load_space("ofa")
    built = []
    architecture = Genes.architecture

    def counting(self, i):
        built.append(i)
        return architecture(self, i)

    def forbidden(cls, space, archs):
        raise AssertionError("evolve converted architectures to genes")

    monkeypatch.setattr(Genes, "architecture", counting)
    monkeypatch.setattr(Genes, "from_architectures", classmethod(forbidden))
    for objectives in ((accuracy_evaluator(space), macs_evaluator(space)),
                       (macs_evaluator(space),)):
        built.clear()
        result = evolve(space, SearchConfig(objectives=objectives, population=20,
                                            generations=3, children=30, seed=1))
        points = [result.best] if result.frontier is None else result.frontier.points
        assert sorted(built) == sorted(p.eval_id for p in points)


def _ranking_config(directions, fitness_mode):
    objectives = tuple(MetricEvaluator(name=f"m{k}", direction=d, fn=lambda arch: 0.0)
                       for k, d in enumerate(directions))
    return SearchConfig(objectives=objectives, fitness_mode=fitness_mode)


@settings(max_examples=300, deadline=None)
@given(vectors=_objective_vectors().filter(bool), data=st.data())
def test_rank_equals_the_pairwise_ranking(vectors, data):
    m = len(vectors[0])
    directions = tuple(data.draw(st.lists(st.sampled_from((MINIMIZE, MAXIMIZE)),
                                          min_size=m, max_size=m)))
    config = _ranking_config(directions, data.draw(
        st.sampled_from((FITNESS_DOMINANCE, FITNESS_RANK_SUM))))
    norm = [tuple(v if d == MINIMIZE else -v for v, d in zip(row, directions))
            for row in vectors]
    # cut into a front: any size between its first and its last point
    fronts = brute_fronts(norm)
    k = data.draw(st.integers(0, len(fronts) - 1))
    size = sum(map(len, fronts[:k])) + data.draw(st.integers(1, len(fronts[k])))
    got = _rank(np.array(vectors, dtype=float), size, config).tolist()
    assert got == _pairwise_rank(norm, size, config.fitness_mode)


@pytest.mark.parametrize("fitness_mode", [FITNESS_DOMINANCE, FITNESS_RANK_SUM])
def test_rank_equals_the_pairwise_ranking_at_benchmark_size(fitness_mode):
    # the benchmark merges 100 parents and 200 children; values tie often
    rng = np.random.default_rng(5)
    vectors = np.column_stack([rng.integers(480, 640, 300) / 8.0,
                               rng.integers(5, 400, 300) * 1e5])
    config = _ranking_config((MAXIMIZE, MINIMIZE), fitness_mode)
    norm = [(-a, b) for a, b in vectors.tolist()]
    fronts = brute_fronts(norm)
    cuts = np.cumsum([0, *map(len, fronts)])
    # 100, and a cut into the middle of every front
    for size in [100, *(cuts[:-1] + np.maximum(np.diff(cuts) // 2, 1)).tolist()]:
        expected = _pairwise_rank(norm, size, fitness_mode, fronts)
        assert _rank(vectors, size, config).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.sampled_from((0.0, 1e-3, 0.2, 1.0, 3.0, 7.5)), min_size=5,
                        max_size=5).filter(any),
       seed=st.integers(0, 2**32 - 1))
def test_cdf_pick_equals_generator_choice(weights, seed):
    space = load_space("ofa")
    picker = UnitPicker(space, weights)
    w = np.asarray(weights) / np.sum(weights)
    assert picker.probs.tolist() == w.tolist()
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    x = ours.random(20)  # one double per pick on both sides
    expected = [int(theirs.choice(5, p=w / w.sum())) for _ in range(20)]
    assert ours.random() == theirs.random()
    # where every unit admits an action, the restricted weights are the
    # weights: on the all-admitting batch and on rows of a mixed batch
    admits = np.ones((21, 5), dtype=bool)
    assert picker.pick(x, admits[:20]).tolist() == expected
    admits[20] = np.arange(5) == np.flatnonzero(w)[0]  # one more row, one unit
    assert picker.pick(np.append(x, 0.5), admits).tolist() == [*expected, np.flatnonzero(w)[0]]


@settings(max_examples=40, deadline=None)
@given(config=_space_configs(), seed=st.integers(0, 2**32 - 1))
def test_mutate_equals_the_reference_mutation(config, seed):
    space = parse_space_config(config)
    archs = [sample_uniform(space, Stream(seed, 1)) for _ in range(5)]
    ours, theirs = Stream(seed, 2), ReferenceStream(seed, 2)
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


def _exact_mutation_law(space, arch, weights):
    """The probability of each mutation description of arch, enumerated: a
    unit in proportion to its weight among the units with an action, an
    action uniform over the unit's applicable ones, and every argument
    uniform over its choices."""
    law = collections.Counter()
    w = [1.0] * space.n_units if weights is None else list(weights)
    moves = []
    for u, unit in enumerate(space.units, 1):
        depth, old = arch.depths[u - 1], arch.blocks[u - 1]
        ratio = arch.channel_ratios[u - 1] if arch.channel_ratios else None
        codes = [b.code for b in unit.blocks if b.channel_ratio in (None, ratio)]
        actions = []
        if depth < unit.depth_max:
            actions.append([f"add_layer:u{u}:{c}" for c in codes])
        if depth > unit.depth_min:
            actions.append([f"remove_layer:u{u}l{l + 1}:{old[l]}" for l in range(depth)])
        if len(codes) > 1:
            actions.append([f"change_block:u{u}l{l + 1}:{old[l]}->{c}"
                            for l in range(depth) for c in codes if c != old[l]])
        if len(unit.channel_ratios) > 1:
            actions.append([f"change_ratio:u{u}:{ratio}->{r}"
                            for r in unit.channel_ratios if r != ratio])
        if len(space.resolutions) > 1:
            actions.append([f"change_resolution:{arch.resolution}->{r}"
                            for r in space.resolutions if r != arch.resolution])
        moves.append(actions)
    total = sum(wu for wu, actions in zip(w, moves) if actions)
    for wu, actions in zip(w, moves):
        for outcomes in actions:
            for desc in outcomes:
                law[desc] += wu / total / len(actions) / len(outcomes)
    return law


_LAW_SPACES = {
    "mini": build_mini_space,
    "mini-2res": lambda: build_mini_space(resolutions=(32, 64)),
    "mini-ratio": build_mini_ratio_space,
    "frozen-unit": lambda: _frozen_unit_space(),  # unit 1 has no action
}


@pytest.mark.parametrize("space_name", sorted(_LAW_SPACES))
@pytest.mark.parametrize("weights", [None, (1.0, 3.0), (0.0, 1.0)])
def test_batch_mutation_matches_the_exact_law(space_name, weights):
    """The counts of (unit, action, argument), read off the descriptions of
    many batch mutations of fixed parent rows, fit the enumerated law."""
    space = _LAW_SPACES[space_name]()
    tables, picker, n = mutation_tables(space), UnitPicker(space, weights), 6000
    parents = _rows(sample_batch(space, Stream(21), 4))
    rng = Stream(22)
    for arch in parents:
        rows = Genes.from_architectures(space, [arch] * n).rows()
        kids, descs = tables.mutate(rows, *tables.draw(rng, rng, n), picker)
        observed = collections.Counter(tables.describe(d) for d in descs.tolist())
        _fits(observed, _exact_mutation_law(space, arch, weights), n)
        assert not (kids == rows).all(axis=1).any()  # every child differs from its parent


@settings(max_examples=40, deadline=None)
@given(config=_space_configs(), seed=st.integers(0, 2**32 - 1))
def test_genes_round_trip_sampled_and_mutated_architectures(config, seed):
    space = parse_space_config(config)
    genes = sample_batch(space, Stream(seed), 8)
    sampled = _rows(genes)
    again = Genes.from_architectures(space, sampled)
    for name in ("resolution", "ratio", "depth", "block"):
        assert np.array_equal(getattr(again, name), getattr(genes, name)), name
    rng = Stream(seed, 1)
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
    arch = sample_uniform(space, Stream(0))
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


def test_from_architectures_rejects_blocks_outside_the_unit_ratio():
    # every gene is one the space has, but unit 1's C100 blocks need ratio 1.0
    space = load_space("resnet50")
    arch = sample_fixed(space, Placement(1, 1, "C100-B20"), Stream(0))
    assert arch.channel_ratios[0] == 1.0 and arch.blocks[0][0].startswith("C100-")
    other = replace(arch, channel_ratios=(0.65, *arch.channel_ratios[1:]))
    with pytest.raises(ValidationError, match="not admissible under channel ratio 0.65"):
        validate_architecture(space, other)
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
        values = ev.batch(genes).astype(float)  # macs sums in int64, which holds no NaN
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
