"""The fused pass: an additive form scores a chunk's stream words from its
word tables (costs.AdditiveForm.score_words), with no gene arrays.

For every lowered metric kind, on random spaces (ratio, ratio-free and mixed
blocks; some with a word range L in the thousands) and on every preset
space, for pinned and unpinned rows at a fixed or mixed resolution, the
fused values must equal those of scoring the decoded genes by bytes: the
profiler's pass, costs.score, evaluate_batch and evaluate of each row. The
genes must be the reference stream's, so a pin rewrite both paths share is
checked too, and a sentinel cell must raise what scoring the genes raises.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archscope.costs import MetricEvaluator, score, word_form
from archscope.devices import latency_evaluator, list_profiles, load_profile
from archscope.errors import ArchscopeError
from archscope.profiler import _draw, _stream_key
from archscope.reduction import apply, list_rulesets, preset
from archscope.sampling import pin_table, sample_streams, stream_origins, stream_words
from archscope.spaces import iter_placements, list_spaces, load_space, parse_space_config
from archscope.tables import ADDITIVE, MetricTable, table_evaluator

from .oracles import ReferenceStream, reference_sample_batch
from .test_fast_paths import _lowered_cases, _space_configs


def _deepened(config):
    """config with its first unit's depth range 1..9, so L is a multiple of
    lcm(1..9) = 2520."""
    config["units"][0].update(depth_min=1, depth_max=9)
    return config


def _outcome(run):
    """What run returns, as bytes, or the type, message and record of what it raises."""
    try:
        return run().tobytes()
    except ArchscopeError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "record", None)


def _sentinel_table(space, lost):
    """An additive table that lost the entry of placement lost after its
    coverage was checked: each row hosting lost reaches a sentinel."""
    entries = {p.key(): 0.25 * p.layer + p.unit for p in iter_placements(space)}
    table = MetricTable(space=space.name, metric="lat", direction="minimize", units="ms",
                        kind=ADDITIVE, entries=entries,
                        resolution_constants={r: 1.0 for r in space.resolutions})
    ev = table_evaluator(space, table)  # its form is built on first use
    del entries[lost.key()]
    return ev


def _assert_fused_equals_genes(space, evaluators: list[MetricEvaluator], data):
    placements = list(iter_placements(space))
    deepest = max(placements, key=lambda p: p.layer)  # the pin that narrows a depth most
    pins = [deepest, *data.draw(st.lists(st.sampled_from(placements), max_size=4))]
    resolution = data.draw(st.none() | st.sampled_from(space.resolutions))
    seed, n = data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(1, 12))
    for chunk in ([None], pins):  # a baseline, then a chunk of placements
        keys = [_stream_key(p, space, resolution) for p in chunk]
        origins, table = stream_origins(seed, keys), pin_table(space, chunk)
        genes = sample_streams(space, origins, n, table, resolution)
        archs = [genes.architecture(i) for i in range(len(genes))]
        assert archs == [arch for p, key in zip(chunk, keys) for arch in reference_sample_batch(
            space, ReferenceStream(seed, *key), n, p, resolution)]
        words = stream_words(space, origins, n, table, resolution)
        for ev in evaluators:
            form = word_form(ev, space)
            assert form is not None, ev.name
            expected = score([ev], genes)[:, 0]
            assert form.score_words(words).tobytes() == expected.tobytes(), ev.name
            assert (_draw(space, ev, form, table, origins, n, resolution).tobytes()
                    == expected.tobytes()), ev.name
            hexes = [v.hex() for v in expected.tolist()]
            assert [v.hex() for v in ev.evaluate_batch(genes).tolist()] == hexes, ev.name
            assert [ev.evaluate(arch).hex() for arch in archs] == hexes, ev.name
    ev = _sentinel_table(space, data.draw(st.sampled_from(pins)))
    got = _outcome(lambda: _draw(space, ev, word_form(ev, space), table, origins, n, resolution))
    assert got == _outcome(lambda: score([ev], genes)[:, 0])
    assert got[0] == "EvaluationError" and got[2] is not None


@settings(max_examples=80, deadline=None)
@given(config=_space_configs() | _space_configs().map(_deepened), data=st.data())
def test_fused_values_equal_scoring_the_genes_on_random_spaces(config, data):
    space = parse_space_config(config)
    if config["units"][0]["depth_max"] == 9:
        assert space.sampling_bound() >= 1000
    _assert_fused_equals_genes(space, [ev for ev, _ in _lowered_cases(space, data)], data)


@pytest.mark.parametrize("name", [*list_spaces(), *list_rulesets()])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_fused_values_equal_scoring_the_genes_on_each_preset_space(name, data):
    if name in list_spaces():
        space = load_space(name)
    else:
        ruleset = preset(name)
        space = apply(load_space(ruleset.space), ruleset)
    evaluators = [ev for ev, _ in _lowered_cases(space, data)]
    evaluators += [latency_evaluator(space, p) for p in list_profiles()
                   if space.family in load_profile(p).families]
    _assert_fused_equals_genes(space, evaluators, data)
