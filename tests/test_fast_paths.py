"""The hoisted fast paths against the per-layer oracles.

Non-dominated fronts from the domination matrix must equal the pairwise front
sort, and the memoised latency and precomputed accuracy evaluators must equal
the per-layer walkers bit for bit (==, not approx).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archscope.costs import accuracy_evaluator, default_accuracy_model
from archscope.devices import latency_evaluator, list_profiles, load_profile
from archscope.sampling import sample_uniform, spawn_rng
from archscope.search import _fast_nondominated_fronts
from archscope.spaces import list_spaces, load_space

from .oracles import brute_fronts, walker_accuracy, walker_latency

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
