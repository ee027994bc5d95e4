import collections
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archscope.errors import ValidationError
from archscope.sampling import (
    Stream,
    draw_below,
    pin_table,
    sample_batch,
    sample_fixed,
    sample_streams,
    sample_uniform,
    stream_origins,
)
from archscope.spaces import (
    Placement,
    arch_key,
    load_space,
    parse_space_config,
    validate_architecture,
)

from .oracles import CHI2_CRIT_001, ReferenceStream, reference_sampling_bound

_FORMATS = Path(__file__).resolve().parents[1] / "docs" / "FORMATS.md"


def _chi2(counts, expected):
    return sum((c - expected) ** 2 / expected for c in counts)


def test_same_seed_same_stream():
    space = load_space("ofa")
    def draws(seed):
        stream = Stream(seed, 1)
        return [arch_key(sample_uniform(space, stream)) for _ in range(20)]

    # a fresh stream from the same key replays the sequence exactly
    a = draws(7)
    assert a == draws(7) and len(set(a)) == 20
    assert a != draws(8)


def test_stream_key_separation():
    # every key of one seed, and the same key under neighbouring seeds, gives
    # its own words; a longer key is another stream, not a continuation
    keys = [(), (0,), (1,), (0, 0), (1, 0), (0, 1), (3,), (4, 1, 0), (4, 1, 1), (4, 2, 0),
            (1, 1, 1, 0, 0), (1, 1, 1, 1, 0), (1, 1, 1, 0, 224)]
    firsts = {(seed, key): tuple(Stream(seed, *key).words(4).tolist())
              for seed in (0, 1, 2**64) for key in keys}
    assert len(set(firsts.values())) == len(firsts)
    s, gamma = stream_origins(7, [(1, 2), (2, 1)])
    assert s[0] != s[1] and gamma[0] != gamma[1] and (gamma & 1).all()


_SEEDS = st.one_of(st.sampled_from([0, 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**128]),
                   st.integers(0, 2**70))
_KEYS = st.lists(st.integers(0, 2**64 - 1), max_size=5)


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, key=_KEYS, bound=st.integers(1, 2**63 - 1), count=st.integers(0, 40))
@example(seed=0, key=[], bound=18, count=5)
@example(seed=2**32, key=[1], bound=2**62 + 1, count=40)
@example(seed=2**64, key=[4, 1, 0], bound=2**63 - 1, count=40)
@example(seed=2**64 + 1, key=[3], bound=1, count=3)
@example(seed=0, key=[22], bound=18, count=8)  # a gamma with under 24 bit changes
def test_stream_equals_the_word_by_word_reference(seed, key, bound, count):
    ours, theirs = Stream(seed, *key), ReferenceStream(seed, *key)
    assert ours.words(count).tolist() == theirs.words(count)
    assert ours.below(bound, count).tolist() == theirs.below(bound, count)
    assert ours.doubles(count).tolist() == theirs.doubles(count)
    assert ours.position == theirs.index


def test_rejected_words_take_the_next_words_past_the_batch():
    # 2**64 % (2**62 + 1) = 2**62 - 3: about a quarter of the words are rejected
    bound, n = 2**62 + 1, 2000
    limit = 2**64 - 2**64 % bound
    stream = Stream(9, 1)
    values = stream.below(bound, n)
    words = Stream(9, 1).words(stream.position).tolist()
    accepted = [w for w in words[n:] if w < limit]
    rejected = [j for j, w in enumerate(words[:n]) if w >= limit]
    assert 0.2 < len(rejected) / n < 0.3
    expected = words[:n]
    for j, w in zip(rejected, accepted):
        expected[j] = w
    assert len(accepted) == len(rejected) and words[-1] < limit  # no word read past need
    assert values.tolist() == [w % bound for w in expected]
    # a chunk of streams rejects row by row, as each stream does alone
    rows, ends = draw_below(*stream_origins(9, [(1,), (2,), (3,)]), 0, bound, n)
    alone = [Stream(9, k) for k in (1, 2, 3)]
    assert [row.tolist() for row in rows] == [a.below(bound, n).tolist() for a in alone]
    assert ends == [a.position for a in alone]


def test_stream_refuses_negative_seeds_keys_and_bad_bounds():
    for seed, key in ((-1, ()), (0, (-1,)), (0, (2**64,))):
        with pytest.raises(ValidationError):
            Stream(seed, *key)
    for bound in (0, 2**63):
        with pytest.raises(ValidationError, match="bound"):
            Stream(0).below(bound, 1)


# docs/FORMATS.md "Random stream" lists these calls with their results
_VECTORS = {
    "Stream(0).words(3)": "0x889618d46ecf74dc, 0xf386eec25bdf69a4, 0xc8f5e71f6b545be9",
    "Stream(2**64 + 1, 4, 1, 2).below(18, 6)": "3, 5, 1, 4, 15, 3",
    # word 1 is rejected, so value 1 is word 4
    "Stream(7, 1, 2, 3, 3, 0).below(2**62 + 1, 3)":
        "4007250327722381808, 3631537304675212844, 2191787521153876557",
}


@pytest.mark.parametrize("call", sorted(_VECTORS))
def test_formats_test_vectors(call):
    values = eval(call, {"Stream": Stream}).tolist()
    shown = ", ".join(hex(v) if ".words(" in call else str(v) for v in values)
    assert shown == _VECTORS[call]
    assert f"| `{call}` | `{shown}` |" in _FORMATS.read_text().splitlines()


@pytest.mark.parametrize("name, bound", [("ofa", 18), ("proxylessnas", 18), ("resnet50", 6)])
def test_sampling_bound(name, bound):
    space = load_space(name)
    assert space.sampling_bound() == reference_sampling_bound(space) == bound


def test_sampling_bound_beyond_63_bits_is_refused():
    space = parse_space_config({
        "name": "deep", "family": "mbconv_v2", "resolutions": [32],
        "units": [{"depth_min": 1, "depth_max": 43, "base_channels": 8,
                   "blocks": [{"code": "A", "kernel": 3, "expansion": 3}]}],
    })
    bounds = ", ".join(str(b) for b in range(1, 44))
    with pytest.raises(ValidationError, match=re.escape(
            f"space 'deep': the sampling bounds [{bounds}] have a least common multiple of "
            "9419588158802421600, which does not fit in 63 bits")):
        sample_uniform(space, Stream(0))


def test_streams_in_a_chunk_equal_streams_alone():
    space = load_space("resnet50")
    placements = [None, Placement(2, 1, "C65-B35"), Placement(4, 3, "C100-B20")]
    keys = [(1, k) for k in range(3)]
    genes = sample_streams(space, stream_origins(5, keys), 7, pin_table(space, placements))
    alone = [sample_batch(space, Stream(5, *key), 7, p) for key, p in zip(keys, placements)]
    assert genes.rows().tolist() == [row for g in alone for row in g.rows().tolist()]
    together = Stream.each(5, keys)
    assert [s.words(3).tolist() for s in together] == [Stream(5, *k).words(3).tolist()
                                                       for k in keys]


def test_samples_are_members():
    for name in ("ofa", "proxylessnas", "resnet50"):
        space = load_space(name)
        rng = Stream(3, 0)
        for _ in range(10_000):
            validate_architecture(space, sample_uniform(space, rng))


def test_uniform_marginals_ofa():
    space = load_space("ofa")
    rng = Stream(11, 0)
    n = 30_000
    res_counts = collections.Counter()
    depth_counts = collections.Counter()
    block_counts = collections.Counter()
    for _ in range(n):
        arch = sample_uniform(space, rng)
        res_counts[arch.resolution] += 1
        depth_counts[arch.depths[0]] += 1
        block_counts[arch.blocks[0][0]] += 1
    assert _chi2(res_counts.values(), n / 3) < CHI2_CRIT_001[2]
    assert sorted(depth_counts) == [2, 3, 4]
    assert _chi2(depth_counts.values(), n / 3) < CHI2_CRIT_001[2]
    assert len(block_counts) == 9
    assert _chi2(block_counts.values(), n / 9) < CHI2_CRIT_001[8]


def test_uniform_marginals_resnet():
    space = load_space("resnet50")
    rng = Stream(12, 0)
    n = 27_000
    ratio_counts = collections.Counter()
    code_counts = collections.Counter()
    for _ in range(n):
        arch = sample_uniform(space, rng)
        ratio_counts[arch.channel_ratios[2]] += 1
        code_counts[arch.blocks[0][0]] += 1
    assert sorted(ratio_counts) == [0.65, 0.8, 1.0]
    assert _chi2(ratio_counts.values(), n / 3) < CHI2_CRIT_001[2]
    # joint marginal at a fixed slot: ratio uniform times expansion uniform
    assert len(code_counts) == 9
    assert _chi2(code_counts.values(), n / 9) < CHI2_CRIT_001[8]


def test_proxylessnas_frozen_genes():
    space = load_space("proxylessnas")
    rng = Stream(13, 0)
    seen = set()
    for _ in range(2_000):
        arch = sample_uniform(space, rng)
        assert arch.resolution == 224
        assert arch.depths[5] == 1
        seen.add(arch.blocks[5][0])
    assert len(seen) == 9  # the trailing unit's block stays searchable


def test_resolution_override():
    space = load_space("ofa")
    rng = Stream(1, 0)
    for _ in range(50):
        assert sample_uniform(space, rng, resolution=208).resolution == 208
    with pytest.raises(ValidationError, match="resolution"):
        sample_uniform(space, rng, resolution=200)


def test_placement_pins_slot_and_depth():
    space = load_space("ofa")
    placement = Placement(unit=2, layer=3, block_code="MBConv6-7")
    rng = Stream(5, 0)
    depth_counts = collections.Counter()
    n = 4_000
    for _ in range(n):
        arch = sample_fixed(space, placement, rng)
        assert arch.blocks[1][2] == "MBConv6-7"
        assert arch.depths[1] >= 3
        depth_counts[arch.depths[1]] += 1
        validate_architecture(space, arch)
    # conditioned depth is uniform over {3, 4}: 3 sigma binomial band
    half = n / 2
    band = 3 * np.sqrt(n * 0.25)
    assert abs(depth_counts[3] - half) < band
    assert abs(depth_counts[4] - half) < band


def test_placement_leaves_other_genes_uniform():
    space = load_space("ofa")
    placement = Placement(unit=1, layer=1, block_code="MBConv3-3")
    rng = Stream(6, 0)
    n = 18_000
    other = collections.Counter()
    for _ in range(n):
        arch = sample_fixed(space, placement, rng)
        other[arch.blocks[2][0]] += 1
    assert _chi2(other.values(), n / 9) < CHI2_CRIT_001[8]


def test_placement_forces_joint_ratio():
    space = load_space("resnet50")
    placement = Placement(unit=2, layer=1, block_code="C65-B35")
    rng = Stream(9, 0)
    for _ in range(300):
        arch = sample_fixed(space, placement, rng)
        assert arch.channel_ratios[1] == 0.65
        assert all(code.startswith("C65-") for code in arch.blocks[1])
        validate_architecture(space, arch)


def test_placement_at_max_layer_forces_depth(mini_space):
    placement = Placement(unit=1, layer=2, block_code="MBConv6-3")
    rng = Stream(2, 0)
    for _ in range(100):
        arch = sample_fixed(mini_space, placement, rng)
        assert arch.depths[0] == 2
        assert arch.blocks[0][1] == "MBConv6-3"


def test_placement_validation():
    space = load_space("ofa")
    rng = Stream(0, 0)
    with pytest.raises(ValidationError):
        sample_fixed(space, Placement(1, 9, "MBConv3-3"), rng)
    with pytest.raises(ValidationError):
        sample_fixed(space, Placement(1, 1, "C65-B20"), rng)
