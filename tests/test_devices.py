import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archscope.devices import (
    DeviceProfile,
    identity_profile,
    latency_evaluator,
    list_profiles,
    load_profile,
    profile_from_config,
    save_profile,
)
from archscope.errors import ConfigError, ValidationError
from archscope.sampling import Genes, Stream, sample_batch, sample_uniform
from archscope.spaces import FAMILIES, Architecture, load_space, parse_space_config

from .oracles import walker_latency
from .test_fast_paths import _space_configs


def _uniform_body(space, code, depth, resolution):
    return Architecture(
        space=space.name,
        resolution=resolution,
        depths=(depth,) * space.n_units,
        blocks=tuple((code,) * depth for _ in space.units),
    )


def test_preset_roster():
    assert list_profiles() == ("npu-like", "gpu-flat", "cpu-expansion-bound", "note10-linear")


def test_identity_profile_counts_layers():
    for name in ("ofa", "proxylessnas", "resnet50"):
        space = load_space(name)
        latency = latency_evaluator(space, identity_profile(space)).fn
        rng = Stream(1, 0)
        for _ in range(30):
            arch = sample_uniform(space, rng)
            assert latency(arch) == float(sum(arch.depths))


def test_npu_kernel_ratio_exact():
    space = load_space("ofa")
    npu = latency_evaluator(space, "npu-like").fn
    for depth in (2, 3, 4):
        k3 = _uniform_body(space, "MBConv3-3", depth, 224)
        k7 = _uniform_body(space, "MBConv3-7", depth, 224)
        lat3, lat7 = npu(k3), npu(k7)
        assert lat7 > lat3
        # zero overhead and no padding at 224, so the ratio is the raw factor
        assert lat7 / lat3 == pytest.approx(3.2)


def test_npu_pads_small_resolutions_up():
    space = load_space("ofa")
    npu = latency_evaluator(space, "npu-like").fn
    lat = {r: npu(_uniform_body(space, "MBConv4-5", 3, r)) for r in (192, 208, 224)}
    assert lat[192] > lat[208] > lat[224]


def test_resolution_above_template_rejected(mini_space_2res):
    profile = identity_profile(mini_space_2res, resolution=32)
    arch = _uniform_body(mini_space_2res, "MBConv3-3", 1, 64)
    with pytest.raises(ValidationError, match="template"):
        latency_evaluator(mini_space_2res, profile).fn(arch)


def test_family_mismatch_rejected():
    resnet = load_space("resnet50")
    arch = sample_uniform(resnet, Stream(0, 0))
    with pytest.raises(ValidationError, match="families"):
        latency_evaluator(resnet, "npu-like").fn(arch)


def test_gpu_flat_ignores_block_choice():
    space = load_space("ofa")
    gpu = latency_evaluator(space, "gpu-flat").fn
    a = _uniform_body(space, "MBConv3-3", 3, 224)
    b = _uniform_body(space, "MBConv6-7", 3, 224)
    assert gpu(a) == gpu(b)
    deeper = _uniform_body(space, "MBConv3-3", 4, 224)
    assert gpu(deeper) > gpu(a)


def test_cpu_expansion_dominates():
    space = load_space("ofa")
    cpu = latency_evaluator(space, "cpu-expansion-bound").fn
    e3 = _uniform_body(space, "MBConv3-3", 3, 224)
    e6 = _uniform_body(space, "MBConv6-3", 3, 224)
    k7 = _uniform_body(space, "MBConv3-7", 3, 224)
    gap_expansion = cpu(e6) - cpu(e3)
    gap_kernel = cpu(k7) - cpu(e3)
    assert gap_expansion > gap_kernel > 0


def test_note10_tracks_resolution():
    space = load_space("ofa")
    note10 = latency_evaluator(space, "note10-linear").fn
    lat = [note10(_uniform_body(space, "MBConv4-3", 3, r)) for r in (192, 208, 224)]
    assert lat[0] < lat[1] < lat[2]


def test_unknown_kernel_factor_rejected(mini_space):
    profile = DeviceProfile(
        name="partial",
        families=(mini_space.family,),
        kernel_factor={3: 1.0},  # no entry for kernel 5
        expansion_factor={3: 1.0, 6: 1.0},
        resolution_templates=(32,),
    )
    latency = latency_evaluator(mini_space, profile).fn
    bad = _uniform_body(mini_space, "MBConv3-5", 1, 32)
    with pytest.raises(ValidationError, match="kernel_factor"):
        latency(bad)
    ok = _uniform_body(mini_space, "MBConv3-3", 1, 32)
    assert latency(ok) == 2.0


def test_factor_positivity_enforced():
    with pytest.raises(ConfigError, match="must be positive"):
        DeviceProfile(
            name="bad", families=("mbconv_v2",),
            kernel_factor={3: 0.0}, expansion_factor={3: 1.0},
        )
    with pytest.raises(ConfigError, match="resolution_templates"):
        DeviceProfile(
            name="bad", families=("mbconv_v2",),
            kernel_factor={3: 1.0}, expansion_factor={3: 1.0},
            resolution_templates=(),
        )


def test_profile_config_round_trip(tmp_path):
    for name in list_profiles():
        profile = load_profile(name)
        path = tmp_path / f"{name}.json"
        save_profile(profile, path)
        clone = load_profile(path)
        assert clone.config() == profile.config()


def test_profile_config_errors():
    with pytest.raises(ConfigError, match=r"profile\.kernel_factor: missing"):
        profile_from_config({"name": "x", "families": ["mbconv_v2"]})
    with pytest.raises(ConfigError, match="unknown family"):
        profile_from_config({
            "name": "x", "families": ["tcn"],
            "kernel_factor": {"3": 1.0}, "expansion_factor": {"3": 1.0},
        })
    with pytest.raises(ConfigError, match="unknown profile"):
        load_profile("missing-device")


_MINIMAL = {"name": "x", "families": ["mbconv_v2"],
            "kernel_factor": {"3": 1.0}, "expansion_factor": {"3": 1.0}}


@pytest.mark.parametrize("field, value, named", [
    ("layer_cost_ms", "fast", "profile.layer_cost_ms: expected a number, got 'fast'"),
    ("layer_cost_ms", None, "profile.layer_cost_ms: expected a number, got None"),
    ("layer_cost_ms", {"1": "fast"}, "profile.layer_cost_ms.1: expected a number, got 'fast'"),
    ("layer_cost_ms", {"one": 1.0},
     "profile.layer_cost_ms key: expected an integer, got 'one'"),
    ("layer_cost_ms", {"1": [1.0, "fast"]},
     "profile.layer_cost_ms.1[1]: expected a number, got 'fast'"),
    ("unit_scale", {"1": "big"}, "profile.unit_scale.1: expected a number, got 'big'"),
    ("unit_scale", {"u1": 1.0}, "profile.unit_scale key: expected an integer, got 'u1'"),
    ("resolution_templates", [224, "huge"],
     "profile.resolution_templates[1]: expected int, got 'huge'"),
    ("fixed_overhead_ms", "none", "profile.fixed_overhead_ms: expected a number, got 'none'"),
    ("pad_cost_ms", [0.4], "profile.pad_cost_ms: expected a number, got [0.4]"),
], ids=["layer_cost_ms-fast-layer_cost_ms", "layer_cost_ms-None-layer_cost_ms",
        "layer_cost_ms-value2-layer_cost_ms['1']", "layer_cost_ms-value3-layer_cost_ms['one']",
        "layer_cost_ms-value4-layer_cost_ms['1']", "unit_scale-value5-unit_scale['1']",
        "unit_scale-value6-unit_scale['u1']", "resolution_templates-value7-resolution_templates",
        "fixed_overhead_ms-none-fixed_overhead_ms", "pad_cost_ms-value9-pad_cost_ms"])
def test_profile_config_rejects_non_numeric_fields(field, value, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        profile_from_config({**_MINIMAL, field: value})


@pytest.mark.parametrize("field, value", [
    ("families", "mbconv_v2"), ("unit_scale", [1.0]), ("resolution_templates", 224),
])
def test_profile_config_rejects_wrong_containers(field, value):
    with pytest.raises(ConfigError, match=rf"profile\.{field}: expected (list|dict), got"):
        profile_from_config({**_MINIMAL, field: value})


def test_latency_evaluator_binding():
    space = load_space("ofa")
    ev = latency_evaluator(space, "npu-like")
    assert ev.name == "npu-like"
    assert ev.direction == "minimize"
    assert ev.resolution_sensitive
    arch = sample_uniform(space, Stream(2, 0))
    assert ev.evaluate(arch) == walker_latency(space, arch, load_profile("npu-like"))


@pytest.mark.parametrize("fields, named, problem", [
    ({"kernel_factor": {3: 1.0, 5: math.inf}}, "kernel_factor[5]", "finite"),
    ({"kernel_factor": {3: -math.inf}}, "kernel_factor[3]", "positive"),
    ({"expansion_factor": {3: math.nan}}, "expansion_factor[3]", "finite"),
    ({"ratio_factor": {0.8: math.inf}}, "ratio_factor[0.8]", "finite"),
    ({"unit_scale": {2: math.inf}}, "unit_scale[2]", "finite"),
    ({"layer_cost_ms": math.inf}, "layer_cost_ms", "finite"),
    ({"layer_cost_ms": {1: 1.0, 2: math.nan}}, "layer_cost_ms[2]", "finite"),
    ({"layer_cost_ms": {1: [1.0, -math.inf]}}, "layer_cost_ms[1]", "finite"),
    ({"fixed_overhead_ms": math.inf}, "fixed_overhead_ms", "finite"),
    ({"pad_cost_ms": -math.inf}, "pad_cost_ms", "finite"),
])
def test_profile_numbers_must_be_finite(fields, named, problem):
    with pytest.raises(ConfigError, match=rf"profile 'bad': {re.escape(named)} must be {problem}"):
        DeviceProfile(**{"name": "bad", "families": ("mbconv_v2",),
                         "kernel_factor": {3: 1.0}, "expansion_factor": {3: 1.0}, **fields})


@pytest.mark.parametrize("fields, named, problem", [
    ({"layer_cost_ms": 0.0}, "layer_cost_ms", "be positive"),
    ({"layer_cost_ms": -1.0}, "layer_cost_ms", "be positive"),
    ({"layer_cost_ms": {1: 1.0, 2: -0.5}}, "layer_cost_ms[2]", "be positive"),
    ({"layer_cost_ms": {1: [1.0, 0.0]}}, "layer_cost_ms[1]", "be positive"),
    ({"fixed_overhead_ms": -5.0}, "fixed_overhead_ms", "not be negative"),
    ({"pad_cost_ms": -0.25}, "pad_cost_ms", "not be negative"),
])
def test_profile_costs_must_not_be_negative(fields, named, problem):
    with pytest.raises(ConfigError, match=rf"profile 'bad': {re.escape(named)} must {problem}"):
        DeviceProfile(**{"name": "bad", "families": ("mbconv_v2",),
                         "kernel_factor": {3: 1.0}, "expansion_factor": {3: 1.0}, **fields})
    # zero overhead and padding cost stay valid
    DeviceProfile(name="ok", families=("mbconv_v2",), kernel_factor={3: 1.0},
                  expansion_factor={3: 1.0}, fixed_overhead_ms=0.0, pad_cost_ms=0.0)


def _first_gap(space, arch, profile):
    """What the latency of arch must fail with, or None: the family, its
    resolution's template, then per layer in unit -> layer order the
    kernel, expansion and ratio factors and the layer cost."""
    if space.family not in profile.families:
        return "covers families"
    if arch.resolution > max(profile.resolution_templates):
        return f"resolution {arch.resolution} exceeds every template"
    for unit, codes in zip(space.units, arch.blocks):
        for layer, code in enumerate(codes, start=1):
            block = space.block(unit.index, code)
            for name, key, needed in (
                ("kernel_factor", block.kernel, True),
                ("expansion_factor", block.expansion, True),
                ("ratio_factor", block.channel_ratio,
                 block.channel_ratio is not None and profile.ratio_factor),
            ):
                if needed and key not in getattr(profile, name):
                    return f"{name} has no entry for {key!r}"
            cost = profile.layer_cost_ms
            if not isinstance(cost, float) and (
                    unit.index not in cost
                    or isinstance(cost[unit.index], list) and layer > len(cost[unit.index])):
                return f"no layer cost for unit {unit.index} layer {layer}"
    return None


@settings(max_examples=100, deadline=None)
@given(config=_space_configs(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_partial_profile_fails_at_the_walkers_first_failing_row(config, seed, data):
    space = parse_space_config(config)
    blocks = [b for unit in space.units for b in unit.blocks]

    def partial(keys):  # a factor for every key, or now and then for all but one
        keys = sorted(keys)
        dropped = data.draw(st.sampled_from([None] * 6 + keys))
        return {k: data.draw(st.sampled_from((0.5, 1.0, 2.5))) for k in keys if k != dropped}

    cost = 0.25
    if data.draw(st.booleans()):  # per unit a scalar or its first layers' costs, or no entry
        cost = {unit.index: data.draw(st.sampled_from(
            (1.5, [1.0] * data.draw(st.integers(unit.depth_min, unit.depth_max)))))
                for unit in space.units if data.draw(st.integers(0, 7))}
    profile = DeviceProfile(
        name="partial",
        families=data.draw(st.sampled_from(((space.family,),) * 7 + (FAMILIES[:1],))),
        kernel_factor=partial({b.kernel for b in blocks}),
        expansion_factor=partial({b.expansion for b in blocks}),
        ratio_factor=partial({b.channel_ratio for b in blocks} - {None}),
        layer_cost_ms=cost,
        resolution_templates=tuple(sorted(data.draw(st.lists(
            st.sampled_from((*space.resolutions, 48)), min_size=1, max_size=3, unique=True)))),
        fixed_overhead_ms=0.5,
        pad_cost_ms=0.25,
    )
    ev = latency_evaluator(space, profile)
    sampled = sample_batch(space, Stream(seed), 12)
    archs = [sampled.architecture(i) for i in range(len(sampled))]
    # rows that fail only after every row that does not, so most batches
    # fail in the middle
    archs.sort(key=lambda arch: _first_gap(space, arch, profile) is not None)
    genes = Genes.from_architectures(space, archs)
    gaps = [_first_gap(space, arch, profile) for arch in archs]
    first = next((i for i, gap in enumerate(gaps) if gap), len(archs))
    before = archs[:first]
    assert ev.evaluate_batch(Genes.from_architectures(space, before)).tolist() == [
        walker_latency(space, arch, profile) for arch in before]
    if first == len(archs):
        return
    if space.family in profile.families:  # the walker does not check the family
        with pytest.raises((KeyError, IndexError, ValueError)):
            walker_latency(space, archs[first], profile)
    with pytest.raises(ValidationError, match=re.escape(gaps[first])):
        ev.evaluate_batch(genes)
