from dataclasses import replace

import numpy as np
import pytest

from archscope.costs import (
    AccuracyModel,
    MetricEvaluator,
    _capacities,
    accuracy_evaluator,
    default_accuracy_model,
    half,
    macs_evaluator,
    params_evaluator,
    unit_spatial_sizes,
)
from archscope.errors import EvaluationError, ValidationError
from archscope.profiler import draw_samples
from archscope.sampling import STREAM_BASELINE, Stream, sample_batch, sample_uniform
from archscope.spaces import (
    MBCONV_V2,
    Architecture,
    BlockSpec,
    DesignSpace,
    HeadSpec,
    StemSpec,
    UnitSpec,
    arch_key,
    load_space,
    parse_space_config,
)

from .oracles import walker_macs, walker_params


def test_half_is_ceil_division():
    assert half(224) == 112
    assert half(7) == 4
    assert half(1) == 1


def test_unit_spatial_sizes():
    space = load_space("ofa")
    sizes = unit_spatial_sizes(space, 224)
    assert sizes == [(112, 56), (56, 28), (28, 14), (14, 7), (7, 4)]


def _single_block_space():
    # one unit over a 16-channel stem so the second layer runs 16 -> 16 at 56x56
    block = BlockSpec(code="MBConv3-3", family=MBCONV_V2, kernel=3, expansion=3)
    unit = UnitSpec(index=1, depth_min=1, depth_max=2, blocks=(block,), base_channels=16)
    return DesignSpace(
        name="one-unit",
        family=MBCONV_V2,
        units=(unit,),
        resolutions=(224,),
        stem=StemSpec(kernel=3, stride=2, out_channels=16),
        head=HeadSpec(classes=10),
    )


def test_mbconv_layer_macs_frozen():
    """A stride-1 16-channel e=3 k=3 layer at 56x56 costs exactly 6,171,648."""
    space = _single_block_space()
    deep = Architecture(space="one-unit", resolution=224, depths=(2,),
                        blocks=(("MBConv3-3", "MBConv3-3"),))
    shallow = Architecture(space="one-unit", resolution=224, depths=(1,),
                           blocks=(("MBConv3-3",),))
    macs = macs_evaluator(space).fn
    diff = macs(deep) - macs(shallow)
    assert diff == 2_408_448 + 1_354_752 + 2_408_448 == 6_171_648


def test_mbconv_layer_params_frozen():
    space = _single_block_space()
    deep = Architecture(space="one-unit", resolution=224, depths=(2,),
                        blocks=(("MBConv3-3", "MBConv3-3"),))
    shallow = Architecture(space="one-unit", resolution=224, depths=(1,),
                           blocks=(("MBConv3-3",),))
    params, with_bias = params_evaluator(space).fn, params_evaluator(space, include_bias=True).fn
    diff = params(deep) - params(shallow)
    # expand 16*48 + depthwise 3*3*48 + project 48*16
    assert diff == 768 + 432 + 768
    diff_bias = with_bias(deep) - with_bias(shallow)
    assert diff_bias == diff + 48 + 48 + 16


def test_macs_deterministic():
    space = load_space("ofa")
    arch = sample_uniform(space, Stream(4, 0))
    assert macs_evaluator(space).fn(arch) == macs_evaluator(space).fn(arch)


def test_se_toggle_only_affects_se_family():
    ofa = load_space("ofa")  # carries squeeze-excite
    proxy = load_space("proxylessnas")  # does not
    a = sample_uniform(ofa, Stream(1, 0))
    b = sample_uniform(proxy, Stream(1, 0))
    assert macs_evaluator(ofa, count_se=True).fn(a) > macs_evaluator(ofa, count_se=False).fn(a)
    assert (macs_evaluator(proxy, count_se=True).fn(b)
            == macs_evaluator(proxy, count_se=False).fn(b))


def test_macs_monotonic_in_block_size():
    space = load_space("ofa")
    base = Architecture(space="ofa", resolution=224, depths=(2,) * 5,
                        blocks=tuple(("MBConv3-3", "MBConv3-3") for _ in range(5)))
    bigger_kernel = Architecture(space="ofa", resolution=224, depths=(2,) * 5,
                                 blocks=tuple(("MBConv3-5", "MBConv3-3") for _ in range(5)))
    bigger_expansion = Architecture(space="ofa", resolution=224, depths=(2,) * 5,
                                    blocks=tuple(("MBConv6-3", "MBConv3-3") for _ in range(5)))
    macs = macs_evaluator(space).fn
    assert macs(bigger_kernel) > macs(base)
    assert macs(bigger_expansion) > macs(base)
    assert macs(base.__class__(space="ofa", resolution=192, depths=base.depths,
                               blocks=base.blocks)) < macs(base)


def test_walker_agreement_spot(mini_ratio_space):
    space = mini_ratio_space
    rng = Stream(21, 0)
    macs, params = macs_evaluator(space).fn, params_evaluator(space).fn
    with_bias = params_evaluator(space, include_bias=True).fn
    for _ in range(25):
        arch = sample_uniform(space, rng)
        assert macs(arch) == walker_macs(space, arch)
        assert params(arch) == walker_params(space, arch)
        assert with_bias(arch) == walker_params(space, arch, include_bias=True)


def test_unknown_family_rejected(mini_space):
    foreign = Architecture(space="mini", resolution=32, depths=(1, 1),
                           blocks=(("MBConv3-3",), ("nope",)))
    with pytest.raises(ValidationError):
        macs_evaluator(mini_space).fn(foreign)


def test_evaluator_contract(mini_space):
    ev = macs_evaluator(mini_space)
    assert ev.direction == "minimize" and ev.resolution_sensitive
    pv = params_evaluator(mini_space)
    assert pv.direction == "minimize" and not pv.resolution_sensitive
    av = accuracy_evaluator(mini_space)
    assert av.direction == "maximize"
    arch = sample_uniform(mini_space, Stream(0, 0))
    assert ev.evaluate(arch) == float(walker_macs(mini_space, arch))
    with pytest.raises(ValidationError):
        MetricEvaluator(name="x", direction="sideways", fn=len)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_evaluator_rejects_non_finite_values(mini_space, value):
    ev = MetricEvaluator(name="broken", direction="maximize", fn=lambda arch: value)
    with pytest.raises(EvaluationError, match="'broken'.*non-finite") as exc:
        ev.evaluate(sample_uniform(mini_space, Stream(0, 0)))
    assert exc.value.record is not None


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_batch_path_rejects_non_finite_values(mini_space, value):
    def stub(genes):
        values = np.arange(len(genes), dtype=float)
        values[[2, 4]] = value
        return values

    genes = sample_batch(mini_space, Stream(0, STREAM_BASELINE, 0), 6)
    ev = MetricEvaluator(name="broken", direction="maximize", fn=lambda arch: 0.0, batch=stub)
    with pytest.raises(EvaluationError, match="'broken'.*non-finite") as exc:
        ev.evaluate_batch(genes)
    assert exc.value.record == arch_key(genes.architecture(2))
    # a pass raises it too when fn agrees with the batch, as the contract asks
    bad = {genes.architecture(2), genes.architecture(4)}
    ev = replace(ev, fn=lambda arch: value if arch in bad else 0.0)
    with pytest.raises(EvaluationError, match="'broken'.*non-finite") as exc:
        draw_samples(mini_space, ev, 6, seed=0)
    assert exc.value.record == arch_key(genes.architecture(2))


def _unit_capacities(space, unit):
    """The capacity the accuracy model gives each of a unit's blocks: its
    rank along both block axes, in [0, 1]."""
    capacity = _capacities(space)
    return {b.code: capacity[b] for b in space.unit(unit).blocks}


def test_block_capacity_ordering():
    space = load_space("ofa")
    cap = _unit_capacities(space, 1)
    assert cap["MBConv3-3"] == 0.0
    assert cap["MBConv6-7"] == 1.0
    assert cap["MBConv3-3"] < cap["MBConv4-3"] < cap["MBConv6-3"]
    assert cap["MBConv3-3"] < cap["MBConv3-5"] < cap["MBConv3-7"]
    resnet = load_space("resnet50")
    rcap = _unit_capacities(resnet, 1)
    assert rcap["C65-B20"] == 0.0 and rcap["C100-B35"] == 1.0
    assert rcap["C65-B35"] == rcap["C100-B20"] == 0.5


def test_synthetic_accuracy_frozen():
    space = load_space("ofa")
    model = default_accuracy_model(space)
    accuracy = accuracy_evaluator(space, model).fn
    assert model.unit_weights == (0.1, 0.25, 0.4, 0.55, 0.7)
    assert model.depth_bonus == (0.08, 0.11, 0.14, 0.17, 0.2)
    smallest = Architecture(space="ofa", resolution=192, depths=(2,) * 5,
                            blocks=tuple(("MBConv3-3",) * 2 for _ in range(5)))
    assert accuracy(smallest) == 70.0
    biggest = Architecture(space="ofa", resolution=224, depths=(4,) * 5,
                           blocks=tuple(("MBConv6-7",) * 4 for _ in range(5)))
    # all capacities 1: 70 + 4 * sum(weights) + sum(bonuses)
    assert accuracy(biggest) == pytest.approx(78.7)


def test_synthetic_accuracy_later_units_matter_more():
    space = load_space("ofa")
    model = default_accuracy_model(space)
    base = Architecture(space="ofa", resolution=224, depths=(2,) * 5,
                        blocks=tuple(("MBConv3-3", "MBConv3-3") for _ in range(5)))

    def upgraded(unit):
        blocks = [list(b) for b in base.blocks]
        blocks[unit - 1][0] = "MBConv6-7"
        return Architecture(space="ofa", resolution=224, depths=base.depths,
                            blocks=tuple(tuple(b) for b in blocks))

    accuracy = accuracy_evaluator(space, model).fn
    gains = [accuracy(upgraded(u)) for u in range(1, 6)]
    assert gains == sorted(gains)
    assert gains[-1] > gains[0]


def test_accuracy_model_validation(mini_space):
    with pytest.raises(ValidationError, match="every unit"):
        accuracy_evaluator(mini_space, AccuracyModel(unit_weights=(0.1,), depth_bonus=(0.1,)))
    with pytest.raises(ValidationError, match="nondecreasing"):
        accuracy_evaluator(mini_space, AccuracyModel(
            unit_weights=(0.5, 0.1), depth_bonus=(0.1, 0.1)))


def test_accuracy_clamp():
    space = load_space("ofa")
    arch = Architecture(space="ofa", resolution=224, depths=(4,) * 5,
                        blocks=tuple(("MBConv6-7",) * 4 for _ in range(5)))
    model = AccuracyModel(base=99.9, unit_weights=(0.5,) * 5, depth_bonus=(0.5,) * 5)
    assert accuracy_evaluator(space, model).fn(arch) == 100.0


def test_params_digest_tells_accuracy_clamps_apart(mini_space):
    model = default_accuracy_model(mini_space)
    models = (model, replace(model, clamp_lo=1.0), replace(model, clamp_hi=99.0))
    assert len({accuracy_evaluator(mini_space, m).params_digest for m in models}) == 3


def test_counts_past_int64_stay_exact():
    # three billion channels: one expand conv alone holds more than 2**63 weights
    space = parse_space_config({
        "name": "wide", "family": "mbconv_v3", "resolutions": [32, 64],
        "units": [{"depth_min": 1, "depth_max": 3, "base_channels": base, "blocks": [
            {"code": f"E{e}K{k}", "kernel": k, "expansion": e}
            for e, k in ((1, 3), (6, 5))]} for base in (3_000_000_000, 5_000_000_000)],
        "head": {"conv_channels": 0, "classes": 10},
    })
    genes = sample_batch(space, Stream(3), 16)
    archs = [genes.architecture(i) for i in range(len(genes))]
    expected_macs = [walker_macs(space, a) for a in archs]
    expected_params = [walker_params(space, a) for a in archs]
    assert min(expected_macs) >= 2**63 and min(expected_params) >= 2**63
    macs_ev, params_ev = macs_evaluator(space), params_evaluator(space)
    assert [macs_ev.fn(a) for a in archs] == expected_macs
    assert [params_ev.fn(a) for a in archs] == expected_params
    assert macs_ev.evaluate_batch(genes).tolist() == [float(m) for m in expected_macs]
    assert params_ev.evaluate_batch(genes).tolist() == [float(p) for p in expected_params]


@pytest.mark.parametrize("count", [macs_evaluator, params_evaluator], ids=["macs", "param_count"])
def test_unknown_block_family_has_no_cost_model(count):
    # parse_space_config refuses an unknown family, so only a space built in code reaches this
    block = BlockSpec(code="Attn-3", family="attention", kernel=3, expansion=2)
    unit = UnitSpec(index=1, depth_min=1, depth_max=1, blocks=(block,), base_channels=16)
    space = DesignSpace(name="attn", family="attention", units=(unit,), resolutions=(32,))
    arch = Architecture(space="attn", resolution=32, depths=(1,), blocks=(("Attn-3",),))
    with pytest.raises(ValidationError, match="no cost model for block family 'attention'"):
        count(space).fn(arch)
