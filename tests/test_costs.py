import numpy as np
import pytest

from archscope.costs import (
    AccuracyModel,
    MetricEvaluator,
    accuracy_evaluator,
    block_capacity,
    default_accuracy_model,
    half,
    macs,
    macs_evaluator,
    param_count,
    params_evaluator,
    synthetic_accuracy,
    unit_spatial_sizes,
)
from archscope.errors import EvaluationError, ValidationError
from archscope.profiler import draw_samples
from archscope.sampling import STREAM_BASELINE, sample_batch, sample_uniform, spawn_rng
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
    diff = macs(space, deep) - macs(space, shallow)
    assert diff == 2_408_448 + 1_354_752 + 2_408_448 == 6_171_648


def test_mbconv_layer_params_frozen():
    space = _single_block_space()
    deep = Architecture(space="one-unit", resolution=224, depths=(2,),
                        blocks=(("MBConv3-3", "MBConv3-3"),))
    shallow = Architecture(space="one-unit", resolution=224, depths=(1,),
                           blocks=(("MBConv3-3",),))
    diff = param_count(space, deep) - param_count(space, shallow)
    # expand 16*48 + depthwise 3*3*48 + project 48*16
    assert diff == 768 + 432 + 768
    diff_bias = (param_count(space, deep, include_bias=True)
                 - param_count(space, shallow, include_bias=True))
    assert diff_bias == diff + 48 + 48 + 16


def test_macs_deterministic():
    space = load_space("ofa")
    arch = sample_uniform(space, spawn_rng(4, 0))
    assert macs(space, arch) == macs(space, arch)


def test_se_toggle_only_affects_se_family():
    ofa = load_space("ofa")  # carries squeeze-excite
    proxy = load_space("proxylessnas")  # does not
    a = sample_uniform(ofa, spawn_rng(1, 0))
    b = sample_uniform(proxy, spawn_rng(1, 0))
    assert macs(ofa, a, count_se=True) > macs(ofa, a, count_se=False)
    assert macs(proxy, b, count_se=True) == macs(proxy, b, count_se=False)


def test_macs_monotonic_in_block_size():
    space = load_space("ofa")
    base = Architecture(space="ofa", resolution=224, depths=(2,) * 5,
                        blocks=tuple(("MBConv3-3", "MBConv3-3") for _ in range(5)))
    bigger_kernel = Architecture(space="ofa", resolution=224, depths=(2,) * 5,
                                 blocks=tuple(("MBConv3-5", "MBConv3-3") for _ in range(5)))
    bigger_expansion = Architecture(space="ofa", resolution=224, depths=(2,) * 5,
                                    blocks=tuple(("MBConv6-3", "MBConv3-3") for _ in range(5)))
    assert macs(space, bigger_kernel) > macs(space, base)
    assert macs(space, bigger_expansion) > macs(space, base)
    assert macs(space, base.__class__(space="ofa", resolution=192, depths=base.depths,
                                      blocks=base.blocks)) < macs(space, base)


def test_walker_agreement_spot(mini_ratio_space):
    space = mini_ratio_space
    rng = spawn_rng(21, 0)
    for _ in range(25):
        arch = sample_uniform(space, rng)
        assert macs(space, arch) == walker_macs(space, arch)
        assert param_count(space, arch) == walker_params(space, arch)
        assert param_count(space, arch, include_bias=True) == walker_params(
            space, arch, include_bias=True)


def test_unknown_family_rejected(mini_space):
    foreign = Architecture(space="mini", resolution=32, depths=(1, 1),
                           blocks=(("MBConv3-3",), ("nope",)))
    with pytest.raises(ValidationError):
        macs(mini_space, foreign)


def test_evaluator_contract(mini_space):
    ev = macs_evaluator(mini_space)
    assert ev.direction == "minimize" and ev.resolution_sensitive
    pv = params_evaluator(mini_space)
    assert pv.direction == "minimize" and not pv.resolution_sensitive
    av = accuracy_evaluator(mini_space)
    assert av.direction == "maximize"
    arch = sample_uniform(mini_space, spawn_rng(0, 0))
    assert ev.evaluate(arch) == float(macs(mini_space, arch))
    with pytest.raises(ValidationError):
        MetricEvaluator(name="x", direction="sideways", fn=len)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_evaluator_rejects_non_finite_values(mini_space, value):
    ev = MetricEvaluator(name="broken", direction="maximize", fn=lambda arch: value)
    with pytest.raises(EvaluationError, match="'broken'.*non-finite") as exc:
        ev.evaluate(sample_uniform(mini_space, spawn_rng(0, 0)))
    assert exc.value.record is not None


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_batch_path_rejects_non_finite_values(mini_space, value):
    def stub(genes):
        values = np.arange(len(genes), dtype=float)
        values[[2, 4]] = value
        return values

    ev = MetricEvaluator(name="broken", direction="maximize", fn=lambda arch: 0.0, batch=stub)
    with pytest.raises(EvaluationError, match="'broken'.*non-finite") as exc:
        draw_samples(mini_space, ev, 6, seed=0)
    first_bad = sample_batch(mini_space, spawn_rng(0, STREAM_BASELINE, 0), 6).architecture(2)
    assert exc.value.record == arch_key(first_bad)


def test_block_capacity_ordering():
    space = load_space("ofa")
    cap = {b.code: block_capacity(space, b) for b in space.unit(1).blocks}
    assert cap["MBConv3-3"] == 0.0
    assert cap["MBConv6-7"] == 1.0
    assert cap["MBConv3-3"] < cap["MBConv4-3"] < cap["MBConv6-3"]
    assert cap["MBConv3-3"] < cap["MBConv3-5"] < cap["MBConv3-7"]
    resnet = load_space("resnet50")
    rcap = {b.code: block_capacity(resnet, b) for b in resnet.unit(1).blocks}
    assert rcap["C65-B20"] == 0.0 and rcap["C100-B35"] == 1.0
    assert rcap["C65-B35"] == rcap["C100-B20"] == 0.5


def test_synthetic_accuracy_frozen():
    space = load_space("ofa")
    model = default_accuracy_model(space)
    assert model.unit_weights == (0.1, 0.25, 0.4, 0.55, 0.7)
    assert model.depth_bonus == (0.08, 0.11, 0.14, 0.17, 0.2)
    smallest = Architecture(space="ofa", resolution=192, depths=(2,) * 5,
                            blocks=tuple(("MBConv3-3",) * 2 for _ in range(5)))
    assert synthetic_accuracy(space, smallest, model) == 70.0
    biggest = Architecture(space="ofa", resolution=224, depths=(4,) * 5,
                           blocks=tuple(("MBConv6-7",) * 4 for _ in range(5)))
    # all capacities 1: 70 + 4 * sum(weights) + sum(bonuses)
    assert synthetic_accuracy(space, biggest, model) == pytest.approx(78.7)


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

    gains = [synthetic_accuracy(space, upgraded(u), model) for u in range(1, 6)]
    assert gains == sorted(gains)
    assert gains[-1] > gains[0]


def test_accuracy_model_validation(mini_space):
    arch = sample_uniform(mini_space, spawn_rng(0, 0))
    with pytest.raises(ValidationError, match="every unit"):
        synthetic_accuracy(mini_space, arch, AccuracyModel(unit_weights=(0.1,), depth_bonus=(0.1,)))
    with pytest.raises(ValidationError, match="nondecreasing"):
        synthetic_accuracy(mini_space, arch, AccuracyModel(
            unit_weights=(0.5, 0.1), depth_bonus=(0.1, 0.1)))


def test_accuracy_clamp():
    space = load_space("ofa")
    arch = Architecture(space="ofa", resolution=224, depths=(4,) * 5,
                        blocks=tuple(("MBConv6-7",) * 4 for _ in range(5)))
    model = AccuracyModel(base=99.9, unit_weights=(0.5,) * 5, depth_bonus=(0.5,) * 5)
    assert synthetic_accuracy(space, arch, model) == 100.0
