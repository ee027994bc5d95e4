import json
import re
from dataclasses import replace

import pytest

from archscope.errors import ConfigError, ValidationError
from archscope.spaces import (
    Architecture,
    Placement,
    arch_key,
    block_axes,
    block_codes,
    consistent_blocks,
    count_architectures,
    count_placements,
    deserialize,
    enumerate_architectures,
    iter_placements,
    list_spaces,
    load_space,
    parse_space_config,
    save_space,
    serialize,
    space_fingerprint,
    space_to_config,
    validate_architecture,
    validate_placement,
)

# per-space body counts: product over units of sum over ratio/depth choices
EXPECTED_COUNTS = {
    "ofa": 7371**5,
    "proxylessnas": 7371**5 * 9,
    "resnet50": 351 * 351 * 3159 * 351,
}
EXPECTED_PLACEMENTS = {"ofa": 180, "proxylessnas": 189, "resnet50": 162}


def test_preset_roster():
    assert list_spaces() == ("ofa", "proxylessnas", "resnet50")


def test_architecture_counts_frozen():
    assert EXPECTED_COUNTS["ofa"] == 21758655492572485851
    assert EXPECTED_COUNTS["proxylessnas"] == 195827899433152372659
    assert EXPECTED_COUNTS["resnet50"] == 136606377609
    for name, expected in EXPECTED_COUNTS.items():
        assert count_architectures(load_space(name)) == expected


def test_count_including_resolutions():
    ofa = load_space("ofa")
    assert count_architectures(ofa, include_resolutions=True) == 3 * EXPECTED_COUNTS["ofa"]
    # single-resolution spaces gain nothing
    proxy = load_space("proxylessnas")
    assert count_architectures(proxy, include_resolutions=True) == EXPECTED_COUNTS["proxylessnas"]


def test_placement_counts():
    for name, expected in EXPECTED_PLACEMENTS.items():
        space = load_space(name)
        assert count_placements(space) == expected
        assert len(list(iter_placements(space))) == expected


def test_placement_order_is_unit_layer_candidate():
    space = load_space("ofa")
    first = list(iter_placements(space))[:3]
    assert first[0] == Placement(1, 1, "MBConv3-3")
    assert first[1] == Placement(1, 1, "MBConv3-5")
    assert first[2] == Placement(1, 1, "MBConv3-7")


def test_block_roster():
    space = load_space("ofa")
    codes = block_codes(space)
    assert len(codes) == 9
    assert codes[0] == "MBConv3-3" and codes[-1] == "MBConv6-7"
    resnet = load_space("resnet50")
    assert block_codes(resnet) == (
        "C65-B20", "C65-B25", "C65-B35",
        "C80-B20", "C80-B25", "C80-B35",
        "C100-B20", "C100-B25", "C100-B35",
    )


def test_resnet_joint_codes_bind_the_ratio():
    space = load_space("resnet50")
    unit = space.unit(1)
    narrowed = consistent_blocks(unit, 0.65)
    assert [b.code for b in narrowed] == ["C65-B20", "C65-B25", "C65-B35"]
    # per-unit option count: 3 ratios x sum over depths of 3^d consistent picks
    assert sum(
        len(consistent_blocks(unit, r)) ** d
        for r in unit.channel_ratios
        for d in range(unit.depth_min, unit.depth_max + 1)
    ) == 351


def test_enumeration_matches_count(mini_space, mini_ratio_space):
    for space in (mini_space, mini_ratio_space):
        archs = list(enumerate_architectures(space))
        assert len(archs) == count_architectures(space) == 144
        keys = {arch_key(a) for a in archs}
        assert len(keys) == 144
        for arch in archs:
            validate_architecture(space, arch)


def test_enumeration_with_resolutions(mini_space_2res):
    archs = list(enumerate_architectures(mini_space_2res, include_resolutions=True))
    assert len(archs) == count_architectures(mini_space_2res, include_resolutions=True) == 288


def test_config_round_trip(tmp_path):
    for name in list_spaces():
        space = load_space(name)
        clone = parse_space_config(space_to_config(space))
        assert space_fingerprint(clone) == space_fingerprint(space)
        path = tmp_path / f"{name}.json"
        save_space(space, path)
        assert space_fingerprint(load_space(path)) == space_fingerprint(space)


def test_load_space_rejects_unknown_name():
    with pytest.raises(ConfigError, match="unknown space"):
        load_space("nope")


def test_config_errors_name_the_field():
    good = space_to_config(load_space("ofa"))

    bad = json.loads(json.dumps(good))
    bad["family"] = "transformer"
    with pytest.raises(ConfigError, match="family"):
        parse_space_config(bad)

    bad = json.loads(json.dumps(good))
    del bad["units"][0]["depth_min"]
    with pytest.raises(ConfigError, match=r"units\[0\]\.depth_min"):
        parse_space_config(bad)

    bad = json.loads(json.dumps(good))
    bad["units"][1]["blocks"][0]["kernel"] = 4
    with pytest.raises(ConfigError, match=r"units\[1\]\.blocks\[0\]\.kernel"):
        parse_space_config(bad)

    bad = json.loads(json.dumps(good))
    bad["units"][0]["blocks"][1]["code"] = bad["units"][0]["blocks"][0]["code"]
    with pytest.raises(ConfigError, match="duplicate block codes"):
        parse_space_config(bad)

    bad = json.loads(json.dumps(good))
    bad["resolutions"] = []
    with pytest.raises(ConfigError, match="resolutions"):
        parse_space_config(bad)

    bad = json.loads(json.dumps(good))
    bad["units"][2]["depth_max"] = 1
    with pytest.raises(ConfigError, match=r"units\[2\]\.depth_max"):
        parse_space_config(bad)


@pytest.mark.parametrize("field, change", [
    ("space.note", lambda c: c.update(note="x")),
    ("space.stem.channels", lambda c: c["stem"].update(channels=16)),
    ("space.head.hiden", lambda c: c["head"].update(hiden=1280)),
    ("units[2].depth", lambda c: c["units"][2].update(depth=3)),
    ("units[0].blocks[1].kernal", lambda c: c["units"][0]["blocks"][1].update(kernal=5)),
], ids=["top", "stem", "head", "unit", "block"])
def test_config_refuses_unknown_keys(field, change):
    config = space_to_config(load_space("ofa"))
    change(config)
    with pytest.raises(ConfigError, match=re.escape(f"{field}: unknown field")):
        parse_space_config(config)


def test_config_rejects_mixed_ratio_and_plain_units():
    # a unit without ratios beside units with them would sample ratio 1.0
    # there and then fail validation; the config is rejected at load instead
    config = space_to_config(load_space("resnet50"))
    config["units"][1]["channel_ratios"] = []
    with pytest.raises(ConfigError, match=r"units\[1\]\.channel_ratios"):
        parse_space_config(config)


def test_config_rejects_a_repeated_channel_ratio():
    # two gene values for one architecture: mutation and dedupe compare genes
    config = space_to_config(load_space("resnet50"))
    config["units"][2]["channel_ratios"] = [0.65, 0.8, 0.8]
    with pytest.raises(ConfigError, match=r"units\[2\]\.channel_ratios: duplicates"):
        parse_space_config(config)


def test_config_rejects_block_ratio_outside_unit_ratios():
    # pinning such a block would write a ratio the unit's gene cannot hold
    config = space_to_config(load_space("resnet50"))
    config["units"][2]["channel_ratios"] = [0.65, 1.0]
    config["units"][2]["blocks"] = [
        b for b in config["units"][2]["blocks"] if b["channel_ratio"] != 0.8
    ] + [{"code": "C80-B20", "kernel": 3, "expansion": 0.2, "channel_ratio": 0.8}]
    with pytest.raises(ConfigError, match=r"units\[2\]\.blocks\[6\]\.channel_ratio: 0\.8"):
        parse_space_config(config)
    del config["units"][2]["blocks"][6]
    assert parse_space_config(config).units[2].channel_ratios == (0.65, 1.0)


def test_validate_placement_errors():
    space = load_space("ofa")
    validate_placement(space, Placement(1, 4, "MBConv6-7"))
    with pytest.raises(ValidationError):
        validate_placement(space, Placement(1, 5, "MBConv6-7"))
    with pytest.raises(ValidationError):
        validate_placement(space, Placement(6, 1, "MBConv6-7"))
    with pytest.raises(ValidationError):
        validate_placement(space, Placement(1, 1, "MBConv9-9"))


def test_block_lookup_and_errors():
    space = load_space("ofa")
    for unit in space.units:
        for b in unit.blocks:
            assert space.block(unit.index, b.code) is b
    with pytest.raises(ValidationError, match=r"^unit 6 out of range for space 'ofa'$"):
        space.block(6, "MBConv3-3")
    with pytest.raises(ValidationError, match=r"^unit 0 out of range"):
        space.block(0, "MBConv3-3")
    with pytest.raises(ValidationError,
                       match=r"^block 'MBConv9-9' not a candidate of unit 1 in space 'ofa'$"):
        space.block(1, "MBConv9-9")
    # a derived space gets its own index
    first = space.units[0]
    narrow = replace(space, units=(replace(first, blocks=first.blocks[:1]), *space.units[1:]))
    assert narrow.block(1, "MBConv3-3") is first.blocks[0]
    with pytest.raises(ValidationError, match="not a candidate"):
        narrow.block(1, "MBConv6-7")
    assert narrow == replace(space, units=narrow.units)


def test_block_axes_per_family():
    assert block_axes(load_space("ofa"), "MBConv4-5") == {"expansion": 4, "kernel": 5}
    assert block_axes(load_space("resnet50"), "C80-B25") == {
        "channel_ratio": 0.8, "expansion": 0.25}
    with pytest.raises(ValidationError, match="not in space"):
        block_axes(load_space("ofa"), "C80-B25")


def test_validate_architecture_errors():
    space = load_space("ofa")
    ok = Architecture(
        space="ofa", resolution=224, depths=(2, 2, 2, 2, 2),
        blocks=tuple(("MBConv3-3", "MBConv3-3") for _ in range(5)),
    )
    validate_architecture(space, ok)
    with pytest.raises(ValidationError, match="resolution"):
        validate_architecture(space, Architecture(
            space="ofa", resolution=200, depths=ok.depths, blocks=ok.blocks))
    with pytest.raises(ValidationError, match="depth"):
        validate_architecture(space, Architecture(
            space="ofa", resolution=224, depths=(1, 2, 2, 2, 2),
            blocks=(("MBConv3-3",),) + ok.blocks[1:]))
    with pytest.raises(ValidationError, match="not admissible"):
        validate_architecture(space, Architecture(
            space="ofa", resolution=224, depths=ok.depths,
            blocks=(("MBConv3-3", "C65-B20"),) + ok.blocks[1:]))
    with pytest.raises(ValidationError, match="names space"):
        validate_architecture(space, Architecture(
            space="other", resolution=224, depths=ok.depths, blocks=ok.blocks))
    # structural check alone passes for a foreign name
    validate_architecture(space, Architecture(
        space="other", resolution=224, depths=ok.depths, blocks=ok.blocks),
        check_name=False)


def test_validate_ratio_gene(mini_ratio_space):
    arch = Architecture(
        space="mini-ratio", resolution=64, depths=(1, 1),
        blocks=(("C65-B20",), ("C100-B35",)), channel_ratios=(0.65, 1.0),
    )
    validate_architecture(mini_ratio_space, arch)
    with pytest.raises(ValidationError, match="channel_ratios"):
        validate_architecture(mini_ratio_space, Architecture(
            space="mini-ratio", resolution=64, depths=(1, 1),
            blocks=(("C65-B20",), ("C100-B35",))))
    with pytest.raises(ValidationError, match="not admissible"):
        validate_architecture(mini_ratio_space, Architecture(
            space="mini-ratio", resolution=64, depths=(1, 1),
            blocks=(("C100-B20",), ("C100-B35",)), channel_ratios=(0.65, 1.0)))


def test_serialize_round_trip(mini_ratio_space):
    arch = Architecture(
        space="mini-ratio", resolution=64, depths=(2, 1),
        blocks=(("C65-B20", "C65-B35"), ("C100-B20",)), channel_ratios=(0.65, 1.0),
    )
    record = serialize(arch)
    back = deserialize(mini_ratio_space, record)
    assert back == arch
    assert arch_key(back) == arch_key(arch)
    with pytest.raises(ValidationError, match="missing field"):
        deserialize(mini_ratio_space, {"space": "mini-ratio"})


def test_fingerprint_tracks_content(mini_space):
    base = space_fingerprint(mini_space)
    assert base == space_fingerprint(load_space(space_to_config(mini_space)))
    from dataclasses import replace

    shrunk = replace(mini_space, resolutions=(32, 48))
    assert space_fingerprint(shrunk) != base
