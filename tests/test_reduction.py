import json

import pytest

from archscope.errors import ConfigError, ValidationError
from archscope.reduction import (
    ReductionRule,
    RuleSet,
    apply,
    list_rulesets,
    load_ruleset,
    preset,
    ruleset_from_config,
    ruleset_to_config,
    save_ruleset,
)
from archscope.sampling import Stream, sample_uniform
from archscope.spaces import (
    block_codes,
    count_architectures,
    load_space,
    space_fingerprint,
    validate_architecture,
)

PRESETS = (
    "ofa-npu", "ofa-gpu", "ofa-cpu", "ofa-note10",
    "proxylessnas-npu", "proxylessnas-gpu", "proxylessnas-cpu",
    "ofa-maxacc", "proxylessnas-maxacc", "resnet50-maxacc",
)

# closed forms: per-unit option counts after each preset's edits
EXPECTED_REDUCED = {
    "ofa-npu": 1548**5,
    "ofa-gpu": 1548**2 * 252**3,
    "ofa-cpu": 810**3 * 7371**2,
    "ofa-note10": 392 * 2793**4,
    "proxylessnas-npu": 1548**5 * 6,
    "proxylessnas-gpu": 252**3 * 1548**2 * 6,
    "proxylessnas-cpu": 810**2 * 7371**3 * 9,
    "ofa-maxacc": 775**5,
    "proxylessnas-maxacc": 775**5 * 5,
    "resnet50-maxacc": 351 * 351 * 729 * 81,
}


def _base(name):
    return load_space(preset(name).space)


def test_preset_roster():
    assert list_rulesets() == PRESETS


def test_headline_counts_frozen():
    assert EXPECTED_REDUCED["ofa-npu"] == 8_889_038_387_923_968
    assert EXPECTED_REDUCED["ofa-gpu"] == 38_348_072_082_432


@pytest.mark.parametrize("name", PRESETS)
def test_reduced_counts(name):
    assert count_architectures(apply(_base(name), preset(name))) == EXPECTED_REDUCED[name]


@pytest.mark.parametrize("name", PRESETS)
def test_reduced_members_validate_in_parent(name):
    parent = _base(name)
    reduced = apply(parent, preset(name))
    rng = Stream(0, 99)
    for _ in range(200):
        arch = sample_uniform(reduced, rng)
        validate_architecture(parent, arch, check_name=False)


def test_npu_presets_drop_large_kernels():
    reduced = apply(load_space("ofa"), preset("ofa-npu"))
    assert all("-7" not in code for code in block_codes(reduced))
    assert len(block_codes(reduced)) == 6
    reduced = apply(load_space("proxylessnas"), preset("proxylessnas-npu"))
    assert all("-7" not in code for code in block_codes(reduced))


def test_npu_presets_carry_unit_weights():
    assert preset("ofa-npu").advisory == {"unit_weights": [1, 1, 1, 2, 2]}
    assert preset("proxylessnas-npu").advisory == {"unit_weights": [1, 1, 1, 1, 2, 2]}
    assert preset("ofa-gpu").advisory == {}
    assert preset("resnet50-maxacc").advisory == {}


def test_gpu_preset_caps_late_units():
    reduced = apply(load_space("ofa"), preset("ofa-gpu"))
    caps = [u.depth_max for u in reduced.units]
    assert caps == [4, 3, 4, 3, 3]
    roster = block_codes(reduced)
    assert "MBConv3-3" not in roster and "MBConv4-3" not in roster
    assert "MBConv6-7" in roster


def test_cpu_preset_caps_early_units():
    reduced = apply(load_space("ofa"), preset("ofa-cpu"))
    assert [u.depth_max for u in reduced.units] == [3, 3, 3, 4, 4]
    assert len(block_codes(reduced)) == 9


def test_note10_preset_trims_resolutions():
    reduced = apply(load_space("ofa"), preset("ofa-note10"))
    assert reduced.resolutions == (192, 224)
    assert reduced.units[0].depth_max == 3
    assert all(u.depth_max == 4 for u in reduced.units[1:])
    assert len(block_codes(reduced)) == 7
    assert count_architectures(reduced, include_resolutions=True) == 2 * EXPECTED_REDUCED["ofa-note10"]


def test_resnet_maxacc_freezes_late_units():
    reduced = apply(load_space("resnet50"), preset("resnet50-maxacc"))
    u3, u4 = reduced.units[2], reduced.units[3]
    assert (u3.depth_min, u3.depth_max) == (6, 6)
    assert (u4.depth_min, u4.depth_max) == (4, 4)
    assert u3.channel_ratios == (1.0,) and u4.channel_ratios == (1.0,)
    assert {b.code for b in u3.blocks} == {"C100-B20", "C100-B25", "C100-B35"}
    # early units keep the full grid
    assert reduced.units[0].channel_ratios == (0.65, 0.8, 1.0)
    assert len(reduced.units[0].blocks) == 9


def test_reduced_name_and_idempotence():
    base = load_space("ofa")
    fp = space_fingerprint(base)
    once = apply(base, preset("ofa-npu"))
    assert once.name == "ofa:ofa-npu"
    assert space_fingerprint(base) == fp  # parent untouched
    twice = apply(once, preset("ofa-npu"))
    assert twice.name == once.name
    assert space_fingerprint(twice) == space_fingerprint(once)


def test_wrong_target_space():
    with pytest.raises(ValidationError, match="targets space"):
        apply(load_space("proxylessnas"), preset("ofa-npu"))


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown reduction preset"):
        preset("tpu-v9")


def test_cap_below_minimum():
    rules = RuleSet(name="r", space="", rules=(
        ReductionRule(kind="cap_depth", units=(1,), depth=1),))
    with pytest.raises(ValidationError, match="below depth_min"):
        apply(load_space("ofa"), rules)


def test_remove_cannot_empty_a_unit():
    rules = RuleSet(name="r", space="", rules=(
        ReductionRule(kind="remove_block", units=(2,),
                      blocks=tuple(block_codes(load_space("ofa")))),))
    with pytest.raises(ValidationError, match="empty the candidate list"):
        apply(load_space("ofa"), rules)


def test_remove_cannot_strand_a_ratio():
    space = load_space("resnet50")
    c65 = tuple(c for c in block_codes(space) if c.startswith("C65"))
    rules = RuleSet(name="r", space="", rules=(
        ReductionRule(kind="remove_block", units=(1,), blocks=c65),))
    with pytest.raises(ValidationError, match="no candidate for channel ratio"):
        apply(space, rules)


def test_fix_ratio_needs_the_gene():
    rules = RuleSet(name="r", space="", rules=(
        ReductionRule(kind="fix_channel_ratio", units=(1,), channel_ratio=1.0),))
    with pytest.raises(ValidationError, match="no channel-ratio gene"):
        apply(load_space("ofa"), rules)


def test_fix_ratio_must_be_listed():
    rules = RuleSet(name="r", space="", rules=(
        ReductionRule(kind="fix_channel_ratio", units=(1,), channel_ratio=0.9),))
    with pytest.raises(ValidationError, match="not among"):
        apply(load_space("resnet50"), rules)


def test_force_depth_outside_range():
    rules = RuleSet(name="r", space="", rules=(
        ReductionRule(kind="force_depth", units=(1,), depth=5),))
    with pytest.raises(ValidationError, match="outside"):
        apply(load_space("resnet50"), rules)


def test_restrict_to_foreign_resolution():
    rules = RuleSet(name="r", space="", rules=(
        ReductionRule(kind="restrict_resolutions", resolutions=(192, 256)),))
    with pytest.raises(ValidationError, match="not in current set"):
        apply(load_space("ofa"), rules)


def test_restrict_to_nothing():
    rules = RuleSet(name="r", space="", rules=(
        ReductionRule(kind="restrict_resolutions", resolutions=()),))
    with pytest.raises(ValidationError, match="empty resolution set"):
        apply(load_space("ofa"), rules)


def test_unit_out_of_range():
    rules = RuleSet(name="r", space="", rules=(
        ReductionRule(kind="cap_depth", units=(9,), depth=3),))
    with pytest.raises(ValidationError, match="out of range"):
        apply(load_space("ofa"), rules)


def test_unknown_rule_kind():
    rules = RuleSet(name="r", space="", rules=(ReductionRule(kind="frobnicate"),))
    with pytest.raises(ValidationError, match="unknown rule kind"):
        apply(load_space("ofa"), rules)


# ---------------------------------------------------------------------------
# config documents

@pytest.mark.parametrize("name", PRESETS)
def test_config_round_trip(name, tmp_path):
    original = preset(name)
    path = tmp_path / "rules.json"
    save_ruleset(original, path)
    loaded = load_ruleset(path)
    assert loaded == original
    assert ruleset_from_config(ruleset_to_config(original)) == original


def test_load_accepts_presets_dicts_and_rulesets():
    by_name = load_ruleset("ofa-npu")
    assert load_ruleset(by_name) is by_name
    assert load_ruleset(ruleset_to_config(by_name)) == by_name


def test_load_rejects_missing_source(tmp_path):
    with pytest.raises(ConfigError, match="not a preset"):
        load_ruleset(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_ruleset(str(bad))
    with pytest.raises(ConfigError, match="cannot load"):
        load_ruleset(42)


def _config(**overrides):
    base = {
        "name": "custom",
        "space": "ofa",
        "rules": [{"kind": "cap_depth", "units": [1], "depth": 3}],
    }
    base.update(overrides)
    return base


def test_parse_errors_name_fields():
    with pytest.raises(ConfigError, match="missing name"):
        ruleset_from_config(_config(name=""))
    with pytest.raises(ConfigError, match="non-empty list"):
        ruleset_from_config(_config(rules=[]))
    with pytest.raises(ConfigError, match="advisory"):
        ruleset_from_config(_config(advisory=["x"]))


def test_parse_refuses_unknown_keys_but_not_advisory_ones():
    with pytest.raises(ConfigError, match=r"ruleset\.nmae: unknown field"):
        ruleset_from_config(_config(nmae="x"))
    with pytest.raises(ConfigError, match=r"rules\[0\]\.unit: unknown field"):
        ruleset_from_config(_config(rules=[{"kind": "cap_depth", "unit": [2], "depth": 3}]))
    advisory = {"unit_weights": [1, 1, 1, 2, 2], "derived_from": {"blocks.csv": "0" * 64}}
    assert ruleset_from_config(_config(advisory=advisory)).advisory == advisory


def test_parse_errors_rule_fields():
    with pytest.raises(ConfigError, match=r"rules\[0\].kind"):
        ruleset_from_config(_config(rules=[{"kind": "shrink"}]))
    with pytest.raises(ConfigError, match=r"rules\[0\].units"):
        ruleset_from_config(_config(rules=[{"kind": "cap_depth", "units": [], "depth": 3}]))
    with pytest.raises(ConfigError, match=r"rules\[0\].depth"):
        ruleset_from_config(_config(rules=[{"kind": "cap_depth", "depth": "3"}]))
    with pytest.raises(ConfigError, match=r"rules\[0\].depth"):
        ruleset_from_config(_config(rules=[{"kind": "cap_depth", "depth": "max"}]))
    with pytest.raises(ConfigError, match=r"rules\[0\].blocks"):
        ruleset_from_config(_config(rules=[{"kind": "remove_block", "blocks": []}]))
    with pytest.raises(ConfigError, match=r"rules\[0\].channel_ratio"):
        ruleset_from_config(_config(rules=[{"kind": "fix_channel_ratio", "channel_ratio": True}]))
    with pytest.raises(ConfigError, match=r"rules\[0\].resolutions"):
        ruleset_from_config(_config(rules=[{"kind": "restrict_resolutions", "resolutions": 224}]))


def test_force_depth_accepts_max_sentinel():
    ruleset = ruleset_from_config(_config(
        space="resnet50",
        rules=[{"kind": "force_depth", "units": [3], "depth": "max"}]))
    reduced = apply(load_space("resnet50"), ruleset)
    assert reduced.units[2].depth_min == reduced.units[2].depth_max == 6


def test_saved_document_is_stable_json(tmp_path):
    path = tmp_path / "rules.json"
    save_ruleset(preset("ofa-note10"), path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1
    assert doc["space"] == "ofa"
    assert [r["kind"] for r in doc["rules"]] == [
        "cap_depth", "remove_block", "restrict_resolutions"]
