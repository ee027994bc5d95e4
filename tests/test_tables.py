from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archscope import cli
from archscope.devices import identity_profile, latency_evaluator
from archscope.errors import ConfigError, CoverageError
from archscope.sampling import Genes, Stream, sample_batch, sample_uniform
from archscope.spaces import (
    Architecture,
    iter_placements,
    load_space,
    parse_space_config,
    record_hash,
    serialize,
)
from archscope.tables import (
    MetricTable,
    exact_table_from_pairs,
    load_table,
    save_table,
    table_evaluator,
    validate_coverage,
)

from .oracles import walker_table
from .test_fast_paths import _space_configs


def _flat_table(space, value, constants):
    entries = {(p.unit, p.layer, p.block_code): value for p in iter_placements(space)}
    return MetricTable(
        space=space.name, metric="lat", direction="minimize", units="ms",
        kind="additive", entries=entries, resolution_constants=constants,
    )


def test_additive_sum_frozen():
    space = load_space("ofa")
    table = _flat_table(space, 0.5, {r: 1.0 for r in space.resolutions})
    arch = Architecture(
        space="ofa", resolution=224, depths=(3, 3, 3, 3, 3),
        blocks=tuple(("MBConv3-3",) * 3 for _ in range(5)),
    )
    assert sum(arch.depths) == 15
    assert table_evaluator(space, table).fn(arch) == 15 * 0.5 + 1.0 == 8.5


def test_additive_matches_identity_latency():
    space = load_space("ofa")
    table = _flat_table(space, 1.0, {r: 0.0 for r in space.resolutions})
    value = table_evaluator(space, table).fn
    latency = latency_evaluator(space, identity_profile(space)).fn
    rng = Stream(17, 0)
    for _ in range(1_000):
        arch = sample_uniform(space, rng)
        assert value(arch) == latency(arch)


def test_coverage_gap_found_at_bind_time():
    space = load_space("ofa")
    table = _flat_table(space, 0.5, {r: 1.0 for r in space.resolutions})
    broken = dict(table.entries)
    del broken[(3, 2, "MBConv4-5")]
    gappy = MetricTable(
        space="ofa", metric="lat", direction="minimize", units="ms",
        kind="additive", entries=broken,
        resolution_constants=table.resolution_constants,
    )
    with pytest.raises(CoverageError, match="unit 3 layer 2 block MBConv4-5"):
        table_evaluator(space, gappy)
    missing_const = MetricTable(
        space="ofa", metric="lat", direction="minimize", units="ms",
        kind="additive", entries=table.entries, resolution_constants={224: 1.0},
    )
    with pytest.raises(CoverageError, match="resolution constant"):
        validate_coverage(space, missing_const)
    with pytest.raises(CoverageError, match="covers space"):
        validate_coverage(load_space("resnet50"), table)


def test_exact_table_lookup_and_miss(mini_space):
    rng = Stream(3, 0)
    known = [sample_uniform(mini_space, rng) for _ in range(5)]
    table = exact_table_from_pairs(
        mini_space, "measured", "minimize", "ms",
        [(a, 10.0 + i) for i, a in enumerate(known)],
    )
    value = table_evaluator(mini_space, table).fn
    assert value(known[2]) == 12.0
    stranger = next(
        a for a in (sample_uniform(mini_space, rng) for _ in range(100))
        if a not in known
    )
    with pytest.raises(CoverageError, match="no value"):
        value(stranger)


def test_table_file_round_trip(tmp_path, mini_space):
    table = _flat_table(mini_space, 0.25, {32: 2.5})
    path = tmp_path / "flat.csv"
    save_table(table, path)
    clone = load_table(path, mini_space)
    assert dict(clone.entries) == dict(table.entries)
    assert clone.resolution_constants == {32: 2.5}
    rng = Stream(5, 0)
    ours, theirs = table_evaluator(mini_space, clone).fn, table_evaluator(mini_space, table).fn
    for _ in range(50):
        arch = sample_uniform(mini_space, rng)
        assert ours(arch) == theirs(arch)


def test_exact_table_file_round_trip(tmp_path, mini_space):
    rng = Stream(6, 0)
    pairs = [(sample_uniform(mini_space, rng), 1.5 * i) for i in range(4)]
    table = exact_table_from_pairs(mini_space, "m", "maximize", "", pairs)
    path = tmp_path / "exact.csv"
    save_table(table, path)
    clone = load_table(path)
    assert dict(clone.entries) == dict(table.entries)
    assert clone.direction == "maximize"


@pytest.mark.parametrize("kind", ["additive", "exact"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "fast"])
def test_load_table_rejects_non_finite_values(tmp_path, mini_space, kind, bad):
    if kind == "additive":
        table = _flat_table(mini_space, 0.25, {32: 2.5})
    else:
        pairs = [(sample_uniform(mini_space, Stream(6, 0)), 1.5)]
        table = exact_table_from_pairs(mini_space, "m", "maximize", "", pairs)
    path = tmp_path / "t.csv"
    save_table(table, path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"row .*{bad!r}"):
        load_table(path)


@pytest.mark.parametrize("kind", ["additive", "exact"])
def test_load_table_refuses_a_repeated_key(capsys, tmp_path, kind):
    # the last value used to win silently
    space = load_space("ofa")
    if kind == "additive":
        table = _flat_table(space, 0.25, {r: 1.0 for r in space.resolutions})
        repeat = "1,1,MBConv3-3,99.0"
    else:
        pairs = [(sample_uniform(space, Stream(6, i)), 1.5) for i in range(3)]
        table = exact_table_from_pairs(space, "m", "maximize", "", pairs)
        repeat = f"{sorted(table.entries)[1]},99.0"
    path = tmp_path / "t.csv"
    save_table(table, path)
    path.write_text(path.read_text() + repeat + "\n")
    with pytest.raises(ConfigError, match=rf"t\.csv: row .*'99\.0'\]: repeats an earlier row's key"):
        load_table(path)
    if kind == "additive":  # the CLI names the row and exits 2
        argv = ["profile", "blocks", "--space", "ofa", "--metric", f"table:{path}",
                "--samples", "2", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "repeats an earlier row's key" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "fast"])
def test_exact_table_from_pairs_rejects_non_finite_values(mini_space, bad):
    rng = Stream(6, 0)
    pairs = [(sample_uniform(mini_space, rng), 1.5), (sample_uniform(mini_space, rng), bad)]
    with pytest.raises(ConfigError, match=rf"^pair 1: expected a finite number, got {bad!r}$"):
        exact_table_from_pairs(mini_space, "m", "maximize", "", pairs)


@pytest.mark.parametrize("column", [0, 1], ids=["unit", "layer"])
def test_load_table_rejects_non_integer_unit_and_layer(tmp_path, mini_space, column):
    path = tmp_path / "t.csv"
    save_table(_flat_table(mini_space, 0.25, {32: 2.5}), path)
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[column] = "x"
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="row .*expected an integer, got 'x'"):
        load_table(path)


def test_load_table_rejects_non_integer_resolution_key(tmp_path, mini_space):
    path = tmp_path / "t.csv"
    save_table(_flat_table(mini_space, 0.25, {32: 2.5}), path)
    path.write_text(path.read_text().replace("resolution_constant.32=", "resolution_constant.big="))
    with pytest.raises(ConfigError, match="resolution_constant.big: expected an integer"):
        load_table(path)


def test_load_table_rejects_non_finite_resolution_constant(tmp_path, mini_space):
    path = tmp_path / "t.csv"
    save_table(_flat_table(mini_space, 0.25, {32: 2.5}), path)
    path.write_text(path.read_text().replace("resolution_constant.32=2.5",
                                             "resolution_constant.32=nan"))
    with pytest.raises(ConfigError, match="resolution_constant.32"):
        load_table(path)


def test_table_schema_errors(tmp_path):
    with pytest.raises(ConfigError, match="kind"):
        MetricTable(space="x", metric="m", direction="minimize", units="",
                    kind="sparse", entries={})
    with pytest.raises(ConfigError, match="direction"):
        MetricTable(space="x", metric="m", direction="up", units="",
                    kind="exact", entries={})
    bad = tmp_path / "bad.csv"
    bad.write_text("# space=x\n# metric=m\n# direction=minimize\n# kind=additive\na,b\n1,2\n")
    with pytest.raises(ConfigError, match="columns"):
        load_table(bad)
    headerless = tmp_path / "empty.csv"
    headerless.write_text("unit,layer,block_code,value\n")
    with pytest.raises(ConfigError, match="header"):
        load_table(headerless)


def test_params_digest_tells_table_configurations_apart(mini_space_2res):
    space = mini_space_2res
    table = _flat_table(space, 1.0, {32: 0.0, 64: 0.5})
    archs = [sample_uniform(space, Stream(1, i)) for i in range(3)]
    variants = [
        table,
        _flat_table(space, 2.0, {32: 0.0, 64: 0.5}),
        _flat_table(space, 0.0, {32: 0.0, 64: 0.5}),
        _flat_table(space, -0.0, {32: 0.0, 64: 0.5}),
        _flat_table(space, 1.0, {32: -0.0, 64: 0.5}),
        replace(table, direction="maximize"),
        replace(table, units="s"),
        exact_table_from_pairs(space, "lat", "minimize", "ms", zip(archs, (1.0, 2.0, 3.0))),
        exact_table_from_pairs(space, "lat", "minimize", "ms", zip(archs, (1.0, 2.0, 4.0))),
    ]
    digests = [table_evaluator(space, t).params_digest for t in variants]
    assert len(set(digests)) == len(variants)
    shuffled = replace(table, entries=dict(reversed(table.entries.items())))
    assert table_evaluator(space, shuffled).params_digest == digests[0]


def test_table_evaluator_direction(mini_space):
    table = _flat_table(mini_space, 1.0, {32: 0.0})
    ev = table_evaluator(mini_space, table)
    assert ev.name == "lat"
    assert ev.direction == "minimize"
    assert not ev.resolution_sensitive  # one constant, no spread


# signed zeros and values of very different size, so every addition counts
_ENTRIES = st.sampled_from([0.0, -0.0, 0.1, -0.7, 1e-300, 3e15]) | st.floats(-1e3, 1e3)


@settings(max_examples=60, deadline=None)
@given(config=_space_configs(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_additive_batch_equals_the_walker_bit_for_bit(config, seed, data):
    space = parse_space_config(config)
    entries = {p.key(): data.draw(_ENTRIES) for p in iter_placements(space)}
    constants = {r: data.draw(_ENTRIES) for r in space.resolutions}
    table = MetricTable(space=space.name, metric="m", direction="minimize", units="",
                        kind="additive", entries=entries, resolution_constants=constants)
    genes = sample_batch(space, Stream(seed), 16)
    archs = [genes.architecture(i) for i in range(len(genes))]
    expected = [walker_table(table, arch).hex() for arch in archs]
    ev = table_evaluator(space, table)
    assert [v.hex() for v in ev.evaluate_batch(genes).tolist()] == expected
    assert [ev.fn(arch).hex() for arch in archs] == expected


def test_additive_sum_of_negative_zeros_stays_negative(mini_space_2res):
    table = _flat_table(mini_space_2res, -0.0, {32: -0.0, 64: 0.0})
    genes = sample_batch(mini_space_2res, Stream(4), 20)
    values = table_evaluator(mini_space_2res, table).evaluate_batch(genes).tolist()
    resolutions = [mini_space_2res.resolutions[s] for s in genes.resolution.tolist()]
    assert [v.hex() for v in values] == [
        walker_table(table, genes.architecture(i)).hex() for i in range(len(genes))]
    assert {(r, v.hex()) for r, v in zip(resolutions, values)} == {
        (32, "-0x0.0p+0"), (64, "0x0.0p+0")}


def test_exact_table_batch_raises_at_the_first_unknown_row(mini_space):
    genes = sample_batch(mini_space, Stream(8), 12)
    archs = list(dict.fromkeys(genes.architecture(i) for i in range(len(genes))))
    unknown = (3, 7)
    table = exact_table_from_pairs(mini_space, "m", "minimize", "", [
        (arch, 0.5 * i) for i, arch in enumerate(archs) if i not in unknown])
    ev = table_evaluator(mini_space, table)
    known = Genes.from_architectures(mini_space, archs[:3])
    assert ev.evaluate_batch(known).tolist() == [walker_table(table, a) for a in archs[:3]]
    with pytest.raises(KeyError):
        walker_table(table, archs[3])
    digest = record_hash(serialize(archs[3]))[:12]
    with pytest.raises(CoverageError, match=f"no value for architecture {digest}"):
        ev.evaluate_batch(Genes.from_architectures(mini_space, archs))
