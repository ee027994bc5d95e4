import pytest

from archscope.devices import identity_profile, profile_latency
from archscope.errors import ConfigError, CoverageError
from archscope.sampling import sample_uniform, spawn_rng
from archscope.spaces import Architecture, iter_placements, load_space
from archscope.tables import (
    MetricTable,
    exact_table_from_pairs,
    load_table,
    save_table,
    table_evaluate,
    table_evaluator,
    validate_coverage,
)


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
    assert arch.n_layers == 15
    assert table_evaluate(space, table, arch) == 15 * 0.5 + 1.0 == 8.5


def test_additive_matches_identity_latency():
    space = load_space("ofa")
    table = _flat_table(space, 1.0, {r: 0.0 for r in space.resolutions})
    ident = identity_profile(space)
    rng = spawn_rng(17, 0)
    for _ in range(1_000):
        arch = sample_uniform(space, rng)
        assert table_evaluate(space, table, arch) == profile_latency(space, arch, ident)


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
    rng = spawn_rng(3, 0)
    known = [sample_uniform(mini_space, rng) for _ in range(5)]
    table = exact_table_from_pairs(
        mini_space, "measured", "minimize", "ms",
        [(a, 10.0 + i) for i, a in enumerate(known)],
    )
    assert table_evaluate(mini_space, table, known[2]) == 12.0
    stranger = next(
        a for a in (sample_uniform(mini_space, rng) for _ in range(100))
        if a not in known
    )
    with pytest.raises(CoverageError, match="no value"):
        table_evaluate(mini_space, table, stranger)


def test_table_file_round_trip(tmp_path, mini_space):
    table = _flat_table(mini_space, 0.25, {32: 2.5})
    path = tmp_path / "flat.csv"
    save_table(table, path)
    clone = load_table(path, mini_space)
    assert dict(clone.entries) == dict(table.entries)
    assert clone.resolution_constants == {32: 2.5}
    rng = spawn_rng(5, 0)
    for _ in range(50):
        arch = sample_uniform(mini_space, rng)
        assert table_evaluate(mini_space, clone, arch) == table_evaluate(mini_space, table, arch)


def test_exact_table_file_round_trip(tmp_path, mini_space):
    rng = spawn_rng(6, 0)
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
        pairs = [(sample_uniform(mini_space, spawn_rng(6, 0)), 1.5)]
        table = exact_table_from_pairs(mini_space, "m", "maximize", "", pairs)
    path = tmp_path / "t.csv"
    save_table(table, path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"row .*{bad!r}"):
        load_table(path)


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


def test_table_evaluator_direction(mini_space):
    table = _flat_table(mini_space, 1.0, {32: 0.0})
    ev = table_evaluator(mini_space, table)
    assert ev.name == "lat"
    assert ev.direction == "minimize"
    assert not ev.resolution_sensitive  # one constant, no spread
