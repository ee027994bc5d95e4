"""Pinned digests of the data files written by small CLI runs and savers.

Reruns within one checkout are compared elsewhere; these digests pin the
bytes across changes, so a change to a random stream, a sample order or a
file format shows up here. Manifests carry timestamps and are not pinned.
A deliberate stream or format change updates the digests and says so in
CHANGES.md.
"""

import hashlib

import pytest

from archscope import cli
from archscope.devices import load_profile, save_profile
from archscope.reduction import preset, save_ruleset
from archscope.sampling import sample_uniform, spawn_rng
from archscope.tables import MetricTable, exact_table_from_pairs, save_table
from archscope.spaces import iter_placements

from .conftest import build_mini_space

EXPECTED = {
    "blocks-acc/blocks-resnet50-synthetic-acc.csv":
        "b11d36df947516e3fd8ce10cd7c9e5109de70789e287c6b6683f1b2ba084fa49",
    "blocks-maxacc/blocks-resnet50-resnet50-maxacc-macs.csv":
        "a460257374207d2767948c27d71c87ad5634e2187acd989ed653cf3f1b96b916",
    "blocks-note10/blocks-proxylessnas-note10-linear.csv":
        "c87f3cfe1c646473722588180d9572d52bb14b5a2ff9af12643b715272e233c9",
    "blocks-npu/blocks-ofa-npu-like.csv":
        "b1b5e782191cb9f8ba5dc2a49277b2a8b28d24041764e5932c55353be27492a1",
    "blocks-params/blocks-resnet50-params.csv":
        "2f93e8a229dc5db93721b185ed90115e3121e6568ed470cd65ed6c17cebf2619",
    "compare/compare.csv":
        "03c1f1563b79d2dc5caa03c1e98cf50b41964dfdfb2b0b75df06b4f6c856a2d2",
    "docs/additive-table.csv":
        "c0f946ad1c30dca21e10c17921cb11fd69f40d58e70828764a4d5e073350014a",
    "docs/exact-table.csv":
        "2b9aa66f4848aee094eb38e9fbc6042546a1f24f173ff01f7804ac12e5adcdc3",
    "docs/profile.json":
        "2c364ba1f2cd29c7765e96fcf69d729fe57ba7b2ae1377b7f7101ac39705fdf1",
    "docs/ruleset.json":
        "11714181bf62a9d1277cfdfd90eabae52e28603640a42ebef55873dffb271443",
    "max/max-resnet50-s1-history.json":
        "0ebce37c9dd97af214aa0282d64c00ad4496be74f9766b5fcdb13c0427dcfa47",
    "max/max-resnet50-s1.json":
        "9d68cdd856792cb2d7cf79eb56776345b8b9effad55f6956ce55e84ec30781cc",
    "max-weights/max-ofa-s2-history.json":
        "72f572d270d1780e51b65a8dddac0bcc08dac6400a668c5431c694212d79fc61",
    "max-weights/max-ofa-s2.json":
        "676454f9b38d668cd58d42bd450fc548973d9efd02ec4e5afd11de1685710238",
    "pareto-acc-macs/pareto-ofa-s5-history.json":
        "95b7eefa15baf9fa6f3723714a0750d6590ef175071c963b77b6059464f7a79f",
    "pareto-acc-macs/pareto-ofa-s5.csv":
        "754c1412bd6e7a09b33db95c89759be12a6b0cc32556e95c0909abd5d98c11ee",
    "pareto-acc-macs/pareto-ofa-s5.json":
        "c543cb0c45f1f59bb44b2e19e6153c99c9cf38870046d649c3227ffb388091bd",
    "pareto-rank-sum/pareto-proxylessnas-s7-history.json":
        "3a7bdc1df776c004197c6ef1ca9ecec118c2409558c725ff881959cee2222a72",
    "pareto-rank-sum/pareto-proxylessnas-s7.csv":
        "b3d33c7d5835c8f159d8f25dcbc1512e91001a4620dc6b0d3c39a248f0dfa04f",
    "pareto-rank-sum/pareto-proxylessnas-s7.json":
        "b3b2afb50111c6284aae614af5fa222eca1964d4bd8e4f8bfe2bb3f180e237f2",
    "pareto/pareto-ofa-ofa-npu-s3-history.json":
        "49b9e6515b13244586361603e58a69d41ea2f9efc5c5a9ae2c9f63a58f9cb64d",
    "pareto/pareto-ofa-ofa-npu-s3.csv":
        "72076768e365b6a3e254cc213ef77997138a7c5be7b682dbd09af7131d126183",
    "pareto/pareto-ofa-ofa-npu-s3.json":
        "fd1920ddb4894d5198abd25a3b519e3e3fabf79a0d548ccb5f4f46824add6bc7",
    "pareto/pareto-ofa-ofa-npu-s4-history.json":
        "9982dbbdab3285771ffb6370b03cdc7e47ca9981f9148958de2efa9f1a3979e8",
    "pareto/pareto-ofa-ofa-npu-s4.csv":
        "9858c3c0ad22fba008b02773823608fbf1d4d75e9112f78a7fedadbcb41f2d1c",
    "pareto/pareto-ofa-ofa-npu-s4.json":
        "654eebeb2b3456b4752664b9d8532303292922de8e157e4d2374576ac4554996",
    "placements-cpu/placements-resnet50-cpu-expansion-bound-boundaries.json":
        "eba4192618f817814a681fdc48fe813b313abf9300b3d12a2b5e8c1d6c96acf2",
    "placements-cpu/placements-resnet50-cpu-expansion-bound.csv":
        "60e7d0a0ee6c5caf37de00b52de487b65548802e05d3bd7f66ce607d7e278d83",
    "placements-gpu/placements-proxylessnas-gpu-flat-boundaries.json":
        "9bad662cee2d21f9e0b6fb66bf9f761ae07134ca30f8098ff735d1044f64a692",
    "placements-gpu/placements-proxylessnas-gpu-flat.csv":
        "fa14a40a0dc5ec64620bc6ff79ca0fdf71290680e03a727de11ecd9cc16f57eb",
    "reduce/reduced-resnet50-resnet50-maxacc.json":
        "08c99207efb452b429e2774cff38b287ff8016465082e3df5ea819bea2e9bda2",
    "sweep/placements-ofa-macs-boundaries.json":
        "162cc5915eb70d789c801b826f5414162b407636803d1e982afd6a8378d33ad8",
    "sweep/placements-ofa-macs.csv":
        "8cfba5ca3f3c58322c86223af6816e20e47f6492638458c00a8f9b3eb178ccc4",
    "sweep/placements-ofa-macs.dat":
        "b2d4b823fbbce44222fe56ccd633c8d5dc1a309ba7aebec0ce27e3d56ab8d075",
    "sweep-pct/placements-ofa-npu-like-boundaries.json":
        "3a63115815cd4db51f8960ec65ed6542560aeea40007a2421a68bfe9a7a103bc",
    "sweep-pct/placements-ofa-npu-like.csv":
        "84a17974188e56d07ce69cac67df0e30b424dd8b151136dfe4b3bdde3a945adb",
    "sweep-pct/placements-ofa-npu-like.dat":
        "3f8d33da998f94ddcd2d1bb3af94c14d2a0e258794bc2b365dd4a6a798b038c7",
}

_RUNS = (
    ("blocks-acc", "profile", "blocks", "--space", "resnet50", "--metric", "acc",
     "--samples", "4"),
    ("blocks-npu", "profile", "blocks", "--space", "ofa", "--metric", "npu-like",
     "--samples", "2", "--per-resolution"),
    ("sweep", "profile", "placements", "--space", "ofa", "--metric", "macs",
     "--samples", "6", "--baseline-samples", "20", "--percentiles", "5,50,95",
     "--raw", "--plot-data"),
    # percentile ranks on grid points of both sample sizes (9 and 25), ends included
    ("sweep-pct", "profile", "placements", "--space", "ofa", "--metric", "npu-like",
     "--samples", "9", "--baseline-samples", "25", "--percentiles", "0,12.5,50,100",
     "--raw", "--plot-data"),
    ("pareto", "search", "pareto", "--space", "ofa", "--preset", "ofa-npu",
     "--objectives", "acc:max,npu-like:min", "--population", "8",
     "--generations", "2", "--children", "10", "--repeats", "2", "--seed", "3"),
    ("max", "search", "max", "--space", "resnet50", "--population", "6",
     "--generations", "2", "--children", "8", "--seed", "1"),
    ("reduce", "reduce", "--space", "resnet50", "--preset", "resnet50-maxacc",
     "--emit-default"),
    # ratio factors, three resolution templates and a fixed overhead
    ("placements-cpu", "profile", "placements", "--space", "resnet50", "--metric",
     "cpu-expansion-bound", "--samples", "4", "--baseline-samples", "20"),
    ("blocks-note10", "profile", "blocks", "--space", "proxylessnas", "--metric",
     "note10-linear", "--samples", "3", "--per-resolution"),
    # exact integer parameter tables keyed by the previous unit's channel ratio
    ("blocks-params", "profile", "blocks", "--space", "resnet50", "--metric", "params",
     "--samples", "4"),
    # a unit with a single depth, so its depth draw takes no word
    ("placements-gpu", "profile", "placements", "--space", "proxylessnas", "--metric",
     "gpu-flat", "--samples", "5", "--baseline-samples", "20", "--raw"),
    # several non-dominated fronts per generation, the last one cut by crowding
    ("pareto-acc-macs", "search", "pareto", "--space", "ofa", "--objectives",
     "acc:max,macs:min", "--population", "12", "--generations", "3", "--children", "16",
     "--seed", "5"),
    # duplicates allowed and the rank-sum ranking instead of fronts
    ("pareto-rank-sum", "search", "pareto", "--space", "proxylessnas", "--objectives",
     "acc:max,params:min", "--population", "8", "--generations", "3", "--children", "12",
     "--no-dedupe", "--fitness-mode", "rank_sum", "--seed", "7"),
    # mutation unit weights with a zero: unit 1 is never mutated
    ("max-weights", "search", "max", "--space", "ofa", "--unit-weights", "0,1,1,2,3",
     "--population", "6", "--generations", "3", "--children", "8", "--seed", "2"),
)


def _save_documents(out):
    space = build_mini_space()
    entries = {
        (p.unit, p.layer, p.block_code): 0.1 * p.unit + p.layer / 7 + i / 3
        for i, p in enumerate(iter_placements(space))
    }
    save_table(MetricTable(space=space.name, metric="lat", direction="minimize",
                           units="ms", kind="additive", entries=entries,
                           resolution_constants={32: 1 / 3}),
               out / "additive-table.csv")
    rng = spawn_rng(0, 5)
    pairs = [(sample_uniform(space, rng), i * 0.37) for i in range(6)]
    save_table(exact_table_from_pairs(space, "acc", "maximize", "%", pairs),
               out / "exact-table.csv")
    save_profile(load_profile("cpu-expansion-bound"), out / "profile.json")
    save_ruleset(preset("ofa-note10"), out / "ruleset.json")


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    for name, *argv in _RUNS:
        assert cli.main([*argv, "--out", str(out / name)]) == 0
    reduced = out / "reduce" / "reduced-resnet50-resnet50-maxacc.json"
    assert cli.main(["profile", "blocks", "--space", str(reduced), "--metric", "macs",
                     "--samples", "3", "--out", str(out / "blocks-maxacc")]) == 0
    pareto = out / "pareto"
    assert cli.main(["search", "compare", str(pareto / "pareto-ofa-ofa-npu-s3.csv"),
                     str(pareto / "pareto-ofa-ofa-npu-s4.csv"), "--grid-points", "12",
                     "--out", str(out / "compare")]) == 0
    (out / "docs").mkdir()
    _save_documents(out / "docs")
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and not path.name.endswith("manifest.json")
    }


def test_file_set_is_pinned(digests):
    assert sorted(digests) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_data_file_digest(digests, name):
    assert digests[name] == EXPECTED[name]
