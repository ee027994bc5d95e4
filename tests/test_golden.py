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
        "31a478acc9d7861958d84977ed6b3be8fe450670a1e0cf45f0c98798f8f1f027",
    "blocks-maxacc/blocks-resnet50-resnet50-maxacc-macs.csv":
        "f7e87ba0b7aa87bb53cd45b319ab57b53a6895b2ffd1dd60d2ffbe5d49e2ca56",
    "blocks-note10/blocks-proxylessnas-note10-linear.csv":
        "d937cd517bdd40cfb0b40d06b17a9e4f941b4f3b02e1334b472a6f5eb636dde8",
    "blocks-npu/blocks-ofa-npu-like.csv":
        "d7f817dbfc007cff53a1e83155174d908c3f36fbf773c2f0cc21029646cd2410",
    "blocks-params/blocks-resnet50-params.csv":
        "5c4a11fd68576334dcb44424e256d43db65cf5bc228bf508bf8ebe598a26c3cf",
    "compare/compare.csv":
        "37e15f2c65792d8daacb73ed9a932bddb9ae2c71a32d3ab73cb845d3df80e32b",
    "docs/additive-table.csv":
        "c0f946ad1c30dca21e10c17921cb11fd69f40d58e70828764a4d5e073350014a",
    "docs/exact-table.csv":
        "edf641e51cae1f9c311807d93ddb09d4cec25796be690bcf1e48194d99a64ee2",
    "docs/profile.json":
        "2c364ba1f2cd29c7765e96fcf69d729fe57ba7b2ae1377b7f7101ac39705fdf1",
    "docs/ruleset.json":
        "11714181bf62a9d1277cfdfd90eabae52e28603640a42ebef55873dffb271443",
    "max/max-resnet50-s1-history.json":
        "974b807447545dd999337544f9ff22e85a259bd278e3bd88a55485f9e87f08eb",
    "max/max-resnet50-s1.json":
        "97c215ad7287b310916b8a973d4fd4cf1789f26fb91316608a9395258864c620",
    "max-weights/max-ofa-s2-history.json":
        "51e11eefcdfd707b7a23df093c2ec8e70b7ec60621b1e4c434cd1dc1ade84901",
    "max-weights/max-ofa-s2.json":
        "b93d3b37753ffd32810a28868013a1856366879effe5e81228cc214e74a0cf08",
    "pareto-acc-macs/pareto-ofa-s5-history.json":
        "8739388cd219d4f2c86e1abb8454c1ced38fc602f9f666717ddb78aba715ab26",
    "pareto-acc-macs/pareto-ofa-s5.csv":
        "fe3da6c30067cbbcb2dd7260cd7b7f8f68f1d2cec1a1f1c63dc7b60ba047c0dd",
    "pareto-acc-macs/pareto-ofa-s5.json":
        "18117edb15418f788ee4fb46313fafe1a3682431ccfe216e425c1f9e724ec0e9",
    "pareto-rank-sum/pareto-proxylessnas-s7-history.json":
        "9bb6ebdeda8088296a51679c0f1c4e2700506cd4dbbf50fa97898a1cec0124bb",
    "pareto-rank-sum/pareto-proxylessnas-s7.csv":
        "756eaff10a94850c055b8c989ba37ed9c5d0e2e52f12bc762c0636e02701b70c",
    "pareto-rank-sum/pareto-proxylessnas-s7.json":
        "6f68c8757a853c4e70fc61e0944ef8068d45d7df1a0c846770c9d3de1ceaf307",
    "pareto/pareto-ofa-ofa-npu-s3-history.json":
        "f3893d32ba7760b6294ad6487b9d7ff80938709776da168e7beca79ceaacb2dc",
    "pareto/pareto-ofa-ofa-npu-s3.csv":
        "9896daf77347b41a55f026bc0b37380377e1a0cb5f502337f2d1f620d2a25402",
    "pareto/pareto-ofa-ofa-npu-s3.json":
        "91872232585635e0c5b58a88b27ca78100663a4c42f21f802bb593d1f7637665",
    "pareto/pareto-ofa-ofa-npu-s4-history.json":
        "5423a4b0c5eff4f67d8a2142371e48bbc093a9eae08b0cb2d76fbc47555c3db4",
    "pareto/pareto-ofa-ofa-npu-s4.csv":
        "72f9d16b33959222b830d24d83f7ad0427d877781b0af0a443e9f6e3f27a4101",
    "pareto/pareto-ofa-ofa-npu-s4.json":
        "e583aad6d019f4aa62f7640e1d0e281029b7c1cc3f79907a2d3b4dd913c2b0ed",
    "placements-cpu/placements-resnet50-cpu-expansion-bound-boundaries.json":
        "eba4192618f817814a681fdc48fe813b313abf9300b3d12a2b5e8c1d6c96acf2",
    "placements-cpu/placements-resnet50-cpu-expansion-bound.csv":
        "e77311b9251f69e0741f4e1ec1ebecbec34b3242d4704deec61ad04939921de3",
    "placements-gpu/placements-proxylessnas-gpu-flat-boundaries.json":
        "9bad662cee2d21f9e0b6fb66bf9f761ae07134ca30f8098ff735d1044f64a692",
    "placements-gpu/placements-proxylessnas-gpu-flat.csv":
        "831c3d86ee92fcb6fddc4060ee42d18e05444bc74fcbbc72056ad67b7f97e457",
    "reduce/reduced-resnet50-resnet50-maxacc.json":
        "08c99207efb452b429e2774cff38b287ff8016465082e3df5ea819bea2e9bda2",
    "sweep/placements-ofa-macs-boundaries.json":
        "162cc5915eb70d789c801b826f5414162b407636803d1e982afd6a8378d33ad8",
    "sweep/placements-ofa-macs.csv":
        "3017a3ce2636dfb3b87298e55f6ca748c370a98f6aa093d749e334fb97bb57be",
    "sweep/placements-ofa-macs.dat":
        "1ce8fca28eb33f9163a73bb2ed3112c33936aed69fc2e072e025bab7db06879d",
    "sweep-pct/placements-ofa-npu-like-boundaries.json":
        "3a63115815cd4db51f8960ec65ed6542560aeea40007a2421a68bfe9a7a103bc",
    "sweep-pct/placements-ofa-npu-like.csv":
        "ef7deb47752185bbe4a47a9e7f38675a961fec66c4aeb086b443a5bbb62a7328",
    "sweep-pct/placements-ofa-npu-like.dat":
        "c94310a203a1b9aa2352e1e7811c2f8f02a308030b9dce0e096e82665a73664c",
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
    # a unit with a single depth, so its depth row has bound 1
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
