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
        "5cf587fac6b29b21a89655d71a6fd240b358d451b5afb179df6185506e94cc72",
    "docs/additive-table.csv":
        "c0f946ad1c30dca21e10c17921cb11fd69f40d58e70828764a4d5e073350014a",
    "docs/exact-table.csv":
        "edf641e51cae1f9c311807d93ddb09d4cec25796be690bcf1e48194d99a64ee2",
    "docs/profile.json":
        "2c364ba1f2cd29c7765e96fcf69d729fe57ba7b2ae1377b7f7101ac39705fdf1",
    "docs/ruleset.json":
        "11714181bf62a9d1277cfdfd90eabae52e28603640a42ebef55873dffb271443",
    "max/max-resnet50-s1-history.json":
        "2d69f37b4f887a847ee9b1e66eadd602b03c07205fb95608910a49ee810f48ab",
    "max/max-resnet50-s1.json":
        "c04a150dcb130accafdf2f4ab702f6386ac01c1aaa09a8f6cd143c66a43888e5",
    "max-weights/max-ofa-s2-history.json":
        "06642236c1dba18257033ab0caab559542559d706d390b125682671cdfa71102",
    "max-weights/max-ofa-s2.json":
        "398e82771671997ba8226799316846564ffe4e41418edf6102d5acf9a215df3f",
    "pareto-acc-macs/pareto-ofa-s5-history.json":
        "5b6b8b97b281d98352c28d02c59317c2834fd0bd2859dffdbeb6fab5188e63c7",
    "pareto-acc-macs/pareto-ofa-s5.csv":
        "5ecc681b58ebfcd5e52612116562a5867eca7a62debd725166366b5393f56874",
    "pareto-acc-macs/pareto-ofa-s5.json":
        "84d3f7fae3c8a9e0cfbffd6e80472bd0d84e73f9aeb36a11d1bdbc547e13fb0c",
    "pareto-rank-sum/pareto-proxylessnas-s7-history.json":
        "9e1dd31598c58920af629309c3594e47f288673c84d2cf0cffa7433a460a97bf",
    "pareto-rank-sum/pareto-proxylessnas-s7.csv":
        "d8ec3b09ad55f61bec2c91070a59633e88458e514dc321fe0dcfc3587b28a48b",
    "pareto-rank-sum/pareto-proxylessnas-s7.json":
        "56efb6cb8394704298eff61db06043bd62404b79cc01532b406253640139a598",
    "pareto/pareto-ofa-ofa-npu-s3-history.json":
        "30f934b97e8a617314a0800e84ec0a9275201e9db4e865c928edd8d78d0f0d79",
    "pareto/pareto-ofa-ofa-npu-s3.csv":
        "6d0c2d2c5856a82263d954e5aac2d3c7eac31cfd6a37c859f9d607c1ac31224e",
    "pareto/pareto-ofa-ofa-npu-s3.json":
        "88868c8243eb9c71baa47447032ead2bb635f8a156c0509b2d2854fc17bf27ba",
    "pareto/pareto-ofa-ofa-npu-s4-history.json":
        "b793a2e1c9bec785a1daedaa2653782a291975fe33ea56ef5cf5d36ebe228098",
    "pareto/pareto-ofa-ofa-npu-s4.csv":
        "08d4275525b76ea1cfe5697504a7913fd43ea8e7220d7948ac3016485837f160",
    "pareto/pareto-ofa-ofa-npu-s4.json":
        "210f7d9285f418aa4044c7602dbcd287384b0b8a2c1951006f2684f777ebb794",
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
