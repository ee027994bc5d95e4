"""Pinned digests of the data files written by small CLI runs and savers.

Reruns within one checkout are compared elsewhere; these digests pin the
bytes across changes, so a change to a random stream, a sample order or a
file format shows up here. Each run's stdout is pinned too, with its output
root replaced. Manifests carry timestamps and are not pinned.
A deliberate stream or format change updates the digests and says so in
CHANGES.md.
"""

import contextlib
import hashlib
import io

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

# sha256 of each run's stdout, its output root replaced by OUT
STDOUT = {
    "blocks-acc":
        "ed0800fe6115cc1ac23b9dcc68e2f6dd0f76a8097474444e37c192069e48bc7a",
    "blocks-maxacc":
        "0fd7bccd767377f2579b8f228b92d4d78dc0eeae2fd08f60cbcff160de89717b",
    "blocks-note10":
        "c48823a2ba79c4b93d542a6c33540242745fd1a44c64a85ee05dd84cb8061a27",
    "blocks-npu":
        "f31919d96baa4816bd007e3db6a1696b293b1e05ad7f886c3b4e4a30e4400b48",
    "blocks-params":
        "837af85942ea7b290bbe4d5d7b53dfd26081b52c6f734eb19a61d04d8de1d405",
    "compare":
        "9cbadee9dc794cbdd4eafedc4755c5efb854f94e5cdcab7fdf00a541e8bc0b10",
    "max":
        "5f0e6482882f70a2eca7dd345c4602f16af61481344c986dfcb49783a4398866",
    "max-weights":
        "2cd8a0c5fbe792969a2425b08433a0d566e402f1e57f3dcfc55173561019d0c5",
    "pareto":
        "5b9c77ca2ad10443bb4d6bd60ee7664288b29253bbb3519f0a38a3b8604f49ca",
    "pareto-acc-macs":
        "9d29cf67ae8ef08c60917597b21353262b524621110254d9d64ac8787fc95a74",
    "pareto-rank-sum":
        "f86d349c81560c2854624af50166325c1aae08d7922730d2f9f844fcadfd563e",
    "placements-cpu":
        "d0f75051c363fb7d798d143d068fe93ff874ec2961766e231885423c710f27e4",
    "placements-gpu":
        "97ae623a49339579a142c9f9ad6fe07c0fccb6f79c267ce507618b95e60669d8",
    "reduce":
        "520e4e876fb3cd487e104f4d04c73c8326af9ecdab28b7c720f57b54fcc0d7b7",
    "sweep":
        "fefed7970c8a4f48e688a3058dc168acd0aab280ae23a9d276bdbc4107cd9f94",
    "sweep-pct":
        "49ff6356cb1571e2301eb27e93cc560664e1eb10abc4a752d5ba53e76c42a493",
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
def golden(tmp_path_factory):
    """Run every golden command once: the output root, and each run's stdout
    with that root replaced by OUT."""
    out = tmp_path_factory.mktemp("golden")
    stdout = {}

    def run(name, *argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main([*argv, "--out", str(out / name)]) == 0
        stdout[name] = buf.getvalue().replace(str(out), "OUT")

    for name, *argv in _RUNS:
        run(name, *argv)
    reduced = out / "reduce" / "reduced-resnet50-resnet50-maxacc.json"
    run("blocks-maxacc", "profile", "blocks", "--space", str(reduced), "--metric", "macs",
        "--samples", "3")
    pareto = out / "pareto"
    run("compare", "search", "compare", str(pareto / "pareto-ofa-ofa-npu-s3.csv"),
        str(pareto / "pareto-ofa-ofa-npu-s4.csv"), "--grid-points", "12")
    (out / "docs").mkdir()
    _save_documents(out / "docs")
    return out, stdout


@pytest.fixture(scope="module")
def digests(golden):
    out, _ = golden
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


@pytest.mark.parametrize("name", sorted(STDOUT))
def test_stdout_digest(golden, name):
    assert hashlib.sha256(golden[1][name].encode()).hexdigest() == STDOUT[name]
