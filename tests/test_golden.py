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
from archscope.sampling import Stream, sample_uniform
from archscope.tables import MetricTable, exact_table_from_pairs, save_table
from archscope.spaces import iter_placements, load_space

from .conftest import build_mini_space

EXPECTED = {
    "blocks-acc/blocks-resnet50-synthetic-acc.csv":
        "5b732b5a0c621ca4f8919bb5b47399d45d2c4018768a254507a7eb3b5ddbc0fa",
    "blocks-maxacc/blocks-resnet50-resnet50-maxacc-macs.csv":
        "e00e585c0d69565304b91a235d778320914c31fd9ee1bf9ca87be55033266e84",
    "blocks-note10/blocks-proxylessnas-note10-linear.csv":
        "8a414b33ec93706542590a1429defa14837b575b2485f8da82167ff360d67d1b",
    "blocks-npu/blocks-ofa-npu-like.csv":
        "224688edf4a794b967fef08a44e0c09120e8bd8391497af32e136e5d6822c2fe",
    "blocks-params/blocks-resnet50-params.csv":
        "df8ece0fd0fe2a63301d647e16a0501f34ac4c17db75382f641e863d9829a45b",
    "compare/compare.csv":
        "5f2ed3b5b625b490d35b61fe8899f8eb21dea017c5742faec6f2cf80a7687ebf",
    "docs/additive-table.csv":
        "c0f946ad1c30dca21e10c17921cb11fd69f40d58e70828764a4d5e073350014a",
    "docs/exact-table.csv":
        "52cf3fd06114d3e6d9f64bb68521d81a78b4e3ca1426eef2bfbc10fb86a037d8",
    "docs/profile.json":
        "2c364ba1f2cd29c7765e96fcf69d729fe57ba7b2ae1377b7f7101ac39705fdf1",
    "docs/ruleset.json":
        "11714181bf62a9d1277cfdfd90eabae52e28603640a42ebef55873dffb271443",
    "max/max-resnet50-s1-history.json":
        "6e7bc576e32a1c2514c28aaff26c58ed59fe1bdda8c20e99214c21119c7640e8",
    "max/max-resnet50-s1.json":
        "ce55d4a986f4dbfb374683fd8fa485429602836a1c3b0fc683b35919faf6976e",
    "max-weights/max-ofa-s2-history.json":
        "3bea5d76d47271e381dd0258daf9a336ed9462956538485888b7f88b4bffd506",
    "max-weights/max-ofa-s2.json":
        "cf067bffe34140d906b969dd44b71e9e23f25d62a818333c462196670a3da53c",
    "pareto-acc-macs/pareto-ofa-s5-history.json":
        "0ae45b12749d2959252b1153b9fb9d1e33c3e16dc8886df9c7d88d5bb98df842",
    "pareto-acc-macs/pareto-ofa-s5.csv":
        "32cef00491360e9a5f6159fc0555e840b769d91bb5fa2c45bd5a4f700fc91c73",
    "pareto-acc-macs/pareto-ofa-s5.json":
        "12822c35187fea8d51b98cb0330c611133d5a89c703e4960f7f568bb22d7acaf",
    "pareto-rank-sum/pareto-proxylessnas-s7-history.json":
        "835701bfa94bd1defddcaae1fa550d6503b3e49a7b1e908afb258e814028f296",
    "pareto-rank-sum/pareto-proxylessnas-s7.csv":
        "68cb5f129509ec775b1e378a9d6e10d4ca06f1087d0230976524a8390a3a2a91",
    "pareto-rank-sum/pareto-proxylessnas-s7.json":
        "b7141d6788ec100838d24dd2f42beb2eb9f35fe65a7ec1f84a4480135a061850",
    "pareto/pareto-ofa-ofa-npu-s3-history.json":
        "aad0a6c36d0ba40214dd13e30a54876efb911e7c013e11c7db1ae2135e57ef0d",
    "pareto/pareto-ofa-ofa-npu-s3.csv":
        "88892a9f8b825c540f8940e375fe4993099e32d6d230d0a9a009eb352fcbece8",
    "pareto/pareto-ofa-ofa-npu-s3.json":
        "ebd00e3d1826e5867bd00db85b17d5adf227ecc8d0d2605912a441be4f49a8a8",
    "pareto/pareto-ofa-ofa-npu-s4-history.json":
        "e34c102d8fbf6fe74461fabf42a7de9dc91bccc56b28b5f13d9bdce97eb3e3c9",
    "pareto/pareto-ofa-ofa-npu-s4.csv":
        "dddffa5ec893425470aef88a01b3e73dcd62e0a3a7b5aca3dd555907847c2438",
    "pareto/pareto-ofa-ofa-npu-s4.json":
        "137a7e5f22efa43fb435775a5982f4ebf095be33efea9a7b7baa20b9f3ca61f9",
    "placements-cpu/placements-resnet50-cpu-expansion-bound-boundaries.json":
        "eba4192618f817814a681fdc48fe813b313abf9300b3d12a2b5e8c1d6c96acf2",
    "placements-cpu/placements-resnet50-cpu-expansion-bound.csv":
        "176b65b59879714f66a974cbb3a2dbd3a7a47e4a5895dcbe447ec0b94ab18d0d",
    "placements-gpu/placements-proxylessnas-gpu-flat-boundaries.json":
        "9bad662cee2d21f9e0b6fb66bf9f761ae07134ca30f8098ff735d1044f64a692",
    "placements-gpu/placements-proxylessnas-gpu-flat.csv":
        "a0355f9aaec31fc0b61dc026dcbf37ae00d1043e0e89db52e392ed3316a55868",
    "placements-table/placements-ofa-thirds-boundaries.json":
        "39c8746f190eda8b8db4dcd712c4cfb6a2f11392f20873becfe67c09a34ce86a",
    "placements-table/placements-ofa-thirds.csv":
        "bc348bc418a8ea037645ae7978e7c283df8fecad9dd3681c746d86d7c5f8b31a",
    "reduce/reduced-resnet50-resnet50-maxacc.json":
        "08c99207efb452b429e2774cff38b287ff8016465082e3df5ea819bea2e9bda2",
    "sweep/placements-ofa-macs-boundaries.json":
        "162cc5915eb70d789c801b826f5414162b407636803d1e982afd6a8378d33ad8",
    "sweep/placements-ofa-macs.csv":
        "87db3a28e04f40b2fb5e807f23144d5039c907d140b52e0b6a285dbf4895a2a6",
    "sweep/placements-ofa-macs.dat":
        "f422688c78149e57dabc48b6db4355cdee6ba73555821481f858327b37b02db7",
    "sweep-pct/placements-ofa-npu-like-boundaries.json":
        "3a63115815cd4db51f8960ec65ed6542560aeea40007a2421a68bfe9a7a103bc",
    "sweep-pct/placements-ofa-npu-like.csv":
        "41ad526b417633d1d818d747a3953424649d5eb0b0d2de5e0697712ad27a40c5",
    "sweep-pct/placements-ofa-npu-like.dat":
        "1d2a6805cccb305a11231112afcb6134d8b236c7313015d2bc401463abe9d399",
    "tables/thirds.csv":
        "7c26026b0ea0a1807ae9f8ff63af691368ed1c0c961536843e3593554a162de8",
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
        "a5f1c1e55715b948df2ce70f2b5ce495ac80db5616304b07ae1534bda68612de",
    "max":
        "9cc890e2348f12ca9904df417a5d16f6424d6000224ed630964fdb8aded90c55",
    "max-weights":
        "be9d3f85bd32cc40ba7e9ca7418ede235741b58abc208ed36f0d1d3835d7b7ad",
    "pareto":
        "517dfe04b0352b12cf576637bdb95d5007e04e25af34c890afa0c68eb2d6b478",
    "pareto-acc-macs":
        "2ed144315dbe929bafb59ecde61f8de7c2502a52cf53a79431eca84f71b63e78",
    "pareto-rank-sum":
        "716054bdfb174b567c3951eb8be89435d2462c36f7b3d377e96970784af01bb0",
    "placements-cpu":
        "d0f75051c363fb7d798d143d068fe93ff874ec2961766e231885423c710f27e4",
    "placements-gpu":
        "97ae623a49339579a142c9f9ad6fe07c0fccb6f79c267ce507618b95e60669d8",
    "placements-table":
        "d210028bd50ee02f7001d8ae44af0b6f891503ac43bc6be37b07adea1b7a63ea",
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


def _save_awkward_table(path):
    """An additive ofa table of signed zeros and thirds, so every addition
    and its order shows in the scored bytes."""
    space = load_space("ofa")
    entries = {p.key(): (-0.0, 1 / 3, 0.0, -2 / 3, p.layer / 3)[i % 5]
               for i, p in enumerate(iter_placements(space))}
    save_table(MetricTable(space="ofa", metric="thirds", direction="minimize", units="ms",
                           kind="additive", entries=entries,
                           resolution_constants={192: -0.0, 208: 1 / 3, 224: 0.0}),
               path)


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
    rng = Stream(0, 5)
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
    (out / "tables").mkdir()
    _save_awkward_table(out / "tables" / "thirds.csv")
    run("placements-table", "profile", "placements", "--space", "ofa", "--metric",
        f"table:{out / 'tables' / 'thirds.csv'}", "--samples", "4", "--baseline-samples", "20")
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
