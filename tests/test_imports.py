"""Start-up cost: what a fresh interpreter imports. Each check runs in its
own process, because this test process has imported everything already."""

import os
import subprocess
import sys
from pathlib import Path

import archscope
from archscope.spaces import iter_placements, load_space
from archscope.tables import MetricTable, save_table

_SRC = str(Path(archscope.__file__).resolve().parents[1])


def _modules_after(code: str) -> set[str]:
    """The names in sys.modules after running code in a fresh interpreter."""
    script = f"import sys\n{code}\nprint(' '.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": _SRC})
    return set(out.stdout.split())


def test_cli_import_skips_statistics_and_the_thread_pool():
    loaded = _modules_after("import archscope.cli")
    assert "statistics" not in loaded
    assert "concurrent.futures" not in loaded


def test_profile_placements_and_search_leave_numpy_ma_unimported(tmp_path):
    runs = [
        ["profile", "placements", "--space", "ofa", "--metric", "macs",
         "--samples", "3", "--baseline-samples", "5"],
        ["search", "pareto", "--space", "ofa", "--objectives", "synthetic-acc:max,macs:min",
         "--population", "4", "--generations", "2", "--children", "4"],
    ]
    for i, argv in enumerate(runs):
        code = (f"from archscope import cli\n"
                f"assert cli.main({[*argv, '--out', str(tmp_path / str(i))]!r}) == 0")
        assert "numpy.ma" not in _modules_after(code), argv[:2]


def test_profiles_and_search_leave_numpy_random_unimported(tmp_path):
    # every draw comes from sampling.Stream, which needs no numpy.random
    assert "numpy.random" not in _modules_after("import archscope.cli")
    runs = [
        ["profile", "placements", "--space", "ofa", "--metric", "npu-like",
         "--samples", "3", "--baseline-samples", "5"],
        ["profile", "blocks", "--space", "resnet50", "--metric", "synthetic-acc",
         "--samples", "2"],
        ["search", "pareto", "--space", "ofa", "--objectives", "synthetic-acc:max,macs:min",
         "--population", "4", "--generations", "2", "--children", "4"],
    ]
    for i, argv in enumerate(runs):
        code = (f"from archscope import cli\n"
                f"assert cli.main({[*argv, '--out', str(tmp_path / str(i))]!r}) == 0")
        assert "numpy.random" not in _modules_after(code), argv[:2]


def test_cli_import_leaves_tables_unloaded_until_a_table_metric(tmp_path):
    assert "archscope.tables" not in _modules_after("import archscope.cli")
    space = load_space("ofa")
    table = tmp_path / "t.csv"
    save_table(MetricTable(space="ofa", metric="lat", direction="minimize", units="ms",
                           kind="additive", entries={p.key(): 0.5 for p in iter_placements(space)},
                           resolution_constants={r: 1.0 for r in space.resolutions}), table)
    argv = ["profile", "blocks", "--space", "ofa", "--metric", f"table:{table}",
            "--samples", "2", "--out", str(tmp_path / "out")]
    code = ("from archscope import MetricTable\n"
            "from archscope import cli\n"
            f"assert cli.main({argv!r}) == 0")
    assert "archscope.tables" in _modules_after(code)
    assert (tmp_path / "out").is_dir()


def test_mutation_module_loads_only_for_a_search(tmp_path):
    assert "archscope.mutation" not in _modules_after("import archscope.cli")
    argv = ["search", "max", "--space", "ofa", "--objectives", "macs:min",
            "--population", "4", "--generations", "1", "--children", "4",
            "--out", str(tmp_path / "out")]
    code = f"from archscope import cli\nassert cli.main({argv!r}) == 0"
    assert "archscope.mutation" in _modules_after(code)


def test_package_names_load_on_first_use():
    loaded = _modules_after("import archscope\nassert archscope.__version__")
    assert not any(name.startswith("archscope.") for name in loaded)
    assert set(archscope.__all__) <= set(dir(archscope))
    for name in archscope.__all__:
        assert getattr(archscope, name) is not None


def test_every_export_is_its_module_name():
    exports = {name: module for module, names in archscope._EXPORTS.items()
               for name in names.split()}
    assert {"exact_table_from_pairs", "stream"} <= set(exports)
    code = ("import importlib\nimport archscope\n"
            f"for name, module in {exports!r}.items():\n"
            "    ours = getattr(importlib.import_module('archscope.' + module), name)\n"
            "    assert getattr(archscope, name) is ours, name\n")
    assert "archscope.tables" in _modules_after(code)


# Imported and never used, kept on purpose: the benchmark's tracer
# (perfbench/tracer.py) patches these names on these modules, so they stay
# until the tracer stops patching them.
_TRACER_KEPT_IMPORTS = {("profiler", "sample_fixed"), ("profiler", "sample_uniform"),
                        ("search", "sample_uniform")}


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads, by its syntax tree."""
    import ast

    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used and (path.stem, name) not in _TRACER_KEPT_IMPORTS]


def test_no_module_imports_a_name_it_never_uses():
    package = Path(archscope.__file__).resolve().parent
    unused = {path.name: _unused_imports(path) for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
