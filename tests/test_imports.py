"""Start-up cost: what a fresh interpreter imports. Each check runs in its
own process, because this test process has imported everything already."""

import os
import subprocess
import sys
from pathlib import Path

import archscope

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
