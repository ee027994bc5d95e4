"""README.md's library example runs as written, and its layout table lists every module."""

import os
import re
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (_ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_readme_layout_lists_every_module():
    layout = (_ROOT / "README.md").read_text().split("## Layout", 1)[1]
    listed = set(re.findall(r"^\| `src/archscope/(\w+\.py)` \|", layout, re.M))
    modules = {p.name for p in (_ROOT / "src" / "archscope").glob("*.py")} - {"__init__.py"}
    assert sorted(modules - listed) == []
