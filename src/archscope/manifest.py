"""Run manifests: everything needed to audit or replay a CLI run.

Data files are byte-identical across reruns with the same inputs; anything
time-dependent (wall-clock timestamps) lives only here, so diffs of the data
outputs stay clean.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__ as _pkg_version
from .formats import write_json

MANIFEST_VERSION = 1


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    command: list[str]
    seed: int
    space_fingerprint: str = ""
    evaluators: list[dict] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)  # relative path -> sha256
    extra: dict = field(default_factory=dict)
    started_at: str = ""
    finished_at: str = ""

    def start(self) -> None:
        self.started_at = datetime.now(timezone.utc).isoformat()

    def add_output(self, path, base_dir) -> None:
        rel = str(Path(path).relative_to(base_dir))
        self.outputs[rel] = file_sha256(path)

    def write(self, path) -> None:
        self.finished_at = datetime.now(timezone.utc).isoformat()
        write_json({
            "format_version": MANIFEST_VERSION,
            "tool": "archscope",
            "version": _pkg_version,
            "command": self.command,
            "seed": self.seed,
            "space_fingerprint": self.space_fingerprint,
            "evaluators": self.evaluators,
            "outputs": dict(sorted(self.outputs.items())),
            "extra": self.extra,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }, path)
