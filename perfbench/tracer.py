"""Span tracer for one archscope CLI run, installed from outside the package.

Wrappers are patched onto the names the CLI and the library look up at call
time, so nothing under ``src/`` changes. Each wrapper records a span: its
name, its parent span (the innermost traced call it runs inside), its
duration and its self time (duration minus the time covered by child spans).
Spans are aggregated in memory per (name, parent) and written out when the
run ends.

Run as a script, it executes one CLI command under the tracer and writes the
aggregate as JSON:

    python3 perfbench/tracer.py TRACE.json -- profile blocks --space resnet50 ...

``src`` must be importable (the benchmark sets PYTHONPATH).
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from time import perf_counter


class Tracer:
    """Patches traced callables on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [calls, total_s, self_s]
        self.bootstrap_keys: set = set()
        self.bootstrap_index_bytes = 0
        self.export_bytes = 0
        self._default_resamples = None
        self._stack: list[list] = []  # [name, child_s] per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, label, after=None):
        """Wrap fn in a span; label is a name or a function of the call's args."""
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(args)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                key = (name, parent[0] if parent is not None else None)
                entry = spans.get(key)
                if entry is None:
                    spans[key] = [1, duration, duration - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[1]
            if after is not None:
                after(args, kwargs)
            return result

        return traced

    def _patch(self, owner, attr, label, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, label, after))

    # -- per-layer counters --------------------------------------------------

    def _bootstrap_done(self, args, kwargs):
        sample_set, tau = args[0], args[1]
        resamples = kwargs.get("resamples", args[2] if len(args) > 2 else self._default_resamples)
        # a sample set is identified by its provenance, which fixes its values
        self.bootstrap_keys.add((
            sample_set.metric, sample_set.seed, sample_set.n, sample_set.resolution,
            sample_set.condition, tau, resamples,
        ))
        # rng.integers(0, n, size=(B, n)) holds B * n int64 resample indices
        self.bootstrap_index_bytes = max(
            self.bootstrap_index_bytes, resamples * sample_set.n * 8
        )

    def _export_done(self, fn):
        signature = inspect.signature(fn)

        def after(args, kwargs):
            path = signature.bind(*args, **kwargs).arguments["path"]
            self.export_bytes += os.path.getsize(path)

        return after

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "Tracer":
        from archscope import cli, profiler, search
        from archscope.costs import MetricEvaluator
        from archscope.manifest import RunManifest

        self._default_resamples = profiler.BOOTSTRAP_RESAMPLES

        def evaluator_label(args):
            ev = args[0]
            return f"{ev.fn.__module__.rpartition('.')[2]}.{ev.name}"

        try:
            self._patch(cli, "load_space", "spaces.load_space")
            self._patch(cli, "apply_ruleset", "reduction.apply")
            self._patch(cli, "resolve_evaluator", "evaluators.resolve")
            self._patch(cli, "parse_objectives", "evaluators.resolve")
            self._patch(profiler, "sample_uniform", "sampling")
            self._patch(profiler, "sample_fixed", "sampling")
            self._patch(search, "sample_uniform", "sampling")
            self._patch(MetricEvaluator, "evaluate", evaluator_label)
            self._patch(profiler, "draw_samples", "profiler.draw_samples")
            self._patch(profiler.SampleSet, "percentile_stderr", "profiler.bootstrap",
                        self._bootstrap_done)
            self._patch(cli, "evolve", "search.evolve")
            self._patch(search, "mutate", "search.mutate")
            self._patch(search, "pareto_filter", "search.pareto_filter")
            for attr in sorted(vars(cli)):
                if attr.startswith("write_"):
                    fn = getattr(cli, attr)
                    self._patch(cli, attr, "exports.write", self._export_done(fn))
            self._patch(RunManifest, "write", "manifest.write")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        return {
            "spans": [[name, parent, *entry] for (name, parent), entry in self.spans.items()],
            "bootstrap_distinct": len(self.bootstrap_keys),
            "bootstrap_index_bytes": self.bootstrap_index_bytes,
            "export_bytes": self.export_bytes,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[2:]
    from archscope import cli

    with Tracer() as tracer:
        code = cli.main(cli_args)
    with open(trace_path, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
