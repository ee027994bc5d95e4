"""Set-up probe: everything a CLI run does before its first architecture is drawn.

Imports the CLI (and with it every archscope layer), loads the space, applies
the reduction preset if any, and resolves the evaluators, then exits. The
benchmark times this process from spawn to exit as ``setup_s``.

    python3 perfbench/probe.py --space ofa --preset ofa-npu --metrics synthetic-acc:max,macs:min
"""

from __future__ import annotations

import argparse

from archscope import cli  # noqa: F401  (the import is part of set-up)
from archscope.evaluators import parse_objectives
from archscope.reduction import apply, load_ruleset
from archscope.spaces import load_space


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--space", required=True)
    parser.add_argument("--preset")
    parser.add_argument("--metrics", required=True)
    args = parser.parse_args()
    space = load_space(args.space)
    if args.preset:
        space = apply(space, load_ruleset(args.preset))
    parse_objectives(args.metrics, space)


if __name__ == "__main__":
    main()
