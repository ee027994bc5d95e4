"""Machine-speed reference: a fixed workload that does not use archscope.

A fresh interpreter imports numpy and runs a fixed mix of the work archscope
does (Python loops over tuples and dicts, scalar numpy draws, a vectorised
percentile). The benchmark runs it between CLI runs and divides by its median
time, which cancels the slow swings in speed that a shared machine shows over
minutes. Its code must not change once measurements have been taken with it.

    python3 perfbench/calibrate.py
"""

import numpy as np


def main() -> None:
    rng = np.random.default_rng(20210924)
    table = {(u, k): u * 31 + k for u in range(8) for k in range(16)}
    total = 0
    for i in range(25000):
        key = (i % 8, int(rng.integers(16)))
        total += table[key] + len(tuple(range(key[0])))
    values = rng.random((200, 2000))
    np.percentile(values, 95.0, axis=1)
    if total <= 0:
        raise SystemExit("calibration loop did not run")


if __name__ == "__main__":
    main()
