"""One cold set-up of a workload in a fresh process; prints its seconds.

    python3 perfbench/setup_probe.py <workload>

Times the import of walshcs and the workload's set-up, the same span the
runner times in its own process.
"""

from __future__ import annotations

import sys
from time import perf_counter

import harness

harness.pin_threads()
harness.use_checkout_sources()

import numpy  # noqa: E402,F401  (imported before the clock starts, as in run.py)


def main():
    start = perf_counter()
    import workloads

    workloads.WORKLOADS[sys.argv[1]].setup()
    print(perf_counter() - start)


if __name__ == "__main__":
    main()
