"""Record the analyze workload's reference outputs into refs/analyze.json.

Run from the root of a checkout whose outputs are the reference:

    python3 perfbench/record_refs.py

Takes about two minutes on two cores (one analyze pass per budget).
"""

from __future__ import annotations

import json

import harness

harness.pin_threads()
harness.use_checkout_sources()

import workloads  # noqa: E402  (needs the source path set above)


def main():
    harness.OUT.mkdir(exist_ok=True)
    refs = workloads.record_references(harness.OUT)
    workloads.REFS.parent.mkdir(exist_ok=True)
    workloads.REFS.write_text(json.dumps(refs, indent=1) + "\n")
    print(workloads.REFS)


if __name__ == "__main__":
    main()
