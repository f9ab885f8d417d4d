"""Pin the artifact hashes of the default seed in reference.json.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose artifacts are known to be right: it
runs one untraced sample of each workload at DEFAULT_SEED, requires every
other part of the correctness gate to pass, and overwrites reference.json.
A later change that alters an artifact's bytes fails the benchmark's gate
until this is run again on purpose.
"""

import json
import sys
from pathlib import Path

from run import REFERENCE, Run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    reference = {}
    for name in WORKLOADS:
        run = Run(Path.cwd(), name, DEFAULT_SEED)
        run.expected_hashes = {}
        run.hash_source = "itself"
        if run.sample(0, traced=False) is None or run.failed:
            print(f"{name}: " + "; ".join(run.problems), file=sys.stderr)
            return 1
        pinned = {step: hashes for step, hashes in run.expected_hashes.items() if hashes}
        if pinned:
            reference[name] = pinned
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
