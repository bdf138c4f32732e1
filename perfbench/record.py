#!/usr/bin/env python3
"""Record every workload's input pool in ``perfbench/pinned.json``.

    python3 perfbench/record.py

Each entry holds the digest of one input batch; the ``isolate`` entries also
hold the digests of its answers.  Minimal isolating sets are unique, so a
correct program reproduces those exactly.  Rerun this only when a workload's
inputs change on purpose, on a commit whose answers are trusted (the test
suite checks them against brute force).
"""

from __future__ import annotations

import json
import sys

from run import SRC, WORKLOADS, import_isocut
from workloads import PINNED, POOL


def main() -> None:
    sys.path.insert(0, str(SRC))
    mods = import_isocut()
    table = {name: make(pool=[]).record(mods, POOL) for name, make in WORKLOADS.items()}
    PINNED.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
