"""One timed set-up in a fresh interpreter, for the median reported as ``setup_s``.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED WORKDIR full|tiny

Prints one JSON line: the seconds from before ``import fragileband`` to the
validated inputs, and the sha256 of the generated scenario JSON.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import inputs
import workloads


def main() -> None:
    name, seed, workdir, size = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4]
    start = time.perf_counter()
    workload = workloads.WORKLOADS[name](workdir, seed, inputs.FULL if size == "full" else inputs.TINY)
    digest = workload.setup()
    print(json.dumps({"seconds": time.perf_counter() - start, "sha256": digest}))


if __name__ == "__main__":
    main()
