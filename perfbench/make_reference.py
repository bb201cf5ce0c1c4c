#!/usr/bin/env python3
"""Record the exact outputs of every pool item into perfbench/reference/.

    python3 perfbench/make_reference.py [workload ...]

The recorded answers are what every benchmark run is checked against, so
re-record only when a change is meant to alter cohsys's answers, and say so.
Each item runs with cold program caches, as in a benchmark run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def record(wl: workloads.Workload) -> dict:
    caches = workloads.program_caches()
    items = {}
    for key, cls, j in wl.pool():
        inp = wl.make_input(cls, j)
        for cache in caches:
            cache.cache_clear()
        items[key] = wl.outputs(inp, wl.run(inp))
    return {"workload": wl.name, "items": items}


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    for name in names:
        data = record(workloads.WORKLOADS[name])
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(data['items'])} items -> {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
