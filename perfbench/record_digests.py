#!/usr/bin/env python3
"""Record the SHA-256 of each op's JSON output on the default seed.

    python3 perfbench/record_digests.py

Runs the first ops of every workload on ``run.DEFAULT_SEED``, verifies each,
and rewrites ``perfbench/digests.json``.  A run of ``run.py`` on the default
seed then fails any op whose output bytes differ from the recorded ones.
Re-record only for a change that alters the output on purpose, and say so.
"""

from __future__ import annotations

import json
import sys

import run

OPS = {"count-large": 48, "cli-small-cells": 1035, "triangulate-tight": 96}


def main() -> int:
    record = {"seed": run.DEFAULT_SEED, "workloads": {}}
    for name, count in OPS.items():
        wl, inputs, _ = run.setup(name, run.DEFAULT_SEED)
        from workloads import sha256
        digests = []
        for k in range(count):
            if k == len(inputs):
                inputs.append(wl.build(run.DEFAULT_SEED, k))
            out = wl.run(inputs[k])
            wl.check(inputs[k], out)
            digests.append(sha256(wl.record(out)))
        record["workloads"][name] = digests
        print(f"{name}: {count} digests", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
