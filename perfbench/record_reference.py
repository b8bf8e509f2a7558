#!/usr/bin/env python3
"""Record the scored values of the default seeds' first items.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs the first ``RECORD_ITEMS[workload]`` items of every solver workload for
each seed in ``DEFAULT_SEEDS`` and writes their projection residuals and
``delta_quant`` values (or the error an item raised) to
``perfbench/reference.json``, with a digest of the inputs they came from.
Later runs of these items fail any value that is worse than the record by
more than ``workloads.REFERENCE_*_TOL``; solvers may improve on it. Named
workloads are recorded alone and the records of the others are kept.
Re-record only when the inputs change or a workload is added, never to
absorb a worse result.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

DEFAULT_SEEDS = range(0, 11)
RECORD_ITEMS = {"analyze_d2": 32, "tomo_d2": 16, "tomo_d2_r2": 24}
DIGEST_ITEMS = 16


def input_digest(items: run.Items, n: int) -> str:
    h = hashlib.sha256()
    for k in range(n):
        h.update(items[k].encode())
    return h.hexdigest()


def main(names: list[str]) -> int:
    unknown = set(names) - set(run.WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    sp = run.import_library()
    proj, frames = run.build_frames(sp)
    runner = run.workloads.Runner(sp, frames)
    record = {"seeds": list(DEFAULT_SEEDS), "items": {}, "input_sha256": {}}
    if names:
        with open(run.REFERENCE, encoding="utf-8") as fh:
            record = json.load(fh)
    names = names or list(run.WORKLOADS)
    for workload in names:
        digests = record["input_sha256"][workload] = {}
        for seed in DEFAULT_SEEDS:
            digests[str(seed)] = input_digest(run.Items(workload, seed, proj), DIGEST_ITEMS)
    for workload in names:
        n = RECORD_ITEMS.get(workload)
        if n is None:
            continue
        per_seed = record["items"][workload] = {}
        for seed in DEFAULT_SEEDS:
            loop = run.Loop(runner, workload, run.Items(workload, seed, proj), [])
            loop.for_items(n)
            bad = [s for s in loop.status if s.startswith("check:")]
            if bad:
                print(f"{workload} seed {seed}: {bad[0]}", file=sys.stderr)
                return 1
            per_seed[str(seed)] = loop.values
            print(f"{workload} seed {seed}: {loop.passed}/{n} passed", file=sys.stderr)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
