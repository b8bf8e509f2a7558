#!/usr/bin/env python3
"""Replay the benchmark's recorded ``tomo_d2_r2`` items through the library.

    PYTHONPATH=src python3 tests/reference_replay.py

For each seed recorded in ``perfbench/reference.json`` (0-10), makes the
seed's first items with ``perfbench/inputs.py``, checks that they hash to the
recorded input digest, and runs each as the benchmark's ``tomo_d2_r2``
workload does: ``run_pipeline`` at restarts 2, with BLAS on one thread.
Every item is checked by ``workloads.check_tomo`` and against its record by
``workloads.check_reference``. Prints one line per seed: the items that
passed, the largest share of its tolerance that a scored value uses
(``(value - record) / tolerance``; a check fails above 1), and the sha256 of
the bytes of every item's ``cal.s_cptp``, ``main.s_cptp`` and ``s_u``, in
that order. A speed-up that must keep every bit keeps those digests. Exit
status 1 if any item fails. Reads the benchmark's files and writes none.
"""

import hashlib
import json
import sys
from pathlib import Path

# no bytecode files under perfbench/; run pins BLAS before NumPy loads
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402
import workloads  # noqa: E402
from record_reference import DIGEST_ITEMS, input_digest  # noqa: E402

WORKLOAD = "tomo_d2_r2"


def replay_seed(runner, proj: dict, seed: int, inputs_sha: str) -> tuple[int, int, float, str]:
    """``(passed, items, worst tolerance use, output digest)`` of one seed."""
    items = run.Items(WORKLOAD, seed, proj)
    if input_digest(items, DIGEST_ITEMS) != inputs_sha:
        print(f"seed {seed}: inputs differ from the recorded ones", file=sys.stderr)
        return 0, 0, float("nan"), ""
    run_item, check_item = runner.item_fns(WORKLOAD)
    records = run.load_reference(WORKLOAD, seed)
    digest = hashlib.sha256()
    passed, worst = 0, float("-inf")
    for k, record in enumerate(records):
        text = items[k]
        try:
            result = run_item(text)
            values = check_item(text, result)
            workloads.check_reference(values, record)
        except Exception as exc:  # a raise or a failed check fails the item
            print(f"seed {seed} item {k}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        passed += 1
        rep = result[0]
        for m in (rep.cal.s_cptp, rep.main.s_cptp, rep.s_u):
            digest.update(m.tobytes())
        for key, ref in record.items():
            if key != "error":
                tol = workloads.REFERENCE_ABS_TOL + workloads.REFERENCE_REL_TOL * abs(ref)
                worst = max(worst, (values[key] - ref) / tol)
    return passed, len(records), worst, digest.hexdigest()


def main() -> int:
    sp = run.import_library()
    proj, frames = run.build_frames(sp)
    runner = workloads.Runner(sp, frames)
    with open(run.REFERENCE, encoding="utf-8") as fh:
        recorded = json.load(fh)
    failed = 0
    for seed in recorded["seeds"]:
        inputs_sha = recorded["input_sha256"][WORKLOAD][str(seed)]
        passed, total, worst, sha = replay_seed(runner, proj, seed, inputs_sha)
        failed += total - passed if total else 1
        print(f"seed {seed:2d}: {passed}/{total} passed, worst {worst:+.3f} of tolerance, {sha}")
    print(f"{'all items passed' if not failed else f'{failed} failed'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
