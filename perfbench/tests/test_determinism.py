"""Determinism self-check of the benchmark.

    python3 -m pytest perfbench/tests -q

For one seed, the generated inputs must be byte-identical from one
generation to the next and match the digests recorded in
``perfbench/reference.json``, and two traced runs over the same items must
repeat every work counter (calls, minimize calls, nfev, nit) exactly.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 1
ITEMS = {"convert": 8, "analyze_d2": 1, "tomo_d2": 1, "tomo_d2_r2": 1}
COUNTERS = (".calls", ".minimize_calls", ".nfev", ".nit")


@pytest.fixture(scope="module")
def library():
    sp = run.import_library()
    proj, frames = run.build_frames(sp)
    return sp, proj, run.workloads.Runner(sp, frames)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_byte_identical(library, workload):
    from record_reference import DIGEST_ITEMS, input_digest

    _, proj, _ = library
    first = run.Items(workload, SEED, proj)
    second = run.Items(workload, SEED, proj)
    assert [first[k] for k in range(4)] == [second[k] for k in range(4)]
    with open(run.REFERENCE, encoding="utf-8") as fh:
        recorded = json.load(fh)["input_sha256"][workload][str(SEED)]
    assert input_digest(first, DIGEST_ITEMS) == recorded


def traced_counters(library, workload: str) -> dict[str, float]:
    sp, proj, runner = library
    loop = run.Loop(runner, workload, run.Items(workload, SEED, proj), [])
    tracer = Tracer(sp)
    with tracer:
        loop.for_items(ITEMS[workload])
    assert loop.passed == ITEMS[workload], loop.status
    return {k: v for k, v in tracer.summary(ITEMS[workload]).items() if k.endswith(COUNTERS)}


@pytest.mark.parametrize("workload", sorted(ITEMS))
def test_work_counters_repeat_exactly(library, workload):
    first = traced_counters(library, workload)
    second = traced_counters(library, workload)
    assert first == second
    assert any(v > 0 for v in first.values())


def test_tracer_restores_the_library(library):
    sp, _, _ = library
    before = sp.measures.mat_exp
    with Tracer(sp):
        assert sp.measures.mat_exp.__wrapped__ is before
        assert sp.linalg.mat_exp is sp.measures.mat_exp
    assert sp.measures.mat_exp is before
