"""The per-item checks must reject wrong outputs, not only pass right ones.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from workloads import CheckFailed, check_analysis, check_reference  # noqa: E402


@pytest.fixture(scope="module")
def analyzed():
    sp = run.import_library()
    proj, frames = run.build_frames(sp)
    runner = run.workloads.Runner(sp, frames)
    text = run.Items("analyze_d2", 1, proj)[0]
    s, an, _ = runner.run_analyze(text)
    return sp, frames[2], s, an


def test_correct_analysis_passes(analyzed):
    _, frame, s, an = analyzed
    values = check_analysis(an, s, frame, "analysis")
    assert 0.0 <= values["delta_quant"]


def test_moved_unitary_part_fails(analyzed):
    _, frame, s, an = analyzed
    moved = an.h_part + 1e-3 * an.d_part
    bad = dataclasses.replace(an, h_part=moved, d_part=an.log - moved)
    with pytest.raises(CheckFailed, match="h_part"):
        check_analysis(bad, s, frame, "analysis")


def test_delta_quant_above_negativity_fails(analyzed):
    _, frame, s, an = analyzed
    bad = dataclasses.replace(an, quant=dataclasses.replace(an.quant, value=10.0))
    with pytest.raises(CheckFailed, match="negativity"):
        check_analysis(bad, s, frame, "analysis")


def test_non_cp_map_fails_choi_check(analyzed):
    sp, frame, _, _ = analyzed
    transpose = sp.builtin_ptp("transposition", frame.sic)
    with pytest.raises(CheckFailed, match="Choi eigenvalue"):
        frame.check_cptp(transpose, "transposition")
    frame.check_cptp(np.eye(4), "identity")


def test_reference_allows_improvement_only():
    check_reference({"delta_quant": 0.1}, {"delta_quant": 0.2})
    check_reference({"delta_quant": 0.3}, {"error": "raised: OptimizerError"})
    with pytest.raises(CheckFailed, match="worse"):
        check_reference({"delta_quant": 0.2 + 1e-5}, {"delta_quant": 0.2})
