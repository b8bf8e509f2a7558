"""The ``run_pipeline`` cases pinned by ``tests/data/run_pipeline_restarts2.json``.

Run as a script, this prints the outputs of every case as JSON. The frame
search gives the same bits with any number of BLAS threads; the script is
run with BLAS on one thread, as the benchmark runs it. To re-record the
file (only when the library is meant to change its outputs), run

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python3 tests/pipeline_cases.py \\
        > tests/data/run_pipeline_restarts2.json

and ``python3 tests/pipeline_cases.py --diff FIXTURE`` to list, as
``case/analysis/key`` followed by the largest absolute difference of its
entries, each output that differs from a recorded file (exit status 1 if any
does).

``python3 tests/pipeline_cases.py --qutrit`` prints the outputs of one qutrit
case instead: the SIC of ``tests/data/fiducial_d3.json``, ``OptConfig(restarts=8,
seed=0)``. No file records them; run it with ``OPENBLAS_NUM_THREADS=1`` and
``=2`` to see whether they depend on the number of BLAS threads.
"""

import json
import sys

import numpy as np

from fixtures import qutrit_sic
from sicprob._optim import OptConfig
from sicprob.channels import kraus_to_pstoch
from sicprob.sic import builtin_qubit
from sicprob.tomography import run_pipeline, simulate_counts

SIC = builtin_qubit()


def amplitude_damping(gamma, d=2):
    """Each excited level decays to level 0 with probability ``gamma``."""
    keep = np.diag([1.0] + [np.sqrt(1 - gamma)] * (d - 1)).astype(complex)
    drops = []
    for j in range(1, d):
        drop = np.zeros((d, d), dtype=complex)
        drop[0, j] = np.sqrt(gamma)
        drops.append(drop)
    return [keep, *drops]


_RX = np.array([[np.cos(0.3), -1j * np.sin(0.3)], [-1j * np.sin(0.3), np.cos(0.3)]])
_PHASE = np.diag([1.0, np.exp(0.5j)])

# calibration damping, Kraus set of the process, seeds of the two count draws
CASES = [
    (0.1, [np.diag([1.0, 1j])], 73, 74),
    (0.05, [_RX], 75, 76),
    (0.08, [np.sqrt(0.8) * _PHASE, np.sqrt(0.2) * np.diag([1.0, -1.0]) @ _PHASE], 77, 78),
    (0.12, amplitude_damping(0.2), 79, 80),
]

# a qutrit phase gate after a rotation of levels 0 and 1
_RX3 = np.eye(3, dtype=complex)
_RX3[:2, :2] = _RX
QUTRIT_CASE = (0.08, [np.diag([1.0, np.exp(0.5j), np.exp(-0.4j)]) @ _RX3], 81, 82)


def outputs(gamma, process, seed_cal, seed_main, sic=SIC, restarts=2) -> dict:
    """``run_pipeline`` on 1024-shot counts of a damped chain, as JSON values."""
    s_dec = kraus_to_pstoch(amplitude_damping(gamma, sic.dim), sic, sic)
    s_proc = kraus_to_pstoch(process, sic, sic)
    counts_cal = simulate_counts(s_dec, sic, shots=1024, seed=seed_cal)
    counts_main = simulate_counts(s_dec @ s_proc, sic, shots=1024, seed=seed_main)
    rep = run_pipeline(counts_main, counts_cal, sic, OptConfig(restarts=restarts, seed=0))
    out = {
        "cal_s_cptp": rep.cal.s_cptp.tolist(),
        "main_s_cptp": rep.main.s_cptp.tolist(),
        "s_u": rep.s_u.tolist(),
    }
    for name in ("analysis_u", "analysis_cal"):
        an = getattr(rep, name)
        out[name] = {
            "log": an.log.tolist(),
            "h_part": an.h_part.tolist(),
            "d_part": an.d_part.tolist(),
            "s_mark": an.mark.s_mark.tolist(),
            "lam": an.quant.lam.tolist(),
            "markov_residual": an.markov_residual,
            "quant_value": an.quant.value,
        }
    return out


def _largest_difference(new, old) -> float:
    """Largest absolute entry difference, NaN if the shapes do not match."""
    try:
        return float(np.abs(np.subtract(new, old, dtype=float)).max())
    except (TypeError, ValueError):
        return float("nan")


def differences(got: dict, recorded: dict) -> list[str]:
    """``case/analysis/key`` (or ``case/key``) of every output that differs,
    each followed by the largest absolute difference of its entries."""
    out = []
    for k, (case, rec) in enumerate(zip(got["cases"], recorded["cases"], strict=True)):
        for key in sorted(case.keys() | rec.keys()):
            new, old = case.get(key), rec.get(key)
            if isinstance(new, dict) and isinstance(old, dict):
                subs = sorted(new.keys() | old.keys())
                pairs = [(f"{k}/{key}/{sub}", new.get(sub), old.get(sub)) for sub in subs]
            else:
                pairs = [(f"{k}/{key}", new, old)]
            out += [f"{name}  {_largest_difference(a, b):.3e}" for name, a, b in pairs if a != b]
    return out


if __name__ == "__main__":
    if sys.argv[1:2] == ["--qutrit"]:
        print(json.dumps(outputs(*QUTRIT_CASE, sic=qutrit_sic(), restarts=8), indent=1))
        sys.exit(0)
    result = {"cases": [outputs(*case) for case in CASES]}
    if sys.argv[1:2] == ["--diff"]:
        with open(sys.argv[2], encoding="utf-8") as fh:
            changed = differences(result, json.load(fh))
        print("\n".join(changed))
        sys.exit(1 if changed else 0)
    print(json.dumps(result, indent=1))
