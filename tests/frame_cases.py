"""The frame searches pinned by ``tests/data/delta_quant_frames_d2.json``.

The 48 qubit generators of ``tests/data/delta_quant_tomo_d2_r2_seed0.json``
are searched at ``restarts`` 2, 8 and 32 (seed 0; 2 and 8 both refine the
minimum of 8 starts). Run as a script, this prints, for each setting and
generator, the value, the bytes of ``lam`` (hex), the number of scored frames
and the number of agreeing refined starts, as JSON.
The frame search is NumPy only and takes the same steps with any number of
BLAS threads. To re-record the file (only when the search is meant to change
its outputs), run

    PYTHONPATH=src python3 tests/frame_cases.py > tests/data/delta_quant_frames_d2.json

``python3 tests/frame_cases.py --diff FIXTURE`` lists, as ``restartsN/k``
followed by the value's change, each search whose value or ``lam`` differs
from a recorded file (exit status 1 if any does).

``python3 tests/frame_cases.py --qutrit-invariance`` searches 50 rotated
qutrit generators and their unrotated originals (restarts 8, seed 0) and
prints how many move ``delta_quant`` by more than 1e-6, the largest move
and the median milliseconds per search. Generator ``k`` is drawn from seed
``400 + k``: ``H = 0.3 (G + G^H) / 2`` and noise operator ``V = 0.25 G'``
for complex Gaussian ``G`` and ``G'``, rotated by ``exp(sum_i lam_i H_i)``
with ``lam`` uniform in ``[-2, 2]^8``.
"""

import json
import pathlib
import sys
import time

import numpy as np

from sicprob._optim import OptConfig
from sicprob.dynamics import GkslSpec, basis_hunit, lgen_from_gksl
from sicprob.linalg import mat_exp
from sicprob.measures import delta_quant_detail
from sicprob.serialize import load_fiducial
from sicprob.sic import builtin_qubit, from_fiducial

DATA = pathlib.Path(__file__).parent / "data"
RESTARTS = (2, 8, 32)


def outputs() -> dict:
    """Every search's ``(value, lam bytes, evaluations, restarts_agreeing)``."""
    with open(DATA / "delta_quant_tomo_d2_r2_seed0.json", encoding="utf-8") as fh:
        generators = [np.array(g) for g in json.load(fh)["generators"]]
    b = basis_hunit(builtin_qubit())
    out = {}
    for restarts in RESTARTS:
        rows = []
        for g in generators:
            rep = delta_quant_detail(g, b, OptConfig(restarts=restarts, seed=0))
            lam = rep.lam.tobytes().hex()
            rows.append([rep.value, lam, rep.evaluations, rep.restarts_agreeing])
        out[f"restarts{restarts}"] = rows
    return out


def differences(got: dict, recorded: dict) -> list[str]:
    """``restartsN/k`` of every search whose value or ``lam`` differs, each
    followed by the new value minus the recorded one."""
    out = []
    for key in sorted(got.keys() | recorded.keys()):
        new_rows, old_rows = got.get(key, []), recorded.get(key, [])
        if len(new_rows) != len(old_rows):
            out.append(f"{key}  {len(new_rows)} searches, recorded {len(old_rows)}")
            continue
        for k, (new, old) in enumerate(zip(new_rows, old_rows)):
            if new[:2] != old[:2]:
                out.append(f"{key}/{k}  {new[0] - old[0]:+.3e}")
    return out


def qutrit_invariance() -> tuple[int, float, float]:
    """``(moved, largest move, median ms per search)`` over the 50 rotated
    qutrit generators the module docstring describes."""
    with open(DATA / "fiducial_d3.json", encoding="utf-8") as fh:
        sic = from_fiducial(load_fiducial(json.load(fh)))
    b = basis_hunit(sic)
    opt = OptConfig(restarts=8, seed=0)
    moves, times = [], []
    for k in range(50):
        rng = np.random.default_rng(400 + k)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = 0.25 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        lmat = lgen_from_gksl(GkslSpec(3, 0.3 * (g + g.conj().T) / 2, (v,)), sic).matrix
        u = mat_exp(np.einsum("i,iab->ab", rng.uniform(-2.0, 2.0, len(b)), b))
        values = []
        for m in (lmat, u @ lmat @ u.T):
            start = time.perf_counter()
            values.append(delta_quant_detail(m, b, opt).value)
            times.append(time.perf_counter() - start)
        moves.append(abs(values[0] - values[1]))
    moved = sum(move > 1e-6 for move in moves)
    return moved, max(moves), 1e3 * float(np.median(times))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--qutrit-invariance"]:
        moved, worst, ms = qutrit_invariance()
        print(f"moved by > 1e-6: {moved} of 50; largest move {worst:.3e}; {ms:.1f} ms per search")
        sys.exit(0)
    result = outputs()
    if sys.argv[1:2] == ["--diff"]:
        with open(sys.argv[2], encoding="utf-8") as fh:
            changed = differences(result, json.load(fh))
        print("\n".join(changed))
        sys.exit(1 if changed else 0)
    print(json.dumps(result, indent=1))
