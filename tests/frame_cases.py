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
"""

import json
import pathlib

import numpy as np

from sicprob._optim import OptConfig
from sicprob.dynamics import basis_hunit
from sicprob.measures import delta_quant_detail
from sicprob.sic import builtin_qubit

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


if __name__ == "__main__":
    print(json.dumps(outputs(), indent=1))
