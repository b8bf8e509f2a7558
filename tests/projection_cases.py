"""The ``project_cptp`` cases pinned by ``tests/data/project_cptp_restarts2.json``.

Each case is a raw reconstruction ``s_raw`` of 1024-shot counts of a random
qubit channel and the ``seed`` of its restarts; ``s_cptp`` is
``project_cptp`` of ``s_raw`` at ``OptConfig(restarts=2, seed=seed)``. Run as
a script, this reads ``s_raw`` and ``seed`` from the recorded file, projects
each case again and prints the file with the new ``s_cptp`` as JSON. The
inputs are projected as C-ordered arrays, as ``np.array`` makes them from
JSON; ``project_cptp`` reads any layout column-major. To re-record the
outputs (only when the library is meant to change them), run

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python3 tests/projection_cases.py > cases.json \\
        && mv cases.json tests/data/project_cptp_restarts2.json

(through a second file, since the script reads the one it replaces), and
``python3 tests/projection_cases.py --diff FIXTURE`` to list, as
``case/s_cptp`` followed by the largest absolute difference of its entries,
each output that differs from a recorded file (exit status 1 if any does).
"""

import json
import pathlib
import sys

import numpy as np

from pipeline_cases import differences
from sicprob._optim import OptConfig
from sicprob.channels import project_cptp
from sicprob.sic import builtin_qubit

FIXTURE = pathlib.Path(__file__).parent / "data" / "project_cptp_restarts2.json"
SIC = builtin_qubit()


def outputs(cases: list[dict]) -> list[dict]:
    """The recorded inputs of ``cases`` with their projections, as JSON values."""
    out = []
    for case in cases:
        opt = OptConfig(restarts=2, seed=case["seed"])
        s_cptp = project_cptp(np.array(case["s_raw"]), SIC, SIC, opt)
        out.append({"seed": case["seed"], "s_raw": case["s_raw"], "s_cptp": s_cptp.tolist()})
    return out


if __name__ == "__main__":
    with open(FIXTURE, encoding="utf-8") as fh:
        inputs = json.load(fh)["cases"]
    result = {"cases": outputs(inputs)}
    if sys.argv[1:2] == ["--diff"]:
        with open(sys.argv[2], encoding="utf-8") as fh:
            changed = differences(result, json.load(fh))
        print("\n".join(changed))
        sys.exit(1 if changed else 0)
    print(json.dumps(result))
