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

``python3 tests/projection_cases.py --qutrit-digest`` prints the first 16 hex
digits of the sha256 of the bytes of ``project_cptp`` of the raw qutrit
matrix of ``tests/data/project_cptp_tomo_d3_seed3_item0.json`` at
``OptConfig(restarts=8)``. Run it with ``OPENBLAS_NUM_THREADS=1`` and ``=2``
to see whether those bytes depend on the number of BLAS threads.

``python3 tests/projection_cases.py --distances`` prints, one line per input,
the name and ``|project_cptp(s) - s|_F`` (or ``raises``) of a fixed set of
seeded noisy channel matrices, 300 qubit and 50 qutrit ones, at
``OptConfig(restarts=2)``. With ``--compare FILE``, the output of an earlier
run, it also lists each input whose distance is more than 1e-8 above FILE's
or that raises where it projected in FILE, and exits with status 1 if any
does. A projection that changes its solver must not make a distance worse.
"""

import hashlib
import json
import sys

import numpy as np

from fixtures import DATA, qutrit_sic, random_kraus_channel
from pipeline_cases import differences
from sicprob._optim import OptConfig
from sicprob.channels import kraus_to_pstoch, project_cptp
from sicprob.errors import OptimizerError
from sicprob.sic import builtin_qubit

FIXTURE = DATA / "project_cptp_restarts2.json"
SIC = builtin_qubit()


def outputs(cases: list[dict]) -> list[dict]:
    """The recorded inputs of ``cases`` with their projections, as JSON values."""
    out = []
    for case in cases:
        opt = OptConfig(restarts=2, seed=case["seed"])
        s_cptp = project_cptp(np.array(case["s_raw"]), SIC, SIC, opt)
        out.append({"seed": case["seed"], "s_raw": case["s_raw"], "s_cptp": s_cptp.tolist()})
    return out


def qutrit_digest() -> str:
    """Digest of the bytes of the recorded qutrit matrix's projection."""
    with open(DATA / "project_cptp_tomo_d3_seed3_item0.json", encoding="utf-8") as fh:
        s_raw = np.array(json.load(fh)["s_raw"])
    sic = qutrit_sic()
    out = project_cptp(s_raw, sic, sic, OptConfig(restarts=8))
    return hashlib.sha256(out.tobytes()).hexdigest()[:16]


def distances() -> dict[str, float | None]:
    """``|project_cptp(s) - s|_F`` of each seeded noisy channel matrix ``s``,
    by name, None where the projection raises."""
    out = {}
    for sic, count in ((SIC, 300), (qutrit_sic(), 50)):
        d = sic.dim
        for k in range(count):
            rng = np.random.default_rng([d, k])
            s = kraus_to_pstoch(random_kraus_channel(rng, d, 2), sic, sic)
            s += 0.03 * rng.standard_normal(s.shape)
            try:
                s_cptp = project_cptp(s, sic, sic, OptConfig(restarts=2))
                out[f"d{d}/{k}"] = float(np.linalg.norm(s_cptp - s))
            except OptimizerError:
                out[f"d{d}/{k}"] = None
    return out


def worse(new: dict, old: dict) -> list[str]:
    """The inputs whose distance is more than 1e-8 above ``old``'s, or that
    raise in ``new`` where they projected in ``old``."""
    out = []
    for name, was in old.items():
        now = new[name]
        if was is not None and (now is None or now > was + 1e-8):
            out.append(f"{name}  {was!r} -> {'raises' if now is None else repr(now)}")
    return out


if __name__ == "__main__":
    if sys.argv[1:2] == ["--qutrit-digest"]:
        print(qutrit_digest())
        sys.exit(0)
    if sys.argv[1:2] == ["--distances"]:
        dist = distances()
        print("\n".join(f"{name} {'raises' if v is None else repr(v)}" for name, v in dist.items()))
        if sys.argv[2:3] == ["--compare"]:
            with open(sys.argv[3], encoding="utf-8") as fh:
                rows = [line.split() for line in fh if line.strip()]
            bad = worse(dist, {name: None if v == "raises" else float(v) for name, v in rows})
            if bad:
                print("\n".join(bad), file=sys.stderr)
                sys.exit(1)
        sys.exit(0)
    with open(FIXTURE, encoding="utf-8") as fh:
        inputs = json.load(fh)["cases"]
    result = {"cases": outputs(inputs)}
    if sys.argv[1:2] == ["--diff"]:
        with open(sys.argv[2], encoding="utf-8") as fh:
            changed = differences(result, json.load(fh))
        print("\n".join(changed))
        sys.exit(1 if changed else 0)
    print(json.dumps(result))
