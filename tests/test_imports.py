import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np

import sicprob

# A fresh interpreter: import the package and the CLI, run a state round
# trip and a Kraus channel round trip, and list the SciPy modules loaded.
SCRIPT = """
import sys
import numpy as np
import sicprob as sp
import sicprob.cli

sic = sp.builtin_qubit()
rho = np.array([[0.75, 0.2 - 0.1j], [0.2 + 0.1j, 0.25]])
assert np.allclose(sp.prob_to_state(sp.state_to_prob(rho, sic), sic), rho)
s = sp.kraus_to_pstoch([np.diag([1, 1j])], sic, sic)
assert sp.is_cptp(s, sic, sic)[0]
assert np.allclose(sp.choi_to_pstoch(sp.pstoch_to_choi(s, sic, sic), sic, sic), s)
LAZY = ("scipy", "sicprob._framesearch", "sicprob._lbfgsb")
print(sorted(m for m in sys.modules if m.startswith(LAZY)))
"""


def test_conversions_do_not_load_scipy():
    # SciPy is imported by the functions that need a matrix function or an
    # optimizer, the frame search module by delta_quant_detail and the
    # L-BFGS-B driver by project_cptp, so importing the package and
    # converting stays cheap
    src = pathlib.Path(sicprob.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# What the benchmark's setup interpreter does: import the package and its
# codecs and build both frames.
SETUP_SCRIPT = """
import json, sys
import sicprob, sicprob.serialize

with open(sys.argv[1], encoding="utf-8") as fh:
    fid = sicprob.serialize.load_fiducial(json.load(fh))
frames = (sicprob.builtin_qubit(), sicprob.from_fiducial(fid))
print(sorted(m for m in sys.modules if m in ("hashlib", "_hashlib")))
"""


def test_setup_does_not_load_hashlib():
    # fingerprint is the only user of hashlib and imports it itself
    src = pathlib.Path(sicprob.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    fiducial = pathlib.Path(__file__).parent / "data" / "fiducial_d3.json"
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, str(fiducial)],
        env=env, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# A fresh interpreter: analyze a qubit evolution and list the SciPy modules
# loaded.
ANALYZE_SCRIPT = """
import sys
import numpy as np
import sicprob as sp

sic = sp.builtin_qubit()
s = sp.kraus_to_pstoch([np.diag([1, np.exp(0.4j)])], sic, sic)
sp.analyze_evolution(0.98 * s + 0.02 * np.eye(4), sic, sp.OptConfig(restarts=2))
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_analysis_does_not_load_scipy_optimize():
    # the frame search, project_mark, the matrix exponential and the
    # eigendecomposition log are NumPy only; SciPy's logm serves just the
    # defective matrices the log's round-trip check rejects
    src = pathlib.Path(sicprob.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", ANALYZE_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# A fresh interpreter: run `sicprob analyze` on a file and list the SciPy
# modules loaded.
CLI_ANALYZE_SCRIPT = """
import sys
from sicprob.cli import main

code = main(["analyze", sys.argv[1], "--restarts", "2", "--out", sys.argv[2]])
print(code, sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_cli_analyze_does_not_load_scipy(tmp_path):
    # a raw estimate from 4096 shots of a damped rotation, as `sicprob
    # analyze` reads one
    from sicprob.channels import kraus_to_pstoch
    from sicprob.serialize import dump_pstoch
    from sicprob.tomography import freq_from_counts, reconstruct_raw, simulate_counts

    sic = sicprob.builtin_qubit()
    rot = np.array([[np.cos(0.3), -1j * np.sin(0.3)], [-1j * np.sin(0.3), np.cos(0.3)]])
    damp = [np.diag([1.0, np.sqrt(0.9)]), np.array([[0.0, np.sqrt(0.1)], [0.0, 0.0]])]
    s = kraus_to_pstoch([a @ rot for a in damp], sic, sic)
    raw = reconstruct_raw(freq_from_counts(simulate_counts(s, sic, shots=4096, seed=5)), sic)
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(dump_pstoch(raw, 2, 2)), encoding="utf-8")
    src = pathlib.Path(sicprob.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_ANALYZE_SCRIPT, str(path), str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    # the verb prints its table first
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


def test_package_exports_the_public_names_of_its_modules():
    # the package re-exports every name in its modules' __all__, the JSON
    # codecs of serialize apart, and nothing else
    names = set()
    for info in pkgutil.iter_modules(sicprob.__path__):
        if info.name != "serialize":
            module = importlib.import_module(f"sicprob.{info.name}")
            names |= set(getattr(module, "__all__", ()))
    assert len(set(sicprob.__all__)) == len(sicprob.__all__)
    assert set(sicprob.__all__) == names | {"__version__"}
    assert all(hasattr(sicprob, name) for name in sicprob.__all__)
