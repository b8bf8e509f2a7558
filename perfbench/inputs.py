"""Seeded workload inputs, built with the benchmark's own NumPy code.

Nothing here calls ``sicprob``: a change to the library cannot change the
inputs it is measured on. Every item is the JSON object the ``sicprob`` CLI
would read (a ``convert`` item is a list of two, a qubit's and a qutrit's),
derived from ``numpy.random.default_rng([seed, index])``, so an item does
not depend on how many items came before it in a run.

Process family (stated once, never filtered or redrawn on outcome): a GKSL
master equation with Hamiltonian ``H = H_SCALE (G + G^H) / 2`` and a single
noise operator ``V = V_SCALE G'``, where ``G`` and ``G'`` have independent
standard complex Gaussian entries, evolved for time ``T_PROCESS``. The
calibration (preparation-and-measurement) channel is a second draw from the
same family evolved for ``T_CALIBRATION``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

H_SCALE = 0.3
V_SCALE = 0.25
T_PROCESS = 1.0
T_CALIBRATION = 0.25
ANALYZE_SHOTS = 4096
TOMO_SHOTS = 1024

FIDUCIAL_D3 = Path("tests") / "data" / "fiducial_d3.json"


def qubit_projectors() -> np.ndarray:
    """The tetrahedral qubit SIC, in the order the CLI's builtin frame uses."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    bloch = np.array([[1, -1, 1], [1, 1, -1], [-1, 1, 1], [-1, -1, -1]]) / np.sqrt(3)
    return np.stack([(np.eye(2) + r[0] * sx + r[1] * sy + r[2] * sz) / 2 for r in bloch])


def fiducial_d3_json(root: Path) -> dict:
    with open(root / FIDUCIAL_D3, encoding="utf-8") as fh:
        return json.load(fh)


def qutrit_projectors(fiducial: dict) -> np.ndarray:
    """Weyl-Heisenberg orbit ``X^a Z^b psi`` of the stored qutrit fiducial."""
    psi = np.array([complex(re, im) for re, im in fiducial["amplitudes"]])
    d = psi.size
    phases = np.exp(2j * np.pi * np.arange(d) / d)
    vecs = [np.roll(phases**b * psi, a) for a in range(d) for b in range(d)]
    return np.stack([np.outer(v, v.conj()) for v in vecs])


def _expm(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor exponential (degree 20, norm below 1/2)."""
    squarings = max(0, int(np.ceil(np.log2(max(np.abs(a).sum(axis=0).max(), 1e-300) * 2))))
    a = a / 2.0**squarings
    out = np.eye(a.shape[0], dtype=a.dtype)
    term = out
    for k in range(1, 21):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _cgauss(rng: np.random.Generator, d: int) -> np.ndarray:
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)


def gksl_superop(rng: np.random.Generator, d: int, t: float) -> np.ndarray:
    """Row-major superoperator ``exp(t L)`` of one draw from the GKSL family."""
    g = _cgauss(rng, d)
    h = H_SCALE * (g + g.conj().T) / 2
    v = V_SCALE * _cgauss(rng, d)
    eye = np.eye(d)
    vdv = v.conj().T @ v
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    gen += np.kron(v, v.conj()) - 0.5 * (np.kron(vdv, eye) + np.kron(eye, vdv.T))
    return _expm(t * gen)


def apply_superop(e: np.ndarray, x: np.ndarray) -> np.ndarray:
    d = x.shape[0]
    return (e @ x.reshape(-1)).reshape(d, d)


def kraus_from_superop(e: np.ndarray, d: int) -> list[np.ndarray]:
    """Kraus operators from the eigenvectors of the channel's Choi matrix."""
    # C[(a,i),(b,j)] = Phi(|i><j|)[a,b] = sum_k A_k[a,i] conj(A_k[b,j]), so each
    # eigenvector u with eigenvalue lam gives A[a, i] = sqrt(lam) u[(a, i)].
    choi = e.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    vals, vecs = np.linalg.eigh((choi + choi.conj().T) / 2)
    return [np.sqrt(lam) * vecs[:, k].reshape(d, d) for k, lam in enumerate(vals) if lam > 1e-14]


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    w = _cgauss(rng, d)
    rho = w @ w.conj().T
    return rho / np.trace(rho).real


def sic_probs(rho: np.ndarray, proj: np.ndarray) -> np.ndarray:
    return np.einsum("ab,iba->i", rho, proj).real / proj.shape[1]


def simulate_counts(rng: np.random.Generator, e: np.ndarray, proj: np.ndarray, shots: int):
    """Multinomial counts: SIC input ``i`` through ``Phi``, SIC outcome ``j``."""
    n = proj.shape[0]
    counts = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        q = np.clip(sic_probs(apply_superop(e, proj[i]), proj), 0.0, None)
        counts[i] = rng.multinomial(shots, q / q.sum())
    return counts


def linear_inversion(counts: np.ndarray, proj: np.ndarray, shots: int) -> np.ndarray:
    """Raw process estimate: solve the input-overlap system, fix column sums."""
    d = proj.shape[1]
    overlap = np.einsum("iab,jba->ij", proj, proj).real / d
    s = np.linalg.solve(overlap, counts / shots).T
    s[-1] = 1.0 - s[:-1].sum(axis=0)
    return s


def _complex_json(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


def _counts_json(counts: np.ndarray, d: int, shots: int) -> dict:
    return {"dim": d, "shots": shots, "counts": counts.tolist()}


def convert_item(rng: np.random.Generator, d: int) -> dict:
    rho = random_density(rng, d)
    kraus = kraus_from_superop(gksl_superop(rng, d, T_PROCESS), d)
    return {
        "dim": d,
        "state": {"dim": d, "matrix": _complex_json(rho)},
        "channel": {"dim_in": d, "dim_out": d, "kraus": [_complex_json(a) for a in kraus]},
    }


def analyze_item(rng: np.random.Generator, proj: np.ndarray) -> dict:
    d = proj.shape[1]
    counts = simulate_counts(rng, gksl_superop(rng, d, T_PROCESS), proj, ANALYZE_SHOTS)
    s = linear_inversion(counts, proj, ANALYZE_SHOTS)
    return {"dim_in": d, "dim_out": d, "matrix": s.tolist()}


def tomo_item(rng: np.random.Generator, proj: np.ndarray) -> dict:
    d = proj.shape[1]
    e_u = gksl_superop(rng, d, T_PROCESS)
    e_cal = gksl_superop(rng, d, T_CALIBRATION)
    cal = simulate_counts(rng, e_cal, proj, TOMO_SHOTS)
    main = simulate_counts(rng, e_cal @ e_u, proj, TOMO_SHOTS)
    return {
        "cal": _counts_json(cal, d, TOMO_SHOTS),
        "main": _counts_json(main, d, TOMO_SHOTS),
    }


def make_item(workload: str, seed: int, index: int, frames: dict[int, np.ndarray]) -> str:
    """JSON text of item ``index`` of ``workload`` for ``seed``."""
    rng = np.random.default_rng([seed, index])
    if workload == "convert":
        # A qubit and a qutrit conversion in one item: items of one kind would
        # fall into two clusters of times, and the median into the gap.
        obj = [convert_item(rng, 2), convert_item(rng, 3)]
    elif workload == "analyze_d2":
        obj = analyze_item(rng, frames[2])
    elif workload in ("tomo_d2", "tomo_d2_r2"):  # the same counts, other restarts
        obj = tomo_item(rng, frames[2])
    elif workload == "tomo_d3":
        obj = tomo_item(rng, frames[3])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return json.dumps(obj)
