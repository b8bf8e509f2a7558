"""Frozen closed-form matrices used as oracles across the test modules.

Everything here was derived by hand or with an independent construction
(direct trace formulas over the projectors) before the library existed, so
agreement is evidence and not circular reasoning.
"""

import json
import pathlib

import numpy as np

DATA = pathlib.Path(__file__).parent / "data"
S3 = np.sqrt(3.0)

# Frame matrix of the reference qubit SIC and its exact inverse.
K_QUBIT = 0.5 * np.array(
    [
        [1 + S3, 1 - S3, 1 + S3, 1 - S3],
        [S3 + 1j * S3, S3 - 1j * S3, -S3 - 1j * S3, -S3 + 1j * S3],
        [S3 - 1j * S3, S3 + 1j * S3, -S3 + 1j * S3, -S3 - 1j * S3],
        [1 - S3, 1 + S3, 1 - S3, 1 + S3],
    ]
)
KINV_QUBIT = (1.0 / 12.0) * np.array(
    [
        [3 + S3, S3 - 1j * S3, S3 + 1j * S3, 3 - S3],
        [3 - S3, S3 + 1j * S3, S3 - 1j * S3, 3 + S3],
        [3 + S3, -S3 + 1j * S3, -S3 - 1j * S3, 3 - S3],
        [3 - S3, -S3 - 1j * S3, -S3 + 1j * S3, 3 + S3],
    ]
)

# Unitary-generator images of the three Pauli Hamiltonians.
H1_QUBIT = np.array(
    [[0, 0, 1, -1], [0, 0, -1, 1], [-1, 1, 0, 0], [1, -1, 0, 0]], dtype=float
)
H2_QUBIT = np.array(
    [[0, -1, 1, 0], [1, 0, 0, -1], [-1, 0, 0, 1], [0, 1, -1, 0]], dtype=float
)
H3_QUBIT = np.array(
    [[0, -1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1], [-1, 0, 1, 0]], dtype=float
)


def rotation_z_closed_form(t: float) -> np.ndarray:
    """exp(t * H3_QUBIT / 2) written out with sines and cosines."""
    c, s = np.cos(t), np.sin(t)
    return 0.5 * np.array(
        [
            [1 + c, -s, 1 - c, s],
            [s, 1 + c, -s, 1 - c],
            [1 - c, s, 1 + c, -s],
            [-s, 1 - c, s, 1 + c],
        ]
    )


# Phase gate diag(1, i) acting by conjugation, as a quasi-stochastic matrix.
S_GATE_QUBIT = 0.5 * np.array(
    [[1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1], [-1, 1, 1, 1]], dtype=float
)

# Transposition and the trace-complement map: positive but not completely
# positive, so both must fail the complete-positivity test.
S_TRANSPOSE_QUBIT = 0.5 * np.array(
    [[1, 1, 1, -1], [1, 1, -1, 1], [1, -1, 1, 1], [-1, 1, 1, 1]], dtype=float
)
S_REDUCTION_QUBIT = 0.5 * np.array(
    [[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]], dtype=float
)

# Conversion between the SIC vector and the three mutually unbiased bases
# (+x, +y, +z outcome probabilities).
MUB_F_QUBIT = 0.5 * np.array(
    [
        [1 + S3, 1 + S3, 1 - S3, 1 - S3],
        [1 - S3, 1 + S3, 1 + S3, 1 - S3],
        [1 + S3, 1 - S3, 1 + S3, 1 - S3],
    ]
)
MUB_T_QUBIT = (S3 / 6.0) * np.array(
    [[1, -1, 1], [1, 1, -1], [-1, 1, 1], [-1, -1, -1]], dtype=float
)
MUB_C_QUBIT = (1.0 / 12.0) * np.array([3 - S3, 3 - S3, 3 - S3, 3 + 3 * S3])

# Measured single-qubit processes (a driven rotation and a decoherent
# channel) with the reference split of their generators into a unitary part
# and a dissipative part.  Values carry three printed decimals, so matching
# tests compare at the few-0.01 level.
S_DRIVE = np.array(
    [
        [0.517, -0.399, 0.478, 0.489],
        [0.449, 0.504, -0.418, 0.473],
        [0.502, 0.403, 0.466, -0.448],
        [-0.467, 0.493, 0.475, 0.487],
    ]
)
S_DECOHERE = np.array(
    [
        [0.893, 0.002, 0.100, 0.010],
        [0.018, 0.877, 0.012, 0.071],
        [0.102, 0.018, 0.924, 0.058],
        [0.014, 0.111, -0.002, 0.874],
    ]
)
H_DRIVE = np.array(
    [
        [0, -0.768, -0.033, 0.801],
        [0.768, 0, -0.761, -0.007],
        [0.033, 0.761, 0, -0.794],
        [-0.801, 0.007, 0.794, 0],
    ]
)
H_DECOHERE = np.array(
    [
        [0, -0.010, 0.012, -0.002],
        [0.010, 0, 0.011, -0.021],
        [-0.012, -0.011, 0, 0.023],
        [0.002, 0.021, -0.023, 0],
    ]
)
D_DRIVE = np.array(
    [
        [-0.044, 0.046, 0.070, 0.001],
        [0.013, -0.105, 0.005, 0.030],
        [0.033, 0.001, -0.110, 0.003],
        [-0.004, 0.058, 0.035, -0.034],
    ]
)
D_DECOHERE = np.array(
    [
        [-0.131, 0.008, 0.089, 0.007],
        [0.007, -0.136, -0.001, 0.098],
        [0.113, 0.025, -0.102, 0.035],
        [0.011, 0.103, 0.014, -0.139],
    ]
)


def gksl_action(h: np.ndarray, noise_ops, x: np.ndarray) -> np.ndarray:
    """The GKSL map in operator form:
    ``-i [H, X] + sum_k (V_k X V_k^H - {V_k^H V_k, X} / 2)``."""
    out = -1j * (h @ x - x @ h)
    for v in noise_ops:
        vdv = v.conj().T @ v
        out += v @ x @ v.conj().T - 0.5 * (vdv @ x + x @ vdv)
    return out


def pstoch_from_action(phi, sic) -> np.ndarray:
    """Channel matrix of the linear map ``phi`` entry by entry, from its
    action on the projectors: ``S_ij = (d+1)/d Tr[P_i phi(P_j)] - Tr[P_i phi(I)]/d``."""
    d = sic.dim
    offset = np.einsum("iab,ba->i", sic.projectors, phi(np.eye(d, dtype=complex))).real / d
    s = np.empty((d * d, d * d))
    for j in range(d * d):
        out = phi(sic.projectors[j])
        s[:, j] = (d + 1) / d * np.einsum("iab,ba->i", sic.projectors, out).real - offset
    return s


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random density matrix (Wishart construction)."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_kraus_channel(
    rng: np.random.Generator, dim: int, n_ops: int, dim_out: int | None = None
) -> list[np.ndarray]:
    """Random CPTP channel via a Haar isometry cut into Kraus blocks.

    The blocks are ``dim_out x dim`` (square by default); the isometry needs
    ``dim_out * n_ops >= dim``.
    """
    dim_out = dim if dim_out is None else dim_out
    big = rng.standard_normal((dim_out * n_ops, dim)) + 1j * rng.standard_normal(
        (dim_out * n_ops, dim)
    )
    q, r = np.linalg.qr(big)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return [q[k * dim_out : (k + 1) * dim_out, :] for k in range(n_ops)]


def qutrit_sic():
    """The qutrit SIC of ``tests/data/fiducial_d3.json``."""
    from sicprob.serialize import load_fiducial
    from sicprob.sic import from_fiducial

    with open(DATA / "fiducial_d3.json", encoding="utf-8") as fh:
        return from_fiducial(load_fiducial(json.load(fh)))
