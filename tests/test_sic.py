import dataclasses
import json
import pathlib

import numpy as np
import pytest

from sicprob.errors import PhysicalityError
from sicprob.serialize import load_fiducial
from sicprob.sic import (
    Fiducial,
    builtin_qubit,
    fingerprint,
    from_fiducial,
    kmatrix,
    vec,
    verify,
)

from fixtures import H3_QUBIT, K_QUBIT, KINV_QUBIT

DATA = pathlib.Path(__file__).parent / "data"


def load_d3():
    with open(DATA / "fiducial_d3.json", encoding="utf-8") as fh:
        return from_fiducial(load_fiducial(json.load(fh)))


def test_builtin_qubit_gram():
    s = builtin_qubit()
    gram = np.array(
        [
            [np.trace(s.projectors[i] @ s.projectors[j]).real for j in range(4)]
            for i in range(4)
        ]
    )
    expected = (2 * np.eye(4) + 1) / 3
    assert np.abs(gram - expected).max() < 1e-12


def test_builtin_qubit_projectors():
    s = builtin_qubit()
    for p in s.projectors:
        assert np.abs(p - p.conj().T).max() < 1e-14
        assert np.trace(p).real == pytest.approx(1.0)
        assert np.abs(p @ p - p).max() < 1e-14
    assert np.abs(sum(s.projectors) - 2 * np.eye(2)).max() < 1e-14


def test_frame_matrix_matches_closed_form():
    s = builtin_qubit()
    k, kinv = kmatrix(s)
    assert np.abs(k - K_QUBIT).max() < 1e-12
    assert np.abs(kinv - KINV_QUBIT).max() < 1e-12


def test_frame_matrix_inverse_pair():
    s = builtin_qubit()
    k, kinv = kmatrix(s)
    assert np.abs(kinv @ k - np.eye(4)).max() < 1e-12
    assert np.abs(k @ kinv - np.eye(4)).max() < 1e-12


def test_vec_is_row_major():
    a = np.array([[1, 2], [3, 4]])
    assert np.array_equal(vec(a), [1, 2, 3, 4])


def test_vec_kron_identity():
    # vec(U A V^H) = (U kron V*) vec(A), the identity the frame matrix relies on
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = vec(u @ a @ v.conj().T)
        rhs = np.kron(u, v.conj()) @ vec(a)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_verify_report_on_builtin():
    rep = verify(builtin_qubit())
    assert rep.ok
    assert rep.max_projector_dev < 1e-12
    assert rep.max_gram_dev < 1e-12
    assert rep.max_resolution_dev < 1e-12


@pytest.mark.parametrize("tilt, ok", [(2e-8, False), (4e-9, True)])
def test_verify_checks_the_resolution_of_identity(tilt, ok):
    # four pure states whose Bloch vectors all tilt toward the first by
    # ``tilt``: Tr(P_i P_j) moves by 4/9 of it, the largest entry of the
    # sum of the projectors by (4/3) sqrt(2/3), about 1.09, of it. At 2e-8
    # the overlaps pass the 1e-8 check and only the resolution of identity
    # fails
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    s = builtin_qubit()
    bloch = np.einsum("iab,kba->ik", s.projectors, pauli).real
    tilted = bloch + tilt * bloch[0]
    tilted /= np.linalg.norm(tilted, axis=1, keepdims=True)
    projectors = 0.5 * (np.eye(2) + np.einsum("ik,kab->iab", tilted, pauli))
    rep = verify(dataclasses.replace(s, projectors=projectors))
    assert rep.max_projector_dev < 1e-15
    assert rep.max_gram_dev < 1e-8
    assert (rep.max_resolution_dev <= 1e-8) == ok
    assert rep.ok == ok


def test_qubit_fiducial_generates_sic():
    # Bloch vector (1, 1, 1)/sqrt(3): the canonical qubit fiducial direction
    theta = np.arccos(1 / np.sqrt(3))
    amp = np.array(
        [np.cos(theta / 2), np.exp(1j * np.pi / 4) * np.sin(theta / 2)]
    )
    s = from_fiducial(Fiducial(amp))
    rep = verify(s)
    assert rep.ok


def test_d3_fiducial_generates_sic():
    s = load_d3()
    assert s.dim == 3
    assert len(s.projectors) == 9
    rep = verify(s)
    assert rep.ok
    gram = np.array(
        [
            [np.trace(s.projectors[i] @ s.projectors[j]).real for j in range(9)]
            for i in range(9)
        ]
    )
    expected = (3 * np.eye(9) + 1) / 4
    assert np.abs(gram - expected).max() < 1e-12


def test_d3_frame_matrix_inverts():
    s = load_d3()
    k, kinv = kmatrix(s)
    assert k.shape == (9, 9)
    assert np.abs(kinv @ k - np.eye(9)).max() < 1e-10


def test_non_fiducial_vector_rejected():
    # computational basis state: its orbit collapses, overlaps are wrong
    with pytest.raises(PhysicalityError):
        from_fiducial(Fiducial(np.array([1.0, 0.0])))


@pytest.mark.parametrize("tilt, raises", [(3e-11, False), (1e-9, True)])
def test_frame_change_check_rejects_a_slightly_tilted_fiducial(tilt, raises):
    # tilting the canonical qubit fiducial moves every overlap by ~tilt;
    # |K^-1 K - I| is (d + 1) / d times that, and must stay within 1e-10
    theta = np.arccos(1 / np.sqrt(3)) + tilt
    amp = np.array([np.cos(theta / 2), np.exp(1j * np.pi / 4) * np.sin(theta / 2)])
    if raises:
        with pytest.raises(PhysicalityError, match="frame-change matrices are inconsistent"):
            from_fiducial(amp)
    else:
        assert verify(from_fiducial(amp)).ok


def test_fiducial_must_be_a_vector():
    with pytest.raises(ValueError, match="must be a vector"):
        from_fiducial(np.eye(2))


def test_unnormalized_fiducial_rejected():
    with pytest.raises(PhysicalityError):
        from_fiducial(Fiducial(np.array([1.0, 1.0])))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_fiducial_rejected(bad):
    # used to raise PhysicalityError ("projector dev 0.000e+00", CLI exit 3):
    # NaN passes the normalization test and every projector check
    with pytest.raises(ValueError, match="non-finite") as exc:
        from_fiducial(Fiducial(np.array([bad, bad])))
    assert type(exc.value) is ValueError


def test_fingerprint_stable_and_distinct():
    a = fingerprint(builtin_qubit())
    b = fingerprint(builtin_qubit())
    assert a == b
    assert len(a) == 16
    assert fingerprint(load_d3()) != a


def test_shift_and_clock_orbit_structure():
    # projector 0 of the d=3 orbit is the fiducial itself
    s = load_d3()
    f = np.array([0.0, 1.0, -1.0]) / np.sqrt(2)
    p0 = np.outer(f, f.conj())
    assert np.abs(s.projectors[0] - p0).max() < 1e-12


def test_frame_matrix_diagonalizes_state_reconstruction():
    # row i of the inverse frame times vec(rho) is p_i
    s = builtin_qubit()
    rng = np.random.default_rng(9)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    k, kinv = kmatrix(s)
    p_direct = np.array([np.trace(rho @ pi).real / 2 for pi in s.projectors])
    assert np.abs((kinv @ vec(rho)).real - p_direct).max() < 1e-12
    # and K maps p back to vec of the quasi-inverse combination
    recon = (k @ p_direct).reshape(2, 2)
    assert np.abs(recon - rho).max() < 1e-12


def test_unitary_generator_fixture_via_frame():
    # independent elementwise route to one published generator
    s = builtin_qubit()
    h = np.diag([1.0, -1.0]).astype(complex)
    elementwise = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            comm = h @ s.projectors[j] - s.projectors[j] @ h
            elementwise[i, j] = (
                (2 + 1) / 2 * np.trace(-1j * comm @ s.projectors[i]).real
            )
    assert np.abs(elementwise - H3_QUBIT).max() < 1e-12
