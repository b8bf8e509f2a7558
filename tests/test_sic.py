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


def test_qubit_fiducial_generates_sic():
    # Bloch vector (1, 1, 1)/sqrt(3): the canonical qubit fiducial direction
    theta = np.arccos(1 / np.sqrt(3))
    amp = np.array(
        [np.cos(theta / 2), np.exp(1j * np.pi / 4) * np.sin(theta / 2)]
    )
    s = from_fiducial(Fiducial(2, amp))
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
        from_fiducial(Fiducial(2, np.array([1.0, 0.0])))


def test_unnormalized_fiducial_rejected():
    with pytest.raises(PhysicalityError):
        from_fiducial(Fiducial(2, np.array([1.0, 1.0])))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_fiducial_rejected(bad):
    # used to raise PhysicalityError ("projector dev 0.000e+00", CLI exit 3):
    # NaN passes the normalization test and every projector check
    with pytest.raises(ValueError, match="non-finite") as exc:
        from_fiducial(Fiducial(2, np.array([bad, bad])))
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
