import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from sicprob import channels, dynamics
from sicprob._optim import OptConfig
from sicprob.channels import (
    _project_cptp_many,
    apply,
    builtin_ptp,
    choi_to_pstoch,
    compose,
    is_cptp,
    kraus_to_pstoch,
    project_cptp,
    pstoch_to_choi,
)
from sicprob.errors import OptimizerError, PhysicalityError
from sicprob.sic import builtin_qubit
from sicprob.states import state_to_prob
from sicprob.tomography import freq_from_counts, reconstruct_raw, simulate_counts

from fixtures import (
    DATA,
    S_GATE_QUBIT,
    S_REDUCTION_QUBIT,
    S_TRANSPOSE_QUBIT,
    pstoch_from_action,
    qutrit_sic,
    random_density,
    random_kraus_channel,
)

SIC = builtin_qubit()
SIC3 = qutrit_sic()


def elementwise_channel_matrix(kraus, sic_in, sic_out):
    """Independent trace-formula route to the channel matrix.

    ``S_ij = [(d_in + 1) Tr(P_i Phi(P_j)) - Tr(P_i Phi(I))] / d_out`` with
    ``P_i`` from the output frame and ``P_j`` from the input frame.
    """
    d_in, d_out = sic_in.dim, sic_out.dim
    phi_eye = sum(a @ a.conj().T for a in kraus)
    out = np.zeros((d_out * d_out, d_in * d_in))
    for i in range(d_out * d_out):
        for j in range(d_in * d_in):
            phi_pj = sum(a @ sic_in.projectors[j] @ a.conj().T for a in kraus)
            s_ij = np.trace(sic_out.projectors[i] @ phi_pj).real / d_out
            out[i, j] = (d_in + 1) * s_ij - np.trace(sic_out.projectors[i] @ phi_eye).real / d_out
    return out


def test_phase_gate_fixture():
    s = kraus_to_pstoch([np.diag([1.0, 1j])], SIC, SIC)
    assert np.abs(s - S_GATE_QUBIT).max() < 1e-12
    assert np.abs(np.abs(s).max() - 0.5) < 1e-12
    assert s.min() == pytest.approx(-0.5, abs=1e-12)


def test_identity_channel():
    s = kraus_to_pstoch([np.eye(2, dtype=complex)], SIC, SIC)
    assert np.abs(s - np.eye(4)).max() < 1e-12


def test_depolarizing_channel_is_flat():
    # full depolarizing: output is maximally mixed whatever goes in
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    kraus = [0.5 * np.eye(2, dtype=complex), 0.5 * sx, 0.5 * sy, 0.5 * sz]
    s = kraus_to_pstoch(kraus, SIC, SIC)
    assert np.abs(s - 0.25).max() < 1e-12


def test_kraus_matches_elementwise_route():
    rng = np.random.default_rng(61)
    for _ in range(10):
        kraus = random_kraus_channel(rng, 2, 3)
        fast = kraus_to_pstoch(kraus, SIC, SIC)
        slow = elementwise_channel_matrix(kraus, SIC, SIC)
        assert np.abs(fast - slow).max() < 1e-11


@pytest.mark.parametrize(
    "d_in, d_out, n_ops",
    [(3, 3, 1), (3, 3, 4), (2, 3, 2), (3, 2, 2), (3, 2, 5)],
    ids=["qutrit-unitary", "qutrit", "2to3", "3to2", "3to2-many"],
)
def test_kraus_matches_elementwise_route_qutrit_and_rectangular(d_in, d_out, n_ops):
    sics = {2: SIC, 3: SIC3}
    sic_in, sic_out = sics[d_in], sics[d_out]
    rng = np.random.default_rng(60 + 10 * d_in + d_out + n_ops)
    for _ in range(4):
        kraus = random_kraus_channel(rng, d_in, n_ops, d_out)
        fast = kraus_to_pstoch(kraus, sic_in, sic_out)
        assert fast.shape == (d_out * d_out, d_in * d_in)
        assert np.abs(fast - elementwise_channel_matrix(kraus, sic_in, sic_out)).max() < 1e-11
        # the per-operator Kronecker sum that the batched contraction replaces
        amat = sum(np.kron(a, a.conj()) for a in kraus)
        kron = (sic_out.kinv @ amat @ sic_in.kmat).real
        assert np.abs(fast - kron).max() < 1e-13
        assert np.abs(fast.sum(axis=0) - 1.0).max() < 1e-12
        # an array of stacked operators is accepted as well as a list
        assert np.array_equal(kraus_to_pstoch(np.stack(kraus), sic_in, sic_out), fast)


def test_kraus_requires_trace_preservation():
    with pytest.raises(PhysicalityError):
        kraus_to_pstoch([np.diag([0.5, 0.5]).astype(complex)], SIC, SIC)


def test_kraus_rejects_malformed_sets():
    with pytest.raises(ValueError, match="empty"):
        kraus_to_pstoch([], SIC, SIC)
    with pytest.raises(ValueError, match="inconsistent"):
        kraus_to_pstoch([np.eye(2), np.eye(3)], SIC, SIC)
    with pytest.raises(ValueError, match="does not match"):
        kraus_to_pstoch([np.eye(3)], SIC, SIC)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_conversions_reject_nonfinite(bad):
    # Each used to return a NaN matrix: NaN fails every tolerance test.
    kraus = [np.eye(2, dtype=complex)]
    kraus[0][0, 1] = bad
    with pytest.raises(ValueError, match="non-finite") as exc:
        kraus_to_pstoch(kraus, SIC, SIC)
    assert not isinstance(exc.value, PhysicalityError)
    s = np.eye(4)
    s[1, 2] = abs(bad)
    with pytest.raises(ValueError, match="non-finite"):
        pstoch_to_choi(s, SIC, SIC)
    choi = pstoch_to_choi(np.eye(4), SIC, SIC)
    choi[0, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        choi_to_pstoch(choi, SIC, SIC)


# apply and compose used to return NaN; project_cptp raised a raw
# LinAlgError, which the CLI maps to exit 4 instead of 2.
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_apply_rejects_nonfinite(bad):
    p = np.full(4, 0.25)
    s = np.eye(4)
    s[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        apply(s, p)
    p[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        apply(np.eye(4), p)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_compose_rejects_nonfinite(bad):
    s = np.eye(4)
    s[0, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        compose(s, np.eye(4))
    with pytest.raises(ValueError, match="non-finite"):
        compose(np.eye(4), s)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_project_cptp_rejects_nonfinite(bad):
    s = np.full((4, 4), bad)
    with pytest.raises(ValueError, match="non-finite") as exc:
        project_cptp(s, SIC, SIC, OptConfig(restarts=1))
    assert not isinstance(exc.value, OptimizerError)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_is_cptp_reports_nonfinite_without_raising(bad):
    s = np.eye(4)
    s[2, 1] = bad
    with np.errstate(invalid="ignore"):  # inf * 0 in the frame change
        ok, rep = is_cptp(s, SIC, SIC)
    assert ok is False
    assert not rep.ok
    assert not np.isfinite(rep.min_choi_eig)
    assert not np.isfinite(rep.herm_residual)


def test_channel_columns_sum_to_one():
    rng = np.random.default_rng(62)
    for _ in range(10):
        s = kraus_to_pstoch(random_kraus_channel(rng, 2, 2), SIC, SIC)
        assert np.abs(s.sum(axis=0) - 1.0).max() < 1e-12


def test_channel_acts_like_the_channel():
    rng = np.random.default_rng(63)
    for _ in range(10):
        kraus = random_kraus_channel(rng, 2, 2)
        s = kraus_to_pstoch(kraus, SIC, SIC)
        rho = random_density(rng, 2)
        out = sum(a @ rho @ a.conj().T for a in kraus)
        assert np.abs(apply(s, state_to_prob(rho, SIC)) - state_to_prob(out, SIC)).max() < 1e-12


def test_builtin_ptp_fixtures():
    st = builtin_ptp("transposition", SIC)
    sr = builtin_ptp("reduction", SIC)
    assert np.abs(st - S_TRANSPOSE_QUBIT).max() < 1e-12
    assert np.abs(sr - S_REDUCTION_QUBIT).max() < 1e-12
    with pytest.raises(ValueError):
        builtin_ptp("nonsense", SIC)


@pytest.mark.parametrize("sic", [SIC, SIC3], ids=["d2", "d3"])
def test_builtin_ptp_matches_the_elementwise_reference(sic):
    d = sic.dim
    maps = {
        "transposition": lambda x: x.T,
        "reduction": lambda x: (np.trace(x) * np.eye(d) - x) / (d - 1),
    }
    for name, phi in maps.items():
        assert np.abs(builtin_ptp(name, sic) - pstoch_from_action(phi, sic)).max() < 1e-12


def test_positive_but_not_completely_positive():
    for s in (S_TRANSPOSE_QUBIT, S_REDUCTION_QUBIT):
        ok, rep = is_cptp(s, SIC, SIC)
        assert not ok
        assert rep.min_choi_eig < -0.4
        # yet each maps every valid state to a valid state
        rng = np.random.default_rng(64)
        for _ in range(20):
            p = state_to_prob(random_density(rng, 2), SIC)
            q = s @ p
            from sicprob.states import qplex_membership

            assert qplex_membership(q, SIC)


def test_is_cptp_on_real_channels():
    rng = np.random.default_rng(65)
    for _ in range(10):
        s = kraus_to_pstoch(random_kraus_channel(rng, 2, 3), SIC, SIC)
        ok, rep = is_cptp(s, SIC, SIC)
        assert ok
        assert rep.min_choi_eig > -1e-10
        assert rep.tp_residual < 1e-10


def test_choi_round_trip():
    rng = np.random.default_rng(66)
    for _ in range(10):
        s = kraus_to_pstoch(random_kraus_channel(rng, 2, 2), SIC, SIC)
        choi = pstoch_to_choi(s, SIC, SIC)
        back = choi_to_pstoch(choi, SIC, SIC)
        assert np.abs(back - s).max() < 1e-10


def test_identity_choi_spectrum():
    s = np.eye(4)
    choi = pstoch_to_choi(s, SIC, SIC)
    vals = np.sort(np.linalg.eigvalsh(choi))
    assert np.abs(vals - np.array([0.0, 0.0, 0.0, 1.0])).max() < 1e-12


def test_choi_trace_is_one():
    # normalized so that a qubit channel has unit-trace state on both slots
    rng = np.random.default_rng(67)
    s = kraus_to_pstoch(random_kraus_channel(rng, 2, 3), SIC, SIC)
    choi = pstoch_to_choi(s, SIC, SIC)
    assert np.trace(choi).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(choi - choi.conj().T).max() < 1e-12


def test_compose_matches_operator_composition():
    rng = np.random.default_rng(68)
    k1 = random_kraus_channel(rng, 2, 2)
    k2 = random_kraus_channel(rng, 2, 2)
    s1 = kraus_to_pstoch(k1, SIC, SIC)
    s2 = kraus_to_pstoch(k2, SIC, SIC)
    k21 = [a @ b for a in k2 for b in k1]
    assert np.abs(compose(s2, s1) - kraus_to_pstoch(k21, SIC, SIC)).max() < 1e-11


def test_transpose_is_involution():
    assert np.abs(S_TRANSPOSE_QUBIT @ S_TRANSPOSE_QUBIT - np.eye(4)).max() < 1e-12


def test_unital_channel_is_pseudobistochastic():
    # unitary conjugations preserve the identity, so rows sum to one as well
    rng = np.random.default_rng(69)
    from fixtures import random_unitary

    for _ in range(10):
        u = random_unitary(rng, 2)
        s = kraus_to_pstoch([u], SIC, SIC)
        assert np.abs(s.sum(axis=0) - 1.0).max() < 1e-12
        assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-12


@pytest.mark.bits
def test_project_cptp_matches_recorded_outputs():
    # project_cptp's arithmetic is pinned bit for bit: raw reconstructions
    # of 1024-shot counts of random qubit channels, and the outputs that
    # were recorded before its channel basis moved into the per-SIC cache.
    # The inputs are C-ordered arrays, as np.array makes them here; the
    # outputs are those of their column-major copies, which project_cptp
    # reads in any layout.
    with open(DATA / "project_cptp_restarts2.json", encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    assert len(cases) == 6
    for case in cases:
        opt = OptConfig(restarts=2, seed=case["seed"])
        out = project_cptp(np.array(case["s_raw"]), SIC, SIC, opt)
        assert np.array_equal(out, np.array(case["s_cptp"]))


@pytest.mark.bits
def test_qutrit_projection_bytes_with_one_blas_thread():
    # no recorded output pins a d=3 projection: this pins the digest of the
    # one that projection_cases.py --qutrit-digest makes, with one BLAS
    # thread (two threads give other bytes today)
    tests = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(tests / "projection_cases.py"), "--qutrit-digest"],
        env=env, capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "51a751d6b1df2f15\n"


@pytest.mark.bits
def test_channel_between_two_sic_objects_builds_its_maps_per_call(monkeypatch):
    # the per-SIC cache serves a channel on one SIC; between two SicPovm
    # objects the maps come from _cptp_maps on each call, so two copies of
    # one SIC give the bytes of the cached path
    with open(DATA / "project_cptp_restarts2.json", encoding="utf-8") as fh:
        case = json.load(fh)["cases"][0]
    s_raw, opt = np.array(case["s_raw"]), OptConfig(restarts=2, seed=case["seed"])
    want = project_cptp(s_raw, SIC, SIC, opt).tobytes()
    calls = []
    cptp_maps = dynamics._cptp_maps

    def counting(sic_in, sic_out):
        calls.append((sic_in, sic_out))
        return cptp_maps(sic_in, sic_out)

    monkeypatch.setattr(dynamics, "_cptp_maps", counting)
    other = builtin_qubit()
    assert [project_cptp(s_raw, SIC, other, opt).tobytes() for _ in range(2)] == [want] * 2
    assert len(calls) == 2 and all(a is SIC and b is other for a, b in calls)
    assert project_cptp(s_raw, SIC, SIC, opt).tobytes() == want
    assert len(calls) == 2


@pytest.mark.parametrize("max_iter", [1, 3])
def test_project_cptp_raises_when_no_restart_converges(monkeypatch, max_iter):
    # every penalty stage stops at the iteration cap far from stationary
    with open(DATA / "project_cptp_restarts2.json", encoding="utf-8") as fh:
        s_raw = np.array(json.load(fh)["cases"][0]["s_raw"])
    monkeypatch.setattr(channels, "_STAGE_MAX_ITER", max_iter)
    with pytest.raises(OptimizerError, match="^CPTP projection failed to converge in 2 restarts$"):
        project_cptp(s_raw, SIC, SIC, OptConfig(restarts=2))


def test_qutrit_calibration_matrix_projects_where_the_last_stage_once_stalled():
    # with a 500-iteration cap the mu=1000 stage of every restart stopped
    # with |g| above the convergence test, and the projection raised
    with open(DATA / "project_cptp_tomo_d3_seed3_item0.json", encoding="utf-8") as fh:
        s_raw = np.array(json.load(fh)["s_raw"])
    out = project_cptp(s_raw, SIC3, SIC3, OptConfig(restarts=8))
    ok, _ = is_cptp(out, SIC3, SIC3, tol=1e-7)
    assert ok


@pytest.mark.bits
def test_batched_projection_matches_single_calls_in_each_layout():
    # project_cptp reads every matrix column-major, so a row-major copy, a
    # column-major copy and a strided view of a matrix give the same bytes,
    # alone or in a batch that mixes the layouts
    with open(DATA / "project_cptp_restarts2.json", encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    assert len(cases) == 6
    layouts = []
    for case in cases:
        row = np.array(case["s_raw"])
        big = np.zeros((8, 8))
        big[::2, ::2] = row
        layouts.append((row, np.asfortranarray(row), big[::2, ::2]))
    assert all(a.flags.c_contiguous and b.flags.f_contiguous for a, b, _ in layouts)
    assert not any(c.flags.c_contiguous or c.flags.f_contiguous for _, _, c in layouts)
    opt = OptConfig(restarts=2, seed=5)
    want = [project_cptp(row, SIC, SIC, opt).tobytes() for row, _, _ in layouts]
    for views, one in zip(layouts, want):
        assert [project_cptp(m, SIC, SIC, opt).tobytes() for m in views[1:]] == [one] * 2
        assert [x.tobytes() for x in _project_cptp_many(views, SIC, SIC, opt)] == [one] * 3
    mixed = [views[k % 3] for k, views in enumerate(layouts)]
    for mats, expected in ((mixed, want), (mixed[::-1], want[::-1])):
        assert [x.tobytes() for x in _project_cptp_many(mats, SIC, SIC, opt)] == expected


def test_row_major_copy_of_a_criterion_5_matrix_projects():
    # trial 60 of criterion 5: its row-major copy once took a different
    # arithmetic path from reconstruct_raw's column-major array, on which no
    # restart converged
    counts = simulate_counts(S_GATE_QUBIT, SIC, shots=1024, seed=3060)
    raw = reconstruct_raw(freq_from_counts(counts), SIC)
    assert raw.flags.f_contiguous and not raw.flags.c_contiguous
    opt = OptConfig(restarts=2, seed=60)
    want = project_cptp(raw, SIC, SIC, opt)
    assert project_cptp(np.ascontiguousarray(raw), SIC, SIC, opt).tobytes() == want.tobytes()


def test_batched_projection_raises_the_error_of_the_first_failing_matrix(monkeypatch):
    # the recorded input stalls at 3 iterations a stage, with one restart
    # and with two; the zero matrix stalls beside it with one
    zero = np.zeros((4, 4))
    with open(DATA / "project_cptp_restarts2.json", encoding="utf-8") as fh:
        noisy = np.array(json.load(fh)["cases"][0]["s_raw"])
    stalled = "^CPTP projection failed to converge in {} restarts$"
    monkeypatch.setattr(channels, "_STAGE_MAX_ITER", 3)
    for restarts in (1, 2):
        for mats in ([zero, noisy], [noisy, zero]):
            with pytest.raises(OptimizerError, match=stalled.format(restarts)):
                _project_cptp_many(mats, SIC, SIC, OptConfig(restarts=restarts))
    monkeypatch.undo()
    # with a CPTP check that rejects every output, each matrix raises a
    # message of its own, and a batch raises that of its first matrix
    checked = channels.is_cptp
    monkeypatch.setattr(channels, "is_cptp", lambda *a, **k: (False, checked(*a, **k)[1]))
    opt = OptConfig(restarts=2)
    alone = []
    for m in (zero, noisy):
        with pytest.raises(OptimizerError, match="^projection output failed the CPTP check") as exc:
            project_cptp(m, SIC, SIC, opt)
        alone.append(str(exc.value))
    assert alone[0] != alone[1]
    for mats, message in (([zero, noisy], alone[0]), ([noisy, zero], alone[1])):
        with pytest.raises(OptimizerError, match=f"^{re.escape(message)}$"):
            _project_cptp_many(mats, SIC, SIC, opt)


@pytest.mark.parametrize("sic", [SIC, SIC3], ids=["d2", "d3"])
@pytest.mark.parametrize("kind", ["zero", "minus_identity"])
def test_matrix_without_positive_choi_eigenvalue_projects_with_one_restart(sic, kind):
    # the clipped Choi spectrum is empty, so the warm start is the
    # completely depolarizing channel, not the stationary V = 0
    n = sic.dim**2
    s = np.zeros((n, n)) if kind == "zero" else -np.eye(n)
    assert np.linalg.eigvalsh(channels._choi(s, sic, sic)).max() <= 1e-12
    ok, _ = is_cptp(project_cptp(s, sic, sic, OptConfig(restarts=1)), sic, sic)
    assert ok


def test_project_cptp_fixed_point():
    # channels already in the set stay put
    rng = np.random.default_rng(71)
    s = kraus_to_pstoch(random_kraus_channel(rng, 2, 2), SIC, SIC)
    proj = project_cptp(s, SIC, SIC, OptConfig(restarts=2, seed=1))
    assert np.abs(proj - s).max() < 5e-4


def test_project_cptp_small_perturbation():
    rng = np.random.default_rng(72)
    s = kraus_to_pstoch(random_kraus_channel(rng, 2, 2), SIC, SIC)
    noisy = s + 0.03 * rng.standard_normal((4, 4))
    proj = project_cptp(noisy, SIC, SIC, OptConfig(restarts=2, seed=2))
    ok, rep = is_cptp(proj, SIC, SIC, tol=1e-7)
    assert ok
    # projection cannot be much farther from the truth than the noise was
    assert np.abs(proj - s).max() < 0.1


def test_project_cptp_repairs_nonphysical_involution():
    proj = project_cptp(S_TRANSPOSE_QUBIT, SIC, SIC, OptConfig(restarts=3, seed=3))
    ok, _ = is_cptp(proj, SIC, SIC, tol=1e-7)
    assert ok


def test_project_cptp_output_is_exactly_trace_preserving():
    rng = np.random.default_rng(73)
    noisy = np.eye(4) + 0.05 * rng.standard_normal((4, 4))
    proj = project_cptp(noisy, SIC, SIC, OptConfig(restarts=2, seed=4))
    assert np.abs(proj.sum(axis=0) - 1.0).max() < 1e-9


def test_apply_shape_checks():
    with pytest.raises(ValueError):
        apply(np.eye(4), np.ones(3))
    with pytest.raises(ValueError):
        compose(np.eye(4), np.eye(9))
    # 1-D operands used to raise IndexError, which the CLI maps to no exit code
    with pytest.raises(ValueError):
        apply(np.ones(4), np.ones(4))
    with pytest.raises(ValueError):
        compose(np.ones(4), np.ones(4))
