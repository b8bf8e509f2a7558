"""End-to-end acceptance gate.

One test per shipped guarantee, each at its stated tolerance; run with
``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion. Everything is seeded and bands were fixed before the library
was written.
"""

import json
import pathlib

import numpy as np
import pytest

from sicprob._optim import OptConfig
from sicprob.channels import (
    builtin_ptp,
    is_cptp,
    kraus_to_pstoch,
    project_cptp,
    pstoch_to_choi,
    choi_to_pstoch,
)
from sicprob.dynamics import (
    GkslSpec,
    evolve_unitary,
    hgen_from_hamiltonian,
    lgen_from_gksl,
)
from sicprob.linalg import mat_exp
from sicprob.measures import _markov_parts, delta_quant_detail
from sicprob.serialize import load_fiducial
from sicprob.sic import builtin_qubit, from_fiducial, kmatrix, verify
from sicprob.states import (
    mub_from_sic,
    overlap,
    prob_to_state,
    sic_from_mub,
    state_to_prob,
)
from sicprob.tomography import (
    error_estimate,
    freq_from_counts,
    reconstruct_raw,
    simulate_counts,
)

from fixtures import (
    D_DECOHERE,
    D_DRIVE,
    H1_QUBIT,
    H2_QUBIT,
    H3_QUBIT,
    H_DECOHERE,
    H_DRIVE,
    K_QUBIT,
    KINV_QUBIT,
    S_DECOHERE,
    S_DRIVE,
    S_GATE_QUBIT,
    S_REDUCTION_QUBIT,
    S_TRANSPOSE_QUBIT,
    gksl_action,
    random_density,
    random_hermitian,
    random_kraus_channel,
    random_pure_state,
    rotation_z_closed_form,
)

SIC = builtin_qubit()
DATA = pathlib.Path(__file__).parent / "data"

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_criterion_1_frame_and_rotation_fixtures():
    k, kinv = kmatrix(SIC)
    assert np.abs(k - K_QUBIT).max() < 1e-12
    assert np.abs(kinv - KINV_QUBIT).max() < 1e-12
    assert np.abs(hgen_from_hamiltonian(SX, SIC) - H1_QUBIT).max() < 1e-12
    assert np.abs(hgen_from_hamiltonian(SY, SIC) - H2_QUBIT).max() < 1e-12
    assert np.abs(hgen_from_hamiltonian(SZ, SIC) - H3_QUBIT).max() < 1e-12
    for t in (0.0, np.pi / 4, np.pi / 2, np.pi, 2 * np.pi):
        u = evolve_unitary(H3_QUBIT / 2, t, SIC)
        assert np.abs(u - rotation_z_closed_form(t)).max() < 1e-10
    print("PASS criterion-1: frame matrices, Pauli generators, closed-form rotation")


def test_criterion_2_positive_nonphysical_maps():
    st = builtin_ptp("transposition", SIC)
    sr = builtin_ptp("reduction", SIC)
    assert np.abs(st - S_TRANSPOSE_QUBIT).max() < 1e-12
    assert np.abs(sr - S_REDUCTION_QUBIT).max() < 1e-12
    for s in (st, sr):
        ok, rep = is_cptp(s, SIC, SIC)
        assert not ok
        assert rep.min_choi_eig < 0
    print("PASS criterion-2: transposition and reduction matrices, CPTP rejection")


def test_criterion_3_phase_gate_fixture():
    s = kraus_to_pstoch([np.diag([1.0, 1j])], SIC, SIC)
    assert np.abs(s - S_GATE_QUBIT).max() < 1e-12
    assert abs(-s.min() - 0.5) < 1e-12  # most negative entry has magnitude 1/d
    print("PASS criterion-3: phase-gate channel matrix with extremal negativity")


def test_criterion_4_reference_table_regression():
    opt_quant = OptConfig(restarts=32, seed=0)

    _, _, h_u, d_u, _, s_mark_u = _markov_parts(S_DRIVE, SIC)
    assert np.abs(h_u - H_DRIVE).max() < 0.01
    assert np.abs(d_u - D_DRIVE).max() < 0.02
    dn_u = np.sqrt(np.sum((S_DRIVE - s_mark_u) ** 2)) / 4
    assert 0.001 < dn_u < 0.005
    quant_u = delta_quant_detail(h_u + d_u, SIC, opt_quant)
    assert 0.76 < quant_u.value < 0.80

    _, _, h_d, d_d, _, s_mark_d = _markov_parts(S_DECOHERE, SIC)
    assert np.abs(h_d - H_DECOHERE).max() < 0.01
    assert np.abs(d_d - D_DECOHERE).max() < 0.02
    dn_d = np.sqrt(np.sum((S_DECOHERE - s_mark_d) ** 2)) / 4
    assert 0.004 < dn_d < 0.010
    quant_d = delta_quant_detail(h_d + d_d, SIC, opt_quant)
    assert quant_d.value < 0.005
    print(
        "PASS criterion-4: table regression "
        f"(dnmark {dn_u:.4f}/{dn_d:.4f}, dquant {quant_u.value:.4f}/{quant_d.value:.4f})"
    )


def test_criterion_5_tomography_error_scale():
    assert error_estimate(1024) == pytest.approx(0.03125, abs=1e-15)
    shots = 1024
    trials = 500
    estimates = np.empty((trials, 4, 4))
    for k in range(trials):
        counts = simulate_counts(S_GATE_QUBIT, SIC, shots=shots, seed=3000 + k)
        raw = reconstruct_raw(freq_from_counts(counts), SIC)
        estimates[k] = project_cptp(
            raw, SIC, SIC, OptConfig(restarts=2, seed=k)
        )
    std = estimates.std(axis=0)
    assert std.max() <= 1.0 / np.sqrt(shots)
    print(
        "PASS criterion-5: per-entry std "
        f"{std.max():.5f} <= 1/sqrt(N) = {1/np.sqrt(shots):.5f} over {trials} trials"
    )


def test_criterion_6_classical_generator_characterization():
    rng = np.random.default_rng(2025)
    # forward: nonnegative off-diagonals keep the flow entrywise nonnegative
    for _ in range(100):
        l = rng.uniform(0.0, 1.0, size=(4, 4))
        np.fill_diagonal(l, 0.0)
        np.fill_diagonal(l, -l.sum(axis=0))
        for t in (0.1, 1.0, 10.0):
            assert mat_exp(l * t).min() >= -1e-9
    # reverse: one sufficiently negative off-diagonal entry always leaks
    # through at short times
    t_grid = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1)
    for _ in range(100):
        l = rng.standard_normal((4, 4))
        i, j = rng.integers(0, 4, size=2)
        while i == j:
            j = rng.integers(0, 4)
        l[i, j] = -0.05 - abs(l[i, j])
        l -= np.diag(np.diag(l))
        np.fill_diagonal(l, -l.sum(axis=0))
        assert any(mat_exp(l * t).min() < -1e-12 for t in t_grid)
    print("PASS criterion-6: nonnegativity characterization both directions")


def rk4_density_evolution(spec, rho0, t, steps):
    h = np.asarray(spec.hamiltonian, dtype=complex)
    noise = [np.asarray(v, dtype=complex) for v in spec.noise_ops]
    dt = t / steps
    rho = rho0.astype(complex)
    for _ in range(steps):
        k1 = gksl_action(h, noise, rho)
        k2 = gksl_action(h, noise, rho + 0.5 * dt * k1)
        k3 = gksl_action(h, noise, rho + 0.5 * dt * k2)
        k4 = gksl_action(h, noise, rho + dt * k3)
        rho = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def rk4_density_evolution_stacked(h, noise, rho0, t, steps):
    """``rk4_density_evolution`` for a stack of cases at once.

    ``h`` and ``rho0`` are ``(cases, d, d)``; ``noise`` is
    ``(cases, ops, d, d)``, padded with zero operators.
    """
    vdv = np.einsum("ckba,ckbe->cae", noise.conj(), noise)

    def action(x):
        jump = np.einsum("ckab,cbe,ckfe->caf", noise, x, noise.conj())
        return -1j * (h @ x - x @ h) + jump - 0.5 * (vdv @ x + x @ vdv)

    dt = t / steps
    rho = rho0.astype(complex)
    for _ in range(steps):
        k1 = action(rho)
        k2 = action(rho + 0.5 * dt * k1)
        k3 = action(rho + 0.5 * dt * k2)
        k4 = action(rho + dt * k3)
        rho = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def gksl_cases(rng, count):
    """Specs and initial states of random qubit master equations."""
    specs, rhos = [], []
    for _ in range(count):
        h = random_hermitian(rng, 2)
        n_ops = int(rng.integers(1, 3))
        noise = tuple(
            0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            for _ in range(n_ops)
        )
        specs.append(GkslSpec(2, h, noise))
        rhos.append(random_density(rng, 2))
    return specs, rhos


def stack_specs(specs):
    padded = np.zeros((len(specs), 2, 2, 2), dtype=complex)
    for c, spec in enumerate(specs):
        padded[c, : len(spec.noise_ops)] = spec.noise_ops
    return np.array([spec.hamiltonian for spec in specs]), padded


def test_stacked_rk4_matches_scalar_rk4():
    # the first two cases of criterion 7
    specs, rhos = gksl_cases(np.random.default_rng(77), 2)
    h, noise = stack_specs(specs)
    for t in (0.1, 1.0):
        steps = max(200, int(2000 * t))
        stacked = rk4_density_evolution_stacked(h, noise, np.array(rhos), t, steps)
        for spec, rho0, rho_t in zip(specs, rhos, stacked):
            assert np.abs(rk4_density_evolution(spec, rho0, t, steps) - rho_t).max() < 1e-12


def test_criterion_7_gksl_dynamics_equivalence():
    specs, rhos = gksl_cases(np.random.default_rng(77), 50)
    h, noise = stack_specs(specs)
    for t in (0.1, 1.0):
        rho_t = rk4_density_evolution_stacked(
            h, noise, np.array(rhos), t, steps=max(200, int(2000 * t))
        )
        for spec, rho0, rho in zip(specs, rhos, rho_t):
            p_vec = mat_exp(lgen_from_gksl(spec, SIC).matrix * t) @ state_to_prob(rho0, SIC)
            assert np.abs(p_vec - state_to_prob(rho, SIC)).max() < 1e-6
    print("PASS criterion-7: generator flow matches integrated master equation")


def test_criterion_8_round_trips_and_structure():
    rng = np.random.default_rng(88)
    # state round trip
    for _ in range(50):
        rho = random_density(rng, 2)
        assert np.abs(prob_to_state(state_to_prob(rho, SIC), SIC) - rho).max() < 1e-12
    # channel-representation round trip
    for _ in range(10):
        s = kraus_to_pstoch(random_kraus_channel(rng, 2, 2), SIC, SIC)
        back = choi_to_pstoch(pstoch_to_choi(s, SIC, SIC), SIC, SIC)
        assert np.abs(back - s).max() < 1e-10
    # rotations are orthogonal and pseudobistochastic
    for _ in range(10):
        g = hgen_from_hamiltonian(random_hermitian(rng, 2), SIC)
        u = evolve_unitary(g, 0.9, SIC)
        assert np.abs(u @ u.T - np.eye(4)).max() < 1e-9
        assert np.abs(u.sum(axis=0) - 1).max() < 1e-9
        assert np.abs(u.sum(axis=1) - 1).max() < 1e-9
    # two independent generator constructions agree
    for _ in range(100):
        h = random_hermitian(rng, 2)
        fast = hgen_from_hamiltonian(h, SIC)
        slow = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                comm = h @ SIC.projectors[j] - SIC.projectors[j] @ h
                slow[i, j] = 1.5 * np.trace(-1j * comm @ SIC.projectors[i]).real
        assert np.abs(fast - slow).max() < 1e-10
    # three-basis representation round trip
    for _ in range(100):
        p = state_to_prob(random_density(rng, 2), SIC)
        assert np.abs(sic_from_mub(mub_from_sic(p)) - p).max() < 1e-12
    # overlap bounds for pure states
    for _ in range(1000):
        p = state_to_prob(random_pure_state(rng, 2), SIC)
        q = state_to_prob(random_pure_state(rng, 2), SIC)
        dot = float(p @ q)
        assert 1 / 6 - 1e-12 <= dot <= 2 / 6 + 1e-12
        assert overlap(p, q, 2) == pytest.approx(6 * dot - 1, abs=1e-12)
    print("PASS criterion-8: round trips, structure and bounds")


def test_criterion_9_qutrit_smoke():
    with open(DATA / "fiducial_d3.json", encoding="utf-8") as fh:
        sic3 = from_fiducial(load_fiducial(json.load(fh)))
    rep = verify(sic3)
    assert rep.ok
    rng = np.random.default_rng(99)
    # state round trip at d=3
    for _ in range(20):
        rho = random_density(rng, 3)
        assert np.abs(prob_to_state(state_to_prob(rho, sic3), sic3) - rho).max() < 1e-12
    # channels keep unit column sums at d=3
    s = kraus_to_pstoch(random_kraus_channel(rng, 3, 2), sic3, sic3)
    assert np.abs(s.sum(axis=0) - 1).max() < 1e-10
    # GKSL flow stays a valid stochastic-like evolution on states
    h = random_hermitian(rng, 3)
    v = 0.4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    g = lgen_from_gksl(GkslSpec(3, h, (v,)), sic3)
    assert np.abs(g.matrix.sum(axis=0)).max() < 1e-10
    propagated = mat_exp(g.matrix * 0.5)
    for _ in range(10):
        p = state_to_prob(random_density(rng, 3), sic3)
        q = propagated @ p
        assert q.sum() == pytest.approx(1.0, abs=1e-10)
        rho_q = prob_to_state(q, sic3)
        assert np.linalg.eigvalsh((rho_q + rho_q.conj().T) / 2).min() > -1e-9
    # classical generators stay nonnegative at d=3 too
    for _ in range(20):
        l = rng.uniform(0.0, 1.0, size=(9, 9))
        np.fill_diagonal(l, 0.0)
        np.fill_diagonal(l, -l.sum(axis=0))
        assert mat_exp(l * 1.0).min() >= -1e-9
    print("PASS criterion-9: qutrit frame ingestion and property suite")
