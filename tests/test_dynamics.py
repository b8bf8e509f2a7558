import json

import numpy as np
import pytest

from sicprob import dynamics
from sicprob.dynamics import (
    Generator,
    GkslSpec,
    basis_hunit,
    basis_sigma,
    dgen_from_v,
    evolve_time_ordered,
    evolve_unitary,
    hgen_from_hamiltonian,
    kolmogorov_matrix,
    lgen_from_gksl,
    omega_basis,
    project_mark,
    project_unit,
)
from sicprob.dynamics import _sic_ops
from sicprob.errors import OptimizerError, PhysicalityError
from sicprob.linalg import mat_exp, mat_log_real
from sicprob.sic import builtin_qubit
from sicprob.states import state_to_prob

from fixtures import (
    DATA,
    H1_QUBIT,
    H2_QUBIT,
    H3_QUBIT,
    gksl_action,
    qutrit_sic,
    random_density,
    random_hermitian,
    random_unitary,
    rotation_z_closed_form,
    run_python,
)

SIC = builtin_qubit()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_project_mark_rejects_nonfinite(bad):
    # used to raise a raw LinAlgError from the warm start
    with pytest.raises(ValueError, match="non-finite"):
        project_mark(np.full((4, 4), bad), SIC)


NAN2 = np.full((2, 2), np.nan)
NAN4 = np.full((4, 4), np.nan)


# Each of these used to return NaN: NaN passes every tolerance test.
@pytest.mark.parametrize(
    "call",
    [
        lambda: project_unit(NAN4, SIC),
        lambda: hgen_from_hamiltonian(NAN2, SIC),
        lambda: lgen_from_gksl(GkslSpec(2, NAN2, (NAN2,)), SIC),
        lambda: lgen_from_gksl(GkslSpec(2, np.eye(2), (NAN2,)), SIC),
        lambda: kolmogorov_matrix(GkslSpec(2, NAN2, (NAN2,)), NAN2),
        lambda: kolmogorov_matrix(GkslSpec(2, np.eye(2), (NAN2,))),
        lambda: kolmogorov_matrix(GkslSpec(2, np.eye(2)), NAN2),
        lambda: dgen_from_v(np.full((3, 3), np.nan), SIC),
    ],
    ids=[
        "project_unit-matrix",
        "hgen_from_hamiltonian",
        "lgen_from_gksl",
        "lgen_from_gksl-noise",
        "kolmogorov_matrix",
        "kolmogorov_matrix-noise",
        "kolmogorov_matrix-basis",
        "dgen_from_v",
    ],
)
def test_rejects_nonfinite(call):
    with pytest.raises(ValueError, match="non-finite") as exc:
        call()
    assert type(exc.value) is ValueError


def test_project_unit_rejects_a_matrix_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"matrix shape \(3, 3\), expected \(4, 4\)"):
        project_unit(np.eye(3), SIC)


def test_dgen_from_v_rejects_a_wrong_row_count():
    with pytest.raises(ValueError, match="expected 3 rows"):
        dgen_from_v(np.eye(4), SIC)


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def hgen_elementwise(h, sic):
    """Independent trace-formula route to the unitary generator."""
    d = sic.dim
    n = d * d
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            comm = h @ sic.projectors[j] - sic.projectors[j] @ h
            out[i, j] = (d + 1) / d * np.trace(-1j * comm @ sic.projectors[i]).real
    return out


def lgen_elementwise(spec, sic):
    """Independent trace-formula route to the full generator."""
    d = sic.dim
    n = d * d
    h = np.asarray(spec.hamiltonian, dtype=complex)
    noise = [np.asarray(v, dtype=complex) for v in spec.noise_ops]
    out = np.zeros((n, n))
    act_eye = gksl_action(h, noise, np.eye(d, dtype=complex))
    for i in range(n):
        off = np.trace(sic.projectors[i] @ act_eye).real / d
        for j in range(n):
            img = gksl_action(h, noise, sic.projectors[j])
            out[i, j] = (d + 1) / d * np.trace(sic.projectors[i] @ img).real - off
    return out


def test_basis_sigma_qubit_order():
    sig = basis_sigma(2)
    assert sig.shape == (4, 2, 2)
    assert np.abs(sig[0] - SX).max() < 1e-14
    assert np.abs(sig[1] - SY).max() < 1e-14
    assert np.abs(sig[2] - SZ).max() < 1e-14
    assert np.abs(sig[3] - np.eye(2)).max() < 1e-14


def test_basis_sigma_gram():
    for d in (2, 3, 4):
        sig = basis_sigma(d)
        assert sig.shape == (d * d, d, d)
        gram = np.einsum("iab,jba->ij", sig, sig)
        assert np.abs(gram - 2 * np.eye(d * d)).max() < 1e-12
        for m in sig[:-1]:
            assert abs(np.trace(m)) < 1e-14
            assert np.abs(m - m.conj().T).max() < 1e-14


def test_hgen_pauli_fixtures():
    assert np.abs(hgen_from_hamiltonian(SX, SIC) - H1_QUBIT).max() < 1e-12
    assert np.abs(hgen_from_hamiltonian(SY, SIC) - H2_QUBIT).max() < 1e-12
    assert np.abs(hgen_from_hamiltonian(SZ, SIC) - H3_QUBIT).max() < 1e-12


def test_hgen_dual_route_agreement():
    rng = np.random.default_rng(81)
    for _ in range(30):
        h = random_hermitian(rng, 2)
        assert np.abs(hgen_from_hamiltonian(h, SIC) - hgen_elementwise(h, SIC)).max() < 1e-11


def test_hgen_ignores_identity_shift():
    rng = np.random.default_rng(82)
    h = random_hermitian(rng, 2)
    shifted = h + 3.7 * np.eye(2)
    assert np.abs(
        hgen_from_hamiltonian(h, SIC) - hgen_from_hamiltonian(shifted, SIC)
    ).max() < 1e-11


def test_hgen_rejects_nonhermitian():
    with pytest.raises(PhysicalityError):
        hgen_from_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), SIC)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: basis_sigma(1), "at least 2"),
        (lambda: hgen_from_hamiltonian(np.eye(2), qutrit_sic()), "does not match SIC 3"),
        (lambda: hgen_from_hamiltonian(np.ones((2, 3)), SIC), "must be square"),
        (lambda: lgen_from_gksl(GkslSpec(2, np.eye(2)), qutrit_sic()), "does not match SIC 3"),
        (lambda: lgen_from_gksl(GkslSpec(2, np.eye(2), (np.eye(3),)), SIC), "noise operator shape"),
        (lambda: project_mark(np.eye(9), SIC), r"expected \(4, 4\)"),
    ],
    ids=["basis_sigma", "hgen-sic", "hgen-square", "lgen-sic", "lgen-noise", "project_mark"],
)  # fmt: skip
def test_rejects_mismatched_shapes(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_hgen_antisymmetric_zero_column_sums():
    rng = np.random.default_rng(83)
    for _ in range(10):
        g = hgen_from_hamiltonian(random_hermitian(rng, 2), SIC)
        assert np.abs(g + g.T).max() < 1e-11
        assert np.abs(g.sum(axis=0)).max() < 1e-11


def test_basis_hunit_matches_pauli_generators():
    b = basis_hunit(SIC)
    assert b.shape == (3, 4, 4)
    assert np.abs(b[0] - H1_QUBIT).max() < 1e-12
    assert np.abs(b[1] - H2_QUBIT).max() < 1e-12
    assert np.abs(b[2] - H3_QUBIT).max() < 1e-12


def test_basis_hunit_gram_normalization():
    # Tr(H_i H_j^T) = 4 d delta_ij
    b = basis_hunit(SIC)
    gram = np.einsum("iab,jab->ij", b, b)
    assert np.abs(gram - 8 * np.eye(3)).max() < 1e-11


def test_project_unit_recovers_members():
    rng = np.random.default_rng(84)
    for _ in range(20):
        h = random_hermitian(rng, 2)
        g = hgen_from_hamiltonian(h, SIC)
        assert np.abs(project_unit(g, SIC) - g).max() < 1e-11


def test_project_unit_idempotent_and_kills_symmetric():
    rng = np.random.default_rng(85)
    m = rng.standard_normal((4, 4))
    once = project_unit(m, SIC)
    assert np.abs(project_unit(once, SIC) - once).max() < 1e-12
    sym = m + m.T
    assert np.abs(project_unit(sym, SIC)).max() < 1e-12


def test_project_unit_is_orthogonal_projection():
    # residual is orthogonal to every basis element
    rng = np.random.default_rng(86)
    m = rng.standard_normal((4, 4))
    resid = m - project_unit(m, SIC)
    for el in basis_hunit(SIC):
        assert abs(np.sum(resid * el)) < 1e-10


def test_evolve_unitary_closed_form():
    g = Generator(H3_QUBIT / 2)
    for t in (0.0, np.pi / 4, np.pi / 2, np.pi, 2 * np.pi, -1.3):
        u = evolve_unitary(g, t, SIC)
        assert np.abs(u - rotation_z_closed_form(t)).max() < 1e-10


def test_evolve_unitary_orthogonal_bistochastic():
    rng = np.random.default_rng(87)
    for _ in range(10):
        g = hgen_from_hamiltonian(random_hermitian(rng, 2), SIC)
        u = evolve_unitary(g, 0.7, SIC)
        assert np.abs(u @ u.T - np.eye(4)).max() < 1e-9
        assert np.abs(u.sum(axis=0) - 1.0).max() < 1e-9
        assert np.abs(u.sum(axis=1) - 1.0).max() < 1e-9


def test_evolve_unitary_accepts_bare_matrix():
    u = evolve_unitary(H3_QUBIT / 2, np.pi, SIC)
    assert np.abs(u - rotation_z_closed_form(np.pi)).max() < 1e-10


def test_evolve_unitary_rejects_nonmember():
    bad = np.eye(4)
    with pytest.raises(ValueError):
        evolve_unitary(bad, 1.0, SIC)


def test_evolve_time_ordered_constant_matches_exp():
    g = H3_QUBIT / 2
    u = evolve_time_ordered(lambda t: g, 0.9)
    assert np.abs(u - mat_exp(g * 0.9)).max() < 1e-7


def test_evolve_time_ordered_commuting_family():
    # generators commute at all times, so the integral of the rate is exact
    g = H3_QUBIT / 2

    def gen(t):
        return g * np.cos(t)

    u = evolve_time_ordered(gen, 1.5, steps=4000)
    assert np.abs(u - mat_exp(g * np.sin(1.5))).max() < 1e-6


def test_evolve_time_ordered_midpoint_is_second_order():
    # halving the step size should cut the error by about 4
    ha = hgen_from_hamiltonian(SX, SIC)
    hb = hgen_from_hamiltonian(SZ, SIC)

    def gen(t):
        return ha * np.cos(2 * t) + hb * np.sin(t)

    ref = evolve_time_ordered(gen, 1.0, steps=20000)
    err_coarse = np.abs(evolve_time_ordered(gen, 1.0, steps=50) - ref).max()
    err_fine = np.abs(evolve_time_ordered(gen, 1.0, steps=100) - ref).max()
    assert err_coarse / err_fine > 3.0
    assert err_fine < 1e-4


def test_evolve_time_ordered_generator_objects():
    g = Generator(H3_QUBIT / 2)
    u = evolve_time_ordered(lambda t: g, 0.3, steps=500)
    assert np.abs(u - mat_exp(g.matrix * 0.3)).max() < 1e-8


@pytest.mark.parametrize("t", [float("inf"), -float("inf"), float("nan")])
def test_evolve_time_ordered_rejects_nonfinite_time(t):
    with pytest.raises(ValueError, match="t must be finite"):
        evolve_time_ordered(lambda _: H3_QUBIT, t)


@pytest.mark.parametrize("steps", [0, 2.5, True, 4.0, "4"])
def test_evolve_time_ordered_rejects_what_is_not_a_step_count(steps):
    # 2.5 used to raise TypeError from range, and True to run one step
    with pytest.raises(ValueError, match="^steps must be an integer"):
        evolve_time_ordered(lambda _: H3_QUBIT, 1.0, steps=steps)


def test_evolve_time_ordered_calls_gen_fn_once_per_step():
    times = []

    def gen(t):
        times.append(t)
        return H3_QUBIT / 2

    evolve_time_ordered(gen, 1.0, steps=4)
    assert times == [0.125, 0.375, 0.625, 0.875]


def test_lgen_no_noise_reduces_to_hgen():
    spec = GkslSpec(2, SZ / 2)
    g = lgen_from_gksl(spec, SIC)
    assert np.abs(g.matrix - H3_QUBIT / 2).max() < 1e-12
    assert np.abs(g.d_part).max() < 1e-12
    assert np.abs(g.h_part - H3_QUBIT / 2).max() < 1e-12


def test_lgen_matches_elementwise_route():
    rng = np.random.default_rng(88)
    for _ in range(10):
        h = random_hermitian(rng, 2)
        v1 = 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        spec = GkslSpec(2, h, (v1,))
        g = lgen_from_gksl(spec, SIC)
        assert np.abs(g.matrix - lgen_elementwise(spec, SIC)).max() < 1e-11


def test_lgen_split_matches_unitary_projection():
    # even when noise operators carry a trace, the identity component is
    # folded into the Hamiltonian part, so h_part is the unitary projection
    rng = np.random.default_rng(108)
    for _ in range(10):
        h = random_hermitian(rng, 2)
        v = 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        g = lgen_from_gksl(GkslSpec(2, h, (v,)), SIC)
        assert np.abs(project_unit(g.matrix, SIC) - g.h_part).max() < 1e-11
        assert np.abs(project_unit(g.d_part, SIC)).max() < 1e-11


def test_lgen_parts_sum():
    rng = np.random.default_rng(89)
    h = random_hermitian(rng, 2)
    v = 0.4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    g = lgen_from_gksl(GkslSpec(2, h, (v,)), SIC)
    assert np.abs(g.h_part + g.d_part - g.matrix).max() < 1e-12


def test_lgen_columns_sum_to_zero():
    rng = np.random.default_rng(90)
    h = random_hermitian(rng, 2)
    v = 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    g = lgen_from_gksl(GkslSpec(2, h, (v,)), SIC)
    assert np.abs(g.matrix.sum(axis=0)).max() < 1e-12


def test_lgen_evolution_preserves_states():
    # exp(L t) applied to a valid state must stay a valid state
    from sicprob.states import qplex_membership

    rng = np.random.default_rng(91)
    h = random_hermitian(rng, 2)
    v = 0.6 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    g = lgen_from_gksl(GkslSpec(2, h, (v,)), SIC)
    u = mat_exp(g.matrix * 0.8)
    for _ in range(20):
        p = state_to_prob(random_density(rng, 2), SIC)
        assert qplex_membership(u @ p, SIC, tol=1e-8)


def test_kolmogorov_amplitude_damping():
    gamma = 0.37
    v = np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    spec = GkslSpec(2, np.zeros((2, 2)), (v,))
    k = kolmogorov_matrix(spec)
    expected = np.array([[0.0, gamma], [0.0, -gamma]])
    assert np.abs(k - expected).max() < 1e-12


def test_kolmogorov_columns_sum_to_zero():
    rng = np.random.default_rng(92)
    h = random_hermitian(rng, 2)
    v = 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    k = kolmogorov_matrix(GkslSpec(2, h, (v,)))
    assert np.abs(k.sum(axis=0)).max() < 1e-12


def test_kolmogorov_diagonal_hamiltonian_is_silent():
    # basis states are stationary under a diagonal Hamiltonian
    k = kolmogorov_matrix(GkslSpec(2, np.diag([1.3, -0.4])))
    assert np.abs(k).max() < 1e-12


def test_kolmogorov_custom_basis():
    gamma = 0.2
    v = np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    k = kolmogorov_matrix(GkslSpec(2, np.zeros((2, 2)), (v,)), had)
    assert np.abs(k.sum(axis=0)).max() < 1e-12
    with pytest.raises(ValueError):
        kolmogorov_matrix(GkslSpec(2, np.zeros((2, 2)), (v,)), np.eye(2) * 2)


@pytest.mark.parametrize("d", [2, 3])
def test_kolmogorov_matrix_matches_the_operator_form(d):
    rng = np.random.default_rng(370 + d)
    for _ in range(5):
        h = random_hermitian(rng, d)
        noise = tuple(
            0.5 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            for _ in range(2)
        )
        basis = random_unitary(rng, d)
        projs = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(d)]
        want = np.array(
            [[np.trace(p_i @ gksl_action(h, noise, p_j)).real for p_j in projs] for p_i in projs]
        )
        assert np.abs(kolmogorov_matrix(GkslSpec(d, h, noise), basis) - want).max() < 1e-12


def test_gksl_spec_dim_must_match_the_hamiltonian():
    spec = GkslSpec(5, np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="spec.dim is 5"):
        lgen_from_gksl(spec, SIC)
    with pytest.raises(ValueError, match="spec.dim is 5"):
        kolmogorov_matrix(spec)


def test_omega_elements_have_zero_column_sums():
    om = omega_basis(SIC)
    assert om.shape == (3, 3, 4, 4)
    for i in range(3):
        for j in range(3):
            assert np.abs(om[i, j].sum(axis=0)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_omega_basis_matches_kronecker_loop(d):
    sic = SIC if d == 2 else qutrit_sic()
    b = basis_sigma(d)[:-1]
    eye = np.eye(d)
    om = omega_basis(sic)
    assert not om.flags.writeable
    for i in range(len(b)):
        for j in range(len(b)):
            mid = np.kron(b[i], b[j].conj())
            mid -= 0.5 * np.kron(b[j] @ b[i], eye)
            mid -= 0.5 * np.kron(eye, (b[i] @ b[j]).conj())
            assert np.abs(om[i, j] - sic.kinv @ mid @ sic.kmat).max() < 1e-12


@pytest.mark.bits
@pytest.mark.parametrize("d", [2, 3])
def test_omega_basis_is_the_family_built_from_the_traceless_basis(d):
    # the cached family equals, bit for bit, the one that omega_basis built
    # per call from Theta over the traceless basis before it was cached
    sic = SIC if d == 2 else qutrit_sic()
    sig = basis_sigma(d)[:-1]
    fresh = dynamics._omega_stack(sic, sig, dynamics._theta_stack(sic, sic, sig))
    assert np.array_equal(omega_basis(sic), fresh)


@pytest.mark.parametrize("d", [2, 3])
def test_unitary_span_is_orthogonal_to_the_dissipators(d):
    # analyze_evolution's markov_residual is the exact distance of the log
    # from the GKSL generators because its two steps (project_unit, then
    # project_mark of the rest) act on Frobenius-orthogonal subspaces
    sic = SIC if d == 2 else qutrit_sic()
    gram = np.einsum("iab,jkab->ijk", basis_hunit(sic), omega_basis(sic))
    assert np.abs(gram).max() < 1e-13


def test_dgen_from_v_matches_gksl_dissipator():
    rng = np.random.default_rng(93)
    sig = basis_sigma(2)[:-1]
    for _ in range(10):
        ops = [
            0.4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            for _ in range(2)
        ]
        # make them traceless so the coefficient expansion is exact
        ops = [v - np.trace(v) / 2 * np.eye(2) for v in ops]
        g = lgen_from_gksl(GkslSpec(2, np.zeros((2, 2)), tuple(ops)), SIC)
        coef = np.array(
            [[np.trace(sig[i].conj().T @ v) / 2 for v in ops] for i in range(3)]
        )
        assert np.abs(dgen_from_v(coef, SIC) - g.d_part).max() < 1e-11


def test_project_mark_fixed_point():
    rng = np.random.default_rng(94)
    h = random_hermitian(rng, 2)
    v = 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    g = lgen_from_gksl(GkslSpec(2, h, (v,)), SIC)
    dproj, resid = project_mark(g.d_part, SIC)
    assert resid < 1e-7
    assert np.abs(dproj - g.d_part).max() < 1e-7


def test_project_mark_perturbation_stays_close():
    rng = np.random.default_rng(95)
    v = 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    g = lgen_from_gksl(GkslSpec(2, np.zeros((2, 2)), (v,)), SIC)
    noise = 0.01 * rng.standard_normal((4, 4))
    dproj, resid = project_mark(g.d_part + noise, SIC)
    # projection residual can never exceed the perturbation norm
    assert resid <= np.sqrt(np.sum(noise**2)) + 1e-9
    assert np.abs(dproj - g.d_part).max() < 0.05


def markov_residual(lmat):
    """Distance of a generator from Hamiltonian plus valid dissipator."""
    return project_mark(lmat - project_unit(lmat, SIC), SIC)[1]


def test_project_mark_no_worse_than_recorded_multistart():
    # inputs: noisy GKSL evolutions exp(0.7 L) + N(0, 0.02^2) noise, their
    # real log with the unitary part removed; values: the residuals of the
    # multistart L-BFGS-B solver this exact solve replaced, at restarts=8
    with open(DATA / "project_mark_restarts8.json", encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    sics = {2: SIC, 3: qutrit_sic()}
    assert sum(c["dim"] == 2 for c in cases) >= 40
    assert sum(c["dim"] == 3 for c in cases) >= 20
    for case in cases:
        _, resid = project_mark(np.array(case["dtilde"]), sics[case["dim"]])
        assert resid <= case["residual"] + 1e-12


def test_project_mark_raises_when_not_converged(monkeypatch):
    rng = np.random.default_rng(99)
    monkeypatch.setattr(dynamics, "_ADMM_MAX_ITER", 1)
    with pytest.raises(OptimizerError, match="did not converge in 1 ADMM iterations"):
        project_mark(rng.standard_normal((4, 4)), SIC)


def test_project_mark_converges_far_from_the_cone():
    # qutrit inputs far from valid dissipative parts: reversed GKSL
    # generators and random matrices of two scales, with the default budget
    sic = qutrit_sic()
    rng = np.random.default_rng(100)
    inputs = []
    for _ in range(4):
        h = random_hermitian(rng, 3)
        vs = tuple(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
        inputs.append(-lgen_from_gksl(GkslSpec(3, h, vs), sic).matrix)
    inputs += [scale * rng.standard_normal((9, 9)) for scale in (1.0, 1.0, 1e3, 1e3)]
    for dtilde in inputs:
        dproj, resid = project_mark(dtilde, sic)
        norm2 = float(np.sum(dtilde**2))
        assert resid > 1e-3 * np.sqrt(norm2)
        # a projection onto a cone leaves a residual orthogonal to its image
        assert abs(float(np.sum((dtilde - dproj) * dproj))) <= 1e-9 * norm2


# project_mark of 20 seeded noisy qutrit GKSL generators, as the hex digest of
# the bytes of every projection and residual
QUTRIT_MARK_DIGEST = """
import hashlib
import numpy as np
from fixtures import qutrit_sic, random_hermitian
from sicprob.dynamics import GkslSpec, lgen_from_gksl, project_mark

sic, digest = qutrit_sic(), hashlib.sha256()
for seed in range(20):
    rng = np.random.default_rng(700 + seed)
    v = 0.4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    gen = lgen_from_gksl(GkslSpec(3, random_hermitian(rng, 3), (v,)), sic).matrix
    dproj, resid = project_mark(gen + 0.05 * rng.standard_normal(gen.shape), sic)
    digest.update(dproj.tobytes() + np.float64(resid).tobytes())
print(digest.hexdigest())
"""


@pytest.mark.bits
def test_qutrit_project_mark_bytes_do_not_depend_on_blas_threads():
    # the cached ADMM solve is inverted without BLAS, so its bits and those
    # of every projection are the same with one BLAS thread and with two
    one, two = (run_python(["-c", QUTRIT_MARK_DIGEST], threads) for threads in "12")
    assert one == two


def test_cached_operator_arrays_are_read_only():
    cached = (basis_sigma(2), basis_hunit(SIC), *_sic_ops(SIC))
    for arr in cached:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    # built once and handed out as the same array
    assert basis_hunit(SIC) is cached[1]


def test_is_markovian_on_gksl_generator():
    rng = np.random.default_rng(96)
    h = random_hermitian(rng, 2)
    v = 0.45 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    g = lgen_from_gksl(GkslSpec(2, h, (v,)), SIC)
    assert markov_residual(g.matrix) < 1e-8


def test_is_markovian_rejects_reversed_dissipation():
    # running a dissipative semigroup backwards is not Markovian
    rng = np.random.default_rng(97)
    v = 0.6 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    g = lgen_from_gksl(GkslSpec(2, np.zeros((2, 2)), (v,)), SIC)
    assert markov_residual(-g.matrix) > 1e-3


def test_gksl_exponential_round_trip_through_log():
    rng = np.random.default_rng(98)
    h = random_hermitian(rng, 2)
    v = 0.4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    g = lgen_from_gksl(GkslSpec(2, h, (v,)), SIC)
    s_matrix = mat_exp(g.matrix * 0.5)
    back = mat_log_real(s_matrix)
    assert np.abs(back - g.matrix * 0.5).max() < 1e-9
