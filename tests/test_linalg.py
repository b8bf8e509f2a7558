import numpy as np
import pytest

from sicprob.errors import (
    LogBranchError,
    NonRealLogError,
    NumericalDomainError,
)
from sicprob.linalg import _frobenius_dist, mat_exp, mat_log_real

from fixtures import S_REDUCTION_QUBIT, S_TRANSPOSE_QUBIT, random_hermitian


def taylor_exp(a, terms=60):
    """Independent oracle: plain truncated series, valid for small norms."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def test_mat_exp_matches_taylor_series():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) * 0.5
        assert np.abs(mat_exp(a) - taylor_exp(a)).max() < 1e-12


def test_mat_exp_complex_matches_taylor_series():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) * 0.4
        assert np.abs(mat_exp(a) - taylor_exp(a)).max() < 1e-12


def test_mat_exp_diagonal_and_nilpotent():
    d = mat_exp(np.diag([1.0, -2.0, 0.0]))
    assert np.abs(d - np.diag(np.exp([1.0, -2.0, 0.0]))).max() < 1e-14
    n = np.array([[0.0, 3.0], [0.0, 0.0]])
    assert np.abs(mat_exp(n) - np.array([[1.0, 3.0], [0.0, 1.0]])).max() < 1e-14


def test_mat_exp_additive_for_commuting_inputs():
    a = np.diag([0.3, -0.7, 0.1])
    b = np.diag([-1.0, 0.2, 0.5])
    assert np.abs(mat_exp(a + b) - mat_exp(a) @ mat_exp(b)).max() < 1e-13


def test_mat_exp_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        mat_exp(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        mat_exp(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_mat_exp_rejects_overflowing_norm():
    # finite entries whose 1-norm overflows leave no scaling to pick
    with pytest.raises(ValueError, match="overflows"), np.errstate(over="ignore"):
        mat_exp(np.full((2, 2), 1e308))


def test_mat_log_real_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = rng.standard_normal((4, 4)) * 0.4
        s = mat_exp(g)
        l = mat_log_real(s)
        assert l.dtype.kind == "f"
        assert np.abs(mat_exp(l) - s).max() < 1e-10


def test_mat_log_real_recovers_generator_in_radius():
    # inside the convergence radius the log is unique, so it must match
    rng = np.random.default_rng(22)
    for _ in range(10):
        g = rng.standard_normal((3, 3)) * 0.2
        assert np.abs(mat_log_real(mat_exp(g)) - g).max() < 1e-10


def test_mat_log_real_rejects_negative_eigenvalues():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(LogBranchError) as exc:
        mat_log_real(flip)
    bad = exc.value.args[1]
    assert np.abs(bad + 1.0).min() < 1e-12


def test_mat_log_real_rejects_singular_matrix():
    with pytest.raises(LogBranchError):
        mat_log_real(np.diag([1.0, 0.0]))


def test_mat_log_real_rejects_known_unphysical_channels():
    # both involutions have a -1 eigenvalue, so no real generator exists
    with pytest.raises(LogBranchError):
        mat_log_real(S_TRANSPOSE_QUBIT)
    with pytest.raises(LogBranchError):
        mat_log_real(S_REDUCTION_QUBIT)


def test_mat_log_real_rejects_complex_entries():
    with pytest.raises(ValueError):
        mat_log_real(np.array([[1.0, 1e-3j], [0.0, 1.0]]))


def test_mat_log_real_accepts_complex_dtype_with_zero_imag():
    s = mat_exp(np.diag([0.1, 0.2])).astype(complex)
    l = mat_log_real(s)
    assert np.abs(l - np.diag([0.1, 0.2])).max() < 1e-12


def test_rotation_blocks_stay_real():
    # conjugate eigenvalue pairs admit a real log even near the branch cut
    theta = np.pi - 1e-3
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    l = mat_log_real(rot)
    assert np.abs(l - np.array([[0.0, -theta], [theta, 0.0]])).max() < 1e-8


def test_log_error_hierarchy():
    assert issubclass(LogBranchError, NumericalDomainError)
    assert issubclass(NonRealLogError, NumericalDomainError)
    assert issubclass(NumericalDomainError, ValueError)


def test_frobenius_dist_is_squared():
    a = np.zeros((2, 2))
    b = np.array([[3.0, 0.0], [0.0, 4.0]])
    assert _frobenius_dist(a, b) == pytest.approx(25.0)
    c = np.array([[1j, 0.0], [0.0, 0.0]])
    assert _frobenius_dist(c, np.zeros((2, 2))) == pytest.approx(1.0)


def test_frobenius_dist_shape_mismatch():
    with pytest.raises(ValueError):
        _frobenius_dist(np.zeros((2, 2)), np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_frobenius_dist_rejects_nonfinite(bad):
    # used to return NaN or inf
    with pytest.raises(ValueError, match="non-finite"):
        _frobenius_dist(np.full((2, 2), bad), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        _frobenius_dist(np.zeros((2, 2)), np.full((2, 2), bad))


def _gksl_channels():
    """Seeded GKSL generators at d=2 and d=3 and their channels at four times."""
    from sicprob.dynamics import GkslSpec, lgen_from_gksl
    from sicprob.sic import builtin_qubit

    from fixtures import qutrit_sic

    out = []
    for dim, sic in ((2, builtin_qubit()), (3, qutrit_sic())):
        rng = np.random.default_rng(40 + dim)
        for _ in range(10):
            noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            spec = GkslSpec(dim, random_hermitian(rng, dim), (0.3 * noise,))
            lmat = lgen_from_gksl(spec, sic).matrix
            out.extend((lmat * t) for t in (0.25, 1.0, 2.0, 5.0))
    return out


def test_mat_exp_matches_scipy_expm_on_gksl_generators():
    import scipy.linalg

    for g in _gksl_channels():
        want = scipy.linalg.expm(g)
        assert np.abs(mat_exp(g) - want).max() <= 1e-13 * np.abs(want).max()


def test_mat_log_real_matches_scipy_logm_without_fallback(monkeypatch):
    import scipy.linalg

    logm = scipy.linalg.logm
    channels = [scipy.linalg.expm(g) for g in _gksl_channels()]
    wanted = [logm(s).real for s in channels]

    def no_fallback(s):
        raise AssertionError("well-conditioned channel took the logm fallback")

    monkeypatch.setattr(scipy.linalg, "logm", no_fallback)
    for s, want in zip(channels, wanted):
        assert np.abs(mat_log_real(s) - want).max() <= 1e-12 * np.abs(want).max()


def test_mat_log_real_defective_input_takes_the_logm_fallback(monkeypatch):
    # a Jordan block has one eigenvector, so V diag(log w) V^-1 cannot
    # represent its log; exponentiating the eigendecomposition log back
    # exposes that
    import scipy.linalg

    calls = []
    logm = scipy.linalg.logm
    monkeypatch.setattr(scipy.linalg, "logm", lambda s: calls.append(s) or logm(s))
    l = mat_log_real(np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert len(calls) == 1
    assert np.abs(l - np.array([[0.0, 0.5], [0.0, 0.0]])).max() < 1e-14


def test_mat_log_real_nearly_defective_input_takes_the_logm_fallback():
    # a rotated 2 x 2 block with eigenvalues 1 and 1 + 1e-7 and nearly
    # parallel eigenvectors: the eigendecomposition log misses s by ~1e-9
    # on the way back, far past the 1e-12 round-trip check, and logm's log
    # gives s back to rounding
    c, sn = np.cos(0.7), np.sin(0.7)
    q = np.array([[c, -sn], [sn, c]])
    s = q @ np.array([[1.0, 1.0], [0.0, 1.0 + 1e-7]]) @ q.T
    w, v = np.linalg.eig(s)
    eig_log = ((v * np.log(w)) @ np.linalg.inv(v)).real
    assert np.abs(mat_exp(eig_log) - s).max() > 1e-10
    assert np.abs(mat_exp(mat_log_real(s)) - s).max() < 1e-14
