import numpy as np
import pytest

from sicprob.errors import PhysicalityError
from sicprob.sic import builtin_qubit
from sicprob.states import (
    measurement_map,
    mub_from_sic,
    overlap,
    prob_to_state,
    qplex_membership,
    sic_from_mub,
    state_to_prob,
    validate_density,
)

from fixtures import (
    MUB_C_QUBIT,
    MUB_F_QUBIT,
    MUB_T_QUBIT,
    random_density,
    random_pure_state,
)

SIC = builtin_qubit()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_measurement_map_rejects_nonfinite(bad):
    # NaN fails every Hermiticity and positivity test silently; this used to
    # return a NaN response map
    effects = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
    effects[0, 0, 1] = bad
    with pytest.raises(ValueError, match="non-finite") as exc:
        measurement_map(effects, SIC)
    assert not isinstance(exc.value, PhysicalityError)


def test_state_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(50):
        rho = random_density(rng, 2)
        p = state_to_prob(rho, SIC)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p >= 0)
        back = prob_to_state(p, SIC)
        assert np.abs(back - rho).max() < 1e-12


def test_prob_round_trip_from_vector_side():
    rng = np.random.default_rng(42)
    for _ in range(20):
        rho = random_pure_state(rng, 2)
        p = state_to_prob(rho, SIC)
        assert np.abs(state_to_prob(prob_to_state(p, SIC), SIC) - p).max() < 1e-13


def test_maximally_mixed_is_flat():
    p = state_to_prob(np.eye(2) / 2, SIC)
    assert np.abs(p - 0.25).max() < 1e-14


def test_pure_state_invariants():
    # pure states satisfy sum p^2 = 2/(d(d+1)) and each entry stays in [0, 1/2]
    rng = np.random.default_rng(43)
    for _ in range(100):
        p = state_to_prob(random_pure_state(rng, 2), SIC)
        assert float(p @ p) == pytest.approx(1 / 3, abs=1e-12)
        assert p.min() >= -1e-12
        assert p.max() <= 0.5 + 1e-12


def test_validate_density_rejects_bad_inputs():
    with pytest.raises(PhysicalityError):
        validate_density(np.array([[0.5, 0.1], [0.3, 0.5]]), 2)  # not Hermitian
    with pytest.raises(PhysicalityError):
        validate_density(np.eye(2), 2)  # trace 2
    with pytest.raises(PhysicalityError):
        validate_density(np.diag([1.5, -0.5]), 2)  # negative eigenvalue
    with pytest.raises(ValueError, match="dimension mismatch"):
        validate_density(np.eye(3) / 3, 2)


@pytest.mark.parametrize("eig, raises", [(-2e-9, True), (-5e-10, False)])
def test_validate_density_eigenvalue_tolerance_is_1e_9(eig, raises):
    # a unit-trace Hermitian matrix with eigenvalue just past -1e-9 is
    # rejected; just inside, it passes
    rho = np.diag([1.0 - eig, eig])
    if raises:
        with pytest.raises(PhysicalityError, match="negative eigenvalue"):
            validate_density(rho, 2)
    else:
        assert np.array_equal(validate_density(rho, 2), rho)


def test_state_to_prob_validates():
    with pytest.raises(PhysicalityError):
        state_to_prob(np.diag([1.5, -0.5]).astype(complex), SIC)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_conversions_reject_nonfinite(bad):
    # NaN fails every tolerance test, so these used to answer with NaN (or,
    # for qplex_membership, a verdict) instead of an input error.
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 0] = bad
    for call in (lambda: state_to_prob(rho, SIC), lambda: validate_density(rho, 2)):
        with pytest.raises(ValueError, match="non-finite") as exc:
            call()
        assert not isinstance(exc.value, PhysicalityError)
    p = np.full(4, 0.25)
    p[3] = bad
    for fn in (prob_to_state, qplex_membership):
        with pytest.raises(ValueError, match="non-finite") as exc:
            fn(p, SIC)
        assert not isinstance(exc.value, PhysicalityError)


def test_prob_to_state_never_validates():
    # inverse map is linear and total: non-quantum vectors go through
    p = np.array([1.0, 0.0, 0.0, 0.0])
    rho = prob_to_state(p, SIC)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho).min() < 0


def test_qplex_membership():
    rng = np.random.default_rng(44)
    for _ in range(20):
        p = state_to_prob(random_density(rng, 2), SIC)
        assert qplex_membership(p, SIC)
    assert not qplex_membership(np.array([1.0, 0.0, 0.0, 0.0]), SIC)
    # the flat vector is the maximally mixed state
    assert qplex_membership(np.full(4, 0.25), SIC)


def test_qplex_membership_rejects_vectors_that_do_not_sum_to_one():
    # every scaling of the flat vector rebuilds a positive multiple of the
    # identity; only the one that sums to 1 is a state
    assert not qplex_membership(np.ones(4), SIC)
    assert not qplex_membership(np.full(4, 0.25 + 1e-6), SIC)
    assert qplex_membership(np.full(4, 0.25 + 1e-6), SIC, tol=1e-5)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
def test_qplex_membership_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    # a pure state read False with nan
    p = state_to_prob(np.diag([1.0, 0.0]).astype(complex), SIC)
    with pytest.raises(ValueError, match="tol must be a finite nonnegative number"):
        qplex_membership(p, SIC, tol=tol)


def test_qplex_membership_accepts_a_zero_tolerance():
    p = state_to_prob(np.diag([1.0, 0.0]).astype(complex), SIC)
    assert qplex_membership(p, SIC)
    assert qplex_membership(np.full(4, 0.25), SIC, tol=0.0)


def test_overlap_matches_hilbert_schmidt():
    rng = np.random.default_rng(45)
    for _ in range(30):
        r1 = random_density(rng, 2)
        r2 = random_density(rng, 2)
        p1 = state_to_prob(r1, SIC)
        p2 = state_to_prob(r2, SIC)
        hs = np.trace(r1 @ r2).real
        assert overlap(p1, p2, 2) == pytest.approx(hs, abs=1e-12)


def test_overlap_bounds_for_pure_states():
    # pure-state pairs satisfy 1/(d(d+1)) <= sum p q <= 2/(d(d+1))
    rng = np.random.default_rng(46)
    lo, hi = 1 / 6, 2 / 6
    for _ in range(200):
        p = state_to_prob(random_pure_state(rng, 2), SIC)
        q = state_to_prob(random_pure_state(rng, 2), SIC)
        dot = float(p @ q)
        assert lo - 1e-12 <= dot <= hi + 1e-12


def test_measurement_map_of_sic_itself():
    effects = [pi / 2 for pi in SIC.projectors]
    mm = measurement_map(effects, SIC)
    # measuring the defining SIC reproduces the probability vector
    rng = np.random.default_rng(47)
    rho = random_density(rng, 2)
    p = state_to_prob(rho, SIC)
    assert np.abs(mm.bigm @ p - p).max() < 1e-12
    born = np.array([np.trace(rho @ e).real for e in effects])
    assert np.abs(mm.bigm @ p - born).max() < 1e-12


def test_measurement_map_projective():
    effects = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    mm = measurement_map(effects, SIC)
    assert mm.bigm.shape == (2, 4)
    # conditional-probability matrix stays nonnegative, the response matrix
    # must pick up negative entries for a projective measurement
    assert mm.mmat.min() >= -1e-12
    assert mm.bigm.min() < 0
    rng = np.random.default_rng(48)
    for _ in range(20):
        rho = random_density(rng, 2)
        p = state_to_prob(rho, SIC)
        born = np.array([np.trace(rho @ e).real for e in effects])
        assert np.abs(mm.bigm @ p - born).max() < 1e-12


def test_measurement_map_trivial():
    mm = measurement_map([np.eye(2, dtype=complex)], SIC)
    rng = np.random.default_rng(49)
    p = state_to_prob(random_density(rng, 2), SIC)
    assert (mm.bigm @ p)[0] == pytest.approx(1.0, abs=1e-12)


def test_measurement_map_rejects_bad_povm():
    with pytest.raises(PhysicalityError):
        measurement_map([np.eye(2) * 0.5], SIC)  # does not sum to identity
    with pytest.raises(PhysicalityError):
        measurement_map(
            [np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])], SIC
        )  # negative effect
    with pytest.raises(ValueError, match="effects must have shape"):
        measurement_map(np.eye(2), SIC)
    tilt = np.array([[0.0, 0.1], [0.0, 0.0]])
    with pytest.raises(PhysicalityError, match="effect 0 is not Hermitian"):
        measurement_map([np.eye(2) / 2 + tilt, np.eye(2) / 2 - tilt], SIC)


def test_mub_fixtures():
    from sicprob.states import _MUB_C, _MUB_F, _MUB_T

    assert np.abs(_MUB_F - MUB_F_QUBIT).max() < 1e-12
    assert np.abs(_MUB_T - MUB_T_QUBIT).max() < 1e-12
    assert np.abs(_MUB_C - MUB_C_QUBIT).max() < 1e-12


def test_mub_forward_matrix_is_the_response_of_the_axis_effects():
    from sicprob.states import _MUB_F

    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1.0, -1.0]).astype(complex),
    ]
    # row k is the + outcome of the two-outcome POVM {(I + s_k)/2, (I - s_k)/2}
    rows = [measurement_map([(np.eye(2) + p) / 2, (np.eye(2) - p) / 2], builtin_qubit()).bigm[0]
            for p in paulis]  # fmt: skip
    assert np.abs(_MUB_F - np.array(rows)).max() < 1e-12


def test_mub_round_trip():
    rng = np.random.default_rng(50)
    for _ in range(50):
        p = state_to_prob(random_density(rng, 2), SIC)
        pt = mub_from_sic(p)
        assert np.abs(sic_from_mub(pt) - p).max() < 1e-12


# Each of these used to return NaN.
@pytest.mark.parametrize(
    "call",
    [
        lambda: overlap(np.full(4, np.nan), np.full(4, np.nan), 2),
        lambda: overlap(np.full(4, 0.25), np.full(4, np.inf), 2),
        lambda: mub_from_sic(np.full(4, np.nan)),
        lambda: sic_from_mub(np.full(3, np.nan)),
    ],
    ids=["overlap", "overlap-inf", "mub_from_sic", "sic_from_mub"],
)
def test_probability_helpers_reject_nonfinite(call):
    with pytest.raises(ValueError, match="non-finite"):
        call()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: prob_to_state(np.full(3, 1 / 3), SIC), "expected 4 probabilities"),
        (lambda: overlap(np.full(4, 0.25), np.full(3, 1 / 3), 2), "must both have 4"),
        (lambda: mub_from_sic(np.full(3, 1 / 3)), "4-entry"),
        (lambda: sic_from_mub(np.full(4, 0.5)), "3 MUB"),
    ],
    ids=["prob_to_state", "overlap", "mub_from_sic", "sic_from_mub"],
)
def test_probability_helpers_reject_wrong_lengths(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_mub_values():
    # +z eigenstate: certain on the z question, unbiased on x and y
    rho = np.diag([1.0, 0.0]).astype(complex)
    pt = mub_from_sic(state_to_prob(rho, SIC))
    assert pt[2] == pytest.approx(1.0, abs=1e-12)
    assert pt[0] == pytest.approx(0.5, abs=1e-12)
    assert pt[1] == pytest.approx(0.5, abs=1e-12)
