"""Property tests of the conversion layer and of ``delta_quant``.

Random Kraus sets, states and generators are built from arrays that
hypothesis draws, so a failure shrinks to a small counterexample. Every
check is an invariant a docstring promises: unit column sums, the CPTP
verdict on a Kraus channel, the Choi and state round trips at d=2 and d=3,
and for qubit GKSL generators ``0 <= delta_quant <= negativity`` and the
invariance of ``delta_quant`` under frame rotations, for the qubit
``project_mark`` its idempotence and the KKT certificate of its convex
problem, and at d=2 and d=3 the split of ``lgen_from_gksl``'s generator.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from sicprob._optim import OptConfig  # noqa: E402
from sicprob.channels import choi_to_pstoch, is_cptp, kraus_to_pstoch, pstoch_to_choi  # noqa: E402
from sicprob.dynamics import (  # noqa: E402
    GkslSpec,
    _mark_coefficients,
    _sic_ops,
    basis_hunit,
    lgen_from_gksl,
    project_mark,
    project_unit,
)
from sicprob.linalg import mat_exp  # noqa: E402
from sicprob.measures import delta_quant, negativity  # noqa: E402
from sicprob.sic import builtin_qubit  # noqa: E402
from sicprob.states import prob_to_state, qplex_membership, state_to_prob  # noqa: E402

from fixtures import qutrit_sic  # noqa: E402

SICS = {2: builtin_qubit(), 3: qutrit_sic()}
# Bounded so that the suite adds a few seconds to the tier-1 run, and
# derandomized so that every run draws the same examples, like the seeded
# tests around it.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
# Each delta_quant example runs a full frame search (~20 ms).
SEARCH_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
QUBIT_BASIS = basis_hunit(SICS[2])

entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def kraus_sets(draw):
    """``(d, ops)``: a Kraus set cut from the Q factor of a drawn matrix.

    Householder QR gives orthonormal columns even for a singular draw, so
    every set is trace preserving to rounding.
    """
    d = draw(st.sampled_from(sorted(SICS)))
    n_ops = draw(st.integers(1, 4))
    shape = (d * n_ops, d)
    re = draw(arrays(float, shape, elements=entries))
    im = draw(arrays(float, shape, elements=entries))
    q, _ = np.linalg.qr(re + 1j * im)
    return d, [q[k * d : (k + 1) * d] for k in range(n_ops)]


@st.composite
def states(draw):
    """``(d, rho)``: ``G G^H / Tr`` of a drawn matrix ``G``."""
    d = draw(st.sampled_from(sorted(SICS)))
    re = draw(arrays(float, (d, d), elements=entries))
    im = draw(arrays(float, (d, d), elements=entries))
    g = re + 1j * im
    rho = g @ g.conj().T
    tr = np.trace(rho).real
    assume(tr > 1e-3)
    return d, rho / tr


@PROPERTY
@given(kraus_sets())
def test_channel_matrix_columns_sum_to_one(case):
    d, kraus = case
    s = kraus_to_pstoch(kraus, SICS[d], SICS[d])
    assert s.shape == (d * d, d * d)
    assert np.abs(s.sum(axis=0) - 1.0).max() < 1e-12


@PROPERTY
@given(kraus_sets())
def test_kraus_channel_is_cptp(case):
    d, kraus = case
    sic = SICS[d]
    ok, rep = is_cptp(kraus_to_pstoch(kraus, sic, sic), sic, sic)
    assert ok, rep


@PROPERTY
@given(kraus_sets())
def test_choi_round_trip(case):
    d, kraus = case
    sic = SICS[d]
    s = kraus_to_pstoch(kraus, sic, sic)
    choi = pstoch_to_choi(s, sic, sic)
    assert np.trace(choi).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(choi_to_pstoch(choi, sic, sic) - s).max() < 1e-10


@PROPERTY
@given(states())
def test_state_round_trip(case):
    d, rho = case
    sic = SICS[d]
    p = state_to_prob(rho, sic)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert p.min() >= -1e-12
    assert qplex_membership(p, sic)
    assert np.abs(prob_to_state(p, sic) - rho).max() < 1e-10


@st.composite
def qubit_generators(draw):
    """A qubit GKSL generator: drawn Hamiltonian and one drawn noise operator."""
    a = draw(arrays(float, (4, 2, 2), elements=entries))
    h = a[0] + 1j * a[1]
    return lgen_from_gksl(GkslSpec(2, (h + h.conj().T) / 2, (a[2] + 1j * a[3],)), SICS[2]).matrix


@SEARCH_PROPERTY
@given(qubit_generators())
def test_delta_quant_between_zero_and_negativity(lmat):
    value = delta_quant(lmat, SICS[2], OptConfig(restarts=1))
    assert 0.0 <= value <= negativity(lmat)


@SEARCH_PROPERTY
@given(qubit_generators(), arrays(float, 3, elements=st.floats(-3.0, 3.0)))
def test_delta_quant_is_frame_invariant(lmat, lam):
    u = mat_exp(np.einsum("i,iab->ab", lam, QUBIT_BASIS))
    opt = OptConfig(restarts=1)
    rotated = delta_quant(u @ lmat @ u.T, SICS[2], opt)
    assert abs(delta_quant(lmat, SICS[2], opt) - rotated) <= 1e-6


@PROPERTY
@given(arrays(float, (4, 4), elements=entries))
def test_project_mark_is_idempotent(dtilde):
    dproj, _ = project_mark(dtilde, SICS[2])
    again, resid = project_mark(dproj, SICS[2])
    assert resid <= 1e-10
    assert np.abs(again - dproj).max() <= 1e-10


@PROPERTY
@given(arrays(float, (4, 4), elements=entries))
def test_project_mark_satisfies_kkt(dtilde):
    # min ||A p - dtilde||^2 / 2 over PSD P: P >= 0, gradient G >= 0, <P, G> = 0
    ops = _sic_ops(SICS[2])
    z = _mark_coefficients(dtilde, ops)
    grad = ops.amat.T @ (ops.amat @ z - dtilde.ravel())

    def hermitian(x):
        mat = x.view(complex).reshape(3, 3)
        return (mat + mat.conj().T) / 2

    assert np.linalg.eigvalsh(hermitian(z)).min() >= -1e-12
    assert np.linalg.eigvalsh(hermitian(grad)).min() >= -1e-9
    assert abs(float(z @ grad)) <= 1e-9


@st.composite
def gksl_specs(draw):
    """``(d, spec)``: a drawn Hamiltonian and one or two drawn noise
    operators, whose traces are left as drawn."""
    d = draw(st.sampled_from(sorted(SICS)))
    n_ops = draw(st.integers(1, 2))
    a = draw(arrays(float, (2 + 2 * n_ops, d, d), elements=entries))
    h = a[0] + 1j * a[1]
    noise = tuple(a[k] + 1j * a[k + 1] for k in range(2, 2 + 2 * n_ops, 2))
    return d, GkslSpec(d, (h + h.conj().T) / 2, noise)


@PROPERTY
@given(gksl_specs())
def test_gksl_generator_splits_into_unitary_and_dissipative_parts(case):
    d, spec = case
    sic = SICS[d]
    gen = lgen_from_gksl(spec, sic)
    basis = basis_hunit(sic)
    tol = 1e-10 * max(1.0, float(np.abs(gen.matrix).max()))
    assert np.abs(gen.matrix.sum(axis=0)).max() <= tol
    assert np.abs(gen.h_part + gen.d_part - gen.matrix).max() <= tol
    assert np.abs(project_unit(gen.h_part, basis) - gen.h_part).max() <= tol
    assert np.abs(project_unit(gen.d_part, basis)).max() <= tol
