"""Property tests of the conversion layer at d=2 and d=3.

Random Kraus sets and states are built from arrays that hypothesis draws,
so a failure shrinks to a small counterexample. Every check is an
invariant a docstring promises: unit column sums, the CPTP verdict on a
Kraus channel, and the Choi and state round trips.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from sicprob.channels import choi_to_pstoch, is_cptp, kraus_to_pstoch, pstoch_to_choi  # noqa: E402
from sicprob.sic import builtin_qubit  # noqa: E402
from sicprob.states import prob_to_state, qplex_membership, state_to_prob  # noqa: E402

from fixtures import qutrit_sic  # noqa: E402

SICS = {2: builtin_qubit(), 3: qutrit_sic()}
# Bounded so that the suite adds a few seconds to the tier-1 run, and
# derandomized so that every run draws the same examples, like the seeded
# tests around it.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

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
