import json

import numpy as np
import pytest
import scipy.optimize

from sicprob import _lbfgsb
from sicprob._lbfgsb import lbfgsb
from sicprob._optim import OptConfig
from sicprob.channels import kraus_to_pstoch, project_cptp
from sicprob.errors import OptimizerError
from sicprob.sic import builtin_qubit

from fixtures import DATA, qutrit_sic, random_kraus_channel

SIC = builtin_qubit()


@pytest.fixture
def stages(monkeypatch):
    """The arguments of every L-BFGS-B stage that project_cptp runs."""
    calls = []

    def recording(*args):
        calls.append(args)
        return lbfgsb(*args)

    monkeypatch.setattr(_lbfgsb, "lbfgsb", recording)
    return calls


def assert_matches_minimize(fun_grad, x0, args, max_iter, gtol, ftol):
    """The driver's result equals scipy.optimize.minimize's bit for bit."""
    assert (gtol, ftol) == (1e-8, 1e-14)
    x, f, g, nit, success = lbfgsb(fun_grad, x0, args, max_iter, gtol, ftol)
    res = scipy.optimize.minimize(
        fun_grad,
        x0,
        args=args,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "gtol": gtol, "ftol": ftol},
    )
    assert x.tobytes() == res.x.tobytes()
    assert np.float64(f).tobytes() == np.float64(res.fun).tobytes()
    assert g.tobytes() == res.jac.tobytes()
    assert (nit, success) == (res.nit, res.success)
    return nit, success


def qubit_case(k):
    with open(DATA / "project_cptp_restarts2.json", encoding="utf-8") as fh:
        return np.array(json.load(fh)["cases"][k]["s_raw"])


@pytest.mark.parametrize("case", range(6))
def test_driver_matches_minimize_on_qubit_stages(stages, case):
    # the four penalty stages from the warm start of each recorded input
    project_cptp(qubit_case(case), SIC, SIC, OptConfig(restarts=1))
    assert [args for _, _, args, *_ in stages] == [(1.0,), (10.0,), (100.0,), (1000.0,)]
    for stage in stages:
        assert_matches_minimize(*stage)


def test_driver_matches_minimize_on_qutrit_stages(stages):
    sic = qutrit_sic()
    rng = np.random.default_rng(6)
    s = kraus_to_pstoch(random_kraus_channel(rng, 3, 2), sic, sic)
    noisy = s + 0.02 * rng.standard_normal(s.shape)
    noisy -= (noisy.sum(axis=0) - 1.0) / noisy.shape[0]
    project_cptp(noisy, sic, sic, OptConfig(restarts=1))
    assert len(stages) == 4
    for stage in stages:
        assert_matches_minimize(*stage)


def test_driver_matches_minimize_at_the_iteration_cap(stages):
    # every stage stops after 3 iterations: the NEW_X stop path (504)
    with pytest.raises(OptimizerError):
        project_cptp(qubit_case(0), SIC, SIC, OptConfig(restarts=2, max_iter=3))
    assert len(stages) == 8
    for stage in stages:
        assert assert_matches_minimize(*stage) == (3, False)
