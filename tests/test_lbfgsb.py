import json

import numpy as np
import pytest
import scipy.optimize

from sicprob import _lbfgsb
from sicprob._lbfgsb import lbfgsb_lanes
from sicprob._optim import OptConfig
from sicprob.channels import _project_cptp_many, kraus_to_pstoch, project_cptp
from sicprob.errors import OptimizerError
from sicprob.sic import builtin_qubit

from fixtures import DATA, qutrit_sic, random_kraus_channel

SIC = builtin_qubit()


@pytest.fixture
def runs(monkeypatch):
    """The arguments of every driver call that project_cptp makes, and the
    lanes of each of its evaluation rounds."""
    calls = []

    def recording(fun_grad_many, *args):
        rounds = []

        def counting(x, mu, lanes):
            rounds.append(lanes.tolist())
            return fun_grad_many(x, mu, lanes)

        calls.append(((fun_grad_many, *args), rounds))
        return lbfgsb_lanes(counting, *args)

    monkeypatch.setattr(_lbfgsb, "lbfgsb_lanes", recording)
    return calls


def assert_lanes_match_minimize(fun_grad_many, x0, mus, max_iter, gtol, ftol):
    """Each lane equals scipy.optimize.minimize run stage after stage, bit
    for bit; returns the ``(nit, success)`` of every lane's stages."""
    assert (mus, gtol, ftol) == ((1.0, 10.0, 100.0, 1000.0), 1e-8, 1e-14)
    stages = []
    for lane, (x, f, g, nit, success) in enumerate(
        lbfgsb_lanes(fun_grad_many, x0, mus, max_iter, gtol, ftol)
    ):

        def fun_grad(xi, mu):
            fs, gs = fun_grad_many(xi[None], np.array([mu]), np.array([lane]))
            return fs[0], gs[0]

        xm = x0[lane]
        for mu in mus:
            res = scipy.optimize.minimize(
                fun_grad,
                xm,
                args=(mu,),
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": max_iter, "gtol": gtol, "ftol": ftol},
            )
            xm = res.x
            stages.append((res.nit, res.success))
        assert x.tobytes() == res.x.tobytes()
        assert np.float64(f).tobytes() == np.float64(res.fun).tobytes()
        assert g.tobytes() == res.jac.tobytes()
        assert (nit, success) == (res.nit, res.success)
    return stages


def qubit_case(k):
    with open(DATA / "project_cptp_restarts2.json", encoding="utf-8") as fh:
        return np.array(json.load(fh)["cases"][k]["s_raw"])


@pytest.mark.parametrize("case", range(6))
def test_driver_matches_minimize_on_qubit_stages(runs, case):
    # the four penalty stages from the warm start of each recorded input
    project_cptp(qubit_case(case), SIC, SIC, OptConfig(restarts=1))
    assert len(runs) == 1
    (args, _), = runs
    assert len(assert_lanes_match_minimize(*args)) == 4


def test_driver_matches_minimize_on_qutrit_stages(runs):
    sic = qutrit_sic()
    rng = np.random.default_rng(6)
    s = kraus_to_pstoch(random_kraus_channel(rng, 3, 2), sic, sic)
    noisy = s + 0.02 * rng.standard_normal(s.shape)
    noisy -= (noisy.sum(axis=0) - 1.0) / noisy.shape[0]
    project_cptp(noisy, sic, sic, OptConfig(restarts=1))
    (args, _), = runs
    assert len(assert_lanes_match_minimize(*args)) == 4


def test_driver_matches_minimize_at_the_iteration_cap(runs):
    # every stage stops after 3 iterations: the NEW_X stop path (504)
    with pytest.raises(OptimizerError):
        project_cptp(qubit_case(0), SIC, SIC, OptConfig(restarts=2, max_iter=3))
    (args, _), = runs
    assert assert_lanes_match_minimize(*args) == [(3, False)] * 8


def test_driver_matches_minimize_when_lanes_finish_in_different_rounds(runs):
    # two matrices x 2 restarts in one driver call; lanes whose stages end
    # early wait while the others are evaluated without them
    _project_cptp_many([qubit_case(1), qubit_case(2)], SIC, SIC, OptConfig(restarts=2))
    (args, rounds), = runs
    assert len(args[1]) == 4
    assert rounds[0] == [0, 1, 2, 3]
    assert len(set(map(len, rounds))) > 1
    evaluations = [sum(lane in r for r in rounds) for lane in range(4)]
    assert len(set(evaluations)) > 1
    assert len(assert_lanes_match_minimize(*args)) == 16
