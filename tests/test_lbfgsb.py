import json

import numpy as np
import pytest
import scipy.optimize

from sicprob import _lbfgsb, channels
from sicprob._lbfgsb import lbfgsb_lanes
from sicprob._optim import OptConfig
from sicprob.channels import _project_cptp_many, kraus_to_pstoch, project_cptp
from sicprob.dynamics import _theta_stack, basis_sigma
from sicprob.errors import OptimizerError
from sicprob.sic import builtin_qubit

from fixtures import DATA, qutrit_sic, random_kraus_channel

# every test here pins bits or work counts: run them alone with -m bits
pytestmark = pytest.mark.bits

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


def test_driver_matches_minimize_at_the_iteration_cap(runs, monkeypatch):
    # every stage stops after 3 iterations: the NEW_X stop path (504)
    monkeypatch.setattr(channels, "_STAGE_MAX_ITER", 3)
    with pytest.raises(OptimizerError):
        project_cptp(qubit_case(0), SIC, SIC, OptConfig(restarts=2))
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


def reference_kernel(mats, sic, restarts):
    """The evaluation of project_cptp's lanes as first written, one einsum per
    term and a fresh array at each step: the formula its kernel is held to."""
    d = sic.dim
    n = d * d
    sig = basis_sigma(d)
    theta = _theta_stack(sic, sic, sig)
    eye = np.eye(d)
    s_lanes = np.array([np.asfortranarray(s, dtype=float).T for s in mats for _ in range(restarts)])

    def fun_grad_many(x, mu, lanes):
        v = (x[:, : n * n] + 1j * x[:, n * n :]).reshape(-1, n, n)
        p = v @ v.conj().transpose(0, 2, 1)
        s_model = np.einsum("kij,ijab->kab", p, theta).real
        resid = s_model.transpose(0, 2, 1) - s_lanes[lanes]
        t_dev = np.einsum("kji,iab,jbc->kac", p, sig, sig) - eye
        f = (resid**2).sum(axis=(1, 2)) + mu * (np.abs(t_dev) ** 2).sum(axis=(1, 2))
        w = np.einsum("kba,ijab->kij", 2.0 * resid, theta)
        w += (2.0 * mu)[:, None, None] * np.einsum("kab,ibc,jca->kji", t_dev, sig, sig)
        a = (w.transpose(0, 2, 1) + w.conj()) / 2
        av = (a @ v).reshape(len(x), -1)
        return f, np.concatenate([2 * av.real, 2 * av.imag], axis=1)

    return fun_grad_many


def lane_relative_difference(got, want):
    """Largest entry difference of each lane over the largest entry of the
    reference lane."""
    got, want = got.reshape(len(got), -1), want.reshape(len(want), -1)
    return np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)


@pytest.mark.parametrize("dim", [2, 3])
def test_kernel_matches_the_reference_formula(runs, monkeypatch, dim):
    # two matrices x 2 restarts: 4 lanes, evaluated at random points and at
    # the warm starts, in subsets of 1 to 4 lanes, at each stage's mu and at
    # a mix of them; each lane agrees with the reference to rounding and
    # has the bits it has when evaluated alone
    sic = SIC if dim == 2 else qutrit_sic()
    rng = np.random.default_rng(30 + dim)
    mats = []
    for _ in range(2):
        s = kraus_to_pstoch(random_kraus_channel(rng, dim, 2), sic, sic)
        mats.append(s + 0.02 * rng.standard_normal(s.shape))
    monkeypatch.setattr(channels, "_STAGE_MAX_ITER", 2)  # only the kernel is wanted
    with pytest.raises(OptimizerError):
        _project_cptp_many(mats, sic, sic, OptConfig(restarts=2))
    (args, _), = runs
    kernel, x0, mus = args[:3]
    reference = reference_kernel(mats, sic, 2)
    for mu in [*([m] for m in mus), mus]:
        for size in range(1, 5):
            lanes = np.sort(rng.choice(4, size, replace=False))
            mu_lanes = rng.choice(mu, size)
            for x in (x0[lanes], rng.standard_normal((size, x0.shape[1]))):
                got, want = kernel(x, mu_lanes, lanes), reference(x, mu_lanes, lanes)
                for a, b in zip(got, want, strict=True):
                    assert (a.dtype, a.shape) == (b.dtype, b.shape)
                    assert lane_relative_difference(a, b).max() <= 1e-13
                alone = [kernel(x[j, None], mu_lanes[j, None], lanes[j, None]) for j in range(size)]
                for a, b in zip(got, zip(*alone), strict=True):
                    assert a.tobytes() == np.concatenate(b).tobytes()


def test_lane_work_on_the_recorded_inputs(runs):
    # (rounds, lane evaluations) of each recorded input at restarts=2: a
    # cheaper evaluation must not change the steps
    with open(DATA / "project_cptp_restarts2.json", encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    for case in cases:
        project_cptp(np.array(case["s_raw"]), SIC, SIC, OptConfig(restarts=2, seed=case["seed"]))
    assert [(len(rounds), sum(map(len, rounds))) for _, rounds in runs] == [
        (238, 388), (539, 1077), (338, 609), (426, 743), (282, 532), (331, 596),
    ]  # fmt: skip
