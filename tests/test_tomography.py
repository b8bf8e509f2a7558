import json
import re

import numpy as np
import pytest

from sicprob._optim import OptConfig
import sicprob.channels
import sicprob.dynamics
import sicprob.tomography
from sicprob.channels import is_cptp, kraus_to_pstoch, project_cptp
from sicprob.errors import NumericalDomainError, OptimizerError
from sicprob.linalg import mat_exp
from sicprob.sic import builtin_qubit
from sicprob.tomography import (
    CountsRecord,
    calibrate,
    error_estimate,
    freq_from_counts,
    input_prob_matrix,
    reconstruct_raw,
    run_pipeline,
    simulate_counts,
)

from fixtures import (
    DATA,
    H3_QUBIT,
    S_GATE_QUBIT,
    TESTS,
    qutrit_sic,
    random_kraus_channel,
    run_python,
)

SIC = builtin_qubit()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reconstruct_raw_rejects_nonfinite(bad):
    # used to pass NaN straight through the linear inversion
    freqs = np.full((4, 4), 0.25)
    freqs[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        reconstruct_raw(freqs, SIC)


def counts_from_freqs(freqs, shots):
    counts = np.rint(freqs * shots).astype(int)
    # fix rounding so every row sums exactly to shots
    for i in range(counts.shape[0]):
        counts[i, 0] += shots - counts[i].sum()
    return CountsRecord(dim=2, shots=shots, counts=counts)


def test_input_prob_matrix_closed_form():
    p = input_prob_matrix(SIC)
    expected = (2 * np.eye(4) + 1) / 6
    assert np.abs(p - expected).max() < 1e-12
    # inverse has the known +-5/2, -1/2 pattern
    pinv = np.linalg.inv(p)
    expected_inv = 0.5 * (5 * np.eye(4) - (1 - np.eye(4)))
    assert np.abs(pinv - expected_inv).max() < 1e-12


def test_error_estimate():
    assert error_estimate(1024) == pytest.approx(0.03125)
    assert error_estimate(4) == pytest.approx(0.5)
    assert error_estimate(np.int64(4)) == pytest.approx(0.5)
    # True used to count as one shot, and 2.5 as a shot count
    for shots in (0, True, 2.5, 4.0, "4"):
        with pytest.raises(ValueError, match="^shots must be"):
            error_estimate(shots)


@pytest.mark.parametrize("shots", [float("nan"), float("inf"), -float("inf")])
def test_error_estimate_rejects_nonfinite_shots(shots):
    with pytest.raises(ValueError, match="shots must be finite"):
        error_estimate(shots)


def test_freq_from_counts_checks():
    good = CountsRecord(dim=2, shots=10, counts=np.array([[5, 5, 0, 0]] * 4))
    f = freq_from_counts(good)
    assert np.abs(f.sum(axis=1) - 1.0).max() < 1e-12
    bad_sum = CountsRecord(dim=2, shots=10, counts=np.array([[5, 4, 0, 0]] * 4))
    with pytest.raises(ValueError):
        freq_from_counts(bad_sum)
    negative = CountsRecord(dim=2, shots=10, counts=np.array([[11, -1, 0, 0]] * 4))
    with pytest.raises(ValueError):
        freq_from_counts(negative)
    wrong_shape = CountsRecord(dim=2, shots=10, counts=np.array([[10, 0, 0]] * 4))
    with pytest.raises(ValueError):
        freq_from_counts(wrong_shape)


def test_reconstruct_raw_is_exact_on_exact_frequencies():
    rng = np.random.default_rng(111)
    for _ in range(10):
        s_true = kraus_to_pstoch(random_kraus_channel(rng, 2, 2), SIC, SIC)
        # exact outcome distribution: q = S P, with P the input-state matrix
        q = s_true @ input_prob_matrix(SIC)
        freqs = q.T  # row per input state
        s_est = reconstruct_raw(freqs, SIC)
        assert np.abs(s_est - s_true).max() < 1e-12


def test_reconstruct_raw_last_row_completion():
    rng = np.random.default_rng(112)
    s_true = kraus_to_pstoch(random_kraus_channel(rng, 2, 3), SIC, SIC)
    freqs = (s_true @ input_prob_matrix(SIC)).T
    s_est = reconstruct_raw(freqs, SIC)
    assert np.abs(s_est.sum(axis=0) - 1.0).max() < 1e-12


def test_reconstruct_raw_linearity():
    # reconstruction is linear in the frequency table
    rng = np.random.default_rng(113)
    p = input_prob_matrix(SIC)
    s1 = kraus_to_pstoch(random_kraus_channel(rng, 2, 2), SIC, SIC)
    s2 = kraus_to_pstoch(random_kraus_channel(rng, 2, 2), SIC, SIC)
    f1, f2 = (s1 @ p).T, (s2 @ p).T
    mix = 0.3 * f1 + 0.7 * f2
    est = reconstruct_raw(mix, SIC)
    assert np.abs(est - (0.3 * s1 + 0.7 * s2)).max() < 1e-11


def test_simulate_counts_deterministic():
    rng = np.random.default_rng(114)
    s_true = kraus_to_pstoch(random_kraus_channel(rng, 2, 2), SIC, SIC)
    c1 = simulate_counts(s_true, SIC, shots=500, seed=42)
    c2 = simulate_counts(s_true, SIC, shots=500, seed=42)
    c3 = simulate_counts(s_true, SIC, shots=500, seed=43)
    assert np.array_equal(c1.counts, c2.counts)
    assert not np.array_equal(c1.counts, c3.counts)
    assert c1.counts.sum(axis=1).tolist() == [500] * 4
    assert c1.counts.min() >= 0


@pytest.mark.parametrize("shots", [0, -5, 2.5, 1024.0, True, float("inf"), float("nan"), "1024"])
def test_simulate_counts_rejects_what_is_not_a_shot_count(shots):
    # 0 gave a record that freq_from_counts rejects, 2.5 one whose rows sum
    # to 2, True was taken as 1 shot and inf raised OverflowError
    with pytest.raises(ValueError, match="^shots must be an integer of at least 1"):
        simulate_counts(S_GATE_QUBIT, SIC, shots=shots, seed=0)
    assert simulate_counts(S_GATE_QUBIT, SIC, shots=np.int64(8), seed=0).counts.sum() == 32


def test_simulate_counts_rejects_nonphysical_distributions():
    with pytest.raises(ValueError):
        simulate_counts(H3_QUBIT, SIC, shots=100, seed=0)


@pytest.mark.parametrize("excess, raises", [(2e-9, True), (5e-10, False)])
def test_simulate_counts_negative_probability_tolerance_is_1e_9(excess, raises):
    # S = I + v 1^T with v = (-a, a, 0, 0) has unit column sums and maps an
    # input's distribution p to p + v; the least first entry of an input
    # distribution is 1/6, so a = 1/6 + excess gives the entry -excess
    a = 1.0 / 6.0 + excess
    s_matrix = np.eye(4) + np.outer([-a, a, 0.0, 0.0], np.ones(4))
    if raises:
        with pytest.raises(ValueError, match="input 1 has negative entry"):
            simulate_counts(s_matrix, SIC, shots=100, seed=0)
    else:
        assert simulate_counts(s_matrix, SIC, shots=100, seed=0).counts.sum() == 400


def test_raw_reconstruction_error_scaling():
    # root-mean-square entry error of the plain linear inversion stays within
    # twice the 1/sqrt(N) scale over repeated draws
    rng = np.random.default_rng(115)
    s_true = kraus_to_pstoch(random_kraus_channel(rng, 2, 2), SIC, SIC)
    shots = 400
    total_sq = 0.0
    trials = 200
    for k in range(trials):
        counts = simulate_counts(s_true, SIC, shots=shots, seed=1000 + k)
        s_est = reconstruct_raw(freq_from_counts(counts), SIC)
        total_sq += float(np.mean((s_est - s_true) ** 2))
    rms = np.sqrt(total_sq / trials)
    assert rms <= 2.0 / np.sqrt(shots)


def test_calibrate_exact_pair():
    # noiseless calibration: recover the target channel to optimizer accuracy
    sg = kraus_to_pstoch([np.diag([1.0, 1j])], SIC, SIC)
    gamma = 0.15
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    s_dec = kraus_to_pstoch([a0, a1], SIC, SIC)
    s_chain = s_dec @ sg
    cal_dec, cal_u = calibrate(s_dec, s_chain, SIC, OptConfig(restarts=2, seed=30))
    assert np.abs(cal_u - sg).max() < 1e-5
    assert np.abs(cal_dec - s_dec).max() < 1e-5
    ok, _ = is_cptp(cal_u, SIC, SIC, tol=1e-6)
    assert ok


def test_calibrate_rejects_singular_reference():
    # fully depolarizing reference cannot be inverted out
    s_dep = np.full((4, 4), 0.25)
    with pytest.raises(NumericalDomainError):
        calibrate(s_dep, s_dep, SIC, OptConfig(restarts=1, seed=31))


def test_calibrate_noisy_coverage():
    # with finite shots each recovered entry should sit within a few standard
    # errors of the truth in the vast majority of trials
    rng = np.random.default_rng(116)
    sg = kraus_to_pstoch([np.diag([1.0, 1j])], SIC, SIC)
    gamma = 0.1
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    s_dec = kraus_to_pstoch([a0, a1], SIC, SIC)
    s_chain = s_dec @ sg
    shots = 2000
    delta = error_estimate(shots)
    hits = np.zeros((4, 4))
    trials = 30
    for k in range(trials):
        c_dec = simulate_counts(s_dec, SIC, shots=shots, seed=5000 + k)
        c_chain = simulate_counts(s_chain, SIC, shots=shots, seed=6000 + k)
        raw_dec = reconstruct_raw(freq_from_counts(c_dec), SIC)
        raw_chain = reconstruct_raw(freq_from_counts(c_chain), SIC)
        _, cal_u = calibrate(raw_dec, raw_chain, SIC, OptConfig(restarts=1, seed=32))
        hits += (np.abs(cal_u - sg) <= 3 * delta).astype(float)
    assert (hits / trials).min() >= 0.9


def test_run_pipeline_end_to_end():
    rng = np.random.default_rng(117)
    sg = kraus_to_pstoch([np.diag([1.0, 1j])], SIC, SIC)
    gamma = 0.12
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    s_dec = kraus_to_pstoch([a0, a1], SIC, SIC)
    s_chain = s_dec @ sg
    shots = 4096
    counts_cal = simulate_counts(s_dec, SIC, shots=shots, seed=71)
    counts_main = simulate_counts(s_chain, SIC, shots=shots, seed=72)
    report = run_pipeline(counts_main, counts_cal, SIC, OptConfig(restarts=2, seed=33))
    assert report.shots == shots
    assert report.main.per_entry_error == pytest.approx(1 / np.sqrt(shots))
    # recovered process within a few standard errors of the truth
    assert np.abs(report.s_u - sg).max() < 5 / np.sqrt(shots)
    ok, _ = is_cptp(report.s_u, SIC, SIC, tol=1e-6)
    assert ok
    # analyses come back for both the process and the calibration channel
    assert report.analysis_u.quant.value >= 0
    assert report.analysis_cal.mark.delta_nmark >= 0
    assert "sic" in report.main.meta


def test_run_pipeline_projects_each_matrix_once(monkeypatch):
    # the projections of the raw matrices serve both the reports and the
    # calibration, so the pipeline matches calibrate() bit for bit
    sg = kraus_to_pstoch([np.diag([1.0, 1j])], SIC, SIC)
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(0.9)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(0.1)], [0.0, 0.0]], dtype=complex)
    s_dec = kraus_to_pstoch([a0, a1], SIC, SIC)
    counts_cal = simulate_counts(s_dec, SIC, shots=1024, seed=73)
    counts_main = simulate_counts(s_dec @ sg, SIC, shots=1024, seed=74)
    opt = OptConfig(restarts=2, seed=34)
    calls = []
    project_many = sicprob.channels._project_cptp_many

    def counting(mats, *args):
        calls.append(len(mats))
        return project_many(mats, *args)

    # the raw matrices in one batched call, then the divided-out chain
    for module in (sicprob.channels, sicprob.tomography):
        monkeypatch.setattr(module, "_project_cptp_many", counting)
    report = run_pipeline(counts_main, counts_cal, SIC, opt)
    assert calls == [2, 1]
    monkeypatch.undo()
    raw_cal, raw_main = report.cal.s_raw, report.main.s_raw
    cal_dec, cal_u = calibrate(raw_cal, raw_main, SIC, opt)
    assert np.array_equal(report.cal.s_cptp, cal_dec)
    assert np.array_equal(report.s_u, cal_u)
    assert np.array_equal(report.main.s_cptp, project_cptp(raw_main, SIC, SIC, opt))


def test_run_pipeline_builds_theta_once_per_sic(monkeypatch):
    # Theta, and project_cptp's maps made from it, live in the per-SIC
    # cache that project_mark reads too: a second pipeline builds none
    sic = builtin_qubit()  # a SIC of its own, so that nothing is cached yet
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(0.9)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(0.1)], [0.0, 0.0]], dtype=complex)
    s_dec = kraus_to_pstoch([a0, a1], sic, sic)
    counts_cal = simulate_counts(s_dec, sic, shots=1024, seed=73)
    counts_main = simulate_counts(s_dec @ s_dec, sic, shots=1024, seed=74)
    calls = []
    theta_stack = sicprob.dynamics._theta_stack

    def counting(sic_in, sic_out, sig):
        calls.append((sic_in, sic_out, len(sig)))
        return theta_stack(sic_in, sic_out, sig)

    monkeypatch.setattr(sicprob.dynamics, "_theta_stack", counting)
    opt = OptConfig(restarts=2, seed=34)
    first, second = (run_pipeline(counts_main, counts_cal, sic, opt) for _ in range(2))
    assert len(calls) == 1
    assert calls[0][0] is sic and calls[0][1] is sic and calls[0][2] == 4
    assert np.array_equal(first.s_u, second.s_u)


def test_pipeline_raises_what_the_cal_record_raises_alone(monkeypatch):
    # every penalty stage stops at 3 iterations, so both records fail; the
    # batched projection reports the cal record's error, as projecting it
    # first on its own does
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(0.9)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(0.1)], [0.0, 0.0]], dtype=complex)
    s_dec = kraus_to_pstoch([a0, a1], SIC, SIC)
    counts_cal = simulate_counts(s_dec, SIC, shots=1024, seed=75)
    counts_main = simulate_counts(s_dec, SIC, shots=1024, seed=76)
    raw_cal = reconstruct_raw(freq_from_counts(counts_cal), SIC)
    raw_main = reconstruct_raw(freq_from_counts(counts_main), SIC)
    monkeypatch.setattr(sicprob.channels, "_STAGE_MAX_ITER", 3)
    opt = OptConfig(restarts=2)
    with pytest.raises(OptimizerError) as alone:
        project_cptp(raw_cal, SIC, SIC, opt)
    message = f"^{re.escape(str(alone.value))}$"
    with pytest.raises(OptimizerError, match=message):
        run_pipeline(counts_main, counts_cal, SIC, opt)
    with pytest.raises(OptimizerError, match=message):
        calibrate(raw_cal, raw_main, SIC, opt)


@pytest.mark.bits
def test_run_pipeline_matches_recorded_outputs():
    # The whole pipeline is pinned here: the projections of reconstruct_raw's
    # arrays and of the calibrated product, the generator logarithms and
    # the frame searches. The cases run in a fresh interpreter with BLAS on
    # one thread (see pipeline_cases.py).
    got = json.loads(run_python([str(TESTS / "pipeline_cases.py")]))["cases"]
    with open(DATA / "run_pipeline_restarts2.json", encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    assert len(got) == len(cases) == 4
    for out, rec in zip(got, cases):
        for key in ("cal_s_cptp", "main_s_cptp", "s_u"):
            assert np.array_equal(out[key], rec[key])
        for name in ("analysis_u", "analysis_cal"):
            an, want = out[name], rec[name]
            for key in ("log", "h_part", "d_part", "s_mark", "lam"):
                assert np.array_equal(an[key], want[key])
            assert an["markov_residual"] == want["markov_residual"]
            assert an["quant_value"] == want["quant_value"]


@pytest.mark.bits
def test_run_pipeline_frames_do_not_depend_on_blas_threads():
    # the projections and the frame search take the same steps with one
    # BLAS thread and with two; JSON floats round-trip, so equal lists are
    # equal bytes
    runs = [json.loads(run_python([str(TESTS / "pipeline_cases.py")], t))["cases"] for t in "12"]
    for one, two in zip(*runs, strict=True):
        for key in ("cal_s_cptp", "main_s_cptp", "s_u"):
            assert one[key] == two[key]
        for name in ("analysis_u", "analysis_cal"):
            assert one[name]["lam"] == two[name]["lam"]
            assert one[name]["quant_value"] == two[name]["quant_value"]


@pytest.mark.bits
def test_qutrit_run_pipeline_does_not_depend_on_blas_threads():
    # every output of one run_pipeline on simulated qutrit counts, restarts 8,
    # is the same with one BLAS thread and with two
    one, two = (run_python([str(TESTS / "pipeline_cases.py"), "--qutrit"], t) for t in "12")
    assert json.loads(one) == json.loads(two)


def test_run_pipeline_rejects_mismatched_counts():
    c1 = CountsRecord(dim=2, shots=10, counts=np.array([[10, 0, 0, 0]] * 4))
    c2 = CountsRecord(dim=2, shots=20, counts=np.array([[20, 0, 0, 0]] * 4))
    with pytest.raises(ValueError):
        run_pipeline(c1, c2, SIC, OptConfig(restarts=1, seed=0))
    with pytest.raises(ValueError, match="records are d=2 but the SIC is d=3"):
        run_pipeline(c1, c1, qutrit_sic(), OptConfig(restarts=1, seed=0))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: freq_from_counts(CountsRecord(2, 0, np.zeros((4, 4), int))), "shots must be"),
        (lambda: reconstruct_raw(np.full((3, 3), 1 / 3), SIC), "frequency table shape"),
    ],
    ids=["freq_from_counts", "reconstruct_raw"],
)
def test_tomography_rejects_malformed_records(call, match):
    with pytest.raises(ValueError, match=match):
        call()
