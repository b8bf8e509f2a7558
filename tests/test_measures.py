import json
import pathlib
import re
import warnings

import numpy as np
import pytest

from sicprob import _framesearch
from sicprob._framesearch import _conjugate, _frame_rotations, _negativities
from sicprob._optim import OptConfig
from sicprob.channels import project_cptp
from sicprob.dynamics import (
    GkslSpec,
    basis_hunit,
    dgen_from_v,
    evolve_unitary,
    hgen_from_hamiltonian,
    lgen_from_gksl,
    omega_basis,
    project_unit,
)
from sicprob.errors import LogBranchError
from sicprob.linalg import frobenius_dist, mat_exp
from sicprob.measures import (
    DeltaQuantReport,
    ExperimentScheme,
    _analyze_many,
    analyze_evolution,
    classicality_check,
    delta_nmark,
    delta_quant,
    delta_quant_detail,
    experiment_compose,
    markov_report,
    negativity,
)
from sicprob.serialize import load_fiducial
from sicprob.sic import builtin_qubit, from_fiducial
from sicprob.states import MeasurementMap, measurement_map, state_to_prob

from fixtures import (
    H3_QUBIT,
    S_DECOHERE,
    S_DRIVE,
    S_GATE_QUBIT,
    S_TRANSPOSE_QUBIT,
    random_density,
    random_hermitian,
)
from frame_cases import outputs as frame_case_outputs

SIC = builtin_qubit()
SZ = np.diag([1.0, -1.0]).astype(complex)
DATA = pathlib.Path(__file__).parent / "data"


def load_d3():
    with open(DATA / "fiducial_d3.json", encoding="utf-8") as fh:
        return from_fiducial(load_fiducial(json.load(fh)))


def test_classicality_check():
    # a genuine Kolmogorov generator: nonnegative off-diagonals
    k = np.array([[-0.3, 0.5], [0.3, -0.5]])
    assert classicality_check(k)
    assert not classicality_check(H3_QUBIT)
    # tiny negative rounding noise is tolerated
    k_noisy = k.copy()
    k_noisy[0, 1] = -1e-13
    assert classicality_check(k_noisy)


def test_negativity_values():
    assert negativity(np.array([[-5.0, 0.1], [0.2, -7.0]])) == 0.0
    assert negativity(H3_QUBIT / 2) == pytest.approx(0.5)
    assert negativity(H3_QUBIT) == pytest.approx(1.0)


def test_negativity_ignores_diagonal():
    m = np.diag([-4.0, -4.0, -4.0, -4.0])
    assert negativity(m) == 0.0


def test_negativity_permutation_invariant():
    rng = np.random.default_rng(101)
    m = rng.standard_normal((4, 4))
    perm = rng.permutation(4)
    assert negativity(m[np.ix_(perm, perm)]) == pytest.approx(negativity(m))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_negativity_rejects_nonfinite(bad):
    m = H3_QUBIT.copy()
    m[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        negativity(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_classicality_check_rejects_nonfinite(bad):
    # used to answer False: NaN fails the off-diagonal test silently
    with pytest.raises(ValueError, match="non-finite") as exc:
        classicality_check(np.full((4, 4), bad))
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("part", ["prep", "channel", "meas"])
def test_experiment_compose_rejects_nonfinite(part):
    # used to return a NaN outcome matrix: NaN passes the column-sum checks
    mm = measurement_map([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], SIC)
    prep, channel, bigm = np.full((4, 1), 0.25), np.eye(4), mm.bigm.copy()
    {"prep": prep, "channel": channel, "meas": bigm}[part][0, 0] = np.nan
    scheme = ExperimentScheme(prep, (channel,), MeasurementMap(mm.mmat, bigm))
    with pytest.raises(ValueError, match="non-finite") as exc:
        experiment_compose(scheme)
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_delta_quant_rejects_nonfinite(bad):
    g = H3_QUBIT.copy()
    g[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        delta_quant(g, SIC, OptConfig(restarts=1))


def test_delta_quant_rejects_mismatched_basis():
    # a qubit generator and the qutrit SIC
    with pytest.raises(ValueError, match="shapes"):
        delta_quant_detail(H3_QUBIT, load_d3(), OptConfig(restarts=1))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda b: delta_quant(H3_QUBIT, b), "s"),
        (lambda b: delta_quant_detail(H3_QUBIT, b), "s"),
        (lambda b: project_cptp(np.eye(4), b, b), "sic_in"),
        (lambda b: project_cptp(np.eye(4), SIC, b), "sic_out"),
        (lambda b: evolve_unitary(H3_QUBIT, 1.0, b), "s"),
        (lambda b: markov_report(np.eye(4), b), "s"),
        (lambda b: project_unit(np.eye(4), b), "s"),
        (lambda b: omega_basis(b), "s"),
        (lambda b: dgen_from_v(np.eye(3), b), "s"),
    ],
    ids=["delta_quant", "delta_quant_detail", "project_cptp_in", "project_cptp_out",
         "evolve_unitary", "markov_report", "project_unit", "omega_basis", "dgen_from_v"],
)  # fmt: skip
def test_a_basis_stack_in_place_of_the_sic_raises_type_error(call, name):
    # the old basis-taking forms of these calls raised AttributeError or
    # "unhashable type" from deep inside, which the CLI maps to no exit code
    with pytest.raises(TypeError, match=f"^{name} must be a SicPovm, got ndarray$"):
        call(basis_hunit(SIC))


@pytest.mark.parametrize("dim", [2, 3])
def test_batched_rotations_match_expm(dim):
    # the search builds its frames in batches (Rodrigues for the qubit, a
    # scaled Taylor series otherwise); frames and scores must be those of
    # the public expm path
    sic = SIC if dim == 2 else load_d3()
    rng = np.random.default_rng(120 + dim)
    noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    lmat = lgen_from_gksl(GkslSpec(dim, random_hermitian(rng, dim), (0.3 * noise,)), sic).matrix
    b = basis_hunit(sic)
    lam = rng.uniform(-np.pi, np.pi, (6, b.shape[0]))
    lam[0] = 0.0
    lam[1] = 1e-9 * lam[1]
    rotations = _frame_rotations(lam, b)
    scores = _negativities(_conjugate(lmat, rotations))
    for k in range(len(lam)):
        u = mat_exp(np.einsum("i,iab->ab", lam[k], b))
        assert np.abs(rotations[k] - u).max() <= 1e-12
        assert abs(scores[k] - negativity(u @ lmat @ u.T)) <= 1e-12


@pytest.mark.parametrize(
    "field, value",
    [("restarts", float("nan")), ("restarts", 2.5), ("restarts", 0), ("restarts", True),
     ("restarts", "8"), ("seed", 1.0), ("seed", -1)],
)
def test_opt_config_rejects_what_is_not_a_count(field, value):
    # a count that is not an integer would fail deep in a solver, or be
    # silently raised to the frame search's minimum
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        OptConfig(**{field: value})
    assert OptConfig(restarts=np.int64(3), seed=np.int64(0)).restarts == 3


def test_descent_builds_only_its_step_stack(monkeypatch):
    # the descent moves each frame by rotations built once a search (13
    # step lengths, both ways along the 3 qubit coordinates); every other
    # rotation built after the screen is a refinement trial, and lam is
    # read once, from the best frame's rotation
    g = hgen_from_hamiltonian(SZ, SIC) + lgen_from_gksl(
        GkslSpec(2, np.zeros((2, 2)), (0.4 * SZ + 0.2j * np.eye(2)[::-1],)), SIC
    ).matrix
    _framesearch._screen(SIC, 3)
    calls = []
    for name in ("_frame_rotations", "_refine", "_frame_lam"):
        wrapped = getattr(_framesearch, name)

        def logging(*args, _name=name, _fn=wrapped):
            # the rows of lam, of the lanes' rotations, of the rotation read
            calls.append((_name, len(args[2] if _name == "_refine" else args[0])))
            return _fn(*args)

        monkeypatch.setattr(_framesearch, name, logging)
    rep = delta_quant_detail(g, SIC, OptConfig(restarts=2, seed=3))
    refining = calls.index(("_refine", 8))
    assert calls[:refining] == [("_frame_rotations", 13 * 2 * 3)]
    *trials, last = calls[refining + 1 :]
    assert last == ("_frame_lam", 4) and {name for name, _ in trials} == {"_frame_rotations"}
    assert rep.evaluations == 1024 + 6 * (256 * 2 + 64 * 10) + 8 + sum(rows for _, rows in trials)


def test_screen_is_built_once_per_basis_and_seed():
    # every search with one SIC, so one basis, and one seed scores the same
    # 1024 frames, so they are built once and shared read-only
    lam, u = _framesearch._screen(SIC, 0)
    again = _framesearch._screen(SIC, 0)
    assert again[0] is lam and again[1] is u
    assert not lam.flags.writeable and not u.flags.writeable
    assert np.array_equal(u, _frame_rotations(np.array(lam), basis_hunit(SIC)))
    assert _framesearch._screen(SIC, 1)[0] is not lam


@pytest.mark.bits
def test_frame_search_matches_recorded_bits():
    # value, lam bytes, scored frames and agreeing starts of 144 searches
    # (see frame_cases.py): any change to the screen, the descent or the
    # refinement's arithmetic shows here
    with open(DATA / "delta_quant_frames_d2.json", encoding="utf-8") as fh:
        recorded = json.load(fh)
    got = frame_case_outputs()
    assert got.keys() == recorded.keys() == {"restarts2", "restarts8", "restarts32"}
    for key, rows in recorded.items():
        assert len(rows) == 48
        for new, old in zip(got[key], rows, strict=True):
            assert new == old


def test_delta_quant_no_worse_than_recorded_search():
    # 48 generators of the benchmark's tomo_d2_r2 workload (seed 0), with the
    # values the restarted Nelder-Mead search and then the screen, descent
    # and SLSQP search returned for them; the search may only match or
    # beat each one, the second to within rounding
    with open(DATA / "delta_quant_tomo_d2_r2_seed0.json", encoding="utf-8") as fh:
        record = json.load(fh)
    opt = OptConfig(**record["opt"])
    values = [delta_quant(np.array(g), SIC, opt) for g in record["generators"]]
    assert len(values) == len(record["delta_quant"]) == len(record["delta_quant_slsqp"]) == 48
    for new, nelder_mead, slsqp in zip(values, record["delta_quant"], record["delta_quant_slsqp"]):
        assert new <= nelder_mead + 1e-6
        assert new <= slsqp + 1e-9


def test_qutrit_delta_quant_no_worse_than_recorded_search():
    # 8 seeded qutrit GKSL generators with the values of the screen, descent
    # and SLSQP search at restarts=8
    with open(DATA / "delta_quant_qutrit_restarts8.json", encoding="utf-8") as fh:
        record = json.load(fh)
    opt = OptConfig(**record["opt"])
    sic = load_d3()
    b = basis_hunit(sic)
    for g, old in zip(record["generators"], record["delta_quant"], strict=True):
        rep = delta_quant_detail(np.array(g), sic, opt)
        assert rep.value <= old + 1e-6
        u = mat_exp(np.einsum("i,iab->ab", rep.lam, b))
        assert rep.value == pytest.approx(negativity(u @ np.array(g) @ u.T), abs=1e-12)


# the ten seeds of 900-959 whose best frames (restarts 1) lie farthest out
FAR_FRAME_SEEDS = (912, 915, 920, 925, 932, 933, 944, 954, 957, 959)


@pytest.mark.parametrize(
    "seed, restarts, search_seed",
    [(937, 16, 0), (979, 1, 79), (5154, 1, 154)] + [(k, 1, 0) for k in FAR_FRAME_SEEDS],
)
def test_qutrit_lam_reproduces_the_value_of_a_frame_that_moved_far(seed, restarts, search_seed):
    # the best frames of these generators drift from the descent's
    # first-order lam and move by up to ~3 rad while refining, and their
    # lam lies near the edge of the least-norm region (|lam| ~ 2); lam is
    # read from the SIC's unitary of the final rotation, so it still
    # rebuilds the frame scored
    rng = np.random.default_rng(seed)
    scale = rng.choice([0.1, 1.0, 3.0])
    g = scale * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    v = scale * rng.uniform(0, 1) * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    sic = load_d3()
    lmat = lgen_from_gksl(GkslSpec(3, (g + g.conj().T) / 2, (v,)), sic).matrix
    b = basis_hunit(sic)
    rep = delta_quant_detail(lmat, sic, OptConfig(restarts=restarts, seed=search_seed))
    u = mat_exp(np.einsum("i,iab->ab", rep.lam, b))
    assert abs(rep.value - negativity(u @ lmat @ u.T)) <= 1e-12 * np.abs(lmat).max()


@pytest.mark.parametrize("dim", [2, 3])
def test_frame_lam_rebuilds_the_rotation(dim):
    # the read-out of lam from a frame rotation, through the SIC's unitary,
    # rebuilds the rotation to rounding; the qubit cases include rotations
    # by angles within 1e-6 of pi (|lam| = pi / 2), where u and -u give
    # lam of about equal norm, and the identity
    sic = SIC if dim == 2 else load_d3()
    b = basis_hunit(sic)
    rng = np.random.default_rng(130 + dim)
    lams = list(rng.uniform(-2.0, 2.0, (40, len(b)))) + [np.zeros(len(b))]
    if dim == 2:
        for offset in (-1e-6, -1e-9, 0.0, 1e-9, 1e-6):
            axis = rng.standard_normal(3)
            lams.append((np.pi + offset) / 2 * axis / np.linalg.norm(axis))
    for lam in lams:
        u = mat_exp(np.einsum("i,iab->ab", lam, b))
        read = _framesearch._frame_lam(u, sic)
        assert np.abs(mat_exp(np.einsum("i,iab->ab", read, b)) - u).max() <= 1e-12
        # the least-norm lam: never longer than the one that built u
        assert np.linalg.norm(read) <= np.linalg.norm(lam) + 1e-12


def test_delta_quant_refines_at_least_eight_starts():
    g = hgen_from_hamiltonian(SZ, SIC) + lgen_from_gksl(
        GkslSpec(2, np.zeros((2, 2)), (0.4 * SZ + 0.2j * np.eye(2)[::-1],)), SIC
    ).matrix
    # every refined start of this generator reaches the same minimum
    for restarts, refined in ((1, 8), (12, 12)):
        rep = delta_quant_detail(g, SIC, OptConfig(restarts=restarts, seed=3))
        assert rep.restarts_agreeing == refined
        u = mat_exp(np.einsum("i,iab->ab", rep.lam, basis_hunit(SIC)))
        assert rep.value == pytest.approx(negativity(u @ g @ u.T), abs=1e-12)


def test_delta_quant_counts_every_frame_scored(monkeypatch):
    # every frame the search scores passes through _conjugate once
    g = hgen_from_hamiltonian(SZ, SIC) + lgen_from_gksl(
        GkslSpec(2, np.zeros((2, 2)), (0.4 * SZ + 0.2j * np.eye(2)[::-1],)), SIC
    ).matrix
    conjugate = _framesearch._conjugate
    scored = []

    def counting(lmat, u):
        scored.append(len(u))
        return conjugate(lmat, u)

    monkeypatch.setattr(_framesearch, "_conjugate", counting)
    # the screen, then 2 steps of 256 frames and 10 of 64 frames, each
    # trying 2 moves along each of the 3 coordinates
    before_refining = 1024 + 6 * (256 * 2 + 64 * 10)
    for restarts, refined in ((1, 8), (12, 12)):
        counts = []
        for _ in range(2):
            scored.clear()
            rep = delta_quant_detail(g, SIC, OptConfig(restarts=restarts, seed=3))
            assert rep.evaluations == sum(scored)
            counts.append(rep.evaluations)
        assert counts[0] == counts[1]
        # each start's frame and the refinement's trial steps, more than two
        # a lane for this generator; the final frames are not scored again
        assert counts[0] >= before_refining + 3 * refined


def test_delta_quant_zero_for_classical_generator():
    # exact dephasing dissipator produces a classical-looking generator
    v = np.sqrt(0.8) * SZ
    g = lgen_from_gksl(GkslSpec(2, np.zeros((2, 2)), (v,)), SIC)
    rep = delta_quant_detail(g.matrix, SIC, OptConfig(restarts=8, seed=10))
    assert rep.value < 1e-6


def test_delta_quant_never_exceeds_plain_negativity():
    # the identity frame rotation is always a candidate
    rng = np.random.default_rng(102)
    for _ in range(3):
        g = hgen_from_hamiltonian(random_hermitian(rng, 2), SIC)
        rep = delta_quant_detail(g, SIC, OptConfig(restarts=6, seed=11))
        assert rep.value <= negativity(g) + 1e-9


def test_delta_quant_invariant_under_frame_rotation():
    # conjugating the generator by a reachable rotation must not move the score
    b = basis_hunit(SIC)
    g = hgen_from_hamiltonian(SZ, SIC)
    u = mat_exp(0.6 * b[0])
    v1 = delta_quant(g, SIC, OptConfig(restarts=12, seed=12))
    v2 = delta_quant(u @ g @ u.T, SIC, OptConfig(restarts=12, seed=13))
    assert abs(v1 - v2) < 1e-3


def test_delta_quant_reports_agreement():
    g = hgen_from_hamiltonian(SZ, SIC)
    rep = delta_quant_detail(g, SIC, OptConfig(restarts=8, seed=14))
    assert rep.lam.shape == (3,)
    assert 1 <= rep.restarts_agreeing <= 8
    assert rep.value >= 0


def test_markov_projection_fixed_point():
    rng = np.random.default_rng(103)
    h = random_hermitian(rng, 2)
    v = 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    g = lgen_from_gksl(GkslSpec(2, h, (v,)), SIC)
    s_matrix = mat_exp(g.matrix * 0.7)
    rep = markov_report(s_matrix, SIC)
    assert np.abs(rep.s_mark - s_matrix).max() < 1e-6
    assert rep.delta_nmark < 1e-8
    assert delta_nmark(s_matrix, SIC) == rep.delta_nmark


def test_markov_projection_identity():
    rep = markov_report(np.eye(4), SIC)
    assert np.abs(rep.s_mark - np.eye(4)).max() < 1e-8


def test_delta_nmark_scales_frobenius_distance():
    rep = markov_report(S_DECOHERE, SIC)
    direct = np.sqrt(frobenius_dist(S_DECOHERE, rep.s_mark)) / 4
    assert rep.delta_nmark == pytest.approx(direct, abs=1e-12)
    assert rep.log_residual < 1e-8


def test_published_decoherent_channel_scores():
    # three-decimal matrix: its distance from the Markovian set sits in a
    # narrow, previously computed band
    val = delta_nmark(S_DECOHERE, SIC)
    assert 0.004 < val < 0.010


def test_published_driven_channel_scores():
    val = delta_nmark(S_DRIVE, SIC)
    assert 0.001 < val < 0.005


def test_analyze_evolution_bundle():
    analysis = analyze_evolution(S_GATE_QUBIT, SIC, OptConfig(restarts=6, seed=20))
    # the phase gate is exp of a pure Hamiltonian generator
    assert np.abs(analysis.log - analysis.h_part).max() < 1e-6
    assert np.abs(analysis.d_part).max() < 1e-6
    assert analysis.mark.delta_nmark < 1e-7
    assert analysis.markov_residual < 1e-7
    assert analysis.quant.value >= 0
    # parts always recombine into the log
    assert np.abs(analysis.h_part + analysis.d_part - analysis.log).max() < 1e-12


def test_analyze_evolution_builds_the_basis_once(monkeypatch):
    from sicprob import dynamics

    calls = []
    build = dynamics._hunit_stack

    def counted(s, sig):
        calls.append(s)
        return build(s, sig)

    opt = OptConfig(restarts=2, seed=20)
    expected = analyze_evolution(S_DRIVE, SIC, opt)
    monkeypatch.setattr(dynamics, "_hunit_stack", counted)
    fresh = builtin_qubit()  # a SIC the per-SIC cache has not seen
    analysis = analyze_evolution(S_DRIVE, fresh, opt)
    assert calls == [fresh]
    assert analysis.quant.value == expected.quant.value
    assert np.array_equal(analysis.h_part, expected.h_part)
    assert np.array_equal(analysis.mark.s_mark, expected.mark.s_mark)


def _gksl_generators(sic, seed, count):
    # seeded dissipative generators: H = 0.3 (G + G^H) / 2, one noise
    # operator V = 0.5 G' for complex Gaussian G and G'
    rng = np.random.default_rng(seed)
    d = sic.dim
    out = []
    for _ in range(count):
        g, v = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2))
        out.append(lgen_from_gksl(GkslSpec(d, 0.15 * (g + g.conj().T), (0.5 * v,)), sic).matrix)
    return out


def _same_report(a, b):
    return (a.value, a.lam.tobytes(), a.restarts_agreeing, a.evaluations) == (
        b.value, b.lam.tobytes(), b.restarts_agreeing, b.evaluations
    )


@pytest.mark.parametrize("dim", [2, 3])
def test_generators_searched_together_get_the_bits_they_get_alone(dim):
    # the frame searches of run_pipeline's two matrices share one batched
    # search; each generator must come out as from a search of its own.
    # The qubit set holds two symmetric generators, whose lanes meet
    # singular model problems (the pinv fallback), and the qutrit lanes
    # reach model problems of different widths. Last, every generator of
    # a recorded fixture in one call: the 48 qubit ones at restarts 8, or
    # the 8 qutrit ones
    sic = SIC if dim == 2 else load_d3()
    if dim == 2:
        sz = hgen_from_hamiltonian(SZ, SIC)
        zero = np.zeros((2, 2))
        drive = lgen_from_gksl(GkslSpec(2, zero, (0.4 * SZ + 0.2j * np.eye(2)[::-1],)), SIC)
        dephase = lgen_from_gksl(GkslSpec(2, zero, (np.sqrt(0.8) * SZ,)), SIC)
        gens = _gksl_generators(SIC, 5, 4) + [sz + drive.matrix, dephase.matrix]
    else:
        gens = _gksl_generators(sic, 7, 6)
    opt = OptConfig(restarts=2, seed=0)
    alone = [delta_quant_detail(g, sic, opt) for g in gens]
    for k in range(0, len(gens), 2):
        together = _framesearch.search(np.array(gens[k : k + 2]), sic, opt)
        for got, want in zip(together, alone[k : k + 2], strict=True):
            assert _same_report(DeltaQuantReport(*got), want)
    # three at once, across the pairs
    together = _framesearch.search(np.array(gens[1:4]), sic, opt)
    for got, want in zip(together, alone[1:4], strict=True):
        assert _same_report(DeltaQuantReport(*got), want)
    # and through the analysis of two evolution matrices
    mats = [mat_exp(0.3 * g) for g in gens[:2]]
    for got, m in zip(_analyze_many(mats, sic, opt), mats, strict=True):
        want = analyze_evolution(m, sic, opt)
        assert _same_report(got.quant, want.quant)
        assert got.mark.s_mark.tobytes() == want.mark.s_mark.tobytes()
        assert got.markov_residual == want.markov_residual
        assert got.log.tobytes() == want.log.tobytes()
    name = "delta_quant_tomo_d2_r2_seed0.json" if dim == 2 else "delta_quant_qutrit_restarts8.json"
    with open(DATA / name, encoding="utf-8") as fh:
        gens = np.array(json.load(fh)["generators"])
    opt = OptConfig(restarts=8, seed=0)
    together = _framesearch.search(gens, sic, opt)
    for got, g in zip(together, gens, strict=True):
        assert _same_report(DeltaQuantReport(*got), delta_quant_detail(g, sic, opt))


def test_analyze_many_raises_what_a_failing_log_raises():
    # the second matrix has no real log: the batch raises the error that
    # analyze_evolution raises for it alone
    opt = OptConfig(restarts=2, seed=0)
    with pytest.raises(LogBranchError) as alone:
        analyze_evolution(S_TRANSPOSE_QUBIT, SIC, opt)
    with pytest.raises(LogBranchError) as together:
        _analyze_many((S_DRIVE, S_TRANSPOSE_QUBIT), SIC, opt)
    assert str(together.value) == str(alone.value)


def test_experiment_compose_identity_chain():
    # preparing the SIC states and measuring the SIC reproduces the Gram-based
    # conditional probability matrix
    prep = np.array([state_to_prob(p, SIC) for p in SIC.projectors]).T
    mm = measurement_map([p / 2 for p in SIC.projectors], SIC)
    scheme = ExperimentScheme(prep=prep, channels=(), meas=mm)
    q = experiment_compose(scheme)
    born = np.array(
        [
            [np.trace(SIC.projectors[i] @ SIC.projectors[j]).real / 2 for j in range(4)]
            for i in range(4)
        ]
    )
    assert np.abs(q - born).max() < 1e-12
    assert np.abs(born - (2 * np.eye(4) + 1) / 6).max() < 1e-12


def test_experiment_compose_with_channel():
    # Born-rule oracle: probabilities of measuring the SIC after the phase gate
    prep = np.array([state_to_prob(p, SIC) for p in SIC.projectors]).T
    mm = measurement_map([p / 2 for p in SIC.projectors], SIC)
    scheme = ExperimentScheme(prep=prep, channels=(S_GATE_QUBIT,), meas=mm)
    q = experiment_compose(scheme)
    sgate = np.diag([1.0, 1j])
    for j in range(4):
        rho_out = sgate @ SIC.projectors[j] @ sgate.conj().T
        for i in range(4):
            born = np.trace(rho_out @ SIC.projectors[i] / 2).real
            assert abs(q[i, j] - born) < 1e-12
    assert q.min() > -1e-12
    assert np.abs(q.sum(axis=0) - 1.0).max() < 1e-12


def test_experiment_compose_rejects_bad_prep():
    prep = np.ones((4, 2))  # columns sum to 4, not 1
    mm = measurement_map([p / 2 for p in SIC.projectors], SIC)
    with pytest.raises(ValueError):
        experiment_compose(ExperimentScheme(prep=prep, channels=(), meas=mm))


@pytest.mark.parametrize("shape", [(4,), (1, 4, 4), ()])
def test_experiment_compose_names_a_channel_that_is_not_a_matrix(shape):
    # a 1-D channel used to raise an untyped IndexError, which the CLI maps
    # to no exit code
    prep = np.full((4, 1), 0.25)
    mm = measurement_map([p / 2 for p in SIC.projectors], SIC)
    bad = np.ones(shape)
    scheme = ExperimentScheme(prep=prep, channels=(np.eye(4), bad), meas=mm)
    message = f"channel 1 must be a matrix, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        experiment_compose(scheme)
    scheme = ExperimentScheme(prep=prep, channels=(), meas=MeasurementMap(mm.mmat, bad))
    message = f"measurement map must be a matrix, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        experiment_compose(scheme)


@pytest.mark.parametrize(
    "channel, effects, match",
    [
        (np.eye(9), None, "channel 0 input dimension 9 does not match chain 4"),
        (np.eye(4), [np.eye(3)], "measurement input dimension 9 does not match chain 4"),
        (2 * np.eye(4), None, "composed outcome columns do not sum to 1"),
    ],
    ids=["channel", "meas", "columns"],
)
def test_experiment_compose_rejects_chains_that_do_not_fit(channel, effects, match):
    mm = measurement_map([p / 2 for p in SIC.projectors], SIC)
    if effects is not None:
        mm = measurement_map(effects, load_d3())
    scheme = ExperimentScheme(prep=np.full((4, 1), 0.25), channels=(channel,), meas=mm)
    with pytest.raises(ValueError, match=match):
        experiment_compose(scheme)


def test_negativity_rejects_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="square matrix"):
        negativity(np.ones((2, 3)))


def test_experiment_compose_warns_on_negative_outcome():
    # a non-quantum prep vector pushed through a valid chain can go negative
    bad = np.array([[1.5], [-0.5], [0.0], [0.0]])
    mm = measurement_map(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
        SIC,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        experiment_compose(ExperimentScheme(prep=bad, channels=(), meas=mm))
    assert any("negative" in str(w.message).lower() for w in caught)


@pytest.mark.parametrize("entry, warns", [(-2e-9, True), (-5e-10, False)])
def test_experiment_compose_warns_below_minus_1e9(entry, warns):
    # a response that returns the SIC probabilities themselves, so the
    # outcome matrix is the prep column, one entry just past or just
    # inside the warning's tolerance
    prep = np.array([[0.5 - entry], [0.5], [0.0], [entry]])
    identity = MeasurementMap(mmat=np.eye(4), bigm=np.eye(4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        experiment_compose(ExperimentScheme(prep=prep, channels=(), meas=identity))
    assert any("negative" in str(w.message) for w in caught) == warns


def test_delta_quant_on_dissipative_table_matrix():
    # the decoherent channel's generator is classical up to tiny negativity
    from sicprob.measures import _markov_parts

    _, _, h_part, d_proj, _, _ = _markov_parts(S_DECOHERE, SIC)
    val = delta_quant(h_part + d_proj, SIC, OptConfig(restarts=16, seed=22))
    assert val < 0.005
