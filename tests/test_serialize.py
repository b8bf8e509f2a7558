import json

import numpy as np
import pytest

from sicprob.dynamics import Generator, GkslSpec, lgen_from_gksl
from sicprob.measures import DeltaQuantReport, MarkovReport
from sicprob.serialize import (
    decode_complex_matrix,
    dump_counts,
    dump_density,
    dump_fiducial,
    dump_generator,
    dump_gksl,
    dump_kraus_channel,
    dump_markov_report,
    dump_prob_vector,
    dump_pstoch,
    dump_quant_report,
    dump_sic,
    encode_complex_matrix,
    load_counts,
    load_density,
    load_fiducial,
    load_generator,
    load_gksl,
    load_kraus_channel,
    load_prob_vector,
    load_pstoch,
)
from sicprob.sic import Fiducial, builtin_qubit
from sicprob.tomography import CountsRecord

from fixtures import random_density, random_kraus_channel


def test_complex_matrix_codec():
    rng = np.random.default_rng(121)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    enc = encode_complex_matrix(m)
    assert isinstance(enc, list)
    assert np.abs(decode_complex_matrix(enc, 3, 3, "m") - m).max() == 0.0


def test_density_round_trip():
    rng = np.random.default_rng(122)
    rho = random_density(rng, 2)
    obj = dump_density(rho, 2)
    d, back = load_density(obj)
    assert d == 2
    assert np.abs(back - rho).max() < 1e-15


def test_prob_vector_round_trip():
    p = np.array([0.3, 0.3, 0.2, 0.2])
    d, back = load_prob_vector(dump_prob_vector(p, 2))
    assert d == 2
    assert np.abs(back - p).max() == 0.0


def test_kraus_round_trip():
    rng = np.random.default_rng(123)
    kraus = random_kraus_channel(rng, 2, 3)
    d_in, d_out, back = load_kraus_channel(dump_kraus_channel(kraus, 2, 2))
    assert (d_in, d_out) == (2, 2)
    assert len(back) == 3
    for a, b in zip(kraus, back):
        assert np.abs(a - b).max() < 1e-15


def test_kraus_set_decodes_as_one_array(monkeypatch):
    # a well-formed set is read in one conversion with one finite check;
    # the per-operator decoder is left for naming a malformed operator
    import sicprob.serialize as serialize

    rng = np.random.default_rng(124)
    kraus = random_kraus_channel(rng, 3, 4, dim_out=2)
    obj = json.loads(json.dumps(dump_kraus_channel(kraus, 3, 2)))
    per_op = [decode_complex_matrix(a, 2, 3, "k") for a in obj["kraus"]]

    def refuse(*args):
        raise AssertionError("decoded one operator at a time")

    monkeypatch.setattr(serialize, "decode_complex_matrix", refuse)
    d_in, d_out, ops = serialize.load_kraus_channel(obj)
    assert (d_in, d_out) == (3, 2)
    assert len(ops) == 4
    for a, b in zip(per_op, ops, strict=True):
        assert a.shape == b.shape == (2, 3)
        assert a.tobytes() == b.tobytes()


def test_kraus_operators_must_be_lists():
    obj = dump_kraus_channel([np.eye(2)], 2, 2)
    obj["kraus"] = [np.array(obj["kraus"][0])]
    with pytest.raises(ValueError, match=r"'kraus\[0\]' must be a flat list"):
        load_kraus_channel(obj)


def test_pstoch_round_trip():
    rng = np.random.default_rng(124)
    s = rng.standard_normal((4, 4))
    d_in, d_out, back = load_pstoch(dump_pstoch(s, 2, 2))
    assert (d_in, d_out) == (2, 2)
    assert np.abs(back - s).max() == 0.0


def test_gksl_round_trip():
    h = np.array([[0.5, 0.1 - 0.2j], [0.1 + 0.2j, -0.5]])
    v = np.array([[0.0, 0.3], [0.0, 0.0]], dtype=complex)
    spec = GkslSpec(2, h, (v,))
    back = load_gksl(dump_gksl(spec))
    assert back.dim == 2
    assert np.abs(back.hamiltonian - h).max() < 1e-15
    assert len(back.noise_ops) == 1
    assert np.abs(back.noise_ops[0] - v).max() < 1e-15


def test_generator_round_trip_with_parts():
    s = builtin_qubit()
    h = np.diag([0.5, -0.5]).astype(complex)
    v = 0.3 * np.array([[0, 1], [0, 0]], dtype=complex)
    g = lgen_from_gksl(GkslSpec(2, h, (v,)), s)
    back = load_generator(dump_generator(g))
    assert np.abs(back.matrix - g.matrix).max() == 0.0
    assert np.abs(back.h_part - g.h_part).max() == 0.0
    assert np.abs(back.d_part - g.d_part).max() == 0.0


def test_generator_round_trip_without_parts():
    g = Generator(dim=2, matrix=np.eye(4))
    back = load_generator(dump_generator(g))
    assert back.h_part is None
    assert back.d_part is None


def test_counts_round_trip():
    c = CountsRecord(dim=2, shots=100, counts=np.array([[25, 25, 25, 25]] * 4))
    back = load_counts(dump_counts(c))
    assert back.dim == 2
    assert back.shots == 100
    assert np.array_equal(back.counts, c.counts)


def test_fiducial_round_trip():
    from sicprob.sic import Fiducial

    amp = np.array([0.0, 1 / np.sqrt(2), -1 / np.sqrt(2)], dtype=complex)
    obj = dump_fiducial(Fiducial(3, amp))
    fid = load_fiducial(obj)
    assert fid.dim == 3
    assert np.abs(fid.amplitudes - amp).max() == 0.0


def test_sic_export_contains_projectors():
    s = builtin_qubit()
    obj = dump_sic(s)
    assert obj["dim"] == 2
    assert len(obj["projectors"]) == 4


def test_report_dumps():
    q = dump_quant_report(
        DeltaQuantReport(value=0.5, lam=np.zeros(3), restarts_agreeing=4)
    )
    assert q["delta_quant"] == 0.5
    assert q["argmax_lambda"] == [0.0, 0.0, 0.0]
    assert q["restarts_agreeing"] == 4
    m = dump_markov_report(
        MarkovReport(delta_nmark=0.01, s_mark=np.eye(4), log_residual=1e-9)
    )
    assert m["delta_nmark"] == 0.01
    assert len(m["s_mark"]) == 4


def test_schema_errors_name_the_missing_key():
    with pytest.raises(ValueError) as exc:
        load_density({"dim": 2})
    assert "matrix" in str(exc.value)
    with pytest.raises(ValueError) as exc:
        load_prob_vector({"dim": 2})
    assert "probs" in str(exc.value)
    with pytest.raises(ValueError) as exc:
        load_counts({"dim": 2, "shots": 10})
    assert "counts" in str(exc.value)


def test_schema_errors_on_malformed_values():
    with pytest.raises(ValueError):
        load_density({"dim": 2, "matrix": [[1.0, 0.0]]})  # wrong shape
    with pytest.raises(ValueError):
        load_counts(
            {"dim": 2, "shots": -5, "counts": [[1, 1, 1, 1]] * 4}
        )  # bad shots
    with pytest.raises(ValueError):
        load_pstoch({"dim_in": 2, "dim_out": 2, "matrix": "nope"})


def test_load_counts_rejects_fractional_counts():
    # the first row sums to 1025; decoding it as integers would truncate it
    # to [2, 0, 1022, 0], which sums to the 1024 shots
    rows = [[2.5, 0.5, 1022, 0]] + [[1024, 0, 0, 0]] * 3
    with pytest.raises(ValueError, match="'counts'"):
        load_counts({"dim": 2, "shots": 1024, "counts": rows})
    # a count past the int64 range is an input error too, not an OverflowError
    with pytest.raises(ValueError, match="'counts'"):
        load_counts({"dim": 2, "shots": 1024, "counts": [[2**64, 0, 0, 0]] * 4})
    whole = load_counts({"dim": 2, "shots": 1024, "counts": [[1024.0, 0, 0, 0]] * 4})
    assert whole.counts.dtype == np.int64


@pytest.mark.parametrize(
    "load, obj, key",
    [
        (load_density, {"dim": True, "matrix": [[1.0, 0.0]]}, "dim"),
        (load_prob_vector, {"dim": True, "probs": [1.0]}, "dim"),
        (load_pstoch, {"dim_in": True, "dim_out": 1, "matrix": [[1.0]]}, "dim_in"),
        (load_kraus_channel, {"dim_in": 1, "dim_out": True, "kraus": [[[1.0, 0.0]]]}, "dim_out"),
        (load_counts, {"dim": 2, "shots": True, "counts": [[1, 0, 0, 0]] * 4}, "shots"),
        (load_counts, {"dim": 2, "shots": 1, "counts": [[True, 0, 0, 0]] * 4}, "counts"),
    ],
)
def test_json_booleans_are_not_integers(load, obj, key):
    # isinstance(True, int) holds: "shots": true used to run as 1 shot
    with pytest.raises(ValueError, match=f"'{key}'"):
        load(obj)


def old_encode_complex_matrix(m):
    """The per-entry encoder the whole-array one replaced: the reference."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


def old_real_rows(m):
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


# Entries that must survive a JSON round trip bit for bit: signed zeros,
# subnormals and the extremes of the float range.
EDGE_VALUES = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308]


def _edge_matrix(rng, shape, complex_=True):
    m = rng.standard_normal(shape)
    if complex_:
        m = m + 1j * rng.standard_normal(shape)
    flat = m.reshape(-1)
    for k, x in enumerate(EDGE_VALUES):
        if complex_:
            flat[k % flat.size] = complex(x, EDGE_VALUES[-1 - k])
        else:
            flat[k % flat.size] = x
    return m


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _via_json(obj):
    return json.loads(json.dumps(obj))


def test_round_trips_are_bit_exact():
    rng = np.random.default_rng(125)
    for d in (2, 3):
        rho = _edge_matrix(rng, (d, d))
        d_back, back = load_density(_via_json(dump_density(rho, d)))
        assert d_back == d
        assert np.array_equal(back, rho) and _same_bits(back, rho)
        kraus = [_edge_matrix(rng, (d, 2)) for _ in range(3)]
        _, _, ops = load_kraus_channel(_via_json(dump_kraus_channel(kraus, 2, d)))
        assert len(ops) == 3
        for a, b in zip(kraus, ops):
            assert np.array_equal(b, a) and _same_bits(b, a)
        s = _edge_matrix(rng, (d * d, 4), complex_=False)
        _, _, s_back = load_pstoch(_via_json(dump_pstoch(s, 2, d)))
        assert np.array_equal(s_back, s) and _same_bits(s_back, s)
        p = _edge_matrix(rng, (d * d,), complex_=False)
        _, p_back = load_prob_vector(_via_json(dump_prob_vector(p, d)))
        assert np.array_equal(p_back, p) and _same_bits(p_back, p)


def test_encoders_match_the_per_entry_formula():
    rng = np.random.default_rng(126)
    m = _edge_matrix(rng, (3, 3))
    for arr in (m, m.T, m.real, m[::2, ::2], np.array(-0.0 + 0j)):
        ref = old_encode_complex_matrix(arr)
        got = encode_complex_matrix(arr)
        assert got == ref
        assert json.dumps(got) == json.dumps(ref)  # tells -0.0 from 0.0
    s = _edge_matrix(rng, (9, 4), complex_=False)
    assert json.dumps(dump_pstoch(s, 2, 3)["matrix"]) == json.dumps(old_real_rows(s))
    assert json.dumps(dump_pstoch(s.T, 3, 2)["matrix"]) == json.dumps(old_real_rows(s.T))
    p = s[:, 0]
    assert json.dumps(dump_prob_vector(p, 3)["probs"]) == json.dumps([float(x) for x in p])
    rep = MarkovReport(delta_nmark=0.25, s_mark=s[:4], log_residual=0.0)
    assert json.dumps(dump_markov_report(rep)["s_mark"]) == json.dumps(old_real_rows(s[:4]))
    lam = s[0]
    q = dump_quant_report(DeltaQuantReport(value=0.5, lam=lam, restarts_agreeing=1))
    assert json.dumps(q["argmax_lambda"]) == json.dumps([float(x) for x in lam])
    for value in (q["argmax_lambda"][0], dump_pstoch(s, 2, 3)["matrix"][0][0]):
        assert type(value) is float


@pytest.mark.parametrize(
    "entry",
    [[1.0, 0.0, 5.0], [1.0], [], None, {"re": 1.0, "im": 0.0}, {0: 1.0, 1: 0.0}, "10"],
    ids=["three", "one", "empty", "none", "dict", "int-keyed-dict", "string"],
)
def test_decoder_rejects_entries_that_are_not_pairs(entry):
    data = [[1.0, 0.0], entry, [0.0, 0.0], [1.0, 0.0]]
    with pytest.raises(ValueError, match=r"'m' entries must be \[re, im\] pairs"):
        decode_complex_matrix(data, 2, 2, "m")
    # the same entry in every place, so that the list is not ragged
    with pytest.raises(ValueError, match=r"entries must be \[re, im\] pairs"):
        decode_complex_matrix([entry] * 4, 2, 2, "m")
    obj = dump_kraus_channel([np.eye(2)], 2, 2)
    obj["kraus"][0][1] = entry
    with pytest.raises(ValueError, match=r"'kraus\[0\]' entries must be \[re, im\] pairs"):
        load_kraus_channel(obj)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_decoders_reject_nonfinite(bad):
    obj = _via_json(dump_density(np.eye(2) / 2, 2))
    obj["matrix"][3][1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        load_density(json.loads(json.dumps(obj)))  # JSON spells these NaN, Infinity
    obj = dump_kraus_channel([np.eye(2), np.zeros((2, 2))], 2, 2)
    obj["kraus"][1][0][0] = bad
    with pytest.raises(ValueError, match=r"'kraus\[1\]' contains non-finite"):
        load_kraus_channel(obj)
    obj = dump_prob_vector(np.full(4, 0.25), 2)
    obj["probs"][2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        load_prob_vector(obj)
    obj = dump_pstoch(np.eye(4), 2, 2)
    obj["matrix"][1][2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        load_pstoch(obj)
    amp = dump_fiducial(Fiducial(2, np.array([1.0, 0.0])))
    amp["amplitudes"][1][0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        load_fiducial(amp)


# JSON strings and booleans that np.array(..., dtype=float) would read as
# numbers: "0.25" as 0.25, true as 1.
NOT_NUMBERS = ["0.25", True, False]


@pytest.mark.parametrize("leaf", NOT_NUMBERS)
def test_real_array_decoder_rejects_strings_and_booleans(leaf):
    obj = dump_prob_vector(np.full(4, 0.25), 2)
    obj["probs"][1] = leaf
    with pytest.raises(ValueError, match="'probs' entries must be numbers"):
        load_prob_vector(obj)
    with pytest.raises(ValueError, match="'probs' entries must be numbers"):
        load_prob_vector({"dim": 2, "probs": [leaf] * 4})
    obj = dump_pstoch(np.eye(4), 2, 2)
    obj["matrix"][2][3] = leaf
    with pytest.raises(ValueError, match="'matrix' entries must be numbers"):
        load_pstoch(obj)


@pytest.mark.parametrize("leaf", NOT_NUMBERS)
def test_complex_decoder_rejects_strings_and_booleans(leaf):
    data = encode_complex_matrix(np.eye(2))
    data[1][0] = leaf
    with pytest.raises(ValueError, match="'m' entries must be numbers"):
        decode_complex_matrix(data, 2, 2, "m")
    obj = dump_density(np.eye(2) / 2, 2)
    obj["matrix"][0] = [leaf, 0]
    with pytest.raises(ValueError, match="'matrix' entries must be numbers"):
        load_density(obj)
    # the whole-set Kraus decoder hands the set to the per-operator one,
    # which names the operator
    obj = dump_kraus_channel([np.eye(2), np.zeros((2, 2))], 2, 2)
    obj["kraus"][1][3][1] = leaf
    with pytest.raises(ValueError, match=r"'kraus\[1\]' entries must be numbers"):
        load_kraus_channel(obj)


@pytest.mark.parametrize("leaf", ["4", "0", True])
def test_counts_decoder_rejects_strings_and_booleans(leaf):
    rows = [[1024, 0, 0, 0] for _ in range(4)]
    rows[2][1] = leaf
    with pytest.raises(ValueError, match="'counts' entries must be numbers"):
        load_counts({"dim": 2, "shots": 1024, "counts": rows})


def test_decoders_accept_numpy_scalars():
    # a caller's own dict may hold NumPy scalars rather than JSON numbers
    _, p = load_prob_vector({"dim": 1, "probs": [np.float64(1.0)]})
    assert p.tolist() == [1.0]
    rows = [[np.int64(5), 0, 0, 0]] * 4
    assert load_counts({"dim": 2, "shots": 5, "counts": rows}).counts[0, 0] == 5
