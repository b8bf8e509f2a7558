import json
import subprocess
import sys

import numpy as np
import pytest

from sicprob.channels import kraus_to_pstoch
from sicprob.cli import main
from sicprob.serialize import (
    dump_counts,
    dump_density,
    dump_kraus_channel,
    dump_prob_vector,
    dump_pstoch,
)
from sicprob.sic import builtin_qubit
from sicprob.states import state_to_prob
from sicprob.tomography import simulate_counts

from fixtures import S_GATE_QUBIT, S_TRANSPOSE_QUBIT, random_density

SIC = builtin_qubit()


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_convert_density_to_probs(tmp_path, capsys):
    rng = np.random.default_rng(131)
    rho = random_density(rng, 2)
    path = write(tmp_path, "state.json", dump_density(rho, 2))
    code, out, _ = run_main(capsys, ["convert", path])
    assert code == 0
    obj = json.loads(out)
    expected = state_to_prob(rho, SIC)
    assert np.abs(np.array(obj["probs"]) - expected).max() < 1e-12


def test_convert_probs_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(132)
    rho = random_density(rng, 2)
    p = state_to_prob(rho, SIC)
    path = write(tmp_path, "probs.json", dump_prob_vector(p, 2))
    code, out, _ = run_main(capsys, ["convert", path])
    assert code == 0
    obj = json.loads(out)
    flat = np.array(obj["matrix"])
    recon = np.array([complex(a, b) for a, b in flat]).reshape(2, 2)
    assert np.abs(recon - rho).max() < 1e-9


def test_convert_kraus_channel(tmp_path, capsys):
    kraus = [np.diag([1.0, 1j])]
    path = write(tmp_path, "chan.json", dump_kraus_channel(kraus, 2, 2))
    code, out, _ = run_main(capsys, ["convert", path])
    assert code == 0
    obj = json.loads(out)
    got = np.array(obj["matrix"])
    assert np.abs(got - S_GATE_QUBIT).max() < 1e-12


def test_convert_writes_file_and_prints_table(tmp_path, capsys):
    rng = np.random.default_rng(133)
    rho = random_density(rng, 2)
    path = write(tmp_path, "state.json", dump_density(rho, 2))
    out_path = tmp_path / "out.json"
    code, out, _ = run_main(capsys, ["convert", path, "--out", str(out_path)])
    assert code == 0
    assert out_path.exists()
    json.loads(out_path.read_text())
    assert "probability vector" in out


def test_convert_rejects_unknown_schema(tmp_path, capsys):
    path = write(tmp_path, "junk.json", {"whatever": 1})
    code, _, err = run_main(capsys, ["convert", path])
    assert code == 2
    assert "input error" in err


def test_convert_rejects_nonphysical_state(tmp_path, capsys):
    bad = np.diag([1.5, -0.5]).astype(complex)
    path = write(tmp_path, "bad.json", dump_density(bad, 2))
    code, _, err = run_main(capsys, ["convert", path])
    assert code == 3
    assert "physicality" in err


def test_convert_rejects_nonquantum_probs(tmp_path, capsys):
    path = write(
        tmp_path, "p.json", dump_prob_vector(np.array([1.0, 0.0, 0.0, 0.0]), 2)
    )
    code, _, err = run_main(capsys, ["convert", path])
    assert code == 3


def test_convert_rejects_probs_that_do_not_sum_to_one(tmp_path, capsys):
    # the flat vector scaled to sum 4 rebuilds 5 I: positive, but trace 10
    path = write(tmp_path, "p.json", {"dim": 2, "probs": [1, 1, 1, 1]})
    code, out, err = run_main(capsys, ["convert", path])
    assert code == 3
    assert out == ""
    assert "physicality" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_convert_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tmp_path, capsys, tol):
    # the uniform vector is a valid state: nan and -1 used to reject it
    # (exit 3), inf to accept any vector
    path = write(tmp_path, "p.json", dump_prob_vector(np.full(4, 0.25), 2))
    code, out, err = run_main(capsys, ["convert", path, "--tol", tol])
    assert code == 2
    assert out == ""
    assert "input error" in err and "--tol" in err


@pytest.mark.parametrize(
    "verb, option",
    [("convert", "--csv"), ("convert", "--seed"), ("convert", "--restarts"),
     ("analyze", "--tol"), ("tomo", "--tol")],
)  # fmt: skip
def test_each_verb_rejects_options_it_does_not_read(tmp_path, verb, option):
    csv_path = tmp_path / "out.csv"
    value = str(csv_path) if option == "--csv" else "1"
    path = write(tmp_path, "in.json", dump_prob_vector(np.full(4, 0.25), 2))
    args = ["--main", path, "--cal", path] if verb == "tomo" else [path]
    with pytest.raises(SystemExit) as exc:
        main([verb, *args, option, value])
    assert exc.value.code == 2
    assert not csv_path.exists()


@pytest.mark.parametrize("kind", ["kraus", "density", "probs"])
def test_convert_nonfinite_input_is_input_error(tmp_path, capsys, kind):
    # json writes the NaN as a bare NaN token and reads it back. Before the
    # finite checks the Kraus and density files exited 0 with an all-NaN
    # result, and the probabilities exited 3 (physicality).
    if kind == "kraus":
        obj = dump_kraus_channel([np.diag([1.0, 1j])], 2, 2)
        obj["kraus"][0][3][1] = float("nan")
    elif kind == "density":
        obj = dump_density(np.eye(2) / 2, 2)
        obj["matrix"][0][0] = float("nan")
    else:
        obj = dump_prob_vector(np.full(4, 0.25), 2)
        obj["probs"][1] = float("nan")
    path = write(tmp_path, f"{kind}.json", obj)
    assert "NaN" in open(path, encoding="utf-8").read()
    code, out, err = run_main(capsys, ["convert", path])
    assert code == 2
    assert out == ""
    assert "input error" in err and "non-finite" in err


def test_convert_string_and_boolean_entries_are_input_errors(tmp_path, capsys):
    # both used to decode as numbers: "0.25" as 0.25 and true as 1
    obj = dump_prob_vector(np.full(4, 0.25), 2)
    obj["probs"] = ["0.25", 0.25, True, 0.5]
    path = write(tmp_path, "probs.json", obj)
    code, out, err = run_main(capsys, ["convert", path])
    assert code == 2
    assert out == ""
    assert "input error" in err and "'probs' entries must be numbers" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run_main(capsys, ["convert", "/nonexistent/nope.json"])
    assert code == 2


def test_analyze_phase_gate(tmp_path, capsys):
    path = write(tmp_path, "sgate.json", dump_pstoch(S_GATE_QUBIT, 2, 2))
    code, out, _ = run_main(
        capsys, ["analyze", path, "--seed", "5", "--restarts", "6"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 2
    assert set(obj) >= {
        "log",
        "h_part",
        "d_part",
        "delta_quant",
        "delta_nmark",
        "markov_residual",
    }
    assert obj["delta_nmark"]["delta_nmark"] < 1e-6
    assert obj["markov_residual"] < 1e-6
    assert np.abs(np.array(obj["d_part"])).max() < 1e-6
    assert obj["delta_quant"]["delta_quant"] >= 0
    assert len(obj["delta_quant"]["argmax_lambda"]) == 3


def test_analyze_deterministic_given_seed(tmp_path, capsys):
    path = write(tmp_path, "sgate.json", dump_pstoch(S_GATE_QUBIT, 2, 2))
    argv = ["analyze", path, "--seed", "9", "--restarts", "4"]
    code1, out1, _ = run_main(capsys, argv)
    code2, out2, _ = run_main(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_analyze_branch_failure_is_numerical_error(tmp_path, capsys):
    path = write(tmp_path, "st.json", dump_pstoch(S_TRANSPOSE_QUBIT, 2, 2))
    code, _, err = run_main(capsys, ["analyze", path])
    assert code == 4
    assert "numerical" in err


def test_analyze_zero_restarts_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "sgate.json", dump_pstoch(S_GATE_QUBIT, 2, 2))
    code, _, err = run_main(capsys, ["analyze", path, "--restarts", "0"])
    assert code == 2
    assert "restarts" in err


@pytest.mark.parametrize("defect", ["nan", "inf", "shape", "dim_out", "dim"])
def test_analyze_malformed_matrix_is_input_error(tmp_path, capsys, defect):
    obj = dump_pstoch(S_GATE_QUBIT, 2, 2)
    if defect in ("nan", "inf"):
        obj["matrix"][1][2] = float(defect)
    elif defect == "shape":
        obj["matrix"] = obj["matrix"][:3]
    elif defect == "dim_out":  # a 3 x 2 channel: well formed, not square
        obj = dump_pstoch(np.full((9, 4), 1 / 9), 2, 3)
    else:  # a qutrit matrix for the qubit SIC
        obj = dump_pstoch(np.eye(9), 3, 3)
    path = write(tmp_path, "m.json", obj)
    code, out, err = run_main(capsys, ["analyze", path])
    assert (code, out) == (2, "")
    assert "input error" in err


@pytest.mark.parametrize("record", ["main", "cal"])
@pytest.mark.parametrize("defect", ["nan", "inf", "shape", "dim"])
def test_tomo_malformed_counts_are_input_error(tmp_path, capsys, record, defect):
    objs = {
        name: dump_counts(simulate_counts(S_GATE_QUBIT, SIC, shots=64, seed=seed))
        for name, seed in (("main", 83), ("cal", 84))
    }
    bad = objs[record]
    if defect in ("nan", "inf"):
        bad["counts"][1][2] = float(defect)
    elif defect == "shape":
        bad["counts"] = bad["counts"][:3]
    else:  # a well-formed qutrit record beside a qubit one, for the qubit SIC
        bad.update(dim=3, counts=(np.eye(9, dtype=int) * 64).tolist())
    paths = {name: write(tmp_path, f"{name}.json", obj) for name, obj in objs.items()}
    code, out, err = run_main(capsys, ["tomo", "--main", paths["main"], "--cal", paths["cal"]])
    assert (code, out) == (2, "")
    assert "input error" in err


def test_optimizer_failure_maps_to_exit_5(tmp_path, capsys, monkeypatch):
    import sicprob.cli as cli_mod
    from sicprob.errors import OptimizerError

    def fail(*args, **kwargs):
        raise OptimizerError("forced non-convergence")

    monkeypatch.setattr(cli_mod, "analyze_evolution", fail)
    path = write(tmp_path, "sgate.json", dump_pstoch(S_GATE_QUBIT, 2, 2))
    code, _, err = run_main(capsys, ["analyze", path])
    assert code == 5
    assert "optimizer" in err


def test_tomo_end_to_end(tmp_path, capsys):
    gamma = 0.1
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    s_dec = kraus_to_pstoch([a0, a1], SIC, SIC)
    s_chain = s_dec @ S_GATE_QUBIT
    cal = simulate_counts(s_dec, SIC, shots=1024, seed=81)
    mainc = simulate_counts(s_chain, SIC, shots=1024, seed=82)
    cal_path = write(tmp_path, "cal.json", dump_counts(cal))
    main_path = write(tmp_path, "main.json", dump_counts(mainc))
    csv_path = tmp_path / "matrices.csv"
    out_path = tmp_path / "report.json"
    code, out, _ = run_main(
        capsys,
        [
            "tomo",
            "--main",
            main_path,
            "--cal",
            cal_path,
            "--restarts",
            "1",
            "--seed",
            "3",
            "--out",
            str(out_path),
            "--csv",
            str(csv_path),
        ],
    )
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["shots"] == 1024
    assert obj["per_entry_error"] == pytest.approx(1 / 32)
    s_u = np.array(obj["s_u"])
    assert np.abs(s_u - S_GATE_QUBIT).max() < 5 / 32
    assert "analysis_u" in obj and "analysis_cal" in obj
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "matrix,row,col,value"
    assert any(line.startswith("s_u,0,0,") for line in lines)
    for line in lines[1:]:
        float(line.rsplit(",", 1)[1])  # every value cell is a plain number
    assert "calibrated process" in out


def test_tomo_missing_flags_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["tomo"])
    assert exc.value.code == 2


def test_console_script_help_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sicprob.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "convert" in proc.stdout
    assert "analyze" in proc.stdout
    assert "tomo" in proc.stdout
