"""Command-line interface: convert, analyze and tomo verbs with JSON I/O.

Exit codes: 0 success, 2 malformed input or bad arguments, 3 physically
invalid quantum objects, 4 numerical-domain failures (matrix-log branch
problems, singular calibrations), 5 optimizer non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ._optim import OptConfig
from .channels import kraus_to_pstoch
from .errors import NumericalDomainError, OptimizerError, PhysicalityError
from .measures import analyze_evolution
from .sic import SicPovm, builtin_qubit, fingerprint, from_fiducial
from .serialize import (
    _floats,
    dump_density,
    dump_markov_report,
    dump_prob_vector,
    dump_pstoch,
    dump_quant_report,
    load_counts,
    load_density,
    load_fiducial,
    load_kraus_channel,
    load_prob_vector,
    load_pstoch,
)
from .states import prob_to_state, qplex_membership, state_to_prob
from .tomography import run_pipeline

EXIT_INPUT = 2
EXIT_PHYSICALITY = 3
EXIT_NUMERICAL = 4
EXIT_OPTIMIZER = 5


def _load_sic(spec: str) -> SicPovm:
    if spec == "builtin-qubit":
        return builtin_qubit()
    if spec.startswith("fiducial:"):
        path = spec[len("fiducial:") :]
        with open(path, encoding="utf-8") as fh:
            return from_fiducial(load_fiducial(json.load(fh)))
    raise ValueError(f"--sic must be 'builtin-qubit' or 'fiducial:PATH', got {spec!r}")


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path} does not contain a JSON object")
    return obj


def _emit(result: dict, out_path: str | None, table: str) -> None:
    text = json.dumps(result, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(table, end="")
    else:
        print(text)


def _fmt_matrix(name: str, m: np.ndarray) -> str:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    lines = [f"{name}:"]
    for row in m:
        lines.append("  " + "  ".join(f"{x:7.3f}" for x in row))
    return "\n".join(lines) + "\n"


def _csv_blocks(path: str, named: list[tuple[str, np.ndarray]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("matrix,row,col,value\n")
        for name, m in named:
            m = np.atleast_2d(np.asarray(m, dtype=float))
            for i, row in enumerate(m):
                for j, x in enumerate(row):
                    fh.write(f"{name},{i},{j},{float(x)!r}\n")


def _cmd_convert(args) -> int:
    if not 0.0 <= args.tol < float("inf"):
        raise ValueError(f"--tol must be a finite nonnegative number, got {args.tol!r}")
    sic = _load_sic(args.sic)
    obj = _read_json(args.input)
    if "kraus" in obj:
        d_in, d_out, kraus = load_kraus_channel(obj)
        if d_in != sic.dim or d_out != sic.dim:
            raise ValueError(
                f"channel is {d_out}x{d_in} but the SIC has dimension {sic.dim}"
            )
        s_matrix = kraus_to_pstoch(kraus, sic, sic)
        _emit(
            dump_pstoch(s_matrix, d_in, d_out),
            args.out,
            _fmt_matrix("pseudostochastic matrix", s_matrix),
        )
        return 0
    if "probs" in obj:
        d, p = load_prob_vector(obj)
        if d != sic.dim:
            raise ValueError(f"probability vector is d={d} but the SIC is d={sic.dim}")
        if not qplex_membership(p, sic, tol=args.tol):
            raise PhysicalityError(
                "probability vector is not a valid state distribution (qplex test failed)"
            )
        rho = prob_to_state(p, sic)
        _emit(dump_density(rho, d), args.out, _fmt_matrix("density matrix (real part)", rho.real))
        return 0
    if "matrix" in obj and "dim" in obj:
        d, rho = load_density(obj)
        if d != sic.dim:
            raise ValueError(f"state is d={d} but the SIC is d={sic.dim}")
        p = state_to_prob(rho, sic)
        _emit(
            dump_prob_vector(p, d),
            args.out,
            _fmt_matrix("probability vector", p[None, :]),
        )
        return 0
    raise ValueError(
        "unrecognized input schema: expected a density matrix, probability vector "
        "or Kraus channel object"
    )


def _analysis_dict(analysis, dim: int, sic: SicPovm) -> dict:
    return {
        "dim": dim,
        "sic": fingerprint(sic),
        "log": _floats(analysis.log),
        "h_part": _floats(analysis.h_part),
        "d_part": _floats(analysis.d_part),
        "delta_quant": dump_quant_report(analysis.quant),
        "delta_nmark": dump_markov_report(analysis.mark),
        "markov_residual": float(analysis.markov_residual),
    }


def _cmd_analyze(args) -> int:
    sic = _load_sic(args.sic)
    d_in, d_out, s_matrix = load_pstoch(_read_json(args.input))
    if d_in != d_out:
        raise ValueError("analysis requires a square channel (equal dimensions)")
    if d_in != sic.dim:
        raise ValueError(f"matrix is d={d_in} but the SIC is d={sic.dim}")
    opt = OptConfig(restarts=args.restarts, seed=args.seed)
    analysis = analyze_evolution(s_matrix, sic, opt)
    result = _analysis_dict(analysis, d_in, sic)
    table = (
        _fmt_matrix("generator", analysis.log)
        + _fmt_matrix("unitary part", analysis.h_part)
        + _fmt_matrix("dissipative part", analysis.d_part)
        + f"delta_quant: {analysis.quant.value:.3f}\n"
        + f"delta_nmark: {analysis.mark.delta_nmark:.3f}\n"
        + f"markov_residual: {analysis.markov_residual:.3f}\n"
    )
    _emit(result, args.out, table)
    if args.csv:
        _csv_blocks(
            args.csv,
            [
                ("log", analysis.log),
                ("h_part", analysis.h_part),
                ("d_part", analysis.d_part),
                ("s_mark", analysis.mark.s_mark),
            ],
        )
    return 0


def _cmd_tomo(args) -> int:
    sic = _load_sic(args.sic)
    counts_cal = load_counts(_read_json(args.cal))
    counts_main = load_counts(_read_json(args.main))
    opt = OptConfig(restarts=args.restarts, seed=args.seed)
    report = run_pipeline(counts_main, counts_cal, sic, opt)
    result = {
        "shots": report.shots,
        "per_entry_error": report.main.per_entry_error,
        "sic": fingerprint(sic),
        "s_cal_raw": _floats(report.cal.s_raw),
        "s_cal": _floats(report.cal.s_cptp),
        "s_main_raw": _floats(report.main.s_raw),
        "s_main": _floats(report.main.s_cptp),
        "s_u": _floats(report.s_u),
        "analysis_u": _analysis_dict(report.analysis_u, counts_main.dim, sic),
        "analysis_cal": _analysis_dict(report.analysis_cal, counts_main.dim, sic),
        "meta": {
            "cal": report.cal.meta,
            "main": report.main.meta,
        },
    }
    table = (
        _fmt_matrix("calibrated process", report.s_u)
        + _fmt_matrix("calibration channel", report.cal.s_cptp)
        + f"per-entry error: {report.main.per_entry_error:.3f}\n"
        + f"delta_quant (process generator): {report.analysis_u.quant.value:.3f}\n"
        + f"delta_nmark (process): {report.analysis_u.mark.delta_nmark:.3f}\n"
        + f"delta_nmark (calibration): {report.analysis_cal.mark.delta_nmark:.3f}\n"
    )
    _emit(result, args.out, table)
    if args.csv:
        _csv_blocks(
            args.csv,
            [
                ("s_cal_raw", report.cal.s_raw),
                ("s_cal", report.cal.s_cptp),
                ("s_main_raw", report.main.s_raw),
                ("s_main", report.main.s_cptp),
                ("s_u", report.s_u),
                ("h_u", report.analysis_u.h_part),
                ("d_u", report.analysis_u.d_part),
                ("h_cal", report.analysis_cal.h_part),
                ("d_cal", report.analysis_cal.d_part),
            ],
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sicprob",
        description="Quantum states, channels and dynamics in the SIC probability representation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--sic": dict(
            default="builtin-qubit",
            help="reference SIC: 'builtin-qubit' or 'fiducial:PATH' (JSON fiducial vector)",
        ),
        "--seed": dict(type=int, default=0, help="base seed for all optimizers"),
        "--tol": dict(type=float, default=1e-9, help="tolerance for physicality checks"),
        "--restarts": dict(type=int, help="optimizer restarts (analyze: 32, tomo: 8)"),
        "--out": dict(default=None, help="write JSON here instead of stdout"),
        "--csv": dict(default=None, help="also write matrices as long-format CSV"),
    }

    def add_options(p: argparse.ArgumentParser, *names: str) -> None:
        for name in names:
            p.add_argument(name, **options[name])

    p_convert = sub.add_parser(
        "convert", help="convert states and channels to or from probability form"
    )
    p_convert.add_argument("input", help="JSON file: density matrix, prob vector or Kraus channel")
    add_options(p_convert, "--sic", "--tol", "--out")
    p_convert.set_defaults(fn=_cmd_convert)

    p_analyze = sub.add_parser(
        "analyze", help="extract the generator of a channel matrix and score it"
    )
    p_analyze.add_argument("input", help="JSON file: pseudostochastic matrix")
    add_options(p_analyze, "--sic", "--seed", "--restarts", "--out", "--csv")
    p_analyze.set_defaults(fn=_cmd_analyze, restarts=32)

    p_tomo = sub.add_parser("tomo", help="reconstruct a process from two counts files")
    p_tomo.add_argument("--main", required=True, help="counts JSON for the full chain")
    p_tomo.add_argument("--cal", required=True, help="counts JSON for the calibration chain")
    add_options(p_tomo, "--sic", "--seed", "--restarts", "--out", "--csv")
    p_tomo.set_defaults(fn=_cmd_tomo, restarts=8)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PhysicalityError as exc:
        print(f"physicality violation: {exc}", file=sys.stderr)
        return EXIT_PHYSICALITY
    except (NumericalDomainError, np.linalg.LinAlgError) as exc:
        print(f"numerical-domain failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OptimizerError as exc:
        print(f"optimizer failure: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
