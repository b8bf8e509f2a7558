"""One benchmark item per workload: JSON in, public ``sicprob`` API, JSON out.

Each item does what the matching CLI verb does between reading its input
file and writing its output, then checks the output against invariants that
are computed here with plain NumPy. A check that fails raises ``CheckFailed``;
the caller counts that item as failed, exactly like an item whose library
call raised.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from inputs import linear_inversion

ANALYZE_RESTARTS = 32  # CLI default for `sicprob analyze`
TOMO_RESTARTS = 8  # CLI default for `sicprob tomo`
QUICK_TOMO_RESTARTS = 2  # `sicprob tomo --restarts 2`: items short enough to repeat
CLI_SEED = 0  # CLI default for --seed

# Tolerances of the invariant checks (absolute, on quantities of order 1).
EXACT_TOL = 1e-9  # round trips and algebraic identities
CPTP_TOL = 1e-7  # same tolerance the library certifies its projections with
# A recorded projection residual or delta_quant may be beaten by any margin,
# but never exceeded by more than this (absolute + relative to the record).
REFERENCE_ABS_TOL = 1e-6
REFERENCE_REL_TOL = 1e-6


class CheckFailed(Exception):
    """An item's output broke one of the benchmark's invariants."""


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Frame:
    """One reference SIC, as the library builds it and as built here."""

    def __init__(self, sic, proj: np.ndarray):
        _require(
            np.abs(sic.projectors - proj).max() < 1e-12,
            "library SIC differs from the benchmark's own construction",
        )
        self.sic = sic
        self.proj = proj
        self.d = d = proj.shape[1]
        eye = np.eye(d)
        self.kmat = np.stack([((d + 1) * p - eye).reshape(-1) for p in proj], axis=1)
        self.kinv = np.stack([p.reshape(-1).conj() / d for p in proj])
        self.unit_basis = self._unit_basis()

    def _unit_basis(self) -> np.ndarray:
        """Orthonormal basis (rows) of the unitary-generator span, flattened."""
        d = self.d
        eye = np.eye(d)
        gens = []
        for a in range(d):
            for b in range(d):
                if (a, b) == (d - 1, d - 1):
                    continue  # the d^2 - 1 traceless directions suffice
                h = np.zeros((d, d), dtype=complex)
                if a < b:
                    h[a, b] = h[b, a] = 1
                elif a > b:
                    h[a, b], h[b, a] = 1j, -1j
                else:
                    h[a, a], h[d - 1, d - 1] = 1, -1
                sup = -1j * (np.kron(h, eye) - np.kron(eye, h.conj()))
                gens.append((self.kinv @ sup @ self.kmat).real.reshape(-1))
        q, _ = np.linalg.qr(np.array(gens).T)
        return q.T

    def superop(self, s: np.ndarray) -> np.ndarray:
        return self.kmat @ s @ self.kinv

    def choi_in_out(self, s: np.ndarray) -> np.ndarray:
        """Choi matrix ``C[(i,a),(j,b)] = Phi(|i><j|)[a,b] / d``."""
        d = self.d
        e = self.superop(s)
        return e.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d) / d

    def check_cptp(self, s: np.ndarray, what: str) -> None:
        """Independent Choi eigencheck: PSD, Hermitian and trace preserving."""
        d = self.d
        choi = self.choi_in_out(s)
        _require(np.abs(choi - choi.conj().T).max() <= CPTP_TOL, f"{what}: Choi not Hermitian")
        min_eig = np.linalg.eigvalsh((choi + choi.conj().T) / 2).min()
        _require(min_eig >= -CPTP_TOL, f"{what}: Choi eigenvalue {min_eig:.3e}")
        tr_out = np.einsum("iaja->ij", choi.reshape(d, d, d, d))
        _require(np.abs(tr_out - np.eye(d) / d).max() <= CPTP_TOL, f"{what}: not trace preserving")

    def unit_projection(self, m: np.ndarray) -> np.ndarray:
        q = self.unit_basis
        return (q.T @ (q @ m.reshape(-1))).reshape(m.shape)


def _negativity(m: np.ndarray) -> float:
    off = m - np.diag(np.diag(m))
    return max(0.0, -float(off.min()))


def _real_log(s: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eig(s)
    return (v @ np.diag(np.log(w.astype(complex))) @ np.linalg.inv(v)).real


def _matches(a, b, tol: float = EXACT_TOL) -> bool:
    a = np.asarray(a)
    return a.shape == np.shape(b) and bool(np.abs(a - b).max() <= tol * max(1.0, np.abs(a).max()))


def check_analysis(an, s_matrix: np.ndarray, frame: Frame, what: str) -> dict:
    """Invariants of one ``EvolutionAnalysis``; returns its scored values."""
    for name in ("log", "h_part", "d_part"):
        _require(np.all(np.isfinite(getattr(an, name))), f"{what}: {name} not finite")
    _require(_matches(an.h_part + an.d_part, an.log), f"{what}: h_part + d_part != log")
    _require(_matches(frame.unit_projection(an.h_part), an.h_part), f"{what}: h_part not unitary")
    _require(
        _matches(frame.unit_projection(an.d_part), np.zeros_like(an.d_part)),
        f"{what}: d_part not orthogonal to the unitary span",
    )
    s_mark = an.mark.s_mark
    _require(_matches(s_mark.sum(axis=0), np.ones(len(s_mark)), 1e-8), f"{what}: s_mark columns")
    fitted = _real_log(s_mark)  # h_part + dissipative fit
    dq = an.quant.value
    _require(math.isfinite(dq) and dq >= 0.0, f"{what}: delta_quant {dq!r} negative or not finite")
    _require(
        dq <= _negativity(fitted) + 1e-8,
        f"{what}: delta_quant above the fitted generator's negativity",
    )
    nmark = math.sqrt(float(np.sum((s_matrix - s_mark) ** 2))) / len(s_matrix)
    _require(abs(an.mark.delta_nmark - nmark) <= 1e-9, f"{what}: delta_nmark disagrees with s_mark")
    residual = an.markov_residual
    _require(0.0 <= residual < math.inf, f"{what}: markov_residual {residual!r}")
    return {"delta_quant": float(dq), "markov_residual": float(an.markov_residual)}


def check_reference(values: dict, recorded: dict | None) -> None:
    """Scored values of a passed item may improve on the record, never worsen."""
    if recorded is None or "error" in recorded:
        return  # nothing recorded, or the recording commit raised here
    for key, ref in recorded.items():
        tol = REFERENCE_ABS_TOL + REFERENCE_REL_TOL * abs(ref)
        _require(values[key] <= ref + tol, f"{key} {values[key]!r} worse than recorded {ref!r}")


def _rows(m) -> list[list[float]]:
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


class Runner:
    """Items of each workload against the imported library.

    ``run_*`` is the timed library path, as the CLI verb does it: decode the
    JSON input, call the public API, encode the JSON output. ``check_*``
    runs after the clock stops and returns the item's scored values.
    """

    def __init__(self, sp, frames: dict[int, Frame]):
        self.sp = sp
        self.ser = sp.serialize
        self.frames = frames

    def item_fns(self, workload: str):
        return {
            "convert": (self.run_convert, self.check_convert),
            "analyze_d2": (self.run_analyze, self.check_analyze),
            "tomo_d2": (self.run_tomo, self.check_tomo),
            "tomo_d2_r2": (
                functools.partial(self.run_tomo, restarts=QUICK_TOMO_RESTARTS),
                self.check_tomo,
            ),
            "tomo_d3": (self.run_tomo, self.check_tomo),
        }[workload]

    def run_convert(self, text: str) -> list[dict]:
        return [self._convert(obj) for obj in json.loads(text)]

    def _convert(self, obj: dict) -> dict:
        sp, ser = self.sp, self.ser
        frame = self.frames[obj["dim"]]
        sic, d = frame.sic, frame.d
        # density matrix -> probability vector -> density matrix
        _, rho = ser.load_density(obj["state"])
        p = sp.state_to_prob(rho, sic)
        p_text = json.dumps(ser.dump_prob_vector(p, d))
        _, p_in = ser.load_prob_vector(json.loads(p_text))
        member = sp.qplex_membership(p_in, sic)
        rho_back = sp.prob_to_state(p_in, sic)
        rho_text = json.dumps(ser.dump_density(rho_back, d))
        # Kraus channel -> pseudostochastic matrix -> Choi -> matrix
        d_in, d_out, kraus = ser.load_kraus_channel(obj["channel"])
        s = sp.kraus_to_pstoch(kraus, sic, sic)
        ok, _ = sp.is_cptp(s, sic, sic)
        choi = sp.pstoch_to_choi(s, sic, sic)
        s_back = sp.choi_to_pstoch(choi, sic, sic)
        s_text = json.dumps(ser.dump_pstoch(s, d_in, d_out))
        return {
            "rho": rho, "p": p, "member": member, "rho_back": rho_back, "rho_text": rho_text,
            "kraus": kraus, "s": s, "ok": ok, "choi": choi, "s_back": s_back, "s_text": s_text,
        }  # fmt: skip

    def check_convert(self, text: str, results: list[dict]) -> dict:
        objs = json.loads(text)
        _require(len(results) == len(objs), "one conversion per input")
        for obj, r in zip(objs, results):
            self._check_convert(self.frames[obj["dim"]], r)
        return {}

    def _check_convert(self, frame: Frame, r: dict) -> None:
        own_p = np.einsum("ab,iba->i", r["rho"], frame.proj).real / frame.d
        _require(_matches(r["p"], own_p), "state_to_prob disagrees with the trace formula")
        _require(r["member"], "a state's own vector failed qplex_membership")
        _require(_matches(r["rho_back"], r["rho"]), "state round trip")
        pairs = np.array(json.loads(r["rho_text"])["matrix"])
        rho_json = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(frame.d, frame.d)
        _require(_matches(rho_json, r["rho_back"], 0.0), "density JSON round trip")
        s = r["s"]
        e = sum(np.kron(a, a.conj()) for a in r["kraus"])
        _require(_matches(s, (frame.kinv @ e @ frame.kmat).real), "kraus_to_pstoch vs trace rule")
        _require(r["ok"], "is_cptp rejected a Kraus channel")
        frame.check_cptp(s, "kraus_to_pstoch")
        _require(_matches(r["choi"], frame.choi_in_out(s)), "pstoch_to_choi vs own Choi")
        _require(_matches(r["s_back"], s), "Choi round trip")
        s_json = np.array(json.loads(r["s_text"])["matrix"])
        _require(_matches(s_json, s, 0.0), "pstoch JSON round trip")

    def run_analyze(self, text: str):
        sp, ser = self.sp, self.ser
        d_in, _, s = ser.load_pstoch(json.loads(text))
        frame = self.frames[d_in]
        opt = sp.OptConfig(restarts=ANALYZE_RESTARTS, seed=CLI_SEED)
        an = sp.analyze_evolution(s, frame.sic, opt)
        return s, an, json.dumps(self._analysis_dict(an, frame))

    def check_analyze(self, text: str, result) -> dict:
        s, an, out = result
        values = check_analysis(an, s, self.frames[math.isqrt(s.shape[0])], "analysis")
        _require(json.loads(out)["delta_quant"]["delta_quant"] == an.quant.value, "output JSON")
        return values

    def run_tomo(self, text: str, restarts: int = TOMO_RESTARTS):
        sp, ser = self.sp, self.ser
        obj = json.loads(text)
        counts_cal = ser.load_counts(obj["cal"])
        counts_main = ser.load_counts(obj["main"])
        frame = self.frames[counts_main.dim]
        opt = sp.OptConfig(restarts=restarts, seed=CLI_SEED)
        rep = sp.run_pipeline(counts_main, counts_cal, frame.sic, opt)
        out = json.dumps(
            {
                "shots": rep.shots,
                "per_entry_error": rep.main.per_entry_error,
                "sic": sp.fingerprint(frame.sic),
                "s_cal_raw": _rows(rep.cal.s_raw),
                "s_cal": _rows(rep.cal.s_cptp),
                "s_main_raw": _rows(rep.main.s_raw),
                "s_main": _rows(rep.main.s_cptp),
                "s_u": _rows(rep.s_u),
                "analysis_u": self._analysis_dict(rep.analysis_u, frame),
                "analysis_cal": self._analysis_dict(rep.analysis_cal, frame),
                "meta": {"cal": rep.cal.meta, "main": rep.main.meta},
            }
        )
        return rep, out

    def check_tomo(self, text: str, result) -> dict:
        rep, out = result
        obj = json.loads(text)
        frame = self.frames[obj["main"]["dim"]]
        values = {}
        for name, r in (("cal", rep.cal), ("main", rep.main)):
            counts = np.array(obj[name]["counts"])
            own_raw = linear_inversion(counts, frame.proj, obj[name]["shots"])
            _require(_matches(r.s_raw, own_raw), f"{name}: raw reconstruction")
            frame.check_cptp(r.s_cptp, f"{name} projection")
            dist = math.sqrt(float(np.sum((r.s_raw - r.s_cptp) ** 2)))
            _require(abs(r.meta["cptp_distance"] - dist) <= 1e-9, f"{name}: cptp_distance")
            values[f"{name}_cptp_distance"] = dist
        frame.check_cptp(rep.s_u, "calibrated process")
        analyses = (("u", rep.analysis_u, rep.s_u), ("cal", rep.analysis_cal, rep.cal.s_cptp))
        for name, an, s in analyses:
            for key, v in check_analysis(an, s, frame, f"analysis_{name}").items():
                values[f"{name}_{key}"] = v
        _require(np.array(json.loads(out)["s_u"]).shape == (frame.d**2,) * 2, "output JSON")
        return values

    def _analysis_dict(self, an, frame: Frame) -> dict:
        return {
            "dim": frame.d,
            "sic": self.sp.fingerprint(frame.sic),
            "log": _rows(an.log),
            "h_part": _rows(an.h_part),
            "d_part": _rows(an.d_part),
            "delta_quant": self.ser.dump_quant_report(an.quant),
            "delta_nmark": self.ser.dump_markov_report(an.mark),
            "markov_residual": float(an.markov_residual),
        }
