"""JSON codecs for every object that crosses the package boundary.

Complex matrices are stored as row-major flat lists of ``[re, im]`` pairs;
real matrices as nested row lists. Decoders validate shape, type and
finiteness (JSON admits ``NaN`` and ``Infinity``) and raise ValueError with
the offending key, leaving physical validation to the constructors they
feed. Both directions convert whole arrays at once; a number is a JSON
number, never a string or a boolean, although NumPy would read both.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from .dynamics import Generator, GkslSpec
from .errors import _require_finite
from .measures import DeltaQuantReport, MarkovReport
from .sic import Fiducial, SicPovm
from .tomography import CountsRecord

__all__ = [
    "encode_complex_matrix",
    "decode_complex_matrix",
    "dump_fiducial",
    "load_fiducial",
    "dump_sic",
    "dump_prob_vector",
    "load_prob_vector",
    "dump_density",
    "load_density",
    "dump_kraus_channel",
    "load_kraus_channel",
    "dump_pstoch",
    "load_pstoch",
    "dump_gksl",
    "load_gksl",
    "dump_generator",
    "load_generator",
    "dump_counts",
    "load_counts",
    "dump_quant_report",
    "dump_markov_report",
]


_JSON_NUMBERS = frozenset((int, float))


def _only_numbers(data, depth: int) -> bool:
    """True iff every leaf ``depth`` lists deep in ``data`` is a number.

    One pass over the leaves' types. JSON numbers decode as ``int`` or
    ``float``; NumPy scalars count too, ``bool`` (an ``int``) does not.
    """
    for _ in range(depth - 1):
        data = itertools.chain.from_iterable(data)
    types = set(map(type, data))
    return types <= _JSON_NUMBERS or all(
        issubclass(t, numbers.Real) and not issubclass(t, bool) for t in types
    )


def _require_numbers(data, depth: int, key: str) -> None:
    if not _only_numbers(data, depth):
        raise ValueError(f"'{key}' entries must be numbers, not strings or booleans")


def encode_complex_matrix(m: np.ndarray) -> list[list[float]]:
    pairs = np.ascontiguousarray(m, dtype=complex).reshape(-1, 1).view(float)
    return pairs.tolist()


def decode_complex_matrix(data, rows: int, cols: int, key: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(f"'{key}' must be a flat list of {rows * cols} [re, im] pairs")
    try:
        pairs = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'{key}' entries must be [re, im] pairs") from exc
    if pairs.shape != (rows * cols, 2):
        raise ValueError(f"'{key}' entries must be [re, im] pairs")
    _require_numbers(data, 2, key)
    _require_finite(pairs, f"'{key}'")
    return pairs.view(complex).reshape(rows, cols)


def _real_array(data, shape: tuple[int, ...], key: str) -> np.ndarray:
    try:
        m = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'{key}' must be a (nested) list of numbers") from exc
    if m.shape != shape:
        raise ValueError(f"'{key}' has shape {m.shape}, expected {shape}")
    _require_numbers(data, len(shape), key)
    _require_finite(m, f"'{key}'")
    return m


def _floats(m: np.ndarray) -> list:
    """A real array as (nested) lists of Python floats."""
    return np.asarray(m, dtype=float).tolist()


def _require_shape(a, shape: tuple[int, ...], key: str) -> None:
    """Raise ValueError naming ``key`` unless ``a`` has ``shape``, so that no
    writer returns an object its loader rejects."""
    if np.shape(a) != shape:
        raise ValueError(f"'{key}' has shape {np.shape(a)}, expected {shape}")


def _positive_int(obj: dict, key: str) -> int:
    """``obj[key]``, which must be a positive integer: JSON's ``true`` is not one."""
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ValueError(f"'{key}' must be a positive integer")
    return v


def dump_fiducial(f: Fiducial) -> dict:
    d = len(f.amplitudes)
    _require_shape(f.amplitudes, (d,), "amplitudes")
    return {"dim": d, "amplitudes": encode_complex_matrix(f.amplitudes)}


def load_fiducial(obj: dict) -> Fiducial:
    d = _positive_int(obj, "dim")
    amps = obj.get("amplitudes")
    if not isinstance(amps, list) or len(amps) != d:
        raise ValueError(f"'amplitudes' must list {d} [re, im] pairs")
    vec = decode_complex_matrix(amps, d, 1, "amplitudes").reshape(d)
    return Fiducial(vec)


def dump_sic(s: SicPovm) -> dict:
    return {
        "dim": int(s.dim),
        "projectors": [encode_complex_matrix(p) for p in s.projectors],
    }


def dump_prob_vector(p: np.ndarray, dim: int) -> dict:
    _require_shape(p, (dim * dim,), "probs")
    return {"dim": int(dim), "probs": _floats(p)}


def load_prob_vector(obj: dict) -> tuple[int, np.ndarray]:
    d = _positive_int(obj, "dim")
    probs = obj.get("probs")
    if not isinstance(probs, list) or len(probs) != d * d:
        raise ValueError(f"'probs' must list {d * d} numbers")
    return d, _real_array(probs, (d * d,), "probs")


def dump_density(rho: np.ndarray, dim: int) -> dict:
    _require_shape(rho, (dim, dim), "matrix")
    return {"dim": int(dim), "matrix": encode_complex_matrix(rho)}


def load_density(obj: dict) -> tuple[int, np.ndarray]:
    d = _positive_int(obj, "dim")
    return d, decode_complex_matrix(obj.get("matrix"), d, d, "matrix")


def dump_kraus_channel(kraus: list[np.ndarray]) -> dict:
    try:
        [(d_out, d_in)] = {np.shape(a) for a in kraus}
    except ValueError:
        raise ValueError("'kraus' must be a non-empty list of matrices of one shape") from None
    return {
        "dim_in": d_in,
        "dim_out": d_out,
        "kraus": [encode_complex_matrix(a) for a in kraus],
    }


def load_kraus_channel(obj: dict) -> tuple[int, int, list[np.ndarray]]:
    d_in = _positive_int(obj, "dim_in")
    d_out = _positive_int(obj, "dim_out")
    kraus = obj.get("kraus")
    if not isinstance(kraus, list) or not kraus:
        raise ValueError("'kraus' must be a non-empty list of matrices")
    # the whole set as one array with one finite check; the per-operator
    # decoder runs only when that fails, to name the malformed operator
    try:
        pairs = np.array(kraus, dtype=float)
    except (TypeError, ValueError):
        pairs = None
    if (
        pairs is None
        or pairs.shape != (len(kraus), d_out * d_in, 2)
        or not all(isinstance(a, list) for a in kraus)
        or not _only_numbers(kraus, 3)
        or np.count_nonzero(np.isfinite(pairs)) != pairs.size
    ):
        ops = [decode_complex_matrix(a, d_out, d_in, f"kraus[{k}]") for k, a in enumerate(kraus)]
        return d_in, d_out, ops
    return d_in, d_out, list(pairs.view(complex).reshape(len(kraus), d_out, d_in))


def dump_pstoch(s: np.ndarray, dim_in: int, dim_out: int) -> dict:
    _require_shape(s, (dim_out * dim_out, dim_in * dim_in), "matrix")
    return {
        "dim_in": int(dim_in),
        "dim_out": int(dim_out),
        "matrix": _floats(s),
    }


def load_pstoch(obj: dict) -> tuple[int, int, np.ndarray]:
    d_in = _positive_int(obj, "dim_in")
    d_out = _positive_int(obj, "dim_out")
    m = _real_array(obj.get("matrix"), (d_out * d_out, d_in * d_in), "matrix")
    return d_in, d_out, m


def dump_gksl(spec: GkslSpec) -> dict:
    d = spec.dim
    _require_shape(spec.hamiltonian, (d, d), "hamiltonian")
    for k, v in enumerate(spec.noise_ops):
        _require_shape(v, (d, d), f"noise_ops[{k}]")
    return {
        "dim": int(d),
        "hamiltonian": encode_complex_matrix(spec.hamiltonian),
        "noise_ops": [encode_complex_matrix(v) for v in spec.noise_ops],
    }


def load_gksl(obj: dict) -> GkslSpec:
    d = _positive_int(obj, "dim")
    h = decode_complex_matrix(obj.get("hamiltonian"), d, d, "hamiltonian")
    raw_ops = obj.get("noise_ops", [])
    if not isinstance(raw_ops, list):
        raise ValueError("'noise_ops' must be a list of matrices")
    ops = tuple(
        decode_complex_matrix(v, d, d, f"noise_ops[{k}]") for k, v in enumerate(raw_ops)
    )
    return GkslSpec(dim=d, hamiltonian=h, noise_ops=ops)


def dump_generator(g: Generator) -> dict:
    d = math.isqrt(len(g.matrix))
    out = {"dim": d}
    for key in ("matrix", "h_part", "d_part"):
        part = getattr(g, key)
        if part is not None:
            _require_shape(part, (d * d, d * d), key)
            out[key] = _floats(part)
    return out


def load_generator(obj: dict) -> Generator:
    d = _positive_int(obj, "dim")
    n = d * d
    matrix = _real_array(obj.get("matrix"), (n, n), "matrix")
    h_part = obj.get("h_part")
    d_part = obj.get("d_part")
    if h_part is not None:
        h_part = _real_array(h_part, (n, n), "h_part")
    if d_part is not None:
        d_part = _real_array(d_part, (n, n), "d_part")
    return Generator(matrix, h_part=h_part, d_part=d_part)


def dump_counts(c: CountsRecord) -> dict:
    _require_shape(c.counts, (c.dim * c.dim, c.dim * c.dim), "counts")
    return {
        "dim": int(c.dim),
        "shots": int(c.shots),
        "counts": np.asarray(c.counts, dtype=np.int64).tolist(),
    }


def load_counts(obj: dict) -> CountsRecord:
    d = _positive_int(obj, "dim")
    shots = _positive_int(obj, "shots")
    n = d * d
    raw = obj.get("counts")
    try:
        counts = np.array(raw, dtype=np.int64)
        integral = np.array_equal(counts, np.array(raw, dtype=float))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError("'counts' must be a nested list of integers") from exc
    if not integral:
        raise ValueError("'counts' must be a nested list of integers, got fractional entries")
    if counts.shape != (n, n):
        raise ValueError(f"'counts' has shape {counts.shape}, expected ({n}, {n})")
    _require_numbers(raw, 2, "counts")
    return CountsRecord(dim=d, shots=shots, counts=counts)


def dump_quant_report(r: DeltaQuantReport) -> dict:
    # The key holds the lambda of the frame the search certifies as the
    # minimiser of the negativity over the unitary family; the name is kept
    # for readers of existing output files.
    return {
        "delta_quant": float(r.value),
        "argmax_lambda": _floats(r.lam),
        "restarts_agreeing": int(r.restarts_agreeing),
    }


def dump_markov_report(r: MarkovReport) -> dict:
    return {
        "delta_nmark": float(r.delta_nmark),
        "s_mark": _floats(r.s_mark),
        "log_residual": float(r.log_residual),
    }
