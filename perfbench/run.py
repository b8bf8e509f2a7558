#!/usr/bin/env python3
"""Benchmark of the sicprob pipeline: counts -> channel matrix -> CPTP -> scores.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload convert --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller: the next item starts only
after the previous one is done, in one process, with BLAS pinned to one
thread. An untraced run goes through a fixed set of distinct items in
passes, again and again until the time is up, and runs a fixed reference
job (``hostspeed.py``) between items. On a shared host the share of time the
code runs slowed drifts from one minute to the next; the end-to-end times
are therefore scaled by the reference job's mean time in the same run, which
the host slows alike and the library cannot change.
Items are JSON objects the ``sicprob`` CLI would read (see ``inputs.py``);
each runs through the public ``sicprob`` API and is checked (see
``workloads.py``). The library is imported from ``src/`` of the
checkout.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs each item twice, untraced and with every public function
traced (see ``tracing.py``), and reports the per-layer metrics, per item.
The last line of standard output is the result object; the lines before it
give run metadata and a readable summary, and the same is written under
``perfbench/results/``.
"""

from __future__ import annotations

import os

# Pin BLAS before NumPy loads; the setup subprocesses inherit the setting.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference.json"

# BENCHMARK.json names the workloads a full set of runs covers; the others
# run by hand (see README.md for why).
WORKLOADS = ("convert", "analyze_d2", "tomo_d2", "tomo_d2_r2", "tomo_d3")
SETUP_REPEATS = 5
POOL = 512  # distinct items per seed; a traced run cycles through them
# Distinct items of an untraced run, each run once per pass. Solver items
# take seconds each, so a run holds only a few if each is to run several times.
PASS_ITEMS = {"convert": POOL, "analyze_d2": 8, "tomo_d2": 8, "tomo_d2_r2": 24, "tomo_d3": 4}
# Item time between two runs of the reference job: often enough to sample the
# host's state, which changes within a second, at a few per cent of the run.
REF_EVERY_S = 0.2
WARMUP_INDEX = 1 << 20  # item indices used only for warm-up, never measured
# The 90th percentile is reported (in the summary, not the result line) only
# for runs with enough items to have ten above it.
P90_MIN_ITEMS = 100
WARMUP_SECONDS = 0.5

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import sicprob, sicprob.serialize
t1 = time.perf_counter()
with open(sys.argv[1], encoding="utf-8") as fh:
    fid = sicprob.serialize.load_fiducial(json.load(fh))
frames = (sicprob.builtin_qubit(), sicprob.from_fiducial(fid))
t2 = time.perf_counter()
ms = {"import_ms": 1e3 * (t1 - t0), "frame_ms": 1e3 * (t2 - t1)}
print(json.dumps({"file": sicprob.__file__, **ms}))
"""


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> dict[str, float]:
    """Fresh interpreters that import sicprob and build both frames; medians."""
    walls, imports, frames = [], [], []
    fiducial = str(ROOT / inputs.FIDUCIAL_D3)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, fiducial],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"setup interpreter failed:\n{proc.stderr}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(out["file"]).resolve().is_relative_to(SRC):
            raise BenchError(f"setup imported sicprob from {out['file']}, not {SRC}")
        imports.append(out["import_ms"])
        frames.append(out["frame_ms"])
    return {
        "setup_s": statistics.median(walls),
        "setup.import_ms": statistics.median(imports),
        "setup.frame_ms": statistics.median(frames),
    }


def import_library():
    if not (SRC / "sicprob" / "__init__.py").is_file():
        raise BenchError(f"no sicprob package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sicprob
    import sicprob.serialize  # noqa: F401

    if not Path(sicprob.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported sicprob from {sicprob.__file__}, not {SRC}")
    return sicprob


def build_frames(sp) -> tuple[dict, dict]:
    fid = inputs.fiducial_d3_json(ROOT)
    proj = {2: inputs.qubit_projectors(), 3: inputs.qutrit_projectors(fid)}
    sics = {2: sp.builtin_qubit(), 3: sp.from_fiducial(sp.serialize.load_fiducial(fid))}
    return proj, {d: workloads.Frame(sics[d], proj[d]) for d in proj}


class Items:
    """Item texts of one workload and seed, made on first use."""

    def __init__(self, workload: str, seed: int, proj: dict):
        self.workload, self.seed, self.proj = workload, seed, proj
        self._cache: dict[int, str] = {}

    def prefill(self, n: int) -> None:
        """Make items ``0..n-1`` now."""
        for k in range(min(n, POOL)):
            self[k]

    def __getitem__(self, k: int) -> str:
        index = k % POOL if k < WARMUP_INDEX else k
        if index not in self._cache:
            self._cache[index] = inputs.make_item(self.workload, self.seed, index, self.proj)
        return self._cache[index]


def load_reference(workload: str, seed: int) -> list:
    if not REFERENCE.is_file():
        return []
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["items"].get(workload, {}).get(str(seed), [])


class Loop:
    """Closed loop over items; times the library path, then checks outside it."""

    def __init__(self, runner: workloads.Runner, workload: str, items: Items, reference: list):
        self.run_item, self.check_item = runner.item_fns(workload)
        self.items = items
        self.reference = reference
        self.index: list[int] = []
        self.latencies: list[float] = []
        self.status: list[str] = []  # "ok", "raised: <type>" or "check: <what>"
        self.values: list[dict] = []
        self.ref: list[float] = []  # reference job times, untraced runs only

    def one(self, k: int) -> None:
        text = self.items[k]
        err = None
        t0 = time.perf_counter()
        try:
            result = self.run_item(text)
        except Exception as exc:  # any library failure fails the item, the loop goes on
            err = f"raised: {type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - t0)
        self.index.append(k)
        values = {"error": err} if err else {}
        if err is None:
            try:
                values = self.check_item(text, result)
                if k < len(self.reference):
                    workloads.check_reference(values, self.reference[k])
            except workloads.CheckFailed as exc:
                err = f"check: {exc}"
        self.status.append(err or "ok")
        self.values.append(values)

    def in_passes(self, seconds: float, items: int) -> None:
        """Items ``0..items-1`` in order, pass after pass, until the time is up,
        with the reference job after every ``REF_EVERY_S`` of item time."""
        t_end = time.perf_counter() + seconds
        k = 0
        since_ref = REF_EVERY_S
        while time.perf_counter() < t_end:
            if since_ref >= REF_EVERY_S:
                self.ref.append(hostspeed.job())
                since_ref = 0.0
            self.one(k % items)
            since_ref += self.latencies[-1]
            k += 1

    def for_items(self, n: int) -> None:
        for k in range(n):
            self.one(k)

    @property
    def passed(self) -> int:
        return self.status.count("ok")

    @property
    def incorrect(self) -> int:
        return sum(s.startswith("check:") for s in self.status)


def per_item(loop: Loop) -> tuple[list[float], list[bool], int]:
    """Each distinct item's mean time and whether all its runs passed."""
    runs: dict[int, list[tuple[float, str]]] = {}
    for k, t, s in zip(loop.index, loop.latencies, loop.status):
        runs.setdefault(k, []).append((t, s))
    mean = [statistics.fmean(t for t, _ in r) for r in runs.values()]
    ok = [all(s == "ok" for _, s in r) for r in runs.values()]
    return mean, ok, min(len(r) for r in runs.values())


def percentile_ms(times: list[float], ok: list[bool], q: float, total: float) -> float:
    """Nearest-rank percentile; a failed item ranks above every passed one.

    When the rank lands on a failed item the value is ``total``, the run's
    whole timed time, which no single item could exceed.
    """
    passed = sorted(t for t, good in zip(times, ok) if good)
    rank = max(1, math.ceil(q * len(times)))
    return 1e3 * (passed[rank - 1] if rank <= len(passed) else total)


def end_to_end(loop: Loop, setup: dict) -> dict[str, float]:
    # Times are divided by how much slower than nominal the reference job
    # ran in this run, so that they read as times on a host not slowed.
    scale = statistics.fmean(loop.ref) / hostspeed.NOMINAL_S
    mean, ok, passes = per_item(loop)
    times = [t / scale for t in mean]
    total = sum(loop.latencies) / scale
    out = {
        # Items that passed, per second of (scaled) library time.
        "items_per_s": loop.passed / total,
        "latency_p50_ms": percentile_ms(times, ok, 0.50, total),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # The fresh interpreters run on the same host a few seconds earlier.
        "setup_s": setup["setup_s"] / scale,
        "host_scale": scale,
        "unscaled_items_per_s": loop.passed / sum(loop.latencies),
        "unscaled_setup_s": setup["setup_s"],
        "distinct_items": len(mean),
        "passes": passes,
    }
    if len(mean) >= P90_MIN_ITEMS:  # at least ten items rank above it
        out["latency_p90_ms"] = percentile_ms(times, ok, 0.90, total)
    return out


def warm_up(runner: workloads.Runner, proj: dict, seed: int) -> None:
    """Run unmeasured convert items and the reference job for a while, to
    load lazy code paths."""
    hostspeed.job()
    loop = Loop(runner, "convert", Items("convert", seed, proj), [])
    t_end = time.perf_counter() + WARMUP_SECONDS
    k = WARMUP_INDEX
    while time.perf_counter() < t_end:
        loop.one(k)
        k += 1


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sicprob").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(args, loop: Loop, sp) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": len(loop.status),
        "distinct_items": len(set(loop.index)),
        "commit": commit(),
        "source_sha256": source_digest(),
        "sicprob": sp.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "loop": "closed, one caller, one process",
        "wait_time": "not applicable: no layer queues work",
    }


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(args) -> dict:
    bench = spec()
    sp = import_library()
    proj, frames = build_frames(sp)
    runner = workloads.Runner(sp, frames)
    items = Items(args.workload, args.seed, proj)
    items.prefill(PASS_ITEMS[args.workload])  # no timed item follows a generation
    reference = load_reference(args.workload, args.seed)
    setup = measure_setup()
    warm_up(runner, proj, args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    loop = Loop(runner, args.workload, items, reference)
    checked = [loop]
    if args.trace:
        # Each item runs untraced and traced back to back, in alternating
        # order, so that drift of the machine cancels out of the overhead.
        untraced = Loop(runner, args.workload, items, reference)
        checked.append(untraced)
        tracer = Tracer(sp)
        t_end = time.perf_counter() + args.seconds
        k = 0
        while time.perf_counter() < t_end:
            if k % 2:
                untraced.one(k)
            with tracer:
                loop.one(k)
            if not k % 2:
                untraced.one(k)
            k += 1
        tracer.save(RESULTS / f"{stem}.spans.npz")
        measured = tracer.summary(len(loop.status))
        measured["setup.import_ms"] = setup["setup.import_ms"]
        measured["setup.frame_ms"] = setup["setup.frame_ms"]
        # Extra library time that tracing adds, as a share of untraced time.
        measured["trace.overhead_frac"] = sum(loop.latencies) / sum(untraced.latencies) - 1.0
        wanted = bench["per_layer"]
    else:
        loop.in_passes(args.seconds, PASS_ITEMS[args.workload])
        wanted, measured = bench["end_to_end"], end_to_end(loop, setup)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": all(c.incorrect == 0 for c in checked),
        "attempted": len(loop.status),
        "failed": len(loop.status) - loop.passed,
        "metrics": metrics,
    }
    failures = sorted({s for s in loop.status if s != "ok"})
    report = {
        "meta": metadata(args, loop, sp),
        "error_rate": result["failed"] / result["attempted"],
        "failures": failures,
        "result": result,
        "all_metrics": measured,
        "latencies_ms": [1e3 * t for t in loop.latencies],
        "reference_job_ms": [1e3 * t for t in loop.ref],
        "status": loop.status,
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"meta": report["meta"]}))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    if "latency_p90_ms" in measured:
        print(f"{'latency_p90_ms':48s} {measured['latency_p90_ms']:14.6g} ms")
    if "passes" in measured:
        print(f"{'passes':48s} {measured['passes']:14d} over {measured['distinct_items']} items")
        print(f"{'host_scale':48s} {measured['host_scale']:14.6g} reference job / nominal")
        print(f"{'unscaled_items_per_s':48s} {measured['unscaled_items_per_s']:14.6g} 1/s")
        print(f"{'unscaled_setup_s':48s} {measured['unscaled_setup_s']:14.6g} s")
    print(f"{'error_rate':48s} {report['error_rate']:14.6g} failed/attempted")
    for f in failures:
        print(f"failure: {f}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
