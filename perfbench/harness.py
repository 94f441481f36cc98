"""Timed passes, set-up probes, checks and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import fcspin
import fcspin.exact
from checks import (check_op, is_flagged, oracle_check, parity_check,
                    parse_cli, unphysical_rows)
from workloads import BUILDERS, build

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer counts that must repeat exactly across passes and runs
EXACT_COUNTS = ("exact.tridiag_calls", "exact.levels", "exact.thermal_calls",
                "cspa.fd_quadratures", "cspa.saddle_solves",
                "meanfield.solve_calls", "rpa.root_calls")
PROBE_TIMEOUT_S = 120
# On a shared machine the interpreter's speed drifts by tens of percent
# between runs.  A fixed pure-Python loop, timed before and after every op,
# measures it; the op times of a workload with ``speed_scaled`` are scaled by
# the median of those loop times to the speed at which the loop takes
# REF_LOOP_S (about one quiet core of a 2-core Xeon VM).  Set-up time is not
# scaled: imports and process start do not follow that loop's speed.
SPEED_LOOP = 20_000
REF_LOOP_S = 1.0e-3

# the lru_cache object itself: passes clear it, traced passes read its stats
DIAG_CACHE = fcspin.exact.diagonalize


def _declared_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {mode: {m["name"]: m["unit"] for m in spec[key]}
            for mode, key in ((0, "end_to_end"), (1, "per_layer"))}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _warm_up(wl) -> str | None:
    """Run the untimed warm-up op; its error, if it raises."""
    try:
        wl.warmup.run()
    except Exception as exc:  # reported as a failed op by the main run
        return f"{type(exc).__name__}: {exc}"
    return None


def probe_setup(args) -> int:
    """Child process: set up like a run, then print seconds since ``--t0``."""
    _warm_up(build(args.workload, args.seed))
    print(repr(time.time() - args.t0))
    return 0


def _setup_samples(args, script, count: int) -> list:
    """Set-up seconds of ``count`` child processes."""
    samples = []
    for _ in range(count):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(script), "--workload", args.workload,
             "--seed", str(args.seed), "--probe-setup", "--t0", repr(t0)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _speed_loop() -> float:
    """Seconds for a fixed pure-Python loop: the machine speed right now."""
    t0 = perf_counter()
    s = 0
    for i in range(SPEED_LOOP):
        s += i * i
    return perf_counter() - t0


class _Pass:
    __slots__ = ("wall", "latencies", "loops", "outputs", "errors", "metrics")

    def __init__(self):
        self.wall = 0.0
        self.latencies = []
        self.loops = []
        self.outputs = []
        self.errors = []
        self.metrics = None


def _run_pass(ops, tracer=None) -> _Pass:
    DIAG_CACHE.cache_clear()
    out = _Pass()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    start = perf_counter()
    try:
        for op in ops:
            out.loops.append(_speed_loop())
            t0 = perf_counter()
            try:
                res = (op.run() if tracer is None
                       else tracer.span("bench.op", op.run))
                err = None
            except Exception as exc:  # a failing op is counted, not fatal
                res, err = None, f"{type(exc).__name__}: {exc}"
            out.latencies.append(perf_counter() - t0)
            out.outputs.append(res)
            out.errors.append(err)
        out.loops.append(_speed_loop())
        out.wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.remove()
    if tracer is not None:
        info = DIAG_CACHE.cache_info()
        # time inside ops, so the speed loops between ops are left out
        out.metrics = tracer.pass_metrics(sum(out.latencies), info.hits,
                                          info.misses)
        tracer.reset()
    return out


def _timed_section(ops, seconds: float, traced: bool):
    """Passes until the next one would overrun ``seconds``."""
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
    plain, traced_passes = [], []
    start = perf_counter()
    while True:
        use_tracer = traced and len(traced_passes) < len(plain)
        p = _run_pass(ops, tracer if use_tracer else None)
        (traced_passes if use_tracer else plain).append(p)
        elapsed = perf_counter() - start
        longest = max(q.wall for q in plain + traced_passes)
        enough = not traced or traced_passes
        if enough and elapsed + longest > seconds:
            return plain, traced_passes


def _check(wl, passes, warm_error):
    """(attempted, failed, failure lines) over every op run and check draw."""
    attempted, failed = 1, int(warm_error is not None)
    lines = []
    if warm_error is not None:
        lines.append(f"FAILED warm-up {wl.warmup.label} "
                     f"{json.dumps(wl.warmup.inputs)}: {warm_error}")
    for i, op in enumerate(wl.ops):
        runs = [(p.outputs[i], p.errors[i]) for p in passes]
        first = next((o for o, e in runs if e is None), None)
        try:
            reasons = check_op(op, first) if first is not None else []
        except Exception as exc:  # a check that cannot run fails the op
            reasons = [f"check raised {type(exc).__name__}: {exc}"]
        for _, err in runs:
            attempted += 1
            if err is not None or reasons:
                failed += 1
        errs = sorted({e for _, e in runs if e is not None})
        for reason in errs + reasons:
            lines.append(f"FAILED {op.label} {json.dumps(op.inputs)}: {reason}")
    for kind, draws, fn in (("oracle", wl.oracle_draws, oracle_check),
                            ("parity", wl.parity_draws, parity_check)):
        for draw in draws:
            attempted += 1
            try:
                reasons = fn(draw)
            except Exception as exc:  # counted as a failed check op
                reasons = [f"{type(exc).__name__}: {exc}"]
            if reasons:
                failed += 1
                lines += [f"FAILED {kind} {json.dumps(draw)}: {r}"
                          for r in reasons]
    return attempted, failed, lines


def _hashes(wl, passes):
    """sha256 prefix of each CLI op's first output; ops whose bytes changed."""
    digests, changed = [], 0
    for i, op in enumerate(wl.ops):
        if not op.cli:
            continue
        seen = {hashlib.sha256(p.outputs[i].encode()).hexdigest()[:16]
                for p in passes if p.outputs[i] is not None}
        first = next((p.outputs[i] for p in passes
                      if p.outputs[i] is not None), "")
        digests.append(hashlib.sha256(first.encode()).hexdigest()[:16])
        changed += len(seen) > 1
    return digests, changed


def _cli_rows(wl, passes) -> tuple[int, int, int]:
    """(rows, rows with a typed domain flag, unphysical approximate rows)."""
    rows = flagged = unphysical = 0
    for i, op in enumerate(wl.ops):
        text = next((p.outputs[i] for p in passes
                     if p.outputs[i] is not None), None)
        if op.cli and text is not None:
            parsed = parse_cli(text)
            rows += len(parsed)
            flagged += sum(is_flagged(r) for r in parsed)
            unphysical += unphysical_rows(op, text)
    return rows, flagged, unphysical


def _layer_metrics(wl, plain, traced):
    ordered = sorted(traced, key=lambda p: p.wall)
    m = dict(ordered[len(ordered) // 2].metrics)
    rows, flagged, _ = _cli_rows(wl, plain)
    m["cli.rows"] = rows
    m["cli.flagged_rows"] = flagged
    m["trace.overhead_ratio"] = (
        statistics.median(sum(p.latencies) for p in traced)
        / statistics.median(sum(p.latencies) for p in plain))
    unsteady = [k for k in EXACT_COUNTS
                if len({p.metrics[k] for p in traced}) > 1]
    return m, unsteady


def _meta(args, wl, plain, traced, setup, speed) -> dict:
    digests, changed = _hashes(wl, plain)
    rows, flagged, unphysical = _cli_rows(wl, plain)
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "fcspin": fcspin.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "ops_per_pass": len(wl.ops), "passes": len(plain),
        "traced_passes": len(traced), "setup_samples_s": setup,
        "cli_output_sha256": digests,
        "cli_outputs_changed_between_passes": changed,
        "cli_rows": rows, "cli_flagged_rows": flagged,
        "unphysical_approximate_rows": unphysical,
        "pass_walls_s": [p.wall for p in plain],
        "raw_wall_s": statistics.median(sum(p.latencies) for p in plain),
        "raw_op_p50_s": statistics.median(
            lat for p in plain for lat in p.latencies),
        "speed_loop_p50_s": speed,
    }


def run_workload(args, script, probes: int) -> int:
    setup = _setup_samples(args, script, probes) if not args.trace else []
    wl = build(args.workload, args.seed)
    warm_error = _warm_up(wl)
    plain, traced = _timed_section(wl.ops, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, failures = _check(wl, plain + traced, warm_error)

    speed = statistics.median(x for p in plain for x in p.loops)
    scale = REF_LOOP_S / speed if wl.speed_scaled else 1.0
    meta = _meta(args, wl, plain, traced, setup, speed)
    print("meta " + json.dumps(meta))
    for line in failures:
        print(line)
    if args.trace:
        metrics, unsteady = _layer_metrics(wl, plain, traced)
        for k in unsteady:
            print(f"WARNING {k} differs between traced passes")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": meta["raw_wall_s"] * scale,
            "op_p50_s": meta["raw_op_p50_s"] * scale,
            "peak_rss_mb": peak_rss_mb,
        }
    units = _declared_units()[args.trace]
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for k, v in metrics.items():
        print(f"{wl.name:12s} {k:32s} {v:>14.6g} {units[k]}")
    print(f"{wl.name:12s} {'failed_share':32s} {failed / attempted:>14.6g} "
          f"ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_all(args, script) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in BUILDERS:
        proc = subprocess.run(
            [sys.executable, str(script), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0
