"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads exact_cold,mfrpa --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --trace 1 --out results.json

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
(Q3 - Q1) / median.  Runs go one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
RUN_TIMEOUT_S = 900


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary as JSON")
    args = p.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]

    summary = {}
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        correct = True
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", wl, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace",
                 str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True,
                timeout=RUN_TIMEOUT_S)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= res["correct"]
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)
        summary[wl] = {"correct": correct,
                       "metrics": {k: {**summarise(v), "values": v}
                                   for k, v in values.items()}}
        for k, s in summary[wl]["metrics"].items():
            print(f"{wl:12s} {k:32s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    if args.out:
        record = {"seeds": _seeds(args.seeds), "seconds": seconds,
                  "trace": args.trace, "workloads": summary}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
