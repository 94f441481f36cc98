"""fcspin benchmark: seeded workloads timed end to end, or traced per layer.

    python3 perfbench/run.py --workload exact_cold --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process runs one workload as a closed loop with a single caller: the op
list is repeated in passes until ``--seconds`` is used up.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics.  Outputs are checked after the
timed section.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact_cold", "exact_warm", "static_path", "mfrpa")
SETUP_PROBES = 5


def _import_package():
    if not (ROOT / "src" / "fcspin" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fcspin sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # cap BLAS threads before NumPy loads
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    _import_package()
    if args.workload == "all":
        from harness import run_all
        return run_all(args, Path(__file__).resolve())
    from harness import probe_setup, run_workload
    if args.probe_setup:
        return probe_setup(args)
    return run_workload(args, Path(__file__).resolve(), SETUP_PROBES)


if __name__ == "__main__":
    sys.exit(main())
