"""Seeded inputs for the four workloads.

A workload is a fixed list of operations (one op = one library call or one
in-process ``fcspin.cli.main([...])`` invocation) drawn from the seed, plus
one warm-up op on inputs outside that list and the reference draws that the
checks use.  The benchmark repeats the op list in passes; every pass runs
the same inputs on an emptied ``diagonalize`` cache, so every pass does the
same work.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import fcspin
import fcspin.cli

ALL_OUTPUTS = ",".join(fcspin.cli.KNOWN_OUTPUTS)
PAIR_OUTPUTS = "C,nC,C_plus,C_minus,alpha_x,alpha_y,alpha_z,sz,lnZ"
# every output the asymptotic forms produce (no correlators, no ln Z)
ASYMPTOTIC_OUTPUTS = "C,nC,C_plus,C_minus,omega,lambda,T_L_plus,T_L_minus"

# exact_cold: one op per size, sizes fixed so every seed does the same work.
# The solver's time also depends on (b, chi); three ops at n = 700 put the
# median op on the middle size with three draws of them.
COLD_SIZES = (600, 700, 700, 700, 800)
# exact_warm / static_path: the README's phasemap size
WARM_N = 100
PHASEMAPS = 2
PHASEMAP_POINTS = 20
TSWEEP_POINTS = 200
TSWEEPS = 2
CSPA_N = 100
CSPA_SWEEPS = 1
CSPA_POINTS = 12
# negative-coupling points: v_y < 0, v_z = 0 (one integrated axis, deformed
# y axis at its symmetric stationary point), and v_y > 0, v_z < 0 (two
# integrated axes, one bounded saddle search per node of the 2-D grid)
NEGATIVE_Y_POINTS = 96
TWO_AXIS_POINTS = 1
# mfrpa: CLI invocations per pass
MFRPA_SWEEPS = 120
MFRPA_ASYMPTOTIC_SWEEPS = 40
MFRPA_PHASEMAPS = 40
MFRPA_POINTS = 20
# reference draws for the checks
ORACLE_DRAWS = 4


@dataclass
class Op:
    """One timed operation: ``run()`` returns its output."""

    label: str
    inputs: dict
    run: object
    cli: bool = False


@dataclass
class Workload:
    name: str
    ops: list
    warmup: Op
    # whether op times are scaled by the interpreter speed loop (harness.py);
    # LAPACK-bound ops do not follow that loop's speed
    speed_scaled: bool = True
    # reference draws (small n) compared against the dense oracle
    oracle_draws: list = field(default_factory=list)
    parity_draws: list = field(default_factory=list)


def cli_op(label: str, argv: list[str]) -> Op:
    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = fcspin.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"fcspin exited with code {code}")
        return buf.getvalue()
    return Op(label, {"argv": " ".join(argv)}, run, cli=True)


def _f(x: float) -> str:
    return repr(float(x))


def _chi_params(n: int, b: float, chi: float) -> fcspin.ModelParams:
    return fcspin.ModelParams.from_chi(n=n, b=float(b), chi=float(chi))


def _thermal_op(n: int, b: float, chi: float, T: float) -> Op:
    p = _chi_params(n, b, chi)
    return Op("thermal_concurrence",
              {"n": n, "b": float(b), "chi": float(chi), "T": float(T)},
              lambda: fcspin.thermal_concurrence(p, float(T)))


def latin(rng, k: int, **ranges) -> list[dict]:
    """``k`` draws, each coordinate stratified into ``k`` equal slices.

    A Latin hypercube: every coordinate takes one uniform draw per slice,
    in an order shuffled per coordinate.  Ranges are ``(lo, hi)`` or
    ``(lo, hi, "log")``.  The mix of regimes in a workload (phase, field
    against b_c, size) then stays the same from seed to seed.
    """
    cols = {}
    for name, (lo, hi, *log) in ranges.items():
        u = (rng.permutation(k) + rng.uniform(size=k)) / k
        if log:
            cols[name] = np.exp(math.log(lo) + math.log(hi / lo) * u)
        else:
            cols[name] = lo + (hi - lo) * u
    return [{name: float(col[i]) for name, col in cols.items()}
            for i in range(k)]


def _oracle_draws(rng, count: int) -> list:
    """Small-n draws (n <= 9) of the exact op's parameters."""
    draws = latin(rng, count, n=(4, 10), b=(0.05, 2.0), chi=(0.2, 0.8),
                  T=(0.05, 0.6))
    for d in draws:
        d["n"] = int(d["n"])
    return draws


def exact_cold(rng) -> Workload:
    sizes = [int(s) for s in rng.permutation(COLD_SIZES)]
    draws = latin(rng, len(sizes), b=(0.05, 2.0), chi=(0.2, 0.8),
                  T=(0.05, 0.15))
    ops = [_thermal_op(n, **d) for n, d in zip(sizes, draws)]
    return Workload("exact_cold", ops, _thermal_op(60, 0.5, 0.5, 0.1),
                    speed_scaled=False,
                    oracle_draws=_oracle_draws(rng, ORACLE_DRAWS))


def exact_warm(rng) -> Workload:
    ops = [cli_op("cli:phasemap", [
        "--n", str(WARM_N), "--chi", _f(d["chi"]), "--method", "exact",
        "--sweep", "phasemap", "--from", _f(d["start"]),
        "--to", _f(d["stop"]), "--points", str(PHASEMAP_POINTS),
        "--format", "json"])
        for d in latin(rng, PHASEMAPS, chi=(0.3, 0.7), start=(0.0, 0.1),
                       stop=(1.9, 2.0))]
    for d in latin(rng, TSWEEPS, chi=(0.3, 0.7), b=(0.05, 2.0),
                   start=(0.005, 0.02)):
        ops.append(cli_op("cli:temperature", [
            "--n", str(WARM_N), "--chi", _f(d["chi"]), "--b", _f(d["b"]),
            "--method", "exact", "--sweep", "temperature",
            "--from", _f(d["start"]), "--to", "2.0",
            "--points", str(TSWEEP_POINTS), "--outputs", PAIR_OUTPUTS]))
    pchi = float(rng.uniform(0.3, 0.7))
    pp = _chi_params(WARM_N, 0.0, pchi)
    ops.append(Op("parity_transitions", {"n": WARM_N, "chi": pchi},
                  lambda: fcspin.parity_transitions(pp)))
    rng.shuffle(ops)
    warm = cli_op("cli:phasemap", [
        "--n", "20", "--chi", "0.5", "--method", "exact", "--sweep",
        "phasemap", "--from", "0.1", "--to", "1.5", "--points", "3",
        "--format", "json"])
    parity = [{"n": int(n), "chi": float(rng.uniform(0.3, 0.7))}
              for n in rng.choice([4, 6, 8, 10], size=2, replace=False)]
    return Workload("exact_warm", ops, warm,
                    oracle_draws=_oracle_draws(rng, ORACLE_DRAWS),
                    parity_draws=parity)


def _negative_op(n: int, b: float, v_y: float, v_z: float, T: float) -> Op:
    p = fcspin.ModelParams(n=n, b=b, v_x=1.0, v_y=v_y, v_z=v_z)
    return Op("cspa_log_partition",
              {"n": n, "b": b, "v_x": 1.0, "v_y": v_y, "v_z": v_z, "T": T},
              lambda: fcspin.cspa_log_partition(p, T))


def static_path(rng) -> Workload:
    ops = [cli_op("cli:cspa_field", [
        "--n", str(CSPA_N), "--chi", _f(d["chi"]), "--T", _f(d["T"]),
        "--method", "cspa", "--sweep", "field", "--from", _f(d["start"]),
        "--to", _f(d["stop"]), "--points", str(CSPA_POINTS),
        "--outputs", PAIR_OUTPUTS])
        for d in latin(rng, CSPA_SWEEPS, chi=(0.4, 0.6), T=(0.14, 0.2),
                       start=(0.05, 0.3), stop=(1.7, 2.0))]
    for d in latin(rng, NEGATIVE_Y_POINTS, n=(5, 9), b=(0.0, 1.2),
                   v_y=(-0.5, -0.1), T=(0.8, 2.0)):
        ops.append(_negative_op(int(d["n"]), d["b"], d["v_y"], 0.0, d["T"]))
    for d in latin(rng, TWO_AXIS_POINTS, n=(4, 9), b=(0.0, 1.2),
                   v_y=(0.1, 0.5), v_z=(-0.5, -0.1), T=(0.8, 2.0)):
        ops.append(_negative_op(int(d["n"]), d["b"], d["v_y"], d["v_z"],
                                d["T"]))
    rng.shuffle(ops)
    warm = cli_op("cli:cspa_point", [
        "--n", "40", "--chi", "0.5", "--b", "0.5", "--T", "0.3",
        "--method", "cspa", "--outputs", PAIR_OUTPUTS])
    return Workload("static_path", ops, warm)


MFRPA_SIZE = (50, 4000, "log")
MFRPA_CHI = (0.2, 0.9)


def _mfrpa_sweeps(rng, k: int) -> list[list[str]]:
    """``k`` field and ``k`` temperature sweeps over size and anisotropy."""
    out = []
    for d in latin(rng, k, n=MFRPA_SIZE, chi=MFRPA_CHI, T=(0.02, 0.3),
                   start=(0.0, 0.2), stop=(1.5, 2.5)):
        out.append(["--n", str(round(d["n"])), "--chi", _f(d["chi"]),
                    "--T", _f(d["T"]), "--sweep", "field",
                    "--from", _f(d["start"]), "--to", _f(d["stop"])])
    for d in latin(rng, k, n=MFRPA_SIZE, chi=MFRPA_CHI, b=(0.0, 2.0),
                   start=(0.01, 0.05), stop=(0.3, 0.6)):
        out.append(["--n", str(round(d["n"])), "--chi", _f(d["chi"]),
                    "--b", _f(d["b"]), "--sweep", "temperature",
                    "--from", _f(d["start"]), "--to", _f(d["stop"])])
    return out


def mfrpa(rng) -> Workload:
    ops = [cli_op("cli:mfrpa_full", [
        *argv, "--method", "mfrpa_full", "--points", str(MFRPA_POINTS),
        "--outputs", ALL_OUTPUTS])
        for argv in _mfrpa_sweeps(rng, MFRPA_SWEEPS // 2)]
    ops += [cli_op("cli:mfrpa_asymptotic", [
        *argv, "--method", "mfrpa_asymptotic", "--points", str(MFRPA_POINTS),
        "--outputs", ASYMPTOTIC_OUTPUTS])
        for argv in _mfrpa_sweeps(rng, MFRPA_ASYMPTOTIC_SWEEPS // 2)]
    for d in latin(rng, MFRPA_PHASEMAPS, n=MFRPA_SIZE, chi=MFRPA_CHI,
                   stop=(1.5, 2.5)):
        ops.append(cli_op("cli:mfrpa_phasemap", [
            "--n", str(round(d["n"])), "--chi", _f(d["chi"]),
            "--method", "mfrpa_asymptotic", "--sweep", "phasemap",
            "--from", "0.0", "--to", _f(d["stop"]),
            "--points", str(MFRPA_POINTS), "--format", "json"]))
    rng.shuffle(ops)
    warm = cli_op("cli:mfrpa_full", [
        "--n", "30", "--chi", "0.5", "--T", "0.1", "--method", "mfrpa_full",
        "--sweep", "field", "--from", "0.1", "--to", "1.5", "--points", "3",
        "--outputs", ALL_OUTPUTS])
    return Workload("mfrpa", ops, warm)


BUILDERS = {"exact_cold": exact_cold, "exact_warm": exact_warm,
            "static_path": static_path, "mfrpa": mfrpa}


def build(name: str, seed: int) -> Workload:
    index = list(BUILDERS).index(name)
    return BUILDERS[name](np.random.default_rng([seed, index]))
