"""Command-line sweeps over field and temperature with CSV or JSON output.

Every run is deterministic: the same invocation produces the same bytes, so
emitted files diff cleanly.  Soft per-point failures (breakdown, divergence,
complex termination) become status flags on the affected row; only unusable
arguments (exit 2) or a failure outside the per-row scope (exit 3) abort.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .cspa import cspa_result
from .errors import BreakdownError, NumericalError
from .exact import (concurrence, diagonalize, limit_temperatures,
                    log_partition, pair_density, thermal_observables)
from .meanfield import (critical_constants, log_partition_mfrpa,
                        mfrpa_observables, solve_mean_field)
from .oracle import (MAX_ORACLE_N, oracle_concurrence, oracle_log_partition,
                     oracle_observables)
from .params import ModelParams
from .rpa import (asymptotic_concurrence, factorizing_field, full_concurrence,
                  limit_temperature_rpa)

SWEEPS = ("field", "temperature", "phasemap")
FORMATS = ("csv", "json")
DEFAULT_OUTPUTS = ("C", "nC", "C_plus", "C_minus")
KNOWN_OUTPUTS = ("C", "nC", "C_plus", "C_minus", "alpha_x", "alpha_y",
                 "alpha_z", "sz", "lnZ", "omega", "lambda",
                 "T_L_plus", "T_L_minus")
PHASEMAP_COLUMNS = ("T_L_plus", "T_L_minus", "T_c")
_CONC = frozenset(("C", "nC", "C_plus", "C_minus"))
_CORR = frozenset(("alpha_x", "alpha_y", "alpha_z", "sz"))
_LIMITS = frozenset(("T_L_plus", "T_L_minus"))

# config-file keys mirror the long flags; argparse dests differ where the
# flag name is a Python keyword or a builtin
_CONFIG_KEYS = {
    "n": "n", "b": "b", "vx": "vx", "vy": "vy", "vz": "vz", "chi": "chi",
    "T": "T", "method": "method", "sweep": "sweep", "from": "start",
    "to": "stop", "points": "points", "geometric": "geometric",
    "outputs": "outputs", "out": "out", "format": "fmt",
}


@dataclass
class ResultRow:
    axis_value: float
    values: dict
    flags: list


# ---------------------------------------------------------------------------
# per-method evaluators: each fills ``row`` with the outputs in ``need`` at
# one (params, T) in place, so values and flags gathered before a failure
# stay on the row


def _pair_values(row: ResultRow, rep, n: int) -> None:
    row.values.update({"C": rep.c, "nC": n * rep.c, "C_plus": rep.c_plus,
                       "C_minus": rep.c_minus})


def _pm_values(row: ResultRow, c_plus, c_minus, n: int) -> None:
    c = max([0.0] + [c for c in (c_plus, c_minus) if c is not None])
    row.values.update({"C": c, "nC": n * c, "C_plus": c_plus,
                       "C_minus": c_minus})


def _corr_values(row: ResultRow, corr) -> None:
    row.values.update({"alpha_x": corr.alpha_x, "alpha_y": corr.alpha_y,
                       "alpha_z": corr.alpha_z, "sz": corr.sz})


def _from_correlators(row: ResultRow, corr, n: int, need) -> None:
    if need & _CONC:
        _pair_values(row, concurrence(pair_density(corr, n)), n)
    if need & _CORR:
        _corr_values(row, corr)


def _exact(params: ModelParams, T: float, need, row: ResultRow) -> None:
    spectra = diagonalize(params)
    if need & (_CONC | _CORR):
        _from_correlators(row, thermal_observables(spectra, T), params.n, need)
    if "lnZ" in need:
        row.values["lnZ"] = log_partition(spectra, T)


def _oracle(params: ModelParams, T: float, need, row: ResultRow) -> None:
    # the dense reference solves once per output group, as its functions do
    if need & _CONC:
        _pair_values(row, oracle_concurrence(params, T), params.n)
    if need & _CORR:
        _corr_values(row, oracle_observables(params, T))
    if "lnZ" in need:
        row.values["lnZ"] = oracle_log_partition(params, T)


def _mean_field(params: ModelParams, T: float, row: ResultRow):
    sol = solve_mean_field(params, T)
    row.flags.append("phase=sb" if sol.phase == "symmetry_breaking"
                     else "phase=normal")
    return sol


def _modes(sol, need, row: ResultRow) -> None:
    if "omega" in need:
        row.values["omega"] = sol.omega
    if "lambda" in need:
        row.values["lambda"] = sol.gap


def _mfrpa_full(params: ModelParams, T: float, need, row: ResultRow) -> None:
    sol = _mean_field(params, T, row)
    if need & _CONC:
        full = full_concurrence(params, T)
        if full.complex_terminated:
            row.flags.append("complex_termination")
        _pm_values(row, full.c_plus, full.c_minus, params.n)
    if need & _CORR:
        _corr_values(row, mfrpa_observables(params, T))
    if "lnZ" in need:
        row.values["lnZ"] = log_partition_mfrpa(params, T)
    _modes(sol, need, row)


def _mfrpa_asymptotic(params: ModelParams, T: float, need,
                      row: ResultRow) -> None:
    sol = _mean_field(params, T, row)
    if need & _CONC:
        _pm_values(row, *asymptotic_concurrence(params, T), params.n)
    _modes(sol, need, row)


def _cspa(params: ModelParams, T: float, need, row: ResultRow) -> None:
    res = cspa_result(params, T)
    _from_correlators(row, res.corr, params.n, need)
    if "lnZ" in need:
        row.values["lnZ"] = res.ln_z


# limit-temperature sources, called through this module's globals so that a
# wrapper put on the library name also sees the CLI's calls
def _block_limits(params: ModelParams):
    lt = limit_temperatures(params)
    return lt.t_plus, lt.t_minus


def _rpa_limits(params: ModelParams):
    return limit_temperature_rpa(params)


class _Method(NamedTuple):
    evaluate: Callable  # (params, T, need, row) -> None
    limits: Callable    # params -> (T_L_plus, T_L_minus)
    phasemap: bool      # whether a phase map may run on it


_METHODS = {
    "exact": _Method(_exact, _block_limits, phasemap=True),
    "oracle": _Method(_oracle, _block_limits, phasemap=False),
    "mfrpa_full": _Method(_mfrpa_full, _rpa_limits, phasemap=False),
    "mfrpa_asymptotic": _Method(_mfrpa_asymptotic, _rpa_limits,
                                phasemap=True),
    "cspa": _Method(_cspa, _rpa_limits, phasemap=False),
}
METHODS = tuple(_METHODS)


@dataclass(frozen=True)
class SweepSpec:
    """One job: a method, fixed parameters, and the axis it runs along.

    ``axis`` is ``"point"`` (one row at ``grid = (params.b,)``; a numerical
    failure raises), ``"field"`` or ``"temperature"`` (one row per grid
    value; a failure flags its row) or ``"phasemap"`` (T_L+- and T_c per
    field value; ``outputs`` are checked but not used).
    """

    method: str
    params: ModelParams
    temperature: float
    axis: str
    grid: tuple[float, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.axis != "point" and self.axis not in SWEEPS:
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if self.method == "oracle" and self.params.n > MAX_ORACLE_N:
            raise ValueError(
                f"oracle method is dense: n <= {MAX_ORACLE_N} required")
        bad = set(self.outputs) - set(KNOWN_OUTPUTS)
        if bad:
            raise ValueError(f"unknown outputs: {sorted(bad)}")
        if not self.outputs:
            raise ValueError("empty outputs list")
        if self.axis == "point":
            if len(self.grid) != 1:
                raise ValueError("a single point needs exactly 1 grid value")
        elif len(self.grid) < 2:
            raise ValueError("a sweep needs at least 2 points")
        if self.axis == "phasemap" and not _METHODS[self.method].phasemap:
            raise ValueError(
                "phasemap supports methods 'exact' and 'mfrpa_asymptotic'")


def run_sweep(spec: SweepSpec) -> list:
    """One ``ResultRow`` per grid value of ``spec``.

    A breakdown, numerical failure or invalid state becomes a row flag
    (``breakdown``, ``error:<Type>``) except on a ``"point"`` spec, which
    re-raises it.  Point and sweep rows also flag each requested output that
    came back empty (``missing:``, unless the row failed) or non-finite
    (``nonfinite:``); phase-map rows always carry T_c and no such flags.
    """
    method = _METHODS[spec.method]
    phasemap = spec.axis == "phasemap"
    if phasemap:
        t_c = critical_constants(spec.params).critical_temperature
    need = set(spec.outputs)
    rows = []
    for val in spec.grid:
        val = float(val)
        if spec.axis == "temperature":
            p, T = spec.params, val
        else:
            p, T = spec.params.with_field(val), spec.temperature
        row = ResultRow(axis_value=val, values={}, flags=[])
        if phasemap:
            row.values = {"T_L_plus": None, "T_L_minus": None, "T_c": t_c(val)}
        failed = False
        try:
            if not phasemap:
                method.evaluate(p, T, need, row)
            if phasemap or need & _LIMITS:
                row.values["T_L_plus"], row.values["T_L_minus"] = (
                    method.limits(p))
        except (NumericalError, ValueError) as exc:
            if spec.axis == "point":
                raise
            row.flags.append("breakdown" if isinstance(exc, BreakdownError)
                             else f"error:{type(exc).__name__}")
            failed = True
        if not phasemap:
            for name in spec.outputs:
                v = row.values.setdefault(name, None)
                if v is None:
                    if not failed:
                        row.flags.append(f"missing:{name}")
                elif not math.isfinite(v):
                    row.flags.append(f"nonfinite:{name}")
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# serialization


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_csv(axis_name: str, columns, rows) -> str:
    lines = [",".join([axis_name, *columns, "flags"])]
    for row in rows:
        cells = [_cell(row.axis_value)]
        cells += [_cell(row.values.get(c)) for c in columns]
        cells.append(";".join(row.flags))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _json_num(v):
    if v is None or not math.isfinite(v):
        return None
    return v


def emit_json(metadata: dict, axis_name: str, columns, rows) -> str:
    payload = {
        "metadata": metadata,
        "columns": [axis_name, *columns, "flags"],
        "rows": [
            {axis_name: _json_num(row.axis_value),
             **{c: _json_num(row.values.get(c)) for c in columns},
             "flags": row.flags}
            for row in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# argument handling


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fcspin",
        description="Thermal pair entanglement of uniformly coupled spins: "
                    "exact sweeps, mean-field + RPA estimates, and the "
                    "static-path approximation.")
    p.add_argument("--config", help="JSON file with the same keys as the "
                                    "long flags; explicit flags win")
    p.add_argument("--n", type=int, help="number of spins")
    p.add_argument("--b", type=float, help="field (energy units of --vx)")
    p.add_argument("--vx", type=float, help="x coupling, the unit of energy "
                                            "(default 1.0)")
    aniso = p.add_mutually_exclusive_group()
    aniso.add_argument("--vy", type=float, help="y coupling")
    aniso.add_argument("--chi", type=float,
                       help="anisotropy (v_y - v_z)/(v_x - v_z); "
                            "alternative to --vy")
    p.add_argument("--vz", type=float, help="z coupling (default 0)")
    p.add_argument("--T", type=float, help="temperature (default 0)")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--sweep", choices=SWEEPS,
                   help="omit for a single-point evaluation")
    p.add_argument("--from", dest="start", type=float, help="sweep start")
    p.add_argument("--to", dest="stop", type=float, help="sweep end")
    p.add_argument("--points", type=int, help="sweep length (default 50)")
    p.add_argument("--geometric", action="store_true", default=None,
                   help="geometric instead of linear spacing")
    p.add_argument("--outputs", help="comma-separated subset of: "
                                     + ",".join(KNOWN_OUTPUTS))
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", dest="fmt", choices=FORMATS)
    return p


def _build_job(args, parser: argparse.ArgumentParser):
    """((spec, format, grid metadata), output path) from flags and config.

    Every rejected argument exits 2 through ``parser.error``.
    """
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config: {exc}")
        unknown = set(cfg) - set(_CONFIG_KEYS)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")

    def pick(flag: str, default=None):
        v = getattr(args, _CONFIG_KEYS[flag])
        if v is not None:
            return v
        return cfg.get(flag, default)

    n = pick("n")
    if n is None:
        parser.error("--n is required (flag or config)")
    vx = pick("vx", 1.0)
    vz = pick("vz", 0.0)
    b = pick("b", 0.0)
    # anisotropy: --vy/--chi are mutually exclusive on the command line;
    # a flag overrides both config spellings
    vy, chi = args.vy, args.chi
    if vy is None and chi is None:
        vy, chi = cfg.get("vy"), cfg.get("chi")
        if vy is not None and chi is not None:
            parser.error("config sets both vy and chi")
    if vy is None and chi is None:
        parser.error("one of --vy/--chi is required (flag or config)")
    temperature = float(pick("T", 0.0))
    if temperature < 0:
        parser.error("--T must be nonnegative")
    fmt = pick("format", "csv")
    if fmt not in FORMATS:
        parser.error(f"unknown format {fmt!r}")
    raw = pick("outputs")
    if raw is None:
        outputs = DEFAULT_OUTPUTS
    elif isinstance(raw, str):
        outputs = tuple(s.strip() for s in raw.split(",") if s.strip())
    else:
        outputs = tuple(raw)

    sweep = pick("sweep")
    if sweep is not None and sweep not in SWEEPS:
        parser.error(f"unknown sweep {sweep!r}")
    grid_meta = None
    try:
        if chi is not None:
            params = ModelParams.from_chi(n=int(n), b=float(b),
                                          chi=float(chi), v_x=float(vx),
                                          v_z=float(vz))
        else:
            params = ModelParams(n=int(n), b=float(b), v_x=float(vx),
                                 v_y=float(vy), v_z=float(vz))
        if sweep is None:
            sweep, grid = "point", (params.b,)
        else:
            start, stop = pick("from"), pick("to")
            if start is None or stop is None:
                parser.error("--from and --to are required for a sweep")
            points = int(pick("points", 50))
            geometric = bool(pick("geometric", False))
            if geometric and (start <= 0 or stop <= 0):
                parser.error("geometric spacing needs positive --from/--to")
            grid = tuple(float(g) for g in (
                np.geomspace if geometric else np.linspace)(
                    float(start), float(stop), points))
            grid_meta = {"from": float(start), "to": float(stop),
                         "points": points,
                         "spacing": "geometric" if geometric else "linear"}
        spec = SweepSpec(method=pick("method", "exact"), params=params,
                         temperature=temperature, axis=sweep, grid=grid,
                         outputs=outputs)
    except ValueError as exc:
        parser.error(str(exc))
    return (spec, fmt, grid_meta), pick("out")


def _metadata(spec: SweepSpec, grid_meta: dict | None) -> dict:
    p = spec.params
    chi = p.chi
    phasemap = spec.axis == "phasemap"
    meta = {
        "package": "fcspin",
        "version": __version__,
        "method": spec.method,
        "mode": spec.axis,
        "params": {"n": p.n, "b": p.b, "v_x": p.v_x, "v_y": p.v_y,
                   "v_z": p.v_z, "chi": None if math.isnan(chi) else chi},
        "T": spec.temperature,
        "unit_convention": f"energies in units of v_x = {p.v_x!r}",
        "grid": grid_meta,
        "outputs": list(PHASEMAP_COLUMNS if phasemap else spec.outputs),
    }
    if phasemap:
        pc = critical_constants(p)
        ff = factorizing_field(p)
        meta["b_c"] = pc.b_c
        meta["b_s"] = None if ff is None else ff.mean_field
        meta["b_s_finite_n"] = None if ff is None else ff.finite_n
    return meta


def _run_job(job) -> str:
    spec, fmt, grid_meta = job
    rows = run_sweep(spec)
    axis = "T" if spec.axis == "temperature" else "b"
    columns = PHASEMAP_COLUMNS if spec.axis == "phasemap" else spec.outputs
    if fmt == "csv":
        return emit_csv(axis, columns, rows)
    return emit_json(_metadata(spec, grid_meta), axis, columns, rows)


def main(argv=None) -> int:
    parser = _parser()
    job, out = _build_job(parser.parse_args(argv), parser)
    try:
        text = _run_job(job)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (OSError, NumericalError, ValueError) as exc:
        # bad I/O or a failed single-point evaluation (InvalidStateError is a
        # ValueError); any other exception is a bug and keeps its traceback
        print(f"fcspin: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
