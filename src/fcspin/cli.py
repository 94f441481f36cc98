"""Command-line sweeps over field and temperature with CSV or JSON output.

Every run is deterministic: the same invocation produces the same bytes, so
emitted files diff cleanly.  Soft per-point failures (breakdown, divergence,
complex termination) become status flags on the affected row; only unusable
arguments (exit 2) or a failure outside the per-row scope (exit 3) abort.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .cspa import cspa_result
from .errors import BreakdownError, NumericalError
from .exact import (MAX_EXACT_N, concurrence, diagonalize,
                    limit_temperatures, log_partition, pair_density,
                    thermal_observables)
from .meanfield import (critical_constants, log_partition_mfrpa,
                        mfrpa_observables, solve_mean_field)
from .oracle import (MAX_ORACLE_N, oracle_concurrence, oracle_log_partition,
                     oracle_observables)
from .params import ModelParams, check_temperature
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

@dataclass
class ResultRow:
    axis_value: float
    values: dict
    flags: list


# ---------------------------------------------------------------------------
# per-method evaluators: each fills ``row`` with the outputs in ``need`` at
# one (params, T) in place, so values and flags gathered before a failure
# stay on the row


def _pm_values(row: ResultRow, c_plus, c_minus, n: int) -> None:
    c = max([0.0] + [c for c in (c_plus, c_minus) if c is not None])
    row.values.update({"C": c, "nC": n * c, "C_plus": c_plus,
                       "C_minus": c_minus})


def _corr_values(row: ResultRow, corr) -> None:
    row.values.update({"alpha_x": corr.alpha_x, "alpha_y": corr.alpha_y,
                       "alpha_z": corr.alpha_z, "sz": corr.sz})


def _from_correlators(row: ResultRow, corr, n: int, need) -> None:
    if need & _CONC:
        rep = concurrence(pair_density(corr, n))
        _pm_values(row, rep.c_plus, rep.c_minus, n)
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
        rep = oracle_concurrence(params, T)
        _pm_values(row, rep.c_plus, rep.c_minus, params.n)
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
        if self.method == "exact" and self.params.n > MAX_EXACT_N:
            raise ValueError(
                f"exact method builds the spectrum: n <= {MAX_EXACT_N} "
                "required")
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
        if not all(map(math.isfinite, self.grid)):
            raise ValueError("grid values must be finite")
        check_temperature(self.temperature)
        if self.axis == "temperature":
            check_temperature(min(self.grid))


def run_sweep(spec: SweepSpec) -> list:
    """One ``ResultRow`` per grid value of ``spec``.

    A breakdown, numerical failure or invalid state becomes a row flag
    (``breakdown``, ``error:<Type>``) except on a ``"point"`` spec, which
    re-raises it.  Point and sweep rows also flag each requested output that
    came back empty (``missing:``, unless the row failed) or non-finite
    (``nonfinite:``); phase-map rows always carry T_c and no such flags.
    A temperature sweep computes the limit temperatures of its fixed
    parameters once.
    """
    method = _METHODS[spec.method]
    # a temperature sweep's rows share one parameter set
    limits = functools.cache(method.limits)
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
                row.values["T_L_plus"], row.values["T_L_minus"] = limits(p)
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


class _Option(NamedTuple):
    kind: object  # int, float, bool (a switch), str or a tuple of choices
    default: object
    help: str = ""


# every option once: the flag --key and the config key "key" share its kind
# and default, and a help string's %(default)s is read from here
_OPTIONS = {
    "n": _Option(int, None, "number of spins"),
    "b": _Option(float, 0.0, "field (energy units of --vx)"),
    "vx": _Option(float, 1.0,
                  "x coupling, the unit of energy (default %(default)s)"),
    "vy": _Option(float, None, "y coupling"),
    "chi": _Option(float, None, "anisotropy (v_y - v_z)/(v_x - v_z); "
                                "alternative to --vy"),
    "vz": _Option(float, 0, "z coupling (default %(default)s)"),
    "T": _Option(float, 0, "temperature (default %(default)s)"),
    "method": _Option(METHODS, "exact"),
    "sweep": _Option(SWEEPS, None, "omit for a single-point evaluation"),
    "from": _Option(float, None, "sweep start"),
    "to": _Option(float, None, "sweep end"),
    "points": _Option(int, 50, "sweep length (default %(default)s)"),
    "geometric": _Option(bool, False, "geometric instead of linear spacing"),
    "outputs": _Option(str, DEFAULT_OUTPUTS, "comma-separated subset of: "
                       + ",".join(KNOWN_OUTPUTS)),
    "out": _Option(str, None, "output file (default stdout)"),
    "format": _Option(FORMATS, "csv"),
}
_ANISOTROPY = ("vy", "chi")  # mutually exclusive on the command line


def _parser() -> argparse.ArgumentParser:
    # a flag left off the command line is left off the namespace too
    p = argparse.ArgumentParser(
        prog="fcspin", argument_default=argparse.SUPPRESS,
        description="Thermal pair entanglement of uniformly coupled spins: "
                    "exact sweeps, mean-field + RPA estimates, and the "
                    "static-path approximation.")
    p.add_argument("--config", help="JSON file with the same keys as the "
                                    "long flags; explicit flags win")
    aniso = p.add_mutually_exclusive_group()
    for key, (kind, default, text) in _OPTIONS.items():
        group = aniso if key in _ANISOTROPY else p
        text %= {"default": default}
        if kind is bool:
            group.add_argument(f"--{key}", action="store_true", help=text)
        elif isinstance(kind, tuple):
            group.add_argument(f"--{key}", choices=kind, help=text)
        else:
            group.add_argument(f"--{key}", type=kind, help=text)
    return p


def _check_config(key: str, v, parser: argparse.ArgumentParser) -> None:
    """Exit 2 unless config value ``v`` fits the kind of option ``key``."""
    kind = _OPTIONS[key].kind
    if kind is bool or isinstance(v, bool):
        fits = kind is bool and isinstance(v, bool)
    elif kind is int:
        fits = isinstance(v, int) or isinstance(v, float) and v.is_integer()
    elif kind is float:
        fits = isinstance(v, (int, float))
    elif key == "outputs" and isinstance(v, list):
        fits = all(isinstance(s, str) for s in v)
    else:
        fits = isinstance(v, str)
    if not fits:
        parser.error(f"config {key!r} has the wrong type: {v!r}")
    if isinstance(kind, tuple) and v not in kind:
        parser.error(f"unknown {key} {v!r}")


def _build_job(args, parser: argparse.ArgumentParser):
    """((spec, format, grid metadata), output path) from the defaults, then
    the config file, then the flags.

    Every rejected argument exits 2 through ``parser.error``.
    """
    flags, cfg = vars(args), {}
    if "config" in flags:
        try:
            with open(flags.pop("config"), encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config: {exc}")
        if not isinstance(cfg, dict):
            parser.error("config must be a JSON object")
        unknown = set(cfg) - set(_OPTIONS)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        for key, v in cfg.items():
            _check_config(key, v, parser)
    # a --vy or --chi flag overrides both config spellings
    if any(key in flags for key in _ANISOTROPY):
        cfg = {k: v for k, v in cfg.items() if k not in _ANISOTROPY}
    elif all(key in cfg for key in _ANISOTROPY):
        parser.error("config sets both vy and chi")
    opt = {key: o.default for key, o in _OPTIONS.items()} | cfg | flags
    if opt["n"] is None:
        parser.error("--n is required (flag or config)")
    if opt["vy"] is None and opt["chi"] is None:
        parser.error("one of --vy/--chi is required (flag or config)")
    outputs = opt["outputs"]
    if isinstance(outputs, str):
        outputs = [s.strip() for s in outputs.split(",") if s.strip()]

    try:
        kw = dict(n=int(opt["n"]), b=float(opt["b"]), v_x=float(opt["vx"]),
                  v_z=float(opt["vz"]))
        params = (ModelParams(v_y=float(opt["vy"]), **kw) if opt["chi"] is None
                  else ModelParams.from_chi(chi=float(opt["chi"]), **kw))
        sweep = opt["sweep"]
        if sweep is None:
            sweep, grid, grid_meta = "point", (params.b,), None
        else:
            start, stop = opt["from"], opt["to"]
            if start is None or stop is None:
                parser.error("--from and --to are required for a sweep")
            points, geometric = int(opt["points"]), opt["geometric"]
            if geometric and (start <= 0 or stop <= 0):
                parser.error("geometric spacing needs positive --from/--to")
            # a non-finite end is SweepSpec's to reject, without warnings
            with np.errstate(invalid="ignore"):
                grid = tuple((np.geomspace if geometric else np.linspace)(
                    start, stop, points).tolist())
            grid_meta = {"from": float(start), "to": float(stop),
                         "points": points,
                         "spacing": "geometric" if geometric else "linear"}
        spec = SweepSpec(method=opt["method"], params=params,
                         temperature=float(opt["T"]), axis=sweep, grid=grid,
                         outputs=tuple(outputs))
    except ValueError as exc:
        parser.error(str(exc))
    return (spec, opt["format"], grid_meta), opt["out"]


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
