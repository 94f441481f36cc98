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

import numpy as np

from . import __version__
from .cspa import cspa_result
from .errors import BreakdownError, NumericalError
from .exact import (concurrence, diagonalize, limit_temperatures,
                    log_partition, pair_density, thermal_concurrence,
                    thermal_observables)
from .meanfield import (critical_constants, log_partition_mfrpa,
                        mfrpa_observables, solve_mean_field)
from .oracle import (MAX_ORACLE_N, oracle_concurrence, oracle_log_partition,
                     oracle_observables)
from .params import ModelParams
from .rpa import (asymptotic_concurrence, factorizing_field, full_concurrence,
                  limit_temperature_rpa)

METHODS = ("exact", "oracle", "mfrpa_full", "mfrpa_asymptotic", "cspa")
SWEEPS = ("field", "temperature", "phasemap")
FORMATS = ("csv", "json")
DEFAULT_OUTPUTS = ("C", "nC", "C_plus", "C_minus")
KNOWN_OUTPUTS = ("C", "nC", "C_plus", "C_minus", "alpha_x", "alpha_y",
                 "alpha_z", "sz", "lnZ", "omega", "lambda",
                 "T_L_plus", "T_L_minus")
PHASEMAP_COLUMNS = ("T_L_plus", "T_L_minus", "T_c")

# config-file keys mirror the long flags; argparse dests differ where the
# flag name is a Python keyword or a builtin
_CONFIG_KEYS = {
    "n": "n", "b": "b", "vx": "vx", "vy": "vy", "vz": "vz", "chi": "chi",
    "T": "T", "method": "method", "sweep": "sweep", "from": "start",
    "to": "stop", "points": "points", "geometric": "geometric",
    "outputs": "outputs", "out": "out", "format": "fmt",
}


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a method, fixed parameters, and the swept axis."""

    method: str
    params: ModelParams
    temperature: float
    axis: str  # "field" | "temperature"
    grid: tuple[float, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.axis not in ("field", "temperature"):
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if len(self.grid) < 2:
            raise ValueError("a sweep needs at least 2 points")
        if self.method == "oracle" and self.params.n > MAX_ORACLE_N:
            raise ValueError(
                f"oracle method is dense: n <= {MAX_ORACLE_N} required")
        bad = set(self.outputs) - set(KNOWN_OUTPUTS)
        if bad:
            raise ValueError(f"unknown outputs: {sorted(bad)}")


@dataclass
class ResultRow:
    axis_value: float
    values: dict
    flags: list


def _report_to_values(rep, n: int) -> dict:
    return {"C": rep.c, "nC": n * rep.c, "C_plus": rep.c_plus,
            "C_minus": rep.c_minus}


def _pm_to_values(c_plus, c_minus, n: int) -> dict:
    cs = [c for c in (c_plus, c_minus) if c is not None]
    c = max(0.0, *cs) if cs else 0.0
    return {"C": c, "nC": n * c, "C_plus": c_plus, "C_minus": c_minus}


def _corr_values(corr) -> dict:
    return {"alpha_x": corr.alpha_x, "alpha_y": corr.alpha_y,
            "alpha_z": corr.alpha_z, "sz": corr.sz}


def _limit_values(method: str, params: ModelParams) -> dict:
    if method in ("exact", "oracle"):
        lt = limit_temperatures(params)
        return {"T_L_plus": lt.t_plus, "T_L_minus": lt.t_minus}
    tp, tm = limit_temperature_rpa(params)
    return {"T_L_plus": tp, "T_L_minus": tm}


def _eval_point(method: str, params: ModelParams, T: float,
                outputs: tuple[str, ...], strict: bool = False) -> ResultRow:
    """All requested outputs at one (params, T) point, failures as flags.

    ``strict`` re-raises numerical failures instead of flagging them: sweep
    rows degrade softly, a single-point evaluation is a hard error.
    """
    need = set(outputs)
    values: dict = {}
    flags: list = []
    conc = need & {"C", "nC", "C_plus", "C_minus"}
    corr_keys = need & {"alpha_x", "alpha_y", "alpha_z", "sz"}
    limit_keys = need & {"T_L_plus", "T_L_minus"}
    n = params.n
    try:
        if method == "exact":
            spectra = diagonalize(params)
            if conc or corr_keys:
                obs = thermal_observables(spectra, T)
            if conc:
                values.update(_report_to_values(
                    concurrence(pair_density(obs, n)), n))
            if corr_keys:
                values.update(_corr_values(obs))
            if "lnZ" in need:
                values["lnZ"] = log_partition(spectra, T)
        elif method == "oracle":
            if conc:
                values.update(_report_to_values(oracle_concurrence(params, T), n))
            if corr_keys:
                values.update(_corr_values(oracle_observables(params, T)))
            if "lnZ" in need:
                values["lnZ"] = oracle_log_partition(params, T)
        elif method == "mfrpa_full":
            sol = solve_mean_field(params, T)
            flags.append("phase=sb" if sol.phase == "symmetry_breaking"
                         else "phase=normal")
            if conc:
                full = full_concurrence(params, T)
                if full.complex_terminated:
                    flags.append("complex_termination")
                values.update(_pm_to_values(full.c_plus, full.c_minus, n))
            if corr_keys:
                values.update(_corr_values(mfrpa_observables(params, T)))
            if "lnZ" in need:
                values["lnZ"] = log_partition_mfrpa(params, T)
            if "omega" in need:
                values["omega"] = sol.omega
            if "lambda" in need:
                values["lambda"] = sol.gap
        elif method == "mfrpa_asymptotic":
            sol = solve_mean_field(params, T)
            flags.append("phase=sb" if sol.phase == "symmetry_breaking"
                         else "phase=normal")
            if conc:
                cp, cm = asymptotic_concurrence(params, T)
                values.update(_pm_to_values(cp, cm, n))
            if "omega" in need:
                values["omega"] = sol.omega
            if "lambda" in need:
                values["lambda"] = sol.gap
        else:  # cspa
            res = cspa_result(params, T)
            if conc:
                values.update(_report_to_values(
                    concurrence(pair_density(res.corr, n)), n))
            if corr_keys:
                values.update(_corr_values(res.corr))
            if "lnZ" in need:
                values["lnZ"] = res.ln_z
        if limit_keys:
            values.update(_limit_values(method, params))
    except BreakdownError:
        if strict:
            raise
        flags.append("breakdown")
    except (NumericalError, ValueError) as exc:
        if strict:
            raise
        flags.append(f"error:{type(exc).__name__}")

    failed = any(f == "breakdown" or f.startswith("error:") for f in flags)
    for name in outputs:
        v = values.setdefault(name, None)
        if v is None:
            if not failed:
                flags.append(f"missing:{name}")
        elif not math.isfinite(v):
            flags.append(f"nonfinite:{name}")
    return ResultRow(axis_value=float("nan"), values=values, flags=flags)


def run_sweep(spec: SweepSpec) -> list:
    """Evaluate the sweep; per-point failures become row flags, not aborts."""
    rows = []
    for val in spec.grid:
        if spec.axis == "field":
            p, T = spec.params.with_field(val), spec.temperature
        else:
            p, T = spec.params, val
        row = _eval_point(spec.method, p, T, spec.outputs)
        row.axis_value = float(val)
        rows.append(row)
    return rows


def run_phase_map(params: ModelParams, b_grid, method: str) -> list:
    """Limit temperatures per field value, with T_c(b) alongside."""
    if method not in ("exact", "mfrpa_asymptotic"):
        raise ValueError(
            "phasemap supports methods 'exact' and 'mfrpa_asymptotic'")
    pc = critical_constants(params)
    rows = []
    for b in b_grid:
        p = params.with_field(float(b))
        values = {"T_L_plus": None, "T_L_minus": None,
                  "T_c": pc.critical_temperature(float(b))}
        flags: list = []
        try:
            values.update(_limit_values(method, p))
        except (NumericalError, ValueError) as exc:
            flags.append(f"error:{type(exc).__name__}")
        rows.append(ResultRow(axis_value=float(b), values=values, flags=flags))
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


@dataclass
class _Job:
    mode: str  # "point" | "field" | "temperature" | "phasemap"
    method: str
    params: ModelParams
    temperature: float
    grid: tuple
    outputs: tuple
    fmt: str
    out: str | None
    grid_meta: dict | None


def _build_job(args, parser: argparse.ArgumentParser) -> _Job:
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
    try:
        if chi is not None:
            params = ModelParams.from_chi(n=int(n), b=float(b),
                                          chi=float(chi), v_x=float(vx),
                                          v_z=float(vz))
        else:
            params = ModelParams(n=int(n), b=float(b), v_x=float(vx),
                                 v_y=float(vy), v_z=float(vz))
    except ValueError as exc:
        parser.error(str(exc))

    method = pick("method", "exact")
    if method not in METHODS:
        parser.error(f"unknown method {method!r}")
    if method == "oracle" and params.n > MAX_ORACLE_N:
        parser.error(f"oracle method is dense: n <= {MAX_ORACLE_N} required")
    temperature = float(pick("T", 0.0))
    if temperature < 0:
        parser.error("--T must be nonnegative")
    fmt = pick("format", "csv")
    if fmt not in FORMATS:
        parser.error(f"unknown format {fmt!r}")
    out = pick("out")

    raw = pick("outputs")
    if raw is None:
        outputs = DEFAULT_OUTPUTS
    else:
        if isinstance(raw, str):
            outputs = tuple(s.strip() for s in raw.split(",") if s.strip())
        else:
            outputs = tuple(raw)
        bad = set(outputs) - set(KNOWN_OUTPUTS)
        if bad:
            parser.error(f"unknown outputs: {sorted(bad)}")
        if not outputs:
            parser.error("empty outputs list")

    sweep = pick("sweep")
    if sweep is None:
        return _Job("point", method, params, temperature, (params.b,),
                    outputs, fmt, out, None)
    if sweep not in SWEEPS:
        parser.error(f"unknown sweep {sweep!r}")
    start, stop = pick("from"), pick("to")
    if start is None or stop is None:
        parser.error("--from and --to are required for a sweep")
    points = int(pick("points", 50))
    geometric = bool(pick("geometric", False))
    if points < 2:
        parser.error("a sweep needs --points >= 2")
    if geometric and (start <= 0 or stop <= 0):
        parser.error("geometric spacing needs positive --from/--to")
    grid = (np.geomspace if geometric else np.linspace)(float(start),
                                                        float(stop), points)
    grid_meta = {"from": float(start), "to": float(stop), "points": points,
                 "spacing": "geometric" if geometric else "linear"}
    if sweep == "phasemap" and method not in ("exact", "mfrpa_asymptotic"):
        parser.error("phasemap supports methods 'exact' and 'mfrpa_asymptotic'")
    return _Job(sweep, method, params, temperature, tuple(float(g) for g in grid),
                outputs, fmt, out, grid_meta)


def _metadata(job: _Job) -> dict:
    p = job.params
    chi = p.chi
    meta = {
        "package": "fcspin",
        "version": __version__,
        "method": job.method,
        "mode": job.mode,
        "params": {"n": p.n, "b": p.b, "v_x": p.v_x, "v_y": p.v_y,
                   "v_z": p.v_z, "chi": None if math.isnan(chi) else chi},
        "T": job.temperature,
        "unit_convention": f"energies in units of v_x = {p.v_x!r}",
        "grid": job.grid_meta,
        "outputs": list(job.outputs if job.mode != "phasemap"
                        else PHASEMAP_COLUMNS),
    }
    if job.mode == "phasemap":
        pc = critical_constants(p)
        ff = factorizing_field(p)
        meta["b_c"] = pc.b_c
        meta["b_s"] = None if ff is None else ff.mean_field
        meta["b_s_finite_n"] = None if ff is None else ff.finite_n
    return meta


def _run_job(job: _Job) -> str:
    if job.mode == "phasemap":
        rows = run_phase_map(job.params, job.grid, job.method)
        axis, columns = "b", PHASEMAP_COLUMNS
    elif job.mode == "point":
        row = _eval_point(job.method, job.params, job.temperature,
                          job.outputs, strict=True)
        row.axis_value = job.params.b
        rows, axis, columns = [row], "b", job.outputs
    else:
        spec = SweepSpec(method=job.method, params=job.params,
                         temperature=job.temperature, axis=job.mode,
                         grid=job.grid, outputs=job.outputs)
        rows = run_sweep(spec)
        axis = "b" if job.mode == "field" else "T"
        columns = job.outputs
    if job.fmt == "csv":
        return emit_csv(axis, columns, rows)
    return emit_json(_metadata(job), axis, columns, rows)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    job = _build_job(args, parser)
    try:
        text = _run_job(job)
        if job.out:
            with open(job.out, "w", encoding="utf-8") as fh:
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
