"""Command-line surface: exit codes, formats, reproducibility."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fcspin.cli
from fcspin import (BreakdownError, DivergenceError, ModelParams,
                    asymptotic_concurrence, concurrence, cspa_result,
                    diagonalize, full_concurrence, limit_temperature_rpa,
                    limit_temperatures, log_partition, log_partition_mfrpa,
                    mfrpa_observables, oracle_concurrence,
                    oracle_log_partition, oracle_observables, pair_density,
                    solve_mean_field, thermal_concurrence,
                    thermal_observables)
from fcspin.cli import (KNOWN_OUTPUTS, METHODS, ResultRow, SweepSpec,
                        emit_csv, emit_json, main, run_sweep)


# the child process imports the same fcspin as this one, installed or not
SRC = str(Path(fcspin.cli.__file__).resolve().parents[1])


def run_cli(*args: str, **env: str):
    """Exit code, stdout and stderr of the CLI in a fresh process; ``env``
    adds to its environment."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fcspin.cli", *args],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, **env, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# exit codes


def test_single_point_ok():
    code, out, _ = run_cli("--n", "10", "--chi", "0.5", "--b", "0.4",
                           "--T", "0.1")
    assert code == 0
    assert out.startswith("b,")


def test_bad_arguments_exit_2():
    cases = [
        ("--n", "10"),                                   # vy/chi missing
        ("--chi", "0.5", "--b", "0.1"),                  # n missing
        ("--n", "10", "--chi", "0.5", "--T", "-1"),      # negative T
        ("--n", "10", "--chi", "0.5", "--sweep", "field",
         "--from", "0", "--to", "1", "--points", "1"),   # degenerate grid
        ("--n", "40", "--chi", "0.5", "--method", "oracle"),  # oracle too big
        ("--n", "10", "--chi", "0.5", "--outputs", "bogus"),
        ("--n", "10", "--chi", "0.5", "--sweep", "field", "--points", "5"),
        # non-finite temperatures and sweep ends
        ("--n", "10", "--chi", "0.5", "--b", "0.4", "--T", "inf",
         "--method", "mfrpa_full"),
        ("--n", "10", "--chi", "0.5", "--T", "nan", "--method", "exact"),
        ("--n", "10", "--chi", "0.5", "--sweep", "temperature",
         "--from", "0.1", "--to", "nan", "--points", "3"),
        ("--n", "10", "--chi", "0.5", "--sweep", "field",
         "--from=-inf", "--to", "1", "--points", "3"),
    ]
    for args in cases:
        code, _, err = run_cli(*args)
        assert code == 2, (args, err)


@pytest.mark.parametrize("bad", [
    {"T": math.inf},
    {"sweep": "temperature", "from": 0.1, "to": math.nan, "points": 3},
], ids=["T-inf", "to-nan"])
def test_nonfinite_config_value_exits_2(tmp_path, capsys, bad):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"n": 8, "chi": 0.5, **bad}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)])
    assert exc.value.code == 2
    assert "must be finite" in capsys.readouterr().err


def _argv(job: dict) -> list:
    """The flags that spell the config-file ``job``."""
    argv = []
    for key, v in job.items():
        argv += [f"--{key}"] if v is True else [
            f"--{key}", ",".join(v) if isinstance(v, list) else str(v)]
    return argv


_NEGATIVE_T_SWEEP = {"n": 6, "chi": 0.5, "b": 0.3, "method": "exact",
                     "sweep": "temperature", "from": -0.2, "to": 0.2,
                     "points": 3}


@pytest.mark.parametrize("by", ["flags", "config"])
def test_temperature_sweep_below_zero_exits_2(tmp_path, capsys, by):
    # sweep temperatures follow the rule of --T
    argv = _argv(_NEGATIVE_T_SWEEP)
    if by == "config":
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(_NEGATIVE_T_SWEEP))
        argv = ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be finite and nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("by", ["flags", "config"])
def test_exact_method_past_its_size_cap_exits_2(tmp_path, capsys, by):
    # the default method is exact; n = 10^23 once ended in an OverflowError
    # traceback (exit 1), and n = 10^7 in a build of 2.5e13 levels
    argv = ["--n", "99999999999999999999999", "--chi", "0.5"]
    if by == "config":
        cfg = tmp_path / "job.json"
        cfg.write_text('{"n": 99999999999999999999999, "chi": 0.5}')
        argv = ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "n <= 100000 required" in capsys.readouterr().err


def test_mfrpa_keeps_every_size(capsys):
    assert main(["--n", "99999999999999999999999", "--chi", "0.5",
                 "--method", "mfrpa_full"]) == 0


def test_temperature_sweep_from_zero_flags_only_its_cold_row(capsys):
    # T = 0 is a valid temperature; ln Z needs 1/T, so only that cell fails
    assert main(["--n", "8", "--chi", "0.5", "--b", "0.3", "--method",
                 "mfrpa_full", "--sweep", "temperature", "--from", "0",
                 "--to", "0.2", "--points", "3", "--outputs", "lnZ"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows[0] == "0.0,,phase=sb;error:ValueError"
    for row in rows[1:]:
        assert math.isfinite(float(row.split(",")[1]))


def test_single_spin_has_no_pair(capsys):
    # a point exits 3; a sweep flags each row and exits 0
    argv = ["--n", "1", "--chi", "0.5", "--T", "0.1", "--method", "oracle",
            "--outputs", "alpha_x"]
    assert main(argv) == 3
    assert "pair correlators need n >= 2" in capsys.readouterr().err
    assert main(argv + ["--sweep", "field", "--from", "0", "--to", "1",
                        "--points", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows == ["0.0,,error:ValueError", "1.0,,error:ValueError"]


def test_numerical_failure_exits_3():
    # far below the static-path validity boundary
    code, _, err = run_cli("--n", "100", "--chi", "0.5", "--b", "0.5",
                           "--T", "0.01", "--method", "cspa")
    assert code == 3
    assert "omega" in err or "breakdown" in err.lower()


def test_soft_flags_keep_exit_zero():
    # mean-field methods flag their phase per row without failing the run
    code, out, _ = run_cli("--n", "100", "--chi", "0.5", "--b", "0.4",
                           "--T", "0.1", "--method", "mfrpa_asymptotic")
    assert code == 0
    assert "phase=" in out


def test_sweep_degrades_row_by_row():
    # on the isotropic line the ordered phase has a zero mode, so the
    # cold-side row is flagged while its neighbors stay numeric
    code, out, _ = run_cli("--n", "100", "--chi", "1.0", "--T", "0.14",
                           "--method", "mfrpa_full", "--sweep", "field",
                           "--from", "0.5", "--to", "1.5", "--points", "3",
                           "--outputs", "lnZ")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert "error:DivergenceError" in lines[0]
    for ln in lines[1:]:
        assert math.isfinite(float(ln.split(",")[1]))


def test_sweep_past_the_validity_boundary_stays_soft():
    # every row refuses at this temperature, yet the sweep itself succeeds
    code, out, _ = run_cli("--n", "100", "--chi", "0.5", "--T", "0.02",
                           "--method", "cspa", "--sweep", "field",
                           "--from", "0.4", "--to", "0.8", "--points", "2")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert "breakdown" in line


# ---------------------------------------------------------------------------
# output content


def test_single_point_matches_library():
    code, out, _ = run_cli("--n", "10", "--chi", "0.5", "--b", "0.4",
                           "--T", "0.1", "--outputs", "C,nC")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "b,C,nC,flags"
    vals = row.split(",")
    p = ModelParams.from_chi(10, 0.4, 0.5)
    want = thermal_concurrence(p, 0.1).c
    assert math.isclose(float(vals[1]), want, rel_tol=1e-12)
    assert math.isclose(float(vals[2]), 10 * want, rel_tol=1e-12)


def _library_row(method: str, p: ModelParams, T: float):
    """Every output and the documented flags, from direct library calls."""
    n = p.n
    flags = []
    if method in ("exact", "oracle", "cspa"):
        if method == "exact":
            spectra = diagonalize(p)
            corr = thermal_observables(spectra, T)
            rep = concurrence(pair_density(corr, n))
            ln_z = log_partition(spectra, T)
        elif method == "oracle":
            rep = oracle_concurrence(p, T)
            corr = oracle_observables(p, T)
            ln_z = oracle_log_partition(p, T)
        else:
            res = cspa_result(p, T)
            corr, ln_z = res.corr, res.ln_z
            rep = concurrence(pair_density(corr, n))
        c, c_plus, c_minus = rep.c, rep.c_plus, rep.c_minus
        values = {"lnZ": ln_z}
    else:
        sol = solve_mean_field(p, T)
        flags.append("phase=sb" if sol.phase == "symmetry_breaking"
                     else "phase=normal")
        values = {"omega": sol.omega, "lambda": sol.gap}
        corr = None
        if method == "mfrpa_full":
            full = full_concurrence(p, T)
            if full.complex_terminated:
                flags.append("complex_termination")
            c_plus, c_minus = full.c_plus, full.c_minus
            corr = mfrpa_observables(p, T)
            values["lnZ"] = log_partition_mfrpa(p, T)
        else:  # no correlators and no ln Z
            c_plus, c_minus = asymptotic_concurrence(p, T)
        c = max([0.0] + [x for x in (c_plus, c_minus) if x is not None])
    values.update({"C": c, "nC": n * c, "C_plus": c_plus, "C_minus": c_minus})
    if corr is not None:
        values.update({"alpha_x": corr.alpha_x, "alpha_y": corr.alpha_y,
                       "alpha_z": corr.alpha_z, "sz": corr.sz})
    if method in ("exact", "oracle"):  # the block solver's limits
        lt = limit_temperatures(p)
        values["T_L_plus"], values["T_L_minus"] = lt.t_plus, lt.t_minus
    else:  # the MF+RPA estimate
        values["T_L_plus"], values["T_L_minus"] = limit_temperature_rpa(p)
    for name in KNOWN_OUTPUTS:
        v = values.get(name)
        if v is None:
            flags.append(f"missing:{name}")
        elif not math.isfinite(v):
            flags.append(f"nonfinite:{name}")
    return values, flags


@pytest.mark.parametrize("method", METHODS)
def test_every_output_matches_the_library(method, capsys):
    base = ["--n", "8", "--chi", "0.5", "--method", method,
            "--outputs", ",".join(KNOWN_OUTPUTS)]
    runs = [
        (["--T", "0.3", "--sweep", "field", "--from", "0.2", "--to", "1.8",
          "--points", "3"], "b"),
        (["--b", "0.6", "--sweep", "temperature", "--from", "0.15",
          "--to", "1.0", "--points", "3"], "T"),
        (["--b", "0.4", "--T", "0.3"], "b"),
    ]
    p0 = ModelParams.from_chi(8, 0.6, 0.5)
    for args, axis in runs:
        assert main(base + args) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header == ",".join([axis, *KNOWN_OUTPUTS, "flags"])
        assert len(lines) == (1 if "--sweep" not in args else 3)
        for line in lines:
            cells = line.split(",")
            x = float(cells[0])
            p, T = (p0, x) if axis == "T" else (p0.with_field(x), 0.3)
            values, flags = _library_row(method, p, T)
            want = ["" if values.get(k) is None else repr(values[k])
                    for k in KNOWN_OUTPUTS]
            assert cells[1:-1] == want, (args, x)
            assert cells[-1] == ";".join(flags), (args, x)


@pytest.mark.parametrize("method", ["exact", "mfrpa_asymptotic"])
def test_phase_map_rows_always_carry_t_c_and_no_gap_flags(method):
    p = ModelParams.from_chi(60, 0.0, 0.5)
    grid = tuple(float(b) for b in np.linspace(0.0, 2.5, 11))
    rows = run_sweep(SweepSpec(method=method, params=p, temperature=0.0,
                               axis="phasemap", grid=grid, outputs=("C",)))
    assert [r.axis_value for r in rows] == list(grid)
    assert any(r.values["T_L_plus"] is None or r.values["T_L_minus"] is None
               for r in rows)
    for r in rows:
        assert set(r.values) == {"T_L_plus", "T_L_minus", "T_c"}
        assert isinstance(r.values["T_c"], float)
        assert not any(f.startswith(("missing:", "nonfinite:"))
                       for f in r.flags)


@pytest.mark.parametrize("method, name", [
    ("exact", "limit_temperatures"), ("mfrpa_full", "limit_temperature_rpa")])
def test_temperature_sweep_computes_its_limits_once(method, name,
                                                    monkeypatch):
    # the parameters stay fixed along a temperature sweep; a field sweep
    # still needs one call per row
    real, calls = getattr(fcspin.cli, name), []

    def spy(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(fcspin.cli, name, spy)
    p = ModelParams.from_chi(40, 0.6, 0.5)
    grid = (0.02, 0.1, 0.3, 0.6)
    spec = SweepSpec(method=method, params=p, temperature=0.1,
                     axis="temperature", grid=grid,
                     outputs=("C", "T_L_plus", "T_L_minus"))
    rows = run_sweep(spec)
    assert calls == [p]
    lt = real(p)
    want = (lt.t_plus, lt.t_minus) if method == "exact" else lt
    assert want != (None, None)
    for r in rows:
        assert (r.values["T_L_plus"], r.values["T_L_minus"]) == want
    calls.clear()
    run_sweep(dataclasses.replace(spec, axis="field"))
    assert calls == [p.with_field(b) for b in grid]


@pytest.mark.parametrize("exc, flag", [
    (BreakdownError, "breakdown"), (DivergenceError, "error:DivergenceError"),
    (ValueError, "error:ValueError")])
def test_temperature_sweep_flags_every_row_when_its_limits_fail(
        exc, flag, monkeypatch):
    def failing(p):
        raise exc("no limit temperature")

    monkeypatch.setattr(fcspin.cli, "limit_temperature_rpa", failing)
    rows = run_sweep(SweepSpec(
        method="mfrpa_full", params=ModelParams.from_chi(40, 0.6, 0.5),
        temperature=0.1, axis="temperature", grid=(0.02, 0.1, 0.3),
        outputs=("C", "T_L_plus")))
    for r in rows:
        # the values evaluated before the failure stay on each row
        assert r.flags[-1] == flag and r.flags[0].startswith("phase=")
        assert r.values["C"] is not None and r.values["T_L_plus"] is None


def test_sweep_reruns_are_byte_identical():
    args = ("--n", "12", "--chi", "0.5", "--T", "0.1", "--sweep", "field",
            "--from", "0.0", "--to", "1.5", "--points", "7")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2
    _, js1, _ = run_cli(*args, "--format", "json")
    _, js2, _ = run_cli(*args, "--format", "json")
    assert js1 == js2


def test_exact_sweep_bytes_do_not_depend_on_blas_threads():
    # dstevd's merge steps multiply eigenvector blocks with dgemm, which
    # OpenBLAS may split over threads
    args = ("--n", "300", "--chi", "0.5", "--b", "0.5", "--sweep",
            "temperature", "--from", "0.02", "--to", "2.0", "--points", "40",
            "--outputs", "C,nC,C_plus,C_minus,alpha_x,alpha_y,alpha_z,sz,lnZ,"
            "T_L_plus,T_L_minus")
    outs = []
    for threads in ("1", "2"):
        code, out, err = run_cli(*args, OPENBLAS_NUM_THREADS=threads,
                                 OMP_NUM_THREADS=threads)
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 41


def test_csv_column_count():
    code, out, _ = run_cli("--n", "8", "--chi", "0.5", "--T", "0.2",
                           "--sweep", "field", "--from", "0.0", "--to", "2.0",
                           "--points", "5", "--outputs", "C,sz,lnZ")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b,C,sz,lnZ,flags"
    assert len(lines) == 6
    for line in lines[1:]:
        assert len(line.split(",")) == 5


def test_json_round_trip():
    code, out, _ = run_cli("--n", "8", "--chi", "0.5", "--T", "0.2",
                           "--sweep", "temperature", "--from", "0.05",
                           "--to", "1.0", "--points", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["method"] == "exact"
    assert doc["metadata"]["params"]["n"] == 8
    assert "version" in doc["metadata"] or "versions" in doc["metadata"]
    assert doc["metadata"]["grid"]["points"] == 4
    assert len(doc["rows"]) == 4
    for row in doc["rows"]:
        for c in doc["columns"]:
            assert c in row
        for name, v in row.items():
            if name != "flags":
                assert v is None or isinstance(v, (int, float))
    # floats survive a json round trip exactly
    again = json.loads(json.dumps(doc))
    assert again == doc


def test_geometric_grid_in_metadata():
    code, out, _ = run_cli("--n", "8", "--chi", "0.5", "--T", "0.2",
                           "--sweep", "field", "--from", "0.1", "--to", "1.6",
                           "--points", "5", "--geometric", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    axis = [row["b"] for row in doc["rows"]]
    ratios = [axis[i + 1] / axis[i] for i in range(len(axis) - 1)]
    assert all(math.isclose(r, ratios[0], rel_tol=1e-9) for r in ratios)


def test_units_recorded():
    code, out, _ = run_cli("--n", "8", "--chi", "0.5", "--vx", "2.5",
                           "--b", "0.3", "--T", "0.2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert "2.5" in doc["metadata"]["unit_convention"]


# ---------------------------------------------------------------------------
# phase map


def test_phase_map_columns_and_marks():
    code, out, _ = run_cli("--n", "60", "--chi", "0.5", "--sweep", "phasemap",
                           "--from", "0.05", "--to", "1.8", "--points", "8",
                           "--method", "mfrpa_asymptotic", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["b", "T_L_plus", "T_L_minus", "T_c", "flags"]
    for mark in ("b_c", "b_s", "b_s_finite_n"):
        assert mark in doc["metadata"]
    rows = doc["rows"]
    assert len(rows) == 8
    # T_c positive below b_c, zero at or above
    for row in rows:
        if row["b"] < doc["metadata"]["b_c"]:
            assert row["T_c"] > 0.0
        else:
            assert row["T_c"] == 0.0


def test_exact_phase_map_reads_limit_temperatures_above_2_vx():
    # the exact scan's base grid ends at 2 v_x; T_L+ at b = 40 is 3.86 v_x
    code, out, _ = run_cli("--n", "100", "--chi", "0.5", "--method", "exact",
                           "--sweep", "phasemap", "--from", "10", "--to", "40",
                           "--points", "4", "--format", "json")
    assert code == 0
    last = json.loads(out)["rows"][-1]
    assert last["b"] == 40.0
    assert last["T_L_plus"] > 2.0


def test_critical_temperature_ignores_anisotropy():
    out_a = run_cli("--n", "60", "--chi", "0.3", "--sweep", "phasemap",
                    "--from", "0.1", "--to", "0.9", "--points", "4",
                    "--method", "mfrpa_asymptotic", "--format", "json")[1]
    out_b = run_cli("--n", "60", "--chi", "0.7", "--sweep", "phasemap",
                    "--from", "0.1", "--to", "0.9", "--points", "4",
                    "--method", "mfrpa_asymptotic", "--format", "json")[1]
    tc_a = [r["T_c"] for r in json.loads(out_a)["rows"]]
    tc_b = [r["T_c"] for r in json.loads(out_b)["rows"]]
    assert tc_a == tc_b


def test_phase_map_rejects_unsupported_methods():
    code, _, _ = run_cli("--n", "60", "--chi", "0.5", "--sweep", "phasemap",
                         "--from", "0.1", "--to", "0.9", "--points", "4",
                         "--method", "cspa")
    assert code == 2


# ---------------------------------------------------------------------------
# config file


def test_config_file_mirrors_flags(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "n": 10, "chi": 0.5, "b": 0.4, "T": 0.1, "outputs": "C,nC",
    }))
    _, from_cfg, _ = run_cli("--config", str(cfg))
    _, from_flags, _ = run_cli("--n", "10", "--chi", "0.5", "--b", "0.4",
                               "--T", "0.1", "--outputs", "C,nC")
    assert from_cfg == from_flags


_JOB = {"n": 6, "chi": 0.5, "b": 0.3, "T": 0.1}
_FIELD = {"sweep": "field", "from": 0.1, "to": 0.9, "points": 3}
# a job that sets each option; integer floats stay integers in the config
_SETTINGS = {
    "n": {"n": 7},
    "b": {"b": 0.7},
    "vx": {"vx": 2},
    "vy": {"vy": -0.3},
    "chi": {"chi": 0.25},
    "vz": {"vz": -0.2},
    "T": {"T": 0.3},
    "method": {"method": "oracle"},
    "sweep": {**_FIELD, "sweep": "phasemap"},
    "from": {**_FIELD, "sweep": "temperature", "from": 0},
    "to": {**_FIELD, "to": 2},
    "points": {**_FIELD, "points": 4},
    "geometric": {**_FIELD, "geometric": True},
    "outputs": {"outputs": ["C", "sz", "lnZ"]},
    "out": {"out": "job.csv"},
    "format": {**_FIELD, "format": "json"},
}


@pytest.mark.parametrize("key", fcspin.cli._OPTIONS)
def test_every_config_key_matches_its_flag(tmp_path, monkeypatch, capsys,
                                           key):
    job = {**_JOB, **_SETTINGS[key]}
    if key == "vy":
        del job["chi"]
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job))
    monkeypatch.chdir(tmp_path)

    def output(argv):
        assert main(argv) == 0
        text = capsys.readouterr().out
        if key == "out":
            text = Path("job.csv").read_text()
            Path("job.csv").unlink()
        return text

    from_cfg = output(["--config", str(cfg)])
    assert from_cfg and from_cfg == output(_argv(job))


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"n": 10, "chi": 0.5, "b": 0.4, "T": 0.1}))
    _, out, _ = run_cli("--config", str(cfg), "--b", "0.8")
    _, want, _ = run_cli("--n", "10", "--chi", "0.5", "--b", "0.8",
                         "--T", "0.1")
    assert out == want


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"n": 10, "chi": 0.5, "banana": 1}))
    code, _, _ = run_cli("--config", str(cfg))
    assert code == 2


def test_config_rejects_vy_chi_conflict(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"n": 10, "chi": 0.5, "vy": 0.5, "b": 0.1}))
    code, _, _ = run_cli("--config", str(cfg))
    assert code == 2


_SWEEP = {"sweep": "field", "from": 0.1, "to": 1.0, "points": 3}


@pytest.mark.parametrize("bad", [
    {"T": "warm"},
    {**_SWEEP, "from": "a", "geometric": True},
    {"n": [8]},
    {"outputs": 5},
    {"n": 8.7},
    {**_SWEEP, "points": 4.5},
    {"n": True},
    {"chi": "0.5"},
    {"outputs": ["C", 5]},
], ids=lambda d: ",".join(f"{k}={v!r}" for k, v in d.items()
                         if k not in _SWEEP or _SWEEP[k] != v))
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, bad):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"n": 8, "chi": 0.5, **bad}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)])
    assert exc.value.code == 2
    assert "wrong type" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# emitters as a library


def test_empty_table_is_header_only():
    text = emit_csv("b", ["C", "nC"], [])
    assert text == "b,C,nC,flags\n"


def test_csv_escapes_nothing_and_joins_flags():
    rows = [ResultRow(axis_value=0.5, values={"C": 0.125, "nC": None},
                      flags=["phase=sb", "missing:nC"])]
    text = emit_csv("b", ["C", "nC"], rows)
    lines = text.strip().splitlines()
    assert lines[1] == "0.5,0.125,,phase=sb;missing:nC"


def test_json_nonfinite_becomes_null():
    rows = [ResultRow(axis_value=1.0, values={"C": math.inf}, flags=["x"])]
    doc = json.loads(emit_json({}, "b", ["C"], rows))
    assert doc["rows"][0]["C"] is None


def test_run_sweep_oracle_guard():
    p = ModelParams.from_chi(40, 0.1, 0.5)
    with pytest.raises(ValueError, match="oracle"):
        SweepSpec(method="oracle", params=p, temperature=0.1, axis="field",
                  grid=(0.0, 0.5, 1.0), outputs=("C",))


@pytest.mark.parametrize("changes, match", [
    ({"method": "bogus"}, "unknown method"),
    ({"axis": "b"}, "unknown sweep axis"),
    ({"outputs": ("C", "bogus")}, "unknown outputs"),
    ({"outputs": ()}, "empty outputs"),
    ({"grid": (0.5,)}, "at least 2 points"),
    ({"axis": "point"}, "exactly 1 grid value"),
    ({"axis": "phasemap", "method": "cspa"}, "phasemap supports"),
    ({"grid": (0.0, math.inf)}, "grid values must be finite"),
    ({"temperature": -0.1}, "finite and nonnegative"),
    ({"axis": "temperature", "grid": (-0.2, 0.0, 0.2)},
     "finite and nonnegative"),
])
def test_sweep_spec_rejects(changes, match):
    kw = dict(method="exact", params=ModelParams.from_chi(8, 0.1, 0.5),
              temperature=0.1, axis="field", grid=(0.0, 0.5, 1.0),
              outputs=("C",))
    with pytest.raises(ValueError, match=match):
        SweepSpec(**{**kw, **changes})


def test_main_returns_not_raises():
    # library entry point mirrors the subprocess behavior
    assert main(["--n", "8", "--chi", "0.5", "--b", "0.2", "--T", "0.1",
                 "--out", "/dev/null"]) == 0
    assert main(["--n", "100", "--chi", "0.5", "--b", "0.5", "--T", "0.01",
                 "--method", "cspa", "--out", "/dev/null"]) == 3


def test_programmer_errors_keep_their_traceback(monkeypatch):
    # only I/O and numerical failures map to exit 3; a bug propagates
    def broken(job):
        raise TypeError("bug")

    monkeypatch.setattr(fcspin.cli, "_run_job", broken)
    with pytest.raises(TypeError, match="bug"):
        main(["--n", "8", "--chi", "0.5", "--b", "0.2", "--T", "0.1"])
