"""Sweep grids, CSV/manifest emission, config overlays, and the CLI."""

import math
import re
from configparser import ConfigParser
from dataclasses import replace

import pytest

from szilard import (ATOMIC_MASS, Axis, ConfigError, EV, K_B, MuMode,
                     TruncationPolicy, even_levels, load_config,
                     parse_quantity, preset, preset_names, run_sweep,
                     spec_from_config, validate)
from szilard import cycle, ensembles, sweeps
from szilard.cli import main

FLOAT_CELL = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def _run(spec, tmp_path, name="out.csv"):
    return run_sweep(spec, csv_path=str(tmp_path / name))


def test_preset_names_cover_all_targets():
    names = preset_names()
    for target in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                   "fig9", "fig9-inset", "fig10", "fig11", "custom"):
        assert target in names
    with pytest.raises(ConfigError):
        preset("fig1")


def test_grid_order_lists_before_axes():
    spec = preset("fig8")
    names = [name for name, _ in spec.grid()]
    assert names == ["nu", "N", "scale_ratio"]


class TestAxis:

    def test_values(self):
        lin = Axis("T", 1.0, 3.0, 5).values()
        assert lin[0] == 1.0 and lin[-1] == 3.0 and len(lin) == 5
        log = Axis("omega", 1.0, 100.0, 3, "log").values()
        assert log[1] == pytest.approx(10.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Axis("T", 2.0, 1.0, 5)
        with pytest.raises(ConfigError):
            Axis("T", 1.0, 2.0, 1)
        with pytest.raises(ConfigError):
            Axis("T", 1.0, 2.0, 5, "cubic")
        with pytest.raises(ConfigError):
            Axis("T", 0.0, 2.0, 5, "log")


class TestQuantities:

    def test_plain_and_units(self):
        assert parse_quantity("1e10") == 1e10
        assert parse_quantity("-3.5") == -3.5
        assert parse_quantity("8.7 eV") == 8.7 * EV
        assert parse_quantity("1.1 u") == 1.1 * ATOMIC_MASS
        assert parse_quantity("2u") == 2.0 * ATOMIC_MASS
        assert parse_quantity("inf") == math.inf
        assert parse_quantity("Infinity") == math.inf

    def test_rejects_garbage(self):
        for text in ("abc", "3 kg", "1e", ""):
            with pytest.raises(ConfigError):
                parse_quantity(text)


class TestCsvOutput:

    def test_barrier_rows_match_solver(self, tmp_path):
        outcome = _run(preset("fig6"), tmp_path)
        assert outcome.points == 36 and outcome.failed == 0
        by_point = {(row["strength"], row["branch"]): row
                    for row in outcome.rows}
        for lam in (0.0, 1.0, 10.0, 100.0, 1e4, math.inf):
            for k in (0, 2, 5):
                row = by_point[(lam, k)]
                assert row["even_level"] == even_levels(lam, k)[k].energy
                assert row["odd_level"] == 1.5 + 2.0 * k

    def test_format_contract(self, tmp_path):
        outcome = _run(preset("fig6"), tmp_path)
        raw = open(outcome.csv_path, "rb").read()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == ",".join(outcome.columns)
        assert len(lines) == 1 + outcome.points
        # floats at full precision, ints bare, inf spelled out
        first = lines[1].split(",")
        assert first[0] == "0.0000000000000000e+00"
        assert first[1] == "0"
        assert any(line.split(",")[0] == "inf" for line in lines[1:])
        for line in lines[1:7]:
            assert FLOAT_CELL.match(line.split(",")[2])

    def test_integer_counts_stay_integers(self, tmp_path):
        spec = replace(preset("fig2"), lists={"N": (1, 2, 3)})
        outcome = _run(spec, tmp_path)
        lines = open(outcome.csv_path).read().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]

    def test_error_rows(self, tmp_path):
        outcome = _run(preset("fig9-inset"), tmp_path)
        assert outcome.points == 41
        assert outcome.failed == 30        # wells too shallow to split
        good = [r for r in outcome.rows if not r["error"]]
        bad = [r for r in outcome.rows if r["error"]]
        assert len(good) == 11
        assert all(r["work"] is None for r in bad)
        assert all("NoBoundStatesError" in r["error"] or
                   "SpectrumRangeError" in r["error"] for r in bad)
        # swept variable still recorded on the failed row
        assert all(r["anharmonicity"] is not None for r in bad)
        # failures are mirrored into the manifest
        cp = ConfigParser()
        cp.optionxform = str
        cp.read(outcome.manifest_path)
        assert len(cp.items("errors")) == 30
        assert cp.get("run", "failed_points") == "30"

    def test_error_messages_never_break_rows(self, tmp_path):
        outcome = _run(preset("fig9-inset"), tmp_path)
        lines = open(outcome.csv_path).read().splitlines()
        assert all(line.count(",") == len(outcome.columns) - 1
                   for line in lines)


class TestDeterminism:

    def test_worker_count_invisible_in_bytes(self, tmp_path):
        serial = _run(preset("fig6"), tmp_path, "serial.csv")
        pooled = _run(replace(preset("fig6"), workers=3), tmp_path, "pool.csv")
        assert open(serial.csv_path, "rb").read() == \
            open(pooled.csv_path, "rb").read()

    def test_manifest_reproduces_run(self, tmp_path):
        first = _run(preset("fig6"), tmp_path, "first.csv")
        spec = spec_from_config(None, load_config(first.manifest_path))
        assert spec.target == "fig6"
        second = run_sweep(spec, csv_path=str(tmp_path / "second.csv"))
        assert open(first.csv_path, "rb").read() == \
            open(second.csv_path, "rb").read()

    def test_manifest_carries_resolved_grid(self, tmp_path):
        outcome = _run(preset("fig9"), tmp_path)
        cp = ConfigParser()
        cp.optionxform = str
        cp.read(outcome.manifest_path)
        assert cp.get("run", "target") == "fig9"
        assert cp.get("axis.T_hot", "points") == "50"
        assert cp.get("parameters", "cold_to_hot") == "0.5"
        assert cp.get("policy", "rel_tol") == "1e-12"


def _count_calls(monkeypatch, name):
    """Wrap ensembles.<name> in every module that binds it; return the log."""
    calls = []
    original = getattr(ensembles, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (ensembles, cycle, sweeps):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def _one_point(target, **values):
    return replace(preset(target), axes=(),
                   lists={k: (v,) for k, v in values.items()})


class TestSingleEvaluation:
    """Each cycle solves its chemical potentials and stage sums once."""

    def test_bose_point_solves_four_roots(self, tmp_path, monkeypatch):
        roots = _count_calls(monkeypatch, "chemical_potential")
        outcome = _run(_one_point("fig8", nu=2.0, N=10, scale_ratio=1.0),
                       tmp_path)
        assert outcome.points == 1 and outcome.failed == 0
        assert len(roots) == 4

    def test_morse_point_sums_four_stages(self, tmp_path, monkeypatch):
        stages = _count_calls(monkeypatch, "canonical_stage_properties")
        outcome = _run(_one_point("fig10", depth=4.7 * EV, T_hot=4.0,
                                  omega=1e11), tmp_path)
        assert outcome.points == 1 and outcome.failed == 0
        assert len(stages) == 4


class TestConfigOverlay:

    def test_parameter_units_and_axis_windows(self, tmp_path):
        text = """\
[parameters]
depth = 4.7 eV
mass = 1.1 u

[axis.T_hot]
start = 2
stop = 4
points = 3

[run]
workers = 2
"""
        path = tmp_path / "over.ini"
        path.write_text(text)
        spec = spec_from_config(preset("fig9"), load_config(path))
        assert spec.params["depth"] == pytest.approx(4.7 * EV)
        assert spec.params["mass"] == pytest.approx(1.1 * ATOMIC_MASS)
        assert spec.axes[0].start == 2.0 and spec.axes[0].points == 3
        assert spec.workers == 2

    def test_list_and_policy_overlay(self, tmp_path):
        text = """\
[list.N]
values = 2, 4

[policy]
rel_tol = 1e-10
"""
        path = tmp_path / "over.ini"
        path.write_text(text)
        spec = spec_from_config(preset("fig2"), load_config(path))
        assert spec.lists["N"] == (2, 4)
        assert spec.policy == TruncationPolicy(rel_tol=1e-10)

    def test_unknown_axis_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[axis.pressure]\nstart = 1\nstop = 2\npoints = 3\n")
        with pytest.raises(ConfigError):
            spec_from_config(preset("fig9"), load_config(path))

    def test_custom_needs_target(self, tmp_path):
        path = tmp_path / "bare.ini"
        path.write_text("[parameters]\nomega = 1e10\n")
        with pytest.raises(ConfigError):
            spec_from_config(None, load_config(path))
        path.write_text("[run]\ntarget = custom\n")
        with pytest.raises(ConfigError):
            spec_from_config(None, load_config(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/config.ini")


class TestValidate:

    def test_clean_grid(self):
        report = validate(preset("fig8"))
        assert report.ok
        assert report.points == 480
        assert report.predicted_failures == []

    def test_predicts_shallow_wells(self):
        report = validate(preset("fig9-inset"))
        assert report.ok                  # runnable, failures are per point
        assert report.points == 41
        assert len(report.predicted_failures) == 30
        assert "expected failures: 30" in str(report)

    def test_structural_errors(self):
        spec = preset("fig9")
        bad = replace(spec, params={**spec.params, "mass": -1.0})
        report = validate(bad)
        assert not report.ok
        with pytest.raises(ConfigError):
            run_sweep(bad, csv_path="/dev/null")
        spec = preset("fig5")
        bad = replace(spec, params={**spec.params, "mu_mode": "bogus"})
        assert not validate(bad).ok


class TestCli:

    def test_preset_run(self, tmp_path, capsys):
        out = tmp_path / "fig6.csv"
        assert main(["fig6", "--out", str(out)]) == 0
        assert out.exists()
        assert (tmp_path / "fig6.csv.manifest").exists()
        assert "36 points, 0 failed" in capsys.readouterr().out

    def test_list_overrides(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert main(["fig6", "--lambda", "0,1,inf", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * 6
        out = tmp_path / "fig8.csv"
        assert main(["fig8", "--nu", "2", "--N", "10",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 40
        assert all(line.startswith("2.0000000000000000e+00,10,")
                   for line in lines[1:])

    def test_override_must_fit_target(self, tmp_path):
        assert main(["fig6", "--N", "5",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_literal_flag_is_morse_only(self, tmp_path):
        assert main(["fig9", "--eq38-literal",
                     "--out", str(tmp_path / "a.csv")]) == 0
        assert main(["fig8", "--eq38-literal",
                     "--out", str(tmp_path / "b.csv")]) == 1

    def test_custom_without_config(self):
        assert main(["custom"]) == 1

    def test_unknown_target(self, tmp_path):
        assert main(["fig1", "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_policy_value(self, tmp_path):
        assert main(["fig6", "--rel-tol", "2.0",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert main(["fig6", "--workers", "0",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_unwritable_output(self, tmp_path):
        target = tmp_path / "missing" / "dir" / "x.csv"
        assert main(["fig6", "--out", str(target)]) == 3

    def test_all_points_failed(self, tmp_path):
        config = tmp_path / "shallow.ini"
        config.write_text("[axis.anharmonicity]\n"
                          "start = 0.3\nstop = 0.5\npoints = 3\n")
        code = main(["fig9-inset", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("line, error", [
        ("T_hot = inf", "EnsembleMismatchError"),
        ("omega = inf", "InvalidPotentialError")])
    def test_non_finite_parameters_give_error_rows(self, tmp_path, capsys,
                                                   line, error):
        config = tmp_path / "inf.ini"
        config.write_text(f"[parameters]\n{line}\n")
        out = tmp_path / "x.csv"
        assert main(["fig2", "--config", str(config),
                     "--out", str(out)]) == 2
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 20
        assert all(row.split(",")[-1].startswith(f"{error}: ") for row in rows)
        assert "Traceback" not in capsys.readouterr().err

    def test_custom_target_via_config(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[run]\ntarget = fig6\n\n"
                          "[list.strength]\nvalues = 0, inf\n")
        out = tmp_path / "c.csv"
        assert main(["custom", "--config", str(config),
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 6

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "szilard-sim" in capsys.readouterr().out
