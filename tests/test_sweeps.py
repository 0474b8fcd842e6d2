"""Sweep grids, CSV/manifest emission, config overlays, and the CLI."""

import contextlib
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
from configparser import ConfigParser
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from szilard import (ATOMIC_MASS, Axis, Barrier, ConfigError, EV, Harmonic,
                     K_B, MuMode, SzilardError, TruncationPolicy,
                     chemical_potential, chemical_potentials, even_levels,
                     load_config,
                     log_relative_partition, parse_quantity, preset,
                     preset_names, run_sweep, spec_from_config, validate)
from szilard import barrier, cycle, ensembles, potentials, sweeps
from szilard.cli import main
from szilard.sweeps import parse_integer

from conftest import newton_rounds

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


def test_custom_is_named_apart_from_the_presets():
    """preset("custom") once answered that it knew custom: custom is no
    preset grid but a config file's sweep, and the message says so."""
    for target in ("custom", "fig1"):
        with pytest.raises(ConfigError) as raised:
            preset(target)
        assert str(raised.value) == (
            f"unknown preset {target!r}; the presets are"
            f" {', '.join(preset_names()[:-1])} (a custom sweep needs"
            " --config)")
    assert preset_names()[-1] == "custom"


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
        # linspace to inf once warned and wrote nan rows
        for start, stop in ((1.0, math.inf), (-math.inf, 1.0),
                            (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ConfigError, match="must be finite"):
                Axis("T", start, stop, 5)


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

    def test_integers(self):
        assert parse_integer("12") == 12 and parse_integer("1e1") == 10
        assert isinstance(parse_integer("3.0"), int)
        for text in ("inf", "-inf", "2.5", "1e400"):
            with pytest.raises(ConfigError):
                parse_integer(text)


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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), target=st.sampled_from(preset_names()[:-1]))
    def test_manifest_read_back_is_its_spec(self, tmp_path_factory, data,
                                            target):
        """spec_from_config(None, manifest(spec)) == spec, for presets whose
        lists hold permuted subsets of their values, with or without one
        axis turned into a one-value list: a one-point fig7 spec once
        replayed as 50 points."""
        spec = preset(target)
        lists = {name: tuple(data.draw(st.lists(st.sampled_from(values),
                                                min_size=1, unique=True)))
                 for name, values in spec.lists.items()}
        axes = list(spec.axes)
        if axes and data.draw(st.booleans()):
            axis = axes.pop()
            lists[axis.name] = (data.draw(st.sampled_from(
                tuple(axis.values()))),)
        spec = replace(spec, lists=lists, axes=tuple(axes))
        path = tmp_path_factory.mktemp("manifest") / "spec.manifest"
        sweeps.RunManifest(spec).write(path)
        assert spec_from_config(None, load_config(path)) == spec

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
    """Wrap ensembles.<name> in every module that binds it; return the log
    of the positional arguments of each call."""
    calls = []
    original = getattr(ensembles, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (ensembles, cycle, sweeps):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def _occupancy(calls):
    """The occupancy calls of a _rung_sums log, (rungs, rows, mus, kind)
    each: the re-checks of solved chemical potentials."""
    return [args for args in calls if args[3] == "occupancy"]


def _ladder_runs(monkeypatch, log):
    """Wrap potentials._Shapes.ladders to append ("ladders", (first, top))
    to log per call, the lists of the first and last index of its runs;
    return log."""
    original = potentials._Shapes.ladders

    def counted(shapes, first, top):
        log.append(("ladders", (first.tolist(), top.tolist())))
        return original(shapes, first, top)

    monkeypatch.setattr(potentials._Shapes, "ladders", counted)
    return log


def _one_point(target, **values):
    return replace(preset(target), axes=(),
                   lists={k: (v,) for k, v in values.items()})


def _with_params(target, **params):
    spec = preset(target)
    return replace(spec, params={**spec.params, **params})


def _with_lists(target, **lists):
    """target with each named grid value a list, in place of its axis."""
    spec = preset(target)
    return replace(spec, axes=tuple(a for a in spec.axes
                                    if a.name not in lists),
                   lists={**spec.lists, **lists})


class TestSingleEvaluation:
    """Each cycle solves its chemical potentials and stage sums once."""

    def test_bose_point_solves_four_roots(self, tmp_path, monkeypatch):
        solves = _count_calls(monkeypatch, "_mu_offsets")
        outcome = _run(_one_point("fig8", nu=2.0, N=10, scale_ratio=1.0),
                       tmp_path)
        assert outcome.points == 1 and outcome.failed == 0
        assert sum(len(counts) for counts, _ in solves) == 4

    def test_morse_point_sums_four_stages(self, tmp_path, monkeypatch):
        """Its four stages are its two baths in both barrier configurations:
        one _series_sums call per configuration, each over both baths,
        where one call per stage made four of one segment each."""
        sums = _count_calls(monkeypatch, "_series_sums")
        outcome = _run(_one_point("fig10", depth=4.7 * EV, T_hot=4.0,
                                  omega=1e11), tmp_path)
        assert outcome.points == 1 and outcome.failed == 0
        assert [len(segments) for _, segments, *_ in sums] == [2, 2]

    def test_morse_run_sums_each_stage_once_per_batch(self, tmp_path,
                                                      monkeypatch):
        """A 50-point fig10 run sums its stages batch by batch.

        Its traps' stage-A heads (see ensembles._heads) close a batch each
        time they reach 8192 terms.  With six correction pairs in their
        Morse tails they take 1775 terms, so all 50 share one batch; four
        pairs took 8432 and split them 39 and 11, and counting whole
        estimated ladders made 13 batches, the 8 longest alone.  Each batch
        is two _series_sums calls, one per barrier configuration, each over
        the 100 distinct (well, bath) pairs of its points; one call per
        stage, A to D, made four calls of 50, and one call per stage and
        point made 200."""
        sums = _count_calls(monkeypatch, "_series_sums")
        spec = replace(preset("fig10"),
                       lists={"depth": (4.7 * EV,), "T_hot": (4.0,)})
        outcome = _run(spec, tmp_path)
        assert outcome.points == 50 and outcome.failed == 0
        sizes = [100]
        assert [len(segments) for _, segments, *_ in sums] == [
            size for size in sizes for _ in range(2)]
        barriers = [{segment[1] for segment in segments}
                    for _, segments, *_ in sums]
        assert barriers == [{potentials.Barrier.ABSENT},
                            {potentials.Barrier.INSERTED}] * len(sizes)

    def test_morse_run_sizes_and_builds_in_array_passes(self, tmp_path,
                                                        monkeypatch):
        """The 50-point fig10 run above makes no per-trap head or level
        call.  Its heads are two _heads passes: the batching's stage A
        over all 50 traps, which only bounds its batches, then all 200
        distinct sums of its one batch, each sized where it is summed (the
        batching's 50 handed down made the second pass 150 rows; in two
        batches, as four-pair tails split the run, they were three).  The
        batching looks up the 100 ground levels in one _Shapes.ladders
        pass, each _series_sums call builds the levels it lacks in at most
        one more (the absent sums their ladders, the inserted ones their
        extensions; one call per stage made four, stage D's building none),
        and level_energy never runs: it made 100 scalar ground lookups.
        The batching's trap table derives the shapes of the 50 wells in one
        _Shapes.of call, one row per well, and every sizing, sum and ladder
        build reads its wells by row: a _Shapes.of call each for the ground
        levels, the batching's sizing, the stage sums and each ladder build
        made five of 50 rows (the stage sums took one row per unit, a
        (well, bath), 100)."""
        log = []
        for name in ("_heads", "_series_sums", "level_energy"):
            original = getattr(ensembles, name)

            def spy(*args, name=name, original=original, **kwargs):
                log.append((name, args))
                return original(*args, **kwargs)

            monkeypatch.setattr(ensembles, name, spy)
        _ladder_runs(monkeypatch, log)
        shapes = potentials._Shapes.of

        def of(traps):
            traps = list(traps)
            log.append(("of", traps))
            return shapes(traps)

        monkeypatch.setattr(potentials._Shapes, "of", of)
        spec = replace(preset("fig10"),
                       lists={"depth": (4.7 * EV,), "T_hot": (4.0,)})
        outcome = _run(spec, tmp_path)
        assert outcome.points == 50 and outcome.failed == 0
        assert [len(args[3]) for name, args in log
                if name == "_heads"] == [50, 200]
        assert [(len(traps), len(set(map(id, traps)))) for name, traps in log
                if name == "of"] == [(50, 50)]
        builds = [0]    # the ground levels, then per _series_sums call
        for name, args in log:
            if name == "_series_sums":
                builds.append(0)
            elif name == "ladders":
                builds[-1] += 1
        assert builds == [1, 1, 1]
        grounds = next(args for name, args in log if name == "ladders")
        assert grounds == ([1] * 50, [2] * 50)
        assert not any(name == "level_energy" for name, _ in log)

    @pytest.mark.parametrize("target, traps", [
        ("fig2", 1), ("fig3", 60), ("fig4", 1), ("fig5", 1), ("fig7", 100),
        ("fig8", 160), ("fig9", 1), ("fig9-inset", 41), ("fig10", 200),
        ("fig11", 200)])
    def test_sweep_derives_each_trap_shape_once(self, tmp_path, monkeypatch,
                                                target, traps):
        """A run's one trap table derives the ladder shapes of its distinct
        traps in one _Shapes.of call, one row per trap object, and every
        sizing, sum and ladder build reads them by row.  Deriving them
        again in each batched pass made 5 calls over 24 rows for fig2, 5
        over 420 for fig3, 4 over 122 for fig4 and fig5, 4 over 700 for
        fig7, 14 over 1,120 for fig8, 5 over 54 for fig9, 5 over 115 for
        fig9-inset and 11 over 1,600 for fig10 and fig11."""
        log, shapes = [], potentials._Shapes.of

        def of(built):
            built = list(built)
            log.append((len(built), len({id(trap) for trap in built})))
            return shapes(built)

        monkeypatch.setattr(potentials._Shapes, "of", of)
        assert _run(preset(target), tmp_path).points > 0
        assert log == [(traps, traps)]

    @pytest.mark.parametrize("point", [
        _one_point("fig8", nu=2.0, N=10, scale_ratio=1.0),
        _one_point("fig10", depth=4.7 * EV, T_hot=4.0, omega=1e11),
        replace(_one_point("fig8", nu=2.0, N=10, scale_ratio=1.0),
                params={**preset("fig8").params,
                        "mu_mode": MuMode.CLOSED_FORM.value})])
    def test_point_looks_up_its_ground_levels_once(self, tmp_path,
                                                   monkeypatch, point):
        """E_1 with the barrier absent and inserted, looked up once for the
        batching and every sum after it: one _Shapes.ladders run over
        barrier-free levels 1 and 2, a power law's as a Morse well's, and
        no level_energy call.  A power law made two int lookups, and a
        Morse well's run was a _Wells expression.  Before that, a fig8
        point made 5 such calls: four in its root solve and one in the
        batching; under the closed form 6: the two of the batching and one
        per mu."""
        calls = _count_calls(monkeypatch, "level_energy")
        log = _ladder_runs(monkeypatch, [])
        outcome = _run(point, tmp_path)
        assert outcome.points == 1 and outcome.failed == 0
        assert calls == []
        assert [runs for _, runs in log if runs[1] == [2]] == [([1], [2])]

    @pytest.mark.parametrize("name, points", [("fig4", 240), ("fig5", 120)])
    def test_harmonic_grid_builds_its_trap_once(self, tmp_path, monkeypatch,
                                                name, points):
        """fig4 and fig5 sweep N and T over one harmonic trap, which a run
        builds once, where it built one per point: 240 and 120.  The
        forecast builds it once too, through the same point builder."""
        calls = []
        original = sweeps.Harmonic

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sweeps, "Harmonic", counted)
        outcome = _run(preset(name), tmp_path)
        assert (outcome.points, outcome.failed, len(calls)) == (points, 0, 1)
        calls.clear()
        assert validate(preset(name)).predicted_failures == []
        assert len(calls) == 1

    @pytest.mark.parametrize("spec, builds, failed", [
        (preset("fig10"), 4, 0), (preset("fig8"), 1, 0),
        (_with_params("fig8", T_cold=1e-320), 480, 480)])
    def test_sweep_builds_each_bath_pair_once(self, tmp_path, monkeypatch,
                                              spec, builds, failed):
        """A sweep builds each distinct BathPair once, each check of both
        baths with it: fig10's 800 points have 4 pairs and fig8's 480 one,
        where every point built its own (800 and 480).  A pair that fails
        is not kept: at T_cold = 1e-320 K, where beta overflows, each fig8
        point builds it and fails with its own error row."""
        calls = []
        original = ensembles.BathPair.__post_init__

        def counted(pair):
            calls.append(pair)
            original(pair)

        monkeypatch.setattr(ensembles.BathPair, "__post_init__", counted)
        outcome = _run(spec, tmp_path)
        assert (outcome.failed, len(calls)) == (failed, builds)

    def test_a_failing_point_shares_the_trap_it_built(self, tmp_path,
                                                      monkeypatch):
        """fig4 with counts inf and 5: each point at N = inf builds the
        trap, then fails its count check.  The first of them shares its
        trap with every later point, where each built one until a point's
        job succeeded: 41 builds in a run and 41 in the forecast."""
        calls = []
        original = sweeps.Harmonic

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sweeps, "Harmonic", counted)
        spec = replace(preset("fig4"), lists={"N": (math.inf, 5)})
        outcome = _run(spec, tmp_path)
        assert (outcome.points, outcome.failed, len(calls)) == (80, 40, 1)
        calls.clear()
        assert validate(spec).predicted_failures == outcome.errors
        assert len(calls) == 1

    def test_barrier_levels_solve_each_row_once(self, tmp_path, monkeypatch):
        """fig6 solves only the branch each row asks for: one bracket per
        row at its 4 finite non-zero strengths times 6 branches, 24, where
        solving every branch up to the one asked for took 84.  Strengths 0
        and inf need no bracket."""
        calls = []
        original = barrier._pole_slopes

        def counted(branch):
            calls.append(branch)
            return original(branch)

        monkeypatch.setattr(barrier, "_pole_slopes", counted)
        outcome = _run(preset("fig6"), tmp_path)
        assert (outcome.points, outcome.failed) == (36, 0)
        assert sorted(calls) == sorted(list(range(6)) * 4)

    @staticmethod
    def _ladder_builds(log):
        """The sizes of a lone trap's runs in a _ladder_runs log: first its
        ground levels, barrier-free levels 1 and 2, then ladders whose
        index ranges are disjoint and contiguous from 1, so no level is
        built twice."""
        runs = [(first, top) for _, ((first,), (top,)) in log]
        assert runs[0] == (1, 2)
        assert [first for first, _ in runs[1:]] == [1] + [
            top + 1 for _, top in runs[1:-1]]
        return [top - first + 1 for first, top in runs]

    def test_morse_point_builds_one_ladder_per_trap(self, tmp_path,
                                                    monkeypatch):
        """The four stages share the trap's barrier-free ladder: stage A
        builds its head, stage B extends it by the levels its inserted head
        (every other level of it) lacks, and the cold stages sum prefixes.
        One ladder per barrier built 500 levels, and whole ladders 336;
        the heads took 198 with four correction pairs in their tails, and
        take 140 with six.  A lone well is built like a batch of traps, by
        _Shapes.ladders passes (_Wells expressions before them), where it
        made two array level_energy calls."""
        calls = _count_calls(monkeypatch, "level_energy")
        log = _ladder_runs(monkeypatch, [])
        outcome = _run(_one_point("fig10", depth=4.7 * EV, T_hot=4.0,
                                  omega=1e11), tmp_path)
        assert outcome.points == 1 and outcome.failed == 0
        assert calls == []
        assert self._ladder_builds(log) == [2, 90, 50]

    def test_canonical_point_builds_no_inserted_ladder(self, tmp_path,
                                                       monkeypatch):
        """A fig3 point: its ground levels from the batching's one
        _Shapes.ladders run (a _Wells expression before, and two int
        lookups before that) and one ladder, extended once for the inserted
        stages, whose rungs are every other level of it, each one more run
        (two array level_energy calls before).  Its geometric tails are exact, so each stage sums a
        16-term head: whole ladders built 8208 levels, and a ladder per
        barrier 4100 more."""
        calls = _count_calls(monkeypatch, "level_energy")
        log = _ladder_runs(monkeypatch, [])
        outcome = _run(_one_point("fig3", N=2, omega=1e11), tmp_path)
        assert outcome.points == 1 and outcome.failed == 0
        assert calls == []
        assert self._ladder_builds(log) == [2, 16, 16]

    def test_partition_ratio_run_builds_one_ladder_per_point(self, tmp_path,
                                                             monkeypatch):
        """fig5: its 120 points, one trap at 40 temperatures and 3 counts,
        are one batch, which builds each of its 80 rungs (a temperature and
        a barrier) once for its 3 counts.  The trap's two ground levels are
        one _Shapes.ladders run, and its one barrier-free ladder, the 32
        levels its 16-term heads read, one more (_Wells expressions before
        them, and a lone trap's levels one level_energy call).  A batch per N looked up 80 ground levels and
        built 40 ladders of 32 levels, one per point, in two _Wells
        expressions per N; a point per batch made 480 level_energy calls
        (two ground levels and one ladder, extended once, per point), and
        solving and summing each barrier apart 960."""
        calls = _count_calls(monkeypatch, "level_energy")
        log = _ladder_runs(monkeypatch, [])
        outcome = _run(preset("fig5"), tmp_path)
        assert outcome.points == 120 and outcome.failed == 0
        assert calls == []
        assert self._ladder_builds(log) == [2, 32]

    def test_bose_roots_sum_one_ladder_each(self, tmp_path, monkeypatch):
        """One occupancy re-check per root, and the trap prefactor's gamma
        ratio evaluated once per exponent: building the trap from its
        energy scale and checking it read one cached ratio."""
        sums = _count_calls(monkeypatch, "_rung_sums")
        potentials._log_gamma_ratio.cache_clear()
        gammas = []
        original = potentials.gammaln

        def counted(x):
            gammas.append(x)
            return original(x)

        monkeypatch.setattr(potentials, "gammaln", counted)
        outcome = _run(_one_point("fig8", nu=1.6, N=10, scale_ratio=1.0),
                       tmp_path)
        assert outcome.points == 1 and outcome.failed == 0
        assert sum(len(rows) for _, rows, *_ in _occupancy(sums)) == 4
        assert gammas == [1.0 / 1.6 + 1.5, 1.0 + 1.0 / 1.6]

    def test_bose_run_solves_in_batches(self, tmp_path, monkeypatch):
        """A 40-point run shares its Newton loops and re-check passes.

        Its traps count their stage-A heads, 2605 levels, once per bath
        toward the 8192 terms that close a batch: 5210 terms, one batch,
        one solve and one re-check pass (an occupancy _rung_sums call),
        where one solve per root would make 160 (and whole power-law
        ladders of 6670, 5501, ... 8 terms made five batches).  Each Newton
        round sums its live roots' heads, each behind one slot, and their
        k-series, not their ladders: the 160 heads hold 9177 levels, and
        the 8 rounds sum 50,757 head elements."""
        solves = _count_calls(monkeypatch, "_mu_offsets")
        checks = _count_calls(monkeypatch, "_rung_sums")
        rounds, sums = [], ensembles._Heads.sums

        def counted(heads, v, kind, d=None):
            if kind == "occupancy" and d is None:   # a Newton round
                rounds.append((heads.x.size, heads.rungs.heads[heads.rows]))
            return sums(heads, v, kind, d)

        monkeypatch.setattr(ensembles._Heads, "sums", counted)
        spec = replace(preset("fig8"), lists={"nu": (1.6,), "N": (10,)})
        outcome = _run(spec, tmp_path)
        assert outcome.points == 40 and outcome.failed == 0
        checks = _occupancy(checks)
        assert len(solves) == 1 and len(checks) == 1
        assert sum(len(counts) for counts, _ in solves) == 160
        assert sum(len(rows) for _, rows, *_ in checks) == 160
        assert sum(int(rungs.heads.sum()) for _, rungs in solves) == 9177
        assert all(size == int(heads.sum()) + len(heads)
                   for size, heads in rounds)
        assert (len(rounds), sum(size for size, _ in rounds)) == (8, 50757)

    @pytest.mark.parametrize("target, rounds, updates", [
        ("fig4", 7, 2776), ("fig5", 8, 1562), ("fig7", 8, 1772),
        ("fig8", 42, 7869)])
    def test_roots_keep_what_each_round_paid_for(self, target, rounds,
                                                 updates, tmp_path,
                                                 newton_log):
        """A pass's Newton loops take `rounds` vectorised rounds (_Heads.sums
        calls from _mu_offsets) and `updates` per-root steps (the live
        roots of each round): bracket points above the root stay the lower
        end, Newton starts at the bracketing round's lower bound and stops
        once a step is at most 1e-9 max(1, |u|).  Starting at the closed
        form and stopping at a 4e-16 step took 10, 13, 12 and 57 rounds and
        3443, 2276, 2217 and 9478 steps."""
        assert _run(preset(target), tmp_path).failed == 0
        assert (len(newton_log), sum(len(rows) for _, rows, _ in newton_log)
                ) == (rounds, updates)

    @pytest.mark.parametrize("target, most", [
        ("fig4", 6), ("fig5", 7), ("fig7", 6), ("fig8", 7)])
    def test_no_preset_root_takes_more_than_7_newton_rounds(
            self, target, most, tmp_path, newton_log):
        """README: no root of the presets takes more than 7 Newton rounds;
        the most any root of each preset takes is pinned."""
        assert _run(preset(target), tmp_path).failed == 0
        assert max(max(solve.values())
                   for solve in newton_rounds(newton_log)) == most

    def test_capped_fig8_keeps_its_error_rows(self, tmp_path):
        """fig8 at --max-terms 30 fails 252 of its 480 rows, each on a
        power-law k-series or a head longer than the cap, with 66 distinct
        messages whose lengths sum to 21,665.  A k-series is refused by its
        length at the v a Newton round tries, so the messages follow the
        solver's path: the sha256 of the error column pins every one."""
        out = tmp_path / "run.csv"
        assert main(["fig8", "--max-terms", "30", "--out", str(out)]) == 0
        errors = [line.rsplit(",", 1)[1]
                  for line in out.read_text().splitlines()[1:]]
        failed = [e for e in errors if e]
        assert (len(errors), len(failed), len(set(failed))) == (480, 252, 66)
        assert sum(int(re.match(r"TruncationError: series needs (\d+) terms;"
                                r"  policy caps at 30$", e).group(1))
                   for e in failed) == 21665
        assert hashlib.sha256("\n".join(errors).encode()).hexdigest()[
            :16] == "47f95c8d939d16b4"


class TestBatchedRuns:
    """A cycle run evaluated with one run_cycles call writes the bytes of
    its points evaluated one at a time, failures included, and evaluates no
    point twice."""

    @staticmethod
    def _single_rows(spec, tmp_path):
        """Each point of spec's grid swept alone: its CSV row."""
        names = [name for name, _ in spec.grid()]
        rows = []
        for combo in product(*(values for _, values in spec.grid())):
            point = replace(spec, axes=(), lists={
                name: (value,) for name, value in zip(names, combo)})
            path = tmp_path / "one.csv"
            run_sweep(point, csv_path=str(path))
            rows.append(path.read_text().splitlines()[1])
        return rows

    def test_failing_points_keep_their_own_rows(self, tmp_path):
        """At a cap of 100 terms, 16 rows fail: the finest traps on their
        power-law k-series (101 to 119 terms) or their heads, the others
        on their heads (101 to 126 levels)."""
        out = tmp_path / "run.csv"
        assert main(["fig8", "--nu", "1.6", "--N", "10", "--max-terms",
                     "100", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        errors = [line.split(",")[-1] for line in lines[1:]]
        needed = [int(m.group(1)) for m in
                  (re.match(r"TruncationError: series needs (\d+) terms;"
                            r"  policy caps at 100$", e) for e in errors if e)
                  if m]
        assert needed == [118, 101, 110, 112, 119, 104, 109, 115, 122, 124,
                          126, 124, 122, 116, 110, 101]
        assert sum(1 for e in errors if e) == 16

        spec = replace(preset("fig8"), lists={"nu": (1.6,), "N": (10,)},
                       policy=TruncationPolicy(max_terms=100))
        assert lines[1:] == self._single_rows(spec, tmp_path)

    def test_failing_run_solves_each_root_once(self, tmp_path, monkeypatch):
        """The run above solves its 160 roots in its one batch and runs
        none again; re-running the failing batch point by point made 41
        solves over 168 roots."""
        solves = _count_calls(monkeypatch, "_mu_offsets")
        spec = replace(preset("fig8"), lists={"nu": (1.6,), "N": (10,)},
                       policy=TruncationPolicy(max_terms=100))
        outcome = _run(spec, tmp_path)
        assert outcome.points == 40 and outcome.failed == 16
        assert len(solves) == 1
        assert sum(len(counts) for counts, _ in solves) == 160

    def test_morse_run_rows_equal_one_point_sweeps(self, tmp_path):
        """fig9-inset is one run of 41 wells, 30 of them too shallow."""
        outcome = _run(preset("fig9-inset"), tmp_path)
        assert outcome.points == 41 and outcome.failed == 30
        lines = open(outcome.csv_path).read().splitlines()
        assert lines[1:] == self._single_rows(preset("fig9-inset"), tmp_path)

    @pytest.mark.parametrize("target", ["fig2", "fig9"])
    def test_points_of_other_baths_share_batches(self, tmp_path,
                                                 monkeypatch, target):
        """fig2 changes N and fig9 T_hot from point to point, so a run per
        count and baths made one batch, four stage sums, per point.  The
        canonical and Morse routes batch a sweep's points whatever their
        count and baths: one batch of all of them, and each point keeps
        the row it gets alone.  The batch sums each distinct (trap, count,
        bath) once per barrier configuration: fig2's 20 counts at two
        baths are 40 per call, and fig9's 50 hot baths and their halves,
        25 of which are hot baths too, 75 (one call per stage, A to D,
        summed 50 each)."""
        sums = _count_calls(monkeypatch, "_series_sums")
        outcome = _run(preset(target), tmp_path)
        assert outcome.failed == 0
        distinct = {"fig2": 40, "fig9": 75}[target]
        assert [len(segments) for _, segments, *_ in sums] == [distinct] * 2
        lines = open(outcome.csv_path).read().splitlines()
        assert lines[1:] == self._single_rows(preset(target), tmp_path)

    @pytest.mark.parametrize("target, points, wells, segments", [
        ("fig10", 800, 200, 2400), ("fig9", 50, 1, 150)])
    def test_morse_sweep_builds_one_ladder_per_well(self, tmp_path,
                                                    monkeypatch, target,
                                                    points, wells, segments):
        """fig10: 200 wells, each at 4 hot baths, whose halves (1 to 4 K)
        are hot baths too; fig9: one well at 50 hot baths.  Each well is
        built once, and its points share it; its barrier-free ladder is
        built once, by the absent sums of its batch, and extended once, by
        the inserted ones.  A fig10 pass built 800 ladders, one per point,
        and fig9 50.  Each distinct (well, bath) is summed once per barrier
        configuration: fig10's 200 wells at 6 temperatures are 2,400
        segments, where four stages per point made 3,200."""
        runs, built, extended = [], [], []
        run_cycles, extend = sweeps._run_cycles, ensembles._extend

        def spy_runs(traps, *args):
            runs.extend(traps)
            return run_cycles(traps, *args)

        def spy_extend(table, requests, levels):
            for row, _ in requests:
                (extended if row in levels else built).append(
                    table.traps[row])
            return extend(table, requests, levels)

        monkeypatch.setattr(sweeps, "_run_cycles", spy_runs)
        monkeypatch.setattr(ensembles, "_extend", spy_extend)
        sums = _count_calls(monkeypatch, "_series_sums")
        outcome = _run(preset(target), tmp_path)
        assert outcome.points == points and outcome.failed == 0
        assert (len(runs), len({id(trap) for trap in runs})) == (points,
                                                                 wells)
        assert len(built) == len({id(trap) for trap in built}) == wells
        assert len(extended) == wells
        assert sum(len(args[1]) for args in sums) == segments

    def test_points_of_other_counts_share_rungs(self, tmp_path,
                                                monkeypatch):
        """fig8 with 2 exponents, 3 counts and 8 scale ratios: a run per
        count and baths made six batches, one per exponent and count, and
        built each rung once per count.  The grand-canonical route batches
        a sweep's points whatever their count: its 16 traps, each at 3
        counts, are one batch, which builds 64 rungs, one per trap, barrier
        and bath, and solves its 192 roots once each; each point keeps the
        row it gets alone."""
        solves = _count_calls(monkeypatch, "_mu_offsets")
        checks = _count_calls(monkeypatch, "_rung_sums")
        rungs = _count_calls(monkeypatch, "_Rungs")
        spec = replace(preset("fig8"), lists={"nu": (1.6, 2.0),
                                              "N": (10, 20, 30)},
                       axes=(Axis("scale_ratio", 0.05, 40.0, 8, "log"),))
        outcome = _run(spec, tmp_path)
        assert outcome.points == 48 and outcome.failed == 0
        assert [len(counts) for counts, _ in solves] == [192]
        assert [len(rows) for _, rows, *_ in _occupancy(checks)] == [192]
        assert [len(args[5]) for args in rungs] == [64]
        lines = open(outcome.csv_path).read().splitlines()
        assert lines[1:] == self._single_rows(spec, tmp_path)

    def test_bose_sweep_builds_each_rung_once(self, tmp_path, monkeypatch):
        """A fig8 pass: 480 points, 160 traps at 3 counts each.  Its
        batches close only between traps, each trap's stage-A head counted
        once per bath, so its 1,920 roots run in 6 batches (a batch per
        count made 12), and each batch builds the rungs of its traps once:
        640 rungs (it built 1,920).  The ground levels of all 160 traps are
        one _Shapes.ladders pass, and each batch's barrier-free ladders
        one more, so level_energy never runs: it made 320 int ground
        lookups and 160 ladder builds (960 and 480 before those); _heads
        sizes each trap's hot barrier-free rung once in the
        batching, only to bound the batches, and every rung once, in its
        batch: 800 rows (640 when the batching's heads were handed down,
        2,400 when each point was sized in the batching and each of its
        rungs again)."""
        solves = _count_calls(monkeypatch, "_mu_offsets")
        rungs = _count_calls(monkeypatch, "_Rungs")
        sizes = _count_calls(monkeypatch, "_heads")
        levels = _count_calls(monkeypatch, "level_energy")
        log = _ladder_runs(monkeypatch, [])
        outcome = _run(preset("fig8"), tmp_path)
        assert outcome.points == 480 and outcome.failed == 0
        assert [len(counts) for counts, _ in solves] == [156, 444, 444, 216,
                                                        288, 372]
        assert [len(args[5]) for args in rungs] == [52, 148, 148, 72, 96,
                                                    124]
        assert [len(e1) for *_, e1, _ in sizes] == [160, 52, 148, 148, 72,
                                                    96, 124]
        assert levels == []
        assert [len(first) for _, (first, _) in log] == [160, 13, 37, 37, 18,
                                                         24, 31]

    def test_mu_rounded_onto_the_ground_level_names_the_cause(self,
                                                              tmp_path):
        """fig7 out to a trap scale of 1e300: where k_B T is below one ulp of
        E_1, mu rounds onto E_1, and each such row says so rather than print
        two equal energies alone.  Where E_1 - mu spans a few thousand ulps,
        mu carries it to about 1e-4 and the occupancy re-sum misses N; those
        rows say so too, and every failing row names its cause."""
        config = tmp_path / "far.ini"
        config.write_text("[axis.scale_ratio]\nstop = 1e300\n")
        out = tmp_path / "far.csv"
        assert main(["fig7", "--config", str(config), "--out", str(out)]) == 0
        errors = [line.split(",")[-1]
                  for line in out.read_text().splitlines()[1:]]
        grounds = [e for e in errors if "reaches the ground level" in e]
        assert len(grounds) == 45
        for error in grounds:
            mu, e1 = re.match(r"ConvergenceViolationError: chemical potential"
                              r" (\S+) J reaches the ground level (\S+) J:"
                              r" the offset E_1 - mu is below one ulp of E_1"
                              r" \(\S+ J\)$", error).groups()
            assert mu == e1
        offsets = [e for e in errors if "occupancy root off" in e]
        assert len(offsets) == 2
        for error in offsets:
            assert re.match(r"SolverFailureError: occupancy root off by \S+"
                            r" relative: the offset E_1 - mu spans only 8339"
                            r" ulps of E_1 \(\S+ J\)$", error)
        ranges = [e for e in errors if "out of floating-point range" in e]
        assert len(ranges) == 49
        assert len(grounds) + len(offsets) + len(ranges) == sum(
            1 for e in errors if e) == 96


class TestPartitionRatio:
    """fig5 runs on the grand-canonical cycle's root-and-ratio path; the
    public one-trap functions are its reference."""

    @pytest.mark.parametrize("count", [10, 20, 30])
    @pytest.mark.parametrize("temperature", [0.05, 2.0, 10.0])
    def test_equals_the_one_trap_functions(self, count, temperature):
        spec = preset("fig5")
        p = spec.params
        trap = Harmonic(mass=p["mass"], omega=p["omega"])
        row, = sweeps._partition_ratio_values(
            spec, [{"N": count, "T": temperature}])
        mus = chemical_potentials(trap, count, temperature,
                                  MuMode(p["mu_mode"]), spec.policy)
        assert row["log_ratio"] == log_relative_partition(
            trap, mus, temperature, spec.policy)
        for mode in MuMode:
            pair = chemical_potentials(trap, count, temperature, mode,
                                       spec.policy)
            assert (pair.pre_insertion, pair.post_insertion) == tuple(
                chemical_potential(trap, count, temperature, barrier, mode,
                                   spec.policy)
                for barrier in (Barrier.ABSENT, Barrier.INSERTED))


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

    def test_lists_take_every_grid_name_of_the_presets(self, tmp_path):
        """A list named like an axis replaces the axis, so the grid keeps
        its names and order: fig7 once crossed [list.scale_ratio] with its
        axis of the same name and wrote every row once per list value."""
        path = tmp_path / "list.ini"
        for target in preset_names()[:-1]:
            spec = preset(target)
            for name, values in spec.grid():
                value = float(values[0])
                path.write_text(f"[list.{name}]\nvalues = {value!r}\n")
                resolved = spec_from_config(spec, load_config(path))
                assert resolved.lists[name] == (value,)
                assert [n for n, _ in resolved.grid()] == [
                    n for n, _ in spec.grid()]
                assert dict(resolved.grid())[name] == (value,)

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

    def test_predicts_shallow_wells(self, tmp_path):
        """The forecast is the run's own errors, indices and messages."""
        report = validate(preset("fig9-inset"))
        assert report.ok                  # runnable, failures are per point
        assert report.points == 41
        assert len(report.predicted_failures) == 30
        assert report.predicted_failures == _run(preset("fig9-inset"),
                                                 tmp_path).errors

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

    def test_run_builds_each_well_once(self, tmp_path, monkeypatch):
        """run_sweep checks the spec's structure only; the forecast built
        every fig9-inset well a second time and kept nothing of it."""
        calls = []
        original = sweeps._morse_potential

        def counted(point, params):
            calls.append(point)
            return original(point, params)

        monkeypatch.setattr(sweeps, "_morse_potential", counted)
        outcome = _run(preset("fig9-inset"), tmp_path)
        assert outcome.points == 41 and len(calls) == 41
        calls.clear()
        assert len(validate(preset("fig9-inset")).predicted_failures) == 30
        assert len(calls) == 41


    def test_forecast_builds_each_well_once(self, tmp_path, monkeypatch):
        """fig10 at a depth of 2 eV and one of 1e-22 J, which holds no level
        or too few to split from about 1e12 rad/s up, at two hot baths: 200
        points, 100 wells.  The forecast builds each well once, where it
        built one per point, and predicts what each point's own ground
        levels give, absent then inserted as the run's stages A and B look
        them up, at the same indices with the same messages as the run's
        errors; the run builds each well once too."""
        spec = replace(preset("fig10"), lists={"depth": (2.0 * EV, 1e-22),
                                               "T_hot": (2.0, 4.0)})
        want = []
        for index, point in enumerate(sweeps._points(spec)):
            try:
                well = sweeps._morse_potential(point, spec.params)
                for barrier in (Barrier.ABSENT, Barrier.INSERTED):
                    potentials.level_energy(well, 1, barrier)
            except SzilardError as exc:
                want.append((index, sweeps._sanitize(
                    f"{type(exc).__name__}: {exc}")))
        calls = []
        original = sweeps._morse_potential

        def counted(point, params):
            calls.append(point)
            return original(point, params)

        monkeypatch.setattr(sweeps, "_morse_potential", counted)
        report = validate(spec)
        assert (report.points, len(calls)) == (200, 100)
        assert report.predicted_failures == want
        assert {message.split(":")[0] for _, message in want} == {
            "NoBoundStatesError", "SpectrumRangeError"}
        calls.clear()
        outcome = _run(spec, tmp_path)
        assert (outcome.points, len(calls)) == (200, 100)
        assert report.predicted_failures == outcome.errors

    @pytest.mark.parametrize("spec", [
        pytest.param(preset(name), id=name) for name in preset_names()[:-1]
    ] + [pytest.param(_with_params(target, omega=omega),
                      id=f"{target}-omega={omega}")
         for target in ("fig2", "fig4", "fig5") for omega in (1e-300, math.inf)
    ] + [pytest.param(_with_params(target, mass=mass),
                      id=f"{target}-mass={mass}")
         for target in ("fig7", "fig8") for mass in (1e-300, 1e300)
    ] + [pytest.param(_with_params("fig8", T_cold=1e-320),
                      id="fig8-T_cold=1e-320"),
         pytest.param(_with_lists("fig8", N=(10, math.inf)),
                      id="fig8-N=inf")])
    def test_forecast_equals_the_run(self, tmp_path, spec):
        """Every trap family is forecast by the run's own point builder and
        ground levels.  Where the failures come from them, as on every
        preset and on these edge specs, the forecast is the run's errors,
        indices and messages; fig4 and fig5 with a bad omega were
        forecast none of their 240 and 120 failures.  A cycle point's
        count is forecast as its route refuses it."""
        report = validate(spec)
        assert report.ok
        assert report.predicted_failures == _run(spec, tmp_path).errors

    @pytest.mark.parametrize("spec, forecast, failed", [
        pytest.param(_with_params("fig4", omega=1e300), 0, 240,
                     id="fig4-omega=1e300"),
        pytest.param(_with_lists("fig8", nu=(1e-3, 50.0)), 120, 240,
                     id="fig8-nu"),
        pytest.param(_with_lists("fig9", T_hot=(1e-320, 1.0, 1e308)),
                     1, 2, id="fig9-T_hot"),
        pytest.param(_with_params("fig2", T_hot=1e308), 0, 20,
                     id="fig2-T_hot=1e308")])
    def test_forecast_is_a_subset_of_the_run(self, tmp_path, spec, forecast,
                                             failed):
        """Where points fail later, in a root, a stage sum or the cycle's
        bounds, the forecast names only the failures of its builds and
        ground levels, each as the run does.  fig9's hot bath of 1e-320 K
        is a bath error the Morse forecast missed."""
        report = validate(spec)
        errors = _run(spec, tmp_path).errors
        assert (len(report.predicted_failures), len(errors)) == (forecast,
                                                                 failed)
        assert set(report.predicted_failures) <= set(errors)

    @pytest.mark.parametrize("target", ["fig8", "fig10"])
    def test_forecast_forms_no_sum(self, monkeypatch, target):
        """The forecast builds traps and looks up ground levels; it sums no
        stage, builds no rung and solves no root."""
        calls = [_count_calls(monkeypatch, name) for name in (
            "_series_sums", "_grand_rungs", "_mu_offsets")]
        assert validate(preset(target)).predicted_failures == []
        assert calls == [[], [], []]

    @pytest.mark.parametrize("target", ["fig4", "fig5"])
    @pytest.mark.parametrize("count", [math.inf, math.nan])
    def test_non_finite_count_gives_error_rows(self, tmp_path, target,
                                               count):
        """A hand-built harmonic grid with N = inf or nan once crashed the
        whole sweep with a bare OverflowError or ValueError; every point
        gets the typed row of the cycle families, forecast by validate."""
        spec = _with_lists(target, N=(count,))
        outcome = _run(spec, tmp_path)
        assert outcome.points == 40
        assert outcome.errors == [
            (index, "EnsembleMismatchError: particle count must be finite"
                    " and at least 1") for index in range(40)]
        assert validate(spec).predicted_failures == outcome.errors


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
        # a list named like an axis replaces it: fig7 once crossed the two
        # and wrote 200 rows with the list's values in none of them
        config = tmp_path / "list.ini"
        config.write_text("[list.scale_ratio]\nvalues = 1, 2\n")
        out = tmp_path / "fig7.csv"
        assert main(["fig7", "--config", str(config),
                     "--out", str(out)]) == 0
        columns, *rows = [line.split(",") for line in
                          out.read_text().splitlines()]
        ratio = columns.index("scale_ratio")
        assert [float(row[ratio]) for row in rows] == [1.0, 2.0] * 2

    def test_override_must_fit_target(self, tmp_path):
        assert main(["fig6", "--N", "5",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_literal_flag_is_morse_only(self, tmp_path):
        assert main(["fig9", "--eq38-literal",
                     "--out", str(tmp_path / "a.csv")]) == 0
        assert main(["fig8", "--eq38-literal",
                     "--out", str(tmp_path / "b.csv")]) == 1
        # its config key, which fig2 once took and ignored
        config = tmp_path / "literal.ini"
        config.write_text("[parameters]\nliteral_denominator = true\n")
        for target, code in (("fig9", 0), ("fig2", 1)):
            assert main([target, "--config", str(config),
                         "--out", str(tmp_path / "c.csv")]) == code

    def test_custom_without_config(self):
        assert main(["custom"]) == 1

    def test_unknown_target(self, tmp_path):
        assert main(["fig1", "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_policy_value(self, tmp_path, capsys):
        assert main(["fig6", "--rel-tol", "2.0",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert main(["fig6", "--workers", "0",
                     "--out", str(tmp_path / "x.csv")]) == 1
        capsys.readouterr()
        assert main(["fig6", "--max-terms", "ten",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("target, config, error, points", [
        pytest.param("fig2", "[parameters]\nT_hot = inf\n",
                     "EnsembleMismatchError", 20,
                     id="T_hot = inf-EnsembleMismatchError"),
        pytest.param("fig2", "[parameters]\nomega = inf\n",
                     "InvalidPotentialError", 20,
                     id="omega = inf-InvalidPotentialError"),
        # hbar*omega underflows to 0
        *(pytest.param(target, "[parameters]\nomega = 1e-300\n",
                       "InvalidPotentialError", points,
                       id=f"{target}-omega = 1e-300")
          for target, points in (("fig2", 20), ("fig4", 240), ("fig5", 120))),
        # beta = 0 at T = inf, and negative below 0 K
        *(pytest.param(target, f"[list.T]\nvalues = {values}\n",
                       "EnsembleMismatchError", points,
                       id=f"{target}-T = {values}")
          for target, points in (("fig4", 6), ("fig5", 3))
          for values in ("inf", "-1")),
        # the trap frequency of the energy scale leaves float range
        pytest.param("fig7", "[parameters]\nT_cold = 1e300\n",
                     "InvalidPotentialError", 100, id="fig7-T_cold = 1e300"),
        pytest.param("fig7", "[axis.scale_ratio]\nstart = 1e299\n"
                     "stop = 1e300\n", "InvalidPotentialError", 100,
                     id="fig7-scale_ratio to 1e300"),
        # p = 2 nu/(nu + 2) rounds to 2
        pytest.param("fig7", "[list.nu]\nvalues = 1e300\n",
                     "InvalidPotentialError", 50, id="fig7-nu = 1e300"),
        # 2 scale/mass underflows to 0, whose log is a math domain error
        pytest.param("fig8", "[parameters]\nmass = 1e300\n",
                     "InvalidPotentialError", 480, id="fig8-mass = 1e300"),
        # a count past int64 at every exponent: each mu rounds onto E_1
        # (its power-law rungs once raised a TypeError on an object array)
        pytest.param("fig8", "[list.N]\nvalues = 1e300\n",
                     "ConvergenceViolationError", 160, id="fig8-N = 1e300"),
        # beta E_scale underflows, so a closed-form tail leaves float range
        pytest.param("fig2", "[parameters]\nT_hot = 1e300\nT_cold = 1e299\n",
                     "SolverFailureError", 20, id="fig2-T = 1e300"),
        pytest.param("fig3", "[parameters]\nT_hot = 1e300\n",
                     "SolverFailureError", 180, id="fig3-T_hot = 1e300"),
        pytest.param("fig9", "[parameters]\nT_cold = 1e300\n",
                     "SolverFailureError", 50, id="fig9-T_cold = 1e300"),
        pytest.param("fig10", "[list.T_hot]\nvalues = 1e300\n",
                     "SolverFailureError", 200, id="fig10-T_hot = 1e300")])
    def test_non_finite_parameters_give_error_rows(self, tmp_path, capsys,
                                                   target, config, error,
                                                   points):
        (tmp_path / "inf.ini").write_text(config)
        out = tmp_path / "x.csv"
        assert main([target, "--config", str(tmp_path / "inf.ini"),
                     "--out", str(out)]) == 2
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == points
        assert all(row.split(",")[-1].startswith(f"{error}: ") for row in rows)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("args, config", [
        (["fig8", "--nu", "0.001", "--N", "10"], None),
        (["fig7"], "[list.nu]\nvalues = 1e-300\n")])
    def test_tiny_exponents_give_error_rows(self, tmp_path, capsys, args,
                                            config):
        """A cutoff estimate past float range is a typed row, not a crash."""
        if config is not None:
            (tmp_path / "nu.ini").write_text(config)
            args = args + ["--config", str(tmp_path / "nu.ini")]
        out = tmp_path / "x.csv"
        assert main(args + ["--out", str(out)]) == 2
        rows = out.read_text().splitlines()[1:]
        assert len(rows) in (40, 50)
        assert all(row.split(",")[-1].startswith("TruncationError: ")
                   for row in rows)
        assert "Traceback" not in capsys.readouterr().err

    def test_vanishing_exponent_names_its_cause(self, tmp_path):
        """At nu = 1e-307 the gamma ratio of the WKB prefactor is inf - inf:
        each row names the exponent, and no numpy warning reaches stderr."""
        out = tmp_path / "x.csv"
        src = str(Path(sweeps.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "szilard.cli", "fig8", "--nu", "1e-307",
             "--out", str(out)], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2 and done.stderr == ""
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 120
        assert all(row.split(",")[-1].startswith(
            "InvalidPotentialError: power-law exponent 1e-307 is too small")
            for row in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("target, config, code", [
        # hbar omega 1e266: q chi s^2 leaves float range before the
        # bound count finds no level
        ("fig9", "[parameters]\nomega = 1e300\n", 2),
        # a log axis to the largest double: geomspace's powers overflow
        ("fig10", "[axis.omega]\nstop = 1.7976931348623157e308\n", 0)])
    def test_values_near_float_range_leave_stderr_empty(self, tmp_path, capsys,
                                                        target, config, code):
        """Where an input drives numpy past float range, the code that
        meets it silences the warning: each run exits with its code, its
        rows typed, and no numpy warning reaches stderr."""
        (tmp_path / "big.ini").write_text(config)
        assert main([target, "--config", str(tmp_path / "big.ini"),
                     "--out", str(tmp_path / "x.csv")]) == code
        assert capsys.readouterr().err == ""

    _EDGES = ("0", "-1", "inf", "-inf", "nan", "5e-324", "1e300", "1e-300",
              "1.7976931348623157e308")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), target=st.sampled_from(preset_names()[:-1]),
           value=st.sampled_from(_EDGES))
    def test_edge_values_exit_cleanly(self, tmp_path_factory, data, target,
                                      value):
        """A preset config with one [parameters] value, one [list.X] or one
        axis end at an edge of float range: the run exits 0 to 3 with no
        traceback and no RuntimeWarning, and its stderr is empty or one
        error line."""
        spec = preset(target)
        names = [*spec.lists, *(axis.name for axis in spec.axes)]
        slot = data.draw(st.sampled_from(
            [("parameters", key) for key in spec.params]
            + [(f"list.{name}", "values") for name in names]
            + [(f"axis.{axis.name}", end) for axis in spec.axes
               for end in ("start", "stop")]))
        folder = tmp_path_factory.mktemp("edge")
        (folder / "edge.ini").write_text(f"[{slot[0]}]\n{slot[1]} = {value}\n")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([target, "--config", str(folder / "edge.ini"),
                         "--out", str(folder / "edge.csv")])
        event(f"{target} [{slot[0]}] exits {code}")
        assert 0 <= code <= 3
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []
        lines = err.getvalue().splitlines()
        assert "Traceback" not in err.getvalue()
        assert lines == [] or (len(lines) == 1 and lines[0].startswith(
            ("config error: ", "error: ")))

    def test_huge_branch_gives_a_row(self, tmp_path, capsys):
        """A branch of 1e300 once ran until memory ran out, when
        even_levels solved every branch up to the one asked for.  Past
        max_terms it is a typed row, and the other branches keep their
        preset values."""
        config = tmp_path / "branch.ini"
        config.write_text("[list.branch]\nvalues = 5, 1e300\n")
        out = tmp_path / "x.csv"
        assert main(["fig6", "--config", str(config), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 12
        assert [row[-1] for row in rows if row[1] != "5"] == [
            "TruncationError: branch 1e+300 needs 1e+300 even-level solves;"
            "  policy caps at 1000000"] * 6
        assert [",".join(row) for row in rows if row[1] == "5"] == [
            line for line in open(_run(preset("fig6"), tmp_path).csv_path)
            .read().splitlines() if line.split(",")[1] == "5"]

    @pytest.mark.parametrize("args, config", [
        (["fig2", "--N", "inf"], None),
        (["fig2", "--N", "2.5"], None),
        (["fig2"], "[list.N]\nvalues = 3, inf\n"),
        (["fig6"], "[list.branch]\nvalues = 1.5\n")])
    def test_integer_lists_reject_inf_and_fractions(self, tmp_path, capsys,
                                                    args, config):
        if config is not None:
            (tmp_path / "int.ini").write_text(config)
            args = args + ["--config", str(tmp_path / "int.ini")]
        assert main(args + ["--out", str(tmp_path / "x.csv")]) == 1
        assert "is not a whole number" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bath_whose_beta_overflows_gives_rows(self, tmp_path, capsys):
        """Below about 4e-286 K, beta = 1/(k_B T) is inf: a Morse cycle
        there once came out all nan, after a numpy warning."""
        config = tmp_path / "cold.ini"
        config.write_text("[axis.T_hot]\nstart = 1e-300\nstop = 2e-300\n"
                          "points = 2\n")
        out = tmp_path / "x.csv"
        assert main(["fig9", "--config", str(config),
                     "--out", str(out)]) == 2
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.split(",")[-1].startswith("EnsembleMismatchError: ")
                   for row in rows)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_particle_count_gives_rows(self, tmp_path, capsys):
        """A count past 1e290 once overflowed the root's lower bracket, and
        N beta past float range made numpy warn before the typed row; the
        canonical row names that overflow as its cause."""
        for args, points in ((["fig8", "--nu", "2"], 40), (["fig2"], 1)):
            out = tmp_path / f"{args[0]}.csv"
            assert main(args + ["--N", "1e300", "--out", str(out)]) in (0, 2)
            assert "Traceback" not in capsys.readouterr().err
            columns, *rows = [line.split(",") for line in
                              out.read_text().splitlines()]
            assert len(rows) == points
            work = columns.index("work")
            for row in rows:
                assert (row[work] and not row[-1]) or (
                    not row[work] and re.match(r"^[A-Za-z]+Error: ", row[-1]))
        assert rows[0][-1] == ("EnsembleMismatchError: N/(k_B T) overflows:"
                               " N = 1e+300 at 200 K is past float range")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("target, section, line, code", [
        pytest.param("fig9", section, line, code, id=f"{section}-{line}-{code}")
        for section, line, code in (
            ("run", "workers = two", 1),
            ("run", "workers = 0", 1),
            ("policy", "max_terms = 1e6", 0),
            ("policy", "rel_tol = tiny", 1),
            ("axis.T_hot", "points = ten", 1),
            ("axis.T_hot", "stop = inf", 1))] + [
        # an axis to inf once warned in linspace, or divided by beta = 0
        pytest.param(target, f"axis.{name}", "stop = inf", 1,
                     id=f"{target}-axis.{name}-stop = inf-1")
        for target, name in (("fig4", "T"), ("fig5", "T"),
                             ("fig7", "scale_ratio"),
                             ("fig9-inset", "anharmonicity"))] + [
        # a negative branch once ended in an IndexError
        pytest.param("fig6", "list.branch", "values = -1", 1,
                     id="fig6-list.branch-values = -1-1")])
    def test_config_numbers_are_typed(self, tmp_path, capsys, target,
                                      section, line, code):
        """Each number a config file sets parses like a list value: a typed
        configuration error, never a bare ValueError."""
        config = tmp_path / "run.ini"
        config.write_text(f"[{section}]\n{line}\n")
        out = tmp_path / "x.csv"
        assert main([target, "--config", str(config),
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err.startswith("config error: ")
            assert not out.exists()
        else:
            assert "max_terms = 1000000" in (
                tmp_path / "x.csv.manifest").read_text()

    @pytest.mark.parametrize("target, flag, config", [
        pytest.param("fig2", ["--max-terms", "1e6"],
                     "[policy]\nmax_terms = 1e6\n", id="max-terms"),
        pytest.param("fig2", ["--workers", "2.0"],
                     "[run]\nworkers = 2.0\n", id="workers"),
        pytest.param("fig2", ["--rel-tol", "1e-10"],
                     "[policy]\nrel_tol = 1e-10\n", id="rel-tol"),
        pytest.param("fig2", ["--out", "x.csv"],
                     "[run]\noutput = x.csv\n", id="out"),
        pytest.param("fig9", ["--eq38-literal"],
                     "[parameters]\nliteral_denominator = true\n",
                     id="eq38-literal"),
        pytest.param("fig6", ["--lambda", "0,1,inf"],
                     "[list.strength]\nvalues = 0,1,inf\n", id="lambda"),
        pytest.param("fig7", ["--nu", "2.2, 1.6"],
                     "[list.nu]\nvalues = 2.2, 1.6\n", id="nu"),
        pytest.param("fig2", ["--N", "3,1e1"],
                     "[list.N]\nvalues = 3,1e1\n", id="N")])
    def test_flags_parse_like_their_config_keys(self, tmp_path, monkeypatch,
                                                target, flag, config):
        """A flag is its config key: the two give the same CSV bytes and
        the same resolved manifest, each run in its own directory."""
        runs = {}
        for name, args in (("flag", flag), ("key", ["--config", "key.ini"])):
            (tmp_path / name).mkdir()
            (tmp_path / name / "key.ini").write_text(config)
            monkeypatch.chdir(tmp_path / name)
            assert main([target, *args]) == 0
            csv, = Path().glob("*.csv")
            runs[name] = (csv.name, csv.read_bytes(), [
                line for line in Path(f"{csv}.manifest").read_text()
                .splitlines() if not line.startswith(
                    ("created_utc", "wall_clock_seconds"))])
        assert runs["flag"] == runs["key"]

    @pytest.mark.parametrize("target, args, config, message", [
        pytest.param(target, [], f"[list.{name}]\nvalues = 1, 2\n",
                     f"list {name!r} does not apply to target {target!r}",
                     id=f"{target}-{name}")
        for target, name in (("fig2", "nu"), ("fig10", "T_cold"))] + [
        pytest.param("fig2", ["--nu", "1,2"], None,
                     "list 'nu' does not apply to target 'fig2'",
                     id="fig2-nu-flag"),
        # an empty list, as a flag or a key, once ran nothing or everything
        *(pytest.param("fig2", args, config, "list 'N' is empty",
                       id=f"fig2-empty-N-{ident}")
          for ident, args, config in (
              ("flag", ["--N", ","], None),
              ("blank-flag", ["--N", ""], None),
              ("key", [], "[list.N]\nvalues = ,\n"),
              ("no-values", [], "[list.N]\n"))),
        pytest.param("fig7", [], "[axis.scale_ratio]\nstart = 1\n"
                     "[list.scale_ratio]\nvalues = 1, 2\n",
                     "give [axis.scale_ratio] or [list.scale_ratio], not both",
                     id="fig7-axis-and-list"),
        pytest.param("fig2", [], "[parameters]\nliteral_denominator = true\n",
                     "parameter literal_denominator applies to the Morse"
                     " targets only", id="fig2-literal")])
    def test_list_the_target_never_reads_is_rejected(self, tmp_path, capsys,
                                                      target, args, config,
                                                      message):
        """An input the target cannot use is one configuration error, given
        as a flag or a key.  fig2 once took [list.nu] values = 1, 2 and wrote
        40 rows, 20 of them repeats with no column for nu; a Morse point
        reads T_cold only from the parameters."""
        if config is not None:
            (tmp_path / "list.ini").write_text(config)
            args = args + ["--config", str(tmp_path / "list.ini")]
        out = tmp_path / "x.csv"
        assert main([target, *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("target, config, message", [
        pytest.param(target, config, message, id=ident)
        for ident, target, config, message in (
            ("fig2-T_hott", "fig2", "[parameters]\nT_hott = 3\n",
             "target 'fig2' takes no key 'T_hott' in [parameters]"),
            ("fig2-omgea", "fig2", "[parameters]\nomgea = 5\n",
             "target 'fig2' takes no key 'omgea' in [parameters]"),
            ("polcy", "fig2", "[polcy]\nrel_tol = 1e-3\n",
             "unknown section [polcy]"),
            ("axis-unnamed", "fig2", "[axis]\nstart = 1\n",
             "unknown section [axis]"),
            ("outptu", "fig2", "[run]\noutptu = x.csv\n",
             "target 'fig2' takes no key 'outptu' in [run]"),
            ("rel_tols", "fig2", "[policy]\nrel_tols = 1e-3\n",
             "target 'fig2' takes no key 'rel_tols' in [policy]"),
            ("axis-stpo", "fig4", "[axis.T]\nstpo = 3\n",
             "target 'fig4' takes no key 'stpo' in [axis.T]"),
            ("list-value", "fig2", "[list.N]\nvalue = 1, 2\n",
             "target 'fig2' takes no key 'value' in [list.N]"),
            ("fig2-mu_mode", "fig2", "[parameters]\nmu_mode = solved\n",
             "target 'fig2' takes no key 'mu_mode' in [parameters]"),
            ("fig4-mu_mode", "fig4", "[parameters]\nmu_mode = solved\n",
             "target 'fig4' takes no key 'mu_mode' in [parameters]"),
            ("fig8-omega", "fig8", "[parameters]\nomega = 1e11\n",
             "target 'fig8' takes no key 'omega' in [parameters]"),
            ("fig6-mass", "fig6", "[parameters]\nmass = 1\n",
             "target 'fig6' takes no key 'mass' in [parameters]"),
            ("fig4-literal-false", "fig4",
             "[parameters]\nliteral_denominator = false\n",
             "parameter literal_denominator applies to the Morse targets"
             " only"))])
    def test_key_nothing_reads_is_rejected(self, tmp_path, capsys, target,
                                           config, message):
        """A section, or a key of a section, that the target never reads is
        a configuration error naming it.  fig2 once took [parameters] T_hott
        = 3, wrote its 20 rows at the default 200 K and recorded T_hott in
        its manifest; a misspelt section or [run] key was ignored alike."""
        (tmp_path / "typo.ini").write_text(config)
        out = tmp_path / "x.csv"
        assert main([target, "--config", str(tmp_path / "typo.ini"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--out", "x.csv"]],
                             ids=["default-out", "out"])
    def test_default_section_is_rejected(self, tmp_path, capsys, monkeypatch,
                                         flags):
        """[DEFAULT] is an unknown section: ConfigParser folds its keys into
        every other section.  fig2 once ran past [DEFAULT] T_hott = 3 and
        wrote its default 20 rows, and with --out, which adds a [run]
        section, named the key as [run]'s."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.ini").write_text("[DEFAULT]\nT_hott = 3\n")
        assert main(["fig2", "--config", "d.ini", *flags]) == 1
        assert capsys.readouterr().err == (
            "config error: unknown section [DEFAULT]\n")
        assert [path.name for path in tmp_path.iterdir()] == ["d.ini"]

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

    def test_import_loads_no_heavy_module(self):
        """Importing the CLI and validating every preset, which is what a
        fresh run does before its first point, loads numpy but no scipy
        module and none of the test-only ones: each would add to the
        start-up time of every run."""
        heavy = ("scipy", "mpmath", "hypothesis")
        code = ("import sys\n"
                "import szilard.cli\n"
                "from szilard.sweeps import preset, preset_names, validate\n"
                "assert all(validate(preset(name)).ok\n"
                "           for name in preset_names() if name != 'custom')\n"
                f"print([m for m in {heavy!r} if m in sys.modules])\n")
        src = str(Path(sweeps.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.strip() == "[]"
