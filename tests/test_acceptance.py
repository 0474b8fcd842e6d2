"""End-to-end acceptance checks, one test per numbered criterion.

Each test registers a PASS/FAIL line with the conftest reporter before its
assertion fires, so the terminal summary always shows the full scoreboard.
Heavyweight preset grids run once per session and are shared.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import conftest
from szilard import (Barrier, BathPair, Ensemble, HBAR, Harmonic, K_B, Morse,
                     MuMode, PowerLaw, Stage, carnot_bound,
                     chemical_potentials, even_levels, internal_energy,
                     level_energy, occupancy_total, omega_prefactor, preset,
                     run_cycle, run_sweep)

MASS = 19.11e-11

FROZEN_EVEN_ROOTS = {
    (1.0, 0): 0.89274404530895262,
    (10.0, 0): 1.39200570433735497,
    (100.0, 0): 1.48875636783634185,
    (1e4, 0): 1.49988716599136798,
    (1.0, 3): 6.66990905189794170,
}


@pytest.fixture(scope="session")
def sweeps(tmp_path_factory):
    """Run each preset grid at most once per (target, workers) and cache."""
    root = tmp_path_factory.mktemp("sweeps")
    cache = {}

    def run(target, workers=1):
        key = (target, workers)
        if key not in cache:
            spec = preset(target)
            if workers != 1:
                spec = replace(spec, workers=workers)
            path = root / f"{target}-w{workers}.csv"
            cache[key] = run_sweep(spec, csv_path=str(path))
        return cache[key]

    return run


def test_criterion_01_quadratic_reduces_to_harmonic():
    worst = 0.0
    n = np.arange(1, 1001)
    for omega in (1e9, 1e10, 1e11, 5e13):
        trap = PowerLaw(mass=MASS, omega=omega, exponent=2.0)
        scale = omega_prefactor(trap)
        worst = max(worst, abs(scale - HBAR * omega) / (HBAR * omega))
        ladder = (n + 0.5) * HBAR * omega
        worst = max(worst, float(np.max(
            np.abs(level_energy(trap, n) - ladder) / ladder)))
    ok = worst <= 1e-12
    conftest.record(1, ok, f"nu=2 energy scale and levels 1..1000 match the"
                           f" harmonic ladder; worst rel err {worst:.2e}"
                           f" (tol 1e-12)")
    assert ok


def test_criterion_02_even_level_solver():
    exact = all(
        sol.energy == 0.5 + 2.0 * sol.branch for sol in even_levels(0.0, 5)
    ) and all(
        sol.energy == 1.5 + 2.0 * sol.branch
        for sol in even_levels(math.inf, 5))
    worst = max(abs(even_levels(lam, k)[k].energy - expected)
                for (lam, k), expected in FROZEN_EVEN_ROOTS.items())
    monotone = True
    for k in range(4):
        ladder = [even_levels(lam, k)[k].energy
                  for lam in (0.0, 1.0, 10.0, 100.0, 1e4)]
        monotone &= all(b - a > 0.0 for a, b in zip(ladder, ladder[1:]))
    ok = exact and monotone and worst <= 1e-10
    conftest.record(2, ok, f"barrier roots hit both exact limits, stay"
                           f" monotone in strength, match frozen values to"
                           f" {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_03_deep_well_work_quantum():
    well = Morse(mass=MASS, depth=8.7 * 1.602176634e-19, omega=1e10)
    t_cold = 2.5e-3
    baths = BathPair(hot=2.0 * t_cold, cold=t_cold)
    ground = level_energy(well, 1) / (K_B * t_cold)
    result = run_cycle(well, Ensemble.MORSE_SINGLE, 1, baths)
    ratio = result.work / (K_B * t_cold)
    err = abs(ratio - math.log(2.0))
    ok = ground > 40.0 and err <= 1e-3
    conftest.record(3, ok, f"half-ratio Morse cycle with beta_c*E_1 ="
                           f" {ground:.1f} gives W/(kB*T_c) = log 2"
                           f" +- {err:.1e} (tol 1e-3)")
    assert ok


def test_criterion_04_harmonic_limit_work():
    well = Morse(mass=MASS, depth=math.inf, omega=1e10)
    baths = BathPair(hot=5.0e-3, cold=2.5e-3)
    quantum = HBAR * 1e10 / (K_B * baths.hot)
    result = run_cycle(well, Ensemble.MORSE_SINGLE, 1, baths)
    limit = K_B * (baths.hot - baths.cold) * math.log(2.0)
    err = abs(result.work - limit) / limit
    ok = quantum > 10.0 and err <= 1e-3
    conftest.record(4, ok, f"zero-anharmonicity cycle at beta_h*quantum ="
                           f" {quantum:.1f} gives W = kB*dT*log 2 to"
                           f" {err:.1e} relative (tol 1e-3)")
    assert ok


def test_criterion_05_carnot_ceiling(sweeps):
    checked = 0
    excess = 0.0
    for target in ("fig8", "fig11"):
        outcome = sweeps(target)
        bound = 0.5    # both grids fix T_cold/T_hot = 1/2
        for row in outcome.rows:
            if row["error"] or row["regime"] != "engine":
                continue
            checked += 1
            excess = max(excess, row["efficiency"] - bound)
    ok = checked > 0 and excess <= 1e-9
    conftest.record(5, ok, f"all {checked} engine points across both cycle"
                           f" grids stay below Carnot; worst excess"
                           f" {excess:.1e} (tol 1e-9)")
    assert ok


def _bosonic_log_z(trap, barrier, mu, beta, count=200_000):
    g = 2.0 if barrier is Barrier.INSERTED else 1.0
    e = level_energy(trap, np.arange(1, count + 1), barrier)
    return -g * float(np.sum(np.log1p(-np.exp(-beta * (e - mu)))))


def _morse_log_z(well, barrier, beta):
    from szilard import Spectrum
    cap = Spectrum(well, barrier).cutoff
    e = level_energy(well, np.arange(1, min(cap, 20_000) + 1), barrier)
    g = 2.0 if barrier is Barrier.INSERTED else 1.0
    e1 = float(e[0])
    return math.log(g) - beta * e1 + math.log(float(
        np.sum(np.exp(-beta * (e - e1)))))


def test_criterion_06_energies_match_log_derivative():
    worst = 0.0
    # bosonic grid
    for t_hot in np.linspace(1.0, 3.0, 5):
        for omega in np.geomspace(5e10, 5e11, 5):
            trap = Harmonic(mass=MASS, omega=float(omega))
            baths = BathPair(hot=float(t_hot), cold=0.5 * float(t_hot))
            for temperature, stages in ((baths.hot, (Stage.A, Stage.B)),
                                        (baths.cold, (Stage.C, Stage.D))):
                pair = chemical_potentials(trap, 10, temperature,
                                           MuMode.SOLVED)
                beta = 1.0 / (K_B * temperature)
                db = 1e-6 * beta
                for stage in stages:
                    barrier = (Barrier.INSERTED
                               if stage in (Stage.B, Stage.C)
                               else Barrier.ABSENT)
                    mu = (pair.post_insertion
                          if barrier is Barrier.INSERTED
                          else pair.pre_insertion)
                    fd = -(_bosonic_log_z(trap, barrier, mu, beta + db)
                           - _bosonic_log_z(trap, barrier, mu, beta - db)
                           ) / (2.0 * db)
                    u = internal_energy(stage, trap, pair, baths)
                    worst = max(worst, abs(u - fd) / abs(fd))
    # Morse grid
    depth = 8.7 * 1.602176634e-19
    for t_hot in np.linspace(1.0, 9.0, 5):
        for omega in np.geomspace(1e10, 1e12, 5):
            well = Morse(mass=MASS, depth=depth, omega=float(omega))
            baths = BathPair(hot=float(t_hot), cold=0.5 * float(t_hot))
            for temperature, stages in ((baths.hot, (Stage.A, Stage.B)),
                                        (baths.cold, (Stage.C, Stage.D))):
                beta = 1.0 / (K_B * temperature)
                db = 1e-6 * beta
                for stage in stages:
                    barrier = (Barrier.INSERTED
                               if stage in (Stage.B, Stage.C)
                               else Barrier.ABSENT)
                    fd = -(_morse_log_z(well, barrier, beta + db)
                           - _morse_log_z(well, barrier, beta - db)
                           ) / (2.0 * db)
                    u = internal_energy(stage, well, None, baths)
                    worst = max(worst, abs(u - fd) / abs(fd))
    ok = worst <= 1e-6
    conftest.record(6, ok, f"stage energies match -dlogZ/dbeta on both 5x5"
                           f" grids, all four stages; worst rel err"
                           f" {worst:.2e} (tol 1e-6)")
    assert ok


def test_criterion_07_chemical_potential_modes(sweeps):
    trap = Harmonic(mass=MASS, omega=1e10)
    worst = 0.0
    for count in (5, 20, 30):
        for temperature in (0.1, 1.0):
            for barrier in Barrier:
                mu = chemical_potentials(trap, count, temperature,
                                         MuMode.SOLVED)
                value = (mu.post_insertion if barrier is Barrier.INSERTED
                         else mu.pre_insertion)
                n = occupancy_total(trap, barrier, value, temperature)
                worst = max(worst, abs(n - count) / count)
    recovery_ok = worst <= 1e-10

    outcome = sweeps("fig4")
    monotone_ok = True
    per_count = {}
    for row in outcome.rows:
        per_count.setdefault(row["N"], []).append(
            (row["T"], row["discrepancy_pre"], row["discrepancy_post"]))
    for series in per_count.values():
        series.sort()
        for column in (1, 2):
            gaps = [entry[column] for entry in series]
            monotone_ok &= all(a < b for a, b in zip(gaps, gaps[1:]))
    ok = recovery_ok and monotone_ok
    conftest.record(7, ok, f"solved mu recovers N to {worst:.1e} (tol 1e-10)"
                           f" and the closed-form gap shrinks monotonically"
                           f" as T drops, every N")
    assert ok


def test_criterion_08_first_law_everywhere(sweeps):
    cycle_targets = ("fig2", "fig3", "fig7", "fig8", "fig9", "fig9-inset",
                     "fig10", "fig11")
    checked = 0
    worst = 0.0
    for target in cycle_targets:
        for row in sweeps(target).rows:
            if row["error"]:
                continue
            checked += 1
            closure = abs(row["work"] - (row["q_hot"] + row["q_cold"]))
            scale = max(abs(row["work"]), abs(row["q_hot"]),
                        abs(row["q_cold"]), 1e-300)
            worst = max(worst, closure / scale)
    ok = checked > 0 and worst <= 1e-10
    conftest.record(8, ok, f"W equals the summed heats on {checked} cycle"
                           f" rows across all presets; worst rel closure"
                           f" {worst:.1e} (tol 1e-10)")
    assert ok


def test_criterion_09_classical_top_of_window(sweeps):
    outcome = sweeps("fig5")
    top = {}
    for row in outcome.rows:
        if not row["error"]:
            recorded = top.get(row["N"])
            if recorded is None or row["T"] > recorded[0]:
                top[row["N"]] = (row["T"], row["ratio"])
    trap = Harmonic(mass=MASS, omega=1e10)
    worst_z = 0.0
    worst_w = 0.0
    for count in (10, 20, 30):
        temperature, ratio = top[count]
        worst_z = max(worst_z, abs(ratio - 1.0))
        baths = BathPair(hot=temperature, cold=0.5 * temperature)
        result = run_cycle(trap, Ensemble.GRAND_BOSE, count, baths)
        worst_w = max(worst_w, abs(result.work)
                      / (K_B * baths.cold * math.log(2.0)))
    ok = worst_z < 1e-3 and worst_w < 1e-3
    conftest.record(9, ok, f"at the 10 K top of the window |Z-1| <="
                           f" {worst_z:.1e} and |W| <= {worst_w:.1e} of a"
                           f" one-bit stroke, N in 10/20/30 (tol 1e-3)")
    assert ok


def test_criterion_10_efficiency_trends(sweeps):
    outcome = sweeps("fig8")
    assert outcome.spec.workers == 1
    series = {}
    for row in outcome.rows:
        if not row["error"]:
            series.setdefault((row["nu"], row["N"]), []).append(
                (row["scale_ratio"], row["efficiency"], row["regime"]))

    # larger N must win at every trap scale where all three N run as engines
    trios = 0
    ordered = True
    counts = (10, 20, 30)
    for nu in (1.6, 2.0, 2.2, 2.6):
        by_count = {count: dict((s, (e, r))
                                for s, e, r in series[(nu, count)])
                    for count in counts}
        for scale in by_count[10]:
            points = [by_count[count][scale] for count in counts]
            if any(regime != "engine" for _, regime in points):
                continue
            trios += 1
            etas = [eta for eta, _ in points]
            ordered &= etas[0] < etas[1] < etas[2]

    # and the efficiency should fall back toward zero at large trap scale
    decays = True
    top_etas = []
    for (nu, count), points in sorted(series.items()):
        engine = [(s, e) for s, e, r in points if r == "engine"]
        engine.sort()
        etas = [e for _, e in engine]
        tail = etas[len(etas) // 2:]
        falling = all(b <= a for a, b in zip(tail, tail[1:]))
        vanishing = etas[-1] <= 0.1 * max(etas)
        decays &= falling and vanishing
        if count == 30:
            top_etas.append(f"nu={nu:g}: {etas[-1]:.3f}")

    in_budget = outcome.wall_clock < 60.0
    ok = trios > 0 and ordered and decays and in_budget
    conftest.record(10, ok, f"efficiency rises with N ({trios} engine trios"
                            f" ordered) but never decays at large scale;"
                            f" top-of-range eta at N=30: "
                            + ", ".join(top_etas)
                            + f"; grid took {outcome.wall_clock:.1f} s")
    assert ok


def test_criterion_11_byte_determinism(sweeps):
    pairs = (("fig8", 1, 4), ("fig9-inset", 1, 3))
    identical = True
    for target, serial_workers, pool_workers in pairs:
        serial = open(sweeps(target, serial_workers).csv_path, "rb").read()
        pooled = open(sweeps(target, pool_workers).csv_path, "rb").read()
        identical &= serial == pooled
    conftest.record(11, identical, "fig8 and fig9-inset CSVs are"
                                   " byte-identical across worker counts,"
                                   " error rows included")
    assert identical


REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


@pytest.mark.parametrize("target", ("fig2", "fig3", "fig4", "fig5", "fig6",
                                    "fig8", "fig9", "fig9-inset", "fig10",
                                    "fig11"))
def test_preset_matches_its_benchmark_reference(sweeps, target):
    """Each preset the grids above run matches the benchmark's committed
    reference (read only) row by row, keyed on its grid coordinates:
    regime and error exactly, and every numeric cell to 1e-8 relative.
    fig11 is fig10's grid under its own name, so it reads fig10's."""
    outcome = sweeps(target)
    keys = [name for name, _ in outcome.spec.grid()]

    def table(path):
        header, *rows = [line.split(",")
                         for line in Path(path).read_text().splitlines()]
        return header, len(rows), {
            tuple(row[header.index(key)] for key in keys): row for row in rows}

    header, count, got = table(outcome.csv_path)
    want_header, want_count, want = table(
        REFERENCES / f"{'fig10' if target == 'fig11' else target}.csv")
    assert header == want_header
    assert count == len(got) == want_count == len(want)
    assert got.keys() == want.keys()
    worst = 0.0
    for key, row in want.items():
        for name, cell, expected in zip(header, got[key], row):
            if name in ("regime", "error") or not (cell and expected):
                assert cell == expected, (key, name)
            elif cell != expected:
                a, b = float(cell), float(expected)
                worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    assert worst <= 1e-8
