"""Stage sums: canonical ladders, grand-canonical bosons, Morse averages."""

import bisect
import contextlib
import gc
import itertools
import math
import random
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from szilard import (Barrier, BathPair, ChemicalPotentials,
                     ConvergenceViolationError, Ensemble,
                     EnsembleMismatchError, HBAR, Harmonic, K_B, Morse, MuMode,
                     PowerLaw, SolverFailureError, SpectrumRangeError, Stage,
                     SzilardError,
                     TruncationError,
                     TruncationPolicy,
                     canonical_stage_properties, chemical_potential,
                     chemical_potentials, internal_energy, level_energy,
                     log_relative_partition, occupancy_total, run_cycle)
from szilard import _tail_sums, ensembles, potentials, sweeps
from szilard.barrier import even_levels, odd_level
from szilard.sweeps import preset, run_sweep

from conftest import newton_rounds

MASS = 19.11e-11
OMEGA = 1e11
BATHS = BathPair(hot=200.0, cold=100.0)

# 60-digit canonical work anchors at mass 19.11e-11 kg, omega 1e11 rad/s,
# baths 200/100 K, from the geometric closed form of the stage sums
W_CANONICAL = {1: 5.0338870773722705e-27,
               5: 3.8279618242544581e-21,
               20: 1.8184231095252045e-20}


def _one_batch(trap, count, temperature, policy=TruncationPolicy()):
    """The batch _batches makes of a lone trap at the decay rate count
    beta of `temperature`: (its trap table, the rows of its points)."""
    table, batches = ensembles._batches((trap,), [
        count * ensembles._beta(temperature)], policy)
    assert batches == [[0]] and table.rows == [0]
    return table, [0]


def _on_rows(requests):
    """The _TrapTable of the traps that lead requests, and the requests
    with each trap replaced by its row."""
    table = ensembles._TrapTable([request[0] for request in requests])
    return table, [(row, *request[1:])
                   for row, request in zip(table.rows, requests)]


def _closed_form_work(count, omega, baths):
    """Geometric stage sums of the shared-level harmonic ladder."""
    q = HBAR * omega

    def log_ratio(temperature):
        nb = count / (K_B * temperature)
        # log(S_ins/S_abs) with S_abs = e^{-1.5 n b q}/(1 - e^{-n b q})
        # and S_ins = 2^N e^{-2.5 n b q}/(1 - e^{-2 n b q})
        return (count * math.log(2.0) - nb * q
                + math.log1p(-math.exp(-nb * q))
                - math.log1p(-math.exp(-2.0 * nb * q)))

    return (K_B * baths.hot * log_ratio(baths.hot)
            - K_B * baths.cold * log_ratio(baths.cold))


def _canonical_work(potential, count, baths, policy=TruncationPolicy()):
    return run_cycle(potential, Ensemble.CANONICAL_N, count, baths,
                     policy).work


def _ratio(potential, mu_pair, temperature):
    return math.exp(log_relative_partition(potential, mu_pair, temperature))


class TestCanonical:

    def test_stage_sum_matches_geometric_form(self):
        q = HBAR * OMEGA
        for count, temperature in ((2, 100.0), (7, 150.0)):
            nb = count / (K_B * temperature)
            log_a, _ = canonical_stage_properties(
                Harmonic(MASS, OMEGA), Barrier.ABSENT, count, temperature)
            expected = -1.5 * nb * q - math.log1p(-math.exp(-nb * q))
            assert log_a == pytest.approx(expected, rel=1e-12)
            log_b, _ = canonical_stage_properties(
                Harmonic(MASS, OMEGA), Barrier.INSERTED, count, temperature)
            expected = (count * math.log(2.0) - 2.5 * nb * q
                        - math.log1p(-math.exp(-2.0 * nb * q)))
            assert log_b == pytest.approx(expected, rel=1e-12)

    def test_frozen_work_anchors(self):
        trap = Harmonic(MASS, OMEGA)
        # N = 1 sits six orders below the log terms it is assembled from,
        # so cancellation eats about six digits of the double result
        assert _canonical_work(trap, 1, BATHS) == pytest.approx(
            W_CANONICAL[1], rel=1e-8)
        assert _canonical_work(trap, 5, BATHS) == pytest.approx(
            W_CANONICAL[5], rel=1e-12)
        assert _canonical_work(trap, 20, BATHS) == pytest.approx(
            W_CANONICAL[20], rel=1e-12)

    def test_matches_closed_form_across_counts(self):
        trap = Harmonic(MASS, OMEGA)
        for count in (2, 3, 9, 14):
            assert _canonical_work(trap, count, BATHS) == pytest.approx(
                _closed_form_work(count, OMEGA, BATHS), rel=1e-9)

    def test_low_temperature_work_limit(self):
        """Deep in the quantum regime each particle is worth k dT log 2."""
        omega = 1e10
        t_hot = HBAR * omega / (25.0 * K_B)
        baths = BathPair(hot=t_hot, cold=0.5 * t_hot)
        for count in (1, 4, 9):
            w = _canonical_work(Harmonic(MASS, omega), count, baths)
            limit = count * K_B * (baths.hot - baths.cold) * math.log(2.0)
            assert w == pytest.approx(limit, rel=1e-12)

    def test_stage_energy_collapses_onto_ground_level(self):
        omega = 1e10
        t = HBAR * omega / (30.0 * K_B)
        _, u = canonical_stage_properties(Harmonic(MASS, omega),
                                          Barrier.ABSENT, 3, t)
        assert u == pytest.approx(3.0 * 1.5 * HBAR * omega, rel=1e-12)

    def test_power_law_route_runs(self):
        trap = PowerLaw(MASS, 1e10, 1.6)
        w = _canonical_work(trap, 3, BathPair(2.0, 1.0))
        assert math.isfinite(w)

    def test_rejects_morse_and_bad_counts(self):
        well = Morse(mass=MASS, depth=math.inf, omega=1e10)
        with pytest.raises(EnsembleMismatchError):
            _canonical_work(well, 2, BATHS)
        for count in (0, -1):
            with pytest.raises(EnsembleMismatchError):
                _canonical_work(Harmonic(MASS, OMEGA), count, BATHS)


    def test_tail_past_float_range_is_an_error(self):
        """At 1e300 K beta hbar omega underflows, so the geometric tail of
        the stage sum leaves float range: a SolverFailureError, not nan."""
        with pytest.raises(SolverFailureError, match="after its tail"):
            canonical_stage_properties(Harmonic(MASS, OMEGA), Barrier.ABSENT,
                                       1, 1e300)


class TestChemicalPotential:

    def test_closed_form_identities(self):
        trap = Harmonic(MASS, 1e10)
        q = HBAR * 1e10
        for count, temperature in ((10, 0.3), (30, 1.7)):
            kt = K_B * temperature
            pre = chemical_potential(trap, count, temperature, Barrier.ABSENT,
                                     MuMode.CLOSED_FORM)
            post = chemical_potential(trap, count, temperature,
                                      Barrier.INSERTED, MuMode.CLOSED_FORM)
            assert pre == pytest.approx(
                1.5 * q - kt * math.log1p(1.0 / count), rel=1e-14)
            assert post == pytest.approx(
                2.5 * q - kt * math.log1p(2.0 / count), rel=1e-14)

    def test_solved_mode_recovers_occupancy(self):
        trap = Harmonic(MASS, 1e10)
        for count in (5, 20):
            for temperature in (0.1, 1.0, 10.0):
                for barrier in Barrier:
                    mu = chemical_potential(trap, count, temperature, barrier,
                                            MuMode.SOLVED)
                    n = occupancy_total(trap, barrier, mu, temperature)
                    assert n == pytest.approx(count, rel=1e-10)
                    assert mu < level_energy(trap, 1, barrier)

    def test_pair_helper_binds_temperature(self):
        trap = Harmonic(MASS, 1e10)
        pair = chemical_potentials(trap, 10, 0.7, MuMode.SOLVED)
        assert pair.temperature == 0.7
        assert pair.count == 10
        assert pair.mode is MuMode.SOLVED
        assert pair.pre_insertion < pair.post_insertion   # ground levels differ

    def test_modes_agree_at_low_temperature(self):
        """The closed form is the T -> 0 limit of the occupancy constraint,
        so the gap between modes must shrink with T."""
        trap = Harmonic(MASS, 1e10)
        gaps = []
        for temperature in (0.05, 0.2, 0.8):
            closed = chemical_potential(trap, 10, temperature, Barrier.ABSENT,
                                        MuMode.CLOSED_FORM)
            solved = chemical_potential(trap, 10, temperature, Barrier.ABSENT,
                                        MuMode.SOLVED)
            gaps.append(abs(closed - solved))
        assert gaps[0] < gaps[1] < gaps[2]

    def test_solved_offset_matches_50_digit_newton(self):
        """Polish each solved mu with 50-digit Newton on the same float
        ladder; beta (E_1 - mu) must agree to 1e-12 relative."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for nu in (1.6, 2.0, 2.6):
                for ratio in (1.0, 40.0):
                    trap = PowerLaw.from_energy_scale(MASS, ratio * K_B, nu)
                    for temperature in (1.0, 2.0):
                        beta = 1 / (mpmath.mpf(K_B) * temperature)
                        for count in (10, 30):
                            for barrier in Barrier:
                                self._check_against_oracle(
                                    mpmath, trap, count, temperature, beta,
                                    barrier)

    @staticmethod
    def _check_against_oracle(mpmath, trap, count, temperature, beta, barrier):
        g = 2 if barrier is Barrier.INSERTED else 1
        e1 = mpmath.mpf(level_energy(trap, 1, barrier))
        n_levels = 8
        while beta * (level_energy(trap, n_levels, barrier) - e1) < 80:
            n_levels *= 2
        ladder = [mpmath.mpf(e) for e in
                  level_energy(trap, np.arange(1, n_levels + 1), barrier)]
        mu_float = chemical_potential(trap, count, temperature, barrier,
                                      MuMode.SOLVED)
        mu = mpmath.mpf(mu_float)
        for _ in range(30):
            total = slope = 0
            for e in ladder:
                w = mpmath.exp(beta * (e - mu))
                total += g / (w - 1)
                slope += g * beta * w / (w - 1) ** 2
            step = (total - count) / slope
            mu -= step
            if abs(step) < mpmath.mpf(10) ** -40 * (e1 - mu):
                break
        offset_float = beta * (e1 - mpmath.mpf(mu_float))
        offset = beta * (e1 - mu)
        assert abs(offset_float / offset - 1) < 1e-12, (trap, count,
                                                        temperature, barrier)

    @pytest.mark.parametrize("target", ["fig4", "fig5"])
    def test_sweep_roots_match_independent_50_digit_roots(
            self, target, tmp_path, monkeypatch):
        """Four seeded roots of the target's sweep, two per barrier, against
        roots that mpmath.findroot solves to 50 digits on harmonic levels
        built from their closed form (tests/oracle.py, which shares no code
        with the package): each solved u = log beta (E_1 - mu) is within 8
        ulps of max(1, |u|).  Over all 720 roots of both sweeps the worst
        is 4 ulps; a Newton stop loosened to 1e-6 misses by up to 1,368."""
        pytest.importorskip("mpmath")
        import oracle
        roots, solve = [], ensembles._mu_offsets
        solve_all = ensembles._chemical_potentials

        def recorded(counts, rungs):
            out = solve(counts, rungs)
            roots.extend(zip(counts, out))
            return out

        def solved(table, batch, counts, mode, policy, rungs=None):
            """Each SOLVED root's trap, barrier and temperature, beside the
            count and u its _mu_offsets call records."""
            start = len(roots)
            out = solve_all(table, batch, counts, mode, policy, rungs)
            if mode is MuMode.SOLVED:
                roots[start:] = [
                    ((table.traps[row], barrier, temperature), *root)
                    for (row, barrier, temperature, _), root in zip(
                        batch, roots[start:], strict=True)]
            return out

        monkeypatch.setattr(ensembles, "_mu_offsets", recorded)
        monkeypatch.setattr(ensembles, "_chemical_potentials", solved)
        monkeypatch.setattr(sweeps, "_chemical_potentials", solved)
        run_sweep(preset(target), csv_path=str(tmp_path / "roots.csv"))
        pick = random.Random(2)
        for barrier in Barrier:
            for (trap, _, temperature), count, u in pick.sample(
                    [root for root in roots if root[0][1] is barrier], 2):
                want = float(oracle.occupancy_root(
                    trap.omega, barrier is Barrier.INSERTED, temperature,
                    count))
                assert abs(u - want) <= 8 * math.ulp(max(1.0, abs(want))), (
                    temperature, count, barrier)

    @settings(max_examples=200, deadline=None)
    @given(nu=st.one_of(st.just(None), st.floats(1.1, 3.0)),
           barrier=st.sampled_from(Barrier),
           temperature=st.floats(0.05, 20.0),
           ratio=st.floats(0.02, 50.0),
           count=st.one_of(st.integers(1, 10**6), st.floats(1.0, 1e6),
                           st.just(1e300)))
    def test_newton_start_never_passes_the_root(self, nu, barrier,
                                                temperature, ratio, count):
        """The lower bound Newton starts from (_floor, at the
        bracketing round) is at most the solved u, or above it by no more
        than the 4e-16 max(1, |u|) of rounding, on harmonic (nu None) and
        power-law traps of level scale `ratio` k_B T.  Every root solves:
        the only errors are those of a mu that a float cannot resolve below
        E_1, large counts on traps whose E_1 is many k_B T (721 of 3,000
        random inputs of this range, each with the same error before the
        bound was taken)."""
        scale = ratio * K_B * temperature
        trap = (Harmonic(MASS, scale / HBAR) if nu is None
                else PowerLaw.from_energy_scale(MASS, scale, nu))
        floors, solved = [], []
        floor, solve = ensembles._floor, ensembles._mu_offsets

        def traced_floor(*args):
            bounds = floor(*args)
            floors.extend(bounds.tolist())
            return bounds

        def traced_solve(*args):
            out = solve(*args)
            solved.extend(out)
            return out

        with mock.patch.object(ensembles, "_floor", traced_floor), \
                mock.patch.object(ensembles, "_mu_offsets", traced_solve):
            try:
                chemical_potential(trap, count, temperature, barrier,
                                   MuMode.SOLVED)
            except (ConvergenceViolationError, SolverFailureError) as exc:
                assert "ulp" in str(exc)
        (u,), (bound,) = solved, floors
        assert type(u) is float
        assert bound <= u + 4e-16 * max(1.0, abs(u))

    def test_solves_when_ground_level_dwarfs_kt(self):
        """At E_1 = 1e5 kT one ulp of E_1 is 1.5e-10 of E_1 - mu, so the
        re-check to 1e-10 passes only for the nearest representable mu."""
        for omega, count in ((1e12, 10), (1e10, 1000)):
            trap = PowerLaw(MASS, omega, 1.6)
            for barrier in Barrier:
                mu = chemical_potential(trap, count, 1.0, barrier,
                                        MuMode.SOLVED)
                assert mu < level_energy(trap, 1, barrier)
                assert occupancy_total(trap, barrier, mu, 1.0) == \
                    pytest.approx(count, rel=1e-10)

    def test_extreme_traps_solve_or_fail_typed(self):
        grid = itertools.product((0.6, 1.6, 3.0), (1e8, 1e10, 1e12),
                                 (1e-3, 1.0, 1e3), (1, 1000), Barrier)
        for nu, omega, temperature, count, barrier in grid:
            trap = PowerLaw(MASS, omega, nu)
            try:
                mu = chemical_potential(trap, count, temperature, barrier,
                                        MuMode.SOLVED)
            except SzilardError:
                continue
            assert mu < level_energy(trap, 1, barrier)

    def test_occupancy_rejects_morse(self):
        well = Morse(mass=MASS, depth=math.inf, omega=1e10)
        with pytest.raises(EnsembleMismatchError):
            occupancy_total(well, Barrier.ABSENT, -1e-24, 1.0)

    def test_bad_mode_and_count(self):
        trap = Harmonic(MASS, 1e10)
        with pytest.raises(EnsembleMismatchError):
            chemical_potential(trap, 0, 1.0, Barrier.ABSENT, MuMode.SOLVED)
        with pytest.raises(EnsembleMismatchError):
            chemical_potential(trap, 5, 1.0, Barrier.ABSENT, "closed-form")


class TestBoseRatio:

    def test_matches_direct_product(self):
        """Level-by-level product with the squared inserted factor."""
        trap = Harmonic(MASS, 1e10)
        temperature = HBAR * 1e10 / K_B   # beta q = 1
        pair = chemical_potentials(trap, 10, temperature, MuMode.SOLVED)
        beta = 1.0 / (K_B * temperature)
        n = np.arange(1, 90)
        pre = 1.0 - np.exp(-beta * (level_energy(trap, n) - pair.pre_insertion))
        post = 1.0 - np.exp(-beta * (level_energy(trap, 2 * n)
                                     - pair.post_insertion))
        direct = float(np.prod(pre) / np.prod(post**2))
        assert _ratio(trap, pair, temperature) == pytest.approx(
            direct, rel=1e-10)

    def test_low_temperature_ratio_limit(self):
        # ratio -> (N+2)^2 / (4(N+1)) once only the ground levels matter
        omega = 1e10
        temperature = HBAR * omega / (25.0 * K_B)
        for count in (1, 7, 30):
            pair = chemical_potentials(Harmonic(MASS, omega), count,
                                       temperature, MuMode.CLOSED_FORM)
            z = _ratio(Harmonic(MASS, omega), pair, temperature)
            limit = (count + 2.0)**2 / (4.0 * (count + 1.0))
            assert z == pytest.approx(limit, rel=1e-9)
            assert z > 1.0

    def test_temperature_binding_enforced(self):
        trap = Harmonic(MASS, 1e10)
        pair = chemical_potentials(trap, 10, 1.0, MuMode.SOLVED)
        with pytest.raises(EnsembleMismatchError):
            log_relative_partition(trap, pair, 2.0)

    def test_mu_above_ground_level_rejected(self):
        trap = Harmonic(MASS, 1e10)
        q = HBAR * 1e10
        bad = ChemicalPotentials(pre_insertion=2.0 * q, post_insertion=2.0 * q,
                                 temperature=1.0, count=10,
                                 mode=MuMode.CLOSED_FORM)
        with pytest.raises(ConvergenceViolationError):
            log_relative_partition(trap, bad, 1.0)
        with pytest.raises(ConvergenceViolationError):
            occupancy_total(trap, Barrier.ABSENT, 2.0 * q, 1.0)

    def test_missing_mu_rejected(self):
        with pytest.raises(EnsembleMismatchError):
            log_relative_partition(Harmonic(MASS, 1e10), None, 1.0)

    def test_morse_route_takes_no_mu(self):
        well = Morse(mass=MASS, depth=math.inf, omega=1e10)
        pair = chemical_potentials(Harmonic(MASS, 1e10), 10, 1.0,
                                   MuMode.CLOSED_FORM)
        with pytest.raises(EnsembleMismatchError):
            log_relative_partition(well, pair, 1.0)


class TestBoseEnergies:

    def test_stage_b_low_temperature_limit(self):
        # U_B -> N k T log(1 + 2/N): one doubly degenerate level holds all N
        omega = 1e10
        t_hot = HBAR * omega / (30.0 * K_B)
        baths = BathPair(hot=t_hot, cold=0.5 * t_hot)
        trap = Harmonic(MASS, omega)
        for count in (4, 12):
            pair = chemical_potentials(trap, count, t_hot, MuMode.CLOSED_FORM)
            u = internal_energy(Stage.B, trap, pair, baths)
            limit = count * K_B * t_hot * math.log1p(2.0 / count)
            assert u == pytest.approx(limit, rel=1e-9)

    def test_against_finite_difference(self):
        """-d log Z / d beta at fixed mu must reproduce the analytic sum."""
        trap = Harmonic(MASS, 1e10)
        temperature = 1.0
        baths = BathPair(hot=temperature, cold=0.5)
        pair = chemical_potentials(trap, 10, temperature, MuMode.SOLVED)
        beta = 1.0 / (K_B * temperature)
        n = np.arange(1, 120000)

        def log_z(b, barrier, mu):
            g = 2.0 if barrier is Barrier.INSERTED else 1.0
            e = level_energy(trap, n, barrier)
            return -g * float(np.sum(np.log1p(-np.exp(-b * (e - mu)))))

        for stage, barrier, mu in ((Stage.A, Barrier.ABSENT,
                                    pair.pre_insertion),
                                   (Stage.B, Barrier.INSERTED,
                                    pair.post_insertion)):
            db = 1e-6 * beta
            fd = -(log_z(beta + db, barrier, mu)
                   - log_z(beta - db, barrier, mu)) / (2.0 * db)
            assert internal_energy(stage, trap, pair, baths) == pytest.approx(
                fd, rel=1e-6)

    def test_temperature_binding_enforced(self):
        trap = Harmonic(MASS, 1e10)
        pair = chemical_potentials(trap, 10, 1.0, MuMode.SOLVED)
        baths = BathPair(hot=2.0, cold=1.0)
        with pytest.raises(EnsembleMismatchError):
            internal_energy(Stage.A, trap, pair, baths)   # hot bath is 2 K
        assert internal_energy(Stage.D, trap, pair, baths) > 0.0


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(("harmonic", "power-law", "morse")),
       omega=st.floats(1e8, 1e14), exponent=st.floats(0.1, 10.0),
       anharmonicity=st.one_of(st.just(0.0), st.floats(1e-5, 0.1)),
       first=st.integers(1, 4000), inserted=st.integers(1, 4000))
def test_inserted_ladder_is_every_other_barrier_free_level(
        kind, omega, exponent, anharmonicity, first, inserted):
    """The stage sums keep one barrier-free ladder per trap: an inserted
    rung's levels 1..n are its view [1:2n:2], and a ladder a longer request
    outgrows is extended, not rebuilt.  Both hold only if level_energy
    gives each level the same bits wherever it sits in an array, which
    this checks on the CPU at hand: the view against the inserted ladder,
    and a ladder built in two parts against one built at once."""
    trap = {"harmonic": lambda: Harmonic(MASS, omega),
            "power-law": lambda: PowerLaw(MASS, omega, exponent),
            "morse": lambda: Morse.from_anharmonicity(MASS, omega,
                                                      anharmonicity)}[kind]()
    if kind == "morse" and trap.bound_count is not None:
        inserted = min(inserted, trap.bound_count // 2)
        if inserted < 1:
            return
    first = min(first, 2 * inserted)
    whole = level_energy(trap, np.arange(1, 2 * inserted + 1))
    ladder = level_energy(trap, np.arange(1, inserted + 1), Barrier.INSERTED)
    assert whole[1::2].tobytes() == ladder.tobytes()

    table, levels, cap = (ensembles._TrapTable((trap,)), {},
                          TruncationPolicy().max_terms)
    absent, = ensembles._level_ladders(table, [(0, Barrier.ABSENT, first)],
                                       levels, cap)
    view, = ensembles._level_ladders(
        table, [(0, Barrier.INSERTED, inserted)], levels, cap)
    assert absent.tobytes() == whole[:first].tobytes()
    assert view.tobytes() == ladder.tobytes()
    assert levels[0].tobytes() == whole.tobytes()


@settings(max_examples=100, deadline=None)
@given(traps=st.lists(st.tuples(
    st.sampled_from(("harmonic", "power-law", "morse")), st.floats(1e8, 1e14),
    st.one_of(st.just(0.0), st.floats(1e-5, 0.1)), st.floats(0.3, 4.0),
    st.integers(1, 3000), st.integers(0, 3000)), min_size=1, max_size=6))
def test_batched_levels_equal_level_energy(traps):
    """The levels of a request are one _Shapes.ladders pass over all its
    traps, harmonic, power-law and Morse ones mixed, a lone trap's too:
    every level, first built or extended, has the bits of its own trap's
    level_energy call.  Every batch holds power laws at nu = 2/3, whose
    level power 1/2 numpy takes as a square root for a scalar power, and
    at nu = 2, of power 1.  Each trap's E_1 on its row of the trap table,
    with the barrier absent and inserted, and a level at one float index
    per trap, as the tails form their first level, have the bits of their
    int level_energy lookups."""
    _, omega, _, _, first, more = traps[0]
    fixed = [("power-law", omega, 0.0, nu, first, more)
             for nu in (2.0 / 3.0, 2.0)]
    built = []
    for kind, omega, chi, nu, first, more in traps + fixed:
        trap = (Harmonic(MASS, omega) if kind == "harmonic"
                else PowerLaw(MASS, omega, nu) if kind == "power-law"
                else Morse.from_anharmonicity(MASS, omega, chi))
        cap = getattr(trap, "bound_count", None) or first + more  # >= 4
        built.append((trap, min(first, cap), min(first + more, cap)))
    levels = {}
    for part in (1, 2):
        requests = [(trap, Barrier.ABSENT, lengths[part - 1])
                    for trap, *lengths in built]
        for (trap, _, n), ladder in zip(requests, ensembles._level_ladders(
                *_on_rows(requests), levels, TruncationPolicy().max_terms)):
            assert ladder.tobytes() == level_energy(
                trap, np.arange(1, n + 1)).tobytes()
    table = ensembles._TrapTable([trap for trap, *_ in built])
    for (trap, *_), ground in zip(built, table.grounds):
        for barrier in Barrier:
            assert _same_bits(ground[barrier], level_energy(trap, 1, barrier))
    # one float index per trap, as a tail's first level E_{K+1} is formed
    tops = table.shapes.levels(
        np.array([top for *_, top in built], dtype=float))
    assert tops.tobytes() == np.array([level_energy(trap, top)
                                       for trap, _, top in built]).tobytes()


@settings(max_examples=100, deadline=None)
@given(ladders=st.lists(st.tuples(
    st.integers(1, 5000), st.floats(1e-3, 1e3), st.floats(0.0, 10.0),
    st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=6))
def test_segment_sums_equal_numpy_sums(ladders):
    """_Segments lays one ladder or 2-6 of them end to end: each one's sum
    of Boltzmann terms and of energy times terms, formed as _series_sums
    forms them, equals np.sum over that ladder alone, bit for bit, and
    within() numbers each segment's places 0 (its slot) to n."""
    built, want = [], []
    for n, beta, spread, seed in ladders:
        levels = np.cumsum(np.random.default_rng(seed).uniform(0.0, spread,
                                                               n))
        terms = np.exp(-(beta * (levels - levels[0])))
        built.append((levels, beta, levels[0]))
        want.append((np.sum(terms), np.sum(levels * terms)))
    flat = _tail_sums._Segments([len(levels) for levels, _, _ in built])
    assert flat.within().tolist() == [
        j for levels, _, _ in built for j in range(len(levels) + 1)]
    energies = flat.join([levels for levels, _, _ in built])
    t = ensembles._boltzmann_terms(
        flat.spread([beta for _, beta, _ in built]),
        energies - flat.spread([e1 for _, _, e1 in built]))
    totals = flat.sums(t)
    weighted = flat.sums(np.multiply(energies, t, out=energies))
    for (total, energy), got, got_energy in zip(want, totals, weighted):
        assert (got.tobytes(), got_energy.tobytes()) == (
            total.tobytes(), energy.tobytes())


def test_refused_levels_fail_their_own_trap():
    """A Morse request past the bound count fails that trap alone with the
    error level_energy raises for it; the other traps of the batch sum."""
    deep, shallow = (Morse.from_anharmonicity(MASS, 1e13, chi)
                     for chi in (0.001, 0.02))
    results = ensembles._series_sums(
        *_on_rows([(deep, Barrier.ABSENT, 0.0, 1e20, 30),
                   (shallow, Barrier.ABSENT, 0.0, 1e20,
                    shallow.bound_count + 1)]), TruncationPolicy(), {})
    assert not isinstance(results[0], SzilardError)
    assert isinstance(results[1], SpectrumRangeError)
    assert str(results[1]) == (f"index {shallow.bound_count + 1} beyond the"
                               f" {shallow.bound_count} bound Morse levels")


def _same_bits(got, want):
    """A ground level, head or error that equals want: each float with its
    bits (repr round-trips them), an error of its type and message."""
    if isinstance(want, SzilardError):
        return (type(got), str(got)) == (type(want), str(want))
    return repr(got) == repr(want)


@settings(max_examples=100, deadline=None)
@given(shapes=st.lists(st.tuples(
    st.sampled_from(("harmonic", "power-law", "morse")), st.floats(0.5, 4.0),
    st.floats(-4.0, 1.0), st.one_of(st.just(0.0), st.floats(1e-5, 0.7))),
    min_size=1, max_size=4), data=st.data(),
    max_terms=st.sampled_from((1_000_000, 60)), baths=st.sampled_from((1, 2)),
    close=st.sampled_from((1, 64, 8192)))
def test_batches_group_each_trap_object(shapes, data, max_terms, baths,
                                        close):
    """A trap is its object: the trap table of _batches gives each trap
    object one row, in order of first appearance, and _batches groups the
    indices of each row in that order; a batch closes (here after 1, 64 or
    8192 counted terms) only between two rows.  The traps come from a small
    pool, each drawn as the pool's object or rebuilt equal, at a pool
    temperature of its own; level scales 1e-4 to 10 kT, Morse wells too
    shallow to hold or to split a level, and a 60-term cap give some
    indices a ground level or head that fails.  Each index's row holds the
    grounds of its own one-trap _batches call, bit for bit."""
    kt = K_B * 10.0

    def build(kind, nu, log_ratio, chi):
        scale = 10.0 ** log_ratio * kt
        if kind == "harmonic":
            return Harmonic(MASS, scale / HBAR)
        if kind == "morse":
            return Morse.from_anharmonicity(MASS, scale / HBAR, chi)
        return PowerLaw.from_energy_scale(MASS, scale, nu)

    pool = [build(*shape) for shape in shapes]
    picks = data.draw(st.lists(st.tuples(
        st.integers(0, len(pool) - 1), st.booleans(),
        st.sampled_from((1.0, 2.0, 40.0))), min_size=1, max_size=12))
    traps = [pool[k] if same else build(*shapes[k]) for k, same, _ in picks]
    betas = [ensembles._beta(temperature) for *_, temperature in picks]
    policy = TruncationPolicy(max_terms=max_terms)
    with mock.patch.object(ensembles, "_BATCH_TERMS", close):
        table, batches = ensembles._batches(traps, betas, policy, baths)
    order = [i for at in batches for i in at]
    assert sorted(order) == list(range(len(traps)))
    # one row per object, the objects in order of first appearance, and
    # each object's indices side by side, in input order
    firsts = [i for i, trap in enumerate(traps)
              if not any(other is trap for other in traps[:i])]
    assert len(table.traps) == len(firsts)
    assert all(trap is traps[i] for trap, i in zip(table.traps, firsts))
    assert all(table.traps[row] is trap
               for row, trap in zip(table.rows, traps, strict=True))
    assert order == [i for first in firsts for i in range(len(traps))
                     if traps[i] is traps[first]]
    for at, following in zip(batches, batches[1:]):
        assert traps[at[-1]] is not traps[following[0]]
    event(f"{len(batches)} batches")
    failed = any(isinstance(e1, SzilardError) for ground in table.grounds
                 for e1 in ground.values())
    event(f"a ground level fails: {failed}")
    for i, row in enumerate(table.rows):
        own, batch = ensembles._batches((traps[i],), [betas[i]], policy,
                                        baths)
        assert batch == [[0]]
        ground, (alone,) = table.grounds[row], own.grounds
        assert list(ground) == list(alone)
        assert all(_same_bits(ground[b], alone[b]) for b in alone)


class TestMorseSums:

    # 9-level well: quantum hbar*1e10 J, depth 5.35 quanta
    WELL = Morse(mass=MASS, depth=5.35 * HBAR * 1e10, omega=1e10)

    # 60-digit stage values for that well
    LOG_RATIO_04 = -0.14120924092897630      # log ratio at 0.4 K
    U_REFRIG = {Stage.A: 3.6305107909630756e-24,
                Stage.B: 3.8103285487543242e-24,
                Stage.C: 3.5539685140553920e-24,
                Stage.D: 3.2636549145966963e-24}

    def test_frozen_log_ratio(self):
        assert log_relative_partition(self.WELL, None, 0.4) == pytest.approx(
            self.LOG_RATIO_04, rel=1e-12)

    def test_frozen_stage_energies(self):
        baths = BathPair(hot=0.4, cold=0.2)
        for stage, expected in self.U_REFRIG.items():
            u = internal_energy(stage, self.WELL, None, baths)
            assert u == pytest.approx(expected, rel=1e-12)

    def test_ground_gap_limit(self):
        # Z ratio -> 2 e^{-beta gap} as T -> 0, gap the absent 1 -> 2 spacing
        well = Morse(mass=MASS, depth=8.7 * 1.602176634e-19, omega=1e10)
        gap = level_energy(well, 2) - level_energy(well, 1)
        temperature = gap / (40.0 * K_B)
        z = _ratio(well, None, temperature)
        assert z * math.exp(gap / (K_B * temperature)) == pytest.approx(
            2.0, rel=1e-12)

    def test_harmonic_limit_closed_form(self):
        # chi = 0: ratio is exactly 2 e^{-beta q}/(1 + e^{-beta q})
        well = Morse(mass=MASS, depth=math.inf, omega=1e10)
        q = HBAR * 1e10
        for temperature in (0.05, 0.4, 3.0):
            x = math.exp(-q / (K_B * temperature))
            assert _ratio(well, None, temperature) == pytest.approx(
                2.0 * x / (1.0 + x), rel=1e-12)

    def test_inserted_energy_collapses_to_split_ground(self):
        well = Morse(mass=MASS, depth=8.7 * 1.602176634e-19, omega=1e10)
        t = HBAR * 1e10 / (40.0 * K_B)
        baths = BathPair(hot=t, cold=0.5 * t)
        u = internal_energy(Stage.B, well, None, baths)
        assert u == pytest.approx(level_energy(well, 1, Barrier.INSERTED),
                                  rel=1e-12)


class TestTruncation:

    def test_policy_validation(self):
        with pytest.raises(TruncationError):
            TruncationPolicy(rel_tol=0.0)
        with pytest.raises(TruncationError):
            TruncationPolicy(rel_tol=2.0)
        with pytest.raises(TruncationError):
            TruncationPolicy(max_terms=5)
        with pytest.raises(TruncationError, match="at least 10"):
            TruncationPolicy(max_terms=math.nan)

    def test_term_cap_refuses_long_series(self):
        # 10 K at 1e10 rad/s needs thousands of levels
        tight = TruncationPolicy(rel_tol=1e-12, max_terms=50)
        with pytest.raises(TruncationError):
            occupancy_total(Harmonic(MASS, 1e10), Barrier.ABSENT,
                            -1e-22, 10.0, tight)

    def test_headroom_does_not_change_results(self):
        trap = Harmonic(MASS, 1e10)
        loose = TruncationPolicy(rel_tol=1e-12, max_terms=4_000_000)
        assert _canonical_work(trap, 3, BATHS) == _canonical_work(
            trap, 3, BATHS, loose)
        pair = chemical_potentials(trap, 10, 1.0, MuMode.SOLVED)
        assert log_relative_partition(trap, pair, 1.0) == \
            log_relative_partition(trap, pair, 1.0, loose)

    def test_bath_validation(self):
        with pytest.raises(EnsembleMismatchError):
            BathPair(hot=0.0, cold=1.0)
        with pytest.raises(EnsembleMismatchError):
            BathPair(hot=1.0, cold=-2.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(EnsembleMismatchError):
                BathPair(hot=bad, cold=1.0)
            with pytest.raises(EnsembleMismatchError):
                BathPair(hot=1.0, cold=bad)

    @pytest.mark.parametrize("temperature", [1e-300, 5e-324])
    def test_temperature_whose_beta_overflows(self, temperature):
        """1/(k_B T) is inf at 1e-300 K and divides by zero at 5e-324 K:
        a typed error at every entry point that takes a temperature."""
        trap = Harmonic(MASS, 1e10)
        calls = [lambda: BathPair(hot=1.0, cold=temperature),
                 lambda: BathPair(hot=temperature, cold=1.0),
                 lambda: occupancy_total(trap, Barrier.ABSENT, 0.0,
                                         temperature),
                 lambda: canonical_stage_properties(trap, Barrier.ABSENT, 1,
                                                    temperature)]
        calls += [lambda mode=mode: chemical_potential(
            trap, 5, temperature, Barrier.ABSENT, mode) for mode in MuMode]
        for call in calls:
            with pytest.raises(EnsembleMismatchError, match="not finite"):
                call()

    @pytest.mark.parametrize("temperature", [math.inf, -1.0, 0.0, math.nan])
    def test_temperature_whose_beta_is_not_positive(self, temperature):
        """beta = 0 at T = inf once ended in a ZeroDivisionError, and a
        negative beta in a misleading error about the chemical potential."""
        trap = Harmonic(MASS, 1e10)
        calls = [lambda: occupancy_total(trap, Barrier.ABSENT, 0.0,
                                         temperature),
                 lambda: canonical_stage_properties(trap, Barrier.ABSENT, 1,
                                                    temperature)]
        calls += [lambda mode=mode: chemical_potential(
            trap, 5, temperature, Barrier.ABSENT, mode) for mode in MuMode]
        for call in calls:
            with pytest.raises(EnsembleMismatchError,
                               match="not finite and positive"):
                call()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_sum_that_is_not_finite_is_an_error(self, value):
        """A series whose terms leave float range is a typed error in its
        own segment, never a float; the other segments of its batch still
        sum.  The Boltzmann kernel is patched to give such terms at beta =
        2."""
        trap = Harmonic(MASS, 1e10)
        e1 = level_energy(trap, 1)

        def terms(beta, gap):
            return np.where(beta == 2.0, value, np.ones_like(gap))

        policy = TruncationPolicy()
        with mock.patch.object(ensembles, "_boltzmann_terms", terms):
            (one,) = ensembles._series_sums(
                *_on_rows([(trap, Barrier.ABSENT, e1, 2.0, 20)]), policy, {})
            both = ensembles._series_sums(
                *_on_rows([(trap, Barrier.ABSENT, e1, 1.0, 20),
                           (trap, Barrier.ABSENT, e1, 2.0, 30)]), policy, {})
        for result in (one, both[1]):
            assert isinstance(result, SzilardError)
            assert "not finite" in str(result)
        assert both[0][0] == 20.0


class TestPhysicalLadders:
    """The canonical cycle against the harmonic ladders of the barrier
    solver, which share no code with level_energy.

    The physical ladder without a barrier is the even levels at strength 0
    with the odd levels between them, 0.5, 1.5, 2.5, ... hbar omega.  With
    the barrier fully in, each even level has risen onto the odd level
    above it, so the ladder is 1.5, 3.5, 5.5, ... hbar omega, each level
    doubly degenerate.  The cycle's ladders, indexed from n = 1, are both
    these shifted up by exactly hbar omega, which cancels from every log
    ratio and every energy difference.  Both physical ladders are
    geometric, so 50-digit closed forms sum them.
    """

    # (omega, N): fig2's trap at three counts, and fig3's deep end
    CASES = ((1e11, 1), (1e11, 5), (1e11, 20), (5e13, 1), (5e13, 2),
             (5e13, 3))

    @staticmethod
    def _ladders():
        """(ground, spacing, degeneracy) of the absent and inserted
        ladders, in units of hbar omega, read off the barrier solver."""
        k = 4
        unsplit = sorted([s.energy for s in even_levels(0.0, k)]
                         + [odd_level(b) for b in range(k + 1)])
        split = [s.energy for s in even_levels(math.inf, k)]
        assert split == [odd_level(b) for b in range(k + 1)]
        assert np.allclose(np.diff(unsplit), 1.0, rtol=0, atol=0)
        assert np.allclose(np.diff(split), 2.0, rtol=0, atol=0)
        # a strong finite barrier solves to just below the same levels
        strong = np.array([s.energy for s in even_levels(1e4, k)])
        assert np.all((strong < split) & (strong > np.subtract(split, 3e-4)))
        return (unsplit[0], 1.0, 1), (split[0], 2.0, 2)

    @staticmethod
    def _stage(mpmath, ladder, q, count, temperature):
        """log of g^N sum_j e^{-N beta E_j} and N times its mean level."""
        ground, spacing, g = ladder
        nb = count / (mpmath.mpf(K_B) * temperature)
        r = mpmath.exp(-nb * spacing * q)
        return (count * mpmath.log(g) - nb * ground * q - mpmath.log(1 - r),
                count * (ground * q + spacing * q * r / (1 - r)))

    @pytest.mark.parametrize("omega, count", CASES)
    def test_cycle_matches_the_physical_ladders(self, omega, count):
        """Log ratios to 1e-12 relative; energy differences to 1e-12 of
        the two stage energies each cancels (at fig2's N = 1, U_B - U_A is
        8,000 times smaller than U, and 3e-11 off relative); W and the four
        heats to 1e-12 of the k_B T |L| and energy magnitudes they cancel,
        as W rounds near the classical limit."""
        mpmath = pytest.importorskip("mpmath")
        absent, inserted = self._ladders()
        baths = BathPair(hot=200.0, cold=100.0)
        trap = Harmonic(MASS, omega)
        table, batch = _one_batch(trap, count, baths.hot)
        (l_hot, l_cold, energies), = ensembles._cycle_sums(
            table, batch, [count], [baths], TruncationPolicy())
        got = run_cycle(trap, Ensemble.CANONICAL_N, count, baths)
        with mpmath.workdps(50):
            q = mpmath.mpf(HBAR * omega)
            stages = [self._stage(mpmath, ladder, q, count, temperature)
                      for ladder, temperature in (
                          (absent, baths.hot), (inserted, baths.hot),
                          (inserted, baths.cold), (absent, baths.cold))]
            (z_a, u_a), (z_b, u_b), (z_c, u_c), (z_d, u_d) = stages
            kt_h, kt_c = (mpmath.mpf(K_B) * t for t in (baths.hot, baths.cold))
            want_l = (z_b - z_a, z_c - z_d)
            want_du = (u_b - u_a, u_c - u_b, u_d - u_c, u_a - u_d)
            hot, cold = kt_h * abs(want_l[0]), kt_c * abs(want_l[1])
            u = [abs(value) for value in energies]
            # each cycle quantity, and the magnitudes it cancels
            want = {"work": (kt_h * want_l[0] - kt_c * want_l[1], hot + cold),
                    "q_insert": (want_du[0] + kt_h * want_l[0],
                                 hot + u[0] + u[1]),
                    "q_cool": (want_du[1], u[1] + u[2]),
                    "q_remove": (want_du[2] - kt_c * want_l[1],
                                 cold + u[2] + u[3]),
                    "q_reheat": (want_du[3], u[3] + u[0])}
            for value, exact in zip((l_hot, l_cold), want_l):
                assert abs(value - exact) <= 1e-12 * abs(exact)
            for (i, j), exact in zip(((1, 0), (2, 1), (3, 2), (0, 3)),
                                     want_du):
                assert abs(energies[i] - energies[j] - exact) <= 1e-12 * (
                    u[i] + u[j])
            for name, (exact, scale) in want.items():
                assert abs(getattr(got, name) - exact) <= 1e-12 * scale, name


class TestCanonicalOracle:
    """canonical_stage_properties against 50-digit sums, on Morse ladders
    whose bound cutoffs cross the 8-term floor and on power-law traps."""

    TEMPERATURES = (20.0, 100.0, 1000.0)     # K; hbar*1e13 is about 76 K

    @staticmethod
    def _oracle(mpmath, energies, g, count, temperature):
        """log of g^N sum e^{-N beta E} and its N-weighted mean energy."""
        nb = count / (mpmath.mpf(K_B) * temperature)
        weights = [mpmath.exp(-nb * e) for e in energies]
        total = mpmath.fsum(weights)
        mean = mpmath.fsum(w * e for w, e in zip(weights, energies)) / total
        return count * mpmath.log(g) + mpmath.log(total), count * mean

    @staticmethod
    def _agrees(got, want):
        log_sum, energy = got
        return (abs(log_sum - want[0]) <= 1e-12 * abs(want[0])
                and abs(energy - want[1]) <= 1e-12 * abs(want[1]))

    def test_morse_wells_across_the_term_floor(self):
        """Bound counts across the 8-term floor of the cutoff estimate and
        the 16-term floor of a head (see ensembles._heads)."""
        mpmath = pytest.importorskip("mpmath")
        q = HBAR * 1e13
        with mpmath.workdps(50):
            for bound in range(1, 41):
                well = Morse(mass=MASS, depth=q * (bound + 1.5) / 2, omega=1e13)
                assert well.bound_count == bound
                chi = mpmath.mpf(well.anharmonicity)
                for barrier in Barrier:
                    step = 2 if barrier is Barrier.INSERTED else 1
                    levels = range(step, bound + 1, step)
                    energies = [mpmath.mpf(q) * (n + mpmath.mpf(0.5))
                                * (1 - chi * (n + mpmath.mpf(0.5)))
                                for n in levels]
                    for temperature in self.TEMPERATURES:
                        if not energies:        # one level cannot split
                            with pytest.raises(
                                    SpectrumRangeError,
                                    match=r"^index 2 beyond the 1 bound Morse"
                                          r" levels \(post-barrier\)$"):
                                canonical_stage_properties(
                                    well, barrier, 1, temperature)
                            continue
                        got = canonical_stage_properties(well, barrier, 1,
                                                         temperature)
                        want = self._oracle(mpmath, energies, step, 1,
                                            temperature)
                        assert self._agrees(got, want), (bound, barrier,
                                                         temperature)

    def test_power_law_traps(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for nu in (1.6, 2.6):
                trap = PowerLaw.from_energy_scale(MASS, K_B, nu)   # 1 K
                scale = mpmath.mpf(trap.energy_scale)
                power = mpmath.mpf(trap.level_power)
                for barrier in Barrier:
                    step = 2 if barrier is Barrier.INSERTED else 1
                    for count in (1, 3, 10):
                        for temperature in (0.5, 2.0, 10.0):
                            nb = count / (mpmath.mpf(K_B) * temperature)
                            energies, head = [], None
                            for n in itertools.count(step, step):
                                energies.append(
                                    scale * (n + mpmath.mpf(0.5)) ** power)
                                head = head or mpmath.exp(-nb * energies[0])
                                if (mpmath.exp(-nb * energies[-1])
                                        < mpmath.mpf(10) ** -34 * head):
                                    break
                            got = canonical_stage_properties(
                                trap, barrier, count, temperature)
                            want = self._oracle(mpmath, energies, step, count,
                                                temperature)
                            assert self._agrees(got, want), (
                                nu, barrier, count, temperature)


    # Long ladders: each canonical sum over a geometric or Morse ladder is a
    # 16-term (or longer) head plus a closed-form Euler-Maclaurin tail; a
    # power-law ladder that is not geometric is summed whole.  Geometric
    # ladders are checked against their 50-digit closed form, the others
    # against math.fsum of the whole ladder in chunks.

    @staticmethod
    def _geometric_oracle(mpmath, trap, barrier, count, temperature):
        """g^N sum_n e^{-N beta E_n} over E_n = E_1 + delta (n - 1)."""
        step = 2 if barrier is Barrier.INSERTED else 1
        q = mpmath.mpf(trap.quantum if isinstance(trap, Morse)
                       else HBAR * trap.omega)
        e1, delta = q * (step + mpmath.mpf(0.5)), step * q
        nb = count / (mpmath.mpf(K_B) * temperature)
        r = mpmath.exp(-nb * delta)
        return (count * mpmath.log(step) - nb * e1 - mpmath.log(1 - r),
                count * (e1 + delta * r / (1 - r)))

    @staticmethod
    def _fsum_oracle(trap, barrier, count, temperature, chunk=1 << 16):
        """The same from the whole ladder, to its last bound level or to
        terms below 1e-40 of the first: math.fsum over the numpy sums of
        consecutive chunks.  Returns it and the ladder's length."""
        step = 2 if barrier is Barrier.INSERTED else 1
        nb = count / (K_B * temperature)
        top = (trap.bound_count // step if isinstance(trap, Morse)
               else math.inf)
        e1 = level_energy(trap, 1, barrier)
        sums, energies, n = [], [], 1
        while n <= top:
            e = level_energy(trap, np.arange(n, min(n + chunk, top + 1)),
                             barrier)
            w = np.exp(-nb * (e - e1))
            sums.append(float(np.sum(w)))
            energies.append(float(np.sum(e * w)))
            n += len(e)
            if w[-1] < 1e-40:
                break
        total = math.fsum(sums)
        return (count * math.log(step) - nb * e1 + math.log(total),
                count * math.fsum(energies) / total), n - 1

    def test_geometric_ladders_past_1e5_terms(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for trap in (Harmonic(MASS, 1e7), Morse(MASS, math.inf,
                                                    omega=3e6)):
                for barrier in Barrier:
                    for count, temperature in ((1, 1.0), (3, 20.0)):
                        want = self._geometric_oracle(mpmath, trap, barrier,
                                                      count, temperature)
                        got = canonical_stage_properties(trap, barrier, count,
                                                         temperature)
                        assert self._agrees(got, want), (trap, barrier, count)

    @pytest.mark.parametrize("nu, scale", [(0.3, 3.0), (2.6, 1e-4)])
    def test_power_law_ladders_past_1e5_terms(self, nu, scale):
        """Power-law ladders take no tail; summed whole past 1e5 terms, they
        still meet the oracle."""
        trap = PowerLaw.from_energy_scale(MASS, scale * K_B, nu)    # at 1 K
        for barrier in Barrier:
            for count in (1, 2):
                want, length = self._fsum_oracle(trap, barrier, count, 1.0)
                assert length > 60_000 * (3 - count)
                got = canonical_stage_properties(trap, barrier, count, 1.0)
                assert self._agrees(got, want), (barrier, count)

    def test_morse_wells_past_1e5_levels(self):
        """Wells of 200,000 bound levels, from one whose ladder fades long
        before its top to ones whose top level lies within k_B T of the
        depth, where the top end of the tail carries its share."""
        for depth_kt in (1e4, 30.0, 3.0, 0.5):
            depth = depth_kt * K_B          # at 1 K
            well = Morse(MASS, depth, omega=2 * depth / 200_001.5 / HBAR)
            assert well.bound_count == 200_000
            for barrier in Barrier:
                want, length = self._fsum_oracle(well, barrier, 1, 1.0)
                assert length > 10_000
                got = canonical_stage_properties(well, barrier, 1, 1.0)
                assert self._agrees(got, want), (depth_kt, barrier)

    @settings(max_examples=60, deadline=None)
    @given(rate=st.floats(-3.0, -1.0), bound=st.floats(3.0, 6.5),
           inserted=st.booleans())
    def test_morse_heads_in_the_figure_regime(self, rate, bound, inserted):
        """The wells of fig9 and fig10: beta q 1e-3 to 0.1 per level and
        1e3 to 3e6 bound levels, where each sum is a head of 16 to about
        110 levels and an Euler-Maclaurin tail that, over the shallower
        wells, runs to the top of the well.  Head and tail meet the whole
        bound ladder."""
        q = 10 ** rate * K_B                # at 1 K
        count = int(10 ** bound)
        well = Morse(MASS, q * (count + 1.5) / 2, omega=q / HBAR)
        assert well.bound_count == count
        barrier = Barrier.INSERTED if inserted else Barrier.ABSENT
        beta = 1.0 / K_B
        e1 = level_energy(well, 1, barrier)
        _, tailed = _head_of(well, barrier, beta, e1, TruncationPolicy())
        assert tailed
        want, length = self._fsum_oracle(well, barrier, 1, 1.0)
        got = canonical_stage_properties(well, barrier, 1, 1.0)
        assert self._agrees(got, want), (well, barrier, length)

    @pytest.mark.parametrize("trap, ensemble", [
        (Morse(1.1 * 1.66053906660e-27, 8.7 * 1.602176634e-19, omega=1e9),
         Ensemble.MORSE_SINGLE),
        (Harmonic(MASS, 1e10), Ensemble.CANONICAL_N)],
        ids=["morse", "harmonic"])
    def test_reach_cycles_at_2000_and_1000_kelvin(self, trap, ensemble):
        """Each bath's ladder runs to millions of levels (a Morse well of
        26 M bound levels, or a harmonic ladder past 1e6 terms), which the
        term cap refused before the tails.  From the oracle's stage sums:
        the heats to 1e-12 of their terms, and W to 1e-15 of the log sums it
        cancels (it is about 1e-8 of them, so double rounding alone leaves
        it near 1e-5 relative), and eta = W / q_hot with both."""
        mpmath = pytest.importorskip("mpmath")
        baths = BathPair(2000.0, 1000.0)
        got = run_cycle(trap, ensemble, 1, baths)
        with mpmath.workdps(50):
            stages = [
                self._geometric_oracle(mpmath, trap, barrier, 1, temperature)
                if ensemble is Ensemble.CANONICAL_N else
                self._fsum_oracle(trap, barrier, 1, temperature,
                                  chunk=1 << 20)[0]
                for barrier, temperature in (
                    (Barrier.ABSENT, baths.hot), (Barrier.INSERTED, baths.hot),
                    (Barrier.INSERTED, baths.cold),
                    (Barrier.ABSENT, baths.cold))]
            (l_a, u_a), (l_b, u_b), (l_c, u_c), (l_d, u_d) = (
                (float(log_sum), float(energy)) for log_sum, energy in stages)
        heat = K_B * baths.hot * (l_b - l_a)
        work = heat - K_B * baths.cold * (l_c - l_d)
        work_tol = 1e-15 * K_B * (baths.hot * (abs(l_a) + abs(l_b))
                                  + baths.cold * (abs(l_c) + abs(l_d)))
        assert abs(got.work - work) <= work_tol
        supplied = u_b - u_d + heat
        supplied_tol = 1e-12 * (abs(u_b) + abs(u_d) + abs(heat))
        assert abs(got.q_hot - supplied) <= supplied_tol
        assert abs(got.q_cold - (work - supplied)) <= supplied_tol + work_tol
        eta = work / supplied
        assert abs(got.efficiency - eta) <= (
            work_tol + abs(eta) * supplied_tol) / supplied


def _sums_of(call):
    """Every segment that _series_sums sums while call() runs, each with its
    policy and result; and whether call() succeeded (it may raise a
    SzilardError)."""
    log, original = [], ensembles._series_sums

    def spy(table, segments, policy, levels):
        results = original(table, segments, policy, levels)
        log.extend(((table.traps[row], *rest), policy, result)
                   for (row, *rest), result in zip(segments, results))
        return results

    with mock.patch.object(ensembles, "_series_sums", spy):
        try:
            call()
        except SzilardError:
            return log, False
    return log, True


def _head_of(trap, barrier, beta, e1, policy):
    """One trap's _heads entry, as (n, tailed)."""
    (n,), (tailed,) = ensembles._heads(ensembles._Shapes.of([trap]),
                                       ensembles._stride(barrier), beta,
                                       np.array([e1]), policy)
    return n, bool(tailed)


# A scalar reference of the head and length of a canonical sum, as math
# evaluates them on Python floats, one trap at a time: the lengths set which
# terms every sum adds, so _heads must match it entry for entry.
#
# Every tail, Morse or power law, takes m = 6 Euler-Maclaurin correction
# pairs, so its remainder is at most 2 |B_2m+2|/(2m+2)! int |f^(2m+2)|
# (DLMF 2.10.1), the factor from the Bernoulli numbers below.

def _bernoulli(n):
    """B_n as a Fraction (the Akiyama-Tanigawa algorithm)."""
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


_PAIRS = 6
_REMAINDER = float(2 * abs(_bernoulli(2 * _PAIRS + 2))
                   / math.factorial(2 * _PAIRS + 2))


def _reference_index_beyond(trap, barrier, beta, e1, x_cut):
    target = x_cut / beta + e1
    step = 2 if barrier is Barrier.INSERTED else 1
    try:
        if isinstance(trap, Morse):
            chi, q = trap.anharmonicity, trap.quantum
            disc = 1.0 - 4.0 * chi * target / q
            if disc <= 0.0:
                return math.inf
            s = target / q if chi == 0.0 else (1 - math.sqrt(disc)) / (2 * chi)
        else:
            power = trap.level_power if isinstance(trap, PowerLaw) else 1.0
            scale = (trap.energy_scale if isinstance(trap, PowerLaw)
                     else HBAR * trap.omega)
            s = (target / scale) ** (1.0 / power)
        return max(8, int(math.ceil((s - 0.5) / step)) + 2)
    except OverflowError:
        raise TruncationError("series cutoff estimate overflows: the ladder"
                              " needs more terms than any cap") from None


def _power_cut(trap, barrier, beta, e1, policy):
    """The x = beta (E_A - E_1) past which a power law's tail meets its
    remainder bound (see szilard._tail_sums), in math on Python floats: the
    first y of the tabulated bound H below its target, less y_1; None past
    the table."""
    step = 2 if barrier is Barrier.INSERTED else 1
    p, y1 = trap.level_power, beta * e1
    # the sum holds 1 and the integral of f from index 1
    floor = (step + 0.5) / (step * p * (y1 + max(1.0 - 1.0 / p, 0.0)))
    limit = policy.rel_tol * math.exp(-35.0) * max(floor, 1.0)
    k = 2 * _PAIRS + 1
    log_h = (math.log(limit / _REMAINDER) - y1 - k * math.log(step)
             - k / p * math.log(beta * trap.energy_scale))
    table = (-_tail_sums._power_table(p)).tolist()
    j = bisect.bisect_left(table, -log_h)
    if j == len(table):
        return None
    return max(float(_tail_sums._POWER_GRID[j]) - y1, 0.0)


def _reference_head(trap, barrier, beta, e1, policy):
    step = 2 if barrier is Barrier.INSERTED else 1
    n = _reference_index_beyond(trap, barrier, beta, e1,
                                35.0 - math.log(policy.rel_tol))
    if isinstance(trap, Morse) and trap.bound_count is not None:
        n = min(n, trap.bound_count // step)
    geometric = (trap.anharmonicity == 0.0 if isinstance(trap, Morse)
                 else isinstance(trap, Harmonic) or trap.level_power == 1.0)
    if geometric:
        head = 16
    elif isinstance(trap, Morse) and n > 16:
        chi, q = trap.anharmonicity, trap.quantum
        a = beta * q * chi * step * step
        slope = 2 * a * ((0.5 / chi - 0.5) / step - 17)
        lower, upper = 1.0, slope
        for k in range(1, 2 * _PAIRS + 1):     # to Q_2m+1
            lower, upper = upper, slope * upper + 2 * k * a * lower
        ratio = _REMAINDER * upper / (policy.rel_tol * math.exp(-35.0))
        head = max(_reference_index_beyond(
            trap, barrier, beta, e1, math.log(ratio) if ratio > 1.0 else 0.0)
            - 1, 16)
    elif isinstance(trap, PowerLaw) and n > 16:
        cut = _power_cut(trap, barrier, beta, e1, policy)
        if cut is None:
            return n, False
        head = max(_reference_index_beyond(trap, barrier, beta, e1, cut) - 1,
                   16)
    else:
        return n, False
    return (head, True) if head < n else (n, False)


_TRAP_KINDS = ("harmonic", "power-law", "morse-infinite", "morse")


@settings(max_examples=150, deadline=None)
@given(traps=st.lists(st.tuples(st.sampled_from(_TRAP_KINDS),
                                st.floats(-4.0, 4.0), st.floats(0.01, 4.0),
                                st.floats(-6.0, -0.7)), min_size=1, max_size=8),
       inserted=st.booleans(), count=st.integers(1, 50),
       rel_tol=st.sampled_from((1e-12, 1e-6)))
def test_heads_match_the_scalar_reference(traps, inserted, count, rel_tol):
    """_heads, one array pass over a batch, equals the scalar math
    reference entry for entry: harmonic traps, power laws (nu down to 0.01,
    whose lengths pass 2^53 and leave float range), infinite-depth and
    finite Morse wells, both barriers, N 1-50 and level scales 1e-4 to 1e4
    k_B T."""
    temperature = 2.0
    barrier = Barrier.INSERTED if inserted else Barrier.ABSENT
    beta = count / (K_B * temperature)
    policy = TruncationPolicy(rel_tol=rel_tol)
    batch, e1 = [], []
    for kind, log_scale, nu, log_chi in traps:
        scale, chi = 10 ** log_scale * K_B * temperature, 10 ** log_chi
        try:
            trap = {"harmonic": lambda: Harmonic(MASS, scale / HBAR),
                    "power-law": lambda: PowerLaw.from_energy_scale(
                        MASS, scale, nu),
                    "morse-infinite": lambda: Morse.from_anharmonicity(
                        MASS, scale / HBAR, 0.0),
                    "morse": lambda: Morse.from_anharmonicity(
                        MASS, scale / HBAR, chi)}[kind]()
            e1.append(level_energy(trap, 1, barrier))
        except SzilardError:
            continue        # a well too shallow for an inserted level
        batch.append(trap)
    lengths, tailed = ensembles._heads(ensembles._Shapes.of(batch),
                                       ensembles._stride(barrier), beta,
                                       np.array(e1), policy)
    for trap, ground, n, tail in zip(batch, e1, lengths, tailed.tolist()):
        try:
            want = _reference_head(trap, barrier, beta, ground, policy)
        except TruncationError as exc:
            assert isinstance(n, TruncationError) and str(n) == str(exc)
            continue
        assert type(n) is int and (n, tail) == want, (trap, n, tail, want)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(
    st.sampled_from(("harmonic", "power-law", "morse")), st.floats(-4.0, 4.0),
    st.floats(0.01, 4.0), st.one_of(st.just(0.0), st.floats(1e-5, 0.7)),
    st.sampled_from((1, 2)), st.floats(0.0, 3.0)), min_size=1, max_size=8),
    rel_tol=st.floats(1e-14, 1e-2), max_terms=st.sampled_from((60, 1_000_000)))
def test_heads_of_a_mixed_pass_match_lone_passes(rows, rel_tol, max_terms):
    """_heads sizes each row from that row's own shape, stride, beta, E_1
    and policy alone: in one pass over mixed harmonic, power-law and Morse
    rows (nu 0.01-4, strides 1 and 2, level scales 1e-4 to 1e4 kT, betas
    1 to 1000 over kT), each row's (n, tailed) equals that of its lone
    pass, an error by its type and message.  So a sum sized where it is
    summed, among any other rows, has the length it has alone."""
    kt = K_B * 2.0
    policy = TruncationPolicy(rel_tol=rel_tol, max_terms=max_terms)
    traps, steps, betas, e1 = [], [], [], []
    for kind, log_scale, nu, chi, step, log_rate in rows:
        scale = 10 ** log_scale * kt
        try:
            trap = (Harmonic(MASS, scale / HBAR) if kind == "harmonic"
                    else PowerLaw.from_energy_scale(MASS, scale, nu)
                    if kind == "power-law"
                    else Morse.from_anharmonicity(MASS, scale / HBAR, chi))
            e1.append(level_energy(trap, 1, (None, Barrier.ABSENT,
                                             Barrier.INSERTED)[step]))
        except SzilardError:
            continue        # a well too shallow to hold or split a level
        traps.append(trap)
        steps.append(float(step))
        betas.append(10 ** log_rate / kt)

    def pass_of(at):
        return _tail_sums._heads(
            potentials._Shapes.of([traps[i] for i in at]),
            np.array([steps[i] for i in at]),
            np.array([betas[i] for i in at]),
            np.array([e1[i] for i in at]), policy)

    lengths, tailed = pass_of(range(len(traps)))
    event(f"{len(traps)} rows")
    for i, (n, tail) in enumerate(zip(lengths, tailed.tolist())):
        (own,), (own_tail,) = pass_of([i])
        assert _same_bits(n, own) and tail == own_tail, (traps[i], n, own)


@settings(max_examples=100, deadline=None)
@given(traps=st.lists(st.tuples(st.booleans(), st.floats(-4.0, 4.0),
                                st.floats(0.01, 4.0), st.booleans()),
                      min_size=1, max_size=8))
def test_grand_rungs_size_by_the_scalar_reference(traps):
    """_grand_rungs sizes every rung by _heads, the one sizing rule, in one
    array pass: for harmonic and power-law traps (nu 0.01-4, both barriers,
    level scales 1e-4 to 1e4 k_B T), each rung's head and tail kind follow
    the scalar reference.  A rung is its reference head with a tail where
    the whole ladder is longer, else the whole ladder (kind 0): a
    geometric tail is a closed-form series (kind 1), any other power law's
    a k-series over moments (kind 2), which runs to k = ceil(x_cut/(x_{K+1}
    + v)) at the least v it is summed at, here log(1 + 1/10).  A rung past
    the 20,000-term cap, head or k-series, or whose estimate leaves float
    range, is its TruncationError."""
    beta = 1.0 / (K_B * 2.0)
    v = math.log1p(1.0 / 10)
    requests = []
    for harmonic, log_scale, nu, inserted in traps:
        scale = 10 ** log_scale * K_B * 2.0
        barrier = Barrier.INSERTED if inserted else Barrier.ABSENT
        trap = (Harmonic(MASS, scale / HBAR) if harmonic
                else PowerLaw.from_energy_scale(MASS, scale, nu))
        requests.append((trap, barrier, beta,
                         level_energy(trap, 1, barrier), v, math.inf))
    rungs = ensembles._grand_rungs(*_on_rows(requests), _SMALL_CAP)
    for r, (trap, barrier, _, e1, *_) in enumerate(requests):
        error = rungs.errors[r]
        try:
            n, tailed = _reference_head(trap, barrier, beta, e1, _SMALL_CAP)
        except TruncationError as exc:
            assert isinstance(error, TruncationError) and str(error) == (
                str(exc))
            continue
        if n > _SMALL_CAP.max_terms:
            assert isinstance(error, TruncationError) and str(error) == (
                f"series needs {n} terms, policy caps at 20000")
            continue
        geometric = isinstance(trap, Harmonic) or trap.level_power == 1.0
        if tailed and not geometric:
            x = beta * (level_energy(trap, np.array([n + 1]), barrier)[0]
                        - e1)
            length = math.ceil((ensembles._XCUT_MARGIN
                                - math.log(_SMALL_CAP.rel_tol)) / (x + v))
            if length > _SMALL_CAP.max_terms:
                assert isinstance(error, TruncationError) and str(error) == (
                    f"series needs {length} terms, policy caps at 20000")
                continue
            assert int(rungs.terms[r]) == length
        assert error is None
        got = int(rungs.heads[r]), int(rungs.kind[r])
        kind = (1 if geometric else 2) if tailed else 0
        assert got == (n, kind), (trap, barrier, got, n, tailed)


@settings(max_examples=60, deadline=None)
@given(traps=st.lists(st.tuples(st.booleans(), st.floats(-3.0, 3.0),
                                st.floats(0.3, 3.0), st.booleans(),
                                st.integers(0, 2), st.integers(1, 1000)),
                      min_size=1, max_size=8),
       temperatures=st.lists(st.floats(0.5, 8.0), min_size=1, max_size=3),
       data=st.data())
def test_heads_of_any_rows_keep_each_rows_bits(traps, temperatures, data):
    """A _Heads gathers the heads of any rows of a _Rungs, in any order,
    from its flat arrays (a _mu_offsets round re-gathers those of the roots
    left).  Over random rungs (harmonic and power-law traps with nu 0.3-3,
    both barriers, 1-3 betas, counts 1-1000), each row's occupancy, Newton
    weight, log and energy sums keep the bits of that row's own one-row
    _Heads; and those of a rung with no tail equal np.sum of its own head's
    terms."""
    betas = [1.0 / (K_B * t) for t in temperatures]
    requests = []
    for harmonic, log_scale, nu, inserted, b, count in traps:
        scale = 10 ** log_scale * K_B * 2.0
        barrier = Barrier.INSERTED if inserted else Barrier.ABSENT
        trap = (Harmonic(MASS, scale / HBAR) if harmonic
                else PowerLaw.from_energy_scale(MASS, scale, nu))
        g = 2.0 if inserted else 1.0
        requests.append((trap, barrier, betas[b % len(betas)],
                         level_energy(trap, 1, barrier),
                         math.log1p(g / count), count))
    rungs = ensembles._grand_rungs(*_on_rows(requests), _SMALL_CAP)
    live = [r for r, error in enumerate(rungs.errors) if error is None]
    if not live:
        return
    rows = data.draw(st.lists(st.sampled_from(live), min_size=1,
                              unique=True))
    at = np.array(rows, dtype=np.intp)
    v = np.array([requests[r][4] + data.draw(st.floats(0.0, 20.0))
                  for r in rows])
    d = v / rungs.beta[at]
    heads = ensembles._Heads(rungs, at, True)
    for kind in ("occupancy", "log", "energy"):
        got = heads.sums(v, kind, d)
        for i, r in enumerate(rows):
            own = ensembles._Heads(rungs, at[i:i + 1], True).sums(
                v[i:i + 1], kind, d[i:i + 1])
            assert [t[i].tobytes() for t in got] == [
                t[0].tobytes() for t in own], (r, kind)
            if rungs.kind[r]:
                continue
            start, n = int(rungs.starts[r]) + 1, int(rungs.heads[r])
            y = rungs.x[start:start + n] + v[i]
            g = rungs.g[r]
            if kind == "log":
                want = [np.sum(np.log1p(-np.exp(-y)))]
            else:
                with np.errstate(over="ignore"):    # far levels: terms 0
                    m = np.expm1(np.maximum(y, 1e-300))
                if kind == "energy":
                    want = [np.sum((rungs.gap[start:start + n] + d[i]) / m)
                            * g]
                else:
                    occupation = 1.0 / m
                    want = [np.sum(occupation) * g,
                            np.sum(occupation * (occupation + 1.0)) * g]
            assert [t[i].tobytes() for t in got] == [
                w.tobytes() for w in want], (r, kind)


def _checked_last_terms(log):
    """Assert that each canonical sum that runs to its size, rather than to
    a Morse well's last bound level or to a head that a closed-form tail
    completes, ends on a term e^{-beta (E_n - E_1)} below rel_tol of its
    sum, which is the sum of its magnitudes; and that a power-law head
    and its tail (see ensembles._tails) meet the whole ladder, summed term
    by term with math.fsum, to rel_tol.  Returns the segments checked."""
    checked = []
    for (trap, barrier, e1, beta, n), policy, result in log:
        if isinstance(result, SzilardError):
            continue
        if isinstance(trap, Morse) and trap.bound_count is not None and (
                n == trap.bound_count // (2 if barrier is Barrier.INSERTED
                                          else 1)):
            continue        # a complete bound ladder
        if _head_of(trap, barrier, beta, e1, policy) == (n, True):
            if isinstance(trap, PowerLaw) and trap.level_power != 1.0:
                (tail,), _ = ensembles._tails(
                    ensembles._Shapes.of([trap]),
                    np.array([float(ensembles._stride(barrier))]),
                    np.array([beta]), np.array([e1]), np.array([float(n)]))
                whole, m = [], 1
                while not whole or whole[-1] > 1e-40:
                    e = level_energy(trap, np.arange(m, m + 4096), barrier)
                    whole.extend(np.exp(-beta * (e - e1)).tolist())
                    m += 4096
                want = math.fsum(whole)
                assert abs(result[0] + tail - want) <= policy.rel_tol * want
                checked.append((trap, barrier, beta, n))
            continue        # a canonical head
        last = math.exp(-beta * (level_energy(trap, n, barrier) - e1))
        assert last <= policy.rel_tol * result[0], (trap, barrier, beta, n)
        checked.append((trap, barrier, beta, n))
    return checked


def _rung_ladders(call):
    """The (ladder, tailed, barrier, beta, E_1) of every rung _grand_rungs
    builds while call() runs, each its head where tailed; and whether
    call() succeeded (it may raise a SzilardError)."""
    log, original = [], ensembles._Rungs

    def spy(g, beta, e1, errors, readers, built, *rest):
        log.extend((ladder, tailed, Barrier.INSERTED if step == 2.0
                    else Barrier.ABSENT, beta[rows[0]], e1[rows[0]])
                   for rows, (ladder, tailed, step) in zip(readers, built))
        return original(g, beta, e1, errors, readers, built, *rest)

    with mock.patch.object(ensembles, "_Rungs", spy):
        try:
            call()
        except SzilardError:
            return log, False
    return log, True


_SMALL_CAP = TruncationPolicy(max_terms=20_000)


def _power_remainder(trap, step, beta, e1, index):
    """The Euler-Maclaurin remainder bound of a power-law tail from
    `index` on, 2 |B_k|/k! int |f^(k)| with m = _PAIRS correction pairs
    and k = 2m + 2, from the derivative bound of szilard._tail_sums,
    in math: f(A) (step/s)^(k-1) sum_i c(k, i) min(p^{i-1} (i-1)!
    e_{i-1}(y), (p y)^i/(k - 1 - ip)) with s = step A + 1/2 and y = beta
    E_A."""
    k = 2 * _PAIRS + 2
    p = trap.level_power
    s = step * index + 0.5
    y = beta * trap.energy_scale * s ** p
    rising = [1]        # the coefficients of z (z + 1) ... (z + k - 1)
    for j in range(k):
        rising = [a * j + b for a, b in zip(rising + [0], [0] + rising)]
    total = 0.0
    for i, c in enumerate(rising[1:], 1):
        partial = math.fsum(y ** l / math.factorial(l) for l in range(i))
        form = p ** (i - 1) * math.factorial(i - 1) * partial
        if i * p < k - 1:
            form = min(form, (p * y) ** i / (k - 1 - i * p))
        total += c * form
    return (_REMAINDER * math.exp(beta * e1 - y) * (step / s) ** (k - 1)
            * total)


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(0.05, 4.0), log_scale=st.floats(-3.0, 6.0),
       count=st.integers(1, 1000))
def test_grand_sums_end_below_rel_tol(nu, log_scale, count):
    """A grand-canonical rung sized once from its ground level needs no
    tail test: across nu 0.05-4, trap scales 1e-3-1e6 k_B T and N 1-1000,
    every rung _grand_rungs builds, at both baths, is its reference head
    (see _reference_head).  A rung built whole ends on a Boltzmann weight
    e^{-beta (E_n - E_1)} below rel_tol of the weights' sum; a power-law
    head leaves a tail whose Euler-Maclaurin remainder bound, evaluated
    here in math at A = K + 1, is below rel_tol e^-35 of its sum (at
    least 1 and the integral of f from index 1), as a Morse head's is.
    Every occupancy, log ratio and energy is a head and a k-series over
    the rung's moments, which test_heads_and_moments_match_whole_sums
    checks against whole sums.  A cap of 20,000 terms keeps each draw
    short."""
    baths = BathPair(hot=2.0, cold=1.0)
    trap = PowerLaw.from_energy_scale(MASS, 10 ** log_scale * K_B, nu)
    log, ran = _rung_ladders(lambda: run_cycle(
        trap, Ensemble.GRAND_BOSE, count, baths, _SMALL_CAP))
    for ladder, tailed, barrier, beta, e1 in log:
        step = 2 if barrier is Barrier.INSERTED else 1
        assert (len(ladder), tailed) == _reference_head(
            trap, barrier, beta, e1, _SMALL_CAP)
        if not tailed:
            w = np.exp(-beta * (ladder - e1))
            assert w[-1] <= _SMALL_CAP.rel_tol * w.sum(), (trap, beta, len(w))
        elif trap.level_power != 1.0:
            p, y1 = trap.level_power, beta * e1
            floor = (step + 0.5) / (step * p * (y1 + max(1 - 1 / p, 0.0)))
            assert _power_remainder(trap, step, beta, e1, len(ladder) + 1) <= (
                _SMALL_CAP.rel_tol * math.exp(-35.0) * max(floor, 1.0))
    if ran:
        assert len(log) == 4


def _whole_sums(trap, barrier, mu, temperature, x_top=75.0):
    """The occupancy, log term sum_n log(1 - e^{-x_n}) and energy of one
    rung at mu, x_n = beta (E_n - mu), from its whole ladder to beta (E_n
    - E_1) = x_top, each math.fsum over the numpy sums of consecutive
    chunks of up to 2^20 levels; and the sum of each one's magnitudes."""
    g = 2.0 if barrier is Barrier.INSERTED else 1.0
    beta = 1.0 / (K_B * temperature)
    e1 = level_energy(trap, 1, barrier)
    parts, n, chunk = [], 1, 256
    while True:
        e = level_energy(trap, np.arange(n, n + chunk), barrier)
        x = beta * (e - mu)
        with np.errstate(over="ignore"):    # terms past x_top are 0
            occupancy = g / np.expm1(x)
        terms = (occupancy, np.log1p(-np.exp(-x)), occupancy * (e - mu))
        parts.append([(float(np.sum(t)), float(np.sum(np.abs(t))))
                      for t in terms])
        n, chunk = n + chunk, min(2 * chunk, 1 << 20)
        if beta * (e[-1] - e1) > x_top:
            break
    return [(math.fsum(p[k][0] for p in parts),
             math.fsum(p[k][1] for p in parts)) for k in range(3)]


@settings(max_examples=60, deadline=None)
@given(nu=st.one_of(st.just(2.0), st.floats(0.05, 4.0)),
       log_scale=st.floats(-3.0, 6.0), count=st.integers(1, 1000),
       mode=st.sampled_from(MuMode))
def test_heads_and_moments_match_whole_sums(nu, log_scale, count, mode):
    """Each rung of a Bose cycle is a head summed term by term and a tail
    summed as a k-series over its mu-free moments (see
    ensembles._grand_rungs): at the cycle's chemical potentials, solved or
    closed-form, its occupancy, log term and energy each meet the whole
    ladder summed term by term, to 1e-12 of the summed magnitudes.  nu
    0.05-4, with nu = 2 (a 16-term head, closed-form moments and a series
    whose length is set at each evaluation) drawn often; trap scales
    1e-3-1e6 k_B T; N 1-1000.  A rung past the 20,000-term cap meets its
    TruncationError and is not checked; nor is a power law whose whole
    ladder passes the cap, which its heads and moments now sum but no
    whole sum here reaches (it was a TruncationError when power-law rungs
    were built whole)."""
    baths = BathPair(hot=2.0, cold=1.0)
    trap = PowerLaw.from_energy_scale(MASS, 10 ** log_scale * K_B, nu)
    table, batch = _one_batch(trap, 1, baths.hot, _SMALL_CAP)
    (pairs,), rungs = ensembles._bath_ratios(
        table, batch, [count], [(baths.hot, baths.cold)], mode, _SMALL_CAP)
    if isinstance(pairs, SzilardError):
        return
    (hot, cold), _ = pairs
    rows = ((Barrier.ABSENT, hot.pre_insertion, baths.hot),
            (Barrier.INSERTED, hot.post_insertion, baths.hot),
            (Barrier.ABSENT, cold.pre_insertion, baths.cold),
            (Barrier.INSERTED, cold.post_insertion, baths.cold))
    if trap.level_power != 1.0 and any(
            _reference_index_beyond(
                trap, barrier, 1.0 / (K_B * temperature),
                level_energy(trap, 1, barrier),
                35.0 - math.log(_SMALL_CAP.rel_tol)) > _SMALL_CAP.max_terms
            for barrier, _, temperature in rows):
        return
    for row, (barrier, mu, temperature) in enumerate(rows):
        got = [ensembles._rung_sums(rungs, [row], [mu], kind)[0]
               for kind in ("occupancy", "log", "energy")]
        for value, (want, magnitude) in zip(got, _whole_sums(
                trap, barrier, mu, temperature)):
            assert abs(value - want) <= 1e-12 * magnitude, (
                barrier, temperature, value, want)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(("harmonic", "power-law", "morse")),
       gap=st.floats(4.5, 100.0), nu=st.floats(0.5, 4.0),
       anharmonicity=st.floats(1e-4, 0.02), count=st.integers(1, 50))
def test_whole_canonical_sums_end_below_rel_tol(kind, gap, nu, anharmonicity,
                                                count):
    """The canonical and Morse sums that run whole, with no tail: a hot
    stage's ground gap N beta E_scale (beta q for a Morse well) of 4.5 or
    more keeps a geometric ladder within its 16-term head.  Each ends below
    rel_tol of its summed magnitudes.  A power law that is not geometric
    ran whole before its Euler-Maclaurin tail; where it takes a head now,
    head and tail meet its whole ladder to rel_tol."""
    baths = BathPair(hot=2.0, cold=1.0)
    scale = gap * K_B * baths.hot
    if kind == "morse":
        trap, count = Morse.from_anharmonicity(
            MASS, scale / HBAR, anharmonicity), 1
        ensemble = Ensemble.MORSE_SINGLE
    else:
        scale /= count
        trap = (Harmonic(MASS, scale / HBAR) if kind == "harmonic"
                else PowerLaw.from_energy_scale(MASS, scale, nu))
        ensemble = Ensemble.CANONICAL_N
    log, _ = _sums_of(lambda: run_cycle(trap, ensemble, count, baths,
                                        _SMALL_CAP))
    assert _checked_last_terms(log)


class TestGrandOracle:
    """The grand-canonical route against 50-digit sums at its own solved
    chemical potentials, run on the same float levels to beta (E - E_1) =
    100 at the hot bath, where the engine cuts near 63."""

    # (nu, N, trap scale in k_B T_cold, T_hot, T_cold): fig7 and fig8 points
    TRAPS = ((1.6, 20, 1.0, 20.0, 10.0), (2.0, 20, 50.0, 20.0, 10.0),
             (1.6, 10, 0.5, 2.0, 1.0), (2.2, 20, 1.0, 2.0, 1.0),
             (2.6, 30, 40.0, 2.0, 1.0), (2.0, 10, 5.0, 2.0, 1.0))

    @pytest.mark.parametrize("nu, count, ratio, hot, cold", TRAPS)
    def test_stage_sums_and_cycle_match_50_digit_sums(self, nu, count, ratio,
                                                      hot, cold):
        """Each stage energy to 1e-12 relative; each log ratio, which can
        cancel to near zero, to 1e-12 of its summed magnitudes; W and eta
        from both."""
        mpmath = pytest.importorskip("mpmath")
        baths = BathPair(hot, cold)
        trap = PowerLaw.from_energy_scale(MASS, ratio * K_B * cold, nu)
        table, batch = _one_batch(trap, 1, hot)
        (l_hot, l_cold, energies, mus), = ensembles._grand_sums(
            table, batch, [count], [baths], MuMode.SOLVED,
            TruncationPolicy())
        e1 = level_energy(trap, 1)
        m = 8
        while (level_energy(trap, m) - e1) / (K_B * hot) < 100:
            m *= 2
        ladder = level_energy(trap, np.arange(1, 2 * m + 1))
        m = int(np.searchsorted((ladder - e1) / (K_B * hot), 100.0)) + 1
        with mpmath.workdps(50):
            ladder = [mpmath.mpf(e) for e in ladder[:2 * m]]
            absent, inserted = ladder[:m], ladder[1::2]
            logs, magnitudes, want = [], [], []
            for pair in mus:
                beta = 1 / (mpmath.mpf(K_B) * pair.temperature)
                pre = mpmath.mpf(pair.pre_insertion)
                post = mpmath.mpf(pair.post_insertion)
                terms = [mpmath.log(-mpmath.expm1(-beta * (a - pre)))
                         - 2 * mpmath.log(-mpmath.expm1(-beta * (b - post)))
                         for a, b in zip(absent, inserted)]
                logs.append(mpmath.fsum(terms))
                magnitudes.append(float(mpmath.fsum(abs(t) for t in terms)))
                # stages A and B at the hot bath, D and C at the cold
                want += [mpmath.fsum(g * (e - mu) / mpmath.expm1(beta * (e - mu))
                                     for e in levels)
                         for g, levels, mu in ((1, absent, pre),
                                               (2, inserted, post))]
            u_a, u_b, u_d, u_c = (float(u) for u in want)
            l_h, l_c = (float(value) for value in logs)
        for got, value in zip(energies, (u_a, u_b, u_c, u_d)):
            assert abs(got / value - 1) <= 1e-12
        for got, value, magnitude in zip((l_hot, l_cold), (l_h, l_c),
                                         magnitudes):
            assert abs(got - value) <= 1e-12 * magnitude

        cycle = run_cycle(trap, Ensemble.GRAND_BOSE, count, baths)
        assert cycle.mus == mus
        kt_h, kt_c = K_B * hot, K_B * cold
        work = kt_h * l_h - kt_c * l_c
        work_tol = 1e-12 * (kt_h * magnitudes[0] + kt_c * magnitudes[1])
        assert abs(cycle.work - work) <= work_tol
        supplied = u_b - u_d + kt_h * l_h
        supplied_tol = 1e-12 * (abs(u_b) + abs(u_d) + kt_h * magnitudes[0])
        assert supplied > 0.0
        eta = work / supplied
        assert abs(cycle.efficiency - eta) <= (
            work_tol + abs(eta) * supplied_tol) / supplied

    # per reach cycle (nu, T_hot), the Newton rounds of its roots, absent
    # and inserted at the hot bath, then at the cold
    ROUNDS = {(2.0, 200.0): [5, 5, 5, 5], (2.0, 2000.0): [4, 4, 5, 5],
              (1.6, 200.0): [5, 5, 5, 5], (2.6, 2000.0): [5, 5, 6, 6]}

    @pytest.mark.parametrize("hot, cold", [(200.0, 100.0), (2000.0, 1000.0)])
    def test_reach_cycles_match_whole_ladder_sums(self, hot, cold,
                                                  newton_log):
        """The nu = 2 trap of energy scale 0.01 k_B 1 K with N = 10, whose
        ladders run to 1.25 M terms at 200 K (past the term cap) and
        12.5 M at 2000 K: each rung takes a 16-term head and a closed-form
        k-series (see _check_reach_cycle)."""
        self._check_reach_cycle(2.0, hot, cold, newton_log)

    @pytest.mark.parametrize("nu, hot, cold", [(1.6, 200.0, 100.0),
                                               (2.6, 2000.0, 1000.0)])
    def test_power_law_reach_cycles_match_whole_ladder_sums(
            self, nu, hot, cold, newton_log):
        """The same trap at nu = 1.6 (200/100 K) and 2.6 (2000/1000 K),
        which raised TruncationError at 7.2 M and 1.9 M terms while
        power-law rungs were built whole: each rung is a short head and a
        k-series over Euler-Maclaurin moments (see _check_reach_cycle)."""
        self._check_reach_cycle(nu, hot, cold, newton_log)

    def _check_reach_cycle(self, nu, hot, cold, newton_log):
        """At the cycle's own solved chemical potentials the rungs meet the
        whole ladders summed term by term (math.fsum over numpy chunks, to
        beta (E - E_1) = 75).  Each occupancy recovers N to 1e-10, as the
        root's own re-check demands; each stage energy to 1e-12 relative;
        each log ratio, W and eta as above.  Each root's Newton rounds (see
        conftest.newton_rounds) are pinned: a converged step that lands on
        a bracket end stops there, where clamping it to the bracket first
        bisected three nu = 2 roots for 57 to 59 rounds."""
        trap = PowerLaw.from_energy_scale(MASS, 0.01 * K_B, nu)
        baths = BathPair(hot, cold)
        cycle = run_cycle(trap, Ensemble.GRAND_BOSE, 10, baths)
        (stops,) = newton_rounds(newton_log)
        assert [stops[j] for j in range(4)] == self.ROUNDS[nu, hot]
        logs, magnitudes, energies = [], [], {}
        for pair, stages in zip(cycle.mus, (("A", "B"), ("D", "C"))):
            sums = [_whole_sums(trap, barrier, mu, pair.temperature)
                    for barrier, mu in ((Barrier.ABSENT, pair.pre_insertion),
                                        (Barrier.INSERTED,
                                         pair.post_insertion))]
            for stage, (occupancy, _, energy) in zip(stages, sums):
                assert abs(occupancy[0] - 10) <= 1e-10 * 10
                energies[stage] = energy[0]
            (_, (log_pre, pre), _), (_, (log_post, post), _) = sums
            logs.append(log_pre - 2.0 * log_post)
            magnitudes.append(pre + 2.0 * post)
        table, batch = _one_batch(trap, 1, hot)
        (l_hot, l_cold, got, mus), = ensembles._grand_sums(
            table, batch, [10], [baths], MuMode.SOLVED, TruncationPolicy())
        assert mus == cycle.mus
        for value, stage in zip(got, "ABCD"):
            assert abs(value / energies[stage] - 1) <= 1e-12
        for value, want, magnitude in zip((l_hot, l_cold), logs,
                                          magnitudes):
            assert abs(value - want) <= 1e-12 * magnitude
        kt_h, kt_c = K_B * hot, K_B * cold
        work = kt_h * logs[0] - kt_c * logs[1]
        work_tol = 1e-12 * (kt_h * magnitudes[0] + kt_c * magnitudes[1])
        assert abs(cycle.work - work) <= work_tol
        supplied = energies["B"] - energies["D"] + kt_h * logs[0]
        supplied_tol = 1e-12 * (abs(energies["B"]) + abs(energies["D"])
                                + kt_h * magnitudes[0])
        eta = work / supplied
        assert abs(cycle.efficiency - eta) <= (
            work_tol + abs(eta) * supplied_tol) / supplied


    def test_reach_cycle_past_ten_million_levels_evaluates(self):
        """nu = 1.6 at 2000/1000 K, whose ladders run to 97 M levels (a
        TruncationError while power-law rungs were built whole): a cycle
        with no error, W below Carnot's share of the heat it takes in."""
        trap = PowerLaw.from_energy_scale(MASS, 0.01 * K_B, 1.6)
        cycle = run_cycle(trap, Ensemble.GRAND_BOSE, 10,
                          BathPair(2000.0, 1000.0))
        assert math.isfinite(cycle.work) and math.isfinite(cycle.efficiency)
        assert cycle.efficiency <= 0.5

_TIGHT = TruncationPolicy(max_terms=10)
_TRAP = Harmonic(MASS, OMEGA)       # about 16k terms at 200 K: past the cap
_MUS = ChemicalPotentials(pre_insertion=-1e-22, post_insertion=-1e-22,
                          temperature=200.0, count=3, mode=MuMode.CLOSED_FORM)


class TestRaisedErrors:
    """An error kept as a value is raised without a reference cycle, so a
    caught one is freed at once rather than by the garbage collector."""

    @pytest.mark.parametrize("call", [
        lambda: run_cycle(_TRAP, Ensemble.CANONICAL_N, 3, BATHS, _TIGHT),
        lambda: occupancy_total(_TRAP, Barrier.ABSENT, -1e-22, 200.0, _TIGHT),
        lambda: log_relative_partition(_TRAP, _MUS, 200.0, _TIGHT),
        lambda: internal_energy(Stage.A, _TRAP, _MUS, BATHS, _TIGHT),
        lambda: chemical_potential(_TRAP, 3, 200.0, Barrier.ABSENT,
                                   MuMode.SOLVED, _TIGHT),
        lambda: chemical_potentials(_TRAP, 3, 200.0, MuMode.SOLVED, _TIGHT),
        lambda: canonical_stage_properties(_TRAP, Barrier.ABSENT, 3, 200.0,
                                           _TIGHT)],
        ids=["run_cycle", "occupancy_total", "log_relative_partition",
             "internal_energy", "chemical_potential", "chemical_potentials",
             "canonical_stage_properties"])
    def test_caught_error_leaves_no_cyclic_garbage(self, call):
        for _ in range(2):      # the first pass may warm lazy state
            gc.collect()
            gc.disable()
            try:
                with contextlib.suppress(TruncationError):
                    call()
                    pytest.fail("no TruncationError")
                garbage = gc.collect()
            finally:
                gc.enable()
        assert garbage == 0


_COUNT_HARMONIC = Harmonic(MASS, 1e10)
_COUNT_POWER_LAW = PowerLaw(MASS, 1e10, 1.6)
_COUNT_BATHS = BathPair(2.0, 1.0)
_COUNT_CALLS = [
    pytest.param(lambda count: canonical_stage_properties(
        _COUNT_HARMONIC, Barrier.ABSENT, count, 2.0),
        id="canonical_stage_properties"),
    pytest.param(lambda count: chemical_potential(
        _COUNT_POWER_LAW, count, 2.0, Barrier.ABSENT, MuMode.SOLVED),
        id="chemical_potential"),
    pytest.param(lambda count: chemical_potentials(
        _COUNT_POWER_LAW, count, 2.0, MuMode.CLOSED_FORM),
        id="chemical_potentials"),
    pytest.param(lambda count: run_cycle(
        _COUNT_POWER_LAW, Ensemble.GRAND_BOSE, count, _COUNT_BATHS),
        id="run_cycle-grand"),
    pytest.param(lambda count: run_cycle(
        _COUNT_HARMONIC, Ensemble.CANONICAL_N, count, _COUNT_BATHS),
        id="run_cycle-canonical"),
]


@pytest.mark.parametrize("count", [0, -1, 0.5, math.nan, math.inf])
@pytest.mark.parametrize("call", _COUNT_CALLS)
def test_particle_count_outside_one_to_inf_is_refused(call, count):
    """Every entry point that takes a particle count refuses one that is
    not a finite number of at least 1 with the same EnsembleMismatchError,
    before any sum, so that no such count reaches a sum or a root: -1 would
    give a negative energy, inf a bare ValueError from log(0), nan a root
    that fails."""
    with pytest.raises(EnsembleMismatchError,
                       match="particle count must be finite and at least 1"):
        call(count)


@pytest.mark.parametrize("call", _COUNT_CALLS)
def test_fractional_particle_count_stays_legal(call):
    """A count of 2.5 passes the check and evaluates."""
    call(2.5)


def test_mu_far_below_ground_sums_to_zero_without_warning():
    """A chemical potential of -1e300 J puts v = beta (E_1 - mu) past float
    range: it is inf, every Bose term is 0, and no RuntimeWarning leaks."""
    mus = ChemicalPotentials(-1e300, -1e300, 2.0, 10, MuMode.SOLVED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert occupancy_total(_COUNT_POWER_LAW, Barrier.ABSENT, -1e300,
                               2.0) == 0.0
        assert log_relative_partition(_COUNT_POWER_LAW, mus, 2.0) == 0.0
        assert internal_energy(Stage.A, _COUNT_POWER_LAW, mus,
                               _COUNT_BATHS) == 0.0
