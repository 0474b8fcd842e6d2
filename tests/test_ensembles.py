"""Stage sums: canonical ladders, grand-canonical bosons, Morse averages."""

import contextlib
import gc
import itertools
import math

import numpy as np
import pytest

from szilard import (Barrier, BathPair, ChemicalPotentials,
                     ConvergenceViolationError, Ensemble,
                     EnsembleMismatchError, HBAR, Harmonic, K_B, Morse, MuMode,
                     PowerLaw, SpectrumRangeError, Stage, SzilardError,
                     TruncationError,
                     TruncationPolicy,
                     canonical_stage_properties, chemical_potential,
                     chemical_potentials, internal_energy, level_energy,
                     log_relative_partition, occupancy_total, run_cycle)

MASS = 19.11e-11
OMEGA = 1e11
BATHS = BathPair(hot=200.0, cold=100.0)

# 60-digit canonical work anchors at mass 19.11e-11 kg, omega 1e11 rad/s,
# baths 200/100 K, from the geometric closed form of the stage sums
W_CANONICAL = {1: 5.0338870773722705e-27,
               5: 3.8279618242544581e-21,
               20: 1.8184231095252045e-20}


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
        mpmath = pytest.importorskip("mpmath")
        q = HBAR * 1e13
        with mpmath.workdps(50):
            for bound in range(1, 21):
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
        lambda: canonical_stage_properties(_TRAP, Barrier.ABSENT, 3, 200.0,
                                           _TIGHT)],
        ids=["run_cycle", "occupancy_total", "log_relative_partition",
             "internal_energy", "chemical_potential",
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
