"""Four-stroke cycle assembly, regimes, and efficiencies."""

import math
import struct

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from szilard import (Barrier, BathPair, CycleResult, Ensemble,
                     EnsembleMismatchError, HBAR, Harmonic, K_B, Morse, MuMode,
                     PowerLaw, Regime, SolverFailureError, SzilardError,
                     Stage, TruncationError, TruncationPolicy, carnot_bound,
                     canonical_stage_properties, chemical_potentials,
                     internal_energy, log_relative_partition, run_cycle,
                     run_cycles)
from szilard import cycle
from szilard.ensembles import _Errors, _batches, _beta

MASS = 19.11e-11

# 60-digit cycle for the 9-level Morse well (quantum hbar*1e10 J, depth
# 5.35 quanta) between 0.1 and 0.05 K
MORSE_ENGINE = {
    "work": 7.9695181589535488e-26,
    "efficiency": 0.10499087997501885,
    "efficiency_literal": 0.036124243407984105,
}
# the same well between 0.4 and 0.2 K pumps heat instead
MORSE_REFRIG_WORK = -2.7261034232791334e-25


def _nine_level_well():
    return Morse(mass=MASS, depth=5.35 * HBAR * 1e10, omega=1e10)


def test_carnot_bound():
    assert carnot_bound(BathPair(2.0, 1.0)) == 0.5
    assert carnot_bound(BathPair(8.0, 4.0)) == 0.5
    assert carnot_bound(BathPair(3.0, 3.0)) == 0.0
    assert carnot_bound(BathPair(300.0, 3.0)) == pytest.approx(0.99)


def test_equal_baths_idle():
    """Same stage sums on both sides: the work must cancel exactly."""
    result = run_cycle(Harmonic(MASS, 1e10), Ensemble.CANONICAL_N, 5,
                       BathPair(1.0, 1.0))
    assert result.work == 0.0
    assert result.regime is Regime.IDLE
    result = run_cycle(_nine_level_well(), Ensemble.MORSE_SINGLE, 1,
                       BathPair(0.3, 0.3))
    assert result.work == 0.0
    assert result.regime is Regime.IDLE


@pytest.mark.parametrize("potential,ensemble,count,baths", [
    (Harmonic(MASS, 1e11), Ensemble.CANONICAL_N, 7, BathPair(200.0, 100.0)),
    (PowerLaw(MASS, 1e10, 1.6), Ensemble.GRAND_BOSE, 20, BathPair(2.0, 1.0)),
    (Morse(MASS, depth=8.7 * 1.602176634e-19, omega=1e10),
     Ensemble.MORSE_SINGLE, 1, BathPair(8.0, 4.0)),
])
def test_first_law_closure(potential, ensemble, count, baths):
    r = run_cycle(potential, ensemble, count, baths)
    total = r.q_insert + r.q_cool + r.q_remove + r.q_reheat
    scale = max(abs(r.work), abs(r.q_hot), abs(r.q_cold))
    assert abs(r.work - total) <= 1e-10 * scale


def test_heat_decomposition():
    r = run_cycle(Harmonic(MASS, 1e11), Ensemble.CANONICAL_N, 7,
                  BathPair(200.0, 100.0))
    assert r.q_hot == r.q_insert + r.q_reheat
    assert r.q_cold == r.q_cool + r.q_remove


def test_efficiency_is_work_over_hot_heat():
    # supplied heat and q_hot are the same sum, assembled differently
    baths = BathPair(2.0, 1.0)
    trap = PowerLaw.from_energy_scale(MASS, 10.0 * K_B * baths.cold, 2.0)
    r = run_cycle(trap, Ensemble.GRAND_BOSE, 20, baths)
    assert r.regime is Regime.ENGINE
    assert r.efficiency == pytest.approx(r.work / r.q_hot, rel=1e-9)
    assert 0.0 < r.efficiency <= carnot_bound(baths)


def test_morse_engine_matches_frozen_cycle():
    baths = BathPair(0.1, 0.05)
    r = run_cycle(_nine_level_well(), Ensemble.MORSE_SINGLE, 1, baths)
    assert r.regime is Regime.ENGINE
    assert r.work == pytest.approx(MORSE_ENGINE["work"], rel=1e-9)
    assert r.efficiency == pytest.approx(MORSE_ENGINE["efficiency"], rel=1e-9)
    literal = run_cycle(_nine_level_well(), Ensemble.MORSE_SINGLE, 1, baths,
                        literal_denominator=True)
    assert literal.work == r.work            # only the denominator moves
    assert literal.efficiency == pytest.approx(
        MORSE_ENGINE["efficiency_literal"], rel=1e-9)
    assert literal.efficiency < r.efficiency


def test_morse_refrigerator_branch():
    """Warmer baths drive the same well backwards; the heat-supplied
    denominator goes negative, so no efficiency is reported."""
    r = run_cycle(_nine_level_well(), Ensemble.MORSE_SINGLE, 1,
                  BathPair(0.4, 0.2))
    assert r.work == pytest.approx(MORSE_REFRIG_WORK, rel=1e-10)
    assert r.regime is Regime.REFRIGERATOR
    assert r.efficiency is None


def test_bose_refrigerator_at_small_scale():
    # level spacing far below k T_cold: removal costs more than insertion pays
    baths = BathPair(2.0, 1.0)
    trap = PowerLaw.from_energy_scale(MASS, 0.05 * K_B * baths.cold, 2.0)
    r = run_cycle(trap, Ensemble.GRAND_BOSE, 20, baths)
    assert r.work < 0.0
    assert r.regime is Regime.REFRIGERATOR


def test_mu_mode_is_forwarded():
    """Each mode gives the cycle the chemical potentials the public solver
    gives at each bath: == compares every field, the mode included."""
    baths = BathPair(2.0, 1.0)
    trap = PowerLaw.from_energy_scale(MASS, 10.0 * K_B * baths.cold, 2.0)
    solved, closed = (run_cycle(trap, Ensemble.GRAND_BOSE, 10, baths,
                                mu_mode=mode)
                      for mode in (MuMode.SOLVED, MuMode.CLOSED_FORM))
    for result, mode in zip((solved, closed),
                            (MuMode.SOLVED, MuMode.CLOSED_FORM)):
        assert result.mus == (chemical_potentials(trap, 10, 2.0, mode),
                              chemical_potentials(trap, 10, 1.0, mode))
    assert solved.work != closed.work
    assert solved.work == pytest.approx(closed.work, rel=1e-2)


def test_ensemble_potential_pairing_enforced():
    well = _nine_level_well()
    trap = Harmonic(MASS, 1e10)
    baths = BathPair(2.0, 1.0)
    with pytest.raises(EnsembleMismatchError):
        run_cycle(well, Ensemble.CANONICAL_N, 2, baths)
    with pytest.raises(EnsembleMismatchError):
        run_cycle(well, Ensemble.GRAND_BOSE, 2, baths)
    with pytest.raises(EnsembleMismatchError):
        run_cycle(trap, Ensemble.MORSE_SINGLE, 1, baths)
    with pytest.raises(EnsembleMismatchError):
        run_cycle(well, Ensemble.MORSE_SINGLE, 2, BathPair(0.1, 0.05))


def test_literal_denominator_is_morse_only():
    with pytest.raises(EnsembleMismatchError):
        run_cycle(Harmonic(MASS, 1e10), Ensemble.GRAND_BOSE, 10,
                  BathPair(2.0, 1.0), literal_denominator=True)


def test_result_is_frozen():
    r = run_cycle(Harmonic(MASS, 1e11), Ensemble.CANONICAL_N, 2,
                  BathPair(200.0, 100.0))
    assert isinstance(r, CycleResult)
    with pytest.raises(AttributeError):
        r.work = 0.0


def _batch_trap(kind, exponent, ratio, anharmonicity, kt):
    """A trap whose level prefactor (Morse: quantum) is ratio * kt."""
    if kind == "harmonic":
        return Harmonic(MASS, ratio * kt / HBAR)
    if kind == "morse":
        return Morse.from_anharmonicity(MASS, ratio * kt / HBAR, anharmonicity)
    return PowerLaw.from_energy_scale(MASS, ratio * kt, exponent)


def _outcome(potential, *args, **kwargs):
    """run_cycle's result for one potential, or the error it raises."""
    try:
        return run_cycle(potential, *args, **kwargs)
    except SzilardError as exc:
        return exc


def _run_cycles(traps, ensemble, counts, baths, policy, mode, literal):
    """Per trap of one cycle evaluation (cycle._run_cycles, whose columns
    the sweeps write), with its own count and baths: its CycleResult or
    error, as run_cycles builds them."""
    return cycle._outcomes(cycle._run_cycles(traps, ensemble, counts, baths,
                                             policy, mode, literal),
                           counts, mode)


def _assert_same_outcomes(batched, singles):
    """Each batched outcome is the trap's own: the same result, every field
    ==, or an error of the same type and message."""
    assert len(batched) == len(singles)
    for got, want in zip(batched, singles):
        if isinstance(want, SzilardError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert got == want


_KINDS = {
    Ensemble.GRAND_BOSE: ("harmonic", "power-law"),
    Ensemble.CANONICAL_N: ("harmonic", "power-law"),
    Ensemble.MORSE_SINGLE: ("morse",),
}
_kelvin = st.floats(0.1, 50.0)
_scale = st.floats(0.05, 20.0)
# level scales down to 1e-4 kT/N: canonical ladders estimated past the 8192
# terms that close a batch, up to about 6e5 terms
_fine_scale = st.one_of(_scale, st.floats(1e-4, 1e-2))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ensemble=st.sampled_from(Ensemble),
       mode=st.sampled_from((MuMode.SOLVED, MuMode.CLOSED_FORM)),
       max_terms=st.sampled_from((1_000_000, 60, 10)), literal=st.booleans())
def test_batched_cycles_equal_single_cycles(data, ensemble, mode, max_terms,
                                            literal):
    """A batch of traps gives each trap its own outcome, on every route,
    each trap with its own count and baths.

    Power-law exponents run 1.2-4 and level scales 0.05-20 kT.  On the
    canonical and Morse routes the scales are in units of kT/N, the decay
    of an N-particle stage sum, and run down to 1e-4, so their runs split
    into batches that mix long ladders with short ones.  Morse anharmonicities
    run 0 (infinite depth) to 0.7, so some wells are too shallow to hold or
    to split a level and others hold long bounded ladders, and a 60- or
    10-term cap makes some series fail.  Counts and baths are drawn per
    trap from small pools, and some traps repeat, built again equal, at
    the same or another count and baths, in any order: the points of a
    sweep over counts, whose grand-canonical rungs are built once for all
    the counts that read them."""
    grand = ensemble is Ensemble.GRAND_BOSE
    morse = ensemble is Ensemble.MORSE_SINGLE
    literal = literal and morse
    pairs = [BathPair(hot, cold) for hot, cold in data.draw(st.lists(
        st.tuples(_kelvin, _kelvin), min_size=1, max_size=2))]
    counts = [1] if morse else data.draw(st.lists(st.integers(1, 50),
                                                  min_size=1, max_size=3))
    jobs = data.draw(st.lists(
        st.tuples(st.sampled_from(_KINDS[ensemble]), st.floats(1.2, 4.0),
                  _scale if grand else _fine_scale,
                  st.one_of(st.just(0.0), st.floats(1e-7, 1e-3),
                            st.floats(1e-3, 0.7)),
                  st.sampled_from(counts), st.sampled_from(pairs)),
        min_size=1, max_size=6))
    # a repeat takes the trap of an earlier job at its own count and baths
    jobs += [(*jobs[i][:4], count, baths) for i, count, baths in data.draw(
        st.lists(st.tuples(st.integers(0, len(jobs) - 1),
                           st.sampled_from(counts), st.sampled_from(pairs)),
                 max_size=4))]
    jobs = data.draw(st.permutations(jobs))
    policy = TruncationPolicy(max_terms=max_terms)
    # scales in units of the first bath pair and count, so repeats are equal
    kt = K_B * max(pairs[0].hot, pairs[0].cold) / (1 if grand else counts[0])
    traps = [_batch_trap(*job[:4], kt) for job in jobs]
    counts = [count for *_, count, _ in jobs]
    baths = [pair for *_, pair in jobs]
    singles = [_outcome(trap, ensemble, count, pair, policy, mode, literal)
               for trap, count, pair in zip(traps, counts, baths)]
    event(f"{ensemble.name}: {sum(isinstance(s, SzilardError) for s in singles)}"
          f" of {len(traps)} fail")
    event(f"{ensemble.name}: {len(traps) - len(set(traps))} repeated traps")
    _assert_same_outcomes(_run_cycles(traps, ensemble, counts, baths, policy,
                                      mode, literal), singles)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), morse=st.booleans(),
       max_terms=st.sampled_from((1_000_000, 500, 60, 10)))
def test_points_that_share_stage_sums_keep_their_own_outcomes(data, morse,
                                                              max_terms):
    """The canonical and Morse routes sum each distinct (trap, count, bath)
    of a batch once, for every point that reads it.  Here traps repeat, as
    one shared object and as equal objects built again; the baths come from
    a pool T, 2T and 4T, so one point's cold bath is often another's hot
    one; the points run in any order; and level scales down to 1e-4 kT
    under a cap of 500, 60 or 10 terms make some stages of a point fail,
    each needing its own number of terms, and others not.  Each point gets
    its own run_cycle outcome, the error of its first failing stage, A to
    D, included."""
    ensemble = Ensemble.MORSE_SINGLE if morse else Ensemble.CANONICAL_N
    base = data.draw(_kelvin)
    pool = (base, 2.0 * base, 4.0 * base)
    counts = [1] if morse else data.draw(st.lists(st.integers(1, 20),
                                                  min_size=1, max_size=2))
    shapes = data.draw(st.lists(st.tuples(
        st.sampled_from(_KINDS[ensemble]), st.floats(1.2, 4.0), _fine_scale,
        st.one_of(st.just(0.0), st.floats(1e-4, 0.7))), min_size=1,
        max_size=3))
    kt = K_B * base
    shared = [_batch_trap(*shape, kt) for shape in shapes]
    jobs = data.draw(st.permutations(data.draw(st.lists(st.tuples(
        st.integers(0, len(shapes) - 1), st.booleans(),
        st.sampled_from(counts), st.sampled_from(pool),
        st.sampled_from(pool)), min_size=2, max_size=10))))
    traps = [shared[k] if same else _batch_trap(*shapes[k], kt)
             for k, same, *_ in jobs]
    counts = [count for _, _, count, _, _ in jobs]
    baths = [BathPair(hot, cold) for *_, hot, cold in jobs]
    policy = TruncationPolicy(max_terms=max_terms)
    singles = [_outcome(trap, ensemble, count, pair, policy)
               for trap, count, pair in zip(traps, counts, baths)]
    # a failing point's error is that of its first failing stage, A to D,
    # each stage summed alone
    for trap, count, pair, single in zip(traps, counts, baths, singles):
        errors = []
        for barrier, temperature in (
                (Barrier.ABSENT, pair.hot), (Barrier.INSERTED, pair.hot),
                (Barrier.INSERTED, pair.cold), (Barrier.ABSENT, pair.cold)):
            try:
                canonical_stage_properties(trap, barrier, count, temperature,
                                           policy)
            except SzilardError as exc:
                errors.append(exc)
        if errors:
            assert (type(single), str(single)) == (type(errors[0]),
                                                   str(errors[0]))
    reads = [(pair.hot, pair.cold) for pair in baths]
    event(f"{ensemble.name}: a cold bath is another point's hot one:"
          f" {any(c == h for _, c in reads for h, _ in reads)}")
    event(f"{ensemble.name}: {sum(isinstance(s, SzilardError) for s in singles)}"
          f" of {len(traps)} fail")
    _assert_same_outcomes(_run_cycles(traps, ensemble, counts, baths, policy,
                                      MuMode.SOLVED, False), singles)


def _first_grand_error(trap, count, baths, mode, policy):
    """The error of a grand-canonical point's first failing step, composed
    from public one-trap calls in the documented order, or None: its
    chemical potentials at the hot bath, then at the cold one (absent
    before inserted at each); its log ratio at each bath; its stage
    energies, A to D."""
    temperatures = (baths.hot, baths.cold)
    try:
        mus = [chemical_potentials(trap, count, temperature, mode, policy)
               for temperature in temperatures]
        for pair, temperature in zip(mus, temperatures):
            log_relative_partition(trap, pair, temperature, policy)
        for stage in Stage:
            internal_energy(stage, trap, mus[stage in (Stage.C, Stage.D)],
                            baths, policy)
    except SzilardError as exc:
        return exc
    return None


@settings(max_examples=60, deadline=None)
@given(data=st.data(), mode=st.sampled_from((MuMode.SOLVED,
                                             MuMode.CLOSED_FORM)),
       max_terms=st.sampled_from((60, 10)))
def test_grand_points_fail_in_the_documented_order(data, mode, max_terms):
    """The grand-canonical route reports for a failing point the error of
    its first failing root (absent then inserted, at the hot bath then the
    cold one), else of its first failing log ratio, else of its first
    failing stage energy, A to D.  Each point of one _run_cycles batch,
    under a cap of 60 or 10 terms, meets the error that the public
    one-trap calls composed in that order raise, or, where none raises,
    fails at most in the cycle's own first-law check.  Traps repeat at
    counts 1-50, baths come from a pool T, 2T and 4T, and harmonic and
    power-law traps (exponents 1.2-4, level scales 0.05-20 kT) make some
    roots, ratios and energies fail and others not."""
    base = data.draw(_kelvin)
    pool = (base, 2.0 * base, 4.0 * base)
    shared = [_batch_trap(kind, exponent, ratio, 0.0, K_B * base)
              for kind, exponent, ratio in data.draw(st.lists(st.tuples(
                  st.sampled_from(_KINDS[Ensemble.GRAND_BOSE]),
                  st.floats(1.2, 4.0), _scale), min_size=1, max_size=3))]
    jobs = data.draw(st.lists(st.tuples(
        st.sampled_from(shared), st.integers(1, 50), st.sampled_from(pool),
        st.sampled_from(pool)), min_size=2, max_size=8))
    traps = [trap for trap, *_ in jobs]
    counts = [count for _, count, _, _ in jobs]
    baths = [BathPair(hot, cold) for *_, hot, cold in jobs]
    policy = TruncationPolicy(max_terms=max_terms)
    outcomes = _run_cycles(traps, Ensemble.GRAND_BOSE, counts, baths, policy,
                           mode, False)
    failed = 0
    for trap, count, pair, outcome in zip(traps, counts, baths, outcomes):
        want = _first_grand_error(trap, count, pair, mode, policy)
        if want is None:
            assert not isinstance(outcome, SzilardError) or str(
                outcome).startswith("first-law closure"), outcome
        else:
            assert (type(outcome), str(outcome)) == (type(want), str(want))
            failed += 1
    event(f"{mode.name}, cap {max_terms}: {failed} of {len(jobs)} fail")


def test_long_and_short_ladders_share_batches():
    """Canonical and Morse runs split where the terms their sums take one
    by one reach 8192: a long ladder counts only its head, so here long and
    short traps share one batch (counting whole ladders split them 1, 3, 2
    and 1, 3, 3), and each trap keeps its own outcome, the errors of wells
    too shallow to hold or to split a level included."""
    baths = BathPair(2.0, 1.0)
    kt = K_B * baths.hot
    harmonic = [Harmonic(MASS, ratio * kt / HBAR)
                for ratio in (1e-3, 3.0, 0.5, 2e-3, 10.0, 0.01)]
    wells = [Morse.from_anharmonicity(MASS, ratio * kt / HBAR, anharmonicity)
             for ratio, anharmonicity in ((1e-3, 0.0), (2.0, 0.01), (1.0, 0.6),
                                          (1e-3, 1e-5), (1.0, 0.2), (0.5, 0.0),
                                          (5e-3, 0.0))]
    for traps, ensemble, count, sizes in (
            (harmonic, Ensemble.CANONICAL_N, 2, [6]),
            (wells, Ensemble.MORSE_SINGLE, 1, [7])):
        _, batches = _batches(traps, [count * _beta(baths.hot)] * len(traps),
                              TruncationPolicy())
        assert [len(batch) for batch in batches] == sizes
        singles = [_outcome(trap, ensemble, count, baths) for trap in traps]
        assert any(isinstance(s, SzilardError) for s in singles) == (
            ensemble is Ensemble.MORSE_SINGLE)
        _assert_same_outcomes(run_cycles(traps, ensemble, count, baths),
                              singles)


@pytest.mark.parametrize("hot, cold", [(2e-300, 1e-300), (1e-323, 5e-324)])
def test_baths_whose_beta_overflows_are_rejected(hot, cold):
    """Below about 4e-286 K, beta = 1/(k_B T) overflows; at a subnormal
    temperature k_B T itself is 0.  Either made a Morse cycle all nan, or
    a bare ZeroDivisionError."""
    with pytest.raises(EnsembleMismatchError, match="beta"):
        run_cycle(Morse(1e-25, 10 * HBAR * 1e12, omega=1e12),
                  Ensemble.MORSE_SINGLE, 1, BathPair(hot, cold))


def test_run_cycles_covers_every_route():
    """Every route gives each trap its own outcome, a trap of the wrong
    family included; run_cycles itself raises nothing."""
    baths = BathPair(0.1, 0.05)
    harmonic = [Harmonic(MASS, 1e10), Harmonic(MASS, 3e10)]
    well = [_nine_level_well()]
    # the 1e10 trap's ladder has 82 terms; its sums take a 16-term head and
    # a geometric tail, so this cap splits nothing
    capped = TruncationPolicy(max_terms=60)
    for traps, ensemble, count, policy, literal in (
            (harmonic, Ensemble.CANONICAL_N, 3, TruncationPolicy(), False),
            (harmonic, Ensemble.CANONICAL_N, 1, capped, False),
            (well, Ensemble.MORSE_SINGLE, 1, TruncationPolicy(), True),
            (harmonic + well, Ensemble.GRAND_BOSE, 3, TruncationPolicy(), False),
            (well + harmonic, Ensemble.MORSE_SINGLE, 1, capped, False),
            (harmonic, Ensemble.CANONICAL_N, 0, capped, False),
            (harmonic, "canonical", 3, capped, False)):
        batched = run_cycles(traps, ensemble, count, baths, policy,
                             literal_denominator=literal)
        _assert_same_outcomes(batched, [
            _outcome(t, ensemble, count, baths, policy,
                     literal_denominator=literal) for t in traps])
    assert isinstance(batched[0], EnsembleMismatchError)
    split = run_cycles(harmonic, Ensemble.CANONICAL_N, 1, baths, capped)
    assert [type(r) for r in split] == [CycleResult, CycleResult]
    # a cap below the 16-term head fails the 1e10 trap alone; the 1e11
    # trap's whole ladder fits under it
    short = TruncationPolicy(max_terms=12)
    pair = [Harmonic(MASS, 1e10), Harmonic(MASS, 1e11)]
    split = run_cycles(pair, Ensemble.CANONICAL_N, 1, baths, short)
    assert [type(r) for r in split] == [TruncationError, CycleResult]
    _assert_same_outcomes(split, [
        _outcome(t, Ensemble.CANONICAL_N, 1, baths, short) for t in pair])
    mixed = run_cycles(harmonic + well, Ensemble.GRAND_BOSE, 3, baths)
    assert [type(r) for r in mixed] == [CycleResult, CycleResult,
                                        EnsembleMismatchError]
    assert "harmonic or power-law" in str(mixed[2])
    unknown = run_cycles(harmonic, Ensemble.GRAND_BOSE, 3, baths,
                         mu_mode="solved")
    _assert_same_outcomes(unknown, [
        _outcome(t, Ensemble.GRAND_BOSE, 3, baths, mu_mode="solved")
        for t in harmonic])
    assert [type(r) for r in unknown] == [EnsembleMismatchError] * 2
    assert unknown[0] is not unknown[1]
    assert "unknown chemical-potential mode 'solved'" in str(unknown[0])


def _cycles(ratios, energies, baths, ensemble, literal, errors=None):
    """The _Cycles of stage columns, point k with log ratios ratios[k],
    stage energies energies[k] (U_A to U_D) and baths[k], and the error
    errors[k] or None of its route and stage sums."""
    errors = errors or [None] * len(ratios)
    held = _Errors(len(errors))
    for k, error in enumerate(errors):
        if error is not None:
            held.set(k, error)
    return cycle._Cycles(
        np.array([(pair.hot, pair.cold) for pair in baths], dtype=float),
        np.column_stack((np.reshape(ratios, (-1, 2)),
                         np.reshape(energies, (-1, 4)))), held, ensemble,
        literal)


def test_nan_first_law_closure_fails():
    """closure > tol is false for a nan closure: stage terms that are not
    finite must still fail the first-law check, not classify a cycle."""
    result = _cycles([(math.nan, 0.0)], [(0.0, 0.0, 0.0, 0.0)],
                     [BathPair(2.0, 1.0)], Ensemble.CANONICAL_N,
                     False).errors[0]
    assert isinstance(result, SolverFailureError)
    assert "first-law closure" in str(result)


def _reference_cycle(terms, ensemble, baths, literal_denominator):
    """The cycle algebra, first-law check and regime of one point's stage
    terms (l_hot, l_cold, (U_A, U_B, U_C, U_D)) in Python floats, as the
    one-point code formed them before cycles became columns: the
    CycleResult, or the error a failed check gives."""
    l_hot, l_cold, (u_a, u_b, u_c, u_d) = terms
    kt_h = K_B * baths.hot
    kt_c = K_B * baths.cold

    work = kt_h * l_hot - kt_c * l_cold
    q_insert = u_b - u_a + kt_h * l_hot
    q_cool = u_c - u_b
    q_remove = u_d - u_c - kt_c * l_cold
    q_reheat = u_a - u_d
    q_hot = q_insert + q_reheat
    q_cold = q_cool + q_remove

    closure = abs(work - (q_insert + q_cool + q_remove + q_reheat))
    scale = max(abs(work), abs(q_insert), abs(q_cool), abs(q_remove),
                abs(q_reheat), 1e-300)
    if not closure <= 1e-10 * scale:     # a nan closure fails too
        return SolverFailureError(
            f"first-law closure off by {closure / scale:.3g} relative")

    if literal_denominator:
        if ensemble is not Ensemble.MORSE_SINGLE:
            return EnsembleMismatchError("the literal denominator variant"
                                         " applies to the Morse cycle only")
        supplied = u_b - u_d + kt_h * math.exp(l_hot)
    else:
        supplied = u_b - u_d + kt_h * l_hot

    efficiency = work / supplied if supplied > 0.0 else None

    if abs(work) < cycle.IDLE_WORK:
        regime = Regime.IDLE
    elif work > 0.0 and q_hot > 0.0:
        regime = Regime.ENGINE
    else:
        regime = Regime.REFRIGERATOR

    return CycleResult(work=work, q_insert=q_insert, q_cool=q_cool,
                       q_remove=q_remove, q_reheat=q_reheat, q_hot=q_hot,
                       q_cold=q_cold, efficiency=efficiency, regime=regime)


def _same_bits(got, want):
    """Two floats with the same bits, or both nan."""
    return (math.isnan(got) and math.isnan(want)) or (
        struct.pack("<d", got) == struct.pack("<d", want))


_EDGE_FLOATS = st.sampled_from((
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    1.1125369292536007e-308, 1e300, -1e300, 1e-300, -1e-300))
# log ratios and stage energies: edges, any double, the near-zero values
# whose work is below IDLE_WORK, and physical ones (energies of k_B T at
# 0.01-1e4 K)
_LOG = st.one_of(_EDGE_FLOATS, st.floats(), st.floats(-1e-8, 1e-8),
                 st.floats(-3.0, 3.0), st.floats(709.0, 711.0))
_ENERGY = st.one_of(_EDGE_FLOATS, st.floats(), st.floats(-1e-30, 1e-30),
                    st.floats(-1e-19, 1e-19))
_BATH = st.one_of(st.floats(0.01, 1e4), st.sampled_from((1e-280, 1e300)))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(
    _LOG, _LOG, st.lists(_ENERGY, min_size=4, max_size=4),
    st.tuples(_BATH, _BATH), st.booleans(),
    st.sampled_from((False, False, False, True))), min_size=1, max_size=6),
    ensemble=st.sampled_from(Ensemble), literal=st.booleans())
# |W| exactly IDLE_WORK (k_B * 1 K * l_hot rounds onto 1e-30), and a heat
# supplied of exactly 0
@example(rows=[(7.243227582210634e-08, 0.0, [0.0] * 4, (1.0, 1.0), False,
                False), (0.0, 1.0, [0.0] * 4, (1.0, 1.0), False, False)],
         ensemble=Ensemble.CANONICAL_N, literal=False)
def test_cycle_columns_equal_the_scalar_algebra(rows, ensemble, literal):
    """The cycle columns (cycle._Cycles) of any stage terms give each point
    the fields of the scalar algebra (_reference_cycle), each float with
    its bits (nan for nan, and nan for an efficiency of None), its regime,
    or the type and message of its error, in its order: an error the
    point brings from its route or stage sums, then the first-law closure,
    then the literal denominator off the Morse route.  The terms run
    through nan, +-inf, +-0.0, subnormals and magnitudes of 1e+-300, heats
    supplied at or below zero and works below IDLE_WORK; the literal
    denominator's math.exp overflows past 709.78, where both raise
    OverflowError."""
    baths = [BathPair(hot, cold) for *_, (hot, cold), _, _ in rows]
    # a quarter of the physical energies scale with the hot bath
    terms = [(l_hot, l_cold, tuple(
        u * K_B * pair.hot if physical and abs(u) < 1e-18 else u
        for u in energies))
        for (l_hot, l_cold, energies, _, physical, _), pair in zip(rows,
                                                                    baths)]
    brought = [SolverFailureError("a stage sum failed") if failed else None
               for *_, failed in rows]
    try:
        want = [error or _reference_cycle(term, ensemble, pair, literal)
                for term, pair, error in zip(terms, baths, brought)]
    except OverflowError:
        with pytest.raises(OverflowError):
            _cycles([t[:2] for t in terms], [t[2] for t in terms], baths,
                    ensemble, literal, brought)
        event("literal exp overflows")
        return
    got = _cycles([t[:2] for t in terms], [t[2] for t in terms], baths,
                  ensemble, literal, brought)
    for k, expected in enumerate(want):
        error = got.errors[k]
        if isinstance(expected, SzilardError):
            assert (type(error), str(error)) == (type(expected),
                                                 str(expected))
            event(type(expected).__name__ + str(expected)[:16])
            continue
        assert error is None
        for name in ("work", "q_insert", "q_cool", "q_remove", "q_reheat",
                     "q_hot", "q_cold"):
            assert _same_bits(float(getattr(got, name)[k]),
                              getattr(expected, name)), name
        eta = expected.efficiency
        assert _same_bits(float(got.efficiency[k]),
                          math.nan if eta is None else eta)
        assert cycle._REGIMES[got.regime[k]] is expected.regime
        event(f"{expected.regime.name}, efficiency"
              f" {'None' if eta is None else 'set'}")
