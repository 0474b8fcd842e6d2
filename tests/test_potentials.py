"""Spectrum construction for the three trap families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from szilard import (Barrier, HBAR, Harmonic, InvalidPotentialError, Morse,
                     NoBoundStatesError, PowerLaw, Spectrum,
                     SpectrumRangeError, SzilardError, level_energy,
                     morse_bound_count, omega_prefactor)

MASS = 19.11e-11

# 60-digit independent evaluation of the WKB prefactor at nu = 1.6,
# m = 19.11e-11 kg, omega = 1e10 rad/s
OMEGA_NU16 = 6.5145352720722164e-21


def test_harmonic_prefactor():
    trap = Harmonic(mass=MASS, omega=3.7e10)
    assert omega_prefactor(trap) == HBAR * 3.7e10


def test_quadratic_power_law_prefactor_is_hbar_omega():
    for omega in (1e9, 1e10, 5e13):
        trap = PowerLaw(mass=MASS, omega=omega, exponent=2.0)
        assert omega_prefactor(trap) == pytest.approx(HBAR * omega, rel=1e-12)


def test_quadratic_power_law_levels_match_harmonic():
    trap = PowerLaw(mass=MASS, omega=1e10, exponent=2.0)
    n = np.array([1, 7, 100, 1000])
    expected = (n + 0.5) * HBAR * 1e10
    assert level_energy(trap, n) == pytest.approx(expected, rel=1e-12)


def test_prefactor_anchor_nu_16():
    trap = PowerLaw(mass=MASS, omega=1e10, exponent=1.6)
    assert omega_prefactor(trap) == pytest.approx(OMEGA_NU16, rel=1e-12)


@pytest.mark.parametrize("nu", [1.6, 2.6])
def test_prefactor_log_slope(nu):
    """Scale goes as omega^(2-p): the coupling brings omega^2, the WKB
    bracket omega^(-p)."""
    h = 1e-6
    omega = 1e10
    up = omega_prefactor(PowerLaw(MASS, omega * math.exp(h), nu))
    down = omega_prefactor(PowerLaw(MASS, omega * math.exp(-h), nu))
    slope = (math.log(up) - math.log(down)) / (2.0 * h)
    assert slope == pytest.approx(4.0 / (nu + 2.0), abs=1e-8)


@pytest.mark.parametrize("nu", [1e-6, 1e-9, 1e-12, 1e-15, 1e-20, 1e-100,
                                1 / 12])
def test_log_gamma_ratio_matches_60_digits(nu):
    """log Gamma(1/nu + 3/2) - log Gamma(1 + 1/nu), from 1/nu = 12 on an
    asymptotic series, to 2e-16 relative down to nu = 1e-100: the
    difference of two gammaln values was 3.7e-8 off at nu = 1e-9 and read
    exactly 0 below about 1.1e-16.  The reference carries 60 digits past
    the log10(1/nu) its own difference cancels."""
    mpmath = pytest.importorskip("mpmath")
    from szilard.potentials import _log_gamma_ratio
    with mpmath.workdps(60 + round(-math.log10(nu))):
        x = 1 / mpmath.mpf(nu)
        want = mpmath.loggamma(x + 1.5) - mpmath.loggamma(x + 1)
        assert abs(_log_gamma_ratio(nu) - want) <= 2e-16 * want


def test_level_power_values():
    assert PowerLaw(MASS, 1e10, 2.0).level_power == pytest.approx(1.0, rel=1e-15)
    assert PowerLaw(MASS, 1e10, 1.6).level_power == pytest.approx(8.0 / 9.0)


@pytest.mark.parametrize("nu", [1.6, 2.0, 2.2, 2.6])
def test_from_energy_scale_round_trip(nu):
    scale = 3.7e-22
    trap = PowerLaw.from_energy_scale(MASS, scale, nu)
    assert omega_prefactor(trap) == pytest.approx(scale, rel=1e-12)
    again = PowerLaw.from_energy_scale(MASS, omega_prefactor(trap), nu)
    assert again.omega == pytest.approx(trap.omega, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_parameter_validation():
    with pytest.raises(InvalidPotentialError):
        Harmonic(mass=0.0, omega=1e10)
    with pytest.raises(InvalidPotentialError):
        Harmonic(mass=MASS, omega=-1.0)
    with pytest.raises(InvalidPotentialError):
        PowerLaw(mass=MASS, omega=1e10, exponent=0.0)
    with pytest.raises(InvalidPotentialError):
        PowerLaw.from_energy_scale(MASS, -1e-22, 2.0)
    with pytest.raises(InvalidPotentialError):
        Morse(mass=MASS, depth=-1.0, omega=1e10)
    for bad in (math.inf, -math.inf, math.nan):
        for build in (lambda: Harmonic(mass=bad, omega=1e10),
                      lambda: Harmonic(mass=MASS, omega=bad),
                      lambda: PowerLaw(mass=bad, omega=1e10, exponent=2.0),
                      lambda: PowerLaw(mass=MASS, omega=bad, exponent=2.0),
                      lambda: PowerLaw(mass=MASS, omega=1e10, exponent=bad),
                      lambda: PowerLaw.from_energy_scale(bad, 1e-22, 2.0),
                      lambda: PowerLaw.from_energy_scale(MASS, bad, 2.0),
                      lambda: PowerLaw.from_energy_scale(MASS, 1e-22, bad),
                      lambda: Morse(mass=bad, depth=1e-20, omega=1e10),
                      lambda: Morse(mass=MASS, depth=1e-20, omega=bad),
                      lambda: Morse(mass=MASS, depth=math.inf, omega=bad),
                      lambda: Morse(mass=MASS, depth=1e-20, steepness=bad)):
            with pytest.raises(InvalidPotentialError):
                build()
    # finite inputs whose level prefactor leaves floating-point range
    for build in (lambda: PowerLaw(mass=MASS, omega=1e-160, exponent=1.6),
                  lambda: PowerLaw(mass=MASS, omega=1e200, exponent=1.6),
                  lambda: PowerLaw.from_energy_scale(MASS, 1e-300, 1.6),
                  # hbar*omega underflows to 0
                  lambda: Harmonic(mass=MASS, omega=1e-300),
                  # the frequency overflows (a bare OverflowError once)
                  lambda: PowerLaw.from_energy_scale(MASS, 1e280, 2.0),
                  lambda: PowerLaw.from_energy_scale(MASS, 1e280, 1.6),
                  # p = 2 nu/(nu + 2) rounds to 2 (a numpy warning once)
                  lambda: PowerLaw.from_energy_scale(MASS, 1e-22, 1e300)):
        with pytest.raises(InvalidPotentialError):
            build()
    # 1/nu overflows the gamma ratio of the WKB prefactor (a numpy warning
    # and a nan energy scale once)
    for build in (lambda: PowerLaw(mass=MASS, omega=1e10, exponent=1e-307),
                  lambda: PowerLaw.from_energy_scale(MASS, 1e-22, 1e-307),
                  lambda: PowerLaw(mass=MASS, omega=1e10, exponent=5e-324)):
        with pytest.raises(InvalidPotentialError,
                           match="power-law exponent .* is too small"):
            build()


def test_morse_needs_exactly_one_frequency_parameter():
    with pytest.raises(InvalidPotentialError):
        Morse(mass=MASS, depth=1e-20)
    with pytest.raises(InvalidPotentialError):
        Morse(mass=MASS, depth=1e-20, omega=1e10, steepness=1e9)


def test_morse_omega_steepness_consistency():
    """Either frequency parameter must produce the same well."""
    well = Morse(mass=MASS, depth=1e-20, omega=1e10)
    again = Morse(mass=MASS, depth=1e-20, steepness=well.steepness)
    assert again.omega == pytest.approx(well.omega, rel=1e-14)
    n = np.arange(1, 20)
    assert level_energy(again, n) == pytest.approx(level_energy(well, n),
                                                  rel=1e-14)


def test_morse_mass_never_enters_energies():
    # mass only matters when the well is specified through its steepness
    a = Morse(mass=MASS, depth=1e-20, omega=1e10)
    b = Morse(mass=1e3 * MASS, depth=1e-20, omega=1e10)
    n = np.arange(1, 30)
    assert np.array_equal(level_energy(a, n), level_energy(b, n))


def test_morse_bound_count():
    # 2*depth/quantum = 10.7 -> floor(9.7) = 9 levels
    q = HBAR * 1e10
    well = Morse(mass=MASS, depth=5.35 * q, omega=1e10)
    assert morse_bound_count(well) == 9 == well.bound_count
    # exactly 2 quanta deep: a single level survives
    assert morse_bound_count(Morse(mass=MASS, depth=q, omega=1e10)) == 1
    # a well too shallow for a level is built; the count raises where used
    shallow = Morse(mass=MASS, depth=0.75 * q, omega=1e10)
    assert shallow.bound_count == 0
    with pytest.raises(NoBoundStatesError):
        morse_bound_count(shallow)
    assert morse_bound_count(Morse(mass=MASS, depth=math.inf, omega=1e10)) is None
    # a finite depth whose count leaves floating-point range
    with pytest.raises(InvalidPotentialError):
        Morse.from_anharmonicity(MASS, 1.3e11, 5e-324)
    with pytest.raises(InvalidPotentialError):
        morse_bound_count(Harmonic(mass=MASS, omega=1e10))


def test_morse_harmonic_limit():
    q = HBAR * 1e10
    deep = Morse(mass=MASS, depth=1e8 * q, omega=1e10)
    n = np.arange(1, 101)
    harmonic = (n + 0.5) * q
    assert level_energy(deep, n) == pytest.approx(harmonic, rel=1e-6)
    # infinite depth is the exact harmonic ladder
    exact = Morse(mass=MASS, depth=math.inf, omega=1e10)
    assert exact.anharmonicity == 0.0
    assert np.array_equal(level_energy(exact, n), harmonic)


def test_from_anharmonicity():
    well = Morse.from_anharmonicity(MASS, 1e10, 0.05)
    assert well.anharmonicity == pytest.approx(0.05, rel=1e-14)
    assert well.quantum == pytest.approx(HBAR * 1e10, rel=1e-15)
    assert Morse.from_anharmonicity(MASS, 1e10, 0.0).depth == math.inf
    with pytest.raises(InvalidPotentialError):
        Morse.from_anharmonicity(MASS, 1e10, -0.1)


@pytest.mark.parametrize("trap", [
    Harmonic(mass=MASS, omega=1e10),
    PowerLaw(mass=MASS, omega=1e10, exponent=1.6),
    PowerLaw(mass=MASS, omega=1e10, exponent=2.6),
    Morse(mass=MASS, depth=8.7 * 1.602176634e-19, omega=1e10),
])
def test_absent_spectrum_strictly_increasing(trap):
    cap = None
    if isinstance(trap, Morse):
        cap = morse_bound_count(trap)
    n = np.arange(1, min(cap or 50, 50) + 1)
    e = level_energy(trap, n)
    assert np.all(np.diff(e) > 0.0)
    assert np.all(e > 0.0)


def test_inserted_level_is_absent_level_doubled():
    for trap in (Harmonic(mass=MASS, omega=1e10),
                 PowerLaw(mass=MASS, omega=1e10, exponent=1.6)):
        n = np.arange(1, 40)
        inserted = level_energy(trap, n, Barrier.INSERTED)
        assert np.array_equal(inserted, level_energy(trap, 2 * n))


def test_harmonic_levels_scale_linearly_with_omega():
    n = np.arange(1, 50)
    one = level_energy(Harmonic(MASS, 1e10), n)
    two = level_energy(Harmonic(MASS, 2e10), n)
    assert two == pytest.approx(2.0 * one, rel=1e-15)


def test_index_range_errors():
    trap = Harmonic(mass=MASS, omega=1e10)
    with pytest.raises(SpectrumRangeError):
        level_energy(trap, 0)
    with pytest.raises(SpectrumRangeError):
        level_energy(trap, np.array([3, -1]))
    q = HBAR * 1e10
    well = Morse(mass=MASS, depth=5.35 * q, omega=1e10)   # 9 bound levels
    with pytest.raises(SpectrumRangeError):
        level_energy(well, 10)
    with pytest.raises(SpectrumRangeError):
        level_energy(well, 5, Barrier.INSERTED)   # index 10 post-barrier
    assert level_energy(well, 4, Barrier.INSERTED) == level_energy(well, 8)


def test_spectrum_views():
    trap = Harmonic(mass=MASS, omega=1e10)
    absent = Spectrum(trap)
    inserted = Spectrum(trap, Barrier.INSERTED)
    assert absent.degeneracy == 1 and inserted.degeneracy == 2
    assert absent.cutoff is None
    assert absent.ground_energy() == level_energy(trap, 1)
    assert inserted.ground_energy() == level_energy(trap, 2)
    levels = list(inserted.levels(3))
    assert levels[0] == (1, level_energy(trap, 2), 2)
    assert levels[2][0] == 3
    with pytest.raises(SpectrumRangeError):
        list(absent.levels())   # unbounded, count required


def test_spectrum_morse_caps():
    q = HBAR * 1e10
    well = Morse(mass=MASS, depth=5.35 * q, omega=1e10)
    absent = Spectrum(well)
    inserted = Spectrum(well, Barrier.INSERTED)
    assert absent.cutoff == 9
    assert inserted.cutoff == 4
    assert len(absent.energies(100)) == 9       # silently clipped to the cap
    assert len(list(inserted.levels())) == 4
    # a single bound level cannot be split by the barrier
    with pytest.raises(SpectrumRangeError):
        Spectrum(Morse(mass=MASS, depth=q, omega=1e10), Barrier.INSERTED)


def _outcome(call):
    """call()'s value, or the error it raises."""
    try:
        return call()
    except SzilardError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(("harmonic", "power-law", "morse")),
       omega=st.floats(1e8, 1e14), exponent=st.floats(0.1, 10.0),
       anharmonicity=st.one_of(st.just(0.0), st.floats(1e-7, 0.7)),
       n=st.one_of(st.integers(-3, 40), st.integers(1, 10**7)),
       barrier=st.sampled_from(Barrier))
def test_int_index_takes_the_array_formula(kind, omega, exponent,
                                           anharmonicity, n, barrier):
    """An int index runs the array path's formula and checks in Python
    floats: the same level bit for bit, or the same error and message.

    Morse anharmonicities up to 0.7 include wells too shallow to hold or to
    split a level.  A power-law level takes numpy's power for an int and a
    0-d index too, as test_power_law_level_has_its_ladder_bits checks.
    """
    trap = {"harmonic": lambda: Harmonic(MASS, omega),
            "power-law": lambda: PowerLaw(MASS, omega, exponent),
            "morse": lambda: Morse.from_anharmonicity(MASS, omega,
                                                      anharmonicity)}[kind]()
    got = _outcome(lambda: level_energy(trap, n, barrier))
    zero_d = _outcome(lambda: level_energy(trap, np.int64(n), barrier))
    one = _outcome(lambda: level_energy(trap, np.array([n]), barrier)[0])
    if isinstance(one, Exception):
        for other in (got, zero_d):
            assert type(other) is type(one) and str(other) == str(one)
        return
    assert type(got) is float and got == zero_d == one


@settings(max_examples=300, deadline=None)
@given(nu=st.floats(0.2, 10.0), scale=st.floats(1e-28, 1e-18),
       n=st.one_of(st.integers(1, 40), st.integers(1, 10**7)),
       barrier=st.sampled_from(Barrier))
def test_power_law_level_has_its_ladder_bits(nu, scale, n, barrier):
    """A power-law level n, E_1 included, has the bits of its place in a
    ladder, whichever place that is: the C library's pow and numpy's
    vectorised power can round a fractional power differently (by up to 2
    ulp on x86-64 with AVX-512, for about 5% of traps and barriers), and
    the grand route subtracts a trap's E_1 from its ladder and takes the
    head's first term as the ground level's occupation."""
    trap = PowerLaw.from_energy_scale(MASS, scale, nu)
    got = level_energy(trap, n, barrier)
    start = max(1, n - 5)
    ladder = level_energy(trap, np.arange(start, n + 4), barrier)
    assert type(got) is float
    assert got == level_energy(trap, np.array([n]), barrier)[0]
    assert got == ladder[n - start]
