"""Even-parity level shifts under a central delta barrier."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from szilard import (BarrierStrength, PoleError, SolverFailureError,
                     even_levels, gamma_ratio, odd_level)
from szilard.barrier import _within

# 60-digit independent roots of Gamma(3/4 - e/2)/Gamma(1/4 - e/2) = -L/2
FROZEN_ROOTS = {
    (1.0, 0): 0.89274404530895262,
    (10.0, 0): 1.39200570433735497,
    (100.0, 0): 1.48875636783634185,
    (1e4, 0): 1.49988716599136798,
    (1.0, 1): 2.75464153327936661,
    (1.0, 2): 4.70019582597553059,
    (1.0, 3): 6.66990905189794170,
}

# Gamma(1/4)/Gamma(-1/4) to the same precision
GAMMA_QUARTER_RATIO = -0.73966877979715972


def test_gamma_ratio_anchor():
    assert gamma_ratio(1.0) == pytest.approx(GAMMA_QUARTER_RATIO, rel=1e-13)


def test_gamma_ratio_denominator_poles_give_zero():
    for eps in (0.5, 2.5, 4.5, 10.5):
        assert gamma_ratio(eps) == 0.0


def test_gamma_ratio_numerator_poles_raise():
    for eps in (1.5, 3.5, 7.5):
        with pytest.raises(PoleError):
            gamma_ratio(eps)


def test_gamma_ratio_sign_inside_first_branch():
    # between the poles the ratio runs 0 -> -inf, so it is negative throughout
    for eps in (0.6, 1.0, 1.4):
        assert gamma_ratio(eps) < 0.0


def test_limits_are_exact():
    for sol in even_levels(0.0, 5):
        assert sol.energy == 0.5 + 2.0 * sol.branch
        assert sol.residual == 0.0
    for sol in even_levels(math.inf, 5):
        assert sol.energy == 1.5 + 2.0 * sol.branch


def test_frozen_roots():
    for (lam, k), expected in FROZEN_ROOTS.items():
        sol = even_levels(lam, k)[k]
        assert sol.branch == k
        assert sol.energy == pytest.approx(expected, abs=1e-10)


def test_monotone_in_strength():
    """Each branch climbs from 1/2 + 2k toward 3/2 + 2k as L grows."""
    strengths = (0.0, 1.0, 10.0, 100.0, 1e4, math.inf)
    for k in range(4):
        energies = [even_levels(lam, k)[k].energy for lam in strengths]
        assert all(a < b for a, b in zip(energies, energies[1:]))


def test_roots_confined_between_poles():
    for lam in (0.3, 1.0, 10.0, 100.0, 1e4):
        for sol in even_levels(lam, 6):
            assert 0.5 + 2.0 * sol.branch < sol.energy < 1.5 + 2.0 * sol.branch


def test_residuals_within_contract():
    for lam in (1.0, 10.0, 100.0, 1e4):
        for sol in even_levels(lam, 4):
            assert sol.residual <= 1e-8 * max(1.0, 0.5 * lam)


def test_odd_levels_untouched():
    assert odd_level(0) == 1.5
    assert odd_level(3) == 7.5


def test_branch_count():
    assert len(even_levels(1.0, 0)) == 1
    assert len(even_levels(1.0, 5)) == 6


def test_k_min_below_0_is_refused():
    """Branches start at 0; a negative lower bound is no branch at all."""
    for lam in (0.0, 1.0, math.inf):
        with pytest.raises(SolverFailureError, match="branches start at 0"):
            even_levels(lam, 3, k_min=-1)


def test_k_min_past_k_max_gives_no_branches():
    """Like a negative k_max, a lower bound past k_max leaves no branch."""
    assert even_levels(1.0, -1) == []
    for lam in (0.0, 1.0, math.inf):
        assert even_levels(lam, 2, k_min=3) == []
        assert even_levels(lam, 0, k_min=5) == []


@settings(max_examples=100, deadline=None)
@given(lam=st.one_of(st.sampled_from((0.0, math.inf)),
                     st.floats(1e-300, 1e12)),
       k_max=st.integers(0, 8), k_min=st.integers(0, 10))
def test_branches_from_k_min_are_the_tail_of_a_run_from_0(lam, k_max, k_min):
    """Each branch is bracketed by its own two poles, so a run from k_min
    solves the same branches bit for bit as a run from 0: energies and
    residuals equal as floats, not merely close."""
    assert (even_levels(lam, k_max, k_min=k_min)
            == even_levels(lam, k_max)[k_min:])


def test_strength_wrapper():
    wrapped = even_levels(BarrierStrength(1.0), 0)[0]
    bare = even_levels(1.0, 0)[0]
    assert wrapped.energy == bare.energy
    with pytest.raises(SolverFailureError):
        BarrierStrength(-1.0)
    with pytest.raises(SolverFailureError):
        BarrierStrength(math.nan)


def test_tight_tolerance_still_converges():
    sol = even_levels(1.0, 0, tol=1e-15)[0]
    assert sol.energy == pytest.approx(FROZEN_ROOTS[(1.0, 0)], abs=1e-12)


STRONG = (1e4, 1e5, 1e6, 1e7, 1e8, 1e9)


def _mp_root(mpmath, lam, k):
    """The branch-k root of Gamma(3/4 - e/2)/Gamma(1/4 - e/2) = -L/2 by
    bisection at 50 digits, in the reciprocal form Gamma(1/4 - e/2)/Gamma(3/4
    - e/2) + 2/L, which is finite at the numerator pole and falls through
    zero at the root."""
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(0.5 + 2 * k), mpmath.mpf(1.5 + 2 * k)
        for _ in range(180):
            mid = (lo + hi) / 2
            value = (mpmath.gamma(0.25 - mid / 2) * mpmath.rgamma(0.75 - mid / 2)
                     + 2 / mpmath.mpf(lam))
            if value < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


@pytest.mark.parametrize("lam", STRONG)
def test_strong_barriers_match_50_digits(lam):
    """From strength 1e5 up the residual |ratio + L/2| at the root grows
    like L^2 times the bisection interval next to the numerator pole, and
    a check on it refused every strong barrier.  The root test is now a
    bracket of 1e-10 in eps, and branches 0-4 solve to within 1e-10 of a
    50-digit root."""
    mpmath = pytest.importorskip("mpmath")
    for sol in even_levels(lam, 4):
        want = _mp_root(mpmath, lam, sol.branch)
        assert abs(sol.energy - float(want)) <= 1e-10
        assert sol.energy < odd_level(sol.branch)


@pytest.mark.parametrize("lam", (1e12, 1e13, 1e14, 1e15))
def test_barriers_inside_the_pole_guard_match_50_digits(lam):
    """From strength about 1e13 the upper bracket end of branches 1 and up
    lies within the 2e-13 guard of gamma_ratio at the numerator pole, where
    it raises, and from 1e15 the root lies within 4 ulps of the pole; the
    bisection then compares in log form, and the bracket may end at the
    pole.  Branches 0-4 solve to within 1e-10 of a 50-digit root, each with
    a finite residual."""
    mpmath = pytest.importorskip("mpmath")
    for sol in even_levels(lam, 4):
        want = _mp_root(mpmath, lam, sol.branch)
        assert abs(sol.energy - float(want)) <= 1e-10
        assert sol.energy < odd_level(sol.branch)
        assert math.isfinite(sol.residual)


@pytest.mark.parametrize("lam", (0.3, 1.0, 100.0) + STRONG)
def test_root_test_rejects_a_root_off_by_more_than_1e_10(lam):
    """The root test accepts each solved root and refuses it moved by
    2e-10 either way, the conditioning next to the pole included."""
    for sol in even_levels(lam, 4):
        assert _within(sol.energy, lam, sol.branch)
        for shift in (-2e-10, 2e-10):
            assert not _within(sol.energy + shift, lam, sol.branch)
