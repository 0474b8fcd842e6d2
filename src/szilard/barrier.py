"""Finite-strength barrier in a harmonic trap: even-parity level shifts.

A delta barrier of dimensionless strength L at the trap centre leaves
odd-parity levels untouched and shifts each even level up by an amount solving

    Gamma(3/4 - eps/2) / Gamma(1/4 - eps/2) = -L/2,

with eps the level energy in units of hbar*omega.  On each branch k the root
lies strictly between the unperturbed even level eps = 1/2 + 2k and the next
odd level eps = 3/2 + 2k, sliding from one to the other as L goes 0 -> inf.

This module exists to trace that migration; the engine cycle proper always
uses the fully-inserted limit.
"""

import math
from dataclasses import dataclass

from ._special import gammaln, gammasgn
from .errors import PoleError, SolverFailureError

__all__ = ["BarrierStrength", "EvenLevelSolution", "gamma_ratio",
           "even_levels", "odd_level"]

_POLE_TOL = 1e-13
_ROOT_TOL = 1e-10     # the contract on eps: a root is within this of the truth


@dataclass(frozen=True)
class BarrierStrength:
    """Dimensionless strength; math.inf is accepted symbolically."""

    value: float

    def __post_init__(self):
        if not (self.value >= 0.0):
            raise SolverFailureError("barrier strength must be >= 0")


@dataclass(frozen=True)
class EvenLevelSolution:
    branch: int       # k >= 0
    energy: float     # eps, units of hbar*omega
    residual: float   # |gamma_ratio(eps) + L/2| at the root


def gamma_ratio(eps):
    """Gamma(3/4 - eps/2) / Gamma(1/4 - eps/2), sign-tracked via log-gamma.

    Exactly 0.0 at denominator poles (eps = 1/2 + 2k).  Raises PoleError at
    numerator poles (eps = 3/2 + 2k), where the ratio diverges.
    """
    a = 0.75 - 0.5 * eps
    b = 0.25 - 0.5 * eps
    if a <= 0.0 and abs(a - round(a)) < _POLE_TOL:
        raise PoleError(f"gamma ratio diverges at eps = {eps}")
    if b <= 0.0 and abs(b - round(b)) < _POLE_TOL:
        return 0.0
    sign = gammasgn(a) * gammasgn(b)
    return sign * math.exp(gammaln(a) - gammaln(b))


def odd_level(branch):
    """Odd-parity level on branch k: exactly 3/2 + 2k, untouched by the barrier."""
    return 1.5 + 2.0 * branch


def _pole_slopes(branch):
    """Local expansion scales of |gamma_ratio| at the two branch endpoints.

    Near the left endpoint (denominator pole) the magnitude grows like
    left*delta; near the right endpoint (numerator pole) like right/delta.
    With |Gamma(1/2 - k)| = pi/Gamma(1/2 + k) by reflection,
    left = |Gamma(1/2 - k)|*k!/2 and right = 2*Gamma(3/2 + k)/(pi*k!).
    Used only to seed bisection brackets that enclose the root for any L.
    """
    k = branch
    log_fact = gammaln(k + 1.0)
    left = 0.5 * math.pi * math.exp(log_fact - gammaln(0.5 + k))
    right = (2.0 / math.pi) * math.exp(gammaln(1.5 + k) - log_fact)
    return left, right


def even_levels(strength, k_max, tol=1e-12, k_min=0):
    """Solve the shifted even levels for branches k = k_min..k_max.

    Bisection between consecutive poles; the ratio is monotone there, so the
    bracket is certain once its endpoints straddle the root.  Refined until
    the interval collapses below tol (well inside the 1e-10 contract).
    Strength 0 and inf short-circuit to the exact endpoints.  Each branch
    is bracketed by its own two poles, so a branch solved alone gives the
    same solution bit for bit as in a run from branch 0; k_min > k_max
    gives no branches, and a negative k_min is a SolverFailureError.
    """
    if not isinstance(strength, BarrierStrength):
        strength = BarrierStrength(float(strength))
    if k_min < 0:
        raise SolverFailureError(
            f"branches start at 0, not at k_min = {k_min}")
    lam = strength.value
    out = []
    for k in range(k_min, k_max + 1):
        lo_pole = 0.5 + 2.0 * k
        hi_pole = 1.5 + 2.0 * k
        if lam == 0.0:
            out.append(EvenLevelSolution(k, lo_pole, 0.0))
            continue
        if math.isinf(lam):
            out.append(EvenLevelSolution(k, hi_pole, 0.0))
            continue
        left, right = _pole_slopes(k)
        # Endpoint offsets sized so f = gamma_ratio + L/2 changes sign:
        # f(lo) ~ L/2 - left*d_lo > 0, f(hi) ~ L/2 - right/d_hi < 0; from
        # L ~ 1e15 the root lies within 4 ulps of the pole, and hi is the
        # pole itself, where f is -inf
        d_lo = min(1e-9, 0.25 * lam / left)
        d_hi = max(min(1e-9, right / lam), 4.0 * math.ulp(hi_pole))
        lo = lo_pole + d_lo
        hi = hi_pole - d_hi
        if _above(hi, lam):
            hi = hi_pole
        if not (_above(lo, lam) and not _above(hi, lam)):
            raise SolverFailureError(
                f"bracket failure on branch {k} at strength {lam:g}:"
                f" f({lo:.17g}) = {_residual(lo, lam):.3g} in size and"
                f" f({hi:.17g}) = {_residual(hi, lam):.3g} in size do not"
                " change sign")
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if _above(mid, lam):
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        res = _residual(root, lam)
        if not _within(root, lam, k):
            raise SolverFailureError(
                f"root {root:.17g} is not within {_ROOT_TOL:g} of the"
                f" solution on branch {k} at strength {lam:g}"
                f" (residual {res:.3g})")
        out.append(EvenLevelSolution(k, root, res))
    return out


def _above(eps, lam):
    """Whether f = gamma_ratio(eps) + L/2 > 0 on a branch: from the ratio
    itself, or, within the pole guard of gamma_ratio, where it raises, in
    the log form of _within, |ratio| < L/2 (the ratio is negative between
    the poles)."""
    try:
        return gamma_ratio(eps) + 0.5 * lam > 0.0
    except PoleError:
        return _log_ratio(eps) < math.log(0.5 * lam)


def _residual(eps, lam):
    """|gamma_ratio(eps) + L/2|: within the pole guard of gamma_ratio, as
    L/2 |e^{log|ratio| - log(L/2)} - 1|, inf at the pole."""
    try:
        return abs(gamma_ratio(eps) + 0.5 * lam)
    except PoleError:
        gap = _log_ratio(eps) - math.log(0.5 * lam)
        return 0.5 * lam * abs(math.expm1(gap)) if gap < 700.0 else math.inf


def _within(eps, lam, k):
    """Whether eps lies within _ROOT_TOL of the branch-k root.

    On the branch, log|gamma_ratio| rises from -inf at the pole 1/2 + 2k to
    +inf at 3/2 + 2k, so the root, where it equals log(L/2), lies within
    _ROOT_TOL of eps exactly when it is below log(L/2) at lo = eps -
    _ROOT_TOL and above it at hi = eps + _ROOT_TOL, each clipped at its
    pole, where gammaln is inf.  Only log-gamma differences 1e-10 from the
    root are compared, which is as well conditioned next to the numerator
    pole as anywhere; the residual |ratio + L/2| at the root itself grows
    there like L^2 times the bisection interval.
    """
    pole = 0.5 + 2.0 * k
    if not pole < eps < pole + 1.0:
        return False
    lo, hi = max(eps - _ROOT_TOL, pole), min(eps + _ROOT_TOL, pole + 1.0)
    return _log_ratio(lo) < math.log(0.5 * lam) < _log_ratio(hi)


def _log_ratio(eps):
    """log|gamma_ratio(eps)|: -inf at a denominator pole, inf at a
    numerator pole."""
    return gammaln(0.75 - 0.5 * eps) - gammaln(0.25 - 0.5 * eps)
