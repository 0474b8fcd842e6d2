"""Partition-function machinery for the four cycle stages.

Three statistical treatments share this module:

* canonical N-particle sums over harmonic / power-law ladders, evaluated
  exactly as sums of per-level N-th powers with the 2^N degeneracy factor in
  the barrier-inserted stages;
* grand-canonical bosons with a chemical potential per barrier configuration,
  each bound to the temperature of the bath it serves;
* the single-particle Morse cycle, which is canonical and needs no chemical
  potential: its stage sums are the canonical ones at count 1, capped at the
  bound-state ladder.

Stage labels follow the cycle diagram: A = barrier absent at the hot bath,
B = inserted at the hot bath, C = inserted at the cold bath, D = absent at
the cold bath.

All infinite sums are truncated adaptively: a cutoff index is estimated from
the exponential decay of the terms, the tail is verified against the policy's
rel_tol, and exceeding max_terms while terms still matter raises
TruncationError rather than silently capping.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import brentq

from .constants import K_B
from .errors import (ConvergenceViolationError, EnsembleMismatchError,
                     SolverFailureError, TruncationError)
from .potentials import (Barrier, Harmonic, Morse, PowerLaw, Spectrum,
                         level_energy, omega_prefactor)

__all__ = [
    "BathPair", "TruncationPolicy", "MuMode", "ChemicalPotentials", "Stage",
    "canonical_stage_properties", "chemical_potential", "chemical_potentials",
    "occupancy_total", "log_relative_partition", "internal_energy",
]

# exp(-x) beyond this is negligible against rel_tol with wide margin
_XCUT_MARGIN = 35.0
_EXP_CLIP = 700.0


@dataclass(frozen=True)
class BathPair:
    """Hot and cold reservoir temperatures in kelvin.

    hot > cold is the engine orientation; the reverse is legal and simply
    classifies as a refrigerator downstream.  Equal temperatures are legal
    too and must produce exactly zero work.
    """

    hot: float
    cold: float

    def __post_init__(self):
        if not (0.0 < self.hot < math.inf and 0.0 < self.cold < math.inf):
            raise EnsembleMismatchError(
                "bath temperatures must be positive and finite")


@dataclass(frozen=True)
class TruncationPolicy:
    rel_tol: float = 1e-12
    max_terms: int = 1_000_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise TruncationError("rel_tol must lie in (0, 1)")
        if self.max_terms < 10:
            raise TruncationError("max_terms must be at least 10")


class MuMode(Enum):
    """How the chemical potential is produced.

    CLOSED_FORM: the low-temperature closed form
        mu = E_1 - k_B T log(1 + d_1/N), d_1 the ground degeneracy.
    SOLVED: numeric root of the occupancy constraint sum g_n/(e^{beta(E-mu)}-1) = N.
    """

    CLOSED_FORM = "closed-form"
    SOLVED = "solved"


@dataclass(frozen=True)
class ChemicalPotentials:
    """Both barrier configurations at one bath temperature."""

    pre_insertion: float    # J, barrier absent
    post_insertion: float   # J, barrier inserted
    temperature: float      # K
    count: int
    mode: MuMode


class Stage(Enum):
    A = "absent-hot"
    B = "inserted-hot"
    C = "inserted-cold"
    D = "absent-cold"


def _stage_config(stage, baths):
    return {
        Stage.A: (Barrier.ABSENT, baths.hot),
        Stage.B: (Barrier.INSERTED, baths.hot),
        Stage.C: (Barrier.INSERTED, baths.cold),
        Stage.D: (Barrier.ABSENT, baths.cold),
    }[stage]


# ---------------------------------------------------------------------------
# truncated series evaluation

def _first_index_beyond(potential, barrier, beta, mu, x_cut):
    """Estimate the first index whose exp(-beta(E_n - mu)) factor is dead.

    Inverts E(n) = x_cut/beta + max(mu, 0) for n.  For a bounded Morse ladder
    the estimate is capped at the spectrum cutoff, which turns the sum into a
    complete finite one.
    """
    target = x_cut / beta + max(mu, 0.0)
    step = 2.0 if barrier is Barrier.INSERTED else 1.0
    if isinstance(potential, Morse):
        cap = Spectrum(potential, barrier).cutoff
        chi = potential.anharmonicity
        q = potential.quantum
        if chi == 0.0:
            s = target / q
        else:
            disc = 1.0 - 4.0 * chi * target / q
            if disc <= 0.0:
                return cap        # target above the well top: take every level
            s = (1.0 - math.sqrt(disc)) / (2.0 * chi)
        n = int(math.ceil((s - 0.5) / step)) + 2
        return min(cap, max(8, n)) if cap is not None else max(8, n)
    scale = omega_prefactor(potential)
    power = potential.level_power if isinstance(potential, PowerLaw) else 1.0
    s = (target / scale) ** (1.0 / power)
    return max(8, int(math.ceil((s - 0.5) / step)) + 2)


def _converged_sum(term_fn, n_first, policy, cap=None):
    """Sum term_fn(indices 1..n) with tail verification against the policy.

    term_fn must be vectorized and its terms must decay once the analytic
    cutoff estimate n_first is passed; the estimate is grown a few times if
    the tail check disagrees.  A complete bounded sum (n == cap) needs no
    tail check.
    """
    n_terms = max(8, int(n_first))
    if cap is not None:
        n_terms = min(n_terms, cap)
    for _ in range(4):
        if n_terms > policy.max_terms:
            raise TruncationError(
                f"series needs {n_terms} terms, policy caps at {policy.max_terms}")
        t = term_fn(np.arange(1, n_terms + 1))
        total = float(np.sum(t))
        if cap is not None and n_terms >= cap:
            return total
        tail = abs(float(t[-1]))
        if tail <= policy.rel_tol * max(float(np.sum(np.abs(t))), 1e-300):
            return total
        n_terms = n_terms * 2 if cap is None else min(n_terms * 2, cap)
    raise TruncationError("series failed to converge within the retry budget")


def _x_cut(policy):
    return -math.log(policy.rel_tol) + _XCUT_MARGIN


# ---------------------------------------------------------------------------
# canonical N-particle sums (harmonic / power-law ladders, Morse at N = 1)

def _require_power_family(potential, who):
    if not isinstance(potential, (Harmonic, PowerLaw)):
        raise EnsembleMismatchError(f"{who} needs a harmonic or power-law trap")


def canonical_stage_properties(potential, barrier, count, temperature,
                               policy=TruncationPolicy()):
    """Log of the N-particle stage sum and its internal energy.

    The stage sum is sum_n (g e^{-beta E_n})^N = g^N sum_n e^{-N beta E_n};
    the energy is its -dlog/dbeta, an N-weighted Boltzmann average.  Ground
    energy is factored out so underflow never empties the sum, and at T -> 0
    the average collapses onto the lowest included level.  A bounded Morse
    ladder is summed completely up to its last bound level.
    """
    beta = 1.0 / (K_B * temperature)
    g = 2.0 if barrier is Barrier.INSERTED else 1.0
    e1 = level_energy(potential, 1, barrier)
    cap = Spectrum(potential, barrier).cutoff
    n_first = _first_index_beyond(potential, barrier, count * beta, e1,
                                  _x_cut(policy))
    state = {}

    def weights(idx):
        e = level_energy(potential, idx, barrier)
        w = np.exp(-count * beta * (e - e1))
        state["avg"] = float(np.sum(e * w)) / float(np.sum(w))
        return w

    total = _converged_sum(weights, n_first, policy, cap=cap)
    log_sum = count * math.log(g) - count * beta * e1 + math.log(total)
    return log_sum, count * state["avg"]


# ---------------------------------------------------------------------------
# grand-canonical bosons

def occupancy_total(potential, barrier, mu, temperature, policy=TruncationPolicy()):
    """Mean boson number sum_n g/(e^{beta(E_n - mu)} - 1) at fixed mu."""
    _require_power_family(potential, "grand-canonical occupancy")
    beta = 1.0 / (K_B * temperature)
    g = 2.0 if barrier is Barrier.INSERTED else 1.0
    n_first = _first_index_beyond(potential, barrier, beta, mu, _x_cut(policy))

    def terms(idx):
        x = beta * (level_energy(potential, idx, barrier) - mu)
        x = np.minimum(np.maximum(x, 1e-300), _EXP_CLIP)
        return g / np.expm1(x)

    return _converged_sum(terms, n_first, policy)


def chemical_potential(potential, count, temperature, barrier, mode,
                       policy=TruncationPolicy()):
    """Chemical potential for `count` bosons in one barrier configuration.

    CLOSED_FORM uses mu = E_1 - k_B T log(1 + d_1/count) with d_1 = 1 before
    insertion and 2 after.  SOLVED brackets the occupancy constraint below
    E_1 and refines with brentq; the absolute tolerance is scaled to the
    energy magnitudes at hand because the default would be wider than the
    whole bracket at these scales.  The recovered occupancy is verified to
    |dN/N| < 1e-10 and the result is always strictly below E_1.
    """
    _require_power_family(potential, "the chemical potential")
    if count < 1:
        raise EnsembleMismatchError("particle count must be at least 1")
    e1 = level_energy(potential, 1, barrier)
    d1 = 2.0 if barrier is Barrier.INSERTED else 1.0
    kt = K_B * temperature
    if mode is MuMode.CLOSED_FORM:
        mu = e1 - kt * math.log1p(d1 / count)
    elif mode is MuMode.SOLVED:
        def excess(m):
            return occupancy_total(potential, barrier, m, temperature, policy) - count

        hi = e1 - kt * math.log1p(d1 / (count * 1e9))
        offset = kt
        lo = e1 - offset
        for _ in range(200):
            if excess(lo) <= 0.0:
                break
            offset *= 2.0
            lo = e1 - offset
        else:
            raise SolverFailureError("no lower bracket for the occupancy root")
        mu = brentq(excess, lo, hi,
                    xtol=2.3e-16 * max(abs(e1), kt), rtol=8.9e-16, maxiter=300)
        recovered = excess(mu) + count
        if abs(recovered - count) > 1e-10 * count:
            raise SolverFailureError(
                f"occupancy root off by {abs(recovered - count) / count:.3g} relative")
    else:
        raise EnsembleMismatchError(f"unknown chemical-potential mode {mode!r}")
    if not mu < e1:
        raise ConvergenceViolationError(
            f"chemical potential {mu:.6g} J reaches the ground level {e1:.6g} J")
    return mu


def chemical_potentials(potential, count, temperature, mode,
                        policy=TruncationPolicy()):
    """Solve both barrier configurations at one bath temperature."""
    pre = chemical_potential(potential, count, temperature, Barrier.ABSENT,
                             mode, policy)
    post = chemical_potential(potential, count, temperature, Barrier.INSERTED,
                              mode, policy)
    return ChemicalPotentials(pre_insertion=pre, post_insertion=post,
                              temperature=temperature, count=count, mode=mode)


def _check_mu(potential, mu_pair):
    if mu_pair.pre_insertion >= level_energy(potential, 1, Barrier.ABSENT):
        raise ConvergenceViolationError("pre-insertion mu reaches the ground level")
    if mu_pair.post_insertion >= level_energy(potential, 1, Barrier.INSERTED):
        raise ConvergenceViolationError("post-insertion mu reaches the ground level")


def log_relative_partition(potential, mu_pair, temperature,
                           policy=TruncationPolicy()):
    """Log of the stage-B/stage-A (or C/D) grand-partition ratio at one bath.

    Product over levels of
        (1 - e^{-beta(E_n - mu_pre)}) / (1 - e^{-beta(E_{2n} - mu_post)})^2,
    evaluated as a sum of log1p terms.  The inserted-spectrum factor carries
    the square of its double degeneracy, keeping the ratio consistent with
    the factor-2 occupancy sums used for the internal energies.

    Morse potentials take the canonical mu-free route: pass mu_pair = None.
    """
    if isinstance(potential, Morse):
        if mu_pair is not None:
            raise EnsembleMismatchError(
                "the Morse cycle is canonical; no chemical potentials apply")
        log_post, _ = canonical_stage_properties(
            potential, Barrier.INSERTED, 1, temperature, policy)
        log_pre, _ = canonical_stage_properties(
            potential, Barrier.ABSENT, 1, temperature, policy)
        return log_post - log_pre
    if mu_pair is None:
        raise EnsembleMismatchError("bosonic ratio needs chemical potentials")
    _check_mu(potential, mu_pair)
    if mu_pair.temperature != temperature:
        raise EnsembleMismatchError(
            "chemical potentials were solved at a different temperature")
    beta = 1.0 / (K_B * temperature)
    x_cut = _x_cut(policy)
    n_first = max(
        _first_index_beyond(potential, Barrier.ABSENT, beta,
                            mu_pair.pre_insertion, x_cut),
        _first_index_beyond(potential, Barrier.INSERTED, beta,
                            mu_pair.post_insertion, x_cut))

    def terms(idx):
        x_pre = beta * (level_energy(potential, idx, Barrier.ABSENT)
                        - mu_pair.pre_insertion)
        x_post = beta * (level_energy(potential, idx, Barrier.INSERTED)
                         - mu_pair.post_insertion)
        x_pre = np.minimum(x_pre, _EXP_CLIP)
        x_post = np.minimum(x_post, _EXP_CLIP)
        return np.log1p(-np.exp(-x_pre)) - 2.0 * np.log1p(-np.exp(-x_post))

    return _converged_sum(terms, n_first, policy)


def internal_energy(stage, potential, mu_pair, baths, policy=TruncationPolicy()):
    """Internal energy of one cycle stage in J.

    Bosonic stages evaluate the occupancy-weighted sum
        sum_n g (E_n - mu) / (e^{beta(E_n - mu)} - 1)
    with the barrier configuration, bath temperature, and chemical potential
    the stage dictates.  Morse stages are plain Boltzmann averages.
    """
    barrier, temperature = _stage_config(stage, baths)
    if isinstance(potential, Morse):
        if mu_pair is not None:
            raise EnsembleMismatchError(
                "the Morse cycle is canonical; no chemical potentials apply")
        return canonical_stage_properties(potential, barrier, 1, temperature,
                                          policy)[1]
    if mu_pair is None:
        raise EnsembleMismatchError("bosonic stages need chemical potentials")
    _check_mu(potential, mu_pair)
    if mu_pair.temperature != temperature:
        raise EnsembleMismatchError(
            "chemical potentials were solved at a different temperature")
    mu = (mu_pair.post_insertion if barrier is Barrier.INSERTED
          else mu_pair.pre_insertion)
    beta = 1.0 / (K_B * temperature)
    g = 2.0 if barrier is Barrier.INSERTED else 1.0
    n_first = _first_index_beyond(potential, barrier, beta, mu, _x_cut(policy))

    def terms(idx):
        e = level_energy(potential, idx, barrier)
        x = beta * (e - mu)
        x = np.minimum(np.maximum(x, 1e-300), _EXP_CLIP)
        return g * (e - mu) / np.expm1(x)

    return _converged_sum(terms, n_first, policy)
