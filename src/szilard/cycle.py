"""Assemble stage quantities into the four-stroke Stirling-like cycle.

The strokes: isothermal barrier insertion at the hot bath (A to B), isochoric
cooling with the barrier in (B to C), isothermal removal at the cold bath
(C to D), isochoric reheating (D to A).  Every statistical route reduces to
the same bookkeeping once each bath's log stage-sum ratio
log(inserted/absent) and the four stage energies are known:

    W       = k_B T_hot * L_hot - k_B T_cold * L_cold
    Q_insert = U_B - U_A + k_B T_hot * L_hot
    Q_cool   = U_C - U_B
    Q_remove = U_D - U_C - k_B T_cold * L_cold
    Q_reheat = U_A - U_D

so the first law W = sum of heats holds identically up to roundoff, and is
still checked on every run.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .constants import K_B
from .errors import EnsembleMismatchError, SolverFailureError
from .potentials import Harmonic, Morse, PowerLaw
from .ensembles import (BathPair, Barrier, MuMode, Stage, TruncationPolicy,
                        canonical_stage_properties, chemical_potentials,
                        internal_energy, log_relative_partition)

__all__ = ["Ensemble", "Regime", "CycleResult", "run_cycle", "carnot_bound"]

IDLE_WORK = 1e-30   # J; below double-precision noise at these energy scales


class Ensemble(Enum):
    CANONICAL_N = "canonical"
    GRAND_BOSE = "grand-bose"
    MORSE_SINGLE = "morse"


class Regime(Enum):
    ENGINE = "engine"
    REFRIGERATOR = "refrigerator"
    IDLE = "idle"


@dataclass(frozen=True)
class CycleResult:
    """One full cycle.  Heats are named by their stroke; efficiency is None
    whenever the heat supplied is not positive (nothing to divide by).  The
    grand-canonical route also returns the chemical potentials it solved."""

    work: float          # J
    q_insert: float      # J, isothermal insertion at the hot bath
    q_cool: float        # J, isochoric cooling
    q_remove: float      # J, isothermal removal at the cold bath
    q_reheat: float      # J, isochoric reheating
    q_hot: float         # J, q_insert + q_reheat
    q_cold: float        # J, q_cool + q_remove
    efficiency: float    # dimensionless or None
    regime: Regime
    mus: tuple = None    # (hot, cold) ChemicalPotentials; grand-canonical only


def carnot_bound(baths):
    """Ceiling 1 - T_cold/T_hot for any engine between the two baths."""
    return 1.0 - baths.cold / baths.hot


def _stage_terms(potential, ensemble, count, baths, mu_mode, policy):
    """Per-bath log ratios, the four stage energies and, for the
    grand-canonical route, the (hot, cold) chemical potentials.

    The canonical and Morse routes share the canonical stage sum; a Morse
    well is its single-particle case on a bounded ladder.
    """
    if ensemble is Ensemble.GRAND_BOSE:
        if not isinstance(potential, (Harmonic, PowerLaw)):
            raise EnsembleMismatchError(
                "the grand-canonical Bose cycle needs a harmonic or power-law trap")
        mus_hot = chemical_potentials(potential, count, baths.hot, mu_mode, policy)
        mus_cold = chemical_potentials(potential, count, baths.cold, mu_mode, policy)
        l_hot = log_relative_partition(potential, mus_hot, baths.hot, policy)
        l_cold = log_relative_partition(potential, mus_cold, baths.cold, policy)
        energies = (internal_energy(Stage.A, potential, mus_hot, baths, policy),
                    internal_energy(Stage.B, potential, mus_hot, baths, policy),
                    internal_energy(Stage.C, potential, mus_cold, baths, policy),
                    internal_energy(Stage.D, potential, mus_cold, baths, policy))
        return l_hot, l_cold, energies, (mus_hot, mus_cold)
    if ensemble is Ensemble.CANONICAL_N:
        if not isinstance(potential, (Harmonic, PowerLaw)):
            raise EnsembleMismatchError(
                "the canonical cycle needs a harmonic or power-law trap")
        if count < 1:
            raise EnsembleMismatchError("particle count must be at least 1")
    elif ensemble is Ensemble.MORSE_SINGLE:
        if not isinstance(potential, Morse):
            raise EnsembleMismatchError("this route is for Morse wells")
        if count != 1:
            raise EnsembleMismatchError("the Morse cycle is single-particle")
    else:
        raise EnsembleMismatchError(f"unknown ensemble {ensemble!r}")
    log_a, u_a = canonical_stage_properties(
        potential, Barrier.ABSENT, count, baths.hot, policy)
    log_b, u_b = canonical_stage_properties(
        potential, Barrier.INSERTED, count, baths.hot, policy)
    log_c, u_c = canonical_stage_properties(
        potential, Barrier.INSERTED, count, baths.cold, policy)
    log_d, u_d = canonical_stage_properties(
        potential, Barrier.ABSENT, count, baths.cold, policy)
    return log_b - log_a, log_c - log_d, (u_a, u_b, u_c, u_d), None


def run_cycle(potential, ensemble, count, baths, policy=TruncationPolicy(),
              mu_mode=MuMode.SOLVED, literal_denominator=False):
    """Run one quasi-static cycle and classify the outcome.

    mu_mode picks how grand-canonical chemical potentials are produced and is
    ignored by the other routes.  literal_denominator switches the
    single-particle Morse efficiency to the no-logarithm variant of its
    heat-supplied denominator; the logarithmic form stays the default.
    """
    l_hot, l_cold, (u_a, u_b, u_c, u_d), mus = _stage_terms(
        potential, ensemble, count, baths, mu_mode, policy)
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
    if closure > 1e-10 * scale:
        raise SolverFailureError(
            f"first-law closure off by {closure / scale:.3g} relative")

    if literal_denominator:
        if ensemble is not Ensemble.MORSE_SINGLE:
            raise EnsembleMismatchError(
                "the literal denominator variant applies to the Morse cycle only")
        supplied = u_b - u_d + kt_h * math.exp(l_hot)
    else:
        supplied = u_b - u_d + kt_h * l_hot

    efficiency = work / supplied if supplied > 0.0 else None

    if abs(work) < IDLE_WORK:
        regime = Regime.IDLE
    elif work > 0.0 and q_hot > 0.0:
        regime = Regime.ENGINE
    else:
        regime = Regime.REFRIGERATOR

    return CycleResult(work=work, q_insert=q_insert, q_cool=q_cool,
                       q_remove=q_remove, q_reheat=q_reheat, q_hot=q_hot,
                       q_cold=q_cold, efficiency=efficiency, regime=regime,
                       mus=mus)
