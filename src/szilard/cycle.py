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
from .errors import EnsembleMismatchError, SolverFailureError, SzilardError
from .potentials import Harmonic, Morse, PowerLaw
from .ensembles import (BathPair, Barrier, MuMode, TruncationPolicy,
                        canonical_stage_properties, chemical_potentials,
                        grand_stage_sums, ladder_batches,
                        solved_chemical_potentials)

__all__ = ["Ensemble", "Regime", "CycleResult", "run_cycle", "run_cycles",
           "carnot_bound"]

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


_TRAPS = {
    Ensemble.GRAND_BOSE: ((Harmonic, PowerLaw), "the grand-canonical Bose"
                          " cycle needs a harmonic or power-law trap"),
    Ensemble.CANONICAL_N: ((Harmonic, PowerLaw), "the canonical cycle needs"
                           " a harmonic or power-law trap"),
    Ensemble.MORSE_SINGLE: (Morse, "this route is for Morse wells"),
}


def _route_error(potential, ensemble, count):
    """The EnsembleMismatchError run_cycle raises for this trap before any
    sum, or None."""
    family, message = _TRAPS.get(ensemble,
                                 ((), f"unknown ensemble {ensemble!r}"))
    if not isinstance(potential, family):
        return EnsembleMismatchError(message)
    if ensemble is Ensemble.MORSE_SINGLE and count != 1:
        return EnsembleMismatchError("the Morse cycle is single-particle")
    if count < 1:
        return EnsembleMismatchError("particle count must be at least 1")
    return None


def _stage_terms(potentials, ensemble, count, baths, mu_mode, policy):
    """Per potential: the per-bath log ratios, the four stage energies and,
    for the grand-canonical route, the (hot, cold) chemical potentials; or
    the SzilardError that stops that potential.

    The canonical and Morse routes share the canonical stage sum; a Morse
    well is its single-particle case on a bounded ladder.  The
    grand-canonical route runs batch by batch: MuMode.SOLVED solves a batch's
    chemical potentials together (the other modes take them per trap), and
    its log ratios and stage energies are summed together.
    """
    out = [_route_error(trap, ensemble, count) for trap in potentials]
    live = [i for i, error in enumerate(out) if error is None]
    traps = [potentials[i] for i in live]
    if ensemble is not Ensemble.GRAND_BOSE:
        terms = [_canonical_terms(potential, count, baths, policy)
                 for potential in traps]
    else:
        terms = []
        for batch in ladder_batches(traps, baths.hot, policy):
            pairs = (solved_chemical_potentials(batch, count, baths, policy)
                     if mu_mode is MuMode.SOLVED else
                     [_mu_pair(potential, count, baths, mu_mode, policy)
                      for potential in batch])
            terms += [sums if isinstance(sums, SzilardError) else (*sums, pair)
                      for pair, sums in zip(pairs, grand_stage_sums(
                          batch, pairs, baths, policy))]
    for i, value in zip(live, terms):
        out[i] = value
    return out


def _canonical_terms(potential, count, baths, policy):
    """The canonical stage terms of one potential, stages A to D, or the
    error of its first failing stage."""
    try:
        (log_a, u_a), (log_b, u_b), (log_c, u_c), (log_d, u_d) = (
            canonical_stage_properties(potential, barrier, count, temperature,
                                       policy)
            for barrier, temperature in (
                (Barrier.ABSENT, baths.hot), (Barrier.INSERTED, baths.hot),
                (Barrier.INSERTED, baths.cold), (Barrier.ABSENT, baths.cold)))
    except SzilardError as exc:
        # an error kept as a value drops its traceback: the frames in it
        # reach the lists that hold the error, a cycle only gc would free
        return exc.with_traceback(None)
    return log_b - log_a, log_c - log_d, (u_a, u_b, u_c, u_d), None


def _mu_pair(potential, count, baths, mu_mode, policy):
    """(hot, cold) chemical potentials of one trap, or the error."""
    try:
        return (chemical_potentials(potential, count, baths.hot, mu_mode, policy),
                chemical_potentials(potential, count, baths.cold, mu_mode, policy))
    except SzilardError as exc:
        return exc.with_traceback(None)


def run_cycles(potentials, ensemble, count, baths, policy=TruncationPolicy(),
               mu_mode=MuMode.SOLVED, literal_denominator=False):
    """run_cycle over many potentials, as one batch where the route allows.

    Returns, for each potential, the CycleResult run_cycle returns for it
    alone, field for field, or the SzilardError run_cycle raises for it
    alone; it raises none itself.  The grand-canonical route evaluates its
    traps together (see ensembles.grand_stage_sums); the canonical and Morse
    routes go one potential at a time.
    """
    return [terms if isinstance(terms, SzilardError)
            else _cycle_result(terms, ensemble, baths, literal_denominator)
            for terms in _stage_terms(potentials, ensemble, count, baths,
                                      mu_mode, policy)]


def run_cycle(potential, ensemble, count, baths, policy=TruncationPolicy(),
              mu_mode=MuMode.SOLVED, literal_denominator=False):
    """Run one quasi-static cycle and classify the outcome.

    mu_mode picks how grand-canonical chemical potentials are produced and is
    ignored by the other routes.  literal_denominator switches the
    single-particle Morse efficiency to the no-logarithm variant of its
    heat-supplied denominator; the logarithmic form stays the default.  It
    is the one-potential case of run_cycles, and raises its error.
    """
    result, = run_cycles((potential,), ensemble, count, baths, policy,
                         mu_mode, literal_denominator)
    if isinstance(result, SzilardError):
        raise result
    return result


def _cycle_result(terms, ensemble, baths, literal_denominator):
    """Cycle algebra, first-law check and regime of one set of stage terms;
    the CycleResult, or the error a failed check gives."""
    l_hot, l_cold, (u_a, u_b, u_c, u_d), mus = terms
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
        return SolverFailureError(
            f"first-law closure off by {closure / scale:.3g} relative")

    if literal_denominator:
        if ensemble is not Ensemble.MORSE_SINGLE:
            return EnsembleMismatchError(
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
