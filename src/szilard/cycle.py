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
still checked on every run.  Each batch of traps gets them, and on the
grand-canonical route its chemical potentials, from one stage-sum call.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .constants import K_B
from .errors import (EnsembleMismatchError, SolverFailureError, SzilardError,
                     value_or_raise)
from .potentials import Harmonic, Morse, PowerLaw
from .ensembles import (MuMode, TruncationPolicy, _batches, _beta,
                        _count_error, _cycle_sums, _grand_sums)
# chemical_potentials stays bound here for wrappers that patch it per module
from .ensembles import chemical_potentials  # noqa: F401

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
    return _count_error(count)


def _stage_terms(potentials, ensemble, counts, baths, mu_mode, policy):
    """Per potential, trap i with counts[i] particles between baths[i]: the
    per-bath log ratios, the four stage energies and, for the
    grand-canonical route, the (hot, cold) chemical potentials; or the
    SzilardError that stops that potential.

    Every route runs batch by batch (see ensembles._batches), a lone trap
    as a batch of one, from the ground levels the batching looked up, and
    its batches mix counts and baths.  A trap is its object, and each
    batch holds all the points of its traps.  The canonical and Morse
    routes share the canonical stage sums, which size and sum each
    distinct (trap, count, bath) of a batch once, in both barrier
    configurations, on one ladder per trap; a Morse well is their
    single-particle case on a bounded ladder.
    The grand-canonical stage sums produce a batch's chemical potentials
    themselves, in every MuMode, and sum its log ratios and stage energies
    on the same rungs, each sized and built once for every count.
    """
    out = [_route_error(trap, ensemble, count)
           for trap, count in zip(potentials, counts)]
    live = [i for i, error in enumerate(out) if error is None]
    grand = ensemble is Ensemble.GRAND_BOSE
    # the decay rate of each trap's stage A: N beta, or beta for the grand
    # sums, whose mu approaches E_1
    for at, grounds in _batches(
            [potentials[i] for i in live],
            [(1 if grand else counts[i]) * _beta(baths[i].hot) for i in live],
            policy, 2 if grand else 1):
        own = [live[j] for j in at]
        args = ([potentials[i] for i in own], grounds,
                [counts[i] for i in own], [baths[i] for i in own])
        for i, sums in zip(own, _grand_sums(*args, mu_mode, policy)
                           if grand else _cycle_sums(*args, policy)):
            out[i] = sums if grand or isinstance(sums, SzilardError) else (
                *sums, None)
    return out


def run_cycles(potentials, ensemble, count, baths, policy=TruncationPolicy(),
               mu_mode=MuMode.SOLVED, literal_denominator=False):
    """run_cycle over many potentials, as one batch where the route allows.

    Returns, for each potential, the CycleResult run_cycle returns for it
    alone, field for field, or the SzilardError run_cycle raises for it
    alone; it raises none itself.  Every route evaluates its traps together,
    in batches of a bounded number of ladder terms (see ensembles._batches):
    the grand-canonical route through ensembles._grand_sums, the canonical
    and Morse routes through ensembles._cycle_sums, one multi-trap call per
    batch that sums each distinct stage once.  The case of _run_cycles with
    one count and baths for every trap.
    """
    return _run_cycles(potentials, ensemble, [count] * len(potentials),
                       [baths] * len(potentials), policy, mu_mode,
                       literal_denominator)


def _run_cycles(potentials, ensemble, counts, baths, policy, mu_mode,
                literal_denominator):
    """run_cycles of traps each with its own count and baths: on the
    canonical and Morse routes they share batches all the same."""
    return [terms if isinstance(terms, SzilardError)
            else _cycle_result(terms, ensemble, pair, literal_denominator)
            for terms, pair in zip(_stage_terms(potentials, ensemble, counts,
                                                baths, mu_mode, policy),
                                   baths)]


def run_cycle(potential, ensemble, count, baths, policy=TruncationPolicy(),
              mu_mode=MuMode.SOLVED, literal_denominator=False):
    """Run one quasi-static cycle and classify the outcome.

    mu_mode picks how grand-canonical chemical potentials are produced and is
    ignored by the other routes.  literal_denominator switches the
    single-particle Morse efficiency to the no-logarithm variant of its
    heat-supplied denominator; the logarithmic form stays the default.  It
    is the one-potential case of run_cycles, and raises its error.
    """
    return value_or_raise(run_cycles((potential,), ensemble, count, baths,
                                     policy, mu_mode, literal_denominator)[0])


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
    if not closure <= 1e-10 * scale:     # a nan closure fails too
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
