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
The cycles of a run are columns (_Cycles), this algebra, its check and
the regime array expressions over them; a CycleResult is built only
where run_cycle and run_cycles return one.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import K_B
from .errors import EnsembleMismatchError, SolverFailureError, value_or_raise
from .potentials import Harmonic, Morse, PowerLaw
from .ensembles import (ChemicalPotentials, MuMode, TruncationPolicy, _Errors,
                        _batches, _betas, _count_error, _cycle_sums,
                        _grand_sums)
# perfbench/test_perfbench.py::test_tracer_restores_every_binding reads it
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


_REGIMES = tuple(Regime)


def carnot_bound(baths):
    """Ceiling 1 - T_cold/T_hot for any engine between the two baths."""
    return 1.0 - baths.cold / baths.hot


def _route_errors(potentials, ensemble, counts):
    """An _Errors of the EnsembleMismatchError run_cycle raises before any
    sum for trap potentials[i] with counts[i] particles, each distinct
    trap and count that passes checked once."""
    family, message = {
        Ensemble.GRAND_BOSE: ((Harmonic, PowerLaw), "the grand-canonical"
                              " Bose cycle needs a harmonic or power-law"
                              " trap"),
        Ensemble.CANONICAL_N: ((Harmonic, PowerLaw), "the canonical cycle"
                               " needs a harmonic or power-law trap"),
        Ensemble.MORSE_SINGLE: (Morse, "this route is for Morse wells"),
    }.get(ensemble, ((), f"unknown ensemble {ensemble!r}"))

    def error(trap, count):
        if not isinstance(trap, family):
            return EnsembleMismatchError(message)
        if ensemble is Ensemble.MORSE_SINGLE and count != 1:
            return EnsembleMismatchError("the Morse cycle is single-particle")
        return _count_error(count)

    errors, failing = _Errors(len(potentials)), {}
    for k, (trap, count) in enumerate(zip(potentials, counts)):
        key = id(trap), count
        if failing.get(key, True):  # each failing point, its own error
            found = failing[key] = error(trap, count)
            if found is not None:
                errors.set(k, found)
    return errors


def _run_cycles(potentials, ensemble, counts, baths, policy, mu_mode,
                literal_denominator):
    """The _Cycles of trap potentials[i] with counts[i] particles between
    baths[i]: every point's terms one row of an array, nan where it fails,
    with one _Errors, its _route_errors entry first; summed batch by batch
    (see ensembles._batches), a lone trap as a batch of one, by
    ensembles._cycle_sums on the canonical and Morse routes (a Morse well
    is their single-particle case) and _grand_sums on the grand-canonical
    one, which solves the chemical potentials itself, in every MuMode."""
    errors = _route_errors(potentials, ensemble, counts)
    grand = ensemble is Ensemble.GRAND_BOSE
    temperatures = np.array([(pair.hot, pair.cold) for pair in baths],
                            dtype=float).reshape(-1, 2)
    terms = np.full((len(potentials), 10 if grand else 6), math.nan)
    live = errors.live.nonzero()[0]
    # the decay rates: of each trap's stage A, N beta, or for the grand
    # sums, whose mu approaches E_1, beta at both baths
    with np.errstate(over="ignore"):
        rates = _betas(temperatures[live]) if grand else _betas(
            temperatures[live, 0]) * np.array([counts[i] for i in
                                               live.tolist()], dtype=float)
    table, batches = _batches([potentials[i] for i in live.tolist()], rates,
                              policy, 2 if grand else 1)
    for at in batches:
        own = live[at]
        args = (table, [table.rows[j] for j in at],
                [counts[i] for i in own.tolist()], temperatures[own])
        terms[own], failed = (_grand_sums(*args, mu_mode, policy) if grand
                              else _cycle_sums(*args, policy))
        for j in (~failed.live).nonzero()[0].tolist():
            errors.set(int(own[j]), failed[j])
    return _Cycles(temperatures, terms, errors, ensemble, literal_denominator)


class _Cycles:
    """Cycles as columns, entry k point k's, from its baths' temperatures
    (an (n, 2) array, hot then cold, kept), terms (of ensembles._cycle_sums
    or _grand_sums) and errors: work, the stroke heats, q_hot, q_cold (J);
    efficiency, nan where CycleResult's is None; regime, an index into
    _REGIMES; mu, the grand-canonical terms' chemical potentials, else
    None; and errors, where a point keeps the first of its own error, a
    first-law closure off by more than 1e-10 relative (nan too) and a
    literal denominator off the Morse route.  Each is an array expression
    with the bits of the same expression in Python floats, the literal
    denominator's exp math's, element by element."""

    __slots__ = ("temperatures", "work", "q_insert", "q_cool", "q_remove",
                 "q_reheat", "q_hot", "q_cold", "efficiency", "regime", "mu",
                 "errors")

    def __init__(self, temperatures, terms, errors, ensemble,
                 literal_denominator):
        self.temperatures = temperatures
        kt_h, kt_c = (K_B * temperatures).T
        l_hot, l_cold, u_a, u_b, u_c, u_d = terms[:, :6].T
        with np.errstate(all="ignore"):     # as for Python floats
            self.work = work = kt_h * l_hot - kt_c * l_cold
            heats = (u_b - u_a + kt_h * l_hot, u_c - u_b,
                     u_d - u_c - kt_c * l_cold, u_a - u_d)
            self.q_insert, self.q_cool, self.q_remove, self.q_reheat = heats
            self.q_hot, self.q_cold = heats[0] + heats[3], heats[1] + heats[2]
            closure = np.abs(work - (heats[0] + heats[1] + heats[2]
                                     + heats[3]))
            scale = np.max(np.abs([work, *heats]), axis=0, initial=1e-300)
            for k in (errors.live & ~(closure <= 1e-10 * scale)).nonzero()[
                    0].tolist():
                errors.set(k, SolverFailureError(
                    f"first-law closure off by"
                    f" {float(closure[k] / scale[k]):.3g} relative"))
            supplied = kt_h * l_hot
            live = errors.live.nonzero()[0]
            if literal_denominator and ensemble is not Ensemble.MORSE_SINGLE:
                for k in live.tolist():
                    errors.set(k, EnsembleMismatchError(
                        "the literal denominator variant applies to the"
                        " Morse cycle only"))
            elif literal_denominator:
                supplied[live] = kt_h[live] * list(map(math.exp,
                                                       l_hot[live].tolist()))
            supplied = u_b - u_d + supplied
            self.efficiency = np.divide(work, supplied,
                                        out=np.full(len(work), math.nan),
                                        where=supplied > 0.0)
            # codes of _REGIMES: engine 0, refrigerator 1, idle 2
            self.regime = np.where(np.abs(work) < IDLE_WORK, 2, np.where(
                (work > 0.0) & (self.q_hot > 0.0), 0, 1))
        self.mu = terms[:, 6:] if terms.shape[1] > 6 else None
        self.errors = errors


def _outcomes(cycles, counts, mu_mode):
    """Per point of _Cycles, point i with counts[i] particles, its
    SzilardError or its CycleResult, the ChemicalPotentials of whose mus
    are built here."""
    c = cycles
    return [error or CycleResult(
        *values, efficiency=None if math.isnan(eta) else eta,
        regime=_REGIMES[regime], mus=mu and (
            ChemicalPotentials(*mu[:2], hot, count, mu_mode),
            ChemicalPotentials(*mu[2:], cold, count, mu_mode)))
        for error, *values, eta, regime, mu, (hot, cold), count in zip(
            c.errors, *(column.tolist() for column in (
                c.work, c.q_insert, c.q_cool, c.q_remove, c.q_reheat, c.q_hot,
                c.q_cold, c.efficiency, c.regime)),
            [None] * len(counts) if c.mu is None else c.mu.tolist(),
            c.temperatures.tolist(), counts)]


def run_cycles(potentials, ensemble, count, baths, policy=TruncationPolicy(),
               mu_mode=MuMode.SOLVED, literal_denominator=False):
    """run_cycle over many potentials, as one batch where the route allows.

    Returns, for each potential, the CycleResult run_cycle returns for it
    alone, field for field, or the SzilardError run_cycle raises for it
    alone; it raises none itself.  The traps are summed together (see
    _run_cycles), and the cycles are columns until each result is built.
    """
    counts = [count] * len(potentials)
    return _outcomes(_run_cycles(potentials, ensemble, counts,
                                 [baths] * len(potentials), policy, mu_mode,
                                 literal_denominator), counts, mu_mode)


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
