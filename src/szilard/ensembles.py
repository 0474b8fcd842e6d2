"""Partition-function machinery for the four cycle stages.

Three statistical treatments share this module:

* canonical N-particle sums over harmonic / power-law ladders, evaluated
  exactly as sums of per-level N-th powers with the 2^N degeneracy factor in
  the barrier-inserted stages;
* grand-canonical bosons with a chemical potential per barrier configuration,
  each bound to the temperature of the bath it serves; _bath_ratios solves a
  batch's roots in every MuMode and sums its log ratios, at any temperatures;
* the single-particle Morse cycle, which is canonical and needs no chemical
  potential: its stage sums are the canonical ones at count 1, capped at the
  bound-state ladder.

Every route sums many traps at once, as one numpy pass per step over all
their ladders, and a lone trap is a batch of one on the same path.
_batches splits a run of traps into consecutive batches of a bounded number
of estimated terms, at the canonical decay rate N beta of the hot bath
(beta for the grand route) and at most a Morse well's bound count, counting
the head of a sum that a tail completes rather than its whole ladder (a
grand trap's once per bath), and looks up each trap's two ground levels
once for every sum of its batch (one _Shapes.ladders pass over all its
traps).  A trap is its object; a sweep builds each distinct trap
once.  _batches puts the points of each trap side by side and closes a
batch only between two traps, so a batch builds each grand rung once for
all its counts, and sums each distinct canonical (trap, count, bath) once
for every point that reads it.
Each step of a batch is one array pass over all its traps: the sizes of its
sums (_heads, which sizes every sum of every route where it is summed; the
batching's estimate only bounds a batch), the levels its sums lack (one
_Shapes.ladders pass, see _level_ladders), the
canonical sums and energy sums of each barrier configuration (_series_sums)
or the grand rungs' heads and moments (_grand_rungs), and the tails (see
_tail_sums), each laid out flat by the one _Segments of both routes.  Only
exactly rounded operations run on arrays, and a level's fractional power,
in one np.power call per distinct power as level_energy takes it, and the
Newton roots' logs and exps (_mu_offsets), each numpy's of its element
alone; a log, exp or fractional power that sets a length or a logged total
runs in math, element by element, so every value keeps the bits of its
one-trap evaluation.

Stage labels follow the cycle diagram: A = barrier absent at the hot bath,
B = inserted at the hot bath, C = inserted at the cold bath, D = absent at
the cold bath.

Every ladder of the three routes is sized by one rule, _heads (in
_tail_sums, beside the tails whose remainders it bounds): each sum's
length is fixed from its ground level E_1 before any term is formed, and
the sum is taken once at that length, with no tail test.  A sum over a
ladder longer than its head sums the head, at least 16 terms, and adds the
rest of the ladder as a closed-form Euler-Maclaurin tail: geometric,
Dawson (Morse) or incomplete gamma (any other power law).  On the
canonical and Morse routes _series_sums is that Boltzmann stage sum.  No
grand-canonical sum runs whole either: each rung, the ladder of a (trap,
barrier, bath), is a head summed term by term and a tail that is a short
k-series in e^{-beta (E_1 - mu)} over moments that do not depend on mu,
the same tails at k beta, formed once per rung.  Every Newton round,
occupancy re-check, log ratio and stage energy then sums heads and
k-series only (see _tail_sums for every kind of tail).  A length past
max_terms is a TruncationError, never a silent cut.  A trap's sums share
one barrier-free ladder, extended when a sum outgrows it; an inserted sum
takes every other level of it (see _level_ladders).
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._tail_sums import (_XCUT_MARGIN, _Heads, _Rungs, _Segments, _heads,
                         _tails)
from .constants import K_B
from .errors import (ConvergenceViolationError, EnsembleMismatchError,
                     SolverFailureError, SzilardError, TruncationError,
                     value_or_raise)
from .potentials import (Barrier, Harmonic, Morse, PowerLaw, _Shapes,
                         level_energy)

__all__ = [
    "BathPair", "TruncationPolicy", "MuMode", "ChemicalPotentials", "Stage",
    "canonical_stage_properties", "chemical_potential", "chemical_potentials",
    "occupancy_total", "log_relative_partition", "internal_energy",
]


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
        for temperature in (self.hot, self.cold):
            _beta(temperature)      # raises where 1/(k_B T) overflows


@dataclass(frozen=True)
class TruncationPolicy:
    """How far each level sum runs.

    Every sum is sized before it is formed, from its ground level: it runs
    to the first level whose factor e^{-beta (E_n - E_1)} is below rel_tol
    e^{-35}, or to a Morse well's last bound level.  That factor bounds the
    last term of every kind of sum against its first, within a factor the
    e^{-35} margin covers (see ensembles._series_sums).  A canonical or
    Morse sum over a ladder longer than its head sums the head exactly and
    the rest as a closed-form tail, whose remainder
    bound on the Boltzmann sum is below rel_tol e^{-35} of it; the energy
    sum shares that head.  A grand-canonical sum is a head and a k-series
    over the tail moments of its ladder, each series run until its terms
    fall below e^{-35} rel_tol of its first (see szilard._tail_sums).
    max_terms caps every length, the head where a tail adds the rest, and
    every k-series: a sum that needs more terms is a TruncationError, never
    a silent cut.
    """

    rel_tol: float = 1e-12
    max_terms: int = 1_000_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise TruncationError("rel_tol must lie in (0, 1)")
        if not self.max_terms >= 10:    # nan too
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


# each stage's barrier and bath
_STAGES = {Stage.A: (Barrier.ABSENT, "hot"), Stage.B: (Barrier.INSERTED, "hot"),
           Stage.C: (Barrier.INSERTED, "cold"),
           Stage.D: (Barrier.ABSENT, "cold")}


def _degeneracy(barrier):
    """Level degeneracy: every inserted level is doubly degenerate."""
    return 2.0 if barrier is Barrier.INSERTED else 1.0


def _stride(barrier):
    """Inserted level n is barrier-free level 2n."""
    return 2 if barrier is Barrier.INSERTED else 1


# ---------------------------------------------------------------------------
# truncated series evaluation
#
# _series_sums evaluates many segments, each one (trap, barrier, beta)
# Boltzmann sum, with their ladders laid end to end in one flat array by
# _tail_sums._Segments, the layout the grand route's heads, moments and
# k-series share: each elementwise step is one numpy pass over all of them,
# while per-segment logic (lengths, errors) stays in Python.  A batched
# value equals the one-segment value bit for bit, and a failing segment
# yields its SzilardError in place of a value.


def _beta(temperature):
    """1/(k_B T); a temperature for which it is not positive and finite
    (T <= 0, T = inf, or T so low that it overflows) raises."""
    kt = K_B * temperature
    beta = 1.0 / kt if kt else math.inf
    if not 0.0 < beta < math.inf:
        raise EnsembleMismatchError(
            f"temperature {temperature:.6g} K gives beta = 1/(k_B T) ="
            f" {beta:.6g}, not finite and positive")
    return beta


def _ground_levels(potentials):
    """E_1 of both barrier configurations of each trap, by barrier: each the
    level or the SzilardError its lookup raises.  Every trap's
    barrier-free levels 1 and 2 (the inserted E_1) are one _Shapes.ladders
    pass, with the bits of their level_energy lookups; a Morse well it
    refuses takes level_energy, which raises its error."""
    n = len(potentials)
    e, _, refused = _Shapes.of(potentials).ladders(np.ones(n, dtype=int),
                                                   np.full(n, 2))
    grounds = [dict(zip(Barrier, pair)) for pair in e.reshape(-1, 2).tolist()]
    for i in refused.nonzero()[0].tolist():
        for barrier in Barrier:
            try:
                grounds[i][barrier] = level_energy(potentials[i], 1, barrier)
            except SzilardError as exc:
                grounds[i][barrier] = exc.with_traceback(None)
    return grounds


# A batch of traps is closed once its estimated ladder terms reach this;
# it bounds the size of the flat arrays, which would otherwise grow with
# the whole run.
_BATCH_TERMS = 8192


def _batches(potentials, betas, policy, baths=1):
    """Split traps into consecutive batches for the batched stage sums.

    A trap is its object: the indices of each trap object are grouped, in
    order of first appearance, and share its ladder, its rungs and its
    batch.  Returns (at, grounds) per batch, at the indices into potentials
    of its points.  grounds[j] holds trap at[j]'s ground levels by barrier
    (each E_1 or the error of its lookup), looked up once per trap for
    every sum of the batch.  A batch closes, only between two traps, once
    it counts _BATCH_TERMS: the head length of each point's barrier-free
    sum at its decay rate betas[i] (N beta of the hot bath for a canonical
    stage A, beta for a grand rung, whose mu approaches E_1), `baths` times
    (2 for a grand cycle, whose per-root arrays hold a head of each barrier
    at each bath), from one _heads pass over the distinct (trap, beta) rows;
    a failed estimate counts 0.  Each sum is sized again where it is summed.
    """
    rows = [(id(trap), beta) for trap, beta in zip(potentials, betas)]
    groups = {}     # each trap's indices
    for i, (key, _) in enumerate(rows):
        groups.setdefault(key, []).append(i)
    levels = dict(zip(groups, _ground_levels(
        [potentials[at[0]] for at in groups.values()])))
    live = [(k, beta) for k, beta in dict.fromkeys(rows)
            if not _failed(levels[k][Barrier.ABSENT])]
    lengths, _ = _heads(
        _Shapes.of([potentials[groups[k][0]] for k, _ in live]), 1,
        np.array([beta for _, beta in live], dtype=float),
        np.array([levels[k][Barrier.ABSENT] for k, _ in live], dtype=float),
        policy)
    sizes = {row: n for row, n in zip(live, lengths) if not _failed(n)}
    batches, at, total = [], [], 0
    for own in groups.values():
        at += own
        total += sum(baths * sizes.get(rows[i], 0) for i in own)
        if total >= _BATCH_TERMS:
            batches.append(at)
            at, total = [], 0
    return [(run, [levels[rows[i][0]] for i in run])
            for run in batches + [at] if run]


def _failed(value):
    return isinstance(value, SzilardError)


def _series_sums(segments, policy, levels):
    """Canonical Boltzmann stage sums of many segments at once.

    A segment is (potential, barrier, E_1, beta, n): levels 1..n of the
    trap's barrier configuration, each weighed e^{-beta (E_n - E_1)}, summed
    once at the length n _heads fixes from E_1, with no tail test.  A whole
    ladder ends where d = beta (E_n - E_1) has passed x_cut = -log rel_tol
    + _XCUT_MARGIN, and there its last term against the sum, which holds
    the first term, 1, is below e^{-d}; a head leaves the rest to a
    closed-form tail (see _tail_sums).  `levels` holds the level ladders
    built so far (see _level_ladders), so sums over the same traps share
    them.  Returns, per segment, (sum, sum of E times its terms), the
    energy sum from the same flat arrays in one more reduceat, or the
    SzilardError it hit: its n, or that of _level_ladders, or a
    SolverFailureError where the sum is not finite (terms past float
    range).
    """
    out = _level_ladders([(trap, barrier, n)
                          for trap, barrier, _, _, n in segments], levels,
                         policy.max_terms)
    live = [j for j, ladder in enumerate(out) if not _failed(ladder)]
    if not live:
        return out
    flat = _Segments([segments[j][4] for j in live])
    energies = flat.join([out[j] for j in live])
    t = _boltzmann_terms(flat.spread([segments[j][3] for j in live]),
                         energies - flat.spread([segments[j][2]
                                                 for j in live]))
    totals = flat.sums(t).tolist()
    # the joined ladders are a fresh array, not the stored levels
    weighted = flat.sums(np.multiply(energies, t, out=energies)).tolist()
    for j, total, energy in zip(live, totals, weighted):
        out[j] = (total, energy) if math.isfinite(total) else (
            SolverFailureError(f"series sum is {total}, not finite: its terms"
                               " leave float range"))
    return out


def _level_ladders(requests, levels, max_terms):
    """Levels 1..n of each (potential, barrier, n) request, or its
    SzilardError: n itself where it is one, a TruncationError where it
    passes max_terms, else the error level_energy raises for the levels of
    its trap.

    levels maps id(trap) to its barrier-free ladder, extended by the levels
    a request lacks.  Inserted level n is barrier-free level 2n (see
    potentials), so an inserted request takes the view ladder[1:2n:2] and
    an absent one the prefix ladder[:n].  The missing levels of all the
    requests' traps are one _Shapes.ladders pass (see _extend), and every
    level has the bits of its own level_energy call.
    """
    out = [n if _failed(n) else TruncationError(
        f"series needs {n} terms, policy caps at {max_terms}")
        if n > max_terms else None for _, _, n in requests]
    reach = {}
    for (potential, barrier, n), error in zip(requests, out):
        if error is None and n * _stride(barrier) > reach.get(
                id(potential), (0,))[0]:
            reach[id(potential)] = n * _stride(barrier), potential
    missing = [(key, top, potential) for key, (top, potential) in reach.items()
               if key not in levels or len(levels[key]) < top]
    errors = _extend(missing, levels) if missing else {}
    for j, (potential, barrier, n) in enumerate(requests):
        if out[j] is None:
            key = id(potential)
            out[j] = errors[key] if key in errors else (
                levels[key][1:2 * n:2] if barrier is Barrier.INSERTED
                else levels[key][:n])
    return out


def _extend(requests, levels):
    """Extend levels[key] to `top` levels for each (key, top, trap) request,
    in one _Shapes.ladders pass, and return by key the SzilardError
    level_energy raises for the levels of a trap that ladders refuses."""
    keys, top, traps = zip(*requests)
    have = np.array([len(levels.get(key, ())) for key in keys])
    e, starts, refused = _Shapes.of(traps).ladders(have + 1, np.array(top))
    errors = {}
    for i in refused.nonzero()[0].tolist():
        try:
            level_energy(traps[i], np.arange(have[i] + 1, top[i] + 1))
        except SzilardError as exc:
            errors[keys[i]] = exc.with_traceback(None)
    for key, part in zip(keys, np.split(e, starts[1:])):
        if key not in errors:
            levels[key] = (np.concatenate((levels[key], part))
                           if key in levels else part)
    return errors


def _boltzmann_terms(beta, gap):
    """The canonical weights e^{-beta gap}, gap = E - E_1, at beta = N/(k_B
    T), in place: overwriting gap keeps a batch's peak memory low."""
    gap *= beta
    return np.exp(np.negative(gap, out=gap), out=gap)


# ---------------------------------------------------------------------------
# canonical N-particle sums (harmonic / power-law ladders, Morse at N = 1)

def _require_power_family(potential, who):
    if not isinstance(potential, (Harmonic, PowerLaw)):
        raise EnsembleMismatchError(f"{who} needs a harmonic or power-law trap")


def _count_error(count):
    """The EnsembleMismatchError of a particle count that is not a finite
    number of at least 1 (nan and inf are not), or None."""
    return None if 1 <= count < math.inf else EnsembleMismatchError(
        "particle count must be finite and at least 1")


def _canonical_stages(traps, grounds, temperatures, counts, policy):
    """canonical_stage_properties of many units, unit i trap i with
    counts[i] particles at temperatures[i], in each barrier configuration
    of grounds[i] (its ground levels by barrier, each E_1 or the error of
    its lookup): per unit, an (absent, inserted) pair, each the (log sum,
    energy), the error that stops the sum, or None where grounds[i] lacks
    that configuration.

    The heads of all sums are one _heads pass, their tails one _tails
    call, and the sums one _series_sums call per configuration, which
    keeps its flat arrays near the terms the batching counted: the absent
    sums build each trap's barrier-free ladder, and the inserted ones
    extend it (see _level_ladders).  A sum not finite after its tail is a
    SolverFailureError.  A unit whose N beta = N/(k_B T) overflows is an
    EnsembleMismatchError.
    """
    betas = [count * _beta(temperature)
             for count, temperature in zip(counts, temperatures)]
    rows = [(i, barrier, e1) for i, ground in enumerate(grounds)
            for barrier, e1 in ground.items()]
    # one shape row per distinct trap object, each unit's row by its trap
    distinct = list({id(trap): trap for trap in traps}.values())
    place = {id(trap): r for r, trap in enumerate(distinct)}
    shapes = _Shapes.of(distinct)

    def table(at):
        """The traps, strides, betas and E_1 of the rows at indices at."""
        picked = [rows[r] for r in at]
        return (shapes.take([place[id(traps[i])] for i, _, _ in picked]),
                np.array([_stride(barrier) for _, barrier, _ in picked]),
                np.array([betas[i] for i, _, _ in picked]),
                np.array([e1 for _, _, e1 in picked]))

    # per row, the error it meets before any sum, else the length of its sum
    lengths = [e1 if _failed(e1) else EnsembleMismatchError(
        f"N/(k_B T) overflows: N = {counts[i]:.6g} at {temperatures[i]:.6g}"
        " K is past float range") if math.isinf(betas[i]) else None
        for i, _, e1 in rows]
    sized = [r for r, n in enumerate(lengths) if n is None]
    own, tailed = _heads(*table(sized), policy)
    for r, n in zip(sized, own):
        lengths[r] = n
    tails = [r for r, tail in zip(sized, tailed.tolist()) if tail]
    sums, levels = [None] * len(rows), {}
    for barrier in Barrier:
        at = [r for r, row in enumerate(rows) if row[1] is barrier]
        for r, result in zip(at, _series_sums(
                [(traps[rows[r][0]], barrier, rows[r][2], betas[rows[r][0]],
                  lengths[r]) for r in at], policy, levels)):
            sums[r] = result
    tails = [r for r in tails if not _failed(sums[r])]
    if tails:
        wells, step, beta, e1 = table(tails)
        rests = _tails(wells, step.astype(float), beta, e1,
                       np.array([lengths[r] for r in tails], dtype=float))
        for r, rest, rest_energy in zip(tails, *rests.tolist()):
            total, energy = sums[r]
            sums[r] = total + rest, energy + rest_energy
    out = [[None, None] for _ in traps]
    logs = [math.log(_degeneracy(barrier))
            for barrier in (Barrier.ABSENT, Barrier.INSERTED)]
    for (i, barrier, e1), result in zip(rows, sums):
        inserted = barrier is Barrier.INSERTED
        if not _failed(result):
            total, energy = result
            if 0.0 < total < math.inf and math.isfinite(energy):
                result = (counts[i] * logs[inserted] - betas[i] * e1
                          + math.log(total), counts[i] * (energy / total))
            else:
                result = SolverFailureError(
                    f"stage sum {total:.6g} with energy sum {energy:.6g}"
                    " after its tail is not finite: the ladder's terms"
                    " leave float range")
        out[i][inserted] = result
    return out


def canonical_stage_properties(potential, barrier, count, temperature,
                               policy=TruncationPolicy()):
    """Log of the N-particle stage sum and its internal energy.

    The stage sum is sum_n (g e^{-beta E_n})^N = g^N sum_n e^{-N beta E_n};
    the energy is its -dlog/dbeta, an N-weighted Boltzmann average.  Ground
    energy is factored out so underflow never empties the sum, and at T -> 0
    the average collapses onto the lowest included level.  A bounded Morse
    ladder is summed completely up to its last bound level.  A long ladder
    is summed as an exact head plus a closed-form Euler-Maclaurin tail (see
    _heads).  The one-stage case of _canonical_stages.
    """
    value_or_raise(_count_error(count))
    return value_or_raise(_canonical_stages(
        (potential,), ({barrier: level_energy(potential, 1, barrier)},),
        (temperature,), (count,), policy)[0][
            barrier is Barrier.INSERTED])


def _cycle_sums(potentials, grounds, counts, baths, policy):
    """Per trap of a batch as _batches returns it, with counts[i] particles
    between baths[i]: (log ratio hot, log ratio cold, (U_A, U_B, U_C,
    U_D)), or the error of its first failing stage, A to D.  Each distinct
    (trap, count, bath) is one unit of _canonical_stages, which sizes and
    sums it once for every point that reads it: at its hot bath for stages
    A and B, at its cold one for C and D."""
    units, reads = {}, []
    for i, (trap, count, pair) in enumerate(zip(potentials, counts, baths)):
        read = (id(trap), count, pair.hot), (id(trap), count, pair.cold)
        for key in read:
            units.setdefault(key, (trap, grounds[i], key[2], count))
        reads.append(read)
    stages = dict(zip(units, _canonical_stages(*zip(*units.values()), policy)
                      if units else ()))
    out = []
    for hot, cold in reads:
        (a, b), (d, c) = stages[hot], stages[cold]
        out.append(next(filter(_failed, (a, b, c, d)), None) or (
            b[0] - a[0], c[0] - d[0], (a[1], b[1], c[1], d[1])))
    return out


# ---------------------------------------------------------------------------
# grand-canonical bosons
#
# A grand-canonical sum runs over one rung, the ladder of a (trap, barrier,
# bath), at the rung's chemical potential: a head of K levels summed term
# by term, and a short k-series over the rung's mu-free tail moments (see
# _tail_sums).  _grand_rungs builds each distinct rung of a batch once, for
# every count that reads it, and every Newton round, occupancy re-check,
# log ratio and stage energy reuses them.

def _grand_rungs(requests, policy):
    """The _Rungs of (potential, barrier, beta, E_1, v, count) requests, in
    order, v the least beta (E_1 - mu) each is summed at and count the
    occupancy its root solves for, or inf (see _Rungs).

    Requests of one trap, barrier and beta read one rung, built once:
    sized from its E_1 here, by one _heads pass over all the rungs, and
    only its head built, by _level_ladders: the whole ladder where it is
    no longer than its head, else a head to which a tail adds the rest (see
    _tail_sums).  A trap's rungs share its barrier-free ladder.  An E_1
    that is an error, an estimate past float range, a head or a power-law
    k-series past max_terms and a level that cannot be built are the
    row's error.
    """
    errors = [e1 if _failed(e1) else None for _, _, _, e1, *_ in requests]
    g = np.array([_degeneracy(request[1]) for request in requests])
    betas = np.array([request[2] for request in requests], dtype=float)
    e1, v, count = (np.array([request[k] if error is None else 0.0
                              for request, error in zip(requests, errors)],
                             dtype=float) for k in (3, 4, 5))
    rungs = {}      # the rows that read each rung: (id(trap), stride, beta)
    for r, (trap, barrier, beta, *_) in enumerate(requests):
        if errors[r] is None:
            rungs.setdefault((id(trap), _stride(barrier), beta), []).append(r)
    keys, first = list(rungs), [rows[0] for rows in rungs.values()]
    shapes = _Shapes.of([requests[r][0] for r in first])
    step = np.array([stride for _, stride, _ in keys], dtype=float)
    lengths, tailed = _heads(shapes, step, betas[first], e1[first], policy)
    readers, built, kept = [], [], []
    for m, (rows, ladder, tail, by) in enumerate(zip(
            rungs.values(), _level_ladders(
                [(*requests[r][:2], n) for r, n in zip(first, lengths)],
                {}, policy.max_terms), tailed.tolist(), step.tolist())):
        if _failed(ladder):
            for r in rows:
                errors[r] = ladder
        else:
            readers.append(rows)
            built.append((ladder, tail, by))
            kept.append(m)
    return _Rungs(g, betas, e1, errors, readers, built, shapes.take(kept), v,
                  count, _XCUT_MARGIN - math.log(policy.rel_tol),
                  policy.max_terms)


def _rung_sums(rungs, rows, mus, kind):
    """Per row of rungs in `rows` at its chemical potential in `mus`: the
    first sum of _Heads.sums of `kind`, or the row's error, or a
    SolverFailureError where the sum is not finite."""
    out = [rungs.errors[r] for r in rows]
    live = [i for i, error in enumerate(out) if error is None]
    if live:
        at = np.array([rows[i] for i in live], dtype=np.intp)
        d = rungs.e1[at] - np.array([mus[i] for i in live])
        heads = _Heads(rungs, at, kind == "energy")
        with np.errstate(over="ignore"):    # v is inf for a mu far below E_1
            sums = heads.sums(rungs.beta[at] * d, kind, d)[0]
        for i, total in zip(live, sums.tolist()):
            out[i] = total if math.isfinite(total) else SolverFailureError(
                f"series sum is {total}, not finite: its terms leave float"
                " range")
        for j in heads.refused:     # a refused row's sum is nan
            out[live[j]] = heads.error(j)
    return out


def _mu_offsets(roots, counts, policy, rungs):
    """Roots u = log(beta (E_1 - mu)) of the occupancy constraint for many
    (potential, barrier, temperature, E_1) roots, root j of counts[j]
    bosons on row j of the _Rungs rungs; a root or an error each.

    With n = g/expm1(beta(E - E_1) + e^u) (g = d_1 on every level), f =
    log N(u) - log count falls as u rises: it is positive at a root's
    `near` and not positive at its `far`.  The live roots are arrays: near,
    far, the u each is evaluated at next, the search step k (-1 once Newton
    runs) and the Newton round count, row `rows` of the rungs each.  Every
    round evaluates them all at once, each its head and the k-series of
    its tail (_Heads.sums), and steps them all in one set of array
    expressions.  The search tries u = k log 2, k = 0, 1, ..., each point
    with f > 0 becoming near, until f <= 0 there.  Newton then starts from
    the lower bound of _floor, else the closed form, else the bracket's
    midpoint, whichever lies inside the bracket first, and steps with the
    slope dlog N/du = -e^u sum n (1 + n/g) / N; a step that leaves the
    bracket bisects it (rtsafe, Numerical Recipes 9.4).  A root stops once
    a step is at most 1e-9 max(1, |u|): quadratic convergence puts that
    step's end within rounding of the root.  Only the roots that stop or
    fail leave the arrays through Python, and the heads of the rest are
    then gathered afresh from the rungs, so each row keeps the bits of its
    own evaluation.
    """
    out = list(rungs.errors)
    rows = np.array([j for j, error in enumerate(out) if error is None],
                    dtype=np.intp)
    d1, count = rungs.g[rows].astype(float), np.array(counts, float)[rows]
    far, u = np.zeros(len(rows)), np.zeros(len(rows))
    step, rounds = np.zeros(len(rows), dtype=np.intp), np.zeros_like(rows)
    heads = _Heads(rungs, rows)
    with np.errstate(all="ignore"):
        y = d1 / (count * 1e9)      # 0.0 once count * 1e9 overflows
        near = np.log(np.where(y > 0.0, np.log1p(y), d1 / count / 1e9))
        log_count = np.log(count)
        while len(rows):
            v = np.exp(u)
            total, weight = heads.sums(v, "occupancy")
            # a total of 0.0 has every term underflowed: N below any count
            f = np.log(total) - log_count
            up, search = f > 0.0, step >= 0
            near, far = np.where(up, u, near), np.where(up, far, u)
            rounds += ~search
            # an occupation past 1e154 overflows n (1 + n/g) to inf, which
            # makes the step 0: the root stops there, and like every root
            # it is then checked against mu < E_1 and its occupancy re-sum
            slope = -v * weight / total
            u_next = u - f / slope
            tol = 1e-9 * np.maximum(1.0, np.abs(u))
            # only a step past the stop tolerance is clamped to the
            # bracket, so a converged step that lands on a bracket end
            # stops there
            mid = 0.5 * (near + far)
            u_next = np.where((np.abs(u_next - u) > tol)
                              & ~((near < u_next) & (u_next < far)),
                              mid, u_next)
            exact = f == 0.0        # u is the root
            u_next[exact] = u[exact]
            stop = (exact | (np.abs(u_next - u) <= tol)) & ~search
            late = (rounds == 200) & ~stop
            at = (search & ~up).nonzero()[0]
            # Newton's start: the midpoint, overwritten by the closed form
            # and then by _floor's bound wherever each lies in the bracket
            if len(at):
                start = mid[at]
                for bound in (np.log(np.log1p(d1[at] / count[at])),
                              _floor(d1[at], count[at], u[at], total[at])):
                    inside = (near[at] < bound) & (bound < far[at])
                    start[inside] = bound[inside]
                u_next[at] = start
            climb = search & up
            step = np.where(climb, step + 1, -1)
            u_next[climb] = step[climb] * math.log(2.0)
            lost = step == 200
            ends = stop | late | lost
            ends[list(heads.refused)] = True   # their sums are nan
            if ends.any():
                ended = ends.nonzero()[0]
                for j, x in zip(rows[ended].tolist(), u_next[ended].tolist()):
                    out[j] = x
                for failed, message in (
                        (lost, "no lower bracket for the occupancy root"),
                        (late, "occupancy root did not converge")):
                    for j in rows[failed].tolist():
                        out[j] = SolverFailureError(message)
                for i in heads.refused:
                    out[rows[i]] = heads.error(i)
                keep = ~ends
                rows, d1, count, log_count, near, far, u_next, step, \
                    rounds = (a[keep] for a in (rows, d1, count, log_count,
                                                near, far, u_next, step,
                                                rounds))
                if len(rows):
                    heads = _Heads(rungs, rows)
            u = u_next
    return out


def _floor(d1, count, u, total):
    """Lower bounds on roots from N = total <= count at u (arrays, under
    the caller's np.errstate).  The excited levels' occupation rest = N -
    g/expm1(e^u) (the head's own ground term, and 0 past float range) only
    grows as u falls to the root, where the ground term is then at most
    count - rest: so the root is at least log log1p(g/(count - rest)),
    never below the closed form.  -inf where rounding leaves no such
    bound."""
    shift = np.exp(u)
    ground = np.where(shift < 709.0, d1 / np.expm1(shift), 0.0)
    room = count - (total - ground)
    v = np.where(room > 0.0, np.log1p(d1 / room), 0.0)
    return np.where(v > 0.0, np.log(v), -math.inf)


def _rungs_of(roots, counts, mode, policy):
    """The _Rungs of (potential, barrier, temperature, E_1) roots, root j of
    counts[j] bosons, in `mode`, each sized and built by _grand_rungs.
    Each is summed at v = beta (E_1 - mu) >= log(1 + d_1/count), the closed
    form, as its ground term alone, d_1/(e^v - 1), stays below count at a
    root; a solved root's head bounds it further (see _Rungs)."""
    solved = mode is MuMode.SOLVED
    return _grand_rungs([(potential, barrier, _beta(temperature), e1,
                          math.log1p(_degeneracy(barrier) / count),
                          count if solved else math.inf)
                         for (potential, barrier, temperature, e1), count
                         in zip(roots, counts)], policy)


def _chemical_potentials(roots, counts, mode, policy, rungs=None):
    """Chemical potentials of (potential, barrier, temperature, E_1) roots,
    root j of counts[j] bosons, in `mode`; a mu or an error each, every mu
    strictly below E_1.

    CLOSED_FORM is E_1 - k_B T log1p(d_1/count); SOLVED runs every root
    through one Newton loop (see _mu_offsets) on the _Rungs of the roots,
    root j on row j (built here where not given), and re-sums the
    occupancy at each mu, which must recover count to 1e-10.
    """
    if mode is MuMode.CLOSED_FORM:
        return [_below_ground(e1 - K_B * temperature
                              * math.log1p(_degeneracy(barrier) / count), e1)
                for (_, barrier, temperature, e1), count in zip(roots, counts)]
    if mode is not MuMode.SOLVED:
        return [EnsembleMismatchError(
            f"unknown chemical-potential mode {mode!r}") for _ in roots]
    if rungs is None:
        rungs = _rungs_of(roots, counts, mode, policy)
    out = _mu_offsets(roots, counts, policy, rungs)
    for j, u in enumerate(out):
        if not _failed(u):
            _, _, temperature, e1 = roots[j]
            out[j] = _below_ground(e1 - K_B * temperature * math.exp(u), e1)
    rows = [j for j, mu in enumerate(out) if not _failed(mu)]
    recovered = _rung_sums(rungs, rows, [out[j] for j in rows], "occupancy")
    for j, total in zip(rows, recovered):
        count = counts[j]
        if _failed(total):
            out[j] = total
        elif abs(total - count) > 1e-10 * count:
            out[j] = SolverFailureError(
                f"occupancy root off by {abs(total - count) / count:.3g} relative"
                + _offset_ulps(out[j], roots[j][3]))
    return out


def _offset_ulps(mu, e1):
    """Why a re-sum can miss: where E_1 - mu spans at most 1e10 ulps of E_1,
    rounding mu alone moves the occupancy by more than 1e-10."""
    ulps = (e1 - mu) / math.ulp(e1)
    return (f": the offset E_1 - mu spans only {ulps:.6g} ulps of E_1"
            f" ({math.ulp(e1):.6g} J)" if ulps <= 1e10 else "")


def _below_ground(mu, e1):
    """mu, or the ConvergenceViolationError of a mu that reaches E_1; a mu
    that rounds onto E_1 had an offset E_1 - mu below one ulp of E_1."""
    return mu if mu < e1 else ConvergenceViolationError(
        f"chemical potential {mu:.6g} J reaches the ground level {e1:.6g} J"
        + (f": the offset E_1 - mu is below one ulp of E_1"
           f" ({math.ulp(e1):.6g} J)" if mu == e1 else ""))


def occupancy_total(potential, barrier, mu, temperature, policy=TruncationPolicy()):
    """Mean boson number sum_n g/(e^{beta(E_n - mu)} - 1) at fixed mu."""
    _require_power_family(potential, "grand-canonical occupancy")
    e1 = level_energy(potential, 1, barrier)
    mu = value_or_raise(_below_ground(mu, e1))
    beta = _beta(temperature)
    return value_or_raise(_rung_sums(_grand_rungs(
        [(potential, barrier, beta, e1, beta * (e1 - mu), math.inf)],
        policy), (0,), (mu,), "occupancy")[0])


def chemical_potential(potential, count, temperature, barrier, mode,
                       policy=TruncationPolicy()):
    """Chemical potential for `count` bosons in one barrier configuration.

    CLOSED_FORM uses mu = E_1 - k_B T log(1 + d_1/count) with d_1 = 1 before
    insertion and 2 after.  SOLVED finds u = log(beta (E_1 - mu)) by a
    bracketed Newton step on the level ladder's head and tail moments (see
    _mu_offsets); working in u keeps the offset below E_1 resolved even
    when E_1 >> k_B T.  The occupancy at the returned mu is re-summed and
    verified to |dN/N| < 1e-10, and the result is always strictly below E_1.
    """
    return value_or_raise(_chemical_potentials(
        _one_trap_roots(potential, count, temperature, (barrier,)), (count,),
        mode, policy)[0])


def chemical_potentials(potential, count, temperature, mode,
                        policy=TruncationPolicy()):
    """Solve both barrier configurations at one bath temperature, at once."""
    roots = _one_trap_roots(potential, count, temperature,
                            (Barrier.ABSENT, Barrier.INSERTED))
    return value_or_raise(_mu_pairs(
        _chemical_potentials(roots, (count, count), mode, policy), (count,),
        [(temperature,)], mode)[0])[0]


def _one_trap_roots(potential, count, temperature, barriers):
    """One trap's _chemical_potentials roots, after every mode's checks."""
    _require_power_family(potential, "the chemical potential")
    value_or_raise(_count_error(count))
    _beta(temperature)      # raises where 1/(k_B T) overflows, in every mode
    return [(potential, barrier, temperature,
             level_energy(potential, 1, barrier)) for barrier in barriers]


def _mu_pairs(mus, counts, temperatures, mode):
    """Per trap, its ChemicalPotentials of counts[i] bosons at each of its
    temperatures (temperatures[i], a tuple of one length for every trap),
    from its mus in the order absent, inserted at each temperature in
    turn; or its first error."""
    k = 2 * len(temperatures[0]) if temperatures else 0
    return [next((mu for mu in own if _failed(mu)), None) or tuple(
        ChemicalPotentials(pre_insertion=pre, post_insertion=post,
                           temperature=temperature, count=count, mode=mode)
        for pre, post, temperature in zip(own[::2], own[1::2], temps))
        for own, count, temps in zip(
            (mus[i:i + k] for i in range(0, len(mus), k)), counts,
            temperatures)]


def _log_ratios(logs):
    """log ratios from the log terms of their rungs, absent and inserted in
    turn: sum log(1 - e^{-x_pre}) - 2 sum log(1 - e^{-x_post}) each, or the
    first error."""
    return [pre if _failed(pre) else post if _failed(post) else
            pre - 2.0 * post for pre, post in zip(logs[::2], logs[1::2])]


def _bath_ratios(potentials, grounds, counts, temperatures, mode, policy):
    """Chemical potentials and log ratios of grand-canonical traps, trap i
    of counts[i] bosons at each of its tuple of temperatures[i] (all of one
    length): per trap (ChemicalPotentials, log ratio) per temperature, or
    the error of its first failing root (see _mu_pairs), else of its first
    failing log ratio; and the _Rungs they ran on.

    potentials and grounds are a batch as _batches returns it.  Its rungs
    are read absent and inserted at each temperature in turn for each
    trap, and sized and built once each from the ground levels (see
    _grand_rungs), so the points of a trap that differ only in count share
    them; all the roots are produced together in `mode` (see
    _chemical_potentials), and each log ratio is the log terms of its two
    rungs at their chemical potentials.
    """
    roots = [(potential, barrier, temperature, ground[barrier])
             for potential, ground, own in zip(potentials, grounds,
                                               temperatures)
             for temperature in own
             for barrier in (Barrier.ABSENT, Barrier.INSERTED)]
    k = len(temperatures[0]) if temperatures else 0
    each = [count for count in counts for _ in range(2 * k)]
    rungs = _rungs_of(roots, each, mode, policy)
    mus = _chemical_potentials(roots, each, mode, policy, rungs)
    out = _mu_pairs(mus, counts, temperatures, mode)
    live = [i for i, pairs in enumerate(out) if not _failed(pairs)]
    rows = [2 * k * i + j for i in live for j in range(2 * k)]
    ratios = _log_ratios(_rung_sums(rungs, rows, [mus[r] for r in rows],
                                    "log"))
    for j, i in enumerate(live):
        own = tuple(ratios[j * k:(j + 1) * k])
        out[i] = next((r for r in own if _failed(r)), None) or (out[i], own)
    return out, rungs


def _grand_sums(potentials, grounds, counts, baths, mode, policy):
    """Per trap of a batch as _batches returns it, with counts[i] bosons
    between baths[i]: (log ratio hot, log ratio cold, (U_A, U_B, U_C, U_D),
    (hot, cold) ChemicalPotentials), from _bath_ratios at (hot, cold), which
    sizes and builds each rung, and each stage energy on its rung at that
    rung's chemical potential; or the first error of _bath_ratios, else of
    its first failing energy."""
    out, rungs = _bath_ratios(potentials, grounds, counts,
                              [(pair.hot, pair.cold) for pair in baths],
                              mode, policy)
    live = [i for i, terms in enumerate(out) if not _failed(terms)]
    rows, mus = [], []
    for i in live:
        (hot, cold), _ = out[i]
        # rows absent, inserted at the hot bath, then at the cold: A B D C
        rows += [4 * i, 4 * i + 1, 4 * i + 3, 4 * i + 2]
        mus += [hot.pre_insertion, hot.post_insertion, cold.post_insertion,
                cold.pre_insertion]
    energies = _rung_sums(rungs, rows, mus, "energy")
    for k, i in enumerate(live):
        stages = tuple(energies[4 * k:4 * k + 4])
        error = next((u for u in stages if _failed(u)), None)
        pairs, ratios = out[i]
        out[i] = error or (*ratios, stages, pairs)
    return out


def _checked_rungs(potential, mu_pair, temperature):
    """The (barrier, mu) rungs, absent then inserted, of a pair solved at
    `temperature` whose mus lie below their ground levels (see
    _below_ground), with those levels by barrier; or None for a Morse well,
    which takes no pair; raises otherwise."""
    if isinstance(potential, Morse):
        if mu_pair is not None:
            raise EnsembleMismatchError(
                "the Morse cycle is canonical; no chemical potentials apply")
        return None
    if mu_pair is None:
        raise EnsembleMismatchError("bosonic sums need chemical potentials")
    grounds = {barrier: level_energy(potential, 1, barrier)
               for barrier in Barrier}
    rungs = tuple((b, value_or_raise(_below_ground(mu, grounds[b])))
                  for b, mu in ((Barrier.ABSENT, mu_pair.pre_insertion),
                                (Barrier.INSERTED, mu_pair.post_insertion)))
    if mu_pair.temperature != temperature:
        raise EnsembleMismatchError(
            "chemical potentials were solved at a different temperature")
    return rungs, grounds


def _one_trap_sums(potential, checked, temperature, rungs, kind, policy):
    """_rung_sums of some of one trap's checked (barrier, mu) rungs."""
    beta, grounds = _beta(temperature), checked[1]
    table = _grand_rungs([(potential, barrier, beta, grounds[barrier],
                           beta * (grounds[barrier] - mu), math.inf)
                          for barrier, mu in rungs], policy)
    return _rung_sums(table, range(len(rungs)), [mu for _, mu in rungs],
                      kind)


def log_relative_partition(potential, mu_pair, temperature,
                           policy=TruncationPolicy()):
    """Log of the stage-B/stage-A (or C/D) grand-partition ratio at one bath.

    Product over levels of
        (1 - e^{-beta(E_n - mu_pre)}) / (1 - e^{-beta(E_{2n} - mu_post)})^2,
    evaluated as two sums of log1p terms, one per rung, each a head and a
    tail of Bose functions (see _grand_rungs).  The inserted-spectrum factor
    carries the square of its double degeneracy, keeping the ratio
    consistent with the factor-2 occupancy sums used for the internal
    energies.

    Morse potentials take the canonical mu-free route: pass mu_pair = None.
    """
    checked = _checked_rungs(potential, mu_pair, temperature)
    if checked is None:
        (log_post, _), (log_pre, _) = (canonical_stage_properties(
            potential, barrier, 1, temperature, policy)
            for barrier in (Barrier.INSERTED, Barrier.ABSENT))
        return log_post - log_pre
    return value_or_raise(_log_ratios(_one_trap_sums(
        potential, checked, temperature, checked[0], "log", policy))[0])


def internal_energy(stage, potential, mu_pair, baths, policy=TruncationPolicy()):
    """Internal energy of one cycle stage in J.

    Bosonic stages evaluate the occupancy-weighted sum
        sum_n g (E_n - mu) / (e^{beta(E_n - mu)} - 1)
    with the barrier configuration, bath temperature, and chemical potential
    the stage dictates.  Morse stages are plain Boltzmann averages.
    """
    barrier, bath = _STAGES[stage]
    temperature = getattr(baths, bath)
    checked = _checked_rungs(potential, mu_pair, temperature)
    if checked is None:
        return canonical_stage_properties(potential, barrier, 1, temperature,
                                          policy)[1]
    return value_or_raise(_one_trap_sums(
        potential, checked, temperature,
        (checked[0][barrier is Barrier.INSERTED],), "energy", policy)[0])
