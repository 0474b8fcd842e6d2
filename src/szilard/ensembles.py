"""Partition-function machinery for the four cycle stages.

Three statistical treatments share this module:

* canonical N-particle sums over harmonic / power-law ladders, evaluated
  exactly as sums of per-level N-th powers with the 2^N degeneracy factor in
  the barrier-inserted stages;
* grand-canonical bosons with a chemical potential per barrier configuration,
  each bound to the temperature of the bath it serves;
* the single-particle Morse cycle, the canonical sums at count 1, capped at
  the bound-state ladder.

Stage labels follow the cycle diagram: A = barrier absent at the hot bath,
B = inserted at the hot bath, C = inserted at the cold bath, D = absent at
the cold bath.

Every route sums many traps at once, one numpy pass per step over all their
ladders, and a lone trap is a batch of one on the same path.  Each _batches
call builds one trap table (_TrapTable), the one place that decides trap
identity: a row per distinct trap object, with its ladder shape and ground
levels, which every sum reads by row.  _batches splits the points into
batches of a bounded number of estimated terms, or on the grand route of
bytes its roots will gather, closing one only between two rows, so a
batch sums each distinct canonical (row, count, bath) once and builds
each grand rung once for all its counts.  One rule, _units (a
stable lexsort of key columns), groups the batching's (row, beta) sizes,
a canonical batch's units and a grand batch's rungs, each read by index.
A batch's sums are columns, each result an array aligned to them with
one error list and its live mask (_Errors) beside it.  Roots and stage
rows share their columns (_Roots: row, barrier, temperature, beta, E_1,
count), laid out for points by _point_columns.  A canonical or Morse
batch's stage rows (_Stages, adding N beta, head length and tailed) are
sized, summed, tailed and logged as arrays; a row's error is the first
of its ground level, N beta past float range, its head's estimate, a
head past max_terms, its levels, a sum not finite and a sum not finite
after its tail, and a point reports its first failing stage, A to D.  A
grand batch's roots are columns from where _bath_ratios forms them to
where _grand_sums sums their energies.

Every ladder is sized by one rule, _heads (in _tail_sums): a sum's length is
fixed from its ground level E_1 before any term is formed, and the sum is
taken once at that length, with no tail test.  A ladder longer than its
head sums the head, at least 16 terms, and the rest as a closed-form
Euler-Maclaurin tail: geometric, Dawson (Morse) or incomplete gamma (any
other power law).  A grand rung, the ladder of a (trap, barrier, bath),
takes its tail as a short k-series in e^{-beta (E_1 - mu)} over moments
that do not depend on mu, the same tails at k beta, formed once per rung,
so every Newton round, occupancy re-check, log ratio and stage energy sums
heads and k-series only.  A length past max_terms is a TruncationError,
never a silent cut.  Every batched sum, and the trap table's ground
levels, computes its levels at its own indices in one _levels pass; an
inserted sum's are every other barrier-free level.  Both routes lay
their arrays out flat by one _Segments.

Only exactly rounded operations run on arrays, and a level's fractional
power, in one np.power call per distinct power as level_energy takes it,
and the Newton roots' logs and exps (_mu_offsets), each numpy's of its
element alone.  A log, exp or fractional power that sets a length or a
logged total, the closed form's log1p and mu's exp run in Python floats
and math, element by element (mapped over an array), so every value keeps
the bits of its one-trap evaluation.
"""
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._tail_sums import (_XCUT_MARGIN, _Heads, _Rungs, _Segments, _cap_error,
                         _heads, _tails)
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


# ---------------------------------------------------------------------------
# truncated series evaluation
#
# A batch's sums are columns, one entry per sum, with one error list beside
# them (_Errors).  Their levels are one _levels pass on either route, each
# sum's at its own indices, laid end to end by _tail_sums._Segments, the
# layout the grand route's heads, moments and k-series share: each
# elementwise step is one numpy pass over all of them, and only a failing
# sum builds its error in Python.  A batched value equals the one-sum
# value bit for bit, whatever order _units gives.


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


def _betas(temperatures):
    """_beta of each of an array of temperatures, with its bits: k_B T and
    its reciprocal are exactly rounded.  The first temperature _beta
    refuses raises its error."""
    temperatures = np.asarray(temperatures, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        beta = 1.0 / (K_B * temperatures)
    for temperature in temperatures[~((0.0 < beta) & (beta < math.inf))]:
        _beta(float(temperature))
    return beta


def _units(*keys):
    """The entries of key columns (arrays of one length) grouped by key:
    (first, unit), first the lowest index of each distinct key, in key
    order, and unit[k] the place in first of entry k's key.  One stable
    np.lexsort of the keys; a key is never nan, which _betas and
    _count_error refuse first."""
    order = np.lexsort(keys)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        key = np.asarray(key)[order]
        new[1:] |= key[1:] != key[:-1]
    unit = np.empty_like(order)
    unit[order] = np.cumsum(new) - 1
    return order[new], unit


class _Errors(list):
    """An error list, entry k None or the SzilardError of the k-th entry of
    some columns, with its live mask beside it: live[k] is whether entry k
    is None.  Every error is set through set(), so the mask is never
    rebuilt from the list."""

    __slots__ = ("live",)

    def __init__(self, size):
        super().__init__([None] * size)
        self.live = np.ones(size, dtype=bool)

    def set(self, k, error):
        self[k] = error
        self.live[k] = False

    def copy(self):
        out = _Errors(0)
        out[:], out.live = self, self.live.copy()
        return out

    def take(self, rows):
        """The entries at rows (an index array), as an _Errors."""
        out = _Errors(len(rows))
        for i in (~self.live[rows]).nonzero()[0].tolist():
            out.set(i, self[rows[i]])
        return out

    def first(self, width):
        """Per run of `width` consecutive entries, its first error or None,
        as an _Errors."""
        out = _Errors(len(self) // width)
        for j in reversed((~self.live).nonzero()[0].tolist()):
            out.set(j // width, self[j])
        return out


class _TrapTable:
    """The distinct trap objects of a run of points, one row each in order
    of first appearance: traps[r] is row r's trap, shapes their _Shapes
    (one _Shapes.of call), and rows[i] the row of point i.  e1[r] holds row
    r's ground levels, barrier absent and inserted, one _levels pass over
    all rows (level 1 of each configuration), with the bits of
    level_energy; errors, an _Errors, holds at 2r + k the error of a
    lookup that fails, k = 0 absent, 1 inserted, whose e1 is nan."""

    __slots__ = ("traps", "shapes", "e1", "errors", "rows")

    def __init__(self, potentials):
        place = {}
        self.rows = [place.setdefault(id(trap), len(place))
                     for trap in potentials]
        self.traps = list(dict(zip(self.rows, potentials)).values())
        self.shapes = _Shapes.of(self.traps)
        size = 2 * len(self.traps)
        self.errors = _Errors(size)
        at, flat, e = _levels(self, self.errors, np.arange(size),
                              np.arange(size) // 2, np.arange(size) % 2 + 1,
                              np.ones(size, dtype=np.intp))
        self.e1 = np.full((len(self.traps), 2), math.nan)
        self.e1.flat[at] = e[flat.slots]

    def ground_error(self, row):
        """The error of row's first failing ground level, absent then
        inserted, or None."""
        return self.errors[2 * row] or self.errors[2 * row + 1]


def _levels(table, errors, at, row, stride, n):
    """The step of every batched sum: of the entries at (an index array)
    of some columns (arrays) still live in their _Errors errors, levels 1..
    n[k] of the configuration of stride[k] of row[k] of table, the
    barrier-free levels stride[k], 2 stride[k], ..., n[k] stride[k]
    (inserted level m is barrier-free level 2m, see potentials), each run
    behind one _Segments slot that holds its first level, all in one
    _Shapes.levels pass.  An entry the rule of level_energy refuses, a
    Morse index past the bound count or a level not positive, takes the
    error level_energy raises for it, and the pass runs again without it.
    Returns the entries kept (an index array), their _Segments and the
    levels it lays out, a fresh array."""
    while True:
        at = at[errors.live[at]]
        step, top = stride[at], n[at]
        flat = _Segments(top)
        j = flat.within()
        np.maximum(j, 1, out=j)
        j *= flat.spread(step)
        shapes = table.shapes.take(row[at])
        e = shapes.levels(j, flat.width)
        refused = shapes.morse & ((top * step > shapes.cap) | ~(
            np.minimum.reduceat(e, flat.slots) > 0.0))
        for i in refused.nonzero()[0].tolist():
            try:
                level_energy(table.traps[row[at[i]]], np.arange(1, top[i] + 1),
                             tuple(Barrier)[step[i] - 1])
            except SzilardError as exc:
                errors.set(at[i], exc.with_traceback(None))
        if errors.live[at].all():
            return at, flat, e


# A batch closes once its points count this many estimated ladder terms,
# or on the grand route bytes its roots will gather (see _sizes): each
# bounds a batch's flat arrays, which would otherwise grow with the run.
_BATCH_TERMS = 8192
_BATCH_BYTES = 5 << 16


def _batches(potentials, betas, policy, baths=1):
    """(table, batches): the _TrapTable of the points' traps, and the
    indices into potentials of the points of each consecutive batch for the
    batched stage sums.  The points of each row, grouped in order, share
    its ladder, its rungs and its batch.  A batch closes, only between two
    rows, once the _sizes of its points reach _BATCH_TERMS (one bath) or
    _BATCH_BYTES (two: a grand cycle)."""
    table = _TrapTable(potentials)
    size = _sizes(table, betas, policy, baths)
    bound = _BATCH_TERMS if baths == 1 else _BATCH_BYTES
    batches, at, total = [], [], 0
    # the points row by row, each row's in order; a total past 2^53 is
    # past the bound too
    order = np.argsort(table.rows, kind="stable")
    for i, terms in zip(order.tolist(), size[order].tolist()):
        if total >= bound and table.rows[i] != table.rows[at[-1]]:
            batches.append(at)
            at, total = [], 0
        at.append(i)
        total += terms
    return table, batches + [at] if at else batches


def _sizes(table, betas, policy, baths=1):
    """What each point of the _TrapTable table counts toward its batch's
    bound, from one _heads pass over the distinct (row, barrier, beta)
    whose ground level holds (a failed estimate counts 0): at one bath, its
    decay rate betas[i], the head length of its barrier-free sum; at two,
    betas[i] a grand cycle's beta at each, the bytes its four roots gather
    into a _Heads, 8 a level of its rung's head and 24 a term of its
    k-series (k and two moments), each with its slot, the series as long
    as at v = 0, its longest."""
    width = 1 if baths == 1 else 4
    row = np.repeat(np.array(table.rows, dtype=np.intp), width)
    inserted = np.tile(np.arange(width) % 2, len(table.rows))
    beta = np.repeat(np.asarray(betas, dtype=float), width // baths)
    first, unit = _units(row, inserted, beta)
    at = first[table.errors.live[2 * row[first] + inserted[first]]]
    shapes, step, e1 = (table.shapes.take(row[at]), inserted[at] + 1.0,
                        table.e1[row[at], inserted[at]])
    lengths, tailed = _heads(shapes, step, beta[at], e1, policy)
    n = np.array([0 if _failed(m) else m for m in lengths], dtype=float)
    if baths == 2:
        n = np.where(n <= policy.max_terms, n, 0.0)
        with np.errstate(all="ignore"):     # x_{K+1}, as _Rungs forms it
            x = beta[at] * (shapes.levels(step * (n + 1.0)) - e1)
            series = np.fmin(np.ceil((_XCUT_MARGIN - math.log(
                policy.rel_tol)) / x), policy.max_terms)
        n = 8.0 * (n + 1.0) + 24.0 * np.where(tailed & (n > 0), series + 1.0,
                                              0.0)
    size = np.zeros(len(row))
    size[at] = n
    return size[first][unit].reshape(-1, width).sum(axis=1)


def _failed(value):
    return isinstance(value, SzilardError)


def _sized(errors, at, lengths, max_terms):
    """The lengths _heads gives the entries at (an index array) of some
    columns, as an array: an entry whose length is an error, or past
    max_terms, takes that error or a TruncationError in errors (an _Errors
    over the columns), and length 0."""
    n = np.array([m if type(m) is int and m <= max_terms else 0
                  for m in lengths], dtype=np.intp)
    for i in (n == 0).nonzero()[0].tolist():
        m = lengths[i]
        errors.set(at[i], m if _failed(m) else _cap_error(m, max_terms))
    return n


class _Roots:
    """Roots and stage rows as columns (scalars broadcast): row j on the
    trap of row row[j] of a _TrapTable, with the barrier inserted[j] (a
    bool) or not, at temperature[j] (its beta, _betas'), ground level e1[j]
    (nan where its lookup fails, as a Morse well's may) and count[j]
    particles, each column as its caller gives it.  A grand-canonical root
    is on a harmonic or power-law trap, whose ground levels never fail;
    _Stages holds canonical and Morse stage rows in the same columns."""

    __slots__ = ("row", "inserted", "temperature", "beta", "e1", "count")

    def __init__(self, table, row, inserted, temperature, count):
        self.row, self.inserted, self.temperature, self.count = (
            np.broadcast_arrays(row, inserted, temperature, count))
        self.beta = _betas(self.temperature)
        self.e1 = table.e1[self.row, self.inserted.astype(np.intp)]

    def closed(self):
        """v = log1p(d_1/count), math's element by element: the closed
        form's beta (E_1 - mu), below which no root lies."""
        return np.array(list(map(math.log1p, ((1.0 + self.inserted)
                                              / self.count).tolist())))


def _point_columns(traps, counts, temperatures):
    """The _Roots columns (row, inserted, temperature, count) of points,
    point i the trap on row traps[i] with counts[i] particles at each of its
    row of temperatures[i] (a 2-d array or equal-length tuples): absent and
    inserted at each temperature in turn."""
    width = 2 * np.shape(temperatures)[1]
    return (np.repeat(traps, width),
            np.tile([False, True], len(traps) * width // 2),
            np.repeat(temperatures, 2), np.repeat(counts, width))


class _Stages(_Roots):
    """Canonical and Morse stage rows: the _Roots columns of units, whose
    beta is N/(k_B T) (inf where it overflows), each row with a head of
    head[k] levels and, where tailed[k], a closed-form tail after it;
    total[k] and energy[k] are its Boltzmann sum and energy sum once
    summed.  errors, an _Errors, is None or the SzilardError that stops
    row k."""

    __slots__ = ("head", "tailed", "total", "energy", "errors")

    def __init__(self, table, row, count, temperature):
        """The rows of units u, the trap on row[u] of table with count[u]
        particles at temperature[u] (arrays): absent, row 2u, and inserted,
        2u + 1 (_point_columns at one temperature).  A row takes the error
        of its ground level, else the EnsembleMismatchError of an N beta
        that overflows."""
        super().__init__(table, *_point_columns(
            row, count, np.reshape(temperature, (-1, 1))))
        with np.errstate(over="ignore"):
            self.beta = self.count * self.beta
        size = len(self.row)
        self.head = np.zeros(size, dtype=np.intp)
        self.tailed = np.zeros(size, dtype=bool)
        self.total, self.energy = (np.full(size, math.nan) for _ in range(2))
        self.errors = table.errors.take(2 * self.row + self.inserted)
        for j in (self.errors.live & np.isinf(self.beta)).nonzero()[0].tolist():
            self.errors.set(j, EnsembleMismatchError(
                f"N/(k_B T) overflows: N = {float(self.count[j]):.6g} at"
                f" {float(self.temperature[j]):.6g} K is past float range"))


def _series_sums(stages, at, table):
    """The Boltzmann stage sums of the rows at (an index array) of the
    _Stages stages, all of one barrier configuration, into stages.total and
    stages.energy.

    Each live row sums levels 1..n of its configuration, n its head, each
    weighed e^{-beta (E_n - E_1)}, once, with no tail test.  A whole ladder
    ends where d = beta (E_n - E_1) has passed x_cut = -log rel_tol +
    _XCUT_MARGIN, and there its last term against the sum, which holds the
    first term, 1, is below e^{-d}; a head leaves the rest to a closed-form
    tail (see _tail_sums).  The levels of every row are one _levels pass
    over the rows' traps on the _TrapTable table.  The energy sum, of E
    times each term, comes from the same flat arrays in one more
    reduceat.  A row whose levels level_energy refuses takes that error,
    and one whose sum is not finite (terms past float range) a
    SolverFailureError.
    """
    errors = stages.errors
    at, flat, energies = _levels(table, errors, at, stages.row,
                                 stages.inserted + 1, stages.head)
    if not len(at):
        return
    t = _boltzmann_terms(flat.spread(stages.beta[at]),
                         energies - flat.spread(stages.e1[at]))
    total = stages.total[at] = flat.sums(t)
    stages.energy[at] = flat.sums(np.multiply(energies, t, out=energies))
    for i in (~np.isfinite(total)).nonzero()[0].tolist():
        errors.set(at[i], SolverFailureError(
            f"series sum is {float(total[i])}, not finite: its terms leave"
            " float range"))


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
    number of at least 1 (nan, inf and an int past float range are not),
    or None."""
    return None if 1 <= count <= sys.float_info.max else (
        EnsembleMismatchError("particle count must be finite and at least 1"))


def _canonical_stages(table, row, count, temperature, policy):
    """canonical_stage_properties of many units, unit u the trap on row
    row[u] of the _TrapTable table with count[u] particles at
    temperature[u] (arrays), in both barrier configurations: the _Stages
    rows 2u (absent) and 2u + 1 (inserted), as columns (log sum, energy,
    errors), log sum and energy nan where errors holds the row's error.

    A row's error is the first it meets, in this order: its ground level's
    lookup, N beta = N/(k_B T) past float range (an
    EnsembleMismatchError), its head's estimate, a head past max_terms
    (TruncationErrors), its levels' lookup, a sum that is not finite and a
    sum not finite after its tail (SolverFailureErrors).  The heads of all
    rows are one _heads pass, their tails one _tails call, and the sums one
    _series_sums call per configuration, which keeps its flat arrays near
    the terms the batching counted (one call over both doubled them).
    The logged sums and energies are array expressions, each log math's,
    element by element.
    """
    stages = _Stages(table, row, count, temperature)
    errors = stages.errors
    at = errors.live.nonzero()[0]
    lengths, tailed = _heads(
        table.shapes.take(stages.row[at]), stages.inserted[at] + 1,
        stages.beta[at], stages.e1[at], policy)
    stages.head[at] = _sized(errors, at, lengths, policy.max_terms)
    stages.tailed[at] = tailed
    size = len(stages.row)
    for k in (0, 1):    # the absent rows, then the inserted ones
        _series_sums(stages, np.arange(k, size, 2), table)
    total, energy = stages.total, stages.energy
    at = (errors.live & stages.tailed).nonzero()[0]
    if len(at):
        rest, rest_energy = _tails(
            table.shapes.take(stages.row[at]), stages.inserted[at] + 1.0,
            stages.beta[at], stages.e1[at], stages.head[at].astype(float))
        with np.errstate(all="ignore"):     # as for Python floats
            total[at] += rest
            energy[at] += rest_energy
    ok = errors.live & (0.0 < total) & (total < math.inf) & np.isfinite(
        energy)
    for j in (errors.live & ~ok).nonzero()[0].tolist():
        errors.set(j, SolverFailureError(
            f"stage sum {float(total[j]):.6g} with energy sum"
            f" {float(energy[j]):.6g} after its tail is not finite: the"
            " ladder's terms leave float range"))
    at = ok.nonzero()[0]
    count = stages.count[at]
    log, mean = np.full(size, math.nan), np.full(size, math.nan)
    log[at] = (count * np.where(stages.inserted[at], math.log(2.0), 0.0)
               - stages.beta[at] * stages.e1[at]
               + list(map(math.log, total[at].tolist())))
    mean[at] = count * (energy[at] / total[at])
    return log, mean, errors


def _one_trap_stages(potential, count, temperature, read, policy):
    """read(absent, inserted) of the _canonical_stages rows of one trap on
    a one-row _TrapTable, each (log sum, energy) or its error; raised if
    read gives an error."""
    value_or_raise(_count_error(count))
    return value_or_raise(read(*(
        error or (float(value), float(u))
        for value, u, error in zip(*_canonical_stages(
            _TrapTable((potential,)), np.zeros(1, dtype=np.intp),
            np.array([count], dtype=float),
            np.array([temperature], dtype=float), policy)))))


def canonical_stage_properties(potential, barrier, count, temperature,
                               policy=TruncationPolicy()):
    """Log of the N-particle stage sum and its internal energy.

    The stage sum is sum_n (g e^{-beta E_n})^N = g^N sum_n e^{-N beta E_n};
    the energy is its -dlog/dbeta, an N-weighted Boltzmann average.  Ground
    energy is factored out so underflow never empties the sum, and at T -> 0
    the average collapses onto the lowest included level.  A bounded Morse
    ladder is summed completely up to its last bound level.  A long ladder
    is summed as an exact head plus a closed-form Euler-Maclaurin tail (see
    _heads).  One configuration of the one-trap case of _canonical_stages,
    which sums both.
    """
    _member(barrier, Barrier)
    return _one_trap_stages(potential, count, temperature,
                            lambda *pair: pair[barrier is Barrier.INSERTED],
                            policy)


def _cycle_sums(table, traps, counts, temperatures, policy):
    """Per point of a batch, the trap on row traps[i] of the _TrapTable
    table with counts[i] particles between the baths of row i of
    temperatures (an (n, 2) array, hot then cold), its stage terms as a
    row of an (n, 6) array: its log ratios, hot and cold, and its stage
    energies, U_A to U_D, nan where it fails; and an _Errors of the error
    of its first failing stage, A to D.  Each distinct (row, count, bath),
    found by _units, is one unit of _canonical_stages, which sizes and
    sums it once for every point that reads it: at its hot bath for
    stages A and B, at its cold one for C and D."""
    keys = (np.repeat(traps, 2), np.repeat(np.asarray(counts, dtype=float), 2),
            np.ravel(temperatures))
    first, unit = _units(*keys)
    log, energy, errors = _canonical_stages(
        table, *(key[first] for key in keys), policy)
    # stages A to D: the hot unit's rows absent and inserted, then the
    # cold one's inserted and absent
    rows = (2 * unit.reshape(-1, 2)[:, [0, 0, 1, 1]] + [0, 1, 1, 0]).ravel()
    log = log[rows].reshape(-1, 4)
    return (np.column_stack((log[:, 1] - log[:, 0], log[:, 2] - log[:, 3],
                             energy[rows].reshape(-1, 4))),
            errors.take(rows).first(4))


# ---------------------------------------------------------------------------
# grand-canonical bosons
#
# A grand-canonical sum runs over one rung, the ladder of a (trap, barrier,
# bath), at the rung's chemical potential: a head of K levels summed term
# by term, and a short k-series over the rung's mu-free tail moments (see
# _tail_sums).  _grand_rungs builds each distinct rung of a batch once, for
# every count that reads it, and every Newton round, occupancy re-check,
# log ratio and stage energy reuses them, each root reading its rung's
# columns by its index.  A batch's roots are columns (_Roots) from where
# they are formed to where their energies are summed: each result about
# them is an array aligned to the columns with one _Errors beside it, as
# _Rungs.errors is.

def _grand_rungs(table, roots, v, count, policy):
    """The _Rungs of the _Roots roots on table, row j root j's, summed at
    v[j] = beta (E_1 - mu) or above and solving for count[j] bosons, or inf
    for none (arrays; see _Rungs).  Roots of one row, barrier and beta read
    one rung, found by _units and built once: sized from its E_1 by one
    _heads pass over all the rungs, and only its head's levels computed,
    in one _levels pass over all the rungs (see _tail_sums).  A rung's
    error, the first of an estimate past float range, a head past
    max_terms and a level that cannot be built, is that of every root that
    reads it, whose rung is then -1; a power-law k-series past max_terms
    is its root's."""
    first, unit = _units(roots.row, roots.inserted, roots.beta)
    row, stride = roots.row[first], roots.inserted[first] + 1
    shapes, g = table.shapes.take(row), stride.astype(float)
    beta, e1 = roots.beta[first], roots.e1[first]
    lengths, tailed = _heads(shapes, g, beta, e1, policy)
    failed, at = _Errors(len(first)), np.arange(len(first))     # per rung
    head = _sized(failed, at, lengths, policy.max_terms)
    kept, flat, levels = _levels(table, failed, at, row, stride, head)
    rung = np.full(len(first), -1)
    rung[kept] = np.arange(len(kept))
    return _Rungs(rung[unit], failed.take(unit), g[kept], beta[kept],
                  e1[kept], tailed[kept], flat, levels, shapes.take(kept), v,
                  np.asarray(count, dtype=float),
                  _XCUT_MARGIN - math.log(policy.rel_tol), policy.max_terms)


def _rung_sums(rungs, rows, mu, kind):
    """Per row of rungs in `rows` (an index array) at its chemical
    potential in mu (an array aligned to rows): the first sum of
    _Heads.sums of `kind`, an array, nan where the row fails; and per row
    None or its error: the row's own, or a SolverFailureError where the
    sum is not finite; the heads are _Rungs.gather's."""
    errors = rungs.errors.take(rows)
    out = np.full(len(rows), math.nan)
    live = errors.live.copy()
    if live.any():
        at, place = rows[live], live.nonzero()[0]
        m = rungs.rung[at]
        d = rungs.e1[m] - mu[live]
        heads = rungs.gather(at)
        with np.errstate(over="ignore"):    # v is inf for a mu far below E_1
            out[live] = heads.sums(rungs.beta[m] * d, kind, d)[0]
        if kind == "energy":    # the heads' last sum: end their cycle
            rungs.summed = None
        for i in place[~np.isfinite(out[live])].tolist():
            errors.set(i, SolverFailureError(f"series sum is {float(out[i])},"
                                             " not finite: its terms leave"
                                             " float range"))
        for i, n in heads.refused.items():  # a refused row's sum is nan
            errors.set(place[i], _cap_error(n, rungs.max_terms))
    return out, errors


def _mu_offsets(counts, rungs):
    """Roots u = log(beta (E_1 - mu)) of the occupancy constraint on the
    rows of the _Rungs rungs, row j of counts[j] bosons (an array): u as an
    array, and per row None or its error (an _Errors).

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
    step's end within rounding of the root.  The roots that stop or fail
    leave the arrays, and their heads leave the call's one _Heads by a mask
    (_Heads.keep), so each row keeps the bits of its own evaluation.
    """
    errors = rungs.errors.copy()
    out = np.zeros(len(errors))
    rows = errors.live.nonzero()[0]
    d1 = rungs.g[rungs.rung[rows]]
    count = np.asarray(counts, dtype=float)[rows]
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
                out[rows[ends]] = u_next[ends]
                for failed, message in (
                        (lost, "no lower bracket for the occupancy root"),
                        (late, "occupancy root did not converge")):
                    for j in rows[failed].tolist():
                        errors.set(j, SolverFailureError(message))
                for i, n in heads.refused.items():
                    errors.set(rows[i], _cap_error(n, rungs.max_terms))
                keep = ~ends
                rows, d1, count, log_count, near, far, u_next, step, \
                    rounds = (a[keep] for a in (rows, d1, count, log_count,
                                                near, far, u_next, step,
                                                rounds))
                heads.keep(keep)
            u = u_next
    return out, errors


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


def _chemical_potentials(table, roots, mode, policy, rungs=None):
    """Chemical potentials of the _Roots roots on table in `mode`: mu, an
    array, and per root None or its error; a live mu is below its E_1.
    CLOSED_FORM is E_1 - k_B T v (v from _Roots.closed); SOLVED runs every
    root through one Newton loop (see _mu_offsets) on the _Rungs of the
    roots, root j on row j (built here, summed from v on, where not given),
    and re-sums the occupancy at each mu, which must recover count to
    1e-10.  mu, its test against E_1 and that check are array expressions,
    mu's exp math's; only a failing root builds its message in Python."""
    if mode is MuMode.CLOSED_FORM:
        mu = roots.e1 - K_B * roots.temperature * roots.closed()
        errors = _Errors(len(mu))
    elif mode is MuMode.SOLVED:
        if rungs is None:
            rungs = _grand_rungs(table, roots, roots.closed(), roots.count,
                                 policy)
        u, errors = _mu_offsets(roots.count, rungs)
        live = errors.live
        u[live] = list(map(math.exp, u[live].tolist()))
        mu = roots.e1 - K_B * roots.temperature * u
    else:
        errors = _Errors(len(roots.row))
        for j in range(len(errors)):
            errors.set(j, EnsembleMismatchError(
                f"unknown chemical-potential mode {mode!r}"))
        return np.zeros(len(errors)), errors
    for j in (errors.live & ~(mu < roots.e1)).nonzero()[0].tolist():
        errors.set(j, _below_ground(float(mu[j]), float(roots.e1[j])))
    if mode is MuMode.SOLVED:
        rows = errors.live.nonzero()[0]
        total, failed = _rung_sums(rungs, rows, mu[rows], "occupancy")
        count = roots.count[rows].astype(float)
        off = np.abs(total - count) > 1e-10 * count
        for i in (off | ~failed.live).nonzero()[0].tolist():
            j = rows[i]
            errors.set(j, failed[i] or SolverFailureError(
                f"occupancy root off by"
                f" {float(abs(total[i] - count[i]) / count[i]):.3g} relative"
                + _offset_ulps(float(mu[j]), float(roots.e1[j]))))
    return mu, errors


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


def _member(value, kind):
    """value, if a member of the enum kind; else, a member's value too, an
    EnsembleMismatchError."""
    if isinstance(value, kind):
        return value
    raise EnsembleMismatchError(f"expected a {kind.__name__}, got {value!r}")


def occupancy_total(potential, barrier, mu, temperature, policy=TruncationPolicy()):
    """Mean boson number sum_n g/(e^{beta(E_n - mu)} - 1) at fixed mu."""
    _require_power_family(potential, "grand-canonical occupancy")
    table = _TrapTable((potential,))
    mu = value_or_raise(_below_ground(
        mu, float(table.e1[0, int(_member(barrier, Barrier)
                                  is Barrier.INSERTED)])))
    return value_or_raise(_one_trap_sums(table, ((barrier, mu),), temperature,
                                         "occupancy", policy, float))


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
    return value_or_raise(_one_trap_mus(
        potential, count, temperature, (_member(barrier, Barrier),), mode,
        policy, float))


def chemical_potentials(potential, count, temperature, mode,
                        policy=TruncationPolicy()):
    """Solve both barrier configurations at one bath temperature, at once."""
    return value_or_raise(_one_trap_mus(
        potential, count, temperature, tuple(Barrier), mode, policy,
        lambda pre, post: ChemicalPotentials(pre, post, temperature, count,
                                             mode)))


def _one_trap_mus(potential, count, temperature, barriers, mode, policy,
                  read):
    """read(*mus) of the chemical potentials of `count` bosons at
    `temperature` in each of `barriers`, on the columns of one trap's roots,
    after every mode's checks; or the first error, which the caller
    raises."""
    _require_power_family(potential, "the chemical potential")
    value_or_raise(_count_error(count))
    table = _TrapTable((potential,))
    mu, errors = _chemical_potentials(table, _Roots(
        table, 0, [barrier is Barrier.INSERTED for barrier in barriers],
        temperature, count), mode, policy)
    return errors.first(len(mu))[0] or read(*mu.tolist())


def _bath_ratios(table, traps, counts, temperatures, mode, policy):
    """Chemical potentials and log ratios of grand-canonical points, point
    i the trap on row traps[i] of table with counts[i] bosons at each of
    its row of temperatures[i] (all of one length k), whose roots, the
    columns of _point_columns, one _chemical_potentials call solves in
    `mode`.  Returns mu, over the roots; the log ratios, a (points, k)
    array, each sum log(1 - e^{-x_pre}) - 2 sum log(1 - e^{-x_post}) over
    its two rungs; per point None, or the error of its first failing root,
    else of its first failing log ratio; and the _Rungs, each built once
    for every count that reads it (see _grand_rungs)."""
    k = len(temperatures[0])
    roots = _Roots(table, *_point_columns(traps, counts, temperatures))
    rungs = _grand_rungs(table, roots, roots.closed(), roots.count if mode is
                         MuMode.SOLVED else np.full(2 * k * len(traps),
                                                    math.inf), policy)
    mu, errors = _chemical_potentials(table, roots, mode, policy, rungs)
    out = errors.first(2 * k)
    live = out.live.copy()
    rows = np.repeat(live, 2 * k).nonzero()[0]
    logs, failed = _rung_sums(rungs, rows, mu[rows], "log")
    ratios = np.full((len(out), k), math.nan)
    ratios[live] = (logs[::2] - 2.0 * logs[1::2]).reshape(-1, k)
    points, failed = live.nonzero()[0], failed.first(2 * k)
    for i in (~failed.live).nonzero()[0].tolist():
        out.set(points[i], failed[i])
    return mu, ratios, out, rungs


def _grand_sums(table, traps, counts, temperatures, mode, policy):
    """Per point of a batch, the trap on row traps[i] of table with
    counts[i] bosons between the baths of row i of temperatures: its terms
    of _cycle_sums, then its chemical potentials, absent and inserted at
    its hot bath, then at its cold one, as a row of an (n, 10) array; its
    error that of _bath_ratios at (hot, cold), else of its first failing
    energy, A to D.  Each energy is summed on its rung at its mu, read
    from the mu array."""
    mu, ratios, errors, rungs = _bath_ratios(table, traps, counts,
                                             temperatures, mode, policy)
    live = errors.live.nonzero()[0]
    rows = (4 * live[:, None] + np.arange(4)).ravel()
    sums, failed = _rung_sums(rungs, rows, mu[rows], "energy")
    # a point's roots are absent and inserted at its hot bath, then at its
    # cold one: stages A, B, D and C, read here in stage order
    stages = (4 * np.arange(len(live))[:, None] + [0, 1, 3, 2]).ravel()
    energies = np.full((len(errors), 4), math.nan)
    energies[live] = sums[stages].reshape(-1, 4)
    failed = failed.take(stages).first(4)
    for i in (~failed.live).nonzero()[0].tolist():
        errors.set(int(live[i]), failed[i])
    return np.column_stack((ratios, energies, mu.reshape(-1, 4))), errors


def _checked_rungs(potential, mu_pair, temperature):
    """The one-row _TrapTable of a trap and the (barrier, mu) rungs, absent
    then inserted, of a pair solved at `temperature` whose mus lie below
    their ground levels (see _below_ground); or None for a Morse well,
    which takes no pair; raises otherwise."""
    if isinstance(potential, Morse):
        if mu_pair is not None:
            raise EnsembleMismatchError(
                "the Morse cycle is canonical; no chemical potentials apply")
        return None
    if mu_pair is None:
        raise EnsembleMismatchError("bosonic sums need chemical potentials")
    table = _TrapTable((potential,))
    rungs = tuple((b, value_or_raise(_below_ground(mu, float(table.e1[0, k]))))
                  for k, (b, mu) in enumerate((
                      (Barrier.ABSENT, mu_pair.pre_insertion),
                      (Barrier.INSERTED, mu_pair.post_insertion))))
    if mu_pair.temperature != temperature:
        raise EnsembleMismatchError(
            "chemical potentials were solved at a different temperature")
    return table, rungs


def _one_trap_sums(table, rungs, temperature, kind, policy, read):
    """read(*sums) of the _rung_sums of kind over (barrier, mu) rungs, each
    mu below its ground level, of the trap of a one-row _TrapTable (roots
    of no count, each summed from its own v = beta (E_1 - mu)), or the
    first error, which the caller raises."""
    roots = _Roots(table, 0, [b is Barrier.INSERTED for b, _ in rungs],
                   temperature, math.inf)
    mu = np.array([mu for _, mu in rungs], dtype=float)
    with np.errstate(over="ignore"):    # v is inf for a mu far below E_1
        v = roots.beta * (roots.e1 - mu)
    sums, errors = _rung_sums(_grand_rungs(table, roots, v, roots.count,
                                           policy), np.arange(len(mu)), mu,
                              kind)
    return errors.first(len(mu))[0] or read(*sums.tolist())


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
    if checked is None:     # the inserted stage's error first
        return _one_trap_stages(
            potential, 1, temperature, lambda pre, post: next(
                filter(_failed, (post, pre)), None) or post[0] - pre[0],
            policy)
    return value_or_raise(_one_trap_sums(*checked, temperature, "log",
                                         policy,
                                         lambda pre, post: pre - 2.0 * post))


def internal_energy(stage, potential, mu_pair, baths, policy=TruncationPolicy()):
    """Internal energy of one cycle stage in J.

    Bosonic stages evaluate the occupancy-weighted sum
        sum_n g (E_n - mu) / (e^{beta(E_n - mu)} - 1)
    with the barrier configuration, bath temperature, and chemical potential
    the stage dictates.  Morse stages are plain Boltzmann averages.
    """
    barrier, bath = _STAGES[_member(stage, Stage)]
    temperature = getattr(baths, bath)
    checked = _checked_rungs(potential, mu_pair, temperature)
    if checked is None:
        return canonical_stage_properties(potential, barrier, 1, temperature,
                                          policy)[1]
    table, rungs = checked
    return value_or_raise(_one_trap_sums(
        table, (rungs[barrier is Barrier.INSERTED],), temperature, "energy",
        policy, float))
