"""Partition-function machinery for the four cycle stages.

Three statistical treatments share this module:

* canonical N-particle sums over harmonic / power-law ladders, evaluated
  exactly as sums of per-level N-th powers with the 2^N degeneracy factor in
  the barrier-inserted stages;
* grand-canonical bosons with a chemical potential per barrier configuration,
  each bound to the temperature of the bath it serves; grand_stage_sums
  produces a batch's chemical potentials in every MuMode, from its ground
  levels, together with its stage sums;
* the single-particle Morse cycle, which is canonical and needs no chemical
  potential: its stage sums are the canonical ones at count 1, capped at the
  bound-state ladder.

Every route sums many traps at once, as one numpy pass per step over all
their ladders.  ladder_batches splits a run of traps into consecutive
batches of a bounded number of estimated ladder terms, at the canonical
decay rate N beta of the hot bath (beta for the grand route) and at most a
Morse well's bound count, and looks up each trap's two ground levels once
for every sum of its batch.

Stage labels follow the cycle diagram: A = barrier absent at the hot bath,
B = inserted at the hot bath, C = inserted at the cold bath, D = absent at
the cold bath.

Every level sum of the three routes runs through one series engine,
_series_sums.  A cutoff index is estimated from the exponential decay of the
terms, the tail is verified against the policy's rel_tol (a Morse ladder
summed to its last bound level needs none), and exceeding max_terms while
terms still matter raises TruncationError rather than silently capping.  A
trap's sums share its ladders: each barrier's is built once, as long as the
longest sum needs, and shorter sums take prefixes of it.
"""

import math
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import K_B
from .errors import (ConvergenceViolationError, EnsembleMismatchError,
                     SolverFailureError, SzilardError, TruncationError,
                     value_or_raise)
from .potentials import (Barrier, Harmonic, Morse, PowerLaw, level_energy,
                         omega_prefactor)

__all__ = [
    "BathPair", "TruncationPolicy", "MuMode", "ChemicalPotentials", "Stage",
    "canonical_stage_properties", "canonical_stage_sums",
    "chemical_potential", "chemical_potentials", "occupancy_total",
    "log_relative_partition", "internal_energy", "ladder_batches",
    "grand_stage_sums",
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
        for temperature in (self.hot, self.cold):
            _beta(temperature)      # raises where 1/(k_B T) overflows


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


def _degeneracy(barrier):
    """Level degeneracy: every inserted level is doubly degenerate."""
    return 2.0 if barrier is Barrier.INSERTED else 1.0


# ---------------------------------------------------------------------------
# truncated series evaluation
#
# _series_sums evaluates many segments, each one (trap, barrier, beta)
# series, with their ladders laid end to end in one flat array (_Segments):
# each elementwise step is one numpy pass over all of them, while per-segment
# logic (cutoff estimates, Newton updates, stop tests) stays in Python floats.
# A batched value equals the one-segment value bit for bit, and a failing
# segment yields its SzilardError in place of a value.

def _first_index_beyond(potential, barrier, beta, mu, x_cut):
    """Estimate the first index whose exp(-beta(E_n - mu)) factor is dead.

    Inverts E(n) = x_cut/beta + max(mu, 0) for n; a target above the top of
    a Morse well gives inf, every bound level.  An estimate past float range
    (a power-law exponent near zero) raises TruncationError: no term cap
    admits that ladder.
    """
    target = x_cut / beta + max(mu, 0.0)
    step = 2.0 if barrier is Barrier.INSERTED else 1.0
    try:
        if isinstance(potential, Morse):
            chi, q = potential.anharmonicity, potential.quantum
            disc = 1.0 - 4.0 * chi * target / q
            if disc <= 0.0:
                return math.inf
            s = target / q if chi == 0.0 else (1 - math.sqrt(disc)) / (2 * chi)
        else:
            power = (potential.level_power if isinstance(potential, PowerLaw)
                     else 1.0)
            s = (target / omega_prefactor(potential)) ** (1.0 / power)
        return max(8, int(math.ceil((s - 0.5) / step)) + 2)
    except OverflowError:
        raise TruncationError(
            "series cutoff estimate overflows: the ladder needs more terms"
            " than any cap") from None


def _cutoff(potential, rungs):
    """The last index of every rung's ladder: inf unless a finite Morse well
    bounds them, at its bound count (half of it with the barrier in)."""
    cap = potential.bound_count if isinstance(potential, Morse) else None
    if cap is None:
        return math.inf
    return min(cap // 2 if barrier is Barrier.INSERTED else cap
               for barrier, _ in rungs)


def _x_cut(policy):
    return -math.log(policy.rel_tol) + _XCUT_MARGIN


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


def _ground_levels(potential):
    """E_1 of both barrier configurations, by barrier: each the level or
    the SzilardError its lookup raises."""
    grounds = {}
    for barrier in Barrier:
        try:
            grounds[barrier] = level_energy(potential, 1, barrier)
        except SzilardError as exc:
            grounds[barrier] = exc.with_traceback(None)
    return grounds


# A batch of traps is closed once its estimated ladder terms reach this;
# it bounds the size of the flat arrays, which would otherwise grow with
# the whole run.
_BATCH_TERMS = 8192


def ladder_batches(potentials, count, temperature, policy=TruncationPolicy()):
    """Split traps into consecutive batches for the batched stage sums.

    Returns (traps, grounds) per batch, grounds[i] holding trap i's ground
    levels by barrier (each E_1 or the error of its lookup): they are looked
    up here, once per trap, and every sum of the batch starts from them.  A
    batch is closed once the barrier-free ladders of its traps are estimated
    to reach _BATCH_TERMS terms, each from its ground level at the decay rate
    count * beta of `temperature` (a canonical N-particle stage; the grand
    sums, whose mu approaches E_1, pass count 1) and at most a Morse well's
    bound count.  A trap whose estimate fails counts as none (its batch
    reports the error).
    """
    beta = count * _beta(temperature)
    x_cut = _x_cut(policy)
    batches, batch, grounds, terms = [], [], [], 0
    for potential in potentials:
        batch.append(potential)
        grounds.append(_ground_levels(potential))
        e1 = grounds[-1][Barrier.ABSENT]
        if not _failed(e1):
            try:
                terms += min(_first_index_beyond(potential, Barrier.ABSENT,
                                                 beta, e1, x_cut),
                             _cutoff(potential, ((Barrier.ABSENT, e1),)))
            except SzilardError:
                pass        # the batch reports it
        if terms >= _BATCH_TERMS:
            batches.append((batch, grounds))
            batch, grounds, terms = [], [], 0
    if batch:
        batches.append((batch, grounds))
    return batches


class _Segments:
    """Ladders of different lengths laid end to end, each behind one slot.

    np.sum adds the pairwise sum of its array to 0.0, while np.add.reduceat
    adds the pairwise sum of the rest of each segment to its first element.
    Leading every segment with a slot that holds 0.0 makes the two agree bit
    for bit, so a segment's batched sum equals its own np.sum.  A single
    segment needs no slot: it is summed by np.sum itself, and its
    per-segment values stay scalars.
    """

    def __init__(self, lengths):
        self.single = len(lengths) == 1
        if self.single:
            self.last = slice(-1, None)
        else:
            self.lengths = np.asarray(lengths, dtype=np.intp)
            self.width = self.lengths + 1
            self.slots = np.zeros(len(self.lengths), dtype=np.intp)
            np.cumsum(self.width[:-1], out=self.slots[1:])
            self.last = self.slots + self.lengths

    def join(self, ladders):
        """The ladders as one flat array.

        Each slot repeats its ladder's first value, so every term function
        stays finite there; sums() zeroes the slots of the terms.
        """
        if self.single:
            return ladders[0]
        return np.concatenate([part for ladder in ladders
                               for part in (ladder[:1], ladder)])

    def spread(self, values):
        """One value per segment, repeated over its slot and ladder."""
        if self.single:
            return values[0]
        return np.repeat(values, self.width)

    def sums(self, terms):
        """Each segment's sum of terms; overwrites the slots with 0.0."""
        if self.single:
            return np.add.reduce(terms, keepdims=True)    # what np.sum runs
        terms[self.slots] = 0.0
        return np.add.reduceat(terms, self.slots)


def _failed(value):
    return isinstance(value, SzilardError)


def _one_sum(segment, terms, policy):
    """The sum of one _series_sums segment, or its error raised."""
    return value_or_raise(_series_sums([segment], terms, policy, {})[0])[0]


def _series_sums(segments, terms, policy, levels):
    """Converged sums of many truncated series at once.

    A segment is (potential, rungs, beta) with rungs ((barrier, mu), ...):
    its series runs over levels 1..n of every rung's barrier configuration
    at once.  n starts at the largest of the rungs' cutoff estimates (at
    least 8), and doubles until the last term is negligible against the
    summed magnitudes; more than max_terms terms, or a fifth try, is a
    TruncationError.  A bounded (Morse) ladder is clipped at its cutoff, and
    a segment that reaches it is a complete sum, taken without a tail test.
    terms(beta, [(g, E - mu) per rung]) maps the joined ladders to their
    flat terms, with the degeneracy g spread over them.  `levels` holds the
    level ladders built so far (see _level_ladders), so sums over the same
    traps can share them.  Returns, per segment, (sum, its ladders, its
    terms) or the SzilardError it hit.
    """
    x_cut = _x_cut(policy)
    out, sizes, caps = [None] * len(segments), {}, {}
    for j, (potential, rungs, beta) in enumerate(segments):
        try:
            n_first = max(_first_index_beyond(potential, barrier, beta, mu, x_cut)
                          for barrier, mu in rungs)
        except SzilardError as exc:
            out[j] = exc.with_traceback(None)
        else:
            caps[j] = _cutoff(potential, rungs)
            sizes[j] = min(n_first, caps[j])
    for attempt in range(5):        # the fifth attempt raises
        for j in [j for j in sizes if attempt == 4 or sizes[j] > policy.max_terms]:
            n = sizes.pop(j)
            out[j] = TruncationError(
                "series failed to converge within the retry budget" if attempt == 4
                else f"series needs {n} terms, policy caps at {policy.max_terms}")
        rows = list(sizes)
        counts = [sizes[j] for j in rows]
        if not rows:
            break
        ladders = _level_ladders([segments[j] for j in rows], counts, levels)
        flat = _Segments(counts)
        rungs = zip(*(segments[j][1] for j in rows))
        t = terms(flat.spread([segments[j][2] for j in rows]),
                  [(flat.spread([_degeneracy(barrier) for barrier, _ in rung]),
                    flat.join([ladder[k] for ladder in ladders])
                    - flat.spread([mu for _, mu in rung]))
                   for k, rung in enumerate(rungs)])
        settled = np.abs(t[flat.last]) <= policy.rel_tol * np.maximum(
            flat.sums(np.abs(t)), 1e-300)
        totals = flat.sums(t)
        for i, j in enumerate(rows):
            if sizes[j] >= caps[j] or settled[i]:
                out[j] = (float(totals[i]), ladders[i], t if flat.single
                          else t[flat.slots[i] + 1:flat.last[i] + 1])
                del sizes[j]
            else:
                sizes[j] = min(2 * sizes[j], caps[j])
    return out


def _totals(results):
    """The sums of _series_sums results, errors passed through."""
    return [r if _failed(r) else r[0] for r in results]


def _level_ladders(segments, sizes, levels):
    """Levels 1..n of each _series_sums segment, one array per rung.

    levels maps (id(trap), id(barrier)) to that ladder (ids: an Enum hashes
    in Python); it is built, or built again longer, only when a request
    outgrows it, and every rung takes a prefix of it (level_energy is
    elementwise, so a prefix has the bits of a shorter ladder).
    """
    reach = {}
    for (potential, rungs, _), n in zip(segments, sizes):
        for barrier, _ in rungs:
            key = id(potential), id(barrier)
            if reach.get(key, (0,))[0] < n:
                reach[key] = n, potential, barrier
    for key, (n, potential, barrier) in reach.items():
        if len(levels.get(key, ())) < n:
            levels[key] = level_energy(potential, np.arange(1, n + 1), barrier)
    return [[levels[id(p), id(barrier)][:n] for barrier, _ in rungs]
            for (p, rungs, _), n in zip(segments, sizes)]


# The terms of each series, from beta and per rung the degeneracy g and the
# gap E - mu, with x = beta (E - mu).  They overwrite their arguments, which
# keeps a batch's peak memory low.

def _clip(x):
    """x clipped in place to [1e-300, _EXP_CLIP], where expm1 is safe."""
    return np.minimum(np.maximum(x, 1e-300, out=x), _EXP_CLIP, out=x)


def _boltzmann_terms(beta, rungs):
    """e^{-x}: the canonical weights at beta = N/(k_B T) and mu = E_1, and
    the mu -> -inf limit of every occupation."""
    (_, gap), = rungs
    gap *= beta
    return np.exp(np.negative(gap, out=gap), out=gap)


def _occupancy_terms(beta, rungs):
    """g / (e^x - 1), the mean occupation."""
    (g, gap), = rungs
    x = _clip(beta * gap)
    return np.divide(g, np.expm1(x, out=x), out=x)


def _energy_terms(beta, rungs):
    """g (E - mu) / (e^x - 1), the occupation-weighted energy."""
    (g, gap), = rungs
    x = _clip(beta * gap)
    np.expm1(x, out=x)
    gap *= g
    return np.divide(gap, x, out=gap)


def _log_ratio_terms(beta, rungs):
    """log(1 - e^{-x_pre}) - 2 log(1 - e^{-x_post}), x clipped above."""
    (_, pre), (_, post) = rungs
    for gap in (pre, post):
        gap *= beta
        np.minimum(gap, _EXP_CLIP, out=gap)
        np.exp(np.negative(gap, out=gap), out=gap)
        np.log1p(np.negative(gap, out=gap), out=gap)
    post *= 2.0
    pre -= post
    return pre


# ---------------------------------------------------------------------------
# canonical N-particle sums (harmonic / power-law ladders, Morse at N = 1)

def _require_power_family(potential, who):
    if not isinstance(potential, (Harmonic, PowerLaw)):
        raise EnsembleMismatchError(f"{who} needs a harmonic or power-law trap")


def _canonical_stages(traps, grounds, barrier, count, temperature, policy,
                      levels):
    """canonical_stage_properties of many traps in one barrier configuration
    at one bath, as one _series_sums call on the ladders in `levels`, from
    each trap's ground level there (or its error): (log sum, energy) or the
    error, each."""
    beta = count * _beta(temperature)      # N beta
    out = list(grounds)
    rows = [j for j, e1 in enumerate(grounds) if not _failed(e1)]
    segments = [(traps[j], ((barrier, grounds[j]),), beta) for j in rows]
    # an N beta that overflows makes the ground term inf * 0 = nan; on an
    # unbounded ladder a nan sum never passes the tail test, so it ends as a
    # TruncationError and its warning says nothing more
    quiet = math.isinf(beta) and all(_cutoff(p, rungs) == math.inf
                                     for p, rungs, _ in segments)
    with np.errstate(invalid="ignore") if quiet else nullcontext():
        results = _series_sums(segments, _boltzmann_terms, policy, levels)
    log_g = count * math.log(_degeneracy(barrier))
    for j, result in zip(rows, results):
        if _failed(result):
            out[j] = result
            continue
        total, (e,), w = result
        out[j] = (log_g - beta * grounds[j] + math.log(total),
                  count * (float(np.sum(e * w)) / total))
    return out


def canonical_stage_properties(potential, barrier, count, temperature,
                               policy=TruncationPolicy()):
    """Log of the N-particle stage sum and its internal energy.

    The stage sum is sum_n (g e^{-beta E_n})^N = g^N sum_n e^{-N beta E_n};
    the energy is its -dlog/dbeta, an N-weighted Boltzmann average.  Ground
    energy is factored out so underflow never empties the sum, and at T -> 0
    the average collapses onto the lowest included level.  A bounded Morse
    ladder is summed completely up to its last bound level.  The one-stage
    case of canonical_stage_sums.
    """
    return value_or_raise(_canonical_stages(
        (potential,), (level_energy(potential, 1, barrier),), barrier, count,
        temperature, policy, {})[0])


def canonical_stage_sums(potentials, grounds, count, baths,
                         policy=TruncationPolicy()):
    """Per-bath log ratios and the four stage energies of canonical traps.

    potentials and grounds are a batch as ladder_batches returns it.  Each
    trap gets (log ratio hot, log ratio cold, (U_A, U_B, U_C, U_D)), or the
    error of its first failing stage, A to D.  Each stage is one _series_sums
    call over the traps still without an error, and the four share the
    traps' ladders: each barrier's is built once, at the hot bath, and the
    cold stages sum prefixes of it.
    """
    out, levels = [() for _ in potentials], {}
    for stage in Stage:
        barrier, temperature = _stage_config(stage, baths)
        live = [i for i, sums in enumerate(out) if not _failed(sums)]
        stages = _canonical_stages(
            [potentials[i] for i in live], [grounds[i][barrier] for i in live],
            barrier, count, temperature, policy, levels)
        for i, sums in zip(live, stages):
            out[i] = sums if _failed(sums) else (*out[i], sums)
    return [sums if _failed(sums) else
            (sums[1][0] - sums[0][0], sums[2][0] - sums[3][0],
             tuple(u for _, u in sums))
            for sums in out]


# ---------------------------------------------------------------------------
# grand-canonical bosons
#
# Every grand-canonical quantity is a _series_sums sum over the ladder of one
# (trap, barrier, bath) segment, and runs for many traps at once; the public
# one-trap functions are one-segment calls of the same code.

def _mu_offsets(roots, count, policy, levels):
    """Roots u = log(beta (E_1 - mu)) of the occupancy constraint for many
    (potential, barrier, temperature, E_1, d_1) roots; a root or an error
    each.

    Each ladder is built once, as long as mu -> E_1 needs, and its tail is
    checked in the mu -> -inf (Boltzmann) limit, whose last-term ratio bounds
    the one at every mu below E_1.  With n = g/expm1(beta(E - E_1) + e^u)
    (g = d_1 on every level), Newton runs on log N(u) - log count with the
    slope dlog N/du = -e^u sum n (1 + n/g) / N, from the closed-form u,
    inside the bracket [log log(1 + d_1/(1e9 count)), k log 2] (k from
    doubling); a step that leaves the bracket bisects it (rtsafe, Numerical
    Recipes 9.4).  Every round evaluates all roots in one ladder pass; each
    root's bracket, step and stop test are its own.
    """
    out = _series_sums([(p, ((barrier, e1),), _beta(temperature))
                        for p, barrier, temperature, e1, _ in roots],
                       _boltzmann_terms, policy, levels)
    rows = [j for j, result in enumerate(out) if not _failed(result)]
    if not rows:
        return out
    flat = _Segments([len(out[j][1][0]) for j in rows])
    x = flat.spread([_beta(roots[j][2]) for j in rows]) * (
        flat.join([out[j][1][0] for j in rows])
        - flat.spread([roots[j][3] for j in rows]))
    g = flat.spread([roots[j][4] for j in rows])
    log_count = math.log(count)
    live = [_Root(j, roots[j][4], count) for j in rows]
    # an occupation past 1e154 overflows n (1 + n/g) to inf, which makes
    # the step 0: the root stops there, and like every root it is then
    # checked against mu < E_1 and its occupancy re-sum
    with np.errstate(over="ignore"):
        while live:
            shift = [math.exp(root.u) for root in live]
            n = x + flat.spread(shift)
            np.expm1(_clip(n), out=n)
            np.divide(g, n, out=n)
            weight = n / g          # n (1 + n/g), without a second temporary
            weight += 1.0
            weight *= n
            weight = flat.sums(weight).tolist()
            totals = flat.sums(n).tolist()
            keep = [True] * len(live)
            for i, root in enumerate(live):
                if totals[i] == 0.0:  # every term underflowed: N below any count
                    f, slope = -math.inf, math.nan
                else:
                    slope = -shift[i] * weight[i] / totals[i]
                    f = math.log(totals[i]) - log_count
                result = root.update(f, slope)
                if result is not None:
                    out[root.j] = result
                    keep[i] = False
            if not all(keep):         # drop settled roots from the ladder pass
                live = [root for root, kept in zip(live, keep) if kept]
                if live:
                    mask = flat.spread(keep)
                    flat = _Segments(flat.lengths[keep])
                    x, g = x[mask][flat.single:], g[mask][flat.single:]
    return out


class _Root:
    """Bracket and Newton state of one occupancy root in u.

    log N falls as u rises: it is positive at `near` and not positive at
    `far`.  `step` is k of the lower-bracket search at u = k log 2, None once
    Newton runs; `u` is where the root is evaluated next.
    """

    __slots__ = ("j", "d1", "count", "near", "far", "u", "step", "rounds")

    def __init__(self, j, d1, count):
        self.j, self.d1, self.count = j, d1, count
        y = d1 / (count * 1e9)      # 0.0 once count * 1e9 overflows
        self.near = math.log(math.log1p(y) if y else d1 / count / 1e9)
        self.far = self.u = 0.0
        self.step = 0
        self.rounds = 0

    def update(self, f, slope):
        """Take log N - log count and its slope at u; the root (or its
        SolverFailureError) once settled, else None."""
        u = self.u
        if self.step is not None:
            if f <= 0.0:
                self.far, self.step = u, None
                u = math.log(math.log1p(self.d1 / self.count))
                if not self.near < u < self.far:
                    u = 0.5 * (self.near + self.far)
            elif self.step == 199:
                return SolverFailureError(
                    "no lower bracket for the occupancy root")
            else:
                self.step += 1
                u = self.step * math.log(2.0)
            self.u = u
            return None
        self.rounds += 1
        if f == 0.0:
            return u
        if f > 0.0:
            self.near = u
        else:
            self.far = u
        u_next = u - f / slope
        if not self.near < u_next < self.far:
            u_next = 0.5 * (self.near + self.far)
        if abs(u_next - u) <= 4e-16 * max(1.0, abs(u)):
            return u_next
        if self.rounds == 200:
            return SolverFailureError("occupancy root did not converge")
        self.u = u_next
        return None


def _chemical_potentials(roots, count, mode, policy, levels):
    """Chemical potentials of (potential, barrier, temperature, E_1) roots in
    `mode`; a mu or an error each, every mu strictly below E_1.

    CLOSED_FORM is E_1 - k_B T log1p(d_1/count); SOLVED runs every root
    through one Newton loop (see _solved_mus) on the ladders in `levels`.
    """
    if mode is MuMode.SOLVED:
        return _solved_mus(roots, count, policy, levels)
    if mode is MuMode.CLOSED_FORM:
        return [_below_ground(e1 - K_B * temperature
                              * math.log1p(_degeneracy(barrier) / count), e1)
                for _, barrier, temperature, e1 in roots]
    return [EnsembleMismatchError(f"unknown chemical-potential mode {mode!r}")
            for _ in roots]


def _below_ground(mu, e1):
    """mu, or the ConvergenceViolationError of a mu that reaches E_1."""
    return mu if mu < e1 else ConvergenceViolationError(
        f"chemical potential {mu:.6g} J reaches the ground level {e1:.6g} J")


def _solved_mus(roots, count, policy, levels):
    """MuMode.SOLVED chemical potentials of (potential, barrier,
    temperature, E_1) roots; a mu or an error each.

    Each mu is strictly below E_1, and re-summing the occupancy there
    recovers count to 1e-10 relative.
    """
    out = _mu_offsets([(*root, _degeneracy(root[1])) for root in roots],
                      count, policy, levels)
    for j, u in enumerate(out):
        if not _failed(u):
            _, _, temperature, e1 = roots[j]
            out[j] = _below_ground(e1 - K_B * temperature * math.exp(u), e1)
    rows = [j for j, mu in enumerate(out) if not _failed(mu)]
    recovered = _occupancy_checks(
        [(roots[j][0], ((roots[j][1], out[j]),), _beta(roots[j][2]))
         for j in rows], policy, levels)
    for j, total in zip(rows, recovered):
        if _failed(total):
            out[j] = total
        elif abs(total - count) > 1e-10 * count:
            out[j] = SolverFailureError(
                f"occupancy root off by {abs(total - count) / count:.3g} relative")
    return out


def _occupancy_checks(segments, policy, levels):
    """The occupancy re-sums behind solved chemical potentials."""
    return _totals(_series_sums(segments, _occupancy_terms, policy, levels))


def occupancy_total(potential, barrier, mu, temperature, policy=TruncationPolicy()):
    """Mean boson number sum_n g/(e^{beta(E_n - mu)} - 1) at fixed mu."""
    _require_power_family(potential, "grand-canonical occupancy")
    return _one_sum((potential, ((barrier, mu),), _beta(temperature)),
                    _occupancy_terms, policy)


def chemical_potential(potential, count, temperature, barrier, mode,
                       policy=TruncationPolicy()):
    """Chemical potential for `count` bosons in one barrier configuration.

    CLOSED_FORM uses mu = E_1 - k_B T log(1 + d_1/count) with d_1 = 1 before
    insertion and 2 after.  SOLVED finds u = log(beta (E_1 - mu)) by a
    bracketed Newton step on one level ladder per solve (see _mu_offsets);
    working in u keeps the offset below E_1 resolved even when
    E_1 >> k_B T.  The occupancy at the returned mu is re-summed and verified
    to |dN/N| < 1e-10, and the result is always strictly below E_1.
    """
    _require_power_family(potential, "the chemical potential")
    if count < 1:
        raise EnsembleMismatchError("particle count must be at least 1")
    _beta(temperature)      # raises where 1/(k_B T) overflows, in every mode
    e1 = level_energy(potential, 1, barrier)
    return value_or_raise(_chemical_potentials(
        [(potential, barrier, temperature, e1)], count, mode, policy, {})[0])


def chemical_potentials(potential, count, temperature, mode,
                        policy=TruncationPolicy()):
    """Solve both barrier configurations at one bath temperature."""
    pre = chemical_potential(potential, count, temperature, Barrier.ABSENT,
                             mode, policy)
    post = chemical_potential(potential, count, temperature, Barrier.INSERTED,
                              mode, policy)
    return ChemicalPotentials(pre_insertion=pre, post_insertion=post,
                              temperature=temperature, count=count, mode=mode)


def grand_stage_sums(potentials, grounds, count, baths, mode,
                     policy=TruncationPolicy()):
    """Per-bath log ratios, the four stage energies and the chemical
    potentials of many grand-canonical traps.

    potentials and grounds are a batch as ladder_batches returns it.  All
    4 x len(potentials) chemical potentials are produced together in `mode`,
    from the batch's ground levels (see _chemical_potentials), and the
    roots, log ratios and stage energies share each trap's ladders.  Each
    trap gets (log ratio hot, log ratio cold, (U_A, U_B, U_C, U_D),
    (hot, cold) ChemicalPotentials), or the error of its first failing root
    in the order chemical_potentials solves them, else of its first failing
    sum in the order log_relative_partition (hot, cold) and internal_energy
    (A to D) would run them.
    """
    roots = [(potential, barrier, temperature, ground[barrier])
             for potential, ground in zip(potentials, grounds)
             for temperature in (baths.hot, baths.cold)
             for barrier in (Barrier.ABSENT, Barrier.INSERTED)]
    levels = {}
    mus = _chemical_potentials(roots, count, mode, policy, levels)
    pairs = []
    for i in range(len(potentials)):
        four = mus[4 * i:4 * i + 4]
        pairs.append(next((m for m in four if _failed(m)), None) or tuple(
            ChemicalPotentials(pre_insertion=pre, post_insertion=post,
                               temperature=temperature, count=count, mode=mode)
            for pre, post, temperature in ((*four[:2], baths.hot),
                                           (*four[2:], baths.cold))))
    out = list(pairs)
    live = [i for i, pair in enumerate(out) if not _failed(pair)]
    ratios = _totals(_series_sums(
        [(potentials[i], _both_rungs(mus), _beta(mus.temperature))
         for i in live for mus in pairs[i]], _log_ratio_terms, policy, levels))
    for k, i in enumerate(live):
        l_hot, l_cold = ratios[2 * k:2 * k + 2]
        out[i] = next((r for r in (l_hot, l_cold) if _failed(r)), (l_hot, l_cold))
    live = [i for i in live if not _failed(out[i])]
    segments = []
    for i in live:
        mus_hot, mus_cold = pairs[i]
        for stage, mus in zip(Stage, (mus_hot, mus_hot, mus_cold, mus_cold)):
            barrier, temperature = _stage_config(stage, baths)
            segments.append((potentials[i], ((barrier, _mu_of(mus, barrier)),),
                             _beta(temperature)))
    energies = _totals(_series_sums(segments, _energy_terms, policy, levels))
    for k, i in enumerate(live):
        stages = energies[4 * k:4 * k + 4]
        error = next((u for u in stages if _failed(u)), None)
        out[i] = error or (*out[i], tuple(stages), pairs[i])
    return out


def _mu_of(mu_pair, barrier):
    return (mu_pair.post_insertion if barrier is Barrier.INSERTED
            else mu_pair.pre_insertion)


def _both_rungs(mu_pair):
    """The rungs of a log ratio: both barrier configurations."""
    return ((Barrier.ABSENT, mu_pair.pre_insertion),
            (Barrier.INSERTED, mu_pair.post_insertion))


def _check_mu(potential, mu_pair, temperature):
    if mu_pair.pre_insertion >= level_energy(potential, 1, Barrier.ABSENT):
        raise ConvergenceViolationError("pre-insertion mu reaches the ground level")
    if mu_pair.post_insertion >= level_energy(potential, 1, Barrier.INSERTED):
        raise ConvergenceViolationError("post-insertion mu reaches the ground level")
    if mu_pair.temperature != temperature:
        raise EnsembleMismatchError(
            "chemical potentials were solved at a different temperature")


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
    _check_mu(potential, mu_pair, temperature)
    return _one_sum((potential, _both_rungs(mu_pair), _beta(temperature)),
                    _log_ratio_terms, policy)


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
    _check_mu(potential, mu_pair, temperature)
    return _one_sum(
        (potential, ((barrier, _mu_of(mu_pair, barrier)),), _beta(temperature)),
        _energy_terms, policy)
