"""Partition-function machinery for the four cycle stages.

Three statistical treatments share this module:

* canonical N-particle sums over harmonic / power-law ladders, evaluated
  exactly as sums of per-level N-th powers with the 2^N degeneracy factor in
  the barrier-inserted stages;
* grand-canonical bosons with a chemical potential per barrier configuration,
  each bound to the temperature of the bath it serves; their roots and sums
  run on many traps at once, as one numpy pass per step over all ladders,
  and a one-trap call is the one-ladder case of the same code;
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

from .constants import K_B
from .errors import (ConvergenceViolationError, EnsembleMismatchError,
                     SolverFailureError, SzilardError, TruncationError)
from .potentials import (Barrier, Harmonic, Morse, PowerLaw, Spectrum,
                         level_energy, omega_prefactor)

__all__ = [
    "BathPair", "TruncationPolicy", "MuMode", "ChemicalPotentials", "Stage",
    "canonical_stage_properties", "chemical_potential", "chemical_potentials",
    "occupancy_total", "log_relative_partition", "internal_energy",
    "ladder_batches", "solved_chemical_potentials", "grand_stage_sums",
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


def _degeneracy(barrier):
    """Level degeneracy: every inserted level is doubly degenerate."""
    return 2.0 if barrier is Barrier.INSERTED else 1.0


# ---------------------------------------------------------------------------
# truncated series evaluation

def _first_index_beyond(potential, barrier, beta, mu, x_cut):
    """Estimate the first index whose exp(-beta(E_n - mu)) factor is dead.

    Inverts E(n) = x_cut/beta + max(mu, 0) for n.  For a bounded Morse ladder
    the estimate is capped at the spectrum cutoff, which turns the sum into a
    complete finite one.  An estimate past float range (a power-law exponent
    near zero) raises TruncationError: no term cap admits that ladder.
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
    try:
        s = (target / scale) ** (1.0 / power)
        return max(8, int(math.ceil((s - 0.5) / step)) + 2)
    except OverflowError:
        raise TruncationError(
            "series cutoff estimate overflows: the ladder needs more terms"
            " than any cap") from None


def _series_size(n_terms, attempt, policy):
    """Check attempt `attempt` (from 0) at summing n_terms against the policy.

    Every sum's budget lives here: TruncationError for a count past
    max_terms, or once four attempts (the estimate, then doubled) have not
    settled the tail.
    """
    if attempt == 4:
        raise TruncationError("series failed to converge within the retry budget")
    if n_terms > policy.max_terms:
        raise TruncationError(
            f"series needs {n_terms} terms, policy caps at {policy.max_terms}")


def _settled(last, abs_total, policy):
    """The tail test: the last term is negligible against the summed
    magnitudes.  Takes floats or, elementwise, arrays."""
    floor = (np.maximum(abs_total, 1e-300) if isinstance(abs_total, np.ndarray)
             else max(abs_total, 1e-300))
    return abs(last) <= policy.rel_tol * floor


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
    for attempt in range(5):        # the fifth attempt raises
        _series_size(n_terms, attempt, policy)
        t = term_fn(np.arange(1, n_terms + 1))
        total = float(np.sum(t))
        if cap is not None and n_terms >= cap:
            return total
        if _settled(float(t[-1]), float(np.sum(np.abs(t))), policy):
            return total
        n_terms = n_terms * 2 if cap is None else min(n_terms * 2, cap)


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
    g = _degeneracy(barrier)
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
#
# Every grand-canonical quantity is a sum over the ladder of one (trap,
# barrier, bath) segment.  The functions below evaluate many segments at
# once: their ladders are laid end to end in one flat array (_Segments), so
# each elementwise step is one numpy pass over all of them, while the
# per-segment logic (cutoff estimates, the bracket and Newton updates, the
# stop tests) stays in Python floats.  A batched value equals the one-segment
# value bit for bit, and the public one-trap functions are one-segment calls
# of the same code.  A segment that fails yields its SzilardError in place of
# a value, so a caller can report each trap's first error in the order the
# stages run.

# A batch of traps is closed once its estimated ladder terms reach this;
# it bounds the size of the flat arrays, which would otherwise grow with
# the whole run.
_BATCH_TERMS = 8192


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
    """The sum of one _bose_sums segment, or its error raised."""
    result, = _bose_sums([segment], terms, policy, {})
    if _failed(result):
        raise result
    return result[0]


def _bose_sums(segments, terms, policy, levels):
    """Converged grand-canonical sums of many segments at once, each summed
    as _converged_sum would sum it alone.

    A segment is (potential, rungs, temperature) with rungs ((barrier, mu),
    ...): its series runs over levels 1..n of every rung's barrier
    configuration at once, and its cutoff is the largest of the rungs'
    estimates.  terms(beta, [(g, E - mu) per rung]) maps the joined ladders
    to their flat terms, with beta = 1/(k_B T) and the degeneracy g spread
    over them.  `levels` holds the level ladders built so far (see
    _level_ladders), so sums over the same traps can share them.  Returns,
    per segment, (sum, its ladders) or the SzilardError it hit.
    """
    x_cut = _x_cut(policy)
    beta = [1.0 / (K_B * temperature) for _, _, temperature in segments]
    out, sizes = [None] * len(segments), {}
    for j, ((potential, rungs, _), b) in enumerate(zip(segments, beta)):
        try:
            n_first = max(_first_index_beyond(potential, barrier, b, mu, x_cut)
                          for barrier, mu in rungs)
        except SzilardError as exc:
            out[j] = exc.with_traceback(None)
        else:
            sizes[j] = max(8, int(n_first))
    for attempt in range(5):        # the fifth attempt raises
        for j in list(sizes):
            try:
                _series_size(sizes[j], attempt, policy)
            except TruncationError as exc:
                out[j] = exc.with_traceback(None)
                del sizes[j]
        rows = list(sizes)
        counts = [sizes[j] for j in rows]
        if not rows:
            break
        ladders = _level_ladders([segments[j] for j in rows], counts, levels)
        flat = _Segments(counts)
        rungs = zip(*(segments[j][1] for j in rows))
        t = terms(flat.spread([beta[j] for j in rows]),
                  [(flat.spread([_degeneracy(barrier) for barrier, _ in rung]),
                    flat.join([ladder[k] for ladder in ladders])
                    - flat.spread([mu for _, mu in rung]))
                   for k, rung in enumerate(rungs)])
        settled = _settled(t[flat.last], flat.sums(np.abs(t)), policy)
        totals = flat.sums(t)
        for i, j in enumerate(rows):
            if settled[i]:
                out[j] = (float(totals[i]), ladders[i])
                del sizes[j]
            else:
                sizes[j] *= 2
    return out


def _totals(results):
    """The sums of _bose_sums results, errors passed through."""
    return [r if _failed(r) else r[0] for r in results]


def _level_ladders(segments, sizes, levels):
    """Levels 1..n of each _bose_sums segment, one array per rung.

    levels maps (id(trap), barrier) to that ladder; it is built, or built
    again longer, only when a request outgrows it, and every rung takes a
    prefix of it (level_energy is elementwise, so a prefix has the bits of a
    shorter ladder).
    """
    reach, trap = {}, {}
    for (potential, rungs, _), n in zip(segments, sizes):
        for barrier, _ in rungs:
            key = id(potential), barrier
            reach[key] = max(reach.get(key, 0), n)
            trap[key] = potential
    for key, n in reach.items():
        if len(levels.get(key, ())) < n:
            levels[key] = level_energy(trap[key], np.arange(1, n + 1), key[1])
    return [[levels[id(p), barrier][:n] for barrier, _ in rungs]
            for (p, rungs, _), n in zip(segments, sizes)]


# The terms of each grand-canonical series, from beta and per rung the
# degeneracy g and the gap E - mu, with x = beta (E - mu).  They overwrite
# their arguments, which keeps a batch's peak memory low.

def _clip(x):
    """x clipped in place to [1e-300, _EXP_CLIP], where expm1 is safe."""
    return np.minimum(np.maximum(x, 1e-300, out=x), _EXP_CLIP, out=x)


def _boltzmann_terms(beta, rungs):
    """e^{-x}, the mu -> -inf limit of every occupation."""
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
    out = _bose_sums([(p, ((barrier, e1),), temperature)
                      for p, barrier, temperature, e1, _ in roots],
                     _boltzmann_terms, policy, levels)
    rows = [j for j, result in enumerate(out) if not _failed(result)]
    if not rows:
        return out
    flat = _Segments([len(out[j][1][0]) for j in rows])
    x = flat.spread([1.0 / (K_B * roots[j][2]) for j in rows]) * (
        flat.join([out[j][1][0] for j in rows])
        - flat.spread([roots[j][3] for j in rows]))
    g = flat.spread([roots[j][4] for j in rows])
    log_count = math.log(count)
    live = [_Root(j, roots[j][4], count) for j in rows]
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
            if totals[i] == 0.0:  # every term underflowed: N is below any count
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


def _solved_mus(roots, count, policy):
    """MuMode.SOLVED chemical potentials of (potential, barrier,
    temperature) roots; a mu or an error each.

    Each mu is strictly below E_1, and re-summing the occupancy there
    recovers count to 1e-10 relative.
    """
    e1 = [level_energy(p, 1, barrier) for p, barrier, _ in roots]
    d1 = [_degeneracy(barrier) for _, barrier, _ in roots]
    kt = [K_B * temperature for _, _, temperature in roots]
    levels = {}
    out = _mu_offsets([(p, barrier, temperature, e, d) for (p, barrier,
                       temperature), e, d in zip(roots, e1, d1)], count, policy,
                      levels)
    for j, u in enumerate(out):
        if not _failed(u):
            mu = e1[j] - kt[j] * math.exp(u)
            out[j] = mu if mu < e1[j] else ConvergenceViolationError(
                f"chemical potential {mu:.6g} J reaches the ground level"
                f" {e1[j]:.6g} J")
    rows = [j for j, mu in enumerate(out) if not _failed(mu)]
    recovered = _occupancy_checks(
        [(roots[j][0], ((roots[j][1], out[j]),), roots[j][2]) for j in rows],
        policy, levels)
    for j, total in zip(rows, recovered):
        if _failed(total):
            out[j] = total
        elif abs(total - count) > 1e-10 * count:
            out[j] = SolverFailureError(
                f"occupancy root off by {abs(total - count) / count:.3g} relative")
    return out


def _occupancy_checks(segments, policy, levels):
    """The occupancy re-sums behind solved chemical potentials."""
    return _totals(_bose_sums(segments, _occupancy_terms, policy, levels))


def occupancy_total(potential, barrier, mu, temperature, policy=TruncationPolicy()):
    """Mean boson number sum_n g/(e^{beta(E_n - mu)} - 1) at fixed mu."""
    _require_power_family(potential, "grand-canonical occupancy")
    return _one_sum((potential, ((barrier, mu),), temperature),
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
    if mode is MuMode.SOLVED:
        mu, = _solved_mus([(potential, barrier, temperature)], count, policy)
        if _failed(mu):
            raise mu
        return mu
    if mode is not MuMode.CLOSED_FORM:
        raise EnsembleMismatchError(f"unknown chemical-potential mode {mode!r}")
    e1 = level_energy(potential, 1, barrier)
    d1 = _degeneracy(barrier)
    mu = e1 - K_B * temperature * math.log1p(d1 / count)
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


def ladder_batches(potentials, temperature, policy=TruncationPolicy()):
    """Split traps into consecutive batches for the batched grand sums.

    A batch is closed once the barrier-free ladders of its traps at
    `temperature`, with mu at the ground level, are estimated to reach
    _BATCH_TERMS terms; a trap whose estimate fails counts as none (its
    batch reports the error).
    """
    beta = 1.0 / (K_B * temperature)
    x_cut = _x_cut(policy)
    batches, batch, terms = [], [], 0
    for potential in potentials:
        batch.append(potential)
        try:
            terms += _first_index_beyond(potential, Barrier.ABSENT, beta,
                                         level_energy(potential, 1), x_cut)
        except SzilardError:
            pass        # the batch reports it
        if terms >= _BATCH_TERMS:
            batches.append(batch)
            batch, terms = [], 0
    if batch:
        batches.append(batch)
    return batches


def solved_chemical_potentials(potentials, count, baths,
                               policy=TruncationPolicy()):
    """MuMode.SOLVED (hot, cold) ChemicalPotentials of many traps at once.

    All 4 x len(potentials) roots run through one Newton loop and one
    occupancy re-check pass; each trap gets its pair, or the error of its
    first failing root in the order chemical_potentials would solve them.
    """
    for potential in potentials:
        _require_power_family(potential, "the chemical potential")
    if count < 1:
        raise EnsembleMismatchError("particle count must be at least 1")
    roots = [(potential, barrier, temperature) for potential in potentials
             for temperature in (baths.hot, baths.cold)
             for barrier in (Barrier.ABSENT, Barrier.INSERTED)]
    mus = _solved_mus(roots, count, policy)
    out = []
    for i in range(len(potentials)):
        pre_hot, post_hot, pre_cold, post_cold = mus[4 * i:4 * i + 4]
        error = next((m for m in mus[4 * i:4 * i + 4] if _failed(m)), None)
        out.append(error or (
            ChemicalPotentials(pre_insertion=pre_hot, post_insertion=post_hot,
                               temperature=baths.hot, count=count,
                               mode=MuMode.SOLVED),
            ChemicalPotentials(pre_insertion=pre_cold, post_insertion=post_cold,
                               temperature=baths.cold, count=count,
                               mode=MuMode.SOLVED)))
    return out


def grand_stage_sums(potentials, mu_pairs, baths, policy=TruncationPolicy()):
    """Per-bath log ratios and the four stage energies of many traps.

    mu_pairs[i] is trap i's (hot, cold) ChemicalPotentials, or an error that
    is passed through.  Each trap gets (log ratio hot, log ratio cold,
    (U_A, U_B, U_C, U_D)), or the error of its first failing sum in the
    order log_relative_partition (hot, cold) and internal_energy (A to D)
    would run them.
    """
    out = list(mu_pairs)
    live = [i for i, pair in enumerate(out) if not _failed(pair)]
    levels = {}
    ratios = _totals(_bose_sums(
        [(potentials[i], _both_rungs(mus), mus.temperature)
         for i in live for mus in out[i]], _log_ratio_terms, policy, levels))
    for k, i in enumerate(live):
        l_hot, l_cold = ratios[2 * k:2 * k + 2]
        out[i] = next((r for r in (l_hot, l_cold) if _failed(r)), (l_hot, l_cold))
    live = [i for i in live if not _failed(out[i])]
    segments = []
    for i in live:
        mus_hot, mus_cold = mu_pairs[i]
        for stage, mus in zip(Stage, (mus_hot, mus_hot, mus_cold, mus_cold)):
            barrier, temperature = _stage_config(stage, baths)
            segments.append((potentials[i], ((barrier, _mu_of(mus, barrier)),),
                             temperature))
    energies = _totals(_bose_sums(segments, _energy_terms, policy, levels))
    for k, i in enumerate(live):
        stages = energies[4 * k:4 * k + 4]
        error = next((u for u in stages if _failed(u)), None)
        out[i] = error or (*out[i], tuple(stages))
    return out


def _mu_of(mu_pair, barrier):
    return (mu_pair.post_insertion if barrier is Barrier.INSERTED
            else mu_pair.pre_insertion)


def _both_rungs(mu_pair):
    """The rungs of a log ratio: both barrier configurations."""
    return ((Barrier.ABSENT, mu_pair.pre_insertion),
            (Barrier.INSERTED, mu_pair.post_insertion))


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
    return _one_sum((potential, _both_rungs(mu_pair), temperature),
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
    _check_mu(potential, mu_pair)
    if mu_pair.temperature != temperature:
        raise EnsembleMismatchError(
            "chemical potentials were solved at a different temperature")
    return _one_sum(
        (potential, ((barrier, _mu_of(mu_pair, barrier)),), temperature),
        _energy_terms, policy)
