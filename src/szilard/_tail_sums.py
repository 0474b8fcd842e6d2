"""Tail sums of level ladders past their heads.

A level sum over a long ladder is its head, its first K terms summed one
by one, and the rest of the ladder in another form, here: on the canonical
and Morse routes a closed-form Euler-Maclaurin tail (_tails) of the
Boltzmann sum whose head ensembles._series_sums takes; on the
grand-canonical route the mu-free moments of each rung, over which every
Bose sum's tail is a short k-series (_Rungs, _moments, _Heads), from the
levels ensembles._grand_rungs builds at the lengths ensembles._heads sets.
Everything here runs on numpy arrays over many sums at once, each sum
reduced on its own, so a batched value equals its one-trap value bit for
bit.
"""

import math

import numpy as np

from ._special import dawson
from .errors import TruncationError
from .potentials import _absent_energy, _Wells


# Euler-Maclaurin tails of the canonical sums
#
# A canonical sum over a long ladder is its first K terms, summed exactly,
# plus the rest in closed form.  Over the ladder index x (level s = step x +
# 1/2, step 2 with the barrier in) take f(x) = e^{-beta (E(x) - E_1)}; from
# A = K + 1 to the ladder's last index B, DLMF 2.10.1 gives
#     sum_{n=A}^{B} f(n) = int_A^B f + (f(A) + f(B))/2
#         + sum_{j=1}^{m} B_2j/(2j)! (f^(2j-1)(B) - f^(2j-1)(A)) + R,
#     |R| <= 2 |B_2m+2|/(2m+2)! int_A^B |f^(2m+2)|,
# where the terms at B appear only on a bounded (Morse) ladder.  The
# integrals are closed forms.  A finite Morse well has f = e^{-beta (D -
# E_1)} e^{a u^2}, with a = beta q chi step^2 and u = x* - x the distance to
# the top x* of the well, and int_x^{x*} f = f F(sqrt(a) u)/sqrt(a) with F
# Dawson's function.  A geometric ladder (harmonic, infinite-depth Morse,
# power law at p = 1) sums in closed form outright.  The energy sum, of E f,
# is -d/dbeta of the same forms.  Other power laws take no tail: their sums
# run whole through _series_sums.

_EM_PAIRS = 4           # m: derivative-correction pairs
_HEAD_FLOOR = 16        # no head is shorter
# Bernoulli numbers B_2, B_4, ..., B_{2m+2}
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66)
_EM_REMAINDER = (2 * abs(_BERNOULLI[_EM_PAIRS])
                 / math.factorial(2 * _EM_PAIRS + 2))


def _taylor(g, order):
    """Taylor coefficients w_0..w_order of e^{-(g(x) - g(x0))} at x0, from
    g[j-1] = g^(j)(x0)/j!; elementwise on floats or arrays."""
    w = [1.0]
    for k in range(1, order + 1):
        w.append(-sum(j * g[j - 1] * w[k - j]
                      for j in range(1, min(k, len(g)) + 1)) / k)
    return w


def _em_end(f, rests, g, e_taylor, half):
    """An end's share of the Euler-Maclaurin sums of f and of E f.

    rests are the integrals of f and of E f from the end to the ladder's
    end, g and e_taylor the Taylor coefficients of beta (E - E_1), from the
    first, and of E, from the zeroth, at the end; half is 1/2 at the head
    end A and -1/2 at the top B, whose share is subtracted.
    """
    w = _taylor(g, 2 * _EM_PAIRS - 1)
    # the Taylor coefficients of E f/f(x0): those of E times w
    wh = [sum(e_taylor[j] * w[k - j]
              for j in range(min(k, len(e_taylor) - 1) + 1))
          for k in range(len(w))]
    return [rest + f * (half * v[0] - sum(
        b / (2 * j) * v[2 * j - 1]
        for j, b in enumerate(_BERNOULLI[:_EM_PAIRS], 1)))
        for rest, v in zip(rests, (w, wh))]


def _tails(traps, step, beta, e1, head):
    """sum_{n > K} f_n and sum_{n > K} E_n f_n, f_n = e^{-beta (E_n - E_1)},
    each after its head of K terms (see the section comment), per row of
    the _Shapes traps and the float arrays step, beta, E_1 and K: one row
    each.  A tail past float range is not finite (numpy is silenced here;
    _canonical_stages makes its stage a SolverFailureError)."""
    out = np.zeros((2, len(head)))
    for kind in ("geometric", "morse"):
        rows = (traps.chi == 0.0) if kind == "geometric" else traps.chi != 0.0
        if not rows.any():
            continue
        step_, beta_, e1_, head_ = step[rows], beta[rows], e1[rows], head[rows]
        q, chi = traps.scale[rows], traps.chi[rows]
        with np.errstate(all="ignore"):
            if kind == "geometric":
                # E_n = E_1 + delta (n - 1): r^K/(1 - r), r = e^{-beta delta},
                # and its mean energy E_{K+1} + delta r/(1 - r)
                delta = step_ * q
                gap = -np.expm1(-beta_ * delta)
                rest = np.exp(-beta_ * delta * head_) / gap
                out[:, rows] = rest, rest * (e1_ + delta * head_
                                             + delta * (1 - gap) / gap)
                continue
            a = beta_ * q * chi * step_ * step_
            root = np.sqrt(a)

            def end(x, half):
                """_em_end at index x, or None where f(x) underflows."""
                e = _absent_energy(_Wells(q, chi), step_ * x)
                f = np.exp(-beta_ * (e - e1_))
                if not f.any():
                    return None
                u = (0.5 / chi - 0.5) / step_ - x
                t = root * u
                f_t, r_t = dawson(t)
                scaled = f_t / root
                return _em_end(f, (f * scaled, f * (e * scaled + r_t
                                                    / (2 * beta_ * root))),
                               (2 * a * u, -a),
                               (e, 2 * a * u / beta_, -a / beta_), half)

            sums = end(head_ + 1, 0.5)
            top = end(traps.cap[rows] // step_, -0.5)
            if top is not None:     # the top of the well is within reach
                sums = np.subtract(0.0 if sums is None else sums, top)
            if sums is not None:
                out[:, rows] = sums
    return out


# Bose-function tails of the grand-canonical sums
#
# A grand-canonical sum runs over one rung, the ladder of a (trap, barrier,
# bath), at the rung's chemical potential mu.  With x = beta (E - E_1) and
# v = beta (E_1 - mu) > 0, a rung is a head of K levels, summed term by
# term, and the rest of its ladder, where each Bose term expands in
# Boltzmann tails at k beta (the Bose functions; Pathria and Beale,
# Statistical Mechanics, appendix D):
#     g/(e^{x+v} - 1) = g sum_k e^{-kv} e^{-kx}.
# So every tail is a short k-series in e^{-v} over the mu-free moments
# T_k = sum_{n>K} e^{-k x_n} and W_k = sum_{n>K} (E_n - E_1) e^{-k x_n}:
#     occupancy        g sum_k e^{-kv} T_k
#     log term         -sum_k e^{-kv} T_k/k   (of sum_n log(1 - e^{-x_n-v}))
#     energy           g sum_k e^{-kv} (W_k + (E_1 - mu) T_k)
# ensembles._grand_rungs forms each rung's head and moments once, and
# every Newton round, occupancy re-check, log ratio and stage energy of its
# batch reuses them.  With x_cut = -log rel_tol + 35, the sizing cut of
# ensembles._heads, a k-series stops once k (x_{K+1} + v) reaches x_cut.
# A geometric ladder (harmonic, or a power law at p = 1) builds only the
# 16-term head _heads gives it, and its moments are closed forms, T_k =
# r^{kK}/(1 - r^k) with r = e^{-beta delta} (the geometric tail of _tails
# at k beta), for a series whose length is set at each evaluation and
# capped by max_terms.  Any other power law builds the whole ladder _heads
# sizes, and forms e^{-x} only over the tail past its head; its head
# ends at the first level with x_K >= _HEAD_CUT, and has at least 16
# levels, so x_{K+1} > _HEAD_CUT and its series stops by kmax =
# ceil(x_cut/_HEAD_CUT), and its moments are summed once over the rest of
# the ladder, the k-th over the levels with k x_n < x_cut.  As T_k <=
# e^{-(k-1) x_{K+1}} T_1 (and so for W_k), a k-series term against the
# first is at most e^{-(k-1)(x_{K+1} + v)}: the first term left out is
# below e^{-x_cut} of the sum, like a ladder's own last term.

_HEAD_CUT = 4.0     # a power-law rung's head ends at the first x_K >= this


class _Rungs:
    """Heads and tail moments of grand-canonical rungs, one row each (see
    the section comment and ensembles._grand_rungs).

    errors[r] is None, or the SzilardError row r met while it was built.
    Per row, as arrays: the degeneracy g, beta, e1 = E_1, the head length
    K (heads), where the row's head starts in the flat arrays x = beta (E
    - E_1) and gap = E - E_1, behind a slot with x = inf (starts), and the
    kind of its tail: 0 none; 1 a geometric series of length set at each
    evaluation, from bd = beta delta and delta, its level spacing; 2 the
    summed moments T_k and W_k at moments[:, moment[r]], k = 1..kmax.
    x_cut and max_terms are the policy's.
    """

    __slots__ = ("errors", "g", "beta", "e1", "heads", "starts", "x", "gap",
                 "kind", "bd", "delta", "moment", "moments", "x_cut",
                 "max_terms")

    def __init__(self, g, beta, e1, errors, rows, built, x_cut, max_terms):
        """The rungs of requests with degeneracies g, betas and ground
        levels e1 (arrays, e1 0 where it is an error) and their errors, and
        for the requests at rows the (levels, tailed, delta) that
        ensembles._grand_rungs built: delta is a geometric ladder's spacing,
        whose head alone was built, tailed where its whole ladder is longer,
        and 0 for another power law, whose whole ladder was built.  x is
        formed once, and e^{-x} only over the tails whose moments are
        summed."""
        size = len(errors)
        self.g, self.beta, self.e1, self.errors = g, beta, e1, errors
        self.x_cut, self.max_terms = x_cut, max_terms
        kmax = math.ceil(x_cut / _HEAD_CUT)
        self.heads, self.starts, self.kind, self.moment = (
            np.zeros(size, dtype=np.intp) for _ in range(4))
        self.bd, self.delta = np.zeros(size), np.zeros(size)
        self.x = self.gap = np.zeros(0)
        self.moments = np.zeros((2, 0, kmax))
        if not rows:
            return
        ladders, tailed, delta = zip(*built)
        delta = np.array(delta)
        rows = np.array(rows, dtype=np.intp)
        lens = np.array([len(ladder) for ladder in ladders], dtype=np.intp)
        width = lens + 1
        starts = np.cumsum(width) - width
        gap = np.concatenate([part for ladder in ladders
                              for part in (ladder[:1], ladder)])
        gap -= np.repeat(self.e1[rows], width)
        gap[starts] = 0.0
        x = np.repeat(self.beta[rows], width)
        x *= gap
        geo = delta != 0.0
        # the slot and the levels below _HEAD_CUT: the first level at or
        # past it
        first = np.add.reduceat(x < _HEAD_CUT, starts)
        heads = np.where(geo, lens, np.minimum(np.maximum(first, _HEAD_FLOOR),
                                               lens))
        kind = np.where(geo, np.where(tailed, 1, 0),
                        np.where(heads < lens, 2, 0))
        x[starts] = math.inf
        # each head behind its slot, then the rest of its ladder
        own = np.repeat(np.tile((True, False), len(rows)), np.column_stack(
            (heads + 1, lens - heads)).ravel())
        self.x, self.gap = x[own], gap[own]
        self.heads[rows] = heads
        self.starts[rows] = np.cumsum(heads + 1) - (heads + 1)
        self.kind[rows] = kind
        self.delta[rows] = delta
        self.bd[rows] = self.beta[rows] * delta
        summed = kind == 2
        if summed.any():
            # each tail behind the last level of its head, as its slot
            ends = (starts + width)[summed].tolist()
            at = (starts + heads)[summed].tolist()
            w = np.concatenate([x[a:b] for a, b in zip(at, ends)])
            tails = np.concatenate([gap[a:b] for a, b in zip(at, ends)])
            del x, gap, own     # the flat ladders; the tails are copies
            np.exp(np.negative(w, out=w), out=w)
            width = (lens - heads + 1)[summed]
            slots = np.cumsum(width) - width
            w[slots] = tails[slots] = 0.0
            self.moment[rows[summed]] = np.arange(len(width))
            self.moments = _moments(w, tails, slots, x_cut, kmax)


def _moments(w, gap, starts, x_cut, kmax):
    """T_k = sum w^k and W_k = sum gap w^k over each segment of the flat
    weights w and gaps, behind a slot holding 0.0 at each of starts, for
    k = 1..kmax: the k-th over the terms with w^k above e^{-x_cut}, which
    w > e^{-x_cut/k} keeps.  One array, T over W, of a row per segment."""
    moments = np.zeros((2, len(starts), kmax))
    power = w.copy()
    for k in range(kmax):
        if k:
            keep = w > math.exp(-x_cut / (k + 1))
            keep[starts] = True
            counts = np.add.reduceat(keep, starts)
            if len(counts) == counts.sum():
                break       # every segment is down to its slot
            starts = np.cumsum(counts) - counts
            keep = keep.nonzero()[0]
            w, gap, power = w[keep], gap[keep], power[keep]
            power *= w
        moments[0, :, k] = np.add.reduceat(power, starts)
        moments[1, :, k] = np.add.reduceat(gap * power, starts)
    return moments


class _Heads:
    """The heads of some rows of a _Rungs, gathered behind one slot each,
    and their tails.

    sums() evaluates them at one v = beta (E_1 - mu) per row, each row its
    head and its k-series, so a Newton round sums its roots' heads and
    short k-series, not their ladders.  A geometric series longer than
    max_terms is refused: its row's sums are nan, and error(i) is its
    TruncationError.  take() keeps some rows.
    """

    __slots__ = ("rungs", "rows", "width", "slots", "x", "gap", "g", "fixed",
                 "moments", "series", "geometric", "refused")

    def __init__(self, rungs, rows, width, x, gap):
        self.rungs, self.rows, self.width = rungs, rows, width
        self.slots = np.cumsum(width) - width
        self.x, self.gap, self.g = x, gap, rungs.g[rows]
        kind = rungs.kind[rows]
        self.fixed = (kind == 2).nonzero()[0]
        self.moments = rungs.moments[:, rungs.moment[rows[self.fixed]]]
        self.series = (kind == 1).nonzero()[0]
        # the series rows' beta delta, x_{K+1} = beta delta K, K and delta
        series = rows[self.series]
        bd = rungs.bd[series]
        self.geometric = (bd, bd * rungs.heads[series], rungs.heads[series],
                          rungs.delta[series])
        self.refused = {}

    @classmethod
    def of(cls, rungs, rows, gap=False):
        """The heads of rows, with their gaps E - E_1 where an energy needs
        them."""
        width = rungs.heads[rows] + 1
        index = np.arange(width.sum()) + np.repeat(
            rungs.starts[rows] - (np.cumsum(width) - width), width)
        return cls(rungs, rows, width, rungs.x[index],
                   rungs.gap[index] if gap else None)

    def take(self, keep):
        spread = np.repeat(keep, self.width)
        return _Heads(self.rungs, self.rows[keep], self.width[keep],
                      self.x[spread],
                      None if self.gap is None else self.gap[spread])

    def error(self, i):
        """The TruncationError of row i's last sums, or None."""
        n = self.refused.get(i)
        return None if n is None else TruncationError(
            f"series needs {int(n) if math.isfinite(n) else n} terms, policy"
            f" caps at {self.rungs.max_terms}")

    def sums(self, v, kind, d=None):
        """Per row at v (an array), as arrays: for kind "occupancy" sum
        g/(e^{x+v} - 1) and the Newton weight sum n (1 + n/g) of its
        occupations n; for "log" sum log(1 - e^{-x-v}); for "energy" sum
        g (E - mu)/(e^{x+v} - 1), with d = E_1 - mu.  Each is summed over
        g = 1 and scaled by g, 1 or 2, which is exact.  numpy is silenced:
        a sum past float range is not finite."""
        with np.errstate(all="ignore"):
            y = self.x + np.repeat(v, self.width)
            if kind == "log":
                np.exp(np.negative(y, out=y), out=y)
                terms = (np.log1p(np.negative(y, out=y), out=y),)
            else:   # a slot's x = inf makes its terms 0
                np.expm1(np.maximum(y, 1e-300, out=y), out=y)
                if kind == "energy":
                    t = self.gap + np.repeat(d, self.width)
                    terms = (np.divide(t, y, out=t),)
                else:
                    n = np.divide(1.0, y, out=y)
                    weight = n + 1.0
                    weight *= n
                    terms = n, weight
            out = [np.add.reduceat(t, self.slots) for t in terms]
            if len(self.fixed):
                self._fixed(out, v, kind, d)
            self.refused = {}
            if len(self.series):
                self._series(out, v, kind, d)
        if kind != "log":
            for total in out:
                total *= self.g
        return out

    def _fixed(self, out, v, kind, d):
        """Add the k-series of the rows with moments, k = 1..kmax."""
        at = self.fixed
        k = np.arange(1.0, self.moments.shape[-1] + 1)
        a = np.exp(np.multiply.outer(-v[at], k))       # e^{-kv}
        t, w = self.moments
        t = a * t
        if kind == "log":
            out[0][at] -= (t / k).sum(axis=1)
            return
        if kind == "energy":
            t *= d[at, None]
            t += a * w
        out[0][at] += t.sum(axis=1)
        if kind == "occupancy":
            out[1][at] += (t * k).sum(axis=1)

    def _series(self, out, v, kind, d):
        """Add the geometric k-series whose length is set at v: each row's
        terms k = 1..ceil(x_cut/(x_{K+1} + v)) behind one slot, summed by
        reduceat, so a row's value is its own in any batch.  With r =
        e^{-beta delta}, e^{-kv} T_k = e^{-k (x_{K+1} + v)}/(1 - r^k) and
        W_k = delta T_k (K + r^k/(1 - r^k)), as x_{K+1} = beta delta K."""
        rungs, at = self.rungs, self.series
        bd, y, heads, delta = self.geometric
        y = y + v[at]
        length = np.ceil(rungs.x_cut / y)
        refused = ~(length <= rungs.max_terms)
        if refused.any():
            self.refused = dict(zip(at[refused].tolist(),
                                    length[refused].tolist()))
            length[refused] = 0.0
        width = length.astype(np.intp) + 1
        slots = np.cumsum(width) - width
        k = np.arange(float(width.sum())) - np.repeat(slots, width)
        k[slots] = 1.0      # a finite term, zeroed below
        c = np.repeat(-bd, width)
        c *= k
        np.negative(np.expm1(c, out=c), out=c)          # 1 - r^k
        t = np.repeat(-y, width)
        t *= k
        np.exp(t, out=t)
        t /= c
        if kind == "energy":
            w = 1.0 - c
            w /= c
            w += np.repeat(heads, width)
            w *= np.repeat(delta, width)
            w *= t
            t *= np.repeat(d[at], width)
            t += w
        elif kind == "log":
            t /= k
        terms = (t, k * t) if kind == "occupancy" else (t,)
        for total, t in zip(out, terms):
            t[slots] = 0.0
            s = np.add.reduceat(t, slots)
            total[at] += -s if kind == "log" else s
            if self.refused:
                total[list(self.refused)] = math.nan
