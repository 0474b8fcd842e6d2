"""Head sizing and tail sums of level ladders.

A level sum over a long ladder is its head, its first K terms summed one
by one, and the rest of the ladder in another form, here: on the canonical
and Morse routes a closed-form Euler-Maclaurin tail (_tails) of the
Boltzmann sum whose head ensembles._series_sums takes; on the
grand-canonical route the mu-free moments of each rung, the same tails at
k beta, over which every Bose sum's tail is a short k-series (_Rungs,
_Heads), from the heads ensembles._grand_rungs builds.  _heads, the one
sizing rule of every route, sets each length K from the remainder bounds
of these tails.  Everything here runs on numpy arrays over many sums at
once, laid out by _Segments, the one flat layout of both routes' ladders,
heads, moments and k-series, and each sum is reduced on its own, so a
batched value equals its one-trap value bit for bit.  Traps come as the
rows of a potentials._Shapes, whose levels() gives every level a tail
reads (its first, E_{K+1}, and a Morse well's ends) with its ladder's
bits.
"""

import math
from functools import lru_cache

import numpy as np

from ._special import dawson, upper_gamma
from .errors import TruncationError


class _Segments:
    """Ragged arrays laid end to end, each behind one slot: the one flat
    layout of every batched sum (ladders, heads, moments, k-series).

    np.sum adds the pairwise sum of its array to 0.0, while np.add.reduceat
    adds the pairwise sum of the rest of each segment to its first element.
    Leading every segment with a slot that holds 0.0 makes the two agree bit
    for bit, so a segment's batched sum equals its own np.sum, alone or
    among others.
    """

    def __init__(self, lengths):
        self.width = np.asarray(lengths, dtype=np.intp) + 1
        self.slots = np.zeros(len(self.width), dtype=np.intp)
        np.cumsum(self.width[:-1], out=self.slots[1:])

    def join(self, ladders):
        """The ladders as one flat array.

        Each slot repeats its ladder's first value, so every term function
        stays finite there; sums() zeroes the slots of the terms.
        """
        return np.concatenate([part for ladder in ladders
                               for part in (ladder[:1], ladder)])

    def spread(self, values):
        """One value per segment, repeated over its slot and ladder."""
        return np.repeat(values, self.width)

    def within(self):
        """Each place's index in its segment: 0 at the slot, then 1..n."""
        return np.arange(self.width.sum()) - self.spread(self.slots)

    def sums(self, terms):
        """Each segment's sum of terms; overwrites the slots with 0.0."""
        terms[self.slots] = 0.0
        return np.add.reduceat(terms, self.slots)


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
# Dawson's function.  A power law E = q s^p has, with y = beta E(x) and
# a = 1/p, int_x^inf f = f s S(a, y)/(step p) and int_x^inf E f = f s (a
# S(a, y) + 1)/(beta step p), where S(a, y) = e^y y^-a Gamma(a, y) is the
# scaled upper incomplete gamma function (DLMF 8.2.2), the second by
# Gamma(a + 1, y) = a Gamma(a, y) + y^a e^-y.  A geometric ladder
# (harmonic, infinite-depth Morse, power law at p = 1) sums in closed form
# outright.  The energy sum, of E f, is -d/dbeta of the same forms.

_EM_PAIRS = 6           # m: derivative-correction pairs, of every tail
_HEAD_FLOOR = 16        # no head is shorter
# Bernoulli numbers B_2, B_4, ..., B_14
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
# 2 |B_2m+2|/(2m+2)!, the Euler-Maclaurin remainder factor
_EM_REMAINDER = 2 * abs(_BERNOULLI[_EM_PAIRS]) / math.factorial(
    2 * _EM_PAIRS + 2)


def _taylor(g, order):
    """Taylor coefficients w_0..w_order of e^{-(g(x) - g(x0))} at x0, from
    g[j-1] = g^(j)(x0)/j!; elementwise on arrays, as the rows of one."""
    jg = np.array([j * c for j, c in enumerate(g, 1)])
    w = np.empty((order + 1, *np.shape(g[0])))
    w[0] = 1.0
    for k in range(1, order + 1):
        top = min(k, len(g))
        # summed in order of j, over axis 0
        w[k] = -(jg[:top] * w[k - 1::-1][:top]).sum(axis=0) / k
    return w


def _em_end(f, rests, g, e_taylor, half):
    """An end's share of the Euler-Maclaurin sums of f and of E f, with
    _EM_PAIRS derivative corrections.

    rests are the integrals of f and of E f from the end to the ladder's
    end, g and e_taylor the Taylor coefficients of beta (E - E_1), from the
    first, and of E, from the zeroth, at the end; half is 1/2 at the head
    end A and -1/2 at the top B, whose share is subtracted.
    """
    w = _taylor(g, 2 * _EM_PAIRS - 1)
    # the Taylor coefficients of E f/f(x0): those of E times w
    e = np.array(e_taylor)
    wh = [(e[:min(k, len(e) - 1) + 1] * w[k::-1][:len(e)]).sum(axis=0)
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
    kinds = {"geometric": (traps.chi == 0.0) & (traps.power == 1.0),
             "power": traps.power != 1.0, "morse": traps.chi != 0.0}
    for kind, rows in kinds.items():
        if not rows.any():
            continue
        step_, beta_, e1_, head_ = step[rows], beta[rows], e1[rows], head[rows]
        ladder = traps.take(rows)
        q, chi = ladder.scale, ladder.chi
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
            if kind == "power":
                n = step_ * (head_ + 1.0)   # E_{K+1} is at s = n + 1/2
                total, gaps = _power_tails(ladder.levels(n), n + 0.5,
                                           ladder.power, step_, beta_, e1_)
                out[:, rows] = total, gaps + e1_ * total
                continue
            a = beta_ * q * chi * step_ * step_
            root = np.sqrt(a)

            def end(x, half):
                """_em_end at index x, or None where f(x) underflows."""
                e = ladder.levels(step_ * x)
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
            top = end(ladder.cap // step_, -0.5)
            if top is not None:     # the top of the well is within reach
                sums = np.subtract(0.0 if sums is None else sums, top)
            if sums is not None:
                out[:, rows] = sums
    return out


def _power_tails(e, s, power, step, beta, e1):
    """sum_{n >= A} f_n and sum_{n >= A} (E_n - E_1) f_n, f_n = e^{-beta (E_n
    - E_1)}, over power-law ladders from index A, at level s = step A + 1/2
    and energy E_A = e (arrays, one element per tail): the integrals of the
    section comment and the derivative corrections at A, with the Taylor
    coefficients E_A C(p, j) (step/s)^j of E there.  Callers silence
    numpy."""
    f = np.exp(-beta * (e - e1))
    a = 1.0 / power
    scaled = upper_gamma(a, beta * e)
    lead = f * s / (step * power)
    taylor, h = [e], step / s
    for j in range(1, 2 * _EM_PAIRS):
        taylor.append(taylor[-1] * ((power - (j - 1)) / j) * h)
    return _em_end(f, (lead * scaled,
                       lead * ((a * scaled + 1.0) / beta - e1 * scaled)),
                   [beta * c for c in taylor[1:]], (e - e1, *taylor[1:]),
                   0.5)


def _power_floor(power, step, y1):
    """A lower bound on int_1^inf f over power-law ladders (the section
    comment's f, from index 1, where f = 1, at y_1 = beta E_1), and so on
    their sums: s_1 S(a, y_1)/(step p), with S(a, y) >= 1/(y + max(1 - a,
    0)), as (1 + t)^{a-1} >= e^{-(1-a) t} under the integral of S."""
    return (step + 0.5) / (step * power * (y1 + np.fmax(1.0 - 1.0 / power,
                                                        0.0)))


# The remainder bound of a power-law tail from A on (see the section
# comment).  With y = beta E_A, k = 2m + 2 and s = step A + 1/2, every
# Taylor coefficient of s^p has |C(p, j)| <= p/j for 0 < p <= 2, so e^{-beta
# q s^p} has its derivatives bounded by those of (1 - h/s)^{-p y}: |f^(k)|
# <= f (p y)(p y + 1)...(p y + k - 1)/s^k in s.  Expanded in powers (p y)^i
# (c(k, i), the unsigned Stirling numbers of the first kind), each
# integrates past A, after s^{ip-k} <= s^{ip-1} s_A^{1-k}, into an
# incomplete gamma function of integer order, p^{i-1} (i-1)! e^-y e_{i-1}(y)
# with e_n(y) = sum_{l<=n} y^l/l!, or, where ip < k - 1, after e^-y <=
# e^-y_A, into e^-y_A (p y)^i/(k - 1 - ip).  With (step/s)^{k-1} =
# step^{k-1} (beta q/y)^{(k-1)/p}, int_A^inf |f^(k)| is at most
#     e^{y_1} step^{k-1} (beta q)^{(k-1)/p} H(y_A),
#     H(y) = e^-y y^{-(k-1)/p} sum_i c(k, i) min(p^{i-1} (i-1)! e_{i-1}(y),
#                                                (p y)^i/(k - 1 - ip)),
# and every term of H falls as y grows, for every p: H is a function of y
# and p alone, which _power_table tabulates once per p.

_POWER_GRID = np.geomspace(1e-30, 1e4, 2500)    # y, 3.2% apart
# c(2m+2, i), i = 1..2m+2: the coefficients of z (z + 1) ... (z + 2m + 1)
_STIRLING = [1]
for _j in range(2 * _EM_PAIRS + 2):
    _STIRLING = [a * _j + b for a, b in zip(_STIRLING + [0], [0] + _STIRLING)]
_STIRLING = tuple(_STIRLING[1:])


@lru_cache(maxsize=256)
def _power_table(power):
    """log H (falling) at the y of _POWER_GRID (rising), for one power."""
    y = _POWER_GRID
    total, partial, term, factorial = 0.0, 0.0, 1.0, 1.0
    k = 2 * _EM_PAIRS + 2
    for i, c in enumerate(_STIRLING, 1):
        partial = partial + term        # e_{i-1}(y)
        exponent = k - 1 - i * power
        powers = ((power * y) ** i / exponent if exponent > 0.0
                  else math.inf)
        total = total + c * np.minimum(factorial * partial, powers)
        factorial = factorial * power * i
        term = term * y / i
    return np.log(total) - y - (k - 1) / power * np.log(y)


def _power_cuts(scale, power, step, beta, e1, limit):
    """Per power-law ladder (arrays), an x = beta (E_A - E_1) from which on
    its tail's remainder is at most `limit`: the first y of _POWER_GRID
    with H(y) below it (see above), less y_1, or 0 where y_1 already holds
    it; inf past the grid."""
    k = 2 * _EM_PAIRS + 1
    y1 = beta * e1
    log_h = (np.log(limit / _EM_REMAINDER) - y1 - k * np.log(step)
             - k / power * np.log(beta * scale))
    cut = np.full(len(power), math.inf)
    for p in set(power.tolist()):
        rows = (power == p).nonzero()[0]
        j = np.searchsorted(-_power_table(p), -log_h[rows])
        inside = j < len(_POWER_GRID)
        cut[rows[inside]] = np.fmax(_POWER_GRID[j[inside]] - y1[rows[inside]],
                                    0.0)
    return cut


# Head sizing.  The margin: every sum runs until e^{-beta (E_n - E_1)} is
# below rel_tol e^{-35} (see ensembles._series_sums for what that bounds)
_XCUT_MARGIN = 35.0


def _estimates(traps, step, beta, e1, x_cut):
    """Per trap, ceil((s - 1/2)/step) at the level s where e^{-beta (E(s) -
    E_1)} = e^-x_cut, as floats: inf where that is above the top of a Morse
    well (every bound level), nan past float range.  Exactly rounded array
    operations give each entry the bits of Python floats; a fractional
    power is Python's (the C library's pow), element by element.  Callers
    silence numpy, as Python floats overflow silently."""
    if not len(e1):
        return np.empty(0)
    target = x_cut / beta + e1
    s = target / traps.scale
    unbounded = None
    if traps.wells:
        wells = traps.chi.nonzero()[0]
        chi, q = traps.chi[wells], traps.scale[wells]
        disc = 1.0 - 4.0 * chi * target[wells] / q
        s[wells] = (1 - np.sqrt(disc)) / (2 * chi)
        unbounded = wells[disc <= 0.0]
    if traps.powers:
        exponent = 1.0 / traps.power
        for i in (exponent != 1.0).nonzero()[0].tolist():
            try:
                s[i] = float(s[i]) ** float(exponent[i])
            except OverflowError:
                s[i] = math.inf
    c = np.ceil((s - 0.5) / step)
    c[np.isinf(c)] = np.nan
    if unbounded is not None:
        c[unbounded] = np.inf
    return c


def _counts(n, c, cap, step):
    """Float lengths n (see _heads) as Python ints; an entry at or past
    2^53, which float arithmetic may have rounded, exactly from its
    estimate c, cap and step (arrays like n), and a nan as the
    TruncationError of an estimate past float range."""
    whole = n < 2.0 ** 53
    out = np.where(whole, n, 0.0).astype(np.int64).tolist()
    for i in (~whole).nonzero()[0].tolist():
        if n[i] != n[i]:
            out[i] = TruncationError("series cutoff estimate overflows: the"
                                     " ladder needs more terms than any cap")
            continue
        out[i] = max(8, int(c[i]) + 2) if math.isfinite(c[i]) else math.inf
        if math.isfinite(cap[i]):
            out[i] = min(out[i], int(cap[i]) // int(step[i]))
    return out


def _heads(traps, step, beta, e1, policy):
    """(n, tailed) of the sums over the _Shapes traps from their ground
    levels e1 (an array), at stride step (2 with the barrier in) and beta
    (N/(k_B T) on the canonical route), each a number or an array like e1,
    in one array pass: per sum, the terms it takes one by one (a Python
    int, or the TruncationError of an estimate past float range), and
    whether a tail (see _tails) adds the rest (a bool array).  It is
    the one sizing rule: every canonical and Morse stage, every batch and
    every grand-canonical rung is sized here.

    A whole ladder runs to the level whose e^{-beta (E_n - E_1)} is below
    rel_tol e^{-_XCUT_MARGIN}, with two spare terms and at least 8, and at
    most a Morse well's bound count (half of it with the barrier in).  The
    head K is the smallest, at least _HEAD_FLOOR, whose remainder bound on
    the sum of f is below the error that cutoff leaves: rel_tol
    e^{-_XCUT_MARGIN} of the sum, which holds at least its ground term, 1,
    and for a power law the integral of f from index 1.  A geometric tail
    is exact, so its head is the floor; a Morse well's remainder bound is
    below, a power law's that of _power_cuts (its H, tabulated per power).
    The energy sum, of E f, takes the same head, and its tail is the
    beta-derivative of the same form; its remainder has no bound of its
    own and rests on the e^{-_XCUT_MARGIN} margin.  A ladder no longer
    than its head is taken whole.  The canonical route sizes at N beta and
    the grand route at beta, with no flag between them.
    """
    with np.errstate(all="ignore"):     # as for Python floats
        c = _estimates(traps, step, beta, e1, _XCUT_MARGIN - math.log(
            policy.rel_tol))
        n = np.maximum(c + 2.0, 8.0)
        if traps.bounded:
            n = np.minimum(n, np.floor(traps.cap / step))
        head = np.where((traps.chi == 0.0) & (traps.power == 1.0),
                        float(_HEAD_FLOOR), math.inf)
        sized = (((traps.power != 1.0) | (traps.chi != 0.0))
                 & (n > _HEAD_FLOOR)).nonzero()[0]
        if len(sized):
            by, at = (np.broadcast_to(v, n.shape)[sized] for v in (step, beta))
            chi, q = traps.chi[sized], traps.scale[sized]
            # per sum, the x = beta (E_A - E_1) past which its tail's
            # remainder bound is below the cutoff's error, rel_tol e^-35 of
            # the sum; _estimates inverts it (with two spare terms)
            cut = np.zeros(len(sized))
            target = policy.rel_tol * math.exp(-_XCUT_MARGIN)
            wells = (chi != 0.0).nonzero()[0]
            if len(wells):
                # f^(2m+2) > 0, so the remainder is at most the bound times
                # |f^(2m+1)(A)| = Q_2m+1(u_A) f(A), where Q_0 = 1, Q_1 = 2 a
                # u and Q_k+1 = 2 a u Q_k + 2k a Q_k-1 fall with u: Q at the
                # shortest head holds for every longer one, and the sum holds
                # its ground term, 1
                by_, chi_ = by[wells], chi[wells]
                a = at[wells] * q[wells] * chi_ * by_ * by_
                slope = 2 * a * ((0.5 / chi_ - 0.5) / by_ - (_HEAD_FLOOR + 1))
                lower, upper = 1.0, slope
                for ka in np.multiply.outer(
                        2.0 * np.arange(1, 2 * _EM_PAIRS + 1), a):  # 2k a
                    lower, upper = upper, slope * upper + ka * lower
                ratio = _EM_REMAINDER * upper / target
                # log(max(ratio, 1)) by math, element by element: it sets a
                # length
                cut[wells] = list(map(math.log,
                                      np.fmax(ratio, 1.0).tolist()))
            laws = (chi == 0.0).nonzero()[0]
            if len(laws):
                # a power law's bound falls as A grows (see _power_cuts), and
                # its sum holds 1 and the integral of f from index 1
                p, by_, at_, e1_ = (traps.power[sized[laws]], by[laws],
                                    at[laws], e1[sized[laws]])
                cut[laws] = _power_cuts(
                    q[laws], p, by_, at_, e1_, target * np.fmax(
                        _power_floor(p, by_, at_ * e1_), 1.0))
            c_head = _estimates(traps.take(sized), by, at, e1[sized], cut)
            head[sized] = np.where(cut < math.inf, np.maximum(np.maximum(
                c_head + 2.0, 8.0) - 1.0, float(_HEAD_FLOOR)), math.inf)
        tailed = head < n
        lengths = np.where(tailed, head, n)
        lengths[np.isnan(head)] = np.nan
    # a head is never near 2^53: where beta q is that small, the bound
    # leaves the 16-term floor, so only a whole length needs its estimate
    return _counts(lengths, c, traps.cap,
                   np.broadcast_to(step, n.shape)), tailed


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
# The moments are the canonical tails of the first section at k beta: on a
# geometric ladder (harmonic, or a power law at p = 1) the closed forms
# T_k = r^{kK}/(1 - r^k), r = e^{-beta delta}, formed in each term; on any
# other power law _power_tails at k beta, formed once per rung, to the
# longest series of the roots that read it, in one pass per batch.
# ensembles._grand_rungs builds only the heads _heads sizes, each rung once,
# and every Newton round, occupancy re-check, log ratio and stage energy of
# its batch reuses them.  With x_cut = -log rel_tol + 35, the sizing cut of
# _heads, a k-series runs to k = ceil(x_cut/(x_{K+1} + v)), capped by
# max_terms: a geometric one at each evaluation's v, a
# power law's at the least v its rung is summed at (see _Rungs).  As T_k <=
# e^{-(k-1) x_{K+1}} T_1 (and so for W_k), a k-series term against the
# first is at most e^{-(k-1)(x_{K+1} + v)}: the first term left out is
# below e^{-x_cut} of the sum, like a ladder's own last term.  A power
# law's tail at k beta keeps the head sized at beta; its remainder there,
# like an energy sum's, rests on the e^-35 margin.


class _Rungs:
    """Heads and tails of grand-canonical rungs, read by requests, one row
    each (see the section comment and ensembles._grand_rungs).

    errors[r] is None, or the SzilardError row r met while it was built.
    Per row, as arrays: the degeneracy g, beta, e1 = E_1, the head length
    K (heads), where the head of the row's rung starts in the flat arrays x
    = beta (E - E_1) and gap = E - E_1, behind a slot with x = inf
    (starts), the kind of its tail (0 none, 1 geometric, 2 another power
    law) and x_{K+1} (x_tail); a geometric tail's bd = beta delta and
    delta, its level spacing; a power-law tail's moments T_k and W_k, k =
    1..terms[r], in the flat arrays moments from offset[r] on, behind a
    slot.  Rows that read one rung share its head and its moments.  x_cut
    and max_terms are the policy's.
    """

    __slots__ = ("errors", "g", "beta", "e1", "heads", "starts", "x", "gap",
                 "kind", "x_tail", "bd", "delta", "terms", "offset",
                 "moments", "x_cut", "max_terms")

    def __init__(self, g, beta, e1, errors, readers, built, shapes, v, count,
                 x_cut, max_terms):
        """The rungs of requests with degeneracies g, betas, ground levels
        e1, least v and occupancy counts (arrays, e1 0 where it is an error)
        and their errors.  built[m] is the (head, tailed, step) of a rung
        that ensembles._grand_rungs built, which the rows readers[m] read,
        all of one g, beta and E_1: the head's levels, whether a tail adds
        the rest of the ladder, and its stride, on the trap whose shape is
        row m of the potentials._Shapes shapes.  Each row is summed at v
        = beta (E_1 - mu) from its v on, raised, for the root of an
        occupancy count (inf for none), to log(1 + j g/count) - x_j at every
        level j of the head, whose first j terms alone reach count there.
        A row's power-law k-series runs to k = ceil(x_cut/(x_{K+1} + v)) at
        that v, past max_terms an error, and each rung's moments are formed
        here, to the longest series of its rows, in one _power_tails pass;
        at a v below it, which a Newton step may try, the series is that
        length too, short of its full sum."""
        size = len(errors)
        self.g, self.beta, self.e1, self.errors = g, beta, e1, errors
        self.x_cut, self.max_terms = x_cut, max_terms
        self.heads, self.starts, self.kind, self.terms, self.offset = (
            np.zeros(size, dtype=np.intp) for _ in range(5))
        self.x_tail, self.bd, self.delta = (np.zeros(size) for _ in range(3))
        self.x = self.gap = np.zeros(0)
        self.moments = np.zeros((2, 0))
        if not built:
            return
        # per rung
        ladders, tailed, step = (np.array(column) if i else column
                                 for i, column in enumerate(zip(*built)))
        scale, power = shapes.scale, shapes.power
        first = np.array([rows[0] for rows in readers], dtype=np.intp)
        rung_beta, rung_e1 = beta[first], e1[first]
        flat = _Segments([len(ladder) for ladder in ladders])
        heads, starts = flat.width - 1, flat.slots
        gap = flat.join(ladders)
        gap -= flat.spread(rung_e1)
        gap[starts] = 0.0
        x = flat.spread(rung_beta)
        x *= gap
        x[starts] = math.inf
        self.x, self.gap = x, gap
        geometric = power == 1.0
        kind = np.where(tailed, np.where(geometric, 1, 2), 0)
        delta = np.where(geometric, scale * step, 0.0)
        bd = rung_beta * delta
        x_tail = bd * heads
        laws = (kind == 2).nonzero()[0]
        n = step[laws] * (heads[laws] + 1.0)    # E_{K+1} is at s = n + 1/2
        s, e = n + 0.5, shapes.take(laws).levels(n)
        with np.errstate(all="ignore"):
            x_tail[laws] = rung_beta[laws] * (e - rung_e1[laws])
        # per row
        rows = np.concatenate(readers)
        m = np.repeat(np.arange(len(built)), [len(r) for r in readers])
        self.heads[rows], self.starts[rows], self.x_tail[rows] = (
            heads[m], starts[m], x_tail[m])
        self.delta[rows], self.bd[rows] = delta[m], bd[m]
        kind = kind[m]
        at = (kind == 2).nonzero()[0]
        if len(at):
            r, m = rows[at], m[at]
            # each row's head levels j behind its slot, where j = 0 and x =
            # inf give -inf, which the maximum passes over
            levels = _Segments(heads[m])
            j = levels.within()
            floor = np.log1p(j * levels.spread(self.g[r] / count[r]))
            floor -= x[levels.spread(starts[m]) + j]
            floor = np.fmax(v[r], np.maximum.reduceat(floor, levels.slots))
            with np.errstate(all="ignore"):
                length = np.ceil(x_cut / (self.x_tail[r] + floor))
            refused = ~(length <= max_terms)
            for i in refused.nonzero()[0].tolist():
                self.errors[r[i]] = _cap_error(length[i], max_terms)
            kind[at[refused]] = 0
            keep = ~refused
            r, m, n = r[keep], m[keep], length[keep].astype(np.intp)
            self.terms[r] = n
            # each rung's k = 1..its rows' longest series behind a slot,
            # whose moments are 0
            longest = np.zeros(len(built), dtype=np.intp)
            np.maximum.at(longest, m, n)
            table = _Segments(longest[laws])
            offset = np.zeros(len(built), dtype=np.intp)
            offset[laws] = table.slots
            self.offset[r] = offset[m]
            k = table.within()
            place = k.nonzero()[0]
            law = table.spread(np.arange(len(laws)))[place]
            rung = laws[law]
            self.moments = np.zeros((2, len(k)))
            with np.errstate(all="ignore"):
                self.moments[:, place] = _power_tails(
                    e[law], s[law], power[rung], step[rung],
                    k[place] * rung_beta[rung], rung_e1[rung])
        self.kind[rows] = kind


def _cap_error(n, max_terms):
    """The TruncationError of a series of n terms (inf or nan as they are)
    past max_terms."""
    return TruncationError(f"series needs {int(n) if math.isfinite(n) else n}"
                           f" terms, policy caps at {max_terms}")


class _Heads:
    """The heads of some rows of a _Rungs, gathered behind one slot each
    (a _Segments, flat), and their tails.

    sums() evaluates them at one v = beta (E_1 - mu) per row, each row its
    head and its k-series, so a Newton round sums its roots' heads and
    short k-series, not their ladders.  A geometric k-series longer than
    max_terms is refused: its row's sums are nan, and error(i) is its
    TruncationError.
    """

    __slots__ = ("rungs", "rows", "flat", "x", "gap", "g", "series", "power",
                 "refused")

    def __init__(self, rungs, rows, gap=False):
        """The heads of rows (an index array), with their gaps E - E_1
        where an energy needs them."""
        self.rungs, self.rows = rungs, rows
        self.flat = _Segments(rungs.heads[rows])
        # the places of each row's head: starts + within(), in one spread
        index = self.flat.spread(rungs.starts[rows] - self.flat.slots)
        index += np.arange(len(index))
        self.x, self.g = rungs.x[index], rungs.g[rows]
        self.gap = rungs.gap[index] if gap else None
        kind = rungs.kind[rows]
        self.series = (kind == 1).nonzero()[0]
        # the power-law rows, their k and moments, each behind its slot
        at = (kind == 2).nonzero()[0]
        self.power = None
        if len(at):
            laws = rows[at]
            terms = _Segments(rungs.terms[laws])
            k = terms.within()
            moments = rungs.moments[:, terms.spread(rungs.offset[laws]) + k]
            k = k.astype(float)
            k[terms.slots] = 1.0     # a finite term, zeroed below
            self.power = at, terms, k, moments
        self.refused = {}

    def error(self, i):
        """The TruncationError of row i's last sums, or None."""
        n = self.refused.get(i)
        return None if n is None else _cap_error(n, self.rungs.max_terms)

    def sums(self, v, kind, d=None):
        """Per row at v (an array), as arrays: for kind "occupancy" sum
        g/(e^{x+v} - 1) and the Newton weight sum n (1 + n/g) of its
        occupations n; for "log" sum log(1 - e^{-x-v}); for "energy" sum
        g (E - mu)/(e^{x+v} - 1), with d = E_1 - mu.  Each is summed over
        g = 1 and scaled by g, 1 or 2, which is exact.  numpy is silenced:
        a sum past float range is not finite."""
        with np.errstate(all="ignore"):
            y = self.x + self.flat.spread(v)
            if kind == "log":
                np.exp(np.negative(y, out=y), out=y)
                terms = (np.log1p(np.negative(y, out=y), out=y),)
            else:   # a slot's x = inf makes its terms 0
                np.expm1(np.maximum(y, 1e-300, out=y), out=y)
                if kind == "energy":
                    t = self.gap + self.flat.spread(d)
                    terms = (np.divide(t, y, out=t),)
                else:
                    n = np.divide(1.0, y, out=y)
                    weight = n + 1.0
                    weight *= n
                    terms = n, weight
            out = [np.add.reduceat(t, self.flat.slots) for t in terms]
            self.refused = {}
            if len(self.series):
                self._series(out, v, kind, d)
            if self.power is not None:
                self._power(out, v, kind, d)
        for total in out:
            if self.refused:
                total[list(self.refused)] = math.nan
            if kind != "log":
                total *= self.g
        return out

    def _series(self, out, v, kind, d):
        """Add the geometric k-series whose length is set at v: each row's
        terms k = 1..ceil(x_cut/(x_{K+1} + v)) behind one slot.  With r =
        e^{-beta delta}, e^{-kv} T_k = e^{-k (x_{K+1} + v)}/(1 - r^k) and
        W_k = delta T_k (K + r^k/(1 - r^k)), as x_{K+1} = beta delta K."""
        rungs, at = self.rungs, self.series
        rows = self.rows[at]
        y = rungs.x_tail[rows] + v[at]
        length = np.ceil(rungs.x_cut / y)
        refused = ~(length <= rungs.max_terms)
        if refused.any():
            self.refused = dict(zip(at[refused].tolist(),
                                    length[refused].tolist()))
            length[refused] = 0.0
        series = _Segments(length.astype(np.intp))
        k = series.within().astype(float)
        k[series.slots] = 1.0      # a finite term, zeroed below
        c = series.spread(-rungs.bd[rows])
        c *= k
        np.negative(np.expm1(c, out=c), out=c)          # 1 - r^k
        t = series.spread(-y)
        t *= k
        np.exp(t, out=t)
        t /= c
        w = None
        if kind == "energy":
            w = 1.0 - c
            w /= c
            w += series.spread(rungs.heads[rows])
            w *= series.spread(rungs.delta[rows])
            w *= t
        _add(out, at, kind, d, t, w, k, series)

    def _power(self, out, v, kind, d):
        """Add the k-series of the power-law rows over their moments: each
        row's e^{-kv} T_k (and e^{-kv} W_k), k = 1..terms behind one
        slot."""
        at, terms, k, (t, w) = self.power
        a = terms.spread(-v[at])
        a *= k
        np.exp(a, out=a)
        _add(out, at, kind, d, a * t, a * w if kind == "energy" else None, k,
             terms)


def _add(out, at, kind, d, t, w, k, series):
    """Add to the sums out of rows at their k-series of kind, from the terms
    t = e^{-kv} T_k and, for an energy, w = e^{-kv} W_k over k (arrays laid
    out by the _Segments series, each row's behind a slot): occupancy sum t
    and sum k t, log -sum t/k, energy sum t d + w.  Each row is reduced on
    its own."""
    if kind == "energy":
        t *= series.spread(d[at])
        t += w
    elif kind == "log":
        t /= k
    for total, t in zip(out, (t, k * t) if kind == "occupancy" else (t,)):
        s = series.sums(t)
        total[at] += -s if kind == "log" else s
