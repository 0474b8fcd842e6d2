"""The special functions the engine uses, on math and numpy alone.

gammaln and gammasgn serve the power-law WKB prefactor and the barrier's
gamma ratio, dawson the Euler-Maclaurin tail of a Morse ladder and
upper_gamma that of a power-law ladder.

gammaln is Moshier's Cephes `lgam`, operation for operation, so it gives
the same bits as the Cephes build inside scipy.special (math.lgamma does
not: fig6's residual column, a cancellation, would move by 2e-3 relative).
dawson sums a Taylor series about the nearest of 29 nodes on [0, 7] and,
past 7, an asymptotic series; both are sized to about 1e-17.  upper_gamma
sums a series or a continued fraction until each element's own next term
is below one ulp.
"""

import math

import numpy as np

__all__ = ["gammaln", "gammasgn", "dawson", "upper_gamma"]

# ---------------------------------------------------------------------------
# log |Gamma(x)|: Cephes lgam (S. L. Moshier, Cephes Math Library 2.8)

_LOG_PI = 1.14472988584940017414
_LOG_SQRT_2PI = 0.91893853320467274178
_MAXLGM = 2.556348e305      # past it log Gamma(x) overflows


def gammaln(x):
    """log |Gamma(x)| of a float: inf at the poles x = 0, -1, -2, ...

    The polynomials are Cephes's, written out in Horner form: B/C, the
    rational fit x B(x)/C(x) of log Gamma(2 + x) on [0, 1), and A, the
    Stirling series past 13.  The barrier's bisection calls this about
    7,500 times per fig6 pass, on [-5.5, 6.5], hence the branch order."""
    x = float(x)
    if -34.0 <= x < 13.0:
        # recur to u in [2, 3): Gamma(x) = Gamma(u) z
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(abs(z))
        x += p - 2.0
        b = ((((-1.37825152569120859100e3 * x
                - 3.88016315134637840924e4) * x
               - 3.31612992738871184744e5) * x
              - 1.16237097492762307383e6) * x
             - 1.72173700820839662146e6) * x - 8.53555664245765465627e5
        c = (((((x - 3.51815701436523470549e2) * x
                - 1.70642106651881159223e4) * x
               - 2.20528590553854454839e5) * x
              - 1.13933444367982507207e6) * x
             - 2.53252307177582951285e6) * x - 2.01889141433532773231e6
        return math.log(abs(z)) + x * b / c
    if not math.isfinite(x):
        return x
    if x < -34.0:
        # reflection: |Gamma(x)| = pi/(|x| |sin(pi x)| Gamma(|x|))
        q = -x
        w = gammaln(q)
        p = math.floor(q)
        if p == q:
            return math.inf
        z = q - p
        if z > 0.5:
            z = p + 1.0 - q
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return math.inf
        return _LOG_PI - math.log(z) - w
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + ((((8.11614167470508450300e-4 * p
                   - 5.95061904284301438324e-4) * p
                  + 7.93650340457716943945e-4) * p
                 - 2.77777777730099687205e-3) * p
                + 8.33333333333331927722e-2) / x


def gammasgn(x):
    """The sign of Gamma(x) as a float: at x = +-0 the sign of its infinity,
    and nan at the poles x = -1, -2, ..., at -inf and at nan."""
    x = float(x)
    if x > 0.0:
        return 1.0
    if x == 0.0:
        return math.copysign(1.0, x)
    if not math.isfinite(x):
        return math.nan
    below = math.floor(x)
    if x == below:
        return math.nan
    return -1.0 if below % 2 else 1.0


# ---------------------------------------------------------------------------
# Dawson's integral F(t) = e^{-t^2} int_0^t e^{s^2} ds

# F at the nodes 0, 1/4, ... 7, correctly rounded (50-digit mpmath; see
# tests/test_special.py, which rebuilds them)
_NODE_STEP = 0.25
_NODES = np.array([
    0.0, 0.23983916356289822, 0.4244363835020223, 0.5230127677445182,
    0.5380795069127684, 0.4958270739643261, 0.4282490710853986,
    0.3594364206717429, 0.30134038892379195, 0.25655426284484917,
    0.2230837221674355, 0.19785094717415452, 0.1782710306105583,
    0.162570914560687, 0.14962159308075648, 0.1387052395935912,
    0.12934800123600512, 0.12122159429432365, 0.11408861022682498,
    0.1077715111802445, 0.10213407442427684, 0.09706962847320189,
    0.09249323231075476, 0.08833628281447531, 0.08454268897454385,
    0.08106609406101173, 0.07786781898606987, 0.07491531382621561,
    0.0721809746582363])
_SWITCH = 7.0       # the last node: the asymptotic series takes over past it


def _taylor_table():
    """Rows c_0, c_1, ... of the Taylor coefficients of F at every node.

    F' = 1 - 2tF gives c_1 = 1 - 2 x0 F(x0) and (n+1) c_{n+1} = -2 (x0 c_n
    + c_{n-1}).  Rows are added until a row's terms at |h| = 1/8, the
    farthest any t lies from its node, are below 2^-56/16 (F/t >= 0.99
    near 0 and F >= 0.07 on [1/8, 7], so relative to F they are below
    2^-56 too)."""
    x0 = np.arange(_NODES.size) * _NODE_STEP
    rows = [_NODES, 1.0 - 2.0 * x0 * _NODES]
    n = 1
    while 16.0 * np.max(np.abs(rows[n])) * 0.125**n > 2.0**-56:
        rows.append(-2.0 * (x0 * rows[n] + rows[n - 1]) / (n + 1))
        n += 1
    return np.array(rows[::-1])     # highest order first, for Horner


_TAYLOR = _taylor_table()


def _asymptotic(x):
    """s = sum_{k>=1} 2k (2k-3)!!/(2t^2)^k on an array of t > 7, to the last
    term above 1e-17 of the first at its smallest t (before the terms turn
    to grow).  By the asymptotic series 2t F = sum_{k>=0} (2k-1)!!/(2t^2)^k,
    (2t^2 + 1) F(t) - t = t s."""
    y = 0.5 / (x * x)
    y_max = float(np.max(y))
    total, term, k, size = 0.0, 2.0 * y, 1, 1.0     # size: term/first at y_max
    while size > 1e-17:
        total = total + term
        k += 1
        ratio = (2 * k - 3) * k / (k - 1)
        term = term * y * ratio
        size *= y_max * ratio
    return total


def dawson(t):
    """Dawson's integral F(t) and R(t) = (2t^2 + 1) F(t) - t, elementwise on
    a float array; both are odd in t, and 0 at +-inf.

    For |t| <= 7, F is a Taylor series about the nearest node, |h| <= 1/8,
    and R is formed from it, losing 2t^2 of its precision (at most 98 ulps,
    at t = 7).  Past 7 both come from one _asymptotic sum s: R = t s and
    F = (1 + s)/(2t + 1/t).  F is within 2e-15 relative of the exact
    value."""
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    f = np.where(a == np.inf, 0.0, a)   # +-inf as 0 (F and R there); nan stays
    r = f.copy()
    inner, outer = f <= _SWITCH, f > _SWITCH
    if inner.any():
        x = f[inner]
        node = np.rint(x * (1.0 / _NODE_STEP)).astype(np.intp)
        h = x - node * _NODE_STEP
        coefs = _TAYLOR[:, node]
        acc = coefs[0]
        for row in coefs[1:]:
            acc = acc * h + row
        f[inner] = acc
        r[inner] = (2 * x * x + 1) * acc - x
    if outer.any():
        x = f[outer]
        s = _asymptotic(x)
        f[outer] = (0.5 + 0.5 * s) / (x + 0.5 / x)
        r[outer] = x * s
    return np.copysign(f, t), np.copysign(r, t)


# ---------------------------------------------------------------------------
# The upper incomplete gamma function Gamma(a, x) = int_x^inf t^{a-1} e^-t
# dt, scaled: S(a, x) = e^x x^-a Gamma(a, x), which is about 1/x for large
# x, so e^-x never underflows

_ULP = 2.0 ** -53
_CHECK = 4      # iterations between convergence checks


def upper_gamma(a, x):
    """S(a, x) = e^x x^-a Gamma(a, x) elementwise on float arrays, a > 0 and
    x >= 0 broadcast together: inf at x = 0, 0 at x = inf, nan at nan.

    Below x = a + 1 it is e^x x^-a Gamma(a) less the series sum_n x^n/(a
    (a+1) ... (a+n)) of the lower function (DLMF 8.7.3), which loses at most
    log2(Gamma(a)/Gamma(a, x)) bits there; from a + 1 on, the continued
    fraction 1/(x + 1 - a - 1 (1 - a)/(x + 3 - a - 2 (2 - a)/(x + 5 - a -
    ...))) (DLMF 8.9.2) by the modified Lentz method (Numerical Recipes
    6.2).  Every _CHECK iterations, an element whose last term or step
    is within one ulp stops, so each element's value is that of its
    one-element call, bit for bit."""
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(x, dtype=float))
    out = np.where(x == 0.0, math.inf, np.where(x == math.inf, 0.0, math.nan))
    inner = (0.0 < x) & (x < a + 1.0)
    outer = (a + 1.0 <= x) & (x < math.inf)
    if inner.any():
        out[inner] = _lower_series(a[inner], x[inner])
    if outer.any():
        out[outer] = _fraction(a[outer], x[outer])
    return out


def _lower_series(a, x):
    """e^x x^-a Gamma(a) - sum_n x^n/(a (a+1) ... (a+n)), for 0 < x < a + 1:
    the lead as the product of its three factors where each is in float
    range, else as one exp of their logs."""
    values = a.tolist()
    gammas = {v: math.gamma(v) if v < 171.0 else math.inf
              for v in set(values)}
    gamma = np.array([gammas[v] for v in values])
    with np.errstate(all="ignore"):
        lead = np.exp(x) * x ** -a * gamma
    far = ~((0.0 < lead) & (lead < math.inf))
    if far.any():
        log_gamma = np.array([gammaln(v) for v in values])
        with np.errstate(over="ignore"):
            lead[far] = np.exp(x[far] - a[far] * np.log(x[far])
                               + log_gamma[far])
    term = 1.0 / a
    return lead - _converged(term, lambda n, term, a, x: term * x / (a + n),
                             term, a, x)


def _converged(total, step, term, *args):
    """total + term_1 + term_2 + ... elementwise, term_n = step(n, term_{n-1},
    *args), each element until a checked term is at most one ulp of its
    total."""
    out = np.empty_like(total)
    live = np.arange(total.size)
    n = 0
    while live.size:
        n += 1
        term = step(n, term, *args)
        total = total + term
        if n % _CHECK:
            continue
        done = np.abs(term) <= _ULP * np.abs(total)
        if done.any():
            out[live[done]] = total[done]
            keep = ~done
            live, total, term = live[keep], total[keep], term[keep]
            args = [v[keep] for v in args]
    return out


def _fraction(a, x):
    """The continued fraction of S(a, x) for x >= a + 1 (modified Lentz),
    with d and 1/c, which take the same step, as the rows of one array.
    For x >= a + 1 the denominators a_i d + b_i and b_i + a_i/c stay above
    3 (tests/test_special.py covers a to 25 and x to 1e4), so neither
    needs the method's guard against zero."""
    rest = a.copy()                 # a - i
    b = x + 1.0 - a
    dc = np.empty((2, x.size))
    dc[0] = 1.0 / b
    dc[1] = 0.0                     # 1/c, c = inf before the first step
    h = dc[0].copy()
    out = np.empty_like(x)
    live, i = np.arange(x.size), 0
    while live.size:
        i += 1
        rest -= 1.0
        an = rest * i
        b += 2.0
        dc *= an
        dc += b
        np.reciprocal(dc, out=dc)
        step = dc[0] / dc[1]        # d c
        h *= step
        if i % _CHECK:
            continue
        step -= 1.0
        done = np.abs(step, out=step) <= _ULP
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live, h, rest, b = (v[keep] for v in (live, h, rest, b))
            dc = dc[:, keep]
    return out
