"""The special functions of szilard._special against independent references:
50-digit mpmath, and scipy.special, whose bits fig6's residual column
was written with."""

import math

import numpy as np
import pytest

from szilard import _special
from szilard._special import dawson, gammaln, gammasgn


def _mp_dawson(mpmath, t):
    """F(t) = (sqrt(pi)/2) e^{-t^2} erfi(t), at the working precision."""
    t = mpmath.mpf(float(t))
    return mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-t * t) * mpmath.erfi(t)


def _dawson_points():
    nodes = np.arange(29) * 0.25
    # halfway between nodes h = +-1/8, the farthest a point lies from its node
    mids = nodes[:-1] + 0.125
    rng = np.random.default_rng(20)
    return np.concatenate([
        nodes, -nodes, mids, np.nextafter(mids, 0.0), np.nextafter(mids, 8.0),
        [7.0, np.nextafter(7.0, 0.0), np.nextafter(7.0, 8.0), -7.0,
         1e-300, 5e-324, -5e-324, 1e5, -50.0],
        np.linspace(-50.0, 50.0, 401), rng.uniform(-8.0, 8.0, 400),
        np.geomspace(7.0, 1e5, 200)])


def test_dawson_matches_mpmath():
    """F within 2e-15 relative of 50-digit F on [-50, 1e5], at the nodes,
    the midpoints between them and the switch to the asymptotic series.
    R = (2t^2 + 1) F - t within 2e-15 of (2t^2 + 1) |F| + |t|, the terms
    whose difference it is below 7, and of R itself past 7."""
    mpmath = pytest.importorskip("mpmath")
    t = _dawson_points()
    f, r = dawson(t)
    with mpmath.workdps(50):
        for ti, fi, ri in zip(t, f, r):
            x = mpmath.mpf(float(ti))
            ref = _mp_dawson(mpmath, x)
            assert abs(mpmath.mpf(float(fi)) - ref) <= 2e-15 * abs(ref), ti
            ref_r = (2 * x * x + 1) * ref - x
            scale = abs(ref_r) if abs(ti) > 7 else abs(ref_r + x) + abs(x)
            assert abs(mpmath.mpf(float(ri)) - ref_r) <= 2e-15 * scale, ti


def test_dawson_edge_values():
    """F is odd with F(t) ~ t at 0, F and R are 0 at +-inf, and nan stays
    nan."""
    f, r = dawson(np.array([0.0, -0.0, 5e-324, -1e-300, np.inf, -np.inf,
                            np.nan]))
    assert f[:4].tolist() == [0.0, -0.0, 5e-324, -1e-300]
    for values in (f, r):
        assert list(np.signbit(values[:2])) == [False, True]
        assert values[4:6].tolist() == [0.0, 0.0]
        assert list(np.signbit(values[4:6])) == [False, True]
        assert np.isnan(values[6])
    assert dawson(7.0)[0].shape == ()


def test_dawson_nodes_rebuild_from_mpmath():
    """The committed node values are F(j/4), j = 0..28, correctly rounded."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        rebuilt = [float(_mp_dawson(mpmath, j / 4)) for j in range(29)]
    assert rebuilt == _special._NODES.tolist()


def _gamma_points():
    rng = np.random.default_rng(21)
    return np.concatenate([
        rng.uniform(-40.0, 13.0, 1500),
        np.exp(rng.uniform(math.log(13.0), math.log(1e9), 500)),
        np.exp(rng.uniform(-30.0, 0.0, 100)),
        -np.exp(rng.uniform(-30.0, 0.0, 100)),
        [0.5, 1.0, 2.0, 2.5, 3.0, 12.999999, 13.0, 999.5, 1000.0, 1e8, 1.5e8,
         -33.5, -34.5, -39.999]])


def test_gammaln_matches_mpmath():
    """log |Gamma| within 1e-15, relative where it exceeds 1 and absolute
    below (the error measure of Cephes lgam), and the sign of Gamma exact,
    away from the poles."""
    mpmath = pytest.importorskip("mpmath")
    x = _gamma_points()
    x = x[(x > 0.0) | (x != np.round(x))]
    with mpmath.workdps(50):
        for xi in x:
            ref = mpmath.mpf(float(xi))
            log_abs = mpmath.re(mpmath.loggamma(ref))
            err = abs(mpmath.mpf(gammaln(xi)) - log_abs)
            assert err <= 1e-15 * max(1, abs(log_abs)), xi
            assert gammasgn(xi) == (1.0 if mpmath.gamma(ref) > 0 else -1.0)


def test_gamma_poles_and_non_finite_inputs():
    for pole in (0.0, -1.0, -2.0, -35.0, -1e300):
        assert gammaln(pole) == math.inf
    assert gammaln(math.inf) == math.inf and math.isnan(gammaln(math.nan))
    assert gammaln(3e305) == math.inf
    assert [gammasgn(x) for x in (0.0, -0.0, math.inf)] == [1.0, -1.0, 1.0]
    assert all(math.isnan(gammasgn(x))
               for x in (-1.0, -40.0, -math.inf, math.nan))


def test_gamma_bits_equal_scipy():
    """gammaln and gammasgn give scipy.special's bits, on every branch of
    Cephes lgam; fig6's residual column depends on it."""
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(22)
    x = np.concatenate([
        _gamma_points(), rng.uniform(-40.0, -34.0, 500),
        np.round(rng.uniform(-40.0, 40.0, 500), 2),
        np.exp(rng.uniform(math.log(1e8), math.log(1e300), 300)),
        [0.0, -0.0, -1.0, -34.0, 2.556348e305, 3e305, 5e-324, -5e-324,
         math.inf, -math.inf, math.nan]])

    def bits(values):
        values = np.asarray(values, dtype=float)
        return np.where(np.isnan(values), -1,
                        values.view(np.int64)).tolist()

    assert bits([gammaln(v) for v in x]) == bits(special.gammaln(x))
    assert bits([gammasgn(v) for v in x]) == bits(special.gammasgn(x))


def _upper_gamma_points():
    """a over 0.5-25 (1/p and 1/p + 1 of the power laws nu 0.05-4, p =
    2 nu/(nu + 2)), and x over 1e-3 to 1e4 with the switch at a + 1 and
    its neighbours."""
    rng = np.random.default_rng(19)
    a = np.concatenate([[0.5, 0.75, 1.0, 1.125, 2.0, 20.5, 21.5, 25.0],
                        rng.uniform(0.5, 25.0, 24)])
    points = []
    for value in a.tolist():
        switch = value + 1.0
        xs = np.concatenate([np.geomspace(1e-3, 1e4, 25), [
            switch, np.nextafter(switch, 0.0), np.nextafter(switch, 1e9),
            0.5 * switch, 2.0 * switch], rng.uniform(0.0, 3.0 * switch, 4)])
        points += [(value, x) for x in xs.tolist()]
    return np.array(points).T


def test_upper_gamma_matches_mpmath():
    """S(a, x) = e^x x^-a Gamma(a, x) within 1e-14 relative of 50-digit
    mpmath gammainc, on both sides of the switch from the series to the
    continued fraction at x = a + 1."""
    mpmath = pytest.importorskip("mpmath")
    a, x = _upper_gamma_points()
    got = _special.upper_gamma(a, x)
    with mpmath.workdps(50):
        for ai, xi, gi in zip(a.tolist(), x.tolist(), got.tolist()):
            aa, xx = mpmath.mpf(ai), mpmath.mpf(xi)
            ref = mpmath.gammainc(aa, xx) * mpmath.exp(xx) * xx ** -aa
            assert abs(mpmath.mpf(gi) - ref) <= 1e-14 * ref, (ai, xi)


def test_upper_gamma_edges_and_batches():
    """inf at x = 0, 0 at x = inf, nan at nan; and an array call gives each
    element the bits of its one-element call."""
    a, x = _upper_gamma_points()
    edges = _special.upper_gamma(np.array([1.5, 1.5, 0.5, 1.5]),
                                 np.array([0.0, np.inf, 0.0, np.nan]))
    assert edges[:3].tolist() == [math.inf, 0.0, math.inf]
    assert math.isnan(edges[3])
    whole = _special.upper_gamma(a, x)
    alone = [_special.upper_gamma(np.array([ai]), np.array([xi]))[0]
             for ai, xi in zip(a.tolist(), x.tolist())]
    assert whole.tolist() == alone
