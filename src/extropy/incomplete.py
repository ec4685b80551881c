"""Regularized incomplete gamma and beta functions, in numpy.

``gamma_tails(a, x)`` gives both tails P(a, x) = gamma(a, x)/Gamma(a) and
Q(a, x) = 1 - P; ``beta_tails(a, b, x)`` gives I_x(a, b) and 1 - I_x(a, b).
The shapes are scalars and ``x`` an array of any shape.

Method (Numerical Recipes 3rd ed., sections 6.2 and 6.4): P by its power
series below x = a + 1 and Q by its continued fraction above; I_x(a, b) by
its continued fraction below x = (a + 1)/(a + b + 2) and I_{1-x}(b, a)
above, both fractions evaluated by the modified Lentz method.  Each element
computes that direct tail and takes the other as one minus it.  Where the
direct tail exceeds 0.9, one minus it would lose the other's relative
accuracy, so the other tail is computed directly too, off its own side of
the threshold: Q by its fraction evaluated backward, I_x(a, b) by raising a
until x is on the fraction's side.  Past :func:`_limit` terms it falls
back on one minus.

The prefactors x^a e^-x / Gamma(a) and x^a (1-x)^b / B(a, b) are formed as
the square of x^(a/2) e^(-x/2) (of x^(a/2) (1-x)^(b/2)), so that no factor
under- or overflows while the prefactor is a normal float; Gamma(a+b) is
corrected for the rounding of a + b, and (1-x)^b for that of 1 - x.  From
a = 171 (a + b = 171), where Gamma overflows, they are Stirling forms in
log r - (r - 1) of the ratios r of x (and 1 - x) to their values at the
mode, whose error grows with the prefactor's logarithm rather than with
the shapes.

The prefactors are numpy expressions at every call size.  Calls of up to
``_SMALL`` points then run the series, fractions and complements element by
element on Python floats; larger calls run the same arithmetic on arrays,
retiring each element where the scalar loop would stop, so both paths give
the same bits.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gamma_tails", "beta_tails"]

_EPS = float(np.finfo(float).eps)
_TINY = 1e-300  # the Lentz floor for a vanishing denominator
_SMALL = 160    # calls with at most this many points loop on Python floats
_MAXIT = 10_000
_COMPLEMENT = 0.9


def _limit(a: float, b: float = 0.0) -> int:
    """The most terms an expansion of shapes a, b may take: near the mode
    the series and fractions need about 9 sqrt(max(a, b)) terms."""
    return _MAXIT + int(10.0 * math.sqrt(max(a, b)))


# -- the expansions, one element on Python floats ---------------------------------
# Each returns the sum S that multiplies the prefactor, or NaN if it has not
# converged within _limit terms.

def _gamma_series1(a: float, x: float) -> float:
    """P(a, x) = pre * S, pre = x^a e^-x / Gamma(a)."""
    eps = _EPS
    ap = a
    d = s = 1.0 / a
    for _ in range(_limit(a)):
        ap += 1.0
        d *= x / ap
        s += d
        if d < s * eps:
            return s
    return math.nan


def _gamma_fraction1(a: float, x: float, backward: bool) -> float:
    """Q(a, x) = pre * S by the modified Lentz method.

    With ``backward`` the forward pass only finds the number of terms N
    after which a term moves the value by less than an ulp, and S is
    evaluated from term 2N back to the first.  Where the fraction needs
    thousands of terms (small a and x, off its own side of a + 1) the
    forward product of the Lentz ratios drifts by ~1e-13 and stops early;
    the backward evaluation stays within a few ulps.
    """
    tiny, eps = _TINY, _EPS
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _limit(a)):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if -tiny < d < tiny:
            d = tiny
        c = b + an / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        de = d * c
        h *= de
        if -eps < de - 1.0 < eps:
            break
    else:
        return math.nan
    if not backward:
        return h
    b0 = x + 1.0 - a
    t = b0 + 4.0 * i
    for j in range(2 * i, 0, -1):
        t = (b0 + 2.0 * (j - 1)) + -j * (j - a) / t
    return 1.0 / t


def _beta_fraction1(a: float, b: float, x: float, limit: int) -> float:
    """I_x(a, b) = pre / a * S, pre = x^a (1-x)^b / B(a, b)."""
    tiny, eps = _TINY, _EPS
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -tiny < d < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, limit):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if -tiny < d < tiny:
            d = tiny
        c = 1.0 + aa / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if -tiny < d < tiny:
            d = tiny
        c = 1.0 + aa / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        de = d * c
        h *= de
        if -eps < de - 1.0 < eps:
            return h
    return math.nan


def _shift(a: float, b: float, x: float, y: float) -> int:
    """The n of :func:`_beta_shifted1`: the least n >= 0 with x below
    (a + n + 1)/(a + b + n + 2), or 0 where that exceeds _MAXIT: the
    unshifted fraction then runs, and where it does not converge the caller
    falls back on one minus the other tail."""
    n = math.ceil((x * (a + b + 2.0) - (a + 1.0)) / y) if y > 0.0 else 0
    return n if 0 < n <= _MAXIT else 0


def _beta_shifted1(a: float, b: float, x: float, y: float, pre: float) -> float:
    """I_x(a, b), with pre = x^a y^b / B(a, b) and y = 1 - x.

    Below x = (a + 1)/(a + b + 2) this is the continued fraction.  Above
    it, where the fraction converges slowly and loses accuracy, the first
    shape is raised by n until x is below the threshold of (a + n, b), and
    I_x(a, b) is the sum of the n positive terms x^(a+k) y^b / ((a+k)
    B(a+k, b)) and I_x(a + n, b) (BUP of DiDonato & Morris, ACM TOMS 18,
    1992).
    """
    n = _shift(a, b, x, y)
    term = pre / a
    s = 0.0
    for k in range(n):
        s += term
        term *= x * (a + k + b) / (a + k + 1.0)
    return s + term * _beta_fraction1(a + n, b, x, _limit(a, b))


def _gamma_pair(a: float, x: float, pre: float) -> tuple[float, float]:
    if x >= a + 1.0:
        q = pre * _gamma_fraction1(a, x, False)
        p = 1.0 - q
        if q > _COMPLEMENT:
            p = _or(pre * _gamma_series1(a, x), p)
        return p, q
    p = pre * _gamma_series1(a, x)
    q = 1.0 - p
    if p > _COMPLEMENT:
        q = _or(pre * _gamma_fraction1(a, x, True), q)
    return p, q


def _beta_pair(a: float, b: float, x: float, y: float, pre: float) -> tuple[float, float]:
    if x >= (a + 1.0) / (a + b + 2.0):
        s = pre * _beta_fraction1(b, a, y, _limit(a, b)) / b
        c = 1.0 - s
        if s > _COMPLEMENT:
            c = _or(_beta_shifted1(a, b, x, y, pre), c)
        return c, s
    c = pre * _beta_fraction1(a, b, x, _limit(a, b)) / a
    s = 1.0 - c
    if c > _COMPLEMENT:
        s = _or(_beta_shifted1(b, a, y, x, pre), s)
    return c, s


def _or(value: float, fallback: float) -> float:
    """``value``, or ``fallback`` where it is NaN (did not converge)."""
    return fallback if value != value else value


# -- the same arithmetic on arrays ------------------------------------------------
# Each loop retires an element at the term where the scalar loop returns.

def _gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    if not x.size:
        return x.copy()
    out = np.full(x.size, np.nan)
    idx = np.arange(x.size)
    d = s = np.full(x.size, 1.0 / a)
    ap = a
    for _ in range(_limit(a)):
        ap += 1.0
        d = d * (x / ap)
        s = s + d
        done = d < s * _EPS
        if done.any():
            out[idx[done]] = s[done]
            keep = ~done
            idx, x, d, s = idx[keep], x[keep], d[keep], s[keep]
            if not idx.size:
                break
    return out


def _gamma_fraction(a: float, x: np.ndarray, backward: bool) -> np.ndarray:
    if not x.size:
        return x.copy()
    out = np.full(x.size, np.nan)
    n = np.zeros(x.size, dtype=int)
    idx = np.arange(x.size)
    xs = x
    b = x + 1.0 - a
    c = np.full(x.size, 1.0 / _TINY)
    d = 1.0 / b
    h = d
    for i in range(1, _limit(a)):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(abs(d) < _TINY, _TINY, d)
        c = b + an / c
        c = np.where(abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        de = d * c
        h = h * de
        done = abs(de - 1.0) < _EPS
        if done.any():
            out[idx[done]] = h[done]
            n[idx[done]] = 2 * i
            keep = ~done
            idx, b, c, d, h = idx[keep], b[keep], c[keep], d[keep], h[keep]
            if not idx.size:
                break
    if not backward:
        return out
    b0 = xs + 1.0 - a
    t = b0 + 2.0 * n
    for j in range(int(n.max(initial=0)), 0, -1):
        t = np.where(j <= n, (b0 + 2.0 * (j - 1)) + -j * (j - a) / t, t)
    return np.where(np.isnan(out), np.nan, 1.0 / t)


def _beta_fraction(a, b: float, x: np.ndarray, limit: int) -> np.ndarray:
    """For a scalar or per-element first shape ``a``."""
    if not x.size:
        return x.copy()
    a = np.broadcast_to(np.asarray(a, dtype=float), x.shape)
    out = np.full(x.size, np.nan)
    idx = np.arange(x.size)
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones(x.size)
    d = 1.0 - qab * x / qap
    d = 1.0 / np.where(abs(d) < _TINY, _TINY, d)
    h = d
    for m in range(1, limit):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(abs(d) < _TINY, _TINY, d)
        c = 1.0 + aa / c
        c = np.where(abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(abs(d) < _TINY, _TINY, d)
        c = 1.0 + aa / c
        c = np.where(abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        de = d * c
        h = h * de
        done = abs(de - 1.0) < _EPS
        if done.any():
            out[idx[done]] = h[done]
            keep = ~done
            idx, x, a, qab, qap, qam = (idx[keep], x[keep], a[keep], qab[keep],
                                        qap[keep], qam[keep])
            c, d, h = c[keep], d[keep], h[keep]
            if not idx.size:
                break
    return out


def _beta_shifted(a: float, b: float, x: np.ndarray, y: np.ndarray,
                  pre: np.ndarray) -> np.ndarray:
    n = np.array([_shift(a, b, xi, yi) for xi, yi in zip(x.tolist(), y.tolist())],
                 dtype=int)
    term = pre / a
    s = np.zeros(x.shape)
    for k in range(int(n.max(initial=0))):
        on = k < n
        s = np.where(on, s + term, s)
        term = np.where(on, term * (x * (a + k + b) / (a + k + 1.0)), term)
    return s + term * _beta_fraction(a + n, b, x, _limit(a, b))


def _or_array(value: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """:func:`_or` elementwise."""
    return np.where(np.isnan(value), fallback, value)


# -- prefactors -----------------------------------------------------------------

def _log_ratio(r: np.ndarray) -> np.ndarray:
    """log(r) - (r - 1) for r >= 0, by its power series in t = r - 1 where
    |t| < 1/4.  It takes r rather than t, so that an r far below 1 keeps
    its relative precision."""
    t = r - 1.0
    small = abs(t) < 0.25
    ts = np.where(small, t, 0.0)
    series = np.zeros(t.shape)  # sum of (-1)^(k+1) t^(k-2) / k, k >= 2
    for k in range(28, 1, -1):
        series = series * ts + (1.0 / k if k % 2 else -1.0 / k)
    return np.where(small, series * ts * ts, np.log(r) - t)


# B_2k / (2k (2k - 1)), k = 1..7: the coefficients of Stirling's series.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling(z: float) -> float:
    """log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2; by Stirling's
    series from z = 10, where its next term is below 1e-16."""
    if z < 10.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - 0.5 * math.log(2.0 * math.pi)
    r = 1.0 / (z * z)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * r + c
    return s / z


def _gamma_prefix(a: float, x: np.ndarray) -> np.ndarray:
    """x^a e^-x / Gamma(a) at finite x >= 0; beyond the fast form, as
    sqrt(a / 2 pi) exp(a (log r - (r - 1)) - stirling(a)), r = x / a."""
    pre = math.nan
    if a < 171.0:
        h = x ** (0.5 * a) * np.exp(-0.5 * x)
        pre = h * (h / math.gamma(a))
        if np.isfinite(pre).all():
            return pre
    slow = math.sqrt(a / (2.0 * math.pi)) * np.exp(a * _log_ratio(x / a) - _stirling(a))
    return np.where(np.isfinite(pre), pre, slow)


def _beta(a: float, b: float) -> float:
    """B(a, b) for a + b < 171, with Gamma(a + b) corrected to first order
    for the rounding of a + b (Gamma'/Gamma = psi(s) ~ log(s - 1/2))."""
    s = a + b
    bv = s - a
    err = (a - (s - bv)) + (b - bv)  # s + err = a + b exactly
    gs = math.gamma(s)
    if s > 2.0:
        gs *= 1.0 + err * math.log(s - 0.5)
    return math.gamma(a) / gs * math.gamma(b)


def _beta_prefix(a: float, b: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^a (1-x)^b / B(a, b) at 0 <= x <= 1, where y = 1 - x rounded.

    From a + b = n = 171, where Gamma overflows, with L(r) = log r - (r - 1):
    sqrt(ab / 2 pi n) exp(a L(xn/a) + b L(yn/b) + stirling(n) - stirling(a)
    - stirling(b)).
    """
    if a + b < 171.0:
        # 1 - x = y + e exactly; e is 0 for x >= 1/2, where y > 1/2 otherwise.
        e = (1.0 - y) - x
        yb = y ** (0.5 * b) * (1.0 + 0.5 * b * e / np.maximum(y, 0.5))
        h = x ** (0.5 * a) * yb
        return h * (h / _beta(a, b))
    n = a + b
    return math.sqrt(a * b / (2.0 * math.pi * n)) * np.exp(
        a * _log_ratio(x / (a / n)) + b * _log_ratio(y / (b / n))
        + (_stirling(n) - _stirling(a) - _stirling(b)))


# -- the two tails ----------------------------------------------------------------

def gamma_tails(a: float, x) -> tuple[np.ndarray, np.ndarray]:
    """(P(a, x), Q(a, x)) for a > 0 and x >= 0 (NaN stays NaN)."""
    # 1-d throughout: numpy computes powers and exponentials of a scalar by
    # another routine than of an array, which could differ in the last bit.
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).ravel()
    xf = np.where(x < np.inf, x, 0.0)  # inf and NaN are set below
    with np.errstate(all="ignore"):
        pre = _gamma_prefix(a, xf)
        if x.size <= _SMALL:
            pq = [_gamma_pair(a, xi, pi) for xi, pi in zip(xf.tolist(), pre.tolist())]
            p = np.array([v[0] for v in pq])
            q = np.array([v[1] for v in pq])
        else:
            up = xf >= a + 1.0
            p = np.empty(x.shape)
            q = np.empty(x.shape)
            q[up] = pre[up] * _gamma_fraction(a, xf[up], False)
            p[~up] = pre[~up] * _gamma_series(a, xf[~up])
            p[up] = 1.0 - q[up]
            q[~up] = 1.0 - p[~up]
            hi = up & (q > _COMPLEMENT)
            if hi.any():
                p[hi] = _or_array(pre[hi] * _gamma_series(a, xf[hi]), p[hi])
            lo = ~up & (p > _COMPLEMENT)
            if lo.any():
                q[lo] = _or_array(pre[lo] * _gamma_fraction(a, xf[lo], True), q[lo])
    if not (x < np.inf).all():
        p = np.where(x == np.inf, 1.0, np.where(np.isnan(x), np.nan, p))
        q = np.where(x == np.inf, 0.0, np.where(np.isnan(x), np.nan, q))
    return p.reshape(shape), q.reshape(shape)


def beta_tails(a: float, b: float, x) -> tuple[np.ndarray, np.ndarray]:
    """(I_x(a, b), 1 - I_x(a, b)) for a, b > 0 and 0 <= x <= 1 (NaN stays
    NaN)."""
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).ravel()  # 1-d, as in gamma_tails
    nan = np.isnan(x)
    xf = np.where(nan, 0.0, x)
    y = 1.0 - xf
    with np.errstate(all="ignore"):
        pre = _beta_prefix(a, b, xf, y)
        if x.size <= _SMALL:
            cs = [_beta_pair(a, b, xi, yi, pi) for xi, yi, pi in
                  zip(xf.tolist(), y.tolist(), pre.tolist())]
            c = np.array([v[0] for v in cs])
            s = np.array([v[1] for v in cs])
        else:
            up = xf >= (a + 1.0) / (a + b + 2.0)
            c = np.empty(x.shape)
            s = np.empty(x.shape)
            s[up] = pre[up] * _beta_fraction(b, a, y[up], _limit(a, b)) / b
            c[~up] = pre[~up] * _beta_fraction(a, b, xf[~up], _limit(a, b)) / a
            s[~up] = 1.0 - c[~up]
            c[up] = 1.0 - s[up]
            hi = up & (s > _COMPLEMENT)
            if hi.any():
                c[hi] = _or_array(_beta_shifted(a, b, xf[hi], y[hi], pre[hi]), c[hi])
            lo = ~up & (c > _COMPLEMENT)
            if lo.any():
                s[lo] = _or_array(_beta_shifted(b, a, y[lo], xf[lo], pre[lo]), s[lo])
    if nan.any():
        c = np.where(nan, np.nan, c)
        s = np.where(nan, np.nan, s)
    return c.reshape(shape), s.reshape(shape)
