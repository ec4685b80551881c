"""Catalog of univariate lifetime distributions.

Each member carries vectorized pdf/cdf/survival evaluators, a quantile, a
sampler driven by an explicit numpy Generator, the analytic endpoint
exponents of its density (fed to the integration engine as singularity
hints), and a table of closed-form measure values where one exists.

Families: exponential(rate), uniform(a, b), gamma(alpha, beta) with beta
the scale, beta(alpha, beta), piecewise(weights) with unit-width cells on
[0, n), pareto(shape, scale) with hazard shape/t, and tabulated densities
given as an (x, f) grid, linearly interpolated and renormalized.

The gamma and beta cdf and sf are the regularized incomplete gamma and
beta functions of :mod:`extropy.incomplete`, imported on the first such
evaluation, not with this module.  Their quantiles are a bracketed Newton
iteration; the other families invert their cdf in closed form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
# np.clip's ufunc without np.clip's Python-level wrapper, which costs the
# evaluators about twice as much per call on numpy scalars.  Like np.clip
# it keeps the sign of zero: clip(-0.0, 0.0, 1.0) is -0.0.
from numpy._core.umath import clip as _clip

__all__ = [
    "ValidationError",
    "UnivariateDistribution",
    "log_gamma",
    "log_beta",
    "beta2",
    "beta3",
    "exponential",
    "uniform",
    "gamma_dist",
    "beta_dist",
    "piecewise",
    "pareto",
    "tabulated",
    "make_distribution",
    "closed_form",
]

class ValidationError(ValueError):
    """A distribution specification violates a named constraint."""


# -- special functions -------------------------------------------------------

def log_gamma(x: float) -> float:
    return math.lgamma(x)


def log_beta(*shapes: float) -> float:
    """log G(a)G(b).../G(a+b+...), the log of the complete beta function of
    two or three shapes; finite where the function itself underflows."""
    total = lg = 0.0
    for v in shapes:
        total += v
        lg += math.lgamma(v)
    return lg - math.lgamma(total)


def beta2(a: float, b: float) -> float:
    """Complete beta function B(a, b)."""
    return math.exp(log_beta(a, b))


def beta3(a: float, b: float, c: float) -> float:
    """Three-parameter complete beta function G(a)G(b)G(c)/G(a+b+c)."""
    return math.exp(log_beta(a, b, c))


def _special():
    """:mod:`extropy.incomplete`, imported on the first gamma or beta cdf,
    sf or quantile evaluation."""
    from . import incomplete
    return incomplete


# -- catalog type ------------------------------------------------------------

@dataclass(frozen=True)
class UnivariateDistribution:
    """A lifetime distribution with vectorized evaluators.

    ``pdf_edge_exponents`` holds the local power of f at the two support
    edges (an exponent at an infinite edge describes the tail; None means
    the tail decays faster than any power).  It is the single source of
    edge behaviour: :meth:`edge_exponents` derives the powers of every
    integrand built from f.  ``breakpoints`` are the interior points of the
    support where f jumps or kinks.  ``closed_forms`` maps measure
    identifiers to analytic values: a float, -inf for a divergent measure,
    or a callable of t for time-indexed measures.
    """

    family: str
    params: Mapping[str, object]
    support: tuple[float, float]
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    sf: Callable[[np.ndarray], np.ndarray]
    quantile: Callable[[np.ndarray], np.ndarray]
    pdf_edge_exponents: tuple[float | None, float | None] = (None, None)
    breakpoints: tuple[float, ...] = ()
    closed_forms: Mapping[str, object] = field(default_factory=dict)

    @property
    def label(self) -> str:
        inner = ", ".join(f"{k}={_fmt(v)}" for k, v in self.params.items())
        return f"{self.family}({inner})"

    def edge_exponents(self, power: float = 1, weighted: bool = False
                       ) -> tuple[float | None, float | None]:
        """Local powers of x**w * f**power at (lower, upper), w = 1 if weighted.

        The weight x adds 1 only at an edge at 0 and to an infinite tail;
        at any other finite edge it tends to a constant.  None where
        ``pdf_edge_exponents`` is None.
        """
        lo, hi = self.support
        p_lo, p_hi = self.pdf_edge_exponents
        w = 1.0 if weighted else 0.0
        return (None if p_lo is None else power * p_lo + (w if lo == 0.0 else 0.0),
                None if p_hi is None else power * p_hi + (w if math.isinf(hi) else 0.0))

    def hazard(self, x):
        """f/sf where the survival function is positive."""
        x = np.asarray(x, dtype=float)
        s = self.sf(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(s > 0.0, self.pdf(x) / np.where(s > 0.0, s, 1.0), np.inf)

    def reversed_hazard(self, x):
        """f/cdf where the distribution function is positive."""
        x = np.asarray(x, dtype=float)
        c = self.cdf(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(c > 0.0, self.pdf(x) / np.where(c > 0.0, c, 1.0), np.inf)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.quantile(rng.random(n))


def _fmt(v) -> str:
    if isinstance(v, float) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ",".join(_fmt(float(u)) for u in v) + "]"
    return str(v)


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; entries must be integers or floats
    (not strings, bools or other objects)."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be numbers") from exc
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be numbers")
    return arr.astype(float)


def _require_finite(family: str, **params) -> None:
    """Reject an infinite or NaN parameter.  JSON specs admit Infinity and
    NaN, and a range check such as ``not x > 0`` lets +inf through."""
    bad = [k for k, v in params.items() if not np.all(np.isfinite(v))]
    if bad:
        raise ValidationError(f"{family} requires finite {', '.join(bad)}")


def _quantile_by_newton(p, tails, pdf, support, start):
    """Vectorised, bracketed Newton solution of cdf(x) = p.

    Below p = 1/2 it solves log cdf(x) = log p, above it log sf(x) =
    log(1 - p), with 1 - p exact there, so both tails keep their relative
    accuracy.  Newton runs on the log of the distance from x to the
    support edge nearer the first iterate, so that a power-law tail is
    solved in about one step and no step crosses the edge; the distance
    itself is kept, so that a tiny quantile keeps its relative precision.
    ``tails(x)`` gives (cdf, sf), ``start(p)`` the first x, inside
    ``support``.  Each evaluation tightens a bracket of the distance, and a
    step that leaves it takes the bracket's geometric mean instead (or
    moves up by a factor e while it is open above).  An element stops
    when its step is below 1e-10 of the distance: the next would be about
    the square of that.  quantile(0) and quantile(1) are the support edges.
    """
    p = np.asarray(p, dtype=float)
    lo, hi = support
    out = np.where(p <= 0.0, lo, np.where(p >= 1.0, hi, np.nan)).ravel()
    idx = np.flatnonzero((p > 0.0) & (p < 1.0))
    pv = p.ravel()[idx]
    upper = pv > 0.5
    target = np.where(upper, 1.0 - pv, pv)
    with np.errstate(all="ignore"):
        x = start(pv)
        # x = edge + sign * dist, from the edge nearer the first iterate
        flip = (x > 0.5 * (lo + hi)) & math.isfinite(hi)
        edge = np.where(flip, hi, lo)
        sign = np.where(flip, -1.0, 1.0)
        dist = sign * (x - edge)
        # The bracket of dist, from the least positive float: a quantile
        # below it rounds to the edge.
        below = np.full(dist.shape, 5e-324)
        above = np.full(dist.shape, hi - lo)
        dist = np.where((dist > 0.0) & (dist < above), dist, 0.5 * np.minimum(above, 2.0))
        orient = np.where(upper, -sign, sign)
        for _ in range(100):  # far more than a bracketed Newton needs
            if not idx.size:
                break
            x = edge + sign * dist
            c, s = tails(x)
            v = np.where(upper, s, c)
            g = np.log(v / target) * orient  # > 0: dist too large
            below = np.where(g < 0.0, dist, below)
            above = np.where(g > 0.0, dist, above)
            new = dist * np.exp(-g * v / (dist * pdf(x)))
            inside = (new >= below) & (new <= above) & (new < np.inf)
            if not inside.all():
                new = np.where(inside, new,
                               np.where(np.isinf(above), below * math.e,
                                        np.exp(0.5 * (np.log(below) + np.log(above)))))
            new = np.where(g == 0.0, dist, new)
            done = abs(new - dist) <= 1e-10 * dist
            if done.any():
                out[idx[done]] = (edge + sign * new)[done]
                keep = ~done
                idx, upper, target, edge, sign, orient, new, below, above = (
                    idx[keep], upper[keep], target[keep], edge[keep], sign[keep],
                    orient[keep], new[keep], below[keep], above[keep])
            dist = new
    out[idx] = edge + sign * dist
    return out.reshape(p.shape)


def _normal_start(p):
    """Numerical Recipes' rational approximation of the standard normal
    deviate of p (negative below 1/2)."""
    t = np.sqrt(-2.0 * np.log(np.where(p < 0.5, p, 1.0 - p)))
    z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
    return np.where(p < 0.5, z, -z)


# -- families ----------------------------------------------------------------

def exponential(rate: float) -> UnivariateDistribution:
    if not rate > 0:
        raise ValidationError("exponential requires rate > 0")
    _require_finite("exponential", rate=rate)
    lam = float(rate)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, lam * np.exp(-lam * x), 0.0)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, -np.expm1(-lam * x), 0.0)

    def sf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, np.exp(-lam * x), 1.0)

    def quantile(p):
        p = np.asarray(p, dtype=float)
        with np.errstate(divide="ignore"):  # p = 1 is the infinite upper edge
            return -np.log1p(-p) / lam

    return UnivariateDistribution(
        family="exponential", params={"rate": lam}, support=(0.0, math.inf),
        pdf=pdf, cdf=cdf, sf=sf, quantile=quantile,
        pdf_edge_exponents=(0.0, None),
        closed_forms={
            "weighted_extropy": -0.125,
            "weighted_residual_extropy": lambda t: -lam * t / 4.0 - 0.125,
        })


def uniform(a: float, b: float) -> UnivariateDistribution:
    if not a >= 0:
        raise ValidationError("uniform requires a >= 0 (non-negative support)")
    if not a < b:
        raise ValidationError("uniform requires a < b")
    _require_finite("uniform", a=a, b=b)
    a, b = float(a), float(b)
    w = b - a

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= a) & (x <= b), 1.0 / w, 0.0)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return _clip((x - a) / w, 0.0, 1.0)

    def sf(x):
        x = np.asarray(x, dtype=float)
        return _clip((b - x) / w, 0.0, 1.0)

    def quantile(p):
        return a + np.asarray(p, dtype=float) * w

    return UnivariateDistribution(
        family="uniform", params={"a": a, "b": b}, support=(a, b),
        pdf=pdf, cdf=cdf, sf=sf, quantile=quantile,
        pdf_edge_exponents=(0.0, 0.0),
        closed_forms={
            "extropy": -1.0 / (2.0 * w),
            "weighted_extropy": -(b + a) / (4.0 * w),
        })


def gamma_dist(alpha: float, beta: float) -> UnivariateDistribution:
    if not alpha > 0:
        raise ValidationError("gamma requires alpha > 0")
    if not beta > 0:
        raise ValidationError("gamma requires beta > 0 (scale)")
    _require_finite("gamma", alpha=alpha, beta=beta)
    al, sc = float(alpha), float(beta)
    lognorm = math.lgamma(al) + al * math.log(sc)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        pos = x > 0.0
        xs = np.where(pos, x, 1.0)
        return np.where(pos, np.exp((al - 1.0) * np.log(xs) - xs / sc - lognorm), 0.0)

    def tails(x):
        x = np.asarray(x, dtype=float)
        return _special().gamma_tails(al, np.maximum(x, 0.0) / sc)

    def cdf(x):
        return tails(x)[0]

    def sf(x):
        return tails(x)[1]

    def start(p):
        # Numerical Recipes 3rd ed., invgammp: Wilson-Hilferty above a = 1,
        # the two tails' leading terms below.
        if al > 1.0:
            z = _normal_start(p)
            x = al * (1.0 - 1.0 / (9.0 * al) + z / (3.0 * math.sqrt(al))) ** 3
            return sc * np.maximum(x, 1e-3)
        t = 1.0 - al * (0.253 + al * 0.12)
        return sc * np.where(p < t, (p / t) ** (1.0 / al), 1.0 - np.log1p(-(p - t) / (1.0 - t)))

    def quantile(p):
        return _quantile_by_newton(p, tails, pdf, (0.0, math.inf), start)

    # J^w(gamma) = -Gamma(2a) / (2**(2a+1) Gamma(a)**2), free of the scale.
    jw = -math.exp(math.lgamma(2 * al) - (2 * al + 1) * math.log(2.0)
                   - 2 * math.lgamma(al))
    return UnivariateDistribution(
        family="gamma", params={"alpha": al, "beta": sc}, support=(0.0, math.inf),
        pdf=pdf, cdf=cdf, sf=sf, quantile=quantile,
        pdf_edge_exponents=(al - 1.0, None),
        closed_forms={"weighted_extropy": jw})


def beta_dist(alpha: float, beta: float) -> UnivariateDistribution:
    if not alpha > 0:
        raise ValidationError("beta requires alpha > 0")
    if not beta > 0:
        raise ValidationError("beta requires beta > 0")
    _require_finite("beta", alpha=alpha, beta=beta)
    al, be = float(alpha), float(beta)
    logb = log_beta(al, be)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0.0) & (x < 1.0)
        xs = np.where(inside, x, 0.5)
        lp = (al - 1.0) * np.log(xs) + (be - 1.0) * np.log1p(-xs) - logb
        return np.where(inside, np.exp(lp), 0.0)

    def tails(x):
        x = np.asarray(x, dtype=float)
        return _special().beta_tails(al, be, _clip(x, 0.0, 1.0))

    def cdf(x):
        return tails(x)[0]

    def sf(x):
        return tails(x)[1]

    def start(p):
        # Numerical Recipes 3rd ed., invbetai.
        if al >= 1.0 and be >= 1.0:
            z = _normal_start(p)
            lam = (z * z - 3.0) / 6.0
            h = 2.0 / (1.0 / (2.0 * al - 1.0) + 1.0 / (2.0 * be - 1.0))
            w = (-z * np.sqrt(lam + h) / h - (1.0 / (2.0 * be - 1.0) - 1.0 / (2.0 * al - 1.0))
                 * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h)))
            return al / (al + be * np.exp(2.0 * w))
        t = math.exp(al * math.log(al / (al + be))) / al
        u = math.exp(be * math.log(be / (al + be))) / be
        w = t + u
        return np.where(p < t / w, (al * w * p) ** (1.0 / al),
                        1.0 - (be * w * (1.0 - p)) ** (1.0 / be))

    def quantile(p):
        return _quantile_by_newton(p, tails, pdf, (0.0, 1.0), start)

    # Divergent weighted extropy on the closed interval beta <= 1/2; from
    # logarithms, as B(a, b)**2 underflows for large shapes.
    if be > 0.5:
        jw = -0.5 * math.exp(log_beta(2 * al, 2 * be - 1) - 2.0 * logb)
    else:
        jw = -math.inf
    return UnivariateDistribution(
        family="beta", params={"alpha": al, "beta": be}, support=(0.0, 1.0),
        pdf=pdf, cdf=cdf, sf=sf, quantile=quantile,
        pdf_edge_exponents=(al - 1.0, be - 1.0),
        closed_forms={"weighted_extropy": jw})


def piecewise(weights) -> UnivariateDistribution:
    c = _real_array(weights, "piecewise weights")
    if c.ndim != 1 or c.size == 0:
        raise ValidationError("piecewise requires a non-empty weight vector")
    _require_finite("piecewise", weights=c)
    if np.any(c < 0.0):
        raise ValidationError("piecewise requires non-negative weights")
    if abs(float(c.sum()) - 1.0) > 1e-9:
        raise ValidationError("piecewise weights must sum to 1 within 1e-9")
    n = c.size
    cum = np.concatenate([[0.0], np.cumsum(c)])
    cum[-1] = 1.0

    def pdf(x):
        x = np.asarray(x, dtype=float)
        k = _clip(np.floor(x).astype(int), 0, n - 1)
        return np.where((x >= 0.0) & (x < n), c[k], 0.0)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        xc = _clip(x, 0.0, n)
        k = _clip(np.floor(xc).astype(int), 0, n - 1)
        return _clip(cum[k] + c[k] * (xc - k), 0.0, 1.0)

    def sf(x):
        return 1.0 - cdf(x)

    def quantile(p):
        p = np.asarray(p, dtype=float)
        k = _clip(np.searchsorted(cum, p, side="right") - 1, 0, n - 1)
        ck = np.where(c[k] > 0.0, c[k], 1.0)
        return _clip(k + (p - cum[k]) / ck, 0.0, float(n))

    ks = np.arange(1, n + 1)
    return UnivariateDistribution(
        family="piecewise", params={"weights": tuple(float(v) for v in c)},
        support=(0.0, float(n)),
        pdf=pdf, cdf=cdf, sf=sf, quantile=quantile,
        pdf_edge_exponents=(0.0, 0.0), breakpoints=tuple(map(float, range(1, n))),
        closed_forms={
            "extropy": -0.5 * float(np.sum(c**2)),
            "weighted_extropy": -0.25 * float(np.sum(c**2 * (2 * ks - 1))),
        })


def pareto(shape: float, scale: float) -> UnivariateDistribution:
    if not shape > 0:
        raise ValidationError("pareto requires shape > 0")
    if not scale > 0:
        raise ValidationError("pareto requires scale > 0")
    _require_finite("pareto", shape=shape, scale=scale)
    k, sig = float(shape), float(scale)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        xs = np.where(x >= sig, x, sig)
        return np.where(x >= sig, k * sig**k * xs ** (-k - 1.0), 0.0)

    def sf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= sig, (sig / np.where(x >= sig, x, sig)) ** k, 1.0)

    def cdf(x):
        return 1.0 - sf(x)

    def quantile(p):
        p = np.asarray(p, dtype=float)
        return sig * (1.0 - p) ** (-1.0 / k)

    return UnivariateDistribution(
        family="pareto", params={"shape": k, "scale": sig},
        support=(sig, math.inf),
        pdf=pdf, cdf=cdf, sf=sf, quantile=quantile,
        pdf_edge_exponents=(0.0, -(k + 1.0)))


def tabulated(grid) -> UnivariateDistribution:
    pts = _real_array(grid, "tabulated grid entries")
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValidationError("tabulated requires a grid of at least two (x, f) pairs")
    _require_finite("tabulated", grid=pts)
    x = pts[:, 0]
    f = pts[:, 1]
    if np.any(np.diff(x) <= 0.0):
        raise ValidationError("tabulated grid abscissae must be strictly increasing")
    if x[0] < 0.0:
        raise ValidationError("tabulated support must be non-negative")
    if np.any(f < 0.0):
        raise ValidationError("tabulated density values must be non-negative")
    mass = float(np.trapezoid(f, x))
    if not mass > 0.0:
        raise ValidationError("tabulated density must have positive mass")
    f = f / mass  # renormalize away user rounding error
    # Trapezoid cumulative is exact for the linear interpolant.
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(x))])
    cum[-1] = 1.0

    def pdf(q):
        q = np.asarray(q, dtype=float)
        return np.where((q >= x[0]) & (q <= x[-1]), np.interp(q, x, f), 0.0)

    def cdf(q):
        q = np.asarray(q, dtype=float)
        qc = _clip(q, x[0], x[-1])
        i = _clip(np.searchsorted(x, qc, side="right") - 1, 0, x.size - 2)
        dx = qc - x[i]
        slope = (f[i + 1] - f[i]) / (x[i + 1] - x[i])
        return _clip(cum[i] + f[i] * dx + 0.5 * slope * dx**2, 0.0, 1.0)

    def sf(q):
        return 1.0 - cdf(q)

    def quantile(p):
        # cdf is cum[i] + f[i] d + slope d**2 / 2 in cell i: solve it for
        # d with the root that does not cancel.  A knot's cum gives d = 0;
        # p = 0 and 1 give the support edges.
        p = np.asarray(p, dtype=float)
        i = _clip(np.searchsorted(cum, p, side="right") - 1, 0, x.size - 2)
        r = p - cum[i]
        slope = (f[i + 1] - f[i]) / (x[i + 1] - x[i])
        root = f[i] + np.sqrt(np.maximum(f[i] * f[i] + 2.0 * slope * r, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(r > 0.0, 2.0 * r / root, 0.0)
        return np.where(p <= 0.0, x[0], np.where(p >= 1.0, x[-1],
                                                 _clip(x[i] + d, x[i], x[i + 1])))

    return UnivariateDistribution(
        family="tabulated", params={"n_knots": int(x.size)},
        support=(float(x[0]), float(x[-1])),
        pdf=pdf, cdf=cdf, sf=sf, quantile=quantile,
        pdf_edge_exponents=(0.0, 0.0), breakpoints=tuple(x[1:-1].tolist()))


# family -> (builder, the names of its spec params).
_FAMILIES = {
    "exponential": (exponential, ("rate",)),
    "uniform": (uniform, ("a", "b")),
    "gamma": (gamma_dist, ("alpha", "beta")),
    "beta": (beta_dist, ("alpha", "beta")),
    "piecewise": (piecewise, ("weights",)),
    "pareto": (pareto, ("shape", "scale")),
}


def _spec_params(spec: Mapping, family: str, wanted: tuple[str, ...],
                 scalar: bool = True) -> dict:
    """The ``params`` of a spec document: exactly ``wanted``, each a real
    number when ``scalar``."""
    params = spec.get("params", {})
    if not isinstance(params, Mapping):
        raise ValidationError(f"{family} spec params must be a mapping")
    missing = [k for k in wanted if k not in params]
    if missing:
        raise ValidationError(f"{family} spec missing params: {', '.join(missing)}")
    extra = [k for k in params if k not in wanted]
    if extra:
        raise ValidationError(f"{family} spec has unknown params: {', '.join(extra)}")
    if scalar:
        bad = [k for k in wanted if isinstance(params[k], bool)
               or not isinstance(params[k], numbers.Real)]
        if bad:
            raise ValidationError(
                f"{family} params must be real numbers: {', '.join(bad)}")
    return {k: params[k] for k in wanted}


def make_distribution(spec: Mapping) -> UnivariateDistribution:
    """Build a catalog member from a specification document.

    Shape: ``{"family": "...", "params": {...}}`` for parametric families,
    or ``{"family": "tabulated", "grid": [[x, f], ...]}``.
    """
    if not isinstance(spec, Mapping) or "family" not in spec:
        raise ValidationError("distribution spec must be a mapping with a 'family' key")
    family = spec["family"]
    if family == "tabulated":
        if "grid" not in spec:
            raise ValidationError("tabulated spec requires a 'grid' of (x, f) pairs")
        return tabulated(spec["grid"])
    if not isinstance(family, str) or family not in _FAMILIES:
        known = ", ".join(sorted([*_FAMILIES, "tabulated"]))
        raise ValidationError(f"unknown family {family!r}; known families: {known}")
    build, wanted = _FAMILIES[family]
    return build(**_spec_params(spec, family, wanted, scalar=family != "piecewise"))


def closed_form(dist: UnivariateDistribution, measure_id: str,
                t: float | None = None) -> float | None:
    """Analytic value of a measure when the catalog carries one, else None."""
    entry = dist.closed_forms.get(measure_id)
    if entry is None:
        return None
    if callable(entry):
        return None if t is None else float(entry(t))
    return float(entry)
