"""Adaptive numerical integration and differentiation.

Every measure in this library funnels through :func:`integrate`, which has
to cope with the three awkward integrand classes that lifetime densities
produce:

* unbounded limits, removed by the substitution x = a + u/(1-u) that maps
  (a, inf) onto (0, 1);
* integrable endpoint singularities (local power behaviour x**p with
  p > -1), handled by geometric panel subdivision toward the endpoint plus
  a geometric-series estimate of the unresolved remainder;
* non-integrable endpoints, classified before any panel work by an
  analytic exponent hint or a local power-law fit (:func:`detect_divergence`)
  and reported as a diverged result rather than an error.

The panel rule is the 15-point Kronrod extension of 7-point Gauss.
Integrand evaluators must be vectorized: they receive a float ndarray and
return an ndarray of the same shape.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Integrand",
    "QuadratureResult",
    "DerivativeResult",
    "QuadratureError",
    "EvaluationBudgetError",
    "DivergenceUndecidedError",
    "EvaluationError",
    "integrate",
    "integrate_fn",
    "detect_divergence",
    "differentiate",
    "DEFAULT_TOL",
    "DEFAULT_BUDGET",
]

# Two digits of slack under the 1e-8 accuracy the measure layer promises.
DEFAULT_TOL = 1e-10
DEFAULT_BUDGET = 10**6

# Half-width of the band around exponent -1 inside which a numeric
# power-law fit refuses to classify an endpoint.
EXPONENT_BAND = 0.05

# 15-point Kronrod abscissae on [-1, 1] and the embedded 7-point Gauss rule.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_GAUSS_IDX = np.arange(1, 15, 2)


class QuadratureError(Exception):
    """Base error for the integration engine."""


class EvaluationBudgetError(QuadratureError):
    """Evaluation budget exhausted before the tolerance was met.

    Distinct from divergence: the integral may be perfectly finite, the
    engine just ran out of allowed evaluations.
    """


class DivergenceUndecidedError(QuadratureError):
    """A singular endpoint could not be classified (exponent too close to -1)."""


class EvaluationError(QuadratureError):
    """The evaluator returned a non-finite value at an interior point."""


@dataclass(frozen=True)
class Integrand:
    """A 1-d integrand over an open interval.

    ``exponent_lower``/``exponent_upper`` are optional analytic hints: the
    local power of ``fn`` at the endpoint (for an infinite endpoint, the
    power of the tail).  A negative hint makes its endpoint singular; a
    non-negative one leaves a finite endpoint regular unless it is
    declared singular, and an infinite endpoint is always singular.  On a
    singular endpoint the hint overrides the numeric power-law fit, which
    matters for integrands sitting exactly on the logarithmic boundary
    p = -1.  ``singular_lower``/``singular_upper`` declare a singular
    endpoint without a hint, leaving its classification to that fit.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float
    singular_lower: bool = False
    singular_upper: bool = False
    exponent_lower: float | None = None
    exponent_upper: float | None = None

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"integrand needs lower < upper, got [{self.lower}, {self.upper}]")
        if self.exponent_lower is not None and self.exponent_lower < 0.0:
            object.__setattr__(self, "singular_lower", True)
        if self.exponent_upper is not None and self.exponent_upper < 0.0:
            object.__setattr__(self, "singular_upper", True)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int
    diverged: bool = False


@dataclass(frozen=True)
class DerivativeResult:
    value: float
    abs_error_estimate: float
    evaluations: int


class _Budget:
    __slots__ = ("used", "limit")

    def __init__(self, limit: int):
        self.used = 0
        self.limit = limit

    def spend(self, n: int) -> None:
        self.used += n
        if self.used > self.limit:
            raise EvaluationBudgetError(
                f"evaluation budget of {self.limit} points exhausted"
            )


def _eval(fn, x: np.ndarray, budget: _Budget) -> np.ndarray:
    budget.spend(x.size)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        y = np.asarray(fn(x), dtype=float)
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)]
        raise EvaluationError(f"integrand non-finite at interior point x={bad.flat[0]!r}")
    return y


def _panel(fn, a: float, b: float, budget: _Budget) -> tuple[float, float]:
    """Gauss-Kronrod 15/7 estimate and error for one panel."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    y = _eval(fn, c + h * _XK, budget)
    ik = h * float(_WK @ y)
    ig = h * float(_WG @ y[_GAUSS_IDX])
    diff = abs(ik - ig)
    # QUADPACK-style rescaled error estimate.
    resasc = h * float(_WK @ np.abs(y - ik / (b - a)))
    if resasc > 0.0 and diff > 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    else:
        err = diff
    return ik, err


# ---------------------------------------------------------------------------
# endpoint classification
# ---------------------------------------------------------------------------

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"


def _fit_exponent(fn, distances: np.ndarray, points: np.ndarray, budget: _Budget):
    """Least-squares slope of log|fn| against log(distance to endpoint)."""
    y = np.abs(_eval(fn, points, budget))
    mask = y > 0.0
    if mask.sum() < 4:
        # Integrand numerically vanishes at the endpoint: nothing to diverge.
        return None
    lx = np.log(distances[mask])
    ly = np.log(y[mask])
    slope = np.polyfit(lx, ly, 1)[0]
    return float(slope)


def _classify_finite_endpoint(fn, endpoint: float, inward: float, hint, budget) -> str:
    if hint is not None:
        return DIVERGENT if hint <= -1.0 else CONVERGENT
    # 3 decades of geometric approach toward the endpoint.
    h0 = abs(inward - endpoint) / 4.0
    d = h0 * np.logspace(0.0, -3.0, 16)
    sign = 1.0 if inward > endpoint else -1.0
    p = _fit_exponent(fn, d, endpoint + sign * d, budget)
    if p is None:
        return CONVERGENT
    if p <= -1.0 - EXPONENT_BAND:
        return DIVERGENT
    if p >= -1.0 + EXPONENT_BAND:
        return CONVERGENT
    return INCONCLUSIVE


def detect_divergence(g: Integrand, budget: int = DEFAULT_BUDGET) -> dict[str, str]:
    """Classify the endpoints of ``g`` exactly as :func:`integrate` does.

    Returns a mapping from ``"lower"``/``"upper"`` to one of
    ``"convergent"``, ``"divergent"``, ``"inconclusive"``.  It holds every
    endpoint declared singular and every infinite endpoint, which the
    substitution onto a finite interval always makes singular.  The
    decision uses the analytic exponent hint when ``g`` carries one,
    otherwise a power-law fit over three decades of geometric approach;
    fitted exponents within ``EXPONENT_BAND`` of -1 are never silently
    classified.  Doubly-infinite integrands raise ``ValueError``.
    """
    out = _classify_declared_endpoints(_map_infinite(g), _Budget(budget))
    if math.isinf(g.lower):
        # The substitution reflects a lower-infinite interval: sides swap.
        return {("upper" if side == "lower" else "lower"): status
                for side, status in out.items()}
    return out


def _endpoint_sign(fn, endpoint: float, inward: float, budget: _Budget) -> float:
    sign = 1.0 if inward > endpoint else -1.0
    d = abs(inward - endpoint) / 4.0 * np.logspace(-1.0, -3.0, 5)
    y = _eval(fn, endpoint + sign * d, budget)
    s = float(np.sign(y.sum()))
    return s if s != 0.0 else 1.0


# ---------------------------------------------------------------------------
# singular-endpoint ladders
# ---------------------------------------------------------------------------

_LADDER_MAX = 40
_EPS = np.finfo(float).eps


def _ladder(fn, endpoint: float, far: float, tol_scale: float, budget: _Budget,
            exponent: float | None):
    """Geometric subdivision toward ``endpoint`` over (endpoint, far].

    Returns (panels, remainder, remainder_error).  Panels are
    (a, b, value, error) tuples suitable for further adaptive refinement;
    the remainder is the unresolved mass between the deepest panel and the
    endpoint, estimated by fitting the two leading terms of the local
    expansion s(d)*d**p (s analytic in the distance d) to the panel
    values.  The ladder stops as soon as that estimate is trustworthy to a
    small fraction of ``tol_scale``, which also keeps panels out of the
    floating-point cancellation zone right next to the endpoint.
    """
    h = far - endpoint  # signed: positive when approaching from above
    # Depth at which evaluating the distance to the endpoint loses more
    # than ~1e-9 relative precision; panel values below it are noise.
    d_noise = _EPS * max(abs(endpoint), abs(h)) * 1e7
    panels = []
    values = []
    j = 0
    while j < _LADDER_MAX:
        hi = endpoint + h * 2.0**-j
        lo = endpoint + h * 2.0 ** -(j + 1)
        a, b = (lo, hi) if h > 0 else (hi, lo)
        if not (a < b) or a == endpoint or b == endpoint:
            break
        val, err = _panel(fn, a, b, budget)
        if values and abs(val) > abs(values[-1]) \
                and abs(val) < 1e-3 * max(abs(v) for v in values):
            # Deep in the decayed regime panel values must keep shrinking
            # geometrically; a rebound there means the evaluator hit its
            # noise floor.  (Shallow rebounds are legitimate: the
            # next-order endpoint term can dominate the first few panels.)
            break
        panels.append((a, b, val, err))
        values.append(val)
        if j >= 5:
            rem, rem_err = _extrapolate_tail(values, exponent)
            if rem_err < 0.02 * tol_scale:
                return panels, rem, rem_err
        if abs(h) * 2.0 ** -(j + 1) < d_noise:
            break
        j += 1
    rem, rem_err = _extrapolate_tail(values, exponent)
    return panels, rem, rem_err


def _fit_ratio(values):
    """Geometric decay ratio of the trailing panel values, or None."""
    tail = values[-4:]
    if len(tail) < 4 or any(v == 0.0 for v in tail):
        return None
    if len({math.copysign(1.0, v) for v in tail}) != 1:
        return None
    ratios = [abs(tail[i + 1] / tail[i]) for i in range(len(tail) - 1)]
    if any(r >= 0.999 for r in ratios):
        return None
    return ratios[-1]


def _two_term_tail(values, rho, upto):
    """Predicted sum of all panel values beyond index ``upto``.

    Fits I_j = A*rho**j + B*(rho/2)**j through values[upto-1], values[upto]
    (the rho/2 component is the next-order term of the endpoint expansion)
    and sums the model geometrically.
    """
    sig = 0.5 * rho
    i1, i0 = values[upto], values[upto - 1]
    # Unknowns x = A*rho**upto, y = B*sig**upto:  x + y = i1,  x/rho + y/sig = i0.
    det = 1.0 / sig - 1.0 / rho
    x = (i1 / sig - i0) / det
    y = i1 - x
    return x * rho / (1.0 - rho) + y * sig / (1.0 - sig)


def _extrapolate_tail(values, exponent) -> tuple[float, float]:
    if len(values) < 5:
        return 0.0, (abs(values[-1]) if values else 0.0)
    measured = _fit_ratio(values)
    if exponent is not None:
        rho = 2.0 ** -(1.0 + exponent)
    elif measured is not None:
        rho = measured
    else:
        # No usable geometric structure: charge the full last panel as error.
        return 0.0, abs(values[-1])
    if not rho < 0.999:
        return 0.0, abs(values[-1])
    last = len(values) - 1
    rem = _two_term_tail(values, rho, last)
    # Consistency check: the same prediction made one level earlier.
    rem_prev = _two_term_tail(values, rho, last - 1) - values[last]
    rem_err = abs(rem - rem_prev) + 1e-12 * abs(rem)
    return rem, rem_err


# ---------------------------------------------------------------------------
# main entry points
# ---------------------------------------------------------------------------


def _map_infinite(g: Integrand) -> Integrand:
    """Substitute away infinite endpoints, mapping onto a finite interval."""
    if math.isinf(g.lower) and math.isinf(g.upper):
        raise ValueError("doubly-infinite integrands must be split at a finite point")
    if math.isinf(g.lower):
        # Reflect x -> -y onto (-upper, inf); the sides swap.
        g = Integrand(lambda y, _fn=g.fn: _fn(-y), -g.upper, math.inf,
                      singular_lower=g.singular_upper, singular_upper=g.singular_lower,
                      exponent_lower=g.exponent_upper, exponent_upper=g.exponent_lower)
    if not math.isinf(g.upper):
        return g

    def mapped(u, _fn=g.fn, _a=g.lower):
        w = 1.0 - u
        return _fn(_a + u / w) / (w * w)

    # Tail power p at +inf becomes -(2 + p) at u = 1.
    exp_u = None if g.exponent_upper is None else -(2.0 + g.exponent_upper)
    return Integrand(mapped, 0.0, 1.0,
                     singular_lower=g.singular_lower,
                     singular_upper=True,
                     exponent_lower=g.exponent_lower,
                     exponent_upper=exp_u)


def integrate(g: Integrand, tol: float = DEFAULT_TOL,
              budget: int = DEFAULT_BUDGET) -> QuadratureResult:
    """Integrate ``g`` to absolute-or-relative tolerance ``tol``.

    On success ``|value - true| <= max(tol, tol*|value|)``.  Declared
    singular endpoints are classified first: a divergent endpoint yields a
    ``diverged`` result whose value is +/-inf with the local sign of the
    integrand; an unclassifiable one raises
    :class:`DivergenceUndecidedError`.  Running out of evaluations raises
    :class:`EvaluationBudgetError`.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    b = _Budget(budget)
    finite = _map_infinite(g)

    statuses = _classify_declared_endpoints(finite, b)
    for side, status in statuses.items():
        if status == DIVERGENT:
            endpoint = finite.lower if side == "lower" else finite.upper
            sign = _endpoint_sign(finite.fn, endpoint,
                                  0.5 * (finite.lower + finite.upper), b)
            return QuadratureResult(sign * math.inf, math.inf, b.used, diverged=True)
        if status == INCONCLUSIVE:
            raise DivergenceUndecidedError(
                f"cannot classify singular {side} endpoint: local exponent too close to -1"
            )

    lo, hi = finite.lower, finite.upper
    span = hi - lo
    panels: list[tuple[float, float, float, float]] = []
    extra_value = 0.0
    extra_error = 0.0

    left = lo + span / 4.0 if finite.singular_lower else lo
    right = hi - span / 4.0 if finite.singular_upper else hi
    scale = 0.0
    if left < right:
        for a2, b2 in _initial_partition(left, right):
            val, err = _panel(finite.fn, a2, b2, b)
            panels.append((a2, b2, val, err))
            scale += abs(val)
    tol_scale = max(tol, tol * scale)

    if finite.singular_lower:
        lp, rem, rem_err = _ladder(finite.fn, lo, left, tol_scale, b,
                                   finite.exponent_lower)
        panels.extend(lp)
        extra_value += rem
        extra_error += rem_err
    if finite.singular_upper:
        lp, rem, rem_err = _ladder(finite.fn, hi, right, tol_scale, b,
                                   finite.exponent_upper)
        panels.extend(lp)
        extra_value += rem
        extra_error += rem_err

    value, error = _refine(finite.fn, panels, extra_value, extra_error, tol, b,
                           span)
    return QuadratureResult(value, error, b.used, diverged=False)


def _initial_partition(lo: float, hi: float) -> list[tuple[float, float]]:
    """Initial panels for the adaptive loop.

    A single wide panel can look falsely converged when the mass is
    concentrated near one end, so wide intervals start from a graded mesh.
    """
    span = hi - lo
    if span > 10.0 * (1.0 + abs(lo)):
        fracs = [0.0, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.6, 1.0]
    else:
        fracs = [0.0, 0.25, 0.5, 0.75, 1.0]
    pts = [lo + span * f for f in fracs]
    return [(a, b) for a, b in zip(pts[:-1], pts[1:]) if a < b]


def _classify_declared_endpoints(finite: Integrand, b: _Budget) -> dict[str, str]:
    out: dict[str, str] = {}
    probe = 0.5 * (finite.lower + finite.upper)
    if finite.singular_lower:
        out["lower"] = _classify_finite_endpoint(
            finite.fn, finite.lower, probe, finite.exponent_lower, b)
    if finite.singular_upper:
        out["upper"] = _classify_finite_endpoint(
            finite.fn, finite.upper, probe, finite.exponent_upper, b)
    return out


def _refine(fn, panels, extra_value, extra_error, tol, budget: _Budget,
            span: float):
    heap = []
    total = extra_value
    err = extra_error
    tag = 0
    for a, b, v, e in panels:
        total += v
        err += e
        heapq.heappush(heap, (-e, tag, a, b, v, e, 0))
        tag += 1
    # Error frozen in panels that bisection cannot improve (float resolution
    # or evaluator noise floor); never worth splitting further.
    floor_err = extra_error
    narrow = 1e-6 * span
    while heap and err > max(tol, tol * abs(total)):
        if floor_err > max(tol, tol * abs(total)):
            raise EvaluationBudgetError(
                "tolerance unreachable: residual error "
                f"{floor_err:.3e} cannot be reduced by further subdivision")
        neg_e, _, a, b, v, e, strikes = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if not (a < m < b):
            floor_err += e
            continue
        v1, e1 = _panel(fn, a, m, budget)
        v2, e2 = _panel(fn, m, b, budget)
        total += v1 + v2 - v
        err += e1 + e2 - e
        # Persistent non-improvement on an already narrow panel means the
        # evaluator's noise floor; a non-improving split on a wide panel is
        # just an optimistic parent estimate being corrected.
        s = strikes + 1 if (e1 + e2 > 0.9 * e and b - a < narrow) else 0
        if s >= 3:
            floor_err += e1 + e2
            continue
        heapq.heappush(heap, (-e1, tag, a, m, v1, e1, s)); tag += 1
        heapq.heappush(heap, (-e2, tag, m, b, v2, e2, s)); tag += 1
    return total, err


def integrate_fn(fn, lower: float, upper: float, *, tol: float = DEFAULT_TOL,
                 budget: int = DEFAULT_BUDGET, singular_lower: bool = False,
                 singular_upper: bool = False, exponent_lower: float | None = None,
                 exponent_upper: float | None = None) -> QuadratureResult:
    """Convenience wrapper building the :class:`Integrand` inline."""
    return integrate(
        Integrand(fn, lower, upper, singular_lower=singular_lower,
                  singular_upper=singular_upper, exponent_lower=exponent_lower,
                  exponent_upper=exponent_upper),
        tol=tol, budget=budget)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def differentiate(h: Callable[[float], float], t: float, scale: float) -> DerivativeResult:
    """Central finite difference with Richardson extrapolation (Ridders).

    ``scale`` is the initial stencil half-width; it must keep ``t +/- scale``
    inside the domain of ``h``.  The returned error estimate is the
    extrapolation residual at the accepted table entry.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    contract = 1.4
    ntab = 10
    table = [[0.0] * ntab for _ in range(ntab)]
    hh = scale
    evals = 0

    def fd(step):
        nonlocal evals
        evals += 2
        up, dn = h(t + step), h(t - step)
        if not (math.isfinite(up) and math.isfinite(dn)):
            raise EvaluationError(f"function non-finite inside stencil at t={t!r}")
        return (up - dn) / (2.0 * step)

    table[0][0] = fd(hh)
    best = table[0][0]
    best_err = math.inf
    for i in range(1, ntab):
        hh /= contract
        table[i][0] = fd(hh)
        fac = contract * contract
        for j in range(1, i + 1):
            table[i][j] = (table[i][j - 1] * fac - table[i - 1][j - 1]) / (fac - 1.0)
            fac *= contract * contract
            errt = max(abs(table[i][j] - table[i][j - 1]),
                       abs(table[i][j] - table[i - 1][j - 1]))
            if errt <= best_err:
                best_err = errt
                best = table[i][j]
        if abs(table[i][i] - table[i - 1][i - 1]) >= 2.0 * best_err and i > 2:
            break
    return DerivativeResult(best, best_err, evals)
