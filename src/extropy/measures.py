"""Univariate information measures over lifetime distributions.

Implements the extropy family:

  extropy                     J(X)      = -1/2 int f^2
  weighted extropy            Jw(X)     = -1/2 int x f^2
  residual extropy            J(X_t)    = -(1/(2 sf(t)^2)) int_t^inf f^2
  past extropy                J(tX)     = -(1/(2 F(t)^2))  int_0^t   f^2
  weighted residual extropy   Jw(X_t)   = -(1/(2 sf(t)^2)) int_t^inf x f^2
  weighted past extropy       Jw(tX)    = -(1/(2 F(t)^2))  int_0^t   x f^2
  dynamic survival extropy    Js(X_t)   = -(1/(2 sf(t)^2)) int_t^inf sf^2

plus the time derivatives of the weighted residual/past measures (in two
competing closed forms, see :func:`weighted_residual_derivative`) and the
decomposition identity Jw(X) = F(t)^2 Jw(tX) + sf(t)^2 Jw(X_t).

Every measure is -(1/(2 norm^2)) int g.  One table, ``_MEASURES``, gives
each identifier a conditioning mode (None: the whole support, norm 1;
"residual": (t, inf), norm sf(t); "past": (0, t), norm F(t)) and an
integrand g (f^2, x f^2 or sf^2); ``MEASURE_IDS`` and
``T_INDEXED_MEASURES`` derive from it.  Closed forms from the catalog are
used when available; every identifier honours ``force_quadrature=True``,
which forces the numeric path.  All finite values are non-positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .distributions import (
    UnivariateDistribution,
    ValidationError,
    closed_form,
)
from .quadrature import DEFAULT_TOL, Integrand, differentiate, integrate
from .reporting import HOLDS, INDETERMINATE, VIOLATED, ClaimReport

__all__ = [
    "MEASURE_IDS",
    "T_INDEXED_MEASURES",
    "BOUNDARY_EPS",
    "DomainError",
    "ConditionalLifetime",
    "MeasureValue",
    "DerivativeComparison",
    "extropy",
    "weighted_extropy",
    "residual_extropy",
    "past_extropy",
    "weighted_residual_extropy",
    "weighted_past_extropy",
    "dynamic_survival_extropy",
    "compute_measure",
    "weighted_residual_derivative",
    "weighted_past_derivative",
    "decomposition_check",
    "default_t_grid",
]

# Conditioning normalizers below this amplify quadrature noise beyond any
# honest error bound; refuse instead of returning huge values.
BOUNDARY_EPS = 1e-12


class DomainError(ValueError):
    """The conditioning time t lies outside the usable domain."""


@dataclass(frozen=True)
class ConditionalLifetime:
    """Residual (X | X > t) or past (X | X <= t) view of a distribution.

    ``norm`` is sf(t) for the residual and F(t) for the past view,
    evaluated once on construction.
    """

    base: UnivariateDistribution
    mode: str  # "residual" or "past"
    t: float
    norm: float = field(init=False)

    def __post_init__(self):
        if self.mode not in ("residual", "past"):
            raise ValidationError(f"mode must be 'residual' or 'past', got {self.mode!r}")
        if not self.t > 0.0:
            raise DomainError("conditioning time t must be positive")
        f = self.base.sf if self.mode == "residual" else self.base.cdf
        norm = float(f(np.asarray(self.t)))
        if norm < BOUNDARY_EPS:
            which = "sf(t)" if self.mode == "residual" else "F(t)"
            raise DomainError(
                f"{which} = {norm:.3e} at t={self.t}: conditional lifetime undefined")
        object.__setattr__(self, "norm", norm)

    @property
    def bounds(self) -> tuple[float, float]:
        lo, hi = self.base.support
        if self.mode == "residual":
            return max(self.t, lo), hi
        return lo, min(self.t, hi)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.bounds
        inside = (x >= lo) & (x <= hi)
        return np.where(inside, self.base.pdf(x) / self.norm, 0.0)


@dataclass(frozen=True)
class MeasureValue:
    value: float
    method: str  # "closed-form" or "quadrature"
    abs_error: float
    diverged: bool = False


@dataclass(frozen=True)
class DerivativeComparison:
    """Finite-difference derivative next to the two candidate identities.

    ``claimed_formula`` is the identity as commonly claimed,
    (r/2)[Jw + t r] (resp. its past-lifetime mirror); ``corrected_formula``
    is the re-derived 2 r Jw + t r^2 / 2 (resp. -2 q Jw - t q^2 / 2).
    Callers compare; the claims layer only trusts whichever variant
    survives the finite-difference validation.
    """

    numeric: float
    claimed_formula: float
    corrected_formula: float
    numeric_error: float


# -- integrand assembly ------------------------------------------------------

def _f_squared_integrand(dist: UnivariateDistribution, lo: float, hi: float,
                         x_weight: bool) -> Integrand:
    """Integrand x^w f(x)^2 on (lo, hi), hinted at the support edges it reaches."""
    pdf = dist.pdf
    if x_weight:
        def fn(x):
            return x * pdf(x) ** 2
    else:
        def fn(x):
            return pdf(x) ** 2

    e_lo, e_hi = dist.edge_exponents(2, x_weight)
    sup_lo, sup_hi = dist.support
    return Integrand(fn, lo, hi, exponent_lower=e_lo if lo == sup_lo else None,
                     exponent_upper=e_hi if hi == sup_hi else None)


def _sf_squared_integrand(dist: UnivariateDistribution, lo: float,
                          hi: float) -> Integrand:
    """Integrand sf(x)^2 on (lo, hi).  A power tail f ~ x^p gives
    sf ~ x^(p+1), hinted at an infinite upper limit."""
    sf, p = dist.sf, dist.pdf_edge_exponents[1]
    tail = 2.0 * (p + 1.0) if math.isinf(hi) and p is not None else None
    return Integrand(lambda x: sf(x) ** 2, lo, hi, exponent_upper=tail)


def _scaled_integral(g: Integrand, norm: float,
                     tol: float = DEFAULT_TOL) -> MeasureValue:
    """-(1/(2*norm^2)) times the integral of ``g``; infinite, of the
    opposite sign to the integral, when it diverges."""
    r = integrate(g, tol=tol)
    if r.diverged:
        return MeasureValue(-math.copysign(math.inf, r.value), "quadrature",
                            math.inf, diverged=True)
    k = 0.5 / norm**2
    return MeasureValue(-k * r.value, "quadrature", k * r.abs_error_estimate)


# -- the measure table -------------------------------------------------------

_F2 = partial(_f_squared_integrand, x_weight=False)
_XF2 = partial(_f_squared_integrand, x_weight=True)

# id -> (conditioning mode, integrand on (lo, hi)).  A mode of None means
# the whole support with normaliser 1; otherwise the ConditionalLifetime of
# that mode at t supplies bounds and normaliser, and the measure needs t.
_MEASURES = {
    "extropy": (None, _F2),
    "weighted_extropy": (None, _XF2),
    "residual_extropy": ("residual", _F2),
    "past_extropy": ("past", _F2),
    "weighted_residual_extropy": ("residual", _XF2),
    "weighted_past_extropy": ("past", _XF2),
    "dynamic_survival_extropy": ("residual", _sf_squared_integrand),
}

MEASURE_IDS = tuple(_MEASURES)
T_INDEXED_MEASURES = tuple(m for m, (mode, _) in _MEASURES.items() if mode is not None)


def _measure(measure_id: str, dist, t: float | None, force_quadrature: bool,
             tol: float) -> MeasureValue:
    """-(1/(2 norm^2)) int g over the measure's interval: the domain check
    first, then the catalog closed form, then quadrature."""
    mode, integrand = _MEASURES[measure_id]
    if mode is None:
        (lo, hi), norm = dist.support, 1.0
    else:
        cl = ConditionalLifetime(dist, mode, t)
        (lo, hi), norm = cl.bounds, cl.norm
    cf = closed_form(dist, measure_id, t=t)
    if cf is not None and not force_quadrature:
        return MeasureValue(cf, "closed-form", 0.0, diverged=math.isinf(cf))
    if lo >= hi:
        return MeasureValue(0.0, "quadrature", 0.0)
    return _scaled_integral(integrand(dist, lo, hi), norm, tol)


def extropy(dist: UnivariateDistribution, *, force_quadrature: bool = False,
            tol: float = DEFAULT_TOL) -> MeasureValue:
    return _measure("extropy", dist, None, force_quadrature, tol)


def weighted_extropy(dist: UnivariateDistribution, *,
                     force_quadrature: bool = False,
                     tol: float = DEFAULT_TOL) -> MeasureValue:
    return _measure("weighted_extropy", dist, None, force_quadrature, tol)


def residual_extropy(dist, t: float, *, force_quadrature: bool = False,
                     tol: float = DEFAULT_TOL) -> MeasureValue:
    return _measure("residual_extropy", dist, t, force_quadrature, tol)


def past_extropy(dist, t: float, *, force_quadrature: bool = False,
                 tol: float = DEFAULT_TOL) -> MeasureValue:
    return _measure("past_extropy", dist, t, force_quadrature, tol)


def weighted_residual_extropy(dist, t: float, *,
                              force_quadrature: bool = False,
                              tol: float = DEFAULT_TOL) -> MeasureValue:
    return _measure("weighted_residual_extropy", dist, t, force_quadrature, tol)


def weighted_past_extropy(dist, t: float, *,
                          force_quadrature: bool = False,
                          tol: float = DEFAULT_TOL) -> MeasureValue:
    return _measure("weighted_past_extropy", dist, t, force_quadrature, tol)


def dynamic_survival_extropy(dist, t: float, *,
                             force_quadrature: bool = False,
                             tol: float = DEFAULT_TOL) -> MeasureValue:
    return _measure("dynamic_survival_extropy", dist, t, force_quadrature, tol)


def compute_measure(dist, measure_id: str, t: float | None = None, *,
                    force_quadrature: bool = False,
                    tol: float = DEFAULT_TOL) -> MeasureValue:
    """Dispatch a measure by identifier; t-indexed measures require t."""
    if measure_id not in _MEASURES:
        raise ValidationError(
            f"unknown measure {measure_id!r}; valid measures: {', '.join(MEASURE_IDS)}")
    if _MEASURES[measure_id][0] is None:
        t = None
    elif t is None:
        raise ValidationError(f"measure {measure_id!r} requires a time t")
    return _measure(measure_id, dist, t, force_quadrature, tol)


# -- derivatives of the weighted conditional measures ------------------------

def _fd_scale(dist, t: float, mode: str) -> float:
    """Stencil half-width keeping the whole stencil inside the t-domain."""
    lo, hi = dist.support
    if mode == "residual":
        hi_dom = float(dist.quantile(np.asarray(1.0 - 1e-9)))
        room = min(t - lo if t > lo else t, hi_dom - t)
    else:
        lo_dom = float(dist.quantile(np.asarray(1e-9)))
        hi_dom = hi if not math.isinf(hi) else 4.0 * t
        room = min(t - lo_dom, hi_dom - t)
    if room <= 0.0:
        raise DomainError(f"no room for a finite-difference stencil at t={t}")
    return min(0.25 * room, 0.1 * (1.0 + t))


def _weighted_derivative(dist, t: float, mode: str) -> DerivativeComparison:
    """d/dt of Jw(X_t) (mode "residual") or Jw(tX) (mode "past"): finite
    difference vs the two candidate identities."""
    # Looked up at call time, so a rebound module attribute sees every
    # stencil evaluation.
    measure = weighted_residual_extropy if mode == "residual" else weighted_past_extropy
    num = differentiate(lambda u: measure(dist, u, force_quadrature=True).value,
                        t, _fd_scale(dist, t, mode))
    jw = measure(dist, t, force_quadrature=True).value
    if mode == "residual":
        r = float(dist.hazard(np.asarray(t)))
        claimed = (r / 2.0) * (jw + t * r)
        corrected = 2.0 * r * jw + t * r * r / 2.0
    else:
        q = float(dist.reversed_hazard(np.asarray(t)))
        claimed = -(q / 2.0) * (jw + t * q)
        corrected = -2.0 * q * jw - t * q * q / 2.0
    return DerivativeComparison(num.value, claimed, corrected, num.abs_error_estimate)


def weighted_residual_derivative(dist, t: float) -> DerivativeComparison:
    """d/dt of Jw(X_t): finite difference vs the two candidate identities."""
    return _weighted_derivative(dist, t, "residual")


def weighted_past_derivative(dist, t: float) -> DerivativeComparison:
    """d/dt of Jw(tX): finite difference vs the two candidate identities."""
    return _weighted_derivative(dist, t, "past")


# -- decomposition identity --------------------------------------------------

def decomposition_check(dist, t: float, tol: float = 1e-7) -> ClaimReport:
    """Verify Jw(X) = F(t)^2 Jw(tX) + sf(t)^2 Jw(X_t), both sides by quadrature.

    Gap convention: lhs - rhs; holds iff |gap| <= tol * max(1, |lhs|).
    """
    F = float(dist.cdf(np.asarray(t)))
    S = float(dist.sf(np.asarray(t)))
    if not (BOUNDARY_EPS < F and BOUNDARY_EPS < S):
        return ClaimReport("decomposition", math.nan, math.nan, math.nan,
                           INDETERMINATE, notes=f"F(t)={F:.3e}, sf(t)={S:.3e}: "
                           "0 < F(t) < 1 required")
    lhs_mv = weighted_extropy(dist, force_quadrature=True)
    past_mv = weighted_past_extropy(dist, t)
    res_mv = weighted_residual_extropy(dist, t, force_quadrature=True)
    if lhs_mv.diverged or past_mv.diverged or res_mv.diverged:
        return ClaimReport("decomposition", lhs_mv.value, math.nan, math.nan,
                           INDETERMINATE, notes="a component diverged")
    lhs = lhs_mv.value
    rhs = F**2 * past_mv.value + S**2 * res_mv.value
    gap = lhs - rhs
    verdict = HOLDS if abs(gap) <= tol * max(1.0, abs(lhs)) else VIOLATED
    return ClaimReport("decomposition", lhs, rhs, gap, verdict,
                       notes=f"t={t}", extras={"F": F, "sf": S})


def default_t_grid(dist, n: int = 20) -> np.ndarray:
    """Geometric grid of n points between quantile(0.01) and quantile(0.99)."""
    q = dist.quantile(np.asarray([0.01, 0.99]))
    return np.geomspace(float(q[0]), float(q[1]), n)
