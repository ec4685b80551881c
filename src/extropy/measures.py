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

Every measure goes through one function, :func:`measure_points`: one
outcome per (measure id, t) point, an Estimate or the exception that point
raises, with every point that needs quadrature in one engine batch.  A
public measure is its call of one point.  Callers that know several
integrals make one call: a CLI curve, a Ridders stencil with Jw at t, the
decomposition, the grid of ``claims.constancy_explorer``, and Jw(X_t)
with Js(X_t) in ``claims.residual_bound_check``.  A point gives the same
outcome in any call, and a point that fails fails alone.

Every result is a :class:`~extropy.quadrature.Estimate`, whose
``evaluations`` counts the integrand points spent (0 for a closed form).
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
from .quadrature import (
    DEFAULT_TOL,
    Estimate,
    Integrand,
    _integrate_members,
    _raise_first,
    _rows,
    differentiate,
)
from .reporting import HOLDS, INDETERMINATE, VIOLATED, ClaimReport

__all__ = [
    "MEASURE_IDS",
    "T_INDEXED_MEASURES",
    "BOUNDARY_EPS",
    "DomainError",
    "ConditionalLifetime",
    "DerivativeComparison",
    "extropy",
    "weighted_extropy",
    "residual_extropy",
    "past_extropy",
    "weighted_residual_extropy",
    "weighted_past_extropy",
    "dynamic_survival_extropy",
    "compute_measure",
    "measure_points",
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

def _f_squared_integrand(dist: UnivariateDistribution, x_weight: bool) -> Integrand:
    """Integrand x^w f(x)^2 on the support, hinted at its edges and cut at
    the density's breakpoints."""
    pdf = dist.pdf
    if x_weight:
        def fn(x):
            return x * pdf(x) ** 2
    else:
        def fn(x):
            return pdf(x) ** 2

    e_lo, e_hi = dist.edge_exponents(2, x_weight)
    return Integrand(fn, *dist.support, exponent_lower=e_lo, exponent_upper=e_hi,
                     breakpoints=dist.breakpoints)


def _sf_squared_integrand(dist: UnivariateDistribution) -> Integrand:
    """Integrand sf(x)^2 on the support.  A power tail f ~ x^p gives
    sf ~ x^(p+1), hinted at an infinite upper edge."""
    sf, p = dist.sf, dist.pdf_edge_exponents[1]
    lo, hi = dist.support
    tail = 2.0 * (p + 1.0) if math.isinf(hi) and p is not None else None
    return Integrand(lambda x: sf(x) ** 2, lo, hi, exponent_upper=tail,
                     breakpoints=dist.breakpoints)


def _scaled(r: Estimate, norm: float) -> Estimate:
    """The measure -(1/(2*norm^2)) int g from the integral ``r`` of g;
    infinite, of the opposite sign to the integral, when it diverged."""
    if r.diverged:
        return Estimate(-math.copysign(math.inf, r.value), math.inf, r.evaluations, True)
    k = 0.5 / norm**2
    return Estimate(-k * r.value, k * r.abs_error, r.evaluations)


# -- the measure table -------------------------------------------------------

_F2 = partial(_f_squared_integrand, x_weight=False)
_XF2 = partial(_f_squared_integrand, x_weight=True)

# id -> (conditioning mode, integrand of the member over its support).  A
# mode of None means the whole support with normaliser 1; otherwise the
# ConditionalLifetime of that mode at t supplies range and normaliser, and
# the measure needs t.
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


def measure_points(dist, points, *, force_quadrature: bool = False,
                   tol: float = DEFAULT_TOL) -> list[Estimate | Exception]:
    """Measures of ``dist`` at ``points``, (measure id, t) pairs: one
    outcome per point, its :class:`Estimate` or the exception it raises.

    Each point has its id and t checked (t is ignored by a whole-support
    measure), then its domain, then takes the catalog closed form unless
    ``force_quadrature``.  The points left over go to the engine as one
    call at ``tol``, each with the range and normaliser of its
    :class:`ConditionalLifetime` (the support and 1 for a whole-support
    measure) and its integrand g from the table, hinted only at the
    support edges its range reaches.  The evaluator hands each g the rows
    of its own points, so a point sees the same points, and fails, as in
    an engine call of that point alone.
    """
    sup_lo, sup_hi = dist.support
    outcomes, todo = [], []
    gs = {}  # integrand maker -> its integrand of dist
    for measure_id, t in points:
        if measure_id not in _MEASURES:
            outcomes.append(ValidationError(
                f"unknown measure {measure_id!r}; valid measures: {', '.join(MEASURE_IDS)}"))
            continue
        mode, make = _MEASURES[measure_id]
        if mode is None:
            t, lo, hi, norm = None, sup_lo, sup_hi, 1.0
        elif t is None:
            outcomes.append(ValidationError(f"measure {measure_id!r} requires a time t"))
            continue
        else:
            try:
                cl = ConditionalLifetime(dist, mode, t)
            except DomainError as exc:
                outcomes.append(exc)
                continue
            (lo, hi), norm = cl.bounds, cl.norm
        if not force_quadrature and dist.closed_forms.get(measure_id) is not None:
            cf = closed_form(dist, measure_id, t=t)
            if cf is not None:
                outcomes.append(Estimate(cf, 0.0, 0, math.isinf(cf), "closed-form"))
                continue
        if make not in gs:
            gs[make] = make(dist)
        g = gs[make]
        todo.append((len(outcomes), lo, hi, norm, list(gs).index(make),
                     g.exponent_lower if lo == sup_lo else None,
                     g.exponent_upper if hi == sup_hi else None))
        outcomes.append(None)
    if not todo:
        return outcomes
    at, lower, upper, norms, kinds, e_lo, e_hi = zip(*todo)
    if len(gs) == 1:
        evaluate = _rows(g.fn)
    else:
        fns = [g.fn for g in gs.values()]
        which = np.array(kinds)

        def evaluate(x, rows):
            y = np.empty_like(x)
            kind = which[rows]
            for j, fn in enumerate(fns):
                mine = kind == j
                if np.count_nonzero(mine):
                    y[mine] = np.reshape(fn(x[mine].ravel()), (-1, x.shape[1]))
            return y

    results = _integrate_members(
        evaluate, lower, upper, tol=tol, exponent_lower=e_lo, exponent_upper=e_hi,
        breakpoints=dist.breakpoints)
    # An empty range integrates to +0 with no evaluation, and stays +0.
    for i, r, lo, hi, norm in zip(at, results, lower, upper, norms):
        outcomes[i] = _scaled(r, norm) if lo < hi and type(r) is Estimate else r
    return outcomes


def _measure(measure_id: str, dist, t, force_quadrature: bool, tol: float) -> Estimate:
    """The measure at one point, or its exception raised."""
    return _raise_first(measure_points(
        dist, [(measure_id, t)], force_quadrature=force_quadrature, tol=tol))[0]


def extropy(dist: UnivariateDistribution, *, force_quadrature: bool = False,
            tol: float = DEFAULT_TOL) -> Estimate:
    return _measure("extropy", dist, None, force_quadrature, tol)


def weighted_extropy(dist: UnivariateDistribution, *,
                     force_quadrature: bool = False,
                     tol: float = DEFAULT_TOL) -> Estimate:
    return _measure("weighted_extropy", dist, None, force_quadrature, tol)


def residual_extropy(dist, t: float, *, force_quadrature: bool = False,
                     tol: float = DEFAULT_TOL) -> Estimate:
    return _measure("residual_extropy", dist, t, force_quadrature, tol)


def past_extropy(dist, t: float, *, force_quadrature: bool = False,
                 tol: float = DEFAULT_TOL) -> Estimate:
    return _measure("past_extropy", dist, t, force_quadrature, tol)


def weighted_residual_extropy(dist, t: float, *,
                              force_quadrature: bool = False,
                              tol: float = DEFAULT_TOL) -> Estimate:
    return _measure("weighted_residual_extropy", dist, t, force_quadrature, tol)


def weighted_past_extropy(dist, t: float, *,
                          force_quadrature: bool = False,
                          tol: float = DEFAULT_TOL) -> Estimate:
    return _measure("weighted_past_extropy", dist, t, force_quadrature, tol)


def dynamic_survival_extropy(dist, t: float, *,
                             force_quadrature: bool = False,
                             tol: float = DEFAULT_TOL) -> Estimate:
    return _measure("dynamic_survival_extropy", dist, t, force_quadrature, tol)


def compute_measure(dist, measure_id: str, t: float | None = None, *,
                    force_quadrature: bool = False,
                    tol: float = DEFAULT_TOL) -> Estimate:
    """Dispatch a measure by identifier; t-indexed measures require t."""
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
    difference vs the two candidate identities.  The Ridders stencil and
    Jw at t, last, are one call."""
    measure_id = f"weighted_{mode}_extropy"
    outcomes = []

    def stencil(u):
        # The values of the points before the first failure, and its error.
        outcomes.extend(measure_points(dist, [(measure_id, s) for s in [*u.tolist(), t]],
                                       force_quadrature=True))
        n = next((i for i, r in enumerate(outcomes[:u.size]) if type(r) is not Estimate), u.size)
        return [r.value for r in outcomes[:n]], outcomes[n] if n < u.size else None

    num = differentiate(stencil, t, _fd_scale(dist, t, mode))
    jw = _raise_first(outcomes[-1:])[0].value  # Jw at t, the last point
    if mode == "residual":
        r = float(dist.hazard(np.asarray(t)))
        claimed = (r / 2.0) * (jw + t * r)
        corrected = 2.0 * r * jw + t * r * r / 2.0
    else:
        q = float(dist.reversed_hazard(np.asarray(t)))
        claimed = -(q / 2.0) * (jw + t * q)
        corrected = -2.0 * q * jw - t * q * q / 2.0
    return DerivativeComparison(num.value, claimed, corrected, num.abs_error)


def weighted_residual_derivative(dist, t: float) -> DerivativeComparison:
    """d/dt of Jw(X_t): finite difference vs the two candidate identities."""
    return _weighted_derivative(dist, t, "residual")


def weighted_past_derivative(dist, t: float) -> DerivativeComparison:
    """d/dt of Jw(tX): finite difference vs the two candidate identities."""
    return _weighted_derivative(dist, t, "past")


# -- decomposition identity --------------------------------------------------

def decomposition_check(dist, t: float, tol: float = 1e-7) -> ClaimReport:
    """Verify Jw(X) = F(t)^2 Jw(tX) + sf(t)^2 Jw(X_t), both sides by
    quadrature, the three integrals in one batch.

    Gap convention: lhs - rhs; holds iff |gap| <= tol * max(1, |lhs|).
    """
    F = float(dist.cdf(np.asarray(t)))
    S = float(dist.sf(np.asarray(t)))
    if not (BOUNDARY_EPS < F and BOUNDARY_EPS < S):
        return ClaimReport("decomposition", math.nan, math.nan, math.nan,
                           INDETERMINATE, notes=f"F(t)={F:.3e}, sf(t)={S:.3e}: "
                           "0 < F(t) < 1 required")
    lhs_mv, past_mv, res_mv = _raise_first(measure_points(dist, [
        ("weighted_extropy", None), ("weighted_past_extropy", t),
        ("weighted_residual_extropy", t)], force_quadrature=True))
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
