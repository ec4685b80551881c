"""Bivariate extropy and bivariate weighted extropy over planar densities.

For a joint density f on a planar region,

  J(X,Y)  = 1/4 integral integral f^2
  Jw(X,Y) = 1/4 integral integral x y f^2

Both are non-negative (the k-dimensional convention multiplies the
integral by (-1/2)**k, which is +1/4 at k = 2).  Regions: a product of
two univariate supports, the triangle 0 < x < y < 1 of the bivariate beta
family, or a caller-supplied rectangle.  Evaluation is iterated adaptive
quadrature, inner in x at fixed y, with analytic endpoint exponents
supplied per family; :func:`iterated_integral` is the one nested path (the
sum bound's convolution uses it too), and integrates the inner integrals of
all the outer nodes of a call as one batch.  :func:`compute_bivariate`
dispatches the two measures by identifier (``BIVARIATE_MEASURE_IDS``);
both use the family's closed form unless ``force_quadrature`` is set.  If
X and Y are independent, J(X,Y) = J(X) J(Y) and Jw(X,Y) = Jw(X) Jw(Y);
:func:`independence_factorization_check` verifies this against the 2-d
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .distributions import (
    UnivariateDistribution,
    ValidationError,
    _require_finite,
    _spec_params,
    beta3,
    log_beta,
    make_distribution,
)
from .measures import extropy, weighted_extropy
from .quadrature import Estimate, Integrand, integrate, integrate_batch
from .reporting import HOLDS, INDETERMINATE, VIOLATED, ClaimReport

__all__ = [
    "BivariateDistribution",
    "bivariate_beta",
    "product_distribution",
    "rectangle_distribution",
    "make_bivariate",
    "bivariate_mass",
    "bivariate_extropy",
    "bivariate_weighted_extropy",
    "BIVARIATE_MEASURE_IDS",
    "compute_bivariate",
    "independence_factorization_check",
    "iterated_integral",
    "OUTER_TOL",
    "TOL_2D",
]

# Iterated quadrature compounds error; the 2-d layer promises TOL_2D.  The
# outer integral runs at OUTER_TOL, each inner one at 1e-2 of the outer.
OUTER_TOL = 1e-7
TOL_2D = 1e-6

# (density power p, xy-weight w) per integrand kind.
_KINDS = {"density": (1, 0), "f2": (2, 0), "xyf2": (2, 1)}


@dataclass(frozen=True)
class BivariateDistribution:
    """Joint density with the metadata the iterated integrator needs.

    ``pdf_pairs(x, y)`` broadcasts x against y; the inner integrals pass a
    (k, n) array of x and the (k, 1) outer node of each row.
    ``x_range(y)`` gives the inner bounds for an array of outer nodes, as
    arrays or scalars.  ``inner_hints`` and ``outer_hints`` give the analytic
    endpoint exponents of the inner integrand (in x, at fixed y) and of
    the reduced outer integrand (in y) for each integrand kind; None
    entries mean no power behaviour.  They are raw exponents: the engine
    decides which endpoints are singular (see :class:`Integrand`).
    """

    kind: str
    params: Mapping[str, object]
    y_range: tuple[float, float]
    x_range: Callable[[np.ndarray], tuple]
    pdf_pairs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    inner_hints: Callable[[str], tuple[float | None, float | None]]
    outer_hints: Callable[[str], tuple[float | None, float | None]]
    closed_forms: Mapping[str, float] = field(default_factory=dict)
    sampler: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]] | None = None

    @property
    def label(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.kind}({inner})"


# -- families ----------------------------------------------------------------

def bivariate_beta(alpha: float, beta: float, gamma: float) -> BivariateDistribution:
    """Density x**(a-1) (y-x)**(b-1) (1-y)**(c-1) / B3 on 0 < x < y < 1."""
    if not (alpha > 0 and beta > 0 and gamma > 0):
        raise ValidationError("bivariate_beta requires alpha, beta, gamma > 0")
    _require_finite("bivariate_beta", alpha=alpha, beta=beta, gamma=gamma)
    a, b, c = float(alpha), float(beta), float(gamma)
    norm = beta3(a, b, c)

    def pdf_pairs(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        inside = (x > 0.0) & (x < y) & (y < 1.0)
        xs = np.where(inside, x, 0.25)
        ys = np.where(inside, y, 0.5)
        with np.errstate(divide="ignore", over="ignore"):
            val = xs ** (a - 1.0) * (ys - xs) ** (b - 1.0) * (1.0 - ys) ** (c - 1.0) / norm
        return np.where(inside, val, 0.0)

    def inner_hints(kind):
        p, w = _KINDS[kind]
        return p * (a - 1.0) + w, p * (b - 1.0)

    def outer_hints(kind):
        p, w = _KINDS[kind]
        #  integral_0^y x^A (y-x)^B dx  =  y^(A+B+1) B(A+1, B+1)
        lo = p * (a - 1.0) + w + p * (b - 1.0) + 1.0 + w
        hi = p * (c - 1.0)
        return lo, hi

    # The closed forms divide by norm**2, which underflows for large shapes:
    # they are formed from log-beta differences.
    lnorm2 = 2.0 * log_beta(a, b, c)
    closed: dict[str, float] = {}
    if min(a, b, c) > 0.5:
        closed["bivariate_extropy"] = 0.25 * math.exp(
            log_beta(2 * a - 1, 2 * b - 1, 2 * c - 1) - lnorm2)
    else:
        closed["bivariate_extropy"] = math.inf
    if min(b, c) > 0.5:
        closed["bivariate_weighted_extropy"] = 0.25 * (
            math.exp(log_beta(2 * a, 2 * b, 2 * c - 1) - lnorm2)
            + math.exp(log_beta(2 * a + 1, 2 * b - 1, 2 * c - 1) - lnorm2))
    else:
        closed["bivariate_weighted_extropy"] = math.inf

    def sampler(rng, n):
        d = rng.dirichlet((a, b, c), size=n)
        return d[:, 0], d[:, 0] + d[:, 1]

    return BivariateDistribution(
        kind="bivariate_beta", params={"alpha": a, "beta": b, "gamma": c},
        y_range=(0.0, 1.0), x_range=lambda y: (0.0, y), pdf_pairs=pdf_pairs,
        inner_hints=inner_hints, outer_hints=outer_hints,
        closed_forms=closed, sampler=sampler)


def product_distribution(x_dist: UnivariateDistribution,
                         y_dist: UnivariateDistribution) -> BivariateDistribution:
    """Joint density of independent marginals: f(x, y) = fX(x) fY(y)."""
    fx, fy = x_dist.pdf, y_dist.pdf

    def pdf_pairs(x, y):
        return fx(np.asarray(x, dtype=float)) * fy(np.asarray(y, dtype=float))

    def sampler(rng, n):
        return x_dist.sample(rng, n), y_dist.sample(rng, n)

    return BivariateDistribution(
        kind="product", params={"x": x_dist.label, "y": y_dist.label},
        y_range=y_dist.support, x_range=lambda y: x_dist.support, pdf_pairs=pdf_pairs,
        inner_hints=lambda kind: x_dist.edge_exponents(*_KINDS[kind]),
        outer_hints=lambda kind: y_dist.edge_exponents(*_KINDS[kind]),
        sampler=sampler)


def rectangle_distribution(pdf, x_bounds: tuple[float, float],
                           y_bounds: tuple[float, float]) -> BivariateDistribution:
    """Caller-supplied joint density on a rectangle; no singularity hints."""
    return BivariateDistribution(
        kind="rectangle", params={"x_bounds": x_bounds, "y_bounds": y_bounds},
        y_range=tuple(map(float, y_bounds)),
        x_range=lambda y: tuple(map(float, x_bounds)),
        pdf_pairs=lambda x, y: np.asarray(
            pdf(np.asarray(x, dtype=float), np.asarray(y, dtype=float)), dtype=float),
        inner_hints=lambda kind: (None, None),
        outer_hints=lambda kind: (None, None))


def make_bivariate(spec: Mapping) -> BivariateDistribution:
    """Bivariate spec document: bivariate_beta params or product of marginals."""
    if not isinstance(spec, Mapping) or "family" not in spec:
        raise ValidationError("bivariate spec must be a mapping with a 'family' key")
    family = spec["family"]
    if family == "bivariate_beta":
        return bivariate_beta(**_spec_params(spec, family, ("alpha", "beta", "gamma")))
    if family == "product":
        if "x" not in spec or "y" not in spec:
            raise ValidationError("product spec requires 'x' and 'y' marginal specs")
        return product_distribution(make_distribution(spec["x"]),
                                    make_distribution(spec["y"]))
    raise ValidationError(
        f"unknown bivariate family {family!r}; known: bivariate_beta, product")


# -- iterated quadrature -----------------------------------------------------

def iterated_integral(inner, x_range, lower: float, upper: float, *,
                      inner_exponents=(None, None), exponents=(None, None),
                      combine=None, tol: float = OUTER_TOL) -> Estimate:
    """Integral over y in (lower, upper) of combine(y, I(y)), where I(y) is
    the integral of ``inner(x, y)`` over x in ``x_range(y)``.

    Both callables broadcast.  The outer integral runs at ``tol`` with the
    end hints ``exponents``.  Each call of its integrand receives an array
    of outer nodes y; ``x_range(y)`` returns their inner bounds (arrays or
    scalars; ``not lo < hi`` is an empty range, I = 0), and every I(y) of
    the call is one :func:`integrate_batch` at max(1e-12, 1e-2 tol) with
    the end hints ``inner_exponents``, whose evaluator calls
    ``inner(x, y)`` with x a (k, n) array and y the (k, 1) node of each
    row.  ``combine`` defaults to I(y) itself and receives arrays.  The
    result's ``evaluations`` counts the outer and every inner evaluation.
    """
    tol_inner = max(1e-12, 1e-2 * tol)
    inner_evaluations = 0

    def outer_fn(ys):
        nonlocal inner_evaluations
        lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), ys.shape)
                  for v in x_range(ys))
        results = integrate_batch(lambda x, rows: inner(x, ys[rows, None]), lo, hi,
                                  tol=tol_inner, exponent_lower=inner_exponents[0],
                                  exponent_upper=inner_exponents[1])
        inner_evaluations += sum(r.evaluations for r in results)
        v = np.array([r.value for r in results])
        return v if combine is None else combine(ys, v)

    r = integrate(Integrand(outer_fn, lower, upper, exponent_lower=exponents[0],
                            exponent_upper=exponents[1]), tol=tol)
    return replace(r, evaluations=r.evaluations + inner_evaluations)


def _iterated(bd: BivariateDistribution, kind: str,
              tol: float = OUTER_TOL) -> Estimate:
    p, w = _KINDS[kind]

    def inner(x, y):
        f = bd.pdf_pairs(x, y)
        v = f**p if p > 1 else f
        if w:
            v = v * x * y
        return v

    return iterated_integral(inner, bd.x_range, *bd.y_range,
                             inner_exponents=bd.inner_hints(kind),
                             exponents=bd.outer_hints(kind), tol=tol)


def bivariate_mass(bd: BivariateDistribution) -> float:
    """Total mass of the joint density (unit for a valid member)."""
    return _iterated(bd, "density").value


def _quarter_integral(bd, kind: str, closed_id: str, force_quadrature: bool,
                      tol: float = OUTER_TOL) -> Estimate:
    cf = bd.closed_forms.get(closed_id)
    if cf is not None and not force_quadrature:
        return Estimate(cf, 0.0, 0, math.isinf(cf), "closed-form")
    r = _iterated(bd, kind, tol)
    if r.diverged:
        return Estimate(math.inf, math.inf, r.evaluations, True)
    return Estimate(0.25 * r.value, 0.25 * r.abs_error, r.evaluations)


def bivariate_extropy(bd: BivariateDistribution, *,
                      force_quadrature: bool = False,
                      tol: float = OUTER_TOL) -> Estimate:
    """1/4 of the double integral of f^2 over the region."""
    return _quarter_integral(bd, "f2", "bivariate_extropy", force_quadrature, tol)


def bivariate_weighted_extropy(bd: BivariateDistribution, *,
                               force_quadrature: bool = False,
                               tol: float = OUTER_TOL) -> Estimate:
    """1/4 of the double integral of x y f^2 over the region."""
    return _quarter_integral(bd, "xyf2", "bivariate_weighted_extropy",
                             force_quadrature, tol)


# The measures are looked up by name at call time, so rebinding a module
# attribute (instrumentation, monkeypatching) reaches the table too.
_BIVARIATE_TABLE = {
    "bivariate_extropy": lambda bd, **kw: bivariate_extropy(bd, **kw),
    "bivariate_weighted_extropy": lambda bd, **kw: bivariate_weighted_extropy(bd, **kw),
}

BIVARIATE_MEASURE_IDS = tuple(_BIVARIATE_TABLE)


def compute_bivariate(bd: BivariateDistribution, measure_id: str, *,
                      force_quadrature: bool = False,
                      tol: float = OUTER_TOL) -> Estimate:
    """Dispatch a bivariate measure by identifier."""
    if measure_id not in _BIVARIATE_TABLE:
        raise ValidationError(
            f"unknown bivariate measure {measure_id!r}; valid: "
            + ", ".join(BIVARIATE_MEASURE_IDS))
    return _BIVARIATE_TABLE[measure_id](bd, force_quadrature=force_quadrature, tol=tol)


def independence_factorization_check(x_dist: UnivariateDistribution,
                                     y_dist: UnivariateDistribution,
                                     tol: float = TOL_2D) -> ClaimReport:
    """Check J(X,Y) = J(X) J(Y) and Jw(X,Y) = Jw(X) Jw(Y) for independent marginals.

    lhs/rhs carry the plain-extropy identity; the weighted identity sits in
    extras.  Gap convention: lhs - rhs for the plain identity; holds iff
    both identities agree within tol.
    """
    bd = product_distribution(x_dist, y_dist)
    jx, jy = extropy(x_dist), extropy(y_dist)
    jwx, jwy = weighted_extropy(x_dist), weighted_extropy(y_dist)
    if any(m.diverged for m in (jx, jy, jwx, jwy)):
        return ClaimReport("independence_factorization", math.nan, math.nan,
                           math.nan, INDETERMINATE, notes="a marginal measure diverged")
    j2 = bivariate_extropy(bd, force_quadrature=True)
    jw2 = bivariate_weighted_extropy(bd, force_quadrature=True)
    lhs, rhs = j2.value, jx.value * jy.value
    wl, wr = jw2.value, jwx.value * jwy.value
    ok = abs(lhs - rhs) <= tol and abs(wl - wr) <= tol
    return ClaimReport(
        "independence_factorization", lhs, rhs, lhs - rhs,
        HOLDS if ok else VIOLATED,
        notes=f"plain and weighted factorizations on {x_dist.label} x {y_dist.label}",
        extras={"weighted_lhs": wl, "weighted_rhs": wr, "weighted_gap": wl - wr})
