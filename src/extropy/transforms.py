"""Measure behaviour under monotone and linear transformations.

For Y = phi(X) with phi strictly monotone and differentiable, the weighted
extropy can be evaluated entirely in the x-domain:

  Jw(Y) = -1/2 int (phi/phi') f_X^2       (phi increasing)
  Jw(Y) = -1/2 int (phi/|phi'|) f_X^2     (phi decreasing)

and analogously for the weighted residual/past measures, integrating from
phi^{-1}(t) to the support edge with the appropriate normalizer.  Linear
maps have exact rules: J(aX+b) = J(X)/a and Jw(aX+b) = Jw(X) + (b/a) J(X).

Transforms are supplied as (phi, phi_inverse, phi_derivative) evaluator
triples -- no symbolic differentiation.  Every x-domain evaluation here is
cross-checkable against a direct computation on the pushforward
distribution (:func:`pushforward_distribution`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import UnivariateDistribution, ValidationError, _clip, _require_finite
from .measures import (
    ConditionalLifetime,
    DomainError,
    _scaled,
    extropy,
    weighted_extropy,
)
from .quadrature import Estimate, Integrand, integrate

__all__ = [
    "MonotoneTransform",
    "TransformDegeneracyError",
    "TRANSFORM_VOCABULARY",
    "transform_from_name",
    "scale_transform",
    "affine_transform",
    "square_transform",
    "exp_transform",
    "pit_transform",
    "transformed_weighted_extropy",
    "linear_transform_extropy",
    "transformed_residual_past",
    "pushforward_distribution",
]


class TransformDegeneracyError(ValidationError):
    """phi' vanishes on the sampled support: the transform is degenerate there."""


@dataclass(frozen=True)
class MonotoneTransform:
    """A strictly monotone map given as an evaluator triple.

    ``derivative_exponents`` are the local powers of phi' at the lower and
    upper edges of the base support (None: unknown); 0 says phi' is finite
    and non-zero there.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    phi_inverse: Callable[[np.ndarray], np.ndarray]
    phi_derivative: Callable[[np.ndarray], np.ndarray]
    direction: str  # "increasing" or "decreasing"
    label: str = ""
    derivative_exponents: tuple[float | None, float | None] = (0.0, 0.0)

    def __post_init__(self):
        if self.direction not in ("increasing", "decreasing"):
            raise ValidationError("direction must be 'increasing' or 'decreasing'")


def _check_linear(name: str, a: float, b: float = 0.0) -> None:
    """Reject the map x -> a x + b unless a > 0 and b >= 0, both finite."""
    _require_finite(name, a=a, b=b)
    if not a > 0:
        raise ValidationError(f"{name} requires a > 0")
    if b < 0:
        raise ValidationError(f"{name} requires b >= 0")


def scale_transform(a: float) -> MonotoneTransform:
    _check_linear("scale transform", a)
    return MonotoneTransform(
        lambda x: a * np.asarray(x, dtype=float),
        lambda y: np.asarray(y, dtype=float) / a,
        lambda x: np.full_like(np.asarray(x, dtype=float), a),
        "increasing", label=f"scale:{a:g}")


def affine_transform(a: float, b: float) -> MonotoneTransform:
    _check_linear("affine transform", a, b)
    return MonotoneTransform(
        lambda x: a * np.asarray(x, dtype=float) + b,
        lambda y: (np.asarray(y, dtype=float) - b) / a,
        lambda x: np.full_like(np.asarray(x, dtype=float), a),
        "increasing", label=f"affine:{a:g},{b:g}")


def square_transform() -> MonotoneTransform:
    # Strictly increasing on non-negative supports.
    return MonotoneTransform(
        lambda x: np.asarray(x, dtype=float) ** 2,
        lambda y: np.sqrt(np.asarray(y, dtype=float)),
        lambda x: 2.0 * np.asarray(x, dtype=float),
        "increasing", label="square")


def exp_transform() -> MonotoneTransform:
    return MonotoneTransform(
        lambda x: np.exp(np.asarray(x, dtype=float)),
        lambda y: np.log(np.asarray(y, dtype=float)),
        lambda x: np.exp(np.asarray(x, dtype=float)),
        "increasing", label="exp")


def pit_transform(dist: UnivariateDistribution) -> MonotoneTransform:
    """Probability integral transform x -> F_X(x); pushforward is U(0,1)."""
    return MonotoneTransform(dist.cdf, dist.quantile, dist.pdf,
                             "increasing", label="pit",
                             derivative_exponents=dist.pdf_edge_exponents)


TRANSFORM_VOCABULARY = ("scale:a", "affine:a,b", "square", "exp", "pit")


def transform_from_name(name: str, dist: UnivariateDistribution) -> MonotoneTransform:
    """Parse the fixed CLI vocabulary: scale:a | affine:a,b | square | exp | pit."""
    if name == "square":
        return square_transform()
    if name == "exp":
        return exp_transform()
    if name == "pit":
        return pit_transform(dist)
    if name.startswith("scale:"):
        return scale_transform(_parse_floats(name, 1)[0])
    if name.startswith("affine:"):
        a, b = _parse_floats(name, 2)
        return affine_transform(a, b)
    raise ValidationError(
        f"unknown transform {name!r}; vocabulary: {', '.join(TRANSFORM_VOCABULARY)}")


def _parse_floats(name: str, n: int) -> list[float]:
    body = name.split(":", 1)[1]
    parts = body.split(",")
    if len(parts) != n:
        raise ValidationError(f"transform {name!r} needs {n} numeric parameter(s)")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"transform {name!r} has non-numeric parameters") from exc


# -- validation helpers ------------------------------------------------------

def _probe_grid(dist: UnivariateDistribution, n: int = 50) -> np.ndarray:
    return dist.quantile(np.linspace(0.005, 0.995, n))


def _check_transform(dist, tr: MonotoneTransform) -> None:
    xs = _probe_grid(dist)
    d = tr.phi_derivative(xs)
    if np.any(np.abs(d) < 1e-14):
        raise TransformDegeneracyError(
            f"phi' vanishes on the support of {dist.label} (transform {tr.label or '?'})")
    sign = 1.0 if tr.direction == "increasing" else -1.0
    if np.any(sign * d <= 0.0):
        raise ValidationError(
            f"phi_derivative sign disagrees with direction={tr.direction!r}")
    # The transformed variable must live on the non-negative half-line.
    if float(np.min(tr.phi(xs))) < -1e-12:
        raise ValidationError("phi must map the support into [0, inf)")


# -- operations --------------------------------------------------------------

def _ratio_integrand(dist, tr: MonotoneTransform, lo: float, hi: float) -> Integrand:
    pdf = dist.pdf
    phi, dphi = tr.phi, tr.phi_derivative

    def fn(x):
        f = pdf(x)
        pos = f > 0.0
        # Where the density vanishes (zero cells, underflowed tails) the
        # integrand is 0 regardless of phi/phi'; evaluating the ratio there
        # would manufacture 0/0.
        ratio = np.where(pos, phi(x) / np.abs(dphi(x)), 0.0)
        return ratio * f * f

    if math.isinf(hi):
        # Beyond this quantile the ratio integrand of any finite-valued
        # transform contributes below the advertised tolerance, while the
        # raw evaluations would over/underflow.
        hi = float(dist.quantile(np.asarray(1.0 - 1e-13)))

    def hint(x0, p, q):
        # phi/phi' ~ (x - x0)/(q + 1) where phi(x0) = 0, and phi(x0)/phi'
        # ~ (x - x0)**-q elsewhere, for phi' ~ (x - x0)**q.
        if p is None or q is None:
            return None
        with np.errstate(all="ignore"):
            at = float(phi(np.asarray(x0, dtype=float)))
        return 2.0 * p + (1.0 if at == 0.0 else -q)

    (sup_lo, sup_hi), (p_lo, p_hi) = dist.support, dist.pdf_edge_exponents
    q_lo, q_hi = tr.derivative_exponents
    return Integrand(fn, lo, hi, exponent_lower=hint(lo, p_lo, q_lo) if lo == sup_lo else None,
                     exponent_upper=hint(hi, p_hi, q_hi) if hi == sup_hi else None,
                     breakpoints=dist.breakpoints)


def transformed_weighted_extropy(dist, tr: MonotoneTransform) -> Estimate:
    """Jw of phi(X), evaluated in the x-domain."""
    _check_transform(dist, tr)
    return _scaled(integrate(_ratio_integrand(dist, tr, *dist.support)), 1.0)


def linear_transform_extropy(dist, a: float, b: float) -> tuple[Estimate, Estimate]:
    """Exact extropy and weighted extropy of aX + b (a > 0, b >= 0)."""
    _check_linear("linear transform", a, b)
    j = extropy(dist)
    jw = weighted_extropy(dist)
    method = "closed-form" if j.method == jw.method == "closed-form" else "quadrature"
    out_j = Estimate(j.value / a, j.abs_error / a, j.evaluations, j.diverged, j.method)
    out_jw = Estimate(jw.value + (b / a) * j.value, jw.abs_error + (b / a) * j.abs_error,
                      jw.evaluations + j.evaluations, jw.diverged or j.diverged, method)
    return out_j, out_jw


def transformed_residual_past(dist, tr: MonotoneTransform,
                              t: float) -> tuple[Estimate, Estimate]:
    """Weighted residual and past extropy of Y = phi(X) at time t.

    Evaluated in the x-domain between phi^{-1}(t) and the support edges;
    t must lie in the transformed support.
    """
    _check_transform(dist, tr)
    with np.errstate(all="ignore"):  # NaN or inf outside the image: rejected below
        xt = float(tr.phi_inverse(np.asarray(t, dtype=float)))
    lo, hi = dist.support
    if not (lo < xt < hi) or not math.isfinite(xt):
        raise DomainError(
            f"phi_inverse({t}) = {xt} is outside the base support ({lo}, {hi})")

    def side(mode: str) -> Estimate:
        try:
            cl = ConditionalLifetime(dist, mode, xt)
        except DomainError as exc:
            raise DomainError(f"at t={t} (x-domain {xt}): {exc}") from exc
        return _scaled(integrate(_ratio_integrand(dist, tr, *cl.bounds)), cl.norm)

    if tr.direction == "increasing":
        return side("residual"), side("past")
    # A decreasing phi maps the residual side of Y onto the past side of X.
    return side("past"), side("residual")


# -- pushforward cross-check -------------------------------------------------

def pushforward_distribution(dist, tr: MonotoneTransform) -> UnivariateDistribution:
    """The distribution of Y = phi(X), for checking x-domain evaluations.

    cdf/sf/quantile compose analytically with phi; the density is
    f_X(phi^{-1}(y)) / |phi'(phi^{-1}(y))|.
    """
    _check_transform(dist, tr)
    lo, hi = dist.support
    with np.errstate(over="ignore", invalid="ignore"):
        images = tr.phi(np.asarray([lo, hi], dtype=float))
    y_lo, y_hi = float(np.min(images)), float(np.max(images))
    increasing = tr.direction == "increasing"

    def carried(x0: float, p: float | None) -> float | None:
        # Near a finite edge where phi' is finite and non-zero, y - phi(x0)
        # is proportional to x - x0, so f_Y keeps the local power of f_X.
        if p is None or not math.isfinite(x0):
            return None
        with np.errstate(all="ignore"):
            d = float(tr.phi_derivative(np.asarray(x0, dtype=float)))
        return p if math.isfinite(d) and d != 0.0 else None

    edge_exponents = (carried(lo, dist.pdf_edge_exponents[0]),
                      carried(hi, dist.pdf_edge_exponents[1]))
    if not increasing:
        edge_exponents = edge_exponents[::-1]

    def pdf(y):
        y = np.asarray(y, dtype=float)
        inside = (y > y_lo) & (y < y_hi)
        ys = np.where(inside, y, 0.5 * (y_lo + min(y_hi, y_lo + 1.0)))
        x = tr.phi_inverse(ys)
        return np.where(inside, dist.pdf(x) / np.abs(tr.phi_derivative(x)), 0.0)

    if increasing:
        def cdf(y):
            y = np.asarray(y, dtype=float)
            return _clip(dist.cdf(tr.phi_inverse(_clip(y, y_lo, y_hi))), 0.0, 1.0)

        def sf(y):
            y = np.asarray(y, dtype=float)
            return _clip(dist.sf(tr.phi_inverse(_clip(y, y_lo, y_hi))), 0.0, 1.0)

        def quantile(p):
            return tr.phi(dist.quantile(np.asarray(p, dtype=float)))
    else:
        def cdf(y):
            y = np.asarray(y, dtype=float)
            return _clip(dist.sf(tr.phi_inverse(_clip(y, y_lo, y_hi))), 0.0, 1.0)

        def sf(y):
            y = np.asarray(y, dtype=float)
            return _clip(dist.cdf(tr.phi_inverse(_clip(y, y_lo, y_hi))), 0.0, 1.0)

        def quantile(p):
            return tr.phi(dist.quantile(1.0 - np.asarray(p, dtype=float)))

    return UnivariateDistribution(
        family="pushforward",
        params={"base": dist.label, "transform": tr.label or "custom"},
        support=(y_lo, y_hi), pdf=pdf, cdf=cdf, sf=sf, quantile=quantile,
        pdf_edge_exponents=edge_exponents,
        breakpoints=tuple(np.sort(tr.phi(np.asarray(dist.breakpoints, dtype=float))).tolist()))
