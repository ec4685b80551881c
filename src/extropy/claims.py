"""Numerical verification harness for the stated theorems and bounds.

Every check evaluates both sides of a claim with the quadrature engine and
reports holds / violated / indeterminate; nothing is assumed true.  Checks
with monotonicity hypotheses verify them on a sampling grid first and
report indeterminate when the hypothesis cannot be confirmed.

The inversion path (weighted-residual-extropy curve -> hazard -> survival)
is gated on a build-time validation of the derivative identity: the
identity actually used is whichever of the claimed and re-derived variants
reproduces finite-difference derivatives of the exponential closed form
(see :func:`validated_derivative_variant`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .bivariate import TOL_2D, independence_factorization_check, iterated_integral
from .distributions import UnivariateDistribution, ValidationError, exponential
from .measures import (
    DerivativeComparison,
    decomposition_check,
    dynamic_survival_extropy,
    weighted_extropy,
    weighted_past_derivative,
    weighted_past_extropy,
    weighted_residual_derivative,
    weighted_residual_extropy,
    extropy,
)
from .quadrature import Integrand
from .reporting import HOLDS, INDETERMINATE, VIOLATED, ClaimReport

__all__ = [
    "CLAIMS",
    "CLAIM_IDS",
    "ClaimSpec",
    "InversionError",
    "ResolutionError",
    "HazardCurve",
    "ConstancyODEFamily",
    "ConstancyReport",
    "validated_derivative_variant",
    "residual_bound_check",
    "past_bound_check",
    "sum_bound_check",
    "lemma1_residual_check",
    "lemma1_past_check",
    "invert_weighted_residual",
    "reconstruct_survival",
    "constancy_explorer",
    "constancy_claim",
    "decomposition_check",
    "claim_row",
    "claim_rows",
]

MONOTONE_GRID = 50


class InversionError(ValueError):
    """The hazard quadratic has no usable non-negative root."""


class ResolutionError(ValueError):
    """A hazard grid is too coarse for the requested reconstruction."""


# -- monotonicity preconditions ----------------------------------------------

def _nondecreasing(values: np.ndarray) -> bool:
    scale = float(np.max(np.abs(values))) or 1.0
    return bool(np.all(np.diff(values) >= -1e-9 * scale))


def _rate_nondecreasing(rate, lo: float, hi: float) -> bool:
    """``rate`` (a hazard or reversed hazard) non-decreasing on a grid of [lo, hi]."""
    return _nondecreasing(rate(np.linspace(lo, hi, MONOTONE_GRID)))


# -- bound checks --------------------------------------------------------------

def residual_bound_check(dist, t: float, tol: float = 1e-8) -> ClaimReport:
    """Check Jw(X_t) <= t r(t)^2 Js(X_t) under a non-decreasing hazard.

    Gap convention: rhs - lhs (slack, non-negative exactly when the bound
    holds).
    """
    hi = float(dist.quantile(np.asarray(0.999)))
    start = max(t, dist.support[0] * (1 + 1e-12))
    if not _rate_nondecreasing(dist.hazard, start, hi):
        return ClaimReport("residual_bound", math.nan, math.nan, math.nan,
                           INDETERMINATE,
                           notes="precondition unverified: hazard not "
                                 f"non-decreasing on [{t}, {hi:.4g}]")
    lhs_mv = weighted_residual_extropy(dist, t, force_quadrature=True)
    js = dynamic_survival_extropy(dist, t)
    if lhs_mv.diverged or js.diverged:
        return ClaimReport("residual_bound", lhs_mv.value, math.nan, math.nan,
                           INDETERMINATE, notes="a side diverged")
    r_t = float(dist.hazard(np.asarray(t)))
    lhs = lhs_mv.value
    rhs = t * r_t**2 * js.value
    gap = rhs - lhs
    verdict = HOLDS if lhs <= rhs + tol else VIOLATED
    return ClaimReport("residual_bound", lhs, rhs, gap, verdict,
                       notes=f"t={t}, r(t)={r_t:.6g}", extras={"hazard_at_t": r_t})


def past_bound_check(dist, t: float, T: float, tol: float = 1e-8) -> ClaimReport:
    """Evaluate Jw(tX) against the claimed bound -t q(t)^2/2 and the
    re-derived -t^2 q(t)^2/4.

    The two candidates differ by the value assigned to int_0^t x dx
    (t/2 versus the correct t^2/2); both are reported with their mutual
    gap.  lhs/rhs/gap refer to the claimed bound (gap = lhs - rhs, slack
    for a lower bound); the re-derived values sit in extras.  The verdict
    is indeterminate unless the reversed hazard is verified non-decreasing
    on (0, T).
    """
    if not T > t:
        raise ValidationError("past_bound_check requires T > t")
    lhs_mv = weighted_past_extropy(dist, t)
    q_t = float(dist.reversed_hazard(np.asarray(t)))
    claimed = -t * q_t**2 / 2.0
    tq = t * q_t  # float ** raises OverflowError where * gives inf
    rederived = -(tq * tq) / 4.0
    extras = {
        "reversed_hazard_at_t": q_t,
        "claimed_bound": claimed,
        "rederived_bound": rederived,
        "mutual_gap": rederived - claimed,
        "rederived_gap": lhs_mv.value - rederived,
    }
    lo = float(dist.quantile(np.asarray(1e-6)))
    if not _rate_nondecreasing(dist.reversed_hazard, lo, T):
        return ClaimReport("past_bound", lhs_mv.value, claimed,
                           lhs_mv.value - claimed, INDETERMINATE,
                           notes="precondition unverified: reversed hazard not "
                                 f"non-decreasing on (0, {T}); bounds reported anyway",
                           extras=extras)
    verdict = HOLDS if lhs_mv.value >= claimed - tol else VIOLATED
    return ClaimReport("past_bound", lhs_mv.value, claimed,
                       lhs_mv.value - claimed, verdict,
                       notes=f"t={t}, q(t)={q_t:.6g}", extras=extras)


def sum_bound_check(x_dist: UnivariateDistribution, y_dist: UnivariateDistribution,
                    tol: float = TOL_2D) -> ClaimReport:
    """Check Jw(X+Y) >= -2 (J(X) Jw(Y) + Jw(X) J(Y)) for independent X, Y.

    The left side is computed honestly: one iterated integral, whose inner
    quadrature builds the convolution density and whose outer quadrature
    takes its weighted extropy.  Gap convention: lhs - rhs.
    """
    jx, jy = extropy(x_dist), extropy(y_dist)
    jwx, jwy = weighted_extropy(x_dist), weighted_extropy(y_dist)
    if any(m.diverged for m in (jx, jy, jwx, jwy)):
        return ClaimReport("sum_bound", math.nan, math.nan, math.nan,
                           INDETERMINATE, notes="a marginal measure diverged")
    rhs = -2.0 * (jx.value * jwy.value + jwx.value * jy.value)

    fx, fy = x_dist.pdf, y_dist.pdf
    xlo, xhi = x_dist.support
    ylo, yhi = y_dist.support

    def density_at(z: float) -> Integrand | None:
        lo, hi = max(xlo, z - yhi), min(xhi, z - ylo)
        return Integrand(lambda x: fx(x) * fy(z - x), lo, hi) if lo < hi else None

    r = iterated_integral(density_at, xlo + ylo, xhi + yhi,
                          combine=lambda z, f_z: z * f_z**2)
    lhs = -0.5 * r.value
    gap = lhs - rhs
    verdict = HOLDS if lhs >= rhs - tol else VIOLATED
    return ClaimReport("sum_bound", lhs, rhs, gap, verdict,
                       notes=f"convolution of {x_dist.label} and {y_dist.label}")


# -- derivative-identity claims ------------------------------------------------

def _lemma1_report(claim_id: str, dc: DerivativeComparison, tol: float) -> ClaimReport:
    gap = dc.numeric - dc.corrected_formula
    verdict = HOLDS if abs(gap) <= max(tol, 10.0 * dc.numeric_error) else VIOLATED
    return ClaimReport(
        claim_id, dc.numeric, dc.corrected_formula, gap, verdict,
        notes="rhs is the re-derived identity; claimed identity reported in extras",
        extras={"claimed_formula": dc.claimed_formula,
                "claimed_gap": dc.claimed_formula - dc.numeric,
                "fd_error": dc.numeric_error})


def lemma1_residual_check(dist, t: float, tol: float = 1e-5) -> ClaimReport:
    """Compare d/dt Jw(X_t) (finite differences) with both closed forms.

    lhs is the numeric derivative, rhs the re-derived identity
    2 r Jw + t r^2 / 2; the claimed identity and its gap are reported in
    extras, never asserted.  Gap convention: lhs - rhs.
    """
    return _lemma1_report("lemma1_residual", weighted_residual_derivative(dist, t), tol)


def lemma1_past_check(dist, t: float, tol: float = 1e-5) -> ClaimReport:
    """Past-lifetime counterpart of :func:`lemma1_residual_check`."""
    return _lemma1_report("lemma1_past", weighted_past_derivative(dist, t), tol)


@lru_cache(maxsize=1)
def validated_derivative_variant() -> str:
    """Which derivative identity survives finite-difference validation.

    Checked on the exponential closed form Jw(X_t) = -t/4 - 1/8 before any
    downstream use; returns "corrected" or "claimed".
    """
    e1 = exponential(1.0)
    err_corrected = 0.0
    err_claimed = 0.0
    for t in (0.5, 1.0, 2.0):
        dc = weighted_residual_derivative(e1, t)
        err_corrected = max(err_corrected, abs(dc.corrected_formula - dc.numeric))
        err_claimed = max(err_claimed, abs(dc.claimed_formula - dc.numeric))
    if err_corrected <= 1e-5:
        return "corrected"
    if err_claimed <= 1e-5:
        return "claimed"
    raise RuntimeError(
        "neither derivative identity reproduces finite differences: "
        f"corrected off by {err_corrected:.3e}, claimed by {err_claimed:.3e}")


# -- hazard inversion and reconstruction ---------------------------------------

@dataclass(frozen=True)
class HazardCurve:
    """Reconstructed hazard values on a strictly increasing time grid."""

    grid: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ts = [t for t, _ in self.grid]
        rs = [r for _, r in self.grid]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValidationError("hazard curve times must be strictly increasing")
        if any(not math.isfinite(r) or r < 0.0 for r in rs):
            raise ValidationError("hazard values must be finite and non-negative")

    @property
    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.grid])

    @property
    def values(self) -> np.ndarray:
        return np.array([r for _, r in self.grid])


def invert_weighted_residual(curve: Sequence[tuple]) -> HazardCurve:
    """Recover the hazard from a weighted-residual-extropy curve.

    ``curve`` rows are (t, Jw(X_t), dJw/dt); the derivative entry may be
    None, in which case it is recomputed by centered differences of the
    value column.  Supplied derivatives win over recomputed ones; a
    disagreement beyond 1e-4 attaches a warning.  Each row is solved for
    a non-negative root of the derivative identity's quadratic in the
    hazard (the identity variant is the build-time validated one).

    When the curve is increasing (derivative >= 0) the quadratic has
    exactly one non-negative root.  On a decreasing curve both roots can
    be positive -- the uniqueness guarantee assumes an increasing curve --
    and the larger root is returned with a warning; it is the correct
    branch whenever t * r(t) >= -2 Jw(X_t), which holds on the worked
    exponential and pareto curves.
    """
    rows = [(float(r[0]), float(r[1]), None if len(r) < 3 or r[2] is None else float(r[2]))
            for r in curve]
    if len(rows) < 2:
        raise ValidationError("inversion needs at least two curve points")
    ts = np.array([r[0] for r in rows])
    jws = np.array([r[1] for r in rows])
    if np.any(np.diff(ts) <= 0):
        raise ValidationError("curve times must be strictly increasing")

    centered = np.gradient(jws, ts)
    supplied = np.array([math.nan if r[2] is None else r[2] for r in rows])
    use = np.where(np.isnan(supplied), centered, supplied)
    have = ~np.isnan(supplied)
    if np.any(have):
        mismatch = np.abs(supplied[have] - centered[have])
        if float(np.max(mismatch)) > 1e-4:
            warnings.warn(
                "supplied derivatives disagree with centered differences by up to "
                f"{float(np.max(mismatch)):.3e}; using the supplied values",
                RuntimeWarning)

    variant = validated_derivative_variant()
    out = []
    ambiguous = 0
    for t, jw, d in zip(ts, jws, use):
        if variant == "corrected":
            # (t/2) x^2 + 2 Jw x - D = 0
            b_half = 2.0 * jw
            disc = 4.0 * jw * jw + 2.0 * t * d
        else:
            # (t/2) x^2 + (Jw/2) x - D = 0
            b_half = jw / 2.0
            disc = jw * jw / 4.0 + 2.0 * t * d
        if disc < 0.0:
            raise InversionError(f"negative discriminant at t={t}")
        root = (-b_half + math.sqrt(disc)) / t
        other = (-b_half - math.sqrt(disc)) / t
        if root < 0.0:
            raise InversionError(f"no non-negative root at t={t}")
        if other > 1e-12 * max(1.0, root):
            ambiguous += 1
        out.append((float(t), float(root)))
    if ambiguous:
        warnings.warn(
            f"{ambiguous} curve point(s) admit two positive hazard roots "
            "(curve not increasing there); returning the larger root",
            RuntimeWarning)
    return HazardCurve(tuple(out))


def reconstruct_survival(hc: HazardCurve, t_start: float, sf_start: float,
                         max_spacing: float | None = None):
    """Survival evaluator sf(t) = sf_start * exp(-int_{t_start}^t r).

    The cumulative hazard integrates the linear interpolant of the curve
    exactly (trapezoid at the knots).  The grid must resolve the curve: if
    ``max_spacing`` is given, gaps above it raise ResolutionError;
    otherwise a second-difference estimate of the trapezoid error must
    stay below 1e-4.
    """
    ts = hc.times
    rs = hc.values
    if not ts[0] <= t_start <= ts[-1]:
        raise ValidationError(f"t_start={t_start} outside the curve span")
    if not sf_start > 0.0:
        raise ValidationError("sf_start must be positive")
    gaps = np.diff(ts)
    if max_spacing is not None:
        if float(np.max(gaps)) > max_spacing:
            raise ResolutionError(
                f"grid gap {float(np.max(gaps)):.4g} exceeds max spacing {max_spacing}")
    elif ts.size >= 3:
        # Trapezoid error per panel is h^3 |r''| / 12.
        curv = np.abs(np.diff(rs, 2)) / (0.5 * (gaps[1:] + gaps[:-1])) ** 2
        est = float(np.sum(gaps[1:] ** 3 * curv / 12.0))
        if est > 1e-4:
            raise ResolutionError(
                f"estimated trapezoid error {est:.3e} exceeds 1e-4; refine the grid")

    knot_h = np.concatenate([[0.0], np.cumsum(0.5 * (rs[1:] + rs[:-1]) * gaps)])

    def cum_hazard(t):
        t = np.asarray(t, dtype=float)
        if np.any(t < ts[0]) or np.any(t > ts[-1]):
            raise ValidationError("query outside the reconstruction span")
        i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, ts.size - 2)
        dx = t - ts[i]
        slope = (rs[i + 1] - rs[i]) / gaps[i]
        return knot_h[i] + rs[i] * dx + 0.5 * slope * dx**2

    h0 = float(cum_hazard(np.asarray(t_start)))

    def survival(t):
        return sf_start * np.exp(-(cum_hazard(t) - h0))

    return survival


# -- constancy exploration -----------------------------------------------------

@dataclass(frozen=True)
class ConstancyODEFamily:
    """Hazard family r(t) = 2 / (t (C - 3 log t)) with r(t0) = r0.

    C = 2/(t0 r0) + 3 log t0; the hazard is positive only for
    t < exp(C/3), so the family induces a proper distribution only on a
    window, not on (0, inf).
    """

    t0: float
    r0: float

    def __post_init__(self):
        if not (self.t0 > 0 and self.r0 > 0):
            raise ValidationError("ConstancyODEFamily requires t0 > 0 and r0 > 0")

    @property
    def C(self) -> float:
        return 2.0 / (self.t0 * self.r0) + 3.0 * math.log(self.t0)

    @property
    def positivity_limit(self) -> float:
        return math.exp(self.C / 3.0)

    def contains(self, t: float) -> bool:
        return 0.0 < t < self.positivity_limit

    def hazard(self, t):
        t = np.asarray(t, dtype=float)
        return 2.0 / (t * (self.C - 3.0 * np.log(t)))

    def induced_distribution(self, window_lo: float) -> UnivariateDistribution:
        """Distribution with this hazard, restricted to [window_lo, limit).

        The survival anchors at window_lo; mass on the window is exactly 1
        since the cumulative hazard diverges at the positivity limit.
        """
        if not self.contains(window_lo):
            raise ValidationError("window_lo must lie inside the positivity window")
        C = self.C
        tstar = self.positivity_limit
        d0 = C - 3.0 * math.log(window_lo)

        def sf(t):
            t = np.asarray(t, dtype=float)
            tc = np.clip(t, window_lo, tstar)
            return np.where(t >= tstar, 0.0,
                            np.where(t <= window_lo, 1.0,
                                     ((C - 3.0 * np.log(tc)) / d0) ** (2.0 / 3.0)))

        def cdf(t):
            return 1.0 - sf(t)

        def pdf(t):
            t = np.asarray(t, dtype=float)
            inside = (t > window_lo) & (t < tstar)
            tc = np.where(inside, t, 0.5 * (window_lo + tstar))
            return np.where(inside, self.hazard(tc) * sf(tc), 0.0)

        def quantile(p):
            p = np.asarray(p, dtype=float)
            return np.exp((C - d0 * (1.0 - p) ** 1.5) / 3.0)

        return UnivariateDistribution(
            family="hazard_induced",
            params={"t0": self.t0, "r0": self.r0, "window_lo": window_lo},
            support=(window_lo, tstar), pdf=pdf, cdf=cdf, sf=sf, quantile=quantile,
            pdf_edge_exponents=(0.0, -1.0 / 3.0))


@dataclass(frozen=True)
class ConstancyReport:
    family_label: str
    t_grid: tuple[float, ...]
    values: tuple[float, ...]
    spread: float
    reference: float | None
    max_deviation_from_reference: float | None
    notes: str


def constancy_explorer(family, t_grid) -> ConstancyReport:
    """Measure Jw(X_t) across a grid for a hazard family.

    ``family`` is either a pareto catalog member (hazard shape/t, expected
    constant at -shape/4) or a :class:`ConstancyODEFamily` (restricted to
    its positivity window).  Reports the spread max - min; nothing is
    asserted.
    """
    grid = tuple(float(t) for t in t_grid)
    if isinstance(family, ConstancyODEFamily):
        bad = [t for t in grid if not family.contains(t)]
        if bad:
            raise ValidationError(
                f"grid points {bad} outside the positivity window "
                f"(0, {family.positivity_limit:.6g})")
        dist = family.induced_distribution(min(grid) / 2.0)
        reference = None
        notes = ("hazard positive only below "
                 f"{family.positivity_limit:.6g}; distribution restricted to "
                 f"[{dist.support[0]:.6g}, {family.positivity_limit:.6g}) and "
                 "anchored there (unit mass on the window)")
    elif isinstance(family, UnivariateDistribution) and family.family == "pareto":
        dist = family
        k = float(family.params["shape"])
        if any(t < dist.support[0] for t in grid):
            raise ValidationError("grid points must lie at or above the pareto scale")
        reference = -k / 4.0
        notes = f"pareto hazard shape/t; constant reference -shape/4 = {reference}"
    else:
        raise ValidationError(
            "constancy_explorer accepts a pareto member or a ConstancyODEFamily")
    values = tuple(
        weighted_residual_extropy(dist, t, force_quadrature=True).value for t in grid)
    spread = max(values) - min(values)
    max_dev = None if reference is None else max(abs(v - reference) for v in values)
    return ConstancyReport(dist.label, grid, values, spread, reference, max_dev, notes)


def constancy_claim(family, t_grid) -> ClaimReport:
    """The constancy exploration as a claim report; the verdict is always
    indeterminate.

    lhs and gap carry the spread of Jw(X_t) over the grid against rhs 0.
    A catalog member other than pareto has no constant to explore and
    reports NaN sides without evaluating anything.
    """
    if isinstance(family, UnivariateDistribution) and family.family != "pareto":
        return ClaimReport("constancy", math.nan, math.nan, math.nan, INDETERMINATE,
                           notes="constancy exploration needs a pareto member "
                                 "(hazard shape/t)")
    rep = constancy_explorer(family, t_grid)
    return ClaimReport("constancy", rep.spread, 0.0, rep.spread, INDETERMINATE,
                       notes=rep.notes,
                       extras={"mean_value": float(np.mean(rep.values)),
                               "reference": rep.reference,
                               "max_deviation": rep.max_deviation_from_reference})


# -- claim registry ------------------------------------------------------------

@dataclass(frozen=True)
class ClaimSpec:
    """How one claim id is evaluated.

    ``check`` takes (X, Y) for a pair claim, (dist, t) for a t-indexed
    claim and (dist, t_grid) otherwise, and returns a ClaimReport.
    """

    check: Callable[..., ClaimReport]
    pair: bool = False
    t_indexed: bool = True


# The checks are looked up by name at call time, so rebinding a module
# attribute (instrumentation, monkeypatching) reaches the registry too.
CLAIMS = {
    "decomposition": ClaimSpec(lambda d, t: decomposition_check(d, t)),
    "residual_bound": ClaimSpec(lambda d, t: residual_bound_check(d, t)),
    # T is the 0.999 quantile, kept strictly above t.
    "past_bound": ClaimSpec(lambda d, t: past_bound_check(
        d, t, T=max(float(d.quantile(np.asarray(0.999))), t * (1 + 1e-9)))),
    "sum_bound": ClaimSpec(lambda x, y: sum_bound_check(x, y),
                           pair=True, t_indexed=False),
    "independence_factorization": ClaimSpec(
        lambda x, y: independence_factorization_check(x, y), pair=True, t_indexed=False),
    "lemma1_residual": ClaimSpec(lambda d, t: lemma1_residual_check(d, t)),
    "lemma1_past": ClaimSpec(lambda d, t: lemma1_past_check(d, t)),
    "constancy": ClaimSpec(lambda d, grid: constancy_claim(d, grid), t_indexed=False),
}

CLAIM_IDS = tuple(CLAIMS)


def claim_row(rep: ClaimReport, dist_label: str, t) -> dict:
    """One output row of a claim report."""
    return {"claim": rep.claim_id, "dist": dist_label, "t": t,
            "lhs": rep.lhs, "rhs": rep.rhs, "gap": rep.gap,
            "verdict": rep.verdict, "notes": rep.notes, "extras": dict(rep.extras)}


def claim_rows(claim_id: str, dists, grid_of) -> list[dict]:
    """Evaluate one claim over ``dists`` and return its rows.

    A pair claim takes ``dists`` as (X, Y) and labels its row "X+Y".
    Otherwise each distribution is checked on ``grid_of(dist)``: once per
    grid point when the claim is t-indexed, once on the whole grid if not.
    """
    spec = CLAIMS[claim_id]
    if spec.pair:
        x, y = dists
        return [claim_row(spec.check(x, y), f"{x.label}+{y.label}", None)]
    rows = []
    for dist in dists:
        grid = grid_of(dist)
        if not spec.t_indexed:
            rows.append(claim_row(spec.check(dist, grid), dist.label, None))
            continue
        for t in grid:
            t = float(t)
            rows.append(claim_row(spec.check(dist, t), dist.label, t))
    return rows
