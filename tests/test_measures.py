import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extropy import measures as ms
from extropy.claims import residual_bound_check
from extropy.distributions import (
    ValidationError,
    beta_dist,
    exponential,
    gamma_dist,
    pareto,
    piecewise,
    tabulated,
    uniform,
)
from extropy.measures import (
    MEASURE_IDS,
    T_INDEXED_MEASURES,
    _MEASURES,
    ConditionalLifetime,
    DomainError,
    compute_measure,
    decomposition_check,
    default_t_grid,
    dynamic_survival_extropy,
    extropy,
    past_extropy,
    residual_extropy,
    weighted_extropy,
    weighted_past_derivative,
    weighted_past_extropy,
    weighted_residual_derivative,
    weighted_residual_extropy,
)
from extropy.quadrature import EvaluationError, Integrand, integrate

# frozen by an independent high-precision quadrature oracle:
# -(1/4 - (3/4) e^-2) / (2 (1 - e^-1)^2)
WPE_EXP1_T1 = -0.18581995488271513


class TestExtropy:
    """J(X) = -1/2 int f^2."""

    def test_uniform_scales_with_width(self):
        assert extropy(uniform(0, 4)).value == pytest.approx(-0.125, rel=1e-12)
        assert extropy(uniform(0, 1)).value == pytest.approx(-0.5, rel=1e-12)

    def test_piecewise_sum_of_squares(self):
        assert extropy(piecewise([0.5, 0.5])).value == pytest.approx(-0.25, rel=1e-12)
        assert extropy(piecewise([0.3, 0.7])).value == pytest.approx(
            -0.5 * (0.09 + 0.49), rel=1e-12)

    def test_tabulated_spike_between_wide_cells(self):
        # A triangle of height 1000 on (0.499, 0.501), inside a support of
        # 1000: the knots cut the first partition, so the spike is seen.
        d = tabulated([[0, 0], [0.499, 0], [0.5, 1000], [0.501, 0], [1000, 0]])
        assert extropy(d, force_quadrature=True).value == pytest.approx(-1000.0 / 3.0, rel=1e-9)

    def test_exponential_by_quadrature(self):
        mv = extropy(exponential(1.0))
        assert mv.method == "quadrature"
        assert mv.value == pytest.approx(-0.25, abs=1e-10)

    def test_closed_form_matches_quadrature(self, catalog):
        for d in catalog:
            auto = extropy(d)
            quad = extropy(d, force_quadrature=True)
            if auto.diverged:
                assert quad.diverged
            else:
                assert quad.value == pytest.approx(auto.value, rel=1e-8), d.label


class TestWeightedExtropy:
    """Jw(X) = -1/2 int x f^2."""

    def test_exponential_rate_free(self):
        for lam in (0.5, 1.0, 5.0):
            assert weighted_extropy(exponential(lam)).value == -0.125
            q = weighted_extropy(exponential(lam), force_quadrature=True)
            assert q.value == pytest.approx(-0.125, abs=1e-9)

    def test_uniform_formula(self):
        # -(b + a) / (4 (b - a)); from zero it is -1/4 regardless of width.
        assert weighted_extropy(uniform(0, 7)).value == pytest.approx(-0.25)
        assert weighted_extropy(uniform(1, 3)).value == pytest.approx(-0.5)
        assert weighted_extropy(uniform(2, 5)).value == pytest.approx(-7.0 / 12.0)

    def test_single_cell_matches_unit_uniform(self):
        assert weighted_extropy(piecewise([1.0])).value == pytest.approx(-0.25)

    def test_piecewise_formula(self):
        c = np.array([0.2, 0.3, 0.5])
        want = -0.25 * float(np.sum(c**2 * (2 * np.arange(1, 4) - 1)))
        assert weighted_extropy(piecewise(c)).value == pytest.approx(want, rel=1e-12)
        assert weighted_extropy(piecewise(c), force_quadrature=True).value == \
            pytest.approx(want, rel=1e-8)

    def test_gamma_scale_free(self):
        vals = [weighted_extropy(gamma_dist(2.0, b), force_quadrature=True).value
                for b in (0.5, 1.0, 2.0)]
        assert max(vals) - min(vals) < 1e-10
        assert vals[0] == pytest.approx(-0.1875, abs=1e-9)

    def test_beta_divergence_both_paths(self):
        for b in (0.3, 0.5):
            d = beta_dist(1.0, b)
            cf = weighted_extropy(d)
            qd = weighted_extropy(d, force_quadrature=True)
            assert cf.diverged and cf.value == -math.inf
            assert qd.diverged and qd.value == -math.inf

    def test_beta_finite_matches_closed_form(self):
        for a, b in [(1.0, 0.51), (1.0, 0.55), (1.5, 0.75), (2.0, 1.5)]:
            d = beta_dist(a, b)
            assert weighted_extropy(d, force_quadrature=True).value == \
                pytest.approx(weighted_extropy(d).value, rel=1e-8)

    def test_plain_extropy_diverges_at_sharp_lower_edge(self):
        # f^2 has local exponent 2(alpha-1) <= -1 at zero for alpha <= 1/2;
        # the x weight rescues Jw but not J.
        d = beta_dist(0.3, 2.0)
        j = extropy(d, force_quadrature=True)
        assert j.diverged and j.value == -math.inf
        jw = weighted_extropy(d, force_quadrature=True)
        assert not jw.diverged


class TestConditionalLifetime:
    def test_residual_density_normalizes(self, catalog):
        for d in catalog:
            t = float(d.quantile(np.asarray(0.4)))
            cl = ConditionalLifetime(d, "residual", t)
            lo, hi = cl.bounds
            r = integrate(Integrand(cl.density, lo, hi), tol=1e-9)
            assert r.value == pytest.approx(1.0, abs=1e-8), d.label

    def test_past_density_normalizes(self, catalog):
        for d in catalog:
            t = float(d.quantile(np.asarray(0.6)))
            cl = ConditionalLifetime(d, "past", t)
            lo, hi = cl.bounds
            r = integrate(Integrand(cl.density, lo, hi), tol=1e-9)
            assert r.value == pytest.approx(1.0, abs=1e-8), d.label

    def test_normaliser_evaluated_once(self):
        d = gamma_dist(2.0, 1.0)
        calls = []

        def sf(x):
            calls.append(x)
            return d.sf(x)

        counted = dataclasses.replace(d, sf=sf)
        weighted_residual_extropy(counted, 1.0, force_quadrature=True)
        assert len(calls) == 1

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ConditionalLifetime(exponential(1.0), "sideways", 1.0)

    def test_nonpositive_t_rejected(self):
        with pytest.raises(DomainError):
            ConditionalLifetime(exponential(1.0), "residual", 0.0)


class TestResidualExtropy:
    def test_memorylessness(self):
        vals = [residual_extropy(exponential(1.0), t).value for t in (0.5, 1, 2, 5)]
        assert max(vals) - min(vals) < 1e-9
        assert vals[0] == pytest.approx(-0.25, abs=1e-9)

    def test_uniform_halfway(self):
        assert residual_extropy(uniform(0, 1), 0.5).value == pytest.approx(-1.0)

    def test_small_t_recovers_extropy(self, catalog):
        for d in catalog:
            got = residual_extropy(d, 1e-9).value
            want = extropy(d, force_quadrature=True).value
            assert got == pytest.approx(want, abs=1e-6), d.label

    def test_beyond_support_rejected(self):
        with pytest.raises(DomainError):
            residual_extropy(uniform(0, 1), 2.0)

    @pytest.mark.parametrize("t", [2.0, 1e3, 1e5])
    def test_pareto_inverse_in_t(self, t):
        # J(X_t) = -k**2 / (2 (2k+1) t) for pareto(k, 1), however deep t.
        k = 2.0
        got = residual_extropy(pareto(k, 1.0), t, force_quadrature=True).value
        assert got == pytest.approx(-k * k / (2.0 * (2.0 * k + 1.0) * t), rel=1e-9)


class TestPastExtropy:
    def test_uniform_halfway(self):
        assert past_extropy(uniform(0, 1), 0.5).value == pytest.approx(-1.0)

    def test_upper_end_recovers_extropy(self):
        d = uniform(0, 1)
        assert past_extropy(d, 1.0).value == pytest.approx(-0.5)

    def test_piecewise_at_knot(self):
        assert past_extropy(piecewise([0.5, 0.5]), 1.0).value == pytest.approx(-0.5)

    def test_t_zero_rejected(self):
        with pytest.raises(DomainError):
            past_extropy(exponential(1.0), 0.0)


class TestWeightedResidualExtropy:
    def test_exponential_linear_in_t(self):
        for lam in (0.5, 1.0, 2.0):
            d = exponential(lam)
            for t in np.linspace(0.2, 3.0, 7):
                want = -lam * t / 4.0 - 0.125
                assert weighted_residual_extropy(d, float(t)).value == \
                    pytest.approx(want, rel=1e-12)
                assert weighted_residual_extropy(
                    d, float(t), force_quadrature=True).value == \
                    pytest.approx(want, abs=1e-9)

    def test_pareto_constant(self):
        d = pareto(2.0, 1.0)
        for t in (1.5, 2.0, 4.0, 1e3):
            assert weighted_residual_extropy(d, t).value == \
                pytest.approx(-0.5, abs=1e-9)

    @pytest.mark.parametrize("t", [0.1557197, 0.3402366472734874])
    def test_piecewise_jumps_at_the_knots(self, t):
        # Without the knots as breakpoints a jump can fall between a
        # panel's end and its outermost Kronrod node, where the panel's
        # error estimate cannot see it.
        c = [0.25, 0.5, 0.25]
        mass = sum(ck**2 * (max(k + 1, t) ** 2 - max(k, t) ** 2) / 2.0
                   for k, ck in enumerate(c))
        exact = -mass / (2.0 * (1.0 - c[0] * t) ** 2)
        got = weighted_residual_extropy(piecewise(c), t, force_quadrature=True).value
        assert got == pytest.approx(exact, abs=1e-10)

    def test_small_t_limit(self, catalog):
        for d in catalog:
            got = weighted_residual_extropy(d, 1e-6, force_quadrature=True).value
            want = weighted_extropy(d, force_quadrature=True).value
            assert got == pytest.approx(want, abs=1e-5), d.label


class TestWeightedPastExtropy:
    def test_uniform_constant_quarter(self):
        d = uniform(0, 2)
        for t in (0.3, 1.0, 1.7):
            assert weighted_past_extropy(d, t).value == pytest.approx(-0.25)

    def test_exponential_frozen_value(self):
        assert weighted_past_extropy(exponential(1.0), 1.0).value == \
            pytest.approx(WPE_EXP1_T1, abs=1e-12)

    def test_late_t_recovers_weighted_extropy(self):
        d = exponential(1.0)
        t = float(d.quantile(np.asarray(1.0 - 1e-7)))
        assert weighted_past_extropy(d, t).value == pytest.approx(-0.125, abs=1e-5)


class TestDynamicSurvivalExtropy:
    def test_exponential_rate_scaling(self):
        for lam in (0.5, 1.0, 2.0):
            for t in (0.3, 1.0, 2.5):
                assert dynamic_survival_extropy(exponential(lam), t).value == \
                    pytest.approx(-0.25 / lam, abs=1e-9)

    def test_uniform_linear(self):
        for b, t in [(4.0, 1.0), (1.0, 0.25), (2.0, 1.5)]:
            assert dynamic_survival_extropy(uniform(0, b), t).value == \
                pytest.approx(-(b - t) / 6.0, abs=1e-10)

    def test_heavy_tail_diverges(self):
        mv = dynamic_survival_extropy(pareto(0.4, 1.0), 2.0)
        assert mv.diverged and mv.value == -math.inf


class TestDerivativeIdentities:
    """d/dt Jw(X_t) against the two closed-form candidates.

    The re-derived identity 2 r Jw + t r^2/2 must match finite differences;
    the claimed variant (r/2)(Jw + t r) is evaluated and reported only.
    """

    def test_residual_exponential(self):
        dc = weighted_residual_derivative(exponential(1.0), 1.0)
        assert dc.numeric == pytest.approx(-0.25, abs=1e-7)
        assert dc.corrected_formula == pytest.approx(-0.25, abs=1e-10)
        assert dc.claimed_formula == pytest.approx(0.3125, abs=1e-10)

    @pytest.mark.parametrize("dist,ts", [
        (exponential(1.0), (0.4, 0.8, 1.5, 2.5, 4.0)),
        (gamma_dist(2.0, 1.0), (0.5, 1.0, 1.8, 2.5, 3.5)),
        (uniform(0.0, 1.0), (0.2, 0.35, 0.5, 0.65, 0.8)),
        (beta_dist(2.0, 1.5), (0.2, 0.35, 0.5, 0.65, 0.8)),
        (pareto(2.0, 1.0), (1.2, 1.6, 2.2, 3.0, 4.5)),
    ])
    def test_corrected_matches_finite_differences(self, dist, ts):
        # The finite-difference oracle needs a smooth density; the
        # piecewise and tabulated members have derivative kinks that
        # pollute the stencil (the identity itself still holds there).
        for t in ts:
            dc = weighted_residual_derivative(dist, t)
            assert dc.corrected_formula == pytest.approx(dc.numeric, abs=1e-5), \
                (dist.label, t)

    def test_past_uniform_flat_curve(self):
        dc = weighted_past_derivative(uniform(0, 1), 0.5)
        assert dc.numeric == pytest.approx(0.0, abs=1e-7)
        assert dc.corrected_formula == pytest.approx(0.0, abs=1e-12)
        assert dc.claimed_formula == pytest.approx(-0.75, abs=1e-12)

    def test_past_corrected_matches_finite_differences(self):
        for dist, t in [(exponential(1.0), 1.0), (gamma_dist(2.0, 1.0), 2.0),
                        (uniform(0.0, 1.0), 0.7)]:
            dc = weighted_past_derivative(dist, t)
            assert dc.corrected_formula == pytest.approx(dc.numeric, abs=1e-5), \
                (dist.label, t)


def _stencil_points(dist, t, mode):
    """The 20 stencil points of the derivative at t, in serial order."""
    steps = [ms._fd_scale(dist, t, mode)]
    for _ in range(9):
        steps.append(steps[-1] / 1.4)
    return [x for s in steps for x in (t + s, t - s)]


def _with_sf_zero_at(dist, point):
    """``dist`` with sf(point) = 0: a tiny normaliser at that one point."""
    base_sf = dist.sf
    return dataclasses.replace(
        dist, sf=lambda x: np.where(np.asarray(x) == point, 0.0, base_sf(x)))


class TestBatchedStencil:
    """The Ridders stencil and Jw at t run as one batch, which must give the
    per-t public measures bit for bit and fail where the serial loop would."""

    @pytest.mark.parametrize("side", ["residual", "past"])
    @pytest.mark.parametrize("dist,t", [(gamma_dist(2.0, 1.0), 1.0),
                                        (exponential(1.0), 0.5),
                                        (pareto(2.0, 1.0), 2.0),
                                        (beta_dist(2.0, 1.5), 0.4)])
    def test_stencil_values_are_the_public_measures(self, monkeypatch, dist, t, side):
        seen = []
        real = ms.differentiate

        def recording(h, t, scale):
            def h_seen(u):
                values, error = h(u)
                seen.append((u.tolist(), values, error))
                return values, error
            return real(h_seen, t, scale)

        monkeypatch.setattr(ms, "differentiate", recording)
        dc = getattr(ms, f"weighted_{side}_derivative")(dist, t)
        ((points, values, error),) = seen
        assert error is None and points == _stencil_points(dist, t, side)
        measure = getattr(ms, f"weighted_{side}_extropy")
        assert values == [measure(dist, u, force_quadrature=True).value for u in points]
        # Jw at t, last in the batch, enters the identities as the public value.
        jw = measure(dist, t, force_quadrature=True).value
        if side == "residual":
            r = float(dist.hazard(np.asarray(t)))
            assert dc.corrected_formula == 2.0 * r * jw + t * r * r / 2.0
        else:
            q = float(dist.reversed_hazard(np.asarray(t)))
            assert dc.corrected_formula == -2.0 * q * jw - t * q * q / 2.0

    def test_tiny_normaliser_past_the_break_row_does_not_raise(self):
        # The serial loop reads rows 0-3 of exponential(1) at t = 0.5.
        base = exponential(1.0)
        points = _stencil_points(base, 0.5, "residual")
        for bad in (points[12], points[19]):
            dc = weighted_residual_derivative(_with_sf_zero_at(base, bad), 0.5)
            assert dc == weighted_residual_derivative(base, 0.5)

    def test_tiny_normaliser_in_a_reached_row_raises_as_the_measure(self):
        base = exponential(1.0)
        for bad in _stencil_points(base, 0.5, "residual")[:8:3]:
            dist = _with_sf_zero_at(base, bad)
            with pytest.raises(DomainError) as serial:
                weighted_residual_extropy(dist, bad, force_quadrature=True)
            with pytest.raises(DomainError) as batched:
                weighted_residual_derivative(dist, 0.5)
            assert str(batched.value) == str(serial.value)

    def test_a_failing_point_fails_alone(self):
        # A density that is NaN above 2 fails every residual integral past
        # it with the engine's error; the points after it still give the
        # public measures.
        base = exponential(1.0)
        dist = dataclasses.replace(
            base, pdf=lambda x: np.where(np.asarray(x) > 2.0, math.nan, base.pdf(x)))
        outcomes = ms.measure_points(
            dist, [("weighted_residual_extropy", 1.0), ("weighted_past_extropy", 1.0),
                   ("weighted_past_extropy", 1.5)], force_quadrature=True)
        assert type(outcomes[0]) is EvaluationError
        with pytest.raises(EvaluationError) as serial:
            weighted_residual_extropy(dist, 1.0, force_quadrature=True)
        assert str(outcomes[0]) == str(serial.value)
        assert outcomes[1] == weighted_past_extropy(dist, 1.0, force_quadrature=True)
        assert outcomes[2] == weighted_past_extropy(dist, 1.5, force_quadrature=True)

    @pytest.mark.parametrize("dist,t", [(gamma_dist(2.0, 1.0), 1.0),
                                        (exponential(1.0), 0.5),
                                        (beta_dist(2.0, 1.5), 0.4)])
    def test_residual_bound_pair_is_one_batch(self, monkeypatch, dist, t):
        # Jw(X_t) and Js(X_t), two integrands, run as one engine call and
        # give the two public measures bit for bit.
        members = []
        real = ms._integrate_members

        def counting(fn, lower, upper, **kwargs):
            members.append(np.size(lower))
            return real(fn, lower, upper, **kwargs)

        monkeypatch.setattr(ms, "_integrate_members", counting)
        rep = residual_bound_check(dist, t)
        monkeypatch.undo()
        assert members == [2] and rep.verdict != "indeterminate"
        r = float(dist.hazard(np.asarray(t)))
        assert rep.lhs == weighted_residual_extropy(dist, t, force_quadrature=True).value
        assert rep.rhs == t * r**2 * dynamic_survival_extropy(dist, t).value

    def test_residual_bound_takes_a_js_closed_form(self, monkeypatch):
        # With a closed form for Js (exponential: Js(X_t) = -1/(4 rate)),
        # only Jw(X_t) goes to the engine, and Js is the public value.
        base = exponential(1.0)
        dist = dataclasses.replace(base, closed_forms={
            **base.closed_forms, "dynamic_survival_extropy": lambda t: -0.25})
        members = []
        real = ms._integrate_members

        def counting(fn, lower, upper, **kwargs):
            members.append(np.size(lower))
            return real(fn, lower, upper, **kwargs)

        monkeypatch.setattr(ms, "_integrate_members", counting)
        rep = residual_bound_check(dist, 0.5)
        monkeypatch.undo()
        assert members == [1]
        assert rep.lhs == weighted_residual_extropy(dist, 0.5, force_quadrature=True).value
        assert rep.rhs == 0.5 * float(dist.hazard(np.asarray(0.5))) ** 2 * -0.25

    @pytest.mark.parametrize("field", ["pdf", "sf"])
    def test_residual_bound_raises_what_the_serial_pair_raises(self, field):
        # A NaN deep in the tail (past the hazard check's grid) fails Jw
        # (pdf) or Js (sf) alone; the batch raises that measure's error.
        base = exponential(1.0)
        real = getattr(base, field)
        dist = dataclasses.replace(base, **{
            field: lambda x: np.where(np.asarray(x) > 20.0, math.nan, real(x))})
        with pytest.raises(EvaluationError) as serial:
            weighted_residual_extropy(dist, 0.5, force_quadrature=True)
            dynamic_survival_extropy(dist, 0.5)
        with pytest.raises(EvaluationError) as batched:
            residual_bound_check(dist, 0.5)
        assert str(batched.value) == str(serial.value)


class TestDecomposition:
    """Jw(X) = F(t)^2 Jw(tX) + sf(t)^2 Jw(X_t)."""

    def test_uniform_hand_values(self):
        rep = decomposition_check(uniform(0, 1), 0.5)
        assert rep.verdict == "holds"
        assert rep.lhs == pytest.approx(-0.25, abs=1e-10)
        assert rep.rhs == pytest.approx(-1.0 / 16.0 - 3.0 / 16.0, abs=1e-9)

    def test_catalog_grid(self, catalog):
        for d in catalog:
            for t in default_t_grid(d, 10):
                rep = decomposition_check(d, float(t))
                assert rep.verdict == "holds", (d.label, t, rep.gap)

    def test_degenerate_t_indeterminate(self):
        rep = decomposition_check(uniform(1, 3), 0.5)
        assert rep.verdict == "indeterminate"


class TestDispatch:
    def test_every_measure_nonpositive_across_catalog(self, catalog):
        for d in catalog:
            t = float(d.quantile(np.asarray(0.5)))
            for mid in ("extropy", "weighted_extropy"):
                assert compute_measure(d, mid).value < 0, (d.label, mid)
            for mid in ("residual_extropy", "past_extropy",
                        "weighted_residual_extropy", "weighted_past_extropy",
                        "dynamic_survival_extropy"):
                assert compute_measure(d, mid, t=t).value < 0, (d.label, mid)

    def test_all_closed_forms_match_quadrature(self, catalog):
        for d in catalog:
            for mid, entry in d.closed_forms.items():
                ts = [None] if not callable(entry) else [0.5, 1.0, 1.5]
                for t in ts:
                    auto = compute_measure(d, mid, t=t)
                    quad = compute_measure(d, mid, t=t, force_quadrature=True)
                    assert auto.method == "closed-form"
                    if auto.diverged:
                        assert quad.diverged, (d.label, mid)
                    else:
                        assert quad.value == pytest.approx(
                            auto.value, rel=1e-8, abs=1e-12), (d.label, mid, t)

    @pytest.mark.parametrize("mid,t", [("weighted_extropy", None), ("past_extropy", 0.5),
                                       ("dynamic_survival_extropy", 0.3)])
    def test_public_quadrature_is_a_one_point_batch(self, monkeypatch, mid, t):
        # One engine call of one member, whose result counts the integrand
        # points it spent.
        members = []
        real = ms._integrate_members

        def counting(fn, lower, upper, **kwargs):
            members.append(np.size(lower))
            return real(fn, lower, upper, **kwargs)

        monkeypatch.setattr(ms, "_integrate_members", counting)
        r = compute_measure(beta_dist(0.7, 0.8), mid, t, force_quadrature=True)
        assert members == [1]
        assert r.method == "quadrature" and r.evaluations > 0

    def test_measure_points_gives_one_outcome_per_point(self, monkeypatch):
        # A point whose integral meets a NaN region (the density is NaN
        # above 2), a point outside the domain and a closed-form point each
        # give their own outcome; every quadrature point runs in one engine
        # call, and every other point is the public measure bit for bit.
        base = exponential(1.0)
        dist = dataclasses.replace(
            base, pdf=lambda x: np.where(np.asarray(x) > 2.0, math.nan, base.pdf(x)))
        points = [("residual_extropy", 1.0), ("past_extropy", 0.5),
                  ("residual_extropy", 100.0), ("weighted_extropy", None),
                  ("weighted_past_extropy", 1.0), ("dynamic_survival_extropy", 0.7),
                  ("weighted_past_extropy", 1.5)]
        members = []
        real = ms._integrate_members

        def counting(fn, lower, upper, **kwargs):
            members.append(np.size(lower))
            return real(fn, lower, upper, **kwargs)

        monkeypatch.setattr(ms, "_integrate_members", counting)
        outcomes = ms.measure_points(dist, points)
        monkeypatch.undo()
        assert members == [5]
        assert type(outcomes[0]) is EvaluationError
        assert type(outcomes[2]) is DomainError
        assert outcomes[3].method == "closed-form"
        for (mid, t), r in zip(points, outcomes):
            if isinstance(r, Exception):
                with pytest.raises(type(r)) as alone:
                    compute_measure(dist, mid, t)
                assert str(alone.value) == str(r)
                continue
            one = compute_measure(dist, mid, t)
            assert (r.value.hex(), r.abs_error.hex(), r.evaluations, r.diverged, r.method) \
                == (one.value.hex(), one.abs_error.hex(), one.evaluations, one.diverged,
                    one.method), (mid, t)

    def test_measure_points_validates_each_point(self):
        outcomes = ms.measure_points(exponential(1.0), [
            ("entropy", 1.0), ("residual_extropy", None), ("extropy", 5.0)])
        assert [type(r) for r in outcomes[:2]] == [ValidationError, ValidationError]
        assert "valid measures" in str(outcomes[0]) and "requires a time" in str(outcomes[1])
        # A whole-support measure ignores t.
        assert outcomes[2] == extropy(exponential(1.0))

    def test_closed_form_spends_no_evaluation(self):
        r = compute_measure(exponential(1.0), "weighted_extropy")
        assert (r.method, r.evaluations) == ("closed-form", 0)

    def test_tol_reaches_the_engine(self):
        d = gamma_dist(2.0, 1.0)
        loose = compute_measure(d, "weighted_residual_extropy", 0.5, force_quadrature=True,
                                tol=1e-4)
        default = compute_measure(d, "weighted_residual_extropy", 0.5, force_quadrature=True)
        assert loose.value != default.value
        assert loose.evaluations < default.evaluations
        assert loose.value == pytest.approx(default.value, abs=1e-4)

    def test_table_is_the_id_registry(self):
        assert tuple(_MEASURES) == MEASURE_IDS
        for mid, (mode, _) in _MEASURES.items():
            assert (mid in T_INDEXED_MEASURES) == (mode is not None), mid

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="valid measures"):
            compute_measure(exponential(1.0), "entropy")

    def test_t_required(self):
        with pytest.raises(ValueError, match="requires a time"):
            compute_measure(exponential(1.0), "residual_extropy")

    def test_default_grid_shape(self):
        d = exponential(1.0)
        g = default_t_grid(d)
        assert len(g) == 20
        assert g[0] == pytest.approx(float(d.quantile(np.asarray(0.01))))
        assert g[-1] == pytest.approx(float(d.quantile(np.asarray(0.99))))
        # geometric spacing: constant ratio
        ratios = g[1:] / g[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.05, 2.0), min_size=2, max_size=6),
       st.floats(0.3, 0.7))
def test_nonpositivity_fuzz(values, q):
    """All finite univariate measures of a random density are <= 0."""
    xs = np.linspace(0.0, len(values) - 1.0, len(values))
    d = tabulated(np.column_stack([xs, values]))
    t = float(d.quantile(np.asarray(q)))
    for mv in (extropy(d), weighted_extropy(d),
               residual_extropy(d, t), past_extropy(d, t),
               weighted_residual_extropy(d, t), weighted_past_extropy(d, t),
               dynamic_survival_extropy(d, t)):
        if not mv.diverged:
            assert mv.value <= 1e-12


def test_concurrent_evaluation_is_deterministic(catalog):
    """Measures are pure; concurrent invocations agree with serial ones."""
    from concurrent.futures import ThreadPoolExecutor

    jobs = [(d, float(d.quantile(np.asarray(q))))
            for d in catalog for q in (0.3, 0.6)]

    def work(job):
        d, t = job
        return (weighted_extropy(d, force_quadrature=True).value,
                weighted_residual_extropy(d, t, force_quadrature=True).value)

    serial = [work(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(work, jobs))
    assert serial == threaded


@settings(max_examples=20, deadline=None)
@given(st.permutations([0.1, 0.2, 0.3, 0.4]))
def test_piecewise_permutations_share_extropy(perm):
    """Permuting cell weights preserves J but generally not Jw."""
    base = piecewise([0.1, 0.2, 0.3, 0.4])
    other = piecewise(perm)
    assert extropy(other).value == pytest.approx(extropy(base).value, rel=1e-12)
    if tuple(perm) != (0.1, 0.2, 0.3, 0.4):
        assert weighted_extropy(other).value != pytest.approx(
            weighted_extropy(base).value, abs=1e-12)


ORACLE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("measure_id", ["residual_extropy", "weighted_residual_extropy"])
def test_beta_upper_edge_ladder_meets_the_oracle(oracle, measure_id):
    """The singular upper edge of beta(4.04927, 0.712109) on (t, 1) once sat
    near the rounding floor of the geometric ladder that resolved it: a
    small change to the Kronrod node formula made it raise 'tolerance
    unreachable' on this grid.  Matches the benchmark oracle (mpmath, 30
    digits), loaded by path."""
    ref = oracle.Beta(4.04927, 0.712109)
    d = beta_dist(4.04927, 0.712109)
    grid = [0.3, 0.33469996328688567, 0.3734135514141421, 0.4166050064971299,
            0.46479226793240724, 0.5185531833766834, 0.5785324381282455,
            0.6454492860059875, 0.720106174432502, 0.8033983671507272,
            0.8963246799669743, 0.9999994582602529]
    for t in grid:
        want = float(oracle.measure(ref, measure_id, t))
        got = compute_measure(d, measure_id, t, force_quadrature=True).value
        # the benchmark's rule: 1e-8, absolute or relative, whichever is larger
        assert got == pytest.approx(want, abs=oracle.MEASURE_TOL * max(1.0, abs(want))), t
