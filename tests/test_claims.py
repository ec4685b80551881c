import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import extropy

from extropy.claims import (
    CLAIMS,
    CLAIM_IDS,
    ConstancyODEFamily,
    HazardCurve,
    InversionError,
    ResolutionError,
    constancy_explorer,
    invert_weighted_residual,
    lemma1_past_check,
    lemma1_residual_check,
    past_bound_check,
    reconstruct_survival,
    residual_bound_check,
    sum_bound_check,
    validated_derivative_variant,
)
from extropy.distributions import (
    ValidationError,
    beta_dist,
    exponential,
    gamma_dist,
    pareto,
    uniform,
)

# frozen oracle values (independent high-precision quadrature):
# Decreasing curves legitimately trigger the two-positive-roots warning.
pytestmark = pytest.mark.filterwarnings(
    "ignore:.*two positive hazard roots.*:RuntimeWarning")

GAMMA21_T1_WRE = -19.0 / 64.0       # Jw(X_t) of gamma(2,1) at t=1
GAMMA21_T1_RHS = -13.0 / 128.0      # t r(t)^2 Js(X_t) there, r(1) = 1/2
SUM_EXP_UNIFORM_LHS = -0.20984930146430290
ODE_T0_1_R0_1_AT_05 = -0.490263184193819
ODE_T0_1_R0_1_AT_15 = -2.55230738407801


class TestDerivativeGate:
    def test_corrected_variant_wins(self):
        assert validated_derivative_variant() == "corrected"


class TestResidualBound:
    """Jw(X_t) <= t r(t)^2 Js(X_t) when the hazard is non-decreasing."""

    def test_exponential_slack_is_exactly_one_eighth(self):
        for lam, t in [(1.0, 1.0), (2.0, 0.5), (1.0, 3.0), (0.5, 2.0)]:
            rep = residual_bound_check(exponential(lam), t)
            assert rep.verdict == "holds"
            assert rep.lhs == pytest.approx(-lam * t / 4.0 - 0.125, abs=1e-9)
            assert rep.rhs == pytest.approx(-lam * t / 4.0, abs=1e-9)
            assert rep.gap == pytest.approx(0.125, abs=1e-8)

    def test_gamma_increasing_hazard(self):
        rep = residual_bound_check(gamma_dist(2.0, 1.0), 1.0)
        assert rep.verdict == "holds"
        assert rep.lhs == pytest.approx(GAMMA21_T1_WRE, abs=1e-9)
        assert rep.rhs == pytest.approx(GAMMA21_T1_RHS, abs=1e-9)

    def test_decreasing_hazard_is_indeterminate(self):
        rep = residual_bound_check(pareto(2.0, 1.0), 2.0)
        assert rep.verdict == "indeterminate"
        assert "precondition" in rep.notes

    @pytest.mark.parametrize("dist,t", [(beta_dist(0.7, 0.8), 5.0), (exponential(1.0), 50.0)])
    def test_past_the_support_is_indeterminate(self, dist, t):
        # sf(t) is 0 (or below BOUNDARY_EPS): no conditional lifetime, and no
        # hazard grid from t down to the 0.999 quantile.
        rep = residual_bound_check(dist, t)
        assert rep.verdict == "indeterminate"
        assert rep.notes.startswith("sf(t)=") and "precondition" not in rep.notes

    def test_holds_across_catalog_with_monotone_hazard(self):
        for dist in (exponential(1.0), gamma_dist(2.0, 1.0), gamma_dist(3.0, 0.5),
                     uniform(0.0, 2.0)):
            for q in (0.2, 0.5, 0.8):
                t = float(dist.quantile(np.asarray(q)))
                rep = residual_bound_check(dist, t)
                assert rep.verdict == "holds", (dist.label, t)


class TestPastBound:
    def test_both_bounds_reported_with_gap(self):
        # U(0,1) at t=1: q(1) = 1, claimed -1/2, re-derived -1/4.
        rep = past_bound_check(uniform(0, 1), 1.0, T=1.0 + 1e-9)
        assert rep.extras["claimed_bound"] == pytest.approx(-0.5)
        assert rep.extras["rederived_bound"] == pytest.approx(-0.25)
        assert rep.extras["mutual_gap"] == pytest.approx(0.25)
        assert rep.lhs == pytest.approx(-0.25, abs=1e-10)

    def test_coincidence_point(self):
        # At t=2 with q(t)=1 the two bound expressions agree: -1 each.
        rep = past_bound_check(uniform(0, 2), 2.0, T=2.0 + 1e-9)
        q = rep.extras["reversed_hazard_at_t"]
        assert q == pytest.approx(0.5)
        # scale t=2, q=0.5: claimed -t q^2/2 = -0.25, re-derived -t^2 q^2/4 = -0.25
        assert rep.extras["claimed_bound"] == pytest.approx(rep.extras["rederived_bound"])

    def test_catalog_has_no_increasing_reversed_hazard(self, catalog):
        # Every member gets an indeterminate-by-precondition verdict.
        for d in catalog:
            t = float(d.quantile(np.asarray(0.6)))
            T = float(d.quantile(np.asarray(0.9)))
            rep = past_bound_check(d, t, T=max(T, t * (1 + 1e-9)))
            assert rep.verdict == "indeterminate", d.label
            assert "precondition" in rep.notes

    def test_T_must_exceed_t(self):
        with pytest.raises(ValidationError):
            past_bound_check(uniform(0, 1), 0.5, T=0.5)


class TestSumBound:
    """Jw(X+Y) >= -2 (J(X) Jw(Y) + Jw(X) J(Y)): verdicts from the oracle."""

    def test_iid_exponential_violates(self):
        rep = sum_bound_check(exponential(1.0), exponential(1.0))
        assert rep.lhs == pytest.approx(-0.1875, abs=1e-6)
        assert rep.rhs == pytest.approx(-0.125, abs=1e-9)
        assert rep.verdict == "violated"

    def test_iid_uniform_holds(self):
        # The sum has the triangular density on (0,2): Jw = -1/3.
        rep = sum_bound_check(uniform(0, 1), uniform(0, 1))
        assert rep.lhs == pytest.approx(-1.0 / 3.0, abs=1e-6)
        assert rep.rhs == pytest.approx(-0.5, abs=1e-9)
        assert rep.verdict == "holds"

    def test_exponential_plus_uniform(self):
        rep = sum_bound_check(exponential(1.0), uniform(0, 1))
        assert rep.lhs == pytest.approx(SUM_EXP_UNIFORM_LHS, abs=1e-6)
        assert rep.rhs == pytest.approx(-0.25, abs=1e-9)
        assert rep.verdict == "holds"

    def test_divergent_marginal_indeterminate(self):
        from extropy.distributions import beta_dist
        rep = sum_bound_check(beta_dist(1.0, 0.4), exponential(1.0))
        assert rep.verdict == "indeterminate"


class TestLemmaChecks:
    def test_residual_identity_on_exponential(self):
        rep = lemma1_residual_check(exponential(1.0), 1.0)
        assert rep.verdict == "holds"
        assert rep.lhs == pytest.approx(-0.25, abs=1e-6)
        assert rep.extras["claimed_gap"] == pytest.approx(0.5625, abs=1e-6)

    @pytest.mark.parametrize("t", [0.3, 0.4, 0.6, 0.7, 0.8, 0.9])
    def test_residual_identity_near_a_singular_edge(self, t):
        # f**2 of beta(4.04927, 0.712109) goes like (1 - x)**-0.58 at 1;
        # these points once raised 'tolerance unreachable'.
        rep = lemma1_residual_check(beta_dist(4.04927, 0.712109), t)
        assert rep.verdict == "holds"

    def test_past_identity_on_uniform(self):
        rep = lemma1_past_check(uniform(0, 1), 0.5)
        assert rep.verdict == "holds"
        assert rep.extras["claimed_formula"] == pytest.approx(-0.75, abs=1e-9)


class TestInversion:
    def test_exponential_curve_recovers_unit_hazard(self):
        ts = np.linspace(0.5, 5.0, 10)
        hc = invert_weighted_residual([(t, -t / 4 - 0.125, -0.25) for t in ts])
        np.testing.assert_allclose(hc.values, 1.0, atol=1e-6)

    def test_scale_consistency(self):
        for lam in (0.5, 1.0, 3.0):
            ts = np.linspace(0.5 / lam, 5.0 / lam, 9)
            curve = [(t, -lam * t / 4 - 0.125, -lam / 4) for t in ts]
            hc = invert_weighted_residual(curve)
            np.testing.assert_allclose(hc.values, lam, atol=1e-6)

    def test_pareto_curve_recovers_shape_over_t(self):
        ts = np.geomspace(1.1, 5.0, 12)
        hc = invert_weighted_residual([(t, -0.5, 0.0) for t in ts])
        np.testing.assert_allclose(hc.values, 2.0 / hc.times, rtol=1e-9)

    def test_pareto_spec_point(self):
        hc = invert_weighted_residual([(1.5, -0.5, 0.0), (2.0, -0.5, 0.0),
                                       (3.0, -0.5, 0.0)])
        assert hc.values[1] == pytest.approx(1.0, abs=1e-12)

    def test_negative_discriminant_raises(self):
        with pytest.raises(InversionError, match="discriminant"):
            with pytest.warns(RuntimeWarning):
                invert_weighted_residual([(1.0, -0.01, -5.0), (2.0, -0.01, -5.0)])

    def test_derivatives_recomputed_when_missing(self):
        ts = np.linspace(0.5, 5.0, 40)
        hc = invert_weighted_residual([(t, -t / 4 - 0.125) for t in ts])
        np.testing.assert_allclose(hc.values, 1.0, atol=1e-5)

    def test_supplied_derivatives_win_with_warning(self):
        ts = np.linspace(0.5, 2.0, 8)
        rows = [(t, -t / 4 - 0.125, -0.2499) for t in ts]  # slightly off
        with pytest.warns(RuntimeWarning, match="supplied"):
            invert_weighted_residual(rows)


class TestReconstruction:
    def test_exponential_round_trip(self):
        ts = np.linspace(0.5, 5.0, 600)
        hc = invert_weighted_residual([(t, -t / 4 - 0.125, -0.25) for t in ts])
        sf = reconstruct_survival(hc, 0.5, math.exp(-0.5))
        qs = np.linspace(0.5, 5.0, 60)
        assert float(np.max(np.abs(sf(qs) - np.exp(-qs)))) < 1e-4

    def test_pareto_round_trip(self):
        ts = np.geomspace(1.1, 5.0, 300)
        hc = invert_weighted_residual([(t, -0.5, 0.0) for t in ts])
        sf = reconstruct_survival(hc, 1.1, 1.1**-2.0)
        qs = np.geomspace(1.1, 5.0, 50)
        assert float(np.max(np.abs(sf(qs) - qs**-2.0))) < 1e-4

    def test_zero_hazard_keeps_survival_constant(self):
        hc = HazardCurve(tuple((float(t), 0.0) for t in np.linspace(1, 2, 10)))
        sf = reconstruct_survival(hc, 1.0, 0.7)
        assert float(sf(np.asarray(2.0))) == pytest.approx(0.7, abs=1e-15)

    def test_coarse_grid_rejected(self):
        hc = HazardCurve(((1.0, 2.0), (5.0, 0.4)))
        with pytest.raises(ResolutionError):
            reconstruct_survival(hc, 1.0, 1.0, max_spacing=1.0)

    def test_curved_hazard_needs_resolution(self):
        ts = np.linspace(1.0, 5.0, 5)
        hc = HazardCurve(tuple((float(t), 2.0 / t) for t in ts))
        with pytest.raises(ResolutionError):
            reconstruct_survival(hc, 1.0, 1.0)

    def test_hazard_curve_validation(self):
        with pytest.raises(ValidationError):
            HazardCurve(((2.0, 1.0), (1.0, 1.0)))
        with pytest.raises(ValidationError):
            HazardCurve(((1.0, -0.5), (2.0, 1.0)))


class TestConstancy:
    def test_pareto_constant_at_shape_quarter(self):
        rep = constancy_explorer(pareto(2.0, 1.0), [1.5, 2.0, 3.0, 5.0])
        assert rep.spread <= 1e-6
        assert rep.reference == -0.5
        assert rep.max_deviation_from_reference <= 1e-6

    def test_pareto_unit_shape(self):
        rep = constancy_explorer(pareto(1.0, 1.0), [2.0, 4.0, 8.0])
        assert rep.max_deviation_from_reference <= 1e-6
        assert rep.values[0] == pytest.approx(-0.25, abs=1e-7)

    def test_ode_family_window_and_nonconstancy(self):
        fam = ConstancyODEFamily(1.0, 1.0)
        assert fam.C == pytest.approx(2.0)
        assert fam.positivity_limit == pytest.approx(math.exp(2.0 / 3.0))
        rep = constancy_explorer(fam, [0.5, 0.8, 1.2, 1.5])
        assert rep.values[0] == pytest.approx(ODE_T0_1_R0_1_AT_05, abs=1e-7)
        assert rep.values[3] == pytest.approx(ODE_T0_1_R0_1_AT_15, abs=1e-6)
        assert rep.spread > 0.5  # decisively non-constant
        assert "window" in rep.notes or "restricted" in rep.notes

    def test_ode_family_mass_is_unit_on_window(self):
        fam = ConstancyODEFamily(1.0, 1.0)
        dist = fam.induced_distribution(0.2)
        from extropy.quadrature import Integrand, integrate
        lo, hi = dist.support
        r = integrate(Integrand(dist.pdf, lo, hi, singular_upper=True,
                                exponent_upper=-1.0 / 3.0), tol=1e-9)
        assert r.value == pytest.approx(1.0, abs=1e-7)

    def test_grid_outside_window_rejected(self):
        with pytest.raises(ValidationError, match="positivity"):
            constancy_explorer(ConstancyODEFamily(1.0, 1.0), [1.5, 2.5])

    def test_non_pareto_member_rejected(self):
        with pytest.raises(ValidationError):
            constancy_explorer(exponential(1.0), [1.0, 2.0])


def test_claim_id_registry():
    assert CLAIM_IDS == ("decomposition", "residual_bound", "past_bound",
                         "sum_bound", "independence_factorization",
                         "lemma1_residual", "lemma1_past", "constancy")
    assert tuple(CLAIMS) == CLAIM_IDS


def test_claim_suite_script_runs(tmp_path):
    # scripts/run_claim_suite.py at two points per member, in a fresh process.
    root = Path(__file__).resolve().parents[1]
    src = str(Path(extropy.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "claims.json"
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_claim_suite.py"), "--points", "2",
         "--out", str(out)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    rows = doc["rows"]
    assert sum(doc["summary"].values()) == len(rows)
    assert {r["verdict"] for r in rows} <= {"holds", "violated", "indeterminate"}
    # The README's pinned violation: Jw(X+Y) = -3/16 against the bound -1/8
    # for i.i.d. exponential(1).
    (row,) = [r for r in rows if r["claim"] == "sum_bound"
              and r["dist"] == "exponential(rate=1)+exponential(rate=1)"]
    assert row["verdict"] == "violated"
    assert row["lhs"] == pytest.approx(-0.1875, abs=1e-9)
    assert row["rhs"] == pytest.approx(-0.125, abs=1e-12)
