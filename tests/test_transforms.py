
import math

import numpy as np
import pytest

from extropy.distributions import ValidationError, beta_dist, exponential, uniform
from extropy.measures import DomainError, extropy, weighted_extropy, \
    weighted_residual_extropy
from extropy.transforms import (
    MonotoneTransform,
    TransformDegeneracyError,
    affine_transform,
    exp_transform,
    linear_transform_extropy,
    pit_transform,
    pushforward_distribution,
    scale_transform,
    square_transform,
    transform_from_name,
    transformed_residual_past,
    transformed_weighted_extropy,
)


def decreasing_reciprocal():
    # phi(x) = 1/(1+x), strictly decreasing, maps [0, inf) onto (0, 1].
    return MonotoneTransform(
        lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)),
        lambda y: 1.0 / np.asarray(y, dtype=float) - 1.0,
        lambda x: -1.0 / (1.0 + np.asarray(x, dtype=float)) ** 2,
        "decreasing", label="reciprocal-shift")


class TestProbabilityIntegralTransform:
    """x -> F(x) pushes any member to U(0,1), whose Jw is -1/4."""

    def test_universal_quarter(self, catalog):
        for d in catalog:
            mv = transformed_weighted_extropy(d, pit_transform(d))
            assert mv.value == pytest.approx(-0.25, abs=1e-7), d.label


class TestXDomainEvaluation:
    def test_scaling_preserves_weighted_extropy(self):
        # 2X with X ~ exp(1) is exp(1/2); both have Jw = -1/8.
        mv = transformed_weighted_extropy(exponential(1.0), scale_transform(2.0))
        assert mv.value == pytest.approx(-0.125, abs=1e-9)

    def test_identity(self):
        mv = transformed_weighted_extropy(exponential(1.0), scale_transform(1.0))
        assert mv.value == pytest.approx(-0.125, abs=1e-9)

    def test_square_on_exponential(self):
        # phi/phi' = x/2, so Jw(X^2) = -1/4 int x e^{-2x} = -1/16.
        mv = transformed_weighted_extropy(exponential(1.0), square_transform())
        assert mv.value == pytest.approx(-1.0 / 16.0, abs=1e-9)

    def test_exp_on_exponential(self):
        # e^X with X ~ exp(1) has density y^{-2} on (1, inf); Jw = -1/4.
        mv = transformed_weighted_extropy(exponential(1.0), exp_transform())
        assert mv.value == pytest.approx(-0.25, abs=1e-9)

    def test_decreasing_branch(self):
        # phi/|phi'| = (1+x), so the value is -1/2 int (1+x) e^{-2x} = -3/8.
        mv = transformed_weighted_extropy(exponential(1.0), decreasing_reciprocal())
        assert mv.value == pytest.approx(-0.375, abs=1e-9)


class TestPushforwardConsistency:
    """x-domain evaluation equals the direct measure of the pushforward."""

    @pytest.mark.parametrize("maker", [
        lambda d: scale_transform(2.0),
        lambda d: affine_transform(1.0, 3.0),
        lambda d: square_transform(),
        lambda d: exp_transform(),
        pit_transform,
    ])
    def test_five_transforms_on_exponential(self, maker):
        d = exponential(1.0)
        tr = maker(d)
        xdom = transformed_weighted_extropy(d, tr)
        direct = weighted_extropy(pushforward_distribution(d, tr),
                                  force_quadrature=True)
        assert xdom.value == pytest.approx(direct.value, abs=1e-7)

    def test_decreasing_transform(self):
        d = exponential(1.0)
        tr = decreasing_reciprocal()
        xdom = transformed_weighted_extropy(d, tr)
        direct = weighted_extropy(pushforward_distribution(d, tr),
                                  force_quadrature=True)
        assert xdom.value == pytest.approx(direct.value, abs=1e-7)

    def test_singular_edges_carry_over(self):
        # beta(0.707267, 0.821152) has both edges singular; an affine map
        # keeps those powers.  Without them the engine treated the edges as
        # regular and missed both values by more than 1e-8.  The exact
        # values are the linear rules, checked against mpmath at 30 digits.
        d = beta_dist(0.707267, 0.821152)
        pf = pushforward_distribution(d, affine_transform(1.48523, 0.514325))
        assert pf.pdf_edge_exponents == pytest.approx((-0.292733, -0.178848))
        jw = weighted_extropy(pf, force_quadrature=True)
        j = extropy(pf, force_quadrature=True)
        assert jw.value == pytest.approx(-0.4161029995778951, abs=1e-12)
        assert j.value == pytest.approx(-0.3793474823882415, abs=1e-12)

    @pytest.mark.parametrize("base, tr, want", [
        # phi'(0) = 0: the power changes, so it is not carried
        (beta_dist(0.7, 0.8), square_transform(), (None, -0.2)),
        # a finite edge keeps its power, a tail does not
        (exponential(1.0), exp_transform(), (0.0, None)),
        # a decreasing phi swaps the edges
        (beta_dist(0.7, 0.8), decreasing_reciprocal(), (-0.2, -0.3)),
    ])
    def test_edge_exponents_where_phi_prime_is_regular(self, base, tr, want):
        assert pushforward_distribution(base, tr).pdf_edge_exponents == \
            pytest.approx(want)

    def test_pushforward_support_orientation(self):
        pf = pushforward_distribution(exponential(1.0), decreasing_reciprocal())
        assert pf.support == (0.0, 1.0)
        assert float(pf.cdf(np.asarray(1.0))) == pytest.approx(1.0, abs=1e-12)


class TestLinearRules:
    """J(aX+b) = J(X)/a and Jw(aX+b) = Jw(X) + (b/a) J(X)."""

    def test_identity_transform(self):
        j, jw = linear_transform_extropy(exponential(1.0), 1.0, 0.0)
        assert j.value == pytest.approx(-0.25, abs=1e-10)
        assert jw.value == pytest.approx(-0.125, abs=1e-12)

    def test_translation_invariance_of_extropy(self):
        j, _ = linear_transform_extropy(exponential(1.0), 1.0, 3.0)
        assert j.value == pytest.approx(-0.25, abs=1e-10)

    def test_scale_invariance_of_weighted_extropy(self):
        for a in (0.5, 2.0, 7.0):
            _, jw = linear_transform_extropy(exponential(1.0), a, 0.0)
            assert jw.value == pytest.approx(-0.125, abs=1e-10)

    def test_shifted_uniform(self):
        # U(0, b0) shifted by s is U(s, s+b0) with Jw = -(b0 + 2s)/(4 b0).
        b0, s = 2.0, 3.0
        _, jw = linear_transform_extropy(uniform(0, b0), 1.0, s)
        assert jw.value == pytest.approx(-(b0 + 2 * s) / (4 * b0), abs=1e-12)

    @pytest.mark.parametrize("a,b", [(2.0, 0.0), (1.0, 3.0), (2.0, 3.0)])
    @pytest.mark.parametrize("dist", [exponential(1.0), uniform(0, 2)])
    def test_rules_match_direct_quadrature(self, dist, a, b):
        j, jw = linear_transform_extropy(dist, a, b)
        pf = pushforward_distribution(dist, affine_transform(a, b))
        assert extropy(pf, force_quadrature=True).value == \
            pytest.approx(j.value, abs=1e-7)
        assert weighted_extropy(pf, force_quadrature=True).value == \
            pytest.approx(jw.value, abs=1e-7)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            linear_transform_extropy(exponential(1.0), -1.0, 0.0)
        with pytest.raises(ValidationError):
            linear_transform_extropy(exponential(1.0), 1.0, -2.0)

    @pytest.mark.parametrize("make", [
        lambda: scale_transform(math.inf),
        lambda: scale_transform(math.nan),
        lambda: affine_transform(math.inf, 0.0),
        lambda: affine_transform(1.0, math.inf),
        lambda: affine_transform(1.0, math.nan),
        lambda: linear_transform_extropy(exponential(1.0), math.inf, 0.0),
        lambda: linear_transform_extropy(exponential(1.0), 1.0, math.inf),
        lambda: linear_transform_extropy(exponential(1.0), math.nan, 0.0),
    ], ids=["scale-inf", "scale-nan", "affine-a-inf", "affine-b-inf", "affine-b-nan",
            "linear-a-inf", "linear-b-inf", "linear-a-nan"])
    def test_non_finite_parameters_rejected(self, make):
        # inf passes the a > 0 and b >= 0 checks; it must not reach the engine.
        with pytest.raises(ValidationError, match="requires finite"):
            make()


class TestTransformedResidualPast:
    def test_identity_reproduces_residual_curve(self):
        res, _ = transformed_residual_past(exponential(1.0), scale_transform(1.0), 1.0)
        assert res.value == pytest.approx(-0.375, abs=1e-9)

    def test_scaled_residual_matches_rescaled_rate(self):
        # Y = 2X with X ~ exp(1) is exp(1/2); at t = 2 both give -3/8.
        res, _ = transformed_residual_past(exponential(1.0), scale_transform(2.0), 2.0)
        want = weighted_residual_extropy(exponential(0.5), 2.0,
                                         force_quadrature=True).value
        assert res.value == pytest.approx(want, abs=1e-9)
        assert res.value == pytest.approx(-0.375, abs=1e-9)

    def test_small_t_residual_limit(self):
        res, past = transformed_residual_past(exponential(1.0),
                                              scale_transform(1.0), 1e-7)
        assert res.value == pytest.approx(-0.125, abs=1e-6)

    def test_t_zero_past_rejected(self):
        with pytest.raises(DomainError):
            transformed_residual_past(exponential(1.0), scale_transform(1.0), 0.0)

    def test_vanishing_normaliser_names_callers_t(self):
        with pytest.raises(DomainError, match=r"^at t=1e\+18 \(x-domain 41\.4465"):
            transformed_residual_past(exponential(1.0), exp_transform(), 1e18)

    def test_t_outside_image_rejected(self):
        with pytest.raises(DomainError):
            transformed_residual_past(uniform(0, 1), scale_transform(2.0), 3.0)

    @pytest.mark.parametrize("make,t", [(pit_transform, 2.0),
                                        (lambda d: square_transform(), -1.0),
                                        (lambda d: exp_transform(), 0.0)],
                             ids=["pit", "square", "exp"])
    def test_t_outside_image_warns_nothing(self, make, t):
        # phi_inverse(t) is NaN or -inf here; the suite turns a numpy
        # warning into a failure, so only the DomainError may come out.
        d = exponential(1.0)
        with pytest.raises(DomainError, match="outside the base support"):
            transformed_residual_past(d, make(d), t)


class TestValidation:
    def test_vanishing_derivative_detected(self):
        broken = MonotoneTransform(
            lambda x: np.asarray(x, dtype=float) ** 3,
            lambda y: np.cbrt(np.asarray(y, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            "increasing")
        with pytest.raises(TransformDegeneracyError):
            transformed_weighted_extropy(exponential(1.0), broken)

    def test_direction_mismatch_detected(self):
        wrong = MonotoneTransform(
            lambda x: 2.0 * np.asarray(x, dtype=float),
            lambda y: np.asarray(y, dtype=float) / 2.0,
            lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
            "decreasing")
        with pytest.raises(ValidationError):
            transformed_weighted_extropy(exponential(1.0), wrong)

    def test_negative_image_rejected(self):
        shifted_down = MonotoneTransform(
            lambda x: np.asarray(x, dtype=float) - 10.0,
            lambda y: np.asarray(y, dtype=float) + 10.0,
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
            "increasing")
        with pytest.raises(ValidationError):
            transformed_weighted_extropy(exponential(1.0), shifted_down)


class TestVocabulary:
    def test_parse_all(self):
        d = exponential(1.0)
        assert float(transform_from_name("scale:2", d).phi(np.asarray(3.0))) == 6.0
        assert float(transform_from_name("affine:2,3", d).phi(np.asarray(1.0))) == 5.0
        assert float(transform_from_name("square", d).phi(np.asarray(3.0))) == 9.0
        assert float(transform_from_name("exp", d).phi(np.asarray(0.0))) == 1.0
        assert transform_from_name("pit", d).label == "pit"

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="vocabulary"):
            transform_from_name("cube", exponential(1.0))

    def test_malformed_parameters(self):
        with pytest.raises(ValidationError):
            transform_from_name("affine:2", exponential(1.0))
        with pytest.raises(ValidationError):
            transform_from_name("scale:x", exponential(1.0))
