import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import catalog_members
from extropy.bivariate import (
    TOL_2D,
    bivariate_beta,
    bivariate_extropy,
    bivariate_mass,
    bivariate_weighted_extropy,
    independence_factorization_check,
    iterated_integral,
    make_bivariate,
    product_distribution,
    rectangle_distribution,
)
from extropy.measures import extropy, weighted_extropy
from extropy.distributions import (
    ValidationError,
    beta_dist,
    exponential,
    gamma_dist,
    pareto,
    uniform,
)

BB_CASES = [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (0.75, 0.75, 0.75),
            (0.75, 1.0, 2.0), (2.0, 0.75, 1.0), (1.0, 2.0, 0.75), (0.6, 0.6, 0.6)]


class TestBivariateBeta:
    def test_uniform_special_case(self):
        bd = bivariate_beta(1, 1, 1)
        assert bivariate_extropy(bd).value == pytest.approx(0.5, rel=1e-12)
        assert bivariate_weighted_extropy(bd).value == pytest.approx(0.125, rel=1e-12)

    def test_all_twos(self):
        bd = bivariate_beta(2, 2, 2)
        # B(3,3,3)/(4 B(2,2,2)^2) = 5/7 and the weighted value is 1/6.
        assert bivariate_extropy(bd).value == pytest.approx(5.0 / 7.0, rel=1e-12)
        assert bivariate_weighted_extropy(bd).value == pytest.approx(1.0 / 6.0,
                                                                     rel=1e-12)

    @pytest.mark.parametrize("abc", BB_CASES)
    def test_closed_form_matches_2d_quadrature(self, abc):
        bd = bivariate_beta(*abc)
        for fn in (bivariate_extropy, bivariate_weighted_extropy):
            cf = fn(bd)
            qd = fn(bd, force_quadrature=True)
            if cf.diverged:
                assert qd.diverged
            else:
                assert qd.value == pytest.approx(cf.value, abs=1e-6), abc

    def test_weighted_quadrature_within_its_error_near_singular_edges(self):
        # Every edge exponent of f**2 is -0.8; this once raised
        # 'tolerance unreachable'.
        bd = bivariate_beta(0.6, 0.6, 0.6)
        r = bivariate_weighted_extropy(bd, force_quadrature=True)
        assert abs(r.value - bd.closed_forms["bivariate_weighted_extropy"]) <= r.abs_error

    @pytest.mark.parametrize("abc", BB_CASES)
    def test_unit_mass(self, abc):
        assert bivariate_mass(bivariate_beta(*abc)) == pytest.approx(1.0, abs=1e-7)

    def test_divergence_proviso(self):
        r = bivariate_extropy(bivariate_beta(0.4, 1.0, 1.0))
        assert r.diverged and r.value == math.inf
        r = bivariate_weighted_extropy(bivariate_beta(1.0, 0.5, 1.0))
        assert r.diverged
        # alpha at or below 1/2 only breaks the plain version, not the
        # weighted one (the extra x factor rescues the x-edge).
        r = bivariate_weighted_extropy(bivariate_beta(0.4, 1.0, 1.0))
        assert not r.diverged

    def test_sampler_stays_in_region(self):
        bd = bivariate_beta(1, 1, 1)
        xs, ys = bd.sampler(np.random.default_rng(3), 2000)
        assert np.all((0 < xs) & (xs < ys) & (ys < 1))

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            bivariate_beta(0.0, 1.0, 1.0)


class TestProductForm:
    def test_iid_exponential(self):
        bd = product_distribution(exponential(1.0), exponential(1.0))
        assert bivariate_extropy(bd).value == pytest.approx(0.0625, abs=1e-7)

    def test_exponential_times_uniform(self):
        bd = product_distribution(exponential(1.0), uniform(0, 1))
        assert bivariate_weighted_extropy(bd).value == pytest.approx(
            (-0.125) * (-0.25), abs=1e-7)

    def test_iid_uniform_two(self):
        bd = product_distribution(uniform(0, 2), uniform(0, 2))
        assert bivariate_extropy(bd).value == pytest.approx(1.0 / 16.0, abs=1e-8)
        assert bivariate_weighted_extropy(bd).value == pytest.approx(1.0 / 16.0,
                                                                     abs=1e-8)

    def test_unit_mass(self):
        bd = product_distribution(gamma_dist(2, 1), uniform(0, 1))
        assert bivariate_mass(bd) == pytest.approx(1.0, abs=1e-7)

    def test_sign_nonnegative(self):
        for bd in (product_distribution(exponential(2.0), gamma_dist(2, 1)),
                   bivariate_beta(2, 1.5, 1.0)):
            assert bivariate_extropy(bd, force_quadrature=True).value >= 0.0
            assert bivariate_weighted_extropy(bd, force_quadrature=True).value >= 0.0


class TestIndependenceFactorization:
    @pytest.mark.parametrize("x,y", [
        (exponential(1.0), uniform(0, 1)),
        (gamma_dist(2.0, 1.0), exponential(2.0)),
        (uniform(0, 2), uniform(0, 2)),
        # singular finite upper edge of the beta, weighted and unweighted
        (pareto(1, 1), beta_dist(4, 0.68)),
        (beta_dist(4, 0.68), pareto(1, 1)),
    ])
    def test_catalog_pairs(self, x, y):
        rep = independence_factorization_check(x, y)
        assert rep.verdict == "holds"
        assert abs(rep.gap) <= 1e-6
        assert abs(rep.extras["weighted_gap"]) <= 1e-6

    def test_report_carries_both_identities(self):
        rep = independence_factorization_check(uniform(0, 2), uniform(0, 2))
        assert rep.lhs == pytest.approx(1.0 / 16.0, abs=1e-6)
        assert rep.extras["weighted_lhs"] == pytest.approx(1.0 / 16.0, abs=1e-6)


class TestRectangleRegion:
    def test_custom_density(self):
        # f(x, y) = x + y on the unit square integrates to 1.
        bd = rectangle_distribution(lambda x, y: x + y, (0, 1), (0, 1))
        assert bivariate_mass(bd) == pytest.approx(1.0, abs=1e-7)
        # int int (x+y)^2 = 7/6, so J = 7/24.
        assert bivariate_extropy(bd).value == pytest.approx(7.0 / 24.0, abs=1e-7)


class TestSpecDocuments:
    def test_bivariate_beta_spec(self):
        bd = make_bivariate({"family": "bivariate_beta",
                             "params": {"alpha": 1, "beta": 1, "gamma": 1}})
        assert bivariate_extropy(bd).value == pytest.approx(0.5)

    def test_product_spec(self):
        bd = make_bivariate({
            "family": "product",
            "x": {"family": "exponential", "params": {"rate": 1}},
            "y": {"family": "uniform", "params": {"a": 0, "b": 1}}})
        assert bivariate_weighted_extropy(bd).value == pytest.approx(0.03125,
                                                                     abs=1e-7)

    @pytest.mark.parametrize("spec,fragment", [
        ({"family": "spam"}, "unknown bivariate family"),
        ({"family": "bivariate_beta", "params": {"alpha": 1}}, "missing params"),
        ({"family": "product", "x": {"family": "exponential",
                                     "params": {"rate": 1}}}, "requires 'x' and 'y'"),
    ])
    def test_validation(self, spec, fragment):
        with pytest.raises(ValidationError, match=fragment):
            make_bivariate(spec)


class TestIteratedIntegral:
    def test_combine_and_empty_inner_ranges(self):
        # I(y) = int_0^y dx = y on (0, 1) and empty on (-1, 0]:
        # int y I(y)^2 dy = 1/4.
        r = iterated_integral(lambda x, y: np.ones_like(x), lambda y: (0.0, y), -1.0, 1.0,
                              combine=lambda y, v: y * v**2)
        assert r.value == pytest.approx(0.25, abs=1e-9)
        assert not r.diverged

    def test_evaluations_count_inner_work(self):
        # The outer integrand y I(y)^2 is 0 on (-1, 0] and y^3 on (0, 1):
        # four 15-point panels, exact, so 60 outer points.  The 30 outer
        # nodes in (0, 1) each integrate 1 over (0, y) on four exact panels
        # (60 points); the 30 nodes in (-1, 0) have empty inner ranges.
        r = iterated_integral(lambda x, y: np.ones_like(x), lambda y: (0.0, y), -1.0, 1.0,
                              combine=lambda y, v: y * v**2)
        assert r.evaluations == 60 + 30 * 60


CATALOG = catalog_members()


@settings(max_examples=10, deadline=None)
@given(shapes=st.tuples(*[st.floats(0.76, 3.0)] * 3), weighted=st.booleans())
def test_bivariate_beta_quadrature_meets_closed_form(shapes, weighted):
    bd = bivariate_beta(*shapes)
    if weighted:
        value = bivariate_weighted_extropy(bd, force_quadrature=True).value
        exact = bd.closed_forms["bivariate_weighted_extropy"]
    else:
        value = bivariate_extropy(bd, force_quadrature=True).value
        exact = bd.closed_forms["bivariate_extropy"]
    assert abs(value - exact) <= TOL_2D


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("j", range(len(CATALOG)))
@pytest.mark.parametrize("i", range(len(CATALOG)))
def test_product_quadrature_factorizes(i, j, weighted):
    x, y = CATALOG[i], CATALOG[j]
    bd = product_distribution(x, y)
    if weighted:
        value = bivariate_weighted_extropy(bd, force_quadrature=True).value
        exact = weighted_extropy(x).value * weighted_extropy(y).value
    else:
        value = bivariate_extropy(bd, force_quadrature=True).value
        exact = extropy(x).value * extropy(y).value
    assert abs(value - exact) <= TOL_2D
