import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import extropy
from extropy import MEASURE_IDS
from extropy.distributions import (
    ValidationError,
    _quantile_by_bisection,
    beta2,
    beta3,
    beta_dist,
    closed_form,
    exponential,
    gamma_dist,
    log_gamma,
    make_distribution,
    pareto,
    piecewise,
    tabulated,
    uniform,
)
from extropy.bivariate import bivariate_beta
from extropy.quadrature import Integrand, integrate


def _interior_grid(dist, n=15):
    return dist.quantile(np.linspace(0.05, 0.95, n))


class TestSpecialFunctions:
    def test_beta2_against_log_gamma(self):
        for a, b in [(2.0, 0.5), (1.5, 0.75), (3.0, 3.0)]:
            want = math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))
            assert beta2(a, b) == pytest.approx(want, rel=1e-12)

    def test_beta3_against_log_gamma(self):
        for a, b, c in [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (0.75, 1.5, 2.25)]:
            want = math.exp(log_gamma(a) + log_gamma(b) + log_gamma(c)
                            - log_gamma(a + b + c))
            assert beta3(a, b, c) == pytest.approx(want, rel=1e-12)

    def test_known_values(self):
        assert beta2(2.0, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert beta3(2.0, 2.0, 2.0) == pytest.approx(1.0 / 120.0, rel=1e-12)


class TestCatalogInvariants:
    def test_unit_mass(self, catalog):
        for d in catalog:
            lo, hi = d.support
            p_lo, p_hi = d.pdf_edge_exponents
            sing_lo = p_lo is not None and p_lo < 0
            sing_hi = not math.isinf(hi) and p_hi is not None and p_hi < 0
            g = Integrand(d.pdf, lo, hi, singular_lower=sing_lo,
                          singular_upper=sing_hi,
                          exponent_lower=p_lo if sing_lo else None,
                          exponent_upper=p_hi if sing_hi else None)
            r = integrate(g, tol=1e-10)
            assert r.value == pytest.approx(1.0, abs=1e-8), d.label

    def test_cdf_sf_complementarity(self, catalog):
        for d in catalog:
            x = _interior_grid(d)
            np.testing.assert_allclose(d.cdf(x) + d.sf(x), 1.0, atol=1e-12)

    def test_hazard_identities(self, catalog):
        for d in catalog:
            x = _interior_grid(d)
            np.testing.assert_allclose(d.hazard(x), d.pdf(x) / d.sf(x), rtol=1e-12)
            np.testing.assert_allclose(d.reversed_hazard(x), d.pdf(x) / d.cdf(x),
                                       rtol=1e-12)

    def test_cdf_nondecreasing(self, catalog):
        for d in catalog:
            x = np.sort(_interior_grid(d, 50))
            assert np.all(np.diff(d.cdf(x)) >= -1e-15), d.label

    def test_quantile_roundtrip(self, catalog):
        for d in catalog:
            x = _interior_grid(d)
            np.testing.assert_allclose(d.quantile(d.cdf(x)), x, atol=1e-8)

    def test_sampler_ks_distance(self, catalog):
        # KS critical value at significance 0.001 with n = 1e5 is ~0.0062,
        # comfortably below the 0.01 budget.
        n = 10**5
        for d in catalog:
            s = np.sort(d.sample(np.random.default_rng(1234), n))
            f = d.cdf(s)
            hi = np.arange(1, n + 1) / n
            lo = np.arange(0, n) / n
            ks = max(float(np.max(np.abs(hi - f))), float(np.max(np.abs(f - lo))))
            assert ks < 0.01, (d.label, ks)

    def test_sampler_determinism(self, catalog):
        for d in catalog:
            a = d.sample(np.random.default_rng(7), 1000)
            b = d.sample(np.random.default_rng(7), 1000)
            assert np.array_equal(a, b)

    def test_survival_equals_integrated_hazard(self):
        # sf(t) = exp(-int_0^t r) for members supported from 0 with a
        # continuous hazard.
        members = [exponential(1.0), uniform(0.0, 2.0), gamma_dist(2.0, 1.0),
                   beta_dist(2.0, 2.0)]
        for d in members:
            ts = d.quantile(np.linspace(0.01, 0.99, 20))
            for t in ts:
                r = integrate(Integrand(d.hazard, d.support[0], float(t)), tol=1e-10)
                assert math.exp(-r.value) == pytest.approx(
                    float(d.sf(np.asarray(t))), abs=1e-7), d.label


class TestFamilies:
    def test_exponential_constant_hazard(self):
        d = exponential(1.0)
        np.testing.assert_allclose(d.hazard(np.array([0.1, 1.0, 5.0])), 1.0,
                                   rtol=1e-12)

    def test_uniform_density(self):
        d = uniform(1.0, 3.0)
        assert d.support == (1.0, 3.0)
        assert float(d.pdf(np.asarray(2.0))) == pytest.approx(0.5)

    def test_piecewise_cells(self):
        d = piecewise([0.3, 0.7])
        assert float(d.pdf(np.asarray(0.5))) == 0.3
        assert float(d.pdf(np.asarray(1.5))) == 0.7
        assert float(d.cdf(np.asarray(1.0))) == pytest.approx(0.3)

    def test_pareto_hazard_shape_over_t(self):
        d = pareto(2.0, 1.0)
        ts = np.array([1.5, 2.0, 4.0])
        np.testing.assert_allclose(d.hazard(ts), 2.0 / ts, rtol=1e-12)

    def test_tabulated_renormalizes(self):
        # Same shape, doubled values: the renormalized density must match.
        a = tabulated([[0, 1.0], [1, 2.0], [2, 1.0]])
        b = tabulated([[0, 2.0], [1, 4.0], [2, 2.0]])
        x = np.linspace(0.1, 1.9, 7)
        np.testing.assert_allclose(a.pdf(x), b.pdf(x), rtol=1e-12)

    def test_gamma_uses_scale_parameterization(self):
        d = gamma_dist(2.0, 3.0)
        # mode of a gamma with shape 2 and scale 3 is (2-1)*3 = 3
        xs = np.linspace(0.5, 8.0, 200)
        assert xs[np.argmax(d.pdf(xs))] == pytest.approx(3.0, abs=0.1)

    @pytest.mark.parametrize("dist, power, weighted, want", [
        (beta_dist(0.7, 0.8), 2, True, (2 * -0.3 + 1, 2 * -0.2)),
        (beta_dist(0.7, 0.8), 1, False, (-0.3, -0.2)),
        # the weight adds nothing at a finite edge away from 0
        (beta_dist(4.0, 0.68), 2, True, (2 * 3.0 + 1, 2 * -0.32)),
        (pareto(2.0, 1.0), 2, True, (0.0, -5.0)),
        (pareto(2.0, 1.0), 2, False, (0.0, -6.0)),
        (gamma_dist(0.5, 1.0), 2, True, (0.0, None)),
        (uniform(1.0, 3.0), 2, True, (0.0, 0.0)),
    ])
    def test_edge_exponents(self, dist, power, weighted, want):
        assert dist.edge_exponents(power, weighted) == pytest.approx(want)


class TestClosedForms:
    def test_exponential_weighted(self):
        assert closed_form(exponential(5.0), "weighted_extropy") == -0.125

    def test_gamma_weighted(self):
        # -Gamma(4) / (2**5 Gamma(2)**2) = -6/32
        assert closed_form(gamma_dist(2.0, 3.0), "weighted_extropy") == \
            pytest.approx(-0.1875, rel=1e-12)

    def test_beta_divergent_on_closed_interval(self):
        assert closed_form(beta_dist(1.0, 0.4), "weighted_extropy") == -math.inf
        assert closed_form(beta_dist(1.0, 0.5), "weighted_extropy") == -math.inf
        assert math.isfinite(closed_form(beta_dist(1.0, 0.51), "weighted_extropy"))

    def test_time_indexed_closed_form(self):
        assert closed_form(exponential(1.0), "weighted_residual_extropy", t=1.0) == \
            pytest.approx(-0.375, rel=1e-14)
        assert closed_form(exponential(1.0), "weighted_residual_extropy") is None

    def test_absent_closed_form(self):
        assert closed_form(pareto(2.0, 1.0), "weighted_extropy") is None


# Each builder with one parameter a multiple of v (valid at v = 1), for every
# parameter.
_ONE_PARAM = {
    "exponential-rate": lambda v: exponential(v),
    "uniform-a": lambda v: uniform(v, 2.0),
    "uniform-b": lambda v: uniform(0.5, v),
    "gamma-alpha": lambda v: gamma_dist(v, 1.0),
    "gamma-beta": lambda v: gamma_dist(2.0, v),
    "beta-alpha": lambda v: beta_dist(v, 1.5),
    "beta-beta": lambda v: beta_dist(2.0, v),
    "pareto-shape": lambda v: pareto(v, 1.0),
    "pareto-scale": lambda v: pareto(2.0, v),
    "piecewise-weight": lambda v: piecewise([0.25, 0.75 * v]),
    "tabulated-x": lambda v: tabulated([[0.0, 0.5], [1.0, 1.5], [2.0 * v, 0.5]]),
    "tabulated-f": lambda v: tabulated([[0.0, 0.5], [1.0, v], [2.0, 0.5]]),
    "bivariate_beta-alpha": lambda v: bivariate_beta(v, 2.0, 1.5),
    "bivariate_beta-beta": lambda v: bivariate_beta(1.0, v, 1.5),
    "bivariate_beta-gamma": lambda v: bivariate_beta(1.0, 2.0, v),
}


class TestSpecDocuments:
    def test_parametric_roundtrip(self):
        d = make_distribution({"family": "uniform", "params": {"a": 1, "b": 3}})
        assert d.support == (1.0, 3.0)

    def test_tabulated_roundtrip(self):
        d = make_distribution({"family": "tabulated", "grid": [[0, 1], [1, 1]]})
        assert float(d.cdf(np.asarray(0.5))) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("spec,fragment", [
        ({"family": "uniform", "params": {"a": 3, "b": 1}}, "a < b"),
        ({"family": "uniform", "params": {"a": -1, "b": 1}}, "non-negative"),
        ({"family": "exponential", "params": {"rate": 0}}, "rate > 0"),
        ({"family": "gamma", "params": {"alpha": -2, "beta": 1}}, "alpha > 0"),
        ({"family": "beta", "params": {"alpha": 1, "beta": 0}}, "beta > 0"),
        ({"family": "piecewise", "params": {"weights": [0.5, 0.6]}}, "sum to 1"),
        ({"family": "piecewise", "params": {"weights": [1.5, -0.5]}}, "non-negative"),
        ({"family": "pareto", "params": {"shape": 0, "scale": 1}}, "shape > 0"),
        ({"family": "nope", "params": {}}, "unknown family"),
        ({"family": "gamma", "params": {"alpha": 2}}, "missing params"),
        ({"family": "gamma", "params": {"alpha": 2, "beta": 1, "c": 3}}, "unknown params"),
        ({"family": "tabulated", "grid": [[0, 1]]}, "at least two"),
        ({"family": "tabulated", "grid": [[1, 1], [0, 1]]}, "strictly increasing"),
    ])
    def test_validation_names_the_constraint(self, spec, fragment):
        with pytest.raises(ValidationError, match=fragment):
            make_distribution(spec)

    @pytest.mark.parametrize("build", _ONE_PARAM.values(), ids=_ONE_PARAM.keys())
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_parameters_are_rejected(self, build, bad):
        # JSON specs admit Infinity and NaN; +inf passes a check "x > 0" and
        # NaN passes "x < 0".
        build(1.0)
        with pytest.raises(ValidationError):
            build(bad)

    def test_measure_ids_frozen(self):
        assert MEASURE_IDS == (
            "extropy", "weighted_extropy", "residual_extropy", "past_extropy",
            "weighted_residual_extropy", "weighted_past_extropy",
            "dynamic_survival_extropy")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
def test_piecewise_any_weights_normalize(ws):
    c = np.asarray(ws) / np.sum(ws)
    d = piecewise(c)
    x = np.linspace(0.0, len(c) - 1e-9, 50)
    assert np.all(d.pdf(x) >= 0.0)
    assert float(d.cdf(np.asarray(float(len(c))))) == pytest.approx(1.0, abs=1e-12)
    q = d.quantile(np.asarray([0.25, 0.5, 0.75]))
    np.testing.assert_allclose(d.cdf(q), [0.25, 0.5, 0.75], atol=1e-9)


class TestScipyBoundary:
    """scipy serves only the gamma and beta cdf, sf and quantile, and is
    imported on the first of those evaluations."""

    def test_start_up_does_not_load_scipy(self):
        script = textwrap.dedent("""
            import contextlib, io, json, sys
            import extropy, extropy.cli
            from extropy.distributions import beta_dist, gamma_dist
            from extropy.measures import weighted_extropy
            with contextlib.redirect_stdout(io.StringIO()):
                code = extropy.cli.main([
                    "measure", "--dist", '{"family":"exponential","params":{"rate":1}}',
                    "--measure", "weighted_extropy,extropy"])
            weighted_extropy(gamma_dist(2.0, 1.0))
            weighted_extropy(beta_dist(2.0, 1.5))
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            gamma_dist(2.0, 1.0).cdf(1.0)
            print(json.dumps({"code": code, "loaded": loaded,
                              "special": "scipy.special" in sys.modules}))
            """)
        src = str(Path(extropy.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"code": 0, "loaded": [], "special": True}

    @pytest.mark.parametrize("al, sc", [(0.3, 1.0), (2.0, 3.0), (17.5, 0.02)])
    def test_gamma_is_scipy_bit_for_bit(self, al, sc):
        d = gamma_dist(al, sc)
        # deep sf tails included: x/sc up to 700, where sf is ~1e-300
        x = np.concatenate([[0.0], np.geomspace(1e-8, 700.0, 60)]) * sc
        assert np.array_equal(d.cdf(x), special.gammainc(al, x / sc))
        assert np.array_equal(d.sf(x), special.gammaincc(al, x / sc))
        hi = sc * (al + 1.0)
        while float(special.gammainc(al, hi / sc)) < 1.0 - 1e-15:
            hi *= 2.0
        p = np.linspace(0.0, 1.0, 41)
        assert np.array_equal(d.quantile(p), _quantile_by_bisection(
            lambda m: special.gammainc(al, np.maximum(m, 0.0) / sc), 0.0, hi, p))

    @pytest.mark.parametrize("al, be", [(0.5, 0.5), (4.04927, 0.712109), (30.0, 2.0)])
    def test_beta_is_scipy_bit_for_bit(self, al, be):
        d = beta_dist(al, be)
        edge = np.geomspace(1e-15, 0.5, 30)
        x = np.concatenate([[0.0], edge, 1.0 - edge[::-1], [1.0]])
        assert np.array_equal(d.cdf(x), special.betainc(al, be, x))
        assert np.array_equal(d.sf(x), special.betainc(be, al, 1.0 - x))
        p = np.linspace(0.0, 1.0, 41)
        assert np.array_equal(d.quantile(p), _quantile_by_bisection(
            lambda m: special.betainc(al, be, np.clip(m, 0.0, 1.0)), 0.0, 1.0, p))

