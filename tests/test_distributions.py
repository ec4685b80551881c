import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extropy
from extropy import MEASURE_IDS
from extropy.distributions import (
    ValidationError,
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


EPS = np.finfo(float).eps


def _mp_gamma_tails(a, x):
    """P(a, x) and Q(a, x) at 40 digits."""
    with mpmath.workdps(40):
        return (float(mpmath.gammainc(a, 0, x, regularized=True)),
                float(mpmath.gammainc(a, x, mpmath.inf, regularized=True)))


def _mp_beta_tails(a, b, x):
    """I_x(a, b) and I_{1-x}(b, a) at 40 digits, 1 - x taken exactly."""
    with mpmath.workdps(40):
        return (float(mpmath.betainc(a, b, 0, x, regularized=True)),
                float(mpmath.betainc(b, a, 0, 1 - mpmath.mpf(x), regularized=True)))


def _assert_relative(got, want, rtol=1e-14):
    """Relative agreement wherever the reference is at least 1e-300."""
    got, want = np.asarray(got), np.asarray(want)
    normal = want >= 1e-300
    np.testing.assert_allclose(got[normal], want[normal], rtol=rtol, atol=0.0)
    assert np.all(got[~normal] <= 1e-290)


def _assert_quantile(d, p):
    """|cdf(q) - p| <= 4 eps max(p, q pdf(q)), plus the cdf's own error
    (1e-14 of the tail solved), or within the cdf's step between q and a
    neighbouring float where that is coarser."""
    q = d.quantile(p)
    c = d.cdf(q)
    grain = np.maximum(abs(d.cdf(np.nextafter(q, np.inf)) - c),
                       abs(d.cdf(np.nextafter(q, -np.inf)) - c))
    tol = 4 * EPS * np.maximum(p, q * d.pdf(q)) + 1e-14 * np.minimum(p, 1.0 - p)
    assert np.all(abs(c - p) <= np.maximum(tol, grain)), (d.label, p, q)


class TestScipyBoundary:
    """No library or CLI path loads scipy: the gamma and beta cdf, sf and
    quantile come from extropy.incomplete, checked against mpmath at 40
    digits."""

    def test_start_up_does_not_load_scipy(self):
        script = textwrap.dedent("""
            import contextlib, io, json, sys
            sys.modules["scipy"] = None  # any import of scipy raises
            import numpy as np
            import extropy.cli
            from extropy.distributions import make_distribution
            specs = [
                {"family": "exponential", "params": {"rate": 1}},
                {"family": "uniform", "params": {"a": 0.5, "b": 3}},
                {"family": "gamma", "params": {"alpha": 2, "beta": 1}},
                {"family": "beta", "params": {"alpha": 0.7, "beta": 0.8}},
                {"family": "piecewise", "params": {"weights": [0.3, 0.7]}},
                {"family": "pareto", "params": {"shape": 2, "scale": 1}},
                {"family": "tabulated", "grid": [[0, 0.5], [1, 1.5], [2, 0.5]]},
            ]
            for spec in specs:
                d = make_distribution(spec)
                q = d.quantile(np.array([0.1, 0.5, 0.9]))
                d.cdf(q), d.sf(q), d.sample(np.random.default_rng(0), 100)
            gamma = json.dumps(specs[2])
            argvs = [
                ["measure", "--dist", gamma, "--measure", "residual_extropy", "--t", "1"],
                ["curve", "--dist", gamma, "--measure", "past_extropy", "--grid", "0.5:2:3"],
                ["bivariate", "--dist",
                 '{"family":"bivariate_beta","params":{"alpha":1,"beta":1,"gamma":1}}'],
                ["transform", "--dist", gamma, "--transform", "pit", "--t", "0.5"],
                ["claims", "--dist", gamma, "--claims", "residual_bound", "--grid", "0.5:2:2"],
                ["mc", "--dist", gamma, "--n", "1000", "--seed", "0"],
            ]
            codes = []
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(extropy.cli.main(argv))
            loaded = sorted(m for m in sys.modules
                            if m.split(".")[0] == "scipy" and sys.modules[m] is not None)
            print(json.dumps({"codes": codes, "loaded": loaded}))
            """)
        src = str(Path(extropy.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"codes": [0] * 6, "loaded": []}

    @pytest.mark.parametrize("al, sc", [(0.3, 1.0), (2.0, 3.0), (17.5, 0.02)])
    def test_gamma_matches_mpmath(self, al, sc):
        d = gamma_dist(al, sc)
        # deep sf tails included: x/sc up to 700, where sf is ~1e-300
        x = np.concatenate([[0.0], np.geomspace(1e-8, 700.0, 60)]) * sc
        want = np.array([_mp_gamma_tails(al, v) for v in x / sc])
        _assert_relative(d.cdf(x), want[:, 0])
        _assert_relative(d.sf(x), want[:, 1])
        p = np.linspace(0.0, 1.0, 41)
        q = d.quantile(p)
        assert q[0] == 0.0 and q[-1] == math.inf
        _assert_quantile(d, p[1:-1])

    @pytest.mark.parametrize("al, be", [(0.5, 0.5), (4.04927, 0.712109), (30.0, 2.0)])
    def test_beta_matches_mpmath(self, al, be):
        d = beta_dist(al, be)
        edge = np.geomspace(1e-15, 0.5, 30)
        x = np.concatenate([[0.0], edge, 1.0 - edge[::-1], [1.0]])
        want = np.array([_mp_beta_tails(al, be, v) for v in x])
        _assert_relative(d.cdf(x), want[:, 0])
        _assert_relative(d.sf(x), want[:, 1])
        p = np.linspace(0.0, 1.0, 41)
        q = d.quantile(p)
        assert q[0] == 0.0 and q[-1] == 1.0
        _assert_quantile(d, p[1:-1])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(math.log(0.05), math.log(50.0)), st.floats(-12.0, 3.0))
    def test_gamma_tails_any_shape(self, log_a, log10_x):
        a, x = math.exp(log_a), 10.0 ** log10_x * math.exp(log_a)
        d = gamma_dist(a, 1.0)
        want = _mp_gamma_tails(a, x)
        _assert_relative([d.cdf(x), d.sf(x)], want)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(math.log(0.05), math.log(50.0)), st.floats(math.log(0.05), math.log(50.0)),
           st.floats(-12.0, 12.0))
    def test_beta_tails_any_shape(self, log_a, log_b, logit):
        a, b = math.exp(log_a), math.exp(log_b)
        x = 1.0 / (1.0 + 10.0 ** -logit)
        d = beta_dist(a, b)
        want = _mp_beta_tails(a, b, x)
        _assert_relative([d.cdf(x), d.sf(x)], want)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(math.log(0.05), math.log(50.0)), st.floats(math.log(0.05), math.log(50.0)),
           st.floats(-15.0, 15.0))
    def test_quantiles_any_shape(self, log_a, log_b, logit):
        p = np.array([1.0 / (1.0 + 10.0 ** -logit)])
        _assert_quantile(gamma_dist(math.exp(log_a), 1.0), p)
        _assert_quantile(beta_dist(math.exp(log_a), math.exp(log_b)), p)

    def test_quantile_below_the_least_float(self):
        # P(0.3, x) = 1e-300 at x ~ 1e-1000: the quantile rounds to the least
        # positive float, in a bounded number of steps.
        for d in (gamma_dist(0.3, 2.0), beta_dist(0.05, 50.0)):
            assert d.quantile(np.array([1e-300, 1e-250])).tolist() == [5e-324, 5e-324]

    def test_small_and_large_calls_agree_bit_for_bit(self):
        from extropy.incomplete import _SMALL, beta_tails, gamma_tails
        rng = np.random.default_rng(3)
        for a in (0.06, 0.7, 4.5, 45.0):
            x = np.concatenate([rng.uniform(0.0, 2 * a + 4, 160), np.geomspace(1e-9, 800.0, 40)])
            assert x.size > _SMALL
            whole = gamma_tails(a, x)
            one = [gamma_tails(a, v) for v in x]
            for k in (0, 1):
                assert np.array_equal(whole[k], [o[k] for o in one])
            for b in (0.06, 1.3, 40.0):
                xb = np.concatenate([rng.uniform(0.0, 1.0, 160), np.geomspace(1e-12, 0.5, 20),
                                     1.0 - np.geomspace(1e-12, 0.5, 20)])
                assert xb.size > _SMALL
                whole = beta_tails(a, b, xb)
                one = [beta_tails(a, b, v) for v in xb]
                for k in (0, 1):
                    assert np.array_equal(whole[k], [o[k] for o in one])


class TestClosedFormQuantiles:
    def test_tabulated_quantile_inverts_cdf(self):
        d = tabulated([[0, 0.0], [1, 2.0], [1.5, 2.0], [3, 0.5], [4, 0.0]])
        p = np.linspace(0.0, 1.0, 1001)
        np.testing.assert_allclose(d.cdf(d.quantile(p)), p, rtol=0, atol=1e-15)

    def test_tabulated_knot_quantile_is_exact(self):
        knots = [0.5, 1.0, 1.5, 3.0, 4.0]
        d = tabulated([[k, f] for k, f in zip(knots, [0.0, 2.0, 2.0, 0.5, 1.0])])
        assert d.quantile(d.cdf(np.array(knots))).tolist() == knots
        # a zero-density first cell: quantile(0) is still the support edge
        d = tabulated([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
        assert d.quantile(np.array([0.0, 1.0])).tolist() == [0.0, 2.0]


class TestLargeShapes:
    """Closed forms that divide by a squared complete beta function, which
    underflows here, are formed from log-beta differences; past Gamma's
    overflow at 171 the incomplete functions keep their accuracy."""

    @pytest.mark.parametrize("al, be", [(300.0, 300.0), (0.5, 400.0), (250.0, 3.0)])
    def test_beta_tails(self, al, be):
        d = beta_dist(al, be)
        x = d.quantile(np.array([1e-12, 1e-3, 0.2, 0.5, 0.8, 0.999, 1.0 - 1e-12]))
        want = np.array([_mp_beta_tails(al, be, v) for v in x])
        _assert_relative(d.cdf(x), want[:, 0], rtol=1e-13)
        _assert_relative(d.sf(x), want[:, 1], rtol=1e-13)

    @pytest.mark.parametrize("al", [300.0, 2500.0])
    def test_gamma_tails(self, al):
        d = gamma_dist(al, 1.0)
        x = al + math.sqrt(al) * np.array([-6.0, -2.0, -0.5, 0.0, 0.5, 2.0, 6.0])
        want = np.array([_mp_gamma_tails(al, v) for v in x])
        _assert_relative(d.cdf(x), want[:, 0], rtol=1e-13)
        _assert_relative(d.sf(x), want[:, 1], rtol=1e-13)

    def test_beta_weighted_extropy(self):
        d = beta_dist(300.0, 300.0)
        with mpmath.workdps(40):
            want = -mpmath.beta(600, 599) / (2 * mpmath.beta(300, 300) ** 2)
        assert closed_form(d, "weighted_extropy") == pytest.approx(float(want), rel=1e-11)

    def test_bivariate_beta(self):
        a = b = c = 150.0
        bd = bivariate_beta(a, b, c)

        def b3(*s):
            return mpmath.gamma(s[0]) * mpmath.gamma(s[1]) * mpmath.gamma(s[2]) / mpmath.gamma(sum(s))

        with mpmath.workdps(40):
            norm2 = b3(a, b, c) ** 2
            j = b3(2 * a - 1, 2 * b - 1, 2 * c - 1) / (4 * norm2)
            jw = (b3(2 * a, 2 * b, 2 * c - 1) + b3(2 * a + 1, 2 * b - 1, 2 * c - 1)) / (4 * norm2)
        assert bd.closed_forms["bivariate_extropy"] == pytest.approx(float(j), rel=1e-11)
        assert bd.closed_forms["bivariate_weighted_extropy"] == pytest.approx(float(jw), rel=1e-11)
