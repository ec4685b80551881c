"""Self-tests of the benchmark's reference oracle.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench/test_oracle.py -q

The oracle must agree with the catalog's own closed forms wherever both
exist, and its closed-form integrals must agree with plain ``mpmath.quad``
of the reference density.
"""

import math
import os
import sys

import mpmath as mp
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402

extropy = pytest.importorskip("extropy")

SPECS = [
    {"family": "exponential", "params": {"rate": 1.7}},
    {"family": "uniform", "params": {"a": 0.5, "b": 2.25}},
    {"family": "gamma", "params": {"alpha": 2.5, "beta": 0.8}},
    {"family": "gamma", "params": {"alpha": 0.7, "beta": 1.3}},
    {"family": "beta", "params": {"alpha": 2.0, "beta": 1.5}},
    {"family": "beta", "params": {"alpha": 0.8, "beta": 0.75}},
    {"family": "piecewise", "params": {"weights": [0.25, 0.125, 0.625]}},
    {"family": "pareto", "params": {"shape": 2.5, "scale": 1.5}},
    {"family": "tabulated", "grid": [[0.0, 0.5], [1.0, 2.0], [2.5, 0.25], [3.0, 0.0]]},
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s["family"])
def test_catalog_closed_forms(spec):
    dist = extropy.make_distribution(spec)
    fam = oracle.family(spec)
    checked = 0
    for mid, entry in dist.closed_forms.items():
        if callable(entry):
            for t in (float(dist.quantile(0.3)), float(dist.quantile(0.8))):
                ref = oracle.measure(fam, mid, t)
                assert abs(float(ref) - entry(t)) <= 1e-12 * max(1.0, abs(entry(t)))
                checked += 1
        else:
            ref = oracle.measure(fam, mid)
            if math.isinf(entry):
                assert ref == -mp.inf
            else:
                assert abs(float(ref) - entry) <= 1e-12 * max(1.0, abs(entry))
            checked += 1
    if spec["family"] not in ("pareto", "tabulated"):
        assert checked


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s["family"])
def test_integrals_match_direct_quadrature(spec):
    fam = oracle.family(spec)
    a = fam.quantile(0.2)
    b = fam.quantile(0.7)
    # split at the cell edges of piecewise and tabulated densities
    pts = [a] + [k for k in getattr(fam, "knots", []) if a < k < b] + [b]
    for w in (0, 1):
        direct = mp.quad(lambda x: x**w * fam.pdf(x) ** 2, pts)
        assert abs(fam.f2(a, b, w) - direct) <= mp.mpf(10) ** -20 * max(1, abs(direct))
    direct = mp.quad(lambda x: fam.sf(x) ** 2, pts)
    assert abs(fam.sf2(a, b) - direct) <= mp.mpf(10) ** -20 * max(1, abs(direct))
    # cdf is the integral of the density
    assert abs(fam.cdf(b) - fam.cdf(a) - mp.quad(fam.pdf, pts)) <= mp.mpf(10) ** -20
    # quantiles only place grid points, so they stop at ~1e-17 relative
    assert abs(fam.cdf(fam.quantile(0.4)) - mp.mpf(0.4)) <= mp.mpf(10) ** -15


@pytest.mark.parametrize("shapes", [(1.0, 1.0, 1.0), (2.0, 1.5, 0.8), (0.8, 0.9, 0.7),
                                    (0.4, 2.0, 2.0), (2.0, 0.5, 3.0)])
def test_bivariate_beta_closed_forms(shapes):
    bd = extropy.bivariate_beta(*shapes)
    for mid, entry in bd.closed_forms.items():
        ref = oracle.bivariate_beta(*shapes, mid)
        if math.isinf(entry):
            assert ref == mp.inf
        else:
            assert abs(float(ref) - entry) <= 1e-12 * max(1.0, entry)


def test_bivariate_beta_weighted_by_direct_quadrature():
    a, b, c = 2.0, 1.5, 1.25
    norm = oracle._beta3(a, b, c)

    def f(x, y):
        return x ** (a - 1) * (y - x) ** (b - 1) * (1 - y) ** (c - 1) / norm

    direct = mp.quad(lambda y: mp.quad(lambda x: x * y * f(x, y) ** 2, [0, y]), [0, 1]) / 4
    assert abs(oracle.bivariate_beta(a, b, c, "bivariate_weighted_extropy") - direct) < 1e-15


@pytest.mark.parametrize("pair", [
    ({"family": "exponential", "params": {"rate": 1.0}},
     {"family": "exponential", "params": {"rate": 2.5}}),
    ({"family": "gamma", "params": {"alpha": 2.0, "beta": 0.5}},
     {"family": "exponential", "params": {"rate": 2.0}}),
    ({"family": "uniform", "params": {"a": 0.0, "b": 1.0}},
     {"family": "uniform", "params": {"a": 0.5, "b": 2.5}}),
    ({"family": "exponential", "params": {"rate": 1.5}},
     {"family": "uniform", "params": {"a": 0.25, "b": 1.0}}),
])
def test_convolution_by_direct_double_quadrature(pair):
    x_spec, y_spec = pair
    fx, fy = oracle.family(x_spec), oracle.family(y_spec)
    (xlo, xhi), (ylo, yhi) = fx.support, fy.support
    mp.mp.dps = 15
    try:
        def f_z(z):
            lo, hi = max(xlo, z - yhi), min(xhi, z - ylo)
            return mp.quad(lambda x: fx.pdf(x) * fy.pdf(z - x), [lo, hi]) if lo < hi else 0
        zpts = sorted({xlo + ylo, xhi + ylo, xlo + yhi, xhi + yhi} - {mp.inf})
        if xhi == mp.inf or yhi == mp.inf:
            zpts += [zpts[-1] + 4, mp.inf]
        direct = -mp.quad(lambda z: z * f_z(z) ** 2, zpts) / 2
    finally:
        mp.mp.dps = 30
    ref = oracle.sum_weighted_extropy(x_spec, y_spec)
    assert abs(ref - direct) <= 1e-9


@pytest.mark.parametrize("a", [0.6, 2.3, 7.5])
@pytest.mark.parametrize("u0", [0.0, 0.3, 2.0, 15.0])
def test_gamma_survival_series_matches_quadrature(a, u0):
    series = oracle._gamma_sf2_tail(a, u0)
    with mp.workdps(50):
        direct = mp.quad(lambda u: mp.gammainc(a, u, mp.inf, regularized=True) ** 2,
                         [u0, u0 + a + 1, mp.inf])
    assert abs(series - direct) <= mp.mpf(10) ** -25 * abs(direct)
