import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extropy import quadrature
from extropy.bivariate import iterated_integral
from extropy.quadrature import (
    DivergenceUndecidedError,
    Estimate,
    EvaluationBudgetError,
    EvaluationError,
    Integrand,
    QuadratureError,
    _gauss_jacobi,
    _integrate_members,
    detect_divergence,
    differentiate,
    integrate,
    integrate_batch,
)


class TestIntegrateBasics:
    def test_exponential_tail(self):
        r = integrate(Integrand(lambda x: np.exp(-2.0 * x), 0.0, np.inf))
        assert r.value == pytest.approx(0.5, abs=1e-11)
        assert not r.diverged
        assert r.abs_error < 1e-9
        assert r.evaluations > 0

    def test_linear_density_moment(self):
        # int_0^2 x/4 dx = 0.5 by the antiderivative x^2/8.
        r = integrate(Integrand(lambda x: x / 4.0, 0.0, 2.0))
        assert r.value == pytest.approx(0.5, abs=1e-12)

    def test_lower_infinite(self):
        r = integrate(Integrand(lambda x: np.exp(2.0 * x), -np.inf, 0.0))
        assert r.value == pytest.approx(0.5, abs=1e-11)
        # hinted power tail: int_-inf^0 (1-x)**-2.5 dx = 1/1.5
        r = integrate(Integrand(lambda x: (1.0 - x) ** -2.5, -np.inf, 0.0,
                                exponent_lower=-2.5))
        assert r.value == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Integrand(lambda x: x, 2.0, 1.0)

    def test_tolerance_must_be_positive(self):
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError):
                integrate(Integrand(lambda x: x, 0.0, 1.0), tol=tol)


class TestSingularEndpoints:
    def test_integrable_inverse_sqrt(self):
        g = Integrand(lambda x: x**-0.5, 0.0, 1.0, singular_lower=True)
        r = integrate(g)
        assert r.value == pytest.approx(2.0, rel=1e-10)

    def test_hint_speeds_and_matches(self):
        g = Integrand(lambda x: x**-0.5, 0.0, 1.0, singular_lower=True,
                      exponent_lower=-0.5)
        assert integrate(g).value == pytest.approx(2.0, rel=1e-10)

    def test_upper_singularity_beta_style(self):
        # int_0^1 x**2 (1-x)**(-1/2) dx = B(3, 1/2) = 16/15.
        g = Integrand(lambda x: x**2 * (1.0 - x) ** -0.5, 0.0, 1.0,
                      singular_upper=True, exponent_upper=-0.5)
        assert integrate(g).value == pytest.approx(16.0 / 15.0, rel=1e-10)

    def test_divergent_upper_endpoint(self):
        g = Integrand(lambda x: x * (1.0 - x) ** -1.2, 0.0, 1.0, singular_upper=True)
        r = integrate(g)
        assert r.diverged and r.value == math.inf

    def test_divergent_negative_integrand_signs(self):
        g = Integrand(lambda x: -x * (1.0 - x) ** -1.2, 0.0, 1.0, singular_upper=True)
        r = integrate(g)
        assert r.diverged and r.value == -math.inf

    def test_power_tail_convergent(self):
        g = Integrand(lambda x: x**-1.6, 1.0, np.inf, singular_upper=True)
        assert integrate(g).value == pytest.approx(1.0 / 0.6, rel=1e-10)

    def test_power_tail_divergent(self):
        g = Integrand(lambda x: x**-0.8, 1.0, np.inf, singular_upper=True)
        r = integrate(g)
        assert r.diverged and r.value == math.inf

    def test_exact_boundary_exponent_hint_is_divergent(self):
        # Local exponent exactly -1 diverges logarithmically.
        g = Integrand(lambda x: 1.0 / x, 0.0, 1.0, singular_lower=True,
                      exponent_lower=-1.0)
        assert integrate(g).diverged

    def test_unhinted_boundary_is_undecided(self):
        g = Integrand(lambda x: 1.0 / x, 0.0, 1.0, singular_lower=True)
        with pytest.raises(DivergenceUndecidedError):
            integrate(g)


class TestDetectDivergence:
    def test_mild_singularity_convergent(self):
        g = Integrand(lambda x: x**-0.5, 0.0, 1.0, singular_lower=True)
        assert detect_divergence(g) == {"lower": "convergent"}

    def test_strong_singularity_divergent(self):
        g = Integrand(lambda x: x**-1.2, 0.0, 1.0, singular_lower=True)
        assert detect_divergence(g) == {"lower": "divergent"}

    def test_hint_sign_decides_singularity(self):
        # No flag: a negative hint makes the endpoint singular, a
        # non-negative one leaves it regular.
        g = Integrand(lambda x: x**-0.5, 0.0, 1.0, exponent_lower=-0.5)
        assert detect_divergence(g) == {"lower": "convergent"}
        g = Integrand(lambda x: x**0.5, 0.0, 1.0, exponent_lower=0.5)
        assert detect_divergence(g) == {}

    def test_boundary_case_inconclusive(self):
        g = Integrand(lambda x: 1.0 / x, 0.0, 1.0, singular_lower=True)
        assert detect_divergence(g) == {"lower": "inconclusive"}

    def test_both_endpoints_reported(self):
        g = Integrand(lambda x: x**-0.5 * (1.0 - x) ** -1.4, 0.0, 1.0,
                      singular_lower=True, singular_upper=True)
        out = detect_divergence(g)
        assert out["lower"] == "convergent" and out["upper"] == "divergent"

    @pytest.mark.parametrize("fn, lower, upper, side, status", [
        (lambda x: x**-0.5, 1.0, np.inf, "upper", "divergent"),
        (lambda x: x**-2.0, 1.0, np.inf, "upper", "convergent"),
        (lambda x: np.exp(2.0 * x), -np.inf, 0.0, "lower", "convergent"),
    ])
    def test_infinite_tail_agrees_with_integrate(self, fn, lower, upper, side, status):
        g = Integrand(fn, lower, upper)
        assert detect_divergence(g) == {side: status}
        assert integrate(g).diverged == (status == "divergent")


class TestGaussJacobi:
    """The weighted end panels' rules, from Golub-Welsch."""

    def test_exponent_zero_is_gauss_legendre(self):
        for n in (5, 10):
            t, w = _gauss_jacobi(n, [0.0])
            lt, lw = np.polynomial.legendre.leggauss(n)
            np.testing.assert_allclose(t[0], lt, rtol=0, atol=1e-15)
            np.testing.assert_allclose(w[0], lw, rtol=1e-14)

    @pytest.mark.parametrize("n", [5, 10])
    def test_exact_for_polynomials_against_the_weight(self, n):
        # m_k = int_-1^1 (1+t)**p t**k dt: integrating by parts,
        # m_k = (2**(1+p) - k m_(k-1)) / (1+p+k), from m_0 = 2**(1+p) / (1+p).
        ps = [-0.98, -0.5, 0.4, 3.2]
        t, w = _gauss_jacobi(n, ps)
        for i, p in enumerate(ps):
            m = math.exp((1.0 + p) * math.log(2.0) + math.lgamma(1.0 + p) - math.lgamma(2.0 + p))
            for k in range(2 * n):
                if k:
                    m = (2.0 ** (1.0 + p) - k * m) / (1.0 + p + k)
                assert w[i] @ t[i] ** k == pytest.approx(m, rel=1e-12, abs=1e-14), (p, k)

    def test_a_table_alone_is_its_row_of_a_batch(self):
        ps = np.random.default_rng(5).uniform(-0.99, -0.01, 40)
        for n in (5, 10):
            t, w = _gauss_jacobi(n, ps)
            for i, p in enumerate(ps):
                ti, wi = _gauss_jacobi(n, [p])
                assert np.array_equal(ti[0], t[i]) and np.array_equal(wi[0], w[i])


class TestTableMemo:
    """Gauss-Jacobi tables are built once per exponent across engine calls,
    in a memo of bounded size."""

    @staticmethod
    def _count_eigh(monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(m):
            calls.append(m.shape[0])
            return eigh(m)

        monkeypatch.setattr(quadrature.np.linalg, "eigh", counted)
        monkeypatch.setattr(quadrature, "_TABLES", {})
        return calls

    def test_tables_are_built_once_per_exponent(self, monkeypatch):
        calls = self._count_eigh(monkeypatch)
        g = Integrand(lambda x: x**-0.37, 0.0, 1.0, exponent_lower=-0.37)
        first = integrate(g)
        assert len(calls) == 2  # the 10- and the 5-point rule
        assert integrate(g) == first
        assert len(calls) == 2
        integrate(Integrand(lambda x: x**-0.41, 0.0, 1.0, exponent_lower=-0.41))
        assert len(calls) == 4

    def test_memo_is_bounded(self, monkeypatch):
        self._count_eigh(monkeypatch)
        monkeypatch.setattr(quadrature, "_TABLES_KEPT", 8)
        for p in np.linspace(-0.9, -0.1, 20):
            integrate(Integrand(lambda x, p=p: x**p, 0.0, 1.0, exponent_lower=p))
        assert len(quadrature._TABLES) == 8
        assert list(quadrature._TABLES)[-1] == -0.1
        # a call needing the oldest table and a new one, in a full memo
        oldest = list(quadrature._TABLES)[0]
        kept = quadrature._TABLES[oldest][0]
        nodes, _ = quadrature._tables(np.array([-0.95, oldest]))
        assert np.array_equal(nodes[1], kept)
        assert len(quadrature._TABLES) == 8


# x**-1/2 log(1/x) and x**-1/2 / (1 - log x) on (0, 1): their log factors
# make the fitted exponent of the lower end only approximate.
FITTED_ENDS = [
    (lambda x: x**-0.5 * np.log(1.0 / x), 4.0),
    (lambda x: x**-0.5 / (1.0 - np.log(x)),
     float(mpmath.sqrt(mpmath.e) * mpmath.e1(0.5))),
]


class TestFittedWeightedEnds:
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("case", range(len(FITTED_ENDS)))
    def test_meets_the_tolerance_or_raises(self, case, tol):
        fn, exact = FITTED_ENDS[case]
        try:
            r = integrate(Integrand(fn, 0.0, 1.0, singular_lower=True), tol=tol)
        except QuadratureError:
            return
        assert abs(r.value - exact) <= max(tol, tol * abs(r.value))
        assert abs(r.value - exact) <= r.abs_error


class TestErrorPaths:
    def test_budget_exhaustion_is_distinct(self):
        with pytest.raises(EvaluationBudgetError):
            integrate(Integrand(lambda x: np.sin(50.0 * x) ** 2 / (1.0 + x * x), 0.0, np.inf),
                      tol=1e-13, budget=500)

    def test_non_finite_interior_value(self):
        with pytest.raises(EvaluationError):
            integrate(Integrand(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0))

    @pytest.mark.parametrize("fn, lower, upper, bad", [
        (lambda x: np.where(x > 5.0, np.nan, np.exp(-x)), 0.0, np.inf, lambda x: x > 5.0),
        (lambda x: np.where(x < -5.0, np.nan, np.exp(x)), -np.inf, 0.0, lambda x: x < -5.0),
    ])
    def test_non_finite_point_is_named_in_x(self, fn, lower, upper, bad):
        # On an infinite range the engine works on a mapped u; the message
        # names the point x where the integrand failed, as a plain float.
        with pytest.raises(EvaluationError) as info:
            integrate(Integrand(fn, lower, upper))
        text = str(info.value)
        assert text.startswith("integrand non-finite at interior point x=")
        x = float(text.rsplit("=", 1)[1])
        assert bad(x) and math.isnan(fn(np.array([x]))[0])


def _dispatch(fns):
    """One batch evaluator over per-member scalar evaluators."""
    def fn(x, rows):
        out = np.empty_like(x)
        for m in np.unique(rows):
            sel = rows == m
            out[sel] = fns[m](x[sel])
        return out
    return fn


# A mixed batch, one row of each kind: (evaluator, lower, upper, hints, tol).
MIXED = [
    # regular
    (lambda x: np.exp(-x) * np.cos(3.0 * x), 0.0, 2.0, {}, 1e-10),
    # hinted singular: int_0^1 x**-0.5 (1 + x) dx = 2 + 2/3
    (lambda x: x**-0.5 * (1.0 + x), 0.0, 1.0, {"exponent_lower": -0.5}, 1e-9),
    # infinite, mapped onto (0, 1): int_0^inf (1 + x)**-2.5 dx = 2/3
    (lambda x: (1.0 + x) ** -2.5, 0.0, np.inf, {"exponent_upper": -2.5}, 1e-10),
    # lower-infinite, reflected then mapped
    (lambda x: np.exp(2.0 * x), -np.inf, 0.0, {}, 1e-10),
    # unhinted singular end, classified by the numeric fit
    (lambda x: x**-0.3, 0.0, 1.0, {"singular_lower": True}, 1e-8),
    # empty range
    (lambda x: x, 1.0, 1.0, {}, 1e-10),
]


class TestIntegrateBatch:
    def _batch(self, rows, engine=integrate_batch, **kw):
        hints = {key: [row[3].get(key) for row in rows]
                 for key in ("exponent_lower", "exponent_upper")}
        flags = {key: [row[3].get(key, False) for row in rows]
                 for key in ("singular_lower", "singular_upper")}
        return engine(_dispatch([row[0] for row in rows]),
                               [row[1] for row in rows], [row[2] for row in rows],
                               tol=[row[4] for row in rows], **hints, **flags, **kw)

    def test_members_match_batch_of_one(self):
        results = self._batch(MIXED)
        for (fn, lo, hi, hints, tol), r in zip(MIXED, results):
            if not lo < hi:
                assert (r.value, r.abs_error, r.evaluations) == (0.0, 0.0, 0)
                continue
            alone = integrate(Integrand(fn, lo, hi, **hints), tol=tol)
            assert not r.diverged and not alone.diverged
            assert r.value == pytest.approx(alone.value, abs=max(tol, tol * abs(alone.value)))
        assert results[1].value == pytest.approx(2.0 + 2.0 / 3.0, rel=1e-9)
        assert results[2].value == pytest.approx(2.0 / 3.0, rel=1e-10)
        assert results[3].value == pytest.approx(0.5, rel=1e-10)
        assert results[4].value == pytest.approx(1.0 / 0.7, rel=1e-8)

    def test_divergent_member_is_its_own(self):
        rows = MIXED[:2] + [(lambda x: x**-1.2, 0.0, 1.0, {"exponent_lower": -1.2}, 1e-10)]
        results = self._batch(rows)
        assert results[2].diverged and results[2].value == math.inf
        assert not results[0].diverged and not results[1].diverged

    def test_non_finite_member_raises(self):
        rows = [MIXED[0], (lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0, {}, 1e-10)]
        with pytest.raises(EvaluationError):
            self._batch(rows)

    def test_member_over_budget_raises(self):
        oscillating = (lambda x: np.sin(50.0 * x) ** 2 / (1.0 + x * x), 0.0, np.inf, {}, 1e-13)
        with pytest.raises(EvaluationBudgetError):
            self._batch([MIXED[0], oscillating], budget=500)

    def test_first_failing_member_raises(self):
        # As a loop over the members would: member 1 fails before member 2.
        rows = [MIXED[0], (lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0, {}, 1e-10),
                (lambda x: np.sin(50.0 * x) ** 2 / (1.0 + x * x), 0.0, np.inf, {}, 1e-13)]
        with pytest.raises(EvaluationError):
            self._batch(rows, budget=500)

    def test_each_member_fails_alone(self):
        # [ok, non-finite, ok, over budget, ok]: each member's outcome is
        # what integrating it alone gives, bit for bit or error for error.
        nan_above_half = (lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0, {}, 1e-10)
        oscillating = (lambda x: np.sin(50.0 * x) ** 2 / (1.0 + x * x), 0.0, np.inf, {}, 1e-13)
        rows = [MIXED[0], nan_above_half, MIXED[2], oscillating, MIXED[4]]
        budget = 2000
        outcomes = self._batch(rows, engine=_integrate_members, budget=budget)
        assert [type(r) for r in outcomes] == [
            Estimate, EvaluationError, Estimate, EvaluationBudgetError, Estimate]
        for (fn, lo, hi, h, tol), r in zip(rows, outcomes):
            g = Integrand(fn, lo, hi, **h)
            if isinstance(r, Exception):
                with pytest.raises(type(r)) as alone:
                    integrate(g, tol=tol, budget=budget)
                assert str(alone.value) == str(r)
                continue
            alone = integrate(g, tol=tol, budget=budget)
            assert (r.value.hex(), r.abs_error.hex(), r.evaluations, r.diverged) == (
                alone.value.hex(), alone.abs_error.hex(), alone.evaluations, alone.diverged)
        with pytest.raises(EvaluationError) as batch:
            self._batch(rows, budget=budget)
        assert str(batch.value) == str(outcomes[1])

    def test_breakpoints_cut_every_kind_of_member(self):
        # One jump per member: finite, mapped onto (0, 1) and reflected.
        # Rows are NaN-padded; the 5.0 lies outside its member and is unused.
        rows = [(lambda x: x * np.where(x < 1.0, 1.0, 2.0), 0.34, 3.0, {}, 1e-10),
                (lambda x: np.exp(-x) * np.where(x < 2.0, 1.0, 2.0), 0.0, np.inf, {}, 1e-10),
                (lambda x: np.exp(x) * np.where(x < -2.0, 2.0, 1.0), -np.inf, 0.0, {}, 1e-10)]
        cut = self._batch(rows, breakpoints=[[1.0, np.nan], [2.0, np.nan], [-2.0, 5.0]])
        uncut = self._batch(rows)
        exact = [(1.0 - 0.34**2) / 2.0 + 8.0, 1.0 + math.exp(-2.0), 1.0 + math.exp(-2.0)]
        for r, u, want in zip(cut, uncut, exact):
            assert r.value == pytest.approx(want, rel=1e-12)
            assert r.evaluations < u.evaluations

    def test_divergent_inner_member_fails_the_outer_integral(self):
        # Every inner integral diverges at x = 0, so the outer integrand is
        # not finite.
        with pytest.raises(EvaluationError, match="non-finite"):
            iterated_integral(lambda x, y: x**-1.2 * y, lambda y: (0.0, 1.0), 0.0, 1.0,
                              inner_exponents=(-1.2, None))


def _serial_ridders(f, t, scale):
    """The serial Ridders loop that :func:`differentiate` replaced: it
    evaluates ``f`` pointwise, t + s then t - s, only for the rows it
    reaches.  Returns (value, error estimate, last row reached)."""
    contract, ntab = 1.4, 10
    table = [[0.0] * ntab for _ in range(ntab)]
    hh = scale

    def fd(step):
        up, dn = f(t + step), f(t - step)
        if not (math.isfinite(up) and math.isfinite(dn)):
            raise EvaluationError(f"function non-finite inside stencil at t={t!r}")
        return (up - dn) / (2.0 * step)

    table[0][0] = fd(hh)
    best, best_err = table[0][0], math.inf
    for i in range(1, ntab):
        hh /= contract
        table[i][0] = fd(hh)
        fac = contract * contract
        for j in range(1, i + 1):
            table[i][j] = (table[i][j - 1] * fac - table[i - 1][j - 1]) / (fac - 1.0)
            fac *= contract * contract
            errt = max(abs(table[i][j] - table[i][j - 1]),
                       abs(table[i][j] - table[i - 1][j - 1]))
            if errt <= best_err:
                best_err, best = errt, table[i][j]
        if abs(table[i][i] - table[i - 1][i - 1]) >= 2.0 * best_err and i > 2:
            break
    return best, best_err, i


def _leading(f, failing_index, error):
    """A vectorised h that evaluates ``f`` pointwise up to the stencil point
    ``failing_index`` and fails there with ``error``."""
    def h(u):
        return [f(x) for x in u.tolist()[:failing_index]], error
    return h


def _noisy(u):
    # A smooth curve plus noise that makes the serial loop stop early.
    return math.sin(u) + 1e-9 * math.sin(1e5 * u)


class TestDifferentiate:
    def test_square(self):
        d = differentiate(lambda t: (t * t, None), 3.0, 0.1)
        assert d.value == pytest.approx(6.0, abs=1e-9)
        assert d.abs_error < 1e-7

    def test_linear_curve(self):
        d = differentiate(lambda t: (-t / 4.0 - 0.125, None), 1.0, 0.1)
        assert d.value == pytest.approx(-0.25, abs=1e-12)

    def test_constant(self):
        d = differentiate(lambda t: (np.full_like(t, -0.25), None), 2.0, 0.1)
        assert d.value == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("coeffs", [(1, 0, 0, 0, 0), (0, 0, 0, 0, 1),
                                        (2, -1, 3, 0.5, -0.25)])
    def test_quartics_exact(self, coeffs):
        p = np.polynomial.Polynomial(coeffs)
        dp = p.deriv()
        t = 1.7
        d = differentiate(lambda u: (p(u), None), t, 0.3)
        assert d.value == pytest.approx(float(dp(t)), abs=1e-9)

    def test_failure_inside_stencil_propagates(self):
        def h(t):
            return np.where(t > 1.05, math.nan, t * t), None

        with pytest.raises(EvaluationError):
            differentiate(h, 1.0, 0.2)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            differentiate(lambda t: (t, None), 1.0, 0.0)

    def test_whole_stencil_in_one_call_in_serial_order(self):
        calls = []

        def h(u):
            calls.append(u)
            return u * u, None

        d = differentiate(h, 3.0, 0.1)
        (u,) = calls
        steps = [0.1]
        for _ in range(9):
            steps.append(steps[-1] / 1.4)
        assert u.tolist() == [x for s in steps for x in (3.0 + s, 3.0 - s)]
        assert d.evaluations == 20

    @pytest.mark.parametrize("f, t, scale", [(_noisy, 1.0, 0.5), (lambda u: u * u, 3.0, 0.1),
                                             (math.exp, 0.3, 0.2)])
    def test_equals_the_serial_loop(self, f, t, scale):
        value, err, _ = _serial_ridders(f, t, scale)
        d = differentiate(_leading(f, 20, None), t, scale)
        assert (d.value, d.abs_error) == (value, err)

    def test_failure_past_the_break_row_does_not_raise(self):
        value, err, last = _serial_ridders(_noisy, 1.0, 0.5)
        assert last < 9
        for failing in range(2 * last + 2, 20):
            d = differentiate(_leading(_noisy, failing, EvaluationBudgetError("budget")),
                              1.0, 0.5)
            assert (d.value, d.abs_error) == (value, err)

            def h(u, failing=failing):
                values = [_noisy(x) for x in u.tolist()]
                values[failing] = math.nan
                return values, None

            d = differentiate(h, 1.0, 0.5)
            assert (d.value, d.abs_error) == (value, err)

    def test_failure_in_a_reached_row_raises_that_error(self):
        _, _, last = _serial_ridders(_noisy, 1.0, 0.5)
        for failing in range(2 * last + 2):
            error = DivergenceUndecidedError(f"point {failing} undecided")

            def f(u, hit=iter(range(20))):
                if next(hit) == failing:
                    raise error
                return _noisy(u)

            with pytest.raises(DivergenceUndecidedError) as serial:
                _serial_ridders(f, 1.0, 0.5)
            with pytest.raises(DivergenceUndecidedError) as batched:
                differentiate(_leading(_noisy, failing, error), 1.0, 0.5)
            assert str(batched.value) == str(serial.value) == f"point {failing} undecided"

    def test_non_finite_value_in_a_reached_row_raises_as_the_loop(self):
        _, _, last = _serial_ridders(_noisy, 1.0, 0.5)
        for bad in (0, 2 * last + 1):
            def f(u, hit=iter(range(20)), bad=bad):
                return math.inf if next(hit) == bad else _noisy(u)

            with pytest.raises(EvaluationError) as serial:
                _serial_ridders(f, 1.0, 0.5)

            def h(u, bad=bad):
                values = [_noisy(x) for x in u.tolist()]
                values[bad] = math.inf
                return values, None

            with pytest.raises(EvaluationError) as batched:
                differentiate(h, 1.0, 0.5)
            assert str(batched.value) == str(serial.value)


@st.composite
def cubic(draw):
    c = [draw(st.floats(-3, 3)) for _ in range(4)]
    return np.polynomial.Polynomial(c)


@settings(max_examples=25, deadline=None)
@given(p1=cubic(), p2=cubic(),
       a=st.floats(-2, 2), b=st.floats(-2, 2),
       lo=st.floats(-1, 1), width=st.floats(0.5, 3))
def test_linearity(p1, p2, a, b, lo, width):
    hi = lo + width
    combo = integrate(Integrand(lambda x: a * p1(x) + b * p2(x), lo, hi))
    i1 = integrate(Integrand(lambda x: p1(x), lo, hi))
    i2 = integrate(Integrand(lambda x: p2(x), lo, hi))
    scale = max(1.0, abs(combo.value))
    assert combo.value == pytest.approx(a * i1.value + b * i2.value,
                                        abs=1e-9 * scale)


@settings(max_examples=25, deadline=None)
@given(p=cubic(), lo=st.floats(-1, 1), width=st.floats(0.5, 3),
       frac=st.floats(0.1, 0.9))
def test_interval_additivity(p, lo, width, frac):
    hi = lo + width
    mid = lo + frac * width
    whole = integrate(Integrand(lambda x: p(x), lo, hi))
    left = integrate(Integrand(lambda x: p(x), lo, mid))
    right = integrate(Integrand(lambda x: p(x), mid, hi))
    scale = max(1.0, abs(whole.value))
    assert whole.value == pytest.approx(left.value + right.value, abs=1e-9 * scale)


# Members of every kind the engine handles, for the bit-for-bit pins below:
# (name, evaluator, lower, upper, hints and flags, breakpoints, tol).
PINNED_MEMBERS = [
    ("regular", lambda x: np.exp(-x) * np.cos(3.0 * x), 0.0, 2.0, {}, (), 1e-10),
    ("hinted singular lower", lambda x: x**-0.5 * (1.0 + x), 0.0, 1.0,
     {"exponent_lower": -0.5}, (), 1e-10),
    ("hinted singular upper", lambda x: x**2 * (1.0 - x) ** -0.5, 0.0, 1.0,
     {"exponent_upper": -0.5}, (), 1e-10),
    ("unhinted mapped tail", lambda x: x**-1.6, 1.0, np.inf,
     {"singular_upper": True}, (), 1e-10),
    ("reflected", lambda x: np.exp(2.0 * x), -np.inf, 0.0, {}, (), 1e-10),
    ("divergent positive", lambda x: x * (1.0 - x) ** -1.2, 0.0, 1.0,
     {"singular_upper": True}, (), 1e-10),
    ("divergent negative", lambda x: -x * (1.0 - x) ** -1.2, 0.0, 1.0,
     {"singular_upper": True}, (), 1e-10),
    ("breakpoint finite", lambda x: x * np.where(x < 1.0, 1.0, 2.0), 0.34, 3.0, {},
     (1.0,), 1e-10),
    ("breakpoint mapped", lambda x: np.exp(-x) * np.where(x < 2.0, 1.0, 2.0), 0.0, np.inf,
     {}, (2.0,), 1e-10),
    ("breakpoint reflected", lambda x: np.exp(x) * np.where(x < -2.0, 2.0, 1.0), -np.inf,
     0.0, {}, (-2.0, 5.0), 1e-10),
    # An undeclared jump: its panels' splits keep most of their error, so
    # they are split in four.
    ("split in four", lambda x: np.where(x < 0.3137, 1.0, 2.0) * (1.0 + x), 0.0, 1.0, {},
     (), 1e-10),
    # A span of four ulps: its weighted panel's nodes round onto a few
    # floats, and the weight is taken at those.
    ("hairline singular", lambda x: 1.0 + 0.0 * x, 1.0, 1.0 + 8e-16,
     {"exponent_lower": -0.5}, (), 1e-10),
    ("empty", lambda x: x, 1.0, 1.0, {}, (), 1e-10),
]

# integrate of each member alone (integrate_batch of one for the empty
# range, which an Integrand refuses): (value, abs_error) by float.hex,
# evaluations, diverged.
PINNED_ALONE = {
    "regular": ("0x1.35e863514d48ap-4", "0x1.11a6f9e1d00fdp-68", 60, False),
    "hinted singular lower": ("0x1.5555555555557p+1", "0x1.8698badd797ffp-45", 60, False),
    "hinted singular upper": ("0x1.1111111111114p+0", "0x1.205ce53f5f805p-45", 60, False),
    "unhinted mapped tail": ("0x1.aaaaaaaaaaaabp+0", "0x1.35208823f598fp-46", 76, False),
    "reflected": ("0x1.0000000000000p-1", "0x1.52797c4d29fd0p-34", 106, False),
    "divergent positive": ("inf", "inf", 21, True),
    "divergent negative": ("-inf", "inf", 21, True),
    "breakpoint finite": ("0x1.0e26809d49518p+3", "0x1.2049aed6173d1p-66", 75, False),
    "breakpoint mapped": ("0x1.22a555477f039p+0", "0x1.da203892fe6d5p-42", 181, False),
    "breakpoint reflected": ("0x1.22a555477f039p+0", "0x1.da203892fe6d5p-42", 181, False),
    "split in four": ("0x1.518c5de711dacp+1", "0x1.f8c7c96783232p-34", 960, False),
    "hairline singular": ("0x1.ce5c32f86d844p-51", "0x1.1646afb2158f8p-52", 60, False),
    "empty": ("0x0.0p+0", "0x0.0p+0", 0, False),
}
# The same members in one batch.  Its rows sit elsewhere in the matrix
# products of the panel rule, which may round them differently: "reflected"
# differs from its pin alone in the last bit of its error.
PINNED_BATCH = [
    ("0x1.35e863514d48ap-4", "0x1.11a6f9e1d00fdp-68", 60, False),
    ("0x1.5555555555557p+1", "0x1.8698badd797ffp-45", 60, False),
    ("0x1.1111111111114p+0", "0x1.205ce53f5f805p-45", 60, False),
    ("0x1.aaaaaaaaaaaabp+0", "0x1.35208823f598fp-46", 76, False),
    ("0x1.0000000000000p-1", "0x1.52797c4d29fd2p-34", 106, False),
    ("inf", "inf", 21, True),
    ("-inf", "inf", 21, True),
    ("0x1.0e26809d49518p+3", "0x1.2049aed6173d1p-66", 75, False),
    ("0x1.22a555477f039p+0", "0x1.da203892fe6d5p-42", 181, False),
    ("0x1.22a555477f039p+0", "0x1.da203892fe6d5p-42", 181, False),
    ("0x1.518c5de711dacp+1", "0x1.f8c7c96783232p-34", 960, False),
    ("0x1.ce5c32f86d844p-51", "0x1.1646afb2158f8p-52", 60, False),
    ("0x0.0p+0", "0x0.0p+0", 0, False),
]

# (evaluator, lower, upper, hints and flags, tol, budget): each raises,
# alone and after a regular member in one batch.
PINNED_FAILURES = [
    (lambda x: np.sin(50.0 * x) ** 2 / (1.0 + x * x), 0.0, np.inf, {}, 1e-13, 500),
    # An interior singularity that no breakpoint declares: bisection
    # barely reduces its panels' errors, so they reach the noise floor.
    (lambda x: abs(x - 1.0 / np.pi) ** -0.9, 0.0, 1.0, {}, 1e-10, 10**6),
    (lambda x: 1.0 / x, 0.0, 1.0, {"singular_lower": True}, 1e-10, 10**6),
    (lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0, {}, 1e-10, 10**6),
]
PINNED_ERRORS = [
    ("EvaluationBudgetError",
     "evaluation budget of 500 points exhausted"),
    ("EvaluationBudgetError",
     "tolerance unreachable: residual error 5.922e-06 cannot be reduced by further subdivision"),
    ("DivergenceUndecidedError",
     "cannot classify singular lower endpoint: local exponent too close to -1"),
    ("EvaluationError",
     "integrand non-finite at interior point x=0.5010680786098984"),
]


def _pin(r):
    return (r.value.hex(), r.abs_error.hex(), r.evaluations, r.diverged)


def _pinned_batch(members, **kw):
    keys = ("exponent_lower", "exponent_upper", "singular_lower", "singular_upper")
    hints = {key: [m[4].get(key, False if key.startswith("singular") else None)
                   for m in members] for key in keys}
    width = max(len(m[5]) for m in members)
    breakpoints = [list(m[5]) + [np.nan] * (width - len(m[5])) for m in members]
    if width:
        hints["breakpoints"] = breakpoints
    return integrate_batch(_dispatch([m[1] for m in members]), [m[2] for m in members],
                           [m[3] for m in members], tol=[m[6] for m in members],
                           **hints, **kw)


def _pinned_alone(member):
    name, fn, lo, hi, hints, breakpoints, tol = member
    if not lo < hi:
        return _pinned_batch([member])[0]
    return integrate(Integrand(fn, lo, hi, breakpoints=breakpoints, **hints), tol=tol)


def _raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the class is what is pinned
        return type(exc).__name__, str(exc)
    return None


class TestPinnedEngine:
    """Every member kind and error path, bit for bit: the panels evaluated,
    their order and every arithmetic step decide these digits."""

    @pytest.mark.parametrize("member", PINNED_MEMBERS, ids=[m[0] for m in PINNED_MEMBERS])
    def test_alone(self, member):
        assert _pin(_pinned_alone(member)) == PINNED_ALONE[member[0]]

    def test_mixed_batch(self):
        assert [_pin(r) for r in _pinned_batch(PINNED_MEMBERS)] == PINNED_BATCH

    @pytest.mark.parametrize("case", range(len(PINNED_FAILURES)))
    def test_errors(self, case):
        fn, lo, hi, hints, tol, budget = PINNED_FAILURES[case]
        alone = _raised(lambda: integrate(Integrand(fn, lo, hi, **hints), tol=tol,
                                          budget=budget))
        member = ("failing", fn, lo, hi, hints, (), tol)
        batched = _raised(lambda: _pinned_batch([PINNED_MEMBERS[0], member], budget=budget))
        assert alone == batched == PINNED_ERRORS[case]
