import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extropy.bivariate import iterated_integral
from extropy.quadrature import (
    DivergenceUndecidedError,
    EvaluationBudgetError,
    EvaluationError,
    Integrand,
    detect_divergence,
    differentiate,
    integrate,
    integrate_batch,
    integrate_fn,
)


class TestIntegrateBasics:
    def test_exponential_tail(self):
        r = integrate_fn(lambda x: np.exp(-2.0 * x), 0.0, np.inf)
        assert r.value == pytest.approx(0.5, abs=1e-11)
        assert not r.diverged
        assert r.abs_error_estimate < 1e-9
        assert r.evaluations > 0

    def test_linear_density_moment(self):
        # int_0^2 x/4 dx = 0.5 by the antiderivative x^2/8.
        r = integrate_fn(lambda x: x / 4.0, 0.0, 2.0)
        assert r.value == pytest.approx(0.5, abs=1e-12)

    def test_lower_infinite(self):
        r = integrate_fn(lambda x: np.exp(2.0 * x), -np.inf, 0.0)
        assert r.value == pytest.approx(0.5, abs=1e-11)
        # hinted power tail: int_-inf^0 (1-x)**-2.5 dx = 1/1.5
        r = integrate_fn(lambda x: (1.0 - x) ** -2.5, -np.inf, 0.0, exponent_lower=-2.5)
        assert r.value == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Integrand(lambda x: x, 2.0, 1.0)

    def test_tolerance_must_be_positive(self):
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError):
                integrate_fn(lambda x: x, 0.0, 1.0, tol=tol)


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


class TestErrorPaths:
    def test_budget_exhaustion_is_distinct(self):
        with pytest.raises(EvaluationBudgetError):
            integrate_fn(lambda x: np.sin(50.0 * x) ** 2 / (1.0 + x * x),
                         0.0, np.inf, tol=1e-13, budget=500)

    def test_non_finite_interior_value(self):
        with pytest.raises(EvaluationError):
            integrate_fn(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)


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
    def _batch(self, rows, **kw):
        hints = {key: [row[3].get(key) for row in rows]
                 for key in ("exponent_lower", "exponent_upper")}
        flags = {key: [row[3].get(key, False) for row in rows]
                 for key in ("singular_lower", "singular_upper")}
        return integrate_batch(_dispatch([row[0] for row in rows]),
                               [row[1] for row in rows], [row[2] for row in rows],
                               tol=[row[4] for row in rows], **hints, **flags, **kw)

    def test_members_match_batch_of_one(self):
        results = self._batch(MIXED)
        for (fn, lo, hi, hints, tol), r in zip(MIXED, results):
            if not lo < hi:
                assert (r.value, r.abs_error_estimate, r.evaluations) == (0.0, 0.0, 0)
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

    def test_breakpoints_cut_every_kind_of_member(self):
        # One jump per member: finite, mapped onto (0, 1) and reflected.
        # Rows are NaN-padded; the 5.0 lies outside its member and is unused.
        rows = [(lambda x: x * np.where(x < 1.0, 1.0, 2.0), 0.34, 3.0, {}, 1e-10),
                (lambda x: np.exp(-x) * np.where(x < 1.0, 1.0, 2.0), 0.0, np.inf, {}, 1e-10),
                (lambda x: np.exp(x) * np.where(x < -1.0, 2.0, 1.0), -np.inf, 0.0, {}, 1e-10)]
        cut = self._batch(rows, breakpoints=[[1.0, np.nan], [1.0, np.nan], [-1.0, 5.0]])
        uncut = self._batch(rows)
        exact = [(1.0 - 0.34**2) / 2.0 + 8.0, 1.0 + math.exp(-1.0), 1.0 + math.exp(-1.0)]
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
        assert d.abs_error_estimate < 1e-7

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
        assert (d.value, d.abs_error_estimate) == (value, err)

    def test_failure_past_the_break_row_does_not_raise(self):
        value, err, last = _serial_ridders(_noisy, 1.0, 0.5)
        assert last < 9
        for failing in range(2 * last + 2, 20):
            d = differentiate(_leading(_noisy, failing, EvaluationBudgetError("budget")),
                              1.0, 0.5)
            assert (d.value, d.abs_error_estimate) == (value, err)

            def h(u, failing=failing):
                values = [_noisy(x) for x in u.tolist()]
                values[failing] = math.nan
                return values, None

            d = differentiate(h, 1.0, 0.5)
            assert (d.value, d.abs_error_estimate) == (value, err)

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
    combo = integrate_fn(lambda x: a * p1(x) + b * p2(x), lo, hi)
    i1 = integrate_fn(lambda x: p1(x), lo, hi)
    i2 = integrate_fn(lambda x: p2(x), lo, hi)
    scale = max(1.0, abs(combo.value))
    assert combo.value == pytest.approx(a * i1.value + b * i2.value,
                                        abs=1e-9 * scale)


@settings(max_examples=25, deadline=None)
@given(p=cubic(), lo=st.floats(-1, 1), width=st.floats(0.5, 3),
       frac=st.floats(0.1, 0.9))
def test_interval_additivity(p, lo, width, frac):
    hi = lo + width
    mid = lo + frac * width
    whole = integrate_fn(lambda x: p(x), lo, hi)
    left = integrate_fn(lambda x: p(x), lo, mid)
    right = integrate_fn(lambda x: p(x), mid, hi)
    scale = max(1.0, abs(whole.value))
    assert whole.value == pytest.approx(left.value + right.value, abs=1e-9 * scale)
