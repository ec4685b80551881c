"""Independent reference values for the benchmark, computed with mpmath.

Nothing here imports ``extropy``.  Every family in the catalog gets a
reference built from closed forms at 30 significant digits:

* the integrals  I_w(lo, hi) = int_lo^hi x^w f(x)^2 dx  (w = 0 or 1) in
  closed form for every family (incomplete gamma and beta functions for
  the gamma and beta families, polynomials for uniform, piecewise and
  tabulated, elementary functions for exponential and pareto);
* the survival integral S2(lo, hi) = int_lo^hi sf(x)^2 dx in closed form
  where one exists and by ``mpmath.quad`` at 30 digits otherwise (gamma
  and beta);
* bivariate beta measures from the Dirichlet integrals, and convolution
  densities written out explicitly for the ``sum_bound`` pairs.

Measures, claim sides and claim verdicts are assembled from these
primitives the way the paper defines them, not the way the library
computes them.  A divergent measure is reported as -inf (univariate) or
+inf (bivariate), matching the library's sign conventions.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30

INF = mp.inf

# Tolerances the library states for each layer.
MEASURE_TOL = 1e-8
TOL_2D = 1e-6


class Divergent(Exception):
    """The integral defining a measure does not converge."""


def _poly_mul(p, q):
    out = [mp.mpf(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_int(p, a, b):
    """Exact integral over [a, b] of the polynomial with coefficients p."""
    return sum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, c in enumerate(p))


# -- univariate families -------------------------------------------------------

class Family:
    """Reference evaluators of one catalog member (all values are mpf)."""

    support: tuple

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        raise NotImplementedError

    def f2(self, lo, hi, w):
        """int_lo^hi x^w f^2; raises Divergent."""
        raise NotImplementedError

    def sf2(self, lo, hi):
        """int_lo^hi sf^2; raises Divergent."""
        raise NotImplementedError

    def quantile(self, p):
        lo, hi = self.support
        p = mp.mpf(p)
        a = mp.mpf(lo)
        b = mp.mpf(hi) if hi != INF else max(mp.mpf(1), 2 * abs(a))
        while hi == INF and self.cdf(b) < p:
            b *= 2
        for _ in range(200):
            m = (a + b) / 2
            if self.cdf(m) < p:
                a = m
            else:
                b = m
            if b - a <= mp.mpf(10) ** (-17) * max(1, abs(b)):
                break
        return (a + b) / 2

    # Whether the hazard f/sf is non-decreasing on every interval (True),
    # decreasing somewhere on every interval (False), or depends on the
    # interval (None: checked numerically).
    hazard_nondecreasing = None

    def hazard(self, x):
        return self.pdf(x) / self.sf(x)

    def reversed_hazard(self, x):
        return self.pdf(x) / self.cdf(x)


class Exponential(Family):
    hazard_nondecreasing = True  # constant

    def __init__(self, rate):
        self.lam = mp.mpf(rate)
        self.support = (mp.mpf(0), INF)

    def pdf(self, x):
        return self.lam * mp.exp(-self.lam * x) if x >= 0 else mp.mpf(0)

    def cdf(self, x):
        return -mp.expm1(-self.lam * x) if x >= 0 else mp.mpf(0)

    def sf(self, x):
        return mp.exp(-self.lam * x) if x >= 0 else mp.mpf(1)

    def quantile(self, p):
        return -mp.log1p(-mp.mpf(p)) / self.lam

    def f2(self, lo, hi, w):
        lam = self.lam
        if w == 0:
            g = lambda x: mp.mpf(0) if x == INF else lam / 2 * mp.exp(-2 * lam * x)
        else:
            g = lambda x: mp.mpf(0) if x == INF else (
                lam**2 * mp.exp(-2 * lam * x) * (x / (2 * lam) + 1 / (4 * lam**2)))
        return g(lo) - g(hi)

    def sf2(self, lo, hi):
        g = lambda x: mp.mpf(0) if x == INF else mp.exp(-2 * self.lam * x) / (2 * self.lam)
        return g(lo) - g(hi)


class Uniform(Family):
    hazard_nondecreasing = True

    def __init__(self, a, b):
        self.a, self.b = mp.mpf(a), mp.mpf(b)
        self.w = self.b - self.a
        self.support = (self.a, self.b)

    def pdf(self, x):
        return 1 / self.w if self.a <= x <= self.b else mp.mpf(0)

    def cdf(self, x):
        return min(max((x - self.a) / self.w, mp.mpf(0)), mp.mpf(1))

    def sf(self, x):
        return min(max((self.b - x) / self.w, mp.mpf(0)), mp.mpf(1))

    def quantile(self, p):
        return self.a + mp.mpf(p) * self.w

    def f2(self, lo, hi, w):
        return (hi ** (w + 1) - lo ** (w + 1)) / ((w + 1) * self.w**2)

    def sf2(self, lo, hi):
        return ((self.b - lo) ** 3 - (self.b - hi) ** 3) / (3 * self.w**2)


class Gamma(Family):
    def __init__(self, alpha, beta):
        self.al, self.sc = mp.mpf(alpha), mp.mpf(beta)
        self.support = (mp.mpf(0), INF)
        self.hazard_nondecreasing = self.al >= 1  # IFR iff alpha >= 1, else DFR

    def pdf(self, x):
        if x <= 0:
            return mp.mpf(0)
        return x ** (self.al - 1) * mp.exp(-x / self.sc) / (mp.gamma(self.al) * self.sc**self.al)

    def cdf(self, x):
        return mp.gammainc(self.al, 0, max(x, 0) / self.sc, regularized=True)

    def sf(self, x):
        return mp.gammainc(self.al, max(x, 0) / self.sc, INF, regularized=True)

    def f2(self, lo, hi, w):
        z = 2 * self.al - 1 + w
        if lo == 0 and z <= 0:
            raise Divergent
        scale = (self.sc / 2) ** z / (mp.gamma(self.al) ** 2 * self.sc ** (2 * self.al))
        return scale * mp.gammainc(z, 2 * lo / self.sc, 2 * hi / self.sc)

    def sf2(self, lo, hi):
        if hi != INF:
            return self.sc * mp.quad(
                lambda u: mp.gammainc(self.al, u, INF, regularized=True) ** 2,
                [lo / self.sc, hi / self.sc])
        return self.sc * _gamma_sf2_tail(self.al, lo / self.sc)


def _gamma_sf2_tail(a, u0):
    """int_u0^inf Q(a, u)^2 du for the regularized upper incomplete gamma Q.

    Integrating by parts and using u p_a(u) = a p_{a+1}(u) for the unit
    gamma density p gives  -u0 Q(a,u0)^2 + 2a K  with
    K = int_u0^inf p_{a+1} Q_a = Q(a+1, u0) - sum_n W_n Q(2a+n+1, 2 u0),
    W_n = Gamma(2a+n+1) / (2^(2a+n+1) Gamma(a+1) Gamma(a+n+1)).  The sum
    converges like 2^-n and Q(s+1, x) = Q(s, x) + x^s e^-x / Gamma(s+1)
    only adds positive terms.  K cancels about 0.43 u0 digits, so the
    working precision grows with u0.
    """
    with mp.workdps(mp.mp.dps + 10 + int(u0)):
        a, u0 = mp.mpf(a), mp.mpf(u0)
        q_a = mp.gammainc(a, u0, INF, regularized=True)
        q_a1 = mp.gammainc(a + 1, u0, INF, regularized=True)
        x = 2 * u0
        s = 2 * a + 1
        q_s = mp.gammainc(s, x, INF, regularized=True)
        step = mp.exp(s * mp.log(x) - x - mp.loggamma(s + 1)) if x > 0 else mp.mpf(0)
        weight = mp.exp(mp.loggamma(s) - s * mp.log(2) - 2 * mp.loggamma(a + 1))
        floor = mp.mpf(2) ** (-mp.mp.prec - 8) * q_a1
        total = mp.mpf(0)
        n = 0
        while weight > floor or n < 8:
            total += weight * q_s
            q_s += step
            step *= x / (s + 1)
            weight *= s / (2 * (a + n + 1))
            s += 1
            n += 1
        return -u0 * q_a**2 + 2 * a * (q_a1 - total)


class Beta(Family):
    def __init__(self, alpha, beta):
        self.al, self.be = mp.mpf(alpha), mp.mpf(beta)
        self.support = (mp.mpf(0), mp.mpf(1))
        self.norm = mp.beta(self.al, self.be)
        # IFR iff alpha >= 1; below that the hazard is bathtub-shaped.
        self.hazard_nondecreasing = True if self.al >= 1 else None

    def pdf(self, x):
        if not 0 < x < 1:
            return mp.mpf(0)
        return x ** (self.al - 1) * (1 - x) ** (self.be - 1) / self.norm

    def cdf(self, x):
        return mp.betainc(self.al, self.be, 0, min(max(x, 0), 1), regularized=True)

    def sf(self, x):
        return mp.betainc(self.al, self.be, min(max(x, 0), 1), 1, regularized=True)

    def f2(self, lo, hi, w):
        p, q = 2 * self.al - 1 + w, 2 * self.be - 1
        if (lo == 0 and p <= 0) or (hi == 1 and q <= 0):
            raise Divergent
        return mp.betainc(p, q, lo, hi) / self.norm**2

    def sf2(self, lo, hi):
        return mp.quad(lambda x: self.sf(x) ** 2, [lo, hi])


class Pareto(Family):
    hazard_nondecreasing = False  # shape / x

    def __init__(self, shape, scale):
        self.k, self.sig = mp.mpf(shape), mp.mpf(scale)
        self.support = (self.sig, INF)

    def pdf(self, x):
        return self.k * self.sig**self.k * x ** (-self.k - 1) if x >= self.sig else mp.mpf(0)

    def sf(self, x):
        return (self.sig / x) ** self.k if x >= self.sig else mp.mpf(1)

    def cdf(self, x):
        return 1 - self.sf(x)

    def quantile(self, p):
        return self.sig * (1 - mp.mpf(p)) ** (-1 / self.k)

    def _power(self, lo, hi, coef, e):
        """coef * int_lo^hi x^e dx for e != -1."""
        if hi == INF:
            if e + 1 >= 0:
                raise Divergent
            return coef * (-(lo ** (e + 1)) / (e + 1))
        return coef * (hi ** (e + 1) - lo ** (e + 1)) / (e + 1)

    def f2(self, lo, hi, w):
        return self._power(lo, hi, self.k**2 * self.sig ** (2 * self.k), -2 * self.k - 2 + w)

    def sf2(self, lo, hi):
        return self._power(lo, hi, self.sig ** (2 * self.k), -2 * self.k)


class _Cells(Family):
    """Piecewise-polynomial density: f = poly_i(x - x_i) on [x_i, x_{i+1}]."""

    def __init__(self, knots, polys):
        self.knots = knots
        self.polys = polys  # density polynomial in dx on each cell
        self.cum = [mp.mpf(0)]
        for i, p in enumerate(polys):
            self.cum.append(self.cum[-1] + _poly_int(p, 0, knots[i + 1] - knots[i]))
        self.support = (knots[0], knots[-1])

    def _cell(self, x):
        for i in range(len(self.polys)):
            if x < self.knots[i + 1]:
                return i
        return len(self.polys) - 1

    def pdf(self, x):
        if not self.knots[0] <= x <= self.knots[-1]:
            return mp.mpf(0)
        i = self._cell(x)
        dx = x - self.knots[i]
        return sum(c * dx**k for k, c in enumerate(self.polys[i]))

    def _cdf_poly(self, i):
        p = self.polys[i]
        return [self.cum[i]] + [c / (k + 1) for k, c in enumerate(p)]

    def cdf(self, x):
        if x <= self.knots[0]:
            return mp.mpf(0)
        if x >= self.knots[-1]:
            return mp.mpf(1)
        i = self._cell(x)
        dx = x - self.knots[i]
        return sum(c * dx**k for k, c in enumerate(self._cdf_poly(i)))

    def sf(self, x):
        return 1 - self.cdf(x)

    def _over_cells(self, lo, hi, integrand_poly):
        total = mp.mpf(0)
        for i in range(len(self.polys)):
            a = max(lo, self.knots[i])
            b = min(hi, self.knots[i + 1])
            if a < b:
                x0 = self.knots[i]
                total += _poly_int(integrand_poly(i), a - x0, b - x0)
        return total

    def f2(self, lo, hi, w):
        def poly(i):
            sq = _poly_mul(self.polys[i], self.polys[i])
            return _poly_mul(sq, [self.knots[i], mp.mpf(1)]) if w else sq
        return self._over_cells(lo, hi, poly)

    def sf2(self, lo, hi):
        def poly(i):
            s = [-c for c in self._cdf_poly(i)]
            s[0] += 1
            return _poly_mul(s, s)
        return self._over_cells(lo, hi, poly)


def piecewise(weights):
    c = [mp.mpf(v) for v in weights]
    return _Cells([mp.mpf(j) for j in range(len(c) + 1)], [[v] for v in c])


def tabulated(grid):
    x = [mp.mpf(p[0]) for p in grid]
    f = [mp.mpf(p[1]) for p in grid]
    mass = sum((f[i] + f[i + 1]) / 2 * (x[i + 1] - x[i]) for i in range(len(x) - 1))
    f = [v / mass for v in f]
    polys = [[f[i], (f[i + 1] - f[i]) / (x[i + 1] - x[i])] for i in range(len(x) - 1)]
    return _Cells(x, polys)


def family(spec) -> Family:
    """Reference for a catalog spec document ({"family": ..., "params": ...})."""
    fam = spec["family"]
    if fam == "tabulated":
        return tabulated(spec["grid"])
    p = spec["params"]
    if fam == "exponential":
        return Exponential(p["rate"])
    if fam == "uniform":
        return Uniform(p["a"], p["b"])
    if fam == "gamma":
        return Gamma(p["alpha"], p["beta"])
    if fam == "beta":
        return Beta(p["alpha"], p["beta"])
    if fam == "pareto":
        return Pareto(p["shape"], p["scale"])
    if fam == "piecewise":
        return piecewise(p["weights"])
    raise ValueError(f"no reference for family {fam!r}")


# -- measures ------------------------------------------------------------------

def measure(fam: Family, measure_id: str, t=None):
    """Reference value of a measure; -inf when it diverges."""
    lo, hi = fam.support
    w = 1 if measure_id.startswith("weighted") else 0
    try:
        if measure_id in ("extropy", "weighted_extropy"):
            return -fam.f2(lo, hi, w) / 2
        t = mp.mpf(t)
        if measure_id in ("residual_extropy", "weighted_residual_extropy",
                          "dynamic_survival_extropy"):
            a = max(t, lo)
            if a >= hi:
                return mp.mpf(0)
            s = fam.sf(t)
            integral = fam.sf2(a, hi) if measure_id == "dynamic_survival_extropy" \
                else fam.f2(a, hi, w)
            return -integral / (2 * s**2)
        b = min(t, hi)
        if b <= lo:
            return mp.mpf(0)
        return -fam.f2(lo, b, w) / (2 * fam.cdf(t) ** 2)
    except Divergent:
        return -INF


def residual_derivative(fam: Family, t):
    """Exact d/dt Jw(X_t) = 2 r Jw(X_t) + t r^2 / 2."""
    t = mp.mpf(t)
    r = fam.hazard(t)
    return 2 * r * measure(fam, "weighted_residual_extropy", t) + t * r**2 / 2


def past_derivative(fam: Family, t):
    """Exact d/dt Jw(tX) = -2 q Jw(tX) - t q^2 / 2."""
    t = mp.mpf(t)
    q = fam.reversed_hazard(t)
    return -2 * q * measure(fam, "weighted_past_extropy", t) - t * q**2 / 2


def nondecreasing(values) -> bool:
    """Same rule as the library's monotonicity precondition (relative 1e-9)."""
    scale = max(abs(v) for v in values) or 1
    return all(b - a >= -mp.mpf(1e-9) * scale for a, b in zip(values, values[1:]))


def hazard_nondecreasing_on(fam: Family, lo, hi, n=50) -> bool:
    """Is the hazard non-decreasing on an n-point grid over [lo, hi]?"""
    with mp.workdps(20):
        return nondecreasing([fam.hazard(x) for x in linspace(lo, hi, n)])


def reversed_hazard_nondecreasing_on(fam: Family, lo, hi, n=50) -> bool:
    """Same for the reversed hazard f/F on [lo(), hi].  Near the lower end of
    any support f/F behaves like (p+1)/(x - lo) for a density ~ (x - lo)^p,
    so it decreases on every grid starting close to the lower end; only the
    piecewise-polynomial families are evaluated."""
    if not isinstance(fam, _Cells):
        return False
    return nondecreasing([fam.reversed_hazard(x) for x in linspace(lo(), hi, n)])


def linspace(lo, hi, n):
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


# -- bivariate -------------------------------------------------------------------

def _beta3(a, b, c):
    return mp.gamma(a) * mp.gamma(b) * mp.gamma(c) / mp.gamma(a + b + c)


def bivariate_beta(alpha, beta, gamma, measure_id):
    """Dirichlet-integral value of the bivariate beta measures (+inf if divergent)."""
    a, b, c = mp.mpf(alpha), mp.mpf(beta), mp.mpf(gamma)
    norm = _beta3(a, b, c)
    if measure_id == "bivariate_extropy":
        if min(a, b, c) <= 0.5:
            return INF
        return _beta3(2 * a - 1, 2 * b - 1, 2 * c - 1) / (4 * norm**2)
    if min(b, c) <= 0.5:
        return INF
    # x y = x^2 + x (y - x) splits the weighted integral into two Dirichlet terms.
    return (_beta3(2 * a + 1, 2 * b - 1, 2 * c - 1)
            + _beta3(2 * a, 2 * b, 2 * c - 1)) / (4 * norm**2)


def product(fx: Family, fy: Family, measure_id):
    """Bivariate measures of an independent pair factorize exactly."""
    mid = "extropy" if measure_id == "bivariate_extropy" else "weighted_extropy"
    jx, jy = measure(fx, mid), measure(fy, mid)
    if jx == -INF or jy == -INF:
        return INF
    return jx * jy


def sum_weighted_extropy(x_spec, y_spec):
    """Jw(X + Y) from the explicit convolution density of a supported pair."""
    fx, fy = x_spec["family"], y_spec["family"]
    px, py = x_spec.get("params", {}), y_spec.get("params", {})

    def as_gamma(fam, p):
        if fam == "gamma":
            return mp.mpf(p["alpha"]), mp.mpf(p["beta"])
        if fam == "exponential":
            return mp.mpf(1), 1 / mp.mpf(p["rate"])
        return None

    gx, gy = as_gamma(fx, px), as_gamma(fy, py)
    same_scale = gx and gy and abs(gx[1] - gy[1]) <= mp.mpf(1e-14) * gx[1]
    if same_scale and not (fx == fy == "exponential"):
        # Same-scale gammas sum to a gamma; Jw of a gamma is scale-free.
        a = gx[0] + gy[0]
        return -mp.gamma(2 * a) / (2 ** (2 * a + 1) * mp.gamma(a) ** 2)
    if fx == fy == "exponential":
        l1, l2 = mp.mpf(px["rate"]), mp.mpf(py["rate"])
        if l1 == l2:
            return -mp.gamma(4) / (2**5 * mp.gamma(2) ** 2)
        c = l1 * l2 / (l2 - l1)
        # f_Z = c (e^{-l1 z} - e^{-l2 z}); int z e^{-k z} dz = 1/k^2.
        return -c**2 / 2 * (1 / (2 * l1) ** 2 - 2 / (l1 + l2) ** 2 + 1 / (2 * l2) ** 2)
    if fx == fy == "uniform":
        a1, b1 = mp.mpf(px["a"]), mp.mpf(px["b"])
        a2, b2 = mp.mpf(py["a"]), mp.mpf(py["b"])
        w1, w2 = b1 - a1, b2 - a2
        lo, hi = a1 + a2, b1 + b2
        short, long_ = min(w1, w2), max(w1, w2)

        def f_z(z):  # trapezoid
            u = z - lo
            return min(u, short, hi - z) / (w1 * w2) if lo <= z <= hi else mp.mpf(0)

        pts = [lo, lo + short, lo + long_, hi]
        return -mp.quad(lambda z: z * f_z(z) ** 2, pts) / 2
    if {fx, fy} == {"exponential", "uniform"}:
        pe, pu = (px, py) if fx == "exponential" else (py, px)
        lam = mp.mpf(pe["rate"])
        a, b = mp.mpf(pu["a"]), mp.mpf(pu["b"])
        w = b - a

        def f_z(z):
            if z < a:
                return mp.mpf(0)
            if z < b:
                return -mp.expm1(-lam * (z - a)) / w
            return (mp.exp(-lam * (z - b)) - mp.exp(-lam * (z - a))) / w

        return -mp.quad(lambda z: z * f_z(z) ** 2, [a, b, b + 1 / lam, INF]) / 2
    raise ValueError(f"no explicit convolution for {fx} + {fy}")
