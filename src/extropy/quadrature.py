"""Adaptive numerical integration and differentiation.

Every measure in this library funnels through one engine,
:func:`integrate_batch`: a batch of M integrands that share one
broadcasting evaluator, each with its own interval, endpoint hints and
tolerance.  :func:`integrate` is its batch of one.  The engine copes with
the three awkward integrand classes that lifetime densities produce:

* unbounded limits, removed by the substitution x = a + s u/(1-u) that
  maps (a, inf) onto (0, 1);
* integrable endpoint singularities, local power behaviour |x - end|**p
  with -1 < p < 0, resolved by weighted end panels: the panel touching
  such an end takes a Gauss-Jacobi pair for the weight |x - end|**p, as
  QUADPACK's ``qaws`` does (Piessens et al., 1983), with nodes from the
  Golub-Welsch eigenvalue method (Math. Comp. 23 (1969) 221-230);
* non-integrable endpoints, classified before any panel work by an
  analytic exponent hint or a local power-law fit (:func:`detect_divergence`)
  and reported as a diverged result rather than an error.

A plain panel takes the 15-point Kronrod extension of 7-point Gauss; a
weighted one takes 10 Gauss-Jacobi nodes for its estimate and 5 for its
error, the same 15 evaluations.  Work goes in rounds, and each round is one
evaluator call over a (k, 15) array of panels from every member still
running, as in scipy's ``quad_vec`` (compare Gander & Gautschi, BIT 40
(2000)).  The first round holds every member's initial partition, cut at
its breakpoints (points where the integrand may jump, as in QUADPACK's
``qagp``); each later round holds the pieces of every panel split.  A
member whose error exceeds its tolerance splits every panel whose error
exceeds half its per-panel share of the tolerance that no split can
touch: in two, or in four where the panel's last split barely reduced its
error (a jump or a kink that bisection only localises), which saves a
round.  The piece of a weighted panel at its end stays weighted.  Every
decision stays per member: classification, divergence, the noise floor,
the tolerance, the evaluation budget and the error.  A member that fails
stops alone, with the error it raises when integrated alone, and the
others finish; :func:`integrate_batch` raises the error of its
lowest-index failing member.  A cap on the points per evaluator call
bounds memory however large a batch is.

The bookkeeping of a call and of a round is a fixed set of whole-batch
array operations, the same for one member as for thousands.  Panels live
in one store, in the order they were made; a split or frozen panel is
retired in place, so each member's total and error are one ``bincount``
over the store in that order (see :class:`_Rounds`).  Steps with nothing
to do are skipped: cutting at breakpoints when there are none,
classification when no end is singular, divergence when no end is
divergent, weighted panels when no end is weighted, and the
unreachable-tolerance check while no error is frozen.

An :class:`Integrand`'s evaluator receives a 1-d float ndarray and returns
an ndarray of the same shape; a batch evaluator receives the (k, n) array
of points and the member of each row (see :func:`integrate_batch`).

Each integral, and the derivative of :func:`differentiate`, is an
:class:`Estimate`: value, abs_error, evaluations, diverged and method.  The
measure, bivariate and transform layers return the same type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Integrand",
    "Estimate",
    "QuadratureError",
    "EvaluationBudgetError",
    "DivergenceUndecidedError",
    "EvaluationError",
    "integrate",
    "integrate_batch",
    "detect_divergence",
    "differentiate",
    "DEFAULT_TOL",
    "DEFAULT_BUDGET",
]

# Two digits of slack under the 1e-8 accuracy the measure layer promises.
DEFAULT_TOL = 1e-10
DEFAULT_BUDGET = 10**6

# Half-width of the band around exponent -1 inside which a numeric
# power-law fit refuses to classify an endpoint.
EXPONENT_BAND = 0.05

# 15-point Kronrod abscissae on [-1, 1] and the embedded 7-point Gauss rule.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_GAUSS_IDX = np.arange(1, 15, 2)


class QuadratureError(Exception):
    """Base error for the integration engine."""


class EvaluationBudgetError(QuadratureError):
    """Evaluation budget exhausted before the tolerance was met.

    Distinct from divergence: the integral may be perfectly finite, the
    engine just ran out of allowed evaluations.
    """


class DivergenceUndecidedError(QuadratureError):
    """A singular endpoint could not be classified (exponent too close to -1)."""


class EvaluationError(QuadratureError):
    """The evaluator returned a non-finite value at an interior point."""


@dataclass(frozen=True)
class Integrand:
    """A 1-d integrand over an open interval.

    ``exponent_lower``/``exponent_upper`` are optional analytic hints: the
    local power of ``fn`` at the endpoint (for an infinite endpoint, the
    power of the tail).  A negative hint makes its endpoint singular; a
    non-negative one leaves a finite endpoint regular unless it is
    declared singular, and an infinite endpoint is always singular.  On a
    singular endpoint the hint overrides the numeric power-law fit, which
    matters for integrands sitting exactly on the logarithmic boundary
    p = -1.  A hint should describe an exact algebraic factor of ``fn``
    times a smooth function: a finite end with -1 < p < 0, and a hinted
    infinite tail, are integrated by panels weighted with that power.
    ``singular_lower``/``singular_upper`` declare a singular endpoint
    without a hint.  The fit then classifies it, and where it finds a slope
    p with -1 + ``EXPONENT_BAND`` < p < 0 the end's panel is weighted with
    that slope; an end where the integrand vanishes or the slope is not
    negative starts from a plain panel.  ``breakpoints`` are points where
    ``fn`` may jump or kink: those inside the interval cut the initial
    partition, so that no panel straddles them.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float
    singular_lower: bool = False
    singular_upper: bool = False
    exponent_lower: float | None = None
    exponent_upper: float | None = None
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"integrand needs lower < upper, got [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class Estimate:
    """A computed value, the bound on its absolute error and the evaluations
    spent on it.

    Every result of the library has this type: an integral, a derivative
    and every measure.  ``diverged`` marks the infinite value of a
    non-integrable integrand, whose ``abs_error`` is inf.  ``method`` is
    "quadrature", "closed-form" (a catalog value, 0 evaluations) or
    "ridders" (a finite-difference derivative).
    """

    value: float
    abs_error: float
    evaluations: int
    diverged: bool = False
    method: str = "quadrature"


# ---------------------------------------------------------------------------
# engine constants
# ---------------------------------------------------------------------------

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"
# Endpoint status codes index this tuple; -1 marks a regular endpoint.
_STATUS = (CONVERGENT, DIVERGENT, INCONCLUSIVE)
_SIDES = ("lower", "upper")

# The Kronrod and the embedded Gauss weights as the columns of one matrix.
_W = np.zeros((15, 2))
_W[:, 0] = _WK
_W[_GAUSS_IDX, 1] = _WG

# Points per evaluator call: a larger round is sent in chunks, which bounds
# the evaluator's temporaries however many members a batch holds.
_MAX_POINTS = 1 << 14
# A member splits every panel whose error exceeds this share of its free
# tolerance (its tolerance minus the error that no split can reduce) per
# active panel.
_SPLIT_SHARE = 0.5
# Distances to an endpoint, in units of a quarter of the way to the
# midpoint, at which the power-law fit and the sign of a divergent end are
# probed.
_FIT = np.logspace(0.0, -3.0, 16)
_PROBE = np.logspace(-1.0, -3.0, 5)

# Initial partitions as fractions of the interval.  A single wide panel can
# look falsely converged when the mass sits near one end, so wide intervals
# start from a graded mesh; the quarters are padded with empty panels.
_GRADED = np.array([0.0, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.6, 1.0])
_QUARTERS = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.0, 1.0, 1.0])
_PARTITIONS = np.array([_QUARTERS, _GRADED])
# Rows of the panel store (see _Rounds).
_VALUE, _ERROR, _LIVE, _END = 4, 5, 6, 7


# ---------------------------------------------------------------------------
# members and their evaluations
# ---------------------------------------------------------------------------


class _Batch:
    """The members of one engine run, on the finite intervals it works on.

    A lower-infinite member is reflected (x -> -y) onto an upper-infinite
    one, whose end hints swap sides; an upper-infinite member is mapped onto
    (0, 1) by x = a + s u/(1-u), where a tail power p becomes the power
    -(2 + p) at u = 1.  The scale s is 1, or |a| (1 when a = 0) for a
    hinted power tail: a pure power law then stays a polynomial in 1 - u,
    however far out its origin a lies.  An infinite endpoint is always
    singular, and so is an endpoint with a negative hint.  Members with
    ``not lower < upper`` are empty: they integrate to 0 without an
    evaluation.  ``cuts`` holds each member's breakpoints inside its
    interval, mapped with it (NaN pads), or is None when no member has any.

    Every member has its own evaluation budget.  A member that fails stops
    alone: ``failed`` marks it and ``errors`` holds its first error, the
    one it raises when integrated alone.
    """

    def __init__(self, fn, lower, upper, budget, exponent_lower, exponent_upper,
                 singular_lower, singular_upper, breakpoints=()):
        size = lower.size
        self.fn, self.size, self.budget = fn, size, budget
        self.empty = empty = ~(lower < upper)
        any_empty = np.count_nonzero(empty)
        exponent = np.empty((size, 2))
        exponent[:, 0] = exponent_lower  # None -> NaN
        exponent[:, 1] = exponent_upper
        singular = np.empty((size, 2), dtype=bool)
        singular[:, 0] = singular_lower
        singular[:, 1] = singular_upper
        cuts = np.array(breakpoints, dtype=float, ndmin=2)
        if cuts.size:
            cuts = np.where((lower[:, None] < cuts) & (cuts < upper[:, None]), cuts, np.nan)
        else:
            cuts = None
        ends = lower + upper
        self.power_tail = False
        self.transformed = np.count_nonzero(np.isfinite(ends)) < size
        if self.transformed:
            # A NaN bound makes its sum NaN (and so does -inf + inf).
            if np.count_nonzero(np.isnan(ends)) and np.count_nonzero(
                    np.isnan(lower) | np.isnan(upper)):
                raise ValueError("integration bounds must not be NaN")
            if any_empty:
                lower = np.where(empty, 0.0, lower)
                upper = np.where(empty, 0.0, upper)
            reflect = lower == -np.inf
            self.reflected = np.count_nonzero(reflect) > 0
            if self.reflected:
                lower, upper = np.where(reflect, -upper, lower), np.where(reflect, -lower, upper)
                if np.count_nonzero(np.isinf(lower)):
                    raise ValueError(
                        "doubly-infinite integrands must be split at a finite point")
                exponent = np.where(reflect[:, None], exponent[:, ::-1], exponent)
                singular = np.where(reflect[:, None], singular[:, ::-1], singular)
                if cuts is not None:
                    cuts = np.where(reflect[:, None], -cuts, cuts)
            mapped = upper == np.inf
            self.power_tail = mapped & ~np.isnan(exponent[:, 1])
            scale = np.where(self.power_tail & (lower != 0.0), abs(lower), 1.0)
            if cuts is not None:
                x = cuts - lower[:, None]
                cuts = np.where(mapped[:, None], x / (scale[:, None] + x), cuts)
            np.copyto(exponent[:, 1], -(2.0 + exponent[:, 1]), where=mapped)
            singular[:, 1] |= mapped
            # Per member: 1 where mapped (else 0), the origin a of the map
            # (else 0: every bound is finite here), -1 where reflected (else
            # 1) and the scale s, so that one expression serves every member
            # (see _points).
            self.affine = np.array([mapped, lower * mapped, 1.0 - 2.0 * reflect, scale]).T
            lower, upper = np.where(mapped, 0.0, lower), np.where(mapped, 1.0, upper)
        self.lower, self.upper, self.cuts = lower, upper, cuts
        # Per member and side (lower, upper); NaN is no hint.
        self.exponent = exponent
        singular |= exponent < 0.0
        if any_empty:
            singular &= ~empty[:, None]
        self.singular = singular
        self.any_singular = np.count_nonzero(singular) > 0
        self.used = np.zeros(size, dtype=np.int64)
        self.spent = 0
        self.failed = np.zeros(size, dtype=bool)
        self.errors: dict[int, QuadratureError] = {}
        self.weights: _Weights | None = None

    def fail(self, member: int, error: QuadratureError) -> None:
        if not self.failed[member]:
            self.failed[member] = True
            self.errors[member] = error

    def probe(self, members, sides, distances):
        """Values at ``distances`` from the ``sides`` ends of ``members``, in
        units of a quarter of the way to the midpoint; and the distances."""
        lo, hi = self.lower[members], self.upper[members]
        end = np.where(sides == 0, lo, hi)
        d = (0.125 * (hi - lo))[:, None] * distances
        return self.values(end[:, None] + np.where(sides[:, None] == 0, d, -d), members), d

    def values(self, u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Evaluator values at points ``u`` (k, n) of the members ``rows``.

        Each member is charged for its points first.  The rows of a member
        that fails are evaluated with the rest of the call, and dropped
        with their member after it.
        """
        n = u.shape[1]
        np.add.at(self.used, rows, n)
        # No member has used more points than all of them together.
        self.spent += rows.size * n
        if self.spent > self.budget:
            for m in ((self.used > self.budget) & ~self.failed).nonzero()[0].tolist():
                self.fail(m, EvaluationBudgetError(
                    f"evaluation budget of {self.budget} points exhausted"))
        step = max(1, _MAX_POINTS // n)
        chunks = [self._evaluate(u[s:s + step], rows[s:s + step])
                  for s in range(0, rows.size, step)]
        y = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        finite = np.isfinite(y)
        if np.count_nonzero(finite) < y.size:
            # A member's first bad row names its point, in the member's x.
            for r in (~finite.all(axis=1) & ~self.failed[rows]).nonzero()[0].tolist():
                bad = u[r:r + 1, finite[r].argmin()][:, None]
                if self.transformed:
                    bad = self._points(bad, rows[r:r + 1])[0]
                self.fail(int(rows[r]), EvaluationError(
                    f"integrand non-finite at interior point x={float(bad[0, 0])!r}"))
        return y

    def _points(self, u, rows):
        """The points x of the mapped points ``u`` of ``rows``, the map's
        1 - u and its scale.  Where a member is not mapped, w = 1 - u*0 = 1
        and x = +-0 + u/1*1 = u exactly; where it is not reflected, x*1 = x."""
        mapped, origin, sign, scale = self.affine[rows].T[:, :, None]
        w = 1.0 - u * mapped
        x = origin + u / w * scale
        if self.reflected:
            x = x * sign
        return x, w, scale

    def _evaluate(self, u, rows):
        if not self.transformed:
            return np.asarray(self.fn(u, rows), dtype=float)
        x, w, scale = self._points(u, rows)
        return np.asarray(self.fn(x, rows), dtype=float) * scale / (w * w)


def _rule(batch: _Batch, a: np.ndarray, b: np.ndarray, rows: np.ndarray, end: np.ndarray):
    """Estimates and errors of the panels (a, b) of ``rows``.

    A panel whose ``end`` is 0 takes the Gauss-Kronrod 15/7 pair; one whose
    ``end`` is 1 (2) touches its member's weighted lower (upper) endpoint
    and takes that end's Gauss-Jacobi 10/5 pair (see :class:`_Weights`).
    """
    if not rows.size:
        return a, a
    h = 0.5 * (b - a)
    u = (0.5 * (a + b))[:, None] + h[:, None] * _XK
    w = end.nonzero()[0]
    if w.size:
        table = batch.weights
        upper = end[w] == 2
        group = table.group[rows[w], upper.view(np.int8)]
        edge = np.where(upper, b[w], a[w])[:, None]
        span = np.where(upper, a[w] - b[w], b[w] - a[w])[:, None]
        u[w] = edge + span * table.nodes[group]
    y = batch.values(u, rows)
    s = y @ _W
    value = h * s[:, 0]
    diff = h * abs(s[:, 0] - s[:, 1])
    # QUADPACK-style rescaled error estimate, from the integral of
    # |f - mean f| by the panel's higher rule.
    resasc = h * (abs(y - 0.5 * s[:, :1]) @ _WK)
    if w.size:
        # The weight is taken at the points evaluated: |u - edge| is exact
        # there, while the rounding of edge + span * node is not.
        yw = y[w] * ((u[w] - edge) / span) ** -table.exponent[group][:, None]
        weights = table.matrix[group]
        q = np.einsum("kn,knc->kc", yw, weights)
        width = abs(span[:, 0])
        value[w] = width * q[:, 0]
        diff[w] = width * abs(q[:, 0] - q[:, 1])
        resasc[w] = width * np.einsum("kn,kn->k", abs(yw - q[:, :1]), weights[:, :, 0])
    # (Where resasc is 0 the panel is constant and the estimate 0.)
    return value, resasc * np.fmin(1.0, (200.0 * diff / resasc) ** 1.5)


# ---------------------------------------------------------------------------
# weighted end panels
# ---------------------------------------------------------------------------


def _gauss_jacobi(n: int, p) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rules on [-1, 1] for the weight (1 + t)**p, one per
    exponent p > -1: nodes and weights, (len(p), n) each.

    Golub & Welsch, Math. Comp. 23 (1969): the nodes are the eigenvalues of
    the Jacobi matrix of the Jacobi polynomials P(0, p), and the weights
    mu0 v0**2 from the first components of its eigenvectors, where
    mu0 = 2**(1+p) / (1+p) is the weight's integral.
    """
    p = np.array(p, dtype=float, ndmin=1)[:, None]
    k = np.arange(1.0, n)
    c = 2.0 * k + p
    jacobi = np.zeros((p.size, n, n))
    i = np.arange(n)
    jacobi[:, 0, 0] = p[:, 0] / (p[:, 0] + 2.0)
    jacobi[:, i[1:], i[1:]] = p * p / (c * (c + 2.0))
    off = 2.0 * k * (k + p) / (c * np.sqrt((c + 1.0) * (c - 1.0)))
    jacobi[:, i[1:], i[:-1]] = jacobi[:, i[:-1], i[1:]] = off
    t, v = np.linalg.eigh(jacobi)
    return t, 2.0 ** (1.0 + p) / (1.0 + p) * v[:, 0, :] ** 2


# Gauss-Jacobi tables by exponent, kept across engine calls: a table built
# alone is bit-identical to its row of a batch, so a result does not depend
# on which calls came first.  Oldest entries go first beyond _TABLES_KEPT.
_TABLES: dict[float, tuple[np.ndarray, np.ndarray]] = {}
_TABLES_KEPT = 512


def _tables(exponent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nodes (K, 15), matrix (K, 15, 2)) of :class:`_Weights` for K
    distinct exponents, from ``_TABLES`` where present."""
    new = [p for p in exponent.tolist() if p not in _TABLES]
    if new:
        t10, w10 = _gauss_jacobi(10, new)
        t5, w5 = _gauss_jacobi(5, new)
        # On (0, 1) the weights are 2**-(1+p) times those on (-1, 1).
        nodes = 0.5 * (1.0 + np.concatenate([t10, t5], axis=1))
        scale = 2.0 ** -(1.0 + np.array(new))[:, None]
        matrix = np.zeros((len(new), 15, 2))
        matrix[:, :10, 0] = scale * w10
        matrix[:, 10:, 1] = scale * w5
        for k, p in enumerate(new):
            _TABLES[p] = (nodes[k].copy(), matrix[k].copy())
    if len(new) < exponent.size:
        rows = [_TABLES[p] for p in exponent.tolist()]
        nodes, matrix = np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows])
    while len(_TABLES) > _TABLES_KEPT:  # after the lookup, which may need the oldest
        del _TABLES[next(iter(_TABLES))]
    return nodes, matrix


class _Weights:
    """The weighted end panels of one engine call.

    An endpoint where a member behaves like |x - end|**p is integrated by a
    Gauss-Jacobi pair for that weight (compare QUADPACK's ``qaws``): 10
    nodes for the estimate and 5 for its error, the 15 evaluations of a
    Kronrod panel.  On the unit panel s in (0, 1) from the end, ``nodes``
    holds both rules' nodes and ``matrix`` their weights, in two columns,
    so that a row of values divided by s**p times the matrix gives both
    estimates of the integral.  One table per distinct ``exponent``;
    ``group`` (M, 2) indexes it per member and side (-1 where the end is
    not weighted).  The tables come from :func:`_tables`.
    """

    def __init__(self, exponent: np.ndarray):
        weighted = ~np.isnan(exponent)
        self.exponent, group = np.unique(exponent[weighted], return_inverse=True)
        self.group = np.full(exponent.shape, -1)
        self.group[weighted] = group
        self.nodes, self.matrix = _tables(self.exponent)


# ---------------------------------------------------------------------------
# endpoint classification
# ---------------------------------------------------------------------------


def _classify(batch: _Batch):
    """Status codes (M, 2) of every member's endpoints, and the exponents
    of their convergent singular ends that weighted panels resolve (NaN
    elsewhere).

    A hint decides at once.  An unhinted singular end is classified by the
    least-squares slope of log|f| against the log distance over 3 decades
    of geometric approach; all such ends are probed in one evaluator call.
    Its slope is its exponent unless the integrand vanishes there.  A
    convergent end is weighted where its exponent is negative, and so is a
    hinted power tail mapped onto u = 1, whatever its power in u.
    """
    singular = batch.singular
    exponent = batch.exponent
    status = np.where(singular, exponent <= -1.0, -1)
    members, sides = (singular & np.isnan(exponent)).nonzero()
    if members.size:
        y, d = batch.probe(members, sides, _FIT)
        # Points where the integrand numerically vanishes carry no slope
        # (log 1 = 0).
        ay = abs(y)
        mask = ay > 0.0
        n = np.add.reduce(mask, axis=1)
        lx = np.where(mask, np.log(d), 0.0)
        ly = np.log(np.where(mask, ay, 1.0))
        dx = np.where(mask, lx - (np.add.reduce(lx, axis=1) / n)[:, None], 0.0)
        p = np.add.reduce(dx * ly, axis=1) / np.add.reduce(dx * dx, axis=1)
        # Fewer than four points: the integrand vanishes at the endpoint,
        # nothing to diverge.
        vanishes = n < 4
        status[members, sides] = np.where(
            vanishes | (p >= -1.0 + EXPONENT_BAND), 0,
            np.where(p <= -1.0 - EXPONENT_BAND, 1, 2))
        exponent = exponent.copy()
        exponent[members, sides] = np.where(vanishes, np.nan, p)
    weighted = exponent < 0.0
    weighted[:, 1] |= batch.power_tail
    return status, np.where((status == 0) & weighted, exponent, np.nan)


def detect_divergence(g: Integrand, budget: int = DEFAULT_BUDGET) -> dict[str, str]:
    """Classify the endpoints of ``g`` exactly as :func:`integrate` does.

    Returns a mapping from ``"lower"``/``"upper"`` to one of
    ``"convergent"``, ``"divergent"``, ``"inconclusive"``.  It holds every
    endpoint declared singular or hinted negative, and every infinite
    endpoint, which the substitution onto a finite interval always makes
    singular.  The decision uses the analytic exponent hint when ``g``
    carries one, otherwise a power-law fit over three decades of geometric
    approach; fitted exponents within ``EXPONENT_BAND`` of -1 are never
    silently classified.  Doubly-infinite integrands raise ``ValueError``.
    """
    with np.errstate(all="ignore"):
        batch = _Batch(_rows(g.fn), np.array([g.lower], dtype=float),
                       np.array([g.upper], dtype=float), budget, g.exponent_lower,
                       g.exponent_upper, g.singular_lower, g.singular_upper)
        status = _classify(batch)[0]
    if batch.errors:
        raise batch.errors[0]
    sides = _SIDES[::-1] if math.isinf(g.lower) else _SIDES  # reflected: sides swap
    return {side: _STATUS[code] for side, code in zip(sides, status[0]) if code >= 0}


def _resolve_divergent(batch: _Batch, status):
    """Decide the members with an end that is not convergent.

    The first such end (lower, then upper) decides: an inconclusive one
    fails its member, a divergent one gives the member an infinite value
    with the sign of the integrand next to that end.  Returns the decided
    members as a mask and the values (NaN where not divergent), or None
    for the values when no member is decided.
    """
    decided = status > 0
    if not np.count_nonzero(decided):
        return decided[:, 0], None
    value = np.full(batch.size, np.nan)
    side = np.where(decided[:, 0], 0, 1)
    code = status[np.arange(batch.size), side]
    for m in (code == 2).nonzero()[0].tolist():
        batch.fail(m, DivergenceUndecidedError(
            f"cannot classify singular {_SIDES[side[m]]} endpoint: "
            "local exponent too close to -1"))
    members = ((code == 1) & ~batch.failed).nonzero()[0]
    if members.size:
        s = np.sign(batch.probe(members, side[members], _PROBE)[0].sum(axis=1))
        value[members] = np.where(s == 0.0, 1.0, s) * math.inf
    return code > 0, value


# ---------------------------------------------------------------------------
# adaptive rounds
# ---------------------------------------------------------------------------


class _Rounds:
    """Panels of the members being integrated, refined in rounds.

    The panel store is ``pm`` (each panel's member) and the rows of ``F``:
    bounds, noise-floor strikes, the share of its parent's error that the
    split making the panel kept (0 for panels no split made), value, error,
    a live flag and the weighted end the panel touches (0 for none, 1 for
    lower, 2 for upper; see :func:`_rule`).  Both are preallocated and
    filled from the front, so the store holds panels in the order they
    were made, and a per-member sum (a ``bincount`` over the store) adds a
    member's panels in that order.  A panel that is split or frozen is
    retired in place: its value, error and live flag become 0, and adding
    +0 to a sum that starts at +0 changes no bit of it.  When the store is
    full, its live panels move, in order, to the front of a store twice the
    size they and the new panels need.  Panels that bisection cannot
    improve (float resolution, or the evaluator's noise floor) are frozen:
    their value and error stay in the member's total, in ``fixed`` and
    ``floor``, and they are never split again.

    Each pass of ``run`` is one round of bookkeeping: one sum per member of
    the store's values, errors and live flags, from which it takes the
    members that are done, the free tolerance of the others and the panels
    to split.  A member that is done keeps its panels as they are, so its
    result is the total of the last pass.
    """

    def __init__(self, batch: _Batch, run: np.ndarray, tol: np.ndarray):
        self.batch, self.tol = batch, tol
        self.value, self.error, self.fixed, self.floor = np.zeros((4, batch.size))
        self.running = run
        # A panel narrower than this share of its member's span is narrow
        # (see _split).
        self.narrow = 1e-6 * (batch.upper - batch.lower)
        self.n = 0
        self.floored = False
        self._first_round(run)

    def _alloc(self, capacity):
        self.pm = np.empty(capacity, dtype=np.int64)
        self.F = np.ones((8, capacity))

    def _add(self, pm, a, b, strikes, kept, v, e, end):
        n, k = self.n, pm.size
        if n + k > self.pm.size:
            live = self.F[_LIVE, :n] > 0.0
            old, F = self.pm[:n][live], self.F[:, :n][:, live]
            n = old.size
            self._alloc(2 * (n + k))
            self.pm[:n], self.F[:, :n] = old, F
        self.pm[n:n + k] = pm
        self.F[:_LIVE, n:n + k] = a, b, strikes, kept, v, e
        self.F[_END, n:n + k] = end
        self.n = n + k

    def _freeze(self, pm, v, e):
        np.add.at(self.fixed, pm, v)
        np.add.at(self.floor, pm, e)
        self.floored = True

    def _first_round(self, run):
        """Initial partitions, cut at the breakpoints, in one call.  A
        member's first panel touches its lower end and its last its upper
        end; those of weighted ends are weighted.  The partitions of members
        that do not run are computed with the rest and left out."""
        b = self.batch
        lo, hi = b.lower, b.upper
        width = hi - lo
        graded = width > 10.0 * (1.0 + abs(lo))
        # Each partition is sorted already; breakpoints join it unsorted.
        pts = lo[:, None] + width[:, None] * _PARTITIONS[graded.view(np.int8)]
        if b.cuts is not None:
            pts = np.concatenate([pts, np.clip(b.cuts, lo[:, None], hi[:, None])], axis=1)
            pts.sort(axis=1)
        pa, pb = pts[:, :-1], pts[:, 1:]
        panels = (pa < pb) & run[:, None]
        pm, pa, pb = panels.nonzero()[0], pa[panels], pb[panels]
        end = np.zeros(pm.size)
        if b.weights is not None:
            new = np.ones(pm.size + 1, dtype=bool)
            new[1:-1] = pm[1:] != pm[:-1]
            weighted = b.weights.group[pm] >= 0
            end[new[:-1] & weighted[:, 0]] = 1.0
            last = new[1:] & weighted[:, 1]
            end[last] = 2.0
            pb[last] = hi[pm[last]]
        self._alloc(2 * pm.size)
        v, e = _rule(b, pa, pb, pm, end)
        zero = np.zeros(pm.size)
        self._add(pm, pa, pb, zero, zero, v, e, end)

    def run(self):
        b, tol = self.batch, self.tol
        size = b.size
        while True:
            if b.errors:  # stop the members that failed
                self.running &= ~b.failed
            if not np.count_nonzero(self.running):
                return
            pm, F = self.pm[:self.n], self.F[:, :self.n]
            total = self.fixed + np.bincount(pm, F[_VALUE], size)
            err = self.floor + np.bincount(pm, F[_ERROR], size)
            # A member that is done keeps its panels as they are, so these
            # are its result in every later round too.
            self.value, self.error = total, err
            limit = np.maximum(tol, tol * abs(total))
            done = self.running & (err <= limit)
            if np.count_nonzero(done):
                self.running ^= done
                if not np.count_nonzero(self.running):
                    return
            # The free tolerance of a running member is its tolerance less
            # the error no split can reduce; the others have infinite free
            # tolerance and split nothing.  Only frozen error can exceed the
            # tolerance.
            free = np.where(self.running, limit - self.floor, np.inf)
            if self.floored:
                stuck = free < 0.0
                for m in stuck.nonzero()[0].tolist():
                    b.fail(m, EvaluationBudgetError(
                        "tolerance unreachable: residual error "
                        f"{self.floor[m]:.3e} cannot be reduced by further subdivision"))
                free[stuck] = np.inf
            # Split every panel whose error exceeds its member's share of the
            # free tolerance.
            share = _SPLIT_SHARE * free / np.bincount(pm, F[_LIVE], size)
            self._split((F[_ERROR] > share[pm]).nonzero()[0], free)

    def _split(self, chosen, free):
        """Split the panels at store positions ``chosen`` and evaluate the
        pieces.

        A panel is bisected, or split in four where its own bisection is
        predicted (its error times the share its parent's split kept) to
        leave more than its member's free tolerance: two rounds of
        bisection would then evaluate at least the same four quarters in
        one more round.  The piece at a weighted end stays weighted.  A
        panel that float resolution cannot bisect is frozen.
        """
        m = self.pm[chosen]
        a, b, strikes, kept, v, e, _, end = self.F[:, chosen]
        self.F[_VALUE:, chosen] = 0.0
        mid = 0.5 * (a + b)
        ok = (a < mid) & (mid < b)
        if np.count_nonzero(ok) < ok.size:
            stop = ~ok
            self._freeze(m[stop], v[stop], e[stop])
            m, a, b, e, strikes, kept, mid, end = (m[ok], a[ok], b[ok], e[ok], strikes[ok],
                                                   kept[ok], mid[ok], end[ok])
        # Cut points of each parent; a bisected one repeats mid and b, and
        # the empty pieces between repeats drop out.
        deep = kept * e > free[m]
        q1, q3 = mid, b
        if np.count_nonzero(deep):
            q1, q3 = np.where(deep, 0.5 * (a + mid), mid), np.where(deep, 0.5 * (mid + b), b)
        cuts = np.array([a, q1, mid, q3, b])
        lo, hi = cuts[:-1].ravel(), cuts[1:].ravel()
        piece = (lo < hi).nonzero()[0]
        owner = piece % m.size
        lo, hi = lo[piece], hi[piece]
        pm = m[owner]
        end = end[owner]
        if np.count_nonzero(end):
            end = np.where(((end == 1.0) & (lo == a[owner])) | ((end == 2.0) & (hi == b[owner])),
                           end, 0.0)
        v, e2 = _rule(self.batch, lo, hi, pm, end)
        kept = np.bincount(owner, e2, m.size) / e
        # Persistent non-improvement on an already narrow panel means the
        # evaluator's noise floor; a non-improving split on a wide panel is
        # just an optimistic parent estimate being corrected.
        narrow = (b - a < self.narrow[m]) & (kept > 0.9)
        strikes = np.where(narrow, strikes + 1.0, 0.0)[owner]
        if np.count_nonzero(narrow):
            go = strikes < 3.0
            stop = ~go
            self._freeze(pm[stop], v[stop], e2[stop])
            pm, lo, hi, v, e2, strikes, owner, end = (pm[go], lo[go], hi[go], v[go], e2[go],
                                                      strikes[go], owner[go], end[go])
        self._add(pm, lo, hi, strikes, kept[owner], v, e2, end)


# ---------------------------------------------------------------------------
# main entry points
# ---------------------------------------------------------------------------


def integrate_batch(fn, lower, upper, *, tol=DEFAULT_TOL, budget: int = DEFAULT_BUDGET,
                    exponent_lower=None, exponent_upper=None,
                    singular_lower=False, singular_upper=False,
                    breakpoints=()) -> list[Estimate]:
    """Integrate M integrands that share the broadcasting evaluator ``fn``.

    ``fn(x, rows)`` receives a (k, n) float array of points and the (k,)
    member index of each row, and returns the (k, n) values.  ``lower``
    and ``upper`` give each member's interval; ``tol``, the end hints and
    the singular flags give one value per member or one for all, with the
    meaning they have on :class:`Integrand` (None or NaN: no hint).
    ``breakpoints`` is an (M, n) array of each member's breakpoints, or one
    (n,) row for all, padded with NaN.  A member with ``not lower < upper``
    is an empty range and integrates to 0.  Each member gets ``budget``
    evaluations, meets its own tolerance and may diverge on its own, as
    :func:`integrate` of that member alone would; the batch raises the
    error of its lowest-index failing member.
    """
    return _raise_first(_integrate_members(
        fn, lower, upper, tol=tol, budget=budget, exponent_lower=exponent_lower,
        exponent_upper=exponent_upper, singular_lower=singular_lower,
        singular_upper=singular_upper, breakpoints=breakpoints))


def _raise_first(outcomes: list) -> list[Estimate]:
    """``outcomes``, all Estimates, or the first exception among them raised."""
    for r in outcomes:
        if type(r) is not Estimate:
            raise r
    return outcomes


def _integrate_members(fn, lower, upper, *, tol=DEFAULT_TOL, budget: int = DEFAULT_BUDGET,
                       exponent_lower=None, exponent_upper=None,
                       singular_lower=False, singular_upper=False,
                       breakpoints=()) -> list[Estimate | QuadratureError]:
    """:func:`integrate_batch`, with one outcome per member: its
    :class:`Estimate`, or the :class:`QuadratureError` that member raises
    when integrated alone.  A failing member stops alone."""
    lower = np.array(lower, dtype=float, ndmin=1)
    upper = np.array(upper, dtype=float, ndmin=1)
    if lower.shape != upper.shape:
        lower, upper = np.broadcast_arrays(lower, upper)
    tol = np.asarray(tol, dtype=float)
    if np.count_nonzero(tol > 0.0) < tol.size:
        raise ValueError("tol must be positive")
    with np.errstate(all="ignore"):
        batch = _Batch(fn, lower, upper, budget, exponent_lower, exponent_upper,
                       singular_lower, singular_upper, breakpoints)
        run = ~batch.empty
        infinite = None
        if batch.any_singular:
            status, weighted = _classify(batch)
            diverged, infinite = _resolve_divergent(batch, status)
            run &= ~diverged
            if np.count_nonzero(~np.isnan(weighted)):
                batch.weights = _Weights(weighted)
        run &= ~batch.failed
        rounds = _Rounds(batch, run, tol)
        rounds.run()
    value, error, flags = rounds.value, rounds.error, [False] * batch.size
    if infinite is not None:
        value = np.where(diverged, infinite, value)
        error = np.where(diverged, math.inf, error)
        flags = diverged.tolist()
    results = [Estimate(*r) for r in zip(value.tolist(), error.tolist(),
                                         batch.used.tolist(), flags)]
    for m, exc in batch.errors.items():
        results[m] = exc
    return results


def _rows(fn):
    """A batch evaluator handing ``fn`` every point of a call as one 1-d array."""
    def evaluate(x, rows):
        return np.asarray(fn(x.ravel())).reshape(x.shape)
    return evaluate


def integrate(g: Integrand, tol: float = DEFAULT_TOL,
              budget: int = DEFAULT_BUDGET) -> Estimate:
    """Integrate ``g`` to absolute-or-relative tolerance ``tol``.

    On success ``|value - true| <= max(tol, tol*|value|)``.  Declared
    singular endpoints are classified first: a divergent endpoint yields a
    ``diverged`` result whose value is +/-inf with the local sign of the
    integrand; an unclassifiable one raises
    :class:`DivergenceUndecidedError`.  Running out of evaluations raises
    :class:`EvaluationBudgetError`.  This is :func:`integrate_batch` of
    one member.
    """
    return integrate_batch(
        _rows(g.fn), [g.lower], [g.upper], tol=tol, budget=budget,
        exponent_lower=g.exponent_lower, exponent_upper=g.exponent_upper,
        singular_lower=g.singular_lower, singular_upper=g.singular_upper,
        breakpoints=[g.breakpoints])[0]


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def differentiate(h: Callable[[np.ndarray], tuple], t: float,
                  scale: float) -> Estimate:
    """Central finite difference with Richardson extrapolation (Ridders).

    ``scale`` is the initial stencil half-width; it must keep ``t +/- scale``
    inside the domain of ``h``.  The tableau always has 10 rows, row i
    with half-width ``scale / 1.4**i``, and the whole stencil is evaluated
    in one call: ``h`` receives the 20 points t + s0, t - s0, t + s1,
    t - s1, ... as a 1-d array and returns ``(values, error)``: the values
    of the leading points, in that order, and the exception raised at the
    first point it could not evaluate, or None when it evaluated them all.
    For a numpy function f that cannot fail, ``h`` is
    ``lambda u: (f(u), None)``.  The tableau is read row by row and stops
    where the serial loop stops, so a failure in a row it never reads does
    not raise and one in a row it reads raises ``error``.  The returned
    error estimate is the extrapolation residual at the accepted table
    entry; ``evaluations`` is 20.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    contract = 1.4
    ntab = 10
    steps = [scale]
    for _ in range(ntab - 1):
        steps.append(steps[-1] / contract)
    points = np.array([(t + step, t - step) for step in steps]).ravel()
    values, error = h(points)

    def fd(i):
        if len(values) < 2 * i + 2:
            raise error
        up, dn = float(values[2 * i]), float(values[2 * i + 1])
        if not (math.isfinite(up) and math.isfinite(dn)):
            raise EvaluationError(f"function non-finite inside stencil at t={t!r}")
        return (up - dn) / (2.0 * steps[i])

    table = [[0.0] * ntab for _ in range(ntab)]
    table[0][0] = fd(0)
    best = table[0][0]
    best_err = math.inf
    for i in range(1, ntab):
        table[i][0] = fd(i)
        fac = contract * contract
        for j in range(1, i + 1):
            table[i][j] = (table[i][j - 1] * fac - table[i - 1][j - 1]) / (fac - 1.0)
            fac *= contract * contract
            errt = max(abs(table[i][j] - table[i][j - 1]),
                       abs(table[i][j] - table[i - 1][j - 1]))
            if errt <= best_err:
                best_err = errt
                best = table[i][j]
        if abs(table[i][i] - table[i - 1][i - 1]) >= 2.0 * best_err and i > 2:
            break
    return Estimate(best, best_err, points.size, method="ridders")
