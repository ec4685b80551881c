"""Seeded request decks for the benchmark workloads, and how to run one request.

A deck is the list of requests one pass of a workload sends, in order.  It
is a pure function of (workload, seed) built with :mod:`random` and
:mod:`math` only, so generating it costs the set-up phase nothing beyond
what the library itself imports.  Every request is a JSON-able dict; the
reference oracle (``checks.py``) reads the same dict.

The decks are stratified: every seed gets the same number of requests of
each kind and the same share of scale-range or invalid inputs, and only
the parameters drawn within each stratum change.  That keeps the mix, and
so the medians, comparable across seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

FAMILIES = ("exponential", "uniform", "gamma", "beta", "piecewise", "pareto", "tabulated")
T_MEASURES = ("residual_extropy", "past_extropy", "weighted_residual_extropy",
              "weighted_past_extropy", "dynamic_survival_extropy")

# tsweep: unit-order members are fixed base members whose parameters every
# seed jitters by up to JITTER (piecewise weights stay as they are), so
# each deck has the same regimes -- singular edges, heavy tails, kinks --
# and its cost and failure mix repeat across seeds.  SCALE_FAMILIES also
# get two members each with rate or scale 10**e: the eight exponents are
# drawn one per 1.5-decade stratum of [-6, 6], mirrored per family, so the
# deck covers the whole log-uniform range in both directions.
# plane jitters by 1% only: the cost of its heaviest requests doubles over
# 5% of a shape (pareto x beta(4, 0.7) Jw takes 2.0 s at beta 0.665 and
# 1.0 s at 0.735), and a handful of them make its tail and a fifth of a pass.
JITTER = {"tsweep": 0.05, "plane": 0.01, "cli": 0.05}
UNIT_BASES = {
    "exponential": [{"rate": 0.5}, {"rate": 1.0}, {"rate": 2.0}, {"rate": 3.0}],
    "uniform": [{"a": 0.0, "b": 1.0}, {"a": 0.5, "b": 2.0}, {"a": 1.0, "b": 4.0},
                {"a": 2.0, "b": 2.5}],
    "gamma": [{"alpha": 0.7, "beta": 1.5}, {"alpha": 1.5, "beta": 0.8},
              {"alpha": 3.0, "beta": 1.0}, {"alpha": 6.0, "beta": 0.5}],
    "beta": [{"alpha": 0.7, "beta": 0.8}, {"alpha": 2.0, "beta": 1.5},
             {"alpha": 0.9, "beta": 3.0}, {"alpha": 4.0, "beta": 0.7}],
    "pareto": [{"shape": 1.0, "scale": 1.0}, {"shape": 1.5, "scale": 0.8},
               {"shape": 2.5, "scale": 1.2}, {"shape": 4.0, "scale": 2.0}],
    # dyadic weights (counts of 1/32) sum to exactly 1 in binary floating point
    "piecewise": [{"weights": [16, 16]}, {"weights": [8, 16, 8]},
                  {"weights": [4, 12, 8, 8]}, {"weights": [2, 6, 12, 8, 4]}],
    "tabulated": [[[0.0, 0.5], [1.0, 1.5], [2.0, 0.8], [3.0, 0.3]],
                  [[0.5, 1.2], [1.0, 0.4], [2.5, 1.8], [3.0, 1.0], [4.5, 0.2]],
                  [[0.0, 0.2], [0.8, 2.0], [1.2, 1.9], [2.0, 0.6], [2.6, 1.1], [3.5, 0.4]],
                  [[0.2, 1.0], [1.5, 1.0], [2.0, 0.5], [4.0, 0.5]]],
}
SCALE_FAMILIES = ("exponential", "gamma", "pareto", "uniform")
SCALE_STRATA = 1.5  # decades per stratum
CURVE_POINTS = 12
JS_CURVE_POINTS = 4
CLAIM_POINTS = 3
LEMMA_POINTS = 2
CONSTANCY_POINTS = 8
GRID_CLAIMS = ("decomposition", "residual_bound", "past_bound")
LEMMA_CLAIMS = ("lemma1_residual", "lemma1_past")

# plane: fixed base cases, jittered per seed like the tsweep members, once
# each.  A pass takes about 7 s, so a run covers the deck four times or
# more and the part-pass at its end weighs little.  The pareto x beta
# product's Jw misses the 1e-6 tolerance once the beta's second shape is
# below about 0.695; at 0.68 that known failure is in every seed's deck.
BETA_SHAPES = [(0.9, 0.9, 0.9), (0.8, 1.5, 2.0), (2.0, 2.0, 0.85), (1.6, 1.1, 3.0),
               (3.0, 2.0, 1.5), (2.2, 1.4, 1.8), (0.85, 2.5, 1.4), (2.5, 0.9, 2.0)]
PRODUCT_PAIRS = [("exponential", 1, "uniform", 0), ("gamma", 0, "exponential", 2),
                 ("beta", 1, "pareto", 2), ("uniform", 1, "gamma", 2),
                 ("piecewise", 2, "exponential", 1),
                 ("pareto", 0, "beta", {"alpha": 4.0, "beta": 0.68})]
INDEPENDENCE_PAIRS = [("exponential", 0, "uniform", 2), ("gamma", 2, "beta", 1),
                      ("pareto", 3, "uniform", 1), ("uniform", 3, "gamma", 0),
                      ("beta", 2, "exponential", 3)]
SUM_PAIR_KINDS = ("exp+exp", "gamma+exp", "uniform+uniform", "exp+uniform") * 2

# cli: the call mix below is drawn CLI_REPEATS times per seed; two calls in
# 22 use an invalid spec.  Which requests fail depends on the families
# drawn; with two draws of the mix, one failure moves the correct share by
# 1/22, not 1/11.
CLI_REPEATS = 2
MC_SAMPLES = 20000


def _rng(workload: str, seed: int) -> random.Random:
    rng = random.Random(f"{workload}:{seed}")
    rng.jitter = JITTER[workload]
    return rng


def _r(v: float) -> float:
    """Round to 6 significant digits so specs read cleanly in failure listings."""
    return float(f"{v:.6g}")


def _geom(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


# -- univariate members ---------------------------------------------------------

def _jitter(rng, v):
    return _r(v * rng.uniform(1.0 - rng.jitter, 1.0 + rng.jitter))


def unit_member(rng, family, base=None):
    """Member ``base`` of a family, jittered: an index into its bases (default:
    a random one) or the parameters themselves."""
    bases = UNIT_BASES[family]
    if isinstance(base, dict):
        p = base
    else:
        p = bases[rng.randrange(len(bases)) if base is None else base]
    if family == "tabulated":
        x, f = [p[0][0]], [_jitter(rng, p[0][1])]
        for (x0, _), (x1, f1) in zip(p, p[1:]):
            x.append(_r(x[-1] + _jitter(rng, x1 - x0)))
            f.append(_jitter(rng, f1))
        return {"family": family, "grid": [[a, b] for a, b in zip(x, f)]}
    if family == "piecewise":
        return {"family": family, "params": {"weights": [c / 32 for c in p["weights"]]}}
    if family == "uniform":
        a = _jitter(rng, p["a"])
        return {"family": family, "params": {"a": a, "b": _r(a + _jitter(rng, p["b"] - p["a"]))}}
    return {"family": family, "params": {k: _jitter(rng, v) for k, v in p.items()}}


def scale_member(rng, family, log10_scale):
    """A member whose rate (exponential) or scale is 10**log10_scale; its
    other parameters are jittered unit-order bases."""
    s = _r(10.0 ** log10_scale)
    if family == "exponential":
        return {"family": family, "params": {"rate": s}}
    if family == "gamma":
        return {"family": family, "params": {"alpha": _jitter(rng, 2.0), "beta": s}}
    if family == "pareto":
        return {"family": family, "params": {"shape": _jitter(rng, 2.0), "scale": s}}
    if family == "uniform":
        a = _r(s * _jitter(rng, 0.5))
        return {"family": family, "params": {"a": a, "b": _r(a + s * _jitter(rng, 1.5))}}
    raise ValueError(family)


def t_range(spec):
    """(lo, hi) with F(lo) near 0.02 and sf(hi) near 1e-4, from cheap closed forms
    or approximations; every t the decks use lies inside."""
    fam = spec["family"]
    if fam == "tabulated":
        x0, x1 = spec["grid"][0][0], spec["grid"][-1][0]
        return x0 + 0.05 * (x1 - x0), x1 - 0.05 * (x1 - x0)
    p = spec["params"]
    if fam == "exponential":
        return -math.log(0.98) / p["rate"], math.log(1e4) / p["rate"]
    if fam == "uniform":
        w = p["b"] - p["a"]
        return p["a"] + 0.02 * w, p["a"] + 0.999 * w
    if fam == "gamma":
        al, sc = p["alpha"], p["beta"]
        lo = (0.02 * math.gamma(al + 1.0)) ** (1.0 / al)  # P(a, x) ~ x^a / Gamma(a+1)
        hi = al * (1.0 - 1.0 / (9.0 * al) + 3.719 / (3.0 * math.sqrt(al))) ** 3  # Wilson-Hilferty
        return sc * lo, sc * hi
    if fam == "beta":
        al, be = p["alpha"], p["beta"]
        b = math.exp(math.lgamma(al) + math.lgamma(be) - math.lgamma(al + be))
        lo = min((0.02 * al * b) ** (1.0 / al), 0.3)
        hi = max(1.0 - (1e-4 * be * b) ** (1.0 / be), 0.7)
        return lo, hi
    if fam == "pareto":
        k, sig = p["shape"], p["scale"]
        return sig * 0.98 ** (-1.0 / k), sig * 1e-4 ** (-1.0 / k)
    if fam == "piecewise":
        return 0.1, len(p["weights"]) - 0.1
    raise ValueError(fam)


def _interior(spec, fracs):
    """Points at the given fractions of the log-span of t_range."""
    lo, hi = t_range(spec)
    return [lo * (hi / lo) ** f for f in fracs]


def lemma_points(spec):
    """Interior t where the library's finite-difference stencil stays smooth.

    Piecewise and tabulated densities have kinks at their knots, so their
    points sit in the middle of a cell.
    """
    if spec["family"] == "piecewise":
        return [0.5, 1.5]
    if spec["family"] == "tabulated":
        x = [k[0] for k in spec["grid"]]
        cells = sorted(range(len(x) - 1), key=lambda i: x[i] - x[i + 1])[:2]
        return sorted(0.5 * (x[i] + x[i + 1]) for i in cells)
    return _interior(spec, (0.35, 0.6))


# -- decks ------------------------------------------------------------------------

def tsweep_deck(seed: int) -> list[dict]:
    rng = _rng("tsweep", seed)
    members = []
    for fam in FAMILIES:
        members += [(unit_member(rng, fam, i), False) for i in range(len(UNIT_BASES[fam]))]
    for i, fam in enumerate(SCALE_FAMILIES):
        for sign in (-1.0, 1.0):
            e = sign * (6.0 - SCALE_STRATA * (i + rng.random()))
            members.append((scale_member(rng, fam, e), True))
    deck = []
    for spec, scale in members:
        lo, hi = t_range(spec)
        base = {"spec": spec, "scale_range": scale}
        for mid in T_MEASURES:
            n = JS_CURVE_POINTS if mid == "dynamic_survival_extropy" else CURVE_POINTS
            deck.append({**base, "kind": "curve", "measure": mid, "grid": _geom(lo, hi, n)})
        for claim in GRID_CLAIMS:
            req = {**base, "kind": "claim", "claim": claim,
                   "grid": _interior(spec, (0.15, 0.4, 0.65)[:CLAIM_POINTS])}
            if claim == "past_bound":
                req["T"] = hi
            deck.append(req)
        for claim in LEMMA_CLAIMS:
            deck.append({**base, "kind": "claim", "claim": claim,
                         "grid": lemma_points(spec)[:LEMMA_POINTS]})
        if spec["family"] == "pareto":
            deck.append({**base, "kind": "constancy", "grid": _geom(lo, hi, CONSTANCY_POINTS)})
    rng.shuffle(deck)
    return _number("tsweep", deck)


def plane_deck(seed: int) -> list[dict]:
    rng = _rng("plane", seed)
    deck = []
    # Shapes below 1 give singular edges; all stay above 1/2, where both
    # measures are finite.
    for shapes in BETA_SHAPES:
        params = {k: _jitter(rng, v) for k, v in zip(("alpha", "beta", "gamma"), shapes)}
        spec = {"family": "bivariate_beta", "params": params}
        for mid in ("bivariate_extropy", "bivariate_weighted_extropy"):
            deck.append({"kind": "bivariate", "spec": spec, "measure": mid})
    for fx, bx, fy, by in PRODUCT_PAIRS:
        spec = {"family": "product", "x": unit_member(rng, fx, bx),
                "y": unit_member(rng, fy, by)}
        for mid in ("bivariate_extropy", "bivariate_weighted_extropy"):
            deck.append({"kind": "bivariate", "spec": spec, "measure": mid})
    for fx, bx, fy, by in INDEPENDENCE_PAIRS:
        deck.append({"kind": "independence", "x": unit_member(rng, fx, bx),
                     "y": unit_member(rng, fy, by)})
    for kind in SUM_PAIR_KINDS:
        deck.append({"kind": "sum_bound", **sum_pair(rng, kind)})
    rng.shuffle(deck)
    return _number("plane", deck)


def sum_pair(rng, kind):
    """A jittered pair whose convolution density the oracle knows in closed form."""
    def exp(rate):
        return {"family": "exponential", "params": {"rate": _jitter(rng, rate)}}

    def unif(a, w):
        a = _jitter(rng, a)
        return {"family": "uniform", "params": {"a": a, "b": _r(a + _jitter(rng, w))}}

    if kind == "exp+exp":
        return {"x": exp(1.0), "y": exp(1.6)}
    if kind == "gamma+exp":
        y = exp(1.0)
        return {"x": {"family": "gamma", "params": {"alpha": _jitter(rng, 2.0),
                                                     "beta": 1.0 / y["params"]["rate"]}},
                "y": y}
    if kind == "uniform+uniform":
        return {"x": unif(0.1, 1.0), "y": unif(0.5, 1.5)}
    if kind == "exp+uniform":
        return {"x": exp(1.2), "y": unif(0.3, 1.2)}
    raise ValueError(kind)


def _spec_arg(spec) -> str:
    return json.dumps(spec, separators=(",", ":"))


INVALID_SPECS = (
    {"family": "weibull", "params": {"k": 2}},
    {"family": "exponential", "params": {"rate": -1.0}},
    {"family": "gamma", "params": {"alpha": 2.0}},
    {"family": "uniform", "params": {"a": 3.0, "b": 1.0}},
)


def cli_deck(seed: int) -> list[dict]:
    rng = _rng("cli", seed)
    fams = ("exponential", "uniform", "gamma", "beta", "pareto", "piecewise", "tabulated")
    deck = []

    def call(argv, **extra):
        deck.append({"kind": "cli", "argv": argv, "expect_exit": 0, **extra})

    for _ in range(CLI_REPEATS):
        for _ in range(2):
            spec = unit_member(rng, rng.choice(fams))
            call(["measure", "--dist", _spec_arg(spec), "--measure",
                  "extropy,weighted_extropy"], spec=spec)
        for _ in range(2):
            spec = unit_member(rng, rng.choice(fams))
            t = _interior(spec, (rng.uniform(0.2, 0.8),))[0]
            call(["measure", "--dist", _spec_arg(spec), "--measure",
                  "residual_extropy,weighted_residual_extropy", "--t", repr(t),
                  "--method", "quadrature"], spec=spec)
        for _ in range(2):
            spec = unit_member(rng, rng.choice(fams))
            lo, hi = _interior(spec, (0.15, 0.85))
            call(["curve", "--dist", _spec_arg(spec), "--measure", rng.choice(T_MEASURES),
                  "--grid", f"{lo!r}:{hi!r}:5", "--method", "quadrature"], spec=spec)
        spec = unit_member(rng, rng.choice(("exponential", "uniform", "gamma", "beta", "pareto")))
        transform = rng.choice((f"scale:{_jitter(rng, 2.0)!r}",
                                f"affine:{_jitter(rng, 1.5)!r},{_jitter(rng, 0.5)!r}",
                                "square", "pit"))
        call(["transform", "--dist", _spec_arg(spec), "--transform", transform],
             spec=spec, transform=transform)
        shapes = {k: _jitter(rng, v) for k, v in zip(("alpha", "beta", "gamma"),
                                                     rng.choice(BETA_SHAPES))}
        bspec = {"family": "bivariate_beta", "params": shapes}
        call(["bivariate", "--dist", _spec_arg(bspec)], spec=bspec)
        spec = unit_member(rng, rng.choice(("exponential", "uniform", "gamma", "beta",
                                            "piecewise")))
        call(["mc", "--dist", _spec_arg(spec), "--n", str(MC_SAMPLES),
              "--seed", str(rng.randrange(10**6))], spec=spec)
        spec = unit_member(rng, rng.choice(("exponential", "uniform", "gamma", "beta", "pareto")))
        lo, hi = _interior(spec, (0.3, 0.7))
        call(["claims", "--dist", _spec_arg(spec), "--claims", "decomposition,residual_bound",
              "--grid", f"{lo!r}:{hi!r}:2"], spec=spec)
        bad = rng.choice(INVALID_SPECS)
        deck.append({"kind": "cli", "argv": ["measure", "--dist", _spec_arg(bad), "--measure",
                                              "extropy"], "expect_exit": 2, "invalid": True})
    rng.shuffle(deck)
    return _number("cli", deck)


def _number(workload, deck):
    for i, req in enumerate(deck):
        req["id"] = f"{workload}-{i:03d}"
    return deck


DECKS = {"tsweep": tsweep_deck, "plane": plane_deck, "cli": cli_deck}

# A fixed warm-up request per workload, so set-up time does not depend on the seed.
WARMUP = {
    "tsweep": {"id": "warmup", "kind": "curve", "measure": "weighted_residual_extropy",
               "spec": {"family": "gamma", "params": {"alpha": 2.0, "beta": 1.0}},
               "grid": [0.5, 1.0, 2.0, 4.0], "scale_range": False},
    "plane": {"id": "warmup", "kind": "bivariate", "measure": "bivariate_extropy",
              "spec": {"family": "bivariate_beta",
                       "params": {"alpha": 2.0, "beta": 2.0, "gamma": 2.0}}},
    "cli": {"id": "warmup", "kind": "cli", "expect_exit": 0,
            "argv": ["measure", "--dist", '{"family":"exponential","params":{"rate":1}}',
                     "--measure", "extropy"]},
}


# -- running one request ---------------------------------------------------------

def execute(req, ex):
    """Send one request through the public API; returns the raw results.

    ``ex`` is the imported ``extropy`` package.  Every call goes through a
    module attribute looked up at call time, so a tracer that rebinds those
    attributes sees it.
    """
    kind = req["kind"]
    if kind == "curve":
        dist = ex.distributions.make_distribution(req["spec"])
        return [ex.measures.compute_measure(dist, req["measure"], t, force_quadrature=True)
                for t in req["grid"]]
    if kind == "claim":
        dist = ex.distributions.make_distribution(req["spec"])
        claim = req["claim"]
        if claim == "decomposition":
            return [ex.measures.decomposition_check(dist, t) for t in req["grid"]]
        if claim == "past_bound":
            return [ex.claims.past_bound_check(dist, t, T=req["T"]) for t in req["grid"]]
        check = getattr(ex.claims, f"{claim}_check")
        return [check(dist, t) for t in req["grid"]]
    if kind == "constancy":
        dist = ex.distributions.make_distribution(req["spec"])
        return ex.claims.constancy_explorer(dist, req["grid"])
    if kind == "bivariate":
        bd = ex.bivariate.make_bivariate(req["spec"])
        fn = getattr(ex.bivariate, req["measure"])
        return fn(bd, force_quadrature=True)
    if kind == "independence":
        x = ex.distributions.make_distribution(req["x"])
        y = ex.distributions.make_distribution(req["y"])
        return ex.bivariate.independence_factorization_check(x, y)
    if kind == "sum_bound":
        x = ex.distributions.make_distribution(req["x"])
        y = ex.distributions.make_distribution(req["y"])
        return ex.claims.sum_bound_check(x, y)
    raise ValueError(kind)


def execute_cli_inprocess(req, cli):
    """Run one CLI request in this process (traced runs); returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(req["argv"]))
    return code, out.getvalue(), err.getvalue()


def summarize(req, raw) -> dict:
    """Flatten raw results into name -> number/str, the form checks and
    listings use.  Floats keep every digit."""
    kind = req["kind"]
    if kind == "curve":
        return {f"value[{i}]": mv.value for i, mv in enumerate(raw)}
    if kind == "claim":
        out = {}
        for i, rep in enumerate(raw):
            out[f"lhs[{i}]"] = rep.lhs
            out[f"rhs[{i}]"] = rep.rhs
            out[f"verdict[{i}]"] = rep.verdict
            if "fd_error" in rep.extras:
                out[f"fd_error[{i}]"] = rep.extras["fd_error"]
        return out
    if kind == "constancy":
        out = {f"value[{i}]": v for i, v in enumerate(raw.values)}
        out["reference"] = raw.reference
        out["spread"] = raw.spread
        return out
    if kind == "bivariate":
        return {"value": raw.value}
    if kind in ("independence", "sum_bound"):
        out = {"lhs": raw.lhs, "rhs": raw.rhs, "verdict": raw.verdict}
        for k in ("weighted_lhs", "weighted_rhs"):
            if k in raw.extras:
                out[k] = raw.extras[k]
        return out
    if kind == "cli":
        code, stdout, stderr = raw
        return {"exit": code, "stdout": stdout, "stderr": stderr}
    raise ValueError(kind)
