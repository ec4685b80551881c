"""Expected outputs of benchmark requests, and the check against them.

For each request, :func:`expect` builds the expected output from the
mpmath oracle: a mapping from the output names that
``workloads.summarize`` produces (or, for the CLI, from names into the
parsed JSON document) to an :class:`Expect`.  :func:`check` compares an
actual output with it.  Tolerances are the ones each layer states:
1e-8 (absolute or relative, whichever is larger) for measures, 1e-6 for
2-d and convolution integrals, and each claim's own decision rule for
verdicts.  A verdict whose oracle margin is inside the numerical
tolerance of its two sides accepts either outcome.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import mpmath as mp

import oracle as orc

HOLDS, VIOLATED, INDETERMINATE = "holds", "violated", "indeterminate"
TOL_M = orc.MEASURE_TOL
TOL_2D = orc.TOL_2D
BOUNDARY_EPS = 1e-12


@dataclass(frozen=True)
class Expect:
    value: object  # float (may be +-inf or nan), a frozenset of verdicts, or a str/int
    tol: float = 0.0

    def matches(self, got) -> bool:
        if isinstance(self.value, frozenset):
            return got in self.value
        if isinstance(self.value, (str, int)) and not isinstance(self.value, bool) \
                and not isinstance(self.value, float):
            return got == self.value
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return False
        ref = self.value
        if math.isnan(ref):
            return math.isnan(got)
        if math.isinf(ref):
            return got == ref
        return math.isfinite(got) and abs(got - ref) <= self.tol

    def as_json(self):
        if isinstance(self.value, frozenset):
            return sorted(self.value)
        return self.value


def _f(x) -> float:
    return float(x)


def _mtol(ref) -> float:
    ref = _f(ref)
    return TOL_M * max(1.0, abs(ref)) if math.isfinite(ref) else 0.0


def _value(ref, tol=None) -> Expect:
    ref = _f(ref)
    return Expect(ref, _mtol(ref) if tol is None else tol)


def _verdict(*allowed) -> Expect:
    return Expect(frozenset(allowed))


def _decide(margin, tol, yes, no):
    """Verdict set for a rule 'yes iff margin >= 0' known to +-tol."""
    margin = _f(margin)
    if abs(margin) <= tol:
        return _verdict(yes, no)
    return _verdict(yes if margin >= 0 else no)


NAN = Expect(math.nan)


# -- claims --------------------------------------------------------------------------

def _claim(fam, claim, t, T=None) -> dict:
    """Expected lhs, rhs and verdict of one claim check at time t."""
    t = mp.mpf(t)
    lo, hi = fam.support
    if claim == "decomposition":
        F, S = fam.cdf(t), fam.sf(t)
        if not (F > BOUNDARY_EPS and S > BOUNDARY_EPS):
            return {"lhs": NAN, "rhs": NAN, "verdict": _verdict(INDETERMINATE)}
        jw = orc.measure(fam, "weighted_extropy")
        jp = orc.measure(fam, "weighted_past_extropy", t)
        jr = orc.measure(fam, "weighted_residual_extropy", t)
        if -mp.inf in (jw, jp, jr):
            return {"lhs": _value(jw), "rhs": NAN, "verdict": _verdict(INDETERMINATE)}
        rhs = F**2 * jp + S**2 * jr
        tol = TOL_M * _f(F**2 * max(1, abs(jp)) + S**2 * max(1, abs(jr)))
        return {"lhs": _value(jw), "rhs": _value(rhs, tol), "verdict": _verdict(HOLDS)}
    if claim == "residual_bound":
        start = max(t, lo * (1 + mp.mpf(1e-12)))
        known = fam.hazard_nondecreasing
        if not (known if known is not None else
                orc.hazard_nondecreasing_on(fam, start, fam.quantile(mp.mpf("0.999")))):
            return {"lhs": NAN, "rhs": NAN, "verdict": _verdict(INDETERMINATE)}
        lhs = orc.measure(fam, "weighted_residual_extropy", t)
        js = orc.measure(fam, "dynamic_survival_extropy", t)
        if lhs == -mp.inf or js == -mp.inf:
            return {"lhs": _value(lhs), "rhs": NAN, "verdict": _verdict(INDETERMINATE)}
        r = fam.hazard(t)
        rhs = t * r**2 * js
        tol_r = _f(t * r**2) * TOL_M * max(1.0, abs(_f(js)))
        return {"lhs": _value(lhs), "rhs": _value(rhs, tol_r),
                "verdict": _decide(rhs + mp.mpf(1e-8) - lhs, _mtol(lhs) + tol_r, HOLDS, VIOLATED)}
    if claim == "past_bound":
        lhs = orc.measure(fam, "weighted_past_extropy", t)
        q = fam.reversed_hazard(t)
        claimed = -t * q**2 / 2
        out = {"lhs": _value(lhs), "rhs": _value(claimed, 1e-10 * max(1.0, abs(_f(claimed))))}
        if not orc.reversed_hazard_nondecreasing_on(fam, lambda: fam.quantile(mp.mpf("1e-6")), T):
            out["verdict"] = _verdict(INDETERMINATE)
        else:
            out["verdict"] = _decide(lhs - claimed + mp.mpf(1e-8), _mtol(lhs), HOLDS, VIOLATED)
        return out
    if claim in ("lemma1_residual", "lemma1_past"):
        if claim == "lemma1_residual":
            d = orc.residual_derivative(fam, t)
            rate, jw = fam.hazard(t), orc.measure(fam, "weighted_residual_extropy", t)
        else:
            d = orc.past_derivative(fam, t)
            rate, jw = fam.reversed_hazard(t), orc.measure(fam, "weighted_past_extropy", t)
        tol_rhs = 2 * _f(abs(rate)) * _mtol(jw) + 1e-12 * abs(_f(d))
        # lhs is a Ridders derivative: the claim accepts max(1e-5, 10 x its own
        # error estimate), checked against the reported estimate in check().
        return {"lhs": Expect(_f(d), 1e-5), "rhs": _value(d, tol_rhs),
                "verdict": _verdict(HOLDS)}
    raise ValueError(claim)


# -- per-request expectations ----------------------------------------------------------

def expect(req) -> dict:
    kind = req["kind"]
    if kind == "curve":
        fam = orc.family(req["spec"])
        return {f"value[{i}]": _value(orc.measure(fam, req["measure"], t))
                for i, t in enumerate(req["grid"])}
    if kind == "claim":
        fam = orc.family(req["spec"])
        out = {}
        for i, t in enumerate(req["grid"]):
            for k, v in _claim(fam, req["claim"], t, req.get("T")).items():
                out[f"{k}[{i}]"] = v
        return out
    if kind == "constancy":
        fam = orc.family(req["spec"])
        k = _f(req["spec"]["params"]["shape"])
        out = {f"value[{i}]": _value(orc.measure(fam, "weighted_residual_extropy", t))
               for i, t in enumerate(req["grid"])}
        out["reference"] = Expect(-k / 4.0, 1e-15)
        out["spread"] = Expect(0.0, 2 * _mtol(k / 4.0))
        return out
    if kind == "bivariate":
        spec, mid = req["spec"], req["measure"]
        if spec["family"] == "bivariate_beta":
            p = spec["params"]
            ref = orc.bivariate_beta(p["alpha"], p["beta"], p["gamma"], mid)
        else:
            ref = orc.product(orc.family(spec["x"]), orc.family(spec["y"]), mid)
        return {"value": Expect(_f(ref), TOL_2D * max(1.0, abs(_f(ref))))}
    if kind == "independence":
        fx, fy = orc.family(req["x"]), orc.family(req["y"])
        out = {}
        for prefix, mid in (("", "extropy"), ("weighted_", "weighted_extropy")):
            jx, jy = orc.measure(fx, mid), orc.measure(fy, mid)
            if -mp.inf in (jx, jy):
                return {"lhs": NAN, "rhs": NAN, "verdict": _verdict(INDETERMINATE)}
            ref = jx * jy
            out[f"{prefix}lhs"] = Expect(_f(ref), TOL_2D * max(1.0, abs(_f(ref))))
            out[f"{prefix}rhs"] = _value(ref, _f(abs(jy)) * _mtol(jx) + _f(abs(jx)) * _mtol(jy))
        out["verdict"] = _verdict(HOLDS)
        return out
    if kind == "sum_bound":
        fx, fy = orc.family(req["x"]), orc.family(req["y"])
        jx, jy = orc.measure(fx, "extropy"), orc.measure(fy, "extropy")
        wx, wy = orc.measure(fx, "weighted_extropy"), orc.measure(fy, "weighted_extropy")
        rhs = -2 * (jx * wy + wx * jy)
        tol_r = 2 * (_f(abs(wy)) * _mtol(jx) + _f(abs(jx)) * _mtol(wy)
                     + _f(abs(jy)) * _mtol(wx) + _f(abs(wx)) * _mtol(jy))
        lhs = orc.sum_weighted_extropy(req["x"], req["y"])
        tol_l = TOL_2D * max(1.0, abs(_f(lhs)))
        return {"lhs": Expect(_f(lhs), tol_l), "rhs": _value(rhs, tol_r),
                "verdict": _decide(lhs - rhs + mp.mpf(1e-6), tol_l + tol_r, HOLDS, VIOLATED)}
    if kind == "cli":
        return _expect_cli(req)
    raise ValueError(kind)


def _linspace(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _grid_arg(argv):
    lo, hi, n = argv[argv.index("--grid") + 1].split(":")
    return _linspace(float(lo), float(hi), int(n))


def _expect_cli(req) -> dict:
    argv = req["argv"]
    if req.get("invalid"):
        return {"exit": Expect(req["expect_exit"]), "stdout": Expect(""),
                "stderr.type": Expect("validation")}
    out = {"exit": Expect(req["expect_exit"])}
    cmd = argv[0]
    fam = orc.family(req["spec"]) if cmd != "bivariate" else None
    if cmd == "measure":
        mids = argv[argv.index("--measure") + 1].split(",")
        t = float(argv[argv.index("--t") + 1]) if "--t" in argv else None
        for i, mid in enumerate(mids):
            out[f"rows[{i}].measure"] = Expect(mid)
            out[f"rows[{i}].value"] = _value(orc.measure(fam, mid, t))
    elif cmd == "curve":
        mid = argv[argv.index("--measure") + 1]
        for i, t in enumerate(_grid_arg(argv)):
            out[f"rows[{i}].t"] = Expect(t, 1e-14 * abs(t))
            out[f"rows[{i}].value"] = _value(orc.measure(fam, mid, t))
            out[f"rows[{i}].error"] = Expect("")
    elif cmd == "transform":
        tr = req["transform"]
        j, jw = orc.measure(fam, "extropy"), orc.measure(fam, "weighted_extropy")
        if tr.startswith(("scale:", "affine:")):
            parts = [float(v) for v in tr.split(":", 1)[1].split(",")]
            a, b = parts[0], (parts[1] if len(parts) > 1 else 0.0)
            jw_y, j_y = jw + (mp.mpf(b) / a) * j, j / a
            rows = [("weighted_extropy_xdomain", jw_y), ("weighted_extropy_pushforward", jw_y),
                    ("extropy_linear_rule", j_y), ("weighted_extropy_linear_rule", jw_y),
                    ("extropy_pushforward", j_y)]
        else:
            # square: phi/phi' = x/2;  pit: phi/phi' = F/f and int F f = 1/2.
            jw_y = jw / 2 if tr == "square" else mp.mpf(-0.25)
            rows = [("weighted_extropy_xdomain", jw_y), ("weighted_extropy_pushforward", jw_y)]
        for i, (name, ref) in enumerate(rows):
            out[f"rows[{i}].quantity"] = Expect(name)
            out[f"rows[{i}].value"] = _value(ref)
    elif cmd == "bivariate":
        p = req["spec"]["params"]
        for i, mid in enumerate(("bivariate_extropy", "bivariate_weighted_extropy")):
            ref = orc.bivariate_beta(p["alpha"], p["beta"], p["gamma"], mid)
            out[f"rows[{i}].measure"] = Expect(mid)
            out[f"rows[{i}].value"] = Expect(_f(ref), TOL_2D * max(1.0, abs(_f(ref))))
    elif cmd == "mc":
        for i, mid in enumerate(("extropy", "weighted_extropy")):
            ref = orc.measure(fam, mid)
            out[f"rows[{i}].measure"] = Expect(mid)
            out[f"rows[{i}].reference"] = _value(ref)
            # estimate: within 6 standard errors, checked in check()
            out[f"rows[{i}].estimate"] = Expect(_f(ref), math.inf)
    elif cmd == "claims":
        claims = argv[argv.index("--claims") + 1].split(",")
        ts = _grid_arg(argv)
        i = 0
        for claim in claims:
            for t in ts:
                out[f"rows[{i}].claim"] = Expect(claim)
                out[f"rows[{i}].t"] = Expect(t, 1e-14 * abs(t))
                for k, v in _claim(fam, claim, t).items():
                    out[f"rows[{i}].{k}"] = v
                i += 1
    else:
        raise ValueError(cmd)
    return out


# -- checking ------------------------------------------------------------------------

def _cli_value(v):
    if v in ("-inf", "inf", "nan"):
        return float(v)
    return v


def flatten_cli(output) -> dict:
    """Output of a CLI request as name -> value (rows[i].field, exit, stderr.type)."""
    flat = {"exit": output["exit"], "stdout": output["stdout"]}
    if output["exit"] == 0:
        doc = json.loads(output["stdout"])
        for i, row in enumerate(doc.get("rows", [])):
            for k, v in row.items():
                flat[f"rows[{i}].{k}"] = _cli_value(v)
    else:
        try:
            flat["stderr.type"] = json.loads(output["stderr"])["error"]["type"]
        except (ValueError, KeyError, TypeError):
            flat["stderr.type"] = None
    return flat


def check(req, output, expected) -> list[str]:
    """Problems found in one output; empty when the output is correct."""
    got = output
    if req["kind"] == "cli" and output["exit"] in (0, 2):
        try:
            got = flatten_cli(output)
        except ValueError as exc:
            return [f"stdout is not a JSON document: {exc}"]
    lemma = req.get("claim", "").startswith("lemma1")
    problems = []
    for name, exp in expected.items():
        if name not in got:
            problems.append(f"{name}: missing")
            continue
        value = got[name]
        if name.endswith(".estimate"):
            se = got.get(name[: -len("estimate")] + "std_error")
            # a constant integrand (a uniform density) gives se == 0 and
            # an exact estimate
            ok = isinstance(value, float) and isinstance(se, float) and se >= 0 \
                and abs(value - exp.value) <= 6.0 * se + 1e-12
        elif lemma and name.startswith("lhs["):
            # the claim's own rule: max(1e-5, 10 x the reported Ridders error)
            fd_err = got.get("fd_error" + name[3:], math.inf)
            ok = isinstance(value, float) and math.isfinite(value) \
                and abs(value - exp.value) <= max(exp.tol, 10.0 * fd_err)
        else:
            ok = exp.matches(value)
        if not ok:
            problems.append(f"{name}: got {value!r}, expected {exp.as_json()!r}"
                            + (f" +- {exp.tol:.3g}" if exp.tol else ""))
    return problems
