"""Command-line front end.

Subcommands: measure | curve | bivariate | transform | claims | mc.  Each
takes only the options its handler reads (``_COMMANDS``), plus --format
and --out.  Distribution specs are JSON documents, inline or in a file; see
the distributions and bivariate modules for the schemas.  Output is a table
in JSON or CSV (12 significant digits in CSV; -inf rendered as the literal
string "-inf" in both).  Exit codes: 0 success, 2 validation error (usage
errors and unwritable --out paths included), 3 numerical failure, 4 claim
violations present under --strict; 2 and 3 come with a JSON error document
on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import claims as cl
from . import distributions as ds
from . import measures as ms
from . import transforms as tf
from .bivariate import BIVARIATE_MEASURE_IDS, OUTER_TOL, compute_bivariate, make_bivariate
from .quadrature import (
    DEFAULT_TOL,
    DivergenceUndecidedError,
    EvaluationBudgetError,
    EvaluationError,
)
from .reporting import VIOLATED

__all__ = ["main"]

# Every option any subcommand takes; the flag is --<name>.
_OPTIONS = {
    "dist": dict(action="append", default=[],
                 help="distribution spec: inline JSON or a path to a JSON file "
                      "(claims: repeatable, X then Y for a pair claim)"),
    "measure": dict(default=None, help="comma-separated measure identifiers"),
    "t": dict(type=float, default=None, help="conditioning time"),
    "grid": dict(default=None, help="t-grid: lo:hi:n (linear) or geometric:lo:hi:n"),
    "claims": dict(default=None, help="comma-separated claim identifiers"),
    "transform": dict(default=None,
                      help="transform name: scale:a | affine:a,b | square | exp | pit"),
    "tol": dict(type=float, default=None, help="tolerance override (>= 1e-12)"),
    "seed": dict(type=int, default=0, help="RNG seed"),
    "n": dict(type=int, default=10**6, help="Monte-Carlo sample count"),
    "strict": dict(action="store_true",
                   help="exit 4 when any claim verdict is 'violated'"),
    "method": dict(choices=("auto", "quadrature"), default="auto",
                   help="force the quadrature path instead of closed forms"),
    "format": dict(dest="fmt", choices=("json", "csv"), default="json"),
    "out": dict(default=None, help="output path (default stdout)"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors become validation errors: exit 2 with the JSON document."""

    def error(self, message):
        raise ds.ValidationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="extropy",
        description="Extropy-family information measures for lifetime distributions.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_, _, options) in _COMMANDS.items():
        # No prefix matching: "bivariate --t" must not pass as --tol.
        q = sub.add_parser(name, help=help_, allow_abbrev=False)
        for opt in (*options, "format", "out"):
            q.add_argument(f"--{opt}", **_OPTIONS[opt])
    return p


def _ids(text: str | None) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip()) if text else ()


def _tol(args: argparse.Namespace, default: float) -> float:
    """The --tol override, or ``default`` when it is absent."""
    if args.tol is None:
        return default
    if not args.tol >= 1e-12:
        raise ds.ValidationError("tolerance override must be >= 1e-12")
    return args.tol


def _load_spec(text: str) -> dict:
    s = text.strip()
    if s.startswith("{"):
        try:
            return json.loads(s)
        except json.JSONDecodeError as exc:
            raise ds.ValidationError(f"invalid inline JSON spec: {exc}") from exc
    try:
        with open(s, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ds.ValidationError(f"cannot read spec file {s!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ds.ValidationError(f"invalid JSON in spec file {s!r}: {exc}") from exc


def _one_dist(args: argparse.Namespace) -> ds.UnivariateDistribution:
    if len(args.dist) != 1:
        raise ds.ValidationError(
            f"command {args.command!r} needs exactly one --dist, got {len(args.dist)}")
    return ds.make_distribution(_load_spec(args.dist[0]))


def _parse_grid(args: argparse.Namespace, dist) -> np.ndarray:
    if args.grid is None:
        if args.t is not None:
            return np.asarray([args.t])
        return ms.default_t_grid(dist)
    spec = args.grid
    geometric = spec.startswith("geometric:")
    body = spec.split(":", 1)[1] if geometric else spec
    parts = body.split(":")
    if len(parts) != 3:
        raise ds.ValidationError(
            f"grid spec {spec!r} must be lo:hi:n or geometric:lo:hi:n")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ds.ValidationError(f"grid spec {spec!r} has non-numeric fields") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ds.ValidationError(f"grid spec {spec!r} needs finite lo and hi")
    if not (lo < hi and n >= 2):
        raise ds.ValidationError("grid needs lo < hi and n >= 2")
    if geometric:
        if lo <= 0:
            raise ds.ValidationError("geometric grid needs lo > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


# -- value rendering -----------------------------------------------------------

def _json_value(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "-inf" if v < 0 else "inf"
        if math.isnan(v):
            return "nan"
    return v


def _render_json(meta: dict, rows: list[dict]) -> str:
    doc = {**meta, "rows": [{k: _json_value(v) for k, v in r.items()} for r in rows]}
    return json.dumps(doc, indent=2) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, dict):
        return json.dumps({k: _json_value(x) for k, x in sorted(v.items())})
    return "" if v is None else str(v)


def _render_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    fields = list(rows[0].keys())
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(fields)
    for r in rows:
        w.writerow([_csv_cell(r.get(k)) for k in fields])
    return buf.getvalue()


def _mv_row(mv: ms.MeasureValue) -> dict:
    return {"value": mv.value, "abs_error": mv.abs_error,
            "method": mv.method, "diverged": mv.diverged}


# -- subcommands ---------------------------------------------------------------

def _cmd_measure(args: argparse.Namespace):
    tol = _tol(args, DEFAULT_TOL)
    dist = _one_dist(args)
    measures = _ids(args.measure)
    if not measures:
        raise ds.ValidationError(
            f"--measure required; valid measures: {', '.join(ms.MEASURE_IDS)}")
    force = args.method == "quadrature"
    rows = []
    for mid in measures:
        mv = ms.compute_measure(dist, mid, t=args.t, force_quadrature=force, tol=tol)
        rows.append({"measure": mid, **_mv_row(mv)})
    return {"command": "measure", "dist": dist.label}, rows


def _cmd_curve(args: argparse.Namespace):
    tol = _tol(args, DEFAULT_TOL)
    dist = _one_dist(args)
    measures = _ids(args.measure)
    if len(measures) != 1:
        raise ds.ValidationError(
            "curve needs exactly one --measure; t-indexed measures: "
            + ", ".join(ms.T_INDEXED_MEASURES))
    mid = measures[0]
    if mid not in ms.T_INDEXED_MEASURES:
        raise ds.ValidationError(
            f"{mid!r} is not t-indexed; t-indexed measures: "
            + ", ".join(ms.T_INDEXED_MEASURES))
    force = args.method == "quadrature"
    rows = []
    for t in _parse_grid(args, dist):
        row = {"t": float(t), "value": None, "abs_error": None,
               "method": None, "diverged": None, "error": ""}
        try:
            mv = ms.compute_measure(dist, mid, t=float(t), force_quadrature=force, tol=tol)
            row.update(_mv_row(mv))
        except (ms.DomainError, ds.ValidationError) as exc:
            row["error"] = str(exc)
        rows.append(row)
    return {"command": "curve", "dist": dist.label, "measure": mid}, rows


def _cmd_bivariate(args: argparse.Namespace):
    tol = _tol(args, OUTER_TOL)
    if len(args.dist) != 1:
        raise ds.ValidationError("bivariate needs exactly one --dist (a bivariate spec)")
    bd = make_bivariate(_load_spec(args.dist[0]))
    force = args.method == "quadrature"
    rows = []
    for mid in _ids(args.measure) or BIVARIATE_MEASURE_IDS:
        mv = compute_bivariate(bd, mid, force_quadrature=force, tol=tol)
        rows.append({"measure": mid, **_mv_row(mv)})
    return {"command": "bivariate", "dist": bd.label}, rows


def _cmd_transform(args: argparse.Namespace):
    dist = _one_dist(args)
    if not args.transform:
        raise ds.ValidationError(
            "--transform required; vocabulary: " + ", ".join(tf.TRANSFORM_VOCABULARY))
    tr = tf.transform_from_name(args.transform, dist)
    rows = []
    xdom = tf.transformed_weighted_extropy(dist, tr)
    rows.append({"quantity": "weighted_extropy_xdomain", **_mv_row(xdom)})
    pushed = tf.pushforward_distribution(dist, tr)
    direct = ms.weighted_extropy(pushed, force_quadrature=True)
    rows.append({"quantity": "weighted_extropy_pushforward", **_mv_row(direct)})
    if args.transform.startswith(("scale:", "affine:")):
        a, b = (tr.phi(np.asarray(1.0)) - tr.phi(np.asarray(0.0)),
                tr.phi(np.asarray(0.0)))
        j, jw = tf.linear_transform_extropy(dist, float(a), float(b))
        rows.append({"quantity": "extropy_linear_rule", **_mv_row(j)})
        rows.append({"quantity": "weighted_extropy_linear_rule", **_mv_row(jw)})
        direct_j = ms.extropy(pushed, force_quadrature=True)
        rows.append({"quantity": "extropy_pushforward", **_mv_row(direct_j)})
    if args.t is not None:
        res, past = tf.transformed_residual_past(dist, tr, args.t)
        rows.append({"quantity": "weighted_residual_extropy_xdomain", **_mv_row(res)})
        rows.append({"quantity": "weighted_past_extropy_xdomain", **_mv_row(past)})
    return {"command": "transform", "dist": dist.label, "transform": tr.label}, rows


def _cmd_claims(args: argparse.Namespace):
    wanted = _ids(args.claims) or cl.CLAIM_IDS
    unknown = [c for c in wanted if c not in cl.CLAIM_IDS]
    if unknown:
        raise ds.ValidationError(
            f"unknown claims: {', '.join(unknown)}; valid: {', '.join(cl.CLAIM_IDS)}")
    if not args.dist:
        raise ds.ValidationError("claims needs at least one --dist")
    dists = [ds.make_distribution(_load_spec(s)) for s in args.dist]
    rows = []
    for claim in wanted:
        if cl.CLAIMS[claim].pair and len(dists) != 2:
            raise ds.ValidationError(
                f"claim {claim!r} needs exactly two --dist (X then Y)")
        rows += cl.claim_rows(claim, dists, lambda dist: _parse_grid(args, dist))
    summary = {"holds": sum(r["verdict"] == "holds" for r in rows),
               "violated": sum(r["verdict"] == VIOLATED for r in rows),
               "indeterminate": sum(r["verdict"] == "indeterminate" for r in rows)}
    return {"command": "claims", "summary": summary}, rows


def _cmd_mc(args: argparse.Namespace):
    if len(args.dist) != 1:
        raise ds.ValidationError("mc needs exactly one --dist")
    spec = _load_spec(args.dist[0])
    if args.n < 2:
        raise ds.ValidationError("mc needs --n >= 2")
    rng = np.random.default_rng(args.seed)
    rows = []
    if isinstance(spec, dict) and spec.get("family") in ("bivariate_beta", "product"):
        bd = make_bivariate(spec)
        xs, ys = bd.sampler(rng, args.n)
        fvals = bd.pdf_pairs(xs, ys)
        for mid in _ids(args.measure) or BIVARIATE_MEASURE_IDS:
            ref = compute_bivariate(bd, mid, force_quadrature=True)
            samples = 0.25 * fvals if mid == "bivariate_extropy" else 0.25 * xs * ys * fvals
            rows.append(_mc_row(mid, samples, ref))
        label = bd.label
    else:
        dist = ds.make_distribution(spec)
        wanted = _ids(args.measure) or ("extropy", "weighted_extropy")
        bad = [m for m in wanted if m not in ("extropy", "weighted_extropy")]
        if bad:
            raise ds.ValidationError(
                "mc estimators exist for extropy and weighted_extropy "
                f"(got {', '.join(bad)})")
        xs = dist.sample(rng, args.n)
        fvals = dist.pdf(xs)
        for mid in wanted:
            samples = -0.5 * fvals if mid == "extropy" else -0.5 * xs * fvals
            ref = ms.compute_measure(dist, mid, force_quadrature=True)
            rows.append(_mc_row(mid, samples, ref))
        label = dist.label
    return {"command": "mc", "dist": label, "n": args.n, "seed": args.seed}, rows


def _mc_row(mid: str, samples: np.ndarray, ref: ms.MeasureValue) -> dict:
    if ref.diverged:
        return {"measure": mid, "estimate": None, "reference": ref.value,
                "std_error": None, "z": None,
                "note": "reference diverged; mc skipped"}
    est = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(samples.size))
    # A numerically constant estimator has no meaningful standardized gap.
    if se <= 1e-13 * max(1.0, abs(est)):
        z = 0.0
    else:
        z = (est - ref.value) / se
    return {"measure": mid, "estimate": est, "reference": ref.value,
            "std_error": se, "z": z, "note": ""}


# name -> (help, handler, the options its handler reads besides format and out)
_COMMANDS = {
    "measure": ("compute measures of one distribution", _cmd_measure,
                ("dist", "measure", "t", "tol", "method")),
    "curve": ("tabulate a t-indexed measure over a grid", _cmd_curve,
              ("dist", "measure", "t", "grid", "tol", "method")),
    "bivariate": ("bivariate extropy measures of a joint distribution", _cmd_bivariate,
                  ("dist", "measure", "tol", "method")),
    "transform": ("measures under a monotone transform", _cmd_transform,
                  ("dist", "transform", "t")),
    "claims": ("run claim checks", _cmd_claims,
               ("dist", "claims", "t", "grid", "strict")),
    "mc": ("Monte-Carlo estimates against quadrature references", _cmd_mc,
           ("dist", "measure", "seed", "n")),
}


def _emit_error(kind: str, exc: Exception) -> None:
    doc = {"error": {"type": kind, "class": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(doc) + "\n")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        meta, rows = _COMMANDS[args.command][1](args)
        text = _render_json(meta, rows) if args.fmt == "json" else _render_csv(rows)
        if not args.out:
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ds.ValidationError(f"cannot write --out {args.out!r}: {exc}") from exc
    except (ds.ValidationError, ms.DomainError) as exc:
        _emit_error("validation", exc)
        return 2
    except (EvaluationBudgetError, DivergenceUndecidedError, EvaluationError,
            cl.InversionError, cl.ResolutionError) as exc:
        _emit_error("numerical", exc)
        return 3
    if args.command == "claims" and args.strict:
        if any(r.get("verdict") == VIOLATED for r in rows):
            return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
