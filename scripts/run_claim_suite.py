#!/usr/bin/env python3
"""Sweep every claim check across the distribution catalog.

Writes one row per claim x distribution x time point, in the row format of
``extropy claims``, and prints a verdict summary.  The sweep exercises
exactly what the library computes: no claim is assumed, each is evaluated
numerically.
"""

import argparse
import json
import warnings

from extropy import claims, measures
from extropy.distributions import (
    beta_dist,
    exponential,
    gamma_dist,
    pareto,
    piecewise,
    uniform,
)

MEMBERS = [
    exponential(1.0),
    uniform(0.0, 2.0),
    gamma_dist(2.0, 1.0),
    beta_dist(2.0, 1.5),
    piecewise([0.3, 0.7]),
    pareto(2.0, 1.0),
]

PAIRS = [
    (exponential(1.0), exponential(1.0)),
    (uniform(0.0, 1.0), uniform(0.0, 1.0)),
    (exponential(1.0), uniform(0.0, 1.0)),
    (gamma_dist(2.0, 1.0), exponential(2.0)),
]

CONSTANCY_GRID = [1.5, 2.0, 3.0, 5.0]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=5, help="t-grid size per member")
    ap.add_argument("--out", default="claim_report.json")
    args = ap.parse_args()

    warnings.simplefilter("ignore", RuntimeWarning)
    rows = []
    for claim_id, spec in claims.CLAIMS.items():
        if spec.pair:
            for x, y in PAIRS:
                rows += claims.claim_rows(claim_id, (x, y), None)
        elif spec.t_indexed:
            rows += claims.claim_rows(
                claim_id, MEMBERS, lambda d: measures.default_t_grid(d, args.points))
    rows += claims.claim_rows("constancy", [pareto(1.0, 1.0), pareto(2.0, 1.0)],
                              lambda d: CONSTANCY_GRID)
    ode = claims.ConstancyODEFamily(1.0, 1.0)
    rows.append(claims.claim_row(claims.constancy_claim(ode, [0.5, 0.8, 1.2, 1.5]),
                                 repr(ode), None))

    counts = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"summary": counts, "rows": rows}, fh, indent=2, default=str)

    print(f"{len(rows)} claim evaluations -> {args.out}")
    for verdict, n in sorted(counts.items()):
        print(f"  {verdict:15s} {n}")
    violated = [r for r in rows if r["verdict"] == "violated"]
    if violated:
        print("violated claims:")
        for r in violated:
            print(f"  {r['claim']:12s} {r['dist']:40s} lhs={r['lhs']:.6g} "
                  f"rhs={r['rhs']:.6g}")


if __name__ == "__main__":
    main()
