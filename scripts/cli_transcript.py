#!/usr/bin/env python3
"""Record or check the CLI transcript pinned in ``tests/cli_transcript.json``.

The transcript holds, for a fixed list of ``extropy`` invocations, the
argv, the exit code and the exact stdout and stderr, together with the
numpy version it was taken with (the panel rule reduces with a matrix
product, so last digits can depend on the BLAS build).  The calls cover
the README examples, ``measure`` of every id on one member per family
(closed form and ``--method quadrature``), ``curve --method quadrature``
of every t-indexed id, ``claims`` with each claim id, ``bivariate``,
``transform`` with each vocabulary entry, ``mc``, a ``measure`` and a
``bivariate`` call at ``--tol 1e-4``, ``residual_bound`` past the support,
and the exit-2 and exit-3 error documents.
Each call runs in-process through ``extropy.cli.main``.

    PYTHONPATH=src python scripts/cli_transcript.py          # compare, exit 1 on a diff
    PYTHONPATH=src python scripts/cli_transcript.py --write  # regenerate the file

``tests/test_cli_transcript.py`` replays the file and never writes it, so
a change that moves a digit shows as a diff of the file in review.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from extropy import cli

TRANSCRIPT = Path(__file__).resolve().parents[1] / "tests" / "cli_transcript.json"

EXP1 = '{"family":"exponential","params":{"rate":1}}'
GAMMA = '{"family":"gamma","params":{"alpha":2,"beta":1}}'
PARETO = '{"family":"pareto","params":{"shape":2,"scale":1}}'
UNIFORM = '{"family":"uniform","params":{"a":0,"b":1}}'
# Numerical failures (exit 3): past_extropy of this pareto member raises
# "tolerance unreachable" at t of 1e12 and more, and at this exponential
# rate the power-law fit of the mapped tail cannot classify its end.
PARETO_WIDE = '{"family":"pareto","params":{"shape":0.3,"scale":1}}'
EXP_UNDECIDED = '{"family":"exponential","params":{"rate":0.000631}}'

# One member per family, each with t = 0.7 inside its support.
FAMILY_MEMBERS = {
    "exponential": EXP1,
    "uniform": '{"family":"uniform","params":{"a":0.5,"b":3}}',
    "gamma": GAMMA,
    "beta": '{"family":"beta","params":{"alpha":2,"beta":1.5}}',
    "piecewise": '{"family":"piecewise","params":{"weights":[0.3,0.7]}}',
    "pareto": '{"family":"pareto","params":{"shape":2,"scale":0.5}}',
    "tabulated": '{"family":"tabulated","grid":[[0,0.5],[1,1.5],[2,0.5],[3,0.1]]}',
}
MEASURE_IDS = ("extropy", "weighted_extropy", "residual_extropy", "past_extropy",
               "weighted_residual_extropy", "weighted_past_extropy",
               "dynamic_survival_extropy")
T_INDEXED = MEASURE_IDS[2:]
CLAIM_IDS = ("decomposition", "residual_bound", "past_bound", "sum_bound",
             "independence_factorization", "lemma1_residual", "lemma1_past", "constancy")
PAIR_CLAIMS = ("sum_bound", "independence_factorization")
# Each vocabulary entry, with a time t inside its image of gamma(2, 1).
TRANSFORMS = {"scale:2": "1.5", "affine:2,3": "5", "square": "1.5", "exp": "3", "pit": "0.5"}
BIVARIATE = {
    "bivariate_beta": '{"family":"bivariate_beta","params":{"alpha":1,"beta":1,"gamma":1}}',
    "product_exp_unif": f'{{"family":"product","x":{EXP1},"y":{UNIFORM}}}',
    "product_gamma_beta": ('{"family":"product","x":' + GAMMA + ',"y":'
                           '{"family":"beta","params":{"alpha":2,"beta":1.5}}}'),
}


def calls() -> list[tuple[str, list[str]]]:
    """(name, argv) of every pinned invocation."""
    out = [
        ("readme-measure", ["measure", "--dist", EXP1, "--measure", "weighted_extropy,extropy"]),
        ("readme-curve", ["curve", "--dist", EXP1, "--measure", "weighted_residual_extropy",
                          "--grid", "0.5:5:10", "--format", "csv"]),
        ("readme-bivariate", ["bivariate", "--dist", BIVARIATE["bivariate_beta"]]),
        ("readme-transform", ["transform", "--dist", EXP1, "--transform", "affine:2,3"]),
        ("readme-claims", ["claims", "--dist", EXP1, "--claims",
                           "residual_bound,decomposition", "--grid", "0.5:3:5"]),
        ("readme-claims-pair", ["claims", "--dist", EXP1, "--dist", EXP1,
                                "--claims", "sum_bound"]),
        ("readme-mc", ["mc", "--dist", EXP1, "--measure", "weighted_extropy",
                       "--n", "1000000", "--seed", "42"]),
        # The README draws 10^6 gamma samples, about a second of quantile
        # iterations, so the pinned call draws 2 * 10^4.
        ("readme-mc-gamma", ["mc", "--dist", GAMMA, "--n", "20000", "--seed", "0"]),
        ("readme-curve-gamma", ["curve", "--dist", GAMMA, "--measure",
                                "dynamic_survival_extropy", "--format", "csv"]),
    ]
    for family, spec in FAMILY_MEMBERS.items():
        for method in ("auto", "quadrature"):
            out.append((f"measure-{family}-{method}",
                        ["measure", "--dist", spec, "--measure", ",".join(MEASURE_IDS),
                         "--t", "0.7", "--method", method]))
    for mid in T_INDEXED:
        out.append((f"curve-{mid}", ["curve", "--dist", GAMMA, "--measure", mid,
                                     "--method", "quadrature"]))
    for claim in CLAIM_IDS:
        if claim in PAIR_CLAIMS:
            dists = ["--dist", EXP1, "--dist", UNIFORM]
        elif claim == "constancy":
            dists = ["--dist", PARETO, "--grid", "1.5:6:4"]
        else:
            dists = ["--dist", GAMMA, "--grid", "0.5:3:4"]
        out.append((f"claims-{claim}", ["claims", *dists, "--claims", claim]))
    for name, spec in BIVARIATE.items():
        for method in ("auto", "quadrature"):
            out.append((f"bivariate-{name}-{method}",
                        ["bivariate", "--dist", spec, "--method", method]))
    for tr, t in TRANSFORMS.items():
        out.append((f"transform-{tr}", ["transform", "--dist", GAMMA, "--transform", tr,
                                        "--t", t]))
    # A loose --tol moves the digits of both engines' results: it must reach them.
    out += [
        ("measure-tol", ["measure", "--dist", '{"family":"beta","params":{"alpha":0.7,'
                         '"beta":0.8}}', "--measure", "past_extropy", "--t", "0.5",
                         "--method", "quadrature", "--tol", "1e-4"]),
        ("bivariate-tol", ["bivariate", "--dist", '{"family":"bivariate_beta","params":'
                           '{"alpha":0.9,"beta":1.5,"gamma":2}}', "--method", "quadrature",
                           "--tol", "1e-4"]),
        # Shapes whose complete beta functions underflow when squared.
        ("measure-beta-large-shapes", ["measure", "--dist", '{"family":"beta","params":'
                                       '{"alpha":300,"beta":300}}', "--measure",
                                       "weighted_extropy"]),
        ("bivariate-beta-large-shapes", ["bivariate", "--dist", '{"family":"bivariate_beta",'
                                         '"params":{"alpha":150,"beta":150,"gamma":150}}']),
        ("exit2-invalid-json", ["measure", "--dist", "{not json", "--measure", "extropy"]),
        ("exit2-unknown-family", ["measure", "--dist", '{"family":"weibull","params":{}}',
                                  "--measure", "extropy"]),
        ("exit2-unknown-measure", ["measure", "--dist", EXP1, "--measure", "entropy"]),
        ("exit2-missing-t", ["measure", "--dist", EXP1, "--measure", "residual_extropy"]),
        ("exit2-outside-domain", ["measure", "--dist", PARETO, "--measure",
                                  "past_extropy", "--t", "0.5"]),
        ("exit2-bad-grid", ["curve", "--dist", EXP1, "--measure", "residual_extropy",
                            "--grid", "3:1:5"]),
        ("exit2-unread-option", ["bivariate", "--dist", BIVARIATE["bivariate_beta"],
                                 "--t", "1"]),
        ("exit2-unknown-claim", ["claims", "--dist", EXP1, "--claims", "lemma2"]),
        ("exit2-pair-needs-two", ["claims", "--dist", EXP1, "--claims", "sum_bound"]),
        ("exit2-low-tol", ["measure", "--dist", EXP1, "--measure", "extropy",
                           "--tol", "1e-13"]),
        ("exit2-mc-negative-seed", ["mc", "--dist", EXP1, "--n", "10", "--seed", "-1"]),
        ("exit2-transform-scale-inf", ["transform", "--dist", GAMMA,
                                       "--transform", "scale:inf"]),
        ("exit2-transform-affine-inf", ["transform", "--dist", GAMMA,
                                        "--transform", "affine:1,inf"]),
    ]
    # A t outside the transform's image: phi_inverse gives NaN or -inf.
    for tr, t in (("pit", "2"), ("square", "-1"), ("exp", "0")):
        out.append((f"exit2-transform-{tr}-outside-image",
                    ["transform", "--dist", EXP1, "--transform", tr, "--t", t]))
    # sf(t) = 0 past the support: an indeterminate row, no hazard grid.
    for name, spec, t in (("beta", '{"family":"beta","params":{"alpha":0.7,"beta":0.8}}', "5"),
                          ("exponential", EXP1, "50")):
        out.append((f"claims-residual-bound-past-support-{name}",
                    ["claims", "--dist", spec, "--claims", "residual_bound", "--t", t]))
    # A batched curve raises the first numerical error in t order.
    out += [
        ("exit3-curve-tolerance-unreachable",
         ["curve", "--dist", PARETO_WIDE, "--measure", "past_extropy",
          "--grid", "1e3:3e13:5", "--method", "quadrature"]),
        ("exit3-claims-lemma1-residual",
         ["claims", "--dist", EXP_UNDECIDED, "--claims", "lemma1_residual",
          "--grid", "100:3000:4"]),
    ]
    return out


def run(argv: list[str]) -> dict:
    """One in-process CLI call: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="regenerate the transcript instead of comparing with it")
    args = ap.parse_args(argv)
    entries = [{"name": name, "argv": call, **run(call)} for name, call in calls()]
    if args.write:
        doc = {"numpy": np.__version__, "calls": entries}
        TRANSCRIPT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(entries)} calls to {TRANSCRIPT.name}")
        return 0
    pinned = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    if [e["argv"] for e in pinned["calls"]] != [e["argv"] for e in entries]:
        print("the call list differs from the pinned one; regenerate with --write")
        return 1
    moved = [new["name"] for old, new in zip(pinned["calls"], entries) if old != new]
    for name in moved:
        print(f"moved: {name}")
    print(f"{len(entries) - len(moved)} of {len(entries)} calls byte-identical "
          f"(pinned with numpy {pinned['numpy']}, running {np.__version__})")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
