"""Run the benchmark repeatedly and report how steady each metric is.

    python3 perfbench/steady.py                       # every workload once: all metrics
    python3 perfbench/steady.py --runs 10             # ten seeds per workload: quartiles
    python3 perfbench/steady.py --runs 10 --sets 2    # two sets: median drift per metric
    python3 perfbench/steady.py --trace-repeat        # traced twice per workload, same seed

For each end-to-end metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median and
the metric's bound from BENCHMARK.json; a spread above a third of the bound
is flagged.  ``--trace-repeat`` checks that the deterministic counts and
``requests.failed_share`` repeat exactly for a fixed seed.

Runs go one at a time; this process only waits while a run is alive.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900
FIRST_SEED = 1


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace) -> tuple[dict, dict]:
    """One benchmark run; returns (last-line document, result file)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    suffix = "-trace" if trace else ""
    with open(os.path.join(ROOT, ".perfbench", f"result-{workload}-seed{seed}{suffix}.json"),
              encoding="utf-8") as fh:
        return doc, json.load(fh)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report_steadiness(spec, workload, docs, results, label=""):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{workload}{label}: {len(docs)} runs, seeds {[r['environment']['seed'] for r in results]},"
          f" correct={all(d['correct'] for d in docs)}")
    medians = {}
    names = [m["name"] for m in spec["end_to_end"]] + ["failed_share"]
    for name in names:
        values = [r["report"][name]["value"] for r in results]
        unit = results[0]["report"][name]["unit"]
        q1, med, q3 = quartiles(values)
        medians[name] = med
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        extra = f" bound {bound}" if bound is not None else ""
        print(f"  {name:18s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} {unit:6s}"
              f" spread {spread:.4f}{extra} {flag}")
    return medians


def compare_sets(spec, first, second):
    print("  second set against first (positive = worse):")
    for m in spec["end_to_end"]:
        a, b = first[m["name"]], second[m["name"]]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        print(f"    {m['name']:18s} {worse:+.4f} bound {m['bound']} "
              f"{'ok' if worse <= m['bound'] else 'REGRESSION'}")


def trace_repeat(workload, seed, seconds):
    docs = [run_once(workload, seed, seconds, 1)[0] for _ in range(2)]
    counts = [{k: v["value"] for k, v in d["metrics"].items()
               if v["unit"] == "count" or k == "requests.failed_share"} for d in docs]
    same = counts[0] == counts[1]
    print(f"{workload}: traced runs correct={[d['correct'] for d in docs]}, deterministic counts "
          f"{'repeat exactly' if same else 'DIFFER'} ({len(counts[0])} counts, seed {seed})")
    if not same:
        for k in counts[0]:
            if counts[0][k] != counts[1].get(k):
                print(f"    {k}: {counts[0][k]} vs {counts[1].get(k)}")
    return same and all(d["correct"] for d in docs)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=1, help="seeds per workload and set")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace-repeat", action="store_true")
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        if args.trace_repeat:
            ok &= trace_repeat(workload, FIRST_SEED, args.seconds)
            continue
        set_medians = []
        for s in range(args.sets):
            docs, results = [], []
            for k in range(args.runs):
                doc, res = run_once(workload, FIRST_SEED + k, args.seconds, 0)
                docs.append(doc)
                results.append(res)
                ok &= doc["correct"]
            if args.runs == 1:
                r = results[0]
                print(f"{workload} seed {r['environment']['seed']}: correct={docs[0]['correct']}"
                      f" attempted={docs[0]['attempted']} failed={docs[0]['failed']}"
                      f" -> {r['failure_listing']}")
                for name, m in r["report"].items():
                    pct = f" at p{m['percentile']:.1f}" if "percentile" in m else ""
                    print(f"  {name:18s} {m['value']:.6g} {m['unit']}{pct} (n={m['samples']})")
                set_medians.append({k: m["value"] for k, m in r["report"].items()})
            else:
                set_medians.append(report_steadiness(spec, workload, docs, results,
                                                     f" set {s + 1}" if args.sets > 1 else ""))
        if len(set_medians) > 1:
            compare_sets(spec, set_medians[0], set_medians[-1])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
