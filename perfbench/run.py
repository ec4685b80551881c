"""Benchmark runner for the extropy library and CLI.

    python3 perfbench/run.py --workload {tsweep,plane,cli} --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/``.  One
client sends one request at a time (closed loop).  A run:

1. builds the deck and the mpmath reference for every request (not timed);
2. sends passes over the deck until the time spent inside library calls
   reaches ``--seconds`` (the first pass is whole, the last may stop part
   way), checking every output against the reference and against the
   first pass (outputs must repeat exactly);
3. between requests, spread evenly over those ``--seconds``, times
   ``SETUP_REPEATS`` fresh interpreters that import the library, build the
   seeded deck and send one warm-up request (``setup_s`` is their median),
   and runs a fixed calibration loop that scales every timing of the run
   to a reference host speed (see ``Calibration``);
4. prints a report, writes the failure listing and a result file under
   ``.perfbench/``, and prints one JSON line last.

With ``--trace 1`` the passes alternate between untraced and traced
(see ``tracer.py``); traced outputs must equal the untraced ones bit for
bit, the per-pass counts must repeat exactly, and the JSON line carries
the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: np.polyfit calls LAPACK.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import selectors  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 7
CAL_EVERY_S = 0.05  # request time per calibration sample
CAL_REF_S = 1e-3  # calibration time that defines the reference speed
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 120
MAX_LOOP_S = 120  # stop adding passes past this much wall time in the loop
TAIL_BEYOND = 10

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
# metric name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, check=False) -> tuple[int, bytes, bytes, int]:
    """Run one child to completion; returns its exit code, stdout, stderr and
    peak resident memory in KiB (from ``os.wait4``, this child alone).

    One child at a time: never more than two benchmark processes are alive.
    """
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    fds = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {fd: [] for fd in fds}
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - time.monotonic()
                events = sel.select(left) if left > 0 else []
                if not events:
                    proc.kill()
                    proc.wait()
                    raise subprocess.TimeoutExpired(argv, CHILD_TIMEOUT_S)
                for key, _ in events:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        proc.stderr.close()
    out, err = (b"".join(chunks[fd]) for fd in fds)
    if check and proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {err.decode(errors='replace')}")
    return proc.returncode, out, err, usage.ru_maxrss


def library_module(workload):
    return "extropy.cli" if workload == "cli" else "extropy"


# -- set-up ------------------------------------------------------------------------

def setup_probe(workload, seed) -> None:
    """Body of one set-up child: import, build the deck, send the warm-up."""
    import importlib
    ex = importlib.import_module("extropy")
    importlib.import_module(library_module(workload))
    wl.DECKS[workload](seed)
    send(workload, wl.WARMUP[workload], ex, subprocess_cli=False)


class SetupProbes:
    """``SETUP_REPEATS`` set-up probes spread evenly over the timed loop.

    Each probe is a fresh interpreter timed from start to exit.  Spread
    over the run, they see the same host conditions as the requests;
    ``setup_s`` is their median.
    """

    def __init__(self, workload, seed, seconds):
        self.argv = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
                     "--workload", workload, "--seed", str(seed)]
        self.interval = seconds / SETUP_REPEATS
        self.elapsed = 0.0
        self.times = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        run_child(self.argv, check=True)
        self.times.append(time.perf_counter() - t0)

    def after_request(self, seconds) -> None:
        """Probe once the timed loop has passed the next of its even marks."""
        self.elapsed += seconds
        if (len(self.times) < SETUP_REPEATS
                and self.elapsed >= len(self.times) * self.interval):
            self.probe()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return self.times


# 15-point Kronrod rule on [-1, 1]
_XK = np.array([-0.991455371120813, -0.949107912342759, -0.864864423359769,
                -0.741531185599394, -0.586087235467691, -0.405845151377397,
                -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
                0.586087235467691, 0.741531185599394, 0.864864423359769,
                0.949107912342759, 0.991455371120813])
_WK = np.array([0.022935322010529, 0.063092092629979, 0.104790010322250,
                0.140653259715525, 0.169004726639267, 0.190350578064785,
                0.204432940075298, 0.209482141084728, 0.204432940075298,
                0.190350578064785, 0.169004726639267, 0.140653259715525,
                0.104790010322250, 0.063092092629979, 0.022935322010529])


def calibration_loop() -> float:
    """Seconds taken by a fixed piece of work like the engine's inner loop
    (one 15-point rule per panel, small numpy arrays driven from Python).
    It uses nothing from ``extropy``, so no change to the library moves it."""
    t0 = time.perf_counter()
    total = 0.0
    for k in range(120):
        a, half = 0.05 * k, 0.025
        x = a + half + half * _XK
        total += half * float(np.dot(_WK, np.exp(-x) * np.sqrt(x + 1.0)))
    return time.perf_counter() - t0


class Calibration:
    """The host's speed through the timed loop.

    The machine this benchmark was built on (2 vCPUs shared with other
    tenants) ran the same code up to twice as fast from one minute to the
    next; every timing of a run drifted with it.  After each request this
    runs :func:`calibration_loop` once per ``CAL_EVERY_S`` of request time
    passed, so the samples follow the requests' own time, about 2% of it.
    ``scale`` is ``CAL_REF_S`` over the run's median calibration time: a
    timing times ``scale`` is that timing at the reference speed.
    """

    def __init__(self):
        self.times = []
        self.owed = CAL_EVERY_S

    def after_request(self, seconds) -> None:
        self.owed += seconds
        while self.owed >= CAL_EVERY_S:
            self.owed -= CAL_EVERY_S
            self.times.append(calibration_loop())

    @property
    def scale(self) -> float:
        return CAL_REF_S / statistics.median(self.times)


def _import_times(argv) -> dict:
    """-X importtime (self, cumulative) microseconds of every module imported."""
    _, _, err, _ = run_child([sys.executable, "-X", "importtime", *argv], check=True)
    out = {}
    for line in err.decode().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = (int(parts[0].split(":")[1]), int(parts[1]))
    return out


def process_probes(workload) -> dict:
    """Interpreter start-up and import times of fresh processes.

    ``import_ms`` is the library's own import; ``import_scipy_special_ms``
    is the part of it spent in scipy modules, all of which load for
    ``scipy.special`` (0 once no module of the library imports it at
    start-up).
    """
    interp, imp, special = [], [], []
    module = library_module(workload)
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "pass"], check=True)
        interp.append(time.perf_counter() - t0)
        times = _import_times(["-c", f"import {module}"])
        imp.append(times[module][1])
        special.append(sum(own for name, (own, _) in times.items()
                           if name == "scipy" or name.startswith("scipy.")))
    return {"process.interpreter_ms": 1e3 * statistics.median(interp),
            "process.import_ms": 1e-3 * statistics.median(imp),
            "process.import_scipy_special_ms": 1e-3 * statistics.median(special)}


# -- requests ------------------------------------------------------------------------

CLI_RSS_KB = []  # peak resident memory of each CLI request process


def send(workload, req, ex, subprocess_cli=True):
    """Send one request; returns the raw result (timing is the caller's)."""
    if req["kind"] != "cli":
        return wl.execute(req, ex)
    if not subprocess_cli:
        return wl.execute_cli_inprocess(req, ex.cli)
    code, out, err, rss_kb = run_child([sys.executable, "-m", "extropy.cli", *req["argv"]])
    CLI_RSS_KB.append(rss_kb)
    return code, out.decode(), err.decode()


def canonical(output) -> str:
    """Exact text form of an output (floats keep every digit)."""
    return json.dumps(output, sort_keys=True)


class Pass:
    """Outcome of one pass over the deck."""

    def __init__(self):
        self.latencies = []  # (request index, seconds, ok)
        self.outputs = {}
        self.errors = {}

    @property
    def seconds(self):
        return sum(s for _, s, _ in self.latencies)

    def add(self, i, req, expected, raw, error, dt, checks):
        if error is None:
            output = wl.summarize(req, raw)
            problems = checks.check(req, output, expected)
        else:
            output = {"raised": type(error).__name__, "message": str(error)}
            problems = [f"raised {type(error).__name__}: {error}"]
        self.outputs[i] = output
        if problems:
            self.errors[i] = problems
        self.latencies.append((i, dt, not problems))


def run_pass(workload, deck, expected, ex, subprocess_cli=True, tracer=None,
             between=(), budget=math.inf) -> Pass:
    """Send the deck in order, stopping early once ``budget`` seconds of
    library time are spent."""
    import checks
    result, spent = Pass(), 0.0
    with tracer or contextlib.nullcontext():
        for i, req in enumerate(deck):
            raw, error, dt = timed_send(workload, req, ex, subprocess_cli)
            result.add(i, req, expected[i], raw, error, dt, checks)
            for hook in between:
                hook.after_request(dt)
            spent += dt
            if spent >= budget:
                break
    return result


def timed_send(workload, req, ex, subprocess_cli):
    error = raw = None
    t0 = time.perf_counter()
    try:
        raw = send(workload, req, ex, subprocess_cli)
    except Exception as exc:  # a raising request is a failed request
        error = exc
    return raw, error, time.perf_counter() - t0


# -- metrics -------------------------------------------------------------------------

def distinct_outcomes(passes) -> tuple[int, int]:
    """(requests attempted, requests failed), each request counted once.

    The passes repeat one deck, and a repeat must return exactly what the
    first pass did (else the run is not correct), so a request either
    fails in every pass or in none.  Counting each request once makes both
    numbers a function of the seed and the code alone, not of how many
    passes the host's speed allowed.
    """
    attempted = {i for p in passes for i, _, _ in p.latencies}
    failed = {i for p in passes for i in p.errors}
    return len(attempted), len(failed)


def tail(values):
    """Value at the highest percentile with at least TAIL_BEYOND samples beyond it."""
    xs = sorted(values)
    idx = max(0, len(xs) - 1 - TAIL_BEYOND)
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def end_to_end(workload, passes, setup_times, scale) -> tuple[dict, dict]:
    """The end-to-end metrics of a run.

    Every sample of every pass counts.  Throughput is correct samples per
    second of all samples, failed ones included; the median and the tail
    are over the correct samples.  On a shared machine whose speed changes
    in phases of tens of seconds, averages over the whole run move
    smoothly with the share of time spent in a slow phase, where the
    fastest repeat of a request jumps between the fast and the slow
    phase's figure.  Every timing is taken at the reference speed: times
    ``scale`` (see :class:`Calibration`).
    """
    ok_samples = [s for p in passes for _, s, good in p.latencies if good]
    total = sum(p.seconds for p in passes)
    attempted, failed = distinct_outcomes(passes)
    tail_v, tail_p = tail(ok_samples) if ok_samples else (math.nan, math.nan)
    if workload == "cli":  # the CLI processes, not the runner that starts them
        rss_kb = max(CLI_RSS_KB)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ok_ops_per_s": len(ok_samples) / (total * scale),
        "latency_p50_ms": 1e3 * scale * statistics.median(ok_samples) if ok_samples else math.nan,
        "latency_tail_ms": 1e3 * scale * tail_v,
        "setup_s": scale * statistics.median(setup_times),
        "peak_rss_mb": rss_kb / 1024.0,
        "failed_share": failed / attempted,
    }
    samples = {"ok_ops_per_s": sum(len(p.latencies) for p in passes),
               "latency_p50_ms": len(ok_samples),
               "latency_tail_ms": len(ok_samples), "setup_s": len(setup_times),
               "peak_rss_mb": len(CLI_RSS_KB) if workload == "cli" else 1,
               "failed_share": attempted, "latency_tail_percentile": tail_p,
               "passes": len(passes)}
    return metrics, samples


def environment(workload, seed) -> dict:
    import numpy
    import scipy
    import mpmath
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "extropy")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown"  # the benchmark may run from an exported tree
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(),
            "commit": commit, "source_sha256": digest.hexdigest()[:16],
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def deck_shares(workload, deck) -> dict:
    if workload == "tsweep":
        specs = {json.dumps(r["spec"], sort_keys=True): r["scale_range"] for r in deck}
        return {"scale_range_tasks": sum(specs.values()) / len(specs),
                "scale_range_requests": sum(r["scale_range"] for r in deck) / len(deck)}
    if workload == "cli":
        return {"invalid_spec_requests": sum(bool(r.get("invalid")) for r in deck) / len(deck)}
    return {}


def write_failures(workload, seed, deck, expected, passes, suffix) -> str:
    """One JSON line per distinct failed request: inputs, reference, output."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"failures-{workload}-seed{seed}{suffix}.jsonl")
    failed = {}
    for p in passes:
        for i, problems in p.errors.items():
            failed.setdefault(i, (p.outputs[i], problems))
    with open(path, "w", encoding="utf-8") as fh:
        for i in sorted(failed):
            output, problems = failed[i]
            entry = {"id": deck[i]["id"], "request": deck[i],
                     "expected": {k: e.as_json() for k, e in expected[i].items()},
                     "output": output, "problems": problems}
            if "raised" in output:
                entry["exception"] = output["raised"]
            if "exit" in output:
                entry["exit_code"] = output["exit"]
            fh.write(json.dumps(entry, default=str) + "\n")
    return os.path.relpath(path, ROOT)


def compare_outputs(reference: Pass, other: Pass, deck) -> list[str]:
    """Requests whose output differs from the reference pass."""
    bad = []
    for i, out in other.outputs.items():
        ref = reference.outputs[i]
        if deck[i]["kind"] == "cli":
            same = ref.get("exit") == out.get("exit") and ref.get("stdout") == out.get("stdout")
        else:
            same = canonical(ref) == canonical(out)
        if not same:
            bad.append(deck[i]["id"])
    return bad


def layer_metrics(counts, traced, untraced, probes, deck_size, reference) -> dict:
    """Per-layer numbers: counts of one traced pass, self times per request
    over all traced passes, and the tracing overhead."""
    first, _ = counts[0]
    requests = deck_size * len(traced)
    out = {k: {"value": v, "unit": "count"} for k, v in first.items()}
    total = {}
    for _, tr in counts:
        for layer, s in tr.self_s.items():
            total[layer] = total.get(layer, 0.0) + s
    for layer in ("quadrature.integrate", "quadrature.integrand", "quadrature.differentiate",
                  "distributions.evaluator", "distributions.build", "measures", "claims",
                  "bivariate", "transforms", "cli.main"):
        out[f"{layer}.self_ms"] = {"value": 1e3 * total.get(layer, 0.0) / requests, "unit": "ms"}
    calls = first["quadrature.integrand.calls"]
    out["quadrature.integrand.points_per_call"] = {
        "value": first["quadrature.integrand.points"] / calls if calls else 0.0, "unit": "points"}
    incl = sum(tr.counts["measures.inclusive_s"] for _, tr in counts)
    quad = sum(tr.counts["measures.quadrature_s"] for _, tr in counts)
    out["measures.quadrature_share"] = {"value": quad / incl if incl else 0.0, "unit": "share"}
    out["quadrature.integrate.raised"]["by_class"] = dict(counts[0][1].raised)
    t_traced = statistics.median(p.seconds for p in traced)
    t_plain = statistics.median(p.seconds for p in untraced)
    out["trace.overhead_share"] = {"value": t_traced / t_plain - 1.0, "unit": "share"}
    out["requests.failed_share"] = {"value": len(reference.errors) / deck_size, "unit": "share"}
    for k, v in probes.items():
        out[k] = {"value": v, "unit": "ms"}
    return out


# -- main ----------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.DECKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=_SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "extropy", "__init__.py")):
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    workload, seed = args.workload, args.seed
    probes = process_probes(workload) if args.trace else {}

    import importlib
    ex = importlib.import_module("extropy")
    importlib.import_module(library_module(workload))
    import checks

    deck = wl.DECKS[workload](seed)
    t0 = time.perf_counter()
    expected = [checks.expect(r) for r in deck]
    ref_s = time.perf_counter() - t0
    send(workload, wl.WARMUP[workload], ex, subprocess_cli=False)

    passes, traced, notes = [], [], []
    correct = True
    loop_start = time.perf_counter()
    if not args.trace:
        # The first pass is whole, so every request has a latency; the last
        # may stop part way, so the run measures --seconds of library time.
        setup, calibration = SetupProbes(workload, seed, args.seconds), Calibration()
        while not passes or (sum(p.seconds for p in passes) < args.seconds
                             and time.perf_counter() - loop_start < MAX_LOOP_S):
            left = args.seconds - sum(p.seconds for p in passes) if passes else math.inf
            passes.append(run_pass(workload, deck, expected, ex, between=(setup, calibration),
                                   budget=left))
        setup_times = setup.finish()
        for p in passes[1:]:
            bad = compare_outputs(passes[0], p, deck)
            if bad:
                correct = False
                notes.append(f"outputs changed between passes: {bad}")
    else:
        from tracer import Tracer
        if workload == "cli":
            # the subprocess pass is the untraced reference; timed passes run in-process
            passes.append(run_pass(workload, deck, expected, ex))
        untraced, counts = [], []
        while not traced or (sum(p.seconds for p in traced) < args.seconds / 2
                             and time.perf_counter() - loop_start < MAX_LOOP_S):
            untraced.append(run_pass(workload, deck, expected, ex, subprocess_cli=False))
            tr = Tracer()
            traced.append(run_pass(workload, deck, expected, ex, subprocess_cli=False, tracer=tr))
            counts.append((tr.deterministic_counts(), tr))
        reference = passes[0] if passes else untraced[0]
        for p in untraced + traced:
            bad = compare_outputs(reference, p, deck)
            if bad:
                correct = False
                notes.append(f"traced or repeated outputs differ from the untraced pass: {bad}")
        if any(c != counts[0][0] for c, _ in counts):
            correct = False
            notes.append("deterministic counts differ between traced passes")
        passes = passes + untraced

    attempted, failed = distinct_outcomes(passes + traced)
    sent = sum(len(p.latencies) for p in passes + traced)
    suffix = "-trace" if args.trace else ""
    listing = write_failures(workload, seed, deck, expected, passes + traced, suffix)
    env = environment(workload, seed)
    shares = deck_shares(workload, deck)

    if not args.trace:
        values, samples = end_to_end(workload, passes, setup_times, calibration.scale)
        report = {k: {"value": v, "unit": END_TO_END.get(k, "share"),
                      "samples": samples[k]} for k, v in values.items()}
        report["latency_tail_ms"]["percentile"] = samples["latency_tail_percentile"]
        out_metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        report = layer_metrics(counts, traced, untraced, probes, len(deck), reference)
        out_metrics = {k: {"value": report[k]["value"], "unit": u} for k, u in PER_LAYER.items()}

    print(f"workload {workload} seed {seed}: {len(deck)} requests per pass, "
          f"{len(passes) + len(traced)} passes{' (traced)' if args.trace else ''}, "
          f"references built in {ref_s:.1f} s; shares {json.dumps(shares)}")
    for name, m in report.items():
        extra = f" at p{m['percentile']:.1f}" if "percentile" in m else ""
        n = f" (n={m['samples']})" if "samples" in m else ""
        by = f" {json.dumps(m['by_class'])}" if m.get("by_class") else ""
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{extra}{n}{by}")
    if not args.trace:
        print(f"  host scale {calibration.scale:.4f}: median calibration "
              f"{1e3 * statistics.median(calibration.times):.4f} ms over "
              f"{len(calibration.times)} samples, reference {1e3 * CAL_REF_S:g} ms")
    print(f"  failed requests: {failed} of {attempted} (each counted once; {sent} sent) -> {listing}")
    for note in notes:
        print(f"  NOT CORRECT: {note}")
    print(f"  environment: {json.dumps(env)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{workload}-seed{seed}{suffix}.json"), "w") as fh:
        json.dump({"environment": env, "shares": shares, "report": report,
                   "attempted": attempted, "failed": failed, "sent": sent, "correct": correct,
                   "notes": notes, "failure_listing": listing,
                   "setup_times": [] if args.trace else setup_times,
                   "calibration_times": [] if args.trace else calibration.times,
                   "latencies": [p.latencies for p in passes + traced]}, fh, default=str)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
