#!/usr/bin/env python3
"""qslpath benchmark.

    python3 perfbench/run.py --workload qubit-horizon --seed 1 --seconds 40 --trace 0

Run from the repository root.  One workload runs in this process with one
thread and a closed loop of one caller: each request starts when the
previous one has returned.  The run measures whole request rounds until
``--seconds`` have passed, checks every request's outputs outside the
timed interval, cross-checks one request of each command type against the
CLI, and prints a summary followed by one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from spans around each public call and from probes that
split multi-layer calls by module.  ``--workload all`` runs every workload,
each in its own process.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict, namedtuple

# Pin numpy's BLAS and OpenMP pools; numpy is first imported in set_up().
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
# workloads.WORKLOADS, named here because importing workloads imports qslpath,
# which set_up() times.
WORKLOAD_NAMES = ("qubit-horizon", "dense-report", "short-batch")
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
# Calibration-kernel time of the reference machine that timed metrics are
# scaled to (see calibrate()).  A fixed constant: changing it rescales every
# timed metric.
CALIBRATION_REFERENCE_S = 0.040
MULTI_LAYER_CALLS = ("divergence_scan", "build_report", "report_for_model")

# Per-layer metric -> (layer, call) whose accounted span time it sums.
LAYER_TIMES = {
    "dynamics.model_build_s": ("dynamics", "model_build"),
    "dynamics.evolve_s": ("dynamics", "evolve"),
    "dynamics.stationary_s": ("dynamics", "stationary_state"),
    "geometry.speed_profile_s": ("geometry", "speed_profile"),
    "geometry.path_length_s": ("geometry", "path_length"),
    "states.bures_angle_s": ("states", "bures_angle"),
    "bounds.estimates_s": ("bounds", "estimates"),
    "bounds.stopping_curve_s": ("bounds", "stopping_time_curve"),
}
LAYERS = ("dynamics", "geometry", "states", "bounds")


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------


def calibrate():
    """Time a fixed kernel that does not touch qslpath: small complex matrix
    products and a scalar Python loop, the instruction mix of the library's
    RK4 and Jacobi loops.  On a shared host the speed of such code can
    change by half within seconds, for requests and kernel alike; timing
    the kernel around each request gives that request's machine speed,
    and scaling its time by CALIBRATION_REFERENCE_S / kernel time removes
    most of the change from the timed metrics.  A change to qslpath changes
    request times, not the kernel's."""
    import numpy as np

    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(8)]
    start = time.perf_counter()
    acc = np.zeros((3, 3), complex)
    total = 0.0
    for i in range(3000):
        m = mats[i % 8]
        acc = 0.5 * (acc @ m) + m.conj().T - 0.1 * acc
        acc /= np.abs(acc).max()
        for x in range(20):
            total += x * 0.5
    return time.perf_counter() - start


class SpeedGauge:
    """Kernel readings taken between requests.  scale() is the factor that
    turns the wall time of the interval since the last readings into
    reference-machine time.  It takes one reading per started second of
    that interval, up to four, and uses the median of these readings and
    of those taken just before the interval.  A single 40 ms reading
    catches one moment of a machine whose speed can flip within a second;
    several readings on each side of a long request follow it better, and
    the median ignores a reading that another process interrupted."""

    def __init__(self):
        self.last = [calibrate()]
        self.readings = list(self.last)
        self.since = time.perf_counter()

    def scale(self):
        count = min(4, 1 + int(time.perf_counter() - self.since))
        before, self.last = self.last, [calibrate() for _ in range(count)]
        self.readings += self.last
        self.since = time.perf_counter()
        return CALIBRATION_REFERENCE_S / statistics.median(before + self.last)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def set_up(workload):
    """Import qslpath from this checkout and serve the warm-up request.
    Returns the elapsed time, the benchmark modules, and the warm-up
    request with its result."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import qslpath

    if not os.path.abspath(qslpath.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qslpath was imported from {qslpath.__file__}, not from {SRC}")
    import tracing
    import workloads

    ref = workloads.reference_request(workload)
    result = workloads.run_request(ref, tracing.NULL_TRACER)
    return time.perf_counter() - start, workloads, tracing, ref, result


def setup_sample(workload):
    """Set-up time of a fresh interpreter, measured the same way as this one's."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


Record = namedtuple("Record", "req latency traced problems scale")


def serve(wl, tracing, req, tracer=None, index=None):
    """Serve one request, then check its outputs outside the timed
    interval.  With a tracer the request runs under a root span and is then
    probed under a second root span, which its latency excludes.  Returns
    the result (None if the request raised), the latency and the problems
    the checks found."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = wl.run_request(req, tracing.NULL_TRACER)
        else:
            tracer.request = index
            with tracer.span("request", req.command):
                result = wl.run_request(req, tracer)
    except Exception as exc:  # a failed request is counted, not fatal
        return None, time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - start
    try:
        problems = wl.check(req, result)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    if tracer is not None and wl.has_probe(req):
        try:
            with tracer.span("probe", req.command):
                wl.probe(req, result, tracer)
        except Exception as exc:
            problems = problems + [f"probe raised {type(exc).__name__}: {exc}"]
    return result, latency, problems


def measure(wl, tracing, workload, seed, seconds, traced, setup_probes):
    """Serve whole rounds of the seeded request stream until ``seconds``
    have passed.  Traced, each request is served once untraced and once
    traced, alternating which goes first.  Between requests, ``setup_probes``
    fresh-interpreter set-ups are timed, spread evenly over the measured
    time, which excludes them; set-up then sees the same machine as the
    requests.  The calibration kernel runs after each request and each
    set-up, also outside the measured time, and gives each its scale to
    reference-machine time.  Returns the records, the tracer (None
    untraced), the first successful request and result of each command,
    the fingerprints of the first round (None where a request failed),
    (record, model, reports) for each request with an oracle, the set-up
    times as (wall, scale) pairs, and the speed gauge."""
    tracer = tracing.Tracer() if traced else None
    records, firsts, round0, oracles, setups = [], {}, None, [], []
    stream = wl.rounds(workload, seed)
    gauge = SpeedGauge()
    start = time.perf_counter()
    paused = 0.0

    def elapsed():
        return time.perf_counter() - start - paused

    def set_up_once():
        wall = setup_sample(workload)
        setups.append((wall, gauge.scale()))

    while True:
        fingerprints = []
        for req in next(stream):
            if len(setups) < setup_probes and elapsed() >= len(setups) * seconds / setup_probes:
                pause = time.perf_counter()
                set_up_once()
                paused += time.perf_counter() - pause
            index = len(records)
            if not traced:
                order = (None,)
            else:
                order = (None, tracer) if index % 2 == 0 else (tracer, None)
            served = {tr is not None: serve(wl, tracing, req, tr, index) for tr in order}
            pause = time.perf_counter()
            scale = gauge.scale()
            paused += time.perf_counter() - pause
            result, latency, problems = served[False]
            traced_latency = None
            if traced:
                traced_latency = served[True][1]
                problems = problems + served[True][2]
            for problem in problems[:3]:
                print(f"request {index} ({req.command}, {req.model}, dim {req.dim}) failed: {problem}",
                      file=sys.stderr)
            records.append(Record(req, latency, traced_latency, problems, scale))
            if result is not None:
                firsts.setdefault(req.command, (req, result))
                if wl.has_oracle(req):
                    oracles.append((records[-1], result.model, result.reports))
            fingerprints.append(None if result is None else wl.fingerprint(result))
        if round0 is None:
            round0 = fingerprints
        if elapsed() >= seconds:
            while len(setups) < setup_probes:
                set_up_once()
            return records, tracer, firsts, round0, oracles, setups, gauge


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail_latency(latencies):
    """The highest whole percentile with at least TAIL_BEYOND samples above
    it, but never below p90, interpolated between the samples around it.
    Runs of under 100 requests report p90; with a handful of requests,
    interpolation keeps it from being the single slowest one.  Returns the
    value and its percentile."""
    n = len(latencies)
    pct = max(90, math.floor(100 * (n - TAIL_BEYOND) / n))
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1], pct


def timed_metrics(lat, setups):
    """Set-up, throughput, median and tail latency from request latencies
    and set-up times: rows (name, value, unit, note)."""
    n = len(lat)
    busy = sum(lat)
    tail, pct = tail_latency(lat)
    return [
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)}: " + ", ".join(f"{s:.4f}" for s in setups)),
        ("throughput_rps", n / busy, "1/s", f"{n} requests in {busy:.3f} s busy"),
        ("latency_p50_s", statistics.median(lat), "s", f"n={n}"),
        ("latency_tail_s", tail, "s", f"p{pct} of n={n}, interpolated"),
    ]


def end_to_end(records, setups, rss):
    """Rows (name, value, unit, note) of the end-to-end metrics.  Times are
    in reference-machine seconds: each request's and each set-up's wall
    time times its calibration scale."""
    lat = [r.latency * r.scale for r in records]
    n = len(lat)
    failed = sum(1 for r in records if r.problems)
    return timed_metrics(lat, [wall * scale for wall, scale in setups]) + [
        ("success_ratio", (n - failed) / n, "ratio", f"1 - fail_ratio; {n - failed} of {n} passed"),
        ("peak_rss_mb", rss, "MiB", "high-water RSS of this process"),
    ]


def per_layer(tracer, records):
    """Rows (name, value, unit, note) of the per-layer metrics, per traced
    request.  A multi-layer call's time is split into its probe's spans
    plus a self time: the call's duration minus the probe's spans."""
    by_request = defaultdict(list)
    for span in tracer.spans:
        by_request[span.request].append(span)
    times, counts, self_times, errors = (defaultdict(float) for _ in range(4))
    traj_bytes = 0
    for spans in by_request.values():
        roots = {s.layer: s for s in spans if s.parent is None}
        probed = [s for s in spans if s.parent is not None and s.parent is roots.get("probe")]
        direct = [s for s in spans if s.parent is not None and s.parent is roots.get("request")]
        accounted = list(probed)
        for s in direct:
            if s.name in MULTI_LAYER_CALLS:
                self_times[s.name] += s.duration - sum(p.duration for p in probed)
            else:
                accounted.append(s)
        for s in accounted:
            times[(s.layer, s.name)] += s.duration
            for key, value in s.counts.items():
                if key == "traj_bytes":
                    traj_bytes = max(traj_bytes, value)
                else:
                    counts[key] += value
        for s in spans:
            if s.error and s.layer in LAYERS:
                errors[s.layer] += 1
    n = len(records)
    request_s = sum(r.traced for r in records) / n
    evolve_s = times[("dynamics", "evolve")]
    profile_s = times[("geometry", "speed_profile")]
    rows = [(name, times[key] / n, "s") for name, key in LAYER_TIMES.items()]
    rows += [
        ("dynamics.rk4_steps", counts["rk4_steps"] / n, "count"),
        ("dynamics.step_us", 1e6 * evolve_s / counts["rk4_steps"] if counts["rk4_steps"] else 0.0, "us"),
        ("dynamics.traj_mb", traj_bytes / 2**20, "MiB"),
        ("geometry.samples", counts["samples"] / n, "count"),
        ("geometry.sample_us", 1e6 * profile_s / counts["samples"] if counts["samples"] else 0.0, "us"),
        ("geometry.origin_share",
         counts["origin_samples"] / counts["samples"] if counts["samples"] else 0.0, "ratio"),
        ("bounds.build_report_self_s",
         (self_times["build_report"] + self_times["report_for_model"]) / n, "s"),
        ("bounds.divergence_scan_self_s", self_times["divergence_scan"] / n, "s"),
        ("bounds.stopping_points", counts["stopping_points"] / n, "count"),
    ]
    rows += [(f"{layer}.errors", float(errors[layer]), "count") for layer in LAYERS]
    rows += [
        ("trace.request_s", request_s, "s"),
        ("trace.overhead_ratio", sum(r.traced for r in records) / sum(r.latency for r in records),
         "ratio"),
    ]
    return [
        (name, value, unit, f"share {value / request_s:.3f} of request time" if unit == "s" else "")
        for name, value, unit in rows
    ]


# ---------------------------------------------------------------------------
# Provenance, fingerprints, CLI cross-check
# ---------------------------------------------------------------------------


def git_sha():
    """HEAD of the repository this checkout is, or None outside one."""
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_sha256():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "qslpath")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(wl, workload, seed, records):
    reqs = [r.req for r in records]
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": wl.np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "seed": seed,
        "workload": workload,
        "inputs": {
            "requests": len(reqs),
            "commands": dict(Counter(req.command for req in reqs)),
            "dims": sorted({req.dim for req in reqs}),
            "steps": sorted({req.steps for req in reqs}),
            "samples": sum(wl.grid_points(req) for req in reqs),
        },
    }


def load_fingerprints():
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        workload: {
            seed: [[math.nan if x is None else x for x in fp] for fp in fps]
            for seed, fps in by_seed.items()
        }
        for workload, by_seed in doc.items()
    }


def fingerprint_drift(wl, workload, seed, ref_fp, round0):
    """Largest relative drift from the stored fingerprints, with a note of
    what was compared."""
    stored = load_fingerprints().get(workload, {})
    pairs = []
    if str(wl.REFERENCE_SEED) in stored:
        pairs.append((ref_fp, stored[str(wl.REFERENCE_SEED)][0]))
    if str(seed) in stored:
        pairs += [(fp, ref) for fp, ref in zip(round0, stored[str(seed)]) if fp is not None]
    if not pairs:
        return None, "no stored fingerprints"
    values = sum(len(ref) for _, ref in pairs)
    scope = "warm-up request" + (f" and round 0 of seed {seed}" if str(seed) in stored else "")
    return max(wl.drift(fp, ref) for fp, ref in pairs), f"{values} values: {scope}"


def cli_check(wl, firsts):
    """Mismatches between the CLI and the library on the first successful
    request of each command."""
    # Inside the checkout, as the benchmark writes nowhere else.
    workdir = tempfile.mkdtemp(prefix=".cli-", dir=HERE)
    try:
        mismatches = []
        for command in sorted(firsts):
            req, result = firsts[command]
            mismatches += wl.cli_mismatches(req, result, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return mismatches


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_one(args):
    setup_s, wl, tracing, ref, ref_result = set_up(args.workload)
    ref_problems = wl.check(ref, ref_result)
    records, tracer, firsts, round0, oracles, setups, gauge = measure(
        wl, tracing, args.workload, args.seed, args.seconds, bool(args.trace),
        0 if args.trace else SETUP_SAMPLES,
    )
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if wl.has_oracle(ref):
        ref_problems += wl.oracle_check(ref_result.model, ref_result.reports)[0]
    for problem in ref_problems:
        print(f"warm-up request failed: {problem}", file=sys.stderr)
    oracle_errs = []
    for record, model, reports in oracles:
        problems, worst = wl.oracle_check(model, reports)
        record.problems.extend(problems)
        oracle_errs.append(worst)
        for problem in problems:
            print(f"{record.req.command} {record.req.model} failed: {problem}", file=sys.stderr)
    mismatches = cli_check(wl, firsts)
    if mismatches:
        for line in mismatches:
            print(f"CLI cross-check: {line}", file=sys.stderr)
        raise SystemExit("CLI cross-check failed; aborting")
    commands = {r.req.command for r in records}
    failed = sum(1 for r in records if r.problems)
    correct = failed == 0 and not ref_problems and set(firsts) == commands

    print(f"# qslpath benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("# provenance " + json.dumps(provenance(wl, args.workload, args.seed, records)))
    print(f"# cli_cross_check passed: {', '.join(sorted(firsts))}")
    drift, note = fingerprint_drift(wl, args.workload, args.seed, wl.fingerprint(ref_result), round0)
    print(f"# fingerprint_drift_max {drift!r} relative ({note}); informational")
    print(f"# fail_ratio {failed / len(records)!r} ratio ({failed}/{len(records)})")
    if oracle_errs:
        print(f"# oracle_err_max {max(oracle_errs)!r} Bures-rad "
              f"(max |length - oracle| and |B - oracle| over {len(oracle_errs)} scans; "
              f"budget {wl.QUADRATURE_BUDGET})")
    readings = gauge.readings
    print(f"# calibration kernel {statistics.median(readings):.4f} s median, "
          f"{min(readings):.4f}-{max(readings):.4f} s over {len(readings)} readings "
          f"(reference {CALIBRATION_REFERENCE_S} s)")
    if not args.trace:
        print(f"# in-process set-up {setup_s:.4f} s wall; informational")
        for name, value, unit, note in timed_metrics([r.latency for r in records],
                                                     [wall for wall, _ in setups]):
            print(f"# wall {name} {value!r} {unit} ({note}); informational")
    rows = per_layer(tracer, records) if args.trace else end_to_end(records, setups, rss)
    for name, value, unit, note in rows:
        print(f"{name} {value!r} {unit}" + (f" ({note})" if note else ""))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0


def run_all(args):
    """Every workload, each in its own process; the last line combines them."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        print(set_up(args.workload)[0])
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
