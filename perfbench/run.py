"""stealthtour benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cross-default --seed 5 --seconds 30 --trace 0

``--trace 0`` repeats the workload's timed operation, with nothing wrapped,
while another repetition fits in ``--seconds`` (at least twice), and prints the
end-to-end metrics.  ``--trace 1`` alternates a plain and a traced repetition
and prints the per-layer metrics.  Every run checks the program's outputs with
the benchmark's own checker and exits 1 on any failure.  The last stdout line
is the JSON result; a fuller record (every repetition, quartiles, output
digests, traffic and provenance) is written to ``.bench_out/``.

``wall_s`` and ``setup_s`` are host-speed adjusted.  The shared host this was
written on flips between a fast and a slow state, which moves raw wall times by
up to 35 % between runs.  So while each plain repetition runs, a timer samples
a fixed calibration kernel once a second; the kernel's time is taken out of the
repetition's wall time, and times are scaled by NOMINAL_CALIBRATION_S over the
run's mean kernel time.  Raw wall times and kernel samples are in the record.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One thread per run: numpy's BLAS pool would otherwise spin on the second core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings above)

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
# Time of _calibrate() on the 2-core x86_64 box the benchmark was written on,
# in its slower state; adjusted times are seconds of that box in that state.
NOMINAL_CALIBRATION_S = 0.015
CALIBRATION_PERIOD_S = 1.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "hypervolume": "area",
    "exposure_max_rel_err": "ratio",
}

PER_LAYER = {
    "geometry.dubins_calls": "count",
    "geometry.dubins_distinct": "count",
    "geometry.edge_repeat_share": "ratio",
    "geometry.dubins_us": "us",
    "geometry.build_tour_calls": "count",
    "geometry.self_s": "s",
    "sensing.exposure_calls": "count",
    "sensing.curves_integrated": "count",
    "sensing.intensity_points": "count",
    "sensing.us_per_curve": "us",
    "sensing.self_s": "s",
    "evolution.evaluate_calls": "count",
    "evolution.evaluate_us_p50": "us",
    "evolution.evaluate_us_p99": "us",
    "evolution.repair_calls": "count",
    "evolution.repair_rebuilds": "count",
    "evolution.repair_self_s": "s",
    "evolution.variation_self_s": "s",
    "evolution.archive_dominance_tests": "count",
    "evolution.self_s": "s",
    "pareto.sort_calls": "count",
    "pareto.sort_s": "s",
    "pareto.sort_max_n": "count",
    "pareto.sort_ms_at_max_n": "ms",
    "pareto.crowding_s": "s",
    "pareto.hypervolume_s": "s",
    "pareto.self_s": "s",
    "pareto.sort_share": "ratio",
    "cli.io_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _import_program():
    """Import the package from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import stealthtour
    except ImportError as exc:
        sys.exit(f"error: cannot import stealthtour from {ROOT / 'src'}: {exc}")
    if (ROOT / "src") not in Path(stealthtour.__file__).resolve().parents:
        sys.exit(f"error: stealthtour imported from {stealthtour.__file__}, not this checkout")


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _setup_seconds(args, reps: int) -> list[float]:
    """Wall time of fresh processes that import the program and prepare the inputs."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                        "--seed", str(args.seed), "--setup-only"] + (["--toy"] if args.toy else []),
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def _provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
    }


_NODES = np.array([[6.0 + 3.0 * i, 11.0] for i in range(11)])


def _leg(a: float, b: float, d: float) -> float:
    best = math.inf
    for sign in (1.0, -1.0):
        p_sq = 2.0 + d * d - 2.0 * math.cos(a - b) + 2.0 * sign * d * (math.sin(a) - math.sin(b))
        if p_sq >= 0.0:
            tmp = math.atan2(math.cos(b) - math.cos(a), d + sign * (math.sin(a) - math.sin(b)))
            best = min(best, (tmp - a) % math.tau + math.sqrt(p_sq) + (b - tmp) % math.tau)
    return best


def _calibrate() -> float:
    """Wall time of a fixed kernel shaped like the program's work.

    Curve-length trigonometry plus a capped inverse-square field summed over
    sampled points, written here so that it never calls the program: its time
    follows only the host's speed.
    """
    t_start = time.perf_counter()
    acc = 0.0
    s = np.linspace(0.0, 20.0, 401)
    for i in range(120):
        poses = [(i * 0.1 + j, j * 0.7, (i * 0.3 + j) % math.tau) for j in range(6)]
        for (x0, y0, h0), (x1, y1, h1) in zip(poses, poses[1:]):
            acc += _leg(h0, h1, math.hypot(x1 - x0, y1 - y0))
        xs, ys = 5.0 + s * math.cos(i), 3.0 + s * math.sin(i)
        d = np.hypot(xs[:, None] - _NODES[None, :, 0], ys[:, None] - _NODES[None, :, 1])
        acc += float(np.minimum(50.0 / d**2, 30.0).sum())
    return time.perf_counter() - t_start


class HostSpeed:
    """Samples the calibration kernel once a period while inside ``with``."""

    def __init__(self):
        self.samples = [_calibrate()]

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, lambda *_: self.samples.append(_calibrate()))
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)

    def factor(self) -> float:
        """Multiplier that turns this run's wall times into nominal-host seconds.

        The host flips between a fast and a slow state within a second, so the
        mean sample, not the median, follows the share of time in each.
        """
        return NOMINAL_CALIBRATION_S / statistics.mean(self.samples)


def _measure(workload, seconds: float, speed: HostSpeed | None):
    """Repeat the timed operation while another repetition fits in ``seconds``.

    With ``speed`` each repetition is plain and sampled for host speed;
    without it each plain repetition is followed by a traced one.  Returns
    plain wall times (kernel samples taken out), traced wall times,
    (tracer, plain wall) pairs and the output of every repetition.
    """
    import tracing

    walls, traced, tracers, outputs = [], [], [], []
    min_reps = 2 if speed else 1
    start = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        if speed:
            sampled = len(speed.samples)
            with speed:
                wall, output = workload.run()
            wall -= sum(speed.samples[sampled:])
        else:
            wall, output = workload.run()
        walls.append(wall)
        outputs.append(output)
        if not speed:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced_wall, traced_output = workload.run(tracer)
            traced.append(traced_wall)
            outputs.append(traced_output)
            tracers.append((tracer, wall))
        now = time.perf_counter()
        if len(walls) >= min_reps and (now - start) + (now - t_rep) > seconds:
            return walls, traced, tracers, outputs


def main(argv=None) -> int:
    _import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload.prepare(args.seed, workdir, args.toy)
        if args.setup_only:
            return 0
        return _run(args, workload, workloads.Failures())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload, failures) -> int:
    load_start = os.getloadavg()
    provenance = _provenance()
    setup = [] if args.trace else _setup_seconds(args, 1 if args.toy else SETUP_REPS)
    speed = None if args.trace else HostSpeed()
    walls, traced, tracers, outputs = _measure(workload, args.seconds, speed)
    adjusted = [wall * speed.factor() for wall in walls] if speed else []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests = outputs[0]["digests"]
    for k, output in enumerate(outputs[1:], 1):
        if output["digests"] != digests:
            failures.add(f"repetition {k} output bytes differ from repetition 0"
                         + (" (traced)" if args.trace and k % 2 else ""))
    quality, traffic = workload.check(outputs[0], failures)
    # every repetition gave the same bytes, so one check stands for all of them
    attempted = failures.attempted * len(outputs)
    failed = failures.failed * len(outputs)

    if args.trace:
        per_rep = [tracer.layer_metrics(plain) for tracer, plain in tracers]
        values = {name: statistics.median(rep[name] for rep in per_rep) for name in PER_LAYER}
        calls = values["sensing.exposure_calls"]
        traffic.update({
            "dubins_calls": values["geometry.dubins_calls"],
            "dubins_distinct": values["geometry.dubins_distinct"],
            "mean_curves_per_tour": values["sensing.curves_integrated"] / calls if calls else 0.0,
        })
        tracers[-1][0].write(OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz")
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(adjusted),
            "setup_s": statistics.median(setup) * speed.factor(),
            "peak_rss_mb": peak_rss_mb,
            **quality,
        }
        units = END_TO_END

    golden = json.loads((HERE / "golden_digests.json").read_text())
    expected = None if args.toy else golden.get(args.workload, {}).get(str(args.seed))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance,
        "load_average": {"start": load_start, "end": os.getloadavg()},
        "wall_s": {"runs": adjusted, "quartiles": _quartiles(adjusted)} if adjusted else None,
        "raw_wall_s": {"runs": walls, "quartiles": _quartiles(walls)},
        "calibration_s": speed.samples if speed else None,
        "traced_wall_s": {"runs": traced, "quartiles": _quartiles(traced)} if traced else None,
        "setup_s": {"runs": setup, "quartiles": _quartiles(setup)} if setup else None,
        "peak_rss_mb": peak_rss_mb,
        "quality": quality,
        "traffic": traffic,
        "digests": digests,
        "golden_digests": "none" if expected is None else ("match" if expected == digests else "differ"),
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted if attempted else 0.0,
        "failures": failures.items,
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    correct = not failures.items and failed == 0
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for what in failures.items:
        print(f"FAIL {what}")
    print(f"output digests vs golden_digests.json: {record['golden_digests']}")
    print(f"record written to {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
