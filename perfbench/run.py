"""kreinalg benchmark: one workload, one seed, one timed closed loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {structures,verify,cli} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
replays the same ops with span wrappers installed and prints the per-layer
metrics.  Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for what each workload and metric means.
"""

import os

# One BLAS thread, set before numpy loads here and inherited by every child.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# numpy, kreinalg and the perfbench modules that use them load inside
# timed_setup, so that every set-up sample includes their import.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("structures", "verify", "cli")
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process, print the seconds and exit")
    return parser.parse_args(argv)


def timed_setup(name: str, seed: int, workdir: Path):
    """Import, generate inputs and warm up, from a process that has not loaded numpy.

    Returns the workload and the set-up seconds at the reference speed.
    """
    start = time.perf_counter()
    import hostspeed
    import workloads

    speed = hostspeed.HostSpeed()
    workload = workloads.WORKLOADS[name](seed, workdir)
    with speed.sampling():
        workload.setup()
    end = time.perf_counter()
    speed.burst(20)  # a short set-up has few probes inside it
    return workload, speed.scaled(start, end)


def child_setup_seconds(name: str, seed: int) -> float:
    """Set-up seconds of a fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=SETUP_TIMEOUT_S)
    return float(proc.stdout.split()[-1])


def measure(workload, seconds=None, count=None, tracer=None, speed=None, inside=False):
    """Closed loop, one op in flight.

    Runs ``count`` ops, or whole rounds until ``seconds`` of op time have
    passed.  Only the op is timed; its oracle checks run between ops.
    With a HostSpeed ``speed`` the probe runs all through the loop: inside
    the ops when ``inside``, else after each op.  ``durations`` then scales
    each op to the reference speed.  Returns the op spans (start, end) in
    perf_counter seconds and the summed Tally.
    """
    import workloads

    run = workload.run_op if tracer is None else tracer.wrap("op", workload.run_op)
    spans, tally = [], workloads.Tally()
    busy = 0.0
    i = 0
    with speed.sampling() if inside else contextlib.nullcontext():
        while (i < count) if count is not None else (busy < seconds or i % workload.round_len):
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            out = run(i, tracer)
            end = time.perf_counter()
            spans.append((start, end))
            busy += end - start
            tally += workload.check(i, out)
            if tracer is not None:
                workload.collect(i, out, end - start, tracer)
            if speed is not None and not inside:
                speed.between_ops()
            i += 1
    return spans, tally


def durations(spans, speed=None):
    """Op latencies (s): as measured, or at the reference speed of ``speed``."""
    if speed is None:
        return [end - start for start, end in spans]
    return [speed.scaled(start, end) for start, end in spans]


def percentile_90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """The checkout's commit; None outside a git repository or without git."""
    # The ceiling stops git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {key: os.environ.get(key) for key in BLAS_PIN},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb(workload) -> float:
    """Peak resident set size; for cli, the largest child so far (ru_maxrss is in KiB)."""
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(latencies, failed_ratio, setup_samples, rss_mb):
    """End-to-end metrics, plus lines stating their sample counts."""
    ms = sorted(1000.0 * t for t in latencies)
    p90 = percentile_90(ms)
    beyond = sum(1 for t in ms if t > p90)
    lines = [
        f"ops {len(ms)}; samples beyond p90: {beyond}"
        + ("" if beyond >= 10 else " (fewer than 10: p90 is indicative only)"),
        "setup samples (s): " + ", ".join(f"{s:.4f}" for s in setup_samples),
    ]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "ops_per_s": (len(ms) / sum(latencies), "1/s"),
        "failed_ratio": (failed_ratio, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, lines


def traced(workload, name, seed, seconds):
    """Untraced pass over whole rounds, then the same ops traced; per-layer metrics.

    Both passes probe the host speed between ops, and the overhead ratio
    compares their op times at the reference speed.  Span times are as
    measured.
    """
    import hostspeed
    import tracing

    speed = hostspeed.HostSpeed(workload.in_process)
    plain, tally = measure(workload, seconds=seconds / 2, speed=speed)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer) if workload.in_process else None
    try:
        spans, traced_tally = measure(workload, count=len(plain), tracer=tracer, speed=speed)
    finally:
        if restore is not None:
            restore()
    tally += traced_tally
    ratio = sum(durations(spans, speed)) / sum(durations(plain, speed))
    values = tracing.layer_metrics(tracing.summarize(tracer.spans), tracer.counters,
                                   len(plain), ratio)
    path = OUT / f"trace-{name}-seed{seed}.json.gz"
    tracer.write(path, {"workload": name, "seed": seed, "ops": len(plain),
                        "environment": environment(seed)})
    lines = [f"traced ops {len(plain)} (each per-op value averages these); "
             f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}"]
    units = {metric: unit for metric, unit, _ in tracing.PER_LAYER}
    return {metric: (value, units[metric]) for metric, value in values.items()}, tally, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kreinalg" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no kreinalg sources under {SRC}; "
                         "run from the root of a kreinalg checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)  # inherited by every child process
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload, setup_seconds = timed_setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(setup_seconds))
            return 0
        if not workload.in_process:
            workload.run_op(0)  # warm the file cache for the child interpreters
        if args.trace:
            metrics, tally, lines = traced(workload, args.workload, args.seed, args.seconds)
        else:
            import hostspeed

            speed = hostspeed.HostSpeed(workload.in_process)
            spans, tally = measure(workload, seconds=args.seconds, speed=speed,
                                   inside=workload.in_process)
            latencies, measured = durations(spans, speed), durations(spans)
            # Read before the set-up children run, so that only op processes count.
            rss_mb = peak_rss_mb(workload)
            setup_samples = [setup_seconds] + [
                child_setup_seconds(args.workload, args.seed)
                for _ in range(workload.setup_samples - 1)
            ]
            metrics, lines = end_to_end(latencies, workload.failed_ratio(tally), setup_samples,
                                        rss_mb)
            lines.append(f"host slowdown {speed.slowdown():.3f} (median of {len(speed.seconds)} "
                         "probes; op times are divided by the slowdown around each op)")
            lines.append(f"as measured, before scaling: op_p50_ms "
                         f"{1000 * statistics.median(measured):.6g}, ops_per_s "
                         f"{len(measured) / sum(measured):.6g}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("\n".join(lines))
    print("env " + json.dumps(environment(args.seed)))
    for note, count in sorted(tally.notes.items()):
        print(f"failure x{count}: {note}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
