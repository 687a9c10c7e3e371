"""Benchmark of the meanreflect engine on four figure-config workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig1_cloud --seed 1 --seconds 24 --trace 0

``--trace 0`` measures set-up (import plus model or config build) in three
fresh processes, warms up at toy size, then repeats the workload until the
next run would end past ``--seconds`` (at least three times), checking every
output. It prints ``setup_s``, ``wall_s``, ``particle_steps_per_s``,
``peak_rss_mb`` and ``failed_fraction``.

``--trace 1`` makes one untraced run, one run with span tracing installed
(``spans.py``) and, for ``fig1_cloud``, one single-threaded run as the
serial baseline; it prints the per-layer metrics, the tracing overhead and
whether the output digests of those runs agree.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A copy of the
result, with the environment, goes to ``.perfbench_out/`` in the checkout,
next to the spans of a traced run. The engine runs with its default worker
count (``MEANREFLECT_THREADS`` is cleared).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from spans import PER_LAYER_UNITS, Tracer, tail
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh processes that repeat set-up besides this one; set-up is their median.
SETUP_PROBES = 2
#: Timed runs needed for a median, even when one run outlasts ``--seconds``.
MIN_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "particle_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Sample:
    wall_s: float
    digest: str | None
    checks: dict
    failures: list


def set_up(workload, seed):
    """Import meanreflect from this checkout and build the workload."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import meanreflect

    state = workload.build(seed)
    elapsed = time.perf_counter() - start
    if Path(meanreflect.__file__).resolve().parent != SRC / "meanreflect":
        sys.exit(f"perfbench: imported meanreflect from {meanreflect.__file__}, not {SRC}")
    return elapsed, state


def probe_setup(workload, seed):
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload.name, "--seed", str(seed),
         "--seconds", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def measure(workload, state, threads=None):
    start = time.perf_counter()
    try:
        outcome = workload.run(state, threads)
    except Exception as exc:
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return Sample(elapsed, None, {}, [f"raised {type(exc).__name__}"])
    elapsed = time.perf_counter() - start
    checks = {name: value for name, (value, _) in outcome.checks.items()}
    return Sample(elapsed, outcome.digest(), checks, outcome.failures())


def environment():
    import numpy
    import scipy

    from meanreflect.parallel import worker_count

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    llc = None
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    for index in caches:
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if llc is None or level >= llc[0]:
            llc = (level, size)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": worker_count(),
        "cpu": cpu,
        "llc": None if llc is None else f"L{llc[0]} {llc[1]}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": source_digest(),
    }


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "meanreflect").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def report_sample(label, sample):
    status = "ok" if not sample.failures else "FAILED " + " ".join(sample.failures)
    checks = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in sample.checks.items())
    print(f"{label}: {sample.wall_s:.4f} s digest={sample.digest} {checks} {status}")


def timed_runs(workload, state, seconds):
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(measure(workload, state))
        report_sample(f"run {len(samples)}", samples[-1])
        used = time.perf_counter() - start
        typical = median([s.wall_s for s in samples])
        if len(samples) >= MIN_SAMPLES and used + typical > seconds:
            return samples


def end_to_end(workload, seed, seconds):
    setup_s, state = set_up(workload, seed)
    setups = [setup_s] + [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    workload.toy().run(workload.toy().build(seed))
    samples = timed_runs(workload, state, seconds)
    walls = [s.wall_s for s in samples]
    wall = median(walls)
    metrics = {
        "setup_s": median(setups),
        "wall_s": wall,
        "particle_steps_per_s": workload.particle_steps / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"setup_s samples: {' '.join(f'{t:.4f}' for t in setups)}")
    pct, slowest = tail(walls)
    print(f"wall_s: median {wall:.4f} s, p{pct:g} {slowest:.4f} s over {len(samples)} runs")
    digests = {s.digest for s in samples}
    if len(digests) != 1:
        print(f"note: runs of one seed gave {len(digests)} different digests")
    return metrics, samples


def traced(workload, seed):
    _, state = set_up(workload, seed)
    workload.toy().run(workload.toy().build(seed))
    plain = measure(workload, state)
    report_sample("untraced run", plain)
    tracer = Tracer()
    with tracer:
        with_spans = measure(workload, state)
    report_sample("traced run", with_spans)
    samples = [plain, with_spans]
    metrics = tracer.metrics()
    metrics["parallel.speedup_2t"] = 0.0
    if workload.name == "fig1_cloud":
        serial = measure(workload, state, threads=1)
        report_sample("single-threaded run", serial)
        samples.append(serial)
        metrics["parallel.speedup_2t"] = serial.wall_s / plain.wall_s
    metrics["trace.wall_s"] = with_spans.wall_s
    metrics["trace.overhead_s"] = with_spans.wall_s - plain.wall_s
    same = len({s.digest for s in samples}) == 1
    metrics["trace.digest_match"] = int(same)
    if not same:
        print("note: output digests differ between untraced, traced and serial runs")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload.name}-seed{seed}-spans.jsonl")
    for name in ("scheme.step", "harness.replication"):
        durations = tracer.durations_ms(name)
        if durations:
            print(f"{name}_ms: tail is p{tail(durations)[0]:g} of {len(durations)}")
    return metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="run at toy sizes (self-test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "meanreflect" / "__init__.py").is_file():
        sys.exit(f"perfbench: no meanreflect sources under {SRC}; run from a checkout")
    os.environ.pop("MEANREFLECT_THREADS", None)
    workload = WORKLOADS[args.workload]
    if args.toy:
        workload = workload.toy()
    if args.setup_probe:
        print(set_up(workload, args.seed)[0])
        return 0

    print(f"workload {workload.name} seed={args.seed} {workload.describe()} "
          f"particle_steps={workload.particle_steps}")
    if args.trace:
        metrics, samples = traced(workload, args.seed)
        units = PER_LAYER_UNITS
    else:
        metrics, samples = end_to_end(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    failed = sum(1 for s in samples if s.failures)
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    print(f"metric failed_fraction = {failed / len(samples)!r} ({failed} of {len(samples)} runs)")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env,
        "samples": [vars(s) for s in samples], "result": result,
    }
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as out:
        json.dump(record, out, indent=1, default=float)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
