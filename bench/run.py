"""Benchmark of dslforge: cold dimension tables, warm certificates and checks,
and conjugation recovery.

    python3 bench/run.py --workload dims-cold --seed 1 --seconds 15 --trace 0

Runs from a checkout holding `src/dslforge`.  The run gets a private, empty
basis cache under `.bench_out/` (removed at exit), sets up its inputs from
--seed, repeats whole rounds of the workload's operations until --seconds
have passed (at least one round), checks every answer, and prints one JSON
line last: {"correct", "attempted", "failed", "metrics"}.  --trace 1 adds one
traced round after the untraced ones and reports the per-layer metrics
instead, also written to `.bench_out/trace-<workload>-seed<seed>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 3  # set-up repetitions per run; setup_s reports their median
IMPORT_SAMPLES = 5  # this process's import plus four fresh interpreters
CALIBRATION_SAMPLES = 10  # probe samples on each side of the timed import
MIN_OP_PROBES = 5  # probe samples an operation needs to be scaled on its own
# A fresh interpreter times its import of dslforge between probe samples and
# prints the import time at reference speed.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import speed
probe = speed.SpeedProbe()
probe.calibrate(10)
t = time.perf_counter()
import dslforge
took = time.perf_counter() - t
probe.calibrate(10)
print(took / probe.slowdown(0))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["dims-cold", "verify-warm", "decompose"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_samples(probe: speed.SpeedProbe) -> list[float]:
    """Import times of fresh interpreters at reference speed.  The timer is
    stopped meanwhile: an interpreter running beside it would slow it."""
    samples = []
    probe.stop()
    for _ in range(IMPORT_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    probe.start()
    return samples


def run(args, workdir: Path, probe: speed.SpeedProbe) -> dict:
    clock = probe.clock
    probe.calibrate(CALIBRATION_SAMPLES)
    t0 = clock()
    import dslforge  # noqa: F401  (timed: the import is part of set-up)

    first_import = clock() - t0
    probe.calibrate(CALIBRATION_SAMPLES)
    first_import /= probe.slowdown(0)
    probe.start()
    if Path(dslforge.__file__).resolve().parent != SRC / "dslforge":
        raise SystemExit(f"imported dslforge from {dslforge.__file__}, not {SRC}")
    import workloads  # the benchmark's own modules import dslforge's submodules

    workload = workloads.WORKLOADS[args.workload]
    rep_times = []
    for rep in range(SETUP_REPS):
        mark, t = probe.mark(), clock()
        state = workload.setup(args.seed, workdir, rep)
        rep_times.append((clock() - t) / probe.slowdown(mark))
    imports = [first_import] + import_samples(probe)
    setup_s = statistics.median(imports) + statistics.median(rep_times)

    def timed_round(index: int, log) -> tuple[float, float]:
        """One round; returns (seconds at reference speed, slowdown)."""
        mark = probe.mark()
        t = clock()
        workload.round(state, workdir, index, log)
        raw = clock() - t
        slow = probe.slowdown(mark)
        log.samples = [
            dt / (probe.slowdown(m0, m1) if m1 - m0 >= MIN_OP_PROBES else slow)
            for dt, m0, m1 in log.samples
        ]
        return raw / slow, slow

    walls, slows, logs = [], [], []
    start = perf_counter()
    while not walls or perf_counter() - start < args.seconds:
        logs.append(workloads.RoundLog(clock, probe.mark))
        wall, slow = timed_round(len(walls), logs[-1])
        walls.append(wall)
        slows.append(slow)
    wall_s = statistics.median(walls)
    print(f"rounds {len(walls)}, slowdown {[round(x, 3) for x in slows]}",
          file=sys.stderr)

    if args.trace:
        import tracing

        tracer = tracing.Tracer(clock)
        tracing.install(tracer)
        logs.append(workloads.RoundLog(clock, probe.mark))
        traced_wall, traced_slow = timed_round(len(walls), logs[-1])
        probe.stop()  # tracemalloc pass below is not timed
        tracing.memory_pass(tracer, workloads.clear_memos)
        layer = tracer.metrics(traced_wall - wall_s, traced_slow)
        metrics = {n: {"value": layer[n], "unit": u} for n, u in tracing.METRICS.items()}
        report = {
            "workload": args.workload, "seed": args.seed,
            "untraced_round_s": walls, "traced_round_s": traced_wall,
            "slowdowns": slows + [traced_slow],
            "metrics": metrics, "spans": tracer.summary(),
        }
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(report, indent=1) + "\n")
        print(f"trace written to {trace_file.relative_to(ROOT)}", file=sys.stderr)
    else:
        samples = [s for log in logs for s in log.samples]
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "op_p50_ms": {"value": statistics.median(samples) * 1000, "unit": "ms"},
        }

    outcomes = [o for log in logs for o in log.outcomes]
    problems = [p for log in logs for p in log.problems]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": "wrong" not in outcomes and not problems,
        "attempted": len(outcomes),
        "failed": sum(o != "ok" for o in outcomes),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dslforge" / "__init__.py").is_file():
        print(f"no dslforge sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    os.environ["DSLFORGE_CACHE_DIR"] = str(workdir)
    sys.path.insert(0, str(SRC))
    probe = speed.SpeedProbe()
    try:
        result = run(args, workdir, probe)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
