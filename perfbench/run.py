"""graspmap benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it runs the program from ``src/``. Set-up
makes the workload's input files SETUP_REPEATS times, each in a fresh process
(import plus inputs). A second process then runs the operations: one untimed
warm-up, then whole rounds of one closed-loop operation through
``graspmap.cli.main`` until S seconds have passed. Every operation's outputs
are checked against the simulator's truth and an independent detector
oracle (``checks.py``).

With ``--trace 0`` it reports the end-to-end metrics (setup_s, op_s,
peak_rss_mb). With ``--trace 1`` each round is one untraced and one traced
operation, and it reports the per-layer metrics of the traced ones
(``tracer.py``) plus the tracing overhead. Readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Scratch files live in ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
DEADLINE_S = 170  # the whole run, set-up included
TAIL_MIN_SAMPLES = 40
# One BLAS thread, so that op_s does not depend on how many CPUs a machine
# lends the run; the workloads spend their time in single-threaded Python.
BLAS_THREADS = "1"
# glibc raises its mmap threshold each time a large mapped block is freed;
# after that, whether a 29.5 MB solve-320kf Hessian lives in the heap or in a
# mapping of its own varied from run to run, and so did peak RSS (188 or
# 246 MB). Pinned at glibc's default 128 KiB, every block above it is mapped
# and returned on free, and peak RSS repeats. Pinned where the adjustment
# ends (32 MiB) instead, large blocks were reused from the heap, and a
# calloc'd matrix was lazily zeroed or written in full depending on where it
# landed: peak RSS read 189 or 248 MB. worker.py also turns transparent huge
# pages off for itself.
MALLOC_MMAP_THRESHOLD = "131072"


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["MALLOC_MMAP_THRESHOLD_"] = MALLOC_MMAP_THRESHOLD
    return env


def worker(args: list, env: dict, deadline: float) -> str:
    """Run worker.py to completion within the deadline; returns its stdout."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                          env=env, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    return proc.stdout


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def tail_line(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < TAIL_MIN_SAMPLES:
        return f"no tail percentile below {TAIL_MIN_SAMPLES} samples"
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f} s"


def measure(args, root: Path) -> tuple[list[float], dict, list[dict], str]:
    """Set-up times, the worker's result, each operation's check results, and
    the first operation's errors against the truth."""
    deadline = time.monotonic() + DEADLINE_S
    scratch = root / ".perfbench-work"
    work = scratch / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    env = child_env(root / "src")
    try:
        setup_s = []
        for k in range(SETUP_REPEATS):
            out = worker(["setup", args.workload, args.seed, work / f"inputs{k}"],
                         env, deadline)
            setup_s.append(json.loads(out.splitlines()[-1])["setup_s"])
            if k:
                shutil.rmtree(work / f"inputs{k}")
        (work / "inputs0").rename(work / "inputs")
        worker(["run", args.workload, args.seed, work, args.seconds, args.trace,
                scratch / f"spans-{args.workload}.jsonl"], env, deadline)
        result = json.loads((work / "result.json").read_text())
        rounds = work / "rounds"
        verdicts = [checks.check_op(args.workload, rounds / str(i), op, result)
                    for i, op in enumerate(result["ops"])]
        errors = checks.truth_errors(args.workload, rounds / "0", result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setup_s, result, verdicts, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(checks.CHECKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "graspmap" / "__init__.py").is_file():
        print(f"perfbench: no graspmap sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    try:
        setup_s, result, verdicts, errors = measure(args, root)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1

    ops = result["ops"]
    untraced = [op["op_s"] for op in ops if not op["traced"]]
    failures = Counter(name for v in verdicts for name, ok in v.items() if not ok)
    attempted = sum(len(v) for v in verdicts)
    known = {name for w, name in checks.KNOWN_FAULTS if w == args.workload}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"machine {platform.machine()} {len(os.sched_getaffinity(0))} cpus  "
          f"blas threads {result['blas_threads']}  python {platform.python_version()}")
    print(f"setup_s      {statistics.median(setup_s):.4f} s  median of "
          f"{len(setup_s)} set-ups: " + ", ".join(f"{t:.4f}" for t in setup_s))
    print(f"op_s         {statistics.median(untraced):.4f} s  median of "
          f"{len(untraced)} untraced operations; {tail_line(untraced)}; samples: "
          + ", ".join(f"{t:.3f}" for t in untraced))
    print(f"peak_rss_mb  {result['peak_rss_mb']:.1f} MB  operations process")
    print(f"checks       {attempted} attempted, {sum(failures.values())} failed "
          f"over {len(ops)} operations: "
          + (", ".join(f"{name} {n}/{len(verdicts)}"
                       + (" (known fault: dense-keyframe scale bias)" if name in known
                          else "")
                       for name, n in sorted(failures.items())) or "all passed"))
    sigma = ops[0]["sigma"]
    print(f"truth        first operation: {errors}"
          + ("" if sigma is None else f", sigma(log s) {sigma:.6g}"))

    if args.trace:
        traced = [op["layers"] for op in ops if op["traced"]]
        metrics = {name: statistics.median(layers[name] for layers in traced)
                   for name in traced[0]}
        metrics["trace.untraced_op_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.op_s"] - metrics["trace.untraced_op_s"]
        for name, value in metrics.items():
            print(f"  {name:32s} {value:.6g} {unit(name)}")
        print(f"tracing overhead {metrics['trace.overhead_s']:.4f} s = "
              f"{100 * metrics['trace.overhead_s'] / metrics['trace.untraced_op_s']:.1f}% "
              f"of untraced op_s, medians of {len(traced)} traced and "
              f"{len(untraced)} untraced operations")
    else:
        metrics = {"setup_s": statistics.median(setup_s),
                   "op_s": statistics.median(untraced),
                   "peak_rss_mb": result["peak_rss_mb"]}
    print(json.dumps({
        "correct": set(failures) <= known,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
