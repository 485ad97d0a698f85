"""Worker processes of the graspmap benchmark; ``run.py`` starts them.

    python3 perfbench/worker.py setup WORKLOAD SEED DIR
        Imports graspmap and writes the workload's input files under DIR.
        Prints {"setup_s": seconds for import plus inputs}.
    python3 perfbench/worker.py run WORKLOAD SEED DIR SECONDS TRACE SPANS
        Runs one untimed warm-up operation on the inputs in DIR, then whole
        rounds of operations until SECONDS have passed, and writes
        DIR/result.json. With TRACE 1 a round is one untraced and one traced
        operation, and the spans go to the file SPANS.

Both need graspmap's ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

# The 320-keyframe bundle is the same for every --seed: its scale check is
# the one failure the benchmark keeps (dense-keyframe scale bias), and a
# failure may only be kept on inputs that do not vary with the seed.
SOLVE_BUNDLE_SEED = 0
DETECT_VOXEL = "0.001"
PR_SET_THP_DISABLE = 41


def disable_thp() -> None:
    """No transparent huge pages for this process.

    numpy asks for huge pages on arrays of 4 MB and more. Whether it gets
    them depends on where a block lands and on whether the kernel finds free
    2 MB pages, neither of which is the program's doing. With huge pages and
    glibc's mmap threshold at 32 MiB, solve-320kf's peak RSS read 189 or
    218 MB from run to run, and its op_s spread 22% over five seeds; without
    them, 0.1% and 5%.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_THP_DISABLE) failed")


def sim_config(workload: str, seed: int) -> dict:
    """SimConfig fields of the workload's simulated sweep."""
    if workload == "pipeline-20kf":
        return {"seed": seed}  # what `graspmap pipeline --seed N` simulates
    if workload == "solve-320kf":
        return {"seed": SOLVE_BUNDLE_SEED, "keyframes": 320,
                "cloud_points_per_keyframe": 1}
    if workload == "detect-1mm":
        return {"seed": seed, "keyframes": 20, "cloud_points_per_keyframe": 40000}
    raise ValueError(f"unknown workload {workload!r}")


# Small artifacts each round keeps for run.py's checks.
CHECKED_FILES = {
    "pipeline-20kf": ["solve/graph.txt", "solve/report.txt", "detect/grid.txt",
                      "detect/graspable.csv"],
    "solve-320kf": ["graph.txt", "report.txt"],
    "detect-1mm": ["grid.txt", "graspable.csv"],
}


def setup(workload: str, seed: int, directory: Path) -> None:
    t0 = time.perf_counter()
    from graspmap.mapping import scale_cloud, write_ply
    from graspmap.simulation import SimConfig, simulate, write_bundle

    directory.mkdir(parents=True)
    config = SimConfig(**sim_config(workload, seed))
    if workload == "solve-320kf":
        write_bundle(directory / "bundle", simulate(config))
    elif workload == "detect-1mm":
        bundle = simulate(config)
        write_ply(directory / "cloud.ply", scale_cloud(bundle.cloud, config.true_scale))
    # pipeline-20kf simulates its own inputs: its set-up is the import alone
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def digest(out: Path) -> str:
    """SHA-256 over every artifact, with the wall time left out of summary.yaml."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.yaml":
            data = b"".join(line for line in data.splitlines(True)
                            if not line.startswith(b"wall_time_s:"))
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def run(workload: str, seed: int, work: Path, seconds: float, trace: bool,
        spans_path: Path) -> None:
    import graspmap.cli
    import graspmap.solver
    from graspmap.simulation import SimConfig
    from tracer import Tracer

    config = SimConfig(**sim_config(workload, seed))
    inputs, out = work / "inputs", work / "out"
    argv = {
        "pipeline-20kf": ["pipeline", "--seed", str(seed), "--out", str(out)],
        "solve-320kf": ["solve", str(inputs / "bundle"), "--out", str(out)],
        "detect-1mm": ["detect", str(inputs / "cloud.ply"),
                       "--voxel-size", DETECT_VOXEL, "--out", str(out)],
    }[workload]

    def op():
        code = graspmap.cli.main(argv)
        sigma = None
        if workload == "solve-320kf" and code == 0:
            # README Library section: the scale's marginal on the solved graph
            graph = graspmap.solver.load_graph(out / "graph.txt")
            sigma = graph.marginal_scale_stddev()
        return code, sigma

    tracer = Tracer()

    def one(traced: bool) -> dict:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            if traced:
                (code, sigma), layers = tracer.run_op(op)
                op_s = layers["trace.op_s"]
            else:
                t0 = time.perf_counter()
                code, sigma = op()
                op_s = time.perf_counter() - t0
                layers = None
        return {"traced": traced, "op_s": op_s, "exit": code, "sigma": sigma,
                "digest": digest(out), "layers": layers}

    warmup = one(False)
    ops = []
    t0 = time.perf_counter()
    while not ops or time.perf_counter() - t0 < seconds:
        # alternate which side of the pair runs first
        order = ((False, True) if len(ops) % 4 == 0 else (True, False)) if trace \
            else (False,)
        for traced in order:
            rec = one(traced)
            keep = work / "rounds" / str(len(ops))
            keep.mkdir(parents=True)
            for name in CHECKED_FILES[workload]:
                if (out / name).is_file():
                    shutil.copy(out / name, keep / Path(name).name)
            ops.append(rec)
    if trace:
        tracer.write(spans_path)
    result = {
        "true_scale": config.true_scale,
        "apexes": config.terrain.apexes().tolist(),
        "warmup_digest": warmup["digest"],
        "ops": ops,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    (work / "result.json").write_text(json.dumps(result))


def main(argv: list[str]) -> int:
    disable_thp()
    if argv[:1] == ["setup"] and len(argv) == 4:
        setup(argv[1], int(argv[2]), Path(argv[3]))
    elif argv[:1] == ["run"] and len(argv) == 7:
        run(argv[1], int(argv[2]), Path(argv[3]), float(argv[4]), argv[5] == "1",
            Path(argv[6]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
