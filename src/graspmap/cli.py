"""Command-line front end: simulate -> solve -> detect, plus a one-shot pipeline.

Stages exchange plain files so any stage can be rerun or swapped in isolation:

    <run>/bundle/   synthetic trajectory, tracker deltas, unscaled cloud, truth
    <run>/solve/    factor graph with final estimates + optimization report
    <run>/detect/   voxel-grid dump, graspable anchor list; re-detect at another
                    resolution with `pipeline --stage detect --voxel-size ...`
    <run>/summary.yaml

Exit codes: 0 success, 2 bad configuration, 3 missing, unreadable or corrupt
artifacts (the message names the file and line), 4 optimizer did not converge,
5 no usable data (empty cloud, degenerate mask, unseen terrain). Which of 2
and 3 a bad file gets depends on its role: a file that configures a run
(--config, --limb) and does not parse, holds a non-finite or boolean value or
does not fit the bundle's joint count exits 2; a corrupt data artifact (the
bundle files including manifest.yaml, a PLY cloud, graph.txt, report.txt)
exits 3; a missing or unreadable file of either kind exits 3.
An empty graspable list is a success, not an error: flat ground has nothing to
grasp. Errors are prefixed with their stage, as in "[solve] file error: ...".
Set GRASPMAP_LOG_LEVEL (DEBUG/INFO/WARNING) for verbosity; a name that is
not a logging level exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import fk_pose, write_ply  # noqa: F401 -- read only by perfbench/tracer.py
from .errors import (ConfigError, CorruptArtifact, DegenerateMask, EmptyCloud,
                     GraspmapError, NoVisibleTerrain, NotConverged,
                     SingularNormalEquations, UnreachableTerrain)
from .kinematics import LimbModel, default_limb, load_limb
from .mapping import (DEFAULT_DEPTH, DEFAULT_INNER_RADIUS, DEFAULT_MIN_POINTS,
                      DEFAULT_OUTER_RADIUS, DEFAULT_VOXEL_SIZE, PointCloud,
                      build_mask, detect_graspable, fill_below, read_ply,
                      save_graspable, save_grid, scale_cloud, voxelize)
from .records import write_yaml
from .simulation import (SimBundle, SimConfig, load_config, read_bundle,
                         simulate, write_bundle)
from .solver import (MAX_ITER, build_graph, load_graph, load_report, save_graph,
                     save_report)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NOT_CONVERGED = 4
EXIT_EMPTY = 5

# (error types, exit code, message kind); the first match wins, so
# CorruptArtifact, also a ValueError, exits 3 rather than 2
EXIT_CODES = (
    ((CorruptArtifact, OSError), EXIT_IO, "file error"),
    ((ConfigError, UnreachableTerrain, ValueError), EXIT_CONFIG, "config error"),
    ((NotConverged, SingularNormalEquations), EXIT_NOT_CONVERGED, "solver error"),
    ((EmptyCloud, DegenerateMask, NoVisibleTerrain), EXIT_EMPTY, "empty result"),
    ((GraspmapError,), EXIT_FAILURE, "error"),
)

GRAPH_FILE = "graph.txt"
REPORT_FILE = "report.txt"
GRID_FILE = "grid.txt"
GRASPABLE_FILE = "graspable.csv"
SUMMARY_FILE = "summary.yaml"

log = logging.getLogger("graspmap")


@contextmanager
def stage(name: str):
    """Run a block as stage ``name``: an error escaping it carries the name
    as its ``stage`` attribute, which main() prefixes to the message."""
    log.debug("entering stage %s", name)
    try:
        yield
    except Exception as exc:
        exc.stage = name
        raise


# --- stage bodies (shared by single commands and the pipeline) -----------------------


def _stage_simulate(config: SimConfig, out_dir, model: LimbModel) -> SimBundle:
    bundle = simulate(config, model)
    files = write_bundle(out_dir, bundle)
    print(f"[simulate] seed {config.seed}: wrote {', '.join(files)} to {out_dir}")
    return bundle


def _stage_solve(bundle: SimBundle, out_dir, model: LimbModel, args):
    graph = build_graph(bundle, model, args.literal_eq8)
    report = graph.optimize(args.max_iter)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_graph(out / GRAPH_FILE, graph)
    save_report(out / REPORT_FILE, report)
    print(f"[solve] scale estimate {graph.scale.value:.9g} "
          f"(final cost {report.final_cost:.6g}, {report.iterations} iterations)")
    if not report.converged:
        # artifacts are already on disk for inspection
        raise NotConverged(f"no convergence within {args.max_iter} iterations")
    return graph, report


def _stage_detect(cloud: PointCloud, out_dir, args):
    grid = fill_below(voxelize(cloud, args.voxel_size, args.min_points))
    mask = build_mask(args.outer_radius, args.inner_radius, args.depth,
                      args.voxel_size)
    hits = detect_graspable(grid, mask)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_grid(out / GRID_FILE, grid)
    save_graspable(out / GRASPABLE_FILE, hits)
    if hits:
        p = hits[0].position
        print(f"[detect] {len(hits)} graspable anchors; "
              f"top ({p[0]:.4f}, {p[1]:.4f}, {p[2]:.4f}) m")
    else:
        print("[detect] no graspable anchors (nothing convex to envelop)")
    return hits


def _resolve_config(args) -> SimConfig:
    config = load_config(args.config) if args.config else SimConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _resolve_limb(args) -> LimbModel:
    return load_limb(args.limb) if args.limb else default_limb()


# --- subcommands -------------------------------------------------------------------


def cmd_simulate(args) -> int:
    with stage("simulate"):
        _stage_simulate(_resolve_config(args), args.out, _resolve_limb(args))
    return EXIT_OK


def cmd_solve(args) -> int:
    with stage("solve"):
        _stage_solve(read_bundle(args.bundle), args.out, _resolve_limb(args), args)
    return EXIT_OK


def cmd_detect(args) -> int:
    with stage("detect"):
        _stage_detect(read_ply(args.cloud), args.out, args)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    t0 = time.perf_counter()
    run = Path(args.out)
    bundle_dir, solve_dir, detect_dir = run / "bundle", run / "solve", run / "detect"
    start = ("simulate", "solve", "detect").index(args.stage)

    with stage("simulate"):
        model = _resolve_limb(args)
        if start <= 0:
            bundle = _stage_simulate(_resolve_config(args), bundle_dir, model)
        else:
            log.info("reusing bundle in %s", bundle_dir)
            bundle = read_bundle(bundle_dir)

    with stage("solve"):
        if start <= 1:
            graph, report = _stage_solve(bundle, solve_dir, model, args)
        else:
            log.info("reusing solve artifacts in %s", solve_dir)
            graph = load_graph(solve_dir / GRAPH_FILE)
            report = load_report(solve_dir / REPORT_FILE)

    with stage("detect"):
        hits = _stage_detect(scale_cloud(bundle.cloud, graph.scale), detect_dir, args)

    s_true = bundle.config.true_scale
    apexes = bundle.config.terrain.apexes()
    apex_error = None
    if hits and len(apexes):
        apex_error = float(np.min(np.linalg.norm(apexes - hits[0].position, axis=1)))
    summary = {
        "scale_error_rel": float(abs(graph.scale.value - s_true) / s_true),
        "apex_error_m": apex_error,
        "final_cost": float(report.final_cost),
        "wall_time_s": float(time.perf_counter() - t0),
    }
    with stage("pipeline"):
        write_yaml(run / SUMMARY_FILE, summary)
    print(f"[pipeline] scale_error_rel={summary['scale_error_rel']:.3g} "
          f"apex_error_m={apex_error if apex_error is None else f'{apex_error:.4f}'} "
          f"final_cost={summary['final_cost']:.3g} "
          f"wall_time_s={summary['wall_time_s']:.2f}")
    return EXIT_OK


# --- argument parsing ----------------------------------------------------------------


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="simulation config YAML (defaults built in)")
    p.add_argument("--seed", type=int, help="override the config's seed")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iter", type=int, default=MAX_ITER)
    p.add_argument("--literal-eq8", action="store_true",
                   help="use the raw tracker translation residual (scale times "
                        "measured delta with no frame re-alignment)")


def _add_detect_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--voxel-size", type=float, default=DEFAULT_VOXEL_SIZE)
    p.add_argument("--outer-radius", type=float, default=DEFAULT_OUTER_RADIUS)
    p.add_argument("--inner-radius", type=float, default=DEFAULT_INNER_RADIUS)
    p.add_argument("--depth", type=float, default=DEFAULT_DEPTH)
    p.add_argument("--min-points", type=int, default=DEFAULT_MIN_POINTS,
                   help="occupancy threshold per voxel")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="graspmap",
        description="Scale-aware fusion of limb kinematics with a monocular "
                    "terrain map, ending in graspable-point detection.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic data bundle")
    _add_sim_flags(p)
    p.add_argument("--limb", help="limb model YAML (default: built-in limb, configs/limb.yaml)")
    p.add_argument("--out", required=True, help="bundle output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve", help="estimate poses and metric scale from a bundle")
    p.add_argument("bundle", help="bundle directory from 'simulate'")
    p.add_argument("--limb", help="limb model YAML (default: built-in limb, configs/limb.yaml)")
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="directory for graph and report")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("detect", help="find graspable anchors in a metric cloud")
    p.add_argument("cloud", help="metric PLY cloud (units comment must say meters)")
    _add_detect_flags(p)
    p.add_argument("--out", required=True, help="directory for grid and anchor list")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("pipeline", help="simulate, solve, scale, and detect in one run")
    _add_sim_flags(p)
    p.add_argument("--limb", help="limb model YAML (default: built-in limb, configs/limb.yaml)")
    _add_solver_flags(p)
    _add_detect_flags(p)
    p.add_argument("--stage", choices=("simulate", "solve", "detect"),
                   default="simulate",
                   help="stage to start from, reusing earlier artifacts in --out")
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_pipeline)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        level = (os.environ.get("GRASPMAP_LOG_LEVEL") or "WARNING").upper()
        if not isinstance(logging.getLevelName(level), int):  # an unknown name gives a str
            raise ConfigError(f"GRASPMAP_LOG_LEVEL must name a logging level "
                              f"(DEBUG, INFO, WARNING, ERROR), got {level!r}")
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except Exception as exc:
        for types, code, kind in EXIT_CODES:
            if isinstance(exc, types):
                label = getattr(exc, "stage", args.command)
                print(f"[{label}] {kind}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
