"""End-to-end command behaviour: files written, exit codes, reruns, reuse."""

import argparse
import dataclasses
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import graspmap
from graspmap.cli import _parser, main
from graspmap.kinematics import default_limb, load_limb, save_limb
from graspmap.mapping import (METERS, UNSCALED_UNITS, PointCloud,
                              load_graspable, write_ply)
from graspmap.simulation import SimConfig, Terrain, save_config
from graspmap.solver import load_graph, load_report
from tests.test_mapping import hemisphere_surface_cloud

BUNDLE_FILES = ("trajectory.csv", "vo.csv", "cloud.ply", "manifest.yaml")

QUIET = dict(joint_noise_stddev=0.0, vo_trans_noise_stddev=0.0,
             vo_rot_noise_stddev=0.0)


def write_config(path, **overrides) -> SimConfig:
    overrides.setdefault("cloud_points_per_keyframe", 150)
    config = SimConfig(**overrides)
    save_config(path, config)
    return config


def read_summary(run_dir) -> dict:
    with open(run_dir / "summary.yaml") as fh:
        return yaml.safe_load(fh)


def tree_bytes(root) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# --- simulate ---------------------------------------------------------------------


def test_simulate_writes_bundle(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    write_config(cfg)
    out = tmp_path / "bundle"
    assert main(["simulate", "--config", str(cfg), "--seed", "4",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(BUNDLE_FILES)
    assert "seed 4" in capsys.readouterr().out
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert list(manifest) == ["config"]
    assert manifest["config"]["seed"] == 4


def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    write_config(cfg, seed=31)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    assert tree_bytes(a) == tree_bytes(b)


def test_simulate_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("keyframes: 1\n")
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "keyframes" in err


# the default limb's file, one joint a line, for rows that spoil one value
LIMB = """\
base_pose: [0.0, 0.0, 0.3, 1.0, 0.0, 0.0, 0.0]
gripper_offset: [0.0, 0.0, 0.0, 0.7071067811865476, 0.0, 0.7071067811865475, 0.0]
joints:
- {axis: [0.0, 0.0, 1.0], offset: [0.0, 0.0, 0.05, 1.0, 0.0, 0.0, 0.0]}
- {axis: [0.0, 1.0, 0.0], offset: [0.15, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]}
- {axis: [0.0, 1.0, 0.0], offset: [0.15, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]}
- {axis: [0.0, 1.0, 0.0], offset: [0.05, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]}
"""


def test_limb_text_is_the_default_limb(tmp_path):
    given, again, want = (tmp_path / f"{name}.yaml" for name in ("given", "again", "want"))
    given.write_text(LIMB)
    save_limb(again, load_limb(given))
    save_limb(want, default_limb())
    assert again.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("flag, text, what", [
    ("--config", "terrain: 5\n", "terrain"),
    ("--limb", "joints: [\n", "bad YAML"),
    ("--limb", LIMB.replace("0.3, 1.0", "0.3, true"), "base_pose"),
    ("--limb", LIMB.replace("axis: [0.0, 0.0", "axis: [abc, 0.0"), "joints[0].axis"),
    ("--limb", LIMB.replace("axis: [0.0, 0.0", "axis: [.nan, 0.0"), "joints[0].axis"),
    ("--limb", LIMB.replace("0.7071067811865476", ".inf"), "gripper_offset"),
    ("--limb", LIMB.replace("[0.05, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]",
                            "[0.05, 0.0, 0.0, 1.0, 0.0, 0.0]"), "joints[3].offset"),
    ("--limb", LIMB.replace("axis: [0.0, 0.0, 1.0], ", ""), "'axis'"),
    ("--limb", LIMB.replace("axis: [0.0, 0.0, 1.0]", "axis: [0, 0, 0]"), "joints[0].axis"),
    ("--limb", LIMB.replace("0.3, 1.0", "0.3, 0.0"), "base_pose"),
    ("--limb", LIMB.replace("axis: [0.0, 0.0", "axis: [true, 0.0"), "joints[0].axis"),
], ids=["terrain-not-a-mapping", "limb-bad-yaml", "limb-boolean", "limb-string",
        "limb-nan", "limb-inf", "limb-short-offset", "limb-missing-axis",
        "limb-zero-axis", "limb-zero-quaternion", "limb-boolean-axis"])
def test_simulate_malformed_input_file_exits_2(tmp_path, capsys, flag, text, what):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    assert main(["simulate", flag, str(bad), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "bad.yaml" in err and what in err, err


POSES = LIMB.split("joints:")[0]  # the limb's base_pose and gripper_offset lines


@pytest.mark.parametrize("text, what", [
    (LIMB + "noise:\n  joint_noise_stddev: 0.002\n", "unknown keys: ['noise']"),
    (LIMB + "gripper_ofset: [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]\n",
     "unknown keys: ['gripper_ofset']"),
    (LIMB.replace("{axis:", "{damping: 0.1, axis:", 1), "joints[0]: unknown keys: ['damping']"),
    ("", "missing keys: ['joints', 'base_pose', 'gripper_offset']"),
    ("- joints\n- base_pose\n", "expected a mapping, got ['joints', 'base_pose']"),
    (POSES + "joints: 5\n", "joints must be a list, got 5"),
    (POSES + "joints: [5]\n", "joints[0]: expected a mapping, got 5"),
], ids=["unknown-top-level", "misspelt-beside-right", "unknown-per-joint", "empty",
        "list-document", "joints-a-number", "joint-a-number"])
def test_simulate_limb_of_the_wrong_shape_exits_2_naming_the_key(tmp_path, capsys, text, what):
    """The limb file is read against its schema as the config file is: an
    unknown key, or a document, list or joint of the wrong kind, is named."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    assert main(["simulate", "--limb", str(bad), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"[simulate] config error: {bad}: {what}"), err
    assert not (tmp_path / "x").exists()


def test_simulate_boolean_seed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("seed: true\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[simulate] config error") and "seed" in err, err


def test_pipeline_infinite_true_scale_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("true_scale: .inf\n")
    assert main(["pipeline", "--config", str(cfg), "--out",
                 str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[simulate] config error"), err
    assert "cfg.yaml" in err and "true_scale" in err, err


def test_error_label_names_the_failing_command(tmp_path, capsys):
    """Each call labels its own errors: nothing carries over between calls."""
    assert main(["detect", str(tmp_path / "missing.ply"),
                 "--out", str(tmp_path / "d")]) == 3
    assert capsys.readouterr().err.startswith("[detect] file error")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("keyframes: 1\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("[simulate] config error")


# --- solve ------------------------------------------------------------------------


@pytest.fixture()
def quiet_bundle(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    write_config(cfg, seed=7, true_scale=2.0, **QUIET)
    out = tmp_path / "bundle"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_solve_noiseless_recovers_scale(quiet_bundle, tmp_path, capsys):
    out = tmp_path / "solve"
    assert main(["solve", str(quiet_bundle), "--out", str(out)]) == 0
    assert "scale estimate" in capsys.readouterr().out
    report = load_report(out / "report.txt")
    assert report.converged
    assert report.final_cost < 1e-12
    graph = load_graph(out / "graph.txt")
    assert abs(graph.scale.value - 2.0) / 2.0 < 1e-6


def test_solve_rerun_is_byte_identical(quiet_bundle, tmp_path):
    a, b = tmp_path / "sa", tmp_path / "sb"
    assert main(["solve", str(quiet_bundle), "--out", str(a)]) == 0
    assert main(["solve", str(quiet_bundle), "--out", str(b)]) == 0
    assert tree_bytes(a) == tree_bytes(b)


def test_solve_missing_input_exits_3(quiet_bundle, tmp_path, capsys):
    (quiet_bundle / "vo.csv").unlink()
    rc = main(["solve", str(quiet_bundle), "--out", str(tmp_path / "s")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "file error" in err and "vo.csv" in err


def test_solve_max_iter_0_exits_2(quiet_bundle, tmp_path, capsys):
    rc = main(["solve", str(quiet_bundle), "--max-iter", "0",
               "--out", str(tmp_path / "s")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("[solve] config error")


def test_solve_limb_joint_count_mismatch_exits_2(quiet_bundle, tmp_path, capsys):
    limb = default_limb()
    three = tmp_path / "limb3.yaml"
    save_limb(three, dataclasses.replace(limb, joints=limb.joints[:3]))
    rc = main(["solve", str(quiet_bundle), "--limb", str(three),
               "--out", str(tmp_path / "s")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("[solve] config error") and "3 joints" in err, err


def test_solve_iteration_cap_exits_4(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    write_config(cfg, seed=8)
    bundle = tmp_path / "bundle"
    assert main(["simulate", "--config", str(cfg), "--out", str(bundle)]) == 0
    out = tmp_path / "solve"
    assert main(["solve", str(bundle), "--max-iter", "1",
                 "--out", str(out)]) == 4
    assert "solver error" in capsys.readouterr().err
    # partial artifacts stay on disk for inspection
    assert (out / "graph.txt").is_file() and (out / "report.txt").is_file()
    assert not load_report(out / "report.txt").converged


# --- detect -----------------------------------------------------------------------


def test_detect_hemisphere_top_anchor(tmp_path, capsys):
    ply = tmp_path / "cloud.ply"
    write_ply(ply, hemisphere_surface_cloud())
    out = tmp_path / "det"
    assert main(["detect", str(ply), "--min-points", "1",
                 "--out", str(out)]) == 0
    assert "graspable anchors" in capsys.readouterr().out
    hits = load_graspable(out / "graspable.csv")
    assert hits
    assert np.abs(hits[0].position - [0.0, 0.0, 0.030]).max() <= 0.002 + 1e-12
    assert (out / "grid.txt").is_file()


def test_detect_flat_plane_is_success_with_empty_list(tmp_path, capsys):
    ply = tmp_path / "plane.ply"
    write_ply(ply, hemisphere_surface_cloud(radius=0.0))
    out = tmp_path / "det"
    assert main(["detect", str(ply), "--min-points", "1",
                 "--out", str(out)]) == 0
    assert "no graspable anchors" in capsys.readouterr().out
    assert load_graspable(out / "graspable.csv") == []


def test_detect_unscaled_cloud_exits_2(tmp_path, capsys):
    ply = tmp_path / "raw.ply"
    write_ply(ply, PointCloud([[0.0, 0.0, 0.0]], UNSCALED_UNITS))
    assert main(["detect", str(ply), "--out", str(tmp_path / "d")]) == 2
    assert "metric" in capsys.readouterr().err


def test_detect_empty_cloud_exits_5(tmp_path, capsys):
    ply = tmp_path / "empty.ply"
    write_ply(ply, PointCloud(np.zeros((0, 3)), METERS))
    assert main(["detect", str(ply), "--out", str(tmp_path / "d")]) == 5
    assert "empty result" in capsys.readouterr().err


def test_detect_degenerate_mask_exits_5(tmp_path, capsys):
    ply = tmp_path / "cloud.ply"
    write_ply(ply, hemisphere_surface_cloud())
    rc = main(["detect", str(ply), "--outer-radius", "0.01",
               "--inner-radius", "0.0099", "--depth", "0.01",
               "--voxel-size", "0.004", "--out", str(tmp_path / "d")])
    assert rc == 5
    assert "empty result" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--depth", "0.09"],
    ["--voxel-size", "inf"],
    ["--voxel-size", "nan"],
    ["--voxel-size", "1e-7"],
    ["--outer-radius", "inf"],
], ids=["depth-past-rim", "voxel-inf", "voxel-nan", "voxel-too-fine",
        "outer-radius-inf"])
def test_detect_inconsistent_geometry_exits_2(tmp_path, capsys, flags):
    ply = tmp_path / "cloud.ply"
    write_ply(ply, hemisphere_surface_cloud())
    rc = main(["detect", str(ply), *flags, "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


# --- pipeline ---------------------------------------------------------------------

# Detection needs the full default point density: every voxel column under
# the 30 mm bowl footprint must catch at least one sample. Tests that do not
# assert on detected anchors run with sparser, faster clouds.


def pipeline_config(path, **overrides):
    overrides.setdefault("cloud_points_per_keyframe", 2500)
    return write_config(path, **overrides)


def test_pipeline_noiseless(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    write_config(cfg, seed=2, true_scale=2.0,
                 cloud_points_per_keyframe=10000, **QUIET)
    run = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(run)]) == 0
    for sub in ("bundle", "solve", "detect"):
        assert (run / sub).is_dir()
    # the metric cloud is rebuilt when detection runs, not stored
    assert sorted(p.name for p in (run / "detect").iterdir()) == [
        "graspable.csv", "grid.txt"]
    summary = read_summary(run)
    assert summary["scale_error_rel"] < 1e-6
    assert summary["final_cost"] < 1e-12
    assert summary["apex_error_m"] is not None
    assert summary["apex_error_m"] < 0.002
    assert summary["wall_time_s"] > 0.0


@pytest.fixture(scope="module")
def noisy_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("noisy_pipeline")
    cfg = base / "cfg.yaml"
    config = SimConfig(seed=100, true_scale=2.0)
    save_config(cfg, config)
    run = base / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(run)]) == 0
    return run, config


def test_pipeline_noisy_defaults(noisy_run):
    run, _ = noisy_run
    summary = read_summary(run)
    assert summary["scale_error_rel"] < 0.05
    assert summary["apex_error_m"] < 0.006


def test_pipeline_flat_plane_success_without_anchors(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    flat = Terrain(plane_z=0.0, patch_center=np.array([0.25, 0.0]),
                   patch_size=np.array([0.16, 0.16]), hemispheres=())
    pipeline_config(cfg, seed=5, terrain=flat, **QUIET)
    run = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(run)]) == 0
    summary = read_summary(run)
    assert summary["apex_error_m"] is None
    assert load_graspable(run / "detect" / "graspable.csv") == []


def test_pipeline_rerun_identical_except_wall_time(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    pipeline_config(cfg, seed=6, **QUIET)
    a, b = tmp_path / "a", tmp_path / "b"
    for run in (a, b):
        assert main(["pipeline", "--config", str(cfg), "--out", str(run)]) == 0
    ta, tb = tree_bytes(a), tree_bytes(b)
    assert ta.pop("summary.yaml") and tb.pop("summary.yaml")
    assert ta == tb
    sa, sb = read_summary(a), read_summary(b)
    del sa["wall_time_s"], sb["wall_time_s"]
    assert sa == sb


def test_pipeline_stage_restart_reuses_artifacts(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    pipeline_config(cfg, seed=9, true_scale=1.5, **QUIET)
    run = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(run)]) == 0
    first = read_summary(run)

    # restarting at the solve stage ignores simulation flags entirely
    assert main(["pipeline", "--config", str(cfg), "--seed", "999",
                 "--out", str(run), "--stage", "solve"]) == 0
    second = read_summary(run)
    del first["wall_time_s"], second["wall_time_s"]
    assert first == second

    # restarting at detect skips the solver, so an impossible iteration
    # budget must not matter
    assert main(["pipeline", "--config", str(cfg), "--out", str(run),
                 "--stage", "detect", "--max-iter", "0"]) == 0
    third = read_summary(run)
    del third["wall_time_s"]
    assert first == third


def test_quick_start_prints_the_readme_output(tmp_path, capsys):
    """The README's quick-start output block is what `pipeline --seed 7` prints."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Typical output of the solve stage:\n\n```\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    assert [line.split()[0] for line in lines] == ["[solve]", "[detect]"]
    assert main(["pipeline", "--seed", "7", "--out", str(tmp_path / "demo")]) == 0
    printed = capsys.readouterr().out.splitlines()
    for line in lines:
        assert line in printed


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_solve_of_the_written_bundle_matches_the_pipeline(tmp_path, seed):
    """The bundle read back from disk solves to the bytes of the one in memory."""
    cfg = tmp_path / "cfg.yaml"
    write_config(cfg, seed=seed)
    run = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(["solve", str(run / "bundle"), "--out", str(tmp_path / "s")]) == 0
    assert tree_bytes(tmp_path / "s") == tree_bytes(run / "solve")


def test_solve_literal_residual_flag(quiet_bundle, tmp_path):
    """The raw tracker residual compares a world-frame position difference
    against a body-frame delta, so it stays biased even without noise."""
    aligned, literal = tmp_path / "aligned", tmp_path / "literal"
    assert main(["solve", str(quiet_bundle), "--out", str(aligned)]) == 0
    assert main(["solve", str(quiet_bundle), "--literal-eq8",
                 "--out", str(literal)]) == 0
    err_aligned = abs(load_graph(aligned / "graph.txt").scale.value - 2.0) / 2.0
    err_literal = abs(load_graph(literal / "graph.txt").scale.value - 2.0) / 2.0
    assert err_aligned < 1e-6
    assert 0.01 < err_literal < 0.5


def test_pipeline_summary_matches_artifacts(noisy_run):
    run, config = noisy_run
    summary = read_summary(run)
    graph = load_graph(run / "solve" / "graph.txt")
    report = load_report(run / "solve" / "report.txt")
    hits = load_graspable(run / "detect" / "graspable.csv")
    truth = config.terrain.apexes()
    expect_scale_err = abs(graph.scale.value - config.true_scale) / config.true_scale
    expect_apex = float(np.min(np.linalg.norm(truth - hits[0].position, axis=1)))
    assert abs(summary["scale_error_rel"] - expect_scale_err) <= 1e-12
    assert abs(summary["apex_error_m"] - expect_apex) <= 1e-12
    assert abs(summary["final_cost"] - report.final_cost) <= 1e-12


# --- corrupt artifacts ------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("small_pipeline")
    cfg = base / "cfg.yaml"
    write_config(cfg, seed=3)
    run = base / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(run)]) == 0
    return run


def on_line(lineno, edit):
    """Byte edit that rewrites one text line (1-based) of a file."""
    def apply(data):
        lines = data.decode().splitlines(keepends=True)
        lines[lineno - 1] = edit(lines[lineno - 1].rstrip("\n")) + "\n"
        return "".join(lines).encode()
    return apply


def set_field(k, value, sep=","):
    def edit(line):
        tok = line.split(sep)
        tok[k] = value
        return sep.join(tok)
    return edit


def swap_lines(a, b):
    """Byte edit that swaps two text lines (1-based) of a file."""
    def apply(data):
        lines = data.decode().splitlines(keepends=True)
        lines[a - 1], lines[b - 1] = lines[b - 1], lines[a - 1]
        return "".join(lines).encode()
    return apply


def move_line(a, b):
    """Byte edit that moves text line ``a`` (1-based) of a file to line ``b``."""
    def apply(data):
        lines = data.decode().splitlines(keepends=True)
        lines.insert(b - 1, lines.pop(a - 1))
        return "".join(lines).encode()
    return apply


def zero_quaternion(first, sep=","):
    """Line edit that writes 0 over the four quaternion fields from ``first`` on."""
    def edit(line):
        tok = line.split(sep)
        tok[first:first + 4] = ["0"] * 4
        return sep.join(tok)
    return edit


def drop_last_lines(count):
    """Byte edit that removes a file's last ``count`` lines."""
    def apply(data):
        return b"".join(data.splitlines(keepends=True)[:-count])
    return apply


def ply_vertex(k, value):
    """Byte edit that writes ``value`` over vertex ``k``'s x in a binary PLY."""
    def apply(data):
        at = data.index(b"end_header\n") + len(b"end_header\n") + 24 * k
        return data[:at] + struct.pack("<d", value) + data[at + 8:]
    return apply


def ascii_ply(data):
    """A binary PLY cloud written out by hand in the ASCII layout."""
    head, body = data.split(b"end_header\n", 1)
    points = np.frombuffer(body, "<f8").reshape(-1, 3)
    text = head.decode().replace("binary_little_endian", "ascii") + "end_header\n"
    return (text + "".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in points)).encode()


@pytest.mark.parametrize("rel, edit, command, where, label", [
    ("bundle/vo.csv", on_line(3, set_field(1, "abc")), "solve", "vo.csv:3",
     "solve"),
    ("bundle/vo.csv", on_line(3, set_field(2, "nan")), "solve", "vo.csv:3",
     "solve"),
    ("bundle/vo.csv", swap_lines(2, 3), "solve", "vo.csv:2: record '2' where '1' belongs",
     "solve"),
    ("bundle/vo.csv", on_line(4, set_field(0, "1")), "solve",
     "vo.csv:4: record '1' where '3' belongs", "solve"),
    ("bundle/vo.csv", on_line(3, set_field(0, "2.5")), "solve",
     "vo.csv:3: record '2.5' where '2' belongs", "solve"),
    ("bundle/trajectory.csv", on_line(4, lambda l: ",".join(l.split(",")[:5])),
     "solve", "trajectory.csv:4", "solve"),
    ("bundle/trajectory.csv", on_line(4, set_field(9, "inf")), "solve",
     "trajectory.csv:4: non-finite value 'inf'", "solve"),
    ("bundle/vo.csv", on_line(3, zero_quaternion(4)), "solve",
     "vo.csv:3: quaternion must be finite and nonzero", "solve"),
    (("bundle/trajectory.csv", "bundle/vo.csv"), drop_last_lines(5), "solve",
     "trajectory.csv: 15 keyframes where the manifest's config has 20", "solve"),
    ("bundle/manifest.yaml", lambda t: t[:t.index(b"config:")], "solve",
     "manifest.yaml", "solve"),
    ("solve/graph.txt", on_line(3, set_field(4, "x", " ")), "pipeline-detect",
     "graph.txt:3", "solve"),
    ("solve/graph.txt", on_line(3, lambda l: l.replace("pose 1 ", "pose 0 ")),
     "pipeline-detect", "graph.txt:3: record 'pose 0' where 'pose 1' belongs", "solve"),
    ("solve/graph.txt", lambda t: t + b"scale 7\n", "pipeline-detect",
     "graph.txt:62: extra record 'scale'", "solve"),
    ("solve/graph.txt", move_line(22, 2), "pipeline-detect",
     "graph.txt:2: record 'scale ", "solve"),
    ("solve/graph.txt", on_line(3, zero_quaternion(5, " ")), "pipeline-detect",
     "graph.txt:3: quaternion must be finite and nonzero", "solve"),
    ("solve/graph.txt", on_line(24, zero_quaternion(5, " ")), "pipeline-detect",
     "graph.txt:24: quaternion must be finite and nonzero", "solve"),
    ("solve/graph.txt", on_line(25, set_field(11, "-0.001", " ")), "pipeline-detect",
     "graph.txt:25: information diagonal must be positive", "solve"),
    ("solve/report.txt", lambda t: re.sub(rb"final_cost .*\n", b"", t),
     "pipeline-detect", "report.txt:2: record 'iterations' where 'final_cost' belongs",
     "solve"),
    ("solve/report.txt", lambda t: b"bogus 1 2 3\n" + t, "pipeline-detect",
     "report.txt:1: record 'bogus' where 'initial_cost' belongs", "solve"),
    ("solve/report.txt", on_line(3, lambda l: "final_cost 7\n" + l), "pipeline-detect",
     "report.txt:3: record 'final_cost' where 'iterations' belongs", "solve"),
    ("solve/report.txt", move_line(5, 20), "pipeline-detect",
     "report.txt:5: record 'step_cost' where 'rejected_steps' belongs", "solve"),
    ("solve/report.txt", lambda t: re.sub(rb"step_cost 1 .*\n", b"", t),
     "pipeline-detect", "report.txt:7: record 'step_cost 2' where 'step_cost 1' belongs",
     "solve"),
    ("solve/report.txt", on_line(6, lambda l: "step_grad 99 0.5\n" + l),
     "pipeline-detect", "report.txt:6: record 'step_grad 99' where 'step_cost 0' belongs",
     "solve"),
    ("solve/report.txt", lambda t: t[:t.rindex(b"step_grad")], "pipeline-detect",
     "report.txt: ends before record 'step_grad 4'", "solve"),
    ("solve/report.txt", swap_lines(7, 8), "pipeline-detect",
     "report.txt:7: record 'step_cost 2' where 'step_cost 1' belongs", "solve"),
    ("solve/graph.txt", swap_lines(4, 5), "pipeline-detect",
     "graph.txt:4: record 'pose 3' where 'pose 2' belongs", "solve"),
    ("solve/graph.txt", on_line(26, lambda l: l.replace("fk 2 ", "fk 3 ")),
     "pipeline-detect", "graph.txt:26: record 'fk 3' where 'fk 2' belongs", "solve"),
    ("solve/graph.txt", lambda t: re.sub(rb"mc 2 .*\n", b"", t), "pipeline-detect",
     "graph.txt:27: record 'fk 3' where 'mc 2' belongs", "solve"),
    ("bundle/vo.csv", lambda t: t + b"\xff\xfe", "solve", "vo.csv:21: not UTF-8 text",
     "solve"),
    ("solve/graph.txt", lambda t: t + b"\xff\xfe", "pipeline-detect",
     "graph.txt:62: not UTF-8 text", "solve"),
    ("solve/report.txt", lambda t: t + b"\xff\xfe", "pipeline-detect",
     "report.txt:21: not UTF-8 text", "solve"),
    ("bundle/cloud.ply", ascii_ply, "solve",
     "cloud.ply: PLY header line 2 'format ascii 1.0' where "
     "'format binary_little_endian 1.0' belongs", "solve"),
    ("bundle/cloud.ply", ply_vertex(2, math.nan), "pipeline-solve",
     "cloud.ply: vertex 2 is not finite", "simulate"),
    ("bundle/cloud.ply", lambda t: t[:-8], "pipeline-solve", "cloud.ply", "simulate"),
    ("bundle/cloud.ply", lambda t: t.replace(f"comment units {UNSCALED_UNITS}".encode(),
                                             f"comment units {METERS}".encode()),
     "pipeline-solve", "cloud.ply", "simulate"),
], ids=["vo-not-a-number", "vo-nan", "vo-steps-swapped", "vo-step-relabelled",
        "vo-step-not-integer", "trajectory-short-row", "trajectory-inf-angle",
        "vo-zero-quaternion", "bundle-truncated", "manifest-no-config",
        "graph-bad-record", "graph-repeated-pose", "graph-repeated-scale",
        "graph-scale-first", "graph-pose-zero-quaternion", "graph-fk-zero-quaternion", "graph-mc-negative-info",
        "report-no-final-cost", "report-unknown-record", "report-repeated-final-cost",
        "report-rejected-last", "report-step-gap", "report-step-extra-index", "report-step-short-trace",
        "report-steps-swapped", "graph-poses-swapped", "graph-fk-relabelled",
        "graph-mc-line-dropped", "vo-not-utf8", "graph-not-utf8", "report-not-utf8",
        "ply-ascii", "ply-nan", "ply-short-body",
        "ply-metric-units"])
def test_corrupt_artifact_exits_3_naming_file(small_run, tmp_path, capsys, rel, edit,
                                              command, where, label):
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    for name in [rel] if isinstance(rel, str) else rel:
        path = run / name
        path.write_bytes(edit(path.read_bytes()))
    if command == "solve":
        argv = ["solve", str(run / "bundle"), "--out", str(tmp_path / "s")]
    else:
        argv = ["pipeline", "--out", str(run), "--stage", command.split("-")[1]]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"[{label}] file error") and where in err, err


def test_bundle_in_the_older_layout_still_solves(small_run, tmp_path):
    """Bundles once also held graspable_truth.csv and repeated seed, true_scale,
    keyframes and a file list in the manifest; reading skips both."""
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    shutil.rmtree(run / "solve")
    bundle = run / "bundle"
    config = yaml.safe_load((bundle / "manifest.yaml").read_text())["config"]
    old_files = ["trajectory.csv", "vo.csv", "cloud.ply", "graspable_truth.csv"]
    (bundle / "manifest.yaml").write_text(yaml.safe_dump(
        {"seed": config["seed"], "true_scale": config["true_scale"],
         "keyframes": config["keyframes"], "files": old_files, "config": config},
        sort_keys=False))
    apexes = SimConfig().terrain.apexes()
    (bundle / "graspable_truth.csv").write_text(
        "# apex x,y,z (meters)\n" + "".join(",".join(f"{v:.17g}" for v in apex) + "\n"
                                             for apex in apexes))

    assert main(["solve", str(bundle), "--out", str(tmp_path / "s")]) == 0
    assert main(["pipeline", "--out", str(run), "--stage", "solve"]) == 0
    assert tree_bytes(tmp_path / "s") == tree_bytes(run / "solve")


@pytest.mark.parametrize("role, code, kind", [
    ("--config", 2, "config error"),
    ("--limb", 2, "config error"),
    ("manifest", 3, "file error"),
])
def test_yaml_syntax_error_names_path_line_once(small_run, tmp_path, capsys,
                                                role, code, kind):
    """A YAML file that does not parse exits by its role and names path:line once."""
    if role == "manifest":
        shutil.copytree(small_run / "bundle", tmp_path / "bundle")
        bad = tmp_path / "bundle" / "manifest.yaml"
        argv = ["solve", str(bad.parent), "--out", str(tmp_path / "s")]
    else:
        bad = tmp_path / "bad.yaml"
        argv = ["simulate", role, str(bad), "--out", str(tmp_path / "x")]
    bad.write_text("seed: 1\nkeyframes: 2: 3\n")
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"[{argv[0]}] {kind}: {bad}:2: "), err
    assert err.count(bad.name) == 1, err


# --- wiring -----------------------------------------------------------------------

# Every option of every subcommand. A flag added or removed changes this
# table on purpose; --rel-tol is gone, the stopping rule being solver.REL_TOL.
OPTIONS = {
    "simulate": ["--config", "--limb", "--out", "--seed"],
    "solve": ["--limb", "--literal-eq8", "--max-iter", "--out"],
    "detect": ["--depth", "--inner-radius", "--min-points", "--out", "--outer-radius",
               "--voxel-size"],
    "pipeline": ["--config", "--depth", "--inner-radius", "--limb", "--literal-eq8",
                 "--max-iter", "--min-points", "--out", "--outer-radius", "--seed",
                 "--stage", "--voxel-size"],
}


def test_each_subcommand_has_the_pinned_options():
    commands = next(a for a in _parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    found = {name: sorted(flag for action in p._actions for flag in action.option_strings
                          if flag not in ("-h", "--help"))
             for name, p in commands.items()}
    assert found == OPTIONS


@pytest.mark.parametrize("level, code", [("LOUD", 2), ("10", 2), ("", 0), ("info", 0)],
                         ids=["unknown-name", "number", "empty", "lowercase-info"])
def test_log_level_that_names_no_level_exits_2(tmp_path, level, code):
    """An empty GRASPMAP_LOG_LEVEL is unset; any name that is not a logging
    level is a bad configuration naming the variable, not a traceback."""
    ply = tmp_path / "cloud.ply"
    write_ply(ply, hemisphere_surface_cloud())
    done = subprocess.run([sys.executable, "-m", "graspmap.cli", "detect", str(ply),
                           "--min-points", "1", "--out", str(tmp_path / "d")],
                          capture_output=True, text=True,
                          env={**child_env(), "GRASPMAP_LOG_LEVEL": level})
    assert done.returncode == code, done.stderr
    if code:
        assert done.stderr == (f"[detect] config error: GRASPMAP_LOG_LEVEL must name a "
                               f"logging level (DEBUG, INFO, WARNING, ERROR), "
                               f"got {level.upper()!r}\n")
    else:
        assert "Traceback" not in done.stderr


def child_env() -> dict:
    """Environment in which a child imports the same graspmap as this
    process, installed or not."""
    src = str(Path(graspmap.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point_help():
    done = subprocess.run([sys.executable, "-m", "graspmap.cli", "--help"],
                          capture_output=True, text=True, env=child_env())
    assert done.returncode == 0
    assert "RuntimeWarning" not in done.stderr
    for word in ("simulate", "solve", "detect", "pipeline"):
        assert word in done.stdout


def test_import_leaves_scipy_linalg_unloaded():
    """graspmap computes with NumPy alone; importing scipy, even bare, would
    only add to every run's start-up."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys, graspmap, graspmap.cli; "
         "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=child_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_pipeline_runs_without_scipy(tmp_path):
    """scipy is no runtime dependency: with every import of it refused, a
    pipeline run still succeeds."""
    code = ("import sys; sys.modules['scipy'] = None; from graspmap.cli import main; "
            f"sys.exit(main(['pipeline', '--out', {str(tmp_path / 'run')!r}]))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "run" / "summary.yaml").is_file()
