"""Every script in demos/ runs to the end against the imported package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import graspmap

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the child imports the same graspmap as this process; demos that make
    # temporary directories make them under tmp_path
    src = str(Path(graspmap.__file__).resolve().parents[1])
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
