"""The benchmark's tracer wraps graspmap names from outside; they must resolve.

``perfbench/tracer.py`` replaces functions by name on graspmap's modules and
classes (and ``graspmap.solver.scipy.linalg``'s Cholesky calls) while a traced
operation runs. A renamed or removed name would make ``--trace 1`` crash, so
this test loads the tracer from its file, without changing it, and checks
every name it patches. The other way round, every import graspmap keeps only
for the tracer must still be one the tracer patches.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_names(tracer):
    """(owner, attribute) of every SPANS and COUNTERS entry."""
    return [(tracer._owner(spec), attr) for spec, attr, _ in [*tracer.SPANS, *tracer.COUNTERS]]


def test_every_traced_name_resolves(tracer):
    missing = [(spec, attr) for spec, attr, _ in [*tracer.SPANS, *tracer.COUNTERS]
               if not callable(getattr(tracer._owner(spec), attr, None))]
    assert not missing
    linalg = tracer._owner("graspmap.solver").scipy.linalg
    assert callable(linalg.cho_factor) and callable(linalg.cho_solve)


def test_install_then_uninstall_restores_every_original(tracer):
    owners = patched_names(tracer)
    solver = tracer._owner("graspmap.solver")
    originals = [getattr(owner, attr) for owner, attr in owners]
    scipy_module = solver.scipy

    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(owners, originals))
        assert solver.scipy is not scipy_module
    finally:
        t.uninstall()
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(owners, originals))
    assert solver.scipy is scipy_module


def tracer_shims() -> list[tuple[str, str]]:
    """(module, name) of every import in ``src/graspmap`` kept only for the
    tracer: its line says it is read only by perfbench/tracer.py."""
    package = Path(__file__).resolve().parents[1] / "src" / "graspmap"
    shims = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.ImportFrom)
                    and "read only by perfbench/tracer.py" in lines[node.lineno - 1]):
                shims += [(f"graspmap.{path.stem}", alias.asname or alias.name)
                          for alias in node.names]
    return shims


def test_every_tracer_shim_is_patched_by_the_tracer(tracer):
    """A shim whose name the tracer no longer patches on that module is dead:
    this names each one to delete when the tracer is pointed elsewhere."""
    patched = {(spec, attr) for spec, attr, _ in [*tracer.SPANS, *tracer.COUNTERS]}
    assert [shim for shim in tracer_shims() if shim not in patched] == []
