"""The benchmark's tracer wraps graspmap names from outside; they must resolve.

``perfbench/tracer.py`` replaces functions by name on graspmap's modules and
classes (and ``graspmap.solver.scipy.linalg``'s Cholesky calls) while a traced
operation runs. A renamed or removed name would make ``--trace 1`` crash, so
this test loads the tracer from its file, without changing it, and checks
every name it patches.
"""

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
