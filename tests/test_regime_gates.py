"""Gates for the regimes the acceptance criteria miss, as strict expected failures.

Criteria 1-10 check the scale at 20 keyframes with a true scale near 1-5,
where today's estimator is within a fraction of a percent. These gates check
the regimes where it is not: dense keyframes, a large true scale (tracker
noise large against the kinematic step) and whether the scale's marginal
σ is honest. Each fails today for the known fault its ``reason`` names, so
each is marked ``xfail(strict=True)``: the suite stays green and names the
fault, and the change that fixes it gets an XPASS failure until it removes
the marker. The thresholds are the ones the fix must meet (ROADMAP items 2
and 3), not today's numbers. Clouds are one point per keyframe: the solve
never reads them.
"""

import math

import numpy as np
import pytest

from graspmap.errors import NotConverged
from graspmap.kinematics import default_limb
from graspmap.simulation import SimConfig, simulate
from graspmap.solver import FactorGraph, build_graph


def solved(**config) -> FactorGraph:
    """The graph of one simulated bundle, solved. A solve that does not
    converge raises ``NotConverged``, which no gate expects."""
    graph = build_graph(simulate(SimConfig(cloud_points_per_keyframe=1, **config)),
                        default_limb())
    if not graph.optimize().converged:
        raise NotConverged(f"{config}: no convergence")
    return graph


def scale_errors(true_scale: float, **config) -> np.ndarray:
    """Signed relative scale error ŝ/s* - 1 of seeds 0-9."""
    return np.array([solved(seed=seed, true_scale=true_scale, **config).scale.value
                     / true_scale - 1.0 for seed in range(10)])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the metric tracker residual biases the "
                          "scale low at 320 keyframes (median -6.61%)")
def test_dense_keyframes_scale_is_unbiased():
    errors = scale_errors(2.0, keyframes=320)
    assert abs(np.median(errors)) < 0.01
    assert np.all(np.abs(errors) < 0.03)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: tracker noise large against the FK step "
                          "biases the scale low at s* = 20 (median -3.50%)")
def test_large_true_scale_is_unbiased():
    assert abs(np.median(scale_errors(20.0))) < 0.01


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the scale's marginal σ(log s) is about "
                          "960, so every seed falls within 2σ (coverage 1.00)")
def test_scale_sigma_is_honest():
    """The share of seeds 0-49 whose |log ŝ - log s*| lies within 2σ is that
    of a calibrated Gaussian σ, about 0.95, and not 1."""
    hits = []
    for seed in range(50):
        graph = solved(seed=seed)
        hits.append(abs(graph.log_s - math.log(2.0)) < 2.0 * graph.marginal_scale_stddev())
    assert 0.90 <= np.mean(hits) <= 0.99
