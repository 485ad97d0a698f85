"""Recovering metric scale by fusing kinematic and tracker motion.

The monocular tracker reports translations in map units; the limb reports the
same motion in meters. One shared factor graph ties them together and the
scale falls out, complete with an uncertainty that flags when it is fake.
"""

import numpy as np

from graspmap.factors import FkFactor, McFactor, PriorFactor
from graspmap.geometry import Pose, Rotation, compose, inverse
from graspmap.kinematics import default_limb
from graspmap.simulation import SimConfig, simulate
from graspmap.solver import FactorGraph, build_graph

QUIET = dict(joint_noise_stddev=0.0, vo_trans_noise_stddev=0.0,
             vo_rot_noise_stddev=0.0)
limb = default_limb()

print("noiseless: the estimate should hit the true scale to solver precision")
for s_true in (0.5, 2.0, 5.0):
    bundle = simulate(SimConfig(seed=1, true_scale=s_true,
                                cloud_points_per_keyframe=50, **QUIET), limb)
    graph = build_graph(bundle, limb)
    report = graph.optimize()
    print(f"  s*={s_true:<4g} ->  s^={graph.scale.value:.9f}   "
          f"rel err {abs(graph.scale.value - s_true) / s_true:.1e}   "
          f"cost {report.final_cost:.1e}   {report.iterations} iters")

print("\ndefault noise (0.002 rad joints, ~1% translation, 0.2 deg rotation):")
errs = []
sigma_observable = 0.0
for seed in range(10):
    bundle = simulate(SimConfig(seed=seed, true_scale=2.0,
                                cloud_points_per_keyframe=50), limb)
    graph = build_graph(bundle, limb)
    graph.optimize()
    errs.append(abs(graph.scale.value - 2.0) / 2.0)
    sigma_observable = graph.marginal_scale_stddev()
    print(f"  seed {seed}: rel err {errs[-1]:.2%}")
print(f"  median over 10 seeds: {float(np.median(errs)):.2%}")

# When the gripper only rotates, no measurement links map units to meters.
# The solver must NOT invent a scale: the estimate stays at the prior and
# the marginal stddev blows up.
print("\npure rotation (scale unobservable):")
spot = np.array([0.4, -0.1, 0.3])
poses = [Pose.from_parts(rotation=Rotation.from_axis_angle([0, 0, 1], 0.15 * i),
                         translation=spot) for i in range(12)]
graph = FactorGraph(PriorFactor(pose=poses[0]))
for i in range(1, 12):
    delta = compose(inverse(poses[i - 1]), poses[i])
    graph.add_keyframe(FkFactor(i, delta),
                       McFactor(i, delta.rotation, delta.translation))
graph.optimize()
print(f"  s^ = {graph.scale.value:.6f} (prior mean 1.0), "
      f"marginal stddev = {graph.marginal_scale_stddev():.3g}")
print(f"  for contrast, the translating runs above gave stddev "
      f"{sigma_observable:.3g}; the absolute level is set by the "
      f"deliberately loose scale prior, the four-order jump is the flag")
