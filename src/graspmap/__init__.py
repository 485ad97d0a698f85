"""Scale-aware fusion of limb kinematics with an unscaled monocular terrain map.

The pieces, in pipeline order: :mod:`.simulation` produces joint readings,
tracker deltas, and an unscaled cloud; :mod:`.solver` fuses kinematic and
tracker factors (:mod:`.factors`) over SE(3) poses (:mod:`.geometry`) of a
limb (:mod:`.kinematics`) to estimate gripper poses and the metric scale;
:mod:`.mapping` rescales the cloud and extracts graspable terrain points.
"""

from .errors import (AlreadyScaled, ConfigError, CutLocusError, DegenerateMask,
                     DimensionMismatch, EmptyCloud, GraspmapError,
                     IndexMismatch, NoVisibleTerrain, NotConverged,
                     SingularNormalEquations, UnreachableTerrain)
from .factors import (FkFactor, McFactor, PriorFactor, ScaleVar, factor_cost,
                      factor_jacobians, factor_residual, fk_jacobians,
                      fk_residual, mc_jacobians, mc_residual, prior_jacobians,
                      prior_residual)
from .geometry import (Pose, Rotation, compose, hat, inverse, pose_from_seven,
                       pose_to_seven, se3_adjoint, se3_exp,
                       se3_left_jacobian_inv, se3_log, se3_right_jacobian_inv,
                       so3_exp, so3_left_jacobian, so3_left_jacobian_inv,
                       so3_log, so3_right_jacobian_inv)
from .kinematics import (Joint, JointReading, LimbModel, default_limb,
                         fk_delta, fk_pose, fk_poses, jacobian_numeric,
                         load_limb, save_limb)
from .mapping import (GraspablePoint, GripperMask, PointCloud, VoxelGrid,
                      build_mask, detect_graspable, fill_below, load_graspable,
                      read_ply, save_graspable, save_grid, scale_cloud, voxelize,
                      write_ply)
from .simulation import (CameraModel, Hemisphere, SimBundle, SimConfig,
                         Terrain, default_terrain, generate_cloud,
                         generate_trajectory, generate_vo, load_config,
                         read_bundle, save_config, simulate, write_bundle)
from .solver import (FactorGraph, SolveOptions, SolveReport, build_graph,
                     load_graph, load_report, save_graph, save_report)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
