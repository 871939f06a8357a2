"""Diffusion-based multi-hypothesis 3D human pose lifting.

The pipeline: a noise schedule defines a forward diffusion over 3D
poses; a denoiser (trained MLP or test oracle) predicts the clean pose
from a noisy one conditioned on 2D keypoints; a DDIM sampler runs the
reverse process to generate H candidate poses; an aggregator collapses
them into one final pose, optionally using per-joint reprojection onto
the 2D evidence.
"""
from .aggregate import (AggregationReport, METHOD_NAMES, agg_average,
                        agg_jbest, agg_jpma, agg_pbest, agg_ppma,
                        run_aggregator)
from .camera import (CameraIntrinsics, DEFAULT_Z_MIN, camera_from_dict,
                     camera_to_dict, load_camera, project, project_with_mask)
from .config import (RunConfig, apply_overrides, config_from_dict,
                     config_sha256, config_to_dict, load_config)
from .core import (DEFAULT_SKELETON, HypothesisSet, JOINT_NAMES_17, PoseSeq2D,
                   PoseSeq3D, Skeleton, load_skeleton, skeleton_from_dict,
                   skeleton_to_dict)
from .dataset import Dataset, Sequence, load_dataset, save_dataset
from .denoise import (ContractiveOracle, Denoiser, DenoiserParams,
                      MlpDenoiser, NoisyOracle, PerfectOracle, TrainConfig,
                      TrainResult, init_params, load_checkpoint,
                      save_checkpoint, timestep_embedding, train)
from .errors import (AggregationError, BehindCameraError, ConfigError,
                     DegenerateAlignmentError, MissingGroundTruthError,
                     NumericError, PoseDiffError, PoseFileParseError,
                     PoseFileSchemaError, ShapeError, SkeletonError,
                     TrainingDivergedError)
from .metrics import (MetricReport, align_frame, auc, compute_metrics,
                      joint_errors, mpjpe, pck, pmpjpe)
from .poseio import load_poses, save_poses
from .render import render_frame, render_sequence
from .rng import RngStream, hypothesis_normals, serve_repeats, stream_id
from .sampler import (FlipMode, SamplerConfig, SigmaMode, run_sampler,
                      timestep_ladder)
from .schedule import (MM_PER_UNIT, SIGNAL_SCALE, NoiseSchedule,
                       make_cosine_schedule, save_schedule_csv, to_millimeters,
                       to_signal_units)
from .synth import DEFAULT_CAMERA, ScenarioConfig, gen_poses

__version__ = "0.1.0"
