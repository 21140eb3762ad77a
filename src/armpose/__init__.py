"""Camera-to-robot pose and joint-configuration estimation.

The pipeline: a regressor (or an oracle) turns 2D keypoints into pairwise
skeleton distances, classical multidimensional scaling and anchor alignment
recover the joint configuration, EPnP plus a single-link scale gives the
camera pose, and a silhouette-overlap search refines everything jointly.
"""

from ._io import DatasetFormatError
from .datagen import (
    SamplerConfig,
    Scene,
    SceneGenerationError,
    build_scene,
    draw_scene,
    load_scene_mask,
    look_at,
    perturb_keypoints,
    project_keypoints,
    read_dataset,
    sample_scene,
    write_dataset,
)
from .distgeo import (
    AdamState,
    AlignmentDegenerateError,
    ConfigurationAmbiguousWarning,
    MlpRegressor,
    NonEmbeddableWarning,
    TrainConfig,
    TrainingDivergedError,
    align_points,
    configuration_from_points,
    edm_from_configuration,
    edm_from_points,
    gram_from_edm,
    init_regressor,
    keypoint_features,
    load_regressor,
    mlp_forward,
    points_from_gram,
    regressor_widths,
    save_regressor,
    train_gim,
)
from .kinematics import (
    JointSpec,
    KinematicChain,
    RigidTransform,
    builtin_chain,
    check_configuration,
    dh_transform,
    forward_kinematics,
    joint_points,
    load_chain,
    matrix_to_rot6d,
    rot6d_to_matrix,
    rotation_geodesic,
    skeleton_keypoints,
    wrap_angle,
)
from .metrics import (
    EvalRecord,
    add_metric,
    auc,
    build_report,
    mae_config,
    write_report_csv,
    write_report_json,
)
from .poseinit import (
    CameraIntrinsics,
    Estimate,
    InsufficientCorrespondencesError,
    Keypoints2D,
    PnpDegenerateError,
    ScaleUndefinedError,
    epnp,
    estimate_from_distances,
    initial_estimate,
    scale_factor,
)
from .refine import (
    RefinerConfig,
    config_loss,
    pose_loss,
    refine,
)
from .silhouette import (
    Mesh,
    RenderSettings,
    default_link_meshes,
    read_pgm,
    render_chain_silhouette,
    render_link_clouds,
    render_polyline,
    render_silhouette,
    sample_link_clouds,
    sample_surface,
    silhouette_iou,
    write_pgm,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
