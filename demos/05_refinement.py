# Silhouette-driven refinement of a perturbed estimate.
#
# The refiner never touches the original keypoints: it re-renders the model
# at the current estimate, scores it against the observed mask with IoU, and
# walks joint angles, rotation, and ray scale downhill with a shrinking
# coordinate search. Ground truth is only used here to report ADD next to
# the internal objective.

import numpy as np

from armpose import (
    Estimate,
    RefinerConfig,
    RenderSettings,
    SamplerConfig,
    add_metric,
    build_scene,
    builtin_chain,
    default_link_meshes,
    refine,
)

chain = builtin_chain("panda7")
cfg = SamplerConfig()
k = cfg.intrinsics()
meshes = default_link_meshes(chain)
settings = RenderSettings()

scene, observed = build_scene(chain, cfg, seed=12, index=0, meshes=meshes, render_settings=settings)

# perturb the truth the way a keypoint initializer typically misses: a bit
# of angle error on every joint and a depth that is 10% too far
rng = np.random.default_rng(1)
lo, hi = chain.limits()
theta0 = np.clip(scene.theta + 0.1 * rng.choice([-1.0, 1.0], chain.dof), lo, hi)
truth = Estimate.from_pose(scene.theta, scene.pose, k, provenance="truth")
start = Estimate(theta0, truth.rotation, 1.1 * truth.scale, truth.base_pixel)

refined, trace = refine(
    start, observed, chain, meshes, k, RefinerConfig(), settings, ground_truth=truth
)

print("iteration  evals  1-IoU     ADD")
for row in trace:
    print(f"{row['iteration']:>9}  {row['evaluations']:>5}  {row['objective']:.4f}    {row['point_error']:.4f}")

add0 = add_metric(scene.pose, scene.theta, start.pose(k), start.theta, chain)
add1 = add_metric(scene.pose, scene.theta, refined.pose(k), refined.theta, chain)
print(f"\nADD {add0:.4f} -> {add1:.4f} m   scale {start.scale:.3f} -> {refined.scale:.3f} "
      f"(true {truth.scale:.3f})")
print(f"provenance: {refined.provenance}")
