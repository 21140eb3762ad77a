# Recovering joint angles from pairwise distances alone.
#
# The squared distances between skeleton points determine the configuration:
# double-center the distance matrix, eigendecompose to coordinates, align the
# cloud onto the chain, and read the angles back off with the analytic
# inverse kinematics. No camera involved yet; this is the geometric core of
# the keypoint-to-configuration regressor.

import numpy as np

from armpose import (
    align_points,
    builtin_chain,
    configuration_from_points,
    edm_from_configuration,
    gram_from_edm,
    joint_points,
    points_from_gram,
)

chain = builtin_chain("panda7")
rng = np.random.default_rng(3)
lo, hi = chain.limits()

print("noise-free round trip on five random configurations:\n")
for trial in range(5):
    theta = rng.uniform(lo, hi)
    d = edm_from_configuration(chain, theta)

    # cMDS: distances -> Gram -> coordinates (up to a rigid motion)
    cloud = points_from_gram(gram_from_edm(d))

    # the eigendecomposition fixes neither handedness nor which way the
    # first two joints point, so align onto the true points before the IK
    targets = joint_points(chain, theta)
    aligned = align_points(cloud, chain, targets)
    recovered = configuration_from_points(chain, aligned)

    err = np.max(np.abs(recovered - theta))
    print(f"  trial {trial}: max joint error {err:.2e} rad")

# the same distances survive any rigid motion of the points
theta = rng.uniform(lo, hi)
pts = joint_points(chain, theta)
spun = pts @ np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]).T + [5.0, -2.0, 1.0]


def edm(points):
    g = points @ points.T
    n = np.diag(g)
    return n[:, None] + n[None, :] - 2.0 * g


print(f"\nEDM change under a rigid motion: {np.max(np.abs(edm(pts) - edm(spun))):.2e}")
