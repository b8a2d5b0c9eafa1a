"""Vehicle geometry: the shared motion kernels, footprints and collision tests.

The search, the refinement and the verifier share one version of each of
four kernels:

- `advance_arc`: exact advance along a constant-curvature arc by a signed
  length.  The search's motion primitives and goal shots, the Reeds-Shepp
  word check and refinement's resampling of the coarse plan all use it.
- `euler_step`: one forward-Euler step of the kinematic bicycle model over
  (..., 4) states.  Refinement linearizes and rolls out with it; the verifier
  re-simulates every plan step with it.
- `disc_center_distance`: the minimum distance between the covering-disc
  centres of two vehicles at matching times.  It is the low-level search's
  dynamic-obstacle test, PBS's conflict test, refinement's neighbour filter
  and the verifier's broadphase.
- `box_gaps`: the per-axis gaps between points and axis-aligned obstacle
  boxes.  The search's disc test and flood-fill obstacle cells and
  refinement's corridors and seed relocation all use it.

Poses are rear-axle poses (x, y, theta).  A state adds the steering angle
phi; controls are (v, omega) with omega the steering rate.  The kernels leave
headings unwrapped; instances and the search keep theta in (-pi, pi].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VehicleParams",
    "State",
    "OrientedBox",
    "normalize_angle",
    "advance_arc",
    "euler_step",
    "disc_center_distance",
    "footprint",
    "box_corners",
    "sat_overlap",
]


def normalize_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]; angles already in range pass through exactly."""
    if -math.pi < a <= math.pi:
        return a
    a = (a + math.pi) % (2.0 * math.pi) - math.pi
    if a <= -math.pi:
        a = math.pi
    return a


@dataclass(frozen=True)
class VehicleParams:
    """Ackermann vehicle dimensions and limits.

    L is the wheelbase, L_F/L_B the distances from the rear axle to the
    front/back edge of the body, W the body width.  Limits are symmetric.
    """

    L: float = 1.5        # wheelbase [m]
    L_F: float = 2.0      # rear axle to front bumper [m]
    L_B: float = 1.0      # rear axle to rear bumper [m]
    W: float = 2.0        # body width [m]
    v_max: float = 1.0    # speed limit [m/s]
    omega_max: float = 1.0  # steering rate limit [rad/s]
    phi_max: float = 0.6  # steering angle limit [rad]

    @property
    def length(self) -> float:
        return self.L_F + self.L_B

    @property
    def center_offset(self) -> float:
        # body center sits ahead of the rear axle
        return (self.L_F - self.L_B) / 2.0

    @property
    def front_disc_offset(self) -> float:
        return (3.0 * self.L_F - self.L_B) / 4.0

    @property
    def rear_disc_offset(self) -> float:
        return (self.L_F - 3.0 * self.L_B) / 4.0

    @property
    def disc_radius(self) -> float:
        # radius of the two covering discs; each disc must contain one
        # half of the body rectangle
        return math.hypot((self.L_F + self.L_B) / 4.0, self.W / 2.0)

    @property
    def min_turn_radius(self) -> float:
        return self.L / math.tan(self.phi_max)


@dataclass(frozen=True)
class State:
    x: float
    y: float
    theta: float
    phi: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta, self.phi])


def advance_arc(x, y, th, kappa, s):
    """Exact advance by signed arc length s at constant curvature kappa.

    kappa = 0 is a straight line and s < 0 drives in reverse; the returned
    heading is th plus the turned angle, not wrapped.
    """
    if kappa == 0.0:
        return x + s * math.cos(th), y + s * math.sin(th), th
    dth = kappa * s
    return (
        x + (math.sin(th + dth) - math.sin(th)) / kappa,
        y - (math.cos(th + dth) - math.cos(th)) / kappa,
        th + dth,
    )


def euler_step(z, u, dt: float, wheelbase: float) -> np.ndarray:
    """One forward-Euler step of the kinematic bicycle model.

    z holds states (..., 4) as (x, y, theta, phi) and u controls (..., 2) as
    (v, omega); the result has the states' shape, heading not wrapped.
    """
    # unpacking the transpose keeps a single state on numpy scalars, which
    # the per-step rollout loop needs to stay cheap
    x, y, th, ph = np.asarray(z, dtype=float).T
    v, omega = np.asarray(u, dtype=float).T
    return np.array(
        [
            x + v * np.cos(th) * dt,
            y + v * np.sin(th) * dt,
            th + v * np.tan(ph) / wheelbase * dt,
            ph + omega * dt,
        ]
    ).T


@dataclass(frozen=True)
class OrientedBox:
    """Rectangle given by center, half extents and heading."""

    cx: float
    cy: float
    hx: float
    hy: float
    heading: float = 0.0


def footprint(z: State, params: VehicleParams) -> OrientedBox:
    """Body rectangle of the vehicle at state z."""
    oc = params.center_offset
    return OrientedBox(
        z.x + oc * math.cos(z.theta),
        z.y + oc * math.sin(z.theta),
        params.length / 2.0,
        params.W / 2.0,
        z.theta,
    )


def box_corners(box: OrientedBox) -> np.ndarray:
    """Corners in counter-clockwise order, shape (4, 2)."""
    c, s = math.cos(box.heading), math.sin(box.heading)
    ux, uy = c * box.hx, s * box.hx
    vx, vy = -s * box.hy, c * box.hy
    return np.array(
        [
            [box.cx + ux + vx, box.cy + uy + vy],
            [box.cx - ux + vx, box.cy - uy + vy],
            [box.cx - ux - vx, box.cy - uy - vy],
            [box.cx + ux - vx, box.cy + uy - vy],
        ]
    )


def _axes(box: OrientedBox) -> tuple[tuple[float, float], tuple[float, float]]:
    c, s = math.cos(box.heading), math.sin(box.heading)
    return (c, s), (-s, c)


def _proj_radius(box: OrientedBox, ax: tuple[float, float]) -> float:
    c, s = math.cos(box.heading), math.sin(box.heading)
    # |u . ax| * hx + |v . ax| * hy
    return box.hx * abs(c * ax[0] + s * ax[1]) + box.hy * abs(-s * ax[0] + c * ax[1])


def sat_overlap(a: OrientedBox, b: OrientedBox) -> bool:
    """Separating-axis overlap test for two oriented rectangles.

    Closed-set semantics: boxes that merely touch count as overlapping.
    """
    dx, dy = b.cx - a.cx, b.cy - a.cy
    for ax in (*_axes(a), *_axes(b)):
        dist = abs(dx * ax[0] + dy * ax[1])
        if dist > _proj_radius(a, ax) + _proj_radius(b, ax):
            return False
    return True


# ---------------------------------------------------------------------------
# vectorized variants used in the planner hot paths


def footprint_params_arr(poses: np.ndarray, params: VehicleParams) -> np.ndarray:
    """Footprint centers and headings for poses (N, >=3) -> (N, 3)."""
    oc = params.center_offset
    th = poses[:, 2]
    out = np.empty((poses.shape[0], 3))
    out[:, 0] = poses[:, 0] + oc * np.cos(th)
    out[:, 1] = poses[:, 1] + oc * np.sin(th)
    out[:, 2] = th
    return out


def boxes_hit_aabbs(
    poses: np.ndarray,
    params: VehicleParams,
    acx: np.ndarray,
    acy: np.ndarray,
    ahx: np.ndarray,
    ahy: np.ndarray,
) -> np.ndarray:
    """For each pose, does the body rectangle hit any axis-aligned box?

    poses has shape (N, >=3); the a* arrays describe the boxes.  Returns a
    boolean mask of shape (N,).  Touching counts as a hit.
    """
    if acx.size == 0 or poses.shape[0] == 0:
        return np.zeros(poses.shape[0], dtype=bool)
    fp = footprint_params_arr(poses, params)
    hl, hw = params.length / 2.0, params.W / 2.0
    c = np.cos(fp[:, 2])[:, None]
    s = np.sin(fp[:, 2])[:, None]
    dx = acx[None, :] - fp[:, 0:1]
    dy = acy[None, :] - fp[:, 1:2]
    ac, asn = np.abs(c), np.abs(s)
    # world axes
    ok1 = np.abs(dx) <= ahx[None, :] + hl * ac + hw * asn
    ok2 = np.abs(dy) <= ahy[None, :] + hl * asn + hw * ac
    # vehicle axes
    ok3 = np.abs(dx * c + dy * s) <= hl + ahx[None, :] * ac + ahy[None, :] * asn
    ok4 = np.abs(-dx * s + dy * c) <= hw + ahx[None, :] * asn + ahy[None, :] * ac
    return (ok1 & ok2 & ok3 & ok4).any(axis=1)


def boxes_outside_map(
    poses: np.ndarray, params: VehicleParams, width: float, height: float
) -> np.ndarray:
    """True where any footprint corner leaves [0, width] x [0, height].
    The map is a closed set: corners exactly on the boundary are inside.  A
    hair of slack absorbs the ~1e-16 rounding of the corner rotation so that
    edge-touching poses (e.g. heading pi) do not flip outside."""
    eps = 1e-9
    fp = footprint_params_arr(poses, params)
    hl, hw = params.length / 2.0, params.W / 2.0
    ac, asn = np.abs(np.cos(fp[:, 2])), np.abs(np.sin(fp[:, 2]))
    ex = hl * ac + hw * asn
    ey = hl * asn + hw * ac
    return (
        (fp[:, 0] - ex < -eps)
        | (fp[:, 0] + ex > width + eps)
        | (fp[:, 1] - ey < -eps)
        | (fp[:, 1] + ey > height + eps)
    )


def boxes_hit_boxes(
    poses_a: np.ndarray, poses_b: np.ndarray, params: VehicleParams
) -> np.ndarray:
    """Pairwise SAT between footprints of poses_a (N,) and poses_b (K,).

    Returns an (N, K) boolean matrix; both sets share the same vehicle.
    """
    n, k = poses_a.shape[0], poses_b.shape[0]
    if n == 0 or k == 0:
        return np.zeros((n, k), dtype=bool)
    fa = footprint_params_arr(poses_a, params)
    fb = footprint_params_arr(poses_b, params)
    hl, hw = params.length / 2.0, params.W / 2.0
    dx = fb[None, :, 0] - fa[:, None, 0]
    dy = fb[None, :, 1] - fa[:, None, 1]
    ok = np.ones((n, k), dtype=bool)
    for th_small, sign in ((fa[:, None, 2], 1), (fb[None, :, 2], -1)):
        c, s = np.cos(th_small), np.sin(th_small)
        # other box heading relative to this axis frame
        rel = sign * (fb[None, :, 2] - fa[:, None, 2])
        rc, rs = np.abs(np.cos(rel)), np.abs(np.sin(rel))
        pu = dx * c + dy * s
        pv = -dx * s + dy * c
        ok &= np.abs(pu) <= hl + hl * rc + hw * rs
        ok &= np.abs(pv) <= hw + hl * rs + hw * rc
    return ok


def disc_centers_arr(poses: np.ndarray, params: VehicleParams) -> np.ndarray:
    """Disc centers for poses (..., >=3) -> (..., 2, 2), front disc first."""
    c, s = np.cos(poses[..., 2]), np.sin(poses[..., 2])
    f, r = params.front_disc_offset, params.rear_disc_offset
    out = np.empty(poses.shape[:-1] + (2, 2))
    out[..., 0, 0] = poses[..., 0] + f * c
    out[..., 0, 1] = poses[..., 1] + f * s
    out[..., 1, 0] = poses[..., 0] + r * c
    out[..., 1, 1] = poses[..., 1] + r * s
    return out


def disc_center_distance(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Clearance kernel: disc centers (..., 2, 2) of two vehicles whose
    leading shapes broadcast together -> (...) minimum over the four center
    pairs; pass (T, 2, 2) twice for matching times, or (N, 1, 2, 2) and
    (1, K, 2, 2) for every pair of N and K.

    Subtracting 2 r_v gives the conservative clearance; a positive value
    certifies that the footprints do not intersect.
    """
    d = da[..., :, None, :] - db[..., None, :, :]
    # a rounded sqrt is monotone, so taking it after the min changes no bit
    return np.sqrt((d * d).sum(axis=-1).min(axis=(-2, -1)))


def box_gaps(px, py, acx, acy, ahx, ahy) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis gaps between points (...) and K axis-aligned boxes, each box
    centred at (acx, acy) with half extents (ahx, ahy): two arrays (..., K),
    zero along an axis where the point lies within the box's extent.  The
    point's distance to a box is the hypotenuse of its two gaps."""
    dx = np.maximum(np.abs(np.asarray(px)[..., None] - acx) - ahx, 0.0)
    dy = np.maximum(np.abs(np.asarray(py)[..., None] - acy) - ahy, 0.0)
    return dx, dy


def discs_hit_aabbs(
    centers: np.ndarray,
    params: VehicleParams,
    acx: np.ndarray,
    acy: np.ndarray,
    ahx: np.ndarray,
    ahy: np.ndarray,
) -> np.ndarray:
    """For disc centres (..., 2, 2), does either covering disc overlap any
    axis-aligned box?

    Conservative compared to the exact footprint test: the discs cover the
    rectangle, so a disc-clear pose is always footprint-clear.  Returns a
    boolean mask of the leading shape (...).
    """
    if acx.size == 0 or centers.size == 0:
        return np.zeros(centers.shape[:-2], dtype=bool)
    cen = centers.reshape(-1, 2)   # (2N, 2)
    dx, dy = box_gaps(cen[:, 0], cen[:, 1], acx, acy, ahx, ahy)
    hit = (dx * dx + dy * dy) < params.disc_radius ** 2
    return hit.any(axis=1).reshape(centers.shape[:-1]).any(axis=-1)


def discs_outside_map(
    centers: np.ndarray, params: VehicleParams, width: float, height: float
) -> np.ndarray:
    """For disc centres (..., 2, 2): True where either covering disc sticks
    out of [0,width] x [0,height]."""
    eps = 1e-9
    r = params.disc_radius
    x, y = centers[..., 0], centers[..., 1]
    out = (x < r - eps) | (x > width - r + eps) | (y < r - eps) | (y > height - r + eps)
    return out.any(axis=-1)

