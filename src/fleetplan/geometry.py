"""Vehicle geometry: the shared motion kernels, footprints and collision tests.

The search, the refinement, the verifier and the instance generator share
one version of each of seven kernels:

- `advance_arc`: exact advance along a constant-curvature arc by a signed
  length.  The search's `_piece_poses` (its one walk along motion
  segments, for the primitive table, the goal shots and the replay check),
  the Reeds-Shepp word check and refinement's resampling of the coarse plan
  all use it.
- `euler_step`: one forward-Euler step of the kinematic bicycle model over
  (..., 4) states, the state plus its `euler_increment`.  Refinement
  linearizes with it and the verifier re-simulates every plan step with it;
  refinement's rollout sums its increments.
- `disc_center_distance`: the minimum distance between the covering-disc
  centres of two vehicles at matching times.  It is the low-level search's
  dynamic-obstacle test, and `pair_clearances` sweeps vehicle pairs with it.
  The search's dynamic broadphase only decides, from the distances to the
  obstacles' disc midpoints, where this test cannot fail and is skipped; it
  is not a second test.
- `pair_clearances`: `disc_center_distance` of every vehicle pair i < j at
  every time of a stacked disc-centre table.  It is the one pair sweep of
  PBS's conflict detection, refinement's neighbour filter and the verifier's
  vehicle-pair broadphase, each with its own threshold.  PBS's dirty test, a
  sweep of one agent against its ancestors only, passes their stacked table
  to `disc_center_distance` directly.
- `box_gaps`: the per-axis gaps between points and axis-aligned obstacle
  boxes.  `discs_blocked`, the search's flood-fill obstacle cells, its
  static broadphase (one cell at a time, as the search reaches it) and
  refinement's seed relocation use it.
- `discs_blocked`: whether discs leave the map or come closer than their
  radius to an obstacle.  It is the search's static test of primitive sweeps
  and goal shots, and refinement's test of corridor seeds and of their
  relocated candidates, so both stages agree on free space.  The search's
  static broadphase only narrows the boxes it passes to those a sweep can
  reach; it is not a second test.  Two tests stay
  apart on purpose: the generator's square-dilated placement test, whose
  change would move every generated instance, and the flood fill's
  blocked-cell test, a closed centre-in-box test at radius 0.
- `rects_overlap`: the closed-set separating-axis test of rectangles laid
  out by `footprints`, whose leading shapes broadcast.  It is the verifier's
  obstacle and vehicle-pair test and the instance checks' and the
  generator's placement test.

Poses are rear-axle poses (x, y, theta).  A state adds the steering angle
phi; controls are (v, omega) with omega the steering rate.  The kernels leave
headings unwrapped; instances and the search keep theta in (-pi, pi].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def euler_increment(z, u, dt: float, wheelbase: float) -> np.ndarray:
    """The state change of one forward-Euler step of the kinematic bicycle
    model: `euler_step` adds it to z.

    z holds states (..., 4) as (x, y, theta, phi) and u controls (..., 2) as
    (v, omega); the result has the states' shape.  Its phi column reads no
    state, its theta column only phi and its x and y columns only theta, so
    a rollout can sum it one column group after the other.
    """
    # unpacking the transpose keeps a single state on numpy scalars, which
    # keeps `_track_guess`'s one-state-at-a-time re-drive cheap
    _, _, th, ph = np.asarray(z, dtype=float).T
    v, omega = np.asarray(u, dtype=float).T
    return np.array(
        [
            v * np.cos(th) * dt,
            v * np.sin(th) * dt,
            v * np.tan(ph) / wheelbase * dt,
            omega * dt,
        ]
    ).T


def euler_step(z, u, dt: float, wheelbase: float) -> np.ndarray:
    """One forward-Euler step of the kinematic bicycle model.

    z holds states (..., 4) as (x, y, theta, phi) and u controls (..., 2) as
    (v, omega); the result has the states' shape, heading not wrapped.
    """
    z = np.asarray(z, dtype=float)
    return z + euler_increment(z, u, dt, wheelbase)


@dataclass(frozen=True)
class OrientedBox:
    """Rectangle given by center, half extents and heading."""

    cx: float
    cy: float
    hx: float
    hy: float
    heading: float = 0.0


def footprints(poses, params: VehicleParams) -> np.ndarray:
    """Body rectangles of poses (..., >=3) -> (..., 5) rows (cx, cy, hx, hy,
    heading), the layout `rects_overlap` takes."""
    poses = np.asarray(poses, dtype=float)
    th = poses[..., 2]
    out = np.empty(poses.shape[:-1] + (5,))
    out[..., 0] = poses[..., 0] + params.center_offset * np.cos(th)
    out[..., 1] = poses[..., 1] + params.center_offset * np.sin(th)
    out[..., 2] = params.length / 2.0
    out[..., 3] = params.W / 2.0
    out[..., 4] = th
    return out


def rects_overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Separating-axis test of rectangles (..., 5) as (cx, cy, hx, hy,
    heading) whose leading shapes broadcast together -> boolean (...).

    Closed sets: rectangles that merely touch overlap.  On each rectangle's
    own two axes the other's projected half extent depends only on the
    relative heading.
    """
    dx = b[..., 0] - a[..., 0]
    dy = b[..., 1] - a[..., 1]
    rel = b[..., 4] - a[..., 4]
    rc, rs = np.abs(np.cos(rel)), np.abs(np.sin(rel))
    hit = True
    for own, other in ((a, b), (b, a)):
        c, s = np.cos(own[..., 4]), np.sin(own[..., 4])
        ohx, ohy = other[..., 2], other[..., 3]
        hit = hit & (np.abs(dx * c + dy * s) <= own[..., 2] + ohx * rc + ohy * rs)
        hit = hit & (np.abs(-dx * s + dy * c) <= own[..., 3] + ohx * rs + ohy * rc)
    return hit


def boxes_outside_map(fp: np.ndarray, width: float, height: float) -> np.ndarray:
    """True where any corner of the rectangles (..., 5) laid out by
    `footprints` leaves [0, width] x [0, height].
    The map is a closed set: corners exactly on the boundary are inside.  A
    hair of slack absorbs the ~1e-16 rounding of the corner rotation so that
    edge-touching poses (e.g. heading pi) do not flip outside."""
    eps = 1e-9
    ac, asn = np.abs(np.cos(fp[..., 4])), np.abs(np.sin(fp[..., 4]))
    ex = fp[..., 2] * ac + fp[..., 3] * asn
    ey = fp[..., 2] * asn + fp[..., 3] * ac
    return (
        (fp[..., 0] - ex < -eps)
        | (fp[..., 0] + ex > width + eps)
        | (fp[..., 1] - ey < -eps)
        | (fp[..., 1] + ey > height + eps)
    )


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


def pair_clearances(discs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair sweep: disc centres (M, T, 2, 2) of M vehicles -> (i, j, d), the
    index arrays of every pair i < j in `np.triu_indices` order and their
    `disc_center_distance` (P, T) at each time."""
    i, j = np.triu_indices(discs.shape[0], k=1)
    return i, j, disc_center_distance(discs[i], discs[j])


def box_gaps(px, py, acx, acy, ahx, ahy) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis gaps between points (...) and K axis-aligned boxes, each box
    centred at (acx, acy) with half extents (ahx, ahy): two arrays (..., K),
    zero along an axis where the point lies within the box's extent.  The
    point's distance to a box is the hypotenuse of its two gaps."""
    dx = np.maximum(np.abs(np.asarray(px)[..., None] - acx) - ahx, 0.0)
    dy = np.maximum(np.abs(np.asarray(py)[..., None] - acy) - ahy, 0.0)
    return dx, dy


def discs_blocked(centers, r, width, height, acx, acy, ahx, ahy) -> np.ndarray:
    """Clearance kernel: True where a disc of radius r centred at centers
    (..., 2) reaches past [0, width] x [0, height] by more than 1e-9, or comes
    closer than r to one of the axis-aligned boxes (acx, acy, ahx, ahy);
    returns (...).

    A disc that touches a box is clear.  The covering discs of a pose cover
    its body, so a pose whose discs are clear is footprint-clear too.
    """
    eps = 1e-9
    x, y = centers[..., 0], centers[..., 1]
    out = (x < r - eps) | (x > width - r + eps) | (y < r - eps) | (y > height - r + eps)
    if acx.size:
        dx, dy = box_gaps(x, y, acx, acy, ahx, ahy)
        out |= ((dx * dx + dy * dy) < r ** 2).any(axis=-1)
    return out
