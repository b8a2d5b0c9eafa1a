from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetplan.geometry import (
    OrientedBox,
    State,
    VehicleParams,
    advance_arc,
    disc_center_distance,
    disc_centers_arr,
    discs_blocked,
    euler_step,
    footprints,
    map_bounds,
    normalize_angle,
    pair_clearances,
    rects_overlap,
)
from fleetplan.reeds_shepp import RsSegment
from oracles import (
    body_rect,
    brute_discs_hit_discs,
    brute_discs_near_boxes,
    brute_discs_off_map,
    brute_pair_distance,
    corner_sat,
    point_in_box,
    rect_corners,
    rollout_curve,
    sampled_overlap,
)


def step(z, u, dt, params):
    return euler_step(np.array(z, dtype=float), np.array(u, dtype=float), dt, params.L)


def test_step_straight():
    z = step((0, 0, 0, 0), (1, 0), 0.1, VehicleParams(L=1))
    assert z.tolist() == [0.1, 0.0, 0.0, 0.0]


def test_step_rotated_straight():
    z = step((0, 0, math.pi / 2, 0), (1, 0), 0.1, VehicleParams(L=1))
    assert abs(z[0]) < 1e-15
    assert abs(z[1] - 0.1) < 1e-15
    assert z[2] == math.pi / 2


def test_step_curved_substitution():
    # frozen from a direct substitution into the discrete model
    z = step((0, 0, 0, 0.3), (1, 0.1), 0.05, VehicleParams(L=2.0))
    assert z[0] == pytest.approx(0.05, abs=1e-15)
    assert z[1] == pytest.approx(0.0, abs=1e-15)
    assert z[2] == pytest.approx(0.007733406240240582, abs=1e-15)
    assert z[3] == pytest.approx(0.305, abs=1e-15)


def test_step_identity():
    z0 = (3.0, -2.0, 0.7, 0.2)
    z1 = step(z0, (0, 0), 0.5, VehicleParams())
    assert z1.tolist() == list(z0)


@given(
    x=st.floats(-10, 10), y=st.floats(-10, 10),
    th=st.floats(-3.1, 3.1), phi=st.floats(-0.5, 0.5),
    v=st.floats(-1, 1), om=st.floats(-1, 1),
    alpha=st.floats(-3.1, 3.1),
)
@settings(max_examples=200, deadline=None)
def test_step_rotational_equivariance(x, y, th, phi, v, om, alpha):
    p = VehicleParams()
    dt = 0.3
    stepped = step((x, y, th, phi), (v, om), dt, p)
    c, s = math.cos(alpha), math.sin(alpha)
    rot = (x * c - y * s, x * s + y * c, normalize_angle(th + alpha), phi)
    rot_stepped = step(rot, (v, om), dt, p)
    assert rot_stepped[0] == pytest.approx(stepped[0] * c - stepped[1] * s, abs=1e-9)
    assert rot_stepped[1] == pytest.approx(stepped[0] * s + stepped[1] * c, abs=1e-9)
    assert abs(normalize_angle(rot_stepped[2] - stepped[2] - alpha)) < 1e-9


def test_step_single_state_matches_batch():
    rng = np.random.default_rng(7)
    z = rng.uniform([-5, -5, -math.pi, -0.6], [5, 5, math.pi, 0.6], size=(50, 4))
    u = rng.uniform([-1, -1], [1, 1], size=(50, 2))
    batch = euler_step(z, u, 0.25, 1.5)
    assert batch.shape == (50, 4)
    for n in range(50):
        assert np.array_equal(euler_step(z[n], u[n], 0.25, 1.5), batch[n])


@pytest.mark.parametrize("kappa", [0.0, 0.4, -1.0 / 2.5])
@pytest.mark.parametrize("s", [0.0, 1.3, -2.7, 9.0])
def test_arc_matches_turn_center_rollout(kappa, s):
    start = (1.5, -2.0, 2.8)
    got = advance_arc(*start, kappa, s)
    want = rollout_curve(start, [RsSegment(kappa, s)])
    assert got == pytest.approx(want, abs=1e-12)
    if s == 0.0:
        assert got == start


def test_arc_heading_unwrapped():
    # three quarter turns leave the heading past pi rather than wrapping it
    _, _, th = advance_arc(0.0, 0.0, 3.0, 1.0, 1.5 * math.pi)
    assert th == 3.0 + 1.5 * math.pi


def test_normalize_angle_range():
    for a in np.linspace(-20, 20, 4001):
        w = normalize_angle(float(a))
        assert -math.pi < w <= math.pi
        assert abs(math.sin(w - a)) < 1e-12
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == math.pi


def test_footprint_axis_aligned():
    p = VehicleParams(L_F=2, L_B=1, W=2)
    assert footprints([0.0, 0.0, 0.0], p).tolist() == [0.5, 0.0, 1.5, 1.0, 0.0]


def test_footprint_mirrored():
    p = VehicleParams(L_F=2, L_B=1, W=2)
    cx, cy, _, _, heading = footprints([0.0, 0.0, math.pi], p)
    assert cx == pytest.approx(-0.5, abs=1e-12)
    assert cy == pytest.approx(0.0, abs=1e-12)
    assert heading == math.pi


def test_footprint_rotated_45():
    p = VehicleParams(L_F=2, L_B=1, W=2)
    cx, cy = footprints([0.0, 0.0, math.pi / 4], p)[:2]
    c = 0.35355339059327373  # 0.5/sqrt(2), frozen from the rotation matrix
    assert cx == pytest.approx(c, abs=1e-12)
    assert cy == pytest.approx(c, abs=1e-12)


def test_footprints_broadcast_and_match_body_rect():
    p = VehicleParams()
    rng = np.random.default_rng(2)
    poses = rng.uniform([-5, -5, -math.pi, -0.5], [5, 5, math.pi, 0.5], size=(3, 4, 4))
    got = footprints(poses, p)
    assert got.shape == (3, 4, 5)
    for idx in np.ndindex(3, 4):
        assert got[idx] == pytest.approx(body_rect(*poses[idx][:3], p), abs=1e-12)


def test_sat_identical_boxes():
    b = np.array([1.0, 2.0, 1.5, 1.0, 0.3])
    assert rects_overlap(b, b)


def test_sat_far_apart():
    assert not rects_overlap(np.array([0, 0, 0.5, 0.5, 0.0]), np.array([10, 0, 0.5, 0.5, 0.0]))


def test_sat_touching_counts():
    a = np.array([0, 0, 1.0, 1.0, 0.0])
    b = np.array([2.0, 0, 1.0, 1.0, 0.0])
    assert rects_overlap(a, b)
    # corner/edge samples see closed-set contact
    assert sampled_overlap(OrientedBox(*a), OrientedBox(*b))
    assert not rects_overlap(a, b + [1e-9, 0, 0, 0, 0])


def _random_box(rng) -> np.ndarray:
    return rng.uniform([-3, -3, 0.2, 0.2, -math.pi], [3, 3, 2.0, 2.0, math.pi])


def sat_vs_sampling(n_pairs: int, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(n_pairs):
        a, b = _random_box(rng), _random_box(rng)
        assert rects_overlap(a, b) == rects_overlap(b, a) == corner_sat(a, b)
        if sampled_overlap(OrientedBox(*a), OrientedBox(*b)):
            # oracle found genuine overlap: SAT must never miss it
            assert rects_overlap(a, b)


def test_sat_vs_sampling_oracle_small():
    sat_vs_sampling(1000)


def discs(z, p):
    return disc_centers_arr(np.array([[z.x, z.y, z.theta]]), p)


def test_disc_centers_substitution():
    p = VehicleParams(L_F=2, L_B=1, W=2)
    assert p.front_disc_offset == 1.25
    assert p.rear_disc_offset == -0.25
    y = discs(State(0, 0, 0), p)[0]
    assert np.allclose(y, [[1.25, 0.0], [-0.25, 0.0]])


def test_disc_centers_symmetric_body():
    p = VehicleParams(L_F=1.5, L_B=1.5, W=2)
    y = discs(State(0, 0, 0.4), p)[0]
    assert np.allclose(y[0], -y[1])


def disc_coverage(n_states: int, seed: int = 1) -> None:
    p = VehicleParams()
    rng = np.random.default_rng(seed)
    for _ in range(n_states):
        z = State(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
        centers = discs(z, p)[0]
        corners = rect_corners(*footprints([z.x, z.y, z.theta], p))
        edges = []
        for k in range(4):
            a, b = corners[k], corners[(k + 1) % 4]
            for lam in np.linspace(0, 1, 5):
                edges.append(a + lam * (b - a))
        pts = np.vstack([corners, edges])
        d = np.hypot(pts[:, None, 0] - centers[None, :, 0], pts[:, None, 1] - centers[None, :, 1])
        assert (d.min(axis=1) <= p.disc_radius + 1e-9).all()


def test_disc_coverage_small():
    disc_coverage(500)


def pair_distance(zi, zj, p):
    return float(disc_center_distance(discs(zi, p), discs(zj, p))[0]) - 2.0 * p.disc_radius


def test_pair_distance_identical():
    p = VehicleParams()
    z = State(2.0, 3.0, 0.7)
    assert pair_distance(z, z, p) == pytest.approx(-2 * p.disc_radius)


def test_pair_distance_far():
    p = VehicleParams()
    d = pair_distance(State(0, 0, 0), State(200, 0, 0), p)
    assert d > 0
    # far apart, the offset-cancelled pair dominates: ~ Euclidean - 2 r_v
    assert d == pytest.approx(200 - 2 * p.disc_radius, abs=p.length)


def test_pair_distance_head_to_head_enumeration():
    p = VehicleParams()
    zi = State(0, 0, 0)
    zj = State(6.0, 0.5, math.pi)
    assert pair_distance(zi, zj, p) == pytest.approx(brute_pair_distance(zi, zj, p), abs=1e-12)


def test_disc_distance_over_time_matches_enumeration():
    p = VehicleParams()
    rng = np.random.default_rng(5)
    lo, hi = [-6, -6, -math.pi], [6, 6, math.pi]
    sa = rng.uniform(lo, hi, size=(40, 3))
    sb = rng.uniform(lo, hi, size=(40, 3))
    got = disc_center_distance(disc_centers_arr(sa, p), disc_centers_arr(sb, p))
    assert got.shape == (40,)
    for t in range(40):
        want = brute_pair_distance(State(*sa[t]), State(*sb[t]), p) + 2.0 * p.disc_radius
        assert got[t] == pytest.approx(want, abs=1e-12)


@given(
    xi=st.floats(-5, 5), yi=st.floats(-5, 5), ti=st.floats(-3.1, 3.1),
    xj=st.floats(-5, 5), yj=st.floats(-5, 5), tj=st.floats(-3.1, 3.1),
)
@settings(max_examples=300, deadline=None)
def test_positive_pair_distance_excludes_overlap(xi, yi, ti, xj, yj, tj):
    p = VehicleParams()
    zi, zj = State(xi, yi, ti), State(xj, yj, tj)
    if pair_distance(zi, zj, p) > 0:
        assert not rects_overlap(footprints([xi, yi, ti], p), footprints([xj, yj, tj], p))


def test_default_disc_radius():
    assert VehicleParams(L_F=2, L_B=1, W=2).disc_radius == 1.25


def test_vectorized_aabb_matches_scalar():
    p = VehicleParams()
    rng = np.random.default_rng(3)
    obs = [(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(0.3, 2), rng.uniform(0.3, 2)) for _ in range(30)]
    poses = np.column_stack(
        [rng.uniform(-4, 4, 200), rng.uniform(-4, 4, 200), rng.uniform(-math.pi, math.pi, 200), np.zeros(200)]
    )
    rects = np.array([(*o, 0.0) for o in obs])
    fast = rects_overlap(footprints(poses, p)[:, None], rects[None])
    assert fast.shape == (200, 30) and 0 < fast.sum() < fast.size
    for n in range(poses.shape[0]):
        body = body_rect(*poses[n, :3], p)
        for k in range(len(obs)):
            assert fast[n, k] == corner_sat(body, rects[k])


def test_vectorized_box_pairs_match_scalar():
    p = VehicleParams()
    rng = np.random.default_rng(4)
    pa = np.column_stack(
        [rng.uniform(-3, 3, 40), rng.uniform(-3, 3, 40), rng.uniform(-math.pi, math.pi, 40), np.zeros(40)]
    )
    pb = np.column_stack(
        [rng.uniform(-3, 3, 25), rng.uniform(-3, 3, 25), rng.uniform(-math.pi, math.pi, 25), np.zeros(25)]
    )
    fast = rects_overlap(footprints(pa, p)[:, None], footprints(pb, p)[None])
    assert fast.shape == (40, 25) and 0 < fast.sum() < fast.size
    for n in range(pa.shape[0]):
        for k in range(pb.shape[0]):
            assert fast[n, k] == corner_sat(body_rect(*pa[n, :3], p), body_rect(*pb[k, :3], p))


# --- disc kernels on disc centres ------------------------------------------
# The default vehicle's disc radius is exactly 1.25, so the touching cases
# below sit exactly at r_v and 2 r_v in floating point.

def random_centers(rng, n, lo, hi):
    return rng.uniform(lo, hi, size=(n, 2, 2))


def check_discs_blocked(cen, r, width, height, boxes):
    """discs_blocked flags a disc off the map by more than 1e-9, or closer
    than r_v to a box; checked with the boxes and with none (K = 0), on
    (..., 2, 2) centres, (N, 2) points, single (2,) centres and other
    leading shapes, and with the map-edge test skipped (bounds None).
    Returns each pose's any-disc flag for both runs."""
    cols = np.array(boxes, dtype=float).reshape(-1, 4).T
    bounds = map_bounds(r, width, height)
    got = {}
    for bx in (boxes, []):
        o = (cols[:2], cols[2:]) if bx else (np.empty((2, 0)),) * 2
        flags = discs_blocked(cen, r, bounds, o)
        assert flags.shape == cen.shape[:-1]
        pts = cen.reshape(-1, 2)
        near = brute_discs_near_boxes(pts, r, bx)
        want = near | brute_discs_off_map(pts, r, width, height)
        assert np.array_equal(flags.ravel(), want)
        assert np.array_equal(discs_blocked(pts, r, bounds, o), want)
        one = [discs_blocked(p, r, bounds, o) for p in pts[::7]]
        assert all(np.shape(f) == () for f in one) and [bool(f) for f in one] == want[::7].tolist()
        assert np.array_equal(discs_blocked(cen.reshape(2, -1, 2, 2), r, bounds, o),
                              flags.reshape(2, -1, 2))
        assert np.array_equal(discs_blocked(cen, r, None, o).ravel(), near)
        assert 0 < flags.sum() < flags.size
        got[bool(bx)] = flags.any(axis=-1)
    return got


def disc_test_boxes(rng):
    return [(rng.uniform(0, 20), rng.uniform(0, 20), rng.uniform(0.2, 2), rng.uniform(0.2, 2))
            for _ in range(12)] + [(40.0, 40.0, 1.0, 2.0)]


def test_discs_hit_aabbs_matches_clamped_distance():
    """Centres around a box set on a 62 m map, touching cases last."""
    p = VehicleParams()
    r = p.disc_radius
    rng = np.random.default_rng(21)
    boxes = disc_test_boxes(rng)
    far = [60.0, 60.0]
    touching = np.array([
        [[41.0 + r, 40.0], far],          # right face, exactly r_v away
        [far, [40.0, 42.0 + r]],          # top face, rear disc
        [[41.0 + r - 1e-9, 40.0], far],   # a hair inside r_v
        [[39.0 - r, 37.0], far],          # off the left face, beside a corner
    ])
    cen = np.concatenate([random_centers(rng, 400, -2.0, 22.0), touching])
    got = check_discs_blocked(cen, r, 62.0, 62.0, boxes)
    assert got[True][-4:].tolist() == [False, False, True, False]
    assert not got[False][-4:].any()


def test_discs_outside_map_matches_edge_distance():
    """Centres around the edges of a 30 x 20 m map, edge cases last."""
    p = VehicleParams()
    r = p.disc_radius
    w, h = 30.0, 20.0
    mid = [15.0, 10.0]
    edges = np.array([
        [[r, 10.0], mid], [[w - r, 10.0], mid], [mid, [15.0, r]], [mid, [15.0, h - r]],
        [[r - 1e-6, 10.0], mid], [mid, [15.0, h - r + 1e-6]],
    ])
    cen = np.concatenate([random_centers(np.random.default_rng(22), 400, -1.0, 31.0), edges])
    got = check_discs_blocked(cen, r, w, h, disc_test_boxes(np.random.default_rng(21)))
    assert got[False][-6:].tolist() == [False, False, False, False, True, True]


def test_disc_center_distance_matches_all_centre_pairs():
    p = VehicleParams()
    r = p.disc_radius
    rng = np.random.default_rng(23)
    ca = np.concatenate([random_centers(rng, 60, 0.0, 12.0),
                         np.array([[[10.0, 10.0], [10.0, 11.0]]])])
    cb = np.concatenate([random_centers(rng, 40, 0.0, 12.0),
                         np.array([[[12.5, 11.0], [20.0, 20.0]],           # exactly 2 r_v
                                   [[20.0, 20.0], [12.5 - 1e-9, 10.0]]])])  # a hair closer
    want = brute_discs_hit_discs(ca, cb, r)
    got = disc_center_distance(ca[:, None], cb[None, :]) < 2.0 * r
    assert got.shape == (61, 42)
    assert np.array_equal(got, want)
    assert got[-1, -2:].tolist() == [False, True]
    assert 0 < got.sum() < got.size
    # time-aligned, as the goal shot uses it: step m against every obstacle at m
    steps, obstacles = ca[:5], cb[:40].reshape(8, 5, 2, 2)
    aligned = disc_center_distance(steps, obstacles) < 2.0 * r
    assert aligned.shape == (8, 5)
    for k in range(8):
        for m in range(5):
            assert aligned[k, m] == want[m, 5 * k + m]


@pytest.mark.parametrize("M", [1, 5])
def test_pair_clearances_match_per_pair_distance(M):
    """Every pair i < j in double-loop order, each row bit for bit the
    distance of that pair alone; one vehicle has no pairs."""
    T = 7
    discs = random_centers(np.random.default_rng(24 + M), M * T, 0.0, 12.0).reshape(M, T, 2, 2)
    i, j, d = pair_clearances(discs)
    pairs = [(a, b) for a in range(M) for b in range(a + 1, M)]
    assert list(zip(i.tolist(), j.tolist())) == pairs
    assert d.shape == (len(pairs), T)
    for row, (a, b) in enumerate(pairs):
        assert np.array_equal(d[row], disc_center_distance(discs[a], discs[b]))


def test_point_in_box_oracle_sanity():
    assert point_in_box(1.0, 0.0, 0, 0, 1, 1, 0.0)
    assert not point_in_box(1.0001, 0.0, 0, 0, 1, 1, 0.0)
