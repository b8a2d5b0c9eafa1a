"""Independent oracles used by the unit and acceptance suites.

Everything here is deliberately written from first principles (dense sampling,
dense linear algebra, brute-force enumeration) rather than reusing library
internals, so the implementation and its checks stay on separate routes.  The
one exception is `reference_admm`, which keeps the QP solver's set-up and
checks its iteration loop alone.
"""
from __future__ import annotations

import heapq
import math

import numpy as np
from scipy.linalg.lapack import dpbtrs

from fleetplan.qp import (
    _ALPHA,
    _RHO0,
    _RHO_MAX,
    _RHO_MIN,
    _SIGMA,
    QpSolution,
    _ninf,
    _ordered,
    _primal_infeasibility_certificate,
    kkt_residuals,
)


def point_in_box(px: float, py: float, cx: float, cy: float, hx: float, hy: float,
                 heading: float, eps: float = 0.0) -> bool:
    """Closed-set membership of a point in an oriented rectangle."""
    c, s = math.cos(heading), math.sin(heading)
    dx, dy = px - cx, py - cy
    return abs(dx * c + dy * s) <= hx + eps and abs(-dx * s + dy * c) <= hy + eps


def box_sample_points(cx, cy, hx, hy, heading, n=12) -> np.ndarray:
    """Grid of sample points covering a rectangle, corners and edges included."""
    u = np.linspace(-hx, hx, n)
    v = np.linspace(-hy, hy, n)
    uu, vv = np.meshgrid(u, v)
    c, s = math.cos(heading), math.sin(heading)
    xs = cx + uu * c - vv * s
    ys = cy + uu * s + vv * c
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


def sampled_overlap(a, b, n=12) -> bool:
    """Point-sampling overlap oracle for two oriented rectangles.

    Finds an overlap whenever a sample point of one box lies inside the other
    (closed membership).  Misses only overlaps thinner than the sampling grid,
    so it can under-report but never over-report.
    """
    for pa in box_sample_points(a.cx, a.cy, a.hx, a.hy, a.heading, n):
        if point_in_box(pa[0], pa[1], b.cx, b.cy, b.hx, b.hy, b.heading):
            return True
    for pb in box_sample_points(b.cx, b.cy, b.hx, b.hy, b.heading, n):
        if point_in_box(pb[0], pb[1], a.cx, a.cy, a.hx, a.hy, a.heading):
            return True
    return False


def body_rect(x, y, theta, params) -> tuple:
    """The vehicle body at a rear-axle pose as (cx, cy, hx, hy, heading): the
    body runs from L_B behind the rear axle to L_F ahead of it."""
    off = (params.L_F - params.L_B) / 2.0
    return (x + off * math.cos(theta), y + off * math.sin(theta),
            (params.L_F + params.L_B) / 2.0, params.W / 2.0, theta)


def rect_corners(cx, cy, hx, hy, heading) -> np.ndarray:
    """Corners of a rectangle in counter-clockwise order, shape (4, 2)."""
    c, s = math.cos(heading), math.sin(heading)
    return np.array([[cx + c * u - s * v, cy + s * u + c * v]
                     for u, v in ((hx, hy), (-hx, hy), (-hx, -hy), (hx, -hy))])


def corner_sat(a, b) -> bool:
    """Closed-set overlap of two rectangles given as (cx, cy, hx, hy,
    heading): two convex polygons are disjoint exactly when their corners'
    projections separate on some edge normal of either one."""
    ca, cb = rect_corners(*a), rect_corners(*b)
    for corners in (ca, cb):
        for k in range(2):   # opposite edges share a normal
            ex, ey = corners[k + 1] - corners[k]
            pa, pb = ca @ (-ey, ex), cb @ (-ey, ex)
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


def brute_pair_distance(zi, zj, params) -> float:
    """Enumerate all four disc-center pairs explicitly."""
    def centers(z):
        out = []
        for off in ((3.0 * params.L_F - params.L_B) / 4.0, (params.L_F - 3.0 * params.L_B) / 4.0):
            out.append((z.x + off * math.cos(z.theta), z.y + off * math.sin(z.theta)))
        return out

    best = math.inf
    for (ax, ay) in centers(zi):
        for (bx, by) in centers(zj):
            best = min(best, math.hypot(ax - bx, ay - by))
    return best - 2.0 * params.disc_radius


def fd_jacobians(z, u, dt, L, h=1e-7):
    """Central finite differences of the discrete kinematic step."""

    def f(zz, uu):
        x, y, th, phi = zz
        v, om = uu
        return np.array(
            [
                x + v * math.cos(th) * dt,
                y + v * math.sin(th) * dt,
                th + v * math.tan(phi) / L * dt,
                phi + om * dt,
            ]
        )

    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    A = np.zeros((4, 4))
    B = np.zeros((4, 2))
    for k in range(4):
        dz = np.zeros(4)
        dz[k] = h
        A[:, k] = (f(z + dz, u) - f(z - dz, u)) / (2 * h)
    for k in range(2):
        du = np.zeros(2)
        du[k] = h
        B[:, k] = (f(z, u + du) - f(z, u - du)) / (2 * h)
    return A, B


def fd_disc_jacobian(z, params, h=1e-7):
    """Central finite differences of the state -> disc-center map."""

    def y_of(zz):
        x, y, th, _ = zz
        f = (3.0 * params.L_F - params.L_B) / 4.0
        r = (params.L_F - 3.0 * params.L_B) / 4.0
        return np.array(
            [x + f * math.cos(th), y + f * math.sin(th), x + r * math.cos(th), y + r * math.sin(th)]
        )

    z = np.asarray(z, dtype=float)
    D = np.zeros((4, 4))
    for k in range(4):
        dz = np.zeros(4)
        dz[k] = h
        D[:, k] = (y_of(z + dz) - y_of(z - dz)) / (2 * h)
    return D


def kkt_solve(P, q, A, b):
    """Dense KKT solution of min 1/2 x'Px + q'x  s.t.  Ax = b."""
    n = P.shape[0]
    m = A.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = P
    K[:n, n:] = A.T
    K[n:, :n] = A
    rhs = np.concatenate([-q, b])
    sol = np.linalg.solve(K, rhs)
    return sol[:n], sol[n:]


def reference_admm(qp, warm=None, *, eps_abs=1e-6, eps_rel=1e-6,
                   max_iters=20000, check_every=25):
    """`fleetplan.qp.solve` with its iteration loop written as plain
    expressions: every iterate is a new array and every product is scipy's
    public `@`.  Ordering, band factor, constants, rho schedule and
    termination are the solver's own, so both agree bit for bit."""
    n, m = qp.n, qp.m
    mult = qp.rho_multipliers()
    perm, inv, factor, P, q, A, At = _ordered(qp, mult)

    if m == 0:
        x = dpbtrs(factor(0.0), -q)[0][inv]
        pr, du = kkt_residuals(qp, x, np.zeros(0))
        return QpSolution(x, np.zeros(0), "optimal", pr, du, 1)

    if warm is not None and warm.x.shape[0] == n and warm.y.shape[0] == m:
        x = warm.x[perm]
        y = warm.y.copy()
    else:
        x = np.zeros(n)
        y = np.zeros(m)

    rho_base = _RHO0
    rho = rho_base * mult
    cf = factor(rho_base)
    z = np.clip(A @ x, qp.l, qp.u)

    status = "max_iters"
    iters = max_iters
    for k in range(1, max_iters + 1):
        xt = dpbtrs(cf, _SIGMA * x - q + At @ (rho * z - y))[0]
        zt = A @ xt
        x = _ALPHA * xt + (1.0 - _ALPHA) * x
        z_pre = _ALPHA * zt + (1.0 - _ALPHA) * z
        y_prev = y
        z = np.minimum(np.maximum(z_pre + y / rho, qp.l), qp.u)
        y = y_prev + rho * (z_pre - z)

        if k % check_every:
            continue

        Ax = A @ x
        Px = P @ x
        Aty = At @ y
        r_prim = _ninf(Ax - z)
        r_dual = _ninf(Px + q + Aty)
        eps_p = eps_abs + eps_rel * max(_ninf(Ax), _ninf(z))
        eps_d = eps_abs + eps_rel * max(_ninf(Px), _ninf(Aty), _ninf(q))
        if r_prim <= eps_p and r_dual <= eps_d:
            status = "optimal"
            iters = k
            break
        if _primal_infeasibility_certificate(qp, At, y - y_prev):
            x = x[inv]
            pr, du = kkt_residuals(qp, x, y)
            return QpSolution(x, y, "primal_infeasible", pr, du, k)

        # residual balancing: push rho toward equalizing scaled residuals
        num = r_prim / max(_ninf(Ax), _ninf(z), 1e-12)
        den = r_dual / max(_ninf(Px), _ninf(Aty), _ninf(q), 1e-12)
        ratio = np.sqrt(num / max(den, 1e-18))
        new_base = float(np.clip(rho_base * ratio, _RHO_MIN, _RHO_MAX))
        if new_base > 5.0 * rho_base or new_base < rho_base / 5.0:
            rho_base = new_base
            rho = rho_base * mult
            cf = factor(rho_base)

    x = x[inv]
    pr, du = kkt_residuals(qp, x, y)
    return QpSolution(x, y, status, pr, du, iters)


def rollout_curve(start, segments):
    """Independent curve rollout: rotate about the explicit turn center.

    Segments are (curvature, signed length).  Arcs are replayed by rotating the
    pose around the geometric center of the turning circle, a different route
    from any incremental integration in the library.
    """
    x, y, th = float(start[0]), float(start[1]), float(start[2])
    for seg in segments:
        kappa = seg.curvature
        slen = seg.length
        if kappa == 0.0:
            x += slen * math.cos(th)
            y += slen * math.sin(th)
            continue
        r = 1.0 / kappa
        cx = x - r * math.sin(th)
        cy = y + r * math.cos(th)
        a = kappa * slen
        dx, dy = x - cx, y - cy
        ca, sa = math.cos(a), math.sin(a)
        x = cx + dx * ca - dy * sa
        y = cy + dx * sa + dy * ca
        th += a
    return x, y, th


def rs_lower_bound(start, goal, radius):
    """Any curvature-bounded curve is at least this long.

    Straight-line distance, and radius times the net heading change (heading
    only changes along arcs, each radian of which costs radius of travel).
    """
    d = math.hypot(goal[0] - start[0], goal[1] - start[1])
    dth = (goal[2] - start[2] + math.pi) % (2.0 * math.pi) - math.pi
    return max(d, radius * abs(dth))


def brute_neighbor_pairs(states, params, threshold):
    """O(M^2 T) scan for agent pairs within the given disc distance."""
    M = len(states)
    T = states[0].shape[0]
    out = set()
    for i in range(M):
        for j in range(i + 1, M):
            for t in range(T):
                zi = states[i][t]
                zj = states[j][t]

                class _Z:
                    pass

                a, b = _Z(), _Z()
                a.x, a.y, a.theta = zi[0], zi[1], zi[2]
                b.x, b.y, b.theta = zj[0], zj[1], zj[2]
                if brute_pair_distance(a, b, params) <= threshold:
                    out.add((i, j, t))
    return out


def brute_discs_near_boxes(centers, radius, boxes) -> np.ndarray:
    """Per disc centre (N, 2): does it come closer than radius to a box?

    boxes is a list of (cx, cy, hx, hy); the distance is to the box point
    nearest the centre, found by clamping.
    """
    out = np.zeros(len(centers), dtype=bool)
    for n, (px, py) in enumerate(centers):
        for cx, cy, hx, hy in boxes:
            qx = min(max(px, cx - hx), cx + hx)
            qy = min(max(py, cy - hy), cy + hy)
            if (px - qx) ** 2 + (py - qy) ** 2 < radius * radius:
                out[n] = True
    return out


def brute_discs_off_map(centers, radius, width, height, eps=1e-9) -> np.ndarray:
    """Per disc centre (N, 2): does the disc reach past a map edge by more
    than eps?"""
    return np.array([min(px, py, width - px, height - py) < radius - eps
                     for px, py in centers], dtype=bool)


def brute_discs_hit_discs(centers_a, centers_b, radius) -> np.ndarray:
    """(N, K): is any of the four centre pairs of a[n] and b[k] closer than 2 r?"""
    out = np.zeros((len(centers_a), len(centers_b)), dtype=bool)
    for n, ca in enumerate(centers_a):
        for k, cb in enumerate(centers_b):
            for ax, ay in ca:
                for bx, by in cb:
                    if (ax - bx) ** 2 + (ay - by) ** 2 < (2.0 * radius) ** 2:
                        out[n, k] = True
    return out


def brute_flood(width, height, cell, boxes, goal_ij) -> np.ndarray:
    """8-connected grid distances in meters from the goal cell, by Dijkstra.
    A cell is blocked when its centre lies in some box, edges included,
    tested one box and one cell at a time; the goal cell is never blocked."""
    nx = max(1, math.ceil(width / cell))
    ny = max(1, math.ceil(height / cell))
    blocked = np.zeros((nx, ny), dtype=bool)
    for cx, cy, hx, hy in boxes:
        for i in range(nx):
            for j in range(ny):
                if point_in_box((i + 0.5) * cell, (j + 0.5) * cell, cx, cy, hx, hy, 0.0):
                    blocked[i, j] = True
    blocked[goal_ij] = False
    dist = np.full((nx, ny), np.inf)
    dist[goal_ij] = 0.0
    heap = [(0.0, goal_ij)]
    while heap:
        d, (i, j) = heapq.heappop(heap)
        if d > dist[i, j]:
            continue
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ii, jj = i + di, j + dj
                if (di or dj) and 0 <= ii < nx and 0 <= jj < ny and not blocked[ii, jj]:
                    nd = d + cell * math.hypot(di, dj)
                    if nd < dist[ii, jj]:
                        dist[ii, jj] = nd
                        heapq.heappush(heap, (nd, (ii, jj)))
    return dist


def _point_segment_distance(px, py, ax, ay, bx, by) -> float:
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    s = 0.0 if den == 0.0 else min(max(((px - ax) * dx + (py - ay) * dy) / den, 0.0), 1.0)
    return math.hypot(px - (ax + s * dx), py - (ay + s * dy))


def brute_box_aabb_distance(lo, hi, cx, cy, hx, hy) -> float:
    """Distance between the box [lo[0], hi[0]] x [lo[1], hi[1]] and the box
    centred at (cx, cy) with half extents (hx, hy), either possibly flat.

    Zero when the closed boxes meet; otherwise the least distance from a
    corner of either box to an edge of the other, which is where two
    disjoint convex polygons come closest.
    """
    a = [(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])]
    b = [(cx - hx, cy - hy), (cx + hx, cy - hy), (cx + hx, cy + hy), (cx - hx, cy + hy)]
    if lo[0] <= cx + hx and cx - hx <= hi[0] and lo[1] <= cy + hy and cy - hy <= hi[1]:
        return 0.0
    return min(_point_segment_distance(*p, *q[k], *q[(k + 1) % 4])
               for p_set, q in ((a, b), (b, a)) for p in p_set for k in range(4))


def _seed_grow(u0, u1, v_start, v_limit, ocu, ocv, hu, hv, r):
    """One seed's growth of one box edge, obstacle by obstacle in numpy."""
    if ocu.size == 0:
        return max(v_start, v_limit)
    du = np.maximum(np.maximum(u0 - (ocu + hu), (ocu - hu) - u1), 0.0)
    near = du < r
    if not near.any():
        return max(v_start, v_limit)
    lift = np.sqrt(np.maximum(r * r - du[near] ** 2, 0.0))
    vlo = ocv[near] - hv[near] - lift
    binding = vlo >= v_start - 1e-9
    if not binding.any():
        return max(v_start, v_limit)
    return max(v_start, min(v_limit, float(vlo[binding].min())))


def disc_blocked(px, py, map_wh, obstacles, r) -> bool:
    """The clearance rule for one disc, one box at a time: does the disc of
    radius r at (px, py) reach past the map by more than 1e-9, or come closer
    than r to a box?  A disc that touches a box is clear."""
    w, h = map_wh
    if px < r - 1e-9 or px > w - r + 1e-9 or py < r - 1e-9 or py > h - r + 1e-9:
        return True
    for cx, cy, hx, hy in zip(*obstacles):
        gx = max(abs(px - cx) - hx, 0.0)
        gy = max(abs(py - cy) - hy, 0.0)
        if gx * gx + gy * gy < r ** 2:
            return True
    return False


def loop_relocate(p, map_wh, obstacles, r, extent):
    """Reference seed relocation, one candidate at a time; None where no
    candidate is clear.  p is projected onto the map eroded by r.  If its disc
    is still blocked, the candidates lie on circles around the nearest
    obstacle, from its circumscribed circle plus 1e-6 outward in steps of
    r / 4 up to extent beyond it; on each circle at the angle from the
    obstacle centre to the point, then at +-1, +-2, ..., +-11 steps of pi / 12
    (+ before -).  The first clear candidate wins."""
    w, h = map_wh
    acx, acy, ahx, ahy = obstacles
    px = min(max(float(p[0]), r), w - r)
    py = min(max(float(p[1]), r), h - r)
    if not disc_blocked(px, py, map_wh, obstacles, r):
        return np.array([px, py])
    if acx.size == 0:
        return None
    gaps = [np.hypot(max(abs(px - cx) - hx, 0.0), max(abs(py - cy) - hy, 0.0))
            for cx, cy, hx, hy in zip(*obstacles)]
    k = gaps.index(min(gaps))
    circ = math.hypot(ahx[k], ahy[k]) + r
    base = math.atan2(py - acy[k], px - acx[k])
    if math.hypot(px - acx[k], py - acy[k]) < 1e-9:
        base = 0.0
    turns = [0] + [j * s for j in range(1, 12) for s in (1, -1)]
    radius = circ + 1e-6
    while radius <= circ + extent:
        for j in turns:
            ang = base + j * (math.pi / 12.0)
            qx = acx[k] + radius * np.cos(ang)
            qy = acy[k] + radius * np.sin(ang)
            if not disc_blocked(qx, qy, map_wh, obstacles, r):
                return np.array([qx, qy])
        radius += 0.25 * r
    return None


def loop_corridor(seeds, map_wh, obstacles, r, extent, relocate):
    """Reference corridor boxes (lo, hi), each (T, 4): the seeds (T, 2, 2)
    are tested and grown one at a time, up, right, down, left, in the
    floating-point operations of the batched growth, so both agree bit for
    bit.  A seed whose disc is blocked (`disc_blocked`) goes through
    relocate(p, map_wh, obstacles, r)."""
    w, h = map_wh
    acx, acy, ahx, ahy = obstacles
    T = seeds.shape[0]
    lo = np.empty((T, 4))
    hi = np.empty((T, 4))
    for t in range(T):
        for d in (0, 1):
            p = seeds[t, d]
            if disc_blocked(p[0], p[1], map_wh, obstacles, r):
                p = relocate(p, map_wh, obstacles, r)
            x0 = x1 = float(p[0])
            y0 = y1 = float(p[1])
            y1 = _seed_grow(x0, x1, y1, min(h - r, p[1] + extent), acx, acy, ahx, ahy, r)
            x1 = _seed_grow(y0, y1, x1, min(w - r, p[0] + extent), acy, acx, ahy, ahx, r)
            y0 = -_seed_grow(x0, x1, -y0, min(-r, -(p[1] - extent)), acx, -acy, ahx, ahy, r)
            x0 = -_seed_grow(y0, y1, -x0, min(-r, -(p[0] - extent)), acy, -acx, ahy, ahx, r)
            lo[t, 2 * d:2 * d + 2] = (x0, y0)
            hi[t, 2 * d:2 * d + 2] = (x1, y1)
    return lo, hi
