"""Sequential convex refinement of coarse multi-vehicle plans.

The coarse search output is only resolution-feasible: between its samples the
vehicles may brush each other (type A), clip obstacles (type B), or poke out
of the map (type C).  This module interpolates the coarse plan onto a fine
uniform time grid, splits the joint problem into independent per-agent QPs
(separating planes between neighbors, trust regions, axis-aligned corridors),
and iterates the QPs until the independent validator accepts the rolled-out
plan.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import (
    VehicleParams,
    advance_arc,
    box_gaps,
    disc_centers_arr,
    discs_blocked,
    euler_increment,
    euler_step,
    map_bounds,
    pair_clearances,
)
from .instance import MvtpInstance, Plan, validate_plan
from .qp import QpProblem, solve as qp_solve

_SQRT2 = math.sqrt(2.0)
# math.hypot, not np.hypot: the two differ in the last bit on about 1 in 200
# vectors, and math.hypot keeps the planes, the QPs and the pinned results
# bit-identical
_hypot = np.vectorize(math.hypot, otypes=[float])

N_INTERP = 3                  # points inserted per coarse segment
R_TRUST = 0.6                 # trust-region half-width per disc coordinate [m]
ALPHA_V = 1.0                 # cost weight of speed changes
ALPHA_OMEGA = 1.0             # cost weight of steering rates
CORRIDOR_MAX_EXTENT = 10.0    # furthest a corridor edge grows from its seed [m]
MAX_SQP_ITERS = 10            # cap on SQP rounds
CONVERGENCE_TOL = 1e-3        # stop once a round moves the iterate < this * sqrt(#variables)


def _clip(x, lo, hi):
    return lo if x < lo else hi if x > hi else x


class RelocationError(RuntimeError):
    """No safe position found for a corridor seed point.  `build_corridor`
    sets `index`, the seed's (..., t, disc) index in its stacked states."""

    index: tuple = ()


def interpolate(trajs_by_id, order, params: VehicleParams):
    """Resample each coarse trajectory along its exact arcs.

    Returns (states (M, T, 4), controls (M, T-1, 2), dt), one row per agent
    id of order.  Every coarse segment is split into N_INTERP+1 sub-steps of
    duration dt = quantum/(N_INTERP+1); all agents are padded to the longest
    horizon by parking at their final pose.  Headings are kept unwrapped
    (continuous along each trajectory) so that the later linearizations never
    see artificial 2*pi jumps.
    """
    trajs = [trajs_by_id[a] for a in order]
    quantum = trajs[0].quantum
    sub = N_INTERP + 1
    dt = quantum / sub
    T = max(tr.horizon for tr in trajs) * sub + 1
    M = len(trajs)
    states = np.zeros((M, T, 4))
    controls = np.zeros((M, max(T - 1, 0), 2))

    for m, tr in enumerate(trajs):
        x, y, th = (float(tr.states[0, 0]), float(tr.states[0, 1]),
                    float(tr.states[0, 2]))
        states[m, 0, :3] = (x, y, th)
        idx = 0
        for seg in tr.segments:
            step = seg.length / sub
            v = seg.direction * step / dt
            kappa = math.tan(seg.steer) / params.L
            x0, y0, th0 = x, y, th
            for j in range(sub):
                controls[m, idx, 0] = v
                states[m, idx, 3] = 0.0 if seg.is_wait else seg.steer
                x, y, th = advance_arc(x0, y0, th0, kappa,
                                       seg.direction * ((j + 1) * step))
                idx += 1
                states[m, idx, :3] = (x, y, th)
        if idx + 1 < T:
            states[m, idx + 1:] = states[m, idx]
        # steering rate implied by the phi profile (spikes at segment joints
        # are fine: this is a linearization point, not a feasible plan)
        if T > 1:
            controls[m, :, 1] = np.diff(states[m, :, 3]) / dt
    return states, controls, dt


def _track_guess(states, controls, dt, params: VehicleParams):
    """Re-drive one sampled trajectory with the discrete Euler model.

    The interpolated guess is arc-exact, starts mid-steer and switches phi
    instantaneously between segments, none of which the Euler recursion with
    box-limited controls can reproduce.  Instead of chasing samples with a
    feedback tracker, replay the guess's own piecewise-constant controls:
    nominal speed per step, nominal steer smoothed into rate-feasible ramps
    centered on each segment junction (a centered ramp cancels the heading
    error of the swing to second order), pre-wound through rest spans.  A
    small-gain lateral/heading regulator rides on top to bleed off the
    residual drift; it is weak enough never to fight the feedforward.

    What the result guarantees: it is dynamically exact by construction, each
    state the Euler step of the one before (a valid linearization point with
    no defect to absorb); its speed, steering rate and steer stay in their
    boxes; and it starts exactly at the start pose, at zero steer.  Its end
    is not bounded: the drift it leaves may put the end more than R_TRUST
    from the goal in some disc coordinate (misses of 0.65-1.32 m have been
    measured on 30 m random instances), and then the agent's QP, whose trust
    region is anchored here and whose goal rows are equalities, is infeasible.
    """
    T = states.shape[0]
    out_s = states.copy()
    out_u = controls.copy()
    n = T - 1
    L = params.L
    vmax, wmax, pmax = params.v_max, params.omega_max, params.phi_max
    rate = wmax * dt

    v_nom = np.clip(controls[:, 0], -vmax, vmax)
    moving = np.abs(v_nom) > 1e-9
    # steer per step: segment steer while moving, next segment's steer
    # carried backward through rest spans (pre-wind; trailing rest holds 0)
    prof = np.clip(states[:n, 3], -pmax, pmax)
    carry = 0.0
    for t in range(n - 1, -1, -1):
        if moving[t]:
            carry = prof[t]
        else:
            prof[t] = carry
    # center a rate-limited ramp on every junction between moving steps;
    # segments span several steps while ramps span at most wmax/phi-swing
    # of them, so ramps never collide
    ff = prof.copy()
    for J in range(1, n):
        a, b = prof[J - 1], prof[J]
        if a == b or not (moving[J - 1] and moving[J]):
            continue
        sg = 1.0 if b > a else -1.0
        span = (b - a) / (sg * rate)
        t0 = J - 0.5 * span
        lo = max(0, int(math.floor(t0)) - 1)
        hi = min(n, int(math.ceil(t0 + span)) + 1)
        for t in range(lo, hi):
            ff[t] = a + sg * rate * _clip(t - t0, 0.0, span)

    x, y = float(states[0, 0]), float(states[0, 1])
    th, ph = float(states[0, 2]), 0.0
    for t in range(n):
        v = float(v_nom[t])
        fb = 0.0
        if moving[t]:
            # error in the frame of the time-matched guess pose; reverse
            # motion flips the sign of the heading damping term
            cth, sth = math.cos(states[t, 2]), math.sin(states[t, 2])
            lat = -sth * (x - states[t, 0]) + cth * (y - states[t, 1])
            eth = math.remainder(th - states[t, 2], 2.0 * math.pi)
            s = 1.0 if v > 0.0 else -1.0
            fb = _clip(-0.12 * lat - s * 0.5 * eth, -0.2, 0.2)
        want = (ff[min(t + 1, n - 1)] if t + 1 < n else 0.0) + fb
        ph_next = _clip(_clip(want, -pmax, pmax), ph - rate, ph + rate)
        out_s[t] = (x, y, th, ph)
        out_u[t] = (v, (ph_next - ph) / dt)
        x, y, th, _ = euler_step(out_s[t], out_u[t], dt, L)
        ph = ph_next
    out_s[T - 1] = (x, y, th, ph)
    return out_s, out_u


# ---------------------------------------------------------------------------
# neighbor pairs and separating planes


def find_neighbor_pairs(states, params: VehicleParams):
    """Index arrays (i, j, t), agent indices i < j, of every pair whose disc
    clearance at time index t is at most 2*sqrt(2)*R_TRUST, in sorted order."""
    i, j, d = pair_clearances(disc_centers_arr(states, params))
    p, t = np.nonzero(d - 2.0 * params.disc_radius <= 2.0 * _SQRT2 * R_TRUST)
    return i[p], j[p], t


def build_separation(pairs, states, params: VehicleParams) -> list:
    """Perpendicular-bisector planes for every neighbor pair and disc pair,
    offset by the disc radius toward the owning agent; each agent of the pair
    gets the mirrored constraint, so the planes partition the gap.

    Returns one (K, 5) array per agent index, rows (t, disc, nx, ny, rhs) in
    pair order (pair, disc of i, disc of j), each meaning
    nx*Y[disc].x + ny*Y[disc].y <= rhs at time index t.
    """
    i, j, t = pairs
    discs = disc_centers_arr(states, params)   # (M, T, 2, 2)
    a = discs[i, t][:, :, None]                # (P, 2, 1, 2): disc of i, P pairs
    b = discs[j, t][:, None, :]                # (P, 1, 2, 2): disc of j
    n = b - a                                  # (P, 2, 2, 2)
    # coincident centers: fall back to the rear-axle bisector, then to an
    # arbitrary 1e-3 jitter direction
    for fallback in ((states[j, t, :2] - states[i, t, :2])[:, None, None], [1e-3, 0.0]):
        n = np.where(_hypot(n[..., 0], n[..., 1])[..., None] < 1e-9, fallback, n)
    u = n / _hypot(n[..., 0], n[..., 1])[..., None]
    rhs = (u * (0.5 * (a + b))).sum(-1)
    tt, di, dj = np.broadcast_arrays(t[:, None, None], *np.indices((2, 2)), rhs)[:3]
    offset = params.disc_radius
    rows = np.stack([np.stack([tt, di, u[..., 0], u[..., 1], rhs - offset], -1),
                     np.stack([tt, dj, -u[..., 0], -u[..., 1], -rhs - offset], -1)], 1)
    owner = np.stack([i, j], 1)
    return [rows[owner == m].reshape(-1, 5) for m in range(states.shape[0])]


# ---------------------------------------------------------------------------
# corridors


def relocate_unsafe_point(p, map_wh, obstacles, r):
    """Move a corridor seed into free eroded space.

    Off-map points are projected onto the eroded boundary.  A point still
    blocked is pushed radially out of the nearest obstacle's circumscribed
    circle; if other obstacles still block it, the point is rotated around the
    obstacle center in +-1, +-2, ... fixed angular increments at escalating
    radii, up to CORRIDOR_MAX_EXTENT beyond the circle; the first clear one wins.
    obstacles are the stacked boxes of `MvtpInstance.obstacle_boxes`.
    """
    w, h = map_wh
    bounds = map_bounds(r, w, h)
    centers, halves = obstacles
    q = np.array([min(max(float(p[0]), r), w - r), min(max(float(p[1]), r), h - r)])
    if not discs_blocked(q, r, bounds, obstacles):
        return q
    if centers.shape[1]:
        k = int(np.argmin(np.hypot(*box_gaps(q[:, None], *obstacles)[:, :, 0])))
        (bx, by), (hx, hy) = centers[:, k], halves[:, k]
        circ = math.hypot(hx, hy) + r
        base = math.atan2(q[1] - by, q[0] - bx)
        if math.hypot(q[0] - bx, q[1] - by) < 1e-9:
            base = 0.0
        steps = np.arange(1, 12)
        offs = np.concatenate([[0.0], np.stack([steps, -steps], 1).ravel() * (math.pi / 12.0)])
        radius = circ + 1e-6
        while radius <= circ + CORRIDOR_MAX_EXTENT:
            ang = base + offs
            cand = np.stack([bx + radius * np.cos(ang), by + radius * np.sin(ang)], 1)
            free = np.flatnonzero(~discs_blocked(cand, r, bounds, obstacles))
            if free.size:
                return cand[free[0]]
            radius += 0.25 * r
    raise RelocationError(f"no safe relocation near ({p[0]:.2f}, {p[1]:.2f})")


def _grow(u0, u1, v_start, v_limit, ocu, ocv, hu, hv, r):
    """Per seed, the largest v_hi <= v_limit keeping the box [u0,u1] x [.., v_hi]
    clear of every obstacle dilated by r, growing from the current edge
    v_start; seed arrays (S,), obstacle arrays (K,).

    The entry box is clear, so an obstacle binds only when its dilated
    content inside the strip lies wholly at or beyond v_start; grazing
    contact points inside the box's own range (left by a previous growth
    direction capping exactly on a boundary) must not bind."""
    reach = v_limit
    if ocu.size:
        du = np.maximum(np.maximum(u0[:, None] - (ocu + hu), (ocu - hu) - u1[:, None]), 0.0)
        lift = np.sqrt(np.maximum(r * r - du ** 2, 0.0))
        vlo = (ocv - hv) - lift
        binding = (du < r) & (vlo >= v_start[:, None] - 1e-9)
        reach = np.minimum(v_limit, np.where(binding, vlo, np.inf).min(axis=1))
    return np.maximum(v_start, reach)


@dataclass
class CorridorBoxes:
    """Axis-aligned bounds on the disc-center vector Y=[xF,yF,xR,yR]; a
    stacked corridor's element i is agent i's."""

    lo: np.ndarray   # (..., T, 4)
    hi: np.ndarray   # (..., T, 4)

    def __getitem__(self, i) -> CorridorBoxes:
        return CorridorBoxes(self.lo[i], self.hi[i])


def build_corridor(states, instance: MvtpInstance) -> CorridorBoxes:
    """One safe box per timestamp and disc around the current iterate.

    Starting from the (relocated) disc center, the box edges are extended
    clockwise — up, right, down, left — until a dilated obstacle, the eroded
    map boundary, or CORRIDOR_MAX_EXTENT stops them.  Every seed of the
    (..., T, 4) states (one per time and disc, of every agent when they are
    stacked) grows in the same pass, one pass per direction; each seed's box
    is the one it gets alone.  Seeds are relocated in index order, and a
    RelocationError carries the index of the first that cannot be.
    """
    params = instance.vehicle
    r = params.disc_radius
    obs = instance.obstacle_boxes()
    (acx, acy), (ahx, ahy) = obs
    wh = instance.map_width, instance.map_height
    w, h = wh
    ext = CORRIDOR_MAX_EXTENT
    states = np.asarray(states)
    seeds = disc_centers_arr(states, params).reshape(-1, 2)   # (... 2T, 2)
    for s in np.nonzero(discs_blocked(seeds, r, map_bounds(r, w, h), obs))[0]:
        try:
            seeds[s] = relocate_unsafe_point(seeds[s], wh, obs, r)
        except RelocationError as exc:
            exc.index = np.unravel_index(s, (*states.shape[:-1], 2))
            raise
    px, py = seeds[:, 0], seeds[:, 1]
    y1 = _grow(px, px, py, np.minimum(h - r, py + ext), acx, acy, ahx, ahy, r)
    x1 = _grow(py, y1, px, np.minimum(w - r, px + ext), acy, acx, ahy, ahx, r)
    y0 = -_grow(px, x1, -py, np.minimum(-r, -(py - ext)), acx, -acy, ahx, ahy, r)
    x0 = -_grow(y0, y1, -px, np.minimum(-r, -(px - ext)), acy, -acx, ahy, ahx, r)
    shape = (*states.shape[:-1], 4)
    return CorridorBoxes(np.stack([x0, y0], 1).reshape(shape),
                         np.stack([x1, y1], 1).reshape(shape))


# ---------------------------------------------------------------------------
# linearization


@dataclass
class LinearDynamics:
    """The affine models at an iterate; a stacked model's element i is
    agent i's."""

    A: np.ndarray   # (..., T-1, 4, 4) state Jacobians
    B: np.ndarray   # (..., T-1, 4, 2) control Jacobians
    c: np.ndarray   # (..., T-1, 4)    Taylor remainders
    D: np.ndarray   # (..., T, 4, 4)   state -> disc-center Jacobians
    e: np.ndarray   # (..., T, 4)      disc-map remainders

    def __getitem__(self, i) -> LinearDynamics:
        return LinearDynamics(self.A[i], self.B[i], self.c[i], self.D[i], self.e[i])


def linearize_dynamics(states, controls, params: VehicleParams, dt) -> LinearDynamics:
    """Exact Jacobians of the Euler step and of the state->disc map at the
    iterate, with remainders chosen so the affine models reproduce the
    nonlinear maps exactly at the linearization point.  States (..., T, 4)
    and controls (..., T-1, 2) may carry leading agent axes."""
    z = np.asarray(states, dtype=float)
    u = np.asarray(controls, dtype=float)
    lead, T = z.shape[:-2], z.shape[-2]
    L = params.L
    th, ph, v = z[..., :-1, 2], z[..., :-1, 3], u[..., 0]
    A = np.tile(np.eye(4), (*lead, T - 1, 1, 1))
    A[..., 0, 2] = -v * np.sin(th) * dt
    A[..., 1, 2] = v * np.cos(th) * dt
    A[..., 2, 3] = v * dt / (L * np.cos(ph) ** 2)
    B = np.zeros((*lead, T - 1, 4, 2))
    B[..., 0, 0] = np.cos(th) * dt
    B[..., 1, 0] = np.sin(th) * dt
    B[..., 2, 0] = np.tan(ph) / L * dt
    B[..., 3, 1] = dt
    f = euler_step(z[..., :-1, :], u, dt, L)
    c = (f - np.einsum("...ij,...j->...i", A, z[..., :-1, :])
         - np.einsum("...ij,...j->...i", B, u))

    tha = z[..., 2]
    fo, ro = params.front_disc_offset, params.rear_disc_offset
    D = np.zeros((*lead, T, 4, 4))
    D[..., 0, 0] = D[..., 1, 1] = D[..., 2, 0] = D[..., 3, 1] = 1.0
    D[..., 0, 2] = -fo * np.sin(tha)
    D[..., 1, 2] = fo * np.cos(tha)
    D[..., 2, 2] = -ro * np.sin(tha)
    D[..., 3, 2] = ro * np.cos(tha)
    Y = disc_centers_arr(z, params).reshape(*lead, T, 4)
    e = Y - np.einsum("...ij,...j->...i", D, z)
    return LinearDynamics(A, B, c, D, e)


# ---------------------------------------------------------------------------
# per-agent QP


def assemble_qp(start, goal, states, lin: LinearDynamics,
                corridor: CorridorBoxes, planes, Y0, params: VehicleParams,
                vbar0: float):
    """Quadratic subproblem for one agent at the current iterate.

    Decision vector, time-major: z_t at columns 6t..6t+3, u_t at 6t+4 and
    6t+5, z_{T-1} last.  Returns None when the corridor/trust intersection
    is empty (the iterate has been squeezed out).
    Constraint rows, in order: linearized dynamics equalities, start and goal
    equalities, control boxes, steering-angle boxes, disc boxes (corridor
    intersected with the trust region), separating planes.  Each row touches
    one stage t only, so it is stored as its stage and a window of 10
    coefficients on the columns 6t..6t+9 (z_t, u_t, z_{t+1}).  A holds only
    the windows' nonzeros: a dynamics row's nonzeros lie at most 6 columns
    apart, so the QP is banded as built (half-width 6), where the zeros of
    the full window would widen the band to 9.
    """
    z = np.asarray(states, dtype=float)
    T = z.shape[0]
    n = 6 * T - 2
    ts = np.arange(T)
    uc = 6 * ts[:-1, None] + 4 + np.arange(2)   # (T-1, 2) control columns

    ylo = np.maximum(corridor.lo, Y0 - R_TRUST)
    yhi = np.minimum(corridor.hi, Y0 + R_TRUST)
    gap = ylo - yhi
    if np.any(gap > 1e-9):
        return None
    mid = 0.5 * (ylo + yhi)
    tight = gap > 0
    ylo[tight] = mid[tight]
    yhi[tight] = mid[tight]

    # objective: ALPHA_V [(v_0 - vbar0)^2 + sum (v_{t+1} - v_t)^2]
    # + ALPHA_OMEGA sum omega_t^2, less its constant ALPHA_V vbar0^2; v_t and
    # v_{t+1} sit 6 columns apart
    main = np.zeros(n)
    main[uc[:, 0]] = 4.0 * ALPHA_V
    main[uc[-1, 0]] = 2.0 * ALPHA_V
    main[uc[:, 1]] = 2.0 * ALPHA_OMEGA
    off = np.zeros(n - 6)
    off[uc[:-1, 0]] = -2.0 * ALPHA_V
    P = sp.diags([off, main, off], [-6, 0, 6], format="csc")
    q = np.zeros(n)
    q[uc[0, 0]] = -2.0 * ALPHA_V * vbar0

    # (stage, lower, upper) of each row group; the goal heading is lifted to
    # the iterate's branch, and plane row (t, disc, nx, ny, rhs) bounds
    # nx*Y[2 disc] + ny*Y[2 disc + 1] at time index t
    g_th = goal[2] + 2.0 * math.pi * round((z[-1, 2] - goal[2]) / (2.0 * math.pi))
    bc = np.array([start[0], start[1], start[2], 0.0, goal[0], goal[1], g_th, 0.0])
    cb = np.tile([params.v_max, params.omega_max], T - 1)
    t, d = planes[:, 0].astype(int), 2 * planes[:, 1].astype(int)
    ux, uy = planes[:, 2:3], planes[:, 3:4]
    groups = [
        (np.repeat(ts[:-1], 4), lin.c.ravel(), lin.c.ravel()),                # dynamics
        (np.repeat([0, T - 1], 4), bc, bc),                                   # endpoints
        (np.repeat(ts[:-1], 2), -cb, cb),                                     # controls
        (ts, np.full(T, -params.phi_max), np.full(T, params.phi_max)),        # steering
        (np.repeat(ts, 4), (ylo - lin.e).ravel(), (yhi - lin.e).ravel()),     # disc boxes
        (t, np.full(len(t), -np.inf),                                         # planes
         planes[:, 4] - ux[:, 0] * lin.e[t, d] - uy[:, 0] * lin.e[t, d + 1]),
    ]
    stage, lb, ub = (np.concatenate(g) for g in zip(*groups))
    W = np.zeros((stage.size, 10))
    dyn, ends, ctl, steer, box, sep = np.split(W, np.cumsum([g[0].size for g in groups[:-1]]))
    dyn = dyn.reshape(T - 1, 4, 10)   # row-block views of W
    dyn[:, :, :4] = -lin.A
    dyn[:, :, 4:6] = -lin.B
    dyn[:, :, 6:] = np.eye(4)
    ends.reshape(2, 4, 10)[:, :, :4] = np.eye(4)
    ctl.reshape(T - 1, 2, 10)[:, :, 4:6] = np.eye(2)
    steer[:, 3] = 1.0
    box.reshape(T, 4, 10)[:, :, :4] = lin.D
    sep[:, :4] = ux * lin.D[t, d] + uy * lin.D[t, d + 1]

    r, c = np.nonzero(W)
    A = sp.csc_matrix((W[r, c], (r, 6 * stage[r] + c)), shape=(stage.size, n))
    return QpProblem(P, q, A, lb, ub)


def _unpack(x, T):
    """(states (T, 4), controls (T-1, 2)) of `assemble_qp`'s time-major x."""
    steps = x[:-4].reshape(T - 1, 6)
    return np.vstack([steps[:, :4], x[-4:]]), steps[:, 4:]


# ---------------------------------------------------------------------------
# exact rollout and the SQP loop


def rollout_controls(start, controls, params: VehicleParams, dt):
    """Integrate the clipped controls exactly from the start pose.

    Clipping keeps v and omega inside their boxes and prevents phi from
    leaving its range, so the produced plan is consistent with the verifier's
    step check by construction.  v and omega are clipped to their boxes as
    whole arrays; only the phi clip runs step by step, since each reads the
    phi before it.  phi, then theta, then x and y are running sums of
    whole-array `euler_increment`s, added in step order, so the result is
    bit for bit the state-by-state `euler_step` recursion's.
    """
    vmax, wmax, pmax = params.v_max, params.omega_max, params.phi_max
    u = np.clip(np.array(controls, dtype=float).reshape(-1, 2), [-vmax, -wmax], [vmax, wmax])
    w = u[:, 1].tolist()
    ph = 0.0
    for t, wt in enumerate(w):
        w[t] = wt = _clip(wt, (-pmax - ph) / dt, (pmax - ph) / dt)
        ph = ph + wt * dt   # euler_increment's phi column
    u[:, 1] = w
    z = np.zeros((len(u) + 1, 4))
    z[0] = (start[0], start[1], start[2], 0.0)
    for c in (slice(3, 4), slice(2, 3), slice(0, 2)):
        z[1:, c] = euler_increment(z[:-1], u, dt, params.L)[:, c]
        np.cumsum(z[:, c], axis=0, out=z[:, c])
    return z, u


@dataclass
class RefineTelemetry:
    iterations: int = 0
    residuals: list = field(default_factory=list)
    qp_time_s: float = 0.0
    # (agent, iteration, reason): "empty_box" when the corridor and trust
    # region leave no room, else the QP status that was not "optimal"
    qp_rejections: list = field(default_factory=list)
    failure: dict | None = None


@dataclass
class RefineResult:
    status: str            # ok | qp_infeasible | relocation_failed | not_feasible | timeout
    plan: Plan | None
    telemetry: RefineTelemetry

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def sqp_refine(trajs_by_id, instance: MvtpInstance, deadline=math.inf) -> RefineResult:
    """Iterate per-agent QPs until the rolled-out plan verifies.

    Separating planes and trust regions are anchored at the `_track_guess`
    Euler re-drive of the interpolated guess, padded with rest steps at the
    goal; corridors and linearizations are rebuilt from the current iterate
    each round.  Within a round every agent's QP depends on the last round
    only, so the corridors and linearizations of all agents, rejected ones
    included (their rows rebuild unchanged), are built in one stacked call
    each; the QPs are then assembled and solved one at a time, in agent
    order.  A seed that cannot be relocated ends the round before its QPs,
    naming the first agent in agent order that owns such a seed.  Stops on
    verifier acceptance, iterate convergence (CONVERGENCE_TOL) or
    MAX_SQP_ITERS; only a verifier-clean plan counts.

    It also stops, `qp_infeasible`, once a round's report holds a violation
    that involves rejected agents only: a per-agent violation of a rejected
    agent, or an `inter_agent` one between two.  A rejected agent's controls
    never change again and its rollout reads nothing else, so every later
    round would report that violation too and none could verify; the status
    and the failure (the first rejection) are those the remaining rounds
    would end with, and the QPs solved are the first of theirs.  The two
    outcomes those rounds could still reach, a later `relocation_failed` or
    `timeout`, are given up for the earlier `qp_infeasible`.
    """
    params = instance.vehicle
    tele = RefineTelemetry()
    order = [a.id for a in instance.agents]
    states, controls, dt = interpolate(trajs_by_id, order, params)
    M, T = states.shape[:2]
    guess = Plan(states=list(states), controls=list(controls), dt=dt, tau_f=(T - 1) * dt)
    if validate_plan(instance, guess).feasible:
        return RefineResult("ok", guess, tele)

    # one extra quantum parked at the goal: the rollout below may land a hair
    # off, and the rest steps give the QP two-sided reach to close that gap
    pad = N_INTERP + 1
    states = np.concatenate([states, np.repeat(states[:, -1:], pad, axis=1)], axis=1)
    controls = np.concatenate([controls, np.zeros((M, pad, 2))], axis=1)
    T = states.shape[1]

    # linearize around an Euler re-drive of the guess: box-feasible controls,
    # exact start pose, no dynamics defect at any step
    base_s = np.empty_like(states)
    base_u = np.empty_like(controls)
    for m in range(M):
        base_s[m], base_u[m] = _track_guess(states[m], controls[m], dt, params)

    planes = build_separation(find_neighbor_pairs(base_s, params), base_s, params)
    Y0 = disc_centers_arr(base_s, params).reshape(M, T, 4)

    eps = CONVERGENCE_TOL * math.sqrt(M * (6 * T - 2))

    cur_s = base_s
    cur_u = base_u
    # agent index -> reason of its rejected QP.  The QP depends only on the
    # agent's own iterate, planes and Y0 row, none of which a rejection
    # changes, so every later round would reach the same verdict.
    rejected = {}

    def fail(status, agent, k, reason):
        tele.failure = {"reason": reason, "agent": agent, "iteration": k}
        return RefineResult(status, None, tele)

    for k in range(MAX_SQP_ITERS):
        if time.monotonic() > deadline:
            return fail("timeout", None, k, "deadline exceeded")
        new_s, new_u = cur_s.copy(), cur_u.copy()
        # each QP reads only the last round's iterate: one corridor and one
        # linearization pass over the stacked iterates of all agents
        try:
            corridors = build_corridor(cur_s, instance)
        except RelocationError as exc:
            return fail("relocation_failed", order[exc.index[0]], k, str(exc))
        lins = linearize_dynamics(cur_s, cur_u, params, dt)
        for m, task in enumerate(instance.agents):
            aid = task.id
            if m in rejected:
                tele.qp_rejections.append((aid, k, rejected[m]))
                continue
            qp = assemble_qp(task.start.as_array(), task.goal.as_array(),
                             cur_s[m], lins[m], corridors[m], planes[m], Y0[m], params,
                             vbar0=float(cur_u[m, 0, 0]))
            if qp is None:
                sol = None
            else:
                t0 = time.monotonic()
                sol = qp_solve(qp)
                tele.qp_time_s += time.monotonic() - t0
            if sol is None or sol.status != "optimal":
                # an over-constrained or unconverged agent keeps its iterate
                rejected[m] = "empty_box" if sol is None else sol.status
                tele.qp_rejections.append((aid, k, rejected[m]))
                continue
            new_s[m], new_u[m] = _unpack(sol.x, T)
        resid = float(np.sqrt(((new_s - cur_s) ** 2).sum()
                              + ((new_u - cur_u) ** 2).sum()))
        tele.residuals.append(resid)
        tele.iterations = k + 1
        cur_s, cur_u = new_s, new_u

        zs, us = zip(*(rollout_controls(task.start.as_array(), cur_u[m], params, dt)
                       for m, task in enumerate(instance.agents)))
        plan = Plan(states=list(zs), controls=list(us), dt=dt, tau_f=(T - 1) * dt)
        violations = validate_plan(instance, plan).violations
        if not violations:
            return RefineResult("ok", plan, tele)
        # a violation among rejected agents alone recurs in every later round
        frozen = {order[m] for m in rejected}
        decided = any(v.agent in frozen and (v.kind != "inter_agent" or v.partner in frozen)
                      for v in violations)
        if resid < eps or decided:
            break
    if tele.qp_rejections:
        return fail("qp_infeasible", *tele.qp_rejections[0])
    return fail("not_feasible", None, tele.iterations,
                "iterate converged or capped while still infeasible")
