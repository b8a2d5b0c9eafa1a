"""Shortest bounded-curvature curves with reversing (Reeds-Shepp).

Closed-form word families evaluated in the start frame scaled to unit turning
radius.  A candidate is kept only once re-rolling it through its segments shows
that it actually reaches the goal pose, so invalid formula branches filter
themselves out instead of relying on per-family validity conditions.

`shortest_path` runs the 11 words of `_WORDS`, each under 4 reflections (as
is, flipped in travel direction, mirrored left-right, both), in that order,
and keeps the first strictly shortest candidate that reaches the goal.  The
sine and cosine of phi and of -phi are computed once per call and handed to
the solvers; a candidate's total length is summed from its slots before any
lengths list exists, and only a candidate that could win gets one and is
rolled out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .geometry import advance_arc

_EPS = 1e-10
_HPI = math.pi / 2.0


def _mod2pi(a: float) -> float:
    a = (a + math.pi) % (2.0 * math.pi) - math.pi
    if a <= -math.pi:
        a = math.pi
    return a


def _polar(x: float, y: float) -> tuple[float, float]:
    return math.hypot(x, y), math.atan2(y, x)


# --- base word solvers, unit radius, start at the origin ------------------
# each returns (t, u, v) or None; segment patterns are attached below


def _LpSpLp(x, y, phi, sphi, cphi):
    u, t = _polar(x - sphi, y - 1.0 + cphi)
    if t >= -_EPS:
        v = _mod2pi(phi - t)
        if v >= -_EPS:
            return t, u, v
    return None


def _LpSpRp(x, y, phi, sphi, cphi):
    u1, t1 = _polar(x + sphi, y - 1.0 - cphi)
    if u1 * u1 >= 4.0:
        u = math.sqrt(u1 * u1 - 4.0)
        t = _mod2pi(t1 + math.atan2(2.0, u))
        v = _mod2pi(t - phi)
        if t >= -_EPS and v >= -_EPS:
            return t, u, v
    return None


def _LpRmL(x, y, phi, sphi, cphi):
    xi, eta = x - sphi, y - 1.0 + cphi
    u1, theta = _polar(xi, eta)
    if u1 <= 4.0:
        u = -2.0 * math.asin(0.25 * u1)
        t = _mod2pi(theta + 0.5 * u + math.pi)
        v = _mod2pi(phi - t + u)
        if t >= -_EPS and u <= _EPS:
            return t, u, v
    return None


def _tau_omega(u, v, xi, eta, phi):
    delta = _mod2pi(u - v)
    A = math.sin(u) - math.sin(delta)
    B = math.cos(u) - math.cos(delta) - 1.0
    t1 = math.atan2(eta * A - xi * B, xi * A + eta * B)
    t2 = 2.0 * (math.cos(delta) - math.cos(v) - math.cos(u)) + 3.0
    tau = _mod2pi(t1 + math.pi) if t2 < 0.0 else _mod2pi(t1)
    return tau, _mod2pi(tau - u + v - phi)


def _LpRupLumRm(x, y, phi, sphi, cphi):
    xi, eta = x + sphi, y - 1.0 - cphi
    rho = 0.25 * (2.0 + math.hypot(xi, eta))
    if rho <= 1.0:
        u = math.acos(rho)
        t, v = _tau_omega(u, -u, xi, eta, phi)
        if t >= -_EPS and v <= _EPS:
            return t, u, v
    return None


def _LpRumLumRp(x, y, phi, sphi, cphi):
    xi, eta = x + sphi, y - 1.0 - cphi
    rho = (20.0 - xi * xi - eta * eta) / 16.0
    if 0.0 <= rho <= 1.0:
        u = -math.acos(rho)
        if u >= -_HPI:
            t, v = _tau_omega(u, u, xi, eta, phi)
            if t >= -_EPS and v >= -_EPS:
                return t, u, v
    return None


def _LpRmSmLm(x, y, phi, sphi, cphi):
    xi, eta = x - sphi, y - 1.0 + cphi
    rho, theta = _polar(xi, eta)
    if rho >= 2.0:
        r = math.sqrt(rho * rho - 4.0)
        u = 2.0 - r
        t = _mod2pi(theta + math.atan2(r, -2.0))
        v = _mod2pi(phi - _HPI - t)
        if t >= -_EPS and u <= _EPS and v <= _EPS:
            return t, u, v
    return None


def _LpRmSmRm(x, y, phi, sphi, cphi):
    xi, eta = x + sphi, y - 1.0 - cphi
    rho, theta = _polar(-eta, xi)
    if rho >= 2.0:
        t = theta
        u = 2.0 - rho
        v = _mod2pi(t + _HPI - phi)
        if t >= -_EPS and u <= _EPS and v <= _EPS:
            return t, u, v
    return None


def _LpRmSLmRp(x, y, phi, sphi, cphi):
    xi, eta = x + sphi, y - 1.0 - cphi
    rho, _ = _polar(xi, eta)
    if rho >= 2.0:
        u = 4.0 - math.sqrt(rho * rho - 4.0)
        if u <= _EPS:
            t = _mod2pi(math.atan2((4.0 - u) * xi - 2.0 * eta, -2.0 * xi + (u - 4.0) * eta))
            v = _mod2pi(t - phi)
            if t >= -_EPS and v >= -_EPS:
                return t, u, v
    return None


_SWAP = str.maketrans("LR", "RL")
_CURV = {"L": 1.0, "S": 0.0, "R": -1.0}

# word table: (solver, type string, its L/R mirror, length slots, backwards
# flag).  A word's unit-scaled segment lengths are the slots of (t, u, v, -u,
# -pi/2), (t, u, v) the solver's solution; a backwards word solves for the
# goal in the backwards frame (xb, yb) of `shortest_path` and reads its
# solution back to front.
_WORDS = [
    (solver, word, word.translate(_SWAP), itemgetter(*slots), backwards)
    for solver, word, slots, backwards in (
        (_LpSpLp, "LSL", (0, 1, 2), False),
        (_LpSpRp, "LSR", (0, 1, 2), False),
        (_LpRmL, "LRL", (0, 1, 2), False),
        (_LpRmL, "LRL", (2, 1, 0), True),
        (_LpRupLumRm, "LRLR", (0, 1, 3, 2), False),
        (_LpRumLumRp, "LRLR", (0, 1, 1, 2), False),
        (_LpRmSmLm, "LRSL", (0, 4, 1, 2), False),
        (_LpRmSmRm, "LRSR", (0, 4, 1, 2), False),
        (_LpRmSmLm, "LSRL", (2, 1, 4, 0), True),
        (_LpRmSmRm, "RSRL", (2, 1, 4, 0), True),
        (_LpRmSLmRp, "LRSLR", (0, 4, 1, 4, 2), False),
    )
]


@dataclass(frozen=True, slots=True)
class RsSegment:
    curvature: float   # 1/turn-radius, signed by turn direction; 0 = straight
    length: float      # signed arc length, negative = reverse


@dataclass(frozen=True, slots=True)
class RsCurve:
    segments: tuple[RsSegment, ...]
    length: float      # total unsigned length


def _reaches(types: str, lengths: list[float], x, y, phi) -> bool:
    px = py = pth = 0.0
    for ch, l in zip(types, lengths):
        px, py, pth = advance_arc(px, py, pth, _CURV[ch], l)
    return (
        abs(px - x) < 1e-6
        and abs(py - y) < 1e-6
        and abs(_mod2pi(pth - phi)) < 1e-6
    )


def _to_curve(word: str, lengths: list[float], radius: float) -> RsCurve:
    segs = []
    total = 0.0
    for ch, l in zip(word, lengths):
        if abs(l) < 1e-12:
            continue
        segs.append(RsSegment(_CURV[ch] / radius, l * radius))
        total += abs(l) * radius
    return RsCurve(tuple(segs), total)


def _goal_in_start_frame(start, goal, radius):
    dx = goal[0] - start[0]
    dy = goal[1] - start[1]
    c, s = math.cos(start[2]), math.sin(start[2])
    return (
        (dx * c + dy * s) / radius,
        (-dx * s + dy * c) / radius,
        _mod2pi(goal[2] - start[2]),
    )


def shortest_path(start, goal, radius: float) -> RsCurve | None:
    x, y, phi = _goal_in_start_frame(start, goal, radius)
    if abs(x) < 1e-12 and abs(y) < 1e-12 and abs(phi) < 1e-12:
        return RsCurve((), 0.0)
    sp, cp = math.sin(phi), math.cos(phi)
    sm, cm = math.sin(-phi), math.cos(-phi)
    xb, yb = x * cp + y * sp, x * sp - y * cp
    # per frame, each reflection's solver arguments (x, y, phi, sin phi, cos
    # phi), whether it flips the travel direction and whether it mirrors the
    # word, in the order no change, flip, mirror, both
    frames = [((px, py, phi, sp, cp, False, False), (-px, py, -phi, sm, cm, True, False),
               (px, -py, -phi, sm, cm, False, True), (-px, -py, phi, sp, cp, True, True))
              for px, py in ((x, y), (xb, yb))]
    best = None
    best_len = math.inf
    for solver, word, mirror, pick, backwards in _WORDS:
        for sx, sy, sphi, s, c, flip, reflect in frames[backwards]:
            sol = solver(sx, sy, sphi, s, c)
            if sol is None:
                continue
            t, u, v = sol
            # roll out only a candidate that would win; one that cannot never moves best
            total = sum(pick((abs(t), abs(u), abs(v), abs(u), _HPI)))
            if total < best_len - 1e-12:
                lengths = pick((t, u, v, -u, -_HPI))
                if flip:
                    lengths = [-l for l in lengths]
                types = mirror if reflect else word
                if _reaches(types, lengths, x, y, phi):
                    best_len = total
                    best = (types, lengths)
    if best is None:
        return None
    return _to_curve(best[0], best[1], radius)
