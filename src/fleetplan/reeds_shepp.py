"""Shortest bounded-curvature curves with reversing (Reeds-Shepp).

Closed-form word families evaluated in the start frame scaled to unit turning
radius.  A candidate is kept only once re-rolling it through its segments shows
that it actually reaches the goal pose, so invalid formula branches filter
themselves out instead of relying on per-family validity conditions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


def _LpSpLp(x, y, phi):
    u, t = _polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    if t >= -_EPS:
        v = _mod2pi(phi - t)
        if v >= -_EPS:
            return t, u, v
    return None


def _LpSpRp(x, y, phi):
    u1, t1 = _polar(x + math.sin(phi), y - 1.0 - math.cos(phi))
    if u1 * u1 >= 4.0:
        u = math.sqrt(u1 * u1 - 4.0)
        t = _mod2pi(t1 + math.atan2(2.0, u))
        v = _mod2pi(t - phi)
        if t >= -_EPS and v >= -_EPS:
            return t, u, v
    return None


def _LpRmL(x, y, phi):
    xi, eta = x - math.sin(phi), y - 1.0 + math.cos(phi)
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


def _LpRupLumRm(x, y, phi):
    xi, eta = x + math.sin(phi), y - 1.0 - math.cos(phi)
    rho = 0.25 * (2.0 + math.hypot(xi, eta))
    if rho <= 1.0:
        u = math.acos(rho)
        t, v = _tau_omega(u, -u, xi, eta, phi)
        if t >= -_EPS and v <= _EPS:
            return t, u, v
    return None


def _LpRumLumRp(x, y, phi):
    xi, eta = x + math.sin(phi), y - 1.0 - math.cos(phi)
    rho = (20.0 - xi * xi - eta * eta) / 16.0
    if 0.0 <= rho <= 1.0:
        u = -math.acos(rho)
        if u >= -_HPI:
            t, v = _tau_omega(u, u, xi, eta, phi)
            if t >= -_EPS and v >= -_EPS:
                return t, u, v
    return None


def _LpRmSmLm(x, y, phi):
    xi, eta = x - math.sin(phi), y - 1.0 + math.cos(phi)
    rho, theta = _polar(xi, eta)
    if rho >= 2.0:
        r = math.sqrt(rho * rho - 4.0)
        u = 2.0 - r
        t = _mod2pi(theta + math.atan2(r, -2.0))
        v = _mod2pi(phi - _HPI - t)
        if t >= -_EPS and u <= _EPS and v <= _EPS:
            return t, u, v
    return None


def _LpRmSmRm(x, y, phi):
    xi, eta = x + math.sin(phi), y - 1.0 - math.cos(phi)
    rho, theta = _polar(-eta, xi)
    if rho >= 2.0:
        t = theta
        u = 2.0 - rho
        v = _mod2pi(t + _HPI - phi)
        if t >= -_EPS and u <= _EPS and v <= _EPS:
            return t, u, v
    return None


def _LpRmSLmRp(x, y, phi):
    xi, eta = x + math.sin(phi), y - 1.0 - math.cos(phi)
    rho, _ = _polar(xi, eta)
    if rho >= 2.0:
        u = 4.0 - math.sqrt(rho * rho - 4.0)
        if u <= _EPS:
            t = _mod2pi(math.atan2((4.0 - u) * xi - 2.0 * eta, -2.0 * xi + (u - 4.0) * eta))
            v = _mod2pi(t - phi)
            if t >= -_EPS and v >= -_EPS:
                return t, u, v
    return None


# word table: (solver, type string, length pattern builder, backwards flag)
_WORDS = [
    (_LpSpLp, "LSL", lambda t, u, v: [t, u, v], False),
    (_LpSpRp, "LSR", lambda t, u, v: [t, u, v], False),
    (_LpRmL, "LRL", lambda t, u, v: [t, u, v], False),
    (_LpRmL, "LRL", lambda t, u, v: [v, u, t], True),
    (_LpRupLumRm, "LRLR", lambda t, u, v: [t, u, -u, v], False),
    (_LpRumLumRp, "LRLR", lambda t, u, v: [t, u, u, v], False),
    (_LpRmSmLm, "LRSL", lambda t, u, v: [t, -_HPI, u, v], False),
    (_LpRmSmRm, "LRSR", lambda t, u, v: [t, -_HPI, u, v], False),
    (_LpRmSmLm, "LSRL", lambda t, u, v: [v, u, -_HPI, t], True),
    (_LpRmSmRm, "RSRL", lambda t, u, v: [v, u, -_HPI, t], True),
    (_LpRmSLmRp, "LRSLR", lambda t, u, v: [t, -_HPI, u, -_HPI, v], False),
]

_SWAP = str.maketrans("LR", "RL")
_CURV = {"L": 1.0, "S": 0.0, "R": -1.0}


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


def _solutions(x: float, y: float, phi: float):
    """Every formula branch's (types, unit-scaled signed lengths) for (x, y, phi),
    in enumeration order and not yet checked against the goal with _reaches."""
    xb = x * math.cos(phi) + y * math.sin(phi)
    yb = x * math.sin(phi) - y * math.cos(phi)
    for solver, types, build, backwards in _WORDS:
        px, py = (xb, yb) if backwards else (x, y)
        for flip, reflect in ((False, False), (True, False), (False, True), (True, True)):
            sx = -px if flip else px
            sy = -py if reflect else py
            sphi = phi if flip == reflect else -phi
            sol = solver(sx, sy, sphi)
            if sol is None:
                continue
            lengths = build(*sol)
            if flip:
                lengths = [-l for l in lengths]
            yield (types.translate(_SWAP) if reflect else types), lengths


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
    best = None
    best_len = math.inf
    for word, lengths in _solutions(x, y, phi):
        # roll out only a candidate that would win; one that cannot never moves best
        total = sum(abs(l) for l in lengths)
        if total < best_len - 1e-12 and _reaches(word, lengths, x, y, phi):
            best_len = total
            best = (word, lengths)
    if best is None:
        return None
    return _to_curve(best[0], best[1], radius)

