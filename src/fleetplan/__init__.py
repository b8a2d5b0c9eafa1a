"""fleetplan: multi-vehicle trajectory planning for Ackermann fleets.

Pipeline: a centralized prioritized spatiotemporal search produces a coarse,
collision-free plan at a large step size; a decentralized sequential-convex
stage then refines it into a smooth, kinematically exact joint trajectory.
"""
from fleetplan.geometry import (
    OrientedBox,
    State,
    VehicleParams,
    footprints,
    normalize_angle,
    rects_overlap,
)
from fleetplan.instance import (
    AgentTask,
    MvtpInstance,
    Plan,
    VerificationReport,
    generate_random_instance,
    parse_instance,
    serialize_instance,
    validate_plan,
)

__version__ = "0.1.0"

__all__ = [
    "AgentTask",
    "MvtpInstance",
    "OrientedBox",
    "Plan",
    "State",
    "VehicleParams",
    "VerificationReport",
    "footprints",
    "generate_random_instance",
    "normalize_angle",
    "parse_instance",
    "rects_overlap",
    "serialize_instance",
    "validate_plan",
]
