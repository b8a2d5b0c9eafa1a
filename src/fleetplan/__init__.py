"""fleetplan: multi-vehicle trajectory planning for Ackermann fleets.

Pipeline: a centralized prioritized spatiotemporal search produces a coarse,
collision-free plan at a large step size; a decentralized sequential-convex
stage then refines it into a smooth, kinematically exact joint trajectory.
"""
