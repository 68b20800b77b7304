"""Numpy kernels for the integrator: IDM acceleration and the failsafe cap."""
import numpy as np

BACKEND = "python"  # recorded by the benchmark with each result file


def idm_acceleration(v, dv, gap, v0, T, a_max, b, delta, s0):
    """Car-following acceleration for each vehicle.

    ``dv`` is ego speed minus leader speed (closing rate, m/s); ``gap`` is
    the bumper-to-bumper headway (m, +inf for an open road ahead). All
    per-vehicle parameter arrays must be broadcast-compatible with ``v``.
    """
    s_star = s0 + np.maximum(0.0, v * T + v * dv / (2.0 * np.sqrt(a_max * b)))
    z = s_star / gap
    x = v / v0
    if np.all(delta == 4.0):  # the default exponent; skip the generic pow
        x2 = x * x
        free = x2 * x2
    else:
        free = x ** delta
    return a_max * (1.0 - free - z * z)


def safe_speed(gap, leader_speed, dt, b_max):
    """Maximum speed from which braking at ``b_max`` cannot reach the leader.

    One-step reaction delay ``dt`` is budgeted, so the cap is safe under
    synchronous position updates: v = -b*dt + sqrt((b*dt)^2 + v_l^2 + 2*b*g).
    """
    bd = b_max * dt
    g = np.maximum(gap, 0.0)
    return -bd + np.sqrt(bd * bd + leader_speed * leader_speed + 2.0 * b_max * g)
