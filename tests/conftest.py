import numpy as np

from kinfp.geometry import Cylinder, PhasePoint, cylinder_in_box, q_minus, radius_power, uniform_from


def stacking_bases(rng, count, d, omega):
    """The first ``count`` base cylinders inside Q_- of a stream that draws
    r, t0, x0 (d components) and v0 (d components) per base with
    ``rng.uniform``; drawn in blocks, as one batch."""
    blocks = []
    while sum(len(b.r) for b in blocks) < count:
        u = rng.random((count, 2 + 2 * d))
        r = uniform_from(u[:, 0], 1e-4, 4e-3)
        v_max = ((omega - r) / 2)[:, None]
        Q = Cylinder(PhasePoint(
            uniform_from(u[:, 1], -1 + radius_power(r, 2), -1 + omega**2),
            uniform_from(u[:, 2:2 + d], -omega**3 / 4, omega**3 / 4),
            uniform_from(u[:, 2 + d:], -v_max, v_max)), r)
        blocks.append(Q[cylinder_in_box(Q, q_minus(omega, d))])
    z = PhasePoint(*(np.concatenate(c)[:count] for c in
                     zip(*(tuple(b.center) for b in blocks))))
    return Cylinder(z, np.concatenate([b.r for b in blocks])[:count])
