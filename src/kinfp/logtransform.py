"""Truncated logarithm used to control level sets of small positive values.

The transform is

    G(t) = -ln(t) - (1 - t) - (1 - t)^2 / 2   for t in (0, 1],
    G(t) = 0                                  for t > 1,

which is C^2 across t = 1 (value, first and second derivative all vanish
there), nonincreasing, convex where it matters, and satisfies the pointwise
inequality G'' - (G')^2 >= 0 on (0, 1].  Applied to eps + f for a
nonnegative supersolution f, g = G(eps + f) is large exactly where f is
small, and the composed function satisfies an energy estimate whose
numerical form is checked by :func:`energy_estimate_check`.
"""

from __future__ import annotations

import numpy as np

from .fields import BoxCylinder, ScalarField, grad_v_sq, norms
from .report import VerificationReport

__all__ = [
    "g_eval",
    "g_prime",
    "g_second",
    "log_transform",
    "energy_estimate_check",
]


def _as_positive(t):
    t = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(t)) or np.any(t <= 0.0):
        raise ValueError("G is only defined for strictly positive arguments")
    return t


def g_eval(t):
    """G(t), truncated to zero for t > 1."""
    t = _as_positive(t)
    u = 1.0 - t
    out = -np.log(t) - u - 0.5 * u * u
    return np.where(t >= 1.0, 0.0, out)


def g_prime(t):
    """G'(t) = -(1 - t)^2 / t on (0, 1], zero beyond."""
    t = _as_positive(t)
    u = 1.0 - t
    return np.where(t >= 1.0, 0.0, -u * u / t)


def g_second(t):
    """G''(t) = (1 - t^2) / t^2 on (0, 1], zero beyond."""
    t = _as_positive(t)
    return np.where(t >= 1.0, 0.0, (1.0 - t * t) / (t * t))


def log_transform(f: ScalarField, eps: float) -> ScalarField:
    """Return g = G(eps + f) as a field on the same grid.

    Requires f >= 0 everywhere and eps in (0, 1/4]; values of eps + f
    above 1 map to exactly zero.
    """
    if not 0.0 < eps <= 0.25:
        raise ValueError(f"eps must lie in (0, 1/4], got {eps}")
    if np.any(f.values < 0.0):
        raise ValueError("log_transform requires a nonnegative field")
    return ScalarField(f.grid, g_eval(eps + f.values))


def energy_estimate_check(
    g: ScalarField,
    region_interior: BoxCylinder,
    region_exterior: BoxCylinder,
    eps: float,
    source_sup: float,
    lam: float,
) -> VerificationReport:
    """Check the Caccioppoli-type bound for the log-transformed field.

    lhs = (lam / 2) * integral over the interior region of |grad_v g|^2,
    rhs = integral of g over the exterior region
          + |exterior| * (1 + source_sup / eps).

    Both sides are cell quadratures on g's grid.  The report records the
    fitted constant lhs / rhs; it is flagged degenerate when rhs vanishes.
    """
    if source_sup < 0.0:
        raise ValueError("source_sup must be nonnegative")
    mass = norms(g, region_exterior).integral
    lhs = 0.5 * lam * norms(grad_v_sq(g), region_interior).integral
    rhs = mass + region_exterior.volume() * (1.0 + source_sup / eps)
    return VerificationReport(
        inequality="log-transform-energy",
        lhs=lhs,
        rhs=rhs,
        params={"eps": eps, "lam": lam, "source_sup": source_sup},
        passed=np.isfinite(lhs) and np.isfinite(rhs),
        details={"exterior_mass": mass},
    )
