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

Cost: ``log_transform`` checks f itself with two reductions, a
NaN-skipping minimum and a maximum (fl(eps + .) is monotone, so eps + f
needs no pass of its own), then fills its output one time slice at a time:
eps + f, then G in place with one slice of scratch, so each slice is
worked on while it is in cache and no full-grid temporary is made.
``energy_estimate_check`` takes |grad_v g|^2 only on the interior region's
window of the grid (``fields.grad_v_sq_integral``, over ``Grid.window``).
Both give the bits of the whole-grid formulas.
"""

from __future__ import annotations

import numpy as np

from .fields import BoxCylinder, ScalarField, grad_v_sq_integral, norms
from .report import VerificationReport

__all__ = [
    "g_eval",
    "g_prime",
    "g_second",
    "log_transform",
    "energy_estimate_check",
]


def _check_positive(t: np.ndarray) -> None:
    """Raise unless every entry is finite and strictly positive; min/max
    reductions, which NaN fails, so no boolean temporaries are made."""
    if t.size and not (t.min() > 0.0 and t.max() < np.inf):
        raise ValueError("G is only defined for strictly positive arguments")


def _as_positive(t):
    t = np.asarray(t, dtype=float)
    _check_positive(t)
    return t


def _g_in_place(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Overwrite a checked t with G(t) and return it, with u an array of
    t's shape for scratch: -ln t - u - u^2 / 2 with u = 1 - t, then zero
    where t >= 1.  Where t < 1, u >= 2^-53, so u * u is a normal number and
    halving it is exact: this is (-ln t - u) - (0.5 u) u bit for bit."""
    plateau = t >= 1.0
    np.subtract(1.0, t, out=u)
    np.log(t, out=t)
    np.negative(t, out=t)
    np.subtract(t, u, out=t)
    np.multiply(u, u, out=u)
    np.multiply(u, 0.5, out=u)
    np.subtract(t, u, out=t)
    np.copyto(t, 0.0, where=plateau)
    return t


def g_eval(t):
    """G(t), truncated to zero for t > 1."""
    t = np.array(t, dtype=float)  # a copy: G is computed in place
    _check_positive(t)
    return _g_in_place(t, np.empty_like(t))  # an array at 0-d too


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
    # fmin skips NaN, so a field with NaN and negative values is reported
    # as negative, and one with NaN alone fails the positivity check
    values = f.values
    lo = np.fmin.reduce(values, axis=None)
    if lo < 0.0:
        raise ValueError("log_transform requires a nonnegative field")
    # t -> fl(eps + t) is monotone, so eps + f is checked at f's extrema:
    # its least value lo, and its largest, which max returns as NaN if any
    _check_positive(eps + np.array([lo, values.max()]))
    g = np.empty_like(values)
    u = np.empty_like(values[0])
    for t, ft in zip(g, values):  # one time slice at a time
        _g_in_place(np.add(eps, ft, out=t), u)
    return ScalarField(f.grid, g)


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

    Both sides are cell quadratures on g's grid.  The gradient is taken
    only on the interior region's window of the grid, with the bits of the
    quadrature of the whole-grid |grad_v g|^2 over it.  The
    report records the fitted constant lhs / rhs; it is flagged degenerate
    when rhs vanishes.
    """
    if source_sup < 0.0:
        raise ValueError("source_sup must be nonnegative")
    mass = norms(g, region_exterior).integral
    lhs = 0.5 * lam * grad_v_sq_integral(g, region_interior)
    rhs = mass + region_exterior.volume() * (1.0 + source_sup / eps)
    return VerificationReport(
        inequality="log-transform-energy",
        lhs=lhs,
        rhs=rhs,
        params={"eps": eps, "lam": lam, "source_sup": source_sup},
        passed=np.isfinite(lhs) and np.isfinite(rhs),
        details={"exterior_mass": mass},
    )
