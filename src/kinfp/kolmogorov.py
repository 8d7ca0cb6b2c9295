"""Constant-coefficient (Kolmogorov) machinery.

The operator here is L_K = (d/dt + v . grad_x) - Lap_v.  Its fundamental
solution is an explicit Gaussian: starting from (t0, x0, v0), at elapsed
time s = t - t0 the velocity is Gaussian around v0 with variance 2s per
axis, the position is Gaussian around x0 + s v0 with variance 2 s^3 / 3 per
axis, and the x-v covariance per axis is s^2 (the axes are independent).
These moments follow from the characteristics dV = sqrt(2) dW, dX = V dt.

The module also builds the C^2 cutoff Psi used to localize supersolutions:

    Psi1(t, x, v) = phi1(t) phi2(x - t v) phi3(v),
    Psi(t, x, v)  = Psi1(t, x / R, v / R),

with polynomial (quintic-smoothstep) profiles so that every derivative
entering the estimates is available in closed form, and the localization
pipeline that solves the three Cauchy problems (h, P_R, E_R), each
truncated to f's box, behind the bound h <= theta0 * sup f on the unit
cylinder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import BoxCylinder, ScalarField, make_coefficients, norms
from .fpsolver import SolverConfig, solve
from .geometry import PhasePoint, ball_volume, q_one, q_zero, time_lap
from .report import HypothesisError

__all__ = [
    "kernel_eval",
    "log_kernel_eval",
    "solve_cauchy",
    "CutoffFunction",
    "CutoffValues",
    "build_cutoff",
    "theta0_parameters",
    "ALPHA0",
    "zero_fraction",
    "localization_bound",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


def _kernel_log_density(s, dx, dv):
    """Per-axis log-densities summed left to right; s > 0, dx and dv the d
    per-axis offsets, arrays that broadcast against s.  Each axis is its
    own array with no trailing length-d axis (reductions over such a short
    axis cost more than the terms), and the full-size terms are updated in
    place, in the order the formula reads."""
    s = np.asarray(s, dtype=float)
    det = s**4 / 3.0
    base = -_LOG_2PI - 0.5 * np.log(det)
    c_xx, c_xv, c_vv = 2.0 * s, 2.0 * s**2, 2.0 * s**3 / 3.0
    shape = np.broadcast_shapes(s.shape, *(np.shape(a) for a in (*dx, *dv)))
    total = None
    for dx_k, dv_k in zip(dx, dv):
        # q = (c_xx dx dx - c_xv dx dv + c_vv dv dv) / det
        q = np.multiply(c_xv * dx_k, dv_k, out=np.empty(shape))
        np.subtract(c_xx * dx_k * dx_k, q, out=q)
        q += c_vv * dv_k * dv_k
        q /= det
        q *= 0.5
        term = np.subtract(base, q, out=q)  # base - 0.5 q
        if total is None:
            total = term
        else:
            total += term
    return total if total.ndim else total[()]


def log_kernel_eval(t, x, v, z0: PhasePoint):
    """log of the fundamental solution with pole at z0; requires t > z0.t."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    s = t - z0.t
    if np.any(s <= 0.0):
        raise ValueError("kernel is only defined forward in time (t > t0)")
    axes = range(x.shape[-1])
    dx = [x[..., k] - z0.x[..., k] - s * z0.v[..., k] for k in axes]
    dv = [v[..., k] - z0.v[..., k] for k in axes]
    return _kernel_log_density(s, dx, dv)


def kernel_eval(t, x, v, z0: PhasePoint):
    """Fundamental solution of L_K with pole at z0, evaluated at (t, x, v)."""
    return np.exp(log_kernel_eval(t, x, v, z0))


# ---------------------------------------------------------------------------
# truncated whole-space Cauchy solve
# ---------------------------------------------------------------------------


def solve_cauchy(rhs: ScalarField) -> ScalarField:
    """Solve L_K h = rhs on rhs's box, h = 0 at the opening time.

    The whole-space problem is truncated to rhs's box with zero Dirichlet
    data on every x and v face; ``_shell_share`` measures how much of the
    solution sits next to that truncation.
    """
    grid = rhs.grid
    config = SolverConfig(
        coeffs=make_coefficients(grid, "constant", 1.0, 1.0, S=rhs.values),
        initial=np.zeros(grid.shape[1:]),
        bc_x="dirichlet",
        bc_v="dirichlet",
    )
    return solve(config)


def _shell_share(h: ScalarField) -> float:
    """The share of h's |h|-mass in the outermost cell shell: the nodes on
    any x or v face of the box (0 when h vanishes)."""
    values = np.abs(h.values)
    total = float(np.sum(values))
    if total == 0.0:
        return 0.0
    shell = np.ones(values.shape, dtype=bool)
    shell[(slice(None),) + (slice(1, -1),) * (values.ndim - 1)] = False
    return float(np.sum(values[shell])) / total


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------


def _s5(u):
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (10.0 - 15.0 * u + 6.0 * u * u)


def _ds5(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 30.0 * u * u * (1.0 - u) ** 2, 0.0)


def _d2s5(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u), 0.0)


def _radial_profile(rho, lo, hi):
    """w = 1 on [0, lo], smoothstep down to 0 at hi; returns (w, w', w'')."""
    u = (rho - lo) / (hi - lo)
    w = 1.0 - _s5(u)
    w1 = -_ds5(u) / (hi - lo)
    w2 = -_d2s5(u) / (hi - lo) ** 2
    return w, w1, w2


class CutoffValues(NamedTuple):
    """One evaluation of the scaled cutoff Psi and the derivatives the
    estimates use, all at the same points."""

    psi: np.ndarray  # Psi
    transport: np.ndarray  # (d/dt + v . grad_x) Psi
    grad_v: np.ndarray  # grad_v Psi, shape (..., d)
    lap_v: np.ndarray  # Lap_v Psi = lap_v1 / R^2
    lap_v1: np.ndarray  # Lap_v Psi1 at the scaled point (x/R, v/R)

    @property
    def lk(self) -> np.ndarray:
        """L_K Psi = transport derivative minus velocity Laplacian."""
        return self.transport - self.lap_v


@dataclass(frozen=True)
class CutoffFunction:
    """The localizing cutoff Psi(t, x, v) = Psi1(t, x/R, v/R).

    Psi1 = phi1(t) phi2(x - t v) phi3(v) with

    * phi1: 0 before t = -1 - eta^2, slope exactly 1 on
      [-1 - eta^2, -1 - T], then a C^2 quintic blend into the plateau 1 on
      [-1, 0].  The transport derivative of Psi1 is phi1' phi2 phi3 >= 0
      because x - t v is constant along free transport.
    * phi2: radial, 1 on B_3, 0 outside B_4.
    * phi3: radial, 1 on B_1, 0 outside B_2.

    Consequences: Psi1 is [0,1]-valued, supported in
    [-1 - eta^2, 0] x B_8 x B_2, equal to 1 on (-1, 0] x B_1 x B_1, and its
    transport derivative is >= 1 on (-1 - eta^2, -1 - T] x B_1 x B_1.
    """

    eta: float
    T: float
    R: float

    def _phi1(self, t):
        """(phi1(t), phi1'(t))."""
        a = self.eta**2 - self.T  # ramp value reached at t = -1 - T
        s0 = self.T / (1.0 - a)  # slope of the blend variable at u = 0
        u = np.clip((t + 1.0 + self.T) / self.T, 0.0, 1.0)
        blend = (s0 * u + (10.0 - 6.0 * s0) * u**3
                 + (8.0 * s0 - 15.0) * u**4 + (6.0 - 3.0 * s0) * u**5)
        dblend = (s0 + 3.0 * (10.0 - 6.0 * s0) * u**2
                  + 4.0 * (8.0 * s0 - 15.0) * u**3 + 5.0 * (6.0 - 3.0 * s0) * u**4)
        before = t <= -1.0 - self.eta**2
        ramp = t <= -1.0 - self.T
        in_blend = t <= -1.0
        phi = np.where(before, 0.0, np.where(
            ramp, t + 1.0 + self.eta**2,
            np.where(in_blend, a + (1.0 - a) * blend, 1.0)))
        dphi = np.where(before, 0.0, np.where(
            ramp, 1.0,
            np.where(in_blend, (1.0 - a) * dblend / self.T, 0.0)))
        return np.clip(phi, 0.0, 1.0), np.clip(dphi, 0.0, None)

    def evaluate(self, t, x, v) -> CutoffValues:
        """Psi and its derivatives at (t, x, v) in one pass.

        t has shape (...), x and v shape (..., d); any shapes that broadcast
        against each other do, such as ``Grid.open_coords``.  (x, v) are
        scaled by 1/R once, and the slant coordinate xi = x/R - t v/R, the
        radial norms, the profiles and phi1, phi1' are each built once.  The
        scaled slant coordinate is constant along free transport, so the
        transport derivative is phi1' phi2 phi3 at the scaled point; grad_v
        and Lap_v pick up 1/R and 1/R^2.
        """
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float) / self.R
        v = np.asarray(v, dtype=float) / self.R
        d = x.shape[-1]
        xi = x - t[..., None] * v
        r2 = self._norm(xi)
        r3 = self._norm(v)
        w2, w2p, w2pp = _radial_profile(r2, 3.0, 4.0)
        w3, w3p, w3pp = _radial_profile(r3, 1.0, 2.0)
        phi, dphi = self._phi1(t)
        safe2 = np.where(r2 > 0.0, r2, 1.0)
        safe3 = np.where(r3 > 0.0, r3, 1.0)
        term2 = (-t[..., None]) * (w2p / safe2)[..., None] * xi * w3[..., None]
        term3 = (w3p / safe3)[..., None] * v * w2[..., None]
        lap2 = w2pp + (d - 1) * w2p / safe2
        lap3 = w3pp + (d - 1) * w3p / safe3
        dot = np.sum(xi * v, axis=-1)
        cross = w2p * w3p * dot / (safe2 * safe3)
        lap_v1 = phi * (t * t * lap2 * w3 - 2.0 * t * cross + w2 * lap3)
        return CutoffValues(
            psi=phi * w2 * w3,
            transport=dphi * w2 * w3,
            grad_v=phi[..., None] * (term2 + term3) / self.R,
            lap_v=lap_v1 / self.R**2,
            lap_v1=lap_v1,
        )

    @staticmethod
    def _norm(w):
        return np.sqrt(np.sum(w**2, axis=-1))

    def exterior_box(self, d: int) -> BoxCylinder:
        """The support box of the scaled cutoff: (-1-eta^2, 0] x B_8R x B_2R."""
        return BoxCylinder(
            t_min=-1.0 - self.eta**2,
            t_max=0.0,
            x_center=np.zeros(d),
            rx=8.0 * self.R,
            v_center=np.zeros(d),
            rv=2.0 * self.R,
        )


def build_cutoff(eta: float, T: float, R: float) -> CutoffFunction:
    """Validated constructor: eta in (0,1], T in (0, eta^2), R >= 1."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    if not 0.0 < T < eta**2:
        raise ValueError(f"T must lie in (0, eta^2), got {T}")
    if R < 1.0:
        raise ValueError(f"R must be >= 1, got {R}")
    return CutoffFunction(eta=float(eta), T=float(T), R=float(R))


# ---------------------------------------------------------------------------
# localization pipeline
# ---------------------------------------------------------------------------


_POLE_BLOCK = 1 << 15  # (pole, sample) pairs per log_kernel_eval call


def _log_kernel_min(eta: float, T: float, d: int) -> float:
    """Min over Q_1 x (Q_zero with t0 <= -1 - T) of the log kernel.

    Both regions are sampled on tensor grids of 5 nodes per axis, corners
    included.
    The true minimum is astronomically small for moderate eta (the
    quadratic form scales like 1 / s^3 near the minimal elapsed time), so
    only the log is meaningful in double precision.  The poles are
    evaluated in blocks of at most ``_POLE_BLOCK`` (pole, sample) pairs
    (one pole at least): d = 2 has 5^5 poles by 5^5 samples, and one
    10^7-point block would be large and slower than cache-sized ones.
    """
    n = 5
    lin = np.linspace(-1.0, 1.0, n)
    t1 = np.linspace(-1.0 + 1e-9, 0.0, n)
    x1 = lin  # Q_1 box coordinates, radius 1
    t0 = np.linspace(-1.0 - eta**2, -1.0 - T, n)
    x0 = lin * eta**3
    v0 = lin * eta
    best = np.inf
    axes0 = [t0] + [x0] * d + [v0] * d
    grids0 = np.meshgrid(*axes0, indexing="ij")
    pts0 = np.stack([g.ravel() for g in grids0], axis=-1)
    axes1 = [t1] + [x1] * d + [x1] * d
    grids1 = np.meshgrid(*axes1, indexing="ij")
    pts1 = np.stack([g.ravel() for g in grids1], axis=-1)
    ts, xs, vs = pts1[:, 0], pts1[:, 1 : 1 + d], pts1[:, 1 + d :]
    step = max(1, _POLE_BLOCK // len(pts1))
    # every pole time is <= -1 - T < -1 + 1e-9 <= every sample time
    for lo in range(0, len(pts0), step):
        rows = pts0[lo : lo + step, None]  # (poles, 1, 1 + 2d)
        z0 = PhasePoint(rows[..., 0], rows[..., 1 : 1 + d], rows[..., 1 + d :])
        best = min(best, float(np.min(log_kernel_eval(ts, xs, vs, z0))))
    return best


def theta0_parameters(eta: float, d: int = 1) -> dict:
    """The pair (delta0, theta0) behind the localization bound.

    delta0 = (1/8) m |Q_zero| with m the kernel minimum over
    Q_1 x (Q_zero cut at t <= -1 - T); theta0 = 1 - delta0 / 2.  The log of
    m is returned as well since m itself underflows for moderate eta.
    """
    T = time_lap(eta)
    log_m = _log_kernel_min(eta, T, d)
    qz_vol = eta**2 * ball_volume(d, eta**3) * ball_volume(d, eta)
    delta0 = float(np.exp(log_m) * qz_vol / 8.0)
    return {
        "eta": eta,
        "T": T,
        "log_kernel_min": log_m,
        "q_zero_volume": qz_vol,
        "delta0": delta0,
        "theta0": 1.0 - delta0 / 2.0,
    }


#: Smallest share alpha0 of Q_zero that the zero set of f must fill.
ALPHA0 = 0.25


def _require_nonnegative(f: ScalarField, name: str) -> None:
    """The hypothesis f >= 0 of ``name`` at every node of f's grid."""
    if np.any(f.values < 0.0):
        raise HypothesisError(f"{name} requires f >= 0")


def zero_fraction(f: ScalarField, eta: float) -> float:
    """The zero-set hypothesis: the share of the cells of f's grid inside
    Q_zero = (-1-eta^2, -1] x B_{eta^3} x B_eta where f vanishes, which must
    be at least ``ALPHA0``.  Returns the share; HypothesisError when no cell
    center lies inside Q_zero or the share is below ``ALPHA0``."""
    try:
        qz = norms(f, q_zero(eta, f.grid.d))
    except ValueError:
        raise HypothesisError("grid too coarse: no cells inside Q_zero") from None
    frac = qz.fraction(lambda u: u == 0.0)
    if frac < ALPHA0:
        raise HypothesisError(
            f"zero-set hypothesis fails: fraction {frac:.3f} < {ALPHA0}"
        )
    return frac


def localization_bound(
    f: ScalarField,
    eta: float,
    R: float = 1.0,
) -> dict:
    """Bound the localized evolution h of a [0, sup f]-valued field.

    Given f >= 0 on a grid covering the support box of the scaled cutoff,
    solves the three Cauchy problems

        L_K h   = f * L_K Psi,
        L_K P_R = (sup f - f) * (transport derivative of Psi)   (>= 0),
        L_K E_R = (sup f - f) * (velocity Laplacian of Psi),

    all from zero data at the opening time, so that
    h = Psi * sup f - P_R + E_R up to scheme error.  Requires the zero set
    of f to fill at least the fraction ``ALPHA0`` of Q_zero =
    (-1-eta^2, -1] x B_{eta^3} x B_eta (measured by cell counting on f's
    grid; ``zero_fraction``).  Returns the bound parameters

        delta0 = (1/8) m |Q_zero|,   theta0 = 1 - delta0 / 2,

    with m the kernel minimum over Q_1 x (Q_zero cut at t <= -1 - T); m is
    reported in log space and generally underflows to zero in double
    precision, in which case theta0 = 1 exactly and the verified inequality
    degenerates to sup h <= sup f on Q_1.

    ``passed_E`` is the one-sided global bound sup|E_R| <= c_e / R^2 from the
    maximum principle, with c_e = (1 + eta^2) sup f sup|Lap_v Psi1|.
    ``sup_E_Q1``, the sup of E_R over Q_1, has no lower bound: the source
    of E_R vanishes near Q_1, so it decays like a Gaussian tail in R.

    ``shell_h``, ``shell_P`` and ``shell_E`` report the share of each
    solution's |.|-mass in the outermost cell shell of f's box, where the
    truncated solves meet their zero Dirichlet data (``_shell_share``).
    """
    grid = f.grid
    d = grid.domain.d
    _require_nonnegative(f, "localization_bound")
    T = time_lap(eta)
    cutoff = build_cutoff(eta, T, R)
    ext = cutoff.exterior_box(d)
    box = grid.domain
    tol = 1e-9
    # the grid's box holds the support box on every axis, centres included
    if (box.t_min > ext.t_min + tol or box.t_max < ext.t_max - tol
            or np.any(np.abs(box.x_center - ext.x_center) + ext.rx
                      > box.rx + tol)
            or np.any(np.abs(box.v_center - ext.v_center) + ext.rv
                      > box.rv + tol)):
        raise ValueError("grid must cover the cutoff support box")

    zero_frac = zero_fraction(f, eta)
    sup_f = float(np.max(f.values))
    q1 = q_one(d)
    pars = theta0_parameters(eta, d)
    theta0, delta0 = pars["theta0"], pars["delta0"]
    log_m = pars["log_kernel_min"]

    psi = cutoff.evaluate(*grid.open_coords)
    gap = sup_f - f.values

    h = solve_cauchy(ScalarField(grid, f.values * psi.lk))
    p_r = solve_cauchy(ScalarField(grid, gap * psi.transport))
    e_r = solve_cauchy(ScalarField(grid, gap * psi.lap_v))

    # closed-form constant for the E_R claim: the maximum principle gives
    # |E_R| <= (time span) * sup|rhs| and sup|rhs| <= sup f * sup|Lap_v Psi1| / R^2
    c_e = (1.0 + eta**2) * sup_f * float(np.max(np.abs(psi.lap_v1)))

    sup_h_q1 = norms(h, q1).sup
    min_p_q1 = norms(p_r, q1).inf
    sup_e_q1 = norms(e_r, q1).sup
    sup_e_abs = float(np.max(np.abs(e_r.values)))
    recon = psi.psi * sup_f - p_r.values + e_r.values
    decomposition_error = float(np.max(np.abs(h.values - recon)))

    return {
        "theta0": theta0, "delta0": delta0, "log_kernel_min": log_m,
        "R": R, "eta": eta, "T": T, "sup_f": sup_f,
        "zero_fraction": zero_frac,
        "h": h, "P_R": p_r, "E_R": e_r,
        "sup_h_Q1": sup_h_q1, "min_P_Q1": min_p_q1,
        "sup_E_Q1": sup_e_q1, "sup_E_abs": sup_e_abs, "c_e": c_e,
        "passed_h": sup_h_q1 <= theta0 * sup_f + 1e-12,
        "passed_P": min_p_q1 >= delta0 - 1e-12,
        "passed_E": sup_e_abs <= c_e / R**2 + 1e-9,
        "decomposition_error": decomposition_error,
        "shell_h": _shell_share(h), "shell_P": _shell_share(p_r),
        "shell_E": _shell_share(e_r),
    }
