"""Phase-space geometry: Galilean group, kinetic scaling, slanted cylinders.

The phase space is R x R^d x R^d with points z = (t, x, v).  The group
product z1 o z2 = (t1+t2, x1+x2+t2*v1, v1+v2) encodes Galilean frame
changes and the scaling S_r(z) = (r^2 t, r^3 x, r v) is the invariance
of kinetic Fokker-Planck equations.  Cylinders Q_r(z0) are slanted along
the free transport characteristics of the center velocity.

All membership predicates and cylinder-in-cylinder inclusions are
evaluated in closed form (the slant is affine in time, so suprema over a
cylinder are attained at time endpoints); nothing here is sampled.

Points and cylinders may be batches: a PhasePoint with ``t`` of shape
(...) and ``x``, ``v`` of shape (..., d) is that many points, and a
Cylinder over such a center (with a scalar radius or one of shape (...))
is that many cylinders.  The group law, the scaling and the inclusion
predicates then work elementwise, with the arithmetic of the single-point
case, so every batch element equals the scalar call bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhasePoint",
    "Cylinder",
    "BoxCylinder",
    "StackedCylinder",
    "StackedSequence",
    "PopParameters",
    "group_product",
    "group_inverse",
    "scale",
    "origin",
    "ball_volume",
    "cylinder_in_box",
    "cylinder_in_cylinder",
    "stack_cylinders",
    "pop_parameters",
    "q_minus",
    "q_plus",
    "q_zero",
    "q_pos",
    "q_one",
    "q_bar",
    "OMEGA_MAX",
]

#: Largest admissible scale parameter for the cylinder-stacking construction.
OMEGA_MAX = 1e-2


def _as_vec(a) -> np.ndarray:
    out = np.atleast_1d(np.asarray(a, dtype=float))
    if out.ndim != 1:
        raise ValueError("coordinate must be a scalar or 1-d vector")
    return out


def _col(a) -> np.ndarray:
    """a[..., None]: one scalar per point, lined up against (..., d) vectors."""
    return np.asarray(a)[..., None]


def _scalar_or_batch(mask):
    """A Python bool for a single point or cylinder, the array for a batch."""
    return bool(mask) if np.ndim(mask) == 0 else mask


@dataclass(frozen=True)
class PhasePoint:
    """A point z = (t, x, v) in R^(1+2d), or a batch of points.

    A single point has a float ``t`` and 1-d ``x``, ``v``; a batch has
    ``t`` of shape (...) and ``x``, ``v`` of shape (..., d).
    """

    t: float | np.ndarray
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if np.ndim(self.t) == 0:
            t = float(self.t)
            x, v = np.atleast_1d(x), np.atleast_1d(v)
        else:
            t = np.asarray(self.t, dtype=float)
        if x.shape != v.shape or x.shape[:-1] != np.shape(t):
            raise ValueError(
                f"x and v must have shape t.shape + (d,), got {x.shape} and "
                f"{v.shape} for t of shape {np.shape(t)}"
            )
        if not (np.isfinite(t).all() and np.isfinite(x).all() and np.isfinite(v).all()):
            raise ValueError("phase point coordinates must be finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def d(self) -> int:
        return self.x.shape[-1]

    def __getitem__(self, index) -> "PhasePoint":
        """The point (or sub-batch) at ``index`` of the batch axes."""
        return PhasePoint(self.t[index], self.x[index], self.v[index])

    def __iter__(self):
        yield self.t
        yield self.x
        yield self.v


def origin(d: int) -> PhasePoint:
    return PhasePoint(0.0, np.zeros(d), np.zeros(d))


def group_product(z1: PhasePoint, z2: PhasePoint) -> PhasePoint:
    """Non-commutative product (t1+t2, x1+x2+t2*v1, v1+v2)."""
    if z1.d != z2.d:
        raise ValueError(f"dimension mismatch: {z1.d} vs {z2.d}")
    return PhasePoint(z1.t + z2.t, z1.x + z2.x + _col(z2.t) * z1.v, z1.v + z2.v)


def group_inverse(z: PhasePoint) -> PhasePoint:
    """Inverse element (-t, -x + t v, -v)."""
    return PhasePoint(-z.t, -z.x + _col(z.t) * z.v, -z.v)


def scale(r: float, z: PhasePoint) -> PhasePoint:
    """Kinetic scaling S_r(z) = (r^2 t, r^3 x, r v), r > 0."""
    if r <= 0:
        raise ValueError(f"scaling parameter must be positive, got {r}")
    return PhasePoint(r * r * z.t, r**3 * z.x, r * z.v)


def ball_volume(d: int, radius: float) -> float:
    """Lebesgue measure of the Euclidean d-ball."""
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1) * radius**d


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.square(a), axis=-1))


def _unit_coords(base: "Cylinder", t, x, v):
    """(k*k*s, |k**3 (x - x0 - s v0)|, |k (v - v0)|) with k = fl(1/r) and
    s = t - t0, in the arithmetic of ``scale(1/r, .)``.  Slanted regions
    compare these against unit bounds, so z lies in a region over Q_r(0)
    exactly when S_{1/r}(z) lies in the one over Q_1(0), also on the
    boundary, where comparing |v| < r directly would round differently."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    z0 = base.center
    k = 1.0 / base.r
    s = t - z0.t
    s_unit = k * k * s
    x_unit = _norm(_col(k**3) * (x - z0.x - _col(s) * z0.v))
    v_unit = _norm(_col(k) * (v - z0.v))
    return s_unit, x_unit, v_unit


@dataclass(frozen=True)
class Cylinder:
    """Slanted cylinder Q_r(z0), top-centered at z0.

    Membership is tested in normalised coordinates (see ``_unit_coords``):
    with k = fl(1/r) and s = t - t0, a point is inside iff::

        -1 < k*k*s <= 0,
        |k**3 * (x - x0 - s v0)| < 1,
        |k * (v - v0)| < 1.

    ``r`` is a float, or an array of shape (...) for a batch of centers.
    """

    center: PhasePoint
    r: float | np.ndarray

    def __post_init__(self):
        r = float(self.r) if np.ndim(self.r) == 0 else np.asarray(self.r, dtype=float)
        object.__setattr__(self, "r", r)
        if np.any(r <= 0):
            raise ValueError(f"cylinder radius must be positive, got {self.r}")

    @property
    def d(self) -> int:
        return self.center.d

    def contains(self, t, x, v) -> np.ndarray:
        """Vectorized membership; t shape (...), x and v shape (..., d)."""
        s_unit, x_unit, v_unit = _unit_coords(self, t, x, v)
        return (-1.0 < s_unit) & (s_unit <= 0.0) & (x_unit < 1.0) & (v_unit < 1.0)

    def contains_point(self, z: PhasePoint) -> bool:
        return _scalar_or_batch(self.contains(z.t, z.x, z.v))

    def contains_via_group(self, z: PhasePoint) -> bool:
        """Equivalent membership z0^{-1} o z in Q_r(0)."""
        w = group_product(group_inverse(self.center), z)
        ref = Cylinder(origin(self.d), self.r)
        return ref.contains_point(w)

    def box_hull(self) -> "BoxCylinder":
        """The box (t0 - r^2, t0] x B_{r^3 + r^2 |v0|}(x0) x B_r(v0) holding
        Q_r(z0): along the slant the x-section center moves by at most
        r^2 |v0|.  Single cylinders only."""
        z0, r = self.center, self.r
        speed = float(np.sqrt(np.sum(z0.v**2)))
        return BoxCylinder(z0.t - r**2, z0.t, z0.x, r**3 + r**2 * speed, z0.v, r)

    def volume(self) -> float:
        d = self.d
        return self.r**2 * ball_volume(d, self.r**3) * ball_volume(d, self.r)

    def stacked(self, m: int) -> "StackedCylinder":
        return StackedCylinder(self, m)


@dataclass(frozen=True)
class StackedCylinder:
    """Forward-in-time stack over a cylinder: m copies along the slant.

    Membership: 0 < t-t0 <= m r^2, |x-x0-(t-t0)v0| < (m+2) r^3, |v-v0| < r,
    tested in the normalised coordinates of the base (``_unit_coords``):
    0 < k*k*s <= m, |k**3 (x - x0 - s v0)| < m + 2, |k (v - v0)| < 1.
    """

    base: Cylinder
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"stack count m must be >= 1, got {self.m}")

    def contains(self, t, x, v) -> np.ndarray:
        s_unit, x_unit, v_unit = _unit_coords(self.base, t, x, v)
        m = self.m
        return (0.0 < s_unit) & (s_unit <= m) & (x_unit < m + 2) & (v_unit < 1.0)

    def contains_point(self, z: PhasePoint) -> bool:
        return _scalar_or_batch(self.contains(z.t, z.x, z.v))


@dataclass(frozen=True)
class BoxCylinder:
    """Axis-aligned cylinder I x B^x x B^v with half-open time interval (a, b]."""

    t_min: float
    t_max: float
    x_center: np.ndarray
    rx: float
    v_center: np.ndarray
    rv: float

    def __post_init__(self):
        object.__setattr__(self, "x_center", _as_vec(self.x_center))
        object.__setattr__(self, "v_center", _as_vec(self.v_center))
        if not self.t_min < self.t_max:
            raise ValueError("time interval must satisfy a < b")
        if self.rx <= 0 or self.rv <= 0:
            raise ValueError("ball radii must be positive")

    @property
    def d(self) -> int:
        return self.x_center.size

    def contains(self, t, x, v) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        in_t = (self.t_min < t) & (t <= self.t_max)
        in_x = _norm(x - self.x_center) < self.rx
        in_v = _norm(v - self.v_center) < self.rv
        return in_t & in_x & in_v

    def contains_point(self, z: PhasePoint) -> bool:
        return _scalar_or_batch(self.contains(z.t, z.x, z.v))

    def volume(self) -> float:
        d = self.d
        return (self.t_max - self.t_min) * ball_volume(d, self.rx) * ball_volume(d, self.rv)


# Reference regions of the Harnack geometry (all at dimension d).


def q_minus(omega: float, d: int = 1) -> BoxCylinder:
    """Past cylinder (-1, -1+omega^2] x B_{omega^3} x B_omega."""
    return BoxCylinder(-1.0, -1.0 + omega**2, np.zeros(d), omega**3, np.zeros(d), omega)


def q_plus(omega: float, d: int = 1) -> Cylinder:
    """Future cylinder (-omega^2, 0] x B_{omega^3} x B_omega = Q_omega(0)."""
    return Cylinder(origin(d), omega)


def q_zero(eta: float, d: int = 1) -> BoxCylinder:
    """Vanishing-set cylinder (-1-eta^2, -1] x B_{eta^3} x B_eta."""
    return BoxCylinder(-1.0 - eta**2, -1.0, np.zeros(d), eta**3, np.zeros(d), eta)


def q_pos(theta: float, d: int = 1) -> BoxCylinder:
    """Positivity cylinder (-1-theta^2, -1] x B_{theta^3} x B_theta."""
    return BoxCylinder(-1.0 - theta**2, -1.0, np.zeros(d), theta**3, np.zeros(d), theta)


def q_one(d: int = 1) -> BoxCylinder:
    """Unit cylinder Q_1 = (-1, 0] x B_1 x B_1 (at the origin the slant vanishes)."""
    return BoxCylinder(-1.0, 0.0, np.zeros(d), 1.0, np.zeros(d), 1.0)


def q_bar(m: int, d: int = 1) -> BoxCylinder:
    """Stacked unit cylinder Qbar_1^m = (0, m] x B_{m+2} x B_1."""
    return BoxCylinder(0.0, float(m), np.zeros(d), float(m + 2), np.zeros(d), 1.0)


def cylinder_in_box(Q: Cylinder, B: BoxCylinder, tol: float = 0.0) -> bool:
    """Closed-form test Q_r(z0) subset of I x B^x x B^v.

    The x-section center drifts affinely along x0 + s v0 for
    s in (-r^2, 0], so the norm is maximized at an endpoint.  Elementwise
    over a batch of cylinders.
    """
    z0, r = Q.center, Q.r
    in_t = (z0.t <= B.t_max + tol) & (z0.t - r**2 >= B.t_min - tol)
    in_v = _norm(z0.v - B.v_center) + r <= B.rv + tol
    drift = np.maximum(
        _norm(z0.x - B.x_center),
        _norm(z0.x - _col(r**2) * z0.v - B.x_center),
    )
    return _scalar_or_batch(in_t & in_v & (drift + r**3 <= B.rx + tol))


def cylinder_in_cylinder(Qin: Cylinder, Qout: Cylinder, tol: float = 0.0) -> bool:
    """Closed-form test Q_rin(z_in) subset of Q_rout(z_out).

    For z in the inner cylinder at offset s = t - t_in, the outer slant
    functional |x - x_out - (t - t_out) v_out| is bounded by
    |x_in - x_out - dt*v_out + s (v_in - v_out)| + rin^3 with
    dt = t_in - t_out, affine in s, hence maximized at s in {0, -rin^2}.
    Elementwise over batches of inner and/or outer cylinders.
    """
    zi, ri = Qin.center, Qin.r
    zo, ro = Qout.center, Qout.r
    dt = zi.t - zo.t
    dv = zi.v - zo.v
    in_t = (dt <= tol) & (zi.t - ri**2 >= zo.t - ro**2 - tol)
    in_v = _norm(dv) + ri <= ro + tol
    base = zi.x - zo.x - _col(dt) * zo.v
    drift = np.maximum(_norm(base), _norm(base - _col(ri**2) * dv))
    return _scalar_or_batch(in_t & in_v & (drift + ri**3 <= ro**3 + tol))


@dataclass(frozen=True)
class StackedSequence:
    """The growing sequence of cylinders stacked over a base Q_r(z0) in Q_-."""

    base: Cylinder
    omega: float
    T: list[float]          # partial sums T_k = sum_{j<=k} (2^j r)^2, k = 1..N+1
    centers: list[PhasePoint]  # z_k = z0 o (T_k, 0, 0), k = 1..N
    N: int
    rho: float
    R: float
    R_last: float           # radius of Q[N+1]
    cylinders: list[Cylinder] = field(default_factory=list)  # Q[1..N+1]
    predecessor: Cylinder | None = None  # Qtilde[N]

    @property
    def last(self) -> Cylinder:
        return self.cylinders[-1]


def stack_cylinders(z0: PhasePoint, r: float, omega: float) -> StackedSequence:
    """Build the stacking sequence over Q_r(z0) subset of Q_-.

    Cylinders Q[k] = Q_{2^k r}(z_k) with z_k = z0 o (T_k, 0, 0) double in
    radius until the remaining time is exhausted; the last cylinder
    Q[N+1] is re-centered so that its predecessor sits inside Q[N].
    Guarantees (asserted in closed form):

    * Q_+ subset of Q[N+1],
    * every Q[k] subset of (-1, 0] x B_2 x B_2,
    * Qtilde[N] subset of Q[N],
    * 2^N r >= 1/(2 sqrt 2).
    """
    if not 0 < omega <= OMEGA_MAX:
        raise ValueError(f"scale parameter must lie in (0, {OMEGA_MAX}], got {omega}")
    d = z0.d
    base = Cylinder(z0, r)
    if not cylinder_in_box(base, q_minus(omega, d)):
        raise ValueError("base cylinder is not contained in Q_-")

    t0 = z0.t
    T: list[float] = []
    k = 0
    while True:
        k += 1
        Tk = (T[-1] if T else 0.0) + (2**k * r) ** 2
        T.append(Tk)
        if Tk > -t0:
            break
    N = len(T) - 1  # T_N <= -t0 < T_{N+1}

    centers = [group_product(z0, PhasePoint(T[k - 1], np.zeros(d), np.zeros(d))) for k in range(1, N + 1)]
    cylinders = [Cylinder(centers[k - 1], 2**k * r) for k in range(1, N + 1)]

    rho = (4.0 * omega) ** (1.0 / 3.0)
    R = abs(t0 + T[N - 1]) ** 0.5
    R_last = max(R, rho)
    if R >= rho:
        z_last = group_product(centers[-1], PhasePoint(R**2, np.zeros(d), np.zeros(d)))
    else:
        z_last = origin(d)
    cylinders.append(Cylinder(z_last, R_last))

    pred_center = group_product(z_last, PhasePoint(-(R_last**2), np.zeros(d), np.zeros(d)))
    predecessor = Cylinder(pred_center, R_last / 2.0)

    return StackedSequence(
        base=base,
        omega=omega,
        T=T,
        centers=centers,
        N=N,
        rho=rho,
        R=R,
        R_last=R_last,
        cylinders=cylinders,
        predecessor=predecessor,
    )


def check_stacking(seq: StackedSequence, tol: float = 1e-12) -> dict[str, bool]:
    """Closed-form verification of the three stacking guarantees plus the
    lower bound on the radius of Q[N]."""
    d = seq.base.d
    envelope = BoxCylinder(-1.0, 0.0, np.zeros(d), 2.0, np.zeros(d), 2.0)
    return {
        "q_plus_captured": cylinder_in_cylinder(q_plus(seq.omega, d), seq.last, tol=tol),
        "union_in_envelope": all(cylinder_in_box(Q, envelope, tol=tol) for Q in seq.cylinders),
        "predecessor_inside": cylinder_in_cylinder(seq.predecessor, seq.cylinders[seq.N - 1], tol=tol),
        "radius_lower_bound": 2**seq.N * seq.base.r >= 1.0 / (2.0 * math.sqrt(2.0)) - tol,
    }


@dataclass(frozen=True)
class PopParameters:
    """Parameters of the positivity-expansion construction at aperture theta."""

    theta: float
    iota: float
    eta: float
    time_lap: float  # gap between the top of the vanishing cylinder and t = -1


def pop_parameters(theta: float) -> PopParameters:
    """Scaling margin iota, Poincare aperture eta and time lap T for theta in (0, 1].

    iota = min(4(1+theta^2)/(4+theta^2) - 1, (9/8)^(1/6) - 1, (3/2)^(1/2) - 1),
    eta  = (5/4)^(-1/5) (1+iota)^(-1) theta,
    T    = eta^2 / 8.
    """
    if not 0 < theta <= 1:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    iota = min(
        4.0 * (1.0 + theta**2) / (4.0 + theta**2) - 1.0,
        (9.0 / 8.0) ** (1.0 / 6.0) - 1.0,
        (3.0 / 2.0) ** 0.5 - 1.0,
    )
    eta = (5.0 / 4.0) ** (-1.0 / 5.0) / (1.0 + iota) * theta
    T = eta**2 / 8.0

    # Consistency of the construction; all hold in exact arithmetic.
    assert 0 < eta < theta
    assert 0 < T < eta**2
    assert 2.0 * (1.0 + iota) ** 2 <= 3.0 + 1e-12
    assert 8.0 * (1.0 + iota) ** 6 <= 9.0 + 1e-12
    assert theta >= (5.0 / 4.0) ** 0.2 * (1.0 + iota) * eta - 1e-12
    return PopParameters(theta=theta, iota=iota, eta=eta, time_lap=T)
