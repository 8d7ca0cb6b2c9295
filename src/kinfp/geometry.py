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
case, so every batch element equals the scalar call bit for bit.  Powers of
a radius go through ``radius_power``, whose array case rounds as Python's
float ``pow`` does; numpy's array ``**`` may round differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

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
    "time_lap",
    "radius_power",
    "uniform_from",
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


def _col(a) -> np.ndarray:
    """a[..., None]: one scalar per point, lined up against (..., d) vectors."""
    return np.asarray(a)[..., None]


def _scalar_or_batch(mask):
    """A Python bool for a single point or cylinder, the array for a batch."""
    return bool(mask) if np.ndim(mask) == 0 else mask


_pow_each = np.frompyfunc(pow, 2, 1)


def radius_power(r, e):
    """r ** e, also for an array r, where it is taken element by element
    with Python's float ``pow``.  numpy's array ``**`` may round otherwise
    (its vector loops can give another last bit, for about 5% of random
    cubes with numpy 2.4.6 on x86-64), so a batch would not equal its
    single-element calls."""
    if not isinstance(r, np.ndarray) or r.ndim == 0:
        return r**e
    return _pow_each(r.astype(float, copy=False), e).astype(float)


def uniform_from(u, lo, hi):
    """The draw ``rng.uniform(lo, hi)`` makes from ``u = rng.random()``, in
    numpy's own arithmetic: columns of one ``rng.random((n, k))`` call turn
    into n rows of k interleaved ``uniform`` calls, bit for bit."""
    return lo + (hi - lo) * u


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
    return PhasePoint(r * r * z.t, radius_power(r, 3) * z.x, r * z.v)


def ball_volume(d: int, radius: float) -> float:
    """Lebesgue measure of the Euclidean d-ball."""
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1) * radius_power(radius, d)


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.square(a), axis=-1))


def _speed(z: PhasePoint):
    """|v| of a point (a float) or of each point of a batch."""
    speed = _norm(z.v)
    return float(speed) if np.ndim(speed) == 0 else speed


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
    x_unit = _norm(_col(radius_power(k, 3)) * (x - z0.x - _col(s) * z0.v))
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
    A batch tests points whose shapes broadcast against it from the right:
    t of shape (..., B), x and v of shape (..., B, d) for B cylinders.
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

    def __getitem__(self, index) -> "Cylinder":
        """The cylinder (or sub-batch) at ``index`` of the batch axes."""
        r = self.r if np.ndim(self.r) == 0 else self.r[index]
        return Cylinder(self.center[index], r)

    def contains_via_group(self, z: PhasePoint) -> bool:
        """Equivalent membership z0^{-1} o z in Q_r(0)."""
        w = group_product(group_inverse(self.center), z)
        ref = Cylinder(origin(self.d), self.r)
        return ref.contains_point(w)

    def box_hull(self) -> "BoxCylinder":
        """The box (t0 - r^2, t0] x B_{r^3 + r^2 |v0|}(x0) x B_r(v0) holding
        Q_r(z0): along the slant the x-section center moves by at most
        r^2 |v0|.  A batch of cylinders gives a batch of boxes."""
        z0, r = self.center, self.r
        r2 = radius_power(r, 2)
        return BoxCylinder(z0.t - r2, z0.t, z0.x,
                           radius_power(r, 3) + r2 * _speed(z0), z0.v, r)

    def volume(self) -> float:
        d, r = self.d, self.r
        return (radius_power(r, 2) * ball_volume(d, radius_power(r, 3))
                * ball_volume(d, r))

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

    def box_hull(self) -> "BoxCylinder":
        """The box (t0, t0 + m r^2] x B_{(m+2) r^3 + m r^2 |v0|}(x0) x
        B_r(v0) holding the stack: over its m r^2 of time the slant moves
        the x-section center by at most m r^2 |v0|."""
        z0, r, m = self.base.center, self.base.r, self.m
        r2 = radius_power(r, 2)
        return BoxCylinder(z0.t, z0.t + m * r2, z0.x,
                           (m + 2) * radius_power(r, 3) + m * r2 * _speed(z0),
                           z0.v, r)


@dataclass(frozen=True)
class BoxCylinder:
    """Axis-aligned cylinder I x B^x x B^v with half-open time interval (a, b].

    A batch of boxes has t_min, t_max, rx, rv of shape (...) and centers of
    shape (..., d); points broadcast against it as against a batch of
    ``Cylinder``s.
    """

    t_min: float
    t_max: float
    x_center: np.ndarray
    rx: float
    v_center: np.ndarray
    rv: float

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x_center, dtype=float))
        v = np.atleast_1d(np.asarray(self.v_center, dtype=float))
        if np.ndim(self.t_min) == 0 and (x.ndim != 1 or v.ndim != 1):
            raise ValueError("coordinate must be a scalar or 1-d vector")
        object.__setattr__(self, "x_center", x)
        object.__setattr__(self, "v_center", v)
        if not np.all(self.t_min < self.t_max):
            raise ValueError("time interval must satisfy a < b")
        if np.any(self.rx <= 0) or np.any(self.rv <= 0):
            raise ValueError("ball radii must be positive")

    @property
    def d(self) -> int:
        return self.x_center.shape[-1]

    def __eq__(self, other) -> bool:
        """Field by field with ``np.array_equal``: the centers are arrays,
        whose ``==`` has no truth value at d >= 2."""
        if not isinstance(other, BoxCylinder):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

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

    def box_hull(self) -> "BoxCylinder":
        """The box itself, so that every region type has a box hull."""
        return self

    def volume(self) -> float:
        d = self.d
        return (self.t_max - self.t_min) * ball_volume(d, self.rx) * ball_volume(d, self.rv)


# Reference regions of the Harnack geometry (all at dimension d).


def q_minus(omega: float, d: int = 1) -> BoxCylinder:
    """Past cylinder (-1, -1+omega^2] x B_{omega^3} x B_omega."""
    return BoxCylinder(-1.0, -1.0 + radius_power(omega, 2), np.zeros(d),
                       radius_power(omega, 3), np.zeros(d), omega)


def q_plus(omega: float, d: int = 1) -> Cylinder:
    """Future cylinder (-omega^2, 0] x B_{omega^3} x B_omega = Q_omega(0)."""
    return Cylinder(origin(d), omega)


def q_zero(eta: float, d: int = 1) -> BoxCylinder:
    """Vanishing-set cylinder (-1-eta^2, -1] x B_{eta^3} x B_eta."""
    return BoxCylinder(-1.0 - radius_power(eta, 2), -1.0, np.zeros(d),
                       radius_power(eta, 3), np.zeros(d), eta)


def q_pos(theta: float, d: int = 1) -> BoxCylinder:
    """Positivity cylinder (-1-theta^2, -1] x B_{theta^3} x B_theta: the
    vanishing-set cylinder's shape at aperture theta."""
    return q_zero(theta, d)


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
    over a batch of cylinders and/or boxes.
    """
    z0, r = Q.center, Q.r
    r2 = radius_power(r, 2)
    in_t = (z0.t <= B.t_max + tol) & (z0.t - r2 >= B.t_min - tol)
    in_v = _norm(z0.v - B.v_center) + r <= B.rv + tol
    drift = np.maximum(
        _norm(z0.x - B.x_center),
        _norm(z0.x - _col(r2) * z0.v - B.x_center),
    )
    return _scalar_or_batch(in_t & in_v & (drift + radius_power(r, 3) <= B.rx + tol))


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
    ri2 = radius_power(ri, 2)
    dt = zi.t - zo.t
    dv = zi.v - zo.v
    in_t = (dt <= tol) & (zi.t - ri2 >= zo.t - radius_power(ro, 2) - tol)
    in_v = _norm(dv) + ri <= ro + tol
    base = zi.x - zo.x - _col(dt) * zo.v
    drift = np.maximum(_norm(base), _norm(base - _col(ri2) * dv))
    return _scalar_or_batch(
        in_t & in_v & (drift + radius_power(ri, 3) <= radius_power(ro, 3) + tol))


@dataclass(frozen=True)
class StackedSequence:
    """The growing sequence of cylinders stacked over a base Q_r(z0) in Q_-,
    or over each base of a batch.

    For one base, ``T`` lists T_1..T_{N+1}, ``cylinders`` lists Q[1..N+1]
    (the last one re-centered) and ``N``, ``R``, ``R_last`` are numbers.  For
    a batch of B bases, ``T`` is a (B, K) array of T_1..T_K and
    ``cylinders`` a (B, K) batch of the doubling cylinders Q_{2^k r}(z_k);
    base b uses the columns k <= N[b], and ``last`` holds its Q[N+1].
    ``N``, ``R`` and ``R_last`` are then arrays of shape (B,).
    """

    base: Cylinder
    omega: float
    T: list[float] | np.ndarray   # partial sums T_k = sum_{j<=k} (2^j r)^2
    N: int | np.ndarray
    rho: float
    R: float | np.ndarray
    R_last: float | np.ndarray    # radius of Q[N+1]
    cylinders: list[Cylinder] | Cylinder
    last: Cylinder                # Q[N+1]
    predecessor: Cylinder         # Qtilde[N]


def stack_cylinders(z0: PhasePoint, r, omega: float) -> StackedSequence:
    """Build the stacking sequence over Q_r(z0) subset of Q_-.

    Cylinders Q[k] = Q_{2^k r}(z_k) with z_k = z0 o (T_k, 0, 0) double in
    radius until the remaining time is exhausted; the last cylinder
    Q[N+1] is re-centered so that its predecessor sits inside Q[N].
    Guarantees (checked in closed form by ``check_stacking``):

    * Q_+ subset of Q[N+1],
    * every Q[k] subset of (-1, 0] x B_2 x B_2,
    * Qtilde[N] subset of Q[N],
    * 2^N r >= 1/(2 sqrt 2).

    ``z0`` may be a batch of B bases (t of shape (B,)) with ``r`` of shape
    (B,): the partial sums are then built one column k at a time for all
    bases, with the arithmetic of the single-base case, and every base of
    the batch equals its single-base call bit for bit.  A single base is
    stacked as a batch of one.  Raises ValueError if a base cylinder is
    not inside Q_-.
    """
    if not 0 < omega <= OMEGA_MAX:
        raise ValueError(f"scale parameter must lie in (0, {OMEGA_MAX}], got {omega}")
    if np.ndim(z0.t) > 0:
        return _stack_batch(z0, r, omega)
    base = Cylinder(z0, r)
    batch = _cylinder_batch([base])
    one = _stack_batch(batch.center, batch.r, omega)
    n, last = int(one.N[0]), one.last[0]
    return replace(
        one, base=base, T=one.T[0, :n + 1].tolist(), N=n,
        R=float(one.R[0]), R_last=float(one.R_last[0]),
        cylinders=[one.cylinders[0, k] for k in range(n)] + [last],
        last=last, predecessor=one.predecessor[0])


def _stack_batch(z0: PhasePoint, r, omega: float) -> StackedSequence:
    """``stack_cylinders`` over a batch of bases."""
    d = z0.d
    r = np.asarray(r, dtype=float)
    base = Cylinder(z0, r)
    if not np.all(cylinder_in_box(base, q_minus(omega, d))):
        raise ValueError("base cylinder is not contained in Q_-")

    t0 = z0.t
    T, radii = [], []
    Tk = np.zeros_like(t0)
    while not T or not np.all(Tk > -t0):  # until T_N <= -t0 < T_{N+1}
        radii.append(2 ** (len(T) + 1) * r)  # 2^k r at k = len(T) + 1
        Tk = Tk + radius_power(radii[-1], 2)
        T.append(Tk)
    T, radii = np.stack(T, axis=-1), np.stack(radii, axis=-1)
    N = np.argmax(T > -t0[:, None], axis=-1)
    zero = np.zeros(T.shape + (d,))
    centers = group_product(z0[:, None], PhasePoint(T, zero, zero))
    cylinders = Cylinder(centers, radii)

    rows = np.arange(t0.size)
    rho = radius_power(4.0 * omega, 1.0 / 3.0)
    R = radius_power(np.abs(t0 + T[rows, N - 1]), 0.5)
    far = R >= rho
    R_last = np.where(far, R, rho)
    zero = np.zeros(t0.shape + (d,))
    ahead = group_product(centers[rows, N - 1],
                          PhasePoint(radius_power(R, 2), zero, zero))
    z_last = PhasePoint(np.where(far, ahead.t, 0.0),
                        np.where(far[:, None], ahead.x, 0.0),
                        np.where(far[:, None], ahead.v, 0.0))
    pred_center = group_product(
        z_last, PhasePoint(-radius_power(R_last, 2), zero, zero))
    return StackedSequence(
        base=base,
        omega=omega,
        T=T,
        N=N,
        rho=rho,
        R=R,
        R_last=R_last,
        cylinders=cylinders,
        last=Cylinder(z_last, R_last),
        predecessor=Cylinder(pred_center, R_last / 2.0),
    )


def check_stacking(seq: StackedSequence) -> dict:
    """Closed-form verification of the three stacking guarantees plus the
    lower bound on the radius of Q[N]: one bool per guarantee for a single
    base, one boolean array of shape (B,) for a batch of B bases.  A single
    sequence is checked on its own fields (``cylinders``, ``N``, ``last``,
    ``predecessor``), lined up as a batch of one."""
    if np.ndim(seq.N) > 0:
        return _check_stacks(seq.cylinders, seq.N, seq.last, seq.predecessor,
                             seq.omega)
    ok = _check_stacks(_cylinder_batch(seq.cylinders[:-1])[None],
                       np.array([seq.N]), _cylinder_batch([seq.last]),
                       _cylinder_batch([seq.predecessor]), seq.omega)
    return {key: bool(value[0]) for key, value in ok.items()}


def _check_stacks(cylinders: Cylinder, N: np.ndarray, last: Cylinder,
                  predecessor: Cylinder, omega: float) -> dict:
    """``check_stacking`` over B stacks: ``cylinders`` a (B, K) batch whose
    columns k <= N[b] are Q[1..N] of stack b, ``last`` and ``predecessor``
    batches of shape (B,)."""
    d, tol = last.d, 1e-12  # the slack of every closed-form test
    envelope = BoxCylinder(-1.0, 0.0, np.zeros(d), 2.0, np.zeros(d), 2.0)
    q_n = cylinders[np.arange(N.size), N - 1]
    unused = np.arange(np.shape(cylinders.r)[-1]) >= N[:, None]  # columns k > N
    in_envelope = cylinder_in_box(cylinders, envelope, tol=tol) | unused
    return {
        "q_plus_captured": cylinder_in_cylinder(q_plus(omega, d), last, tol=tol),
        "union_in_envelope": (np.all(in_envelope, axis=-1)
                              & cylinder_in_box(last, envelope, tol=tol)),
        "predecessor_inside": cylinder_in_cylinder(predecessor, q_n, tol=tol),
        "radius_lower_bound": q_n.r >= 1.0 / (2.0 * math.sqrt(2.0)) - tol,
    }


def _cylinder_batch(cylinders: list[Cylinder]) -> Cylinder:
    """Single cylinders as one batch of shape (len(cylinders),)."""
    return Cylinder(PhasePoint(np.array([Q.center.t for Q in cylinders]),
                               np.array([Q.center.x for Q in cylinders]),
                               np.array([Q.center.v for Q in cylinders])),
                    np.array([Q.r for Q in cylinders]))


@dataclass(frozen=True)
class PopParameters:
    """Parameters of the positivity-expansion construction at aperture theta."""

    theta: float
    iota: float
    eta: float
    time_lap: float  # gap between the top of the vanishing cylinder and t = -1


def time_lap(eta: float) -> float:
    """The time lap T = eta^2 / 8 at Poincare aperture eta (see
    ``pop_parameters``), also the cut t <= -1 - T of Q_zero."""
    return eta**2 / 8.0


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
    T = time_lap(eta)

    # Consistency of the construction; all hold in exact arithmetic.
    assert 0 < eta < theta
    assert 0 < T < eta**2
    assert 2.0 * (1.0 + iota) ** 2 <= 3.0 + 1e-12
    assert 8.0 * (1.0 + iota) ** 6 <= 9.0 + 1e-12
    assert theta >= (5.0 / 4.0) ** 0.2 * (1.0 + iota) * eta - 1e-12
    return PopParameters(theta=theta, iota=iota, eta=eta, time_lap=T)
