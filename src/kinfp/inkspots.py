"""Discrete covering inequality for boolean phase-space sets.

Implements the growing-ink-spots measure bound on grids: if every
high-density slanted cylinder inside the unit past cylinder Q_- has small
radius and its stacked extension lies in F, then

    |E| <= (m+1)/m * (1 - c mu) * ( |F meet Q_-| + C m r0^2 ).

Sets are boolean masks on a :class:`~kinfp.fields.Grid`; measures are cell
counts times the cell volume.  Candidate cylinders are grid-aligned
(centers on cell centers, radii from a supplied dyadic list) -- an
implementation restriction recorded in every report.  A cylinder or a
stacked extension is read on the grid through its window
(``Grid.window``): only the nodes of its padded box hull are tested.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .fields import BoxCylinder, Grid, broadcast_coords
from .geometry import (
    Cylinder,
    PhasePoint,
    _cylinder_batch,
    cylinder_in_cylinder,
    origin,
    radius_power,
    uniform_from,
)
from .report import HypothesisError, VerificationReport

__all__ = [
    "DiscreteSet",
    "unit_past_cylinder",
    "standard_grid",
    "find_dense_cylinders",
    "verify_inkspots",
    "generate_hypothesis_pair",
    "mask_to_rle",
    "rle_to_mask",
]


def unit_past_cylinder(d: int = 1) -> Cylinder:
    """The reference region Q_-: the unit slanted cylinder at the origin."""
    return Cylinder(origin(d), 1.0)


def standard_grid(n=(24, 24, 24), d: int = 1, t_max: float = 0.0) -> Grid:
    """Grid whose box hull covers Q_- (and optionally some future time)."""
    box = BoxCylinder(-1.0, max(t_max, 0.0), np.zeros(d), 2.0, np.zeros(d), 1.0)
    return Grid(box, *n)


@dataclass(frozen=True)
class DiscreteSet:
    """Boolean mask on a grid, measured against a reference cylinder.

    A set is a value: it keeps a read-only copy of the mask it is given, so
    what is derived from the mask (its summed-area table, its cell counts
    of the dense-cylinder scan) is computed once per set.  What depends on
    the grid and the region only (the region mask, the admissible centers
    and the count geometry of each radius) comes from the scan plan every
    set on them shares (``_scan_plan``).
    """

    grid: Grid
    mask: np.ndarray
    region: Cylinder

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)
        if mask.shape != self.grid.shape:
            raise ValueError("mask shape does not match grid shape")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @cached_property
    def region_mask(self) -> np.ndarray:
        """Cell centers inside the reference region (read-only), computed
        once per grid and region."""
        return _region_mask(self.grid, self.region)

    @cached_property
    def _scans(self) -> dict:
        return {}

    @cached_property
    def _summed_area(self) -> np.ndarray:
        """Summed-area table of a d = 1 mask per time row, raveled: entry
        (i, p, q) of the (n_t, n_x + 1, n_v + 1) table is
        mask[i, :p, :q].sum()."""
        nt, nx, nv = self.grid.shape
        sat = np.zeros((nt, nx + 1, nv + 1), dtype=np.int32)
        np.cumsum(self.mask, axis=1, dtype=np.int32, out=sat[:, 1:, 1:])
        np.cumsum(sat, axis=2, out=sat)
        return sat.ravel()

    def _counts(self, r: float):
        """(where, n_e, n_q) for the candidate cylinders Q_r(z0) whose cell
        center z0 makes Q lie inside the reference region: the flat grid
        indices of those centers in C order, and per center the cells of Q
        in the set and the cells of Q.  where (and n_q at d = 1) come from
        the scan plan; the counts are made once per radius and kept on the
        set, at d >= 2 per admissible center."""
        r = float(r)
        plan = _scan_plan(self.grid, self.region, r)
        if r not in self._scans:
            if plan.boxed is not None:
                self._scans[r] = (
                    _box_counts(plan.boxed, self._summed_area)[plan.at],
                    plan.n_q)
            else:
                centers = _cell_centers(self.grid)
                counts = [_cell_counts(self, Cylinder(centers[idx], r))
                          for idx in zip(*np.unravel_index(plan.where,
                                                           self.grid.shape))]
                self._scans[r] = tuple(
                    np.array(counts, dtype=np.int32).reshape(-1, 2).T)
        return (plan.where, *self._scans[r])

    @property
    def measure(self) -> float:
        """Measure of the set inside the reference region."""
        return float(
            np.count_nonzero(self.mask & self.region_mask)
            * self.grid.cell_volume
        )

    def restricted(self) -> "DiscreteSet":
        return DiscreteSet(self.grid, self.mask & self.region_mask, self.region)


# ---------------------------------------------------------------------------
# scan plans: what a dense-cylinder scan reads of a grid and region
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BoxPlan:
    """Count geometry of the d = 1 scan at one radius over a box of
    centers (``_box_plan``): ``n_q`` the cells of each center's cylinder,
    and per time offset a the first box row it counts and the summed-area
    table indices (4, rows, n_x box, n_v box) of the corners of each
    center's rectangle [lo, hi) x [v_lo, v_hi) on its point row i - a, in
    the order (hi, v_hi), (lo, v_hi), (hi, v_lo), (lo, v_lo)."""

    n_q: np.ndarray
    passes: tuple[tuple[int, np.ndarray], ...]


@dataclass(frozen=True)
class _ScanPlan:
    """What the dense-cylinder scan at one radius r reads of a grid and a
    region, the same for every set on them: the flat indices ``where``
    (C order) of the cell centers z0 whose cylinder Q_r(z0) lies in the
    region.  At d = 1 with admissible centers,
    ``boxed`` is the count geometry of their bounding box, ``at`` their
    indices in it and ``n_q`` the cells of each admissible cylinder;
    otherwise the three are None and a set counts cells per center.  Every
    array is read-only."""

    where: np.ndarray
    boxed: _BoxPlan | None
    at: tuple[np.ndarray, ...] | None
    n_q: np.ndarray | None


# entries kept at once, scan plans and region masks: a covering check scans
# two grids of one region at up to three radii each
_MAX_PLANS = 16
_PLANS: OrderedDict = OrderedDict()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _plan_key(grid: Grid, region: Cylinder) -> tuple:
    """The numbers that fix the grid's nodes and the region, bit for bit:
    the node counts and the bytes of the box's t_min, t_max, rx, rv,
    x_center, v_center and the region's center and radius."""
    box, z = grid.domain, region.center
    numbers = np.concatenate(([box.t_min, box.t_max, box.rx, box.rv],
                              box.x_center, box.v_center, [z.t], z.x, z.v,
                              [region.r]))
    return grid.n_t, grid.n_x, grid.n_v, numbers.tobytes()


def _cached(key: tuple, build):
    """The entry of ``_PLANS`` at key (a scan plan, or the region mask of a
    grid and region), built by ``build()`` on first use; the least
    recently used entry goes when the cache is full."""
    plan = _PLANS.pop(key, None)
    if plan is None:
        plan = build()
        if len(_PLANS) >= _MAX_PLANS:
            _PLANS.popitem(last=False)
    _PLANS[key] = plan
    return plan


def _region_mask(grid: Grid, region: Cylinder) -> np.ndarray:
    """The cell centers in the region as a full-grid mask filled from its
    window, read-only, once per grid and region."""
    def build():
        mask, (win, inside) = np.zeros(grid.shape, bool), grid.window(region)
        mask[win] = inside
        return _read_only(mask)

    return _cached(_plan_key(grid, region), build)


def _scan_plan(grid: Grid, region: Cylinder, r: float) -> _ScanPlan:
    """The scan plan of (grid, region, r), built on first use."""
    r = float(r)
    return _cached(_plan_key(grid, region) + (r,),
                   lambda: _build_scan_plan(grid, region, r))


def _build_scan_plan(grid: Grid, region: Cylinder, r: float) -> _ScanPlan:
    where = _read_only(np.flatnonzero(
        cylinder_in_cylinder(Cylinder(_cell_centers(grid), r), region)))
    if grid.d > 1 or not where.size:
        return _ScanPlan(where, None, None, None)
    # count the bounding box of the admissible centers only
    idx = np.unravel_index(where, grid.shape)
    box = tuple((int(i.min()), int(i.max()) + 1) for i in idx)
    at = tuple(_read_only(i - b) for i, (b, _) in zip(idx, box))
    boxed = _box_plan(grid, r, box)
    return _ScanPlan(where, boxed, at, _read_only(boxed.n_q[at]))


def _cell_centers(grid: Grid) -> PhasePoint:
    """The cell centers of the grid as one batch of points (views)."""
    return PhasePoint(*broadcast_coords(*grid.open_coords))


# cylinders per batch of _mark_stacks: a batch's membership holds its
# largest stack window once per cylinder
_MARK_BATCH = 256


def _mark_stacks(mask: np.ndarray, grid: Grid, cylinders: list[Cylinder],
                 m: int) -> None:
    """Set ``mask`` True on the cell centers of the stacked extensions
    ``Q.stacked(m)`` of a list of cylinders.  Cylinders of one radius are
    marked together, at most ``_MARK_BATCH`` per write (an index that
    repeats writes True again)."""
    for _, group in groupby(cylinders, key=lambda Q: Q.r):
        group = list(group)
        for i in range(0, len(group), _MARK_BATCH):
            batch = _cylinder_batch(group[i:i + _MARK_BATCH])
            win, inside = grid.window(batch.stacked(m))
            mask[tuple(j[inside] for j in np.broadcast_arrays(*win))] = True


def _cell_counts(E: DiscreteSet, Q: Cylinder):
    """(cells of Q meeting E, cells of Q) by counting cell centers."""
    win, inside = E.grid.window(Q)
    n_q = int(np.count_nonzero(inside))
    n_e = int(np.count_nonzero(E.mask[win] & inside))
    return n_e, n_q


def _default_radii(grid: Grid) -> list[float]:
    """Dyadic radii from 1 down to the smallest scale the grid resolves
    in time and velocity (density counting needs at least the center
    cell's neighborhood to be meaningful)."""
    floor = 2.0 * max(grid.dv, grid.dt**0.5)
    radii = []
    r = 1.0
    while r >= floor:
        radii.append(r)
        r /= 2.0
    return radii or [1.0]


def _unit_limit(c: float) -> float:
    """Least y >= 0 with fl(c * y) >= 1, for c > 0.

    Rounding is monotone and odd, so |fl(c * y)| < 1 exactly when
    |y| < this limit: one comparison stands in for the multiplication.
    """
    y = 1.0 / c
    while c * y >= 1.0:
        y = math.nextafter(y, 0.0)
    while c * y < 1.0:
        y = math.nextafter(y, math.inf)
    return y


def _box_plan(grid: Grid, r: float, box=None) -> _BoxPlan:
    """Count geometry of the d = 1 cylinders Q_r(z0) centered on a box of
    cell centers, the same for every set: the grid index ranges
    ((i0, i1), (j0, j1), (l0, l1)) of box, half open, in (t, x, v) order
    (the whole grid when None).  ``_box_counts`` applies it to a set; the
    counts match a brute-force scan exactly.

    Membership replicates the normalised comparisons of Cylinder.contains
    bit for bit.  For a center (i, j, l) and time offset a,
    fl(fl(x[j'] - x[j]) - fl(s v[l])) is monotone in j', so the x-indices
    passing |.| < x_lim form one interval; each endpoint is guessed from
    (s v -+ x_lim) / dx and stepped with the exact predicate until tight.
    The velocity indices passing |k (v[l'] - v[l])| < 1 form an interval
    independent of a.  n_q is the product of the two lengths; the cells of
    a set in the rectangle of the two intervals on time row i - a are one
    query of four corners on the set's summed-area table.  Every per-center
    array covers the box only; the points of its cylinders may lie
    anywhere on the grid.
    """
    g = grid
    t, x, v = g.t_nodes, g.x_axis[0], g.v_axis[0]
    nt, nx, nv = g.n_t, g.n_x, g.n_v
    (i0, i1), (j0, j1), (l0, l1) = box or ((0, nt), (0, nx), (0, nv))
    vmax = float(np.max(np.abs(v)))
    a_max = min(i1 - 1, int(np.ceil(r * r / g.dt)))
    b_max = min(nx - 1, int(np.ceil((r**3 + r * r * vmax) / g.dx)) + 1)
    c_max = min(nv - 1, int(np.ceil(r / g.dv)) + 1)
    k = 1.0 / r
    x_lim = _unit_limit(k**3)  # |k**3 * y| < 1 iff |y| < x_lim

    # velocity window [v_lo[l], v_lo[l] + n_v_in[l]) of each center l
    ls = np.arange(l0, l1)
    lp = ls[:, None] + np.arange(-c_max, c_max + 1)
    on_grid = (lp >= 0) & (lp < nv)
    lp = np.clip(lp, 0, nv - 1)
    v_in = on_grid & (np.abs(k * (v[lp] - v[ls, None])) < 1.0)
    n_v_in = np.count_nonzero(v_in, axis=1).astype(np.int32)
    v_lo = lp[ls - l0, np.argmax(v_in, axis=1)].astype(np.int32)
    v_hi = v_lo + n_v_in

    # flat summed-area table index of (row, p, q) is row_len row + x_len p + q
    row_len, x_len = (nx + 1) * (nv + 1), nv + 1
    n_q = np.zeros((i1 - i0, j1 - j0, l1 - l0), dtype=np.int32)
    passes = []
    js = np.arange(j0, j1, dtype=np.int32)[:, None]
    j_min = np.maximum(js - b_max, 0)
    j_end = np.minimum(js + b_max, nx - 1) + 1
    xs, vs = x[j0:j1, None], v[l0:l1]
    for a in range(a_max + 1):
        # centers in time rows [c0, i1), their points in [c0 - a, i1 - a)
        c0 = max(i0, a)
        s = t[c0 - a: i1 - a] - t[c0: i1]  # t_point - t_center
        s_unit = k * k * s
        in_t = (-1.0 < s_unit) & (s_unit <= 0.0)
        if not in_t.any():
            continue
        sv = (s[:, None] * vs)[:, None, :]  # fl(s v0), (i1 - c0, 1, l1 - l0)

        def x_offset(jp):
            """fl(fl(x[j'] - x[j]) - fl(s v0)) at x-indices jp per center."""
            out = g.x_at(jp)[0]
            out -= xs
            out -= sv
            return out

        # least j' with x_offset > -x_lim, greatest with x_offset < x_lim
        lo = js + np.ceil((sv - x_lim) / g.dx).astype(np.int32)
        while (step := x_offset(lo - 1) > -x_lim).any():
            lo -= step
        while (step := x_offset(lo) <= -x_lim).any():
            lo += step
        hi = js + 1 + np.floor((sv + x_lim) / g.dx).astype(np.int32)
        while (step := x_offset(hi) < x_lim).any():
            hi += step
        while (step := x_offset(hi - 1) >= x_lim).any():
            hi -= step
        # clip the x window [lo, hi) to the grid and to +-b_max; empty it
        # in rows outside the time range
        np.minimum(hi, j_end, out=hi)
        np.maximum(hi, 0, out=hi)
        np.maximum(lo, j_min, out=lo)
        np.minimum(lo, hi, out=lo)
        lo[~in_t] = hi[~in_t]
        n_q[c0 - i0:] += (hi - lo) * n_v_in
        # corners of the rectangle [lo, hi) x [v_lo, v_hi) of each center's
        # point row
        row_start = (np.arange(c0 - a, i1 - a, dtype=np.int32)
                     * row_len)[:, None, None]
        lo *= x_len
        lo += row_start
        hi *= x_len
        hi += row_start
        corners = np.stack([hi + v_hi, lo + v_hi, hi + v_lo, lo + v_lo])
        passes.append((c0 - i0, _read_only(corners)))
    return _BoxPlan(_read_only(n_q), tuple(passes))


def _box_counts(plan: _BoxPlan, summed_area: np.ndarray) -> np.ndarray:
    """Cells of a set in the cylinder of each center of the plan's box:
    the rectangle queries of every time offset on the set's flat
    summed-area table (``DiscreteSet._summed_area``)."""
    n_e = np.zeros(plan.n_q.shape, dtype=np.int32)
    for row, corners in plan.passes:
        inside_e, lo_v_hi, hi_v_lo, lo_v_lo = summed_area[corners]
        inside_e -= lo_v_hi
        inside_e -= hi_v_lo
        inside_e += lo_v_lo
        n_e[row:] += inside_e
    return n_e


def find_dense_cylinders(
    E: DiscreteSet, mu: float, radii=None
) -> list[Cylinder]:
    """Grid-aligned cylinders Q_r(z0) inside Q_- with |Q meet E| >= (1-mu)|Q|.

    Candidate centers run over the cell centers of E's grid; radii over the
    supplied list (default: the dyadic ladder from 1 down to the cell
    scale).  Containment in Q_- is exact (closed form, one batched
    ``cylinder_in_cylinder`` over all centers); density is cell counting.
    What depends on the grid, region and radius only -- the admissible
    centers and, at d = 1, the cells of each candidate and its
    summed-area corners on each time row -- is a scan plan built once per
    process and kept in a bounded cache (``_scan_plan``), so a set on a
    grid and region already scanned only counts its own cells: at d = 1
    one rectangle query per center and time offset on the set's
    summed-area table (``_box_counts``), over the bounding box of the
    admissible centers; at higher dimensions per admissible center.  The
    counts depend on E and r only, so E keeps them per radius
    (``DiscreteSet._counts``) and a later scan of E at another ``mu`` only
    applies its threshold.
    The list runs by radius, descending, then by center in C order.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    radii = list(_default_radii(E.grid) if radii is None else radii)
    if not radii:
        raise ValueError("radii list must be nonempty")
    if not E.mask.any():
        return []
    centers = _cell_centers(E.grid)
    out: list[Cylinder] = []
    for r in sorted(radii, reverse=True):
        r = float(r)
        where, n_e, n_q = E._counts(r)
        good = where[(n_q > 0) & (n_e >= (1.0 - mu) * n_q)]
        out.extend(Cylinder(centers[idx], r)
                   for idx in zip(*np.unravel_index(good, E.grid.shape)))
    return out


def verify_inkspots(
    E: DiscreteSet,
    F: DiscreteSet,
    mu: float,
    m: int,
    r0: float,
    c: float,
    C: float,
    radii=None,
) -> VerificationReport:
    """Evaluate |E| <= (m+1)/m (1 - c mu) ( |F meet Q_-| + C m r0^2 ).

    Hypotheses checked first: E inside F meet Q_-; every dense cylinder
    (scanned over ``radii``, default dyadic 1, 1/2, ... down to the cell
    scale) has r < r0 and its stacked extension Qbar^m lies in F.  The
    report carries the tightest c* for which the inequality holds at the
    given C.
    """
    if E.grid is not F.grid and E.grid != F.grid:
        raise ValueError("E and F must share a grid")
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0.0 < r0 < 1.0:
        raise ValueError("r0 must lie in (0, 1)")
    if np.any(E.mask & ~(F.mask & E.region_mask)):
        raise HypothesisError("E is not contained in F meet Q_-")
    dense = find_dense_cylinders(E, mu, radii)
    for Q in dense:
        if Q.r >= r0:
            raise HypothesisError(
                f"dense cylinder of radius {Q.r} >= r0 = {r0} at "
                f"(t={Q.center.t:.4f}, x={Q.center.x}, v={Q.center.v})"
            )
        win, bar = E.grid.window(Q.stacked(m))
        if np.any(bar & ~F.mask[win]):
            raise HypothesisError(
                f"stacked extension of the dense cylinder at "
                f"(t={Q.center.t:.4f}, x={Q.center.x}, v={Q.center.v}) "
                "leaves F"
            )
    lhs = E.measure
    f_measure = F.measure
    additive = C * m * r0**2
    base = f_measure + additive
    rhs = (m + 1) / m * (1.0 - c * mu) * base
    if base > 0:
        c_star = (1.0 - lhs * m / ((m + 1) * base)) / mu
        additive_share = additive / base
    else:
        c_star = additive_share = None
    return VerificationReport(
        inequality="ink-spots-covering",
        lhs=lhs,
        rhs=rhs,
        params={"mu": mu, "m": m, "r0": r0, "c": c, "C": C,
                "F_measure": f_measure, "dense_count": len(dense),
                "additive_share": additive_share,
                "candidate_class": "grid-aligned slanted cylinders",
                "c_star": c_star},
        passed=lhs <= rhs + 1e-15,
    )


def generate_hypothesis_pair(
    seed: int,
    k: int,
    m: int,
    r0: float,
    n=(24, 24, 24),
    d: int = 1,
) -> tuple[DiscreteSet, DiscreteSet]:
    """Deterministic (E, F) pair satisfying the covering hypotheses.

    E is a union of up to k cylinders of radius < r0/2 inside Q_-,
    intersected with a synthetic level set; F is the union of their stacked
    extensions together with E.  All 50 k candidate cylinders are drawn at
    once, and the first k of them in draw order that lie in Q_- and hold a
    cell center are placed.  A final rejection sweep removes E-cells of any
    accidentally dense cylinder with radius >= r0, so the hypotheses hold
    by construction on the discrete grid.
    """
    if not 0.0 < r0 < 1.0:
        raise ValueError("r0 must lie in (0, 1)")
    if k < 0:
        raise ValueError("k must be >= 0")
    rng = np.random.default_rng(seed)
    grid = standard_grid(n, d, t_max=m * (r0 / 2.0) ** 2)
    region = unit_past_cylinder(d)
    T, X, V = grid.open_coords
    e_mask = np.zeros(grid.shape, dtype=bool)
    f_mask = np.zeros(grid.shape, dtype=bool)
    # smooth synthetic level set
    w = np.sin(3.0 * rng.uniform(0.5, 2.0) * T)
    for kk in range(d):
        w = w + np.cos(2.0 * rng.uniform(0.5, 2.0) * X[..., kk]) \
              + np.sin(4.0 * rng.uniform(0.5, 2.0) * V[..., kk])
    level = w >= np.quantile(w, 0.35)
    # candidate i is drawn as rng.uniform calls for r, t0, x0 (d), v0 (d)
    u = rng.random((50 * k, 2 + 2 * d))
    r = uniform_from(u[:, 0], 0.5, 1.0) * r0 / 2.0
    rc = r[:, None]
    candidates = Cylinder(PhasePoint(
        uniform_from(u[:, 1], -1.0 + radius_power(r, 2), 0.0),
        uniform_from(u[:, 2:2 + d], -0.5, 0.5),
        uniform_from(u[:, 2 + d:], -0.9 + rc, 0.9 - rc)), r)
    _, padded = grid.window(candidates)
    hits = (cylinder_in_cylinder(candidates, region)
            & np.any(padded, axis=tuple(range(padded.ndim - 1))))
    for i in np.flatnonzero(hits)[:k]:
        Q = candidates[i]
        win, inside = grid.window(Q)
        e_mask[win] |= inside & level[win]
        f_mask[win] |= inside
        win, bar = grid.window(Q.stacked(m))
        f_mask[win] |= bar
    e_mask &= _region_mask(grid, region)
    f_mask |= e_mask
    E = DiscreteSet(grid, e_mask, region)
    # rejection sweep: no dense cylinder with radius >= r0 may survive
    # (scanned over the same default radii verify_inkspots uses)
    all_radii = _default_radii(grid)
    big_radii = [r for r in all_radii if r >= r0]
    if big_radii:
        for _ in range(8):
            offenders = find_dense_cylinders(E, 0.5, big_radii)
            if not offenders:
                break
            for Q in offenders:
                win, inside = grid.window(Q)
                e_mask[win] &= ~inside
            E = DiscreteSet(grid, e_mask, region)
    # enlargement sweep: the stacked extension of every remaining dense
    # cylinder (any radius below r0, any density level down to mu = 1/2's
    # complement) must lie in F
    small_radii = [r for r in all_radii if r < r0]
    if small_radii and e_mask.any():
        _mark_stacks(f_mask, grid, find_dense_cylinders(E, 0.999, small_radii),
                     m)
    f_mask |= e_mask
    return E, DiscreteSet(grid, f_mask, region)


# ---------------------------------------------------------------------------
# run-length-encoded mask fixtures
# ---------------------------------------------------------------------------


def mask_to_rle(mask: np.ndarray) -> str:
    """Serialize a boolean array: 'shape' line, then run lengths.

    Runs alternate starting from False, flattened in C order.
    """
    mask = np.asarray(mask, dtype=bool)
    flat = mask.ravel()
    bounds = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    runs = np.diff(bounds, prepend=0, append=flat.size)
    if flat.size and flat[0]:
        runs = np.concatenate(([0], runs))
    lines = ["shape " + " ".join(str(s) for s in mask.shape),
             " ".join(map(str, runs.tolist()))]
    return "\n".join(lines) + "\n"


def rle_to_mask(text: str) -> np.ndarray:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("shape "):
        raise ValueError("missing shape header")
    shape = tuple(int(s) for s in lines[0].split()[1:])
    runs = [int(tok) for ln in lines[1:] for tok in ln.split()]
    # checked on Python ints, so a huge run cannot overflow
    if (runs and min(runs) < 0) or sum(runs) != int(np.prod(shape)):
        raise ValueError("run lengths do not match shape")
    bits = np.arange(len(runs)) % 2 == 1
    return np.repeat(bits, runs).reshape(shape)
