"""Grids over box cylinders, sampled fields, measures and norms.

A Grid is a tensor-product discretization of a BoxCylinder: cell-centered
nodes in x and v, right-aligned nodes in t (the final slice sits at the
top of the half-open time interval).  Measures of level sets are computed
by cell-center counting, which is first order in the spacing and makes no
smoothness assumption on the sampled function -- the natural choice for
merely measurable data.

A region is read on a grid one way: ``Grid.window`` finds the index box of
the nodes in the region's box hull, padded by one cell, and tests only
those with ``region.contains``.  ``norms``, ``grad_v_sq_integral`` and the
dense-cylinder scan in ``inkspots`` read regions through it.

The negative-order Sobolev norm in the velocity variable is realized by a
Dirichlet Poisson solve on the v-ball per (t, x) slice: the squared slice
norm is the Dirichlet energy of the solution, aggregated in L^2 over the
remaining variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import BoxCylinder, Cylinder, StackedCylinder

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "CoefficientField",
    "NegSobolevInput",
    "norms",
    "RegionNorms",
    "broadcast_coords",
    "grad_v",
    "grad_v_sq_integral",
    "h_minus1_norm",
    "make_coefficients",
]

Region = BoxCylinder | Cylinder | StackedCylinder


def broadcast_coords(T, X, V):
    """(T, X, V) as views of one batch shape: T of shape (...), X and V of
    shape (..., d); open coordinates become full-grid views."""
    T = np.asarray(T, dtype=float)
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    shape = np.broadcast_shapes(T.shape, X.shape[:-1], V.shape[:-1])
    return (np.broadcast_to(T, shape),
            np.broadcast_to(X, shape + X.shape[-1:]),
            np.broadcast_to(V, shape + V.shape[-1:]))


@dataclass(frozen=True)
class Grid:
    """Tensor-product grid over a BoxCylinder."""

    domain: BoxCylinder
    n_t: int
    n_x: int
    n_v: int

    def __post_init__(self):
        if min(self.n_t, self.n_x, self.n_v) < 2:
            raise ValueError("every axis needs at least 2 nodes")

    @property
    def d(self) -> int:
        return self.domain.d

    @property
    def dt(self) -> float:
        return (self.domain.t_max - self.domain.t_min) / self.n_t

    @property
    def dx(self) -> float:
        return 2.0 * self.domain.rx / self.n_x

    @property
    def dv(self) -> float:
        return 2.0 * self.domain.rv / self.n_v

    @cached_property
    def t_nodes(self) -> np.ndarray:
        t = self.domain.t_min + self.dt * np.arange(1, self.n_t + 1)
        return np.minimum(t, self.domain.t_max)  # t_min + n_t dt can round above

    def x_at(self, j) -> np.ndarray:
        """Cell-center x coordinates, shape (d, *j.shape), at integer indices
        j; off-grid indices extend the same formula beyond the box.  Built
        in place in one array (the dense-cylinder scan in ``inkspots``
        calls it once per stepping pass over its box of centers)."""
        j = np.asarray(j)
        lo = self.domain.x_center - self.domain.rx
        x = np.add(j, 0.5, out=np.empty(lo.shape + j.shape))
        x *= self.dx
        x += lo.reshape((-1,) + (1,) * j.ndim)
        return x

    @cached_property
    def x_axis(self) -> np.ndarray:
        return self.x_at(np.arange(self.n_x))  # (d, n_x)

    @cached_property
    def v_axis(self) -> np.ndarray:
        lo = self.domain.v_center - self.domain.rv
        return lo[:, None] + self.dv * (np.arange(self.n_v) + 0.5)  # (d, n_v)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_t,) + (self.n_x,) * self.d + (self.n_v,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.dt * self.dx**self.d * self.dv**self.d

    def _axis_lines(self, axes: np.ndarray, first: int) -> list[np.ndarray]:
        """Row i of ``axes`` reshaped to vary along grid axis first + i only."""
        lines = []
        for i, line in enumerate(axes):
            sh = [1] * (1 + 2 * self.d)
            sh[first + i] = line.size
            lines.append(line.reshape(sh))
        return lines

    @cached_property
    def open_coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Node coordinates (T, X, V) as open arrays that broadcast to
        ``coords``: T varies along the time axis only, X along the x axes
        and V along the v axes (each with a trailing axis of length d)."""
        T = self.t_nodes.reshape((self.n_t,) + (1,) * (2 * self.d))
        X = np.stack(np.broadcast_arrays(*self._axis_lines(self.x_axis, 1)),
                     axis=-1)
        V = np.stack(np.broadcast_arrays(
            *self._axis_lines(self.v_axis, 1 + self.d)), axis=-1)
        return T, X, V

    @cached_property
    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full-grid node coordinates (T, X, V) with X, V of shape (..., d).

        Library code evaluates on ``open_coords``; these arrays are the
        reference the tests compare it with.  X and V keep the memory layout
        ``np.stack`` gives the broadcast axis lines (not C order: X has
        strides (1280, 2560, 8, 8) on a 2x160x160 grid at d = 1), and sums
        over products with them depend on it in the last bit.  That is why
        the CLI's ``kernel-check`` moment sums still read them: on open
        coordinates its ``var_v`` at s = 0.1 moves from 0.2 to
        0.19999999999999998."""
        shape = self.shape
        X, V = (np.stack([np.broadcast_to(a, shape) for a in lines], axis=-1)
                for lines in (self._axis_lines(self.x_axis, 1),
                              self._axis_lines(self.v_axis, 1 + self.d)))
        return np.broadcast_to(self.open_coords[0], shape), X, V

    def window(self, region: Region):
        """(window, region.contains on the window's cell centers): the
        window is the index box of the nodes in the region's box hull,
        padded by one cell on every side, so no cell center outside it lies
        in the region and each node inside has its neighbours in it (but
        at the grid's edges, where the box is clipped).

        For one region the window is a tuple of slices of the grid (and of
        ``open_coords``).  For a batch of B regions it is a tuple of index
        arrays, one per grid axis, that broadcast to the membership's shape
        (window shape) + (B,): each region's window is padded to the longest
        one along every axis, the padding reads False, and its indices are
        clipped to the grid.  Either way ``values[window]`` lines up with
        the membership.
        """
        hull = region.box_hull()
        spans = [(hull.t_min - self.dt, hull.t_max + self.dt)]
        for c, r, h in ((hull.x_center, hull.rx, self.dx),
                        (hull.v_center, hull.rv, self.dv)):
            spans += [(c[..., k] - r - h, c[..., k] + r + h)
                      for k in range(self.d)]
        axes = (self.t_nodes, *self.x_axis, *self.v_axis)
        lo, hi = np.stack([np.searchsorted(ax, span)
                           for ax, span in zip(axes, spans)], axis=-1)
        batch = lo.shape[:-1]
        v0 = 1 + self.d  # the first v axis
        if not batch:
            win, (T, X, V) = tuple(map(slice, lo, hi)), self.open_coords
            every = (slice(None),) * v0
            return win, region.contains(T[win[0]], X[every[:1] + win[1:v0]],
                                        V[every + win[v0:]])
        width = (hi - lo).reshape(-1, len(axes)).max(axis=0, initial=0)
        index, coords, valid = [], [], True
        for a, ax in enumerate(axes):
            shape = tuple(w if b == a else 1
                          for b, w in enumerate(width)) + batch
            idx = lo[..., a] + np.arange(width[a]).reshape(
                (-1,) + (1,) * len(batch))
            valid = valid & (idx < hi[..., a]).reshape(shape)
            index.append(np.minimum(idx, ax.size - 1).reshape(shape))
            coords.append(ax[index[-1]])
        X, V = (np.stack(np.broadcast_arrays(*c), axis=-1)
                for c in (coords[1:v0], coords[v0:]))
        return tuple(index), region.contains(coords[0], X, V) & valid

    def sample(self, fn) -> "ScalarField":
        """Sample a callable fn(T, X, V) -> values at all nodes.

        fn gets the open coordinates (``open_coords``), so terms in t, x or
        v alone are computed on lines and planes; it may return any shape
        that broadcasts to ``shape``.  Such a result is spread out into a
        C-contiguous, writable array of ``shape``."""
        values = np.asarray(fn(*self.open_coords), dtype=float)
        if values.shape != self.shape:
            values = np.broadcast_to(values, self.shape).copy()
        return ScalarField(self, values)


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != self.grid.shape:
            raise ValueError(f"field shape {self.values.shape} != grid shape {self.grid.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("field contains non-finite values")


@dataclass(frozen=True)
class VectorField:
    """A d-vector field on a grid, components in the trailing axis."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != self.grid.shape + (self.grid.d,):
            raise ValueError("vector field shape mismatch")
        if not np.isfinite(self.values).all():
            raise ValueError("field contains non-finite values")


@dataclass(frozen=True)
class NegSobolevInput:
    """Right-hand side H = div_v H1 + H0 for the dual-norm solve."""

    H0: ScalarField
    H1: VectorField

    def __post_init__(self):
        if self.H0.grid is not self.H1.grid and self.H0.grid != self.H1.grid:
            raise ValueError("H0 and H1 must live on the same grid")

    @property
    def grid(self) -> Grid:
        return self.H0.grid


@dataclass(frozen=True)
class RegionNorms:
    """Cell quadrature over a region: ``values`` holds the field at the cell
    centers inside it, each cell of volume ``cell_volume``.  No method
    writes into ``values`` (``excess`` builds a new array)."""

    values: np.ndarray
    cell_volume: float

    @property
    def sup(self) -> float:
        return float(self.values.max())

    @property
    def inf(self) -> float:
        return float(self.values.min())

    @property
    def osc(self) -> float:
        return self.sup - self.inf

    @property
    def measure(self) -> float:
        return self.values.size * self.cell_volume

    @property
    def integral(self) -> float:
        return float(self.values.sum()) * self.cell_volume

    def lp(self, p: float) -> float:
        """The Lp norm; at p = 2 the root is ``sqrt``, which can differ from
        ``** 0.5`` in the last bit."""
        if p <= 0:
            raise ValueError(f"Lp exponent must be positive, got {p}")
        total = float((np.abs(self.values) ** p).sum() * self.cell_volume)
        return math.sqrt(total) if p == 2 else total ** (1.0 / p)

    def fraction(self, predicate) -> float:
        """Share of the region's cells whose value satisfies the predicate."""
        return float(np.count_nonzero(predicate(self.values))) / self.values.size

    def excess(self, level: float = 0.0) -> "RegionNorms":
        """The same quadrature of the clipped excess (f - level)_+."""
        return RegionNorms(np.clip(self.values - level, 0.0, None),
                           self.cell_volume)


def norms(f: ScalarField, region: Region | None = None) -> RegionNorms:
    """Cell quadrature of f over a region (the whole grid when None), read
    on its window; ValueError when no cell center lies inside the region.
    A region that holds every node (a d = 1 box on its own local grid)
    reads the raveled field, a view that ``RegionNorms`` only reads."""
    if region is None:
        return RegionNorms(f.values.ravel(), f.grid.cell_volume)
    win, inside = _region_window(f.grid, region)
    return RegionNorms(_gather(f.values[win], inside), f.grid.cell_volume)


def _region_window(grid: Grid, region: Region):
    """``grid.window(region)``; ValueError when no node lies inside."""
    win, inside = grid.window(region)
    if not inside.any():
        raise ValueError("region does not overlap the grid domain")
    return win, inside


def _gather(values: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """``values`` (on a window) at the nodes inside, in C order; raveled,
    with no copy of C-contiguous values, when every node is inside."""
    return values.ravel() if inside.all() else values[inside]


def grad_v(f: ScalarField) -> np.ndarray:
    """Centered-difference velocity gradient at every node, shape
    grid.shape + (d,)."""
    g = f.grid
    out = np.empty(g.shape + (g.d,))
    for k in range(g.d):
        out[..., k] = np.gradient(f.values, g.dv, axis=1 + g.d + k)
    return out


def grad_v_sq_integral(f: ScalarField, region: Region) -> float:
    """The cell quadrature of |grad_v f|^2 over a region, with the gradient
    taken only on the region's window (``Grid.window``).

    The window's one-cell pad gives every node inside the region its v
    neighbours, so ``np.gradient`` uses the centred formula there, and the
    one-sided one at the grid's own v edges, as on the whole grid.  The
    squares inside the region are gathered as ``norms`` gathers a field
    and summed in C order, so the result has the bits of ``norms`` over
    the whole-grid |grad_v f|^2.  ValueError, as ``norms``, when no cell
    center lies inside the region."""
    g = f.grid
    win, inside = _region_window(g, region)
    values, sq = f.values[win], None
    for k in range(g.d):
        dk = np.gradient(values, g.dv, axis=1 + g.d + k)
        np.square(dk, out=dk)
        sq = dk if sq is None else np.add(sq, dk, out=sq)
    return float(_gather(sq, inside).sum()) * g.cell_volume


def _dirichlet_laplacian_1d(n: int, h: float) -> sp.csc_matrix:
    """Cell-centered -d^2/dv^2 with zero values on the interval boundary.

    The boundary lies half a cell beyond the outer centers; mirror ghosts
    (u_ghost = -u_edge) enforce a zero face value.
    """
    main = np.full(n, 2.0)
    main[0] = main[-1] = 3.0
    off = np.full(n - 1, -1.0)
    return sp.diags([off, main, off], [-1, 0, 1], format="csc") / h**2


def _dirichlet_laplacian_ball_2d(v1: np.ndarray, v2: np.ndarray, h: float, center, radius):
    """Masked 5-point -Laplacian on nodes inside the v-ball; outside is zero.

    The 5-point stencil on the whole tensor grid is the Kronecker sum of
    1-d second differences; rows and columns of the nodes inside the ball
    are kept.
    """
    V1, V2 = np.meshgrid(v1, v2, indexing="ij")
    inside = (V1 - center[0]) ** 2 + (V2 - center[1]) ** 2 < radius**2
    n1, n2 = inside.shape
    second = [sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
              for n in (n1, n2)]
    stencil = (sp.kron(second[0], sp.identity(n2))
               + sp.kron(sp.identity(n1), second[1])).tocsr()
    keep = np.flatnonzero(inside)
    A = sp.csc_matrix(stencil[keep][:, keep]) / h**2
    return A, inside


def _weak_rhs(H: ScalarField | NegSobolevInput) -> np.ndarray:
    """Node values of H, with div_v H1 assembled by centered differences."""
    if isinstance(H, ScalarField):
        return H.values
    grid = H.grid
    dv = grid.dv
    rhs = H.H0.values.copy()
    for i in range(grid.d):
        axis = 1 + grid.d + i
        comp = H.H1.values[..., i]
        rhs += np.gradient(comp, dv, axis=axis)
    return rhs


def h_minus1_norm(H: ScalarField | NegSobolevInput, region: Region | None = None) -> float:
    """Discrete L^2_{t,x} H^{-1}_v norm.

    Per (t, x) slice solve -Lap_v u = H with zero Dirichlet data on the
    v-ball; the squared slice norm is the Dirichlet energy, recovered via
    the weak identity int |grad u|^2 = int H u.  Slices are aggregated in
    L^2 with the (t, x) cell measure.  If a region is given, slices whose
    (t, x) cell centers fall outside its time interval and x-ball are
    dropped (each slice still spans the grid's whole v-ball), and, as in
    ``norms``, ValueError when no slice is left.
    """
    grid = H.grid
    rhs = _weak_rhs(H)
    d = grid.d
    n_slices = grid.n_t * grid.n_x**d
    rhs_flat = rhs.reshape(n_slices, grid.n_v**d)

    if d == 1:
        A = _dirichlet_laplacian_1d(grid.n_v, grid.dv)
        solve = spla.factorized(A)
        u = solve(rhs_flat.T)  # (n_v, n_slices)
        energy = (rhs_flat.T * u).sum(axis=0) * grid.dv
    elif d == 2:
        A, inside = _dirichlet_laplacian_ball_2d(
            grid.v_axis[0], grid.v_axis[1], grid.dv, grid.domain.v_center, grid.domain.rv
        )
        solve = spla.factorized(A)
        masked = rhs_flat[:, inside.ravel()].T
        u = solve(masked)
        energy = (masked * u).sum(axis=0) * grid.dv**2
    else:
        raise NotImplementedError("h_minus1_norm supports d in {1, 2}")

    energy = np.maximum(energy, 0.0)

    if region is not None:
        if not isinstance(region, BoxCylinder):
            raise ValueError("h_minus1_norm region must be a BoxCylinder")
        T, X, _ = grid.open_coords
        # one node per (t, x) slice, at the region's velocity center
        keep = region.contains(T, X, region.v_center).reshape(n_slices)
        if not keep.any():
            raise ValueError("region does not overlap the grid domain")
        energy = energy[keep]

    return float(np.sqrt(energy.sum() * grid.dt * grid.dx**d))


_SLACK = 1e-12  # roundoff allowed on the ellipticity bounds in ``validate``


@dataclass(frozen=True)
class CoefficientField:
    """Measurable coefficients A(z), B(z), S(z) with ellipticity bounds.

    Validated once, at construction; ``b_l1_max``, the largest l1 norm
    |B_1| + ... + |B_d| over the nodes, is kept from that scan for the
    solver's drift checks."""

    grid: Grid
    A: np.ndarray  # shape grid.shape + (d, d)
    B: np.ndarray  # shape grid.shape + (d,)
    S: np.ndarray  # shape grid.shape
    lam: float
    Lam: float
    b_l1_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.grid.d
        if self.A.shape != self.grid.shape + (d, d):
            raise ValueError("A has wrong shape")
        if self.B.shape != self.grid.shape + (d,):
            raise ValueError("B has wrong shape")
        if self.S.shape != self.grid.shape:
            raise ValueError("S has wrong shape")
        if not 0 < self.lam <= self.Lam:
            raise ValueError("ellipticity bounds must satisfy 0 < lam <= Lam")
        self.validate()

    def validate(self) -> None:
        """Raise ValueError unless A is symmetric with spectrum in
        [lam, Lam] and |B| <= Lam at every node, up to ``_SLACK`` (NaN fails
        every test); set ``b_l1_max`` to the largest l1 norm of B.  At d = 1
        A is 1x1, so it is symmetric by shape and its entry is its
        eigenvalue, and both norms of B are |B|."""
        if self.grid.d == 1:
            eig = self.A[..., 0, 0]
            # the largest |B| as two reductions, with no |B| temporary
            b_max = float(max(self.B.max(), -self.B.min()))
        else:
            if not np.allclose(self.A, np.swapaxes(self.A, -1, -2),
                               rtol=0, atol=1e-13):
                raise ValueError("A must be symmetric at every node")
            eig = np.linalg.eigvalsh(self.A)
            b_max = float(np.sqrt((self.B**2).sum(axis=-1)).max())
        lo, hi = eig.min(), eig.max()
        if not (lo >= self.lam - _SLACK and hi <= self.Lam + _SLACK):
            raise ValueError(
                f"eigenvalues of A in [{lo:.3e}, {hi:.3e}] "
                f"escape [{self.lam}, {self.Lam}]"
            )
        if not b_max <= self.Lam + _SLACK:
            raise ValueError("|B| exceeds the upper ellipticity bound")
        b_l1_max = (b_max if self.grid.d == 1
                    else float(np.abs(self.B).sum(axis=-1).max()))
        object.__setattr__(self, "b_l1_max", b_l1_max)


def _cell_index(coord: np.ndarray, cell_size: float) -> np.ndarray:
    return np.floor(coord / cell_size).astype(np.int64)


def make_coefficients(
    grid: Grid,
    kind: str = "constant",
    lam: float = 1.0,
    Lam: float = 1.0,
    cell_size: float = 0.25,
    seed: int = 0,
    S=None,
) -> CoefficientField:
    """Coefficient generators: constant, checkerboard, or random per-cell.

    Checkerboard alternates A = lam*I / Lam*I on phase-space cells of the
    given size; random draws symmetric matrices with spectrum clamped to
    [lam, Lam] and |B| <= Lam, piecewise constant per cell (deliberately
    discontinuous).
    """
    if lam > Lam:
        raise ValueError("need lam <= Lam")
    d = grid.d
    shape = grid.shape
    eye = np.eye(d)
    # a given S is kept as a read-only view: no code writes S
    S_arr = (np.zeros(shape) if S is None
             else np.broadcast_to(np.asarray(S, float), shape))

    if kind == "constant":
        mid = 0.5 * (lam + Lam)
        A = np.broadcast_to(mid * eye, shape + (d, d)).copy()
        B = np.zeros(shape + (d,))
        return CoefficientField(grid, A, B, S_arr, lam, Lam)

    # cell indices per axis line of the open coordinates: the integer sums
    # below broadcast to the full grid, exactly
    T, X, V = grid.open_coords

    if kind == "checkerboard":
        # the parity of the summed cell indices, as the XOR of each axis
        # line's parity (``& 1`` is the parity of negative indices too)
        def odd(coord):
            return (_cell_index(coord, cell_size) & 1) == 1

        hi = odd(T)
        for i in range(d):
            hi = hi ^ odd(X[..., i]) ^ odd(V[..., i])
        A = np.where(hi[..., None, None], Lam * eye, lam * eye)
        B = np.zeros(shape + (d,))
        return CoefficientField(grid, A, B, S_arr, lam, Lam)

    if kind == "random":
        rng = np.random.default_rng(seed)
        # hash cell indices into a deterministic per-cell table
        key = _cell_index(T, cell_size) * 73856093
        for i in range(d):
            key = key + _cell_index(X[..., i], cell_size) * 19349663
            key = key + _cell_index(V[..., i], cell_size) * 83492791
        uniq, inv = np.unique(key, return_inverse=True)
        n_cells = uniq.size
        eigs = rng.uniform(lam, Lam, size=(n_cells, d))
        if d == 1:
            A_cells = eigs[:, :, None]
        else:
            # random rotation via QR, then clamp spectrum by construction
            Qm, _ = np.linalg.qr(rng.standard_normal((n_cells, d, d)))
            A_cells = np.einsum("cij,cj,ckj->cik", Qm, eigs, Qm)
        b_dir = rng.standard_normal((n_cells, d))
        b_dir /= np.sqrt((b_dir**2).sum(axis=-1, keepdims=True))
        B_cells = b_dir * rng.uniform(0.0, Lam, size=(n_cells, 1))
        A = A_cells[inv].reshape(shape + (d, d))
        B = B_cells[inv].reshape(shape + (d,))
        # exact symmetrization against roundoff
        A = 0.5 * (A + np.swapaxes(A, -1, -2))
        return CoefficientField(grid, A, B, S_arr, lam, Lam)

    raise ValueError(f"unknown coefficient kind {kind!r}")
