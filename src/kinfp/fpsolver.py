"""Finite-volume/semi-Lagrangian solver for the kinetic equation

    (d/dt + v . grad_x) f = div_v (A grad_v f) + B . grad_v f + S

on box-shaped space-time-velocity domains with rough (merely measurable,
uniformly elliptic) coefficients.

Scheme: operator splitting, first order in time.

* x-transport: exact-shift semi-Lagrangian per v-line (velocity is a grid
  coordinate, so the foot of the characteristic is a constant shift of the
  x-line), linear interpolation -- monotone.
* v-diffusion: implicit backward Euler on the divergence form, tridiagonal
  per line at d = 1 (dimension-split sweeps at d = 2); face coefficients by
  harmonic averaging of adjacent cell values, which gives the correct
  homogenization behavior for discontinuous A.
* drift B . grad_v: explicit upwind.

Work split: whatever depends only on the grid or on the coefficients is
built outside the time loop.  The transport plan is built once per solve:
per x-axis, the copies ``_pad_copies`` makes to fill the source's pad rows
for the x boundary (the one place that writes x-boundary values), and the
shift that interpolates the padded source (the linear shift's slabs of
columns that share an integer shift and their weights, or the pchip
shift's foot rows and Hermite weights).  The v-diffusion is factored
once per distinct coefficient slice: the bands and the elimination factors
are kept while A's diagonal slice at the next step equals the last one
factored (a piecewise-constant-in-time A refactors only where it jumps),
and each step only applies the forward and back substitution.  A row of
that substitution is one line of the other axes (192 values on a
128 x 192 x 96 grid at d = 1), so its cost is the per-call cost of its
ufuncs: they write their output positionally, the factor keeps its rows
as lists, and axes move by ``transpose`` rather than ``np.moveaxis``.
The slice lives between pad rows in one of two buffers whose memory puts
the v axes first, so at d = 1 the shift writes the rows the sweep reads
and the sweep works in place: a step makes no gather and no transposing
copy but the one that stores the slice in the trajectory.  The
trajectories are bit for bit those of a solve that rebuilds everything at
every step.

Boundary conditions: in x, ``dirichlet`` (zero inflow), ``copy-out``
(the edge value continues outward) or ``periodic``; in v, ``dirichlet``
(a zero ghost cell one cell beyond each edge) or ``zero-flux`` (no flux
through the outer faces).  Dirichlet data are always zero.

The splitting is monotone, so nonnegative data and source produce a
nonnegative solution.  With periodic x and zero-flux v boundaries the
divergence-form discretization conserves mass exactly (up to roundoff).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fields import BoxCylinder, CoefficientField, Grid, ScalarField, grad_v, norms
from .report import VerificationReport

__all__ = [
    "CFLError",
    "NumericalAbort",
    "SolverConfig",
    "solve",
    "Bump",
    "default_test_set",
    "weak_residual",
    "transport_pairing",
    "first_order_tol",
    "local_bound_check",
]


class CFLError(ValueError):
    """Time step too large for the explicit parts of the splitting."""


class NumericalAbort(RuntimeError):
    """Non-finite values detected during time stepping."""


_BC_X = ("dirichlet", "copy-out", "periodic")
_BC_V = ("dirichlet", "zero-flux")
_CFL_SAFETY = 0.9  # dt may use this share of each explicit step limit


@dataclass
class SolverConfig:
    """Everything one time integration needs.

    The solve runs on the coefficients' grid.  ``initial`` is the slice at
    the opening time of the grid's window (the grid itself stores only the
    n_t later slices).  The coefficients were validated when they were
    built; their ``b_l1_max`` gives the drift limit.  The upwind drift step
    adds every v-axis's update to the same old values, so it is monotone
    while dt (|B_1| + ... + |B_d|) <= dv.
    """

    coeffs: CoefficientField
    initial: np.ndarray
    bc_x: str = "dirichlet"
    bc_v: str = "dirichlet"
    transport_interp: str = "linear"

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        if self.initial.shape != self.grid.shape[1:]:
            raise ValueError(
                f"initial slice shape {self.initial.shape} does not match "
                f"grid spatial shape {self.grid.shape[1:]}"
            )
        if self.bc_x not in _BC_X:
            raise ValueError(f"bc_x must be one of {_BC_X}")
        if self.bc_v not in _BC_V:
            raise ValueError(f"bc_v must be one of {_BC_V}")
        if self.transport_interp not in ("linear", "pchip"):
            raise ValueError("transport_interp must be 'linear' or 'pchip'")
        self._check_cfl()

    @property
    def grid(self) -> Grid:
        return self.coeffs.grid

    def _check_cfl(self):
        g = self.grid
        vmax = float(np.max(np.abs(g.v_axis)))
        limits = {}
        if vmax > 0.0:
            limits["transport"] = g.dx / vmax
        b_l1 = self.coeffs.b_l1_max
        if b_l1 > 0.0:
            limits["drift"] = g.dv / b_l1
        for name, lim in limits.items():
            if g.dt > _CFL_SAFETY * lim + 1e-15:
                raise CFLError(
                    f"dt = {g.dt:.3e} exceeds {_CFL_SAFETY} * {lim:.3e} "
                    f"({name} limit)"
                )


def _pad_copies(n, lo, hi, bc):
    """The copies, as (to, from) row slices of axis 0, that fill ``lo`` pad
    rows below and ``hi`` above a line of n rows for the x boundary:
    none for ``dirichlet`` (the pads stay zero), the edge row for
    ``copy-out``, and for ``periodic`` the line's other end, chunk by chunk
    away from the data, so a pad longer than the line wraps again."""
    if bc == "dirichlet":
        return []
    if bc == "copy-out":
        copies = [(slice(0, lo), slice(lo, lo + 1)),
                  (slice(lo + n, lo + n + hi), slice(lo + n - 1, lo + n))]
    else:
        copies = [(slice(max(a - n, 0), a), slice(max(a - n, 0) + n, a + n))
                  for a in range(lo, 0, -n)]
        copies += [(slice(a, min(a + n, lo + n + hi)),
                    slice(a - n, min(a + n, lo + n + hi) - n))
                   for a in range(lo + n, lo + n + hi, n)]
    return [(to, fr) for to, fr in copies if to.stop > to.start]


class _LinearShift:
    """Per-column constant shift of axis 0 with linear interpolation.

    ``cells`` is the shift in cell units per column (m,) of axis 1: row i
    of column j becomes (1 - frac_j) f[i - k_j] + frac_j f[i - k_j - 1]
    with k_j = floor(cells_j), a convex combination of node values --
    monotone and linear in the data.  The source holds the n data rows
    between ``lo`` pad rows below and ``hi`` above, so the columns that
    share an integer shift read both feet as two slabs of whole rows: no
    gather.  The slabs and the weights depend only on the grid and are
    built once; ``bind`` makes the views of one source, output and scratch
    array once, so a step is three ufunc calls per slab.
    """

    def __init__(self, cells, n):
        k = np.floor(cells).astype(int)
        frac = cells - k
        self.lo, self.hi = max(int(k.max()) + 1, 0), max(-int(k.min()), 0)
        # each column's weight spread over its n rows, laid out column by
        # column as the slice is: a multiply with a broadcast axis takes
        # numpy about twice as long
        w0, w1 = (np.repeat(w[:, None], n, axis=1).T for w in (1.0 - frac, frac))
        cuts = [0] + (np.flatnonzero(np.diff(k)) + 1).tolist() + [k.size]
        self.slabs = []
        for j0, j1 in zip(cuts, cuts[1:]):
            top = self.lo - int(k[j0])  # the source row of f[-k]
            cols = slice(j0, j1)
            self.slabs.append((cols, slice(top, top + n),
                               slice(top - 1, top - 1 + n),
                               w0[:, cols], w1[:, cols]))

    def bind(self, src, out, tmp):
        """The step from ``src`` into ``out``: views with the x axis first
        and the v axis second, of the padded source, the output and a
        scratch array of the output's shape."""
        rest = (1,) * (out.ndim - 2)  # the weights broadcast over the rest
        slabs = [(src[feet0, cols], w0.reshape(w0.shape + rest), out[:, cols],
                  src[feet1, cols], w1.reshape(w1.shape + rest), tmp[:, cols])
                 for cols, feet0, feet1, w0, w1 in self.slabs]
        mul, add = np.multiply, np.add

        def step():
            for a, w0, o, b, w1, t in slabs:
                mul(a, w0, o)
                mul(b, w1, t)
                add(o, t, o)

        return step


def _pchip_slopes(slopes):
    """Shape-preserving node derivatives (harmonic mean of adjacent slopes)."""
    left, right = slopes[:-1], slopes[1:]
    prod = left * right
    den = left + right
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(prod > 0.0, 2.0 * prod / np.where(den != 0.0, den, 1.0), 0.0)
    return d


class _PchipShift:
    """Per-column constant shift with monotone cubic (pchip) interpolation.

    Derivative limiting keeps the interpolant inside the local data range
    (so positivity is preserved) while the error away from extrema is third
    order in the spacing.  Unlike linear interpolation this map is not
    linear in the data.  It reads the padded source ``_LinearShift``
    reads, here 4 rows deep.  A foot is clamped to 2 rows outside the data,
    so its two nodes and the slopes beside them stay within the pads, where
    ``copy-out`` and ``dirichlet`` data are constant and their slopes
    vanish; a ``periodic`` foot wraps by ``% n`` and the pads continue the
    line.  That clamp and wrap are all it knows of the x boundary.  The
    foot rows and the Hermite basis weights depend only on the grid and
    are built once; a step takes the node derivatives on the padded line
    and gathers.
    """

    lo = hi = 4

    def __init__(self, cells, n, periodic):
        m = cells.size
        p = np.arange(n)[:, None] - cells[None, :]  # the foot, in data rows
        p = p % n if periodic else np.clip(p, -2, n + 1)
        kf = np.floor(p).astype(int)
        u = (p - kf)[..., None]
        u2, u3 = u * u, u * u * u
        self.basis = (2.0 * u3 - 3.0 * u2 + 1.0, u3 - 2.0 * u2 + u,
                      -2.0 * u3 + 3.0 * u2, u3 - u2)
        # the foot's left node, a row of the (rows * m, rest) source
        self.left = (kf + self.lo) * m + np.arange(m)

    def bind(self, src, out, tmp):
        m = out.shape[1]
        # the foot's two nodes and their derivatives (node j's is row j - 1)
        rl, rr, dl, dr = self.left, self.left + m, self.left - m, self.left
        h00, h10, h01, h11 = self.basis

        def step():
            d = _pchip_slopes(src[1:] - src[:-1])
            y, d = (a.reshape(a.shape[0] * m, -1) for a in (src, d))
            out[...] = (
                np.take(y, rl, axis=0) * h00 + np.take(d, dl, axis=0) * h10
                + np.take(y, rr, axis=0) * h01 + np.take(d, dr, axis=0) * h11
            ).reshape(out.shape)

        return step


def _axes_first(ndim, *axes):
    """The transpose that moves ``axes`` to the front, in that order, and
    keeps the others in theirs (``np.moveaxis`` without its per-call
    argument checks, which cost more than the move in the time loop)."""
    return axes + tuple(i for i in range(ndim) if i not in axes)


class _Transport:
    """The x-transport of every step, and the slice it leaves behind.

    The slice lives in one of two buffers, swapped by each shift.  Each is
    a view in grid axis order on memory ordered v axes first, so the rows
    of the v-diffusion sweep are contiguous at d = 1, and each x axis
    carries the pad rows its shift reads (x_a moves by dt * v_a, in cell
    units per v_a).  Right before a shift runs, the copies of
    ``_pad_copies`` fill its source's pad rows for the x boundary; that is
    the one place the x boundary is written, and the shifts only
    interpolate a padded source.  ``f`` is the current slice, the buffer's
    data rows; whatever works on it in place keeps the pads.
    """

    def __init__(self, grid, dt, bc, interp):
        d, n = grid.d, grid.n_x
        ndim = 2 * d
        cells = [dt * grid.v_axis[a] / grid.dx for a in range(d)]
        self.shifts = ([_LinearShift(c, n) for c in cells] if interp == "linear"
                       else [_PchipShift(c, n, bc == "periodic") for c in cells])
        shape = [s.lo + n + s.hi for s in self.shifts] + [grid.n_v] * d
        mem = tuple(range(d, ndim)) + tuple(range(d))  # v axes outermost
        bufs = [np.zeros([shape[i] for i in mem]).transpose(np.argsort(mem))
                for _ in range(2)]
        data = tuple(slice(s.lo, s.lo + n) for s in self.shifts)
        self.f_of = [b[data] for b in bufs]
        tmp = np.empty_like(self.f_of[0])
        # per parity of the buffer a step starts from, its shifts in turn,
        # each from one buffer into the other, with x_a first and v_a
        # second: the pad copies of the source, then the shift
        self.steps = [[], []]
        for p, a in itertools.product((0, 1), range(d)):
            order = _axes_first(ndim, a, d + a)
            s = self.shifts[a]
            src = bufs[(p + a) % 2][data[:a] + (slice(None),) + data[a + 1:]]
            src = src.transpose(order)
            pads = [(src[to], src[fr])
                    for to, fr in _pad_copies(n, s.lo, s.hi, bc)]
            self.steps[p].append((pads, s.bind(
                src, self.f_of[(p + a + 1) % 2].transpose(order),
                tmp.transpose(order))))
        self.cur = 0

    @property
    def f(self):
        return self.f_of[self.cur]

    def __call__(self):
        copy = np.copyto
        for pads, shift in self.steps[self.cur]:
            for to, fr in pads:
                copy(to, fr)
            shift()
        self.cur = (self.cur + len(self.shifts)) % 2


def _harmonic(a, b):
    s = a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s > 0.0, 2.0 * a * b / np.where(s > 0, s, 1.0), 0.0)
    return out


def _diffusion_bands(a, r, bc):
    """Bands (lower, diag, upper) of I - dt d/dv (a d/dv .) along axis 0,
    with r = dt / dv^2; face coefficients are harmonic means of adjacent
    cell values."""
    face = _harmonic(a[:-1], a[1:])  # interior faces
    lower = np.zeros_like(a)
    upper = np.zeros_like(a)
    diag = np.ones_like(a)
    lower[1:] = -r * face
    upper[:-1] = -r * face
    diag[1:] += r * face
    diag[:-1] += r * face
    if bc == "dirichlet":
        # a zero ghost cell one dv beyond each edge
        diag[0] += r * a[0]
        diag[-1] += r * a[-1]
    # zero-flux: boundary face flux vanishes, nothing to add
    return lower, diag, upper


def _tridiag_factor(lower, diag, upper):
    """Thomas elimination of a batched tridiagonal matrix whose rows run
    along axis 0: returns (lower, cp, denom), the pivots denom and the
    scaled upper band cp, each as a list of its rows, for any number of
    ``_tridiag_apply`` calls."""
    cp = np.empty_like(diag)
    denom = np.empty_like(diag)
    denom[0] = diag[0]
    cp[0] = upper[0] / diag[0]
    for i in range(1, len(diag)):
        denom[i] = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom[i]
    return list(lower), list(cp), list(denom)


def _tridiag_apply(factor, x):
    """Forward and back substitution in place: x (rows along axis 0, each
    of the shape of the factor's rows, in any layout) holds the right-hand
    side on entry, the solution on return.  The rows are short (one per v
    node, each as long as a line of the other axes), so the sweep is
    dominated by the per-call cost of its ufuncs: they get their output
    positionally."""
    lower, cp, denom = factor
    mul, sub, div = np.multiply, np.subtract, np.divide
    rows = list(x)
    tmp = np.empty_like(rows[0])
    div(rows[0], denom[0], rows[0])
    for low, den, prev, row in zip(lower[1:], denom[1:], rows, rows[1:]):
        mul(low, prev, tmp)
        sub(row, tmp, tmp)
        div(tmp, den, row)
    for c, row, nxt in zip(cp[-2::-1], rows[-2::-1], rows[::-1]):
        mul(c, nxt, tmp)
        sub(row, tmp, row)
    return x


def _upwind_drift(f, B, dt, dv, bc):
    """Explicit upwind step for + B . grad_v f along every v-axis."""
    d = B.shape[-1]
    ndim = f.ndim
    out = f.copy()
    for j in range(d):
        axis = ndim - d + j
        w = np.moveaxis(f, axis, -1)
        b = np.moveaxis(B[..., j], axis, -1)
        fwd = np.empty_like(w)
        bwd = np.empty_like(w)
        fwd[..., :-1] = w[..., 1:] - w[..., :-1]
        bwd[..., 1:] = w[..., 1:] - w[..., :-1]
        if bc == "dirichlet":
            fwd[..., -1] = 0.0 - w[..., -1]  # not -w: keeps +0.0 for w = 0
            bwd[..., 0] = w[..., 0]
        else:  # zero-flux: constant extension
            fwd[..., -1] = 0.0
            bwd[..., 0] = 0.0
        upd = np.where(b > 0.0, b * fwd, b * bwd) * (dt / dv)
        out += np.moveaxis(upd, -1, axis)
    return out


def _cross_diffusion(f, A, d, dt, dv):
    """Explicit centered update for the off-diagonal part of A (d >= 2)."""
    out = np.zeros_like(f)
    ndim = f.ndim
    for j in range(d):
        for k in range(d):
            if j == k:
                continue
            ax_j, ax_k = ndim - d + j, ndim - d + k
            flux = A[..., j, k] * np.gradient(f, dv, axis=ax_k)
            out += np.gradient(flux, dv, axis=ax_j)
    return f + dt * out


def solve(config: SolverConfig) -> ScalarField:
    """Integrate the equation over the grid's window; return the trajectory.

    The returned field holds f on every stored time node (the initial slice
    is config.initial and is not part of the grid).  Raises NumericalAbort
    with step diagnostics if non-finite values appear.
    """
    g = config.grid
    d = g.domain.d
    dt, dv = g.dt, g.dv
    A, B, S = config.coeffs.A, config.coeffs.B, config.coeffs.S
    has_drift = config.coeffs.b_l1_max > 0.0  # B has no NaN (validated)
    has_source = bool(S.any())  # NaN counts as nonzero, as in S != 0

    transport = _Transport(g, dt, config.bc_x, config.transport_interp)
    r = dt / dv**2
    lines = [_axes_first(2 * d, d + j) for j in range(d)]  # v_j first
    # per v-axis: the coefficient slice last factored, and its factor
    slices, factors = [None] * d, [None] * d

    traj = np.empty(g.shape)
    transport.f[...] = config.initial
    for n in range(g.n_t):
        transport()
        f = transport.f  # written in place from here on
        if has_drift:
            np.copyto(f, _upwind_drift(f, B[n], dt, dv, config.bc_v))
        if d > 1:
            np.copyto(f, _cross_diffusion(f, A[n], d, dt, dv))
        for j in range(d):
            a_jj = A[n][..., j, j]
            # A >= lam > 0 (validated), so equal slices give equal factors
            if slices[j] is None or not np.array_equal(a_jj, slices[j]):
                slices[j] = a_jj
                factors[j] = _tridiag_factor(*_diffusion_bands(
                    np.ascontiguousarray(a_jj.transpose(lines[j])), r,
                    config.bc_v))
            _tridiag_apply(factors[j], f.transpose(lines[j]))
        if has_source:
            np.add(f, dt * S[n], out=f)
        if not np.all(np.isfinite(f)):
            bad = int(np.count_nonzero(~np.isfinite(f)))
            raise NumericalAbort(
                f"non-finite values at step {n + 1}/{g.n_t} "
                f"(t = {g.t_nodes[n]:.6g}): {bad} bad nodes"
            )
        traj[n] = f
    return ScalarField(g, traj)


# ---------------------------------------------------------------------------
# weak-form residuals
# ---------------------------------------------------------------------------


class Bump:
    """C^2 compactly supported test function, separable in t, x, v.

    Each factor is b(u) = (1 - u^2)^3 on |u| < 1 (zero outside), centered
    and scaled per coordinate.  Derivatives are analytic.  The methods take
    coordinates (T, X, V) of any shapes that broadcast against each other,
    such as ``Grid.open_coords``, and return the broadcast shape (with a
    trailing axis of length d for the gradients); the t, x and v factors
    are each computed on their own coordinates before they meet.
    """

    def __init__(self, t_center, t_width, x_center, x_width, v_center, v_width):
        self.t_center, self.t_width = float(t_center), float(t_width)
        self.x_center = np.atleast_1d(np.asarray(x_center, dtype=float))
        self.v_center = np.atleast_1d(np.asarray(v_center, dtype=float))
        self.x_width, self.v_width = float(x_width), float(v_width)

    @staticmethod
    def _b(u):
        core = np.clip(1.0 - u * u, 0.0, None)
        return core**3

    @staticmethod
    def _db(u):
        core = np.clip(1.0 - u * u, 0.0, None)
        return -6.0 * u * core**2

    def _factors(self, T, X, V):
        ut = (T - self.t_center) / self.t_width
        ux = (X - self.x_center) / self.x_width
        uv = (V - self.v_center) / self.v_width
        return ut, ux, uv

    def value(self, T, X, V):
        ut, ux, uv = self._factors(T, X, V)
        return (
            self._b(ut)
            * np.prod(self._b(ux), axis=-1)
            * np.prod(self._b(uv), axis=-1)
        )

    def dt(self, T, X, V):
        ut, ux, uv = self._factors(T, X, V)
        return (
            self._db(ut) / self.t_width
            * np.prod(self._b(ux), axis=-1)
            * np.prod(self._b(uv), axis=-1)
        )

    def _grad(self, u_all, width, others):
        d = u_all.shape[-1]
        out = np.empty(np.broadcast_shapes(u_all.shape[:-1], np.shape(others))
                       + (d,))
        for k in range(d):
            rest = np.prod(
                np.delete(self._b(u_all), k, axis=-1), axis=-1
            ) if d > 1 else 1.0
            out[..., k] = self._db(u_all[..., k]) / width * rest * others
        return out

    def grad_x(self, T, X, V):
        ut, ux, uv = self._factors(T, X, V)
        others = self._b(ut) * np.prod(self._b(uv), axis=-1)
        return self._grad(ux, self.x_width, others)

    def grad_v(self, T, X, V):
        ut, ux, uv = self._factors(T, X, V)
        others = self._b(ut) * np.prod(self._b(ux), axis=-1)
        return self._grad(uv, self.v_width, others)

    def support_inside(self, box: BoxCylinder) -> bool:
        if self.t_center - self.t_width < box.t_min:
            return False
        if self.t_center + self.t_width > box.t_max:
            return False
        ok_x = np.all(np.abs(self.x_center - box.x_center) + self.x_width < box.rx)
        ok_v = np.all(np.abs(self.v_center - box.v_center) + self.v_width < box.rv)
        return bool(ok_x and ok_v)


def default_test_set(grid: Grid, count: int = 5, seed: int = 0) -> list[Bump]:
    """Bumps with random centers, supports strictly inside the grid box."""
    rng = np.random.default_rng(seed)
    box = grid.domain
    d = box.d
    out = []
    t_width = 0.25 * (box.t_max - box.t_min)
    x_width, v_width = 0.4 * box.rx, 0.4 * box.rv
    for _ in range(count):
        tc = rng.uniform(box.t_min + 1.1 * t_width, box.t_max - 1.1 * t_width)
        xc = box.x_center + rng.uniform(-1, 1, d) * (box.rx - 1.1 * x_width)
        vc = box.v_center + rng.uniform(-1, 1, d) * (box.rv - 1.1 * v_width)
        out.append(Bump(tc, t_width, xc, x_width, vc, v_width))
    return out


def weak_residual(
    f: ScalarField,
    coeffs: CoefficientField,
    mode: str,
    test_set: list[Bump],
) -> dict:
    """Quadrature of the weak form against each nonnegative test bump.

    For each phi the value of

        -int f (d_t + v.grad_x) phi + int A grad_v f . grad_v phi
        -int (B . grad_v f + S) phi

    is computed on the grid.  mode 'super' requires every value >= -tol,
    'sub' requires <= tol, 'solution' requires |value| <= tol, with tol the
    first-order tolerance ``first_order_tol(f, sup|S|)``.
    """
    if mode not in ("solution", "super", "sub"):
        raise ValueError("mode must be solution|super|sub")
    g = f.grid
    T, X, V = g.open_coords
    dvol = g.cell_volume
    grad_f = grad_v(f)
    tol = first_order_tol(f, float(np.max(np.abs(coeffs.S))))
    a_grad = np.einsum("...jk,...k->...j", coeffs.A, grad_f)
    drift = np.einsum("...k,...k->...", coeffs.B, grad_f)
    src = coeffs.S
    values = []
    for phi in test_set:
        if not phi.support_inside(g.domain):
            raise ValueError("test function support exits the domain")
        pv = phi.value(T, X, V)
        gv_phi = phi.grad_v(T, X, V)
        val = (
            transport_pairing(f, phi)
            + np.sum(np.einsum("...k,...k->...", a_grad, gv_phi))
            - np.sum((drift + src) * pv)
        ) * dvol
        values.append(float(val))
    arr = np.array(values)
    if mode == "super":
        passed = bool(np.all(arr >= -tol))
    elif mode == "sub":
        passed = bool(np.all(arr <= tol))
    else:
        passed = bool(np.all(np.abs(arr) <= tol))
    return {
        "mode": mode,
        "values": values,
        "tol": tol,
        "max": float(arr.max()),
        "min": float(arr.min()),
        "passed": passed,
    }


def transport_pairing(f: ScalarField, phi: Bump) -> float:
    """-sum of f (d_t + v.grad_x) phi over f's nodes: the weak transport
    derivative of f tested against phi, per unit cell volume."""
    T, X, V = f.grid.open_coords
    return -np.sum(f.values * (
        phi.dt(T, X, V) + np.einsum("...k,...k->...", V, phi.grad_x(T, X, V))))


def first_order_tol(f: ScalarField, floor: float = 0.0) -> float:
    """Default tolerance of the first-order weak checks:
    10 scale (dt + dx + dv) with scale = max(sup|f|, floor, 1e-30)."""
    g = f.grid
    scale = max(float(np.max(np.abs(f.values))), floor, 1e-30)
    return 10.0 * scale * (g.dt + g.dx + g.dv)


def local_bound_check(
    f: ScalarField,
    q_int: BoxCylinder,
    q_ext: BoxCylinder,
) -> VerificationReport:
    """Interior sup bound for sub-solutions without a source:

        sup over q_int of f  <=  C (L2 norm of f_+ on q_ext)

    Requires q_int strictly inside q_ext in all three directions, with the
    x and v balls compared as the Euclidean balls ``norms`` measures.
    Returns the fitted C = lhs / rhs; stability across refinements is the
    caller's refinement study.
    """
    gaps = (
        q_int.t_min > q_ext.t_min,
        q_int.t_max <= q_ext.t_max,
        np.linalg.norm(q_int.x_center - q_ext.x_center) + q_int.rx < q_ext.rx,
        np.linalg.norm(q_int.v_center - q_ext.v_center) + q_int.rv < q_ext.rv,
    )
    if not all(gaps):
        raise ValueError("q_int must sit strictly inside q_ext")
    lhs = norms(f, q_int).sup
    rhs = norms(f, q_ext).excess().lp(2.0)
    return VerificationReport(
        inequality="local-upper-bound",
        lhs=lhs,
        rhs=rhs,
        passed=np.isfinite(lhs) and np.isfinite(rhs),
    )
