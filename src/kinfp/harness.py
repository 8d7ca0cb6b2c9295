"""End-to-end verification experiments for the Harnack-type inequalities.

Every operation here follows the same pattern: check the hypotheses of the
inequality first (never evaluate a conclusion on a field that does not
qualify), then compute both sides by quadrature and return a
:class:`~kinfp.report.VerificationReport` with the fitted constant
lhs / rhs.

Quadrature strategy: the reference regions of the Harnack geometry are
extremely anisotropic (at omega = 1e-2 the past cylinder has x-radius
omega^3 = 1e-6), so no single global grid can resolve them.  Fields are
therefore treated as evaluators -- either analytic callables (kernel
mixtures are exact solutions) or interpolants of solver trajectories --
and every region gets its own local tensor grid, of which the cells
centred inside the region are counted.  That reproduces the time slabs,
and at d = 1 the x and v intervals, to roundoff; at d >= 2 the balls are
counted with first-order error (24 nodes per axis give the two discs of
Q_- about 2% short).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .fields import (
    BoxCylinder,
    Grid,
    NegSobolevInput,
    RegionNorms,
    ScalarField,
    broadcast_coords,
    grad_v_sq_integral,
    h_minus1_norm,
    make_coefficients,
    norms,
)
from .fpsolver import Bump, SolverConfig, first_order_tol, solve, transport_pairing
from .geometry import (
    Cylinder,
    PhasePoint,
    group_product,
    origin,
    pop_parameters,
    q_bar,
    q_minus,
    q_one,
    q_plus,
    q_pos,
    stack_cylinders,
)
from .kolmogorov import (
    ALPHA0,
    CutoffFunction,
    _require_nonnegative,
    _shell_share,
    log_kernel_eval,
    solve_cauchy,
    theta0_parameters,
    zero_fraction,
)
from .report import HypothesisError, VerificationReport

__all__ = [
    "ExperimentEnsemble",
    "make_kernel_mixture",
    "as_evaluator",
    "N_LOCAL",
    "sample_on_box",
    "local_norms",
    "normalize_by_infimum",
    "verify_weak_poincare",
    "verify_local_poincare",
    "verify_expansion_of_positivity",
    "verify_minima_measure",
    "verify_pop_large_times",
    "verify_weak_harnack",
    "verify_harnack",
    "estimate_holder",
]


#: Nodes (n_t, n_x, n_v) of the local grid each verifier puts on a region;
#: the x and v counts apply per dimension.
N_LOCAL = (16, 24, 24)

# Expansion of positivity: the source bound sup|S| <= eta0, and the level A
# and positivity gain l0 at large times.
_ETA0, _A, _ELL0 = 1e-2, 1.0, 0.25
# Weak Harnack and Harnack: the stack count m, and the smallest domain
# radius R0 their domain gate admits, on which solver members live.
_M, _R0_MIN = 3, 18.0
# Base radius and ratio of the nested cylinders of the oscillation decay.
_R_BASE, _RBAR = 1.0, 2.0


# ---------------------------------------------------------------------------
# field evaluators and local quadrature
# ---------------------------------------------------------------------------


def _axis_weights(nodes, c):
    """Lower node index and weights (1 - y, y) of the linear interpolant
    along one axis at coordinates c, clamped to the nodes' hull: node i with
    nodes[i] <= c < nodes[i + 1], the last interval for c at the top node,
    and y = (c - nodes[i]) / (nodes[i + 1] - nodes[i]).  A NaN coordinate
    gets a valid index and a NaN weight."""
    c = np.clip(np.asarray(c, dtype=float), nodes[0], nodes[-1])
    i = np.minimum(np.searchsorted(nodes, c, side="right") - 1, nodes.size - 2)
    y = (c - nodes[i]) / (nodes[i + 1] - nodes[i])
    return i, (1 - y, y)


def _corners(weights, strides, axis=0, offset=0, weight=None):
    """(flat offset, weight) of every corner of the interpolation cell, in
    the order of ``itertools.product`` over the axes' (lower, upper) nodes;
    a corner's weight is the product of its axis weights from the first axis
    on, each partial product shared by the corners that extend it."""
    if axis == len(weights):
        yield offset, weight
        return
    for b, w in enumerate(weights[axis]):
        yield from _corners(weights, strides, axis + 1,
                            offset + b * strides[axis],
                            w if weight is None else weight * w)


def as_evaluator(f):
    """Turn a field into a callable (T, X, V) -> values.

    Callables pass through; ScalarFields become linear interpolants of
    their grid values (clamped to the grid hull, so evaluation slightly
    outside the node hull reuses the nearest values).  An evaluator takes
    coordinates of any shapes that broadcast against each other (full or
    open, as ``Grid.sample`` passes them) and returns values of their
    common batch shape.

    The interpolant has the bits of scipy's ``RegularGridInterpolator``
    (linear) on the clamped points, computed on per-axis indices and
    weights that broadcast: each axis finds them on its own coordinate
    array (a line, on open coordinates), the flat index of a cell's lower
    corner is their outer sum, and each corner, in the interpolator's
    order, gathers its values at a constant offset from it and adds them
    times its weight.  A NaN coordinate gives NaN.
    """
    if callable(f):
        return f
    if isinstance(f, ScalarField):
        g = f.grid
        axes = (g.t_nodes,) + tuple(g.x_axis) + tuple(g.v_axis)
        flat = f.values.reshape(-1)
        strides = [math.prod(f.values.shape[a + 1:]) for a in range(len(axes))]

        def evaluate(T, X, V):
            X, V = np.asarray(X, dtype=float), np.asarray(V, dtype=float)
            coords = ([T] + [X[..., k] for k in range(g.d)]
                      + [V[..., k] for k in range(g.d)])
            lower, weights = zip(*map(_axis_weights, axes, coords))
            base = functools.reduce(np.add, map(operator.mul, lower, strides))
            value, term = np.empty(np.shape(base)), np.empty(np.shape(base))
            for k, (offset, weight) in enumerate(_corners(weights, strides)):
                # "clip" never clips here; it only spares take a buffer
                np.take(flat[offset:], base, out=term, mode="clip")
                term *= weight
                if k:
                    value += term
                else:
                    np.add(term, 0.0, out=value)  # the interpolator's 0 + t
            for _, y in weights:
                if y.size and np.isnan(np.min(y)):
                    value[np.broadcast_to(np.isnan(y), value.shape)] = np.nan
            return value

        return evaluate
    raise TypeError(f"cannot evaluate object of type {type(f)!r}")


def sample_on_box(f, box: BoxCylinder, n) -> ScalarField:
    """Sample an evaluator on a fresh local grid over the box."""
    grid = Grid(box, *n)
    return grid.sample(as_evaluator(f))


def local_norms(f, region: BoxCylinder | Cylinder, n) -> RegionNorms:
    """Quadrature of the evaluator f over a region on the region's own local
    grid of n nodes, counting the nodes inside the region only.  The local
    box is a box region itself, or a slanted cylinder's box hull with its x
    radius widened by a relative 2^-40, so that a dyadic scaling S_r maps
    the nodes of Q onto those of S_r(Q).  A region that holds no node
    violates the hypothesis that its grid resolves it."""
    box = region.box_hull()  # a box is its own hull
    if isinstance(region, Cylinder):
        box = replace(box, rx=box.rx * (1 + 2**-40))
    fld = sample_on_box(f, box, n)
    try:
        return norms(fld, region)
    except ValueError:
        raise HypothesisError("local grid too coarse for the region") from None


def normalize_by_infimum(f, region: BoxCylinder | Cylinder, n=N_LOCAL):
    """The evaluator f / inf f, with the infimum taken over ``region`` on
    its local grid of n nodes (see ``local_norms``; by default the nodes
    the verifiers measure on), so that the result is >= 1 there."""
    lo = local_norms(f, region, n).inf
    ev = as_evaluator(f)
    return lambda T, X, V: ev(T, X, V) / lo


# ---------------------------------------------------------------------------
# super-solution generators
# ---------------------------------------------------------------------------


def make_kernel_mixture(
    seed: int,
    d: int = 1,
    n_terms: int = 5,
    pole_time: tuple[float, float] = (-6.0, -1.6),
):
    """Positive combination of kernel translates with poles in the far past.

    Each member is an exact nonnegative solution of the constant-coefficient
    equation on any domain with t > max pole time (hence a super-solution),
    strictly positive everywhere.  Weights are drawn from [0.2, 2), pole
    times from ``pole_time`` and the poles' x and v from [-3, 3)^d.  Returns
    (evaluator, metadata).
    """
    rng = np.random.default_rng(seed)
    poles = []
    weights = rng.uniform(0.2, 2.0, size=n_terms)
    for _ in range(n_terms):
        poles.append(
            PhasePoint(
                rng.uniform(*pole_time),
                rng.uniform(-3.0, 3.0, size=d),
                rng.uniform(-3.0, 3.0, size=d),
            )
        )

    def evaluate(T, X, V):
        T = np.asarray(T, dtype=float)
        out = np.zeros(T.shape)
        for w, z0 in zip(weights, poles):
            out = out + w * np.exp(log_kernel_eval(T, X, V, z0))
        return out

    meta = {
        "seed": seed,
        "weights": weights.tolist(),
        "poles": [(float(z.t), z.x.tolist(), z.v.tolist()) for z in poles],
    }
    return evaluate, meta


#: The ``ExperimentEnsemble.params`` keys a member reads.
_ENSEMBLE_KEYS = ("coeff_kind", "lam", "Lam", "n", "cell_size", "radius")


@dataclass
class ExperimentEnsemble:
    """Reproducible family of nonnegative super-solutions: solver runs with
    rough coefficients (kind 'solver-rough', the only kind) from positive
    initial data with S >= 0.  ``member(i)`` returns (f, meta), the
    trajectory field and the dict that describes it.  ``params`` may set
    the keys of ``_ENSEMBLE_KEYS``; any other key is a ValueError.
    """

    kind: str = "solver-rough"
    count: int = 10
    seed: int = 0
    d: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind != "solver-rough":
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        unknown = sorted(set(self.params) - set(_ENSEMBLE_KEYS))
        if unknown:
            raise ValueError(f"unknown ensemble params key(s): {unknown}")

    def member(self, i: int):
        seed = self.seed * 100003 + i
        rng = np.random.default_rng(seed)
        p = self.params
        radius = float(p.get("radius", _R0_MIN))
        n = tuple(p.get("n", (64, 96, 48)))
        lam = float(p.get("lam", 1.0))
        Lam = float(p.get("Lam", 4.0))
        coeff_kind = p.get("coeff_kind", "checkerboard")
        box = BoxCylinder(
            -1.0, 0.0, np.zeros(self.d), radius, np.zeros(self.d), radius
        )
        grid = Grid(box, *n)
        coeffs = make_coefficients(
            grid, coeff_kind, lam, Lam, cell_size=p.get("cell_size", 0.5),
            seed=seed,
        )
        # positive Gaussian blob mixture as initial data, on the first slice
        # of the open coordinates
        d = self.d
        _, X, V = grid.open_coords
        X, V = X[0], V[0]
        init = np.zeros(grid.shape[1:])
        for _ in range(4):
            c = rng.uniform(-3, 3, size=2 * d)
            w = rng.uniform(0.5, 2.0)
            s = rng.uniform(0.5, 2.0)
            r2 = (np.sum((X - c[:d]) ** 2, axis=-1)
                  + np.sum((V - c[d:]) ** 2, axis=-1))
            init += w * np.exp(-r2 / (2 * s**2))
        f = solve(SolverConfig(coeffs, init, bc_x="copy-out",
                               bc_v="zero-flux"))
        meta = {"seed": seed, "coeff_kind": coeff_kind, "lam": lam,
                "Lam": Lam, "n": list(n), "radius": radius}
        return f, meta


# ---------------------------------------------------------------------------
# weak and local Poincare inequalities
# ---------------------------------------------------------------------------


def _poincare_rhs(f: ScalarField, H: NegSobolevInput) -> float:
    """|| grad_v f ||_{L2} + || H ||_{L2 H^-1}, both over f's whole grid."""
    ext = f.grid.domain
    return math.sqrt(grad_v_sq_integral(f, ext)) + h_minus1_norm(H, ext)


def _require_transport_control(f: ScalarField, H: NegSobolevInput):
    """Weak check of (d/dt + v.grad_x) f <= H against a few bumps, to the
    first-order tolerance."""
    g = f.grid
    tol = first_order_tol(f)
    T, X, V = g.open_coords
    dvol = g.cell_volume
    box = g.domain
    d = g.d
    widths = (0.2 * (box.t_max - box.t_min), 0.3 * box.rx, 0.3 * box.rv)
    centers = [
        (box.t_min + frac * (box.t_max - box.t_min), np.zeros(d), np.zeros(d))
        for frac in (0.3, 0.5, 0.7)
    ]
    for tc, xc, vc in centers:
        phi = Bump(tc, widths[0], xc, widths[1], vc, widths[2])
        lhs = transport_pairing(f, phi) * dvol
        rhs = np.sum(H.H0.values * phi.value(T, X, V)) * dvol
        rhs -= np.sum(
            np.einsum("...k,...k->...", H.H1.values, phi.grad_v(T, X, V))
        ) * dvol
        if lhs > rhs + tol:
            raise HypothesisError(
                f"transport-control hypothesis fails: {lhs:.3e} > {rhs:.3e}"
            )


def verify_weak_poincare(
    f: ScalarField,
    H: NegSobolevInput,
    eta: float,
) -> VerificationReport:
    """Mean-value gain from a vanishing set:

        || (f - theta0 M)_+ ||_{L2(Q_1)}
            <= C ( || grad_v f ||_{L2(Q_ext)} + || H ||_{L2 H^-1(Q_ext)} )

    with M = sup of f on Q_1 and theta0 from the localization analysis.
    Hypotheses checked: f >= 0; the zero set of f fills at least ``ALPHA0``
    of Q_zero; the transport derivative of f is dominated by H in weak form.
    """
    d = f.grid.d
    _require_nonnegative(f, "weak Poincare")
    zero_frac = zero_fraction(f, eta)
    _require_transport_control(f, H)

    pars = theta0_parameters(eta, d)
    q1 = norms(f, q_one(d))
    M = q1.sup
    lhs = q1.excess(pars["theta0"] * M).lp(2.0)
    rhs = _poincare_rhs(f, H)
    return VerificationReport(
        inequality="weak-poincare",
        lhs=lhs,
        rhs=rhs,
        params={"eta": eta, "alpha0": ALPHA0, "M": M,
                "theta0": pars["theta0"], "delta0": pars["delta0"],
                "zero_fraction": zero_frac},
        passed=np.isfinite(lhs) and np.isfinite(rhs),
    )


def verify_local_poincare(
    f: ScalarField,
    H: NegSobolevInput,
    cutoff: CutoffFunction,
) -> VerificationReport:
    """Gain against the localized evolution h = solve of L_K h = f L_K Psi:

        || (f - h)_+ ||_{L2(Q_1)}
            <= C ( || grad_v f ||_{L2(Q_ext)} + || H ||_{L2 H^-1(Q_ext)} )

    with predicted constant growth 1 + sup|grad_v Psi|, recorded in the
    report details for the two-cutoff comparison next to h's share of
    |h|-mass in the outermost cell shell of f's box.
    """
    g = f.grid
    _require_nonnegative(f, "local Poincare")
    _require_transport_control(f, H)
    psi = cutoff.evaluate(*g.open_coords)
    h = solve_cauchy(ScalarField(g, f.values * psi.lk))
    gain = ScalarField(g, f.values - h.values)
    lhs = norms(gain, q_one(g.d)).excess().lp(2.0)
    rhs = _poincare_rhs(f, H)
    grad_sup = float(np.max(np.sqrt(np.sum(psi.grad_v**2, axis=-1))))
    return VerificationReport(
        inequality="local-poincare",
        lhs=lhs,
        rhs=rhs,
        params={"eta": cutoff.eta, "T": cutoff.T, "R": cutoff.R},
        passed=np.isfinite(lhs) and np.isfinite(rhs),
        details={"grad_v_psi_sup": grad_sup, "shell_h": _shell_share(h),
                 "predicted_factor": 1.0 + grad_sup},
    )


# ---------------------------------------------------------------------------
# expansion of positivity and its descendants
# ---------------------------------------------------------------------------


def _half_measure(name: str, f, region, level: float, n) -> float:
    """The half-measure hypothesis ``name``: f >= level on at least half of
    the cells of the region's local grid (see ``local_norms``).  Returns
    that share; HypothesisError when it is below 1/2."""
    frac = local_norms(f, region, n).fraction(lambda v: v >= level)
    if frac < 0.5:
        raise HypothesisError(
            f"{name} hypothesis fails: fraction {frac:.3f} < 0.5"
        )
    return frac


def verify_expansion_of_positivity(
    f,
    theta: float,
    eps: float = 1e-2,
    source_sup: float = 0.0,
    d: int = 1,
    n_local=N_LOCAL,
) -> VerificationReport:
    """Measure-positivity in the past implies pointwise positivity now:

    if |{f >= 1} meet Q_pos| >= (1/2)|Q_pos| then inf over Q_1 of f >= l0.

    The report carries the empirical infimum (lhs) next to the formula
    value l0 = eps^((2+theta0)/3) - eps (rhs).  Since theta0 = 1 up to an
    underflowing correction, the formula value collapses to 0 in double
    precision and the meaningful check is strict positivity of the
    infimum; both numbers are recorded.
    """
    pars = pop_parameters(theta)
    if source_sup > _ETA0:
        raise HypothesisError(
            f"source bound fails: sup|S| = {source_sup} > eta0 = {_ETA0}"
        )
    frac = _half_measure("positivity-measure", f, q_pos(theta, d), 1.0,
                         n_local)
    ext = BoxCylinder(-1.0 - theta**2, 0.0, np.zeros(d), 9.0, np.zeros(d), 3.0)
    if local_norms(f, ext, n_local).inf < 0.0:
        raise HypothesisError("expansion of positivity requires f >= 0")
    th = theta0_parameters(pars.eta, d)
    ell0_formula = eps ** ((2.0 + th["theta0"]) / 3.0) - eps
    inf_q1 = local_norms(f, q_one(d), n_local).inf
    return VerificationReport(
        inequality="expansion-of-positivity",
        lhs=inf_q1,
        rhs=ell0_formula,
        params={"theta": theta, "iota": pars.iota, "eta": pars.eta,
                "time_lap": pars.time_lap, "eps": eps, "eta0": _ETA0,
                "theta0": th["theta0"], "positive_fraction": frac},
        passed=inf_q1 > 0.0 and inf_q1 >= ell0_formula,
        details={"ell0_empirical": inf_q1, "ell0_formula": ell0_formula},
    )


def verify_minima_measure(
    f,
    m: int,
    M: float,
    d: int = 1,
) -> VerificationReport:
    """Large values on half of Q_1 force f >= 1 on the stacked cylinder:

    if |{f >= M} meet Q_1| >= (1/2)|Q_1| then f >= 1 on
    Qbar_1^m = (0, m] x B_{m+2} x B_1, for M = 1 / l0 at aperture
    theta = m^{-1/2}.
    """
    if m < 3:
        raise HypothesisError("minima-measure requires m >= 3")
    theta = m ** (-0.5)
    frac = _half_measure("minima-measure", f, q_one(d), M, N_LOCAL)
    inf_bar = local_norms(f, q_bar(m, d), N_LOCAL).inf
    return VerificationReport(
        inequality="minima-measure",
        lhs=inf_bar,
        rhs=1.0,
        params={"m": m, "theta": theta, "M": M, "value_fraction": frac},
        passed=inf_bar >= 1.0 - 1e-12,
    )


def verify_pop_large_times(
    f,
    z0: PhasePoint,
    r: float,
    omega: float = 1e-2,
) -> VerificationReport:
    """Positivity on a small past cylinder propagates to Q_+:

    if |{f >= A} meet Q_r(z0)| >= (1/2)|Q_r(z0)| (with Q_r(z0) inside Q_-)
    then f >= A (r^2/4)^{p0} on Q_+, where p0 = -log_4 l0 for the
    positivity gain l0 of the aperture-1/2 pipeline (empirical input); A
    and l0 are ``_A`` and ``_ELL0``.
    """
    seq = stack_cylinders(z0, r, omega)  # validates Q_r(z0) inside Q_-
    frac = _half_measure("large-times", f, seq.base, _A, N_LOCAL)
    p0 = -math.log(_ELL0, 4.0)
    rhs = _A * (r * r / 4.0) ** p0
    lhs = local_norms(f, q_plus(omega, z0.d).box_hull(), N_LOCAL).inf
    stack_infs = [local_norms(f, Q, N_LOCAL).inf for Q in seq.cylinders]
    return VerificationReport(
        inequality="expansion-of-positivity-large-times",
        lhs=lhs,
        rhs=rhs,
        params={"r": r, "A": _A, "omega": omega, "ell0": _ELL0, "p0": p0,
                "N": seq.N, "value_fraction": frac},
        passed=lhs >= rhs and lhs > 0.0,
        details={"stack_infima": stack_infs},
    )


# ---------------------------------------------------------------------------
# weak Harnack, Harnack, Hoelder
# ---------------------------------------------------------------------------


def _source_reduced(f, source_sup: float, frame: PhasePoint | None = None):
    """The evaluator f + sup|S| t, with f pulled back along z -> frame o z
    (a measure-preserving change of variables) when a frame is given."""
    ev = as_evaluator(f)

    def reduced(T, X, V):
        if frame is None:
            moved = ev(T, X, V)
        else:
            T, X, V = broadcast_coords(T, X, V)
            moved = ev(*group_product(frame, PhasePoint(T, X, V)))
        return moved + source_sup * np.asarray(T, dtype=float)

    return reduced


def _domain_gate(R0: float, omega: float) -> None:
    """The weak Harnack domain gates R0 >= ``_R0_MIN`` and
    R0 >= 9 R_{m^{-1/2}} m^{3/2} omega^3 at m = ``_M``, with both
    localization radii realized as 1 in this implementation."""
    if R0 < _R0_MIN:
        raise HypothesisError(f"domain gate fails: R0 = {R0} < {_R0_MIN:g}")
    if R0 < 9.0 * _M**1.5 * omega**3:
        raise HypothesisError("domain gate fails: R0 too small for omega, m")


def verify_weak_harnack(
    f,
    p: float = 1.0,
    omega: float = 1e-2,
    source_sup: float = 0.0,
    R0: float = _R0_MIN,
    d: int = 1,
    frame: PhasePoint | None = None,
    n_local=N_LOCAL,
    refine: int = 0,
) -> VerificationReport:
    """Past Lp average controlled by the future infimum:

        ( int over Q_- of f^p )^{1/p} <= C ( inf over Q_+ of f + sup|S| ).

    The source reduction replaces f by f + sup|S| * t before both sides are
    measured.  The domain gates are those of ``_domain_gate``, at the stack
    count m = ``_M``.  ``frame`` reruns the whole computation in a
    transported frame (the group action preserves measure, so the ratio is
    invariant up to quadrature error).
    """
    if p <= 0.0:
        raise ValueError("p must be positive")
    _domain_gate(R0, omega)
    reduced = _source_reduced(f, source_sup, frame)
    qm = q_minus(omega, d)
    qp = q_plus(omega, d).box_hull()

    def fit(nn):
        lhs = local_norms(reduced, qm, nn).lp(p)
        rhs = local_norms(reduced, qp, nn).inf + source_sup
        return lhs, rhs

    lhs, rhs = fit(n_local)
    refinement = []
    nn = n_local
    for level in range(refine):
        nn = tuple(2 * k for k in nn)
        l2, r2 = fit(nn)
        refinement.append([level + 1, (l2 / r2) if r2 > 0 else None])
    return VerificationReport(
        inequality="weak-harnack",
        lhs=lhs,
        rhs=rhs,
        params={"p": p, "omega": omega, "source_sup": source_sup,
                "R0": R0, "m": _M,
                "frame": None if frame is None
                else [frame.t, frame.x.tolist(), frame.v.tolist()]},
        passed=np.isfinite(lhs) and rhs > 0.0,
        refinement=refinement,
    )


def verify_harnack(
    f,
    omega: float = 1e-2,
    source_sup: float = 0.0,
    R0: float = _R0_MIN,
    d: int = 1,
    n_local=N_LOCAL,
) -> VerificationReport:
    """Full Harnack: sup over Q_- controlled by inf over Q_+ (plus source).

    Composes the interior upper bound (sup over Q_- against the L2 mass of
    an enlarged past cylinder) with the weak Harnack inequality at p = 2
    and m = ``_M``, whose gates it shares; the two fitted constants are
    recorded in the details and the headline numbers are the direct sup /
    inf pair.  Q_- and the hull of Q_+ are each measured once, for both.
    """
    _domain_gate(R0, omega)
    reduced = _source_reduced(f, source_sup)
    enlarged = BoxCylinder(
        -1.0 - 3.0 * omega**2, -1.0 + 2.0 * omega**2,
        np.zeros(d), 2.0 * omega**3, np.zeros(d), 2.0 * omega,
    )
    l2_mass = local_norms(reduced, enlarged, n_local).lp(2.0)
    inf_plus = local_norms(reduced, q_plus(omega, d).box_hull(), n_local).inf
    # Q_- last, so that its values are the only local grid kept alive
    minus = local_norms(reduced, q_minus(omega, d), n_local)
    lhs = minus.sup
    rhs = inf_plus + source_sup
    c_local = lhs / l2_mass if l2_mass > 0 else None
    weak_c = minus.lp(2.0) / rhs if rhs > 0 else None
    return VerificationReport(
        inequality="harnack",
        lhs=lhs,
        rhs=rhs,
        params={"omega": omega, "source_sup": source_sup, "R0": R0},
        passed=np.isfinite(lhs) and rhs > 0.0,
        details={"local_bound_fitted": c_local,
                 "weak_harnack_fitted": weak_c},
    )


def estimate_holder(
    f,
    levels: int = 5,
    d: int = 1,
) -> VerificationReport:
    """Oscillation decay over nested kinetic cylinders.

    Measures osc over Q_{r_base * rbar^{-k}} (boxes at the origin, with
    r_base = ``_R_BASE`` and rbar = ``_RBAR``) for k = 0..levels-1 after
    normalizing f to [0, 2] on the base cylinder, fits log osc_k against
    k, and reports the exponent alpha = -slope / log(rbar) with the fit's
    R^2.  Records which branch of the shrinking dichotomy (f vs 2 - f) each
    level took.  The report's lhs is the finest oscillation and its rhs the
    base one; it passes when f is constant on the base cylinder (every osc
    0) or when osc decreases strictly with a fit of R^2 >= 0.9.
    """
    if levels < 2:
        raise ValueError("need at least 2 levels")
    ev = as_evaluator(f)
    base_box = Cylinder(origin(d), _R_BASE).box_hull()
    base = local_norms(ev, base_box, N_LOCAL)
    if isinstance(f, ScalarField):
        finest = _R_BASE * _RBAR ** (-(levels - 1))
        if finest**3 < f.grid.dx or finest < f.grid.dv:
            raise ValueError(
                "insufficient levels before hitting grid resolution"
            )
    if base.osc <= 0.0:
        return _holder_report([0.0] * levels, None, None, ["f"] * levels,
                              monotone=True, constant=True)

    def normalized(T, X, V):
        return 2.0 * (ev(T, X, V) - base.inf) / base.osc

    osc = []
    branches = []
    for k in range(levels):
        r = _R_BASE * _RBAR ** (-k)
        box = Cylinder(origin(d), r).box_hull()
        osc.append(local_norms(normalized, box, N_LOCAL).osc)
        past = Cylinder(PhasePoint(-(r**2), np.zeros(d), np.zeros(d)),
                        r).box_hull()
        frac_low = local_norms(normalized, past, N_LOCAL).fraction(
            lambda v: v <= 1.0)
        branches.append("f" if frac_low <= 0.5 else "2-f")
    osc_arr = np.array(osc)
    pos = osc_arr > 0.0
    ks = np.arange(levels)[pos]
    logs = np.log(osc_arr[pos])
    slope, intercept = np.polyfit(ks, logs, 1)
    pred = slope * ks + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    return _holder_report(
        [float(o) for o in osc], float(-slope / math.log(_RBAR)),
        1.0 - ss_res / ss_tot if ss_tot > 0 else None, branches,
        monotone=bool(np.all(np.diff(osc_arr) < 0.0)), constant=False)


def _holder_report(osc, alpha_fit, r_squared, branches, monotone,
                   constant) -> VerificationReport:
    return VerificationReport(
        "holder-oscillation-decay", osc[-1], osc[0],
        params={"alpha_fit": alpha_fit, "r_squared": r_squared,
                "branches": branches, "osc": osc, "monotone": monotone,
                "constant": constant},
        passed=constant or (monotone and r_squared is not None
                            and r_squared >= 0.9))
