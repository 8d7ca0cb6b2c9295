"""End-to-end acceptance suite.

Each test checks one headline criterion at full scale and prints a single
summary line.  Run with ``pytest tests/test_acceptance.py -s`` to see every
line; the suite is slower than the unit tests (several minutes total).
"""

import math

import numpy as np
import pytest

from conftest import stacking_bases
from kinfp.fields import BoxCylinder, CoefficientField, Grid, ScalarField, make_coefficients
from kinfp.fpsolver import SolverConfig, solve
from kinfp.geometry import (
    Cylinder,
    PhasePoint,
    check_stacking,
    cylinder_in_cylinder,
    group_inverse,
    group_product,
    origin,
    pop_parameters,
    q_minus,
    q_pos,
    stack_cylinders,
)
from kinfp.harness import (
    ExperimentEnsemble,
    estimate_holder,
    make_kernel_mixture,
    normalize_by_infimum,
    verify_expansion_of_positivity,
    verify_weak_harnack,
)
from kinfp.inkspots import (
    find_dense_cylinders,
    generate_hypothesis_pair,
    verify_inkspots,
)
from kinfp.kolmogorov import kernel_eval, localization_bound
from kinfp.logtransform import g_eval, g_prime, g_second


def report(tag, ok, detail):
    print(f"\n[criterion {tag}] {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {tag}: {detail}"


def batch(w):
    """Points (t, x, v) at d = 1 from the last axis of w."""
    return PhasePoint(w[..., 0], w[..., 1:2], w[..., 2:3])


def test_criterion_01_group_exactness():
    # the same stream as 10^5 draws of three points (t, x, v) each, then
    # 10^5 draws of (center, radius, point), evaluated as batches
    rng = np.random.default_rng(1)
    n = 100_000
    z1, z2, z3 = (batch(w) for w in
                  rng.uniform(-1.0, 1.0, size=(n, 3, 3)).transpose(1, 0, 2))
    left = group_product(group_product(z1, z2), z3)
    right = group_product(z1, group_product(z2, z3))
    scale = np.maximum(np.maximum(np.maximum(1.0, np.abs(left.t)),
                                  np.max(np.abs(left.x), axis=-1)),
                       np.max(np.abs(left.v), axis=-1))
    gap = np.maximum(np.maximum(np.abs(left.t - right.t),
                                np.max(np.abs(left.x - right.x), axis=-1)),
                     np.max(np.abs(left.v - right.v), axis=-1))
    worst = float(np.max(gap / scale))
    # dual membership: direct inequalities vs the group pullback
    lo = np.array([-0.5, -0.5, -0.5, 0.1, -1.0, -1.0, -1.0])
    hi = np.array([0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0])
    w = rng.uniform(lo, hi, size=(n, 7))
    Q = Cylinder(batch(w[:, :3]), w[:, 3])
    z = batch(w[:, 4:])
    mismatches = int(np.count_nonzero(Q.contains_point(z)
                                      != Q.contains_via_group(z)))
    ok = worst <= 1e-12 and mismatches == 0
    report("01 group exactness", ok,
           f"assoc rel err {worst:.2e} (<=1e-12), "
           f"dual-membership mismatches {mismatches}/100000")


def test_criterion_02_stacking_suite():
    rng = np.random.default_rng(2)
    omega = 1e-2
    # the first 10^4 bases inside Q_- of a stream that draws r, t0, x0 and
    # v0 per base with rng.uniform, stacked as one batch
    bases = stacking_bases(rng, 10_000, 1, omega)
    results = check_stacking(stack_cylinders(bases.center, bases.r, omega))
    checked = len(bases.r)
    failures = int(np.count_nonzero(~np.all(list(results.values()), axis=0)))
    report("02 stacking suite", failures == 0,
           f"{checked} random bases at omega=1e-2, {failures} failures")


def test_criterion_03_kernel_moments_and_residual():
    pole = origin(1)
    worst = 0.0
    for s in (0.1, 0.5, 1.0):
        rad_v = 10.0 * math.sqrt(2.0 * s)
        rad_x = 10.0 * math.sqrt(2.0 * s**3 / 3.0)
        x = np.linspace(-rad_x, rad_x, 240)
        v = np.linspace(-rad_v, rad_v, 240)
        X, V = np.meshgrid(x, v, indexing="ij")
        w = kernel_eval(np.full(X.shape, s), X[..., None], V[..., None], pole)
        dA = (x[1] - x[0]) * (v[1] - v[0])
        mass = float(np.sum(w)) * dA
        var_v = float(np.sum(w * V**2)) * dA
        cov_xv = float(np.sum(w * X * V)) * dA
        var_x = float(np.sum(w * X**2)) * dA
        worst = max(worst, abs(mass - 1.0), abs(var_v - 2 * s),
                    abs(cov_xv - s**2), abs(var_x - 2 * s**3 / 3))
    # operator residual on the analytic kernel under stencil refinement
    rng = np.random.default_rng(3)
    pts = [(float(rng.uniform(0.4, 1.0)), float(rng.uniform(-1, 1)),
            float(rng.uniform(-1.5, 1.5))) for _ in range(40)]

    def residual(h):
        worst_r = 0.0
        for (t, x0, v0) in pts:
            f = lambda tt, xx, vv: kernel_eval(
                np.array([tt]), np.array([xx]), np.array([vv]), pole).item()
            dt = (f(t + h, x0, v0) - f(t - h, x0, v0)) / (2 * h)
            dx = (f(t, x0 + h, v0) - f(t, x0 - h, v0)) / (2 * h)
            dvv = (f(t, x0, v0 + h) - 2 * f(t, x0, v0)
                   + f(t, x0, v0 - h)) / h**2
            worst_r = max(worst_r, abs(dt + v0 * dx - dvv))
        return worst_r

    errs = [residual(h) for h in (0.02, 0.01, 0.005)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = worst <= 1e-6 and min(orders) >= 1.9 and orders[-1] >= 1.99
    report("03 kernel moments", ok,
           f"moment err {worst:.2e} (<=1e-6), residual orders "
           f"{[round(o, 3) for o in orders]} (-> 2)")


def _kernel_tracking_orders(interp):
    """Convergence orders of the exact fundamental solution as a moving
    target, at n = 16, 32, 64."""
    box = BoxCylinder(0.5, 1.0, np.zeros(1), 6.0, np.zeros(1), 5.0)
    errs = []
    for n in (16, 32, 64):
        g = Grid(box, n, 2 * n, n)
        c = make_coefficients(g, "constant", 1.0, 1.0)
        X0 = g.x_axis[0][:, None] * np.ones((1, g.n_v))
        V0 = g.v_axis[0][None, :] * np.ones((g.n_x, 1))
        init = kernel_eval(np.full(X0.shape, box.t_min), X0[..., None],
                           V0[..., None], origin(1))
        f = solve(SolverConfig(c, init, transport_interp=interp))
        T, X, V = g.coords
        exact = kernel_eval(T, X, V, origin(1))
        errs.append(float(np.sum(np.abs(f.values[-1] - exact[-1]))
                          * g.dx * g.dv))
    return [math.log2(errs[i] / errs[i + 1]) for i in range(2)]


def _manufactured_orders(interp):
    """Convergence orders of the manufactured solution
    u = (t - t0) * gaussian(x) * gaussian(v), at n = 16, 32, 64."""
    t0 = 0.0
    merrs = []
    for n in (16, 32, 64):
        g = Grid(BoxCylinder(t0, 0.5, np.zeros(1), 6.0, np.zeros(1), 5.0),
                 n, 2 * n, n)
        T, X, V = g.coords
        gx = np.exp(-X[..., 0] ** 2 / 2) * np.exp(-V[..., 0] ** 2 / 2)
        u = (T - t0) * gx
        S = gx * (1.0 + (T - t0) * (-X[..., 0] * V[..., 0]
                                    + 1.0 - V[..., 0] ** 2))
        eye = np.zeros(g.shape + (1, 1))
        eye[..., 0, 0] = 1.0
        coeffs = CoefficientField(g, eye, np.zeros(g.shape + (1,)), S,
                                  lam=1.0, Lam=1.0)
        f = solve(SolverConfig(coeffs, np.zeros(g.shape[1:]),
                               transport_interp=interp))
        merrs.append(float(np.sum(np.abs(f.values[-1] - u[-1]))
                           * g.dx * g.dv))
    return [math.log2(merrs[i] / merrs[i + 1]) for i in range(2)]


def test_criterion_04_solver_convergence_and_positivity():
    # the order bound is certified for pchip transport; the linear
    # transport every library solve runs is measured and printed, not gated
    track_orders = _kernel_tracking_orders("pchip")
    man_orders = _manufactured_orders("pchip")
    linear_orders = (_kernel_tracking_orders("linear"),
                     _manufactured_orders("linear"))

    rng = np.random.default_rng(4)
    worst_min = 0.0
    for _ in range(100):
        g = Grid(BoxCylinder(0.5, 1.0, np.zeros(1), 6.0, np.zeros(1), 5.0),
                 12, 24, 12)
        c = make_coefficients(g, "random", 0.5, 2.0,
                              seed=int(rng.integers(1 << 30)))
        f = solve(SolverConfig(c, rng.uniform(0, 1, (g.n_x, g.n_v))))
        worst_min = min(worst_min, float(f.values.min()))
    ok = (min(track_orders) >= 1.0 and min(man_orders) >= 1.0
          and worst_min >= -1e-12)
    report("04 solver orders", ok,
           f"pchip tracking orders {[round(o, 2) for o in track_orders]} "
           f"(>=1), manufactured orders {[round(o, 2) for o in man_orders]} "
           f"(>=1), "
           f"min over 100 nonneg runs {worst_min:.1e} (>=-1e-12); "
           f"linear transport, not gated: tracking orders "
           f"{[round(o, 2) for o in linear_orders[0]]}, manufactured orders "
           f"{[round(o, 2) for o in linear_orders[1]]}")


def test_criterion_05_log_transform_profile():
    t = np.geomspace(1e-8, 2.0, 10_000)
    small = t[t <= 0.25]
    props = {
        "convexity": float(np.min(g_second(t) - g_prime(t) ** 2)) >= -1e-9,
        "nonincreasing": float(np.max(g_prime(t))) <= 0.0,
        "support": bool(np.all(g_eval(t[t >= 1.0]) == 0.0)),
        "derivative bound": float(np.max(small * (-g_prime(small)))) <= 1.0 + 1e-9,
        "log asymptotics": 0.91 <= g_eval(1e-8) / (-math.log(1e-8)) <= 1.0,
    }
    bad = [k for k, v in props.items() if not v]
    report("05 log-transform profile", not bad,
           f"5 properties on 10^4 log-spaced samples; failing: {bad or 'none'}")


def _localization_fixture(seed, eta, R=1.0, nx=128, nv=32):
    box = BoxCylinder(-1.0 - eta**2, 0.0, np.zeros(1), 8.0 * R,
                      np.zeros(1), 2.0 * R)
    g = Grid(box, 128, nx, nv)
    T, X, V = g.coords
    rng = np.random.default_rng(seed)
    blobs = np.zeros(g.shape)
    for _ in range(3):
        cx, cv = rng.uniform(-4, 4, 2)
        blobs += rng.uniform(0.5, 2.0) * np.exp(
            -((X[..., 0] - cx) ** 2 + (V[..., 0] - cv) ** 2))
    # vanish on the half-space v < 1/4, which covers the required fraction
    # of the reference vanishing box
    return ScalarField(g, blobs * (V[..., 0] >= 0.25))


def test_criterion_06a_localization_bound():
    eta = pop_parameters(0.5).eta
    worst = -np.inf
    for seed in range(20):
        f = _localization_fixture(seed, eta)
        out = localization_bound(f, eta)
        worst = max(worst, out["sup_h_Q1"] - out["theta0"] * out["sup_f"])
        if not out["passed_h"]:
            break
    report("06a localization bound", worst <= 1e-12,
           f"20 fixtures, max (sup h - theta0 sup f) = {worst:.2e} (<=1e-12)")


def test_criterion_06b_error_term_scale_decay():
    # The R^{-2} claim for the commutator term E_R is the one-sided
    # max-principle bound sup|E_R| <= c_e / R^2 (passed_E), asserted at every
    # R.  Across radii only its upper half is promised: R^2 sup_Q1|E_R| may
    # not grow with R (factor 2 of slack); a broken R-scaling of the cutoff
    # would make it grow like R^2.  There is no lower bound: the source
    # (sup f - f) Lap_v Psi_R vanishes unless |v| >= R or |x - t v| >= 3R,
    # a distance of order R from Q_1, so inside Q_1 the term decays like a
    # Gaussian tail in R.
    eta = pop_parameters(0.5).eta
    scaled = []
    global_ok = True
    for R, nx, nv in ((1.0, 128, 32), (2.0, 320, 48), (4.0, 640, 64)):
        f = _localization_fixture(0, eta, R=R, nx=nx, nv=nv)
        out = localization_bound(f, eta, R=R)
        scaled.append(abs(out["sup_E_Q1"]) * R**2)
        global_ok = global_ok and out["passed_E"]
    lo = min(scaled)
    no_growth = all(scaled[j] <= 2.0 * scaled[i]
                    for i in range(len(scaled))
                    for j in range(i + 1, len(scaled)))
    ok = global_ok and lo > 0.0 and no_growth
    report("06b error-term scale decay", ok,
           f"sup_Q1|E_R| R^2 = {[f'{s:.2e}' for s in scaled]} at R=1,2,4 "
           f"(need > 0 and each <= 2x its value at every smaller R: "
           f"{no_growth}); global bound sup|E_R| <= c_e/R^2 holds: "
           f"{global_ok}")


def test_criterion_07_expansion_of_positivity_ensemble():
    theta = 0.5
    infima = []
    formula = None
    for i in range(100):
        f0, _ = make_kernel_mixture(100_003 + i, d=1)
        f = normalize_by_infimum(f0, q_pos(theta, 1), n=(64, 64, 64))
        rep = verify_expansion_of_positivity(f, theta, n_local=(64, 64, 64))
        assert rep.passed
        infima.append(rep.lhs)
        formula = rep.details["ell0_formula"]
    ok = min(infima) > 0.0
    report("07 expansion of positivity", ok,
           f"100 members, inf over the unit cylinder in "
           f"[{min(infima):.3f}, {max(infima):.3f}] (all > 0); "
           f"formula l0 = {formula!r} (degenerate in float64)")


def test_criterion_08_weak_harnack():
    # exact constant on the constant field
    const = lambda T, X, V: np.ones(np.asarray(T, dtype=float).shape)
    worst_const = 0.0
    for p in (1.0, 2.0):
        rep = verify_weak_harnack(const, p=p)
        exact = q_minus(1e-2, 1).volume() ** (1.0 / p)
        worst_const = max(worst_const, abs(rep.fitted_c - exact) / exact)

    # rough-coefficient ensemble: finiteness and refinement stability
    params = {"coeff_kind": "checkerboard", "lam": 1.0, "Lam": 4.0}
    coarse = ExperimentEnsemble(kind="solver-rough", count=100, seed=8,
                                params=params)
    fine = ExperimentEnsemble(kind="solver-rough", count=100, seed=8,
                              params={**params, "n": (128, 192, 96)})
    worst_drift = 0.0
    for i in range(100):
        c_lo = verify_weak_harnack(coarse.member(i)[0], p=1.0).fitted_c
        c_hi = verify_weak_harnack(fine.member(i)[0], p=1.0).fitted_c
        assert np.isfinite(c_lo) and np.isfinite(c_hi) and c_lo > 0.0
        worst_drift = max(worst_drift, abs(c_hi - c_lo) / c_lo)

    # transported-frame invariance of the fitted ratio
    rng = np.random.default_rng(88)
    worst_frame = 0.0
    for i in range(20):
        f, _ = make_kernel_mixture(7_000 + i)
        z0 = PhasePoint(float(rng.uniform(-0.05, 0.05)),
                        rng.uniform(-0.05, 0.05, 1),
                        rng.uniform(-0.2, 0.2, 1))
        framed = verify_weak_harnack(f, frame=z0).fitted_c

        def pushed(T, X, V, f=f, z0=z0):
            T = np.asarray(T, dtype=float)
            return f(z0.t + T, z0.x + X + T[..., None] * z0.v, z0.v + V)

        direct = verify_weak_harnack(pushed).fitted_c
        worst_frame = max(worst_frame, abs(framed - direct) / direct)
    ok = worst_const <= 1e-10 and worst_drift <= 0.2 and worst_frame <= 0.05
    report("08 weak Harnack", ok,
           f"constant-fixture err {worst_const:.1e} (<=1e-10), refinement "
           f"drift {worst_drift:.1%} (<=20%), frame ratio gap "
           f"{worst_frame:.1e} (<=5%)")


def test_criterion_09_covering_inequality():
    pairs = []
    c_stars = []
    for seed in range(1000):
        E, F = generate_hypothesis_pair(seed, k=3, m=3, r0=0.3)
        rep = verify_inkspots(E, F, 0.3, 3, 0.3, 0.05, 1.0)
        assert rep.passed and rep.params["c_star"] > 0.0
        pairs.append((E, F))
        c_stars.append(rep.params["c_star"])
    c_env = min(c_stars)
    failures = sum(
        not verify_inkspots(E, F, 0.3, 3, 0.3, c_env, 1.0).passed
        for E, F in pairs
    )

    # monotonicity of the bound in the density parameter
    E, F = pairs[4]
    rhs = [verify_inkspots(E, F, mu, 3, 0.3, 0.1, 1.0).rhs
           for mu in (0.1, 0.3, 0.5)]
    monotone = rhs[0] >= rhs[1] >= rhs[2]

    # fast scan vs exhaustive per-cell scan on small grids
    def brute(E, mu, radii):
        found = set()
        T, X, V = E.grid.coords
        for r in sorted(radii, reverse=True):
            for flat in range(T.size):
                idx = np.unravel_index(flat, E.grid.shape)
                Q = Cylinder(PhasePoint(float(T[idx]), X[idx].copy(),
                                        V[idx].copy()), float(r))
                if not cylinder_in_cylinder(Q, E.region):
                    continue
                inside = Q.contains(T, X, V)
                n_q = int(np.count_nonzero(inside))
                n_e = int(np.count_nonzero(E.mask & inside))
                if n_q > 0 and n_e >= (1.0 - mu) * n_q:
                    found.add((Q.center.t, float(Q.center.x[0]),
                               float(Q.center.v[0]), r))
        return found

    equiv = True
    for seed in range(3):
        E, _ = generate_hypothesis_pair(seed, k=4, m=3, r0=0.4, n=(16, 16, 16))
        radii = [0.5, 0.25, 0.125]
        fast = {(Q.center.t, float(Q.center.x[0]), float(Q.center.v[0]), Q.r)
                for Q in find_dense_cylinders(E, 0.3, radii)}
        equiv = equiv and fast == brute(E, 0.3, radii)
    ok = failures == 0 and monotone and equiv
    report("09 covering inequality", ok,
           f"1000 pairs at envelope (c*={c_env:.3f}, C*=1): {failures} "
           f"failures; density monotonicity {monotone}; "
           f"scan equivalence {equiv}")


def test_criterion_10_oscillation_decay():
    f, _ = make_kernel_mixture(3, n_terms=1)
    res = estimate_holder(f, levels=5).params
    osc = res["osc"]
    decreasing = all(osc[i] > osc[i + 1] for i in range(len(osc) - 1))
    cres = estimate_holder(lambda T, X, V: np.full(
        np.asarray(T, dtype=float).shape, 4.0)).params
    const_ok = cres["constant"] and cres["osc"] == [0.0] * 5
    ok = (len(osc) >= 4 and decreasing and res["r_squared"] >= 0.9
          and res["alpha_fit"] > 0.0 and const_ok)
    report("10 oscillation decay", ok,
           f"5 nested levels, osc strictly decreasing: {decreasing}, "
           f"fit R^2 = {res['r_squared']:.3f} (>=0.9), alpha = "
           f"{res['alpha_fit']:.2f}; constant gives zero oscillation: "
           f"{const_ok}")
