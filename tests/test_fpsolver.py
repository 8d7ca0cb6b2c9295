import hashlib
import itertools
import math

import numpy as np
import pytest

from kinfp import fpsolver
from kinfp.fields import BoxCylinder, CoefficientField, Grid, ScalarField, make_coefficients
from kinfp.fpsolver import (
    Bump,
    CFLError,
    NumericalAbort,
    SolverConfig,
    default_test_set,
    local_bound_check,
    solve,
    weak_residual,
)
from kinfp.geometry import origin
from kinfp.kolmogorov import kernel_eval


def make_grid(n=(16, 32, 16), box=None, d=1):
    box = box or BoxCylinder(0.5, 1.0, np.zeros(d), 6.0, np.zeros(d), 5.0)
    return Grid(box, *n)


def kernel_initial(grid):
    X = grid.x_axis[0][:, None, None] * np.ones((1, grid.n_v, 1))
    V = grid.v_axis[0][None, :, None] * np.ones((grid.n_x, 1, 1))
    T = np.full((grid.n_x, grid.n_v), grid.domain.t_min)
    return kernel_eval(T, X, V, origin(1))


class TestBasics:
    def test_constant_preserved(self):
        # both interpolants read the pads the x boundary fills
        g = make_grid((8, 16, 8))
        c = make_coefficients(g, "constant", 1.0, 1.0)
        for bc_x, interp in itertools.product(("copy-out", "periodic"),
                                              ("linear", "pchip")):
            f = solve(SolverConfig(c, np.full((g.n_x, g.n_v), 2.5),
                                   bc_x=bc_x, bc_v="zero-flux",
                                   transport_interp=interp))
            assert np.allclose(f.values, 2.5, atol=1e-12), (bc_x, interp)

    @pytest.mark.parametrize("change, message", [
        ({"initial": np.zeros((3, 3))},
         r"^initial slice shape \(3, 3\) does not match grid spatial "
         r"shape \(16, 8\)$"),
        ({"bc_x": "open"}, r"^bc_x must be one of \('dirichlet', "),
        ({"bc_v": "periodic"}, r"^bc_v must be one of \('dirichlet', "),
        ({"transport_interp": "cubic"},
         r"^transport_interp must be 'linear' or 'pchip'$"),
    ], ids=["initial", "bc_x", "bc_v", "transport_interp"])
    def test_config_rejects(self, change, message):
        g = make_grid((8, 16, 8))
        c = make_coefficients(g, "constant", 1.0, 1.0)
        with pytest.raises(ValueError, match=message):
            SolverConfig(**{"coeffs": c, "initial": np.zeros((16, 8)),
                            **change})

    def test_config_grid_is_the_coefficients_grid(self):
        g = make_grid((8, 16, 8))
        c = make_coefficients(g, "constant", 1.0, 1.0)
        assert SolverConfig(c, np.zeros((g.n_x, g.n_v))).grid is c.grid

    def test_mass_conservation_linear_transport(self):
        g = make_grid((32, 48, 24))
        c = make_coefficients(g, "checkerboard", 1.0, 2.0)
        init = kernel_initial(g)
        f = solve(SolverConfig(c, init, bc_x="periodic", bc_v="zero-flux"))
        m0 = init.sum()
        drift = abs(f.values[-1].sum() - m0) / m0
        assert drift <= 1e-12

    def test_positivity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = make_grid((12, 24, 12))
            c = make_coefficients(g, "random", 0.5, 2.0,
                                  seed=int(rng.integers(1 << 30)))
            init = rng.uniform(0, 1, (g.n_x, g.n_v))
            f = solve(SolverConfig(c, init))
            assert f.values.min() >= -1e-12

    def test_cfl_guard(self):
        # dt = 0.25 while dx / |v|max = 0.05
        g = make_grid((2, 8, 64), box=BoxCylinder(0.5, 1.0, np.zeros(1), 1.0,
                                                  np.zeros(1), 5.0))
        c = make_coefficients(g, "constant", 1.0, 1.0)
        with pytest.raises(CFLError):
            solve(SolverConfig(c, np.zeros((g.n_x, g.n_v))))

    def test_nan_abort(self):
        g = make_grid((8, 16, 8))
        c = make_coefficients(g, "constant", 1.0, 1.0)
        init = np.full((g.n_x, g.n_v), 1.0)
        init[0, 0] = np.inf
        with pytest.raises(NumericalAbort):
            solve(SolverConfig(c, init))


def thomas_reference(lower, diag, upper, rhs):
    """Plain Thomas solve of one tridiagonal system in Python floats: the
    reference the batched factor and apply must equal bit for bit."""
    n = len(rhs)
    cp, dp = [0.0] * n, [0.0] * n
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
    x = [0.0] * n
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


class TestTridiagonal:
    @pytest.mark.parametrize("n,batch", [(2, (5,)), (17, (4, 3)), (48, (9,))])
    def test_factor_apply_match_reference_bitwise(self, n, batch):
        rng = np.random.default_rng(n)
        lower = rng.uniform(-1.0, 1.0, (n,) + batch)
        upper = rng.uniform(-1.0, 1.0, (n,) + batch)
        lower[0] = upper[-1] = 0.0
        diag = np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 2.0, lower.shape)
        factor = fpsolver._tridiag_factor(lower, diag, upper)
        # one factor, two right-hand sides
        for rhs in rng.uniform(-1.0, 1.0, (2, n) + batch):
            x = fpsolver._tridiag_apply(factor, rhs.copy())
            for line in np.ndindex(*batch):
                col = (slice(None),) + line
                ref = thomas_reference(*(a[col].tolist() for a in
                                         (lower, diag, upper, rhs)))
                assert x[col].tobytes() == np.array(ref).tobytes()

    def test_one_factor_per_coefficient_slice(self, monkeypatch):
        calls = []
        factor = fpsolver._tridiag_factor

        def counting_factor(*bands):
            calls.append(1)
            return factor(*bands)

        monkeypatch.setattr(fpsolver, "_tridiag_factor", counting_factor)
        box = BoxCylinder(-1.0, 0.0, np.zeros(1), 6.0, np.zeros(1), 5.0)
        g = Grid(box, 32, 32, 16)
        init = np.ones((g.n_x, g.n_v))
        for kind, expected in (("constant", 1), ("checkerboard", 5)):
            calls.clear()
            # cell_size 0.3: time cells -4..0 over t in (-1, 0]
            c = make_coefficients(g, kind, 1.0, 4.0, cell_size=0.3)
            solve(SolverConfig(c, init, bc_x="copy-out", bc_v="zero-flux"))
            assert len(calls) == expected, kind


def test_d2_drift_cfl_bounds_the_l1_norm_of_b():
    # B = (1, 1)/sqrt(2) has |B| = 1, but the upwind step adds both axes'
    # updates to the same old values: monotone only while
    # dt (|B_1| + |B_2|) <= dv.  At dt / dv = 0.8 a solve with the |B| limit
    # turned a box of ones negative (min -0.127).
    def setup(t_max):
        g = Grid(BoxCylinder(0.0, t_max, np.zeros(2), 1.0, np.zeros(2), 1.0),
                 2, 8, 8)
        A = np.broadcast_to(1e-3 * np.eye(2), g.shape + (2, 2)).copy()
        B = np.full(g.shape + (2,), 1.0 / math.sqrt(2.0))
        c = CoefficientField(g, A, B, np.zeros(g.shape), lam=1e-3, Lam=1.0)
        init = np.zeros(g.shape[1:])
        init[2:6, 2:6, 2:6, 2:6] = 1.0
        return g, c, init

    g, c, init = setup(0.4)
    assert g.dt / g.dv == pytest.approx(0.8)
    with pytest.raises(CFLError):
        SolverConfig(c, init, bc_x="periodic", bc_v="zero-flux")
    g, c, init = setup(0.3)  # dt / dv = 0.6 <= 0.9 / sqrt(2)
    f = solve(SolverConfig(c, init, bc_x="periodic", bc_v="zero-flux"))
    assert f.values.min() >= 0.0


GOLDEN_GRIDS = {
    1: Grid(BoxCylinder(0.5, 1.0, np.zeros(1), 6.0, np.zeros(1), 5.0), 16, 32, 16),
    2: Grid(BoxCylinder(0.5, 1.0, np.zeros(2), 6.0, np.zeros(2), 5.0), 6, 10, 8),
}

# sha256 prefixes of the trajectories over every (bc_x, bc_v) pair,
# recorded with the solver that rebuilt the diffusion bands and the
# transport indices at every step.  Uniform initial data and arithmetic-only
# coefficients keep them independent of the platform's libm.
GOLDEN = {
    (1, "constant", "linear"): "311a0418b2781980",
    (1, "constant", "pchip"): "eb2a0b08d156b92d",
    (1, "checkerboard", "linear"): "1191facdac369033",
    (1, "checkerboard", "pchip"): "54fde9b621e8a02e",
    (2, "constant", "linear"): "3e3060de9c6be0df",
    (2, "constant", "pchip"): "073b5c3a3f025a1a",
    (2, "checkerboard", "linear"): "a944503ed1a7c5fa",
    (2, "checkerboard", "pchip"): "b18ed384f051ee28",
}


@pytest.mark.parametrize("case", sorted(GOLDEN),
                         ids=lambda case: "d{}-{}-{}".format(*case))
def test_golden_trajectories(case):
    d, kind, interp = case
    g = GOLDEN_GRIDS[d]
    c = make_coefficients(g, kind, 1.0, 4.0, cell_size=0.25)
    h = hashlib.sha256()
    for bc_x, bc_v in itertools.product(("dirichlet", "copy-out", "periodic"),
                                        ("dirichlet", "zero-flux")):
        init = np.random.default_rng(7).uniform(-0.5, 1.0, g.shape[1:])
        f = solve(SolverConfig(c, init, bc_x=bc_x, bc_v=bc_v,
                               transport_interp=interp))
        h.update(f.values.tobytes())
    assert h.hexdigest()[:16] == GOLDEN[case]


# Shifts of several cells per step, in both directions: two time steps over
# (0.5, 1] take dt * |v| / dx from 0 up to 3.1-3.3 cells ("several") and up
# to 11 cells, more than the whole x-line ("wrap"; its v-centres are off
# zero, so the two directions reach different depths).  The CFL guard
# keeps solves below 0.9 cells per step, so these runs raise its safety
# share: the shift is exact for any length and the diffusion is implicit.
LARGE_SHIFT_GRIDS = {
    (1, "several"): Grid(BoxCylinder(0.5, 1.0, np.zeros(1), 6.0,
                                     np.zeros(1), 5.0), 2, 32, 16),
    (1, "wrap"): Grid(BoxCylinder(0.5, 1.0, np.zeros(1), 0.5,
                                  np.full(1, 0.8), 5.0), 2, 8, 16),
    (2, "several"): Grid(BoxCylinder(0.5, 1.0, np.zeros(2), 1.0,
                                     np.zeros(2), 5.0), 2, 6, 8),
    (2, "wrap"): Grid(BoxCylinder(0.5, 1.0, np.zeros(2), 0.25,
                                  np.array([0.6, -0.9]), 5.0), 2, 4, 8),
}

# sha256 prefixes over every (bc_x, bc_v) pair, recorded with the solver
# that gathered the shifted rows by index
GOLDEN_LARGE_SHIFT = {
    (1, "several", "linear"): "bfbc5f84cc61fe35",
    (1, "several", "pchip"): "ea2824c71d4db7f7",
    (1, "wrap", "linear"): "fc38f7b1a08879ec",
    (1, "wrap", "pchip"): "ade3693fa4366352",
    (2, "several", "linear"): "17e1314881f83621",
    (2, "several", "pchip"): "80731824f55348f7",
    (2, "wrap", "linear"): "d135decaae16aea8",
    (2, "wrap", "pchip"): "97337895100b2bdf",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_LARGE_SHIFT),
                         ids=lambda case: "d{}-{}-{}".format(*case))
def test_golden_large_shift_trajectories(case, monkeypatch):
    d, name, interp = case
    g = LARGE_SHIFT_GRIDS[d, name]
    monkeypatch.setattr(fpsolver, "_CFL_SAFETY", 100.0)
    c = make_coefficients(g, "checkerboard", 1.0, 4.0, cell_size=0.25)
    h = hashlib.sha256()
    for bc_x, bc_v in itertools.product(("dirichlet", "copy-out", "periodic"),
                                        ("dirichlet", "zero-flux")):
        init = np.random.default_rng(11).uniform(-0.5, 1.0, g.shape[1:])
        f = solve(SolverConfig(c, init, bc_x=bc_x, bc_v=bc_v,
                               transport_interp=interp))
        h.update(f.values.tobytes())
    assert h.hexdigest()[:16] == GOLDEN_LARGE_SHIFT[case]


class TestKernelTracking:
    @pytest.mark.parametrize("interp,min_order", [("linear", 0.8),
                                                  ("pchip", 1.0)])
    def test_convergence(self, interp, min_order):
        box = BoxCylinder(0.5, 1.0, np.zeros(1), 6.0, np.zeros(1), 5.0)
        errs = []
        for n in (16, 32, 64):
            g = Grid(box, n, 2 * n, n)
            c = make_coefficients(g, "constant", 1.0, 1.0)
            init = kernel_initial(g)
            f = solve(SolverConfig(c, init, transport_interp=interp))
            T, X, V = g.coords
            exact = kernel_eval(T, X, V, origin(1))
            errs.append(float(np.sum(np.abs(f.values[-1] - exact[-1]))
                              * g.dx * g.dv))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert errs[0] > errs[1] > errs[2], errs
        # the coarsest level is pre-asymptotic for linear transport, so
        # judge the order on the finest refinement step
        assert orders[-1] >= min_order, (errs, orders)


class TestWeakResidual:
    def fixture(self):
        g = make_grid((24, 48, 24))
        c = make_coefficients(g, "constant", 1.0, 1.0)
        f = solve(SolverConfig(c, kernel_initial(g)))
        return g, c, f

    def test_solution_mode(self):
        g, c, f = self.fixture()
        res = weak_residual(f, c, "solution", default_test_set(g, 4, 0))
        assert res["passed"], res

    def test_super_and_sub_modes(self):
        g, c, f = self.fixture()
        bumps = default_test_set(g, 4, 0)
        assert weak_residual(f, c, "super", bumps)["passed"]
        assert weak_residual(f, c, "sub", bumps)["passed"]

    def test_super_solution_with_source(self):
        g = make_grid((24, 48, 24))
        S = np.full(g.shape, 0.05)
        c = make_coefficients(g, "constant", 1.0, 1.0, S=S)
        f = solve(SolverConfig(c, kernel_initial(g)))
        c0 = make_coefficients(g, "constant", 1.0, 1.0)
        res = weak_residual(f, c0, "super", default_test_set(g, 4, 0))
        assert res["passed"]
        assert res["min"] > 0  # strictly a super-solution of the S=0 problem

    def test_rejects_unknown_mode(self):
        g, c, f = self.fixture()
        with pytest.raises(ValueError):
            weak_residual(f, c, "bogus", default_test_set(g, 1, 0))


class TestBump:
    def test_compact_support_and_derivatives(self):
        b = Bump(0.0, 1.0, np.zeros(1), 1.0, np.zeros(1), 1.0)
        assert b.value(np.array([2.0]), np.zeros((1, 1)),
                       np.zeros((1, 1)))[0] == 0.0
        h = 1e-6
        t, x, v = 0.3, np.array([[0.2]]), np.array([[-0.4]])
        fd = (b.value(np.array([t + h]), x, v)
              - b.value(np.array([t - h]), x, v)) / (2 * h)
        assert b.dt(np.array([t]), x, v).item() == pytest.approx(
            fd.item(), abs=1e-6)


class TestLocalBound:
    def test_constant_sub_solution(self):
        g = make_grid((16, 32, 16),
                      box=BoxCylinder(-2.0, 0.0, np.zeros(1), 4.0,
                                      np.zeros(1), 4.0))
        f = ScalarField(g, np.full(g.shape, 2.0))
        q_int = BoxCylinder(-0.5, 0.0, np.zeros(1), 1.0, np.zeros(1), 1.0)
        rep = local_bound_check(f, q_int, g.domain)
        assert rep.passed
        assert rep.lhs == pytest.approx(2.0)
        assert rep.fitted_c is not None and np.isfinite(rep.fitted_c)

    def test_requires_strict_inclusion(self):
        g = make_grid((8, 16, 8))
        f = ScalarField(g, np.zeros(g.shape))
        with pytest.raises(ValueError):
            local_bound_check(f, g.domain, g.domain)
        # d = 2: each axis of the x-ball fits (0.6 + 0.2 < 1), the ball does
        # not: (0.734, 0.734) lies in q_int and outside q_ext
        q_ext = BoxCylinder(-1.0, 0.0, np.zeros(2), 1.0, np.zeros(2), 1.0)
        g2 = Grid(q_ext, 4, 8, 8)
        f2 = ScalarField(g2, np.ones(g2.shape))
        q_int = BoxCylinder(-0.5, 0.0, np.full(2, 0.6), 0.2, np.zeros(2), 0.5)
        assert q_int.contains(-0.25, np.full(2, 0.734), np.zeros(2))
        assert not q_ext.contains(-0.25, np.full(2, 0.734), np.zeros(2))
        with pytest.raises(ValueError):
            local_bound_check(f2, q_int, q_ext)
        inside = BoxCylinder(-0.5, 0.0, np.full(2, 0.3), 0.3, np.zeros(2), 0.5)
        assert local_bound_check(f2, inside, q_ext).lhs == 1.0
