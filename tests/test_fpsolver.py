import math

import numpy as np
import pytest

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
        g = make_grid((8, 16, 8))
        c = make_coefficients(g, "constant", 1.0, 1.0)
        f = solve(SolverConfig(g, c, np.full((g.n_x, g.n_v), 2.5),
                               bc_x="copy-out", bc_v="zero-flux"))
        assert np.allclose(f.values, 2.5, atol=1e-12)

    def test_mass_conservation_linear_transport(self):
        g = make_grid((32, 48, 24))
        c = make_coefficients(g, "checkerboard", 1.0, 2.0)
        init = kernel_initial(g)
        f = solve(SolverConfig(g, c, init, bc_x="periodic", bc_v="zero-flux"))
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
            f = solve(SolverConfig(g, c, init))
            assert f.values.min() >= -1e-12

    def test_cfl_guard(self):
        # dt = 0.25 while dx / |v|max = 0.05
        g = make_grid((2, 8, 64), box=BoxCylinder(0.5, 1.0, np.zeros(1), 1.0,
                                                  np.zeros(1), 5.0))
        c = make_coefficients(g, "constant", 1.0, 1.0)
        with pytest.raises(CFLError):
            solve(SolverConfig(g, c, np.zeros((g.n_x, g.n_v))))

    def test_nan_abort(self):
        g = make_grid((8, 16, 8))
        c = make_coefficients(g, "constant", 1.0, 1.0)
        init = np.full((g.n_x, g.n_v), 1.0)
        init[0, 0] = np.inf
        with pytest.raises(NumericalAbort):
            solve(SolverConfig(g, c, init))


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
            f = solve(SolverConfig(g, c, init, transport_interp=interp))
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
        f = solve(SolverConfig(g, c, kernel_initial(g)))
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
        f = solve(SolverConfig(g, c, kernel_initial(g)))
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
