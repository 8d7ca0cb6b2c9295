import hashlib
import math

import numpy as np
import pytest

from kinfp import kolmogorov
from kinfp.fields import (
    BoxCylinder,
    Grid,
    NegSobolevInput,
    ScalarField,
    VectorField,
)
from kinfp.geometry import PhasePoint, group_product, origin, pop_parameters
from kinfp.harness import verify_local_poincare
from kinfp.kolmogorov import (
    build_cutoff,
    kernel_eval,
    localization_bound,
    log_kernel_eval,
    solve_cauchy,
    theta0_parameters,
)
from kinfp.report import HypothesisError


def pt(t, x, v):
    return PhasePoint(t, np.atleast_1d(float(x)), np.atleast_1d(float(v)))


class TestKernel:
    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0])
    def test_mass_and_moments(self, s):
        # quadrature oracle over +-10 standard deviations per axis
        sx = math.sqrt(2 * s**3 / 3)
        sv = math.sqrt(2 * s)
        n = 240
        x = np.linspace(-10 * sx, 10 * sx, n)
        v = np.linspace(-10 * sv, 10 * sv, n)
        X, V = np.meshgrid(x, v, indexing="ij")
        vals = kernel_eval(np.full(X.shape, s), X[..., None], V[..., None],
                           origin(1))
        w = vals * (x[1] - x[0]) * (v[1] - v[0])
        mass = w.sum()
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert (w * V**2).sum() / mass == pytest.approx(2 * s, abs=1e-6)
        assert (w * X * V).sum() / mass == pytest.approx(s**2, abs=1e-6)
        assert (w * X**2).sum() / mass == pytest.approx(2 * s**3 / 3, abs=1e-6)

    def test_left_invariance(self):
        rng = np.random.default_rng(0)
        z0 = pt(-1.2, 0.4, -0.3)
        for _ in range(50):
            w = pt(rng.uniform(0.05, 2.0), rng.uniform(-2, 2),
                   rng.uniform(-2, 2))
            z = group_product(z0, w)
            a = float(kernel_eval(z.t, z.x, z.v, z0))
            b = float(kernel_eval(w.t, w.x, w.v, origin(1)))
            assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            kernel_eval(0.0, np.zeros(1), np.zeros(1), origin(1))

    def test_left_invariance_batch_d2(self):
        # the pole z0 seen from z0 o w is the origin seen from w, for a
        # batch of observation points w at d = 2
        rng = np.random.default_rng(4)
        z0 = PhasePoint(-1.2, np.array([0.4, -0.1]), np.array([-0.3, 0.5]))
        w = PhasePoint(rng.uniform(0.05, 2.0, 64), rng.uniform(-2, 2, (64, 2)),
                       rng.uniform(-2, 2, (64, 2)))
        z = group_product(z0, w)
        a = kernel_eval(z.t, z.x, z.v, z0)
        b = kernel_eval(w.t, w.x, w.v, origin(2))
        assert a.shape == (64,)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)

    def test_residual_order_two(self):
        # central-difference residual of (d_t + v d_x - d_vv) applied to
        # the analytic kernel decays at second order in the stencil width
        pole = origin(1)
        rng = np.random.default_rng(1)
        pts = [(float(rng.uniform(0.4, 1.0)), float(rng.uniform(-1, 1)),
                float(rng.uniform(-1.5, 1.5))) for _ in range(40)]

        def residual(h):
            worst = 0.0
            for (t, x, v) in pts:
                f = lambda tt, xx, vv: float(
                    kernel_eval(tt, np.array([xx]), np.array([vv]), pole))
                dt = (f(t + h, x, v) - f(t - h, x, v)) / (2 * h)
                dx = (f(t, x + h, v) - f(t, x - h, v)) / (2 * h)
                dvv = (f(t, x, v + h) - 2 * f(t, x, v) + f(t, x, v - h)) / h**2
                worst = max(worst, abs(dt + v * dx - dvv))
            return worst

        errs = [residual(h) for h in (0.02, 0.01, 0.005)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    @staticmethod
    def reference_log_kernel(t, x, v, z0):
        """The log density with a trailing length-d axis, summed by
        ``np.sum``: the formula the per-axis evaluation must equal."""
        s = np.asarray(t, dtype=float) - z0.t
        dx = x - z0.x - s[..., None] * z0.v
        dv = v - z0.v
        det = s**4 / 3.0
        q = (2.0 * s[..., None] * dx * dx
             - 2.0 * (s**2)[..., None] * dx * dv
             + (2.0 * s**3 / 3.0)[..., None] * dv * dv) / det[..., None]
        per_axis = (-np.log(2.0 * np.pi) - 0.5 * np.log(det)[..., None]
                    - 0.5 * q)
        return np.sum(per_axis, axis=-1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_per_axis_sum_equals_the_reference_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        z0 = PhasePoint(-1.3, rng.uniform(-1, 1, d), rng.uniform(-1, 1, d))
        # a batch of points, and open coordinates that broadcast
        t = rng.uniform(-1.2, 1.0, 20000)
        x, v = rng.uniform(-3, 3, (2, 20000, d))
        T = rng.uniform(-1.2, 1.0, (7, 1, 1))
        X, V = rng.uniform(-3, 3, (1, 9, 1, d)), rng.uniform(-3, 3, (1, 1, 11, d))
        for args in ((t, x, v), (T, X, V), (0.5, x[0], v[0])):
            got = log_kernel_eval(*args, z0)
            want = self.reference_log_kernel(*args, z0)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestSolveCauchy:
    def grid(self, n=(48, 48, 24)):
        box = BoxCylinder(-1.25, 0.0, np.zeros(1), 8.0, np.zeros(1), 2.0)
        return Grid(box, *n)

    def test_zero_rhs(self):
        g = self.grid((16, 16, 8))
        h = solve_cauchy(ScalarField(g, np.zeros(g.shape)))
        assert h.grid == g
        assert np.all(h.values == 0.0)

    def test_comparison_principle(self):
        g = self.grid((24, 32, 16))
        rng = np.random.default_rng(2)
        base = rng.uniform(0, 1, g.shape)
        lo = ScalarField(g, base)
        hi = ScalarField(g, base + rng.uniform(0, 1, g.shape))
        h_lo = solve_cauchy(lo)
        h_hi = solve_cauchy(hi)
        assert h_lo.grid == g and h_hi.grid == g
        assert np.all(h_hi.values >= h_lo.values - 1e-12)

    def test_duhamel_against_kernel(self):
        # source active only on the first time slice: by Duhamel the state
        # at later times approaches dt * (kernel propagation of the source)
        from kinfp.geometry import origin as _origin

        box = BoxCylinder(0.25, 0.75, np.zeros(1), 6.0, np.zeros(1), 5.0)
        errs = []
        for n in (24, 48):
            g = Grid(box, 2 * n, 6 * n, 3 * n)
            T, X, V = g.coords
            rhs = np.zeros(g.shape)
            rhs[0] = kernel_eval(T[0], X[0], V[0], _origin(1)) / g.dt
            h = solve_cauchy(ScalarField(g, rhs))
            exact = kernel_eval(T[-1], X[-1], V[-1], _origin(1))
            err = float(np.sum(np.abs(h.values[-1] - exact))
                        * g.dx * g.dv)
            errs.append(err)
        assert errs[1] <= errs[0]
        assert errs[1] < 0.25


class TestCutoff:
    """The cutoff at R = 1 is Psi1 itself: ``evaluate`` gives Psi1, its
    transport derivative and its velocity Laplacian."""

    def setup_method(self):
        p = pop_parameters(0.5)
        self.eta = p.eta
        self.T = p.time_lap
        self.cut = build_cutoff(self.eta, self.T, 1.0)

    def _eval(self, name, t, x, v, cut=None):
        vals = (cut or self.cut).evaluate(
            np.array([t]), np.array([[x]]), np.array([[v]]))
        return np.ravel(getattr(vals, name))[0]

    def test_plateau(self):
        assert self._eval("psi", -0.5, 0.0, 0.0) == pytest.approx(1.0)
        for (t, x, v) in [(-0.9, 0.8, -0.7), (-0.01, -0.5, 0.99)]:
            assert self._eval("psi", t, x, v) == pytest.approx(1.0)

    def test_support_in_v(self):
        for v in (2.0, 2.5, -2.0):
            assert self._eval("psi", -0.5, 0.0, v) == 0.0

    def test_support_in_time(self):
        assert self._eval("psi", -1.0 - self.eta**2 - 1e-9, 0, 0) == 0.0

    def test_range(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(-1.4, 0.0, 4000)
        x = rng.uniform(-9, 9, (4000, 1))
        v = rng.uniform(-3, 3, (4000, 1))
        vals = self.cut.evaluate(t, x, v).psi
        assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-12

    def test_transport_lower_bounds(self):
        t0 = -1.0 - self.eta**2 + 1e-3
        val = self._eval("transport", t0, 0.0, 0.0)
        assert val >= 1.0
        rng = np.random.default_rng(4)
        t = rng.uniform(-1.4, 0.0, 2000)
        x = rng.uniform(-9, 9, (2000, 1))
        v = rng.uniform(-3, 3, (2000, 1))
        assert self.cut.evaluate(t, x, v).transport.min() >= -1e-9

    def test_scaled_cutoff_plateau_and_support(self):
        cut = build_cutoff(self.eta, self.T, 4.0)
        assert self._eval("psi", -0.5, 3.0, 3.0, cut) == pytest.approx(1.0)
        assert self._eval("psi", -0.5, 0.0, 8.5, cut) == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_cutoff(1.5, 0.01, 1.0)
        with pytest.raises(ValueError):
            build_cutoff(0.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            build_cutoff(0.5, 0.01, 0.5)

    def test_derivative_consistency(self):
        # transport and Laplacian evaluations match finite differences
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(20):
            t = float(rng.uniform(-1.2, -0.02))
            x = float(rng.uniform(-7, 7))
            v = float(rng.uniform(-1.9, 1.9))
            f = lambda tt, xx, vv: self._eval("psi", tt, xx, vv)
            transport = (f(t + h, x + h * v, v) - f(t - h, x - h * v, v)) / (2 * h)
            got = self._eval("transport", t, x, v)
            assert got == pytest.approx(transport, abs=5e-5)
            lap = (f(t, x, v + h) - 2 * f(t, x, v) + f(t, x, v - h)) / h**2
            got_lap = self._eval("lap_v", t, x, v)
            assert got_lap == pytest.approx(lap, abs=5e-4)
            grad = (f(t, x, v + h) - f(t, x, v - h)) / (2 * h)
            assert self._eval("grad_v", t, x, v) == pytest.approx(grad,
                                                                  abs=5e-5)

    @pytest.mark.parametrize("R", [1.0, 3.0])
    def test_scaling(self, R):
        # Psi(t, x, v) = Psi1(t, x/R, v/R): the scaled pass at (x, v) is the
        # unscaled pass at (x/R, v/R), with grad_v over R and Lap_v over R^2
        rng = np.random.default_rng(6)
        t = rng.uniform(-1.4, 0.0, 500)
        x = rng.uniform(-9, 9, (500, 2)) * R
        v = rng.uniform(-3, 3, (500, 2)) * R
        got = build_cutoff(self.eta, self.T, R).evaluate(t, x, v)
        one = self.cut.evaluate(t, x / R, v / R)
        assert np.array_equal(got.psi, one.psi)
        assert np.array_equal(got.transport, one.transport)
        assert np.array_equal(got.lap_v1, one.lap_v)
        assert np.array_equal(got.lap_v, one.lap_v / R**2)
        assert np.array_equal(got.grad_v, one.grad_v / R)
        assert np.array_equal(got.lk, got.transport - got.lap_v)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("R", [1.0, 2.0, 3.0])
    def test_open_coords_match_full_grid(self, d, R):
        box = BoxCylinder(-1.0 - self.eta**2, 0.0, np.full(d, 0.3), 8.0 * R,
                          np.full(d, -0.1), 2.0 * R)
        g = Grid(box, *((12, 40, 16) if d == 1 else (6, 14, 10)))
        cut = build_cutoff(self.eta, self.T, R)
        got = cut.evaluate(*g.open_coords)
        want = cut.evaluate(*g.coords)
        for name in got._fields:
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape, name
            assert np.array_equal(a, b), name


class TestThetaParameters:
    def test_degenerate_in_double_precision(self):
        p = theta0_parameters(0.5)
        assert p["log_kernel_min"] < -700.0  # exp underflows
        assert p["delta0"] == 0.0
        assert p["theta0"] == 1.0

    def test_relation(self):
        p = theta0_parameters(0.5)
        assert p["theta0"] == 1.0 - p["delta0"] / 2.0

    @staticmethod
    def _log_kernel_min_per_pole(eta, T, d, n=5):
        """One log_kernel_eval call per pole, the minimum kept in Python."""
        lin = np.linspace(-1.0, 1.0, n)
        axes0 = ([np.linspace(-1.0 - eta**2, -1.0 - T, n)]
                 + [lin * eta**3] * d + [lin * eta] * d)
        axes1 = [np.linspace(-1.0 + 1e-9, 0.0, n)] + [lin] * (2 * d)
        pts0, pts1 = (np.stack([g.ravel() for g in np.meshgrid(
            *axes, indexing="ij")], axis=-1) for axes in (axes0, axes1))
        best = np.inf
        for row in pts0:
            z0 = PhasePoint(row[0], row[1:1 + d], row[1 + d:])
            logs = log_kernel_eval(pts1[:, 0], pts1[:, 1:1 + d],
                                   pts1[:, 1 + d:], z0)
            best = min(best, float(np.min(logs)))
        return best

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0])
    def test_pole_blocks_match_per_pole_loop(self, monkeypatch, eta, d):
        T = eta**2 / 8.0
        expected = self._log_kernel_min_per_pole(eta, T, d)
        got = theta0_parameters(eta, d)
        assert got["log_kernel_min"] == expected
        monkeypatch.setattr(kolmogorov, "_log_kernel_min",
                            lambda *args: expected)
        assert theta0_parameters(eta, d) == got


def localization_grid(eta):
    box = BoxCylinder(-1.0 - eta**2, 0.0, np.zeros(1), 8.0, np.zeros(1), 2.0)
    return Grid(box, 128, 128, 32)


class TestLocalization:
    def test_zero_field_trivial(self):
        eta = pop_parameters(0.5).eta
        g = localization_grid(eta)
        f = ScalarField(g, np.zeros(g.shape))
        out = localization_bound(f, eta)
        for key in ("h", "P_R", "E_R"):
            fld = out.pop(key)
            assert fld.grid == g and np.all(fld.values == 0.0)
        # every scalar as recorded when a zero field took an early return;
        # delta0 underflows, so passed_P holds at min P = 0
        assert out == {
            "theta0": 1.0, "delta0": 0.0,
            "log_kernel_min": -182378.36352039024, "R": 1.0,
            "eta": 0.4688809424724623, "T": 0.027481167276733064,
            "sup_f": 0.0, "zero_fraction": 1.0, "sup_h_Q1": 0.0,
            "min_P_Q1": 0.0, "sup_E_Q1": 0.0, "sup_E_abs": 0.0, "c_e": 0.0,
            "passed_h": True, "passed_P": True, "passed_E": True,
            "decomposition_error": 0.0,
            "shell_h": 0.0, "shell_P": 0.0, "shell_E": 0.0,
        }

    def test_indicator_pipeline(self):
        eta = pop_parameters(0.5).eta
        out = localization_bound(indicator_fixture(eta), eta)
        assert out["zero_fraction"] >= 0.25
        assert out["passed_h"], out["sup_h_Q1"]
        assert out["sup_h_Q1"] <= out["theta0"] * out["sup_f"] + 1e-12
        assert out["passed_P"]
        assert out["passed_E"]

    @pytest.mark.parametrize("x_center, v_center", [(5.0, 0.0), (0.0, 1.0)])
    def test_rejects_an_off_centre_grid(self, x_center, v_center):
        # radii 8 and 2 equal the support box's, but the box sits off
        # centre, so it misses part of B_8 x B_2
        eta = pop_parameters(0.5).eta
        box = BoxCylinder(-1.0 - eta**2, 0.0, np.full(1, x_center), 8.0,
                          np.full(1, v_center), 2.0)
        g = Grid(box, 32, 128, 16)
        f = ScalarField(g, np.zeros(g.shape))
        with pytest.raises(ValueError,
                           match="^grid must cover the cutoff support box$"):
            localization_bound(f, eta)

    def test_rejects_zero_set_too_small(self):
        eta = pop_parameters(0.5).eta
        g = localization_grid(eta)
        f = ScalarField(g, np.ones(g.shape))
        with pytest.raises(HypothesisError, match=(
                r"^zero-set hypothesis fails: fraction 0\.000 < 0\.25$")) as err:
            localization_bound(f, eta)
        assert isinstance(err.value, ValueError)


def face_loop_shell_share(values):
    """The boundary-shell share as the removed truncation gate computed it:
    a mask set face by face on every x and v axis, gathered in C order."""
    total = float(np.sum(np.abs(values)))
    if total == 0.0:
        return 0.0
    shell = np.zeros(values.shape, dtype=bool)
    for ax in range(1, values.ndim):
        idx_lo = [slice(None)] * values.ndim
        idx_hi = [slice(None)] * values.ndim
        idx_lo[ax] = 0
        idx_hi[ax] = -1
        shell[tuple(idx_lo)] = True
        shell[tuple(idx_hi)] = True
    return float(np.sum(np.abs(values[shell]))) / total


def indicator_fixture(eta):
    g = localization_grid(eta)
    T, X, V = g.coords
    return ScalarField(g, (V[..., 0] >= 0.25).astype(float))


class TestShellShares:
    @pytest.mark.parametrize("fixture", ["indicator", "golden R=3"])
    def test_shares_equal_the_face_loop(self, fixture):
        eta = pop_parameters(0.5).eta
        if fixture == "indicator":
            f, R = indicator_fixture(eta), 1.0
        else:
            f, R = golden_fixture(eta, 3.0), 3.0
        out = localization_bound(f, eta, R=R)
        for share, field in (("shell_h", "h"), ("shell_P", "P_R"),
                             ("shell_E", "E_R")):
            want = face_loop_shell_share(out[field].values)
            assert out[share] == want, share
            assert 0.0 < out[share] < 1.0, share

    def test_local_poincare_reports_the_shell_share_of_h(self):
        eta = pop_parameters(0.5).eta
        f = golden_fixture(eta, 1.0)
        g = f.grid
        H = NegSobolevInput(ScalarField(g, np.zeros(g.shape)),
                            VectorField(g, np.zeros(g.shape + (1,))))
        rep = verify_local_poincare(f, H, build_cutoff(eta, eta**2 / 8, 1.0))
        out = localization_bound(f, eta)
        assert rep.details["shell_h"] == face_loop_shell_share(out["h"].values)


def golden_fixture(eta, R):
    """f >= 0 from arithmetic only, vanishing for v < 1/4, on a grid that
    covers the support box of the cutoff at radius R."""
    box = BoxCylinder(-1.0 - eta**2, 0.0, np.zeros(1), 8.0 * R,
                      np.zeros(1), 2.0 * R)
    # at (64, 300, 42), max |Lap_v Psi1| differs in its last bit from
    # max |R^2 Lap_v Psi|, and so does c_e on this f
    g = Grid(box, 32, 96, 16) if R == 1.0 else Grid(box, 64, 300, 42)
    return g.sample(lambda T, X, V: (
        np.clip(V[..., 0] - 0.25, 0.0, None)
        * np.clip(1.0 - (X[..., 0] / (6.0 * R) - 0.1) ** 2, 0.0, None)
        * (3.0 + T)))


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


class TestCutoffGolden:
    """sha256 prefixes recorded with the cutoff that rebuilt the slant
    coordinate, the norms and the profiles in each of its nine evaluators,
    on full-grid coordinates.  The one-pass evaluation on open coordinates
    must reproduce them bit for bit, and fill no ``Grid.coords``."""

    # R: (h, P_R, E_R, c_e)
    LOCALIZATION = {
        1.0: ("bf9b636f3141b1b1", "63b07e7fa9d2c69f", "3b2bd16a48f56043",
              "33fab8072e601dac"),
        3.0: ("8894959e67aa9920", "de9b921ee6651381", "ebfee64f0f6b8b37",
              "a9a7d1edeaa26099"),
    }
    # R: every scalar the result dict held before it reported the shell
    # shares, in this order, recorded with the gated solve
    SCALAR_KEYS = ("theta0", "delta0", "log_kernel_min", "R", "eta", "T",
                   "sup_f", "zero_fraction", "sup_h_Q1", "min_P_Q1",
                   "sup_E_Q1", "sup_E_abs", "c_e", "passed_h", "passed_P",
                   "passed_E", "decomposition_error")
    SCALARS = {1.0: "19ce372937163441", 3.0: "d4c2374ed4824dd5"}
    # R: (lhs, rhs, sup |grad_v Psi|), on the R = 1 fixture
    LOCAL_POINCARE = {1.0: "0f5aa95e460a8dc2", 3.0: "7447ecde0954cb1d"}

    @pytest.mark.parametrize("R", [1.0, 3.0])
    def test_localization_bound(self, R):
        eta = pop_parameters(0.5).eta
        f = golden_fixture(eta, R)
        out = localization_bound(f, eta, R=R)
        got = tuple(digest(a) for a in (out["h"].values, out["P_R"].values,
                                        out["E_R"].values, out["c_e"]))
        assert got == self.LOCALIZATION[R]
        assert digest(*(out[k] for k in self.SCALAR_KEYS)) == self.SCALARS[R]
        assert "coords" not in f.grid.__dict__

    @pytest.mark.parametrize("R", [1.0, 3.0])
    def test_local_poincare(self, R):
        eta = pop_parameters(0.5).eta
        f = golden_fixture(eta, 1.0)
        g = f.grid
        H = NegSobolevInput(ScalarField(g, np.zeros(g.shape)),
                            VectorField(g, np.zeros(g.shape + (1,))))
        rep = verify_local_poincare(f, H, build_cutoff(eta, eta**2 / 8, R))
        got = digest(rep.lhs, rep.rhs, rep.details["grad_v_psi_sup"])
        assert got == self.LOCAL_POINCARE[R]
        assert "coords" not in g.__dict__
