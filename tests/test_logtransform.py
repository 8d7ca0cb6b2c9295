import math
import tracemalloc

import numpy as np
import pytest

from kinfp.fields import BoxCylinder, Grid, ScalarField
from kinfp.logtransform import (
    energy_estimate_check,
    g_eval,
    g_prime,
    g_second,
    log_transform,
)

SAMPLES = np.geomspace(1e-8, 2.0, 10_000)


class TestGFunction:
    def test_plateau_junction(self):
        assert g_eval(1.0) == 0.0
        assert g_prime(1.0) == 0.0
        assert g_second(1.0) == 0.0

    def test_quarter_value(self):
        expected = math.log(4) - 0.75 - 9 / 32
        assert g_eval(0.25) == pytest.approx(expected, rel=1e-12)
        assert g_eval(0.25) == pytest.approx(0.355044, abs=1e-6)

    def test_half_derivative(self):
        assert g_prime(0.5) == pytest.approx(-0.5, rel=1e-12)

    def test_property_convexity_dominates_gradient(self):
        vals = g_second(SAMPLES) - g_prime(SAMPLES) ** 2
        assert np.min(vals) >= -1e-9

    def test_property_nonincreasing(self):
        assert np.max(g_prime(SAMPLES)) <= 0.0

    def test_property_supported_below_one(self):
        above = SAMPLES[SAMPLES >= 1.0]
        assert np.all(g_eval(above) == 0.0)

    def test_property_derivative_bound(self):
        small = SAMPLES[SAMPLES <= 0.25]
        assert np.max(small * (-g_prime(small))) <= 1.0 + 1e-9

    def test_property_log_asymptotics(self):
        ratio = g_eval(1e-8) / (-math.log(1e-8))
        assert 0.91 <= ratio <= 1.0
        assert ratio == pytest.approx(0.9186, abs=5e-4)

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                g_eval(bad)

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1e-300, -2.0, np.nan,
                                     np.inf, -np.inf])
    def test_rejects_with_one_message(self, bad):
        for t in (bad, np.array([0.5, bad, 2.0]), np.full((3, 4), bad)):
            with pytest.raises(ValueError, match="strictly positive"):
                g_eval(t)

    def test_equals_the_reference_formula_bit_for_bit(self):
        rng = np.random.default_rng(1)
        one = np.nextafter(1.0, 0.0)
        t = np.concatenate([SAMPLES, rng.uniform(1e-12, 3.0, 5000),
                            [one, np.nextafter(one, 0.0), 1.0, 5e-324,
                             1e-300, np.nextafter(1.0, 2.0), 1e10]])
        for arg in (t, t[:15000].reshape(-1, 5)[::2], 0.25, one):
            ref = reference_g(np.asarray(arg, dtype=float))
            got = g_eval(arg)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_leaves_its_argument_unchanged(self):
        t = SAMPLES.copy()
        g_eval(t)
        assert t.tobytes() == SAMPLES.tobytes()


def reference_g(t):
    """G as the whole-array formula, kept here as the reference."""
    u = 1.0 - t
    out = -np.log(t) - u - 0.5 * u * u
    return np.where(t >= 1.0, 0.0, out)


def small_grid():
    box = BoxCylinder(-1.0, 0.0, np.zeros(1), 1.0, np.zeros(1), 1.0)
    return Grid(box, 6, 10, 10)


class TestLogTransform:
    def test_large_f_maps_to_zero(self):
        g = small_grid()
        f = ScalarField(g, np.full(g.shape, 1.5))
        out = log_transform(f, 0.1)
        assert np.all(out.values == 0.0)

    def test_zero_f_closed_form(self):
        g = small_grid()
        f = ScalarField(g, np.zeros(g.shape))
        out = log_transform(f, 0.1)
        expected = -math.log(0.1) - 0.9 - 0.405
        assert np.allclose(out.values, expected)
        assert expected == pytest.approx(0.997585, abs=1e-6)

    def test_range_and_monotonicity(self):
        g = small_grid()
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 2, g.shape)
        b = a + rng.uniform(0, 1, g.shape)
        eps = 0.05
        ga = log_transform(ScalarField(g, a), eps)
        gb = log_transform(ScalarField(g, b), eps)
        assert np.all(ga.values >= gb.values)
        assert np.all(ga.values >= 0.0)
        assert np.all(ga.values <= g_eval(eps) + 1e-15)

    def test_rejects_bad_inputs(self):
        g = small_grid()
        f = ScalarField(g, np.zeros(g.shape))
        with pytest.raises(ValueError):
            log_transform(f, 0.3)
        with pytest.raises(ValueError):
            log_transform(ScalarField(g, np.full(g.shape, -0.1)), 0.1)

    @pytest.mark.parametrize("eps", [1e-3, 0.1, 0.25])
    def test_equals_the_reference_bit_for_bit(self, eps):
        g = Grid(BoxCylinder(-1.0, 0.0, np.zeros(1), 1.0, np.zeros(1), 1.0),
                 8, 12, 10)
        rng = np.random.default_rng(int(1000 * eps))
        # values below, across and above the plateau junction eps + f = 1
        values = rng.uniform(0.0, 1.5, g.shape) ** 3
        values.ravel()[:4] = [0.0, 1.0 - eps, np.nextafter(1.0 - eps, 0.0),
                              1e-300]
        f = ScalarField(g, values)
        before = f.values.tobytes()
        out = log_transform(f, eps)
        assert f.values.tobytes() == before
        ref = reference_g(eps + values)
        assert out.values.tobytes() == ref.tobytes()
        assert out.values.tobytes() == g_eval(eps + values).tobytes()

    # a field is checked when it is built; these values are written into
    # one afterwards
    @pytest.mark.parametrize("bad, message", [
        ([-0.1], "nonnegative"),
        ([-np.inf], "nonnegative"),
        ([np.nan, -0.1], "nonnegative"),
        ([np.nan], "strictly positive"),
        ([np.inf], "strictly positive"),
        ([np.nan, np.inf], "strictly positive"),
    ])
    def test_rejects_written_values(self, bad, message):
        g = small_grid()
        f = ScalarField(g, np.full(g.shape, 0.5))
        f.values.ravel()[3:3 + len(bad)] = bad
        with pytest.raises(ValueError, match=message):
            log_transform(f, 0.1)

    def test_peak_memory(self):
        g = Grid(BoxCylinder(-1.0, 0.0, np.zeros(1), 18.0, np.zeros(1), 18.0),
                 64, 96, 48)
        rng = np.random.default_rng(2)
        f = ScalarField(g, rng.uniform(0.0, 1.2, g.shape))
        inner = BoxCylinder(-0.5, 0.0, np.zeros(1), 9.0, np.zeros(1), 9.0)
        field_bytes = f.values.nbytes

        def peak(fn):
            fn()  # the grid's cached coordinates are built here
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1] / field_bytes
            finally:
                tracemalloc.stop()

        gg = log_transform(f, 0.1)
        # the output, the boolean mask of the output field's finiteness
        # check (1/8 of a field) and the per-slice scratch; a full-size
        # scratch array would take one field more
        assert peak(lambda: log_transform(f, 0.1)) <= 1.125 + 2.0 / g.n_t
        assert peak(lambda: energy_estimate_check(
            gg, inner, g.domain, eps=0.1, source_sup=0.0, lam=1.0)) <= 1.0


class TestEnergyEstimate:
    def interior(self):
        return BoxCylinder(-0.5, 0.0, np.zeros(1), 0.5, np.zeros(1), 0.5)

    def test_trivial_zero_lhs(self):
        g = small_grid()
        f = ScalarField(g, np.full(g.shape, 2.0))
        gg = log_transform(f, 0.1)
        rep = energy_estimate_check(gg, self.interior(), g.domain,
                                    eps=0.1, source_sup=0.0, lam=1.0)
        assert rep.lhs == 0.0 and rep.passed

    def test_source_term_scales_with_eps(self):
        g = small_grid()
        f = ScalarField(g, np.zeros(g.shape))
        gg = log_transform(f, 0.1)
        kwargs = dict(region_interior=self.interior(),
                      region_exterior=g.domain, source_sup=1.0, lam=1.0)
        a = energy_estimate_check(gg, eps=0.1, **kwargs)
        b = energy_estimate_check(gg, eps=0.05, **kwargs)
        vol = g.domain.volume()
        assert (b.rhs - a.rhs) == pytest.approx(vol * (20.0 - 10.0), rel=1e-12)

    def test_finite_fitted_constant_for_dipping_field(self):
        g = small_grid()
        T, X, V = g.coords
        f = ScalarField(g, np.abs(V[..., 0]))
        gg = log_transform(f, 0.1)
        rep = energy_estimate_check(gg, self.interior(), g.domain,
                                    eps=0.1, source_sup=0.0, lam=1.0)
        assert rep.passed and rep.fitted_c is not None
        assert np.isfinite(rep.fitted_c)
