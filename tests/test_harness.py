import hashlib

import numpy as np
import pytest

from kinfp.fields import (
    BoxCylinder,
    Grid,
    broadcast_coords,
    NegSobolevInput,
    ScalarField,
    VectorField,
    make_coefficients,
    norms,
)
from kinfp import harness
from kinfp.fpsolver import Bump, SolverConfig, default_test_set, solve, weak_residual
from kinfp.geometry import (
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
    scale,
)
from kinfp.report import HypothesisError
from kinfp.harness import (
    N_LOCAL,
    ExperimentEnsemble,
    as_evaluator,
    estimate_holder,
    local_norms,
    make_kernel_mixture,
    normalize_by_infimum,
    sample_on_box,
    verify_expansion_of_positivity,
    verify_harnack,
    verify_local_poincare,
    verify_minima_measure,
    verify_pop_large_times,
    verify_weak_harnack,
    verify_weak_poincare,
)
from kinfp.kolmogorov import build_cutoff, localization_bound
from kinfp.logtransform import energy_estimate_check, log_transform


def constant(c):
    return lambda T, X, V: np.full(np.asarray(T, dtype=float).shape, float(c))


class TestEvaluators:
    def test_scalar_field_interpolation(self):
        box = BoxCylinder(-1.0, 0.0, np.zeros(1), 1.0, np.zeros(1), 1.0)
        g = Grid(box, 16, 16, 16)
        T, X, V = g.coords
        f = ScalarField(g, 2.0 * T + V[..., 0])
        ev = as_evaluator(f)
        got = ev(np.array([-0.5]), np.array([[0.0]]), np.array([[0.3]]))
        assert np.ravel(got)[0] == pytest.approx(-1.0 + 0.3, abs=1e-6)

    def test_sample_on_box_matches_callable(self):
        f = constant(7.0)
        box = BoxCylinder(-0.1, 0.0, np.zeros(1), 0.1, np.zeros(1), 0.1)
        fld = sample_on_box(f, box, (4, 4, 4))
        assert np.all(fld.values == 7.0)

    def test_local_norms_empty_cylinder_is_a_hypothesis_failure(self):
        # the slanted section misses every node of a 3 x 2 x 2 hull grid
        Q = Cylinder(PhasePoint(0.0, np.zeros(1), np.array([5.0])), 0.1)
        with pytest.raises(HypothesisError):
            local_norms(constant(1.0), Q, (3, 2, 2))


def cli_boxes_d1():
    """The boxes the CLI kinds measure at d = 1 and default parameters."""
    omega, theta = 1e-2, 0.5
    boxes = {
        "q_minus": q_minus(omega),
        "q_plus_hull": q_plus(omega).box_hull(),
        "q_one": q_one(1),
        "q_pos": q_pos(theta),
        "q_bar": q_bar(3),
        # the exterior box of verify_expansion_of_positivity
        "pop_ext": BoxCylinder(-1.0 - theta**2, 0.0, np.zeros(1), 9.0,
                               np.zeros(1), 3.0),
        # the enlarged past box of verify_harnack
        "harnack_enlarged": BoxCylinder(
            -1.0 - 3.0 * omega**2, -1.0 + 2.0 * omega**2, np.zeros(1),
            2.0 * omega**3, np.zeros(1), 2.0 * omega),
    }
    for k in range(5):  # estimate_holder at levels = 5, rbar = 2
        r = 2.0 ** -k
        boxes[f"holder_{k}"] = Cylinder(origin(1), r).box_hull()
        boxes[f"holder_past_{k}"] = Cylinder(
            PhasePoint(-(r**2), np.zeros(1), np.zeros(1)), r).box_hull()
    return boxes


class TestLocalNorms:
    """One path for every region: sample on the local box, count the nodes
    inside the region."""

    BOXES = cli_boxes_d1()

    @pytest.mark.parametrize("n", [(16, 16, 16), N_LOCAL,
                                   tuple(2 * k for k in N_LOCAL)])
    @pytest.mark.parametrize("name", sorted(BOXES))
    def test_d1_box_counts_every_node(self, name, n):
        box = self.BOXES[name]
        f, _ = make_kernel_mixture(3)
        got = local_norms(f, box, n)
        fld = sample_on_box(f, box, n)
        assert got.values.tobytes() == fld.values.ravel().tobytes()
        assert got.cell_volume == fld.grid.cell_volume

    @pytest.mark.parametrize("k", [1, 2, 6, 10, 14])
    @pytest.mark.parametrize("region", [
        BoxCylinder(-0.9, -0.4, np.array([0.1]), 0.3, np.array([0.2]), 0.5),
        Cylinder(origin(1), 0.5),
        Cylinder(PhasePoint(-0.2, np.array([0.1]), np.array([0.7])), 0.4),
    ], ids=["box", "centred", "slanted"])
    def test_covariant_under_dyadic_scaling(self, region, k):
        # S_r(t, x, v) = (r^2 t, r^3 x, r v) is exact in float64 at
        # r = 2^-k, and so are its images of a region's local grid: f o
        # S_r^-1 over S_r(Q) has the extrema of f over Q, and measure and
        # integral scale by r^Q, Q = 2 + 4d, bit for bit
        r = 2.0**-k
        f, _ = make_kernel_mixture(3)
        if isinstance(region, BoxCylinder):
            image = BoxCylinder(r * r * region.t_min, r * r * region.t_max,
                                r**3 * region.x_center, r**3 * region.rx,
                                r * region.v_center, r * region.rv)
        else:
            image = Cylinder(scale(r, region.center), r * region.r)

        def pulled_back(T, X, V):
            return f(T / (r * r), X / r**3, V / r)

        ref = local_norms(f, region, N_LOCAL)
        got = local_norms(pulled_back, image, N_LOCAL)
        assert got.values.tobytes() == ref.values.tobytes()
        assert (got.sup, got.inf) == (ref.sup, ref.inf)
        assert got.measure / r**6 == ref.measure
        assert got.integral / r**6 == ref.integral

    def test_d2_box_is_masked_by_its_balls(self):
        box = q_minus(1e-2, 2)
        got = local_norms(constant(1.0), box, N_LOCAL)
        g = Grid(box, *N_LOCAL)
        masked = norms(ScalarField(g, np.ones(g.shape)), box)
        assert got.measure == masked.measure
        assert got.measure < g.cell_volume * np.prod(g.shape)


class TestKernelMixture:
    def test_deterministic(self):
        f1, m1 = make_kernel_mixture(11)
        f2, m2 = make_kernel_mixture(11)
        assert m1 == m2
        pts = (np.array([-0.5]), np.array([[0.1]]), np.array([[0.2]]))
        assert np.ravel(f1(*pts))[0] == np.ravel(f2(*pts))[0]

    def test_strictly_positive(self):
        f, _ = make_kernel_mixture(3)
        vals = sample_on_box(f, q_one(1), (8, 8, 8)).values
        assert vals.min() > 0.0

    def test_members_are_weak_solutions(self):
        # sampled mixtures pass the weak-form residual test
        f, _ = make_kernel_mixture(5)
        box = BoxCylinder(-1.0, 0.0, np.zeros(1), 3.0, np.zeros(1), 3.0)
        g = Grid(box, 32, 48, 48)
        fld = g.sample(f)
        coeffs = make_coefficients(g, "constant", 1.0, 1.0)
        res = weak_residual(fld, coeffs, "super", default_test_set(g, 3, 0))
        assert res["passed"], res


class TestWeakHarnack:
    def test_constant_fixture_exact(self):
        for p in (1.0, 2.0):
            rep = verify_weak_harnack(constant(3.0), p=p, omega=1e-2)
            vol = (1e-2) ** 2 * (2 * (1e-2) ** 3) * (2 * 1e-2)
            assert rep.fitted_c == pytest.approx(vol ** (1 / p), rel=1e-10)
            assert rep.passed

    def test_domain_gates(self):
        with pytest.raises(HypothesisError):
            verify_weak_harnack(constant(1.0), R0=5.0)

    def test_frame_matches_precomposition(self):
        f, _ = make_kernel_mixture(7)
        frame = PhasePoint(-0.1, np.array([0.3]), np.array([0.2]))

        def moved(T, X, V):
            T = np.asarray(T, dtype=float)
            return f(frame.t + T, frame.x + X + T[..., None] * frame.v,
                     frame.v + V)

        a = verify_weak_harnack(f, p=1.0, frame=frame)
        b = verify_weak_harnack(moved, p=1.0)
        assert a.fitted_c == pytest.approx(b.fitted_c, rel=1e-12)

    def test_source_reduction(self):
        # f~ = 1 + 0.5 t: infimum over Q_+ sits at t = -omega^2, then the
        # source supremum is added back
        rep = verify_weak_harnack(constant(1.0), p=1.0, source_sup=0.5)
        assert rep.passed
        assert rep.rhs == pytest.approx(1.5, abs=1e-4)

    def test_solver_rough_member(self):
        ens = ExperimentEnsemble(kind="solver-rough", count=1, seed=2,
                                 params={"n": (32, 48, 24), "radius": 18.0})
        f, meta = ens.member(0)
        rep = verify_weak_harnack(f, p=1.0)
        assert rep.passed and np.isfinite(rep.fitted_c)

    # sha256 prefixes of the member values, recorded before the initial
    # data moved to open coordinates
    @pytest.mark.parametrize("n, seed, digest", [
        ((16, 24, 16), 0, "286ff9e0d2acd13e"),
        ((16, 24, 16), 1, "8c6961e9697d3e08"),
        ((16, 24, 16), 2, "6c7f2a62a96726bb"),
        ((64, 96, 48), 0, "aa86e15073f2482c"),
        ((64, 96, 48), 1, "cb34f11209e0bfd3"),
        ((64, 96, 48), 2, "264d3575a8c1efd6"),
    ])
    def test_solver_rough_member_recorded(self, n, seed, digest):
        ens = ExperimentEnsemble(kind="solver-rough", count=1, seed=seed,
                                 params={"n": n})
        f, _ = ens.member(0)
        values = np.ascontiguousarray(f.values).tobytes()
        assert hashlib.sha256(values).hexdigest()[:16] == digest

    # sha256 prefixes of the whole criterion-08 chain on a member: the
    # weak Harnack constant, the log-transform energy check on the inner
    # half box and the member's minimum, recorded before the log transform
    # and the energy integrand were computed in place and on the box
    @pytest.mark.parametrize("n, seed, digest", [
        ((64, 96, 48), 0, "1aa41f716a174c7f"),
        ((64, 96, 48), 1, "db0696a5e9fdec29"),
        ((128, 192, 96), 0, "9cbd45d78c69735f"),
        ((128, 192, 96), 1, "8969ca831338f6f9"),
    ])
    def test_solver_rough_chain_recorded(self, n, seed, digest):
        ens = ExperimentEnsemble(
            kind="solver-rough", count=1, seed=seed,
            params={"coeff_kind": "checkerboard", "n": n, "cell_size": 0.5})
        f, _ = ens.member(0)
        rep = verify_weak_harnack(f, p=1.0)
        box = f.grid.domain
        inner = BoxCylinder(0.5 * (box.t_min + box.t_max), box.t_max,
                            box.x_center, 0.5 * box.rx, box.v_center,
                            0.5 * box.rv)
        energy = energy_estimate_check(log_transform(f, 0.1), inner, box,
                                       eps=0.1, source_sup=0.0, lam=1.0)
        bits = np.array([rep.lhs, rep.rhs, rep.fitted_c, energy.lhs,
                         energy.rhs, energy.fitted_c, float(np.min(f.values))],
                        dtype="<f8").tobytes()
        assert hashlib.sha256(bits).hexdigest()[:16] == digest

    def test_ensemble_rejects_unknown_kind_and_params(self):
        with pytest.raises(ValueError, match="kernel-mixture"):
            ExperimentEnsemble(kind="kernel-mixture")
        with pytest.raises(ValueError, match="cel_size"):
            ExperimentEnsemble(params={"cel_size": 0.5})
        # the keys a member reads, among them every key perfbench passes
        ExperimentEnsemble(params=dict.fromkeys(
            ("coeff_kind", "lam", "Lam", "n", "cell_size", "radius")))

    def test_solver_rough_member_d2(self):
        ens = ExperimentEnsemble(kind="solver-rough", count=1, d=2,
                                 params={"n": (4, 6, 6)})
        f, _ = ens.member(0)
        assert f.grid.d == 2 and f.values.shape == (4, 6, 6, 6, 6)
        assert np.all(f.values >= 0.0) and f.values.max() > 0.0


class TestPoincare:
    def fixture(self):
        eta = pop_parameters(0.5).eta
        box = BoxCylinder(-1.0 - eta**2, 0.0, np.zeros(1), 8.0,
                          np.zeros(1), 2.0)
        g = Grid(box, 64, 128, 24)
        T, X, V = g.coords
        f = ScalarField(g, np.clip(V[..., 0] - 0.25, 0.0, None))
        H = NegSobolevInput(ScalarField(g, np.zeros(g.shape)),
                            VectorField(g, np.zeros(g.shape + (1,))))
        return f, H, eta

    def test_weak_poincare_runs(self):
        f, H, eta = self.fixture()
        rep = verify_weak_poincare(f, H, eta)
        assert rep.passed
        assert rep.lhs <= rep.rhs

    def test_rejects_no_zero_set(self):
        f, H, eta = self.fixture()
        g = f.grid
        with pytest.raises(HypothesisError):
            verify_weak_poincare(ScalarField(g, np.ones(g.shape)), H, eta)

    def test_rejects_negative(self):
        f, H, eta = self.fixture()
        g = f.grid
        with pytest.raises(HypothesisError):
            verify_weak_poincare(ScalarField(g, -np.ones(g.shape)), H, eta)

    @pytest.mark.parametrize("check, name", [
        (lambda f, H, eta: verify_weak_poincare(f, H, eta), "weak Poincare"),
        (lambda f, H, eta: verify_local_poincare(
            f, H, build_cutoff(eta, eta**2 / 8, 1.0)), "local Poincare"),
        (lambda f, H, eta: localization_bound(f, eta), "localization_bound"),
    ], ids=["weak-poincare", "local-poincare", "localization"])
    def test_one_nonnegativity_hypothesis(self, check, name):
        g = Grid(BoxCylinder(-1.0, 0.0, np.zeros(1), 1.0, np.zeros(1), 1.0),
                 4, 4, 4)
        values = np.ones(g.shape)
        values[1, 2, 3] = -1e-300
        H = NegSobolevInput(ScalarField(g, np.zeros(g.shape)),
                            VectorField(g, np.zeros(g.shape + (1,))))
        with pytest.raises(HypothesisError) as err:
            check(ScalarField(g, values), H, 0.5)
        assert str(err.value) == f"{name} requires f >= 0"

    def test_local_poincare(self):
        eta = pop_parameters(0.5).eta
        box = BoxCylinder(-1.0 - eta**2, 0.0, np.zeros(1), 8.0,
                          np.zeros(1), 2.0)
        g = Grid(box, 128, 128, 32)
        T, X, V = g.coords
        f = ScalarField(g, np.clip(V[..., 0] - 0.25, 0.0, None))
        H = NegSobolevInput(ScalarField(g, np.zeros(g.shape)),
                            VectorField(g, np.zeros(g.shape + (1,))))
        cutoff = build_cutoff(eta, eta**2 / 8, 1.0)
        rep = verify_local_poincare(f, H, cutoff)
        assert rep.passed
        assert rep.details["predicted_factor"] >= 1.0


class TestPositivityChain:
    def test_expansion_of_positivity(self):
        theta = 0.5
        f0, _ = make_kernel_mixture(5, n_terms=2)
        f = normalize_by_infimum(f0, q_pos(theta, 1))
        rep = verify_expansion_of_positivity(f, theta)
        assert rep.passed
        assert rep.lhs > 0.0
        # normalised on the nodes the hypothesis is checked on
        assert rep.params["positive_fraction"] == 1.0
        assert rep.details["ell0_formula"] == 0.0  # theta0 = 1 exactly

    def test_pop_rejects_small_measure(self):
        with pytest.raises(HypothesisError):
            verify_expansion_of_positivity(constant(0.5), 0.5)

    @pytest.mark.parametrize("check, name", [
        (lambda f: verify_expansion_of_positivity(f, 0.5),
         "positivity-measure"),
        (lambda f: verify_minima_measure(f, 3, 1.0), "minima-measure"),
        (lambda f: verify_pop_large_times(
            f, PhasePoint(-1.0 + 0.5e-4, np.zeros(1), np.zeros(1)), 0.004),
         "large-times"),
    ], ids=["pop", "minima-measure", "pop-large-times"])
    def test_half_measure_messages(self, check, name):
        with pytest.raises(HypothesisError) as err:
            check(constant(0.5))
        assert str(err.value) == f"{name} hypothesis fails: fraction 0.000 < 0.5"

    def test_pop_rejects_large_source(self):
        with pytest.raises(HypothesisError):
            verify_expansion_of_positivity(constant(2.0), 0.5, source_sup=1.0)

    def test_minima_measure(self):
        m = 3
        f0, _ = make_kernel_mixture(9, n_terms=3, pole_time=(-8.0, -4.0))
        f = normalize_by_infimum(f0, q_bar(m, 1))
        vals = local_norms(f, q_one(1), N_LOCAL).values
        M = float(np.quantile(vals, 0.45))
        rep = verify_minima_measure(f, m, M)
        assert rep.passed and rep.lhs >= 1.0 - 1e-12

    def test_minima_measure_rejects_small_m(self):
        with pytest.raises(HypothesisError):
            verify_minima_measure(constant(5.0), 2, 1.0)

    def test_pop_large_times(self):
        z0 = PhasePoint(-1.0 + 0.5e-4, np.zeros(1), np.zeros(1))
        r = 0.004
        f0, _ = make_kernel_mixture(5)
        f = normalize_by_infimum(f0, Cylinder(z0, r))
        rep = verify_pop_large_times(f, z0, r)
        assert rep.passed
        assert (rep.params["A"], rep.params["ell0"], rep.params["p0"]) == (
            1.0, 0.25, 1.0)
        assert rep.params["value_fraction"] == 1.0
        assert rep.lhs >= rep.rhs
        assert all(v > 0 for v in rep.details["stack_infima"])


class TestHarnackAndHolder:
    def test_harnack_composite(self):
        f, _ = make_kernel_mixture(13)
        rep = verify_harnack(f)
        assert rep.passed
        assert np.isfinite(rep.details["weak_harnack_fitted"])

    @pytest.mark.parametrize("source_sup", [0.0, 0.3])
    @pytest.mark.parametrize("seed", range(6))
    def test_harnack_reuses_weak_harnack_exactly(self, seed, source_sup):
        # Harnack measures Q_- and the Q_+ hull once; its weak Harnack
        # constant is the one verify_weak_harnack fits at p = 2, bit for bit
        f, _ = make_kernel_mixture(seed)
        rep = verify_harnack(f, source_sup=source_sup)
        weak = verify_weak_harnack(f, p=2.0, source_sup=source_sup)
        assert rep.details["weak_harnack_fitted"] == weak.fitted_c
        assert rep.rhs == weak.rhs

    @pytest.mark.parametrize("source_sup", [0.0, 0.3])
    def test_harnack_reuses_weak_harnack_exactly_d2(self, source_sup):
        f, _ = make_kernel_mixture(2, d=2)
        n = (4, 6, 6)
        rep = verify_harnack(f, source_sup=source_sup, d=2, n_local=n)
        weak = verify_weak_harnack(f, p=2.0, source_sup=source_sup, d=2,
                                   n_local=n)
        assert rep.details["weak_harnack_fitted"] == weak.fitted_c

    @pytest.mark.parametrize("R0, omega, message", [
        (5.0, 1e-2, "R0 = 5.0 < 18"), (17.999, 1e-2, "R0 = 17.999 < 18"),
        (18.0, 2.0, "R0 too small for omega, m")])
    def test_harnack_and_weak_harnack_share_domain_gates(self, R0, omega,
                                                         message):
        errors = []
        for verify in (verify_harnack, verify_weak_harnack):
            with pytest.raises(HypothesisError) as info:
                verify(constant(1.0), R0=R0, omega=omega)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == f"domain gate fails: {message}"

    def test_holder_kernel_solution(self):
        f, _ = make_kernel_mixture(3, n_terms=1)
        rep = estimate_holder(f, levels=5)
        res = rep.params
        assert res["monotone"] and not res["constant"]
        assert res["r_squared"] >= 0.9
        assert res["alpha_fit"] > 0.0
        assert len(res["branches"]) == 5
        assert rep.inequality == "holder-oscillation-decay" and rep.passed
        assert (rep.lhs, rep.rhs) == (res["osc"][-1], res["osc"][0])

    def test_holder_constant(self):
        rep = estimate_holder(constant(4.0))
        res = rep.params
        assert res["constant"] and rep.passed
        assert res["osc"] == [0.0] * 5
        assert (rep.lhs, rep.rhs, rep.fitted_c) == (0.0, 0.0, None)


def rgi_evaluator(f):
    """The interpolant ``as_evaluator`` used to build, kept as the reference:
    scipy's RegularGridInterpolator (linear, extrapolating) on points
    clamped to the node hull; callables pass through."""
    from scipy.interpolate import RegularGridInterpolator

    if callable(f):
        return f
    g = f.grid
    axes = (g.t_nodes,) + tuple(g.x_axis) + tuple(g.v_axis)
    interp = RegularGridInterpolator(axes, f.values, method="linear",
                                     bounds_error=False, fill_value=None)
    lows = [a[0] for a in axes]
    highs = [a[-1] for a in axes]

    def evaluate(T, X, V):
        T, X, V = broadcast_coords(T, X, V)
        pts = np.concatenate([T[..., None], X, V],
                             axis=-1).reshape(-1, 1 + 2 * g.d)
        return interp(np.clip(pts, lows, highs)).reshape(T.shape)

    return evaluate


class TestInterpolantReference:
    """``as_evaluator`` gives the bits of the RegularGridInterpolator path
    it replaced, on every kind of point its callers pass."""

    @staticmethod
    def field(d):
        box = BoxCylinder(-1.0, 0.0, np.full(d, 0.2), 1.5, np.full(d, -0.3),
                          2.0)
        g = Grid(box, *((7, 9, 8) if d == 1 else (4, 5, 6)))
        rng = np.random.default_rng(d)
        return ScalarField(g, rng.uniform(-1.0, 2.0, g.shape))

    @staticmethod
    def assert_same_bits(f, *points):
        got = np.asarray(as_evaluator(f)(*points))
        want = rgi_evaluator(f)(*points)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def local_grid(d):
        # reaches past the field's node hull on every axis
        box = BoxCylinder(-1.2, 0.1, np.full(d, 0.5), 1.7, np.full(d, -0.1),
                          2.4)
        return Grid(box, *((6, 7, 9) if d == 1 else (3, 4, 5)))

    @pytest.mark.parametrize("d", [1, 2])
    def test_open_and_full_coordinates(self, d):
        f, lg = self.field(d), self.local_grid(d)
        self.assert_same_bits(f, *lg.open_coords)
        self.assert_same_bits(f, *lg.coords)

    @pytest.mark.parametrize("d", [1, 2])
    def test_framed_points(self, d):
        f, lg = self.field(d), self.local_grid(d)
        frame = PhasePoint(-0.03, np.full(d, 0.02), np.full(d, 0.4))
        pts = broadcast_coords(*lg.open_coords)
        self.assert_same_bits(f, *group_product(frame, PhasePoint(*pts)))

    @pytest.mark.parametrize("d", [1, 2])
    def test_weak_harnack_in_a_frame(self, d, monkeypatch):
        f = self.field(d)
        frame = PhasePoint(-0.5, np.full(d, 0.1), np.full(d, -0.2))
        kw = dict(d=d, frame=frame, n_local=(8, 6, 6) if d == 1 else (3, 4, 4))
        got = verify_weak_harnack(f, **kw)
        monkeypatch.setattr(harness, "as_evaluator", rgi_evaluator)
        want = verify_weak_harnack(f, **kw)
        assert (got.lhs, got.rhs) == (want.lhs, want.rhs)

    @pytest.mark.parametrize("d", [1, 2])
    def test_scattered_points_inside_and_outside_the_hull(self, d):
        f = self.field(d)
        rng = np.random.default_rng(10 + d)
        T = rng.uniform(-1.5, 0.5, 400)
        X = rng.uniform(-2.0, 2.5, (400, d))
        V = rng.uniform(-3.0, 2.5, (400, d))
        self.assert_same_bits(f, T, X, V)
        self.assert_same_bits(f, T.reshape(20, 20), X.reshape(20, 20, d),
                              V.reshape(20, 20, d))

    @pytest.mark.parametrize("d", [1, 2])
    def test_nodes_and_upper_edges(self, d):
        f = self.field(d)
        g = f.grid
        # every node, the lower and upper hull edges, and points exactly on
        # them from outside
        self.assert_same_bits(f, *g.coords)
        for k in (0, -1):
            edge_t = np.full(5, g.t_nodes[k])
            edge_x = np.broadcast_to(g.x_axis[:, k], (5, d))
            edge_v = np.broadcast_to(g.v_axis[:, k], (5, d))
            self.assert_same_bits(f, edge_t, edge_x, edge_v)
            self.assert_same_bits(f, edge_t, np.nextafter(edge_x, 0.0),
                                  np.nextafter(edge_v, 9.0))

    @pytest.mark.parametrize("d", [1, 2])
    def test_nan_coordinates(self, d):
        f = self.field(d)
        T = np.array([-0.5, np.nan, -0.2, -0.7, -np.nan])
        X = np.full((5, d), 0.1)
        V = np.full((5, d), -0.2)
        X[2, 0] = np.nan
        V[3, d - 1] = -np.nan
        self.assert_same_bits(f, T, X, V)
        assert np.isnan(as_evaluator(f)(T, X, V)[1:]).all()

    @pytest.mark.parametrize("d", [1, 2])
    def test_negative_zero_field(self, d):
        # the interpolator's sum starts from +0.0, so every corner term
        # being -0.0 still gives +0.0
        g = self.field(d).grid
        f = ScalarField(g, np.full(g.shape, -0.0))
        self.assert_same_bits(f, *self.local_grid(d).open_coords)
        assert not np.signbit(as_evaluator(f)(-0.5, np.zeros(d), np.zeros(d)))

    @pytest.mark.parametrize("d", [1, 2])
    def test_zero_dimensional_point(self, d):
        f = self.field(d)
        self.assert_same_bits(f, -0.4, np.full(d, 0.3), np.full(d, -0.6))
        self.assert_same_bits(f, np.float64(-2.0), np.full(d, 9.0),
                              np.full(d, -9.0))


class TestOpenCoordinates:
    """Evaluators give the same bits on ``Grid.open_coords`` as on the
    full-grid ``Grid.coords``, and the sampling paths never fill the
    latter."""

    @staticmethod
    def grid(d):
        box = BoxCylinder(-1.0, 0.0, np.full(d, 0.1), 1.3, np.full(d, -0.2),
                          1.7)
        return Grid(box, *((5, 6, 7) if d == 1 else (4, 5, 6)))

    @staticmethod
    def assert_same_bits(fn, g):
        # the open result is spread out the way Grid.sample spreads it
        got = fn(*g.open_coords)
        want = fn(*g.coords)
        assert np.array_equal(np.broadcast_to(got, want.shape), want)

    @pytest.mark.parametrize("d", [1, 2])
    def test_kernel_mixture(self, d):
        f, _ = make_kernel_mixture(3, d=d)
        self.assert_same_bits(f, self.grid(d))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("method", ["value", "dt", "grad_x", "grad_v"])
    def test_bump(self, d, method):
        phi = Bump(-0.4, 0.5, np.full(d, 0.2), 0.9, np.full(d, -0.1), 1.2)
        self.assert_same_bits(getattr(phi, method), self.grid(d))

    @pytest.mark.parametrize("d", [1, 2])
    def test_interpolant(self, d):
        f, _ = make_kernel_mixture(4, d=d)
        src = BoxCylinder(-1.2, 0.1, np.zeros(d), 2.0, np.zeros(d), 2.0)
        fld = sample_on_box(f, src, (6, 7, 8) if d == 1 else (4, 5, 6))
        self.assert_same_bits(as_evaluator(fld), self.grid(d))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("framed", [False, True])
    def test_source_reduced(self, d, framed):
        f, _ = make_kernel_mixture(5, d=d)
        frame = (PhasePoint(0.02, np.full(d, 0.01), np.full(d, 0.1))
                 if framed else None)
        self.assert_same_bits(harness._source_reduced(f, 0.3, frame),
                              self.grid(d))

    @pytest.mark.parametrize("fn", [constant(2.0), lambda T, X, V: T])
    def test_sample_spreads_lower_rank_results(self, fn):
        g = self.grid(1)
        vals = g.sample(fn).values
        assert vals.shape == g.shape
        assert vals.flags.c_contiguous and vals.flags.writeable
        assert np.array_equal(vals, np.broadcast_to(fn(*g.coords), g.shape))

    def test_sample_on_box_keeps_no_full_coords(self):
        f, _ = make_kernel_mixture(3)
        fld = sample_on_box(f, q_one(1), (8, 8, 8))
        assert "coords" not in fld.grid.__dict__

    @pytest.mark.parametrize("region", [
        q_one(1),
        Cylinder(PhasePoint(-0.2, np.array([0.05]), np.array([0.3])), 0.5),
    ], ids=["box", "cylinder"])
    def test_local_norms_keeps_no_full_coords(self, region, monkeypatch):
        grids = []
        sample = Grid.sample

        def recording(grid, fn):
            grids.append(grid)
            return sample(grid, fn)

        monkeypatch.setattr(Grid, "sample", recording)
        f, _ = make_kernel_mixture(3)
        local_norms(f, region, (8, 10, 12))
        assert len(grids) == 1 and "coords" not in grids[0].__dict__

    def test_weak_residual_keeps_no_full_coords(self):
        box = BoxCylinder(0.5, 1.0, np.zeros(1), 6.0, np.zeros(1), 5.0)
        g = Grid(box, 8, 16, 8)
        c = make_coefficients(g, "constant", 1.0, 1.0)
        f = solve(SolverConfig(c, np.ones((g.n_x, g.n_v))))
        weak_residual(f, c, "super", default_test_set(g, 2, 0))
        assert "coords" not in g.__dict__

    def test_weak_poincare_keeps_no_full_coords(self):
        eta = pop_parameters(0.5).eta
        g = Grid(BoxCylinder(-1.0 - eta**2, 0.0, np.zeros(1), 8.0,
                             np.zeros(1), 2.0), 64, 128, 24)
        f = g.sample(lambda T, X, V: np.clip(V[..., 0] - 0.25, 0.0, None))
        H = NegSobolevInput(ScalarField(g, np.zeros(g.shape)),
                            VectorField(g, np.zeros(g.shape + (1,))))
        verify_weak_poincare(f, H, eta)
        assert "coords" not in g.__dict__
