import math

import numpy as np
import pytest
import scipy.sparse as sp

from kinfp import fields
from kinfp.fields import (
    BoxCylinder,
    CoefficientField,
    Grid,
    NegSobolevInput,
    ScalarField,
    VectorField,
    grad_v,
    grad_v_sq_integral,
    h_minus1_norm,
    make_coefficients,
    norms,
)
from kinfp.geometry import Cylinder, PhasePoint, q_zero


def unit_grid(n=(8, 16, 16), d=1, box=None):
    box = box or BoxCylinder(-1.0, 0.0, np.zeros(d), 1.0, np.zeros(d), 1.0)
    return Grid(box, *n)


class TestGrid:
    def test_cell_volumes_tile_domain(self):
        g = unit_grid()
        measure = g.cell_volume * np.prod(g.shape)
        assert measure == pytest.approx(1.0 * 2.0 * 2.0, rel=1e-12)

    def test_time_nodes_right_aligned(self):
        g = unit_grid()
        assert g.t_nodes[-1] == pytest.approx(0.0, abs=1e-15)
        assert g.t_nodes[0] == pytest.approx(-1.0 + g.dt, rel=1e-12)

    def test_top_node_is_t_max(self):
        # t_min + 7 * dt rounds to 1.0000000000000002 here; unclamped, the
        # box's own mask would drop the whole top slice (96 of 112 cells)
        g = Grid(BoxCylinder(0.1, 1.0, np.zeros(1), 1.0, np.zeros(1), 1.0),
                 7, 4, 4)
        assert g.t_nodes[-1] == 1.0
        assert norms(ScalarField(g, np.ones(g.shape)), g.domain).values.size == 112

    def test_top_node_of_random_boxes(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            t_min = rng.uniform(-2.0, 1.0)
            box = BoxCylinder(t_min, t_min + rng.uniform(0.01, 2.0),
                              np.zeros(1), 1.0, np.zeros(1), 1.0)
            g = Grid(box, int(rng.integers(2, 64)), 2, 2)
            assert g.t_nodes[-1] <= box.t_max
            assert np.all(np.diff(g.t_nodes) > 0.0)
            assert box.contains(*g.open_coords).all()

    def test_rejects_tiny_axes(self):
        with pytest.raises(ValueError):
            unit_grid(n=(1, 4, 4))

    @pytest.mark.parametrize("d", [1, 2])
    def test_equal_grids_built_separately(self, d):
        def grid(v0=0.0):
            box = BoxCylinder(-1.0, 0.0, np.zeros(d), 1.0, np.full(d, v0), 1.0)
            return Grid(box, 2, 4, 4)

        a, b, moved = grid(), grid(), grid(0.5)
        assert a == b and not a != b
        assert a != moved and not a == moved
        zero = np.zeros(a.shape)
        NegSobolevInput(ScalarField(a, zero),
                        VectorField(b, np.zeros(b.shape + (d,))))
        with pytest.raises(ValueError, match="same grid"):
            NegSobolevInput(ScalarField(a, zero),
                            VectorField(moved, np.zeros(moved.shape + (d,))))


def volume_where(f, predicate, region=None):
    """Volume of the cells of the region whose value satisfies the
    predicate, through ``norms``."""
    n = norms(f, region)
    return np.count_nonzero(predicate(n.values)) * n.cell_volume


class TestLevelSetMeasure:
    def test_zero_field_fills_region(self):
        eta = 0.5
        box = BoxCylinder(-1.3, 0.0, np.zeros(1), 1.0, np.zeros(1), 1.0)
        g = Grid(box, 32, 64, 16)
        f = ScalarField(g, np.zeros(g.shape))
        qz = q_zero(eta, 1)
        measured = volume_where(f, lambda u: u == 0.0, qz)
        exact = eta**2 * 2 * eta**3 * 2 * eta
        assert measured == pytest.approx(exact, rel=0.25)

    def test_positive_field_has_no_zero_set(self):
        g = unit_grid()
        f = ScalarField(g, np.ones(g.shape))
        assert volume_where(f, lambda u: u == 0.0) == 0.0

    def test_half_split(self):
        g = unit_grid(n=(8, 64, 8))
        T, X, V = g.coords
        f = ScalarField(g, (X[..., 0] < 0).astype(float))
        region = g.domain
        m = volume_where(f, lambda u: u == 1.0, region)
        assert m == pytest.approx(2.0, rel=0.05)

    def test_additive_and_monotone(self):
        g = unit_grid()
        T, X, V = g.coords
        f = ScalarField(g, V[..., 0])
        left = BoxCylinder(-1.0, -0.5, np.zeros(1), 1.0, np.zeros(1), 1.0)
        right = BoxCylinder(-0.5, 0.0, np.zeros(1), 1.0, np.zeros(1), 1.0)
        pred = lambda u: u > 0
        total = volume_where(f, pred, g.domain)
        assert total == pytest.approx(
            volume_where(f, pred, left) + volume_where(f, pred, right),
            rel=1e-12,
        )
        weaker = volume_where(f, lambda u: u > -0.5, g.domain)
        assert weaker >= total


class TestNorms:
    def test_constant_field(self):
        g = unit_grid()
        f = ScalarField(g, np.full(g.shape, 3.0))
        n = norms(f)
        region_measure = g.cell_volume * np.prod(g.shape)
        assert n.sup == n.inf == 3.0
        assert n.osc == 0.0
        assert n.lp(2.0) == pytest.approx(3.0 * region_measure**0.5, rel=1e-12)

    def test_linear_in_v_extremes(self):
        g = unit_grid(n=(4, 4, 32))
        T, X, V = g.coords
        f = ScalarField(g, V[..., 0])
        n = norms(f)
        assert n.sup == pytest.approx(1 - g.dv / 2, rel=1e-12)
        assert n.inf == pytest.approx(-(1 - g.dv / 2), rel=1e-12)

    def test_l2_quadrature_converges(self):
        # smooth integrand: midpoint rule is second order
        exact = None
        errs = []
        for n in (16, 32, 64):
            g = unit_grid(n=(4, n, n))
            T, X, V = g.coords
            f = ScalarField(g, np.sin(2 * X[..., 0]) * np.cos(V[..., 0]))
            val = norms(f).lp(2.0)
            errs.append(val)
        # Richardson: successive differences shrink by ~4
        d1 = abs(errs[1] - errs[0])
        d2 = abs(errs[2] - errs[1])
        assert d2 <= d1 / 3.0

    def test_rejects_bad_exponent(self):
        g = unit_grid()
        f = ScalarField(g, np.ones(g.shape))
        with pytest.raises(ValueError):
            norms(f).lp(0.0)


def brute_force_values(f, inside):
    """f at the nodes where inside(t, x, v) holds, one node at a time."""
    T, X, V = f.grid.coords
    return np.array([f.values[i] for i in np.ndindex(f.grid.shape)
                     if inside(T[i], X[i], V[i])])


def in_box(box):
    return lambda t, x, v: bool(
        box.t_min < t <= box.t_max
        and np.linalg.norm(x - box.x_center) < box.rx
        and np.linalg.norm(v - box.v_center) < box.rv)


def in_cylinder(Q):
    z0, r = Q.center, Q.r
    return lambda t, x, v: bool(
        -r * r < t - z0.t <= 0.0
        and np.linalg.norm(x - z0.x - (t - z0.t) * z0.v) < r**3
        and np.linalg.norm(v - z0.v) < r)


class TestRegionQuadrature:
    """norms over slanted cylinders and at d = 2 against a node-by-node
    reference."""

    def cases(self):
        rng = np.random.default_rng(3)
        # d = 1: a slanted cylinder inside a grid over its neighbourhood
        q1 = Cylinder(PhasePoint(-0.31, np.array([0.07]), np.array([1.3])),
                      0.83)
        g1 = Grid(BoxCylinder(-1.1, 0.0, np.zeros(1), 1.6, np.full(1, 1.3),
                              0.9), 12, 40, 16)
        yield ScalarField(g1, rng.normal(size=g1.shape)), q1, in_cylinder(q1)
        # d = 2: a ball-shaped box and a slanted cylinder
        box2 = BoxCylinder(-1.0, 0.0, np.zeros(2), 1.0, np.zeros(2), 1.0)
        g2 = Grid(box2, 5, 7, 6)
        f2 = ScalarField(g2, rng.normal(size=g2.shape))
        inner = BoxCylinder(-0.77, -0.1, np.array([0.1, -0.2]), 0.71,
                            np.array([-0.15, 0.05]), 0.66)
        yield f2, inner, in_box(inner)
        q2 = Cylinder(PhasePoint(-0.05, np.array([0.1, 0.0]),
                                 np.array([0.4, -0.3])), 0.93)
        yield f2, q2, in_cylinder(q2)

    def test_matches_brute_force(self):
        for f, region, inside in self.cases():
            vals = brute_force_values(f, inside)
            cv = f.grid.cell_volume
            n = norms(f, region)
            assert 0 < vals.size < f.values.size
            assert n.values.size == vals.size
            assert n.measure == vals.size * cv
            assert n.sup == vals.max() and n.inf == vals.min()
            assert n.integral == pytest.approx(math.fsum(vals) * cv,
                                               rel=1e-12)
            for p in (1.0, 1.5, 2.0):
                ref = (math.fsum(np.abs(vals) ** p) * cv) ** (1.0 / p)
                assert n.lp(p) == pytest.approx(ref, rel=1e-12)
            level = 0.3
            ref = math.sqrt(math.fsum(np.maximum(vals - level, 0.0) ** 2) * cv)
            assert n.excess(level).lp(2.0) == pytest.approx(ref, rel=1e-12)
            count = int(np.sum(vals >= level))
            assert n.fraction(lambda u: u >= level) == count / vals.size

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_full_region_reads_the_field_in_place(self, order):
        # a d = 1 box holds every node of its own grid: norms reads the
        # field in C order, a view when the field is C-contiguous
        box = BoxCylinder(-0.7, -0.1, np.array([0.2]), 0.5, np.array([-0.3]),
                          0.8)
        g = Grid(box, 6, 9, 7)
        rng = np.random.default_rng(5)
        f = ScalarField(g, np.asarray(rng.normal(size=g.shape), order=order))
        mask = box.contains(*g.open_coords)
        n, gathered = norms(f, box), fields.RegionNorms(f.values[mask],
                                                        g.cell_volume)
        assert mask.all()
        assert n.values.tobytes() == gathered.values.tobytes()
        assert np.shares_memory(n.values, f.values) == (order == "C")
        for p in (1.0, 1.5, 2.0):
            assert n.lp(p) == gathered.lp(p)
        assert (n.sup, n.inf, n.integral) == (
            gathered.sup, gathered.inf, gathered.integral)
        part = Cylinder(PhasePoint(-0.2, np.array([0.2]), np.array([-0.3])),
                        0.5)
        assert not np.shares_memory(norms(f, part).values, f.values)

    def test_empty_region_rejected(self):
        f, _, _ = next(self.cases())
        far = Cylinder(PhasePoint(5.0, np.zeros(1), np.zeros(1)), 0.1)
        with pytest.raises(ValueError):
            norms(f, far)

    def test_velocity_gradient_d2(self):
        # linear in v: central and one-sided differences are both exact
        g = Grid(BoxCylinder(-1.0, 0.0, np.zeros(2), 1.0, np.zeros(2), 1.0),
                 3, 4, 5)
        T, X, V = g.coords
        f = ScalarField(g, 3.0 * V[..., 0] - 2.0 * V[..., 1] + T * X[..., 0])
        G = grad_v(f)
        assert G.shape == g.shape + (2,)
        assert np.allclose(G[..., 0], 3.0, rtol=0, atol=1e-12)
        assert np.allclose(G[..., 1], -2.0, rtol=0, atol=1e-12)
        assert grad_v_sq_integral(f, g.domain) == pytest.approx(
            13.0 * norms(f, g.domain).measure, rel=1e-12)


def random_boxes(rng, domain, count):
    """Boxes drawn around the domain: they overlap it, touch its t, x and v
    edges or miss it, with the domain itself and its corners first."""
    d = domain.d
    lo_t, hi_t = domain.t_min, domain.t_max
    span = hi_t - lo_t
    yield domain
    for s in (-1.0, 1.0):  # a box at each corner of the domain
        yield BoxCylinder(hi_t - 0.3 * span, hi_t + 0.2 * span,
                          domain.x_center + s * domain.rx, 0.4 * domain.rx,
                          domain.v_center - s * domain.rv, 0.4 * domain.rv)
        yield BoxCylinder(lo_t - 0.2 * span, lo_t + 0.3 * span,
                          domain.x_center - s * domain.rx, 0.4 * domain.rx,
                          domain.v_center + s * domain.rv, 0.4 * domain.rv)
    for _ in range(count):
        t0 = lo_t + span * rng.uniform(-0.3, 1.0)
        yield BoxCylinder(
            t0, t0 + span * rng.uniform(0.05, 1.3),
            domain.x_center + domain.rx * rng.uniform(-1.3, 1.3, d),
            domain.rx * rng.uniform(0.1, 1.5),
            domain.v_center + domain.rv * rng.uniform(-1.3, 1.3, d),
            domain.rv * rng.uniform(0.1, 1.5))


def reference_grad_v_sq(f):
    """|grad_v f|^2 as the stacked gradient, squared and summed over its
    last axis, kept here as the reference."""
    sq = grad_v(f)
    np.square(sq, out=sq)
    return ScalarField(f.grid, sq.sum(axis=-1))


def random_cylinders(rng, d, n):
    """n slanted cylinders as one batch, some reaching past the edges of a
    grid over (-1, 0.3] x B_2 x B_1 and some wholly off it."""
    t = rng.uniform(-1.2, 0.5, n)
    x = rng.uniform(-2.5, 2.5, (n, d))
    v = rng.uniform(-1.2, 1.2, (n, d))
    t[:3], x[3:6], v[6:9] = 5.0, 10.0, -5.0  # off the grid
    r = rng.choice([1.0, 0.75, 0.5, 0.3, 0.1], n)
    return Cylinder(PhasePoint(t, x, v), r)


def box_batch(boxes):
    """A list of boxes as one batch of boxes."""
    return BoxCylinder(*(np.array([getattr(b, k) for b in boxes])
                         for k in ("t_min", "t_max", "x_center", "rx",
                                   "v_center", "rv")))


class TestWindow:
    """``Grid.window`` against ``region.contains`` on the full-grid
    coordinates, one region at a time and as one batch of padded windows,
    for cylinders, their stacks and boxes; ``norms`` on each window against
    the full-grid gather, byte for byte, and ``grad_v_sq_integral`` against
    the whole-grid quadrature, compared with ==."""

    @pytest.mark.parametrize("d, n", [(1, (20, 12, 10)), (2, (8, 6, 6))],
                             ids=["d1", "d2"])
    def test_matches_full_grid(self, d, n):
        domain = BoxCylinder(-1.0, 0.3, np.zeros(d), 2.0, np.zeros(d), 1.0)
        g = Grid(domain, *n)
        T, X, V = g.coords
        rng = np.random.default_rng(3 + d)
        f = ScalarField(g, rng.normal(size=g.shape))
        sq = reference_grad_v_sq(f)
        Q = random_cylinders(rng, d, 200)
        boxes = list(random_boxes(rng, domain, 60))
        boxes.append(BoxCylinder(5.0, 6.0, np.zeros(d), 1.0, np.zeros(d), 1.0))
        cases = [(Q, [Q[i] for i in range(200)])]
        cases += [(Q.stacked(m), [Q[i].stacked(m) for i in range(200)])
                  for m in (1, 3)]
        cases.append((box_batch(boxes), boxes))
        hit = miss = 0
        for regions, singles in cases:
            _, padded = g.window(regions)
            for i, region in enumerate(singles):
                full = region.contains(T, X, V)
                win, inside = g.window(region)
                assert np.array_equal(full[win], inside)
                assert np.count_nonzero(inside) == np.count_nonzero(full)
                window = tuple(slice(0, w) for w in inside.shape)
                assert np.array_equal(padded[window + (i,)], inside)
                assert (np.count_nonzero(padded[..., i])
                        == np.count_nonzero(inside))
                if full.any():
                    hit += 1
                    assert (norms(f, region).values.tobytes()
                            == f.values[full].tobytes())
                    assert (grad_v_sq_integral(f, region)
                            == norms(sq, region).integral)
                    continue
                miss += 1
                with pytest.raises(ValueError, match="does not overlap"):
                    norms(f, region)
                with pytest.raises(ValueError, match="does not overlap"):
                    grad_v_sq_integral(f, region)
        assert hit > 250 and miss > 30
        # regions wholly off the grid have empty windows
        for region in (Q[0], Q[3].stacked(3), Q[6], boxes[-1]):
            assert g.window(region)[1].size == 0


class TestGradVSqIntegral:
    """The windowed integral against the stacked gradient reference and its
    whole-grid quadrature ``norms(reference_grad_v_sq(f), region).integral``,
    compared with ==."""

    @pytest.mark.parametrize("d, n", [(1, (7, 9, 8)), (1, (5, 12, 2)),
                                      (2, (4, 5, 6)), (2, (3, 4, 3))])
    def test_equals_the_whole_grid_quadrature(self, d, n):
        rng = np.random.default_rng(10 * d + n[2])
        domain = BoxCylinder(-1.0, 0.0, np.full(d, 0.2), 1.0,
                             np.full(d, -0.1), 1.0)
        g = Grid(domain, *n)
        f = ScalarField(g, rng.normal(size=g.shape))
        sq = reference_grad_v_sq(f)
        checked, touched = 0, set()
        for box in random_boxes(rng, domain, 200):
            mask = box.contains(*g.open_coords)
            if not mask.any():
                with pytest.raises(ValueError, match="does not overlap"):
                    norms(sq, box)
                with pytest.raises(ValueError, match="does not overlap"):
                    grad_v_sq_integral(f, box)
                continue
            assert grad_v_sq_integral(f, box) == norms(sq, box).integral
            checked += 1
            touched.update((k, end) for k in range(mask.ndim)
                           for end in (0, -1) if mask.take(end, axis=k).any())
        # most boxes overlap the grid, and boxes reach both ends of every
        # axis
        assert checked >= 100
        assert touched == {(k, end) for k in range(1 + 2 * d)
                           for end in (0, -1)}

    def test_full_region_sums_the_squares_in_place(self, monkeypatch):
        # a d = 1 box holds every node of its own grid: the squares are
        # read as a view of the gradient, as norms reads the field, and a
        # region that holds some nodes only gathers a copy
        box = BoxCylinder(-0.7, -0.1, np.array([0.2]), 0.5, np.array([-0.3]),
                          0.8)
        g = Grid(box, 6, 9, 7)
        f = ScalarField(g, np.random.default_rng(6).normal(size=g.shape))
        part = Cylinder(PhasePoint(-0.2, np.array([0.2]), np.array([-0.3])),
                        0.5)
        real, reads = fields._gather, []

        def spy(values, inside):
            out = real(values, inside)
            reads.append(np.shares_memory(out, values))
            return out

        monkeypatch.setattr(fields, "_gather", spy)
        sq = reference_grad_v_sq(f)
        for region, in_place in ((box, True), (part, False)):
            reads.clear()
            assert (grad_v_sq_integral(f, region)
                    == norms(sq, region).integral)
            assert reads == [in_place, in_place]

    def test_slanted_cylinder(self):
        rng = np.random.default_rng(4)
        g = Grid(BoxCylinder(-1.1, 0.0, np.zeros(1), 1.6, np.full(1, 1.3),
                             0.9), 12, 40, 16)
        f = ScalarField(g, rng.normal(size=g.shape))
        Q = Cylinder(PhasePoint(-0.31, np.array([0.07]), np.array([1.3])),
                     0.83)
        assert (grad_v_sq_integral(f, Q)
                == norms(reference_grad_v_sq(f), Q).integral)

    def test_region_off_the_grid(self):
        g = unit_grid(n=(4, 6, 6))
        f = ScalarField(g, np.ones(g.shape))
        far = Cylinder(PhasePoint(5.0, np.zeros(1), np.zeros(1)), 0.1)
        with pytest.raises(ValueError, match="does not overlap") as ours:
            grad_v_sq_integral(f, far)
        with pytest.raises(ValueError) as theirs:
            norms(reference_grad_v_sq(f), far)
        assert str(ours.value) == str(theirs.value)


class TestHMinus1:
    def test_zero(self):
        g = unit_grid()
        f = ScalarField(g, np.zeros(g.shape))
        assert h_minus1_norm(f) == 0.0

    def test_constant_slice_closed_form(self):
        # -u'' = 1 on (-1,1), u(+-1)=0: u=(1-v^2)/2, |u'|_L2 = sqrt(2/3)
        vals = []
        for nv in (16, 32, 64, 128):
            g = unit_grid(n=(4, 4, nv))
            f = ScalarField(g, np.ones(g.shape))
            total = h_minus1_norm(f)
            # slices aggregate in L2 over a (t, x) region of measure 2
            vals.append(total / np.sqrt(1.0 * 2.0))
        exact = np.sqrt(2.0 / 3.0)
        errs = [abs(v - exact) for v in vals]
        assert errs[-1] <= errs[0] / 4.0
        assert vals[-1] == pytest.approx(exact, rel=0.05)

    def test_homogeneity(self):
        g = unit_grid(n=(4, 4, 24))
        rng = np.random.default_rng(0)
        f = ScalarField(g, rng.standard_normal(g.shape))
        a = h_minus1_norm(f)
        f3 = ScalarField(g, 3.0 * f.values)
        assert h_minus1_norm(f3) == pytest.approx(3.0 * a, rel=1e-10)

    def test_ball_slice_closed_form_d2(self):
        # -Lap u = 1 on the unit v-disk, u = 0 on its circle:
        # u = (1 - |v|^2) / 4 and the slice energy |grad u|^2_L2 is pi / 8;
        # the masked stencil puts the boundary on a staircase, so the
        # error falls about like dv
        energies = []
        for nv in (16, 32, 64, 128):
            g = unit_grid(n=(2, 2, nv), d=2)
            total = h_minus1_norm(ScalarField(g, np.ones(g.shape)))
            # slices aggregate in L2 over a (t, x) region of measure 4
            energies.append(total**2 / 4.0)
        errs = [abs(e - math.pi / 8) for e in energies]
        assert all(b < a / 1.8 for a, b in zip(errs, errs[1:]))
        assert energies[-1] == pytest.approx(math.pi / 8, rel=0.03)

    @pytest.mark.parametrize("n, center, radius", [
        (12, (0.0, 0.0), 1.0), (13, (0.3, -0.2), 0.9), (24, (0.0, 0.0), 1.0)])
    def test_ball_laplacian_matches_node_loop(self, n, center, radius):
        # reference: the 5-point stencil assembled one node at a time
        v1 = center[0] - 1.0 + (np.arange(n) + 0.5) * 2.0 / n
        v2 = center[1] - 1.0 + (np.arange(n) + 0.5) * 2.0 / n
        h = 2.0 / n
        A, inside = fields._dirichlet_laplacian_ball_2d(v1, v2, h, center,
                                                        radius)
        idx = -np.ones(inside.shape, dtype=int)
        idx[inside] = np.arange(inside.sum())
        rows, cols, vals = [], [], []
        for i, j in zip(*np.nonzero(inside)):
            rows.append(idx[i, j]), cols.append(idx[i, j]), vals.append(4.0)
            for a, b in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if 0 <= a < n and 0 <= b < n and inside[a, b]:
                    rows.append(idx[i, j]), cols.append(idx[a, b])
                    vals.append(-1.0)
        ref = sp.csc_matrix((vals, (rows, cols)), shape=A.shape) / h**2
        assert A.format == "csc" and A.has_sorted_indices
        for key in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, key), getattr(ref, key))

    def test_recorded_value_d2(self):
        # recorded before the ball Laplacian was built from Kronecker
        # products; the matrix is the same, so the value is exact
        g = unit_grid(n=(3, 4, 12), d=2)
        rng = np.random.default_rng(5)
        h0 = ScalarField(g, rng.standard_normal(g.shape))
        h1 = VectorField(g, rng.standard_normal(g.shape + (2,)))
        assert h_minus1_norm(h0) == 0.40131344212738196
        assert h_minus1_norm(NegSobolevInput(h0, h1)) == 2.3416050291202044

    def test_region_off_the_grid(self):
        # no (t, x) slice of a grid over (-1, 0] lies in a box over (5, 6]
        g = unit_grid(n=(4, 4, 8))
        f = ScalarField(g, np.ones(g.shape))
        with pytest.raises(ValueError, match="does not overlap"):
            h_minus1_norm(f, BoxCylinder(5, 6, 0, 1, 0, 1))
        with pytest.raises(ValueError, match="does not overlap"):
            norms(f, BoxCylinder(5, 6, 0, 1, 0, 1))

    def test_pair_form_matches_raw_for_h1_zero(self):
        g = unit_grid(n=(4, 4, 24))
        rng = np.random.default_rng(1)
        h0 = ScalarField(g, rng.standard_normal(g.shape))
        h1 = VectorField(g, np.zeros(g.shape + (1,)))
        pair = NegSobolevInput(h0, h1)
        assert h_minus1_norm(pair) == pytest.approx(h_minus1_norm(h0), rel=1e-12)


class TestCoefficients:
    def test_constant_identity(self):
        g = unit_grid(n=(4, 6, 6))
        c = make_coefficients(g, "constant", 1.0, 1.0)
        assert np.allclose(c.A[..., 0, 0], 1.0)
        assert np.allclose(c.B, 0.0)

    @pytest.mark.parametrize("kind", ["constant", "checkerboard", "random"])
    def test_source_kept_as_read_only_view(self, kind):
        g = unit_grid(n=(4, 6, 6))
        S = np.random.default_rng(1).normal(size=g.shape)
        c = make_coefficients(g, kind, 1.0, 2.0, S=S)
        assert np.shares_memory(c.S, S) and not c.S.flags.writeable
        assert c.S.tobytes() == S.tobytes()
        scalar = make_coefficients(g, kind, 1.0, 2.0, S=0.5).S
        assert scalar.shape == g.shape and np.all(scalar == 0.5)

    def test_checkerboard_spectrum(self):
        g = unit_grid(n=(4, 8, 8))
        c = make_coefficients(g, "checkerboard", 1.0, 2.0)
        eigs = c.A[..., 0, 0]
        assert set(np.unique(eigs)) <= {1.0, 2.0}
        assert len(np.unique(eigs)) == 2

    def test_random_deterministic_and_elliptic(self):
        g = unit_grid(n=(4, 8, 8), d=2, box=BoxCylinder(
            -1.0, 0.0, np.zeros(2), 1.0, np.zeros(2), 1.0))
        a = make_coefficients(g, "random", 0.5, 2.0, seed=7)
        b = make_coefficients(g, "random", 0.5, 2.0, seed=7)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)
        eigs = np.linalg.eigvalsh(a.A)
        assert eigs.min() >= 0.5 - 1e-12 and eigs.max() <= 2.0 + 1e-12
        assert np.max(np.sqrt(np.sum(a.B**2, axis=-1))) <= 2.0 + 1e-12

    def test_validation_rejects_bad_spectrum(self):
        g = unit_grid(n=(4, 4, 4))
        A = np.full(g.shape + (1, 1), 5.0)
        B = np.zeros(g.shape + (1,))
        S = np.zeros(g.shape)
        with pytest.raises(ValueError):
            CoefficientField(g, A, B, S, lam=1.0, Lam=2.0)

    @pytest.mark.parametrize("d,bad", [(1, "nan"), (2, "nan"),
                                       (2, "asymmetric"), (1, "drift")])
    def test_validation_rejects(self, d, bad):
        g = unit_grid(n=(4, 4, 4), d=d)
        A = np.broadcast_to(np.eye(d), g.shape + (d, d)).copy()
        B = np.zeros(g.shape + (d,))
        if bad == "nan":
            A[1, 2, ..., 0, 0] = np.nan
        elif bad == "asymmetric":
            A[..., 0, 1] = 0.1
        else:
            B[0, 1, 2, 0] = -2.5
        with pytest.raises(ValueError):
            CoefficientField(g, A, B, np.zeros(g.shape), lam=0.5, Lam=2.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_checkerboard_from_axis_lines(self, d):
        g = unit_grid(n=(5, 6, 7), d=d, box=BoxCylinder(
            -1.0, 0.0, np.full(d, 0.3), 1.0, np.full(d, -0.2), 1.0))
        c = make_coefficients(g, "checkerboard", 1.0, 2.0, cell_size=0.3)
        # the full-grid coordinates are neither needed nor cached
        assert "coords" not in g.__dict__
        T, X, V = g.coords
        cells = np.floor(T / 0.3).astype(np.int64)
        for i in range(d):
            cells = (cells + np.floor(X[..., i] / 0.3).astype(np.int64)
                     + np.floor(V[..., i] / 0.3).astype(np.int64))
        expected = np.where(cells % 2 == 1, 2.0, 1.0)
        assert np.array_equal(c.A[..., 0, 0], expected)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("cell_size", [0.3, 0.5, 0.7])
    def test_checkerboard_parity_bit_for_bit(self, d, cell_size):
        # the grid straddles zero on every axis, so cell indices go negative
        g = Grid(BoxCylinder(-1.0, 0.6, np.full(d, 0.1), 1.3,
                             np.full(d, -0.2), 1.1), 9, 11, 10 - 3 * d)
        c = make_coefficients(g, "checkerboard", 1.0, 4.0,
                              cell_size=cell_size)
        T, X, V = g.coords
        assert T.min() < 0.0 < T.max()
        cells = np.floor(T / cell_size).astype(np.int64)
        for i in range(d):
            assert X[..., i].min() < 0.0 < X[..., i].max()
            assert V[..., i].min() < 0.0 < V[..., i].max()
            cells = (cells + np.floor(X[..., i] / cell_size).astype(np.int64)
                     + np.floor(V[..., i] / cell_size).astype(np.int64))
        assert cells.min() < 0
        eye = np.eye(d)
        expected = np.where((cells & 1).astype(bool)[..., None, None],
                            4.0 * eye, 1.0 * eye)
        assert c.A.dtype == expected.dtype and c.A.shape == expected.shape
        assert c.A.tobytes() == expected.tobytes()

    def test_drift_bound_read_from_both_signs(self):
        g = unit_grid(n=(4, 5, 6))
        A = np.ones(g.shape + (1, 1))
        rng = np.random.default_rng(5)
        for scale in (1.0, -1.0):
            B = rng.uniform(-0.5, 0.5, g.shape + (1,))
            B[1, 2, 3, 0] = 1.5 * scale
            c = CoefficientField(g, A, B, np.zeros(g.shape), 1.0, 2.0)
            assert c.b_l1_max == float(np.abs(B).max()) == 1.5
            B[0, 0, 0, 0] = -2.5 * scale
            with pytest.raises(ValueError, match="upper ellipticity"):
                CoefficientField(g, A, B, np.zeros(g.shape), 1.0, 2.0)
        B[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="upper ellipticity"):
            CoefficientField(g, A, B, np.zeros(g.shape), 1.0, 2.0)

    def test_rejects_lambda_order(self):
        g = unit_grid(n=(4, 4, 4))
        with pytest.raises(ValueError):
            make_coefficients(g, "constant", 2.0, 1.0)
