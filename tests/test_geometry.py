import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stacking_bases
from kinfp.geometry import (
    BoxCylinder,
    Cylinder,
    PhasePoint,
    StackedCylinder,
    check_stacking,
    cylinder_in_box,
    cylinder_in_cylinder,
    group_inverse,
    group_product,
    origin,
    _unit_coords,
    pop_parameters,
    radius_power,
    scale,
    stack_cylinders,
)


def pt(t, x, v):
    return PhasePoint(t, np.atleast_1d(float(x)), np.atleast_1d(float(v)))


coords = st.floats(-10, 10, allow_nan=False)
dims = st.integers(1, 3)


@st.composite
def phase_points(draw, d=None):
    d = d if d is not None else draw(dims)
    return PhasePoint(
        draw(coords),
        np.array([draw(coords) for _ in range(d)]),
        np.array([draw(coords) for _ in range(d)]),
    )


class TestGroup:
    def test_product_formula(self):
        z = group_product(pt(1, 0, 1), pt(1, 0, 0))
        assert z.t == 2 and z.x[0] == 1 and z.v[0] == 1

    def test_identity(self):
        z = pt(1.5, -2.0, 0.5)
        w = group_product(z, origin(1))
        assert w.t == z.t and np.all(w.x == z.x) and np.all(w.v == z.v)

    def test_noncommutative(self):
        a = group_product(pt(0, 0, 1), pt(1, 0, 0))
        b = group_product(pt(1, 0, 0), pt(0, 0, 1))
        assert (a.t, a.x[0], a.v[0]) == (1, 1, 1)
        assert (b.t, b.x[0], b.v[0]) == (1, 0, 1)

    def test_inverse_formula(self):
        w = group_inverse(pt(1, 2, 3))
        assert (w.t, w.x[0], w.v[0]) == (-1, 1, -3)

    def test_inverse_of_origin(self):
        w = group_inverse(origin(2))
        assert w.t == 0 and np.all(w.x == 0) and np.all(w.v == 0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_associativity(self, data):
        d = data.draw(dims)
        z1, z2, z3 = (data.draw(phase_points(d)) for _ in range(3))
        a = group_product(group_product(z1, z2), z3)
        b = group_product(z1, group_product(z2, z3))
        s = 1.0 + abs(a.t) + np.max(np.abs(a.x)) + np.max(np.abs(a.v))
        err = abs(a.t - b.t) + np.max(np.abs(a.x - b.x)) + np.max(np.abs(a.v - b.v))
        assert err / s <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_inverse_cancels(self, data):
        z = data.draw(phase_points())
        w = group_product(z, group_inverse(z))
        assert abs(w.t) <= 1e-14
        assert np.max(np.abs(w.x)) <= 1e-12
        assert np.max(np.abs(w.v)) <= 1e-14

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_double_inverse(self, data):
        z = data.draw(phase_points())
        w = group_inverse(group_inverse(z))
        assert w.t == z.t and np.all(w.v == z.v)
        # x - tv + tv cancels only up to roundoff at the scale of t*v
        tol = 1e-15 * (1.0 + abs(z.t) * np.max(np.abs(z.v)))
        assert np.max(np.abs(w.x - z.x)) <= tol


class TestScaling:
    def test_formula(self):
        w = scale(2.0, pt(1, 1, 1))
        assert (w.t, w.x[0], w.v[0]) == (4, 8, 2)

    def test_identity(self):
        z = pt(0.3, -0.7, 1.1)
        w = scale(1.0, z)
        assert (w.t, w.x[0], w.v[0]) == (z.t, z.x[0], z.v[0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale(0.0, pt(0, 0, 0))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_membership_scaling(self, data):
        # z in Q_r(0) iff S_{1/r}(z) in Q_1(0)
        r = data.draw(st.floats(0.1, 3.0))
        z = data.draw(phase_points(1))
        big = Cylinder(origin(1), r)
        unit = Cylinder(origin(1), 1.0)
        w = scale(1.0 / r, z)
        assert big.contains_point(z) == unit.contains_point(w)

    @pytest.mark.parametrize("r", [2.1865332274595075, 0.3, 0.7])
    def test_membership_scaling_on_boundary(self, r):
        # points on each face of Q_r(0): |v| = r, |x| = r^3, t = -r^2;
        # fl(1/r) * r rounds, so only one shared arithmetic keeps the
        # scaling law exact here
        big = Cylinder(origin(1), r)
        unit = Cylinder(origin(1), 1.0)
        for z in (pt(0, 0, r), pt(0, 0, -r), pt(0, r**3, 0),
                  pt(0, -(r**3), 0), pt(-(r * r), 0, 0)):
            w = scale(1.0 / r, z)
            assert big.contains_point(z) == unit.contains_point(w), z

    @pytest.mark.parametrize("r", [2.1865332274595075, 0.3, 0.7])
    def test_stacked_membership_scaling_on_boundary(self, r):
        # the same law for the stack over Q_r(0), m = 3, on its faces
        # |v| = r, |x| = (m+2) r^3 and t = m r^2
        m = 3
        big = StackedCylinder(Cylinder(origin(1), r), m)
        unit = StackedCylinder(Cylinder(origin(1), 1.0), m)
        for z in (pt(r * r, 0, r), pt(r * r, 0, -r), pt(r * r, 5 * r**3, 0),
                  pt(r * r, -5 * r**3, 0), pt(m * r * r, 0, 0)):
            w = scale(1.0 / r, z)
            assert big.contains_point(z) == unit.contains_point(w), z


def bits(z):
    return (np.float64(z.t).tobytes(), z.x.tobytes(), z.v.tobytes())


def u64(*values):
    """The float64 bit patterns of the values, concatenated."""
    return np.concatenate([np.asarray(a, dtype=float).ravel().view(np.uint64)
                           for a in values])


def hull_values(box):
    return (box.t_min, box.t_max, box.x_center, box.rx, box.v_center, box.rv)


def as_batch(points):
    return PhasePoint(np.array([p.t for p in points]),
                      np.stack([p.x for p in points]),
                      np.stack([p.v for p in points]))


class TestBatches:
    """Every batch element equals the scalar call bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_batch_matches_scalar_bitwise(self, data):
        d = data.draw(dims)
        n = data.draw(st.integers(1, 6))
        a = [data.draw(phase_points(d)) for _ in range(n)]
        b = [data.draw(phase_points(d)) for _ in range(n)]
        ra = [data.draw(st.floats(0.05, 3.0)) for _ in range(n)]
        k = data.draw(st.floats(0.1, 3.0))
        A, B = as_batch(a), as_batch(b)
        for got, want in (
            (group_product(A, B), [group_product(p, q) for p, q in zip(a, b)]),
            (group_product(a[0], B), [group_product(a[0], q) for q in b]),
            (group_inverse(A), [group_inverse(p) for p in a]),
            (scale(k, A), [scale(k, p) for p in a]),
        ):
            assert [bits(got[i]) for i in range(n)] == [bits(z) for z in want]

        # outer regions large enough that inclusion goes both ways
        wide = Cylinder(PhasePoint(10.0, np.zeros(d), np.zeros(d)), 5.0)
        box = BoxCylinder(-12.0, 12.0, np.zeros(d), 200.0, np.zeros(d), 8.0)
        inner = Cylinder(A, np.array(ra))
        cases = [
            (cylinder_in_cylinder(inner, wide),
             [cylinder_in_cylinder(Cylinder(p, r), wide)
              for p, r in zip(a, ra)]),
            (cylinder_in_cylinder(Cylinder(b[0], 0.1), Cylinder(A, 3.0)),
             [cylinder_in_cylinder(Cylinder(b[0], 0.1), Cylinder(p, 3.0))
              for p in a]),
            (cylinder_in_box(inner, box),
             [cylinder_in_box(Cylinder(p, r), box) for p, r in zip(a, ra)]),
            (inner.contains_via_group(B),
             [Cylinder(p, r).contains_via_group(q)
              for p, r, q in zip(a, ra, b)]),
        ]
        for got, want in cases:
            assert got.tolist() == want

    @pytest.mark.parametrize("d", [1, 2])
    def test_batch_values_match_scalar_bitwise(self, d):
        """Not only the booleans: the normalised coordinates, the radius
        powers the inclusion margins are built from, and the box hulls of a
        batch equal the scalar calls bit for bit."""
        rng = np.random.default_rng(d)
        n = 2000

        def points():
            return PhasePoint(rng.uniform(-1, 1, n), rng.uniform(-1, 1, (n, d)),
                              rng.uniform(-1, 1, (n, d)))

        centers, probes = points(), points()
        r = rng.uniform(1e-3, 1.0, n)
        batch = Cylinder(centers, r)
        got = u64(*_unit_coords(batch, probes.t, probes.x, probes.v),
                  *(radius_power(r, e) for e in (2, 3, 0.5)),
                  *hull_values(batch.box_hull()),
                  *hull_values(batch.stacked(3).box_hull()))
        parts = [[] for _ in range(3 + 3 + 12)]
        for i in range(n):
            Q = Cylinder(centers[i], float(r[i]))
            values = (*_unit_coords(Q, probes.t[i], probes.x[i], probes.v[i]),
                      *(float(r[i]) ** e for e in (2, 3, 0.5)),
                      *hull_values(Q.box_hull()),
                      *hull_values(Q.stacked(3).box_hull()))
            for part, value in zip(parts, values):
                part.append(value)
        assert np.array_equal(got, u64(*map(np.array, parts)))
        # the inclusion predicates on the boundary: each cylinder against
        # its own box hull, and against the cylinder Q_r(z0) itself
        assert cylinder_in_box(batch, batch.box_hull()).tolist() == [
            cylinder_in_box(batch[i], batch[i].box_hull()) for i in range(n)]
        same = Cylinder(centers, float(r[0]))
        assert cylinder_in_cylinder(batch, same).tolist() == [
            cylinder_in_cylinder(batch[i], same[i]) for i in range(n)]


class TestCylinder:
    def test_top_center_inside(self):
        Q = Cylinder(pt(0.5, 1.0, -2.0), 0.7)
        assert Q.contains_point(Q.center)

    def test_slanted_axis(self):
        Q = Cylinder(pt(0, 0, 1), 1.0)
        assert Q.contains_point(pt(-0.5, -0.49, 1))

    def test_bottom_time_excluded(self):
        Q = Cylinder(pt(0, 0, 0), 0.5)
        assert not Q.contains_point(pt(-0.25, 0, 0))

    def test_volume(self):
        assert Cylinder(origin(1), 1.0).volume() == pytest.approx(4.0)
        assert Cylinder(origin(1), 0.5).volume() == pytest.approx(0.0625)

    def test_volume_homogeneity(self):
        for r in (0.3, 1.7):
            assert Cylinder(origin(2), r).volume() == pytest.approx(
                r**10 * Cylinder(origin(2), 1.0).volume()
            )

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_dual_membership(self, data):
        z0 = data.draw(phase_points(1))
        r = data.draw(st.floats(0.05, 3.0))
        z = data.draw(phase_points(1))
        Q = Cylinder(z0, r)
        assert Q.contains_point(z) == Q.contains_via_group(z)


class TestStackedCylinder:
    def test_time_boundary_inclusive(self):
        Q = Cylinder(pt(0, 0, 0), 1.0)
        bar = StackedCylinder(Q, 3)
        assert bar.contains_point(pt(3.0, 0, 0))
        assert not bar.contains_point(pt(0.0, 0, 0))

    def test_x_extent(self):
        bar = StackedCylinder(Cylinder(pt(0, 0, 0), 1.0), 3)
        assert bar.contains_point(pt(1.0, 4.99, 0))
        assert not bar.contains_point(pt(1.0, 5.0, 0))


class TestStacking:
    def test_documented_instance(self):
        omega = 1e-2
        r = omega / 2
        seq = stack_cylinders(pt(-1 + omega**2, 0, 0), r, omega)
        assert seq.N == 7
        assert seq.T[6] == pytest.approx(r**2 * (4**8 - 4) / 3)
        assert seq.T[6] == pytest.approx(0.5461, abs=1e-4)
        assert seq.rho == pytest.approx(0.04 ** (1 / 3), rel=1e-12)
        assert seq.R == pytest.approx(0.6737, abs=1e-4)
        assert seq.R >= seq.rho
        assert 2**seq.N * r == pytest.approx(0.64)
        assert 2**seq.N * r >= 1 / (2 * math.sqrt(2))

    def test_checks_the_fields_of_a_single_sequence(self):
        omega = 1e-2
        seq = stack_cylinders(pt(-1 + omega**2, 0, 0), omega / 2, omega)
        assert all(check_stacking(seq).values())
        moved = replace(seq, predecessor=Cylinder(
            group_product(seq.predecessor.center, pt(0, 0, 0.5)),
            seq.predecessor.r))
        assert check_stacking(moved) == {**check_stacking(seq),
                                         "predecessor_inside": False}
        # Q[1] pushed out of (-1, 0] x B_2 x B_2
        first = seq.cylinders[0]
        pushed = replace(seq, cylinders=[
            Cylinder(group_product(first.center, pt(0, 3.0, 0)), first.r),
            *seq.cylinders[1:]])
        assert check_stacking(pushed) == {**check_stacking(seq),
                                          "union_in_envelope": False}

    def test_rejects_base_outside(self):
        with pytest.raises(ValueError):
            stack_cylinders(pt(-0.5, 0, 0), 1e-3, 1e-2)
        # a batch with one base outside Q_- is rejected as a whole
        bases = PhasePoint(np.array([-1 + 5e-5, -0.5]), np.zeros((2, 1)),
                           np.zeros((2, 1)))
        stack_cylinders(bases[:1], np.array([1e-3]), 1e-2)
        with pytest.raises(ValueError):
            stack_cylinders(bases, np.array([1e-3, 1e-3]), 1e-2)

    def test_rejects_large_omega(self):
        with pytest.raises(ValueError):
            stack_cylinders(pt(-1 + 1e-4, 0, 0), 1e-3, 0.5)

    @pytest.mark.parametrize("d", [1, 2])
    def test_randomized_conclusions(self, d):
        omega = 1e-2
        bases = stacking_bases(np.random.default_rng(0), 300, d, omega)
        results = check_stacking(stack_cylinders(bases.center, bases.r, omega))
        for key, ok in results.items():
            assert ok.all(), (key, bases[~ok])

    @pytest.mark.parametrize("d", [1, 2])
    def test_batch_matches_scalar_bitwise(self, d):
        omega = 1e-2
        bases = stacking_bases(np.random.default_rng(10 + d), 200, d, omega)
        seq = stack_cylinders(bases.center, bases.r, omega)
        results = check_stacking(seq)
        # both branches of the re-centering of Q[N+1]
        assert (seq.R >= seq.rho).any() and (seq.R < seq.rho).any()
        for i in range(len(bases.r)):
            one = stack_cylinders(bases.center[i], float(bases.r[i]), omega)
            n = one.N
            assert isinstance(n, int) and seq.N[i] == n
            assert np.array_equal(u64(seq.T[i, :n + 1], seq.R[i], seq.R_last[i]),
                                  u64(one.T, one.R, one.R_last))
            batch = ([seq.cylinders[i, k] for k in range(n)]
                     + [seq.last[i], seq.predecessor[i]])
            for a, b in zip(batch, one.cylinders + [one.predecessor],
                            strict=True):
                assert np.array_equal(u64(*a.center, a.r), u64(*b.center, b.r))
            assert check_stacking(one) == {key: bool(ok[i])
                                           for key, ok in results.items()}


class TestInclusionPredicates:
    def test_nested_cylinders(self):
        inner = Cylinder(pt(-0.1, 0, 0), 0.3)
        outer = Cylinder(origin(1), 1.0)
        assert cylinder_in_cylinder(inner, outer)
        assert not cylinder_in_cylinder(outer, inner)

    def test_slant_matters(self):
        # same radii, center velocity pushes the slant outside
        inner = Cylinder(pt(0, 0, 0.8), 0.55)
        outer = Cylinder(origin(1), 1.0)
        assert not cylinder_in_cylinder(inner, outer)


class TestPopParameters:
    def test_theta_half(self):
        p = pop_parameters(0.5)
        assert p.iota == pytest.approx(0.019824, abs=1e-6)
        assert p.eta == pytest.approx(0.46888, abs=1e-5)
        assert p.time_lap == pytest.approx(0.027482, abs=1e-6)

    def test_theta_one_branch(self):
        p = pop_parameters(1.0)
        assert p.iota == pytest.approx((9 / 8) ** (1 / 6) - 1, rel=1e-12)

    def test_eta_below_theta(self):
        for theta in np.linspace(0.05, 1.0, 30):
            p = pop_parameters(float(theta))
            assert 0 < p.eta < theta
            assert 0 < p.time_lap < p.eta**2

    def test_rejects_out_of_range(self):
        for theta in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                pop_parameters(theta)
