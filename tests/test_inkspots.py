import hashlib
import struct
from collections import Counter, OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinfp.inkspots as inkspots
from kinfp.fields import Grid
from kinfp.geometry import Cylinder, PhasePoint, cylinder_in_cylinder
from kinfp.inkspots import (
    DiscreteSet,
    _default_radii,
    _box_counts,
    _box_plan,
    _mark_stacks,
    find_dense_cylinders,
    generate_hypothesis_pair,
    mask_to_rle,
    rle_to_mask,
    standard_grid,
    unit_past_cylinder,
    verify_inkspots,
)
from kinfp.report import HypothesisError


def dense_counts(E, r, box=None):
    """(n_in_E, n_in_Q) per candidate center of the d = 1 scan at radius r,
    as arrays over a box of centers (``_box_plan``; the whole grid when
    None): the plan's counts of E's cells and of every cell."""
    plan = _box_plan(E.grid, r, box)
    return _box_counts(plan, E._summed_area), plan.n_q


def region_set(grid, mask):
    return DiscreteSet(grid, mask, unit_past_cylinder(1))


def keys(cylinders):
    """(t, x..., v..., r) of each cylinder, in list order."""
    return [(Q.center.t, *map(float, Q.center.x), *map(float, Q.center.v), Q.r)
            for Q in cylinders]


def report_digest(rep):
    """sha256 prefix of the bits of lhs, rhs, c_star and dense_count."""
    packed = struct.pack("<dddd", rep.lhs, rep.rhs, rep.params["c_star"],
                         rep.params["dense_count"])
    return hashlib.sha256(packed).hexdigest()[:16]


def dense_fixture():
    """(E, F, dense, stacks): E is one r = 0.2 cylinder in Q_-, dense its
    six dense cylinders at mu = 0.3 and radii 0.2, 0.1, and F the union of
    E and their stacked extensions (m = 3), whose masks are in stacks."""
    g = standard_grid((24, 24, 24), t_max=3 * 0.2**2)
    z0 = PhasePoint(float(g.t_nodes[10]), np.array([g.x_axis[0][12]]),
                    np.array([g.v_axis[0][12]]))
    E = region_set(g, Cylinder(z0, 0.2).contains(*g.open_coords)
                   & unit_past_cylinder(1).contains(*g.open_coords))
    dense = find_dense_cylinders(E, 0.3, radii=[0.2, 0.1])
    stacks = [Q.stacked(3).contains(*g.open_coords) for Q in dense]
    return E, region_set(g, np.logical_or.reduce([E.mask, *stacks])), dense, \
        stacks


def brute_force_scan(E, mu, radii):
    """Independent reference scan used by the equivalence property."""
    found = set()
    T, X, V = E.grid.coords
    for r in sorted(radii, reverse=True):
        for flat in range(T.size):
            idx = np.unravel_index(flat, E.grid.shape)
            z0 = PhasePoint(float(T[idx]), X[idx].copy(), V[idx].copy())
            Q = Cylinder(z0, float(r))
            if not cylinder_in_cylinder(Q, E.region):
                continue
            inside = Q.contains(T, X, V)
            n_q = int(np.count_nonzero(inside))
            n_e = int(np.count_nonzero(E.mask & inside))
            if n_q > 0 and n_e >= (1.0 - mu) * n_q:
                found.add((z0.t, *map(float, z0.x), *map(float, z0.v),
                           float(r)))
    return found


def brute_force_counts(E, r):
    """(cells of Q_r(z0) in E, cells of Q_r(z0)) for every center z0."""
    T, X, V = E.grid.coords
    n_e = np.zeros(E.grid.shape, dtype=np.int64)
    n_q = np.zeros(E.grid.shape, dtype=np.int64)
    for idx in np.ndindex(E.grid.shape):
        z0 = PhasePoint(float(T[idx]), X[idx].copy(), V[idx].copy())
        inside = Cylinder(z0, float(r)).contains(T, X, V)
        n_q[idx] = np.count_nonzero(inside)
        n_e[idx] = np.count_nonzero(E.mask & inside)
    return n_e, n_q


class TestFindDenseCylinders:
    def test_full_set_every_candidate_qualifies(self):
        g = standard_grid((16, 16, 16))
        T, X, V = g.coords
        E = region_set(g, unit_past_cylinder(1).contains(T, X, V))
        radii = [0.5, 0.25]
        dense = find_dense_cylinders(E, 0.3, radii)
        # reference: admissible centers with nonempty cell count
        expect = brute_force_scan(E, 0.3, radii)
        got = {(Q.center.t, float(Q.center.x[0]), float(Q.center.v[0]), Q.r)
               for Q in dense}
        assert got == expect and len(got) > 0

    def test_empty_set_no_candidates(self):
        g = standard_grid((16, 16, 16))
        E = region_set(g, np.zeros(g.shape, dtype=bool))
        assert find_dense_cylinders(E, 0.3, [0.5, 0.25]) == []

    def test_single_cylinder_found(self):
        g = standard_grid((24, 24, 24))
        T, X, V = g.coords
        z0 = PhasePoint(float(g.t_nodes[12]), np.array([g.x_axis[0][12]]),
                        np.array([g.v_axis[0][12]]))
        Q = Cylinder(z0, 0.25)
        E = region_set(g, Q.contains(T, X, V))
        dense = find_dense_cylinders(E, 0.3, [0.25])
        assert any(c.center.t == z0.t
                   and np.all(c.center.x == z0.x)
                   and np.all(c.center.v == z0.v) for c in dense)

    def test_rejects_bad_inputs(self):
        g = standard_grid((8, 8, 8))
        E = region_set(g, np.zeros(g.shape, dtype=bool))
        with pytest.raises(ValueError):
            find_dense_cylinders(E, 1.5, [0.5])
        with pytest.raises(ValueError):
            find_dense_cylinders(E, 0.5, [])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_brute_force_equivalence(self, seed):
        E, _ = generate_hypothesis_pair(seed, k=4, m=3, r0=0.4,
                                        n=(16, 16, 16))
        radii = [0.5, 0.25, 0.125]
        fast = {(Q.center.t, float(Q.center.x[0]), float(Q.center.v[0]), Q.r)
                for Q in find_dense_cylinders(E, 0.3, radii)}
        assert fast == brute_force_scan(E, 0.3, radii)

    def test_brute_force_equivalence_d2(self):
        # d >= 2 counts cells per admissible center
        g = standard_grid((6, 8, 8), d=2)
        T, X, V = g.coords
        region = unit_past_cylinder(2)
        rng = np.random.default_rng(0)
        mask = region.contains(T, X, V) & (rng.uniform(size=g.shape) < 0.8)
        E = DiscreteSet(g, mask, region)
        radii = [0.5, 0.375]
        fast = {(Q.center.t, *map(float, Q.center.x), *map(float, Q.center.v),
                 Q.r) for Q in find_dense_cylinders(E, 0.3, radii)}
        assert fast == brute_force_scan(E, 0.3, radii) and len(fast) > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_brute_force_equivalence_uneven_radii(self, seed):
        # fl(1/r) is inexact for these radii; at r = 0.75 grid offsets land
        # exactly on the face |x - x0 - s v0| = r^3, where the normalised
        # comparison rounds, so the fast scan must count each center's
        # cells exactly as Cylinder.contains does
        E, _ = generate_hypothesis_pair(seed, k=4, m=3, r0=0.4,
                                        n=(16, 16, 16))
        radii = [0.75, 0.375, 0.1875]
        fast = {(Q.center.t, float(Q.center.x[0]), float(Q.center.v[0]), Q.r)
                for Q in find_dense_cylinders(E, 0.3, radii)}
        assert fast == brute_force_scan(E, 0.3, radii)
        for r in radii:
            n_e, n_q = dense_counts(E, r)
            ref_e, ref_q = brute_force_counts(E, r)
            assert np.array_equal(n_q, ref_q) and np.array_equal(n_e, ref_e)

    @pytest.mark.parametrize("r", [1.0, 0.75, 0.5, 0.3])
    def test_counts_dense_random_mask_non_cubic(self, r):
        # windows reach every grid edge, so the x and v intervals are clipped
        g = standard_grid((20, 12, 10))
        rng = np.random.default_rng(7)
        E = region_set(g, rng.uniform(size=g.shape) < 0.7)
        n_e, n_q = dense_counts(E, r)
        ref_e, ref_q = brute_force_counts(E, r)
        assert np.array_equal(n_q, ref_q) and np.array_equal(n_e, ref_e)


class TestBoxedCounts:
    """``dense_counts`` over a box of centers equals the same box of
    the whole-grid counts, and ``DiscreteSet._counts`` counts exactly the
    bounding box of its admissible centers."""

    @pytest.mark.parametrize("n", [(24, 24, 24), (72, 24, 24)])
    def test_admissible_counts_equal_whole_grid_counts(self, n):
        # the grids of the covering check; every default radius and the
        # uneven radii whose fl(1/r) is inexact
        E, F = generate_hypothesis_pair(1, k=3, m=3, r0=0.3, n=n)
        radii = _default_radii(E.grid) + [0.75, 0.375, 0.1875]
        for S in (E, F):
            for r in radii:
                n_e, n_q = dense_counts(S, r)
                where, box_e, box_q = S._counts(r)
                assert box_e.dtype == box_q.dtype == np.int32
                assert np.array_equal(box_e, n_e.ravel()[where])
                assert np.array_equal(box_q, n_q.ravel()[where])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_any_box_equals_the_whole_grid_box(self, data):
        n = tuple(data.draw(st.integers(2, 10)) for _ in range(3))
        g = standard_grid(n, t_max=data.draw(st.sampled_from([0.0, 0.3])))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        E = region_set(g, rng.uniform(size=g.shape) < 0.6)
        r = data.draw(st.one_of(
            st.sampled_from([1.0, 0.75, 0.5, 0.375, 0.25, 0.1875]),
            st.floats(0.05, 1.5)))
        box = tuple(tuple(sorted(data.draw(st.lists(
            st.integers(0, size), min_size=2, max_size=2, unique=True))))
            for size in g.shape)
        window = tuple(slice(*b) for b in box)
        for whole, boxed in zip(dense_counts(E, r),
                                dense_counts(E, r, box)):
            assert np.array_equal(boxed, whole[window])

    def test_counts_take_the_bounding_box_of_admissible_centers(
            self, monkeypatch):
        E0, _ = generate_hypothesis_pair(1, k=3, m=3, r0=0.3, n=(72, 24, 24))
        boxes = []

        def spy(grid, r, box=None):
            boxes.append(box)
            return plan(grid, r, box)

        plan = inkspots._box_plan
        monkeypatch.setattr(inkspots, "_box_plan", spy)
        monkeypatch.setattr(inkspots, "_PLANS", OrderedDict())  # no plans yet
        E = DiscreteSet(E0.grid, E0.mask, E0.region)  # no counts kept yet
        whole = tuple((0, size) for size in E.grid.shape)
        for r in (0.5, 0.25):
            boxes.clear()
            where, _, _ = E._counts(r)
            idx = np.unravel_index(where, E.grid.shape)
            bounds = tuple((int(i.min()), int(i.max()) + 1) for i in idx)
            assert boxes == [bounds] and bounds != whole


@pytest.fixture
def plan_builds(monkeypatch):
    """An empty plan cache, and the (grid, region, r) of each scan plan
    built from then on."""
    monkeypatch.setattr(inkspots, "_PLANS", OrderedDict())
    builds = []
    build = inkspots._build_scan_plan

    def spy(grid, region, r):
        builds.append((grid, region, r))
        return build(grid, region, r)

    monkeypatch.setattr(inkspots, "_build_scan_plan", spy)
    return builds


class TestScanPlans:
    """The scan plan of a grid, region and radius is built once and shared
    by every set on them."""

    def test_one_plan_per_key_shared_by_equal_grids(self, plan_builds):
        g1, g2 = (standard_grid((16, 16, 16), t_max=0.1) for _ in range(2))
        assert g1 is not g2 and g1 == g2
        rng = np.random.default_rng(0)
        sets = [region_set(g, rng.uniform(size=g.shape) < 0.7)
                for g in (g1, g2, g1)]
        for E in sets:
            assert find_dense_cylinders(E, 0.3, [0.5, 0.25])
        assert [r for _, _, r in plan_builds] == [0.5, 0.25]
        a, b, c = (E._counts(0.5) for E in sets)
        assert a[0] is b[0] is c[0] and a[2] is b[2] is c[2]
        assert sets[0].region_mask is sets[1].region_mask

    def test_grid_region_and_radius_each_key_a_plan(self, plan_builds):
        n = (12, 12, 12)
        g, g_later = standard_grid(n), standard_grid(n, t_max=0.1)
        assert g.domain.t_max != g_later.domain.t_max
        assert (g.n_t, g.n_x, g.n_v) == (g_later.n_t, g_later.n_x, g_later.n_v)
        region = unit_past_cylinder(1)
        earlier = Cylinder(PhasePoint(-0.05, np.zeros(1), np.zeros(1)), 1.0)
        keys = [(g, region, 0.5), (g_later, region, 0.5), (g, earlier, 0.5),
                (g, region, 0.25)]
        for _ in range(2):
            for grid, Q, r in keys:
                E = DiscreteSet(grid, np.ones(grid.shape, dtype=bool), Q)
                E._counts(r)
        assert [(grid is g, Q is region, r) for grid, Q, r in plan_builds] \
            == [(grid is g, Q is region, r) for grid, Q, r in keys]
        masks = [inkspots._region_mask(grid, Q) for grid, Q, _ in keys[:3]]
        assert not np.array_equal(masks[0], masks[1])
        assert not np.array_equal(masks[0], masks[2])

    @pytest.mark.parametrize("n, d", [((12, 12, 12), 1), ((4, 6, 6), 2)])
    def test_plan_arrays_reject_writes(self, n, d):
        g = standard_grid(n, d=d)
        region = unit_past_cylinder(d)
        plan = inkspots._scan_plan(g, region, 0.5)
        arrays = [inkspots._region_mask(g, region), plan.where]
        if d == 1:
            assert plan.boxed.passes
            arrays += [*plan.at, plan.n_q, plan.boxed.n_q,
                       *(corners for _, corners in plan.boxed.passes)]
        else:
            assert plan.boxed is plan.at is plan.n_q is None
        assert plan.where.size
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = a[(0,) * a.ndim]

    def test_cache_keeps_at_most_its_bound(self, plan_builds):
        g = standard_grid((8, 8, 8))
        E = region_set(g, np.ones(g.shape, dtype=bool))
        radii = [1.0 / (1 + i) for i in range(inkspots._MAX_PLANS + 3)]
        for r in radii:
            E._counts(r)
            assert len(inkspots._PLANS) <= inkspots._MAX_PLANS
        assert len(plan_builds) == len(radii)
        E._counts(radii[-1])  # the latest plans are kept
        E._counts(radii[0])  # the first one went
        assert len(plan_builds) == len(radii) + 1

    def test_second_covering_op_makes_no_admissibility_call(
            self, plan_builds, monkeypatch):
        sizes = []

        def spy(Qin, Qout, tol=0.0):
            sizes.append(np.size(Qin.center.t))
            return cylinder_in_cylinder(Qin, Qout, tol)

        monkeypatch.setattr(inkspots, "cylinder_in_cylinder", spy)

        def op(seed):
            E, F = generate_hypothesis_pair(seed, k=3, m=3, r0=0.3)
            assert E.mask.any()
            verify_inkspots(E, F, 0.3, 3, 0.3, 0.05, 1.0)
            return E.grid

        grid = op(1)
        assert sizes.count(grid.n_t * grid.n_x * grid.n_v) == len(plan_builds) > 0
        sizes.clear()
        builds = len(plan_builds)
        op(2)
        assert sizes == [50 * 3] and len(plan_builds) == builds

    @pytest.mark.parametrize("n, d, radii", [
        ((16, 16, 16), 1, [0.5, 0.25, 0.125]),
        ((4, 6, 6), 2, [0.5, 0.375]),
    ])
    def test_cached_plans_match_brute_force(self, plan_builds, n, d, radii):
        region = unit_past_cylinder(d)
        rng = np.random.default_rng(1)
        first = standard_grid(n, d=d)
        find_dense_cylinders(
            DiscreteSet(first, rng.uniform(size=first.shape) < 0.8, region),
            0.3, radii)
        built = len(plan_builds)
        g = standard_grid(n, d=d)  # an equal grid: its plans are cached
        E = DiscreteSet(g, region.contains(*g.open_coords)
                        & (rng.uniform(size=g.shape) < 0.8), region)
        dense = find_dense_cylinders(E, 0.3, radii)
        assert len(plan_builds) == built == len(radii)
        assert set(keys(dense)) == brute_force_scan(E, 0.3, radii)
        assert dense


class TestDiscreteSet:
    def test_caller_writes_do_not_reach_the_set(self):
        E0, _ = generate_hypothesis_pair(0, k=4, m=3, r0=0.4, n=(16, 16, 16))
        mask = E0.mask.copy()
        E = DiscreteSet(E0.grid, mask, E0.region)
        mask[...] = True
        assert np.array_equal(E.mask, E0.mask)
        radii = [0.5, 0.25, 0.125]
        assert (keys(find_dense_cylinders(E, 0.3, radii))
                == keys(find_dense_cylinders(E0, 0.3, radii)) != [])

    def test_mask_is_read_only(self):
        E, _ = generate_hypothesis_pair(0, k=2, m=3, r0=0.3)
        with pytest.raises(ValueError):
            E.mask[0, 0, 0] = True

    @pytest.mark.parametrize("n, d, radii", [
        ((16, 16, 16), 1, [0.5, 0.25, 0.125]),
        ((6, 8, 8), 2, [0.5, 0.375]),
    ])
    def test_second_threshold_reuses_counts(self, n, d, radii):
        # the counts of each radius are kept on the set; a scan at another
        # mu must still equal a fresh set's scan
        g = standard_grid(n, d=d)
        region = unit_past_cylinder(d)
        rng = np.random.default_rng(0)
        mask = (region.contains(*g.open_coords)
                & (rng.uniform(size=g.shape) < 0.8))
        E = DiscreteSet(g, mask, region)
        wide = find_dense_cylinders(E, 0.999, radii)
        dense = find_dense_cylinders(E, 0.3, radii)
        assert sorted(E._scans) == sorted(radii)
        assert 0 < len(dense) < len(wide)
        assert keys(dense) == keys(find_dense_cylinders(
            DiscreteSet(g, mask, region), 0.3, radii))

class TestMarkStacks:
    def dense_list(self):
        # many dense cylinders of two radii, stacks reaching past the grid
        g = standard_grid((20, 12, 10), t_max=0.3)
        rng = np.random.default_rng(7)
        E = region_set(g, rng.uniform(size=g.shape) < 0.7)
        dense = find_dense_cylinders(E, 0.3, [0.5, 0.3])
        single = np.zeros(g.shape, dtype=bool)
        for Q in dense:
            win, bar = g.window(Q.stacked(3))
            single[win] |= bar
        return g, dense, single

    def test_equals_union_of_single_windows(self):
        g, dense, single = self.dense_list()
        assert len({Q.r for Q in dense}) == 2
        batched = np.zeros(g.shape, dtype=bool)
        _mark_stacks(batched, g, dense, 3)
        assert np.array_equal(batched, single) and single.any()

    def test_batches_hold_one_radius_and_at_most_the_bound(self, monkeypatch):
        # a small bound splits both radii into several batches, the last
        # of each radius partial; the union must not change
        g, dense, single = self.dense_list()
        bound = 7
        per_radius = Counter(Q.r for Q in dense)
        assert min(per_radius.values()) > bound
        assert any(n % bound for n in per_radius.values())
        monkeypatch.setattr("kinfp.inkspots._MARK_BATCH", bound)
        seen = []

        window = Grid.window

        def recording(grid, Q):
            seen.append((set(np.ravel(Q.base.r).tolist()), np.size(Q.base.r)))
            return window(grid, Q)

        monkeypatch.setattr(Grid, "window", recording)
        batched = np.zeros(g.shape, dtype=bool)
        _mark_stacks(batched, g, dense, 3)
        assert np.array_equal(batched, single)
        assert all(len(radii) == 1 and size <= bound for radii, size in seen)
        assert len(seen) == sum(-(-n // bound) for n in per_radius.values())


class TestVerifyInkspots:
    def test_missing_stacked_extension_names_first_offender(self):
        E, _, dense, stacks = dense_fixture()
        # F lacks the cells only the third stack holds
        others = np.logical_or.reduce([E.mask, *stacks[:2], *stacks[3:]])
        assert np.any(stacks[2] & ~others)
        with pytest.raises(HypothesisError) as err:
            verify_inkspots(E, region_set(E.grid, others), 0.3, 3, 0.3, 0.05,
                            1.0, radii=[0.2, 0.1])
        assert str(err.value) == (
            "stacked extension of the dense cylinder at (t=-0.4867, "
            "x=[0.08333333], v=[0.125]) leaves F")

    def test_large_dense_cylinder_names_first_offender(self):
        E, F, _, _ = dense_fixture()
        with pytest.raises(HypothesisError) as err:
            verify_inkspots(E, F, 0.3, 3, 0.15, 0.05, 1.0, radii=[0.2, 0.1])
        assert str(err.value) == (
            "dense cylinder of radius 0.2 >= r0 = 0.15 at (t=-0.4867, "
            "x=[0.08333333], v=[-0.04166667])")

    def test_empty_pair_passes(self):
        E, F = generate_hypothesis_pair(0, k=0, m=3, r0=0.3)
        rep = verify_inkspots(E, F, 0.3, 3, 0.3, 0.1, 1.0)
        assert rep.passed and rep.lhs == 0.0

    def test_single_cylinder_with_stacked_extension(self):
        g = standard_grid((24, 24, 24), t_max=3 * 0.2**2)
        T, X, V = g.coords
        z0 = PhasePoint(float(g.t_nodes[10]), np.array([g.x_axis[0][12]]),
                        np.array([g.v_axis[0][12]]))
        Q = Cylinder(z0, 0.2)
        e_mask = Q.contains(T, X, V) & unit_past_cylinder(1).contains(T, X, V)
        E = region_set(g, e_mask)
        # F must absorb the stacked extension of every dense cylinder the
        # scan can find near E, not only the one used to build E
        f_mask = e_mask.copy()
        for dense in find_dense_cylinders(E, 0.3, radii=[0.2, 0.1]):
            f_mask |= dense.stacked(3).contains(T, X, V)
        F = region_set(g, f_mask)
        rep = verify_inkspots(E, F, 0.3, 3, 0.3, 0.05, 1.0,
                              radii=[0.2, 0.1])
        assert rep.passed
        assert rep.params["c_star"] is not None and rep.params["c_star"] > 0.05
        additive = 1.0 * 3 * 0.3**2
        assert rep.params["additive_share"] == pytest.approx(
            additive / (F.measure + additive))

    def test_hypothesis_e_subset(self):
        g = standard_grid((12, 12, 12))
        full = np.ones(g.shape, dtype=bool)
        E = region_set(g, full)  # E sticks out of F
        F = region_set(g, np.zeros(g.shape, dtype=bool))
        with pytest.raises(HypothesisError):
            verify_inkspots(E, F, 0.3, 3, 0.3, 0.1, 1.0)

    def test_hypothesis_large_dense_cylinder(self):
        g = standard_grid((16, 16, 16))
        T, X, V = g.coords
        inside = unit_past_cylinder(1).contains(T, X, V)
        E = region_set(g, inside)
        F = region_set(g, np.ones(g.shape, dtype=bool))
        with pytest.raises(HypothesisError):
            verify_inkspots(E, F, 0.3, 3, r0=0.1, c=0.1, C=1.0,
                            radii=[0.5, 0.25])

    # sha256 prefixes of the report bits (report_digest), recorded before
    # the scan kept its counts per set and radius
    @pytest.mark.parametrize("n, digests", [
        ((24, 24, 24),
         ["8fff5ff5747badc9", "ea2d571fbcd75de5", "16d77d7f2e00483a",
          "8fff5ff5747badc9", "2a5dfa5eff700a2d"]),
        ((72, 24, 24),
         ["13e5f2fe9e65eed7", "701c93b7644dd23b", "91d9b2efabb15011",
          "8a924feacd76f244", "316b838bbc5e4b07"]),
    ])
    def test_reports_match_recorded_digests(self, n, digests):
        got = []
        for seed in range(5):
            E, F = generate_hypothesis_pair(seed, k=3, m=3, r0=0.3, n=n)
            got.append(report_digest(
                verify_inkspots(E, F, 0.3, 3, 0.3, 0.05, 1.0)))
        assert got == digests

    def test_dense_report_matches_recorded_digest(self):
        E, F, dense, _ = dense_fixture()
        rep = verify_inkspots(E, F, 0.3, 3, 0.3, 0.05, 1.0,
                              radii=[0.2, 0.1])
        assert rep.params["dense_count"] == len(dense) == 6
        assert report_digest(rep) == "e3de91958a51c97d"

    def test_f_on_its_own_equal_grid_at_d2(self):
        E, F = generate_hypothesis_pair(0, k=2, m=3, r0=0.3, n=(6, 8, 8), d=2)
        grid = standard_grid((6, 8, 8), 2, t_max=3 * 0.15**2)
        assert grid is not E.grid and grid == E.grid
        own = DiscreteSet(grid, F.mask, F.region)
        args = (0.3, 3, 0.3, 0.05, 1.0)
        assert (report_digest(verify_inkspots(E, own, *args))
                == report_digest(verify_inkspots(E, F, *args)))

    def test_mu_monotone_rhs(self):
        E, F = generate_hypothesis_pair(5, k=4, m=3, r0=0.3)
        rhs = [verify_inkspots(E, F, mu, 3, 0.3, 0.1, 1.0).rhs
               for mu in (0.1, 0.3, 0.5)]
        assert rhs[0] >= rhs[1] >= rhs[2]

    def test_r0_leakage_vanishes(self):
        E, F = generate_hypothesis_pair(4, k=3, m=3, r0=0.3)
        f_measure = F.restricted().measure
        assert f_measure > 0.0
        m, c, mu = 3, 0.1, 0.3
        rhs_small = verify_inkspots(E, F, mu, m, 1e-6, c, 1.0,
                                    radii=[0.5]).rhs
        limit = (m + 1) / m * (1 - c * mu) * f_measure
        assert rhs_small == pytest.approx(limit, rel=1e-6)


class TestGenerator:
    def test_deterministic(self):
        a = generate_hypothesis_pair(42, k=4, m=3, r0=0.3)
        b = generate_hypothesis_pair(42, k=4, m=3, r0=0.3)
        assert np.array_equal(a[0].mask, b[0].mask)
        assert np.array_equal(a[1].mask, b[1].mask)

    def test_empty_for_k_zero(self):
        E, F = generate_hypothesis_pair(0, k=0, m=3, r0=0.3)
        assert not E.mask.any()

    def test_containment_invariant(self):
        for seed in range(5):
            E, F = generate_hypothesis_pair(seed, k=5, m=3, r0=0.3)
            assert not np.any(E.mask & ~(F.mask & E.region_mask))

    def test_region_mask_computed_once(self):
        E, _ = generate_hypothesis_pair(0, k=2, m=3, r0=0.3)
        assert E.region_mask is E.region_mask
        T, X, V = E.grid.coords
        assert np.array_equal(E.region_mask, E.region.contains(T, X, V))

    # sha256 prefixes of packbits(E) + packbits(F) at seeds 0-4, recorded
    # before the candidate draws and the placement test were batched
    @pytest.mark.parametrize("n, d, k, r0, digests", [
        ((16, 24, 24), 1, 4, 0.3,
         ["cfc335996cfae29f", "453c014b95ca6714", "4369bccd13c1d6ef",
          "b7ddc8a960d455df", "c2263e912980bd02"]),
        ((24, 24, 24), 1, 3, 0.3,
         ["0ee0c7ac0933cd2c", "8b73d62b7d8ab59f", "372b461dbe818932",
          "0ee0c7ac0933cd2c", "bb107dfcb5424b65"]),
        ((72, 24, 24), 1, 3, 0.3,
         ["3699e531aa7bc321", "ea299b4742c4101f", "8d177f3088663456",
          "95640133156619b7", "ff40b2dd17df4d35"]),
        ((6, 8, 6), 2, 3, 0.3, ["0ee0c7ac0933cd2c"] * 5),  # nothing placed
        ((6, 12, 8), 2, 3, 0.9,
         ["bcfdd6a23e9dd8bb", "9d89b922ed6c1dcc", "e4c530d91da8a88b",
          "b3615b90a78d33d5", "dab915069c4d3f4c"]),
    ])
    def test_masks_match_recorded_digests(self, n, d, k, r0, digests):
        got = []
        for seed in range(5):
            E, F = generate_hypothesis_pair(seed, k=k, m=3, r0=r0, n=n, d=d)
            packed = np.packbits(E.mask).tobytes() + np.packbits(F.mask).tobytes()
            got.append(hashlib.sha256(packed).hexdigest()[:16])
        assert got == digests

    def test_rejects_bad_r0(self):
        with pytest.raises(ValueError):
            generate_hypothesis_pair(0, k=1, m=3, r0=1.5)

    def test_generate_and_verify_keep_no_full_coords(self):
        E, F = generate_hypothesis_pair(4, k=4, m=3, r0=0.3)
        assert E.mask.any()
        verify_inkspots(E, F, 0.3, 3, 0.3, 0.05, 1.0)
        assert "coords" not in E.grid.__dict__
        # with a dense cylinder, verify_inkspots builds its stacked mask
        E, F, _, _ = dense_fixture()
        rep = verify_inkspots(E, F, 0.3, 3, 0.3, 0.05, 1.0, radii=[0.2, 0.1])
        assert rep.params["dense_count"] > 0
        assert "coords" not in E.grid.__dict__


class TestRle:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        mask = rng.uniform(size=(6, 7, 8)) < 0.4
        assert np.array_equal(rle_to_mask(mask_to_rle(mask)), mask)

    def test_all_false_and_all_true(self):
        for mask in (np.zeros((3, 3, 3), bool), np.ones((2, 5, 4), bool)):
            assert np.array_equal(rle_to_mask(mask_to_rle(mask)), mask)

    def test_rejects_corrupt_input(self):
        with pytest.raises(ValueError):
            rle_to_mask("not a header\n1 2 3\n")
        with pytest.raises(ValueError):
            rle_to_mask("shape 2 2\n1 1\n")

    @pytest.mark.parametrize("mask, text", [
        (np.array([[True, True, False], [False, True, True]]),
         "shape 2 3\n0 2 2 2\n"),
        (np.zeros((2, 3), bool), "shape 2 3\n6\n"),
        (np.ones((2, 2), bool), "shape 2 2\n0 4\n"),
        (np.ones((1, 1, 1), bool), "shape 1 1 1\n0 1\n"),
        (np.zeros((1, 1, 1), bool), "shape 1 1 1\n1\n"),
    ])
    def test_golden_text(self, mask, text):
        assert mask_to_rle(mask) == text
        assert np.array_equal(rle_to_mask(text), mask)

    @pytest.mark.parametrize("text", [
        "shape 2 2\n2 -1 3\n",                   # negative run
        "shape 2 2\n-1 5\n",
        "shape 2 2\n3 2\n",                      # runs overflow the shape
        "shape 2 2\n1" + "0" * 30 + "\n",        # beyond any fixed width
        "shape 2 3\n2 2\n",                      # runs stop short
        "shape 2 3\n",
    ])
    def test_rejects_bad_run_lists(self, text):
        with pytest.raises(ValueError, match="run lengths"):
            rle_to_mask(text)
