"""IDM math, equilibrium, failsafe, noise, and the integrator."""
import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from comal import dynamics as dyn
from comal import kernels
from comal import network as net
from comal import scenario as sc
from comal.agent import perceive

from helpers import (PROPERTY_NETWORKS, assert_index_matches_reference, perception_worlds,
                     reference_links, signed_dist_to, uniform_ring_world)

P = dyn.IdmParams(v0=30.0, T=1.0, a_max=1.0, b=1.5, delta=4.0, s0=2.0)


class TestIdmParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dyn.IdmParams(v0=0.0, T=1.0, a_max=1.0, b=1.5, delta=4.0, s0=2.0)
        with pytest.raises(ValueError):
            dyn.IdmParams(v0=30.0, T=1.0, a_max=1.0, b=1.5, delta=0.5, s0=2.0)


class TestDesiredGap:
    def test_at_rest_is_minimum_spacing(self):
        assert dyn.desired_gap(P, 0.0, 0.0) == 2.0

    def test_zero_closing_rate_adds_time_headway(self):
        assert dyn.desired_gap(P, 5.0, 0.0) == pytest.approx(7.0)

    def test_opening_gap_clamps_to_minimum(self):
        # hand arithmetic: 10*1 + 10*(-6)/(2*sqrt(1.5)) = 10 - 24.4949.. < 0
        p = dyn.IdmParams(v0=30.0, T=1.0, a_max=1.0, b=1.5, delta=4.0, s0=2.0)
        assert dyn.desired_gap(p, 10.0, -6.0) == pytest.approx(2.0, abs=1e-12)


class TestIdmAccel:
    def test_standstill_at_minimum_spacing_balances(self):
        assert dyn.idm_accel(P, 0.0, 0.0, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_reference_point_against_frozen_oracle(self):
        # independent arbitrary-precision evaluation (see test_acceptance for
        # the full sweep): 1*(1 - (5/30)^4 - (7/10)^2)
        assert dyn.idm_accel(P, 5.0, 0.0, 10.0) == pytest.approx(
            0.5092283950617284, abs=1e-12)

    def test_free_road_limit_approaches_zero_from_below(self):
        a1 = dyn.idm_accel(P, 30.0, 0.0, 1e6)
        a2 = dyn.idm_accel(P, 30.0, 0.0, 1e9)
        assert a1 < a2 < 0.0

    def test_collision_state_is_an_error(self):
        with pytest.raises(dyn.CollisionError):
            dyn.idm_accel(P, 5.0, 0.0, 0.0)
        with pytest.raises(dyn.CollisionError):
            dyn.idm_accel(P, 5.0, 0.0, -1.0)

    @settings(max_examples=60, deadline=None)
    @given(v=st.floats(0.0, 30.0), dv=st.floats(-5.0, 5.0), s=st.floats(1.0, 500.0))
    def test_never_exceeds_max_acceleration(self, v, dv, s):
        assert dyn.idm_accel(P, v, dv, s) <= P.a_max

    @settings(max_examples=40, deadline=None)
    @given(v=st.floats(0.0, 29.0), dv=st.floats(-3.0, 3.0), s=st.floats(2.0, 400.0))
    def test_monotone_in_speed_and_gap(self, v, dv, s):
        # macroscopic increments: near v=0 with an opening gap the analytic
        # change can fall below float resolution, so tiny eps would compare
        # two identically-rounded values
        eps = 0.5
        assert dyn.idm_accel(P, v + eps, dv, s) < dyn.idm_accel(P, v, dv, s)
        assert dyn.idm_accel(P, v, dv, s + eps) > dyn.idm_accel(P, v, dv, s)


class TestEquilibriumSpeed:
    def test_huge_gap_approaches_desired_speed(self):
        assert dyn.equilibrium_speed(P, 1e9) == pytest.approx(30.0, abs=1e-3)

    def test_tight_gap_approaches_zero(self):
        assert dyn.equilibrium_speed(P, 2.0 + 1e-9) == pytest.approx(0.0, abs=1e-3)

    def test_rejects_gap_at_or_below_minimum_spacing(self):
        with pytest.raises(ValueError):
            dyn.equilibrium_speed(P, 2.0)

    def test_bisection_matches_grid_scan_oracle(self):
        # brute-force sign scan over a 1e-4 speed grid brackets exactly one
        # sign change and agrees with bisection to 1e-6
        gap = 230.0 / 22.0 - 5.0
        v = dyn.equilibrium_speed(P, gap)
        grid = np.arange(0.0, P.v0, 1e-4)
        acc = kernels.idm_acceleration(
            grid, np.zeros_like(grid), np.full_like(grid, gap),
            *[np.full_like(grid, getattr(P, k)) for k in ("v0", "T", "a_max", "b", "delta", "s0")])
        signs = np.sign(acc)
        changes = np.flatnonzero(np.diff(signs) != 0)
        assert len(changes) == 1
        bracket_lo = grid[changes[0]]
        assert abs(v - bracket_lo) < 1e-4 + 1e-6
        assert abs(dyn.idm_accel(P, v, 0.0, gap)) < 1e-10


class TestFailsafe:
    def test_huge_gap_keeps_speed(self):
        assert dyn.failsafe_speed(10.0, 1e9, 0.0, 0.1, 4.5) == 10.0

    def test_no_room_behind_stopped_leader(self):
        assert dyn.failsafe_speed(10.0, 0.0, 0.0, 0.1, 4.5) == pytest.approx(0.0)

    def test_equal_stopping_distances_not_binding(self):
        assert dyn.failsafe_speed(10.0, 2.0, 10.0, 0.1, 4.5) == 10.0

    def test_never_negative(self):
        assert dyn.failsafe_speed(5.0, 0.0, 0.0, 0.1, 4.5) == 0.0


class TestNoiseModel:
    def test_same_seed_same_sequence(self):
        a = dyn.NoiseModel(0.2, np.random.SeedSequence(42))
        b = dyn.NoiseModel(0.2, np.random.SeedSequence(42))
        assert [a.sample(0.1) for _ in range(10)] == [b.sample(0.1) for _ in range(10)]

    def test_zero_std_is_silent(self):
        nm = dyn.NoiseModel(0.0, np.random.SeedSequence(1))
        assert [nm.sample(0.1) for _ in range(3)] == [0.0, 0.0, 0.0]

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            dyn.NoiseModel(-0.1, np.random.SeedSequence(1))


class TestKernels:
    def test_safe_speed_matches_scalar_reference(self):
        rng = np.random.default_rng(0)
        n = 256
        v = rng.uniform(0, 30, n)
        dv = rng.uniform(-5, 5, n)
        gap = rng.uniform(0.5, 200, n)
        gap[::17] = np.inf
        capped = np.minimum(v, np.maximum(kernels.safe_speed(gap, v - dv, 0.1, 4.5), 0.0))
        for i in range(n):
            assert capped[i] == dyn.failsafe_speed(v[i], gap[i], v[i] - dv[i], 0.1, 4.5)

    def test_kernel_matches_scalar_reference(self):
        rng = np.random.default_rng(1)
        n = 64
        v = rng.uniform(0, 30, n)
        dv = rng.uniform(-5, 5, n)
        gap = rng.uniform(0.5, 200, n)
        gap[::17] = np.inf
        pars = [np.full(n, x) for x in (30.0, 1.0, 1.0, 1.5, 4.0, 2.0)]
        a = kernels.idm_acceleration(v, dv, gap, *pars)
        for i in range(n):
            assert a[i] == pytest.approx(dyn.idm_accel(P, v[i], dv[i], gap[i]), rel=1e-12)


class TestStep:
    def test_uniform_ring_is_a_fixed_point(self):
        w = uniform_ring_world()
        v0 = w.speed.copy()
        arcs0 = w.arc.copy()
        dyn.step(w, 0.1)
        np.testing.assert_array_equal(w.speed, w.speed[0])
        # all speeds identical and positions advanced by v'*dt
        np.testing.assert_allclose(
            (w.arc - arcs0) % 230.0, w.speed[0] * 0.1, rtol=0, atol=1e-9)
        assert abs(w.speed[0] - v0[0]) < 1e-11

    def test_uniform_stays_exactly_uniform_for_1000_steps(self):
        w = uniform_ring_world()
        for _ in range(1000):
            dyn.step(w, 0.1)
        assert w.speed.max() - w.speed.min() == 0.0

    def test_free_flow_start_accelerates_at_a_max(self):
        w = uniform_ring_world(n=1, length=10000.0)
        w.speed[:] = 0.0
        w.set_links(w.lead_idx, np.array([10000.0 - 5.0]))
        dyn.step(w, 0.1)
        assert w.speed[0] == pytest.approx(1.0 * 0.1)

    def test_seeded_replay_is_bit_identical(self):
        def trajectory():
            w = uniform_ring_world(noise_std=0.2, seed=7)
            out = []
            for _ in range(100):
                dyn.step(w, 0.1)
                out.append((w.speed.copy(), w.arc.copy()))
            return out

        t1, t2 = trajectory(), trajectory()
        for (v1, a1), (v2, a2) in zip(t1, t2):
            np.testing.assert_array_equal(v1, v2)
            np.testing.assert_array_equal(a1, a2)

    def test_noisy_ring_safety_invariants(self):
        w = uniform_ring_world(noise_std=0.2, seed=3)
        for _ in range(1500):
            dyn.step(w, 0.1)
            assert (w.speed >= 0.0).all()
            assert (w.gap > 0.0).all()

    def test_rejects_nonpositive_dt(self):
        w = uniform_ring_world(n=2)
        with pytest.raises(ValueError):
            dyn.step(w, 0.0)

    def test_collision_aborts_with_diagnostics(self):
        # overlapping vehicles violate the no-overlap precondition and must
        # abort with a diagnostic rather than being silently repaired
        import comal.network as net
        network = net.build_ring(100.0, 30.0)
        w = dyn.World(network, seed=0)
        params = dyn.human_params(30.0)
        for vid, arc in (("a", 0.0), ("b", 4.0)):
            w.add_vehicle(dyn.VehicleState(
                id=vid, route_id="loop", position=network.arc_to_lane("loop", arc),
                speed=1.0, length=5.0, kind="human", active_params=params), 0.0)
        w.rebuild_links()
        with pytest.raises(dyn.CollisionError) as exc:
            dyn.step(w, 0.1)
        assert exc.value.gap <= 0.0
        assert exc.value.ego_id == "a"
        assert exc.value.leader_id == "b"

    @pytest.mark.parametrize("bad_gap", [0.0, -0.0, -3.0])
    def test_links_installed_between_steps_are_checked_before_moving(self, bad_gap):
        # the first step clears the gap check; set_links must arm it again
        w = uniform_ring_world(n=5, length=100.0)
        dyn.step(w, 0.1)
        gaps = w.gap.copy()
        gaps[2] = bad_gap
        w.set_links(w.lead_idx.copy(), gaps)
        arc, speed = w.arc.copy(), w.speed.copy()
        with pytest.raises(dyn.CollisionError) as exc:
            dyn.step(w, 0.1)
        assert exc.value.ego_id == w.ids[2] and exc.value.gap == bad_gap
        np.testing.assert_array_equal(w.arc, arc)
        np.testing.assert_array_equal(w.speed, speed)

    def test_params_swap_takes_effect_next_step(self):
        w = uniform_ring_world(n=3, length=300.0)
        vid = w.ids[0]
        new = dyn.IdmParams(v0=5.0, T=1.0, a_max=2.0, b=1.5, delta=4.0, s0=1.0)
        w.set_params(vid, new)
        assert w.params_of(vid) == new
        dyn.step(w, 0.1)  # no error; the array view was updated atomically
        assert w.params_of(vid) == new


def front_distances(w) -> dict:
    """(conflict point, vehicle id) -> front's signed distance to each arc."""
    return {(cp.id, w.ids[i]): [signed_dist_to(w, i, *key) for key in cp.points]
            for cp in w.network.conflict_points for i in range(w.size)}


def step_checking_crossings(w) -> int:
    """Step once; every front crossing a conflict arc must hold that point.

    A crossing is a signed distance going from > 0 to <= 0 on one of the
    point's arcs. The crosser must be the point's holder before or after the
    step. Returns the number of crossings seen.
    """
    before = front_distances(w)
    held = {cp: res.holder for cp, res in w.reservations.items()}
    dyn.step(w, 0.1)
    after = front_distances(w)
    crossings = 0
    for (cp, vid), ds in before.items():
        for d0, d1 in zip(ds, after.get((cp, vid), [None] * len(ds))):
            if d0 is not None and d1 is not None and d0 > 0.0 >= d1:
                crossings += 1
                assert vid in (held[cp], w.reservations[cp].holder), (
                    f"{vid} crossed {cp} at step {w.step_count} held by "
                    f"{held[cp]!r} then {w.reservations[cp].holder!r}")
    return crossings


class TestMergeWorld:
    def build(self, seed=0, pen=0.0):
        import comal.network as net
        network = net.build_merge(600.0, 100.0, 30.0)
        w = dyn.World(network, seed=seed)
        w.default_noise_std = 0.2
        w.add_inflow("highway", 2000.0, cav_fraction=pen, id_prefix="hw")
        w.add_inflow("ramp", 300.0, cav_fraction=0.0, id_prefix="ramp")
        return w

    def test_arrivals_spawn_and_exit(self):
        w = self.build()
        for _ in range(750):
            dyn.step(w, 0.1)
        assert w.size > 0
        assert w.removed_count > 0
        assert all(rid in ("highway", "ramp") for rid in w.route_ids)

    def test_no_collisions_and_sane_speeds_across_seeds(self):
        for seed in range(3):
            w = self.build(seed=seed, pen=0.3)
            for _ in range(750):
                dyn.step(w, 0.1)
                if w.size:
                    assert (w.speed >= 0.0).all()
                    assert (w.speed <= 30.0 + 1.0).all()

    def test_junction_reservation_is_exclusive(self):
        worlds = [(self.build(seed=seed, pen=0.3), 750) for seed in range(3)]
        worlds += [(sc.instantiate(sc.find(f"FE {k}")), 1500) for k in range(3)]
        crossings = 0
        for w, steps in worlds:
            for _ in range(steps):
                crossings += step_checking_crossings(w)
        assert crossings > 0  # the gates saw traffic

    def test_determinism_with_arrivals(self):
        def metrics(seed):
            w = self.build(seed=seed, pen=0.5)
            speeds = []
            for _ in range(600):
                dyn.step(w, 0.1)
                if w.size:
                    speeds.append(w.speed.sum())
            return speeds

        assert metrics(5) == metrics(5)
        assert metrics(5) != metrics(6)


GATED_NETWORKS = {
    "figure_eight": net.build_figure_eight(30.0, 30.0),
    "merge": net.build_merge(600.0, 100.0, 30.0),
}


def add_at(w, vid, route_id, arc, length=5.0):
    w.add_vehicle(dyn.VehicleState(
        id=vid, route_id=route_id, position=w.network.arc_to_lane(route_id, arc),
        speed=5.0, length=length, kind="human",
        active_params=dyn.human_params(30.0)), 0.0)


@st.composite
def gated_worlds(draw):
    """Vehicles anywhere, on or next to a conflict arc, or half a lap from it."""
    network = GATED_NETWORKS[draw(st.sampled_from(sorted(GATED_NETWORKS)))]
    w = dyn.World(network, seed=0)
    for k in range(draw(st.integers(0, 12))):
        rid = draw(st.sampled_from(sorted(network.routes)))
        route = network.route(rid)
        at = st.sampled_from([arc for cp in network.conflict_points
                              for r, arc in cp.points if r == rid])
        options = [st.floats(0.0, route.length, exclude_max=True),
                   at.flatmap(lambda a: st.floats(-8.0, 8.0).map(lambda dx: a + dx))]
        if route.cyclic:
            options.append(at.map(lambda a: (a + route.length / 2.0) % route.length))
        arc = min(max(draw(st.one_of(options)), 0.0), math.nextafter(route.length, 0.0))
        add_at(w, f"v{k:02d}", rid, arc, draw(st.sampled_from([2.0, 5.0, 12.0])))
    return w


def assert_gate_distances_match_reference(w):
    dist = w._gate_distances(w.route_index())
    keys = [key for cp in w.network.conflict_points for key in cp.points]
    assert sorted(dist) == sorted(keys)
    for key in keys:
        assert dist[key].shape == (w.size,)
        for i in range(w.size):
            ref = signed_dist_to(w, i, *key)
            if ref is None:
                assert math.isnan(dist[key][i])
            else:  # same bits, sign of zero included
                assert dist[key][i].tobytes() == np.float64(ref).tobytes()


class TestGateDistances:
    @settings(max_examples=300, deadline=None)
    @given(gated_worlds())
    def test_match_per_vehicle_reference(self, w):
        assert_gate_distances_match_reference(w)

    def test_merge_roadways_and_a_straddling_vehicle(self):
        w = dyn.World(GATED_NETWORKS["merge"], seed=0)
        add_at(w, "ramp_edge", "ramp", 50.0)
        add_at(w, "upstream", "highway", 100.0)
        add_at(w, "straddling", "ramp", 102.0)  # front 2 m onto the shared edge
        dist = w._gate_distances(w.route_index())
        hw, ramp = dist["highway", 400.0], dist["ramp", 100.0]
        assert math.isnan(hw[0]) and ramp[0] == 50.0
        assert hw[1] == 300.0 and math.isnan(ramp[1])
        assert hw[2] == -2.0 and ramp[2] == -2.0
        assert_gate_distances_match_reference(w)

    def test_half_a_lap_from_the_crossing_reads_forward(self):
        network = GATED_NETWORKS["figure_eight"]
        half = network.route("eight").length / 2.0
        w = dyn.World(network, seed=0)
        add_at(w, "far", "eight", half)
        dist = w._gate_distances(w.route_index())
        assert dist["eight", 0.0][0] == half  # (-L/2, L/2]: +L/2, not -L/2
        assert dist["eight", half][0] == 0.0
        assert_gate_distances_match_reference(w)


def assert_links_match_reference(w):
    """``rebuild_links`` equals the per-vehicle reference, gaps bit for bit,
    and the index's extents equal ``visible_extent`` for every listed vehicle."""
    index = w.route_index()
    for route in w.network.routes.values():
        want = [net.visible_extent(w.network, route, w.route_ids[j], float(w.arc[j]),
                                   float(w.length[j])) for j in index.order[route.id]]
        assert index.extent[route.id].tobytes() == np.asarray(want, dtype=float).tobytes()
    lead_idx, gap = reference_links(w, index)
    w.rebuild_links(index)
    assert w.lead_idx.tolist() == lead_idx.tolist()
    assert w.gap.tobytes() == gap.tobytes()


class TestGroupedRouteIndex:
    """Each route's vehicles are projected as one group, with the bits of
    projecting them one at a time (the property is in test_agent)."""

    def test_ties_across_routes_keep_index_order(self):
        w = dyn.World(PROPERTY_NETWORKS["merge"], seed=0)
        add_at(w, "ramp_first", "ramp", 150.0)  # on the shared edge: 450 m on the highway
        add_at(w, "highway_tied", "highway", 450.0)
        add_at(w, "ramp_tied", "ramp", 150.0)
        assert_index_matches_reference(w)
        assert w.route_index().order["highway"].tolist() == [0, 1, 2]

    def test_steps_of_a_merge(self):
        w = merge_world(seed=4, noise_std=0.2)
        for k in range(400):
            dyn.step(w, 0.1)
            if k % 20 == 0:
                assert_index_matches_reference(w)
        assert w.removed_count > 0


class TestLinksFromTheIndex:
    @settings(max_examples=200, deadline=None)
    @given(perception_worlds(min_vehicles=0))
    def test_match_per_vehicle_reference(self, w):
        assert_links_match_reference(w)

    def test_a_tie_links_with_a_negative_gap(self):
        w = dyn.World(PROPERTY_NETWORKS["ring"], seed=0)
        add_at(w, "a", "loop", 100.0)
        add_at(w, "b", "loop", 100.0)
        assert_links_match_reference(w)
        assert w.lead_idx.tolist() == [1, 0] and w.gap.tolist() == [-5.0, -5.0]
        # perception skips the zero forward arc and sees the ego a lap ahead
        assert perceive(w, "a", 50.0).leader_id == "a"

    def test_lone_vehicle_chases_itself_around_the_loop(self):
        network = PROPERTY_NETWORKS["figure_eight"]
        w = dyn.World(network, seed=0)
        add_at(w, "solo", "eight", 40.0, length=7.5)
        assert_links_match_reference(w)
        assert w.lead_idx.tolist() == [0]
        assert w.gap[0] == network.route("eight").length - 7.5

    def test_straddling_leader_counts_only_its_part_on_the_route(self):
        w = dyn.World(PROPERTY_NETWORKS["merge"], seed=0)
        add_at(w, "behind", "highway", 390.0)
        add_at(w, "straddling", "ramp", 102.0)  # front 2 m onto the shared edge
        assert_links_match_reference(w)
        assert w.lead_idx.tolist() == [1, -1]
        assert w.gap[0] == 402.0 - 390.0 - 2.0

    def test_an_empty_route_and_an_empty_world(self):
        w = dyn.World(PROPERTY_NETWORKS["merge"], seed=0)
        assert_links_match_reference(w)
        add_at(w, "front", "highway", 50.0)
        add_at(w, "back", "highway", 20.0)
        assert_links_match_reference(w)  # the ramp holds nobody
        assert w.lead_idx.tolist() == [-1, 0] and w.gap[1] == 25.0


def merge_world(seed, noise_std, pen=0.3, highway=300.0):
    """A short merge fed by both inflows, so vehicles spawn and leave early."""
    w = dyn.World(net.build_merge(highway, 60.0, 30.0), seed=seed)
    w.default_noise_std = noise_std
    w.add_inflow("highway", 2000.0, cav_fraction=pen, id_prefix="hw")
    w.add_inflow("ramp", 400.0, cav_fraction=pen, id_prefix="ramp")
    return w


def step_checking_noise(w, dts):
    """Step ``w`` once per dt; each step's noise must equal per-vehicle samples.

    The reference is a copy of each vehicle's noise stream taken when the
    vehicle is added, drawn with one ``NoiseModel.sample(dt)`` per vehicle
    per step. Returns (spawns while another noisy vehicle was part-way
    through its block, vehicles removed, block refills after a vehicle's first).
    """
    refs = {vid: copy.deepcopy(nm) for vid, nm in zip(w.ids, w.noise)}
    seen = {"mid_block_spawns": 0, "draws": [], "refills": 0}
    filled = set()  # vehicles that have drawn their first block
    add_vehicle, draw = w.add_vehicle, w._noise

    def add_and_copy_stream(state, noise_std):
        pos = w._noise_pos[w._noise_std > 0]
        seen["mid_block_spawns"] += bool(((pos > 0) & (pos < dyn._NOISE_BLOCK)).any())
        add_vehicle(state, noise_std)
        refs[state.id] = copy.deepcopy(w.noise[-1])

    def recorded_draw(dt):
        for vid in np.asarray(w.ids, dtype=object)[w._noise_pos == dyn._NOISE_BLOCK]:
            seen["refills"] += vid in filled
            filled.add(vid)
        out = draw(dt)
        seen["draws"].append((list(w.ids), out))
        return out

    w.add_vehicle, w._noise = add_and_copy_stream, recorded_draw
    for dt in dts:
        seen["draws"].clear()
        dyn.step(w, dt)
        for ids, out in seen["draws"]:
            want = np.array([refs[vid].sample(dt) for vid in ids])
            if out is None:  # nobody noisy: nothing is added
                assert (want == 0.0).all()
            else:  # same bits, sign of zero included
                assert out.tobytes() == want.tobytes()
    return seen["mid_block_spawns"], w.removed_count, seen["refills"]


class TestBlockNoise:
    def test_block_equals_sequential_samples(self):
        a = dyn.NoiseModel(0.3, np.random.SeedSequence(11))
        b = dyn.NoiseModel(0.3, np.random.SeedSequence(11))
        want = np.array([a.sample(0.1) for _ in range(1000)])
        got = np.concatenate([b.block(100) for _ in range(10)]) * (0.3 / math.sqrt(0.1))
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(["ring", "merge"]), seed=st.integers(0, 2**16),
           noise_std=st.sampled_from([0.0, 0.05, 0.2, 0.6]),
           dt=st.sampled_from([0.1, 0.2, 0.25]), n=st.integers(1, 30))
    def test_matches_per_vehicle_samples(self, kind, seed, noise_std, dt, n):
        if kind == "ring":
            w = uniform_ring_world(n=n, length=12.0 * n, noise_std=noise_std,
                                   seed=seed, cav_indices=range(0, n, 4))
        else:
            # all human, and long enough that an early arrival is still there
            # for its second block (a run of CAV arrivals could leave none)
            w = merge_world(seed, noise_std, pen=0.0, highway=60.0 * dt * dyn._NOISE_BLOCK)
        # past every first block, whatever dt
        refills = step_checking_noise(w, [dt] * (2 * dyn._NOISE_BLOCK + 1))[2]
        if noise_std > 0 and (kind == "merge" or n > 1):  # some vehicle is noisy
            assert refills > 0

    def test_spawns_mid_block_and_removals(self):
        w = merge_world(seed=3, noise_std=0.2)
        mid_block_spawns, removed, _ = step_checking_noise(w, [0.1] * 600)
        assert mid_block_spawns > 0 and removed > 0

    def test_noise_free_vehicles_add_exact_zero_and_never_draw(self):
        w = uniform_ring_world(n=8, noise_std=0.3, seed=2, cav_indices=(1, 5))
        states = [copy.deepcopy(w.noise[i]._rng.bit_generator.state) for i in (1, 5)]
        draws, draw = [], w._noise

        def recorded_draw(dt):
            draws.append(draw(dt))
            return draws[-1]

        w._noise = recorded_draw
        for _ in range(3 * dyn._NOISE_BLOCK):
            dyn.step(w, 0.1)
        quiet = np.array([d[[1, 5]] for d in draws])
        assert (quiet == 0.0).all() and not np.signbit(quiet).any()
        assert [w.noise[i]._rng.bit_generator.state for i in (1, 5)] == states

    def test_step_size_may_change_between_steps(self):
        w = uniform_ring_world(n=5, noise_std=0.2, seed=4)
        step_checking_noise(w, [0.1, 0.05, 0.2] * 50)


def table(w) -> dict:
    """Every per-vehicle column and list of ``w`` by its schema name."""
    return {name: w._p[name] if name in w._p else getattr(w, name)
            for name in [*dyn._COLUMNS, *dyn._LISTS]}


def assert_table_matches_population(w):
    got = table(w)
    assert {k: len(v) for k, v in got.items()} == dict.fromkeys(got, w.size)
    for name, (dtype, shape) in dyn._COLUMNS.items():
        assert (got[name].dtype, got[name].shape[1:]) == (dtype, shape), name


class TestPerVehicleArrays:
    # the arrays this class listed by hand before the table had a schema
    HAND_LISTED = ["lead_idx", "gap", "ids", "route_ids", "kinds", "noise", "arc", "speed",
                   "length", "_route_len", "_cyclic", "_noise_std", "_noise_block",
                   "_noise_pos", "v0", "T", "a_max", "b", "delta", "s0"]

    def test_every_array_matches_the_population_after_each_step(self):
        w = merge_world(seed=1, noise_std=0.2, highway=600.0)
        for _ in range(750):
            dyn.step(w, 0.1)
            assert_table_matches_population(w)
            assert ((w.lead_idx >= -1) & (w.lead_idx < w.size)).all()
        assert w.removed_count > 0

    def test_schema_holds_every_hand_listed_array(self):
        assert set(self.HAND_LISTED) <= set(table(dyn.World(net.build_ring(100.0, 30.0), 0)))
        assert set(dyn._COLUMNS).isdisjoint(dyn._LISTS)

    def test_rows_keep_their_vehicle_through_growth_and_removals(self):
        w = merge_world(seed=2, noise_std=0.2, highway=1500.0)
        added = {}  # vehicle id -> (length, route length, cyclic, noise std, params)
        add_vehicle = w.add_vehicle

        def add_distinct(state, noise_std):
            k = len(added)
            params = dataclasses.replace(state.active_params, v0=25.0 + k % 11 * 0.5,
                                         s0=1.5 + k % 7 * 0.1)
            state = dataclasses.replace(state, length=4.0 + k % 13 * 0.1,
                                        active_params=params)
            noise_std = noise_std and noise_std + k * 1e-3
            add_vehicle(state, noise_std)
            route = w.network.route(state.route_id)
            added[state.id] = (state.length, route.length, route.cyclic, noise_std, params)

        def assert_rows_kept():
            codes = [list(w.network.routes).index(rid) for rid in w.route_ids]
            assert w._route_code.tolist() == codes
            for i, vid in enumerate(w.ids):
                row = (w.length[i], w._route_len[i], w._cyclic[i], w._noise_std[i],
                       w.params_of(vid))
                assert row == added[vid], vid

        w.add_vehicle = add_distinct
        capacities, set_after_removal = set(), False
        for k in range(1500):
            dyn.step(w, 0.1)
            capacities.add(len(w._store["arc"]))
            if w.removed_count and not set_after_removal and w.size > 2:
                vid = w.ids[w.size // 2]
                others = {v: w.params_of(v) for v in w.ids if v != vid}
                new = dyn.IdmParams(v0=12.0, T=1.2, a_max=0.8, b=1.4, delta=4.0, s0=2.5)
                w.set_params(vid, new)
                assert w.params_of(vid) == new
                assert others == {v: w.params_of(v) for v in w.ids if v != vid}
                added[vid] = added[vid][:4] + (new,)
                set_after_removal = True
            if k % 10 == 0:
                assert_rows_kept()
        assert_rows_kept()
        assert set_after_removal and len(capacities) >= 3  # 16 -> 32 -> 64 rows

    def test_a_column_the_row_lacks_is_a_key_error(self, monkeypatch):
        monkeypatch.setitem(dyn._COLUMNS, "unfilled", (np.float64, ()))
        w = dyn.World(net.build_ring(100.0, 30.0), seed=0)
        state = dyn.VehicleState(id="a", route_id="loop",
                                 position=w.network.arc_to_lane("loop", 0.0), speed=0.0,
                                 length=5.0, kind="human", active_params=P)
        with pytest.raises(KeyError, match="unfilled"):
            w.add_vehicle(state, 0.2)
        assert w.size == 0 and not w._index

    def test_set_links_needs_one_entry_per_vehicle(self):
        w = uniform_ring_world(n=5)
        lead, gap = w.lead_idx.copy(), w.gap.copy()
        for bad in [(lead[:-1], gap), (lead, gap[:-1]), (lead[:1], gap[:1])]:
            with pytest.raises(ValueError):
                w.set_links(*bad)
        np.testing.assert_array_equal(w.lead_idx, lead)
        np.testing.assert_array_equal(w.gap, gap)

    def test_removal_renumbers_links(self):
        w = merge_world(seed=1, noise_std=0.2, highway=600.0)
        while not w.removed_count:
            dyn.step(w, 0.1)
        lead, gap = w.lead_idx.copy(), w.gap.copy()
        w.rebuild_links()
        np.testing.assert_array_equal(lead, w.lead_idx)
        np.testing.assert_allclose(gap, w.gap, rtol=0, atol=1e-9)


class TestRingInvariantsAtScale:
    @settings(max_examples=20, deadline=None)
    @example(n=352, spacing=3680.0 / 352, noise_std=0.2, seed=0, cav_every=352)
    @given(n=st.integers(2, 352), spacing=st.floats(8.0, 30.0),
           noise_std=st.floats(0.0, 1.0), seed=st.integers(0, 2**16),
           cav_every=st.integers(1, 50))
    def test_noisy_closed_ring(self, n, spacing, noise_std, seed, cav_every):
        length = n * spacing
        w = uniform_ring_world(n=n, length=length, noise_std=noise_std, seed=seed,
                               cav_indices=range(0, n, cav_every))
        ids = list(w.ids)
        for _ in range(300):
            dyn.step(w, 0.1)  # a CollisionError fails the property
            assert (w.speed >= 0.0).all()
            assert w.ids == ids
            assert abs(w.gap.sum() + w.length.sum() - length) <= 1e-6 * length


class TestMergeInvariantsAtScale:
    @settings(max_examples=2, deadline=None)
    @example(highway=4000.0, main_vph=2400.0, ramp_vph=600.0, pen=0.3, noise_std=0.2,
             seed=0)  # about 70 vehicles at once
    @given(highway=st.floats(1000.0, 4000.0), main_vph=st.floats(600.0, 2400.0),
           ramp_vph=st.floats(100.0, 600.0), pen=st.floats(0.0, 1.0),
           noise_std=st.floats(0.0, 0.6), seed=st.integers(0, 2**16))
    def test_scaled_merge(self, highway, main_vph, ramp_vph, pen, noise_std, seed):
        w = dyn.World(net.build_merge(highway, 100.0, 30.0), seed=seed)
        w.default_noise_std = noise_std
        w.add_inflow("highway", main_vph, cav_fraction=pen, id_prefix="hw")
        w.add_inflow("ramp", ramp_vph, cav_fraction=pen, id_prefix="ramp")
        for _ in range(2000):
            step_checking_crossings(w)  # a CollisionError fails the property
            assert (w.speed >= 0.0).all()
            assert (w.gap[w.lead_idx >= 0] > 0.0).all()
            assert_table_matches_population(w)
