"""Network geometry, route arithmetic, and leader lookup."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comal import dynamics as dyn
from comal import network as net

from helpers import PROPERTY_NETWORKS, uniform_ring_world


def make_vehicle(vid, route_id, network, arc, length=5.0, speed=5.0, kind="human"):
    return dyn.VehicleState(
        id=vid, route_id=route_id, position=network.arc_to_lane(route_id, arc),
        speed=speed, length=length, kind=kind,
        active_params=dyn.human_params(network.speed_limit))


class TestBuilders:
    def test_ring_length_and_route(self):
        network = net.build_ring(230.0, 30.0)
        route = network.route("loop")
        assert route.cyclic
        assert route.length == 230.0
        assert not network.conflict_points

    def test_ring_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            net.build_ring(0.0, 30.0)

    def test_figure_eight_structure(self):
        network = net.build_figure_eight(30.0, 30.0)
        route = network.route("eight")
        assert route.cyclic
        assert route.length == pytest.approx(4.0 * math.pi * 30.0)
        assert len(network.conflict_points) == 1
        cp = network.conflict_points[0]
        for route_id, arc in cp.points:
            assert route_id == "eight"
            assert 0.0 <= arc <= route.length

    def test_figure_eight_geometry_oracle(self):
        # Embed the route in the plane: two tangent circles of radius r
        # meeting at the origin. Walking the declared route arc length around
        # circle A and then circle B must close the curve, and the two
        # conflict arcs must land on the same physical point.
        r = 30.0
        network = net.build_figure_eight(r, 30.0)
        route = network.route("eight")

        def embed(s):
            loop = 2.0 * math.pi * r
            if s < loop:  # circle A centered (-r, 0), start at origin
                ang = s / r
                return (-r + r * math.cos(ang), r * math.sin(ang))
            s -= loop  # circle B centered (r, 0), start at origin
            ang = s / r
            return (r - r * math.cos(ang), r * math.sin(ang))

        start = embed(0.0)
        end = embed(route.length - 1e-12)
        assert math.dist(start, end) < 1e-6  # closure
        (_, a1), (_, a2) = network.conflict_points[0].points
        assert math.dist(embed(a1), embed(a2 - 1e-12)) < 1e-6  # self-intersection

    def test_figure_eight_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            net.build_figure_eight(-1.0, 30.0)

    def test_merge_structure(self):
        network = net.build_merge(600.0, 100.0, 30.0)
        hw = network.route("highway")
        ramp = network.route("ramp")
        assert not hw.cyclic and not ramp.cyclic
        assert hw.length == 600.0
        assert ramp.edge_ids[-1] == hw.edge_ids[-1]  # shared sink edge
        assert len(network.conflict_points) == 1
        cp = network.conflict_points[0]
        assert dict(cp.points) == {"highway": 400.0, "ramp": 100.0}

    def test_merge_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            net.build_merge(600.0, 0.0, 30.0)
        with pytest.raises(ValueError):
            net.build_merge(-1.0, 100.0, 30.0)

    def test_json_round_shape(self):
        network = net.build_merge(600.0, 100.0, 30.0)
        doc = network.to_json_dict()
        assert doc["kind"] == "merge"
        assert {e["id"] for e in doc["edges"]} == {
            "highway_upstream", "ramp", "highway_downstream"}
        assert doc["conflict_points"][0]["points"] == [["highway", 400.0], ["ramp", 100.0]]
        assert "highway" in network.to_json()


def probe_arcs(route, rng) -> np.ndarray:
    """Arcs of ``route``: each edge start and the ulp before it, its end on an
    open route, and seeded random arcs in between."""
    starts = list(route.edge_starts.values())
    arcs = starts + [np.nextafter(s, -np.inf) for s in starts if s > 0]
    if not route.cyclic:
        arcs.append(route.length)
    return np.array(arcs + rng.uniform(0.0, route.length, 40).tolist())


class TestArrayProjection:
    """``project_onto_route`` on an array of arcs is the scalar call per arc."""

    @pytest.mark.parametrize("kind", sorted(PROPERTY_NETWORKS))
    def test_equals_the_scalar_form_for_every_route_pair(self, kind):
        network = PROPERTY_NETWORKS[kind]
        rng = np.random.default_rng(7)
        for source in network.routes.values():
            arcs = probe_arcs(source, rng)
            for route in network.routes.values():
                got = net.project_onto_route(network, route, source.id, arcs)
                want = [net.project_onto_route(network, route, source.id, a)
                        for a in arcs.tolist()]
                assert got.dtype == np.float64 and got.shape == arcs.shape
                assert [None if math.isnan(g) else g.hex() for g in got.tolist()] == [
                    None if w is None else float(w).hex() for w in want]

    def test_the_merge_sees_a_ramp_arc_only_past_the_junction(self):
        network = PROPERTY_NETWORKS["merge"]
        got = net.project_onto_route(network, network.route("highway"), "ramp",
                                     np.array([0.0, 99.5, 100.0, 150.0, 300.0]))
        assert np.isnan(got[:2]).all() and got[2:].tolist() == [400.0, 450.0, 600.0]

    def test_an_empty_array_gives_an_empty_array(self):
        network = PROPERTY_NETWORKS["merge"]
        for rid in network.routes:
            got = net.project_onto_route(network, network.route("highway"), rid,
                                         np.array([]))
            assert got.shape == (0,) and got.dtype == np.float64


class TestArcDistance:
    def test_same_position_is_zero(self):
        network = net.build_ring(230.0, 30.0)
        route = network.route("loop")
        p = net.LanePosition("ring", 12.0)
        assert net.arc_distance(p, p, route) == 0.0

    def test_ring_wraps(self):
        network = net.build_ring(230.0, 30.0)
        route = network.route("loop")
        a = net.LanePosition("ring", 225.0)
        b = net.LanePosition("ring", 5.0)
        assert net.arc_distance(a, b, route) == pytest.approx(10.0)

    def test_ring_wrap_small(self):
        network = net.build_ring(100.0, 30.0)
        route = network.route("loop")
        a = net.LanePosition("ring", 90.0)
        b = net.LanePosition("ring", 10.0)
        assert net.arc_distance(a, b, route) == pytest.approx(20.0)

    def test_acyclic_behind_is_none(self):
        network = net.build_merge(600.0, 100.0, 30.0)
        route = network.route("highway")
        a = net.LanePosition("highway_downstream", 10.0)
        b = net.LanePosition("highway_upstream", 390.0)
        assert net.arc_distance(a, b, route) is None
        assert net.arc_distance(b, a, route) == pytest.approx(20.0)

    def test_off_route_raises(self):
        network = net.build_merge(600.0, 100.0, 30.0)
        route = network.route("highway")
        with pytest.raises(ValueError):
            net.arc_distance(net.LanePosition("ramp", 1.0),
                             net.LanePosition("highway_upstream", 5.0), route)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(0.0, 229.999), b=st.floats(0.0, 229.999))
    def test_cyclic_distances_sum_to_length(self, a, b):
        network = net.build_ring(230.0, 30.0)
        route = network.route("loop")
        pa, pb = net.LanePosition("ring", a), net.LanePosition("ring", b)
        d_ab = net.arc_distance(pa, pb, route)
        d_ba = net.arc_distance(pb, pa, route)
        if a != b:
            assert d_ab + d_ba == pytest.approx(230.0)


class TestLeaderOf:
    def test_two_vehicles_are_mutual_leaders(self):
        network = net.build_ring(230.0, 30.0)
        w = dyn.World(network, seed=0)
        w.add_vehicle(make_vehicle("a", "loop", network, 0.0), 0.0)
        w.add_vehicle(make_vehicle("b", "loop", network, 115.0), 0.0)
        assert net.leader_of("a", w) == ("b", pytest.approx(110.0))
        assert net.leader_of("b", w) == ("a", pytest.approx(110.0))

    def test_single_vehicle_cyclic_leads_itself(self):
        network = net.build_ring(230.0, 30.0)
        w = dyn.World(network, seed=0)
        w.add_vehicle(make_vehicle("a", "loop", network, 42.0), 0.0)
        # ring topology oracle: enumerate candidates by brute force -> only
        # the vehicle itself, one lap ahead
        assert net.leader_of("a", w) == ("a", pytest.approx(225.0))

    def test_single_vehicle_open_network_has_none(self):
        network = net.build_merge(600.0, 100.0, 30.0)
        w = dyn.World(network, seed=0)
        w.add_vehicle(make_vehicle("a", "highway", network, 100.0), 0.0)
        assert net.leader_of("a", w) is None

    def test_merge_sees_cross_route_leader_on_shared_edge(self):
        network = net.build_merge(600.0, 100.0, 30.0)
        w = dyn.World(network, seed=0)
        w.add_vehicle(make_vehicle("hw", "highway", network, 390.0), 0.0)
        w.add_vehicle(make_vehicle("rp", "ramp", network, 110.0), 0.0)  # 10 m past junction
        leader, gap = net.leader_of("hw", w)
        assert leader == "rp"
        assert gap == pytest.approx(410.0 - 390.0 - 5.0)

    def test_straddling_leader_blocks_only_from_junction(self):
        # leader's front is 2 m past the junction; its rear is still on the
        # ramp, so the visible extent on the highway is 2 m, not 5 m
        network = net.build_merge(600.0, 100.0, 30.0)
        w = dyn.World(network, seed=0)
        w.add_vehicle(make_vehicle("hw", "highway", network, 396.0), 0.0)
        w.add_vehicle(make_vehicle("rp", "ramp", network, 102.0), 0.0)
        leader, gap = net.leader_of("hw", w)
        assert leader == "rp"
        assert gap == pytest.approx(402.0 - 396.0 - 2.0)

    def test_leader_is_permutation_on_ring(self):
        w = uniform_ring_world(n=7)
        leaders = {net.leader_of(vid, w)[0] for vid in w.ids}
        assert leaders == set(w.ids)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.0, 229.0), min_size=2, max_size=8, unique=True))
    def test_space_conservation_on_ring(self, arcs):
        # sum of bumper gaps + sum of vehicle lengths = route length
        length = 2.0
        network = net.build_ring(230.0, 30.0)
        w = dyn.World(network, seed=0)
        for k, arc in enumerate(arcs):
            w.add_vehicle(make_vehicle(f"v{k}", "loop", network, arc, length=length), 0.0)
        total = sum(net.leader_of(vid, w)[1] for vid in w.ids)
        assert total + length * len(arcs) == pytest.approx(230.0)

    def test_dynamics_rebuild_agrees_with_leader_of(self):
        # the fast link rebuild must match the network-level oracle
        rng = np.random.default_rng(7)
        network = net.build_merge(600.0, 100.0, 30.0)
        w = dyn.World(network, seed=0)
        hw_arcs = np.sort(rng.uniform(0, 590, size=6))
        for k, arc in enumerate(hw_arcs):
            w.add_vehicle(make_vehicle(f"h{k}", "highway", network, float(arc)), 0.0)
        ramp_arcs = np.sort(rng.uniform(0, 99, size=2))
        for k, arc in enumerate(ramp_arcs):
            w.add_vehicle(make_vehicle(f"r{k}", "ramp", network, float(arc)), 0.0)
        w.rebuild_links()
        for i, vid in enumerate(w.ids):
            expected = net.leader_of(vid, w)
            if expected is None:
                assert w.lead_idx[i] == -1
            else:
                assert w.ids[int(w.lead_idx[i])] == expected[0]
                assert w.gap[i] == pytest.approx(expected[1])
