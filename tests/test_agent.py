"""Perception rendering, memory recall, collaboration, reasoning, execution."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from comal import agent
from comal import dynamics as dyn
from comal import harness
from comal import network as net
from comal import scenario as sc
from comal.agent import (Experience, MemoryStore, Message, MessagePool,
                         PlannerSpec, RoleAssignment, RunFlags, SceneDescription,
                         ScriptedBackend, brainstorm, execute, fallback_roles,
                         parse_role_block, parse_scene_text, perceive, perceive_all,
                         reason, recall, scripted_backend_policy)
from comal.llm_client import ChatTurn

from helpers import (ORDER_RE, PROPERTY_NETWORKS, assert_index_matches_reference,
                     perception_worlds, reference_collaboration_turn, reference_parse_scene_text,
                     reference_reason_turn, reference_scene_text, uniform_ring_world)


def make_scene(**kw):
    base = dict(scenario_tag="ring", ego_id="cav_00", ego_speed=5.0,
                headway=20.0, leader_id="human_01", leader_speed=5.0,
                speed_limit=30.0, route_length=230.0, cyclic=True,
                intersections=0, position_arc=0.0,
                neighbors=(("human_01", "human", 20.0, 5.0),))
    base.update(kw)
    return SceneDescription(**base)


SPEEDS = st.one_of(st.floats(0.0, 40.0), st.sampled_from([-0.0, 0.0, 5.0]))
# numbers whose two-decimal text is easy to get wrong: ties (x.xx5), -0.0,
# subnormals, 1e16 and above, nan and infinities
AWKWARD = st.one_of(
    st.integers(0, 10**6).map(lambda k: (10 * k + 5) / 1000),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.1e-308, 1e16, 1e16 + 2.0, 1.5e300,
                     math.nan, math.inf, -math.inf]),
    st.floats(min_value=1e16))
UNSIGNED_AWKWARD = AWKWARD.filter(lambda x: math.isfinite(x) and math.copysign(1.0, x) > 0.0)
TIES = st.integers(0, 150_000).map(lambda k: (10 * k + 5) / 1000)  # x.xx5
VEHICLE_IDS = st.sampled_from(["cav_00", "cav_01", "human_02", "hw_003", "v.x"])


def as_rendered(scene):
    """``scene`` as its text reads back: every number at its two decimals,
    and no route arc."""
    def r(x):
        return float(f"{x:.2f}")

    return dataclasses.replace(
        scene, ego_speed=r(scene.ego_speed), headway=r(scene.headway),
        leader_speed=r(scene.leader_speed), speed_limit=r(scene.speed_limit),
        route_length=r(scene.route_length), position_arc=0.0,
        neighbors=tuple((vid, kind, r(gap), r(speed))
                        for vid, kind, gap, speed in scene.neighbors))


@st.composite
def scenes(draw):
    """Scenes with any fields, neighbors sharing speeds, ``-0.0`` among them."""
    return SceneDescription(
        scenario_tag=draw(st.sampled_from(["ring", "figure_eight", "merge"])),
        ego_id=draw(VEHICLE_IDS), ego_speed=draw(SPEEDS),
        headway=draw(st.one_of(st.floats(0.0, 300.0), st.just(math.inf))),
        leader_id=draw(st.one_of(st.none(), VEHICLE_IDS)), leader_speed=draw(SPEEDS),
        speed_limit=draw(st.sampled_from([30.0, 12.5])),
        route_length=draw(st.floats(50.0, 1000.0)), cyclic=draw(st.booleans()),
        intersections=draw(st.integers(0, 2)), position_arc=0.0,
        neighbors=tuple(draw(st.lists(st.tuples(
            VEHICLE_IDS, st.sampled_from(["human", "cav"]),
            st.one_of(st.floats(0.0, 300.0), AWKWARD), st.one_of(SPEEDS, AWKWARD)),
            max_size=4))))


class TestPerceive:
    def build_two_vehicle_ring(self):
        network = net.build_ring(230.0, 30.0)
        w = dyn.World(network, seed=0)
        params = dyn.human_params(30.0)
        for vid, arc, kind in (("cav_00", 0.0, "cav"), ("human_01", 115.0, "human")):
            w.add_vehicle(dyn.VehicleState(
                id=vid, route_id="loop", position=network.arc_to_lane("loop", arc),
                speed=5.0, length=5.0, kind=kind, active_params=params), 0.0)
        return w

    def test_template_fields(self):
        w = self.build_two_vehicle_ring()
        scene = perceive(w, "cav_00", horizon=200.0)
        assert "headway=110.00 m" in scene.ego_text
        assert "leader_speed=5.00 m/s" in scene.ego_text
        assert scene.map_text == ("[MAP] scenario=ring; route_length=230.00 m "
                                  "(cyclic); speed_limit=30.00 m/s; intersections=0")
        assert scene.ego_text == ("[EGO] id=cav_00; speed=5.00 m/s; "
                                  "headway=110.00 m; leader=human_01; "
                                  "leader_speed=5.00 m/s")
        assert scene.neighbors_text == ("[NEIGHBORS] human_01:human gap=110.00 m "
                                        "speed=5.00 m/s")

    def test_horizon_filters_neighbors(self):
        w = self.build_two_vehicle_ring()
        scene = perceive(w, "cav_00", horizon=50.0)
        assert scene.neighbors == ()
        assert scene.neighbors_text == "[NEIGHBORS] none"
        # the leader is still known even beyond the horizon
        assert scene.leader_id == "human_01"

    def test_purity_byte_identical(self):
        w = self.build_two_vehicle_ring()
        a = perceive(w, "cav_00", horizon=100.0)
        b = perceive(w, "cav_00", horizon=100.0)
        assert a.text == b.text and a == b

    def test_neighbors_sorted_by_gap(self):
        w = uniform_ring_world(n=8)
        scene = perceive(w, w.ids[0], horizon=120.0)
        gaps = [n[2] for n in scene.neighbors]
        assert gaps == sorted(gaps)

    def test_unknown_ego_raises(self):
        w = self.build_two_vehicle_ring()
        with pytest.raises(KeyError):
            perceive(w, "ghost", horizon=50.0)

    def test_open_network_no_leader_rendering(self):
        network = net.build_merge(600.0, 100.0, 30.0)
        w = dyn.World(network, seed=0)
        w.add_vehicle(dyn.VehicleState(
            id="hw_000", route_id="highway",
            position=network.arc_to_lane("highway", 10.0), speed=25.0,
            length=5.0, kind="cav", active_params=dyn.human_params(30.0)), 0.0)
        scene = perceive(w, "hw_000", horizon=100.0)
        assert "headway=inf m; leader=none; leader_speed=0.00 m/s" in scene.ego_text
        assert "open" in scene.map_text and "intersections=1" in scene.map_text

    def test_text_is_rendered_once(self):
        scene = perceive(self.build_two_vehicle_ring(), "cav_00", horizon=200.0)
        assert scene.text is scene.text
        assert scene.text == "\n".join((scene.map_text, scene.ego_text,
                                        scene.neighbors_text))

    @settings(max_examples=100, deadline=None)
    @given(scenes())
    def test_any_scene_renders_as_the_per_field_renderer(self, scene):
        assert scene.text == reference_scene_text(scene)
        assert scene.text == "\n".join((scene.map_text, scene.ego_text, scene.neighbors_text))

    def test_parse_round_trip(self):
        w = self.build_two_vehicle_ring()
        scene = perceive(w, "cav_00", horizon=200.0)
        parsed = agent.parse_scene_text(scene.text)
        assert parsed is not None
        assert parsed.scenario_tag == "ring"
        assert parsed.ego_id == "cav_00"
        assert parsed.headway == pytest.approx(110.0)
        assert parsed.leader_id == "human_01"
        assert parsed.neighbors == (("human_01", "human", 110.0, 5.0),)


def reference_scene(world, ego_id, horizon):
    """Perception by brute force: ``leader_of`` plus a scan of every vehicle."""
    i = world.index_of(ego_id)
    network = world.network
    route = network.route(world.route_ids[i])
    ego_arc = float(world.arc[i])
    found = net.leader_of(ego_id, world)
    if found is None:
        leader_id, headway, leader_speed = None, math.inf, 0.0
    else:
        leader_id, headway = found
        leader_speed = float(world.speed[world.index_of(leader_id)])
    neighbors = []
    for j in range(world.size):
        if j == i:
            continue
        arc_j = net.project_onto_route(network, route, world.route_ids[j],
                                       float(world.arc[j]))
        if arc_j is None:
            continue
        d = net.forward_gap(route, ego_arc, arc_j)
        if d is None or d <= 0.0:
            continue
        gap = d - net.visible_extent(network, route, world.route_ids[j],
                                     float(world.arc[j]), float(world.length[j]))
        if 0.0 < gap <= horizon:
            neighbors.append((world.ids[j], world.kinds[j], gap, float(world.speed[j])))
    neighbors.sort(key=lambda item: (item[2], item[0]))
    return SceneDescription(
        scenario_tag=network.kind, ego_id=ego_id, ego_speed=float(world.speed[i]),
        headway=headway, leader_id=leader_id, leader_speed=leader_speed,
        speed_limit=network.speed_limit, route_length=route.length,
        cyclic=route.cyclic, intersections=len(network.conflict_points),
        position_arc=ego_arc, neighbors=tuple(neighbors))


def assert_indexed_matches_reference(w, horizons):
    index = w.route_index()
    for vid in w.ids:
        # every neighbor gap once more as the horizon: the boundary is inclusive
        edge = [n[2] for n in reference_scene(w, vid, math.inf).neighbors]
        for h in [*horizons, *edge]:
            assert perceive(w, vid, h, index) == reference_scene(w, vid, h)


class TestIndexedPerception:
    @settings(max_examples=300, deadline=None)
    @given(perception_worlds(), st.lists(st.floats(0.0, 700.0), min_size=1, max_size=3))
    def test_matches_brute_force_scan(self, w, horizons):
        assert_indexed_matches_reference(w, horizons)

    @settings(max_examples=200, deadline=None)
    @given(perception_worlds(min_vehicles=0))
    def test_route_index_matches_projecting_every_vehicle(self, w):
        # order, arcs, rank and extent, bit for bit, against one scalar
        # projection per vehicle and route
        assert_index_matches_reference(w)

    def test_lone_vehicle_leads_itself_around_the_loop(self):
        network = PROPERTY_NETWORKS["figure_eight"]
        w = dyn.World(network, seed=0)
        w.add_vehicle(dyn.VehicleState(
            id="solo", route_id="eight", position=network.arc_to_lane("eight", 40.0),
            speed=4.0, length=5.0, kind="cav", active_params=dyn.human_params(30.0)), 0.0)
        scene = perceive(w, "solo", 50.0, w.route_index())
        assert scene.leader_id == "solo"
        assert scene.headway == network.route("eight").length - 5.0
        assert scene.neighbors == ()
        assert_indexed_matches_reference(w, [0.0, 50.0, 1e3])

    def test_neighbor_exactly_at_the_horizon_is_kept(self):
        w = TestPerceive().build_two_vehicle_ring()
        scene = perceive(w, "cav_00", 110.0, w.route_index())
        assert [n[0] for n in scene.neighbors] == ["human_01"]
        assert perceive(w, "cav_00", 109.99, w.route_index()).neighbors == ()

    def test_full_lap_leader_is_the_next_rank(self):
        # one ulp behind the ego, the other vehicle's forward gap rounds to a
        # full lap; it is the next rank, so it leads the ego, as the links say
        network = PROPERTY_NETWORKS["ring"]
        w = dyn.World(network, seed=0)
        for vid, arc in (("ego", 100.0), ("behind", math.nextafter(100.0, 0.0))):
            w.add_vehicle(dyn.VehicleState(
                id=vid, route_id="loop", position=network.arc_to_lane("loop", arc),
                speed=4.0, length=5.0, kind="cav",
                active_params=dyn.human_params(30.0)), 0.0)
        assert net.forward_gap(network.route("loop"), w.arc[0], w.arc[1]) == 230.0
        scene = perceive(w, "ego", 10.0, w.route_index())
        assert (scene.leader_id, scene.headway) == ("behind", 225.0)
        w.rebuild_links()
        assert w.lead_idx.tolist() == [1, 0]
        assert w.gap.tolist() == [225.0, 100.0 - math.nextafter(100.0, 0.0) - 5.0]
        assert_indexed_matches_reference(w, [0.0, 300.0])

    def test_without_index_builds_its_own(self):
        w = uniform_ring_world(n=9, cav_indices=(0, 4))
        for vid in w.ids:
            assert perceive(w, vid, 80.0) == perceive(w, vid, 80.0, w.route_index())

    @settings(max_examples=150, deadline=None)
    @given(perception_worlds(), st.lists(st.floats(0.0, 700.0), min_size=1, max_size=2))
    def test_one_pass_for_every_vehicle_matches_brute_force_scan(self, w, horizons):
        index = w.route_index()
        # every neighbor gap of the first vehicle once more: the boundary is inclusive
        edge = [n[2] for n in reference_scene(w, w.ids[0], math.inf).neighbors]
        for h in [*horizons, *edge]:
            assert perceive_all(w, w.ids, h, index) == [reference_scene(w, vid, h)
                                                        for vid in w.ids]

    @settings(max_examples=80, deadline=None)
    @given(perception_worlds(), st.data())
    def test_one_pass_renders_as_the_per_field_renderer(self, w, data):
        # speeds set to -0.0, to 0.0 or to one shared value: tables are keyed by
        # row; and to awkward numbers, as every speed of the pass is formatted
        # by one call
        chosen = data.draw(st.lists(
            st.one_of(st.sampled_from([None, -0.0, 0.0, 4.5, float(w.speed[0])]), AWKWARD),
            min_size=w.size, max_size=w.size))
        for i, speed in enumerate(chosen):
            if speed is not None:
                w.speed[i] = speed
        horizon = data.draw(st.sampled_from([50.0, 700.0]))
        for scene in perceive_all(w, w.ids, horizon):
            assert scene.text == reference_scene_text(scene)

    def test_one_pass_keeps_the_requested_order(self):
        w = uniform_ring_world(n=9, cav_indices=(0, 4))
        ids = [w.ids[5], w.ids[1], w.ids[5]]
        assert perceive_all(w, ids, 80.0) == [perceive(w, vid, 80.0) for vid in ids]
        assert perceive_all(w, [], 80.0) == []
        with pytest.raises(KeyError):
            perceive_all(w, [w.ids[0], "ghost"], 80.0)

    def test_far_leader_beyond_the_window_is_found(self):
        # sparse ring: the leader sits far past horizon + length
        w = uniform_ring_world(n=3, length=900.0)
        scene = perceive_all(w, [w.ids[0]], 10.0)[0]
        assert scene.leader_id == w.ids[1] and scene.neighbors == ()
        assert scene == reference_scene(w, w.ids[0], 10.0)


LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
SCENE_PIECES = [
    "[MAP] scenario=ring; route_length=230.00 m (cyclic); speed_limit=30.00 m/s; "
    "intersections=0",
    "[EGO] id=cav_00; speed=5.00 m/s; headway=110.00 m; leader=human_01; "
    "leader_speed=5.00 m/s",
    "[NEIGHBORS]", "[NEIGHBORS] ", "[NEIGHBORS] none", "none",
    "human_01:human gap=110.00 m speed=5.00 m/s", "cav_02:cav gap=3.5 m speed=0.25 m/s",
    "a:b:c gap=1 m speed=2 m/s", "x:y gap=1.2.3 m speed=4 m/s", "m/s", "; ", " ", ":",
    "[EGO] id=cav_00; speed=5.00 m/s; headway=-3.00 m; leader=human_01; "
    "leader_speed=5.00 m/s",
]
SCENE_TEXTS = st.lists(
    st.one_of(st.sampled_from(SCENE_PIECES + LINE_BREAKS), st.text(max_size=6)),
    max_size=24).map("".join)


GOOD_SCENE = "\n".join(SCENE_PIECES[:2] + ["[NEIGHBORS] none"])
# a number float() cannot read in each line the protocol reads back: the
# scripted backend raised ValueError on each, and now reads no such line
MALFORMED = [
    GOOD_SCENE.replace("speed=5.00", "speed=1.2.3", 1),
    GOOD_SCENE.replace("route_length=230.00", "route_length=1.2.3"),
    GOOD_SCENE + "\nRoute position: 1.2.3 m.",
    GOOD_SCENE + "\nstatus id=cav_01 position=1.2.3 speed=4.00",
    # at the line's end, a number stops where its digits and dots do
    "Speaking order: cav_00, cav_01.\n" + GOOD_SCENE
    + "\nstatus id=cav_01 position=3.00 speed=1.2.3",
]


def malformed_examples(test):
    """``test`` with an ``@example`` for each of :data:`MALFORMED`."""
    for text in MALFORMED:
        test = example(text)(test)
    return test


def outcome(fn, text):
    try:
        return "ok", fn(text)
    except Exception as exc:  # both parsers must fail alike, too
        return "raised", type(exc)


class TestParseSceneText:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(SCENE_TEXTS, st.text(max_size=60)))
    @malformed_examples
    def test_matches_the_line_by_line_parser(self, text):
        assert outcome(parse_scene_text, text) == outcome(reference_parse_scene_text, text)

    @settings(max_examples=100, deadline=None)
    @given(perception_worlds(), st.data())
    def test_reads_back_every_rendered_scene(self, w, data):
        # one more vehicle at an awkward gap ahead of the first, and awkward speeds
        rid = w.route_ids[0]
        route = w.network.route(rid)
        arc = float(w.arc[0]) + 5.0 + data.draw(st.one_of(st.floats(0.0, 150.0), TIES))
        if route.cyclic or arc < route.length:
            w.add_vehicle(dyn.VehicleState(
                id="ahead", route_id=rid, speed=0.0, length=5.0, kind="human",
                position=w.network.arc_to_lane(rid, arc % route.length),
                active_params=dyn.human_params(30.0)), 0.0)
        for i, speed in enumerate(data.draw(st.lists(st.one_of(st.none(), UNSIGNED_AWKWARD),
                                                     min_size=w.size, max_size=w.size))):
            if speed is not None:
                w.speed[i] = speed
        for scene in perceive_all(w, w.ids, 700.0):
            # an overlap ahead is a negative headway, which reads back too
            assert parse_scene_text(scene.text) == as_rendered(scene)

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_every_line_boundary(self, brk):
        head = SCENE_PIECES[0] + brk + SCENE_PIECES[1] + brk
        for text in (head + "[NEIGHBORS] human_01:human gap=1.00 m speed=2.00 m/s",
                     head + "x [NEIGHBORS] human_01:human gap=1.00 m speed=2.00 m/s",
                     head + "[NEIGHBORS] a:b gap=1 m speed=2 m/s" + brk
                     + "[NEIGHBORS] c:d gap=3 m speed=4 m/s" + brk + "e:f gap=5 m speed=6 m/s"):
            assert parse_scene_text(text) == reference_parse_scene_text(text)

    def test_several_lines_and_a_tag_mid_line(self):
        text = "\n".join(SCENE_PIECES[:2] + [
            "[NEIGHBORS] a:human gap=1.00 m speed=2.00 m/s",
            "see [NEIGHBORS] b:human gap=3.00 m speed=4.00 m/s",
            "[NEIGHBORS] c:cav gap=5.00 m speed=6.00 m/s; [NEIGHBORS] d:cav gap=7.00 m "
            "speed=8.00 m/s"])
        got = parse_scene_text(text)
        assert [n[0] for n in got.neighbors] == ["a", "c", "d"]
        assert got == reference_parse_scene_text(text)

    def test_no_scene(self):
        assert parse_scene_text("[NEIGHBORS] a:b gap=1 m speed=2 m/s") is None
        assert parse_scene_text("") is None


ROLE_PIECES = [f"Assigned role: {role}." for role in (*agent.ROLES, "pilot")]
COLLAB_PIECES = ["Speaking order: cav_00, cav_01, human_02.\n", "Route position: 12.50 m.",
                 "status id=cav_01 position=3.00 speed=4.00",
                 "status id=human_02 position=7.25 speed=0.50"]


@st.composite
def scripted_prompts(draw):
    """A rendered scene's lines among scene, role and status pieces, shuffled."""
    pieces = reference_scene_text(draw(scenes())).split("\n") + draw(st.lists(
        st.sampled_from(SCENE_PIECES + ROLE_PIECES + COLLAB_PIECES), max_size=6))
    return "".join(piece + draw(st.sampled_from(["\n", "\n", "\r\n", " "]))
                   for piece in draw(st.permutations(pieces)))


class _ComparingBackend:
    """The scripted backend, checked against the full-parse replies on every call."""

    name = "scripted"

    def __init__(self):
        self.inner = ScriptedBackend()
        self.kinds = set()  # (role, congested dampener) of the reason turns seen

    def complete(self, turns, *, agent_id, stage):
        text = "\n".join(t.content for t in turns)
        reply = self.inner.complete(turns, agent_id=agent_id, stage=stage)
        if stage == "collaboration":
            assert reply == reference_collaboration_turn(text, agent_id)
        else:
            assert reply == reference_reason_turn(text, agent_id)
            scene = parse_scene_text(text)
            role = reply[len("Role "):reply.index(".")]
            self.kinds.add((role, role == "wave_dampener"
                            and agent._congested(scene, scene.speed_limit)))
        return reply


class TestScriptedReplies:
    @settings(max_examples=150, deadline=None)
    @given(scripted_prompts())
    # a free road, then a neighbor entry whose gap float() cannot read: the
    # full parse raised ValueError where the header-first reply needs no neighbors
    @example("[MAP] scenario=ring; route_length=50.00 m open; speed_limit=30.00 m/s; "
             "intersections=0\n[EGO] id=cav_00; speed=0.00 m/s; headway=0.00 m; "
             "leader=none; leader_speed=0.00 m/s\n[NEIGHBORS] none\n"
             "[NEIGHBORS] x:y gap=1.2.3 m speed=4 m/s\n")
    @malformed_examples
    def test_header_first_replies_match_the_full_parse(self, text):
        backend = ScriptedBackend()
        assert backend._reason_turn(text, "cav_00") == reference_reason_turn(text, "cav_00")
        assert (backend._collaboration_turn(text, "cav_00")
                == reference_collaboration_turn(text, "cav_00"))

    def test_real_prompts_match_the_full_parse(self):
        backend = _ComparingBackend()
        for name, horizon in (("Ring 2", 30.0), ("FE 2", 15.0), ("Merge 2", 60.0)):
            cfg = sc.find(name)
            harness.run(cfg.replace(horizon_s=horizon, warmup_s=min(cfg.warmup_s, horizon / 2)),
                        backend)
        assert backend.kinds == {("wave_dampener", True), ("wave_dampener", False),
                                 ("leader", False), ("follower", False)}


class TestTemplates:
    def test_read_once_per_process(self, monkeypatch):
        first = agent._template("reason_system.txt")

        def no_reads(*_args, **_kwargs):
            raise AssertionError("template read from disk again")

        monkeypatch.setattr(agent.resources, "files", no_reads)
        assert agent._template("reason_system.txt") is first


class TestMemory:
    def test_empty_store(self):
        assert recall(MemoryStore(), "ring") == []

    def test_scenario_filter(self):
        store = MemoryStore([Experience("ring", None, "loop note"),
                             Experience("merge", None, "ramp note")])
        got = recall(store, "ring")
        assert [e.text for e in got] == ["loop note"]

    def test_role_matching_first_stable(self):
        store = MemoryStore([Experience("ring", None, "general"),
                             Experience("ring", "leader", "lead note"),
                             Experience("ring", None, "general 2")])
        got = recall(store, "ring", "leader")
        assert [e.text for e in got] == ["lead note", "general", "general 2"]

    def test_default_store_has_all_scenarios(self):
        store = MemoryStore.default()
        for tag in ("ring", "figure_eight", "merge"):
            assert recall(store, tag), tag

    def test_writeback(self, tmp_path):
        store = MemoryStore()
        store.add(Experience("ring", None, "summary"), persist_dir=tmp_path)
        files = list(tmp_path.glob("run_summary_*.json"))
        assert len(files) == 1
        assert json.loads(files[0].read_text())["text"] == "summary"
        reloaded = MemoryStore.from_dir(tmp_path)
        assert recall(reloaded, "ring")[0].text == "summary"

    def test_writeback_after_a_deletion_overwrites_nothing(self, tmp_path):
        store = MemoryStore()
        for text in ("first", "second", "third"):
            store.add(Experience("ring", None, text), persist_dir=tmp_path)
        (tmp_path / "run_summary_0000.json").unlink()
        store.add(Experience("ring", None, "fourth"), persist_dir=tmp_path)
        texts = {fp.name: json.loads(fp.read_text())["text"]
                 for fp in tmp_path.glob("run_summary_*.json")}
        assert texts == {"run_summary_0001.json": "second", "run_summary_0002.json": "third",
                         "run_summary_0003.json": "fourth"}

    def test_bad_tag_rejected(self):
        with pytest.raises(ValueError):
            Experience("motorway", None, "x")


class TestRoleBlock:
    def test_valid(self):
        text = f"queue up\n{agent.TERMINATOR}\n" + json.dumps(
            {"a": "leader", "b": "follower"})
        assert parse_role_block(text, {"a", "b"}) == {"a": "leader", "b": "follower"}

    def test_last_object_wins(self):
        text = (f"{agent.TERMINATOR}\n" + json.dumps({"a": "leader", "b": "leader"})
                + "\ncorrection:\n" + json.dumps({"a": "leader", "b": "follower"}))
        assert parse_role_block(text, {"a", "b"}) == {"a": "leader", "b": "follower"}

    @pytest.mark.parametrize("block", [
        {"a": "leader"},                      # missing vehicle
        {"a": "leader", "b": "pilot"},        # unknown role
        {"a": "leader", "b": "leader"},       # two leaders
        {"a": "leader", "b": "follower", "c": "follower"},  # extra vehicle
    ])
    def test_invalid_blocks(self, block):
        text = f"{agent.TERMINATOR}\n" + json.dumps(block)
        assert parse_role_block(text, {"a", "b"}) is None

    def test_no_terminator(self):
        assert parse_role_block("just chatting", {"a"}) is None

    def test_deeply_nested_reply_is_rejected(self):
        nested = '{"a":' * 100000 + '1' + '}' * 100000
        assert parse_role_block(f"{agent.TERMINATOR}\n{nested}", {"a"}) is None


class _SilentBackend:
    """Never terminates the discussion."""

    name = "silent"

    def complete(self, turns, *, agent_id, stage):
        return "thinking out loud"


class _CrashingBackend:
    name = "crashy"

    def complete(self, turns, *, agent_id, stage):
        raise RuntimeError("backend exploded")


# ids and texts built from the pieces the speaking order's scan looks for
ORDER_TEXT = st.lists(st.sampled_from(["Speaking order: ", "Speaking order:", ".\n", ".", "\n",
                                       ",", ", ", " ", "cav_01", "a.b", "x\ny", "é"]),
                      max_size=12).map("".join)


class TestSpeakingOrder:
    @settings(max_examples=300, deadline=None)
    @given(text=ORDER_TEXT)
    @example(text="Speaking order: .\n.\n")  # the list is at least one character
    @example(text="Speaking order: ")
    @example(text="x Speaking order: a.\nSpeaking order: b.\n")
    def test_equals_the_lazy_regex(self, text):
        m = ORDER_RE.search(text)
        assert agent._speaking_order(text) == (m.group(1) if m else None)


class TestMessagePool:
    @settings(max_examples=100, deadline=None)
    @given(messages=st.lists(st.tuples(st.text(max_size=6), st.integers(0, 3),
                                       st.text(max_size=12)), max_size=8))
    @example(messages=[(f"cav_{k:02d}", k // 2, content) for k, content in enumerate(
        ["hello", "status id=a position=1.00 speed=2.00", "two\nlines", "[ROLES FINAL]"])])
    @example(messages=[("", 0, "")])
    def test_rendered_follows_every_publish(self, messages):
        pool = MessagePool()
        assert pool.rendered() == "(none yet)"
        for sender, rnd, content in messages:
            pool.publish(Message(sender, rnd, content))
            # the join every turn made before the pool kept its text
            assert pool.rendered() == "\n".join(
                f"{m.sender} (round {m.round}): {m.content}" for m in pool.messages)


class TestBrainstorm:
    def scenes(self, tags_positions):
        return {vid: make_scene(ego_id=vid, scenario_tag=tag, position_arc=pos)
                for vid, (tag, pos) in tags_positions.items()}

    def test_single_cav_ring_finishes_round_one(self):
        pool = MessagePool()
        scenes = self.scenes({"cav_00": ("ring", 12.0)})
        roles = brainstorm(["cav_00"], pool, ScriptedBackend(), scenes, max_rounds=3)
        assert [r.role for r in roles] == ["wave_dampener"]
        assert len(pool.messages) == 1
        assert pool.messages[0].round == 0

    def test_seven_cavs_figure_eight_queue(self):
        ids = [f"cav_{i:02d}" for i in range(7)]
        positions = {vid: ("figure_eight", 10.0 * (i + 1)) for i, vid in enumerate(ids)}
        pool = MessagePool()
        roles = brainstorm(ids, pool, ScriptedBackend(), self.scenes(positions),
                           max_rounds=3)
        by_role = {}
        for r in roles:
            by_role.setdefault(r.role, []).append(r.vehicle_id)
        assert by_role["leader"] == ["cav_06"]  # greatest arc position
        assert len(by_role["follower"]) == 6

    def test_silent_backend_runs_full_rounds_then_fallback(self):
        ids = ["cav_00", "cav_01"]
        scenes = self.scenes({v: ("ring", 5.0) for v in ids})
        pool = MessagePool()
        flags = RunFlags()
        roles = brainstorm(ids, pool, _SilentBackend(), scenes, max_rounds=3,
                           flags=flags)
        assert len(pool.messages) == 3 * 2  # rounds x agents on the fallback path
        assert flags.brainstorm_fallbacks == 1
        assert {r.role for r in roles} == {"wave_dampener"}

    def test_crashing_backend_still_terminates(self):
        ids = ["cav_00", "cav_01", "cav_02"]
        scenes = self.scenes({v: ("figure_eight", float(i)) for i, v in enumerate(ids)})
        flags = RunFlags()
        roles = brainstorm(ids, MessagePool(), _CrashingBackend(), scenes,
                           max_rounds=2, flags=flags)
        assert flags.backend_errors == 6
        assert flags.brainstorm_fallbacks == 1
        # fallback still satisfies the role invariants
        assert sum(1 for r in roles if r.role == "leader") == 1

    def test_role_invariants_always_hold(self):
        for backend in (ScriptedBackend(), _SilentBackend(), _CrashingBackend()):
            ids = [f"cav_{i:02d}" for i in range(4)]
            scenes = self.scenes({v: ("figure_eight", float(i)) for i, v in enumerate(ids)})
            roles = brainstorm(ids, MessagePool(), backend, scenes, max_rounds=2)
            assert sorted(r.vehicle_id for r in roles) == ids
            assert sum(1 for r in roles if r.role == "leader") <= 1

    def test_requires_participants_and_rounds(self):
        with pytest.raises(ValueError):
            brainstorm([], MessagePool(), ScriptedBackend(), {}, max_rounds=1)
        with pytest.raises(ValueError):
            brainstorm(["a"], MessagePool(), ScriptedBackend(),
                       {"a": make_scene(ego_id="a")}, max_rounds=0)


class TestScriptedPolicy:
    def test_follower_constants(self):
        scene = make_scene(scenario_tag="figure_eight")
        planner = scripted_backend_policy("follower", scene)
        assert planner == PlannerSpec(v0=30.0, a_max=2.6, s0=0.5)

    def test_congested_dampener_matches_slow_leader(self):
        scene = make_scene(headway=5.0, ego_speed=8.0, leader_speed=2.0,
                           neighbors=(("human_01", "human", 5.0, 2.0),))
        planner = scripted_backend_policy("wave_dampener", scene)
        assert planner.v0 == pytest.approx(2.0)

    def test_free_dampener_drives_at_limit(self):
        scene = make_scene(headway=40.0, ego_speed=3.0, leader_speed=3.5,
                           neighbors=(("human_01", "human", 40.0, 3.5),))
        planner = scripted_backend_policy("wave_dampener", scene)
        assert planner.v0 == 30.0
        assert planner.s0 == 2.0

    def test_merge_dampener_keeps_rolling(self):
        scene = make_scene(scenario_tag="merge", cyclic=False, headway=4.0,
                           ego_speed=10.0, leader_speed=1.0,
                           neighbors=(("hw_001", "human", 4.0, 1.0),))
        planner = scripted_backend_policy("wave_dampener", scene)
        assert planner.v0 == pytest.approx(6.0)  # merge floor keeps the lane moving

    def test_leader_paces_by_own_slack(self):
        tight = make_scene(scenario_tag="figure_eight", headway=45.0)
        loose = make_scene(scenario_tag="figure_eight", headway=400.0)
        assert scripted_backend_policy("leader", tight).v0 == pytest.approx(2.0)
        assert scripted_backend_policy("leader", loose).v0 == pytest.approx(8.0)

    def test_no_scene_gives_role_default(self):
        planner = scripted_backend_policy("wave_dampener", None, speed_limit=30.0)
        assert planner.v0 == 30.0

    @settings(max_examples=40, deadline=None)
    @given(headway=st.floats(0.5, 300.0), ego=st.floats(0.0, 30.0),
           lead=st.floats(0.0, 30.0))
    def test_policy_is_pure(self, headway, ego, lead):
        scene = make_scene(headway=headway, ego_speed=ego, leader_speed=lead,
                           neighbors=(("human_01", "human", headway, lead),))
        assert (scripted_backend_policy("wave_dampener", scene)
                == scripted_backend_policy("wave_dampener", scene))


class TestPlannerClamp:
    @settings(max_examples=200, deadline=None)
    @given(v0=st.floats(allow_nan=True, allow_infinity=True),
           a=st.floats(allow_nan=True, allow_infinity=True),
           s0=st.floats(allow_nan=True, allow_infinity=True))
    def test_always_in_bounds(self, v0, a, s0):
        p = PlannerSpec.clamped(v0, a, s0, speed_limit=30.0)
        assert 0.0 < p.v0 <= 30.0
        assert 0.0 < p.a_max <= 3.0
        assert 0.5 <= p.s0 <= 10.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.one_of(
        st.integers(-3, 40), st.floats(-5.0, 40.0), st.sampled_from([0, 0.0, -0.0, 3, 3.0]),
        st.floats(allow_nan=True, allow_infinity=True))] * 4), min_size=1, max_size=4))
    def test_memos_match_uncached_construction(self, calls):
        # each call as drawn, with floats, with its zeros' signs flipped, then as
        # drawn again: a memo keyed without types or signs would hand back the
        # other kind's planner, and with it that planner's parameters and line
        def build(v0, a_max, s0, limit):
            return PlannerSpec(agent._box(v0, 0.1, limit), agent._box(a_max, 0.1, 3.0),
                               agent._box(s0, 0.5, 10.0))

        def merge(v0, a_max, s0):
            return dyn.IdmParams(v0=v0, T=dyn.FIXED_T, a_max=a_max, b=dyn.FIXED_B,
                                 delta=dyn.FIXED_DELTA, s0=s0)

        def json_line(v0, a_max, s0):
            v0, a_max, s0 = round(v0, 4), round(a_max, 4), round(s0, 4)
            return f'{{"v0": {v0!r}, "a_max": {a_max!r}, "s0": {s0!r}}}'

        flipped = [tuple(-x if x == 0 else x for x in a) for a in calls]
        for args in [*calls, *[tuple(map(float, a)) for a in calls], *flipped, *calls]:
            planner, want = PlannerSpec.clamped(*args), build(*args)
            assert repr(planner) == repr(want)
            triple = (want.v0, want.a_max, want.s0)
            assert planner.json_line == json_line(*triple)
            # IdmParams refuses a value <= 0 or NaN: both must raise alike then
            for p, t in ((planner, triple), (PlannerSpec(*args[:3]), args[:3])):
                assert repr(outcome(execute, p)) == repr(outcome(lambda t: merge(*t), t))


class _CannedBackend:
    """Returns queued replies; used to simulate remote models."""

    name = "canned"

    def __init__(self, replies):
        self.replies = list(replies)

    def complete(self, turns, *, agent_id, stage):
        if not self.replies:
            raise RuntimeError("out of canned replies")
        return self.replies.pop(0)


class TestReason:
    def test_scripted_follower(self):
        scene = make_scene(scenario_tag="figure_eight")
        planner = reason("follower", scene, [], ScriptedBackend())
        assert planner == PlannerSpec(v0=30.0, a_max=2.6, s0=0.5)

    def test_remote_clamped_to_limit(self):
        backend = _CannedBackend(['Sure! {"v0": 99, "a_max": 1.0, "s0": 2.0}'])
        planner = reason("wave_dampener", make_scene(), [], backend)
        assert planner.v0 == 30.0

    def test_retries_then_success(self):
        flags = RunFlags()
        backend = _CannedBackend(["no json here", '{"v0": 8, "a_max": 1, "s0": 2}'])
        planner = reason("wave_dampener", make_scene(), [], backend, flags=flags)
        assert planner.v0 == 8.0
        assert flags.parse_failures == 1
        assert flags.planner_fallbacks == 0

    def test_fallback_after_exhausted_retries(self):
        flags = RunFlags()
        backend = _CannedBackend(["a", "b", "c"])
        scene = make_scene(scenario_tag="figure_eight")
        planner = reason("follower", scene, [], backend, retries=2, flags=flags)
        assert planner == PlannerSpec(v0=30.0, a_max=2.6, s0=0.5)  # scripted default
        assert flags.parse_failures == 3
        assert flags.planner_fallbacks == 1

    def test_transport_failure_counts_and_falls_back(self):
        flags = RunFlags()
        planner = reason("wave_dampener", make_scene(), [], _CrashingBackend(),
                         retries=1, flags=flags)
        assert flags.backend_errors == 2
        assert flags.planner_fallbacks == 1
        assert 0 < planner.v0 <= 30.0

    @pytest.mark.parametrize("good, bad", [("speed=5.00", "speed=1.2.3"),
                                           ("route_length=230.00", "route_length=1.2.3")])
    def test_a_malformed_number_is_no_backend_error(self, good, bad):
        scene = make_scene()
        vars(scene)["text"] = scene.text.replace(good, bad, 1)
        flags = RunFlags()
        planner = reason("wave_dampener", scene, [], ScriptedBackend(), flags=flags)
        assert flags == RunFlags()  # backend_errors == 0, and no other degraded path
        assert planner == scripted_backend_policy("wave_dampener", None, speed_limit=30.0)

    def test_experiences_reach_the_prompt(self):
        seen = {}

        class Spy:
            name = "spy"

            def complete(self, turns, *, agent_id, stage):
                seen["prompt"] = "\n".join(t.content for t in turns)
                return '{"v0": 5, "a_max": 1, "s0": 2}'

        exps = [Experience("ring", None, "remember the buffer")]
        reason("wave_dampener", make_scene(), exps, Spy())
        assert "remember the buffer" in seen["prompt"]
        assert "## Role clarification" in seen["prompt"]
        assert "## Planner generation" in seen["prompt"]


class TestRunFlags:
    def test_dict_holds_every_field(self):
        flags = RunFlags(collision=True, backend_errors=3)
        assert list(flags.to_dict()) == [f.name for f in dataclasses.fields(RunFlags)]
        assert flags.to_dict() == {"collision": True, "brainstorm_fallbacks": 0,
                                   "planner_fallbacks": 0, "parse_failures": 0,
                                   "backend_errors": 3}


class TestExecute:
    def test_merges_with_fixed_constants(self):
        params = execute(PlannerSpec(v0=30.0, a_max=1.0, s0=2.0))
        assert params == dyn.human_params(30.0)

    def test_idempotent(self):
        p = PlannerSpec(v0=8.0, a_max=2.0, s0=1.0)
        assert execute(p) == execute(p)


class TestFallbackRoles:
    def test_figure_eight_front_most_leads(self):
        scenes = {f"cav_{i}": make_scene(ego_id=f"cav_{i}",
                                         scenario_tag="figure_eight",
                                         position_arc=float(i * 10))
                  for i in range(3)}
        roles = fallback_roles(scenes)
        assert roles["cav_2"] == "leader"
        assert sum(1 for r in roles.values() if r == "leader") == 1

    def test_ring_all_dampeners(self):
        scenes = {"a": make_scene(ego_id="a"), "b": make_scene(ego_id="b")}
        assert set(fallback_roles(scenes).values()) == {"wave_dampener"}

    @pytest.mark.parametrize("tag", ["figure_eight", "ring", "merge"])
    def test_scripted_brainstorm_and_fallback_share_one_rule(self, tag):
        # a tie at the front goes to the greatest id, in both
        positions = {"cav_00": 40.0, "cav_01": 12.5, "cav_02": 40.0, "cav_03": 7.0}
        scenes = {v: make_scene(ego_id=v, scenario_tag=tag, position_arc=pos)
                  for v, pos in positions.items()}
        agreed = brainstorm(sorted(positions), MessagePool(), ScriptedBackend(), scenes,
                            max_rounds=1)
        assert fallback_roles(scenes) == {a.vehicle_id: a.role for a in agreed}
        assert fallback_roles(scenes) == agent.allocate_roles(tag, positions)
        if tag == "figure_eight":
            assert [a.role for a in agreed] == ["follower", "follower", "leader", "follower"]
