"""Perception rendering, memory recall, collaboration, reasoning, execution."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comal import agent
from comal import dynamics as dyn
from comal import network as net
from comal.agent import (Experience, MemoryStore, Message, MessagePool,
                         PlannerSpec, RoleAssignment, RunFlags, SceneDescription,
                         ScriptedBackend, brainstorm, execute, fallback_roles,
                         parse_role_block, perceive, reason, recall,
                         scripted_backend_policy)
from comal.llm_client import ChatTurn

from helpers import uniform_ring_world


def make_scene(**kw):
    base = dict(scenario_tag="ring", ego_id="cav_00", ego_speed=5.0,
                headway=20.0, leader_id="human_01", leader_speed=5.0,
                speed_limit=30.0, route_length=230.0, cyclic=True,
                intersections=0, position_arc=0.0,
                neighbors=(("human_01", "human", 20.0, 5.0),))
    base.update(kw)
    return SceneDescription(**base)


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


PROPERTY_NETWORKS = {
    "ring": net.build_ring(230.0, 30.0),
    "figure_eight": net.build_figure_eight(30.0, 30.0),
    "merge": net.build_merge(600.0, 100.0, 30.0),
}


@st.composite
def perception_worlds(draw):
    """Small worlds with shared arcs and vehicles straddling the merge junction."""
    network = PROPERTY_NETWORKS[draw(st.sampled_from(sorted(PROPERTY_NETWORKS)))]
    junctions = {rid: arc for cp in network.conflict_points for rid, arc in cp.points}
    used = {rid: [] for rid in network.routes}
    w = dyn.World(network, seed=0)
    for k in range(draw(st.integers(1, 12))):
        rid = draw(st.sampled_from(sorted(network.routes)))
        length = network.route(rid).length
        options = [st.floats(0.0, length, exclude_max=True)]
        if used[rid]:
            options.append(st.sampled_from(used[rid]))
        if rid in junctions:
            options.append(st.floats(-8.0, 8.0).map(
                lambda dx, at=junctions[rid]: min(max(at + dx, 0.0), length - 1e-6)))
        arc = draw(st.one_of(options))
        used[rid].append(arc)
        w.add_vehicle(dyn.VehicleState(
            id=f"v{k:02d}", route_id=rid, position=network.arc_to_lane(rid, arc),
            speed=draw(st.floats(0.0, 30.0)),
            length=draw(st.sampled_from([2.0, 5.0, 7.5, 12.0])),
            kind=draw(st.sampled_from(["human", "cav"])),
            active_params=dyn.human_params(30.0)), 0.0)
    return w


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

    @settings(max_examples=100, deadline=None)
    @given(perception_worlds())
    def test_route_index_matches_projecting_every_vehicle(self, w):
        index = w.route_index()
        for route in w.network.routes.values():
            idxs, arcs = [], []
            for j in range(w.size):
                a = net.project_onto_route(w.network, route, w.route_ids[j],
                                           float(w.arc[j]))
                if a is not None:
                    idxs.append(j)
                    arcs.append(a)
            by_arc = np.argsort(np.asarray(arcs, dtype=float), kind="stable")
            expected = np.asarray(idxs, dtype=np.intp)[by_arc]
            assert index.order[route.id].tolist() == expected.tolist()
            assert index.arcs[route.id].tolist() == np.asarray(arcs)[by_arc].tolist()
            ranks = index.rank[route.id]
            assert [int(ranks[j]) for j in expected] == list(range(len(expected)))
            assert int((ranks >= 0).sum()) == len(expected)

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

    def test_full_lap_tie_goes_to_the_lowest_index(self):
        # one ulp behind the ego, the other vehicle's forward gap rounds to a
        # full lap: it ties with the ego chasing itself, and index 0 wins
        network = PROPERTY_NETWORKS["ring"]
        w = dyn.World(network, seed=0)
        for vid, arc in (("ego", 100.0), ("behind", math.nextafter(100.0, 0.0))):
            w.add_vehicle(dyn.VehicleState(
                id=vid, route_id="loop", position=network.arc_to_lane("loop", arc),
                speed=4.0, length=5.0, kind="cav",
                active_params=dyn.human_params(30.0)), 0.0)
        assert net.forward_gap(network.route("loop"), w.arc[0], w.arc[1]) == 230.0
        assert perceive(w, "ego", 10.0, w.route_index()).leader_id == "ego"
        assert_indexed_matches_reference(w, [0.0, 300.0])

    def test_without_index_builds_its_own(self):
        w = uniform_ring_world(n=9, cav_indices=(0, 4))
        for vid in w.ids:
            assert perceive(w, vid, 80.0) == perceive(w, vid, 80.0, w.route_index())


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
