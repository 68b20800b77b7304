"""Shared builders for tests."""
import csv
import io
import json

import numpy as np
from hypothesis import strategies as st

from comal import dynamics as dyn
from comal import network as net
from comal.agent import (_EGO_RE, _MAP_RE, _NEIGHBOR_RE, ROLES, TERMINATOR,
                         SceneDescription, ScriptedBackend, allocate_roles,
                         parse_scene_text, scripted_backend_policy)


def uniform_ring_world(n=22, length=230.0, speed_limit=30.0, noise_std=0.0,
                       seed=0, cav_indices=(), vehicle_length=5.0):
    """Evenly spaced vehicles on a ring at the gap's equilibrium speed.

    Links are installed with one exact gap value per vehicle, the same way
    scenario instantiation does it.
    """
    network = net.build_ring(length, speed_limit)
    params = dyn.human_params(speed_limit)
    spacing = length / n
    veq = dyn.equilibrium_speed(params, spacing - vehicle_length)
    w = dyn.World(network, seed=seed)
    for i in range(n):
        kind = "cav" if i in cav_indices else "human"
        state = dyn.VehicleState(
            id=f"{kind}_{i:02d}", route_id="loop",
            position=network.arc_to_lane("loop", i * spacing),
            speed=veq, length=vehicle_length, kind=kind, active_params=params)
        w.add_vehicle(state, noise_std if kind == "human" else 0.0)
    w.rebuild_links()
    w.set_links(w.lead_idx, np.full(n, spacing - vehicle_length))
    return w


PROPERTY_NETWORKS = {
    "ring": net.build_ring(230.0, 30.0),
    "figure_eight": net.build_figure_eight(30.0, 30.0),
    "merge": net.build_merge(600.0, 100.0, 30.0),
}


@st.composite
def perception_worlds(draw, min_vehicles=1):
    """Small worlds with shared arcs and vehicles straddling the merge junction.

    With few vehicles a loop often holds one alone and a merge route none.
    """
    network = PROPERTY_NETWORKS[draw(st.sampled_from(sorted(PROPERTY_NETWORKS)))]
    junctions = {rid: arc for cp in network.conflict_points for rid, arc in cp.points}
    used = {rid: [] for rid in network.routes}
    w = dyn.World(network, seed=0)
    for k in range(draw(st.integers(min_vehicles, 12))):
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


def reference_links(world, index):
    """Leader links and bumper gaps derived one vehicle at a time.

    Each vehicle's leader is the next rank of ``index`` on its own route
    (wrapping on a loop, where a lone vehicle chases itself; none for the
    front of an open route), its gap the forward arc in Python floats less
    the leader's ``network.visible_extent``. This is the per-vehicle
    reference ``World.rebuild_links`` must reproduce bit for bit. Returns
    ``(lead_idx, gap)`` arrays and leaves the world alone.
    """
    lead_idx = np.full(world.size, -1, dtype=np.intp)
    gap = np.full(world.size, np.inf)
    for i in range(world.size):
        rid = world.route_ids[i]
        route = world.network.route(rid)
        idxs, arcs = index.order[rid], index.arcs[rid]
        k = int(index.rank[rid][i])
        k_lead = (k + 1) % len(idxs) if route.cyclic else k + 1
        if k_lead == len(idxs):
            continue  # front of an open route: nothing ahead
        j = int(idxs[k_lead])
        if j == i:  # alone on the loop: it chases itself
            lead_idx[i] = i
            gap[i] = route.length - float(world.length[i])
            continue
        d = float(arcs[k_lead]) - float(arcs[k])
        if route.cyclic:
            d %= route.length
        lead_idx[i] = j
        gap[i] = d - net.visible_extent(world.network, route, world.route_ids[j],
                                        float(world.arc[j]), float(world.length[j]))
    return lead_idx, gap


def reference_route_index(world):
    """``World.route_index`` built one vehicle at a time.

    Every vehicle is projected onto every route with a scalar
    ``network.project_onto_route`` call; those that land are sorted by arc,
    ties in index order, and given their length on their own route and
    ``network.visible_extent`` on another. This is the per-vehicle loop the
    grouped index must reproduce bit for bit.
    """
    n = world.size
    positions = list(zip(world.route_ids, world.arc.tolist(), world.length.tolist()))
    order, arcs, rank, extent = {}, {}, {}, {}
    for route in world.network.routes.values():
        idxs, proj, ext = [], [], []
        for j, (rid, arc, length) in enumerate(positions):
            a = net.project_onto_route(world.network, route, rid, arc)
            if a is not None:
                idxs.append(j)
                proj.append(a)
                ext.append(length if rid == route.id else
                           net.visible_extent(world.network, route, rid, arc, length))
        by_arc = np.argsort(np.asarray(proj, dtype=float), kind="stable")
        order[route.id] = np.asarray(idxs, dtype=np.intp)[by_arc]
        arcs[route.id] = np.asarray(proj, dtype=float)[by_arc]
        extent[route.id] = np.asarray(ext, dtype=float)[by_arc]
        rank[route.id] = np.full(n, -1, dtype=np.intp)
        rank[route.id][order[route.id]] = np.arange(len(idxs))
    return dyn.RouteIndex(order, arcs, rank, extent)


def assert_index_matches_reference(world):
    """``world.route_index()`` equals :func:`reference_route_index`, every
    array of every route bit for bit."""
    got, want = world.route_index(), reference_route_index(world)
    for name in ("order", "arcs", "rank", "extent"):
        a, b = getattr(got, name), getattr(want, name)
        assert list(a) == list(b), name
        for rid in b:
            assert (a[rid].dtype, a[rid].tobytes()) == (b[rid].dtype, b[rid].tobytes()), (
                name, rid)


def signed_dist_to(world, i, route_id, cp_arc):
    """Signed forward distance from vehicle i's front to an arc on a route.

    Negative once the front has passed; cyclic distances wrap into
    (-L/2, L/2]. ``None`` if the vehicle is not on that route. This is the
    per-vehicle reference the vectorized gate distances are checked against.
    """
    route = world.network.route(route_id)
    proj = net.project_onto_route(world.network, route, world.route_ids[i],
                                  float(world.arc[i]))
    if proj is None:
        return None
    if route.cyclic:
        d = (cp_arc - proj) % route.length
        if d > route.length / 2.0:
            d -= route.length
        return d
    return cp_arc - proj


def reference_trajectories_csv(samples) -> bytes:
    """trajectories.csv written one ``csv.writer`` row per sample.

    This is the per-sample export the step-at-a-time writer in
    ``harness.export`` must reproduce byte for byte.
    """
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["time", "vehicle_id", "position", "speed"])
    for s in samples:
        writer.writerow([repr(s.time), s.vehicle_id, repr(s.position), repr(s.speed)])
    return buf.getvalue().encode("utf-8")


def reference_parse_scene_text(text):
    """``agent.parse_scene_text`` as it read the neighbors: one line at a time.

    Splits the whole text with ``str.splitlines`` and reads every line that
    starts with ``[NEIGHBORS]``; the parser must agree with it on every str.
    """
    m_map = _MAP_RE.search(text)
    m_ego = _EGO_RE.search(text)
    if not m_map or not m_ego:
        return None
    neighbors = []
    for line in text.splitlines():
        if line.startswith("[NEIGHBORS]"):
            for vid, kind, gap, speed in _NEIGHBOR_RE.findall(line):
                neighbors.append((vid, kind, float(gap), float(speed)))
    leader = m_ego.group("leader")
    return SceneDescription(
        scenario_tag=m_map.group("tag"), ego_id=m_ego.group("id"),
        ego_speed=float(m_ego.group("speed")), headway=float(m_ego.group("headway")),
        leader_id=None if leader == "none" else leader,
        leader_speed=float(m_ego.group("lspeed")),
        speed_limit=float(m_map.group("limit")), route_length=float(m_map.group("len")),
        cyclic=m_map.group("shape") == "(cyclic)", intersections=int(m_map.group("nx")),
        position_arc=0.0, neighbors=tuple(neighbors))


def reference_json_candidates(text):
    """Balanced top-level ``{...}`` spans, found one character at a time."""
    depth = 0
    start = -1
    for i, ch in enumerate(text):
        if ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}" and depth > 0:
            depth -= 1
            if depth == 0:
                yield text[start:i + 1]


def reference_scene_text(scene):
    """A scene's v1 text with every field formatted on its own.

    This is the per-field renderer that the table-driven one in ``agent``
    must reproduce byte for byte, ``-0.0`` rendering as ``-0.00``.
    """
    shape = "(cyclic)" if scene.cyclic else "open"
    map_text = (f"[MAP] scenario={scene.scenario_tag}; "
                f"route_length={scene.route_length:.2f} m {shape}; "
                f"speed_limit={scene.speed_limit:.2f} m/s; "
                f"intersections={scene.intersections}")
    leader = scene.leader_id if scene.leader_id is not None else "none"
    ego_text = (f"[EGO] id={scene.ego_id}; speed={scene.ego_speed:.2f} m/s; "
                f"headway={scene.headway:.2f} m; leader={leader}; "
                f"leader_speed={scene.leader_speed:.2f} m/s")
    if not scene.neighbors:
        neighbors_text = "[NEIGHBORS] none"
    else:
        parts = [f"{vid}:{kind} gap={gap:.2f} m speed={speed:.2f} m/s"
                 for vid, kind, gap, speed in scene.neighbors]
        neighbors_text = "[NEIGHBORS] " + "; ".join(parts)
    return "\n".join((map_text, ego_text, neighbors_text))


def reference_reason_turn(text, agent_id):
    """``ScriptedBackend``'s reason reply from a full parse of the scene.

    The backend reads the neighbors only when the policy will; it must give
    this reply for every text.
    """
    m_role = ScriptedBackend._ROLE_RE.search(text)
    role = m_role.group(1) if m_role and m_role.group(1) in ROLES else "wave_dampener"
    scene = parse_scene_text(text)
    planner = scripted_backend_policy(role, scene)
    if scene is None:
        note = "No scene available; using the role's default plan."
    elif scene.leader_id is None:
        note = "Open road ahead; cruising at the limit."
    else:
        note = (f"Leader {scene.leader_id} at {scene.headway:.2f} m doing "
                f"{scene.leader_speed:.2f} m/s.")
    v0, a_max, s0 = round(planner.v0, 4), round(planner.a_max, 4), round(planner.s0, 4)
    doc = f'{{"v0": {v0!r}, "a_max": {a_max!r}, "s0": {s0!r}}}'
    return f"Role {role}. {note}\n{doc}"


def reference_collaboration_turn(text, agent_id):
    """``ScriptedBackend``'s collaboration reply from a full parse of the scene."""
    scene = parse_scene_text(text)
    m_order = ScriptedBackend._ORDER_RE.search(text)
    m_pos = ScriptedBackend._POSITION_RE.search(text)
    own_pos = float(m_pos.group(1)) if m_pos else 0.0
    own_speed = scene.ego_speed if scene is not None else 0.0
    status = f"status id={agent_id} position={own_pos:.2f} speed={own_speed:.2f}"
    if m_order and text.count("status id=") + 1 < m_order.group(1).count(",") + 1:
        return status
    participants = ([p.strip() for p in m_order.group(1).split(",")]
                    if m_order else [agent_id])
    statuses = {vid: (float(pos), float(spd))
                for vid, pos, spd in ScriptedBackend._STATUS_RE.findall(text)}
    statuses[agent_id] = (own_pos, own_speed)
    if len(statuses) < len(participants):
        return status
    tag = scene.scenario_tag if scene is not None else "ring"
    roles = allocate_roles(tag, {v: statuses.get(v, (0.0, 0.0))[0] for v in participants})
    if tag == "figure_eight":
        plan = ("We form a single queue: the front vehicle paces the group "
                "and everyone else holds tight behind it.")
    else:
        plan = ("No fixed queue here: each of us smooths the flow around "
                "itself and soaks up any wave it meets.")
    return f"{plan}\n{TERMINATOR}\n{json.dumps(roles, sort_keys=True)}"
