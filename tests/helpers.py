"""Shared builders for tests."""
import csv
import io
import itertools
import json
import math
import operator
import re

import numpy as np
from hypothesis import strategies as st

from comal import dynamics as dyn
from comal import kernels
from comal import network as net
from comal.harness import TrajectorySamples
from comal.llm_client import PlannerParseError
from comal.agent import (ROLES, TERMINATOR, SceneDescription, allocate_roles,
                         scripted_backend_policy)

# The prompt lines as the references read them, spelled out apart from the
# declarations in ``agent``, so that a slip in those cannot move both sides
# of a property. A number is what float() reads, unsigned; a run of digits
# and dots that float() cannot read is no number at all. Only the headway
# is signed: an ego that overlaps its leader has a negative one.
MAP_RE = re.compile(
    r"\[MAP\] scenario=(\w+); route_length=(\d+\.?\d*|\.\d+|inf) m (\(cyclic\)|open); "
    r"speed_limit=(\d+\.?\d*|\.\d+) m/s; intersections=(\d+)")
EGO_RE = re.compile(
    r"\[EGO\] id=([^;\s]+); speed=(\d+\.?\d*|\.\d+) m/s; "
    r"headway=(-?(?:\d+\.?\d*|\.\d+)|inf) m; "
    r"leader=([^;\s]+); leader_speed=(\d+\.?\d*|\.\d+) m/s")
NEIGHBOR_RE = re.compile(r"(\S+):(\w+) gap=(\d+\.?\d*|\.\d+) m speed=(\d+\.?\d*|\.\d+) m/s")
STATUS_RE = re.compile(
    r"status id=(\S+) position=(\d+\.?\d*|\.\d+) speed=(\d+\.?\d*|\.\d+)(?![\d.])")
POSITION_RE = re.compile(r"Route position: (\d+\.?\d*|\.\d+) m\.")
ROLE_RE = re.compile(r"Assigned role: (\w+)\.")
ORDER_RE = re.compile(r"Speaking order: (.+?)\.\n", re.S)


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


def idm_args(p):
    """The IDM kernel's keywords, all derived here from the parameter columns ``p``."""
    return dict(v0=p["v0"], T=p["T"], a_max=p["a_max"], delta=p["delta"], s0=p["s0"],
                two_sqrt_ab=2.0 * np.sqrt(p["a_max"] * p["b"]),
                delta_is_4=bool(np.all(p["delta"] == 4.0)))


def reference_step(world, dt):
    """``dynamics.step`` as it read the table afresh every step.

    The retired step body, kept as the reference that the step reading the
    table's derived values must reproduce bit for bit. Whether the network
    is closed, the leader mask, ``2*sqrt(a_max*b)``, the ``delta`` test,
    the noisy mask, the row numbers and the noise scale are all computed
    here from the table, as are the noise draws and the sink removal
    (:func:`reference_noise`, :func:`reference_remove_finished`), so no
    value the world derives reaches this step. Gating runs the retired
    passes (:func:`reference_update_reservations`,
    :func:`reference_virtual_gaps`) in place of ``World._gate``.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    index = None
    if not (not world.inflows and bool(world._cyclic.all())):
        index = world._process_arrivals()
        world.rebuild_links(index)
    dist, views = {}, {}
    if world.reservations:
        dist = world._gate_distances(index or world.route_index())
        views = reference_update_reservations(world, dist)
    n = world.size
    world.step_count += 1
    world.time = round(world.step_count * dt, 9)
    if n == 0:
        return

    v = world.speed
    lead = world.lead_idx
    has_lead = lead >= 0
    lead_speed = np.where(has_lead, v[lead], v)
    gap = np.where(has_lead, world.gap, np.inf)
    world._check_gaps()

    dv = v - lead_speed
    acc = kernels.idm_acceleration(v, dv, gap, **idm_args(world._p))
    cap = kernels.safe_speed(gap, lead_speed, dt, world.b_max)

    vgap = reference_virtual_gaps(world, dist, views)
    if vgap is not None:
        acc_v = kernels.idm_acceleration(v, v, vgap, **idm_args(world._p))
        acc = np.minimum(acc, acc_v)
        cap = np.minimum(cap, kernels.safe_speed(vgap, np.zeros(n), dt, world.b_max))

    noise = reference_noise(world, dt)
    if noise is not None:
        acc = acc + noise

    v_new = np.maximum(0.0, v + acc * dt)
    v_new = np.minimum(v_new, np.maximum(cap, 0.0))

    world.arc += v_new * dt
    over = world._cyclic & (world.arc >= world._route_len)
    if over.any():
        world.arc[over] -= world._route_len[over]
    world.speed[:] = v_new
    world.gap += np.where(has_lead, v_new[lead] - v_new, 0.0) * dt
    world._check_gaps()
    reference_remove_finished(world)


def reference_update_reservations(world, dist):
    """The retired gating passes: release, enrol, drop and promote, each point
    on a (holder, holder key, waiting) view of its queue, written back head
    first. Returns the views."""
    views = {}
    for cp in world.network.conflict_points:
        queue = world.reservations[cp.id]
        holder, holder_key = next(iter(queue.items()), (None, None))
        waiting = {vid: key for vid, key in queue.items() if vid != holder}
        # release a holder whose rear has cleared the point (or vanished)
        if holder is not None:
            hi = world._index.get(holder)
            # NaN (off the route) compares false, so it clears too
            if hi is None or not dist[holder_key][hi] >= -world.length[hi]:
                holder = holder_key = None
        # enroll vehicles inside the approach window, in arrival order
        # (index order among those arriving in the same step)
        inside = [(-world.length <= dist[key]) & (dist[key] <= cp.window)
                  for key in cp.points]
        for i in np.flatnonzero(np.logical_or.reduce(inside)):
            vid = world.ids[i]
            if vid != holder and vid not in waiting:
                waiting[vid] = next(key for key, m in zip(cp.points, inside) if m[i])
        # drop waiting vehicles that left the window region or the world
        waiting = {vid: key for vid, key in waiting.items()
                   if (j := world._index.get(vid)) is not None
                   and dist[key][j] >= -world.length[j]}
        if holder is None and waiting:
            holder, holder_key = next(iter(waiting.items()))
            del waiting[holder]
        views[cp.id] = holder, holder_key, waiting
        world.reservations[cp.id] = ({} if holder is None else {holder: holder_key}) | waiting
    return views


def reference_virtual_gaps(world, dist, views):
    """The retired virtual-gap pass over the views of
    :func:`reference_update_reservations`: the distance to a held conflict
    point, seen as a stopped leader; inf where unconstrained, None when no
    point is held."""
    vgap = None
    for cp in world.network.conflict_points:
        holder = views[cp.id][0]
        if holder is None:
            continue
        if vgap is None:
            vgap = np.full(world.size, np.inf)
        not_holder = np.ones(world.size, dtype=bool)
        not_holder[world._index[holder]] = False
        for key in cp.points:
            d = dist[key]
            vgap = np.where(not_holder & (d > 0.0), np.minimum(vgap, d), vgap)
    return vgap


def reference_noise(world, dt):
    """``World._noise`` one vehicle at a time, on the same noise clock."""
    noisy = [std > 0.0 for std in world._noise_std.tolist()]
    if not any(noisy):
        return None
    if world._noise_at == dyn._NOISE_BLOCK:
        for i in range(world.size):
            if noisy[i]:
                world._noise_block[i] = world.noise[i].block(dyn._NOISE_BLOCK)
        world._noise_at = 0
    out = np.array([world._noise_block[i, world._noise_at]
                    * (world._noise_std[i] / math.sqrt(dt)) for i in range(world.size)])
    world._noise_at += 1
    return out


def reference_remove_finished(world):
    """``World._remove_finished`` as it compacted the rows, then renumbered the links."""
    if world._cyclic.all():
        return
    done = ~world._cyclic & (world.arc >= world._route_len)
    if not done.any():
        return
    keep = ~done
    world.removed_count += int(done.sum())
    n = int(keep.sum())
    for col in world._store.values():
        col[:n] = col[:keep.size][keep]
    for name in dyn._LISTS:
        setattr(world, name, [v for v, k in zip(getattr(world, name), keep) if k])
    world._bind()
    linked = (world.lead_idx >= 0) & keep[world.lead_idx]
    world.lead_idx[:] = np.where(linked, np.cumsum(keep)[world.lead_idx] - 1, -1)
    world.gap[~linked] = np.inf
    world._index = {vid: i for i, vid in enumerate(world.ids)}


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


def failsafe_speed(v, gap, leader_speed, dt, b_max):
    """``v`` capped so braking at b_max always stops the ego behind its leader.

    The scalar reference of ``kernels.safe_speed`` as the step applies it:
    the leader brakes no harder than b_max, one step of reaction delay is
    budgeted, and a negative gap counts as none.
    """
    bd = b_max * dt
    v_safe = -bd + math.sqrt(bd * bd + leader_speed * leader_speed
                             + 2.0 * b_max * max(gap, 0.0))
    return min(v, max(v_safe, 0.0))


def params_of(world, vehicle_id):
    """The ``IdmParams`` in ``world``'s parameter columns for one vehicle."""
    i = world.index_of(vehicle_id)
    return dyn.IdmParams(**{k: float(col[i]) for k, col in world._p.items()})


def sample_rows(cols):
    """Every sample of the ``TrajectorySamples`` ``cols`` as a ``(time,
    vehicle_id, position, speed)`` tuple, in step order, then vehicle order."""
    return [(time, vid, x, v)
            for time, ids, pos, speed in zip(cols.times, cols.ids, cols.positions, cols.speeds)
            for vid, x, v in zip(ids, pos.tolist(), speed.tolist())]


def planner_rows(log):
    """Every planner of a run's ``planner_log`` columns as one dict of its
    six fields, in install order."""
    return [dict(zip(log, fields)) for fields in zip(*log.values())]


def sample_columns(rows):
    """``TrajectorySamples`` of ``(time, vehicle_id, position, speed)`` rows,
    one step per run of equal times."""
    cols = TrajectorySamples()
    for time, group in itertools.groupby(rows, key=operator.itemgetter(0)):
        _, ids, pos, speed = zip(*group)
        cols.append(time, list(ids), pos, speed)
    return cols


def reference_trajectories_csv(samples) -> bytes:
    """trajectories.csv of the ``TrajectorySamples`` ``samples``, written one
    ``csv.writer`` row per sample.

    This is the per-sample export the step-at-a-time writer in
    ``harness.export`` must reproduce byte for byte.
    """
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["time", "vehicle_id", "position", "speed"])
    for time, vid, x, v in sample_rows(samples):
        writer.writerow([repr(time), vid, repr(x), repr(v)])
    return buf.getvalue().encode("utf-8")


def reference_parse_scene_text(text):
    """``agent.parse_scene_text`` as it read the neighbors: one line at a time.

    Splits the whole text with ``str.splitlines`` and reads every line that
    starts with ``[NEIGHBORS]``; the parser must agree with it on every str.
    """
    m_map = MAP_RE.search(text)
    m_ego = EGO_RE.search(text)
    if not m_map or not m_ego:
        return None
    neighbors = []
    for line in text.splitlines():
        if line.startswith("[NEIGHBORS]"):
            for vid, kind, gap, speed in NEIGHBOR_RE.findall(line):
                neighbors.append((vid, kind, float(gap), float(speed)))
    tag, route_length, shape, limit, nx = m_map.groups()
    ego_id, speed, headway, leader, leader_speed = m_ego.groups()
    return SceneDescription(
        scenario_tag=tag, ego_id=ego_id, ego_speed=float(speed), headway=float(headway),
        leader_id=None if leader == "none" else leader, leader_speed=float(leader_speed),
        speed_limit=float(limit), route_length=float(route_length),
        cyclic=shape == "(cyclic)", intersections=int(nx),
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


def reference_extract_planner_json(text):
    """``llm_client.extract_planner_json`` as it parsed every candidate afresh.

    The memoised version must return what this returns, or raise alike, on
    every text."""
    found = None
    for candidate in reference_json_candidates(text or ""):
        try:
            doc = json.loads(candidate)
        except (ValueError, RecursionError):
            continue
        if not isinstance(doc, dict):
            continue
        values = {}
        for k in ("v0", "a_max", "s0"):
            v = doc.get(k)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                break
            values[k] = float(v)
        else:
            found = values
    if found is None:
        raise PlannerParseError("no JSON object with numeric v0, a_max, s0")
    return found


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
    m_role = ROLE_RE.search(text)
    role = m_role.group(1) if m_role and m_role.group(1) in ROLES else "wave_dampener"
    scene = reference_parse_scene_text(text)
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
    scene = reference_parse_scene_text(text)
    m_order = ORDER_RE.search(text)
    m_pos = POSITION_RE.search(text)
    own_pos = float(m_pos.group(1)) if m_pos else 0.0
    own_speed = scene.ego_speed if scene is not None else 0.0
    status = f"status id={agent_id} position={own_pos:.2f} speed={own_speed:.2f}"
    if m_order and text.count("status id=") + 1 < m_order.group(1).count(",") + 1:
        return status
    participants = ([p.strip() for p in m_order.group(1).split(",")]
                    if m_order else [agent_id])
    statuses = {vid: (float(pos), float(spd))
                for vid, pos, spd in STATUS_RE.findall(text)}
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
