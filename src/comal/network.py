"""Road-network geometry and route arithmetic.

Three benchmark topologies are supported: a circular ring, a figure-eight
(two loops sharing a crossing), and a highway with an on-ramp merge. All
positions are continuous arc lengths in meters; a route is an ordered edge
chain, optionally cyclic. Conflict points mark route locations that occupy
the same physical spot (the figure-eight crossing, the merge junction).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Edge:
    """Directed road segment. Lengths and limits are strictly positive."""

    id: str
    length: float  # m
    speed_limit: float  # m/s

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"edge {self.id!r}: length must be > 0, got {self.length}")
        if self.speed_limit <= 0:
            raise ValueError(f"edge {self.id!r}: speed_limit must be > 0, got {self.speed_limit}")


@dataclass(frozen=True)
class LanePosition:
    """A point on the network: an edge plus an offset from its start."""

    edge_id: str
    offset: float  # m, in [0, edge.length)


@dataclass(frozen=True)
class Route:
    """Ordered chain of edges. Cyclic routes close back on their first edge.

    ``edge_starts`` maps each edge to its arc position along the route, so a
    LanePosition converts to a route arc in O(1). An edge may appear at most
    once per route.
    """

    id: str
    edge_ids: tuple[str, ...]
    cyclic: bool
    length: float
    edge_starts: dict[str, float] = field(repr=False)

    def arc_of(self, pos: LanePosition) -> float:
        """Route arc length of a lane position. Raises if off this route."""
        if pos.edge_id not in self.edge_starts:
            raise ValueError(f"position on edge {pos.edge_id!r} is not on route {self.id!r}")
        return self.edge_starts[pos.edge_id] + pos.offset


class NetworkSpec:
    """Immutable network: edges, routes, and conflict points.

    ``kind`` is the scenario topology tag ("ring", "figure_eight" or
    "merge") used by perception rendering.
    """

    def __init__(self, kind: str, edges: list[Edge], routes: list[Route],
                 conflict_points: list["ConflictPoint"]):
        self.kind = kind
        self.edges = {e.id: e for e in edges}
        if len(self.edges) != len(edges):
            raise ValueError("duplicate edge ids")
        self.routes = {r.id: r for r in routes}
        if len(self.routes) != len(routes):
            raise ValueError("duplicate route ids")
        self.conflict_points = tuple(conflict_points)
        for cp in self.conflict_points:
            for route_id, arc in cp.points:
                route = self.routes.get(route_id)
                if route is None:
                    raise ValueError(f"conflict point {cp.id!r} references unknown route {route_id!r}")
                if not 0 <= arc <= route.length:
                    raise ValueError(f"conflict point {cp.id!r} arc {arc} outside route {route_id!r}")

    def route(self, route_id: str) -> Route:
        return self.routes[route_id]

    @property
    def speed_limit(self) -> float:
        """Common speed limit (all benchmark networks are homogeneous)."""
        return next(iter(self.edges.values())).speed_limit

    def arc_to_lane(self, route_id: str, arc: float) -> LanePosition:
        """Convert a route arc (wrapped if cyclic) to an edge/offset pair."""
        route = self.routes[route_id]
        if route.cyclic:
            arc = arc % route.length
        if not 0 <= arc <= route.length:
            raise ValueError(f"arc {arc} outside route {route_id!r} of length {route.length}")
        for edge_id in route.edge_ids:
            start = route.edge_starts[edge_id]
            length = self.edges[edge_id].length
            if arc < start + length:
                return LanePosition(edge_id, arc - start)
        # arc == route.length on an open route: clamp to the very end
        last = route.edge_ids[-1]
        return LanePosition(last, self.edges[last].length)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "edges": [
                {"id": e.id, "length": e.length, "speed_limit": e.speed_limit}
                for e in self.edges.values()
            ],
            "routes": [
                {"id": r.id, "edges": list(r.edge_ids), "cyclic": r.cyclic, "length": r.length}
                for r in self.routes.values()
            ],
            "conflict_points": [
                {"id": cp.id, "points": [[rid, arc] for rid, arc in cp.points], "window": cp.window}
                for cp in self.conflict_points
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


@dataclass(frozen=True)
class ConflictPoint:
    """Set of (route id, arc) locations that share one physical spot.

    ``window`` is the approach distance (m) within which a vehicle may claim
    the point under first-come-first-served gating.
    """

    id: str
    points: tuple[tuple[str, float], ...]
    window: float = 10.0


def _make_route(route_id: str, edges: list[Edge], cyclic: bool) -> Route:
    starts: dict[str, float] = {}
    arc = 0.0
    for e in edges:
        if e.id in starts:
            raise ValueError(f"edge {e.id!r} repeated in route {route_id!r}")
        starts[e.id] = arc
        arc += e.length
    return Route(id=route_id, edge_ids=tuple(e.id for e in edges), cyclic=cyclic,
                 length=arc, edge_starts=starts)


def build_ring(length: float, speed_limit: float) -> NetworkSpec:
    """Single circular lane of the given length with one cyclic route."""
    if length <= 0:
        raise ValueError(f"ring length must be > 0, got {length}")
    edge = Edge("ring", length, speed_limit)
    route = _make_route("loop", [edge], cyclic=True)
    return NetworkSpec("ring", [edge], [route], [])


def build_figure_eight(loop_radius: float, speed_limit: float) -> NetworkSpec:
    """Two equal circular loops joined at a single crossing point.

    The cyclic route runs the full left loop, passes the crossing, runs the
    full right loop and returns to the crossing: total length 4*pi*r. The
    crossing is one conflict point visited at arcs 0 and 2*pi*r.
    """
    if loop_radius <= 0:
        raise ValueError(f"loop radius must be > 0, got {loop_radius}")
    loop_len = 2.0 * math.pi * loop_radius
    left = Edge("loop_left", loop_len, speed_limit)
    right = Edge("loop_right", loop_len, speed_limit)
    route = _make_route("eight", [left, right], cyclic=True)
    crossing = ConflictPoint("crossing", (("eight", 0.0), ("eight", loop_len)))
    return NetworkSpec("figure_eight", [left, right], [route], [crossing])


def build_merge(highway_length: float, ramp_length: float, speed_limit: float,
                junction_position: float | None = None) -> NetworkSpec:
    """Highway with an on-ramp joining it at a junction.

    Two open routes share the downstream edge: the highway runs source to
    sink, the ramp joins at ``junction_position`` (defaults to two thirds of
    the highway). The junction is the single conflict point.
    """
    if highway_length <= 0 or ramp_length <= 0:
        raise ValueError("highway and ramp lengths must be > 0")
    if junction_position is None:
        junction_position = highway_length * 2.0 / 3.0
    if not 0 < junction_position < highway_length:
        raise ValueError(f"junction at {junction_position} must lie inside the highway")
    upstream = Edge("highway_upstream", junction_position, speed_limit)
    ramp = Edge("ramp", ramp_length, speed_limit)
    downstream = Edge("highway_downstream", highway_length - junction_position, speed_limit)
    highway_route = _make_route("highway", [upstream, downstream], cyclic=False)
    ramp_route = _make_route("ramp", [ramp, downstream], cyclic=False)
    junction = ConflictPoint(
        "junction", (("highway", junction_position), ("ramp", ramp_length)))
    return NetworkSpec("merge", [upstream, ramp, downstream],
                       [highway_route, ramp_route], [junction])


def arc_distance(frm: LanePosition, to: LanePosition, route: Route) -> float | None:
    """Forward distance in meters from ``frm`` to ``to`` along the route.

    Cyclic routes wrap, so the result lies in [0, route length). On open
    routes a target behind the origin has no forward distance; ``None`` is
    returned and callers must handle it. Positions off the route raise.
    """
    return forward_gap(route, route.arc_of(frm), route.arc_of(to))


def forward_gap(route: Route, from_arc: float, to_arc: float, self_distance: bool = False) -> float | None:
    """Forward arc distance between two route arcs.

    With ``self_distance`` a zero separation on a cyclic route reads as one
    full lap (a vehicle chasing itself around the loop).
    """
    if route.cyclic:
        d = (to_arc - from_arc) % route.length
        if d == 0.0 and self_distance:
            return route.length
        return d
    if to_arc < from_arc:
        return None
    return to_arc - from_arc


def project_onto_route(network: NetworkSpec, route: Route, other_route_id: str,
                       other_arc: float | np.ndarray) -> float | np.ndarray | None:
    """Arc of a position from another route as seen on ``route``.

    Returns ``None`` when the position's edge is not part of ``route``
    (vehicles on a converging edge are invisible until the shared segment).
    ``other_arc`` may be an array of arcs on the one other route: the result
    is then an array, NaN where a position is off ``route``, each element
    what the scalar call gives for it.
    """
    if other_route_id == route.id:
        return other_arc
    if isinstance(other_arc, np.ndarray):
        return np.array([_project(network, route, other_route_id, a)
                         for a in other_arc.tolist()], dtype=float)
    arc = _project(network, route, other_route_id, other_arc)
    return None if math.isnan(arc) else arc


def _project(network: NetworkSpec, route: Route, other_route_id: str,
             other_arc: float) -> float:
    """:func:`project_onto_route` of one arc from another route, NaN for none."""
    lane = network.arc_to_lane(other_route_id, other_arc)
    start = route.edge_starts.get(lane.edge_id)
    return math.nan if start is None else start + lane.offset


def visible_extent(network: NetworkSpec, ego_route: Route, leader_route_id: str,
                   leader_arc: float, leader_length: float) -> float:
    """Meters of a leader's body, back from its front, lying on the ego route.

    A vehicle straddling a junction onto a shared edge blocks the ego lane
    only from the junction onward; its rear still sits on the other roadway.
    On the leader's own route this is simply its full length.
    """
    if leader_route_id == ego_route.id:
        return leader_length
    lroute = network.route(leader_route_id)
    lane = network.arc_to_lane(leader_route_id, leader_arc)
    idx = lroute.edge_ids.index(lane.edge_id)
    offset = lane.offset
    extent = 0.0
    remaining = leader_length
    while remaining > 0:
        if lroute.edge_ids[idx] not in ego_route.edge_starts:
            break
        take = min(offset, remaining)
        extent += take
        remaining -= take
        if remaining <= 0:
            break
        idx -= 1
        if idx < 0:
            if not lroute.cyclic:
                break
            idx = len(lroute.edge_ids) - 1
        offset = network.edges[lroute.edge_ids[idx]].length
    return extent


def leader_of(vehicle_id: str, world) -> tuple[str, float] | None:
    """Nearest vehicle ahead along the ego route and the bumper gap to it.

    The gap is arc distance minus the leader's visible length (its body
    portion on the ego route). On a cyclic route a lone vehicle leads itself
    (gap = route length - own length). Returns ``None`` on open networks
    when nothing is ahead.
    """
    net = world.network
    i = world.index_of(vehicle_id)
    route = net.route(world.route_ids[i])
    ego_arc = world.arc[i]
    best_d = math.inf
    best_j = -1
    for j in range(world.size):
        arc_j = project_onto_route(net, route, world.route_ids[j], world.arc[j])
        if arc_j is None:
            continue
        d = forward_gap(route, ego_arc, arc_j, self_distance=(j == i))
        if d is None or d <= 0.0:
            continue
        if d < best_d:
            best_d = d
            best_j = j
    if best_j < 0:
        return None
    extent = visible_extent(net, route, world.route_ids[best_j],
                            float(world.arc[best_j]), float(world.length[best_j]))
    return world.ids[best_j], best_d - extent
