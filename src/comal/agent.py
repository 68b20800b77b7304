"""The per-vehicle agent pipeline: perception, memory, collaboration,
reasoning, and execution binding.

Controlled vehicles render their surroundings into a fixed textual scene,
recall stored driving experience, brainstorm roles over a shared message
pool, and reason their way to a planner triple (v0, a_max, s0) that is
merged with the fixed car-following constants and installed as the
vehicle's active parameters. Backends are swappable: the scripted backend
implements the whole protocol deterministically from the prompt text, the
remote backend talks to a chat-completion endpoint, and the replay backend
serves recorded transcripts.
"""
from __future__ import annotations

import functools
import json
import math
import os
import pathlib
import re
from dataclasses import dataclass
from importlib import resources
from typing import Protocol

from . import dynamics as dyn
from . import network as net_mod
from .llm_client import (ChatTurn, PlannerParseError, _json_candidates,
                         extract_planner_json)

TEMPLATE_VERSION = "v1"
ROLES = ("leader", "follower", "wave_dampener")
TERMINATOR = "[ROLES FINAL]"

# scripted policy constants, validated by the benchmark experiments
FOLLOWER_A_MAX = 2.6
FOLLOWER_S0 = 0.5
LEADER_SLACK_PER_MS = 45.0  # m of free headway per m/s of leader pace
LEADER_V0_MIN = 2.0
LEADER_V0_MAX = 8.0
DAMPENER_FLOOR = {"merge": 6.0}  # m/s; default floor is 2.0
DAMPENER_FLOOR_DEFAULT = 2.0
DAMPENER_FREE_A_MAX = {"merge": 2.6}  # "fast out" on open highways
DAMPENER_FREE_A_MAX_DEFAULT = 0.5
DAMPENER_PACE_MARGIN = 0.5  # m/s under the local mean, opens an absorbing buffer
CONGESTION_SPEED_MARGIN = 1.0  # m/s below ego speed that flags congestion


@functools.cache
def _template(name: str) -> str:
    """A prompt template, read once per process from the package data."""
    ref = resources.files("comal") / "templates" / TEMPLATE_VERSION / name
    return ref.read_text(encoding="utf-8")


@dataclass(frozen=True)
class SceneDescription:
    """Deterministic textual rendering of the world around one vehicle.

    ``map_text``, ``ego_text`` and the neighbors line follow the versioned
    v1 template byte for byte; the structured fields carry the same data
    for policy code. ``position_arc`` is the ego's route arc (used by the
    collaboration protocol, not part of the rendered scene).
    """

    scenario_tag: str
    ego_id: str
    ego_speed: float
    headway: float  # m; +inf when nothing is ahead
    leader_id: str | None
    leader_speed: float
    speed_limit: float
    route_length: float
    cyclic: bool
    intersections: int
    position_arc: float
    neighbors: tuple[tuple[str, str, float, float], ...]  # (id, kind, gap, speed)

    @property
    def map_text(self) -> str:
        shape = "(cyclic)" if self.cyclic else "open"
        return (f"[MAP] scenario={self.scenario_tag}; "
                f"route_length={self.route_length:.2f} m {shape}; "
                f"speed_limit={self.speed_limit:.2f} m/s; "
                f"intersections={self.intersections}")

    @property
    def ego_text(self) -> str:
        leader = self.leader_id if self.leader_id is not None else "none"
        return (f"[EGO] id={self.ego_id}; speed={self.ego_speed:.2f} m/s; "
                f"headway={self.headway:.2f} m; leader={leader}; "
                f"leader_speed={self.leader_speed:.2f} m/s")

    @property
    def neighbors_text(self) -> str:
        if not self.neighbors:
            return "[NEIGHBORS] none"
        parts = [f"{vid}:{kind} gap={gap:.2f} m speed={speed:.2f} m/s"
                 for vid, kind, gap, speed in self.neighbors]
        return "[NEIGHBORS] " + "; ".join(parts)

    @property
    def text(self) -> str:
        return "\n".join((self.map_text, self.ego_text, self.neighbors_text))


def perceive(world, ego_id: str, horizon: float, index=None) -> SceneDescription:
    """Render the scene around ``ego_id``.

    Neighbors are the vehicles ahead on the ego route within ``horizon``
    meters of bumper gap, nearest first. Rendering is a pure function of
    the world state: identical worlds yield identical bytes.

    ``index`` is the world's current ``route_index()``; callers perceiving
    for many vehicles of one unchanged world build it once and pass it in.
    Perception then walks forward from the ego along its route's sorted
    order, so its cost grows with the vehicles it passes, not the world.
    """
    if ego_id not in world._index:
        raise KeyError(f"unknown vehicle {ego_id!r}")
    if index is None:
        index = world.route_index()
    i = world.index_of(ego_id)
    network = world.network
    route = network.route(world.route_ids[i])
    ego_arc = float(world.arc[i])
    order, arcs = index.order[route.id], index.arcs[route.id]
    k = int(index.rank[route.id][i])
    m = len(order)
    # Forward gaps only grow along the walk (route arcs are sorted, and a
    # cyclic route's arcs lie in [0, length)); a cyclic walk ends on the ego
    # itself, one full lap ahead. No vehicle's visible extent exceeds its
    # length, so once ``d - max_length`` passes the horizon no later vehicle
    # is a neighbor, and once ``d`` also passes the leader's none leads.
    walk = range(k + 1, k + 1 + m) if route.cyclic else range(k + 1, m)
    max_length = float(world.length.max())
    leader_j, leader_d = -1, math.inf
    neighbors = []
    for pos in walk:
        pos %= m
        j = int(order[pos])
        d = net_mod.forward_gap(route, ego_arc, float(arcs[pos]),
                                self_distance=(j == i))
        if d is None or d <= 0.0:
            continue
        if d > leader_d and d - max_length > horizon:
            break
        if d < leader_d or (d == leader_d and j < leader_j):  # as leader_of
            leader_j, leader_d = j, d
        if j == i:
            continue
        extent = net_mod.visible_extent(network, route, world.route_ids[j],
                                        float(world.arc[j]), float(world.length[j]))
        gap = d - extent
        if 0.0 < gap <= horizon:
            neighbors.append((world.ids[j], world.kinds[j], gap, float(world.speed[j])))
    if leader_j < 0:
        leader_id, headway, leader_speed = None, math.inf, 0.0
    else:
        extent = net_mod.visible_extent(network, route, world.route_ids[leader_j],
                                        float(world.arc[leader_j]),
                                        float(world.length[leader_j]))
        leader_id = world.ids[leader_j]
        headway = leader_d - extent
        leader_speed = float(world.speed[leader_j])
    neighbors.sort(key=lambda item: (item[2], item[0]))
    return SceneDescription(
        scenario_tag=network.kind,
        ego_id=ego_id,
        ego_speed=float(world.speed[i]),
        headway=headway,
        leader_id=leader_id,
        leader_speed=leader_speed,
        speed_limit=network.speed_limit,
        route_length=route.length,
        cyclic=route.cyclic,
        intersections=len(network.conflict_points),
        position_arc=ego_arc,
        neighbors=tuple(neighbors),
    )


_MAP_RE = re.compile(
    r"\[MAP\] scenario=(?P<tag>\w+); route_length=(?P<len>[\d.]+|inf) m "
    r"(?P<shape>\(cyclic\)|open); speed_limit=(?P<limit>[\d.]+) m/s; "
    r"intersections=(?P<nx>\d+)")
_EGO_RE = re.compile(
    r"\[EGO\] id=(?P<id>[^;\s]+); speed=(?P<speed>[\d.]+) m/s; "
    r"headway=(?P<headway>[\d.]+|inf) m; leader=(?P<leader>[^;\s]+); "
    r"leader_speed=(?P<lspeed>[\d.]+) m/s")
_NEIGHBOR_RE = re.compile(
    r"(\S+):(\w+) gap=([\d.]+) m speed=([\d.]+) m/s")


def parse_scene_text(text: str) -> SceneDescription | None:
    """Recover a SceneDescription from its v1 rendering.

    The scripted backend works entirely from prompt text, so it re-parses
    the same bytes a remote model would read. Returns None when the text
    carries no scene.
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
        scenario_tag=m_map.group("tag"),
        ego_id=m_ego.group("id"),
        ego_speed=float(m_ego.group("speed")),
        headway=float(m_ego.group("headway")),
        leader_id=None if leader == "none" else leader,
        leader_speed=float(m_ego.group("lspeed")),
        speed_limit=float(m_map.group("limit")),
        route_length=float(m_map.group("len")),
        cyclic=m_map.group("shape") == "(cyclic)",
        intersections=int(m_map.group("nx")),
        position_arc=0.0,
        neighbors=tuple(neighbors),
    )


# -- memory ------------------------------------------------------------------

@dataclass(frozen=True)
class Experience:
    """One stored piece of driving guidance."""

    scenario_tag: str
    role_tag: str | None
    text: str

    def __post_init__(self):
        if self.scenario_tag not in ("ring", "figure_eight", "merge"):
            raise ValueError(f"bad scenario tag {self.scenario_tag!r}")


class MemoryStore:
    """Experiences loaded at startup, queried by scenario and role.

    The optional write-back (appending a run summary as a new experience)
    is off unless a directory is passed explicitly.
    """

    def __init__(self, experiences=()):
        self._items = list(experiences)

    @classmethod
    def from_dir(cls, path) -> "MemoryStore":
        """Load every ``*.json`` experience in a directory, sorted by name.

        ``path`` may be a filesystem path or an importlib ``Traversable``.
        """
        root = pathlib.Path(path) if isinstance(path, (str, os.PathLike)) else path
        items = []
        for fp in sorted(root.iterdir(), key=lambda p: p.name):
            if fp.name.endswith(".json"):
                doc = json.loads(fp.read_text(encoding="utf-8"))
                items.append(Experience(doc["scenario_tag"], doc.get("role_tag"),
                                        doc["text"]))
        return cls(items)

    @classmethod
    def default(cls) -> "MemoryStore":
        return cls.from_dir(resources.files("comal") / "experiences")

    def add(self, experience: Experience, persist_dir=None) -> None:
        self._items.append(experience)
        if persist_dir is not None:
            d = pathlib.Path(persist_dir)
            d.mkdir(parents=True, exist_ok=True)
            n = len(list(d.glob("run_summary_*.json")))
            doc = {"scenario_tag": experience.scenario_tag,
                   "role_tag": experience.role_tag, "text": experience.text}
            (d / f"run_summary_{n:04d}.json").write_text(
                json.dumps(doc, indent=2), encoding="utf-8")

    def recall(self, scenario_tag: str, role_tag: str | None = None):
        matches = [e for e in self._items if e.scenario_tag == scenario_tag]
        if role_tag is None:
            return matches
        return sorted(matches, key=lambda e: e.role_tag != role_tag)


def recall(memory: MemoryStore, scenario_tag: str, role_tag: str | None = None):
    """Experiences for a scenario, role-matching entries first, stable order."""
    return memory.recall(scenario_tag, role_tag)


# -- collaboration -----------------------------------------------------------

@dataclass(frozen=True)
class Message:
    sender: str
    round: int
    content: str

    def __post_init__(self):
        if self.round < 0:
            raise ValueError("round must be >= 0")


class MessagePool:
    """Ordered public transcript of the brainstorming session."""

    def __init__(self):
        self.messages: list[Message] = []
        self.assignments: list[RoleAssignment] = []

    def publish(self, message: Message) -> None:
        self.messages.append(message)

    def latest(self, k: int) -> list[Message]:
        return self.messages[-k:]

    def rendered(self) -> str:
        if not self.messages:
            return "(none yet)"
        return "\n".join(f"{m.sender} (round {m.round}): {m.content}"
                         for m in self.messages)


@dataclass(frozen=True)
class RoleAssignment:
    vehicle_id: str
    role: str
    rationale: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"bad role {self.role!r}")


@dataclass(frozen=True)
class PlannerSpec:
    """The tunable controller triple emitted by the reason engine."""

    v0: float
    a_max: float
    s0: float

    @staticmethod
    def clamped(v0: float, a_max: float, s0: float, speed_limit: float) -> "PlannerSpec":
        """Force arbitrary numbers into the legal planner box."""
        def box(x, lo, hi):
            if not math.isfinite(x):
                return lo
            return min(max(x, lo), hi)
        return PlannerSpec(v0=box(v0, 0.1, speed_limit),
                           a_max=box(a_max, 0.1, 3.0),
                           s0=box(s0, 0.5, 10.0))


class ReasonBackend(Protocol):
    """The LLM-or-stand-in seam: turns in, next message text out."""

    name: str

    def complete(self, turns, *, agent_id: str, stage: str) -> str: ...


@dataclass
class RunFlags:
    """Counters for degraded paths, attached to every run record."""

    collision: bool = False
    brainstorm_fallbacks: int = 0
    planner_fallbacks: int = 0
    parse_failures: int = 0
    backend_errors: int = 0

    def to_dict(self) -> dict:
        return {"collision": self.collision,
                "brainstorm_fallbacks": self.brainstorm_fallbacks,
                "planner_fallbacks": self.planner_fallbacks,
                "parse_failures": self.parse_failures,
                "backend_errors": self.backend_errors}


def parse_role_block(text: str, expected_ids: set[str]) -> dict[str, str] | None:
    """Validate a terminator message's assignment block.

    The block is the last JSON object after the terminator mapping every
    expected vehicle to a valid role with at most one leader. Returns None
    when anything about it is off.
    """
    idx = text.find(TERMINATOR)
    if idx < 0:
        return None
    tail = text[idx + len(TERMINATOR):]
    block = None
    for candidate in _json_candidates(tail):
        try:
            block = json.loads(candidate)
        except (ValueError, RecursionError):
            pass
    if not isinstance(block, dict):
        return None
    if set(block) != expected_ids:
        return None
    if not all(isinstance(r, str) and r in ROLES for r in block.values()):
        return None
    if sum(1 for r in block.values() if r == "leader") > 1:
        return None
    return dict(block)


def fallback_roles(scene_per_cav: dict[str, SceneDescription]) -> dict[str, str]:
    """Deterministic role allocation when brainstorming fails.

    Figure-eight: the front-most vehicle by arc position leads a queue;
    everyone else follows. Ring and merge: every vehicle damps waves.
    """
    ids = sorted(scene_per_cav)
    tag = scene_per_cav[ids[0]].scenario_tag if ids else "ring"
    if tag == "figure_eight":
        front = max(ids, key=lambda v: (scene_per_cav[v].position_arc, v))
        return {v: ("leader" if v == front else "follower") for v in ids}
    return {v: "wave_dampener" for v in ids}


def brainstorm(cav_ids, pool: MessagePool, backend: ReasonBackend,
               scene_per_cav: dict[str, SceneDescription], max_rounds: int,
               flags: RunFlags | None = None) -> list[RoleAssignment]:
    """Round-robin brainstorming over the shared pool until roles are final.

    Each turn the speaking agent sees the whole transcript plus its own
    scene. The session ends when a message carries the terminator token and
    a valid assignment block; after ``max_rounds`` full rounds the scripted
    fallback allocation applies and the run is flagged.
    """
    ids = list(cav_ids)
    if not ids:
        raise ValueError("brainstorm needs at least one participant")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    flags = flags if flags is not None else RunFlags()
    turn_tpl = _template("collab_turn.txt")
    sys_tpl = _template("collab_system.txt")
    expected = set(ids)
    for rnd in range(max_rounds):
        for agent_id in ids:
            scene = scene_per_cav[agent_id]
            system = sys_tpl.format(agent_id=agent_id, participants=", ".join(ids))
            user = turn_tpl.format(scene=scene.text,
                                   position=f"{scene.position_arc:.2f}",
                                   transcript=pool.rendered(), agent_id=agent_id)
            turns = [ChatTurn("system", system), ChatTurn("user", user)]
            try:
                reply = backend.complete(turns, agent_id=agent_id, stage="collaboration")
            except Exception:
                flags.backend_errors += 1
                reply = "[backend error: no message]"
            pool.publish(Message(agent_id, rnd, reply))
            if TERMINATOR in reply:
                block = parse_role_block(reply, expected)
                if block is not None:
                    assignments = [
                        RoleAssignment(v, block[v],
                                       f"agreed in brainstorming round {rnd}")
                        for v in ids]
                    pool.assignments = assignments
                    return assignments
    flags.brainstorm_fallbacks += 1
    roles = fallback_roles(scene_per_cav)
    assignments = [RoleAssignment(v, roles[v], "scripted fallback allocation")
                   for v in ids]
    pool.assignments = assignments
    return assignments


# -- scripted policy ---------------------------------------------------------

def scripted_backend_policy(role: str, scene: SceneDescription | None,
                            speed_limit: float | None = None) -> PlannerSpec:
    """Deterministic planner policy per role.

    Followers chase the queue with minimal spacing and brisk acceleration.
    The leader paces itself by its own free headway so the queue compacts
    before it speeds up. Wave dampeners classify the road ahead: congested
    (leader clearly slower, or gap below the desired gap at current speed)
    means matching the pace of the visible platoon ahead; free means
    driving at the limit with scenario-tuned acceleration.
    """
    limit = speed_limit if speed_limit is not None else (
        scene.speed_limit if scene is not None else 30.0)
    if role == "follower":
        return PlannerSpec.clamped(limit, FOLLOWER_A_MAX, FOLLOWER_S0, limit)
    if role == "leader":
        if scene is None or not math.isfinite(scene.headway):
            v0 = LEADER_V0_MAX
        else:
            v0 = min(max(scene.headway / LEADER_SLACK_PER_MS, LEADER_V0_MIN),
                     LEADER_V0_MAX)
        return PlannerSpec.clamped(v0, 1.0, 2.0, limit)
    # wave dampener
    tag = scene.scenario_tag if scene is not None else "ring"
    free_a = DAMPENER_FREE_A_MAX.get(tag, DAMPENER_FREE_A_MAX_DEFAULT)
    if scene is None or scene.leader_id is None or not math.isfinite(scene.headway):
        return PlannerSpec.clamped(limit, free_a, 2.0, limit)
    params = dyn.human_params(limit)
    congested = (scene.leader_speed < scene.ego_speed - CONGESTION_SPEED_MARGIN
                 or scene.headway < dyn.desired_gap(params, scene.ego_speed, 0.0))
    if not congested:
        return PlannerSpec.clamped(limit, free_a, 2.0, limit)
    if scene.neighbors:
        target = sum(n[3] for n in scene.neighbors) / len(scene.neighbors)
    else:
        target = scene.leader_speed
    floor = DAMPENER_FLOOR.get(tag, DAMPENER_FLOOR_DEFAULT)
    return PlannerSpec.clamped(max(floor, target - DAMPENER_PACE_MARGIN),
                               1.0, 2.0, limit)


class ScriptedBackend:
    """Deterministic stand-in for the language model.

    Works purely from the prompt text, exactly like a remote model would:
    it re-parses the rendered scene, publishes status messages carrying its
    route position, and the last speaker of round one gathers everyone's
    position and publishes the final role assignment.
    """

    name = "scripted"

    _STATUS_RE = re.compile(r"status id=(\S+) position=([\d.]+) speed=([\d.]+)")
    _ORDER_RE = re.compile(r"Speaking order: (.+?)\.\n", re.S)
    _POSITION_RE = re.compile(r"Route position: ([\d.]+) m\.")
    _ROLE_RE = re.compile(r"Assigned role: (\w+)\.")

    def complete(self, turns, *, agent_id: str, stage: str) -> str:
        text = "\n".join(t.content for t in turns)
        if stage == "collaboration":
            return self._collaboration_turn(text, agent_id)
        return self._reason_turn(text, agent_id)

    def _collaboration_turn(self, text: str, agent_id: str) -> str:
        scene = parse_scene_text(text)
        m_order = self._ORDER_RE.search(text)
        participants = ([p.strip() for p in m_order.group(1).split(",")]
                        if m_order else [agent_id])
        m_pos = self._POSITION_RE.search(text)
        own_pos = float(m_pos.group(1)) if m_pos else 0.0
        own_speed = scene.ego_speed if scene is not None else 0.0
        statuses = {vid: (float(pos), float(spd))
                    for vid, pos, spd in self._STATUS_RE.findall(text)}
        statuses[agent_id] = (own_pos, own_speed)
        if len(statuses) < len(participants):
            return (f"status id={agent_id} position={own_pos:.2f} "
                    f"speed={own_speed:.2f}")
        tag = scene.scenario_tag if scene is not None else "ring"
        if tag == "figure_eight":
            front = max(participants, key=lambda v: (statuses.get(v, (0.0, 0.0))[0], v))
            roles = {v: ("leader" if v == front else "follower")
                     for v in participants}
            plan = ("We form a single queue: the front vehicle paces the group "
                    "and everyone else holds tight behind it.")
        else:
            roles = {v: "wave_dampener" for v in participants}
            plan = ("No fixed queue here: each of us smooths the flow around "
                    "itself and soaks up any wave it meets.")
        return f"{plan}\n{TERMINATOR}\n{json.dumps(roles, sort_keys=True)}"

    def _reason_turn(self, text: str, agent_id: str) -> str:
        m_role = self._ROLE_RE.search(text)
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
        doc = json.dumps({"v0": round(planner.v0, 4),
                          "a_max": round(planner.a_max, 4),
                          "s0": round(planner.s0, 4)})
        return f"Role {role}. {note}\n{doc}"


# -- reasoning and execution --------------------------------------------------

def reason(role: str, scene: SceneDescription | None, experiences,
           backend: ReasonBackend, *, speed_limit: float | None = None,
           retries: int = 2, flags: RunFlags | None = None) -> PlannerSpec:
    """Run the four-stage reasoning chain and extract the planner triple.

    The staged prompt (role clarification, scene understanding, motion
    instruction, planner generation) goes out as one completion; the reply
    must contain a JSON planner object. After ``retries`` extra attempts
    the role's scripted default applies and the run is flagged.
    """
    flags = flags if flags is not None else RunFlags()
    limit = speed_limit if speed_limit is not None else (
        scene.speed_limit if scene is not None else 30.0)
    agent_id = scene.ego_id if scene is not None else "ego"
    exp_text = "\n".join(f"- {e.text}" for e in experiences) or "(none)"
    user = _template("reason_user.txt").format(
        agent_id=agent_id, role=role,
        rationale="Act accordingly.",
        scene=scene.text if scene is not None else "(scene unavailable)",
        experiences=exp_text)
    turns = [ChatTurn("system", _template("reason_system.txt")),
             ChatTurn("user", user)]
    for _ in range(retries + 1):
        try:
            reply = backend.complete(turns, agent_id=agent_id, stage="reason")
        except Exception:
            flags.backend_errors += 1
            continue
        try:
            values = extract_planner_json(reply)
        except PlannerParseError:
            flags.parse_failures += 1
            continue
        return PlannerSpec.clamped(values["v0"], values["a_max"], values["s0"], limit)
    flags.planner_fallbacks += 1
    return scripted_backend_policy(role, scene, speed_limit=limit)


def execute(planner: PlannerSpec,
            fixed: tuple[float, float, float] = (dyn.FIXED_T, dyn.FIXED_B,
                                                 dyn.FIXED_DELTA)) -> dyn.IdmParams:
    """Merge the planner triple with the fixed car-following constants."""
    T, b, delta = fixed
    return dyn.IdmParams(v0=planner.v0, T=T, a_max=planner.a_max, b=b,
                         delta=delta, s0=planner.s0)
