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
from dataclasses import dataclass, fields
from importlib import resources
from typing import Protocol

import numpy as np

from . import dynamics as dyn
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


def _memoized(build):
    """``build`` memoized on its positional arguments, keyed by type and value.

    The key is typed, so an int never stands in for a float. A call with a
    zero argument is built afresh: ``-0.0 == 0.0`` as a key, yet the two
    are different values.
    """
    cached = functools.lru_cache(maxsize=1024, typed=True)(build)
    return lambda *args: cached(*args) if all(args) else build(*args)


# -- the v1 prompt lines -----------------------------------------------------

# unsigned, as float() reads it, to the end of its digits and dots: "1.2.3" is no number
_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?!\d|\.)"
_REAL, _REAL_OR_INF = ("%.2f", _NUMBER), ("%.2f", _NUMBER + "|inf")
_HEADWAY = ("%.2f", "-?" + _NUMBER + "|inf")  # negative where the ego overlaps its leader


class _Line:
    """A line that the prompt protocol both writes and reads, declared once:
    ``template`` with a ``{name}`` slot per field, each field a ``(%-format,
    pattern)`` pair. ``format`` is the line as a ``%``-format string and
    ``pattern`` its compiled regex, one group per field, both in slot order."""

    def __init__(self, template: str, **fields):
        parts = list(enumerate(re.split(r"\{(\w+)\}", template)))  # literal, field, ...
        self.format = "".join(fields[p][0] if k % 2 else p for k, p in parts)
        self.pattern = re.compile("".join(f"({fields[p][1]})" if k % 2 else re.escape(p)
                                          for k, p in parts))


_MAP = _Line("[MAP] scenario={tag}; route_length={route_length} m {shape}; "
             "speed_limit={speed_limit} m/s; intersections={intersections}",
             tag=("%s", r"\w+"), route_length=_REAL_OR_INF, shape=("%s", r"\(cyclic\)|open"),
             speed_limit=_REAL, intersections=("%d", r"\d+"))
_EGO = _Line("[EGO] id={id}; speed={speed} m/s; headway={headway} m; leader={leader}; "
             "leader_speed={leader_speed} m/s",
             id=("%s", r"[^;\s]+"), speed=_REAL, headway=_HEADWAY,
             leader=("%s", r"[^;\s]+"), leader_speed=_REAL)
_NEIGHBOR = _Line("{id}:{kind} gap={gap} m speed={speed} m/s",  # one [NEIGHBORS] entry
                  id=("%s", r"\S+"), kind=("%s", r"\w+"), gap=_REAL, speed=_REAL)
_STATUS = _Line("status id={id} position={position} speed={speed}",
                id=("%s", r"\S+"), position=_REAL, speed=_REAL)
_POSITION = _Line("Route position: {position} m.", position=_REAL)
_NEIGHBORS_TAG = "[NEIGHBORS]"
_HEAD, _GAP, _TAIL = _NEIGHBOR.format.partition(_REAL[0])  # around the gap, the first number
_STATUS_HEAD = _STATUS.format.partition("%")[0]  # "status id="
_ORDER_HEAD = "Speaking order: "


def _speaking_order(text: str) -> str | None:
    r"""The participant list after the first ``"Speaking order: "``, up to the
    first ``".\n"`` that starts at least one character later; None without
    either. This is group 1 of ``re.search(r"Speaking order: (.+?)\.\n",
    text, re.S)``, found without walking the list in the regex engine.
    """
    start = text.find(_ORDER_HEAD)
    if start < 0:
        return None
    start += len(_ORDER_HEAD)
    end = text.find(".\n", start + 1)
    return None if end < 0 else text[start:end]


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
        return _map_line(self.scenario_tag, self.route_length, self.cyclic,
                         self.speed_limit, self.intersections)

    @property
    def ego_text(self) -> str:
        leader = self.leader_id if self.leader_id is not None else "none"
        return _EGO.format % (self.ego_id, self.ego_speed, self.headway, leader,
                              self.leader_speed)

    @property
    def neighbors_text(self) -> str:
        """The ``[NEIGHBORS]`` line, each neighbor's row its place in ``neighbors``."""
        nb = self.neighbors
        return _neighbors_lines([[(n[2], n[0], k) for k, n in enumerate(nb)]],
                                [n[0] for n in nb], [n[1] for n in nb], [n[3] for n in nb])[0]

    @functools.cached_property
    def text(self) -> str:
        """The whole rendering, built on first use and kept with the scene.

        :func:`perceive_all` fills it in as it perceives the scene."""
        return _render(self.map_text, self.ego_text, self.neighbors_text)


def _scene(**fields) -> SceneDescription:
    """A scene built by filling its ``__dict__`` with ``fields``, every one
    of them: what the frozen ``__init__`` stores, at about a third of its cost."""
    scene = object.__new__(SceneDescription)
    vars(scene).update(fields)
    return scene


def _map_line(tag, route_length, cyclic, speed_limit, intersections) -> str:
    shape = "(cyclic)" if cyclic else "open"
    return _MAP.format % (tag, route_length, shape, speed_limit, intersections)


def _neighbors_lines(nears, ids, kinds, speeds) -> list[str]:
    """The ``[NEIGHBORS]`` line of each of ``nears``, lists of (gap, id, row)
    in listing order, whose rows index ``ids``, ``kinds`` and ``speeds``.

    Each listed row's entry head (``id:kind gap=``) and tail (`` m speed=…
    m/s; ``, the separator included) is built once, keyed by row, never by
    speed: ``-0.0 == 0.0``, yet they render apart. Each line is then one
    join of its entries' pieces (head, gap, tail), gathered by row from one
    list."""
    rows = [j for near in nears for _, _, j in near]
    listed = set(rows)
    head = {j: _HEAD % (ids[j], kinds[j]) for j in listed}
    tail = {j: (_TAIL + "; ") % speeds[j] for j in listed}
    pieces = [""] * (3 * len(rows))
    pieces[0::3] = [head[j] for j in rows]
    pieces[1::3] = [_GAP % gap for near in nears for gap, _, _ in near]
    pieces[2::3] = [tail[j] for j in rows]
    lines, at = [], 0
    for near in nears:
        if near:
            end = at + 3 * len(near)
            lines.append(_NEIGHBORS_TAG + " " + "".join(pieces[at:end])[:-2])  # the last "; "
            at = end
        else:
            lines.append(_NEIGHBORS_TAG + " none")
    return lines


def _render(map_line: str, ego_line: str, neighbors_line: str) -> str:
    """The v1 scene text: the one renderer of every scene."""
    return f"{map_line}\n{ego_line}\n{neighbors_line}"


def perceive(world, ego_id: str, horizon: float, index=None) -> SceneDescription:
    """Render the scene around ``ego_id``: :func:`perceive_all` for one vehicle."""
    return perceive_all(world, [ego_id], horizon, index)[0]


def perceive_all(world, ego_ids, horizon: float, index=None) -> list[SceneDescription]:
    """Render the scene around each vehicle of ``ego_ids``, in that order.

    The leader is the one leader links take (``RouteIndex.leader``): the
    next vehicle in the ego route's (arc, index) order, even at an equal
    arc; alone on a loop, the ego leads itself one lap ahead. Neighbors are
    the vehicles ahead within ``horizon`` meters of bumper gap, nearest
    first. Rendering is a pure function of the world state: identical
    worlds yield identical bytes.

    ``index`` is the world's current ``route_index()``, built when omitted.
    The egos of one route are perceived together, in one pass of numpy over
    their neighbor windows of the route's sorted order (see ``_perceive_route``).
    Each scene's text is rendered in the same pass, from the ``[MAP]`` line
    built once per route and from tables built once per pass, keyed by
    vehicle row, of every listed neighbor's entry (see :func:`_neighbors_lines`).
    """
    egos = []
    for vid in ego_ids:
        if vid not in world._index:
            raise KeyError(f"unknown vehicle {vid!r}")
        egos.append(world.index_of(vid))
    if index is None:
        index = world.route_index()
    by_route: dict[str, list[int]] = {}
    for q, i in enumerate(egos):
        by_route.setdefault(world.route_ids[i], []).append(q)
    speed = world.speed.tolist()
    found = [None] * len(egos)  # (scene, its route's [MAP] line, its neighbors as listed)
    for route_id, members in by_route.items():
        for q, item in zip(members, _perceive_route(
                world, index, route_id, [egos[q] for q in members], horizon, speed)):
            found[q] = item
    lines = _neighbors_lines([near for _, _, near in found], world.ids, world.kinds, speed)
    for (scene, map_line, _), line in zip(found, lines):  # fill in each text's cached_property
        vars(scene)["text"] = _render(map_line, scene.ego_text, line)
    return [scene for scene, _, _ in found]


def _perceive_route(world, index, route_id: str, egos: list[int], horizon: float,
                    speed: list[float]) -> list[tuple[SceneDescription, str, list]]:
    """Scenes of the egos on one route, whose sorted order is ``index``'s,
    each with the route's ``[MAP]`` line and its neighbors as
    :func:`_neighbors_lines` lists them; ``speed`` is ``world.speed`` as a list.

    The leader and headway are ``RouteIndex.leader``'s, as leader links
    read them. Each ego's neighbor candidates are a contiguous slice of the
    route order after it, wrapped on a loop up to the rank before its own;
    forward arcs come from ``RouteIndex.ahead`` and extents from
    ``RouteIndex.extent``. No extent exceeds the longest vehicle, so every
    neighbor's forward arc is at most ``limit``; ``np.searchsorted`` bounds
    that slice, widened by a margin far above rounding error (the exact
    tests below decide, so a wider slice only costs time).
    """
    network = world.network
    route = network.route(route_id)
    order, arcs = index.order[route_id], index.arcs[route_id]
    length = route.length
    ego = np.asarray(egos, dtype=np.intp)
    k = index.rank[route_id][ego]
    ego_arc = world.arc[ego]
    lead_rows, headways = index.leader(route, k)
    limit = horizon + float(world.length.max())
    reach = ego_arc + limit
    reach += 1e-9 * (np.abs(ego_arc) + length + abs(limit))
    span = np.minimum(np.maximum(np.searchsorted(arcs, reach, side="right") - k - 1, 0),
                      len(order) - 1 - k)
    if route.cyclic:  # arcs lie in [0, length): the wrapped part starts at 0
        span += np.minimum(np.searchsorted(arcs, reach - length, side="right"), k)
    t = np.arange(1, max(int(span.max()), 1) + 1)
    pos, d = index.ahead(route, k[:, None], t)
    gap = d - index.extent[route_id][pos]
    rr, cc = np.nonzero((t <= span[:, None]) & (gap > 0.0) & (gap <= horizon))
    ids, kinds = world.ids, world.kinds
    cuts = np.searchsorted(rr, np.arange(len(ego) + 1)).tolist()
    keyed = [(g, ids[x], x) for x, g in zip(order[pos[rr, cc]].tolist(), gap[rr, cc].tolist())]
    nears = [sorted(keyed[a:b]) for a, b in zip(cuts, cuts[1:])]  # by gap, then id
    tag, speed_limit = network.kind, network.speed_limit
    intersections = len(network.conflict_points)
    map_line = _map_line(tag, length, route.cyclic, speed_limit, intersections)
    scenes = []
    for i, arc, lead, headway, near in zip(egos, ego_arc.tolist(), lead_rows.tolist(),
                                           headways.tolist(), nears):
        leader_id, leader_speed = (ids[lead], speed[lead]) if lead >= 0 else (None, 0.0)
        scene = _scene(
            scenario_tag=tag, ego_id=ids[i], ego_speed=speed[i], headway=headway,
            leader_id=leader_id, leader_speed=leader_speed, speed_limit=speed_limit,
            route_length=length, cyclic=route.cyclic, intersections=intersections,
            position_arc=arc,
            neighbors=tuple([(vid, kinds[j], g, speed[j]) for g, vid, j in near]))
        scenes.append((scene, map_line, near))
    return scenes


_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # as str.splitlines


def parse_scene_text(text: str) -> SceneDescription | None:
    """Recover a SceneDescription from its v1 rendering.

    The scripted backend works entirely from prompt text, so it re-parses
    the same bytes a remote model would read. Returns None when the text
    carries no scene.
    """
    scene = _parse_header(text)
    if scene is not None:  # a fresh scene, filled in as _scene fills it
        vars(scene)["neighbors"] = _parse_neighbors(text)
    return scene


def _parse_header(text: str) -> SceneDescription | None:
    """The scene of the text's ``[MAP]`` and ``[EGO]`` lines, with no
    neighbors; None when either is missing."""
    m_map = _MAP.pattern.search(text)
    m_ego = _EGO.pattern.search(text)
    if not m_map or not m_ego:
        return None
    tag, route_length, shape, limit, nx = m_map.groups()
    ego_id, speed, headway, leader, leader_speed = m_ego.groups()
    return _scene(
        scenario_tag=tag, ego_id=ego_id, ego_speed=float(speed), headway=float(headway),
        leader_id=None if leader == "none" else leader, leader_speed=float(leader_speed),
        speed_limit=float(limit), route_length=float(route_length), cyclic=shape == "(cyclic)",
        intersections=int(nx), position_arc=0.0, neighbors=())


def _parse_neighbors(text: str) -> tuple[tuple[str, str, float, float], ...]:
    """The neighbors listed on every line of the text that starts with ``[NEIGHBORS]``."""
    neighbors = []
    # every line that starts with the tag, found without splitting the whole text
    at = text.find(_NEIGHBORS_TAG)
    while at >= 0:
        nl = text.find("\n", at)
        rest = text[at:nl if nl >= 0 else None].splitlines()[0]  # to the line's end
        if at == 0 or text[at - 1] in _LINE_BREAKS:
            neighbors += [(vid, kind, float(gap), float(speed))
                          for vid, kind, gap, speed in _NEIGHBOR.pattern.findall(rest)]
        at = text.find(_NEIGHBORS_TAG, at + len(rest))
    return tuple(neighbors)


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
            # one past the highest index, so a deleted summary frees no name
            taken = [fp.stem[len("run_summary_"):] for fp in d.glob("run_summary_*.json")]
            n = max((int(k) for k in taken if k.isdecimal()), default=-1) + 1
            doc = {"scenario_tag": experience.scenario_tag,
                   "role_tag": experience.role_tag, "text": experience.text}
            with open(d / f"run_summary_{n:04d}.json", "x", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, indent=2))

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
    """Ordered public transcript of the brainstorming session.

    Its rendered text is kept, one line appended per :meth:`publish`, so a
    turn does not format every earlier message again.
    """

    def __init__(self):
        self.messages: list[Message] = []
        self._text = ""

    def publish(self, message: Message) -> None:
        self.messages.append(message)
        line = f"{message.sender} (round {message.round}): {message.content}"
        self._text = f"{self._text}\n{line}" if self._text else line  # no line is empty

    def rendered(self) -> str:
        """The transcript so far, one line per message."""
        return self._text or "(none yet)"


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
    """The tunable controller triple emitted by the reason engine.

    Its car-following parameters and its JSON line are built on first use
    and kept with the instance. :meth:`clamped` hands back one memoised
    instance per planner, so replans, which repeat a few hundred planners,
    build each form about once; a planner built from a zero argument is a
    fresh instance, with forms of its own.
    """

    v0: float
    a_max: float
    s0: float

    @staticmethod
    def clamped(v0: float, a_max: float, s0: float, speed_limit: float) -> "PlannerSpec":
        """Force arbitrary numbers into the legal planner box."""
        return _clamped(v0, a_max, s0, speed_limit)

    @functools.cached_property
    def params(self) -> dyn.IdmParams:
        """The triple merged with the fixed car-following constants."""
        return dyn.IdmParams(v0=self.v0, T=dyn.FIXED_T, a_max=self.a_max, b=dyn.FIXED_B,
                             delta=dyn.FIXED_DELTA, s0=self.s0)

    @functools.cached_property
    def json_line(self) -> str:
        """The planner's JSON line, as ``json.dumps`` writes it: a clamped
        planner holds finite numbers only."""
        v0, a_max, s0 = round(self.v0, 4), round(self.a_max, 4), round(self.s0, 4)
        return f'{{"v0": {v0!r}, "a_max": {a_max!r}, "s0": {s0!r}}}'


@_memoized  # replans repeat a few hundred planners
def _clamped(v0, a_max, s0, speed_limit) -> PlannerSpec:
    return PlannerSpec(v0=_box(v0, 0.1, speed_limit),
                       a_max=_box(a_max, 0.1, 3.0),
                       s0=_box(s0, 0.5, 10.0))


def _box(x: float, lo: float, hi: float) -> float:
    """``x`` clamped into [lo, hi]; the low end when it is not finite."""
    if not math.isfinite(x):
        return lo
    return min(max(x, lo), hi)


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
        return {f.name: getattr(self, f.name) for f in fields(self)}


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


def allocate_roles(scenario_tag: str, positions: dict[str, float]) -> dict[str, str]:
    """The scripted role rule over ``{vehicle id: route position}``.

    Figure-eight: the front-most vehicle by position (ties to the greatest
    id) leads a queue; everyone else follows. Ring and merge: every vehicle
    damps waves.
    """
    if scenario_tag == "figure_eight":
        front = max(positions, key=lambda v: (positions[v], v))
        return {v: ("leader" if v == front else "follower") for v in positions}
    return dict.fromkeys(positions, "wave_dampener")


def fallback_roles(scene_per_cav: dict[str, SceneDescription]) -> dict[str, str]:
    """Deterministic role allocation when brainstorming fails: :func:`allocate_roles`."""
    ids = sorted(scene_per_cav)
    tag = scene_per_cav[ids[0]].scenario_tag if ids else "ring"
    return allocate_roles(tag, {v: scene_per_cav[v].position_arc for v in ids})


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
    participants = ", ".join(ids)
    for rnd in range(max_rounds):
        for agent_id in ids:
            scene = scene_per_cav[agent_id]
            system = sys_tpl.format(agent_id=agent_id, participants=participants)
            user = turn_tpl.format(scene=scene.text,
                                   position=_POSITION.format % scene.position_arc,
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
                    return [RoleAssignment(v, block[v], f"agreed in brainstorming round {rnd}")
                            for v in ids]
    flags.brainstorm_fallbacks += 1
    roles = fallback_roles(scene_per_cav)
    return [RoleAssignment(v, roles[v], "scripted fallback allocation") for v in ids]


# -- scripted policy ---------------------------------------------------------

# the human driver model a wave dampener judges congestion by, built once per limit
_human_params = _memoized(dyn.human_params)


def _congested(scene: SceneDescription | None, limit: float) -> bool:
    """The wave dampener's congestion rule: a leader ahead that is clearly
    slower than the ego, or nearer than a human driver would keep at the
    ego's speed under ``limit``. Reads only the scene's header fields."""
    if scene is None or scene.leader_id is None or not math.isfinite(scene.headway):
        return False
    return (scene.leader_speed < scene.ego_speed - CONGESTION_SPEED_MARGIN
            or scene.headway < dyn.desired_gap(_human_params(limit), scene.ego_speed, 0.0))


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
    return _policy(role, scene, limit, role == "wave_dampener" and _congested(scene, limit))


def _policy(role: str, scene: SceneDescription | None, limit: float,
            congested: bool) -> PlannerSpec:
    """:func:`scripted_backend_policy` under ``limit``, given the wave
    dampener's congestion rule as evaluated on ``scene``."""
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
    if not congested:  # a free road: the limit, at scenario-tuned acceleration
        free_a = DAMPENER_FREE_A_MAX.get(tag, DAMPENER_FREE_A_MAX_DEFAULT)
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
    position and publishes the final role assignment. It reads a scene's
    ``[MAP]`` and ``[EGO]`` lines first, and its ``[NEIGHBORS]`` lines only
    for the one plan that uses them: a congested wave dampener's.
    """

    name = "scripted"

    _ROLE_RE = re.compile(r"Assigned role: (\w+)\.")

    def complete(self, turns, *, agent_id: str, stage: str) -> str:
        text = "\n".join([t.content for t in turns])
        if stage == "collaboration":
            return self._collaboration_turn(text, agent_id)
        return self._reason_turn(text, agent_id)

    def _collaboration_turn(self, text: str, agent_id: str) -> str:
        scene = _parse_header(text)  # the ego's speed and the scenario tag
        order = _speaking_order(text)
        m_pos = _POSITION.pattern.search(text)
        own_pos = float(m_pos.group(1)) if m_pos else 0.0
        own_speed = scene.ego_speed if scene is not None else 0.0
        status = _STATUS.format % (agent_id, own_pos, own_speed)
        # Every status match starts with "status id=" and none overlap, so the
        # count plus the speaker's own bounds the statuses known; the commas
        # plus one are the participants. Below that, someone is still unheard.
        if order is not None and text.count(_STATUS_HEAD) + 1 < order.count(",") + 1:
            return status
        participants = ([p.strip() for p in order.split(",")]
                        if order is not None else [agent_id])
        statuses = {vid: (float(pos), float(spd))
                    for vid, pos, spd in _STATUS.pattern.findall(text)}
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

    def _reason_turn(self, text: str, agent_id: str) -> str:
        m_role = self._ROLE_RE.search(text)
        role = m_role.group(1) if m_role and m_role.group(1) in ROLES else "wave_dampener"
        scene = _parse_header(text)
        limit = scene.speed_limit if scene is not None else 30.0
        congested = role == "wave_dampener" and _congested(scene, limit)
        if congested:
            scene = parse_scene_text(text)  # the one plan that reads the neighbors
        planner = _policy(role, scene, limit, congested)
        if scene is None:
            note = "No scene available; using the role's default plan."
        elif scene.leader_id is None:
            note = "Open road ahead; cruising at the limit."
        else:
            note = (f"Leader {scene.leader_id} at {scene.headway:.2f} m doing "
                    f"{scene.leader_speed:.2f} m/s.")
        return f"Role {role}. {note}\n{planner.json_line}"


# -- reasoning and execution --------------------------------------------------

def render_experiences(experiences) -> str:
    """Recalled experiences as the reasoning prompt lists them."""
    return "\n".join(f"- {e.text}" for e in experiences) or "(none)"


@functools.cache
def _reason_system_turn() -> ChatTurn:
    return ChatTurn("system", _template("reason_system.txt"))


def reason(role: str, scene: SceneDescription | None, experiences,
           backend: ReasonBackend, *, agent_id: str | None = None,
           speed_limit: float | None = None, retries: int = 2,
           flags: RunFlags | None = None) -> PlannerSpec:
    """Run the four-stage reasoning chain and extract the planner triple.

    The staged prompt (role clarification, scene understanding, motion
    instruction, planner generation) goes out as one completion; the reply
    must contain a JSON planner object. After ``retries`` extra attempts
    the role's scripted default applies and the run is flagged. The agent
    is ``agent_id``, else the scene's ego, else ``"ego"``.
    """
    flags = flags if flags is not None else RunFlags()
    limit = speed_limit if speed_limit is not None else (
        scene.speed_limit if scene is not None else 30.0)
    if agent_id is None:
        agent_id = scene.ego_id if scene is not None else "ego"
    user = _template("reason_user.txt").format(
        agent_id=agent_id, role=role,
        scene=scene.text if scene is not None else "(scene unavailable)",
        experiences=render_experiences(experiences))
    turns = [_reason_system_turn(), ChatTurn("user", user)]
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


def execute(planner: PlannerSpec) -> dyn.IdmParams:
    """Merge the planner triple with the fixed car-following constants."""
    return planner.params
