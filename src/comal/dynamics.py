"""Longitudinal dynamics: IDM car following, failsafe, and the integrator.

The world steps with explicit Euler at a fixed dt. Human vehicles get
additive Gaussian acceleration noise from per-vehicle seeded streams, drawn
ahead in blocks of 256 per vehicle and added as one array per step; the
values are those of one ``NoiseModel.sample`` call per vehicle per step, bit
for bit.
Controlled vehicles are noise-free. A kinematic failsafe caps every speed
update so a vehicle can always stop behind its leader at the emergency
deceleration bound, and any non-positive bumper gap aborts the run.

Bumper gaps are carried as primary state and updated incrementally while
leader links are unchanged (links are static on closed single-lane routes).
Recomputing gaps from floating-point positions every step would inject
ulp-level asymmetries that the string-unstable flow amplifies; with gap
state, a uniform ring with zero noise stays uniform bit-exactly.

All per-vehicle route geometry of a step (leader links, first-come-first-
served gating at conflict points, the spawn slot at an entry) is read from
one ``World.route_index()``: the vehicles on each route sorted by arc. All
per-vehicle state is one table, ``_COLUMNS`` and ``_LISTS``: an add writes
every column, a removal compacts them all, and storage grows by doubling.

A vehicle without a leader (``lead_idx`` -1) has an infinite gap: every
write of the links keeps this rule. So the step reads the links as stored:
the IDM interaction term and the failsafe cap of an infinite gap are those
of an open road, whichever speed ``lead_idx`` -1 picks up.

The step also reads values derived from the table. Each is refreshed where
the table column it comes from is written, never by the step, so none can
go stale whatever the call order:

- after every add and removal (``World._bind``): where each row's draws
  start in the flattened noise blocks, the noisy mask and whether any
  vehicle is noisy, the draws left before a block is used up,
  ``2*sqrt(a_max*b)`` and whether every ``delta`` is 4;
- ``World._noise``, which moves the draw positions: the draws left,
  counted down each draw and counted again after a refill;
- ``set_params``: ``2*sqrt(a_max*b)`` of the row, and the ``delta`` test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from . import network as net_mod
from .network import LanePosition, NetworkSpec, Route

# Constants held fixed by the execution model; planners tune only
# (v0, a_max, s0).
FIXED_T = 1.0  # s
FIXED_B = 1.5  # m/s^2
FIXED_DELTA = 4.0

DEFAULT_DT = 0.1  # s
DEFAULT_B_MAX = 4.5  # m/s^2, emergency braking bound for the failsafe
DEFAULT_NOISE_STD = 0.2  # m/s^2, human acceleration noise
DEFAULT_VEHICLE_LENGTH = 5.0  # m

_NOISE_BLOCK = 256  # standard-normal draws taken from a vehicle's stream at once
_PARAM_KEYS = ("v0", "T", "a_max", "b", "delta", "s0")
# Every per-vehicle numpy column of a World: name -> (dtype, trailing shape).
# ``World._p`` holds the IDM parameter columns; the rest are its attributes.
_COLUMNS: dict[str, tuple[type, tuple[int, ...]]] = {
    "arc": (np.float64, ()),  # m along the vehicle's own route
    "speed": (np.float64, ()),
    "length": (np.float64, ()),
    "_route_len": (np.float64, ()),
    "_cyclic": (np.bool_, ()),
    "_route_code": (np.intp, ()),  # the route's position in ``network.routes``
    "lead_idx": (np.intp, ()),  # the leader's row, -1 for none
    "gap": (np.float64, ()),  # bumper gap to the leader, inf for none
    "_noise_std": (np.float64, ()),
    "_noise_block": (np.float64, (_NOISE_BLOCK,)),  # draws from the vehicle's stream
    "_noise_pos": (np.intp, ()),  # next draw, _NOISE_BLOCK once used up; 0 if noise-free
    **dict.fromkeys(_PARAM_KEYS, (np.float64, ())),
}
_LISTS = ("ids", "route_ids", "kinds", "noise")  # per-vehicle Python objects


@dataclass(frozen=True)
class IdmParams:
    """The six car-following constants. All strictly positive, delta >= 1."""

    v0: float  # desired speed, m/s
    T: float  # desired time headway, s
    a_max: float  # maximum acceleration, m/s^2
    b: float  # comfortable deceleration, m/s^2
    delta: float  # acceleration exponent
    s0: float  # minimum spacing, m

    def __post_init__(self):
        for name in _PARAM_KEYS:
            if getattr(self, name) <= 0:
                raise ValueError(f"IdmParams.{name} must be > 0, got {getattr(self, name)}")
        if self.delta < 1:
            raise ValueError(f"IdmParams.delta must be >= 1, got {self.delta}")


def human_params(speed_limit: float = 30.0) -> IdmParams:
    """Default human-driver parameters; desired speed tracks the limit."""
    return IdmParams(v0=speed_limit, T=FIXED_T, a_max=1.0, b=FIXED_B,
                     delta=FIXED_DELTA, s0=2.0)


@dataclass
class VehicleState:
    """One vehicle: identity, kinematics and its active planner parameters."""

    id: str
    route_id: str
    position: LanePosition
    speed: float  # m/s, >= 0
    length: float  # m, > 0
    kind: str  # "human" | "cav"
    active_params: IdmParams

    def __post_init__(self):
        if self.speed < 0:
            raise ValueError(f"vehicle {self.id!r}: speed must be >= 0")
        if self.length <= 0:
            raise ValueError(f"vehicle {self.id!r}: length must be > 0")
        if self.kind not in ("human", "cav"):
            raise ValueError(f"vehicle {self.id!r}: kind must be 'human' or 'cav'")


class NoiseModel:
    """Per-vehicle Gaussian acceleration noise stream.

    ``std`` is the white-noise intensity: each step draws an acceleration
    from N(0, std/sqrt(dt)), so the speed diffusion it drives is independent
    of the step size. A zero std draws nothing, leaving the stream and the
    run untouched.

    ``sample`` is the one-draw reference. The world draws ``block(k)`` and
    scales it by ``std / sqrt(dt)`` itself, which gives the same values as k
    ``sample`` calls from the same stream, bit for bit.
    """

    def __init__(self, std: float, seed_seq: np.random.SeedSequence):
        if std < 0:
            raise ValueError(f"noise std must be >= 0, got {std}")
        self.std = std
        self._rng = np.random.default_rng(seed_seq)

    def sample(self, dt: float) -> float:
        if self.std == 0.0:
            return 0.0
        return self._rng.normal(0.0, self.std / math.sqrt(dt))

    def block(self, k: int) -> np.ndarray:
        """The stream's next k standard-normal draws, unscaled."""
        return self._rng.standard_normal(k)


class CollisionError(RuntimeError):
    """A bumper gap closed to zero or below; the run is aborted.

    Collisions are never silently repaired: a clamped overlap would corrupt
    every downstream metric comparison.
    """

    def __init__(self, time: float, ego_id: str, leader_id: str, gap: float):
        self.time = time
        self.ego_id = ego_id
        self.leader_id = leader_id
        self.gap = gap
        super().__init__(
            f"collision at t={time:.2f}s: {ego_id} -> {leader_id}, gap {gap:.4f} m")


def desired_gap(p: IdmParams, v: float, dv: float) -> float:
    """Dynamic target spacing s* at speed v and closing rate dv (m)."""
    return p.s0 + max(0.0, v * p.T + v * dv / (2.0 * math.sqrt(p.a_max * p.b)))


def idm_accel(p: IdmParams, v: float, dv: float, s: float) -> float:
    """Car-following acceleration (m/s^2) at gap s; s <= 0 is a collision."""
    if s <= 0:
        raise CollisionError(float("nan"), "<ego>", "<leader>", s)
    z = desired_gap(p, v, dv) / s
    return p.a_max * (1.0 - (v / p.v0) ** p.delta - z * z)


def equilibrium_speed(p: IdmParams, gap: float, tol: float = 1e-10) -> float:
    """Unique speed in [0, v0) at which a constant gap gives zero acceleration.

    Found by bisection until |accel| < tol. Requires gap > s0, otherwise no
    positive-speed equilibrium exists.
    """
    if gap <= p.s0:
        raise ValueError(f"gap {gap} must exceed minimum spacing s0={p.s0}")
    lo, hi = 0.0, p.v0
    mid = lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        a_mid = idm_accel(p, mid, 0.0, gap)
        if abs(a_mid) < tol:
            return mid
        if a_mid > 0:
            lo = mid
        else:
            hi = mid
    return mid


def failsafe_speed(v: float, gap: float, leader_speed: float, dt: float,
                   b_max: float) -> float:
    """Cap ``v`` so braking at b_max always stops the ego behind its leader.

    The leader is assumed to brake no harder than b_max; one step of
    reaction delay is budgeted so the cap stays sound under synchronous
    position updates.
    """
    bd = b_max * dt
    v_safe = -bd + math.sqrt(bd * bd + leader_speed * leader_speed
                             + 2.0 * b_max * max(gap, 0.0))
    return min(v, max(v_safe, 0.0))


@dataclass
class _Reservation:
    """First-come-first-served state of one conflict point.

    ``queue`` maps each waiting vehicle id to the (route id, arc) it
    approaches, in enrolment order; the first entry is served next.
    """

    holder: str | None = None
    holder_key: tuple[str, float] | None = None  # (route_id, arc) being crossed
    queue: dict[str, tuple[str, float]] = field(default_factory=dict)


class _Inflow:
    """Poisson arrival process feeding one open route."""

    def __init__(self, route_id: str, rate_vph: float, rng: np.random.Generator,
                 cav_fraction: float = 0.0, mix_rng: np.random.Generator | None = None,
                 id_prefix: str = "veh"):
        self.route_id = route_id
        self.rate_vph = rate_vph
        self.rng = rng
        self.cav_fraction = cav_fraction
        self.mix_rng = mix_rng
        self.id_prefix = id_prefix
        self.count = 0
        self.pending: list[tuple[str, str]] = []
        self.next_time = self.rng.exponential(3600.0 / self.rate_vph)

    def poll(self, now: float) -> None:
        """Move arrivals due by ``now`` into the pending queue."""
        while self.next_time <= now:
            kind = "human"
            if self.cav_fraction > 0 and self.mix_rng is not None:
                if self.mix_rng.random() < self.cav_fraction:
                    kind = "cav"
            self.pending.append((f"{self.id_prefix}_{self.count:03d}", kind))
            self.count += 1
            self.next_time += self.rng.exponential(3600.0 / self.rate_vph)


@dataclass(frozen=True)
class RouteIndex:
    """The vehicles present on each route, sorted by their arc along it.

    Keyed by route id. ``order`` holds vehicle indices: the route's own
    vehicles plus any projected onto it from a shared edge, sorted by arc
    with ties in index order. ``arcs`` holds their arcs in the same order,
    and ``extent`` how much of each body lies on the route: the length of
    its own vehicles, ``network.visible_extent`` for the projected ones.
    ``rank[route_id][j]`` is vehicle j's position in ``order[route_id]``,
    -1 when j is not on that route. Valid until a vehicle moves, arrives or
    leaves.

    Leader links and perception share this geometry: the extents and the
    forward arcs of :meth:`ahead`. They choose the leader differently on
    purpose. Links take the next rank even at an equal arc, so an overlap
    reads as a non-positive gap and aborts the run; perception takes the
    nearest strictly positive forward arc, as ``network.leader_of`` does.
    """

    order: dict[str, np.ndarray]
    arcs: dict[str, np.ndarray]
    rank: dict[str, np.ndarray]
    extent: dict[str, np.ndarray]

    def ahead(self, route: Route, k, t):
        """Positions ``t`` ranks ahead of positions ``k`` (arrays that broadcast)
        on ``route``, wrapped on a loop and stopped at an open route's front,
        and the forward arcs ``arcs[pos] - arcs[k]`` to them: taken ``% length``
        on a loop as ``network.forward_gap`` does, a full lap back to the
        vehicle itself reading the whole length."""
        arcs = self.arcs[route.id]
        pos = np.add(k, t) % len(arcs) if route.cyclic else np.minimum(np.add(k, t), len(arcs) - 1)
        d = arcs[pos] - arcs[k]
        if route.cyclic:
            d %= route.length
            d[pos == k] = route.length
        return pos, d


class World:
    """Mutable simulation state: vehicle table, links, gating, inflows.

    Vehicles are rows: the ``_LISTS`` are lists, the ``_COLUMNS`` views of
    the first ``size`` rows of storage with spare capacity, rebound after an
    add or a removal and written in place by ``step``. Each step reads its
    per-vehicle route geometry (leader links, conflict-point gating, the
    spawn slot) from one ``route_index()``. A single thread owns the world;
    determinism given (construction, seed) is the contract.
    """

    def __init__(self, network: NetworkSpec, seed: int, b_max: float = DEFAULT_B_MAX):
        self.network = network
        self.seed = seed
        self.b_max = b_max
        self.default_noise_std = DEFAULT_NOISE_STD  # applied to spawned arrivals
        self.default_length = DEFAULT_VEHICLE_LENGTH  # of spawned arrivals, m
        self.time = 0.0
        self.step_count = 0
        self.ids: list[str] = []
        self.route_ids: list[str] = []
        self.kinds: list[str] = []
        self.noise: list[NoiseModel] = []
        self.inflows: list[_Inflow] = []
        self._store = {name: np.empty((0, *shape), dtype)
                       for name, (dtype, shape) in _COLUMNS.items()}
        self._bind()
        self._index: dict[str, int] = {}
        self._seedseq = np.random.SeedSequence(seed)
        self.reservations = {cp.id: _Reservation() for cp in network.conflict_points}
        self.removed_count = 0
        self._loops_only = all(route.cyclic for route in network.routes.values())

    # -- construction ------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def is_closed(self) -> bool:
        """No inflows, and every route of the network is a loop."""
        return not self.inflows and self._loops_only

    def spawn_stream(self) -> np.random.Generator:
        """Next child RNG stream; allocation order is the determinism key."""
        return np.random.default_rng(self._seedseq.spawn(1)[0])

    def add_vehicle(self, state: VehicleState, noise_std: float) -> None:
        self.add_vehicles([state], [noise_std])

    def add_vehicles(self, states: list[VehicleState], noise_stds: list[float]) -> None:
        """Add vehicles in order, in one write of every column.

        The rows and noise streams are those of one ``add_vehicle`` per
        vehicle: ``SeedSequence.spawn(n)`` gives the same children as n
        ``spawn(1)`` calls, and storage doubles to the same capacity.
        """
        ids = [s.id for s in states]
        seen = set()
        for vid in ids:
            if vid in self._index or vid in seen:
                raise ValueError(f"duplicate vehicle id {vid!r}")
            seen.add(vid)
        codes = {rid: code for code, rid in enumerate(self.network.routes)}
        routes = [self.network.route(s.route_id) for s in states]
        rows = dict(arc=[r.arc_of(s.position) for r, s in zip(routes, states)],
                    speed=[s.speed for s in states], length=[s.length for s in states],
                    _route_len=[r.length for r in routes], _cyclic=[r.cyclic for r in routes],
                    _route_code=[codes[r.id] for r in routes], lead_idx=-1, gap=np.inf,
                    _noise_std=noise_stds, _noise_block=0.0,
                    _noise_pos=[_NOISE_BLOCK if std > 0 else 0 for std in noise_stds],
                    **{k: [getattr(s.active_params, k) for s in states] for k in _PARAM_KEYS})
        i, end = self.size, self.size + len(states)
        for name, col in self._store.items():  # a column the rows lack is a KeyError
            capacity = len(col)
            while capacity < end:  # double the storage until the rows fit
                capacity = max(2 * capacity, 16)
            if capacity > len(col):
                col = self._store[name] = np.resize(col, (capacity, *col.shape[1:]))
            col[i:end] = rows[name]
        self._index.update(zip(ids, range(i, end)))
        self.ids += ids
        self.route_ids += [s.route_id for s in states]
        self.kinds += [s.kind for s in states]
        self.noise += [NoiseModel(std, seq) for std, seq in
                       zip(noise_stds, self._seedseq.spawn(len(states)))]
        self._bind()

    def _bind(self) -> None:
        """Rebind every column attribute as a view of its first ``size`` rows,
        and derive again every value the step reads from the table."""
        views = {name: col[:self.size] for name, col in self._store.items()}
        self._p = {k: views.pop(k) for k in _PARAM_KEYS}
        vars(self).update(views)
        # each row's first draw in the flattened block storage, a view that refills write through
        self._block_starts = np.arange(self.size) * _NOISE_BLOCK
        blocks = self._store["_noise_block"]
        self._flat_blocks = blocks.reshape(-1)  # a view, as the storage is contiguous
        if blocks.size and not np.may_share_memory(self._flat_blocks, blocks):
            raise RuntimeError("the flattened noise blocks must be a view of their storage")
        self._noisy = self._noise_std > 0.0
        self._any_noisy = bool(self._noisy.any())
        self._count_draws_left()
        # the IDM kernel's keywords: the parameter columns but ``b``, which it reads
        # only through ``2*sqrt(a_max*b)``, and whether every ``delta`` is 4
        self._idm = {k: col for k, col in self._p.items() if k != "b"}
        self._idm.update(two_sqrt_ab=2.0 * np.sqrt(self._p["a_max"] * self._p["b"]),
                         delta_is_4=bool((self._p["delta"] == 4.0).all()))

    def add_inflow(self, route_id: str, rate_vph: float, cav_fraction: float = 0.0,
                   id_prefix: str = "veh") -> None:
        if rate_vph <= 0:
            raise ValueError(f"inflow rate must be > 0, got {rate_vph}")
        mix_rng = self.spawn_stream() if cav_fraction > 0 else None
        self.inflows.append(_Inflow(route_id, rate_vph, self.spawn_stream(),
                                    cav_fraction, mix_rng, id_prefix))

    # -- inspection --------------------------------------------------------

    def index_of(self, vehicle_id: str) -> int:
        return self._index[vehicle_id]

    def params_of(self, vehicle_id: str) -> IdmParams:
        i = self._index[vehicle_id]
        return IdmParams(**{k: float(self._p[k][i]) for k in self._p})

    def cav_ids(self) -> list[str]:
        return [vid for vid, kind in zip(self.ids, self.kinds) if kind == "cav"]

    def set_params(self, vehicle_id: str, params: IdmParams) -> None:
        """Install new planner parameters; takes effect from the next step."""
        i = self._index[vehicle_id]
        for key in self._p:
            self._p[key][i] = getattr(params, key)
        # from the floats just written, by the same IEEE product and square root as _bind
        self._idm["two_sqrt_ab"][i] = 2.0 * math.sqrt(float(params.a_max) * float(params.b))
        if not (self._idm["delta_is_4"] and params.delta == 4.0):
            self._idm["delta_is_4"] = bool((self._p["delta"] == 4.0).all())

    # -- leader links ------------------------------------------------------

    def set_links(self, lead_idx, gap) -> None:
        """Install leader links and authoritative bumper gaps directly.

        Scenario setup uses this to start uniform closed-network flows with
        bit-identical gaps for every vehicle. Each needs one entry per vehicle.
        A row whose leader is -1 stores an infinite gap, whatever it is given.
        """
        if np.shape(lead_idx) != (self.size,) or np.shape(gap) != (self.size,):
            raise ValueError(f"set_links needs {self.size} leader indices and gaps")
        self.lead_idx[:] = lead_idx
        self.gap[:] = gap
        self.gap[self.lead_idx < 0] = np.inf

    def route_index(self) -> RouteIndex:
        """Sort the vehicles present on each route by their arc along it.

        Each route's vehicles are projected as one group, by one
        ``network.project_onto_route`` call. Candidates stay in index order,
        so the stable sort breaks ties by index.
        """
        n = self.size
        net = self.network
        groups = [(rid, rows) for code, rid in enumerate(net.routes)
                  if (rows := np.flatnonzero(self._route_code == code)).size]
        order, arcs, rank, extent = {}, {}, {}, {}
        for code, route in enumerate(net.routes.values()):
            proj = np.full(n, np.nan)  # NaN: not on the route
            for rid, rows in groups:
                proj[rows] = net_mod.project_onto_route(net, route, rid, self.arc[rows])
            idxs = np.flatnonzero(~np.isnan(proj))
            proj, ext = proj[idxs], self.length[idxs]
            for k in np.flatnonzero(self._route_code[idxs] != code).tolist():
                j = int(idxs[k])  # projected from another route: its part on this one
                ext[k] = net_mod.visible_extent(net, route, self.route_ids[j],
                                                float(self.arc[j]), float(self.length[j]))
            by_arc = np.argsort(proj, kind="stable")
            order[route.id] = idxs[by_arc]
            arcs[route.id] = proj[by_arc]
            extent[route.id] = ext[by_arc]
            rank[route.id] = np.full(n, -1, dtype=np.intp)
            rank[route.id][order[route.id]] = np.arange(len(idxs))
        return RouteIndex(order, arcs, rank, extent)

    def rebuild_links(self, index: RouteIndex | None = None) -> None:
        """Derive leader links and bumper gaps from current positions.

        A gather on ``index``, the world's current ``route_index()`` (built
        when omitted): each vehicle leads to the next rank on its own route,
        even at an equal arc (see :class:`RouteIndex`), its gap the forward
        arc less the leader's extent. The front of an open route has none.
        """
        self.lead_idx[:] = -1
        self.gap[:] = np.inf
        index = index or self.route_index()
        for code, route in enumerate(self.network.routes.values()):
            order = index.order[route.id]
            k = np.flatnonzero(self._route_code[order] == code)  # the route's own vehicles
            if not route.cyclic:
                k = k[k < len(order) - 1]  # the front of an open route: nothing ahead
            pos, d = index.ahead(route, k, 1)
            self.lead_idx[order[k]] = order[pos]
            self.gap[order[k]] = d - index.extent[route.id][pos]

    # -- conflict-point gating ----------------------------------------------

    def _gate_distances(self, index: RouteIndex) -> dict[tuple[str, float], np.ndarray]:
        """Every vehicle's signed front distance to each conflict arc.

        Keyed by (route id, arc). Negative once the front has passed; cyclic
        distances wrap into (-L/2, L/2]. NaN for vehicles not on that route.
        """
        dist = {}
        for cp in self.network.conflict_points:
            for route_id, cp_arc in cp.points:
                route = self.network.route(route_id)
                d = cp_arc - index.arcs[route_id]
                if route.cyclic:
                    d = d % route.length
                    d = np.where(d > route.length / 2.0, d - route.length, d)
                dist[route_id, cp_arc] = np.full(self.size, np.nan)
                dist[route_id, cp_arc][index.order[route_id]] = d
        return dist

    def _update_reservations(self, dist: dict[tuple[str, float], np.ndarray]) -> None:
        for cp in self.network.conflict_points:
            res = self.reservations[cp.id]
            # release a holder whose rear has cleared the point (or vanished)
            if res.holder is not None:
                hi = self._index.get(res.holder)
                # NaN (off the route) compares false, so it clears too
                if hi is None or not dist[res.holder_key][hi] >= -self.length[hi]:
                    res.holder = None
                    res.holder_key = None
            # enroll vehicles inside the approach window, in arrival order
            # (index order among those arriving in the same step)
            inside = [(-self.length <= dist[key]) & (dist[key] <= cp.window)
                      for key in cp.points]
            for i in np.flatnonzero(np.logical_or.reduce(inside)):
                vid = self.ids[i]
                if vid != res.holder and vid not in res.queue:
                    res.queue[vid] = next(key for key, m in zip(cp.points, inside) if m[i])
            # drop queued vehicles that left the window region or the world
            res.queue = {vid: key for vid, key in res.queue.items()
                         if (j := self._index.get(vid)) is not None
                         and dist[key][j] >= -self.length[j]}
            if res.holder is None and res.queue:
                res.holder, res.holder_key = next(iter(res.queue.items()))
                del res.queue[res.holder]

    def _virtual_gaps(self, dist: dict[tuple[str, float], np.ndarray]) -> np.ndarray | None:
        """Distance to a reserved conflict point, seen as a stopped leader.

        inf where unconstrained. The holder itself is never constrained, and
        a vehicle already on or past the point is left alone.
        """
        vgap = None
        for cp in self.network.conflict_points:
            res = self.reservations[cp.id]
            if res.holder is None:
                continue
            if vgap is None:
                vgap = np.full(self.size, np.inf)
            not_holder = np.ones(self.size, dtype=bool)
            not_holder[self._index[res.holder]] = False
            for key in cp.points:
                d = dist[key]
                vgap = np.where(not_holder & (d > 0.0), np.minimum(vgap, d), vgap)
        return vgap

    # -- acceleration noise --------------------------------------------------

    def _noise(self, dt: float) -> np.ndarray | None:
        """This step's acceleration noise per vehicle; None if all are noise-free.

        Each noisy vehicle takes the next draw of its own block and refills
        the block from its stream when it is used up, so spawns and removals
        leave every other vehicle's sequence alone.
        """
        if not self._any_noisy:
            return None
        if not self._draws_left:
            due = np.flatnonzero(self._noise_pos == _NOISE_BLOCK)
            for i in due.tolist():
                self._noise_block[i] = self.noise[i].block(_NOISE_BLOCK)
            self._noise_pos[due] = 0
            self._count_draws_left()
        z = self._flat_blocks[self._block_starts + self._noise_pos]
        self._noise_pos += self._noisy
        self._draws_left -= 1
        return z * (self._noise_std / math.sqrt(dt))

    def _count_draws_left(self) -> None:
        """Draws until the first noisy vehicle's block is used up (0: now)."""
        self._draws_left = _NOISE_BLOCK - int(self._noise_pos.max(where=self._noisy, initial=0))

    # -- arrivals and removals ----------------------------------------------

    def _try_spawn(self, inflow: _Inflow, speed_limit: float, index: RouteIndex) -> bool:
        vid, kind = inflow.pending[0]
        params = human_params(speed_limit)
        # nearest vehicle ahead of the entry point
        ahead = index.order[inflow.route_id]
        if len(ahead):
            entry_gap = (float(index.arcs[inflow.route_id][0])
                         - float(self.length[ahead[0]]))
            if entry_gap <= params.s0 + 1.0:
                return False  # no safe slot yet; retry next step
            speed = equilibrium_speed(params, min(entry_gap, 1e6))
        else:
            speed = params.v0
        state = VehicleState(
            id=vid, route_id=inflow.route_id,
            position=self.network.arc_to_lane(inflow.route_id, 0.0),
            speed=speed, length=self.default_length, kind=kind,
            active_params=params)
        self.add_vehicle(state, self.default_noise_std if kind == "human" else 0.0)
        inflow.pending.pop(0)
        return True

    def _process_arrivals(self) -> RouteIndex:
        """Spawn due arrivals; return the route index of the world after them."""
        index = self.route_index()
        limit = self.network.speed_limit
        for inflow in self.inflows:
            inflow.poll(self.time)
            while inflow.pending and self._try_spawn(inflow, limit, index):
                index = self.route_index()
        return index

    def _remove_finished(self, done: np.ndarray) -> None:
        """Drop the rows ``done``: vehicles whose front bumper passed an open route's sink."""
        if not done.size:
            return
        keep = np.ones(self.size, dtype=bool)
        keep[done] = False
        self.removed_count += done.size
        # renumber links; a vehicle whose leader left is now a route's front
        linked = (self.lead_idx >= 0) & keep[self.lead_idx]
        self.lead_idx[:] = np.where(linked, np.cumsum(keep)[self.lead_idx] - 1, -1)
        self.gap[~linked] = np.inf
        n = int(keep.sum())
        for col in self._store.values():
            col[:n] = col[:keep.size][keep]
        for name in _LISTS:
            setattr(self, name, [v for v, k in zip(getattr(self, name), keep) if k])
        self._bind()
        self._index = {vid: i for i, vid in enumerate(self.ids)}

    def _check_gaps(self) -> None:
        bad = (self.gap <= 0.0).nonzero()[0]
        if bad.size:
            i = int(bad[0])
            j = int(self.lead_idx[i])
            leader = self.ids[j] if j >= 0 else "<none>"
            raise CollisionError(self.time, self.ids[i], leader, float(self.gap[i]))


def step(world: World, dt: float) -> None:
    """Advance the world by one synchronous Euler step of length dt.

    Order: arrivals and link refresh (open networks), conflict-point
    bookkeeping, acceleration (most restrictive of real and virtual leader),
    speed update with failsafe cap, position advance, incremental gap
    update, collision check, sink removal. Links, gating and spawning read
    one route index per step, built again only after a spawn; a ring
    without conflict points builds none. What the step reads of the table
    besides the state it moves is derived where the table is written (see
    the module docstring).
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    index = None
    if not world.is_closed:
        index = world._process_arrivals()
        world.rebuild_links(index)
    dist = {}
    if world.reservations:
        dist = world._gate_distances(index or world.route_index())
        world._update_reservations(dist)
    n = world.size
    world.step_count += 1
    world.time = round(world.step_count * dt, 9)
    if n == 0:
        return

    v = world.speed
    lead = world.lead_idx
    lead_speed = v[lead]  # any speed without a leader: its gap is inf
    gap = world.gap
    world._check_gaps()

    dv = v - lead_speed
    acc = kernels.idm_acceleration(v, dv, gap, **world._idm)
    cap = kernels.safe_speed(gap, lead_speed, dt, world.b_max)

    vgap = world._virtual_gaps(dist)
    if vgap is not None:
        acc_v = kernels.idm_acceleration(v, v, vgap, **world._idm)
        acc = np.minimum(acc, acc_v)
        cap = np.minimum(cap, kernels.safe_speed(vgap, np.zeros(n), dt, world.b_max))

    noise = world._noise(dt)
    if noise is not None:
        acc = acc + noise

    v_new = np.maximum(0.0, v + acc * dt)
    v_new = np.minimum(v_new, np.maximum(cap, 0.0), out=world.speed)

    world.arc += v_new * dt
    past = (world.arc >= world._route_len).nonzero()[0]  # rows past their route's end
    at_sink = past
    if past.size:  # those on a loop wrap; the rest leave at their route's sink
        on_loop = world._cyclic[past]
        world.arc[past[on_loop]] -= world._route_len[past[on_loop]]
        at_sink = past[~on_loop]
    world.gap += (v_new[lead] - v_new) * dt  # inf stays inf
    world._check_gaps()
    world._remove_finished(at_sink)
