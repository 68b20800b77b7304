"""Longitudinal dynamics: IDM car following, failsafe, and the integrator.

The world steps with explicit Euler at a fixed dt. Human vehicles get
additive Gaussian acceleration noise from per-vehicle seeded streams;
controlled vehicles are noise-free. A kinematic failsafe caps every speed
update so a vehicle can always stop behind its leader at the emergency
deceleration bound, and any non-positive bumper gap aborts the run.

Bumper gaps are carried as primary state and updated incrementally while
leader links are unchanged (links are static on closed single-lane routes).
Recomputing gaps from floating-point positions every step would inject
ulp-level asymmetries that the string-unstable flow amplifies; with gap
state, a uniform ring with zero noise stays uniform bit-exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from . import network as net_mod
from .network import LanePosition, NetworkSpec

# Constants held fixed by the execution model; planners tune only
# (v0, a_max, s0).
FIXED_T = 1.0  # s
FIXED_B = 1.5  # m/s^2
FIXED_DELTA = 4.0

DEFAULT_DT = 0.1  # s
DEFAULT_B_MAX = 4.5  # m/s^2, emergency braking bound for the failsafe
DEFAULT_NOISE_STD = 0.2  # m/s^2, human acceleration noise
DEFAULT_VEHICLE_LENGTH = 5.0  # m


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
        for name in ("v0", "T", "a_max", "b", "delta", "s0"):
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
    """First-come-first-served state of one conflict point."""

    holder: str | None = None
    holder_arc_key: tuple[str, float] | None = None  # (route_id, arc) being crossed
    queue: list | None = None  # (enroll step, seq, vehicle id, arc key)
    enrolled: set | None = None
    seq: int = 0

    def __post_init__(self):
        if self.queue is None:
            self.queue = []
        if self.enrolled is None:
            self.enrolled = set()


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
    with ties in index order. ``arcs`` holds their arcs in the same order.
    ``rank[route_id][j]`` is vehicle j's position in ``order[route_id]``,
    -1 when j is not on that route. Valid until a vehicle moves, arrives or
    leaves.
    """

    order: dict[str, np.ndarray]
    arcs: dict[str, np.ndarray]
    rank: dict[str, np.ndarray]


class World:
    """Mutable simulation state: vehicle arrays, links, gating, inflows.

    Vehicles live in parallel arrays for the kernels; ``snapshot``
    materializes a VehicleState view for perception and inspection. A single
    thread owns the world; determinism given (construction, seed) is the
    contract.
    """

    def __init__(self, network: NetworkSpec, seed: int, b_max: float = DEFAULT_B_MAX):
        self.network = network
        self.seed = seed
        self.b_max = b_max
        self.default_noise_std = DEFAULT_NOISE_STD  # applied to spawned arrivals
        self.time = 0.0
        self.step_count = 0
        self.ids: list[str] = []
        self.route_ids: list[str] = []
        self.kinds: list[str] = []
        self.arc = np.empty(0)
        self.speed = np.empty(0)
        self.length = np.empty(0)
        self._route_len = np.empty(0)
        self._cyclic = np.empty(0, dtype=bool)
        self._p = {k: np.empty(0) for k in ("v0", "T", "a_max", "b", "delta", "s0")}
        self.noise: list[NoiseModel] = []
        self.lead_idx = np.empty(0, dtype=np.intp)
        self.gap = np.empty(0)
        self._index: dict[str, int] = {}
        self._seedseq = np.random.SeedSequence(seed)
        self.reservations = {cp.id: _Reservation() for cp in network.conflict_points}
        self.inflows: list[_Inflow] = []
        self.removed_count = 0

    # -- construction ------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def is_closed(self) -> bool:
        return not self.inflows and bool(self._cyclic.all())

    def spawn_stream(self) -> np.random.Generator:
        """Next child RNG stream; allocation order is the determinism key."""
        return np.random.default_rng(self._seedseq.spawn(1)[0])

    def add_vehicle(self, state: VehicleState, noise_std: float) -> None:
        if state.id in self._index:
            raise ValueError(f"duplicate vehicle id {state.id!r}")
        route = self.network.route(state.route_id)
        arc = route.arc_of(state.position)
        self._index[state.id] = self.size
        self.ids.append(state.id)
        self.route_ids.append(state.route_id)
        self.kinds.append(state.kind)
        self.arc = np.append(self.arc, arc)
        self.speed = np.append(self.speed, state.speed)
        self.length = np.append(self.length, state.length)
        self._route_len = np.append(self._route_len, route.length)
        self._cyclic = np.append(self._cyclic, route.cyclic)
        for key in self._p:
            self._p[key] = np.append(self._p[key], getattr(state.active_params, key))
        self.noise.append(NoiseModel(noise_std, self._seedseq.spawn(1)[0]))
        self.lead_idx = np.append(self.lead_idx, -1)
        self.gap = np.append(self.gap, np.inf)

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

    def snapshot(self, vehicle_id: str) -> VehicleState:
        i = self._index[vehicle_id]
        return VehicleState(
            id=self.ids[i],
            route_id=self.route_ids[i],
            position=self.network.arc_to_lane(self.route_ids[i], float(self.arc[i])),
            speed=float(self.speed[i]),
            length=float(self.length[i]),
            kind=self.kinds[i],
            active_params=self.params_of(vehicle_id),
        )

    def cav_ids(self) -> list[str]:
        return [vid for vid, kind in zip(self.ids, self.kinds) if kind == "cav"]

    def set_params(self, vehicle_id: str, params: IdmParams) -> None:
        """Install new planner parameters; takes effect from the next step."""
        i = self._index[vehicle_id]
        for key in self._p:
            self._p[key][i] = getattr(params, key)

    # -- leader links ------------------------------------------------------

    def set_links(self, lead_idx, gap) -> None:
        """Install leader links and authoritative bumper gaps directly.

        Scenario setup uses this to start uniform closed-network flows with
        bit-identical gaps for every vehicle.
        """
        self.lead_idx = np.asarray(lead_idx, dtype=np.intp).copy()
        self.gap = np.asarray(gap, dtype=np.float64).copy()

    def _extent_on(self, ego_route, j: int) -> float:
        """Visible body length of vehicle j as a leader on ``ego_route``."""
        if self.route_ids[j] == ego_route.id:
            return float(self.length[j])
        return net_mod.visible_extent(self.network, ego_route, self.route_ids[j],
                                      float(self.arc[j]), float(self.length[j]))

    def route_index(self) -> RouteIndex:
        """Sort the vehicles present on each route by their arc along it."""
        n = self.size
        positions = list(zip(self.route_ids, self.arc.tolist()))
        order, arcs, rank = {}, {}, {}
        for route in self.network.routes.values():
            idxs, proj = [], []
            for j, (rid, arc) in enumerate(positions):
                a = net_mod.project_onto_route(self.network, route, rid, arc)
                if a is not None:
                    idxs.append(j)
                    proj.append(a)
            by_arc = np.argsort(np.asarray(proj, dtype=float), kind="stable")
            order[route.id] = np.asarray(idxs, dtype=np.intp)[by_arc]
            arcs[route.id] = np.asarray(proj, dtype=float)[by_arc]
            rank[route.id] = np.full(n, -1, dtype=np.intp)
            rank[route.id][order[route.id]] = np.arange(len(idxs))
        return RouteIndex(order, arcs, rank)

    def rebuild_links(self) -> None:
        """Derive leader links and bumper gaps from current positions."""
        n = self.size
        lead = np.full(n, -1, dtype=np.intp)
        gap = np.full(n, np.inf)
        index = self.route_index()
        for i in range(n):
            rid = self.route_ids[i]
            route = self.network.route(rid)
            idxs, arcs = index.order[rid], index.arcs[rid]
            k = int(index.rank[rid][i])
            m = len(idxs)
            if route.cyclic:
                k_lead = (k + 1) % m
                j = int(idxs[k_lead])
                if j == i:  # alone on the loop: it chases itself
                    lead[i] = i
                    gap[i] = route.length - float(self.length[i])
                else:
                    d = (float(arcs[k_lead]) - float(arcs[k])) % route.length
                    lead[i] = j
                    gap[i] = d - self._extent_on(route, j)
            else:
                if k + 1 < m:
                    j = int(idxs[k + 1])
                    lead[i] = j
                    gap[i] = float(arcs[k + 1]) - float(arcs[k]) - self._extent_on(route, j)
        self.lead_idx = lead
        self.gap = gap

    # -- conflict-point gating ----------------------------------------------

    def _signed_dist_to(self, i: int, route_id: str, cp_arc: float) -> float | None:
        """Signed forward distance from vehicle i's front to a route arc.

        Negative once the front has passed; cyclic distances wrap into
        (-L/2, L/2]. ``None`` if the vehicle is not on that route.
        """
        route = self.network.route(route_id)
        proj = net_mod.project_onto_route(self.network, route,
                                          self.route_ids[i], float(self.arc[i]))
        if proj is None:
            return None
        if route.cyclic:
            d = (cp_arc - proj) % route.length
            if d > route.length / 2.0:
                d -= route.length
            return d
        return cp_arc - proj

    def _update_reservations(self) -> None:
        for cp in self.network.conflict_points:
            res = self.reservations[cp.id]
            # release a holder whose rear has cleared the point (or vanished)
            if res.holder is not None:
                hi = self._index.get(res.holder)
                cleared = True
                if hi is not None and res.holder_arc_key is not None:
                    d = self._signed_dist_to(hi, *res.holder_arc_key)
                    cleared = d is None or d < -float(self.length[hi])
                if cleared:
                    res.holder = None
                    res.holder_arc_key = None
            # enroll vehicles inside the approach window, in arrival order
            for i in range(self.size):
                vid = self.ids[i]
                if vid == res.holder or vid in res.enrolled:
                    continue
                for key in cp.points:
                    d = self._signed_dist_to(i, *key)
                    if d is not None and -float(self.length[i]) <= d <= cp.window:
                        res.queue.append((self.step_count, res.seq, vid, key))
                        res.enrolled.add(vid)
                        res.seq += 1
                        break
            # drop queued vehicles that left the window region or the world
            fresh = []
            for entry in res.queue:
                _, _, vid, key = entry
                j = self._index.get(vid)
                if j is None:
                    res.enrolled.discard(vid)
                    continue
                d = self._signed_dist_to(j, *key)
                if d is None or d < -float(self.length[j]):
                    res.enrolled.discard(vid)
                    continue
                fresh.append(entry)
            res.queue = fresh
            if res.holder is None and res.queue:
                res.queue.sort(key=lambda e: (e[0], e[1]))
                _, _, vid, key = res.queue.pop(0)
                res.enrolled.discard(vid)
                res.holder = vid
                res.holder_arc_key = key

    def _virtual_gaps(self) -> np.ndarray | None:
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
            for i in range(self.size):
                if self.ids[i] == res.holder:
                    continue
                for key in cp.points:
                    d = self._signed_dist_to(i, *key)
                    if d is not None and d > 0.0:
                        vgap[i] = min(vgap[i], d)
        return vgap

    # -- arrivals and removals ----------------------------------------------

    def _try_spawn(self, inflow: _Inflow, speed_limit: float) -> bool:
        vid, kind = inflow.pending[0]
        route = self.network.route(inflow.route_id)
        # nearest vehicle ahead of the entry point
        best = math.inf
        best_j = -1
        for j in range(self.size):
            proj = net_mod.project_onto_route(self.network, route,
                                              self.route_ids[j], float(self.arc[j]))
            if proj is not None and proj < best:
                best = proj
                best_j = j
        params = human_params(speed_limit)
        if best_j >= 0:
            entry_gap = best - float(self.length[best_j])
            if entry_gap <= params.s0 + 1.0:
                return False  # no safe slot yet; retry next step
            speed = equilibrium_speed(params, min(entry_gap, 1e6))
        else:
            speed = params.v0
        state = VehicleState(
            id=vid, route_id=inflow.route_id,
            position=self.network.arc_to_lane(inflow.route_id, 0.0),
            speed=speed, length=DEFAULT_VEHICLE_LENGTH, kind=kind,
            active_params=params)
        self.add_vehicle(state, self.default_noise_std if kind == "human" else 0.0)
        inflow.pending.pop(0)
        return True

    def _process_arrivals(self) -> None:
        limit = self.network.speed_limit
        for inflow in self.inflows:
            inflow.poll(self.time)
            while inflow.pending:
                if not self._try_spawn(inflow, limit):
                    break

    def _remove_finished(self) -> None:
        """Drop vehicles whose front bumper passed an open route's sink."""
        if self._cyclic.all():
            return
        done = ~self._cyclic & (self.arc >= self._route_len)
        if not done.any():
            return
        keep = ~done
        self.removed_count += int(done.sum())
        self.ids = [v for v, k in zip(self.ids, keep) if k]
        self.route_ids = [v for v, k in zip(self.route_ids, keep) if k]
        self.kinds = [v for v, k in zip(self.kinds, keep) if k]
        self.noise = [v for v, k in zip(self.noise, keep) if k]
        self.arc = self.arc[keep]
        self.speed = self.speed[keep]
        self.length = self.length[keep]
        self._route_len = self._route_len[keep]
        self._cyclic = self._cyclic[keep]
        for key in self._p:
            self._p[key] = self._p[key][keep]
        self._index = {vid: i for i, vid in enumerate(self.ids)}

    def _check_gaps(self) -> None:
        bad = np.flatnonzero(self.gap <= 0.0)
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
    update, collision check, sink removal.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not world.is_closed:
        world._process_arrivals()
        world.rebuild_links()
    if world.reservations:
        world._update_reservations()
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
    p = world._p
    acc = kernels.idm_acceleration(v, dv, gap, p["v0"], p["T"], p["a_max"],
                                   p["b"], p["delta"], p["s0"])
    cap = kernels.safe_speed(gap, lead_speed, dt, world.b_max)

    vgap = world._virtual_gaps()
    if vgap is not None:
        acc_v = kernels.idm_acceleration(v, v, vgap, p["v0"], p["T"],
                                         p["a_max"], p["b"], p["delta"], p["s0"])
        acc = np.minimum(acc, acc_v)
        cap = np.minimum(cap, kernels.safe_speed(vgap, np.zeros(n), dt, world.b_max))

    if any(nm.std > 0.0 for nm in world.noise):
        acc = acc + np.array([nm.sample(dt) for nm in world.noise])

    v_new = np.maximum(0.0, v + acc * dt)
    v_new = np.minimum(v_new, np.maximum(cap, 0.0))

    world.arc = world.arc + v_new * dt
    over = world._cyclic & (world.arc >= world._route_len)
    if over.any():
        world.arc[over] -= world._route_len[over]
    world.speed = v_new
    world.gap = world.gap + np.where(has_lead, v_new[lead] - v_new, 0.0) * dt
    world._check_gaps()
    world._remove_finished()
