"""Multi-tenant session grid: admission control, quotas, overload shedding.

The paper's grid serves one collaborative session; every layer built on
top of it so far (fault tolerance, monitoring, autoscaling) manages a
single :class:`~repro.core.session.CollaborativeSession` over a handful
of services.  The ROADMAP's north star — heavy traffic from many users —
needs the opposite decomposition: **one shared render-service pool, many
sessions bin-packed onto it**, with an explicit service contract at the
front door.  Rendering-as-a-Service systems treat admission and tenant
isolation as that contract: a full grid answers a new request with an
explicit 429-style refusal rather than degrading everyone silently.

:class:`SessionGridManager` owns the pool and makes every decision
auditable:

- **admit** — the request's capacity demand fits the pool's spare
  capacity and the tenant's quota: a :class:`CollaborativeSession` is
  built over the members with the most headroom and placed immediately;
- **queue** — the grid is momentarily full but the bounded FIFO has
  room: the caller gets its queue position, and :meth:`pump` admits
  head-of-line requests as capacity frees (a deadline bounds the wait —
  expiry converts the entry into an explicit reject);
- **reject** — quota exceeded, queue full, or the queued deadline
  passed: the decision carries a ready-to-send 429 frame
  (:func:`repro.services.protocol.frame_reject`) with a ``retry_after``
  hint, surfaced to thin clients as
  :class:`~repro.errors.TooManyRequestsError`.

Capacity is accounted in polygons·per·second: a session admitted for
``D`` polygons at ``F`` fps consumes ``D × F`` pps of the pool's
aggregate polygon rate for as long as its shares stay resident on the
members.  Under sustained overload :meth:`shed` degrades the
lowest-priority tenant first — fps budgets step down toward each
session's floor (a delivery degradation that relieves frame-deadline
pressure), then whole sessions are parked into last-good-tile mode,
which releases their shares and actually returns capacity to the pool —
and **never** takes a tenant below its guaranteed quota floor.
:meth:`restore` walks the same ladder back up once pressure clears.

The grid exports its own :class:`~repro.obs.telemetry.ServiceTelemetry`
(kind ``grid``) so the monitor scrapes queue depth and rejection rate
like any other service, the ``grid-saturated`` rules fire on them, and
the :class:`~repro.core.autoscale.RecruitmentAutoscaler` grows the pool
for the whole grid instead of one session.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.capacity import DEFAULT_TARGET_FPS
from repro.core.cost import tree_cost
from repro.core.session import CollaborativeSession
from repro.errors import (
    InsufficientResources,
    NetworkError,
    SceneGraphError,
    ServiceError,
    SessionError,
)
from repro.obs import active as _obs
from repro.obs.vocab import (
    EVENT_ADMIT,
    EVENT_QUEUE,
    EVENT_REJECT,
    EVENT_RESTORE,
    EVENT_SHED,
    SERVICE_GRID,
)
from repro.obs.telemetry import ServiceTelemetry
from repro.obs.tracing import TraceContext
from repro.services.protocol import frame_reject

#: reject reasons carried in the 429 frame (free-form, for humans)
REASON_SATURATED = "grid-saturated: pool full and admission queue full"
REASON_QUEUE_TIMEOUT = "queued past deadline without capacity freeing up"
REASON_DUPLICATE = "duplicate request: session id already queued"


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits and shedding guarantees.

    ``priority`` orders shedding (lower sheds first).  ``max_share`` and
    ``guaranteed_share`` are fractions of the pool's aggregate polygon
    rate: admission never lets the tenant exceed ``max_share`` and
    shedding never pushes it below ``guaranteed_share`` (its quota
    floor).  ``fps_floor_fraction`` bounds per-session degradation: a
    session admitted at 10 fps with the default 0.25 floor is never
    budgeted below 2.5 fps while it stays unparked.
    """

    tenant: str
    priority: int = 0
    max_sessions: int = 2
    max_share: float = 0.75
    guaranteed_share: float = 0.05
    fps_floor_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if not 0.0 < self.max_share <= 1.0:
            raise ValueError("max_share must be in (0, 1]")
        if not 0.0 <= self.guaranteed_share <= self.max_share:
            raise ValueError(
                "guaranteed_share must be in [0, max_share]")
        if not 0.0 < self.fps_floor_fraction <= 1.0:
            raise ValueError("fps_floor_fraction must be in (0, 1]")

    def lease_cap(self, slots: int) -> int:
        """Concurrent-lease cap for a pool of ``slots`` worker slots.

        ``max_share`` applied to a discrete resource: the render farm's
        frame queue charges each outstanding lease against the job's
        tenant, and admission of a new lease stops at this cap while
        other tenants have pending work.  Never below one, so a lone
        tenant always makes progress (the scheduler is work-conserving
        and ignores the cap when nobody else is waiting).
        """
        return max(1, int(self.max_share * max(1, slots)))


@dataclass
class GridSession:
    """One admitted session and its capacity bookkeeping."""

    tenant: str
    session_id: str
    session: CollaborativeSession
    demand_polygons: int
    requested_fps: float
    fps_budget: float
    fps_floor: float
    admitted_at: float
    parked: bool = False

    @property
    def pps(self) -> float:
        """Pool capacity this session consumes (0 while parked).

        Charged at the *admitted* frame rate: the shares stay resident
        on the members whatever rate is currently delivered, so only
        parking (which releases the shares) returns capacity to the
        pool.  ``fps_budget`` below ``requested_fps`` is a delivery
        degradation, not a capacity release.
        """
        return 0.0 if self.parked \
            else self.demand_polygons * self.requested_fps

    @property
    def degraded(self) -> bool:
        return self.parked or self.fps_budget < self.requested_fps


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission-controller outcome, auditable and wire-ready."""

    outcome: str                       # EVENT_ADMIT | EVENT_QUEUE | EVENT_REJECT
    tenant: str
    session_id: str
    time: float
    reason: str = ""
    queue_position: int | None = None
    retry_after: float = 0.0
    grid_session: GridSession | None = None
    #: the 429 frame a front end would put on the wire (rejects only)
    reject_frame: bytes | None = None


@dataclass
class QueuedRequest:
    """A session request parked in the bounded admission FIFO."""

    tenant: str
    session_id: str
    tree: object
    target_fps: float
    demand_polygons: int
    enqueued_at: float
    deadline: float
    on_admit: object = None            # callable(AdmissionDecision) | None
    on_reject: object = None
    trace: TraceContext | None = None  # originating request's trace context


@dataclass(frozen=True)
class ShedAction:
    """One overload-shedding (or restore) step the grid took."""

    time: float
    action: str                        # "degrade" | "park" | "raise" | "unpark"
    tenant: str
    sessions: tuple[str, ...]
    detail: str = ""


class SessionGridManager:
    """Owns a shared render pool; bin-packs tenant sessions onto it."""

    def __init__(self, data_service, members=None, recruiter=None,
                 name: str = "rave-grid",
                 target_fps: float = DEFAULT_TARGET_FPS,
                 queue_capacity: int = 4, queue_timeout: float = 30.0,
                 rejection_window: float = 10.0,
                 default_quota: TenantQuota | None = None,
                 max_pool_size: int | None = None) -> None:
        if queue_capacity < 0:
            raise ServiceError("queue_capacity must be >= 0")
        if queue_timeout <= 0:
            raise ServiceError("queue_timeout must be positive")
        self.data_service = data_service
        self.name = name
        self.recruiter = recruiter
        self.target_fps = target_fps
        self.queue_capacity = queue_capacity
        self.queue_timeout = queue_timeout
        self.rejection_window = rejection_window
        self.max_pool_size = max_pool_size
        self.default_quota = default_quota or TenantQuota(tenant="*")
        self._members: dict[str, object] = {}
        self.failed_members: set[str] = set()
        self._quotas: dict[str, TenantQuota] = {}
        self._sessions: dict[str, GridSession] = {}
        self._queue: deque[QueuedRequest] = deque()
        self._pumping = False
        self.decisions: deque[AdmissionDecision] = deque(maxlen=1024)
        self.shed_actions: list[ShedAction] = []
        self.requests = 0
        self.admissions = 0
        self.rejections = 0
        self.queue_timeouts = 0
        self._recent_rejects: deque[float] = deque(maxlen=1024)
        self.telemetry = ServiceTelemetry(name, host=data_service.host,
                                          kind=SERVICE_GRID)
        self.telemetry.add_collector(self._collect_telemetry)
        for service in members or []:
            self.add_member(service)

    # -- plumbing --------------------------------------------------------------------

    @property
    def network(self):
        return self.data_service.network

    @property
    def host(self) -> str:
        return self.data_service.host

    @property
    def now(self) -> float:
        return self.network.sim.now

    # -- pool membership -------------------------------------------------------------

    @property
    def members(self) -> list:
        return [self._members[n] for n in sorted(self._members)]

    def add_member(self, service) -> None:
        if service.name in self._members:
            raise ServiceError(f"{service.name!r} is already a pool member")
        self._members[service.name] = service
        self.failed_members.discard(service.name)

    def remove_member(self, name: str) -> None:
        self._members.pop(name, None)

    def handle_member_failure(self, name: str) -> None:
        """Mark a member dead pool-wide; sessions recover via :meth:`lend`.

        Each admitted session's own fault-tolerance path
        (:meth:`CollaborativeSession.handle_service_failure`) reclaims
        the dead service's share; this just stops the grid counting the
        corpse's capacity and lending it out again.
        """
        if name in self._members:
            self.failed_members.add(name)

    def live_members(self) -> list:
        network = self.network
        out = []
        for name in sorted(self._members):
            if name in self.failed_members:
                continue
            service = self._members[name]
            try:
                if network.host_is_up(service.host):
                    out.append(service)
            except NetworkError:
                continue
        return out

    def _member_spare_pps(self, service) -> float:
        """Uncommitted polygon rate on one member.

        Each grid session's share is charged at that session's admitted
        frame rate; any polygons committed by non-grid users of the
        member are charged at the grid's base fps.
        """
        grid_polys = 0.0
        grid_pps = 0.0
        for gs in self._sessions.values():
            polys = gs.session.share_polygons(service.name)
            grid_polys += polys
            grid_pps += polys * gs.requested_fps
        foreign = max(0.0, service.committed_polygons() - grid_polys)
        committed = grid_pps + foreign * self.target_fps
        return service.capacity().polygons_per_second - committed

    # -- capacity accounting -----------------------------------------------------------

    def pool_pps(self) -> float:
        """Aggregate polygon rate of the live pool."""
        return sum(s.capacity().polygons_per_second
                   for s in self.live_members())

    def committed_pps(self) -> float:
        return sum(gs.pps for gs in self._sessions.values())

    def spare_pps(self) -> float:
        return self.pool_pps() - self.committed_pps()

    def tenant_pps(self, tenant: str) -> float:
        return sum(gs.pps for gs in self._sessions.values()
                   if gs.tenant == tenant)

    def tenant_sessions(self, tenant: str) -> list[GridSession]:
        return [gs for _, gs in sorted(self._sessions.items())
                if gs.tenant == tenant]

    def utilisation(self) -> float:
        pool = self.pool_pps()
        return self.committed_pps() / pool if pool > 0 else 0.0

    # -- tenants ---------------------------------------------------------------------

    def register_tenant(self, quota: TenantQuota) -> None:
        self._quotas[quota.tenant] = quota

    def quota(self, tenant: str) -> TenantQuota:
        existing = self._quotas.get(tenant)
        if existing is not None:
            return existing
        quota = TenantQuota(
            tenant=tenant, priority=self.default_quota.priority,
            max_sessions=self.default_quota.max_sessions,
            max_share=self.default_quota.max_share,
            guaranteed_share=self.default_quota.guaranteed_share,
            fps_floor_fraction=self.default_quota.fps_floor_fraction)
        self._quotas[tenant] = quota
        return quota

    def tenants(self) -> list[str]:
        return sorted({gs.tenant for gs in self._sessions.values()}
                      | set(self._quotas))

    # -- admission -------------------------------------------------------------------

    def request_session(self, tenant: str, session_id: str, tree,
                        target_fps: float | None = None,
                        on_admit=None, on_reject=None,
                        trace: TraceContext | None = None
                        ) -> AdmissionDecision:
        """The admission controller: admit, queue, or reject.

        ``on_admit``/``on_reject`` are optional callbacks a queued
        request carries, invoked by :meth:`pump` when the wait resolves.
        ``trace`` is the caller's trace context: it rides any reject
        frame, stamps the flight-recorder admission events, and the
        eventual admit records an ``admission`` span under it.
        """
        now = self.now
        self.requests += 1
        if session_id in self._sessions:
            raise SessionError(
                f"session {session_id!r} is already admitted")
        if self.queue_position(session_id) is not None:
            return self._reject(tenant, session_id, now, REASON_DUPLICATE,
                                retry_after=self.queue_timeout, trace=trace)
        quota = self.quota(tenant)
        fps = float(target_fps if target_fps is not None
                    else self.target_fps)
        demand = max(1, tree_cost(tree).polygons)
        blocked = self._quota_violation(quota, demand * fps)
        if blocked:
            return self._reject(tenant, session_id, now, blocked,
                                retry_after=0.0, trace=trace)
        if not self._queue and demand * fps <= self.spare_pps():
            decision = self._try_admit(tenant, session_id, tree, fps,
                                       demand, now, queued_for=0.0,
                                       trace=trace)
            if decision is not None:
                return decision
        if len(self._queue) < self.queue_capacity:
            return self._enqueue(tenant, session_id, tree, fps, demand,
                                 now, on_admit, on_reject, trace=trace)
        return self._reject(tenant, session_id, now, REASON_SATURATED,
                            retry_after=self.queue_timeout, trace=trace)

    def _quota_violation(self, quota: TenantQuota, request_pps: float
                         ) -> str:
        """A quota-level refusal reason, or '' when the request is legal."""
        active = len(self.tenant_sessions(quota.tenant))
        if active >= quota.max_sessions:
            return (f"tenant quota: {quota.tenant} already holds "
                    f"{active}/{quota.max_sessions} sessions")
        pool = self.pool_pps()
        if pool > 0 and (self.tenant_pps(quota.tenant) + request_pps
                         > quota.max_share * pool):
            return (f"tenant quota: request would push {quota.tenant} "
                    f"past its {quota.max_share:.0%} pool share")
        return ""

    def _try_admit(self, tenant: str, session_id: str, tree, fps: float,
                   demand: int, now: float, queued_for: float,
                   trace: TraceContext | None = None
                   ) -> AdmissionDecision | None:
        """Build, connect and place the session; None when placement fails."""
        try:
            self.data_service.session(session_id)
        except (ServiceError, KeyError):
            self.data_service.create_session(session_id, tree)
        session = CollaborativeSession(
            self.data_service, session_id, target_fps=fps, pool=self)
        chosen = self._choose_members(demand * fps)
        try:
            for service in chosen:
                session.connect(service)
            session.place_dataset()
        except (InsufficientResources, SceneGraphError, ServiceError,
                NetworkError):
            # SceneGraphError: the scene would not pack into the members'
            # fragmented headroom even though the total spare covers it
            for service in list(session.render_services):
                try:
                    session.disconnect(service)
                except (ServiceError, NetworkError):
                    pass
            return None
        quota = self.quota(tenant)
        gs = GridSession(
            tenant=tenant, session_id=session_id, session=session,
            demand_polygons=demand, requested_fps=fps, fps_budget=fps,
            fps_floor=fps * quota.fps_floor_fraction, admitted_at=now)
        self._sessions[session_id] = gs
        self.admissions += 1
        decision = AdmissionDecision(
            outcome=EVENT_ADMIT, tenant=tenant, session_id=session_id,
            time=now, grid_session=gs,
            reason=f"admitted onto {[s.name for s in chosen]}")
        self.decisions.append(decision)
        obs = _obs()
        if obs.enabled:
            obs.recorder.note(
                EVENT_ADMIT, time=now,
                detail=f"{tenant}/{session_id}: {demand} polygons at "
                       f"{fps:g} fps onto {[s.name for s in chosen]} "
                       f"(waited {queued_for:g}s)",
                trace=trace.trace_id if trace else "")
            if trace is not None:
                obs.tracer.record(
                    "admission", now - queued_for, now,
                    service=self.name, session=session_id, tenant=tenant,
                    trace=trace.trace_id)
        self.telemetry.registry.histogram(
            "rave_queue_wait_seconds",
            "admission-queue wait before admit").observe(queued_for)
        return decision

    def _choose_members(self, request_pps: float) -> list:
        """Bin-pack: the fewest most-spare members that cover the demand."""
        ranked = sorted(self.live_members(),
                        key=lambda s: (-self._member_spare_pps(s), s.name))
        chosen, covered = [], 0.0
        for service in ranked:
            chosen.append(service)
            covered += max(0.0, self._member_spare_pps(service))
            if covered >= request_pps:
                break
        return chosen

    def _enqueue(self, tenant: str, session_id: str, tree, fps: float,
                 demand: int, now: float, on_admit, on_reject,
                 trace: TraceContext | None = None
                 ) -> AdmissionDecision:
        entry = QueuedRequest(
            tenant=tenant, session_id=session_id, tree=tree,
            target_fps=fps, demand_polygons=demand, enqueued_at=now,
            deadline=now + self.queue_timeout, on_admit=on_admit,
            on_reject=on_reject, trace=trace)
        self._queue.append(entry)
        # the deadline is enforced by the simulated clock itself, not by
        # the next unrelated admission event: a daemon wake-up at the
        # deadline converts a still-queued entry into its 429
        self.network.sim.schedule_at(
            entry.deadline, lambda: self._deadline_tick(entry), daemon=True)
        position = len(self._queue)
        decision = AdmissionDecision(
            outcome=EVENT_QUEUE, tenant=tenant, session_id=session_id,
            time=now, queue_position=position,
            retry_after=self.queue_timeout,
            reason=f"grid full; queued at position {position}")
        self.decisions.append(decision)
        obs = _obs()
        if obs.enabled:
            obs.recorder.note(
                EVENT_QUEUE, time=now,
                detail=f"{tenant}/{session_id}: position {position}, "
                       f"deadline {entry.deadline:g}s",
                trace=trace.trace_id if trace else "")
        return decision

    def _reject(self, tenant: str, session_id: str, now: float,
                reason: str, retry_after: float,
                trace: TraceContext | None = None) -> AdmissionDecision:
        frame = frame_reject(reason, retry_after, tenant=tenant,
                             session_id=session_id,
                             queue_depth=len(self._queue), trace=trace)
        self.rejections += 1
        self._recent_rejects.append(now)
        decision = AdmissionDecision(
            outcome=EVENT_REJECT, tenant=tenant, session_id=session_id,
            time=now, reason=reason, retry_after=retry_after,
            reject_frame=frame)
        self.decisions.append(decision)
        obs = _obs()
        if obs.enabled:
            obs.recorder.note(
                EVENT_REJECT, time=now,
                detail=f"{tenant}/{session_id}: {reason} "
                       f"(retry after {retry_after:g}s)",
                trace=trace.trace_id if trace else "")
        return decision

    # -- the queue -------------------------------------------------------------------

    def queue_depth(self) -> int:
        return len(self._queue)

    def queue_position(self, session_id: str) -> int | None:
        """1-based position in the FIFO, or None when not queued."""
        for index, entry in enumerate(self._queue):
            if entry.session_id == session_id:
                return index + 1
        return None

    def _deadline_tick(self, entry: QueuedRequest) -> None:
        """Daemon wake-up at a queued entry's deadline (see :meth:`_enqueue`).

        Runs a pump pass only if the entry is still waiting, so the 429
        (and its ``on_reject``) fires *at* the deadline; entries already
        admitted or rejected make this a no-op.
        """
        if entry in self._queue:
            self.pump()

    def pump(self, now: float | None = None) -> list[AdmissionDecision]:
        """Expire deadlined entries, then admit head-of-line while it fits.

        FIFO order is strict: a small request never skips past a large
        head-of-line request (no starvation of big tenants).  Returns
        the decisions resolved this pass.

        Pumping is non-reentrant: an ``on_reject``/``on_admit`` callback
        that pumps again (e.g. a thin client retrying synchronously)
        gets an empty pass back instead of racing the outer pass's
        snapshot of the queue — the outer pump already drains
        everything drainable.
        """
        now = self.now if now is None else now
        if self._pumping:
            return []
        self._pumping = True
        try:
            return self._pump_locked(now)
        finally:
            self._pumping = False

    def _pump_locked(self, now: float) -> list[AdmissionDecision]:
        resolved: list[AdmissionDecision] = []
        for entry in [e for e in self._queue if e.deadline <= now]:
            self._queue.remove(entry)
            self.queue_timeouts += 1
            decision = self._reject(entry.tenant, entry.session_id, now,
                                    REASON_QUEUE_TIMEOUT,
                                    retry_after=self.queue_timeout,
                                    trace=entry.trace)
            if entry.on_reject is not None:
                entry.on_reject(decision)
            resolved.append(decision)
        while self._queue:
            head = self._queue[0]
            if head.session_id in self._sessions:
                # a duplicate of an already-admitted session must never
                # admit again (it would overwrite the live GridSession
                # and leak its shares) — resolve it as an explicit 429
                self._queue.popleft()
                decision = self._reject(head.tenant, head.session_id,
                                        now, REASON_DUPLICATE,
                                        retry_after=0.0, trace=head.trace)
                if head.on_reject is not None:
                    head.on_reject(decision)
                resolved.append(decision)
                continue
            quota = self.quota(head.tenant)
            request_pps = head.demand_polygons * head.target_fps
            blocked = self._quota_violation(quota, request_pps)
            if blocked:
                self._queue.popleft()
                decision = self._reject(head.tenant, head.session_id,
                                        now, blocked, retry_after=0.0,
                                        trace=head.trace)
                if head.on_reject is not None:
                    head.on_reject(decision)
                resolved.append(decision)
                continue
            if request_pps > self.spare_pps():
                break
            decision = self._try_admit(
                head.tenant, head.session_id, head.tree, head.target_fps,
                head.demand_polygons, now,
                queued_for=now - head.enqueued_at, trace=head.trace)
            if decision is None:
                break
            self._queue.popleft()
            if head.on_admit is not None:
                head.on_admit(decision)
            resolved.append(decision)
        return resolved

    # -- session lifecycle -------------------------------------------------------------

    def session(self, session_id: str) -> GridSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionError(
                f"session {session_id!r} is not admitted") from None

    def sessions(self) -> list[GridSession]:
        return [self._sessions[s] for s in sorted(self._sessions)]

    def release_session(self, session_id: str) -> list[AdmissionDecision]:
        """End an admitted session and drain the queue into its capacity."""
        gs = self.session(session_id)
        for service in list(gs.session.render_services):
            try:
                gs.session.disconnect(service)
            except (ServiceError, NetworkError):
                pass
        del self._sessions[session_id]
        return self.pump()

    def lend(self, session: CollaborativeSession) -> list:
        """Attach spare pool members to a session (its recovery path).

        Called by :meth:`CollaborativeSession.recruit_more` when the
        session is pool-owned: instead of a UDDI scan, the shared pool
        lends out members the session is not yet using — preferring
        spare capacity, skipping failed members and down hosts.
        """
        attached = {s.name for s in session.render_services}
        candidates = [
            s for s in self.live_members()
            if s.name not in attached
            and s.name not in session.failed_services
        ]
        candidates.sort(key=lambda s: (-self._member_spare_pps(s), s.name))
        lent = []
        for service in candidates:
            if lent and self._member_spare_pps(service) <= 0:
                break
            try:
                session.connect(service)
            except (NetworkError, ServiceError):
                continue
            session._narrow(service, set())
            lent.append(service)
        return lent

    # -- overload shedding -------------------------------------------------------------

    def _tenant_floor_pps(self, tenant: str) -> float:
        return self.quota(tenant).guaranteed_share * self.pool_pps()

    def shed(self, now: float | None = None) -> ShedAction | None:
        """One graceful shedding step; None when nothing can shed.

        Tenants shed in priority order (lowest first) and only while
        above their guaranteed quota floor.  A step first halves the
        tenant's fps budgets (clamped at each session's fps floor) —
        a delivery degradation that relieves frame-deadline pressure;
        once every session sits at its fps floor, sessions are parked
        one at a time into last-good-tile mode — their shares released
        back to the pool, which is what actually frees capacity — as
        long as the tenant's remaining live load stays at or above its
        floor.
        """
        now = self.now if now is None else now
        order = sorted({gs.tenant for gs in self._sessions.values()},
                       key=lambda t: (self.quota(t).priority, t))
        for tenant in order:
            action = self._shed_tenant(tenant, now)
            if action is not None:
                return action
        return None

    def _shed_tenant(self, tenant: str, now: float) -> ShedAction | None:
        floor = self._tenant_floor_pps(tenant)
        current = self.tenant_pps(tenant)
        if current <= floor or current <= 0:
            return None
        live = [gs for gs in self.tenant_sessions(tenant) if not gs.parked]
        # step 1: halve fps budgets, clamped at per-session floors
        changed = []
        for gs in live:
            new_budget = max(gs.fps_floor, gs.fps_budget * 0.5)
            if new_budget < gs.fps_budget:
                gs.fps_budget = new_budget
                changed.append(gs.session_id)
        if changed:
            budgets = ", ".join(
                f"{gs.session_id}@{gs.fps_budget:g}fps" for gs in live)
            return self._record_shed(
                "degrade", tenant, changed, now,
                f"fps budgets halved toward floor ({budgets})")
        # step 2: park a whole session, floor permitting
        for gs in live:
            if current - gs.pps >= floor:
                self._park(gs)
                return self._record_shed(
                    "park", tenant, [gs.session_id], now,
                    "last-good-tile mode; shares released to the pool")
        return None

    def shed_to_fit(self, now: float | None = None) -> list[ShedAction]:
        """Shed until committed load fits the (possibly shrunken) pool."""
        now = self.now if now is None else now
        actions: list[ShedAction] = []
        while self.committed_pps() > self.pool_pps():
            action = self.shed(now)
            if action is None:
                break
            actions.append(action)
        return actions

    def restore(self, now: float | None = None) -> ShedAction | None:
        """One recovery step: unpark first, then raise fps budgets.

        Highest-priority tenants recover first.  Unparking re-occupies
        pool capacity, so it is bounded by the current spare; raising a
        budget only restores the delivery rate the session was admitted
        at, which its resident shares already pay for, so the raise
        pass runs whenever the overload has cleared.
        """
        now = self.now if now is None else now
        spare = self.spare_pps()
        order = sorted({gs.tenant for gs in self._sessions.values()},
                       key=lambda t: (-self.quota(t).priority, t))
        for tenant in order:
            if spare <= 0:
                break
            for gs in self.tenant_sessions(tenant):
                if gs.parked and \
                        gs.demand_polygons * gs.requested_fps <= spare:
                    self._unpark(gs)
                    if gs.parked:
                        continue
                    return self._record_restore(
                        "unpark", tenant, [gs.session_id], now,
                        "shares re-placed onto the pool")
        for tenant in order:
            changed = []
            for gs in self.tenant_sessions(tenant):
                if gs.parked or gs.fps_budget >= gs.requested_fps:
                    continue
                gs.fps_budget = min(gs.requested_fps, gs.fps_budget * 2.0)
                changed.append(gs.session_id)
            if changed:
                return self._record_restore(
                    "raise", tenant, changed, now,
                    "fps budgets raised toward requested rates")
        return None

    def _park(self, gs: GridSession) -> None:
        gs.parked = True
        session = gs.session
        for service in list(session.render_services):
            attachment = session.attachment(service)
            attachment.share = set()
            try:
                session._narrow(service, set())
            except (ServiceError, NetworkError):
                continue

    def _unpark(self, gs: GridSession) -> None:
        gs.parked = False
        # the members it was parked on may have filled up meanwhile —
        # offer the session every spare member before re-placing
        self.lend(gs.session)
        try:
            gs.session.place_dataset()
        except (InsufficientResources, ServiceError, NetworkError):
            gs.parked = True

    def _record_shed(self, action: str, tenant: str, sessions, now: float,
                     detail: str) -> ShedAction:
        record = ShedAction(time=now, action=action, tenant=tenant,
                            sessions=tuple(sessions), detail=detail)
        self.shed_actions.append(record)
        obs = _obs()
        if obs.enabled:
            obs.recorder.note(
                EVENT_SHED, time=now,
                detail=f"{tenant}: {action} {list(record.sessions)} "
                       f"— {detail}")
        return record

    def _record_restore(self, action: str, tenant: str, sessions,
                        now: float, detail: str) -> ShedAction:
        record = ShedAction(time=now, action=action, tenant=tenant,
                            sessions=tuple(sessions), detail=detail)
        self.shed_actions.append(record)
        obs = _obs()
        if obs.enabled:
            obs.recorder.note(
                EVENT_RESTORE, time=now,
                detail=f"{tenant}: {action} {list(record.sessions)} "
                       f"— {detail}")
        return record

    # -- pool scaling ----------------------------------------------------------------

    def grow(self, count: int = 1) -> list:
        """Recruit new members into the pool via UDDI (the autoscaler path)."""
        if self.recruiter is None:
            return []
        if (self.max_pool_size is not None
                and len(self._members) >= self.max_pool_size):
            return []
        result = self.recruiter.recruit(
            exclude=set(self._members) | self.failed_members)
        network = self.network
        added = []
        for service in result.services:
            if len(added) >= count:
                break
            if service.name in self._members:
                continue
            try:
                if not network.host_is_up(service.host):
                    continue
            except NetworkError:
                continue
            self.add_member(service)
            added.append(service)
        return added

    def release_idle(self, min_members: int = 1) -> list[str]:
        """Drop members no session touches (scale-in), queue permitting."""
        if self._queue:
            return []
        in_use: set[str] = set()
        for gs in self._sessions.values():
            in_use |= {s.name for s in gs.session.render_services}
        released = []
        for name in sorted(self._members):
            if len(self._members) - len(released) <= min_members:
                break
            if name in in_use or name in self.failed_members:
                continue
            released.append(name)
        for name in released:
            del self._members[name]
        return released

    # -- telemetry -------------------------------------------------------------------

    def rejection_rate(self, now: float | None = None) -> float:
        """Rejects per second over the trailing window (recovery-visible)."""
        now = self.now if now is None else now
        cutoff = now - self.rejection_window
        recent = sum(1 for t in self._recent_rejects if t > cutoff)
        return recent / self.rejection_window

    def _collect_telemetry(self, registry) -> None:
        now = self.now
        registry.gauge("rave_queue_depth",
                       "admission queue depth").set(len(self._queue))
        registry.gauge("rave_admission_rejection_rate",
                       "rejects per second over the trailing window"
                       ).set(self.rejection_rate(now))
        registry.gauge("rave_admission_sessions",
                       "admitted sessions").set(len(self._sessions))
        registry.gauge("rave_admission_pool_utilisation",
                       "committed fraction of the pool's polygon rate"
                       ).set(self.utilisation())
        counts: dict[str, int] = {}
        for gs in self._sessions.values():
            counts[gs.tenant] = counts.get(gs.tenant, 0) + 1
        for tenant in sorted(counts):
            registry.gauge("rave_tenant_sessions",
                           "admitted sessions per tenant",
                           tenant=tenant).set(counts[tenant])

    def describe(self) -> dict:
        """JSON-serialisable admission state (dashboard / tests)."""
        return {
            "members": sorted(self._members),
            "failed_members": sorted(self.failed_members),
            "pool_pps": self.pool_pps(),
            "committed_pps": self.committed_pps(),
            "utilisation": self.utilisation(),
            "queue": [
                {"tenant": e.tenant, "session": e.session_id,
                 "deadline": e.deadline}
                for e in self._queue
            ],
            "sessions": [
                {"tenant": gs.tenant, "session": gs.session_id,
                 "fps_budget": gs.fps_budget, "parked": gs.parked,
                 "degraded": gs.degraded}
                for gs in self.sessions()
            ],
            "requests": self.requests,
            "admissions": self.admissions,
            "rejections": self.rejections,
            "queue_timeouts": self.queue_timeouts,
        }

    def __repr__(self) -> str:
        return (f"SessionGridManager(members={len(self._members)}, "
                f"sessions={len(self._sessions)}, "
                f"queue={len(self._queue)}, "
                f"rejections={self.rejections})")


__all__ = [
    "TenantQuota",
    "GridSession",
    "AdmissionDecision",
    "QueuedRequest",
    "ShedAction",
    "SessionGridManager",
    "REASON_SATURATED",
    "REASON_QUEUE_TIMEOUT",
    "REASON_DUPLICATE",
]
