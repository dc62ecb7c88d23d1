"""The four canonical RAVE workloads, as seeded, repeatable episodes.

An *episode* is one complete, fixed-size run of a workload on a fresh
testbed: set-up (model generation, ``build_testbed``, session bootstrap
or farm prewarm), then the timed phase of ops.  Every episode of one seed
receives identical generated inputs, so its simulated outputs — frames,
``FrameTiming``s, admission decisions, farm completion order, the final
simulated clock — hash to the same digest every time.

The inputs come only from :func:`make_inputs`; the program under test
receives the generated camera paths, arrival times and fault schedule,
never the seed itself.  Only public ``repro`` APIs are called.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median

from repro import TooManyRequestsError, build_testbed, obs
from repro.compression import AdaptiveCodec, BandwidthEstimator
from repro.core import CollaborativeSession
from repro.core.grid import TenantQuota
from repro.core.migration import LoadSample
from repro.data.generators import elle, galleon, skeleton, uv_sphere
from repro.farm import RenderJob
from repro.network.faults import FaultInjector
from repro.sanitizer import RaveSanitizer
from repro.scenegraph import CameraNode, MeshNode, SceneTree

#: farm workers that may crash: every render host but the data host,
#: which also runs the frame queue
CRASHABLE_WORKERS = ("athlon", "centrino", "onyx", "v880z")

#: ops per episode, per workload (fixed, so counts repeat exactly)
EPISODE_OPS = {
    "pda-orbit": 48,
    "distributed": 12,
    "farm-crash": 36,
    "grid-churn": 300,
}


# -- measurement hooks ------------------------------------------------------------


@dataclass
class Episode:
    """What one episode did, as the harness measured it."""

    ops: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: set-up wall seconds by step (generate, testbed, bootstrap)
    setup: dict[str, float] = field(default_factory=dict)
    phase_s: float = 0.0
    op_s: list[float] = field(default_factory=list)
    #: seconds of the host ruler's tick right after each op, if any
    tick_s: list[float] = field(default_factory=list)
    events: int = 0
    sim_s: float = 0.0
    digest: str = ""
    #: deterministic per-episode counts and simulated-time figures
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return sum(self.setup.values())


class Probe:
    """Times set-up steps, the op phase and each op of one episode.

    With a :class:`perfbench.tracing.Tracer`, the phase and each op are
    also recorded as ``harness.*`` spans, so layer spans nest under them.
    ``sanitize`` attaches a :class:`RaveSanitizer` to the simulator for
    the op phase.  With a :class:`perfbench.reference.Ruler`, the ruler
    ticks after every op, outside the op's time and the phase's.
    """

    def __init__(self, tracer=None, sanitize: bool = False,
                 ruler=None) -> None:
        self.tracer = tracer
        self.sanitize = sanitize
        self.ruler = ruler
        self.episode = Episode()
        self._last_completion = 0.0
        self._ruler_s = 0.0

    def _tick(self) -> None:
        if self.ruler is not None:
            tick = self.ruler.tick()
            self.episode.tick_s.append(tick)
            self._ruler_s += tick

    @contextmanager
    def setup(self, step: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.episode.setup[step] = (self.episode.setup.get(step, 0.0)
                                        + time.perf_counter() - t0)

    @contextmanager
    def phase(self):
        span = self.tracer.begin("harness.phase") if self.tracer else None
        t0 = time.perf_counter()
        self._last_completion = t0
        self._ruler_s = 0.0
        try:
            yield
        finally:
            self.episode.phase_s += (time.perf_counter() - t0
                                     - self._ruler_s)
            if span is not None:
                self.tracer.end(span)

    @contextmanager
    def op(self):
        tracer = self.tracer
        if tracer is not None:
            tracer.op = len(self.episode.op_s)
            span = tracer.begin("harness.op")
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.episode.op_s.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end(span)
                tracer.op = None
        self._tick()

    def completion(self) -> None:
        """A batch op finished: its wall time is the gap since the last."""
        now = time.perf_counter()
        self.episode.op_s.append(now - self._last_completion)
        self._tick()
        self._last_completion = time.perf_counter()


class Digest:
    """Incremental SHA-256 over simulated outputs (floats by exact repr)."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *values) -> None:
        for value in values:
            if isinstance(value, (bytes, bytearray, memoryview)):
                self._h.update(bytes(value))
            else:
                self._h.update(repr(value).encode())
            self._h.update(b"\x1f")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def nearest_rank(values, q: float) -> float:
    """The ``q`` quantile by the nearest-rank rule (an observed value)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- inputs -----------------------------------------------------------------------


def make_inputs(workload: str, seed: int) -> dict:
    """Generate one workload's episode inputs from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    n = EPISODE_OPS[workload]
    # camera paths cover one full orbit from a seeded phase and direction,
    # so every seed does about the same rendering work
    if workload == "pda-orbit":
        phase = rng.uniform(0.0, 2 * math.pi)
        turn = rng.choice((-1, 1)) * 2 * math.pi / n
        cams, signal = [], []
        for i in range(n):
            a = phase + i * turn
            cams.append((2.5 * math.cos(a), 1.4 + 0.2 * math.sin(3 * a),
                         2.5 * math.sin(a)))
            signal.append(round(rng.uniform(0.55, 1.0), 3))
        return {"cams": cams, "signal": signal}
    if workload == "distributed":
        phase = rng.uniform(0.0, 2 * math.pi)
        turn = rng.choice((-1, 1)) * 2 * math.pi / n
        cams = [(1.7 * math.cos(phase + i * turn),
                 1.2 + 0.3 * math.sin(3 * (phase + i * turn)),
                 1.7 * math.sin(phase + i * turn)) for i in range(n)]
        return {"cams": cams, "overload_every": 2,
                "overload_fps": round(rng.uniform(0.8, 2.5), 3)}
    if workload == "farm-crash":
        tenants = ("anim", "viz", "batch")
        sizes = [n // 3] * 3
        jobs = []
        start = 1
        for i, tenant in enumerate(tenants):
            jobs.append({"job_id": f"{tenant}-job", "tenant": tenant,
                         "priority": rng.choice((0, 0, 1, 2)),
                         "weight": rng.choice((1.0, 2.0)),
                         "start": start, "end": start + sizes[i] - 1,
                         # a full turn per job: seed-independent work
                         "orbit": 360.0 / sizes[i]})
            start += sizes[i]
        return {"jobs": jobs, "crash_host": rng.choice(CRASHABLE_WORKERS),
                "crash_after": round(rng.uniform(0.0005, 0.005), 5),
                "fault_seed": rng.randrange(1 << 30)}
    if workload == "grid-churn":
        weights = [3, 3, 2, 2, 1, 1, 1, 1]
        gaps = [rng.expovariate(1.0) for _ in range(n)]
        # Poisson gaps rescaled to a fixed span (mean gap 6 s), so every
        # seed offers the same load over the same simulated time
        scale = 6.0 * n / sum(gaps)
        t, arrivals = 0.0, []
        for gap in gaps:
            t += gap * scale
            arrivals.append((round(t, 6), rng.choices(range(8), weights)[0]))
        holds = [round(rng.expovariate(1 / 40.0), 6) for _ in range(n)]
        return {"arrivals": arrivals, "holds": holds}
    raise KeyError(workload)


# -- the workloads ----------------------------------------------------------------


def pda_orbit(inputs: dict, probe: Probe) -> Episode:
    """A Zaurus thin client orbits elle-50k, 200x200, adaptive codec."""
    ep = probe.episode
    with probe.setup("generate"):
        mesh = elle(50_000).normalized()
    with probe.setup("testbed"):
        tb = build_testbed()
    with probe.setup("bootstrap"):
        tree = SceneTree("elle")
        tree.add(MeshNode(mesh, name="elle"))
        shared_cam = CameraNode(name="pda-camera")
        tree.add(shared_cam)
        tb.publish_tree("elle", tree)
        rs = tb.render_service("centrino")
        rsession, _ = rs.create_render_session(tb.data_service, "elle")
        client = tb.thin_client("pda")
        client.attach(rs, rsession.render_session_id)
        for host in ("onyx", "athlon"):
            tb.active_client(f"desk-{host}", host).join(tb.data_service,
                                                        "elle")
        estimator = BandwidthEstimator(initial_bps=4.8e6)
        codec = AdaptiveCodec(estimator, latency_budget=0.12)
    sim = tb.network.sim
    digest = Digest()
    timings = []
    events0 = sim.processed
    with probe.phase():
        for cam, quality in zip(inputs["cams"], inputs["signal"]):
            tb.wireless.set_signal_quality("zaurus", quality)
            client.move_camera(position=cam, target=(0.0, 0.0, 0.0))
            with probe.op():
                fb, timing = client.request_frame(200, 200, codec=codec)
                estimator.observe(timing.nbytes, timing.image_receipt_seconds)
                client.publish_camera(tb.data_service, "elle",
                                      shared_cam.node_id)
            ep.ops += 1
            timings.append(timing)
            digest.add(fb.color.tobytes(), timing, codec.choices[-1])
    ep.events = sim.processed - events0
    ep.sim_s = sim.now
    digest.add(sim.now, client.frames_received)
    ep.digest = digest.hexdigest()
    if client.frames_received != ep.ops:
        ep.errors.append(f"{client.frames_received} frames received "
                         f"for {ep.ops} requested")
    ep.counts.update({
        "sim.render_s": median(t.render_seconds for t in timings),
        "sim.receipt_s": median(t.image_receipt_seconds for t in timings),
        "sim.overhead_s": median(t.overhead_seconds for t in timings),
    })
    return ep


def distributed(inputs: dict, probe: Probe) -> Episode:
    """Recruited scene-subset session on skeleton-120k with migrations."""
    ep = probe.episode
    with probe.setup("generate"):
        mesh = skeleton(120_000).normalized()
    with probe.setup("testbed"):
        tb = build_testbed()
    with probe.setup("bootstrap"):
        tree = SceneTree("visible-man")
        tree.add(MeshNode(mesh, name="skeleton"))
        tb.publish_tree("visible-man", tree)
        session = CollaborativeSession(tb.data_service, "visible-man",
                                       target_fps=600,
                                       recruiter=tb.recruiter())
        placement = session.place_dataset()
    sim = tb.network.sim
    digest = Digest()
    digest.add(placement.mode,
               sorted((a.service.name, a.polygons)
                      for a in placement.assignments))
    migrations = 0
    every = inputs["overload_every"]
    events0 = sim.processed
    with probe.phase():
        for i, cam in enumerate(inputs["cams"]):
            camera = CameraNode(position=cam)
            # one op renders the view both ways, so every op costs about
            # the same (alternating ops would make op times bimodal)
            with probe.op():
                fb, latency = session.render_composite(camera, 256, 256)
                tiled, plan, tiled_latency = session.render_tiled(
                    camera, 256, 256)
            ep.ops += 1
            digest.add(fb.color.tobytes(), latency, tiled.color.tobytes(),
                       tiled_latency,
                       [(a.service_name, a.tile.x0, a.tile.width)
                        for a in plan.assignments])
            if (i + 1) % every == 0:
                # a console user logs onto the busiest share holder: its
                # frame rate collapses for a sustained window
                sim.run_until(sim.now + 5.0)
                victim = max((s for s in session.render_services
                              if session.share_of(s)),
                             key=lambda s: (s.committed_polygons(), s.name))
                tracker = session.migrator.tracker(victim.name)
                for k in range(10):
                    tracker.record(LoadSample(
                        time=sim.now - 4.5 + k * 0.5,
                        fps=inputs["overload_fps"],
                        utilisation=victim.utilisation(session.target_fps)))
                actions = session.rebalance()
                migrations += len(actions)
                digest.add([(a.source, a.destination, a.node_ids,
                             a.polygons, a.reason) for a in actions])
    ep.events = sim.processed - events0
    ep.sim_s = sim.now
    digest.add(sim.now)
    ep.digest = digest.hexdigest()
    if migrations == 0:
        ep.errors.append("no migration happened")
    ep.counts["core.migrations"] = migrations
    return ep


def farm_crash(inputs: dict, probe: Probe) -> Episode:
    """Five prewarmed farm workers, three tenants' jobs, one crash."""
    ep = probe.episode
    with probe.setup("generate"):
        mesh = galleon(2000)
    with probe.setup("testbed"):
        tenants = [TenantQuota(tenant=j["tenant"], max_share=0.8)
                   for j in inputs["jobs"]]
        tb = build_testbed(monitor_host="registry-host",
                           farm={"tenants": tenants})
    bundle = obs.install(clock=tb.clock)
    try:
        with probe.setup("bootstrap"):
            tb.publish_model("galleon", mesh)
            queue = tb.farm_queue
            sim = tb.network.sim
            farm = tb.render_farm(dead_after=2.0)
            farm.prewarm("galleon")
            sim.run()                   # every worker's bootstrap lands
        sanitizer = None
        if probe.sanitize:
            sanitizer = RaveSanitizer(sim, recorder=bundle.recorder).attach()
            sanitizer.watch_farm_queue(queue)
        complete = queue.complete

        def completing(data: bytes) -> bool:
            accepted = complete(data)
            if accepted:
                probe.completion()
            return accepted

        queue.complete = completing
        injector = FaultInjector(tb.network, seed=inputs["fault_seed"])
        total = 0
        events0 = sim.processed
        with probe.phase():
            for job in inputs["jobs"]:
                queue.submit(RenderJob(
                    job_id=job["job_id"], session_id="galleon",
                    start_frame=job["start"], end_frame=job["end"],
                    priority=job["priority"], tenant=job["tenant"],
                    weight=job["weight"],
                    orbit_step_degrees=job["orbit"]))
                total += job["end"] - job["start"] + 1
            farm.start()
            while not queue.leases_issued and sim.step():
                pass
            # every worker leases at once: a crash right after the first
            # lease lands mid-frame
            injector.schedule_crash(sim.now + inputs["crash_after"],
                                    inputs["crash_host"])
            deadline = sim.now + 600.0
            while (not all(queue.job(j["job_id"]).finished
                           for j in inputs["jobs"])
                   and sim.now < deadline):
                sim.run_until(sim.now + 0.05)
        farm.stop()
        del queue.complete
        if sanitizer is not None:
            sanitizer.detach()
            ep.counts["sanitizer.events_checked"] = sanitizer.events_checked
            ep.counts["sanitizer.violations"] = len(sanitizer.violations)
    finally:
        obs.uninstall()
    ep.ops = total
    ep.events = sim.processed - events0
    ep.sim_s = sim.now
    digest = Digest()
    order = sorted((f.completed_at, j.job_id, f.index, f.worker,
                    f.render_seconds, f.attempts)
                   for j in queue.jobs() for f in j.frames.values())
    audits = {j["job_id"]: queue.audit(j["job_id"]) for j in inputs["jobs"]}
    digest.add(order, audits, queue.requeues, queue.duplicates_dropped,
               farm.frames_lost, sorted(farm.failed_workers), sim.now)
    ep.digest = digest.hexdigest()
    # invariants: every audit clean, every frame completed exactly once
    if any(audits.values()):
        ep.errors.append(f"farm audit not empty: {audits}")
    if queue.frames_completed != total or len(ep.op_s) != total:
        ep.errors.append(f"{queue.frames_completed} completions "
                         f"({len(ep.op_s)} observed) for {total} frames")
    keys = [(o[1], o[2]) for o in order]
    if len(keys) != len(set(keys)) or len(keys) != total:
        ep.errors.append("completion order is not exactly-once")
    ep.counts.update({
        "farm.leases": queue.leases_issued,
        "farm.completes": queue.frames_completed,
        "farm.requeues": queue.requeues,
        "farm.duplicates_dropped": queue.duplicates_dropped,
    })
    return ep


def grid_churn(inputs: dict, probe: Probe) -> Episode:
    """Open-loop session requests from 8 tenants against a session grid."""
    ep = probe.episode
    with probe.setup("generate"):
        sphere = uv_sphere(nu=24, nv=24)
    with probe.setup("testbed"):
        tb = build_testbed(monitor_host="registry-host", autoscale=True)
    bundle = obs.install(clock=tb.clock)
    try:
        with probe.setup("bootstrap"):
            grid = tb.session_grid(member_hosts=("centrino",),
                                   queue_capacity=4, queue_timeout=20.0,
                                   target_fps=3000.0)
            for i in range(8):
                grid.register_tenant(TenantQuota(
                    tenant=f"t{i}", priority=i % 3, max_sessions=3,
                    max_share=0.5, guaranteed_share=0.05))
            scaler = tb.autoscale_grid(grid, cooldown_seconds=5.0,
                                       period=1.0)
            client = tb.thin_client("front-door")
        sim = tb.network.sim
        sanitizer = None
        if probe.sanitize:
            sanitizer = RaveSanitizer(sim, recorder=bundle.recorder).attach()
            sanitizer.watch_grid(grid)
        holds = iter(inputs["holds"])
        releases: list[tuple[float, str]] = []
        known: set[str] = set()
        outcomes = {"admit": 0, "queue": 0, "reject": 0}
        lateness = []

        def note_admissions() -> None:
            for gs in grid.sessions():
                if gs.session_id not in known:
                    known.add(gs.session_id)
                    heapq.heappush(releases,
                                   (sim.now + next(holds), gs.session_id))

        base = sim.now
        events0 = sim.processed
        with probe.phase():
            for i, (at, tenant) in enumerate(inputs["arrivals"]):
                due = base + at
                while releases and releases[0][0] <= due:
                    when, sid = heapq.heappop(releases)
                    sim.run_until(max(when, sim.now))
                    note_admissions()
                    grid.release_session(sid)
                    note_admissions()
                sim.run_until(max(due, sim.now))
                note_admissions()
                lateness.append(sim.now - due)
                tree = SceneTree(name=f"scene-{i}")
                tree.add(MeshNode(sphere))
                with probe.op():
                    try:
                        decision = client.open_grid_session(
                            grid, f"t{tenant}", f"s{i}", tree)
                        outcome = decision.outcome
                    except TooManyRequestsError:
                        outcome = "reject"
                ep.ops += 1
                outcomes[outcome] += 1
                note_admissions()
        scaler.stop()
        if sanitizer is not None:
            sanitizer.detach()
            ep.counts["sanitizer.events_checked"] = sanitizer.events_checked
            ep.counts["sanitizer.violations"] = len(sanitizer.violations)
    finally:
        obs.uninstall()
    ep.events = sim.processed - events0
    ep.sim_s = sim.now
    digest = Digest()
    digest.add([(d.outcome, d.tenant, d.session_id, d.time, d.reason,
                 d.queue_position, d.retry_after) for d in grid.decisions],
               [(e.kind, e.time, e.reason, e.services)
                for e in scaler.events],
               lateness, sim.now)
    ep.digest = digest.hexdigest()
    # invariant: admission conservation
    if grid.requests != ep.ops:
        ep.errors.append(f"grid saw {grid.requests} requests, "
                         f"harness sent {ep.ops}")
    if grid.admissions + grid.rejections + grid.queue_depth() \
            != grid.requests:
        ep.errors.append(
            f"admission not conserved: {grid.requests} requested != "
            f"{grid.admissions} admitted + {grid.rejections} rejected "
            f"+ {grid.queue_depth()} queued")
    ep.counts.update({
        "core.admits": grid.admissions,
        "core.queued": outcomes["queue"],
        "core.rejects": grid.rejections,
        "core.arrival_lateness_sim_p95_s": nearest_rank(lateness, 0.95),
        "core.scale_events": len(scaler.events),
    })
    return ep


WORKLOADS = {
    "pda-orbit": pda_orbit,
    "distributed": distributed,
    "farm-crash": farm_crash,
    "grid-churn": grid_churn,
}


def run_episode(workload: str, inputs: dict, tracer=None,
                sanitize: bool = False, ruler=None) -> Episode:
    """One episode; an unexpected exception fails all of its ops."""
    probe = Probe(tracer=tracer, sanitize=sanitize, ruler=ruler)
    try:
        episode = WORKLOADS[workload](inputs, probe)
    except Exception as exc:  # the harness must report, not crash
        episode = probe.episode
        episode.errors.append(f"{type(exc).__name__}: {exc}")
        episode.ops = EPISODE_OPS[workload]
    if episode.errors:
        episode.failed = episode.ops
    return episode
