"""The multi-tenant session grid: admission, quotas, queueing, shedding.

The admission contract has exactly three outcomes — admit, queue,
reject — and each is exercised here in isolation before
``test_multitenant_chaos.py`` runs them under fire.  The capacity unit
throughout is polygons·per·second: a session admitted for ``D``
polygons at ``F`` fps holds ``D × F`` pps of the pool until it parks
or releases.
"""

import pytest

from repro import obs
from repro.core.grid import (
    REASON_DUPLICATE,
    REASON_QUEUE_TIMEOUT,
    REASON_SATURATED,
    SessionGridManager,
    TenantQuota,
)
from repro.data.generators import uv_sphere
from repro.errors import (
    CallTimeout,
    SessionError,
    TooManyRequestsError,
)
from repro.network.faults import FaultInjector
from repro.network.simnet import Network
from repro.obs.vocab import (
    EVENT_ADMIT,
    EVENT_QUEUE,
    EVENT_REJECT,
)
from repro.scenegraph.nodes import MeshNode
from repro.scenegraph.tree import SceneTree
from repro.services.protocol import frame_reject, unframe_reject
from repro.services.retry import (
    BACKPRESSURE_ERRORS,
    CircuitBreaker,
    RetryPolicy,
    call_with_retry,
    reliable_request,
)
from repro.testbed import build_testbed

# at 3000 fps one ~1100-polygon sphere costs ~3.3 Mpps, so the
# centrino's 8.4 Mpps pool holds two sessions and the third must wait —
# a saturating workload without megabyte meshes
FPS = 3000.0


def scene(label, nu=24):
    tree = SceneTree(name=f"scene-{label}")
    tree.add(MeshNode(uv_sphere(nu=nu, nv=nu)))
    return tree


def small_grid(tb, **kwargs):
    kwargs.setdefault("member_hosts", ("centrino",))
    kwargs.setdefault("queue_capacity", 2)
    kwargs.setdefault("queue_timeout", 60.0)
    kwargs.setdefault("target_fps", FPS)
    return tb.session_grid(**kwargs)


def open_tenants(grid, *names, **overrides):
    for i, name in enumerate(names):
        params = dict(priority=i, max_sessions=8, max_share=1.0,
                      guaranteed_share=0.0)
        params.update(overrides)
        grid.register_tenant(TenantQuota(tenant=name, **params))


class TestAdmissionOutcomes:
    def test_admit_while_the_pool_has_spare(self):
        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme")
        decision = grid.request_session("acme", "s0", scene(0))
        assert decision.outcome == EVENT_ADMIT
        assert decision.grid_session is not None
        assert grid.session("s0").session.render_services
        assert grid.utilisation() > 0

    def test_full_pool_queues_with_position_feedback(self):
        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme", "beta")
        assert grid.request_session("acme", "s0", scene(0)).outcome \
            == EVENT_ADMIT
        assert grid.request_session("beta", "s1", scene(1)).outcome \
            == EVENT_ADMIT
        d2 = grid.request_session("acme", "s2", scene(2))
        d3 = grid.request_session("beta", "s3", scene(3))
        assert (d2.outcome, d2.queue_position) == (EVENT_QUEUE, 1)
        assert (d3.outcome, d3.queue_position) == (EVENT_QUEUE, 2)
        assert grid.queue_depth() == 2
        assert grid.queue_position("s3") == 2
        assert grid.queue_position("nope") is None

    def test_full_queue_rejects_with_retry_after(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=1)
        open_tenants(grid, "acme", "beta")
        for i, tenant in enumerate(["acme", "beta", "acme"]):
            grid.request_session(tenant, f"s{i}", scene(i))
        d = grid.request_session("beta", "s3", scene(3))
        assert d.outcome == EVENT_REJECT
        assert d.reason == REASON_SATURATED
        assert d.retry_after == grid.queue_timeout
        assert d.reject_frame is not None
        assert grid.rejections == 1

    def test_duplicate_session_id_is_a_caller_error(self):
        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme")
        grid.request_session("acme", "s0", scene(0))
        with pytest.raises(SessionError):
            grid.request_session("acme", "s0", scene(1))

    def test_zero_capacity_queue_goes_straight_to_reject(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=0)
        open_tenants(grid, "acme", "beta")
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        d = grid.request_session("acme", "s2", scene(2))
        assert d.outcome == EVENT_REJECT


class TestTenantQuotas:
    def test_max_sessions_rejects_immediately(self):
        tb = build_testbed()
        grid = small_grid(tb, member_hosts=("onyx", "centrino"))
        grid.register_tenant(TenantQuota(tenant="acme", max_sessions=1,
                                         max_share=1.0))
        grid.request_session("acme", "s0", scene(0))
        d = grid.request_session("acme", "s1", scene(1))
        assert d.outcome == EVENT_REJECT
        assert "1/1 sessions" in d.reason
        assert d.retry_after == 0.0     # not a capacity problem: no point waiting

    def test_max_share_caps_a_greedy_tenant(self):
        tb = build_testbed()
        grid = small_grid(tb)
        grid.register_tenant(TenantQuota(tenant="greedy", max_sessions=8,
                                         max_share=0.5))
        grid.request_session("greedy", "s0", scene(0))
        d = grid.request_session("greedy", "s1", scene(1))
        assert d.outcome == EVENT_REJECT
        assert "pool share" in d.reason

    def test_unknown_tenant_gets_the_default_quota(self):
        tb = build_testbed()
        grid = small_grid(
            tb, default_quota=TenantQuota(tenant="*", max_sessions=1))
        grid.request_session("walkin", "s0", scene(0))
        assert grid.quota("walkin").max_sessions == 1
        assert "walkin" in grid.tenants()

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(tenant="t", max_sessions=0)
        with pytest.raises(ValueError):
            TenantQuota(tenant="t", max_share=1.5)
        with pytest.raises(ValueError):
            TenantQuota(tenant="t", max_share=0.5, guaranteed_share=0.6)
        with pytest.raises(ValueError):
            TenantQuota(tenant="t", fps_floor_fraction=0.0)


class TestQueueLifecycle:
    def test_release_pumps_the_queue_in_fifo_order(self):
        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme", "beta")
        admitted = []
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("acme", "s2", scene(2),
                             on_admit=lambda d: admitted.append(d))
        resolved = grid.release_session("s0")
        assert [d.session_id for d in resolved] == ["s2"]
        assert resolved[0].outcome == EVENT_ADMIT
        assert admitted and admitted[0].session_id == "s2"
        assert grid.queue_depth() == 0
        with pytest.raises(SessionError):
            grid.session("s0")

    def test_deadline_expiry_becomes_an_explicit_reject(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_timeout=5.0)
        open_tenants(grid, "acme", "beta")
        rejected = []
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("acme", "s2", scene(2),
                             on_reject=lambda d: rejected.append(d))
        # the deadline tick fires the reject during run_until — no
        # manual pump needed any more
        tb.network.sim.run_until(tb.clock.now + 6.0)
        assert rejected and rejected[0].session_id == "s2"
        assert rejected[0].outcome == EVENT_REJECT
        assert rejected[0].reason == REASON_QUEUE_TIMEOUT
        assert grid.queue_timeouts == 1
        # and a later explicit pump has nothing left to resolve
        assert grid.pump() == []

    def test_head_of_line_blocks_fifo_strictly(self):
        """A small request never skips past a big head-of-line request."""
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=4)
        open_tenants(grid, "acme", "beta", "gamma", "delta")
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("gamma", "big", scene("big", nu=32))
        grid.request_session("delta", "tiny", scene("tiny", nu=8))
        # freeing one slot covers "tiny" but not "big": nobody admits
        grid.release_session("s1")
        assert grid.queue_position("big") == 1
        # the tiny request is still waiting behind the big one
        assert grid.queue_position("tiny") == 2

    def test_pump_rechecks_quota_at_the_head(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=4)
        grid.register_tenant(TenantQuota(tenant="acme", max_sessions=2,
                                         max_share=1.0))
        grid.register_tenant(TenantQuota(tenant="beta", max_sessions=8,
                                         max_share=1.0,
                                         guaranteed_share=0.0))
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("acme", "s2", scene(2))
        grid.request_session("acme", "s3", scene(3))
        resolved = grid.release_session("s1")
        # s2 admits (acme back at 2/2), s3 now violates max_sessions
        outcomes = {d.session_id: d.outcome for d in resolved}
        assert outcomes["s2"] == EVENT_ADMIT
        assert outcomes["s3"] == EVENT_REJECT


class TestRejectWireContract:
    def test_reject_frame_round_trips_the_429(self):
        frame = frame_reject("grid full", 12.5, tenant="acme",
                             session_id="s9", queue_depth=3)
        info = unframe_reject(frame)
        assert info.status == 429
        assert info.reason == "grid full"
        assert info.retry_after == 12.5
        assert info.tenant == "acme"
        assert info.session_id == "s9"
        assert info.queue_depth == 3

    def test_grid_rejects_carry_a_ready_frame(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=0)
        open_tenants(grid, "acme", "beta")
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        d = grid.request_session("acme", "s2", scene(2))
        info = unframe_reject(d.reject_frame)
        assert info.status == 429
        assert info.tenant == "acme"
        assert info.session_id == "s2"

    def test_thin_client_surfaces_the_429(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=0)
        open_tenants(grid, "acme", "beta")
        client = tb.thin_client("pda")
        d = client.open_grid_session(grid, "acme", "s0", scene(0))
        assert d.outcome == EVENT_ADMIT
        assert client.attached
        client.open_grid_session(grid, "beta", "s1", scene(1))
        with pytest.raises(TooManyRequestsError) as err:
            client.open_grid_session(grid, "acme", "s2", scene(2))
        assert err.value.status == 429
        assert err.value.tenant == "acme"
        assert err.value.retry_after == grid.queue_timeout


class TestBackpressureBypassesTheBreaker:
    """Satellite regression: a 429 is the service *working*, not failing.

    Before the fix, ``TooManyRequestsError`` fell through the generic
    retryable/terminal split in ``call_with_retry``: the breaker counted
    it as a failure and repeated backpressure opened the circuit to a
    healthy-but-full service.
    """

    def test_429_does_not_count_toward_the_breaker(self):
        sim = Network().sim

        def full():
            raise TooManyRequestsError("at capacity", retry_after=3.0)

        breaker = CircuitBreaker(sim, failure_threshold=1,
                                 reset_timeout_s=60.0, name="rs")
        for _ in range(5):
            with pytest.raises(TooManyRequestsError):
                call_with_retry(full, RetryPolicy(max_attempts=4), sim,
                                breaker=breaker)
        # threshold 1: a single *counted* failure would have opened it
        assert breaker.state == CircuitBreaker.CLOSED

    def test_429_does_not_burn_the_retry_budget(self):
        sim = Network().sim
        calls = []

        def full():
            calls.append(1)
            raise TooManyRequestsError("at capacity")

        t0 = sim.now
        with pytest.raises(TooManyRequestsError):
            call_with_retry(full, RetryPolicy(max_attempts=6), sim)
        assert len(calls) == 1          # no blind retries against a full grid
        assert sim.now == t0            # and no backoff waits charged

    def test_soap_fault_decodes_to_too_many_requests(self):
        net = Network()
        for name in ("a", "c"):
            net.add_host(name)
        net.add_ethernet_segment(["a", "c"], "hub", bandwidth_bps=100e6)
        FaultInjector(net)
        breaker = CircuitBreaker(net.sim, failure_threshold=1,
                                 reset_timeout_s=60.0, name="c")
        fault = ("Fault", {"code": "TooManyRequests",
                           "reason": "admission queue full",
                           "retry_after": 7.5})
        with pytest.raises(TooManyRequestsError) as err:
            reliable_request(net, "a", "c", ("Open", {}), fault,
                             policy=RetryPolicy(max_attempts=3, jitter=0.0),
                             breaker=breaker)
        assert err.value.retry_after == 7.5
        assert "admission queue full" in str(err.value)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_retryable_faults_still_retry_and_feed_the_breaker(self):
        """The contrast case: the generic path is untouched."""
        net = Network()
        for name in ("a", "c"):
            net.add_host(name)
        net.add_ethernet_segment(["a", "c"], "hub", bandwidth_bps=100e6)
        FaultInjector(net)
        breaker = CircuitBreaker(net.sim, failure_threshold=2,
                                 reset_timeout_s=60.0, name="c")
        fault = ("Fault", {"code": "ServiceBusy", "reason": "busy"})
        with pytest.raises(CallTimeout):
            reliable_request(net, "a", "c", ("Open", {}), fault,
                             policy=RetryPolicy(max_attempts=2, jitter=0.0,
                                                timeout_s=0.1),
                             breaker=breaker)
        assert breaker.state == CircuitBreaker.OPEN

    def test_backpressure_errors_is_the_shared_vocabulary(self):
        assert TooManyRequestsError in BACKPRESSURE_ERRORS


class TestShedAndRestore:
    def saturated_grid(self, tb):
        grid = small_grid(tb)
        grid.register_tenant(TenantQuota(
            tenant="gold", priority=2, max_sessions=8, max_share=1.0,
            guaranteed_share=0.1))
        grid.register_tenant(TenantQuota(
            tenant="bronze", priority=0, max_sessions=8, max_share=1.0,
            guaranteed_share=0.0))
        grid.request_session("gold", "g0", scene("g0"))
        grid.request_session("bronze", "b0", scene("b0"))
        return grid

    def test_shed_degrades_the_lowest_priority_tenant_first(self):
        grid = self.saturated_grid(build_testbed())
        action = grid.shed()
        assert action.action == "degrade"
        assert action.tenant == "bronze"
        bronze = grid.session("b0")
        assert bronze.fps_budget < bronze.requested_fps
        assert bronze.degraded
        gold = grid.session("g0")
        assert gold.fps_budget == gold.requested_fps

    def test_degrade_clamps_at_the_session_fps_floor(self):
        grid = self.saturated_grid(build_testbed())
        for _ in range(10):
            grid.shed()
        bronze = grid.session("b0")
        if not bronze.parked:
            assert bronze.fps_budget >= bronze.fps_floor
        # the floor is a quarter of the requested rate by default
        assert bronze.fps_floor == pytest.approx(bronze.requested_fps * 0.25)

    def test_parking_releases_capacity_back_to_the_pool(self):
        grid = self.saturated_grid(build_testbed())
        before = grid.spare_pps()
        actions = []
        for _ in range(10):
            a = grid.shed()
            if a is None:
                break
            actions.append(a)
        assert "park" in [a.action for a in actions]
        bronze = grid.session("b0")
        assert bronze.parked
        assert bronze.pps == 0.0
        assert grid.spare_pps() > before
        # the parked session's shares really left the members
        assert all(bronze.session.share_polygons(s.name) == 0
                   for s in bronze.session.render_services)

    def test_shed_never_breaches_the_guaranteed_floor(self):
        tb = build_testbed()
        grid = small_grid(tb)
        # gold's guaranteed share covers its whole session: unparkable
        grid.register_tenant(TenantQuota(
            tenant="gold", priority=2, max_sessions=8, max_share=1.0,
            guaranteed_share=0.5))
        grid.request_session("gold", "g0", scene("g0"))
        before = grid.tenant_pps("gold")
        assert before <= grid._tenant_floor_pps("gold")
        for _ in range(10):
            if grid.shed() is None:
                break
        # already at/below its guaranteed floor: shed must not touch it
        gold = grid.session("g0")
        assert not gold.parked
        assert not gold.degraded
        assert grid.tenant_pps("gold") == before

    def test_park_then_pump_admits_the_waiting_request(self):
        tb = build_testbed()
        grid = self.saturated_grid(tb)
        d = grid.request_session("gold", "g1", scene("g1"))
        assert d.outcome == EVENT_QUEUE
        for _ in range(10):
            if grid.shed() is None:
                break
        resolved = grid.pump()
        assert [(r.session_id, r.outcome) for r in resolved] \
            == [("g1", EVENT_ADMIT)]

    def test_restore_unparks_and_raises_budgets_once_pressure_clears(self):
        tb = build_testbed()
        grid = self.saturated_grid(tb)
        for _ in range(10):
            if grid.shed() is None:
                break
        assert grid.session("b0").parked
        grid.grow()                     # capacity arrives
        for _ in range(10):
            if grid.restore() is None:
                break
        bronze = grid.session("b0")
        assert not bronze.parked
        assert bronze.fps_budget == bronze.requested_fps
        assert not bronze.degraded

    def test_shed_to_fit_reacts_to_a_shrunken_pool(self):
        tb = build_testbed()
        grid = small_grid(tb, member_hosts=("centrino", "athlon"))
        open_tenants(grid, "gold", "bronze")
        grid.request_session("gold", "g0", scene("g0"))
        grid.request_session("bronze", "b0", scene("b0"))
        grid.request_session("gold", "g1", scene("g1"))
        grid.handle_member_failure("rs-athlon")
        assert grid.committed_pps() > grid.pool_pps()
        actions = grid.shed_to_fit()
        assert actions
        assert grid.committed_pps() <= grid.pool_pps()


class TestPoolScaling:
    def test_grow_recruits_via_uddi_and_pump_drains(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=4)
        open_tenants(grid, "acme", "beta")
        queued = []
        for i, tenant in enumerate(["acme", "beta", "acme", "beta"]):
            d = grid.request_session(tenant, f"s{i}", scene(i))
            if d.outcome == EVENT_QUEUE:
                queued.append(f"s{i}")
        assert queued
        grown = grid.grow()
        assert grown and grown[0].name not in ("rs-centrino",)
        resolved = grid.pump()
        assert {d.session_id for d in resolved} == set(queued)
        assert all(d.outcome == EVENT_ADMIT for d in resolved)
        assert grid.queue_depth() == 0

    def test_max_pool_size_caps_growth(self):
        tb = build_testbed()
        grid = small_grid(tb, max_pool_size=1)
        assert grid.grow() == []
        assert len(grid.members) == 1

    def test_release_idle_keeps_members_carrying_shares(self):
        tb = build_testbed()
        grid = small_grid(tb, member_hosts=("centrino", "onyx"))
        open_tenants(grid, "acme")
        grid.request_session("acme", "s0", scene(0))
        released = grid.release_idle(min_members=1)
        assert len(grid.members) >= 1
        for name in released:
            assert all(gs.session.share_polygons(name) == 0
                       for gs in grid.sessions())

    def test_rejection_rate_decays_with_the_window(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=0, rejection_window=10.0)
        open_tenants(grid, "acme", "beta")
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("acme", "s2", scene(2))
        assert grid.rejection_rate() > 0
        tb.network.sim.run_until(tb.clock.now + 30.0)
        assert grid.rejection_rate() == 0.0


class TestGridObservability:
    def test_every_decision_reaches_the_flight_recorder(self):
        tb = build_testbed()
        with obs.observed(clock=tb.clock) as bundle:
            grid = small_grid(tb, queue_capacity=1)
            open_tenants(grid, "acme", "beta")
            for i, tenant in enumerate(["acme", "beta", "acme", "beta"]):
                grid.request_session(tenant, f"s{i}", scene(i))
            for _ in range(10):
                if grid.shed() is None:
                    break
            grid.pump()
            kinds = [e.kind for e in bundle.recorder.events()]
        assert EVENT_ADMIT in kinds
        assert EVENT_QUEUE in kinds
        assert EVENT_REJECT in kinds
        assert "shed" in kinds

    def test_grid_telemetry_exports_admission_gauges(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=1)
        open_tenants(grid, "acme", "beta")
        for i, tenant in enumerate(["acme", "beta", "acme", "beta"]):
            grid.request_session(tenant, f"s{i}", scene(i))
        from repro.obs.telemetry import flatten_metrics

        payload = grid.telemetry.scrape(now=grid.now)
        assert payload["kind"] == "grid"
        flat = flatten_metrics(payload["metrics"])
        assert flat["rave_queue_depth"] == 1
        assert flat["rave_admission_rejection_rate"] > 0
        assert flat["rave_admission_sessions"] == 2
        assert 0 < flat["rave_admission_pool_utilisation"] <= 1.0
        assert flat["rave_queue_wait_seconds_count"] >= 2
        tenants = {s["labels"]["tenant"]: s["value"] for s in
                   payload["metrics"]["rave_tenant_sessions"]["series"]}
        assert tenants == {"acme": 1.0, "beta": 1.0}

    def test_monitor_scrapes_the_grid_like_any_service(self):
        tb = build_testbed(monitor_host="registry-host")
        grid = small_grid(tb, queue_capacity=1)
        open_tenants(grid, "acme", "beta")
        for i, tenant in enumerate(["acme", "beta", "acme", "beta"]):
            grid.request_session(tenant, f"s{i}", scene(i))
        tb.network.sim.run_until(tb.clock.now + 3.0)
        values = tb.monitor.grid_values()
        assert values["rave_grid_queue_depth"] == 1.0
        assert values["rave_grid_rejection_rate"] > 0

    def test_sustained_saturation_fires_the_grid_saturated_alert(self):
        tb = build_testbed(monitor_host="registry-host")
        grid = small_grid(tb, queue_capacity=1, queue_timeout=600.0)
        open_tenants(grid, "acme", "beta")
        for i, tenant in enumerate(["acme", "beta", "acme"]):
            grid.request_session(tenant, f"s{i}", scene(i))
        tb.network.sim.run_until(tb.clock.now + 30.0)
        names = {a.rule for a in tb.monitor.firing_alerts()}
        assert "grid-saturated" in names

    def test_dashboard_renders_the_admission_section(self):
        from repro.obs.dashboard import render_dashboard

        tb = build_testbed(monitor_host="registry-host")
        grid = small_grid(tb, queue_capacity=1)
        open_tenants(grid, "acme", "beta")
        for i, tenant in enumerate(["acme", "beta", "acme", "beta"]):
            grid.request_session(tenant, f"s{i}", scene(i))
        tb.network.sim.run_until(tb.clock.now + 3.0)
        text = render_dashboard(tb.monitor.snapshot())
        assert "admission (rave-grid)" in text
        assert "queue depth" in text
        assert "acme" in text and "beta" in text


class TestAutoscalerGridMode:
    def test_sustained_rejections_grow_the_pool_and_drain_the_queue(self):
        tb = build_testbed(monitor_host="registry-host", autoscale=True)
        grid = small_grid(tb, queue_capacity=4, queue_timeout=600.0)
        open_tenants(grid, "acme", "beta")
        auto = tb.autoscale_grid(grid, cooldown_seconds=5.0, period=1.0)
        queued = []
        for i, tenant in enumerate(["acme", "beta", "acme", "beta"]):
            d = grid.request_session(tenant, f"s{i}", scene(i))
            if d.outcome == EVENT_QUEUE:
                queued.append(f"s{i}")
        assert queued
        sim = tb.network.sim
        for _ in range(60):
            sim.run_until(sim.now + 1.0)
            if grid.queue_depth() == 0 and len(grid.members) > 1:
                break
        assert len(grid.members) > 1
        assert grid.queue_depth() == 0
        assert len(grid.sessions()) == 4
        assert any(e.kind == "grow" for e in auto.events)

    def test_quiet_grid_releases_idle_members(self):
        tb = build_testbed(monitor_host="registry-host", autoscale=True)
        grid = small_grid(tb, member_hosts=("centrino", "onyx"))
        open_tenants(grid, "acme")
        tb.autoscale_grid(grid, cooldown_seconds=5.0, period=1.0,
                          min_services=1)
        sim = tb.network.sim
        for _ in range(120):
            sim.run_until(sim.now + 1.0)
            if len(grid.members) == 1:
                break
        assert len(grid.members) == 1


class TestPumpReentrancy:
    """Satellite regression: a callback pumping mid-pump is safe.

    ``pump()`` snapshots the expired entries before resolving them; an
    ``on_reject`` callback that synchronously pumps again (a thin client
    retrying on 429) used to drain the remaining expired entries inside
    the recursive call, so the outer pass's ``remove()`` hit an entry
    that was already gone and raised ``ValueError`` out of admission.
    """

    def test_on_reject_pumping_again_does_not_corrupt_the_pass(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_timeout=5.0)
        open_tenants(grid, "acme", "beta")
        rejected = []

        def retry_now(decision):
            rejected.append(decision.session_id)
            grid.pump()             # reentrant: must be a quiet no-op

        grid.request_session("acme", "s0", scene(0))    # these two fill
        grid.request_session("beta", "s1", scene(1))    # the grid
        grid.request_session("acme", "s2", scene(2), on_reject=retry_now)
        grid.request_session("beta", "s3", scene(3), on_reject=retry_now)
        assert grid.queue_depth() == 2
        tb.network.sim.clock.advance(6.0)   # both deadlines pass together
        resolved = grid.pump()
        assert rejected == ["s2", "s3"]
        assert {d.session_id for d in resolved} == {"s2", "s3"}
        assert grid.queue_timeouts == 2
        assert grid.queue_depth() == 0


class TestDeadlineDrivenByTheClock:
    """Satellite regression: queue deadlines fire from the simulated clock.

    Before the fix, ``pump()`` ran only from ``release_session()`` and
    the autoscaler tick — a queued request whose deadline passed on a
    quiet grid sat in limbo forever and its ``on_reject`` never fired.
    """

    def test_expiry_fires_without_any_pump_or_release(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_timeout=5.0)
        open_tenants(grid, "acme", "beta")
        rejected = []
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("acme", "s2", scene(2),
                             on_reject=lambda d: rejected.append(d))
        deadline = grid._queue[0].deadline
        # nobody releases, nobody pumps: only the clock advances
        tb.network.sim.run_until(deadline + 30.0)
        assert [d.session_id for d in rejected] == ["s2"]
        assert rejected[0].reason == REASON_QUEUE_TIMEOUT
        # and the 429 happened *at* the deadline, not half a minute late
        assert rejected[0].time == pytest.approx(deadline)
        assert grid.queue_timeouts == 1
        assert grid.queue_depth() == 0

    def test_resolved_entries_make_the_tick_a_no_op(self):
        """An admitted entry's stale deadline tick must not re-reject it."""
        tb = build_testbed()
        grid = small_grid(tb, queue_timeout=5.0)
        open_tenants(grid, "acme", "beta")
        admitted, rejected = [], []
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("beta", "s2", scene(2),
                             on_admit=lambda d: admitted.append(d),
                             on_reject=lambda d: rejected.append(d))
        grid.release_session("s0")      # admits s2 well before its deadline
        assert [d.session_id for d in admitted] == ["s2"]
        tb.network.sim.run_until(tb.clock.now + 60.0)
        assert rejected == []
        assert grid.queue_timeouts == 0


class TestDuplicateAdmission:
    """Satellite regression: double-submitting a session id is refused.

    Before the fix, re-requesting an id that was already *queued* charged
    the queue twice and could admit the same session id twice, the second
    admit silently overwriting the first ``GridSession`` and leaking its
    capacity shares.
    """

    def test_duplicate_of_a_queued_id_is_rejected_not_requeued(self):
        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme", "beta")
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        first = grid.request_session("acme", "s2", scene(2))
        assert first.outcome == EVENT_QUEUE
        dup = grid.request_session("acme", "s2", scene(2))
        assert dup.outcome == EVENT_REJECT
        assert dup.reason == REASON_DUPLICATE
        # the dup carries a decodable 429 like every other reject
        info = unframe_reject(dup.reject_frame)
        assert info.status == 429
        assert info.reason == REASON_DUPLICATE
        # the original request is untouched: one entry, same position
        assert grid.queue_depth() == 1
        assert grid.queue_position("s2") == 1

    def test_duplicate_never_admits_the_same_id_twice(self):
        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme", "beta")
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("acme", "s2", scene(2))
        grid.request_session("acme", "s2", scene(2))     # the double-submit
        resolved = grid.release_session("s0")
        admits = [d for d in resolved if d.outcome == EVENT_ADMIT]
        assert [d.session_id for d in admits] == ["s2"]
        assert grid.queue_depth() == 0
        assert len(grid.tenant_sessions("acme")) == 1

    def test_pump_never_readmits_an_already_admitted_head(self):
        """Defence in depth at the head of the line.

        Even if a queued entry's id somehow becomes admitted while it
        waits (the pre-fix double-submit window), pump resolves it as an
        explicit duplicate reject instead of overwriting the live
        session.
        """
        from repro.core.grid import QueuedRequest

        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme")
        grid.request_session("acme", "s0", scene(0))
        live = grid.session("s0")
        rejected = []
        grid._queue.append(QueuedRequest(
            tenant="acme", session_id="s0", tree=scene(0),
            target_fps=FPS, demand_polygons=1, enqueued_at=grid.now,
            deadline=grid.now + 60.0,
            on_reject=lambda d: rejected.append(d)))
        resolved = grid.pump()
        assert [d.outcome for d in resolved] == [EVENT_REJECT]
        assert resolved[0].reason == REASON_DUPLICATE
        assert rejected and rejected[0].session_id == "s0"
        assert grid.session("s0") is live


class TestClientHonoursRetryAfter:
    """Satellite regression: the 429's retry_after is an actionable hint.

    Before the fix, ``ThinClient.open_grid_session`` could only raise on
    a reject; callers wanting to come back later had to hand-roll the
    sleep.  Now ``retries=`` waits out the server-supplied
    ``retry_after`` on the simulated clock — during which queued events
    (like a release freeing capacity) actually run.
    """

    def test_retry_after_round_trips_the_wire(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=0, queue_timeout=12.5)
        open_tenants(grid, "acme", "beta")
        client = tb.thin_client("pda")
        client.open_grid_session(grid, "acme", "s0", scene(0))
        client.open_grid_session(grid, "beta", "s1", scene(1))
        with pytest.raises(TooManyRequestsError) as err:
            client.open_grid_session(grid, "acme", "s2", scene(2))
        # the value the client raises is the one the frame carried
        assert err.value.retry_after == 12.5

    def test_client_sleeps_retry_after_then_succeeds(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=0, queue_timeout=10.0)
        open_tenants(grid, "acme", "beta")
        client = tb.thin_client("pda")
        client.open_grid_session(grid, "acme", "s0", scene(0))
        client.open_grid_session(grid, "beta", "s1", scene(1))
        sim = tb.network.sim
        # capacity frees while the client sleeps off the retry_after
        sim.schedule(4.0, lambda: grid.release_session("s0"))
        t0 = sim.now
        decision = client.open_grid_session(grid, "acme", "s2", scene(2),
                                            retries=1)
        assert decision.outcome == EVENT_ADMIT
        assert client.admission_retries == 1
        # the wait really ran on the simulated clock
        assert sim.now - t0 >= 10.0
        assert client.attached

    def test_exhausted_retries_still_raise_the_429(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=0, queue_timeout=3.0)
        open_tenants(grid, "acme", "beta")
        client = tb.thin_client("pda")
        client.open_grid_session(grid, "acme", "s0", scene(0))
        client.open_grid_session(grid, "beta", "s1", scene(1))
        with pytest.raises(TooManyRequestsError) as err:
            client.open_grid_session(grid, "acme", "s2", scene(2),
                                     retries=2)
        assert err.value.retry_after == 3.0
        assert client.admission_retries == 2


class TestUnpackableSceneStaysQueued:
    """Regression: a scene that will not pack is a failed placement.

    With mixed sphere sizes the pool's spare can cover a request in total
    while its members' headroom is too fragmented for the distributor to
    pack the scene at any grain.  ``place_dataset`` then raises
    ``SceneGraphError``.  It used to escape ``_try_admit``, and with it
    ``pump()``, ``release_session`` and ``open_grid_session``; now the
    attempt disconnects and the request waits like any other that does
    not fit.
    """

    def loaded_grid(self):
        # three 24-spheres leave 6.15 Mpps spare at 4000 fps, split
        # 2.17/3.98 Mpps over the two members; a 28-sphere needs 6.05
        tb = build_testbed()
        grid = small_grid(tb, member_hosts=("centrino", "athlon"),
                          queue_capacity=4, target_fps=4000.0)
        open_tenants(grid, "acme", "beta")
        for i in range(3):
            decision = grid.request_session("acme", f"s{i}",
                                            scene(i, nu=24))
            assert decision.outcome == EVENT_ADMIT
        return grid

    def test_pump_leaves_an_unpackable_head_queued(self):
        grid = self.loaded_grid()
        spare = grid.spare_pps()
        small = grid.request_session("beta", "small", scene("small", nu=20))
        assert small.outcome == EVENT_ADMIT
        big = grid.request_session("acme", "big", scene("big", nu=28))
        assert big.outcome == EVENT_QUEUE
        # freeing the 20-sphere lets pump() try the 28-sphere at the head
        assert grid.release_session("small") == []
        assert grid.queue_position("big") is not None
        assert [gs.session_id for gs in grid.sessions()] \
            == ["s0", "s1", "s2"]
        # the failed attempt gave its members back
        assert grid.spare_pps() == spare

    def test_direct_request_queues_instead_of_raising(self):
        grid = self.loaded_grid()
        decision = grid.request_session("acme", "big", scene("big", nu=28))
        assert decision.outcome == EVENT_QUEUE
