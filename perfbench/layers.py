"""Per-layer metrics: which calls are wrapped and how spans become numbers.

Layer names are the ``repro`` subpackages.  Every time metric is wall
seconds per episode (median over the traced episodes of a run); every
count is per episode and repeats exactly for a fixed seed.
"""

from __future__ import annotations

from perfbench.tracing import HARNESS_SPANS, Target


def _raster(args, kwargs, stats):
    return {"render.faces_rasterized": stats.faces_rasterized,
            "render.fragments": stats.fragments}


def _encoded(args, kwargs, frame):
    return {"compression.raw_bytes": frame.raw_nbytes,
            "compression.wire_bytes": frame.nbytes}


def _sent(args, kwargs, record):
    return {"network.bytes_moved": record.nbytes}


_FRAMING = ("message", "telemetry", "reject", "farm_lease", "farm_result")

TARGETS = [
    Target("repro.render.rasterizer:rasterize_mesh", "render.rasterize",
           _raster),
    Target("repro.render.compositor:depth_composite", "render.composite"),
    Target("repro.render.compositor:assemble_tiles", "render.composite"),
    Target("repro.services.render_service:RenderService.render_view",
           "services.render_view"),
    Target("repro.services.render_service:RenderService.render_tile",
           "services.render_tile"),
    Target("repro.services.data_service:DataService.publish_update",
           "services.publish_update"),
    Target("repro.services.soap:soap_encode", "services.soap"),
    Target("repro.services.soap:soap_decode", "services.soap"),
    *[Target(f"repro.services.protocol:{verb}_{kind}", "services.frame_codec")
      for kind in _FRAMING for verb in ("frame", "unframe")],
    Target("repro.services.monitor:MonitorService.scrape_one",
           "services.monitor_scrape"),
    Target("repro.compression.adaptive:AdaptiveCodec.encode",
           "compression.encode", _encoded),
    Target("repro.compression.adaptive:AdaptiveCodec.decode",
           "compression.decode"),
    Target("repro.network.simnet:Network.send", "network.send", _sent),
    Target("repro.network.marshalling:BinaryMarshaller.marshal",
           "network.marshal"),
    Target("repro.network.marshalling:BinaryMarshaller.demarshal",
           "network.marshal"),
    Target("repro.network.marshalling:IntrospectionMarshaller.marshal",
           "network.marshal"),
    Target("repro.network.marshalling:IntrospectionMarshaller.demarshal",
           "network.marshal"),
    Target("repro.network.clock:Simulator.run_until", "network.event_loop"),
    Target("repro.network.clock:Simulator.run", "network.event_loop"),
    Target("repro.core.grid:SessionGridManager.request_session",
           "core.request_session"),
    Target("repro.core.grid:SessionGridManager.pump", "core.pump"),
    Target("repro.core.session:CollaborativeSession.place_dataset",
           "core.place"),
    Target("repro.core.session:CollaborativeSession.rebalance",
           "core.rebalance"),
    Target("repro.core.autoscale:RecruitmentAutoscaler.evaluate",
           "core.autoscale"),
    Target("repro.farm.controller:RenderFarmController.dispatch",
           "farm.dispatch"),
    Target("repro.obs.telemetry:ServiceTelemetry.scrape",
           "obs.telemetry_scrape"),
    Target("repro.obs.recorder:FlightRecorder.note", "obs.recorder_note"),
]

#: a sanitized episode's sanitizer cost: the sanitizer's step minus the
#: plain simulator step it wraps is its self time
SANITIZER_TARGETS = [
    Target("repro.sanitizer.core:RaveSanitizer._step", "sanitizer.step"),
    Target("repro.network.clock:Simulator.step", "sim.step"),
]

#: per-layer metric, unit, better, and the end-to-end metric (on which
#: workloads) it should move; "none:" rows are guards, not levers
_TABLE = """
render.rasterize_calls          count lower  op_p50_ms on pda-orbit, distributed
render.rasterize_s              s     lower  op_p50_ms on pda-orbit; ops_per_s on farm-crash
render.rasterize_ms_per_call    ms    lower  op_p50_ms on pda-orbit
render.faces_rasterized         count lower  op_p50_ms on pda-orbit
render.fragments                count lower  op_p50_ms on pda-orbit
render.fragments_per_face       ratio lower  op_p50_ms on pda-orbit
render.composite_s              s     lower  op_p50_ms on distributed
services.render_view_self_s     s     lower  op_p50_ms on pda-orbit
services.render_tile_self_s     s     lower  op_p50_ms on distributed
services.publish_update_s       s     lower  op_p50_ms on pda-orbit
services.soap_calls             count lower  op_p50_ms on grid-churn
services.soap_s                 s     lower  op_p50_ms on grid-churn
services.frame_codec_s          s     lower  ops_per_s on farm-crash, grid-churn
services.monitor_scrapes        count lower  ops_per_s on farm-crash, grid-churn
services.monitor_scrape_s       s     lower  ops_per_s on farm-crash, grid-churn
compression.encode_s            s     lower  op_p50_ms on pda-orbit
compression.decode_s            s     lower  op_p50_ms on pda-orbit
compression.wire_ratio          ratio higher op_p50_ms on pda-orbit
network.sends                   count lower  ops_per_s on farm-crash, grid-churn
network.send_s                  s     lower  ops_per_s on farm-crash, grid-churn
network.bytes_moved             bytes lower  ops_per_s on farm-crash, grid-churn
network.marshal_s               s     lower  setup_s on pda-orbit, distributed
network.events                  count lower  ops_per_s on farm-crash, grid-churn
network.event_loop_self_s       s     lower  ops_per_s on farm-crash, grid-churn
events_per_s                    1/s   higher ops_per_s on farm-crash, grid-churn
core.request_session_self_s     s     lower  op_p75_ms on grid-churn
core.pump_s                     s     lower  op_p75_ms on grid-churn
core.admits                     count higher ops_per_s on grid-churn
core.queued                     count lower  ops_per_s on grid-churn
core.rejects                    count lower  ops_per_s on grid-churn
core.arrival_lateness_sim_p95_s s     lower  none: simulated, must not move
core.place_s                    s     lower  setup_s on distributed
core.rebalance_s                s     lower  ops_per_s on distributed
core.migrations                 count lower  ops_per_s on distributed
core.autoscale_s                s     lower  ops_per_s on grid-churn
core.scale_events               count lower  ops_per_s on grid-churn
farm.dispatch_self_s            s     lower  ops_per_s on farm-crash
farm.leases                     count lower  ops_per_s on farm-crash
farm.completes                  count higher ops_per_s on farm-crash
farm.requeues                   count lower  ops_per_s on farm-crash
farm.duplicates_dropped         count lower  ops_per_s on farm-crash
farm.frame_yield                ratio higher ops_per_s on farm-crash
obs.telemetry_scrape_s          s     lower  ops_per_s on grid-churn
obs.recorder_events             count lower  ops_per_s on grid-churn
sim.render_s                    s     lower  none: simulated, must not move
sim.receipt_s                   s     lower  none: simulated, must not move
sim.overhead_s                  s     lower  none: simulated, must not move
sim_s                           s     lower  none: simulated, must not move
setup.import_s                  s     lower  setup_s on every workload
setup.import_scipy_s            s     lower  setup_s on every workload
setup.import_networkx_s         s     lower  setup_s on every workload
setup.testbed_s                 s     lower  setup_s on every workload
data.generate_s                 s     lower  setup_s on pda-orbit, distributed
setup.bootstrap_s               s     lower  setup_s on distributed, farm-crash
sanitizer.us_per_event          us    lower  none: cost of the opt-in sanitizer
sanitizer.events_checked        count higher none: sanitizer coverage
sanitizer.violations            count lower  none: must stay 0
trace.overhead_ratio            ratio higher none: tracing cost
trace.unattributed_share        ratio lower  none: tracing coverage
failed_op_ratio                 ratio lower  correct on every workload
ops_per_episode                 count higher none: episode size
env.nproc                       count higher none: machine
"""

METRICS = {
    name: (unit, better, moves)
    for name, unit, better, moves in (
        line.split(None, 3) for line in _TABLE.strip().splitlines())
}


def from_summary(summary) -> dict[str, float]:
    """The span-derived per-layer numbers of one traced episode."""
    calls, total, self_s = summary.calls, summary.total_s, summary.self_s
    counters = summary.counters
    raster_calls = calls.get("render.rasterize", 0)
    faces = counters.get("render.faces_rasterized", 0)
    wire = counters.get("compression.wire_bytes", 0)
    harness_self = sum(self_s.get(name, 0.0) for name in HARNESS_SPANS)
    phase = total.get("harness.phase", 0.0)
    return {
        "render.rasterize_calls": raster_calls,
        "render.rasterize_s": total.get("render.rasterize", 0.0),
        "render.rasterize_ms_per_call": (
            1e3 * total.get("render.rasterize", 0.0) / raster_calls
            if raster_calls else 0.0),
        "render.faces_rasterized": faces,
        "render.fragments": counters.get("render.fragments", 0),
        "render.fragments_per_face": (
            counters.get("render.fragments", 0) / faces if faces else 0.0),
        "render.composite_s": total.get("render.composite", 0.0),
        "services.render_view_self_s": self_s.get("services.render_view", 0.0),
        "services.render_tile_self_s": self_s.get("services.render_tile", 0.0),
        "services.publish_update_s": total.get("services.publish_update", 0.0),
        "services.soap_calls": calls.get("services.soap", 0),
        "services.soap_s": total.get("services.soap", 0.0),
        "services.frame_codec_s": total.get("services.frame_codec", 0.0),
        "services.monitor_scrapes": calls.get("services.monitor_scrape", 0),
        "services.monitor_scrape_s": total.get("services.monitor_scrape", 0.0),
        "compression.encode_s": total.get("compression.encode", 0.0),
        "compression.decode_s": total.get("compression.decode", 0.0),
        "compression.wire_ratio": (
            counters.get("compression.raw_bytes", 0) / wire if wire else 0.0),
        "network.sends": calls.get("network.send", 0),
        "network.send_s": total.get("network.send", 0.0),
        "network.bytes_moved": counters.get("network.bytes_moved", 0),
        "network.marshal_s": total.get("network.marshal", 0.0),
        "network.event_loop_self_s": self_s.get("network.event_loop", 0.0),
        "core.request_session_self_s": self_s.get("core.request_session", 0.0),
        "core.pump_s": total.get("core.pump", 0.0),
        "core.place_s": total.get("core.place", 0.0),
        "core.rebalance_s": total.get("core.rebalance", 0.0),
        "core.autoscale_s": total.get("core.autoscale", 0.0),
        "farm.dispatch_self_s": self_s.get("farm.dispatch", 0.0),
        "obs.telemetry_scrape_s": total.get("obs.telemetry_scrape", 0.0),
        "obs.recorder_events": calls.get("obs.recorder_note", 0),
        "trace.unattributed_share": harness_self / phase if phase else 0.0,
        "renders": calls.get("services.render_view", 0),
    }
