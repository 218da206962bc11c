//! The metric and workload tables. `BENCHMARK.json` at the repository
//! root lists the same names (a unit test holds the two together) and
//! is the one place the regression bounds live.

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// One workload: its name, why it exists, and whether `BENCHMARK.json`
/// lists it (so that the driver gates it).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub gated: bool,
}

/// The workloads. All four run and report alike; `BENCHMARK.json` lists
/// the two whose timings stay inside the bounds over ten seeds on the
/// sandbox (README, "what this host can resolve"). `flash_crowd`'s
/// epoch percentiles sit on the slope of the stampede's ramp, where
/// host noise moves them by up to a third; `serve_read_storm` needs
/// both vCPUs at once, and when the host starves one of them its
/// latencies step by 2-5x for minutes.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "paper_uniform",
        why: "paper Table 2 at N=100k in process: the client filter does most of the work, Phase B little",
        gated: true,
    },
    WorkloadDef {
        name: "flash_crowd",
        why: "N=20k stampede into one hub in process: strategy/Phase B and FSA overlap dominate, filter <10%",
        gated: false,
    },
    WorkloadDef {
        name: "serve_ingest",
        why: "N=20k trace replayed closed-loop through the hotpathd socket: small epochs expose wire, hand-off, publish",
        gated: true,
    },
    WorkloadDef {
        name: "serve_read_storm",
        why: "same daemon and trace, writer paced, readers back to back: serve/snapshot layers read-dominant",
        gated: false,
    },
];

/// What a user of the system would see. Every metric is defined on
/// every workload (the README's table says how, per workload). A timing
/// of a unit of work that every rep repeats is its median across reps.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("throughput_per_s", "1/s", "higher"),
    m("epoch_latency_ms_p50", "ms", "lower"),
    m("epoch_latency_ms_p90", "ms", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("uplink_msgs_per_kmeas", "count", "lower"),
    m("index_paths_mean", "count", "lower"),
];

/// Single layers, named `<module>.<metric>`. A metric that does not
/// apply to a workload (no socket in the in-process pipelines) reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("raytrace.observe_ns_per_meas", "ns", "lower"),
    m("raytrace.observe_busy_s", "s", "lower"),
    m("raytrace.receive_busy_s", "s", "lower"),
    m("raytrace.report_ratio", "ratio", "lower"),
    m("raytrace.resubmit_ratio", "ratio", "lower"),
    m("engine.submit_ns_per_state", "ns", "lower"),
    m("engine.advance_busy_s", "s", "lower"),
    m("engine.advance_us_per_tick_p50", "us", "lower"),
    m("engine.process_epoch_busy_s", "s", "lower"),
    m("engine.snapshot_us_p50", "us", "lower"),
    m("coordinator.strategy_s", "s", "lower"),
    m("coordinator.expiry_s", "s", "lower"),
    m("coordinator.publish_s", "s", "lower"),
    m("coordinator.unattributed_s", "s", "lower"),
    m("coordinator.states_processed", "count", "lower"),
    m("coordinator.top_k_score_mean", "score", "higher"),
    m("strategy.case1", "count", "higher"),
    m("strategy.case2", "count", "lower"),
    m("strategy.case3", "count", "lower"),
    m("strategy.reuse_ratio", "ratio", "higher"),
    m("strategy.phase_b_deferred", "count", "lower"),
    m("strategy.deferred_ratio", "ratio", "lower"),
    m("strategy.us_per_state", "us", "lower"),
    m("overlap.fsa_build_ms_p50", "ms", "lower"),
    m("overlap.fsa_delta_ms_p50", "ms", "lower"),
    m("index.paths_final", "count", "lower"),
    m("hotness.hot_final", "count", "lower"),
    m("hotness.pending_expiry_events", "count", "lower"),
    m("hotness.late_crossings", "count", "lower"),
    m("checkpoint.recover_ms", "ms", "lower"),
    m("checkpoint.capture_ms", "ms", "lower"),
    m("checkpoint.image_bytes", "bytes", "lower"),
    m("checkpoint.decode_ms", "ms", "lower"),
    m("checkpoint.restore_ms", "ms", "lower"),
    m("wire.encode_state_ns", "ns", "lower"),
    m("wire.decode_state_ns", "ns", "lower"),
    m("wire.snapshot_encode_ns", "ns", "lower"),
    m("wire.snapshot_decode_ns", "ns", "lower"),
    m("wire.submit_rtt_us_p50", "us", "lower"),
    m("wire.advance_rtt_us_p50", "us", "lower"),
    m("wire.query_rtt_us_p50", "us", "lower"),
    m("wire.query_rtt_us_p99", "us", "lower"),
    m("wire.frames_sent", "count", "lower"),
    m("wire.bytes_sent", "bytes", "lower"),
    m("wire.bytes_received", "bytes", "lower"),
    m("wire.states_per_frame_mean", "count", "higher"),
    m("snapshot.read_ns_p50", "ns", "lower"),
    m("snapshot.read_ns_p99", "ns", "lower"),
    m("server.cpu_s_per_mstate", "s", "lower"),
    m("server.cpu_user_s", "s", "lower"),
    m("server.cpu_sys_s", "s", "lower"),
    m("server.cpu_utilization", "ratio", "lower"),
    m("server.ctx_switches_involuntary", "count", "lower"),
    m("server.threads", "count", "lower"),
    m("server.startup_ms", "ms", "lower"),
    m("server.epoch_overhead_ms_p50", "ms", "lower"),
    m("loadgen.read_latency_us_p50", "us", "lower"),
    m("loadgen.read_latency_us_p99", "us", "lower"),
    m("loadgen.throughput_all_samples", "1/s", "higher"),
    m("loadgen.epoch_latency_ms_p50_all_samples", "ms", "lower"),
    m("loadgen.gen_s", "s", "lower"),
    m("loadgen.pacer_lag_ms_p99", "ms", "lower"),
    m("loadgen.polls_per_epoch", "count", "lower"),
    m("trace.spans", "count", "lower"),
    m("trace.traced_wall_s", "s", "lower"),
    m("trace.span_coverage_pct", "%", "higher"),
    m("trace.overhead_pct", "%", "lower"),
];
