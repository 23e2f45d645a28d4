//! The benchmark's contract in one place: workloads, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root is
//! this table rendered (a test keeps the two equal), and the runner emits
//! exactly these names.

use crate::workloads::Kind;

/// What the driver runs, from the root of a checkout.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
pub const PATHS: [&str; 1] = ["benchmark"];
/// Host seconds one run measures: three ≈6 s repetitions.
pub const RUN_SECONDS: u64 = 18;

pub fn why(kind: Kind) -> &'static str {
    match kind {
        Kind::LvcFanout => "ROADMAP tier shape: ~500 deliveries per publication, BRASS timers and per-viewer fetches dominate; backend and Pylon nearly idle",
        Kind::FlashCrowd => "one hot video under the overload model: ranked buffers full and evicting, mailboxes and flow windows bounded, ledger drops dominate",
        Kind::ChaosRepair => "all six fault kinds: heartbeats, detection, purge, repair, reconnect backoff, rehydration, backfill; the only write-heavy use of subscription tables",
        Kind::MessengerChat => "write-heavy fan-out 1: one TAO write + WAS mutation + Pylon publish per delivery, zero drops; bypasses fan-out and fetch-sharing optimisations",
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Each bound is at least three times the spread (quartile distance over
/// median) seen across ten seeds on the 2-core sandbox, capped at the
/// contract's 0.25. Host times are in reference seconds (`probe.rs`);
/// even so their spread reached 10 % on `messenger_chat`. Metrics in
/// simulated time (`sim_`) and counts are exact for a seed, so their
/// bounds only cover seed-to-seed spread: `flash_crowd`'s median latency
/// swings 15 % with the seed (one video, so every viewer renders the same
/// ~20 comments) and its peak RSS 2.6 %.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s_per_sim_s",
        unit: "s/s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_us_per_delivery",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_delivery",
        unit: "count",
        higher_is_better: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.09,
    },
    EndToEnd {
        name: "sim_delivery_p50_ms",
        unit: "sim_ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_delivery_p99_ms",
        unit: "sim_ms",
        higher_is_better: false,
        bound: 0.18,
    },
    EndToEnd {
        name: "delivered_share",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.005,
    },
];

/// `(name, unit, higher is better)`. Layers are the crates.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    // engine (bladerunner::sim), from the traced system run
    ("engine.events_total", "count", false),
    ("engine.run_wall_s", "s", false),
    ("engine.wall_ns_per_event", "ns", false),
    ("engine.chunk_wall_p50_ms", "ms", false),
    ("engine.chunk_wall_p95_ms", "ms", false),
    ("engine.ramp_ns_per_event", "ns", false),
    ("engine.steady_ns_per_event", "ns", false),
    ("engine.drain_ns_per_event", "ns", false),
    ("engine.allocs_per_event", "count", false),
    ("engine.alloc_bytes_per_event", "B", false),
    ("engine.live_heap_bytes_per_device", "B", false),
    ("engine.parked_share", "ratio", true),
    ("engine.snapshot_s", "s", false),
    ("engine.snapshot_bytes_per_device", "B", false),
    ("engine.resume_s", "s", false),
    ("engine.trace_overhead_ratio", "ratio", false),
    ("engine.workers2_wall_ratio", "ratio", false),
    ("engine.host_speed_ratio", "ratio", false),
    ("workload.inject_wall_s", "s", false),
    ("workload.events", "count", false),
    ("workload.mutations", "count", false),
    ("was.mutations", "count", false),
    ("was.brass_fetches", "count", false),
    ("was.fetches_per_delivery", "count", false),
    ("was.privacy_denials", "count", false),
    ("tao.events", "count", false),
    ("tao.read_ops", "count", false),
    ("tao.cache_hit_rate", "ratio", true),
    ("pylon.events", "count", false),
    ("pylon.publishes", "count", false),
    ("pylon.forwards_per_publish", "count", false),
    ("pylon.subscribes", "count", false),
    ("pylon.quorum_failures", "count", false),
    ("pylon.fanout_queue_peak", "count", false),
    ("brass.events", "count", false),
    ("brass.events_per_delivery", "count", false),
    ("brass.decisions", "count", false),
    ("brass.useful_ratio", "ratio", true),
    ("brass.drop_buffer_overflow", "count", false),
    ("brass.drop_rate_limit", "count", false),
    ("brass.drop_mailbox_overflow", "count", false),
    ("brass.drop_host_down", "count", false),
    ("brass.mailbox_peak", "count", false),
    ("burst.heartbeat_events", "count", false),
    ("burst.flow_window_peak", "B", false),
    ("burst.drop_flow_control", "count", false),
    ("burst.flow_degraded_signals", "count", false),
    ("edge.up_events", "count", false),
    ("edge.down_events", "count", false),
    ("edge.down_events_per_delivery", "count", false),
    ("edge.churn_events", "count", false),
    ("edge.pop_egress_peak", "count", false),
    ("edge.drop_device_disconnected", "count", false),
    ("edge.drop_last_mile_loss", "count", false),
    ("edge.proxy_reconnects", "count", false),
    ("edge.backfills", "count", false),
    ("fault.events", "count", false),
    ("fault.host_failures_detected", "count", false),
    ("fault.sim_reconverge_max_s", "sim_s", false),
    // simkit.trace: simulated time each hop holds an update
    ("hop.pylon_publish.p50_ms", "sim_ms", false),
    ("hop.pylon_publish.p99_ms", "sim_ms", false),
    ("hop.pylon_deliver.p50_ms", "sim_ms", false),
    ("hop.pylon_deliver.p99_ms", "sim_ms", false),
    ("hop.brass_process.p50_ms", "sim_ms", false),
    ("hop.brass_process.p99_ms", "sim_ms", false),
    ("hop.brass_send.p50_ms", "sim_ms", false),
    ("hop.brass_send.p99_ms", "sim_ms", false),
    ("hop.burst_deliver.p50_ms", "sim_ms", false),
    ("hop.burst_deliver.p99_ms", "sim_ms", false),
    ("hop.device_render.p50_ms", "sim_ms", false),
    ("hop.device_render.p99_ms", "sim_ms", false),
    ("hop.was_backfill.p50_ms", "sim_ms", false),
    ("hop.was_backfill.p99_ms", "sim_ms", false),
    ("simkit.trace.drop_records", "count", false),
    // layer kernels, host ns per operation
    ("simkit.queue.schedule_pop_ns", "ns", false),
    ("simkit.queue.cancel_ns", "ns", false),
    ("simkit.trace.record_full_ns", "ns", false),
    ("simkit.trace.record_bounded_ns", "ns", false),
    ("tao.obj_get_ns", "ns", false),
    ("tao.assoc_add_ns", "ns", false),
    ("tao.assoc_range_ns", "ns", false),
    ("was.mutation_ns", "ns", false),
    ("was.fetch_for_viewer_ns", "ns", false),
    ("was.query_ns", "ns", false),
    ("pylon.subscribe_ns", "ns", false),
    ("pylon.publish_fan1_ns", "ns", false),
    ("pylon.publish_fan32_ns", "ns", false),
    ("brass.on_subscribe_ns", "ns", false),
    ("brass.on_pylon_event_ns_per_stream", "ns", false),
    ("brass.on_timer_idle_ns", "ns", false),
    ("brass.on_was_response_ns", "ns", false),
    ("brass.ranked_buffer_offer_full_ns", "ns", false),
    ("burst.encode_ns", "ns", false),
    ("burst.decode_ns", "ns", false),
    ("burst.header_parse_ns", "ns", false),
    ("edge.proxy.upstream_frame_ns", "ns", false),
    ("edge.proxy.downstream_frame_ns", "ns", false),
    ("edge.pop.device_frame_ns", "ns", false),
    ("edge.pop.proxy_frame_ns", "ns", false),
    ("edge.device.on_frame_ns", "ns", false),
    ("edge.device.hibernate_rehydrate_ns", "ns", false),
    // estimated attribution: op count × kernel ns ÷ engine.run_wall_s
    ("attr.brass.est_wall_share", "ratio", false),
    ("attr.edge.est_wall_share", "ratio", false),
    ("attr.pylon.est_wall_share", "ratio", false),
    ("attr.backend.est_wall_share", "ratio", false),
    ("attr.simkit.queue.est_wall_share", "ratio", false),
    ("attr.simkit.trace.est_wall_share", "ratio", false),
    ("attr.residual_wall_share", "ratio", false),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let workloads: Vec<String> = Kind::ALL
        .into_iter()
        .map(|k| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                k.name(),
                why(k)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, higher)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(*higher)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        strings(&COMMAND),
        strings(&PATHS),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).unwrap_or_default();
        let expected = benchmark_json();
        assert!(
            on_disk == expected,
            "BENCHMARK.json is out of date; it should read:\n{expected}"
        );
    }

    #[test]
    fn names_meet_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        names.extend(Kind::ALL.iter().map(|k| k.name()));
        for name in &names {
            assert!(name.len() <= 64, "{name} is too long");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128);
        assert!(Kind::ALL.iter().all(|k| why(*k).len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
