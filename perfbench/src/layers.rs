//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark reports, and for each per-layer metric the workloads that
//! exercise its layer and the end-to-end metric it should move there.
//! `BENCHMARK.json` lists the same names and units (checked by a test).

/// One metric of the catalogue.
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Workloads whose traced run measures the metric; every other
    /// workload reports 0 because the layer does no work there.
    pub workloads: &'static [&'static str],
    /// The end-to-end metric a change in this one should move, on those
    /// workloads.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    workloads: &'static [&'static str],
    moves: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, workloads, moves }
}

const GRID: &[&str] = &["paper-grid"];
const STRESS: &[&str] = &["stress-n1000"];
const SERVE: &[&str] = &["serve"];
const RESUME: &[&str] = &["serve-resume"];
const SERVED: &[&str] = &["serve", "serve-resume"];
const ALL: &[&str] = &["paper-grid", "stress-n1000", "serve", "serve-resume"];

/// End-to-end metrics, measured with tracing off on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("ops_per_s", "1/s", "higher", ALL, "-"),
    m("request_p50_ms", "ms", "lower", ALL, "-"),
    m("setup_s", "s", "lower", ALL, "-"),
    m("peak_rss_mb", "MiB", "lower", ALL, "-"),
];

/// Per-layer metrics, measured by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // Fuzzer layers, re-driven mission by mission on paper-grid.
    m("sim.baseline_ms", "ms", "lower", GRID, "ops_per_s"),
    m("sim.fresh_probe_ms", "ms", "lower", GRID, "ops_per_s"),
    m("sim.forked_probe_ms", "ms", "lower", GRID, "ops_per_s"),
    m("snapshot.capture_overhead_ms", "ms", "lower", GRID, "ops_per_s"),
    m("snapshot.ring_len", "count", "lower", GRID, "peak_rss_mb"),
    m("snapshot.fork_hit_ratio", "ratio", "higher", GRID, "ops_per_s"),
    m("snapshot.prefix_steps_saved_frac", "ratio", "higher", GRID, "ops_per_s"),
    m("schedule.ms_per_mission", "ms", "lower", GRID, "ops_per_s"),
    m("search.self_ms_per_seed", "ms", "lower", GRID, "ops_per_s"),
    m("search.probes_per_mission", "count", "lower", GRID, "ops_per_s"),
    m("search.seeds_tried_per_mission", "count", "lower", GRID, "ops_per_s"),
    m("search.success_ratio", "ratio", "higher", GRID, "ops_per_s"),
    m("campaign.baseline_skips", "count", "lower", GRID, "ops_per_s"),
    m("campaign.share.baseline", "ratio", "lower", GRID, "ops_per_s"),
    m("campaign.share.schedule", "ratio", "lower", GRID, "ops_per_s"),
    m("campaign.share.search_self", "ratio", "lower", GRID, "ops_per_s"),
    m("campaign.share.probe_sim", "ratio", "lower", GRID, "ops_per_s"),
    // Simulation-step stages, replayed on the N=1000 mid-mission state.
    m("spatial.rebuild_us", "us", "lower", STRESS, "ops_per_s"),
    m("spatial.close_pairs_us", "us", "lower", STRESS, "ops_per_s"),
    m("spatial.within_us_per_tick", "us", "lower", STRESS, "ops_per_s"),
    m("spatial.cells_scanned_per_tick", "count", "lower", STRESS, "ops_per_s"),
    m("spatial.rebuilds_per_tick", "count", "lower", STRESS, "ops_per_s"),
    m("comms.deliver_us_per_tick", "us", "lower", STRESS, "ops_per_s"),
    m("comms.messages_per_tick", "count", "lower", STRESS, "ops_per_s"),
    m("control.desired_velocity_ns", "ns", "lower", STRESS, "ops_per_s"),
    m("control.neighbors_per_drone", "count", "lower", STRESS, "ops_per_s"),
    m("sensors.gps_sample_ns", "ns", "lower", STRESS, "ops_per_s"),
    m("dynamics.step_ns", "ns", "lower", STRESS, "ops_per_s"),
    m("recorder.push_sample_us", "us", "lower", STRESS, "ops_per_s"),
    m("recorder.bytes_per_sample", "B", "lower", STRESS, "peak_rss_mb"),
    m("sim.physics_steps", "count", "higher", STRESS, "ops_per_s"),
    m("sim.stage_coverage", "ratio", "higher", STRESS, "ops_per_s"),
    // Service layers: the write path (serve) and the read path
    // (serve-resume).
    m("server.queue_wait_ms", "ms", "lower", SERVE, "request_p50_ms"),
    m("server.run_ms", "ms", "lower", SERVE, "request_p50_ms"),
    m("server.worker_busy_frac", "ratio", "higher", SERVE, "ops_per_s"),
    m("server.submit_us", "us", "lower", SERVED, "request_p50_ms"),
    m("server.rejections", "count", "lower", SERVED, "ops_per_s"),
    m("executor.execute_ms", "ms", "lower", SERVE, "ops_per_s"),
    m("store.append_us", "us", "lower", SERVE, "ops_per_s"),
    m("store.bytes_per_row", "B", "lower", SERVE, "ops_per_s"),
    m("store.create_shard_ms", "ms", "lower", SERVE, "request_p50_ms"),
    m("store.merge_ms", "ms", "lower", SERVED, "request_p50_ms"),
    m("store.decode_row_us", "us", "lower", RESUME, "ops_per_s"),
    m("store.shard_files", "count", "lower", SERVED, "request_p50_ms"),
    m("wire.status_rtt_us", "us", "lower", SERVED, "request_p50_ms"),
    m("wire.results_bytes_per_job", "B", "lower", SERVED, "ops_per_s"),
    m("wire.job_p95_ms", "ms", "lower", SERVED, "request_p50_ms"),
    // The traced run's own cost over the untraced one.
    m("trace.overhead_frac", "ratio", "lower", ALL, "-"),
];

/// The catalogue entry of a per-layer metric.
pub fn per_layer(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|d| d.name == name)
}

/// The layer map as JSON: every metric with its unit and direction, and
/// for each per-layer metric the workloads that measure it and the
/// end-to-end metric it should move there.
pub fn layer_map_json() -> String {
    let entries = |defs: &[MetricDef]| -> String {
        let lines: Vec<String> = defs
            .iter()
            .map(|d| {
                let workloads: Vec<String> =
                    d.workloads.iter().map(|w| format!("\"{w}\"")).collect();
                format!(
                    "  {{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"workloads\":[{}],\
                     \"moves\":\"{}\"}}",
                    d.name,
                    d.unit,
                    d.better,
                    workloads.join(","),
                    d.moves
                )
            })
            .collect();
        lines.join(",\n")
    };
    format!(
        "{{\"seed\":\"the run's --seed; a traced run and a timed run with the same seed see the \
         same inputs\",\n\"end_to_end\":[\n{}\n],\n\"per_layer\":[\n{}\n]}}\n",
        entries(END_TO_END),
        entries(PER_LAYER)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names, units and directions here must match `BENCHMARK.json`
    /// entry for entry, in order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let (_, rest) = text.split_once("\"end_to_end\"").expect("end_to_end section");
        let (e2e, layers) = rest.split_once("\"per_layer\"").expect("per_layer section");
        for (section, defs) in [(e2e, END_TO_END), (layers, PER_LAYER)] {
            let entries: Vec<&str> = section.split("{\"name\": ").skip(1).collect();
            assert_eq!(entries.len(), defs.len(), "entry count differs");
            for (entry, def) in entries.iter().zip(defs) {
                let expected = format!(
                    "\"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    def.name, def.unit, def.better
                );
                assert!(entry.starts_with(&expected), "{} differs: {entry}", def.name);
            }
        }
    }

    #[test]
    fn names_are_unique_and_measured_somewhere() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
        assert!(PER_LAYER.iter().all(|d| !d.workloads.is_empty()));
    }
}
