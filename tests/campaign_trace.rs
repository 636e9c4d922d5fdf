//! Trace neutrality and determinism: attaching any trace sink must not
//! change a byte of the campaign report, and the sequence-sorted NDJSON
//! stream must be byte-identical across worker counts — also when a counting
//! sink shares the trace, whose measurement side channel never reaches the
//! file. Snapshot on/off runs must agree after stripping execution-strategy
//! events (fork hit/miss, snapshot ring stats) — the probes themselves are
//! bit-identical.

use std::path::Path;
use std::sync::Arc;

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarmfuzz::campaign::{
    run_campaign_with_options, CampaignConfig, CampaignReport, CampaignRunOptions, SwarmConfig,
};
use swarmfuzz::dashboard::render_dashboard;
use swarmfuzz::trace::{
    canonical_ndjson, chrome_trace, encode_record, sorted_ndjson, validate_json, FileSink,
    RingSink, TeeSink,
};
use swarmfuzz::{Fuzzer, FuzzerConfig, Telemetry, Trace, TraceEvent};

fn controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// A deliberately tiny campaign (2 configs x 2 missions, tight evaluation
/// budget) so the multi-way comparison stays fast in debug builds.
fn tiny_campaign(workers: usize) -> CampaignConfig {
    CampaignConfig {
        configs: vec![
            SwarmConfig { swarm_size: 3, deviation: 5.0 },
            SwarmConfig { swarm_size: 4, deviation: 10.0 },
        ],
        missions_per_config: 2,
        base_seed: 7,
        workers,
    }
}

fn run(workers: usize, trace: &Trace, snapshot: bool) -> CampaignReport {
    let fuzzer = |deviation: f64| {
        let config = FuzzerConfig { eval_budget: 2, ..FuzzerConfig::swarmfuzz(deviation) };
        Fuzzer::new(controller(), config).with_snapshots(snapshot)
    };
    let options = CampaignRunOptions::default();
    run_campaign_with_options(&tiny_campaign(workers), fuzzer, &options, trace)
        .expect("campaign must run")
}

/// Raw (unsorted) NDJSON captured through a ring sink.
fn ring_ndjson(workers: usize, snapshot: bool) -> (CampaignReport, String) {
    let ring = Arc::new(RingSink::new(1 << 16));
    let report = run(workers, &Trace::new(ring.clone()), snapshot);
    assert_eq!(ring.dropped(), 0, "ring must be large enough for the tiny campaign");
    let text: String = ring.records().iter().map(|r| encode_record(r) + "\n").collect();
    (report, text)
}

#[test]
fn reports_identical_with_tracing_off_ring_and_file_across_workers() {
    let baseline = run(1, &Trace::off(), true);
    assert_eq!(baseline.missions.len(), 4);

    let dir = std::env::temp_dir().join(format!("swarmfuzz-trace-{}", std::process::id()));
    let sorted_file = |path: &Path| {
        sorted_ndjson(&std::fs::read_to_string(path).expect("trace file readable"))
            .expect("trace file parses")
    };
    for workers in [1usize, 4] {
        let off = run(workers, &Trace::off(), true);
        assert_eq!(baseline, off, "workers={workers}, trace off");

        let (ring_report, _) = ring_ndjson(workers, true);
        assert_eq!(baseline, ring_report, "workers={workers}, ring sink");

        let path = dir.join(format!("trace-w{workers}.ndjson"));
        let sink = Arc::new(FileSink::create(&path).expect("file sink"));
        let file_report = run(workers, &Trace::new(sink.clone()), true);
        sink.finish().expect("no write errors");
        assert_eq!(baseline, file_report, "workers={workers}, file sink");

        // The same file sink teed with a counting sink: the counters see
        // spans and run stats, the file sees exactly the file-only bytes.
        let teed_path = dir.join(format!("trace-w{workers}-teed.ndjson"));
        let teed = Arc::new(FileSink::create(&teed_path).expect("file sink"));
        let telemetry = Telemetry::enabled(workers);
        let tee = TeeSink::new(vec![teed.clone(), Arc::new(telemetry.clone())]);
        let teed_report = run(workers, &Trace::new(Arc::new(tee)), true);
        teed.finish().expect("no write errors");
        assert_eq!(baseline, teed_report, "workers={workers}, file + telemetry");
        let spans = telemetry.snapshot().expect("enabled").phase("baseline").expect("phase").count;
        assert!(spans > 0, "workers={workers}: the side channel carried spans");
        assert_eq!(
            sorted_file(&teed_path),
            sorted_file(&path),
            "workers={workers}: measurements must never reach the trace file"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ndjson_byte_identical_across_worker_counts_after_sequence_sort() {
    let (_, raw1) = ring_ndjson(1, true);
    let (_, raw4) = ring_ndjson(4, true);
    let sorted1 = sorted_ndjson(&raw1).expect("worker-1 stream parses");
    let sorted4 = sorted_ndjson(&raw4).expect("worker-4 stream parses");
    assert!(!sorted1.is_empty());
    assert_eq!(sorted1, sorted4, "sequence-sorted trace must not depend on worker count");

    // The file sink writes exactly the same bytes the ring captured.
    let dir = std::env::temp_dir().join(format!("swarmfuzz-trace-f-{}", std::process::id()));
    let path = dir.join("trace.ndjson");
    let sink = Arc::new(FileSink::create(&path).expect("file sink"));
    run(4, &Trace::new(sink.clone()), true);
    sink.finish().expect("no write errors");
    let from_file = std::fs::read_to_string(&path).expect("trace file readable");
    assert_eq!(sorted_ndjson(&from_file).expect("file stream parses"), sorted1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn canonical_trace_identical_across_snapshot_modes() {
    let (report_on, raw_on) = ring_ndjson(1, true);
    let (report_off, raw_off) = ring_ndjson(1, false);
    assert_eq!(report_on, report_off, "snapshot forking must not change the report");
    assert_eq!(
        canonical_ndjson(&raw_on).expect("snapshot-on stream parses"),
        canonical_ndjson(&raw_off).expect("snapshot-off stream parses"),
        "canonical trace (execution-strategy fields stripped) must match"
    );
}

#[test]
fn trace_probes_reconcile_with_the_report() {
    let ring = Arc::new(RingSink::new(1 << 16));
    let report = run(2, &Trace::new(ring.clone()), true);
    let records = ring.records();

    let probes = records.iter().filter(|r| matches!(r.event, TraceEvent::Probe { .. })).count();
    let evaluations: usize = report.missions.iter().map(|m| m.evaluations).sum();
    assert_eq!(probes, evaluations, "one probe event per search evaluation");

    let mission_dones =
        records.iter().filter(|r| matches!(r.event, TraceEvent::MissionDone { .. })).count();
    assert_eq!(mission_dones, report.missions.len());
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TraceEvent::CampaignEnd { missions: 4, failures: 0 })));
}

#[test]
fn dashboard_and_chrome_export_render_a_real_campaign() {
    let ring = Arc::new(RingSink::new(1 << 16));
    let report = run(2, &Trace::new(ring.clone()), true);
    let records = ring.records();

    let configs = [
        SwarmConfig { swarm_size: 3, deviation: 5.0 },
        SwarmConfig { swarm_size: 4, deviation: 10.0 },
    ];
    let html = render_dashboard(&report, &configs, &records, "tiny campaign");
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(html.contains("</html>"));
    assert!(html.contains("<svg"), "trajectory plots must render from real probes");
    assert!(!html.contains("http"), "dashboard must be fully self-contained");
    assert!(html.contains("3d-5m") && html.contains("4d-10m"));

    let chrome = chrome_trace(&records);
    validate_json(&chrome).expect("chrome export must be valid JSON");
    assert!(chrome.contains("\"ph\":\"X\""), "probe spans present");
}
