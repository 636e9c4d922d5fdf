//! Crash-safety contract of the campaign journal: a campaign killed after K
//! missions and resumed must produce a [`CampaignReport`] bit-identical to
//! an uninterrupted run, across worker counts, keeping the first journaled
//! row per job and ignoring rows off the grid; mission-level failures are
//! quarantined as `failed` rows instead of aborting; and a journal from a
//! different campaign (grid, seed, or fuzzer variant) is refused.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_sim::spoof::{Waveform, WaveformKind, WaveformSet};
use swarm_testkit::domain::journal_row;
use swarm_testkit::tk_ensure;
use swarmfuzz::campaign::{
    run_campaign, run_campaign_with_options, CampaignConfig, CampaignReport, CampaignRunOptions,
    JournalSpec, MissionResult, SwarmConfig,
};
use swarmfuzz::store::{encode_row, JournalRow};
use swarmfuzz::telemetry::Counter;
use swarmfuzz::trace::{encode_record, RingSink};
use swarmfuzz::{
    CampaignJournal, FuzzError, Fuzzer, FuzzerConfig, StoreError, Telemetry, Trace, TraceEvent,
    TraceRecord,
};

fn controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// Same tiny grid as the campaign determinism tests (2 configs x 2
/// missions, tight budget) so resume round-trips stay fast in debug builds.
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

fn fuzzer(deviation: f64) -> Fuzzer<VasarhelyiController> {
    let config = FuzzerConfig { eval_budget: 2, ..FuzzerConfig::swarmfuzz(deviation) };
    Fuzzer::new(controller(), config)
}

fn journal_options(path: &Path, resume: bool) -> CampaignRunOptions {
    CampaignRunOptions {
        journal: Some(JournalSpec { path: path.to_path_buf(), resume }),
        ..CampaignRunOptions::default()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swarmfuzz-store-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn run_journaled(
    campaign: &CampaignConfig,
    path: &Path,
    resume: bool,
    telemetry: &Telemetry,
) -> Result<CampaignReport, FuzzError> {
    run_campaign_with_options(campaign, fuzzer, &journal_options(path, resume), &telemetry.trace())
}

/// Cuts the journal back to its header plus the first `k` rows, then
/// appends half a row — the on-disk state after a `kill -9` mid-append.
fn kill_after(path: &Path, k: usize) {
    kill_after_with(path, k, &[]);
}

/// [`kill_after`] with `strays` journaled between the kept rows and the
/// torn tail.
fn kill_after_with(path: &Path, k: usize, strays: &[JournalRow]) {
    let text = std::fs::read_to_string(path).expect("journal exists");
    let mut lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 1 + k, "need more than {k} rows to truncate");
    lines.truncate(1 + k);
    let mut out = lines.join("\n");
    out.push('\n');
    for row in strays {
        out.push_str(&encode_row(row));
    }
    out.push_str("{\"kind\":\"done\",\"index\":1,\"resu"); // torn final write
    std::fs::write(path, out).expect("truncate journal");
}

/// Two rows a resume must ignore: a later, different row for `row`'s own
/// job (the first journaled row of a job wins) and a copy of `row` at a
/// mission index off the grid.
fn strays(row: &JournalRow) -> Vec<JournalRow> {
    let JournalRow::Done { index, result } = row else { panic!("expected a done row: {row:?}") };
    let rerun = MissionResult { evaluations: result.evaluations + 100, ..result.clone() };
    vec![
        JournalRow::Done { index: *index, result: rerun },
        JournalRow::Done { index: 99, result: result.clone() },
    ]
}

#[test]
fn killed_campaign_resumes_bit_identical() {
    let dir = tmp_dir("resume");
    let baseline = run_campaign(&tiny_campaign(1), fuzzer).expect("uninterrupted run");
    assert_eq!(baseline.missions.len(), 4);

    for workers in [1usize, 4] {
        for k in [1usize, 3] {
            let path = dir.join(format!("w{workers}-k{k}.jsonl"));
            // Full journaled run, then rewind the file to "crashed after k
            // missions, died mid-append", with a duplicate and an off-grid
            // row journaled after the kept ones.
            run_journaled(&tiny_campaign(workers), &path, false, &Telemetry::off())
                .expect("initial journaled run");
            let first = CampaignJournal::read(&path).expect("journal readable").rows[0].clone();
            kill_after_with(&path, k, &strays(&first));

            let telemetry = Telemetry::enabled(workers);
            let resumed = run_journaled(&tiny_campaign(workers), &path, true, &telemetry)
                .expect("resumed run");
            assert_eq!(baseline, resumed, "workers={workers} k={k}");
            assert_eq!(telemetry.counter(Counter::ResumeSkips), k as u64);
            assert_eq!(telemetry.counter(Counter::JournalAppends), (4 - k) as u64);

            // The compacted journal now holds the complete campaign, and
            // still the two strays.
            let contents = CampaignJournal::read(&path).expect("journal readable");
            assert_eq!(contents.rows.len(), 4 + 2);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resumed_raw_trace_is_deterministic() {
    // One worker and one pending mission: every event of a resumed run is
    // then emitted in a fixed order, resume skips included, so two resumes
    // of one killed journal write the same raw (unsorted) record stream.
    let dir = tmp_dir("raw-trace");
    let campaign = CampaignConfig { missions_per_config: 4, ..tiny_campaign(1) };
    let killed = dir.join("killed.jsonl");
    run_campaign_with_options(&campaign, fuzzer, &journal_options(&killed, false), &Trace::off())
        .expect("initial journaled run");
    kill_after(&killed, 7);
    let streams: Vec<Vec<TraceRecord>> = ["a", "b"]
        .into_iter()
        .map(|copy| {
            let path = dir.join(format!("{copy}.jsonl"));
            std::fs::copy(&killed, &path).expect("copy the killed journal");
            let ring = Arc::new(RingSink::new(1 << 14));
            run_campaign_with_options(
                &campaign,
                fuzzer,
                &journal_options(&path, true),
                &Trace::new(ring.clone()),
            )
            .expect("resumed run");
            ring.records()
        })
        .collect();
    let skips = streams[0].iter().filter(|r| r.event == TraceEvent::ResumeSkip).count();
    assert_eq!(skips, 7);
    let [a, b] = [0, 1].map(|i| streams[i].iter().map(encode_record).collect::<String>());
    assert_eq!(a, b, "two resumes of one journal must trace alike");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journaled_run_matches_plain_run() {
    let dir = tmp_dir("plain");
    let path = dir.join("campaign.jsonl");
    let plain = run_campaign(&tiny_campaign(2), fuzzer).expect("plain run");

    let telemetry = Telemetry::enabled(2);
    let journaled =
        run_journaled(&tiny_campaign(2), &path, false, &telemetry).expect("journaled run");
    assert_eq!(plain, journaled, "journaling must not change the report");
    assert_eq!(telemetry.counter(Counter::JournalAppends), plain.missions.len() as u64);
    assert_eq!(telemetry.counter(Counter::ResumeSkips), 0);

    let contents = CampaignJournal::read(&path).expect("journal readable");
    assert_eq!(contents.variant, "SwarmFuzz");
    assert_eq!(contents.rows.len(), plain.missions.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_foreign_campaign() {
    let dir = tmp_dir("foreign");
    let path = dir.join("campaign.jsonl");
    run_journaled(&tiny_campaign(1), &path, false, &Telemetry::off()).expect("seed run");

    // Different base seed: different campaign identity.
    let mut other_seed = tiny_campaign(1);
    other_seed.base_seed = 8;
    let err = run_journaled(&other_seed, &path, true, &Telemetry::off())
        .expect_err("must refuse a foreign seed");
    assert!(
        matches!(err, FuzzError::Journal(StoreError::FingerprintMismatch { .. })),
        "got {err:?}"
    );

    // Same grid, different fuzzer variant: also refused.
    let r_fuzz = |d: f64| {
        Fuzzer::new(controller(), FuzzerConfig { eval_budget: 2, ..FuzzerConfig::r_fuzz(d) })
    };
    let err = run_campaign_with_options(
        &tiny_campaign(1),
        r_fuzz,
        &journal_options(&path, true),
        &Trace::off(),
    )
    .expect_err("must refuse a foreign variant");
    assert!(
        matches!(err, FuzzError::Journal(StoreError::FingerprintMismatch { .. })),
        "got {err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A grid whose first configuration cannot form a target–victim pair, so
/// each of its missions deterministically fails with `SwarmTooSmall`.
fn poisoned_campaign(workers: usize) -> CampaignConfig {
    CampaignConfig {
        configs: vec![
            SwarmConfig { swarm_size: 1, deviation: 5.0 },
            SwarmConfig { swarm_size: 3, deviation: 5.0 },
        ],
        missions_per_config: 2,
        base_seed: 7,
        workers,
    }
}

#[test]
fn failing_missions_are_quarantined_not_fatal() {
    let telemetry = Telemetry::enabled(2);
    let report = run_campaign_with_options(
        &poisoned_campaign(2),
        fuzzer,
        &CampaignRunOptions::default(),
        &telemetry.trace(),
    )
    .expect("mission failures must not abort the campaign");

    // The healthy configuration's missions all completed.
    assert_eq!(report.missions.len(), 2);
    assert!(report.missions.iter().all(|m| m.config.swarm_size == 3));
    // Both poisoned missions were retried once, then quarantined.
    assert_eq!(report.failures.len(), 2);
    for f in &report.failures {
        assert_eq!(f.config.swarm_size, 1);
        assert_eq!(f.retries, 1);
        assert!(f.error.contains("target-victim"), "error: {}", f.error);
    }
    assert_eq!(telemetry.counter(Counter::MissionRetries), 2);
    assert_eq!(telemetry.counter(Counter::MissionFailures), 2);

    let summary = report.error_summary().expect("failures produce a summary");
    assert!(summary.contains("2 mission(s) failed"), "summary: {summary}");
    assert!(summary.contains("1d-5m"), "summary: {summary}");
}

#[test]
fn failures_survive_resume() {
    let dir = tmp_dir("failures");
    let path = dir.join("campaign.jsonl");
    let full = run_campaign_with_options(
        &poisoned_campaign(1),
        fuzzer,
        &journal_options(&path, false),
        &Trace::off(),
    )
    .expect("journaled run with failures");
    assert_eq!(full.failures.len(), 2);

    // Kill after the first journaled row, whichever kind it was.
    kill_after(&path, 1);
    let telemetry = Telemetry::enabled(1);
    let resumed = run_campaign_with_options(
        &poisoned_campaign(1),
        fuzzer,
        &journal_options(&path, true),
        &telemetry.trace(),
    )
    .expect("resume");
    assert_eq!(full, resumed, "failed rows must round-trip through resume");
    assert_eq!(telemetry.counter(Counter::ResumeSkips), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plain_run_campaign_tolerates_mission_failures() {
    // The default entry point inherits fault isolation: no journal, yet a
    // poisoned configuration no longer poisons its siblings.
    let report = run_campaign(&poisoned_campaign(1), fuzzer).expect("must not abort");
    assert_eq!(report.missions.len(), 2);
    assert_eq!(report.failures.len(), 2);
}

// ---------------------------------------------------------------------------
// Attack-zoo journal compatibility (PR 6).
//
// The fingerprint and the journal bytes below were captured from the build
// *before* the attack-model zoo landed. They are load-bearing: if
// either pin breaks, pre-existing campaign journals stop resuming.
// ---------------------------------------------------------------------------

/// `campaign_fingerprint(tiny_campaign(1), eval-budget-2 SwarmFuzz fuzzers)`
/// as computed by the pre-zoo build.
const LEGACY_FINGERPRINT: &str = "42c0b349f486bc48";

/// A complete journal of `tiny_campaign(1)`, byte-for-byte as the pre-zoo
/// build wrote it.
const LEGACY_JOURNAL: &str = "\
{\"journal\":\"swarmfuzz-campaign\",\"version\":1,\"fingerprint\":\"42c0b349f486bc48\",\"variant\":\"SwarmFuzz\"}
{\"row\":\"done\",\"swarm_size\":3,\"index\":0,\"deviation\":5,\"mission_seed\":10205086686246041181,\"vdo\":6.146235008480474,\"success\":false,\"evaluations\":2,\"seeds_tried\":1,\"finding\":null}
{\"row\":\"done\",\"swarm_size\":3,\"index\":1,\"deviation\":5,\"mission_seed\":14188965969156172468,\"vdo\":4.721245670209976,\"success\":false,\"evaluations\":2,\"seeds_tried\":1,\"finding\":null}
{\"row\":\"done\",\"swarm_size\":4,\"index\":0,\"deviation\":10,\"mission_seed\":7569999635669526324,\"vdo\":4.294559005101695,\"success\":false,\"evaluations\":2,\"seeds_tried\":1,\"finding\":null}
{\"row\":\"done\",\"swarm_size\":4,\"index\":1,\"deviation\":10,\"mission_seed\":9560818598275023580,\"vdo\":5.396841492666718,\"success\":false,\"evaluations\":2,\"seeds_tried\":1,\"finding\":null}
";

#[test]
fn campaign_fingerprint_is_pinned_to_the_pre_zoo_value() {
    let campaign = tiny_campaign(1);
    let fuzzers: Vec<FuzzerConfig> =
        campaign.configs.iter().map(|c| *fuzzer(c.deviation).config()).collect();
    assert_eq!(
        swarmfuzz::store::campaign_fingerprint(&campaign, &fuzzers),
        LEGACY_FINGERPRINT,
        "constant-only campaigns must keep their pre-zoo fingerprint"
    );
}

#[test]
fn pre_zoo_journal_resumes_bit_identical() {
    let dir = tmp_dir("legacy");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("legacy.jsonl");
    std::fs::write(&path, LEGACY_JOURNAL).unwrap();

    let baseline = run_campaign(&tiny_campaign(1), fuzzer).expect("fresh run");
    let telemetry = Telemetry::enabled(1);
    let resumed =
        run_journaled(&tiny_campaign(1), &path, true, &telemetry).expect("legacy journal resumes");
    assert_eq!(baseline, resumed, "a pre-zoo journal must reproduce today's report exactly");
    // Every mission was already journaled: nothing re-runs, nothing appends.
    assert_eq!(telemetry.counter(Counter::ResumeSkips), 4);
    assert_eq!(telemetry.counter(Counter::JournalAppends), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn constant_only_journal_bytes_match_the_pre_zoo_format() {
    // Fresh journaled run of the same campaign: the file must be exactly
    // what the pre-zoo build wrote (header line included).
    let dir = tmp_dir("legacy-bytes");
    let path = dir.join("fresh.jsonl");
    run_journaled(&tiny_campaign(1), &path, false, &Telemetry::off()).expect("journaled run");
    let written = std::fs::read_to_string(&path).unwrap();
    assert_eq!(written, LEGACY_JOURNAL, "constant-only journals must stay byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn legacy_finding_row_still_decodes_as_constant() {
    // Hand-written in the pre-zoo finding format (no waveform field).
    let line = "{\"row\":\"done\",\"swarm_size\":5,\"index\":4,\"deviation\":10,\
\"mission_seed\":99,\"vdo\":2.5,\"success\":true,\"evaluations\":17,\"seeds_tried\":3,\
\"finding\":{\"target\":3,\"victim\":1,\"direction\":\"left\",\"influence\":0.25,\
\"victim_vdo\":1.5,\"start\":12.625,\"duration\":7.3,\"spoof_deviation\":10,\
\"actual_victim\":2,\"collision_time\":39.5}}";
    let row = swarmfuzz::store::decode_row(line).expect("legacy finding row decodes");
    let swarmfuzz::store::JournalRow::Done { result, .. } = row else {
        panic!("expected a done row")
    };
    let finding = result.finding.expect("finding present");
    assert_eq!(finding.waveform, Waveform::Constant);
    assert_eq!(finding.seed.waveform, WaveformKind::Constant);
    // And it re-encodes into the identical pre-zoo bytes.
    let reencoded =
        swarmfuzz::store::encode_row(&swarmfuzz::store::JournalRow::Done { index: 4, result });
    assert_eq!(reencoded.trim_end(), line);
}

#[test]
fn generated_attack_rows_round_trip_through_the_codec() {
    // Property: every journal row the domain generator can produce — all
    // four waveform classes, hostile floats, escaped strings — survives
    // encode→decode bit-identically. Corpus-replayed before fresh cases.
    swarm_testkit::check("campaign-store-attack-row-roundtrip", &journal_row(), |row| {
        let line = swarmfuzz::store::encode_row(row);
        let back = swarmfuzz::store::decode_row(line.trim_end())
            .map_err(|e| format!("decode failed: {e}"))?;
        tk_ensure!(row == &back, "row {row:?} decoded to {back:?}");
        Ok(())
    });
}

#[test]
fn zoo_campaign_runs_all_classes_end_to_end() {
    // `--attacks constant,drift,circular,jump` equivalent at the library
    // level: the full zoo campaign completes, journals, and resumes.
    let dir = tmp_dir("zoo-e2e");
    let path = dir.join("zoo.jsonl");
    let zoo_fuzzer = |d: f64| {
        let config = FuzzerConfig { eval_budget: 8, ..FuzzerConfig::swarmfuzz(d) }
            .with_waveforms(WaveformSet::all());
        Fuzzer::new(controller(), config)
    };
    let full = run_campaign_with_options(
        &tiny_campaign(2),
        zoo_fuzzer,
        &journal_options(&path, false),
        &Trace::off(),
    )
    .expect("zoo campaign");
    assert_eq!(full.missions.len(), 4);

    // Its journal resumes bit-identically, like any other campaign.
    kill_after(&path, 2);
    let resumed = run_campaign_with_options(
        &tiny_campaign(2),
        zoo_fuzzer,
        &journal_options(&path, true),
        &Trace::off(),
    )
    .expect("zoo resume");
    assert_eq!(full, resumed);

    // And its fingerprint differs from the constant-only campaign's, so the
    // two journal families can never be confused.
    let err = run_journaled(&tiny_campaign(2), &path, true, &Telemetry::off())
        .expect_err("constant-only resume must refuse a zoo journal");
    assert!(matches!(err, FuzzError::Journal(StoreError::FingerprintMismatch { .. })));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pinned_failed_row_journal_parses_with_full_error_context() {
    // Hand-written in the current on-disk format — this text stands in for
    // journals written by earlier builds and must keep parsing forever.
    // The failed row carries the rendered error and the retry count; both
    // must survive the read and surface in the error summary and dashboard.
    const PINNED: &str = concat!(
        "{\"journal\":\"swarmfuzz-campaign\",\"version\":1,",
        "\"fingerprint\":\"3136705a7e3a0631\",\"variant\":\"SwarmFuzz\"}\n",
        "{\"row\":\"done\",\"swarm_size\":3,\"index\":0,\"deviation\":5,",
        "\"mission_seed\":42,\"vdo\":3.5,\"success\":false,\"evaluations\":2,",
        "\"seeds_tried\":1,\"finding\":null}\n",
        "{\"row\":\"failed\",\"swarm_size\":4,\"index\":1,\"deviation\":10,",
        "\"retries\":2,\"error\":\"simulation diverged: NaN position at t=12.5 ",
        "(drone <3> \\\"scout\\\")\"}\n",
    );
    let dir = tmp_dir("pinned-failed");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pinned.jsonl");
    std::fs::write(&path, PINNED).unwrap();

    let contents = CampaignJournal::read(&path).expect("pinned journal must parse");
    assert_eq!(contents.fingerprint, "3136705a7e3a0631");
    assert_eq!(contents.rows.len(), 2);

    let report = swarmfuzz::campaign::report_from_rows(contents.rows);
    assert_eq!(report.missions.len(), 1);
    assert_eq!(report.failures.len(), 1);
    let failure = &report.failures[0];
    assert_eq!(failure.config, SwarmConfig { swarm_size: 4, deviation: 10.0 });
    assert_eq!(failure.index, 1);
    assert_eq!(failure.retries, 2);
    assert_eq!(failure.error, "simulation diverged: NaN position at t=12.5 (drone <3> \"scout\")");

    let summary = report.error_summary().expect("failures present");
    assert!(summary.contains("4d-10m index 1 (2 retries)"));
    assert!(summary.contains("NaN position at t=12.5"));

    let html = swarmfuzz::dashboard::render_dashboard(&report, &[], &[], "pinned");
    assert!(html.contains("Quarantined failures"));
    assert!(html.contains("NaN position at t=12.5"));
    assert!(html.contains("&lt;3&gt; &quot;scout&quot;"), "error context is HTML-escaped");
    std::fs::remove_dir_all(&dir).ok();
}
