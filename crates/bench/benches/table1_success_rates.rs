//! Regenerates **Table I** of the paper: SwarmFuzz's success rate in finding
//! SPVs across the six swarm configurations ({5, 10, 15} drones × {5, 10} m
//! spoofing), then extends it beyond the paper with a per-attack-class
//! success-rate table over the waveform zoo (constant / drift / circular /
//! jump), one single-class campaign per waveform. The `constant` row reuses
//! Table I's campaign, which already spoofs with the constant class only.
//!
//! Paper values for reference:
//!
//! | spoofing | 5 drones | 10 drones | 15 drones |
//! |----------|----------|-----------|-----------|
//! | 5 m      | 21%      | 36%       | 54%       |
//! | 10 m     | 49%      | 59%       | 74%       |
//!
//! Expected shape (not absolute values): success increases with swarm size
//! and with spoofing distance.
//!
//! Pass `--smoke` for the CI mode: a single tiny configuration with a small
//! eval budget, exercising all four attack classes end-to-end in seconds
//! and skipping the full Table I campaign (so it flies the `constant` row
//! too).

use swarm_sim::spoof::{WaveformKind, WaveformSet};
use swarmfuzz::campaign::{CampaignConfig, CampaignReport, SwarmConfig};
use swarmfuzz::report::{success_rate_table, write_csv};
use swarmfuzz::{Fuzzer, FuzzerConfig};
use swarmfuzz_bench::{
    paper_campaign, paper_campaign_report, paper_configs, paper_controller, percent, print_table,
    results_dir, run_with_progress, workers,
};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let table1 = (!smoke).then(paper_table1);
    attack_class_table(table1.as_ref());
}

/// Flies the paper campaign, prints and writes Table I, and returns the
/// campaign's report.
fn paper_table1() -> CampaignReport {
    let report = paper_campaign_report();
    let configs = paper_configs();
    let table = success_rate_table(&report, &configs);

    let mut rows = Vec::new();
    for &deviation in &[5.0, 10.0] {
        let mut row = vec![format!("{deviation:.0}m spoofing")];
        for &n in &[5usize, 10, 15] {
            let cell = table
                .iter()
                .find(|m| m.config.swarm_size == n && m.config.deviation == deviation)
                .map(|m| percent(m.value))
                .unwrap_or_else(|| "-".into());
            row.push(cell);
        }
        rows.push(row);
    }
    print_table(
        "Table I: success rates of SwarmFuzz in finding SPVs",
        &["", "5 drones", "10 drones", "15 drones"],
        &rows,
    );
    let avg = table.iter().map(|m| m.value).sum::<f64>() / table.len() as f64;
    println!("average success rate: {} (paper: 48.8%)", percent(avg));
    println!("paper Table I:        5m: 21/36/54%   10m: 49/59/74%");

    let csv_rows: Vec<Vec<String>> = table
        .iter()
        .map(|m| {
            vec![
                m.config.swarm_size.to_string(),
                m.config.deviation.to_string(),
                format!("{:.4}", m.value),
                m.missions.to_string(),
            ]
        })
        .collect();
    let path = results_dir().join("table1_success_rates.csv");
    write_csv(&path, &["swarm_size", "deviation_m", "success_rate", "missions"], &csv_rows)
        .expect("write table1 csv");
    println!("csv: {}", path.display());
    report
}

/// Per-attack-class success rates: one campaign per waveform class, same
/// seeds and grid, so the rates are directly comparable across classes.
/// Given Table I's report, the `constant` row reads it instead of flying
/// the same campaign again; without it (`--smoke`) every class flies.
fn attack_class_table(table1: Option<&CampaignReport>) {
    let smoke = table1.is_none();
    let campaign = if smoke {
        CampaignConfig {
            configs: vec![SwarmConfig { swarm_size: 5, deviation: 10.0 }],
            missions_per_config: 2,
            base_seed: 0xC0FFEE,
            workers: workers(),
        }
    } else {
        paper_campaign()
    };
    let eval_budget = if smoke { 4 } else { FuzzerConfig::swarmfuzz(10.0).eval_budget };
    let missions = campaign.configs.len() * campaign.missions_per_config;

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for kind in WaveformKind::ALL {
        let flown;
        let report = match table1 {
            Some(report) if kind == WaveformKind::Constant => report,
            _ => {
                let set = WaveformSet::parse(kind.name()).expect("class names parse");
                let make = move |deviation: f64| {
                    let config = FuzzerConfig { eval_budget, ..FuzzerConfig::swarmfuzz(deviation) }
                        .with_waveforms(set);
                    Fuzzer::new(paper_controller(), config)
                };
                eprintln!("[bench] attack class {kind}: {missions} missions");
                flown = run_with_progress(&campaign, make);
                &flown
            }
        };
        let successes = report.missions.iter().filter(|m| m.success).count();
        let rate = successes as f64 / report.missions.len().max(1) as f64;
        let evals: usize = report.missions.iter().map(|m| m.evaluations).sum();
        rows.push(vec![
            kind.to_string(),
            percent(rate),
            successes.to_string(),
            report.missions.len().to_string(),
            evals.to_string(),
        ]);
        csv_rows.push(vec![
            kind.to_string(),
            format!("{rate:.4}"),
            successes.to_string(),
            report.missions.len().to_string(),
            evals.to_string(),
        ]);
    }
    print_table(
        "Attack-class success rates (single-class campaigns, shared seeds)",
        &["class", "success", "spvs", "missions", "evaluations"],
        &rows,
    );
    let name = if smoke {
        "attack_class_success_rates_smoke.csv"
    } else {
        "attack_class_success_rates.csv"
    };
    let path = results_dir().join(name);
    write_csv(&path, &["class", "success_rate", "spvs", "missions", "evaluations"], &csv_rows)
        .expect("write attack-class csv");
    println!("csv: {}", path.display());
}
