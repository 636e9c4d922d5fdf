//! Extension experiment: does PageRank actually matter?
//!
//! The paper motivates PageRank over simpler centralities (§IV-B) but does
//! not measure the alternatives. This bench runs the full SwarmFuzz pipeline
//! with each centrality scoring the Swarm Vulnerability Graph and compares
//! success rates and iteration counts on the 10-drone / 10 m configuration.

use swarmfuzz::campaign::{CampaignConfig, SwarmConfig};
use swarmfuzz::report::write_csv;
use swarmfuzz::{CentralityKind, Fuzzer, FuzzerConfig};
use swarmfuzz_bench::{
    missions_per_config, paper_controller, percent, print_table, results_dir, run_with_progress,
    workers,
};

fn main() {
    let controller = paper_controller();
    let campaign = CampaignConfig {
        configs: vec![SwarmConfig { swarm_size: 10, deviation: 10.0 }],
        missions_per_config: missions_per_config(),
        base_seed: 0xC0FFEE,
        workers: workers(),
    };
    let config = campaign.configs[0];

    let kinds = [
        CentralityKind::PageRank,
        CentralityKind::Degree,
        CentralityKind::Eigenvector,
        CentralityKind::Closeness,
        CentralityKind::Betweenness,
    ];

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for kind in kinds {
        let report = run_with_progress(&campaign, |d| {
            let cfg = FuzzerConfig { centrality: kind, ..FuzzerConfig::swarmfuzz(d) };
            Fuzzer::new(controller, cfg)
        });
        let rate = report.success_rate(config).expect("missions ran");
        let iters = report.mean_iterations(config).expect("missions ran");
        rows.push(vec![format!("{kind:?}"), percent(rate), format!("{iters:.2}")]);
        csv_rows.push(vec![format!("{kind:?}"), format!("{rate:.4}"), format!("{iters:.3}")]);
    }
    print_table(
        "Centrality ablation (SVG scoring, 10 drones, 10 m spoofing)",
        &["centrality", "success", "avg iterations"],
        &rows,
    );
    println!(
        "\nthe paper argues PageRank's multi-hop influence handling fits the SVG best; \
         this bench quantifies the gap to the alternatives."
    );
    let path = results_dir().join("ablation_centrality.csv");
    write_csv(&path, &["centrality", "success_rate", "avg_iterations"], &csv_rows)
        .expect("write csv");
    println!("csv: {}", path.display());
}
