//! Aggregation and export of campaign results into the paper's tables and
//! figures.
//!
//! * [`success_rate_table`] — Table I rows;
//! * [`iteration_table`] — Table II rows;
//! * [`vdo_success_curve`] — the cumulative success-rate-vs-VDO curves of
//!   Fig. 6a–c;
//! * [`vdo_cdf`] — the VDO CDFs of Fig. 6d;
//! * [`spoof_param_stats`] — the spoofing-window statistics of Fig. 7;
//! * [`write_csv`] — plain CSV export used by the bench harness.

use std::path::Path;

use swarm_math::stats::{cumulative_rate_by_threshold, Ecdf};

use crate::campaign::{CampaignReport, MissionResult, SwarmConfig};

/// One row of Table I / Table II: the metric per configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigMetric {
    /// The configuration.
    pub config: SwarmConfig,
    /// The aggregated value (success rate in `[0, 1]`, or mean iterations).
    pub value: f64,
    /// Number of missions behind the aggregate.
    pub missions: usize,
}

/// Success rate per configuration (Table I).
pub fn success_rate_table(report: &CampaignReport, configs: &[SwarmConfig]) -> Vec<ConfigMetric> {
    configs
        .iter()
        .filter_map(|&config| {
            report.success_rate(config).map(|value| ConfigMetric {
                config,
                value,
                missions: report.for_config(config).len(),
            })
        })
        .collect()
}

/// Mean search iterations per configuration (Table II).
pub fn iteration_table(report: &CampaignReport, configs: &[SwarmConfig]) -> Vec<ConfigMetric> {
    configs
        .iter()
        .filter_map(|&config| {
            report.mean_iterations(config).map(|value| ConfigMetric {
                config,
                value,
                missions: report.for_config(config).len(),
            })
        })
        .collect()
}

/// Cumulative success rate vs. VDO threshold (Fig. 6a–c): for each threshold
/// `x`, the success rate over missions whose VDO ≤ `x`.
pub fn vdo_success_curve(rows: &[&MissionResult], thresholds: &[f64]) -> Vec<(f64, Option<f64>)> {
    let data: Vec<(f64, bool)> = rows.iter().map(|m| (m.vdo, m.success)).collect();
    cumulative_rate_by_threshold(&data, thresholds)
}

/// Empirical CDF of mission VDOs (Fig. 6d).
pub fn vdo_cdf(rows: &[&MissionResult]) -> Ecdf {
    Ecdf::new(rows.iter().map(|m| m.vdo).collect())
}

/// Spoofing-window statistics for successful missions (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpoofParamStats {
    /// Number of successful findings aggregated.
    pub count: usize,
    /// Mean spoofing start time `t_s`.
    pub mean_start: f64,
    /// Mean spoofing duration `Δt`.
    pub mean_duration: f64,
    /// Minimum / maximum start time.
    pub start_range: (f64, f64),
    /// Minimum / maximum duration.
    pub duration_range: (f64, f64),
}

/// Aggregates the spoofing windows of all successful findings in `rows`
/// (`None` when there are no successes).
pub fn spoof_param_stats(rows: &[&MissionResult]) -> Option<SpoofParamStats> {
    let findings: Vec<_> = rows.iter().filter_map(|m| m.finding.as_ref()).collect();
    if findings.is_empty() {
        return None;
    }
    let starts: Vec<f64> = findings.iter().map(|f| f.start).collect();
    let durations: Vec<f64> = findings.iter().map(|f| f.duration).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let range = |v: &[f64]| {
        v.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
    };
    Some(SpoofParamStats {
        count: findings.len(),
        mean_start: mean(&starts),
        mean_duration: mean(&durations),
        start_range: range(&starts),
        duration_range: range(&durations),
    })
}

/// RFC-4180 field quoting: fields containing a comma, double quote or line
/// break are wrapped in quotes with embedded quotes doubled; everything
/// else passes through unchanged.
fn csv_field(field: &str) -> std::borrow::Cow<'_, str> {
    if !field.contains(['"', ',', '\n', '\r']) {
        return std::borrow::Cow::Borrowed(field);
    }
    let mut out = String::with_capacity(field.len() + 2);
    out.push('"');
    for ch in field.chars() {
        if ch == '"' {
            out.push('"');
        }
        out.push(ch);
    }
    out.push('"');
    std::borrow::Cow::Owned(out)
}

fn csv_line(out: &mut String, fields: impl Iterator<Item = impl AsRef<str>>) {
    for (i, field) in fields.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&csv_field(field.as_ref()));
    }
    out.push('\n');
}

/// Writes rows of `(label, values...)` as a CSV file with a header.
///
/// Fields are quoted per RFC 4180 when they contain a comma, quote or line
/// break (a label like `olfati-saber, tuned` used to corrupt its row), and
/// the file lands via [`crate::store::atomic_write`] — a crash mid-export
/// never leaves a truncated CSV behind.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_csv(path: &Path, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    let mut out = String::new();
    csv_line(&mut out, header.iter());
    for row in rows {
        csv_line(&mut out, row.iter());
    }
    crate::store::atomic_write(path, &out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::MissionResult;
    use crate::fuzzer::SpvFinding;
    use crate::seed::Seed;
    use swarm_sim::spoof::{SpoofDirection, Waveform, WaveformKind};
    use swarm_sim::DroneId;

    fn cfg(n: usize) -> SwarmConfig {
        SwarmConfig { swarm_size: n, deviation: 10.0 }
    }

    fn finding(start: f64, duration: f64) -> SpvFinding {
        SpvFinding {
            seed: Seed {
                target: DroneId(0),
                victim: DroneId(1),
                direction: SpoofDirection::Right,
                influence: 0.1,
                victim_vdo: 2.0,
                waveform: WaveformKind::Constant,
            },
            start,
            duration,
            deviation: 10.0,
            actual_victim: DroneId(1),
            collision_time: 40.0,
            waveform: Waveform::Constant,
        }
    }

    fn mission(config: SwarmConfig, vdo: f64, success: bool, evals: usize) -> MissionResult {
        MissionResult {
            config,
            mission_seed: 0,
            vdo,
            success,
            finding: success.then(|| finding(10.0, 12.0)),
            evaluations: evals,
            seeds_tried: 1,
        }
    }

    #[test]
    fn tables_aggregate_per_config() {
        let report = CampaignReport {
            missions: vec![
                mission(cfg(5), 1.0, true, 4),
                mission(cfg(5), 5.0, false, 20),
                mission(cfg(10), 0.5, true, 8),
            ],
            failures: Vec::new(),
        };
        let t1 = success_rate_table(&report, &[cfg(5), cfg(10), cfg(15)]);
        assert_eq!(t1.len(), 2, "configs without missions are dropped");
        assert_eq!(t1[0].value, 0.5);
        assert_eq!(t1[1].value, 1.0);
        let t2 = iteration_table(&report, &[cfg(5)]);
        assert_eq!(t2[0].value, 12.0);
        assert_eq!(t2[0].missions, 2);
    }

    #[test]
    fn vdo_curve_decreasing_thresholds() {
        let m1 = mission(cfg(5), 1.0, true, 4);
        let m2 = mission(cfg(5), 5.0, false, 20);
        let rows = vec![&m1, &m2];
        let curve = vdo_success_curve(&rows, &[2.0, 6.0]);
        assert_eq!(curve[0].1, Some(1.0), "only the low-VDO success qualifies at 2 m");
        assert_eq!(curve[1].1, Some(0.5));
    }

    #[test]
    fn vdo_cdf_from_rows() {
        let m1 = mission(cfg(5), 1.0, true, 4);
        let m2 = mission(cfg(5), 3.0, false, 20);
        let rows = vec![&m1, &m2];
        let cdf = vdo_cdf(&rows);
        assert_eq!(cdf.eval(2.0), 0.5);
    }

    #[test]
    fn spoof_stats_only_over_successes() {
        let m1 = mission(cfg(5), 1.0, true, 4);
        let m2 = mission(cfg(5), 3.0, false, 20);
        let rows = vec![&m1, &m2];
        let stats = spoof_param_stats(&rows).unwrap();
        assert_eq!(stats.count, 1);
        assert_eq!(stats.mean_start, 10.0);
        assert_eq!(stats.mean_duration, 12.0);

        let no_rows: Vec<&MissionResult> = vec![&m2];
        assert!(spoof_param_stats(&no_rows).is_none());
    }

    #[test]
    fn csv_writer_produces_header_and_rows() {
        let dir = std::env::temp_dir().join("swarmfuzz-report-test");
        let path = dir.join("t.csv");
        write_csv(&path, &["a", "b"], &[vec!["1".into(), "2".into()]]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: unquoted fields meant a label containing a comma shifted
    /// every following column of its row.
    #[test]
    fn csv_writer_quotes_special_fields() {
        let dir = std::env::temp_dir().join("swarmfuzz-report-quoting-test");
        let path = dir.join("q.csv");
        write_csv(
            &path,
            &["label", "value"],
            &[
                vec!["olfati-saber, tuned".into(), "1".into()],
                vec!["say \"hi\"".into(), "2".into()],
                vec!["two\nlines".into(), "3".into()],
                vec!["plain".into(), "4".into()],
            ],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.split('\n').collect();
        assert_eq!(lines[0], "label,value");
        assert_eq!(lines[1], "\"olfati-saber, tuned\",1");
        assert_eq!(lines[2], "\"say \"\"hi\"\"\",2");
        // The embedded newline stays inside one quoted field.
        assert_eq!(lines[3], "\"two");
        assert_eq!(lines[4], "lines\",3");
        assert_eq!(lines[5], "plain,4");
        std::fs::remove_dir_all(&dir).ok();
    }
}
