//! Self-contained HTML campaign dashboard.
//!
//! [`render_dashboard`] turns a [`CampaignReport`] (typically rebuilt from a
//! journal) plus the campaign's trace records into one HTML file with zero
//! external assets — styles are inline, plots are inline SVG, and nothing
//! references a URL — so the artifact can be archived next to the journal,
//! attached to CI runs, and opened offline.
//!
//! Sections:
//!
//! * headline counters (missions, SPVs, failures, probes, fork hits/misses,
//!   retries, resume skips);
//! * per-configuration success-rate and mean-iteration tables (the paper's
//!   Table I / Table II views);
//! * per-attack-class findings table;
//! * search-effort breakdown: the trace replayed into a
//!   [`Telemetry`] counting sink, the same fold a live run counts with (the
//!   trace carries logical time only, so the dashboard reports effort in
//!   probes and events, never wall-clock);
//! * per-mission search trajectories (objective value vs. probe index);
//! * quarantined failures with their journaled error context.

use std::collections::BTreeMap;

use crate::campaign::{CampaignReport, SwarmConfig};
use crate::report::{iteration_table, success_rate_table};
use crate::telemetry::{Counter, Telemetry};
use crate::trace::{sort_records, TraceEvent, TraceKey, TraceRecord, TraceSink};

/// Escapes text for HTML (also sufficient for attribute values in quotes).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(ch),
        }
    }
    out
}

/// Missions plotted in the trajectory section; bounds the artifact size for
/// paper-scale campaigns (600 missions would otherwise mean 600 plots).
const MAX_TRAJECTORIES: usize = 12;

/// One mission's probe history, extracted from the trace.
struct Trajectory {
    name: String,
    values: Vec<f64>,
    success: bool,
}

fn trajectories(records: &[TraceRecord]) -> Vec<Trajectory> {
    let mut sorted = records.to_vec();
    sort_records(&mut sorted);
    let mut by_scope: BTreeMap<(u64, u64, u64), (Vec<f64>, bool)> = BTreeMap::new();
    for r in &sorted {
        let scope = (r.key.swarm_size, r.key.deviation_bits, r.key.index);
        if scope.0 == 0 || scope.0 == u64::MAX {
            continue;
        }
        match &r.event {
            TraceEvent::Probe { value, .. } => {
                by_scope.entry(scope).or_default().0.push(*value);
            }
            TraceEvent::MissionDone { success: true, .. } => {
                by_scope.entry(scope).or_default().1 = true;
            }
            _ => {}
        }
    }
    by_scope
        .into_iter()
        .filter(|(_, (values, _))| !values.is_empty())
        .map(|((s, db, i), (values, success))| Trajectory {
            name: TraceKey { swarm_size: s, deviation_bits: db, index: i, seq: 0 }.scope_name(),
            values,
            success,
        })
        .collect()
}

/// Inline SVG line plot of one mission's objective values. The y axis is the
/// objective (victim distance to obstacle, lower is closer to a crash); x is
/// the probe index. Non-finite probes are pinned to the top of the plot.
fn svg_trajectory(t: &Trajectory) -> String {
    let (w, h, pad) = (320.0, 110.0, 8.0);
    let finite: Vec<f64> = t.values.iter().copied().filter(|v| v.is_finite()).collect();
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min).min(0.0);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max).max(lo + 1.0);
    let span = (hi - lo).max(f64::EPSILON);
    let n = t.values.len();
    let x_of = |i: usize| {
        if n <= 1 {
            w / 2.0
        } else {
            pad + (w - 2.0 * pad) * i as f64 / (n - 1) as f64
        }
    };
    let y_of = |v: f64| {
        let v = if v.is_finite() { v } else { hi };
        let frac = (v - lo) / span;
        h - pad - (h - 2.0 * pad) * frac
    };
    let points: Vec<String> = t
        .values
        .iter()
        .enumerate()
        .map(|(i, &v)| format!("{:.1},{:.1}", x_of(i), y_of(v)))
        .collect();
    let zero_y = y_of(0.0);
    let stroke = if t.success { "#2f855a" } else { "#2b6cb0" };
    let mut svg = format!(
        "<svg width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\" role=\"img\" \
         aria-label=\"{}\">",
        esc(&t.name)
    );
    svg.push_str(&format!(
        "<rect x=\"0\" y=\"0\" width=\"{w}\" height=\"{h}\" fill=\"#f7fafc\" stroke=\"#cbd5e0\"/>"
    ));
    // The collision threshold (objective = 0).
    svg.push_str(&format!(
        "<line x1=\"{pad}\" y1=\"{zero_y:.1}\" x2=\"{:.1}\" y2=\"{zero_y:.1}\" \
         stroke=\"#e53e3e\" stroke-dasharray=\"4 3\"/>",
        w - pad
    ));
    if points.len() == 1 {
        svg.push_str(&format!(
            "<circle cx=\"{}\" cy=\"{}\" r=\"2.5\" fill=\"{stroke}\"/>",
            points[0].split(',').next().unwrap_or("0"),
            points[0].split(',').nth(1).unwrap_or("0"),
        ));
    } else {
        svg.push_str(&format!(
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{stroke}\" stroke-width=\"1.5\"/>",
            points.join(" ")
        ));
    }
    svg.push_str("</svg>");
    svg
}

fn card(out: &mut String, label: &str, value: String) {
    out.push_str(&format!(
        "<div class=\"card\"><div class=\"v\">{}</div><div class=\"l\">{}</div></div>",
        esc(&value),
        esc(label)
    ));
}

fn bar_row(out: &mut String, label: &str, value: u64, max: u64) {
    let pct = if max == 0 { 0.0 } else { value as f64 / max as f64 * 100.0 };
    out.push_str(&format!(
        "<tr><td>{}</td><td class=\"num\">{value}</td>\
         <td class=\"barcell\"><div class=\"bar\" style=\"width:{pct:.1}%\"></div></td></tr>",
        esc(label)
    ));
}

/// Renders the dashboard. `configs` fixes the row order of the
/// per-configuration tables (pass the campaign grid); `records` may be empty
/// (journal-only dashboards skip the trace-derived sections).
pub fn render_dashboard(
    report: &CampaignReport,
    configs: &[SwarmConfig],
    records: &[TraceRecord],
    title: &str,
) -> String {
    let counts = Telemetry::enabled(1);
    for r in records {
        counts.record(r);
    }
    let count = |c: Counter| counts.counter(c);
    let successes = report.missions.iter().filter(|m| m.success).count();

    let mut html = String::with_capacity(16 * 1024);
    html.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    html.push_str(&format!("<title>{}</title>\n", esc(title)));
    html.push_str(
        "<style>\n\
         body{font-family:system-ui,sans-serif;margin:24px;color:#1a202c;background:#fff}\n\
         h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:1.6em;\
         border-bottom:1px solid #e2e8f0;padding-bottom:.2em}\n\
         table{border-collapse:collapse;margin:.5em 0}\n\
         td,th{border:1px solid #e2e8f0;padding:.25em .6em;text-align:left}\n\
         td.num{text-align:right;font-variant-numeric:tabular-nums}\n\
         .cards{display:flex;flex-wrap:wrap;gap:10px}\n\
         .card{border:1px solid #e2e8f0;border-radius:6px;padding:.5em .9em;min-width:90px}\n\
         .card .v{font-size:1.3rem;font-weight:600}.card .l{font-size:.75rem;color:#4a5568}\n\
         .plots{display:flex;flex-wrap:wrap;gap:12px}\n\
         .plot{border:1px solid #e2e8f0;border-radius:6px;padding:6px}\n\
         .plot .t{font-size:.8rem;color:#4a5568;margin-bottom:4px}\n\
         td.barcell{min-width:220px;border-left:none}\n\
         .bar{background:#2b6cb0;height:.8em;border-radius:2px}\n\
         .err{color:#c53030;font-family:monospace;white-space:pre-wrap}\n\
         footer{margin-top:2em;color:#718096;font-size:.75rem}\n\
         </style>\n</head>\n<body>\n",
    );
    html.push_str(&format!("<h1>{}</h1>\n", esc(title)));

    // Headline counters.
    html.push_str("<div class=\"cards\">");
    card(&mut html, "missions", report.missions.len().to_string());
    card(&mut html, "SPVs found", successes.to_string());
    let rate = if report.missions.is_empty() {
        "-".to_string()
    } else {
        format!("{:.0}%", successes as f64 / report.missions.len() as f64 * 100.0)
    };
    card(&mut html, "success rate", rate);
    card(&mut html, "failures", report.failures.len().to_string());
    if !records.is_empty() {
        card(&mut html, "probes", count(Counter::Evaluations).to_string());
        card(&mut html, "fork hits", count(Counter::ForkHits).to_string());
        card(&mut html, "fork misses", count(Counter::ForkMisses).to_string());
        card(&mut html, "retries", count(Counter::MissionRetries).to_string());
        card(&mut html, "resume skips", count(Counter::ResumeSkips).to_string());
    }
    html.push_str("</div>\n");

    // Per-configuration tables.
    html.push_str("<h2>Per-configuration results</h2>\n");
    html.push_str(
        "<table><tr><th>config</th><th>missions</th><th>success rate</th>\
         <th>mean iterations</th></tr>\n",
    );
    let rates = success_rate_table(report, configs);
    let iters = iteration_table(report, configs);
    for (rate, iter) in rates.iter().zip(iters.iter()) {
        html.push_str(&format!(
            "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{:.1}%</td>\
             <td class=\"num\">{:.2}</td></tr>\n",
            esc(&rate.config.to_string()),
            rate.missions,
            rate.value * 100.0,
            iter.value,
        ));
    }
    html.push_str("</table>\n");

    // Per-attack-class findings.
    html.push_str("<h2>Findings per attack class</h2>\n");
    let mut by_class: BTreeMap<&'static str, usize> = BTreeMap::new();
    for m in &report.missions {
        if let Some(f) = &m.finding {
            *by_class.entry(f.waveform.kind().name()).or_default() += 1;
        }
    }
    if by_class.is_empty() {
        html.push_str("<p>No SPVs found.</p>\n");
    } else {
        html.push_str("<table><tr><th>attack class</th><th>SPVs</th></tr>\n");
        for (class, n) in &by_class {
            html.push_str(&format!("<tr><td>{}</td><td class=\"num\">{n}</td></tr>\n", esc(class)));
        }
        html.push_str("</table>\n");
    }

    // Search-effort breakdown (trace-derived, logical units).
    if !records.is_empty() {
        html.push_str("<h2>Search effort (trace events)</h2>\n");
        html.push_str(
            "<p>The trace carries logical time only, so effort is reported in \
             events, not wall-clock.</p>\n<table>\n",
        );
        let rows: [(&str, u64); 7] = [
            ("baselines simulated", count(Counter::MissionsRun)),
            ("baselines rejected (collision)", count(Counter::BaselineSkips)),
            ("seeds ranked", count(Counter::SeedsRanked)),
            ("seeds searched", count(Counter::SeedsTried)),
            ("window probes", count(Counter::Evaluations)),
            ("gradient steps", count(Counter::GradientSteps)),
            ("journal appends", count(Counter::JournalAppends)),
        ];
        let max = rows.iter().map(|&(_, v)| v).max().unwrap_or(0);
        for (label, value) in rows {
            bar_row(&mut html, label, value, max);
        }
        html.push_str("</table>\n");
    }

    // Search trajectories.
    let trajs = trajectories(records);
    if !trajs.is_empty() {
        html.push_str("<h2>Search trajectories</h2>\n");
        html.push_str(
            "<p>Objective value (victim distance to obstacle, m) per probe; the \
             dashed line is the collision threshold. Green: SPV found.</p>\n",
        );
        if trajs.len() > MAX_TRAJECTORIES {
            html.push_str(&format!(
                "<p>Showing the first {MAX_TRAJECTORIES} of {} missions.</p>\n",
                trajs.len()
            ));
        }
        html.push_str("<div class=\"plots\">\n");
        for t in trajs.iter().take(MAX_TRAJECTORIES) {
            html.push_str(&format!(
                "<div class=\"plot\"><div class=\"t\">{} · {} probes</div>{}</div>\n",
                esc(&t.name),
                t.values.len(),
                svg_trajectory(t)
            ));
        }
        html.push_str("</div>\n");
    }

    // Quarantined failures with their journaled error context.
    if !report.failures.is_empty() {
        html.push_str("<h2>Quarantined failures</h2>\n");
        html.push_str(
            "<table><tr><th>config</th><th>index</th><th>retries</th><th>error</th></tr>\n",
        );
        for f in &report.failures {
            html.push_str(&format!(
                "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
                 <td class=\"err\">{}</td></tr>\n",
                esc(&f.config.to_string()),
                f.index,
                f.retries,
                esc(&f.error)
            ));
        }
        html.push_str("</table>\n");
    }

    html.push_str(
        "<footer>generated by swarmfuzz dashboard · self-contained, no external assets</footer>\n",
    );
    html.push_str("</body>\n</html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{MissionFailure, MissionResult};
    use crate::trace::TraceKey;

    fn sample_report() -> CampaignReport {
        let config = SwarmConfig { swarm_size: 5, deviation: 10.0 };
        CampaignReport {
            missions: vec![MissionResult {
                config,
                mission_seed: 7,
                vdo: 2.5,
                success: false,
                finding: None,
                evaluations: 9,
                seeds_tried: 2,
            }],
            failures: vec![MissionFailure {
                config,
                index: 3,
                error: "sim diverged: <nan> & \"chaos\"".into(),
                retries: 2,
            }],
        }
    }

    fn sample_records() -> Vec<TraceRecord> {
        let key =
            |seq| TraceKey { swarm_size: 5, deviation_bits: 10.0f64.to_bits(), index: 0, seq };
        vec![
            TraceRecord {
                key: key(0),
                event: TraceEvent::Probe {
                    ts: 1.0,
                    dt: 2.0,
                    shape: None,
                    value: 5.0,
                    success: false,
                    fork: Some(true),
                },
            },
            TraceRecord {
                key: key(1),
                event: TraceEvent::Probe {
                    ts: 2.0,
                    dt: 2.0,
                    shape: None,
                    value: f64::INFINITY,
                    success: false,
                    fork: None,
                },
            },
            TraceRecord {
                key: key(2),
                event: TraceEvent::Probe {
                    ts: 3.0,
                    dt: 2.0,
                    shape: None,
                    value: -0.5,
                    success: true,
                    fork: Some(false),
                },
            },
            TraceRecord {
                key: key(3),
                event: TraceEvent::MissionDone { success: true, evaluations: 3, seeds_tried: 1 },
            },
        ]
    }

    #[test]
    fn dashboard_is_self_contained_html() {
        let report = sample_report();
        let configs = [SwarmConfig { swarm_size: 5, deviation: 10.0 }];
        let html = render_dashboard(&report, &configs, &sample_records(), "test campaign");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>\n"));
        assert!(html.contains("<svg"), "trajectory plots must be inline SVG");
        assert!(!html.contains("http"), "no external assets or URLs allowed");
        assert!(html.contains("5d-10m"), "config rows present");
    }

    #[test]
    fn dashboard_escapes_error_context() {
        let report = sample_report();
        let html = render_dashboard(&report, &[], &[], "t");
        assert!(html.contains("&lt;nan&gt; &amp; &quot;chaos&quot;"));
        assert!(!html.contains("<nan>"));
    }

    #[test]
    fn dashboard_without_trace_skips_trace_sections() {
        let report = sample_report();
        let html = render_dashboard(&report, &[], &[], "t");
        assert!(!html.contains("Search trajectories"));
        assert!(!html.contains("Search effort"));
        assert!(html.contains("Quarantined failures"));
    }

    #[test]
    fn trajectory_plot_handles_non_finite_values() {
        let t = Trajectory {
            name: "5d-10m #0".into(),
            values: vec![5.0, f64::INFINITY, f64::NAN, -1.0],
            success: true,
        };
        let svg = svg_trajectory(&t);
        assert!(svg.contains("<polyline"));
        assert!(!svg.contains("inf") && !svg.contains("NaN"), "coords must stay finite: {svg}");
    }
}
