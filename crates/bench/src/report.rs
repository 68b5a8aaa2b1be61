//! Self-contained HTML report for one measured run.
//!
//! `bench report` renders a single HTML file (inline CSS + SVG, no
//! external assets — the workspace is offline) in the spirit of the
//! paper's Figures 2–3: per-node stacked execution-time bars, the
//! machine-wide latency-percentile table, per-node refetch-threshold
//! trajectories, free-pool depth sparklines, and the hottest pages by
//! capacity-refetch count.

use ascoma::result::RunResult;
use ascoma_obs::json::Json;
use ascoma_obs::metrics::MetricsRegistry;
use ascoma_sim::stats::ExecBreakdown;
use std::fmt::Write as _;

/// Fill colors for the six [`ExecBreakdown`] categories, in
/// [`ExecBreakdown::LABELS`] order.
const EXEC_COLORS: [&str; 6] = [
    "#d62728", "#9467bd", "#8c564b", "#1f77b4", "#2ca02c", "#ff7f0e",
];

/// Colors cycled across per-node trajectory polylines.
const LINE_COLORS: [&str; 8] = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
];

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Per-node stacked horizontal bars, widths normalized to the busiest
/// node (the paper's left-column stack, one bar per node).
fn exec_bars_svg(per_node: &[ExecBreakdown]) -> String {
    let denom = per_node.iter().map(ExecBreakdown::total).max().unwrap_or(1);
    let bar_h = 18;
    let gap = 6;
    let label_w = 70;
    let plot_w = 640.0;
    let h = per_node.len() * (bar_h + gap) + 30;
    let mut svg = format!(
        "<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" \
         xmlns=\"http://www.w3.org/2000/svg\" font-family=\"monospace\" font-size=\"11\">\n",
        w = label_w + plot_w as usize + 10,
    );
    for (n, e) in per_node.iter().enumerate() {
        let y = n * (bar_h + gap);
        let _ = write!(svg, "<text x=\"0\" y=\"{}\">node {n}</text>", y + bar_h - 4);
        let mut x = label_w as f64;
        for (i, frac) in e.normalized(denom).iter().enumerate() {
            let w = frac * plot_w;
            if w > 0.0 {
                let _ = write!(
                    svg,
                    "<rect x=\"{x:.1}\" y=\"{y}\" width=\"{w:.1}\" height=\"{bar_h}\" \
                     fill=\"{}\"><title>{}: {:.1}%</title></rect>",
                    EXEC_COLORS[i],
                    ExecBreakdown::LABELS[i],
                    frac * 100.0
                );
                x += w;
            }
        }
    }
    // Legend row.
    let ly = per_node.len() * (bar_h + gap) + 14;
    let mut lx = label_w;
    for (i, label) in ExecBreakdown::LABELS.iter().enumerate() {
        let _ = write!(
            svg,
            "<rect x=\"{lx}\" y=\"{}\" width=\"10\" height=\"10\" fill=\"{}\"/>\
             <text x=\"{}\" y=\"{}\">{label}</text>",
            ly - 9,
            EXEC_COLORS[i],
            lx + 14,
            ly
        );
        lx += 14 + 8 * label.len() + 16;
    }
    svg.push_str("</svg>\n");
    svg
}

/// Per-node step polylines of `(cycle, value)` series on a shared scale.
fn trajectories_svg(series: &[Vec<(u64, u64)>], x_max: u64) -> String {
    let w = 640.0;
    let h = 160.0;
    let y_max = series
        .iter()
        .flatten()
        .map(|&(_, v)| v)
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let x_max = x_max.max(1) as f64;
    let mut svg = format!(
        "<svg viewBox=\"0 0 {vw} {vh}\" width=\"{vw}\" height=\"{vh}\" \
         xmlns=\"http://www.w3.org/2000/svg\" font-family=\"monospace\" font-size=\"11\">\n\
         <rect x=\"0\" y=\"0\" width=\"{w}\" height=\"{h}\" fill=\"none\" stroke=\"#ccc\"/>\n\
         <text x=\"4\" y=\"12\">max {y_max}</text>\n",
        vw = w as usize + 10,
        vh = h as usize + 20,
    );
    for (n, s) in series.iter().enumerate() {
        if s.is_empty() {
            continue;
        }
        let mut pts = String::new();
        let mut last_y = h - s[0].1 as f64 / y_max * (h - 20.0) - 4.0;
        for &(cycle, value) in s {
            let x = cycle as f64 / x_max * w;
            let y = h - value as f64 / y_max * (h - 20.0) - 4.0;
            // Step line: hold the previous value until this cycle.
            let _ = write!(pts, "{x:.1},{last_y:.1} {x:.1},{y:.1} ");
            last_y = y;
        }
        let _ = write!(pts, "{w:.1},{last_y:.1}");
        let _ = writeln!(
            svg,
            "<polyline points=\"{pts}\" fill=\"none\" stroke=\"{}\" stroke-width=\"1.5\">\
             <title>node {n}</title></polyline>",
            LINE_COLORS[n % LINE_COLORS.len()]
        );
    }
    svg.push_str("</svg>\n");
    svg
}

/// Render the full report document.
///
/// Everything comes from the run itself: `result` for the execution
/// breakdown and threshold trajectories, `registry` for windowed series
/// and hot pages, and `result.metrics` (falling back to
/// `registry.digest()`) for the percentile table.  `hot_n` caps the
/// hot-page table.
pub fn render_html(result: &RunResult, registry: &MetricsRegistry, hot_n: usize) -> String {
    let digest = result.metrics.clone().unwrap_or_else(|| registry.digest());
    let title = format!(
        "{} on {} at {:.0}% pressure",
        result.workload,
        result.arch.name(),
        result.pressure * 100.0
    );
    let mut html = format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>{t}</title>\n\
         <style>\n\
         body {{ font-family: monospace; margin: 2em; max-width: 60em; }}\n\
         table {{ border-collapse: collapse; margin: 1em 0; }}\n\
         th, td {{ border: 1px solid #ccc; padding: 3px 10px; text-align: right; }}\n\
         th:first-child, td:first-child {{ text-align: left; }}\n\
         h2 {{ margin-top: 1.6em; }}\n\
         </style></head><body>\n<h1>{t}</h1>\n\
         <p>{cycles} cycles; {misses} shared misses; {msgs} network messages.</p>\n",
        t = esc(&title),
        cycles = result.cycles,
        misses = result.miss.total(),
        msgs = result.net_messages,
    );

    html.push_str("<h2>Execution time per node (Figures 2&ndash;3 stack)</h2>\n");
    if result.exec_per_node.is_empty() {
        html.push_str(&exec_bars_svg(std::slice::from_ref(&result.exec)));
    } else {
        html.push_str(&exec_bars_svg(&result.exec_per_node));
    }

    html.push_str(
        "<h2>Latency percentiles (cycles)</h2>\n<table>\n\
         <tr><th>series</th><th>count</th><th>p50</th><th>p95</th><th>p99</th>\
         <th>max</th><th>mean</th></tr>\n",
    );
    for h in &digest.hists {
        let s = h.stat;
        let mean = s.sum.checked_div(s.count).unwrap_or(0);
        let _ = writeln!(
            html,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td></tr>",
            esc(&h.name),
            s.count,
            s.p50,
            s.p95,
            s.p99,
            s.max,
            mean
        );
    }
    html.push_str("</table>\n");

    html.push_str("<h2>Refetch-threshold trajectories</h2>\n");
    let traj: Vec<Vec<(u64, u64)>> = result
        .threshold_trajectories
        .iter()
        .map(|t| t.iter().map(|s| (s.cycle, s.threshold as u64)).collect())
        .collect();
    html.push_str(&trajectories_svg(&traj, result.cycles));

    html.push_str("<h2>Free-pool depth (windowed)</h2>\n");
    let window = registry.window().max(1);
    let pool: Vec<Vec<(u64, u64)>> = registry
        .nodes()
        .iter()
        .map(|nm| {
            nm.free_pool
                .iter()
                .map(|p| (p.window * window, p.value))
                .collect()
        })
        .collect();
    html.push_str(&trajectories_svg(&pool, result.cycles));

    let _ = writeln!(
        html,
        "<h2>Hot pages (top {hot_n} by capacity refetches)</h2>"
    );
    let hot = registry.hot_pages(hot_n);
    if hot.is_empty() {
        html.push_str("<p>No capacity refetches recorded.</p>\n");
    } else {
        html.push_str("<table>\n<tr><th>node</th><th>page</th><th>refetches</th></tr>\n");
        for ((node, page), count) in hot {
            let _ = writeln!(
                html,
                "<tr><td>{node}</td><td>{page}</td><td>{count}</td></tr>"
            );
        }
        html.push_str("</table>\n");
    }

    html.push_str("<h2>Event counters</h2>\n<table>\n<tr><th>kind</th><th>count</th></tr>\n");
    for (k, v) in &digest.counters {
        let _ = writeln!(html, "<tr><td>{}</td><td>{v}</td></tr>", esc(k));
    }
    html.push_str("</table>\n</body></html>\n");
    html
}

/// Pull a numeric leaf out of a parsed soak summary, defaulting to 0.
fn soak_num(summary: &Json, key: &str) -> f64 {
    match summary {
        Json::Obj(m) => m
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                Json::Num(n) => Some(*n),
                _ => None,
            })
            .unwrap_or(0.0),
        _ => 0.0,
    }
}

/// Render the fault-soak summary (`model_check soak` JSON, DESIGN.md
/// §18) as a self-contained HTML page: the walk parameters, the
/// fault/recovery totals, and a horizontal bar per action kind.
pub fn render_soak_html(summary: &Json) -> String {
    let config = match summary {
        Json::Obj(m) => m
            .iter()
            .find(|(k, _)| k == "config")
            .and_then(|(_, v)| match v {
                Json::Str(s) => Some(s.clone()),
                _ => None,
            })
            .unwrap_or_default(),
        _ => String::new(),
    };
    let violations = soak_num(summary, "soak_violations");
    let mut html = format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n\
         <title>fault soak: {c}</title>\n\
         <style>\n\
         body {{ font-family: monospace; margin: 2em; max-width: 60em; }}\n\
         table {{ border-collapse: collapse; margin: 1em 0; }}\n\
         th, td {{ border: 1px solid #ccc; padding: 3px 10px; text-align: right; }}\n\
         th:first-child, td:first-child {{ text-align: left; }}\n\
         h2 {{ margin-top: 1.6em; }}\n\
         </style></head><body>\n<h1>Fault soak: {c}</h1>\n\
         <p>{walks} walks &times; {steps} steps (seed {seed}): {total} transitions, \
         {faults} faults injected, {rec} recoveries, \
         <strong>{viol} violation{s}</strong> ({ms} ms).</p>\n",
        c = esc(&config),
        walks = soak_num(summary, "walks"),
        steps = soak_num(summary, "steps_per_walk"),
        seed = soak_num(summary, "seed"),
        total = soak_num(summary, "soak_steps"),
        faults = soak_num(summary, "faults_injected"),
        rec = soak_num(summary, "recoveries"),
        viol = violations,
        s = if violations == 1.0 { "" } else { "s" },
        ms = soak_num(summary, "soak_wall_ms"),
    );
    html.push_str("<h2>Transitions by action kind</h2>\n");
    let kinds: Vec<(String, f64)> = match summary {
        Json::Obj(m) => m
            .iter()
            .find(|(k, _)| k == "kinds")
            .map(|(_, v)| match v {
                Json::Obj(km) => km
                    .iter()
                    .filter_map(|(k, v)| match v {
                        Json::Num(n) => Some((k.clone(), *n)),
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            })
            .unwrap_or_default(),
        _ => Vec::new(),
    };
    if kinds.is_empty() {
        html.push_str("<p>No transitions recorded.</p>\n");
    } else {
        let denom = kinds.iter().map(|(_, n)| *n).fold(1.0, f64::max);
        let row_h = 18;
        let h = kinds.len() * row_h + 4;
        let _ = writeln!(html, "<svg width=\"640\" height=\"{h}\">");
        for (i, (kind, n)) in kinds.iter().enumerate() {
            let y = i * row_h + 2;
            let w = (n / denom * 420.0).max(1.0);
            let color = if kind.starts_with("fault-") {
                "#d62728"
            } else if kind.starts_with("recover-") {
                "#2ca02c"
            } else {
                "#1f77b4"
            };
            let _ = writeln!(
                html,
                "<text x=\"150\" y=\"{ty}\" text-anchor=\"end\" font-size=\"11\">{k}</text>\
                 <rect x=\"156\" y=\"{y}\" width=\"{w:.0}\" height=\"{bh}\" fill=\"{color}\"/>\
                 <text x=\"{tx:.0}\" y=\"{ty}\" font-size=\"11\">{n}</text>",
                k = esc(kind),
                ty = y + row_h - 6,
                bh = row_h - 4,
                tx = 156.0 + w + 6.0,
            );
        }
        html.push_str("</svg>\n");
    }
    html.push_str("</body></html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascoma::machine::simulate_measured;
    use ascoma::SimConfig;
    use ascoma_workloads::{App, SizeClass};

    #[test]
    fn report_is_self_contained_html_with_svg() {
        let cfg = SimConfig::at_pressure(0.7);
        let trace = App::Em3d.build(SizeClass::Tiny, cfg.geometry.page_bytes());
        let (result, _events, registry) =
            simulate_measured(&trace, ascoma::Arch::AsComa, &cfg, 50_000);
        let html = render_html(&result, &registry, 10);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("miss_service/home"));
        assert!(html.contains("Latency percentiles"));
        assert!(html.ends_with("</body></html>\n"));
        // Self-contained: no external references.
        assert!(!html.contains("http://") || html.contains("www.w3.org"));
        assert!(!html.contains("<script"));
        assert!(!html.contains("<link"));
    }

    #[test]
    fn soak_report_renders_counters_and_kind_bars() {
        let summary = ascoma_obs::json::parse(
            r#"{"experiment":"fault_soak","config":"3n-2p-2b-4ops-ascoma-f3",
                "seed":7,"walks":100,"steps_per_walk":64,"soak_steps":3200,
                "faults_injected":300,"recoveries":250,"soak_violations":0,
                "soak_wall_ms":12,
                "kinds":{"complete":1200,"fault-crash":120,"recover-rejoin":120}}"#,
        )
        .unwrap();
        let html = render_soak_html(&summary);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("3n-2p-2b-4ops-ascoma-f3"));
        assert!(html.contains("300 faults injected"));
        assert!(html.contains("fault-crash"));
        assert!(html.contains("recover-rejoin"));
        assert!(html.contains("<svg"));
        assert!(html.ends_with("</body></html>\n"));
        assert!(!html.contains("<script"));
    }

    #[test]
    fn soak_report_degrades_on_empty_summary() {
        let html = render_soak_html(&Json::Obj(Vec::new()));
        assert!(html.contains("No transitions recorded"));
        assert!(html.ends_with("</body></html>\n"));
    }
}
