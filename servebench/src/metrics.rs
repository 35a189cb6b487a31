//! The metric catalogue — the names later changes claim gains against —
//! and the small statistics the report needs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::workloads::{self, Kind};

/// Seconds one run measures (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 30;

/// One metric: name, unit, which direction is better, and — for the
/// end-to-end metrics `BENCHMARK.json` gates on — the share of the
/// parent commit's median by which it may worsen.
#[derive(Debug, Clone)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> Def {
    Def { name: name.to_string(), unit, better, bound }
}

/// The nine end-to-end metrics. Only those with a bound are gated (listed
/// under `end_to_end` in `BENCHMARK.json`); the rest are printed by every run and reported with `--trace
/// 1`. Ungated, because the gate needs metrics that are never 0 and whose
/// run-to-run spread stays inside a bound of at most 0.25:
/// - `latency_p50_us`, `latency_p99_us`: on a 2-vCPU virtual machine,
///   bursts of host CPU steal lasting whole runs moved them by 30–130%
///   (interquartile range over 10 seeds), while quiet periods gave 6–11%;
/// - `error_rate`, `wrong_answers`: 0 on a healthy run (gated as `failed`
///   and `correct` instead);
/// - `approx_ratio_mean`: exactly 1 whenever every approximate cut is
///   optimal, which is every seed tried;
/// - `disk_bytes_per_op`: 0 off `storm`.
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("ops_per_s", "ops/s", "higher", Some(0.25)),
        def("latency_p50_us", "us", "lower", None),
        def("latency_p99_us", "us", "lower", None),
        def("approx_ratio_mean", "ratio", "lower", None),
        def("setup_s", "s", "lower", Some(0.25)),
        def("peak_rss_mb", "MiB", "lower", Some(0.10)),
        def("error_rate", "ratio", "lower", None),
        def("wrong_answers", "count", "lower", None),
        def("disk_bytes_per_op", "B/op", "lower", None),
    ]
}

/// `Request::kind` labels whose `engine.execute` time is split out.
pub const EXECUTE_KINDS: [&str; 9] = [
    "approx-min-cut",
    "exact-min-cut",
    "singleton-cut",
    "k-cut",
    "st-cut",
    "connectivity",
    "insert-edge",
    "delete-edge",
    "contract",
];

/// Phases of the Algorithm 1 mirror (`core.approx.<phase>` spans).
pub const APPROX_PHASES: [&str; 6] =
    ["priorities", "singleton", "side", "contract", "base_case", "lift"];

/// Per-layer metrics, grouped by crate. Every time carries its call
/// count and every ratio its base.
pub fn per_layer() -> Vec<Def> {
    let mut out = vec![
        def("wire.codec_us_per_op", "us", "lower", None),
        def("wire.codec_ops", "count", "higher", None),
        def("wire.overhead_us_per_op", "us", "lower", None),
        def("shard.busy_max_share", "ratio", "lower", None),
        def("shard.serve_ms_total", "ms", "lower", None),
    ];
    for kind in EXECUTE_KINDS {
        out.push(def(&format!("engine.execute_ms.{kind}"), "ms", "lower", None));
        out.push(def(&format!("engine.execute_calls.{kind}"), "count", "higher", None));
    }
    out.extend([
        def("engine.cache_hit_rate", "ratio", "higher", None),
        def("engine.queries", "count", "higher", None),
        def("engine.certified_skips", "count", "higher", None),
        def("engine.gated_cut_misses", "count", "lower", None),
        def("index.csr_builds", "count", "lower", None),
        def("index.csr_reuse_rate", "ratio", "higher", None),
        def("index.csr_reads", "count", "higher", None),
        def("index.csr_build_us", "us", "lower", None),
        def("index.csr_build_calls", "count", "higher", None),
        def("core.approx_min_cut_ms", "ms", "lower", None),
        def("core.approx_min_cut_calls", "count", "higher", None),
    ]);
    for phase in APPROX_PHASES {
        out.push(def(&format!("core.approx.{phase}_ms"), "ms", "lower", None));
        out.push(def(&format!("core.approx.{phase}_calls"), "count", "higher", None));
    }
    out.extend([
        def("core.singleton_cut_ms", "ms", "lower", None),
        def("core.singleton_cut_calls", "count", "higher", None),
        def("core.kcut_ms", "ms", "lower", None),
        def("core.kcut_calls", "count", "higher", None),
        def("graph.stoer_wagner_ms", "ms", "lower", None),
        def("graph.stoer_wagner_calls", "count", "higher", None),
        def("graph.min_st_cut_ms", "ms", "lower", None),
        def("graph.min_st_cut_calls", "count", "higher", None),
        def("store.log_ms", "ms", "lower", None),
        def("store.log_calls", "count", "higher", None),
        def("store.log_p50_us", "us", "lower", None),
        def("store.snapshot_ms", "ms", "lower", None),
        def("store.snapshot_calls", "count", "lower", None),
        def("store.bytes_per_op", "B/op", "lower", None),
        def("trace.overhead_pct", "%", "lower", None),
    ]);
    out
}

/// The metrics the last output line carries: with `--trace 0` the gated
/// end-to-end metrics, with `--trace 1` the per-layer metrics plus the
/// ungated end-to-end ones.
pub fn reported(trace: bool) -> Vec<Def> {
    let (gated, ungated): (Vec<Def>, Vec<Def>) =
        end_to_end().into_iter().partition(|d| d.bound.is_some());
    if trace {
        per_layer().into_iter().chain(ungated).collect()
    } else {
        gated
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `BENCHMARK.json` manifest, generated from this catalogue.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"python3\", \"servebench/run.py\"],\n");
    out.push_str("  \"paths\": [\"servebench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let kinds: Vec<Kind> = workloads::ALL.into_iter().filter(|k| k.gated()).collect();
    for (i, k) in kinds.iter().enumerate() {
        let comma = if i + 1 < kinds.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_str(k.name()),
            json_str(k.why())
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let gated = reported(false);
    for (i, d) in gated.iter().enumerate() {
        let comma = if i + 1 < gated.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            json_str(&d.name),
            json_str(d.unit),
            json_str(d.better),
            d.bound.expect("gated metrics carry a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layer = reported(true);
    for (i, d) in layer.iter().enumerate() {
        let comma = if i + 1 < layer.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_str(&d.name),
            json_str(d.unit),
            json_str(d.better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &BTreeMap<String, f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(&d.name).copied().unwrap_or(f64::NAN);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("{}: {{\"value\": {v:?}, \"unit\": {}}}", json_str(&d.name), json_str(d.unit))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
