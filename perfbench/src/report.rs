//! Metric names, units, and the result lines.
//!
//! The two lists below are the benchmark's contract with its runner and
//! must match `BENCHMARK.json` (a test checks this). Every run prints every
//! metric of its kind: end-to-end metrics without tracing, per-layer
//! metrics with it. A per-layer metric of a layer the workload does not
//! exercise reads 0.

use std::collections::BTreeMap;

use crate::stats::spread;

/// End-to-end metrics: what an analyst or an application sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_op", "ms"),
    ("auroc", "auroc"),
];

/// Per-layer metrics, grouped by the workload that exercises them.
pub const PER_LAYER: &[(&str, &str)] = &[
    // query: timed from outside around the pq entry points.
    ("pq.prepare_s", "s"),
    ("pq.traintable_s", "s"),
    ("pq.run_task_s", "s"),
    // query: read from the spans and counters relgraph-obs records.
    ("db2graph.build_s", "s"),
    ("gnn.train_s", "s"),
    ("graph.sample_s", "s"),
    ("gnn.train_self_s", "s"),
    ("gnn.predict_s", "s"),
    ("baselines.featurize_s", "s"),
    ("baselines.fit_s", "s"),
    ("pq.eval_s", "s"),
    ("tensor.matmul_gflop", "GFLOP"),
    ("graph.sample_edges", "count"),
    ("gnn.train_epochs", "count"),
    // serve: the request path, replayed in process.
    ("protocol.parse_us", "us"),
    ("serve.hit_us", "us"),
    ("serve.miss_us", "us"),
    ("protocol.serialize_us", "us"),
    ("server.transport_us", "us"),
    // serve: caches, routing, and the generator itself.
    ("cache.pred_hit_ratio", "ratio"),
    ("cache.emb_hit_ratio", "ratio"),
    ("cache.l2_hit_ratio", "ratio"),
    ("cache.pred_evictions", "count"),
    ("sharded.steals", "count"),
    ("sharded.spills", "count"),
    ("sharded.queue_depth_max", "count"),
    ("load.lateness_p99_us", "us"),
    // serve_mixed: the durable write path.
    ("write.ack_p50_ms", "ms"),
    ("write.ack_p90_ms", "ms"),
    ("store.wal_commit_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("db2graph.delta_ms", "ms"),
    ("store.wal_bytes_per_row", "B"),
    ("serve.flush_share", "ratio"),
    ("serve.invalidated_emb_per_write", "count"),
    ("serve.invalidated_pred_per_write", "count"),
    ("serve.read_after_write_us", "us"),
    // every workload: traced run against untraced run.
    ("trace_overhead_pct", "%"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Metric values by name (only this run's kind).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-rep values behind a metric, for the spread line.
    pub reps: BTreeMap<&'static str, Vec<f64>>,
    /// Operations issued and how many failed (a failed check counts).
    pub attempted: u64,
    pub failed: u64,
    /// Every output check that failed, in words.
    pub problems: Vec<String>,
    /// Extra facts for the detail line (already JSON-encoded values).
    pub detail: Vec<(String, String)>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record per-rep values and set the metric to their median.
    pub fn set_median(&mut self, name: &'static str, values: Vec<f64>) {
        if let Some(s) = spread(&values) {
            self.metrics.insert(name, s.median);
        }
        self.reps.insert(name, values);
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn detail(&mut self, key: &str, json_value: String) {
        self.detail.push((key.to_string(), json_value));
    }
}

/// A JSON number; non-finite values (never expected) become `null`, which
/// the result line treats as a failed check.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The detail line (fingerprint, spreads, accounting) and the final result
/// line. Returns them in print order.
pub fn render(
    workload: &str,
    seed: u64,
    trace: bool,
    fingerprint: &[(&'static str, String)],
    r: &mut RunResult,
) -> (String, String) {
    let names = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let v = r.metrics.get(name).copied();
        let v = match v {
            Some(v) if v.is_finite() => v,
            Some(_) => {
                r.problems.push(format!("metric {name} is not finite"));
                0.0
            }
            None if trace => 0.0,
            None => {
                r.problems.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            string(name),
            num(v),
            string(unit)
        ));
    }
    let correct = r.problems.is_empty();
    let failed = r.failed + u64::from(!correct && r.failed == 0);
    let last = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        r.attempted.max(1),
        metrics.join(", ")
    );

    let mut d = vec![
        format!("\"workload\": {}", string(workload)),
        format!("\"seed\": {seed}"),
        format!("\"trace\": {trace}"),
    ];
    let fp: Vec<String> = fingerprint
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), string(v)))
        .collect();
    d.push(format!("\"host\": {{{}}}", fp.join(", ")));
    let reps: Vec<String> = r
        .reps
        .iter()
        .filter_map(|(name, values)| {
            let s = spread(values)?;
            Some(format!(
                "{}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"reps\": {}}}",
                string(name),
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n
            ))
        })
        .collect();
    d.push(format!("\"spread\": {{{}}}", reps.join(", ")));
    for (k, v) in &r.detail {
        d.push(format!("{}: {v}", string(k)));
    }
    let problems: Vec<String> = r.problems.iter().map(|p| string(p)).collect();
    d.push(format!("\"problems\": [{}]", problems.join(", ")));
    (format!("{{\"detail\": {{{}}}}}", d.join(", ")), last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgraph_obs::json::{parse, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric_of_its_kind() {
        let mut r = RunResult::default();
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.attempted = 3;
        let (detail, last) = render("query", 9, false, &[("nproc", "2".into())], &mut r);
        let doc = parse(&last).expect("result line is JSON");
        assert!(parse(&detail).is_ok(), "detail line is JSON");
        let metrics = doc.get("metrics").expect("metrics");
        for &(name, unit) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        let mut r = RunResult::default();
        let (_, last) = render("query", 1, false, &[], &mut r);
        let doc = parse(&last).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
    }
}
