//! The `query` workload: one analyst in a closed loop, PQL text in, a
//! fitted and evaluated model out.
//!
//! One pass runs eleven queries through `pq::execute` against freshly
//! generated demo databases (the `relgraph --demo` sizes) with
//! `ExecConfig::default()` and no prediction cap, as the CLI does.

use std::collections::BTreeMap;
use std::time::Instant;

use relgraph_datagen::{
    generate_clinic, generate_ecommerce, generate_forum, ClinicConfig, EcommerceConfig, ForumConfig,
};
use relgraph_obs as obs;
use relgraph_obs::SpanNode;
use relgraph_pq::{
    build_training_table, exec::execute_analyzed, execute, ExecConfig, PreparedQuery, QueryOutcome,
};
use relgraph_store::Database;

use crate::report::RunResult;
use crate::stats::spread;

/// One query of the suite.
pub struct SuiteQuery {
    pub id: &'static str,
    pub dataset: usize,
    pub text: &'static str,
    /// Counts towards `auroc` (a GNN binary classification task).
    pub gnn_binary: bool,
}

const ECOMMERCE: usize = 0;
const FORUM: usize = 1;
const CLINIC: usize = 2;

/// The nine canonical experiment tasks with the default GNN, then two
/// GBDT variants. Fixed here so the workload cannot drift with the
/// experiment harness.
pub const SUITE: &[SuiteQuery] = &[
    SuiteQuery {
        id: "shop-active",
        dataset: ECOMMERCE,
        text: "PREDICT EXISTS(orders.*, 0, 30) FOR EACH customers.customer_id",
        gnn_binary: true,
    },
    SuiteQuery {
        id: "shop-reviewer",
        dataset: ECOMMERCE,
        text: "PREDICT COUNT(reviews.*, 0, 60) > 0 FOR EACH customers.customer_id",
        gnn_binary: true,
    },
    SuiteQuery {
        id: "forum-poster",
        dataset: FORUM,
        text: "PREDICT COUNT(posts.*, 0, 30) > 2 FOR EACH users.user_id",
        gnn_binary: true,
    },
    SuiteQuery {
        id: "clinic-readmit",
        dataset: CLINIC,
        text: "PREDICT EXISTS(visits.*, 0, 60) FOR EACH patients.patient_id",
        gnn_binary: true,
    },
    SuiteQuery {
        id: "shop-orders",
        dataset: ECOMMERCE,
        text: "PREDICT COUNT(orders.*, 0, 30) FOR EACH customers.customer_id",
        gnn_binary: false,
    },
    SuiteQuery {
        id: "shop-spend",
        dataset: ECOMMERCE,
        text: "PREDICT SUM(orders.amount, 0, 30) FOR EACH customers.customer_id",
        gnn_binary: false,
    },
    SuiteQuery {
        id: "clinic-rx",
        dataset: CLINIC,
        text: "PREDICT COUNT(prescriptions.*, 0, 90) FOR EACH patients.patient_id",
        gnn_binary: false,
    },
    SuiteQuery {
        id: "shop-channel",
        dataset: ECOMMERCE,
        text: "PREDICT MODE(orders.channel, 0, 60) FOR EACH customers.customer_id",
        gnn_binary: false,
    },
    SuiteQuery {
        id: "shop-next-items",
        dataset: ECOMMERCE,
        text: "PREDICT LIST_DISTINCT(orders.product_id, 0, 60) FOR EACH customers.customer_id",
        gnn_binary: false,
    },
    SuiteQuery {
        id: "shop-active-gbdt",
        dataset: ECOMMERCE,
        text: "PREDICT EXISTS(orders.*, 0, 30) FOR EACH customers.customer_id USING model = gbdt",
        gnn_binary: false,
    },
    SuiteQuery {
        id: "shop-orders-gbdt",
        dataset: ECOMMERCE,
        text: "PREDICT COUNT(orders.*, 0, 30) FOR EACH customers.customer_id USING model = gbdt",
        gnn_binary: false,
    },
];

fn exec_config() -> ExecConfig {
    ExecConfig {
        max_predictions: None,
        ..Default::default()
    }
}

/// The three demo databases for `seed`.
fn databases(seed: u64) -> Vec<Database> {
    vec![
        generate_ecommerce(&EcommerceConfig {
            seed,
            ..Default::default()
        })
        .expect("generate ecommerce"),
        generate_forum(&ForumConfig {
            seed,
            ..Default::default()
        })
        .expect("generate forum"),
        generate_clinic(&ClinicConfig {
            seed,
            ..Default::default()
        })
        .expect("generate clinic"),
    ]
}

/// Check one outcome: finite task metrics, one prediction per live entity.
fn check_outcome(r: &mut RunResult, q: &SuiteQuery, db: &Database, out: &QueryOutcome) {
    r.check(
        !out.metrics.is_empty() && out.metrics.iter().all(|(_, v)| v.is_finite()),
        || format!("{}: non-finite or missing metrics {:?}", q.id, out.metrics),
    );
    let live = PreparedQuery::prepare(db, q.text, &exec_config())
        .and_then(|p| p.deploy_entities(db))
        .map(|rows| rows.len());
    let mut keys: Vec<String> = out
        .predictions
        .iter()
        .map(|p| p.entity_key.to_string())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    r.check(
        live.as_ref()
            .is_ok_and(|&n| n == out.predictions.len() && keys.len() == n),
        || {
            format!(
                "{}: {} predictions ({} distinct) for {:?} live entities",
                q.id,
                out.predictions.len(),
                keys.len(),
                live
            )
        },
    );
}

/// One untraced pass through `pq::execute`: per-query seconds, plus the
/// outcomes for checking.
fn pass(dbs: &[Database]) -> (Vec<f64>, Vec<Result<QueryOutcome, String>>) {
    let cfg = exec_config();
    let mut secs = Vec::with_capacity(SUITE.len());
    let mut outs = Vec::with_capacity(SUITE.len());
    for q in SUITE {
        let t = Instant::now();
        let out = execute(&dbs[q.dataset], q.text, &cfg).map_err(|e| e.to_string());
        secs.push(t.elapsed().as_secs_f64());
        outs.push(out);
    }
    (secs, outs)
}

fn settle(r: &mut RunResult, dbs: &[Database], outs: &[Result<QueryOutcome, String>]) -> f64 {
    let mut aurocs = Vec::new();
    for (q, out) in SUITE.iter().zip(outs) {
        r.attempted += 1;
        match out {
            Ok(out) => {
                let before = r.problems.len();
                check_outcome(r, q, &dbs[q.dataset], out);
                if r.problems.len() > before {
                    r.failed += 1;
                }
                if q.gnn_binary {
                    match out.metric("auroc") {
                        Some(a) => aurocs.push(a),
                        None => r.problems.push(format!("{}: no auroc", q.id)),
                    }
                }
            }
            Err(e) => {
                r.failed += 1;
                r.problems.push(format!("{}: {e}", q.id));
            }
        }
    }
    aurocs.iter().sum::<f64>() / aurocs.len().max(1) as f64
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, r: &mut RunResult) {
    // Set-up is datagen alone; repeat it so its median is steady.
    let mut setup = Vec::new();
    let mut dbs = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        dbs = databases(seed);
        setup.push(t.elapsed().as_secs_f64());
    }
    r.set_median("setup_s", setup);

    let start = Instant::now();
    let mut pass_s = Vec::new();
    let mut query_ms = Vec::new();
    let mut slowest_ms = Vec::new();
    let mut per_query: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut auroc = None;
    // Whole passes, at least two, until three quarters of the budget is
    // spent: a pass started later would overrun it.
    let mut pass_cpu = Vec::new();
    while pass_s.len() < 2 || start.elapsed().as_secs_f64() < 0.75 * seconds {
        let cpu0 = crate::sys::process_cpu_s();
        let (secs, outs) = pass(&dbs);
        pass_cpu.push(crate::sys::process_cpu_s() - cpu0);
        let a = settle(r, &dbs, &outs);
        match auroc {
            None => auroc = Some(a),
            Some(prev) => r.check(prev == a, || {
                format!("auroc changed between passes: {prev} vs {a}")
            }),
        }
        pass_s.push(secs.iter().sum::<f64>());
        slowest_ms.push(secs.iter().cloned().fold(0.0, f64::max) * 1e3);
        for (q, s) in SUITE.iter().zip(&secs) {
            query_ms.push(s * 1e3);
            per_query.entry(q.id).or_default().push(s * 1e3);
        }
    }
    r.set("peak_rss_mb", crate::sys::peak_rss_mb().unwrap_or(0.0));
    r.set_median("query_p50_ms", query_ms);
    r.set_median(
        "cpu_ms_per_op",
        pass_cpu
            .iter()
            .map(|c| c * 1e3 / SUITE.len() as f64)
            .collect(),
    );
    r.set_median("query_slowest_ms", slowest_ms);
    r.set_median(
        "queries_per_s",
        pass_s.iter().map(|s| SUITE.len() as f64 / s).collect(),
    );
    r.set("auroc", auroc.unwrap_or(0.0));
    r.set_median("query_s", pass_s);
    let per: Vec<String> = per_query
        .iter()
        .map(|(id, v)| {
            format!(
                "{}: {}",
                crate::report::string(id),
                crate::report::num(spread(v).map_or(0.0, |s| s.median))
            )
        })
        .collect();
    r.detail("query_ms", format!("{{{}}}", per.join(", ")));
}

/// Sum span durations (ms) by name over whole trees.
fn span_totals(node: &SpanNode, out: &mut BTreeMap<String, f64>) {
    *out.entry(node.name.clone()).or_default() += node.duration_ms;
    for c in &node.children {
        span_totals(c, out);
    }
}

/// The traced run: per-layer metrics. One untraced pass through
/// `pq::execute`, then one traced pass through the same entry points split
/// open (`prepare`, `build_training_table`, `execute_analyzed`), whose
/// outcomes must match the untraced ones bit for bit.
pub fn run_traced(seed: u64, r: &mut RunResult) {
    let dbs = databases(seed);
    let (secs, plain) = pass(&dbs);
    settle(r, &dbs, &plain);
    let untraced_s: f64 = secs.iter().sum();

    let cfg = exec_config();
    let sink = obs::MemorySink::install();
    let counters = [
        "tensor.matmul.flops",
        "graph.sample.edges",
        "gnn.train.epochs",
    ];
    let before: Vec<u64> = counters.iter().map(|c| obs::counter_value(c)).collect();
    let (mut prepare_s, mut table_s, mut task_s) = (0.0, 0.0, 0.0);
    let t_pass = Instant::now();
    for (q, plain) in SUITE.iter().zip(&plain) {
        let db = &dbs[q.dataset];
        let t0 = Instant::now();
        let prepared = PreparedQuery::prepare(db, q.text, &cfg);
        let t1 = Instant::now();
        let traced = prepared.map_err(|e| e.to_string()).and_then(|p| {
            let table = build_training_table(db, p.analyzed(), &p.config().traintable)
                .map_err(|e| e.to_string());
            let t2 = Instant::now();
            table_s += (t2 - t1).as_secs_f64();
            let out = table.and_then(|t| {
                execute_analyzed(db, p.analyzed(), &t, p.config()).map_err(|e| e.to_string())
            });
            task_s += t2.elapsed().as_secs_f64();
            out
        });
        prepare_s += (t1 - t0).as_secs_f64();
        let same = match (plain, &traced) {
            (Ok(a), Ok(b)) => {
                a.metrics.len() == b.metrics.len()
                    && a.metrics
                        .iter()
                        .zip(&b.metrics)
                        .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
                    && a.predictions == b.predictions
            }
            _ => false,
        };
        r.check(same, || {
            format!("{}: traced outcome differs from untraced", q.id)
        });
    }
    let traced_s = t_pass.elapsed().as_secs_f64();
    let after: Vec<u64> = counters.iter().map(|c| obs::counter_value(c)).collect();
    obs::disable();

    let mut spans = BTreeMap::new();
    for root in sink.roots() {
        span_totals(&root, &mut spans);
    }
    let ms = |names: &[&str]| {
        names
            .iter()
            .map(|n| spans.get(*n).copied().unwrap_or(0.0))
            .sum::<f64>()
    };
    let train = ms(&["gnn.train", "gnn.train_two_tower"]) / 1e3;
    let sample = ms(&["graph.sample"]) / 1e3;
    r.set("pq.prepare_s", prepare_s);
    r.set("pq.traintable_s", table_s);
    r.set("pq.run_task_s", task_s);
    r.set("db2graph.build_s", ms(&["db2graph.build_graph"]) / 1e3);
    r.set("gnn.train_s", train);
    r.set("graph.sample_s", sample);
    r.set("gnn.train_self_s", train - sample);
    r.set("gnn.predict_s", ms(&["gnn.predict"]) / 1e3);
    r.set("baselines.featurize_s", ms(&["baselines.featurize"]) / 1e3);
    r.set(
        "baselines.fit_s",
        ms(&[
            "baselines.gbdt_fit",
            "baselines.logistic_fit",
            "baselines.ridge_fit",
        ]) / 1e3,
    );
    r.set("pq.eval_s", ms(&["pq.eval"]) / 1e3);
    r.set("tensor.matmul_gflop", (after[0] - before[0]) as f64 / 1e9);
    r.set("graph.sample_edges", (after[1] - before[1]) as f64);
    r.set("gnn.train_epochs", (after[2] - before[2]) as f64);
    r.set("trace_overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
    r.detail("untraced_pass_s", crate::report::num(untraced_s));
    r.detail("traced_pass_s", crate::report::num(traced_s));
}
