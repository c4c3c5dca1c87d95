//! Reduced-precision serving equivalence under random ingest schedules.
//!
//! One model is fitted once in `f64` (training never runs in reduced
//! precision) and then served through every numeric mode the engine
//! supports — `f64`, `f32` (weights narrowed once, tape-free SIMD
//! inference) and `q8` (`f32` compute over an 8-bit quantized embedding
//! tier) — at 1 shard (the plain [`ServeEngine`]) and 4 shards
//! ([`ShardedEngine`]). After any random schedule of in-span row batches
//! interleaved with warming reads, three properties must hold for every
//! deployable entity:
//!
//! 1. **Within-mode determinism, warm ≡ cold, any shard count.** A warm
//!    engine in mode *m* is bit-identical to a cold no-cache run of mode
//!    *m* on a scratch-compiled graph of the final database — including
//!    `q8`, where the cold reference routes fresh embeddings through the
//!    same quantization codec (`canonicalize`) a warm hit would have
//!    passed through. Shard routing is never visible in the bits.
//! 2. **Cross-mode tolerance.** Reduced-precision predictions stay within
//!    the `DESIGN.md` §15 tolerance of the `f64` reference: `1e-3` for
//!    `f32`, `5e-2` for `q8` (the codec's per-element error is ≤ half a
//!    quantization step, and the head contracts it through a sigmoid).
//! 3. **Decision stability.** Whenever the `f64` prediction is not inside
//!    the mode's tolerance band around the 0.5 decision boundary, the
//!    reduced-precision mode makes the same class decision.
//!
//! Tolerances here and in `DESIGN.md` §15 are one spec: a change to
//! either must update both.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;
use relgraph::datagen::{generate_ecommerce, EcommerceConfig};
use relgraph::db2graph::{build_graph, ConvertOptions};
use relgraph::gnn::{predict_nodes, InferModel32, NoCache, Precision};
use relgraph::pq::ExecConfig;
use relgraph::serve::{EmbeddingCache, ServeConfig, ServeEngine, ShardedEngine, Q8};
use relgraph::store::{IngestPolicy, Row, RowBatch, Value};

const QUERY: &str = "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id";
const CUSTOMERS: i64 = 50;
const PRODUCTS: i64 = 12;

/// `DESIGN.md` §15 tolerance for `f32` serving vs the `f64` reference.
const TOL_F32: f64 = 1e-3;
/// `DESIGN.md` §15 tolerance for `q8` serving vs the `f64` reference.
const TOL_Q8: f64 = 5e-2;

const MODES: [Precision; 3] = [Precision::F64, Precision::F32, Precision::Q8];

fn tolerance(mode: Precision) -> f64 {
    match mode {
        Precision::F64 => 0.0,
        Precision::F32 => TOL_F32,
        Precision::Q8 => TOL_Q8,
    }
}

/// The one fitted model every mode serves (training is the expensive
/// part, and sharing it is the point: all modes down-convert from the
/// same `f64` weights).
fn engine() -> &'static Mutex<ServeEngine> {
    static ENGINE: OnceLock<Mutex<ServeEngine>> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let db = generate_ecommerce(&EcommerceConfig {
            customers: CUSTOMERS as usize,
            products: PRODUCTS as usize,
            seed: 23,
            ..Default::default()
        })
        .unwrap();
        let exec = ExecConfig {
            epochs: 2,
            hidden_dim: 8,
            fanouts: vec![4, 4],
            ..Default::default()
        };
        Mutex::new(ServeEngine::fit(db, QUERY, &exec, ServeConfig::default()).unwrap())
    })
}

/// Primary keys must stay unique across batches *and* proptest cases.
static NEXT_ORDER_ID: AtomicI64 = AtomicI64::new(7_000_000);

/// One order row: customer selector, product selector, quantity, amount,
/// and a 0..1000 fraction placing its timestamp inside the current span.
type OrderSpec = (usize, usize, i64, f64, u32);
/// One schedule step: rows to ingest, then entity selectors to re-read
/// (warming traffic interleaved with writes).
type BatchSpec = (Vec<OrderSpec>, Vec<usize>);

fn schedule_strategy() -> impl Strategy<Value = Vec<BatchSpec>> {
    let order = (0usize..64, 0usize..64, 1i64..5, 1.0f64..100.0, 0u32..1000);
    let step = (
        proptest::collection::vec(order, 1..6),
        proptest::collection::vec(0usize..64, 0..8),
    );
    proptest::collection::vec(step, 1..4)
}

proptest! {
    // Each case assembles six engines (3 modes × {1 shard, 4 shards}),
    // replays the schedule into all of them, then pays a scratch graph
    // compile plus three cold no-cache passes — deliberately few cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_precision_mode_survives_random_ingest(schedule in schedule_strategy()) {
        // Borrow the shared fitted state; every engine below gets its own
        // database clone, so the six stay byte-identical through replay.
        let (db, query, model, node_type, metrics) = {
            let eng = engine().lock().unwrap_or_else(|e| e.into_inner());
            (
                eng.db().clone(),
                eng.query().clone(),
                eng.model_handle(),
                eng.node_type(),
                eng.metrics_owned(),
            )
        };
        let cfg = |precision| ServeConfig { precision, ..ServeConfig::default() };
        let mut singles: Vec<ServeEngine> = MODES
            .iter()
            .map(|&m| {
                ServeEngine::from_fitted(
                    db.clone(),
                    query.clone(),
                    model.clone(),
                    node_type,
                    metrics.clone(),
                    cfg(m),
                )
                .unwrap()
            })
            .collect();
        let sharded: Vec<ShardedEngine> = MODES
            .iter()
            .map(|&m| {
                ShardedEngine::from_fitted(
                    db.clone(),
                    query.clone(),
                    model.clone(),
                    node_type,
                    metrics.clone(),
                    cfg(m),
                    4,
                )
                .unwrap()
            })
            .collect();
        let rows = singles[0].deploy_entities().unwrap();

        // Warm every tier before the writes start biting.
        for eng in singles.iter_mut() {
            let _ = eng.predict_batch(&rows);
        }
        for eng in &sharded {
            let _ = eng.predict_batch_rows(&rows);
        }

        for (orders, probes) in &schedule {
            let (lo, hi) = singles[0].db().time_span().unwrap();
            // Materialize each step's rows ONCE — ids are drawn from the
            // shared counter a single time and replayed into every engine.
            let materialized: Vec<Row> = orders
                .iter()
                .map(|&(c, p, qty, amount, frac)| {
                    // In [lo + span/4, lo + 3·span/4]: strictly before
                    // `hi`, so the deploy anchor never advances and only
                    // precise invalidation may run.
                    let t = lo + (hi - lo) / 4 + (hi - lo) / 2 * frac as i64 / 1000;
                    Row::new()
                        .push(NEXT_ORDER_ID.fetch_add(1, Ordering::Relaxed))
                        .push(c as i64 % CUSTOMERS)
                        .push(p as i64 % PRODUCTS)
                        .push(qty)
                        .push(amount)
                        .push("web")
                        .push(Value::Timestamp(t))
                })
                .collect();
            let mk_batch = || {
                let mut batch = RowBatch::new();
                for row in &materialized {
                    batch.push("orders", row.clone());
                }
                batch
            };
            for eng in singles.iter_mut() {
                let outcome = eng.ingest(mk_batch(), &IngestPolicy::coerce_all()).unwrap();
                prop_assert_eq!(outcome.report.accepted, materialized.len());
                prop_assert!(!outcome.flushed && !outcome.rebuilt);
            }
            for eng in &sharded {
                let outcome = eng.ingest(mk_batch(), &IngestPolicy::coerce_all()).unwrap();
                prop_assert_eq!(outcome.report.accepted, materialized.len());
                prop_assert!(!outcome.flushed && !outcome.rebuilt);
            }
            let probe_rows: Vec<usize> = probes.iter().map(|&s| rows[s % rows.len()]).collect();
            if !probe_rows.is_empty() {
                for eng in singles.iter_mut() {
                    let _ = eng.predict_batch(&probe_rows);
                }
                for eng in &sharded {
                    let _ = eng.predict_batch_rows(&probe_rows);
                }
            }
        }

        // Cold oracles on the settled state: scratch-compiled graph, no
        // warm cache. The q8 oracle runs with a FRESH quantized store so
        // fresh embeddings pass through the same codec grid warm serving
        // quantized them onto.
        let anchor = singles[0].anchor();
        let (scratch, _) = build_graph(singles[0].db(), &ConvertOptions::default()).unwrap();
        let cold_f64 = predict_nodes(&model, &scratch, node_type, &rows, anchor, &mut NoCache);
        let m32 = InferModel32::from_model(&model);
        let cold_f32 =
            predict_nodes(&m32, &scratch, node_type, &rows, anchor, &mut NoCache);
        let cold_q8 = {
            let mut fresh = EmbeddingCache::<Q8>::new(ServeConfig::default().embedding_cache);
            predict_nodes(&m32, &scratch, node_type, &rows, anchor, &mut fresh)
        };
        let cold = [&cold_f64, &cold_f32, &cold_q8];

        for (mi, &mode) in MODES.iter().enumerate() {
            let warm_single = singles[mi].predict_batch(&rows);
            let warm_sharded = sharded[mi].predict_batch_rows(&rows);
            let tol = tolerance(mode);
            for (i, (&c, (ws, wh))) in cold[mi]
                .iter()
                .zip(warm_single.iter().zip(&warm_sharded))
                .enumerate()
            {
                // 1. Warm ≡ cold, bit for bit, at 1 and 4 shards.
                prop_assert_eq!(
                    ws.to_bits(),
                    c.to_bits(),
                    "[{}] row {}: warm 1-shard {} != cold {}",
                    mode, rows[i], ws, c
                );
                prop_assert_eq!(
                    wh.to_bits(),
                    c.to_bits(),
                    "[{}] row {}: warm 4-shard {} != cold {}",
                    mode, rows[i], wh, c
                );
                // 2. Within the §15 tolerance of the f64 reference.
                let reference = cold_f64[i];
                prop_assert!(
                    (c - reference).abs() <= tol,
                    "[{}] row {}: |{} - {}| = {:e} exceeds the §15 tolerance {:e}",
                    mode, rows[i], c, reference, (c - reference).abs(), tol
                );
                // 3. Same class decision outside the boundary band.
                if (reference - 0.5).abs() > tol {
                    prop_assert_eq!(
                        c > 0.5,
                        reference > 0.5,
                        "[{}] row {}: decision flipped ({} vs f64 {})",
                        mode, rows[i], c, reference
                    );
                }
            }
        }
    }
}
