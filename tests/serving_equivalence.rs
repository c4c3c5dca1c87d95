//! Serving-cache equivalence under random ingest schedules: a warm
//! [`ServeEngine`] — whose two cache tiers are invalidated *precisely*
//! (dirty nodes + k-hop closure) rather than flushed — must, after any
//! sequence of row batches interleaved with warming reads, return
//! predictions bit-identical to a cold run: the same fitted model applied
//! to a scratch-compiled graph of the final database with no cache at all.
//!
//! Training is expensive, so one engine is fitted once and shared across
//! proptest cases; the database (and the engine's maintained graph) keep
//! growing case over case, which only makes the property stronger — every
//! case re-proves equivalence against a scratch rebuild of the *current*
//! state. Batch timestamps are drawn strictly inside the existing time
//! span so the deploy anchor never advances: the engine must survive on
//! precise invalidation alone (flushing would hide eviction bugs).
//!
//! The final battery extends the property to the sharded tier's cache
//! slices under true concurrency: with the slices starved, readers race
//! the writer across every publish and must only ever observe predictions
//! bitwise-equal to some published epoch — in `f64`, `f32`, and `q8` —
//! before settling exactly on the last one.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use proptest::prelude::*;
use relgraph::datagen::{generate_ecommerce, EcommerceConfig};
use relgraph::db2graph::{build_graph, ConvertOptions};
use relgraph::gnn::{predict_nodes, InferModel32, NoCache, Precision};
use relgraph::pq::ExecConfig;
use relgraph::serve::{EmbeddingCache, ServeConfig, ServeEngine, ShardedEngine, Q8};
use relgraph::store::{Database, IngestPolicy, Row, RowBatch, Value};

const QUERY: &str = "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id";
const CUSTOMERS: i64 = 50;
const PRODUCTS: i64 = 12;

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
static NEXT_ORDER_ID: AtomicI64 = AtomicI64::new(5_000_000);

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
    // Each case pays for a scratch graph compile plus a no-cache inference
    // pass over every entity, so the case count is deliberately modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn warm_cache_equals_cold_rebuild_after_random_ingest(schedule in schedule_strategy()) {
        let mut eng = engine().lock().unwrap_or_else(|e| e.into_inner());
        let rows = eng.deploy_entities().unwrap();

        // Fill both tiers so the schedule's invalidations have cached
        // state to bite on.
        let _ = eng.predict_batch(&rows);

        for (orders, probes) in &schedule {
            let (lo, hi) = eng.db().time_span().unwrap();
            let mut batch = RowBatch::new();
            for &(c, p, qty, amount, frac) in orders {
                // In [lo + span/4, lo + 3·span/4]: strictly before `hi`,
                // so the deploy anchor must not move.
                let t = lo + (hi - lo) / 4 + (hi - lo) / 2 * frac as i64 / 1000;
                batch.push(
                    "orders",
                    Row::new()
                        .push(NEXT_ORDER_ID.fetch_add(1, Ordering::Relaxed))
                        // Datagen ids are 0-based: 0..customers, 0..products.
                        .push(c as i64 % CUSTOMERS)
                        .push(p as i64 % PRODUCTS)
                        .push(qty)
                        .push(amount)
                        .push("web")
                        .push(Value::Timestamp(t)),
                );
            }
            let n = batch.len();
            let outcome = eng.ingest(batch, &IngestPolicy::coerce_all()).unwrap();
            prop_assert_eq!(outcome.report.accepted, n, "every scheduled row is valid");
            prop_assert!(
                !outcome.flushed,
                "timestamps stay inside the span, so only precise invalidation may run"
            );
            prop_assert!(!outcome.rebuilt);

            // Interleaved warming reads: re-populate a random slice of the
            // cache between writes, like live traffic would.
            let probe_rows: Vec<usize> = probes.iter().map(|&s| rows[s % rows.len()]).collect();
            if !probe_rows.is_empty() {
                let _ = eng.predict_batch(&probe_rows);
            }
        }

        // The property: warm serving ≡ cold rebuild, bit for bit, for
        // every deployable entity.
        let warm = eng.predict_batch(&rows);
        let (scratch, _) = build_graph(eng.db(), &ConvertOptions::default()).unwrap();
        let cold = predict_nodes(
            eng.model(),
            &scratch,
            eng.node_type(),
            &rows,
            eng.anchor(),
            &mut NoCache,
        );
        for (i, (w, c)) in warm.iter().zip(&cold).enumerate() {
            prop_assert_eq!(
                w.to_bits(),
                c.to_bits(),
                "entity row {} diverged after a random ingest schedule: warm {} vs cold {}",
                rows[i],
                w,
                c
            );
        }
    }
}

proptest! {
    // Four sharded engines per case (1/2/4/8 shards), each replaying the
    // same schedule, plus a scratch cold rebuild — markedly more expensive
    // than the single-engine property above, so even fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shard-count invariance: the same fitted model served through 1, 2,
    /// 4, or 8 per-core shards — each shard owning a private slice of the
    /// two-tier cache, fed through the epoch-swap snapshot pipeline — must
    /// produce bit-identical predictions under any random ingest schedule,
    /// and all of them must equal a cold no-cache rebuild. Routing is load
    /// balancing only; it must never be visible in the numbers.
    #[test]
    fn shard_count_never_changes_predictions(schedule in schedule_strategy()) {
        // Borrow the shared fitted state (training is the expensive part);
        // each sharded engine gets its own clone of the *current* database,
        // so the growing-db trick from the first property carries over.
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
        let engines: Vec<ShardedEngine> = [1usize, 2, 4, 8]
            .iter()
            .map(|&n| {
                ShardedEngine::from_fitted(
                    db.clone(),
                    query.clone(),
                    model.clone(),
                    node_type,
                    metrics.clone(),
                    ServeConfig::default(),
                    n,
                )
                .unwrap()
            })
            .collect();
        let rows = engines[0].deploy_entities().unwrap();

        // Warm every engine's cache tiers before the writes start biting.
        for eng in &engines {
            let _ = eng.predict_batch_rows(&rows);
        }

        for (orders, probes) in &schedule {
            let (lo, hi) = db.time_span().unwrap();
            // Materialize each step's rows ONCE — ids are drawn from the
            // shared counter a single time and replayed into every engine,
            // so all four databases stay byte-identical.
            let materialized: Vec<Row> = orders
                .iter()
                .map(|&(c, p, qty, amount, frac)| {
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
            for eng in &engines {
                let mut batch = RowBatch::new();
                for row in &materialized {
                    batch.push("orders", row.clone());
                }
                let n = batch.len();
                let outcome = eng.ingest(batch, &IngestPolicy::coerce_all()).unwrap();
                prop_assert_eq!(outcome.report.accepted, n);
                prop_assert!(
                    !outcome.flushed && !outcome.rebuilt,
                    "in-span timestamps must take the precise-invalidation path"
                );
            }
            let probe_rows: Vec<usize> = probes.iter().map(|&s| rows[s % rows.len()]).collect();
            if !probe_rows.is_empty() {
                for eng in &engines {
                    let _ = eng.predict_batch_rows(&probe_rows);
                }
            }
        }

        // Cold oracle on the settled state: scratch graph, no cache.
        let snap = engines[0].snapshot();
        let (scratch, _) = build_graph(&snap.db, &ConvertOptions::default()).unwrap();
        let cold = predict_nodes(&model, &scratch, node_type, &rows, snap.anchor, &mut NoCache);

        let outputs: Vec<Vec<f64>> = engines
            .iter()
            .map(|eng| eng.predict_batch_rows(&rows))
            .collect();
        for (shards, warm) in [1usize, 2, 4, 8].iter().zip(&outputs) {
            for (i, (w, c)) in warm.iter().zip(&cold).enumerate() {
                prop_assert_eq!(
                    w.to_bits(),
                    c.to_bits(),
                    "row {} diverged from cold rebuild at {} shards: warm {} vs cold {}",
                    rows[i],
                    shards,
                    w,
                    c
                );
            }
        }
    }
}

/// Precision modes the slice-coherence battery covers. Kept local: the
/// cross-mode tolerance battery lives in `precision_equivalence.rs`; this
/// file only proves within-mode bitwise coherence.
const SLICE_MODES: [Precision; 3] = [Precision::F64, Precision::F32, Precision::Q8];

proptest! {
    // The most expensive battery in the file: each case replays the
    // schedule into 3 precision modes × {2, 4} shards, each under live
    // concurrent readers, plus one scratch graph compile and three cold
    // oracle passes per epoch state — so very few cases.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Slice coherence under concurrency. The cache slices are squeezed
    /// to a few rows (`embedding_cache: 16`, `prediction_cache: 1`) so
    /// every read recomputes and refills them. Readers hammer the engine
    /// while the writer publishes a random schedule of in-span batches;
    /// three things must hold in every precision mode at 2 and at 4
    /// shards:
    ///
    /// 1. Every prediction any reader ever observes is bitwise-equal to
    ///    SOME published epoch's cold no-cache value — a reader seeing a
    ///    stale row survive an invalidation, or a row computed at a
    ///    *newer* epoch than its slice's snapshot, would produce a value
    ///    matching no epoch.
    /// 2. The settled state equals the FINAL epoch exactly (warm ≡ cold
    ///    per mode, with the q8 oracle routed through the same
    ///    quantization codec warm serving uses).
    /// 3. Readers really caught up under load: some slice invalidated
    ///    entries or flushed, so 1. and 2. crossed epochs.
    #[test]
    fn sharded_tier_stays_epoch_coherent_under_concurrent_reads(schedule in schedule_strategy()) {
        const READERS: usize = 2;

        // Borrow the shared fitted state; anchor and deploy rows are
        // stable because every batch timestamp stays inside the span.
        let (db, query, model, node_type, metrics, anchor, rows) = {
            let eng = engine().lock().unwrap_or_else(|e| e.into_inner());
            (
                eng.db().clone(),
                eng.query().clone(),
                eng.model_handle(),
                eng.node_type(),
                eng.metrics_owned(),
                eng.anchor(),
                eng.deploy_entities().unwrap(),
            )
        };

        // Materialize the schedule once (ids drawn from the shared
        // counter a single time) and precompute every epoch state's
        // database on a scratch clone.
        let mut step_rows: Vec<Vec<Row>> = Vec::new();
        let mut states: Vec<Database> = vec![db.clone()];
        for (orders, _) in &schedule {
            let cur = states.last().unwrap();
            let (lo, hi) = cur.time_span().unwrap();
            let materialized: Vec<Row> = orders
                .iter()
                .map(|&(c, p, qty, amount, frac)| {
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
            let mut next = cur.clone();
            let mut batch = RowBatch::new();
            for row in &materialized {
                batch.push("orders", row.clone());
            }
            next.ingest(batch, &IngestPolicy::coerce_all()).unwrap();
            states.push(next);
            step_rows.push(materialized);
        }

        // Cold oracles: for each epoch state, one scratch graph compile
        // shared by all three mode oracles. `expected[mode][epoch][row]`.
        let m32 = InferModel32::from_model(&model);
        let mut expected: Vec<Vec<Vec<f64>>> = vec![Vec::new(); SLICE_MODES.len()];
        for state in &states {
            let (scratch, _) = build_graph(state, &ConvertOptions::default()).unwrap();
            expected[0].push(predict_nodes(
                &model, &scratch, node_type, &rows, anchor, &mut NoCache,
            ));
            expected[1].push(predict_nodes(
                &m32, &scratch, node_type, &rows, anchor, &mut NoCache,
            ));
            let mut fresh =
                EmbeddingCache::<Q8>::new(ServeConfig::default().embedding_cache);
            expected[2].push(predict_nodes(
                &m32, &scratch, node_type, &rows, anchor, &mut fresh,
            ));
        }

        for &shards in &[2usize, 4] {
            for (mi, &mode) in SLICE_MODES.iter().enumerate() {
                // Per-row legal bit patterns: the union over epochs.
                let legal: Vec<HashSet<u64>> = (0..rows.len())
                    .map(|i| expected[mi].iter().map(|e| e[i].to_bits()).collect())
                    .collect();
                let eng = Arc::new(
                    ShardedEngine::from_fitted(
                        db.clone(),
                        query.clone(),
                        model.clone(),
                        node_type,
                        metrics.clone(),
                        ServeConfig {
                            precision: mode,
                            prediction_cache: 1,
                            embedding_cache: 16,
                            ..ServeConfig::default()
                        },
                        shards,
                    )
                    .unwrap(),
                );
                // Warm pass: fills the slices at epoch 0.
                let _ = eng.predict_batch_rows(&rows);

                let writing = Arc::new(AtomicBool::new(true));
                let reader_handles: Vec<_> = (0..READERS)
                    .map(|r| {
                        let eng = Arc::clone(&eng);
                        let rows = rows.clone();
                        let legal = legal.clone();
                        let writing = Arc::clone(&writing);
                        std::thread::spawn(move || {
                            let mut pass = 0usize;
                            while writing.load(Ordering::Relaxed) {
                                let start = (pass * (r + 1)) % rows.len();
                                let slice: Vec<usize> = rows
                                    .iter()
                                    .cycle()
                                    .skip(start)
                                    .take(rows.len() / 2 + 1)
                                    .copied()
                                    .collect();
                                let preds = eng.predict_batch_rows(&slice);
                                for (j, p) in preds.iter().enumerate() {
                                    let row_idx = (start + j) % rows.len();
                                    assert!(
                                        legal[row_idx].contains(&p.to_bits()),
                                        "[{mode}] row {} returned {p}, matching no \
                                         published epoch (stale or early cached row?)",
                                        slice[j]
                                    );
                                }
                                pass += 1;
                            }
                        })
                    })
                    .collect();

                for materialized in &step_rows {
                    let mut batch = RowBatch::new();
                    for row in materialized {
                        batch.push("orders", row.clone());
                    }
                    let outcome = eng.ingest(batch, &IngestPolicy::coerce_all()).unwrap();
                    assert!(!outcome.flushed && !outcome.rebuilt);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                std::thread::sleep(std::time::Duration::from_millis(15));
                writing.store(false, Ordering::Relaxed);
                for h in reader_handles {
                    h.join().expect("reader observed an illegal prediction");
                }

                // Settled: the final epoch exactly, bit for bit.
                let settled = eng.predict_batch_rows(&rows);
                let fin = expected[mi].last().unwrap();
                for (i, (w, c)) in settled.iter().zip(fin).enumerate() {
                    prop_assert_eq!(
                        w.to_bits(),
                        c.to_bits(),
                        "[{}] row {} off final epoch after settle at {} shards: {} vs {}",
                        mode, rows[i], shards, w, c
                    );
                }
                // Readers must really have caught up across epochs.
                let stats = eng.stats();
                prop_assert!(
                    stats.invalidated_embeddings + stats.flushes > 0,
                    "[{}] {} shards: no slice ever caught up — battery is vacuous",
                    mode, shards
                );
            }
        }
    }
}
