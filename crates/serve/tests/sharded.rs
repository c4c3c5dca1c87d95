//! Concurrency battery for the sharded serving tier.
//!
//! The load-bearing test is `epoch_swap_under_sustained_read_load`: reader
//! threads hammer the engine while the writer publishes graph deltas, and
//! every prediction any reader ever observes must be bitwise-equal to the
//! cold-rebuild prediction of *some* published epoch — a reader catching a
//! half-applied delta would produce a value matching no epoch. Readers
//! must also keep completing work while ingests are in flight (they never
//! take the writer's lock), and once the dust settles every shard must
//! land exactly on the final epoch's values.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use relgraph_datagen::{generate_ecommerce, EcommerceConfig};
use relgraph_db2graph::{build_graph, ConvertOptions};
use relgraph_gnn::{predict_nodes, NoCache};
use relgraph_pq::ExecConfig;
use relgraph_serve::{ServeConfig, ShardedEngine};
use relgraph_store::{Database, IngestPolicy, Row, RowBatch, Value};

const QUERY: &str = "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id";

fn small_db(seed: u64) -> Database {
    generate_ecommerce(&EcommerceConfig {
        customers: 40,
        products: 10,
        seed,
        ..Default::default()
    })
    .unwrap()
}

fn quick_exec() -> ExecConfig {
    ExecConfig {
        epochs: 2,
        hidden_dim: 8,
        fanouts: vec![4, 4],
        ..Default::default()
    }
}

/// An order batch with timestamps strictly inside the db's time span, so
/// the deploy anchor never advances and precise invalidation must carry
/// the whole load.
fn mid_span_orders(db: &Database, first_id: i64, count: usize) -> Vec<Row> {
    let (lo, hi) = db.time_span().unwrap();
    (0..count)
        .map(|i| {
            let t = lo + (hi - lo) / 4 + (hi - lo) / 2 * (i as i64 % 97) / 97;
            Row::new()
                .push(first_id + i as i64)
                .push(i as i64 % 40)
                .push(i as i64 % 10)
                .push(1 + i as i64 % 3)
                .push(9.5 + i as f64)
                .push("web")
                .push(Value::Timestamp(t))
        })
        .collect()
}

fn batch_of(rows: &[Row]) -> RowBatch {
    let mut b = RowBatch::new();
    for r in rows {
        b.push("orders", r.clone());
    }
    b
}

/// The fitted pieces the cold-reference path needs alongside the engine.
struct Fitted {
    engine: Arc<ShardedEngine>,
    model: Arc<relgraph_gnn::NodeModel>,
    node_type: relgraph_graph::NodeTypeId,
}

impl Fitted {
    /// Cold reference predictions for a database state: scratch graph, no
    /// cache. Predictions are a pure function of (model, graph, rows,
    /// anchor), so this is the ground truth each published epoch must
    /// match.
    fn cold_predictions(&self, db: &Database, rows: &[usize]) -> Vec<f64> {
        let anchor = self.engine.snapshot().anchor;
        let (graph, _) = build_graph(db, &ConvertOptions::default()).unwrap();
        predict_nodes(
            &self.model,
            &graph,
            self.node_type,
            rows,
            anchor,
            &mut NoCache,
        )
    }
}

/// Fit once via a ServeEngine (exposes the model), then stamp out the
/// sharded engine from the same model — bit-identical by construction.
fn fit_sharded(db: Database, shards: usize) -> Fitted {
    fit_sharded_cfg(db, shards, ServeConfig::default())
}

/// Like [`fit_sharded`] but with an explicit serving configuration, so
/// tests can shrink cache tiers.
fn fit_sharded_cfg(db: Database, shards: usize, cfg: ServeConfig) -> Fitted {
    use relgraph_serve::ServeEngine;
    let single =
        ServeEngine::fit(db.clone(), QUERY, &quick_exec(), ServeConfig::default()).unwrap();
    let model = single.model_handle();
    let node_type = single.node_type();
    let engine = ShardedEngine::from_fitted(
        db,
        single.query().clone(),
        Arc::clone(&model),
        node_type,
        single.metrics_owned(),
        cfg,
        shards,
    )
    .unwrap();
    Fitted {
        engine: Arc::new(engine),
        model,
        node_type,
    }
}

/// The acceptance test: an epoch swap during sustained read load
/// completes without any request observing a partially applied delta.
#[test]
fn epoch_swap_under_sustained_read_load() {
    const INGESTS: usize = 4;
    const ROWS_PER_INGEST: usize = 6;
    const READERS: usize = 3;

    let db0 = small_db(31);
    let fitted = fit_sharded(db0.clone(), 4);
    let engine = Arc::clone(&fitted.engine);
    let rows = engine.deploy_entities().unwrap();

    // Materialize every batch up front, then precompute the cold truth of
    // every epoch state 0..=INGESTS on a scratch database.
    let mut batches: Vec<Vec<Row>> = Vec::new();
    let mut scratch = db0.clone();
    let mut expected: Vec<Vec<f64>> = vec![fitted.cold_predictions(&scratch, &rows)];
    for k in 0..INGESTS {
        let batch = mid_span_orders(&scratch, 9_000_000 + (k as i64) * 1000, ROWS_PER_INGEST);
        scratch
            .ingest(batch_of(&batch), &IngestPolicy::coerce_all())
            .unwrap();
        expected.push(fitted.cold_predictions(&scratch, &rows));
        batches.push(batch);
    }
    // Ingests must actually change predictions, or the test is vacuous.
    assert_ne!(
        expected[0].iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        expected[INGESTS]
            .iter()
            .map(|p| p.to_bits())
            .collect::<Vec<_>>(),
        "schedule must perturb predictions"
    );
    let legal: Vec<HashSet<u64>> = (0..rows.len())
        .map(|i| expected.iter().map(|e| e[i].to_bits()).collect())
        .collect();

    let writing = Arc::new(AtomicBool::new(true));
    let reads_during_writes = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let engine = Arc::clone(&engine);
            let rows = rows.clone();
            let writing = Arc::clone(&writing);
            let reads_during_writes = Arc::clone(&reads_during_writes);
            let legal = legal.clone();
            std::thread::spawn(move || {
                let mut observed = 0u64;
                while writing.load(Ordering::Relaxed) {
                    // Rotate through overlapping slices so shards see both
                    // repeat (cache-hit) and fresh traffic.
                    let start = (observed as usize * (r + 1)) % rows.len();
                    let slice: Vec<usize> = rows
                        .iter()
                        .cycle()
                        .skip(start)
                        .take(rows.len() / 2 + 1)
                        .copied()
                        .collect();
                    let preds = engine.predict_batch_rows(&slice);
                    for (j, p) in preds.iter().enumerate() {
                        let row_idx = (start + j) % rows.len();
                        assert!(
                            legal[row_idx].contains(&p.to_bits()),
                            "row {} returned {p}, matching no published epoch \
                             (partial delta observed?)",
                            slice[j]
                        );
                    }
                    observed += 1;
                    reads_during_writes.fetch_add(1, Ordering::Relaxed);
                }
                observed
            })
        })
        .collect();

    // Writer: publish each delta while readers hammer. A brief pause
    // between publishes gives readers time on every epoch.
    for batch in &batches {
        let outcome = engine
            .ingest(batch_of(batch), &IngestPolicy::coerce_all())
            .unwrap();
        assert!(!outcome.flushed && !outcome.rebuilt);
        std::thread::sleep(std::time::Duration::from_millis(15));
    }
    // Let readers overlap the final epoch too, then stop them.
    std::thread::sleep(std::time::Duration::from_millis(30));
    writing.store(false, Ordering::Relaxed);
    let total_reads: u64 = readers.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(
        total_reads >= INGESTS as u64,
        "readers must keep completing while the writer publishes \
         (got {total_reads} reads)"
    );
    assert_eq!(engine.epoch(), INGESTS as u64);

    // Settled state: every shard catches up on its next batch, so a full
    // read now must equal the final epoch exactly — not just "some" epoch.
    let settled = engine.predict_batch_rows(&rows);
    for (i, (got, want)) in settled.iter().zip(&expected[INGESTS]).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "row {} off final epoch after settle",
            rows[i]
        );
    }
}

/// A shard that sleeps through more than PLAN_HISTORY epochs must flush
/// and still converge to the final state (correctness never depends on
/// retained history).
#[test]
fn shard_lapped_beyond_plan_history_recovers_by_flushing() {
    let db0 = small_db(37);
    let fitted = fit_sharded(db0.clone(), 2);
    let engine = &fitted.engine;
    let rows = engine.deploy_entities().unwrap();
    let _ = engine.predict_batch_rows(&rows); // warm both shards

    let mut scratch = db0;
    let n_epochs = relgraph_serve::PLAN_HISTORY + 3;
    for k in 0..n_epochs {
        let batch = mid_span_orders(&scratch, 9_500_000 + (k as i64) * 1000, 3);
        scratch
            .ingest(batch_of(&batch), &IngestPolicy::coerce_all())
            .unwrap();
        let outcome = engine
            .ingest(batch_of(&batch), &IngestPolicy::coerce_all())
            .unwrap();
        assert!(!outcome.flushed && !outcome.rebuilt);
    }
    assert_eq!(engine.epoch(), n_epochs as u64);

    // No shard has scored since epoch 0: each is now lapped far past the
    // retained plan window and must flush rather than replay.
    let warm = engine.predict_batch_rows(&rows);
    let cold = fitted.cold_predictions(&scratch, &rows);
    for (w, c) in warm.iter().zip(&cold) {
        assert_eq!(w.to_bits(), c.to_bits());
    }
    assert!(
        engine.stats().flushes >= 1,
        "a lapped shard should have flushed its slice"
    );
}

/// TCP round trip through the socket front-end: concurrent pipelined
/// clients, well-formed and malformed requests, byte-exact id accounting.
#[test]
fn tcp_front_end_round_trip() {
    use std::io::{BufRead, BufReader, Write};

    let fitted = fit_sharded(small_db(41), 2);
    let engine = &fitted.engine;
    let listener = relgraph_serve::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let stop2 = Arc::clone(&stop);
        let engine_ref = &engine;
        let server = scope.spawn(move || listener.run(engine_ref, &stop2).unwrap());

        let clients: Vec<_> = (0..3)
            .map(|c| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
                    let mut lines = Vec::new();
                    for i in 0..20u64 {
                        let id = c * 100 + i;
                        if i % 7 == 3 {
                            // Malformed, id still legible → recovered id.
                            lines.push(format!("{{\"id\": {id}, \"entity\""));
                        } else {
                            lines.push(format!("{{\"id\": {id}, \"entity\": {}}}", i % 50));
                        }
                    }
                    // Pipeline everything, then read responses in order.
                    conn.write_all((lines.join("\n") + "\n").as_bytes())
                        .unwrap();
                    let reader = BufReader::new(conn.try_clone().unwrap());
                    let mut got = Vec::new();
                    for line in reader.lines().take(lines.len()) {
                        got.push(line.unwrap());
                    }
                    (lines, got)
                })
            })
            .collect();

        for client in clients {
            let (sent, got) = client.join().unwrap();
            assert_eq!(sent.len(), got.len(), "one response per request");
            for (req, resp) in sent.iter().zip(&got) {
                // In-order per connection: the echoed id must match.
                let id = relgraph_serve::recover_id(req).unwrap();
                assert!(
                    resp.starts_with(&format!("{{\"id\": {id}, ")),
                    "request `{req}` answered out of order or id lost: `{resp}`"
                );
                if req.contains("\"entity\":") {
                    assert!(
                        resp.contains("\"prediction\":"),
                        "well-formed request must score: `{resp}`"
                    );
                } else {
                    // The echoed line arrives JSON-escaped in the message.
                    let escaped = req.replace('\\', "\\\\").replace('"', "\\\"");
                    assert!(
                        resp.contains("\"error\":") && resp.contains(&escaped),
                        "malformed request must error and echo the line: `{resp}`"
                    );
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        server.join().unwrap();
    });
}

/// Ingesting a batch whose entities are then requested by key: the
/// snapshot the front-end resolves against is the one the writer just
/// published, so new keys become visible exactly at the epoch boundary.
#[test]
fn new_rows_become_visible_at_the_published_epoch() {
    let db0 = small_db(43);
    let fitted = fit_sharded(db0.clone(), 2);
    let engine = &fitted.engine;
    let before = engine.epoch();
    let batch = mid_span_orders(&db0, 9_900_000, 4);
    engine
        .ingest(batch_of(&batch), &IngestPolicy::coerce_all())
        .unwrap();
    assert_eq!(engine.epoch(), before + 1);
    // Customers are the entity; all existing keys must still resolve and
    // score identically across both key- and row-addressed paths.
    let rows = engine.deploy_entities().unwrap();
    let by_rows = engine.predict_batch_rows(&rows);
    let keys: Vec<Value> = rows.iter().map(|&r| Value::Int(r as i64)).collect();
    let by_keys: Vec<f64> = engine
        .predict_batch_keys(&keys)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    for (a, b) in by_rows.iter().zip(&by_keys) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// One `ingest_group` call must land on the same published state as the
/// same batches ingested one by one — same database, bitwise-identical
/// predictions — while spending a single epoch (one invalidation
/// broadcast, one snapshot swap) instead of one per batch. A rejected
/// batch inside the group stays a per-batch no-op.
#[test]
fn group_ingest_matches_sequential_ingests() {
    let db0 = small_db(47);
    let sequential = fit_sharded(db0.clone(), 2);
    let grouped = fit_sharded(db0.clone(), 2);
    // Coerce late rows (mid-span timestamps are behind the watermark) but
    // keep FK violations fatal, so the dangling-FK batch rejects whole.
    let policy = IngestPolicy {
        on_fk_violation: relgraph_store::PolicyAction::Reject,
        ..IngestPolicy::coerce_all()
    };

    let mut batches: Vec<RowBatch> = (0..3)
        .map(|i| batch_of(&mid_span_orders(&db0, 8_000_000 + 100 * i, 3)))
        .collect();
    // A dangling-FK batch: rejected by validation, applied by neither path.
    let (lo, hi) = db0.time_span().unwrap();
    let bad = RowBatch::new().with(
        "orders",
        Row::new()
            .push(8_999_999i64)
            .push(99_999i64) // no such customer
            .push(0i64)
            .push(1i64)
            .push(9.5)
            .push("web")
            .push(Value::Timestamp(lo + (hi - lo) / 2)),
    );
    batches.insert(2, bad);

    let seq_epoch0 = sequential.engine.epoch();
    for batch in &batches {
        // The rejected batch surfaces as an error and publishes nothing.
        let _ = sequential.engine.ingest(batch.clone(), &policy);
    }
    assert_eq!(sequential.engine.epoch(), seq_epoch0 + 3);

    let grp_epoch0 = grouped.engine.epoch();
    let group = grouped.engine.ingest_group(batches, &policy).unwrap();
    assert_eq!(
        grouped.engine.epoch(),
        grp_epoch0 + 1,
        "a group spends one epoch"
    );
    assert_eq!(group.reports.len(), 4);
    assert_eq!(group.accepted_batches(), 3);
    assert!(group.reports[2].is_err());
    assert_eq!(group.outcome.report.accepted, 9);

    let snap_seq = sequential.engine.snapshot();
    let snap_grp = grouped.engine.snapshot();
    assert_eq!(snap_seq.db, snap_grp.db);
    assert_eq!(snap_seq.anchor, snap_grp.anchor);

    let rows = sequential.engine.deploy_entities().unwrap();
    assert_eq!(rows, grouped.engine.deploy_entities().unwrap());
    let a = sequential.engine.predict_batch_rows(&rows);
    let b = grouped.engine.predict_batch_rows(&rows);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// A hot-keyed client population — every request routed to the same
/// slice — contends for one slice lock, and that contention is invisible
/// in the output bits: every prediction still matches the cold reference
/// exactly.
#[test]
fn hot_keyed_load_keeps_bits() {
    const CLIENTS: usize = 4;
    const PASSES: usize = 60;

    let db0 = small_db(59);
    // prediction_cache 1: every request recomputes, so callers hold the
    // hot slice's lock for real work instead of a prediction-cache hit.
    let cfg = ServeConfig {
        prediction_cache: 1,
        ..ServeConfig::default()
    };
    let fitted = fit_sharded_cfg(db0.clone(), 4, cfg);
    let engine = Arc::clone(&fitted.engine);
    let rows = engine.deploy_entities().unwrap();

    // The hottest bucket's rows: all of them hash-route to one slice.
    let hot_bucket = (0..4)
        .max_by_key(|&b| rows.iter().filter(|&&r| engine.shard_of(r) == b).count())
        .unwrap();
    let hot: Vec<usize> = rows
        .iter()
        .copied()
        .filter(|&r| engine.shard_of(r) == hot_bucket)
        .collect();
    assert!(hot.len() >= 4, "need a hot working set to key on");
    let cold = fitted.cold_predictions(&db0, &hot);

    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let engine = Arc::clone(&engine);
            let hot = &hot;
            let cold = &cold;
            scope.spawn(move || {
                for _ in 0..PASSES {
                    // Small chunks → many requests, all for the same slice.
                    for (chunk, want) in hot.chunks(2).zip(cold.chunks(2)) {
                        let got = engine.predict_batch_rows(chunk);
                        for (g, w) in got.iter().zip(want) {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "hot-keyed request returned different bits"
                            );
                        }
                    }
                }
            });
        }
    });
}

/// A socket client that never ends its line gets one error response once
/// the line passes the cap, then EOF; the server keeps serving other
/// connections normally.
#[test]
fn oversized_request_line_is_refused_and_closed() {
    use std::io::{BufRead, BufReader, Read, Write};

    let fitted = fit_sharded(small_db(67), 2);
    let engine = &fitted.engine;
    let listener = relgraph_serve::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let server = scope.spawn(|| listener.run(engine, &stop).unwrap());

        // One byte past the cap and no newline: the server must answer
        // without waiting for the rest of the line.
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        conn.write_all(&vec![b'x'; relgraph_serve::MAX_LINE_BYTES + 1])
            .unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert_eq!(reply.lines().count(), 1, "exactly one response: `{reply}`");
        assert!(
            reply.contains("\"error\":") && reply.contains("request line too long"),
            "oversized line must get a structured error: `{reply}`"
        );

        let conn = std::net::TcpStream::connect(&addr).unwrap();
        (&conn).write_all(b"{\"id\": 1, \"entity\": 3}\n").unwrap();
        let mut line = String::new();
        BufReader::new(&conn).read_line(&mut line).unwrap();
        assert!(
            line.starts_with("{\"id\": 1, ") && line.contains("\"prediction\":"),
            "a fresh connection must still serve: `{line}`"
        );
        drop(conn);

        stop.store(true, Ordering::Relaxed);
        server.join().unwrap();
    });
}
