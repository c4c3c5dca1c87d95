//! Engine-level correctness on one shard: warm cached predictions after
//! ingest-driven invalidation must be bit-identical to a cold
//! rebuild-and-predict, and the invalidation must be *precise* — evicting
//! affected entries while untouched ones survive. A slice evicts when its
//! next read catches it up to the published epoch, so eviction counts are
//! read from `stats()` after that read. The wider randomized battery lives in the
//! workspace-level `tests/serving_equivalence.rs`; this file pins the
//! mechanics on one hand-checked scenario.

use relgraph_datagen::{generate_ecommerce, EcommerceConfig};
use relgraph_db2graph::{build_graph, ConvertOptions};
use relgraph_gnn::{predict_nodes, NoCache};
use relgraph_pq::ExecConfig;
use relgraph_serve::{ServeConfig, ShardedEngine};
use relgraph_store::{IngestPolicy, Row, RowBatch, Value};

const QUERY: &str = "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id";

fn engine() -> ShardedEngine {
    let db = generate_ecommerce(&EcommerceConfig {
        customers: 60,
        products: 12,
        seed: 11,
        ..Default::default()
    })
    .unwrap();
    let exec = ExecConfig {
        epochs: 3,
        hidden_dim: 8,
        fanouts: vec![4, 4],
        ..Default::default()
    };
    ShardedEngine::fit(db, QUERY, &exec, ServeConfig::default(), 1).unwrap()
}

/// A batch of orders placed *before* the database's latest timestamp, so
/// the deploy anchor stays put and the engine must invalidate precisely
/// instead of flushing.
fn late_orders(engine: &ShardedEngine, n: usize) -> RowBatch {
    let (lo, hi) = engine.snapshot().db.time_span().unwrap();
    let mut batch = RowBatch::new();
    for i in 0..n {
        let t = lo + (hi - lo) / 2 + i as i64; // strictly inside the span
        batch.push(
            "orders",
            Row::new()
                .push(1_000_000 + i as i64) // fresh order_id
                .push(1 + (i as i64 % 5)) // existing customer_id
                .push(1 + (i as i64 % 7)) // existing product_id
                .push(2i64)
                .push(19.99f64)
                .push("web")
                .push(Value::Timestamp(t)),
        );
    }
    batch
}

fn cold_predictions(engine: &ShardedEngine, rows: &[usize]) -> Vec<f64> {
    let snap = engine.snapshot();
    let (scratch, _) = build_graph(&snap.db, &ConvertOptions::default()).unwrap();
    predict_nodes(
        engine.model(),
        &scratch,
        engine.node_type(),
        rows,
        snap.anchor,
        &mut NoCache,
    )
}

#[test]
fn warm_predictions_survive_precise_invalidation_bitwise() {
    let engine = engine();
    let rows = engine.deploy_entities().unwrap();
    assert!(rows.len() >= 50);

    // Warm both tiers.
    let before = engine.predict_batch_rows(&rows);
    let warm = engine.predict_batch_rows(&rows);
    for (a, b) in before.iter().zip(&warm) {
        assert_eq!(a.to_bits(), b.to_bits(), "idempotent warm read");
    }
    let stats = engine.stats();
    assert_eq!(stats.prediction_hits as usize, rows.len());

    // Ingest late orders: anchor unchanged, precise invalidation required.
    let anchor_before = engine.snapshot().anchor;
    let outcome = engine
        .ingest(late_orders(&engine, 8), &IngestPolicy::coerce_all())
        .unwrap();
    assert_eq!(outcome.report.accepted, 8);
    assert!(!outcome.flushed, "anchor did not advance: no flush");
    assert!(!outcome.rebuilt);
    assert!(outcome.dirty_nodes > 0, "new edges must dirty nodes");
    assert_eq!(engine.snapshot().anchor, anchor_before);

    // Warm path after invalidation ≡ cold rebuild-and-predict, bit for bit.
    // This read catches the slice up, which is when it evicts.
    let warm_after = engine.predict_batch_rows(&rows);
    let evicted = engine.stats();
    assert!(
        evicted.invalidated_embeddings > stats.invalidated_embeddings,
        "new edges must dirty cached embeddings"
    );
    assert!(evicted.invalidated_predictions > stats.invalidated_predictions);
    let cold_after = cold_predictions(&engine, &rows);
    for (i, (w, c)) in warm_after.iter().zip(&cold_after).enumerate() {
        assert_eq!(
            w.to_bits(),
            c.to_bits(),
            "row {} diverged: warm {w} vs cold {c}",
            rows[i]
        );
    }

    // The re-read is served from cache and still bit-identical.
    let warm_again = engine.predict_batch_rows(&rows);
    for (a, b) in warm_after.iter().zip(&warm_again) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn invalidation_is_precise_not_a_flush() {
    let engine = engine();
    let rows = engine.deploy_entities().unwrap();
    engine.predict_batch_rows(&rows);
    let pre_stats = engine.stats();
    assert!(pre_stats.embedding_misses > 0);

    let outcome = engine
        .ingest(late_orders(&engine, 4), &IngestPolicy::coerce_all())
        .unwrap();
    assert!(!outcome.flushed);

    // Re-serving everything must hit the surviving embedding entries: far
    // fewer misses than the cold pass took. The catch-up on this read
    // evicted precisely and did not flush.
    let cold_misses = pre_stats.embedding_misses;
    engine.predict_batch_rows(&rows);
    assert_eq!(engine.stats().flushes, 0);
    let second_pass_misses = engine.stats().embedding_misses - cold_misses;
    assert!(
        second_pass_misses < cold_misses,
        "precise invalidation should preserve most embeddings: \
         second pass recomputed {second_pass_misses} of {cold_misses}"
    );
}

#[test]
fn anchor_advance_flushes_both_tiers() {
    let engine = engine();
    let rows = engine.deploy_entities().unwrap();
    engine.predict_batch_rows(&rows);

    let (_, hi) = engine.snapshot().db.time_span().unwrap();
    let mut batch = RowBatch::new();
    batch.push(
        "orders",
        Row::new()
            .push(2_000_000i64)
            .push(1i64)
            .push(1i64)
            .push(1i64)
            .push(5.0f64)
            .push("web")
            .push(Value::Timestamp(hi + 86_400)),
    );
    let outcome = engine.ingest(batch, &IngestPolicy::coerce_all()).unwrap();
    assert!(outcome.flushed, "advancing the anchor must flush");
    assert_eq!(engine.snapshot().anchor, hi + 86_400);

    // Still correct against a cold rebuild at the new anchor. The read
    // catches the slice up, which is when it flushes.
    let warm = engine.predict_batch_rows(&rows);
    assert_eq!(engine.stats().flushes, 1);
    let cold = cold_predictions(&engine, &rows);
    for (w, c) in warm.iter().zip(&cold) {
        assert_eq!(w.to_bits(), c.to_bits());
    }
}

#[test]
fn unknown_entity_keys_are_per_request_errors() {
    let engine = engine();
    let keys = vec![Value::Int(1), Value::Int(999_999), Value::Int(2)];
    let results = engine.predict_batch_keys(&keys);
    assert!(results[0].is_ok());
    assert!(results[1].is_err());
    assert!(results[2].is_ok());
    let msg = results[1].as_ref().unwrap_err().to_string();
    assert!(msg.contains("999999"), "error names the key: {msg}");
}

#[test]
fn duplicate_rows_in_one_batch_are_computed_once() {
    let engine = engine();
    let p = engine.predict_batch_rows(&[3, 3, 3]);
    assert_eq!(p[0].to_bits(), p[1].to_bits());
    assert_eq!(p[1].to_bits(), p[2].to_bits());
    // One distinct row was computed; the duplicates neither hit the cache
    // (nothing was cached yet) nor triggered extra inference.
    let stats = engine.stats();
    assert_eq!(stats.prediction_hits, 0);
    assert_eq!(stats.prediction_misses, 3);
    assert_eq!(engine.predict_batch_rows(&[3])[0].to_bits(), p[0].to_bits());
    assert_eq!(engine.stats().prediction_hits, 1);
}
