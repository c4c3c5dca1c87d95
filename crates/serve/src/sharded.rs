//! The sharded concurrent serving tier: hash-routed cache slices scored
//! inline on the caller's thread, over epoch-swapped graph snapshots.
//!
//! # Shape
//!
//! A [`ShardedEngine`] splits the single-threaded
//! [`ServeEngine`](crate::ServeEngine) into two roles:
//!
//! * **Readers** — any number of caller threads. `predict_batch_*`
//!   routes each row to one of `N` cache slices by hash
//!   ([`shard_of`](ShardedEngine::shard_of)). A slice is a [`Mutex`] over
//!   a prediction [`Lru`], an [`EmbeddingCache`](crate::EmbeddingCache)
//!   storing rows through the configured precision's
//!   [`RowCodec`](crate::RowCodec), its [`CacheStats`], and the
//!   [`GraphSnapshot`] it has caught up to. The caller locks each slice
//!   its rows route to and scores them itself: no worker thread, no
//!   queue, no reply channel. Routing is **load balancing, not
//!   correctness**: every slice can score every row, and every slice
//!   replays every invalidation plan, so any shard count produces
//!   bit-identical predictions (`tests/serving_equivalence.rs` sweeps
//!   shard counts 1/2/4/8).
//! * **The writer** — [`ShardedEngine::ingest`] (serialized by a mutex
//!   no reader takes) appends rows, applies the graph delta to a
//!   *private* copy via `update_graph_snapshot`, derives an
//!   [`InvalidationPlan`], and publishes the next [`GraphSnapshot`]
//!   through an [`EpochCell`] — the hand-rolled arc-swap. A failed delta
//!   can only poison the writer's private copy; readers keep the old
//!   snapshot until the rebuild publishes.
//!
//! # Lock, then load
//!
//! A caller loads the published snapshot only *while holding* the slice
//! lock. Loads under one lock are ordered, and the cell's epoch only
//! grows, so a slice's epoch never moves backward: its caches are never
//! asked to hold values from two epochs at once.
//!
//! # Catching up
//!
//! Each published snapshot carries the last [`PLAN_HISTORY`] plans. A
//! slice last scored at epoch `s`, now loading epoch `e`, applies exactly
//! plans `s+1..=e` (coalesced into one sweep) under its lock before
//! scoring; if the snapshot no longer retains plan `s+1`, the slice
//! flushes instead. A flush is always *safe* (caches only skip work,
//! never change values), so correctness never depends on the history
//! bound — only warm-hit rate does.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use relgraph_db2graph::{
    build_graph, update_graph_snapshot, ConvertOptions, GraphCursor, GraphMapping,
};
use relgraph_gnn::NodeModel;
use relgraph_graph::{FeatureMatrix, HeteroGraph, NodeTypeId};
use relgraph_obs as obs;
use relgraph_pq::{ExecConfig, PreparedQuery};
use relgraph_store::{Database, IngestPolicy, RowBatch, Timestamp, Value};

use crate::cache::{CacheStats, Lru};
use crate::engine::{
    deploy_anchor, scorer, GroupIngestOutcome, IngestOutcome, Scoring, ServeConfig,
};
use crate::epoch::EpochCell;
use crate::error::{ServeError, ServeResult};
use crate::invalidate::{dirty_closure, evict_dirty, grown_tables, InvalidationPlan};

/// How many invalidation plans a snapshot retains. A slice more than this
/// many epochs behind flushes instead of replaying plans — a hit-rate
/// cost, never a correctness one.
pub const PLAN_HISTORY: usize = 8;

/// One published graph version: everything a reader needs, immutable.
pub struct GraphSnapshot {
    /// Version number; plans transition caches between consecutive epochs.
    pub epoch: u64,
    /// The database at this version (key resolution, deploy entities).
    pub db: Database,
    /// The compiled graph at this version.
    pub graph: HeteroGraph,
    /// Deploy anchor at this version.
    pub anchor: Timestamp,
    /// The last [`PLAN_HISTORY`] plans, ascending by epoch, ending at
    /// `epoch`. Empty at epoch 0.
    pub plans: Vec<InvalidationPlan>,
}

/// One shard's cache slice, touched only under its shard's lock.
struct Slice {
    predictions: Lru<usize, f64>,
    /// The walk model and embedding cache of the configured precision.
    scorer: Box<dyn Scoring>,
    stats: CacheStats,
    /// The snapshot this slice's caches are consistent with.
    snap: Arc<GraphSnapshot>,
}

impl Slice {
    fn flush(&mut self) {
        self.predictions.clear();
        self.scorer.cache().clear();
        self.stats.flushes += 1;
    }

    /// Move this slice from its snapshot to `next` by replaying `next`'s
    /// retained plans, or flush if it fell further behind than
    /// [`PLAN_HISTORY`].
    fn catch_up(&mut self, next: Arc<GraphSnapshot>, hops: usize, entity_ty: usize) {
        debug_assert!(next.epoch > self.snap.epoch);
        let needed = self.snap.epoch + 1;
        if next.plans.first().is_none_or(|p| p.epoch > needed) {
            self.flush();
        } else {
            // Coalesce the needed plans into one equivalent plan (union of
            // dirty sets at minimum distance, flush dominating) so a slice
            // that missed N epochs pays one cache sweep, not N.
            let pending: Vec<InvalidationPlan> = next
                .plans
                .iter()
                .filter(|p| p.epoch >= needed)
                .cloned()
                .collect();
            if pending.len() > 1 && obs::enabled() {
                obs::add("serve.invalidate.coalesced", pending.len() as u64 - 1);
            }
            match InvalidationPlan::merge(&pending) {
                Some(plan) if !plan.flush => {
                    let (emb, pred) = evict_dirty(
                        &plan.dirty,
                        hops,
                        entity_ty,
                        &mut self.predictions,
                        self.scorer.cache(),
                    );
                    self.stats.invalidated_embeddings += emb;
                    self.stats.invalidated_predictions += pred;
                }
                _ => self.flush(),
            }
        }
        self.snap = next;
    }
}

/// A slice plus the count of callers waiting on or holding its lock.
struct Shard {
    slice: Mutex<Slice>,
    callers: AtomicUsize,
}

impl Shard {
    /// Lock the slice. A caller that panicked mid-score may have left its
    /// caches half-written; caches only skip work, so flushing them makes
    /// the slice correct again.
    fn lock(&self) -> MutexGuard<'_, Slice> {
        self.slice.lock().unwrap_or_else(|poisoned| {
            self.slice.clear_poison();
            let mut slice = poisoned.into_inner();
            slice.flush();
            slice
        })
    }
}

/// Mutable writer-side state, touched only under the writer mutex.
///
/// Deliberately holds no graph: the previous graph version lives in the
/// published snapshot (immutable, and this writer is its only publisher),
/// so each ingest reads it from there and *moves* the freshly built graph
/// into the next snapshot — one graph copy per delta (inside
/// `update_graph_snapshot`), not two.
struct WriterState {
    db: Database,
    mapping: GraphMapping,
    cursor: GraphCursor,
    opts: ConvertOptions,
    query: PreparedQuery,
    anchor: Timestamp,
    epoch: u64,
    plans: VecDeque<InvalidationPlan>,
}

/// A concurrently served predictive query: `N` hash-routed cache slices
/// scored by their callers, one writer, epoch-swapped snapshots. See the
/// module docs for the full model.
pub struct ShardedEngine {
    model: Arc<NodeModel>,
    node_type: NodeTypeId,
    entity_table: String,
    hops: usize,
    cell: EpochCell<GraphSnapshot>,
    cfg: ServeConfig,
    shards: Vec<Shard>,
    writer: Mutex<WriterState>,
    metrics: Vec<(String, f64)>,
}

impl ShardedEngine {
    /// Fit the query on `db` and serve it across `shards` cache slices.
    pub fn fit(
        db: Database,
        query_text: &str,
        exec: &ExecConfig,
        cfg: ServeConfig,
        shards: usize,
    ) -> ServeResult<Self> {
        let _span = obs::span("serve.fit");
        let opts = ConvertOptions::default();
        let (graph, mapping) = build_graph(&db, &opts)?;
        let query = PreparedQuery::prepare(&db, query_text, exec)?;
        let fitted = query.fit_node_model(&db, &graph, &mapping)?;
        Self::assemble(
            db,
            graph,
            mapping,
            opts,
            query,
            Arc::new(fitted.model),
            fitted.node_type,
            fitted.metrics,
            cfg,
            shards,
        )
    }

    /// Serve an already fitted model (see
    /// [`ServeEngine::from_fitted`](crate::ServeEngine::from_fitted) for
    /// why this is sound): rebuilds graph state over `db`, skips training.
    pub fn from_fitted(
        db: Database,
        query: PreparedQuery,
        model: Arc<NodeModel>,
        node_type: NodeTypeId,
        metrics: Vec<(String, f64)>,
        cfg: ServeConfig,
        shards: usize,
    ) -> ServeResult<Self> {
        let opts = ConvertOptions::default();
        let (graph, mapping) = build_graph(&db, &opts)?;
        Self::assemble(
            db, graph, mapping, opts, query, model, node_type, metrics, cfg, shards,
        )
    }

    /// Serve an already fitted model over an already compiled graph — the
    /// warm-restart path (see
    /// [`ServeEngine::from_fitted_graph`](crate::ServeEngine::from_fitted_graph)).
    /// `graph`/`mapping` must be current with respect to `db`.
    #[allow(clippy::too_many_arguments)]
    pub fn from_fitted_graph(
        db: Database,
        graph: HeteroGraph,
        mapping: GraphMapping,
        query: PreparedQuery,
        model: Arc<NodeModel>,
        node_type: NodeTypeId,
        metrics: Vec<(String, f64)>,
        cfg: ServeConfig,
        shards: usize,
    ) -> ServeResult<Self> {
        let opts = ConvertOptions::default();
        Self::assemble(
            db, graph, mapping, opts, query, model, node_type, metrics, cfg, shards,
        )
    }

    /// Persist this tier's warm-start state (graph + model snapshots) into
    /// `dir` — the writer mutex is held, so the saved state is one
    /// consistent epoch. `query_text` is stored alongside the model so a
    /// restart can re-prepare the query. Returns total bytes written.
    pub fn save_warm_start(&self, dir: &std::path::Path, query_text: &str) -> ServeResult<u64> {
        let writer = self.writer.lock().expect("writer mutex");
        let snapshot = self.cell.load();
        let graph_bytes = crate::persist::save_graph_state(
            dir,
            &snapshot.graph,
            &writer.mapping,
            &writer.cursor,
        )?;
        let model_bytes = crate::persist::save_model(
            &dir.join(crate::persist::MODEL_SNAPSHOT_FILE),
            &crate::persist::ModelSnapshot {
                query_text: query_text.to_string(),
                node_type: self.node_type,
                metrics: self.metrics.clone(),
                state: self.model.export(),
                precision: self.cfg.precision,
            },
        )?;
        Ok(graph_bytes + model_bytes)
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        db: Database,
        graph: HeteroGraph,
        mapping: GraphMapping,
        opts: ConvertOptions,
        query: PreparedQuery,
        model: Arc<NodeModel>,
        node_type: NodeTypeId,
        metrics: Vec<(String, f64)>,
        cfg: ServeConfig,
        shards: usize,
    ) -> ServeResult<Self> {
        let shards = shards.max(1);
        let cursor = GraphCursor::capture(&db);
        let anchor = deploy_anchor(&db);
        let hops = model.sampler_cfg().fanouts.len();
        let entity_table = query.analyzed().entity_table.clone();
        let snapshot = Arc::new(GraphSnapshot {
            epoch: 0,
            db: db.clone(),
            graph,
            anchor,
            plans: Vec::new(),
        });
        // Each slice owns an equal share of the configured cache budget,
        // so total cache memory is shard-count invariant.
        let pred_cap = (cfg.prediction_cache / shards).max(1);
        let emb_cap = (cfg.embedding_cache / shards).max(1);
        // Slices share one walk model (down-converted once, in reduced
        // precisions) and each forks its own embedding cache from it.
        let proto = scorer(&model, cfg.precision, 1);
        let shards = (0..shards)
            .map(|_| Shard {
                slice: Mutex::new(Slice {
                    predictions: Lru::new(pred_cap),
                    scorer: proto.fork(emb_cap),
                    stats: CacheStats::default(),
                    snap: Arc::clone(&snapshot),
                }),
                callers: AtomicUsize::new(0),
            })
            .collect();
        Ok(ShardedEngine {
            model,
            node_type,
            entity_table,
            hops,
            cell: EpochCell::new(snapshot),
            cfg,
            shards,
            metrics,
            writer: Mutex::new(WriterState {
                db,
                mapping,
                cursor,
                opts,
                query,
                anchor,
                epoch: 0,
                plans: VecDeque::new(),
            }),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Test-split metrics from the fitting run (empty when built via
    /// [`from_fitted`](Self::from_fitted) without them).
    pub fn fit_metrics(&self) -> &[(String, f64)] {
        &self.metrics
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// The currently published snapshot (readers hold it lock-free).
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        self.cell.load()
    }

    /// Per-shard count of callers waiting on or holding the slice lock.
    /// Kept under its old name because `perfbench` samples it as
    /// `sharded.queue_depth_max`; the callers are the queue now.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.callers.load(Ordering::Relaxed))
            .collect()
    }

    /// Always 0: callers score their own rows, so nothing is stolen. Kept
    /// only because `perfbench` reports it (`sharded.steals`).
    pub fn steals(&self) -> u64 {
        0
    }

    /// Always 0: there is no inbox to spill from. Kept only because
    /// `perfbench` reports it (`sharded.spills`).
    pub fn spills(&self) -> u64 {
        0
    }

    /// Cache statistics summed across slices (each slice counted once).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.merge(&shard.lock().stats);
        }
        total
    }

    /// Publish the slice-aggregated cache counters (idempotent; see
    /// [`CacheStats::publish`]) plus per-shard queue-depth gauges.
    pub fn publish_stats(&self) {
        if !obs::enabled() {
            return;
        }
        self.stats().publish();
        for (i, depth) in self.queue_depths().into_iter().enumerate() {
            obs::gauge(&format!("serve.shard.{i}.queue_depth"), depth as f64);
        }
    }

    /// The slice a row routes to. Exposed so tests and capacity planning
    /// can construct deliberately hot-keyed workloads.
    pub fn shard_of(&self, row: usize) -> usize {
        shard_of_row(row, self.shards.len())
    }

    /// Entity rows that may legitimately be scored right now.
    pub fn deploy_entities(&self) -> ServeResult<Vec<usize>> {
        let w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        Ok(w.query.deploy_entities(&w.db)?)
    }

    /// Score entity rows on the calling thread: route them to their
    /// slices, score each slice's rows under its lock, gather in input
    /// order. Callable from any number of threads at once.
    pub fn predict_batch_rows(&self, rows: &[usize]) -> Vec<f64> {
        let t0 = std::time::Instant::now();
        let n = self.shards.len();
        let out = if n == 1 {
            self.score_on(0, rows)
        } else {
            let route: Vec<usize> = rows.iter().map(|&r| shard_of_row(r, n)).collect();
            let mut out = vec![0.0f64; rows.len()];
            let mut shard_rows = Vec::with_capacity(rows.len());
            for s in 0..n {
                shard_rows.clear();
                shard_rows.extend(rows.iter().zip(&route).filter(|r| *r.1 == s).map(|r| r.0));
                if shard_rows.is_empty() {
                    continue;
                }
                let mut preds = self.score_on(s, &shard_rows).into_iter();
                for (o, _) in out.iter_mut().zip(&route).filter(|o| *o.1 == s) {
                    *o = preds.next().expect("one prediction per routed row");
                }
            }
            out
        };
        if obs::enabled() {
            obs::add("serve.requests", rows.len() as u64);
            obs::observe("serve.batch.occupancy", rows.len() as f64);
            obs::record_ns("serve.predict", t0.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Score `rows` (all routed to shard `s`) under that shard's lock,
    /// catching its slice up to the published epoch first.
    fn score_on(&self, s: usize, rows: &[usize]) -> Vec<f64> {
        let shard = &self.shards[s];
        shard.callers.fetch_add(1, Ordering::Relaxed);
        let mut slice = shard.lock();
        // Lock, then load: see the module docs. One atomic load when the
        // slice is current; the cell's slot lock only when it moved.
        if self.cell.epoch() != slice.snap.epoch {
            slice.catch_up(self.cell.load(), self.hops, self.node_type.0);
        }
        let Slice {
            predictions,
            scorer,
            stats,
            snap,
        } = &mut *slice;
        let preds = scorer.score(
            &snap.graph,
            self.node_type,
            snap.anchor,
            rows,
            predictions,
            stats,
        );
        stats.prediction_evictions = predictions.evictions;
        scorer.cache().export(stats);
        drop(slice);
        shard.callers.fetch_sub(1, Ordering::Relaxed);
        preds
    }

    /// Resolve primary keys against the current snapshot and score them.
    /// Unknown keys get per-request errors; the rest are still fused.
    pub fn predict_batch_keys(&self, keys: &[Value]) -> Vec<ServeResult<f64>> {
        let snap = self.cell.load();
        let table = match snap.db.table(&self.entity_table) {
            Ok(t) => t,
            Err(e) => {
                return keys
                    .iter()
                    .map(|_| Err(ServeError::from(e.clone())))
                    .collect()
            }
        };
        let rows: Vec<Option<usize>> = keys.iter().map(|k| table.row_by_key(k)).collect();
        let found: Vec<usize> = rows.iter().filter_map(|r| *r).collect();
        let preds = self.predict_batch_rows(&found);
        let mut it = preds.into_iter();
        keys.iter()
            .zip(rows)
            .map(|(key, row)| match row {
                Some(_) => Ok(it.next().expect("one prediction per resolved row")),
                None => Err(ServeError::UnknownEntity {
                    table: self.entity_table.clone(),
                    key: key.to_string(),
                }),
            })
            .collect()
    }

    /// Append a validated batch and publish the next graph snapshot.
    ///
    /// The writer mutates only its private copies; readers keep serving
    /// the old snapshot until the single release-store in
    /// [`EpochCell::publish`] — they never block, and never observe a
    /// partially applied delta (`crates/serve/tests/sharded.rs` hammers
    /// this under sustained read load).
    pub fn ingest(&self, batch: RowBatch, policy: &IngestPolicy) -> ServeResult<IngestOutcome> {
        let mut group = self.ingest_group(vec![batch], policy)?;
        let report = group.reports.pop().expect("one report per batch")?;
        let mut outcome = group.outcome;
        outcome.report = report;
        Ok(outcome)
    }

    /// Append a *group* of validated batches under **one** writer-lock
    /// hold and publish **one** graph snapshot for the whole group: one
    /// delta application, one dirty closure, one [`InvalidationPlan`], one
    /// epoch bump — where N separate [`ingest`](Self::ingest) calls would
    /// broadcast N plans and swap N snapshots. Per-batch semantics are
    /// unchanged (a rejected batch is an `Err` in
    /// [`GroupIngestOutcome::reports`] and a no-op in the database), and
    /// the published state equals the one N individual ingests would have
    /// reached; only the maintenance cost is amortized. The serving-tier
    /// counterpart of store-level WAL group commit (DESIGN.md §14.8).
    pub fn ingest_group(
        &self,
        batches: Vec<RowBatch>,
        policy: &IngestPolicy,
    ) -> ServeResult<GroupIngestOutcome> {
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let _span = obs::span("serve.ingest");
        // The previous graph version is read from the published snapshot:
        // it is immutable and this writer (serialized by the mutex above)
        // is its only publisher, so it matches the writer's cursor exactly.
        let prev = self.cell.load();
        let pre_lens: Vec<usize> = w.db.tables().iter().map(|t| t.len()).collect();
        let mut group = GroupIngestOutcome {
            reports: Vec::with_capacity(batches.len()),
            ..Default::default()
        };
        for batch in batches {
            match w.db.ingest(batch, policy) {
                Ok(report) => {
                    group.outcome.report.accepted += report.accepted;
                    group.outcome.report.coerced += report.coerced;
                    group.outcome.report.late += report.late;
                    group.outcome.report.quarantined += report.quarantined;
                    group.reports.push(Ok(report));
                }
                Err(e) => group.reports.push(Err(e)),
            }
        }
        if group.accepted_batches() == 0 {
            // Nothing applied: readers keep the current snapshot; no epoch
            // is spent on a no-op group.
            return Ok(group);
        }
        if obs::enabled() && group.reports.len() > 1 {
            obs::add("serve.invalidate.coalesced", group.reports.len() as u64 - 1);
        }
        let outcome = &mut group.outcome;
        let grown = grown_tables(&w.db, &w.mapping, &pre_lens)?;
        let pre_features: Vec<FeatureMatrix> = grown
            .iter()
            .map(|g| prev.graph.features(g.node_type).clone())
            .collect();
        let next_epoch = w.epoch + 1;
        let (graph, plan) =
            match update_graph_snapshot(&w.db, &prev.graph, &w.mapping, &w.cursor, &w.opts) {
                Ok((graph, mapping, cursor, delta)) => {
                    outcome.delta = delta;
                    let new_anchor = deploy_anchor(&w.db);
                    let plan = if new_anchor != w.anchor {
                        // Anchor advance: every cached value took the anchor
                        // as an input; every slice flushes.
                        outcome.flushed = true;
                        InvalidationPlan::flush(next_epoch)
                    } else {
                        let dist = dirty_closure(
                            &w.db,
                            &graph,
                            &mapping,
                            &grown,
                            &pre_features,
                            self.hops,
                        )?;
                        outcome.dirty_nodes = dist.len();
                        InvalidationPlan::precise(next_epoch, &dist)
                    };
                    w.mapping = mapping;
                    w.cursor = cursor;
                    w.anchor = new_anchor;
                    (graph, plan)
                }
                Err(_) => {
                    // The failed delta only touched its private clone; rebuild
                    // from the database and every slice flushes.
                    let (graph, mapping) = build_graph(&w.db, &w.opts)?;
                    w.mapping = mapping;
                    w.cursor = GraphCursor::capture(&w.db);
                    w.anchor = deploy_anchor(&w.db);
                    outcome.rebuilt = true;
                    outcome.flushed = true;
                    (graph, InvalidationPlan::flush(next_epoch))
                }
            };
        w.epoch = next_epoch;
        w.plans.push_back(plan);
        while w.plans.len() > PLAN_HISTORY {
            w.plans.pop_front();
        }
        let snapshot = GraphSnapshot {
            epoch: next_epoch,
            db: w.db.clone(),
            graph, // moved, not cloned: the writer keeps no copy
            anchor: w.anchor,
            plans: w.plans.iter().cloned().collect(),
        };
        self.cell.publish(Arc::new(snapshot));
        if obs::enabled() {
            obs::add("serve.ingest.dirty_nodes", outcome.dirty_nodes as u64);
            obs::add("serve.epoch.published", 1);
        }
        Ok(group)
    }
}

/// Route a row to a shard (splitmix64 finalizer). Pure load balancing:
/// any routing function is correct, this one is just well mixed.
fn shard_of_row(row: usize, shards: usize) -> usize {
    if shards == 1 {
        return 0;
    }
    let mut x = (row as u64) ^ 0x9e37_79b9_7f4a_7c15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::shard_of_row;

    #[test]
    fn routing_is_total_and_balanced_enough() {
        for shards in [1usize, 2, 4, 8] {
            let mut counts = vec![0usize; shards];
            for row in 0..8000 {
                counts[shard_of_row(row, shards)] += 1;
            }
            let expect = 8000 / shards;
            for &c in &counts {
                assert!(
                    c > expect / 2 && c < expect * 2,
                    "shard load {c} far from {expect} at n={shards}"
                );
            }
        }
    }
}
