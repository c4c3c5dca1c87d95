//! Serving building blocks shared by the one engine,
//! [`ShardedEngine`](crate::ShardedEngine): its configuration, what an
//! ingest reports, the cache-aware scorer [`predict_batch_cached`] every
//! slice runs, and the one place serving dispatches on [`Precision`]
//! (`scorer`). Why warm reads stay bit-identical to cold ones is argued
//! in [`invalidate`](crate::invalidate), next to the rule that keeps them so.

use std::collections::HashMap;
use std::sync::Arc;

use relgraph_db2graph::DeltaStats;
use relgraph_gnn::{predict_nodes, EmbeddingStore, InferModel32, NodeModel, Precision, WalkModel};
use relgraph_graph::{HeteroGraph, NodeTypeId};
use relgraph_store::{Database, IngestReport, StoreResult, Timestamp};

use crate::cache::{CacheSlice, CacheStats, EmbeddingCache, Lru};
use crate::codec::{Identity, RowCodec, Q8};

/// Serving knobs: batch bounds and cache capacities.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most requests fused into one inference batch.
    pub max_batch: usize,
    /// Longest a batch waits for co-travellers after its first request.
    pub batch_deadline: std::time::Duration,
    /// Capacity of the final-prediction tier (entries).
    pub prediction_cache: usize,
    /// Capacity of the node-embedding tier (entries).
    pub embedding_cache: usize,
    /// Numeric mode of the inference path and embedding tier. Training
    /// always runs in `f64`; `F32`/`Q8` down-convert the fitted weights
    /// once at engine assembly (tolerance story: `DESIGN.md` §15).
    pub precision: Precision,
    /// Write-path group-commit window, in batches: how many consecutive
    /// ingest batches the serving tier coalesces into one WAL fsync and
    /// one snapshot publish (`--commit-window` on the CLI). `1` means
    /// every batch commits and publishes individually (the legacy
    /// behavior).
    pub commit_window: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            batch_deadline: std::time::Duration::from_millis(5),
            prediction_cache: 4096,
            embedding_cache: 65536,
            precision: Precision::F64,
            commit_window: 1,
        }
    }
}

/// What one [`ShardedEngine::ingest`](crate::ShardedEngine::ingest) call
/// did. Cache entries are evicted later, when each slice catches up to
/// the published epoch; [`CacheStats`] counts those evictions.
#[derive(Debug, Clone, Default)]
pub struct IngestOutcome {
    /// The store's validation/apply report.
    pub report: IngestReport,
    /// The graph delta that was applied.
    pub delta: DeltaStats,
    /// Dirty nodes found (distance-0 seeds plus their k-hop closure).
    pub dirty_nodes: usize,
    /// True when both tiers were flushed wholesale (anchor advanced).
    pub flushed: bool,
    /// True when the delta failed and the graph was rebuilt from scratch.
    pub rebuilt: bool,
}

/// What one group ingest
/// ([`ShardedEngine::ingest_group`](crate::ShardedEngine::ingest_group))
/// did: per-batch store verdicts, plus the *one* coalesced graph delta /
/// invalidation the whole group paid for.
#[derive(Debug, Clone, Default)]
pub struct GroupIngestOutcome {
    /// One store report per submitted batch, in submission order. A
    /// rejected batch is an `Err` here and a no-op in the database — the
    /// rest of the group still applies, exactly as if each batch had been
    /// ingested individually.
    pub reports: Vec<StoreResult<IngestReport>>,
    /// The group-level outcome. `report` aggregates the accepted batches'
    /// row counts; `delta`/`dirty_nodes`/`flushed`/`rebuilt` describe the
    /// single coalesced graph transition.
    pub outcome: IngestOutcome,
}

impl GroupIngestOutcome {
    /// Batches the store accepted (their rows are applied and durable
    /// once the covering commit is).
    pub fn accepted_batches(&self) -> usize {
        self.reports.iter().filter(|r| r.is_ok()).count()
    }
}

/// Deploy anchor: the latest timestamp in the database.
pub(crate) fn deploy_anchor(db: &Database) -> Timestamp {
    db.time_span().map(|(_, hi)| hi).unwrap_or(0)
}

/// The cache-aware fused scoring path: each slice of the engine runs it
/// against its *own* caches and whatever graph snapshot it has caught up
/// to. Cached
/// predictions short-circuit; the rest run through the deduplicating
/// per-node walk against the embedding tier, in the model's precision.
/// Output order matches input order; duplicate rows are computed once.
/// The prediction tier stays exact `f64` in every precision — only the
/// embedding payloads and the arithmetic are reduced, so cached and
/// recomputed predictions agree bitwise within a mode.
///
/// Batch composition never changes a value: `predict_nodes` evaluates each
/// node as a pure function of `(type, node, level, anchor)`, which is why
/// any partitioning of a request stream across slices — each with its own
/// caches — stays bit-identical to a single engine scoring the same rows.
#[allow(clippy::too_many_arguments)]
pub fn predict_batch_cached<M: WalkModel + ?Sized>(
    model: &M,
    graph: &HeteroGraph,
    node_type: NodeTypeId,
    anchor: Timestamp,
    rows: &[usize],
    predictions: &mut Lru<usize, f64>,
    embeddings: &mut dyn EmbeddingStore<M::Scalar>,
    stats: &mut CacheStats,
) -> Vec<f64> {
    let mut out = vec![0.0f64; rows.len()];
    let mut miss_rows: Vec<usize> = Vec::new();
    // Allocates only on the first miss: an all-hit batch stays allocation-free here.
    let mut miss_slot: HashMap<usize, usize> = HashMap::new();
    let mut miss_positions: Vec<(usize, usize)> = Vec::new(); // (out idx, miss idx)
    for (i, &row) in rows.iter().enumerate() {
        if let Some(&p) = predictions.get(&row) {
            stats.prediction_hits += 1;
            out[i] = p;
        } else if let Some(&slot) = miss_slot.get(&row) {
            // Duplicate within the batch: one compute, many answers —
            // still a miss for accounting (nothing was cached).
            stats.prediction_misses += 1;
            miss_positions.push((i, slot));
        } else {
            stats.prediction_misses += 1;
            let slot = miss_rows.len();
            miss_rows.push(row);
            miss_slot.insert(row, slot);
            miss_positions.push((i, slot));
        }
    }
    if !miss_rows.is_empty() {
        let preds = predict_nodes(model, graph, node_type, &miss_rows, anchor, embeddings);
        for (&row, &p) in miss_rows.iter().zip(&preds) {
            predictions.insert(row, p);
        }
        for (i, slot) in miss_positions {
            out[i] = preds[slot];
        }
    }
    out
}

/// A cache slice's scoring state in one precision, seen without its
/// types: the walk model plus the embedding tier it fills. Each slice of
/// the engine holds its own.
pub(crate) trait Scoring: Send {
    /// [`predict_batch_cached`] over this slice's embedding tier.
    fn score(
        &mut self,
        graph: &HeteroGraph,
        node_type: NodeTypeId,
        anchor: Timestamp,
        rows: &[usize],
        predictions: &mut Lru<usize, f64>,
        stats: &mut CacheStats,
    ) -> Vec<f64>;

    /// The embedding tier, for invalidation, flushes and stats.
    fn cache(&mut self) -> &mut dyn CacheSlice;

    /// A fresh slice of `cap` embeddings sharing this one's model.
    fn fork(&self, cap: usize) -> Box<dyn Scoring>;
}

struct Scorer<M, C: RowCodec> {
    model: Arc<M>,
    embeddings: EmbeddingCache<C>,
}

impl<M, C> Scoring for Scorer<M, C>
where
    M: WalkModel<Scalar = C::Scalar> + Send + 'static,
    C: RowCodec,
{
    fn score(
        &mut self,
        graph: &HeteroGraph,
        node_type: NodeTypeId,
        anchor: Timestamp,
        rows: &[usize],
        predictions: &mut Lru<usize, f64>,
        stats: &mut CacheStats,
    ) -> Vec<f64> {
        predict_batch_cached(
            &*self.model,
            graph,
            node_type,
            anchor,
            rows,
            predictions,
            &mut self.embeddings,
            stats,
        )
    }

    fn cache(&mut self) -> &mut dyn CacheSlice {
        &mut self.embeddings
    }

    fn fork(&self, cap: usize) -> Box<dyn Scoring> {
        boxed::<M, C>(Arc::clone(&self.model), cap)
    }
}

fn boxed<M, C>(model: Arc<M>, cap: usize) -> Box<dyn Scoring>
where
    M: WalkModel<Scalar = C::Scalar> + Send + 'static,
    C: RowCodec,
{
    Box::new(Scorer::<M, C> {
        model,
        embeddings: EmbeddingCache::new(cap),
    })
}

/// The one place serving dispatches on [`Precision`]: the walk model
/// (`f64` tape, or weights down-converted once to `f32`) and the codec its
/// embedding tier stores rows with, for a slice of `cap` embeddings.
/// Training is always `f64`; `DESIGN.md` §15 has the tolerance story.
pub(crate) fn scorer(model: &Arc<NodeModel>, precision: Precision, cap: usize) -> Box<dyn Scoring> {
    match precision {
        Precision::F64 => boxed::<_, Identity<f64>>(Arc::clone(model), cap),
        Precision::F32 => boxed::<_, Identity<f32>>(Arc::new(InferModel32::from_model(model)), cap),
        Precision::Q8 => boxed::<_, Q8>(Arc::new(InferModel32::from_model(model)), cap),
    }
}
