//! Delta-driven cache invalidation, shared between the single-threaded
//! [`ServeEngine`](crate::ServeEngine) and the sharded serving tier.
//!
//! The correctness argument lives in `engine`'s module docs; this module
//! owns the machinery: find the distance-0 dirty seeds an ingest created,
//! close them over k hops, and package the result as an
//! [`InvalidationPlan`] that any cache slice — the engine's own, or each
//! shard's — can apply independently. A plan is *descriptive*, not
//! imperative: it names `(type, node, distance)` triples, and applying it
//! to a cache that never held those entries is a no-op. That is what lets
//! one writer broadcast the same plan to every shard without knowing which
//! shard cached what.

use std::collections::HashMap;
use std::sync::Arc;

use relgraph_db2graph::GraphMapping;
use relgraph_graph::{FeatureMatrix, HeteroGraph, NodeTypeId};
use relgraph_store::Database;

use crate::cache::{CacheSlice, Lru};
use crate::error::{ServeError, ServeResult};

/// A table that gained rows during an ingest, with enough context to diff
/// its features pre/post delta.
#[derive(Debug, Clone, Copy)]
pub struct TableGrowth {
    /// Index into `db.tables()`.
    pub table_index: usize,
    /// The table's node type in the graph.
    pub node_type: NodeTypeId,
    /// Row count before the ingest.
    pub pre_len: usize,
}

/// Which tables grew, given the pre-ingest row counts. Call *after*
/// `db.ingest` and *before* applying the graph delta (the pre-delta
/// feature matrices must still be capturable from the old graph).
pub fn grown_tables(
    db: &Database,
    mapping: &GraphMapping,
    pre_lens: &[usize],
) -> ServeResult<Vec<TableGrowth>> {
    let mut grown = Vec::new();
    for (i, t) in db.tables().iter().enumerate() {
        if t.len() > pre_lens[i] {
            let nt = mapping.node_type(t.name()).ok_or_else(|| {
                ServeError::Engine(format!("table `{}` missing from graph mapping", t.name()))
            })?;
            grown.push(TableGrowth {
                table_index: i,
                node_type: nt,
                pre_len: pre_lens[i],
            });
        }
    }
    Ok(grown)
}

/// Distance-0 dirty seeds plus their `hops`-hop closure over the
/// post-delta `graph`. Returns the shortest distance from each affected
/// `(type, node)` to any seed.
///
/// Seeds (distance 0) are: rows whose feature vector changed bitwise
/// (z-score statistics shift on append), endpoints of new edges (their
/// neighbor lists and windowed degrees changed), and the new rows
/// themselves. `pre_features[i]` must be the pre-delta feature matrix of
/// `growth[i].node_type`.
pub fn dirty_closure(
    db: &Database,
    graph: &HeteroGraph,
    mapping: &GraphMapping,
    growth: &[TableGrowth],
    pre_features: &[FeatureMatrix],
    hops: usize,
) -> ServeResult<HashMap<(usize, usize), usize>> {
    let mut dist: HashMap<(usize, usize), usize> = HashMap::new();
    for (g, pre) in growth.iter().zip(pre_features) {
        let nt = g.node_type;
        let post = graph.features(nt);
        if pre.dim() != post.dim() {
            // The feature space itself changed (new hashed category, say):
            // every row of the type is dirty.
            for row in 0..post.rows() {
                dist.insert((nt.0, row), 0);
            }
            continue;
        }
        for row in 0..g.pre_len.min(post.rows()) {
            let changed = pre
                .row(row)
                .iter()
                .zip(post.row(row))
                .any(|(a, b)| a.to_bits() != b.to_bits());
            if changed {
                dist.insert((nt.0, row), 0);
            }
        }
        for row in g.pre_len..post.rows() {
            dist.insert((nt.0, row), 0);
        }
        let table = &db.tables()[g.table_index];
        for fk in table.schema().foreign_keys() {
            let target = db.table(&fk.referenced_table)?;
            let target_nt = mapping.node_type(target.name()).ok_or_else(|| {
                ServeError::Engine(format!(
                    "table `{}` missing from graph mapping",
                    target.name()
                ))
            })?;
            let col = table
                .column_by_name(&fk.column)
                .expect("schema guarantees the FK column exists");
            for row in g.pre_len..table.len() {
                let key = col.get(row);
                if key.is_null() {
                    continue;
                }
                if let Some(dst) = target.row_by_key(&key) {
                    dist.insert((target_nt.0, dst), 0);
                }
            }
        }
    }

    // BFS over the full adjacency; forward + reverse edge types make
    // neighbor-of symmetric, and `dist` keeps the shortest distance.
    let mut frontier: Vec<(usize, usize)> = dist.keys().copied().collect();
    for d in 1..=hops {
        let mut next = Vec::new();
        for &(ty, node) in &frontier {
            for &et in graph.edge_types_from(NodeTypeId(ty)) {
                let dst_ty = graph.edge_type(et).dst.0;
                let (nbrs, _) = graph.neighbor_slices(et, node);
                for &nbr in nbrs {
                    let key = (dst_ty, nbr as usize);
                    if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(key) {
                        e.insert(d);
                        next.push(key);
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    Ok(dist)
}

/// One published graph transition, as seen by a cache slice: applying the
/// plan for epoch `e` brings a cache that was consistent with epoch `e-1`
/// to consistency with epoch `e`.
#[derive(Debug, Clone)]
pub struct InvalidationPlan {
    /// The epoch this plan transitions *to*.
    pub epoch: u64,
    /// Drop everything: the deploy anchor advanced or the graph was
    /// rebuilt, so no cached entry's inputs survived.
    pub flush: bool,
    /// `(type, node, distance)` triples to evict precisely. Shared by
    /// every slice, hence the `Arc`.
    pub dirty: Arc<Vec<(usize, usize, usize)>>,
}

impl InvalidationPlan {
    /// A plan that flushes wholesale.
    pub fn flush(epoch: u64) -> Self {
        InvalidationPlan {
            epoch,
            flush: true,
            dirty: Arc::new(Vec::new()),
        }
    }

    /// A plan that evicts precisely, from a [`dirty_closure`] result.
    pub fn precise(epoch: u64, dist: &HashMap<(usize, usize), usize>) -> Self {
        let mut dirty: Vec<(usize, usize, usize)> =
            dist.iter().map(|(&(ty, node), &d)| (ty, node, d)).collect();
        // Deterministic order so every slice applies the identical plan.
        dirty.sort_unstable();
        InvalidationPlan {
            epoch,
            flush: false,
            dirty: Arc::new(dirty),
        }
    }

    /// Coalesce consecutive plans into one plan whose application is
    /// equivalent to applying `plans` in order. `None` on an empty slice.
    ///
    /// * Any flush dominates: after a wholesale clear the cache holds
    ///   nothing for later precise evictions to remove, so the merged plan
    ///   is a flush.
    /// * Otherwise dirty sets union, keeping the **minimum** distance per
    ///   `(type, node)`: [`evict_dirty`] evicts levels `d..=hops`, and
    ///   `min(d1, d2)..=hops` is exactly the union of the two ranges.
    /// * The merged epoch is the last plan's (plans are consecutive and
    ///   ascending), so applying it lands the cache on the same epoch the
    ///   sequence would have.
    ///
    /// This is what lets a slice that missed N epochs — or a writer
    /// ingesting an N-batch group — pay one cache sweep instead of N.
    pub fn merge(plans: &[InvalidationPlan]) -> Option<InvalidationPlan> {
        let last = plans.last()?;
        if plans.len() == 1 {
            return Some(last.clone());
        }
        if plans.iter().any(|p| p.flush) {
            return Some(InvalidationPlan::flush(last.epoch));
        }
        let mut dist: HashMap<(usize, usize), usize> = HashMap::new();
        for plan in plans {
            for &(ty, node, d) in plan.dirty.iter() {
                dist.entry((ty, node))
                    .and_modify(|e| *e = (*e).min(d))
                    .or_insert(d);
            }
        }
        Some(InvalidationPlan::precise(last.epoch, &dist))
    }
}

/// The normative eviction predicate of one (possibly merged) plan, in a
/// form that can be queried per entry instead of enumerating keys.
///
/// [`evict_dirty`] walks the dirty list and removes levels `d..=hops` by
/// key — the right shape for a cache slice, where the plan is small
/// relative to the cache. This struct states the same rule per entry, and
/// a unit test pins the two against each other:
/// under a plan `P` (including any [`InvalidationPlan::merge`] result),
/// a cached embedding keyed `(ty, node, level)` must be dropped **iff**
/// `P.flush`, or `P.dirty` contains `(ty, node)` at distance `d` with
/// `level >= d`. Levels below `d` survive: a change `d` hops away can
/// only reach an embedding whose receptive field spans at least `d` hops.
/// Predictions count as level `hops` of the entity type.
pub struct PlanFilter {
    flush: bool,
    dist: HashMap<(usize, usize), usize>,
}

impl PlanFilter {
    /// Compile `plan` into the predicate form (one hash per dirty node;
    /// merged plans already keep the minimum distance per node).
    pub fn new(plan: &InvalidationPlan) -> Self {
        let mut dist = HashMap::new();
        if !plan.flush {
            for &(ty, node, d) in plan.dirty.iter() {
                dist.entry((ty, node))
                    .and_modify(|e: &mut usize| *e = (*e).min(d))
                    .or_insert(d);
            }
        }
        PlanFilter {
            flush: plan.flush,
            dist,
        }
    }

    /// True when the plan flushes wholesale (every entry is evicted).
    pub fn flushes(&self) -> bool {
        self.flush
    }

    /// Must the embedding keyed `(ty, node, level)` be dropped under this
    /// plan?
    pub fn evicts(&self, ty: usize, node: usize, level: usize) -> bool {
        self.flush || self.dist.get(&(ty, node)).is_some_and(|&d| level >= d)
    }
}

/// Apply one plan's precise evictions to a cache slice: embeddings at
/// levels `d..=hops` for every dirty node, plus the tier-1 prediction for
/// dirty entity nodes. Returns `(embeddings_evicted, predictions_evicted)`
/// — counts of entries actually present, so idle slices report zeros.
/// Works on any [`CacheSlice`]: invalidation is keyed by
/// `(type, node, level)` regardless of how the payload is encoded.
pub fn evict_dirty(
    dirty: &[(usize, usize, usize)],
    hops: usize,
    entity_ty: usize,
    predictions: &mut Lru<usize, f64>,
    embeddings: &mut dyn CacheSlice,
) -> (u64, u64) {
    let mut emb = 0u64;
    let mut pred = 0u64;
    for &(ty, node, d) in dirty {
        for level in d..=hops {
            if embeddings.invalidate(ty, node, level) {
                emb += 1;
            }
        }
        if ty == entity_ty && predictions.remove(&node) {
            pred += 1;
        }
    }
    (emb, pred)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn precise(epoch: u64, entries: &[((usize, usize), usize)]) -> InvalidationPlan {
        InvalidationPlan::precise(epoch, &entries.iter().copied().collect())
    }

    #[test]
    fn merge_unions_dirty_with_min_distance() {
        let a = precise(3, &[((0, 1), 2), ((0, 2), 0)]);
        let b = precise(4, &[((0, 1), 1), ((1, 7), 3)]);
        let m = InvalidationPlan::merge(&[a, b]).unwrap();
        assert_eq!(m.epoch, 4);
        assert!(!m.flush);
        assert_eq!(*m.dirty, vec![(0, 1, 1), (0, 2, 0), (1, 7, 3)]);
    }

    #[test]
    fn merge_lets_flush_dominate() {
        let a = precise(5, &[((0, 1), 0)]);
        let b = InvalidationPlan::flush(6);
        let c = precise(7, &[((2, 2), 1)]);
        let m = InvalidationPlan::merge(&[a, b, c]).unwrap();
        assert_eq!(m.epoch, 7);
        assert!(m.flush);
        assert!(m.dirty.is_empty());
    }

    #[test]
    fn plan_filter_agrees_with_evict_dirty_on_every_level() {
        use crate::cache::EmbeddingCache;
        use crate::codec::Identity;
        use relgraph_gnn::EmbeddingStore;
        let hops = 2usize;
        let plan = precise(1, &[((0, 3), 1), ((1, 5), 0), ((0, 7), 2)]);
        let filter = PlanFilter::new(&plan);
        assert!(!filter.flushes());
        let mut tier = EmbeddingCache::<Identity<f64>>::new(1024);
        let mut predictions: Lru<usize, f64> = Lru::new(1024);
        let keys: Vec<(usize, usize, usize)> = (0..2)
            .flat_map(|ty| (0..8).flat_map(move |node| (0..=hops).map(move |l| (ty, node, l))))
            .collect();
        for &(ty, node, level) in &keys {
            tier.put(ty, node, level, vec![1.0]);
        }
        evict_dirty(&plan.dirty, hops, 0, &mut predictions, &mut tier);
        for &(ty, node, level) in &keys {
            let held = tier.get(ty, node, level).is_some();
            assert_eq!(
                held,
                !filter.evicts(ty, node, level),
                "filter and evict_dirty disagree at ({ty}, {node}, {level})"
            );
        }
        assert!(PlanFilter::new(&InvalidationPlan::flush(2)).evicts(9, 9, 0));
    }

    #[test]
    fn merge_of_one_is_identity_and_of_none_is_none() {
        let a = precise(9, &[((0, 0), 1)]);
        let m = InvalidationPlan::merge(std::slice::from_ref(&a)).unwrap();
        assert_eq!(m.epoch, 9);
        assert_eq!(*m.dirty, *a.dirty);
        assert!(InvalidationPlan::merge(&[]).is_none());
    }
}
