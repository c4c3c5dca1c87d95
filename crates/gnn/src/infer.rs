//! Per-node batch inference with cross-seed neighborhood deduplication —
//! the one inference walk every serving precision runs.
//!
//! [`NodeModel::predict`](crate::NodeModel::predict) extracts one disjoint
//! subgraph per seed, so two seeds sharing most of their neighborhood pay
//! for it twice. This module evaluates the layer recursion *per node of the
//! full graph* instead: the hop-ℓ embedding of a node is a pure function of
//! `(node type, node, level, anchor)` — its inputs are the most recent
//! `fanouts[k-ℓ]` anchor-visible neighbors per edge type (the exact
//! recency rule the temporal sampler applies when it expands that node) —
//! so a node reached from many seeds is computed **once** per batch and its
//! embedding is shared. The same purity is what makes embeddings safe to
//! cache across batches: an [`EmbeddingStore`] (e.g. the serving engine's
//! LRU) short-circuits recomputation without ever changing a value, so
//! cache-warm and cache-cold runs are bit-identical by construction.
//!
//! The walk — discovery, the store-probe protocol, bottom-up chunked
//! evaluation, store puts and the head fan-out — is written once,
//! [`predict_nodes`], generic over a [`WalkModel`]. Precision is the
//! model's business: [`NodeModel`] evaluates in `f64` on the autodiff tape,
//! [`InferModel32`](crate::InferModel32) in `f32` on the packed kernel.
//! Lossy stores take part through [`EmbeddingStore::canonicalize`] (the
//! rule is spelled out on [`predict_nodes`]).
//!
//! Per-node evaluation agrees with the per-seed batched path up to kernel
//! dispatch: both accumulate in the same per-element order, but tensor
//! *shapes* differ (single-row matmuls here vs stacked batches there), and
//! the matmul kernel is chosen by shape — so `f64` predictions match
//! `NodeModel::predict` to ≤ 1e-9, not necessarily to the bit. For
//! non-uniform fanout schedules the per-node rule evaluates a node with the
//! fanout of its *level*, whereas a sampled subgraph reuses the edge list
//! from the hop at which the node was first reached; with the default
//! uniform fanouts the two coincide.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use rayon::prelude::*;
use relgraph_graph::sampler::DEGREE_WINDOWS_DAYS;
use relgraph_graph::{HeteroGraph, NodeTypeId, SamplerConfig, ALWAYS_VISIBLE};
use relgraph_nn::{Activation, Binding};
use relgraph_obs as obs;
use relgraph_tensor::{Graph, Tensor};

use crate::sage::Aggregation;
use crate::train::{NodeModel, TaskKind};

const SECONDS_PER_DAY: i64 = 86_400;

/// Nodes per chunk in the parallel evaluation fan-out (one scratch arena
/// per chunk). Chunks are independent, so serial and parallel evaluation
/// produce identical bits.
const EVAL_CHUNK: usize = 64;

/// Embedding key: `(node type, node, level)`.
type Key = (usize, usize, usize);

/// An external cache of per-node embeddings of scalar `T`, keyed `(node
/// type, node, level)`. All entries are implicitly relative to one anchor
/// time — the owner must flush (or key) the store when the anchor changes,
/// and must evict entries whose ℓ-hop neighborhood was touched by an
/// ingest delta.
///
/// `Send` is part of the contract: stores are owned by per-shard serving
/// worker threads, so an implementation must be movable across threads
/// (it is never *shared* — each shard owns its slice exclusively).
pub trait EmbeddingStore<T>: Send {
    /// Cached embedding, if present (may update recency bookkeeping).
    fn get(&mut self, ty: usize, node: usize, level: usize) -> Option<Vec<T>>;
    /// Offer a freshly computed embedding to the cache.
    fn put(&mut self, ty: usize, node: usize, level: usize, emb: Vec<T>);
    /// Project a fresh embedding onto exactly what a warm [`Self::get`]
    /// would return after [`Self::put`] of this value — the contract is
    /// `canonicalize(v) == get(..)` after `put(.., v)` (ignoring
    /// eviction). Lossless stores return the input unchanged (the
    /// default); a quantizing store round-trips it through its codec.
    fn canonicalize(&self, emb: Vec<T>) -> Vec<T> {
        emb
    }
}

/// A store that caches nothing and canonicalizes to identity: every batch
/// recomputes its full (deduped) recursion. The cold-path reference in
/// equivalence tests, in any precision.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoCache;

impl<T> EmbeddingStore<T> for NoCache {
    fn get(&mut self, _ty: usize, _node: usize, _level: usize) -> Option<Vec<T>> {
        None
    }
    fn put(&mut self, _ty: usize, _node: usize, _level: usize, _emb: Vec<T>) {}
}

/// The walk parameters of a fitted model.
pub struct WalkSpec<'a> {
    /// The entity node type the model predicts for.
    pub seed_type: usize,
    /// Number of message-passing layers (the hop count `k`).
    pub num_layers: usize,
    /// The sampler configuration the walk reproduces.
    pub sampler_cfg: &'a SamplerConfig,
    /// The task, which selects the head's output transform.
    pub task: TaskKind,
    /// Label de-standardization constants `(mean, std)` for regression.
    pub label_scale: (f64, f64),
}

/// What [`predict_nodes`] needs from a fitted model: the walk parameters,
/// plus the three places arithmetic happens — the level-0 row, one layer
/// applied to one node, and the head. Everything else (which nodes, in
/// which order, what is cached) is the walk's, and identical across
/// implementations.
pub trait WalkModel: Sync {
    /// The scalar embeddings are computed and cached in.
    type Scalar: Copy + Send + Sync;
    /// Per-chunk scratch, reused across the nodes of one chunk.
    type Scratch: Default;
    /// Observability names: the timer, then the `seeds`, `evals` and
    /// `store_hits` counters.
    const OBS: [&'static str; 4];
    /// The walk parameters.
    fn spec(&self) -> WalkSpec<'_>;
    /// A node's level-0 embedding, from its `f64` input row.
    fn input_row(&self, row: Vec<f64>) -> Vec<Self::Scalar>;
    /// Layer `level` (1-based) applied to one node.
    fn eval_node(
        &self,
        scratch: &mut Self::Scratch,
        level: usize,
        input: &NodeInputs<'_, Self::Scalar>,
    ) -> Vec<Self::Scalar>;
    /// The head's raw output (logit, or standardized value) for one
    /// top-level embedding.
    fn head(&self, scratch: &mut Self::Scratch, emb: &[Self::Scalar]) -> f64;
}

/// A shared model walks as itself (engines hold `Arc<NodeModel>`).
impl<M: WalkModel + Send + ?Sized> WalkModel for std::sync::Arc<M> {
    type Scalar = M::Scalar;
    type Scratch = M::Scratch;
    const OBS: [&'static str; 4] = M::OBS;

    fn spec(&self) -> WalkSpec<'_> {
        (**self).spec()
    }

    fn input_row(&self, row: Vec<f64>) -> Vec<Self::Scalar> {
        (**self).input_row(row)
    }

    fn eval_node(
        &self,
        scratch: &mut Self::Scratch,
        level: usize,
        input: &NodeInputs<'_, Self::Scalar>,
    ) -> Vec<Self::Scalar> {
        (**self).eval_node(scratch, level, input)
    }

    fn head(&self, scratch: &mut Self::Scratch, emb: &[Self::Scalar]) -> f64 {
        (**self).head(scratch, emb)
    }
}

/// One node's inputs to one layer, read from the walk's memo: its own
/// embedding and its kept neighbors' embeddings, all one level down.
pub struct NodeInputs<'a, T> {
    /// The node's type.
    pub ty: usize,
    /// The node's own embedding at the level below.
    pub x_self: &'a [T],
    memo: &'a HashMap<Key, Vec<T>>,
    lists: &'a [(usize, usize, Vec<usize>)],
    below: usize,
}

impl<'a, T: Copy> NodeInputs<'a, T> {
    /// Edge types that kept at least one neighbor, ascending, as `(edge
    /// type, neighbor node type, kept neighbors)` with the neighbors in
    /// ascending-time order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, &'a [usize])> {
        self.lists
            .iter()
            .filter(|(_, _, nbrs)| !nbrs.is_empty())
            .map(|(et, dst, nbrs)| (*et, *dst, nbrs.as_slice()))
    }

    /// Append the embeddings of the `dst`-typed nodes `nbrs` to `out`,
    /// row-major in the given order; returns the row width.
    pub fn stack(&self, dst: usize, nbrs: &[usize], out: &mut Vec<T>) -> usize {
        let d = self.memo[&(dst, nbrs[0], self.below)].len();
        out.reserve(nbrs.len() * d);
        for &nbr in nbrs {
            out.extend_from_slice(&self.memo[&(dst, nbr, self.below)]);
        }
        d
    }
}

/// Predict for `nodes` (all of `node_type`, all anchored at `anchor`),
/// deduplicating shared neighborhoods across the batch and reusing any
/// embeddings `store` already holds. Returns predictions in input order on
/// the same scale as [`NodeModel::predict`], in the model's precision
/// (widened to `f64` only for the head's final sigmoid / label rescale).
///
/// Fresh embeddings are memoized *canonicalized* — what a warm
/// [`EmbeddingStore::get`] would return — so every later level consumes
/// exactly the value a cache hit would have supplied, while the store is
/// offered the *original* (a quantizing store encodes it once). That is
/// why warm and cold runs agree bitwise even under lossy storage.
///
/// # Panics
/// Panics if `node_type` differs from the type the model was trained on,
/// or if a node index is out of range for the graph.
pub fn predict_nodes<M: WalkModel + ?Sized>(
    model: &M,
    graph: &HeteroGraph,
    node_type: NodeTypeId,
    nodes: &[usize],
    anchor: i64,
    store: &mut dyn EmbeddingStore<M::Scalar>,
) -> Vec<f64> {
    let spec = model.spec();
    assert_eq!(
        node_type.0, spec.seed_type,
        "seed node type differs from the model's training entity type"
    );
    let t0 = obs::enabled().then(std::time::Instant::now);
    let k = spec.num_layers;
    let cfg = spec.sampler_cfg;

    // --- Discovery (top-down): collect the set of (type, node, level)
    // embeddings the batch needs, deduplicating across seeds and pruning
    // every subtree the store already covers.
    let mut front = Frontier {
        levels: vec![Vec::new(); k + 1],
        memo: HashMap::with_capacity(nodes.len()),
        store,
        store_hits: 0,
    };
    for &v in nodes {
        front.request(node_type.0, v, k);
    }
    let mut clists: HashMap<Key, Vec<(usize, usize, Vec<usize>)>> = HashMap::new();
    for level in (1..=k).rev() {
        let items = std::mem::take(&mut front.levels[level]);
        let fanout = cfg.fanouts[k - level];
        for &(ty, node) in &items {
            let lists = child_lists(graph, cfg, ty, node, fanout, anchor);
            front.request(ty, node, level - 1);
            for (_, dst, nbrs) in &lists {
                for &nbr in nbrs {
                    front.request(*dst, nbr, level - 1);
                }
            }
            clists.insert((ty, node, level), lists);
        }
        front.levels[level] = items;
    }
    // --- Evaluation (bottom-up): each level's nodes are independent given
    // the level below, so they fan out across threads in fixed-size
    // chunks. Results merge in worklist order.
    let mut fresh: Vec<Vec<Vec<M::Scalar>>> = Vec::with_capacity(k + 1);
    for (level, level_nodes) in front.levels.iter().enumerate() {
        let embs = if level == 0 {
            par_chunks(level_nodes, |_: &mut (), &(ty, node)| {
                model.input_row(feature_row(graph, cfg, ty, node, anchor))
            })
        } else {
            let memo = &front.memo;
            par_chunks(level_nodes, |scratch, &(ty, node)| {
                let input = NodeInputs {
                    ty,
                    x_self: &memo[&(ty, node, level - 1)],
                    memo,
                    lists: &clists[&(ty, node, level)],
                    below: level - 1,
                };
                model.eval_node(scratch, level, &input)
            })
        };
        for (&(ty, node), emb) in level_nodes.iter().zip(&embs) {
            front
                .memo
                .insert((ty, node, level), front.store.canonicalize(emb.clone()));
        }
        fresh.push(embs);
    }

    // Offer every fresh embedding to the store, bottom level first and in
    // worklist order (deterministic LRU recency).
    for (level, (level_nodes, embs)) in front.levels.iter().zip(fresh).enumerate() {
        for (&(ty, node), emb) in level_nodes.iter().zip(embs) {
            front.store.put(ty, node, level, emb);
        }
    }

    // --- Head: per-seed MLP over the top-level embedding.
    let (label_mean, label_std) = spec.label_scale;
    let preds = par_chunks(nodes, |scratch, &v| {
        let y = model.head(scratch, &front.memo[&(node_type.0, v, k)]);
        match spec.task {
            TaskKind::Binary => 1.0 / (1.0 + (-y).exp()),
            TaskKind::Regression => y * label_std + label_mean,
        }
    });

    if let Some(t0) = t0 {
        let [timer, seeds, evals, hits] = M::OBS;
        obs::add(seeds, nodes.len() as u64);
        obs::add(
            evals,
            front.levels.iter().map(Vec::len).sum::<usize>() as u64,
        );
        obs::add(hits, front.store_hits);
        obs::record_ns(timer, t0.elapsed().as_nanos() as u64);
    }
    preds
}

/// Map `f` over `items` in [`EVAL_CHUNK`]-sized chunks across threads, one
/// scratch per chunk, concatenating results in input order. At most one
/// chunk (every level of a warm micro-batch) runs inline: the rayon shim
/// would run it inline too, but only after reading `RAYON_NUM_THREADS`
/// and allocating its batch vectors, which costs more than a warm head.
fn par_chunks<I: Sync, R: Send, S: Default>(
    items: &[I],
    f: impl Fn(&mut S, &I) -> R + Sync,
) -> Vec<R> {
    let run = |chunk: &[I]| -> Vec<R> {
        let mut scratch = S::default();
        chunk.iter().map(|item| f(&mut scratch, item)).collect()
    };
    if items.len() <= EVAL_CHUNK {
        return run(items);
    }
    let chunks: Vec<&[I]> = items.chunks(EVAL_CHUNK).collect();
    let out: Vec<Vec<R>> = chunks.par_iter().map(|chunk| run(chunk)).collect();
    out.into_iter().flatten().collect()
}

/// The discovery worklist: per-level nodes still to evaluate, plus
/// everything already memoized from the store. A queued node is memoized
/// as an empty placeholder row, which its evaluation overwrites before any
/// level above reads it.
struct Frontier<'s, T> {
    levels: Vec<Vec<(usize, usize)>>,
    memo: HashMap<Key, Vec<T>>,
    store: &'s mut dyn EmbeddingStore<T>,
    store_hits: u64,
}

impl<T> Frontier<'_, T> {
    /// Memoize `(ty, node, level)` from the store, or queue it for
    /// evaluation, unless it is already memoized or queued.
    fn request(&mut self, ty: usize, node: usize, level: usize) {
        let Entry::Vacant(slot) = self.memo.entry((ty, node, level)) else {
            return;
        };
        match self.store.get(ty, node, level) {
            Some(emb) => {
                self.store_hits += 1;
                slot.insert(emb);
            }
            None => {
                slot.insert(Vec::new());
                self.levels[level].push((ty, node));
            }
        }
    }
}

/// The node's kept neighbors per edge type, as `(edge type, neighbor node
/// type, neighbors)`: the most recent `fanout` anchor-visible
/// out-neighbors, in ascending-time (slice) order — exactly what the
/// temporal sampler keeps when it expands this node.
fn child_lists(
    graph: &HeteroGraph,
    cfg: &SamplerConfig,
    ty: usize,
    node: usize,
    fanout: usize,
    anchor: i64,
) -> Vec<(usize, usize, Vec<usize>)> {
    let mut out = Vec::new();
    for &et in graph.edge_types_from(NodeTypeId(ty)) {
        let meta = graph.edge_type(et);
        let (visible, _) = if cfg.temporal {
            graph.visible_slices(et, node, anchor)
        } else {
            graph.neighbor_slices(et, node)
        };
        let start = visible.len().saturating_sub(fanout);
        let mut nbrs = Vec::with_capacity(visible.len() - start);
        for &nbr in &visible[start..] {
            let nbr = nbr as usize;
            if cfg.temporal && graph.node_time(meta.dst, nbr) > anchor {
                continue;
            }
            nbrs.push(nbr);
        }
        out.push((et.0, meta.dst.0, nbrs));
    }
    out
}

/// The level-0 input row for a node — identical (bitwise) to the row
/// [`build_batch`](crate::batch::build_batch) produces for it.
fn feature_row(
    graph: &HeteroGraph,
    cfg: &SamplerConfig,
    ty: usize,
    node: usize,
    anchor: i64,
) -> Vec<f64> {
    let tyid = NodeTypeId(ty);
    let raw = graph.features(tyid);
    let nw = DEGREE_WINDOWS_DAYS.len();
    let mut row = vec![0.0; raw.dim() + 2 + graph.num_edge_types() * nw];
    for (j, &x) in raw.row(node).iter().enumerate() {
        row[j] = x as f64;
    }
    let base = raw.dim();
    let nt = graph.node_time(tyid, node);
    if nt == ALWAYS_VISIBLE {
        row[base + 1] = 1.0;
    } else {
        let age_days = ((anchor - nt).max(0)) as f64 / SECONDS_PER_DAY as f64;
        row[base] = (1.0 + age_days).ln();
    }
    if cfg.degree_features {
        for &et in graph.edge_types_from(tyid) {
            for (w, &days) in DEGREE_WINDOWS_DAYS.iter().enumerate() {
                let hi = if cfg.temporal { anchor } else { i64::MAX };
                let lo = if days == 0 {
                    i64::MIN
                } else {
                    hi.saturating_sub(days * SECONDS_PER_DAY)
                };
                let deg = graph.degree_between(et, node, lo, hi) as u32;
                row[base + 2 + et.0 * nw + w] = (1.0 + deg as f64).ln();
            }
        }
    }
    row
}

/// The `f64` walk model: exact tape-based arithmetic, bit-identical to
/// what training-time code computes for the same shapes.
impl WalkModel for NodeModel {
    type Scalar = f64;
    type Scratch = (Graph, Binding);
    const OBS: [&'static str; 4] = [
        "gnn.infer",
        "gnn.infer.seeds",
        "gnn.infer.evals",
        "gnn.infer.store_hits",
    ];

    fn spec(&self) -> WalkSpec<'_> {
        WalkSpec {
            seed_type: self.gnn().seed_type(),
            num_layers: self.gnn().num_layers(),
            sampler_cfg: self.sampler_cfg(),
            task: self.task(),
            label_scale: self.label_scale(),
        }
    }

    fn input_row(&self, row: Vec<f64>) -> Vec<f64> {
        row
    }

    /// One SAGE layer applied to one node: fused self transform, plus one
    /// message matmul + segment aggregation per edge type with kept
    /// neighbors, in ascending edge-type order — the per-element
    /// accumulation order of the batched layer forward.
    fn eval_node(
        &self,
        (g, b): &mut (Graph, Binding),
        level: usize,
        input: &NodeInputs<'_, f64>,
    ) -> Vec<f64> {
        g.reset();
        b.reset();
        let layer = &self.gnn().layers()[level - 1];
        let has_children = input.edges().next().is_some();
        let x = g.constant(Tensor::from_vec(
            1,
            input.x_self.len(),
            input.x_self.to_vec(),
        ));
        // Nodes with no kept neighbors fuse the activation into the self
        // transform (the batched layer does the same per node type).
        let act = if has_children {
            Activation::Identity
        } else {
            layer.activation()
        };
        let mut acc = layer
            .self_lin(input.ty)
            .forward_act(g, b, self.ps(), x, act);
        for (et, dst, nbrs) in input.edges() {
            let mut data = Vec::new();
            let d = input.stack(dst, nbrs, &mut data);
            let stacked = g.constant(Tensor::from_vec(nbrs.len(), d, data));
            let msg = layer.edge_lin(et).forward(g, b, self.ps(), stacked);
            let agg = match layer.aggregation() {
                Aggregation::Mean => g.segment_mean(msg, vec![0; nbrs.len()], 1),
                Aggregation::Sum => g.segment_sum(msg, vec![0; nbrs.len()], 1),
                Aggregation::Max => g.segment_max(msg, vec![0; nbrs.len()], 1),
            }
            .expect("single segment is always in range");
            acc = g.add(acc, agg);
        }
        if has_children {
            acc = layer.activation().apply(g, acc);
        }
        g.value(acc).row(0).to_vec()
    }

    fn head(&self, (g, b): &mut (Graph, Binding), emb: &[f64]) -> f64 {
        g.reset();
        b.reset();
        let x = g.constant(Tensor::from_vec(1, emb.len(), emb.to_vec()));
        let out = self.gnn().head().forward(g, b, self.ps(), x);
        g.value(out).get(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train_node_model, TrainConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use relgraph_graph::{FeatureMatrix, HeteroGraphBuilder, Seed};

    /// Users share items (overlapping neighborhoods) with creation times,
    /// so temporal visibility and degree windows are all exercised.
    fn shared_item_graph(n_users: usize, seed: u64) -> (HeteroGraph, Vec<(Seed, f64)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_items = (n_users / 2).max(4);
        let mut b = HeteroGraphBuilder::new();
        let u = b.add_node_type("user", n_users);
        let i = b.add_node_type("item", n_items);
        let owns = b.add_edge_type("owns", u, i);
        let owned_by = b.add_edge_type("owned_by", i, u);
        let mut item_feats = FeatureMatrix::zeros(n_items, 2);
        let mut item_times = vec![0i64; n_items];
        for (item, time) in item_times.iter_mut().enumerate() {
            item_feats.row_mut(item)[0] = rng.gen_range(-1.0f64..1.0) as f32;
            item_feats.row_mut(item)[1] = 1.0;
            *time = rng.gen_range(0..50) * SECONDS_PER_DAY;
        }
        let mut labels = Vec::with_capacity(n_users);
        for user in 0..n_users {
            let mut total = 0.0;
            for k in 0..3 {
                // Deliberate overlap: consecutive users share items.
                let item = (user + k * 7) % n_items;
                total += item_feats.row(item)[0] as f64;
                let t = item_times[item] + (k as i64 + 1) * SECONDS_PER_DAY;
                b.add_edge(owns, user, item, t);
                b.add_edge(owned_by, item, user, t);
            }
            labels.push(if total > 0.0 { 1.0 } else { 0.0 });
        }
        b.set_node_times(i, item_times);
        b.set_features(i, item_feats);
        b.set_features(u, FeatureMatrix::from_rows(n_users, 1, vec![1.0; n_users]));
        let g = b.finish().unwrap();
        let anchor = 100 * SECONDS_PER_DAY;
        let examples = labels
            .into_iter()
            .enumerate()
            .map(|(n, y)| {
                (
                    Seed {
                        node_type: NodeTypeId(0),
                        node: n,
                        time: anchor,
                    },
                    y,
                )
            })
            .collect();
        (g, examples)
    }

    fn model_for(g: &HeteroGraph, examples: &[(Seed, f64)]) -> NodeModel {
        let cfg = TrainConfig {
            epochs: 6,
            fanouts: vec![4, 4],
            hidden_dim: 8,
            seed: 3,
            ..Default::default()
        };
        train_node_model(g, TaskKind::Binary, examples, &[], &cfg).unwrap()
    }

    #[test]
    fn matches_per_seed_prediction_closely() {
        let (g, examples) = shared_item_graph(40, 1);
        let model = model_for(&g, &examples);
        let seeds: Vec<Seed> = examples.iter().map(|&(s, _)| s).collect();
        let reference = model.predict(&g, &seeds);
        let nodes: Vec<usize> = seeds.iter().map(|s| s.node).collect();
        let got = predict_nodes(
            &model,
            &g,
            NodeTypeId(0),
            &nodes,
            seeds[0].time,
            &mut NoCache,
        );
        assert_eq!(got.len(), reference.len());
        for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "seed {i}: per-node {a} vs per-seed {b}"
            );
        }
    }

    /// A naive unbounded store: a second batch served entirely from the
    /// cache must reproduce the cold predictions bit for bit, and so must
    /// a partial cache (only some entries retained).
    fn assert_store_reuse_is_bit_identical<M: WalkModel>(
        model: &M,
        g: &HeteroGraph,
        nodes: &[usize],
        anchor: i64,
    ) {
        struct MapStore<T>(HashMap<Key, Vec<T>>);
        impl<T: Clone + Send> EmbeddingStore<T> for MapStore<T> {
            fn get(&mut self, ty: usize, node: usize, level: usize) -> Option<Vec<T>> {
                self.0.get(&(ty, node, level)).cloned()
            }
            fn put(&mut self, ty: usize, node: usize, level: usize, emb: Vec<T>) {
                self.0.insert((ty, node, level), emb);
            }
        }
        let mut store = MapStore(HashMap::new());
        let cold = predict_nodes(model, g, NodeTypeId(0), nodes, anchor, &mut store);
        assert!(!store.0.is_empty(), "store should have been populated");
        let warm = predict_nodes(model, g, NodeTypeId(0), nodes, anchor, &mut store);
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.to_bits(), b.to_bits(), "warm diverged from cold");
        }
        let mut partial = MapStore(HashMap::new());
        for (&(ty, node, level), emb) in store.0.iter() {
            if (ty + node) % 3 == 0 {
                partial.0.insert((ty, node, level), emb.clone());
            }
        }
        let mixed = predict_nodes(model, g, NodeTypeId(0), nodes, anchor, &mut partial);
        for (a, b) in cold.iter().zip(&mixed) {
            assert_eq!(a.to_bits(), b.to_bits(), "partial-cache run diverged");
        }
    }

    #[test]
    fn store_reuse_is_bit_identical() {
        // f64: the tape-based model.
        let (g, examples) = shared_item_graph(30, 2);
        let model = model_for(&g, &examples);
        let nodes: Vec<usize> = examples.iter().map(|&(s, _)| s.node).collect();
        assert_store_reuse_is_bit_identical(&model, &g, &nodes, examples[0].0.time);

        // f32: the packed-kernel model.
        let (g, examples) = crate::infer32::tests::tiny_graph();
        let cfg = TrainConfig {
            epochs: 3,
            fanouts: vec![3, 3],
            hidden_dim: 8,
            seed: 9,
            ..Default::default()
        };
        let model = train_node_model(&g, TaskKind::Binary, &examples, &[], &cfg).unwrap();
        let m32 = crate::InferModel32::from_model(&model);
        let nodes: Vec<usize> = examples.iter().map(|&(s, _)| s.node).collect();
        assert_store_reuse_is_bit_identical(&m32, &g, &nodes, examples[0].0.time);
    }

    #[test]
    fn batch_deduplicates_shared_neighborhoods() {
        let (g, examples) = shared_item_graph(40, 4);
        let model = model_for(&g, &examples);
        let nodes: Vec<usize> = examples.iter().map(|&(s, _)| s.node).collect();
        let anchor = examples[0].0.time;
        // Per-seed sampling visits ~|seeds| * (1 + 3 + 9) nodes; the deduped
        // recursion can touch at most every (node, level) pair once.
        let k = model.gnn().num_layers();
        let max_unique: usize = (0..=k)
            .map(|_| g.num_nodes(NodeTypeId(0)) + g.num_nodes(NodeTypeId(1)))
            .sum();
        // Duplicate the request list: identical predictions, no extra work.
        let doubled: Vec<usize> = nodes.iter().chain(nodes.iter()).copied().collect();
        let preds = predict_nodes(&model, &g, NodeTypeId(0), &doubled, anchor, &mut NoCache);
        assert_eq!(preds.len(), doubled.len());
        for (a, b) in preds[..nodes.len()].iter().zip(&preds[nodes.len()..]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(max_unique > 0);
    }
}
