//! # relgraph-gnn
//!
//! Temporal heterogeneous graph neural networks over sampled subgraphs —
//! the model family the paper's predictive queries compile into.
//!
//! * [`batch`] converts a [`SampledSubgraph`](relgraph_graph::SampledSubgraph)
//!   into dense tensors, appending a relative-age feature per node (how long
//!   before the anchor the row appeared);
//! * [`sage`] implements one heterogeneous GraphSAGE-style layer: per-type
//!   self transform plus per-edge-type mean aggregation of neighbor
//!   messages;
//! * [`model`] stacks layers into a [`HeteroGnn`] producing seed-entity
//!   embeddings;
//! * [`train`] trains node-level models (binary classification with
//!   BCE, regression with Huber on standardized targets), with mini-batch
//!   Adam, gradient clipping and early stopping;
//! * [`infer`] is the serving-time inference walk: per-node evaluation
//!   with cross-seed neighborhood dedup and an optional embedding store,
//!   generic over a [`WalkModel`] — [`NodeModel`] in `f64`, or the
//!   down-converted [`InferModel32`] in `f32` ([`infer32`]);
//! * [`recommend`] trains a two-tower recommendation model (GNN user tower,
//!   linear item tower) with a BPR ranking loss.
//!
//! Training and prediction report timings, per-epoch loss curves and
//! sampler statistics through `relgraph-obs` when a sink is installed.
//!
//! ## Example
//!
//! ```
//! use relgraph_gnn::{train_node_model, TaskKind, TrainConfig};
//! use relgraph_graph::{HeteroGraphBuilder, Seed};
//!
//! // Ten users; the first five own an item, the rest own none.
//! let mut b = HeteroGraphBuilder::new();
//! let user = b.add_node_type("user", 10);
//! let item = b.add_node_type("item", 5);
//! let owns = b.add_edge_type("owns", user, item);
//! for u in 0..5 {
//!     b.add_edge(owns, u, u, 1);
//! }
//! let g = b.finish().unwrap();
//!
//! let examples: Vec<(Seed, f64)> = (0..10)
//!     .map(|u| {
//!         let seed = Seed { node_type: user, node: u, time: 10 };
//!         (seed, if u < 5 { 1.0 } else { 0.0 })
//!     })
//!     .collect();
//! let cfg = TrainConfig {
//!     epochs: 4,
//!     fanouts: vec![4],
//!     hidden_dim: 8,
//!     ..Default::default()
//! };
//! let model = train_node_model(&g, TaskKind::Binary, &examples, &[], &cfg).unwrap();
//! let probs = model.predict(&g, &[examples[0].0, examples[9].0]);
//! assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
//! ```

pub mod batch;
pub mod error;
pub mod infer;
pub mod infer32;
pub mod model;
pub mod recommend;
pub mod sage;
pub mod train;

pub use batch::{build_batch, Batch};
pub use error::{GnnError, GnnResult};
pub use infer::{predict_nodes, EmbeddingStore, NoCache, NodeInputs, WalkModel, WalkSpec};
pub use infer32::{InferModel32, Precision};
pub use model::{GnnConfig, HeteroGnn};
pub use recommend::{train_two_tower, TwoTowerConfig, TwoTowerModel};
pub use sage::Aggregation;
pub use train::{
    train_multiclass_model, train_node_model, ModelState, MulticlassModel, NodeModel, TaskKind,
    TrainConfig, TrainReport,
};
