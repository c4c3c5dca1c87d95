//! # relgraph-serve
//!
//! High-throughput prediction serving over a fitted predictive query:
//! train once, then answer per-entity requests from a maintained graph at
//! interactive latency.
//!
//! * [`sharded`] — [`ShardedEngine`], the one serving engine: it owns the
//!   fitted model, publishes the database and its incrementally maintained
//!   graph as epoch-swapped snapshots ([`epoch`]), and serves from `N`
//!   hash-routed cache slices (final predictions + hop-ℓ node embeddings),
//!   each behind a lock and scored inline by whichever caller thread needs
//!   it. One shard is the single-threaded configuration; any shard count
//!   is bit-identical;
//! * [`invalidate`] — **precise delta invalidation**: each ingest marks
//!   exactly the nodes whose inputs changed and publishes an
//!   [`InvalidationPlan`] that every slice replays when it catches up,
//!   evicting cached state within k hops of them, so cache-warm
//!   predictions stay bit-identical to a cold rebuild;
//! * [`engine`] — [`ServeConfig`], the ingest outcome types, and
//!   [`predict_batch_cached`], the one cache-aware scorer every precision
//!   and every slice runs (the precision's walk model and codec are
//!   picked in one place);
//! * [`batcher`] — [`MicroBatcher`]: size- and deadline-bounded request
//!   coalescing, feeding the deduplicating batch inference path in
//!   `relgraph-gnn`;
//! * [`cache`] — the bounded [`Lru`] both tiers are built from, the one
//!   [`EmbeddingCache`] (generic over its [`RowCodec`]; [`CacheSlice`] is
//!   its codec-free face for invalidation and stats), plus [`CacheStats`]
//!   accounting surfaced in run reports;
//! * [`codec`] — the [`RowCodec`]s embedding rows are stored through, one
//!   per `--precision`: [`Identity<f64>`], [`Identity<f32>`] and the 8-bit
//!   quantized [`Q8`]; a codec's round trip is the cache's
//!   `canonicalize`, which keeps warm ≡ cold bitwise in every mode (the
//!   tolerance story is in `DESIGN.md` §15);
//! * [`persist`] — warm-start snapshots and warm boot ([`warm_sharded`]);
//! * [`protocol`] — the `relgraph serve` JSONL wire format;
//! * [`server`] — the TCP/Unix-socket JSONL front-end over the engine,
//!   one handler thread per connection, each scoring its own requests.
//!
//! ## Example
//!
//! ```
//! use relgraph_datagen::{generate_ecommerce, EcommerceConfig};
//! use relgraph_pq::ExecConfig;
//! use relgraph_serve::{ServeConfig, ShardedEngine};
//!
//! let db = generate_ecommerce(&EcommerceConfig {
//!     customers: 30,
//!     products: 8,
//!     ..Default::default()
//! })
//! .unwrap();
//! let exec = ExecConfig {
//!     epochs: 1,
//!     hidden_dim: 8,
//!     fanouts: vec![4, 4],
//!     ..Default::default()
//! };
//! let engine = ShardedEngine::fit(
//!     db,
//!     "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id",
//!     &exec,
//!     ServeConfig::default(),
//!     1, // shards
//! )
//! .unwrap();
//! let rows = engine.deploy_entities().unwrap();
//! let cold = engine.predict_batch_rows(&rows[..1]); // computes + caches
//! let warm = engine.predict_batch_rows(&rows[..1]); // served from cache
//! assert_eq!(cold[0].to_bits(), warm[0].to_bits());
//! assert_eq!(engine.stats().prediction_hits, 1);
//! ```

#![warn(missing_docs)]

pub mod batcher;
pub mod cache;
pub mod codec;
pub mod engine;
pub mod epoch;
pub mod error;
pub mod invalidate;
pub mod persist;
pub mod protocol;
pub mod server;
pub mod sharded;

pub use batcher::MicroBatcher;
pub use cache::{CacheSlice, CacheStats, EmbeddingCache, Lru};
pub use codec::{dequantize_row, quantize_row, Identity, QuantizedRow, RowCodec, Q8};
pub use engine::{predict_batch_cached, GroupIngestOutcome, IngestOutcome, ServeConfig};
pub use epoch::EpochCell;
pub use error::{ServeError, ServeResult};
pub use invalidate::InvalidationPlan;
pub use persist::{
    load_model, save_model, warm_sharded, warm_sharded_partial, ModelSnapshot, PartialWarmBoot,
    WarmBootReport,
};
pub use protocol::{parse_request, recover_id, response_err, response_ok, Request};
pub use server::{bind, handle_line, ServerListener, MAX_LINE_BYTES};
pub use sharded::{GraphSnapshot, ShardedEngine, PLAN_HISTORY};
