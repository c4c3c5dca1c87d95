//! # relgraph-serve
//!
//! High-throughput prediction serving over a fitted predictive query:
//! train once, then answer per-entity requests from a maintained graph at
//! interactive latency.
//!
//! * [`engine`] — [`ServeEngine`]: owns the database, the incrementally
//!   maintained graph, the trained model, and a two-tier cache (final
//!   predictions + hop-ℓ node embeddings) with **precise delta
//!   invalidation**: each ingested batch marks exactly the nodes whose
//!   inputs changed and evicts cached state within k hops of them, so
//!   cache-warm predictions stay bit-identical to a cold rebuild; and
//!   [`predict_batch_cached`], the one cache-aware scorer every precision
//!   and every slice runs (each engine picks its precision's walk model
//!   and codec in one place);
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
//! * [`protocol`] — the `relgraph serve` JSONL wire format;
//! * [`sharded`] — [`ShardedEngine`]: the concurrent tier — hash-routed
//!   cache slices, each behind a lock and scored inline by whichever
//!   caller thread needs it, against epoch-swapped graph snapshots
//!   ([`epoch`]), with one writer publishing deltas as [`invalidate`]
//!   plans every slice replays; any shard count is bit-identical to one
//!   [`ServeEngine`];
//! * [`server`] — the TCP/Unix-socket JSONL front-end over the sharded
//!   tier, one handler thread per connection, each scoring its own
//!   requests.
//!
//! ## Example
//!
//! ```no_run
//! use relgraph_datagen::{generate_ecommerce, EcommerceConfig};
//! use relgraph_pq::ExecConfig;
//! use relgraph_serve::{ServeConfig, ServeEngine};
//!
//! let db = generate_ecommerce(&EcommerceConfig::default()).unwrap();
//! let mut engine = ServeEngine::fit(
//!     db,
//!     "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id",
//!     &ExecConfig::default(),
//!     ServeConfig::default(),
//! ).unwrap();
//! let p = engine.predict_row(0); // cold: computes + caches
//! assert_eq!(engine.predict_row(0), p); // warm: served from cache
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
pub use engine::{
    predict_batch_cached, GroupIngestOutcome, IngestOutcome, ServeConfig, ServeEngine,
};
pub use epoch::EpochCell;
pub use error::{ServeError, ServeResult};
pub use invalidate::{InvalidationPlan, PlanFilter};
pub use persist::{
    load_model, save_engine, save_model, warm_engine, warm_sharded, warm_sharded_partial,
    ModelSnapshot, PartialWarmBoot, WarmBootReport,
};
pub use protocol::{parse_request, recover_id, response_err, response_ok, Request};
pub use server::{bind, handle_line, ServerListener, MAX_LINE_BYTES};
pub use sharded::{GraphSnapshot, ShardedEngine, PLAN_HISTORY};
