//! Before/after throughput snapshot for the parallel hot-path engine.
//!
//! Measures, in a single run, the pre-optimization baselines kept in-tree
//! (full-edge-list scan sampling, serial naive matmul with materialized
//! transposes) against the current implementations (temporal CSR sampling
//! with rayon fan-out, cache-blocked fused matmul kernels), and writes the
//! results to `BENCH_pipeline.json` with a stable schema:
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "unix_time": 1700000000,
//!   "threads": 8,
//!   "shards": 8,
//!   "commit_window": 8,
//!   "clients": 4,
//!   "sections": [
//!     {"name": "...", "unit": "...", "precision": "f64", "before": 1.0,
//!      "after": 3.0, "speedup": 3.0},
//!     ...
//!   ],
//!   "end_to_end_speedup": 3.0
//! }
//! ```
//!
//! `before`/`after` are throughputs (higher is better); `speedup` is
//! `after / before`. The `epoch` section is the end-to-end number the
//! optimization work is judged by. `precision` records the numeric mode of
//! the section's "after" side (`f64`, `f32` or `q8`) so a floor tuned for
//! one mode is never compared against a number measured in another;
//! `perf_snapshot --check` refuses such cross-mode comparisons outright.
//! Sections measured on the sharded tier additionally record the shard
//! count they ran at (`"shards": N`, additive — absent elsewhere), and the
//! top-level `clients` field records the concurrent client threads driving
//! the `serving_concurrent` section, so a reading is never compared across
//! client loads.

use std::time::Instant;

use relgraph_datagen::{generate_ecommerce, EcommerceConfig};
use relgraph_db2graph::{build_graph, update_graph, ConvertOptions, GraphCursor};
use relgraph_gnn::batch::{build_batch, input_dims};
use relgraph_gnn::{
    predict_nodes, Aggregation, EmbeddingStore, GnnConfig, HeteroGnn, InferModel32, Precision,
};
use relgraph_graph::{SamplerConfig, Seed, TemporalSampler};
use relgraph_nn::{clip_global_norm, loss, Activation, Adam, Binding, Optimizer, ParamSet};
use relgraph_pq::traintable::TrainTableConfig;
use relgraph_pq::{analyze, build_training_table, parse, ExecConfig};
use relgraph_serve::codec::{f64_row_bytes, q8_row_bytes};
use relgraph_serve::{ServeConfig, ServeEngine, ShardedEngine};
use relgraph_store::{
    load_database_dir, save_database_dir, CommitWindow, DataDir, IngestPolicy, Row, RowBatch, Value,
};
use relgraph_tensor::{set_baseline_matmul, Graph, Tensor};

/// One before/after measurement.
#[derive(Debug, Clone)]
pub struct Section {
    /// Stable section name (`sample`, `traintable`, `matmul_*`,
    /// `linear_fused`, `ingest`, `epoch`, `serving`, `serving_f32`,
    /// `cache_capacity`, `serving_concurrent`, `serving_mixed`,
    /// `persist_open`, `persistence`, `wal_commit`).
    pub name: String,
    /// Throughput unit (higher is better).
    pub unit: String,
    /// Shard count of the "after" configuration, for sections whose
    /// workload runs on the sharded tier (`serving_concurrent`,
    /// `serving_mixed`); `None` elsewhere. Additive schema field:
    /// sections without it mean "not shard-dependent".
    pub shards: Option<usize>,
    /// Numeric mode of the "after" side (`f64`, `f32` or `q8`). The
    /// `--check` floors are mode-specific: comparing an `f32` throughput
    /// against an `f64` floor (or vice versa) is refused, not fudged.
    pub precision: String,
    /// Pre-optimization throughput.
    pub before: f64,
    /// Current throughput.
    pub after: f64,
}

impl Section {
    fn speedup(&self) -> f64 {
        if self.before > 0.0 {
            self.after / self.before
        } else {
            0.0
        }
    }
}

/// Full snapshot: sections plus the headline end-to-end speedup.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub sections: Vec<Section>,
    pub end_to_end_speedup: f64,
    /// Effective rayon thread count, recorded while measuring (not at
    /// serialization time, when the environment may have changed).
    pub threads: usize,
    /// Shard count used by the `serving_concurrent` / `serving_mixed`
    /// sections' "after" configuration (one shard per core, capped at 8).
    /// Floors in `perf_snapshot --check` key off this: the ≥2x concurrent
    /// multiple is only physically possible when shards > 1.
    pub shards: usize,
    /// Group-commit window (batches per fsync / per epoch publish) used by
    /// the `wal_commit` and `serving_mixed` "after" configurations.
    pub commit_window: usize,
    /// Concurrent client threads driving the `serving_concurrent` section
    /// — the *same* count on both sides, so the recorded speedup is pure
    /// serving machinery, never client-load asymmetry.
    pub clients: usize,
}

impl Snapshot {
    /// Serialize with the stable schema (hand-rolled: the workspace has no
    /// JSON dependency).
    pub fn to_json(&self) -> String {
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut out = String::from("{\n");
        out.push_str("  \"schema_version\": 2,\n");
        out.push_str(&format!("  \"unix_time\": {unix_time},\n"));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"commit_window\": {},\n", self.commit_window));
        out.push_str(&format!("  \"clients\": {},\n", self.clients));
        out.push_str("  \"sections\": [\n");
        for (i, s) in self.sections.iter().enumerate() {
            let shards = s
                .shards
                .map(|n| format!("\"shards\": {n}, "))
                .unwrap_or_default();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", {}\"precision\": \"{}\", \
                 \"before\": {:.3}, \"after\": {:.3}, \"speedup\": {:.3}}}{}\n",
                s.name,
                s.unit,
                shards,
                s.precision,
                s.before,
                s.after,
                s.speedup(),
                if i + 1 < self.sections.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"end_to_end_speedup\": {:.3}\n",
            self.end_to_end_speedup
        ));
        out.push_str("}\n");
        out
    }
}

/// Best-of-`reps` wall time for `f`, after one warmup call.
fn best_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Run the full pipeline snapshot. `quick` shrinks workloads ~4× (smoke
/// pass / CI); the committed snapshot uses `quick = false`.
pub fn run_snapshot(quick: bool) -> Snapshot {
    let customers = if quick { 200 } else { 800 };
    let reps = if quick { 2 } else { 3 };
    let db = generate_ecommerce(&EcommerceConfig {
        customers,
        products: (customers / 8).max(20),
        seed: 7,
        ..Default::default()
    })
    .expect("generate");
    let (graph, mapping) = build_graph(&db, &ConvertOptions::default()).unwrap();
    let cust = mapping.node_type("customers").unwrap();
    let (_, hi) = db.time_span().unwrap();
    let mut sections = Vec::new();
    // Capture the effective worker count now, while measuring.
    let threads = rayon::current_num_threads();
    // One serving shard per physical core, capped at 8 — past that the
    // bench workload is too small to keep the queues full.
    let shard_target = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    // Group-commit window for the write-path sections: batches per fsync
    // (wal_commit) and batches per epoch publish (serving_mixed).
    let commit_window = 8usize;
    // Concurrent client threads for serving_concurrent — identical on the
    // before (1 shard) and after (shard-per-core) sides, and recorded in
    // the snapshot so a reading is never compared across client loads.
    let clients = 4usize;

    // --- sample: full-edge-list scan vs temporal CSR + rayon fan-out.
    let sampler = TemporalSampler::new(&graph, SamplerConfig::new(vec![10, 10]));
    let seeds: Vec<Seed> = (0..customers)
        .map(|i| Seed {
            node_type: cust,
            node: i,
            time: hi,
        })
        .collect();
    let before = best_secs(reps, || sampler.sample_scan_baseline(&seeds).total_nodes());
    let after = best_secs(reps, || sampler.sample(&seeds).total_nodes());
    sections.push(Section {
        name: "sample".into(),
        shards: None,
        unit: "seeds/s".into(),
        precision: "f64".into(),
        before: seeds.len() as f64 / before,
        after: seeds.len() as f64 / after,
    });

    // --- traintable: serial vs rayon per-anchor fan-out (same algorithm;
    // the gap is thread scaling, so it is ~1 on a single-core host).
    let aq = analyze(
        &db,
        parse("PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id").unwrap(),
    )
    .unwrap();
    let tt_cfg = TrainTableConfig::default();
    let n_examples = build_training_table(&db, &aq, &tt_cfg).unwrap().len() as f64;
    // Sub-millisecond per call: extra reps (ingest-style) keep the ratio
    // from drifting below 1.0 on pure scheduler noise.
    let tt_reps = (reps * 5).max(10);
    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let before = best_secs(tt_reps, || {
        build_training_table(&db, &aq, &tt_cfg).unwrap().len()
    });
    match &prev {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    let after = best_secs(tt_reps, || {
        build_training_table(&db, &aq, &tt_cfg).unwrap().len()
    });
    sections.push(Section {
        name: "traintable".into(),
        shards: None,
        unit: "examples/s".into(),
        precision: "f64".into(),
        before: n_examples / before,
        after: n_examples / after,
    });

    // --- matmul: serial naive ikj vs the packed FMA microkernel.
    let fill = |rows: usize, cols: usize, m0: usize, m1: usize, md: i64| {
        let data: Vec<f64> = (0..rows * cols)
            .map(|x| ((x / cols * m0 + x % cols * m1) as i64 % md - md / 2) as f64)
            .collect();
        Tensor::from_vec(rows, cols, data)
    };
    for &dim in &[128usize, 256] {
        let a = fill(dim, dim, 31, 7, 13);
        let b = fill(dim, dim, 17, 3, 11);
        let gflop = 2.0 * (dim * dim * dim) as f64 / 1e9;
        let before = best_secs(reps, || a.matmul_naive(&b).get(0, 0));
        let after = best_secs(reps, || a.matmul(&b).get(0, 0));
        sections.push(Section {
            name: format!("matmul_{dim}"),
            shards: None,
            unit: "gflop/s".into(),
            precision: "f64".into(),
            before: gflop / before,
            after: gflop / after,
        });
    }

    // --- linear_fused: a full linear-layer forward `relu(x·w + b)`. Before
    // is the pre-optimization tape lowering (naive matmul, then a bias pass,
    // then an activation pass, each materializing a tensor); after is the
    // single fused kernel pass.
    {
        let (m, k, n) = (256usize, 128usize, 64usize);
        let x = fill(m, k, 31, 7, 13);
        let w = fill(k, n, 17, 3, 11);
        let bias = fill(1, n, 5, 29, 9);
        let act = relgraph_tensor::ActKind::Relu;
        // bias + activation are one flop per output element each.
        let gflop = (2.0 * (m * n * k) as f64 + 2.0 * (m * n) as f64) / 1e9;
        let before = best_secs(reps, || {
            let z = x.matmul_naive(&w);
            let mut y = Tensor::zeros(m, n);
            for i in 0..m {
                for ((o, &zv), &bv) in y.row_mut(i).iter_mut().zip(z.row(i)).zip(bias.data()) {
                    *o = (zv + bv).max(0.0);
                }
            }
            y.get(0, 0)
        });
        let after = best_secs(reps, || x.matmul_bias_act(&w, &bias, act).get(0, 0));
        sections.push(Section {
            name: "linear_fused".into(),
            shards: None,
            unit: "gflop/s".into(),
            precision: "f64".into(),
            before: gflop / before,
            after: gflop / after,
        });
    }

    // --- ingest: incremental graph maintenance vs full rebuild. A batch of
    // late events (the newest ~5% of orders and reviews) arrives through the
    // validated streaming path; `before` recompiles the whole graph from
    // scratch after the batch lands, `after` applies the delta to the
    // pre-batch graph. Both produce structurally identical graphs
    // (asserted), so the speedup is pure maintenance savings.
    {
        let (lo2, hi2) = db.time_span().unwrap();
        let t_cut = hi2 - (hi2 - lo2) / 20;
        let mut base = relgraph_store::Database::new("bench-ingest-base");
        for t in db.tables() {
            base.create_table(t.schema().clone()).unwrap();
        }
        let mut late: Vec<(String, i64, relgraph_store::Row)> = Vec::new();
        for t in db.tables() {
            let streamed = matches!(t.name(), "orders" | "reviews");
            for i in 0..t.len() {
                let row = t.row(i).expect("index in range");
                match t.row_timestamp(i) {
                    Some(rt) if streamed && rt > t_cut => {
                        late.push((t.name().to_string(), rt, row))
                    }
                    _ => {
                        base.insert(t.name(), row).unwrap();
                    }
                }
            }
        }
        // Stream arrival order: events arrive sorted by event time.
        late.sort_by_key(|&(_, rt, _)| rt);
        let mut batch = RowBatch::new();
        for (table, _, row) in late {
            batch.push(table, row);
        }
        let n_batch = batch.len() as f64;
        let opts = ConvertOptions::default();
        let (g0, m0) = build_graph(&base, &opts).unwrap();
        let c0 = GraphCursor::capture(&base);
        let mut db_after = base.clone();
        db_after.ingest(batch, &IngestPolicy::reject_all()).unwrap();

        // Both sides are sub-5ms, so extra reps are cheap and the delta
        // side (sub-ms) needs them to measure above scheduler noise.
        let ingest_reps = (reps * 5).max(10);
        let before = best_secs(ingest_reps, || {
            build_graph(&db_after, &opts).unwrap().0.total_edges()
        });
        // Fresh pre-batch state per call, cloned outside the timer.
        let mut pool: Vec<_> = (0..ingest_reps + 1)
            .map(|_| (g0.clone(), m0.clone(), c0.clone()))
            .collect();
        let after = best_secs(ingest_reps, || {
            let (mut g, mut m, mut c) = pool.pop().expect("one clone per rep");
            update_graph(&db_after, &mut g, &mut m, &mut c, &opts).unwrap();
            g.total_edges()
        });
        // Correctness gate: the incremental graph must match a scratch
        // compile of the post-ingest database exactly.
        let (mut g1, mut m1, mut c1) = (g0.clone(), m0.clone(), c0);
        update_graph(&db_after, &mut g1, &mut m1, &mut c1, &opts).unwrap();
        let (scratch, _) = build_graph(&db_after, &opts).unwrap();
        assert!(
            g1.structural_eq(&scratch),
            "incremental graph diverged from scratch rebuild"
        );
        sections.push(Section {
            name: "ingest".into(),
            shards: None,
            unit: "rows/s".into(),
            precision: "f64".into(),
            before: n_batch / before,
            after: n_batch / after,
        });
    }

    // --- epoch: one end-to-end training epoch (sample → batch → forward →
    // backward → Adam step), before = scan sampling + pre-optimization
    // matmul path + a fresh graph per minibatch, after = CSR sampling +
    // fused FMA kernels + the reused tape arena.
    let examples: Vec<(Seed, f64)> = {
        let t = build_training_table(&db, &aq, &tt_cfg).unwrap();
        t.train
            .iter()
            .map(|e| {
                (
                    Seed {
                        node_type: cust,
                        node: e.entity_row,
                        time: e.anchor,
                    },
                    e.label.scalar(),
                )
            })
            .collect()
    };
    let n_epoch = examples.len() as f64;
    let gnn_cfg = GnnConfig {
        hidden_dim: 32,
        layers: 2,
        out_dim: 1,
        activation: Activation::Relu,
        aggregation: Aggregation::Mean,
        seed: 17,
    };
    let run_epoch = |baseline: bool| {
        set_baseline_matmul(baseline);
        let mut ps = ParamSet::new();
        let gnn = HeteroGnn::new(
            &mut ps,
            &input_dims(&graph),
            graph.edge_types(),
            cust.0,
            &gnn_cfg,
        );
        let mut opt = Adam::new(0.01);
        let mut total = 0.0;
        let mut g = Graph::new();
        let mut binding = Binding::new();
        for chunk in examples.chunks(64) {
            let chunk_seeds: Vec<Seed> = chunk.iter().map(|&(s, _)| s).collect();
            let sub = if baseline {
                sampler.sample_scan_baseline(&chunk_seeds)
            } else {
                sampler.sample(&chunk_seeds)
            };
            let batch = build_batch(&graph, &sub);
            if baseline {
                // Pre-optimization behavior: a fresh allocation set per batch.
                g = Graph::new();
                binding = Binding::new();
            } else {
                g.reset();
                binding.reset();
            }
            let pred = gnn.forward(&mut g, &mut binding, &ps, &batch);
            let labels: Vec<f64> = chunk.iter().map(|&(_, y)| y).collect();
            let target = g.constant(Tensor::from_vec(labels.len(), 1, labels));
            let l = loss::bce_with_logits(&mut g, pred, target);
            total += g.value(l).item();
            g.backward(l).unwrap();
            binding.accumulate_grads(&g, &mut ps);
            clip_global_norm(&mut ps, 5.0);
            opt.step(&mut ps);
        }
        set_baseline_matmul(false);
        total
    };
    let before = best_secs(reps.min(2), || run_epoch(true));
    let after = best_secs(reps.min(2), || run_epoch(false));
    let epoch = Section {
        name: "epoch".into(),
        shards: None,
        unit: "examples/s".into(),
        precision: "f64".into(),
        before: n_epoch / before,
        after: n_epoch / after,
    };
    let end_to_end = epoch.speedup();
    sections.push(epoch);

    // --- serving: naive per-request inference (one sample + forward pass
    // per request, the pre-engine deployment path) vs the micro-batched
    // serving engine with its two-tier cache. The request stream is
    // deterministic and revisits entities, as production traffic does; the
    // engine answers repeats from the prediction cache and coalesces the
    // rest, so the gap is caching + batching, not model changes — both
    // sides run the identical fitted model.
    {
        let serve_db = generate_ecommerce(&EcommerceConfig {
            customers: if quick { 80 } else { 160 },
            products: 24,
            seed: 11,
            ..Default::default()
        })
        .expect("generate serving db");
        let exec = ExecConfig {
            epochs: 2,
            hidden_dim: 8,
            fanouts: vec![4, 4],
            ..Default::default()
        };
        let mut engine = ServeEngine::fit(
            serve_db,
            "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id",
            &exec,
            ServeConfig::default(),
        )
        .expect("fit serving engine");
        let entities = engine.deploy_entities().expect("deploy entities");
        let n_requests = if quick { 512 } else { 2048 };
        let stream: Vec<usize> = (0..n_requests)
            .map(|i| entities[(i * 7) % entities.len()])
            .collect();

        // Naive path: each request is its own `model.predict` call. One
        // sampled subgraph + forward pass per request, no reuse between
        // requests. Measured on a stride-8 subsample (it is ~3 orders of
        // magnitude slower per request) and normalized to requests/s.
        let node_type = engine.node_type();
        let anchor = engine.anchor();
        let naive: Vec<Seed> = stream
            .iter()
            .step_by(8)
            .map(|&node| Seed {
                node_type,
                node,
                time: anchor,
            })
            .collect();
        let before = {
            let model = engine.model();
            let graph = engine.graph();
            best_secs(reps, || {
                let mut acc = 0.0;
                for &seed in &naive {
                    acc += model.predict(graph, &[seed])[0];
                }
                acc
            })
        };

        // Engine path: the same stream chopped into deadline-sized
        // micro-batches, served warm (the warmup call inside `best_secs`
        // fills both cache tiers, exactly like steady-state traffic).
        let batch = engine.config().max_batch;
        let after = best_secs(reps, || {
            let mut acc = 0.0;
            for chunk in stream.chunks(batch) {
                acc += engine.predict_batch(chunk).iter().sum::<f64>();
            }
            acc
        });
        sections.push(Section {
            name: "serving".into(),
            shards: None,
            unit: "requests/s".into(),
            precision: "f64".into(),
            before: naive.len() as f64 / before,
            after: stream.len() as f64 / after,
        });

        // Shared fitted state for the sharded sections: the exact model the
        // single-engine path just served, so every configuration scores
        // bit-identical predictions and the gap is pure serving machinery.
        let db0 = engine.db().clone();
        let query0 = engine.query().clone();
        let model0 = engine.model_handle();
        let node_type0 = engine.node_type();
        let metrics0 = engine.metrics_owned();
        let make_sharded = |n: usize| {
            ShardedEngine::from_fitted(
                db0.clone(),
                query0.clone(),
                model0.clone(),
                node_type0,
                metrics0.clone(),
                ServeConfig::default(),
                n,
            )
            .expect("assemble sharded engine")
        };

        // --- serving_concurrent: `clients` concurrent client threads
        // hammering the tier. Before: a single shard, so every client
        // contends for one slice lock. After: one shard per core (capped
        // at 8), so clients whose rows route to different slices score in
        // parallel, each on its own thread. Both sides are measured under
        // the *identical* protocol: the same client count, the same
        // per-client request stream and batch size, and the same warmup
        // (one untimed full pass inside `best_secs` warms every cache
        // tier). The two engines are measured one after the other, each
        // built, warmed, timed and dropped before the next is built. On a
        // single-core host the two configurations run on the same silicon
        // and the ratio is ~1.0 by construction; the acceptance floor only
        // applies when `shards` >= 4.
        {
            let batch = engine.config().max_batch;
            let run_clients = |eng: &ShardedEngine| {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..clients)
                        .map(|c| {
                            let stream = &stream;
                            scope.spawn(move || {
                                let mut acc = 0.0;
                                // Each client walks the stream from its own
                                // offset so requests overlap but are not in
                                // lockstep.
                                let off = c * stream.len() / clients;
                                for chunk in stream[off..]
                                    .chunks(batch)
                                    .chain(stream[..off].chunks(batch))
                                {
                                    acc += eng.predict_batch_rows(chunk).iter().sum::<f64>();
                                }
                                acc
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("client thread"))
                        .sum::<f64>()
                })
            };
            let before = {
                let single = make_sharded(1);
                best_secs(reps, || run_clients(&single))
            };
            let after = {
                let multi = make_sharded(shard_target);
                best_secs(reps, || run_clients(&multi))
            };
            let total = (clients * stream.len()) as f64;
            sections.push(Section {
                name: "serving_concurrent".into(),
                shards: Some(shard_target),
                unit: "requests/s".into(),
                precision: "f64".into(),
                before: total / before,
                after: total / after,
            });
        }

        // --- serving_mixed: honest steady-state number. Each step is a
        // burst of small ingest batches of fresh orders (timestamps
        // strictly inside the existing span, so the precise-invalidation
        // path runs, never a flush) followed by reads over all deploy
        // entities: every write dirties k-hop neighborhoods, so a slice of
        // each read batch misses and recomputes. Before: the pre-shard
        // single-threaded engine applies the burst one batch at a time —
        // one delta + one dirty closure + one eviction sweep per batch.
        // After: the sharded tier drains the whole burst through
        // `ingest_group`, paying one merged closure, one snapshot
        // publish, and one coalesced invalidation broadcast for the burst
        // (DESIGN.md §14.8). Predictions are identical; the multiple is
        // the coalesced write path.
        {
            let next_id = std::sync::atomic::AtomicI64::new(50_000_000);
            let (lo, hi) = db0.time_span().unwrap();
            let n_customers = entities.len() as i64;
            let steps = if quick { 4 } else { 8 };
            let writes_per_batch = 4usize;
            let mk_burst = |step: usize| -> Vec<RowBatch> {
                (0..commit_window)
                    .map(|b| {
                        let mut batch = RowBatch::new();
                        for i in 0..writes_per_batch {
                            let k = step * 31 + b * 13 + i;
                            let t = lo + (hi - lo) / 4 + (hi - lo) / 2 * (k % 97) as i64 / 97;
                            batch.push(
                                "orders",
                                Row::new()
                                    .push(
                                        next_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                                    )
                                    .push((step * 13 + b * 11 + i * 7) as i64 % n_customers)
                                    .push((step * 5 + b + i * 3) as i64 % 24)
                                    .push(1i64 + (i % 4) as i64)
                                    .push(9.5 + i as f64)
                                    .push("web")
                                    .push(Value::Timestamp(t)),
                            );
                        }
                        batch
                    })
                    .collect()
            };
            let policy = IngestPolicy::coerce_all();
            let ops = (steps * (commit_window * writes_per_batch + entities.len())) as f64;

            let mut pre = ServeEngine::from_fitted(
                db0.clone(),
                query0.clone(),
                model0.clone(),
                node_type0,
                metrics0.clone(),
                ServeConfig::default(),
            )
            .expect("assemble pre-shard engine");
            let before = best_secs(reps, || {
                let mut acc = 0.0;
                for step in 0..steps {
                    for batch in mk_burst(step) {
                        pre.ingest(batch, &policy).expect("ingest");
                    }
                    acc += pre.predict_batch(&entities).iter().sum::<f64>();
                }
                acc
            });
            let shd = make_sharded(shard_target);
            let after = best_secs(reps, || {
                let mut acc = 0.0;
                for step in 0..steps {
                    let group = shd
                        .ingest_group(mk_burst(step), &policy)
                        .expect("group ingest");
                    assert_eq!(
                        group.accepted_batches(),
                        commit_window,
                        "serving_mixed burst batch rejected"
                    );
                    acc += shd.predict_batch_rows(&entities).iter().sum::<f64>();
                }
                acc
            });
            sections.push(Section {
                name: "serving_mixed".into(),
                shards: Some(shard_target),
                unit: "ops/s".into(),
                precision: "f64".into(),
                before: ops / before,
                after: ops / after,
            });
        }

        // --- serving_f32: the reduced-precision inference path. Both sides
        // run the identical fitted model through the identical engine with
        // the prediction tier effectively disabled (capacity 1), so every
        // request re-runs seed-level inference against a warm embedding
        // tier; the gap is purely the f32 tape-free kernel path vs the f64
        // autograd-tape path. Tolerance story: `DESIGN.md` §15.
        {
            let mk = |precision| {
                ServeEngine::from_fitted(
                    db0.clone(),
                    query0.clone(),
                    model0.clone(),
                    node_type0,
                    metrics0.clone(),
                    ServeConfig {
                        prediction_cache: 1,
                        precision,
                        ..ServeConfig::default()
                    },
                )
                .expect("assemble precision engine")
            };
            let mut eng64 = mk(Precision::F64);
            let mut eng32 = mk(Precision::F32);
            let batch = engine.config().max_batch;
            let run = |eng: &mut ServeEngine| {
                let mut acc = 0.0;
                for chunk in stream.chunks(batch) {
                    acc += eng.predict_batch(chunk).iter().sum::<f64>();
                }
                acc
            };
            let before = best_secs(reps, || run(&mut eng64));
            let after = best_secs(reps, || run(&mut eng32));
            sections.push(Section {
                name: "serving_f32".into(),
                shards: None,
                unit: "requests/s".into(),
                precision: "f32".into(),
                before: stream.len() as f64 / before,
                after: stream.len() as f64 / after,
            });
        }

        // --- cache_capacity: embedding rows resident at an equal byte
        // budget, `f64` tier vs the 8-bit quantized tier. Row shapes are
        // captured from the live workload (a probe store records every row
        // the deploy entities' inference actually materializes), then both
        // tiers are costed with their real per-row layouts: `8·dim` bytes
        // for `f64`, `dim + 8` (codes plus a two-`f32` scale/min header)
        // for `q8`. Capacity, not time: the numbers are exact arithmetic
        // over the captured shapes, so the ≥4x floor is noise-free.
        {
            struct DimProbe(Vec<usize>);
            impl EmbeddingStore<f32> for DimProbe {
                fn get(&mut self, _ty: usize, _node: usize, _level: usize) -> Option<Vec<f32>> {
                    None
                }
                fn put(&mut self, _ty: usize, _node: usize, _level: usize, emb: Vec<f32>) {
                    self.0.push(emb.len());
                }
            }
            let m32 = InferModel32::from_model(&model0);
            let mut probe = DimProbe(Vec::new());
            let _ = predict_nodes(
                &m32,
                engine.graph(),
                node_type0,
                &entities,
                engine.anchor(),
                &mut probe,
            );
            let rows = probe.0.len().max(1) as f64;
            let bytes64: usize = probe.0.iter().map(|&d| f64_row_bytes(d)).sum();
            let bytes8: usize = probe.0.iter().map(|&d| q8_row_bytes(d)).sum();
            let budget = (1usize << 20) as f64;
            sections.push(Section {
                name: "cache_capacity".into(),
                shards: None,
                unit: "rows".into(),
                precision: "q8".into(),
                before: budget * rows / bytes64.max(1) as f64,
                after: budget * rows / bytes8.max(1) as f64,
            });
        }
    }

    // --- persist_open / persistence: the durable on-disk substrate.
    // `persist_open` is text-CSV parse vs the columnar binary base read of
    // the same database — the win is format, not threading. `persistence`
    // is a full cold serve boot (open + featurize + train) vs a warm
    // restart from saved graph/model snapshots (open + snapshot load + an
    // empty catch-up delta); predictions are byte-identical either way, so
    // the gap is exactly the work the snapshots make skippable.
    {
        let pdb = generate_ecommerce(&EcommerceConfig {
            customers: if quick { 80 } else { 160 },
            products: 24,
            seed: 13,
            ..Default::default()
        })
        .expect("generate persistence db");
        let n_rows: usize = pdb.tables().iter().map(|t| t.len()).sum();
        let tmp =
            std::env::temp_dir().join(format!("relgraph-bench-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).expect("create bench tmp dir");
        let csv_dir = tmp.join("csv");
        let data_dir = tmp.join("data");
        save_database_dir(&pdb, &csv_dir).expect("save csv dir");
        DataDir::create(&data_dir, &pdb).expect("create data dir");

        let open_reps = (reps * 3).max(6);
        let before = best_secs(open_reps, || {
            load_database_dir(&csv_dir).expect("csv load").total_rows()
        });
        let after = best_secs(open_reps, || {
            DataDir::open(&data_dir)
                .expect("columnar open")
                .1
                .total_rows()
        });
        sections.push(Section {
            name: "persist_open".into(),
            shards: None,
            unit: "rows/s".into(),
            precision: "f64".into(),
            before: n_rows as f64 / before,
            after: n_rows as f64 / after,
        });

        let exec = ExecConfig {
            epochs: 2,
            hidden_dim: 8,
            fanouts: vec![4, 4],
            ..Default::default()
        };
        let query = "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id";
        // Fit once to produce the snapshots the warm path boots from.
        let (_, db1, _) = DataDir::open(&data_dir).expect("open for fit");
        let fitted =
            ServeEngine::fit(db1, query, &exec, ServeConfig::default()).expect("fit for snapshot");
        let snaps = data_dir.join("snapshots");
        relgraph_serve::save_engine(&snaps, &fitted, query).expect("save warm start");
        let boot_reps = reps.min(2);
        let before = best_secs(boot_reps, || {
            let (_, db, _) = DataDir::open(&data_dir).expect("cold open");
            ServeEngine::fit(db, query, &exec, ServeConfig::default())
                .expect("cold fit")
                .anchor()
        });
        let after = best_secs(boot_reps, || {
            let (_, db, _) = DataDir::open(&data_dir).expect("warm open");
            relgraph_serve::warm_engine(&snaps, db, &exec, ServeConfig::default())
                .expect("warm boot")
                .0
                .anchor()
        });
        sections.push(Section {
            name: "persistence".into(),
            shards: None,
            unit: "boots/s".into(),
            precision: "f64".into(),
            before: 1.0 / before,
            after: 1.0 / after,
        });

        // --- wal_commit: durable ingest acknowledgement throughput.
        // Before: every batch is its own WAL frame with its own
        // `sync_data` — the pre-group-commit write path. After: up to
        // `commit_window` batches coalesce into one group frame under a
        // single covering fsync (DESIGN.md §14.8). Acknowledgement still
        // happens only after the covering fsync, so the durability
        // contract is identical; the multiple is pure fsync amortization.
        {
            let wal_dir = tmp.join("waldata");
            DataDir::create(&wal_dir, &pdb).expect("create wal bench dir");
            let (mut dd, mut db, _) = DataDir::open(&wal_dir).expect("open wal bench dir");
            let n_batches = if quick { 16 } else { 32 };
            let rows_per_batch = 4usize;
            let next_id = std::sync::atomic::AtomicI64::new(80_000_000);
            let (lo, hi) = db.time_span().unwrap();
            let n_customers = db.table("customers").expect("customers").len() as i64;
            let policy = IngestPolicy::coerce_all();
            let mk_batches = || -> Vec<RowBatch> {
                (0..n_batches)
                    .map(|b| {
                        let mut batch = RowBatch::new();
                        for i in 0..rows_per_batch {
                            let k = b * 29 + i;
                            let t = lo + (hi - lo) / 4 + (hi - lo) / 2 * (k % 89) as i64 / 89;
                            batch.push(
                                "orders",
                                Row::new()
                                    .push(
                                        next_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                                    )
                                    .push((b * 11 + i * 3) as i64 % n_customers)
                                    .push((b * 7 + i) as i64 % 24)
                                    .push(1i64 + (i % 3) as i64)
                                    .push(4.5 + i as f64)
                                    .push("web")
                                    .push(Value::Timestamp(t)),
                            );
                        }
                        batch
                    })
                    .collect()
            };
            dd.set_commit_window(CommitWindow::batches(1));
            let before = best_secs(reps, || {
                for batch in mk_batches() {
                    dd.ingest(&mut db, batch, &policy)
                        .expect("per-batch ingest");
                }
            });
            dd.set_commit_window(CommitWindow::batches(commit_window));
            let after = best_secs(reps, || {
                let reports = dd
                    .ingest_group(&mut db, mk_batches(), &policy)
                    .expect("group ingest");
                assert!(
                    reports.iter().all(|r| r.is_ok()),
                    "wal_commit batch rejected"
                );
            });
            sections.push(Section {
                name: "wal_commit".into(),
                shards: None,
                unit: "batches/s".into(),
                precision: "f64".into(),
                before: n_batches as f64 / before,
                after: n_batches as f64 / after,
            });
        }
        let _ = std::fs::remove_dir_all(&tmp);
    }

    Snapshot {
        sections,
        end_to_end_speedup: end_to_end,
        threads,
        shards: shard_target,
        commit_window,
        clients,
    }
}

/// Run the snapshot and write it to `path` (typically
/// `BENCH_pipeline.json` at the workspace root).
pub fn write_snapshot(path: &str, quick: bool) -> std::io::Result<Snapshot> {
    let snap = run_snapshot(quick);
    std::fs::write(path, snap.to_json())?;
    Ok(snap)
}
