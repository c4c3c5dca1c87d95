//! The `serve_read` and `serve_mixed` workloads: an application asking
//! for predictions over the real socket front-end, under open-loop load.
//!
//! The engine is the one `relgraph serve --listen` runs: a 5000-customer
//! e-commerce database, a GNN fitted with `USING epochs = 2`, the shipped
//! `ServeConfig::default()` and one shard, bound with `relgraph_serve::bind`
//! and driven through `ServerListener::run` in this process. Keys follow
//! Zipf(1) over every customer with ranks shuffled by the seed; the 4096
//! entry prediction cache holds the head, so the tail misses.
//!
//! `serve_mixed` adds a scheduled writer: every 250 ms a batch of 8 new
//! orders for Zipf-drawn customers is made durable through the WAL
//! (`DataDir::ingest_group`) and then published
//! (`ShardedEngine::ingest_group`); the write is acknowledged when both
//! return. Every eighth batch moves the database's time span forward, so
//! the anchor-advance flush runs beside the precise invalidation path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use relgraph_datagen::{generate_ecommerce, EcommerceConfig};
use relgraph_gnn::NodeModel;
use relgraph_obs as obs;
use relgraph_pq::{ExecConfig, PreparedQuery};
use relgraph_serve::persist::MODEL_SNAPSHOT_FILE;
use relgraph_serve::{
    bind, load_model, parse_request, response_ok, CacheStats, ServeConfig, ServerListener,
    ShardedEngine,
};
use relgraph_store::persist::DataDir;
use relgraph_store::{Database, IngestPolicy, Row, RowBatch, Value};

use crate::load::{poisson_plan, tally, Client, Outcome, Planned, Record};
use crate::report::{num, RunResult};
use crate::stats::{over_capacity, percentile, rung_sustained, sorted, Rng, Zipf};

pub const QUERY: &str =
    "PREDICT EXISTS(orders.*, 0, 30) FOR EACH customers.customer_id USING epochs = 2";
const CUSTOMERS: usize = 5000;
const ZIPF_S: f64 = 1.0;
const SHARDS: usize = 1;
/// Client connections (fewer where the host has fewer cores): the socket
/// front-end serves each on its own thread.
const CONNECTIONS: usize = 2;
/// A traced `serve_mixed` run keeps reading at the nominal rate until the
/// writer has acknowledged this many writes.
const MIN_TRACED_WRITES: u64 = 100;
/// The nominal read rate, requests per second.
const NOMINAL_RPS: f64 = 2000.0;
/// Traffic before measuring, so the caches hold their steady state.
const WARMUP_SECS: f64 = 2.0;
/// Keys per in-process batch when pre-filling the caches.
const WARM_CHUNK: usize = 256;
/// The nominal phase takes this share of `--seconds`; the ladder and the
/// saturation run take the rest.
const NOMINAL_SHARE: f64 = 0.5;
/// The nominal phase is cut into this many windows; read latencies are
/// the median over windows of each window's percentile.
const WINDOWS: usize = 6;
/// Capacity ladder: rates double from here for at most this many rungs.
const LADDER_START_RPS: f64 = 1000.0;
const LADDER_RUNGS: usize = 7;
/// One rung lasts this long.
const RUNG_SECS: f64 = 1.0;
/// A rung is sustained when its p99 stays within this limit.
const P99_LIMIT_US: f64 = 25_000.0;
/// Saturation: requests kept outstanding per connection, and for how long.
const SATURATE_WINDOW: usize = 8;
const SATURATE_SECS: f64 = 4.0;
/// How long to wait for stragglers after the last request of a phase.
const DRAIN: Duration = Duration::from_secs(10);
const WRITE_PERIOD: Duration = Duration::from_millis(250);
const ROWS_PER_WRITE: usize = 8;
/// Every this many batches, one row lands past the current time span.
const ADVANCE_EVERY: u64 = 8;
/// Writes land in this last share of the time span.
const RECENT_SHARE: f64 = 0.02;
/// How far an advancing write moves the span's end, in seconds.
const ADVANCE_SECS: i64 = 3600;

/// Seed streams: one per generator, so each is independent of the rest.
const STREAM_RANKS: u64 = 1;
const STREAM_READS: u64 = 2;
const STREAM_WRITES: u64 = 3;
const STREAM_REPLAY: u64 = 4;

fn exec_config() -> ExecConfig {
    ExecConfig {
        max_predictions: None,
        ..Default::default()
    }
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(pub std::path::PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Self {
        let p = std::path::PathBuf::from(format!("perfbench/.work/{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create work dir");
        WorkDir(p)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir("perfbench/.work");
    }
}

/// Everything one set-up produces.
struct Rig {
    engine: ShardedEngine,
    listener: ServerListener,
    sock: String,
    keys: Vec<i64>,
    /// `serve_mixed` only: the durable directory and the writer's copy of
    /// the database it mirrors.
    durable: Option<(DataDir, Database)>,
}

/// Set-up, as timed by `setup_s`: datagen, fit, (for `serve_mixed`) the
/// data directory with its warm-start snapshots, and the socket bind.
fn set_up(seed: u64, mixed: bool, work: &WorkDir) -> Rig {
    let db = generate_ecommerce(&EcommerceConfig {
        customers: CUSTOMERS,
        seed,
        ..Default::default()
    })
    .expect("generate ecommerce");
    let customers = db.table("customers").expect("customers table");
    let keys: Vec<i64> = (0..customers.len())
        .map(|i| match customers.value_by_name(i, "customer_id") {
            Ok(Value::Int(k)) => k,
            other => panic!("customer key {other:?}"),
        })
        .collect();
    let mirror = mixed.then(|| db.clone());
    let engine = ShardedEngine::fit(db, QUERY, &exec_config(), ServeConfig::default(), SHARDS)
        .expect("fit serving engine");
    let durable = mirror.map(|mirror| {
        let root = work.0.join("data");
        let _ = std::fs::remove_dir_all(&root);
        let dd = DataDir::create(&root, &mirror).expect("create data dir");
        engine
            .save_warm_start(&dd.snapshots_dir(), QUERY)
            .expect("save warm-start snapshots");
        (dd, mirror)
    });
    let sock = work.0.join("s.sock").to_string_lossy().into_owned();
    let listener = bind(&sock).expect("bind unix socket");
    Rig {
        engine,
        listener,
        sock,
        keys,
        durable,
    }
}

/// One acknowledged write.
#[derive(Debug, Clone)]
struct WriteRec {
    due_ns: u64,
    ack_ns: u64,
    wal_ms: f64,
    publish_ms: f64,
    flushed: bool,
    customers: Vec<usize>,
    ok: bool,
}

/// The writer: a batch every [`WRITE_PERIOD`] from `start_ns` until `stop`.
#[allow(clippy::too_many_arguments)]
fn write_loop(
    engine: &ShardedEngine,
    dd: &mut DataDir,
    mirror: &mut Database,
    zipf: &Zipf,
    mut rng: Rng,
    origin: Instant,
    start_ns: u64,
    stop: &AtomicBool,
    acked: &AtomicU64,
) -> Vec<WriteRec> {
    let policy = IngestPolicy::coerce_all();
    let products = mirror.table("products").expect("products table").len() as u64;
    let mut out = Vec::new();
    for b in 0u64.. {
        let due_ns = start_ns + b * WRITE_PERIOD.as_nanos() as u64;
        loop {
            if stop.load(Ordering::SeqCst) {
                return out;
            }
            let now = origin.elapsed().as_nanos() as u64;
            if now >= due_ns {
                break;
            }
            std::thread::sleep(Duration::from_nanos((due_ns - now).min(20_000_000)));
        }
        let (lo, hi) = mirror.time_span().expect("non-empty database");
        let recent = ((hi - lo) as f64 * RECENT_SHARE) as i64;
        let mut batch = RowBatch::new();
        let mut customers = Vec::with_capacity(ROWS_PER_WRITE);
        for i in 0..ROWS_PER_WRITE {
            let c = zipf.sample(&mut rng);
            customers.push(c);
            let t = if i == 0 && b % ADVANCE_EVERY == ADVANCE_EVERY - 1 {
                hi + ADVANCE_SECS
            } else {
                hi - rng.below(recent as u64 + 1) as i64
            };
            batch.push(
                "orders",
                Row::new()
                    .push(2_000_000_000i64 + (b as i64) * ROWS_PER_WRITE as i64 + i as i64)
                    .push(c as i64)
                    .push(rng.below(products) as i64)
                    .push(1 + rng.below(3) as i64)
                    .push(5.0 + rng.below(20_000) as f64 / 100.0)
                    .push("web")
                    .push(Value::Timestamp(t)),
            );
        }
        let t0 = Instant::now();
        let durable = dd.ingest_group(mirror, vec![batch.clone()], &policy);
        let t1 = Instant::now();
        let published = engine.ingest_group(vec![batch], &policy);
        let t2 = Instant::now();
        let ok = matches!(&durable, Ok(r) if r.len() == 1
                && r.iter().all(|x| x.as_ref().is_ok_and(|x| x.accepted == ROWS_PER_WRITE && x.quarantined == 0)))
            && matches!(&published, Ok(g) if g.accepted_batches() == 1);
        acked.fetch_add(1, Ordering::SeqCst);
        out.push(WriteRec {
            due_ns,
            ack_ns: (t2 - origin).as_nanos() as u64,
            wal_ms: (t1 - t0).as_secs_f64() * 1e3,
            publish_ms: (t2 - t1).as_secs_f64() * 1e3,
            flushed: published.as_ref().is_ok_and(|g| g.outcome.flushed),
            customers,
            ok,
        });
    }
    out
}

/// Queue-depth gauge, sampled by the generator loop.
struct Gauges<'a> {
    engine: &'a ShardedEngine,
    max_depth: usize,
}

impl Gauges<'_> {
    fn sample(&mut self) {
        let d = self.engine.queue_depths().into_iter().max().unwrap_or(0);
        self.max_depth = self.max_depth.max(d);
    }
}

/// Check served values against in-process scoring of the same keys.
fn check_against(
    r: &mut RunResult,
    what: &str,
    recs: &[Record],
    keys: &[i64],
    expected: &dyn Fn(&[i64]) -> Vec<Option<f64>>,
) {
    let mut wanted: Vec<usize> = recs.iter().map(|x| x.plan.key).collect();
    wanted.sort_unstable();
    wanted.dedup();
    let key_values: Vec<i64> = wanted.iter().map(|&k| keys[k]).collect();
    let truth = expected(&key_values);
    let mut by_key = vec![None; keys.len()];
    for (&k, v) in wanted.iter().zip(truth) {
        by_key[k] = v;
    }
    let mut mismatches = 0usize;
    let mut first = None;
    for x in recs {
        if let Outcome::Ok(v) = x.outcome {
            if by_key[x.plan.key].map(f64::to_bits) != Some(v.to_bits()) {
                mismatches += 1;
                first.get_or_insert((keys[x.plan.key], v, by_key[x.plan.key]));
            }
        }
    }
    r.check(mismatches == 0, || {
        format!("{what}: {mismatches} served predictions differ, first {first:?}")
    });
}

fn account(r: &mut RunResult, recs: &[Record]) {
    r.attempted += recs.len() as u64;
    let failed = recs.iter().filter(|x| x.failed()).count();
    r.failed += failed as u64;
    r.check(failed == 0, || {
        let first = recs.iter().find(|x| x.failed()).map(|x| x.outcome.clone());
        format!("{failed} of {} reads failed, first {first:?}", recs.len())
    });
}

fn tally_json(t: &crate::load::Tally) -> String {
    format!(
        "{{\"sent\": {}, \"ok\": {}, \"failed\": {}, \"p50_us\": {}, \"p99_us\": {}, \"lateness_p50_us\": {}, \"lateness_p99_us\": {}}}",
        t.sent,
        t.ok,
        t.failed,
        num(t.p50_us),
        num(t.p99_us),
        num(t.lateness_p50_us),
        num(t.lateness_p99_us)
    )
}

/// The warm engine's prediction for every entity equals a cold engine's:
/// one rebuilt from `DataDir::open` of the same directory with the same
/// fitted model (read back from the warm-start snapshot).
fn check_cold(
    r: &mut RunResult,
    root: &std::path::Path,
    mirror: &Database,
    warm: &[Option<f64>],
    keys: &[i64],
) {
    let (_dd, db, _) = match DataDir::open(root) {
        Ok(x) => x,
        Err(e) => return r.problems.push(format!("reopen data dir: {e}")),
    };
    r.check(&db == mirror, || {
        "recovered database differs from the written one".into()
    });
    let cold = load_model(&DataDir::snapshots_path(root).join(MODEL_SNAPSHOT_FILE))
        .map_err(|e| e.to_string())
        .and_then(|snap| {
            let model = NodeModel::from_state(snap.state).map_err(|e| e.to_string())?;
            let query = PreparedQuery::prepare(&db, &snap.query_text, &exec_config())
                .map_err(|e| e.to_string())?;
            ShardedEngine::from_fitted(
                db,
                query,
                Arc::new(model),
                snap.node_type,
                snap.metrics,
                ServeConfig::default(),
                SHARDS,
            )
            .map_err(|e| e.to_string())
        });
    let cold = match cold {
        Ok(c) => c,
        Err(e) => return r.problems.push(format!("cold engine: {e}")),
    };
    let all_keys: Vec<Value> = keys.iter().map(|&k| Value::Int(k)).collect();
    let cold: Vec<Option<f64>> = cold
        .predict_batch_keys(&all_keys)
        .into_iter()
        .map(|p| p.ok())
        .collect();
    r.attempted += keys.len() as u64;
    let differ = warm
        .iter()
        .zip(&cold)
        .filter(|(w, c)| w.is_none() || w.map(f64::to_bits) != c.map(f64::to_bits))
        .count();
    r.failed += differ as u64;
    r.check(differ == 0, || {
        format!(
            "{differ} of {} entities differ between warm and cold engines",
            keys.len()
        )
    });
}

/// Requests whose due time falls in each of `windows` equal slices of
/// `[start_ns, start_ns + secs)`.
fn windows(recs: &[Record], start_ns: u64, secs: f64, n: usize) -> Vec<Vec<Record>> {
    let width = (secs * 1e9 / n as f64) as u64;
    let mut out = vec![Vec::new(); n];
    for x in recs {
        let w = ((x.plan.due_ns.saturating_sub(start_ns)) / width.max(1)) as usize;
        out[w.min(n - 1)].push(x.clone());
    }
    out
}

/// Median latency of the first read of each written customer due after
/// its write was acknowledged.
fn read_after_write_us(recs: &[Record], writes: &[WriteRec]) -> Option<f64> {
    let mut firsts = Vec::new();
    for w in writes {
        for &c in &w.customers {
            if let Some(x) = recs
                .iter()
                .find(|x| x.plan.key == c && x.plan.due_ns >= w.ack_ns)
            {
                firsts.push(x.latency_us());
            }
        }
    }
    percentile(&sorted(firsts), 0.5)
}

/// The read side of a run: the client connections, the key distribution
/// and the read stream drawn from it.
struct Traffic<'a> {
    client: Client,
    keys: &'a [i64],
    zipf: &'a Zipf,
    reads: Rng,
    next_id: u64,
    gauges: Gauges<'a>,
    /// Every read issued, for the output checks.
    all: Vec<Record>,
    /// Per-phase accounting for the detail line.
    phases: Vec<(String, String)>,
}

impl Traffic<'_> {
    /// Open-loop Poisson reads at `rate` for `secs`: the first due time and
    /// the phase's records (also kept for the checks).
    fn phase(&mut self, name: &str, rate: f64, secs: f64) -> (u64, Vec<Record>) {
        let start = self.client.now_ns() + 5_000_000;
        let plan = poisson_plan(
            rate,
            start,
            secs,
            self.zipf,
            &mut self.reads,
            &mut self.next_id,
        );
        let gauges = &mut self.gauges;
        let recs = self
            .client
            .run(&plan, self.keys, DRAIN, &mut || gauges.sample());
        self.phases
            .push((name.to_string(), tally_json(&tally(&recs))));
        self.all.extend(recs.iter().cloned());
        (start, recs)
    }
}

/// The untraced measurement: the nominal phase (read latency windows and
/// CPU per read), the capacity ladder, and a closed-loop saturation run.
fn measure(t: &mut Traffic, seconds: f64, r: &mut RunResult) {
    let secs = seconds * NOMINAL_SHARE;
    let cpu0 = crate::sys::process_cpu_s();
    let (start, nominal) = t.phase("nominal", NOMINAL_RPS, secs);
    let cpu = crate::sys::process_cpu_s() - cpu0;
    r.set("cpu_ms_per_op", cpu * 1e3 / nominal.len().max(1) as f64);
    let (p50, p99): (Vec<f64>, Vec<f64>) = windows(&nominal, start, secs, WINDOWS)
        .iter()
        .map(|w| {
            let t = tally(w);
            (t.p50_us / 1e3, t.p99_us / 1e3)
        })
        .unzip();
    r.set_median("read_p50_ms", p50);
    r.set_median("read_p99_ms", p99);

    let mut best = 0.0;
    let mut rungs = Vec::new();
    for i in 0..LADDER_RUNGS {
        let rate = LADDER_START_RPS * f64::from(1u32 << i);
        let (start, recs) = t.phase(&format!("rung_{rate}"), rate, RUNG_SECS);
        let end = start + (RUNG_SECS * 1e9) as u64;
        let sent = recs.iter().filter(|x| x.sent_ns <= end).count() as u64;
        let done = recs
            .iter()
            .filter(|x| x.done_ns.is_some_and(|d| d <= end))
            .count() as u64;
        let tl = tally(&recs);
        let ok = rung_sustained(tl.p99_us, P99_LIMIT_US, sent, done);
        rungs.push(format!(
            "{{\"rate\": {rate}, \"sent_by_end\": {sent}, \"done_by_end\": {done}, \"backlog\": {}, \"sustained\": {ok}}}",
            over_capacity(sent, done)
        ));
        if !ok {
            break;
        }
        best = tl.ok as f64 / RUNG_SECS;
    }
    r.detail("ladder", format!("[{}]", rungs.join(", ")));
    r.detail("max_read_rps", num(best));

    let (zipf, reads) = (t.zipf, &mut t.reads);
    let (recs, done) = t.client.saturate(
        SATURATE_WINDOW,
        SATURATE_SECS,
        t.keys,
        &mut || zipf.sample(reads),
        &mut t.next_id,
    );
    r.detail("saturated_rps", num(done as f64 / SATURATE_SECS));
    t.phases
        .push(("saturation".into(), tally_json(&tally(&recs))));
    t.all.extend(recs);
}

/// The traced measurement: an untraced socket window (cache, routing and
/// generator figures), an in-process replay of a fresh stream from the
/// same distribution (per-stage times), then the same socket window with
/// `relgraph-obs` recording into memory (spans, overhead).
fn measure_traced(
    t: &mut Traffic,
    engine: &ShardedEngine,
    seconds: f64,
    seed: u64,
    mixed: bool,
    r: &mut RunResult,
) {
    let half = seconds / 2.0;
    let s0: CacheStats = engine.stats();
    let (steals0, spills0) = (engine.steals(), engine.spills());
    let (_, window_a) = t.phase("untraced", NOMINAL_RPS, half);
    let s1 = engine.stats();
    let ta = tally(&window_a);
    r.set(
        "cache.pred_hit_ratio",
        ratio(
            s1.prediction_hits - s0.prediction_hits,
            s1.prediction_misses - s0.prediction_misses,
        ),
    );
    r.set(
        "cache.emb_hit_ratio",
        ratio(
            s1.embedding_hits - s0.embedding_hits,
            s1.embedding_misses - s0.embedding_misses,
        ),
    );
    r.set(
        "cache.l2_hit_ratio",
        ratio(s1.l2_hits - s0.l2_hits, s1.l2_misses - s0.l2_misses),
    );
    r.set(
        "cache.pred_evictions",
        (s1.prediction_evictions - s0.prediction_evictions) as f64,
    );
    r.set("sharded.steals", (engine.steals() - steals0) as f64);
    r.set("sharded.spills", (engine.spills() - spills0) as f64);
    r.set("load.lateness_p99_us", ta.lateness_p99_us);

    // A fresh stream, so its tail keys miss as they do on the socket.
    let mut replay_rng = Rng::new(seed, STREAM_REPLAY);
    let plan = poisson_plan(NOMINAL_RPS, 0, half, t.zipf, &mut replay_rng, &mut 0);
    let rep = replay(engine, &plan, t.keys);
    let med = |v: &[f64]| percentile(&sorted(v.to_vec()), 0.5).unwrap_or(0.0);
    r.set("protocol.parse_us", med(&rep.parse_us));
    r.set("serve.hit_us", med(&rep.hit_us));
    r.set("serve.miss_us", med(&rep.miss_us));
    r.set("protocol.serialize_us", med(&rep.serialize_us));
    r.set("server.transport_us", ta.p50_us - med(&rep.total_us));
    r.detail(
        "replay",
        format!(
            "{{\"requests\": {}, \"hits\": {}, \"misses\": {}, \"inproc_p50_us\": {}}}",
            plan.len(),
            rep.hit_us.len(),
            rep.miss_us.len(),
            num(med(&rep.total_us))
        ),
    );

    let sink = obs::MemorySink::install();
    let (_, window_b) = t.phase("traced", NOMINAL_RPS, half);
    obs::disable();
    r.set(
        "trace_overhead_pct",
        (tally(&window_b).p50_us / ta.p50_us - 1.0) * 100.0,
    );
    let mut deltas = Vec::new();
    for root in sink.roots() {
        collect(&root, "db2graph.delta", &mut deltas);
    }
    if mixed {
        r.check(!deltas.is_empty(), || {
            "no db2graph.delta spans recorded".into()
        });
    }
    if let Some(v) = percentile(&sorted(deltas), 0.5) {
        r.set("db2graph.delta_ms", v);
    }
}

/// Run one serve workload.
pub fn run(seed: u64, seconds: f64, mixed: bool, trace: bool, r: &mut RunResult) {
    let work = WorkDir::new(if mixed { "serve_mixed" } else { "serve_read" });
    // Untraced runs set up three times and report the median; the last
    // set-up is the one that serves.
    let reps = if trace { 1 } else { 3 };
    let mut setup = Vec::new();
    let mut rig = None;
    for _ in 0..reps {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(set_up(seed, mixed, &work));
        setup.push(t.elapsed().as_secs_f64());
    }
    let rig = rig.expect("at least one set-up");
    r.set_median("setup_s", setup);
    let auroc = rig
        .engine
        .fit_metrics()
        .iter()
        .find(|(n, _)| n == "auroc")
        .map(|&(_, v)| v);
    r.check(auroc.is_some_and(f64::is_finite), || {
        format!("fit metrics {:?}", rig.engine.fit_metrics())
    });
    r.set("auroc", auroc.unwrap_or(0.0));

    let Rig {
        engine,
        listener,
        sock,
        keys,
        mut durable,
    } = rig;
    let zipf = Zipf::new(keys.len(), ZIPF_S, &mut Rng::new(seed, STREAM_RANKS));
    // Fill the caches the way long traffic would: every key once, coldest
    // first, so the LRU ends up holding the hottest ranks.
    let cold_to_hot: Vec<Value> = zipf.coldest_first().map(|k| Value::Int(keys[k])).collect();
    for chunk in cold_to_hot.chunks(WARM_CHUNK) {
        engine.predict_batch_keys(chunk);
    }
    // Memory of set-up and the filled caches, before traffic adds the
    // generator's own load-dependent buffers and writes add snapshots.
    r.set("peak_rss_mb", crate::sys::peak_rss_mb().unwrap_or(0.0));

    let connections = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(CONNECTIONS);
    let origin = Instant::now();
    let stop_server = AtomicBool::new(false);
    let stop_writer = AtomicBool::new(false);
    let acked = AtomicU64::new(0);
    let wal_path = work.0.join("data").join("wal.log");
    let wal_len = || std::fs::metadata(&wal_path).map_or(0, |m| m.len());
    let wal_start = wal_len();
    let writes: Mutex<Vec<WriteRec>> = Mutex::new(Vec::new());
    let mut reads: Vec<Record> = Vec::new();
    let stats_start = engine.stats();
    let mut stats_end = stats_start;
    std::thread::scope(|s| {
        let server = s.spawn(|| listener.run(&engine, &stop_server));
        let start = origin.elapsed().as_nanos() as u64;
        let writer = durable.as_mut().map(|(dd, mirror)| {
            let (engine, zipf, stop, writes, acked) =
                (&engine, &zipf, &stop_writer, &writes, &acked);
            let rng = Rng::new(seed, STREAM_WRITES);
            s.spawn(move || {
                let recs = write_loop(engine, dd, mirror, zipf, rng, origin, start, stop, acked);
                *writes.lock().expect("writer records") = recs;
            })
        });
        match Client::connect(&sock, connections, origin) {
            Ok(client) => {
                let mut t = Traffic {
                    client,
                    keys: &keys,
                    zipf: &zipf,
                    reads: Rng::new(seed, STREAM_READS),
                    next_id: 1,
                    gauges: Gauges {
                        engine: &engine,
                        max_depth: 0,
                    },
                    all: Vec::new(),
                    phases: Vec::new(),
                };
                t.phase("warmup", NOMINAL_RPS, WARMUP_SECS);
                if trace {
                    measure_traced(&mut t, &engine, seconds, seed, mixed, r);
                    // Enough writes for the write-path percentiles.
                    while mixed && acked.load(Ordering::SeqCst) < MIN_TRACED_WRITES {
                        t.phase("extra", NOMINAL_RPS, 1.0);
                    }
                } else {
                    measure(&mut t, seconds, r);
                }
                r.set("sharded.queue_depth_max", t.gauges.max_depth as f64);
                let stray = t.client.stray_lines;
                r.check(stray == 0, || {
                    format!("{stray} response lines answered no outstanding request")
                });
                let phases: Vec<String> = t
                    .phases
                    .iter()
                    .map(|(k, v)| format!("{}: {v}", crate::report::string(k)))
                    .collect();
                r.detail("phases", format!("{{{}}}", phases.join(", ")));
                // Closing the connections lets the server's handlers end.
                t.client.shutdown();
                reads = t.all;
            }
            Err(e) => r.problems.push(format!("connect: {e}")),
        }
        stop_writer.store(true, Ordering::SeqCst);
        if let Some(w) = writer {
            if w.join().is_err() {
                r.problems.push("writer thread panicked".into());
            }
        }
        stats_end = engine.stats();
        stop_server.store(true, Ordering::SeqCst);
        match server.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => r.problems.push(format!("server: {e}")),
            Err(_) => r.problems.push("server thread panicked".into()),
        }
    });

    // Output checks.
    account(r, &reads);
    let writes = writes.into_inner().expect("writer records");
    if let Some((_, mirror)) = &durable {
        r.attempted += writes.len() as u64;
        let bad = writes.iter().filter(|w| !w.ok).count();
        r.failed += bad as u64;
        r.check(bad == 0, || format!("{bad} writes were not fully accepted"));
        r.check(
            writes.iter().any(|w| w.flushed) && writes.iter().any(|w| !w.flushed),
            || "writes did not exercise both the flush and the precise path".into(),
        );
        // Every entity, scored by the engine that served the stream (its
        // caches included), against a cold rebuild.
        let all_keys: Vec<Value> = keys.iter().map(|&k| Value::Int(k)).collect();
        let warm: Vec<Option<f64>> = engine
            .predict_batch_keys(&all_keys)
            .into_iter()
            .map(|p| p.ok())
            .collect();
        drop(engine);
        check_cold(r, &work.0.join("data"), mirror, &warm, &keys);
        let invalidated = (
            stats_end.invalidated_embeddings - stats_start.invalidated_embeddings,
            stats_end.invalidated_predictions - stats_start.invalidated_predictions,
        );
        write_metrics(
            r,
            &writes,
            wal_len() - wal_start,
            invalidated,
            trace,
            &reads,
        );
    } else {
        check_against(r, "socket vs in-process", &reads, &keys, &|k| {
            let vals: Vec<Value> = k.iter().map(|&v| Value::Int(v)).collect();
            engine
                .predict_batch_keys(&vals)
                .into_iter()
                .map(|p| p.ok())
                .collect()
        });
    }
}

fn write_metrics(
    r: &mut RunResult,
    writes: &[WriteRec],
    wal_bytes: u64,
    invalidated: (u64, u64),
    trace: bool,
    reads: &[Record],
) {
    let ack = sorted(
        writes
            .iter()
            .map(|w| w.ack_ns.saturating_sub(w.due_ns) as f64 / 1e6)
            .collect(),
    );
    r.detail("writes", writes.len().to_string());
    if !trace {
        r.detail(
            "write_ack_p50_ms",
            num(percentile(&ack, 0.5).unwrap_or(0.0)),
        );
        r.detail(
            "write_ack_p90_ms",
            num(percentile(&ack, 0.9).unwrap_or(0.0)),
        );
        return;
    }
    r.check(writes.len() as u64 >= MIN_TRACED_WRITES, || {
        format!("only {} writes in a traced run", writes.len())
    });
    let med = |v: Vec<f64>| percentile(&sorted(v), 0.5).unwrap_or(0.0);
    r.set("write.ack_p50_ms", percentile(&ack, 0.5).unwrap_or(0.0));
    r.set("write.ack_p90_ms", percentile(&ack, 0.9).unwrap_or(0.0));
    r.set(
        "store.wal_commit_ms",
        med(writes.iter().map(|w| w.wal_ms).collect()),
    );
    r.set(
        "serve.publish_ms",
        med(writes.iter().map(|w| w.publish_ms).collect()),
    );
    let rows = (writes.len() * ROWS_PER_WRITE).max(1);
    r.set("store.wal_bytes_per_row", wal_bytes as f64 / rows as f64);
    r.set(
        "serve.flush_share",
        writes.iter().filter(|w| w.flushed).count() as f64 / writes.len().max(1) as f64,
    );
    let n = writes.len().max(1) as f64;
    r.set("serve.invalidated_emb_per_write", invalidated.0 as f64 / n);
    r.set("serve.invalidated_pred_per_write", invalidated.1 as f64 / n);
    if let Some(v) = read_after_write_us(reads, writes) {
        r.set("serve.read_after_write_us", v);
    }
}

/// Replay timings of the in-process request path.
struct Replay {
    parse_us: Vec<f64>,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    serialize_us: Vec<f64>,
    total_us: Vec<f64>,
}

/// Replay a request stream through `parse_request` →
/// `predict_batch_keys` → `response_ok` in this thread, telling hits from
/// misses by the engine's cache counters around each call.
fn replay(engine: &ShardedEngine, plan: &[Planned], keys: &[i64]) -> Replay {
    let mut out = Replay {
        parse_us: Vec::with_capacity(plan.len()),
        hit_us: Vec::new(),
        miss_us: Vec::new(),
        serialize_us: Vec::with_capacity(plan.len()),
        total_us: Vec::with_capacity(plan.len()),
    };
    let mut sink = 0usize;
    for p in plan {
        let line = format!("{{\"id\": {}, \"entity\": {}}}", p.id, keys[p.key]);
        let before = engine.stats().prediction_hits;
        let t0 = Instant::now();
        let req = parse_request(&line).expect("replayed request parses");
        let t1 = Instant::now();
        let pred = engine
            .predict_batch_keys(std::slice::from_ref(&req.entity))
            .pop()
            .expect("one result")
            .expect("known entity");
        let t2 = Instant::now();
        let resp = response_ok(req.id, pred);
        let t3 = Instant::now();
        sink += resp.len();
        let hit = engine.stats().prediction_hits > before;
        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        out.parse_us.push(us(t0, t1));
        if hit {
            out.hit_us.push(us(t1, t2));
        } else {
            out.miss_us.push(us(t1, t2));
        }
        out.serialize_us.push(us(t2, t3));
        out.total_us.push(us(t0, t3));
    }
    std::hint::black_box(sink);
    out
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn collect(node: &obs::SpanNode, name: &str, out: &mut Vec<f64>) {
    if node.name == name {
        out.push(node.duration_ms);
    }
    for c in &node.children {
        collect(c, name, out);
    }
}
