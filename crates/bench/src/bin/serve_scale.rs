//! Scaling smoke for the sharded serving tier.
//!
//! ```text
//! cargo run --release -p relgraph-bench --bin serve_scale -- \
//!     [--clients N] [--shards N] [--floor X]
//! ```
//!
//! Fits one quick model, then measures the *identical* concurrent client
//! protocol (same client count, same per-client request streams, same
//! batch size, same warmup) against a 1-shard engine and an N-shard
//! engine, one after the other: each engine is built, warmed, timed, and
//! dropped before the next is built. Prints requests/s for both and the
//! scaling ratio.
//!
//! Correctness is asserted, not assumed: both configurations must serve
//! bitwise-identical predictions for the full stream (routing rows to
//! cache slices must be invisible in the output bits).
//!
//! Exit status: non-zero when `--floor X` is given and the N-shard /
//! 1-shard throughput ratio falls below `X`, or when any bitwise
//! comparison fails. A floor of `0` (the default) reports without gating.

use std::time::Instant;

use relgraph_datagen::{generate_ecommerce, EcommerceConfig};
use relgraph_pq::ExecConfig;
use relgraph_serve::{ServeConfig, ServeEngine, ShardedEngine};

struct Args {
    clients: usize,
    shards: usize,
    floor: f64,
}

fn parse_args() -> Args {
    let mut out = Args {
        clients: 4,
        shards: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8),
        floor: 0.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> f64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a numeric value"))
        };
        match a.as_str() {
            "--clients" => out.clients = num("--clients") as usize,
            "--shards" => out.shards = num("--shards") as usize,
            "--floor" => out.floor = num("--floor"),
            other => panic!("unknown flag `{other}` (see the module docs)"),
        }
    }
    out.clients = out.clients.max(1);
    out.shards = out.shards.max(1);
    out
}

/// Best-of-3 wall seconds for `f`, after one untimed warmup call (which
/// fills every cache tier — both sides measure warm, like steady state).
fn best_secs(mut f: impl FnMut() -> f64) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let args = parse_args();

    // Fit once; every engine below serves this exact model, so any output
    // difference is serving machinery, never the model.
    let db = generate_ecommerce(&EcommerceConfig {
        customers: 120,
        products: 24,
        seed: 11,
        ..Default::default()
    })
    .expect("generate db");
    let exec = ExecConfig {
        epochs: 2,
        hidden_dim: 8,
        fanouts: vec![4, 4],
        ..Default::default()
    };
    let engine = ServeEngine::fit(
        db,
        "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id",
        &exec,
        ServeConfig::default(),
    )
    .expect("fit engine");
    let entities = engine.deploy_entities().expect("deploy entities");
    let stream: Vec<usize> = (0..1024)
        .map(|i| entities[(i * 7) % entities.len()])
        .collect();
    let batch = engine.config().max_batch;

    let db0 = engine.db().clone();
    let query0 = engine.query().clone();
    let model0 = engine.model_handle();
    let node_type0 = engine.node_type();
    let metrics0 = engine.metrics_owned();
    drop(engine);
    let make = |shards: usize| {
        ShardedEngine::from_fitted(
            db0.clone(),
            query0.clone(),
            model0.clone(),
            node_type0,
            metrics0.clone(),
            ServeConfig::default(),
            shards,
        )
        .expect("assemble sharded engine")
    };

    // One pass over the full stream, single-threaded: the canonical
    // response bytes for this engine configuration.
    let response_bits = |eng: &ShardedEngine| -> Vec<u64> {
        stream
            .chunks(batch)
            .flat_map(|c| eng.predict_batch_rows(c))
            .map(f64::to_bits)
            .collect()
    };
    // The timed protocol: `clients` threads walking the stream from
    // rotated offsets, so requests overlap without running in lockstep.
    let run_clients = |eng: &ShardedEngine| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..args.clients)
                .map(|c| {
                    let stream = &stream;
                    scope.spawn(move || {
                        let mut acc = 0.0;
                        let off = c * stream.len() / args.clients;
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

    // One engine at a time: the 1-shard engine is dropped before the
    // N-shard engine is built.
    let (bits_single, secs_single) = {
        let single = make(1);
        let bits = response_bits(&single);
        (bits, best_secs(|| run_clients(&single)))
    };
    let (bits_multi, secs_multi) = {
        let multi = make(args.shards);
        let bits = response_bits(&multi);
        (bits, best_secs(|| run_clients(&multi)))
    };

    let total = (args.clients * stream.len()) as f64;
    let rps_single = total / secs_single;
    let rps_multi = total / secs_multi;
    let ratio = rps_multi / rps_single;
    println!(
        "serve_scale: clients={} stream={} batch={}",
        args.clients,
        stream.len(),
        batch
    );
    println!("  shards=1            {rps_single:>12.0} req/s");
    println!(
        "  shards={:<2}           {rps_multi:>12.0} req/s",
        args.shards
    );
    println!("  scaling ratio: {ratio:.2}x (floor {:.2})", args.floor);

    let mut failed = false;
    if bits_single != bits_multi {
        let diverged = bits_single
            .iter()
            .zip(&bits_multi)
            .filter(|(a, b)| a != b)
            .count();
        eprintln!(
            "FAIL: {diverged}/{} predictions differ bitwise between 1 and {} shards",
            bits_single.len(),
            args.shards
        );
        failed = true;
    } else {
        println!(
            "  bitwise: 1-shard == {}-shard over all {} predictions",
            args.shards,
            bits_single.len()
        );
    }

    if args.floor > 0.0 && ratio < args.floor {
        eprintln!(
            "FAIL: scaling ratio {ratio:.2}x below floor {:.2}x",
            args.floor
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
