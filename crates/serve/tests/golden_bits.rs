//! Golden bit pins for the per-node inference walk in every serving
//! precision.
//!
//! The equivalence batteries compare warm against cold *within one build*,
//! so a refactor that shifts every value the same way passes them. This
//! file pins the exact `to_bits()` of every prediction on one fixed graph
//! and model — f64, f32 and q8, cold and warm — so DESIGN.md §15's promise
//! (the serving path is bit-stable across refactors that keep its
//! arithmetic) is held by a test. If a change *intends* to move the bits,
//! regenerate the tables below and say so in the change log.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relgraph_gnn::{
    predict_nodes, train_node_model, InferModel32, NoCache, NodeModel, TaskKind, TrainConfig,
};
use relgraph_graph::{FeatureMatrix, HeteroGraph, HeteroGraphBuilder, NodeTypeId, Seed};
use relgraph_serve::{EmbeddingCache, Identity, Q8};

const SECONDS_PER_DAY: i64 = 86_400;
const USERS: usize = 16;
/// Embedding-cache capacity: large enough that nothing is evicted.
const CACHE: usize = 1 << 12;

/// The `shared_item_graph` fixture of `relgraph-gnn`'s inference tests:
/// users owning overlapping items with creation times, so temporal
/// visibility, degree windows and cross-seed dedup are all exercised.
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
            let seed = Seed {
                node_type: NodeTypeId(0),
                node: n,
                time: anchor,
            };
            (seed, y)
        })
        .collect();
    (g, examples)
}

fn fixture(task: TaskKind) -> (HeteroGraph, NodeModel, Vec<usize>, i64) {
    let (g, examples) = shared_item_graph(USERS, 5);
    let cfg = TrainConfig {
        epochs: 4,
        fanouts: vec![3, 3],
        hidden_dim: 8,
        seed: 13,
        ..Default::default()
    };
    let model = train_node_model(&g, task, &examples, &[], &cfg).unwrap();
    let nodes = examples.iter().map(|&(s, _)| s.node).collect();
    (g, model, nodes, examples[0].0.time)
}

fn bits(preds: &[f64]) -> Vec<u64> {
    preds.iter().map(|p| p.to_bits()).collect()
}

/// Predictions in every precision, cold (no cache, or a fresh q8 cache)
/// and warm (the second pass over a populated cache), each checked
/// against its pinned table.
fn assert_pinned(task: TaskKind, want: [&[u64; USERS]; 3]) {
    let (g, model, nodes, anchor) = fixture(task);
    let ty = NodeTypeId(0);
    let check = |mode: &str, pass: &str, got: Vec<f64>, want: &[u64; USERS]| {
        assert_eq!(bits(&got), want.to_vec(), "{task:?} {mode} {pass} moved");
    };

    check(
        "f64",
        "cold",
        predict_nodes(&model, &g, ty, &nodes, anchor, &mut NoCache),
        want[0],
    );
    let mut cache = EmbeddingCache::<Identity<f64>>::new(CACHE);
    predict_nodes(&model, &g, ty, &nodes, anchor, &mut cache);
    check(
        "f64",
        "warm",
        predict_nodes(&model, &g, ty, &nodes, anchor, &mut cache),
        want[0],
    );

    let m32 = InferModel32::from_model(&model);
    check(
        "f32",
        "cold",
        predict_nodes(&m32, &g, ty, &nodes, anchor, &mut NoCache),
        want[1],
    );
    let mut cache = EmbeddingCache::<Identity<f32>>::new(CACHE);
    predict_nodes(&m32, &g, ty, &nodes, anchor, &mut cache);
    check(
        "f32",
        "warm",
        predict_nodes(&m32, &g, ty, &nodes, anchor, &mut cache),
        want[1],
    );

    let mut cache = EmbeddingCache::<Q8>::new(CACHE);
    check(
        "q8",
        "cold",
        predict_nodes(&m32, &g, ty, &nodes, anchor, &mut cache),
        want[2],
    );
    check(
        "q8",
        "warm",
        predict_nodes(&m32, &g, ty, &nodes, anchor, &mut cache),
        want[2],
    );
}

#[test]
fn binary_predictions_are_pinned_in_every_precision() {
    assert_pinned(TaskKind::Binary, [&BINARY_F64, &BINARY_F32, &BINARY_Q8]);
}

#[test]
fn regression_predictions_are_pinned_in_every_precision() {
    assert_pinned(
        TaskKind::Regression,
        [&REGRESSION_F64, &REGRESSION_F32, &REGRESSION_Q8],
    );
}

const BINARY_F64: [u64; USERS] = [
    0x3fe0d4cb773c4b0a,
    0x3fe0358209d88cdf,
    0x3fe02cdb2a6fc7e7,
    0x3fe0413a5948cb63,
    0x3fe0f9cc76637470,
    0x3fe0e02e378924ed,
    0x3fe1083e6a68c5bc,
    0x3fe0c6b00d3ae951,
    0x3fe0d4cb773c4b0a,
    0x3fe0358209d88cdf,
    0x3fe02cdb2a6fc7e7,
    0x3fe0413a5948cb63,
    0x3fe0f9cc76637470,
    0x3fe0e02e378924ed,
    0x3fe1083e6a68c5bc,
    0x3fe0c6b00d3ae951,
];
const BINARY_F32: [u64; USERS] = [
    0x3fe0d4cb7d26ce22,
    0x3fe035820a0082bb,
    0x3fe02cdb27795c22,
    0x3fe0413a61955a47,
    0x3fe0f9cc74a6fa5b,
    0x3fe0e02e3d7a8742,
    0x3fe1083e6f5e8b02,
    0x3fe0c6b016928d4e,
    0x3fe0d4cb7d26ce22,
    0x3fe035820a0082bb,
    0x3fe02cdb27795c22,
    0x3fe0413a61955a47,
    0x3fe0f9cc74a6fa5b,
    0x3fe0e02e3d7a8742,
    0x3fe1083e6f5e8b02,
    0x3fe0c6b016928d4e,
];
const BINARY_Q8: [u64; USERS] = [
    0x3fe0d6904ad24bd7,
    0x3fe034d94d48d44a,
    0x3fe02c2c3003d8e9,
    0x3fe03e01c08817ca,
    0x3fe0f91b75568189,
    0x3fe0e1cd49eaae13,
    0x3fe108c7fbe7d802,
    0x3fe0c7eeb0fe2507,
    0x3fe0d6904ad24bd7,
    0x3fe034d94d48d44a,
    0x3fe02c2c3003d8e9,
    0x3fe03e01c08817ca,
    0x3fe0f91b75568189,
    0x3fe0e1cd49eaae13,
    0x3fe108c7fbe7d802,
    0x3fe0c7eeb0fe2507,
];
const REGRESSION_F64: [u64; USERS] = [
    0x3fe540920b7825c9,
    0x3fe3937d4de91421,
    0x3fe38208c3d64acb,
    0x3fe3ad3777e48572,
    0x3fe568eac32a40ca,
    0x3fe56441d5eb5748,
    0x3fe5c5debe64b8bd,
    0x3fe4ed82e515b90d,
    0x3fe540920b7825c9,
    0x3fe3937d4de91421,
    0x3fe38208c3d64acb,
    0x3fe3ad3777e48572,
    0x3fe568eac32a40ca,
    0x3fe56441d5eb5748,
    0x3fe5c5debe64b8bd,
    0x3fe4ed82e515b90d,
];
const REGRESSION_F32: [u64; USERS] = [
    0x3fe540920745fe35,
    0x3fe3937d44dde412,
    0x3fe38208eb9dd387,
    0x3fe3ad3784edbadf,
    0x3fe568eac0c7f480,
    0x3fe56441d80b5266,
    0x3fe5c5decd2ce9af,
    0x3fe4ed82e466cd4e,
    0x3fe540920745fe35,
    0x3fe3937d44dde412,
    0x3fe38208eb9dd387,
    0x3fe3ad3784edbadf,
    0x3fe568eac0c7f480,
    0x3fe56441d80b5266,
    0x3fe5c5decd2ce9af,
    0x3fe4ed82e466cd4e,
];
const REGRESSION_Q8: [u64; USERS] = [
    0x3fe53f3c04ace6a1,
    0x3fe39252281cef1b,
    0x3fe381e5beee237d,
    0x3fe3abfc28973d6c,
    0x3fe567825e71dd66,
    0x3fe5658ffac1210a,
    0x3fe5c792abc31b63,
    0x3fe4ebc4cab5bb1d,
    0x3fe53f3c04ace6a1,
    0x3fe39252281cef1b,
    0x3fe381e5beee237d,
    0x3fe3abfc28973d6c,
    0x3fe567825e71dd66,
    0x3fe5658ffac1210a,
    0x3fe5c792abc31b63,
    0x3fe4ebc4cab5bb1d,
];
