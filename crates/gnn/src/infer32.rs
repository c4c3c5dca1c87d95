//! Single-precision inference: the `f32` [`WalkModel`] for the one
//! per-node walk in [`crate::infer`].
//!
//! A fitted [`NodeModel`] trains and stays in `f64`; this module
//! down-converts its weights **once** into an [`InferModel32`] — every
//! linear layer narrowed to `f32` and prepacked for the `f32` packed-B
//! microkernel — which [`predict_nodes`](crate::infer::predict_nodes)
//! then evaluates tape-free: no autodiff graph, no per-node tensor
//! allocation, just [`relgraph_tensor::mm_packed_f32`] over prepacked
//! weights. The walk (discovery order, kept-neighbor lists, level-0
//! feature rows before narrowing, store protocol) is the `f64` walk — only
//! arithmetic precision differs, which is what the DESIGN.md §15 error
//! bound quantifies.
//!
//! Within one precision mode, determinism is preserved: each embedding is
//! a pure function of `(type, node, level, anchor)` with a fixed `f32`
//! accumulation order, so cache-warm and cache-cold runs are bit-identical
//! — including under quantized stores, through the walk's
//! [`canonicalize`](crate::infer::EmbeddingStore::canonicalize) rule.

use relgraph_graph::SamplerConfig;
use relgraph_nn::{Linear, Mlp, ParamSet};
use relgraph_tensor::{apply_act_f32, mm_packed_f32, pack_b_f32, ActKind};

use crate::infer::{NodeInputs, WalkModel, WalkSpec};
use crate::sage::{Aggregation, SageLayer};
use crate::train::{NodeModel, TaskKind};

/// Numeric mode of the serving inference path. Training is always `f64`;
/// this selects how *inference* computes and how the embedding cache
/// stores hop-k embeddings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Double precision everywhere — bit-identical to the training-time
    /// prediction path. The default.
    #[default]
    F64,
    /// Weights down-converted once; per-node inference in `f32` with the
    /// wide SIMD kernel. Embedding cache stores `f32` rows.
    F32,
    /// `f32` compute plus an 8-bit linearly-quantized embedding cache
    /// (per-row scale/min), holding ~4–8× more entities per byte.
    Q8,
}

impl Precision {
    /// Stable one-byte tag for the model-snapshot header.
    pub fn tag(self) -> u8 {
        match self {
            Precision::F64 => 0,
            Precision::F32 => 1,
            Precision::Q8 => 2,
        }
    }

    /// Inverse of [`Precision::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Precision::F64),
            1 => Some(Precision::F32),
            2 => Some(Precision::Q8),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Q8 => "q8",
        })
    }
}

impl std::str::FromStr for Precision {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f64" => Ok(Precision::F64),
            "f32" => Ok(Precision::F32),
            "q8" => Ok(Precision::Q8),
            other => Err(format!(
                "unknown precision `{other}` (expected f64, f32 or q8)"
            )),
        }
    }
}

/// One dense layer narrowed to `f32`, weights prepacked for the packed-B
/// microkernel at conversion time so the per-request hot path never packs.
struct LinearF32 {
    packed_w: Vec<f32>,
    bias: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

impl LinearF32 {
    fn from_linear(lin: &Linear, ps: &ParamSet) -> Self {
        let w = lin.weight(ps);
        let w32: Vec<f32> = w.data().iter().map(|&x| x as f32).collect();
        let bias: Vec<f32> = lin.bias(ps).data().iter().map(|&x| x as f32).collect();
        LinearF32 {
            packed_w: pack_b_f32(&w32, lin.in_dim(), lin.out_dim()),
            bias,
            in_dim: lin.in_dim(),
            out_dim: lin.out_dim(),
        }
    }

    /// `out = act(a · W + b)` for `rows` input rows.
    fn forward(&self, a: &[f32], rows: usize, out: &mut [f32], act: ActKind) {
        debug_assert_eq!(a.len(), rows * self.in_dim);
        debug_assert_eq!(out.len(), rows * self.out_dim);
        mm_packed_f32(
            a,
            &self.packed_w,
            out,
            rows,
            self.in_dim,
            self.out_dim,
            Some(&self.bias),
            act,
        );
    }
}

/// One SAGE layer narrowed to `f32`.
struct SageLayerF32 {
    self_lin: Vec<LinearF32>,
    edge_lin: Vec<LinearF32>,
    activation: ActKind,
    aggregation: Aggregation,
    out_dim: usize,
}

impl SageLayerF32 {
    fn from_layer(layer: &SageLayer, ps: &ParamSet) -> Self {
        SageLayerF32 {
            self_lin: layer
                .self_lins()
                .iter()
                .map(|l| LinearF32::from_linear(l, ps))
                .collect(),
            edge_lin: layer
                .edge_lins()
                .iter()
                .map(|l| LinearF32::from_linear(l, ps))
                .collect(),
            activation: layer.activation().kind(),
            aggregation: layer.aggregation(),
            out_dim: layer.out_dim(),
        }
    }
}

/// A fitted model down-converted once for `f32` serving: prepacked `f32`
/// layers plus the walk parameters (`SamplerConfig`, task, label scale)
/// copied out of the `f64` [`NodeModel`]. Build with
/// [`InferModel32::from_model`], evaluate with
/// [`predict_nodes`](crate::infer::predict_nodes).
pub struct InferModel32 {
    layers: Vec<SageLayerF32>,
    head: Vec<LinearF32>,
    head_act: ActKind,
    seed_type: usize,
    sampler_cfg: SamplerConfig,
    task: TaskKind,
    label_scale: (f64, f64),
}

impl InferModel32 {
    /// Down-convert a fitted `f64` model (one-time cost: one pass over
    /// every weight, narrowing and prepacking).
    pub fn from_model(model: &NodeModel) -> Self {
        let ps = model.ps();
        let gnn = model.gnn();
        let head: &Mlp = gnn.head();
        InferModel32 {
            layers: gnn
                .layers()
                .iter()
                .map(|l| SageLayerF32::from_layer(l, ps))
                .collect(),
            head: head
                .layers()
                .iter()
                .map(|l| LinearF32::from_linear(l, ps))
                .collect(),
            head_act: head.activation().kind(),
            seed_type: gnn.seed_type(),
            sampler_cfg: model.sampler_cfg().clone(),
            task: model.task(),
            label_scale: model.label_scale(),
        }
    }
}

/// Reusable per-chunk buffers for the tape-free kernels: a matmul's
/// input rows and its output rows.
#[derive(Default)]
pub struct Scratch32 {
    input: Vec<f32>,
    output: Vec<f32>,
}

/// The `f32` walk model: narrowed, prepacked weights on the packed
/// kernel.
impl WalkModel for InferModel32 {
    type Scalar = f32;
    type Scratch = Scratch32;
    const OBS: [&'static str; 4] = [
        "gnn.infer32",
        "gnn.infer32.seeds",
        "gnn.infer32.evals",
        "gnn.infer32.store_hits",
    ];

    fn spec(&self) -> WalkSpec<'_> {
        WalkSpec {
            seed_type: self.seed_type,
            num_layers: self.layers.len(),
            sampler_cfg: &self.sampler_cfg,
            task: self.task,
            label_scale: self.label_scale,
        }
    }

    /// The `f64` feature row, narrowed once.
    fn input_row(&self, row: Vec<f64>) -> Vec<f32> {
        row.into_iter().map(|x| x as f32).collect()
    }

    /// One SAGE layer applied to one node in `f32`: fused self transform,
    /// plus one message matmul + column aggregation per edge type with
    /// kept neighbors, in ascending edge-type order — structurally the
    /// same accumulation the `f64` tape performs, tape-free.
    fn eval_node(&self, s: &mut Scratch32, level: usize, input: &NodeInputs<'_, f32>) -> Vec<f32> {
        let layer = &self.layers[level - 1];
        let has_children = input.edges().next().is_some();
        // Nodes with no kept neighbors fuse the activation into the self
        // transform (exactly like the f64 path).
        let act = if has_children {
            ActKind::Identity
        } else {
            layer.activation
        };
        let d_out = layer.out_dim;
        let mut acc = vec![0.0f32; d_out];
        layer.self_lin[input.ty].forward(input.x_self, 1, &mut acc, act);
        for (et, dst, nbrs) in input.edges() {
            s.input.clear();
            input.stack(dst, nbrs, &mut s.input);
            s.output.clear();
            s.output.resize(nbrs.len() * d_out, 0.0);
            layer.edge_lin[et].forward(&s.input, nbrs.len(), &mut s.output, ActKind::Identity);
            // Single-segment aggregation over the message rows, ascending
            // neighbor order (the tape's segment ops accumulate the same
            // way).
            let inv = 1.0f32 / nbrs.len() as f32;
            for (j, a) in acc.iter_mut().enumerate() {
                let col = s.output[j..].iter().step_by(d_out).copied();
                *a += match layer.aggregation {
                    Aggregation::Mean => col.fold(0.0f32, |sum, x| sum + x) * inv,
                    Aggregation::Sum => col.fold(0.0f32, |sum, x| sum + x),
                    Aggregation::Max => col.fold(f32::NEG_INFINITY, f32::max),
                };
            }
        }
        if has_children {
            for a in acc.iter_mut() {
                *a = apply_act_f32(layer.activation, *a);
            }
        }
        acc
    }

    /// The head MLP in `f32`, widened to `f64` only at the output (the
    /// walk applies the sigmoid / label rescale in `f64`, exactly like the
    /// `f64` head).
    fn head(&self, s: &mut Scratch32, emb: &[f32]) -> f64 {
        s.input.clear();
        s.input.extend_from_slice(emb);
        let last = self.head.len() - 1;
        for (i, lin) in self.head.iter().enumerate() {
            let act = if i < last {
                self.head_act
            } else {
                ActKind::Identity
            };
            s.output.clear();
            s.output.resize(lin.out_dim, 0.0);
            lin.forward(&s.input, 1, &mut s.output, act);
            std::mem::swap(&mut s.input, &mut s.output);
        }
        s.input[0] as f64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::infer::{predict_nodes, NoCache};
    use crate::train::{train_node_model, TrainConfig};
    use relgraph_graph::{FeatureMatrix, HeteroGraph, HeteroGraphBuilder, NodeTypeId, Seed};

    const SECONDS_PER_DAY: i64 = 86_400;

    pub(crate) fn tiny_graph() -> (HeteroGraph, Vec<(Seed, f64)>) {
        let n_users = 24;
        let n_items = 8;
        let mut b = HeteroGraphBuilder::new();
        let u = b.add_node_type("user", n_users);
        let i = b.add_node_type("item", n_items);
        let owns = b.add_edge_type("owns", u, i);
        let owned_by = b.add_edge_type("owned_by", i, u);
        let mut item_feats = FeatureMatrix::zeros(n_items, 2);
        for item in 0..n_items {
            item_feats.row_mut(item)[0] = (item as f32 * 0.7).sin();
            item_feats.row_mut(item)[1] = 1.0;
        }
        let mut labels = Vec::with_capacity(n_users);
        for user in 0..n_users {
            let mut total = 0.0;
            for k in 0..3 {
                let item = (user + k * 5) % n_items;
                total += item_feats.row(item)[0] as f64;
                let t = (k as i64 + 1) * SECONDS_PER_DAY;
                b.add_edge(owns, user, item, t);
                b.add_edge(owned_by, item, user, t);
            }
            labels.push(if total > 0.0 { 1.0 } else { 0.0 });
        }
        b.set_features(i, item_feats);
        b.set_features(u, FeatureMatrix::from_rows(n_users, 1, vec![1.0; n_users]));
        let g = b.finish().unwrap();
        let anchor = 50 * SECONDS_PER_DAY;
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

    #[test]
    fn f32_predictions_track_f64_within_tolerance() {
        let (g, examples) = tiny_graph();
        let cfg = TrainConfig {
            epochs: 4,
            fanouts: vec![3, 3],
            hidden_dim: 8,
            seed: 7,
            ..Default::default()
        };
        let model = train_node_model(&g, TaskKind::Binary, &examples, &[], &cfg).unwrap();
        let nodes: Vec<usize> = examples.iter().map(|&(s, _)| s.node).collect();
        let anchor = examples[0].0.time;
        let reference = predict_nodes(&model, &g, NodeTypeId(0), &nodes, anchor, &mut NoCache);
        let m32 = InferModel32::from_model(&model);
        let got = predict_nodes(&m32, &g, NodeTypeId(0), &nodes, anchor, &mut NoCache);
        assert_eq!(got.len(), reference.len());
        for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
            assert!(
                (a - b).abs() < 1e-3,
                "seed {i}: f32 {a} vs f64 {b} diverged past the §15 tolerance"
            );
        }
    }

    #[test]
    fn precision_parses_and_round_trips_tags() {
        for p in [Precision::F64, Precision::F32, Precision::Q8] {
            assert_eq!(p.to_string().parse::<Precision>().unwrap(), p);
            assert_eq!(Precision::from_tag(p.tag()), Some(p));
        }
        assert!("f16".parse::<Precision>().is_err());
        assert_eq!(Precision::from_tag(9), None);
    }
}
