//! Row codecs: how the serving caches store an embedding row.
//!
//! Every embedding cache ([`EmbeddingCache`]) stores rows through one
//! [`RowCodec`], chosen by the serving [`Precision`](relgraph_gnn::Precision):
//!
//! * [`Identity<f64>`] stores the `f64` rows the tape computes, as is;
//! * [`Identity<f32>`] stores the `f32` rows the packed kernel computes
//!   (half the bytes);
//! * [`Q8`] stores 8-bit linearly quantized rows ([`QuantizedRow`]: one
//!   `u8` per dimension plus an 8-byte per-row `(scale, min)` header) — a
//!   4–8× byte reduction depending on row width.
//!
//! A codec's [`canonicalize`](RowCodec::canonicalize) is its round trip,
//! `decode ∘ encode`, and it is what the cache reports to the inference
//! walk as [`EmbeddingStore::canonicalize`](relgraph_gnn::EmbeddingStore::canonicalize).
//! The walk consumes the *storable* value from the start, which is what
//! makes warm (cache-hit) and cold (cache-miss) runs bit-identical. The
//! identity codecs skip the round trip (their encode moves the row, so the
//! `f64` hot path copies nothing extra). The q8 round-trip error bound —
//! at most `scale/2` plus one half-ulp of the reconstructed value — is
//! stated in `DESIGN.md` §15 and enforced by the property tests below.
//!
//! [`EmbeddingCache`]: crate::EmbeddingCache

use std::marker::PhantomData;

/// How a cache stores one embedding row of [`Self::Scalar`]s.
///
/// Codecs are stateless. The contract the walk relies on:
/// `decode(&encode(v)) == canonicalize(v)` bitwise, and `canonicalize` is
/// idempotent.
pub trait RowCodec: Send + Sync + 'static {
    /// The scalar the inference walk computes rows in.
    type Scalar: Copy + Send + Sync + 'static;
    /// The stored form of one row.
    type Stored: Send + 'static;
    /// Encode a row for storage.
    fn encode(row: Vec<Self::Scalar>) -> Self::Stored;
    /// Decode a stored row.
    fn decode(stored: &Self::Stored) -> Vec<Self::Scalar>;
    /// Exactly what [`decode`](Self::decode) returns after
    /// [`encode`](Self::encode) of `row`. Lossless codecs override this
    /// with the identity, skipping the round trip.
    fn canonicalize(row: Vec<Self::Scalar>) -> Vec<Self::Scalar> {
        Self::decode(&Self::encode(row))
    }
}

/// Rows stored as computed: `f64` ([`Identity<f64>`]) or `f32`
/// ([`Identity<f32>`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity<T>(PhantomData<T>);

impl RowCodec for Identity<f64> {
    type Scalar = f64;
    type Stored = Vec<f64>;
    fn encode(row: Vec<f64>) -> Vec<f64> {
        row
    }
    fn decode(stored: &Vec<f64>) -> Vec<f64> {
        stored.clone()
    }
    fn canonicalize(row: Vec<f64>) -> Vec<f64> {
        row
    }
}

impl RowCodec for Identity<f32> {
    type Scalar = f32;
    type Stored = Vec<f32>;
    fn encode(row: Vec<f32>) -> Vec<f32> {
        row
    }
    fn decode(stored: &Vec<f32>) -> Vec<f32> {
        stored.clone()
    }
    fn canonicalize(row: Vec<f32>) -> Vec<f32> {
        row
    }
}

/// `f32` rows stored as 8-bit linearly quantized [`QuantizedRow`]s
/// (~`dim + 8` bytes instead of `8·dim`), decoded on every hit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Q8;

impl RowCodec for Q8 {
    type Scalar = f32;
    type Stored = QuantizedRow;
    fn encode(row: Vec<f32>) -> QuantizedRow {
        quantize_row(&row)
    }
    fn decode(stored: &QuantizedRow) -> Vec<f32> {
        dequantize_row(stored)
    }
}

/// One 8-bit linearly quantized embedding row.
///
/// Encodes `x[i] ≈ min + q[i]·scale` with `q[i] ∈ 0..=255`. Constant rows
/// (including empty ones) use `scale = 0` and reconstruct exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedRow {
    /// Quantized codes, one per dimension.
    pub q: Vec<u8>,
    /// Step between adjacent codes (0 for constant rows).
    pub scale: f32,
    /// Value reconstructed for code 0.
    pub min: f32,
}

impl QuantizedRow {
    /// Bytes this row occupies: one code per dimension plus the
    /// `(scale, min)` header.
    pub fn bytes(&self) -> usize {
        self.q.len() + 2 * std::mem::size_of::<f32>()
    }
}

/// Bytes an embedding row of width `dim` occupies in the quantized tier.
pub fn q8_row_bytes(dim: usize) -> usize {
    dim + 2 * std::mem::size_of::<f32>()
}

/// Bytes an embedding row of width `dim` occupies in the `f64` tier.
pub fn f64_row_bytes(dim: usize) -> usize {
    dim * std::mem::size_of::<f64>()
}

/// Quantize a row to 8-bit codes over its own `[min, max]` range.
///
/// The scale is computed in `f64` (`(max − min) / 255` overflows to
/// infinity in `f32` only for ranges near `f32::MAX`, which the `f64`
/// intermediate sidesteps) and clamped up to `f32::MIN_POSITIVE` so that
/// subnormal-range rows still satisfy the `scale/2` reconstruction bound
/// after rounding. Non-finite inputs are the caller's bug; inference
/// rejects them upstream.
pub fn quantize_row(row: &[f32]) -> QuantizedRow {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &x in row {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if row.is_empty() || lo >= hi {
        // Constant (or empty) row: code 0 everywhere, exact reconstruction.
        let min = if row.is_empty() { 0.0 } else { lo };
        return QuantizedRow {
            q: vec![0; row.len()],
            scale: 0.0,
            min,
        };
    }
    let scale = (((hi as f64) - (lo as f64)) / 255.0) as f32;
    let scale = scale.max(f32::MIN_POSITIVE);
    let inv = 1.0 / (scale as f64);
    let q = row
        .iter()
        .map(|&x| ((((x as f64) - (lo as f64)) * inv).round()).clamp(0.0, 255.0) as u8)
        .collect();
    QuantizedRow { q, scale, min: lo }
}

/// Reconstruct the `f32` row a [`quantize_row`] result encodes.
///
/// The arithmetic runs in `f64` and narrows once, so reconstruction error
/// is the quantization step plus at most one half-ulp of the result.
pub fn dequantize_row(row: &QuantizedRow) -> Vec<f32> {
    let min = row.min as f64;
    let scale = row.scale as f64;
    row.q
        .iter()
        .map(|&q| (min + (q as f64) * scale) as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheSlice, EmbeddingCache};
    use proptest::prelude::*;
    use relgraph_gnn::EmbeddingStore;

    type Key = (usize, usize, usize);

    /// The §15 reconstruction bound: half a quantization step, plus one
    /// half-ulp of the reconstructed magnitude for the final narrowing,
    /// plus one subnormal step so denormal-range rows (where `scale` is
    /// clamped) stay inside the bound.
    fn assert_round_trip_bound(row: &[f32]) {
        let q = quantize_row(row);
        let back = dequantize_row(&q);
        assert_eq!(back.len(), row.len());
        for (&x, &y) in row.iter().zip(&back) {
            let bound = 0.5 * (q.scale as f64)
                + (f32::EPSILON as f64) * (x.abs() as f64)
                + f64::from(f32::MIN_POSITIVE);
            let diff = ((x as f64) - (y as f64)).abs();
            assert!(
                diff <= bound,
                "round-trip error {diff:e} exceeds bound {bound:e} for x={x:e} (scale={:e})",
                q.scale
            );
        }
    }

    #[test]
    fn constant_rows_reconstruct_exactly() {
        for v in [0.0f32, -0.0, 1.5, -3.25, f32::MIN_POSITIVE, 1e30] {
            let row = vec![v; 7];
            let q = quantize_row(&row);
            assert_eq!(q.scale, 0.0);
            let back = dequantize_row(&q);
            for &y in &back {
                // Value-exact; −0.0 reconstructs as +0.0 (the `min + 0`
                // sum normalizes the sign bit), which compares equal and
                // is what both canonicalize and a warm get produce.
                assert_eq!(y, v);
            }
        }
    }

    #[test]
    fn empty_and_single_element_rows_are_exact() {
        let q = quantize_row(&[]);
        assert!(q.q.is_empty());
        assert_eq!(dequantize_row(&q), Vec::<f32>::new());
        let q = quantize_row(&[42.5]);
        assert_eq!(q.scale, 0.0);
        assert_eq!(dequantize_row(&q), vec![42.5]);
    }

    #[test]
    fn signed_zero_rows_round_trip() {
        assert_round_trip_bound(&[-0.0, 0.0, -0.0]);
        // A row spanning −0.0..1.0 must place −0.0 at code 0 exactly.
        let q = quantize_row(&[-0.0, 1.0]);
        assert_eq!(q.q[0], 0);
        assert_eq!(q.q[1], 255);
    }

    #[test]
    fn subnormal_rows_stay_within_bound() {
        let tiny = f32::MIN_POSITIVE / 4.0; // subnormal
        assert_round_trip_bound(&[0.0, tiny, tiny * 2.0, tiny * 3.0]);
        assert_round_trip_bound(&[-tiny, tiny]);
    }

    #[test]
    fn extreme_range_does_not_overflow_scale() {
        let row = [f32::MAX, -f32::MAX, 0.0];
        let q = quantize_row(&row);
        assert!(q.scale.is_finite());
        assert_round_trip_bound(&row);
    }

    #[test]
    fn row_byte_accounting_matches_layout() {
        let q = quantize_row(&[1.0, 2.0, 3.0]);
        assert_eq!(q.bytes(), q8_row_bytes(3));
        assert_eq!(q8_row_bytes(8), 16);
        assert_eq!(f64_row_bytes(8), 64);
        // The issue's ≥4× claim at dim 8: 64 / 16 = 4.0 exactly; wider
        // rows only improve it.
        assert!(f64_row_bytes(8) / q8_row_bytes(8) >= 4);
        assert!(f64_row_bytes(32) as f64 / q8_row_bytes(32) as f64 > 6.0);
    }

    #[test]
    fn canonicalize_is_idempotent_and_matches_warm_get() {
        let mut c = EmbeddingCache::<Q8>::new(8);
        let row = vec![0.1f32, -2.7, 3.625, 0.0, 8.5];
        let canon = c.canonicalize(row.clone());
        let canon2 = c.canonicalize(canon.clone());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&canon),
            bits(&canon2),
            "canonicalize must be idempotent"
        );
        c.put(0, 1, 2, row);
        let warm = c.get(0, 1, 2).unwrap();
        assert_eq!(
            bits(&warm),
            bits(&canon),
            "warm get must equal canonicalize"
        );
    }

    /// Strategy: rows mixing magnitudes from subnormal to huge.
    fn row_strategy() -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec(
            prop_oneof![
                (-1.0f64..1.0).prop_map(|x| x as f32),
                (-1e6f64..1e6).prop_map(|x| x as f32),
                (-1e-30f64..1e-30).prop_map(|x| x as f32),
                (-1e30f64..1e30).prop_map(|x| x as f32),
                Just(0.0f32),
                Just(-0.0f32),
                Just(f32::MIN_POSITIVE),
                Just(f32::MIN_POSITIVE / 8.0),
            ],
            0..24,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        fn round_trip_error_is_bounded_by_half_scale(row in row_strategy()) {
            let q = quantize_row(&row);
            let back = dequantize_row(&q);
            prop_assert_eq!(back.len(), row.len());
            for (&x, &y) in row.iter().zip(&back) {
                let bound = 0.5 * (q.scale as f64)
                    + (f32::EPSILON as f64) * (x.abs() as f64)
                    + f64::from(f32::MIN_POSITIVE);
                let diff = ((x as f64) - (y as f64)).abs();
                prop_assert!(
                    diff <= bound,
                    "err {} > bound {} at x={} scale={}",
                    diff, bound, x, q.scale
                );
            }
        }

        fn canonicalize_fixed_point(row in row_strategy()) {
            let c = EmbeddingCache::<Q8>::new(4);
            let once = c.canonicalize(row);
            let twice = c.canonicalize(once.clone());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&once), bits(&twice));
        }
    }

    /// One random op against both a quantized and an unquantized tier;
    /// recency, eviction and invalidation behavior must be identical
    /// because quantization only changes the *payload*, never the policy.
    #[derive(Debug, Clone)]
    enum Op {
        Get(Key),
        Put(Key, Vec<f32>),
        Invalidate(Key),
        Clear,
    }

    fn key_strategy() -> impl Strategy<Value = Key> {
        (0usize..2, 0usize..6, 0usize..3)
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            key_strategy().prop_map(Op::Get),
            (
                key_strategy(),
                proptest::collection::vec((-10.0f64..10.0).prop_map(|x| x as f32), 1..5)
            )
                .prop_map(|(k, v)| Op::Put(k, v)),
            key_strategy().prop_map(Op::Invalidate),
            Just(Op::Clear),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        fn quantized_tier_policy_matches_unquantized(
            ops in proptest::collection::vec(op_strategy(), 1..60),
            cap in 1usize..8,
        ) {
            let mut plain = EmbeddingCache::<Identity<f32>>::new(cap);
            let mut quant = EmbeddingCache::<Q8>::new(cap);
            for op in &ops {
                match op {
                    Op::Get(k) => {
                        let a = plain.get(k.0, k.1, k.2).is_some();
                        let b = quant.get(k.0, k.1, k.2).is_some();
                        prop_assert_eq!(a, b, "hit/miss diverged on {:?}", k);
                    }
                    Op::Put(k, v) => {
                        plain.put(k.0, k.1, k.2, v.clone());
                        quant.put(k.0, k.1, k.2, v.clone());
                    }
                    Op::Invalidate(k) => {
                        prop_assert_eq!(
                            plain.invalidate(k.0, k.1, k.2),
                            quant.invalidate(k.0, k.1, k.2)
                        );
                    }
                    Op::Clear => {
                        plain.clear();
                        quant.clear();
                    }
                }
                prop_assert_eq!(plain.len(), quant.len());
                prop_assert_eq!(plain.evictions(), quant.evictions());
                prop_assert_eq!((plain.hits, plain.misses), (quant.hits, quant.misses));
            }
        }
    }
}
