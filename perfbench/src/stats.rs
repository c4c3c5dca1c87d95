//! Seeded generators and the summary rules every metric goes through.
//!
//! Everything the benchmark feeds the program is drawn from [`Rng`]
//! streams derived from the one `--seed` argument, so a seed fixes the
//! inputs exactly. The percentile and backlog rules live here, next to
//! their tests, because every reported latency and every ladder verdict
//! depends on them.

/// splitmix64: small, fast, and good enough to drive workload generators.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`: distinct streams of one seed are
    /// independent, so adding a generator never shifts another's draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Exponential gap with the given mean: the inter-arrival time of a
    /// Poisson process.
    pub fn exp_gap(&mut self, mean: f64) -> f64 {
        -(1.0 - self.unit()).ln() * mean
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// Zipf(s) over `n` items whose popularity ranks are shuffled by a seed:
/// rank `r` (0 = hottest) has weight `1 / (r + 1)^s` and maps to item
/// `order[r]`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    order: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rank_seed: &mut Rng) -> Self {
        assert!(n > 0, "zipf over an empty set");
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        Zipf {
            cdf,
            order: rank_seed.permutation(n),
        }
    }

    /// Draw a popularity rank (0 = hottest).
    pub fn rank(&self, rng: &mut Rng) -> usize {
        let total = *self.cdf.last().expect("non-empty cdf");
        let u = rng.unit() * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Item indices from the coldest rank to the hottest.
    pub fn coldest_first(&self) -> impl Iterator<Item = usize> + '_ {
        self.order.iter().rev().copied()
    }

    /// Draw an item index.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.order[self.rank(rng)]
    }
}

/// Nearest-rank percentile of `sorted` (ascending) at `p` in `(0, 1]`: the
/// smallest value with at least a share `p` of the samples at or below
/// it. `None` for no samples. Infinite values (failed requests) sort last,
/// so a failure always counts as a miss of any latency limit.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sort ascending (total order; NaN never occurs in measured times).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median and quartiles of a set of per-rep values, by [`percentile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn spread(values: &[f64]) -> Option<Spread> {
    let s = sorted(values.to_vec());
    Some(Spread {
        q1: percentile(&s, 0.25)?,
        median: percentile(&s, 0.5)?,
        q3: percentile(&s, 0.75)?,
        n: s.len(),
    })
}

/// Completions may trail sends by at most this share before a ladder rung
/// counts as over capacity (a growing backlog).
pub const BACKLOG_SHARE: f64 = 0.01;

/// The backlog rule: at the end of a rung's send window, were more than
/// [`BACKLOG_SHARE`] of the requests sent so far still unanswered?
pub fn over_capacity(sent: u64, completed: u64) -> bool {
    (completed as f64) < (1.0 - BACKLOG_SHARE) * sent as f64
}

/// A rung is sustained when its p99 (failures counted as infinite) is
/// within the limit and its backlog did not grow.
pub fn rung_sustained(p99_us: f64, limit_us: f64, sent: u64, completed: u64) -> bool {
    p99_us <= limit_us && !over_capacity(sent, completed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_frequencies_follow_one_over_rank() {
        let n = 100;
        let z = Zipf::new(n, 1.0, &mut Rng::new(3, 1));
        let mut rng = Rng::new(3, 2);
        let draws = 400_000;
        let mut counts = vec![0u64; n];
        for _ in 0..draws {
            counts[z.rank(&mut rng)] += 1;
        }
        let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        for (r, &c) in counts.iter().enumerate().take(10) {
            let expect = 1.0 / ((r + 1) as f64 * h);
            let got = c as f64 / draws as f64;
            assert!(
                (got - expect).abs() < 0.1 * expect,
                "rank {r}: got {got}, expected {expect}"
            );
        }
        // The coldest decile together holds its expected mass too.
        let tail: f64 = (91..=n).map(|k| 1.0 / (k as f64 * h)).sum();
        let got_tail = counts[90..].iter().sum::<u64>() as f64 / draws as f64;
        assert!(
            (got_tail - tail).abs() < 0.1 * tail,
            "tail {got_tail} vs {tail}"
        );
    }

    #[test]
    fn zipf_ranks_are_shuffled_by_seed_and_cover_every_item() {
        let a = Zipf::new(50, 1.0, &mut Rng::new(1, 1));
        let b = Zipf::new(50, 1.0, &mut Rng::new(2, 1));
        assert_ne!(a.order, b.order, "rank order must depend on the seed");
        let mut seen = a.order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn streams_repeat_per_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 7);
            (0..5).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
    }

    #[test]
    fn exponential_gaps_have_the_requested_mean() {
        let mut r = Rng::new(5, 5);
        let n = 200_000;
        let mean = (0..n).map(|_| r.exp_gap(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean gap {mean}");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.001), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Ten samples: p99 is the largest, p50 the fifth.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.99), Some(10.0));
        assert_eq!(percentile(&ten, 0.5), Some(5.0));
    }

    #[test]
    fn failures_count_as_missing_the_limit() {
        // 2 failures in 100 requests push p99 past any finite limit.
        let mut v: Vec<f64> = (0..98).map(|_| 100.0).collect();
        v.extend([f64::INFINITY, f64::INFINITY]);
        let s = sorted(v);
        assert_eq!(percentile(&s, 0.5), Some(100.0));
        assert_eq!(percentile(&s, 0.99), Some(f64::INFINITY));
        assert!(!rung_sustained(
            percentile(&s, 0.99).unwrap(),
            25_000.0,
            100,
            100
        ));
    }

    #[test]
    fn spread_reports_quartiles() {
        let s = spread(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert!(spread(&[]).is_none());
    }

    #[test]
    fn backlog_rule_allows_one_percent() {
        assert!(!over_capacity(0, 0));
        assert!(!over_capacity(1000, 1000));
        assert!(!over_capacity(1000, 990));
        assert!(over_capacity(1000, 989));
        assert!(over_capacity(1000, 0));
        assert!(rung_sustained(24_000.0, 25_000.0, 1000, 995));
        assert!(!rung_sustained(26_000.0, 25_000.0, 1000, 1000));
        assert!(!rung_sustained(1_000.0, 25_000.0, 1000, 900));
    }
}
