//! Statistics primitives every layer shares: counter groups declared once,
//! and one latency histogram.
//!
//! * [`counters!`](crate::counters) declares a group of relaxed atomic
//!   counters. From one line per counter it generates the atomic struct,
//!   a plain-data snapshot struct with the same field names, the snapshot
//!   load, `merge` and `entries()`, which names each counter `layer.field`.
//! * [`Histogram`] is an atomic log-linear latency histogram: 16 linear
//!   sub-buckets per power of two, so a quantile is within 1/16 (6.25%) of
//!   the exact nearest-rank order statistic.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declare a group of relaxed `AtomicU64` counters, once per counter.
///
/// `vis struct Atomic => Snapshot, "layer" { /// doc \n field, ... }`
/// generates:
/// - `Atomic`, with one `pub` `AtomicU64` per counter, so call sites bump
///   `metrics.field.fetch_add(n, Relaxed)` directly;
/// - `Snapshot`, a `Copy + Default + Eq` struct of `u64`s with the same
///   field names and docs;
/// - `Atomic::snapshot()`, which loads every counter (each load is relaxed,
///   so the snapshot is not a consistent cut across counters);
/// - `Snapshot::merge(&other)`, which adds `other` field by field;
/// - `Snapshot::entries()`, every counter as `("layer.field", value)` in
///   declaration order.
///
/// ```
/// hvac_types::counters! {
///     /// Counters of a toy server.
///     pub struct Toy => ToySnapshot, "server" {
///         /// Reads answered.
///         reads,
///     }
/// }
/// let toy = Toy::default();
/// toy.reads.fetch_add(3, std::sync::atomic::Ordering::Relaxed);
/// let mut total = toy.snapshot();
/// total.merge(&toy.snapshot());
/// assert_eq!(total.entries(), [("server.reads", 6)]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$doc:meta])*
        $vis:vis struct $atomic:ident => $snapshot:ident, $layer:literal {
            $($(#[$field_doc:meta])* $field:ident,)+
        }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        $vis struct $atomic {
            $($(#[$field_doc])* pub $field: ::std::sync::atomic::AtomicU64,)+
        }

        #[doc = concat!("A plain-data snapshot of [`", stringify!($atomic), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $snapshot {
            $($(#[$field_doc])* pub $field: u64,)+
        }

        impl $atomic {
            /// Load every counter (relaxed, one at a time).
            pub fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $($field: self.$field.load(::std::sync::atomic::Ordering::Relaxed),)+
                }
            }
        }

        impl $snapshot {
            /// Add `other`'s counts into this snapshot, field by field.
            pub fn merge(&mut self, other: &Self) {
                $(self.$field += other.$field;)+
            }

            /// Every counter as `(name, value)`, named `layer.field`, in
            /// declaration order.
            pub fn entries(&self) -> ::std::vec::Vec<(&'static str, u64)> {
                ::std::vec![$((concat!($layer, ".", stringify!($field)), self.$field),)+]
            }
        }
    };
}

/// Bits of linear resolution per power of two.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power of two; values below this are exact.
const SUB: u64 = 1 << SUB_BITS;
/// Bucket count: the exact values below `SUB`, then `SUB` buckets for each
/// power of two from `2^SUB_BITS` to `2^63`.
const BUCKETS: usize = ((64 - SUB_BITS + 1) as u64 * SUB) as usize;

/// The bucket that holds `v`.
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    ((u64::from(shift) + 1) * SUB + sub) as usize
}

/// The largest value bucket `i` holds.
fn upper_edge(i: usize) -> u64 {
    let (group, sub) = (i as u64 / SUB, i as u64 % SUB);
    if group == 0 {
        return sub;
    }
    let shift = group - 1;
    ((SUB + sub) << shift) + ((1 << shift) - 1)
}

/// An atomic log-linear latency histogram in nanoseconds.
///
/// Values below 16 are exact; above, each power of two is split into 16
/// linear sub-buckets. [`quantile`](Self::quantile) returns the upper edge
/// of the bucket that holds the nearest-rank sample, capped at the exact
/// maximum, so it is never below the exact order statistic and at most
/// 1/16 above it. `count`, `max` and `mean` are exact. Recording is a few
/// relaxed atomic adds, so threads share one histogram without a lock.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample of `ns` nanoseconds.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The mean sample, rounded down (0 when empty). Exact while the sum of
    /// all samples stays below 2^64 ns (584 years).
    pub fn mean(&self) -> u64 {
        self.sum
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// The `q`-quantile (`q` clamped to `0..=1`) by nearest rank: the upper
    /// edge of the bucket holding the `ceil(q * n)`-th smallest sample,
    /// capped at the maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n: u64 = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return upper_edge(i).min(self.max());
            }
        }
        self.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hist_of(samples: &[u64]) -> Histogram {
        let h = Histogram::new();
        for &ns in samples {
            h.record(ns);
        }
        h
    }

    /// The exact nearest-rank `q`-quantile of `sorted`.
    fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    #[test]
    fn buckets_tile_the_whole_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(upper_edge(BUCKETS - 1), u64::MAX);
        for i in 1..BUCKETS {
            // Each bucket starts one past the previous one's upper edge.
            let lower = upper_edge(i - 1) + 1;
            assert_eq!(bucket_of(lower), i, "lower edge of bucket {i}");
            assert_eq!(bucket_of(upper_edge(i)), i, "upper edge of bucket {i}");
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!((h.count(), h.max(), h.mean()), (0, 0, 0));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q {q}");
        }
    }

    #[test]
    fn count_mean_and_max_are_exact() {
        let h = hist_of(&[100, 200, 301]);
        assert_eq!((h.count(), h.mean(), h.max()), (3, 200, 301));
    }

    #[test]
    fn zero_latency_sample_is_handled() {
        let h = hist_of(&[0]);
        assert_eq!((h.count(), h.quantile(0.5), h.max()), (1, 0, 0));
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let h = hist_of(&[1_234_567]);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 1_234_567, "q {q}");
        }
    }

    #[test]
    fn nearest_rank_on_a_known_distribution() {
        // 1..=1000: the exact p50, p99 and p999 are 500, 990 and 999.
        let samples: Vec<u64> = (1..=1000).collect();
        let h = hist_of(&samples);
        assert_eq!((h.quantile(0.5), h.quantile(0.99)), (511, 991));
        assert_eq!(h.quantile(0.999), 1000, "capped at the max");
        assert_eq!((h.quantile(0.0), h.quantile(1.0)), (1, 1000));
    }

    #[test]
    fn percentiles_are_order_independent() {
        let sorted: Vec<u64> = (1..=100).map(|i| i * 7_919).collect();
        let shuffled: Vec<u64> = (0..100).map(|i| sorted[(i * 37) % 100]).collect();
        let (a, b) = (hist_of(&sorted), hist_of(&shuffled));
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), b.quantile(q), "q {q}");
        }
    }

    #[test]
    fn quantile_is_monotone() {
        let h = hist_of(&(1..1000u64).map(|i| i * 37).collect::<Vec<_>>());
        let mut prev = 0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile not monotone at {q}");
            prev = v;
        }
    }

    #[test]
    fn concurrent_recorders_lose_no_sample() {
        const PER_THREAD: u64 = 10_000;
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i);
                    }
                });
            }
        });
        let n = 4 * PER_THREAD;
        assert_eq!(h.count(), n);
        assert_eq!(h.max(), n - 1);
        assert_eq!(h.mean(), (n - 1) / 2);
        assert_eq!(h.quantile(1.0), n - 1);
        let bucketed: u64 = h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        assert_eq!(bucketed, n);
    }

    proptest! {
        /// Against exact order statistics: never below, at most 1/16 above.
        #[test]
        fn quantiles_are_within_bucket_resolution(
            draws in proptest::collection::vec((0u32..51, any::<u64>()), 1..300)
        ) {
            // Log-uniform samples from 0 up to 2^50 ns.
            let mut samples: Vec<u64> = draws.iter().map(|&(bits, r)| r % (1u64 << bits)).collect();
            let h = hist_of(&samples);
            samples.sort_unstable();
            for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let exact = nearest_rank(&samples, q);
                let got = h.quantile(q);
                prop_assert!(exact <= got, "q {q}: {got} below exact {exact}");
                prop_assert!(
                    u128::from(got) * 16 <= u128::from(exact) * 17,
                    "q {q}: {got} more than 1/16 above exact {exact}"
                );
            }
        }
    }
}
