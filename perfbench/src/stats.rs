//! The benchmark's pure arithmetic: percentile selection, span self time,
//! interval concurrency, counter deltas and ratios. Everything here is
//! deterministic and unit-tested; nothing touches the cluster.

use std::collections::BTreeMap;

/// A percentile is reported only when at least this many samples lie
/// beyond the selected one; with fewer, the "percentile" is really the
/// maximum of a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100)`) of ascending `sorted`
/// samples, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A half-open time interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// Total length of the union of `intervals` clipped to `within`.
pub fn covered(within: Interval, intervals: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = intervals
        .iter()
        .map(|&(s, e)| (s.max(within.0), e.min(within.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<Interval> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover (overlapping children are counted once).
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    span.1.saturating_sub(span.0) - covered(span, children)
}

/// The largest number of `intervals` open at the same instant.
pub fn max_concurrency(intervals: &[Interval]) -> u64 {
    // Ends sort before starts at the same instant: half-open intervals
    // that merely touch never overlap.
    let mut events: Vec<(u64, i64)> = intervals
        .iter()
        .filter(|&&(s, e)| s < e)
        .flat_map(|&(s, e)| [(s, 1), (e, -1)])
        .collect();
    events.sort_unstable();
    let (mut open, mut peak) = (0i64, 0i64);
    for (_, step) in events {
        open += step;
        peak = peak.max(open);
    }
    peak as u64
}

/// `num / den`, or 0 when the denominator is 0 (an idle layer has no rate).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Max ÷ mean of `values` (1 = perfectly even); 0 when empty or all zero.
pub fn imbalance(values: &[u64]) -> f64 {
    let max = values.iter().copied().max().unwrap_or(0) as f64;
    let mean = ratio(values.iter().sum::<u64>() as f64, values.len() as f64);
    ratio(max, mean)
}

/// The items to measure over when some were disturbed from outside: every
/// item whose `disturbance` is at most `quiet`, if together they weigh at
/// least `need`; otherwise the least-disturbed items until they do (or all
/// of them). Indices in their original order.
pub fn quiet_subset(disturbance: &[f64], weight: &[f64], quiet: f64, need: f64) -> Vec<usize> {
    assert_eq!(disturbance.len(), weight.len(), "one weight per item");
    let calm: Vec<usize> = (0..disturbance.len())
        .filter(|&i| disturbance[i] <= quiet)
        .collect();
    if calm.iter().map(|&i| weight[i]).sum::<f64>() >= need {
        return calm;
    }
    let mut order: Vec<usize> = (0..disturbance.len()).collect();
    order.sort_by(|&a, &b| disturbance[a].total_cmp(&disturbance[b]));
    let mut picked = Vec::new();
    let mut picked_weight = 0.0;
    for i in order {
        if picked_weight >= need {
            break;
        }
        picked.push(i);
        picked_weight += weight[i];
    }
    picked.sort_unstable();
    picked
}

/// Named monotonic counters captured at one instant.
pub type Counters = BTreeMap<String, u64>;

/// Per-counter `after - before`. Both snapshots must name the same
/// counters, and none may go backwards: either would mean the two captures
/// did not watch the same program state.
pub fn deltas(before: &Counters, after: &Counters) -> Result<Counters, String> {
    if before.len() != after.len() {
        return Err(format!(
            "counter sets differ: {} before, {} after",
            before.len(),
            after.len()
        ));
    }
    before
        .iter()
        .map(|(name, &b)| {
            let a = *after
                .get(name)
                .ok_or_else(|| format!("counter {name} missing after the phase"))?;
            a.checked_sub(b)
                .map(|d| (name.clone(), d))
                .ok_or_else(|| format!("counter {name} went backwards: {b} -> {a}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_selects_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 90.0), Some(90));
        assert_eq!(percentile(&v, 0.5), Some(1));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        // p90 leaves exactly 10 beyond rank 90; p91 leaves only 9.
        assert_eq!(percentile(&v, 90.0), Some(90));
        assert_eq!(percentile(&v, 91.0), None);
        assert_eq!(percentile(&v, 99.0), None);
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&big, 99.0), Some(990));
        assert_eq!(percentile(&big, 99.9), None);
        // Small inputs have no percentile at all, not even a median.
        assert_eq!(percentile(&[7; 19], 50.0), None);
        assert_eq!(percentile(&[7; 20], 50.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_rejects_out_of_range_p() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), None);
        assert_eq!(percentile(&v, 100.0), None);
        assert_eq!(percentile(&v, f64::NAN), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 70)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // Nested and touching children.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30), (60, 70)]), 40);
        // Children sticking out of the span are clipped to it.
        assert_eq!(self_time((100, 200), &[(50, 150), (190, 300)]), 40);
        // Children entirely outside contribute nothing.
        assert_eq!(self_time((100, 200), &[(0, 100), (200, 250)]), 100);
        // Fully covered span has no self time.
        assert_eq!(self_time((100, 200), &[(0, 300)]), 0);
    }

    #[test]
    fn covered_ignores_empty_and_reversed_intervals() {
        assert_eq!(covered((0, 100), &[(30, 30), (50, 40)]), 0);
        assert_eq!(covered((0, 0), &[(0, 10)]), 0);
    }

    #[test]
    fn max_concurrency_counts_overlap_not_adjacency() {
        assert_eq!(max_concurrency(&[]), 0);
        assert_eq!(max_concurrency(&[(0, 10)]), 1);
        assert_eq!(max_concurrency(&[(0, 10), (10, 20)]), 1);
        assert_eq!(max_concurrency(&[(0, 10), (5, 20), (6, 7), (15, 30)]), 3);
        assert_eq!(max_concurrency(&[(5, 5)]), 0);
    }

    #[test]
    fn ratio_with_zero_denominator_is_zero() {
        assert_eq!(ratio(6.0, 3.0), 2.0);
        assert_eq!(ratio(0.0, 3.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(imbalance(&[10, 10, 10, 10]), 1.0);
        assert_eq!(imbalance(&[40, 0, 0, 0]), 4.0);
        assert_eq!(imbalance(&[30, 10]), 1.5);
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0, 0]), 0.0);
    }

    #[test]
    fn quiet_subset_keeps_every_quiet_item_when_they_suffice() {
        let d = [0.0, 0.2, 0.01, 0.5, 0.02];
        let w = [1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(quiet_subset(&d, &w, 0.03, 2.0), vec![0, 2, 4]);
        // Weight, not count, decides sufficiency.
        let heavy = [1.0, 1.0, 5.0, 1.0, 1.0];
        assert_eq!(quiet_subset(&d, &heavy, 0.03, 7.0), vec![0, 2, 4]);
    }

    #[test]
    fn quiet_subset_falls_back_to_the_least_disturbed() {
        let d = [0.3, 0.2, 0.1, 0.5];
        let w = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(quiet_subset(&d, &w, 0.03, 2.0), vec![1, 2]);
        assert_eq!(quiet_subset(&d, &w, 0.03, 1.5), vec![1, 2]);
        // Asking for more than there is returns everything.
        assert_eq!(quiet_subset(&d, &w, 0.03, 10.0), vec![0, 1, 2, 3]);
        assert!(quiet_subset(&[], &[], 0.03, 1.0).is_empty());
    }

    fn counters(pairs: &[(&str, u64)]) -> Counters {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn deltas_subtract_per_counter() {
        let before = counters(&[("a", 5), ("b", 0)]);
        let after = counters(&[("a", 12), ("b", 0)]);
        assert_eq!(
            deltas(&before, &after).unwrap(),
            counters(&[("a", 7), ("b", 0)])
        );
    }

    #[test]
    fn deltas_reject_backwards_and_mismatched_counters() {
        let before = counters(&[("a", 5)]);
        assert!(deltas(&before, &counters(&[("a", 4)]))
            .unwrap_err()
            .contains("backwards"));
        assert!(deltas(&before, &counters(&[("b", 9)]))
            .unwrap_err()
            .contains("missing"));
        assert!(deltas(&before, &counters(&[("a", 5), ("b", 1)]))
            .unwrap_err()
            .contains("differ"));
    }
}
