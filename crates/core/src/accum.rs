//! Per-group estimator accumulation with large-sample confidence intervals.
//!
//! Every random walk produces one sample `x_w(a)` per group `a` (zero for
//! all groups the walk does not touch, including every group of a rejected
//! walk). The running estimate for a group is the sample mean `Σx/N`; the
//! 0.95 confidence interval follows Haas's large-sample (CLT) construction
//! used by Wander Join: half-width `z₀.₉₇₅ · σ̂ / √N` with σ̂² the sample
//! variance.
//!
//! Because almost all of a walk's per-group samples are zero, the
//! accumulator stores only `Σx` and `Σx²` per touched group and derives the
//! variance from the shared walk count — O(1) per walk instead of
//! O(#groups).

use kgoa_engine::GroupedEstimates;
use kgoa_index::FxHashMap;

/// z-score for a 0.95 two-sided confidence level.
pub const Z_95: f64 = 1.959_963_984_540_054;

/// Accumulates per-group samples across walks.
#[derive(Debug, Clone, Default)]
pub struct GroupAccumulator {
    sums: FxHashMap<u32, (f64, f64)>,
}

impl GroupAccumulator {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a nonzero sample for a group within the current walk.
    ///
    /// A walk must contribute at most one sample per group; if an update
    /// routine accumulates several addends for the same group in one walk,
    /// it must sum them first (the variance bookkeeping squares the total).
    pub fn add(&mut self, group: u32, x: f64) {
        let e = self.sums.entry(group).or_insert((0.0, 0.0));
        e.0 += x;
        e.1 += x * x;
    }

    /// Number of groups touched so far.
    pub fn groups(&self) -> usize {
        self.sums.len()
    }

    /// Merge another accumulator's sums into this one. Because every walk
    /// is an independent sample, per-group `Σx` and `Σx²` from disjoint
    /// walk sets add directly; the caller adds the walk counts.
    pub(crate) fn merge_from(&mut self, other: &GroupAccumulator) {
        for (&g, &(sum, sumsq)) in &other.sums {
            let e = self.sums.entry(g).or_insert((0.0, 0.0));
            e.0 += sum;
            e.1 += sumsq;
        }
    }

    /// Iterate `(group, Σx, Σx²)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64, f64)> + '_ {
        self.sums.iter().map(|(&g, &(s, sq))| (g, s, sq))
    }

    /// Produce estimates after `n_walks` total walks (including rejected
    /// and zero-contribution walks).
    pub fn estimates(&self, n_walks: u64) -> GroupedEstimates {
        let mut out = GroupedEstimates::default();
        if n_walks == 0 {
            return out;
        }
        let n = n_walks as f64;
        for (&g, &(sum, sumsq)) in &self.sums {
            let mean = sum / n;
            out.estimates.insert(g, mean);
            if n_walks > 1 {
                // Sample variance over all N walks; the (N - count) zero
                // samples contribute (0 - mean)² each, which the
                // sum-of-squares form already accounts for.
                let var = ((sumsq - sum * sum / n) / (n - 1.0)).max(0.0);
                out.half_widths.insert(g, Z_95 * (var / n).sqrt());
            } else {
                out.half_widths.insert(g, f64::INFINITY);
            }
        }
        out
    }
}

/// Counters describing a run of an online-aggregation algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Total walks attempted (the `N` of the estimator).
    pub walks: u64,
    /// Walks rejected at a dead end (zero contribution).
    pub rejected: u64,
    /// Walks that reached a full path.
    pub full: u64,
    /// Walks finished early by an exact computation (Audit Join only).
    pub tipped: u64,
    /// Successful walks discarded as duplicates by the Ripple-Join distinct
    /// technique (Wander Join only).
    pub duplicates: u64,
}

impl WalkStats {
    /// Merge counters from an independent run.
    pub(crate) fn merge_from(&mut self, other: &WalkStats) {
        self.walks += other.walks;
        self.rejected += other.rejected;
        self.full += other.full;
        self.tipped += other.tipped;
        self.duplicates += other.duplicates;
    }

    /// Fraction of walks that were rejected.
    pub fn rejection_rate(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.rejected as f64 / self.walks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_rdf::TermId;

    #[test]
    fn mean_over_all_walks() {
        let mut acc = GroupAccumulator::new();
        acc.add(1, 10.0);
        acc.add(1, 20.0);
        // 4 walks total: two contributed, two were zero.
        let est = acc.estimates(4);
        assert!((est.get(TermId(1)) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn variance_includes_zero_walks() {
        let mut acc = GroupAccumulator::new();
        acc.add(1, 4.0);
        // Samples: {4, 0}: mean 2, sample variance (4+4)/1 = 8.
        let est = acc.estimates(2);
        let hw = est.half_width(TermId(1));
        let expected = Z_95 * (8.0f64 / 2.0).sqrt();
        assert!((hw - expected).abs() < 1e-9, "hw={hw} expected={expected}");
    }

    #[test]
    fn single_walk_has_infinite_ci() {
        let mut acc = GroupAccumulator::new();
        acc.add(1, 4.0);
        let est = acc.estimates(1);
        assert!(est.half_width(TermId(1)).is_infinite());
    }

    #[test]
    fn no_walks_no_estimates() {
        let acc = GroupAccumulator::new();
        assert!(acc.estimates(0).is_empty());
    }

    #[test]
    fn constant_samples_have_zero_ci_width() {
        let mut acc = GroupAccumulator::new();
        for _ in 0..100 {
            acc.add(2, 5.0);
        }
        let est = acc.estimates(100);
        assert!((est.get(TermId(2)) - 5.0).abs() < 1e-12);
        assert!(est.half_width(TermId(2)) < 1e-9);
    }

    #[test]
    fn merge_from_combines_sums() {
        let mut a = GroupAccumulator::new();
        a.add(1, 3.0);
        a.add(2, 1.0);
        let mut b = GroupAccumulator::new();
        b.add(1, 5.0);
        b.add(3, 2.0);
        a.merge_from(&b);
        // Merged over 4 walks: group 1 mean = (3+5)/4.
        let est = a.estimates(4);
        assert!((est.get(TermId(1)) - 2.0).abs() < 1e-12);
        assert!((est.get(TermId(3)) - 0.5).abs() < 1e-12);
        assert_eq!(a.groups(), 3);
        let triples: Vec<_> = a.iter().collect();
        assert_eq!(triples.len(), 3);
    }

    #[test]
    fn merged_estimates_equal_single_stream() {
        // Splitting a sample stream across two accumulators and merging
        // must give identical estimates and CIs to one accumulator.
        let samples = [1.0, 4.0, 2.0, 8.0, 3.0, 9.0];
        let mut whole = GroupAccumulator::new();
        let mut left = GroupAccumulator::new();
        let mut right = GroupAccumulator::new();
        for (i, x) in samples.iter().enumerate() {
            whole.add(7, *x);
            if i % 2 == 0 { left.add(7, *x) } else { right.add(7, *x) }
        }
        left.merge_from(&right);
        let (a, b) = (whole.estimates(6), left.estimates(6));
        assert_eq!(a.get(TermId(7)), b.get(TermId(7)));
        assert!((a.half_width(TermId(7)) - b.half_width(TermId(7))).abs() < 1e-12);
    }

    #[test]
    fn walk_stats_merge() {
        let mut a = WalkStats { walks: 10, rejected: 2, full: 8, tipped: 0, duplicates: 1 };
        let b = WalkStats { walks: 5, rejected: 1, full: 3, tipped: 1, duplicates: 0 };
        a.merge_from(&b);
        assert_eq!(a.walks, 15);
        assert_eq!(a.rejected, 3);
        assert_eq!(a.full, 11);
        assert_eq!(a.tipped, 1);
        assert_eq!(a.duplicates, 1);
    }

    #[test]
    fn walk_stats_rates() {
        let s = WalkStats { walks: 10, rejected: 4, full: 5, tipped: 1, duplicates: 2 };
        assert!((s.rejection_rate() - 0.4).abs() < 1e-12);
        assert_eq!(WalkStats::default().rejection_rate(), 0.0);
    }
}
