//! Pure helpers the workloads share: order statistics, the percentile
//! rule, capped time-to-accuracy, the geometric checkpoint schedule, the
//! seeded generator and the digests. Nothing here calls the program.

/// Linear-interpolated quantile `q ∈ [0, 1]` of an unsorted sample.
/// Empty samples read as NaN so a missing layer probe is visible in the
/// output instead of looking like a zero.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [u32; 5] = [99, 95, 90, 75, 50];

/// The percentile rule of the metrics guide: the highest percentile that
/// still has at least ten samples beyond it. Samples too small for even
/// p75 fall back to the median.
pub fn tail_percentile(samples: usize) -> u32 {
    TAIL_LADDER
        .into_iter()
        .find(|p| samples as f64 * f64::from(100 - p) / 100.0 >= 10.0)
        .unwrap_or(50)
}

/// Time-to-accuracy with misses counted at the cap: an operation that
/// never reached its target took "at least the cap" — the time at which
/// it was stopped, as measured, which is the cap plus the stopping
/// latency — and one that reached it late is not allowed to look worse
/// than one that never did.
pub fn capped_tta_ms(reached_ms: Option<f64>, stopped_ms: f64, cap_ms: f64) -> f64 {
    match reached_ms {
        Some(t) if t <= cap_ms => t,
        _ => stopped_ms.max(cap_ms),
    }
}

/// Walk counts at which a converging run looks at its estimates: multiples
/// of `batch`, growing by ×1.25, so `estimates()` stays a small share of
/// the run and walks-to-target is a repeatable count rather than a time.
#[derive(Debug, Clone, Copy)]
pub struct Checkpoints {
    next: u64,
    batch: u64,
}

impl Checkpoints {
    /// A schedule whose first checkpoint is one batch.
    pub fn new(batch: u64) -> Self {
        Checkpoints { next: batch, batch }
    }

    /// True when `walks` has reached the pending checkpoint; the schedule
    /// then advances past `walks`.
    pub fn due(&mut self, walks: u64) -> bool {
        if walks < self.next {
            return false;
        }
        while self.next <= walks {
            // ×1.25, but at least one batch further.
            let grown = self.next + (self.next / 4).max(self.batch);
            self.next = grown.div_ceil(self.batch) * self.batch;
        }
        true
    }
}

/// SplitMix64: the harness's only randomness. Every input a workload
/// draws comes from one of these, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`; `stream` separates independent uses of one
    /// `--seed` (estimator seeds, shuffles, hold-out choice).
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻³² for
    /// every `n` the harness uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a over byte strings, with a separator between parts so
/// `["ab", "c"]` and `["a", "bc"]` differ. Two runs with different digests
/// ran different inputs; their metrics are not comparable.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for part in parts {
        part.bytes().for_each(&mut eat);
        eat(0xFF);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(999), 95);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(99), 75);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(39), 50);
        assert_eq!(tail_percentile(0), 50);
    }

    #[test]
    fn quantile_interpolates_and_ignores_order() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert!(median(&[]).is_nan());
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn time_to_accuracy_counts_misses_at_the_cap() {
        assert_eq!(capped_tta_ms(Some(120.0), 120.0, 400.0), 120.0);
        assert_eq!(capped_tta_ms(None, 400.07, 400.0), 400.07);
        // Stopped early by something other than the cap: still a miss.
        assert_eq!(capped_tta_ms(None, 12.0, 400.0), 400.0);
        // Reached, but only after the cap: no better or worse than a miss.
        assert_eq!(capped_tta_ms(Some(401.5), 401.5, 400.0), 401.5);
    }

    #[test]
    fn checkpoints_are_batch_multiples_growing_geometrically() {
        let mut c = Checkpoints::new(256);
        let mut seen = Vec::new();
        let mut walks = 0;
        while seen.len() < 12 {
            walks += 256;
            if c.due(walks) {
                seen.push(walks);
            }
        }
        assert_eq!(&seen[..5], &[256, 512, 768, 1024, 1280]);
        assert!(seen.iter().all(|w| w % 256 == 0));
        // Once past the linear start the gap tracks ×1.25.
        let (a, b) = (seen[10] as f64, seen[11] as f64);
        assert!(b / a > 1.1 && b / a < 1.4, "ratio {}", b / a);
    }

    #[test]
    fn checkpoints_skip_past_a_large_jump() {
        let mut c = Checkpoints::new(256);
        assert!(c.due(10_000));
        assert!(!c.due(10_000));
        assert!(!c.due(10_240));
    }

    #[test]
    fn digests_separate_parts_and_repeat() {
        assert_eq!(digest(["ab", "c"]), digest(["ab", "c"]));
        assert_ne!(digest(["ab", "c"]), digest(["a", "bc"]));
        assert_ne!(digest(["ab"]), digest(["ab", ""]));
    }

    #[test]
    fn generator_repeats_per_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = SplitMix::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
        let mut items: Vec<u32> = (0..50).collect();
        SplitMix::new(3, 0).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
