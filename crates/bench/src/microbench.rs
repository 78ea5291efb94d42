//! A minimal micro-benchmark harness for the `benches/` targets.
//!
//! The container this workspace builds in has no crates.io access, so the
//! benches run on this self-contained harness instead of Criterion. It
//! keeps the essentials: warm-up, adaptive batching so the timer
//! resolution doesn't dominate, median-of-samples reporting, and a
//! substring filter from the command line (`cargo bench -- <filter>`).

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Runs named benchmark closures and prints a ns/iter table.
pub struct Runner {
    filter: Option<String>,
    warmup: Duration,
    sample_target: Duration,
    samples: usize,
}

impl Runner {
    /// Build a runner from the process arguments: the first free argument
    /// (not a `--flag` or its value) is a substring filter. The
    /// `--bench`/`--exact` flags cargo passes are accepted and ignored.
    pub fn from_args() -> Self {
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            if !arg.starts_with('-') {
                filter = Some(arg);
                break;
            }
        }
        Runner {
            filter,
            warmup: Duration::from_millis(200),
            sample_target: Duration::from_millis(10),
            samples: 15,
        }
    }

    /// Use a shorter or longer measurement schedule (per-sample target
    /// duration stays at 10ms).
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples.max(3);
        self
    }

    /// Measure `f`, printing `name: <median> ns/iter (min <min>)`.
    /// Skipped (with a note) when a filter is set and doesn't match.
    pub fn bench<F: FnMut()>(&self, name: &str, f: F) {
        self.bench_items(name, 1, f);
    }

    /// Like [`Runner::bench`] for an `f` that does `items` units of work
    /// per call: the printed time is per unit.
    pub fn bench_items<F: FnMut()>(&self, name: &str, items: u64, mut f: F) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        // Warm up and discover how many iterations fill a sample.
        let warm_start = Instant::now();
        let mut iters_per_sample = 1u64;
        while warm_start.elapsed() < self.warmup {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                f();
            }
            let dt = t.elapsed();
            if dt < self.sample_target {
                // Grow geometrically toward the per-sample target.
                let grow = if dt.is_zero() {
                    16
                } else {
                    (self.sample_target.as_nanos() / dt.as_nanos().max(1)).clamp(2, 16) as u64
                };
                iters_per_sample = iters_per_sample.saturating_mul(grow).min(1 << 30);
            }
        }
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters_per_sample {
                    f();
                }
                t.elapsed().as_nanos() as f64 / (iters_per_sample * items) as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let median = per_iter[per_iter.len() / 2];
        let min = per_iter[0];
        println!("{name:<40} {:>12} ns/iter   (min {})", fmt_ns(median), fmt_ns(min));
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}
