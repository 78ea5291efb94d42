//! The four workloads. Each is a closed loop with one client on the main
//! thread; each returns the same [`Outcome`] so one command reports the
//! same end-to-end metrics for all of them (their meaning per workload is
//! tabulated in the README).

pub mod aj_converge;
pub mod churn_replay;
pub mod session_replay;
pub mod wj_walks;

use crate::adapter::{GroupedEstimates, TermId};
use crate::report::Json;
use crate::setup::Size;

/// Names are fixed: later issues refer to them.
pub const NAMES: [&str; 4] = ["session_replay", "aj_converge", "wj_walks", "churn_replay"];

/// `--seconds` the per-pass sizes below were chosen for.
pub const NOMINAL_SECONDS: f64 = 15.0;

/// Walks per SoA batch, the program's own default (`StreamConfig::batch`).
pub const BATCH: u64 = 256;

/// A relative CI that is infinite (no estimate yet) is reported as this,
/// so medians over charts stay finite.
pub const CI_CEILING: f64 = 10.0;

/// Share of (chart, top-10 bar) pairs whose 95 % interval must cover the
/// truth. Nominal is 0.95; the slack absorbs the optional-stopping bias of
/// converge-until-narrow runs and small-sample intervals on selective charts.
pub const COVERAGE_FLOOR: f64 = 0.85;

/// The coverage check fails only when the observed share is this many
/// binomial standard deviations below the floor: were the bars independent
/// that is a false-positive rate near 0.1 % per run, whatever the number
/// of bars a run looks at (a traced run sees a quarter of them).
const COVERAGE_Z: f64 = 3.0;

/// A top-10 mean relative error at or below this reads as "the chart can
/// be read": the goal `churn_replay` counts.
pub const READABLE_ERROR: f64 = 0.10;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// `--seconds ÷ NOMINAL_SECONDS`: scales passes, quotas and ticks.
    pub scale: f64,
    /// Take every `stride`-th operation (1 = all). The traced run uses a
    /// stride so that its two runs (spans off, spans on) stay short.
    pub stride: usize,
    pub size: Size,
}

impl Plan {
    /// `nominal × scale`, rounded, at least one.
    pub fn scaled(&self, nominal: f64) -> u64 {
        ((nominal * self.scale).round() as u64).max(1)
    }
}

/// One output check; any failing check makes the command exit non-zero.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// What a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted, and those that errored or returned a wrong
    /// output.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Latency of each operation, ms (`op_ms_mean`, `op_ms_tail`).
    pub op_ms: Vec<f64>,
    pub work_per_s: f64,
    pub rel_ci: f64,
    pub goal_share: f64,
    /// The workload's own named figures and provenance, for the result file.
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    /// A numeric figure noted earlier (NaN when absent), for the layer
    /// probes that reuse a workload's own figures.
    pub fn figure(&self, key: &str) -> f64 {
        match self.detail.iter().find(|(k, _)| k == key) {
            Some((_, Json::Num(x))) => *x,
            Some((_, Json::Int(n))) => *n as f64,
            _ => f64::NAN,
        }
    }
}

/// How an approximate chart compares with the truth on the ten largest
/// bars (by exact count).
#[derive(Debug, Clone, Copy)]
pub struct Top10 {
    /// Σ half-width ÷ Σ estimate, capped at [`CI_CEILING`].
    pub rel_ci: f64,
    /// Mean over bars of |estimate − truth| ÷ truth.
    pub mae: f64,
    /// Bars whose interval covers the truth, and bars that have one.
    pub covered: u64,
    pub bars: u64,
}

/// `lookup` gives a bar's `(estimate, half-width)`, or `None` when the
/// estimator has not seen the group yet (estimate 0, no interval).
pub fn top10(truth: &[(TermId, u64)], lookup: impl Fn(TermId) -> Option<(f64, f64)>) -> Top10 {
    let (mut hw_sum, mut est_sum, mut err_sum, mut covered, mut bars) = (0.0, 0.0, 0.0, 0, 0);
    for &(cat, exact) in truth {
        let exact = exact as f64;
        let (est, hw) = lookup(cat).unwrap_or((0.0, f64::INFINITY));
        hw_sum += hw;
        est_sum += est;
        err_sum += (est - exact).abs() / exact;
        // Coverage is about intervals that exist: a bar the estimator
        // has not seen yet has none (it shows up in `rel_ci` instead).
        bars += u64::from(hw.is_finite());
        covered += u64::from(hw.is_finite() && (est - exact).abs() <= hw);
    }
    let rel_ci = if est_sum > 0.0 && hw_sum.is_finite() {
        hw_sum / est_sum
    } else {
        CI_CEILING
    };
    Top10 {
        rel_ci: rel_ci.min(CI_CEILING),
        mae: err_sum / truth.len().max(1) as f64,
        covered,
        bars,
    }
}

pub fn top10_of_estimates(truth: &[(TermId, u64)], est: &GroupedEstimates) -> Top10 {
    top10(truth, |cat| {
        est.estimates.get(&cat.raw()).map(|&e| {
            (
                e,
                est.half_widths
                    .get(&cat.raw())
                    .copied()
                    .unwrap_or(f64::INFINITY),
            )
        })
    })
}

/// The coverage check shared by every workload that serves estimates.
pub fn coverage_check(covered: u64, bars: u64) -> Check {
    let n = bars as f64;
    let share = if bars == 0 { 1.0 } else { covered as f64 / n };
    let slack = COVERAGE_Z * (n * COVERAGE_FLOOR * (1.0 - COVERAGE_FLOOR)).sqrt();
    Check {
        name: "ci_coverage",
        passed: covered as f64 >= n * COVERAGE_FLOOR - slack,
        detail: format!(
            "{covered}/{bars} top-10 intervals cover the truth ({share:.3}; fails below {:.3})",
            if bars == 0 {
                0.0
            } else {
                (COVERAGE_FLOOR - slack / n).max(0.0)
            }
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top10_scores_ci_error_and_coverage() {
        let truth = [(TermId(1), 100), (TermId(2), 50)];
        let t = top10(&truth, |cat| match cat.raw() {
            1 => Some((110.0, 15.0)), // covered, 10 % off
            _ => Some((40.0, 5.0)),   // not covered, 20 % off
        });
        assert!((t.rel_ci - 20.0 / 150.0).abs() < 1e-12);
        assert!((t.mae - 0.15).abs() < 1e-12);
        assert_eq!((t.covered, t.bars), (1, 2));
    }

    #[test]
    fn unseen_bars_make_the_ci_unbounded_but_finite_in_reports() {
        let truth = [(TermId(1), 100)];
        let t = top10(&truth, |_| None);
        assert_eq!(t.rel_ci, CI_CEILING);
        assert_eq!((t.covered, t.bars), (0, 0));
        assert_eq!(t.mae, 1.0);
    }

    #[test]
    fn coverage_gate_allows_sampling_noise_only() {
        // 100 bars: the floor is 85, three standard deviations are 10.7.
        assert!(coverage_check(85, 100).passed);
        assert!(coverage_check(75, 100).passed);
        assert!(!coverage_check(74, 100).passed);
        // 10 000 bars: the same share is now far outside the noise.
        assert!(!coverage_check(7_500, 10_000).passed);
        assert!(coverage_check(8_400, 10_000).passed);
        assert!(coverage_check(0, 0).passed);
    }

    #[test]
    fn plans_scale_but_never_to_nothing() {
        let plan = |scale| Plan {
            seed: 0,
            scale,
            stride: 1,
            size: Size::Medium,
        };
        assert_eq!(plan(1.0).scaled(2.0), 2);
        assert_eq!(plan(0.5).scaled(48.0), 24);
        assert_eq!(plan(0.01).scaled(1.0), 1);
    }
}
