//! # kgoa-engine
//!
//! Exact join engines for exploration queries (§IV-B of the paper):
//!
//! - [`LftjEngine`] — LeapFrog Trie Join, the worst-case-optimal baseline;
//! - [`CtjEngine`] — Cached Trie Join, LFTJ plus per-step suffix caches
//!   (the paper's exact engine, and the exact-computation substrate that
//!   Audit Join defers to);
//! - [`BaselineEngine`] — a conventional materializing join pipeline
//!   standing in for Virtuoso (see DESIGN.md §3);
//! - [`YannakakisEngine`] — semi-join reduction, the harness's independent
//!   ground truth for distinct counts.
//!
//! All engines implement [`CountEngine`] and agree exactly; the
//! differential tests in `tests/` check this on randomized inputs.
//! [`CtjCounter`] is the one memoized suffix recursion behind CTJ: its
//! count / existence / walk-success-mass computations and its grouped
//! count and pair-mass drivers serve both [`CtjEngine`] and `kgoa-core`'s
//! Audit Join, whose tipped walks finish with them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod budget;
pub mod ctj;
pub mod engines;
pub mod error;
pub mod lftj;
pub mod result;
pub mod yannakakis;

pub use baseline::DEFAULT_TUPLE_LIMIT;
#[cfg(feature = "fault-inject")]
pub use budget::FaultPlan;
pub use budget::{BudgetExceeded, BudgetMeter, BudgetReason, ExecBudget, ExecBudgetBuilder};
pub use ctj::{ctj_count, CacheStats, CtjCounter, StepCacheStats};
pub use engines::{BaselineEngine, CountEngine, CtjEngine, LftjEngine, YannakakisEngine};
pub use error::EngineError;
pub use lftj::{lftj_count, LftjExec};
pub use result::{mean_absolute_error, mean_ci_width, GroupedCounts, GroupedEstimates};
pub use yannakakis::count_distinct_values;
