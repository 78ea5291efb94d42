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
//! [`CtjCounter`] additionally exposes the cached count / existence /
//! walk-success-probability computations that `kgoa-core`'s Audit Join
//! builds on.

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

pub use baseline::{baseline_grouped, baseline_grouped_governed, DEFAULT_TUPLE_LIMIT};
#[cfg(feature = "fault-inject")]
pub use budget::FaultPlan;
pub use budget::{BudgetExceeded, BudgetMeter, BudgetReason, ExecBudget, ExecBudgetBuilder};
pub use ctj::{ctj_count, CacheStats, CtjCounter, StepCacheStats};
pub use engines::{BaselineEngine, CountEngine, CtjEngine, LftjEngine, YannakakisEngine};
pub use error::EngineError;
pub use lftj::{lftj_count, lftj_count_governed, LftjExec, LftjVarStats};
pub use result::{mean_absolute_error, mean_ci_width, GroupedCounts, GroupedEstimates};
pub use yannakakis::{
    count_distinct_values, yannakakis_grouped_distinct, yannakakis_grouped_distinct_governed,
};
