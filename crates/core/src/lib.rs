//! # kgoa-core
//!
//! Online aggregation for knowledge-graph exploration — the primary
//! contribution of *"Exploration of Knowledge Graphs via Online
//! Aggregation"* (ICDE 2022):
//!
//! - [`WanderJoin`] — random-walk online aggregation (Li et al. 2016) with
//!   Ripple-Join-style (biased) distinct handling, the paper's comparison
//!   point;
//! - [`AuditJoin`] — the paper's algorithm: Wander Join's walks augmented
//!   with exact partial computations via Cached Trie Join at a
//!   selectivity-driven *tipping point*, plus a provably unbiased
//!   count-distinct estimator (`Σ_b Pr(a,b,δ) / (Pr(a,b)·Pr(δ))`);
//! - [`OnlineAggregator`] with [`run_walks`] / [`run_timed`] runners and
//!   CLT confidence intervals;
//! - walk-order selection ([`select_plan`]) per §V-B;
//! - resource-governed execution ([`supervise`]): deadlines, cooperative
//!   cancellation, panic isolation, and exact → approximate graceful
//!   degradation with [`Degraded`] provenance;
//! - parallel online aggregation ([`run_parallel`]) with one
//!   `std::thread::scope` thread per worker, and live updates
//!   ([`EpochManager`]) whose background merges run on a small
//!   crate-private pool.
//!
//! The unbiasedness claims (Props. IV.1 and IV.2) are verified by exact
//! expectation tests in `tests/unbiasedness.rs` at the workspace root:
//! enumerating the full stopping set Δ and checking
//! `Σ_δ Pr(δ)·estimate(δ)` equals the true count to within floating-point
//! tolerance.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accum;
pub mod audit;
mod batch;
pub mod epoch;
pub mod online;
pub mod parallel;
mod pool;
pub mod order;
pub mod pinned;
pub mod supervisor;
pub mod wander;

pub use accum::{GroupAccumulator, WalkStats, Z_95};
pub use audit::{AuditJoin, AuditJoinConfig, Tipping, DEFAULT_TIPPING_THRESHOLD};
pub use epoch::{EpochConfig, EpochGuard, EpochManager, EpochSnapshot};
#[cfg(feature = "fault-inject")]
pub use epoch::MergeCrashPoint;
pub use online::{
    run_governed, run_timed, run_walks, run_walks_batched, OnlineAggregator, Snapshot,
};
pub use parallel::{
    run_parallel, Budget, ParallelAlgo, ParallelError, ParallelOutcome, BATCH,
};
pub use supervisor::{
    supervise, DegradeReason, Degraded, SupervisedResult, SupervisorConfig, SupervisorError,
};
pub use order::{score_orders, select_plan, select_plan_audit, OrderScore, OrderSelection};
pub use pinned::{PrAb, PrAbStats};
pub use wander::WanderJoin;
