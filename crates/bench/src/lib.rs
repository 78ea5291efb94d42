//! # kgoa-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§V): Table I, Figs. 8–11, the §V-C sample-time numbers, and
//! three ablations of the design choices DESIGN.md calls out, plus the
//! parity and robustness gates that exit non-zero on failure. The `repro`
//! binary is a CLI over these modules. Nothing here compares speed between
//! commits: that is `kgbench` (`benchmark/README.md`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod churn;
pub mod experiments;
pub mod metrics;
pub mod profiler;
pub mod telemetry;
pub mod workload;

pub use churn::churn_bench;
pub use experiments::{
    ablate_cache, ablate_order, ablate_tipping, deadline_sweep, fig11, fig8, fig8_queries,
    fig9_10, sample_time, table1, verify_engines,
};
pub use metrics::{fmt_duration, fmt_pct, selectivity, tukey, Tukey};
pub use profiler::{folded_path_for, profile_report};
pub use telemetry::{obs_overhead, trace_report, TRACE_SCHEMA};
pub use workload::{
    load_datasets, prepare_workload, run_fixed_walks, run_series,
    select_aj_plan, select_walk_plan, Algo, BenchConfig, Dataset, PreparedQuery, SeriesPoint,
};
