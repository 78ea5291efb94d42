//! # kgoa — Knowledge Graph exploration via Online Aggregation
//!
//! A from-scratch Rust implementation of *"Exploration of Knowledge Graphs
//! via Online Aggregation"* (Kalinsky, Hogan, Mishali, Etsion, Kimelfeld;
//! ICDE 2022): the **Audit Join** online-aggregation algorithm together
//! with every substrate it depends on — an RDF store with sorted trie
//! indexes, worst-case-optimal joins (LeapFrog / Cached
//! Trie Join), Wander Join, a visual exploration model, synthetic
//! knowledge-graph generators, and a benchmark harness that regenerates
//! the paper's evaluation.
//!
//! This facade crate re-exports the workspace members under stable paths:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`rdf`] | `kgoa-rdf` | terms, triples, graphs, N-Triples, subclass closure |
//! | [`index`] | `kgoa-index` | trie indexes, cursors, statistics |
//! | [`query`] | `kgoa-query` | exploration queries, walk/join planning |
//! | [`engine`] | `kgoa-engine` | exact engines: LFTJ, CTJ, baseline, Yannakakis |
//! | [`online`] | `kgoa-core` | Wander Join, **Audit Join**, confidence intervals |
//! | [`explore`] | `kgoa-explore` | charts, expansions, sessions, workload generator |
//! | [`datagen`] | `kgoa-datagen` | DBpedia-like / LGD-like synthetic graphs |
//! | [`obs`] | `kgoa-obs` | telemetry: per-query profiles, stderr events |
//!
//! ## Quickstart
//!
//! ```
//! use kgoa::prelude::*;
//!
//! // A small synthetic DBpedia-shaped knowledge graph, fully indexed.
//! let graph = kgoa::datagen::generate(&KgConfig::dbpedia_like(Scale::Tiny));
//! let ig = IndexedGraph::build(graph);
//!
//! // Explore: what are the top-level classes?
//! let mut session = Session::root(&ig);
//! let chart = session.expand(Expansion::Subclass, &CtjEngine).unwrap();
//! assert!(!chart.is_empty());
//!
//! // Online aggregation: estimate the same chart with Audit Join.
//! let query = {
//!     let mut s = Session::root(&ig);
//!     s.expansion_query(Expansion::Subclass).unwrap()
//! };
//! let mut aj = AuditJoin::new(&ig, &query, AuditJoinConfig::default()).unwrap();
//! run_walks(&mut aj, 10_000);
//! let estimates = aj.estimates();
//! assert!(!estimates.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// RDF substrate (re-export of `kgoa-rdf`).
pub use kgoa_rdf as rdf;

/// Index substrate (re-export of `kgoa-index`).
pub use kgoa_index as index;

/// Query model and planning (re-export of `kgoa-query`).
pub use kgoa_query as query;

/// Exact join engines (re-export of `kgoa-engine`).
pub use kgoa_engine as engine;

/// Online aggregation — Wander Join and Audit Join (re-export of `kgoa-core`).
pub use kgoa_core as online;

/// Exploration model (re-export of `kgoa-explore`).
pub use kgoa_explore as explore;

/// Synthetic dataset generators (re-export of `kgoa-datagen`).
pub use kgoa_datagen as datagen;

/// Telemetry: per-query profiles (`Session::expand_profiled`) and
/// leveled stderr events (re-export of `kgoa-obs`).
pub use kgoa_obs as obs;

/// Parallel execution: the persistent worker pool and parallel online
/// aggregation (a thin facade over `kgoa-core`'s `pool` and `parallel`
/// modules).
pub mod exec {
    pub use kgoa_core::parallel::{
        run_parallel, Budget, ParallelAlgo, ParallelError, ParallelOutcome, BATCH,
    };
    pub use kgoa_core::pool::{Scope, WorkerPool};
}

/// The most commonly used items in one import.
pub mod prelude {
    pub use kgoa_core::{
        run_governed, run_timed, run_walks, supervise, AuditJoin, AuditJoinConfig, Degraded,
        EpochConfig, EpochGuard, EpochManager, EpochSnapshot, OnlineAggregator,
        SupervisedResult, SupervisorConfig, SupervisorError, WanderJoin,
    };
    pub use kgoa_datagen::{KgConfig, Scale};
    pub use kgoa_engine::{
        BudgetExceeded, BudgetReason, CountEngine, CtjEngine, ExecBudget, GroupedCounts,
        GroupedEstimates, LftjEngine, YannakakisEngine,
    };
    pub use kgoa_explore::{Chart, Expansion, GovernedChart, Session};
    pub use kgoa_index::{IndexOrder, IndexedGraph};
    pub use kgoa_query::{ExplorationQuery, TriplePattern, Var};
    pub use kgoa_rdf::{Graph, GraphBuilder, Term, TermId, Triple};
}
