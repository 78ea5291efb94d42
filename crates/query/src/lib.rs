//! # kgoa-query
//!
//! The exploration query model of the paper (Fig. 4): connected acyclic
//! conjunctions of triple patterns where every variable occurs in at most
//! two patterns, evaluated as `SELECT ?α COUNT(DISTINCT ?β) ... GROUP BY ?α`.
//!
//! Besides the query representation ([`ExplorationQuery`]), this crate
//! plans the two access styles the engines need:
//!
//! - [`WalkPlan`] / [`WalkAccess`] — per-step O(1) candidate ranges for the
//!   random walks of Wander Join and Audit Join;
//! - [`JoinPlan`] / [`JoinAccess`] — per-pattern trie-level layouts for the
//!   worst-case-optimal joins (LFTJ / CTJ);
//!
//! and the PostgreSQL-style join-size estimation ([`SuffixEstimator`]) that
//! drives Audit Join's tipping point (§IV-D).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod estimate;
pub mod join_plan;
pub mod pattern;
pub mod query;
pub mod sparql;
pub mod walk;

pub use error::QueryError;
pub use estimate::{attr_ndv, pattern_cardinality, SuffixEstimator};
pub use join_plan::{JoinAccess, JoinLevel, JoinPlan};
pub use pattern::{PatternTerm, TriplePattern, Var};
pub use query::ExplorationQuery;
pub use sparql::to_sparql;
pub use walk::{walk_order_from, walk_orders, PrefixComp, WalkAccess, WalkPlan, WalkStep};
