//! # kgoa-explore
//!
//! The visual exploration model of §III: bar charts over a knowledge
//! graph, five bar expansions (subclass, out-property, in-property,
//! object, subject) forming the transition system of Fig. 3, interactive
//! [`Session`]s that translate expansions into exploration queries
//! (§IV-A), and the random exploration generator used by the paper's
//! experimental study (§V-B).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chart;
pub mod error;
pub mod generator;
pub mod session;

pub use chart::{short_label, Bar, Chart, ChartKind};
pub use error::ExploreError;
pub use generator::{generate_explorations, GeneratedQuery, GeneratorConfig};
pub use session::{Expansion, GovernedChart, Session};
