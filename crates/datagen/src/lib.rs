//! # kgoa-datagen
//!
//! Seeded synthetic knowledge-graph generators standing in for the paper's
//! evaluation datasets (DBpedia v3.6 and LinkedGeoData 2015-11 — see
//! DESIGN.md §3 for the substitution rationale). The generators reproduce
//! the structural properties the algorithms are sensitive to: hierarchy
//! shape, Zipf-skewed popularity, domain/range correlation, and
//! literal-heavy properties. Real N-Triples dumps can be loaded through
//! `kgoa_rdf::ntriples` instead when available.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod generate;
pub mod zipf;

pub use config::{KgConfig, Scale};
pub use generate::{generate, generate_with_info, DatasetInfo};
pub use zipf::Zipf;
