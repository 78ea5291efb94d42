//! # kgoa-rdf
//!
//! RDF substrate for the `kgoa` workspace — the Rust reproduction of
//! *"Exploration of Knowledge Graphs via Online Aggregation"* (ICDE 2022).
//!
//! This crate provides:
//!
//! - dictionary-encoded [`Term`]s / [`TermId`]s and [`Triple`]s,
//! - an immutable [`Graph`] container built via [`GraphBuilder`],
//! - an N-Triples reader/writer ([`ntriples`]) for loading real dumps,
//! - a [`Dictionary`] that stores each lexical form once, in one arena,
//!   shared by `Arc` across every graph and index built over it,
//! - the offline-materialized reflexive-transitive subclass closure that
//!   the paper's engines rely on (§IV-A, *Remark*).
//!
//! Everything downstream (indexes, join engines, online aggregation)
//! operates purely on `u32` term ids; strings only appear at the system
//! boundary.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dictionary;
pub mod error;
pub mod graph;
pub mod hierarchy;
pub mod ntriples;
pub mod term;
pub mod triple;

pub use dictionary::Dictionary;
pub use error::RdfError;
pub use graph::{root_orphan_classes, Graph, GraphBuilder, VocabIds};
pub use hierarchy::subclass_closure;
pub use term::{vocab, Term, TermId, TermKind, TermRef};
pub use triple::{Position, Triple};
