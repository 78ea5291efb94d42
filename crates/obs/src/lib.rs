//! # kgoa-obs
//!
//! Zero-dependency telemetry for the kgoa workspace. There is one
//! instrument: the per-query [profiler](profile). A [`QueryProfile`]
//! scope collects the spans and operator counters of one query — across
//! every thread it fans out to — into a span tree, rendered as an
//! annotated text tree, collapsed flamegraph stacks, or a JSON document
//! of schema [`profile::PROFILE_SCHEMA`]. Beside it, a leveled
//! [event log](events) prints rung transitions, fallbacks and panics to
//! stderr, and a small [`Json`] model writes the documents. Telemetry is
//! emit-only: nothing here reads a document back, and a finished report
//! checks its own span tree ([`ProfileReport::check_tree`]).
//!
//! ## Cost model
//!
//! When no profile is live anywhere in the process, every
//! instrumentation point costs one relaxed atomic load and a branch
//! (see [`profile`]). Events are rare by construction and are printed
//! only at or above the stderr threshold.
//!
//! ## Naming convention
//!
//! Span names are `<layer>.<component>[.<detail>]` (e.g.
//! `supervisor.rung.exact`, `engine.ctj.evaluate`), lowercase and
//! dot-separated.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
mod json;
pub mod profile;

pub use events::Level;
pub use json::Json;
pub use profile::{ProfileHandle, ProfileReport, QueryProfile, SpanNode, PROFILE_SCHEMA};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide telemetry flag. It gates nothing: profiles are
/// opted into per query, and events are not gated. It remains only
/// because the benchmark's `obs.enabled_tax_ratio` probe toggles it; a
/// benchmark change that drops that probe can delete it together with
/// [`set_enabled`].
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Set the flag read by [`enabled`]. It gates nothing (see there).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_flag_round_trips() {
        let before = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(before);
    }
}
