//! # kgoa-obs
//!
//! Zero-dependency telemetry for the kgoa workspace: an atomic metrics
//! registry ([`Counter`], [`Gauge`], log-bucketed [`Histogram`] with
//! p50/p95/p99), RAII [`Span`] timers with a thread-local span stack, a
//! leveled ring-buffered [event log](events), a [`ConvergenceTrace`]
//! recorder for online-aggregation estimators, a per-query
//! [profiler](profile) ([`QueryProfile`] span trees with operator
//! counters, schema [`profile::PROFILE_SCHEMA`]), and a stable JSON
//! [snapshot](snapshot) (schema [`snapshot::SCHEMA`]) plus a
//! human-readable text rendering. Every instrument is read inside the
//! process that recorded it.
//!
//! ## Cost model
//!
//! Telemetry is **disabled by default**. Every metric mutation first
//! loads one global `AtomicBool` with `Ordering::Relaxed` and branches —
//! on the disabled path that is the *entire* cost, so instrumented hot
//! loops (trie seeks, sample draws, LFTJ probes) stay within the < 5%
//! overhead budget documented in DESIGN.md. Call [`set_enabled`]`(true)`
//! to start recording. The [event log](events) is *not* gated: events
//! are rare by construction (fallbacks, rung transitions, panics) and
//! must not disappear when metrics are off, since they replace the
//! previous ad-hoc `eprintln!` diagnostics.
//!
//! ## Naming convention
//!
//! Metric names are `<crate>.<component>.<metric>` (e.g.
//! `index.trie.seeks`, `core.walks.total`),
//! lowercase, dot-separated, with `_ns` / `_us` suffixes for durations.
//!
//! All state is process-global and lock-free on the write path; use
//! [`reset`] between measurement windows.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod registry;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use events::{Event, Level};
pub use json::{Json, JsonError};
pub use metrics::{Counter, Gauge, Histogram};
pub use profile::{ProfileHandle, ProfileReport, QueryProfile, SpanNode, PROFILE_SCHEMA};
pub use registry::Registry;
pub use snapshot::{snapshot, HistogramSnapshot, Snapshot, SCHEMA};
pub use span::Span;
pub use trace::{ConvergenceTrace, TracePoint};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is metric recording enabled? One relaxed atomic load — this is the
/// fast path every instrumented hot loop takes when telemetry is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn metric recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Monotonic process epoch: the first call pins `Instant::now()` and all
/// later calls measure from it. Event timestamps and snapshots use this
/// so readings are comparable within a process.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since [`epoch`].
pub fn elapsed_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Zero every well-known and dynamically-registered metric and clear the
/// event ring. The enabled flag is left as-is. Use between measurement
/// windows (e.g. per `repro` experiment).
pub fn reset() {
    for c in metrics::COUNTERS {
        c.reset();
    }
    for g in metrics::GAUGES {
        g.reset();
    }
    for h in metrics::HISTOGRAMS {
        h.reset();
    }
    registry::Registry::global().reset();
    events::clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_flag_round_trips() {
        // Serialise against other tests that toggle the global flag.
        let _guard = crate::metrics::test_lock();
        let before = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(before);
    }

    #[test]
    fn epoch_is_monotone() {
        let a = elapsed_us();
        let b = elapsed_us();
        assert!(b >= a);
    }
}
