//! A leveled structured event log, printed to stderr.
//!
//! This replaces the workspace's ad-hoc `eprintln!` diagnostics: code
//! emits an event (level + target + message + key/value fields), and
//! events at or above the stderr threshold (default [`Level::Warn`],
//! overridable with the `KGOA_LOG` environment variable) are printed as
//! one line each — so the pre-telemetry behaviour of a panicked worker
//! writing one warning line to stderr is preserved verbatim. Nothing is
//! retained in the process: the per-query record of what happened is the
//! [profile](crate::profile).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Once;

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-volume diagnostics (per-worker stats and the like).
    Debug,
    /// Normal lifecycle events (rung transitions, merges).
    Info,
    /// Something degraded but the request was still served.
    Warn,
    /// A request failed outright.
    Error,
}

impl Level {
    /// Lowercase name for rendering ("debug", "info", ...).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parse a level name, case-insensitively.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// Stderr threshold encoding: level as u8, 255 = never print.
static STDERR_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

/// One-time `KGOA_LOG` environment lookup. Guarded by a `Once` so an
/// explicit [`set_stderr_level`] call always wins regardless of whether
/// it runs before or after the first emit: both paths force the env
/// read first, and the env value is applied at most once.
static ENV_INIT: Once = Once::new();

fn init_from_env() {
    // Init-order caveat: the unrecognised-value warning cannot be
    // emitted from inside the `call_once` closure — `emit_with` calls
    // back into `init_from_env`, and re-entering an in-flight `Once`
    // deadlocks. So the closure only captures the bad value; the event
    // is emitted after `call_once` returns, when the `Once` is complete
    // and the nested `init_from_env` is a no-op.
    let mut unrecognised = None;
    ENV_INIT.call_once(|| {
        if let Ok(v) = std::env::var("KGOA_LOG") {
            match parse_stderr_level(&v) {
                Some(level) => STDERR_LEVEL.store(encode(level), Ordering::Relaxed),
                None => unrecognised = Some(v),
            }
        }
    });
    if let Some(v) = unrecognised {
        warn_unrecognised(&v);
    }
}

/// Report an unrecognised `KGOA_LOG` value as a structured Warn event
/// (printed at the default threshold, preserving the old raw
/// `eprintln!` visibility).
fn warn_unrecognised(value: &str) {
    emit_with(
        Level::Warn,
        "events",
        "ignoring unrecognised KGOA_LOG value",
        vec![("value", format!("{value:?}"))],
    );
}

/// Parse a `KGOA_LOG` value: a [`Level`] name routes that level and
/// above to stderr, `off`/`none`/`silent` silences stderr
/// (`Some(None)`), anything else is unrecognised (`None`).
pub fn parse_stderr_level(value: &str) -> Option<Option<Level>> {
    match value.trim().to_ascii_lowercase().as_str() {
        "off" | "none" | "silent" => Some(None),
        other => Level::parse(other).map(Some),
    }
}

fn encode(level: Option<Level>) -> u8 {
    level.map_or(255, |l| l as u8)
}

/// Route events at or above `level` to stderr (`None` silences stderr
/// entirely — used by benchmarks and tests). The default is
/// [`Level::Warn`] — which preserves the visibility the old
/// `eprintln!` calls had — overridable at startup with the `KGOA_LOG`
/// environment variable (`error`/`warn`/`info`/`debug`/`off`). An
/// explicit call to this function always beats the environment.
pub fn set_stderr_level(level: Option<Level>) {
    ENV_INIT.call_once(|| {}); // consume the env slot: explicit wins
    STDERR_LEVEL.store(encode(level), Ordering::Relaxed);
}

/// Emit an event with structured fields: printed to stderr when `level`
/// is at or above the threshold, dropped otherwise.
pub fn emit_with(
    level: Level,
    target: &'static str,
    message: impl Into<String>,
    fields: Vec<(&'static str, String)>,
) {
    init_from_env();
    if level as u8 >= STDERR_LEVEL.load(Ordering::Relaxed) {
        eprintln!("{}", line(level, target, &message.into(), &fields));
    }
}

/// The stderr rendering of one event:
/// `kgoa[<level>] <target>: <message>`, then ` (k=v, ...)` when it has
/// fields.
fn line(level: Level, target: &str, message: &str, fields: &[(&'static str, String)]) -> String {
    let kv: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let suffix = if kv.is_empty() { String::new() } else { format!(" ({})", kv.join(", ")) };
    format!("kgoa[{}] {}: {}{}", level.as_str(), target, message, suffix)
}

/// Emit an event with no fields.
pub fn emit(level: Level, target: &'static str, message: impl Into<String>) {
    emit_with(level, target, message, Vec::new());
}

/// Emit at [`Level::Debug`].
pub fn debug(target: &'static str, message: impl Into<String>) {
    emit(Level::Debug, target, message);
}

/// Emit at [`Level::Info`].
pub fn info(target: &'static str, message: impl Into<String>) {
    emit(Level::Info, target, message);
}

/// Emit at [`Level::Warn`].
pub fn warn(target: &'static str, message: impl Into<String>) {
    emit(Level::Warn, target, message);
}

/// Emit at [`Level::Error`].
pub fn error(target: &'static str, message: impl Into<String>) {
    emit(Level::Error, target, message);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kgoa_log_values_parse() {
        assert_eq!(parse_stderr_level("debug"), Some(Some(Level::Debug)));
        assert_eq!(parse_stderr_level("INFO"), Some(Some(Level::Info)));
        assert_eq!(parse_stderr_level(" warn "), Some(Some(Level::Warn)));
        assert_eq!(parse_stderr_level("warning"), Some(Some(Level::Warn)));
        assert_eq!(parse_stderr_level("error"), Some(Some(Level::Error)));
        assert_eq!(parse_stderr_level("off"), Some(None));
        assert_eq!(parse_stderr_level("none"), Some(None));
        assert_eq!(parse_stderr_level("verbose"), None);
        assert_eq!(parse_stderr_level(""), None);
        assert_eq!(Level::parse("Error"), Some(Level::Error));
        assert_eq!(Level::parse("trace"), None);
    }

    /// The only test in this crate that moves the global threshold, so
    /// parallel tests cannot race it.
    #[test]
    fn explicit_stderr_level_beats_environment_and_off_silences() {
        // After an explicit set, the env slot is consumed: emitting
        // must not re-apply KGOA_LOG over the explicit choice.
        set_stderr_level(None);
        emit(Level::Error, "test", "silenced");
        assert_eq!(STDERR_LEVEL.load(Ordering::Relaxed), 255);
        // `KGOA_LOG=off` parses to `Some(None)`, which encodes to the
        // never-print threshold (255): no level can reach it.
        let parsed = parse_stderr_level("off").expect("off is recognised");
        assert_eq!(encode(parsed), 255);
        assert!((Level::Error as u8) < 255);
        set_stderr_level(Some(Level::Warn));
        assert_eq!(STDERR_LEVEL.load(Ordering::Relaxed), Level::Warn as u8);
    }

    #[test]
    fn stderr_line_format_is_stable() {
        assert_eq!(
            line(Level::Warn, "parallel", "worker panicked", &[]),
            "kgoa[warn] parallel: worker panicked"
        );
        // The line an unrecognised `KGOA_LOG` value produces.
        assert_eq!(
            line(
                Level::Warn,
                "events",
                "ignoring unrecognised KGOA_LOG value",
                &[("value", format!("{:?}", "verbose"))]
            ),
            "kgoa[warn] events: ignoring unrecognised KGOA_LOG value (value=\"verbose\")"
        );
        assert_eq!(
            line(Level::Info, "supervisor", "served exact", &[
                ("rung", "exact".into()),
                ("elapsed_us", "12".into()),
            ]),
            "kgoa[info] supervisor: served exact (rung=exact, elapsed_us=12)"
        );
    }

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
        assert_eq!(Level::Error.as_str(), "error");
    }
}
