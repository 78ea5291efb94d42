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

use std::sync::OnceLock;

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
    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// The stderr threshold, encoded by [`encode`]: events at or above
/// [`Level::Warn`] by default, or what the `KGOA_LOG` environment
/// variable (`error`/`warn`/`info`/`debug`/`off`) names, read once.
fn stderr_threshold() -> u8 {
    static THRESHOLD: OnceLock<u8> = OnceLock::new();
    // Init-order caveat: the unrecognised-value warning cannot be
    // emitted from inside `get_or_init` — `emit_with` calls back into
    // this function, and re-entering an in-flight `OnceLock` deadlocks.
    // So the closure only captures the bad value; the event is emitted
    // after `get_or_init` returns, when the nested call finds the
    // threshold set.
    let mut unrecognised = None;
    let threshold = *THRESHOLD.get_or_init(|| {
        let level = match std::env::var("KGOA_LOG") {
            Ok(v) => parse_stderr_level(&v).unwrap_or_else(|| {
                unrecognised = Some(v);
                Some(Level::Warn)
            }),
            Err(_) => Some(Level::Warn),
        };
        encode(level)
    });
    if let Some(v) = unrecognised {
        warn_unrecognised(&v);
    }
    threshold
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
fn parse_stderr_level(value: &str) -> Option<Option<Level>> {
    match value.trim().to_ascii_lowercase().as_str() {
        "off" | "none" | "silent" => Some(None),
        other => Level::parse(other).map(Some),
    }
}

/// Threshold encoding: level as u8, 255 = never print.
fn encode(level: Option<Level>) -> u8 {
    level.map_or(255, |l| l as u8)
}

/// Emit an event with structured fields: printed to stderr when `level`
/// is at or above the threshold, dropped otherwise.
pub fn emit_with(
    level: Level,
    target: &'static str,
    message: impl Into<String>,
    fields: Vec<(&'static str, String)>,
) {
    if level as u8 >= stderr_threshold() {
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
        // `KGOA_LOG=off` parses to `Some(None)`, which encodes to the
        // never-print threshold (255): no level can reach it.
        let parsed = parse_stderr_level("off").expect("off is recognised");
        assert_eq!(encode(parsed), 255);
        assert!((Level::Error as u8) < 255);
    }
}
