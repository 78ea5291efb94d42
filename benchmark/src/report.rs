//! What a run prints and writes: a small JSON value, the resident-set
//! reading, and the environment fingerprint every result file carries.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A JSON value. Object keys keep insertion order so files diff cleanly.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// `{"value": v, "unit": u}` — the shape the benchmark contract reads.
    pub fn metric(value: f64, unit: &str) -> Json {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Non-finite numbers have no JSON spelling; a reader must see
            // "no value", never a made-up one.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => write!(out, "{x}").expect("writing to a String"),
            Json::Int(n) => write!(out, "{n}").expect("writing to a String"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Resident set size of this process, as the OS accounts it.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Where result and trace files go: `out/` beside the benchmark's manifest,
/// which the root `.gitignore` names. Relative to the working directory
/// the contract runs the command from (the checkout's root).
pub fn out_dir() -> PathBuf {
    let dir = Path::new("benchmark").join("out");
    if dir.parent().is_some_and(Path::is_dir) {
        dir
    } else {
        PathBuf::from("out")
    }
}

pub fn write_out(name: &str, doc: &Json) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, doc.render() + "\n")?;
    Ok(path)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What the numbers depend on besides the code under test.
pub fn fingerprint(layout: &str, obs_enabled: bool) -> Json {
    let unknown = || "unknown".to_string();
    Json::obj([
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        // Asked only where the working directory is itself a repository:
        // the contract's checkout is not, and git must not go looking
        // for one above it.
        (
            "git_rev",
            Json::Str(
                Path::new(".git")
                    .exists()
                    .then(|| command_line("git", &["rev-parse", "--short", "HEAD"]))
                    .flatten()
                    .unwrap_or_else(unknown),
            ),
        ),
        ("layout", Json::str(layout)),
        ("obs_enabled", Json::Bool(obs_enabled)),
        ("kgbench", Json::str(env!("CARGO_PKG_VERSION"))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_keeps_order() {
        let doc = Json::obj([
            ("b", Json::str("x\"y\n")),
            (
                "a",
                Json::Arr(vec![
                    Json::Int(1),
                    Json::Num(0.5),
                    Json::Null,
                    Json::Bool(true),
                ]),
            ),
            ("inf", Json::Num(f64::INFINITY)),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"b":"x\"y\n","a":[1,0.5,null,true],"inf":null}"#
        );
    }

    #[test]
    fn metric_has_the_contract_shape() {
        assert_eq!(
            Json::metric(1.25, "ms").render(),
            r#"{"value":1.25,"unit":"ms"}"#
        );
    }

    #[test]
    fn rss_is_read_from_the_os() {
        assert!(rss_bytes() > 0);
    }
}
