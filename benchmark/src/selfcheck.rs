//! `kgbench selfcheck` — does the benchmark agree with itself? Every
//! workload is run twice on the same build with the same seed, each run in
//! a process of its own as the contract's driver does (resident memory is a
//! property of the process); for each end-to-end metric the two values, how
//! much worse the second is than the first (negative: better) and the
//! metric's bound are printed. A gap beyond the bound, either way, means a
//! regression of that size could not be told from noise, and the command
//! fails.

use std::process::Command;

use crate::metrics::END_TO_END;
use crate::workloads::NAMES;
use crate::Args;

/// The value of `name` in a run's last output line, which this program
/// wrote itself: `"name":{"value":<number>,`.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// One untraced run in a child process; its last output line, if it
/// succeeded.
fn child_run(workload: &str, args: &Args) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().ok()?;
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .map(str::to_string)
}

pub fn run(args: &Args) -> bool {
    let mut ok = true;
    println!("| workload | metric | run 1 | run 2 | worse by | bound | |");
    println!("|---|---|---:|---:|---:|---:|---|");
    for workload in NAMES {
        let (Some(first), Some(second)) = (child_run(workload, args), child_run(workload, args))
        else {
            println!("| {workload} | a run failed | | | | | FAILED |");
            ok = false;
            continue;
        };
        for metric in &END_TO_END {
            let (a, b) = match (
                metric_in(&first, metric.name),
                metric_in(&second, metric.name),
            ) {
                (Some(a), Some(b)) => (a, b),
                _ => (f64::NAN, f64::NAN),
            };
            let gap = if metric.better == "lower" {
                (b - a) / a
            } else {
                (a - b) / a
            };
            let within = gap.abs() <= metric.bound;
            ok &= within;
            println!(
                "| {workload} | {} | {a:.4} | {b:.4} | {:+.1} % | {:.0} % | {} |",
                metric.name,
                gap * 100.0,
                metric.bound * 100.0,
                if within { "ok" } else { "UNRESOLVED" }
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_are_read_back_from_an_output_line() {
        let line = r#"{"correct":true,"attempted":9,"failed":0,"metrics":{"setup_s":{"value":4.25,"unit":"s"},"rel_ci":{"value":null,"unit":"ratio"},"goal_share":{"value":1,"unit":"ratio"}}}"#;
        assert_eq!(metric_in(line, "setup_s"), Some(4.25));
        assert_eq!(metric_in(line, "goal_share"), Some(1.0));
        assert_eq!(metric_in(line, "rel_ci"), None);
        assert_eq!(metric_in(line, "op_ms_mean"), None);
    }
}
