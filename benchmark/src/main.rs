//! `kgbench` — the repository's benchmark: time-to-accuracy and
//! deadline quality over four workloads, with an outside-in layer trace.
//!
//! ```text
//! kgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! kgbench --smoke [--workload <name>]
//! kgbench selfcheck [--seed <n>] [--seconds <s>]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — every end-to-end metric with
//! `--trace 0`, every layer metric with `--trace 1`. The exit code is
//! non-zero when an output check fails. See `README.md` beside the
//! manifest for what each metric means on each workload.

mod adapter;
mod metrics;
mod probes;
mod report;
mod selfcheck;
mod setup;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use report::Json;
use setup::{Size, World};
use workloads::{aj_converge, churn_replay, session_replay, wj_walks, Outcome, Plan};

/// One parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: workloads::NOMINAL_SECONDS,
        trace: false,
        smoke: false,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "selfcheck" => args.selfcheck = true,
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], not {}",
            args.seconds
        ));
    }
    if let Some(w) = &args.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; one of {:?}",
                workloads::NAMES
            ));
        }
    }
    Ok(args)
}

/// What a workload needs before its measured loop, built inside the
/// `setup_s` stopwatch. The variant is the workload.
pub enum Prepared {
    Session(World),
    Converge(World),
    Walks(World, Vec<wj_walks::PlainChart>),
    Churn(churn_replay::Churn),
}

impl Prepared {
    /// The recorded world, for the workloads that replay it.
    pub fn world(&self) -> Option<&World> {
        match self {
            Prepared::Session(w) | Prepared::Converge(w) | Prepared::Walks(w, _) => Some(w),
            Prepared::Churn(_) => None,
        }
    }
}

/// `workload` is one of [`workloads::NAMES`] (checked where it is parsed).
pub fn prepare(workload: &str, plan: &Plan) -> Prepared {
    match workload {
        "churn_replay" => Prepared::Churn(churn_replay::prepare(plan)),
        "wj_walks" => {
            let world = setup::build_world(plan.size);
            let charts = wj_walks::prepare(&world, plan);
            Prepared::Walks(world, charts)
        }
        "aj_converge" => Prepared::Converge(setup::build_world(plan.size)),
        _ => Prepared::Session(setup::build_world(plan.size)),
    }
}

pub fn measure(prepared: &Prepared, plan: &Plan) -> Outcome {
    match prepared {
        Prepared::Session(w) => session_replay::run(w, plan),
        Prepared::Converge(w) => aj_converge::run(w, plan),
        Prepared::Walks(w, charts) => wj_walks::run(w, charts, plan),
        Prepared::Churn(c) => churn_replay::run(c, plan),
    }
}

/// One untraced run: set-up, the measured loop, the resident set after it.
pub struct Run {
    pub setup_s: f64,
    pub rss_mb: f64,
    pub outcome: Outcome,
    pub provenance: Json,
}

pub fn run_untraced(workload: &str, plan: &Plan) -> Run {
    let t = Instant::now();
    let prepared = prepare(workload, plan);
    let setup_s = t.elapsed().as_secs_f64();
    let outcome = measure(&prepared, plan);
    let rss_mb = report::rss_bytes() as f64 / (1024.0 * 1024.0);
    Run {
        setup_s,
        rss_mb,
        outcome,
        provenance: provenance(&prepared, plan),
    }
}

/// What identifies the inputs of a run: differing digests mean different
/// inputs, not a regression.
fn provenance(prepared: &Prepared, plan: &Plan) -> Json {
    let mut pairs = vec![
        ("seed".to_string(), Json::Int(plan.seed)),
        ("scale".to_string(), Json::Num(plan.scale)),
        ("stride".to_string(), Json::Int(plan.stride as u64)),
        ("recorder_seed".to_string(), Json::Int(setup::RECORDER_SEED)),
    ];
    let layout = match prepared {
        Prepared::Session(w) | Prepared::Converge(w) | Prepared::Walks(w, _) => {
            pairs.push(("workload_digest".into(), Json::str(w.workload_digest())));
            pairs.push(("charts".into(), Json::Int(w.charts.len() as u64)));
            pairs.push(("expansions".into(), Json::Int(w.expansions() as u64)));
            pairs.push(("triples".into(), Json::Int(w.triples as u64)));
            adapter::layout_name(&w.graphs[0].ig)
        }
        Prepared::Churn(c) => {
            pairs.push(("workload_digest".into(), Json::str(c.digest())));
            c.layout()
        }
    };
    pairs.push((
        "environment".into(),
        report::fingerprint(layout, adapter::obs_enabled()),
    ));
    Json::Obj(pairs)
}

fn checks_json(outcome: &Outcome) -> Json {
    Json::Arr(
        outcome
            .checks
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::str(c.name)),
                    ("passed", Json::Bool(c.passed)),
                    ("detail", Json::str(c.detail.clone())),
                ])
            })
            .collect(),
    )
}

/// The contract's last line.
fn summary_line(outcome: &Outcome, metrics: Vec<(String, Json)>) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn report_checks(outcome: &Outcome) {
    for c in &outcome.checks {
        eprintln!(
            "check {:<20} {}  {}",
            c.name,
            if c.passed { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    if outcome.failed > 0 {
        eprintln!(
            "{} of {} operations failed",
            outcome.failed, outcome.attempted
        );
    }
}

fn run_workload(workload: &str, args: &Args) -> bool {
    let size = if args.smoke {
        Size::Smoke
    } else {
        Size::Medium
    };
    let scale = if args.smoke {
        0.05
    } else {
        args.seconds / workloads::NOMINAL_SECONDS
    };
    let plan = Plan {
        seed: args.seed,
        scale,
        stride: 1,
        size,
    };
    let (outcome, line, doc, file) = if args.trace {
        let traced = probes::run_traced(workload, &plan);
        let line = summary_line(&traced.outcome, metrics::layer_json(&traced.layer));
        (
            traced.outcome,
            line,
            traced.document,
            format!("{workload}.trace.json"),
        )
    } else {
        let run = run_untraced(workload, &plan);
        let e2e = metrics::end_to_end(&run);
        let line = summary_line(&run.outcome, metrics::e2e_json(&e2e));
        let doc = Json::obj([
            ("schema", Json::str("kgbench/result-v1")),
            ("workload", Json::str(workload)),
            ("provenance", run.provenance.clone()),
            ("end_to_end", Json::Obj(metrics::e2e_json(&e2e))),
            ("samples", Json::Int(run.outcome.op_ms.len() as u64)),
            (
                "tail_percentile",
                Json::Int(u64::from(stats::tail_percentile(run.outcome.op_ms.len()))),
            ),
            ("detail", Json::Obj(run.outcome.detail.clone())),
            ("checks", checks_json(&run.outcome)),
        ]);
        (run.outcome, line, doc, format!("{workload}.result.json"))
    };
    report_checks(&outcome);
    match report::write_out(&file, &doc) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {file}: {e}"),
    }
    println!("{line}");
    outcome.correct()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kgbench: {e}");
            eprintln!("usage: kgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            eprintln!("       kgbench --smoke [--workload <name>]");
            eprintln!("       kgbench selfcheck [--seed <n>] [--seconds <s>]");
            return ExitCode::from(2);
        }
    };
    let ok = if args.selfcheck {
        selfcheck::run(&args)
    } else {
        let names: Vec<&str> = match &args.workload {
            Some(w) => vec![w.as_str()],
            None if args.smoke => workloads::NAMES.to_vec(),
            None => {
                eprintln!(
                    "kgbench: --workload is required (one of {:?})",
                    workloads::NAMES
                );
                return ExitCode::from(2);
            }
        };
        // Every workload runs even after one fails, so a smoke reports all.
        let mut ok = true;
        for workload in names {
            ok &= run_workload(workload, &args);
        }
        ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = parse_args(&argv("--workload wj_walks --seed 9 --seconds 15 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("wj_walks"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 15.0, true));
        assert!(!a.smoke && !a.selfcheck);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }
}
