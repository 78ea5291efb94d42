//! `repro` — regenerate the paper's tables and figures.
//!
//! Run `repro` with no arguments for usage. The experiment list lives in
//! one place — [`EXPERIMENTS`] — which drives the usage text, the `all`
//! selection, and dispatch alike, so the three cannot drift apart.
//!
//! ```text
//! repro <experiment>[,<experiment>…] [options]
//!
//! options:
//!   --scale tiny|small|medium|large   dataset scale   (default small)
//!   --ticks N                         report points   (default 5)
//!   --tick-ms N                       tick length     (default 200)
//!   --runs N                          generator runs  (default 25)
//!   --steps N                         max exploration depth (default 4)
//!   --seed N                          workload seed
//!   --tipping X                       AJ tipping threshold (default 1024)
//!   --batch N                         walks per SoA batch (default 256)
//!   --out PATH                        JSON output path (trace, profile)
//!   --paper                           paper protocol: 9 ticks × 1 s
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::{Duration, Instant};

use kgoa_bench::{
    ablate_cache, ablate_order, ablate_tipping, churn_bench, deadline_sweep, fig11, fig8, fig9_10,
    load_datasets, obs_overhead, prepare_workload, profile_report, sample_time, table1,
    trace_report, verify_engines, BenchConfig, Dataset, PreparedQuery,
};
use kgoa_datagen::Scale;

/// Everything an experiment may consume: the prepared workload (empty
/// slices when no selected experiment needs one) and the CLI options.
struct Ctx<'a> {
    datasets: &'a [Dataset],
    workload: &'a [PreparedQuery],
    cfg: &'a BenchConfig,
    opts: &'a Opts,
}

/// CLI options beyond the [`BenchConfig`] knobs.
#[derive(Default)]
struct Opts {
    out: Option<String>,
}

/// What an experiment produced: the report text and whether its gate
/// passed (`true` for experiments that are not gates).
type Outcome = (String, bool);

/// One registered experiment. The table below is the single source of
/// truth for the CLI surface.
struct Experiment {
    name: &'static str,
    help: &'static str,
    run: fn(&Ctx) -> Outcome,
    /// Needs the datasets + prepared workload built up front.
    needs_workload: bool,
}

fn ok(report: String) -> Outcome {
    (report, true)
}

/// The experiment registry: usage text, `all`, and dispatch all read this.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        help: "dataset information (Table I)",
        run: |c| ok(table1(c.datasets)),
        needs_workload: true,
    },
    Experiment {
        name: "verify",
        help: "all exact engines agree on the whole workload",
        run: |c| ok(verify_engines(c.datasets, c.workload)),
        needs_workload: true,
    },
    Experiment {
        name: "fig8",
        help: "MAE/time on six selected queries (Fig. 8)",
        run: |c| ok(fig8(c.datasets, c.workload, c.cfg)),
        needs_workload: true,
    },
    Experiment {
        name: "fig9",
        help: "MAE/time Tukey stats, all queries with distinct (Fig. 9)",
        run: |c| ok(fig9_10(c.datasets, c.workload, c.cfg, true)),
        needs_workload: true,
    },
    Experiment {
        name: "fig10",
        help: "same without distinct (Fig. 10)",
        run: |c| ok(fig9_10(c.datasets, c.workload, c.cfg, false)),
        needs_workload: true,
    },
    Experiment {
        name: "fig11",
        help: "rejection rates per query (Fig. 11)",
        run: |c| ok(fig11(c.datasets, c.workload, c.cfg)),
        needs_workload: true,
    },
    Experiment {
        name: "sampletime",
        help: "per-walk timings (§V-C)",
        run: |c| ok(sample_time(c.datasets, c.workload, c.cfg)),
        needs_workload: true,
    },
    Experiment {
        name: "ablate-tipping",
        help: "tipping-threshold sweep (A1)",
        run: |c| ok(ablate_tipping(c.datasets, c.workload, c.cfg)),
        needs_workload: true,
    },
    Experiment {
        name: "ablate-cache",
        help: "CTJ vs LFTJ (A2)",
        run: |c| ok(ablate_cache(c.datasets, c.workload)),
        needs_workload: true,
    },
    Experiment {
        name: "ablate-order",
        help: "WJ walk-order selection (A3)",
        run: |c| ok(ablate_order(c.datasets, c.workload, c.cfg)),
        needs_workload: true,
    },
    Experiment {
        name: "deadlines",
        help: "supervised execution under a deadline sweep",
        run: |c| ok(deadline_sweep(c.datasets, c.workload, c.cfg)),
        needs_workload: true,
    },
    Experiment {
        name: "trace",
        help: "convergence traces + telemetry snapshot (JSON, kgoa-obs)",
        run: |c| ok(trace_report(c.datasets, c.workload, c.cfg, c.opts.out.as_deref())),
        needs_workload: true,
    },
    Experiment {
        name: "profile",
        help: "EXPLAIN ANALYZE span tree + folded flamegraph (kgoa-obs/v2)",
        run: |c| ok(profile_report(c.datasets, c.workload, c.cfg, c.opts.out.as_deref())),
        needs_workload: true,
    },
    Experiment {
        name: "churn",
        help: "live updates under query load: MVCC epoch gate (nonzero exit on fail)",
        run: |c| churn_bench(c.cfg),
        needs_workload: false,
    },
    Experiment {
        name: "obs-overhead",
        help: "disabled-telemetry overhead gate (nonzero exit on fail)",
        run: |c| obs_overhead(c.datasets, c.workload, 15),
        needs_workload: true,
    },
];

fn usage() -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!("usage: repro <{}|all> [options]\n", names.join("|"));
    eprintln!("experiments:");
    for e in EXPERIMENTS {
        eprintln!("  {:<15} {}", e.name, e.help);
    }
    eprintln!("  {:<15} every experiment above", "all");
    eprintln!(
        "\noptions:\n  --scale tiny|small|medium|large   dataset scale   (default small)\n  \
         --ticks N                         report points   (default 5)\n  \
         --tick-ms N                       tick length     (default 200)\n  \
         --runs N                          generator runs  (default 25)\n  \
         --steps N                         max exploration depth (default 4)\n  \
         --seed N                          workload seed\n  \
         --tipping X                       AJ tipping threshold (default 1024)\n  \
         --batch N                         walks per SoA batch (default 256)\n  \
         --out PATH                        JSON output path (trace, profile)\n  \
         --paper                           paper protocol: 9 ticks × 1 s"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(experiment) = args.first().cloned() else {
        return usage();
    };
    let mut cfg = BenchConfig::default();
    let mut opts = Opts::default();
    let mut i = 1;
    while i < args.len() {
        let take_value = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--scale" => {
                let Some(v) = take_value(&mut i) else { return usage() };
                cfg.scale = match v.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "medium" => Scale::Medium,
                    "large" => Scale::Large,
                    _ => return usage(),
                };
            }
            "--ticks" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => cfg.ticks = v,
                None => return usage(),
            },
            "--tick-ms" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => cfg.tick = Duration::from_millis(v),
                None => return usage(),
            },
            "--runs" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => cfg.runs = v,
                None => return usage(),
            },
            "--steps" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => cfg.max_steps = v,
                None => return usage(),
            },
            "--seed" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => cfg.seed = v,
                None => return usage(),
            },
            "--tipping" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => cfg.tipping_threshold = v,
                None => return usage(),
            },
            "--batch" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => cfg.batch = v,
                None => return usage(),
            },
            "--out" => match take_value(&mut i) {
                Some(v) => opts.out = Some(v),
                None => return usage(),
            },
            "--paper" => {
                cfg.ticks = 9;
                cfg.tick = Duration::from_secs(1);
            }
            _ => return usage(),
        }
        i += 1;
    }

    // One experiment, a comma-separated list, or "all" — resolved against
    // the registry before any expensive setup.
    let selected: Vec<&Experiment> = if experiment == "all" {
        EXPERIMENTS.iter().collect()
    } else {
        let mut picked = Vec::new();
        for name in experiment.split(',') {
            match EXPERIMENTS.iter().find(|e| e.name == name) {
                Some(e) => picked.push(e),
                None => return usage(),
            }
        }
        picked
    };

    eprintln!(
        "# kgoa repro: {experiment} (scale {:?}, {} ticks × {:?}, {} runs × ≤{} steps, seed {})",
        cfg.scale, cfg.ticks, cfg.tick, cfg.runs, cfg.max_steps, cfg.seed
    );
    let t0 = Instant::now();
    let (datasets, workload) = if selected.iter().any(|e| e.needs_workload) {
        eprintln!("# building datasets…");
        let datasets = load_datasets(cfg.scale);
        eprintln!("# generating workload…");
        let workload = prepare_workload(&datasets, &cfg);
        eprintln!(
            "# ready: {} queries over {} datasets in {:.1}s",
            workload.len(),
            datasets.len(),
            t0.elapsed().as_secs_f64()
        );
        (datasets, workload)
    } else {
        (Vec::new(), Vec::new())
    };
    let ctx = Ctx { datasets: &datasets, workload: &workload, cfg: &cfg, opts: &opts };

    let mut gate_failed = false;
    for e in selected {
        eprintln!("# running {}…", e.name);
        let (report, passed) = (e.run)(&ctx);
        println!("{report}");
        gate_failed |= !passed;
    }
    eprintln!("# done in {:.1}s", t0.elapsed().as_secs_f64());
    if gate_failed {
        eprintln!("# FAILED: a gate did not pass");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
