//! `session_replay` — the product path. Every recorded session is replayed
//! click for click through `Session::root` → `expand_governed` under a
//! deadline → `select`. It is the only workload where `explore`, the
//! supervisor's ladder, the exact CTJ rung and the one-walk governed Audit
//! Join loop all run as users hit them, and deadline quality — how many
//! charts come back exact, how wide the others' error bars are — is what
//! the analyst actually sees.

use std::time::{Duration, Instant};

use super::{coverage_check, top10, Check, Outcome, Plan};
use crate::adapter::{self, GovernedChart};
use crate::report::Json;
use crate::setup::{ChartCase, World};
use crate::stats::{median, quantile, tail_percentile, SplitMix};
use crate::trace;

/// The deadline of every click. The exact rung gets half of it; on the
/// reference box that 95 ms slice sits in the widest gap of the recorded
/// charts' exact CTJ times (… 74, 75 ms ↔ 118, 159, 160, 163, 200 ms …),
/// a quarter away from either side, so `goal_share` does not flap.
pub const DEADLINE: Duration = Duration::from_millis(190);

/// Replay passes at the nominal run length. One pass is 55 clicks and
/// about 3.6 s: the 12 degraded clicks take the whole deadline each.
const NOMINAL_PASSES: f64 = 4.0;

/// How a served chart compares with the truth.
pub enum Served {
    Exact {
        matches: bool,
    },
    Degraded {
        estimator: &'static str,
        walks: u64,
        top: super::Top10,
    },
    Error,
}

/// Score one governed chart against the chart's ground truth.
pub fn score(chart: &ChartCase, governed: &GovernedChart) -> Served {
    if governed.error.is_some() {
        return Served::Error;
    }
    match &governed.provenance {
        None => {
            let bars = &governed.chart.bars;
            let matches = bars.len() == chart.truth.len()
                && bars
                    .iter()
                    .all(|b| b.count == chart.truth.get(b.category) as f64);
            Served::Exact { matches }
        }
        Some(p) => Served::Degraded {
            estimator: p.estimator,
            walks: p.walks,
            top: top10(&chart.top10, |cat| {
                governed.chart.bar(cat).map(|b| (b.count, b.half_width))
            }),
        },
    }
}

pub fn run(world: &World, plan: &Plan) -> Outcome {
    let passes = plan.scaled(NOMINAL_PASSES);
    let mut out = Outcome::default();
    let mut exact_ms = Vec::new();
    let mut degraded_ci = Vec::new();
    let mut overshoot_ms = Vec::new();
    let (mut covered, mut bars) = (0, 0);
    let (mut rung_exact, mut rung_aj, mut rung_wj, mut rung_err) = (0u64, 0u64, 0u64, 0u64);
    let (mut degraded_walks, mut degraded_s) = (0u64, 0.0f64);
    let mut mismatches = 0u64;
    let mut loop_s = 0.0;
    let mut clicks = Vec::new();
    let deadline_ms = DEADLINE.as_secs_f64() * 1e3;

    for pass in 0..passes {
        let mut seeds = SplitMix::new(plan.seed, 0x5E55 + pass);
        let mut order: Vec<usize> = (0..world.sessions.len()).step_by(plan.stride).collect();
        seeds.shuffle(&mut order);
        for si in order {
            let recorded = &world.sessions[si];
            let ig = &world.graphs[recorded.graph].ig;
            let mut session = adapter::session_root(ig);
            for step in &recorded.steps {
                trace::set_op(out.attempted);
                let config = adapter::supervisor_config(DEADLINE, seeds.next_u64());
                let t = Instant::now();
                let governed = adapter::expand_governed(&mut session, step.expansion, &config);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                adapter::select(&mut session, step.category);
                loop_s += t.elapsed().as_secs_f64();

                out.attempted += 1;
                out.op_ms.push(ms);
                clicks.push(Json::obj([
                    ("chart", Json::Int(step.chart as u64)),
                    ("ms", Json::Num(ms)),
                    ("exact", Json::Bool(governed.is_exact())),
                ]));
                match score(&world.charts[step.chart], &governed) {
                    Served::Exact { matches } => {
                        rung_exact += 1;
                        exact_ms.push(ms);
                        if !matches {
                            mismatches += 1;
                            out.failed += 1;
                        }
                    }
                    Served::Degraded {
                        estimator,
                        walks,
                        top,
                    } => {
                        if estimator == "aj" {
                            rung_aj += 1;
                        } else {
                            rung_wj += 1;
                        }
                        degraded_ci.push(top.rel_ci);
                        overshoot_ms.push(ms - deadline_ms);
                        covered += top.covered;
                        bars += top.bars;
                        degraded_walks += walks;
                        degraded_s += (ms - deadline_ms / 2.0).max(0.0) / 1e3;
                    }
                    Served::Error => {
                        rung_err += 1;
                        out.failed += 1;
                    }
                }
            }
        }
    }

    let n = out.attempted.max(1) as f64;
    out.work_per_s = out.attempted as f64 / loop_s;
    out.rel_ci = median(&degraded_ci);
    out.goal_share = rung_exact as f64 / n;
    out.checks.push(Check {
        name: "exact_equals_truth",
        passed: mismatches == 0,
        detail: format!("{mismatches} of {rung_exact} exact charts differ from Yannakakis"),
    });
    out.checks.push(coverage_check(covered, bars));

    let tail = tail_percentile(out.op_ms.len());
    out.note("passes", Json::Int(passes));
    out.note("deadline_ms", Json::Num(deadline_ms));
    out.note("expand_ms_mean", Json::Num(crate::stats::mean(&out.op_ms)));
    out.note(
        &format!("expand_ms_p{tail}"),
        Json::Num(quantile(&out.op_ms, f64::from(tail) / 100.0)),
    );
    out.note("exact_ms_p50", Json::Num(median(&exact_ms)));
    out.note("exact_share", Json::Num(out.goal_share));
    out.note("degraded_ci_p50", Json::Num(out.rel_ci));
    out.note("overshoot_ms_p95", Json::Num(quantile(&overshoot_ms, 0.95)));
    out.note(
        "degraded_walks_per_s",
        Json::Num(degraded_walks as f64 / degraded_s),
    );
    out.note("rung_exact", Json::Int(rung_exact));
    out.note("rung_audit_join", Json::Int(rung_aj));
    out.note("rung_wander_join", Json::Int(rung_wj));
    out.note("rung_exhausted", Json::Int(rung_err));
    out.note("clicks", Json::Arr(clicks));
    out
}
