//! `churn_replay` — writes beside reads. The dbpedia-like graph starts
//! with a share of its relation triples held out; every tick appends a
//! batch of held-out inserts and deletes through the epoch manager, pins
//! the new epoch and runs two fixed Audit Join reads on it. Under the
//! default `EpochConfig` every fourth append crosses the merge threshold
//! and a background merge starts on the second core; that tick's reads run
//! beside it, and the loop then waits for the merge before the next tick.
//! The wait makes every four-tick cycle alike — three ticks of reads over a
//! growing delta, one beside a merge — where a free-running loop met merges
//! at a different phase on every run (read means 108–130 ms for one build).
//! The same `index` layer is used differently here — delta overlay,
//! O(delta) `with_overlay` per append, re-pack on merge — so a read-side
//! gain that costs ingest or merge time shows.

use std::sync::Arc;
use std::time::Instant;

use super::{coverage_check, top10_of_estimates, Check, Outcome, Plan, BATCH, READABLE_ERROR};
use crate::adapter::{self, EpochManager, Expansion, ExplorationQuery, TermId, Triple};
use crate::report::Json;
use crate::setup::graph_configs;
use crate::stats::{median, quantile, SplitMix};
use crate::trace;

/// Ticks at the nominal run length, and the rows each tick appends. At
/// 1 250 rows a tick the default merge threshold (4 096) trips every
/// fourth tick: ten merge cycles.
const NOMINAL_TICKS: f64 = 40.0;
const INSERTS_PER_TICK: usize = 1_000;
const DELETES_PER_TICK: usize = 250;

/// The two reads of every tick: root charts, so every appended triple can
/// move them, with a walk quota that puts each read near 50 ms.
const READS: [(Expansion, u64); 2] = [
    (Expansion::OutProperty, 4_096),
    (Expansion::Subclass, 8_192),
];

/// Per-epoch ground truth is recomputed on every n-th tick only, so the
/// exact engine does not change how often a read meets a merge.
const CHECK_EVERY: usize = 4;

/// A manager over the main graph, and the update stream to feed it.
pub struct Churn {
    mgr: Arc<EpochManager>,
    ticks: usize,
    /// Held out of the main graph; appended tick by tick.
    inserts: Vec<Triple>,
    /// Present in the main graph; deleted tick by tick.
    deletes: Vec<Triple>,
    reads: Vec<(ExplorationQuery, u64)>,
    main_len: usize,
    pub build_s: f64,
}

/// Generate the graph, hold out the update stream (chosen by `--seed`),
/// index the rest and wrap it in an epoch manager. This workload's set-up.
pub fn prepare(plan: &Plan) -> Churn {
    let (_, config) = graph_configs(plan.size)
        .into_iter()
        .next()
        .expect("dbpedia-like is first");
    let graph = adapter::generate(&config);
    let vocab = graph.vocab();
    let schema = [vocab.rdf_type, vocab.subclass_of, vocab.subclass_of_trans];
    let mut relation: Vec<usize> = (0..graph.len())
        .filter(|&i| !schema.contains(&graph.triples()[i].p))
        .collect();
    SplitMix::new(plan.seed, 0xC4).shuffle(&mut relation);

    // Small graphs (`--smoke`) cannot feed full batches; shrink the ticks
    // rather than the batch shape.
    let per_tick = INSERTS_PER_TICK + DELETES_PER_TICK;
    let wanted = (plan.scaled(NOMINAL_TICKS) as usize).div_ceil(plan.stride);
    let ticks = wanted.min(relation.len() / 2 / per_tick).max(1);
    let triple = |i: &usize| graph.triples()[*i];
    let inserts: Vec<Triple> = relation[..ticks * INSERTS_PER_TICK]
        .iter()
        .map(triple)
        .collect();
    let deletes: Vec<Triple> = relation[ticks * INSERTS_PER_TICK..ticks * per_tick]
        .iter()
        .map(triple)
        .collect();

    let mut held: Vec<usize> = relation[..ticks * INSERTS_PER_TICK].to_vec();
    held.sort_unstable();
    let main: Vec<Triple> = (0..graph.len())
        .filter(|i| held.binary_search(i).is_err())
        .map(|i| graph.triples()[i])
        .collect();
    let main_len = main.len();
    let t = Instant::now();
    let ig = adapter::build_index(adapter::graph_with_triples(&graph, main));
    let build_s = t.elapsed().as_secs_f64();
    let mgr = adapter::epoch_manager(ig);

    let guard = adapter::pin(&mgr);
    let reads = READS
        .iter()
        .map(|&(expansion, walks)| {
            let mut session = adapter::session_root(&guard);
            (adapter::expansion_query(&mut session, expansion), walks)
        })
        .collect();
    Churn {
        mgr,
        ticks,
        inserts,
        deletes,
        reads,
        main_len,
        build_s,
    }
}

impl Churn {
    /// Hash of the update stream: which triples are appended and deleted,
    /// in which order.
    pub fn digest(&self) -> String {
        let rows: Vec<String> = self
            .inserts
            .iter()
            .chain(&self.deletes)
            .map(|t| format!("{} {} {}", t.s.raw(), t.p.raw(), t.o.raw()))
            .collect();
        crate::stats::digest(rows.iter().map(String::as_str))
    }

    pub fn layout(&self) -> &'static str {
        adapter::layout_name(&adapter::pin(&self.mgr))
    }
}

pub fn run(churn: &Churn, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let mut seeds = SplitMix::new(plan.seed, 0xC5);
    let (mut append_ms, mut quiet_ms, mut merging_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut merge_ms = Vec::new();
    let (mut rel_ci, mut mae) = (Vec::new(), Vec::new());
    let (mut covered, mut bars, mut readable, mut checked) = (0, 0, 0u64, 0u64);
    let mut top10s: Vec<Vec<(TermId, u64)>> = vec![Vec::new(); churn.reads.len()];
    let budget = adapter::budget_unlimited();

    for tick in 0..churn.ticks {
        trace::set_op(tick as u64);
        let insert = churn.inserts[tick * INSERTS_PER_TICK..][..INSERTS_PER_TICK].to_vec();
        let delete = churn.deletes[tick * DELETES_PER_TICK..][..DELETES_PER_TICK].to_vec();
        let t = Instant::now();
        adapter::append(&churn.mgr, insert, delete);
        append_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // Set by the append that crossed the threshold, before it returns.
        let merging = adapter::is_merging(&churn.mgr);
        let merge_started = Instant::now();

        let guard = adapter::pin(&churn.mgr);
        let check = tick % CHECK_EVERY == 0;
        for (ri, (query, walks)) in churn.reads.iter().enumerate() {
            let t = Instant::now();
            let mut aj = adapter::audit_join(&guard, query, seeds.next_u64());
            let mut done = 0;
            while done < *walks {
                done += adapter::step_batch(&mut aj, &budget, BATCH)
                    .expect("an unlimited budget cannot trip");
            }
            let est = adapter::estimates(&aj);
            let ms = t.elapsed().as_secs_f64() * 1e3;

            out.attempted += 1;
            out.failed += u64::from(est.is_empty());
            out.op_ms.push(ms);
            if merging {
                &mut merging_ms
            } else {
                &mut quiet_ms
            }
            .push(ms);
            if check {
                let truth = adapter::yannakakis(&guard, query);
                top10s[ri] = truth.sorted_desc().into_iter().take(10).collect();
            }
            let top = top10_of_estimates(&top10s[ri], &est);
            rel_ci.push(top.rel_ci);
            if check {
                checked += 1;
                mae.push(top.mae);
                readable += u64::from(top.mae <= READABLE_ERROR);
                covered += top.covered;
                bars += top.bars;
            }
        }
        if merging {
            adapter::wait_merged(&churn.mgr);
            merge_ms.push(merge_started.elapsed().as_secs_f64() * 1e3);
        }
    }

    let t = Instant::now();
    adapter::merge_all(&churn.mgr);
    let final_merge_ms = t.elapsed().as_secs_f64() * 1e3;
    let oracle = churn.main_len + churn.ticks * (INSERTS_PER_TICK - DELETES_PER_TICK);
    let live = adapter::live_len(&adapter::pin(&churn.mgr));
    let delta = adapter::delta_rows(&churn.mgr);

    let rows = (churn.ticks * (INSERTS_PER_TICK + DELETES_PER_TICK)) as f64;
    out.work_per_s = rows / (append_ms.iter().sum::<f64>() / 1e3);
    out.rel_ci = median(&rel_ci);
    out.goal_share = readable as f64 / checked.max(1) as f64;
    out.checks.push(coverage_check(covered, bars));
    out.checks.push(Check {
        name: "merged_live_set",
        passed: delta == 0 && live == oracle,
        detail: format!("after the final merge: delta rows {delta}, live {live}, oracle {oracle}"),
    });
    out.note("ticks", Json::Int(churn.ticks as u64));
    out.note("ingest_triples_per_s", Json::Num(out.work_per_s));
    out.note("read_ms_p50", Json::Num(median(&out.op_ms)));
    out.note("read_ms_quiet_p50", Json::Num(median(&quiet_ms)));
    out.note("read_ms_merging_p50", Json::Num(median(&merging_ms)));
    out.note("reads_during_merge", Json::Int(merging_ms.len() as u64));
    out.note("merge_ms_p50", Json::Num(median(&merge_ms)));
    out.note("merges", Json::Int(merge_ms.len() as u64));
    out.note("append_ms_p50", Json::Num(median(&append_ms)));
    out.note("append_ms_p95", Json::Num(quantile(&append_ms, 0.95)));
    out.note("final_merge_ms", Json::Num(final_merge_ms));
    out.note("read_mae_p50", Json::Num(median(&mae)));
    out
}
