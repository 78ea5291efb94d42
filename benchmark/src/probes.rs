//! The traced run: the workload once with harness spans off and once with
//! them on (their ratio is the tracing overhead), then one pass of layer
//! probes. Everything is measured from outside the program — public calls
//! timed, public counters read — and written to `<workload>.trace.json`.
//! End-to-end numbers never come from here.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::adapter::{self, IndexOrder, IndexedGraph, LiveRange, Triple};
use crate::metrics::Layer;
use crate::report::Json;
use crate::setup::{self, World};
use crate::stats::{mean, median, quantile, SplitMix};
use crate::trace::{self, SpanRec};
use crate::workloads::{aj_converge, session_replay, Outcome, Plan, BATCH};
use crate::{measure, prepare, Prepared};

/// Every n-th operation in the traced run's two workload runs and in the
/// per-chart probes: a traced run costs about one untraced run.
const STRIDE: usize = 4;

/// Every n-th recorded session in the ladder probe: with every fourth,
/// a single click would be degraded.
const LADDER_STRIDE: usize = 2;

/// Spans written to the trace file; the rest are counted, not listed.
const SPANS_WRITTEN: usize = 50_000;

/// Keys per index probe, drawn from the data.
const KEYS: usize = 100_000;

/// Cap of one full CTJ evaluation in the engine probe.
const CTJ_CAP: Duration = Duration::from_secs(3);

pub struct Traced {
    pub outcome: Outcome,
    pub layer: Layer,
    pub document: Json,
}

pub fn run_traced(workload: &str, plan: &Plan) -> Traced {
    let strided = Plan {
        stride: STRIDE,
        ..*plan
    };
    let mut prepared = prepare(workload, &strided);
    let untraced = measure(&prepared, &strided);
    if matches!(prepared, Prepared::Churn(_)) {
        prepared = prepare(workload, &strided); // a replayed manager is spent
    }
    trace::start();
    let traced = measure(&prepared, &strided);
    let spans = trace::finish();
    let overhead = mean(&traced.op_ms) / mean(&untraced.op_ms);

    // `churn_replay` sets up no recorded world; the probes need one.
    let own_world;
    let world = match prepared.world() {
        Some(w) => w,
        None => {
            own_world = setup::build_world(plan.size);
            &own_world
        }
    };
    let mut layer = Layer::new();
    setup_probe(world, &mut layer);
    index_probe(world, plan.seed, &mut layer);
    explore_probe(world, &mut layer);
    ctj_probe(world, &mut layer);
    audit_probe(world, plan.seed, &mut layer);
    wander_probe(world, plan.seed, &mut layer);
    let ladder_spans = ladder_probe(world, plan, &mut layer);
    epoch_probe(world, plan.seed, &mut layer);
    parallel_probe(world, plan.seed, &mut layer);
    obs_probe(world, plan.seed, &mut layer);
    layer.insert("trace.overhead_ratio", overhead);
    layer.insert("trace.spans", (spans.len() + ladder_spans.len()) as f64);

    let document = Json::obj([
        ("schema", Json::str("kgbench/trace-v1")),
        ("workload", Json::str(workload)),
        ("seed", Json::Int(plan.seed)),
        ("stride", Json::Int(STRIDE as u64)),
        (
            "environment",
            crate::report::fingerprint(
                adapter::layout_name(&world.graphs[0].ig),
                adapter::obs_enabled(),
            ),
        ),
        (
            "overhead",
            Json::obj([
                ("untraced_op_ms_mean", Json::Num(mean(&untraced.op_ms))),
                ("traced_op_ms_mean", Json::Num(mean(&traced.op_ms))),
                ("ratio", Json::Num(overhead)),
            ]),
        ),
        ("layer", Json::Obj(crate::metrics::layer_json(&layer))),
        ("workload_self_times", self_times_json(&spans)),
        ("ladder_self_times", self_times_json(&ladder_spans)),
        ("spans_total", Json::Int(spans.len() as u64)),
        ("spans", spans_json(&spans)),
        ("ladder_spans", spans_json(&ladder_spans)),
    ]);
    let mut outcome = traced;
    outcome.failed += untraced.failed;
    outcome.attempted += untraced.attempted;
    outcome.checks.extend(untraced.checks);
    Traced {
        outcome,
        layer,
        document,
    }
}

fn self_times_json(spans: &[SpanRec]) -> Json {
    Json::Arr(
        trace::self_times(spans)
            .into_iter()
            .map(|(name, (count, total_ns, self_ns))| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("count", Json::Int(count)),
                    ("total_ms", Json::Num(total_ns as f64 / 1e6)),
                    ("self_ms", Json::Num(self_ns as f64 / 1e6)),
                ])
            })
            .collect(),
    )
}

fn spans_json(spans: &[SpanRec]) -> Json {
    Json::Arr(
        spans
            .iter()
            .take(SPANS_WRITTEN)
            .map(|s| {
                Json::Arr(vec![
                    Json::str(s.name),
                    Json::Int(s.start_ns),
                    Json::Int(s.end_ns),
                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                    Json::Int(s.op),
                ])
            })
            .collect(),
    )
}

/// Nanoseconds per call of `f` over `n` calls; `f` returns something the
/// optimiser must keep.
fn ns_per<T>(n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        std::hint::black_box(f(i));
    }
    t.elapsed().as_secs_f64() * 1e9 / n.max(1) as f64
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ---- datagen, index build, ground truth → setup_s, rss_mb ------------------

fn setup_probe(world: &World, layer: &mut Layer) {
    let triples = world.triples as f64;
    let accounted: usize = world
        .graphs
        .iter()
        .map(|g| adapter::memory_bytes(&g.ig))
        .sum();
    layer.insert("datagen.generate_s", world.phases.generate_s);
    layer.insert("index.build_s", world.phases.build_s);
    layer.insert(
        "index.build_us_per_triple",
        world.phases.build_s * 1e6 / triples,
    );
    layer.insert(
        "engine.yannakakis.eval_ms_p50",
        median(&world.yannakakis_ms),
    );
    layer.insert("index.bytes_per_triple", accounted as f64 / triples / 4.0);
    layer.insert(
        "index.rss_vs_accounted_ratio",
        world.build_rss_growth as f64 / accounted as f64,
    );
}

// ---- index reads → wj_walks (range/pick/batch), session_replay (cursor) ----

/// `(s, p, o)` rows drawn uniformly from the SPO index.
fn sample_rows(ig: &IndexedGraph, rng: &mut SplitMix, n: usize) -> Vec<[u32; 3]> {
    let spo = adapter::index(ig, IndexOrder::Spo);
    let len = adapter::live_len(ig) as u64;
    (0..n)
        .map(|_| adapter::row(spo, rng.below(len) as u32))
        .collect()
}

/// Triples that are not in `ig`: subject and predicate of one sampled row
/// with the object of another.
fn absent_triples(ig: &IndexedGraph, rng: &mut SplitMix, n: usize) -> Vec<Triple> {
    let rows = sample_rows(ig, rng, 3 * n + 16);
    let mut out: Vec<Triple> = rows
        .windows(2)
        .map(|w| triple(w[0][0], w[0][1], w[1][2]))
        .filter(|t| !adapter::contains(ig, *t))
        .collect();
    out.sort_unstable();
    out.dedup();
    out.truncate(n);
    out
}

/// Present triples, distinct.
fn present_triples(ig: &IndexedGraph, rng: &mut SplitMix, n: usize) -> Vec<Triple> {
    let mut out: Vec<Triple> = sample_rows(ig, rng, 2 * n)
        .into_iter()
        .map(|r| triple(r[0], r[1], r[2]))
        .collect();
    out.sort_unstable();
    out.dedup();
    out.truncate(n);
    out
}

fn triple(s: u32, p: u32, o: u32) -> Triple {
    Triple::new(adapter::TermId(s), adapter::TermId(p), adapter::TermId(o))
}

fn index_probe(world: &World, seed: u64, layer: &mut Layer) {
    // The larger graph: its indexes do not fit the caches.
    let ig = &world.graphs.last().expect("two graphs").ig;
    let spo = adapter::index(ig, IndexOrder::Spo);
    let mut rng = SplitMix::new(seed, 0x1D);
    let rows = sample_rows(ig, &mut rng, KEYS);

    layer.insert(
        "index.range1_ns",
        ns_per(rows.len(), |i| adapter::range1(spo, rows[i][0])),
    );
    layer.insert(
        "index.range2_ns",
        ns_per(rows.len(), |i| adapter::range2(spo, rows[i][0], rows[i][1])),
    );
    let ranges: Vec<LiveRange> = rows.iter().map(|r| adapter::range1(spo, r[0])).collect();
    let raws: Vec<u64> = (0..rows.len()).map(|_| rng.next_u64()).collect();
    layer.insert(
        "index.pick_row_ns",
        ns_per(rows.len(), |i| adapter::pick_row(spo, ranges[i], raws[i])),
    );

    // Sorted batches of 256 two-value probes, as the SoA walk step issues.
    let mut out = vec![LiveRange::EMPTY; BATCH as usize];
    let batches: Vec<Vec<(u64, u32)>> = rows
        .chunks_exact(BATCH as usize)
        .map(|chunk| {
            let mut probes: Vec<(u64, u32)> = chunk
                .iter()
                .enumerate()
                .map(|(slot, r)| (adapter::probe_key2(r[0], r[1]), slot as u32))
                .collect();
            probes.sort_unstable();
            probes
        })
        .collect();
    let per_batch = ns_per(batches.len(), |i| {
        adapter::seek2_batch(spo, &batches[i], &mut out);
        out[0]
    });
    layer.insert("index.seek2_batch_ns_per_probe", per_batch / BATCH as f64);

    // Ascending level-0 seeks through one cursor, as LFTJ/CTJ issue them.
    let mut keys: Vec<u32> = rows.iter().map(|r| r[0]).collect();
    keys.sort_unstable();
    keys.dedup();
    let t = Instant::now();
    let found = adapter::cursor_seeks(spo, &keys);
    assert_eq!(found, keys.len(), "every sampled subject is a level-0 key");
    layer.insert(
        "index.cursor_seek_ns",
        t.elapsed().as_secs_f64() * 1e9 / keys.len() as f64,
    );

    // A delta overlay of about 4 k rows, the default merge threshold.
    let inserts = absent_triples(ig, &mut rng, 3_277);
    let deletes = present_triples(ig, &mut rng, 819);
    let mut build_ms = Vec::new();
    let mut overlaid = None;
    for _ in 0..5 {
        let t = Instant::now();
        overlaid = Some(adapter::with_overlay(ig, &inserts, &deletes));
        build_ms.push(ms_since(t));
    }
    layer.insert("index.overlay.build_ms", median(&build_ms));
    let overlaid = overlaid.expect("built five times");
    let spo_overlaid = adapter::index(&overlaid, IndexOrder::Spo);
    layer.insert(
        "index.overlay.range2_ns",
        ns_per(rows.len(), |i| {
            adapter::range2(spo_overlaid, rows[i][0], rows[i][1])
        }),
    );
}

// ---- query planning and session bookkeeping → session_replay ---------------

fn explore_probe(world: &World, layer: &mut Layer) {
    let plan_us: Vec<f64> = world
        .charts
        .iter()
        .map(|c| {
            let t = Instant::now();
            std::hint::black_box(adapter::plan(&c.query));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    layer.insert("query.plan_us", median(&plan_us));

    let (mut query_us, mut select_us) = (Vec::new(), Vec::new());
    for recorded in &world.sessions {
        let mut session = adapter::session_root(&world.graphs[recorded.graph].ig);
        for step in &recorded.steps {
            let t = Instant::now();
            std::hint::black_box(adapter::expansion_query(&mut session, step.expansion));
            query_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            adapter::select(&mut session, step.category);
            select_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    layer.insert("explore.expansion_query_us", median(&query_us));
    layer.insert("explore.select_us", median(&select_us));
}

// ---- exact CTJ → session_replay (exact latency, exact share) ---------------

fn ctj_probe(world: &World, layer: &mut Layer) {
    let (mut ms, mut capped) = (Vec::new(), 0usize);
    for chart in world.charts.iter().step_by(STRIDE) {
        let budget = adapter::budget_deadline(CTJ_CAP);
        let t = Instant::now();
        let result = adapter::ctj(world.ig(chart), &chart.query, &budget);
        ms.push(ms_since(t));
        capped += usize::from(result.is_err());
    }
    layer.insert("engine.ctj.eval_ms_p50", median(&ms));
    layer.insert("engine.ctj.eval_ms_p90", quantile(&ms, 0.9));
    layer.insert(
        "engine.ctj.capped_share",
        capped as f64 / ms.len().max(1) as f64,
    );
}

// ---- Audit Join → aj_converge; first batch also → session_replay's tail ----

fn audit_probe(world: &World, seed: u64, layer: &mut Layer) {
    let mut seeds = SplitMix::new(seed, 0xA7);
    let (mut new_us, mut first_ms, mut to_target) = (Vec::new(), Vec::new(), Vec::new());
    let (mut heavy_us, mut light_ns, mut estimates_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut walks, mut useful, mut tipped, mut ticks) = (0u64, 0u64, 0u64, 0u64);
    let (mut hits, mut misses) = (0u64, 0u64);
    for chart in world.charts.iter().step_by(STRIDE) {
        let run = aj_converge::converge(world.ig(chart), chart, seeds.next_u64(), aj_converge::CAP);
        new_us.push(run.new_us);
        first_ms.push(run.first_batch_ms);
        if let Some(w) = run.walks_to_target {
            to_target.push(w as f64);
        }
        // Heavy: the run spent its time in exact suffixes (few, slow
        // walks). Light: walks are cheap and mostly rejected.
        let per_walk_ns = run.elapsed_ms * 1e6 / run.stats.walks.max(1) as f64;
        if run.stats.tipped * 4 >= run.stats.walks {
            heavy_us.push(per_walk_ns / 1e3);
        } else {
            light_ns.push(per_walk_ns);
        }
        estimates_us.push(run.estimates_us_per_group);
        walks += run.stats.walks;
        useful += run.stats.full + run.stats.tipped;
        tipped += run.stats.tipped;
        ticks += run.ticks;
        hits += run.cache.0;
        misses += run.cache.1;
    }
    let walks = walks.max(1) as f64;
    layer.insert("core.audit.new_us", median(&new_us));
    layer.insert("core.audit.heavy.us_per_walk", median(&heavy_us));
    layer.insert("core.audit.light.ns_per_walk", median(&light_ns));
    layer.insert("core.audit.first_batch_ms_p90", quantile(&first_ms, 0.9));
    layer.insert("core.audit.useful_walk_share", useful as f64 / walks);
    layer.insert("core.audit.tipped_share", tipped as f64 / walks);
    layer.insert(
        "core.audit.suffix_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layer.insert("core.audit.exact_ticks_per_walk", ticks as f64 / walks);
    layer.insert("core.audit.walks_to_target_p50", median(&to_target));
    layer.insert("core.accum.estimates_us_per_group", median(&estimates_us));
}

// ---- Wander Join → wj_walks (batched), session_replay (one-walk loop) ------

fn wander_probe(world: &World, seed: u64, layer: &mut Layer) {
    const WALKS_B256: u64 = 200 * 1024;
    const WALKS_B1: u64 = 50 * 1024;
    let mut seeds = SplitMix::new(seed, 0x3B);
    let budget = adapter::budget_unlimited();
    let (mut b256, mut b1) = (Vec::new(), Vec::new());
    let (mut walks, mut rejected) = (0u64, 0u64);
    for chart in world.charts.iter().step_by(STRIDE) {
        let query = chart.query.with_distinct(false);
        let mut wj = adapter::wander_join(world.ig(chart), &query, seeds.next_u64());
        let t = Instant::now();
        let mut done = 0;
        while done < WALKS_B256 {
            done += adapter::step_batch(&mut wj, &budget, BATCH).expect("unlimited budget");
        }
        b256.push(t.elapsed().as_secs_f64() * 1e9 / WALKS_B256 as f64);
        let stats = adapter::walk_stats(&wj);
        walks += stats.walks;
        rejected += stats.rejected;

        let mut wj = adapter::wander_join(world.ig(chart), &query, seeds.next_u64());
        b1.push(ns_per(WALKS_B1 as usize, |_| {
            adapter::step_one(&mut wj, &budget)
        }));
    }
    layer.insert("core.wander.ns_per_walk_b256", median(&b256));
    layer.insert("core.wander.ns_per_walk_b1", median(&b1));
    layer.insert(
        "core.wander.rejected_share",
        rejected as f64 / walks.max(1) as f64,
    );
}

// ---- the ladder, opaque and replicated → session_replay --------------------

/// One click through a replica of the supervisor's ladder built only from
/// public functions, so that each stage gets a span of its own.
fn ladder_replica(
    session: &mut adapter::Session<'_>,
    ig: &IndexedGraph,
    expansion: adapter::Expansion,
    seed: u64,
) {
    let deadline = session_replay::DEADLINE;
    let start = Instant::now();
    let query = adapter::expansion_query(session, expansion);
    let kind = adapter::chart_kind(expansion);
    std::hint::black_box(adapter::plan(&query));
    match adapter::ctj(ig, &query, &adapter::budget_deadline(deadline / 2)) {
        Ok(counts) => {
            std::hint::black_box(adapter::chart_from_counts(kind, &counts));
        }
        Err(_) => {
            let mut aj = adapter::audit_join(ig, &query, seed);
            let budget = adapter::budget_deadline(deadline.saturating_sub(start.elapsed()));
            while adapter::step_batch(&mut aj, &budget, BATCH) == Some(BATCH) {}
            let estimates = adapter::estimates(&aj);
            std::hint::black_box(adapter::chart_from_estimates(kind, &estimates));
        }
    }
}

fn ladder_probe(world: &World, plan: &Plan, layer: &mut Layer) -> Vec<SpanRec> {
    // The supervisor's own figures, from a strided replay.
    let replay = session_replay::run(
        world,
        &Plan {
            stride: LADDER_STRIDE,
            scale: 0.25,
            ..*plan
        },
    );
    layer.insert(
        "core.supervisor.degraded_walks_per_s",
        replay.figure("degraded_walks_per_s"),
    );
    layer.insert(
        "core.supervisor.overshoot_ms_p95",
        replay.figure("overshoot_ms_p95"),
    );
    layer.insert(
        "core.supervisor.exact_ms_p50",
        replay.figure("exact_ms_p50"),
    );
    layer.insert("core.supervisor.rung.exact", replay.figure("rung_exact"));
    layer.insert(
        "core.supervisor.rung.audit_join",
        replay.figure("rung_audit_join"),
    );
    layer.insert(
        "core.supervisor.rung.wander_join",
        replay.figure("rung_wander_join"),
    );
    layer.insert(
        "core.supervisor.rung.exhausted",
        replay.figure("rung_exhausted"),
    );

    // Replica then opaque call, click by click, on the same sessions.
    let mut seeds = SplitMix::new(plan.seed, 0x1AD);
    let mut profile_coverage = Vec::new();
    trace::start();
    let mut click = 0u64;
    for recorded in world.sessions.iter().step_by(LADDER_STRIDE) {
        let ig = &world.graphs[recorded.graph].ig;
        let mut session = adapter::session_root(ig);
        for (depth, step) in recorded.steps.iter().enumerate() {
            let seed = seeds.next_u64();
            trace::set_op(2 * click);
            ladder_replica(&mut session, ig, step.expansion, seed);
            trace::set_op(2 * click + 1);
            let config = adapter::supervisor_config(session_replay::DEADLINE, seed);
            if depth == 0 {
                // Root clicks also go through the program's own profiler.
                let (_, report) = adapter::expand_profiled(&mut session, step.expansion, &config);
                profile_coverage.push(profile_share(&report));
            } else {
                adapter::expand_governed(&mut session, step.expansion, &config);
            }
            adapter::select(&mut session, step.category);
            click += 1;
        }
    }
    let spans = trace::finish();

    // Per click: what the replica's stages add up to, against the opaque
    // call's wall time.
    let mut replica_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let mut opaque_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        let ns = s.end_ns - s.start_ns;
        match s.name {
            "explore.expand_governed" | "explore.expand_profiled" => {
                *opaque_ns.entry(s.op / 2).or_default() += ns;
            }
            "explore.select" | "explore.session_root" => {}
            _ => *replica_ns.entry(s.op / 2).or_default() += ns,
        }
    }
    let (mut coverage, mut overhead_us) = (Vec::new(), Vec::new());
    for (click, opaque) in &opaque_ns {
        let replica = replica_ns.get(click).copied().unwrap_or(0);
        coverage.push(replica as f64 / *opaque as f64);
        overhead_us.push((*opaque as f64 - replica as f64) / 1e3);
    }
    layer.insert("trace.layer_coverage", median(&coverage));
    layer.insert("explore.session_overhead_us", median(&overhead_us));
    layer.insert("obs.profile_coverage", median(&profile_coverage));

    // Mean time of one call of each stage.
    let stages = trace::self_times(&spans);
    let per_call = |name: &str, unit_ns: f64| {
        stages.get(name).map_or(f64::NAN, |&(n, total, _)| {
            total as f64 / n.max(1) as f64 / unit_ns
        })
    };
    layer.insert(
        "trace.stage.query_us",
        per_call("explore.expansion_query", 1e3),
    );
    layer.insert("trace.stage.plan_us", per_call("query.plan", 1e3));
    layer.insert("trace.stage.exact_rung_ms", per_call("engine.ctj", 1e6));
    layer.insert("trace.stage.audit_new_us", per_call("core.audit.new", 1e3));
    layer.insert("trace.stage.estimates_us", per_call("core.estimates", 1e3));
    layer.insert(
        "trace.stage.chart_build_us",
        per_call("explore.chart_build", 1e3),
    );
    layer.insert(
        "explore.chart_build_us",
        per_call("explore.chart_build", 1e3),
    );
    let walks_ms = stages
        .get("core.step_batch")
        .map_or(f64::NAN, |&(_, total, _)| {
            let degraded = stages.get("core.audit.new").map_or(1, |s| s.0.max(1));
            total as f64 / degraded as f64 / 1e6
        });
    layer.insert("trace.stage.walks_ms", walks_ms);
    spans
}

/// Share of a profiled expansion's wall time that the program's own span
/// tree accounts for (its root spans against the scope's duration).
fn profile_share(report: &adapter::ProfileReport) -> f64 {
    let roots: u64 = report
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.total_ns)
        .sum();
    roots as f64 / (report.duration_us.max(1) as f64 * 1e3)
}

// ---- epochs: append, merge, pin → churn_replay -----------------------------

fn epoch_probe(world: &World, seed: u64, layer: &mut Layer) {
    const ROWS: usize = 1_250;
    let ig = &world.graphs[0].ig;
    let mut rng = SplitMix::new(seed, 0xE9);
    let inserts = absent_triples(ig, &mut rng, 8 * 1_000);
    let deletes = present_triples(ig, &mut rng, 8 * 250);
    let batches = inserts.len().min(deletes.len() * 4) / 1_000;
    let batch = |i: usize| {
        (
            inserts[i * 1_000..][..1_000].to_vec(),
            deletes[i * 250..][..250].to_vec(),
        )
    };
    let mgr = adapter::epoch_manager(ig.clone());
    let read_query = {
        let guard = adapter::pin(&mgr);
        let mut session = adapter::session_root(&guard);
        adapter::expansion_query(&mut session, adapter::Expansion::OutProperty)
    };
    let read = |seed: u64| {
        let guard = adapter::pin(&mgr);
        let t = Instant::now();
        let mut aj = adapter::audit_join(&guard, &read_query, seed);
        let budget = adapter::budget_unlimited();
        let mut done = 0;
        while done < 2_048 {
            done += adapter::step_batch(&mut aj, &budget, BATCH).expect("unlimited budget");
        }
        ms_since(t)
    };

    // Three appends stay under the merge threshold: a synchronous merge
    // of that delta is one clean merge time.
    let mut append_ms = Vec::new();
    let quiet = adapter::merge_threshold() / ROWS;
    for i in 0..quiet.min(batches) {
        let (ins, del) = batch(i);
        let t = Instant::now();
        adapter::append(&mgr, ins, del);
        append_ms.push(ms_since(t));
    }
    let quiet_ms = median(&(0..3).map(|i| read(seed ^ i)).collect::<Vec<_>>());
    let t = Instant::now();
    adapter::merge_all(&mgr);
    layer.insert("core.epoch.merge_ms", ms_since(t));

    // The next appends cross the threshold: reads now race the background
    // merge on the other core.
    let mut merging_ms = Vec::new();
    for i in quiet..batches {
        let (ins, del) = batch(i);
        let t = Instant::now();
        adapter::append(&mgr, ins, del);
        append_ms.push(ms_since(t));
        while adapter::is_merging(&mgr) {
            let ms = read(seed ^ (16 + i as u64));
            if adapter::is_merging(&mgr) {
                merging_ms.push(ms);
            }
        }
    }
    adapter::merge_all(&mgr);
    layer.insert("core.epoch.append_ms_p50", median(&append_ms));
    layer.insert("core.epoch.append_ms_p95", quantile(&append_ms, 0.95));
    layer.insert(
        "core.epoch.read_during_merge_ratio",
        median(&merging_ms) / quiet_ms,
    );
    layer.insert("core.epoch.pin_ns", ns_per(100_000, |_| adapter::pin(&mgr)));
}

// ---- two workers against one → none today (ROADMAP 1d, 2ii) ----------------

fn parallel_probe(world: &World, seed: u64, layer: &mut Layer) {
    const WALKS: u64 = 400 * 1024;
    let chart = &world.charts[0];
    let query = chart.query.with_distinct(false);
    let time = |threads: usize| {
        let t = Instant::now();
        let stats = adapter::parallel_wander(
            world.ig(chart),
            &query,
            threads,
            WALKS / threads as u64,
            seed,
        );
        assert_eq!(stats.walks, WALKS, "the quota is split, not shrunk");
        t.elapsed().as_secs_f64()
    };
    time(2); // the pool's threads exist before either side is timed
    let one = median(&[time(1), time(1), time(1)]);
    let two = median(&[time(2), time(2), time(2)]);
    layer.insert("core.parallel.speedup_2t", one / two);
}

// ---- telemetry switched on against off → wj_walks --------------------------

fn obs_probe(world: &World, seed: u64, layer: &mut Layer) {
    const WALKS: u64 = 200 * 1024;
    let chart = &world.charts[0];
    let query = chart.query.with_distinct(false);
    let budget = adapter::budget_unlimited();
    let quota = |enabled: bool| {
        adapter::set_obs_enabled(enabled);
        let mut wj = adapter::wander_join(world.ig(chart), &query, seed);
        let t = Instant::now();
        let mut done = 0;
        while done < WALKS {
            done += adapter::step_batch(&mut wj, &budget, BATCH).expect("unlimited budget");
        }
        adapter::set_obs_enabled(false);
        t.elapsed().as_secs_f64()
    };
    quota(false);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        off.push(quota(false));
        on.push(quota(true));
    }
    layer.insert("obs.enabled_tax_ratio", median(&on) / median(&off));
}
