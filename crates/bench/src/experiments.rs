//! Report generators: one function per table/figure of the paper's
//! evaluation (§V). Every function returns the printable report; the
//! `repro` binary is a thin CLI over these.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use kgoa_core::{run_walks, AuditJoin, AuditJoinConfig, OnlineAggregator, WanderJoin};
use kgoa_engine::{
    BaselineEngine, CountEngine, CtjEngine, EngineError, LftjEngine, YannakakisEngine,
};
use kgoa_explore::{Expansion, Session};
use kgoa_query::ExplorationQuery;

use crate::metrics::{fmt_duration, fmt_pct, selectivity, tukey};
use crate::workload::{Algo, BenchConfig, Dataset, PreparedQuery};

/// Table I: dataset information.
pub fn table1(datasets: &[Dataset]) -> String {
    let mut out = String::new();
    writeln!(out, "## Table I — Dataset information (synthetic stand-ins; see DESIGN.md §3)\n").unwrap();
    writeln!(out, "{:<16} {:>10} {:>10} {:>10} {:>12} {:>14} {:>18}", "Dataset", "Triples", "Classes", "Props", "approx. size", "index memory", "dictionary memory").unwrap();
    for ds in datasets {
        writeln!(
            out,
            "{:<16} {:>10} {:>10} {:>10} {:>9} MB {:>11} MB {:>15.1} MB",
            ds.name,
            ds.info.triples,
            ds.info.classes,
            ds.info.properties,
            ds.info.approx_bytes / 1_000_000,
            ds.ig.memory_bytes() / 1_000_000,
            ds.ig.dict().heap_bytes() as f64 / 1e6,
        )
        .unwrap();
    }
    out
}

/// The six selected queries of Fig. 8: per dataset, (i) the out-property
/// expansion of the root class, (ii) the subclass expansion of the root,
/// and (iii) the deepest generated exploration query.
pub(crate) fn fig8_queries(
    datasets: &[Dataset],
    workload: &[PreparedQuery],
) -> Vec<(String, usize, ExplorationQuery)> {
    let mut out = Vec::new();
    for (di, ds) in datasets.iter().enumerate() {
        let mut s = Session::root(&ds.ig);
        out.push((
            format!("{}: out-property(Thing)", ds.name),
            di,
            s.expansion_query(Expansion::OutProperty).expect("root expansion"),
        ));
        let mut s = Session::root(&ds.ig);
        out.push((
            format!("{}: subclass(Thing)", ds.name),
            di,
            s.expansion_query(Expansion::Subclass).expect("root expansion"),
        ));
        if let Some(q) = workload
            .iter()
            .filter(|q| q.dataset == di)
            .max_by_key(|q| (q.generated.step, q.generated.query.patterns().len()))
        {
            out.push((format!("{}: deep ({})", ds.name, q.id), di, q.generated.query.clone()));
        }
    }
    out
}

fn time_engine(
    engine: &dyn CountEngine,
    ig: &kgoa_index::IndexedGraph,
    query: &ExplorationQuery,
) -> (String, Result<kgoa_engine::GroupedCounts, EngineError>) {
    let t0 = Instant::now();
    let r = engine.evaluate(ig, query);
    (fmt_duration(t0.elapsed()), r)
}

/// Fig. 8: MAE per tick for WJ and AJ (with 0.95 CIs) on six selected
/// queries, plus the exact runtimes of the baseline engine and CTJ.
pub fn fig8(datasets: &[Dataset], workload: &[PreparedQuery], cfg: &BenchConfig) -> String {
    let mut out = String::new();
    writeln!(out, "## Figure 8 — MAE over time on selected queries (distinct)\n").unwrap();
    for (label, di, query) in fig8_queries(datasets, workload) {
        let ig = &datasets[di].ig;
        let (t_base, r_base) = time_engine(&BaselineEngine::default(), ig, &query);
        let (t_ctj, exact) = time_engine(&CtjEngine, ig, &query);
        let exact = exact.expect("ctj ground truth");
        let base_note = match r_base {
            Ok(_) => t_base,
            Err(EngineError::IntermediateResultLimit { .. }) => ">budget (blow-up)".to_owned(),
            Err(e) => format!("error: {e}"),
        };
        let sel = selectivity(ig, &query).unwrap_or(f64::NAN);
        writeln!(out, "### {label}").unwrap();
        writeln!(
            out,
            "groups={} selectivity={sel:.4} | exact runtimes: baseline={base_note} ctj={t_ctj}",
            exact.len()
        )
        .unwrap();
        let wj = crate::workload::run_series(ig, &query, &exact, Algo::Wj, cfg);
        let aj = crate::workload::run_series(ig, &query, &exact, Algo::Aj, cfg);
        writeln!(
            out,
            "{:>8} {:>10} {:>10} {:>10} {:>10}",
            "t", "WJ MAE", "WJ CI", "AJ MAE", "AJ CI"
        )
        .unwrap();
        for (w, a) in wj.iter().zip(aj.iter()) {
            writeln!(
                out,
                "{:>8} {:>10} {:>10} {:>10} {:>10}",
                fmt_duration(w.elapsed),
                fmt_pct(w.mae),
                fmt_pct(w.ci),
                fmt_pct(a.mae),
                fmt_pct(a.ci),
            )
            .unwrap();
        }
        let (wl, al) = (wj.last().unwrap(), aj.last().unwrap());
        writeln!(
            out,
            "rejection: WJ={} AJ={} | walks: WJ={} AJ={}\n",
            fmt_pct(wl.stats.rejection_rate()),
            fmt_pct(al.stats.rejection_rate()),
            wl.stats.walks,
            al.stats.walks,
        )
        .unwrap();
    }
    out
}

/// Figs. 9 and 10: Tukey statistics of MAE over time across all generated
/// queries, bucketed by dataset and exploration step. `distinct` selects
/// Fig. 9 (true) or Fig. 10 (false).
pub fn fig9_10(
    datasets: &[Dataset],
    workload: &[PreparedQuery],
    cfg: &BenchConfig,
    distinct: bool,
) -> String {
    let fig = if distinct { "Figure 9" } else { "Figure 10" };
    let mut out = String::new();
    writeln!(
        out,
        "## {fig} — MAE over time, all queries {} distinct, by exploration step\n",
        if distinct { "with" } else { "without" }
    )
    .unwrap();
    for (di, ds) in datasets.iter().enumerate() {
        for step in 1..=cfg.max_steps {
            let queries: Vec<&PreparedQuery> = workload
                .iter()
                .filter(|q| q.dataset == di && q.generated.step == step)
                .collect();
            if queries.is_empty() {
                continue;
            }
            writeln!(out, "### {} — step {} ({} queries)", ds.name, step, queries.len()).unwrap();
            // maes[tick][algo] = Vec of per-query MAE.
            let mut maes = vec![[Vec::new(), Vec::new()]; cfg.ticks];
            for q in &queries {
                let query =
                    if distinct { q.generated.query.clone() } else { q.generated.query.with_distinct(false) };
                let exact = if distinct { &q.exact_distinct } else { &q.exact_plain };
                for (ai, algo) in [Algo::Wj, Algo::Aj].into_iter().enumerate() {
                    let series = crate::workload::run_series(&ds.ig, &query, exact, algo, cfg);
                    for (t, p) in series.iter().enumerate() {
                        maes[t][ai].push(p.mae);
                    }
                }
            }
            writeln!(
                out,
                "{:>6} | {:>44} | {:>44}",
                "t", "WJ  (lo / q1 / med / q3 / hi)", "AJ  (lo / q1 / med / q3 / hi)"
            )
            .unwrap();
            for (t, per_algo) in maes.iter().enumerate() {
                let fmt_t = |vals: &Vec<f64>| {
                    let t = tukey(vals).expect("non-empty bucket");
                    format!(
                        "{:>7} {:>7} {:>8} {:>8} {:>8}",
                        fmt_pct(t.lo),
                        fmt_pct(t.q1),
                        fmt_pct(t.median),
                        fmt_pct(t.q3),
                        fmt_pct(t.hi)
                    )
                };
                writeln!(
                    out,
                    "{:>6} | {} | {}",
                    format!("{:.1}", (t + 1) as f64 * cfg.tick.as_secs_f64()),
                    fmt_t(&per_algo[0]),
                    fmt_t(&per_algo[1]),
                )
                .unwrap();
            }
            writeln!(out).unwrap();
        }
    }
    out
}

/// Fig. 11: per-query rejection rates of WJ and AJ, sorted descending.
pub fn fig11(datasets: &[Dataset], workload: &[PreparedQuery], cfg: &BenchConfig) -> String {
    let mut out = String::new();
    writeln!(out, "## Figure 11 — Rejection rate per query (sorted)\n").unwrap();
    let mut rates: Vec<(String, f64, f64)> = Vec::new();
    for q in workload {
        let ig = &datasets[q.dataset].ig;
        let (_, wj_stats) = crate::workload::run_fixed_walks(
            ig,
            &q.generated.query,
            &q.exact_distinct,
            Algo::Wj,
            20_000,
            cfg,
        );
        let (_, aj_stats) = crate::workload::run_fixed_walks(
            ig,
            &q.generated.query,
            &q.exact_distinct,
            Algo::Aj,
            20_000,
            cfg,
        );
        rates.push((q.id.clone(), wj_stats.rejection_rate(), aj_stats.rejection_rate()));
    }
    rates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    writeln!(out, "{:<28} {:>8} {:>8}", "query", "WJ rej", "AJ rej").unwrap();
    for (id, wj, aj) in &rates {
        writeln!(out, "{id:<28} {:>8} {:>8}", fmt_pct(*wj), fmt_pct(*aj)).unwrap();
    }
    let below = |xs: &[(String, f64, f64)], f: fn(&(String, f64, f64)) -> f64| {
        xs.iter().filter(|x| f(x) < 0.25).count()
    };
    writeln!(
        out,
        "\nqueries with rejection < 25%: WJ={} AJ={} (of {})",
        below(&rates, |x| x.1),
        below(&rates, |x| x.2),
        rates.len()
    )
    .unwrap();
    out
}

/// §V-C sample-time measurements: average and maximum wall-clock time per
/// walk for WJ and AJ (the paper reports ≈2.5 µs average, ≤20 ms max).
pub fn sample_time(datasets: &[Dataset], workload: &[PreparedQuery], cfg: &BenchConfig) -> String {
    let mut out = String::new();
    writeln!(out, "## §V-C — Per-walk sample times\n").unwrap();
    writeln!(out, "{:<28} {:>12} {:>12} {:>12} {:>12}", "query", "WJ avg", "WJ max", "AJ avg", "AJ max").unwrap();
    let mut wj_all = Vec::new();
    let mut aj_all = Vec::new();
    fn timing<A: OnlineAggregator>(agg: &mut A) -> (f64, f64) {
        run_walks(agg, 256); // warm caches
        let mut max = 0.0f64;
        let walks = 4096u64;
        let t0 = Instant::now();
        for _ in 0..walks {
            let s0 = Instant::now();
            agg.step();
            max = max.max(s0.elapsed().as_secs_f64());
        }
        (t0.elapsed().as_secs_f64() / walks as f64, max)
    }
    for q in workload.iter().take(12) {
        let ig = &datasets[q.dataset].ig;
        let (wa, wm) = {
            let mut wj = WanderJoin::new(ig, &q.generated.query, cfg.seed).expect("wj");
            timing(&mut wj)
        };
        let (aa, am) = {
            let mut aj = AuditJoin::new(
                ig,
                &q.generated.query,
                AuditJoinConfig {
                    tipping: kgoa_core::Tipping::from_threshold(cfg.tipping_threshold),
                    seed: cfg.seed,
                },
            )
            .expect("aj");
            timing(&mut aj)
        };
        wj_all.push(wa);
        aj_all.push(aa);
        writeln!(
            out,
            "{:<28} {:>12} {:>12} {:>12} {:>12}",
            q.id,
            fmt_duration(std::time::Duration::from_secs_f64(wa)),
            fmt_duration(std::time::Duration::from_secs_f64(wm)),
            fmt_duration(std::time::Duration::from_secs_f64(aa)),
            fmt_duration(std::time::Duration::from_secs_f64(am)),
        )
        .unwrap();
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    writeln!(
        out,
        "\naverage sample time: WJ={} AJ={}",
        fmt_duration(std::time::Duration::from_secs_f64(avg(&wj_all))),
        fmt_duration(std::time::Duration::from_secs_f64(avg(&aj_all))),
    )
    .unwrap();
    out
}

/// Ablation A1: sweep the tipping threshold.
pub fn ablate_tipping(datasets: &[Dataset], workload: &[PreparedQuery], cfg: &BenchConfig) -> String {
    let mut out = String::new();
    writeln!(out, "## Ablation A1 — tipping threshold sweep (MAE and rejection after {} walks)\n", 20_000).unwrap();
    let thresholds = [0.0, 64.0, 1024.0, 16_384.0, f64::INFINITY];
    writeln!(out, "{:<12} {:>10} {:>10} {:>10}", "threshold", "mean MAE", "mean rej", "tipped").unwrap();
    for thr in thresholds {
        let mut cfg = *cfg;
        cfg.tipping_threshold = thr;
        let mut maes = Vec::new();
        let mut rejs = Vec::new();
        let mut tipped = 0u64;
        let mut walks = 0u64;
        for q in workload.iter().take(16) {
            let ig = &datasets[q.dataset].ig;
            let (mae, stats) = crate::workload::run_fixed_walks(
                ig,
                &q.generated.query,
                &q.exact_distinct,
                Algo::Aj,
                20_000,
                &cfg,
            );
            maes.push(mae);
            rejs.push(stats.rejection_rate());
            tipped += stats.tipped;
            walks += stats.walks;
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>10}",
            if thr.is_infinite() { "inf".to_owned() } else { format!("{thr}") },
            fmt_pct(avg(&maes)),
            fmt_pct(avg(&rejs)),
            fmt_pct(tipped as f64 / walks.max(1) as f64),
        )
        .unwrap();
    }
    out
}

/// Ablation A2: CTJ vs LFTJ exact runtimes (the value of the cache).
///
/// Two workloads: (a) grouped distinct counts on the Fig. 8 queries, where
/// both engines must enumerate distinct pairs and the cache only helps at
/// the margins; (b) *path counting* (join size) over property chains —
/// Example IV.1's diamond effect, where CTJ's memoized suffix counts
/// collapse the enumeration and LFTJ recomputes shared suffixes per path.
pub fn ablate_cache(datasets: &[Dataset], workload: &[PreparedQuery]) -> String {
    use kgoa_engine::{ctj_count, lftj_count};
    use kgoa_query::{ExplorationQuery, TriplePattern, Var};

    let mut out = String::new();
    writeln!(out, "## Ablation A2 — Cached Trie Join vs LeapFrog Trie Join\n").unwrap();
    writeln!(out, "### (a) grouped distinct counts (Fig. 8 queries)\n").unwrap();
    writeln!(out, "{:<40} {:>10} {:>10} {:>8}", "query", "LFTJ", "CTJ", "speedup").unwrap();
    for (label, di, query) in fig8_queries(datasets, workload) {
        let ig = &datasets[di].ig;
        let t0 = Instant::now();
        let a = LftjEngine.evaluate(ig, &query).expect("lftj");
        let t_lftj = t0.elapsed();
        let t0 = Instant::now();
        let b = CtjEngine.evaluate(ig, &query).expect("ctj");
        let t_ctj = t0.elapsed();
        assert_eq!(a, b, "engines disagree on {label}");
        writeln!(
            out,
            "{:<40} {:>10} {:>10} {:>7.1}x",
            label,
            fmt_duration(t_lftj),
            fmt_duration(t_ctj),
            t_lftj.as_secs_f64() / t_ctj.as_secs_f64().max(1e-9),
        )
        .unwrap();
    }

    writeln!(out, "\n### (b) path counting — join size of k-hop chains over the top predicate\n").unwrap();
    writeln!(out, "{:<40} {:>14} {:>10} {:>10} {:>8}", "query", "|Γ|", "LFTJ", "CTJ", "speedup").unwrap();
    for ds in datasets {
        // The predicate with the most entity-to-entity edges.
        let pso = ds.ig.require(kgoa_index::IndexOrder::Pso);
        let vocab = ds.ig.vocab();
        let Some((top_p, _)) = pso
            .iter_l0()
            .filter(|(p, _)| {
                *p != vocab.rdf_type.raw()
                    && *p != vocab.subclass_of.raw()
                    && *p != vocab.subclass_of_trans.raw()
            })
            .max_by_key(|(_, r)| r.len())
        else {
            continue;
        };
        let top_p = kgoa_rdf::TermId(top_p);
        for hops in [2usize, 3] {
            let patterns: Vec<TriplePattern> = (0..hops)
                .map(|i| TriplePattern::new(Var(i as u16), top_p, Var(i as u16 + 1)))
                .collect();
            let query =
                ExplorationQuery::new(patterns, Var(hops as u16), Var(0), false).expect("chain");
            let t0 = Instant::now();
            let n_ctj = ctj_count(&ds.ig, &query).expect("ctj count");
            let t_ctj = t0.elapsed();
            let t0 = Instant::now();
            let n_lftj = lftj_count(&ds.ig, &query).expect("lftj count");
            let t_lftj = t0.elapsed();
            assert_eq!(n_ctj, n_lftj, "path counts disagree");
            writeln!(
                out,
                "{:<40} {:>14} {:>10} {:>10} {:>7.1}x",
                format!("{}: {}-hop chain", ds.name, hops),
                n_ctj,
                fmt_duration(t_lftj),
                fmt_duration(t_ctj),
                t_lftj.as_secs_f64() / t_ctj.as_secs_f64().max(1e-9),
            )
            .unwrap();
        }
    }

    // (c) The Example IV.1 regime: many paths meet at shared nodes, so the
    // suffix below each node is recomputed per incoming path by LFTJ but
    // cached once by CTJ. A layered graph with dense bipartite hops makes
    // the effect extreme: |Γ| grows as widthᵏ while CTJ's DP stays linear.
    writeln!(out, "\n### (c) diamond counting (Example IV.1): layered hub graph, width 40\n").unwrap();
    writeln!(out, "{:<40} {:>14} {:>10} {:>10} {:>8}", "query", "|Γ|", "LFTJ", "CTJ", "speedup").unwrap();
    let mut b = kgoa_rdf::GraphBuilder::new();
    let p = b.dict_mut().intern_iri("urn:bench:hop");
    const WIDTH: usize = 40;
    const LAYERS: usize = 5;
    let layers: Vec<Vec<kgoa_rdf::TermId>> = (0..LAYERS)
        .map(|l| {
            (0..WIDTH).map(|i| b.dict_mut().intern_iri(format!("urn:bench:n{l}_{i}"))).collect()
        })
        .collect();
    for l in 0..LAYERS - 1 {
        for &from in &layers[l] {
            for &to in &layers[l + 1] {
                b.add(kgoa_rdf::Triple::new(from, p, to));
            }
        }
    }
    let hub = kgoa_index::IndexedGraph::build(b.build());
    for hops in [2usize, 3, 4] {
        let patterns: Vec<TriplePattern> = (0..hops)
            .map(|i| TriplePattern::new(Var(i as u16), p, Var(i as u16 + 1)))
            .collect();
        let query = ExplorationQuery::new(patterns, Var(hops as u16), Var(0), false).expect("chain");
        let t0 = Instant::now();
        let n_ctj = ctj_count(&hub, &query).expect("ctj count");
        let t_ctj = t0.elapsed();
        let t0 = Instant::now();
        let n_lftj = lftj_count(&hub, &query).expect("lftj count");
        let t_lftj = t0.elapsed();
        assert_eq!(n_ctj, n_lftj, "diamond counts disagree");
        writeln!(
            out,
            "{:<40} {:>14} {:>10} {:>10} {:>7.1}x",
            format!("hub: {hops}-hop chain"),
            n_ctj,
            fmt_duration(t_lftj),
            fmt_duration(t_ctj),
            t_lftj.as_secs_f64() / t_ctj.as_secs_f64().max(1e-9),
        )
        .unwrap();
    }
    out
}

/// Ablation A3: Wander Join walk-order selection (best vs worst order).
pub fn ablate_order(datasets: &[Dataset], workload: &[PreparedQuery], cfg: &BenchConfig) -> String {
    let mut out = String::new();
    writeln!(out, "## Ablation A3 — WJ walk-order selection (MAE after 20k walks)\n").unwrap();
    writeln!(out, "{:<28} {:>10} {:>10} {:>8}", "query", "best", "worst", "orders").unwrap();
    for q in workload.iter().take(12) {
        let ig = &datasets[q.dataset].ig;
        let scores =
            kgoa_core::score_orders(ig, &q.generated.query, 2_000, cfg.seed).expect("scores");
        let mut maes: Vec<f64> = Vec::new();
        for s in &scores {
            let plan = kgoa_query::WalkPlan::build(
                &q.generated.query,
                &s.order,
                &kgoa_index::IndexOrder::PAPER_DEFAULT,
            )
            .expect("plan");
            let mut wj =
                WanderJoin::with_plan(ig, &q.generated.query, plan, cfg.seed).expect("wj");
            run_walks(&mut wj, 20_000);
            maes.push(kgoa_engine::mean_absolute_error(&q.exact_distinct, &wj.estimates()));
        }
        let best = maes.iter().cloned().fold(f64::INFINITY, f64::min);
        let worst = maes.iter().cloned().fold(0.0f64, f64::max);
        writeln!(
            out,
            "{:<28} {:>10} {:>10} {:>8}",
            q.id,
            fmt_pct(best),
            fmt_pct(worst),
            scores.len()
        )
        .unwrap();
    }
    out
}

/// Robustness experiment: the supervisor's exact → approximate
/// degradation ladder across a sweep of deadlines. Short deadlines must
/// degrade to Audit Join estimates (with confidence intervals and a
/// provenance record); generous deadlines must come back exact. Either
/// way the user gets an answer — the column to watch is how the error
/// budget shrinks as the latency budget grows.
pub fn deadline_sweep(
    datasets: &[Dataset],
    workload: &[PreparedQuery],
    cfg: &BenchConfig,
) -> String {
    use kgoa_core::{supervise, SupervisedResult, SupervisorConfig};
    let mut out = String::new();
    writeln!(out, "## Robustness — supervised execution under a deadline sweep\n").unwrap();
    let Some(q) = workload.iter().max_by_key(|q| q.generated.step) else {
        return out;
    };
    let ig = &datasets[q.dataset].ig;
    writeln!(out, "query: {}", q.id).unwrap();
    writeln!(
        out,
        "{:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "deadline", "outcome", "elapsed", "walks", "MAE", "CI"
    )
    .unwrap();
    for ms in [1u64, 5, 20, 50, 200, 1000] {
        let config = SupervisorConfig {
            deadline: Duration::from_millis(ms),
            audit: AuditJoinConfig {
                tipping: kgoa_core::Tipping::from_threshold(cfg.tipping_threshold),
                seed: cfg.seed,
            },
            ..SupervisorConfig::default()
        };
        match supervise(ig, &q.generated.query, &config) {
            Ok(SupervisedResult::Exact { counts, elapsed }) => {
                assert_eq!(counts, q.exact_distinct, "supervised exact must match ground truth");
                writeln!(
                    out,
                    "{:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
                    format!("{ms}ms"),
                    "exact",
                    fmt_duration(elapsed),
                    "-",
                    "0%",
                    "-"
                )
                .unwrap();
            }
            Ok(SupervisedResult::Degraded { estimates, provenance }) => {
                writeln!(
                    out,
                    "{:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
                    format!("{ms}ms"),
                    provenance.estimator,
                    fmt_duration(provenance.elapsed),
                    provenance.walks,
                    fmt_pct(kgoa_engine::mean_absolute_error(&q.exact_distinct, &estimates)),
                    fmt_pct(kgoa_engine::mean_ci_width(&q.exact_distinct, &estimates)),
                )
                .unwrap();
            }
            Err(e) => {
                writeln!(out, "{:>10} {:>10}   {e}", format!("{ms}ms"), "error").unwrap();
            }
        }
    }
    out
}

/// Sanity experiment: all exact engines agree on the whole workload. The
/// fast engines (CTJ, Yannakakis) are checked on every query; the
/// enumeration-bound engines (LFTJ, baseline) only where the plain join
/// size stays below a budget — at benchmark scales a cache-less
/// worst-case-optimal join on a heavy exploration query runs for minutes,
/// which is the very effect the ablations measure.
pub fn verify_engines(datasets: &[Dataset], workload: &[PreparedQuery]) -> String {
    const ENUMERATION_BUDGET: u64 = 2_000_000;
    let mut out = String::new();
    writeln!(out, "## Engine agreement check\n").unwrap();
    let mut checked = 0;
    let mut enumerated = 0;
    for q in workload {
        let ig = &datasets[q.dataset].ig;
        let reference = CtjEngine.evaluate(ig, &q.generated.query).expect("ctj");
        assert_eq!(reference, q.exact_distinct, "ctj disagrees on {}", q.id);
        let yann = YannakakisEngine.evaluate(ig, &q.generated.query).expect("yannakakis");
        assert_eq!(reference, yann, "yannakakis disagrees on {}", q.id);
        if q.exact_plain.total() <= ENUMERATION_BUDGET {
            let slow: Vec<Box<dyn CountEngine>> =
                vec![Box::new(LftjEngine), Box::new(BaselineEngine::default())];
            for e in &slow {
                match e.evaluate(ig, &q.generated.query) {
                    Ok(r) => assert_eq!(r, reference, "{} disagrees on {}", e.name(), q.id),
                    Err(EngineError::IntermediateResultLimit { .. }) => {}
                    Err(e) => panic!("engine failure on {}: {e}", q.id),
                }
            }
            enumerated += 1;
        }
        checked += 1;
    }
    writeln!(
        out,
        "all engines agree: {checked} queries (CTJ vs Yannakakis), {enumerated} also via LFTJ + baseline ✔"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{load_datasets, prepare_workload};
    use kgoa_datagen::Scale;
    use std::time::Duration;

    fn tiny() -> (Vec<Dataset>, Vec<PreparedQuery>, BenchConfig) {
        let cfg = BenchConfig {
            scale: Scale::Tiny,
            ticks: 2,
            tick: Duration::from_millis(10),
            runs: 2,
            max_steps: 2,
            wj_order_trials: 50,
            ..BenchConfig::default()
        };
        let datasets = load_datasets(cfg.scale);
        let workload = prepare_workload(&datasets, &cfg);
        (datasets, workload, cfg)
    }

    #[test]
    fn table1_reports_both_datasets() {
        let (datasets, _, _) = tiny();
        let t = table1(&datasets);
        assert!(t.contains("dbpedia-like"));
        assert!(t.contains("lgd-like"));
        assert!(t.contains("dictionary memory"));
        for ds in &datasets {
            let row = t.lines().find(|l| l.starts_with(ds.name)).expect("a row");
            let bytes = ds.ig.dict().heap_bytes();
            assert!(bytes > 0);
            assert!(row.ends_with(&format!(" {:.1} MB", bytes as f64 / 1e6)), "{row}");
        }
    }

    #[test]
    fn fig8_selects_six_queries_and_reports() {
        let (datasets, workload, cfg) = tiny();
        let qs = fig8_queries(&datasets, &workload);
        assert!(qs.len() >= 4, "expected ≥2 queries per dataset, got {}", qs.len());
        let report = fig8(&datasets, &workload, &cfg);
        assert!(report.contains("out-property(Thing)"));
        assert!(report.contains("WJ MAE"));
    }

    #[test]
    fn fig9_and_10_report_tukey_rows() {
        let (datasets, workload, cfg) = tiny();
        let r9 = fig9_10(&datasets, &workload, &cfg, true);
        assert!(r9.contains("Figure 9"));
        assert!(r9.contains("step 1"));
        let r10 = fig9_10(&datasets, &workload, &cfg, false);
        assert!(r10.contains("Figure 10"));
    }

    #[test]
    fn fig11_reports_rates() {
        let (datasets, workload, cfg) = tiny();
        let r = fig11(&datasets, &workload[..workload.len().min(4)], &cfg);
        assert!(r.contains("rejection"));
    }

    #[test]
    fn engines_agree_on_workload() {
        let (datasets, workload, _) = tiny();
        let r = verify_engines(&datasets, &workload);
        assert!(r.contains("agree"));
    }

    #[test]
    fn deadline_sweep_reports_every_deadline() {
        let (datasets, workload, cfg) = tiny();
        let r = deadline_sweep(&datasets, &workload, &cfg);
        assert!(r.contains("deadline"));
        for ms in ["1ms", "5ms", "20ms", "50ms", "200ms", "1000ms"] {
            assert!(r.contains(ms), "missing row for {ms}:\n{r}");
        }
    }
}
