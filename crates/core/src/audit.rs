//! Audit Join — the paper's contribution (§IV-D, Fig. 7).
//!
//! Audit Join runs Wander Join's random walk, but after every step it
//! estimates (PostgreSQL-style, precomputed per plan) how many completions
//! the current prefix δ can have. When that estimate drops below the
//! *tipping threshold*, the walk stops and the remaining suffix is computed
//! **exactly** with Cached Trie Join; the estimator
//! `C_aj(δ) = |Γ_δ| / Pr(δ)` remains unbiased (Prop. IV.1), and the caches
//! persist across walks so repeated prefixes get cheaper over time. The
//! exact suffix is [`CtjCounter`]'s: a tipped walk hands it the tip step,
//! the range the walk loop already resolved and the batch's budget meter,
//! and reads back per-group counts ([`CtjCounter::group_counts_from`]) or
//! per-(a, b) masses ([`CtjCounter::pair_masses_from`]); this module
//! enumerates no suffix itself.
//!
//! For count-distinct, the walk's contribution to group `a` is
//! `Σ_b Pr(a,b,δ) / (Pr(a,b) · Pr(δ))` (Eq. 1 / Fig. 7 line 13), which this
//! implementation evaluates as `Σ_b M_δ(a,b) / Pr(a,b)` where `M_δ(a,b)` is
//! the exact probability mass of walk suffixes from δ that realize `(a,b)`
//! — the `Pr(δ)` factor cancels. `Pr(a,b)` is computed online and cached
//! (see [`crate::pinned::PrAb`]); Prop. IV.2 shows the estimator is
//! unbiased.

use kgoa_engine::{BudgetExceeded, BudgetMeter, CtjCounter, ExecBudget};
use kgoa_index::{FxHashMap, IndexedGraph, LiveRange, TrieIndex};
use kgoa_query::{ExplorationQuery, QueryError, SuffixEstimator, Var, WalkPlan};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::accum::{GroupAccumulator, WalkStats};
use crate::online::OnlineAggregator;
use crate::pinned::{PrAb, PrAbStats};

/// The paper's static tipping threshold (§V-B).
pub const DEFAULT_TIPPING_THRESHOLD: f64 = 1024.0;

/// Tipping-point policy for an Audit Join run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tipping {
    /// Tip when the estimated suffix completions fall strictly below this
    /// fixed threshold (Fig. 7 line 11).
    Static(f64),
    /// Never tip: pure random walks with the unbiased distinct estimator
    /// (Wander Join's walk with Audit Join's accumulator).
    Off,
}

impl Default for Tipping {
    fn default() -> Self {
        Tipping::Static(DEFAULT_TIPPING_THRESHOLD)
    }
}

impl Tipping {
    /// The historical scalar encoding (bench configs, CLI flags): `0.0`
    /// means no tipping, anything else a static threshold.
    pub fn from_threshold(threshold: f64) -> Self {
        if threshold == 0.0 {
            Tipping::Off
        } else {
            Tipping::Static(threshold)
        }
    }

    /// The threshold a run tips at. `Off` maps to `0.0`: the tipping
    /// comparison is strict (`est_rem < threshold`) and the estimate is
    /// never negative, so a zero threshold never fires.
    pub fn threshold(self) -> f64 {
        match self {
            Tipping::Static(t) => t,
            Tipping::Off => 0.0,
        }
    }
}

/// Configuration for an Audit Join run.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditJoinConfig {
    /// Tipping-point policy. The default ([`Tipping::Static`] at
    /// [`DEFAULT_TIPPING_THRESHOLD`]) reproduces the paper's setup.
    pub tipping: Tipping,
    /// RNG seed.
    pub seed: u64,
}

/// An Audit Join run over one query.
pub struct AuditJoin<'g> {
    /// Shared so parallel workers reuse one plan instead of deep-cloning.
    plan: std::sync::Arc<WalkPlan>,
    /// Per-step index, resolved once at construction (hoists the order
    /// lookup out of the walk loop).
    step_index: Vec<&'g TrieIndex>,
    /// Per-step constant range for steps with no in-variable.
    fixed_ranges: Vec<Option<LiveRange>>,
    est: SuffixEstimator,
    counter: CtjCounter<'g>,
    prab: PrAb<'g>,
    distinct: bool,
    alpha: Var,
    beta: Var,
    /// The tipping threshold (`0.0` under [`Tipping::Off`]).
    threshold: f64,
    assignment: Vec<u32>,
    accum: GroupAccumulator,
    stats: WalkStats,
    /// Per-plan-step walk arrivals (walks that reached the step).
    step_visits: Vec<u64>,
    /// Per-plan-step dead ends (walks that died sampling the step).
    step_rejects: Vec<u64>,
    /// Per-plan-step tip events (walk replaced by exact CTJ *before*
    /// sampling this step) — the distribution `AJ_TIP_STEP` aggregates
    /// globally, localised to this run.
    step_tips: Vec<u64>,
    rng: SmallRng,
    // Per-walk scratch buffers (cleared each walk, reused to avoid
    // allocation on the hot path).
    masses: FxHashMap<u64, f64>,
    /// A tipped walk's `(pack2(a, b), M(a,b) / Pr(a,b))` terms in key
    /// order, so a group's sum never depends on the hasher.
    terms: Vec<(u64, f64)>,
    /// A tipped non-distinct walk's per-group `|Γ_{δ,a}|`.
    group_counts: FxHashMap<u32, u64>,
    /// SoA scratch of the walk loop (empty until the first batch).
    batch: crate::batch::BatchScratch,
}

impl<'g> AuditJoin<'g> {
    /// Create a run using the canonical walk order.
    pub fn new(
        ig: &'g IndexedGraph,
        query: &ExplorationQuery,
        config: AuditJoinConfig,
    ) -> Result<Self, QueryError> {
        let plan = WalkPlan::canonical(query, &kgoa_index::IndexOrder::PAPER_DEFAULT)?;
        Self::with_plan(ig, query, plan, config)
    }

    /// Create a run with an explicit walk plan.
    pub fn with_plan(
        ig: &'g IndexedGraph,
        query: &ExplorationQuery,
        plan: impl Into<std::sync::Arc<WalkPlan>>,
        config: AuditJoinConfig,
    ) -> Result<Self, QueryError> {
        let plan = plan.into();
        let est = SuffixEstimator::new(ig, query, &plan);
        let counter = CtjCounter::new(ig, std::sync::Arc::clone(&plan));
        let prab = PrAb::new(ig, query.clone(), std::sync::Arc::clone(&plan));
        let n = plan.len();
        let (step_index, fixed_ranges) = crate::batch::resolve_steps(ig, &plan);
        let threshold = config.tipping.threshold();
        Ok(AuditJoin {
            step_index,
            fixed_ranges,
            est,
            counter,
            prab,
            distinct: query.distinct(),
            alpha: query.alpha(),
            beta: query.beta(),
            threshold,
            assignment: vec![0u32; query.var_count()],
            plan,
            accum: GroupAccumulator::new(),
            stats: WalkStats::default(),
            step_visits: vec![0; n],
            step_rejects: vec![0; n],
            step_tips: vec![0; n],
            rng: SmallRng::seed_from_u64(config.seed),
            masses: FxHashMap::default(),
            terms: Vec::new(),
            group_counts: FxHashMap::default(),
            batch: crate::batch::BatchScratch::default(),
        })
    }

    /// The raw per-group accumulator (used by the parallel runner).
    pub fn accumulator(&self) -> &GroupAccumulator {
        &self.accum
    }

    /// Cache statistics of the underlying CTJ computations.
    pub fn cache_stats(&self) -> kgoa_engine::CacheStats {
        self.counter.cache_stats()
    }

    /// Work counters of the `Pr(a, b)` layer.
    pub fn prab_stats(&self) -> PrAbStats {
        self.prab.stats()
    }

    /// Per-step `(visits, dead_ends, tips)` counters, indexed by
    /// walk-plan step. A tip at step `i` means the walk was replaced by
    /// an exact CTJ suffix computation *before* sampling step `i`.
    pub fn step_stats(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        (0..self.plan.len())
            .map(|i| (self.step_visits[i], self.step_rejects[i], self.step_tips[i]))
    }

    /// Walk completed: δ is a full path. The online `Pr(a, b)` computation
    /// for an uncached pair ticks the batch's meter (nothing is accumulated
    /// when it trips, so the aborted walk contributes nothing).
    fn finish_full(
        &mut self,
        prob_inv: f64,
        meter: &mut BudgetMeter,
    ) -> Result<(), BudgetExceeded> {
        let a = self.assignment[self.alpha.index()];
        if self.distinct {
            let b = self.assignment[self.beta.index()];
            let pr = self.prab.try_pr(a, b, meter)?;
            debug_assert!(pr > 0.0, "completed walk implies Pr(a,b) > 0");
            self.accum.add(a, 1.0 / pr);
        } else {
            self.accum.add(a, prob_inv);
        }
        Ok(())
    }

    /// Tipping point reached before step `step`, whose range under the
    /// walk's bindings the walk loop already resolved: replace the
    /// remaining walk with an exact computation that ticks the batch's
    /// meter (nothing has been accumulated when it trips, so an aborted
    /// walk contributes nothing). Returns whether anything was contributed;
    /// an empty `range` has no completions, so nothing is.
    fn finish_tipped(
        &mut self,
        step: usize,
        range: LiveRange,
        prob_inv: f64,
        meter: &mut BudgetMeter,
    ) -> Result<bool, BudgetExceeded> {
        if range.is_empty() {
            return Ok(false);
        }
        if self.distinct {
            self.masses.clear();
            self.counter.pair_masses_from(
                self.alpha,
                self.beta,
                step,
                Some(range),
                1.0,
                &mut self.assignment,
                meter,
                &mut self.masses,
            )?;
            if self.masses.is_empty() {
                return Ok(false);
            }
            self.terms.clear();
            self.terms.extend(self.masses.iter().map(|(&key, &m)| (key, m)));
            self.terms.sort_unstable_by_key(|&(key, _)| key);
            for (key, m) in &mut self.terms {
                let pr = self.prab.try_pr((*key >> 32) as u32, *key as u32, meter)?;
                debug_assert!(pr > 0.0);
                *m /= pr;
            }
            // One accumulator sample per group: sum the per-(a, b) terms
            // first so the confidence-interval bookkeeping sees a single
            // sample per walk. Sorted keys keep a group's terms adjacent.
            let mut rest = self.terms.as_slice();
            while let Some(&(key, _)) = rest.first() {
                let a = (key >> 32) as u32;
                let run = rest.partition_point(|&(k, _)| (k >> 32) as u32 == a);
                let mut x = 0.0;
                for &(_, t) in &rest[..run] {
                    x += t;
                }
                self.accum.add(a, x);
                rest = &rest[run..];
            }
            Ok(true)
        } else {
            self.group_counts.clear();
            let alpha = self.alpha.index();
            let group_counts = &mut self.group_counts;
            self.counter.group_counts_from(
                self.alpha,
                step,
                Some(range),
                &mut self.assignment,
                meter,
                |asg, c| *group_counts.entry(asg[alpha]).or_insert(0) += c,
            )?;
            if self.group_counts.is_empty() {
                return Ok(false);
            }
            for (&a, &c) in self.group_counts.iter() {
                self.accum.add(a, c as f64 * prob_inv);
            }
            Ok(true)
        }
    }

    /// The walk loop (lines 5–20 of Fig. 7 for `n` walks at once): the
    /// admitted walks advance one plan step at a time, each step's RNG
    /// words drawn in one refill in walk order (a step-major stream), then
    /// each survivor's next range resolved by one index lookup. The budget is
    /// checked once per plan step, and every exact computation of the
    /// batch — tipped suffixes and `Pr(a, b)` — ticks one shared
    /// [`BudgetMeter`], which checks at its first tick and then once per
    /// stride, so even a cold cache cannot overshoot a deadline by more
    /// than one stride. A trip loses only the walks still in flight: they
    /// are not counted and contribute nothing, so the estimator stays
    /// unbiased over the walks of the batch that had already finished.
    fn walk_batch_core(
        &mut self,
        budget: &ExecBudget,
        n: usize,
        bs: &mut crate::batch::BatchScratch,
    ) -> Result<(), BudgetExceeded> {
        let vc = self.plan.var_count();
        let steps_n = self.plan.len();
        let mut meter = budget.meter();
        bs.reset(n, vc);
        // Step 0 has no in-binding, so its range is one of the constants.
        bs.ranges.fill(self.fixed_ranges[0].expect("step 0 has no in-variable"));
        bs.next_ranges.resize(n, LiveRange::EMPTY);
        let mut live = n as u64;
        for i in 0..steps_n {
            if live == 0 {
                break;
            }
            budget.check()?;
            self.step_visits[i] += live;
            let dead = bs.sample_step(&self.plan, i, self.step_index[i], &mut self.rng);
            live -= dead;
            self.step_rejects[i] += dead;
            self.stats.walks += dead;
            self.stats.rejected += dead;
            if i + 1 == steps_n {
                for w in 0..n {
                    if !bs.alive[w] {
                        continue;
                    }
                    bs.alive[w] = false;
                    self.assignment.copy_from_slice(&bs.assignments[w * vc..(w + 1) * vc]);
                    self.finish_full(bs.weights[w], &mut meter)?;
                    self.stats.walks += 1;
                    self.stats.full += 1;
                }
                break;
            }
            // Resolve every survivor's next range, then tip the walks whose
            // estimated completions fall below the threshold; the rest
            // carry their range forward.
            crate::batch::resolve_step_ranges(
                self.step_index[i + 1],
                &self.plan.steps()[i + 1],
                self.fixed_ranges[i + 1],
                &bs.assignments,
                vc,
                &bs.alive,
                &mut bs.next_ranges,
            );
            for w in 0..n {
                if !bs.alive[w] {
                    continue;
                }
                // Tipping point (Fig. 7 line 11): estimated completions of
                // the remaining suffix, using the exact next fan-out.
                let next = bs.next_ranges[w];
                let est_rem = self.est.remaining(i + 1, next.len() as u64);
                if est_rem < self.threshold {
                    self.assignment.copy_from_slice(&bs.assignments[w * vc..(w + 1) * vc]);
                    let contributed =
                        self.finish_tipped(i + 1, next, bs.weights[w], &mut meter)?;
                    self.stats.walks += 1;
                    if contributed {
                        self.stats.tipped += 1;
                        self.step_tips[i + 1] += 1;
                    } else {
                        self.stats.rejected += 1;
                        self.step_rejects[i + 1] += 1;
                    }
                    bs.alive[w] = false;
                    live -= 1;
                } else {
                    bs.ranges[w] = next;
                }
            }
        }
        Ok(())
    }
}

impl OnlineAggregator for AuditJoin<'_> {
    fn name(&self) -> &'static str {
        "aj"
    }

    /// The batch is charged as one [`ExecBudget::charge_walks`] call
    /// (possibly admitting fewer than `n`).
    fn step_batch_governed(
        &mut self,
        budget: &ExecBudget,
        n: u64,
    ) -> Result<u64, BudgetExceeded> {
        if n == 0 {
            return Ok(0);
        }
        budget.fault_walks(n);
        let admitted = budget.charge_walks(n)?;
        // The finishers borrow all of `self`, so the scratch steps outside
        // for the batch.
        let mut bs = std::mem::take(&mut self.batch);
        let result = self.walk_batch_core(budget, admitted as usize, &mut bs);
        self.batch = bs;
        result.map(|()| admitted)
    }

    fn estimates(&self) -> kgoa_engine::GroupedEstimates {
        self.accum.estimates(self.stats.walks)
    }

    fn stats(&self) -> WalkStats {
        self.stats
    }

    /// Emit this run's walk-phase attribution into the active profile
    /// scope (no-op when none): one `aj.walks` span with per-step
    /// accept/reject/tip leaves, an `aj.pr_ab` leaf with the `Pr(a, b)`
    /// layer's counters, and an `aj.exact_suffix` child carrying the
    /// per-node cache stats of the CTJ substrate the tipped walks
    /// delegated to.
    fn profile_emit(&self) {
        if !kgoa_obs::profile::active() {
            return;
        }
        let span = kgoa_obs::profile::span("aj.walks");
        kgoa_obs::profile::add("walks", self.stats.walks);
        kgoa_obs::profile::add("full", self.stats.full);
        kgoa_obs::profile::add("rejected", self.stats.rejected);
        kgoa_obs::profile::add("tipped", self.stats.tipped);
        for (i, step) in self.plan.steps().iter().enumerate() {
            kgoa_obs::profile::leaf(
                format!("aj.step{i}[p{}]", step.pattern_idx),
                &[
                    ("visits", self.step_visits[i]),
                    ("dead_ends", self.step_rejects[i]),
                    ("tips", self.step_tips[i]),
                ],
            );
        }
        let pr = self.prab.stats();
        kgoa_obs::profile::leaf(
            "aj.pr_ab",
            &[
                ("plans", pr.plans),
                ("pairs", pr.pairs),
                ("hits", pr.hits),
                ("rows", pr.rows),
                ("seeks", pr.seeks),
            ],
        );
        {
            let suffix = kgoa_obs::profile::span("aj.exact_suffix");
            self.counter.profile_emit();
            drop(suffix);
        }
        drop(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::run_walks;
    use kgoa_engine::{CountEngine, YannakakisEngine};
    use kgoa_query::TriplePattern;
    use kgoa_rdf::{GraphBuilder, TermId, Triple};

    /// Skewed two-hop graph: many sources, duplicated reaches, two classes.
    fn graph() -> (IndexedGraph, TermId, TermId) {
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let classes: Vec<TermId> =
            (0..3).map(|i| b.dict_mut().intern_iri(format!("u:c{i}"))).collect();
        let objs: Vec<TermId> =
            (0..8).map(|i| b.dict_mut().intern_iri(format!("u:o{i}"))).collect();
        for si in 0..20u32 {
            let s = b.dict_mut().intern_iri(format!("u:s{si}"));
            for (oi, o) in objs.iter().enumerate() {
                if (si as usize + oi).is_multiple_of(3) {
                    b.add(Triple::new(s, p, *o));
                }
            }
        }
        for (oi, o) in objs.iter().enumerate() {
            // Objects 0..6 have classes; 6, 7 are dead ends (rejections!).
            if oi < 6 {
                b.add(Triple::new(*o, q, classes[oi % 3]));
            }
        }
        (IndexedGraph::build(b.build()), p, q)
    }

    fn query(p: TermId, q: TermId, distinct: bool) -> ExplorationQuery {
        ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
            ],
            Var(2),
            Var(1),
            distinct,
        )
        .unwrap()
    }

    fn check_convergence(distinct: bool, threshold: f64, walks: u64, tol: f64) {
        let (ig, p, q) = graph();
        let query = query(p, q, distinct);
        let exact = YannakakisEngine.evaluate(&ig, &query).unwrap();
        assert!(!exact.is_empty());
        let mut aj = AuditJoin::new(
            &ig,
            &query,
            AuditJoinConfig { tipping: Tipping::from_threshold(threshold), seed: 11 },
        )
        .unwrap();
        run_walks(&mut aj, walks);
        let est = aj.estimates();
        for (g, c) in exact.iter() {
            let rel = (est.get(g) - c as f64).abs() / c as f64;
            assert!(
                rel < tol,
                "distinct={distinct} thr={threshold} group {g}: est {} vs exact {c}",
                est.get(g)
            );
        }
    }

    #[test]
    fn non_distinct_converges_with_tipping() {
        check_convergence(false, 1024.0, 20_000, 0.05);
    }

    #[test]
    fn non_distinct_converges_without_tipping() {
        check_convergence(false, 0.0, 60_000, 0.05);
    }

    #[test]
    fn distinct_converges_with_tipping() {
        check_convergence(true, 1024.0, 20_000, 0.05);
    }

    #[test]
    fn distinct_converges_without_tipping() {
        check_convergence(true, 0.0, 60_000, 0.08);
    }

    /// Three-hop graph with heavy dead-ending in the last hop: one source
    /// -p-> 20 objects, each object -q-> 5 mids, but only 1 mid in 5 has an
    /// -r-> edge to a class. A Wander Join walk dies ~80% of the time at
    /// the last step; Audit Join tips after the second step and computes
    /// the surviving completions exactly.
    fn deep_graph() -> (IndexedGraph, TermId, TermId, TermId) {
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let r = b.dict_mut().intern_iri("u:r");
        let s = b.dict_mut().intern_iri("u:s");
        let classes: Vec<TermId> =
            (0..2).map(|i| b.dict_mut().intern_iri(format!("u:c{i}"))).collect();
        for oi in 0..20u32 {
            let o = b.dict_mut().intern_iri(format!("u:o{oi}"));
            b.add(Triple::new(s, p, o));
            for mi in 0..5u32 {
                let m = b.dict_mut().intern_iri(format!("u:m{oi}_{mi}"));
                b.add(Triple::new(o, q, m));
                if mi == 0 {
                    b.add(Triple::new(m, r, classes[(oi % 2) as usize]));
                }
            }
        }
        (IndexedGraph::build(b.build()), p, q, r)
    }

    fn deep_query(p: TermId, q: TermId, r: TermId, distinct: bool) -> ExplorationQuery {
        ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
                TriplePattern::new(Var(2), r, Var(3)),
            ],
            Var(3),
            Var(2),
            distinct,
        )
        .unwrap()
    }

    #[test]
    fn high_threshold_converges_fast() {
        let (ig, p, q, r) = deep_graph();
        let query = deep_query(p, q, r, true);
        let exact = YannakakisEngine.evaluate(&ig, &query).unwrap();
        let mut aj = AuditJoin::new(
            &ig,
            &query,
            AuditJoinConfig { tipping: Tipping::Static(f64::INFINITY), seed: 1 },
        )
        .unwrap();
        // With an infinite threshold every walk tips right after its first
        // step and computes the remainder exactly — only the first-step
        // randomness (which of the 20 objects was picked) is left, so the
        // estimator converges at the rate of that single Bernoulli split
        // (relative sd = 1/√n) instead of fighting the ~80% dead-end rate.
        run_walks(&mut aj, 10_000);
        let est = aj.estimates();
        for (g, c) in exact.iter() {
            let rel = (est.get(g) - c as f64).abs() / c as f64;
            assert!(rel < 0.05, "group {g}: est {} vs exact {c}", est.get(g));
        }
        assert_eq!(aj.stats().tipped, 10_000);
        assert_eq!(aj.stats().rejected, 0);
    }

    #[test]
    fn tipping_reduces_rejections() {
        let (ig, p, q, r) = deep_graph();
        let query = deep_query(p, q, r, false);
        let mk = |thr: f64| {
            let mut aj = AuditJoin::new(
                &ig,
                &query,
                AuditJoinConfig { tipping: Tipping::from_threshold(thr), seed: 5 },
            )
            .unwrap();
            run_walks(&mut aj, 4000);
            aj.stats().rejection_rate()
        };
        let rr_wj_like = mk(0.0);
        let rr_aj = mk(1024.0);
        assert!(
            rr_wj_like > 0.7,
            "walks without tipping should mostly die: {rr_wj_like}"
        );
        assert!(
            rr_aj < 0.05,
            "tipping should eliminate rejections here: {rr_aj} vs {rr_wj_like}"
        );
    }

    #[test]
    fn step_stats_localise_walk_phases() {
        let (ig, p, q, r) = deep_graph();
        let query = deep_query(p, q, r, false);
        let mut aj = AuditJoin::new(
            &ig,
            &query,
            AuditJoinConfig { tipping: Tipping::Static(1024.0), seed: 9 },
        )
        .unwrap();
        run_walks(&mut aj, 500);
        let steps: Vec<(u64, u64, u64)> = aj.step_stats().collect();
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].0, 500, "every walk samples step 0: {steps:?}");
        let tips: u64 = steps.iter().map(|s| s.2).sum();
        let rejects: u64 = steps.iter().map(|s| s.1).sum();
        assert_eq!(tips, aj.stats().tipped, "{steps:?}");
        assert_eq!(rejects, aj.stats().rejected, "{steps:?}");
        assert!(tips > 0, "deep graph must tip under this threshold: {steps:?}");
        // Tips never happen at step 0 (there is no prefix yet).
        assert_eq!(steps[0].2, 0, "{steps:?}");
    }

    #[test]
    fn caches_warm_up_across_walks() {
        let (ig, p, q, r) = deep_graph();
        // Group by the mid node, count distinct objects: both α and β are
        // bound before the final r-pattern, so the walk-success mass of the
        // r-suffix is computed by CTJ and cached per mid value.
        let query = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
                TriplePattern::new(Var(2), r, Var(3)),
            ],
            Var(2),
            Var(1),
            true,
        )
        .unwrap();
        let mut aj =
            AuditJoin::new(&ig, &query, AuditJoinConfig { tipping: Tipping::Static(1e6), seed: 2 })
                .unwrap();
        run_walks(&mut aj, 200);
        let stats = aj.cache_stats();
        assert!(stats.misses > 0, "cache stats {stats:?}");
        assert!(stats.hits > 0, "cache stats {stats:?}");
        assert!(aj.prab_stats().pairs > 0);
    }

    #[test]
    fn tipped_walk_sums_a_group_in_key_order() {
        // Sources -p-> objects -q-> mids -r-> class, with sources sharing
        // objects and objects sharing mids unevenly. Grouping by source
        // and counting mids binds β after the tip, so one tipped walk
        // holds several (a, b) terms of one group, each with its own
        // Pr(a, b); their sum must be the fold in ascending key order,
        // whatever order the masses map iterates in.
        let mut b = GraphBuilder::new();
        let [p, q, r, class] = ["u:p", "u:q", "u:r", "u:c"].map(|n| b.dict_mut().intern_iri(n));
        let mids: Vec<TermId> =
            (0..23).map(|i| b.dict_mut().intern_iri(format!("u:m{i}"))).collect();
        for oi in 0..6usize {
            let o = b.dict_mut().intern_iri(format!("u:o{oi}"));
            for si in 0..=oi {
                let s = b.dict_mut().intern_iri(format!("u:s{si}"));
                b.add(Triple::new(s, p, o));
            }
            for k in 0..7 + oi {
                b.add(Triple::new(o, q, mids[(3 * oi + k) % mids.len()]));
            }
        }
        for m in &mids {
            b.add(Triple::new(*m, r, class));
        }
        let ig = IndexedGraph::build(b.build());
        let (alpha, beta) = (Var(0), Var(2));
        let query = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
                TriplePattern::new(Var(2), r, Var(3)),
            ],
            alpha,
            beta,
            true,
        )
        .unwrap();
        for seed in 0..8 {
            let config = AuditJoinConfig { tipping: Tipping::Static(f64::INFINITY), seed };
            let mut aj = AuditJoin::new(&ig, &query, config).unwrap();
            aj.step();
            assert_eq!(aj.stats().tipped, 1);
            // Step 0's bindings survive the suffix enumeration.
            let mut assignment = aj.assignment.clone();
            let mut counter = CtjCounter::new(&ig, std::sync::Arc::clone(&aj.plan));
            let mut masses = FxHashMap::default();
            counter
                .pair_masses_from(
                    alpha,
                    beta,
                    1,
                    None,
                    1.0,
                    &mut assignment,
                    &mut ExecBudget::unlimited().meter(),
                    &mut masses,
                )
                .unwrap();
            let mut terms: Vec<(u64, f64)> = masses.into_iter().collect();
            assert!(terms.len() >= 7, "an object has at least seven mids");
            terms.sort_unstable_by_key(|&(key, _)| key);
            let mut prab = PrAb::new(&ig, query.clone(), std::sync::Arc::clone(&aj.plan));
            let x = terms
                .iter()
                .fold(0.0, |x, &(key, m)| x + m / prab.pr((key >> 32) as u32, key as u32));
            let sums: Vec<(u32, f64, f64)> = aj.accumulator().iter().collect();
            assert_eq!(sums.len(), 1);
            assert_eq!(sums[0].0, assignment[alpha.index()]);
            assert_eq!(sums[0].1.to_bits(), x.to_bits(), "seed {seed}");
            assert_eq!(sums[0].2.to_bits(), (x * x).to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (ig, p, q) = graph();
        let query = query(p, q, true);
        let cfg = AuditJoinConfig { tipping: Tipping::Static(100.0), seed: 77 };
        let mut a = AuditJoin::new(&ig, &query, cfg).unwrap();
        let mut b = AuditJoin::new(&ig, &query, cfg).unwrap();
        run_walks(&mut a, 300);
        run_walks(&mut b, 300);
        for (g, x) in a.estimates().estimates.iter() {
            assert_eq!(b.estimates().estimates.get(g), Some(x));
        }
    }

    #[test]
    fn tipping_scalar_round_trip() {
        assert_eq!(Tipping::from_threshold(0.0), Tipping::Off);
        assert_eq!(Tipping::from_threshold(37.5), Tipping::Static(37.5));
        assert_eq!(Tipping::Off.threshold(), 0.0);
        assert_eq!(Tipping::Static(2.0).threshold(), 2.0);
        assert_eq!(Tipping::default(), Tipping::Static(DEFAULT_TIPPING_THRESHOLD));
    }
}
