//! Wander Join (Li et al., SIGMOD 2016) — online aggregation via random
//! walks, as described in §IV-C of the paper.
//!
//! A walk picks a uniformly random tuple from the first pattern, then at
//! each step a uniformly random tuple consistent with the previous binding.
//! A completed walk γ yields the Horvitz–Thompson estimate
//! `C_wj(γ) = Π dᵢ = 1/Pr(γ)`; a dead end yields 0. Per-group estimators
//! follow Ripple Join: a walk updates only the group it lands in, divided
//! by the total number of walks.
//!
//! Wander Join has no unbiased distinct estimator. Per §V-A, this
//! implementation augments it with the Ripple-Join technique: remember the
//! (group, value) samples seen so far and discard (count as zero) walks
//! that land on an already-seen sample. This is *biased* — demonstrating
//! that bias is one of the paper's experimental points.

use kgoa_engine::{BudgetExceeded, ExecBudget};
use kgoa_index::{pack2, FxHashSet, IndexOrder, IndexedGraph, LiveRange, TrieIndex};
use kgoa_query::{ExplorationQuery, QueryError, WalkPlan};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::accum::{GroupAccumulator, WalkStats};
use crate::online::OnlineAggregator;

/// A Wander Join run over one query.
pub struct WanderJoin<'g> {
    /// Shared so parallel workers reuse one plan instead of deep-cloning.
    plan: std::sync::Arc<WalkPlan>,
    /// Per-step index, resolved once at construction (hoists the order
    /// lookup out of the walk loop).
    step_index: Vec<&'g TrieIndex>,
    /// Per-step constant range for steps with no in-variable (their access
    /// prefix is fully ground, so the prefix lookup happens once here).
    fixed_ranges: Vec<Option<LiveRange>>,
    distinct: bool,
    alpha: usize,
    beta: usize,
    accum: GroupAccumulator,
    seen: FxHashSet<u64>,
    stats: WalkStats,
    /// Per-plan-step walk arrivals (walks that reached the step).
    step_visits: Vec<u64>,
    /// Per-plan-step dead ends (walks that died at the step).
    step_rejects: Vec<u64>,
    rng: SmallRng,
    /// Recycled SoA scratch of the walk loop.
    batch: crate::batch::BatchScratch,
}

impl<'g> WanderJoin<'g> {
    /// Create a run using the canonical walk order.
    pub fn new(
        ig: &'g IndexedGraph,
        query: &ExplorationQuery,
        seed: u64,
    ) -> Result<Self, QueryError> {
        let plan = WalkPlan::canonical(query, &IndexOrder::PAPER_DEFAULT)?;
        Self::with_plan(ig, query, plan, seed)
    }

    /// Create a run with an explicit walk plan (used by walk-order
    /// selection, §V-B: "for each query, we tested different join orders of
    /// WJ and selected the one with the best MAE").
    pub fn with_plan(
        ig: &'g IndexedGraph,
        query: &ExplorationQuery,
        plan: impl Into<std::sync::Arc<WalkPlan>>,
        seed: u64,
    ) -> Result<Self, QueryError> {
        let plan = plan.into();
        let n = plan.len();
        let step_index: Vec<&TrieIndex> =
            plan.steps().iter().map(|s| ig.require(s.access.order)).collect();
        let fixed_ranges: Vec<Option<LiveRange>> = plan
            .steps()
            .iter()
            .zip(&step_index)
            .map(|(s, idx)| s.in_var.is_none().then(|| s.access.resolve_live(idx, None)))
            .collect();
        Ok(WanderJoin {
            step_index,
            fixed_ranges,
            distinct: query.distinct(),
            alpha: query.alpha().index(),
            beta: query.beta().index(),
            plan,
            accum: GroupAccumulator::new(),
            seen: FxHashSet::default(),
            stats: WalkStats::default(),
            step_visits: vec![0; n],
            step_rejects: vec![0; n],
            rng: SmallRng::seed_from_u64(seed),
            batch: crate::batch::BatchScratch::default(),
        })
    }

    /// The raw per-group accumulator (used by the parallel runner).
    pub fn accumulator(&self) -> &GroupAccumulator {
        &self.accum
    }

    /// Per-step `(visits, dead_ends)` counters, indexed by walk-plan step.
    pub fn step_stats(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.step_visits.iter().copied().zip(self.step_rejects.iter().copied())
    }

    /// Emit this run's walk-phase attribution into the active profile
    /// scope (no-op when none): one `wj.walks` span carrying the global
    /// walk counters, with one leaf per plan step underneath.
    pub fn profile_emit(&self) {
        if !kgoa_obs::profile::active() {
            return;
        }
        let span = kgoa_obs::profile::span("wj.walks");
        kgoa_obs::profile::add("walks", self.stats.walks);
        kgoa_obs::profile::add("full", self.stats.full);
        kgoa_obs::profile::add("rejected", self.stats.rejected);
        kgoa_obs::profile::add("duplicates", self.stats.duplicates);
        for (i, step) in self.plan.steps().iter().enumerate() {
            kgoa_obs::profile::leaf(
                format!("wj.step{i}[p{}]", step.pattern_idx),
                &[("visits", self.step_visits[i]), ("dead_ends", self.step_rejects[i])],
            );
        }
        drop(span);
    }

    /// The walk loop: `n` admitted walks advance one plan step at a time.
    /// Each live walk resolves the step's range with one index lookup and
    /// the step's RNG words are drawn in one refill, in walk order — so
    /// the stream is step-major: walk `w` of a batch draws its step-`i`
    /// word after every walk's step-`i − 1` word.
    fn walk_batch_core(&mut self, budget: &ExecBudget, n: usize) -> Result<(), BudgetExceeded> {
        let plan: &WalkPlan = &self.plan;
        let bs = &mut self.batch;
        let vc = plan.var_count();
        bs.reset(n, vc);
        let mut live = n;
        for (si, step) in plan.steps().iter().enumerate() {
            if live == 0 {
                break;
            }
            budget.check()?;
            self.step_visits[si] += live as u64;
            let index = self.step_index[si];
            crate::batch::resolve_step_ranges(
                index,
                step,
                self.fixed_ranges[si],
                &bs.assignments,
                vc,
                &bs.alive,
                &mut bs.ranges,
            );
            let dead = bs.sample_step(plan, si, index, &mut self.rng);
            live -= dead as usize;
            self.step_rejects[si] += dead;
            self.stats.walks += dead;
            self.stats.rejected += dead;
        }
        // Completions in walk order, which is the order the distinct-mode
        // dedup sees samples in.
        for w in 0..n {
            if !bs.alive[w] {
                continue;
            }
            self.stats.walks += 1;
            self.stats.full += 1;
            let a = bs.assignments[w * vc + self.alpha];
            let weight = bs.weights[w];
            if self.distinct {
                let b = bs.assignments[w * vc + self.beta];
                if self.seen.insert(pack2(a, b)) {
                    self.accum.add(a, weight);
                } else {
                    self.stats.duplicates += 1;
                }
            } else {
                self.accum.add(a, weight);
            }
        }
        Ok(())
    }
}

impl OnlineAggregator for WanderJoin<'_> {
    fn name(&self) -> &'static str {
        "wj"
    }

    /// Walk and budget accounting is charged once per batch; the budget
    /// is checked before every plan step.
    fn step_batch_governed(&mut self, budget: &ExecBudget, n: u64) -> Result<u64, BudgetExceeded> {
        if n == 0 {
            return Ok(0);
        }
        budget.fault_walks(n);
        let admitted = budget.charge_walks(n)?;
        self.walk_batch_core(budget, admitted as usize)?;
        Ok(admitted)
    }

    fn estimates(&self) -> kgoa_engine::GroupedEstimates {
        self.accum.estimates(self.stats.walks)
    }

    fn stats(&self) -> WalkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::run_walks;
    use kgoa_engine::{CountEngine, YannakakisEngine};
    use kgoa_query::{TriplePattern, Var};
    use kgoa_rdf::{GraphBuilder, TermId, Triple};

    /// A two-level fan: subjects s0..s9 each -p-> objects o0..o4 (dense),
    /// objects -q-> classes by parity.
    fn fan() -> (IndexedGraph, TermId, TermId) {
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let classes: Vec<TermId> =
            (0..2).map(|i| b.dict_mut().intern_iri(format!("u:c{i}"))).collect();
        let objs: Vec<TermId> =
            (0..5).map(|i| b.dict_mut().intern_iri(format!("u:o{i}"))).collect();
        for si in 0..10 {
            let s = b.dict_mut().intern_iri(format!("u:s{si}"));
            for (oi, o) in objs.iter().enumerate() {
                if (si + oi) % 2 == 0 {
                    b.add(Triple::new(s, p, *o));
                }
            }
        }
        for (oi, o) in objs.iter().enumerate() {
            b.add(Triple::new(*o, q, classes[oi % 2]));
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

    #[test]
    fn non_distinct_converges_to_exact() {
        let (ig, p, q) = fan();
        let query = query(p, q, false);
        let exact = YannakakisEngine.evaluate(&ig, &query).unwrap();
        let mut wj = WanderJoin::new(&ig, &query, 42).unwrap();
        run_walks(&mut wj, 60_000);
        let est = wj.estimates();
        for (g, c) in exact.iter() {
            let rel = (est.get(g) - c as f64).abs() / c as f64;
            assert!(rel < 0.05, "group {g}: est {} vs exact {c}", est.get(g));
        }
    }

    #[test]
    fn no_rejections_on_total_graph() {
        // Every object has a q-edge, so no walk can die.
        let (ig, p, q) = fan();
        let mut wj = WanderJoin::new(&ig, &query(p, q, false), 7).unwrap();
        run_walks(&mut wj, 1000);
        assert_eq!(wj.stats().rejected, 0);
        assert_eq!(wj.stats().full, 1000);
    }

    #[test]
    fn rejections_on_dead_ends() {
        // Remove q-edges from odd objects by querying a predicate that only
        // even objects have: build a graph where only o0 has the q edge.
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let s = b.dict_mut().intern_iri("u:s");
        let o0 = b.dict_mut().intern_iri("u:o0");
        let o1 = b.dict_mut().intern_iri("u:o1");
        let c = b.dict_mut().intern_iri("u:c");
        b.add(Triple::new(s, p, o0));
        b.add(Triple::new(s, p, o1));
        b.add(Triple::new(o0, q, c));
        let ig = IndexedGraph::build(b.build());
        let mut wj = WanderJoin::new(&ig, &query(p, q, false), 1).unwrap();
        run_walks(&mut wj, 2000);
        let rr = wj.stats().rejection_rate();
        assert!((rr - 0.5).abs() < 0.05, "rejection rate {rr}");
    }

    #[test]
    fn step_stats_localise_dead_ends() {
        // Same shape as rejections_on_dead_ends: all deaths at step 1.
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let s = b.dict_mut().intern_iri("u:s");
        let o0 = b.dict_mut().intern_iri("u:o0");
        let o1 = b.dict_mut().intern_iri("u:o1");
        let c = b.dict_mut().intern_iri("u:c");
        b.add(Triple::new(s, p, o0));
        b.add(Triple::new(s, p, o1));
        b.add(Triple::new(o0, q, c));
        let ig = IndexedGraph::build(b.build());
        let mut wj = WanderJoin::new(&ig, &query(p, q, false), 11).unwrap();
        run_walks(&mut wj, 500);
        let steps: Vec<(u64, u64)> = wj.step_stats().collect();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0], (500, 0), "step 0 always succeeds");
        assert_eq!(steps[1].0, 500, "every walk reaches step 1");
        assert_eq!(steps[1].1, wj.stats().rejected, "all deaths at step 1");
        assert!(steps[1].1 > 0);
    }

    #[test]
    fn distinct_mode_discards_duplicates() {
        let (ig, p, q) = fan();
        let mut wj = WanderJoin::new(&ig, &query(p, q, true), 3).unwrap();
        run_walks(&mut wj, 5000);
        // Only 5 distinct (class, object) pairs exist; nearly every walk is
        // a duplicate.
        assert!(wj.stats().duplicates > 4000);
        // And the estimator is *biased*: with duplicates discarded the
        // estimate decays below the truth over time (or overshoots early);
        // simply check it ran and produced estimates for both groups.
        assert_eq!(wj.estimates().len(), 2);
    }

    #[test]
    fn deterministic_under_seed() {
        let (ig, p, q) = fan();
        let query = query(p, q, false);
        let mut a = WanderJoin::new(&ig, &query, 99).unwrap();
        let mut b = WanderJoin::new(&ig, &query, 99).unwrap();
        run_walks(&mut a, 500);
        run_walks(&mut b, 500);
        let (ea, eb) = (a.estimates(), b.estimates());
        for (g, x) in ea.estimates.iter() {
            assert_eq!(eb.estimates.get(g), Some(x));
        }
    }

    #[test]
    fn batched_converges_to_exact() {
        let (ig, p, q) = fan();
        let query = query(p, q, false);
        let exact = YannakakisEngine.evaluate(&ig, &query).unwrap();
        for batch in [16u64, 64, 256] {
            let mut wj = WanderJoin::new(&ig, &query, 42).unwrap();
            crate::online::run_walks_batched(&mut wj, 60_000, batch);
            assert_eq!(wj.stats().walks, 60_000);
            let est = wj.estimates();
            for (g, c) in exact.iter() {
                let rel = (est.get(g) - c as f64).abs() / c as f64;
                assert!(rel < 0.05, "batch {batch} group {g}: est {} vs exact {c}", est.get(g));
            }
        }
    }

    #[test]
    fn batched_rejections_match_dead_end_structure() {
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let s = b.dict_mut().intern_iri("u:s");
        let o0 = b.dict_mut().intern_iri("u:o0");
        let o1 = b.dict_mut().intern_iri("u:o1");
        let c = b.dict_mut().intern_iri("u:c");
        b.add(Triple::new(s, p, o0));
        b.add(Triple::new(s, p, o1));
        b.add(Triple::new(o0, q, c));
        let ig = IndexedGraph::build(b.build());
        let mut wj = WanderJoin::new(&ig, &query(p, q, false), 1).unwrap();
        crate::online::run_walks_batched(&mut wj, 2000, 64);
        let rr = wj.stats().rejection_rate();
        assert!((rr - 0.5).abs() < 0.05, "rejection rate {rr}");
        let steps: Vec<(u64, u64)> = wj.step_stats().collect();
        assert_eq!(steps[0], (2000, 0));
        assert_eq!(steps[1].1, wj.stats().rejected);
    }

    #[test]
    fn batch_respects_walk_cap_with_partial_admission() {
        let (ig, p, q) = fan();
        let query = query(p, q, false);
        let mut wj = WanderJoin::new(&ig, &query, 8).unwrap();
        let budget = ExecBudget::builder().walk_limit(100).build();
        assert_eq!(wj.step_batch_governed(&budget, 64).unwrap(), 64);
        // Only 36 walks remain under the cap: partial admission.
        assert_eq!(wj.step_batch_governed(&budget, 64).unwrap(), 36);
        assert_eq!(wj.stats().walks, 100);
        // The cap is exhausted: the next batch is refused outright.
        assert!(wj.step_batch_governed(&budget, 64).is_err());
        assert_eq!(wj.stats().walks, 100);
    }

    #[test]
    fn empty_first_pattern_rejects_all() {
        let (ig, p, _) = fan();
        let q = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), TermId(40_000), Var(1)),
                TriplePattern::new(Var(1), p, Var(2)),
            ],
            Var(2),
            Var(1),
            false,
        )
        .unwrap();
        let mut wj = WanderJoin::new(&ig, &q, 5).unwrap();
        run_walks(&mut wj, 10);
        assert_eq!(wj.stats().rejected, 10);
        assert!(wj.estimates().is_empty());
    }
}
