//! Cached Trie Join (Kalinsky, Etsion & Kimelfeld, EDBT 2017) — the exact
//! engine of §IV-B.
//!
//! CTJ augments the worst-case-optimal trie join with caches of partial
//! results, guided by the query's tree decomposition; "in the use-case of
//! this paper, the tree decomposition is easily determined by the path
//! formed by the query". For the tree-shaped exploration queries, the
//! decomposition coincides with the walk plan, so this implementation runs
//! the trie join as a recursion over walk steps and memoizes, per step, the
//! aggregate over all suffix completions keyed by the values of the
//! variables the suffix depends on (almost always exactly one — the step's
//! join variable). Example IV.1 of the paper is precisely this effect: the
//! diamond-shaped join recomputes suffix counts under LFTJ but hits the
//! cache under CTJ.
//!
//! Three "semirings" share the machinery, because Audit Join needs all of
//! them (§IV-D):
//! - **count**: `u64` number of completions (`|Γ_δ|`),
//! - **exists**: early-exiting boolean (distinct counting),
//! - **mass**: `f64` probability that a random walk continuing from here
//!   completes (`Σ_extensions Π 1/dᵢ`), used by the unbiased distinct
//!   estimator.

use kgoa_index::{pack2, FxHashMap, IndexedGraph};
use kgoa_query::{ExplorationQuery, Var, WalkPlan};

use crate::budget::{BudgetExceeded, BudgetMeter, ExecBudget};

/// Per-step cache statistics, reported by the cache-effectiveness ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Memo hits across all semirings.
    pub hits: u64,
    /// Memo misses (entries computed).
    pub misses: u64,
}

/// Cache and enumeration counters for **one** walk-plan step (one node of
/// the CTJ recursion tree), aggregated across all semirings. Collected
/// unconditionally — plain `u64` bumps next to hash-map probes are noise —
/// and attributed to the active profile via [`CtjCounter::profile_emit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCacheStats {
    /// Memo hits at this step.
    pub hits: u64,
    /// Memo misses (suffix aggregates computed) at this step.
    pub misses: u64,
    /// Candidate rows enumerated at this step while computing misses.
    pub rows: u64,
}

/// Which variables a step's suffix depends on, and how to build memo keys.
#[derive(Debug, Clone)]
enum DepKey {
    /// The suffix from this step is constant (no earlier bindings used).
    None,
    /// Depends on one variable.
    One(Var),
    /// Depends on two variables.
    Two(Var, Var),
    /// Depends on three or more variables — not memoized (does not occur
    /// for exploration-shaped queries, but kept correct).
    Many,
}

impl DepKey {
    fn key(&self, assignment: &[u32]) -> Option<u64> {
        match self {
            DepKey::None => Some(0),
            DepKey::One(v) => Some(u64::from(assignment[v.index()])),
            DepKey::Two(v, w) => Some(pack2(assignment[v.index()], assignment[w.index()])),
            DepKey::Many => None,
        }
    }
}

/// The CTJ evaluator: a walk-plan recursion with per-step suffix caches.
///
/// One `CtjCounter` accumulates caches across *many* invocations — this is
/// what lets Audit Join reuse exact partial computations between random
/// walks ("Audit Join automatically leverages the caching of CTJ,
/// potentially avoiding re-computation when building the same prefix δ in
/// later random walks", §IV-D).
pub struct CtjCounter<'g> {
    ig: &'g IndexedGraph,
    /// Shared so co-operating executors (Audit Join's estimator, pinned
    /// `Pr(a,b)` computations, parallel workers) reuse one plan.
    plan: std::sync::Arc<WalkPlan>,
    deps: Vec<DepKey>,
    /// Raw dependency sets behind [`CtjCounter::suffix_dep_vars`] (sorted).
    dep_vars: Vec<Vec<Var>>,
    /// `collapse[i]`: no step after `i` reads `i`'s out-variables, so every
    /// row of `i`'s range leads to an identical suffix (see the suffix
    /// multiplication in [`CtjCounter::try_count_from`]).
    collapse: Vec<bool>,
    memo_count: Vec<FxHashMap<u64, u64>>,
    memo_exists: Vec<FxHashMap<u64, bool>>,
    memo_mass: Vec<FxHashMap<u64, f64>>,
    stats: CacheStats,
    step_stats: Vec<StepCacheStats>,
}

impl<'g> CtjCounter<'g> {
    /// Create an evaluator for a query under a given walk plan.
    pub fn new(ig: &'g IndexedGraph, plan: impl Into<std::sync::Arc<WalkPlan>>) -> Self {
        let plan = plan.into();
        let n = plan.len();
        let dep_vars = compute_deps(&plan);
        let deps: Vec<DepKey> = dep_vars
            .iter()
            .map(|vars| match vars.as_slice() {
                [] => DepKey::None,
                [v] => DepKey::One(*v),
                [v, w] => DepKey::Two(*v, *w),
                _ => DepKey::Many,
            })
            .collect();
        let collapse = plan
            .steps()
            .iter()
            .enumerate()
            .map(|(i, s)| s.out_vars.iter().all(|v| !dep_vars[i + 1].contains(v)))
            .collect();
        CtjCounter {
            ig,
            plan,
            deps,
            dep_vars,
            collapse,
            memo_count: vec![FxHashMap::default(); n + 1],
            memo_exists: vec![FxHashMap::default(); n + 1],
            memo_mass: vec![FxHashMap::default(); n + 1],
            stats: CacheStats::default(),
            step_stats: vec![StepCacheStats::default(); n],
        }
    }

    /// Variables bound before `step` that the suffix from `step` still
    /// reads (sorted). This is the suffix's memo key; the value `1` means
    /// the suffix is a function of one earlier binding.
    pub fn suffix_dep_vars(&self, step: usize) -> &[Var] {
        &self.dep_vars[step]
    }

    /// True when no later step reads `step`'s out-variables: all rows of
    /// `step`'s candidate range lead to the *same* suffix, so aggregates
    /// multiply by the fan-out instead of enumerating it.
    pub fn suffix_collapses(&self, step: usize) -> bool {
        self.collapse[step]
    }

    /// The walk plan driving the recursion.
    pub fn plan(&self) -> &WalkPlan {
        &self.plan
    }

    /// The indexed graph.
    pub fn graph(&self) -> &'g IndexedGraph {
        self.ig
    }

    /// Cache statistics so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Per-step cache/enumeration counters, indexed by walk-plan step.
    pub fn step_stats(&self) -> &[StepCacheStats] {
        &self.step_stats
    }

    /// Attribute one enumerated row to `step`. Drivers that enumerate a
    /// prefix themselves (e.g. [`crate::CtjEngine`]'s group recursion)
    /// call this so their rows land in the same per-step counters as the
    /// memoized suffix work.
    pub fn note_row(&mut self, step: usize) {
        self.step_stats[step].rows += 1;
    }

    /// Emit one attribution leaf per walk-plan step (one per CTJ cache
    /// node) into the active profile scope; no-op when none.
    pub fn profile_emit(&self) {
        if !kgoa_obs::profile::active() {
            return;
        }
        for (i, (st, step)) in self.step_stats.iter().zip(self.plan.steps()).enumerate() {
            kgoa_obs::profile::leaf(
                format!("ctj.step{i}[p{}]", step.pattern_idx),
                &[("cache_hits", st.hits), ("cache_misses", st.misses), ("rows", st.rows)],
            );
        }
    }


    /// Drop all cached entries (used between ablation runs).
    pub fn clear_cache(&mut self) {
        for m in &mut self.memo_count {
            m.clear();
        }
        for m in &mut self.memo_exists {
            m.clear();
        }
        for m in &mut self.memo_mass {
            m.clear();
        }
        self.stats = CacheStats::default();
        self.step_stats.fill(StepCacheStats::default());
    }

    /// Number of completions of the suffix starting at `step`, given the
    /// bindings in `assignment` (`|Γ_δ|` where δ bound steps `0..step`).
    pub fn count_from(&mut self, step: usize, assignment: &mut [u32]) -> u64 {
        let mut meter = ExecBudget::unlimited().meter();
        self.try_count_from(step, assignment, &mut meter)
            .expect("unlimited budget cannot trip")
    }

    /// [`CtjCounter::count_from`] under a cooperative budget: the recursion
    /// ticks the meter per enumerated row and aborts when it trips. Partial
    /// results are never memoized, so the caches stay exact.
    pub fn try_count_from(
        &mut self,
        step: usize,
        assignment: &mut [u32],
        meter: &mut BudgetMeter,
    ) -> Result<u64, BudgetExceeded> {
        if step == self.plan.len() {
            return Ok(1);
        }
        let key = self.deps[step].key(assignment);
        if let Some(k) = key {
            if let Some(&c) = self.memo_count[step].get(&k) {
                self.stats.hits += 1;
                self.step_stats[step].hits += 1;
                return Ok(c);
            }
        }
        let s = &self.plan.steps()[step];
        let index = self.ig.require(s.access.order);
        let in_value = s.in_var.map(|(v, _)| assignment[v.index()]);
        let range = s.access.resolve_live(index, in_value);
        let total = if s.out_vars.is_empty() || self.collapse[step] {
            // No new bindings — or bindings nothing downstream reads:
            // every candidate row leads to the same suffix, so multiply by
            // the fan-out instead of enumerating it.
            meter.tick()?;
            if range.is_empty() {
                0
            } else {
                (range.len() as u64)
                    .checked_mul(self.try_count_from(step + 1, assignment, meter)?)
                    .expect("join size overflow")
            }
        } else {
            let mut total = 0u64;
            for pos in index.positions(range) {
                meter.tick()?;
                self.step_stats[step].rows += 1;
                self.plan.extract_at(index, step, pos, assignment);
                total += self.try_count_from(step + 1, assignment, meter)?;
            }
            total
        };
        if let Some(k) = key {
            self.memo_count[step].insert(k, total);
            self.stats.misses += 1;
            self.step_stats[step].misses += 1;
        }
        Ok(total)
    }

    /// True if the suffix starting at `step` has at least one completion.
    pub fn exists_from(&mut self, step: usize, assignment: &mut [u32]) -> bool {
        let mut meter = ExecBudget::unlimited().meter();
        self.try_exists_from(step, assignment, &mut meter)
            .expect("unlimited budget cannot trip")
    }

    /// [`CtjCounter::exists_from`] under a cooperative budget.
    pub fn try_exists_from(
        &mut self,
        step: usize,
        assignment: &mut [u32],
        meter: &mut BudgetMeter,
    ) -> Result<bool, BudgetExceeded> {
        if step == self.plan.len() {
            return Ok(true);
        }
        let key = self.deps[step].key(assignment);
        if let Some(k) = key {
            if let Some(&e) = self.memo_exists[step].get(&k) {
                self.stats.hits += 1;
                self.step_stats[step].hits += 1;
                return Ok(e);
            }
        }
        let s = &self.plan.steps()[step];
        let index = self.ig.require(s.access.order);
        let in_value = s.in_var.map(|(v, _)| assignment[v.index()]);
        let range = s.access.resolve_live(index, in_value);
        let mut found = false;
        if s.out_vars.is_empty() || self.collapse[step] {
            // Suffix is independent of this step's bindings: one
            // representative decides existence for the whole range.
            meter.tick()?;
            if !range.is_empty() {
                found = self.try_exists_from(step + 1, assignment, meter)?;
            }
        } else {
            for pos in index.positions(range) {
                meter.tick()?;
                self.step_stats[step].rows += 1;
                self.plan.extract_at(index, step, pos, assignment);
                if self.try_exists_from(step + 1, assignment, meter)? {
                    found = true;
                    break;
                }
            }
        }
        if let Some(k) = key {
            self.memo_exists[step].insert(k, found);
            self.stats.misses += 1;
            self.step_stats[step].misses += 1;
        }
        Ok(found)
    }

    /// Probability that a random walk at `step` (with the given bindings)
    /// continues all the way to a full path: `Σ_extensions Π_{i≥step} 1/dᵢ`.
    pub fn mass_from(&mut self, step: usize, assignment: &mut [u32]) -> f64 {
        let mut meter = ExecBudget::unlimited().meter();
        self.try_mass_from(step, assignment, &mut meter)
            .expect("unlimited budget cannot trip")
    }

    /// [`CtjCounter::mass_from`] under a cooperative budget.
    pub fn try_mass_from(
        &mut self,
        step: usize,
        assignment: &mut [u32],
        meter: &mut BudgetMeter,
    ) -> Result<f64, BudgetExceeded> {
        if step == self.plan.len() {
            return Ok(1.0);
        }
        let key = self.deps[step].key(assignment);
        if let Some(k) = key {
            if let Some(&m) = self.memo_mass[step].get(&k) {
                self.stats.hits += 1;
                self.step_stats[step].hits += 1;
                return Ok(m);
            }
        }
        let s = &self.plan.steps()[step];
        let index = self.ig.require(s.access.order);
        let in_value = s.in_var.map(|(v, _)| assignment[v.index()]);
        let range = s.access.resolve_live(index, in_value);
        let mass = if range.is_empty() {
            0.0
        } else if s.out_vars.is_empty() || self.collapse[step] {
            // d candidates, each reached with probability 1/d and leading
            // to the same suffix: Σ = d · (1/d) · suffix.
            meter.tick()?;
            self.try_mass_from(step + 1, assignment, meter)?
        } else {
            let d = range.len() as f64;
            let mut sum = 0.0;
            for pos in index.positions(range) {
                meter.tick()?;
                self.step_stats[step].rows += 1;
                self.plan.extract_at(index, step, pos, assignment);
                sum += self.try_mass_from(step + 1, assignment, meter)?;
            }
            sum / d
        };
        if let Some(k) = key {
            self.memo_mass[step].insert(k, mass);
            self.stats.misses += 1;
            self.step_stats[step].misses += 1;
        }
        Ok(mass)
    }
}

/// For each step, the set of variables bound before it that its suffix
/// still reads (i.e. the memo key of the suffix function). Sorted.
fn compute_deps(plan: &WalkPlan) -> Vec<Vec<Var>> {
    let n = plan.len();
    let mut dep_sets: Vec<Vec<Var>> = vec![Vec::new(); n + 1];
    for (j, step) in plan.steps().iter().enumerate() {
        if let Some((v, _)) = step.in_var {
            let bound_at = plan.binder_step(v);
            for deps in dep_sets.iter_mut().take(j + 1).skip(bound_at + 1) {
                if !deps.contains(&v) {
                    deps.push(v);
                }
            }
        }
    }
    for vars in &mut dep_sets {
        vars.sort_unstable();
    }
    dep_sets
}

/// Exact join size (`|Γ|`) with CTJ.
pub fn ctj_count(ig: &IndexedGraph, query: &ExplorationQuery) -> Result<u64, crate::EngineError> {
    let plan = WalkPlan::canonical(query, &kgoa_index::IndexOrder::PAPER_DEFAULT)?;
    let mut counter = CtjCounter::new(ig, plan);
    let mut assignment = vec![0u32; query.var_count()];
    Ok(counter.count_from(0, &mut assignment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_query::TriplePattern;
    use kgoa_rdf::{GraphBuilder, TermId, Triple};

    /// Diamond: a -p-> {x,y} -q-> m -r-> z (join sizes known by hand).
    fn diamond() -> (IndexedGraph, TermId, TermId, TermId) {
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let r = b.dict_mut().intern_iri("u:r");
        let ids: Vec<TermId> =
            ["a", "x", "y", "m", "z"].iter().map(|n| b.dict_mut().intern_iri(format!("u:{n}"))).collect();
        let (a, x, y, m, z) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        for t in [
            Triple::new(a, p, x),
            Triple::new(a, p, y),
            Triple::new(x, q, m),
            Triple::new(y, q, m),
            Triple::new(m, r, z),
        ] {
            b.add(t);
        }
        (IndexedGraph::build(b.build()), p, q, r)
    }

    fn path3(p: TermId, q: TermId, r: TermId) -> ExplorationQuery {
        ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
                TriplePattern::new(Var(2), r, Var(3)),
            ],
            Var(3),
            Var(2),
            false,
        )
        .unwrap()
    }

    #[test]
    fn count_matches_lftj() {
        let (ig, p, q, r) = diamond();
        let query = path3(p, q, r);
        assert_eq!(ctj_count(&ig, &query).unwrap(), 2);
        assert_eq!(crate::lftj::lftj_count(&ig, &query).unwrap(), 2);
    }

    #[test]
    fn cache_hits_on_diamond() {
        let (ig, p, q, r) = diamond();
        let query = path3(p, q, r);
        let plan = WalkPlan::canonical(&query, &kgoa_index::IndexOrder::PAPER_DEFAULT).unwrap();
        let mut counter = CtjCounter::new(&ig, plan);
        let mut asg = vec![0u32; query.var_count()];
        assert_eq!(counter.count_from(0, &mut asg), 2);
        // The two paths meet at m — the suffix count under m is computed
        // once and hit once.
        assert!(counter.cache_stats().hits >= 1, "stats: {:?}", counter.cache_stats());
        // A second full evaluation is answered entirely from the cache.
        let h0 = counter.cache_stats().hits;
        assert_eq!(counter.count_from(0, &mut asg), 2);
        assert!(counter.cache_stats().hits > h0);
    }

    #[test]
    fn step_stats_localise_cache_traffic() {
        let (ig, p, q, r) = diamond();
        let query = path3(p, q, r);
        let plan = WalkPlan::canonical(&query, &kgoa_index::IndexOrder::PAPER_DEFAULT).unwrap();
        let mut counter = CtjCounter::new(&ig, plan);
        let mut asg = vec![0u32; query.var_count()];
        assert_eq!(counter.count_from(0, &mut asg), 2);
        let steps = counter.step_stats().to_vec();
        assert_eq!(steps.len(), 3);
        // Per-step counters sum to the global aggregate.
        let global = counter.cache_stats();
        assert_eq!(steps.iter().map(|s| s.hits).sum::<u64>(), global.hits);
        assert_eq!(steps.iter().map(|s| s.misses).sum::<u64>(), global.misses);
        // The diamond's reconvergence (both x and y lead to m) shows up
        // as a hit on the suffix *after* the meeting step, not step 0.
        assert_eq!(steps[0].hits, 0, "{steps:?}");
        assert!(steps[1].hits + steps[2].hits >= 1, "{steps:?}");
        // Rows were enumerated wherever suffixes were computed.
        assert!(steps.iter().map(|s| s.rows).sum::<u64>() > 0, "{steps:?}");
        counter.clear_cache();
        assert!(counter.step_stats().iter().all(|s| *s == StepCacheStats::default()));
    }

    #[test]
    fn exists_from_early_exits() {
        let (ig, p, q, r) = diamond();
        let query = path3(p, q, r);
        let plan = WalkPlan::canonical(&query, &kgoa_index::IndexOrder::PAPER_DEFAULT).unwrap();
        let mut counter = CtjCounter::new(&ig, plan);
        let mut asg = vec![0u32; query.var_count()];
        assert!(counter.exists_from(0, &mut asg));
        // Suffix from a binding that cannot reach: bind v2 to a node with
        // no r-edge (x).
        let x = ig.dict().lookup_iri("u:x").unwrap().raw();
        asg[2] = x;
        assert!(!counter.exists_from(2, &mut asg));
    }

    #[test]
    fn mass_from_full_query_equals_success_probability() {
        let (ig, p, q, r) = diamond();
        let query = path3(p, q, r);
        let plan = WalkPlan::canonical(&query, &kgoa_index::IndexOrder::PAPER_DEFAULT).unwrap();
        let mut counter = CtjCounter::new(&ig, plan);
        let mut asg = vec![0u32; query.var_count()];
        // Every walk from the two p-triples succeeds (both x and y reach m,
        // m reaches z): success probability is 1.
        let mass = counter.mass_from(0, &mut asg);
        assert!((mass - 1.0).abs() < 1e-12, "mass = {mass}");
    }

    #[test]
    fn mass_reflects_dead_ends() {
        // a -p-> x, a -p-> y, but only x -q-> m: success prob = 1/2.
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let a = b.dict_mut().intern_iri("u:a");
        let x = b.dict_mut().intern_iri("u:x");
        let y = b.dict_mut().intern_iri("u:y");
        let m = b.dict_mut().intern_iri("u:m");
        for t in [Triple::new(a, p, x), Triple::new(a, p, y), Triple::new(x, q, m)] {
            b.add(t);
        }
        let ig = IndexedGraph::build(b.build());
        let query = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
            ],
            Var(2),
            Var(1),
            false,
        )
        .unwrap();
        let plan = WalkPlan::canonical(&query, &kgoa_index::IndexOrder::PAPER_DEFAULT).unwrap();
        let mut counter = CtjCounter::new(&ig, plan);
        let mut asg = vec![0u32; query.var_count()];
        let mass = counter.mass_from(0, &mut asg);
        assert!((mass - 0.5).abs() < 1e-12, "mass = {mass}");
    }

    #[test]
    fn clear_cache_resets() {
        let (ig, p, q, r) = diamond();
        let query = path3(p, q, r);
        let plan = WalkPlan::canonical(&query, &kgoa_index::IndexOrder::PAPER_DEFAULT).unwrap();
        let mut counter = CtjCounter::new(&ig, plan);
        let mut asg = vec![0u32; query.var_count()];
        counter.count_from(0, &mut asg);
        counter.clear_cache();
        assert_eq!(counter.cache_stats(), CacheStats::default());
    }
}
