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
//! [`CtjCounter`] is the one place that knows how an exact suffix is
//! enumerated: how a step's range is resolved, when a step's rows collapse
//! into a multiplier, what the memo key is and where the budget meter
//! ticks. One memoized recursion serves three "semirings", because Audit
//! Join needs all of them (§IV-D):
//! - **count** (`CtjCounter::count_from`): `u64` number of completions
//!   (`|Γ_δ|`),
//! - **exists** (`CtjCounter::exists_from`): early-exiting boolean
//!   (distinct counting),
//! - **mass** ([`CtjCounter::mass_from`]): `f64` probability that a random
//!   walk continuing from here completes (`Σ_extensions Π 1/dᵢ`), used by
//!   the unbiased distinct estimator.
//!
//! Two drivers enumerate a prefix of the suffix and close each branch with
//! that recursion: [`CtjCounter::group_counts_from`] (counts per value of
//! one head variable, for [`crate::CtjEngine`] and Audit Join's tipped
//! count walks) and
//! [`CtjCounter::pair_masses_from`] (per-(α, β) masses, for Audit Join's
//! tipped distinct walks).

use kgoa_index::{pack2, FxHashMap, IndexedGraph, LiveRange, TrieIndex};
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

/// One semiring of the memoized suffix recursion ([`CtjCounter::suffix`]).
trait Suffix: Copy {
    /// The value past the last step: the empty suffix completes once.
    const DONE: Self;
    /// The value over an empty range.
    const EMPTY: Self;
    /// The value over `d` rows that all lead to the suffix value `s`.
    fn repeat(d: u64, s: Self) -> Self;
    /// Fold one row's suffix value into `acc`; `false` stops the loop.
    fn fold(acc: &mut Self, s: Self) -> bool;
    /// Close the fold over a range of `d` rows.
    fn finish(acc: Self, _d: u64) -> Self {
        acc
    }
    /// This semiring's per-step memo.
    fn memo<'a>(counter: &'a mut CtjCounter<'_>) -> &'a mut [FxHashMap<u64, Self>];
}

impl Suffix for u64 {
    const DONE: u64 = 1;
    const EMPTY: u64 = 0;
    fn repeat(d: u64, s: u64) -> u64 {
        d.checked_mul(s).expect("join size overflow")
    }
    fn fold(acc: &mut u64, s: u64) -> bool {
        *acc += s;
        true
    }
    fn memo<'a>(counter: &'a mut CtjCounter<'_>) -> &'a mut [FxHashMap<u64, u64>] {
        &mut counter.memo_count
    }
}

impl Suffix for bool {
    const DONE: bool = true;
    const EMPTY: bool = false;
    /// One representative decides existence for the whole range.
    fn repeat(_d: u64, s: bool) -> bool {
        s
    }
    fn fold(acc: &mut bool, s: bool) -> bool {
        *acc = s;
        !s
    }
    fn memo<'a>(counter: &'a mut CtjCounter<'_>) -> &'a mut [FxHashMap<u64, bool>] {
        &mut counter.memo_exists
    }
}

impl Suffix for f64 {
    const DONE: f64 = 1.0;
    const EMPTY: f64 = 0.0;
    /// `d` candidates, each reached with probability `1/d` and leading to
    /// the same suffix: `Σ = d · (1/d) · s`.
    fn repeat(_d: u64, s: f64) -> f64 {
        s
    }
    fn fold(acc: &mut f64, s: f64) -> bool {
        *acc += s;
        true
    }
    /// Each of the `d` rows is picked with probability `1/d`.
    fn finish(acc: f64, d: u64) -> f64 {
        acc / d as f64
    }
    fn memo<'a>(counter: &'a mut CtjCounter<'_>) -> &'a mut [FxHashMap<u64, f64>] {
        &mut counter.memo_mass
    }
}

/// The CTJ evaluator: a walk-plan recursion with per-step suffix caches.
///
/// One `CtjCounter` accumulates caches across *many* invocations — this is
/// what lets Audit Join reuse exact partial computations between random
/// walks ("Audit Join automatically leverages the caching of CTJ,
/// potentially avoiding re-computation when building the same prefix δ in
/// later random walks", §IV-D).
///
/// Every computation takes a [`BudgetMeter`] and ticks it per enumerated
/// row (once for a collapsed range), aborting when it trips. Partial
/// results are never memoized, so the caches stay exact.
pub struct CtjCounter<'g> {
    ig: &'g IndexedGraph,
    /// Shared so co-operating executors (Audit Join's estimator, pinned
    /// `Pr(a,b)` computations, parallel workers) reuse one plan.
    plan: std::sync::Arc<WalkPlan>,
    deps: Vec<DepKey>,
    /// Raw dependency sets behind [`CtjCounter::suffix_dep_vars`] (sorted).
    dep_vars: Vec<Vec<Var>>,
    /// `collapse[i]`: no step after `i` reads `i`'s out-variables, so every
    /// row of `i`'s range leads to an identical suffix (see
    /// [`CtjCounter::suffix_collapses`]).
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
    pub(crate) fn suffix_dep_vars(&self, step: usize) -> &[Var] {
        &self.dep_vars[step]
    }

    /// True when no later step reads `step`'s out-variables: all rows of
    /// `step`'s candidate range lead to the *same* suffix, so aggregates
    /// multiply by the fan-out instead of enumerating it.
    pub(crate) fn suffix_collapses(&self, step: usize) -> bool {
        self.collapse[step]
    }

    /// The walk plan driving the recursion.
    pub fn plan(&self) -> &WalkPlan {
        &self.plan
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
    /// prefix themselves (e.g. [`crate::CtjEngine`]'s distinct recursion)
    /// call this so their rows land in the same per-step counters as the
    /// memoized suffix work.
    pub(crate) fn note_row(&mut self, step: usize) {
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

    /// Plan step `step`'s index and its live range under `assignment`;
    /// `first` is the range when the caller has already resolved it.
    #[inline]
    pub(crate) fn resolve(
        &self,
        step: usize,
        first: Option<LiveRange>,
        assignment: &[u32],
    ) -> (&'g TrieIndex, LiveRange) {
        let s = &self.plan.steps()[step];
        let index = self.ig.require(s.access.order);
        let range = first.unwrap_or_else(|| {
            s.access.resolve_live(index, s.in_var.map(|(v, _)| assignment[v.index()]))
        });
        (index, range)
    }

    /// Number of completions of the suffix starting at `step`, given the
    /// bindings in `assignment` (`|Γ_δ|` where δ bound steps `0..step`).
    pub(crate) fn count_from(
        &mut self,
        step: usize,
        assignment: &mut [u32],
        meter: &mut BudgetMeter,
    ) -> Result<u64, BudgetExceeded> {
        self.suffix(step, assignment, meter)
    }

    /// True if the suffix starting at `step` has at least one completion.
    pub(crate) fn exists_from(
        &mut self,
        step: usize,
        assignment: &mut [u32],
        meter: &mut BudgetMeter,
    ) -> Result<bool, BudgetExceeded> {
        self.suffix(step, assignment, meter)
    }

    /// Probability that a random walk at `step` (with the given bindings)
    /// continues all the way to a full path: `Σ_extensions Π_{i≥step} 1/dᵢ`.
    pub fn mass_from(
        &mut self,
        step: usize,
        assignment: &mut [u32],
        meter: &mut BudgetMeter,
    ) -> Result<f64, BudgetExceeded> {
        self.suffix(step, assignment, meter)
    }

    /// The memoized suffix recursion behind the three semirings.
    fn suffix<S: Suffix>(
        &mut self,
        step: usize,
        assignment: &mut [u32],
        meter: &mut BudgetMeter,
    ) -> Result<S, BudgetExceeded> {
        if step == self.plan.len() {
            return Ok(S::DONE);
        }
        let key = self.deps[step].key(assignment);
        if let Some(k) = key {
            if let Some(&v) = S::memo(self)[step].get(&k) {
                self.stats.hits += 1;
                self.step_stats[step].hits += 1;
                return Ok(v);
            }
        }
        let (index, range) = self.resolve(step, None, assignment);
        let value = if range.is_empty() {
            S::EMPTY
        } else if self.collapse[step] {
            // No new bindings — or bindings nothing downstream reads:
            // every candidate row leads to the same suffix, so one
            // representative stands for the whole range.
            meter.tick()?;
            S::repeat(range.len() as u64, self.suffix(step + 1, assignment, meter)?)
        } else {
            let mut acc = S::EMPTY;
            for pos in index.positions(range) {
                meter.tick()?;
                self.step_stats[step].rows += 1;
                self.plan.extract_at(index, step, pos, assignment);
                if !S::fold(&mut acc, self.suffix(step + 1, assignment, meter)?) {
                    break;
                }
            }
            S::finish(acc, range.len() as u64)
        };
        if let Some(k) = key {
            S::memo(self)[step].insert(k, value);
            self.stats.misses += 1;
            self.step_stats[step].misses += 1;
        }
        Ok(value)
    }

    /// Exact per-group completion counts of the suffix starting at `step`:
    /// enumerate until `head` is bound, then close each branch with
    /// `CtjCounter::count_from` and call `emit(assignment, n)` with its
    /// count `n > 0`. Rows that neither the head nor a later step reads
    /// are multiplied instead of enumerated, and the last step is
    /// inlined. `first` is `step`'s range when the caller has already
    /// resolved it under `assignment`; deeper steps resolve their own. On a
    /// budget trip, `emit` has seen part of the branches.
    pub fn group_counts_from(
        &mut self,
        head: Var,
        step: usize,
        first: Option<LiveRange>,
        assignment: &mut [u32],
        meter: &mut BudgetMeter,
        mut emit: impl FnMut(&[u32], u64),
    ) -> Result<(), BudgetExceeded> {
        self.group_counts_rec(head, step, first, assignment, meter, 1, &mut emit)
    }

    #[allow(clippy::too_many_arguments)]
    fn group_counts_rec<F: FnMut(&[u32], u64)>(
        &mut self,
        head: Var,
        step: usize,
        first: Option<LiveRange>,
        assignment: &mut [u32],
        meter: &mut BudgetMeter,
        mult: u64,
        emit: &mut F,
    ) -> Result<(), BudgetExceeded> {
        let n = self.plan.len();
        if step == n || self.plan.binder_step(head) < step {
            let c = self
                .count_from(step, assignment, meter)?
                .checked_mul(mult)
                .expect("join size overflow");
            if c > 0 {
                emit(assignment, c);
            }
            return Ok(());
        }
        let (index, range) = self.resolve(step, first, assignment);
        if self.collapse[step] && !self.plan.steps()[step].out_vars.contains(&head) {
            // Nothing after this step (the head included) reads its bindings:
            // every row leads to the same recursion, so scale instead of
            // looping.
            if !range.is_empty() {
                meter.tick()?;
                self.step_stats[step].rows += 1;
                let mult = mult.checked_mul(range.len() as u64).expect("join size overflow");
                self.group_counts_rec(head, step + 1, None, assignment, meter, mult, emit)?;
            }
            return Ok(());
        }
        let last = step + 1 == n;
        for pos in index.positions(range) {
            meter.tick()?;
            self.step_stats[step].rows += 1;
            self.plan.extract_at(index, step, pos, assignment);
            if last {
                // The recursion would hit the base case (suffix count 1)
                // per row — inline it to skip the call.
                emit(assignment, mult);
            } else {
                self.group_counts_rec(head, step + 1, None, assignment, meter, mult, emit)?;
            }
        }
        Ok(())
    }

    /// Exact per-(a, b) suffix probability masses `M_δ(a, b)` of a walk
    /// prefix δ ending before `step`, scaled by `weight` and added to
    /// `out[pack2(a, b)]`: enumerate the suffix until both `alpha` and
    /// `beta` are bound, splitting the weight evenly over each range, then
    /// close with [`CtjCounter::mass_from`]. No range collapses: that would
    /// reorder the float sums. `first` is as in
    /// [`CtjCounter::group_counts_from`]; on a budget trip `out` is
    /// partially filled.
    #[allow(clippy::too_many_arguments)]
    pub fn pair_masses_from(
        &mut self,
        alpha: Var,
        beta: Var,
        step: usize,
        first: Option<LiveRange>,
        weight: f64,
        assignment: &mut [u32],
        meter: &mut BudgetMeter,
        out: &mut FxHashMap<u64, f64>,
    ) -> Result<(), BudgetExceeded> {
        if self.plan.binder_step(alpha) < step && self.plan.binder_step(beta) < step {
            let m = self.mass_from(step, assignment, meter)?;
            if m > 0.0 {
                let key = pack2(assignment[alpha.index()], assignment[beta.index()]);
                *out.entry(key).or_insert(0.0) += weight * m;
            }
            return Ok(());
        }
        debug_assert!(step < self.plan.len(), "all variables bound at plan end");
        let (index, range) = self.resolve(step, first, assignment);
        if range.is_empty() {
            return Ok(());
        }
        let w = weight / range.len() as f64;
        for pos in index.positions(range) {
            meter.tick()?;
            self.step_stats[step].rows += 1;
            self.plan.extract_at(index, step, pos, assignment);
            self.pair_masses_from(alpha, beta, step + 1, None, w, assignment, meter, out)?;
        }
        Ok(())
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
    Ok(counter.count_from(0, &mut assignment, &mut ExecBudget::unlimited().meter())?)
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
        let mut meter = ExecBudget::unlimited().meter();
        assert_eq!(counter.count_from(0, &mut asg, &mut meter).unwrap(), 2);
        // The two paths meet at m — the suffix count under m is computed
        // once and hit once.
        assert!(counter.cache_stats().hits >= 1, "stats: {:?}", counter.cache_stats());
        // A second full evaluation is answered entirely from the cache.
        let h0 = counter.cache_stats().hits;
        assert_eq!(counter.count_from(0, &mut asg, &mut meter).unwrap(), 2);
        assert!(counter.cache_stats().hits > h0);
    }

    #[test]
    fn step_stats_localise_cache_traffic() {
        let (ig, p, q, r) = diamond();
        let query = path3(p, q, r);
        let plan = WalkPlan::canonical(&query, &kgoa_index::IndexOrder::PAPER_DEFAULT).unwrap();
        let mut counter = CtjCounter::new(&ig, plan);
        let mut asg = vec![0u32; query.var_count()];
        let mut meter = ExecBudget::unlimited().meter();
        assert_eq!(counter.count_from(0, &mut asg, &mut meter).unwrap(), 2);
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
    }

    #[test]
    fn exists_from_early_exits() {
        let (ig, p, q, r) = diamond();
        let query = path3(p, q, r);
        let plan = WalkPlan::canonical(&query, &kgoa_index::IndexOrder::PAPER_DEFAULT).unwrap();
        let mut counter = CtjCounter::new(&ig, plan);
        let mut asg = vec![0u32; query.var_count()];
        let mut meter = ExecBudget::unlimited().meter();
        assert!(counter.exists_from(0, &mut asg, &mut meter).unwrap());
        // Suffix from a binding that cannot reach: bind v2 to a node with
        // no r-edge (x).
        let x = ig.dict().lookup_iri("u:x").unwrap().raw();
        asg[2] = x;
        assert!(!counter.exists_from(2, &mut asg, &mut meter).unwrap());
    }

    #[test]
    fn mass_from_full_query_equals_success_probability() {
        let (ig, p, q, r) = diamond();
        let query = path3(p, q, r);
        let plan = WalkPlan::canonical(&query, &kgoa_index::IndexOrder::PAPER_DEFAULT).unwrap();
        let mut counter = CtjCounter::new(&ig, plan);
        let mut asg = vec![0u32; query.var_count()];
        let mut meter = ExecBudget::unlimited().meter();
        // Every walk from the two p-triples succeeds (both x and y reach m,
        // m reaches z): success probability is 1.
        let mass = counter.mass_from(0, &mut asg, &mut meter).unwrap();
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
        let mut meter = ExecBudget::unlimited().meter();
        let mass = counter.mass_from(0, &mut asg, &mut meter).unwrap();
        assert!((mass - 0.5).abs() < 1e-12, "mass = {mass}");
    }
}
