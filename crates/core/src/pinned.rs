//! Online computation of `Pr(a, b)` — the probability that a random walk
//! completes with group value `a` and counted value `b`.
//!
//! The unbiased distinct estimator (Eq. 1 / line 13 of Fig. 7) divides by
//! `Pr(a, b)`. Per §IV-D: "the probability Pr(b) is computed online, after
//! sampling the partial random path δ, by using CTJ to materialize all
//! paths leading to the sampled b, summing up their probabilities, and
//! caching the results."
//!
//! Implementation: pin α = a and β = b in the query (turning those
//! variables into constants), enumerate the pinned query's full
//! assignments starting from the (now highly selective) pinned pattern,
//! and for every assignment γ accumulate the *original* walk probability
//! `Π 1/dᵢ(γ)`, where `dᵢ(γ)` is the fan-out the original walk plan would
//! see at step `i` under γ. Results are cached per (a, b) pair.
//!
//! Two things keep an uncached pair cheap (on root charts the cache never
//! hits, so the computation *is* the hot path):
//!
//! - **One plan per query.** Which pattern follows which, every step's
//!   index order and prefix layout depend on *where* α and β sit, never on
//!   their values. `Pinned` is therefore planned once, on the first
//!   uncached pair; a later pair only writes its two pins into the prefix
//!   slots and the reused assignment buffer.
//! - **Fan-outs are carried down the enumeration.** The `dᵢ` live in an
//!   array in plan order and each is resolved only when the binding it
//!   depends on changes: never again for a step without in-variable, once
//!   per pair when the in-variable is α or β, otherwise when the pinned
//!   step that binds the in-variable advances — and with no seek at all
//!   when a pinned step *is* the original step (same pattern, same
//!   in-variable, no pin), whose range it has just resolved. A leaf only
//!   divides `1.0` by the array.

use kgoa_engine::{BudgetExceeded, BudgetMeter, ExecBudget};
use kgoa_index::{pack2, FxHashMap, IndexOrder, IndexedGraph, LiveRange, TrieIndex};
use kgoa_query::{
    attr_ndv, pattern_cardinality, ExplorationQuery, PatternTerm, PrefixComp, QueryError,
    TriplePattern, Var, WalkAccess, WalkPlan,
};
use kgoa_rdf::TermId;

/// Work counters of one [`PrAb`]: what the `Pr(a, b)` layer of a run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrAbStats {
    /// Pinned plans built: 0 until the first uncached pair, 1 ever after.
    pub plans: u64,
    /// Pairs computed (and cached).
    pub pairs: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Rows enumerated by the pinned steps.
    pub rows: u64,
    /// Index ranges resolved, by pinned steps and for original fan-outs.
    pub seeks: u64,
}

/// One step of the pinned enumeration.
struct PinStep<'g> {
    index: &'g TrieIndex,
    /// The prefix levels listed in [`Pinned::alpha_slots`] /
    /// [`Pinned::beta_slots`] hold the current pair's pins.
    access: WalkAccess,
    in_var: Option<Var>,
    out_vars: Vec<Var>,
    /// The original-plan step this step reproduces (same pattern, same
    /// in-variable, no pin): its fan-out is this step's range length.
    same_as: Option<usize>,
    /// The other original-plan steps whose in-variable this step binds;
    /// their fan-outs are resolved each time this step advances.
    dependents: Vec<usize>,
}

/// The pinned query's plan: built once per [`PrAb`], immutable but for the
/// pins.
struct Pinned<'g> {
    steps: Vec<PinStep<'g>>,
    /// `(step, prefix level)` of every slot holding α.
    alpha_slots: Vec<(usize, usize)>,
    /// `(step, prefix level)` of every slot holding β.
    beta_slots: Vec<(usize, usize)>,
    /// The index of every original-plan step.
    orig_index: Vec<&'g TrieIndex>,
    /// Original-plan steps whose in-variable is α or β.
    per_pair: Vec<usize>,
}

/// Buffers reused across pairs. Every entry is written before it is read
/// on the way to a leaf, so an aborted enumeration leaves nothing behind.
struct Scratch {
    assignment: Vec<u32>,
    /// `dᵢ` of the original plan, in plan order.
    fanout: Vec<usize>,
    /// The current pair's range of each pinned step without in-variable.
    ranges: Vec<LiveRange>,
    total: f64,
}

/// Estimated matches of `pattern` once its α/β positions are bound: its
/// cardinality spread evenly over the distinct values at those positions.
/// A statistic of the query alone, so the plan it ranks holds for every
/// pair.
fn pinned_cardinality(ig: &IndexedGraph, pattern: &TriplePattern, alpha: Var, beta: Var) -> f64 {
    let mut est = pattern_cardinality(ig, pattern) as f64;
    for (v, pos) in pattern.vars() {
        if v == alpha || v == beta {
            est /= attr_ndv(ig, pattern, pos) as f64;
        }
    }
    est
}

impl<'g> Pinned<'g> {
    /// Plan a connected enumeration order over the pinned patterns,
    /// starting from the pattern that contained β (the most selective
    /// anchor — "all paths leading to the sampled b"). Pinning may split
    /// the join graph; new components restart at the pattern expected to
    /// match the fewest triples. The buffers come back sized, with the
    /// fan-outs that no pair can change already resolved.
    fn build(
        ig: &'g IndexedGraph,
        query: &ExplorationQuery,
        plan: &WalkPlan,
    ) -> Result<(Self, Scratch), QueryError> {
        let (alpha, beta) = (query.alpha(), query.beta());
        let is_pin = |t: PatternTerm| t == PatternTerm::Var(alpha) || t == PatternTerm::Var(beta);
        // The pins' values are written per pair; planning only needs to
        // know that the positions are bound.
        let pinned: Vec<TriplePattern> = query
            .patterns()
            .iter()
            .map(|p| {
                let mut q = *p;
                for slot in [&mut q.s, &mut q.p, &mut q.o] {
                    if is_pin(*slot) {
                        *slot = PatternTerm::Const(TermId(0));
                    }
                }
                q
            })
            .collect();
        let n = pinned.len();
        let mut next_start = query.patterns().iter().position(|p| p.position_of(beta).is_some());
        debug_assert!(next_start.is_some(), "β occurs in the query");

        let mut used = vec![false; n];
        let mut bound = vec![false; query.var_count()];
        let mut steps: Vec<PinStep<'g>> = Vec::with_capacity(n);
        let mut pattern_of: Vec<usize> = Vec::with_capacity(n);
        let (mut alpha_slots, mut beta_slots) = (Vec::new(), Vec::new());
        while steps.len() < n {
            // Pick the next pattern: connected if possible, else restart.
            let unused = || (0..n).filter(|&i| !used[i]);
            let pi = unused()
                .find(|&i| pinned[i].vars().any(|(v, _)| bound[v.index()]))
                .or_else(|| next_start.take().filter(|s| !used[*s]))
                .or_else(|| {
                    unused().min_by(|&x, &y| {
                        let rank =
                            |i: usize| pinned_cardinality(ig, &query.patterns()[i], alpha, beta);
                        rank(x).total_cmp(&rank(y))
                    })
                })
                .expect("patterns remain");
            used[pi] = true;
            let in_var = pinned[pi].vars().find(|(v, _)| bound[v.index()]);
            let access = WalkAccess::plan(
                &pinned[pi],
                in_var.map(|(_, pos)| pos),
                &IndexOrder::PAPER_DEFAULT,
                pi,
            )?;
            let levels = access.order.positions();
            for (level, pos) in levels[..access.prefix_len()].iter().enumerate() {
                match query.patterns()[pi].get(*pos) {
                    PatternTerm::Var(v) if v == alpha => alpha_slots.push((steps.len(), level)),
                    PatternTerm::Var(v) if v == beta => beta_slots.push((steps.len(), level)),
                    _ => {}
                }
            }
            let out_vars: Vec<Var> =
                access.free.iter().filter_map(|pos| pinned[pi].get(*pos).as_var()).collect();
            for v in &out_vars {
                bound[v.index()] = true;
            }
            pattern_of.push(pi);
            steps.push(PinStep {
                index: ig.require(access.order),
                access,
                in_var: in_var.map(|(v, _)| v),
                out_vars,
                same_as: None,
                dependents: Vec::new(),
            });
        }

        // Decide, per original step, what its fan-out depends on.
        let mut sc = Scratch {
            assignment: vec![0; query.var_count()],
            fanout: vec![0; plan.len()],
            ranges: vec![LiveRange::EMPTY; n],
            total: 0.0,
        };
        let mut orig_index = Vec::with_capacity(plan.len());
        let mut per_pair = Vec::new();
        for (i, o) in plan.steps().iter().enumerate() {
            let index = ig.require(o.access.order);
            orig_index.push(index);
            match o.in_var.map(|(v, _)| v) {
                None => sc.fanout[i] = o.access.resolve_live(index, None).len(),
                Some(v) if v == alpha || v == beta => per_pair.push(i),
                Some(v) => {
                    // A pinned pattern always has a longer prefix than the
                    // original, so equal accesses mean no pin.
                    let twin = (0..n).find(|&j| {
                        pattern_of[j] == o.pattern_idx
                            && steps[j].in_var == Some(v)
                            && steps[j].access == o.access
                    });
                    match twin {
                        Some(j) => steps[j].same_as = Some(i),
                        None => steps
                            .iter_mut()
                            .find(|s| s.out_vars.contains(&v))
                            .expect("a pinned step binds every unpinned variable")
                            .dependents
                            .push(i),
                    }
                }
            }
        }
        Ok((Pinned { steps, alpha_slots, beta_slots, orig_index, per_pair }, sc))
    }

    /// Write the pair's values into the prefix slots that hold α and β.
    fn pin(&mut self, a: u32, b: u32) {
        for (slots, value) in [(&self.alpha_slots, a), (&self.beta_slots, b)] {
            for &(step, level) in slots {
                self.steps[step].access.prefix[level] = PrefixComp::Const(TermId(value));
            }
        }
    }

    /// Enumerate the pinned steps from `j` on, adding `Π 1/dᵢ` to
    /// `sc.total` at every full assignment.
    fn enumerate(
        &self,
        orig: &WalkPlan,
        j: usize,
        sc: &mut Scratch,
        stats: &mut PrAbStats,
        meter: &mut BudgetMeter,
    ) -> Result<(), BudgetExceeded> {
        let Some(s) = self.steps.get(j) else {
            let mut p = 1.0f64;
            for &d in &sc.fanout {
                debug_assert!(d > 0, "enumerated assignment must be walkable");
                p /= d as f64;
            }
            sc.total += p;
            return Ok(());
        };
        let range = match s.in_var {
            None => sc.ranges[j],
            Some(v) => {
                stats.seeks += 1;
                s.access.resolve_live(s.index, Some(sc.assignment[v.index()]))
            }
        };
        if let Some(i) = s.same_as {
            sc.fanout[i] = range.len();
        }
        let k = s.access.prefix_len();
        for pos in s.index.positions(range) {
            meter.tick()?;
            stats.rows += 1;
            if !s.out_vars.is_empty() {
                let row = s.index.row_from(pos, k);
                for (x, v) in s.out_vars.iter().enumerate() {
                    sc.assignment[v.index()] = row[k + x];
                }
            }
            for &i in &s.dependents {
                stats.seeks += 1;
                sc.fanout[i] = orig_fanout(orig, &self.orig_index, i, &sc.assignment);
            }
            self.enumerate(orig, j + 1, sc, stats, meter)?;
        }
        Ok(())
    }
}

/// Fan-out of original-plan step `i` (which has an in-variable) under
/// `assignment`.
fn orig_fanout(orig: &WalkPlan, index: &[&TrieIndex], i: usize, assignment: &[u32]) -> usize {
    let step = &orig.steps()[i];
    let (v, _) = step.in_var.expect("step resolved per binding has an in-variable");
    step.access.resolve_live(index[i], Some(assignment[v.index()])).len()
}

/// Computes and caches `Pr(a, b)` values for one query.
pub struct PrAb<'g> {
    ig: &'g IndexedGraph,
    query: ExplorationQuery,
    /// Shared so parallel workers reuse one plan instead of deep-cloning.
    plan: std::sync::Arc<WalkPlan>,
    cache: FxHashMap<u64, f64>,
    /// Built on the first uncached pair (a count query never asks).
    pinned: Option<(Pinned<'g>, Scratch)>,
    stats: PrAbStats,
}

impl<'g> PrAb<'g> {
    /// Create a computer for a query whose walks follow `plan`.
    pub fn new(
        ig: &'g IndexedGraph,
        query: ExplorationQuery,
        plan: impl Into<std::sync::Arc<WalkPlan>>,
    ) -> Self {
        PrAb {
            ig,
            query,
            plan: plan.into(),
            cache: FxHashMap::default(),
            pinned: None,
            stats: PrAbStats::default(),
        }
    }

    /// Work counters so far.
    pub fn stats(&self) -> PrAbStats {
        self.stats
    }

    /// `Pr(a, b)`: summed probability of all full walks assigning `a` to α
    /// and `b` to β.
    pub fn pr(&mut self, a: u32, b: u32) -> f64 {
        let mut meter = ExecBudget::unlimited().meter();
        self.try_pr(a, b, &mut meter)
            .expect("unlimited budget cannot trip")
    }

    /// [`PrAb::pr`] under a cooperative budget: the pinned enumeration of
    /// an uncached pair ticks the meter per row and aborts when it trips.
    /// Partial sums are never cached, so the cache stays exact.
    pub fn try_pr(
        &mut self,
        a: u32,
        b: u32,
        meter: &mut BudgetMeter,
    ) -> Result<f64, BudgetExceeded> {
        let key = pack2(a, b);
        if let Some(&p) = self.cache.get(&key) {
            self.stats.hits += 1;
            return Ok(p);
        }
        let p = self.compute(a, b, meter)?;
        self.cache.insert(key, p);
        self.stats.pairs += 1;
        Ok(p)
    }

    fn compute(&mut self, a: u32, b: u32, meter: &mut BudgetMeter) -> Result<f64, BudgetExceeded> {
        let (pinned, sc) = self.pinned.get_or_insert_with(|| {
            self.stats.plans += 1;
            Pinned::build(self.ig, &self.query, &self.plan)
                .unwrap_or_else(|e| unreachable!("pinned plan for a valid query: {e:?}"))
        });
        pinned.pin(a, b);
        sc.assignment[self.query.alpha().index()] = a;
        sc.assignment[self.query.beta().index()] = b;
        for &i in &pinned.per_pair {
            sc.fanout[i] = orig_fanout(&self.plan, &pinned.orig_index, i, &sc.assignment);
        }
        let mut seeks = pinned.per_pair.len();
        for (j, s) in pinned.steps.iter().enumerate() {
            if s.in_var.is_none() {
                sc.ranges[j] = s.access.resolve_live(s.index, None);
                seeks += 1;
            }
        }
        self.stats.seeks += seeks as u64;
        sc.total = 0.0;
        pinned.enumerate(&self.plan, 0, sc, &mut self.stats, meter)?;
        Ok(sc.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_query::TriplePattern;
    use kgoa_rdf::{GraphBuilder, Triple};

    /// Figure-6-like shape: two sources into x, one into y; x,y -q-> c.
    /// Walk order (p-pattern, q-pattern): d₀ = 3 (p-triples).
    fn graph() -> (IndexedGraph, TermId, TermId) {
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let s1 = b.dict_mut().intern_iri("u:s1");
        let s2 = b.dict_mut().intern_iri("u:s2");
        let x = b.dict_mut().intern_iri("u:x");
        let y = b.dict_mut().intern_iri("u:y");
        let c = b.dict_mut().intern_iri("u:c");
        for t in [
            Triple::new(s1, p, x),
            Triple::new(s2, p, x),
            Triple::new(s1, p, y),
            Triple::new(x, q, c),
            Triple::new(y, q, c),
        ] {
            b.add(t);
        }
        (IndexedGraph::build(b.build()), p, q)
    }

    #[test]
    fn pr_ab_sums_path_probabilities() {
        let (ig, p, q) = graph();
        // ?0 -p-> ?1 -q-> ?2; α = ?2 (class), β = ?1 (object).
        let query = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
            ],
            Var(2),
            Var(1),
            true,
        )
        .unwrap();
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let mut prab = PrAb::new(&ig, query, plan);
        let x = ig.dict().lookup_iri("u:x").unwrap().raw();
        let y = ig.dict().lookup_iri("u:y").unwrap().raw();
        let c = ig.dict().lookup_iri("u:c").unwrap().raw();
        // Walks: pick one of 3 p-triples (1/3 each); from x or y the q-step
        // is deterministic (d = 1). Two p-triples land on x → Pr(c, x) = 2/3.
        let px = prab.pr(c, x);
        assert!((px - 2.0 / 3.0).abs() < 1e-12, "pr = {px}");
        let py = prab.pr(c, y);
        assert!((py - 1.0 / 3.0).abs() < 1e-12, "pr = {py}");
        // Total over all (a, b) pairs is the overall success probability.
        assert!((px + py - 1.0).abs() < 1e-12);
        assert_eq!(prab.stats().pairs, 2);
    }

    #[test]
    fn pr_of_unreachable_pair_is_zero() {
        let (ig, p, q) = graph();
        let query = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
            ],
            Var(2),
            Var(1),
            true,
        )
        .unwrap();
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let mut prab = PrAb::new(&ig, query, plan);
        let c = ig.dict().lookup_iri("u:c").unwrap().raw();
        assert_eq!(prab.pr(c, 999_999), 0.0);
    }

    #[test]
    fn pr_with_existence_branch() {
        // Query with a closure-style existence pattern hanging off the
        // path: ?0 -p-> ?1 -q-> ?2 . ?1 -q-> c  (β=?1 in two patterns is
        // illegal; hang it off ?0 instead): ?0 -p-> ?1 . ?0 -p-> x? — keep
        // it simple: pin to a 1-pattern query.
        let (ig, p, _) = graph();
        let query = ExplorationQuery::new(
            vec![TriplePattern::new(Var(0), p, Var(1))],
            Var(0),
            Var(1),
            true,
        )
        .unwrap();
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let mut prab = PrAb::new(&ig, query, plan);
        let s1 = ig.dict().lookup_iri("u:s1").unwrap().raw();
        let x = ig.dict().lookup_iri("u:x").unwrap().raw();
        // Pr(s1, x): exactly the one triple out of 3.
        let pr = prab.pr(s1, x);
        assert!((pr - 1.0 / 3.0).abs() < 1e-12, "pr = {pr}");
    }
}
