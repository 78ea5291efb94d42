//! LeapFrog Trie Join (Veldhuizen 2014): a worst-case-optimal backtracking
//! join over trie iterators (§IV-B of the paper).
//!
//! Variables are processed in the plan's global order. For each variable,
//! the cursors of all patterns containing it are positioned at that
//! variable's trie level and *leapfrogged*: repeatedly seek every cursor to
//! the current maximum key until all agree, yielding exactly the
//! intersection of the per-pattern key sets. Constants and already-bound
//! variables along the way are navigated by `seek`.
//!
//! This implementation enumerates every full assignment; it deliberately
//! does **no** caching — that is what Cached Trie Join adds on top (and the
//! CTJ-vs-LFTJ benchmark measures exactly this difference).

use kgoa_index::{IndexedGraph, TrieCursor};
use kgoa_query::{ExplorationQuery, JoinLevel, JoinPlan};

use crate::budget::{BudgetExceeded, BudgetMeter, ExecBudget};
use crate::error::EngineError;

/// Per-variable operator counters for one LFTJ execution, indexed by the
/// variable's rank in the plan order. Plain `u64`s bumped unconditionally
/// (an increment next to a trie seek is noise); read them back with
/// [`LftjExec::op_stats`] or let [`LftjExec::run_governed`] attribute
/// them to the active [`kgoa_obs::profile`] scope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LftjVarStats {
    /// Leapfrog alignment rounds at this variable's level.
    pub probes: u64,
    /// Trie `seek` calls issued for this variable (navigation + leapfrog).
    pub seeks: u64,
    /// `next_key` advances past a matched key at this level.
    pub next_keys: u64,
    /// Seeks that fell through to the exponential-then-binary gallop.
    pub gallops: u64,
    /// Seeks resolved by the small-range linear fast path (including
    /// no-op seeks that were already positioned).
    pub linear_hits: u64,
}

impl LftjVarStats {
    /// Record one seek together with how the cursor resolved it.
    #[inline]
    fn note_seek(&mut self, outcome: kgoa_index::SeekOutcome) {
        self.seeks += 1;
        match outcome {
            kgoa_index::SeekOutcome::Gallop => self.gallops += 1,
            kgoa_index::SeekOutcome::Linear => self.linear_hits += 1,
        }
    }
}

/// An LFTJ execution over one query. Construct with [`LftjExec::new`], then
/// call [`LftjExec::run_governed`] with a budget and a callback receiving
/// each full assignment (indexed by variable id).
pub struct LftjExec<'g> {
    plan: JoinPlan,
    cursors: Vec<TrieCursor<'g>>,
    assignment: Vec<u32>,
    /// Per-rank operator counters (see [`LftjVarStats`]).
    op_stats: Vec<LftjVarStats>,
    /// True once a constant-only pattern has been verified absent — the
    /// result is empty regardless of the rest.
    empty: bool,
}

impl<'g> LftjExec<'g> {
    /// Prepare an execution for the given plan.
    pub fn new(
        ig: &'g IndexedGraph,
        query: &ExplorationQuery,
        plan: JoinPlan,
    ) -> Result<Self, EngineError> {
        let mut cursors = Vec::with_capacity(query.patterns().len());
        let mut empty = false;
        for (pi, pattern) in query.patterns().iter().enumerate() {
            let access = &plan.accesses()[pi];
            let index = ig.require(access.order);
            cursors.push(TrieCursor::over_index(index));
            if pattern.var_count() == 0 {
                // Fully-constant pattern: a simple containment check.
                let row = access.levels.map(|l| match l {
                    JoinLevel::Const(c) => c.raw(),
                    JoinLevel::Var(_) => unreachable!("no vars in constant pattern"),
                });
                if !index.contains_row(row[0], row[1], row[2]) {
                    empty = true;
                }
            }
        }
        let assignment = vec![0u32; query.var_count()];
        let op_stats = vec![LftjVarStats::default(); plan.var_order().len()];
        Ok(LftjExec { plan, cursors, assignment, op_stats, empty })
    }

    /// Per-variable operator counters accumulated so far, indexed by plan
    /// rank (same order as `plan.var_order()`).
    pub fn op_stats(&self) -> &[LftjVarStats] {
        &self.op_stats
    }

    /// Emit one attribution leaf per plan variable into the active
    /// profile scope (no-op when none). Called after a run.
    pub fn profile_emit(&self) {
        if !kgoa_obs::profile::active() {
            return;
        }
        for (rank, st) in self.op_stats.iter().enumerate() {
            let var = self.plan.var_order()[rank];
            kgoa_obs::profile::leaf(
                format!("lftj.v{rank}[?{}]", var.index()),
                &[
                    ("probes", st.probes),
                    ("seeks", st.seeks),
                    ("next_keys", st.next_keys),
                    ("gallops", st.gallops),
                    ("linear_hits", st.linear_hits),
                ],
            );
        }
    }

    /// Run the join, invoking `on_result` once per full assignment.
    #[cfg(test)]
    pub fn run(&mut self, mut on_result: impl FnMut(&[u32])) {
        self.run_governed(&ExecBudget::unlimited(), |a| on_result(a))
            .expect("unlimited budget cannot trip");
    }

    /// Run the join under a cooperative budget. On a tripped checkpoint the
    /// enumeration stops where it is and the violation is returned; results
    /// already reported through `on_result` are a valid prefix.
    pub fn run_governed(
        &mut self,
        budget: &ExecBudget,
        mut on_result: impl FnMut(&[u32]),
    ) -> Result<(), BudgetExceeded> {
        if self.empty {
            return Ok(());
        }
        let _prof = kgoa_obs::profile::span("engine.lftj.run");
        let mut meter = budget.meter();
        let result = self.solve(0, &mut meter, &mut on_result);
        self.profile_emit();
        result
    }

    fn solve(
        &mut self,
        rank: usize,
        meter: &mut BudgetMeter,
        on_result: &mut impl FnMut(&[u32]),
    ) -> Result<(), BudgetExceeded> {
        meter.tick()?;
        if rank == self.plan.var_order().len() {
            on_result(&self.assignment);
            return Ok(());
        }
        // Navigate every cursor containing this variable down to the
        // variable's level, seeking constants and bound variables on the
        // way; record descents for unwinding.
        let occs: &[(usize, usize)] = self.plan.occurrences(rank);
        debug_assert!(!occs.is_empty(), "every variable occurs somewhere");
        let occs = occs.to_vec();
        let mut descended: Vec<(usize, usize)> = Vec::with_capacity(occs.len());
        let mut ok = true;
        'nav: for &(pi, li) in &occs {
            let mut opened = 0usize;
            while self.cursors[pi].depth() < li + 1 {
                let lvl = self.cursors[pi].depth();
                self.cursors[pi].open();
                opened += 1;
                match self.plan.accesses()[pi].levels[lvl] {
                    JoinLevel::Const(c) => {
                        let c = c.raw();
                        let outcome = self.cursors[pi].seek(c);
                        self.op_stats[rank].note_seek(outcome);
                        if self.cursors[pi].at_end() || self.cursors[pi].key() != c {
                            ok = false;
                        }
                    }
                    JoinLevel::Var(w) => {
                        if self.plan.rank(w) < rank {
                            let val = self.assignment[w.index()];
                            let outcome = self.cursors[pi].seek(val);
                            self.op_stats[rank].note_seek(outcome);
                            if self.cursors[pi].at_end() || self.cursors[pi].key() != val {
                                ok = false;
                            }
                        } else {
                            debug_assert_eq!(self.plan.rank(w), rank);
                            debug_assert_eq!(lvl, li);
                            if self.cursors[pi].at_end() {
                                ok = false;
                            }
                        }
                    }
                }
                if !ok {
                    descended.push((pi, opened));
                    break 'nav;
                }
            }
            if self.cursors[pi].depth() == li + 1 && opened == 0 {
                // Already positioned from an earlier shared variable; the
                // level must be open and valid.
            }
            descended.push((pi, opened));
        }

        // On a tripped budget the error is held until the cursors are
        // unwound, so the executor stays structurally consistent.
        let mut result = Ok(());
        if ok {
            result = self.leapfrog(rank, &occs, meter, on_result);
        }

        for &(pi, opened) in descended.iter().rev() {
            for _ in 0..opened {
                self.cursors[pi].up();
            }
        }
        result
    }

    /// Classic leapfrog intersection at the variable's levels, recursing on
    /// every common key.
    fn leapfrog(
        &mut self,
        rank: usize,
        occs: &[(usize, usize)],
        meter: &mut BudgetMeter,
        on_result: &mut impl FnMut(&[u32]),
    ) -> Result<(), BudgetExceeded> {
        // All cursors are open at the variable's level and not at end.
        let var = self.plan.var_order()[rank];
        'outer: loop {
            meter.tick()?;
            self.op_stats[rank].probes += 1;
            // Align all cursors on a common key.
            let mut maxk = 0;
            for &(pi, _) in occs {
                maxk = maxk.max(self.cursors[pi].key());
            }
            loop {
                let mut all_eq = true;
                for &(pi, _) in occs {
                    if self.cursors[pi].key() < maxk {
                        let outcome = self.cursors[pi].seek(maxk);
                        self.op_stats[rank].note_seek(outcome);
                        if self.cursors[pi].at_end() {
                            break 'outer;
                        }
                        maxk = maxk.max(self.cursors[pi].key());
                        all_eq = false;
                    }
                }
                if all_eq {
                    break;
                }
            }
            self.assignment[var.index()] = maxk;
            self.solve(rank + 1, meter, on_result)?;
            // Advance the first cursor past the matched key.
            let (p0, _) = occs[0];
            self.op_stats[rank].next_keys += 1;
            self.cursors[p0].next_key();
            if self.cursors[p0].at_end() {
                break;
            }
        }
        Ok(())
    }
}

/// Count all full assignments (`|Γ|`, the join size) with LFTJ.
pub fn lftj_count(ig: &IndexedGraph, query: &ExplorationQuery) -> Result<u64, EngineError> {
    let plan = JoinPlan::canonical(query, &kgoa_index::IndexOrder::PAPER_DEFAULT)?;
    let mut exec = LftjExec::new(ig, query, plan)?;
    let mut n = 0u64;
    exec.run_governed(&ExecBudget::unlimited(), |_| n += 1)?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_query::{TriplePattern, Var};
    use kgoa_rdf::{GraphBuilder, TermId, Triple};

    /// Builds the running-example shape: a diamond graph
    /// a -p-> {x, y}, {x, y} -q-> m, m -r-> z.
    fn diamond() -> (IndexedGraph, TermId, TermId, TermId) {
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let r = b.dict_mut().intern_iri("u:r");
        let node = |b: &mut GraphBuilder, n: &str| b.dict_mut().intern_iri(format!("u:{n}"));
        let a = node(&mut b, "a");
        let x = node(&mut b, "x");
        let y = node(&mut b, "y");
        let m = node(&mut b, "m");
        let z = node(&mut b, "z");
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

    #[test]
    fn counts_paths_through_diamond() {
        let (ig, p, q, r) = diamond();
        // ?0 -p-> ?1 -q-> ?2 -r-> ?3 : two paths (through x and y).
        let query = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
                TriplePattern::new(Var(2), r, Var(3)),
            ],
            Var(3),
            Var(2),
            false,
        )
        .unwrap();
        assert_eq!(lftj_count(&ig, &query).unwrap(), 2);
    }

    #[test]
    fn enumerates_full_assignments() {
        let (ig, p, q, _) = diamond();
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
        let plan = JoinPlan::canonical(&query, &kgoa_index::IndexOrder::PAPER_DEFAULT).unwrap();
        let mut exec = LftjExec::new(&ig, &query, plan).unwrap();
        let mut rows: Vec<Vec<u32>> = Vec::new();
        exec.run(|a| rows.push(a.to_vec()));
        assert_eq!(rows.len(), 2);
        let x = ig.dict().lookup_iri("u:x").unwrap().raw();
        let y = ig.dict().lookup_iri("u:y").unwrap().raw();
        let mids: Vec<u32> = rows.iter().map(|r| r[1]).collect();
        assert!(mids.contains(&x) && mids.contains(&y));
    }

    #[test]
    fn op_stats_attribute_work_per_variable() {
        let (ig, p, q, _) = diamond();
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
        let plan = JoinPlan::canonical(&query, &kgoa_index::IndexOrder::PAPER_DEFAULT).unwrap();
        let mut exec = LftjExec::new(&ig, &query, plan).unwrap();
        exec.run(|_| {});
        let stats = exec.op_stats();
        assert_eq!(stats.len(), 3);
        // Every variable level ran at least one leapfrog round, and the
        // join did real work somewhere.
        assert!(stats.iter().all(|s| s.probes > 0), "{stats:?}");
        assert!(stats.iter().map(|s| s.next_keys).sum::<u64>() > 0, "{stats:?}");
        // Every seek resolved either on the linear fast path or by gallop.
        for s in stats {
            assert_eq!(s.gallops + s.linear_hits, s.seeks, "{stats:?}");
        }
    }

    #[test]
    fn empty_when_predicate_missing() {
        let (ig, p, _, _) = diamond();
        let missing = TermId(9999);
        let query = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), missing, Var(2)),
            ],
            Var(2),
            Var(1),
            false,
        )
        .unwrap();
        assert_eq!(lftj_count(&ig, &query).unwrap(), 0);
    }

    #[test]
    fn constant_object_restricts() {
        let (ig, p, q, _) = diamond();
        let m = ig.dict().lookup_iri("u:m").unwrap();
        // ?0 -p-> ?1 -q-> m : two results.
        let query = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, m),
            ],
            Var(0),
            Var(1),
            false,
        )
        .unwrap();
        assert_eq!(lftj_count(&ig, &query).unwrap(), 2);
        // With a non-object constant: zero.
        let a = ig.dict().lookup_iri("u:a").unwrap();
        let query0 = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, a),
            ],
            Var(0),
            Var(1),
            false,
        )
        .unwrap();
        assert_eq!(lftj_count(&ig, &query0).unwrap(), 0);
    }

    #[test]
    fn variable_predicate_join() {
        let (ig, _, _, _) = diamond();
        // ?0 ?1 ?2 — all 5 triples.
        let query = ExplorationQuery::new(
            vec![TriplePattern::new(Var(0), Var(1), Var(2))],
            Var(1),
            Var(0),
            false,
        )
        .unwrap();
        assert_eq!(lftj_count(&ig, &query).unwrap(), 5);
    }

    #[test]
    fn single_pattern_with_constant() {
        let (ig, p, _, _) = diamond();
        let query = ExplorationQuery::new(
            vec![TriplePattern::new(Var(0), p, Var(1))],
            Var(0),
            Var(1),
            false,
        )
        .unwrap();
        assert_eq!(lftj_count(&ig, &query).unwrap(), 2);
    }
}
