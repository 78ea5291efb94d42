//! Yannakakis-style semi-join evaluation for grouped distinct counts.
//!
//! For acyclic queries, a bottom-up semi-join sweep rooted at the *chart
//! pattern* (the pattern containing both α and β — every query produced by
//! the exploration model has one) leaves exactly the root tuples that
//! participate in at least one full join result. The distinct (α, β) pairs
//! of those tuples are then read off directly, without ever enumerating
//! join results. This serves as the fast, independently-implemented ground
//! truth for the benchmark harness's error measurements.

use kgoa_index::{FxHashMap, FxHashSet, IndexOrder, IndexedGraph, LiveRange, TrieIndex};
use kgoa_query::{ExplorationQuery, Var, WalkAccess};

use crate::budget::{BudgetMeter, ExecBudget};
use crate::error::EngineError;
use crate::result::GroupedCounts;

/// One pattern's base relation: its matching rows plus where each variable
/// lives within a row.
struct Rel<'g> {
    index: &'g TrieIndex,
    range: LiveRange,
    /// (variable, row slot) pairs; the slot is the level index in the
    /// access's order (prefix slots hold constants/none).
    var_slots: Vec<(Var, usize)>,
}

impl Rel<'_> {
    fn slot_of(&self, v: Var) -> usize {
        self.var_slots
            .iter()
            .find(|(w, _)| *w == v)
            .map(|(_, s)| *s)
            .expect("variable occurs in relation")
    }
}

/// A semi-join reduction of a connected Berge-acyclic pattern set, rooted
/// at a chosen pattern. After construction, a root tuple whose child join
/// values are all supported participates in at least one full join result.
struct Reduction<'g> {
    rels: Vec<Rel<'g>>,
    order: Vec<usize>,
    parent: Vec<Option<(usize, Var)>>,
    support: Vec<FxHashSet<u32>>,
    root: usize,
}

impl<'g> Reduction<'g> {
    fn new(
        ig: &'g IndexedGraph,
        patterns: &[kgoa_query::TriplePattern],
        var_count: usize,
        root: usize,
        meter: &mut BudgetMeter,
    ) -> Result<Self, EngineError> {
        let n = patterns.len();
        // Materialize base relations (constants resolved via the indexes).
        let mut rels: Vec<Rel<'g>> = Vec::with_capacity(n);
        for (pi, pattern) in patterns.iter().enumerate() {
            let access = WalkAccess::plan(pattern, None, &IndexOrder::PAPER_DEFAULT, pi)?;
            let index = ig.require(access.order);
            let range = access.resolve_live(index, None);
            let k = access.prefix_len();
            let var_slots = access
                .free
                .iter()
                .enumerate()
                .map(|(j, pos)| {
                    let v = pattern.get(*pos).as_var().expect("free level is a variable");
                    (v, k + j)
                })
                .collect();
            rels.push(Rel { index, range, var_slots });
        }

        // Pattern tree: edges labelled by the shared variable (a variable
        // in k patterns stars around its first home — Berge-acyclicity
        // makes this a tree).
        let mut var_home: Vec<Option<usize>> = vec![None; var_count];
        let mut adj: Vec<Vec<(usize, Var)>> = vec![Vec::new(); n];
        for (pi, pattern) in patterns.iter().enumerate() {
            for (v, _) in pattern.vars() {
                match var_home[v.index()] {
                    None => var_home[v.index()] = Some(pi),
                    Some(pj) => {
                        adj[pj].push((pi, v));
                        adj[pi].push((pj, v));
                    }
                }
            }
        }
        // BFS orientation away from the root.
        let mut order = vec![root];
        let mut parent: Vec<Option<(usize, Var)>> = vec![None; n];
        let mut visited = vec![false; n];
        visited[root] = true;
        let mut head = 0;
        while head < order.len() {
            let x = order[head];
            head += 1;
            for &(y, v) in &adj[x] {
                if !visited[y] {
                    visited[y] = true;
                    parent[y] = Some((x, v));
                    order.push(y);
                }
            }
        }
        debug_assert!(order.len() == n, "validated queries are connected");

        // Bottom-up supports.
        let mut support: Vec<FxHashSet<u32>> = (0..n).map(|_| FxHashSet::default()).collect();
        for &pi in order.iter().rev() {
            if pi == root {
                continue;
            }
            let (_, join_var) = parent[pi].expect("non-root has a parent");
            let children: Vec<(usize, Var)> = (0..n)
                .filter_map(|c| parent[c].filter(|(pp, _)| *pp == pi).map(|(_, v)| (c, v)))
                .collect();
            let join_slot = rels[pi].slot_of(join_var);
            let child_slots: Vec<(usize, usize)> =
                children.iter().map(|(c, v)| (*c, rels[pi].slot_of(*v))).collect();
            let rel = &rels[pi];
            let mut live: FxHashSet<u32> = FxHashSet::default();
            for pos in rel.index.positions(rel.range) {
                meter.tick()?;
                let row = rel.index.row(pos);
                let alive =
                    child_slots.iter().all(|(c, slot)| support[*c].contains(&row[*slot]));
                if alive {
                    live.insert(row[join_slot]);
                }
            }
            support[pi] = live;
        }
        Ok(Reduction { rels, order, parent, support, root })
    }

    /// The root's children with the root-side slot of their join variable.
    fn root_child_slots(&self) -> Vec<(usize, usize)> {
        (0..self.rels.len())
            .filter_map(|c| {
                self.parent[c]
                    .filter(|(pp, _)| *pp == self.root)
                    .map(|(_, v)| (c, self.rels[self.root].slot_of(v)))
            })
            .collect()
    }
}

/// Number of distinct values a variable takes over all full join results —
/// e.g. the size of an exploration session's focus set. O(input) via
/// semi-join reduction rooted at a pattern containing the variable.
pub fn count_distinct_values(
    ig: &IndexedGraph,
    patterns: &[kgoa_query::TriplePattern],
    var_count: usize,
    var: Var,
) -> Result<u64, EngineError> {
    let root = patterns
        .iter()
        .position(|p| p.position_of(var).is_some())
        .ok_or(EngineError::Unsupported("variable does not occur in the patterns"))?;
    let mut meter = ExecBudget::unlimited().meter();
    let red = Reduction::new(ig, patterns, var_count, root, &mut meter)?;
    let child_slots = red.root_child_slots();
    let slot = red.rels[root].slot_of(var);
    let rel = &red.rels[root];
    let mut values: FxHashSet<u32> = FxHashSet::default();
    for pos in rel.index.positions(rel.range) {
        let row = rel.index.row(pos);
        if child_slots.iter().all(|(c, s)| red.support[*c].contains(&row[*s])) {
            values.insert(row[slot]);
        }
    }
    Ok(values.len() as u64)
}

/// Evaluate a grouped distinct count via semi-join reduction under a
/// cooperative budget: every relation sweep (semi-join reduction, counting
/// DP, final read-off) is metered.
///
/// Returns [`EngineError::Unsupported`] if α and β do not co-occur in any
/// pattern (the generic engines handle that case).
pub(crate) fn yannakakis_grouped_distinct_governed(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    budget: &ExecBudget,
) -> Result<GroupedCounts, EngineError> {
    let alpha = query.alpha();
    let beta = query.beta();
    let root = query
        .patterns()
        .iter()
        .position(|p| p.position_of(alpha).is_some() && p.position_of(beta).is_some())
        .ok_or(EngineError::Unsupported("α and β must co-occur in one pattern"))?;

    let n = query.patterns().len();
    let mut meter = budget.meter();
    let red = Reduction::new(ig, query.patterns(), query.var_count(), root, &mut meter)?;
    let Reduction { rels, order, parent, support, .. } = &red;
    let child_slots = red.root_child_slots();
    let a_slot = rels[root].slot_of(alpha);
    let b_slot = rels[root].slot_of(beta);
    let rel = &rels[root];
    let mut out = GroupedCounts::new();
    if query.distinct() {
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        for pos in rel.index.positions(rel.range) {
            meter.tick()?;
            let row = rel.index.row(pos);
            if child_slots.iter().all(|(c, slot)| support[*c].contains(&row[*slot]))
                && seen.insert(kgoa_index::pack2(row[a_slot], row[b_slot]))
            {
                out.add(row[a_slot], 1);
            }
        }
    } else {
        // Non-distinct grouped counts require multiplicities, which
        // semi-joins alone do not track; count completions per live root
        // tuple via the per-subtree counting DP.
        let mut counts: Vec<FxHashMap<u32, u64>> = (0..n).map(|_| FxHashMap::default()).collect();
        for &pi in order.iter().rev() {
            if pi == root {
                continue;
            }
            let (_, join_var) = parent[pi].expect("non-root has a parent");
            let kids: Vec<(usize, Var)> = (0..n)
                .filter_map(|c| parent[c].filter(|(pp, _)| *pp == pi).map(|(_, v)| (c, v)))
                .collect();
            let join_slot = rels[pi].slot_of(join_var);
            let kid_slots: Vec<(usize, usize)> =
                kids.iter().map(|(c, v)| (*c, rels[pi].slot_of(*v))).collect();
            let rel = &rels[pi];
            let mut acc: FxHashMap<u32, u64> = FxHashMap::default();
            for pos in rel.index.positions(rel.range) {
                meter.tick()?;
                let row = rel.index.row(pos);
                let mut m = 1u64;
                let mut dead = false;
                for (c, slot) in &kid_slots {
                    match counts[*c].get(&row[*slot]) {
                        Some(k) => m *= *k,
                        None => {
                            dead = true;
                            break;
                        }
                    }
                }
                if !dead {
                    *acc.entry(row[join_slot]).or_insert(0) += m;
                }
            }
            counts[pi] = acc;
        }
        for pos in rel.index.positions(rel.range) {
            meter.tick()?;
            let row = rel.index.row(pos);
            let mut m = 1u64;
            let mut dead = false;
            for (c, slot) in &child_slots {
                match counts[*c].get(&row[*slot]) {
                    Some(k) => m *= *k,
                    None => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead {
                out.add(row[a_slot], m);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_query::TriplePattern;
    use kgoa_rdf::{GraphBuilder, TermId, Triple};

    fn graph() -> (IndexedGraph, TermId, TermId) {
        // a -p-> {x, y, z}; x -q-> c1; y -q-> c1; z dead-ends.
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let n = |b: &mut GraphBuilder, s: &str| b.dict_mut().intern_iri(format!("u:{s}"));
        let a = n(&mut b, "a");
        let x = n(&mut b, "x");
        let y = n(&mut b, "y");
        let z = n(&mut b, "z");
        let c1 = n(&mut b, "c1");
        for t in [
            Triple::new(a, p, x),
            Triple::new(a, p, y),
            Triple::new(a, p, z),
            Triple::new(x, q, c1),
            Triple::new(y, q, c1),
        ] {
            b.add(t);
        }
        (IndexedGraph::build(b.build()), p, q)
    }

    #[test]
    fn distinct_counts_match_semantics() {
        let (ig, p, q) = graph();
        // Group by ?2 (object of q), count distinct ?1: c1 -> {x, y} = 2.
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
        let out =
            yannakakis_grouped_distinct_governed(&ig, &query, &ExecBudget::unlimited()).unwrap();
        let c1 = ig.dict().lookup_iri("u:c1").unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.get(c1), 2);
    }

    #[test]
    fn semi_join_prunes_dead_branches() {
        let (ig, p, q) = graph();
        // Root pattern is pattern 0 (contains α=?0? no) — use α=?1, β=?0 on
        // pattern 0, with pattern 1 as a filter: only x and y survive.
        let query = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
            ],
            Var(1),
            Var(0),
            true,
        )
        .unwrap();
        let out =
            yannakakis_grouped_distinct_governed(&ig, &query, &ExecBudget::unlimited()).unwrap();
        assert_eq!(out.len(), 2); // groups x and y; z pruned
        let x = ig.dict().lookup_iri("u:x").unwrap();
        let z = ig.dict().lookup_iri("u:z").unwrap();
        assert_eq!(out.get(x), 1);
        assert_eq!(out.get(z), 0);
    }

    #[test]
    fn non_distinct_counts_multiplicities() {
        let (ig, p, q) = graph();
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
        let out =
            yannakakis_grouped_distinct_governed(&ig, &query, &ExecBudget::unlimited()).unwrap();
        let c1 = ig.dict().lookup_iri("u:c1").unwrap();
        assert_eq!(out.get(c1), 2);
    }

    #[test]
    fn count_distinct_values_dedups_across_groups() {
        let (ig, p, q) = graph();
        // ?0 -p-> ?1 -q-> ?2: distinct ?1 over full results = {x, y}.
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
        let n = count_distinct_values(&ig, query.patterns(), query.var_count(), Var(1)).unwrap();
        assert_eq!(n, 2);
        // Distinct sources: just a.
        let n0 = count_distinct_values(&ig, query.patterns(), query.var_count(), Var(0)).unwrap();
        assert_eq!(n0, 1);
        // Unknown variable is unsupported.
        assert!(matches!(
            count_distinct_values(&ig, query.patterns(), query.var_count(), Var(9)),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn unsupported_when_heads_split() {
        let (ig, p, q) = graph();
        // α in pattern 0 only, β in pattern 1 only — never co-occur.
        let query = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
            ],
            Var(0),
            Var(2),
            true,
        )
        .unwrap();
        assert!(matches!(
            yannakakis_grouped_distinct_governed(&ig, &query, &ExecBudget::unlimited()),
            Err(EngineError::Unsupported(_))
        ));
    }
}
