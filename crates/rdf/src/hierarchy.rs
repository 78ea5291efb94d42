//! The materialized reflexive-transitive subclass closure (§IV-A of the
//! paper).

use std::collections::{HashMap, HashSet};

use crate::term::TermId;
use crate::triple::Triple;

/// Compute the reflexive-transitive closure of `rdfs:subClassOf` over the
/// given triples.
///
/// "Classes" are terms that appear as subject or object of a subclass edge,
/// or as the object of an `rdf:type` edge. Every class gets a reflexive
/// `(c, c)` pair so that instances explicitly typed `c` reach `c` through
/// the closure relation. Cycles are tolerated (each source class tracks a
/// visited set).
///
/// Returns the closure as `(subclass, superclass)` pairs, sorted and
/// deduplicated.
pub fn subclass_closure(
    triples: &[Triple],
    rdf_type: TermId,
    subclass_of: TermId,
) -> Vec<(TermId, TermId)> {
    let mut parents: HashMap<TermId, Vec<TermId>> = HashMap::new();
    let mut classes: HashSet<TermId> = HashSet::new();
    for t in triples {
        if t.p == subclass_of {
            parents.entry(t.s).or_default().push(t.o);
            classes.insert(t.s);
            classes.insert(t.o);
        } else if t.p == rdf_type {
            classes.insert(t.o);
        }
    }

    let mut out: Vec<(TermId, TermId)> = Vec::new();
    // Memoized ancestors per class. Because hierarchies are shallow relative
    // to their width, a simple DFS with per-class memoization is linear in
    // the closure size.
    let mut memo: HashMap<TermId, Vec<TermId>> = HashMap::new();
    let mut order: Vec<TermId> = classes.iter().copied().collect();
    order.sort_unstable();
    for c in &order {
        let ancestors = ancestors_of(*c, &parents, &mut memo);
        out.push((*c, *c));
        for a in ancestors {
            out.push((*c, a));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// All strict ancestors of `c` (excluding `c` itself unless it lies on a
/// cycle through itself), memoized.
fn ancestors_of(
    c: TermId,
    parents: &HashMap<TermId, Vec<TermId>>,
    memo: &mut HashMap<TermId, Vec<TermId>>,
) -> Vec<TermId> {
    if let Some(a) = memo.get(&c) {
        return a.clone();
    }
    // Iterative DFS with a visited set; cycle-safe. We intentionally do not
    // reuse `memo` for nodes discovered mid-cycle, only for completed roots;
    // correctness over micro-optimization here since hierarchies are small.
    let mut visited: HashSet<TermId> = HashSet::new();
    let mut stack: Vec<TermId> = parents.get(&c).cloned().unwrap_or_default();
    while let Some(n) = stack.pop() {
        if visited.insert(n) {
            if let Some(ps) = parents.get(&n) {
                for p in ps {
                    if !visited.contains(p) {
                        stack.push(*p);
                    }
                }
            }
        }
    }
    let mut result: Vec<TermId> = visited.into_iter().collect();
    result.sort_unstable();
    memo.insert(c, result.clone());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(x: u32) -> TermId {
        TermId(x)
    }

    const TYPE: TermId = TermId(100);
    const SUB: TermId = TermId(101);

    fn sc(s: u32, o: u32) -> Triple {
        Triple::new(tid(s), SUB, tid(o))
    }

    fn ty(s: u32, o: u32) -> Triple {
        Triple::new(tid(s), TYPE, tid(o))
    }

    #[test]
    fn closure_of_chain() {
        // 2 <: 1 <: 0
        let triples = vec![sc(1, 0), sc(2, 1)];
        let c = subclass_closure(&triples, TYPE, SUB);
        let set: HashSet<_> = c.into_iter().collect();
        for pair in [(0, 0), (1, 1), (2, 2), (1, 0), (2, 1), (2, 0)] {
            assert!(set.contains(&(tid(pair.0), tid(pair.1))), "missing {pair:?}");
        }
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn closure_includes_type_only_classes_reflexively() {
        let triples = vec![ty(5, 9)];
        let c = subclass_closure(&triples, TYPE, SUB);
        assert_eq!(c, vec![(tid(9), tid(9))]);
    }

    #[test]
    fn closure_handles_diamond() {
        // 3 <: 1, 3 <: 2, 1 <: 0, 2 <: 0
        let triples = vec![sc(3, 1), sc(3, 2), sc(1, 0), sc(2, 0)];
        let c = subclass_closure(&triples, TYPE, SUB);
        let set: HashSet<_> = c.into_iter().collect();
        assert!(set.contains(&(tid(3), tid(0))));
        // (3,0) must appear exactly once (dedup across the two paths).
        assert_eq!(set.len(), 4 + 2 + 2 + 1); // 4 reflexive, 3's 3 ancestors... compute: refl {0,1,2,3}=4; (1,0),(2,0)=2; (3,1),(3,2),(3,0)=3. total 9
    }

    #[test]
    fn closure_tolerates_cycles() {
        // 0 <: 1 <: 0 — a cycle; both reach each other and themselves.
        let triples = vec![sc(0, 1), sc(1, 0)];
        let c = subclass_closure(&triples, TYPE, SUB);
        let set: HashSet<_> = c.into_iter().collect();
        for pair in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            assert!(set.contains(&(tid(pair.0), tid(pair.1))));
        }
    }
}
