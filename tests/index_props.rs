//! Property tests of the index substrate over seeded random cases: trie
//! indexes, cursors and statistics must agree with naive scans on
//! arbitrary triple sets.
//!
//! Each test is a deterministic fuzz loop: case `i` derives its triples
//! from `SmallRng::seed_from_u64(BASE + i)`, so a failure report's case
//! number reproduces exactly.

use kgoa_index::{
    pack2, IndexOrder, IndexedGraph, LiveRange, RowRange, TrieCursor, TrieIndex,
};
use kgoa_rdf::{subclass_closure, GraphBuilder, TermId, Triple};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

fn raw_triples(rng: &mut SmallRng) -> Vec<(u8, u8, u8)> {
    let n = rng.gen_range(0usize..60);
    (0..n)
        .map(|_| (rng.gen_range(0u8..16), rng.gen_range(0u8..6), rng.gen_range(0u8..16)))
        .collect()
}

fn build(triples: &[(u8, u8, u8)]) -> Vec<Triple> {
    // Map the small id spaces into disjoint raw id ranges so positions are
    // distinguishable.
    let mut ts: Vec<Triple> = triples
        .iter()
        .map(|(s, p, o)| Triple::from([*s as u32, 100 + *p as u32, 200 + *o as u32]))
        .collect();
    ts.sort_unstable();
    ts.dedup();
    ts
}

/// The rows starting with `prefix`, as a position range of the sorted
/// `rows` — the naive reference for every prefix lookup.
fn scan(rows: &[[u32; 3]], prefix: &[u32]) -> RowRange {
    let k = prefix.len();
    let lo = rows.partition_point(|r| &r[..k] < prefix);
    let hi = rows.partition_point(|r| &r[..k] <= prefix);
    if lo < hi {
        RowRange { start: lo as u32, end: hi as u32 }
    } else {
        RowRange::EMPTY
    }
}

#[test]
fn ranges_agree_with_scan() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1DE_0000 + case);
        let triples = build(&raw_triples(&mut rng));
        let order = IndexOrder::ALL[rng.gen_range(0usize..6)];
        let idx = TrieIndex::build(order, &triples);
        assert_eq!(idx.len(), triples.len(), "case {case}");
        let mut rows: Vec<[u32; 3]> = triples.iter().map(|t| order.permute(*t)).collect();
        rows.sort_unstable();
        assert_eq!(idx.to_rows(), rows, "case {case}");
        let distinct = |keys: &mut Vec<u32>| {
            keys.sort_unstable();
            keys.dedup();
            keys.len()
        };
        assert_eq!(
            idx.distinct_l0(),
            distinct(&mut rows.iter().map(|r| r[0]).collect()),
            "case {case}"
        );
        // Every id any attribute takes, plus ids no triple uses: present
        // and absent keys at every level.
        let ids: Vec<u32> = (0..16).chain(98..108).chain(198..218).chain([99_999]).collect();
        let mut probes2 = Vec::new();
        for &a in &ids {
            let r1 = scan(&rows, &[a]);
            assert_eq!(idx.range1(a), r1, "case {case}: range1({a})");
            let mut l1: Vec<u32> = rows[r1.as_usize()].iter().map(|r| r[1]).collect();
            assert_eq!(idx.children_of(a) as usize, distinct(&mut l1), "case {case}: {a}");
            for &b in &ids {
                let r2 = scan(&rows, &[a, b]);
                assert_eq!(idx.range2(a, b), r2, "case {case}: range2({a},{b})");
                probes2.push((pack2(a, b), probes2.len() as u32));
                for c in rows[r2.as_usize()].iter().map(|r| r[2]).chain([0, 99_999]) {
                    let pos = rows.binary_search(&[a, b, c]).ok().map(|p| p as u32);
                    assert_eq!(idx.locate(a, b, c), pos, "case {case}: locate({a},{b},{c})");
                }
            }
        }
        // The batch entry point returns what the scan does.
        let mut out2 = vec![LiveRange::EMPTY; probes2.len()];
        idx.seek2_batch(&probes2, &mut out2);
        for (&(packed, _), got) in probes2.iter().zip(&out2) {
            let (a, b) = ((packed >> 32) as u32, packed as u32);
            assert_eq!(*got, LiveRange::solid(scan(&rows, &[a, b])), "case {case}: batch2({a},{b})");
        }
    }
}

#[test]
fn rows_decode_back_to_input() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1DE_1000 + case);
        let triples = build(&raw_triples(&mut rng));
        let order = IndexOrder::ALL[rng.gen_range(0usize..6)];
        let idx = TrieIndex::build(order, &triples);
        let mut decoded: Vec<Triple> = (0..idx.len() as u32).map(|i| idx.triple(i)).collect();
        decoded.sort_unstable();
        assert_eq!(decoded, triples, "case {case}");
    }
}

#[test]
fn cursor_enumerates_distinct_sorted_keys() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1DE_2000 + case);
        let triples = build(&raw_triples(&mut rng));
        if triples.is_empty() {
            continue;
        }
        let order = IndexOrder::ALL[rng.gen_range(0usize..6)];
        let idx = TrieIndex::build(order, &triples);
        let [a_pos, b_pos, c_pos] = order.positions();
        let mut cur = TrieCursor::over_index(&idx);
        cur.open();
        let mut seen = 0usize;
        let mut prev_a: Option<u32> = None;
        while !cur.at_end() {
            let a = cur.key();
            if let Some(pa) = prev_a {
                assert!(a > pa, "case {case}: level-0 keys must be strictly increasing");
            }
            prev_a = Some(a);
            // Descend and verify full leaf enumeration matches a scan.
            cur.open();
            while !cur.at_end() {
                let b = cur.key();
                cur.open();
                while !cur.at_end() {
                    let c = cur.key();
                    let exists = triples.iter().any(|t| {
                        t.get(a_pos).raw() == a
                            && t.get(b_pos).raw() == b
                            && t.get(c_pos).raw() == c
                    });
                    assert!(exists, "case {case}: cursor produced a phantom triple");
                    seen += 1;
                    cur.next_key();
                }
                cur.up();
                cur.next_key();
            }
            cur.up();
            cur.next_key();
        }
        assert_eq!(seen, triples.len(), "case {case}: cursor must visit every triple once");
    }
}

#[test]
fn seek_is_lower_bound() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1DE_3000 + case);
        let triples = build(&raw_triples(&mut rng));
        if triples.is_empty() {
            continue;
        }
        let target = rng.gen_range(0u32..20);
        let idx = TrieIndex::build(IndexOrder::Spo, &triples);
        let mut cur = TrieCursor::over_index(&idx);
        cur.open();
        cur.seek(target);
        let expected: Option<u32> =
            triples.iter().map(|t| t.s.raw()).filter(|s| *s >= target).min();
        match expected {
            Some(k) => {
                assert!(!cur.at_end(), "case {case}");
                assert_eq!(cur.key(), k, "case {case}");
            }
            None => assert!(cur.at_end(), "case {case}"),
        }
    }
}

#[test]
fn stats_match_scans() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1DE_4000 + case);
        let triples = build(&raw_triples(&mut rng));
        let mut b = GraphBuilder::new();
        for t in &triples {
            // Re-intern through a dictionary to get a realistic graph.
            let s = b.dict_mut().intern_iri(format!("u:s{}", t.s.raw()));
            let p = b.dict_mut().intern_iri(format!("u:p{}", t.p.raw()));
            let o = b.dict_mut().intern_iri(format!("u:o{}", t.o.raw()));
            b.add(Triple::new(s, p, o));
        }
        let g = b.build();
        let dedup: Vec<Triple> = g.triples().to_vec();
        let ig = IndexedGraph::build(g);
        let distinct = |f: fn(&Triple) -> u32| {
            let mut v: Vec<u32> = dedup.iter().map(f).collect();
            v.sort_unstable();
            v.dedup();
            v.len() as u64
        };
        assert_eq!(ig.stats().triples, dedup.len() as u64, "case {case}");
        assert_eq!(ig.stats().distinct_subjects, distinct(|t| t.s.raw()), "case {case}");
        assert_eq!(ig.stats().distinct_predicates, distinct(|t| t.p.raw()), "case {case}");
        assert_eq!(ig.stats().distinct_objects, distinct(|t| t.o.raw()), "case {case}");
        // Per-predicate stats.
        for t in &dedup {
            let ps = ig.stats().predicate(t.p.raw());
            let matching: Vec<&Triple> = dedup.iter().filter(|x| x.p == t.p).collect();
            assert_eq!(ps.triples, matching.len() as u64, "case {case}");
            let mut subj: Vec<u32> = matching.iter().map(|x| x.s.raw()).collect();
            subj.sort_unstable();
            subj.dedup();
            assert_eq!(ps.distinct_subjects, subj.len() as u64, "case {case}");
        }
    }
}

#[test]
fn sampling_is_uniform_over_range() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1DE_5000 + case);
        let triples = build(&raw_triples(&mut rng));
        if triples.len() < 4 {
            continue;
        }
        let idx = TrieIndex::build(IndexOrder::Spo, &triples);
        let range = idx.full_range();
        let mut pick_rng = SmallRng::seed_from_u64(1);
        let mut counts = vec![0u32; triples.len()];
        let draws = 200 * triples.len();
        for _ in 0..draws {
            let pos = range.pick(&mut pick_rng).expect("non-empty");
            counts[pos as usize] += 1;
        }
        // Every row is sampled; chi-square style sanity: no row gets more
        // than 4x its fair share.
        let fair = draws as f64 / triples.len() as f64;
        for (i, c) in counts.iter().enumerate() {
            assert!(*c > 0, "case {case}: row {i} never sampled");
            assert!((*c as f64) < 4.0 * fair, "case {case}: row {i} oversampled: {c}");
        }
    }
}

#[test]
fn subclass_closure_is_reflexive_transitive() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1DE_6000 + case);
        let n = rng.gen_range(0usize..25);
        let edges: Vec<(u32, u32)> =
            (0..n).map(|_| (rng.gen_range(0u32..10), rng.gen_range(0u32..10))).collect();
        const TYPE: TermId = TermId(90);
        const SUB: TermId = TermId(91);
        let triples: Vec<Triple> =
            edges.iter().map(|(a, b)| Triple::new(TermId(*a), SUB, TermId(*b))).collect();
        let closure = subclass_closure(&triples, TYPE, SUB);
        let set: std::collections::HashSet<(TermId, TermId)> = closure.iter().copied().collect();
        // Reflexive over every class mentioned.
        for (a, b) in &edges {
            assert!(set.contains(&(TermId(*a), TermId(*a))), "case {case}");
            assert!(set.contains(&(TermId(*b), TermId(*b))), "case {case}");
        }
        // Contains every direct edge.
        for (a, b) in &edges {
            assert!(set.contains(&(TermId(*a), TermId(*b))), "case {case}");
        }
        // Transitive: (x,y) ∧ (y,z) ⇒ (x,z).
        for &(x, y) in &set {
            for &(y2, z) in &set {
                if y == y2 {
                    assert!(set.contains(&(x, z)), "case {case}: missing ({x}, {z})");
                }
            }
        }
    }
}

#[test]
fn update_merge_equals_rebuild_prop() {
    use kgoa_index::UpdateBatch;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1DE_7000 + case);
        let base = build(&raw_triples(&mut rng));
        let batch = UpdateBatch {
            insert: build(&raw_triples(&mut rng)),
            delete: build(&raw_triples(&mut rng)),
        };
        for order in [IndexOrder::Spo, IndexOrder::Pos] {
            let idx = TrieIndex::build(order, &base);
            let merged = idx.merged(&batch);
            let mut expected: Vec<Triple> =
                base.iter().filter(|t| !batch.delete.contains(t)).copied().collect();
            expected.extend(batch.insert.iter().filter(|t| !batch.delete.contains(t)));
            expected.sort_unstable();
            expected.dedup();
            let rebuilt = TrieIndex::build(order, &expected);
            assert_eq!(merged.to_rows(), rebuilt.to_rows(), "case {case}: order {order}");
        }
    }
}
