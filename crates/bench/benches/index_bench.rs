//! Micro-benchmarks for the trie indexes: build time, prefix range
//! lookups (binary search per bound level), O(1) sampling, and
//! trie-cursor seeks.

use kgoa_bench::microbench::{black_box, Runner};
use kgoa_datagen::{generate, KgConfig, Scale};
use kgoa_index::{IndexOrder, IndexedGraph, TrieCursor, TrieIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_index(runner: &Runner) {
    let graph = generate(&KgConfig::dbpedia_like(Scale::Small));
    let triples = graph.triples().to_vec();

    runner.bench("index/build_pso", || {
        black_box(TrieIndex::build(IndexOrder::Pso, black_box(&triples)));
    });

    let ig = IndexedGraph::build(graph);
    let pso = ig.require(IndexOrder::Pso);
    // Collect some live predicate/subject keys to query.
    let keys: Vec<(u32, u32)> = pso
        .iter_l0()
        .flat_map(|(p, r)| {
            let row = pso.row(r.start);
            std::iter::once((p, row[1]))
        })
        .take(1024)
        .collect();

    let mut i = 0;
    runner.bench("index/range1", || {
        i = (i + 1) % keys.len();
        black_box(pso.range1(keys[i].0));
    });

    let mut i = 0;
    runner.bench("index/range2", || {
        i = (i + 1) % keys.len();
        black_box(pso.range2(keys[i].0, keys[i].1));
    });

    let mut rng = SmallRng::seed_from_u64(7);
    let mut i = 0;
    runner.bench("index/sample_from_range", || {
        i = (i + 1) % keys.len();
        let r = pso.range1(keys[i].0);
        black_box(r.pick(&mut rng));
    });

    let mut rng = SmallRng::seed_from_u64(8);
    runner.bench("index/cursor_seek_scan", || {
        let mut cur = TrieCursor::over_index(pso);
        cur.open();
        let mut n = 0u32;
        while !cur.at_end() && n < 64 {
            black_box(cur.key());
            // Seek a random amount forward to exercise the gallop path.
            let jump: u32 = rng.gen_range(1..1000);
            cur.seek(cur.key().saturating_add(jump));
            n += 1;
        }
        black_box(n);
    });
}

fn bench_updates(runner: &Runner) {
    use kgoa_index::UpdateBatch;
    use kgoa_rdf::Triple;
    let graph = generate(&KgConfig::dbpedia_like(Scale::Small));
    let dict = graph.dict().clone();
    let triples = graph.triples().to_vec();
    let ig = IndexedGraph::build(graph);
    // A 1% batch of fresh edges between existing nodes.
    let batch: Vec<Triple> = triples
        .iter()
        .step_by(100)
        .map(|t| Triple::new(t.o, t.p, t.s))
        .collect();

    let insert = UpdateBatch::inserting(batch.clone());
    runner.bench("update/merge_batch", || {
        black_box(kgoa_index::apply_batch(&ig, dict.clone(), &insert));
    });

    runner.bench("update/full_rebuild", || {
        let mut all = triples.clone();
        all.extend_from_slice(&batch);
        all.sort_unstable();
        all.dedup();
        black_box(kgoa_index::TrieIndex::build(IndexOrder::Spo, &all));
        black_box(kgoa_index::TrieIndex::build(IndexOrder::Ops, &all));
        black_box(kgoa_index::TrieIndex::build(IndexOrder::Pso, &all));
        black_box(kgoa_index::TrieIndex::build(IndexOrder::Pos, &all));
    });
}

fn main() {
    let runner = Runner::from_args().with_samples(20);
    bench_index(&runner);
    bench_updates(&runner);
}
