//! Micro-benchmarks for the online-aggregation hot path: Wander Join and
//! Audit Join walk throughput (the paper reports ≈2.5 µs per sample for
//! both, §V-C), as time per walk in the 256-walk batches production steps.

use kgoa_bench::microbench::Runner;
use kgoa_bench::{load_datasets, prepare_workload, BenchConfig};
use kgoa_core::{run_walks, AuditJoin, AuditJoinConfig, OnlineAggregator, Tipping, WanderJoin};
use kgoa_datagen::Scale;

fn main() {
    let cfg = BenchConfig { scale: Scale::Small, runs: 6, max_steps: 3, ..BenchConfig::default() };
    let datasets = load_datasets(cfg.scale);
    let workload = prepare_workload(&datasets, &cfg);
    // Deepest query available — the most interesting walk.
    let q = workload
        .iter()
        .max_by_key(|q| q.generated.step)
        .expect("workload is non-empty");
    let ig = &datasets[q.dataset].ig;

    const BATCH: u64 = 256;
    let runner = Runner::from_args().with_samples(30);

    let mut wj = WanderJoin::new(ig, &q.generated.query, 1).expect("wj");
    run_walks(&mut wj, 1000); // warm up
    runner.bench_items("walk/wander_join", BATCH, || wj.step_batch(BATCH));

    let mut aj = AuditJoin::new(
        ig,
        &q.generated.query,
        AuditJoinConfig { tipping: Tipping::from_threshold(cfg.tipping_threshold), seed: 1 },
    )
    .expect("aj");
    run_walks(&mut aj, 1000); // warm caches
    runner.bench_items("walk/audit_join", BATCH, || aj.step_batch(BATCH));

    let mut aj = AuditJoin::new(
        ig,
        &q.generated.query,
        AuditJoinConfig { tipping: Tipping::Off, seed: 1 },
    )
    .expect("aj");
    run_walks(&mut aj, 1000);
    runner.bench_items("walk/audit_join_no_tipping", BATCH, || aj.step_batch(BATCH));
}
