//! Layout A/B experiments for the PR 4 columnar index and the PR 10
//! compressed index.
//!
//! Two experiments compare the CSR columnar layout ([`Layout::Csr`]) with
//! the bit-packed compressed layout ([`Layout::Compressed`]):
//!
//! - `index-bench` builds both layouts over the paper-shaped graphs (at
//!   10× the configured scale, where the space/speed trade-off is
//!   visible) and times construction plus the three index hot paths (full
//!   trie walks, galloped seeks, point containment) plus batched Wander
//!   Join throughput, and reports index bytes per stored triple;
//! - `layout-parity` is a gate: leaf positions and prefix ranges must
//!   equal a naive scan of the sorted rows, and exact CTJ/LFTJ results
//!   and deterministic Wander Join runs must be *identical* across both
//!   layouts (leaf positions coincide by construction, so even the
//!   sampled walks are bit-equal).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use kgoa_core::{run_walks_batched, WanderJoin};
use kgoa_datagen::{generate_with_info, KgConfig};
use kgoa_engine::{CountEngine, CtjEngine, LftjEngine, YannakakisEngine};
use kgoa_explore::{generate_explorations, GeneratorConfig};
use kgoa_index::{IndexOrder, IndexedGraph, Layout, RowRange, TrieCursor};

use crate::metrics::fmt_duration;
use crate::workload::{load_datasets_in, run_fixed_walks, Algo, BenchConfig};

/// Deterministic splitmix-style generator — the experiments must not
/// depend on wall-clock entropy, so probe positions come from this.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let x = self.0;
        (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd)
    }
}

/// Number of probe operations per micro-op timing loop.
const PROBES: usize = 50_000;

/// Entity multiplier applied by `index-bench` on top of the configured
/// scale: layout storage effects (cache misses, bytes/triple) only
/// separate once the key columns outgrow small caches.
pub const INDEX_SCALE_MULT: usize = 10;

/// Walks used to measure batched Wander Join throughput per layout —
/// enough for each timed run to outlast scheduler jitter (tens of
/// milliseconds on the fast layouts at the 10×-scaled configs).
const WJ_THROUGHPUT_WALKS: u64 = 30_000;

/// Walk the full trie depth-first, returning the number of keys visited
/// at all levels — the enumeration pattern of CTJ's per-step scans.
fn full_walk(cursor: &mut TrieCursor) -> u64 {
    let mut visited = 0u64;
    cursor.open();
    loop {
        if cursor.at_end() {
            if cursor.depth() == 1 {
                break;
            }
            cursor.up();
            cursor.next_key();
            continue;
        }
        visited += 1;
        if cursor.depth() < cursor.max_depth() {
            cursor.open();
        } else {
            cursor.next_key();
        }
    }
    visited
}

/// Seek storm: descend the trie along randomly chosen existing rows,
/// seeking each attribute — the navigation pattern of LFTJ/WJ.
fn seek_storm(index: &kgoa_index::TrieIndex, rng: &mut Lcg) -> u64 {
    let len = index.len() as u64;
    let mut hits = 0u64;
    for _ in 0..PROBES {
        let pos = (rng.next() % len) as u32;
        let row = index.row(pos);
        let mut c = TrieCursor::over_index(index);
        c.open();
        for (d, v) in row.iter().enumerate() {
            c.seek(*v);
            debug_assert!(!c.at_end() && c.key() == *v);
            hits += u64::from(c.key());
            if d < 2 {
                c.open();
            }
        }
    }
    hits
}

/// Point-containment storm over a mix of present and absent triples.
fn contains_storm(index: &kgoa_index::TrieIndex, rng: &mut Lcg) -> u64 {
    let len = index.len() as u64;
    let mut present = 0u64;
    for i in 0..PROBES {
        let pos = (rng.next() % len) as u32;
        let mut row = index.row(pos);
        if i % 2 == 1 {
            // Perturb the leaf to probe (mostly) absent rows.
            row[2] = row[2].wrapping_add(1 + (rng.next() % 7) as u32);
        }
        present += u64::from(index.contains_row(row[0], row[1], row[2]));
    }
    present
}

/// Best-of-three timing of a closure, with the closure's checksum
/// returned so the work cannot be optimised away.
fn time_best<F: FnMut() -> u64>(mut f: F) -> (Duration, u64) {
    let mut best = Duration::MAX;
    let mut sum = 0;
    for _ in 0..3 {
        let t0 = Instant::now();
        sum = f();
        best = best.min(t0.elapsed());
    }
    (best, sum)
}

/// One (dataset, layout) measurement from `index-bench`.
pub struct IndexPoint {
    /// Dataset name, including the `-xN` scale suffix.
    pub dataset: String,
    /// Layout measured.
    pub layout: Layout,
    /// Triples in the generated graph.
    pub triples: usize,
    /// Build time for all index orders.
    pub build: Duration,
    /// Full-trie DFS time (CTJ enumeration pattern).
    pub walk: Duration,
    /// Seek-storm time (LFTJ/WJ navigation pattern).
    pub seek: Duration,
    /// Point-containment storm time.
    pub contains: Duration,
    /// Index memory across built orders.
    pub memory: usize,
    /// Index bytes per stored triple copy (each order stores every
    /// triple once, so this divides by orders × triples).
    pub bytes_per_triple: f64,
    /// Batched Wander Join throughput, walks/second.
    pub wj_walks_per_sec: f64,
}

/// Scale a generator config's entity count by `mult`, renaming the
/// dataset so reports and JSON keys are unambiguous about the size.
fn scale_up(mut kg: KgConfig, mult: usize) -> KgConfig {
    if mult > 1 {
        kg.num_entities *= mult;
        kg.name = format!("{}-x{mult}", kg.name);
    }
    kg
}

/// Measure batched Wander Join throughput over one deterministic
/// generated query. The canonical walk plan is used so every layout
/// walks the identical order (and, by parity, the identical RNG
/// stream) — any walks/sec difference is pure storage effect.
fn wj_throughput(ig: &IndexedGraph, cfg: &BenchConfig) -> f64 {
    let gen_cfg = GeneratorConfig { runs: 1, max_steps: cfg.max_steps.max(2), seed: cfg.seed };
    let queries = generate_explorations(ig, &YannakakisEngine, gen_cfg)
        .expect("generator over valid graph");
    let q = &queries.last().expect("generator produced at least one query").query;
    let plan = kgoa_query::WalkPlan::canonical(q, &IndexOrder::PAPER_DEFAULT)
        .expect("plan for valid query");
    // Best of three identical deterministic runs, like the other
    // micro-ops — a single 10k-walk run is short enough for scheduler
    // noise to dominate the cross-layout ratio.
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut wj =
            WanderJoin::with_plan(ig, q, plan.clone(), cfg.seed).expect("wj");
        let t0 = Instant::now();
        run_walks_batched(&mut wj, WJ_THROUGHPUT_WALKS, cfg.batch);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    if best > 0.0 && best.is_finite() { WJ_THROUGHPUT_WALKS as f64 / best } else { 0.0 }
}

/// Build and measure every layout over both paper-shaped graphs with the
/// entity count multiplied by `mult`. Points are dataset-major, in
/// [`Layout::ALL`] order within a dataset.
pub fn index_points(cfg: &BenchConfig, mult: usize) -> Vec<IndexPoint> {
    let mut out = Vec::new();
    for make in [KgConfig::dbpedia_like, KgConfig::lgd_like] {
        let (graph, info) = generate_with_info(&scale_up(make(cfg.scale), mult));
        for layout in Layout::ALL {
            let g = graph.clone();
            let t0 = Instant::now();
            let ig = IndexedGraph::build_with_layout(g, layout);
            let build = t0.elapsed();
            let spo = ig.require(IndexOrder::Spo);
            let (walk, walked) = time_best(|| full_walk(&mut TrieCursor::over_index(spo)));
            let mut rng = Lcg(cfg.seed);
            let (seek, _) = time_best(|| seek_storm(spo, &mut rng));
            let mut rng = Lcg(cfg.seed ^ 0xDEAD);
            let (contains, _) = time_best(|| contains_storm(spo, &mut rng));
            assert!(walked >= spo.len() as u64, "walk visited too few keys");
            let wj_walks_per_sec = wj_throughput(&ig, cfg);
            let memory = ig.memory_bytes();
            let orders = ig.built_orders().len().max(1);
            let triples = info.triples;
            out.push(IndexPoint {
                dataset: info.name.clone(),
                layout,
                triples,
                build,
                walk,
                seek,
                contains,
                memory,
                bytes_per_triple: memory as f64 / (orders * triples.max(1)) as f64,
                wj_walks_per_sec,
            });
        }
    }
    out
}

/// Render the `index-bench` report from measured points.
fn render_index_report(points: &[IndexPoint]) -> String {
    let mut out = String::new();
    writeln!(out, "## Index layout A/B — CSR vs compressed\n").unwrap();
    writeln!(
        out,
        "{} probes per micro-op; walk = full trie DFS (CTJ enumeration), seek = \
         per-attribute galloped descent (LFTJ/WJ navigation), contains = point lookup, \
         B/triple = index bytes per stored triple copy, wj/s = batched Wander Join \
         walks per second.\n",
        PROBES
    )
    .unwrap();
    writeln!(
        out,
        "{:<24} {:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "dataset", "layout", "build", "walk", "seek", "contains", "B/triple", "wj/s"
    )
    .unwrap();
    let mut datasets: Vec<&str> = Vec::new();
    for p in points {
        if !datasets.contains(&p.dataset.as_str()) {
            datasets.push(&p.dataset);
        }
    }
    for name in datasets {
        let ds: Vec<&IndexPoint> = points.iter().filter(|p| p.dataset == name).collect();
        for p in &ds {
            writeln!(
                out,
                "{:<24} {:<10} {:>9} {:>9} {:>9} {:>9} {:>9.2} {:>10.0}",
                p.dataset,
                p.layout.name(),
                fmt_duration(p.build),
                fmt_duration(p.walk),
                fmt_duration(p.seek),
                fmt_duration(p.contains),
                p.bytes_per_triple,
                p.wj_walks_per_sec,
            )
            .unwrap();
        }
        let by = |l: Layout| ds.iter().find(|p| p.layout == l).expect("all layouts measured");
        let (csr, comp) = (by(Layout::Csr), by(Layout::Compressed));
        let tr = |f: fn(&IndexPoint) -> Duration| {
            f(csr).as_secs_f64() / f(comp).as_secs_f64().max(1e-9)
        };
        writeln!(
            out,
            "{:<24} {:<10} {:>8.2}x {:>8.2}x {:>8.2}x {:>8.2}x {:>8.2}x {:>9.2}x   \
             (time: csr/compressed, >1 ⇒ compressed faster; B/triple: ×smaller; \
             wj/s: ×csr speed; gates: space ≥1.8, seek ≥0.7, wj ≥0.8)\n",
            name,
            "ratio",
            tr(|p| p.build),
            tr(|p| p.walk),
            tr(|p| p.seek),
            tr(|p| p.contains),
            csr.bytes_per_triple / comp.bytes_per_triple.max(1e-9),
            comp.wj_walks_per_sec / csr.wj_walks_per_sec.max(1e-9),
        )
        .unwrap();
    }
    out
}

/// `index-bench`: build + micro-op timings + bytes/triple, both layouts,
/// per dataset, at [`INDEX_SCALE_MULT`]× the configured scale.
pub fn index_bench(cfg: &BenchConfig) -> String {
    render_index_report(&index_points(cfg, INDEX_SCALE_MULT))
}

/// Number of sampled prefixes whose ranges are checked against the naive
/// scan.
const RANGE_PROBES: usize = 256;

/// The range of rows starting with `prefix`, by `partition_point` over
/// the sorted rows — the reference the layouts' point lookups must match.
fn naive_range(rows: &[[u32; 3]], prefix: &[u32]) -> RowRange {
    let k = prefix.len();
    let lo = rows.partition_point(|r| &r[..k] < prefix);
    let hi = rows.partition_point(|r| &r[..k] <= prefix);
    if lo < hi {
        RowRange { start: lo as u32, end: hi as u32 }
    } else {
        RowRange::EMPTY
    }
}

/// Structural parity between the two layouts of one graph and the naive
/// reference: leaf positions (row order) per built order against the
/// sorted permuted triples, and the ranges of sampled 1- and 2-attribute
/// prefixes (every other probe perturbed to a mostly-absent key) against
/// [`naive_range`]. These are the invariants the sampled estimators
/// depend on — `pick` draws are a function of the range alone, so if they
/// hold, WJ/AJ RNG streams are identical.
fn structural_parity(
    out: &mut String,
    name: &str,
    a: &IndexedGraph,
    b: &IndexedGraph,
    seed: u64,
) -> (usize, usize) {
    let mut checks = 0usize;
    let mut mismatches = 0usize;
    for order in a.built_orders() {
        let mut reference: Vec<[u32; 3]> =
            a.graph().triples().iter().map(|t| order.permute(*t)).collect();
        reference.sort_unstable();
        checks += 1;
        if a.require(order).to_rows() != reference || b.require(order).to_rows() != reference {
            mismatches += 1;
            writeln!(out, "MISMATCH {name}/{order:?}: leaf positions differ from sorted rows")
                .unwrap();
        }
    }
    let spo_a = a.require(IndexOrder::Spo);
    let spo_b = b.require(IndexOrder::Spo);
    let rows = spo_a.to_rows();
    let mut rng = Lcg(seed ^ 0x00C0_FFEE);
    let mut ranges_ok = true;
    for i in 0..RANGE_PROBES {
        let [mut s, mut p, _] = rows[(rng.next() % rows.len() as u64) as usize];
        match i % 4 {
            1 => p = p.wrapping_add(1 + (rng.next() % 7) as u32),
            3 => s = s.wrapping_add(1 + (rng.next() % 7) as u32),
            _ => {}
        }
        let (r1, r2) = (naive_range(&rows, &[s]), naive_range(&rows, &[s, p]));
        ranges_ok &= spo_a.range1(s) == r1
            && spo_b.range1(s) == r1
            && spo_a.range2(s, p) == r2
            && spo_b.range2(s, p) == r2;
    }
    checks += 1;
    if !ranges_ok {
        mismatches += 1;
        writeln!(out, "MISMATCH {name}: prefix ranges differ from the naive scan").unwrap();
    }
    (checks, mismatches)
}

/// `layout-parity`: exact and sampled results must be identical across
/// both layouts. Returns the report and whether the gate passed.
pub fn layout_parity(cfg: &BenchConfig) -> (String, bool) {
    let mut out = String::new();
    writeln!(out, "## Layout parity gate — CSR vs compressed must agree exactly\n").unwrap();
    let csr_ds = load_datasets_in(cfg.scale, Layout::Csr);
    let comp_ds = load_datasets_in(cfg.scale, Layout::Compressed);
    let gen_cfg = GeneratorConfig { runs: cfg.runs, max_steps: cfg.max_steps, seed: cfg.seed };
    let mut checks = 0usize;
    let mut mismatches = 0usize;
    for (r, c) in csr_ds.iter().zip(&comp_ds) {
        // Physical invariants first: identical leaf positions and prefix
        // ranges are what make everything below bit-equal.
        let (sc, sm) = structural_parity(&mut out, r.name, &r.ig, &c.ig, cfg.seed);
        checks += sc;
        mismatches += sm;
        // The generator samples through the index; identical leaf
        // positions must reproduce the identical query workload.
        let qs_csr = generate_explorations(&r.ig, &YannakakisEngine, gen_cfg)
            .expect("generator over csr layout");
        let qs_comp = generate_explorations(&c.ig, &YannakakisEngine, gen_cfg)
            .expect("generator over compressed layout");
        if qs_csr.len() != qs_comp.len()
            || qs_csr.iter().zip(&qs_comp).any(|(a, b)| a.query != b.query)
        {
            writeln!(out, "MISMATCH {}: generated workloads differ between layouts", r.name)
                .unwrap();
            mismatches += 1;
            continue;
        }
        for (qi, g) in qs_comp.iter().enumerate() {
            let q = &g.query;
            let ctj_r = CtjEngine.evaluate(&r.ig, q).expect("ctj csr");
            let ctj_c = CtjEngine.evaluate(&c.ig, q).expect("ctj compressed");
            let lftj_r = LftjEngine.evaluate(&r.ig, q).expect("lftj csr");
            let lftj_c = LftjEngine.evaluate(&c.ig, q).expect("lftj compressed");
            // Deterministic sampled runs: same seed + same leaf-position
            // space ⇒ the RNG draws, walks, and estimates are bit-equal.
            let (mae_r, st_r) = run_fixed_walks(&r.ig, q, &ctj_r, Algo::Wj, 256, cfg);
            let (mae_c, st_c) = run_fixed_walks(&c.ig, q, &ctj_c, Algo::Wj, 256, cfg);
            checks += 1;
            let exact_ok = ctj_r == ctj_c && lftj_r == lftj_c && ctj_r == lftj_r;
            let sampled_ok = mae_r.to_bits() == mae_c.to_bits() && st_r == st_c;
            if !exact_ok || !sampled_ok {
                mismatches += 1;
                writeln!(
                    out,
                    "MISMATCH {}/q{:02}/step{}: exact_ok={} sampled_ok={}",
                    r.name, qi, g.step, exact_ok, sampled_ok
                )
                .unwrap();
            }
        }
    }
    writeln!(
        out,
        "{} checks across {} datasets × {{csr, compressed}} (leaf positions and prefix ranges \
         vs naive scan, CTJ + LFTJ exact, 256-walk WJ): {}",
        checks,
        csr_ds.len(),
        if mismatches == 0 { "all identical" } else { "LAYOUTS DISAGREE" }
    )
    .unwrap();
    if mismatches > 0 {
        writeln!(out, "FAILED: {mismatches} mismatching checks").unwrap();
    }
    (out, mismatches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_datagen::Scale;
    use std::time::Duration;

    fn tiny_cfg() -> BenchConfig {
        BenchConfig {
            scale: Scale::Tiny,
            ticks: 2,
            tick: Duration::from_millis(20),
            runs: 2,
            max_steps: 2,
            wj_order_trials: 16,
            ..BenchConfig::default()
        }
    }

    #[test]
    fn layout_parity_passes_at_tiny_scale() {
        let (report, ok) = layout_parity(&tiny_cfg());
        assert!(ok, "parity gate failed:\n{report}");
        assert!(report.contains("all identical"));
        assert!(report.contains("compressed"));
    }

    #[test]
    fn index_bench_reports_all_layouts() {
        // mult = 1 keeps the debug-mode test fast; the CLI path applies
        // INDEX_SCALE_MULT.
        let points = index_points(&tiny_cfg(), 1);
        let report = render_index_report(&points);
        assert!(report.contains("csr"), "missing csr row:\n{report}");
        assert!(report.contains("compressed"), "missing compressed row:\n{report}");
        assert!(report.contains("ratio"));
        for p in &points {
            assert!(p.bytes_per_triple > 0.0);
            assert!(p.wj_walks_per_sec > 0.0);
        }
        // Compression must actually engage even at tiny scale: compressed
        // storage strictly below CSR on every dataset.
        for name in ["dbpedia-like", "lgd-like"] {
            let by = |l: Layout| {
                points
                    .iter()
                    .find(|p| p.dataset.starts_with(name) && p.layout == l)
                    .expect("point")
            };
            assert!(
                by(Layout::Compressed).memory < by(Layout::Csr).memory,
                "compressed not smaller than csr on {name}"
            );
        }
    }

    #[test]
    fn scale_up_multiplies_entities_and_renames() {
        let base = KgConfig::dbpedia_like(Scale::Tiny);
        let scaled = scale_up(base.clone(), 10);
        assert_eq!(scaled.num_entities, base.num_entities * 10);
        assert!(scaled.name.ends_with("-x10"), "name: {}", scaled.name);
        let same = scale_up(base.clone(), 1);
        assert_eq!(same.name, base.name);
        assert_eq!(same.num_entities, base.num_entities);
    }
}
